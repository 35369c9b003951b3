"""Block matrix multiplication (§3.2).

Four implementations over one kernel:

* :func:`run_naive` — the triply nested sequential loop;
* :func:`run_blocked` — the cache-friendly blocked sequential version;
* :func:`run_pvm` — Figure 9's message-passing block algorithm;
* :func:`run_messengers` — Figures 10+11: the data-centric version with
  ``distribute_A`` / ``rotate_B`` Messengers coordinated by GVT.

All four produce numerically identical results (up to float
associativity); simulated times reproduce Figure 12's comparison.
"""

from .kernel import make_matrices, multiply_flops, multiply_working_set
from .messengers_app import (
    DISTRIBUTE_A_SCRIPT,
    ROTATE_B_SCRIPT,
    run_messengers,
)
from .pvm_app import run_pvm
from .sequential import run_blocked, run_naive

__all__ = [
    "DISTRIBUTE_A_SCRIPT",
    "ROTATE_B_SCRIPT",
    "make_matrices",
    "multiply_flops",
    "multiply_working_set",
    "run_blocked",
    "run_messengers",
    "run_naive",
    "run_pvm",
]
