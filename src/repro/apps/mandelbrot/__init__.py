"""Mandelbrot-set generation via manager/worker (§3.1).

Three implementations over one kernel:

* :func:`run_sequential` — the sequential-C baseline;
* :func:`run_pvm` — Figure 2's manager/worker in message passing;
* :func:`run_messengers` — Figure 3's single "smart worker" script.

All three produce pixel-identical images; they differ in simulated
execution time, which is what Figures 4–7 plot.
"""

from .kernel import Block, TaskGrid
from .messengers_app import MANAGER_WORKER_SCRIPT, run_messengers
from .pvm_app import run_pvm
from .sequential import run_sequential

__all__ = [
    "Block",
    "MANAGER_WORKER_SCRIPT",
    "TaskGrid",
    "run_messengers",
    "run_pvm",
    "run_sequential",
]
