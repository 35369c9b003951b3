"""Global Virtual Time kernels (§2.2 of the paper).

Two library-level engines over an explicit logical-process model:

* :class:`ConservativeKernel` — barrier-synchronous, pays a
  synchronization round per GVT advance;
* :class:`TimeWarpKernel` — optimistic, with state saving, straggler
  rollback, anti-messages, exact GVT and fossil collection.

(The conservative engine wired directly into the MESSENGERS daemons —
the one ``M_sched_time_abs``/``M_sched_time_dlt`` use — lives in
:mod:`repro.messengers.vtime`.)
"""

from .base import Event, VirtualTimeKernelError
from .conservative import ConservativeKernel
from .optimistic import TimeWarpKernel
from .workloads import phold, pipeline, skewed_load

__all__ = [
    "ConservativeKernel",
    "Event",
    "TimeWarpKernel",
    "VirtualTimeKernelError",
    "phold",
    "pipeline",
    "skewed_load",
]
