"""Open-system service workloads with graceful degradation.

``repro.service`` restages the paper's Messengers-vs-messages question
as a service mesh under open-loop load: deadline-carrying requests
arrive whether or not the system keeps up, and the interesting regime
is overload — where a system either degrades gracefully (typed
rejections, stable goodput plateau) or collapses metastably (every
queue full of already-dead work).

Entry point: configure a cluster with
``ClusterConfig(service=ServiceConfig(...))`` and run
``cluster.service.run("messengers")`` or ``.run("pvm")``.
"""

from .config import ServiceConfig
from .workload import Request, ServiceWorkload

__all__ = [
    "Request",
    "ServiceConfig",
    "ServiceWorkload",
]
