"""Frozen configuration for open-system service workloads."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ARRIVAL_KINDS", "ServiceConfig"]

#: Arrival-process shapes :mod:`repro.service.arrivals` can generate.
ARRIVAL_KINDS = ("poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class ServiceConfig:
    """One open-loop service experiment, fully described.

    ``arrivals``/``rate_rps``/``duration_s`` shape the open-loop
    request stream.  ``degradation`` switches the graceful-degradation
    stack on or off as a whole: admission control, per-request retry
    budgets, per-target circuit breakers and deadline-driven load
    shedding.  The tuning values of that stack (key count, request
    cost, deadline, admission limit, retry and breaker settings) are
    constants of :mod:`repro.service.workload`; the bursty and diurnal
    shapes are constants of :mod:`repro.service.arrivals`.

    Calibration note: with the default SPARC-5 cost table a request is
    10 ms of server CPU, so a 4-host cluster (1 frontend + 3 servers)
    saturates around ~250 requests/second — the bench's "below" and
    "2x" offered loads are calibrated against that point.
    """

    arrivals: str = "poisson"
    rate_rps: float = 125.0
    duration_s: float = 0.6
    degradation: bool = True

    def __post_init__(self):
        if self.arrivals not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival process {self.arrivals!r} "
                f"(choose from {', '.join(ARRIVAL_KINDS)})"
            )
        for name in ("rate_rps", "duration_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
