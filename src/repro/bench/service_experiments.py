"""Service experiment driver: the numbers behind ``BENCH_service.json``.

Seven scenarios per system (MESSENGERS and the PVM baseline) sweep the
open-loop service workload across the axes the graceful-degradation
story needs:

* ``below`` — offered load at half the cluster's saturation point;
* ``overload_2x`` — twice saturation, degradation stack armed: the
  stable-brownout case (typed rejections, goodput plateau);
* ``overload_2x_nodeg`` — twice saturation with the degradation stack
  *disabled*: the metastable-collapse case (every queue full of
  already-expired work, goodput craters);
* ``loss_crash_below`` / ``loss_crash_2x`` — 5% packet loss plus a
  mid-run crash/restart of one server host;
* ``churn_below`` / ``churn_2x`` — a host joins mid-run and another
  drains.

Every scenario runs with the resilience suite armed, so the
``no-request-lost`` and ``breaker-sanity`` invariants are checked live
and at the end of every single bench run.  On top of the grid,
:func:`run_degradation_search` points the schedule searcher at the
same invariants across 100+ crash×loss schedules.

Two kinds of numbers come out, with different portability:

* The *simulated* results (goodput, outcome counts, latency
  percentiles, the event-trace digest) are bit-identical for a given
  seed on any host — the perf guard asserts they match ``BASELINE``
  exactly, which is the determinism regression test.
* ``requests_per_sec`` is wall-clock (requests resolved per second of
  real time across all scenarios, best-of-N).  It moves with the
  machine; the CI smoke guard allows a 25% regression before failing,
  same contract as the other perf suites.
"""

from __future__ import annotations

from .sweep import timed_repeats

__all__ = [
    "BASELINE",
    "SCENARIOS",
    "run_degradation_search",
    "run_service_bench",
    "run_service_scenario",
]

SEED = 7
N_HOSTS = 4  # 1 frontend + 3 servers -> ~250 rps saturation
BELOW_RPS = 125.0
OVERLOAD_RPS = 500.0
DURATION_S = 0.6
LOSS_RATE = 0.05
CRASH_AT_S = 0.15
RESTART_AT_S = 0.35
JOIN_AT_S = 0.2
LEAVE_AT_S = 0.4
LEAVE_HOST = "host1"

#: Scenario knobs, in report order.  Every scenario runs once per
#: system (``messengers`` and ``pvm``).
SCENARIOS = {
    "below": {"rate": BELOW_RPS},
    "overload_2x": {"rate": OVERLOAD_RPS},
    "overload_2x_nodeg": {"rate": OVERLOAD_RPS, "degradation": False},
    "loss_crash_below": {"rate": BELOW_RPS, "loss_crash": True},
    "loss_crash_2x": {"rate": OVERLOAD_RPS, "loss_crash": True},
    "churn_below": {"rate": BELOW_RPS, "churn": True},
    "churn_2x": {"rate": OVERLOAD_RPS, "churn": True},
}

#: What the service layer measured when the committed
#: ``BENCH_service.json`` was captured.  The ``scenarios`` and
#: ``search`` sides are simulated and must reproduce bit-identically on
#: any host; ``requests_per_sec`` is wall-clock on the capture machine.
BASELINE: dict = {
    "captured": "service layer at introduction (v1.4.0)",
    "requests_per_sec": 4717.0,
    "scenarios": {
        "messengers/below": {
            "goodput_rps": 128.33,
            "latency_ms": {
                "p50": 18.25,
                "p99": 45.23,
                "p999": 45.923
            },
            "outcomes": {
                "completed": 77,
                "expired": 1,
                "failed": 0,
                "rejected_admission": 0,
                "rejected_breaker": 0
            },
            "trace_digest": "faeb77f780a936ebe3c8d2d9db01736d"
        },
        "messengers/churn_2x": {
            "goodput_rps": 183.33,
            "latency_ms": {
                "p50": 37.0,
                "p99": 49.78,
                "p999": 49.978
            },
            "outcomes": {
                "completed": 110,
                "expired": 77,
                "failed": 0,
                "rejected_admission": 42,
                "rejected_breaker": 60
            },
            "trace_digest": "de795c554153e6b11576928e54872c94"
        },
        "messengers/churn_below": {
            "goodput_rps": 128.33,
            "latency_ms": {
                "p50": 18.75,
                "p99": 45.23,
                "p999": 45.923
            },
            "outcomes": {
                "completed": 77,
                "expired": 1,
                "failed": 0,
                "rejected_admission": 0,
                "rejected_breaker": 0
            },
            "trace_digest": "708cadb7de24c712d36b76b8401174af"
        },
        "messengers/loss_crash_2x": {
            "goodput_rps": 130.0,
            "latency_ms": {
                "p50": 32.5,
                "p99": 49.844,
                "p999": 49.984
            },
            "outcomes": {
                "completed": 78,
                "expired": 85,
                "failed": 0,
                "rejected_admission": 38,
                "rejected_breaker": 88
            },
            "trace_digest": "b89a4636d23ccd2a556be7d11cc7dd46"
        },
        "messengers/loss_crash_below": {
            "goodput_rps": 113.33,
            "latency_ms": {
                "p50": 24.0,
                "p99": 47.32,
                "p999": 47.932
            },
            "outcomes": {
                "completed": 68,
                "expired": 10,
                "failed": 0,
                "rejected_admission": 0,
                "rejected_breaker": 0
            },
            "trace_digest": "f9687990fdb985eeec764a066a5a8b89"
        },
        "messengers/overload_2x": {
            "goodput_rps": 200.0,
            "latency_ms": {
                "p50": 38.0,
                "p99": 49.8,
                "p999": 49.98
            },
            "outcomes": {
                "completed": 120,
                "expired": 81,
                "failed": 0,
                "rejected_admission": 35,
                "rejected_breaker": 53
            },
            "trace_digest": "9429f95d55437a9e8805cbdc1ead730b"
        },
        "messengers/overload_2x_nodeg": {
            "goodput_rps": 28.33,
            "latency_ms": {
                "p50": 29.5,
                "p99": 48.83,
                "p999": 48.983
            },
            "outcomes": {
                "completed": 17,
                "expired": 272,
                "failed": 0,
                "rejected_admission": 0,
                "rejected_breaker": 0
            },
            "trace_digest": "c698fed1a86e7c7c6263d47a5fc4d2ec"
        },
        "pvm/below": {
            "goodput_rps": 128.33,
            "latency_ms": {
                "p50": 19.1,
                "p99": 46.23,
                "p999": 46.923
            },
            "outcomes": {
                "completed": 77,
                "expired": 1,
                "failed": 0,
                "rejected_admission": 0,
                "rejected_breaker": 0
            },
            "trace_digest": "1af48ea1e02f6778b287061d7128ba86"
        },
        "pvm/churn_2x": {
            "goodput_rps": 76.67,
            "latency_ms": {
                "p50": 37.0,
                "p99": 49.54,
                "p999": 49.954
            },
            "outcomes": {
                "completed": 46,
                "expired": 100,
                "failed": 0,
                "rejected_admission": 37,
                "rejected_breaker": 106
            },
            "trace_digest": "7b0216d6fca5af92a569305c0c47e974"
        },
        "pvm/churn_below": {
            "goodput_rps": 128.33,
            "latency_ms": {
                "p50": 19.125,
                "p99": 46.23,
                "p999": 46.923
            },
            "outcomes": {
                "completed": 77,
                "expired": 1,
                "failed": 0,
                "rejected_admission": 0,
                "rejected_breaker": 0
            },
            "trace_digest": "a26f82d7057ef3111f199c1008949737"
        },
        "pvm/loss_crash_2x": {
            "goodput_rps": 50.0,
            "latency_ms": {
                "p50": 32.5,
                "p99": 48.7,
                "p999": 48.97
            },
            "outcomes": {
                "completed": 30,
                "expired": 89,
                "failed": 0,
                "rejected_admission": 39,
                "rejected_breaker": 131
            },
            "trace_digest": "c65f4657bd2142bcfcb84fc1dda80e9a"
        },
        "pvm/loss_crash_below": {
            "goodput_rps": 115.0,
            "latency_ms": {
                "p50": 28.417,
                "p99": 49.31,
                "p999": 49.931
            },
            "outcomes": {
                "completed": 69,
                "expired": 9,
                "failed": 0,
                "rejected_admission": 0,
                "rejected_breaker": 0
            },
            "trace_digest": "20384410b33427d7ac4d8c9bf7d7aa7b"
        },
        "pvm/overload_2x": {
            "goodput_rps": 73.33,
            "latency_ms": {
                "p50": 35.0,
                "p99": 48.853,
                "p999": 48.985
            },
            "outcomes": {
                "completed": 44,
                "expired": 103,
                "failed": 0,
                "rejected_admission": 37,
                "rejected_breaker": 105
            },
            "trace_digest": "47a7e09dc499410c95d6ef9bb4456268"
        },
        "pvm/overload_2x_nodeg": {
            "goodput_rps": 36.67,
            "latency_ms": {
                "p50": 33.667,
                "p99": 49.89,
                "p999": 49.989
            },
            "outcomes": {
                "completed": 22,
                "expired": 267,
                "failed": 0,
                "rejected_admission": 0,
                "rejected_breaker": 0
            },
            "trace_digest": "daf57f31be226f456ea866895e2007b3"
        }
    },
    "search": {
        "clean": True,
        "schedules_run": 100
    }
}


def run_service_scenario(
    system: str,
    rate: float,
    degradation: bool = True,
    loss_crash: bool = False,
    churn: bool = False,
    seed: int = SEED,
    duration_s: float = DURATION_S,
    arrivals: str = "poisson",
) -> dict:
    """One deterministic service run; returns simulated metrics.

    The returned dict is the workload's :meth:`stats` plus the
    whole-run event-trace digest — everything in it is a pure function
    of the arguments.
    """
    from .. import Cluster, ClusterConfig, ResiliencePolicy
    from ..faults import FaultPlan
    from ..perf import hashing_all_simulators
    from ..service import ServiceConfig

    plan = None
    if loss_crash:
        plan = (
            FaultPlan()
            .drop(LOSS_RATE)
            .crash("host2", at=CRASH_AT_S)
            .restart("host2", at=RESTART_AT_S)
        )
    config = ClusterConfig(
        n_hosts=N_HOSTS,
        service=ServiceConfig(
            arrivals=arrivals,
            rate_rps=rate,
            duration_s=duration_s,
            degradation=degradation,
        ),
        faults=plan,
        resilience=ResiliencePolicy(),
        seed=seed,
    )
    with hashing_all_simulators() as hasher:
        cluster = Cluster(config=config)
        if churn:
            cluster.service.schedule_churn(
                JOIN_AT_S, LEAVE_AT_S, LEAVE_HOST
            )
        stats = cluster.service.run(system)
    stats["trace_digest"] = hasher.hexdigest()
    return stats


def run_degradation_search(
    max_schedules: int = 120, seed: int = 0
) -> dict:
    """Hunt crash×loss schedules for degradation-invariant violations.

    Runs the MESSENGERS service workload (near saturation, short
    horizon) under every schedule the vocabulary can express — crashes
    of each server host at three points in the run, with and without
    packet loss — and reports any run where a request was silently
    lost, a breaker walked an illegal edge, or the simulation itself
    broke.  The committed baseline expects ``clean``.
    """
    from .. import Cluster, ClusterConfig, ResiliencePolicy
    from ..resilience import ScheduleSearcher
    from ..service import ServiceConfig

    def runner(plan, run_seed):
        config = ClusterConfig(
            n_hosts=N_HOSTS,
            service=ServiceConfig(rate_rps=250.0, duration_s=0.2),
            faults=plan,
            resilience=ResiliencePolicy(),
            seed=run_seed,
        )
        Cluster(config=config).service.run("messengers")

    searcher = ScheduleSearcher(
        runner,
        hosts=["host1", "host2", "host3"],
        horizon_s=0.25,
        seed=seed,
    )
    report = searcher.search(
        max_schedules=max_schedules, max_depth=3, stop_at_first=True
    )
    return report


def run_service_bench(
    repeats: int = 2, search_schedules: int = 120
) -> dict:
    """Measure the full grid; return the ``BENCH_service.json`` blob.

    Each scenario runs ``repeats`` times per system; the simulated side
    (including the trace digest) is asserted identical across repeats —
    it cannot legally vary — and the minimum wall clock is kept.  The
    blob also records the brownout-vs-collapse verdict per system and
    the degradation-invariant schedule search.
    """
    scenarios: dict[str, dict] = {}
    total_requests = 0
    total_wall = 0.0
    for system in ("messengers", "pvm"):
        for name, knobs in SCENARIOS.items():
            result, best_wall = timed_repeats(
                f"service scenario {system}/{name}", repeats,
                run_service_scenario, system, **knobs,
            )
            scenarios[f"{system}/{name}"] = result
            total_requests += sum(result["outcomes"].values())
            total_wall += best_wall

    # Brownout vs collapse, per system: with degradation, 2x offered
    # load must sustain at least half of the system's peak goodput;
    # without it, the same load must demonstrably collapse below that
    # bar.
    verdicts: dict[str, dict] = {}
    for system in ("messengers", "pvm"):
        peak = max(
            scenarios[f"{system}/{name}"]["goodput_rps"]
            for name in SCENARIOS
            if SCENARIOS[name].get("degradation", True)
        )
        brownout = scenarios[f"{system}/overload_2x"]["goodput_rps"]
        collapse = scenarios[f"{system}/overload_2x_nodeg"]["goodput_rps"]
        verdicts[system] = {
            "peak_goodput_rps": peak,
            "brownout_fraction": round(brownout / peak, 4),
            "collapse_fraction": round(collapse / peak, 4),
            "stable_brownout": brownout >= 0.5 * peak,
            "collapse_demonstrated": collapse < 0.5 * peak,
        }

    search_report = run_degradation_search(
        max_schedules=search_schedules
    )

    requests_per_sec = (
        round(total_requests / total_wall, 1) if total_wall else 0.0
    )
    identical = all(
        all(
            scenarios.get(name, {}).get(key) == value
            for key, value in expected.items()
        )
        for name, expected in BASELINE["scenarios"].items()
    ) and search_report["clean"] == BASELINE["search"]["clean"]
    return {
        "baseline": BASELINE,
        "current": {
            "scenarios": scenarios,
            "verdicts": verdicts,
            "search": {
                "clean": search_report["clean"],
                "schedules_run": search_report["schedules_run"],
                "atom_vocabulary": search_report["atom_vocabulary"],
                "violations": search_report["violations"],
            },
            "requests_per_sec": requests_per_sec,
        },
        "vs_baseline": {
            "requests_per_sec_ratio": round(
                requests_per_sec / BASELINE["requests_per_sec"], 4
            ),
            "simulated_identical": identical,
        },
    }
