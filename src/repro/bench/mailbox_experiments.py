"""Mailbox experiment driver: the numbers behind ``BENCH_mailbox.json``.

Four scenarios exercise the delivery lifecycle end to end — a clean
run, the same run under 5% packet loss, under host churn (a join and a
graceful leave mid-run), and under churn *and* loss *and* a mid-run
crash/restart.  Every scenario drives the same deterministic workload
through the typed-config facade: peers spread over the daemons, a
poll-mode consumer per peer, point-to-point mail on a fixed send
schedule plus one broadcast fan-out.

Two kinds of numbers come out, with different portability:

* The *simulated* results (delivery latency, throughput in simulated
  seconds, lifecycle counters, the read-set digest) are bit-identical
  for a given seed on any host — the perf guard asserts they match
  ``BASELINE`` exactly, which is the determinism regression test.
* ``mail_ops_per_sec`` is wall-clock (mails delivered + read per
  second of real time across all scenarios, best-of-N).  It moves with
  the machine; the CI smoke guard allows a 25% regression before
  failing, same contract as the other perf suites.
"""

from __future__ import annotations

from .sweep import timed_repeats

__all__ = ["BASELINE", "run_mailbox_bench", "run_mailbox_scenario"]

#: Scenario knobs, in report order.
SCENARIOS = {
    "baseline": {},
    "loss": {"loss": 0.05},
    "churn": {"churn": True},
    "churn_loss": {"loss": 0.05, "churn": True, "crash": True},
}

N_HOSTS = 4
N_PEERS = 6
N_MAILS = 48
SEND_SPACING_S = 0.004
POLL_INTERVAL_S = 0.01
BCAST_AT_S = 0.1
JOIN_AT_S = 0.06
LEAVE_AT_S = 0.11
CRASH_AT_S = 0.05
RESTART_AT_S = 0.13
SEED = 11

#: What the mailbox layer measured when the committed
#: ``BENCH_mailbox.json`` was captured.  The ``scenarios`` side is
#: simulated and must reproduce bit-identically on any host; the
#: ``mail_ops_per_sec`` side is wall-clock on the capture machine.
BASELINE = {
    "captured": "mailbox layer at introduction (v1.3.0)",
    "mail_ops_per_sec": 17600.0,
    "scenarios": {
        "baseline": {
            "delivered": 54,
            "latency_mean_s": 0.002667185,
            "latency_p95_s": 0.006243,
            "makespan_s": 0.2,
            "read_digest": "24acce7fe8cebf08a44760042fa387f8c62bb3df",
            "throughput_mail_per_s": 270.0,
        },
        "loss": {
            "delivered": 54,
            "latency_mean_s": 0.003886926,
            "latency_p95_s": 0.008549,
            "makespan_s": 0.583181894,
            "read_digest": "ec91107937a7c73ec083c4562a0e494e6757d92a",
            "throughput_mail_per_s": 92.5954673,
        },
        "churn": {
            "delivered": 54,
            "latency_mean_s": 0.002675944,
            "latency_p95_s": 0.006243,
            "makespan_s": 0.2,
            "read_digest": "24acce7fe8cebf08a44760042fa387f8c62bb3df",
            "throughput_mail_per_s": 270.0,
        },
        "churn_loss": {
            "delivered": 54,
            "latency_mean_s": 0.004182648,
            "latency_p95_s": 0.010794,
            "makespan_s": 0.579181894,
            "read_digest": "ec91107937a7c73ec083c4562a0e494e6757d92a",
            "throughput_mail_per_s": 93.2349588,
        },
    },
}


def _percentile(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


def run_mailbox_scenario(
    loss: float = 0.0,
    churn: bool = False,
    crash: bool = False,
    seed: int = SEED,
) -> dict:
    """One deterministic mailbox workload; returns simulated metrics.

    ``N_PEERS`` logical nodes spread round-robin over the daemons, each
    with a poll-mode consumer; ``N_MAILS`` point-to-point mails posted
    on a fixed schedule plus one broadcast.  ``churn`` joins a fresh
    host and retires ``host1`` (two peers re-home with mail in flight);
    ``crash`` kills and restarts ``host2`` mid-run; ``loss`` drops that
    fraction of packets (the reliable mailbox port retransmits).
    """
    from .. import Cluster, ClusterConfig, MailboxConfig
    from ..faults import FaultPlan

    plan = None
    if loss or crash:
        plan = FaultPlan()
        if loss:
            plan.drop(loss)
        if crash:
            plan.crash("host2", at=CRASH_AT_S)
            plan.restart("host2", at=RESTART_AT_S)
    c = Cluster(config=ClusterConfig(
        n_hosts=N_HOSTS,
        mailbox=MailboxConfig(poll_interval_s=POLL_INTERVAL_S),
        faults=plan,
        seed=seed,
    ))
    received: list[tuple[str, int]] = []
    for index in range(N_PEERS):
        node = c.add_node(f"peer{index}", daemon=f"host{index % N_HOSTS}")
        c.consumer(
            node,
            lambda mail, name=f"peer{index}": received.append(
                (name, mail.id)
            ),
        )

    for index in range(N_MAILS):
        c.schedule(
            (index + 1) * SEND_SPACING_S,
            lambda c, i=index: c.send_mail(
                f"peer{i % N_PEERS}", {"task": i}, subject=f"task-{i}"
            ),
        )
    c.schedule(BCAST_AT_S, lambda c: c.broadcast("sync", subject="round"))
    if churn:
        c.schedule(JOIN_AT_S, lambda c: c.join_host())
        c.schedule(LEAVE_AT_S, lambda c: c.leave_host("host1"))
    c.run_to_quiescence()

    service = c.mail
    latencies = service.latencies
    delivered = service.counts.get("delivered", 0)
    return {
        "counts": dict(sorted(service.counts.items())),
        "lifecycle": service.lifecycle_counts(),
        "read_digest": service.read_digest(),
        "received": len(received),
        "latency_mean_s": round(sum(latencies) / len(latencies), 9)
        if latencies else 0.0,
        "latency_p95_s": round(_percentile(latencies, 0.95), 9),
        "latency_max_s": round(max(latencies), 9) if latencies else 0.0,
        "makespan_s": round(c.now, 9),
        "delivered": delivered,
        "throughput_mail_per_s": round(delivered / c.now, 7)
        if c.now else 0.0,
    }


def run_mailbox_bench(repeats: int = 3) -> dict:
    """Measure all scenarios; return the ``BENCH_mailbox.json`` blob.

    Each scenario runs ``repeats`` times; the simulated side is
    asserted identical across repeats (it cannot legally vary) and the
    minimum wall clock is kept.
    """
    scenarios: dict[str, dict] = {}
    total_ops = 0
    total_wall = 0.0
    for name, knobs in SCENARIOS.items():
        result, best_wall = timed_repeats(
            f"mailbox scenario {name!r}", repeats, run_mailbox_scenario,
            **knobs,
        )
        scenarios[name] = result
        total_ops += result["delivered"] + result["counts"].get("read", 0)
        total_wall += best_wall

    mail_ops_per_sec = round(total_ops / total_wall, 1) if total_wall else 0.0
    identical = all(
        all(
            scenarios[name][key] == value
            for key, value in expected.items()
        )
        for name, expected in BASELINE["scenarios"].items()
    )
    return {
        "baseline": BASELINE,
        "current": {
            "scenarios": scenarios,
            "mail_ops_per_sec": mail_ops_per_sec,
        },
        "vs_baseline": {
            "mail_ops_ratio": round(
                mail_ops_per_sec / BASELINE["mail_ops_per_sec"], 4
            ),
            "simulated_identical": identical,
        },
    }
