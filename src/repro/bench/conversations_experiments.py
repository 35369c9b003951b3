"""Conversations experiment driver: ``BENCH_conversations.json``.

Long saga chains with compensation over *replicated* mailboxes — the
workload the ROADMAP's "long-lived conversation workloads" item asks
for.  Three scenarios drive the same deterministic chain harness
through the typed-config facade:

* ``baseline`` — replication factor 2, no faults: every chain
  completes, replicas converge continuously, and the gossip counters
  give the steady-state anti-entropy overhead.
* ``partition`` — the cluster is split down the middle for a fixed
  window.  Each side has its own coordinator driving same-side chains
  (both sides keep accepting quorum-acked mail — the per-side goodput
  numbers), cross-side chains stall and compensate at the deadline,
  and after ``heal`` the replicas converge within a bounded time
  (``convergence_time_s``).
* ``gossip_churn`` — factor 3 with a broadcast fan-out, a host join, a
  graceful leave, and a crash/restart mid-run: anti-entropy and
  replica promotion under membership change.

The simulated side (chain outcomes, goodput splits, convergence time,
lifecycle digests, gossip counters) is bit-identical for a given seed
on any host — the CI guard asserts it matches ``BASELINE`` exactly.
``conv_ops_per_sec`` is wall-clock and moves with the machine; the
guard allows 25% regression, same contract as the other perf suites.
"""

from __future__ import annotations

from .sweep import timed_repeats

__all__ = [
    "BASELINE",
    "run_conversations_bench",
    "run_conversations_scenario",
]

#: Scenario knobs, in report order.
SCENARIOS = {
    "baseline": {},
    "partition": {"partition": True},
    "gossip_churn": {"churn": True, "factor": 3},
}

N_HOSTS = 4
N_CHAINS = 6
CHAIN_LEN = 4
CHAIN_SPACING_S = 0.004
POLL_INTERVAL_S = 0.01
SEED = 13

PARTITION_AT_S = 0.05
HEAL_AT_S = 0.45
COMPENSATE_AT_S = 0.3
BCAST_AT_S = 0.08
JOIN_AT_S = 0.06
LEAVE_AT_S = 0.12
CRASH_AT_S = 0.09
RESTART_AT_S = 0.2

#: What the replication layer measured when the committed
#: ``BENCH_conversations.json`` was captured.  The ``scenarios`` side
#: is simulated and must reproduce bit-identically on any host; the
#: ``conv_ops_per_sec`` side is wall-clock on the capture machine.
BASELINE = {
    "captured": "replication layer at introduction (v1.5.0)",
    "conv_ops_per_sec": 6423.2,
    "scenarios": {
        "baseline": {
            "chains": {"completed": 6},
            "compensated_work_items": 0,
            "delivered": 48,
            "lifecycle_digest":
                "6eb49d83a1c02092e266d1c89e1edf8d6bafa6de",
            "read_digest":
                "2b91ac71fd5d826eed98685d7d83bc5f8db07023",
            "replicas_converged": True,
            "makespan_s": 0.3,
            "pending_at_quiescence": 0,
        },
        "partition": {
            "chains": {"compensated": 4, "completed": 2},
            "compensated_work_items": 4,
            "convergence_time_s": 0.118414542,
            "delivered": 36,
            "goodput_during_partition": {"a": 7, "b": 11},
            "lifecycle_digest":
                "fed635b7189ffa46231fad7e8c54d397fc689943",
            "read_digest":
                "5e4aada55701acfe498bcd904d608827b7c7c802",
            "replicas_converged": True,
            "makespan_s": 2.043080266,
            "pending_at_quiescence": 0,
        },
        "gossip_churn": {
            "chains": {"completed": 6},
            "compensated_work_items": 0,
            "delivered": 53,
            "lifecycle_digest":
                "b16b380735d811b6bfd28e6f6e0151f925ba5973",
            "read_digest":
                "98f0cc45bd721f625f2f583cbf961d40a2ec30a1",
            "replicas_converged": True,
            "makespan_s": 0.3,
            "pending_at_quiescence": 0,
        },
    },
}


class _ChainHarness:
    """Saga chains with compensation over one cluster.

    Each chain is a conversation: the coordinator requests step 0 from
    its first participant, every reply triggers the next step's
    request, and a chain that has not completed by the compensation
    deadline sends a ``compensate`` mail to every participant that
    already did work (undoing it) and stops issuing new steps.

    ``participants`` is the coordinator's routing preference — its own
    side's participants first.  Chains with ``chain_id % 3 == 0`` are
    *pinned* to the first two (same-side) participants; the rest
    rotate over all four and straddle any partition.
    """

    def __init__(self, cluster, coordinator: str, participants: list,
                 chain_ids) -> None:
        self.cluster = cluster
        self.coordinator = coordinator
        self.participants = participants
        self.chains = {
            chain_id: {"step": 0, "done": [], "state": "running"}
            for chain_id in chain_ids
        }
        cluster.consumer(coordinator, self._on_reply)

    def _participant_for(self, chain_id: int, step: int) -> str:
        pool = (
            self.participants[:2]
            if chain_id % 3 == 0
            else self.participants
        )
        return pool[(chain_id + step) % len(pool)]

    def start_chain(self, chain_id: int) -> None:
        self._request_step(chain_id, 0)

    def _request_step(self, chain_id: int, step: int) -> None:
        target = self._participant_for(chain_id, step)
        self.cluster.mail.request(
            target,
            {"chain": chain_id, "step": step},
            subject="step",
            frm=self.coordinator,
        )

    def _on_reply(self, mail) -> None:
        if mail.subject.startswith("re:") is False:
            return
        chain = self.chains.get(mail.body["chain"])
        if chain is None or chain["state"] != "running":
            return
        chain["done"].append(mail.body["step"])
        chain["step"] += 1
        if chain["step"] >= CHAIN_LEN:
            chain["state"] = "completed"
        else:
            self._request_step(mail.body["chain"], chain["step"])

    def compensate_stalled(self) -> None:
        """Deadline sweep: every still-running chain rolls back."""
        for chain_id in sorted(self.chains):
            chain = self.chains[chain_id]
            if chain["state"] != "running":
                continue
            chain["state"] = "compensated"
            for step in chain["done"]:
                self.cluster.send_mail(
                    self._participant_for(chain_id, step),
                    {"chain": chain_id, "undo": step},
                    subject="compensate",
                    frm=self.coordinator,
                )

    def outcomes(self) -> dict:
        states = sorted(c["state"] for c in self.chains.values())
        return {
            state: states.count(state) for state in dict.fromkeys(states)
        }


def _side_of(daemon: str) -> str:
    """Which partition side a daemon is on (hosts 0/1 vs 2/3)."""
    return "a" if daemon in ("host0", "host1") else "b"


def run_conversations_scenario(
    partition: bool = False,
    churn: bool = False,
    factor: int = 2,
    seed: int = SEED,
) -> dict:
    """One deterministic conversations workload; simulated metrics.

    Two coordinators (one per prospective partition side) drive
    ``N_CHAINS`` chains each of ``CHAIN_LEN`` steps over four
    participants.  With ``partition`` the cluster splits down the
    middle for ``[PARTITION_AT_S, HEAL_AT_S)``: chain steps whose
    participants sit across the cut stall and compensate, same-side
    chains keep completing quorum-acked writes.  With ``churn`` a host
    joins, ``host1`` retires gracefully, ``host2`` crashes and
    restarts, and a broadcast fans out mid-run.
    """
    from .. import Cluster, ClusterConfig, MailboxConfig
    from ..faults import FaultPlan
    from ..replication import ReplicationConfig

    plan = None
    if partition:
        plan = FaultPlan()
        for a in ("host0", "host1"):
            for b in ("host2", "host3"):
                plan.partition(a, b, at=PARTITION_AT_S)
                plan.heal(a, b, at=HEAL_AT_S)
    if churn:
        plan = plan or FaultPlan()
        plan.crash("host2", at=CRASH_AT_S)
        plan.restart("host2", at=RESTART_AT_S)
    c = Cluster(config=ClusterConfig(
        n_hosts=N_HOSTS,
        mailbox=MailboxConfig(
            poll_interval_s=POLL_INTERVAL_S,
            replication=ReplicationConfig(factor=factor),
        ),
        faults=plan,
        seed=seed,
    ))

    participants = []
    compensated_work = []
    for index in range(N_HOSTS):
        name = f"part{index}"
        participants.append(name)
        c.add_node(name, daemon=f"host{index}")

    def participant_handler(mail):
        if mail.subject == "step":
            c.mail.reply(mail, dict(mail.body))
        elif mail.subject == "compensate":
            compensated_work.append(
                (mail.body["chain"], mail.body["undo"])
            )

    for name in participants:
        c.consumer(name, participant_handler)

    harnesses = []
    for coord, daemon, order, chain_ids in (
        ("coord_a", "host0", ["part0", "part1", "part2", "part3"],
         range(0, N_CHAINS // 2)),
        ("coord_b", "host2", ["part2", "part3", "part0", "part1"],
         range(N_CHAINS // 2, N_CHAINS)),
    ):
        c.add_node(coord, daemon=daemon)
        harnesses.append(_ChainHarness(c, coord, order, chain_ids))

    for harness in harnesses:
        for offset, chain_id in enumerate(sorted(harness.chains)):
            c.schedule(
                (offset + 1) * CHAIN_SPACING_S
                + (PARTITION_AT_S + 0.01 if partition else 0.0),
                lambda cl, h=harness, cid=chain_id: h.start_chain(cid),
            )
    c.schedule(
        COMPENSATE_AT_S,
        lambda cl: [h.compensate_stalled() for h in harnesses],
    )
    if churn:
        c.schedule(JOIN_AT_S, lambda cl: cl.join_host())
        c.schedule(LEAVE_AT_S, lambda cl: cl.leave_host("host1"))
        c.schedule(
            BCAST_AT_S,
            lambda cl: cl.broadcast("round", frm="coord_a"),
        )
    c.run_to_quiescence()

    service = c.mail
    repl = service.replication
    goodput = {"a": 0, "b": 0}
    if partition:
        for mail_id, when in sorted(repl.quorum_times.items()):
            if PARTITION_AT_S <= when < HEAL_AT_S:
                mail = repl._mail_records.get(mail_id)
                if mail is not None:
                    goodput[_side_of(mail.origin)] += 1
    replica_digests_equal = all(
        len(set(repl.digests(uid).values())) == 1
        for uid in sorted(repl._sets)
    )
    outcomes: dict = {}
    for harness in harnesses:
        for state, count in harness.outcomes().items():
            outcomes[state] = outcomes.get(state, 0) + count
    result = {
        "chains": outcomes,
        "compensated_work_items": len(compensated_work),
        "delivered": service.counts.get("delivered", 0),
        "read_digest": service.read_digest(),
        "lifecycle_digest": service.lifecycle_digest(),
        "replicas_converged": replica_digests_equal,
        "makespan_s": round(c.now, 9),
        "mail_counts": dict(sorted(service.counts.items())),
        "replication": {
            key: value
            for key, value in sorted(repl.counts.items())
        },
        "pending_at_quiescence": len(service._pending),
    }
    if partition:
        result["goodput_during_partition"] = goodput
        result["convergence_time_s"] = (
            round(repl.converged_s - HEAL_AT_S, 9)
            if repl.converged_s is not None
            and repl.converged_s >= HEAL_AT_S
            else 0.0
        )
    return result


def run_conversations_bench(repeats: int = 3) -> dict:
    """Measure all scenarios; the ``BENCH_conversations.json`` blob.

    Each scenario runs ``repeats`` times; the simulated side is
    asserted identical across repeats (it cannot legally vary) and the
    minimum wall clock is kept.
    """
    scenarios: dict[str, dict] = {}
    total_ops = 0
    total_wall = 0.0
    for name, knobs in SCENARIOS.items():
        result, best_wall = timed_repeats(
            f"conversations scenario {name!r}", repeats,
            run_conversations_scenario, **knobs,
        )
        scenarios[name] = result
        total_ops += result["delivered"] + result["mail_counts"].get(
            "read", 0
        )
        total_wall += best_wall

    conv_ops_per_sec = (
        round(total_ops / total_wall, 1) if total_wall else 0.0
    )
    identical = all(
        all(
            scenarios[name][key] == value
            for key, value in expected.items()
            if key != "wall_s"
        )
        for name, expected in BASELINE["scenarios"].items()
    )
    return {
        "baseline": BASELINE,
        "current": {
            "scenarios": scenarios,
            "conv_ops_per_sec": conv_ops_per_sec,
        },
        "vs_baseline": {
            "conv_ops_ratio": round(
                conv_ops_per_sec / BASELINE["conv_ops_per_sec"], 4
            ) if BASELINE["conv_ops_per_sec"] else 1.0,
            "simulated_identical": identical,
        },
    }
