"""repro.replication — quorum writes, gossip anti-entropy, convergence.

The acceptance bar from the replication issue: with factor >= 2, a
schedule search over the crash x loss x partition vocabulary (100+
schedules) finds no ReplicaConvergence/NoLostMail violation — after
heal and quiescence every replica of every mailbox carries an
identical lifecycle digest, reruns are bit-identical (TraceHasher),
both partition sides keep accepting quorum-acked mail during the cut,
and replication-disabled runs are byte-identical to a
replication-free build.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    MailboxConfig,
    ReplicationConfig,
)
from repro.perf import TraceHasher
from repro.replication import QuorumLiveness, ReplicaConvergence
from repro.replication.core import merge_stages, merge_vv, vv_dominates
from repro.resilience import ResiliencePolicy, ScheduleSearcher


def build(n_hosts=4, plan=None, seed=7, poll=0.01, resilience=None,
          replication=ReplicationConfig(factor=2)):
    return Cluster(config=ClusterConfig(
        n_hosts=n_hosts,
        mailbox=MailboxConfig(
            poll_interval_s=poll, replication=replication
        ),
        faults=plan,
        seed=seed,
        resilience=resilience,
    ))


#: Hypothesis generator for version vectors (origin -> write seq).
vvs = st.dictionaries(
    st.sampled_from(["host0", "host1", "host2", "host3"]),
    st.integers(min_value=1, max_value=50),
    max_size=4,
)

#: Hypothesis generator for stage maps (mail id -> lifecycle stage).
stage_maps = st.dictionaries(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=4),
    max_size=12,
)


class TestMergeProperties:
    """Anti-entropy is safe because the merges are lattice joins."""

    @settings(max_examples=60, deadline=None)
    @given(a=vvs, b=vvs)
    def test_vv_merge_is_commutative(self, a, b):
        assert merge_vv(a, b) == merge_vv(b, a)

    @settings(max_examples=60, deadline=None)
    @given(a=vvs, b=vvs, c=vvs)
    def test_vv_merge_is_associative(self, a, b, c):
        assert (
            merge_vv(merge_vv(a, b), c) == merge_vv(a, merge_vv(b, c))
        )

    @settings(max_examples=60, deadline=None)
    @given(a=vvs, b=vvs)
    def test_vv_merge_is_idempotent_and_dominating(self, a, b):
        merged = merge_vv(a, b)
        assert merge_vv(merged, merged) == merged
        assert merge_vv(merged, a) == merged
        assert vv_dominates(merged, a) and vv_dominates(merged, b)

    @settings(max_examples=60, deadline=None)
    @given(a=stage_maps, b=stage_maps, c=stage_maps)
    def test_stage_merge_is_a_join(self, a, b, c):
        assert merge_stages(a, b) == merge_stages(b, a)
        assert (
            merge_stages(merge_stages(a, b), c)
            == merge_stages(a, merge_stages(b, c))
        )
        merged = merge_stages(a, b)
        assert merge_stages(merged, b) == merged


class TestConfig:
    def test_defaults_and_majority_quorum(self):
        assert ReplicationConfig().effective_quorum == 2
        assert ReplicationConfig(factor=3).effective_quorum == 2
        assert ReplicationConfig(factor=5).effective_quorum == 3
        assert (
            ReplicationConfig(factor=3, quorum=1).effective_quorum == 1
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicationConfig(factor=0)
        with pytest.raises(ValueError):
            ReplicationConfig(factor=2, quorum=3)
        with pytest.raises(ValueError):
            ReplicationConfig(factor=2, quorum=0)
        with pytest.raises(TypeError):
            MailboxConfig(replication="yes")

    def test_factor_one_arms_nothing(self):
        c = build(replication=ReplicationConfig(factor=1))
        assert c.mail.replication is None

    def test_cluster_config_arms_replication(self):
        c = Cluster(config=ClusterConfig(
            n_hosts=4,
            mailbox=MailboxConfig(replication=ReplicationConfig(factor=3)),
        ))
        assert c.mail.replication is not None
        assert c.mail.replication.config.factor == 3


class TestReplicatedDelivery:
    def test_writes_reach_quorum_and_replicas_converge(self):
        c = build()
        got = []
        c.add_node("n0", daemon="host0")
        c.add_node("n1", daemon="host2")
        c.consumer("n0", lambda mail: got.append(mail.body))
        for index in range(6):
            c.send_mail("n0", f"m{index}", frm="n1")
        c.run_to_quiescence()
        repl = c.mail.replication
        assert got == [f"m{index}" for index in range(6)]
        assert repl.counts["quorum_writes"] == 6
        assert not c.mail._pending and not repl._dirty
        for uid in repl._sets:
            assert len(set(repl.digests(uid).values())) == 1

    def test_replica_sets_have_factor_members_home_first(self):
        c = build(replication=ReplicationConfig(factor=3))
        c.add_node("n0", daemon="host1")
        c.send_mail("n0", "x", frm="n0")
        c.run_to_quiescence()
        repl = c.mail.replication
        (members,) = repl._sets.values()
        assert members == ["host1", "host2", "host3"]

    def test_disabled_replication_is_byte_identical(self):
        def run(replication):
            c = build(replication=replication)
            hasher = TraceHasher()
            c.sim.trace_hash = hasher
            got = []
            c.add_node("n0", daemon="host0")
            c.add_node("n1", daemon="host3")
            c.consumer("n0", lambda mail: got.append(mail.body))
            for index in range(8):
                c.send_mail("n0", index, frm="n1")
            c.broadcast("fanout", frm="n1")
            c.run_to_quiescence()
            return hasher.hexdigest(), got

        # factor 1 arms nothing: the event schedule must be identical
        # to a build that never heard of replication.
        assert run(None) == run(ReplicationConfig(factor=1))

    def test_gossip_repairs_lifecycle_stages_to_followers(self):
        c = build()
        c.add_node("n0", daemon="host0")
        c.consumer("n0", lambda mail: None)
        c.send_mail("n0", "advance-me", frm="n0")
        c.run_to_quiescence()
        repl = c.mail.replication
        (uid,) = repl._sets.keys()
        follower = repl._sets[uid][1]
        state = repl._replicas[follower][uid]
        # The consumer drove the mail to "read" (stage 4) at the home;
        # gossip must have repaired the follower to the same stage.
        assert list(state.stages.values()) == [4]
        assert repl.counts["repairs"] >= 1


class TestPartitionConvergence:
    def run_straddling_partition(self, seed=7):
        plan = (
            FaultPlan()
            .partition("host0", "host1", at=0.02)
            .heal("host0", "host1", at=0.4)
        )
        c = build(
            plan=plan,
            seed=seed,
            resilience=ResiliencePolicy(),
            replication=ReplicationConfig(factor=2, quorum=1),
        )
        hasher = TraceHasher()
        c.sim.trace_hash = hasher
        got = []
        c.add_node("n0", daemon="host0")  # replica set host0+host1
        c.add_node("n1", daemon="host1")
        c.consumer("n0", lambda mail: got.append(mail.body))
        c.send_mail("n0", "pre", frm="n1")
        c.schedule(
            0.1, lambda cl: cl.send_mail("n0", "during", frm="n1")
        )
        c.run_to_quiescence()
        c.resilience.check_final()
        repl = c.mail.replication
        return {
            "got": got,
            "digest": hasher.hexdigest(),
            "converged_s": repl.converged_s,
            "quorum_times": dict(repl.quorum_times),
            "replica_digests": {
                uid: repl.digests(uid) for uid in sorted(repl._sets)
            },
            "pending": len(c.mail._pending),
        }

    def test_both_sides_accept_and_converge_after_heal(self):
        out = self.run_straddling_partition()
        assert out["got"] == ["pre", "during"]
        assert out["pending"] == 0
        # The second write was quorum-acked inside the partition
        # window: the cut side kept accepting mail.
        assert 0.02 < out["quorum_times"][2] < 0.4
        # Convergence is bounded after the heal at t=0.4.
        assert 0.4 <= out["converged_s"] < 0.6
        for digests in out["replica_digests"].values():
            assert len(set(digests.values())) == 1

    def test_partition_convergence_is_bit_identical(self):
        assert (
            self.run_straddling_partition()
            == self.run_straddling_partition()
        )

    def test_unhealed_partition_suspends_instead_of_spinning(self):
        plan = FaultPlan().partition("host0", "host1", at=0.02)
        c = build(
            plan=plan,
            replication=ReplicationConfig(factor=2, quorum=1),
        )
        c.add_node("n0", daemon="host0")
        c.add_node("n1", daemon="host1")
        c.consumer("n0", lambda mail: None)
        c.send_mail("n0", "stuck-on-one-side", frm="n1")
        c.run_to_quiescence()  # must terminate despite divergence
        repl = c.mail.replication
        # Loudly non-convergent, not hung: the driver parked once no
        # exchange could make progress, and the dirty set says so.
        assert repl._dirty
        assert repl.converged_s is None
        assert repl.counts["gossip_syns"] >= 1


class TestFailover:
    def test_home_crash_promotes_a_surviving_replica(self):
        plan = FaultPlan().crash("host0", at=0.05)
        c = build(plan=plan, resilience=ResiliencePolicy())
        got = []
        c.add_node("n0", daemon="host0")
        c.add_node("n1", daemon="host2")
        c.consumer("n0", lambda mail: got.append(mail.body))
        for index in range(5):
            c.send_mail("n0", f"m{index}", frm="n1")
        c.schedule(
            0.1, lambda cl: cl.send_mail("n0", "post-crash", frm="n1")
        )
        c.run_to_quiescence()
        c.resilience.check_final()
        repl = c.mail.replication
        box = c.mail.mailbox("n0")
        assert got == ["m0", "m1", "m2", "m3", "m4", "post-crash"]
        assert box.node.daemon != "host0"
        assert "host0" not in next(iter(repl._sets.values()))
        assert not c.mail._pending

    def test_retire_refills_the_replica_set(self):
        c = build(replication=ReplicationConfig(factor=2))
        c.add_node("n0", daemon="host1")
        c.consumer("n0", lambda mail: None)
        c.send_mail("n0", "before-churn", frm="n0")
        c.schedule(0.05, lambda cl: cl.leave_host("host2"))
        c.schedule(
            0.1, lambda cl: cl.send_mail("n0", "after-churn", frm="n0")
        )
        c.run_to_quiescence()
        repl = c.mail.replication
        (members,) = repl._sets.values()
        assert "host2" not in members
        assert len(members) == 2
        assert not c.mail._pending and not repl._dirty

    def test_invariants_are_armed_automatically(self):
        c = build(resilience=ResiliencePolicy())
        c.add_node("n0", daemon="host0")
        armed = {
            type(inv)
            for inv in c.resilience.monitor.invariants
        }
        assert ReplicaConvergence in armed
        assert QuorumLiveness in armed


class TestScheduleSearch:
    """Crash x loss x partition schedules attack convergence."""

    def make_runner(self):
        def runner(plan, seed):
            c = build(
                plan=plan, seed=seed, resilience=ResiliencePolicy()
            )
            for index in range(3):
                node = c.add_node(
                    f"p{index}", daemon=f"host{index + 1}"
                )
                c.consumer(node, lambda mail: None)
            for index in range(12):
                c.schedule(
                    0.002 * (index + 1),
                    lambda c, i=index: c.send_mail(
                        f"p{i % 3}", i, frm=f"p{(i + 1) % 3}"
                    ),
                )
            c.run_to_quiescence()
            c.resilience.check_final()

        return runner

    def test_invariants_clean_over_100_schedules(self):
        clean = build()
        for index in range(3):
            node = clean.add_node(
                f"p{index}", daemon=f"host{index + 1}"
            )
            clean.consumer(node, lambda mail: None)
        clean.send_mail("p0", 0, frm="p1")
        horizon = max(clean.run_to_quiescence(), 0.04)

        searcher = ScheduleSearcher(
            self.make_runner(),
            ["host1", "host2", "host3"],
            horizon,
            seed=3,
            crash_fractions=(0.25, 0.5, 0.75),
            partition_pairs=(
                ("host1", "host2"),
                ("host2", "host3"),
                ("host1", "host3"),
            ),
            partition_windows=((0.2, 0.6), (0.4, 0.8)),
        )
        report = searcher.search(max_schedules=120, max_depth=2)
        assert report["schedules_run"] >= 100
        assert report["clean"], report["violations"]

    def test_partition_atoms_build_valid_window_plans(self):
        searcher = ScheduleSearcher(
            lambda plan, seed: None,
            ["host0", "host1"],
            1.0,
            partition_pairs=(("host0", "host1"),),
            partition_windows=((0.2, 0.4), (0.5, 0.9)),
        )
        atoms = [
            a for a in searcher.atoms if a["kind"] == "partition"
        ]
        assert len(atoms) == 2
        # Both windows on the same pair in one schedule: valid (they
        # do not overlap) and the plan passes validation.
        assert searcher._valid(atoms)
        searcher.plan_for(atoms).validate()
        # Overlapping windows on the same pair are rejected up front.
        overlap = ScheduleSearcher(
            lambda plan, seed: None,
            ["host0", "host1"],
            1.0,
            partition_pairs=(("host0", "host1"),),
            partition_windows=((0.2, 0.6), (0.4, 0.8)),
        )
        cuts = [
            a for a in overlap.atoms if a["kind"] == "partition"
        ]
        assert not overlap._valid(cuts)

    def test_bad_partition_window_is_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ScheduleSearcher(
                lambda plan, seed: None,
                ["host0", "host1"],
                1.0,
                partition_pairs=(("host0", "host1"),),
                partition_windows=((0.6, 0.4),),
            )


class TestRepairDeterminism:
    """Anti-entropy repair is a deterministic schedule, not a race."""

    def run_once(self, seed, crash_at, partition_window):
        plan = FaultPlan()
        if partition_window is not None:
            start, end = partition_window
            plan.partition("host1", "host2", at=start)
            plan.heal("host1", "host2", at=end)
        if crash_at is not None:
            plan.crash("host3", at=crash_at)
        c = build(
            plan=plan, seed=seed, resilience=ResiliencePolicy(),
            replication=ReplicationConfig(factor=2, quorum=1),
        )
        hasher = TraceHasher()
        c.sim.trace_hash = hasher
        for index in range(3):
            node = c.add_node(
                f"p{index}", daemon=f"host{index + 1}"
            )
            c.consumer(node, lambda mail: None)
        for index in range(9):
            c.schedule(
                0.002 * (index + 1),
                lambda c, i=index: c.send_mail(
                    f"p{i % 3}", i, frm=f"p{(i + 1) % 3}"
                ),
            )
        c.run_to_quiescence()
        c.resilience.check_final()
        repl = c.mail.replication
        return (
            hasher.hexdigest(),
            c.mail.lifecycle_digest(),
            tuple(sorted(repl.counts.items())),
        )

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        crash_at=st.one_of(
            st.none(),
            st.sampled_from([0.01, 0.02, 0.035, 0.05]),
        ),
        window=st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from([0.005, 0.01, 0.02]),
                st.sampled_from([0.1, 0.2]),
            ),
        ),
    )
    def test_reruns_are_bit_identical(self, seed, crash_at, window):
        out = self.run_once(seed, crash_at, window)
        assert out == self.run_once(seed, crash_at, window)
