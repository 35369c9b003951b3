"""The one-call facade: repro.cluster(...), Cluster and ClusterConfig.

The acceptance bar from the API redesign: ``import repro;
repro.cluster(4)`` must yield a runnable system with no other imports,
while the long-form construction (Simulator + build_lan +
MessengersSystem) keeps working unchanged.
"""

import pytest

import repro
from repro.messengers import DaemonNetwork, Shell, Tracer
from repro.netsim import DEFAULT_COSTS
from repro.obs import format_breakdown

HELLO = """
hello() {
    create(ALL);
    mark();
}
"""


def _run_hello(c):
    seen = []

    @c.messengers.natives.register
    def mark(env):
        seen.append(env.daemon.name)
        return 0

    c.inject(HELLO, daemon="host0")
    c.run_to_quiescence()
    return seen


class TestCluster:
    def test_single_import_runnable(self):
        c = repro.cluster(4)
        seen = _run_hello(c)
        # create(ALL) replicates onto every *neighbouring* daemon.
        assert sorted(seen) == ["host1", "host2", "host3"]
        assert c.now > 0

    def test_shape(self):
        c = repro.cluster(3)
        assert len(c.network) == 3
        assert c.host_names == ["host0", "host1", "host2"]

    def test_layers_are_lazy(self):
        c = repro.cluster(2)
        assert c._messengers is None and c._mp is None
        c.messengers
        assert c._messengers is not None and c._mp is None
        c.mp
        assert c._mp is not None

    def test_mixed_layers_share_the_wire(self):
        c = repro.cluster(2)

        def task(ctx):
            yield from ctx.compute(1000)
            ctx.exit()

        tid = c.mp.spawn(task)
        c.mp.run_until_task(tid)
        _run_hello(c)
        assert c.messengers.network is c.mp.network

    def test_ring_topology(self):
        c = repro.cluster(config=repro.ClusterConfig(
            n_hosts=4, topology="ring"
        ))
        graph = c.messengers.daemon_graph
        # In a 4-ring each daemon has exactly 2 neighbours.
        for name in c.host_names:
            assert len(graph.neighbors(name)) == 2

    def test_ethernet_topology_is_complete(self):
        c = repro.cluster(4)
        graph = c.messengers.daemon_graph
        for name in c.host_names:
            assert len(graph.neighbors(name)) == 3

    def test_prebuilt_daemon_network(self):
        base = repro.cluster(3)
        graph = DaemonNetwork.ring(base.host_names)
        c = repro.Cluster(3, config=repro.ClusterConfig(topology=graph))
        assert c.messengers.daemon_graph is graph

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            repro.ClusterConfig(topology="torus")

    def test_custom_costs(self):
        from dataclasses import replace

        slow = replace(DEFAULT_COSTS, hop_dispatch_s=10e-3)
        fast = repro.cluster(2)
        slowc = repro.cluster(2, config=repro.ClusterConfig(costs=slow))
        _run_hello(fast)
        _run_hello(slowc)
        assert slowc.now > fast.now
        assert slowc.costs is slow

    def test_shell_and_tracer(self):
        c = repro.cluster(2)
        tracer = Tracer.attach(c.messengers)
        shell = Shell(c.messengers)
        out = shell.execute("inject! { f() { create(ALL); } }")
        assert "injected" in out
        shell.execute("run")
        assert len(tracer.events) > 0


class TestClusterMetrics:
    def test_metrics_off_by_default(self):
        c = repro.cluster(2)
        assert c.metrics is None
        assert c.snapshot() == {}
        with pytest.raises(RuntimeError):
            c.breakdown()

    def test_metrics_true_builds_registry(self):
        c = repro.cluster(2, config=repro.ClusterConfig(metrics=True))
        _run_hello(c)
        assert c.snapshot()["des.events_executed"] > 0
        breakdown = c.breakdown()
        assert breakdown["n_tracks"] == 3
        assert breakdown["accounted_s"] > 0
        # The hello run interprets MCL and dispatches hops (no numpy
        # compute), so those categories must appear in the report.
        report = format_breakdown(breakdown)
        assert "interpretation" in report
        assert "dispatch" in report

    def test_metrics_accepts_registry(self):
        registry = repro.MetricsRegistry(opcode_counts=True)
        c = repro.cluster(2, config=repro.ClusterConfig(metrics=registry))
        assert c.metrics is registry
        _run_hello(c)
        assert any("opcode=" in name for name in registry.snapshot())


class TestClusterConfig:
    def test_defaults(self):
        config = repro.ClusterConfig()
        assert config.n_hosts == 4
        assert config.topology == "ethernet"
        assert config.mailbox is None

    def test_rejects_bad_host_count(self):
        with pytest.raises(ValueError, match="at least one host"):
            repro.ClusterConfig(n_hosts=0)

    def test_explicit_n_hosts_overrides_config(self):
        c = repro.Cluster(6, config=repro.ClusterConfig(n_hosts=2))
        assert len(c.network) == 6

    def test_is_frozen(self):
        config = repro.ClusterConfig()
        with pytest.raises(Exception):
            config.n_hosts = 9

    def test_mailbox_config_helper(self):
        assert repro.ClusterConfig(
            mailbox=True
        ).mailbox_config() == repro.MailboxConfig()
        custom = repro.MailboxConfig(poll_interval_s=0.5)
        assert repro.ClusterConfig(
            mailbox=custom
        ).mailbox_config() is custom

    def test_replace_derives_a_variant(self):
        from dataclasses import replace

        base = repro.ClusterConfig(n_hosts=2)
        c = repro.Cluster(config=replace(
            base, mailbox=repro.MailboxConfig(poll_interval_s=0.02)
        ))
        assert c.host_names == ["host0", "host1"]
        assert c.mail.config.poll_interval_s == 0.02
        assert base.mailbox is None

    def test_mailbox_armed_eagerly_from_config(self):
        c = repro.Cluster(config=repro.ClusterConfig(n_hosts=2,
                                                     mailbox=True))
        assert c._mail is not None
        assert c.mail.config == repro.MailboxConfig()


class TestDeprecationShims:
    """The pre-1.3 keyword arguments are gone; passing one fails loudly."""

    def test_legacy_kwargs_are_rejected(self):
        with pytest.raises(TypeError, match="topology"):
            repro.cluster(3, topology="ring", name_prefix="ws")

    def test_legacy_cluster_class_kwargs_are_rejected(self):
        with pytest.raises(TypeError, match="metrics"):
            repro.Cluster(2, metrics=True)

    def test_unknown_kwarg_is_an_error(self):
        with pytest.raises(TypeError, match="topologee"):
            repro.cluster(2, topologee="ring")

    def test_config_plus_legacy_is_an_error(self):
        with pytest.raises(TypeError, match="topology"):
            repro.cluster(
                2, config=repro.ClusterConfig(), topology="ring"
            )


class TestMailboxFacade:
    def test_mail_layer_is_lazy(self):
        c = repro.cluster(2)
        assert c._mail is None
        assert c.mail_stats == {}
        c.mail
        assert c._mail is not None

    def test_send_and_consume_through_the_facade(self):
        c = repro.cluster(config=repro.ClusterConfig(
            n_hosts=2, mailbox=repro.MailboxConfig(poll_interval_s=0.01)
        ))
        got = []
        node = c.add_node("inbox", daemon="host1")
        c.consumer(node, lambda mail: got.append(mail.body))
        c.send_mail("inbox", "ping")
        c.broadcast("pong")
        c.run_to_quiescence()
        assert sorted(got) == ["ping", "pong"]
        assert c.mail_stats["read"] == 2
        assert "mail" in repr(c)

    def test_mailbox_invariants_armed_with_resilience(self):
        from repro.resilience import ResiliencePolicy

        c = repro.Cluster(config=repro.ClusterConfig(
            n_hosts=2, mailbox=True, resilience=ResiliencePolicy()
        ))
        names = [
            invariant.name
            for invariant in c.resilience.monitor.invariants
        ]
        assert "no-lost-mail" in names
        assert "no-double-read" in names


class TestChurnFacade:
    def test_join_host_names_itself(self):
        c = repro.cluster(2)
        daemon = c.join_host()
        assert daemon.name == "host2"
        assert "host2" in c.host_names
        assert "host2" in c.messengers.daemons

    def test_leave_then_rejoin_revives_in_place(self):
        c = repro.cluster(3)
        c.messengers  # build the daemon layer
        c.leave_host("host1")
        assert c.messengers.daemons["host1"].retired
        c.join_host("host1")
        assert not c.messengers.daemons["host1"].retired

    def test_schedule_runs_at_simulated_time(self):
        c = repro.cluster(2)
        fired = []
        c.schedule(0.25, lambda c: fired.append(c.now))
        c.sim.run()
        assert fired == [pytest.approx(0.25)]

    def test_add_node_rejects_unknown_daemon(self):
        c = repro.cluster(2)
        with pytest.raises(KeyError):
            c.add_node("peer", daemon="nonexistent")


class TestTopLevelExports:
    def test_facade_names(self):
        for name in ("cluster", "Cluster", "ClusterConfig"):
            assert hasattr(repro, name)
        for name in ("Experiment", "ExperimentResult"):
            assert not hasattr(repro, name)

    def test_mailbox_names(self):
        import repro.mailbox

        for name in (
            "Mail", "Mailbox", "MailboxConfig", "MailboxService",
            "NoLostMail", "NoDoubleRead",
        ):
            assert name in repro.mailbox.__all__

    def test_layer_names(self):
        import repro.des
        import repro.messengers
        import repro.mp
        import repro.netsim

        for package, names in (
            (repro.des, ("Simulator",)),
            (repro.messengers, (
                "MessengersSystem", "DaemonNetwork", "Shell", "Tracer",
            )),
            (repro.mp, (
                "MessagePassingSystem", "PackBuffer", "UnpackBuffer",
            )),
            (repro.netsim, (
                "Network", "build_lan", "CostModel", "DEFAULT_COSTS",
            )),
        ):
            for name in names:
                assert name in package.__all__, (package.__name__, name)

    def test_obs_names(self):
        import repro.obs

        for name in (
            "CATEGORIES", "MetricsRegistry", "cost_breakdown",
            "format_breakdown", "dump_chrome_trace",
        ):
            assert name in repro.obs.__all__

    def test_all_is_sorted_and_complete(self):
        assert repro.__all__ == sorted(repro.__all__)
        for name in repro.__all__:
            assert hasattr(repro, name)


class TestLongFormStillWorks:
    def test_manual_construction(self):
        from repro.des import Simulator
        from repro.messengers import MessengersSystem
        from repro.netsim import build_lan

        sim = Simulator()
        system = MessengersSystem(build_lan(sim, 2))
        system.inject("f() { create(ALL); }")
        system.run_to_quiescence()
        assert system.logical.node_count() == 3
