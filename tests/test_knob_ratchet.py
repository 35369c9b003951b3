"""Public knobs are pinned: adding one back means editing this file.

A switch between two implementations of the same thing (a second event
queue, a second MCL entry point) has to earn its place with a measured
win.  These pins make re-adding one a visible decision instead of a
quiet constructor parameter, config field or package export.
"""

import dataclasses
import inspect

import repro
import repro.des
from repro import Cluster, ClusterConfig, cluster
from repro.des import Simulator


def test_simulator_takes_no_parameters():
    assert list(inspect.signature(Simulator).parameters) == []


def test_cluster_config_fields():
    assert [f.name for f in dataclasses.fields(ClusterConfig)] == [
        "n_hosts",
        "topology",
        "costs",
        "cpu_scale",
        "metrics",
        "faults",
        "seed",
        "resilience",
        "mailbox",
        "service",
        "name_prefix",
    ]


def test_cluster_takes_only_a_host_count_and_a_config():
    # One way to build a cluster: every option is a ClusterConfig field.
    for build in (Cluster, cluster):
        assert list(inspect.signature(build).parameters) == [
            "n_hosts",
            "config",
        ]


def test_top_level_exports():
    # The facade and the config types it takes; everything else is
    # imported from its subpackage.
    assert repro.__all__ == [
        "Cluster",
        "ClusterConfig",
        "FaultPlan",
        "MailboxConfig",
        "MetricsRegistry",
        "ReplicationConfig",
        "ResiliencePolicy",
        "ServiceConfig",
        "__version__",
        "cluster",
        "cost_breakdown",
    ]


def test_des_exports():
    assert sorted(repro.des.__all__) == [
        "AllOf",
        "AnyOf",
        "Event",
        "EventAlreadyTriggered",
        "FilterStore",
        "Hold",
        "Interrupt",
        "PriorityStore",
        "Process",
        "ProcessDead",
        "Resource",
        "RngRegistry",
        "SimDeadlockError",
        "SimOverloadError",
        "SimulationError",
        "Simulator",
        "StopSimulation",
        "Store",
        "Timeout",
    ]
