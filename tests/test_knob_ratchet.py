"""Public knobs are pinned: adding one back means editing this file.

A switch between two implementations of the same thing (a second event
queue, a second MCL entry point) has to earn its place with a measured
win.  These pins make re-adding one a visible decision instead of a
quiet constructor parameter, config field or package export.
"""

import dataclasses
import inspect

import pytest

import repro
import repro.des
import repro.faults
import repro.netsim
from repro import (
    Cluster,
    ClusterConfig,
    FaultPlan,
    MailboxConfig,
    ReplicationConfig,
    ResiliencePolicy,
    ServiceConfig,
    cluster,
)
from repro.cli import build_parser
from repro.des import Simulator
from repro.messengers import mcl
from repro.netsim import CostModel, build_lan
from repro.obs import Histogram
from repro.resilience import RestartPolicy

#: Every settable field of every config dataclass.  A tuning value no
#: caller moves off its default is a module constant next to its reader.
CONFIG_FIELDS = {
    ClusterConfig: [
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
    ],
    MailboxConfig: ["poll_interval_s", "replication"],
    ReplicationConfig: ["factor", "quorum"],
    ResiliencePolicy: [
        "detector",
        "heartbeat_misses",
        "phi_threshold",
        "supervision",
        "flow_credits",
    ],
    RestartPolicy: ["strategy", "delay_s", "max_restarts"],
    ServiceConfig: ["arrivals", "rate_rps", "duration_s", "degradation"],
}


def test_simulator_takes_no_parameters():
    assert list(inspect.signature(Simulator).parameters) == []


def test_cluster_config_fields():
    # ClusterConfig and every config it nests.
    for config, names in CONFIG_FIELDS.items():
        assert [f.name for f in dataclasses.fields(config)] == names
    assert sum(len(names) for names in CONFIG_FIELDS.values()) == 26


def test_deleted_helpers_stay_deleted():
    # dataclasses.replace is the one way to vary a config, and retransmit
    # timing lives only in CostModel.retransmit_*.
    assert not hasattr(repro.faults, "RetransmitPolicy")
    assert not hasattr(FaultPlan, "retransmit")
    assert not hasattr(repro.netsim, "sparc5_costs")
    assert not hasattr(CostModel, "with_")
    assert not hasattr(ServiceConfig, "with_")
    # One quantile estimator: the buckets.
    assert list(inspect.signature(Histogram).parameters) == [
        "name",
        "buckets",
    ]
    assert "name_prefix" not in inspect.signature(build_lan).parameters
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "throughput"])
    # One MCL interpreter loop, which also counts opcodes.
    assert not hasattr(mcl.vm, "_run_counting")
    assert not hasattr(mcl.Frame, "push")
    assert not hasattr(mcl, "compile_all")


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
