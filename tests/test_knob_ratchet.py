"""Public knobs are pinned: adding one back means editing this file.

A switch between two implementations of the same thing (a second event
queue, a second MCL entry point) has to earn its place with a measured
win.  These pins make re-adding one a visible decision instead of a
quiet constructor parameter, config field or package export.
"""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

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
from repro.resilience.supervision import RestartPolicy

ROOT = Path(__file__).resolve().parent.parent
#: Where an export's callers may live; tests import from the defining
#: module instead.
CALLER_PATHS = ("src", "benchmark", "benchmarks", "examples")

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
        "Event",
        "FilterStore",
        "Hold",
        "Interrupt",
        "Process",
        "Resource",
        "RngRegistry",
        "SimDeadlockError",
        "SimOverloadError",
        "SimulationError",
        "Simulator",
        "Store",
        "Timeout",
    ]


def _subpackage_exports():
    for init in sorted((ROOT / "src" / "repro").rglob("*/__init__.py")):
        package = init.parent
        dotted = ".".join(package.relative_to(ROOT / "src").parts)
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets
            ):
                yield package, dotted, ast.literal_eval(node.value)


def test_every_subpackage_export_has_an_outside_caller():
    # A name earns its subpackage __all__ slot by a word-boundary
    # reference outside that package; exceptions are exempt because
    # callers catch them.  The total may only shrink.
    sources = {
        path: path.read_text()
        for top in CALLER_PATHS
        for path in (ROOT / top).rglob("*.py")
    }
    uncalled, total = [], 0
    for package, dotted, names in _subpackage_exports():
        module = importlib.import_module(dotted)
        total += len(names)
        for name in names:
            value = getattr(module, name)
            if isinstance(value, type) and issubclass(value, BaseException):
                continue
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            if not any(
                pattern.search(text)
                for path, text in sources.items()
                if package not in path.parents
            ):
                uncalled.append(f"{dotted}.{name}")
    assert uncalled == []
    assert total == 149
