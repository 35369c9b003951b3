"""Checks on the benchmark itself.

Run explicitly — ``testpaths`` keeps this file out of the tier-1 suite::

    PYTHONPATH=src python -m pytest -q benchmark/
"""

import ast
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as harness  # noqa: E402
import sampler  # noqa: E402
import workloads  # noqa: E402

SPEC = harness.load_spec()
SOURCES = sorted(
    name for name in os.listdir(HERE)
    if name.endswith(".py") and not name.startswith("test_")
)


# -- sampler -----------------------------------------------------------------


def _path(relative: str) -> str:
    return os.path.join(ROOT, "src", "repro", *relative.split("/"))


def test_sampler_attributes_a_synthetic_stack():
    # Innermost first: the kernel's run loop, called from a Store, from
    # the transport, from a daemon, from the facade, from the harness.
    stack = [
        _path("des/core.py"), _path("des/resources.py"),
        _path("netsim/transport.py"), _path("messengers/daemon.py"),
        _path("messengers/mcl/vm.py"), _path("facade.py"),
        os.path.join(HERE, "run.py"),
    ]
    self_layer, inclusive = sampler.attribute(stack)
    assert self_layer == "des.core"
    assert inclusive == {
        "des.core", "des.resources", "netsim", "messengers",
        "messengers.mcl", "facade",
    }
    assert sampler.attribute([os.path.join(HERE, "run.py")]) == (None, set())


def test_self_shares_and_unattributed_sum_to_one():
    s = sampler.Sampler()
    s.record([_path("des/process.py"), _path("mp/task.py")])
    s.record([_path("mp/task.py")])
    s.record([_path("apps/matmul/kernel.py"), _path("mp/task.py")])
    s.record(["/usr/lib/python3/json/encoder.py"])
    shares = s.shares()
    total = shares["trace.unattributed_share"] + sum(
        shares[f"{layer}.self_share"] for layer in sampler.LAYERS
    )
    assert total == pytest.approx(1.0)
    assert shares["trace.samples"] == 4
    assert shares["mp.self_share"] == 0.25
    assert shares["mp.incl_share"] == 0.75
    assert shares["trace.unattributed_share"] == 0.25


def test_sampler_samples_a_live_run():
    def burn():
        return sum(i * i % 7 for i in range(600_000))

    with sampler.Sampler() as s:
        burn()
    assert s.samples > 0
    assert s.unattributed == s.samples  # no repro frame on this stack


def test_layer_map_covers_every_module_of_repro():
    package = os.path.join(ROOT, "src", "repro")
    entries = {
        name for name in os.listdir(package)
        if name != "__pycache__"
        and (name.endswith(".py") or os.path.isdir(os.path.join(package, name)))
    }
    unmapped = entries - set(sampler.MODULE_LAYERS)
    assert not unmapped, (
        f"new module(s) under src/repro with no layer: {sorted(unmapped)}; "
        "add them to benchmark/sampler.py MODULE_LAYERS"
    )
    gone = set(sampler.MODULE_LAYERS) - entries
    assert not gone, f"MODULE_LAYERS names missing modules: {sorted(gone)}"
    layers = set(sampler.MODULE_LAYERS.values()) | set(
        sampler.FILE_LAYERS.values()
    )
    assert layers - {None} == set(sampler.LAYERS)
    for prefix in sampler.FILE_LAYERS:
        assert os.path.exists(os.path.join(package, prefix)), prefix


# -- the declared metrics and what a run emits -------------------------------


def _smoke(trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "mcl_compute", "--repeats", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_declared_metric_once(trace, section):
    lines, result = _smoke(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
        printed = [line for line in lines[:-1] if line.split()[:1] == [name]]
        assert len(printed) == 1, f"{name} printed {len(printed)} times"
        assert printed[0].split()[-1] == declared[name]
    if trace:
        shares = result["metrics"]
        total = shares["trace.unattributed_share"]["value"] + sum(
            shares[f"{layer}.self_share"]["value"] for layer in sampler.LAYERS
        )
        assert total == pytest.approx(1.0, abs=0.01)


def test_spec_names_the_five_workloads_and_setup_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmark"]
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert names == ["setup_s", "wall_s", "cpu_s", "work_per_s", "peak_rss_mb"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128
    every = names + [m["name"] for m in SPEC["per_layer"]]
    assert len(every) == len(set(every))


# -- golden results ----------------------------------------------------------


def _golden() -> dict:
    with open(harness.GOLDEN) as fh:
        return json.load(fh)


def test_golden_holds_every_workload():
    golden = _golden()
    assert golden["seed"] == harness.DEFAULT_SEED
    assert set(golden["workloads"]) == set(workloads.WORKLOADS)
    for entry in golden["workloads"].values():
        assert entry["digest"] == workloads.results_digest(entry["results"])


def test_wrong_golden_fails_every_operation(capsys):
    make_inputs, run, _ = workloads.WORKLOADS["mcl_compute"]
    inputs = make_inputs(harness.DEFAULT_SEED)
    golden = _golden()
    good = harness.Verifier("mcl_compute", harness.DEFAULT_SEED, golden)
    good.run(lambda: run(inputs))
    assert good.failed == 0 and good.attempted == 64

    entry = golden["workloads"]["mcl_compute"]
    entry["results"]["sim_seconds"] += 1.0
    entry["digest"] = workloads.results_digest(entry["results"])
    bad = harness.Verifier("mcl_compute", harness.DEFAULT_SEED, golden)
    bad.run(lambda: run(inputs))
    assert bad.failed == bad.attempted == 64  # ops_failed_share = 1
    # The report names the first differing field, not just two hashes.
    assert "sim_seconds: golden" in bad.failures[0]


def test_a_repeat_that_raises_fails_every_operation():
    verifier = harness.Verifier("mcl_compute", harness.DEFAULT_SEED, _golden())

    def boom():
        raise RuntimeError("boom")

    assert verifier.run(boom) is None
    assert verifier.failed == verifier.attempted == 64


def test_other_seeds_are_checked_against_the_first_repeat():
    make_inputs, run, _ = workloads.WORKLOADS["mcl_compute"]
    inputs = make_inputs(5)
    verifier = harness.Verifier("mcl_compute", 5, _golden())
    first = verifier.run(lambda: run(inputs))
    assert verifier.source == "first repeat" and verifier.failed == 0
    assert first.digest() != _golden()["workloads"]["mcl_compute"]["digest"]
    verifier.run(lambda: run(make_inputs(6)))  # other inputs: must differ
    assert verifier.failed == 64


# -- compare -----------------------------------------------------------------


def _runs(path, wall_values):
    runs = [
        {"workload": "ring_hops", "trace": 0, "seed": seed, "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "sim_seconds": {"value": 10.0 + seed, "unit": "sim_s"},
        }}
        for seed, wall in enumerate(wall_values)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = _runs(tmp_path / "a.json", [1.00, 1.01, 1.02, 1.01])
    same = _runs(tmp_path / "b.json", [1.01, 1.00, 1.02, 1.03])
    slow = _runs(tmp_path / "c.json", [1.20, 1.21, 1.22, 1.21])
    wild = _runs(tmp_path / "d.json", [0.80, 1.00, 1.30, 1.60])
    assert harness.compare(base, same, SPEC) == 0
    assert " ok" in capsys.readouterr().out
    assert harness.compare(base, slow, SPEC) == 1
    assert " worse" in capsys.readouterr().out
    assert harness.compare(base, wild, SPEC) == 0
    assert " unresolved" in capsys.readouterr().out


def test_exact_metrics_are_judged_per_seed():
    sim_seconds = harness.EXACT_METRICS[0]
    a = [(1, 10.0), (2, 11.0)]
    assert harness.judge(a, [(2, 11.0), (1, 10.0)], sim_seconds)[0] == "ok"
    assert harness.judge(a, [(1, 10.0), (2, 11.5)], sim_seconds)[0] == "worse"
    assert harness.judge(a, [(3, 10.0)], sim_seconds)[0] == "unresolved"


# -- import surface ----------------------------------------------------------

FORBIDDEN_MODULES = ("repro.bench", "repro.perf.scale", "repro.perf.slowkernel")
FORBIDDEN_KEYWORDS = {"scheduler", "mcl_backend"}


@pytest.mark.parametrize("source", SOURCES)
def test_benchmark_uses_only_the_stable_public_surface(source):
    with open(os.path.join(HERE, source)) as fh:
        tree = ast.parse(fh.read(), source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            modules = []
        for module in modules:
            assert not module.startswith(FORBIDDEN_MODULES), (
                f"{source}:{node.lineno} imports {module}"
            )
        if isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and not node.attr.endswith("__")
            on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            assert not private or on_self, (
                f"{source}:{node.lineno} touches private attribute "
                f".{node.attr}"
            )
        if isinstance(node, ast.keyword):
            assert node.arg not in FORBIDDEN_KEYWORDS, (
                f"{source}:{node.value.lineno} selects {node.arg}="
            )
