"""Fast path changes no simulated result bit.

The result hashes, final clocks and fault counters below were captured
with the *pre-optimisation* kernel (the stack as of commit d15be66,
before ``repro.perf`` and the DES/VM fast path landed).  The trace
hashes and event counts were re-pinned once, when a CPU hold and an
Ethernet frame became one kernel event each (21 -> 8 events per remote
hop): event ids shifted, nothing else did — the result hashes, clocks
and fault counters are the old ones, and ``GOLDEN_LEDGER`` (captured on
the commit before that change) pins delivery times and the obs ledger
across it.  ``matmul_messengers_2x2`` (the one pin whose packets span
several frames) was re-pinned once more when the Ethernet segment
stopped scheduling an event per fragment (225 -> 189 events), with its
result hash and ledger unchanged.  Every optimisation must reproduce all of them exactly:

* the **trace hash** folds every executed event — time, priority,
  event id, daemon flag, event type — in execution order, so it pins
  the entire schedule including every clock value;
* the **result hash** is a 128-bit digest of the raw result array
  bytes (Mandelbrot image / matmul product);
* the **fault counters** pin the lossy-transport behaviour under an
  armed :class:`~repro.faults.FaultPlan`.

Also here: the MCL VM's fast dispatch must agree with its preserved
counting interpreter, instrumented runs must agree with plain runs,
and a ``repro.bench.sweep`` pool must agree with the serial loop.
"""

import json
from contextlib import contextmanager
from hashlib import blake2b

import pytest

from repro.apps.mandelbrot.kernel import TaskGrid
from repro.apps.mandelbrot.messengers_app import run_messengers
from repro.apps.mandelbrot.pvm_app import run_pvm
from repro.apps.matmul.kernel import make_matrices
from repro.apps.matmul.messengers_app import run_messengers as run_matmul
from repro.des import Simulator
from repro.faults import FaultPlan
from repro.messengers import daemon as daemon_module
from repro.messengers.mcl import closures, vm
from repro.obs import MetricsRegistry, cost_breakdown
from repro.perf import hashing_all_simulators

#: name -> (trace digest, events executed, result-bytes digest)
GOLDEN = {
    "mandelbrot_messengers": (
        "247adf53ae603f3074bb6fdf8abe7b8f", 321,
        "39c6f88e0a32c8eede71db1286d32e74",
    ),
    "mandelbrot_pvm": (
        "401c5fd1cce5844729ffdd72f39986a0", 326,
        "39c6f88e0a32c8eede71db1286d32e74",
    ),
    "mandelbrot_messengers_lossy": (
        "b8ee9b398c4ca2b77c965b5840afbd3d", 717, None,
    ),
    "mandelbrot_pvm_lossy": (
        "9353ee5a5fa04b2f7221e4dcaaec75a1", 662, None,
    ),
    "matmul_messengers_2x2": (
        "c392179ac7272cb5c2206619b514ffbd", 189,
        "fbe52d7374df5502044ad556af3d2f9c",
    ),
    "mandelbrot_messengers_big": (
        "326944a53beecc6d2aee28d59ccb97c2", 1132,
        "b3a189507f335e9af830b4d90aa79d16",
    ),
    "mandelbrot_pvm_big": (
        "f7834375ea66a0183e14d0adeb964cc8", 1250,
        "b3a189507f335e9af830b4d90aa79d16",
    ),
}

GRID = TaskGrid(64, 4)
PROCS = 3


def _digest(raw: bytes) -> str:
    return blake2b(raw, digest_size=16).hexdigest()


def _check(name, fn, result_bytes):
    trace, events, result_hash = GOLDEN[name]
    with hashing_all_simulators() as hasher:
        result = fn()
    assert hasher.hexdigest() == trace, f"{name}: trace diverged"
    assert hasher.events == events, f"{name}: event count diverged"
    if result_hash is not None:
        assert _digest(result_bytes(result)) == result_hash, (
            f"{name}: result bytes diverged"
        )
    return result


class TestGoldenTraces:
    def test_mandelbrot_messengers(self):
        result = _check(
            "mandelbrot_messengers",
            lambda: run_messengers(GRID, PROCS),
            lambda r: r.image.tobytes(),
        )
        # The trace hash already folds every event time; the final
        # clock is pinned directly too for a readable failure.
        assert result.seconds == 0.146332096

    def test_mandelbrot_pvm(self):
        result = _check(
            "mandelbrot_pvm",
            lambda: run_pvm(GRID, PROCS),
            lambda r: r.image.tobytes(),
        )
        assert result.seconds == 0.43461549999999993

    def test_mandelbrot_messengers_lossy(self):
        result = _check(
            "mandelbrot_messengers_lossy",
            lambda: run_messengers(
                GRID, PROCS, faults=FaultPlan().drop(0.05), seed=7
            ),
            lambda r: r.image.tobytes(),
        )
        assert dict(sorted(result.stats["faults"].items())) == {
            "acks_sent": 38, "packets_dropped": 2, "retransmits": 2,
        }
        # Loss slows the run down but never corrupts the answer.
        assert _digest(result.image.tobytes()) == GOLDEN[
            "mandelbrot_messengers"
        ][2]

    def test_mandelbrot_pvm_lossy(self):
        result = _check(
            "mandelbrot_pvm_lossy",
            lambda: run_pvm(
                GRID, PROCS, faults=FaultPlan().drop(0.05), seed=7
            ),
            lambda r: r.image.tobytes(),
        )
        assert dict(sorted(result.stats["faults"].items())) == {
            "acks_sent": 32, "packets_dropped": 2, "retransmits": 2,
        }
        assert _digest(result.image.tobytes()) == GOLDEN[
            "mandelbrot_pvm"
        ][2]

    def test_matmul_messengers_2x2(self):
        a, b = make_matrices(60, seed=0)
        _check(
            "matmul_messengers_2x2",
            lambda: run_matmul(a, b, 2),
            lambda r: r.c.tobytes(),
        )

    def test_mandelbrot_big(self):
        grid = TaskGrid(128, 8)
        _check(
            "mandelbrot_messengers_big",
            lambda: run_messengers(grid, 5),
            lambda r: r.image.tobytes(),
        )
        _check(
            "mandelbrot_pvm_big",
            lambda: run_pvm(grid, 5),
            lambda r: r.image.tobytes(),
        )


#: name -> digest of the obs side of the run: the sorted span stream
#: ``(track, name, category, start, end)``, the cost breakdown and the
#: fault counters.  Captured on the commit *before* CPU holds and frames
#: became single kernel events (5d091dc); unlike the trace digests above
#: it does not depend on event ids, so it survives further flattening of
#: the packet path and pins "same delivery times, same ledger".
GOLDEN_LEDGER = {
    "mandelbrot_messengers": "336f07b5dfbee8ac9405d3f1b3e11e9b",
    "mandelbrot_pvm": "71ce435476911245e66f9169e577b198",
    "mandelbrot_messengers_lossy": "edad03d7b1c25bfb09f883b3f10c57ce",
    "mandelbrot_pvm_lossy": "47919a7174c923d406e35b4a5e106a63",
    "matmul_messengers_2x2": "7b8c879f7508e2113f77a4c5bf424af4",
    "mandelbrot_messengers_big": "16063b2e50a0469a82868733973231bb",
    "mandelbrot_pvm_big": "81b3a87363dacf5c6f2a01350fdeb469",
}


@contextmanager
def _metering_all_simulators(registry):
    """Attach ``registry`` to every simulator built inside the block
    (the matmul runner takes no ``metrics=``)."""
    original_init = Simulator.__init__

    def patched_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.metrics = registry

    Simulator.__init__ = patched_init
    try:
        yield registry
    finally:
        Simulator.__init__ = original_init


def _ledger_digest(fn) -> str:
    with _metering_all_simulators(MetricsRegistry()) as registry:
        result = fn()
    assert registry.spans_dropped == 0
    spans = sorted(
        (s.track, s.name, s.category or "", s.t0, s.t1)
        for s in registry.spans
    )
    blob = json.dumps(
        {
            "spans": spans,
            "breakdown": cost_breakdown(registry, result.seconds),
            "faults": getattr(result, "stats", {}).get("faults", {}),
        },
        sort_keys=True,
    )
    return _digest(blob.encode())


def _ledger_scenarios() -> dict:
    lossy = dict(faults=FaultPlan().drop(0.05), seed=7)
    big = TaskGrid(128, 8)
    a, b = make_matrices(60, seed=0)
    return {
        "mandelbrot_messengers": lambda: run_messengers(GRID, PROCS),
        "mandelbrot_pvm": lambda: run_pvm(GRID, PROCS),
        "mandelbrot_messengers_lossy": (
            lambda: run_messengers(GRID, PROCS, **lossy)
        ),
        "mandelbrot_pvm_lossy": lambda: run_pvm(GRID, PROCS, **lossy),
        "matmul_messengers_2x2": lambda: run_matmul(a, b, 2),
        "mandelbrot_messengers_big": lambda: run_messengers(big, 5),
        "mandelbrot_pvm_big": lambda: run_pvm(big, 5),
    }


class TestGoldenLedgers:
    """Same delivery times and an identical obs ledger, as a test."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_obs_side_matches_parent_capture(self, name):
        assert _ledger_digest(_ledger_scenarios()[name]) == (
            GOLDEN_LEDGER[name]
        )


def _labelled(opcounts: dict) -> dict:
    """An int-keyed ``opcounts`` histogram under its metric labels."""
    labelled: dict = {}
    for code, count in opcounts.items():
        name = vm.OPCODE_NAMES[code]
        labelled[name] = labelled.get(name, 0) + count
    return labelled


class TestVMFastPathIdentity:
    """Counting opcodes runs the one reference loop and changes nothing
    it computes; the closures backend hands counted slices to it."""

    SOURCE = """
    f(n) {
        i = 0;
        acc = 0;
        while (i < n) {
            acc = acc + i * 2 - (i % 3);
            if (acc > 5000) { acc = acc - 5000; }
            i = i + 1;
        }
        return acc;
    }
    """

    #: The loop's histogram at n=500, captured before the counting
    #: loop was folded into ``vm.run``.
    HISTOGRAM = {
        "BINOP": 3550, "CONST": 2051, "JF": 1001, "JMP": 500,
        "LOAD": 3552, "RET": 1, "STORE": 1051,
    }

    def _run(self, backend, opcounts):
        from repro.messengers.mcl.compiler import compile_source

        program = compile_source(self.SOURCE, "f")
        variables = {"n": 500}
        frame = vm.Frame(program)
        command = backend(
            frame,
            variables,
            {},
            lambda name: 0,
            lambda name, args: 0,
            max_instructions=1_000_000,
            opcounts=opcounts,
        )
        return command, variables, frame

    def test_fast_matches_counting(self):
        plain_cmd, plain_vars, plain_frame = self._run(vm.run, None)
        counts: dict = {}
        counted_cmd, counted_vars, counted_frame = self._run(vm.run, counts)
        assert counted_cmd == plain_cmd
        assert counted_vars == plain_vars
        assert (counted_frame.pc, counted_frame.stack) == (
            plain_frame.pc, plain_frame.stack
        )
        assert counted_cmd.instructions == 11_706
        assert sum(counts.values()) == counted_cmd.instructions
        assert _labelled(counts) == self.HISTOGRAM

    def test_closures_counts_through_the_reference_loop(self):
        reference: dict = {}
        self._run(vm.run, reference)
        counts: dict = {}
        command, _, _ = self._run(closures.run, counts)
        assert counts == reference
        assert command.instructions == 11_706


#: The ring-walker program of the repository benchmark's ``ring_hops``
#: workload, copied verbatim.
RING_WALKER = """
walker(start, steps) {
    for (k = 0; k < steps; k++) {
        hop(ll = "ring"; ldir = +);
    }
    arrive(start);
}
"""


class TestOpcodeHistogramPins:
    """Per-opcode histograms, captured before the counting loop was
    folded into ``vm.run``, that counting must keep reproducing."""

    def test_fig5_messengers(self):
        registry = MetricsRegistry(opcode_counts=True)
        run_messengers(TaskGrid(320, 8), 4, metrics=registry)
        family = registry.counter_family("mcl.vm.instructions", "opcode")
        assert family.values == {
            "BINOP": 68, "CALL": 196, "CONST": 68, "CREATE": 1,
            "HOP": 132, "JF": 68, "JMP": 64, "LOAD": 196,
            "LOADNET": 132, "POP": 64, "RET": 4, "STORE": 132,
        }

    def test_ring_walker(self):
        from repro import Cluster, ClusterConfig
        from repro.messengers import build_ring

        registry = MetricsRegistry(opcode_counts=True)
        cluster = Cluster(config=ClusterConfig(
            n_hosts=4, topology="ring", metrics=registry,
        ))
        system = cluster.messengers
        ring = build_ring(system, 16)
        arrived = {}

        @system.natives.register
        def arrive(env, start):
            arrived[start] = env.node.name
            return 0

        for start in (0, 5, 11):
            node = ring[f"n{start}"]
            system.inject(
                RING_WALKER, (start, 4), daemon=node.daemon,
                node=node.name,
            )
        cluster.run_to_quiescence()
        assert arrived == {0: "n4", 5: "n9", 11: "n15"}
        family = registry.counter_family("mcl.vm.instructions", "opcode")
        assert family.values == {
            "BINOP": 27, "CALL": 3, "CONST": 27, "HOP": 12, "JF": 15,
            "JMP": 12, "LOAD": 45, "POP": 3, "RET": 3, "STORE": 15,
        }


class TestInstrumentationIdentity:
    """Observability hooks may slow a run down, never change it."""

    def test_metrics_run_matches_plain_run(self):
        from repro.obs import MetricsRegistry

        plain = run_messengers(GRID, PROCS)
        metered = run_messengers(
            GRID, PROCS, metrics=MetricsRegistry(opcode_counts=True)
        )
        assert metered.seconds == plain.seconds
        assert metered.image.tobytes() == plain.image.tobytes()


class TestSweepPoolIdentity:
    """A 4-process pool returns exactly what the serial loop returns."""

    def test_seed_sweep_pool_matches_serial(self):
        from repro.bench.sweep import seed_sweep_experiment

        experiment = seed_sweep_experiment()  # 2 systems x 4 seeds
        assert len(experiment.replications) >= 8
        serial = experiment.run(processes=1)
        pooled = experiment.run(processes=4)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_loss_sweep_pool_matches_serial(self):
        from repro.bench import run_loss_sweep

        kwargs = dict(image_size=64, grid_size=4, procs=3)
        serial = run_loss_sweep(**kwargs)
        pooled = run_loss_sweep(**kwargs, processes=3)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_duplicate_replication_ids_rejected(self):
        import pytest

        from repro.bench.sweep import Replication, run_replications

        with pytest.raises(ValueError):
            run_replications(
                len, [Replication(rid=1), Replication(rid=1)]
            )


_VM_RUNS = {"interp": vm.run, "closures": closures.run}


def _use_backend(monkeypatch, kind):
    """Point every daemon built from here on at one MCL backend."""
    monkeypatch.setattr(daemon_module, "VM_RUN", _VM_RUNS[kind])


def _check_fig5_goldens_under(monkeypatch, backend):
    _use_backend(monkeypatch, backend)
    _check(
        "mandelbrot_messengers",
        lambda: run_messengers(GRID, PROCS),
        lambda r: r.image.tobytes(),
    )
    _check(
        "mandelbrot_pvm",
        lambda: run_pvm(GRID, PROCS),
        lambda r: r.image.tobytes(),
    )


def _check_lossy_golden_under(monkeypatch, backend):
    _use_backend(monkeypatch, backend)
    _check(
        "mandelbrot_messengers_lossy",
        lambda: run_messengers(
            GRID, PROCS, faults=FaultPlan().drop(0.05), seed=7
        ),
        lambda r: r.image.tobytes(),
    )


class TestInterpBackendGoldenEquivalence:
    """The reference interpreter, swapped in through the daemons'
    ``VM_RUN`` seam, reproduces the goldens that ``TestGoldenTraces``
    pins under the shipped closures backend — fig-5 Mandelbrot (both
    systems) and the 5%-loss fault plan; fig-12b and the obs ledger are
    compared backend against backend in the class below.
    """

    def test_interp_reproduces_fig5_goldens(self, monkeypatch):
        _check_fig5_goldens_under(monkeypatch, "interp")

    def test_interp_reproduces_lossy_golden(self, monkeypatch):
        _check_lossy_golden_under(monkeypatch, "interp")


class TestClosuresBackendGoldenEquivalence:
    """The closures backend reproduces the interpreter goldens bit-for-bit.

    The basic-block superinstruction compiler claims the interpreter's
    exact Command stream and instruction accounting.  Proof on real
    workloads: the golden digests above — fig-5 Mandelbrot (both
    systems), fig-12b matmul, and the 5%-loss fault plan — are
    reproduced unchanged with the closures backend set explicitly
    through the ``VM_RUN`` seam, and match the interpreter's.
    """

    def test_closures_reproduces_fig5_goldens(self, monkeypatch):
        _check_fig5_goldens_under(monkeypatch, "closures")

    def test_closures_reproduces_lossy_golden(self, monkeypatch):
        _check_lossy_golden_under(monkeypatch, "closures")

    def test_closures_matches_interp_on_fig12b(self, monkeypatch):
        a, b = make_matrices(60, seed=0)

        def run_with(kind):
            _use_backend(monkeypatch, kind)
            with hashing_all_simulators() as hasher:
                result = run_matmul(a, b, 3)
            return hasher.hexdigest(), hasher.events, result.c.tobytes()

        assert run_with("interp") == run_with("closures")

    def test_closures_ledger_accounting_identity(self, monkeypatch):
        """The obs ledger — including the "interpretation" category the
        paper's figures score on — is identical under both backends."""
        from repro.obs import MetricsRegistry

        def snapshot(kind):
            _use_backend(monkeypatch, kind)
            registry = MetricsRegistry()
            result = run_messengers(GRID, PROCS, metrics=registry)
            snap = registry.snapshot()
            return result.seconds, result.image.tobytes(), snap

        interp_secs, interp_img, interp_snap = snapshot("interp")
        closures_secs, closures_img, closures_snap = snapshot("closures")
        assert closures_secs == interp_secs
        assert closures_img == interp_img
        assert closures_snap == interp_snap
