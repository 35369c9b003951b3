"""Unit tests for the closures backend and its plumbing.

The broad equivalence proof is the Hypothesis ``TestBackendDifferential``
(random programs) and ``test_perf_determinism`` (golden traces); these
are the targeted shapes — resumption, block partitioning, structured
loops and the locals rule, error parity, the daemons' ``VM_RUN`` seam,
and the bounded program cache.
"""

import pytest

from repro.facade import Cluster, ClusterConfig
from repro.messengers import daemon as daemon_module
from repro.messengers.mcl import closures, vm
from repro.messengers.mcl.bytecode import (
    DoneCommand,
    HopCommand,
    SchedCommand,
)
from repro.messengers.mcl.closures import compile_program
from repro.messengers.mcl.compiler import LruCache, compile_source
from repro.messengers.mcl.vm import Frame, MclRuntimeError


def _run(frame, mvars, nvars=None, netvals=None, natives=None):
    return closures.run(
        frame,
        mvars,
        nvars if nvars is not None else {},
        lambda name: (netvals or {}).get(name, 0),
        lambda name, args: (natives or {})[name](*args),
    )


#: The benchmark's cruncher shape: a hop-free arithmetic loop nested in
#: a loop that hops.
CRUNCHER = """
cruncher(id, n, rounds, a, b) {
    acc = 0;
    for (r = 0; r < rounds; r++) {
        i = 0;
        while (i < n) {
            acc = acc + i * a - (i % b);
            if (acc > 1000000) { acc = acc - 1000000; }
            i = i + 1;
        }
        hop(ll = "ring"; ldir = +);
    }
    report(id, acc);
}
"""


def _inner_loop_source(source):
    """The generated locals-form ``while True:`` body (the second
    ``while True:`` in the source, up to its ``finally:``)."""
    lines = source.splitlines()
    start = [
        i for i, line in enumerate(lines) if line.strip() == "while True:"
    ][1]
    end = next(
        i for i in range(start, len(lines))
        if lines[i].strip() == "finally:"
    )
    return "\n".join(lines[start:end])


class TestCompiledBlocks:
    def test_blocks_cached_on_program(self):
        program = compile_source("f() { x = 1; }", "f")
        program._closures = None
        first = compile_program(program)
        assert compile_program(program) is first

    def test_partition_splits_at_yields_and_jumps(self):
        program = compile_source(
            'f() { x = 0; while (x < 3) { hop(ll = "l"); x = x + 1; } }',
            "f",
        )
        program._closures = None
        compiled = compile_program(program)
        # Loop head, body after the hop, and exit are distinct blocks.
        assert len(compiled.counts) >= 4
        # Static per-block counts cover the whole program exactly once.
        assert sum(compiled.counts) == len(program.instructions)
        # Entry, the block after the hop and the hopping loop's header
        # are the resumption points; nothing else is dispatched on.
        resumable = [pc for pc in compiled.resume_pc if pc >= 0]
        assert 0 in resumable and len(resumable) == 3

    def test_hop_free_loop_is_structured_over_locals(self):
        program = compile_source(CRUNCHER, "cruncher")
        program._closures = None
        compiled = compile_program(program)
        assert sum(compiled.counts) == len(program.instructions)
        body = _inner_loop_source(compiled.source)
        assert "index ==" not in body
        assert "M['i']" not in body and "M['acc']" not in body
        assert "v_i < v_n" in body
        # The dict form of the same loop remains for unbound names.
        assert "M['i'] < M['n']" in compiled.source

    def test_loop_with_native_call_keeps_dict_access(self):
        program = compile_source(
            "f(n) { i = 0; while (i < n) { i = twice(i) + 1; } return i; }",
            "f",
        )
        program._closures = None
        compiled = compile_program(program)
        assert "v_i" not in compiled.source
        command = _run(
            Frame(program), {"n": 20}, natives={"twice": lambda x: 2 * x}
        )
        assert command.value == 31

    def test_locals_written_back_on_return(self):
        source = (
            "f(n) { i = 0; s = 0; while (1) { s = s + i; i = i + 1; "
            "if (i == n) { return s; } } }"
        )
        program = compile_source(source, "f")
        program._closures = None
        mvars = {"n": 5}
        assert _run(Frame(program), mvars).value == 10
        assert mvars == {"n": 5, "i": 5, "s": 10}

    def test_deep_nesting_compiles(self):
        # Deeper than Python's static block limit once every loop is a
        # while + try: the compiler falls back to one case per block.
        depth = 24
        source = "f() { s = 0; "
        for level in range(depth):
            k = f"k{level}"
            source += f"{k} = 0; while ({k} < 1) {{ {k} = {k} + 1; "
        source += "s = s + 1; " + "}" * depth + " return s; }"
        program = compile_source(source, "f")
        program._closures = None
        assert _run(Frame(program), {}).value == 1

    def test_resumes_at_block_after_sched(self):
        program = compile_source(
            "f() { x = 1; M_sched_time_dlt(2); x = x + 10; return x; }",
            "f",
        )
        program._closures = None
        frame = Frame(program)
        mvars = {}
        command = _run(frame, mvars)
        assert isinstance(command, SchedCommand)
        assert frame.block >= 0  # resumption hint recorded
        done = _run(frame, mvars)
        assert isinstance(done, DoneCommand)
        assert done.value == 11

    def test_resumes_with_stale_block_hint(self):
        # A frame arriving from the interpreter (block == -1) or with a
        # wrong hint must re-derive the entry block from pc.
        program = compile_source(
            'f() { x = 5; hop(ll = "l"); x = x + 1; return x; }', "f"
        )
        program._closures = None
        frame = Frame(program)
        mvars = {}
        command = vm.run(  # first slice under the interpreter
            frame, mvars, {}, lambda n: 0, lambda n, a: 0
        )
        assert isinstance(command, HopCommand)
        assert frame.block == -1
        done = _run(frame, mvars)  # resumed under closures
        assert isinstance(done, DoneCommand)
        assert done.value == 6

        frame2 = Frame(program)
        mvars2 = {}
        assert isinstance(_run(frame2, mvars2), HopCommand)
        frame2.block = 0  # deliberately wrong hint; pc disagrees
        assert _run(frame2, mvars2).value == 6

    def test_clone_carries_block_hint(self):
        program = compile_source(
            'f() { hop(ll = "l"); return 1; }', "f"
        )
        program._closures = None
        frame = Frame(program)
        assert isinstance(_run(frame, {}), HopCommand)
        clone = frame.clone()
        assert clone.block == frame.block
        assert clone.pc == frame.pc
        assert _run(clone, {}).value == 1

    def test_done_on_frame_past_end(self):
        program = compile_source("f() { x = 1; }", "f")
        program._closures = None
        frame = Frame(program)
        assert isinstance(_run(frame, {}), DoneCommand)
        again = _run(frame, {})  # pc is past the end now
        assert isinstance(again, DoneCommand)
        assert again.instructions == 0

    def test_max_instructions_guard(self):
        program = compile_source("f() { while (1) { x = 1; } }", "f")
        program._closures = None
        with pytest.raises(MclRuntimeError, match="exceeded"):
            closures.run(
                Frame(program), {}, {}, lambda n: 0, lambda n, a: 0,
                max_instructions=1000,
            )

    def test_error_class_parity_on_bad_arith(self):
        program = compile_source('f() { x = 1 + "s"; }', "f")
        for backend in (vm.run, closures.run):
            program._dispatch = None
            program._closures = None
            with pytest.raises(MclRuntimeError):
                backend(
                    Frame(program), {}, {}, lambda n: 0, lambda n, a: 0
                )

    def test_native_exceptions_propagate_raw(self):
        class Boom(Exception):
            pass

        def explode():
            raise Boom()

        program = compile_source("f() { explode(); }", "f")
        program._dispatch = None
        program._closures = None
        for backend in (vm.run, closures.run):
            with pytest.raises(Boom):
                backend(
                    Frame(program), {}, {},
                    lambda n: 0,
                    lambda n, a: {"explode": explode}[n](*a),
                )

    def test_opcounts_requests_take_reference_path(self):
        program = compile_source("f() { x = 1 + 2; return x; }", "f")
        program._closures = None
        counts: dict = {}
        command = closures.run(
            Frame(program), {}, {}, lambda n: 0, lambda n, a: 0,
            opcounts=counts,
        )
        assert isinstance(command, DoneCommand)
        assert sum(counts.values()) == command.instructions


class TestBackendSelection:
    def test_cluster_end_to_end_under_closures(self, monkeypatch):
        results = []
        for backend in (vm.run, closures.run):
            monkeypatch.setattr(daemon_module, "VM_RUN", backend)
            cluster = Cluster(config=ClusterConfig(n_hosts=2))
            daemon = next(iter(cluster.messengers.daemons.values()))
            assert daemon._vm_run is backend
            cluster.inject(
                "f(n) { i = 0; acc = 0; while (i < n) "
                "{ acc = acc + i; i = i + 1; } n_result = acc; }",
                args=[25],
            )
            cluster.run_to_quiescence()
            results.append(cluster.sim.now)
        assert results[0] == results[1] > 0


class TestProgramCacheLru:
    def test_hits_and_misses_counted(self):
        cache = LruCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_capacity_evicts_least_recent(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LruCache(capacity=0)

    def test_cache_gauges_exported_through_obs(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        cluster = Cluster(
            config=ClusterConfig(n_hosts=1, metrics=registry)
        )
        source = "f() { x = 1; }"
        cluster.messengers.compile(source)
        cluster.messengers.compile(source)
        snap = registry.snapshot()
        assert snap["mcl_cache_misses"] == 1
        assert snap["mcl_cache_hits"] == 1
