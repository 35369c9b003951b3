"""Unit tests for the basic-block closures backend and its plumbing.

The broad equivalence proof is the Hypothesis ``TestBackendDifferential``
(random programs) and ``test_perf_determinism`` (golden traces); these
are the targeted shapes — resumption, block partitioning, error parity,
the daemons' ``VM_RUN`` seam, and the bounded program cache.
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
from repro.messengers.mcl.closures import compile_blocks
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


class TestCompiledBlocks:
    def test_blocks_cached_on_program(self):
        program = compile_source("f() { x = 1; }", "f")
        program._closures = None
        first = compile_blocks(program)
        assert compile_blocks(program) is first

    def test_partition_splits_at_yields_and_jumps(self):
        program = compile_source(
            'f() { x = 0; while (x < 3) { hop(ll = "l"); x = x + 1; } }',
            "f",
        )
        program._closures = None
        compiled = compile_blocks(program)
        # Loop head, body after the hop, and exit are distinct blocks.
        assert len(compiled.blocks) >= 4
        # Static per-block counts cover the whole program exactly once.
        assert sum(count for _, count in compiled.blocks) == len(
            program.instructions
        )

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
