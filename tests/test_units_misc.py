"""Unit tests for smaller pieces: RNG registry, Messenger object,
native registry, vtime edge cases."""

import pytest

from repro.des import RngRegistry, Simulator
from repro.messengers import MessengersSystem, UnknownNativeError
from repro.messengers.natives import NativeRegistry
from repro.messengers.mcl import compile_source
from repro.messengers.messenger import Messenger
from repro.messengers.vtime import VirtualTimeError
from repro.netsim import build_lan


class TestRngRegistry:
    def test_same_name_same_stream(self):
        registry = RngRegistry(7)
        assert registry.stream("a") is registry.stream("a")

    def test_reproducible_across_registries(self):
        a = RngRegistry(7).stream("workload").random()
        b = RngRegistry(7).stream("workload").random()
        assert a == b

    def test_streams_are_independent(self):
        registry = RngRegistry(7)
        first = registry.stream("one").random()
        # Drawing from another stream must not perturb the first.
        registry2 = RngRegistry(7)
        registry2.stream("two").random()
        second = registry2.stream("one").random()
        assert first == second

    def test_different_seeds_differ(self):
        assert (
            RngRegistry(1).stream("x").random()
            != RngRegistry(2).stream("x").random()
        )


class TestMessengerObject:
    def make(self, **variables):
        program = compile_source("f() { x = 1; hop(); x = 2; }")
        return Messenger(program, variables)

    def test_ids_unique(self):
        assert self.make().id != self.make().id

    def test_state_bytes_includes_variables(self):
        small = self.make()
        big = self.make(payload=[0.0] * 1000)
        assert big.state_bytes() > small.state_bytes() + 7000

    def test_clone_deep_copies_variables(self):
        original = self.make(data=[1, 2, 3])
        replica = original.clone()
        replica.variables["data"].append(4)
        assert original.variables["data"] == [1, 2, 3]

    def test_clone_shares_program(self):
        original = self.make()
        assert original.clone().program is original.program

    def test_kill(self):
        messenger = self.make()
        messenger.kill()
        assert not messenger.alive
        assert messenger.node is None

    def test_repr_in_transit(self):
        assert "in transit" in repr(self.make())


class TestNativeRegistry:
    def test_register_decorator_and_name_override(self):
        registry = NativeRegistry(include_builtins=False)

        @registry.register
        def alpha(env):
            return 1

        registry.register(lambda env: 2, name="beta")
        assert registry.lookup("alpha")(None) == 1
        assert registry.lookup("beta")(None) == 2
        assert "alpha" in registry
        assert registry.names == ["alpha", "beta"]

    def test_unknown_native(self):
        registry = NativeRegistry(include_builtins=False)
        with pytest.raises(UnknownNativeError):
            registry.lookup("missing")

    def test_builtins_present(self):
        registry = NativeRegistry()
        for name in ("abs", "min", "max", "M_log", "node_get", "node_set"):
            assert name in registry

    def test_builtin_math_behaviour(self):
        sim = Simulator()
        system = MessengersSystem(build_lan(sim, 1))
        out = {}

        @system.natives.register
        def report(env, a, b, c, d, e):
            out.update(a=a, b=b, c=c, d=d, e=e)
            return 0

        system.inject(
            """
            f() {
                report(abs(0 - 5), min(3, 1, 2), max(3, 1, 2),
                       floor(2.7), sqrt(16));
            }
            """
        )
        system.run_to_quiescence()
        assert out == {"a": 5, "b": 1, "c": 3, "d": 2, "e": 4.0}

    def test_strcat_builtin(self):
        sim = Simulator()
        system = MessengersSystem(build_lan(sim, 1))
        out = {}

        @system.natives.register
        def sink(env, s):
            out["s"] = s
            return 0

        system.inject('f() { sink(strcat("node-", 3)); }')
        system.run_to_quiescence()
        assert out["s"] == "node-3"


class TestVtimeEdgeCases:
    def make_system(self, n=2):
        sim = Simulator()
        return MessengersSystem(build_lan(sim, n))

    def test_bad_sched_kind(self):
        system = self.make_system()
        daemon = system.daemon("host0")
        messenger = system.inject("f() { x = 1; }")
        with pytest.raises(VirtualTimeError):
            system.vtime.suspend(daemon, messenger, "bogus", 1.0)
        system.run_to_quiescence()

    def test_dead_messenger_not_woken(self):
        system = self.make_system()
        messenger = system.inject("f() { M_sched_time_abs(5); }")
        # Suspend happens during the run; then kill before the wake.

        def assassin(sim):
            yield sim.timeout(1e-6)
            messenger.kill()
            # account for the killed messenger so quiescence math holds
            system.finished.append((messenger, "killed"))

        system.sim.process(assassin(system.sim))
        system.run_to_quiescence()
        assert messenger.vt == 0.0  # never woken

    def test_pending_count_and_next_wake(self):
        system = self.make_system()
        system.inject("f() { M_sched_time_abs(3); }")
        system.inject("f() { M_sched_time_abs(7); }", daemon="host1")
        # run just far enough for both to suspend
        system.sim.run(until=0.5)
        assert system.vtime.pending_count in (0, 1, 2)
        system.run_to_quiescence()
        assert system.vtime.gvt == 7.0

    def test_active_count_underflow_guard(self):
        system = self.make_system()
        with pytest.raises(RuntimeError):
            system.deactivate()
