"""Native-mode functions: the MESSENGERS ↔ environment interface.

Function-invocation statements "permit the dynamic loading and invocation
of precompiled C functions to be executed in native mode" (§2.1).  Here
natives are Python callables registered by name; they receive a
:class:`NativeEnv` giving access to the Messenger's variables, the
current node's variables, and cost-charging hooks.

Two guarantees mirror the paper:

* a native function runs *atomically* — the daemon never interrupts it
  (the modified non-preemptive scheduling policy), so natives can guard
  shared node state without locks;
* time charged via :meth:`NativeEnv.charge_flops` /
  :meth:`NativeEnv.charge_seconds` is paid as one uninterrupted busy
  period on the daemon's host.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

__all__ = ["NativeEnv", "NativeRegistry", "UnknownNativeError"]


class UnknownNativeError(KeyError):
    """A script invoked a native function that was never registered."""


class NativeEnv:
    """What a native function can see and touch."""

    def __init__(self, system, daemon, messenger):
        self.system = system
        self.daemon = daemon
        self.messenger = messenger
        #: Accumulated charges by cost category (see repro.obs.CATEGORIES);
        #: the daemon drains this after each execution slice.
        self._charges: dict[str, float] = {}

    # -- state access ---------------------------------------------------------

    @property
    def node(self):
        """The logical node the calling Messenger currently occupies."""
        return self.messenger.node

    @property
    def node_vars(self) -> dict:
        """Shared node variables (communication/coordination, §2.1)."""
        return self.messenger.node.variables

    @property
    def msgr_vars(self) -> dict:
        """The calling Messenger's private variables (computation)."""
        return self.messenger.variables

    @property
    def now(self) -> float:
        """Current simulated (wall-clock) time."""
        return self.system.sim.now

    @property
    def vt(self) -> float:
        """The calling Messenger's local virtual time."""
        return self.messenger.vt

    @property
    def host(self):
        """The simulated host under the current daemon."""
        return self.daemon.host

    # -- cost charging ------------------------------------------------------------

    def charge_seconds(
        self, seconds: float, category: str = "compute"
    ) -> None:
        """Charge raw CPU seconds for work done in this native call.

        ``category`` attributes the time in the cost ledger when a
        metrics registry is attached (default: application compute).
        """
        if seconds < 0:
            raise ValueError(f"negative charge {seconds}")
        self._charges[category] = (
            self._charges.get(category, 0.0) + seconds
        )

    def charge_flops(
        self, flops: float, working_set_bytes: float = 0.0
    ) -> None:
        """Charge a computation through the host's cache-aware model."""
        self.charge_seconds(
            self.daemon.host.compute_seconds(flops, working_set_bytes)
        )

    def charge_memcpy(self, nbytes: float) -> None:
        """Charge a raw memory copy (e.g. block into a node variable).

        This is a plain memcpy at local rates — *not* the marshalling
        copy message-passing pays; see
        ``CostModel.msgr_state_local_per_byte_s``.
        """
        self.charge_seconds(
            nbytes * self.system.costs.msgr_state_local_per_byte_s,
            category="copies",
        )

    def drain_charges(self) -> dict:
        """Charges by cost category; resets the accumulator (daemon use)."""
        charges, self._charges = self._charges, {}
        return charges


class NativeRegistry:
    """Name → native function table for one MESSENGERS system."""

    def __init__(self, include_builtins: bool = True):
        self._functions: dict[str, Callable] = {}
        if include_builtins:
            self._register_builtins()

    def register(
        self, name_or_function=None, *, name: Optional[str] = None
    ):
        """Register a native; usable as a decorator or a plain call.

        ::

            @natives.register
            def compute(env, task): ...

            natives.register(my_callable, name="next_task")
        """
        if name_or_function is None:
            return lambda function: self.register(function, name=name)
        function = name_or_function
        key = name or function.__name__
        self._functions[key] = function
        return function

    def lookup(self, name: str) -> Callable:
        try:
            return self._functions[name]
        except KeyError:
            raise UnknownNativeError(
                f"native function {name!r} is not registered "
                f"(have: {sorted(self._functions)})"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    @property
    def names(self) -> list[str]:
        return sorted(self._functions)

    # -- built-ins --------------------------------------------------------------

    def _register_builtins(self) -> None:
        """Small math/utility natives every script can rely on."""

        def _abs(env, x):
            return abs(x)

        def _min(env, *args):
            return min(args)

        def _max(env, *args):
            return max(args)

        def _floor(env, x):
            return math.floor(x)

        def _ceil(env, x):
            return math.ceil(x)

        def _sqrt(env, x):
            return math.sqrt(x)

        def _strcat(env, *parts):
            return "".join(str(part) for part in parts)

        def _log(env, *parts):
            env.system.log(
                f"[vt={env.vt:g} t={env.now:.6f}s "
                f"{env.node.display_name}@{env.daemon.host.name} "
                f"m#{env.messenger.id}] "
                + " ".join(str(part) for part in parts)
            )
            return None

        def _list_new(env, n, fill=0):
            return [fill] * int(n)

        def _len(env, container):
            return len(container)

        def _append(env, container, value):
            container.append(value)
            return len(container)

        def _node_get(env, name, default=None):
            return env.node_vars.get(name, default)

        def _node_set(env, name, value):
            env.node_vars[name] = value
            return value

        self._functions.update(
            {
                "abs": _abs,
                "min": _min,
                "max": _max,
                "floor": _floor,
                "ceil": _ceil,
                "sqrt": _sqrt,
                "strcat": _strcat,
                "M_log": _log,
                "list_new": _list_new,
                "len": _len,
                "append": _append,
                "node_get": _node_get,
                "node_set": _node_set,
            }
        )
