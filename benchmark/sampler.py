"""Sampled host-time attribution by layer.

``Sampler`` arms ``ITIMER_PROF`` (CPU time of this process) and, on
every tick, walks the Python stack of the interrupted frame.  The
innermost frame that lives under ``src/repro/`` gives the sample's
*self* layer; every layer anywhere on the stack gets *inclusive* credit
once; a stack with no ``repro`` frame is *unattributed*.  Self shares
plus the unattributed share sum to 1 — the host-time analogue of the
obs ledger's accounting identity.

A sampler is used instead of ``cProfile`` because cProfile charges
every Python call (3.2x on the prototype, which skews toward ``des``,
the layer with the most calls); the sampler costs a stack walk per
4 ms tick.  Samples stay in memory until the pass ends.
"""

from __future__ import annotations

import os
import signal

#: The layers, in report order: the modules of ``src/repro`` with ``des``
#: split by file.
LAYERS = (
    "des.core", "des.process", "des.resources", "netsim", "messengers",
    "messengers.mcl", "mp", "gvt", "mailbox", "replication", "service",
    "resilience", "faults", "obs", "apps", "facade",
)

#: Entry under ``src/repro/`` -> layer.  Every directory and top-level
#: module must appear (``test_benchmark.py`` fails when a new one does
#: not); ``None`` marks code the benchmark never runs.
MODULE_LAYERS = {
    "des": "des.core",  # refined per file by FILE_LAYERS
    "netsim": "netsim",
    "messengers": "messengers",  # messengers/mcl refined below
    "mp": "mp",
    "gvt": "gvt",
    "mailbox": "mailbox",
    "replication": "replication",
    "service": "service",
    "resilience": "resilience",
    "faults": "faults",
    "obs": "obs",
    "perf": "obs",  # the trace hasher: instrumentation
    "apps": "apps",
    "facade.py": "facade",
    "__init__.py": "facade",
    "__main__.py": None,
    "cli.py": None,
    "bench": None,
}

#: Finer splits, by path prefix under ``src/repro/``.
FILE_LAYERS = {
    "des/process.py": "des.process",
    "des/resources.py": "des.resources",
    "messengers/mcl/": "messengers.mcl",
}

_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str):
    """Layer of a source file, or ``None`` when it is not ``repro``'s."""
    at = filename.rfind(_REPRO_MARK)
    if at < 0:
        return None
    relative = filename[at + len(_REPRO_MARK):].replace(os.sep, "/")
    for prefix, layer in FILE_LAYERS.items():
        if relative.startswith(prefix):
            return layer
    return MODULE_LAYERS.get(relative.split("/", 1)[0])


def attribute(filenames) -> tuple:
    """``(self_layer, inclusive_layers)`` for one stack, given its frames'
    file names innermost first."""
    self_layer = None
    inclusive = set()
    for filename in filenames:
        layer = layer_of(filename)
        if layer is None:
            continue
        if self_layer is None:
            self_layer = layer
        inclusive.add(layer)
    return self_layer, inclusive


class Sampler:
    """Context manager: sample the main thread's stack on CPU-time ticks."""

    #: Requested tick; the host delivers no finer than its own (~4 ms).
    INTERVAL_S = 0.001

    def __init__(self):
        self.samples = 0
        self.unattributed = 0
        self.self_counts = dict.fromkeys(LAYERS, 0)
        self.incl_counts = dict.fromkeys(LAYERS, 0)

    def _on_tick(self, signum, frame) -> None:
        self.record(_filenames(frame))

    def record(self, filenames) -> None:
        self_layer, inclusive = attribute(filenames)
        self.samples += 1
        if self_layer is None:
            self.unattributed += 1
            return
        self.self_counts[self_layer] += 1
        for layer in inclusive:
            self.incl_counts[layer] += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(
            signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S
        )
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def shares(self) -> dict:
        """``<layer>.self_share`` / ``.incl_share`` + ``trace.*``."""
        n = max(1, self.samples)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_share"] = self.self_counts[layer] / n
            out[f"{layer}.incl_share"] = self.incl_counts[layer] / n
        out["trace.unattributed_share"] = self.unattributed / n
        out["trace.samples"] = self.samples
        return out


def _filenames(frame):
    while frame is not None:
        yield frame.f_code.co_filename
        frame = frame.f_back
