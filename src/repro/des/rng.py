"""Deterministic random-number streams for simulations.

Each subsystem draws from its own named stream so that adding randomness
to one component never perturbs another ("variance reduction by common
random numbers").  All streams derive from a single root seed, so a whole
experiment is reproducible from one integer.
"""

from __future__ import annotations

import random
import zlib

__all__ = ["RngRegistry"]


class RngRegistry:
    """A factory of named, independent :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically.

        The per-stream seed mixes the root seed with a CRC of the name, so
        the same (root_seed, name) pair always yields the same sequence.
        """
        if name not in self._streams:
            mixed = (self.root_seed << 32) ^ zlib.crc32(name.encode("utf-8"))
            self._streams[name] = random.Random(mixed)
        return self._streams[name]

    def __repr__(self) -> str:
        return (
            f"<RngRegistry seed={self.root_seed} "
            f"streams={sorted(self._streams)}>"
        )
