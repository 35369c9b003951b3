"""Typed pack/unpack buffers, after PVM's ``pvm_pk*``/``pvm_upk*``.

PVM programs marshal every outgoing message into a send buffer and
unmarshal it on receipt — two memory copies per message that the paper
identifies as a key cost message-passing pays and MESSENGERS does not
(§2.1).  The buffer records exactly how many bytes were copied so the
task layer can charge ``pack_cost_per_byte_s`` / ``unpack_cost_per_byte_s``
of CPU time.

Numpy arrays are "packed" by reference but still *charged* for their full
byte size, mirroring how PVM copies array contents into its buffer.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

__all__ = ["PackBuffer", "UnpackBuffer", "estimate_size"]

_SCALAR_BYTES = 8  # ints and doubles on the simulated platform


#: Exact-type sizes of the fixed-width values; subclasses (numpy
#: scalars, enums) take the isinstance chain and get the same answers.
_FIXED_BYTES = {type(None): 0, bool: 1}
_FIXED_BYTES.update(dict.fromkeys((int, float, complex), _SCALAR_BYTES))


def estimate_size(value: Any) -> int:
    """Wire size, in bytes, of an arbitrary payload object.

    Used by convenience APIs that send Python objects directly; explicit
    :class:`PackBuffer` use gives byte-exact accounting.
    """
    size = _FIXED_BYTES.get(type(value))
    if size is not None:
        return size
    if isinstance(value, dict):
        # Messenger state (str keys, mostly scalar values) is sized
        # again on every hop: count those here, not by a call each.
        fixed = _FIXED_BYTES.get
        total = 0
        for key, item in value.items():
            if type(key) is str and key.isascii():
                total += len(key)
            else:
                total += estimate_size(key)
            size = fixed(type(item))
            total += estimate_size(item) if size is None else size
        return total
    if isinstance(value, (int, float, complex)):
        return _SCALAR_BYTES
    if isinstance(value, (np.ndarray, np.generic)):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(estimate_size(item) for item in value)
    # Fallback: a couple of words of header for opaque objects.
    return 16


class PackBuffer:
    """An outgoing message under construction.

    Mirrors ``pvm_initsend`` + a sequence of ``pvm_pk*`` calls::

        buf = PackBuffer()
        buf.pack_int(block_id)
        buf.pack_array(pixels)
        yield from ctx.send(dst, buf)
    """

    def __init__(self):
        self._items: list[Any] = []
        self._bytes: int = 0

    # -- packers ------------------------------------------------------------

    def pack_int(self, value: int) -> "PackBuffer":
        """Pack one integer."""
        self._items.append(int(value))
        self._bytes += _SCALAR_BYTES
        return self

    def pack_double(self, value: float) -> "PackBuffer":
        """Pack one double."""
        self._items.append(float(value))
        self._bytes += _SCALAR_BYTES
        return self

    def pack_string(self, value: str) -> "PackBuffer":
        """Pack a character string."""
        self._items.append(str(value))
        self._bytes += len(value.encode("utf-8")) + _SCALAR_BYTES
        return self

    def pack_bytes(self, value: bytes) -> "PackBuffer":
        """Pack raw bytes."""
        self._items.append(bytes(value))
        self._bytes += len(value)
        return self

    def pack_array(self, value: "np.ndarray") -> "PackBuffer":
        """Pack a numpy array (contents charged byte-for-byte)."""
        array = np.asarray(value)
        self._items.append(array)
        self._bytes += int(array.nbytes)
        return self

    def pack_ints(self, values: Iterable[int]) -> "PackBuffer":
        """Pack a sequence of integers."""
        items = [int(v) for v in values]
        self._items.append(items)
        self._bytes += _SCALAR_BYTES * len(items)
        return self

    def pack_object(self, value: Any) -> "PackBuffer":
        """Pack an arbitrary object, charging its estimated size."""
        self._items.append(value)
        self._bytes += estimate_size(value)
        return self

    # -- inspection ------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total bytes that will be copied on send."""
        return self._bytes

    @property
    def items(self) -> Sequence[Any]:
        return tuple(self._items)

    def __len__(self) -> int:
        return len(self._items)


class UnpackBuffer:
    """A received message being consumed in pack order.

    Mirrors ``pvm_upk*``: items must be unpacked in the order they were
    packed; unpacking past the end raises :class:`IndexError`.
    """

    def __init__(self, items: Sequence[Any], nbytes: int):
        self._items = list(items)
        self._cursor = 0
        self.nbytes = nbytes

    def _next(self) -> Any:
        if self._cursor >= len(self._items):
            raise IndexError("unpack past end of message buffer")
        item = self._items[self._cursor]
        self._cursor += 1
        return item

    def unpack_int(self) -> int:
        """Unpack one integer."""
        return int(self._next())

    def unpack_double(self) -> float:
        """Unpack one double."""
        return float(self._next())

    def unpack_string(self) -> str:
        """Unpack a string."""
        return str(self._next())

    # pvm_upkbyte: the PVM API pairs it with pack_bytes.
    def unpack_bytes(self) -> bytes:
        """Unpack raw bytes."""
        return bytes(self._next())

    def unpack_array(self) -> "np.ndarray":
        """Unpack a numpy array."""
        return np.asarray(self._next())

    def unpack_ints(self) -> list[int]:
        """Unpack an integer sequence."""
        return list(self._next())

    def unpack_object(self) -> Any:
        """Unpack an arbitrary object."""
        return self._next()

    @property
    def remaining(self) -> int:
        """Number of items not yet unpacked."""
        return len(self._items) - self._cursor
