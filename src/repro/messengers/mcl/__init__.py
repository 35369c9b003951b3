"""MCL — the Messenger Control Language.

The C-subset scripting language Messengers are written in (§2.1 of the
paper): lexer → parser → bytecode compiler → stack-VM interpreter, plus
the command objects through which the VM talks to its daemon.

Two execution backends share the bytecode:

* :mod:`.closures` — compiles each program once into **one** Python
  function: basic blocks (split at hop/create/delete/sched/jump
  boundaries) fused into superinstructions, stitched together as
  structured ``if``/``else`` and ``while True:`` loops, with an
  ``index`` dispatch left only at resumption points.  Hop-free loops
  without native calls or network-variable reads keep their
  variables in Python locals.  Every daemon runs it.
* :mod:`.vm` — the integer-opcode interpreter, kept as the reference
  implementation the closures backend is tested against.  It is the one
  loop that interprets one instruction at a time, so it is also the one
  that counts opcodes: a slice that asks for per-opcode counts runs
  through it under either backend.

The two are bit-identical by contract — same ``Command`` stream, same
per-yield ``instructions`` counts, same frame state, same golden trace
digests.  Tests swap the daemons' entry point through the one seam,
:data:`repro.messengers.daemon.VM_RUN`.
"""

from .ast import Script
from .bytecode import (
    Command,
    CreateCommand,
    DeleteCommand,
    DoneCommand,
    HopCommand,
    Program,
    SchedCommand,
)
from .compiler import compile_source
from .parser import parse
from .vm import Frame, MclRuntimeError, run

__all__ = [
    "Command",
    "CreateCommand",
    "DeleteCommand",
    "DoneCommand",
    "Frame",
    "HopCommand",
    "MclRuntimeError",
    "Program",
    "SchedCommand",
    "Script",
    "compile_source",
    "parse",
    "run",
]
