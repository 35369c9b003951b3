"""Individual-based simulation on MESSENGERS (extension application).

The paper's §1 points at "individual-based systems, distributed
interactive simulations" as natural beneficiaries of the persistent
logical network, and §2.2 provides GVT as their synchronization
substrate.  This package exercises both beyond the paper's two
benchmarks: a grazing ecosystem on a toroidal logical network where
every creature is a Messenger — moving with directed hops, sharing
cell state through node variables, stepping in virtual-time lockstep,
starving, and spawning new Messengers at runtime.
"""

from .creatures import CREATURE_SCRIPT, run_swarm

__all__ = [
    "CREATURE_SCRIPT",
    "run_swarm",
]
