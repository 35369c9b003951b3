"""Whoever holds a simulation object owns it.

The kernel, the transport and the MESSENGERS system allocate a fresh
``Timeout`` per delay, a fresh ``Packet`` per send and a fresh
``Messenger`` per injection, and never hand a spent one out again.  So
a reference kept past the object's useful life — a fired timeout, a
delivered packet, a Messenger that finished under
``retain_finished=False`` — still reads exactly what it read then, no
matter how much traffic runs afterwards, and Messenger ids keep coming
from one counter with no gaps and no reuse.
"""

import dataclasses

from repro.des import Simulator
from repro.messengers import Daemon, MessengersSystem, build_ring
from repro.messengers.messenger import Messenger
from repro.netsim import Packet, build_lan

WALKER = """
walker(steps) {
    for (k = 0; k < steps; k++) {
        hop(ll = "ring"; ldir = +);
    }
}
"""

TIMEOUT_FIELDS = ("sim", "callbacks", "_value", "_ok", "delay", "daemon")
PACKET_FIELDS = tuple(f.name for f in dataclasses.fields(Packet))


def _snapshot(obj, names):
    return {name: getattr(obj, name) for name in names}


def _assert_unchanged(obj, snapshot):
    for name, value in snapshot.items():
        assert getattr(obj, name) is value, f"{type(obj).__name__}.{name}"


def test_held_objects_survive_later_traffic():
    sim = Simulator()
    network = build_lan(sim, 2)
    system = MessengersSystem(network)
    system.retain_finished = False
    ring = build_ring(system, 4)  # striped: every hop is remote
    program = system.compile(WALKER)

    # A fired timeout.
    marker = object()
    timeout = sim.timeout(0.5, value=marker)
    sim.run()
    assert timeout.processed and timeout.value is marker
    timeout_fields = _snapshot(timeout, TIMEOUT_FIELDS)

    # A Messenger that finished (after remote hops) and was not
    # archived, and the first packet delivered to a daemon port on its
    # way — taken as the port receives it, so the test holds the very
    # object the daemon's arrival pump consumed.
    port = network.host("host1").port(Daemon.port_name)
    delivered = []
    for verb in ("push", "put"):
        handover = getattr(port, verb)
        setattr(port, verb, lambda item, _handover=handover: (
            delivered.append(item), _handover(item))[1])
    finished = system.inject(program, (3,), daemon="host0", node="n0")
    system.run_to_quiescence()
    assert not finished.alive and finished.id not in system.messengers
    packet = delivered[0]
    assert packet.payload == ("messenger", finished)

    packet_fields = _snapshot(packet, PACKET_FIELDS)
    messenger_fields = _snapshot(finished, Messenger.__slots__)
    variables = dict(finished.variables)
    frame_state = (finished.frame.pc, list(finished.frame.stack))

    # Enough further timeouts (a burst of 64 outstanding at once),
    # packets and finished Messengers that any free-list would have
    # handed these objects out again.
    for index in range(64):
        sim.timeout(0.001 * index)
    walkers = 40
    for index in range(walkers):
        name = f"n{index % len(ring)}"
        system.inject(program, (5,), daemon=ring[name].daemon, node=name)
    system.run_to_quiescence()
    assert sum(
        d.stats.hops_out_remote for d in system.daemons.values()
    ) == 3 + walkers * 5

    _assert_unchanged(timeout, timeout_fields)
    _assert_unchanged(packet, packet_fields)
    _assert_unchanged(finished, messenger_fields)
    assert finished.variables == variables
    assert (finished.frame.pc, finished.frame.stack) == frame_state
    assert packet.payload == ("messenger", finished)

    nxt = system.inject(program, (1,), daemon="host0", node="n0")
    assert nxt.id == finished.id + walkers + 1
