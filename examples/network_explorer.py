"""Navigational programming on an irregular logical network.

The paper's §1 argues the logical network is an "exogenous skeleton":
a persistent structure that computations navigate.  This example builds
an irregular campus-like topology from a net_builder topology file,
then solves two classic distributed problems purely with navigation:

1. **flooding exploration** — a Messenger replicates over every link,
   marking nodes with their first-visit distance (a BFS tree in node
   variables, no central coordinator);
2. **leader election by rendezvous** — each site injects a candidate
   Messenger that virtual-hops to a well-known node; non-preemptive
   scheduling makes the election critical-section-free.

Run:  python examples/network_explorer.py
"""

import repro
from repro.messengers import Shell, build_from_text

CAMPUS = """
# an irregular campus network: three buildings, bridged
node gateway @ host0
node lab-a    @ host1
node lab-b    @ host1
node office-1 @ host2
node office-2 @ host2
node server   @ host3
node archive  @ host3

link gateway -- lab-a    : fiber
link gateway -- office-1 : fiber
link gateway -- server   : fiber
link lab-a   -- lab-b    : lan
link office-1 -- office-2 : lan
link server  -- archive  : lan
link lab-b   -- server   : bridge
link office-2 -- server  : bridge
"""

# After hop() each replica resumes at the top of the loop, one step
# deeper in the flood (hop replicates over *all* links; replicas landing
# on already-visited nodes return and cease).
EXPLORER_FULL = """
explore(dist) {
    while (1) {
        prev = node_get("distance", -1);
        if (prev != -1 && prev <= dist) {
            return;
        }
        node_set("distance", dist);
        record($node, dist);
        dist = dist + 1;
        hop();
    }
}
"""

CANDIDATE = """
candidate(site_id) {
    hop(ln = "gateway"; ll = virtual);
    best = node_get("leader", -1);
    if (best == -1 || site_id < best) {
        node_set("leader", site_id);
    }
}
"""


def main() -> None:
    # The facade owns the simulator and LAN; the net_builder service
    # grafts the campus topology onto its MESSENGERS runtime.
    c = repro.cluster(4)
    nodes = build_from_text(c.messengers, CAMPUS)

    distances = {}

    @c.messengers.natives.register
    def record(env, node_name, dist):
        distances[node_name] = min(
            dist, distances.get(node_name, float("inf"))
        )
        return 0

    print("topology: 7 nodes / 8 links over 4 hosts")
    print()

    # -- flooding exploration -------------------------------------------
    c.inject(EXPLORER_FULL, args=(0,), daemon="host0", node="gateway")
    c.run_to_quiescence()

    print("breadth-first distances from the gateway "
          "(computed by replicating Messengers):")
    for name in sorted(nodes):
        print(f"  {name:<10} distance {nodes[name].variables['distance']}")

    # -- leader election ---------------------------------------------------
    for site_id, (name, node) in enumerate(sorted(nodes.items())):
        if name == "gateway":
            continue
        c.inject(
            CANDIDATE, args=(site_id,), daemon=node.daemon, node=name
        )
    c.run_to_quiescence()
    print()
    print(f"leader elected at the gateway rendezvous: site "
          f"{nodes['gateway'].variables['leader']}")

    # -- inspect with the shell -----------------------------------------------
    shell = Shell(c.messengers)
    print()
    print("shell> stats")
    print(shell.execute("stats"))
    print(f"(simulated time {c.now * 1e3:.2f} ms)")


if __name__ == "__main__":
    main()
