"""Quickstart: your first Messengers on a simulated cluster.

Builds a 4-workstation LAN with the one-call facade, and injects two
Messengers:

1. ``hello`` — clones itself onto every neighbouring daemon with
   ``create(ALL)`` and reports where it landed;
2. ``collector`` — injected *afterwards*, it navigates the logical
   network the first Messenger left behind (the network is persistent!)
   and gathers the greetings into the central node's variables.

Run:  python examples/quickstart.py
"""

import repro


def main() -> None:
    # 1. The whole platform in one call: four simulated workstations on
    #    one shared Ethernet, a daemon on each, an `init` logical node
    #    per daemon, and a native-function registry.  (The long form —
    #    Simulator + build_lan + MessengersSystem — still works and is
    #    what the benchmarks use.)
    c = repro.cluster(4)

    # 2. Native-mode functions are plain Python callables.
    @c.messengers.natives.register
    def greet(env):
        env.node_vars["greeting"] = f"hello from {env.daemon.name}"
        return 0

    @c.messengers.natives.register
    def collect(env, text):
        env.node_vars.setdefault("greetings", []).append(text)
        return 0

    # 3. Inject a Messenger written in MCL (the paper's C-subset).
    #    create(ALL) replicates it into a new logical node on every
    #    neighbouring daemon, connected back to init by an unnamed link.
    c.inject(
        """
        hello() {
            create(ALL);
            greet();
            M_log("arrived at", $address);
        }
        """,
        daemon="host0",
    )
    c.run_to_quiescence()

    print("--- hello messengers ---")
    for line in c.messengers.log_lines:
        print(line)

    # 4. The logical network persists after its creators terminated.
    #    A second Messenger walks the same links: out over every spoke
    #    (replicating 3-ways), then home along $last to deliver.
    c.inject(
        """
        collector() {
            hop();                  /* fan out over all links */
            msg = node_get("greeting", "");
            hop(ll = $last);        /* back to init */
            collect(msg);
        }
        """,
        daemon="host0",
    )
    c.run_to_quiescence()

    central = c.messengers.daemon("host0").init_node
    print("--- collected at", central.display_name, "on host0 ---")
    for text in sorted(central.variables["greetings"]):
        print(" ", text)

    print(f"--- {c.messengers.logical.node_count()} logical nodes, "
          f"simulated time {c.now * 1e3:.2f} ms ---")


if __name__ == "__main__":
    main()
