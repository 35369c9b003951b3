"""Driving MESSENGERS from the command shell (§1: "injected by the user
from the outside (the command shell) at runtime").

Replays a scripted interactive session against a live system: choosing
injection daemons, injecting inline Messengers, inspecting the logical
network, Messenger population, per-daemon statistics and virtual time.

Run:  python examples/shell_session.py
Pass ``-i`` for a real interactive prompt afterwards.
"""

import sys

import repro
from repro.messengers import Shell

SESSION = """
help
nodes
inject! { builder() { create(ln = "work-a", "work-b"; ll = "spoke", "spoke"); } }
run
nodes
links
at host2
inject! { pinger(n) { for (k = 0; k < n; k++) { hop(ln = init; ll = virtual); hop(ln = "work-a"; ll = virtual); } } } 3
messengers
run
stats
inject! { sleeper() { M_sched_time_abs(10); M_log("woke at gvt", $gvt); } }
gvt
run
gvt
"""


def main() -> None:
    c = repro.cluster(3)
    shell = Shell(c.messengers)

    for line in SESSION.strip().splitlines():
        print(f"messengers[{shell.current_daemon}]> {line}")
        output = shell.execute(line)
        if output:
            print(output)
        print()

    for line in c.messengers.log_lines:
        print("log:", line)

    if "-i" in sys.argv:  # pragma: no cover - interactive
        shell.repl()


if __name__ == "__main__":
    main()
