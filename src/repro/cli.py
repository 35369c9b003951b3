"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``shell [--hosts N]``
    Start an interactive MESSENGERS shell on a fresh simulated LAN.
``run SCRIPT.mcl [args ...] [--hosts N]``
    Inject an MCL script file and run to quiescence (prints logs,
    statistics and the final logical network).
``figure {4,5,6,7,12a,12b}``
    Regenerate one paper figure and print its table + ASCII chart.
``stats [--system messengers|pvm] [--image N] [--procs P]``
    Run the Figure-4 Mandelbrot workload with the observability layer
    attached: prints the per-category virtual-time cost breakdown
    (where did the time go — copies? wire? interpretation? compute?),
    the key counters, and writes a Chrome ``trace_event`` JSON
    (load it at ``chrome://tracing`` or https://ui.perfetto.dev).
``chaos [--seed N] [--loss R] [--crash-host H] [--detect D] [--json]``
    Run the Figure-4 Mandelbrot workload on both systems under a
    deterministic fault plan (packet loss + one mid-run worker-host
    crash) and print the recovery counters.  The image must come out
    bit-identical to the fault-free run on both systems; the counters
    are reproducible for a given ``--seed``.  ``--detect
    heartbeat|phi`` triggers recovery through a failure detector
    instead of the oracle crash hook; ``--json`` emits the report as
    JSON.  Exits non-zero if either system diverges.
``search [--system S] [--schedules N] [--depth D] [--json] [--out F]``
    Explore fault schedules (crash times x drop rates) against the
    Mandelbrot workload with :class:`repro.resilience.ScheduleSearcher`
    and shrink any violation to a minimal reproducer.  ``--out FILE``
    writes the JSON report — including the shrunk minimal FaultPlan,
    replayable via ``FaultPlan.from_dict`` — to disk.  Exits non-zero
    when a violation is found.
``bench {perf,faults,resilience,mailbox,conversations,service,scale,sweep} [--parallel N]``
    Run a benchmark suite and emit the JSON blob the committed
    ``BENCH_*.json`` files are made of (stdout, or ``--out FILE``).
    ``perf`` is the throughput report behind ``BENCH_perf.json``
    (its ``current`` section holds the microbenchmarks); ``faults`` /
    ``resilience`` regenerate the fault and resilience sweeps;
    ``mailbox`` measures mail delivery latency and throughput under
    churn and 5% loss (``BENCH_mailbox.json``); ``conversations``
    drives saga chains with compensation over replicated mailboxes
    through a partition and churn (``BENCH_conversations.json``:
    per-side goodput during the cut, convergence time after heal,
    anti-entropy overhead); ``service`` sweeps the
    open-loop service workload across offered load, faults, and churn
    on both systems (``BENCH_service.json``); and ``sweep`` runs the
    seed-replication demo experiment.  ``--parallel N`` fans
    independent replications out over an ``N``-process pool (``faults``
    and ``sweep``) — the output is identical to the serial run by
    construction.
``selftest``
    Run the repository's test suite plus the observability, fault-path
    and resilience overhead guards (requires pytest).
``info``
    Version, package inventory and cost-model summary.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

__all__ = ["main"]


def _cmd_shell(args) -> int:
    from .facade import Cluster
    from .messengers import Shell

    system = Cluster(args.hosts).messengers
    shell = Shell(system)
    print(
        f"MESSENGERS shell — {args.hosts} daemons on one simulated "
        "Ethernet.  Type 'help'; 'quit' exits."
    )
    shell.repl()
    return 0


def _cmd_run(args) -> int:
    from pathlib import Path

    from .facade import Cluster
    from .messengers import Shell

    path = Path(args.script)
    if not path.exists():
        print(f"error: no such script: {path}", file=sys.stderr)
        return 2
    system = Cluster(args.hosts).messengers
    shell = Shell(system)
    command = f"inject {path} " + " ".join(args.args)
    print(shell.execute(command.strip()))
    print(shell.execute("run"))
    for line in system.log_lines:
        print("log:", line)
    print(shell.execute("stats"))
    print(shell.execute("nodes"))
    return 0


def _cmd_figure(args) -> int:
    from . import bench

    name = args.which.lower()
    if name in ("4", "5", "6"):
        image = {"4": 320, "5": 640, "6": 1280}[name]
        processor_counts = (1, 2, 4, 8, 16, 32) if args.full else (1, 2, 8, 32)
        sweep = bench.run_figure(
            image, processor_counts=processor_counts
        )
        print(sweep.as_figure().render())
    elif name == "7":
        data = bench.best_case_comparison(1280, 8)
        print(
            bench.format_table(
                ["procs", "pvm_s", "messengers_s", "ratio"],
                [
                    [r["procs"], r["pvm_s"], r["messengers_s"], r["ratio"]]
                    for r in data["rows"]
                ],
                title=(
                    "Figure 7 (sequential = "
                    f"{data['sequential_s']:.2f}s)"
                ),
            )
        )
    elif name in ("12a", "12b"):
        if name == "12a":
            sweep = bench.run_block_size_sweep(
                2,
                bench.PAPER_BLOCK_SIZES_2X2 if args.full
                else (25, 50, 100, 200),
                cpu_scale=bench.FIG12A_CPU_SCALE,
            )
        else:
            sweep = bench.run_block_size_sweep(
                3,
                bench.PAPER_BLOCK_SIZES_3X3 if args.full
                else (10, 20, 50, 100),
                cpu_scale=bench.FIG12B_CPU_SCALE,
            )
        print(sweep.as_figure().render())
    else:
        print(f"error: unknown figure {args.which!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_stats(args) -> int:
    from .apps.mandelbrot.kernel import TaskGrid
    from .apps.mandelbrot.messengers_app import run_messengers
    from .apps.mandelbrot.pvm_app import run_pvm
    from .obs import (
        MetricsRegistry,
        cost_breakdown,
        dump_chrome_trace,
        format_breakdown,
        format_counters,
    )

    registry = MetricsRegistry(opcode_counts=args.opcodes)
    grid = TaskGrid(args.image, args.grid)
    runner = run_messengers if args.system == "messengers" else run_pvm
    result = runner(grid, args.procs, metrics=registry)

    # One cost-ledger timeline per host (manager + P workers) plus the
    # shared Ethernet segment.
    n_tracks = args.procs + 2
    breakdown = cost_breakdown(registry, result.seconds, n_tracks)
    print(
        format_breakdown(
            breakdown,
            title=(
                f"{args.system} mandelbrot {args.image}x{args.image} "
                f"({args.grid}x{args.grid} blocks, {args.procs} procs) — "
                f"{result.seconds:.4f} simulated seconds"
            ),
        )
    )
    print()
    print(format_counters(registry))
    events = dump_chrome_trace(registry, args.trace)
    print()
    print(f"chrome trace: {args.trace} ({events} events; open at "
          "chrome://tracing or https://ui.perfetto.dev)")
    return 0


def _cmd_chaos(args) -> int:
    import json

    from .apps.mandelbrot.kernel import TaskGrid
    from .apps.mandelbrot.messengers_app import run_messengers
    from .apps.mandelbrot.pvm_app import run_pvm
    from .faults import FaultPlan

    grid = TaskGrid(args.image, args.grid)
    crash_host = args.crash_host or f"host{min(2, args.procs)}"
    resilience = None
    if args.detect != "oracle":
        from .resilience import ResiliencePolicy

        resilience = ResiliencePolicy(detector=args.detect)
    report = {
        "image": args.image,
        "grid": args.grid,
        "procs": args.procs,
        "loss": args.loss,
        "crash_host": crash_host,
        "seed": args.seed,
        "detect": args.detect,
        "systems": {},
    }
    if not args.json:
        print(
            f"chaos: mandelbrot {args.image}x{args.image} "
            f"({args.grid}x{args.grid} blocks, {args.procs} procs), "
            f"loss={args.loss:g}, crash {crash_host} mid-run, "
            f"seed={args.seed}, recovery={args.detect}"
        )
    status = 0
    for label, runner in (
        ("messengers", run_messengers),
        ("pvm", run_pvm),
    ):
        clean = runner(grid, args.procs)
        plan = FaultPlan().drop(args.loss).crash(
            crash_host, at=0.5 * clean.seconds
        )
        faulty = runner(
            grid, args.procs, faults=plan, seed=args.seed,
            resilience=resilience,
        )
        identical = (
            faulty.image.shape == clean.image.shape
            and bool((faulty.image == clean.image).all())
        )
        report["systems"][label] = {
            "clean_s": clean.seconds,
            "faulty_s": faulty.seconds,
            "identical": identical,
            "faults": dict(sorted(faulty.stats["faults"].items())),
            **(
                {"resilience": faulty.stats["resilience"]}
                if "resilience" in faulty.stats else {}
            ),
        }
        if not args.json:
            verdict = "bit-identical" if identical else "DIVERGED"
            print()
            print(
                f"{label}: clean {clean.seconds:.4f}s -> "
                f"faulty {faulty.seconds:.4f}s, image {verdict}"
            )
            for name, value in sorted(faulty.stats["faults"].items()):
                print(f"  faults.{name:<28} {value}")
            if "resilience" in faulty.stats:
                stats = faulty.stats["resilience"]
                print(
                    f"  detector={stats['detector']} "
                    f"detections={stats['detections']} "
                    f"latency={stats['detection_latency_mean_s']:.4f}s "
                    f"false={stats['false_suspicions']}"
                )
        if not identical:
            status = 1
    report["status"] = status
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    return status


def _cmd_search(args) -> int:
    import json

    from .apps.mandelbrot.kernel import TaskGrid
    from .apps.mandelbrot.messengers_app import run_messengers
    from .apps.mandelbrot.pvm_app import run_pvm
    from .resilience import InvariantViolation, ScheduleSearcher

    grid = TaskGrid(args.image, args.grid)
    runner_fn = run_messengers if args.system == "messengers" else run_pvm
    clean = runner_fn(grid, args.procs)

    def runner(plan, seed):
        try:
            result = runner_fn(grid, args.procs, faults=plan, seed=seed)
        except ValueError as exc:
            # e.g. image assembly with missing blocks: the run failed
            # to produce a result at all.
            raise InvariantViolation("run-completes", str(exc), 0.0) from exc
        identical = (
            result.image.shape == clean.image.shape
            and bool((result.image == clean.image).all())
        )
        if not identical:
            raise InvariantViolation(
                "image-identity",
                "faulty image diverged from the fault-free run",
                result.seconds,
            )

    # host0 carries the manager/central node; by design the workloads
    # cannot survive losing it, so it only joins the crash vocabulary
    # when the user explicitly asks to hunt that class of violation.
    first_worker = 0 if args.include_manager else 1
    hosts = [f"host{i}" for i in range(first_worker, args.procs + 1)]
    searcher = ScheduleSearcher(
        runner, hosts, clean.seconds, seed=args.seed,
        loss_rates=(args.loss,) if args.loss > 0 else (),
    )
    report = searcher.search(
        max_schedules=args.schedules, max_depth=args.depth
    )
    report["system"] = args.system
    if args.out:
        from pathlib import Path

        # The shrunk minimal reproducer (when a violation was found) is
        # the payload worth keeping: report["minimal"]["plan"] is a
        # FaultPlan.to_dict() that FaultPlan.from_dict() replays
        # verbatim with report["minimal"]["seed"].
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"search: {args.system} mandelbrot {args.image}x{args.image}, "
            f"{report['schedules_run']} schedule(s) over "
            f"{report['atom_vocabulary']} atoms"
        )
        if report["clean"]:
            print("no violations found")
        else:
            for violation in report["violations"]:
                print(f"VIOLATION {violation['error']}: "
                      f"{violation['message']}")
                for atom in violation["atoms"]:
                    print(f"  atom: {atom}")
            if report["minimal"] is not None:
                print("minimal reproducer "
                      f"(seed={report['minimal']['seed']}):")
                for atom in report["minimal"]["atoms"]:
                    print(f"  atom: {atom}")
    return 0 if report["clean"] else 1


def _cmd_bench(args) -> int:
    import json

    from . import bench

    if args.which == "perf":
        blob = bench.run_perf_report(
            scale=args.scale,
            repeats=args.repeats,
            figures=not args.no_figures,
        )
    elif args.which == "faults":
        blob = bench.run_loss_sweep(processes=args.parallel)
    elif args.which == "resilience":
        blob = {
            "detection": bench.run_detection_sweep(),
            "recovery": bench.run_recovery_comparison(),
        }
    elif args.which == "mailbox":
        blob = bench.run_mailbox_bench(repeats=args.repeats)
    elif args.which == "conversations":
        blob = bench.run_conversations_bench(repeats=args.repeats)
    elif args.which == "service":
        blob = bench.run_service_bench(repeats=args.repeats)
    elif args.which == "scale":
        blob = bench.run_scale_bench(
            factors=args.factors, repeats=args.repeats
        )
    else:  # sweep
        blob = bench.seed_sweep_experiment().run(processes=args.parallel)
    text = json.dumps(blob, indent=2, sort_keys=True)
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_selftest(args) -> int:
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    targets = [str(root / "tests")]
    for guard_name in (
        "test_obs_overhead.py",
        "test_faults_overhead.py",
        "test_resilience_overhead.py",
        "test_mailbox_overhead.py",
    ):
        guard = root / "benchmarks" / guard_name
        if guard.exists():
            targets.append(str(guard))
    command = [sys.executable, "-m", "pytest", "-q", *targets]
    print("selftest:", " ".join(command))
    return subprocess.call(command, cwd=root)


def _cmd_info(args) -> int:
    import repro
    from .netsim import DEFAULT_COSTS

    print(f"repro {repro.__version__} — reproduction of "
          "'Messages versus Messengers in Distributed Programming'")
    print()
    print("packages: des netsim mp messengers(+mcl) gvt apps bench")
    print()
    print("cost model (virtual-time charges):")
    for field_info in fields(DEFAULT_COSTS):
        value = getattr(DEFAULT_COSTS, field_info.name)
        if isinstance(value, float):
            print(f"  {field_info.name:<28} {value:g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shell = sub.add_parser("shell", help="interactive MESSENGERS shell")
    shell.add_argument("--hosts", type=int, default=4)
    shell.set_defaults(func=_cmd_shell)

    run = sub.add_parser("run", help="inject an MCL script file and run")
    run.add_argument("script")
    run.add_argument("args", nargs="*")
    run.add_argument("--hosts", type=int, default=4)
    run.set_defaults(func=_cmd_run)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("which", choices=["4", "5", "6", "7", "12a", "12b"])
    figure.add_argument("--full", action="store_true",
                        help="paper-scale parameter ranges")
    figure.set_defaults(func=_cmd_figure)

    stats = sub.add_parser(
        "stats",
        help="cost breakdown + Chrome trace for the Fig-4 workload",
    )
    stats.add_argument(
        "--system", choices=["messengers", "pvm"], default="messengers"
    )
    stats.add_argument("--image", type=int, default=320,
                       help="image size in pixels (default 320, Fig 4)")
    stats.add_argument("--grid", type=int, default=8,
                       help="task grid side (default 8 -> 64 blocks)")
    stats.add_argument("--procs", type=int, default=4,
                       help="worker processors (default 4)")
    stats.add_argument("--opcodes", action="store_true",
                       help="also count VM instructions per opcode "
                            "(runs the reference interpreter loop)")
    stats.add_argument("--trace", default="mandelbrot_trace.json",
                       help="Chrome trace output path")
    stats.set_defaults(func=_cmd_stats)

    chaos = sub.add_parser(
        "chaos",
        help="Fig-4 workload under packet loss + a worker crash",
    )
    chaos.add_argument("--seed", type=int, default=7,
                       help="fault-plan seed (default 7)")
    chaos.add_argument("--loss", type=float, default=0.05,
                       help="packet drop probability (default 0.05)")
    chaos.add_argument("--crash-host", default=None,
                       help="host to crash mid-run (default: a worker)")
    chaos.add_argument("--image", type=int, default=64,
                       help="image size in pixels (default 64)")
    chaos.add_argument("--grid", type=int, default=4,
                       help="task grid side (default 4 -> 16 blocks)")
    chaos.add_argument("--procs", type=int, default=3,
                       help="worker processors (default 3)")
    chaos.add_argument("--detect", choices=["oracle", "heartbeat", "phi"],
                       default="oracle",
                       help="recovery trigger: oracle hook (default) or a "
                            "failure detector from repro.resilience")
    chaos.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")
    chaos.set_defaults(func=_cmd_chaos)

    search = sub.add_parser(
        "search",
        help="search fault schedules for violations, shrink reproducers",
    )
    search.add_argument(
        "--system", choices=["messengers", "pvm"], default="messengers"
    )
    search.add_argument("--schedules", type=int, default=50,
                        help="schedule budget (default 50)")
    search.add_argument("--depth", type=int, default=2,
                        help="max atoms per DFS schedule (default 2)")
    search.add_argument("--seed", type=int, default=0,
                        help="seed for the random-restart phase")
    search.add_argument("--loss", type=float, default=0.05,
                        help="drop rate atom (default 0.05; 0 disables)")
    search.add_argument("--image", type=int, default=64,
                        help="image size in pixels (default 64)")
    search.add_argument("--grid", type=int, default=4,
                        help="task grid side (default 4 -> 16 blocks)")
    search.add_argument("--procs", type=int, default=3,
                        help="worker processors (default 3)")
    search.add_argument("--include-manager", action="store_true",
                        help="let the searcher crash host0 too (the "
                             "manager host; finds a known violation)")
    search.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report")
    search.add_argument("--out", default=None,
                        help="write the JSON report (including the "
                             "shrunk minimal FaultPlan reproducer, if "
                             "any) to this path")
    search.set_defaults(func=_cmd_search)

    bench = sub.add_parser(
        "bench",
        help="benchmark suites -> BENCH_*.json blobs",
    )
    bench.add_argument(
        "which",
        choices=[
            "perf", "faults", "resilience", "mailbox",
            "conversations", "service", "scale", "sweep",
        ],
    )
    bench.add_argument("--factors", type=int, nargs="+", default=None,
                       help="scale: subset of grid factors to run "
                            "(default: the full 1..1000x sweep)")
    bench.add_argument("--parallel", type=int, default=1,
                       help="replication pool size (faults/sweep; "
                            "default 1 = serial)")
    bench.add_argument("--scale", type=float, default=1.0,
                       help="microbenchmark iteration scale (default 1.0)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="best-of repeats per probe (default 3)")
    bench.add_argument("--no-figures", action="store_true",
                       help="perf: skip the end-to-end figure sweeps")
    bench.add_argument("--out", default=None,
                       help="write the JSON blob here instead of stdout")
    bench.set_defaults(func=_cmd_bench)

    selftest = sub.add_parser(
        "selftest",
        help="run the test suite + obs/faults/resilience overhead guards",
    )
    selftest.set_defaults(func=_cmd_selftest)

    info = sub.add_parser("info", help="version and cost model")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
