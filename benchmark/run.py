"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace [0|1]] [--out FILE] [--repeats N]
    python3 benchmark/run.py --write-golden
    python3 benchmark/run.py --compare A.json B.json

Workloads run one after another, each in a fresh single-threaded
subprocess and never two at once.  Every metric is printed by name with
its unit; the last line of a single-workload run is the result object
``{"correct", "attempted", "failed", "metrics"}`` (the end-to-end
metrics, or with ``--trace`` the per-layer ones).  See README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time is counted from here

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")

DEFAULT_SEED = 0
#: A run sets up this many times, each in a fresh process, and reports
#: the median.
SETUP_SAMPLES = 3
MIN_REPEATS = 3
MIN_TRACE_SAMPLES = 500
CHILD_TIMEOUT_S = 170

#: The two exact end-to-end metrics.  BENCHMARK.json cannot carry them
#: (a metric there is never 0 and has a better direction), so they live
#: here; the result object carries them as ``failed`` / ``attempted`` /
#: ``correct`` and ``des.sim_seconds``.
EXACT_METRICS = [
    {"name": "sim_seconds", "unit": "sim_s", "better": "equal", "bound": 0},
    {"name": "ops_failed_share", "unit": "fraction", "better": "lower",
     "bound": 0},
]


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fastest(values) -> float:
    """The fastest repeat: the estimate of a repeat's cost on this host.

    A repeat is a deterministic single-threaded batch job, so whatever
    makes one repeat slower than another is the host, not the program.
    The authoring host drifts between two speeds ~35% apart in spells of
    seconds to minutes; over five 15 s windows of one workload the
    median repeat ranged 28%, the lower quartile 11%, the fastest 4%.
    The median and quartiles are printed beside it.
    """
    return min(values)


# -- the child: one workload, in this process --------------------------------


def first_difference(want: dict, got: dict) -> str:
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            return f"{key}: golden {want.get(key)!r}, got {got.get(key)!r}"
    return "no differing field"


class Verifier:
    """Checks every repeat against the golden results (default seed) or
    against the first repeat (any other seed), and tallies operations."""

    def __init__(self, workload: str, seed: int, golden: dict):
        self.reference = None
        self.source = "first repeat"
        if seed == DEFAULT_SEED and workload in golden.get("workloads", {}):
            self.reference = golden["workloads"][workload]
            self.source = "golden.json"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail_all(self, attempted: int, why: str) -> None:
        self.attempted += attempted
        self.failed += attempted
        if len(self.failures) < 5:
            self.failures.append(why)

    def run(self, fn):
        """One repeat through the checks; returns it, or None if it
        raised (then every operation of the repeat counts as failed)."""
        try:
            repeat = fn()
        except Exception as exc:  # the benchmark must report, not die
            expected = self.reference["attempted"] if self.reference else 1
            self._fail_all(expected, f"repeat raised {exc!r}")
            return None
        got = {
            "work": repeat.work,
            "attempted": repeat.attempted,
            "digest": repeat.digest(),
            "results": repeat.results,
        }
        if self.reference is None:
            self.reference = got
        want = self.reference
        if (got["digest"], got["work"]) != (want["digest"], want["work"]):
            why = first_difference(
                {"work": want["work"], **want["results"]},
                {"work": got["work"], **got["results"]},
            )
            self._fail_all(
                repeat.attempted, f"results differ from {self.source}: {why}"
            )
            return repeat
        self.attempted += repeat.attempted
        self.failed += repeat.failed
        for failure in repeat.failures:
            if len(self.failures) < 5:
                self.failures.append(failure)
        return repeat


def child_main(args) -> int:
    sys.path[:0] = [HERE, SRC]
    from workloads import WORKLOADS

    make_inputs, run, unit = WORKLOADS[args.workload]
    golden = {}
    if os.path.exists(GOLDEN) and args.child != "golden":
        with open(GOLDEN) as fh:
            golden = json.load(fh)
    verifier = Verifier(args.workload, args.seed, golden)

    inputs = make_inputs(args.seed)
    gc.collect()
    warm = verifier.run(lambda: run(inputs))  # fills caches; untimed
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "unit": unit,
        "setup_s": time.perf_counter() - _T0,
    }
    if args.child == "golden":
        record["golden"] = verifier.reference
    if args.child != "measure":
        print(json.dumps(record))
        return 0

    # With --trace the run's seconds are split between the untraced
    # repeats (the base of trace.overhead_x) and the sampled ones.
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, cpus = timed_repeats(
        lambda: verifier.run(lambda: run(inputs)), budget, args.repeats
    )
    record.update(
        walls=walls,
        cpus=cpus,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        work=verifier.reference["work"] if verifier.reference else 0,
        sim_seconds=warm.sim_seconds if warm else 0.0,
        digest=verifier.reference["digest"] if verifier.reference else "",
        checked_against=verifier.source,
    )
    if args.trace:
        record["per_layer"], record["info"] = traced_passes(
            lambda counted=False: verifier.run(lambda: run(inputs, counted)),
            fastest(walls), budget, args.repeats,
        )
    record.update(
        attempted=max(1, verifier.attempted),
        failed=verifier.failed,
        failures=verifier.failures,
    )
    print(json.dumps(record))
    return 0


def timed_repeats(one_repeat, seconds: float, repeats):
    """Wall and CPU seconds of each repeat, for ``seconds`` seconds (at
    least MIN_REPEATS repeats) or exactly ``repeats`` repeats."""
    walls, cpus = [], []
    started = time.perf_counter()
    while True:
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        one_repeat()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        if repeats:
            if len(walls) >= repeats:
                break
        elif (
            len(walls) >= MIN_REPEATS
            and time.perf_counter() - started >= seconds
        ):
            break
    return walls, cpus


def traced_passes(one_repeat, wall_s: float, seconds: float, repeats):
    """The per-layer numbers: a sampled pass, a counted pass, the probes.
    None of this is mixed into the timed repeats."""
    from probes import run_probes
    from sampler import Sampler

    sampler = Sampler()

    def sampled():
        with sampler:
            one_repeat()

    traced_walls: list[float] = []
    while not traced_walls or (
        sampler.samples < MIN_TRACE_SAMPLES and not repeats
    ):
        traced_walls += timed_repeats(sampled, seconds, repeats)[0]
    per_layer = sampler.shares()
    per_layer["trace.overhead_x"] = fastest(traced_walls) / wall_s

    gc.collect()
    counted = one_repeat(counted=True)
    info = {"trace_digest": ""}
    if counted is not None:  # else the verifier has failed the repeat
        counters = dict(counted.counters)
        info["trace_digest"] = counters.pop("trace_digest")
        events = counters["des.events"]
        per_layer.update(counters)
        per_layer["des.sim_seconds"] = counted.sim_seconds
        per_layer["des.events_per_work"] = events / counted.work
        per_layer["des.host_us_per_event"] = wall_s / events * 1e6
        per_layer["netsim.packets_per_work"] = (
            counters["netsim.packets"] / counted.work
        )
    per_layer.update(run_probes())
    return per_layer, info


# -- the parent: one child at a time -----------------------------------------


def spawn_child(args, workload: str, mode: str) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.repeats:
        command += ["--repeats", str(args.repeats)]
    env = dict(os.environ)
    # One thread, and no hash randomisation to perturb dict layouts.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, env=env,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(record: dict) -> dict:
    """The seven end-to-end metrics of one run."""
    wall_s = fastest(record["walls"])
    return {
        "setup_s": statistics.median(record["setups"]),
        "wall_s": wall_s,
        "cpu_s": fastest(record["cpus"]),
        "work_per_s": record["work"] / wall_s,
        "peak_rss_mb": record["peak_rss_mb"],
        "sim_seconds": record["sim_seconds"],
        "ops_failed_share": record["failed"] / record["attempted"],
    }


def spread_line(values) -> str:
    if len(values) < 2:
        return f"one repeat, {values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (
        f"min {min(values):.4f}  q1 {q1:.4f}  median {q2:.4f}  "
        f"q3 {q3:.4f}  max {max(values):.4f}"
    )


def run_workload(args, workload: str, spec: dict) -> dict:
    record = spawn_child(args, workload, "measure")
    setups = [record["setup_s"]]
    if not args.trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn_child(args, workload, "setup")["setup_s"])
    record["setups"] = setups

    print(
        f"== {workload}  seed {record['seed']}  {len(record['walls'])} "
        f"repeats of {record['work']} x {record['unit']}  "
        f"(results checked against {record['checked_against']})"
    )
    units = {
        m["name"]: m["unit"]
        for m in spec["end_to_end"] + EXACT_METRICS + spec["per_layer"]
    }
    metrics = end_to_end(record)
    for name, value in metrics.items():
        print(f"{name:<18} {value:>16.6f} {units[name]}")
    print(f"  set-ups: {' '.join(f'{s:.3f}' for s in setups)} s")
    print(f"  repeats, wall: {spread_line(record['walls'])}")
    print(f"  repeats, cpu:  {spread_line(record['cpus'])}")
    print(f"  results digest {record['digest']}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    if args.trace:
        print(f"-- per layer ({workload})")
        for name, value in record["per_layer"].items():
            print(f"{name:<40} {value:>18.6f} {units[name]}")
        print(f"  event-trace digest {record['info']['trace_digest']} "
              "(information only)")

    def with_units(values: dict, names) -> dict:
        return {
            name: {"value": values.get(name, 0.0), "unit": units[name]}
            for name in names
        }

    record["metrics"] = with_units(metrics, metrics)
    section = "per_layer" if args.trace else "end_to_end"
    record["result"] = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": with_units(
            record["per_layer"] if args.trace else metrics,
            [m["name"] for m in spec[section]],
        ),
    }
    return record


def write_golden(args, spec: dict) -> int:
    golden = {"seed": DEFAULT_SEED, "workloads": {}}
    args.seed = DEFAULT_SEED
    for workload in [w["name"] for w in spec["workloads"]]:
        record = spawn_child(args, workload, "golden")
        golden["workloads"][workload] = record["golden"]
        print(f"{workload}: digest {record['golden']['digest']}")
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# -- compare -----------------------------------------------------------------


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Per workload x end-to-end metric: both medians, the ratio with its
    base, the bound, and ok / worse / unresolved.  Non-zero on worse."""
    sets = []
    for path in (path_a, path_b):
        with open(path) as fh:
            runs = [r for r in json.load(fh)["runs"] if not r["trace"]]
        grouped: dict = {}
        for run in runs:
            for name, metric in run["metrics"].items():
                grouped.setdefault((run["workload"], name), []).append(
                    (run["seed"], metric["value"])
                )
        sets.append(grouped)
    a_set, b_set = sets
    worse = 0
    print(f"A = {path_a}\nB = {path_b}")
    print(
        f"{'workload':<12} {'metric':<17} {'A median':>12} {'B median':>12} "
        f"{'B/A':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict"
    )
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"] + EXACT_METRICS:
            key = (workload, metric["name"])
            if key not in a_set or key not in b_set:
                continue
            verdict, a_mid, b_mid, spreads = judge(
                a_set[key], b_set[key], metric
            )
            worse += verdict == "worse"
            ratio = f"{b_mid / a_mid:8.4f}" if a_mid else f"{'-':>8}"
            print(
                f"{workload:<12} {metric['name']:<17} {a_mid:>12.5g} "
                f"{b_mid:>12.5g} {ratio} {spreads[0]:>9.4f} "
                f"{spreads[1]:>9.4f} {metric['bound']:>6}  {verdict}"
                f"  (base A, n={len(a_set[key])}/{len(b_set[key])}, "
                f"{metric['unit']}, {metric['better']} is better)"
            )
    return 1 if worse else 0


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def judge(a_runs, b_runs, metric) -> tuple:
    """``*_runs`` are ``(seed, value)`` pairs of one workload x metric."""
    a, b = [v for _, v in a_runs], [v for _, v in b_runs]
    a_mid, b_mid = statistics.median(a), statistics.median(b)
    spreads = (spread(a), spread(b))
    better, bound = metric["better"], metric["bound"]
    if better == "equal":
        # Exact for a seed: every run of a seed, in both sets, must agree.
        by_seed: dict = {}
        for seed, value in a_runs + b_runs:
            by_seed.setdefault(seed, set()).add(value)
        shared = {s for s, _ in a_runs} & {s for s, _ in b_runs}
        if not shared:
            return "unresolved", a_mid, b_mid, spreads
        same = all(len(by_seed[seed]) == 1 for seed in shared)
        return ("ok" if same else "worse"), a_mid, b_mid, spreads
    if better == "lower":
        is_worse = b_mid > a_mid * (1 + bound) if a_mid else b_mid > 0
        all_better = max(b) < min(a)
    else:
        is_worse = b_mid < a_mid * (1 - bound)
        all_better = min(b) > max(a)
    if max(spreads) > bound and bound > 0 and not all_better:
        return "unresolved", a_mid, b_mid, spreads
    return ("worse" if is_worse else "ok"), a_mid, b_mid, spreads


# -- entry -------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report the per-layer metrics")
    parser.add_argument("--out", help="append the runs to this JSON file")
    parser.add_argument("--repeats", type=int, default=0,
                        help="exactly this many timed repeats (smoke runs)")
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", choices=("measure", "setup", "golden"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"benchmark: {SRC}/repro not found", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.write_golden:
        return write_golden(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            print(f"unknown workload {args.workload!r}; choose from "
                  f"{', '.join(names)}", file=sys.stderr)
            return 2
        names = [args.workload]
    records = [run_workload(args, name, spec) for name in names]
    if args.out:
        runs = []
        if os.path.exists(args.out):
            with open(args.out) as fh:
                runs = json.load(fh)["runs"]
        with open(args.out, "w") as fh:
            json.dump({"runs": runs + records}, fh)
    for record in records:
        print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
