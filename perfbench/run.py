"""gframemod benchmark: one closed-loop client driving the CLI in process.

    python3 perfbench/run.py --workload small-docs --seed 1 --seconds 25 --trace 0

Set-up generates the workload's documents from the seed and runs one
warm-up cycle.  The timed part then repeats the same fixed cycle of CLI
invocations (`gframemod.cli.main(argv)`, each writing its report with
`--output` into a scratch directory; the next starts only after the previous
returns) for `--seconds`.  Every report is checked against an independent
numpy oracle and must repeat the warm-up's bytes exactly.

`--trace 0` prints the end-to-end metrics: per-command seconds per cycle
(the sum of each invocation's median over cycles), invocations per second,
the process's peak RSS, and the set-up time (median of three set-ups, two
of them in fresh processes).
Every time is scaled by a reference kernel timed around it (see
`reference.py`), so that the machine's own changes of speed cancel out.
`--trace 1` alternates untraced and traced cycles and prints the per-layer
metrics from the traced ones (median over cycles) with the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Only the standard library
is imported before set-up starts timing.  BLAS runs on one thread, the
same thread as the client and the reference kernel.
"""

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from typing import NamedTuple

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
COMMANDS = ("analyze", "represent", "independence", "perturb", "gen")
END_TO_END_UNITS = {
    **{f"{c}_s": "s" for c in COMMANDS},
    "reports_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Result(NamedTuple):
    rc: int
    seconds: float
    data: bytes  # the report (or generated document), None when none was written
    scaled: float = None  # seconds scaled by the reference kernel, in calibrated cycles


def import_program():
    """The `gframemod.cli` module of this checkout's `src/`, never another.

    Callers look `main` up on the module at every call, so that the traced
    run's rebinding of `cli.main` takes effect."""
    if not os.path.isfile(os.path.join(SRC, "gframemod", "cli.py")):
        raise SystemExit(f"perfbench: no gframemod sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from gframemod import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: gframemod imported from {cli.__file__}, not {SRC}")
    return cli


def run_invocation(cli, inv, tracer=None) -> Result:
    with contextlib.suppress(FileNotFoundError):
        os.unlink(inv.output)
    if tracer is not None:
        tracer.begin_invocation(inv.command)
    with contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        rc = cli.main(list(inv.argv))
        seconds = time.perf_counter() - start
    try:
        with open(inv.output, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        data = None
    return Result(rc, seconds, data)


def run_cycle(cli, plan, tracer=None, calibrated=False) -> list:
    """One result per invocation of `plan`.  A calibrated cycle also samples
    the reference kernel before every invocation and after the last one, and
    fills in each result's `scaled` seconds from the two samples around it."""
    if not calibrated:
        return [run_invocation(cli, inv, tracer) for inv in plan]
    import reference  # imports numpy; kept out of the timed set-up

    samples = [reference.sample()]
    results = []
    for inv in plan:
        results.append(run_invocation(cli, inv, tracer))
        samples.append(reference.sample())
    return [r._replace(scaled=reference.scale(r.seconds, before, after))
            for r, before, after in zip(results, samples, samples[1:])]


def set_up(w, seed: int, workdir: str, calibrated=False):
    """Import the program, write the documents, run one warm-up cycle.

    Returns (the cli module, cycle plan, warm-up results, seconds taken).
    Calibrated, the seconds are scaled by the reference kernel part by part:
    the import by samples right after it (the kernel needs numpy, whose first
    import is part of set-up), the documents by samples on both sides, and
    each warm-up invocation by the samples around it.  The samples' own time
    is left out."""
    start = time.perf_counter()
    cli = import_program()
    import_s = time.perf_counter() - start
    if calibrated:
        import reference

        after_import = reference.settle()
    docs_start = time.perf_counter()
    workloads.write_documents(cli.main, w, seed, workdir)
    plan = workloads.cycle(w, seed, workdir)
    docs_s = time.perf_counter() - docs_start
    if not calibrated:
        warm = run_cycle(cli, plan)
        return cli, plan, warm, time.perf_counter() - start
    after_docs = reference.settle()
    warm = run_cycle(cli, plan, calibrated=True)
    seconds = (reference.scale(import_s, after_import, after_import)
               + reference.scale(docs_s, after_import, after_docs)
               + sum(r.scaled for r in warm))
    return cli, plan, warm, seconds


def probe_set_up(w, seed: int) -> list:
    """Scaled set-up times of fresh processes, SETUP_REPEATS - 1 of them in turn."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--setup-probe", workdir,
                 "--workload", w.name, "--seed", str(seed)],
                cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
            times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return times


# ---------------------------------------------------------------------------
# correctness


def verdicts(w, seed: int, plan, warm) -> dict:
    """Oracle mismatches of every warm-up result, by invocation key."""
    import oracle  # imports numpy; kept out of the timed set-up

    return {inv.key: oracle.check(inv, res.rc, res.data, seed,
                                  workloads.gen_seed(seed, inv.kind))
            for inv, res in zip(plan, warm)}


def count_failures(plan, warm, cycles, problems) -> int:
    """Timed invocations whose exit code or bytes differ from the warm-up's,
    or whose warm-up report the oracle rejected."""
    failed = 0
    for results in cycles:
        for inv, ref, res in zip(plan, warm, results):
            if problems[inv.key] or res.rc != ref.rc or res.data != ref.data:
                failed += 1
    return failed


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """(p, value) for the highest whole percentile with at least ten samples
    beyond it (nearest rank), or None when there are fewer than 11."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def describe(name: str, values, unit: str) -> str:
    t = tail(values)
    spread = f"p{t[0]} {t[1]:.6g}" if t else "no percentile has 10 samples beyond it"
    return f"  {name:<34} {statistics.median(values):>12.6g} {unit:<6} " \
           f"median of {len(values)}; {spread}"


def machine_info() -> str:
    import numpy

    blas = "unknown BLAS"
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        get_config = getattr(lib, "scipy_openblas_get_config64_", None)
        if get_threads is not None and get_config is not None:
            get_config.restype = ctypes.c_char_p
            blas = f"{get_config().decode().split(' ')[1]} OpenBLAS, {get_threads()} threads"
    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, {blas}")


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_cycles(cli, plan, warm, seconds: float, tracers=(None,), calibrated=False) -> list:
    """Run cycles until `seconds` are used up, cycling through `tracers`
    (None means untraced; untraced cycles are calibrated when asked).
    Returns [(tracer, results, (spans, counts) or None)] in run order.

    A report that repeats its warm-up bytes keeps the warm-up's copy, so the
    run holds one copy of each report however many cycles it makes, and
    `peak_rss_mb` does not grow with the machine's speed.

    A new cycle starts only when it is expected to end before the deadline
    plus half a cycle, and every tracer gets at least one cycle."""
    done = []
    start = time.perf_counter()
    while True:
        tracer = tracers[len(done) % len(tracers)]
        if tracer is None:
            results = run_cycle(cli, plan, calibrated=calibrated)
        else:
            with tracer.installed():
                results = run_cycle(cli, plan, tracer)
        results = [r._replace(data=ref.data) if r.data == ref.data else r
                   for r, ref in zip(results, warm)]
        done.append((tracer, results, tracer.take() if tracer else None))
        elapsed = time.perf_counter() - start
        if len(done) >= len(tracers) and elapsed + 0.5 * elapsed / len(done) >= seconds:
            return done


def end_to_end(w, seed: int, seconds: float):
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT)
    try:
        cli, plan, warm, setup_s = set_up(w, seed, workdir, calibrated=True)
        setup_times = [setup_s] + probe_set_up(w, seed)
        problems = verdicts(w, seed, plan, warm)
        cycles = [results for _, results, _ in
                  timed_cycles(cli, plan, warm, seconds, calibrated=True)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import reference

    def per_cycle(command, field):
        return [sum(getattr(r, field) for inv, r in zip(plan, results) if inv.command == command)
                for results in cycles]

    def per_invocation_medians(command):
        """The cycle's invocations of `command`, each its median over cycles.
        Their sum is steadier than the median of per-cycle sums: a slow
        invocation in one cycle and another in the next raise every sum."""
        return [statistics.median(results[i].scaled for results in cycles)
                for i, inv in enumerate(plan) if inv.command == command]

    per_command = {c: per_cycle(c, "scaled") for c in COMMANDS}
    invocation_seconds = [r.scaled for results in cycles for r in results]
    # the mean of the two reference samples around each invocation
    reference_s = [r.seconds / r.scaled * reference.NOMINAL_S
                   for results in cycles for r in results]
    metrics = {f"{c}_s": sum(per_invocation_medians(c)) for c in COMMANDS}
    metrics["reports_per_s"] = len(invocation_seconds) / sum(invocation_seconds)
    metrics["peak_rss_mb"] = rss_mb
    metrics["setup_s"] = statistics.median(setup_times)

    attempted = len(invocation_seconds)
    failed = count_failures(plan, warm, cycles, problems)
    print(f"gframemod benchmark: workload {w.name}, seed {seed}, {len(cycles)} timed cycles "
          f"of {len(plan)} invocations, one closed-loop client")
    print(f"  machine: {machine_info()}")
    print(f"  times below are scaled to a reference sample of {reference.NOMINAL_S:g} s; "
          f"unscaled ones are marked raw")
    print(describe("reference sample (raw)", reference_s, "s"))
    for c in COMMANDS:
        print(f"  {c + '_s':<34} {metrics[c + '_s']:>12.6g} s      "
              f"sum of per-invocation medians over {len(cycles)} cycles")
        print(describe(f"  {c} per cycle", per_command[c], "s"))
        print(describe(f"  {c} per cycle (raw)", per_cycle(c, "seconds"), "s"))
        print(describe(f"  {c} per invocation", [r.scaled for results in cycles
                                                 for inv, r in zip(plan, results)
                                                 if inv.command == c], "s"))
    print(describe("reports_per_s", [metrics["reports_per_s"]], "1/s"))
    print(describe("peak_rss_mb", [rss_mb], "MB"))
    print(describe("setup_s", setup_times, "s"))
    print(describe("failed_frac", [failed / attempted], "ratio"))
    return attempted, failed, problems, metrics


def traced(w, seed: int, seconds: float):
    import spans

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT)
    tracer = spans.Tracer()
    try:
        cli, plan, warm, _ = set_up(w, seed, workdir)
        problems = verdicts(w, seed, plan, warm)
        done = timed_cycles(cli, plan, warm, seconds, tracers=(None, tracer))
        peaks = []
        with spans.allocation_peaks(peaks):
            for inv in plan:
                if inv.variant == "theorem21":
                    run_invocation(cli, inv)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_command = Counter(inv.command for inv in plan)
    wall = {False: [], True: []}
    per_cycle = []
    all_spans = []
    for which, results, recorded in done:
        wall[which is not None].append(sum(r.seconds for r in results))
        if recorded is not None:
            per_cycle.append(spans.cycle_metrics(*recorded, per_command))
            all_spans.extend(recorded[0])
    metrics = {name: statistics.median(c[name] for c in per_cycle) for name in per_cycle[0]}
    metrics["represent.peak_alloc_mb"] = max(peaks, default=0.0)
    metrics["trace.overhead_frac"] = statistics.median(wall[True]) / statistics.median(wall[False])

    path = os.path.join(OUT, f"spans-{w.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": list(spans.Span._fields), "spans": all_spans}, handle)
    cycles = [results for _, results, _ in done]
    attempted = sum(len(results) for results in cycles)
    failed = count_failures(plan, warm, cycles, problems)
    print(f"gframemod benchmark (traced): workload {w.name}, seed {seed}, "
          f"{len(wall[True])} traced and {len(wall[False])} untraced cycles; "
          f"{len(all_spans)} spans in {os.path.relpath(path, ROOT)}")
    print(f"  machine: {machine_info()}")
    for name in sorted(metrics):
        print(f"  {name:<38} {metrics[name]:>14.6g}")
    return attempted, failed, problems, metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("trace.") or "_per_" in name:
        return "ratio"
    return "count"


def main(argv=None) -> int:
    # before numpy is first imported; the set-up probes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        print(json.dumps({"setup_s": set_up(w, args.seed, args.setup_probe, calibrated=True)[3]}))
        return 0
    run = traced if args.trace else end_to_end
    attempted, failed, problems, metrics = run(w, args.seed, args.seconds)
    for key, found in problems.items():
        for problem in found:
            print(f"perfbench: {key}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
