"""Run one lorenzmaps benchmark workload and print its metrics.

    python3 perfbench/run.py --workload laps_exact --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` beside this directory and exits with code 2 when that is missing.
Workloads, metrics and bounds are listed in ``BENCHMARK.json`` and
explained in ``perfbench/README.md``.

With ``--trace 0`` the workload runs in passes until ``--seconds`` of
measured time is used up, and the end-to-end metrics are printed.  With
``--trace 1`` a fixed number of pass pairs runs instead, each pass once
untraced and once traced on the same inputs; the per-layer metrics are
totals over the traced passes, and ``trace.overhead_s`` is the difference
of the two medians.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from hashlib import sha256
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("curve", "laps_exact")
#: fresh interpreters started to measure set-up; the median is reported
SETUP_REPEATS = 3
#: pass pairs of a traced run
TRACE_PAIRS = {"curve": 1, "laps_exact": 2}
#: a tail percentile needs this many samples beyond it
TAIL_SAMPLES_BEYOND = 10
#: seconds between memory samples of curve's process tree
RSS_INTERVAL = 0.05

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import lorenzmaps
t1 = time.perf_counter()
import workloads
workloads.make_pass({workload!r}, {seed!r}, 0, {size!r})
print(json.dumps({{"import_s": t1 - t0}}))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- set-up ---------------------------------------------------------------------


def measure_setup(workload: str, seed: int, size: int) -> tuple:
    """(median wall seconds, median import seconds) of fresh interpreters."""
    code = SETUP_CODE.format(src=str(SRC), bench=str(BENCH), workload=workload, seed=seed, size=size)
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, timeout=120)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


# -- memory ---------------------------------------------------------------------


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0  # the process ended between listing and reading


def _children(pid: int) -> list:
    kids = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            kids += [int(k) for k in task.read_text().split()]
        except OSError:
            pass
    return kids


class TreeRss:
    """Peak of the summed resident memory of this process and its children.

    Shared pages count once in each process, as ``ps`` shows them.
    """

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            total = _rss_bytes(me) + sum(_rss_bytes(kid) for kid in _children(me))
            self.peak = max(self.peak, total)
            self._stop.wait(RSS_INTERVAL)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def self_peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# -- passes -----------------------------------------------------------------------


class PointPasses:
    """laps_exact: one estimator call after another, in this process."""

    def __init__(self, workloads, name, seed, size):
        self.w, self.name, self.seed, self.size = workloads, name, seed, size
        self.latencies = []  # per measured pass, seconds per call
        self.calls = 0
        self.attempted = 0
        self.failures = []

    def inputs(self, k):
        return self.w.make_pass(self.name, self.seed, k, self.size)

    def run(self, points, tracer=None, record=True) -> tuple:
        """(wall seconds, results); a call that raises yields its exception."""
        results, latencies = [], []
        call, clock = self.w.call, time.perf_counter
        start = clock()
        for point in points:
            if tracer is not None:
                tracer.point = self.calls
            self.calls += 1
            t0 = clock()
            try:
                results.append(call(point))
            except Exception as exc:  # a failed call is a failed point, not a failed run
                results.append(exc)
            latencies.append(clock() - t0)
        if record:
            self.latencies.append(latencies)
        return clock() - start, results

    def check(self, points, results) -> None:
        for point, result in zip(points, results):
            self.attempted += 1
            if isinstance(result, Exception):
                reason = f"{type(result).__name__}: {result}"
            else:
                reason = self.w.check_laps(point, result)
            if reason is not None:
                self.failures.append(reason)

    def e2e(self, walls) -> dict:
        lat = sorted(1000.0 * s for lats in self.latencies for s in lats)
        pct, tail = tail_percentile(lat)
        self.context = {"points": len(lat), "tail_percentile": pct}
        return {
            "wall_s": statistics.median(walls),
            "point_ms_p50": statistics.median(lat),
            "point_ms_tail": tail,
            "peak_rss_mb": self_peak_rss() / 2**20,
        }


class CurvePasses:
    """The sweep command, in-process, with its pool of worker processes."""

    def __init__(self, workloads, seed, size, workers, workdir: Path):
        self.w, self.workers = workloads, workers
        self.points = workloads.curve_points(seed, size)
        self.workdir = workdir
        self.runs = 0
        self.sweep_phase = []  # per measured pass, seconds until the CSV was written
        self.attempted = 0
        self.failures = []
        self.peak_rss = 0

    def inputs(self, k):
        return self.points

    def run(self, points, tracer=None, record=True) -> tuple:
        """(wall seconds, (exit code, CSV path, features path))."""
        from lorenzmaps import cli

        csv = self.workdir / f"curve-{self.runs}.csv"
        features = self.workdir / f"features-{self.runs}.json"
        self.runs += 1
        argv = self.w.curve_argv(points, self.workers, csv, features)
        with TreeRss() as rss:
            start_ns = time.time_ns()
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # the command must not raise; count it as failed
                print(f"curve: {type(exc).__name__}: {exc}", file=sys.stderr)
                rc = -1
            wall = time.perf_counter() - start
        if record:
            self.peak_rss = max(self.peak_rss, rss.peak)
            phase = (csv.stat().st_mtime_ns - start_ns) / 1e9 if csv.exists() else wall
            self.sweep_phase.append(phase)
        return wall, (rc, csv, features)

    def check(self, points, outcome) -> None:
        rc, csv, features = outcome
        bad, reason = self.w.check_curve(rc, points, csv, features)
        self.attempted += points
        if reason is not None:
            self.failures += [reason] * bad

    def e2e(self, walls) -> dict:
        # the points run in worker processes that an untraced run cannot see:
        # both point metrics read the command's worker time per grid point
        wall = statistics.median(walls)
        per_point = 1000.0 * wall * self.workers / self.points
        self.context = {"points": self.points, "sweep_phase_s": statistics.median(self.sweep_phase)}
        return {
            "wall_s": wall,
            "point_ms_p50": per_point,
            "point_ms_tail": per_point,
            "peak_rss_mb": max(self.peak_rss, self_peak_rss()) / 2**20,
        }


def tail_percentile(sorted_values) -> tuple:
    """(q, value) for the highest whole percentile q with enough samples beyond it."""
    n = len(sorted_values)
    for q in range(99, 49, -1):
        rank = -(-q * n // 100)  # nearest-rank: ceil(q n / 100)
        if n - rank >= TAIL_SAMPLES_BEYOND:
            return q, sorted_values[rank - 1]
    return 50, statistics.median(sorted_values)


def run_untraced(passes, seconds: float) -> tuple:
    """(walls, outputs) of passes until the next would overrun the measured-time budget.

    Outputs are checked later, so the checks' memory stays out of the peak.
    """
    walls, outputs = [], []
    while True:
        inputs = passes.inputs(len(walls))
        wall, outcome = passes.run(inputs)
        walls.append(wall)
        outputs.append((inputs, outcome))
        if sum(walls) + wall > seconds:
            return walls, outputs


def run_traced(passes, tracer, pairs: int) -> tuple:
    """(untraced walls, traced walls, outputs); the order alternates so drift cancels."""
    plain, traced, outputs = [], [], []
    for k in range(pairs):
        inputs = passes.inputs(k)
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    wall, outcome = passes.run(inputs, tracer, record=False)
                finally:
                    tracer.uninstall()
                tracer.collect_workers()
                traced.append(wall)
            else:
                wall, outcome = passes.run(inputs, record=False)
                plain.append(wall)
            outputs.append((inputs, outcome))
    return plain, traced, outputs


# -- context ------------------------------------------------------------------------


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    digest = sha256()
    for path in sorted((SRC / "lorenzmaps").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lorenzmaps" / "__init__.py").is_file():
        print(f"error: no lorenzmaps sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import workloads
    from tracer import Tracer

    sizes = workloads.TINY_SIZE if args.tiny else workloads.PASS_SIZE
    size = sizes[args.workload]
    cores = len(os.sched_getaffinity(0))
    workers = cores if args.workload == "curve" else 1
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, import_s = measure_setup(args.workload, args.seed, size)
        if args.workload == "curve":
            passes = CurvePasses(workloads, args.seed, size, workers, workdir)
        else:
            passes = PointPasses(workloads, args.workload, args.seed, size)
        if args.trace:
            tracer = Tracer(workdir)
            plain, traced, outputs = run_traced(passes, tracer, TRACE_PAIRS[args.workload])
            metrics = tracer.layer_metrics()
            metrics["setup.import_s"] = import_s
            metrics["trace.wall_s"] = statistics.median(traced)
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            extra = {"passes_traced": len(traced), "spans_file": str(spans_path.relative_to(ROOT))}
        else:
            walls, outputs = run_untraced(passes, args.seconds)
            metrics = passes.e2e(walls)
            metrics["setup_s"] = setup_s
            extra = dict(passes.context, pass_s=walls)
        for inputs, outcome in outputs:
            passes.check(inputs, outcome)
        metrics["ok_frac"] = 1.0 - len(passes.failures) / passes.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cores": cores,
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        **extra,
    }
    for reason in passes.failures[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    result = {
        "correct": not passes.failures,
        "attempted": passes.attempted,
        "failed": len(passes.failures),
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in declared},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump({"context": context, **result}, handle, indent=1)
    print("context " + json.dumps(context))
    for name, entry in result["metrics"].items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
