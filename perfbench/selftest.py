"""Self-test of the benchmark at tiny sizes (about two minutes on 2 cores).

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that

- every run prints, as its last line, the four result keys and every metric
  that BENCHMARK.json names for its mode, each with its unit;
- the exact per-layer counts repeat across two traced runs of one seed;
- a wrong entropy, or a curve row that is not ok, is counted as failed;
- in a directory that holds only BENCHMARK.json and perfbench/, the
  benchmark exits with an error and prints no result.

Exits with code 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3

#: per-layer numbers that are counts of work, not times, and so must repeat
EXACT = (
    "maps.branch_calls",
    "maps.apply_calls",
    "kneading.kneading_prefixes.calls",
    "spectral.max_root.calls",
    "spectral.xi_eval.calls",
    "laps.lap_states.calls",
    "laps.classes_max",
    "laps.classes_sum",
    "laps.variation_bits",
    "sweep.pools_opened",
    "sweep.features_detected",
    "sweep.features_confirmed",
)


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(workload: str, trace: int, declared: list) -> dict:
    proc = run_bench(workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    where = f"{workload} --trace {trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where}: correct={result['correct']} failed={result['failed']}:\n{proc.stderr}")
    want = {entry["name"]: entry["unit"] for entry in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != want:
        fail(f"{where}: metric names or units differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{where}: {name} = {value!r} is not a finite number")
    print(f"ok   {where}: {len(got)} metrics with units")
    return result


def wrong_entropy_is_failed() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run
    import workloads

    passes = run.PointPasses(workloads, "laps_exact", SEED, workloads.TINY_SIZE["laps_exact"])
    points = passes.inputs(0)
    _, results = passes.run(points, record=False)
    passes.check(points, results)
    if passes.failures:
        fail(f"laps_exact: good outputs counted as failed: {passes.failures}")
    # above ln c_max for every slope the workload draws (at most 1.95)
    passes.check(points, [dataclasses.replace(est, entropy=math.log(2) + 0.25) for est in results])
    if len(passes.failures) != len(points):
        fail(f"laps_exact: {len(passes.failures)} of {len(points)} wrong entropies counted as failed")
    print("ok   laps_exact: wrong entropies counted as failed")

    # a uniform pair off ln b by more than the criterion 1 bound, yet in range
    uniform = [(pt, est) for pt, est in zip(points, results) if pt.uniform_slope is not None]
    passes.failures.clear()
    passes.check([pt for pt, _ in uniform], [dataclasses.replace(est, entropy=est.entropy + 1e-8) for _, est in uniform])
    if len(passes.failures) != len(uniform):
        fail("laps_exact: a uniform lap entropy off by 1e-8 passed the 1e-9 check")
    print("ok   laps_exact: uniform lap entropy off ln b by 1e-8 counted as failed")

    work = ROOT / ".perfbench" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    csv_path, features = work / "curve.csv", work / "features.json"
    rows = ["0.5,0.4,1.5,spectral,500,1e-9,ok", "0.6,,,,,,no-root", "0.7,0.9,2.46,spectral,500,1e-9,ok"]
    csv_path.write_text(workloads.CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    features.write_text(json.dumps([{"prominence": 1e-3}]))
    bad, reason = workloads.check_curve(0, 3, csv_path, features)
    shutil.rmtree(work)
    # the second row is not ok, and 0.9 lies above ln 1.9
    if bad != 2 or reason is None:
        fail(f"curve: a no-root row and a wrong entropy gave {bad} failed ({reason})")
    print("ok   curve: a row that is not ok and a wrong entropy counted as failed")


def bare_directory_fails() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("laps_exact", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        fail(f"without sources: exit {proc.returncode}, last line {last!r}")
    print(f"ok   without sources: exit {proc.returncode}, no result")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    for entry in bench["workloads"]:
        name = entry["name"]
        result_of(name, 0, bench["end_to_end"])
        first = result_of(name, 1, bench["per_layer"])["metrics"]
        second = result_of(name, 1, bench["per_layer"])["metrics"]
        differ = [key for key in EXACT if first[key]["value"] != second[key]["value"]]
        if differ:
            fail(f"{name}: counts differ between two traced runs: {differ}")
        print(f"ok   {name}: {len(EXACT)} exact counts repeat")
    wrong_entropy_is_failed()
    bare_directory_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
