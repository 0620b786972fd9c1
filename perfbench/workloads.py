"""Seeded inputs, one measured pass, and output checks for each workload.

A workload runs in passes.  A pass is a fixed amount of work: a list of
exact lap-entropy calls for ``laps_exact``, one ``lorenzmaps sweep``
command for ``curve``.  Pass ``k`` of seed ``s`` always gets the same
inputs, and no two passes repeat an input, so a cache keyed on the input
could not help.

Checks never run inside a timed region.  Each returns ``None`` for a good
output or a short reason for a bad one.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import lorenzmaps as L

F = Fraction


#: the paper's experiment: the affine pair (1.1, 1.9) over [9/19, 10/11]
PAPER_SLOPES = (F(11, 10), F(19, 10))
PAPER_RANGE = (F(9, 19), F(10, 11))
SPECTRAL_N = 500
SPECTRAL_TOL = 1e-7
LAPS_N = 50
LAPS_WINDOW = 10
PROMINENCE = 1e-5
CSV_HEADER = "p,entropy,gamma,method,order,error_bound,status"

#: items per pass (grid points of one command for curve); about 2 s of
#: work per pass on a 2-core machine, 20 s for curve
PASS_SIZE = {"curve": 400, "laps_exact": 8}
#: sizes for the self-test; curve at 60 points still confirms a feature
TINY_SIZE = {"curve": 60, "laps_exact": 4}

#: the bound of acceptance criterion 1 for uniform pairs under the lap method
UNIFORM_LAPS_TOL = 1e-9
LOG_ROUNDING = 1e-12
#: grids of the lap oracle, coarse first; the first that resolves every lap
#: is compared (finer grids than 10^6 lose the oracle's jump test to rounding)
ORACLE_GRIDS = (10**5, 10**6)
ORACLE_MAX_N = 8


@dataclass(frozen=True)
class LapPoint:
    """One exact entropy_laps call on the upper map."""

    m: L.LorenzMap
    uniform_slope: Fraction | None = None


def pass_rng(workload: str, seed: int, k: int) -> random.Random:
    # string seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{k}")


def _slope(rng, lo=105, hi=195) -> Fraction:
    return F(rng.randint(lo, hi), 100)


def _random_p(rng, bp: L.BranchPair) -> Fraction:
    # as random_affine_map in tests/test_acceptance.py draws p
    return bp.a + F(rng.randint(1, 9999), 10000) * (bp.b - bp.a)


def _random_affine(rng) -> L.BranchPair:
    # as random_affine_map in tests/test_acceptance.py draws the slopes
    while True:
        b0, b1 = _slope(rng), _slope(rng)
        if b0 + b1 > b0 * b1:
            return L.make_affine_pair(b0, b1)


def _random_pwl(rng) -> L.BranchPair:
    """Two-piece branches whose four slopes lie in [1.05, 1.95], like the affine draws.

    Bounding the slopes keeps the lap oracle's jump threshold c_max^n/grid
    as small as for the affine pairs.
    """
    s0, s1, t0, t1 = (_slope(rng) for _ in range(4))
    y0, y1 = F(rng.randint(20, 80), 100), F(rng.randint(20, 80), 100)
    x0 = y0 / s0
    b = x0 + (1 - y0) / s1
    a = 1 - (y1 / t0 + (1 - y1) / t1)
    x1 = a + y1 / t0
    return L.BranchPair(
        L.BranchSpec(((0, 0), (x0, y0), (b, 1))),
        L.BranchSpec(((a, 0), (x1, y1), (1, 1))),
    )


def _laps_exact(rng, size: int) -> list:
    # one uniform pair, a quarter piecewise-linear, the rest affine
    b = _slope(rng)
    bp = L.make_uniform_pair(b)
    points = [LapPoint(L.LorenzMap(bp, _random_p(rng, bp), L.UPPER), b)]
    n_pwl = size // 4
    for i in range(size - 1):
        bp = _random_pwl(rng) if i < n_pwl else _random_affine(rng)
        points.append(LapPoint(L.LorenzMap(bp, _random_p(rng, bp), L.UPPER)))
    rng.shuffle(points)
    return points


def curve_points(seed: int, size: int) -> int:
    """Grid size of the curve command: the seed moves it within size +- 2."""
    return size - 2 + pass_rng("curve", seed, 0).randrange(5)


def make_pass(workload: str, seed: int, k: int, size: int):
    """Inputs of pass k: a list of points, or the grid size for curve."""
    rng = pass_rng(workload, seed, k)
    if workload == "laps_exact":
        return _laps_exact(rng, size)
    if workload == "curve":
        return curve_points(seed, size)
    raise ValueError(f"unknown workload {workload!r}")


def call(point: LapPoint):
    """One estimator call; the package's functions are looked up at call time,
    so a tracer that patches them sees the call."""
    return L.entropy_laps(point.m, LAPS_N, LAPS_WINDOW)


def _ln(x) -> float:
    x = Fraction(x)
    return math.log(x.numerator) - math.log(x.denominator)


def _in_slope_range(bp: L.BranchPair, entropy: float, error_bound: float) -> str | None:
    # the entropy of a map with slopes in [c_min, c_max] lies in
    # [ln c_min, ln c_max]; the estimate may stray by its own error bound,
    # and a uniform pair's exact lap estimate by the rounding of a logarithm
    lo, hi = _ln(bp.c_min), _ln(bp.c_max)
    err = error_bound + LOG_ROUNDING
    if not lo - err <= entropy <= hi + err:
        return f"entropy {entropy!r} outside [ln c_min, ln c_max] = [{lo:.6f}, {hi:.6f}]"
    return None


def lap_partition(m: L.LorenzMap, n: int) -> list:
    """Laps of T, T^2, ..., T^n, each a list of exact (x_left, x_right, image_low, image_high).

    This enumeration is independent of lap_states: it follows every lap
    rather than every image class, and it finds split points through the
    inverse branches, so nothing is merged.  Exponential in n: small n only.
    """
    f, p = (m.branches.f0, m.branches.f1), m.p
    zero, one = F(0), F(1)
    laps = [(zero, p, f[0](zero), f[0](p), (0,)), (p, one, f[1](p), f[1](one), (1,))]
    out = [laps]
    for _ in range(n - 1):
        new = []
        for xl, xr, lo, hi, word in laps:
            if lo < p < hi:
                xm = p
                for i in reversed(word):
                    xm = f[i].inverse(xm)
                new.append((xl, xm, f[0](lo), f[0](p), word + (0,)))
                new.append((xm, xr, f[1](p), f[1](hi), word + (1,)))
            else:
                i = 0 if hi <= p else 1
                new.append((xl, xr, f[i](lo), f[i](hi), word + (i,)))
        laps = new
        out.append(laps)
    return [[lap[:4] for lap in step] for step in out]


def oracle_resolves(laps: list, n: int, c_max: float, grid: int) -> bool:
    """Whether lap_count_bruteforce at this grid must see every lap boundary.

    Every lap must span two grid cells, and every jump between neighbouring
    laps must exceed twice the largest rise within one cell, c_max^n / grid.
    """
    if min(xr - xl for xl, xr, _, _ in laps) < F(2, grid):
        return False
    threshold = 2 * c_max**n / grid
    return all(abs(right[2] - left[3]) > threshold for left, right in zip(laps, laps[1:]))


def check_laps(point: LapPoint, est) -> str | None:
    """Lap counts for n <= 8 against an independent exact enumeration, and against
    the grid oracle of criterion 5 wherever its grid resolves every lap."""
    m = point.m
    bad = _in_slope_range(m.branches, est.entropy, est.error_bound)
    if bad is not None:
        return bad
    states = L.lap_states(m, ORACLE_MAX_N)
    c_max = float(m.branches.c_max)
    for n, (state, laps) in enumerate(zip(states, lap_partition(m, ORACLE_MAX_N)), start=1):
        if len(laps) != state.total_laps:
            return f"n={n}: {state.total_laps} laps, exact enumeration {len(laps)}"
        for grid in ORACLE_GRIDS:
            if oracle_resolves(laps, n, c_max, grid):
                oracle = L.lap_count_bruteforce(m, n, grid)
                if oracle != state.total_laps:
                    return f"n={n}: {state.total_laps} laps, grid oracle at {grid} {oracle}"
                break
    b = point.uniform_slope
    if b is not None:
        variation = L.lap_count(m, LAPS_N)[1]
        if variation != b**LAPS_N:
            return f"uniform slope {b}: variation is not b^{LAPS_N}"
        off = abs(est.entropy - _ln(b))
        if off > UNIFORM_LAPS_TOL:
            return f"uniform slope {b}: lap entropy off ln b by {off:.2e}"
    return None


# -- curve -------------------------------------------------------------------


def curve_argv(points: int, workers: int, csv_path: Path, features_path: Path) -> list:
    lo, hi = PAPER_RANGE
    return [
        "sweep",
        "--b0", str(float(PAPER_SLOPES[0])), "--b1", str(float(PAPER_SLOPES[1])),
        "--p-min", str(lo), "--p-max", str(hi),
        "--points", str(points),
        "--method", "spectral", "--n", str(SPECTRAL_N), "--tol", str(SPECTRAL_TOL),
        "--out", str(csv_path),
        "--features-out", str(features_path), "--prominence", str(PROMINENCE),
        "--workers", str(workers),
    ]


def check_curve(rc: int, points: int, csv_path: Path, features_path: Path) -> tuple:
    """(rows failed, reason or None); a failure of the command fails every row."""
    if rc != 0:
        return points, f"exit code {rc}"
    try:
        with open(csv_path, encoding="utf-8", newline="") as handle:
            lines = handle.read().split("\n")
        with open(features_path, encoding="utf-8") as handle:
            features = json.load(handle)
    except (OSError, ValueError) as exc:
        return points, f"output unreadable: {exc}"
    if lines[0] != CSV_HEADER:
        return points, f"CSV header {lines[0]!r}"
    rows = [row for row in csv.reader(lines[1:]) if row]
    if len(rows) != points:
        return points, f"{len(rows)} CSV rows for {points} points"
    if not any(f.get("prominence", 0.0) >= PROMINENCE for f in features):
        return points, f"no confirmed feature with prominence >= {PROMINENCE}"
    bp = L.make_affine_pair(*PAPER_SLOPES)
    reasons = []
    for row in rows:
        if row[-1] != "ok":
            reasons.append(f"p={row[0]}: status {row[-1]}")
            continue
        bad = _in_slope_range(bp, float(row[1]), float(row[5]))
        if bad is not None:
            reasons.append(f"p={row[0]}: {bad}")
    return len(reasons), "; ".join(reasons[:3]) or None

