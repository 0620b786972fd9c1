"""Parameter sweeps over the discontinuity p and curve diagnostics.

A sweep evaluates one entropy method on an equally spaced p grid.  The
grid is generated in exact rational arithmetic and shared verbatim by
every method, so sweeps of different methods can be compared record by
record, and repeated runs are bit-identical regardless of worker count.
Endpoints equal to a or b are pulled inside by one grid spacing, since
the kneading data degenerates exactly at the ends.

Every point is ``estimate``: either method on the upper map of the exact
pair at an exact p.  A record keeps its exact grid point; CSV, JSON and
numpy see only its binary64 rounding, so a grid whose points share a
rounding is rejected.

The package binds the name ``lorenzmaps.sweep`` to the ``sweep`` function,
so ``import lorenzmaps.sweep as S`` yields the function; reach this module
with ``importlib.import_module("lorenzmaps.sweep")``.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import (
    DomainError,
    GridMismatch,
    InsufficientData,
    NoRootFound,
    RangeError,
    ResourceLimit,
)
from .estimates import LAPS, SPECTRAL, EntropyEstimate
from .laps import _proved_enclosure, entropy_laps, lap_parameters
from .maps import UPPER, BranchPair, LorenzMap, _coerce, fmt_number
from .spectral import entropy_spectral, spectral_parameters

STATUS_OK = "ok"
STATUS_NO_ROOT = "no-root"

DIP = "dip"
BUMP = "bump"

CSV_FIELDS = ("p", "entropy", "gamma", "method", "order", "error_bound", "status")

#: a sweep grid of more points raises ResourceLimit before any point is built; a serial
#: 2000-point spectral sweep of (1.1, 1.9) held 410 B per record, so 0.4 GB at this cap (2-core x86)
MAX_POINTS = 10**6


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: its exact p and its estimate, or None where the spectral truncation has no root.

    The status follows from the estimate: ``ok`` with one, ``no-root`` without.
    """

    p: Fraction
    estimate: EntropyEstimate | None

    @property
    def status(self) -> str:
        return STATUS_NO_ROOT if self.estimate is None else STATUS_OK

    def row(self) -> dict:
        """The record as a JSON or CSV row: float(p), the EntropyEstimate fields (None without one), then status."""
        estimate = {f.name: getattr(self.estimate, f.name, None) for f in fields(EntropyEstimate)}
        return {"p": float(self.p), **estimate, "status": self.status}


@dataclass(frozen=True)
class NonMonotoneFeature:
    """A dip or bump of the entropy curve: its p range, its depth, and the grid p of its peak and bases.

    The bases are the lowest points on each side of the peak (for a dip,
    the highest), as ``_peaks`` finds them.  ``proved`` is True once
    ``cross_confirm_features`` has proved the feature.
    """

    p_low: float
    p_high: float
    prominence: float
    direction: str
    p_peak: float
    p_left_base: float
    p_right_base: float
    proved: bool = False


def _grid(bp: BranchPair, p_min, p_max, points: int) -> list:
    if points < 2:
        raise DomainError("a sweep needs at least 2 points")
    if points > MAX_POINTS:
        raise ResourceLimit(f"{points} grid points exceed the cap MAX_POINTS = {MAX_POINTS}")
    a, b = bp.a, bp.b
    lo, hi = _coerce(p_min), _coerce(p_max)
    if lo >= hi:
        raise RangeError(f"need p_min < p_max, got [{fmt_number(lo)}, {fmt_number(hi)}]")
    if lo < a or hi > b:
        raise RangeError(
            f"[{fmt_number(lo)}, {fmt_number(hi)}] not contained in [{fmt_number(a)}, {fmt_number(b)}]"
        )
    margin = (hi - lo) / (points - 1)
    if lo == a:
        lo = a + margin
    if hi == b:
        hi = b - margin
    if lo >= hi:
        raise RangeError("range collapses once boundary margins are applied")
    step = (hi - lo) / (points - 1)
    grid = [lo + i * step for i in range(points)]
    for x, y in zip(grid, grid[1:]):
        if float(x) == float(y):
            raise RangeError(f"grid points {fmt_number(x)} and {fmt_number(y)} share the binary64 p {float(x)!r}")
    return grid


def estimate(bp, p, method: str, *, n=None, tol=None, window=None) -> EntropyEstimate:
    """The sweep row's estimate at p: method on the upper map of the exact pair bp; a None parameter takes its default."""
    if method not in (SPECTRAL, LAPS):
        raise DomainError(f"unknown method {method!r}")
    m = LorenzMap(bp, p, UPPER)
    if method == SPECTRAL:
        return entropy_spectral(m.branches, m.p, n, tol)
    return entropy_laps(m, n, window)


def _sweep_point(bp, method, n, tol, window, p) -> SweepRecord:
    try:
        return SweepRecord(p, estimate(bp, p, method, n=n, tol=tol, window=window))
    except NoRootFound:
        return SweepRecord(p, None)


def _serial(fn, ps) -> list:
    return [fn(p) for p in ps]


def _run_points(fn, ps, workers) -> list:
    """[fn(p) for p in ps] on w = min(workers, points, usable CPUs) processes, the caller one of them.

    The caller forks w - 1 helpers, hands helper k the slice ps[k::w],
    runs ps[0::w] itself and interleaves the slices back into input
    order.  An exception from any slice reaches the caller once every
    helper has stopped.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    w = min(workers or 1, len(ps), cpus)
    if w <= 1:
        return _serial(fn, ps)
    out = [None] * len(ps)
    with ProcessPoolExecutor(max_workers=w - 1) as pool:
        helpers = [pool.submit(_serial, fn, ps[k::w]) for k in range(1, w)]
        out[0::w] = _serial(fn, ps[0::w])
        for k, helper in enumerate(helpers, 1):
            out[k::w] = helper.result()
    return out


def sweep(
    bp: BranchPair,
    p_min,
    p_max,
    points: int,
    method: str = SPECTRAL,
    *,
    n: int | None = None,
    tol: float | None = None,
    window: int | None = None,
    workers: int | None = None,
) -> list:
    """Entropy records of the exact pair bp on an equally spaced grid of p values.

    Each record's status is ``ok`` or ``no-root`` (the spectral truncation
    has no root in its bracket); a no-root point does not abort the sweep.
    ``workers`` > 1 runs the points on at most ``workers`` processes, the
    calling one included, so at most ``workers`` - 1 are forked, and on no
    more than the points or the usable CPUs; the output is the same for
    every worker count.  n, tol and window reach each point as given; a
    bad method, a parameter its estimator's own check rejects, or a grid of
    more than ``MAX_POINTS`` points raises before any work.
    """
    if method == SPECTRAL:
        spectral_parameters(n, tol)
    elif method == LAPS:
        lap_parameters(n, window)
    else:
        raise DomainError(f"unknown method {method!r}")
    point = partial(_sweep_point, bp, method, n, tol, window)
    return _run_points(point, _grid(bp, p_min, p_max, points), workers)


def _ok_arrays(records):
    ok = [r for r in records if r.status == STATUS_OK]
    return np.array([float(r.p) for r in ok]), np.array([r.estimate.entropy for r in ok])


def _peaks(x: list, tol: float) -> list:
    """(peak, prominence, left_base, right_base, left_ip, right_ip) of every peak of ``x`` with prominence >= tol.

    The rule, and every float operation in its order, of
    ``scipy.signal.find_peaks(x, prominence=tol, width=0, rel_height=1.0)``,
    so each value is bit-identical to scipy's.  A peak is a strict rise then
    a strict fall; a plateau counts once, at its middle (rounded down), and
    the end points never count.  Its prominence is its height above the
    higher of the two lowest values reached walking each way while no value
    exceeds it, and its bases are where they are reached, nearest the peak on
    ties.  Its edges are where the curve crosses the contour at the
    full prominence below it, interpolated between samples.  Peaks come in
    index order.
    """
    found = []
    i, last = 1, len(x) - 1
    while i < last:
        if x[i - 1] < x[i]:
            ahead = i + 1
            while ahead < last and x[ahead] == x[i]:
                ahead += 1
            if x[ahead] < x[i]:
                found.append(_prominent_peak(x, (i + ahead - 1) // 2, tol))
                i = ahead
        i += 1
    return [peak for peak in found if peak is not None]


def _prominent_peak(x: list, peak: int, tol: float):
    """(peak, prominence, left_base, right_base, left_ip, right_ip) of the peak at ``peak``, or None below tol."""
    top = x[peak]
    bases = []  # (index, value) of the lowest point on each side, nearest the peak on ties
    for step in (-1, 1):
        i, base, low = peak, peak, top
        while 0 <= i < len(x) and x[i] <= top:
            if x[i] < low:
                base, low = i, x[i]
            i += step
        bases.append((base, low))
    (left_base, left_min), (right_base, right_min) = bases
    prominence = top - max(left_min, right_min)
    if not tol <= prominence:
        return None
    height = top - prominence  # the contour at rel_height 1.0 (prominence * 1.0 is exact)
    edges = []
    for step, base in ((-1, left_base), (1, right_base)):
        i = peak
        while i != base and height < x[i]:
            i += step
        edge = float(i)
        if x[i] < height:  # interpolate toward the peak: the left edge moves right, the right one left
            edge -= step * (height - x[i]) / (x[i - step] - x[i])
        edges.append(edge)
    return peak, prominence, left_base, right_base, *edges


def detect_nonmonotonic(records, prominence_tol: float) -> list:
    """Dips and bumps of the entropy curve with depth >= prominence_tol.

    Returns features sorted by prominence, largest first; empty when the
    curve is monotone at the requested resolution.  A bump is a peak of the
    curve and a dip a peak of its negation (``_peaks``); a feature spans
    the peak's full-prominence edges, mapped from index to p linearly, and
    names the p of its peak and bases.
    """
    if not prominence_tol > 0:
        raise DomainError("prominence tolerance must be positive")
    ps, hs = _ok_arrays(records)
    idx_axis = np.arange(len(ps))
    features = []
    for sign, direction in ((1.0, BUMP), (-1.0, DIP)):
        for peak, prominence, left_base, right_base, left, right in _peaks((sign * hs).tolist(), prominence_tol):
            features.append(
                NonMonotoneFeature(
                    p_low=float(np.interp(left, idx_axis, ps)),
                    p_high=float(np.interp(right, idx_axis, ps)),
                    prominence=prominence,
                    direction=direction,
                    p_peak=float(ps[peak]),
                    p_left_base=float(ps[left_base]),
                    p_right_base=float(ps[right_base]),
                )
            )
    features.sort(key=lambda f: (-f.prominence, f.p_low))
    return features


def continuity_modulus(records):
    """(largest |entropy step| between adjacent records, p midpoint where it occurs)."""
    ps, hs = _ok_arrays(records)
    if len(ps) < 2:
        raise InsufficientData("need at least two successful records")
    jumps = np.abs(np.diff(hs))
    i = int(np.argmax(jumps))
    return float(jumps[i]), float(0.5 * (ps[i] + ps[i + 1]))


def compare_methods(records_a, records_b):
    """(max, mean, arg-max-p) of |h_a - h_b| over records where both succeeded.

    The two sweeps must share the p grid: every exact p equal.
    """
    if len(records_a) != len(records_b):
        raise GridMismatch(f"grid sizes differ: {len(records_a)} vs {len(records_b)}")
    diffs, ps = [], []
    for ra, rb in zip(records_a, records_b):
        if ra.p != rb.p:
            raise GridMismatch(f"grids differ at p = {fmt_number(ra.p)} vs {fmt_number(rb.p)}")
        if ra.status == STATUS_OK and rb.status == STATUS_OK:
            diffs.append(abs(ra.estimate.entropy - rb.estimate.entropy))
            ps.append(ra.p)
    if not diffs:
        raise InsufficientData("no p value succeeded under both methods")
    diffs = np.array(diffs)
    i = int(np.argmax(diffs))
    return float(diffs[i]), float(diffs.mean()), float(ps[i])


def cross_confirm_features(bp: BranchPair, records, features, *, workers: int | None = None) -> list:
    """The features that lap enclosures prove, each with ``proved`` set, in input order.

    A dip is proved when the enclosure of e^h at its peak lies strictly
    below the enclosures at both its bases, and a bump when it lies
    strictly above them; so h(p) is proved to fall and rise again (or rise
    and fall) across the feature, whatever method drew the curve.  The
    features must come from ``detect_nonmonotonic(records, ...)``: each p
    they name is one of the records' grid points, and its enclosure (the
    ``laps`` order rule's, on the upper map at the exact grid point) is
    computed once for all features, on ``workers`` processes as in
    ``sweep``: the calling one and ``workers`` - 1 forked ones.
    """
    if not features:
        return []
    exact = {float(r.p): r.p for r in records}
    named = sorted({p for f in features for p in (f.p_peak, f.p_left_base, f.p_right_base)})
    enclosure = dict(zip(named, _run_points(_proved_enclosure, [LorenzMap(bp, exact[p]) for p in named], workers)))
    confirmed = []
    for feat in features:
        (peak_low, peak_high), *bases = (enclosure[p] for p in (feat.p_peak, feat.p_left_base, feat.p_right_base))
        if feat.direction == DIP:
            proved = all(peak_high < base_low for base_low, _ in bases)
        else:
            proved = all(peak_low > base_high for _, base_high in bases)
        if proved:
            confirmed.append(replace(feat, proved=True))
    return confirmed


def _csv_cell(value):
    # the csv module writes None as an empty field
    return format(value, ".17g") if isinstance(value, float) else value


def write_csv(records, path_or_file) -> None:
    """Write ``csv_text(records)`` to a path or an open text file."""
    text = csv_text(records)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
        return
    with open(path_or_file, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def csv_text(records) -> str:
    """Sweep records with the fixed header, 17 significant digits, LF endings."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for rec in records:
        row = rec.row()
        writer.writerow([_csv_cell(row[key]) for key in CSV_FIELDS])
    return buffer.getvalue()
