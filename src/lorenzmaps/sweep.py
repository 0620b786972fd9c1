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
from dataclasses import dataclass, fields
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
from .laps import DEFAULT_ITERATES, DEFAULT_WINDOW, _check_window, entropy_laps
from .maps import UPPER, BranchPair, LorenzMap, _coerce, fmt_number
from .spectral import DEFAULT_ORDER, DEFAULT_TOL, LAPS, SPECTRAL, EntropyEstimate, _check_order, entropy_spectral

STATUS_OK = "ok"
STATUS_NO_ROOT = "no-root"
STATUS_RESOURCE_LIMIT = "resource-limit"

DIP = "dip"
BUMP = "bump"

CSV_FIELDS = ("p", "entropy", "gamma", "method", "order", "error_bound", "status")

#: grid points added on each side of a feature for its confirmation
CONFIRM_PAD = 3
#: a sweep grid of more points raises ResourceLimit before any point is built
MAX_POINTS = 10**6


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: its exact p, its estimate (None unless status is ok) and its status."""

    p: Fraction
    estimate: EntropyEstimate | None
    status: str


@dataclass(frozen=True)
class NonMonotoneFeature:
    """A dip or bump of the entropy curve: its p range and its depth."""

    p_low: float
    p_high: float
    prominence: float
    direction: str


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


def _checked_order(method: str, n, window) -> int:
    """n, or the method's default order for None, once the method's own check accepts it."""
    if method == SPECTRAL:
        n = DEFAULT_ORDER if n is None else n
        _check_order(n)
    elif method == LAPS:
        n = DEFAULT_ITERATES if n is None else n
        _check_window(n, window)
    else:
        raise DomainError(f"unknown method {method!r}")
    return n


def estimate(bp, p, method: str, *, n=None, tol=DEFAULT_TOL, window=DEFAULT_WINDOW) -> EntropyEstimate:
    """The sweep row's estimate at p: method on the upper map of the exact pair bp; n None takes the method's default."""
    n = _checked_order(method, n, window)
    m = LorenzMap(bp, p, UPPER)
    if method == SPECTRAL:
        return entropy_spectral(m.branches, m.p, n, tol)
    return entropy_laps(m, n, window)


def _sweep_point(bp, method, n, tol, window, p) -> SweepRecord:
    try:
        return SweepRecord(p, estimate(bp, p, method, n=n, tol=tol, window=window), STATUS_OK)
    except NoRootFound:
        return SweepRecord(p, None, STATUS_NO_ROOT)
    except ResourceLimit:
        return SweepRecord(p, None, STATUS_RESOURCE_LIMIT)


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
    tol: float = DEFAULT_TOL,
    window: int = DEFAULT_WINDOW,
    workers: int | None = None,
) -> list:
    """Entropy records of the exact pair bp on an equally spaced grid of p values.

    Per-point failures are recorded in the record status and never abort
    the sweep.  ``workers`` > 1 runs the points on at most ``workers``
    processes, the calling one included, so at most ``workers`` - 1 are
    forked, and on no more than the points or the usable CPUs; the output
    is the same for every worker count.  A bad method, order or window,
    or a grid of more than ``MAX_POINTS`` points, raises before any work.
    """
    point = partial(_sweep_point, bp, method, _checked_order(method, n, window), tol, window)
    return _run_points(point, _grid(bp, p_min, p_max, points), workers)


def _ok_arrays(records):
    ok = [r for r in records if r.status == STATUS_OK]
    ps = np.array([float(r.p) for r in ok])
    hs = np.array([r.estimate.entropy for r in ok])
    return ok, ps, hs


def _peaks(x: list, tol: float) -> list:
    """(peak, prominence, left_ip, right_ip) of every peak of ``x`` with prominence >= tol.

    The rule, and every float operation in its order, of
    ``scipy.signal.find_peaks(x, prominence=tol, width=0, rel_height=1.0)``,
    so each value is bit-identical to scipy's.  A peak is a strict rise then
    a strict fall; a plateau counts once, at its middle (rounded down), and
    the end points never count.  Its prominence is its height above the
    higher of the two lowest values reached walking each way while no value
    exceeds it.  Its edges are where the curve crosses the contour at the
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
    """(peak, prominence, left_ip, right_ip) of the peak at ``peak``, or None below tol."""
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
    return peak, prominence, *edges


def detect_nonmonotonic(records, prominence_tol: float) -> list:
    """Dips and bumps of the entropy curve with depth >= prominence_tol.

    Returns features sorted by prominence, largest first; empty when the
    curve is monotone at the requested resolution.  A bump is a peak of the
    curve and a dip a peak of its negation (``_peaks``); a feature spans
    the peak's full-prominence edges, mapped from index to p linearly.
    """
    if not prominence_tol > 0:
        raise DomainError("prominence tolerance must be positive")
    _, ps, hs = _ok_arrays(records)
    idx_axis = np.arange(len(ps))
    features = []
    for sign, direction in ((1.0, BUMP), (-1.0, DIP)):
        for _, prominence, left, right in _peaks((sign * hs).tolist(), prominence_tol):
            features.append(
                NonMonotoneFeature(
                    p_low=float(np.interp(left, idx_axis, ps)),
                    p_high=float(np.interp(right, idx_axis, ps)),
                    prominence=prominence,
                    direction=direction,
                )
            )
    features.sort(key=lambda f: (-f.prominence, f.p_low))
    return features


def continuity_modulus(records):
    """(largest |entropy step| between adjacent records, p midpoint where it occurs)."""
    _, ps, hs = _ok_arrays(records)
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


def _max_error(records):
    return max((r.estimate.error_bound for r in records if r.status == STATUS_OK), default=0.0)


def cross_confirm_features(
    bp: BranchPair, records, features, *, prominence_tol: float, workers: int | None = None
) -> list:
    """Keep only features the other method reproduces on the feature's own sub-grid.

    The other method is the one the records' estimates did not use.  For
    each candidate, it is run on the sweep's p values covering the feature
    (padded by ``CONFIRM_PAD`` grid points) and must show a same-direction
    feature overlapping in p whose prominence matches within 2 (e_s + e_l),
    with e_s and e_l each method's largest error bound over the span: a
    prominence is the difference of two curve values, each off by up to
    its method's bound.  Detection on the other curve goes that far below
    ``prominence_tol``, so it admits every prominence the match accepts.
    Its record is its sweep's record at the same exact grid point, so the
    union of all sub-grids is evaluated once, each p a single time, on
    ``workers`` processes as in ``sweep``: the calling one and
    ``workers`` - 1 forked ones.
    """
    ok, ps, _ = _ok_arrays(records)
    if len(ps) < 3 or not features:
        return []
    other = SPECTRAL if ok[0].estimate.method == LAPS else LAPS
    spans = []
    for feat in features:
        i_lo = max(0, int(np.searchsorted(ps, feat.p_low)) - CONFIRM_PAD)
        i_hi = min(len(ps) - 1, int(np.searchsorted(ps, feat.p_high)) + CONFIRM_PAD)
        if i_hi - i_lo >= 2:
            spans.append((feat, i_lo, i_hi))
    union = sorted({i for _, i_lo, i_hi in spans for i in range(i_lo, i_hi + 1)})
    point = partial(_sweep_point, bp, other, None, DEFAULT_TOL, DEFAULT_WINDOW)
    other_at = dict(zip(union, _run_points(point, [ok[i].p for i in union], workers)))
    confirmed = []
    for feat, i_lo, i_hi in spans:
        other_records = [other_at[i] for i in range(i_lo, i_hi + 1)]
        err = 2.0 * (_max_error(ok[i_lo : i_hi + 1]) + _max_error(other_records))
        floor = max(prominence_tol - err, 16 * DEFAULT_TOL)
        for other_feat in detect_nonmonotonic(other_records, floor):
            if (
                other_feat.direction == feat.direction
                and other_feat.p_low <= feat.p_high
                and feat.p_low <= other_feat.p_high
                and abs(other_feat.prominence - feat.prominence) <= err
            ):
                confirmed.append(feat)
                break
    return confirmed


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


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
        row = record_row(rec.p, rec.estimate, rec.status)
        writer.writerow([_csv_cell(row[key]) for key in CSV_FIELDS])
    return buffer.getvalue()


def record_row(p, est, status=None) -> dict:
    """A point as JSON or CSV: p, the EntropyEstimate fields (None without one), then status if given."""
    row = {"p": float(p), **{f.name: getattr(est, f.name, None) for f in fields(EntropyEstimate)}}
    if status is not None:
        row["status"] = status
    return row
