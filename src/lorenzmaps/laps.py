"""Lap counting by propagating image-interval classes.

The n-th iterate of a Lorenz map is piecewise increasing; each maximal
monotone piece (a *lap*) maps its domain onto an interval.  Rather than
enumerate the exponentially many laps, we start from the one lap [0, 1]
of T^0 and keep one class per image interval with a multiplicity: a
class straddling the discontinuity splits into its two branch images,
any other class maps through the one branch covering it, and identical
images merge by adding multiplicities.  Every class endpoint lies on a
forward orbit of p, 0 or 1, so the number of classes grows linearly in
n while the multiplicities carry the exponential lap growth as exact
big integers.  The same endpoints recur across classes and steps, so
each branch maps each orbit point once: at most 2n + 4 branch
evaluations per call.

The arithmetic is exact, as every map is, so classes merge only when
their images are equal.  ``variation`` is the sum of lap-image lengths,
the quantity whose exponential growth rate is the entropy; for a uniform
slope-b pair it equals b^n to the last digit.  ``lap_report`` propagates
once and returns the windowed estimate with the LapState of T^n: ``laps``
prints both, and ``entropy_laps``, which each lap sweep row runs, the estimate.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, LorenzError, ResourceLimit
from .maps import UPPER, BranchPair, BranchSpec, LorenzMap
from .spectral import LAPS, EntropyEstimate

DEFAULT_ITERATES = 50
DEFAULT_WINDOW = 10
#: lap_states raises ResourceLimit past this many interval classes in one step
MAX_CLASSES = 100_000
#: lap_states raises ResourceLimit past this many steps, before the first one; the lap
#: estimate at this order took 30-33 s and 200 MB on the (1.1, 1.9) and (1.05, 1.9) pairs (2-core x86)
MAX_ITERATES = 1000


@dataclass(frozen=True)
class LapState:
    """Image-interval classes of T^step, as ((lo, hi), multiplicity) pairs in propagation order.

    The order is deterministic (classes keep the order in which propagation
    first met them) and the totals do not depend on it.
    """

    step: int
    classes: tuple

    @property
    def total_laps(self) -> int:
        return sum(mult for _, mult in self.classes)

    @property
    def total_variation(self):
        return sum(mult * (hi - lo) for (lo, hi), mult in self.classes)


def _check_iterates(n: int) -> None:
    if n < 1:
        raise DomainError("need at least one step")
    if n > MAX_ITERATES:
        raise ResourceLimit(f"{n} lap steps exceed the cap MAX_ITERATES = {MAX_ITERATES}")


def _advance(classes, f0, f1, p):
    new = {}
    for (lo, hi), mult in classes.items():
        halves = ((lo, p), (p, hi)) if lo < p < hi else ((lo, hi),)
        for left, right in halves:
            img = (f0(left), f0(right)) if right <= p else (f1(left), f1(right))
            new[img] = new.get(img, 0) + mult
    return new


def lap_states(m: LorenzMap, n: int) -> list:
    """LapState after each of the first n steps, propagated from the one lap [0, 1] of T^0.

    An n past MAX_ITERATES raises ResourceLimit before any step.
    """
    _check_iterates(n)
    # each branch maps each orbit point once; the caches live for this call only
    f0, f1 = (functools.cache(branch) for branch in (m.branches.f0, m.branches.f1))
    classes = {(Fraction(0), Fraction(1)): 1}
    out = []
    for step in range(1, n + 1):
        classes = _advance(classes, f0, f1, m.p)
        if len(classes) > MAX_CLASSES:
            raise ResourceLimit(f"{len(classes)} interval classes at step {step} exceed the cap {MAX_CLASSES}")
        out.append(LapState(step, tuple(classes.items())))
    return out


def lap_count(m: LorenzMap, n: int):
    """(lap count of T^n, sum of its lap-image lengths)."""
    state = lap_states(m, n)[-1]
    return state.total_laps, state.total_variation


def lap_count_bruteforce(m: LorenzMap, n: int, grid: int = 10**5) -> int:
    """Grid estimate of the lap count of T^n, independent of class propagation.

    Samples T^n at grid+1 uniform points; a branch boundary shows up either
    as a descent or as a rise exceeding the largest possible within-branch
    rise c_max^n / grid (branch boundaries can jump upward when the two
    one-sided orbits of p land in different order later on).  Converges to
    the true lap count once the grid resolves the narrowest lap and the
    smallest jump.  Intended as an oracle for small n: an n at which
    c_max^n overflows binary64 raises DomainError before any sampling.
    """
    if n < 1:
        raise DomainError("need at least one step")
    if grid < 2:
        raise DomainError("grid too small")
    mf = _binary64(m)
    try:
        max_branch_rise = float(mf.branches.c_max) ** n / grid
    except OverflowError:
        limit = int(math.log(sys.float_info.max) / _ln(mf.branches.c_max))
        raise DomainError(f"n = {n} exceeds {limit}, the largest n at which c_max^n is a finite binary64") from None
    p = float(mf.p)
    f0, f1 = mf.branches.f0, mf.branches.f1
    xs0, ys0, xs1, ys1 = (np.array(v, dtype=float) for v in (f0._xs, f0._ys, f1._xs, f1._ys))
    y = np.linspace(0.0, 1.0, grid + 1)
    upper = mf.side == UPPER
    for _ in range(n):
        mask = y < p if upper else y <= p
        y = np.where(mask, np.interp(y, xs0, ys0), np.interp(y, xs1, ys1))
    rise = np.diff(y)
    boundaries = int(np.count_nonzero((rise <= 0) | (rise > max_branch_rise * (1 + 1e-9))))
    return boundaries + 1


def _binary64(m: LorenzMap) -> LorenzMap:
    # the map whose numbers are m's rounded to binary64, validated as a map of its own
    def rounded(spec):
        return BranchSpec(tuple((float(x), float(y)) for x, y in spec.points))

    try:
        return LorenzMap(BranchPair(rounded(m.branches.f0), rounded(m.branches.f1)), float(m.p), m.side)
    except LorenzError as exc:
        raise type(exc)(f"binary64 rounding breaks this map ({exc})") from exc


def _ln(value: Fraction) -> float:
    # big-integer-safe logarithm of a variation
    return math.log(value.numerator) - math.log(value.denominator)


def entropy_laps(
    m: LorenzMap,
    n: int = DEFAULT_ITERATES,
    window: int = DEFAULT_WINDOW,
) -> EntropyEstimate:
    """Entropy as the windowed growth rate of the lap-image variation.

    entropy = (ln Var(T^n) - ln Var(T^{n-window})) / window; the error
    field is the heuristic |slope(n) - slope(n-window)| (with the early
    window shortened when n < 2*window), and the estimate is never
    certified.
    """
    return lap_report(m, n, window)[0]


def _check_window(n: int, window: int) -> None:
    """The lap estimator's check of its parameters, before any work: n > window >= 1, n within MAX_ITERATES."""
    if window < 1 or n <= window:
        raise DomainError("need n > window >= 1")
    _check_iterates(n)


def lap_report(m: LorenzMap, n: int, window: int):
    """(entropy_laps(m, n, window), the LapState of T^n), from one lap_states call."""
    _check_window(n, window)
    states = lap_states(m, n)
    k = n - window
    start = max(k - window, 0)
    # ln Var(T^j) at the three steps read; Var(T^0) = 1
    lv = {j: _ln(states[j - 1].total_variation) if j else 0.0 for j in (start, k, n)}
    slope = (lv[n] - lv[k]) / window
    prev = (lv[k] - lv[start]) / (k - start)
    error = abs(slope - prev)
    return EntropyEstimate(slope, math.exp(slope), LAPS, n, error, False), states[-1]
