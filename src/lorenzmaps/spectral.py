"""Entropy from the largest root of the truncated kneading series.

For kneading sequences alpha and beta the series

    xi(x) = sum_{k>=0} (beta_k - alpha_k) x^{-k}

converges for x > 1, and exp(entropy) is its largest root in (1, 2].  We
work with the degree-(n-1) truncation; since every coefficient lies in
{-1, 0, 1} the dropped tail is bounded by x^{-n}/(1 - x^{-1}), which with
Higham's bound on Horner's rounding turns a numerical root into a
certified enclosure.  When beta is periodic with period N, its half of
the series also has the closed geometric form
(sum_{k<N} beta_k x^{-k}) / (1 - x^{-N}).

The root finder scans the bracket downward from 2 on a grid of step
(hi - lo)/(64 n), takes the first sign change (the largest root) and
bisects it.  One rule, _cleared, marks the cells where no computed value
can vanish; by it _suspects picks the cells above the first sign event,
first among the 64-cell ranges between every 64th node (only those are
evaluated node by node) and then among their cells, each refined on a
65-point sub-grid.  One formula, _grid_x, places every abscissa, so the
search sees the full grid's bits.  A truncation with no sign change in the
bracket has no root there that the search can prove, and raises
NoRootFound; a longer truncation is the remedy, since a tangency of the
truncated series says nothing about the root of the infinite one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, LengthMismatch, MissingPeriodicForm, NoRootFound
from .kneading import KneadingPair, _check_steps, kneading_prefixes
from .maps import BranchPair

SPECTRAL = "spectral"
LAPS = "laps"

ODD_CROSSING = "odd-crossing"
# max_root never returns it; kept while perfbench/tracer.py imports it to count tangential roots
TANGENTIAL = "tangential"

#: experiment defaults: truncation order and root tolerance
DEFAULT_ORDER = 500
DEFAULT_TOL = 1e-7
#: cells of the root scan's grid per excludable range; the grid has RANGE_CELLS * n cells
RANGE_CELLS = 64


@dataclass(frozen=True)
class PeriodicForm:
    """Closed-form data for a beta word of known period."""

    period: int
    beta_head: str
    alpha_prefix: str


@dataclass(frozen=True)
class XiPolynomial:
    """Truncated kneading series: coefficients d_k = beta_k - alpha_k."""

    coeffs: tuple
    periodic_form: PeriodicForm | None = None

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        if not coeffs:
            raise DomainError("coefficient list must not be empty")
        if any(c not in (-1, 0, 1) for c in coeffs):
            raise DomainError("coefficients must lie in {-1, 0, 1}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class RootResult:
    """A located root of the truncated series."""

    gamma: float
    residual: float
    bracket: tuple
    # always ODD_CROSSING; traced benchmark runs read it
    multiplicity_hint: str


@dataclass(frozen=True)
class EntropyEstimate:
    """An entropy value with its provenance and an error estimate."""

    entropy: float
    gamma: float
    method: str
    order: int
    error_bound: float
    certified: bool


def xi_coeffs(kp: KneadingPair) -> XiPolynomial:
    """Coefficients beta_k - alpha_k; carries a periodic form if beta has one."""
    if len(kp.alpha) != len(kp.beta):
        raise LengthMismatch(
            f"kneading prefixes differ in length: {len(kp.alpha)} vs {len(kp.beta)}"
        )
    coeffs = tuple(int(b) - int(a) for a, b in zip(kp.alpha, kp.beta))
    form = None
    if kp.beta_period is not None:
        form = PeriodicForm(kp.beta_period, kp.beta[: kp.beta_period], kp.alpha)
    return XiPolynomial(coeffs, form)


def _horner(coeffs, t):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _check_x(x):
    # Fractions evaluate exactly (useful for oracle-grade bounds); anything
    # else runs in binary64
    if not isinstance(x, Fraction):
        x = float(x)
    if x <= 1:
        raise DomainError("series evaluation needs x > 1")
    return x


def xi_eval(xi: XiPolynomial, x):
    """Truncated series at x > 1, evaluated by Horner's rule in 1/x."""
    x = _check_x(x)
    return _horner(xi.coeffs, 1 / x)


def xi_eval_periodic(xi: XiPolynomial, x):
    """Series value with the beta part resummed exactly as a geometric series.

    Differs from the infinite series only by the dropped alpha tail, so the
    result is within tail_bound(x, order) of the true value.
    """
    form = xi.periodic_form
    if form is None:
        raise MissingPeriodicForm("no periodic form attached to this polynomial")
    x = _check_x(x)
    t = 1 / x
    beta_part = _horner(tuple(map(int, form.beta_head)), t) / (1 - t**form.period)
    alpha_part = _horner(tuple(map(int, form.alpha_prefix)), t)
    return beta_part - alpha_part


def tail_bound(x, n: int):
    """x^{-n}/(1 - 1/x): bound on any dropped tail sum_{k>=n} d_k x^{-k}, |d_k| <= 1."""
    x = _check_x(x)
    return x ** (-n) / (1 - 1 / x)


def _eval_grid(coeffs, xs):
    """Series at every entry of the array xs: Horner in t = 1/x, in place.

    Each step rounds acc * t and then acc + c exactly as numpy's polyval
    does, so the values agree with it bit for bit, without a temporary per
    coefficient.  A zero c is not added: acc + 0 is acc, except that it
    turns -0.0 into +0.0, and acc reaches -0.0 only by underflow, which
    needs about 1000 steps at t >= 1/2.  Most kneading coefficients are zero.
    """
    t = 1.0 / xs
    acc = np.full_like(t, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc *= t
        if c:
            acc += c
    return acc


def _bisect_root(f, xl, xr, vl, vr, tol):
    """Refine a sign change on [xl, xr] (f(xl)=vl, f(xr)=vr, vl*vr < 0) by at most 200 halvings."""
    if vr == 0.0:
        return xr, 0.0, (xr, xr)
    if vl == 0.0:
        return xl, 0.0, (xl, xl)
    for _ in range(200):
        xm = 0.5 * (xl + xr)
        vm = f(xm)
        if vm == 0.0:
            xl = xr = xm
            break
        if (vm > 0.0) == (vr > 0.0):
            xr, vr = xm, vm
        else:
            xl, vl = xm, vm
        if xr - xl <= tol and abs(vm) <= tol:
            break
    gamma = 0.5 * (xl + xr)
    return gamma, abs(f(gamma)), (xl, xr)


def _grid_x(lo, hi, num, idx):
    """The descending grid of num + 1 points from hi to lo, computed at the integer indices idx alone.

    lo and hi may be arrays broadcast against idx, a grid per row.  Its values
    are numpy linspace's, bit for bit: linspace rounds i * step and then + hi,
    and stores lo at i = num; so do we.
    """
    return np.where(idx == num, lo, idx * ((lo - hi) / num) + hi)


def _gamma(k):
    # Higham's gamma_k = k u / (1 - k u) for binary64, u = 2^-53
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def _horner_error(xi, x):
    """gamma_3n max|d_k| x/(x - 1): Higham's bound on the rounding of one Horner value at x.

    gamma_3n also covers the rounding of t = 1/x; x may be an array.
    """
    return _gamma(3 * xi.order) * max(map(abs, xi.coeffs)) * x / (x - 1.0)


def _cleared(xi, x_top, x_bot, v_top, v_bot):
    """True where no series value computed on the cell [x_bot, x_top] can be zero or change sign.

    All but xi may be arrays; v_top and v_bot are the computed end values.
    With D = max_{k>=1} |d_k|, |xi'(x)| <= D / (x - 1)^2; this and the
    rounding bound r = _horner_error are largest at x_bot.  A cell is
    cleared when v_top and v_bot share a nonzero sign and

        |v_top + v_bot| > D (x_top - x_bot) / (x_bot - 1)^2 + 4 r(x_bot);

    then the exact truncation exceeds r on the whole cell, with v_top's sign.
    The factor 1 + 2^-40 absorbs the rounding of the bound itself.
    """
    d = max(map(abs, xi.coeffs[1:]), default=0)
    bound = (d * (x_top - x_bot) / (x_bot - 1.0) ** 2 + 4.0 * _horner_error(xi, x_bot)) * (1.0 + 2.0**-40)
    return (np.sign(v_top) * np.sign(v_bot) > 0) & (np.abs(v_top + v_bot) > bound)


def _suspects(xi, tops, bottoms, vtops, vbottoms):
    """(cells above the first sign event that _cleared does not clear, that event's index or None).

    Cell i is [bottoms[i], tops[i]], in scan order; an event is a cell whose end signs multiply to <= 0.
    """
    events = np.flatnonzero(np.sign(vtops) * np.sign(vbottoms) <= 0)
    event = events[0] if events.size else None
    cells = np.flatnonzero(~_cleared(xi, tops, bottoms, vtops, vbottoms)[:event])
    return cells, event


def _scan(xi, lo, hi, num):
    """The cells of the descending grid _grid_x(lo, hi, num, ...) that may hold a crossing.

    The grid's cells fall into ranges of RANGE_CELLS.  _suspects picks them
    from the range nodes: every range above the first range event that
    _cleared does not clear, then the event range, at or above whose bottom
    the first grid event lies.  A cleared range holds no grid event and no
    cell whose refinement can find a sign change.  The kept ranges are
    evaluated at every grid node, so they carry the full grid's bits.

    Returns (xs, vals) of shape (ranges kept, RANGE_CELLS + 1), one range per
    row in scan order.
    """
    nodes = np.arange(0, num + 1, RANGE_CELLS)
    x = _grid_x(lo, hi, num, nodes)
    v = _eval_grid(xi.coeffs, x)
    ranges, event = _suspects(xi, x[:-1], x[1:], v[:-1], v[1:])
    if event is not None:
        ranges = np.append(ranges, event)
    idx = ranges[:, None] * RANGE_CELLS + np.arange(RANGE_CELLS + 1)
    xs = _grid_x(lo, hi, num, idx)
    return xs, _eval_grid(xi.coeffs, xs)


def _first_crossing(xi, xs, vals):
    """Largest-x sign change: the cells _suspects picks, refined, else the first grid event.

    The cells lie along the last axis of xs and vals: a whole grid, or the
    rows of _scan, in scan order.  _suspects picks them by _scan's rule; each
    may hide a double crossing, so all are refined as rows of one 65-point
    _grid_x sub-grid array, in blocks that bound its memory.
    """
    tops, bottoms = xs[..., :-1].ravel(), xs[..., 1:].ravel()
    vtops, vbottoms = vals[..., :-1].ravel(), vals[..., 1:].ravel()
    cells, event = _suspects(xi, tops, bottoms, vtops, vbottoms)
    for start in range(0, cells.size, 1024):
        block = cells[start : start + 1024, None]
        sub = _grid_x(bottoms[block], tops[block], 64, np.arange(65))
        sv = _eval_grid(xi.coeffs, sub)
        ss = np.sign(sv)
        changes = np.flatnonzero(ss[:, :-1] * ss[:, 1:] <= 0)
        if changes.size:
            r, k = divmod(changes[0], 64)  # the first row with a sign change, and its first cell
            return sub[r, k], sv[r, k], sub[r, k + 1], sv[r, k + 1]
    if event is not None:
        return tops[event], vtops[event], bottoms[event], vbottoms[event]
    return None


def max_root(xi: XiPolynomial, lo: float, hi: float, tol: float) -> RootResult:
    """Largest root of the truncated series in (lo, hi]: its largest sign change, bisected.

    Raises NoRootFound when the series changes sign nowhere in the bracket.
    """
    lo, hi = float(lo), float(hi)
    if not (1.0 < lo < hi <= 2.0):
        raise DomainError(f"bracket must satisfy 1 < lo < hi <= 2, got ({lo}, {hi})")
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")

    hit = _first_crossing(xi, *_scan(xi, lo, hi, RANGE_CELLS * max(xi.order, 2)))
    if hit is None:
        raise NoRootFound(
            f"the order-{xi.order} truncation changes sign nowhere in ({lo!r}, {hi!r}]; try a larger order"
        )
    x_hi, v_hi, x_lo, v_lo = hit
    gamma, residual, bracket = _bisect_root(
        lambda x: xi_eval(xi, x), float(x_lo), float(x_hi), float(v_lo), float(v_hi), tol
    )
    return RootResult(gamma, residual, bracket, ODD_CROSSING)


def _grow(g, start, direction, limit):
    """Widen from a bracket edge while g <= 0; returns (edge, hit_limit)."""
    if g(start) > 0.0:
        return start, False
    span = abs(limit - start)
    if span <= 0.0:
        return start, True
    good, bad = 0.0, None
    frac = 2.0**-40
    while frac < 1.0:
        if g(start + direction * frac * span) > 0.0:
            bad = frac
            break
        good = frac
        frac *= 2.0
    if bad is None:
        if g(limit) <= 0.0:
            return limit, True
        bad = 1.0
    for _ in range(48):
        mid = 0.5 * (good + bad)
        if g(start + direction * mid * span) <= 0.0:
            good = mid
        else:
            bad = mid
    return start + direction * good * span, False


def _uncertainty_interval(xi, root, lo, hi):
    """Maximal interval around the root where |xi_n| stays within twice the tail bound plus its rounding.

    The infinite series' root must lie where the exact truncation is
    tail-small, and the computed value is within _horner_error of the exact
    one, so this interval (united with the bisection bracket) encloses it;
    it lying strictly inside the search bracket is what certifies the
    estimate.
    """
    n = xi.order

    def g(x):
        return abs(xi_eval(xi, x)) - 2.0 * tail_bound(x, n) - _horner_error(xi, x)

    bl = max(min(root.bracket), lo)
    bh = min(max(root.bracket), hi)
    x_lo, hit_lo = _grow(g, bl, -1.0, lo)
    x_hi, hit_hi = _grow(g, bh, +1.0, hi)
    return x_lo, x_hi, not (hit_lo or hit_hi)


def _check_order(n: int) -> None:
    """The spectral estimator's check of its order, before any work: 2 <= n <= kneading.MAX_STEPS."""
    if n < 2:
        raise DomainError("truncation order must be >= 2")
    _check_steps(n)


def entropy_spectral(bp: BranchPair, p, n: int = DEFAULT_ORDER, tol: float = DEFAULT_TOL) -> EntropyEstimate:
    """Entropy of the maps at p from the order-n kneading series truncation.

    The root bracket is ((1 + c_min)/2, 2], floored just above 1; the error
    bound is the half-width, on the log scale, of the interval on which the
    truncated series stays within twice its tail bound.  The kneading is
    exact, of the binary64 values where bp or p is float, so an enclosure
    strictly inside the bracket certifies the estimate.
    """
    _check_order(n)
    kp = kneading_prefixes(bp, p, n)
    xi = xi_coeffs(kp)
    lo = max((1.0 + float(bp.c_min)) / 2.0, math.nextafter(1.0, 2.0))
    hi = 2.0
    root = max_root(xi, lo, hi, tol)
    x_lo, x_hi, inside = _uncertainty_interval(xi, root, lo, hi)
    error_bound = 0.5 * (math.log(x_hi) - math.log(x_lo))
    return EntropyEstimate(math.log(root.gamma), root.gamma, SPECTRAL, n, error_bound, inside)
