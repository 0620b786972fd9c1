"""Lap counting by propagating image-interval classes.

The n-th iterate of a Lorenz map is piecewise increasing; each maximal
monotone piece (a *lap*) maps its domain onto an interval.  Rather than
enumerate the exponentially many laps, we start from the one lap [0, 1]
of T^0 and keep one class per image interval with a multiplicity;
identical images merge by adding multiplicities.  A class [lo, hi] maps
end by end, lo by the upper map and hi by the lower: the two differ only
at p, and lo = p only right of p, where f1 acts, hi = p only left of p,
where f0 acts.  A class with lo < p < hi splits into [T(lo), f0(p)] and
[f1(p), T(hi)].  So a left end is 0 or T^j(p) on the upper orbit of p,
a right end 1 or T^i(p) on the lower orbit, with 1 <= i, j <= step.  The
multiplicities carry the exponential lap growth as exact big integers;
the classes stay few.

Step n has at most 2n classes.  Each class is the image T^n(J) of a lap J
of T^n, an interval whose ends are 0, 1 or cuts: a cut is made at step m
when the class of step m straddles p and splits there.  The lap touching 0
gives one class, and so does the lap touching 1.  Any other lap J has two
cuts made at different steps; say its left cut came first, at step m.
Then T^m maps J onto (p, y), where y = T^m of J's right end returns to p
within n - m - 1 steps, and no point of (p, y) does, or J would be cut
again: y is the first point right of p that returns to p within
n - m - 1 steps.  So y, and with it T^n(J) = T^(n-m)((p, y)), depends
only on the age a = n - m, and a >= 2 since y must return at least once.
That is at most one class per left age a in [2, n], and symmetrically one
per right age: at most 2 + 2(n - 1) = 2n classes in all.  Step 1 at an
interior p has exactly 2, so the bound is tight.  Each map is cached for
the call, so it maps each point once.  Steps 1 to n move the ends of
steps 0 to n - 1: the upper map sees p, 0 and the upper orbit up to
T^(n-1)(p), the lower map p, 1 and the lower orbit up to T^(n-1)(p).
That is n + 1 points each: at most 2n + 2 branch evaluations per call.

The arithmetic is exact, as every map is, so classes merge only when
their images are equal.  ``variation`` is the sum of lap-image lengths,
the quantity whose exponential growth rate is the entropy; for a uniform
slope-b pair it equals b^n to the last digit.

One generator, ``_propagate``, yields each step's LapState and holds only
the current classes, so a caller holds what it keeps: ``lap_states`` keeps
every step, ``lap_count`` the last.  ``lap_report`` propagates once, keeps
ln Var at the three steps its windowed estimate reads, and returns the
estimate with the LapState of T^n: ``laps`` prints both, and
``entropy_laps``, which each lap sweep row runs, the estimate.

The lap automaton.  Write L_0 = 0, R_0 = 1, L_j = T^j(p) on the upper
orbit and R_i = T^i(p) on the lower orbit.  Every class is [L_j, R_i] for
an index pair (j, i), the one lap of T^0 is (0, 0), and a step sends
(j, i) to (j+, 1) and (1, i+) when L_j < p < R_i, else to (j+, i+), where
k+ is 0 for k = 0 and k + 1 otherwise: a fixed end stays, an orbit end
moves on.  Merging equal images adds multiplicities, so total_laps at step
n is the number of paths of length n from (0, 0).  ``lap_enclosure``
bounds their growth with two finite automata of order N, whose states are
the pairs reachable from (0, 0) with both indices at most N:

- the lower automaton drops every move into an index above N; its paths
  are some of the laps;
- the upper automaton widens such an end to the fixed end on its side, L
  to 0 and R to 1.  A true class then lies inside its state's interval.
  If the class splits, so does the state, into intervals holding the
  class's halves; if the class lies left of p (its right end at most p)
  its image lies in the state's image by f0, or in the state's left half
  if the state splits, and symmetrically right of p.  So each lap of T^n
  follows its own path, and total_laps <= paths.

A nonnegative integer matrix A of either automaton and an integer vector
v give Collatz-Wielandt bounds (Horn-Johnson, Matrix Analysis, ch. 8),
checked exactly as Fractions: lambda = min over v_s > 0 of (Av)_s / v_s
has A v >= lambda v, and mu = max over all s of (Av)_s / v_s, for v > 0,
has A v <= mu v.  Every state is reachable from (0, 0), so if (0, 0)
reaches a state s with v_s = max v in k steps, the paths of length k + n
from (0, 0) number at least (A^n v)_s / v_s >= lambda^n; and they number
at most (A^n v)_(0,0) / min v <= mu^n v_(0,0) / min v.  Hence the growth
rate g of total_laps has lambda <= g <= mu.  The proof obligations that
tie g to the entropy:

- e^h <= g: the lap number l(T^n) is submultiplicative, so by Fekete's
  lemma h = lim (1/n) ln l(T^n) = inf (1/n) ln l(T^n) (Misiurewicz-Szlenk
  1980; Misiurewicz-Ziemian 1992 for piecewise continuous maps), and
  total_laps >= l(T^n) since it also splits at every preimage of p;
- g <= e^h: the pieces total_laps counts are those of the partition
  {[0, p), [p, 1]} pulled back along n steps, each with its own n-letter
  itinerary, so total_laps counts the n-words of the itinerary shift.
  T expands, so a whole itinerary pins down its point and the shift
  covers T with fibres of at most two points (the two sides of a preimage
  of p); a finite-to-one factor map keeps the entropy (Bowen 1971), so
  the shift's word growth is e^h (Hubbard-Sparrow 1990).

A damped power iteration in binary64 only proposes v; the bounds hold for
whatever v it proposes, and only their width depends on it.  Both
automata read the orbits of p through ``LorenzMap.apply``, not the
kneading walk, so the two estimators share no orbit code.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, LorenzError, ResourceLimit
from .estimates import LAPS, EntropyEstimate
from .maps import LOWER, UPPER, BranchPair, BranchSpec, LorenzMap

DEFAULT_ITERATES = 50
DEFAULT_WINDOW = 10
#: propagation raises ResourceLimit past this many steps, before the first one; the lap
#: estimate at this order took 23-32 s and 18 MB peak RSS on the (1.1, 1.9) and (1.05, 1.9) pairs (2-core x86)
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


def _propagate(m: LorenzMap, n: int):
    """Yield the LapState after each of the first n steps, propagated from the one lap [0, 1] of T^0.

    Holds only the current classes and the two map caches, so a caller
    that keeps one state holds one step.  An n past MAX_ITERATES raises
    ResourceLimit before any step.
    """
    _check_iterates(n)
    # left ends move by the upper map, right ends by the lower; each maps each point once, for this call only
    up, down = (functools.cache(LorenzMap(m.branches, m.p, side).apply) for side in (UPPER, LOWER))
    p = m.p
    classes = {(Fraction(0), Fraction(1)): 1}
    for step in range(1, n + 1):
        new = {}
        for (lo, hi), mult in classes.items():
            images = ((up(lo), down(p)), (up(p), down(hi))) if lo < p < hi else ((up(lo), down(hi)),)
            for img in images:
                new[img] = new.get(img, 0) + mult
        classes = new
        yield LapState(step, tuple(classes.items()))


#: the power iteration stops once the ratios (Av)_s / v_s of the states it keeps agree to this
#: relative spread, or after POWER_STEPS_MAX steps; it proposes v only, so neither bounds a proof
POWER_SPREAD = 1e-10
POWER_STEPS_MAX = 5000
#: a lower-bound vector keeps the states whose entry, relative to the largest, exceeds this
_KEPT = 2.0**-40


def lap_enclosure(m: LorenzMap, N: int) -> tuple:
    """(lambda, mu) as Fractions with lambda <= e^h <= mu, from the lap automata of order N.

    Proved as the module docstring states; the same for the upper and the
    lower map of (m.branches, m.p).  An N past MAX_ITERATES raises
    ResourceLimit before any step.
    """
    _check_iterates(N)
    p = m.p
    up, down = (LorenzMap(m.branches, p, side).apply for side in (UPPER, LOWER))
    # the split test reads L_j < p and R_i > p; L_0 = 0 and R_0 = 1 pass both
    below, above = [True], [True]
    left = right = p
    for _ in range(N):
        left, right = up(left), down(right)
        below.append(left < p)
        above.append(right > p)
    lower = _rate_bound(_automaton(below, above, widen=False), lower=True)
    upper = _rate_bound(_automaton(below, above, widen=True), lower=False)
    # h >= 0 for every map, so 1 bounds e^h from below whatever vector the iteration proposed
    return max(lower, Fraction(1)), upper


def _automaton(below: list, above: list, widen: bool) -> list:
    """Each state's children, as state numbers, in the order-N lap automaton, N = len(below) - 1.

    States are numbered as a breadth-first walk from (0, 0) meets them, so
    every state is reachable from (0, 0).  A move into an index above N
    widens that end to index 0 if ``widen``, else is dropped.
    """
    order = len(below) - 1
    number = {(0, 0): 0}
    states, children = [(0, 0)], []
    for j, i in states:  # the walk appends the states it meets as it goes
        j1, i1 = j and j + 1, i and i + 1  # a fixed end (index 0) stays, an orbit end moves on
        moves = ((j1, 1), (1, i1)) if below[j] and above[i] else ((j1, i1),)
        kids = []
        for move in moves:
            if max(move) > order:
                if not widen:
                    continue
                move = tuple(k if k <= order else 0 for k in move)
            if move not in number:
                number[move] = len(states)
                states.append(move)
            kids.append(number[move])
        children.append(kids)
    return children


def _rate_bound(children: list, lower: bool) -> Fraction:
    """The Collatz-Wielandt bound on the automaton's spectral radius: lambda if ``lower``, else mu.

    A binary64 power iteration of A + I proposes v; it is scaled to
    integers (kept entries only if ``lower``, every entry at least 1
    otherwise) and the bound is the exact extreme ratio (Av)_s / v_s.
    """
    # the one numpy user besides the grid oracle: importing the lap estimator loads no numpy
    import numpy as np

    size = len(children)
    # a missing child reads the extra entry, which stays 0
    first = np.array([kids[0] if kids else size for kids in children] + [size])
    second = np.array([kids[1] if len(kids) == 2 else size for kids in children] + [size])
    v = np.ones(size + 1)
    v[size] = 0.0
    for _ in range(POWER_STEPS_MAX // 25):
        for _ in range(25):  # entries grow at most 3^25-fold between rescalings
            v += v[first] + v[second]  # A + I: the damping keeps a periodic automaton from oscillating
        v /= v.max()
        kept = v > _KEPT
        ratios = (v[first] + v[second])[kept] / v[kept]
        if ratios.max() - ratios.min() <= POWER_SPREAD * ratios.min():
            break
    v = v[:size].tolist()
    if lower:
        ints = [int(math.ldexp(x, 92)) if x > _KEPT else 0 for x in v]  # a kept entry gets 53 bits
    else:
        # every entry gets 53 significant bits, the smallest one included
        shift = 53 - math.frexp(min(x for x in v if x > 0))[1]
        ints = [max(int(math.ldexp(x, shift)), 1) for x in v]
    pairs = [(sum(ints[c] for c in kids), ints[s]) for s, kids in enumerate(children) if ints[s]]
    # ratios compared by cross multiplication, so only the extreme one becomes a Fraction
    by_ratio = functools.cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])
    return Fraction(*(min if lower else max)(pairs, key=by_ratio))


def lap_states(m: LorenzMap, n: int) -> list:
    """LapState after each of the first n steps, propagated from the one lap [0, 1] of T^0.

    An n past MAX_ITERATES raises ResourceLimit before any step.
    """
    return list(_propagate(m, n))


def lap_count(m: LorenzMap, n: int):
    """(lap count of T^n, sum of its lap-image lengths)."""
    for state in _propagate(m, n):
        pass
    return state.total_laps, state.total_variation


def lap_count_bruteforce(m: LorenzMap, n: int, grid: int = 10**5) -> int:
    """Grid estimate of the lap count of T^n, independent of class propagation.

    The last entry of lap_counts_bruteforce(m, n, grid); the same checks
    raise DomainError before any sampling.
    """
    return lap_counts_bruteforce(m, n, grid)[-1]


def lap_counts_bruteforce(m: LorenzMap, n: int, grid: int = 10**5) -> list:
    """Grid estimates of the lap counts of T^1, ..., T^n, in one pass over the grid.

    Samples T^k at grid+1 uniform points after each step k; a branch
    boundary shows up either as a descent or as a rise exceeding the
    largest possible within-branch rise c_max^k / grid (branch boundaries
    can jump upward when the two one-sided orbits of p land in different
    order later on).  Converges to the true lap count once the grid
    resolves the narrowest lap and the smallest jump.  Intended as an
    oracle for small n: an n at which c_max^n overflows binary64 raises
    DomainError before any sampling.
    """
    # the one numpy user of this module: importing the lap estimator loads no numpy
    import numpy as np

    if n < 1:
        raise DomainError("need at least one step")
    if grid < 2:
        raise DomainError("grid too small")
    mf = _binary64(m)
    c_max = float(mf.branches.c_max)
    try:
        c_max**n  # the largest rise bound, that of step n, must be a finite binary64
    except OverflowError:
        limit = int(math.log(sys.float_info.max) / _ln(mf.branches.c_max))
        raise DomainError(f"n = {n} exceeds {limit}, the largest n at which c_max^n is a finite binary64") from None
    p = float(mf.p)
    (xs0, ys0), (xs1, ys1) = (np.array(f.points, dtype=float).T for f in (mf.branches.f0, mf.branches.f1))
    y = np.linspace(0.0, 1.0, grid + 1)
    upper = mf.side == UPPER
    counts = []
    for k in range(1, n + 1):
        mask = y < p if upper else y <= p
        y = np.where(mask, np.interp(y, xs0, ys0), np.interp(y, xs1, ys1))
        rise = np.diff(y)
        max_branch_rise = c_max**k / grid
        counts.append(int(np.count_nonzero((rise <= 0) | (rise > max_branch_rise * (1 + 1e-9)))) + 1)
        del rise  # a grid-sized array: the next step's interpolation must not hold it as well
    return counts


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


def entropy_laps(m: LorenzMap, n: int | None = None, window: int | None = None) -> EntropyEstimate:
    """Entropy as the windowed growth rate of the lap-image variation.

    entropy = (ln Var(T^n) - ln Var(T^{n-window})) / window; the error
    field is the heuristic |slope(n) - slope(n-window)| (with the early
    window shortened when n < 2*window), and the estimate is never
    certified.  None for n or window takes the default (lap_parameters).
    """
    return lap_report(m, n, window)[0]


def lap_parameters(n: int | None, window: int | None) -> tuple:
    """(n, window), None read as DEFAULT_ITERATES or DEFAULT_WINDOW, once n > window >= 1 and n <= MAX_ITERATES."""
    n = DEFAULT_ITERATES if n is None else n
    window = DEFAULT_WINDOW if window is None else window
    if window < 1 or n <= window:
        raise DomainError("need n > window >= 1")
    _check_iterates(n)
    return n, window


def lap_report(m: LorenzMap, n: int | None, window: int | None):
    """(entropy_laps(m, n, window), the LapState of T^n), from one propagation that keeps one step."""
    n, window = lap_parameters(n, window)
    k = n - window
    start = max(k - window, 0)
    # ln Var(T^j) at the three steps read; Var(T^0) = 1
    lv = {0: 0.0}
    for state in _propagate(m, n):
        if state.step in (start, k, n):
            lv[state.step] = _ln(state.total_variation)
    slope = (lv[n] - lv[k]) / window
    prev = (lv[k] - lv[start]) / (k - start)
    error = abs(slope - prev)
    return EntropyEstimate(slope, math.exp(slope), LAPS, n, error, False), state
