"""Itineraries and kneading sequences.

The itinerary of a point records, iterate by iterate, which side of the
discontinuity the orbit visits: '0' for the left branch, '1' for the
right.  The upper map resolves a visit to p itself as '1', the lower map
as '0'.  The kneading sequences of a map are the itineraries of p: alpha
under the lower map and beta under the upper map; for p strictly inside
(a, b) they start with '0' and '1' respectively.

Symbol words are plain '0'/'1' strings, so Python's string order is the
lexicographic order with 0 < 1.

Every word comes from one exact integer orbit of an exact map, and a
period is reported exactly when T^k(p) = p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DomainError, LengthMismatch
from .maps import LOWER, UPPER, BranchPair, BranchSpec, LorenzMap, _coerce

LESS, EQUAL, GREATER = -1, 0, 1


def _check_word(word: str) -> None:
    if word.strip("01"):
        raise DomainError(f"symbol words may contain only '0' and '1': {word!r}")


@dataclass(frozen=True)
class KneadingPair:
    """Finite kneading prefixes plus their certified orbit periods, if any."""

    alpha: str
    beta: str
    alpha_period: int | None = None
    beta_period: int | None = None

    def __post_init__(self):
        _check_word(self.alpha)
        _check_word(self.beta)
        for word, period in ((self.alpha, self.alpha_period), (self.beta, self.beta_period)):
            if period is None:
                continue
            if period < 1:
                raise DomainError(f"period must be positive, got {period}")
            if any(word[k + period] != word[k] for k in range(len(word) - period)):
                raise DomainError(f"word {word!r} is not {period}-periodic")


def itinerary(m: LorenzMap, x, n: int) -> str:
    """First n itinerary symbols of x under m (n >= 1); a float x is read at its binary64 value."""
    if n < 1:
        raise DomainError("itinerary length must be >= 1")
    x = _coerce(x)
    if not 0 <= x <= 1:
        raise DomainError(f"{x!r} outside [0, 1]")
    return _integer_walk(m, x, n)[0]


def _integer_pieces(spec: BranchSpec):
    # interior breakpoints as (num, den), and each piece as (A, B, C) with y = (A*x + B)/C
    cuts = tuple((x.numerator, x.denominator) for x, _ in spec.points[1:-1])
    pieces = []
    for (x0, y0), slope in zip(spec.points, spec.slopes):
        shift = y0 - slope * x0
        c = lcm(slope.denominator, shift.denominator)
        pieces.append((int(slope * c), int(shift * c), c))
    return cuts, pieces


def _integer_walk(m: LorenzMap, x: Fraction, n: int):
    """(first n itinerary symbols of x, certified period) from one integer orbit of x in [0, 1].

    The period is the smallest k <= n with T^k(x) = x, or None.  An orbit
    value is an unreduced pair (N, D) with D > 0; a piece y = (A*x + B)/C
    steps it to (A*N + B*D, C*D), and every comparison with p, a breakpoint
    or x is a cross-multiplication, so no step pays for a gcd.  A certified
    period k makes the word k-periodic, so the walk stops there.
    """
    f0, f1 = _integer_pieces(m.branches.f0), _integer_pieces(m.branches.f1)
    pn, pd = m.p.numerator, m.p.denominator
    xn, xd = x.numerator, x.denominator
    upper = m.side == UPPER
    num, den = xn, xd
    word = []
    for k in range(1, n + 1):
        offset = num * pd - pn * den
        right = offset >= 0 if upper else offset > 0
        word.append("1" if right else "0")
        cuts, pieces = f1 if right else f0
        i = 0
        for cn, cd in cuts:  # ascending: stop at the first breakpoint right of the value
            if num * cd < cn * den:
                break
            i += 1
        a, b, c = pieces[i]
        num, den = a * num + b * den, c * den
        if num * xd == xn * den:
            return ("".join(word) * (n // k + 1))[:n], k
    return "".join(word), None


def kneading_prefixes(bp: BranchPair, p, n: int) -> KneadingPair:
    """Kneading prefixes alpha|n (lower map) and beta|n (upper map) at p, for n >= 1.

    Each one-sided orbit of p is walked once, exactly, and attaches its
    certified period up to n; a float p is read at its binary64 value.
    """
    if n < 1:
        raise DomainError("kneading prefix length must be >= 1")
    lower = LorenzMap(bp, p, LOWER)
    upper = LorenzMap(bp, p, UPPER)
    alpha, alpha_period = _integer_walk(lower, lower.p, n)
    beta, beta_period = _integer_walk(upper, upper.p, n)
    return KneadingPair(alpha, beta, alpha_period, beta_period)


def detect_period(bp: BranchPair, p, side: str, n_max: int) -> int | None:
    """Certified smallest n <= n_max with T^n(p) = p, or None; n_max <= 0 gives None."""
    m = LorenzMap(bp, p, side)
    return _integer_walk(m, m.p, n_max)[1]


def compare_lex(u: str, v: str) -> int:
    """-1, 0 or +1 as u precedes, equals or follows v lexicographically."""
    _check_word(u)
    _check_word(v)
    if len(u) != len(v):
        raise LengthMismatch(f"word lengths differ: {len(u)} vs {len(v)}")
    return (u > v) - (u < v)
