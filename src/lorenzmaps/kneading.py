"""Itineraries and kneading sequences.

The itinerary of a point records, iterate by iterate, which side of the
discontinuity the orbit visits: '0' for the left branch, '1' for the
right.  The upper map resolves a visit to p itself as '1', the lower map
as '0'.  The kneading sequences of a map are the itineraries of p: alpha
under the lower map and beta under the upper map; for p strictly inside
(a, b) they start with '0' and '1' respectively.

Symbol words are plain '0'/'1' strings, so Python's string order is the
lexicographic order with 0 < 1.

Every word comes from one exact integer orbit of an exact map.  A walk
from p reads its period off the same comparison with p that gives each
symbol, so a period is reported exactly when T^k(p) = p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DomainError, LengthMismatch, ResourceLimit
from .maps import LOWER, UPPER, BranchPair, BranchSpec, LorenzMap, _coerce

#: _integer_walk raises ResourceLimit past this many steps, before the first one; the spectral
#: estimate at this order took 49 s and 59 s on the (1.1, 1.9) and (1.05, 1.9) pairs (2-core x86)
MAX_STEPS = 150_000


@dataclass(frozen=True)
class KneadingPair:
    """Finite kneading prefixes plus their certified orbit periods, if any.

    The words have one length (else LengthMismatch), so ``alpha <= beta`` is lexicographic.
    """

    alpha: str
    beta: str
    alpha_period: int | None = None
    beta_period: int | None = None

    def __post_init__(self):
        if len(self.alpha) != len(self.beta):
            raise LengthMismatch(f"kneading prefixes differ in length: {len(self.alpha)} vs {len(self.beta)}")
        for word, period in ((self.alpha, self.alpha_period), (self.beta, self.beta_period)):
            if word.strip("01"):
                raise DomainError(f"symbol words may contain only '0' and '1': {word!r}")
            if period is None:
                continue
            if not 1 <= period <= len(word):
                raise DomainError(f"period must be positive and at most the word length {len(word)}, got {period}")
            if any(word[k + period] != word[k] for k in range(len(word) - period)):
                raise DomainError(f"word {word!r} is not {period}-periodic")


def itinerary(m: LorenzMap, x, n: int) -> str:
    """First n itinerary symbols of x under m (n >= 1); a float x is read at its binary64 value.

    The walk stops early only from p itself, at its period; from any other x
    it takes all n steps.
    """
    return _integer_walk(m, _coerce(x), n)[0]


def _check_steps(n: int) -> None:
    if n > MAX_STEPS:
        raise ResourceLimit(f"{n} orbit steps exceed the cap MAX_STEPS = {MAX_STEPS}")


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

    An orbit value is an unreduced pair (N, D) with D > 0; a piece
    y = (A*x + B)/C steps it to (A*N + B*D, C*D), and every comparison with
    p or a breakpoint is a cross-multiplication, so no step pays for a gcd.
    Each symbol comes from the value's offset N*pd - pn*D from p.  A walk
    from p reads its period off that offset too: T^k(p) = p exactly when the
    offset is 0 at step k + 1, so the smallest such k <= n is the certified
    period, and the walk stops there with the word repeated.  A walk from
    any other x has period None and takes all n steps.  An n below 1 or an
    x outside [0, 1] raises DomainError, and an n past MAX_STEPS
    ResourceLimit, before any step.
    """
    if n < 1:
        raise DomainError(f"need at least one symbol (n >= 1), got n = {n}")
    if not 0 <= x <= 1:
        raise DomainError(f"{x!r} outside [0, 1]")
    _check_steps(n)
    f0, f1 = _integer_pieces(m.branches.f0), _integer_pieces(m.branches.f1)
    pn, pd = m.p.numerator, m.p.denominator
    from_p = x == m.p
    upper = m.side == UPPER
    num, den = x.numerator, x.denominator
    word = []
    for k in range(n + 1):
        offset = num * pd - pn * den
        if offset == 0 and k and from_p:  # T^k(p) = p
            return ("".join(word) * (n // k + 1))[:n], k
        if k == n:
            return "".join(word), None
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


def kneading_prefixes(bp: BranchPair, p, n: int) -> KneadingPair:
    """Kneading prefixes alpha|n (lower map) and beta|n (upper map) at p, for n >= 1.

    Each one-sided orbit of p is walked once, exactly, and attaches its
    certified period up to n; a float p is read at its binary64 value.
    """
    lower = LorenzMap(bp, p, LOWER)
    upper = LorenzMap(bp, p, UPPER)
    alpha, alpha_period = _integer_walk(lower, lower.p, n)
    beta, beta_period = _integer_walk(upper, upper.p, n)
    return KneadingPair(alpha, beta, alpha_period, beta_period)
