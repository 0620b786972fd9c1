"""Itineraries and kneading sequences.

The itinerary of a point records, iterate by iterate, which side of the
discontinuity the orbit visits: '0' for the left branch, '1' for the
right.  The upper map resolves a visit to p itself as '1', the lower map
as '0'.  The kneading sequences of a map are the itineraries of p: alpha
under the lower map and beta under the upper map; for p strictly inside
(a, b) they start with '0' and '1' respectively.

Symbol words are plain '0'/'1' strings, so Python's string order is the
lexicographic order with 0 < 1.

Periods are reported only when certified: an exact map proves T^k(p) = p,
while a float map's rounded orbit proves nothing and gets no period.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, LengthMismatch
from .maps import LOWER, UPPER, BranchPair, LorenzMap

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

    @property
    def length(self) -> int:
        return len(self.alpha)


def itinerary(m: LorenzMap, x, n: int) -> str:
    """First n itinerary symbols of x under m (n >= 1)."""
    if n < 1:
        raise DomainError("itinerary length must be >= 1")
    return _walk(m, x, n)[0]


def _walk(m: LorenzMap, x, n: int):
    """(itinerary(m, x, n), certified period) from one orbit of x.

    An exact map walks n steps and returns the smallest k <= n with
    T^k(x) = x, or None.  A float map walks the n - 1 steps its symbols
    need and returns None: a rounded orbit certifies no period.
    """
    exact = m.is_exact
    orbit = m.orbit(x, n if exact else n - 1)
    p = m.p
    if m.side == UPPER:
        symbols = "".join(["1" if v >= p else "0" for v in orbit[:n]])
    else:
        symbols = "".join(["0" if v <= p else "1" for v in orbit[:n]])
    period = next((k for k in range(1, n + 1) if orbit[k] == orbit[0]), None) if exact else None
    return symbols, period


def kneading_prefixes(bp: BranchPair, p, n: int) -> KneadingPair:
    """Kneading prefixes alpha|n (lower map) and beta|n (upper map) at p, for n >= 1.

    An exact map attaches the certified orbit periods up to n; a float map
    leaves both unset.  Each one-sided orbit of p is walked once.
    """
    if n < 1:
        raise DomainError("kneading prefix length must be >= 1")
    lower = LorenzMap(bp, p, LOWER)
    upper = LorenzMap(bp, p, UPPER)
    alpha, alpha_period = _walk(lower, lower.p, n)
    beta, beta_period = _walk(upper, upper.p, n)
    return KneadingPair(alpha, beta, alpha_period, beta_period)


def detect_period(bp: BranchPair, p, side: str, n_max: int) -> int | None:
    """Certified smallest n <= n_max with T^n(p) = p, or None.

    Periods are certified in exact mode only, so a float map raises
    DomainError; n_max <= 0 gives None.
    """
    m = LorenzMap(bp, p, side)
    if n_max < 1:
        return None
    if not m.is_exact:
        raise DomainError("periods are certified in exact mode only")
    return _walk(m, m.p, n_max)[1]


def compare_lex(u: str, v: str) -> int:
    """-1, 0 or +1 as u precedes, equals or follows v lexicographically."""
    _check_word(u)
    _check_word(v)
    if len(u) != len(v):
        raise LengthMismatch(f"word lengths differ: {len(u)} vs {len(v)}")
    return (u > v) - (u < v)
