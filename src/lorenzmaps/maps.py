"""Branch pairs and Lorenz interval maps.

A Lorenz map is a self-map of [0, 1] with a single discontinuity at p and
two continuous, strictly increasing branches f0 : [0, b] -> [0, 1] and
f1 : [a, 1] -> [0, 1], both onto, where 0 < a <= p <= b < 1.  The *upper*
map applies f1 at x = p, the *lower* map applies f0 there; everywhere else
the two agree.  Every linear piece of a branch must have slope > 1, so the
map expands and the inverse branches contract.

Every number a map holds or computes is a ``fractions.Fraction``: text is
read by ``parse_scalar``, an integer as itself and a float at its exact
binary64 value, while NaN and infinities are rejected.  So every map is
exact when it is built, and no orbit point or lap image is ever rounded.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction

from .errors import DomainError, InvalidBranch, InvalidSlopes

UPPER = "upper"
LOWER = "lower"

#: largest decimal exponent magnitude parse_scalar reads: Python's default digit limit
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"\s*[-+]?[\d_.]*[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_scalar(text) -> Fraction:
    """Parse "0.5", "9/19", "1.1", 3, ... into the Fraction it denotes exactly.

    An exponent past ``MAX_EXPONENT`` is rejected unbuilt; an error echoes at most 40 characters.
    """
    text = str(text)
    shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}..."
    exponent = _EXPONENT.match(text)
    try:
        if not (exponent and abs(int(exponent[1])) > MAX_EXPONENT):
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse number: {shown}") from exc
    raise DomainError(f"decimal exponent of {shown} exceeds {MAX_EXPONENT} in magnitude")


def _coerce(value) -> Fraction:
    # the exact value of a number: a float is read at its binary64 value
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidBranch(f"not a number: {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"not a finite number: {value!r}")
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise InvalidBranch(f"unsupported numeric type: {type(value).__name__}")


def fmt_number(value) -> str:
    """Bounded text for an error message: floats and 128-bit Fractions verbatim, others to 17 digits."""
    if isinstance(value, float) or value.numerator.bit_length() + value.denominator.bit_length() <= 128:
        return str(value)
    ctx = Context(prec=17, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return format(ctx.divide(Decimal(value.numerator), Decimal(value.denominator)), ".16e")


@dataclass(frozen=True)
class BranchSpec:
    """One branch: a piecewise-linear, strictly increasing map onto [0, 1].

    ``points`` are the breakpoints ((x0, 0), ..., (xk, 1)); an affine branch
    is the two-point case.  Every piece must have slope > 1.
    """

    points: tuple

    def __post_init__(self):
        pts = tuple((_coerce(x), _coerce(y)) for x, y in self.points)
        if len(pts) < 2:
            raise InvalidBranch("a branch needs at least two breakpoints")
        xs = tuple(x for x, _ in pts)
        ys = tuple(y for _, y in pts)
        if any(x1 >= x2 for x1, x2 in zip(xs, xs[1:])):
            raise InvalidBranch("breakpoint abscissae must be strictly increasing")
        if ys[0] != 0 or ys[-1] != 1:
            raise InvalidBranch("a branch must map its domain endpoints to 0 and 1")
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            if y2 - y1 <= x2 - x1:
                raise InvalidBranch("every linear piece needs slope > 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_xs", xs)
        object.__setattr__(self, "_ys", ys)
        object.__setattr__(
            self,
            "_slopes",
            tuple((y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(pts, pts[1:])),
        )

    @property
    def lo(self) -> Fraction:
        return self.points[0][0]

    @property
    def hi(self) -> Fraction:
        return self.points[-1][0]

    @property
    def slopes(self) -> tuple:
        return self._slopes

    @classmethod
    def affine_from_zero(cls, slope) -> "BranchSpec":
        """The branch x -> slope*x on [0, 1/slope]; the usual f0."""
        slope = _coerce(slope)
        if slope <= 1:
            raise InvalidSlopes(f"affine branch slope must exceed 1, got {fmt_number(slope)}")
        return cls(((0, 0), (1 / slope, 1)))

    @classmethod
    def affine_to_one(cls, slope) -> "BranchSpec":
        """The branch x -> 1 - slope + slope*x on [(slope-1)/slope, 1]; the usual f1."""
        slope = _coerce(slope)
        if slope <= 1:
            raise InvalidSlopes(f"affine branch slope must exceed 1, got {fmt_number(slope)}")
        return cls((((slope - 1) / slope, 0), (1, 1)))

    def _piece(self, seq, value) -> int:
        i = bisect.bisect_right(seq, value) - 1
        return min(max(i, 0), len(seq) - 2)

    def __call__(self, x) -> Fraction:
        x = _coerce(x)
        if x < self.lo or x > self.hi:
            raise DomainError(f"{x!r} outside branch domain [{self.lo}, {self.hi}]")
        i = self._piece(self._xs, x)
        return self._ys[i] + self._slopes[i] * (x - self._xs[i])

    def inverse(self, y) -> Fraction:
        """The unique x with branch(x) = y, for y in [0, 1]."""
        y = _coerce(y)
        if y < 0 or y > 1:
            raise DomainError(f"{y!r} outside [0, 1]")
        i = self._piece(self._ys, y)
        return self._xs[i] + (y - self._ys[i]) / self._slopes[i]


@dataclass(frozen=True)
class BranchPair:
    """The branch pair (f0, f1) together with the interval [a, b] of admissible p.

    0 < a and b < 1 need no check: a branch rises by 1 with every slope
    above 1, so its domain is shorter than 1.
    """

    f0: BranchSpec
    f1: BranchSpec

    def __post_init__(self):
        if self.f0.lo != 0:
            raise InvalidBranch("f0 must start at x = 0")
        if self.f1.hi != 1:
            raise InvalidBranch("f1 must end at x = 1")
        if self.a > self.b:
            bounds = f"a = {fmt_number(self.a)}, b = {fmt_number(self.b)}"
            raise InvalidBranch(f"empty discontinuity interval: a > b ({bounds})")

    @property
    def a(self) -> Fraction:
        return self.f1.lo

    @property
    def b(self) -> Fraction:
        return self.f0.hi

    @property
    def c_min(self) -> Fraction:
        return min(self.f0.slopes + self.f1.slopes)

    @property
    def c_max(self) -> Fraction:
        return max(self.f0.slopes + self.f1.slopes)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BranchPair":
        try:
            f0_obj, f1_obj = obj["f0"], obj["f1"]
        except (TypeError, KeyError) as exc:
            raise InvalidBranch("branch JSON needs 'f0' and 'f1' entries") from exc
        return cls(_branch_from_json(f0_obj, "f0"), _branch_from_json(f1_obj, "f1"))


def _branch_from_json(obj: dict, role: str) -> BranchSpec:
    if not isinstance(obj, dict):
        raise InvalidBranch(f"{role} must be a JSON object, got {obj!r}")
    kind = obj.get("type")
    if kind == "affine":
        if "slope" not in obj:
            raise InvalidBranch(f"affine branch {role} needs a 'slope'")
        slope = parse_scalar(obj["slope"])
        return BranchSpec.affine_from_zero(slope) if role == "f0" else BranchSpec.affine_to_one(slope)
    if kind == "pwl":
        try:
            pairs = [(x, y) for x, y in obj["points"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidBranch(f"pwl branch {role} needs 'points' as a list of [x, y] pairs") from exc
        return BranchSpec(tuple((parse_scalar(x), parse_scalar(y)) for x, y in pairs))
    raise InvalidBranch(f"unknown branch type {kind!r} for {role}")


def make_affine_pair(b0, b1) -> BranchPair:
    """Affine pair f0(x) = b0*x on [0, 1/b0], f1(x) = 1 - b1 + b1*x on [(b1-1)/b1, 1].

    The branches need b0, b1 > 1 (else InvalidSlopes) and BranchPair needs
    b0 + b1 >= b0*b1, which is exactly a = (b1-1)/b1 <= 1/b0 = b (else
    InvalidBranch); b0 = b1 = 2 is the doubling map, with a = p = b = 1/2.
    """
    return BranchPair(BranchSpec.affine_from_zero(b0), BranchSpec.affine_to_one(b1))


def make_uniform_pair(b) -> BranchPair:
    """Affine pair with both slopes equal to b (entropy is exactly ln b)."""
    return make_affine_pair(b, b)


@dataclass(frozen=True)
class LorenzMap:
    """One of the two maps induced by a branch pair and a discontinuity p."""

    branches: BranchPair
    p: Fraction
    side: str = UPPER

    def __post_init__(self):
        object.__setattr__(self, "p", _coerce(self.p))
        if self.side not in (UPPER, LOWER):
            raise DomainError(f"side must be {UPPER!r} or {LOWER!r}, got {self.side!r}")
        if not (self.branches.a <= self.p <= self.branches.b):
            bounds = ", ".join(fmt_number(v) for v in (self.branches.a, self.branches.b))
            raise DomainError(f"p = {fmt_number(self.p)} outside [{bounds}]")

    def apply(self, x) -> Fraction:
        x = _coerce(x)
        if x < 0 or x > 1:
            raise DomainError(f"{x!r} outside [0, 1]")
        if self.side == UPPER:
            return self.branches.f0(x) if x < self.p else self.branches.f1(x)
        return self.branches.f0(x) if x <= self.p else self.branches.f1(x)

    __call__ = apply

    def orbit(self, x, n: int) -> list:
        """[x, T(x), ..., T^n(x)]; n + 1 values."""
        if n < 0:
            raise DomainError("orbit length must be non-negative")
        out = [_coerce(x)]
        for _ in range(n):
            out.append(self.apply(out[-1]))
        return out
