import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lorenzmaps import (
    LOWER,
    UPPER,
    BranchPair,
    BranchSpec,
    DomainError,
    InvalidBranch,
    InvalidSlopes,
    LorenzError,
    LorenzMap,
    entropy_laps,
    entropy_spectral,
    kneading_prefixes,
    make_affine_pair,
    make_uniform_pair,
    parse_scalar,
)
from lorenzmaps.maps import MAX_EXPONENT, _coerce, fmt_number

F = Fraction


def affine_orbit_oracle(b0, b1, p, x, n, side):
    """Independent iteration straight from the affine formulas."""
    out = [x]
    for _ in range(n):
        x = out[-1]
        left = x < p if side == UPPER else x <= p
        out.append(b0 * x if left else 1 - b1 + b1 * x)
    return out


class TestMakeAffinePair:
    def test_paper_family(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        assert bp.a == F(9, 19)
        assert bp.b == F(10, 11)
        assert bp.c_min == F(11, 10)
        assert bp.c_max == F(19, 10)

    def test_uniform(self):
        bp = make_affine_pair(F(3, 2), F(3, 2))
        assert (bp.a, bp.b) == (F(1, 3), F(2, 3))

    def test_boundary_slopes_admitted_and_a_above_b_rejected(self):
        bp = make_affine_pair(2, 2)  # b0 + b1 == b0*b1: the doubling map's pair
        assert (bp.a, bp.b) == (F(1, 2), F(1, 2))
        with pytest.raises(InvalidBranch, match="a > b") as info:
            make_affine_pair(2, 3)  # b0 + b1 < b0*b1
        assert str(info.value) == "empty discontinuity interval: a > b (a = 2/3, b = 1/2)"

    def test_slope_at_most_one_rejected(self):
        with pytest.raises(InvalidSlopes):
            make_affine_pair(1, F(3, 2))
        with pytest.raises(InvalidSlopes):
            make_affine_pair(F(3, 2), F(1, 2))

    def test_int_slopes_stay_exact(self):
        # ints and floats alike are held as the Fractions they denote
        spec = BranchSpec(((0, 0), (F(1, 2), 1)))
        assert all(type(v) is F for xy in spec.points for v in xy)
        bp = make_affine_pair(1.2, 1.2)
        assert bp.f0.slopes == (F(1.2),) and bp.a == (F(1.2) - 1) / F(1.2)
        assert all(type(v) is F for f in (bp.f0, bp.f1) for xy in f.points for v in xy)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(50, 400).map(lambda k: F(k, 100)), st.integers(50, 400).map(lambda k: F(k, 100)))
    @example(F(2), F(2))
    @example(F(3, 2), F(3))
    @example(F(3), F(3, 2))
    def test_every_route_admits_the_same_pairs(self, b0, b1):
        # the slopes, the affine JSON and two-point pwl branches: all raise, or all build one pair
        def from_json():
            affine = {"f0": {"type": "affine", "slope": str(b0)}, "f1": {"type": "affine", "slope": str(b1)}}
            return BranchPair.from_json_dict(affine)

        def from_points():
            return BranchPair(BranchSpec(((0, 0), (1 / b0, 1))), BranchSpec((((b1 - 1) / b1, 0), (1, 1))))

        built = []
        for route in (lambda: make_affine_pair(b0, b1), from_json, from_points):
            try:
                built.append(route())
            except InvalidBranch:
                built.append(None)
        assert built[0] == built[1] == built[2]
        assert (built[0] is not None) == (b0 > 1 and b1 > 1 and b0 + b1 >= b0 * b1)


class TestBranchEval:
    def test_uniform_values(self):
        bp = make_uniform_pair(F(3, 2))
        assert bp.f1(F(1, 2)) == F(1, 4)
        assert bp.f0(F(1, 2)) == F(3, 4)

    def test_endpoint_surjectivity(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        assert bp.f0(F(10, 11)) == 1
        assert bp.f0(0) == 0
        assert bp.f1(F(9, 19)) == 0
        assert bp.f1(1) == 1

    def test_outside_domain(self):
        bp = make_uniform_pair(F(3, 2))
        with pytest.raises(DomainError):
            bp.f0(F(3, 4))  # f0 lives on [0, 2/3]
        with pytest.raises(DomainError):
            bp.f1(F(1, 4))

    def test_strictly_increasing(self):
        rng = random.Random(7)
        bp = make_affine_pair(F(11, 10), F(19, 10))
        for _ in range(100):
            spec = rng.choice((bp.f0, bp.f1))
            x = spec.lo + F(rng.randint(0, 999), 1000) * (spec.hi - spec.lo)
            y = spec.lo + F(rng.randint(0, 999), 1000) * (spec.hi - spec.lo)
            if x == y:
                continue
            x, y = min(x, y), max(x, y)
            assert spec(x) < spec(y)

    def test_pwl_slope_extremes_exact(self):
        # slopes 3/2, 5/4 on f0 and 5/2, 3/2 on f1: the extremes lie on different branches
        f0 = BranchSpec(((0, 0), (F(1, 2), F(3, 4)), (F(7, 10), 1)))
        f1 = BranchSpec(((F(2, 5), 0), (F(1, 2), F(1, 4)), (1, 1)))
        pair = BranchPair(f0, f1)
        assert (pair.c_min, pair.c_max) == (F(5, 4), F(5, 2))

    def test_expansion_bounds(self):
        pwl = BranchSpec(((0, 0), (F(1, 4), F(3, 5)), (F(1, 2), 1)))
        pair = BranchPair(pwl, BranchSpec.affine_to_one(F(3, 2)))
        rng = random.Random(11)
        for _ in range(200):
            spec = rng.choice((pair.f0, pair.f1))
            # stay within one linear piece
            k = rng.randrange(len(spec.points) - 1)
            (x1, _), (x2, _) = spec.points[k], spec.points[k + 1]
            u = x1 + F(rng.randint(0, 500), 1000) * (x2 - x1)
            v = x1 + F(rng.randint(501, 1000), 1000) * (x2 - x1)
            assert pair.c_min * (v - u) <= spec(v) - spec(u) <= pair.c_max * (v - u)


class TestInverse:
    def test_uniform_values(self):
        bp = make_uniform_pair(F(3, 2))
        assert bp.f0.inverse(F(1, 2)) == F(1, 3)
        assert bp.f1.inverse(F(1, 2)) == F(2, 3)
        assert bp.f1.inverse(0) == bp.a

    def test_outside_range(self):
        bp = make_uniform_pair(F(3, 2))
        with pytest.raises(DomainError):
            bp.f0.inverse(F(3, 2))

    def test_roundtrip_exact(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        rng = random.Random(3)
        for _ in range(200):
            spec = rng.choice((bp.f0, bp.f1))
            x = spec.lo + F(rng.randint(0, 10**6), 10**6) * (spec.hi - spec.lo)
            assert spec.inverse(spec(x)) == x

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_roundtrip_float_within_ulps(self, t):
        bp = make_affine_pair(1.1, 1.9)
        for spec in (bp.f0, bp.f1):
            x = spec.lo + t * (spec.hi - spec.lo)
            x = min(max(x, spec.lo), spec.hi)
            back = spec.inverse(spec(x))
            assert abs(back - x) <= 4 * math.ulp(max(abs(x), 1.0))

    def test_inverse_contracts(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        rng = random.Random(5)
        for _ in range(100):
            spec = rng.choice((bp.f0, bp.f1))
            y1 = F(rng.randint(0, 1000), 1000)
            y2 = F(rng.randint(0, 1000), 1000)
            if y1 == y2:
                continue
            x1, x2 = spec.inverse(y1), spec.inverse(y2)
            gap = abs(y1 - y2)
            assert gap / bp.c_max <= abs(x1 - x2) <= gap / bp.c_min


class TestLorenzMap:
    def test_side_at_p(self):
        bp = make_uniform_pair(F(3, 2))
        up = LorenzMap(bp, F(1, 2), UPPER)
        lo = LorenzMap(bp, F(1, 2), LOWER)
        assert up(F(1, 2)) == F(1, 4)
        assert lo(F(1, 2)) == F(3, 4)
        assert up(F(1, 5)) == F(3, 10)

    def test_sides_agree_off_p(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        up = LorenzMap(bp, F(7, 10), UPPER)
        lo = LorenzMap(bp, F(7, 10), LOWER)
        rng = random.Random(13)
        for _ in range(200):
            x = F(rng.randint(0, 10**4), 10**4)
            if x == up.p:
                continue
            assert up(x) == lo(x)

    def test_p_outside_interval(self):
        bp = make_uniform_pair(F(3, 2))
        with pytest.raises(DomainError):
            LorenzMap(bp, F(1, 4), UPPER)
        with pytest.raises(DomainError):
            LorenzMap(bp, F(3, 4), UPPER)

    def test_apply_outside_unit_interval(self):
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(1, 2), UPPER)
        with pytest.raises(DomainError):
            m(F(3, 2))
        with pytest.raises(DomainError):
            m(-F(1, 2))

    def test_bad_side(self):
        with pytest.raises(DomainError):
            LorenzMap(make_uniform_pair(F(3, 2)), F(1, 2), "sideways")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, bad):
        with pytest.raises(LorenzError):
            BranchSpec(((0, 0), (bad, 0.5), (0.5, 1)))
        with pytest.raises(LorenzError):
            make_affine_pair(bad, 1.5)
        bp = make_uniform_pair(F(3, 2))
        with pytest.raises(LorenzError):
            LorenzMap(bp, bad, UPPER)
        with pytest.raises(LorenzError):
            LorenzMap(bp, F(1, 2), UPPER).apply(bad)
        with pytest.raises(LorenzError):
            bp.f0.inverse(bad)


_SLOPES = st.floats(1.05, 1.95)


@st.composite
def _float_points(draw):
    # breakpoints of a two-piece pair computed in binary64, every slope in about [1.05, 1.95]
    s0, s1, t0, t1 = (draw(_SLOPES) for _ in range(4))
    y0, y1 = draw(st.floats(0.1, 0.9)), draw(st.floats(0.1, 0.9))
    x0 = y0 / s0
    a = 1 - (y1 / t0 + (1 - y1) / t1)
    return ((0.0, 0.0), (x0, y0), (x0 + (1 - y0) / s1, 1.0)), ((a, 0.0), (a + y1 / t0, y1), (1.0, 1.0))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LorenzError as exc:
        return type(exc)


class TestFloatInputs:
    """A float is read at its binary64 value, so float inputs give the results of their Fractions."""

    @settings(max_examples=30, deadline=None)
    @given(points=_float_points(), t=st.floats(0.01, 0.99))
    def test_same_results_as_fraction_inputs(self, points, t):
        floats = BranchPair(*(BranchSpec(f) for f in points))
        exact = BranchPair(*(BranchSpec(tuple((F(x), F(y)) for x, y in f)) for f in points))
        p = float(floats.a + F(t) * (floats.b - floats.a))
        assert floats == exact
        assert kneading_prefixes(floats, p, 40) == kneading_prefixes(exact, F(p), 40)
        laps = (LorenzMap(floats, p, UPPER), 16, 4), (LorenzMap(exact, F(p), UPPER), 16, 4)
        assert _outcome(entropy_laps, *laps[0]) == _outcome(entropy_laps, *laps[1])
        assert _outcome(entropy_spectral, floats, p, 100) == _outcome(entropy_spectral, exact, F(p), 100)


class TestOrbit:
    def test_two_cycle(self):
        bp = make_uniform_pair(F(3, 2))
        m = LorenzMap(bp, F(3, 5), UPPER)
        expected = affine_orbit_oracle(F(3, 2), F(3, 2), F(3, 5), F(3, 5), 3, UPPER)
        assert expected == [F(3, 5), F(2, 5), F(3, 5), F(2, 5)]
        assert m.orbit(F(3, 5), 3) == expected

    def test_orbit_from_half(self):
        bp = make_uniform_pair(F(3, 2))
        m = LorenzMap(bp, F(1, 2), UPPER)
        expected = affine_orbit_oracle(F(3, 2), F(3, 2), F(1, 2), F(1, 2), 3, UPPER)
        assert expected == [F(1, 2), F(1, 4), F(3, 8), F(9, 16)]
        assert m.orbit(F(1, 2), 3) == expected

    def test_zero_steps(self):
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(1, 2), LOWER)
        assert m.orbit(F(2, 5), 0) == [F(2, 5)]

    def test_negative_steps(self):
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(1, 2), LOWER)
        with pytest.raises(DomainError, match="non-negative"):
            m.orbit(F(2, 5), -1)


class TestBranchSpecValidation:
    def test_needs_slope_above_one(self):
        with pytest.raises(InvalidBranch):
            BranchSpec(((0, 0), (F(1, 2), F(1, 4)), (F(3, 5), 1)))

    def test_needs_unit_images(self):
        with pytest.raises(InvalidBranch):
            BranchSpec(((0, F(1, 10)), (F(1, 2), 1)))
        with pytest.raises(InvalidBranch):
            BranchSpec(((0, 0), (F(1, 2), F(9, 10))))

    def test_needs_increasing_abscissae(self):
        with pytest.raises(InvalidBranch):
            BranchSpec(((0, 0), (F(1, 2), F(1, 2)), (F(1, 2), 1)))

    def test_pair_geometry(self):
        f0 = BranchSpec.affine_from_zero(F(3, 2))
        with pytest.raises(InvalidBranch):
            BranchPair(f0, BranchSpec.affine_from_zero(F(3, 2)))  # f1 must end at 1

    def test_one_breakpoint(self):
        with pytest.raises(InvalidBranch, match="two breakpoints"):
            BranchSpec(((0, 0),))

    def test_f0_must_start_at_zero(self):
        f1 = BranchSpec.affine_to_one(F(3, 2))
        with pytest.raises(InvalidBranch, match="f0 must start"):
            BranchPair(BranchSpec(((F(1, 10), 0), (F(1, 2), 1))), f1)

    def test_empty_discontinuity_interval(self):
        # slopes 3 and 3: b = 1/3 < a = 2/3
        with pytest.raises(InvalidBranch, match="a > b"):
            BranchPair(BranchSpec.affine_from_zero(3), BranchSpec.affine_to_one(3))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 50), st.integers(1, 50)), min_size=1, max_size=5), st.integers(1, 200))
    def test_domain_shorter_than_one(self, pieces, scale):
        # why BranchPair needs no 0 < a and b < 1 check: every branch it accepts, rising by 1
        # with every slope above 1, has a domain shorter than 1
        runs, rises = zip(*pieces)
        xs = [F(sum(runs[:i]), scale) for i in range(len(runs) + 1)]
        ys = [F(sum(rises[:i]), sum(rises)) for i in range(len(rises) + 1)]
        try:
            spec = BranchSpec(tuple(zip(xs, ys)))
        except InvalidBranch:
            return
        assert spec.hi - spec.lo < 1


class TestSerialization:
    def test_affine_read(self):
        obj = {"f0": {"type": "affine", "slope": "11/10"}, "f1": {"type": "affine", "slope": "19/10"}}
        assert BranchPair.from_json_dict(obj) == make_affine_pair(F(11, 10), F(19, 10))

    def test_pwl_read(self):
        f0 = BranchSpec(((0, 0), (F(1, 2), F(3, 4)), (F(7, 10), 1)))
        obj = {
            "f0": {"type": "pwl", "points": [["0", "0"], ["1/2", "3/4"], ["7/10", "1"]]},
            "f1": {"type": "affine", "slope": "2"},
        }
        assert BranchPair.from_json_dict(obj) == BranchPair(f0, BranchSpec.affine_to_one(F(2, 1)))

    def test_readme_example_read(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        obj = json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])
        f1 = BranchSpec(((F(9, 19), 0), (F(3, 4), F(1, 2)), (1, 1)))
        assert BranchPair.from_json_dict(obj) == BranchPair(BranchSpec.affine_from_zero(F(11, 10)), f1)

    def test_unknown_type(self):
        with pytest.raises(InvalidBranch):
            BranchPair.from_json_dict({"f0": {"type": "cubic"}, "f1": {"type": "affine", "slope": "2"}})

    @pytest.mark.parametrize("obj", [{"f0": {"type": "affine", "slope": "2"}}, {}, ["f0", "f1"]])
    def test_missing_branches(self, obj):
        with pytest.raises(InvalidBranch, match="'f0' and 'f1'"):
            BranchPair.from_json_dict(obj)


class TestCoerce:
    def test_bool_rejected(self):
        with pytest.raises(InvalidBranch, match="not a number"):
            _coerce(True)

    def test_text_parsed(self):
        assert _coerce("9/19") == F(9, 19)
        with pytest.raises(DomainError, match="cannot parse"):
            _coerce("abc")

    @pytest.mark.parametrize("value", [1j, [1], None])
    def test_unsupported_type(self, value):
        with pytest.raises(InvalidBranch, match="unsupported numeric type"):
            _coerce(value)


class TestParseScalar:
    def test_fraction_and_decimal(self):
        assert parse_scalar("9/19") == F(9, 19)
        assert parse_scalar("0.5") == F(1, 2)
        assert parse_scalar("1.1") == F(11, 10)
        assert parse_scalar(f"1e-{MAX_EXPONENT}") == F(1, 10**MAX_EXPONENT)

    def test_rejects_garbage(self):
        # an exponent past MAX_EXPONENT is refused before 10**exponent is built
        for text in ("one half", "1e4301", "-2.5E-4301", "1e999999999"):
            with pytest.raises(DomainError):
                parse_scalar(text)


class TestFmtNumber:
    def test_short_numbers_verbatim(self):
        assert fmt_number(F(1, 10)) == "1/10"
        assert fmt_number(F(3)) == "3"
        assert fmt_number(1.5) == "1.5"

    @pytest.mark.parametrize(
        "value, text",
        [
            (F(10) ** 400, "1.0000000000000000e+400"),
            (F(1, 3 * 10**5000), "3.3333333333333333e-5001"),
            (-(F(2) ** 20000) / 3, "-1.3267589467793222e+6020"),
        ],
    )
    def test_long_numbers_to_17_digits(self, value, text):
        # past 4300 digits str() of the numerator raises; the bounded text does not
        assert fmt_number(value) == text

    def test_error_messages_stay_short(self):
        with pytest.raises(DomainError, match=r"^p = 1/10 outside \[1/3, 2/3\]$"):
            LorenzMap(make_uniform_pair(F(3, 2)), F(1, 10))
        with pytest.raises(DomainError) as info:
            LorenzMap(make_uniform_pair(F(3, 2)), F(1, 10**5000))
        assert str(info.value) == "p = 1.0000000000000000e-5000 outside [1/3, 2/3]"
        with pytest.raises(InvalidBranch) as info:
            make_affine_pair(F(10) ** 5000, F(3, 2))
        assert str(info.value) == "empty discontinuity interval: a > b (a = 1/3, b = 1.0000000000000000e-5000)"
