import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import lorenzmaps.kneading as kneading
from lorenzmaps import (
    LOWER,
    UPPER,
    BranchPair,
    BranchSpec,
    DomainError,
    KneadingPair,
    LorenzMap,
    itinerary,
    kneading_prefixes,
    make_affine_pair,
    make_uniform_pair,
)

F = Fraction


def itinerary_oracle(b0, b1, p, x, n, side):
    """Symbols computed straight from the affine formulas, no library calls."""
    word = []
    for _ in range(n):
        if side == UPPER:
            word.append("1" if x >= p else "0")
            x = b0 * x if x < p else 1 - b1 + b1 * x
        else:
            word.append("0" if x <= p else "1")
            x = b0 * x if x <= p else 1 - b1 + b1 * x
    return "".join(word)


class TestItinerary:
    def test_upper_two_cycle(self):
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(3, 5), UPPER)
        assert itinerary(m, F(3, 5), 4) == "1010"
        assert itinerary_oracle(F(3, 2), F(3, 2), F(3, 5), F(3, 5), 4, UPPER) == "1010"

    def test_lower_word(self):
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(3, 5), LOWER)
        assert itinerary(m, F(3, 5), 6) == "011110"
        assert itinerary_oracle(F(3, 2), F(3, 2), F(3, 5), F(3, 5), 6, LOWER) == "011110"

    def test_half_word(self):
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(1, 2), UPPER)
        expected = itinerary_oracle(F(3, 2), F(3, 2), F(1, 2), F(1, 2), 9, UPPER)
        assert expected == "100101001"
        assert itinerary(m, F(1, 2), 9) == expected

    def test_needs_positive_length(self):
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(1, 2), UPPER)
        with pytest.raises(DomainError):
            itinerary(m, F(1, 2), 0)

    def test_prefix_consistency(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        rng = random.Random(23)
        for _ in range(25):
            x = F(rng.randint(0, 1000), 1000)
            p = bp.a + F(rng.randint(1, 99), 100) * (bp.b - bp.a)
            m = LorenzMap(bp, p, rng.choice((UPPER, LOWER)))
            n = rng.randint(1, 30)
            assert itinerary(m, x, n + 1)[:n] == itinerary(m, x, n)

    def test_shift_compatibility(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        rng = random.Random(29)
        for _ in range(25):
            p = bp.a + F(rng.randint(1, 99), 100) * (bp.b - bp.a)
            m = LorenzMap(bp, p, rng.choice((UPPER, LOWER)))
            x = F(rng.randint(0, 1000), 1000)
            n = rng.randint(1, 20)
            if any(v == p for v in m.orbit(x, n + 1)):
                continue
            assert itinerary(m, m(x), n) == itinerary(m, x, n + 1)[1:]

    # a walk from x != p never stops early, whether or not x is periodic
    def test_upper_two_cycle_from_its_other_point(self):
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(3, 5), UPPER)
        assert itinerary(m, F(2, 5), 9) == "010101010"

    @pytest.mark.parametrize("n", [1, 2, 9, 200])
    def test_fixed_endpoints(self, n):
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(3, 5), UPPER)
        assert itinerary(m, 0, n) == "0" * n
        assert itinerary(m, 1, n) == "1" * n

    @pytest.mark.parametrize("p, period", [(F(3, 5), 2), (F(7, 13), 4)])
    def test_points_of_a_periodic_orbit_of_p_read_shifted_beta(self, p, period):
        bp = make_uniform_pair(F(3, 2))
        m = LorenzMap(bp, p, UPPER)
        n = 11
        beta = kneading_prefixes(bp, p, n + period).beta
        assert kneading_prefixes(bp, p, n).beta_period == period
        for j, x in enumerate(m.orbit(p, period)):
            assert itinerary(m, x, n) == beta[j : j + n]


class TestKneadingPrefixes:
    def test_periodic_beta(self):
        kp = kneading_prefixes(make_uniform_pair(F(3, 2)), F(3, 5), 4)
        assert (kp.alpha, kp.beta) == ("0111", "1010")
        assert kp.beta_period == 2
        assert kp.alpha_period is None

    def test_no_period_at_half(self):
        kp = kneading_prefixes(make_uniform_pair(F(3, 2)), F(1, 2), 4)
        assert (kp.alpha, kp.beta) == ("0110", "1001")
        assert kp.alpha_period is None and kp.beta_period is None

    def test_one_symbol(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        kp = kneading_prefixes(bp, F(7, 10), 1)
        assert (kp.alpha, kp.beta) == ("0", "1")

    def test_interior_start_symbols(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        rng = random.Random(31)
        for _ in range(20):
            p = bp.a + F(rng.randint(1, 9999), 10000) * (bp.b - bp.a)
            kp = kneading_prefixes(bp, p, 12)
            assert kp.alpha[0] == "0" and kp.beta[0] == "1"
            assert kp.alpha < kp.beta

    def test_one_walk_matches_itinerary_and_orbit_oracle(self):
        cases = [(make_uniform_pair(F(3, 2)), F(3, 5)), (make_uniform_pair(F(3, 2)), F(2, 5))]
        bp = make_affine_pair(F(11, 10), F(19, 10))
        rng = random.Random(37)
        cases += [(bp, bp.a + F(rng.randint(1, 999), 1000) * (bp.b - bp.a)) for _ in range(6)]
        for bp, p in cases:
            for n in (1, 2, 3, 9):
                kp = kneading_prefixes(bp, p, n)
                assert kp.alpha == itinerary(LorenzMap(bp, p, LOWER), p, n)
                assert kp.beta == itinerary(LorenzMap(bp, p, UPPER), p, n)
                assert kp.alpha_period == orbit_walk_oracle(bp, p, n, LOWER)[1]
                assert kp.beta_period == orbit_walk_oracle(bp, p, n, UPPER)[1]
        # the period is found on the n-th application, one past the last symbol
        assert kneading_prefixes(make_uniform_pair(F(3, 2)), F(3, 5), 2).beta_period == 2
        assert kneading_prefixes(make_uniform_pair(F(3, 2)), F(2, 5), 2).alpha_period == 2
        assert kneading_prefixes(make_uniform_pair(F(3, 2)), F(7, 13), 4).beta_period == 4

    @pytest.mark.parametrize("n", [0, -1])
    def test_length_below_one_rejected_in_both_modes(self, n):
        bp = make_uniform_pair(F(3, 2))
        for pair, p in ((bp, F(3, 5)), (make_uniform_pair(1.5), 0.6)):
            with pytest.raises(DomainError, match=">= 1"):
                kneading_prefixes(pair, p, n)

    def test_one_orbit_walk_per_side(self, monkeypatch):
        # exact and float maps alike walk each side once on integers and never apply the map
        walks, applies = [], []
        walk, apply = kneading._integer_walk, LorenzMap.apply
        monkeypatch.setattr(kneading, "_integer_walk", lambda m, x, n: walks.append(m.side) or walk(m, x, n))
        monkeypatch.setattr(LorenzMap, "apply", lambda m, x: applies.append(x) or apply(m, x))
        for bp, p in ((make_uniform_pair(F(3, 2)), F(3, 5)), (make_uniform_pair(1.5), 0.6)):
            walks.clear()
            kneading_prefixes(bp, p, 8)
            assert sorted(walks) == [LOWER, UPPER]
            assert applies == []

    def test_float_map_has_the_exact_periods(self):
        # every number of this pair and p = 3/8 is a binary64 value, so the float map is the exact map
        kp = kneading_prefixes(float_pair(PWL_PAIR), 0.375, 12)
        assert kp == kneading_prefixes(PWL_PAIR, F(3, 8), 12)
        assert (kp.beta, kp.beta_period, kp.alpha_period) == ("101010101010", 2, None)

    def test_p_outside(self):
        with pytest.raises(DomainError):
            kneading_prefixes(make_uniform_pair(F(3, 2)), F(1, 5), 4)

    def test_periodicity_validated(self):
        with pytest.raises(DomainError):
            KneadingPair("0110", "1011", beta_period=2)

    @pytest.mark.parametrize("period", [0, -1])
    def test_period_below_one(self, period):
        with pytest.raises(DomainError, match="period must be positive"):
            KneadingPair("0101", "1010", alpha_period=period)
        with pytest.raises(DomainError, match="period must be positive"):
            KneadingPair("0101", "1010", beta_period=period)

    def test_period_longer_than_word(self):
        # a period past the word would stand for symbols the word does not hold
        with pytest.raises(DomainError, match="at most the word length 2"):
            KneadingPair("01", "10", beta_period=3)
        with pytest.raises(DomainError, match="at most the word length 2"):
            KneadingPair("01", "10", alpha_period=3)
        assert KneadingPair("01", "10", alpha_period=2, beta_period=2).beta_period == 2

    def test_non_binary_symbols(self):
        for alpha, beta in (("012", "100"), ("011", "1a0")):
            with pytest.raises(DomainError, match="only '0' and '1'"):
                KneadingPair(alpha, beta)


def float_pair(bp):
    # bp with every breakpoint rounded to binary64, the floats passed straight to the constructors
    return BranchPair(*(BranchSpec(tuple((float(x), float(y)) for x, y in f.points)) for f in (bp.f0, bp.f1)))


#: f0 = ((0, 0), (1/2, 1)), f1 = ((1/4, 0), (1/2, 3/8), (1, 1)): beta of p = 3/8 has period 2
PWL_PAIR = BranchPair(
    BranchSpec(((0, 0), (F(1, 2), 1))), BranchSpec(((F(1, 4), 0), (F(1, 2), F(3, 8)), (1, 1)))
)


def orbit_walk_oracle(bp, p, n, side):
    """(word, period) from LorenzMap.orbit: the Fraction walk the integer walk replaces."""
    orbit = LorenzMap(bp, p, side).orbit(p, n)
    if side == UPPER:
        word = "".join("1" if v >= p else "0" for v in orbit[:n])
    else:
        word = "".join("0" if v <= p else "1" for v in orbit[:n])
    return word, next((k for k in range(1, n + 1) if orbit[k] == orbit[0]), None)


_UNIT = st.integers(1, 999).map(lambda k: F(k, 1000))  # a fraction strictly inside (0, 1)
# slopes in (1, 2) always satisfy b0 + b1 > b0 * b1
_AFFINE_PAIRS = st.builds(make_affine_pair, *[st.integers(101, 199).map(lambda k: F(k, 100))] * 2)


@st.composite
def _two_piece_pairs(draw):
    # one interior breakpoint per branch; each t in (0, 1) keeps both slopes above 1
    b = F(draw(st.integers(30, 95)), 100)
    a = b * draw(_UNIT)
    x0 = b * draw(_UNIT)
    y0 = x0 + (1 - b) * draw(_UNIT)
    x1 = a + (1 - a) * draw(_UNIT)
    y1 = x1 - a + a * draw(_UNIT)
    return BranchPair(BranchSpec(((0, 0), (x0, y0), (b, 1))), BranchSpec(((a, 0), (x1, y1), (1, 1))))


class TestIntegerWalk:
    """Exact kneading words and periods equal those of the Fraction orbit."""

    @settings(max_examples=80, deadline=None)
    @given(
        bp=st.one_of(_AFFINE_PAIRS, _two_piece_pairs()),
        t=st.integers(0, 1000).map(lambda k: F(k, 1000)),
        n=st.integers(1, 200),
    )
    @example(bp=make_uniform_pair(F(3, 2)), t=F(4, 5), n=9)  # p = 3/5, beta has period 2
    @example(bp=make_uniform_pair(F(3, 2)), t=F(1, 5), n=9)  # p = 2/5, alpha has period 2
    def test_matches_fraction_orbit(self, bp, t, n):
        p = bp.a + t * (bp.b - bp.a)
        kp = kneading_prefixes(bp, p, n)
        assert (kp.alpha, kp.alpha_period) == orbit_walk_oracle(bp, p, n, LOWER)
        assert (kp.beta, kp.beta_period) == orbit_walk_oracle(bp, p, n, UPPER)

    @settings(max_examples=60, deadline=None)
    @given(
        bp=st.one_of(_AFFINE_PAIRS, _two_piece_pairs()).map(float_pair),
        t=st.integers(0, 1000).map(lambda k: F(k, 1000)),
        n=st.integers(1, 120),
    )
    @example(bp=float_pair(PWL_PAIR), t=F(1, 2), n=12)  # p = 3/8, beta has period 2
    def test_float_map_walks_its_exact_values(self, bp, t, n):
        p = float(bp.a + t * (bp.b - bp.a))
        kp = kneading_prefixes(bp, p, n)
        assert (kp.alpha, kp.alpha_period) == orbit_walk_oracle(bp, F(p), n, LOWER)
        assert (kp.beta, kp.beta_period) == orbit_walk_oracle(bp, F(p), n, UPPER)
        assert kp.beta == itinerary(LorenzMap(bp, F(p), UPPER), p, n)

    def test_x_outside_unit_interval(self):
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(3, 5), UPPER)
        for x in (F(-1, 7), F(8, 7)):
            with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
                itinerary(m, x, 3)


class TestDetectPeriod:
    """The walk from p detects its period; kneading_prefixes reports it."""

    def test_two_cycle(self):
        kp = kneading_prefixes(make_uniform_pair(F(3, 2)), F(3, 5), 10)
        assert kp.beta_period == 2

    def test_absent_at_half(self):
        kp = kneading_prefixes(make_uniform_pair(F(3, 2)), F(1, 2), 20)
        assert kp.alpha_period is None and kp.beta_period is None

    def test_lower_absent_within_three(self):
        assert kneading_prefixes(make_uniform_pair(F(3, 2)), F(3, 5), 3).alpha_period is None

    def test_minimality(self):
        bp = make_uniform_pair(F(3, 2))
        for p in (F(3, 5), F(7, 13)):
            n = kneading_prefixes(bp, p, 32).beta_period
            orbit = LorenzMap(bp, p, UPPER).orbit(p, n)
            assert orbit[-1] == p
            assert all(v != p for v in orbit[1:-1])

    def test_float_map_certified(self):
        # a float map is read at its binary64 values: 0.6 is not 3/5, so its 2-cycle is gone
        assert kneading_prefixes(float_pair(PWL_PAIR), 0.375, 10).beta_period == 2
        assert kneading_prefixes(make_uniform_pair(1.5), 0.6, 10).beta_period is None


class TestKneadingMonotonicity:
    """Kneading words of p are non-decreasing in p (finite-prefix form)."""

    def test_randomized(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        rng = random.Random(37)
        span = bp.b - bp.a
        for _ in range(120):
            x = bp.a + F(rng.randint(0, 10**6), 10**6) * span
            y = bp.a + F(rng.randint(0, 10**6), 10**6) * span
            if x == y:
                continue
            x, y = min(x, y), max(x, y)
            n = rng.randint(1, 48)
            for side in (UPPER, LOWER):
                wx = itinerary(LorenzMap(bp, x, side), x, n)
                wy = itinerary(LorenzMap(bp, y, side), y, n)
                assert wx <= wy  # equal lengths, so str order is the lexicographic order


class TestKneadingLeftContinuity:
    """With beta non-periodic, prefixes of nearby lower parameters lock in."""

    def test_prefixes_stabilize_from_the_left(self):
        bp = make_uniform_pair(F(3, 2))
        p = F(1, 2)
        assert kneading_prefixes(bp, p, 64).beta_period is None
        n = 16
        target = itinerary(LorenzMap(bp, p, UPPER), p, n)
        agreements = []
        for k in range(4, 40):
            q = p - F(1, 2**k)
            agreements.append(itinerary(LorenzMap(bp, q, UPPER), q, n) == target)
        assert agreements[-1]
        first = agreements.index(True)
        assert all(agreements[first:])
