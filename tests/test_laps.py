import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lorenzmaps.laps as laps
import lorenzmaps.spectral as spectral
from lorenzmaps import (
    LOWER,
    UPPER,
    BranchPair,
    BranchSpec,
    DomainError,
    LapState,
    LorenzMap,
    NoRootFound,
    ResourceLimit,
    entropy_laps,
    kneading_prefixes,
    lap_count,
    lap_count_bruteforce,
    lap_states,
    make_affine_pair,
    make_uniform_pair,
)
from lorenzmaps.spectral import EntropyEstimate

F = Fraction


def random_affine_map(rng):
    while True:
        b0 = F(rng.randint(105, 195), 100)
        b1 = F(rng.randint(105, 195), 100)
        if b0 + b1 > b0 * b1:
            bp = make_affine_pair(b0, b1)
            p = bp.a + F(rng.randint(1, 9999), 10000) * (bp.b - bp.a)
            return LorenzMap(bp, p, UPPER)


@pytest.fixture
def half_map():
    return LorenzMap(make_uniform_pair(F(3, 2)), F(1, 2), UPPER)


class TestLapCount:
    def test_one_step(self, half_map):
        laps, variation = lap_count(half_map, 1)
        assert laps == 2
        assert variation == F(3, 2)

    def test_two_steps(self, half_map):
        laps, variation = lap_count(half_map, 2)
        assert laps == 4
        assert variation == F(9, 4)
        # hand propagation of the image classes
        state = lap_states(half_map, 2)[-1]
        assert dict(state.classes) == {
            (F(0), F(3, 4)): 1,
            (F(1, 4), F(5, 8)): 1,
            (F(3, 8), F(3, 4)): 1,
            (F(1, 4), F(1)): 1,
        }

    def test_three_steps(self, half_map):
        laps, variation = lap_count(half_map, 3)
        assert laps == 8
        assert variation == F(27, 8)  # slope of T^3 is 1.5^3 on laps of total length 1
        assert lap_count_bruteforce(half_map, 3, 10**5) == 8

    def test_uniform_variation_is_power(self, half_map):
        for n in (5, 9, 13):
            assert lap_count(half_map, n)[1] == F(3, 2) ** n

    def test_doubling_map_from_one_lap(self):
        # a = b = p = 1/2: both laps of T map onto [0, 1], so step 1 already merges them
        m = LorenzMap(BranchPair(BranchSpec(((0, 0), (F(1, 2), 1))), BranchSpec(((F(1, 2), 0), (1, 1)))), F(1, 2))
        assert lap_states(m, 1)[0].classes == (((0, 1), 2),)
        for n in range(1, 13):
            assert lap_count(m, n) == (2**n, 2**n)

    def test_upper_lower_agree(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        up = LorenzMap(bp, F(7, 10), UPPER)
        lo = LorenzMap(bp, F(7, 10), LOWER)
        assert lap_count(up, 12) == lap_count(lo, 12)

    def test_needs_positive_steps(self, half_map):
        with pytest.raises(DomainError):
            lap_count(half_map, 0)

    def test_resource_cap(self, half_map, monkeypatch):
        monkeypatch.setattr(sys.modules["lorenzmaps.laps"], "MAX_CLASSES", 8)
        with pytest.raises(ResourceLimit):
            lap_count(half_map, 30)

    def test_variation_past_binary64_is_exact(self, half_map, monkeypatch):
        big = 2**1100  # lap multiplicity beyond binary64's range
        assert LapState(1100, (((F(0), F(1, 2)), big),)).total_variation == F(big, 2)
        # the estimate reads steps 10, 20 and 30, whose variations all lie past binary64
        states = [LapState(k, (((F(0), F(1, 2)), big if k >= 5 else 1),)) for k in range(1, 31)]
        monkeypatch.setattr(laps, "lap_states", lambda m, n: states)
        assert entropy_laps(half_map, 30, 10).entropy == 0.0


class TestBruteforce:
    def test_one_discontinuity(self, half_map):
        assert lap_count_bruteforce(half_map, 1, 10**5) == 2

    def test_two_steps(self, half_map):
        assert lap_count_bruteforce(half_map, 2, 10**5) == 4

    def test_affine_oracle_equivalence(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        m = LorenzMap(bp, F(7, 10), UPPER)
        assert lap_count_bruteforce(m, 6, 10**6) == lap_count(m, 6)[0]

    def test_randomized_small(self):
        rng = random.Random(67)
        for _ in range(5):
            m = random_affine_map(rng)
            for n in (1, 2, 3, 4, 5):
                assert lap_count_bruteforce(m, n, 10**5) == lap_count(m, n)[0]


    @pytest.mark.parametrize("n, grid", [(0, 10), (-1, 10), (3, 1), (3, 0)])
    def test_argument_checks(self, half_map, n, grid):
        with pytest.raises(DomainError):
            lap_count_bruteforce(half_map, n, grid)

    def test_overflowing_rise_bound_named_before_sampling(self, monkeypatch):
        # 1.9^n overflows binary64 past n = 1105; the oracle says so instead of an OverflowError
        m = LorenzMap(make_affine_pair(F(11, 10), F(19, 10)), F(7, 10), UPPER)
        monkeypatch.setattr(laps.np, "interp", lambda *args: pytest.fail("sampled"))
        with pytest.raises(DomainError, match=r"n = 1200 exceeds 1105"):
            lap_count_bruteforce(m, 1200, 1000)
        with pytest.raises(DomainError, match=r"n = 1106 exceeds 1105"):
            lap_count_bruteforce(m, 1106, 1000)


class TestLapProperties:
    def test_submultiplicative_and_growth(self):
        rng = random.Random(71)
        for _ in range(6):
            m = random_affine_map(rng)
            counts = [s.total_laps for s in lap_states(m, 20)]
            n = rng.randint(1, 10)
            k = rng.randint(1, 10)
            assert counts[n + k - 1] <= counts[n - 1] * counts[k - 1]
            for i in range(len(counts) - 1):
                assert counts[i] <= counts[i + 1] <= 2 * counts[i]

    def test_variation_bounds(self):
        rng = random.Random(73)
        for _ in range(6):
            m = random_affine_map(rng)
            c_min, c_max = m.branches.c_min, m.branches.c_max
            for state in lap_states(m, 14):
                n = state.step
                assert c_min**n <= state.total_variation <= c_max**n

    def test_class_count_linear(self):
        rng = random.Random(79)
        for _ in range(4):
            m = random_affine_map(rng)
            for state in lap_states(m, 40):
                assert len(state.classes) <= 4 * state.step + 4


class TestEntropyLaps:
    def test_uniform_exact(self):
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(1, 2), UPPER)
        est = entropy_laps(m, 50, 10)
        assert abs(est.entropy - math.log(1.5)) < 1e-12
        assert est.method == "laps"
        assert not est.certified

    def test_uniform_b18(self):
        # admissible p for b = 9/5 lie in [4/9, 5/9]
        m = LorenzMap(make_uniform_pair(F(9, 5)), F(1, 2), UPPER)
        est = entropy_laps(m, 50, 10)
        assert abs(est.entropy - math.log(1.8)) < 1e-12

    def test_affine_agrees_with_spectral(self):
        from lorenzmaps import entropy_spectral

        bp = make_affine_pair(F(11, 10), F(19, 10))
        lap_est = entropy_laps(LorenzMap(bp, F(7, 10), UPPER), 50, 10)
        spec_est = entropy_spectral(bp, F(7, 10), n=500, tol=1e-7)
        assert abs(lap_est.entropy - spec_est.entropy) < 0.02

    def test_window_validation(self):
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(1, 2), UPPER)
        with pytest.raises(DomainError):
            entropy_laps(m, 10, 10)
        with pytest.raises(DomainError):
            entropy_laps(m, 10, 0)

    def test_short_run_error_window(self):
        # n < 2*window exercises the shortened early window
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(1, 2), UPPER)
        est = entropy_laps(m, 15, 10)
        assert abs(est.entropy - math.log(1.5)) < 1e-12

    def test_float_mode_close_to_exact(self):
        # a float map gives the exact laps of its binary64 values, close to those of the exact map
        bp = make_affine_pair(F(11, 10), F(19, 10))
        exact = entropy_laps(LorenzMap(bp, F(7, 10), UPPER), 30, 10)
        floats = make_affine_pair(1.1, 1.9)
        fl = entropy_laps(LorenzMap(floats, 0.7, UPPER), 30, 10)
        assert fl == entropy_laps(LorenzMap(floats, F(0.7), UPPER), 30, 10)
        assert abs(exact.entropy - fl.entropy) < 1e-9


def _lap_states_reference(m, n):
    # reference: the propagation loop as it mapped every class endpoint afresh
    f0, f1, p = m.branches.f0, m.branches.f1, m.p
    classes = {}
    for img in ((f0.points[0][1], f0(p)), (f1(p), f1.points[-1][1])):
        classes[img] = classes.get(img, 0) + 1
    out = [LapState(1, tuple(sorted(classes.items())))]
    for step in range(2, n + 1):
        new = {}
        for (lo, hi), mult in classes.items():
            halves = ((lo, p), (p, hi)) if lo < p < hi else ((lo, hi),)
            for left, right in halves:
                img = (f0(left), f0(right)) if right <= p else (f1(left), f1(right))
                new[img] = new.get(img, 0) + mult
        classes = new
        out.append(LapState(step, tuple(sorted(classes.items()))))
    return out


def _lap_estimate_reference(states, window):
    # reference: the windowed slope read from ln Var(T^k) at every step k
    n = len(states)
    lv = [0.0] + [laps._ln(s.total_variation) for s in states]
    slope = (lv[n] - lv[n - window]) / window
    k = n - window
    prev = (lv[k] - lv[k - window]) / window if k - window >= 0 else (lv[k] - lv[0]) / k
    return EntropyEstimate(slope, math.exp(slope), "laps", n, abs(slope - prev), False)


_slope = st.integers(105, 195).map(lambda k: F(k, 100))


@st.composite
def _random_pair(draw):
    """An affine pair, or (also when the slopes admit no p) two-piece branches drawn as
    the laps_exact benchmark draws them."""
    if draw(st.booleans()):
        b0, b1 = draw(_slope), draw(_slope)
        if b0 + b1 > b0 * b1:
            return make_affine_pair(b0, b1)
    s0, s1, t0, t1 = (draw(_slope) for _ in range(4))
    y0, y1 = (draw(st.integers(20, 80).map(lambda k: F(k, 100))) for _ in range(2))
    x0 = y0 / s0
    b = x0 + (1 - y0) / s1
    a = 1 - (y1 / t0 + (1 - y1) / t1)
    return BranchPair(BranchSpec(((0, 0), (x0, y0), (b, 1))), BranchSpec(((a, 0), (a + y1 / t0, y1), (1, 1))))


@st.composite
def _random_map(draw):
    bp = draw(_random_pair())
    return LorenzMap(bp, bp.a + F(draw(st.integers(1, 9999)), 10000) * (bp.b - bp.a), UPPER)


class TestMappedOnce:
    """Each orbit point is mapped once per branch, with the states and estimates of the unmemoised loop.

    A state keeps its classes in propagation order, so they are compared as sorted lists.
    """

    @settings(max_examples=40, deadline=None)
    @given(_random_map(), st.integers(2, 40), st.integers(1, 12))
    def test_matches_unmemoised_propagation(self, m, n, window):
        want = _lap_states_reference(m, n)
        got = lap_states(m, n)
        assert [s.step for s in got] == [s.step for s in want]
        assert [sorted(s.classes) for s in got] == [list(s.classes) for s in want]
        if n > window:
            assert entropy_laps(m, n, window) == _lap_estimate_reference(want, window)

    def test_a_call_maps_at_most_2n_plus_4_points(self, monkeypatch):
        calls = {}
        call = BranchSpec.__call__

        def counted(branch, x):
            calls[id(branch)] = calls.get(id(branch), 0) + 1
            return call(branch, x)

        monkeypatch.setattr(BranchSpec, "__call__", counted)
        rng = random.Random(83)
        n = 50
        for _ in range(4):
            m = random_affine_map(rng)
            calls.clear()
            lap_states(m, n)
            assert set(calls) <= {id(m.branches.f0), id(m.branches.f1)}
            assert sum(calls.values()) <= 2 * n + 4


class TestLapUpperBound:
    """A certified spectral enclosure never lies above a lap-count bound on the entropy.

    The bound takes entropy to be the lap growth rate h = lim_k (1/k) ln l(T^k), which
    Misiurewicz-Szlenk (1980) prove for piecewise monotone maps and Misiurewicz-Ziemian
    (1992) for piecewise continuous ones.  The lap number is submultiplicative,
    l(T^(j+k)) <= l(T^j) l(T^k), so by Fekete's lemma the limit is the infimum of
    (1/k) ln l(T^k): h <= (1/k) ln l(T^k) for every k.  LapState.total_laps also splits
    laps at the preimages of p, so it is at least l(T^k) and bounds h the same way.  An
    enclosure [x_lo, x_hi] that holds exp(h) thus has ln x_lo <= ln(total_laps_k) / k.
    """

    @settings(max_examples=30, deadline=None)
    @given(_random_map())
    def test_enclosure_below_every_lap_bound(self, m):
        n = spectral.DEFAULT_ORDER
        xi = spectral.xi_coeffs(kneading_prefixes(m.branches, m.p, n))
        lo = max((1.0 + float(m.branches.c_min)) / 2.0, math.nextafter(1.0, 2.0))
        try:
            root = spectral.max_root(xi, lo, 2.0, spectral.DEFAULT_TOL)
        except NoRootFound:
            return
        x_lo, _, certified = spectral._uncertainty_interval(xi, root, lo, 2.0)
        if not certified:
            return
        for state in lap_states(m, 50):
            assert math.log(x_lo) <= math.log(state.total_laps) / state.step
