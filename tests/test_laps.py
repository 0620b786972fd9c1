import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
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
    lap_counts_bruteforce,
    lap_states,
    make_affine_pair,
    make_uniform_pair,
)
from lorenzmaps.estimates import EntropyEstimate

F = Fraction


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

    def test_variation_past_binary64_is_exact(self, half_map, monkeypatch):
        big = 2**1100  # lap multiplicity beyond binary64's range
        assert LapState(1100, (((F(0), F(1, 2)), big),)).total_variation == F(big, 2)
        # the estimate reads steps 10, 20 and 30, whose variations all lie past binary64
        states = [LapState(k, (((F(0), F(1, 2)), big if k >= 5 else 1),)) for k in range(1, 31)]
        monkeypatch.setattr(laps, "_propagate", lambda m, n: iter(states))
        assert entropy_laps(half_map, 30, 10).entropy == 0.0


class TestOneStepHeld:
    """A lap estimate or count holds one step's classes, not every step's."""

    @pytest.mark.parametrize("call", [lambda m: entropy_laps(m, 120, 10), lambda m: lap_count(m, 120)],
                             ids=["entropy_laps", "lap_count"])
    def test_peak_memory_of_one_step(self, call):
        # all 120 steps' classes take about 1000 KiB, one step's about 60 KiB
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(3, 5))
        tracemalloc.start()
        try:
            call(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestBruteforce:
    def test_one_discontinuity(self, half_map):
        assert lap_count_bruteforce(half_map, 1, 10**5) == 2

    def test_two_steps(self, half_map):
        assert lap_count_bruteforce(half_map, 2, 10**5) == 4

    def test_affine_oracle_equivalence(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        m = LorenzMap(bp, F(7, 10), UPPER)
        assert lap_count_bruteforce(m, 6, 10**6) == lap_count(m, 6)[0]

    def test_randomized_small(self, draw_affine):
        rng = random.Random(67)
        for _ in range(5):
            m = LorenzMap(*draw_affine(rng))
            for n in (1, 2, 3, 4, 5):
                assert lap_count_bruteforce(m, n, 10**5) == lap_count(m, n)[0]

    def test_one_pass_matches_resampling(self, draw_affine):
        # every count of the one grid pass equals that of a pass restarted from step 0; the first
        # map's counts at steps 3-7 change if every step takes step 8's rise threshold
        rng = random.Random(3)
        for _ in range(4):
            m = LorenzMap(*draw_affine(rng))
            n, grid = 8, 10**4
            assert lap_counts_bruteforce(m, n, grid) == [_bruteforce_reference(m, k, grid) for k in range(1, n + 1)]

    def test_grid_memory_of_one_step(self):
        # the one pass holds as many grid-sized arrays after 8 steps as after 1
        m = LorenzMap(make_affine_pair(F(11, 10), F(19, 10)), F(7, 10), UPPER)
        peaks = []
        for n in (1, 8):
            tracemalloc.start()
            try:
                lap_counts_bruteforce(m, n, 10**5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 64 * 1024

    @pytest.mark.parametrize("n, grid", [(0, 10), (-1, 10), (3, 1), (3, 0)])
    def test_argument_checks(self, half_map, n, grid):
        with pytest.raises(DomainError):
            lap_count_bruteforce(half_map, n, grid)
        with pytest.raises(DomainError):
            lap_counts_bruteforce(half_map, n, grid)

    def test_overflowing_rise_bound_named_before_sampling(self, monkeypatch):
        # 1.9^n overflows binary64 past n = 1105; the oracle says so instead of an OverflowError
        m = LorenzMap(make_affine_pair(F(11, 10), F(19, 10)), F(7, 10), UPPER)
        monkeypatch.setattr(np, "interp", lambda *args: pytest.fail("sampled"))
        with pytest.raises(DomainError, match=r"n = 1200 exceeds 1105"):
            lap_count_bruteforce(m, 1200, 1000)
        with pytest.raises(DomainError, match=r"n = 1106 exceeds 1105"):
            lap_count_bruteforce(m, 1106, 1000)


class TestLapProperties:
    def test_submultiplicative_and_growth(self, draw_affine):
        rng = random.Random(71)
        for _ in range(6):
            m = LorenzMap(*draw_affine(rng))
            counts = [s.total_laps for s in lap_states(m, 20)]
            n = rng.randint(1, 10)
            k = rng.randint(1, 10)
            assert counts[n + k - 1] <= counts[n - 1] * counts[k - 1]
            for i in range(len(counts) - 1):
                assert counts[i] <= counts[i + 1] <= 2 * counts[i]

    def test_variation_bounds(self, draw_affine):
        rng = random.Random(73)
        for _ in range(6):
            m = LorenzMap(*draw_affine(rng))
            c_min, c_max = m.branches.c_min, m.branches.c_max
            for state in lap_states(m, 14):
                n = state.step
                assert c_min**n <= state.total_variation <= c_max**n


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


def _bruteforce_reference(m, n, grid):
    # reference: the grid oracle as it sampled T^n afresh from step 0 for each n, on upper maps
    mf = laps._binary64(m)
    p = float(mf.p)
    xs0, ys0, xs1, ys1 = (np.array(v, dtype=float) for f in (mf.branches.f0, mf.branches.f1) for v in (f._xs, f._ys))
    y = np.linspace(0.0, 1.0, grid + 1)
    for _ in range(n):
        y = np.where(y < p, np.interp(y, xs0, ys0), np.interp(y, xs1, ys1))
    rise = np.diff(y)
    return int(np.count_nonzero((rise <= 0) | (rise > float(mf.branches.c_max) ** n / grid * (1 + 1e-9)))) + 1


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


#: edge cases of the lap step: p = a, p = b, a periodic p on both sides, and the doubling map (a = p = b)
_EXPLICIT_MAPS = pytest.mark.parametrize(
    "m",
    [
        LorenzMap(make_affine_pair(F(11, 10), F(19, 10)), F(9, 19)),  # p = a
        LorenzMap(make_affine_pair(F(11, 10), F(19, 10)), F(10, 11)),  # p = b
        LorenzMap(make_uniform_pair(F(3, 2)), F(3, 5)),  # p has period 2
        LorenzMap(make_uniform_pair(F(3, 2)), F(3, 5), LOWER),
        LorenzMap(make_uniform_pair(2), F(1, 2)),
    ],
    ids=["paper-at-a", "paper-at-b", "uniform-period-2-upper", "uniform-period-2-lower", "doubling"],
)


def test_doubling_pair_is_the_uniform_pair_of_slope_2():
    hand_built = BranchPair(BranchSpec(((0, 0), (F(1, 2), 1))), BranchSpec(((F(1, 2), 0), (1, 1))))
    assert make_uniform_pair(2) == hand_built


def _one_sided_orbit(m, side, n):
    # [T(p), ..., T^n(p)] under the upper or the lower map, by branch calls alone
    f0, f1, p = m.branches.f0, m.branches.f1, m.p
    x, out = p, []
    for _ in range(n):
        x = f0(x) if x < p or (x == p and side == LOWER) else f1(x)
        out.append(x)
    return out


class TestEndOrbits:
    """Every left end of a step-s class is 0 or T^j(p), 1 <= j <= s, under the upper map, and every
    right end is 1 or T^i(p), 1 <= i <= s, under the lower map, whichever side the map is."""

    @staticmethod
    def assert_ends_on_orbits(m, n):
        upper, lower = _one_sided_orbit(m, UPPER, n), _one_sided_orbit(m, LOWER, n)
        for state in lap_states(m, n):
            lefts, rights = {0, *upper[: state.step]}, {1, *lower[: state.step]}
            for (lo, hi), _ in state.classes:
                assert lo in lefts, f"step {state.step}: left end {lo} off the upper orbit"
                assert hi in rights, f"step {state.step}: right end {hi} off the lower orbit"

    @settings(max_examples=40, deadline=None)
    @given(_random_map(), st.sampled_from([UPPER, LOWER]), st.integers(1, 30))
    def test_random_maps(self, m, side, n):
        self.assert_ends_on_orbits(LorenzMap(m.branches, m.p, side), n)

    @_EXPLICIT_MAPS
    def test_explicit_maps(self, m):
        self.assert_ends_on_orbits(m, 30)


class TestMappedOnce:
    """Each side's orbit of p is walked once, with the states and estimates of the unmemoised loop.

    A state keeps its classes in propagation order, so they are compared as sorted lists.
    """

    @staticmethod
    def assert_matches_reference(m, n, window):
        want = _lap_states_reference(m, n)
        got = lap_states(m, n)
        assert [s.step for s in got] == [s.step for s in want]
        assert [sorted(s.classes) for s in got] == [list(s.classes) for s in want]
        if n > window:
            assert entropy_laps(m, n, window) == _lap_estimate_reference(want, window)

    @settings(max_examples=40, deadline=None)
    @given(_random_map(), st.integers(2, 40), st.integers(1, 12))
    def test_matches_unmemoised_propagation(self, m, n, window):
        self.assert_matches_reference(m, n, window)

    @_EXPLICIT_MAPS
    def test_explicit_maps_match_unmemoised_propagation(self, m):
        # two index pairs share one image in each of these maps, so every run checks the merge
        self.assert_matches_reference(m, 30, 10)

    def test_a_call_maps_exactly_2n_points(self, monkeypatch, draw_affine):
        calls = {}
        call = BranchSpec.__call__

        def counted(branch, x):
            calls[id(branch)] = calls.get(id(branch), 0) + 1
            return call(branch, x)

        monkeypatch.setattr(BranchSpec, "__call__", counted)
        rng = random.Random(83)
        n = 50
        for _ in range(4):
            m = LorenzMap(*draw_affine(rng))
            calls.clear()
            lap_states(m, n)
            assert set(calls) <= {id(m.branches.f0), id(m.branches.f1)}
            assert sum(calls.values()) == 2 * n  # one orbit walk of n steps per side


class TestClassBound:
    """Step n has at most 2n classes, as the laps module docstring proves, and step 1 at an interior p has 2."""

    @staticmethod
    def assert_at_most_2n(m, n=40):
        # checked as each step is propagated, so a broken bound fails before the classes blow up
        counts = []
        for state in laps._propagate(m, n):
            assert len(state.classes) <= 2 * state.step, f"step {state.step}: {len(state.classes)} classes"
            counts.append(len(state.classes))
        return counts

    @settings(max_examples=40, deadline=None)
    @given(_random_map(), st.sampled_from([UPPER, LOWER]))
    def test_random_interior_p(self, m, side):
        counts = self.assert_at_most_2n(LorenzMap(m.branches, m.p, side))
        assert counts[0] == 2  # the bound is tight at step 1

    @settings(max_examples=20, deadline=None)
    @given(_random_pair(), st.booleans(), st.sampled_from([UPPER, LOWER]))
    def test_random_p_at_an_end(self, bp, at_a, side):
        self.assert_at_most_2n(LorenzMap(bp, bp.a if at_a else bp.b, side))

    @_EXPLICIT_MAPS
    def test_explicit_maps(self, m):
        self.assert_at_most_2n(m)


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


def _paths_from_start(children, n):
    # paths of length n from state 0, (0, 0), counted by dynamic programming over the children lists
    counts = [1] * len(children)
    for _ in range(n):
        counts = [sum(counts[c] for c in kids) for kids in children]
    return counts[0]


def _split_tests(m, order):
    # (L_j < p, R_i > p) for 0 <= i, j <= order, from orbits walked by branch calls alone
    upper, lower = _one_sided_orbit(m, UPPER, order), _one_sided_orbit(m, LOWER, order)
    return [True] + [x < m.p for x in upper], [True] + [x > m.p for x in lower]


def _ln_fraction(x):
    return math.log(x.numerator) - math.log(x.denominator)


@pytest.fixture
def enclosure_orders(monkeypatch):
    # the orders passed to laps.lap_enclosure, in call order
    asked = []
    enclosure = laps.lap_enclosure

    def recording(m, order):
        asked.append(order)
        return enclosure(m, order)

    monkeypatch.setattr(laps, "lap_enclosure", recording)
    return asked


class TestLapEnclosure:
    """lap_enclosure(m, N) = (lambda, mu) proves lambda <= e^h <= mu, as the laps module docstring states."""

    @settings(max_examples=30, deadline=None)
    @given(_random_map(), st.sampled_from([UPPER, LOWER]), st.sampled_from([20, 60]))
    def test_meets_every_certified_spectral_enclosure(self, m, side, order):
        n = spectral.DEFAULT_ORDER
        xi = spectral.xi_coeffs(kneading_prefixes(m.branches, m.p, n))
        lo = max((1.0 + float(m.branches.c_min)) / 2.0, math.nextafter(1.0, 2.0))
        try:
            root = spectral.max_root(xi, lo, 2.0, spectral.DEFAULT_TOL)
        except NoRootFound:
            return
        x_lo, x_hi, certified = spectral._uncertainty_interval(xi, root, lo, 2.0)
        if not certified:
            return
        low, high = laps.lap_enclosure(LorenzMap(m.branches, m.p, side), order)
        assert type(low) is type(high) is F
        assert low <= F(x_hi) and F(x_lo) <= high

    @pytest.mark.parametrize(
        "b, where",
        [(b, where) for b in (F(6, 5), F(3, 2), F(9, 5)) for where in ("a", "b", "interior")] + [(F(3, 2), F(3, 5))],
        ids=lambda v: str(v),
    )
    def test_uniform_slope_is_enclosed(self, b, where):
        # at p = a, at p = b, inside, and at p = 3/5, which has period 2 under uniform 3/2
        bp = make_uniform_pair(b)
        p = {"a": bp.a, "b": bp.b, "interior": (2 * bp.a + bp.b) / 3}.get(where, where)
        for order in (10, 40, 160):
            low, high = laps.lap_enclosure(LorenzMap(bp, p), order)
            assert low <= b <= high
        assert _ln_fraction(high) - _ln_fraction(low) <= 1e-7

    @settings(max_examples=30, deadline=None)
    @given(_random_map(), st.sampled_from([5, 40]))
    def test_upper_and_lower_map_agree(self, m, order):
        assert laps.lap_enclosure(m, order) == laps.lap_enclosure(LorenzMap(m.branches, m.p, LOWER), order)

    @settings(max_examples=30, deadline=None)
    @given(_random_map(), st.sampled_from([UPPER, LOWER]), st.integers(1, 8))
    def test_paths_count_the_laps(self, m, side, order):
        # up to step N both automata are the true one; past it the lower has fewer paths, the upper more
        m = LorenzMap(m.branches, m.p, side)
        below, above = _split_tests(m, order)
        lower, upper = (laps._automaton(below, above, widen=widen) for widen in (False, True))
        for state in lap_states(m, 3 * order):
            paths = [_paths_from_start(kids, state.step) for kids in (lower, upper)]
            if state.step <= order:
                assert paths == [state.total_laps] * 2
            else:
                assert paths[0] <= state.total_laps <= paths[1]

    @_EXPLICIT_MAPS
    def test_paths_count_the_laps_at_the_edge_cases(self, m):
        order = 6
        below, above = _split_tests(m, order)
        lower, upper = (laps._automaton(below, above, widen=widen) for widen in (False, True))
        for state in lap_states(m, 30):
            assert _paths_from_start(lower, state.step) <= state.total_laps <= _paths_from_start(upper, state.step)

    @pytest.mark.parametrize("p", [F(51, 100), F(3, 5), F(7, 10)])
    def test_paper_points_within_1e_7_at_order_160(self, enclosure_orders, p):
        # so a proof's order rule, from ENCLOSURE_START = 40, doubles twice and stops at ENCLOSURE_LN_WIDTH
        low, high = laps._proved_enclosure(LorenzMap(make_affine_pair(F(11, 10), F(19, 10)), p))
        assert enclosure_orders == [40, 80, 160]
        assert 0 < _ln_fraction(high) - _ln_fraction(low) <= 1e-7

    def test_order_rule_stops_at_the_cap_read_at_each_call(self, enclosure_orders, monkeypatch):
        # a low-slope point too wide at order 80 stops there once the cap is 80, and returns that enclosure
        monkeypatch.setattr(laps, "MAX_ITERATES", 80)
        m = LorenzMap(make_affine_pair(F(101, 100), F(19, 10)), F(4869, 10000))
        low, high = laps._proved_enclosure(m)
        assert enclosure_orders == [40, 80]
        assert (low, high) == laps.lap_enclosure(m, 80)
        assert _ln_fraction(high) - _ln_fraction(low) > laps.ENCLOSURE_LN_WIDTH

    def test_order_rule_starts_at_a_cap_below_its_start(self, enclosure_orders, monkeypatch):
        # a cap below ENCLOSURE_START = 40 is the one order asked, not a ResourceLimit
        monkeypatch.setattr(laps, "MAX_ITERATES", 20)
        m = LorenzMap(make_affine_pair(F(11, 10), F(19, 10)), F(3, 5))
        low, high = laps._proved_enclosure(m)
        assert enclosure_orders == [20]
        assert (low, high) == laps.lap_enclosure(m, 20)

    def test_order_checked_before_any_step(self):
        m = LorenzMap(make_uniform_pair(F(3, 2)), F(1, 2))
        with pytest.raises(DomainError):
            laps.lap_enclosure(m, 0)
        with pytest.raises(ResourceLimit):
            laps.lap_enclosure(m, laps.MAX_ITERATES + 1)
