import importlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

import lorenzmaps.spectral as spectral
from lorenzmaps import (
    UPPER,
    DomainError,
    KneadingPair,
    LengthMismatch,
    LorenzMap,
    MissingPeriodicForm,
    NoRootFound,
    ODD_CROSSING,
    PeriodicForm,
    RootResult,
    XiPolynomial,
    csv_text,
    entropy_laps,
    entropy_spectral,
    kneading_prefixes,
    make_affine_pair,
    make_uniform_pair,
    max_root,
    sweep,
    tail_bound,
    xi_coeffs,
    xi_eval,
    xi_eval_periodic,
)

F = Fraction

PHI = (1.0 + math.sqrt(5.0)) / 2.0  # positive root of x^2 - x - 1, by the quadratic formula


class TestXiCoeffs:
    def test_from_half_kneading(self):
        # alpha = 0110, beta = 1001, so beta_k - alpha_k = (1, -1, -1, 1)
        kp = kneading_prefixes(make_uniform_pair(F(3, 2)), F(1, 2), 4)
        assert (kp.alpha, kp.beta) == ("0110", "1001")
        assert xi_coeffs(kp).coeffs == (1, -1, -1, 1)

    def test_from_periodic_kneading(self):
        # alpha = 0111, beta = 1010, so beta_k - alpha_k = (1, -1, 0, -1)
        kp = kneading_prefixes(make_uniform_pair(F(3, 2)), F(3, 5), 4)
        assert (kp.alpha, kp.beta) == ("0111", "1010")
        xi = xi_coeffs(kp)
        assert xi.coeffs == (1, -1, 0, -1)
        assert xi.periodic_form is not None
        assert xi.periodic_form.period == 2
        assert xi.periodic_form.beta_head == "10"

    def test_single_symbol(self):
        assert xi_coeffs(KneadingPair("0", "1")).coeffs == (1,)

    def test_length_mismatch(self):
        # the pair itself refuses words of unequal length, so xi_coeffs never sees one
        for alpha, beta in (("01", "100"), ("011", "10")):
            with pytest.raises(LengthMismatch, match="differ in length"):
                KneadingPair(alpha, beta)

    def test_coefficient_range_enforced(self):
        with pytest.raises(DomainError):
            XiPolynomial((1, 2, 0))
        with pytest.raises(DomainError):
            XiPolynomial(())

    @pytest.mark.parametrize("coeffs", [(1.9, -0.7), (1, 0.5), (1, math.nan), ("1", "0")])
    def test_values_checked_before_conversion(self, coeffs):
        # int() would truncate 1.9 to 1 and 0.5 to 0, and fail on NaN with a bare ValueError
        with pytest.raises(DomainError, match="must lie in"):
            XiPolynomial(coeffs)

    def test_integral_values_of_any_type_kept(self):
        assert XiPolynomial((1.0, Fraction(0), -1)).coeffs == (1, 0, -1)

    def test_randomized_range_and_leading_one(self, draw_affine):
        rng = random.Random(41)
        for _ in range(30):
            bp, p = draw_affine(rng)
            xi = xi_coeffs(kneading_prefixes(bp, p, rng.randint(2, 64)))
            assert all(c in (-1, 0, 1) for c in xi.coeffs)
            assert xi.coeffs[0] == 1


class TestXiEval:
    def test_constant(self):
        assert xi_eval(XiPolynomial((1,)), 1.7) == 1.0

    def test_direct_sum(self):
        assert xi_eval(XiPolynomial((1, -1, -1)), 2.0) == pytest.approx(0.25, abs=1e-15)

    def test_golden_ratio_root(self):
        assert abs(xi_eval(XiPolynomial((1, -1, -1)), PHI)) < 1e-12

    def test_domain(self):
        # NaN fails every comparison, so the check must ask for x > 1, not against x <= 1
        for x in (1.0, math.nan):
            with pytest.raises(DomainError, match="needs x > 1"):
                xi_eval(XiPolynomial((1,)), x)

    def test_truncation_stability(self, draw_affine):
        # exact rational evaluation keeps the bound meaningful below float eps
        rng = random.Random(43)
        bp, p = draw_affine(rng)
        coeffs = xi_coeffs(kneading_prefixes(bp, p, 128)).coeffs
        for x in (F(6, 5), F(3, 2), F(2)):
            for _ in range(20):
                n = rng.randint(1, 127)
                m = rng.randint(n + 1, 128)
                diff = abs(xi_eval(XiPolynomial(coeffs[:m]), x) - xi_eval(XiPolynomial(coeffs[:n]), x))
                assert diff <= tail_bound(x, n)


class TestXiEvalPeriodic:
    def test_geometric_beta_only(self):
        xi = xi_coeffs(KneadingPair("00", "10", beta_period=2))
        # full series with beta = (10)* and alpha = 0: 1/(1 - x^-2) at x = 2
        assert xi_eval_periodic(xi, 2.0) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_all_ones_beta(self):
        xi = xi_coeffs(KneadingPair("0", "1", beta_period=1))
        assert xi_eval_periodic(xi, 2.0) == pytest.approx(2.0, abs=1e-15)

    def test_vanishes_at_entropy_of_uniform_map(self):
        kp = kneading_prefixes(make_uniform_pair(F(3, 2)), F(3, 5), 64)
        xi = xi_coeffs(kp)
        assert abs(xi_eval_periodic(xi, 1.5)) <= tail_bound(1.5, 64)

    def test_requires_form(self):
        with pytest.raises(MissingPeriodicForm):
            xi_eval_periodic(XiPolynomial((1, -1)), 1.5)

    def test_domain(self):
        xi = xi_coeffs(KneadingPair("0", "1", beta_period=1))
        for x in (1.0, math.nan):
            with pytest.raises(DomainError, match="needs x > 1"):
                xi_eval_periodic(xi, x)

    @pytest.mark.parametrize(
        "period, beta_head, alpha_prefix",
        [(3, "10", "01"), (5, "1", "01"), (2, "10", "01x"), (0, "", "01"), (2, "1x", "01")],
        ids=["period-past-head", "period-far-past-head", "alpha-not-binary", "period-0", "beta-not-binary"],
    )
    def test_form_checked_when_built(self, period, beta_head, alpha_prefix):
        # unchecked, xi_eval_periodic would read a short head as trailing zeros, fail in int() on a
        # symbol other than 0 or 1, and divide by zero at period 0
        with pytest.raises(DomainError):
            PeriodicForm(period, beta_head, alpha_prefix)

    def test_agrees_with_truncation(self):
        rng = random.Random(47)
        for _ in range(40):
            period = rng.randint(1, 6)
            head = "1" + "".join(rng.choice("01") for _ in range(period - 1))
            n = rng.randint(period, 96)
            beta = (head * (n // period + 1))[:n]
            alpha = "0" + "".join(rng.choice("01") for _ in range(n - 1))
            xi = xi_coeffs(KneadingPair(alpha, beta, beta_period=period))
            for x in (F(6, 5), F(3, 2), F(19, 10)):
                diff = abs(xi_eval_periodic(xi, x) - xi_eval(xi, x))
                assert diff <= 2 * tail_bound(x, n)


class TestTailBound:
    def test_values(self):
        assert tail_bound(2.0, 10) == pytest.approx(0.001953125, abs=1e-18)
        assert tail_bound(1.5, 5) == pytest.approx(1.5**-5 / (1 - 1 / 1.5), rel=1e-15)
        assert tail_bound(2.0, 0) == pytest.approx(2.0, abs=1e-15)

    def test_domain(self):
        for x in (0.9, math.nan):
            with pytest.raises(DomainError, match="needs x > 1"):
                tail_bound(x, 5)


def _at(bp, at):
    return bp.a if at == "a" else at


# maps whose truncation changes sign nowhere in the bracket ((1 + c_min)/2, 2].  (51/50, 179/100)
# at p = a has a certified root at n = 500 (h = 0.02239) that order 50 does not reach
_NO_CROSSING_MAPS = [
    (F(51, 50), F(179, 100), "a", 50),
    (F(11, 10), F(19, 10), "a", 2),
    (F(11, 10), F(19, 10), F(7, 10), 2),
]
_NO_CROSSING_MAP_IDS = ["slopes-51/50-179/100-n50", "paper-a-n2", "paper-7/10-n2"]


def _no_crossing_series(b0, b1, at, n):
    bp = make_affine_pair(b0, b1)
    return xi_coeffs(kneading_prefixes(bp, _at(bp, at), n)), (1.0 + float(bp.c_min)) / 2.0


# their series, and (1 - t)^2 (1 + t), t = 1/x, which only touches zero at x = 1, below the bracket
_NO_CROSSING = [_no_crossing_series(*case) for case in _NO_CROSSING_MAPS] + [(XiPolynomial((1, -1, -1, 1)), 1.05)]
_NO_CROSSING_IDS = _NO_CROSSING_MAP_IDS + ["double-zero-at-1"]


class TestMaxRoot:
    def test_golden_ratio(self):
        res = max_root(XiPolynomial((1, -1, -1)), 1.05, 2.0, 1e-10)
        assert res.multiplicity_hint == ODD_CROSSING
        assert abs(res.gamma - PHI) < 1e-9
        assert res.bracket[1] - res.bracket[0] <= 1e-10
        assert abs(xi_eval(XiPolynomial((1, -1, -1)), res.gamma)) <= res.residual + 1e-15

    def test_constant_has_no_root(self):
        with pytest.raises(NoRootFound):
            max_root(XiPolynomial((1,)), 1.05, 2.0, 1e-10)

    def test_uniform_map_gamma(self):
        kp = kneading_prefixes(make_uniform_pair(F(3, 2)), F(1, 2), 500)
        res = max_root(xi_coeffs(kp), 1.25, 2.0, 1e-9)
        assert abs(res.gamma - 1.5) < 1e-6

    @pytest.mark.parametrize("xi, lo", _NO_CROSSING, ids=_NO_CROSSING_IDS)
    def test_no_sign_change_raises(self, xi, lo):
        # each truncation stays positive on the whole bracket; a dip toward zero is no root
        xs = np.linspace(2.0, lo, 64 * xi.order + 1)
        assert np.all(_scan(xi, xs)[0] > 0.0)
        with pytest.raises(NoRootFound, match="changes sign nowhere"):
            max_root(xi, lo, 2.0, 1e-8)

    def test_residual_bound_on_kneading_roots(self, draw_affine):
        rng = random.Random(53)
        for _ in range(10):
            bp, p = draw_affine(rng)
            n = rng.randint(32, 128)
            xi = xi_coeffs(kneading_prefixes(bp, p, n))
            tol = 1e-9
            res = max_root(xi, (1.0 + float(bp.c_min)) / 2.0, 2.0, tol)
            assert abs(xi_eval(xi, res.gamma)) <= tail_bound(res.gamma, n) + tol

    def test_bracket_validation(self):
        with pytest.raises(DomainError):
            max_root(XiPolynomial((1, -1)), 0.9, 2.0, 1e-8)
        with pytest.raises(DomainError):
            max_root(XiPolynomial((1, -1)), 1.2, 2.1, 1e-8)
        with pytest.raises(DomainError):
            max_root(XiPolynomial((1, -1)), 1.2, 2.0, -1e-8)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(DomainError):
            max_root(XiPolynomial((1, -1, -1)), 1.05, 2.0, math.nan)

    def test_zero_at_the_top_node_is_the_root(self):
        # 1 - 2/x is exactly 0.0 at x = 2, the first node of the scan; the crossing's zero
        # endpoint is the root itself, with a degenerate bracket
        res = max_root(_FloatSeries((1.0, -2.0)), 1.5, 2.0, 1e-8)
        assert res == RootResult(2.0, 0.0, (2.0, 2.0), ODD_CROSSING)


class TestGrow:
    def test_zero_span(self):
        # a start already at the limit: nothing to widen, and the limit counts as hit
        def g(x):
            assert x == 2.0, f"evaluated at {x}"
            return -1.0

        assert spectral._grow(g, 2.0, +1.0, 2.0) == (2.0, True)

    @pytest.mark.parametrize(
        "edge, start, direction, limit",
        [(0.3, 0.0, +1.0, 1.0), (1.7, 2.0, -1.0, 1.0), (0.9, 0.0, +1.0, 1.0), (1.1, 2.0, -1.0, 1.0)],
        ids=["doubling-up", "doubling-down", "final-bisection-up", "final-bisection-down"],
    )
    def test_edge_found_before_the_limit(self, edge, start, direction, limit):
        # g <= 0 from start up to edge and > 0 beyond it; an edge past half the span is passed by every
        # doubling step, so the bisection runs between the last doubling and the limit
        def g(x):
            return direction * (x - edge)

        got, hit_limit = spectral._grow(g, start, direction, limit)
        assert not hit_limit
        assert g(got) <= 0.0
        assert abs(got - edge) < 1e-12

    @pytest.mark.parametrize("start, direction, limit", [(0.0, +1.0, 1.0), (2.0, -1.0, 1.0)], ids=["up", "down"])
    def test_limit_reached(self, start, direction, limit):
        assert spectral._grow(lambda x: -1.0, start, direction, limit) == (limit, True)


class TestBracketSanity:
    def test_xi_positive_at_two(self, draw_affine):
        rng = random.Random(59)
        for _ in range(40):
            bp, p = draw_affine(rng)
            xi = xi_coeffs(kneading_prefixes(bp, p, rng.randint(2, 200)))
            assert xi_eval(xi, 2.0) > 0.0


class TestEntropySpectral:
    def test_uniform_periodic_point(self):
        est = entropy_spectral(make_uniform_pair(F(3, 2)), F(3, 5), n=500, tol=1e-9)
        assert abs(est.entropy - math.log(1.5)) < 1e-6
        assert est.method == "spectral"
        assert est.order == 500
        assert est.certified

    def test_uniform_b18(self):
        est = entropy_spectral(make_uniform_pair(F(9, 5)), F(1, 2), n=500, tol=1e-9)
        assert abs(est.entropy - math.log(1.8)) < 1e-6

    def test_affine_against_lap_oracle(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        spectral = entropy_spectral(bp, F(7, 10), n=500, tol=1e-7)
        laps = entropy_laps(LorenzMap(bp, F(7, 10), UPPER), 50, 10)
        assert abs(spectral.entropy - laps.entropy) < 0.01
        assert math.log(1.1) <= spectral.entropy <= math.log(1.9)

    def test_entropy_within_slope_bounds(self, draw_affine):
        rng = random.Random(61)
        for _ in range(8):
            bp, p = draw_affine(rng)
            est = entropy_spectral(bp, p, n=200, tol=1e-8)
            lo = math.log(float(bp.c_min)) - est.error_bound
            hi = math.log(float(bp.c_max)) + est.error_bound
            assert lo <= est.entropy <= hi
            assert est.entropy <= math.log(2.0) + 1e-12

    def test_order_validation(self):
        with pytest.raises(DomainError):
            entropy_spectral(make_uniform_pair(F(3, 2)), F(1, 2), n=1)

    @pytest.mark.parametrize(
        "bp, p",
        [(make_uniform_pair(F(3, 2)), F(1, 2))]
        + [(make_affine_pair(F(11, 10), F(19, 10)), p) for p in (F(3, 5), F(13, 20), F(7, 10))],
        ids=["uniform-1/2", "paper-3/5", "paper-13/20", "paper-7/10"],
    )
    def test_enclosure_covers_horner_rounding(self, bp, p):
        # a tolerance below binary64's spacing collapses the bisection bracket to the computed root x.
        # The exact truncation there may be as large as Higham's bound r = gamma_3n x/(x - 1), and
        # |xi'| <= 1/(x - 1)^2, so its root may lie r (x - 1)^2 away: the enclosure must reach that far
        n = 500
        est = entropy_spectral(bp, p, n=n, tol=1e-300)
        x = est.gamma
        u = 2.0**-53
        reach = 3 * n * u / (1 - 3 * n * u) * x / (x - 1.0) * (x - 1.0) ** 2
        assert est.certified
        # error_bound = ln(x_hi / x_lo) / 2 >= (x_hi - x_lo) / (2 x_hi), with x_hi <= 2
        assert est.error_bound >= reach / 4

    @pytest.mark.parametrize("b0, b1, at, n", _NO_CROSSING_MAPS, ids=_NO_CROSSING_MAP_IDS)
    def test_no_sign_change_raises(self, b0, b1, at, n):
        bp = make_affine_pair(b0, b1)
        with pytest.raises(NoRootFound, match="changes sign nowhere"):
            entropy_spectral(bp, _at(bp, at), n=n)

    def test_longer_truncation_finds_the_root(self):
        # the order-50 truncation at p = a changes sign nowhere; order 500 certifies h = 0.02239
        bp = make_affine_pair(F(51, 50), F(179, 100))
        est = entropy_spectral(bp, bp.a, n=500)
        assert est.certified and abs(est.entropy - 0.02239) <= est.error_bound + 1e-5

    def test_float_mode_matches_exact_mode(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        exact = entropy_spectral(bp, F(3, 5), n=160, tol=1e-9)
        fl = entropy_spectral(make_affine_pair(1.1, 1.9), 0.6, n=160, tol=1e-9)
        # the binary64 slopes and p make another map, but its kneading differs only late
        assert abs(exact.entropy - fl.entropy) < 1e-6


def _proved_sign(coeffs, x):
    """The sign of every series that starts with coeffs, at x > 1, proved in integers; 0 where unproved.

    With x = m/q in lowest terms the truncation is A / m^(n-1), A = sum_k c_k q^k m^(n-1-k), and
    the tail it drops is at most x^-n / (1 - 1/x) = q^n / (m^(n-1) (m - q)) in size; so where
    |A| (m - q) > q^n the infinite series has A's sign.
    """
    x = F(x)
    m, q = x.numerator, x.denominator
    acc, q_k = 0, 1
    for c in coeffs:
        acc = acc * m + c * q_k
        q_k *= q
    if abs(acc) * (m - q) <= q_k:
        return 0
    return 1 if acc > 0 else -1


def _root_proved(coeffs, x_lo, x_hi):
    # the infinite series is continuous on x > 1, so opposite proved signs at the ends enclose a root
    return _proved_sign(coeffs, x_lo) * _proved_sign(coeffs, x_hi) == -1


class TestRootEnclosure:
    """The root half of certified: the enclosure holds a root of the infinite series, proved exactly."""

    def test_paper_enclosures_hold_a_root(self, monkeypatch):
        enclose = spectral._uncertainty_interval
        ends = []

        def recording(xi, root, lo, hi):
            found = enclose(xi, root, lo, hi)
            ends.append((xi.coeffs, *found[:2]))
            return found

        monkeypatch.setattr(spectral, "_uncertainty_interval", recording)
        bp = make_affine_pair(F(11, 10), F(19, 10))
        points = importlib.import_module("lorenzmaps.sweep")._grid(bp, F(9, 19), F(10, 11), 400)
        assert all(entropy_spectral(bp, p, n=500).certified for p in points)
        assert len(ends) == 400
        assert [i for i, (coeffs, x_lo, x_hi) in enumerate(ends) if not _root_proved(coeffs, x_lo, x_hi)] == []
        # negative control: a single point encloses nothing
        assert [i for i, (coeffs, x_lo, _) in enumerate(ends) if _root_proved(coeffs, x_lo, x_lo)] == []


def _horner_reference(coeffs, xs):
    # reference: numpy's polyval, which _horner must match bit for bit on an array
    return npoly.polyval(1.0 / xs, np.asarray(coeffs, dtype=float))


def _first_crossing_reference(xi, xs, vals, events):
    # reference: one 65-point refinement per suspicious cell, in scan order; the cells
    # lie along the last axis, of a whole grid or of the rows of spectral._scan.  It keeps
    # the earlier test min|v| <= step/(x - 1)^2, so it stays independent of spectral._cleared
    tops, bottoms = xs[..., :-1].ravel(), xs[..., 1:].ravel()
    vtops, vbottoms = vals[..., :-1].ravel(), vals[..., 1:].ravel()
    first = events[0] if events.size else tops.size
    step = tops[0] - bottoms[0]
    lip = 1.0 / (bottoms - 1.0) ** 2
    small = np.minimum(np.abs(vtops), np.abs(vbottoms)) <= step * lip
    for j in np.nonzero(small[:first])[0]:
        sub = np.linspace(tops[j], bottoms[j], 65)
        sv = _horner_reference(xi.coeffs, sub)
        ss = np.sign(sv)
        ev = np.nonzero(ss[:-1] * ss[1:] <= 0)[0]
        if ev.size:
            k = ev[0]
            return sub[k], sv[k], sub[k + 1], sv[k + 1]
    if events.size:
        i = events[0]
        return tops[i], vtops[i], bottoms[i], vbottoms[i]
    return None


class _FloatSeries:
    # stands in for XiPolynomial: the kernels read only .coeffs and .order, and the
    # coefficients may be any floats
    def __init__(self, coeffs):
        self.coeffs = tuple(float(c) for c in coeffs)
        self.order = len(self.coeffs)


def _scan(xi, xs):
    vals = _horner_reference(xi.coeffs, xs)
    sgn = np.sign(vals)
    return vals, np.nonzero(sgn[:-1] * sgn[1:] <= 0)[0]


def _bits(hit):
    return None if hit is None else tuple(float(v).hex() for v in hit)


def _suspicious_cells(xs, vals, events):
    step = xs[0] - xs[1]
    small = np.minimum(np.abs(vals[:-1]), np.abs(vals[1:])) <= step / (xs[1:] - 1.0) ** 2
    return np.nonzero(small[: events[0]])[0]


def _hidden_pair_series(pairs, scale):
    # -scale * (t - t1) * prod (t - ta)(t - tb) * ((t - td)^2 + 1e-6) in t = 1/x: a simple
    # root at x = 1.4035, close root pairs, and a near-touch at x = 1.855 that crosses nowhere
    roots = npoly.polyfromroots([1 / 1.4035] + [1 / x for pair in pairs for x in pair])
    touch = npoly.polyadd(npoly.polyfromroots([1 / 1.855, 1 / 1.855]), [1e-6])
    return _FloatSeries(-scale * npoly.polymul(roots, touch))


class TestGridKernels:
    """The in-place and batched kernels reproduce the per-call numpy ones bit for bit."""

    @staticmethod
    def _assert_one_kernel(coeffs, x):
        # a float x gives its entry of an array grid, sign of zero included, and polyval's
        # value; == is bit equality but for the sign of zero, which polyval's closing + 0.0
        # steps turn to +0.0 after an underflow
        got = xi_eval(XiPolynomial(coeffs), x)
        grid = spectral._horner(coeffs, 1 / np.array([2.0, x, 1.5]))
        assert got.hex() == float(grid[1]).hex()
        assert got == npoly.polyval(1 / x, np.asarray(coeffs, dtype=float))
        # a Fraction x gives the exact sum
        t = 1 / F(x)
        assert xi_eval(XiPolynomial(coeffs), F(x)) == sum(c * t**k for k, c in enumerate(coeffs))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=200).map(tuple),
        st.floats(1.0, 2.0, exclude_min=True),
    )
    def test_one_kernel_for_float_fraction_and_grid(self, coeffs, x):
        self._assert_one_kernel(coeffs, x)

    @pytest.mark.parametrize(
        "coeffs, value",
        [((0,) * 1200 + (-1,), -0.0), ((1,) + (0,) * 1200 + (-1,), 1.0)],
        ids=["underflow-to-minus-zero", "underflow-under-a-one"],
    )
    def test_underflow_at_two(self, coeffs, value):
        # -2^-1200 underflows to -0.0, and no exact zero added after it makes that +0.0
        self._assert_one_kernel(coeffs, 2.0)
        assert xi_eval(XiPolynomial(coeffs), 2.0).hex() == value.hex()

    def test_empty_coefficients_give_zero(self):
        for t in (0.5, F(1, 2)):
            assert spectral._horner((), t) == 0 and type(spectral._horner((), t)) is type(t)
        assert np.array_equal(spectral._horner((), np.array([0.5, 0.25])), [0.0, 0.0])
        # the empty alpha word of a constant beta = 111...: 1/(1 - 1/x) - 0
        xi = XiPolynomial((1,), PeriodicForm(1, "1", ""))
        assert xi_eval_periodic(xi, 2.0).hex() == (1 / (1 - 0.5)).hex()
        assert xi_eval_periodic(xi, F(3, 2)) == 3

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=600))
    def test_horner_matches_polyval(self, coeffs):
        coeffs = tuple(coeffs)
        xs = np.linspace(2.0, 1.01, 3201)
        cells = np.linspace(xs[:-1:50], xs[1::50], 65, axis=1)
        for grid in (xs, cells):
            got = spectral._horner(coeffs, 1 / grid)
            want = _horner_reference(coeffs, grid)
            assert got.shape == grid.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_first_crossing_matches_loop_on_paper_grid(self):
        bp = make_affine_pair(1.1, 1.9)
        xs = np.linspace(2.0, 1.05, 64 * 500 + 1)
        for p in np.linspace(9 / 19, 10 / 11, 22)[1:-1]:
            xi = xi_coeffs(kneading_prefixes(bp, float(p), 500))
            vals, events = _scan(xi, xs)
            got = spectral._first_crossing(xi, xs, vals)
            assert _bits(got) == _bits(_first_crossing_reference(xi, xs, vals, events))

    def test_first_crossing_finds_hidden_pair_after_suspicious_cells(self):
        xs = np.linspace(2.0, 1.2, 81)
        xi = _hidden_pair_series([(1.7032, 1.7058), (1.6032, 1.6058)], 1e9)
        vals, events = _scan(xi, xs)
        pair_cell, lower_pair_cell = 29, 39  # the cells (1.70, 1.71) and (1.60, 1.61)
        assert events[0] > lower_pair_cell  # the grid sees only the simple root
        cells = _suspicious_cells(xs, vals, events)
        assert pair_cell in cells and lower_pair_cell in cells
        assert np.count_nonzero(cells < pair_cell) >= 2
        got = spectral._first_crossing(xi, xs, vals)
        assert 1.70 < got[2] < got[0] < 1.71 and got[1] * got[3] <= 0
        assert _bits(got) == _bits(_first_crossing_reference(xi, xs, vals, events))

    def test_first_crossing_hit_in_a_later_block(self):
        # a series small on ~2900 cells: the refinement runs in blocks, and the
        # pair's cell lies past the first one
        xs = np.linspace(2.0, 1.2, 4001)
        xi = _hidden_pair_series([(1.70321, 1.70329)], 100.0)
        vals, events = _scan(xi, xs)
        cells = _suspicious_cells(xs, vals, events)
        assert np.count_nonzero(cells < 1483) > 1024
        got = spectral._first_crossing(xi, xs, vals)
        assert 1.7032 < got[2] < got[0] < 1.7034
        assert _bits(got) == _bits(_first_crossing_reference(xi, xs, vals, events))

    def test_sweep_csv_unchanged(self, monkeypatch):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        new = csv_text(sweep(bp, F(9, 19), F(10, 11), 40, "spectral"))
        monkeypatch.setattr(spectral, "_horner", lambda coeffs, t: npoly.polyval(t, np.asarray(coeffs, dtype=float)))

        def reference(xi, xs, vals):
            # the scan rows' grid events, in scan order, as the reference takes them
            sgn = np.sign(vals)
            return _first_crossing_reference(xi, xs, vals, np.flatnonzero(sgn[..., :-1] * sgn[..., 1:] <= 0))

        monkeypatch.setattr(spectral, "_first_crossing", reference)
        assert csv_text(sweep(bp, F(9, 19), F(10, 11), 40, "spectral")) == new


def _max_root_full_grid(xi, lo, hi, tol):
    # reference: max_root as it scanned every point of linspace(hi, lo, 64 n + 1)
    lo, hi = float(lo), float(hi)

    def f(x):
        return xi_eval(xi, x)

    num = 64 * max(xi.order, 2)
    xs = np.linspace(hi, lo, num + 1)
    vals, events = _scan(xi, xs)
    hit = _first_crossing_reference(xi, xs, vals, events)
    if hit is not None:
        x_hi, v_hi, x_lo, v_lo = hit
        if v_hi == 0.0:
            return spectral.RootResult(float(x_hi), 0.0, (float(x_hi), float(x_hi)), ODD_CROSSING)
        gamma, residual, bracket = spectral._bisect_root(f, float(x_lo), float(x_hi), float(v_lo), float(v_hi), tol)
        return spectral.RootResult(gamma, residual, bracket, ODD_CROSSING)
    raise NoRootFound("no sign change on the full grid")


def _root_bits(xi, lo, hi, tol, find):
    try:
        r = find(xi, lo, hi, tol)
    except NoRootFound:
        return "NoRootFound"
    return (r.gamma.hex(), r.residual.hex(), tuple(b.hex() for b in r.bracket), r.multiplicity_hint)


def _assert_scan_matches_full_grid(xi, lo, hi=2.0, tol=1e-7):
    """The scan keeps the full grid's first event and every cell above it that spectral._cleared
    does not clear, with the grid's bits, and max_root returns the full-grid root bit for bit."""
    num = 64 * max(xi.order, 2)
    xs = np.linspace(hi, lo, num + 1)
    vals, events = _scan(xi, xs)
    first = events[0] if events.size else num
    cleared = spectral._cleared(xi, xs[:first], xs[1 : first + 1], vals[:first], vals[1 : first + 1])
    needed = set(np.flatnonzero(~cleared)) | set(events[:1])
    rows_x, rows_v = spectral._scan(xi, lo, hi, num)
    kept = np.round((hi - rows_x[:, :-1].ravel()) / (hi - lo) * num).astype(int)
    assert needed <= set(kept)
    assert rows_x.shape[1] == spectral.RANGE_CELLS + 1
    at = np.round((hi - rows_x) / (hi - lo) * num).astype(int)
    assert np.array_equal(rows_x.view(np.int64), xs[at].view(np.int64))
    assert np.array_equal(rows_v.view(np.int64), vals[at].view(np.int64))
    assert _root_bits(xi, lo, hi, tol, max_root) == _root_bits(xi, lo, hi, tol, _max_root_full_grid)
    return rows_x.shape[0] * (spectral.RANGE_CELLS + 1)


def _paper_like_series(b0, b1, count, n=500):
    bp = make_affine_pair(b0, b1)
    lo = (1.0 + float(bp.c_min)) / 2.0
    return [(xi_coeffs(kneading_prefixes(bp, bp.a + F(k, count + 1) * (bp.b - bp.a), n)), lo)
            for k in range(1, count + 1)]


def _exact_signs(xi, xs):
    # signs of the exact truncation at the binary64 abscissae xs
    return [np.sign(float(xi_eval(xi, F(float(x))))) for x in xs]


class TestClearedRule:
    """spectral._cleared clears a cell only where no computed value can be zero or change sign."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=2, max_size=300),
        st.floats(1.01, 2.0, exclude_min=True, exclude_max=True),
        st.integers(0, 40),
        st.booleans(),
    )
    def test_cleared_cells_hold_no_zero(self, coeffs, x, width_exp, on_grid):
        xi = XiPolynomial(tuple(coeffs))
        if on_grid:
            # the cell of the 64n grid over (1.01, 2] that holds x
            num = 64 * xi.order
            j = min(int((2.0 - x) / (2.0 - 1.01) * num), num - 1)
            x_top, x_bot = spectral._grid_x(1.01, 2.0, num, np.array([j, j + 1]))
        else:
            x_top, x_bot = min(2.0, x + 2.0**-width_exp), x
        v_top, v_bot = spectral._horner(xi.coeffs, 1 / np.array([x_top, x_bot]))
        if not spectral._cleared(xi, x_top, x_bot, v_top, v_bot):
            return
        sub = np.linspace(x_top, x_bot, 257)
        assert np.all(np.sign(spectral._horner(xi.coeffs, 1 / sub)) == np.sign(v_top))
        assert _exact_signs(xi, sub[::64]) == [np.sign(v_top)] * 5

    def test_slope_term_keeps_a_hidden_pair(self):
        # cell 1483 holds the close root pair (1.70321, 1.70329): both its end values are
        # positive and their sum exceeds 4 r, so only the slope term keeps it for refinement
        xs = np.linspace(2.0, 1.2, 4001)
        xi = _hidden_pair_series([(1.70321, 1.70329)], 100.0)
        x_top, x_bot = xs[1483], xs[1484]
        v_top, v_bot = spectral._horner(xi.coeffs, 1 / np.array([x_top, x_bot]))
        assert v_top > 0.0 and v_bot > 0.0
        assert not spectral._cleared(xi, x_top, x_bot, v_top, v_bot)
        assert abs(v_top + v_bot) > 4.0 * spectral._horner_error(xi, x_bot) * (1.0 + 2.0**-40)
        sub = np.linspace(x_top, x_bot, 65)
        assert np.any(spectral._horner(xi.coeffs, 1 / sub) < 0.0)

    def test_rounding_term_keeps_a_rounded_root(self):
        # a one-ulp cell around a root of an order-40 kneading series: the exact truncation
        # changes sign in it, but both computed values are -2^-52, and their sum exceeds the
        # slope term alone, so only the rounding term keeps the cell
        bp = make_affine_pair(F(17, 10), F(19, 10))
        xi = xi_coeffs(kneading_prefixes(bp, bp.a + F(5, 8) * (bp.b - bp.a), 40))
        x_top, x_bot = 1.7988974275084766, 1.7988974275084764
        v_top, v_bot = spectral._horner(xi.coeffs, 1 / np.array([x_top, x_bot]))
        assert v_top == v_bot == -(2.0**-52)
        assert _exact_signs(xi, [x_top, x_bot]) == [1.0, -1.0]
        assert not spectral._cleared(xi, x_top, x_bot, v_top, v_bot)
        assert abs(v_top + v_bot) > (x_top - x_bot) / (x_bot - 1.0) ** 2 * (1.0 + 2.0**-40)


class TestExclusionScan:
    """The exclusion scan against the full 64n-point grid it replaces."""

    # the brackets' floors (1 + c_min)/2 of the paper pair and of the (1.05, 1.9) pair
    @pytest.mark.parametrize("lo", [(1.0 + 1.1) / 2.0, (1.0 + 1.05) / 2.0])
    @pytest.mark.parametrize("n", [2, 500, 4000])
    def test_abscissae_by_index_are_linspace_bits(self, n, lo):
        num = 64 * n
        want = np.linspace(2.0, lo, num + 1)
        got = spectral._grid_x(lo, 2.0, num, np.arange(num + 1))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("lo", [1.2, 1.05])
    @pytest.mark.parametrize(
        "pairs, scale",
        [([(1.7032, 1.7058), (1.6032, 1.6058)], 1e9), ([(1.70321, 1.70329)], 100.0), ([], 1.0)],
    )
    def test_hidden_pair_series(self, pairs, scale, lo):
        _assert_scan_matches_full_grid(_hidden_pair_series(pairs, scale), lo)

    @pytest.mark.parametrize("lo", [1.05, 1.3])
    @pytest.mark.parametrize("r", [1, 77, 200, 431])
    def test_slope_at_the_bound(self, r, lo):
        # a - sum_{k>=1} x^-k falls at the full slope bound 1/(x-1)^2; its root lies 0.4 cells
        # below the bottom node of a range, so that range ends in a cell the search refines
        n = 500
        xs = np.linspace(2.0, lo, 64 * n + 1)
        root = xs[64 * r] - 0.4 * (xs[0] - xs[1])
        xi = _FloatSeries((1.0 / (root - 1.0),) + (-1.0,) * (n - 1))
        vals, events = _scan(xi, xs)
        assert events[0] == 64 * r and _suspicious_cells(xs, vals, events)[-1] == 64 * r - 1
        _assert_scan_matches_full_grid(xi, lo)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=400),
        st.sampled_from([1.025, 1.05, 1.3, 1.9]),
    )
    def test_random_series(self, coeffs, lo):
        xi = XiPolynomial(tuple(coeffs))
        _assert_scan_matches_full_grid(xi, lo)
        try:
            bracket = max_root(xi, lo, 2.0, 1e-7).bracket
        except NoRootFound:
            return
        assert lo <= bracket[0] <= bracket[1] <= 2.0

    @pytest.mark.parametrize("xi, lo", _NO_CROSSING, ids=_NO_CROSSING_IDS)
    def test_no_crossing_on_either_path(self, xi, lo):
        _assert_scan_matches_full_grid(xi, lo, tol=1e-8)
        assert _root_bits(xi, lo, 2.0, 1e-8, max_root) == "NoRootFound"

    @pytest.mark.parametrize("b0, b1", [(F(11, 10), F(19, 10)), (F(105, 100), F(19, 10))])
    def test_kneading_series(self, b0, b1):
        evaluated = [_assert_scan_matches_full_grid(xi, lo) for xi, lo in _paper_like_series(b0, b1, 40)]
        assert max(evaluated) < 64 * 500 // 10
