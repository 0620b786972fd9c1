"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

The expensive sweeps (the 200/1000/4000-point scans of the affine pair
(1.1, 1.9) over [9/19, 10/11]) are shared module-scoped fixtures.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import math
import os
import random
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lorenzmaps import (
    BUMP,
    DIP,
    LOWER,
    UPPER,
    KneadingPair,
    LorenzMap,
    NonMonotoneFeature,
    NoRootFound,
    XiPolynomial,
    compare_methods,
    continuity_modulus,
    cross_confirm_features,
    detect_nonmonotonic,
    entropy_laps,
    entropy_spectral,
    itinerary,
    kneading_prefixes,
    lap_counts_bruteforce,
    lap_states,
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

SPECTRAL_N = 500
SPECTRAL_TOL = 1e-7
LAPS_N = 50
LAPS_WINDOW = 10

WORKERS = min(4, os.cpu_count() or 1)


def report(num, description, ok, detail=""):
    print(f"[criterion {num}] {description}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {description} {detail}"


@pytest.fixture(scope="module")
def affine_pair():
    return make_affine_pair(F(11, 10), F(19, 10))


@pytest.fixture(scope="module")
def grid200(affine_pair):
    spectral = sweep(affine_pair, F(9, 19), F(10, 11), 200, "spectral",
                     n=SPECTRAL_N, tol=SPECTRAL_TOL, workers=WORKERS)
    laps = sweep(affine_pair, F(9, 19), F(10, 11), 200, "laps",
                 n=LAPS_N, window=LAPS_WINDOW, workers=WORKERS)
    return spectral, laps


@pytest.fixture(scope="module")
def sweep1000(affine_pair):
    return sweep(affine_pair, F(9, 19), F(10, 11), 1000, "spectral",
                 n=SPECTRAL_N, tol=SPECTRAL_TOL, workers=WORKERS)


@pytest.fixture(scope="module")
def sweep4000(affine_pair):
    return sweep(affine_pair, F(9, 19), F(10, 11), 4000, "spectral",
                 n=SPECTRAL_N, tol=SPECTRAL_TOL, workers=WORKERS)


def test_criterion_1_uniform_exactness():
    worst_spectral = worst_laps = 0.0
    for b in (F(6, 5), F(3, 2), F(9, 5)):
        bp = make_uniform_pair(b)
        target = math.log(b.numerator) - math.log(b.denominator)
        for j in range(1, 6):
            p = bp.a + j * (bp.b - bp.a) / 6
            est = entropy_spectral(bp, p, n=500, tol=1e-9)
            worst_spectral = max(worst_spectral, abs(est.entropy - target))
            lap_est = entropy_laps(LorenzMap(bp, p, UPPER), LAPS_N, LAPS_WINDOW)
            worst_laps = max(worst_laps, abs(lap_est.entropy - target))
    report(
        1,
        "uniform maps: entropy equals ln b",
        worst_spectral <= 1e-6 and worst_laps <= 1e-9,
        f"(spectral off by {worst_spectral:.2e} <= 1e-6, laps off by {worst_laps:.2e} <= 1e-9)",
    )


def test_criterion_2_cross_method_agreement(grid200):
    spectral, laps = grid200
    max_diff, mean_diff, worst_p = compare_methods(spectral, laps)
    report(
        2,
        "spectral vs lap entropy on 200 points of (1.1, 1.9)",
        max_diff <= 0.02,
        f"(max |diff| = {max_diff:.5f} <= 0.02 at p = {worst_p:.6f}, mean = {mean_diff:.6f})",
    )


@pytest.fixture(scope="module")
def confirmed4000(affine_pair, sweep4000):
    features = detect_nonmonotonic(sweep4000, 1e-5)
    return cross_confirm_features(affine_pair, sweep4000, features[:4], workers=WORKERS)


def test_criterion_3_nonmonotonicity(sweep4000, confirmed4000):
    features = detect_nonmonotonic(sweep4000, 1e-5)
    confirmed = confirmed4000
    best = confirmed[0].prominence if confirmed else 0.0
    report(
        3,
        "non-monotone feature proved by lap enclosures exists",
        len(confirmed) >= 1 and best >= 1e-5,
        f"({len(features)} candidates, {len(confirmed)} of the top 4 proved, best prominence {best:.2e})",
    )


def test_confirmed_features_bytes(confirmed4000):
    # the confirmed features as `sweep --features-out` writes them, byte for byte
    got = json.dumps([asdict(f) for f in confirmed4000]) + "\n"
    assert got == (Path(__file__).parent / "data" / "paper_4000_features.json").read_bytes().decode("utf-8")


def test_peak_rule_matches_scipy_on_the_paper_curve(sweep4000):
    # the built-in peak rule gives scipy.signal.find_peaks' features, bit for bit, on the paper curve
    from scipy.signal import find_peaks

    ps = np.array([float(r.p) for r in sweep4000 if r.status == "ok"])
    hs = np.array([r.estimate.entropy for r in sweep4000 if r.status == "ok"])
    idx = np.arange(len(ps))
    expected = []
    for sign, direction in ((1.0, BUMP), (-1.0, DIP)):
        peaks, props = find_peaks(sign * hs, prominence=1e-5, width=0, rel_height=1.0)
        keys = ("left_ips", "right_ips", "prominences", "left_bases", "right_bases")
        for peak, left, right, prominence, left_base, right_base in zip(peaks, *(props[key] for key in keys)):
            lo, hi = float(np.interp(left, idx, ps)), float(np.interp(right, idx, ps))
            bases = (float(ps[peak]), float(ps[left_base]), float(ps[right_base]))
            expected.append(NonMonotoneFeature(lo, hi, float(prominence), direction, *bases))
    expected.sort(key=lambda f: (-f.prominence, f.p_low))
    got = detect_nonmonotonic(sweep4000, 1e-5)
    assert len(got) == 294
    assert json.dumps([asdict(f) for f in got]) == json.dumps([asdict(f) for f in expected])


def test_criterion_4_empirical_continuity(sweep1000, sweep4000):
    coarse, _ = continuity_modulus(sweep1000)
    fine, _ = continuity_modulus(sweep4000)
    slack = 2 * SPECTRAL_TOL
    report(
        4,
        "grid refinement does not enlarge the continuity modulus",
        fine <= coarse + slack and coarse <= 0.02 and fine <= 0.02,
        f"(max jump {coarse:.5f} at 1000 pts, {fine:.5f} at 4000 pts, slack {slack:.0e})",
    )


def test_criterion_5_lap_oracle_equivalence(draw_affine):
    rng = random.Random(20240817)
    checked = 0
    for _ in range(25):
        m = LorenzMap(*draw_affine(rng))
        # one propagation and one grid pass per map give the counts of T^1, ..., T^8
        exact_counts = [state.total_laps for state in lap_states(m, 8)]
        estimates = lap_counts_bruteforce(m, 8, 10**6)
        for n, (exact, estimate) in enumerate(zip(exact_counts, estimates, strict=True), start=1):
            assert exact == estimate, (
                f"lap mismatch: {m.branches.f0.slopes[0]}, {m.branches.f1.slopes[0]}, "
                f"p={m.p}, n={n}: {exact} vs {estimate}"
            )
            checked += 1
    report(5, "lap counts match the grid oracle (n <= 8, 25 random pairs)", checked == 200,
           f"({checked} comparisons)")


def test_criterion_6_tail_bound_soundness(draw_affine):
    rng = random.Random(11235)
    checked = 0
    for _ in range(6):
        m = LorenzMap(*draw_affine(rng))
        # the binary64 slopes and p make another map; the bound is structural in the coefficients
        bp = make_affine_pair(*(float(f.slopes[0]) for f in (m.branches.f0, m.branches.f1)))
        coeffs = xi_coeffs(kneading_prefixes(bp, float(m.p), 600)).coeffs
        for x in (F(13, 10), F(3, 2), F(17, 10), F(2)):
            t = 1 / x
            partial = [F(0)]
            power = F(1)
            for c in coeffs:
                partial.append(partial[-1] + c * power)
                power *= t
            # suffix extremes make the check over all n < m <= 600 exact and O(N)
            suffix_hi = partial[-1]
            suffix_lo = partial[-1]
            for n in range(599, -1, -1):
                spread = max(suffix_hi - partial[n], partial[n] - suffix_lo)
                assert spread <= tail_bound(x, n), f"tail violated at n={n}, x={x}"
                suffix_hi = max(suffix_hi, partial[n])
                suffix_lo = min(suffix_lo, partial[n])
                checked += 1
    report(6, "truncation differences stay within the geometric tail bound", checked == 6 * 4 * 600,
           f"({checked} (n, x) checks over m <= 600)")


def test_criterion_7_invariant_suites(grid200, sweep4000, draw_affine):
    rng = random.Random(424243)

    # kneading words of p are monotone in p (finite-prefix order), exact mode
    bp = make_affine_pair(F(11, 10), F(19, 10))
    span = bp.b - bp.a
    for _ in range(1000):
        x = bp.a + F(rng.randint(0, 10**6), 10**6) * span
        y = bp.a + F(rng.randint(0, 10**6), 10**6) * span
        if x == y:
            continue
        x, y = min(x, y), max(x, y)
        n = rng.randint(1, 64)
        side = rng.choice((UPPER, LOWER))
        wx = itinerary(LorenzMap(bp, x, side), x, n)
        wy = itinerary(LorenzMap(bp, y, side), y, n)
        assert wx <= wy  # equal lengths, so str order is the lexicographic order

    # coefficient alphabet and leading coefficient
    for _ in range(50):
        m = LorenzMap(*draw_affine(rng))
        xi = xi_coeffs(kneading_prefixes(m.branches, m.p, rng.randint(2, 48)))
        assert all(c in (-1, 0, 1) for c in xi.coeffs)
        assert xi.coeffs[0] == 1

    # lap-count submultiplicativity
    for _ in range(20):
        m = LorenzMap(*draw_affine(rng))
        counts = [s.total_laps for s in lap_states(m, 20)]
        n, k = rng.randint(1, 10), rng.randint(1, 10)
        assert counts[n + k - 1] <= counts[n - 1] * counts[k - 1]

    # every sweep record stays within the slope-derived entropy bounds
    lo, hi = math.log(1.1), math.log(1.9)
    for records in (*grid200, sweep4000):
        for r in records:
            if r.status == "ok":
                err = r.estimate.error_bound
                assert lo - err <= r.estimate.entropy <= hi + err

    report(7, "invariant suites (order, alphabet, submultiplicativity, bounds)", True,
           "(1000 + 50 + 20 checks plus all sweep records)")


def test_criterion_8_root_finder_units():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    res = max_root(XiPolynomial((1, -1, -1)), 1.05, 2.0, 1e-12)
    golden_ok = abs(res.gamma - phi) <= 1e-10

    try:
        max_root(XiPolynomial((1,)), 1.05, 2.0, 1e-10)
        no_root_ok = False
    except NoRootFound:
        no_root_ok = True

    rng = random.Random(8128)
    periodic_ok = True
    for _ in range(30):
        period = rng.randint(1, 8)
        head = "1" + "".join(rng.choice("01") for _ in range(period - 1))
        n = rng.randint(period, 128)
        beta = (head * (n // period + 1))[:n]
        alpha = "0" + "".join(rng.choice("01") for _ in range(n - 1))
        xi = xi_coeffs(KneadingPair(alpha, beta, beta_period=period))
        for x in (F(13, 10), F(3, 2), F(9, 5)):
            if abs(xi_eval_periodic(xi, x) - xi_eval(xi, x)) > 2 * tail_bound(x, n):
                periodic_ok = False

    report(
        8,
        "root finder units (golden ratio, constant series, periodic resummation)",
        golden_ok and no_root_ok and periodic_ok,
        f"(|gamma - phi| = {abs(res.gamma - phi):.1e})",
    )
