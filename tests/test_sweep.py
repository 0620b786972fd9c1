import importlib
import math
import multiprocessing
import os
import sys
from concurrent.futures import Future
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lorenzmaps import (
    BUMP,
    DIP,
    DomainError,
    EntropyEstimate,
    GridMismatch,
    InsufficientData,
    LorenzError,
    RangeError,
    ResourceLimit,
    SweepRecord,
    compare_methods,
    continuity_modulus,
    cross_confirm_features,
    csv_text,
    detect_nonmonotonic,
    make_affine_pair,
    make_uniform_pair,
    sweep,
)

F = Fraction
sweep_module = importlib.import_module("lorenzmaps.sweep")


def ok_record(p, h, err=1e-9):
    return SweepRecord(p, EntropyEstimate(h, math.exp(h), "spectral", 100, err, True), "ok")


@pytest.fixture(scope="module")
def uniform_records():
    bp = make_uniform_pair(F(3, 2))
    return sweep(bp, F(7, 20), F(13, 20), 61, "spectral", n=500, tol=1e-9)


class TestSweep:
    def test_uniform_is_flat(self, uniform_records):
        assert len(uniform_records) == 61
        assert all(r.status == "ok" for r in uniform_records)
        for r in uniform_records:
            assert abs(r.estimate.entropy - math.log(1.5)) < 1e-6

    def test_sorted_unique_grid(self, uniform_records):
        ps = [r.p for r in uniform_records]
        assert ps == sorted(ps)
        assert len(set(ps)) == len(ps)

    def test_two_points(self):
        bp = make_uniform_pair(F(3, 2))
        recs = sweep(bp, F(2, 5), F(3, 5), 2, "spectral", n=50, tol=1e-8)
        assert [r.p for r in recs] == [F(2, 5), F(3, 5)]

    def test_range_validation(self):
        bp = make_uniform_pair(F(3, 2))
        with pytest.raises(RangeError):
            sweep(bp, F(1, 5), F(3, 5), 4, "spectral", n=20)
        with pytest.raises(RangeError):
            sweep(bp, F(3, 5), F(2, 5), 4, "spectral", n=20)
        with pytest.raises(DomainError):
            sweep(bp, F(2, 5), F(3, 5), 1, "spectral", n=20)

    @pytest.mark.parametrize("bounds", [(math.nan, 0.6), (0.4, math.inf), (-math.inf, 0.6)])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(LorenzError):
            sweep(make_uniform_pair(F(3, 2)), *bounds, 3)

    def test_boundary_margin(self):
        bp = make_uniform_pair(F(3, 2))
        recs = sweep(bp, bp.a, bp.b, 11, "spectral", n=50)
        margin = (bp.b - bp.a) / 10
        assert recs[0].p == bp.a + margin
        assert recs[-1].p == bp.b - margin

    def test_workers_do_not_change_output(self):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        serial = sweep(bp, F(1, 2), F(4, 5), 12, "spectral", n=120, tol=1e-8)
        parallel = sweep(bp, F(1, 2), F(4, 5), 12, "spectral", n=120, tol=1e-8, workers=2)
        assert serial == parallel

    def test_laps_method(self):
        bp = make_uniform_pair(F(3, 2))
        recs = sweep(bp, F(2, 5), F(3, 5), 5, "laps", n=30, window=10)
        for r in recs:
            assert r.status == "ok"
            assert abs(r.estimate.entropy - math.log(1.5)) < 1e-12

    def test_unknown_method(self, monkeypatch):
        # rejected before either estimator runs
        module = sys.modules["lorenzmaps.sweep"]

        def evaluated(*args, **kwargs):
            raise AssertionError("an estimator ran")

        monkeypatch.setattr(module, "entropy_spectral", evaluated)
        monkeypatch.setattr(module, "entropy_laps", evaluated)
        bp = make_uniform_pair(F(3, 2))
        with pytest.raises(DomainError, match="unknown method"):
            module.estimate(bp, F(1, 2), "bogus")
        for method in ("bogus", "transfer-operator"):
            with pytest.raises(DomainError, match="unknown method"):
                sweep(bp, F(2, 5), F(3, 5), 3, method=method)


    @pytest.mark.parametrize(
        "method, n, window, error",
        [
            ("bogus", None, 10, DomainError),
            ("spectral", 1, 10, DomainError),
            ("spectral", "cap", 10, ResourceLimit),
            ("laps", 20, 20, DomainError),
            ("laps", None, 0, DomainError),
            ("laps", "cap", 10, ResourceLimit),
        ],
        ids=["method", "spectral-n-1", "spectral-n-past-cap", "laps-window-n", "laps-window-0", "laps-n-past-cap"],
    )
    def test_point_parameters_checked_before_the_grid(self, monkeypatch, method, n, window, error):
        if n == "cap":
            module, cap = ("kneading", "MAX_STEPS") if method == "spectral" else ("laps", "MAX_ITERATES")
            n = getattr(importlib.import_module(f"lorenzmaps.{module}"), cap) + 1
        calls = []
        monkeypatch.setattr(sweep_module, "_grid", lambda *args: calls.append("grid"))
        monkeypatch.setattr(sweep_module, "_run_points", lambda *args: calls.append("points"))
        with pytest.raises(error):
            sweep(make_uniform_pair(F(3, 2)), F(2, 5), F(3, 5), 3, method, n=n, window=window)
        assert calls == []

    @pytest.mark.parametrize("points", [2, 3])
    def test_range_collapses_inside_the_margins(self, points):
        # over all of [a, b], 2 or 3 points leave no room once each end moves in by a spacing
        bp = make_uniform_pair(F(3, 2))
        with pytest.raises(RangeError, match="collapses"):
            sweep(bp, bp.a, bp.b, points)

    def test_resource_limit_rows(self, monkeypatch):
        # a class cap below the lap count of every point: each row reads resource-limit, and the sweep ends
        monkeypatch.setattr(importlib.import_module("lorenzmaps.laps"), "MAX_CLASSES", 2)
        recs = sweep(make_affine_pair(F(11, 10), F(19, 10)), F(1, 2), F(4, 5), 4, "laps", workers=1)
        assert [r.status for r in recs] == ["resource-limit"] * 4
        assert all(r.estimate is None for r in recs)
        rows = csv_text(recs).splitlines()[1:]
        assert [row.split(",")[1:] for row in rows] == [["", "", "", "", "", "resource-limit"]] * 4


@pytest.fixture
def recording_pool(monkeypatch):
    """The max_workers of every pool opened, with four usable CPUs whatever the machine.

    The stand-in pool starts no process and runs each task as it is submitted.
    """
    opened = []

    class RecordingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(sys.modules["lorenzmaps.sweep"], "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    return opened


class TestPoolSize:
    """A pool forks one process fewer than the points and usable CPUs; the caller is the last worker."""

    def test_capped_by_points_and_cpus(self, recording_pool):
        bp = make_uniform_pair(F(3, 2))
        serial = sweep(bp, F(2, 5), F(3, 5), 3, "spectral", n=40)
        assert recording_pool == []
        assert sweep(bp, F(2, 5), F(3, 5), 3, "spectral", n=40, workers=100000) == serial
        assert sweep(bp, F(2, 5), F(3, 5), 9, "spectral", n=40, workers=100000)[::4] == serial
        assert sweep(bp, F(2, 5), F(3, 5), 9, "spectral", n=40, workers=2)[::4] == serial
        assert recording_pool == [2, 3, 1]

    def test_one_usable_cpu_runs_serially(self, recording_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        bp = make_uniform_pair(F(3, 2))
        sweep(bp, F(2, 5), F(3, 5), 3, "spectral", n=40, workers=8)
        assert recording_pool == []

    def test_cli_huge_worker_count(self, recording_pool, capsys):
        from lorenzmaps.cli import main

        argv = ["sweep", "--b0", "1.5", "--b1", "1.5", "--p-min", "2/5", "--p-max", "3/5", "--points", "3",
                "--n", "40", "--workers", "100000"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert recording_pool == [2]


class SliceFailed(Exception):
    pass


def _square_unless(bad, p):
    # (p squared, the pid that computed it); raises at p == bad
    if p == bad:
        raise SliceFailed(p)
    return p * p, os.getpid()


class TestRunPoints:
    """_run_points splits the points between the caller and w - 1 forked helpers and keeps their order."""

    @pytest.fixture
    def four_cpus(self, monkeypatch):
        # the real pool, recording the max_workers of each
        opened = []
        real = sweep_module.ProcessPoolExecutor

        def recorded(max_workers):
            opened.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        return opened

    def test_equals_the_serial_map(self, four_cpus):
        fn = partial(_square_unless, None)
        me = os.getpid()
        for workers in range(1, 5):
            for count in range(18):
                ps = list(range(count))
                out = sweep_module._run_points(fn, ps, workers)
                assert [h for h, _ in out] == [p * p for p in ps]
                w = min(workers, count)
                if w > 1:
                    assert four_cpus.pop() == w - 1
                    # the caller runs ps[0::w], a helper every other slice
                    assert all((pid == me) == (i % w == 0) for i, (_, pid) in enumerate(out))
                else:
                    assert all(pid == me for _, pid in out)
                assert four_cpus == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("bad", [4, 3], ids=["helper", "caller"])
    def test_an_exception_reaches_the_caller(self, four_cpus, bad):
        # with 3 workers the caller runs p = 0, 3, 6 and the first helper p = 1, 4, 7
        with pytest.raises(SliceFailed):
            sweep_module._run_points(partial(_square_unless, bad), list(range(9)), 3)
        assert four_cpus == [2]
        assert multiprocessing.active_children() == []


class TestDetectNonmonotonic:
    def test_monotone_gives_nothing(self):
        recs = [ok_record(0.1 * k, 0.01 * k) for k in range(1, 8)]
        assert detect_nonmonotonic(recs, 1e-4) == []

    def test_synthetic_dip(self):
        recs = [ok_record(0.1, 0.5), ok_record(0.2, 0.4), ok_record(0.3, 0.5)]
        feats = detect_nonmonotonic(recs, 0.05)
        assert len(feats) == 1
        feat = feats[0]
        assert feat.direction == DIP
        assert feat.prominence == pytest.approx(0.1, abs=1e-12)
        assert feat.p_low == pytest.approx(0.1)
        assert feat.p_high == pytest.approx(0.3)

    def test_synthetic_bump_and_ordering(self):
        hs = [0.1, 0.3, 0.1, 0.15, 0.1, 0.4, 0.1]
        recs = [ok_record(0.1 * (k + 1), h) for k, h in enumerate(hs)]
        feats = detect_nonmonotonic(recs, 0.01)
        assert feats[0].prominence >= feats[-1].prominence
        assert any(f.direction == BUMP for f in feats)

    def test_below_tolerance_ignored(self):
        recs = [ok_record(0.1, 0.5), ok_record(0.2, 0.4999), ok_record(0.3, 0.5)]
        assert detect_nonmonotonic(recs, 0.01) == []

    def test_tolerance_positive(self):
        with pytest.raises(DomainError):
            detect_nonmonotonic([ok_record(0.1, 0.5)], 0.0)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(DomainError):
            detect_nonmonotonic([ok_record(0.1, 0.5)], math.nan)

    @pytest.mark.parametrize("ok", [0, 1, 2])
    def test_fewer_than_three_ok_records(self, ok):
        # the curve 0.5, 0.4, 0.5 dips once all three points are ok; failed records do not count
        ps, hs = (0.1, 0.2, 0.3), (0.5, 0.4, 0.5)
        recs = [ok_record(p, h) if k < ok else SweepRecord(p, None, "no-root") for k, (p, h) in enumerate(zip(ps, hs))]
        assert detect_nonmonotonic(recs, 0.01) == []
        bp = make_affine_pair(F(11, 10), F(19, 10))
        feature = sweep_module.NonMonotoneFeature(0.1, 0.3, 0.1, DIP)
        assert cross_confirm_features(bp, recs, [feature], prominence_tol=0.01) == []


def _scipy_peaks(x, tol):
    from scipy.signal import find_peaks

    peaks, props = find_peaks(np.array(x, dtype=float), prominence=tol, width=0, rel_height=1.0)
    return list(zip(peaks.tolist(), *(props[key].tolist() for key in ("prominences", "left_ips", "right_ips"))))


def _bits(peaks):
    return [(peak, *(float(v).hex() for v in values)) for peak, *values in peaks]


# curves on 3 or 10 levels have plateaus, ties and prominences equal to the tolerances below
_LEVEL_CURVES = st.sampled_from([2, 9]).flatmap(
    lambda top: st.lists(st.integers(0, top).map(lambda v: v / top), max_size=40)
)
_FREE_CURVES = st.lists(st.floats(-1, 1, allow_nan=False), max_size=40)


class TestPeakRule:
    @settings(max_examples=600, deadline=None)
    @given(
        x=st.one_of(_LEVEL_CURVES, _FREE_CURVES),
        tol=st.sampled_from([1e-12, 1e-5, 1 / 9, 0.25, 0.5, 1.0, 2.0]),
    )
    @example(x=[], tol=0.5)
    @example(x=[1.0, 0.0, 1.0], tol=0.5)  # maxima at both ends only
    @example(x=[0.0, 1.0, 1.0, 1.0, 1.0, 0.0], tol=0.5)  # even plateau: the lower middle
    @example(x=[0.0, 1.0, 1.0], tol=0.5)  # a plateau that reaches the end is no peak
    @example(x=[0.0, 1.0, 0.5, 1.0], tol=0.5)  # prominence equal to the tolerance is kept
    def test_matches_scipy_find_peaks(self, x, tol):
        peaks = importlib.import_module("lorenzmaps.sweep")._peaks
        assert _bits(peaks(x, tol)) == _bits(_scipy_peaks(x, tol))


class TestCrossConfirm:
    def test_overlapping_features_workers_independent(self, monkeypatch):
        # 60 points of the paper pair give a bump and a dip sharing grid points
        bp = make_affine_pair(F(11, 10), F(19, 10))
        records = sweep(bp, F(9, 19), F(10, 11), 60, "spectral")
        features = detect_nonmonotonic(records, 1e-5)
        assert any(
            f.p_low <= g.p_high and g.p_low <= f.p_high for f in features for g in features if f != g
        )
        sweep_module = sys.modules["lorenzmaps.sweep"]
        run_points = sweep_module._run_points
        batches = []

        def recording(fn, ps, workers):
            batches.append(list(ps))
            return run_points(fn, ps, workers)

        monkeypatch.setattr(sweep_module, "_run_points", recording)
        serial = cross_confirm_features(bp, records, features, prominence_tol=1e-5)
        parallel = cross_confirm_features(bp, records, features, prominence_tol=1e-5, workers=2)
        assert serial == parallel
        assert len(serial) >= 1
        # one batch per call, each p evaluated once, at the exact grid point of the lap sweep
        assert len(batches) == 2
        assert batches[0] == sorted(set(batches[0]))
        grid = set(sweep_module._grid(bp, F(9, 19), F(10, 11), 60))
        assert all(p in grid for p in batches[0])

    def test_a_lap_sweep_is_confirmed_by_the_spectral_method(self, monkeypatch):
        # a dip of 0.01 in a lap curve: the spectral method, not the lap method, must reproduce it
        sweep_module = sys.modules["lorenzmaps.sweep"]
        bp = make_affine_pair(F(11, 10), F(19, 10))
        grid = sweep_module._grid(bp, F(1, 2), F(4, 5), 30)
        dip = [0.19 if i == 15 else 0.2 for i in range(30)]
        records = [SweepRecord(p, EntropyEstimate(h, math.exp(h), "laps", 50, 1e-9, False), "ok")
                   for p, h in zip(grid, dip)]
        features = detect_nonmonotonic(records, 1e-5)
        assert [f.direction for f in features] == [DIP]

        def no_laps(*args, **kwargs):
            raise AssertionError("the lap estimator ran")

        spectral_points = []
        spectral = sweep_module.entropy_spectral
        monkeypatch.setattr(sweep_module, "entropy_laps", no_laps)
        monkeypatch.setattr(
            sweep_module, "entropy_spectral", lambda bp, p, n, tol: spectral_points.append(p) or spectral(bp, p, n, tol)
        )
        assert cross_confirm_features(bp, records, features, prominence_tol=1e-5) == []
        assert spectral_points == grid[11:20]


    @pytest.mark.parametrize("gap, confirmed", [(1.5, True), (2.5, False)])
    def test_prominences_match_within_twice_the_error_bounds(self, monkeypatch, gap, confirmed):
        # a prominence is the difference of two curve values, each off by up to its method's
        # bound, so honest prominences may differ by 2 (e_l + e_s) and no more
        sweep_module = sys.modules["lorenzmaps.sweep"]
        bp = make_affine_pair(F(11, 10), F(19, 10))
        grid = sweep_module._grid(bp, F(1, 2), F(4, 5), 30)
        e_l = e_s = 1e-4

        def dip(depth):
            return {p: 0.2 - depth if i == 15 else 0.2 for i, p in enumerate(grid)}

        laps_h, spectral_h = dip(0.01), dip(0.01 + gap * (e_l + e_s))
        records = [SweepRecord(p, EntropyEstimate(laps_h[p], math.exp(laps_h[p]), "laps", 50, e_l, False), "ok")
                   for p in grid]
        features = detect_nonmonotonic(records, 1e-5)
        assert [f.direction for f in features] == [DIP]
        monkeypatch.setattr(
            sweep_module,
            "entropy_spectral",
            lambda bp, p, n, tol: EntropyEstimate(spectral_h[p], math.exp(spectral_h[p]), "spectral", n, e_s, True),
        )
        assert cross_confirm_features(bp, records, features, prominence_tol=1e-5) == (features if confirmed else [])


class TestContinuityModulus:
    def test_synthetic(self):
        max_jump, at_p = continuity_modulus([ok_record(0.2, 0.4), ok_record(0.4, 0.7)])
        assert max_jump == pytest.approx(0.3, abs=1e-15)
        assert at_p == pytest.approx(0.3)

    def test_uniform_sweep_is_flat(self, uniform_records):
        max_jump, _ = continuity_modulus(uniform_records)
        assert max_jump <= 2e-6

    def test_requires_two_records(self):
        with pytest.raises(InsufficientData):
            continuity_modulus([ok_record(0.2, 0.4)])


class TestCompareMethods:
    def test_identical(self):
        recs = [ok_record(0.1, 0.5), ok_record(0.2, 0.6)]
        assert compare_methods(recs, recs) == (0.0, 0.0, 0.1)

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            compare_methods([ok_record(0.1, 0.5)], [ok_record(0.2, 0.5)])
        with pytest.raises(GridMismatch):
            compare_methods([ok_record(0.1, 0.5)], [ok_record(0.1, 0.5)] * 2)

    def test_uniform_methods_agree(self):
        bp = make_uniform_pair(F(3, 2))
        spectral = sweep(bp, F(2, 5), F(3, 5), 9, "spectral", n=500, tol=1e-9)
        laps = sweep(bp, F(2, 5), F(3, 5), 9, "laps", n=50, window=10)
        max_diff, mean_diff, _ = compare_methods(spectral, laps)
        assert max_diff <= 1e-3
        assert mean_diff <= max_diff

    def test_no_common_ok_records(self):
        bad = [SweepRecord(0.1, None, "no-root")]
        good = [ok_record(0.1, 0.5)]
        with pytest.raises(InsufficientData):
            compare_methods(bad, good)


class TestCsv:
    def test_exact_header_and_determinism(self, uniform_records):
        text_a = csv_text(uniform_records)
        text_b = csv_text(uniform_records)
        assert text_a == text_b
        lines = text_a.split("\n")
        assert lines[0] == "p,entropy,gamma,method,order,error_bound,status"
        assert text_a.endswith("\n")
        assert "\r" not in text_a

    def test_seventeen_digits(self):
        rec = ok_record(1 / 3, math.log(1.5))
        line = csv_text([rec]).split("\n")[1]
        assert line.split(",")[0] == "0.33333333333333331"

    def test_failed_record_row(self):
        text = csv_text([SweepRecord(0.25, None, "no-root")])
        assert text.split("\n")[1] == "0.25,,,,,,no-root"

    def test_write_to_path(self, tmp_path, uniform_records):
        target = tmp_path / "curve.csv"
        from lorenzmaps import write_csv

        write_csv(uniform_records, target)
        data = target.read_bytes()
        assert data.decode("utf-8") == csv_text(uniform_records)
        assert b"\r" not in data


#: the paper pair's sweep files, written at the commit that introduced this test; a change
#: that alters a row must regenerate the file and say why
GOLDEN = Path(__file__).parent / "data"


class TestPaperCurveBytes:
    @pytest.mark.parametrize(
        "name, points, method",
        [("paper_400_spectral.csv", 400, "spectral"), ("paper_12_laps.csv", 12, "laps")],
    )
    def test_byte_identical(self, name, points, method):
        bp = make_affine_pair(F(11, 10), F(19, 10))
        got = csv_text(sweep(bp, F(9, 19), F(10, 11), points, method)).split("\n")
        want = (GOLDEN / name).read_bytes().decode("utf-8").split("\n")
        for row, (line, expected) in enumerate(zip(got, want)):
            assert line == expected, f"{name}: row {row} differs"
        assert len(got) == len(want), f"{name}: {len(got)} lines, expected {len(want)}"
