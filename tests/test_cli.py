import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lorenzmaps.cli import main


SWEEP_ARGS = [
    "sweep", "--b0", "1.1", "--b1", "1.9", "--p-min", "9/19", "--p-max", "10/11", "--points", "60",
]
# at n = 8 the paper pair's two lowest grid points have no sign change in their bracket
NO_ROOT_SWEEP_ARGS = [
    "sweep", "--b0", "1.1", "--b1", "1.9", "--p-min", "9/19", "--p-max", "10/11", "--points", "8",
    "--n", "8", "--workers", "1",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropyCommand:
    def test_spectral_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "entropy", "--b0", "1.5", "--b1", "1.5", "--p", "3/5",
            "--method", "spectral", "--n", "500", "--tol", "1e-7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entropy"] == pytest.approx(math.log(1.5), abs=1e-6)
        assert payload["method"] == "spectral"
        assert payload["order"] == 500
        assert payload["certified"] is True

    def test_coarse_tol_keeps_the_bracket_floor(self, capsys):
        # the root bracket starts at (1 + c_min)/2 = 1.05 for every tol; 1 + tol would lie above this root
        argv = ["entropy", "--b0", "1.1", "--b1", "1.9", "--p", "0.7"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        fine = json.loads(out)
        assert fine["certified"] is True and fine["gamma"] < 1.25
        for tol in ("0.2", "0.25"):
            code, out, err = run_cli(capsys, *argv, "--tol", tol)
            assert code == 0, err
            coarse = json.loads(out)
            assert coarse["certified"] is True
            # both enclosures hold the root, and each estimate lies in its own
            assert abs(coarse["entropy"] - fine["entropy"]) <= 2 * (coarse["error_bound"] + fine["error_bound"])

    def test_laps_method(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "entropy", "--b0", "1.5", "--b1", "1.5", "--p", "0.5",
            "--method", "laps", "--n", "50",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entropy"] == pytest.approx(math.log(1.5), abs=1e-9)
        assert payload["certified"] is False

    def test_invalid_slopes_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "--b0", "2", "--b1", "2", "--p", "0.5")
        assert code == 2
        assert "InvalidSlopes" in err

    def test_missing_branches_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "--p", "0.5")
        assert code == 2
        assert "slopes" in err

    def test_p_outside_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "--b0", "1.5", "--b1", "1.5", "--p", "0.1")
        assert code == 2

    def test_no_root_exit_3(self, capsys):
        # these truncations change sign nowhere in their bracket; the second map is certified at n = 500
        for argv in (["--b0", "1.1", "--b1", "1.9", "--p", "0.7", "--n", "2"],
                     ["--b0", "51/50", "--b1", "179/100", "--p", "79/179", "--n", "50"]):
            code, out, err = run_cli(capsys, "entropy", *argv)
            assert code == 3
            assert out == ""
            assert err.startswith("error:") and "changes sign nowhere" in err and "larger order" in err
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_resource_limit_exit_4(self, capsys, monkeypatch):
        from lorenzmaps import ResourceLimit

        def explode(*args, **kwargs):
            raise ResourceLimit("forced")

        monkeypatch.setattr(sys.modules["lorenzmaps.sweep"], "entropy_laps", explode)
        code, _, err = run_cli(
            capsys, "entropy", "--b0", "1.5", "--b1", "1.5", "--p", "0.5", "--method", "laps"
        )
        assert code == 4


class TestKneadingCommand:
    def test_exact_periods(self, capsys):
        code, out, _ = run_cli(
            capsys, "kneading", "--b0", "1.5", "--b1", "1.5", "--p", "3/5", "--n", "8"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == "01111011"
        assert payload["beta"] == "10101010"
        assert payload["beta_period"] == 2
        assert payload["alpha_period"] is None
        assert list(payload) == ["p", "n", "alpha", "beta", "alpha_period", "beta_period"]

    def test_no_mode_option(self, capsys):
        # every command evaluates the exact map, so none has a numeric mode to choose
        pair = ["--b0", "1.5", "--b1", "1.5"]
        for argv in (
            ["kneading", *pair, "--p", "3/5", "--n", "8"],
            ["entropy", *pair, "--p", "3/5", "--method", "laps", "--n", "12", "--window", "4"],
            ["laps", *pair, "--p", "3/5", "--n", "12", "--window", "4"],
            ["sweep", *pair, "--p-min", "0.4", "--p-max", "0.6", "--points", "3", "--method", "laps",
             "--n", "12", "--window", "4", "--workers", "1"],
        ):
            code, out, err = run_cli(capsys, *argv, "--mode", "float")
            assert code == 2
            assert out == ""
            assert "unrecognized arguments: --mode float" in err


class TestLapsCommand:
    def test_json_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "laps", "--b0", "1.5", "--b1", "1.5", "--p", "0.5", "--n", "20", "--window", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["laps"].isdigit()  # big integers travel as decimal strings
        assert payload["variation"] == pytest.approx(1.5**20, rel=1e-12)
        assert payload["entropy"] == pytest.approx(math.log(1.5), abs=1e-12)
        assert payload["lap_rate"] > 0

    def test_exact_variation_past_binary64(self, capsys, monkeypatch):
        import lorenzmaps.laps as laps_module
        from lorenzmaps import LapState

        # one class of length 1/7 carrying 10^(330+k) laps at step k
        def huge_states(m, n):
            return [LapState(k, (((Fraction(0), Fraction(1, 7)), 10 ** (330 + k)),)) for k in range(1, n + 1)]

        monkeypatch.setattr(laps_module, "lap_states", huge_states)
        code, out, err = run_cli(
            capsys, "laps", "--b0", "3/2", "--b1", "3/2", "--p", "3/5", "--n", "20", "--window", "5"
        )
        assert code == 0
        assert "Traceback" not in err
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-JSON {name}"))
        assert payload["variation"] == "1.4285714285714286e+349"
        assert payload["laps"] == str(10**350)
        assert payload["entropy"] == pytest.approx(math.log(10))


class TestSweepCommand:
    def test_csv_file_deterministic(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = [
            "sweep", "--b0", "1.5", "--b1", "1.5",
            "--p-min", "0.4", "--p-max", "0.6", "--points", "7",
            "--method", "spectral", "--n", "120", "--tol", "1e-8",
        ]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b), "--workers", "2"]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().splitlines()[0]
        assert header == "p,entropy,gamma,method,order,error_bound,status"

    def test_stdout_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--b0", "1.5", "--b1", "1.5",
            "--p-min", "0.45", "--p-max", "0.55", "--points", "3",
            "--n", "60",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[-1] == "ok"

    def test_no_root_rows(self, capsys):
        code, out, err = run_cli(capsys, *NO_ROOT_SWEEP_ARGS)
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [row[-1] for row in rows] == ["no-root"] * 2 + ["ok"] * 6
        assert all(field == "" for row in rows[:2] for field in row[1:-1])

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--b0", "1.5", "--b1", "1.5",
            "--p-min", "0.45", "--p-max", "0.55", "--points", "3",
            "--n", "60", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 3
        assert payload[0]["status"] == "ok"

    def test_range_error_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--b0", "1.5", "--b1", "1.5",
            "--p-min", "0.1", "--p-max", "0.6", "--points", "3",
        )
        assert code == 2

    def test_branches_file(self, capsys, tmp_path):
        spec_file = tmp_path / "branches.json"
        spec_file.write_text(
            json.dumps({"f0": {"type": "affine", "slope": "11/10"},
                        "f1": {"type": "affine", "slope": "19/10"}})
        )
        code, out, _ = run_cli(
            capsys,
            "sweep", "--branches", str(spec_file),
            "--p-min", "9/19", "--p-max", "10/11", "--points", "6", "--n", "60",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_json_rows_carry_entropy_keys(self, capsys, monkeypatch):
        base = ["--b0", "1.5", "--b1", "1.5", "--n", "60"]
        _, out, _ = run_cli(capsys, "entropy", "--p", "0.5", *base)
        entropy_keys = list(json.loads(out))
        _, out, _ = run_cli(
            capsys, "sweep", "--p-min", "0.45", "--p-max", "0.55", "--points", "3",
            "--format", "json", *base,
        )
        row = json.loads(out)[0]
        assert list(row) == entropy_keys + ["status"]
        assert row["method"] == "spectral" and row["order"] == 60

        from lorenzmaps import NoRootFound

        def explode(*args, **kwargs):
            raise NoRootFound("forced")

        monkeypatch.setattr(sys.modules["lorenzmaps.sweep"], "entropy_spectral", explode)
        _, out, _ = run_cli(
            capsys, "sweep", "--p-min", "0.45", "--p-max", "0.55", "--points", "3",
            "--format", "json", *base,
        )
        row = json.loads(out)[0]
        assert row["status"] == "no-root"
        assert all(row[key] is None for key in entropy_keys if key != "p")

    def test_features_out_confirmed(self, capsys, tmp_path):
        feats = tmp_path / "features.json"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--b0", "1.1", "--b1", "1.9",
            "--p-min", "9/19", "--p-max", "10/11", "--points", "60",
            "--features-out", str(feats), "--workers", "2",
        )
        assert code == 0
        confirmed = json.loads(feats.read_text())
        assert confirmed and all(f["prominence"] >= 1e-5 for f in confirmed)
        assert list(confirmed[0]) == ["p_low", "p_high", "prominence", "direction"]

    def test_features_out(self, capsys, tmp_path):
        feats = tmp_path / "features.json"
        code, _, _ = run_cli(
            capsys,
            "sweep", "--b0", "1.5", "--b1", "1.5",
            "--p-min", "0.45", "--p-max", "0.55", "--points", "5",
            "--n", "60", "--features-out", str(feats), "--no-confirm",
        )
        assert code == 0
        assert json.loads(feats.read_text()) == []  # constant curve has no features

    def test_writers_agree_across_destinations(self, capsys, tmp_path):
        args = [
            "sweep", "--b0", "1.5", "--b1", "1.5",
            "--p-min", "0.45", "--p-max", "0.55", "--points", "3", "--n", "60",
        ]
        for fmt in ("json", "csv"):
            target = tmp_path / f"curve.{fmt}"
            code, out, _ = run_cli(capsys, *args, "--format", fmt)
            assert code == 0
            assert main(args + ["--format", fmt, "--out", str(target)]) == 0
            assert capsys.readouterr().out == ""
            assert target.read_bytes() == out.encode("utf-8")

    def test_features_file_and_max_features(self, capsys, tmp_path):
        # the 60-point paper sweep shows two features; 0 keeps all of them
        args = [
            "sweep", "--b0", "1.1", "--b1", "1.9", "--p-min", "9/19", "--p-max", "10/11",
            "--points", "60", "--no-confirm",
        ]
        counts = {}
        for limit in ("0", "1"):
            feats = tmp_path / f"features-{limit}.json"
            code, _, _ = run_cli(capsys, *args, "--features-out", str(feats), "--max-features", limit)
            assert code == 0
            text = feats.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text)) + "\n"
            counts[limit] = len(json.loads(text))
        assert counts == {"0": 2, "1": 1}

    @pytest.mark.parametrize(
        "argv",
        [
            ["--b0", "1.5", "--b1", "1.5", "--p-min", "1/2", "--p-max", "0.50000000000000001"],
            ["--b0", "1e400", "--b1", "1." + "0" * 400 + "1", "--p-min", "2e-401", "--p-max", "8e-401"],
        ],
        ids=["within-one-ulp", "below-binary64-range"],
    )
    def test_grid_colliding_in_binary64_exit_2(self, capsys, monkeypatch, argv):
        # the CSV p column could not tell the rows apart
        def evaluated(*args, **kwargs):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(sys.modules["lorenzmaps.sweep"], "entropy_spectral", evaluated)
        code, out, err = run_cli(capsys, "sweep", *argv, "--points", "3", "--workers", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: RangeError:") and "binary64" in err


class TestCompareCommand:
    def test_uniform_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--b0", "1.5", "--b1", "1.5",
            "--p-min", "0.4", "--p-max", "0.6", "--points", "5",
            "--spectral-n", "300", "--laps-n", "40",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_abs_diff"] <= 1e-3
        assert payload["mean_abs_diff"] <= payload["max_abs_diff"]


class TestArgumentHandling:
    def test_unknown_command(self, capsys):
        assert main(["simulate"]) == 2

    def test_both_branch_sources_rejected(self, capsys, tmp_path):
        spec_file = tmp_path / "branches.json"
        spec_file.write_text(json.dumps({"f0": {"type": "affine", "slope": "1.5"},
                                         "f1": {"type": "affine", "slope": "1.5"}}))
        code, _, err = run_cli(
            capsys,
            "entropy", "--b0", "1.5", "--b1", "1.5", "--branches", str(spec_file), "--p", "0.5",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "f0",
        [
            {"type": "affine"},
            {"type": "pwl", "points": [["0", "0", "1"]]},
            5,
        ],
        ids=["missing-slope", "malformed-points", "non-object"],
    )
    def test_malformed_branch_exit_2(self, capsys, tmp_path, f0):
        spec_file = tmp_path / "branches.json"
        spec_file.write_text(json.dumps({"f0": f0, "f1": {"type": "affine", "slope": "1.5"}}))
        code, _, err = run_cli(capsys, "entropy", "--branches", str(spec_file), "--p", "0.5")
        assert code == 2
        assert "InvalidBranch" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["entropy", "--b0", "1.1", "--b1", "1.9", "--p", "0.7", "--tol", "nan"],
            ["entropy", "--b0", "1.1", "--b1", "1.9", "--p", "0.7", "--tol", "inf"],
            ["entropy", "--b0", "1.1", "--b1", "1.9", "--p", "0.7", "--tol=-1e-7"],
            ["entropy", "--b0", "1.1", "--b1", "1.9", "--p", "0.7", "--tol", "abc"],
            SWEEP_ARGS + ["--prominence", "nan", "--features-out", "unwritten.json"],
            SWEEP_ARGS + ["--tol", "nan"],
            SWEEP_ARGS + ["--workers", "0"],
            SWEEP_ARGS + ["--workers", "-3"],
            SWEEP_ARGS + ["--max-features", "-1", "--features-out", "unwritten.json"],
            SWEEP_ARGS + ["--max-features", "-3", "--features-out", "unwritten.json"],
            ["compare"] + SWEEP_ARGS[1:] + ["--tol", "nan"],
            ["compare"] + SWEEP_ARGS[1:] + ["--workers", "0"],
            SWEEP_ARGS + ["--out", "missing/unwritten.csv"],
            SWEEP_ARGS + ["--features-out", "missing/unwritten.json"],
            SWEEP_ARGS + ["--out", "."],
            SWEEP_ARGS + ["--features-out", "."],
        ],
        ids=[
            "entropy-tol-nan", "entropy-tol-inf", "entropy-tol-negative", "entropy-tol-text",
            "sweep-prominence-nan", "sweep-tol-nan", "sweep-workers-0", "sweep-workers-negative",
            "max-features-minus-1", "max-features-minus-3",
            "compare-tol-nan", "compare-workers-0", "out-directory-missing", "features-out-directory-missing",
            "out-is-directory", "features-out-is-directory",
        ],
    )
    def test_out_of_range_value_exit_2(self, capsys, monkeypatch, tmp_path, argv):
        import lorenzmaps.cli as cli_module

        def evaluated(*args, **kwargs):
            raise AssertionError("a point was evaluated")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys.modules["lorenzmaps.sweep"], "entropy_spectral", evaluated)
        monkeypatch.setattr(cli_module, "sweep", evaluated)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert any(line.startswith("error:") or ": error:" in line for line in err.splitlines())
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{}",
            b"[" * 200000 + b"]" * 200000,
            json.dumps({"f0": {"type": "affine", "slope": "SLOPE"}, "f1": {"type": "affine", "slope": "1.5"}})
            .replace('"SLOPE"', "1" * 5001)
            .encode(),
            b"not json at all",
        ],
        ids=["utf16-bom", "nested-200000", "int-5001-digits", "plain-text"],
    )
    def test_unreadable_branch_file_exit_2(self, capsys, tmp_path, content):
        spec_file = tmp_path / "branches.json"
        spec_file.write_bytes(content)
        code, out, err = run_cli(capsys, "entropy", "--branches", str(spec_file), "--p", "0.7")
        assert code == 2
        assert out == ""
        assert err.startswith("error: InvalidBranch:") and str(spec_file) in err
        assert "Traceback" not in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("role", ["f0", "f1"])
    @pytest.mark.parametrize("slope", ["1", "0.9"])
    def test_affine_slope_at_most_one_in_branch_file_exit_2(self, capsys, tmp_path, role, slope):
        obj = {"f0": {"type": "affine", "slope": "11/10"}, "f1": {"type": "affine", "slope": "19/10"}}
        obj[role]["slope"] = slope
        spec_file = tmp_path / "branches.json"
        spec_file.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "entropy", "--branches", str(spec_file), "--p", "0.7")
        assert code == 2
        assert out == ""
        assert err == "error: InvalidSlopes: affine branch slope must exceed 1\n"

    def test_unparsable_number_rejected_by_its_own_rule(self):
        import argparse

        from lorenzmaps.cli import _above

        with pytest.raises(argparse.ArgumentTypeError, match="expected a finite float > 0, got 'abc'"):
            _above(float, 0)("abc")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            capsys, "entropy", "--branches", "/nonexistent/branches.json", "--p", "0.5"
        )
        assert code == 2


class TestSinglePointMatchesSweep:
    def test_entropy_prints_the_sweep_row(self, capsys):
        # entropy runs the sweep's point function, so it prints the row of the same p
        pair = ["--b0", "1.43", "--b1", "1.58"]
        code, out, _ = run_cli(
            capsys, "sweep", *pair, "--p-min", "29/79", "--p-max", "100/143", "--points", "7",
            "--workers", "1",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 7
        keys = ("entropy", "gamma", "error_bound")
        for row in rows:
            code, out, _ = run_cli(capsys, "entropy", *pair, "--p", row["p"])
            assert code == 0
            payload = json.loads(out)
            assert [format(payload[k], ".17g") for k in keys] == [row[k] for k in keys]

    def test_entropy_laps_prints_the_lap_sweep_row(self, capsys):
        # both evaluate the exact map at the same exact p
        pair = ["--b0", "1.1", "--b1", "1.9", "--method", "laps"]
        code, out, _ = run_cli(
            capsys, "sweep", *pair, "--p-min", "0.69", "--p-max", "0.71", "--points", "3", "--workers", "1"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        keys = ("p", "entropy", "gamma", "error_bound")
        for p, row in zip(("0.69", "0.7", "0.71"), rows):
            code, out, _ = run_cli(capsys, "entropy", *pair, "--p", p)
            assert code == 0
            payload = json.loads(out)
            assert [format(payload[k], ".17g") for k in keys] == [row[k] for k in keys]

    @pytest.mark.parametrize(
        "branches",
        [
            None,
            {"f0": {"type": "affine", "slope": "11/10"},
             "f1": {"type": "pwl", "points": [["9/19", "0"], ["3/4", "1/2"], ["1", "1"]]}},
        ],
        ids=["paper-pair", "affine-pwl-branches"],
    )
    def test_laps_prints_the_lap_sweep_row(self, capsys, monkeypatch, tmp_path, branches):
        # laps, entropy --method laps and each lap sweep point run one lap path, propagating once
        import lorenzmaps.laps as laps_module

        pair = ["--b0", "1.1", "--b1", "1.9"]
        if branches is not None:
            spec_file = tmp_path / "pair.json"
            spec_file.write_text(json.dumps(branches))
            pair = ["--branches", str(spec_file)]
        code, out, err = run_cli(
            capsys, "sweep", *pair, "--method", "laps", "--p-min", "3/5", "--p-max", "4/5", "--points", "3",
            "--format", "json", "--workers", "1",
        )
        assert code == 0, err
        rows = json.loads(out)
        calls = []
        propagate = laps_module.lap_states
        monkeypatch.setattr(laps_module, "lap_states", lambda m, n: calls.append(n) or propagate(m, n))
        keys = ("p", "entropy", "error_bound", "order")
        for p, row in zip(("3/5", "7/10", "4/5"), rows):
            assert row["p"] == float(Fraction(p))
            for command in (["laps"], ["entropy", "--method", "laps"]):
                calls.clear()
                code, out, err = run_cli(capsys, *command, *pair, "--p", p)
                assert code == 0, err
                assert calls == [50]
                payload = json.loads(out)
                assert [payload[k] for k in keys] == [row[k] for k in keys]

    def test_p_equal_to_a_accepted(self, capsys):
        # a = (1.02 - 1)/1.02 = 1/51 exactly
        code, out, err = run_cli(capsys, "entropy", "--b0", "1.01", "--b1", "1.02", "--p", "1/51")
        assert code == 0, err
        assert json.loads(out)["p"] == 1 / 51


COMPARE_200 = [
    "compare", "--b0", "1.1", "--b1", "1.9", "--p-min", "9/19", "--p-max", "10/11", "--points", "200",
    "--workers", "1",
]


_STEPS_200000 = "200000 orbit steps exceed the cap MAX_STEPS = 150000"
_LAPS_100000 = "100000 lap steps exceed the cap MAX_ITERATES = 1000"


def _run_capped(argv):
    """The CLI on argv in a child whose address space is capped at 512 MB, so that work begun
    before a check fails rather than swaps; a run longer than a second exits 99."""
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    code = (
        "import sys, time; from lorenzmaps.cli import main; "
        "start = time.perf_counter(); code = main(sys.argv[1:]); "
        "sys.exit(code if time.perf_counter() - start < 1.0 else 99)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=10,
        preexec_fn=cap_memory,
    )


class TestInputErrorsBeforeWork:
    @pytest.mark.parametrize(
        "argv",
        [
            ["entropy", "--b0", "1e400", "--b1", "1.5", "--p", "0.5"],
            ["entropy", "--b0", "1.5", "--b1", "1.5", "--p", "1e400"],
        ],
        ids=["slope-past-binary64", "p-past-binary64"],
    )
    def test_number_past_binary64_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_empty_kneading_prefix_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "kneading", "--b0", "1.5", "--b1", "1.5", "--p", "3/5", "--n", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and ">= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["laps", "--b0", "1.9", "--b1", "1.9", "--p", "1/2", "--n", "400", "--window", "0"],
            ["laps", "--b0", "1.9", "--b1", "1.9", "--p", "1/2", "--n", "20", "--window", "20"],
            COMPARE_200 + ["--laps-n", "0"],
            COMPARE_200 + ["--laps-n", "20", "--window", "20"],
            SWEEP_ARGS + ["--method", "laps", "--window", "0"],
            SWEEP_ARGS + ["--method", "laps", "--n", "20", "--window", "20"],
        ],
        ids=[
            "laps-window-0", "laps-window-n", "compare-laps-n-0", "compare-window-laps-n",
            "sweep-laps-window-0", "sweep-laps-window-n",
        ],
    )
    def test_lap_window_checked_before_work(self, capsys, monkeypatch, argv):
        import lorenzmaps.cli as cli_module
        import lorenzmaps.laps as laps_module

        calls = []
        if argv[0] != "sweep":
            monkeypatch.setattr(cli_module, "sweep", lambda *args, **kwargs: calls.append("sweep"))
        # a sweep runs its points, or forks its helpers, only in _run_points
        monkeypatch.setattr(sys.modules["lorenzmaps.sweep"], "_run_points", lambda *args: calls.append("points"))
        monkeypatch.setattr(laps_module, "lap_states", lambda *args, **kwargs: calls.append("lap_states"))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "window" in err
        assert calls == []

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_points_past_the_cap_exit_4(self, command):
        argv = [command, "--b0", "1.1", "--b1", "1.9", "--p-min", "9/19", "--p-max", "10/11",
                "--points", "10000000000", "--workers", "1"]
        result = _run_capped(argv)
        assert result.returncode == 4
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: 10000000000 grid points exceed the cap MAX_POINTS = 1000000"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["entropy", "--b0", "1.1", "--b1", "1.9", "--p", "0.7", "--n", "200000"], _STEPS_200000),
            (["kneading", "--b0", "1.1", "--b1", "1.9", "--p", "0.7", "--n", "1000000000"],
             "1000000000 orbit steps exceed the cap MAX_STEPS = 150000"),
            (["laps", "--b0", "1.1", "--b1", "1.9", "--p", "0.7", "--n", "100000"], _LAPS_100000),
            (["entropy", "--b0", "1.1", "--b1", "1.9", "--p", "0.7", "--method", "laps", "--n", "100000"],
             _LAPS_100000),
            (SWEEP_ARGS + ["--n", "200000"], _STEPS_200000),
            (SWEEP_ARGS + ["--method", "laps", "--n", "100000"], _LAPS_100000),
            (COMPARE_200 + ["--spectral-n", "200000"], _STEPS_200000),
            (COMPARE_200 + ["--laps-n", "100000"], _LAPS_100000),
        ],
        ids=["entropy", "kneading", "laps", "entropy-laps", "sweep", "sweep-laps", "compare-spectral", "compare-laps"],
    )
    def test_order_past_the_cap_exit_4(self, argv, message):
        result = _run_capped(argv)
        assert result.returncode == 4
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {message}"]

    def test_the_order_caps_themselves_are_allowed(self, monkeypatch):
        from lorenzmaps import LorenzMap, ResourceLimit, kneading_prefixes, lap_states, make_affine_pair

        kneading_module, laps_module = sys.modules["lorenzmaps.kneading"], sys.modules["lorenzmaps.laps"]
        monkeypatch.setattr(kneading_module, "MAX_STEPS", 5)
        monkeypatch.setattr(laps_module, "MAX_ITERATES", 5)
        bp = make_affine_pair(Fraction(11, 10), Fraction(19, 10))
        assert len(kneading_prefixes(bp, Fraction(7, 10), 5).alpha) == 5
        assert len(lap_states(LorenzMap(bp, Fraction(7, 10)), 5)) == 5
        with pytest.raises(ResourceLimit, match="MAX_STEPS = 5"):
            kneading_prefixes(bp, Fraction(7, 10), 6)
        with pytest.raises(ResourceLimit, match="MAX_ITERATES = 5"):
            lap_states(LorenzMap(bp, Fraction(7, 10)), 6)

    def test_the_cap_itself_is_allowed(self, monkeypatch):
        from lorenzmaps import ResourceLimit, make_affine_pair

        sweep_module = sys.modules["lorenzmaps.sweep"]
        monkeypatch.setattr(sweep_module, "MAX_POINTS", 5)
        bp = make_affine_pair(Fraction(11, 10), Fraction(19, 10))
        assert len(sweep_module._grid(bp, Fraction(1, 2), Fraction(4, 5), 5)) == 5
        with pytest.raises(ResourceLimit, match="MAX_POINTS = 5"):
            sweep_module._grid(bp, Fraction(1, 2), Fraction(4, 5), 6)


_TINY_P = "1e-5000"
_B1_NEAR_1 = "1." + "0" * 400 + "1"


class TestLargeNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["entropy", "--b0", "1e5000", "--b1", "1.5", "--p", "0.5"],
            ["kneading", "--b0", "1.5", "--b1", "1.5", "--p", _TINY_P],
            ["sweep", "--b0", "1.1", "--b1", "1.9", "--p-min", _TINY_P, "--p-max", "0.6", "--points", "3",
             "--workers", "1"],
            ["entropy", "--b0", "1e400", "--b1", "1.5", "--p", "0.5"],
            ["entropy", "--b0", "1" * 5000, "--b1", "1.5", "--p", "0.5"],
        ],
        ids=["slope-5001-digits", "p-5001-digits", "sweep-p-min-5001-digits", "slope-401-digits",
             "literal-5000-digits"],
    )
    def test_bounded_error_message(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert len(err.encode()) < 300

    def test_sweep_of_a_pair_binary64_breaks(self, capsys):
        # the binary64 rounding of these pairs is not a valid map, and both methods evaluate the exact map
        laps = ["--method", "laps", "--n", "12", "--window", "4"]
        argv = ["sweep", "--b0", "1e400", "--b1", _B1_NEAR_1, "--p-min", "2e-401", "--p-max", "8e-401",
                "--points", "3", "--workers", "1", *laps]
        # this grid's points all round to the CSV p 0.0, so the sweep stops at the grid
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: RangeError:") and "share the binary64 p 0.0" in err
        # b0 = 1.5 keeps the map's binary64 breakage, and its grid is distinct in binary64
        wide = ["sweep", "--b0", "1.5", "--b1", _B1_NEAR_1, "--p-min", "0.3", "--p-max", "0.6",
                "--points", "3", "--workers", "1"]
        code, out, err = run_cli(capsys, *wide, *laps)
        assert code == 0, err
        assert [row["status"] for row in csv.DictReader(io.StringIO(out))] == ["ok"] * 3
        # the root 1 + 10^-401 lies below the spectral bracket's floor, so no point finds a sign change
        code, out, err = run_cli(capsys, *wide, "--n", "60")
        assert code == 0, err
        assert [row["status"] for row in csv.DictReader(io.StringIO(out))] == ["no-root"] * 3

    def test_entropy_of_a_pair_binary64_breaks(self, capsys):
        argv = ["entropy", "--b0", "1e400", "--b1", _B1_NEAR_1, "--p", "5e-401"]
        laps = ["--method", "laps", "--n", "12", "--window", "4"]
        code, out, err = run_cli(capsys, *argv, *laps)
        assert code == 0, err
        assert json.loads(out)["entropy"] > 0
        # the default spectral method at its default n: the root 1 + 10^-401 lies below the bracket floor
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "changes sign nowhere" in err and "Traceback" not in err

    def test_grid_oracle_names_binary64(self):
        # the grid oracle samples the map's binary64 rounding, which this pair does not survive
        from lorenzmaps import LorenzError, LorenzMap, lap_count_bruteforce, make_affine_pair

        bp = make_affine_pair(Fraction("1e400"), Fraction(_B1_NEAR_1))
        with pytest.raises(LorenzError, match="binary64") as info:
            lap_count_bruteforce(LorenzMap(bp, Fraction("5e-401")), 2, 10)
        assert "--mode" not in str(info.value)

    @pytest.mark.parametrize(
        "argv",
        [["entropy", "--method", "laps", "--n", "12", "--window", "4"], ["kneading", "--n", "8"],
         ["laps", "--n", "12"]],
        ids=["entropy", "kneading", "laps"],
    )
    def test_p_past_binary64_printed_as_text(self, capsys, argv):
        # 5e-401 rounds to 0.0, outside [a, b], so the command prints it to 17 digits as a string
        code, out, err = run_cli(capsys, *argv, "--b0", "1e400", "--b1", _B1_NEAR_1, "--p", "5e-401")
        assert code == 0, err
        assert json.loads(out)["p"] == "5.0000000000000000e-401"

    def test_json_number_only_where_binary64_holds_the_value(self):
        from lorenzmaps.cli import _json_number

        assert _json_number(Fraction(0)) == 0.0
        assert _json_number(Fraction(7, 10)) == 0.7
        assert _json_number(Fraction(2) ** -1022) == 2.0**-1022  # the smallest normal float
        assert _json_number(Fraction(2) ** -1023) == "1.1125369292536007e-308"  # subnormal
        assert _json_number(Fraction(10) ** 400) == "1.0000000000000000e+400"


class TestStartup:
    def test_scipy_not_imported_with_the_package(self):
        code = "import sys, lorenzmaps.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.strip() == "[]"

    def test_feature_sweep_does_not_import_scipy_signal(self, tmp_path):
        # confirmation workers fork from the sweep process, so every module it loads is resident in each
        code = (
            "import sys; from lorenzmaps.cli import main; "
            "code = main(sys.argv[1:]); "
            "print(code, 'scipy.signal' in sys.modules)"
        )
        argv = [
            "sweep", "--b0", "1.1", "--b1", "1.9", "--p-min", "82/100", "--p-max", "84/100",
            "--points", "40", "--n", "200", "--out", str(tmp_path / "curve.csv"),
            "--features-out", str(tmp_path / "features.json"), "--max-features", "1", "--workers", "1",
        ]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.split() == ["0", "False"]
        # the paper's largest bump lies in this window, and the lap method confirms it
        [feature] = json.loads((tmp_path / "features.json").read_text())
        assert feature["direction"] == "bump"

    def test_sweep_with_no_root_rows_loads_no_scipy(self):
        # a point whose truncation changes sign nowhere raises NoRootFound without any search beyond the scan
        code = (
            "import sys; from lorenzmaps.cli import main; "
            "code = main(sys.argv[1:]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run(
            [sys.executable, "-c", code, *NO_ROOT_SWEEP_ARGS], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.count(",no-root") == 2
        assert result.stderr.split() == ["0", "[]"]


# a valid command with up to two numbers swapped for decimals with large exponents,
# fractions or junk, so each odd number is also seen where everything else is valid
_ODD_NUMBERS = st.one_of(
    st.builds(
        "{}{}.{}e{}".format,
        st.sampled_from(["", "-"]),
        st.integers(0, 99),
        st.integers(0, 999),
        st.one_of(st.integers(-400, 400), st.integers(-10**9, 10**9)),
    ),
    st.builds("{}/{}".format, st.integers(-3, 10**6), st.integers(-3, 10**6)),
    st.sampled_from(["nan", "inf", "-inf", "1/0", "abc", ""]),
)
_SLOPES = st.integers(101, 199).map(lambda k: f"{k / 100}")
_PS = st.integers(30, 70).map(lambda k: f"{k}/100")


@st.composite
def _commands(draw):
    command = draw(st.sampled_from(["entropy", "kneading", "laps", "sweep", "compare"]))
    grid = command in ("sweep", "compare")
    numbers = {"--b0": draw(_SLOPES), "--b1": draw(_SLOPES)}
    if grid:
        numbers["--p-min"], numbers["--p-max"] = sorted(draw(st.lists(_PS, min_size=2, max_size=2)))
    else:
        numbers["--p"] = draw(_PS)
    for key in draw(st.lists(st.sampled_from(sorted(numbers)), max_size=2, unique=True)):
        numbers[key] = draw(_ODD_NUMBERS)
    argv = [command] + [f"{key}={value}" for key, value in numbers.items()]
    if command == "compare":
        # small orders keep a compare example as cheap as the other commands
        argv += [f"--spectral-n={draw(st.integers(-2, 40))}", f"--laps-n={draw(st.integers(-2, 16))}"]
    else:
        argv.append(f"--n={draw(st.integers(-2, 40))}")
    if grid:
        argv += [f"--points={draw(st.integers(-1, 4))}", "--workers=1"]
    if command in ("entropy", "sweep"):
        argv.append(f"--method={draw(st.sampled_from(['spectral', 'laps']))}")
    if command != "kneading":
        argv.append(f"--window={draw(st.integers(-1, 12))}")
    return argv


class TestFuzz:
    @settings(max_examples=500, deadline=None)
    @given(argv=_commands())
    def test_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code:
            assert out.getvalue() == ""
