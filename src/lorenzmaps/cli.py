"""Command-line interface.

Subcommands: entropy, kneading, laps, sweep, compare.  Single-point
commands print JSON to stdout; sweep writes CSV (or JSON) to --out or
stdout.  Numbers may be given as decimals or fractions ("9/19"); each is
read exactly, and every command evaluates the validated exact map.
entropy, and laps for the lap method, print the sweep row's estimate at p
by the sweep's own path; p is printed as text where binary64 cannot hold it.
Only entropy, sweep and compare import the spectral and sweep modules, the
ones that load numpy, so kneading, laps and a rejected command line start
without it.

Exit codes: 0 success, 2 invalid parameters, 3 no root found,
4 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import InvalidBranch, LorenzError, NoRootFound, ResourceLimit
from .estimates import LAPS, SPECTRAL
from .kneading import kneading_prefixes
from .laps import lap_parameters, lap_report
from .maps import UPPER, BranchPair, LorenzMap, fmt_number, make_affine_pair, parse_scalar


def _add_branch_args(sub):
    sub.add_argument("--b0", help="slope of the left affine branch")
    sub.add_argument("--b1", help="slope of the right affine branch")
    sub.add_argument("--branches", help="JSON file with f0/f1 branch specs")


def _add_shared_args(sub, *names):
    options = {
        "--p": {"required": True},
        "--p-min": {"required": True},
        "--p-max": {"required": True},
        "--points": {"type": int, "required": True},
        "--method": {"choices": (SPECTRAL, LAPS), "default": SPECTRAL},
        "--n": {"type": int},
        "--tol": {"type": _above(float, 0)},
        "--window": {"type": int},
        "--workers": {"type": _above(int, 0), "default": None},
    }
    for name in names:
        sub.add_argument(name, **options[name])


def _load_pair(args) -> BranchPair:
    if args.branches:
        if args.b0 or args.b1:
            raise LorenzError("give either --b0/--b1 or --branches, not both")
        with open(args.branches, "r", encoding="utf-8") as handle:
            try:
                obj = json.load(handle, parse_float=str)
            except (ValueError, RecursionError) as exc:
                # the cause is cut short: the digit-limit message alone runs past 130 characters
                raise InvalidBranch(f"{args.branches}: not a readable JSON file ({str(exc)[:80]})") from exc
        return BranchPair.from_json_dict(obj)
    if not (args.b0 and args.b1):
        raise LorenzError("branch slopes missing: give --b0 and --b1, or --branches")
    return make_affine_pair(parse_scalar(args.b0), parse_scalar(args.b1))


def _above(kind, bound):
    # argparse type: a finite kind(text) strictly above bound; NaN compares false
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not bound < value < math.inf:
            raise argparse.ArgumentTypeError(f"expected a finite {kind.__name__} > {bound}, got {text!r}")
        return value

    return parse


def _emit(obj, path=None) -> None:
    text = json.dumps(obj) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _json_number(value):
    # a JSON number where binary64 holds the value (0 or a normal float), else fmt_number's 17 digits as a string
    try:
        number = float(value)
    except OverflowError:
        return fmt_number(value)
    return number if value == 0 or abs(number) >= sys.float_info.min else fmt_number(value)


def _cmd_entropy(args) -> int:
    p = parse_scalar(args.p)
    bp = _load_pair(args)
    from .sweep import estimate

    est = estimate(bp, p, args.method, n=args.n, tol=args.tol, window=args.window)
    _emit({"p": _json_number(p), **asdict(est)})
    return 0


def _cmd_kneading(args) -> int:
    bp, p = _load_pair(args), parse_scalar(args.p)
    _emit({"p": _json_number(p), "n": args.n, **asdict(kneading_prefixes(bp, p, args.n))})
    return 0


def _cmd_laps(args) -> int:
    m = LorenzMap(_load_pair(args), parse_scalar(args.p), UPPER)
    n, window = lap_parameters(args.n, args.window)
    est, state = lap_report(m, n, window)
    laps = state.total_laps
    _emit(
        {
            "p": _json_number(m.p),
            "order": n,
            "window": window,
            "laps": str(laps),
            "variation": _json_number(state.total_variation),
            "entropy": est.entropy,
            "lap_rate": math.log(laps) / n,
            "error_bound": est.error_bound,
        }
    )
    return 0


def _cmd_sweep(args) -> int:
    bp = _load_pair(args)
    files = {Path(args.branches).resolve(): "--branches"} if args.branches else {}
    for option, path in (("--out", args.out), ("--features-out", args.features_out)):
        # a directory, a path in a missing one, or a file another option names is caught before any point
        # runs; an unwritable one fails at the write
        if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise LorenzError(f"{option} {path!r}: not a file in an existing directory")
        other = files.setdefault(Path(path).resolve(), option) if path else option
        if other != option:
            raise LorenzError(f"{option} {path!r}: the same file as {other}")
    from .sweep import cross_confirm_features, detect_nonmonotonic, sweep, write_csv

    records = sweep(
        bp,
        parse_scalar(args.p_min),
        parse_scalar(args.p_max),
        args.points,
        args.method,
        n=args.n,
        tol=args.tol,
        window=args.window,
        workers=args.workers,
    )
    if args.format == "json":
        _emit([r.row() for r in records], args.out)
    else:
        write_csv(records, args.out or sys.stdout)
    if args.features_out:
        features = detect_nonmonotonic(records, args.prominence)
        if args.max_features:
            features = features[: args.max_features]
        if not args.no_confirm:
            features = cross_confirm_features(bp, records, features, workers=args.workers)
        _emit([asdict(f) for f in features], args.features_out)
    return 0


def _cmd_compare(args) -> int:
    bp = _load_pair(args)
    laps_n, _ = lap_parameters(args.laps_n, args.window)
    from .spectral import spectral_parameters
    from .sweep import compare_methods, sweep

    grid = (bp, parse_scalar(args.p_min), parse_scalar(args.p_max), args.points)
    spectral_n, _ = spectral_parameters(args.spectral_n, args.tol)
    spectral = sweep(*grid, SPECTRAL, n=args.spectral_n, tol=args.tol, workers=args.workers)
    laps_records = sweep(*grid, LAPS, n=args.laps_n, window=args.window, workers=args.workers)
    max_diff, mean_diff, worst_p = compare_methods(spectral, laps_records)
    _emit(
        {
            "points": args.points,
            "spectral_n": spectral_n,
            "laps_n": laps_n,
            "max_abs_diff": max_diff,
            "mean_abs_diff": mean_diff,
            "worst_p": worst_p,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorenzmaps",
        description="Topological entropy of Lorenz interval maps",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    entropy = subs.add_parser("entropy", help="entropy at a single p")
    _add_branch_args(entropy)
    _add_shared_args(entropy, "--p", "--method", "--n", "--tol", "--window")
    entropy.set_defaults(func=_cmd_entropy)

    kneading = subs.add_parser("kneading", help="kneading prefixes and periods at p")
    _add_branch_args(kneading)
    _add_shared_args(kneading, "--p")
    kneading.add_argument("--n", type=int, default=32)
    kneading.set_defaults(func=_cmd_kneading)

    laps = subs.add_parser("laps", help="lap count, variation and lap entropy at p")
    _add_branch_args(laps)
    _add_shared_args(laps, "--p", "--window", "--n")
    laps.set_defaults(func=_cmd_laps)

    swp = subs.add_parser("sweep", help="entropy curve over a p range")
    _add_branch_args(swp)
    _add_shared_args(swp, "--p-min", "--p-max", "--points", "--method", "--n", "--tol", "--window", "--workers")
    swp.add_argument("--out", help="CSV/JSON output path (default: stdout)")
    swp.add_argument("--format", choices=("csv", "json"), default="csv")
    swp.add_argument("--features-out", help="also write detected non-monotone features")
    swp.add_argument("--prominence", type=_above(float, 0), default=1e-5)
    swp.add_argument("--no-confirm", action="store_true",
                     help="write the features unproved: skip their proof by lap enclosures")
    swp.add_argument("--max-features", type=_above(int, -1), default=10,
                     help="write (and prove) at most this many features, most prominent first (0 = all)")
    swp.set_defaults(func=_cmd_sweep)

    comp = subs.add_parser("compare", help="spectral vs lap entropy on a shared grid")
    _add_branch_args(comp)
    _add_shared_args(comp, "--p-min", "--p-max", "--points", "--tol", "--window", "--workers")
    comp.add_argument("--spectral-n", type=int)
    comp.add_argument("--laps-n", type=int)
    comp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except NoRootFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (LorenzError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
