"""Per-layer tracing from outside the package.

The tracer wraps the package's public functions at every name they are
bound to in ``lorenzmaps.*`` modules: ``spectral.kneading_prefixes`` and
``cli.sweep`` are separate bindings of one function, and a caller looks up
its own.  Layer boundaries record spans (name, start, end, parent, point);
hot inner calls such as ``BranchSpec.__call__`` are only counted.  Spans
stay in memory until the run writes them out.

Worker processes that ``sweep`` forks inherit the patched functions.  A
worker writes its spans to a spill file after each top-level call, and the
parent merges those files after the pass.  Workers started another way
(for example with the spawn method) run unpatched code: then
``trace.worker_spans`` reads 0 and the layers they run are not visible.
"""

from __future__ import annotations

import concurrent.futures
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

from lorenzmaps.spectral import TANGENTIAL

#: (module, function, span name) of each layer boundary
SPANS = (
    ("lorenzmaps.cli", "main", "cli.main"),
    ("lorenzmaps.sweep", "sweep", "sweep.sweep"),
    ("lorenzmaps.sweep", "detect_nonmonotonic", "sweep.detect_nonmonotonic"),
    ("lorenzmaps.sweep", "cross_confirm_features", "sweep.cross_confirm_features"),
    ("lorenzmaps.sweep", "write_csv", "sweep.write_csv"),
    ("lorenzmaps.spectral", "entropy_spectral", "spectral.entropy_spectral"),
    ("lorenzmaps.spectral", "xi_coeffs", "spectral.xi_coeffs"),
    ("lorenzmaps.spectral", "max_root", "spectral.max_root"),
    ("lorenzmaps.kneading", "kneading_prefixes", "kneading.kneading_prefixes"),
    ("lorenzmaps.laps", "entropy_laps", "laps.entropy_laps"),
    ("lorenzmaps.laps", "lap_states", "laps.lap_states"),
)

#: (module, function or Class.method, counter name) of hot calls
COUNTERS = (
    ("lorenzmaps.maps", "BranchSpec.__call__", "maps.branch_calls"),
    ("lorenzmaps.maps", "LorenzMap.apply", "maps.apply_calls"),
    ("lorenzmaps.spectral", "xi_eval", "spectral.xi_eval.calls"),
)

def _variation_bits(value) -> int:
    if isinstance(value, Fraction):
        return value.numerator.bit_length() + value.denominator.bit_length()
    if isinstance(value, int):
        return value.bit_length()
    return 0


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = spill_dir
        self.pid = os.getpid()
        self.in_worker = False
        self.fork_parent = -1
        self.spans = []  # [name, start, end, parent index, point, pid]
        self.stack = []
        self.counts = Counter()
        self.maxima = defaultdict(float)
        self.point = None
        self.worker_spans = 0
        self._patches = []
        self._calls_in_worker = 0

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "lorenzmaps" or name.startswith("lorenzmaps.")]
        for mod_name, attr, name in SPANS:
            orig = getattr(importlib.import_module(mod_name), attr, None)
            if orig is None:
                print(f"trace: {mod_name}.{attr} not found, {name} not traced", file=sys.stderr)
                continue
            self._rebind(modules, orig, self._span_wrapper(name, orig))
        for mod_name, path, name in COUNTERS:
            owner_name, _, attr = path.rpartition(".")
            owner = importlib.import_module(mod_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                print(f"trace: {mod_name}.{path} not found, {name} not counted", file=sys.stderr)
                continue
            wrapper = self._count_wrapper(name, orig)
            if owner_name:
                # class attributes: LorenzMap.__call__ is an alias of apply
                for key, value in list(vars(owner).items()):
                    if value is orig:
                        self._patches.append((owner, key, orig))
                        setattr(owner, key, wrapper)
            else:
                self._rebind(modules, orig, wrapper)
        pool = concurrent.futures.ProcessPoolExecutor
        self._rebind(modules, pool, self._count_wrapper("sweep.pools_opened", pool))

    def _rebind(self, modules, orig, wrapper) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------------

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._forked()
            parent = self.stack[-1] if self.stack else -1
            if self.in_worker and parent < 0:
                # a worker's top-level call is one point of the sweep
                self.point = f"{self.pid}-{self._calls_in_worker}"
                self._calls_in_worker += 1
            span = [name, 0.0, 0.0, parent, self.point, self.pid]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self._observe(name, result, parent)
            if self.in_worker and not self.stack:
                self._spill()
            return result

        return traced

    def _observe(self, name, result, parent) -> None:
        """Quality and work numbers read from a returned value."""
        try:
            if name == "spectral.max_root":
                self.counts["spectral.tangential"] += result.multiplicity_hint == TANGENTIAL
            elif name == "spectral.entropy_spectral":
                self.counts["spectral.certified"] += bool(result.certified)
                self.maxima["spectral.error_bound_max"] = max(
                    self.maxima["spectral.error_bound_max"], result.error_bound
                )
            elif name == "laps.lap_states":
                sizes = [len(state.classes) for state in result]
                self.maxima["laps.classes_max"] = max(self.maxima["laps.classes_max"], max(sizes))
                self.counts["laps.classes_sum"] += sum(sizes)
                self.counts["laps.variation_bits"] += _variation_bits(result[-1].total_variation)
            elif name == "sweep.detect_nonmonotonic":
                # the calls inside cross-confirmation detect lap features
                if parent < 0 or self.spans[parent][0] != "sweep.cross_confirm_features":
                    self.counts["sweep.features_detected"] += len(result)
            elif name == "sweep.cross_confirm_features":
                self.counts["sweep.features_confirmed"] += len(result)
        except (AttributeError, TypeError, ValueError, IndexError) as exc:
            print(f"trace: cannot read {name} result: {exc!r}", file=sys.stderr)

    # -- worker processes ------------------------------------------------------

    def _forked(self) -> None:
        # first traced call in a forked worker: drop what the parent had
        self.fork_parent = self.stack[-1] if self.stack else -1
        self.pid = os.getpid()
        self.in_worker = True
        self.spans, self.stack = [], []
        self.counts.clear()
        self.maxima.clear()

    def _spill(self) -> None:
        record = {
            "fork_parent": self.fork_parent,
            "spans": self.spans,
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
        with open(self.spill_dir / f"worker-{self.pid}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans = []
        self.counts.clear()
        self.maxima.clear()

    def collect_workers(self) -> None:
        """Merge and remove the spill files that worker processes wrote."""
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                records = [json.loads(line) for line in handle if line.strip()]
            path.unlink()
            for record in records:
                offset = len(self.spans)
                for name, start, end, parent, point, pid in record["spans"]:
                    parent = offset + parent if parent >= 0 else record["fork_parent"]
                    self.spans.append([name, start, end, parent, point, pid])
                self.worker_spans += len(record["spans"])
                self.counts.update(record["counts"])
                for key, value in record["maxima"].items():
                    self.maxima[key] = max(self.maxima[key], value)

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Totals over every traced pass: seconds, calls, self seconds, counts."""
        total = defaultdict(float)
        calls = Counter()
        child_time = defaultdict(float)
        for name, start, end, parent, _, pid in self.spans:
            total[name] += end - start
            calls[name] += 1
            # a child in another process ran alongside its parent, not inside it
            if parent >= 0 and self.spans[parent][5] == pid:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[index]
        spectral_calls = calls["spectral.entropy_spectral"]
        c = self.counts
        return {
            "maps.branch_calls": c["maps.branch_calls"],
            "maps.apply_calls": c["maps.apply_calls"],
            "kneading.kneading_prefixes.s": total["kneading.kneading_prefixes"],
            "kneading.kneading_prefixes.calls": calls["kneading.kneading_prefixes"],
            "spectral.max_root.s": total["spectral.max_root"],
            "spectral.max_root.calls": calls["spectral.max_root"],
            "spectral.xi_eval.calls": c["spectral.xi_eval.calls"],
            "spectral.entropy_spectral.self_s": self_time["spectral.entropy_spectral"],
            "spectral.xi_coeffs.s": total["spectral.xi_coeffs"],
            "spectral.tangential": c["spectral.tangential"],
            "spectral.certified_frac": c["spectral.certified"] / spectral_calls if spectral_calls else 0.0,
            "spectral.error_bound_max": self.maxima["spectral.error_bound_max"],
            "laps.lap_states.s": total["laps.lap_states"],
            "laps.lap_states.calls": calls["laps.lap_states"],
            "laps.classes_max": int(self.maxima["laps.classes_max"]),
            "laps.classes_sum": c["laps.classes_sum"],
            "laps.variation_bits": c["laps.variation_bits"],
            "laps.entropy_laps.self_s": self_time["laps.entropy_laps"],
            "sweep.sweep.s": total["sweep.sweep"],
            "sweep.detect_nonmonotonic.s": total["sweep.detect_nonmonotonic"],
            "sweep.cross_confirm_features.s": total["sweep.cross_confirm_features"],
            "sweep.write_csv.s": total["sweep.write_csv"],
            "sweep.pools_opened": c["sweep.pools_opened"],
            "sweep.features_detected": c["sweep.features_detected"],
            "sweep.features_confirmed": c["sweep.features_confirmed"],
            "cli.main.self_s": self_time["cli.main"],
            "trace.worker_spans": self.worker_spans,
        }

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, point, pid) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "point": point, "pid": pid}
                    )
                    + "\n"
                )
