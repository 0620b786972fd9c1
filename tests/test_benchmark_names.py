"""The names the benchmark harness in perfbench/ reads from the package still resolve.

Deleting one fails here rather than in every benchmark run.  The harness
modules are imported, never changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("tracer"), importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)


def _resolve(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr, None)
    return owner


def test_traced_spans_and_counters_resolve(harness):
    tracer, _ = harness
    targets = tracer.SPANS + tracer.COUNTERS
    assert [f"{module}.{path}" for module, path, _ in targets if not callable(_resolve(module, path))] == []


def test_a_laps_exact_point_passes_its_checks(harness):
    _, workloads = harness
    (point,) = workloads.make_pass("laps_exact", 1, 0, 1)
    assert workloads.check_laps(point, workloads.call(point)) is None
