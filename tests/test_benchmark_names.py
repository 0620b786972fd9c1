"""The names the benchmark harness in perfbench/ reads from the package still resolve.

Deleting one fails here rather than in every benchmark run.  The harness
modules are imported, never changed.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
PACKAGE = "lorenzmaps"


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


def _package_names(tree):
    """(module, name) for every `from lorenzmaps... import name` and every `alias.name`
    read from a module bound by `import lorenzmaps... [as alias]`."""
    aliases, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE:
            names += [(node.module, alias.name) for alias in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.append((aliases[node.value.id], node.attr))
    return names


def _resolves(module, name):
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule not yet imported
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_package_name_the_harness_reads_resolves():
    # a stale name in code that only some runs reach fails here, not in the run that reaches it
    read = [
        (path.name, module, name)
        for path in sorted(Path(PERFBENCH).glob("*.py"))
        for module, name in _package_names(ast.parse(path.read_text()))
    ]
    assert read, "the harness reads no package name: the parse found nothing to check"
    assert [entry for entry in read if not _resolves(*entry[1:])] == []
