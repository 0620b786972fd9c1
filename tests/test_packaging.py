import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_does_not_import_scipy():
    # scipy serves only the tests, as the reference of the built-in peak rule
    sources = sorted((ROOT / "src" / "lorenzmaps").rglob("*.py"))
    assert sources
    assert [path.name for path in sources if "scipy" in _imported_roots(path)] == []


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        # a requirement's project name is its leading run of name characters
        return {re.match(r"[A-Za-z0-9._-]+", req.strip()).group().lower() for req in requirements}

    assert "scipy" not in names(project["dependencies"])
    extras = {extra: names(reqs) for extra, reqs in project.get("optional-dependencies", {}).items()}
    assert [extra for extra, reqs in extras.items() if "scipy" in reqs] == ["test"]
