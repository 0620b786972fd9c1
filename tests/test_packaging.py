import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _project():
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _names(requirements):
    # a requirement's project name is its leading run of name characters
    return {re.match(r"[A-Za-z0-9._-]+", req.strip()).group().lower() for req in requirements}


def test_package_imports_only_its_declared_dependencies():
    # the package, the standard library and pyproject's runtime dependencies (numpy); scipy
    # serves only the tests, as the reference of the built-in peak rule
    runtime = {name.replace("-", "_") for name in _names(_project()["dependencies"])}
    allowed = {"lorenzmaps", *sys.stdlib_module_names, *runtime}
    sources = sorted((ROOT / "src" / "lorenzmaps").rglob("*.py"))
    assert sources
    imports = {(path.name, root) for path in sources for root in _imported_roots(path)}
    assert sorted((name, root) for name, root in imports if root not in allowed) == []


def test_scipy_is_a_test_dependency_only():
    project = _project()
    assert "scipy" not in _names(project["dependencies"])
    extras = {extra: _names(reqs) for extra, reqs in project.get("optional-dependencies", {}).items()}
    assert [extra for extra, reqs in extras.items() if "scipy" in reqs] == ["test"]


def test_each_default_is_named_only_by_its_estimator():
    # the estimators' parameter functions read None as these defaults; no other module names them
    owned = {"DEFAULT_ORDER", "DEFAULT_ITERATES", "DEFAULT_WINDOW"}
    sources = {path.name: ast.parse(path.read_text(), str(path)) for path in (ROOT / "src" / "lorenzmaps").glob("*.py")}
    owners = {
        target.id: name
        for name, tree in sources.items()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in owned
    }
    assert sorted(owners) == sorted(owned)
    stray = set()
    for name, tree in sources.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found = [node.id]
            elif isinstance(node, ast.Attribute):
                found = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                found = [alias.name for alias in node.names]
            else:
                continue
            stray.update((name, ref) for ref in found if ref in owned and owners[ref] != name)
    assert sorted(stray) == []
