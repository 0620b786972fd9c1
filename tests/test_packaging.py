import ast
import re
import shlex
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


def _modules(requirements):
    return {name.replace("-", "_") for name in _names(requirements)}


def test_package_imports_only_its_declared_dependencies():
    # the package, the standard library and pyproject's runtime dependencies (numpy); the tests
    # also the test extra, whose scipy serves only as the reference of the built-in peak rule
    project = _project()
    package = {"lorenzmaps", *sys.stdlib_module_names, *_modules(project["dependencies"])}
    tests = package | _modules(project["optional-dependencies"]["test"])
    for sources, allowed in [
        (sorted((ROOT / "src" / "lorenzmaps").rglob("*.py")), package),
        (sorted((ROOT / "tests").glob("*.py")), tests),
    ]:
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


def test_every_cap_the_readme_cites_is_a_module_constant():
    # a cap deleted from the package must not linger in the docs
    cited = set(re.findall(r"\bMAX_[A-Z_]+", (ROOT / "README.md").read_text(encoding="utf-8")))
    constants = {
        target.id
        for path in (ROOT / "src" / "lorenzmaps").glob("*.py")
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert cited
    assert sorted(cited - constants) == []


def test_every_exported_name_resolves():
    # the spectral and sweep names are bound on first access, so a misspelt one would fail only when read
    import lorenzmaps

    assert [name for name in lorenzmaps.__all__ if not hasattr(lorenzmaps, name)] == []
    assert set(lorenzmaps.__all__) <= set(dir(lorenzmaps))


def test_unknown_name_raises_attribute_error_and_loads_nothing(run_python):
    # a name neither bound nor deferred is rejected before any submodule is imported
    code = (
        "import sys, lorenzmaps\n"
        "print(hasattr(lorenzmaps, 'no_such_name'), 'numpy' in sys.modules)\n"
        "lorenzmaps.no_such_name\n"
    )
    result = run_python(code)
    assert result.returncode == 1
    assert result.stdout.split() == ["False", "False"]
    assert result.stderr.splitlines()[-1] == "AttributeError: module 'lorenzmaps' has no attribute 'no_such_name'"


_SWEEP_BINDING_CHECK = """
import sys, types
import lorenzmaps
assert not isinstance(lorenzmaps.sweep, types.ModuleType), lorenzmaps.sweep
assert lorenzmaps.sweep is sys.modules["lorenzmaps.sweep"].sweep
import lorenzmaps.sweep as again
assert again is lorenzmaps.sweep
print("ok")
"""


@pytest.mark.parametrize(
    "first",
    [
        "import lorenzmaps.sweep as S\nassert S.__name__ == 'sweep' and callable(S), S",
        "import importlib\nassert importlib.import_module('lorenzmaps.sweep').__name__ == 'lorenzmaps.sweep'",
        "import contextlib, io\nfrom lorenzmaps.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['sweep', '--b0', '1.1', '--b1', '1.9', '--p-min', '0.6', '--p-max', '0.7',"
        " '--points', '2', '--n', '50', '--workers', '1']) == 0",
        "from lorenzmaps import sweep\nassert sweep.__name__ == 'sweep' and callable(sweep), sweep",
    ],
    ids=["import-as", "import-module", "cli-sweep", "from-import"],
)
def test_package_name_sweep_stays_the_function(first, run_python):
    # the package resolves its sweep names on first access, and the import system binds each
    # submodule it loads on the package: whichever loads the sweep module first, the name is the function
    result = run_python(first + "\n" + _SWEEP_BINDING_CHECK)
    assert (result.returncode, result.stdout.strip()) == (0, "ok"), result.stderr


def _readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_command_lines_parse():
    # each example command line, continuations joined, is a valid command; none is run
    from lorenzmaps.cli import build_parser

    lines = "\n".join(_readme_blocks("sh")).replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line)[1:] for line in lines if line.startswith("lorenzmaps ")]
    parser = build_parser()
    commands = []
    for argv in argvs:
        try:
            commands.append(parser.parse_args(argv).command)
        except SystemExit:
            pytest.fail(f"README command line does not parse: lorenzmaps {shlex.join(argv)}")
    assert sorted(commands) == ["compare", "entropy", "kneading", "laps", "sweep"]


def test_readme_quick_tour_names_resolve():
    import lorenzmaps

    [tour] = _readme_blocks("python")
    names = [alias.name for node in ast.walk(ast.parse(tour)) if isinstance(node, ast.ImportFrom)
             and node.module == "lorenzmaps" for alias in node.names]
    assert names
    assert [name for name in names if not hasattr(lorenzmaps, name)] == []
