"""Module layering of the package, read from the source: imports sit at module
level, the package's own imports form a graph with no cycle, the
numerical modules never reach up to the configuration or the command line,
no module imports scipy, which serves the tests only, and every top-level
function and class has a caller in the package or the benchmark."""

import ast
from pathlib import Path

import xjulia

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "xjulia"
CORE = ("poly", "jacobi", "measures", "exceptional", "dynamics")
# top-level names kept without a caller in the program, with the reason
UNCALLED = {"exact_chebyshev_moments": "the README's quick tour; ROADMAP items 3 and 11"}


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _package_imports(tree, modules):
    """Names of the package modules that one module imports relatively."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:         # from . import a, b
                found.update(alias.name for alias in node.names if alias.name in modules)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_no_import_inside_a_function():
    local = []
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [f"{name}.{func.name}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


def test_package_imports_form_a_dag():
    trees = _trees()
    graph = {name: _package_imports(tree, trees) for name, tree in trees.items()}
    done, active = set(), []

    def visit(name):
        if name in active:
            raise AssertionError(" -> ".join(active[active.index(name):] + [name]))
        if name in done:
            return
        active.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        active.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_core_modules_do_not_import_config_or_cli():
    trees = _trees()
    upward = {name: sorted(_package_imports(trees[name], trees) & {"config", "cli"})
              for name in CORE}
    assert upward == {name: [] for name in CORE}


def test_no_module_imports_scipy():
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{name}:{node.lineno}" for m in modules if m.split(".")[0] == "scipy"]
    assert found == []


def test_every_definition_has_a_caller():
    # read as a name or an attribute in a package module (__init__.py's
    # re-exports aside) or the benchmark; an oracle only the tests call
    # belongs in tests/oracles.py
    package = {name: tree for name, tree in _trees().items() if name != "__init__"}
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in [*package.values(), *bench] for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    uncalled = [f"{name}.{node.name}" for name, tree in package.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name not in used and node.name not in UNCALLED]
    assert uncalled == []


def test_public_names_resolve_once():
    # a stale entry breaks `from xjulia import *`
    assert [name for name in xjulia.__all__ if not hasattr(xjulia, name)] == []
    assert len(set(xjulia.__all__)) == len(xjulia.__all__)
