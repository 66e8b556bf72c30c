"""Module layering of the package, read from the source: imports sit at module
level, the package's own imports form a graph with no cycle, the
numerical modules never reach up to the configuration or the command line,
and no module imports scipy, which serves the tests only."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xjulia"
CORE = ("poly", "jacobi", "measures", "exceptional", "dynamics")


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
