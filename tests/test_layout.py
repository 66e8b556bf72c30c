"""Module layering of the package, read from the source: imports sit at module
level, the package's own imports form a graph with no cycle, the
numerical modules never reach up to the configuration or the command line,
no module imports scipy, which serves the tests only, and every top-level
function and class, and every method and property of a class, has a caller in
the package or the benchmark."""

import ast
from pathlib import Path

import xjulia

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "xjulia"
CORE = ("poly", "jacobi", "measures", "exceptional", "dynamics")
# definitions kept without a caller in the program, with the reason
UNCALLED = {"exact_chebyshev_moments": "the README's quick tour; ROADMAP items 3 and 11",
            "Poly.from_roots": "the README's way to build a raw polynomial",
            "_Parser.error": "argparse calls it on a usage error"}
# the names the benchmark binds the imported package to
BENCH_PACKAGE = ("xj", "xjulia")


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


def _relative_imports(tree, modules):
    """{bound name: (module, name)} of one package module's relative imports,
    with name None where a module itself is bound; "__init__" is the package."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in modules:    # from . import a
                    bound[alias.asname or alias.name] = (alias.name, None)
                else:
                    bound[alias.asname or alias.name] = (node.module or "__init__", alias.name)
    return bound


def _references(trees, bench):
    """The (module, name) each name, and each attribute of a package module,
    read in a package module (__init__.py's re-exports aside) or the benchmark
    stands for, resolved through imports and __init__.py's re-exports."""
    imports = {name: _relative_imports(tree, trees) for name, tree in trees.items()}

    def follow(module, name):
        while name in imports[module]:
            module, name = imports[module][name]
        return (name, None) if module == "__init__" and name in trees else (module, name)

    def resolve(node, module):
        if isinstance(node, ast.Name):
            if module is None:      # the benchmark reaches the package by one name
                return ("__init__", None) if node.id in BENCH_PACKAGE else None
            return follow(module, node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value, module)
            if owner is not None and owner[1] is None:
                return follow(owner[0], node.attr)
        return None

    sources = [(name, tree) for name, tree in trees.items() if name != "__init__"]
    return {resolve(node, module) for module, tree in sources + [(None, t) for t in bench]
            for node in ast.walk(tree)}


def test_every_definition_has_a_caller():
    # a top-level definition needs a reference that resolves to it; a method or
    # property, only an attribute of its name read anywhere, since the owning
    # object's type is not known statically.  An oracle only the tests call
    # belongs in tests/oracles.py
    trees = _trees()
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    used = _references(trees, bench)
    read = {node.attr for tree in [*trees.values(), *bench] for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    defs = [(name, node) for name, tree in trees.items() if name != "__init__"
            for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    uncalled = [f"{name}.{node.name}" for name, node in defs
                if (name, node.name) not in used and node.name not in UNCALLED]
    uncalled += [f"{name}.{cls.name}.{node.name}" for name, cls in defs
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
                 and node.name not in read and f"{cls.name}.{node.name}" not in UNCALLED]
    assert uncalled == []


def test_public_names_resolve_once():
    # a stale entry breaks `from xjulia import *`
    assert [name for name in xjulia.__all__ if not hasattr(xjulia, name)] == []
    assert len(set(xjulia.__all__)) == len(xjulia.__all__)
