import ast
import importlib.util
from pathlib import Path

import nashtoric

PACKAGE_DIR = Path(nashtoric.__file__).parent
TESTS_DIR = Path(__file__).resolve().parent
TRACER_PATH = TESTS_DIR.parent / "perfbench" / "tracer.py"


def test_public_names_resolve_once():
    names = nashtoric.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(nashtoric, name), name


def test_no_unused_module_imports():
    """Every module-level import of the package and of the tests is used;
    the package's __init__.py imports only to re-export."""
    paths = sorted(PACKAGE_DIR.glob("*.py")) + sorted(TESTS_DIR.glob("*.py"))
    unused = []
    for path in paths:
        if path == PACKAGE_DIR / "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.parent.name}/{path.name}:{line}: {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []


def test_one_check_for_a_list_of_vectors():
    """linalg.int_rows is the one check of a list of integer vectors: no
    code of the package applies int_tuple to the members of a collection,
    by map(int_tuple, ...) or by a call inside a loop or a comprehension."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                args = [a.id for a in node.args if isinstance(a, ast.Name)]
                if node.func.id == "map" and args[:1] == ["int_tuple"]:
                    found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, loops):
                found += [
                    f"{path.name}:{call.lineno}"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "int_tuple"
                ]
    assert found == []


def test_no_self_recursive_closures():
    """No nested function calls itself by name.  Such a function refers to
    itself through its own closure cell, so it and everything it closes
    over outlive the call as cyclic garbage."""
    recursive = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for outer in ast.walk(tree):
            if not isinstance(outer, ast.FunctionDef):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, ast.FunctionDef):
                    continue
                used = {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
                if inner.name in used:
                    recursive.append(f"{path.name}: {outer.name}.{inner.name}")
    assert recursive == []


def test_package_defines_only_what_it_uses():
    """Every top-level function and class of the package is used by another
    top-level statement of the package, exported in __all__, or a command of
    cli.py.  Code that only the tests call belongs in the tests."""
    defs, refs = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            refs.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                command = path.name == "cli.py" and stmt.decorator_list
                if not command and stmt.name not in nashtoric.__all__:
                    defs.append((path.name, stmt))
    unused = [
        f"{module}:{stmt.name}"
        for module, stmt in defs
        if not any(stmt.name in names for other, names in refs if other is not stmt)
    ]
    assert unused == []


def test_bench_traced_names_resolve():
    """Every name the bench tracer wraps still exists, but for the layers
    removed on purpose; a renamed one would turn its per-layer metrics into
    silent zeros.  The vertex walk of the blowups replaced basis enumeration,
    basis sums, the Pareto filter, the vertices of a lattice polyhedron and
    feasible cones, and the frozen tracer still names them."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer() as t:
        pass
    assert t.absent == [
        "nashtoric.blowup.enumerate_bases",
        "nashtoric.blowup.basis_sums",
        "nashtoric.blowup._pareto_filter",
        "nashtoric.cones.LatticePolyhedron.vertices",
        "nashtoric.cones.feasible_cone",
    ]
