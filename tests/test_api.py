import ast
from pathlib import Path

import nashtoric

PACKAGE_DIR = Path(nashtoric.__file__).parent


def test_public_names_resolve_once():
    names = nashtoric.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(nashtoric, name), name


def test_no_unused_module_imports():
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
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
            f"{path.name}:{line}: {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []
