import ast
from pathlib import Path

import powerdom


def test_public_names_resolve():
    # A name deleted from its module but left in __all__ breaks the
    # star import.
    assert [name for name in powerdom.__all__ if not hasattr(powerdom, name)] == []
    namespace: dict = {}
    exec("from powerdom import *", namespace)
    assert set(powerdom.__all__) <= namespace.keys()


def test_no_unused_imports():
    # Every module-level import of the package is read somewhere in its
    # module, or re-exported through __all__.  An attribute chain a.b.c is
    # read through the Name a at its root.
    src = Path(powerdom.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported = set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used and name not in exported:
                        unused.append(f"{path.name}: {name}")
    assert unused == []
