import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import powerdom


def test_public_names_resolve():
    # A name deleted from its module but left in __all__ breaks the
    # star import.
    assert [name for name in powerdom.__all__ if not hasattr(powerdom, name)] == []
    namespace: dict = {}
    exec("from powerdom import *", namespace)
    assert set(powerdom.__all__) <= namespace.keys()


def test_lazy_namespace():
    # dir() lists every public name, and an unknown name fails as usual.
    assert set(powerdom.__all__) <= set(dir(powerdom))
    with pytest.raises(AttributeError, match="^module 'powerdom' has no attribute 'nope'$"):
        powerdom.nope  # noqa: B018


def test_bare_import_loads_no_solver():
    env = dict(os.environ, PYTHONPATH=str(Path(powerdom.__file__).parent.parent))
    script = "import sys, powerdom; print(*(m for m in sys.modules if m.startswith('powerdom')))"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.stdout.split() == ["powerdom"]


def test_no_unused_imports():
    # Every module-level import of the package is read somewhere in its
    # module, or re-exported through a literal __all__ list.  An attribute
    # chain a.b.c is read through the Name a at its root.
    src = Path(powerdom.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
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


# Private helpers that src/ itself never calls, each with the reason it stays.
UNCALLED_PRIVATE = {
    "_covers": "perfbench/test_perfbench.py imports it",
    "__getattr__": "the import system calls it (PEP 562)",
    "__dir__": "dir() calls it (PEP 562)",
}


def _reads(tree):
    """The names an ast tree reads, as Name ids and Attribute attrs."""
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name is not None:
            yield name


def test_every_private_helper_is_called():
    # A module-level _name def or class is read somewhere in src/ outside
    # its own definition; one that only tests read is dead code.
    src = Path(powerdom.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    reads = Counter(name for tree in trees for name in _reads(tree))
    uncalled = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        and reads[node.name] == Counter(_reads(node))[node.name]
    }
    assert uncalled == UNCALLED_PRIVATE.keys()
