"""Every module of the package references each name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "evfusion"


def unused_imports(source: str) -> list[str]:
    """The names source imports and never references. A name listed in
    ``__all__`` counts as used; ``from __future__`` imports are skipped."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_guard_reads_references_all_and_future():
    source = ("from __future__ import annotations\n"
              "import itertools\nimport numpy as np\nimport os.path\n"
              "from .a import b, c as d, e\n"
              "__all__ = ['e']\n"
              "x: np.ndarray = d()\n")
    assert unused_imports(source) == ["b", "itertools", "os"]


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """The module-level ``_private`` functions and classes of the modules
    in sources (name -> text) that no code outside their own definition
    names, as ``module.name``."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                continue
            inside = {id(n) for n in ast.walk(node)}
            referenced = any(
                id(n) not in inside
                and ((isinstance(n, ast.Name) and n.id == node.name)
                     or (isinstance(n, ast.Attribute) and n.attr == node.name)
                     or (isinstance(n, ast.alias) and n.name == node.name))
                for other in trees.values() for n in ast.walk(other))
            if not referenced:
                found.append(f"{module}.{node.name}")
    return sorted(found)


def test_every_private_function_and_class_is_referenced():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def test_private_def_guard_skips_self_references_and_reads_other_modules():
    sources = {
        "a": ("def _draw(n):\n    return _draw(n - 1) if n else 0\n"
              "def _used():\n    pass\n"
              "class _Imported:\n    pass\n"
              "def _by_attribute():\n    pass\n"
              "def public():\n    return _used()\n"
              "def __getattr__(name):\n    pass\n"),
        "b": "from .a import _Imported\n",
        "c": "from . import a\n\nf = a._by_attribute\n",
    }
    assert unreferenced_private_defs(sources) == ["a._draw"]
