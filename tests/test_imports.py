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


def engine_only_primitives(sources: dict[str, str]) -> list[str]:
    """The module-level functions of ``autodiff`` that call ``_make``, its
    differentiable primitives, which no module of sources (name -> text)
    other than ``autodiff`` and ``gradcheck`` names: scaffolding for the
    checks, not part of any model."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    primitives = [
        node.name for node in trees["autodiff"].body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_make"
                for n in ast.walk(node))]
    named = set()
    for module, tree in trees.items():
        if module not in ("autodiff", "gradcheck"):
            for n in ast.walk(tree):
                if isinstance(n, ast.Name):
                    named.add(n.id)
                elif isinstance(n, ast.Attribute):
                    named.add(n.attr)
                elif isinstance(n, ast.alias):
                    named.add(n.name)
    return sorted(set(primitives) - named)


def test_every_primitive_is_used_outside_the_engine_and_its_checks():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert engine_only_primitives(sources) == []


def test_primitive_guard_reads_calls_of_make_and_names_in_other_modules():
    sources = {
        "autodiff": ("def _make(data, parents, rule):\n    return data\n"
                     "def by_attribute(a):\n    return _make(a, (a,), None)\n"
                     "def imported(a):\n    return _make(a, (a,), None)\n"
                     "def checked_only(a):\n    return _make(a, (a,), None)\n"
                     "def nested(a):\n    def rule(g):\n        return g\n"
                     "    return _make(a, (a,), rule)\n"
                     "def helper(a):\n    return checked_only(a)\n"),
        "gradcheck": "from . import autodiff as ad\n\nf = ad.checked_only\ng = ad.nested\n",
        "model": ("from . import autodiff as ad\nfrom .autodiff import imported\n\n"
                  "h = ad.by_attribute\n"),
    }
    assert engine_only_primitives(sources) == ["checked_only", "nested"]
