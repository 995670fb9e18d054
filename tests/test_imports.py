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
