"""The scaled-integer number format lives in ``fixedpoint`` alone.

``control`` keeps the moment system, the precision ladder and the
verification, and calls ``fixedpoint`` for every operation on the integers
and their power-of-two scales; ``fixedpoint`` knows nothing of moment rows
or systems.  The AST lint keeps that seam: ``fixedpoint`` imports nothing
from ``control``, and ``control`` neither imports mpmath nor shifts bits.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cnslab"


def imported_modules(tree: ast.Module) -> set[str]:
    """Every module an import anywhere in ``tree`` names; ``from a import b`` names ``a`` and ``a.b``.

    A relative import keeps its leading dots.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            names.update(base + ("" if base.endswith(".") else ".") + alias.name for alias in node.names)
    return names


def shifts(tree: ast.Module) -> list[int]:
    """Lines of every ``<<`` or ``>>``, augmented assignments included, and every use of ``operator``'s shifts."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, (ast.LShift, ast.RShift)):
            lines.append(node.lineno)
        elif isinstance(node, ast.alias) and node.name in {"lshift", "rshift"}:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in {"lshift", "rshift"}:
            lines.append(node.lineno)
    return sorted(lines)


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text())


def test_lint_sees_every_form():
    source = ("from . import control\nfrom cnslab import control as c\nimport mpmath.libmp\n"
              "def f(a):\n    from operator import rshift\n    a <<= 2\n    return a >> 1\n")
    tree = ast.parse(source)
    assert {".control", "cnslab.control", "mpmath.libmp"} <= imported_modules(tree)
    assert shifts(tree) == [5, 6, 7]


def test_fixedpoint_does_not_import_control():
    imports = imported_modules(_tree("fixedpoint.py"))
    assert imports and not imports & {".control", "cnslab.control"}


def test_control_neither_imports_mpmath_nor_shifts_bits():
    tree = _tree("control.py")
    assert not [name for name in imported_modules(tree) if name.split(".")[0] == "mpmath"]
    assert shifts(tree) == []
