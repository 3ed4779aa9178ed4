"""The coefficients of both systems are stated once, in ``model.Coefficients``.

Every consumer of a coefficient (symbols, anchors, observation, control
weights, norms, the FDM operator) reads the table; a branch on the params
class stays only where it picks an algorithm.  The AST lint keeps that seam:
an ``isinstance`` naming a params class may appear in ``src/cnslab`` only in
the functions of :data:`ALLOWED`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cnslab"

PARAMS_CLASSES = {"BarotropicParams", "NonBarotropicParams"}

#: (module, function) -> the algorithm its branch on the params class picks
ALLOWED = {
    ("spectrum", "_solve_modes"): "closed-form two-field roots or the dense three-field solve",
    ("spectrum", "_degenerate_diffusions"): "only the three-field system has two diffusions that can coincide",
    ("model", "hyperbolic_fit_threshold"): "the two-field fit starts above the discriminant threshold",
    ("counterexamples", "small_time_witness"): "the witness is built for the two-field system (ROADMAP item 10)",
}


def _names_params_class(node: ast.expr) -> bool:
    if isinstance(node, ast.Tuple):
        return any(_names_params_class(e) for e in node.elts)
    return (isinstance(node, ast.Name) and node.id in PARAMS_CLASSES) or (
        isinstance(node, ast.Attribute) and node.attr in PARAMS_CLASSES
    )


def params_branches(tree: ast.Module) -> list[str]:
    """The innermost enclosing function or class of every ``isinstance`` call
    naming a params class, ``"<module>"`` at top level."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and len(child.args) == 2
                and _names_params_class(child.args[1])
            ):
                found.append(where)
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if scope else where)

    visit(tree, "<module>")
    return found


def test_lint_sees_every_form():
    source = (
        "x = isinstance(p, BarotropicParams)\n"
        "class C:\n"
        "    def f(self, p):\n"
        "        def g():\n"
        "            return isinstance(p, (int, model.NonBarotropicParams))\n"
        "        return isinstance(p, SystemParams) or isinstance(p, float)\n"
    )
    assert params_branches(ast.parse(source)) == ["<module>", "g"]


def test_params_branches_only_pick_algorithms():
    found = {
        (path.stem, where)
        for path in sorted(SRC.glob("*.py"))
        for where in params_branches(ast.parse(path.read_text(), filename=str(path)))
    }
    # an entry whose branch is gone leaves the list
    assert sorted(found) == sorted(ALLOWED)
