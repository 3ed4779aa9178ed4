"""The coefficients of both systems are stated once, in ``model.Coefficients``.

Every consumer of a coefficient (symbols, anchors, observation, control
weights, norms, the FDM operator) reads the table; a branch on the params
class stays only where it picks an algorithm.  Two AST lints keep that seam:
an ``isinstance`` naming a params class may appear in ``src/cnslab`` only in
the functions of :data:`ALLOWED`, and outside ``model.py`` a params class's
own field is read only in the functions of :data:`NAMED_READS`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cnslab"

PARAMS_CLASSES = {"BarotropicParams", "NonBarotropicParams"}

#: the fields of the params classes that the table states; ``u_bar`` is shared by both and stays readable
PARAMS_FIELDS = {"rho_bar", "mu0", "b", "theta_bar", "lambda0", "kappa0", "R", "c0", "omega0", "omega_bar", "n0", "n1"}

#: (module, function) -> the algorithm its branch on the params class picks
ALLOWED = {
    ("spectrum", "_solve_modes"): "closed-form two-field roots or the dense three-field solve",
    ("model", "hyperbolic_fit_threshold"): "the two-field fit starts above the discriminant threshold",
}

#: (module, function) outside ``model.py`` -> why it reads a params field by name
NAMED_READS = {
    ("spectrum", "_barotropic_roots"): "the closed-form two-field roots are written in the named coefficients",
}


def _names_params_class(node: ast.expr) -> bool:
    if isinstance(node, ast.Tuple):
        return any(_names_params_class(e) for e in node.elts)
    return (isinstance(node, ast.Name) and node.id in PARAMS_CLASSES) or (
        isinstance(node, ast.Attribute) and node.attr in PARAMS_CLASSES
    )


def _scoped(tree: ast.Module, hit) -> list[str]:
    """The innermost enclosing function or class of every node ``hit`` accepts, ``"<module>"`` at top level."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if hit(child):
                found.append(where)
            scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if scope else where)

    visit(tree, "<module>")
    return found


def params_branches(tree: ast.Module) -> list[str]:
    """The scope of every ``isinstance`` call naming a params class."""
    return _scoped(tree, lambda node: (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and _names_params_class(node.args[1])
    ))


def named_reads(tree: ast.Module) -> list[str]:
    """The scope of every attribute read whose name is a params field."""
    return _scoped(tree, lambda node: (
        isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in PARAMS_FIELDS
    ))


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


def test_named_read_lint_sees_every_form():
    source = (
        "x = params.rho_bar\n"
        "def f(p, q):\n"
        "    p.u_bar = p.coefficients.omega\n"
        "    def g():\n"
        "        return slice_.params.kappa0 + q.n1\n"
        "    p.mu0 = 1.0\n"
        "    return p.omega_bar\n"
    )
    assert named_reads(ast.parse(source)) == ["<module>", "g", "g", "f"]


def test_only_the_closed_form_reads_named_coefficients():
    found = {
        (path.stem, where)
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "model"
        for where in named_reads(ast.parse(path.read_text(), filename=str(path)))
    }
    # an entry whose reads are gone leaves the list
    assert sorted(found) == sorted(NAMED_READS)
