"""Every top-level function and class of ``src/cnslab`` has a use in ``src/``, and every import a use in its module.

A definition counts as used when some module of the package names it: a
``Name``, an ``Attribute`` or a ``from ... import`` of it.  Definitions that
only tests or the benchmark reach are listed in :data:`ALLOWED` with their
reason; anything else without a use is dead weight and fails the census.

An imported name counts as used when its module reads it as a ``Name``.
No linter runs on ``src/``, so a stale import would otherwise stay; the only
imports without a use are those of :data:`TRACED_IMPORTS`.
"""

import ast
from pathlib import Path

from test_perfbench_trace import spans

SRC = Path(__file__).resolve().parent.parent / "src" / "cnslab"

_CONTRACT = "acceptance contract: tests/test_acceptance.py or the fast-path tests import it"
_ITEM_5 = "ROADMAP item 5 gives it callers"

#: (module, name) -> why the definition stays without a use in src/
ALLOWED = {
    ("fields", "reconstruct"): _CONTRACT,
    ("spectrum", "mode_matrix"): _CONTRACT,
    ("spectrum", "classify_branch"): _CONTRACT,
    ("spectrum", "eigen_barotropic"): _CONTRACT,
    ("spectrum", "eigen_nonbarotropic"): _CONTRACT,
    ("model", "check_degeneracy_barotropic"): _ITEM_5,
    ("model", "check_s_membership"): _ITEM_5,
    ("kernels", "signal_energy_exact"): "pinned by perfbench: perfbench/record.py imports it",
}


#: (module, name) imported without a use, only so that perfbench/spans.py can wrap the name where it is
#: imported (its ``noqa: F401`` lines); the set may only shrink
TRACED_IMPORTS = {
    ("cli", "observability_quotient"),
    ("control", "poly_exp_integral_mp"),
    ("counterexamples", "observation_energy"),
    ("observability", "adjoint_state"),
    ("observability", "expand_in_eigenbasis"),
    ("observability", "observation_signal"),
}


def _unused(src: Path) -> set[tuple[str, str]]:
    """The top-level definitions ``(module, name)`` in ``src`` that no module of ``src`` names."""
    defined: set[tuple[str, str]] = set()
    used: set[str] = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined |= {
            (path.stem, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return {key for key in defined if key[1] not in used}


def test_every_definition_has_a_use_in_src():
    assert sorted(_unused(SRC) - set(ALLOWED)) == []


def test_allowed_names_are_defined_and_still_without_a_use():
    # an entry whose definition is gone or has gained a caller leaves the list
    assert _unused(SRC) >= set(ALLOWED)


def _unused_imports(src: Path) -> set[tuple[str, str]]:
    """The names ``(module, name)`` that a module of ``src`` imports and never reads; ``__future__`` imports aside."""
    unused: set[tuple[str, str]] = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - read}
    return unused


def test_every_import_has_a_use_in_its_module():
    assert sorted(_unused_imports(SRC) - TRACED_IMPORTS) == []


def test_traced_imports_are_traced_and_still_without_a_use():
    # an entry whose import is gone or has gained a use leaves the set, and
    # every entry is a name perfbench/spans.py wraps in that module
    assert _unused_imports(SRC) >= TRACED_IMPORTS
    assert TRACED_IMPORTS <= {(module.removeprefix("cnslab."), name) for module, name, *_ in spans.PATCHES}
