"""Every top-level function and class of ``src/cnslab`` has a use in ``src/``.

A definition counts as used when some module of the package names it: a
``Name``, an ``Attribute`` or a ``from ... import`` of it.  Definitions that
only tests or the benchmark reach are listed in :data:`ALLOWED` with their
reason; anything else without a use is dead weight and fails the census.
"""

import ast
from pathlib import Path

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

