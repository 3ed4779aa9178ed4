"""scipy stays off the start-up path of every command except ``validate-fdm``, and mpmath off every one.

Importing scipy's linear algebra roughly doubles the time a fresh ``cnslab
run`` process spends importing, and only the FDM oracle uses it.  mpmath is
the tests' extended-precision oracle; production computes its exponentials
on integers.  The test modules themselves load both, so what a command
loads is observed in a fresh interpreter; the AST lints keep a module-level
scipy import from coming back where no command runs, and a module-level
mpmath import from coming back anywhere in ``src/cnslab``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

HEADER = """
[run]
system = barotropic
command = {command}
seed = 7

[params]
rho_bar = 1.0
u_bar = 0.9
mu0 = 1.0
b = 1.3

"""

#: Runs each config path given on the command line in one interpreter and
#: prints the exit codes and the scipy and mpmath modules loaded by then.
PROBE = """
import json, sys
from cnslab import cli
codes = [cli.run(path, out_dir=path + ".out") for path in sys.argv[1:]]
loaded = {top: sorted(m for m in sys.modules if m.split(".")[0] == top) for top in ("scipy", "mpmath")}
print(json.dumps({"codes": codes, **loaded}))
"""


def _probe(*configs: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE, *map(str, configs)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _config(tmp_path: Path, command: str, section: str) -> Path:
    path = tmp_path / f"{command}.ini"
    path.write_text(HEADER.format(command=command) + section)
    return path


def test_importing_the_cli_loads_neither_scipy_nor_mpmath():
    assert _probe() == {"codes": [], "scipy": [], "mpmath": []}


#: The commands the benchmark times, with small configs.
BENCHMARKED = {
    "observe": [("observe", "[observe]\nN = 6\nT = 8.0\ntrials = 2\n")],
    "synthesize": [("synthesize", "[synthesize]\nN = 2\nT = 8.0\ngrid = 5\n")],
    "spectrum-ingham": [("spectrum", "[spectrum]\nN = 8\n"), ("ingham", "[ingham]\nN = 24\nT = 8.0\n")],
    "witness-smalltime": [("witness-smalltime", "[witness]\nT = 3.0\nN_list = 6,8\nx_left = 3.2\nx_right = 5.8\n")],
}


@pytest.mark.parametrize("runs", list(BENCHMARKED.values()), ids=list(BENCHMARKED))
def test_benchmarked_commands_load_neither_scipy_nor_mpmath(tmp_path, runs):
    configs = [_config(tmp_path, command, section) for command, section in runs]
    assert _probe(*configs) == {"codes": [0] * len(configs), "scipy": [], "mpmath": []}


def test_validate_fdm_loads_scipy_when_it_runs(tmp_path):
    section = "[fdm]\nN = 4\nM = 128\ndt = 1e-3\nT = 0.1\nexport_trajectory = yes\n"
    config = _config(tmp_path, "validate-fdm", section)
    probe = _probe(config)
    assert probe["codes"] == [0]
    assert {"scipy.linalg", "scipy.sparse.linalg"} <= set(probe["scipy"])
    out = Path(str(config) + ".out")
    assert (out / "fdm_validation.json").exists() and (out / "trajectory.csv").exists()


def module_level_imports(tree: ast.Module) -> set[str]:
    """Names of the modules a module imports when it is itself imported.

    Function bodies run only when called, so their imports are skipped; class
    bodies and top-level blocks run at import and are walked.  A relative
    import keeps its leading dots.
    """
    names: set[str] = set()
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.update([base] if node.module else (base + alias.name for alias in node.names))
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_module_level_imports_skip_function_bodies():
    source = ("import scipy\nfrom . import oracle\n"
              "def f():\n    import scipy.linalg\n"
              "class C:\n    import scipy.sparse\n")
    assert module_level_imports(ast.parse(source)) == {"scipy", ".oracle", "scipy.sparse"}


def test_no_module_level_scipy_import_outside_the_oracle():
    """The oracle may import scipy at module level because no module imports the oracle so."""
    modules = {path.name: module_level_imports(ast.parse(path.read_text())) for path in (SRC / "cnslab").glob("*.py")}
    assert "cli.py" in modules and "oracle.py" in modules
    scipy_at_import = sorted(name for name, imports in modules.items()
                             if any(m.split(".")[0] == "scipy" for m in imports))
    assert scipy_at_import in ([], ["oracle.py"])
    oracle_at_import = sorted(name for name, imports in modules.items() if imports & {".oracle", "cnslab.oracle"})
    assert oracle_at_import == []


def test_no_module_level_mpmath_import_in_src():
    modules = {path.name: module_level_imports(ast.parse(path.read_text())) for path in (SRC / "cnslab").glob("*.py")}
    assert "fixedpoint.py" in modules and "kernels.py" in modules
    assert sorted(name for name, imports in modules.items() if any(m.split(".")[0] == "mpmath" for m in imports)) == []
