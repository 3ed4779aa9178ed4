"""Workload definitions, pinned configs and output checks of the cnslab benchmark.

A workload is a list of ``cnslab run`` configs that together make one
repeat.  Configs are generated from a small pool of config seeds; the
benchmark seed only chooses the order in which the pool is visited, so every
repeat has stored reference outputs (``references.json``, recorded with
``record.py``).

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
refuses to run against a ``cnslab`` found anywhere else.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.json"

sys.path.insert(0, str(SRC))
from cnslab import cli  # noqa: E402

if Path(cli.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"cnslab must be imported from {SRC}, got {cli.__file__}")

#: Config seeds with stored references; the benchmark seed permutes them.
POOL_SEEDS = tuple(range(8))

WORKHORSE = {"rho_bar": 1.0, "u_bar": 0.9, "mu0": 1.0, "b": 1.3}
# tests/conftest.py generic/shared-eigenvalue set: modes +1 and -1 share -1.
SHARED_EIGENVALUE = {
    "rho_bar": 1.0, "u_bar": 1.0, "theta_bar": 1.0, "lambda0": 1.0,
    "kappa0": 2.0, "R": 1.0, "c0": 1.0,
}

_SECTION = {
    "spectrum": "spectrum",
    "observe": "observe",
    "ingham": "ingham",
    "synthesize": "synthesize",
    "witness-smalltime": "witness",
}


@dataclass(frozen=True)
class Workload:
    name: str
    system: str
    params: dict
    # (command, knobs of the command's section); run in order, one repeat
    runs: tuple
    # whether outputs depend on the config seed (random fields) or not
    seeded: bool

    def configs(self, config_seed: int) -> list[str]:
        """INI texts of one repeat."""
        out = []
        for command, knobs in self.runs:
            lines = ["[run]", f"system = {self.system}", f"command = {command}", f"seed = {config_seed}", "", "[params]"]
            lines += [f"{k} = {v!r}" for k, v in self.params.items()]
            lines += ["", f"[{_SECTION[command]}]"]
            lines += [f"{k} = {v}" for k, v in knobs.items()]
            out.append("\n".join(lines) + "\n")
        return out

    def reference_key(self, config_seed: int) -> str:
        return str(config_seed) if self.seeded else "any"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "observe-sweep", "barotropic", WORKHORSE,
            (("observe", {"N": 32, "T": 8.0, "channel": "density", "trials": 8}),),
            seeded=True,
        ),
        Workload(
            "control-roundtrip", "barotropic", WORKHORSE,
            (("synthesize", {"N": 8, "T": 8.0, "channel": "density", "N_verify": 12, "grid": 51}),),
            seeded=True,
        ),
        Workload(
            "spectrum-audit", "nonbarotropic", SHARED_EIGENVALUE,
            (("spectrum", {"N": 96}), ("ingham", {"N": 96, "T": 8.0})),
            seeded=False,
        ),
        Workload(
            "smalltime-witness", "barotropic", WORKHORSE,
            (("witness-smalltime", {"T": 3.0, "N_list": "6,8,12,16", "x_left": 3.2, "x_right": 5.8}),),
            seeded=False,
        ),
    )
}


def seed_order(seed: int) -> list[int]:
    """Config seeds in the order the repeats of benchmark seed ``seed`` use them."""
    order = list(POOL_SEEDS)
    random.Random(seed).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# output extraction: the values a check compares, read back from artifacts


def _read_json(path: Path):
    return json.loads(path.read_text())


def extract(command: str, out: Path) -> dict:
    """The checked values of one run, read from its artifacts."""
    if command == "observe":
        data = _read_json(out / "observe.json")
        return {"quotients": [r["quotient"] for r in data["reports"]], "min_quotient": data["min_quotient"]}
    if command == "synthesize":
        with open(out / "control.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        if header == ["t", "p"]:
            p = [[float(r[1]), 0.0] for r in body]
        else:
            p = [[float(r[1]), float(r[2])] for r in body]
        data = _read_json(out / "verification.json")
        return {
            "p": p,
            "moment_residual": data["moment_residual"],
            "in_trunc_residual": data["in_trunc_residual"],
            "spillover": data["spillover"],
            "control_norm": data["control_norm"],
        }
    if command == "spectrum":
        with open(out / "spectrum.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {"rows": [[int(r["n"]), r["branch"], float(r["re"]), float(r["im"]), int(r["alg_mult"])] for r in rows]}
    if command == "ingham":
        data = _read_json(out / "ingham.json")
        return {"hypotheses": data["hypotheses"], "all_pass": data["all_pass"]}
    if command == "witness-smalltime":
        data = _read_json(out / "witness_smalltime.json")
        return {"quotients": {k: v[0] for k, v in data["table"].items()}, "slope": data["slope"]}
    raise ValueError(f"no extractor for command {command!r}")


# ---------------------------------------------------------------------------
# checks against the stored references
#
# Each tolerance sits above the agreement of independent paths measured when
# the references were recorded (see README.md) and below any real defect.


def _rel_close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    if a == b:  # also covers equal infinities
        return True
    return abs(a - b) <= rel * abs(b) + floor


def _check_observe(got, ref, problems):
    q, qr = got["quotients"], ref["quotients"]
    if len(q) != len(qr):
        problems.append(f"observe: {len(q)} quotients, reference has {len(qr)}")
        return
    for i, (a, b) in enumerate(zip(q, qr)):
        if not a > 0.0:
            problems.append(f"observe: quotient {i} = {a!r} is not positive")
        elif not _rel_close(a, b, 1e-10):
            problems.append(f"observe: quotient {i} = {a!r}, reference {b!r}")
    if got["min_quotient"] != min(q) or not _rel_close(got["min_quotient"], ref["min_quotient"], 1e-10):
        problems.append(f"observe: min_quotient {got['min_quotient']!r}, reference {ref['min_quotient']!r}")


def _check_synthesize(got, ref, problems):
    if not got["moment_residual"] <= 1e-12:
        problems.append(f"synthesize: moment_residual {got['moment_residual']!r} > 1e-12")
    if not got["in_trunc_residual"] <= 1e-6:
        problems.append(f"synthesize: in_trunc_residual {got['in_trunc_residual']!r} > 1e-6")
    p, pr = got["p"], ref["p"]
    if len(p) != len(pr):
        problems.append(f"synthesize: {len(p)} control samples, reference has {len(pr)}")
    else:
        scale = max(math.hypot(*v) for v in pr)
        worst = max(math.hypot(a[0] - b[0], a[1] - b[1]) for a, b in zip(p, pr))
        if not worst <= 1e-9 * scale:
            problems.append(f"synthesize: p(t) differs by {worst:.3e} > 1e-9 * max|p| = {1e-9 * scale:.3e}")
    if sorted(got["spillover"]) != sorted(ref["spillover"]):
        problems.append("synthesize: spillover modes differ from the reference")
    else:
        for k, b in ref["spillover"].items():
            if not _rel_close(got["spillover"][k], b, 1e-9):
                problems.append(f"synthesize: spillover[{k}] = {got['spillover'][k]!r}, reference {b!r}")
    if not _rel_close(got["control_norm"], ref["control_norm"], 1e-9):
        problems.append(f"synthesize: control_norm {got['control_norm']!r}, reference {ref['control_norm']!r}")


def _check_spectrum(got, ref, problems):
    rows, rrows = got["rows"], ref["rows"]
    if len(rows) != len(rrows):
        problems.append(f"spectrum: {len(rows)} rows, reference has {len(rrows)}")
        return
    for a, b in zip(rows, rrows):
        if (a[0], a[1], a[4]) != (b[0], b[1], b[4]):
            problems.append(f"spectrum: row (n, branch, alg_mult) = {a[0], a[1], a[4]}, reference {b[0], b[1], b[4]}")
            return
        lam, lam_ref = complex(a[2], a[3]), complex(b[2], b[3])
        if not abs(lam - lam_ref) <= 1e-12 * (1.0 + abs(lam_ref)):
            problems.append(f"spectrum: eigenvalue (n={a[0]}, {a[1]}) = {lam!r}, reference {lam_ref!r}")


def _compare_tree(a, b, where, problems):
    """Booleans, witnesses and keys identical; floats within 1e-10 relative.

    Gaps that are themselves at round-off level (a shared eigenvalue gives a
    zero cross gap) get an absolute floor of 1e-14.
    """
    if isinstance(b, dict):
        if not isinstance(a, dict) or sorted(a) != sorted(b):
            problems.append(f"ingham: keys of {where} differ from the reference")
            return
        for k in b:
            _compare_tree(a[k], b[k], f"{where}.{k}", problems)
    elif isinstance(b, float) and isinstance(a, (int, float)) and not isinstance(a, bool):
        if not _rel_close(float(a), b, 1e-10, 1e-14):
            problems.append(f"ingham: {where} = {a!r}, reference {b!r}")
    elif a != b or type(a) is not type(b):
        problems.append(f"ingham: {where} = {a!r}, reference {b!r}")


def _check_ingham(got, ref, problems):
    _compare_tree(got, ref, "report", problems)


def _check_smalltime(got, ref, problems):
    q, qr = got["quotients"], ref["quotients"]
    if sorted(q) != sorted(qr):
        problems.append("witness: N values differ from the reference")
        return
    for k, b in qr.items():
        if not _rel_close(q[k], b, 1e-6):
            problems.append(f"witness: quotient at N={k} = {q[k]!r}, reference {b!r}")
    if not got["slope"] <= -1.7:
        problems.append(f"witness: slope {got['slope']!r} > -1.7 (criterion 7)")


_CHECKS = {
    "observe": _check_observe,
    "synthesize": _check_synthesize,
    "spectrum": _check_spectrum,
    "ingham": _check_ingham,
    "witness-smalltime": _check_smalltime,
}


def check_manifest(out: Path, problems: list[str]) -> None:
    """Every artifact listed in manifest.json exists with the recorded hash."""
    manifest = _read_json(out / "manifest.json")
    for name, digest in manifest["outputs"].items():
        path = out / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"manifest: hash of {name} does not match")


def check_run(command: str, out: Path, ref: dict) -> list[str]:
    """Problems found in one run's artifacts; empty when the run is correct."""
    problems: list[str] = []
    try:
        check_manifest(out, problems)
        _CHECKS[command](extract(command, out), ref, problems)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"{command}: unreadable artifacts ({type(exc).__name__}: {exc})")
    return problems


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text())
