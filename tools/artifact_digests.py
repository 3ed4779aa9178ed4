"""SHA-256 of every artifact the benchmark workloads and a fixed every-command set write, for one checkout.

    python3 tools/artifact_digests.py CHECKOUT > digests.txt

Runs each config of the four workloads of ``CHECKOUT/perfbench/workloads.py``
over its pool seeds, and each config of :data:`EXTRA` (commands and channels
that no workload runs: ``closeness``, ``observe`` and ``synthesize`` on every
valid channel of both systems, ``observe`` with more trials than one
stacked pass takes, ``synthesize`` on 100 moment rows, which solves at 80
digits, ``synthesize`` on 32 moment rows at T = 0.5, which solves at 160
digits, ``synthesize`` on 16 moment rows of a weakly damped barotropic set
at T = 2, whose slowest rates put 8 moment pairs on the Gram's Taylor
branch, ``synthesize`` on density and velocity of the Jordan-pair barotropic
set and the triple-root three-field set (their moment rows run the Jordan
chains), ``validate-fdm`` with a trajectory export on the workhorse, the
coincidence-free three-field set, the Jordan-pair barotropic set and the
triple-root three-field set (its spectral side runs the Jordan chains),
``ingham`` on the barotropic workhorse at N = 24 and 512 and on the
coincidence-free three-field set at N = 1024, ``witness-regularity`` on the
workhorse and on velocity and temperature of the three-field set,
``witness-smalltime`` on the coincidence-free three-field set,
``witness-degenerate`` on velocity and temperature of the three-field set
and on density of the barotropic set with a cross-mode coincidence, and
one ``--verify`` run), each in a fresh temporary directory, with the
``cnslab`` of ``CHECKOUT/src``, and prints one line per artifact:

    workload/seed/run/file sha256
    extra/name/file sha256

sorted, so that two checkouts whose artifacts are byte-identical print the
same text and ``diff`` of the two outputs is empty.  Nothing is written into
the checkout: ``workloads.py`` is imported by path with bytecode caching off.

    python3 tools/artifact_digests.py CHECKOUT --against OTHER

runs both checkouts, each in its own process, and prints for every artifact
whose bytes differ one line per JSON key or CSV column that differs:

    label/file key largest-relative-difference largest-difference-over-largest-value

The relative difference of two numbers is ``|a - b| / max(|a|, |b|)``; the
second figure is ``max|a - b| / max(max|a|, max|b|)`` over the key's or
column's values, the difference at the scale of the whole column, which
near-zero entries do not dominate.  A JSON key names its path,
``.``-joined; list items that are objects or lists share one ``[]`` key,
scalar items keep their ``[i]``.  A non-numeric value that differs prints
``differs``, a key or file only one side has ``missing``.  Byte-identical
trees print nothing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

#: A three-field set without coincidences (the workloads' three-field set shares an eigenvalue).
GENERIC_THREE_FIELD = {"rho_bar": 1.0, "u_bar": 0.9, "theta_bar": 1.0, "lambda0": 1.0, "kappa0": 2.0, "R": 1.0, "c0": 1.0}

#: A barotropic set whose parabolic eigenvalues at n = 1 and n = -1 coincide: a cross-mode coincidence.
DEGENERATE_BAROTROPIC = {"rho_bar": 1.0, "u_bar": 1.0, "mu0": 1.0, "b": 1.25}

#: A barotropic set whose two values at n = 2 form a Jordan pair.
JORDAN_PAIR_BAROTROPIC = {"rho_bar": 1.0, "u_bar": 1.0, "mu0": 1.0, "b": 1.0}

#: A three-field set whose three values at n = 1 form a Jordan triple.
TRIPLE_ROOT_THREE_FIELD = {"rho_bar": 1.0, "u_bar": 1.0, "theta_bar": 0.5, "lambda0": 1.0, "kappa0": 2.0, "R": 1.0, "c0": 1.0}

#: A barotropic set with weak damping: at small T its slowest rates put moment pairs on the Taylor branch.
WEAKLY_DAMPED_BAROTROPIC = {"rho_bar": 1.0, "u_bar": 0.9, "mu0": 1.0, "b": 0.05}

#: name -> (system, params set, command, section text, verify); the sets are named in :func:`digests`.
EXTRA = {
    "closeness-barotropic": ("barotropic", "workhorse", "closeness", "[closeness]\nN_start = 3\nN_end = 40\n", False),
    "closeness-nonbarotropic": ("nonbarotropic", "generic", "closeness", "[closeness]\nN_start = 1\nN_end = 40\n", False),
    **{
        f"{command}-{system}-{channel}": (
            system, "workhorse" if system == "barotropic" else "generic", command,
            f"[{command}]\nN = 6\nT = 8.0\nchannel = {channel}\n"
            + ("trials = 2\n" if command == "observe" else "N_verify = 9\ngrid = 21\n"),
            False,
        )
        for command in ("observe", "synthesize")
        for system, channels in (("barotropic", ("density", "velocity")),
                                 ("nonbarotropic", ("density", "velocity", "temperature")))
        for channel in channels
    },
    # more trials than one stacked pass of observability_quotients takes (16): the digests cover the block seam
    "observe-nonbarotropic-temperature-blocks": (
        "nonbarotropic", "generic", "observe",
        "[observe]\nN = 6\nT = 8.0\nchannel = temperature\ntrials = 19\n", False,
    ),
    # 100 moment rows at T = 12, the fewest at which the solve climbs to its second rung (80 digits): the
    # digests cover that precision's exponentials
    "synthesize-barotropic-density-rung80": (
        "barotropic", "workhorse", "synthesize",
        "[synthesize]\nN = 25\nT = 12.0\nchannel = density\nN_verify = 26\ngrid = 21\n", False,
    ),
    # 32 moment rows at T = 0.5: a pivot fails at 40 digits and the residual gate at 80, so the solve climbs to
    # its third rung (160 digits)
    "synthesize-barotropic-density-rung160": (
        "barotropic", "workhorse", "synthesize",
        "[synthesize]\nN = 8\nT = 0.5\nchannel = density\nN_verify = 12\ngrid = 21\n", False,
    ),
    # 8 moment pairs with |z| T below the Taylor radius: the digests cover the Gram's Taylor branch
    "synthesize-barotropic-weak-taylor": (
        "barotropic", "weak", "synthesize", "[synthesize]\nN = 4\nT = 2.0\nchannel = density\nN_verify = 6\ngrid = 21\n",
        False,
    ),
    # the jordan and triple sets put Jordan chains into the moment rows: kernels with (T-t)**k terms
    **{
        f"synthesize-{name}-{channel}": (
            system, key, "synthesize", f"[synthesize]\nN = 6\nT = 8.0\nchannel = {channel}\nN_verify = 9\ngrid = 21\n",
            False,
        )
        for name, system, key in (("barotropic-jordan", "barotropic", "jordan"),
                                  ("nonbarotropic-triple", "nonbarotropic", "triple"))
        for channel in ("density", "velocity")
    },
    # the jordan and triple sets put Jordan chains on the spectral side of the comparison
    **{
        f"validate-fdm-{name}": (
            system, key, "validate-fdm", "[fdm]\nN = 6\nM = 128\ndt = 1e-3\nT = 0.1\nexport_trajectory = yes\n", False,
        )
        for name, system, key in (("barotropic", "barotropic", "workhorse"), ("nonbarotropic", "nonbarotropic", "generic"),
                                  ("barotropic-jordan", "barotropic", "jordan"),
                                  ("nonbarotropic-triple", "nonbarotropic", "triple"))
    },
    "ingham-barotropic": ("barotropic", "workhorse", "ingham", "[ingham]\nN = 24\nT = 8.0\n", False),
    # the Ingham pair minima at scale: on the coincidence-free three-field set at N = 1024 the sorted windows keep
    # under 1% of the pairs; on the barotropic workhorse at N = 512 the P3 window keeps three quarters of them
    "ingham-nonbarotropic-1024": ("nonbarotropic", "generic", "ingham", "[ingham]\nN = 1024\nT = 8.0\n", False),
    "ingham-barotropic-512": ("barotropic", "workhorse", "ingham", "[ingham]\nN = 512\nT = 8.0\n", False),
    "witness-regularity": ("barotropic", "workhorse", "witness-regularity", "[witness]\ns = 0.5\nn_list = 4,8,16\n", False),
    **{
        f"witness-regularity-nonbarotropic-{channel}": (
            "nonbarotropic", "generic", "witness-regularity",
            f"[witness]\nchannel = {channel}\ns = 0.5\nn_list = 4,8,16\n", False,
        )
        for channel in ("velocity", "temperature")
    },
    "witness-smalltime-nonbarotropic": ("nonbarotropic", "generic", "witness-smalltime",
                                        "[witness]\nT = 3.0\nN_list = 8,12,16,24\nx_left = 3.2\nx_right = 5.8\n", False),
    **{
        f"witness-degenerate-{channel}": ("nonbarotropic", "shared", "witness-degenerate",
                                          f"[witness]\nN = 4\nchannel = {channel}\n", False)
        for channel in ("velocity", "temperature")
    },
    "witness-degenerate-barotropic-density": ("barotropic", "degenerate", "witness-degenerate",
                                              "[witness]\nN = 4\nchannel = density\n", False),
    "spectrum-verify": ("nonbarotropic", "generic", "spectrum", "[spectrum]\nN = 12\n", True),
}


def load_workloads(checkout: Path):
    """``CHECKOUT/perfbench/workloads.py`` as a module; it imports ``cnslab`` from ``CHECKOUT/src``."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads", checkout / "perfbench" / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(wl, label: str, text: str, verify: bool = False, keep: Path | None = None) -> list[str]:
    """``label/file sha256`` of every artifact of one config run in a fresh directory, copied to ``keep/label``."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.ini", Path(tmp) / "out"
        config.write_text(text)
        code = wl.cli.run(config, out, verify=verify)
        if code != 0:
            raise SystemExit(f"{label}: exit code {code}")
        if keep is not None:
            shutil.copytree(out, keep / label)
        return [f"{label}/{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}" for path in sorted(out.iterdir())]


def digests(wl, keep: Path | None = None) -> list[str]:
    lines = []
    for name, workload in wl.WORKLOADS.items():
        for seed in wl.POOL_SEEDS:
            for run, text in enumerate(workload.configs(seed)):
                lines += _run(wl, f"{name}/{seed}/{run}", text, keep=keep)
    params = {"workhorse": wl.WORKHORSE, "shared": wl.SHARED_EIGENVALUE, "generic": GENERIC_THREE_FIELD,
              "degenerate": DEGENERATE_BAROTROPIC, "jordan": JORDAN_PAIR_BAROTROPIC, "triple": TRIPLE_ROOT_THREE_FIELD,
              "weak": WEAKLY_DAMPED_BAROTROPIC}
    for name, (system, key, command, section, verify) in EXTRA.items():
        text = "\n".join(
            ["[run]", f"system = {system}", f"command = {command}", "seed = 0", "", "[params]"]
            + [f"{k} = {v!r}" for k, v in params[key].items()]
        )
        lines += _run(wl, f"extra/{name}", text + "\n\n" + section, verify, keep)
    return sorted(lines)


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0


def _flatten(value, key: str, out: dict[str, list]) -> None:
    """Every scalar of a JSON value under its key path, appended to ``out[path]``."""
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{key}.{k}" if key else str(k), out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{key}[]" if isinstance(v, (dict, list)) else f"{key}[{i}]", out)
    else:
        out.setdefault(key, []).append(value)


def _columns(path: Path) -> dict[str, list]:
    """A CSV file's columns by header name, values as read."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [row[j] for row in rows] for j, name in enumerate(header)}


def _number(x):
    """``x`` as a float if it is a number (a JSON number or a CSV field that parses), else None."""
    if isinstance(x, bool):
        return None
    try:
        return float(x)
    except (TypeError, ValueError):
        return None


def _key_differences(a: dict[str, list], b: dict[str, list]) -> list[tuple[str, str]]:
    """``(key, difference)`` of every key whose values differ.

    The difference is the largest relative difference and the largest
    difference over the largest value, ``differs`` or ``missing``.
    """
    out = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b or len(a[key]) != len(b[key]):
            out.append((key, "missing"))
            continue
        if a[key] == b[key]:
            continue
        numbers = [(_number(x), _number(y)) for x, y in zip(a[key], b[key])]
        if any(x is None or y is None for x, y in numbers):
            out.append((key, "differs"))
        else:
            top = max(abs(v) for pair in numbers for v in pair)
            scaled = max(abs(x - y) for x, y in numbers) / top
            out.append((key, f"{max(_relative(x, y) for x, y in numbers):.2e} {scaled:.2e}"))
    return out


def compare(left: Path, right: Path) -> list[str]:
    """``label/file key difference`` for every artifact of two kept trees whose bytes differ."""
    names = sorted({p.relative_to(root) for root in (left, right) for p in root.rglob("*") if p.is_file()})
    lines = []
    for name in names:
        a, b = left / name, right / name
        if not (a.exists() and b.exists()):
            lines.append(f"{name} (file) missing")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        if name.suffix == ".json":
            flat = []
            for path in (a, b):
                flat.append({})
                _flatten(json.loads(path.read_text()), "", flat[-1])
        elif name.suffix == ".csv":
            flat = [_columns(a), _columns(b)]
        else:
            lines.append(f"{name} (bytes) differs")
            continue
        lines += [f"{name} {key} {difference}" for key, difference in _key_differences(*flat)]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of a cnslab checkout (holds src/ and perfbench/)")
    parser.add_argument("--against", type=Path, metavar="OTHER",
                        help="another checkout: print the keys and columns whose values differ, not digests")
    parser.add_argument("--keep", type=Path, metavar="DIR", help="also copy every artifact to DIR/label/file")
    args = parser.parse_args(argv)
    if args.against is None:
        print("\n".join(digests(load_workloads(args.checkout.resolve()), args.keep)))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = [Path(tmp) / "checkout", Path(tmp) / "against"]
        for checkout, tree in zip((args.checkout, args.against), trees):
            # one process per checkout: each imports its own cnslab
            subprocess.run([sys.executable, __file__, str(checkout.resolve()), "--keep", str(tree)],
                           check=True, stdout=subprocess.DEVNULL)
        lines = compare(*trees)
        if lines:
            print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
