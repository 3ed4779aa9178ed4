"""SHA-256 of every artifact the benchmark workloads and a fixed every-command set write, for one checkout.

    python3 tools/artifact_digests.py CHECKOUT > digests.txt

Runs each config of the four workloads of ``CHECKOUT/perfbench/workloads.py``
over its pool seeds, and each config of :data:`EXTRA` (commands and channels
that no workload runs: ``closeness``, ``observe`` and ``synthesize`` on every
valid channel of both systems, ``observe`` with more trials than one
stacked pass takes, ``validate-fdm`` with a trajectory export,
``witness-regularity``, ``witness-degenerate`` on velocity and temperature
and one ``--verify`` run), each in a fresh temporary directory, with the
``cnslab`` of ``CHECKOUT/src``, and prints one line per artifact:

    workload/seed/run/file sha256
    extra/name/file sha256

sorted, so that two checkouts whose artifacts are byte-identical print the
same text and ``diff`` of the two outputs is empty.  Nothing is written into
the checkout: ``workloads.py`` is imported by path with bytecode caching off.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

#: A three-field set without coincidences (the workloads' three-field set shares an eigenvalue).
GENERIC_THREE_FIELD = {"rho_bar": 1.0, "u_bar": 0.9, "theta_bar": 1.0, "lambda0": 1.0, "kappa0": 2.0, "R": 1.0, "c0": 1.0}

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
    **{
        f"validate-fdm-{system}": (
            system, key, "validate-fdm", "[fdm]\nN = 6\nM = 128\ndt = 1e-3\nT = 0.1\nexport_trajectory = yes\n", False,
        )
        for system, key in (("barotropic", "workhorse"), ("nonbarotropic", "generic"))
    },
    "witness-regularity": ("barotropic", "workhorse", "witness-regularity", "[witness]\ns = 0.5\nn_list = 4,8,16\n", False),
    **{
        f"witness-degenerate-{channel}": ("nonbarotropic", "shared", "witness-degenerate",
                                          f"[witness]\nN = 4\nchannel = {channel}\n", False)
        for channel in ("velocity", "temperature")
    },
    "spectrum-verify": ("nonbarotropic", "generic", "spectrum", "[spectrum]\nN = 12\n", True),
}


def load_workloads(checkout: Path):
    """``CHECKOUT/perfbench/workloads.py`` as a module; it imports ``cnslab`` from ``CHECKOUT/src``."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads", checkout / "perfbench" / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(wl, label: str, text: str, verify: bool = False) -> list[str]:
    """``label/file sha256`` of every artifact of one config run in a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.ini", Path(tmp) / "out"
        config.write_text(text)
        code = wl.cli.run(config, out, verify=verify)
        if code != 0:
            raise SystemExit(f"{label}: exit code {code}")
        return [f"{label}/{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}" for path in sorted(out.iterdir())]


def digests(wl) -> list[str]:
    lines = []
    for name, workload in wl.WORKLOADS.items():
        for seed in wl.POOL_SEEDS:
            for run, text in enumerate(workload.configs(seed)):
                lines += _run(wl, f"{name}/{seed}/{run}", text)
    params = {"workhorse": wl.WORKHORSE, "shared": wl.SHARED_EIGENVALUE, "generic": GENERIC_THREE_FIELD}
    for name, (system, key, command, section, verify) in EXTRA.items():
        text = "\n".join(
            ["[run]", f"system = {system}", f"command = {command}", "seed = 0", "", "[params]"]
            + [f"{k} = {v!r}" for k, v in params[key].items()]
        )
        lines += _run(wl, f"extra/{name}", text + "\n\n" + section, verify)
    return sorted(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of a cnslab checkout (holds src/ and perfbench/)")
    args = parser.parse_args(argv)
    print("\n".join(digests(load_workloads(args.checkout.resolve()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
