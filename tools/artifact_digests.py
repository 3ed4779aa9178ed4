"""SHA-256 of every artifact the benchmark workloads write, for one checkout.

    python3 tools/artifact_digests.py CHECKOUT > digests.txt

Runs each config of the four workloads of ``CHECKOUT/perfbench/workloads.py``
over its pool seeds, each in a fresh temporary directory, with the
``cnslab`` of ``CHECKOUT/src``, and prints one line per artifact:

    workload/seed/run/file sha256

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


def load_workloads(checkout: Path):
    """``CHECKOUT/perfbench/workloads.py`` as a module; it imports ``cnslab`` from ``CHECKOUT/src``."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads", checkout / "perfbench" / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digests(wl) -> list[str]:
    lines = []
    for name, workload in wl.WORKLOADS.items():
        for seed in wl.POOL_SEEDS:
            for run, text in enumerate(workload.configs(seed)):
                with tempfile.TemporaryDirectory() as tmp:
                    config, out = Path(tmp) / "run.ini", Path(tmp) / "out"
                    config.write_text(text)
                    code = wl.cli.run(config, out)
                    if code != 0:
                        raise SystemExit(f"{name} seed {seed} run {run}: exit code {code}")
                    for path in sorted(out.iterdir()):
                        lines.append(f"{name}/{seed}/{run}/{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}")
    return sorted(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of a cnslab checkout (holds src/ and perfbench/)")
    args = parser.parse_args(argv)
    print("\n".join(digests(load_workloads(args.checkout.resolve()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
