"""Record the reference outputs every benchmark repeat is checked against.

    python3 perfbench/record.py

Runs each workload's configs once per config seed of the pool (once for
workloads whose outputs do not depend on the seed) and writes the extracted
values to ``perfbench/references.json``.  While it runs, every observation
energy is also computed by the closed-form bilinear oracle
``kernels.signal_energy_exact``, and the largest relative gap between the
two paths is printed per workload: the check tolerances must sit above it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from cnslab import counterexamples, observability  # noqa: E402
from cnslab.kernels import signal_energy_exact  # noqa: E402


class OracleGap:
    """Wraps ``observation_energy`` to compare it with the closed form."""

    def __init__(self):
        self.max_rel_gap = 0.0
        self.max_reported_err = 0.0

    def wrap(self, fn):
        def energy(signal, *args, **kwargs):
            value, err = fn(signal, *args, **kwargs)
            exact = signal_energy_exact(signal.terms, signal.horizon)
            self.max_rel_gap = max(self.max_rel_gap, abs(value - exact) / abs(exact))
            self.max_reported_err = max(self.max_reported_err, err / abs(exact))
            return value, err

        return energy


def main() -> int:
    work = wl.ROOT / ".perfbench_runs" / "record"
    references = {}
    originals = (observability.observation_energy, counterexamples.observation_energy)
    try:
        for workload in wl.WORKLOADS.values():
            gap = OracleGap()
            observability.observation_energy = gap.wrap(originals[0])
            counterexamples.observation_energy = gap.wrap(originals[1])
            entry = {}
            for config_seed in wl.POOL_SEEDS if workload.seeded else wl.POOL_SEEDS[:1]:
                outputs = []
                for i, text in enumerate(workload.configs(config_seed)):
                    config = work / f"{workload.name}-{config_seed}-{i}.ini"
                    config.parent.mkdir(parents=True, exist_ok=True)
                    config.write_text(text)
                    out = work / "out"
                    shutil.rmtree(out, ignore_errors=True)
                    if wl.cli.run(config, out) != 0:
                        raise RuntimeError(f"{workload.name}: run {i} failed")
                    outputs.append(wl.extract(workload.runs[i][0], out))
                entry[workload.reference_key(config_seed)] = outputs
            references[workload.name] = entry
            if gap.max_reported_err or gap.max_rel_gap:
                print(f"{workload.name}: quadrature vs closed form max relative gap {gap.max_rel_gap:.2e}, "
                      f"largest reported energy_err {gap.max_reported_err:.2e} of the energy")
            else:
                print(f"{workload.name}: no observation energies")
    finally:
        observability.observation_energy, counterexamples.observation_energy = originals
        shutil.rmtree(work, ignore_errors=True)
    wl.REFERENCES.write_text(json.dumps(references, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
