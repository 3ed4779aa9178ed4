"""Show that the output checks catch a defect.

    python3 perfbench/selftest.py

For each workload, one stored reference value is moved by 0.1% relative
(far beyond every tolerance) and two repeats are run against the perturbed references:
both must fail, so ``fail_ratio`` is 1.  One repeat against the untouched
references must pass, so the checker does not fail everything.  Nothing
outside the benchmark's own work directory is written.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from run import RUNS_DIR, Runner  # noqa: E402


def perturb_first_float(tree) -> str:
    """Move the first float leaf (depth first) by 0.1% relative; return its path."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        if isinstance(value, float):
            tree[key] = value * 1.001 if value else 1e-3
            return f"[{key!r}]"
        if isinstance(value, (dict, list)):
            found = perturb_first_float(value)
            if found:
                return f"[{key!r}]{found}"
    return ""


def main() -> int:
    references = wl.load_references()
    work = RUNS_DIR / f"selftest-{os.getpid()}"
    ok = True
    try:
        for name, workload in wl.WORKLOADS.items():
            config_seed = wl.POOL_SEEDS[0]
            key = workload.reference_key(config_seed)
            broken = copy.deepcopy(references[name])
            where = perturb_first_float(broken[key][0])
            runner = Runner(workload, broken, work)
            attempts = [runner.repeat(config_seed)[1] for _ in range(2)]
            fail_ratio = sum(1 for problems in attempts if problems) / len(attempts)
            clean = Runner(workload, references[name], work).repeat(config_seed)[1]
            passed = fail_ratio == 1.0 and not clean
            ok &= passed
            detail = attempts[0][0] if attempts[0] else "no problem reported"
            print(f"[{'PASS' if passed else 'FAIL'}] {name}: perturbed {key}{where}, "
                  f"fail_ratio={fail_ratio:g}, unperturbed problems={len(clean)}; {detail}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
