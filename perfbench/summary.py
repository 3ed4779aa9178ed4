"""Run every workload once and print each metric by name with its unit.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own ``run.py`` process, so peak RSS stays per
workload.  The failure ratio (failed over attempted repeats) is printed for
each workload next to its metrics.  Exits non-zero if any repeat failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import ROOT, WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"{name}: no result (exit code {proc.returncode})\n{proc.stderr}")
            ok = False
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok &= result["failed"] == 0
        line = f"{name}: fail_ratio {record['fail_ratio']:g} ({result['failed']}/{result['attempted']} repeats)"
        if "samples" in record:
            line += f", {record['samples']} timed samples, wall_s_tail is p{record['wall_s_tail_percentile']:.0f}"
        print(line)
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
