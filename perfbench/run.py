"""Benchmark of ``cnslab run`` on pinned configs, with checked outputs.

    python3 perfbench/run.py --workload observe-sweep --seed 1 --seconds 20 --trace 0

Each repeat calls ``cnslab.cli.run`` in-process on the workload's configs
(see ``workloads.py``) and checks every artifact against ``references.json``.
One process runs one workload, so its peak RSS is that workload's.  The
load is a closed loop of one caller: the next repeat starts when the last
one has returned.

``--trace 0`` reports the end-to-end metrics: median and tail time of a
repeat and interpreter set-up time, all adjusted for machine contention
(see ``Calibration``), and peak RSS.  ``--trace 1`` alternates
untraced and traced repeats and reports per-layer self times, work counters
and health values from ``spans.py``.  The last line of standard output is
the result object; the line before it is the machine record, the sample
count, the failure ratio and the raw times.  Both are also written under
``.perfbench_runs/`` together with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from spans import ROOT_SPAN, SpanRecorder, unit  # noqa: E402

RUNS_DIR = wl.ROOT / ".perfbench_runs"
SETUP_IMPORTS = 7
# the tail percentile needs at least ten samples beyond it
MIN_SAMPLES = 11
MIN_TRACED = 3


class Runner:
    """Runs and checks the repeats of one workload in a private work directory."""

    def __init__(self, workload: wl.Workload, references: dict, work: Path):
        self.workload = workload
        self.references = references
        self.work = work
        self.configs = {}
        for config_seed in wl.POOL_SEEDS:
            paths = []
            for i, text in enumerate(workload.configs(config_seed)):
                path = work / "configs" / f"seed{config_seed}-run{i}.ini"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
                paths.append(path)
            self.configs[config_seed] = paths

    def repeat(self, config_seed: int, run=None, on_artifacts=None) -> tuple[float, list[str]]:
        """Wall time of the repeat's ``cli.run`` calls and the problems found."""
        run = run or wl.cli.run
        ref = self.references[self.workload.reference_key(config_seed)]
        wall = 0.0
        problems: list[str] = []
        for i, (command, _knobs) in enumerate(self.workload.runs):
            out = self.work / f"out{i}"
            shutil.rmtree(out, ignore_errors=True)
            start = time.perf_counter()
            try:
                code = run(self.configs[config_seed][i], out)
            except Exception as exc:  # a failed repeat is counted, not fatal
                wall += time.perf_counter() - start
                problems.append(f"{command}: raised {type(exc).__name__}: {exc}")
                continue
            wall += time.perf_counter() - start
            if code != 0:
                problems.append(f"{command}: exit code {code}")
                continue
            if on_artifacts is not None:
                on_artifacts(sum(p.stat().st_size for p in out.iterdir()))
            problems += wl.check_run(command, out, ref[i])
        return wall, problems


def measure_setup(n: int, calibration: "Calibration") -> tuple[float, float]:
    """Median adjusted and raw time for a fresh interpreter to import ``cnslab.cli``."""
    env = dict(os.environ, PYTHONPATH=str(wl.SRC))
    raw, adjusted = [], []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cnslab.cli"], env=env, cwd=wl.ROOT, check=True, timeout=120)
        raw.append(time.perf_counter() - start)
        adjusted.append(calibration.adjust(raw[-1]))
    return statistics.median(adjusted), statistics.median(raw)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, when it can be asked."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def _failed(problems: list[str], log: list[str]) -> int:
    if problems:
        log.extend(problems[:5])
        return 1
    return 0


class Calibration:
    """Scales wall times to a quiet machine with fixed work that does not involve cnslab.

    On a shared host everything can run up to 50% slower for tens of seconds
    while other tenants are busy, which moves a per-run median of raw wall
    times far more than any useful bound.  A block of fixed pure-Python and
    numpy rounds runs before and after every timed call; the mean round time
    of the two blocks measures how slow the machine was around the call.
    The adjusted time ``wall * REFERENCE_S / that mean`` is the call's time on
    a machine where one round takes ``REFERENCE_S``: the fastest round
    measured on a quiet 2-vCPU Xeon host with Python 3.11 and numpy 2.4.
    """

    SAMPLES = 10
    REFERENCE_S = 2.3e-3

    def __init__(self):
        self.matrix = np.random.default_rng(0).normal(size=(40, 40))
        self.last = self.block()

    def block(self) -> float:
        """Mean time of one round over a block of rounds."""
        start = time.perf_counter()
        for _ in range(self.SAMPLES):
            acc = 0.0
            for i in range(20000):
                acc += i * 0.5
            for _ in range(5):
                np.linalg.eigvals(self.matrix)
        return (time.perf_counter() - start) / self.SAMPLES

    def adjust(self, wall: float) -> float:
        """Adjusted time of a call that took ``wall`` since the previous block."""
        after = self.block()
        slowness = 0.5 * (self.last + after)
        self.last = after
        return wall * self.REFERENCE_S / slowness


def end_to_end(runner: Runner, order: list[int], seconds: float) -> tuple[dict, dict, int, int, list[str]]:
    log: list[str] = []
    _, problems = runner.repeat(order[0])  # warm-up: lazy imports and caches
    attempted, failed = 1, _failed(problems, log)
    calibration = Calibration()
    setup, raw_setup = measure_setup(SETUP_IMPORTS, calibration)
    samples, adjusted = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(samples) < MIN_SAMPLES:
        wall, problems = runner.repeat(order[attempted % len(order)])
        samples.append(wall)
        adjusted.append(calibration.adjust(wall))
        attempted += 1
        failed += _failed(problems, log)
    tail_value, percentile = tail(adjusted)
    metrics = {
        "wall_s": (statistics.median(adjusted), "s"),
        "wall_s_tail": (tail_value, "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "samples": len(samples),
        "wall_s_tail_percentile": percentile,
        "raw_wall_s": statistics.median(samples),
        "raw_wall_s_tail": tail(samples)[0],
        "raw_setup_s": raw_setup,
        "samples_s": samples,
        "adjusted_samples_s": adjusted,
    }
    return metrics, info, attempted, failed, log


def traced(runner: Runner, order: list[int], seconds: float, spans_path: Path):
    log: list[str] = []
    recorder = SpanRecorder()
    traced_run = recorder.wrap(ROOT_SPAN, wl.cli.run)
    _, problems = runner.repeat(order[0])
    attempted, failed = 1, _failed(problems, log)
    plain, traced_walls, traced_ids = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced_ids) < MIN_TRACED:
        # each config seed runs once untraced, then once traced
        config_seed = order[(attempted - 1) // 2 % len(order)]
        if attempted % 2:
            wall, problems = runner.repeat(config_seed)
            plain.append(wall)
        else:
            recorder.repeat = attempted
            with recorder.instrumented():
                wall, problems = runner.repeat(
                    config_seed, run=traced_run,
                    on_artifacts=lambda size: recorder.count("cli.artifact_bytes", size),
                )
            traced_walls.append(wall)
            traced_ids.append(attempted)
        attempted += 1
        failed += _failed(problems, log)
    recorder.write(spans_path)

    layers = recorder.layer_metrics(traced_ids)
    traced_wall = statistics.fmean(traced_walls)
    overhead = traced_wall - statistics.fmean(plain)
    self_sum = sum(v for k, v in layers.items() if k.endswith(".s"))
    if abs(self_sum - traced_wall) > max(abs(overhead), 1e-3 * traced_wall):
        failed += 1
        log.append(f"trace: layer self times sum to {self_sum:.6f} s, traced wall is {traced_wall:.6f} s")
    metrics = {name: (value, unit(name)) for name, value in layers.items()}
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.self_sum_s"] = (self_sum, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    info = {"traced_repeats": len(traced_ids), "untraced_repeats": len(plain), "spans": str(spans_path)}
    return metrics, info, attempted, failed, log


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    references = wl.load_references()[workload.name]
    order = wl.seed_order(args.seed)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = RUNS_DIR / f"work-{os.getpid()}"
    try:
        runner = Runner(workload, references, work)
        if args.trace:
            metrics, info, attempted, failed, log = traced(runner, order, args.seconds, RUNS_DIR / f"spans-{tag}.json")
        else:
            metrics, info, attempted, failed, log = end_to_end(runner, order, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in log:
        print(f"check failed: {line}")
    record = {
        "workload": workload.name,
        "machine": machine_record(args.seed),
        "fail_ratio": failed / attempted,
        **info,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RUNS_DIR.mkdir(exist_ok=True)
    (RUNS_DIR / f"result-{tag}.json").write_text(json.dumps({**record, **result}, indent=2) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k not in ("samples_s", "adjusted_samples_s")}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
