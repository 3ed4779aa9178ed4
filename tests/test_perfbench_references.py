"""Every benchmark workload, once per pool seed, against its stored references.

The benchmark (``perfbench/run.py``) checks each repeat with
``workloads.check_run`` against ``perfbench/references.json``.  This runs
the same configs through ``cli.run`` and applies the same checks, so a change
that moves an output past a reference tolerance fails in the test suite and
not only in a benchmark run.  Nothing under ``perfbench/`` is written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
wl = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = wl  # its dataclasses look their module up there
_SPEC.loader.exec_module(wl)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_workload_matches_its_references(tmp_path, name):
    workload = wl.WORKLOADS[name]
    references = wl.load_references()[name]
    problems = []
    for seed in wl.POOL_SEEDS:
        ref = references[workload.reference_key(seed)]
        for i, ((command, _knobs), text) in enumerate(zip(workload.runs, workload.configs(seed))):
            config = tmp_path / f"seed{seed}-run{i}.ini"
            config.write_text(text)
            out = tmp_path / f"seed{seed}-out{i}"
            assert wl.cli.run(config, out) == 0, (seed, command)
            problems += [f"seed {seed}: {p}" for p in wl.check_run(command, out, ref[i])]
    assert problems == []
