"""The traced benchmark run still finds what it wraps and reads.

``perfbench/spans.py`` wraps functions by (module, attribute) through
``getattr`` and its observers read attributes of the returned objects, so a
refactor under ``src/`` can break ``perfbench/run.py --trace 1`` without any
other test failing.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from cnslab import cli
from cnslab.model import NonBarotropicParams
from cnslab.spectrum import build_slice

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)

# the shared-eigenvalue set of tests/conftest.py: modes +1 and -1 share -1
SHARED_EIGENVALUE = NonBarotropicParams(rho_bar=1.0, u_bar=1.0, theta_bar=1.0, lambda0=1.0, kappa0=2.0, R=1.0, c0=1.0)


@pytest.mark.parametrize("module,attribute", sorted({p[:2] for p in spans.PATCHES}))
def test_every_patched_name_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_slice_observer_counts_modes_and_coincidences():
    N = 12
    slice_ = build_slice(SHARED_EIGENVALUE, N)
    recorder = spans.SpanRecorder()
    spans._build_slice(recorder, slice_, (SHARED_EIGENVALUE, N))
    assert recorder.counts[0]["spectrum.modes"] == 2 * N
    assert recorder.counts[0]["spectrum.coincidences"] == len(slice_.coincidences) > 0


def test_instrumented_run_records_the_slice(tmp_path):
    params = "".join(
        f"{f.name} = {getattr(SHARED_EIGENVALUE, f.name)!r}\n" for f in dataclasses.fields(SHARED_EIGENVALUE) if f.init
    )
    config = tmp_path / "spectrum.ini"
    config.write_text(f"[run]\nsystem = nonbarotropic\ncommand = spectrum\n\n[params]\n{params}\n[spectrum]\nN = 6\n")
    recorder = spans.SpanRecorder()
    with recorder.instrumented():
        assert cli.run(config, out_dir=tmp_path / "out") == 0
    assert [span[0] for span in recorder.spans] == ["spectrum.build_slice"]
    assert recorder.counts[0]["spectrum.modes"] == 12
