"""In-memory span recorder for the traced benchmark run.

Public cnslab functions are wrapped at the names their callers look them up
under (``cnslab.observability.observation_energy`` is what
``observability_quotient`` calls, ``mpmath.lu_solve`` is what
``synthesize_control`` calls), so no file under ``src/`` changes.  Each call
records one span: name, repeat, parent span, start and end.  A span's self
time is its duration minus the time covered by its children; the self times
of all spans of one root ``cli.run`` call therefore sum to that call's wall
time.  Counters and health values are read from the returned objects at the
same boundaries.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _build_slice(rec, result, args):
    rec.count("spectrum.modes", len(result.modes))
    rec.count("spectrum.coincidences", len(result.coincidences))


def _expansion(rec, result, args):
    if result.condition_numbers:
        rec.peak("fields.expansion_cond_max", max(result.condition_numbers.values()))


def _signal(rec, result, args):
    rec.count("evolution.signal_terms", len(result.terms))


def _energy(rec, result, args):
    value, err = result
    rec.count("observability.observation_energy.calls")
    if value > 0.0:
        rec.peak("observability.energy_rel_err_max", err / value)


def _moment_system(rec, result, args):
    rec.count("control.moment_rows", len(result.rows))


def _solution(rec, result, args):
    rec.count("control.solve_dps", result.solve_dps)
    rec.count("control.discarded_svals", result.discarded_singular_values)


def _verify(rec, result, args):
    rec.count("control.verify_rows", len(result.per_row_residuals))


def _export_control(rec, result, args):
    rec.count("control.eval_points", len(args[1]))


def _calls(name):
    def observe(rec, result, args):
        rec.count(name)
    return observe


#: (module, attribute, span name, observer of the returned object)
PATCHES = (
    ("cnslab.cli", "build_slice", "spectrum.build_slice", _build_slice),
    ("cnslab.counterexamples", "build_slice", "spectrum.build_slice", _build_slice),
    ("cnslab.cli", "ingham_audit", "observability.ingham_audit", None),
    ("cnslab.cli", "observability_quotient", "observability.observability_quotient", None),
    ("cnslab.observability", "expand_in_eigenbasis", "fields.expand_in_eigenbasis", _expansion),
    ("cnslab.counterexamples", "expand_in_eigenbasis", "fields.expand_in_eigenbasis", _expansion),
    ("cnslab.observability", "observation_signal", "evolution.observation_signal", _signal),
    ("cnslab.counterexamples", "observation_signal", "evolution.observation_signal", _signal),
    ("cnslab.observability", "observation_energy", "observability.observation_energy", _energy),
    ("cnslab.counterexamples", "observation_energy", "observability.observation_energy", _energy),
    ("cnslab.observability", "adjoint_state", "evolution.adjoint_state", None),
    ("cnslab.counterexamples", "adjoint_state", "evolution.adjoint_state", None),
    ("cnslab.cli", "build_moment_system", "control.build_moment_system", _moment_system),
    ("cnslab.cli", "synthesize_control", "control.synthesize_control", _solution),
    ("mpmath", "lu_solve", "control.lu_solve", _calls("control.dps_levels_tried")),
    ("cnslab.control", "poly_exp_integral_mp", "kernels.poly_exp_integral_mp",
     _calls("kernels.poly_exp_integral_mp.calls")),
    ("cnslab.cli", "verify_terminal", "control.verify_terminal", _verify),
    ("cnslab.cli", "export_control_csv", "control.export_control_csv", _export_control),
    ("cnslab.cli", "small_time_witness", "counterexamples.small_time_witness", None),
)

ROOT_SPAN = "cli.run"
SPAN_NAMES = (ROOT_SPAN,) + tuple(dict.fromkeys(p[2] for p in PATCHES))
COUNT_NAMES = (
    "spectrum.modes",
    "spectrum.coincidences",
    "evolution.signal_terms",
    "observability.observation_energy.calls",
    "control.moment_rows",
    "control.dps_levels_tried",
    "control.solve_dps",
    "control.discarded_svals",
    "control.verify_rows",
    "control.eval_points",
    "kernels.poly_exp_integral_mp.calls",
    "cli.artifact_bytes",
)
PEAK_NAMES = ("observability.energy_rel_err_max", "fields.expansion_cond_max")


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name.endswith((".s", "_s")):
        return "s"
    if name == "cli.artifact_bytes":
        return "bytes"
    if name == "control.solve_dps":
        return "digits"
    if name in PEAK_NAMES:
        return "ratio"
    return "count"


class SpanRecorder:
    """Spans, per-repeat counters and running maxima, all kept in memory."""

    def __init__(self):
        # [name, repeat, parent index or None, start, end, time covered by children]
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.peaks: dict[str, float] = {}
        self.repeat = 0
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.repeat][name] += amount

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def wrap(self, name: str, fn, observer=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [name, self.repeat, parent, perf_counter(), 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent][5] += span[4] - span[3]
            if observer is not None:
                observer(self, result, args)
            return result

        return traced

    @contextmanager
    def instrumented(self):
        """Install every wrapper of PATCHES; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, observer in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, observer))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per repeat, the self time of every span name."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, repeat, _parent, start, end, children in self.spans:
            out[repeat][name] += (end - start) - children
        return out

    def layer_metrics(self, repeats: list[int]) -> dict[str, float]:
        """Means over ``repeats`` of self times and counters, plus maxima.

        Means, not medians, so that the layer self times add up to the mean
        traced wall time exactly.
        """
        selfs = self.self_times()
        k = len(repeats)
        out = {f"{name}.s": sum(selfs[r][name] for r in repeats) / k for name in SPAN_NAMES}
        out.update({name: sum(self.counts[r][name] for r in repeats) / k for name in COUNT_NAMES})
        out.update({name: self.peaks.get(name, 0.0) for name in PEAK_NAMES})
        return out

    def write(self, path: Path) -> None:
        origin = self.spans[0][3] if self.spans else 0.0
        rows = [
            {"name": n, "repeat": r, "parent": p, "start_s": s - origin, "end_s": e - origin,
             "self_s": (e - s) - c}
            for n, r, p, s, e, c in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": rows}) + "\n")

