"""Batch driver: INI configs in, CSV/JSON artifacts plus a manifest out.

A run is one experiment described by a sectioned key=value file::

    [run]
    system = barotropic
    command = spectrum
    seed = 7

    [params]
    rho_bar = 1.0
    u_bar = 0.9
    mu0 = 1.0
    b = 1.3

    [spectrum]
    N = 4

Every output file is listed in ``manifest.json`` with a content hash; floats
are written with 17 significant digits, so identical config plus seed yields
byte-identical artifacts.  Exit codes: 0 success, 1 config error, 2 domain
error, 3 numerical-tolerance failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ArithmeticFailure,
    CnsLabError,
    ConfigError,
    DomainError,
    QuadratureNotConverged,
    RankDeficient,
)
from .evolution import ObservationChannel
from .fields import SpectralField
from .model import BarotropicParams, NonBarotropicParams
from .observability import (
    ingham_audit,
    observability_quotient,  # noqa: F401  (perfbench/spans.py traces this name)
    observability_quotients,
)
from .spectrum import build_slice, export_spectrum_csv, riesz_closeness
from .control import build_moment_system, export_control_csv, synthesize_control, verify_terminal
from .counterexamples import (
    BumpSpec,
    degenerate_uc_witness,
    regularity_gap_witness,
    small_time_witness,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _int_list(raw: str) -> list[int]:
    """Comma-separated integers; a bad entry raises ValueError, reported as a config error."""
    return [int(v) for v in raw.split(",")]


def _finite(raw: str, zero: bool = False) -> float:
    """A finite float > 0, such as a horizon T, or >= 0 with ``zero``."""
    value = float(raw)
    if not (np.isfinite(value) and (value >= 0.0 if zero else value > 0.0)):
        raise ValueError(f"must be finite and {'>=' if zero else '>'} 0")
    return value


def _count(raw: str, minimum: int = 1) -> int:
    """An integer of at least ``minimum``."""
    value = int(raw)
    if value < minimum:
        raise ValueError(f"must be >= {minimum}")
    return value


def _channel(raw: str) -> ObservationChannel:
    try:
        return ObservationChannel(raw)
    except ValueError:
        choices = ", ".join(c.value for c in ObservationChannel)
        raise ValueError(f"unknown channel {raw!r}, expected one of {choices}") from None


def _yes_no(raw: str) -> bool:
    if raw not in ("yes", "no"):
        raise ValueError("expected 'yes' or 'no'")
    return raw == "yes"


def _twice_N(knobs: dict) -> str:
    """Default verification window: twice the synthesis truncation."""
    return str(2 * knobs["N"])


#: Keys of the [run] section as ``key: (parser, default)``; a None default marks a required key.
RUN_KEYS = {
    "system": (str, None),
    "command": (str, None),
    "seed": (functools.partial(_count, minimum=0), "0"),
    "out": (str, "out"),
}
#: Per command, the section it reads and its keys as ``key: (parser, default)``.  A None default
#: marks a required key; a callable default is computed from the keys before it.  Defaults are
#: parsed like config values, and any other key in the section is a config error.
COMMANDS = {
    "spectrum": ("spectrum", {"N": (int, None)}),
    "closeness": ("closeness", {"N_start": (int, None), "N_end": (int, None)}),
    "observe": ("observe", {"N": (int, None), "T": (_finite, None), "channel": (_channel, "density"),
                            "trials": (_count, "1")}),
    "ingham": ("ingham", {"N": (int, None), "T": (_finite, None)}),
    "synthesize": ("synthesize", {"N": (int, None), "T": (_finite, None), "channel": (_channel, "density"),
                                  "N_verify": (int, _twice_N),
                                  # the grid holds both ends of [0, T]
                                  "grid": (functools.partial(_count, minimum=2), "201")}),
    "witness-smalltime": ("witness", {"T": (_finite, None), "N_list": (_int_list, None), "x_left": (float, None),
                                      "x_right": (float, None)}),
    "witness-degenerate": ("witness", {"N": (int, "4"), "channel": (_channel, "density")}),
    "witness-regularity": ("witness", {"channel": (_channel, "velocity"), "s": (float, None),
                                       "n_list": (_int_list, None), "T": (_finite, "2.0")}),
    "validate-fdm": ("fdm", {"N": (int, "16"), "M": (int, "1024"), "dt": (float, "1e-4"), "T": (_finite, "0.4"),
                             "decay": (functools.partial(_finite, zero=True), "0.3"),
                             "export_trajectory": (_yes_no, "no")}),
}
_SYSTEMS = {"barotropic": BarotropicParams, "nonbarotropic": NonBarotropicParams}


def _knobs(parser: configparser.ConfigParser, section: str, table: dict) -> dict:
    """Every key of ``table`` parsed from ``section``, an absent one from its default.

    A key of ``section`` outside ``table`` is a config error: a typo must not
    fall back to a default.
    """
    if parser.has_section(section):
        unknown = [k for k in parser[section] if k not in table and k not in parser.defaults()]
        if unknown:
            raise ConfigError(
                f"unknown key {unknown[0]!r} in [{section}], expected one of {', '.join(table)}", key=unknown[0]
            )
    values: dict = {}
    for key, (parse, default) in table.items():
        if parser.has_option(section, key):
            raw = parser.get(section, key)
        elif default is None:
            raise ConfigError(f"missing required entry [{section}] {key}", key=key)
        else:
            raw = default(values) if callable(default) else default
        try:
            values[key] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"cannot parse [{section}] {key} = {raw!r}: {exc}", key=key) from exc
    return values


def _load_params(parser: configparser.ConfigParser, system: str):
    cls = _SYSTEMS.get(system)
    if cls is None:
        raise ConfigError(f"unknown system {system!r}", key="system")
    return cls(**_knobs(parser, "params", {f.name: (float, None) for f in dataclasses.fields(cls) if f.init}))


def _random_field(dim: int, N: int, rng: np.random.Generator, real: bool = True) -> SpectralField:
    """Standard normal real and imaginary parts on modes ``0 < |n| <= N``, none on ``n = 0``.

    One draw holds, per mode ``n = 1..N`` in order, the real and imaginary
    parts of mode ``n`` and, unless ``real`` mirrors mode ``-n`` as its
    conjugate, those of mode ``-n``.
    """
    draws = rng.standard_normal((N, 2 if real else 4, dim))
    c = np.zeros((2 * N + 1, dim), dtype=complex)
    c[N + 1:] = draws[:, 0] + 1j * draws[:, 1]
    c[N - 1::-1] = c[N + 1:].conj() if real else draws[:, 2] + 1j * draws[:, 3]
    return SpectralField(dim=dim, N=N, coeffs=c)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n")


def run(config_path: str | Path, out_dir: str | Path | None = None, verify: bool = False) -> int:
    """Execute the experiment described by the config; return the exit code."""
    config_path = Path(config_path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # parameter names are case sensitive (R vs r)
    try:
        read = parser.read(config_path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {config_path} is not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"config file not found: {config_path}")

    settings = _knobs(parser, "run", RUN_KEYS)
    system, command, seed = settings["system"], settings["command"], settings["seed"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}", key="command")
    out = Path(out_dir) if out_dir is not None else Path(settings["out"])
    params = _load_params(parser, system)
    knobs = _knobs(parser, *COMMANDS[command])
    T = knobs.get("T")
    if knobs.get("N", 1) < 1:
        raise DomainError(f"N must be >= 1, got {knobs['N']}")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from exc

    rng = np.random.default_rng(seed)
    outputs: list[Path] = []

    if command == "spectrum":
        slice_ = build_slice(params, knobs["N"])
        path = out / "spectrum.csv"
        export_spectrum_csv(slice_, path)
        outputs.append(path)

    elif command == "closeness":
        n_start, n_end = knobs["N_start"], knobs["N_end"]
        if n_end < n_start:
            raise DomainError(f"the closeness window is empty: N_end = {n_end} < N_start = {n_start}")
        sums = riesz_closeness(params, n_start, n_end)
        path = out / "closeness.csv"
        with open(path, "w", newline="") as fh:
            fh.write("N,partial_sum\n")
            for k, s in enumerate(sums):
                fh.write(f"{n_start + k},{_fmt(s)}\n")
        outputs.append(path)

    elif command == "observe":
        N = knobs["N"]
        slice_ = build_slice(params, N)

        # one child seed per trial, spawned in order as the trials are drawn: the
        # stacked passes hold the seeds and fields of one block at a time
        root = np.random.SeedSequence(seed)
        fields = (
            _random_field(params.dim, N, np.random.default_rng(root.spawn(1)[0]), real=False)
            for _ in range(knobs["trials"])
        )
        reports = [r.to_dict() for r in observability_quotients(fields, knobs["channel"], T, None, slice_)]
        payload = {
            "reports": reports,
            "min_quotient": min(r["quotient"] for r in reports),
            "seed": seed,
        }
        path = out / "observe.json"
        _write_json(path, payload)
        outputs.append(path)

    elif command == "ingham":
        N = knobs["N"]
        slice_ = build_slice(params, N)
        audit = ingham_audit(slice_)
        path = out / "ingham.json"
        _write_json(
            path,
            {"T": T, "N": N, "hypotheses": audit.to_dict(), "all_pass": audit.all_pass, "seed": seed},
        )
        outputs.append(path)

    elif command == "synthesize":
        N, n_verify = knobs["N"], knobs["N_verify"]
        if n_verify < N:
            raise DomainError("verification window must cover the synthesis truncation")
        slice_ = build_slice(params, n_verify)
        field = _random_field(params.dim, N, rng)
        system_ = build_moment_system(field, knobs["channel"], T, slice_, N)
        solution = synthesize_control(system_)
        record = verify_terminal(solution, n_verify)
        cpath = out / "control.csv"
        export_control_csv(solution, np.linspace(0.0, T, knobs["grid"]), cpath)
        vpath = out / "verification.json"
        _write_json(vpath, {**record.to_dict(), "moment_residual": solution.residual, "seed": seed,
                            "below_critical_time": system_.below_critical_time})
        outputs.extend([cpath, vpath])

    elif command == "witness-smalltime":
        bump = BumpSpec(x_left=knobs["x_left"], x_right=knobs["x_right"], seed=seed)
        report = small_time_witness(params, T, knobs["N_list"], bump)
        path = out / "witness_smalltime.json"
        _write_json(path, {**report.to_dict(), "params": dict(parser.items("params"))})
        outputs.append(path)

    elif command == "witness-degenerate":
        slice_ = build_slice(params, knobs["N"])
        record = degenerate_uc_witness(knobs["channel"], slice_)
        path = out / "witness_degenerate.json"
        _write_json(path, {**record.to_dict(), "params": dict(parser.items("params")), "seed": seed})
        outputs.append(path)

    elif command == "witness-regularity":
        record = regularity_gap_witness(params, knobs["channel"], knobs["s"], knobs["n_list"], T)
        path = out / "witness_regularity.json"
        _write_json(path, {**record.to_dict(), "params": dict(parser.items("params")), "seed": seed})
        outputs.append(path)

    elif command == "validate-fdm":
        # the FDM oracle needs scipy, which no other command loads
        from .oracle import compare_spectral_fdm, export_trajectory_csv

        N = knobs["N"]
        c = _random_field(params.dim, N, rng).coeffs
        c[N + 1:] *= np.exp(-knobs["decay"] * np.arange(1, N + 1))[:, None]
        c[N - 1::-1] = c[N + 1:].conj()
        if not c.any():
            raise DomainError(f"decay = {knobs['decay']} underflows every mode of the initial field to zero")
        field = SpectralField(dim=params.dim, N=N, coeffs=c)
        record = compare_spectral_fdm(params, field, T, knobs["M"], knobs["dt"])
        path = out / "fdm_validation.json"
        _write_json(
            path,
            {
                "checkpoints": {_fmt(k): v for k, v in record.checkpoints.items()},
                "mean_drift": record.mean_drift,
                "energy_monotone": record.energy_monotone,
                "seed": seed,
            },
        )
        outputs.append(path)
        if knobs["export_trajectory"]:
            tpath = out / "trajectory.csv"
            export_trajectory_csv(record.trajectory, tpath)
            outputs.append(tpath)

    if verify:
        vpath = out / "invariants.json"
        _write_json(vpath, _invariant_sweep(params))
        outputs.append(vpath)

    manifest = {
        "version": __version__,
        "config_sha256": hashlib.sha256(config_path.read_bytes()).hexdigest(),
        "command": command,
        "system": system,
        "seed": seed,
        "outputs": {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs
        },
    }
    _write_json(out / "manifest.json", manifest)
    return 0


def _invariant_sweep(params) -> dict:
    """Small post-run invariant check: residuals and sign conditions."""
    table = build_slice(params, 16).basis
    return {
        "max_eigen_residual": float(table.residuals.max()),
        "all_re_negative": bool((table.values.real < 0).all()),
        "modes_checked": 16,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cnslab", description="spectral controllability experiments")
    sub = parser.add_subparsers(dest="verb", required=True)
    runp = sub.add_parser("run", help="execute one experiment config")
    runp.add_argument("config")
    runp.add_argument("--out", default=None, help="output directory (overrides config)")
    runp.add_argument("--verify", action="store_true", help="re-run invariant checks after the experiment")
    args = parser.parse_args(argv)

    try:
        return run(args.config, out_dir=args.out, verify=args.verify)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticFailure, QuadratureNotConverged, RankDeficient) as exc:
        print(f"numerical tolerance failure: {exc}", file=sys.stderr)
        return 3
    except CnsLabError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
