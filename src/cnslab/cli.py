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
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    CnsLabError,
    ConfigError,
    QuadratureNotConverged,
    RankDeficient,
)
from .evolution import ObservationChannel
from .fields import SpectralField
from .model import BarotropicParams, NonBarotropicParams
from .observability import ingham_audit, observability_quotient
from .spectrum import build_slice, export_spectrum_csv, riesz_closeness
from .control import build_moment_system, export_control_csv, synthesize_control, verify_terminal
from .counterexamples import (
    BumpSpec,
    degenerate_uc_witness,
    regularity_gap_witness,
    small_time_witness,
)
from .oracle import compare_spectral_fdm

COMMANDS = (
    "spectrum",
    "closeness",
    "observe",
    "ingham",
    "synthesize",
    "witness-smalltime",
    "witness-degenerate",
    "witness-regularity",
    "validate-fdm",
)

#: Keys of the [run] section.
_RUN_KEYS = ("system", "command", "seed", "out")
#: The section each command reads and its keys; any other key there is a config error.
_COMMAND_KEYS = {
    "spectrum": ("spectrum", ("N",)),
    "closeness": ("closeness", ("N_start", "N_end")),
    "observe": ("observe", ("N", "T", "channel", "trials")),
    "ingham": ("ingham", ("N", "T")),
    "synthesize": ("synthesize", ("N", "T", "channel", "N_verify", "grid")),
    "witness-smalltime": ("witness", ("T", "N_list", "x_left", "x_right")),
    "witness-degenerate": ("witness", ("N", "channel")),
    "witness-regularity": ("witness", ("channel", "s", "n_list", "T")),
    "validate-fdm": ("fdm", ("N", "M", "dt", "T", "decay", "export_trajectory")),
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _int_list(raw: str) -> list[int]:
    """Comma-separated integers; a bad entry raises ValueError, reported as a config error."""
    return [int(v) for v in raw.split(",")]


class _Config:
    """Typed accessors over the parsed INI with key-level diagnostics."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser

    def get(self, section: str, key: str, cast, default=None):
        if not self.parser.has_option(section, key):
            if default is not None:
                return default
            raise ConfigError(f"missing required entry [{section}] {key}", key=key)
        raw = self.parser.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"cannot parse [{section}] {key} = {raw!r}", key=key) from exc

    def channel(self, section: str, default: str) -> ObservationChannel:
        name = self.get(section, "channel", str, default=default)
        try:
            return ObservationChannel(name)
        except ValueError:
            choices = ", ".join(c.value for c in ObservationChannel)
            raise ConfigError(f"unknown channel {name!r} in [{section}], expected one of {choices}", key="channel") from None

    def reject_unknown(self, section: str, known) -> None:
        """Raise ConfigError for a key of ``section`` outside ``known``: a typo must not fall back to a default."""
        if not self.parser.has_section(section):
            return
        defaults = self.parser.defaults()
        unknown = [k for k in self.parser[section] if k not in known and k not in defaults]
        if unknown:
            raise ConfigError(
                f"unknown key {unknown[0]!r} in [{section}], expected one of {', '.join(known)}", key=unknown[0]
            )

    def section(self, name: str) -> dict[str, str]:
        if not self.parser.has_section(name):
            return {}
        return dict(self.parser.items(name))


def _load_params(cfg: _Config, system: str):
    p = cfg.section("params")
    try:
        if system == "barotropic":
            return BarotropicParams(
                rho_bar=float(p["rho_bar"]),
                u_bar=float(p["u_bar"]),
                mu0=float(p["mu0"]),
                b=float(p["b"]),
            )
        if system == "nonbarotropic":
            return NonBarotropicParams(
                rho_bar=float(p["rho_bar"]),
                u_bar=float(p["u_bar"]),
                theta_bar=float(p["theta_bar"]),
                lambda0=float(p["lambda0"]),
                kappa0=float(p["kappa0"]),
                R=float(p["R"]),
                c0=float(p["c0"]),
            )
    except KeyError as exc:
        raise ConfigError(f"missing parameter {exc.args[0]} for system {system}", key=exc.args[0]) from exc
    raise ConfigError(f"unknown system {system!r}", key="system")


def _random_mean_zero_field(dim: int, N: int, rng: np.random.Generator, real: bool = True) -> SpectralField:
    c = np.zeros((2 * N + 1, dim), dtype=complex)
    for n in range(1, N + 1):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        c[n + N] = v
        c[-n + N] = np.conj(v) if real else rng.normal(size=dim) + 1j * rng.normal(size=dim)
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
        read = parser.read(config_path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"config file not found: {config_path}")
    cfg = _Config(parser)

    system = cfg.get("run", "system", str)
    command = cfg.get("run", "command", str)
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}", key="command")
    seed = cfg.get("run", "seed", int, default=0)
    out = Path(out_dir) if out_dir is not None else Path(cfg.get("run", "out", str, default="out"))
    params = _load_params(cfg, system)
    cfg.reject_unknown("run", _RUN_KEYS)
    cfg.reject_unknown("params", [f.name for f in dataclasses.fields(params) if f.init])
    cfg.reject_unknown(*_COMMAND_KEYS[command])
    out.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    outputs: list[Path] = []

    if command == "spectrum":
        N = cfg.get("spectrum", "N", int)
        slice_ = build_slice(params, N)
        path = out / "spectrum.csv"
        export_spectrum_csv(slice_, path)
        outputs.append(path)

    elif command == "closeness":
        n_start = cfg.get("closeness", "N_start", int)
        n_end = cfg.get("closeness", "N_end", int)
        sums = riesz_closeness(params, n_start, n_end)
        path = out / "closeness.csv"
        with open(path, "w", newline="") as fh:
            fh.write("N,partial_sum\n")
            for k, s in enumerate(sums):
                fh.write(f"{n_start + k},{_fmt(s)}\n")
        outputs.append(path)

    elif command == "observe":
        N = cfg.get("observe", "N", int)
        T = cfg.get("observe", "T", float)
        channel = cfg.channel("observe", default="density")
        trials = cfg.get("observe", "trials", int, default=1)
        slice_ = build_slice(params, N)

        reports = []
        for child in np.random.SeedSequence(seed).spawn(trials):
            field = _random_mean_zero_field(params.dim, N, np.random.default_rng(child), real=False)
            reports.append(observability_quotient(field, channel, T, None, slice_).to_dict())
        payload = {
            "reports": reports,
            "min_quotient": min(r["quotient"] for r in reports),
            "seed": seed,
        }
        path = out / "observe.json"
        _write_json(path, payload)
        outputs.append(path)

    elif command == "ingham":
        N = cfg.get("ingham", "N", int)
        T = cfg.get("ingham", "T", float)
        slice_ = build_slice(params, N)
        audit = ingham_audit(slice_, params, T)
        path = out / "ingham.json"
        _write_json(
            path,
            {"T": T, "N": N, "hypotheses": audit.to_dict(), "all_pass": audit.all_pass, "seed": seed},
        )
        outputs.append(path)

    elif command == "synthesize":
        N = cfg.get("synthesize", "N", int)
        T = cfg.get("synthesize", "T", float)
        channel = cfg.channel("synthesize", default="density")
        n_verify = cfg.get("synthesize", "N_verify", int, default=2 * N)
        grid_points = cfg.get("synthesize", "grid", int, default=201)
        slice_ = build_slice(params, max(n_verify, N))
        field = _random_mean_zero_field(params.dim, N, rng)
        system_ = build_moment_system(field, channel, T, slice_, N)
        solution = synthesize_control(system_)
        record = verify_terminal(field, solution, system_, slice_, n_verify)
        cpath = out / "control.csv"
        export_control_csv(solution, np.linspace(0.0, T, grid_points), cpath)
        vpath = out / "verification.json"
        _write_json(vpath, {**record.to_dict(), "moment_residual": solution.residual, "seed": seed})
        outputs.extend([cpath, vpath])

    elif command == "witness-smalltime":
        T = cfg.get("witness", "T", float)
        n_list = cfg.get("witness", "N_list", _int_list)
        x_left = cfg.get("witness", "x_left", float)
        x_right = cfg.get("witness", "x_right", float)
        report = small_time_witness(params, T, n_list, BumpSpec(x_left=x_left, x_right=x_right, seed=seed))
        path = out / "witness_smalltime.json"
        _write_json(path, {**report.to_dict(), "params": cfg.section("params")})
        outputs.append(path)

    elif command == "witness-degenerate":
        N = cfg.get("witness", "N", int, default=4)
        channel = cfg.channel("witness", default="density")
        slice_ = build_slice(params, N)
        record = degenerate_uc_witness(params, channel, slice_)
        path = out / "witness_degenerate.json"
        _write_json(path, {**record.to_dict(), "params": cfg.section("params"), "seed": seed})
        outputs.append(path)

    elif command == "witness-regularity":
        channel = cfg.channel("witness", default="velocity")
        s = cfg.get("witness", "s", float)
        n_list = cfg.get("witness", "n_list", _int_list)
        T = cfg.get("witness", "T", float, default=2.0)
        record = regularity_gap_witness(params, channel, s, n_list, T)
        path = out / "witness_regularity.json"
        _write_json(path, {**record.to_dict(), "params": cfg.section("params"), "seed": seed})
        outputs.append(path)

    elif command == "validate-fdm":
        N = cfg.get("fdm", "N", int, default=16)
        M = cfg.get("fdm", "M", int, default=1024)
        dt = cfg.get("fdm", "dt", float, default=1e-4)
        T = cfg.get("fdm", "T", float, default=0.4)
        decay = cfg.get("fdm", "decay", float, default=0.3)
        export_traj = cfg.get("fdm", "export_trajectory", str, default="no") == "yes"
        c = np.zeros((2 * N + 1, params.dim), dtype=complex)
        for n in range(1, N + 1):
            v = (rng.normal(size=params.dim) + 1j * rng.normal(size=params.dim)) * np.exp(-decay * n)
            c[n + N] = v
            c[-n + N] = np.conj(v)
        field = SpectralField(dim=params.dim, N=N, coeffs=c)
        record = compare_spectral_fdm(params, field, T, M, dt)
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
        if export_traj:
            from .oracle import GridState, export_trajectory_csv, fdm_evolve

            traj = fdm_evolve(params, GridState.from_field(field, M), T, dt,
                              store_every=max(1, int(round(T / dt)) // 4))
            tpath = out / "trajectory.csv"
            export_trajectory_csv(traj, tpath)
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
    slice_ = build_slice(params, 16)
    worst_residual = max(p.residual for p in slice_.pairs())
    re_ok = all(p.value.real < 0 for p in slice_.pairs())
    return {
        "max_eigen_residual": worst_residual,
        "all_re_negative": re_ok,
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
    except (QuadratureNotConverged, RankDeficient) as exc:
        print(f"numerical tolerance failure: {exc}", file=sys.stderr)
        return 3
    except CnsLabError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
