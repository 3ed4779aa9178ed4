import configparser
import csv
import json
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnslab import cli, counterexamples, kernels
from cnslab.cli import main, run
from cnslab.errors import ConfigError

BASE = """
[run]
system = barotropic
command = {command}
seed = 7

[params]
rho_bar = 1.0
u_bar = {u_bar}
mu0 = 1.0
b = {b}
"""

#: the triple-root set of tests/conftest.py: mode 1 carries a Jordan triple
THREE_FIELD = """
[run]
system = nonbarotropic
command = {command}
seed = 7

[params]
rho_bar = 1.0
u_bar = 1.0
theta_bar = 0.5
lambda0 = 1.0
kappa0 = 2.0
R = 1.0
c0 = 1.0
"""

#: the coincidence-free three-field set of tests/conftest.py (``generic_nonbarotropic``)
GENERIC_THREE_FIELD = """
[run]
system = nonbarotropic
command = {command}
seed = 7

[params]
rho_bar = 1.0
u_bar = 0.9
theta_bar = 1.0
lambda0 = 1.0
kappa0 = 2.0
R = 1.0
c0 = 1.0
"""

#: per command, a section whose one unparsable knob (besides T) is ``x4``
BAD_KNOB = {
    "spectrum": "[spectrum]\nN = x4\n",
    "closeness": "[closeness]\nN_start = 10\nN_end = x4\n",
    "observe": "[observe]\nN = x4\nT = 8.0\n",
    "ingham": "[ingham]\nN = x4\nT = 8.0\n",
    "synthesize": "[synthesize]\nN = 3\nT = 8.0\nN_verify = x4\n",
    "witness-smalltime": "[witness]\nT = 3.0\nN_list = 6,8\nx_left = 3.2\nx_right = x4\n",
    "witness-degenerate": "[witness]\nN = x4\n",
    "witness-regularity": "[witness]\ns = x4\nn_list = 4,8\n",
    "validate-fdm": "[fdm]\nN = 4\nM = x4\ndt = 1e-3\nT = 0.1\n",
}


def _per_mode_field(dim, N, rng, real=True, decay=None):
    """Oracle of the random fields: one draw per vector, mode by mode; ``decay`` scales mode n by e^{-decay n}."""
    c = np.zeros((2 * N + 1, dim), dtype=complex)
    for n in range(1, N + 1):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if decay is not None:
            v = v * np.exp(-decay * n)
        c[n + N] = v
        c[-n + N] = np.conj(v) if real else rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return c


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRun:
    def test_spectrum_csv_contains_double_eigenvalue_row(self, tmp_path):
        cfg = _write(tmp_path, BASE.format(command="spectrum", u_bar=1.0, b=1.0) + "\n[spectrum]\nN = 4\n")
        assert run(cfg, out_dir=tmp_path / "out") == 0
        with open(tmp_path / "out" / "spectrum.csv") as fh:
            rows = {(r["n"], r["branch"]): r for r in csv.DictReader(fh)}
        row = rows[("2", "h")]
        assert float(row["re"]) == pytest.approx(-2.0)
        assert float(row["im"]) == pytest.approx(2.0)
        assert row["alg_mult"] == "2"

    def test_missing_key_names_it(self, tmp_path):
        cfg = _write(tmp_path, BASE.format(command="observe", u_bar=0.9, b=1.3) + "\n[observe]\nN = 4\n")
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        with pytest.raises(ConfigError, match="T"):
            run(cfg, out_dir=tmp_path / "out")

    def test_witness_degenerate_on_simple_spectrum_exits_2(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE.format(command="witness-degenerate", u_bar=0.9, b=1.3) + "\n[witness]\nN = 4\n",
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize(
        "header,section",
        [
            (BASE.format(command="observe", u_bar=0.9, b=1.3), "[observe]\nN = 6\nT = 8.0\ntrials = 3\n"),
            (BASE.format(command="spectrum", u_bar=0.9, b=1.3), "[spectrum]\nN = 12\n"),
            (BASE.format(command="ingham", u_bar=0.9, b=1.3), "[ingham]\nN = 12\nT = 8.0\n"),
            (BASE.format(command="closeness", u_bar=0.9, b=1.3), "[closeness]\nN_start = 5\nN_end = 20\n"),
            (
                BASE.format(command="witness-smalltime", u_bar=0.9, b=1.3),
                "[witness]\nT = 3.0\nN_list = 6,8\nx_left = 3.2\nx_right = 5.8\n",
            ),
            # n1 = 1: modes -1 and 1 share a parabolic eigenvalue
            (BASE.format(command="witness-degenerate", u_bar=1.0, b=1.25), "[witness]\nN = 4\n"),
            (BASE.format(command="witness-regularity", u_bar=0.9, b=1.3), "[witness]\ns = 0.25\nn_list = 4,8,16\n"),
            (THREE_FIELD.format(command="spectrum"), "[spectrum]\nN = 12\n"),
        ],
        ids=[
            "observe", "spectrum", "ingham", "closeness", "witness-smalltime", "witness-degenerate",
            "witness-regularity", "spectrum-three-field",
        ],
    )
    def test_determinism_byte_identical(self, tmp_path, header, section):
        cfg = _write(tmp_path, header + "\n" + section)
        assert run(cfg, out_dir=tmp_path / "a") == 0
        assert run(cfg, out_dir=tmp_path / "b") == 0
        first = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
        assert "manifest.json" in first and len(first) > 1
        assert first == {p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}

    def test_manifest_lists_all_outputs_with_hashes(self, tmp_path):
        cfg = _write(tmp_path, BASE.format(command="spectrum", u_bar=0.9, b=1.3) + "\n[spectrum]\nN = 3\n")
        run(cfg, out_dir=tmp_path / "out", verify=True)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        produced = {p.name for p in (tmp_path / "out").iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == produced
        import hashlib

        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest

    def test_unknown_command_rejected(self, tmp_path):
        cfg = _write(tmp_path, BASE.format(command="frobnicate", u_bar=1.0, b=1.0))
        assert main(["run", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "command,section",
        [
            ("observe", "[observe]\nN = 4\nT = 8.0\n"),
            ("synthesize", "[synthesize]\nN = 3\nT = 8.0\n"),
            ("witness-degenerate", "[witness]\nN = 4\n"),
            ("witness-regularity", "[witness]\ns = 0.0\nn_list = 4,8\n"),
        ],
        ids=["observe", "synthesize", "witness-degenerate", "witness-regularity"],
    )
    def test_unknown_channel_is_a_config_error(self, tmp_path, capsys, command, section):
        text = BASE.format(command=command, u_bar=0.9, b=1.3) + "\n" + section + "channel = densty\n"
        cfg = _write(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "unknown channel 'densty'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,section",
        [
            ("witness-smalltime", "[witness]\nT = 3.0\nN_list = 6,eight\nx_left = 3.2\nx_right = 5.8\n"),
            ("witness-regularity", "[witness]\ns = 0.0\nn_list = 4,eight\n"),
        ],
        ids=["witness-smalltime", "witness-regularity"],
    )
    def test_bad_integer_list_is_a_config_error(self, tmp_path, capsys, command, section):
        cfg = _write(tmp_path, BASE.format(command=command, u_bar=0.9, b=1.3) + "\n" + section)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "cannot parse [witness]" in err and "eight" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "old,new,key",
        [("T = 8.0", "T = 8.0\ntirals = 3", "tirals"), ("seed = 7", "seed = 7\nsed = 3", "sed"),
         ("b = 1.3", "b = 1.3\nkappa0 = 2.0", "kappa0")],
        ids=["command-section", "run", "params"],
    )
    def test_unknown_key_is_a_config_error(self, tmp_path, capsys, old, new, key):
        text = BASE.format(command="observe", u_bar=0.9, b=1.3) + "\n[observe]\nN = 4\nT = 8.0\n"
        cfg = _write(tmp_path, text.replace(old, new))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"unknown key {key!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unparsable_parameter_is_a_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, BASE.format(command="spectrum", u_bar="fast", b=1.3) + "\n[spectrum]\nN = 4\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "cannot parse [params] u_bar = 'fast'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "system,params,needed",
        [
            ("barotropic", "rho_bar = 1.0\nu_bar = 0.9\nmu0 = 1.0\nb = 1.3\n", 3),
            (
                "nonbarotropic",
                "rho_bar = 1.0\nu_bar = 1.0\ntheta_bar = 1.0\nlambda0 = 1.0\nkappa0 = 2.0\nR = 1.0\nc0 = 1.0\n",
                2,
            ),
        ],
        ids=["barotropic", "nonbarotropic"],
    )
    def test_ingham_window_too_small_is_a_domain_error(self, tmp_path, capsys, system, params, needed):
        text = f"[run]\nsystem = {system}\ncommand = ingham\n\n[params]\n{params}\n[ingham]\nN = 1\nT = 8.0\n"
        cfg = _write(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"needs a window N >= {needed}" in err and "got N = 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,section,T",
        [
            ("synthesize", "[synthesize]\nN = 3\n", "inf"),
            ("synthesize", "[synthesize]\nN = 3\n", "nan"),
            ("observe", "[observe]\nN = 4\n", "0.0"),
            ("observe", "[observe]\nN = 4\n", "-1.0"),
            ("ingham", "[ingham]\nN = 8\n", "-3"),
            ("witness-smalltime", "[witness]\nN_list = 6,8\nx_left = 3.2\nx_right = 5.8\n", "-inf"),
            ("witness-regularity", "[witness]\ns = 0.0\nn_list = 4,8\n", "0"),
            ("validate-fdm", "[fdm]\nN = 4\nM = 128\ndt = 1e-3\n", "-0.1"),
        ],
        ids=["synthesize-inf", "synthesize-nan", "observe-zero", "observe-negative", "ingham-negative",
             "witness-smalltime", "witness-regularity", "validate-fdm"],
    )
    def test_bad_horizon_is_a_config_error(self, tmp_path, capsys, command, section, T):
        cfg = _write(tmp_path, BASE.format(command=command, u_bar=0.9, b=1.3) + "\n" + section + f"T = {T}\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"cannot parse [{section[1:section.index(']')]}] T = '{T}'" in err
        assert "finite and > 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_nonpositive_trials_is_a_config_error(self, tmp_path, capsys, trials):
        text = BASE.format(command="observe", u_bar=0.9, b=1.3) + f"\n[observe]\nN = 4\nT = 8.0\ntrials = {trials}\n"
        cfg = _write(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"cannot parse [observe] trials = '{trials}'" in err and ">= 1" in err
        assert "Traceback" not in err

    def test_synthesize_writes_control_and_verification(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE.format(command="synthesize", u_bar=0.9, b=1.3)
            + "\n[synthesize]\nN = 3\nT = 8.0\nN_verify = 6\n",
        )
        assert run(cfg, out_dir=tmp_path / "out") == 0
        verification = json.loads((tmp_path / "out" / "verification.json").read_text())
        assert verification["moment_residual"] <= 1e-8
        assert verification["in_trunc_residual"] <= 1e-6

    def test_synthesize_resolves_a_160_digit_residual(self, tmp_path):
        # N = 8 at T = 0.5 solves at 160 digits with a moment residual of
        # about 2e-186, whose square underflows in doubles
        cfg = _write(
            tmp_path,
            BASE.format(command="synthesize", u_bar=0.9, b=1.3).replace("seed = 7", "seed = 0")
            + "\n[synthesize]\nN = 8\nT = 0.5\nN_verify = 12\ngrid = 21\n",
        )
        assert run(cfg, out_dir=tmp_path / "out") == 0
        verification = json.loads((tmp_path / "out" / "verification.json").read_text())
        assert 0.0 < verification["in_trunc_residual"] <= 1e-6

    def test_validate_fdm_smoke(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE.format(command="validate-fdm", u_bar=0.9, b=1.3)
            + "\n[fdm]\nN = 4\nM = 128\ndt = 1e-3\nT = 0.1\n",
        )
        assert run(cfg, out_dir=tmp_path / "out") == 0
        payload = json.loads((tmp_path / "out" / "fdm_validation.json").read_text())
        assert payload["energy_monotone"] is True

    def test_validate_fdm_refuses_an_ill_conditioned_eigenbasis(self, tmp_path, monkeypatch, capsys):
        # the spectral side is the eigen-flow, which a basis past the
        # condition budget cannot carry: a domain error, not a comparison
        from cnslab import fields

        monkeypatch.setattr(fields, "EXPANSION_COND_LIMIT", 1.0)
        cfg = _write(
            tmp_path,
            BASE.format(command="validate-fdm", u_bar=0.9, b=1.3)
            + "\n[fdm]\nN = 4\nM = 128\ndt = 1e-3\nT = 0.1\n",
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "condition number" in capsys.readouterr().err
        assert not (tmp_path / "out" / "fdm_validation.json").exists()

    def test_validate_fdm_export_evolves_once(self, tmp_path, monkeypatch):
        # the exported trajectory is the one the comparison evolved
        import cnslab.oracle

        calls = []
        fdm_evolve = cnslab.oracle.fdm_evolve

        def counted(*args, **kwargs):
            calls.append(args)
            return fdm_evolve(*args, **kwargs)

        monkeypatch.setattr(cnslab.oracle, "fdm_evolve", counted)
        cfg = _write(
            tmp_path,
            BASE.format(command="validate-fdm", u_bar=0.9, b=1.3)
            + "\n[fdm]\nN = 4\nM = 128\ndt = 1e-3\nT = 0.1\nexport_trajectory = yes\n",
        )
        assert run(cfg, out_dir=tmp_path / "out") == 0
        assert len(calls) == 1
        # the header and five stored states (t = 0 and the four quarters) of two components on 128 points
        assert len((tmp_path / "out" / "trajectory.csv").read_text().splitlines()) == 1 + 5 * 2 * 128

    def test_bad_knob_table_covers_every_command(self):
        assert sorted(BAD_KNOB) == sorted(cli.COMMANDS)

    @pytest.mark.parametrize("command", list(BAD_KNOB))
    def test_bad_knob_exits_before_creating_the_output_directory(self, tmp_path, capsys, command):
        cfg = _write(tmp_path, BASE.format(command=command, u_bar=0.9, b=1.3) + "\n" + BAD_KNOB[command])
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "cannot parse" in err and "'x4'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid", ["-1", "0", "1"])
    def test_grid_below_two_points_is_a_config_error(self, tmp_path, capsys, monkeypatch, grid):
        def no_solve(*args, **kwargs):
            raise AssertionError("the grid must be checked before any computation")

        monkeypatch.setattr(cli, "build_slice", no_solve)
        text = BASE.format(command="synthesize", u_bar=0.9, b=1.3) + f"\n[synthesize]\nN = 3\nT = 8.0\ngrid = {grid}\n"
        cfg = _write(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"cannot parse [synthesize] grid = '{grid}'" in err and ">= 2" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_verification_window_below_the_truncation_is_checked_before_any_computation(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("the verification window must be checked before any computation")

        monkeypatch.setattr(cli, "build_slice", no_solve)
        text = BASE.format(command="synthesize", u_bar=0.9, b=1.3) + "\n[synthesize]\nN = 8\nT = 8.0\nN_verify = 4\n"
        assert main(["run", str(_write(tmp_path, text)), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "domain error: verification window must cover the synthesis truncation" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "control.csv").exists()

    @pytest.mark.parametrize("N", [-2, 0])
    def test_truncation_below_one_is_a_domain_error(self, tmp_path, capsys, monkeypatch, N):
        # an explicit verification window used to let these reach the field draw
        def no_solve(*args, **kwargs):
            raise AssertionError("N must be checked before any computation")

        monkeypatch.setattr(cli, "build_slice", no_solve)
        text = BASE.format(command="synthesize", u_bar=0.9, b=1.3) + f"\n[synthesize]\nN = {N}\nT = 8.0\nN_verify = 4\n"
        assert main(["run", str(_write(tmp_path, text)), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"domain error: N must be >= 1, got {N}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_two_point_grid_writes_both_ends(self, tmp_path):
        text = BASE.format(command="synthesize", u_bar=0.9, b=1.3) + "\n[synthesize]\nN = 2\nT = 8.0\ngrid = 2\n"
        assert run(_write(tmp_path, text), out_dir=tmp_path / "out") == 0
        with open(tmp_path / "out" / "control.csv") as fh:
            rows = list(csv.reader(fh))
        assert [float(r[0]) for r in rows[1:]] == [0.0, 8.0]

    @pytest.mark.parametrize(
        "old,new,entry",
        [("seed = 7", "seed = -1", "[run] seed = '-1'"),
         ("[fdm]\n", "[fdm]\nexport_trajectory = true\n", "[fdm] export_trajectory = 'true'")],
        ids=["seed", "export_trajectory"],
    )
    def test_bad_setting_exits_before_creating_the_output_directory(self, tmp_path, capsys, old, new, entry):
        text = BASE.format(command="validate-fdm", u_bar=0.9, b=1.3) + "\n[fdm]\nN = 4\nM = 128\ndt = 1e-3\nT = 0.1\n"
        cfg = _write(tmp_path, text.replace(old, new))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"cannot parse {entry}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "knob,value",
        [("dt", "0"), ("dt", "nan"), ("dt", "-1e-3"), ("M", "0"), ("M", "-5"), ("N", "-2"), ("N", "0"),
         # e^{-800 n} underflows every mode: nothing would be compared
         ("decay", "800")],
    )
    def test_bad_fdm_input_is_a_domain_error(self, tmp_path, capsys, knob, value):
        knobs = {"N": "4", "M": "128", "dt": "1e-3", "T": "0.1", knob: value}
        section = "[fdm]\n" + "".join(f"{k} = {v}\n" for k, v in knobs.items())
        cfg = _write(tmp_path, BASE.format(command="validate-fdm", u_bar=0.9, b=1.3) + "\n" + section)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "domain error" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "fdm_validation.json").exists()

    def test_fdm_step_budget_is_a_domain_error(self, tmp_path, capsys):
        # T = 1e3 at the default dt = 1e-4 asks for 10**7 steps: refused before the first one
        cfg = _write(tmp_path, BASE.format(command="validate-fdm", u_bar=0.9, b=1.3) + "\n[fdm]\nN = 4\nT = 1e3\n")
        start = time.perf_counter()
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "domain error: T = 1000 with dt = 0.0001 asks for 10000000 time steps, more than 100000" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("decay", ["inf", "nan", "-200", "-0.1"])
    def test_bad_decay_is_a_config_error(self, tmp_path, capsys, decay):
        section = f"[fdm]\nN = 4\nM = 128\ndt = 1e-3\nT = 0.1\ndecay = {decay}\n"
        cfg = _write(tmp_path, BASE.format(command="validate-fdm", u_bar=0.9, b=1.3) + "\n" + section)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"cannot parse [fdm] decay = '{decay}'" in err and "finite and >= 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_reversed_closeness_window_is_a_domain_error(self, tmp_path, capsys):
        section = "[closeness]\nN_start = 10\nN_end = 9\n"
        cfg = _write(tmp_path, BASE.format(command="closeness", u_bar=0.9, b=1.3) + "\n" + section)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "domain error" in err and "N_end = 9 < N_start = 10" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "closeness.csv").exists()

    @pytest.mark.parametrize("where,out,reason", [
        ("flag", "file", "File exists"),
        ("config", "file", "File exists"),
        ("flag", "file/sub", "Not a directory"),
    ], ids=["out-flag-is-a-file", "out-key-is-a-file", "out-flag-below-a-file"])
    def test_output_path_through_a_file_is_a_config_error(self, tmp_path, capsys, where, out, reason):
        (tmp_path / "file").write_text("kept")
        text = BASE.format(command="spectrum", u_bar=0.9, b=1.3) + "\n[spectrum]\nN = 4\n"
        if where == "config":
            text = text.replace("seed = 7\n", f"seed = 7\nout = {tmp_path / out}\n")
        cfg = _write(tmp_path, text)
        argv = ["run", str(cfg)] + (["--out", str(tmp_path / out)] if where == "flag" else [])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"config error: cannot make output directory {tmp_path / out}: {reason}\n"
        assert (tmp_path / "file").read_text() == "kept"

    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys):
        text = BASE.format(command="spectrum", u_bar=0.9, b=1.3) + "\n[spectrum]\nN = 4\n"
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(text.encode() + b"\xff\xfe\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {cfg} is not UTF-8: invalid start byte") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("system,params,section,message", [
        # mu0**2 overflows: every mode's eigenvalues
        ("barotropic", "rho_bar = 1.0\nu_bar = 0.9\nmu0 = 1e160\nb = 1.3\n", "[spectrum]\nN = 4\n",
         "mode -1: eigenvalue or eigen-residual not finite"),
        # mu0**2 * n**4 overflows from n = 12 on: N = 11 runs
        ("barotropic", "rho_bar = 1.0\nu_bar = 0.9\nmu0 = 1e152\nb = 1.3\n", "[spectrum]\nN = 40\n",
         "mode -12: eigenvalue or eigen-residual not finite"),
        # lambda0 * n**2 overflows from n = 14 on: the dense eigensolve would meet an infinite symbol
        ("nonbarotropic", "rho_bar = 1.0\nu_bar = 1.0\ntheta_bar = 1.0\nlambda0 = 1e306\nkappa0 = 2.0\nR = 1.0\n"
         "c0 = 1.0\n", "[spectrum]\nN = 20\n", "mode -14: symbol not finite"),
        # R**2 * theta**2 overflows while the table is built
        ("nonbarotropic", "rho_bar = 1e-300\nu_bar = 1.0\ntheta_bar = 1e300\nlambda0 = 1.0\nkappa0 = 2.0\n"
         "R = 1e10\nc0 = 1.0\n", "[spectrum]\nN = 4\n", "the coefficient table overflows"),
        # omega0 = b * rho_bar / mu0 and n0 are infinite
        *[("barotropic", "rho_bar = 1e308\nu_bar = 0.9\nmu0 = 1e-308\nb = 1.3\n", section,
           "coefficient omega is not finite")
          for section in ("[spectrum]\nN = 4\n", "[ingham]\nN = 4\nT = 8.0\n",
                          "[closeness]\nN_start = 3\nN_end = 10\n")],
    ], ids=["mu0-squared", "mode-12", "three-field-symbol", "three-field-table", "omega-spectrum", "omega-ingham",
            "omega-closeness"])
    def test_coefficients_that_overflow_are_a_domain_error(self, tmp_path, capsys, system, params, section, message):
        command = section[1:section.index("]")]
        cfg = _write(tmp_path, f"[run]\nsystem = {system}\ncommand = {command}\n\n[params]\n{params}\n{section}")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"domain error: {message}") and err.count("\n") == 1
        assert not any("nan" in path.read_text() for path in tmp_path.glob("out/*"))

    def test_coefficients_below_their_overflow_run(self, tmp_path):
        text = BASE.format(command="spectrum", u_bar=0.9, b=1.3).replace("mu0 = 1.0", "mu0 = 1e152")
        cfg = _write(tmp_path, text + "\n[spectrum]\nN = 11\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "nan" not in (tmp_path / "out" / "spectrum.csv").read_text()

    @pytest.mark.parametrize("command", ["observe", "synthesize"])
    def test_temperature_channel_on_two_fields_exits_2(self, tmp_path, capsys, command):
        section = f"[{command}]\nN = 4\nT = 8.0\nchannel = temperature\n"
        cfg = _write(tmp_path, BASE.format(command=command, u_bar=0.9, b=1.3) + "\n" + section)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "domain error: temperature channel requires the three-field system" in err
        assert "Traceback" not in err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "header,command,section,message,artifact",
        [
            (BASE, "witness-smalltime", "T = 3.0\nN_list = 0\nx_left = 3.2\nx_right = 5.8\n",
             "N_list must be increasing", "witness_smalltime.json"),
            # a repeated entry is not increasing: one distinct N leaves nothing to fit a slope to
            (BASE, "witness-smalltime", "T = 3.0\nN_list = 8,8\nx_left = 3.2\nx_right = 5.8\n",
             "N_list must be increasing", "witness_smalltime.json"),
            (BASE, "witness-regularity", "s = 0.0\nn_list = 4,4\n", "n_list must be increasing", "witness_regularity.json"),
            # the three-field witness checks its list the same way, before any slice is built
            (THREE_FIELD, "witness-smalltime", "T = 3.0\nN_list = 8,8\nx_left = 3.2\nx_right = 5.8\n",
             "N_list must be increasing", "witness_smalltime.json"),
        ],
        ids=["N_list=0", "N_list=8,8", "n_list=4,4", "three-field-smalltime"],
    )
    def test_witness_list_entry_below_one_is_a_domain_error(
        self, tmp_path, capsys, monkeypatch, header, command, section, message, artifact
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("the witness input must be checked before any slice is built")

        monkeypatch.setattr(counterexamples, "build_slice", no_solve)
        cfg = _write(tmp_path, header.format(command=command, u_bar=0.9, b=1.3) + "\n[witness]\n" + section)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "domain error" in err and message in err and "Traceback" not in err
        assert not (tmp_path / "out" / artifact).exists()

    @pytest.mark.parametrize("T", ["1.0", "3.0"])
    def test_three_field_smalltime_witness_runs(self, tmp_path, T):
        section = f"[witness]\nT = {T}\nN_list = 8,12,16,24\nx_left = 3.2\nx_right = 5.8\n"
        cfg = _write(tmp_path, GENERIC_THREE_FIELD.format(command="witness-smalltime") + "\n" + section)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = json.loads((tmp_path / "out" / "witness_smalltime.json").read_text())
        assert report["slope"] <= -1.7

    @pytest.mark.parametrize("T,below", [("3.0", True), ("8.0", False)])
    def test_synthesize_writes_below_critical_time_watermark(self, tmp_path, T, below):
        # the workhorse's critical time 2*pi/u_bar is about 6.98
        text = BASE.format(command="synthesize", u_bar=0.9, b=1.3) + f"\n[synthesize]\nN = 2\nT = {T}\ngrid = 2\n"
        assert run(_write(tmp_path, text), out_dir=tmp_path / "out") == 0
        verification = json.loads((tmp_path / "out" / "verification.json").read_text())
        assert verification["below_critical_time"] is below


class TestRandomField:
    @settings(max_examples=200, deadline=None)
    @given(dim=st.sampled_from([2, 3]), N=st.integers(1, 64), real=st.booleans(), seed=st.integers(0, 2**63))
    def test_one_draw_equals_the_per_mode_draws(self, dim, N, real, seed):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        field = cli._random_field(dim, N, rng, real=real)
        assert field.coeffs.tobytes() == _per_mode_field(dim, N, oracle_rng, real=real).tobytes()
        # the stream is left where the per-mode draws leave it
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("decay", ["0", "0.3", "40"])
    def test_fdm_field_is_the_per_mode_decaying_draw(self, tmp_path, monkeypatch, decay):
        import cnslab.oracle

        class Compared(Exception):
            pass

        def capture(params, field, T, M, dt):
            raise Compared(field.coeffs)

        monkeypatch.setattr(cnslab.oracle, "compare_spectral_fdm", capture)
        section = f"[fdm]\nN = 24\nM = 128\ndt = 1e-3\nT = 0.1\ndecay = {decay}\n"
        with pytest.raises(Compared) as compared:
            run(_write(tmp_path, BASE.format(command="validate-fdm", u_bar=0.9, b=1.3) + "\n" + section),
                out_dir=tmp_path / "out")
        # seed 7 of BASE; with decay 40 the top modes underflow to zero
        expected = _per_mode_field(2, 24, np.random.default_rng(7), decay=float(decay))
        np.testing.assert_array_equal(compared.value.args[0], expected)


class TestPairTableReuse:
    """The observation energies of one term set share one pair table."""

    @pytest.fixture
    def pair_integral_calls(self, monkeypatch):
        calls = []
        pair_integrals = kernels.pair_integrals

        def counted(*args):
            calls.append(args)
            return pair_integrals(*args)

        monkeypatch.setattr(kernels, "_pair_table", None)
        monkeypatch.setattr(kernels, "pair_integrals", counted)
        return calls

    def test_observe_trials_build_one_table(self, tmp_path, pair_integral_calls):
        section = "[observe]\nN = 32\nT = 8.0\nchannel = density\ntrials = 8\n"
        assert run(_write(tmp_path, BASE.format(command="observe", u_bar=0.9, b=1.3) + section),
                   out_dir=tmp_path / "out") == 0
        assert len(json.loads((tmp_path / "out" / "observe.json").read_text())["reports"]) == 8
        assert len(pair_integral_calls) == 1

    def test_smalltime_witness_builds_one_table(self, tmp_path, pair_integral_calls):
        # the first signal's term set holds those of the larger N
        section = "[witness]\nT = 3.0\nN_list = 6,8,12,16\nx_left = 3.2\nx_right = 5.8\n"
        assert run(_write(tmp_path, BASE.format(command="witness-smalltime", u_bar=0.9, b=1.3) + section),
                   out_dir=tmp_path / "out") == 0
        assert len(pair_integral_calls) == 1


#: A value for each required key of any command.
REQUIRED = {"N": "4", "T": "3.0", "N_start": "4", "N_end": "8", "N_list": "6,8", "x_left": "3.2",
            "x_right": "5.8", "s": "0.5", "n_list": "4,8"}


def _parse(text):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str
    parser.read_string(text)
    return parser


class TestCommandTable:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_required_keys_alone_give_every_default(self, command):
        section, table = cli.COMMANDS[command]
        required = [k for k, (_, default) in table.items() if default is None]
        text = f"[{section}]\n" + "".join(f"{k} = {REQUIRED[k]}\n" for k in required)
        knobs = cli._knobs(_parse(text), section, table)
        assert list(knobs) == list(table)
        for key, (parse, default) in table.items():
            raw = REQUIRED[key] if default is None else default(knobs) if callable(default) else default
            assert knobs[key] == parse(raw)

    def test_defaults(self):
        defaults = {
            command: {k: d for k, (_, d) in table.items() if d is not None}
            for command, (_, table) in cli.COMMANDS.items()
        }
        synthesize = defaults["synthesize"]
        assert synthesize.pop("N_verify")({"N": 5}) == "10"
        assert defaults == {
            "spectrum": {},
            "closeness": {},
            "observe": {"channel": "density", "trials": "1"},
            "ingham": {},
            "synthesize": {"channel": "density", "grid": "201"},
            "witness-smalltime": {},
            "witness-degenerate": {"N": "4", "channel": "density"},
            "witness-regularity": {"channel": "velocity", "T": "2.0"},
            "validate-fdm": {"N": "16", "M": "1024", "dt": "1e-4", "T": "0.4", "decay": "0.3",
                             "export_trajectory": "no"},
        }

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_key_outside_the_table_exits_1(self, tmp_path, capsys, command):
        section, table = cli.COMMANDS[command]
        body = "".join(f"{k} = {REQUIRED[k]}\n" for k, (_, default) in table.items() if default is None)
        cfg = _write(tmp_path, BASE.format(command=command, u_bar=0.9, b=1.3) + f"\n[{section}]\n{body}bogus = 1\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "unknown key 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_lists_every_key_and_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
        listed: dict = {}
        current = None
        for line in readme:
            heading = re.match(r"^\*\*`([\w-]+)`\*\* reads `\[(\w+)\]`", line)
            if heading:
                current = listed.setdefault(heading.group(1), (heading.group(2), {}))[1]
            elif current is not None and line.startswith("| `"):
                key, default = (cell.strip() for cell in line.strip("|").split("|")[:2])
                current[key.strip("`")] = default
            elif line and not line.startswith("|"):
                current = None
        shown = {None: "required", cli._twice_N: "2·N"}
        expected = {"run": ("run", {k: shown.get(d, f"`{d}`") for k, (_, d) in cli.RUN_KEYS.items()})}
        for command, (section, table) in cli.COMMANDS.items():
            expected[command] = (section, {k: shown.get(d, f"`{d}`") for k, (_, d) in table.items()})
        assert listed == expected
