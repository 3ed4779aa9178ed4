import csv
import json

import pytest

from cnslab import cli
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

    def test_determinism_byte_identical(self, tmp_path):
        text = BASE.format(command="observe", u_bar=0.9, b=1.3) + "\n[observe]\nN = 6\nT = 8.0\ntrials = 3\n"
        cfg = _write(tmp_path, text)
        run(cfg, out_dir=tmp_path / "a")
        run(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "observe.json").read_bytes() == (tmp_path / "b" / "observe.json").read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (tmp_path / "b" / "manifest.json").read_bytes()

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

    def test_validate_fdm_smoke(self, tmp_path):
        cfg = _write(
            tmp_path,
            BASE.format(command="validate-fdm", u_bar=0.9, b=1.3)
            + "\n[fdm]\nN = 4\nM = 128\ndt = 1e-3\nT = 0.1\n",
        )
        assert run(cfg, out_dir=tmp_path / "out") == 0
        payload = json.loads((tmp_path / "out" / "fdm_validation.json").read_text())
        assert payload["energy_monotone"] is True

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

    def test_two_point_grid_writes_both_ends(self, tmp_path):
        text = BASE.format(command="synthesize", u_bar=0.9, b=1.3) + "\n[synthesize]\nN = 2\nT = 8.0\ngrid = 2\n"
        assert run(_write(tmp_path, text), out_dir=tmp_path / "out") == 0
        with open(tmp_path / "out" / "control.csv") as fh:
            rows = list(csv.reader(fh))
        assert [float(r[0]) for r in rows[1:]] == [0.0, 8.0]
