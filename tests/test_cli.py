import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import phasekit
from phasekit import Quartic
from phasekit import bohr_sommerfeld as bs
from phasekit import schrodinger, wigner
from phasekit.cli import _fmt, main

HARMONIC = '{"family": "harmonic", "m": 1.0, "omega": 1.0}'
QUARTIC = '{"family": "quartic", "m": 1.0, "lam": 1.0}'
ROTOR = '{"family": "rotor", "inertia": 1.0}'
TILTED = '{"family": "polynomial", "coeffs": [0, 0.3, -2, 0, 0.5]}'
# q^2/2 - q^4/3600 + 1e-8 q^6: a well at 0, barriers at +-30.80 and its deepest wells at
# +-132.55, all but the first outside the landscape's first window (-10, 10)
SEXTIC = '{"family": "polynomial", "coeffs": [0, 0, 0.5, 0, -0.0002777777777777778, 0, 1e-8]}'
BETA_ONE = '{"beta": 1.0}'


def _refuse_constant(name):
    raise AssertionError(f"CLI output holds {name}, which is not JSON")


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        # every JSON artifact (CSV and --out runs excepted) and every error must parse,
        # with no NaN or Infinity in either
        if code == 0 and captured.out.startswith("{"):
            json.loads(captured.out, parse_constant=_refuse_constant)
        if captured.err:
            json.loads(captured.err, parse_constant=_refuse_constant)
        return code, captured.out, captured.err
    return _run


class TestFormatting:
    def test_negative_zero_is_canonicalized(self):
        assert _fmt(-0.0) == "0"

    def test_seventeen_significant_digits(self):
        assert _fmt(1.0 / 3.0) == "0.33333333333333331"

    def test_integral_floats_stay_short(self):
        assert _fmt(0.5) == "0.5"
        assert _fmt(2.0) == "2"


class TestArgumentHandling:
    def test_no_subcommand_is_a_validation_error(self, run):
        code, out, err = run()
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "validation"

    def test_unknown_subcommand(self, run):
        code, _, err = run("annihilate")
        assert code == 2
        assert "annihilate" in json.loads(err)["error"]["message"]

    def test_unknown_flag_names_the_field(self, run):
        code, _, err = run("quantize", "--potential", HARMONIC,
                           "--levels", "0..2", "--flux", "7")
        assert code == 2
        assert json.loads(err)["error"]["field"] == "flux"

    def test_missing_required_option(self, run):
        code, _, err = run("quantize", "--potential", HARMONIC)
        assert code == 2
        assert json.loads(err)["error"]["field"] == "levels"

    def test_bad_choice_value(self, run):
        code, _, err = run("quantize", "--potential", HARMONIC,
                           "--levels", "0..1", "--oracle", "maybe")
        assert code == 2
        assert json.loads(err)["error"]["field"] == "oracle"

    def test_unknown_potential_family(self, run):
        code, _, err = run("quantize", "--potential", '{"family": "cubic"}',
                           "--levels", "0..1")
        assert code == 2
        assert json.loads(err)["error"]["field"] == "potential"

    def test_non_numeric_ensemble_field(self, run):
        code, _, err = run("thermo", "--potential", HARMONIC,
                           "--ensemble", '{"beta": "warm"}', "--grid", "-1:1:5")
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "validation"

    def test_ensemble_has_no_masses_field(self, run):
        # the mass comes from the potential; an ensemble mass would be ignored
        code, out, err = run("thermo", "--potential", HARMONIC,
                             "--ensemble", '{"beta": 1, "masses": [7, 8, 9]}', "--grid", "-1:1:5")
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["field"]) == ("validation", "ensemble")
        assert "masses" in error["message"]

    def test_non_finite_potential_field(self, run):
        code, _, err = run("quantize", "--potential",
                           '{"family": "harmonic", "m": 1.0, "omega": NaN}',
                           "--levels", "0..1")
        assert code == 2
        error = json.loads(err)["error"]
        assert (error["kind"], error["field"]) == ("validation", "potential")

    def test_negative_mass(self, run):
        code, _, err = run("oracle", "--potential",
                           '{"family": "harmonic", "m": -1.0, "omega": 1.0}', "--levels", "2")
        assert code == 2
        error = json.loads(err)["error"]
        assert (error["kind"], error["field"]) == ("validation", "potential")

    @pytest.mark.parametrize("subcommand, potential, argv", [
        ("quantize", {"family": "quartic", "lam": -1}, ("--levels", "0..1")),
        ("thermo", {"family": "quartic", "lam": -1}, ("--ensemble", BETA_ONE, "--grid", "0:1:2")),
        ("quantize", {"family": "harmonic", "omega": 0}, ("--levels", "0..1")),
        ("oracle", {"family": "morse", "depth": -3}, ("--levels", "2")),
        ("wigner", {"family": "morse", "width": 0}, ("--ensemble", BETA_ONE, "--grid", "0:1:2",
                                                     "--deltas", "0:0.1:2")),
    ], ids=["quantize-lam", "thermo-lam", "quantize-omega", "oracle-depth", "wigner-width"])
    def test_family_scales_must_be_positive(self, run, subcommand, potential, argv):
        code, out, err = run(subcommand, "--potential", json.dumps(potential), *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["field"]) == ("validation", "potential")
        name = next(k for k in potential if k != "family")
        assert f"field {name!r}" in error["message"]

    def test_periodic_boundary_on_a_line_needs_a_box(self, run):
        code, _, err = run("oracle", "--potential", HARMONIC, "--levels", "2",
                           "--boundary", "periodic")
        assert code == 2
        error = json.loads(err)["error"]
        assert (error["kind"], error["field"]) == ("validation", "box")

    def test_a_grid_too_large_to_allocate_is_a_json_error(self, run, monkeypatch):
        # numpy raises MemoryError (_ArrayMemoryError) for the grid; none is allocated here
        def unallocatable(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array with shape "
                              "(100000000000,) and data type float64")

        monkeypatch.setattr(schrodinger, "_matrix", unallocatable)
        code, out, err = run("oracle", "--potential", '{"family": "rotor"}',
                             "--boundary", "periodic", "--levels", "3",
                             "--grid-size", "100000000000")
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["type"], error["field"]) == (
            "computation", "MemoryError", "grid-size")
        assert "'grid-size'" in error["message"]

    @pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
    def test_a_potential_that_overflows_in_the_box_is_a_json_error(self, run, boundary):
        # exp(-2 w q) overflows for q below about -354: the Dirichlet call ended in numpy's
        # "array must not contain infs or NaNs" traceback after three overflow warnings,
        # and the ring printed levels of a diagonal that held inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("oracle", "--potential",
                                 '{"family":"morse","depth":10,"width":1}',
                                 "--box=-1000:1000", "--grid-size", "1024", "--levels", "2",
                                 "--boundary", boundary)
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["type"]) == ("computation", "BoxError")
        assert "not finite" in error["message"] and "(-1000.0, 1000.0)" in error["message"]

    def test_malformed_grid(self, run):
        code, _, err = run("thermo", "--potential", HARMONIC,
                           "--ensemble", BETA_ONE, "--grid", "0:1")
        assert code == 2
        assert json.loads(err)["error"]["field"] == "grid"

    @pytest.mark.parametrize("argv, field", [
        pytest.param(("propagate", "--potential", HARMONIC, "--from", "0", "--to", "1",
                      "--time", "nan"), "time", id="time-nan"),
        pytest.param(("thermo", "--potential", HARMONIC, "--grid", "-1:1:5",
                      "--ensemble", '{"beta": NaN}'), "ensemble", id="ensemble-beta-nan"),
        pytest.param(("thermo", "--potential", HARMONIC, "--ensemble", BETA_ONE,
                      "--grid", "0:nan:5"), "grid", id="grid-nan"),
        pytest.param(("equilibrium", "--potential", HARMONIC, "--window", "-inf:10"),
                     "window", id="window-inf"),
        pytest.param(("equilibrium", "--potential", HARMONIC, "--hbar", "0"),
                     "hbar", id="hbar-zero"),
        pytest.param(("equilibrium", "--potential", HARMONIC, "--kB", "-1"),
                     "kB", id="kB-negative"),
        pytest.param(("oracle", "--potential", HARMONIC, "--hbar", "inf"),
                     "hbar", id="hbar-inf"),
        pytest.param(("oracle", "--potential", HARMONIC, "--box", "0:inf"), "box", id="box-inf"),
        pytest.param(("equilibrium", "--potential", HARMONIC, "--window=-1e308:1e308"),
                     "window", id="window-span-overflows"),
        pytest.param(("oracle", "--potential", HARMONIC, "--box=-1e308:1e308", "--levels", "2"),
                     "box", id="oracle-box-span-overflows"),
        pytest.param(("quantize", "--potential", HARMONIC, "--levels", "0..1", "--oracle", "on",
                      "--box=-1e308:1e308"), "box", id="quantize-box-span-overflows"),
        pytest.param(("thermo", "--potential", HARMONIC, "--ensemble", BETA_ONE,
                      "--grid=-1e308:1e308:3"), "grid", id="grid-span-overflows"),
        pytest.param(("wigner", "--potential", HARMONIC, "--ensemble", BETA_ONE,
                      "--grid", "-1:1:3", "--deltas=-1e308:1e308:3"), "deltas",
                     id="deltas-span-overflows"),
        pytest.param(("oracle", "--potential", HARMONIC, "--grid-size", "3"),
                     "grid-size", id="oracle-grid-size-3"),
        pytest.param(("oracle", "--potential", HARMONIC, "--overlap-beta", "-1"),
                     "overlap-beta", id="overlap-beta-negative"),
        pytest.param(("oracle", "--potential", HARMONIC, "--grid-size", "64", "--levels", "63"),
                     "levels", id="oracle-levels-past-grid"),
        pytest.param(("quantize", "--potential", HARMONIC, "--levels", "0..1", "--oracle", "on",
                      "--grid-size", "3"), "grid-size", id="quantize-grid-size-3"),
        pytest.param(("quantize", "--potential", HARMONIC, "--oracle", "on", "--grid-size", "64",
                      "--levels", "0..62"), "levels", id="quantize-levels-past-grid"),
        pytest.param(("quantize", "--potential", HARMONIC, "--levels", "0..1", "--box", "junk"),
                     "box", id="unused-box-junk"),
        pytest.param(("quantize", "--potential", HARMONIC, "--levels", "0..1",
                      "--class", "rotation"), "class", id="rotation-on-the-line"),
        pytest.param(("--config", '{"subcommand": "oracle", "potential": {"family": "harmonic"}, '
                      '"levels": 2.9}'), "levels", id="levels-not-integral"),
        pytest.param(("--config", '{"subcommand": "oracle", "potential": {"family": "harmonic"}, '
                      '"hbar": true}'), "hbar", id="hbar-boolean"),
        pytest.param(("--config", '{"subcommand": "oracle", "potential": {"family": "harmonic"}, '
                      '"hbar": 1' + "0" * 400 + "}"), "hbar", id="hbar-past-float-range"),
        pytest.param(("equilibrium", "--potential", '{"family": "polynomial", "coeffs": "0102"}'),
                     "potential", id="coeffs-string"),
        pytest.param(("equilibrium", "--potential", '{"family": "polynomial", "coeffs": {"1": 0}}'),
                     "potential", id="coeffs-object"),
        pytest.param(("equilibrium", "--potential", '{"family": "polynomial", "coeffs": []}'),
                     "potential", id="coeffs-empty"),
        pytest.param(("equilibrium", "--potential", '{"family": "harmonic", "m": true}'),
                     "potential", id="m-boolean"),
        pytest.param(("equilibrium", "--potential", '{"family": "harmonic", "m": "2"}'),
                     "potential", id="m-string"),
        pytest.param(("equilibrium", "--potential", '{"family": "harmonic", "m": 1' + "0" * 400
                      + "}"), "potential", id="m-past-float-range"),
        pytest.param(("thermo", "--potential", HARMONIC, "--grid", "-1:1:5",
                      "--ensemble", '{"beta": true}'), "ensemble", id="ensemble-beta-boolean"),
        pytest.param(("equilibrium", "--potential", HARMONIC, "--window", "2:1"),
                     "window", id="window-reversed"),
        pytest.param(("quantize", "--potential", HARMONIC, "--levels", "3"),
                     "levels", id="levels-not-a-range"),
        pytest.param(("equilibrium", "--potential", "/nonexistent/pot.json"),
                     "potential", id="potential-file-missing"),
        pytest.param(("equilibrium", "--potential", "{bad"), "potential", id="potential-bad-json"),
        pytest.param(("thermo", "--potential", f"[{HARMONIC}]", "--ensemble", BETA_ONE,
                      "--grid", "-1:1:5"), "potential", id="thermo-potential-list"),
        pytest.param(("thermo", "--potential", HARMONIC, "--ensemble", "[1]", "--grid", "-1:1:5"),
                     "ensemble", id="ensemble-list"),
        pytest.param(("--config", "[1]"), "config", id="config-list"),
        pytest.param(("equilibrium", "--potential", '{"m": 1.0}'),
                     "potential", id="potential-without-family"),
        pytest.param(("thermo", "--potential", HARMONIC, "--ensemble", '{"hbar": 1.0}',
                      "--grid", "-1:1:5"), "ensemble", id="ensemble-without-beta"),
    ])
    def test_out_of_range_numbers_name_their_field(self, run, argv, field):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["field"]) == ("validation", field)

    @pytest.mark.parametrize("argv", [
        ("quantize", "--levels", "0..1"),
        ("equilibrium",),
        ("oracle", "--levels", "2"),
        ("propagate", "--from", "0", "--to", "1", "--time", "1"),
    ], ids=["quantize", "equilibrium", "oracle", "propagate"])
    def test_an_overflow_in_a_family_formula_is_a_computation_error(self, run, argv):
        # omega**2 overflows a float: the stiffness is refused with OverflowError, not inf
        code, out, err = run(*argv, "--potential", '{"family": "harmonic", "omega": 1e200}')
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["type"]) == ("computation", "OverflowError")

    @pytest.mark.parametrize("potential, word", [
        ('{"family": "harmonic", "m": 1e300, "omega": 1e150}', "stiffness"),
        ('{"family": "polynomial", "coeffs": [0, 0, 1e308]}', "coefficients"),
    ], ids=["harmonic", "polynomial"])
    @pytest.mark.parametrize("argv", [("equilibrium",), ("quantize", "--levels", "0..2"),
                                      ("oracle", "--levels", "2", "--grid-size", "1024")],
                             ids=["equilibrium", "quantize", "oracle"])
    def test_an_overflowing_stiffness_or_coefficient_is_a_computation_error(self, run, argv,
                                                                             potential, word):
        # m omega^2 = inf, or V'' = 2 * 1e308, made V' or V'' infinite and lost the minimum:
        # `equilibrium` exited 0 with no minimum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(*argv, "--potential", potential)
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["type"]) == ("computation", "OverflowError")
        assert word in error["message"]

    def test_an_underflowing_matched_beta_is_a_computation_error(self, run):
        # sqrt(m / V'') underflows to 0: this was a ZeroDivisionError
        code, out, err = run("equilibrium", "--potential",
                             '{"family": "pendulum", "m": 1e-300, "amplitude": 1e30}')
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["type"]) == ("computation", "NoRealTemperatureError")
        assert "underflows" in error["message"]

    @pytest.mark.parametrize("argv", [
        ("equilibrium", "--potential", HARMONIC, "--hbar", "1e10", "--kB", "1e-300"),
        ("thermo", "--potential", HARMONIC, "--ensemble", '{"beta": 1e-300, "k_B": 1e-10}',
         "--grid", "0:1:3"),
        ("thermo", "--potential", HARMONIC, "--ensemble", '{"beta": 1e-300, "k_B": 1e-300}',
         "--grid", "0:1:3"),
    ], ids=["matched", "ensemble", "underflowing-product"])
    def test_an_overflowing_temperature_is_a_computation_error(self, run, argv):
        # T = 1 / (2 beta k_B) overflows: `equilibrium` printed "T_matched": inf, `thermo`
        # printed "F_G": nan (T = inf times S = 0) and, where 2 beta k_B underflows to 0,
        # ended in a bare ZeroDivisionError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(*argv)
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["type"]) == ("computation", "NoRealTemperatureError")
        assert "overflows" in error["message"]

    def test_flag_needs_a_value(self, run):
        code, _, err = run("quantize", "--potential")
        assert code == 2

    def test_stray_positional_rejected(self, run):
        code, _, err = run("quantize", "extra", "--potential", HARMONIC,
                           "--levels", "0..1")
        assert code == 2


class TestConfigLayering:
    def test_config_file_supplies_options(self, run, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "subcommand": "quantize",
            "potential": json.loads(HARMONIC),
            "levels": "0..2",
        }))
        code, out, _ = run("--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert [row["n"] for row in payload["levels"]] == [0, 1, 2]

    def test_flags_override_config(self, run, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "subcommand": "quantize",
            "potential": json.loads(HARMONIC),
            "levels": "0..5",
        }))
        code, out, _ = run("--config", str(cfg), "--levels", "0..1")
        assert code == 0
        assert len(json.loads(out)["levels"]) == 2

    def test_unknown_config_key_rejected(self, run, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "subcommand": "quantize",
            "potential": json.loads(HARMONIC),
            "levels": "0..1",
            "tempo": 120,
        }))
        code, _, err = run("--config", str(cfg))
        assert code == 2
        assert json.loads(err)["error"]["field"] == "tempo"

    def test_subcommand_conflict_rejected(self, run, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"subcommand": "thermo"}))
        code, _, err = run("quantize", "--config", str(cfg))
        assert code == 2
        assert json.loads(err)["error"]["field"] == "subcommand"

    def test_echoed_config_reproduces_the_run(self, run, tmp_path):
        code, out, _ = run("quantize", "--potential", HARMONIC, "--levels", "0..1")
        assert code == 0
        echo = json.loads(out)["config"]
        cfg = tmp_path / "echo.json"
        cfg.write_text(json.dumps(echo))
        code2, out2, _ = run("--config", str(cfg))
        assert code2 == 0
        assert out2 == out


class TestDeterminism:
    def test_byte_identical_reruns(self, run):
        args = ("wigner", "--potential", HARMONIC, "--ensemble", BETA_ONE,
                "--grid", "-1:1:5", "--deltas", "0:0.1:3")
        _, first, _ = run(*args)
        _, second, _ = run(*args)
        assert first == second

    def test_config_and_flags_resolve_identically(self, run, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "subcommand": "thermo",
            "potential": json.loads(HARMONIC),
            "ensemble": json.loads(BETA_ONE),
            "grid": "-1:1:5",
        }))
        _, via_config, _ = run("--config", str(cfg))
        _, via_flags, _ = run("thermo", "--potential", HARMONIC,
                              "--ensemble", BETA_ONE, "--grid", "-1:1:5")
        assert via_config == via_flags


class TestOutputs:
    def test_out_file_gets_the_artifact(self, run, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run("quantize", "--potential", HARMONIC,
                           "--levels", "0..1", "--out", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["levels"][0]["E_bs"] == pytest.approx(0.5, rel=1e-9)

    def test_unwritable_out_is_a_validation_error(self, run, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run("quantize", "--potential", HARMONIC,
                             "--levels", "0..1", "--out", str(target))
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["field"]) == ("validation", "out")
        assert not target.exists()

    def test_csv_format(self, run):
        code, out, _ = run("thermo", "--potential", HARMONIC,
                           "--ensemble", BETA_ONE, "--grid", "-1:1:5",
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# phasekit thermo"
        assert lines[1].startswith("# config: ")
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "q,V,psi_sq,S,F_G"
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(data) == 5
        for ln in data:
            assert len(ln.split(",")) == 5
            [float(tok) for tok in ln.split(",")]


class TestWignerCommand:
    def test_residuals_and_closed_form_agreement(self, run):
        code, out, _ = run("wigner", "--potential", HARMONIC,
                           "--ensemble", BETA_ONE, "--grid", "-1:1:3",
                           "--deltas", "0:0.1:2")
        assert code == 0
        payload = json.loads(out)
        rows = payload["blocks"][0]["rows"]
        assert len(rows) == 6
        for row in rows:
            assert abs(row["re_value"] - row["closed_form"]) <= 1e-8
            assert abs(row["residual"]) <= 1e-12

    def test_potential_list_makes_blocks(self, run):
        both = f"[{HARMONIC}, {QUARTIC}]"
        code, out, _ = run("wigner", "--potential", both, "--ensemble", BETA_ONE,
                           "--grid", "0:1:2", "--deltas", "0:0.1:2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["blocks"]) == 2
        code, out, _ = run("wigner", "--potential", both, "--ensemble", BETA_ONE,
                           "--grid", "0:1:2", "--deltas", "0:0.1:2",
                           "--format", "csv")
        assert sum(ln.startswith("# potential:") for ln in out.splitlines()) == 2

    def test_csv_has_a_column_for_every_json_key(self, run):
        argv = ("wigner", "--potential", QUARTIC, "--ensemble", BETA_ONE,
                "--grid", "-1:1:3", "--deltas", "0:0.1:2")
        _, out, _ = run(*argv)
        json_rows = json.loads(out)["blocks"][0]["rows"]
        _, out, _ = run(*argv, "--format", "csv")
        header, *csv_rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
        names = {"re_value": "re(value)", "im_value": "im(value)"}
        assert header.split(",") == [names.get(k, k) for k in json_rows[0]]
        assert [[float(c) for c in ln.split(",")] for ln in csv_rows] == [
            list(row.values()) for row in json_rows]

    def test_deep_tilted_well_gives_finite_values(self, run):
        # V_min is about -1.27, so Z of exp(-2 beta V) unshifted overflows at beta = 1000
        well = '{"family": "polynomial", "coeffs": [0, 0.05, -1.2, 0, 0.3]}'
        code, out, err = run("wigner", "--potential", well, "--ensemble", '{"beta": 1000}',
                             "--grid", "-1.5:-1.35:4", "--deltas", "-0.01:0.01:3")
        assert code == 0, err
        rows = json.loads(out)["blocks"][0]["rows"]
        assert all(math.isfinite(v) for row in rows for v in row.values())
        code, out, err = run("thermo", "--potential", well, "--ensemble", '{"beta": 1000}',
                             "--grid", "-1.5:-1.35:7", "--normalization", "normalized")
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert all(math.isfinite(v) for row in rows for v in row.values())

    def test_overflowing_paper_density_is_a_computation_error(self, run):
        # exp(-2 beta V) overflows where V < 0 at beta = 1000: the paper
        # convention has no finite S or F_G there, and the run must say so
        well = '{"family": "polynomial", "coeffs": [0, 0.05, -1.2, 0, 0.3]}'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("thermo", "--potential", well, "--ensemble", '{"beta": 1000}',
                                 "--grid=-1.5:-1.35:3")
        assert code == 1
        assert "inf" not in re.findall(r"[A-Za-z_]+", out + err)
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError" and "overflowed" in error["message"]

    def test_overflowing_wavenumber_fails_the_quadrature_gate(self, run):
        # sqrt(m / beta) overflows, the momentum sums are NaN, and NaN passes no gate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("wigner", "--potential",
                                 '{"family": "quartic", "m": 1e300, "lam": 1000}',
                                 "--ensemble", '{"beta": 1e-30, "hbar": 1000}',
                                 "--grid=-1:1:3", "--deltas=0:0.1:2")
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["type"]) == ("computation", "AccuracyError")

    def test_unnormalizable_potential_is_a_computation_error(self, run):
        code, _, err = run("wigner", "--potential",
                           '{"family": "pendulum", "m": 1.0, "amplitude": 1.0}',
                           "--ensemble", BETA_ONE, "--grid", "0:1:2",
                           "--deltas", "0:0.1:2")
        assert code == 1
        assert json.loads(err)["error"]["kind"] == "computation"


    def test_a_non_finite_float_is_a_computation_error_naming_its_column(self, run,
                                                                           monkeypatch):
        monkeypatch.setattr(wigner, "pde_residual",
                            lambda ens, pot, q, dq: np.full(np.broadcast(q, dq).shape, np.nan))
        for fmt in ("json", "csv"):
            code, out, err = run("wigner", "--potential", HARMONIC, "--ensemble", BETA_ONE,
                                 "--grid", "-1:1:3", "--deltas", "0:0.1:2", "--format", fmt)
            assert (code, out) == (1, "")
            error = json.loads(err)["error"]
            assert (error["kind"], error["type"]) == ("computation", "FloatingPointError")
            assert "residual" in error["message"]


class TestThermoCommand:
    def test_summary_follows_a_shifted_well(self, run):
        code, out, _ = run("thermo", "--potential",
                           '{"family": "polynomial", "m": 1.0, "coeffs": [112.5, -15.0, 0.5]}',
                           "--ensemble", BETA_ONE, "--grid", "14:16:5")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["q0"] == pytest.approx(15.0, abs=1e-9)
        assert summary["T_matched"] == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("subcommand, argv", [
        ("quantize", ("--levels", "0..1")),
        ("wigner", ("--ensemble", BETA_ONE, "--grid", "0:1:2", "--deltas", "0:0.1:2")),
    ])
    def test_normalization_is_a_thermo_option(self, run, subcommand, argv):
        code, out, err = run(subcommand, "--potential", HARMONIC, *argv,
                             "--normalization", "normalized")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["field"] == "normalization"
        code, out, _ = run("thermo", "--potential", HARMONIC, "--ensemble", BETA_ONE,
                           "--grid", "0:1:2", "--normalization", "normalized")
        assert code == 0
        assert json.loads(out)["config"]["normalization"] == "normalized"


class TestEquilibriumCommand:
    def test_pendulum_minima_reports(self, run):
        code, out, _ = run("equilibrium", "--potential",
                           '{"family": "pendulum", "m": 1.0, "amplitude": 1.0}')
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 3
        for rep in reports:
            assert rep["T_matched"] == pytest.approx(0.5, rel=1e-9)

    def test_overflowing_gradient_keeps_the_steep_morse_minimum(self, run):
        # V' overflows to -inf at the window's lower end; the grid is not flat
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("equilibrium", "--potential",
                                 '{"family": "morse", "depth": 100, "width": 40}')
        assert code == 0, err
        (report,) = json.loads(out)["reports"]
        assert report["q0"] == 0.0 and report["curvature"] == pytest.approx(2 * 100 * 40**2)


class TestQuantizeCommand:
    @pytest.mark.parametrize("cls, levels", [("libration", "0..1"), ("rotation", "2..3")])
    def test_class_sets_the_motion(self, run, cls, levels):
        pendulum = '{"family": "pendulum", "m": 1.0, "amplitude": 1.0}'
        code, out, _ = run("quantize", "--potential", pendulum, "--class", cls,
                           "--levels", levels)
        assert code == 0
        assert json.loads(out)["motion"] == cls

    def test_oracle_column(self, run):
        code, out, _ = run("quantize", "--potential", ROTOR, "--levels", "0..3",
                           "--oracle", "on", "--grid-size", "2048")
        assert code == 0
        payload = json.loads(out)
        assert payload["motion"] == "rotation"
        for row in payload["levels"]:
            assert row["E_oracle"] is not None
            if row["n"] > 0:
                assert abs(row["relative_error"]) < 1e-4

    @pytest.mark.parametrize("levels, paired", [
        ("0..2", [-2.1407880, -1.5829548, -1.0594303]),
        ("0..3", [-2.1407880, -1.5829548, -1.0594303, -0.5790918]),
    ])
    def test_oracle_pairs_levels_by_well(self, run, levels, paired):
        # the deep well's levels: the shallow well's ground state (-1.3165) lies
        # between its levels 1 and 2 and must not be paired with level 2; the
        # oracle computes as many states per well as levels, so every level pairs
        code, out, err = run("quantize", "--potential",
                             '{"family":"polynomial","coeffs":[0,0.3,-2,0,0.5]}',
                             "--hbar", "0.2", "--levels", levels, "--oracle", "on")
        assert code == 0, err
        rows = json.loads(out)["levels"]
        for row, e in zip(rows, paired, strict=True):
            assert row["E_oracle"] == pytest.approx(e, abs=1e-6)
        # level 3, 0.58 below the crest between the wells, is off by 4.8e-3
        for row in rows[:3]:
            assert abs(row["relative_error"]) < 2e-3

    def test_oracle_pairs_a_tunnelling_doublet_with_its_lower_state(self, run):
        # each level of the symmetric double well splits into an even and an odd
        # state, each half in either well; level n pairs with doublet n's lower
        # state, and the eight computed states hold doublets 0 to 3
        code, out, err = run("quantize", "--potential",
                             '{"family":"polynomial","coeffs":[0,0,-2,0,0.5]}',
                             "--hbar", "0.2", "--levels", "0..3", "--oracle", "on")
        assert code == 0, err
        rows = json.loads(out)["levels"]
        paired = [-1.7223764, -1.1899479, -0.6983142, -0.2707687]
        for row, e in zip(rows, paired, strict=True):
            assert row["E_oracle"] == pytest.approx(e, abs=1e-6)
        for row in rows[:2]:
            assert abs(row["relative_error"]) < 2e-3

    def test_oracle_pairs_a_steep_morse_well(self, run):
        # one well: the plateau where |V'| <= 1e-12 past q = 9.5 holds no equilibria,
        # so the oracle is asked for two states, not one per plateau point
        code, out, err = run("quantize", "--potential",
                             '{"family":"morse","depth":100,"width":3.6}',
                             "--levels", "0..1", "--oracle", "on", "--box=-1:4")
        assert code == 0, err
        for row in json.loads(out)["levels"]:
            assert abs(row["relative_error"]) < 1e-6

    def test_oracle_pairs_a_morse_well_of_large_width(self, run):
        # where exp(-width q) underflows, V' is exactly 0: a scan of (-10, 10) took 71
        # such points for wells, the oracle was asked for 144 states, and state 15 met
        # the wall of this box (BoxError).  The family's one well asks for two
        code, out, err = run("quantize", "--potential",
                             '{"family":"morse","depth":1e6,"width":80}', "--levels", "0..1",
                             "--oracle", "on", "--box=-0.02:0.1", "--grid-size", "1024")
        assert code == 0, err
        for row in json.loads(out)["levels"]:
            assert abs(row["relative_error"]) < 2e-4

    def test_a_v_unbounded_below_with_no_minimum_stays_in_its_window(self, run):
        # V = -q^2 has only a maximum and a root bound of 0, so the landscape takes the
        # lower end of (-10, 10), V = -100, for its floor.  The window used to double 60
        # times first, and the error named "E=-1.32923e+38"
        code, out, err = run("quantize", "--potential",
                             '{"family": "polynomial", "coeffs": [0, 0, -1]}', "--levels", "0..1")
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]  # the one JSON document on stderr
        assert (error["kind"], error["type"]) == ("computation", "ForbiddenRegionError")
        assert error["message"] == ("E=-99.999 gives unbounded non-periodic motion; no closed "
                                    "orbit to quantize")

    def test_the_sextic_quantizes_its_deepest_well(self, run):
        # with only (-10, 10) scanned, the levels were 0.4999 and 1.4991, of the well at 0
        code, out, err = run("quantize", "--potential", SEXTIC, "--levels", "0..1")
        assert code == 0, err
        assert [row["E_bs"] for row in json.loads(out)["levels"]] == [
            -22723.950323953082, -22718.030920343961]

    def test_djde_column(self, run):
        code, out, _ = run("quantize", "--potential", HARMONIC, "--levels", "0..1",
                           "--djde", "on")
        assert code == 0
        for row in json.loads(out)["levels"]:
            assert row["dJ_dE"] == pytest.approx(2.0 * math.pi, rel=1e-6)
            assert row["J"] == pytest.approx((row["n"] + 0.5) * 2.0 * math.pi, rel=1e-9)

    def test_djde_columns_reuse_the_level_solve(self, run, monkeypatch):
        calls = []
        action = bs.action
        monkeypatch.setattr(bs, "action", lambda *a, **k: calls.append(a) or action(*a, **k))
        code, out, _ = run("quantize", "--potential", QUARTIC, "--levels", "0..3",
                           "--djde", "on")
        assert code == 0
        in_cli = len(calls)
        bs.quantize(Quartic(), range(4))
        assert len(calls) == 2 * in_cli  # the columns cost no action evaluation
        monkeypatch.undo()
        # J keeps its meaning: the action at 2 * order at E_n, with its period
        for row in json.loads(out)["levels"]:
            profile = bs.action(Quartic(), row["E_bs"])
            assert (row["J"], row["dJ_dE"]) == (profile.action, profile.dJ_dE)

    def test_dissociated_level_is_a_computation_error(self, run):
        code, _, err = run("quantize", "--potential",
                           '{"family": "morse", "m": 1.0, "depth": 3.0, "width": 1.0}',
                           "--levels", "2..2")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "BracketError"

    def test_steep_morse_levels_match_the_closed_form(self, run):
        # the minimum survives V' overflowing on the equilibrium grid
        depth, width = 1e4, 40.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("quantize", "--potential",
                                 json.dumps({"family": "morse", "depth": depth, "width": width}),
                                 "--levels", "0..1")
        assert code == 0, err
        hbar_omega = width * math.sqrt(2.0 * depth)
        for row in json.loads(out)["levels"]:
            quantum = hbar_omega * (row["n"] + 0.5)
            assert row["E_bs"] == pytest.approx(quantum - quantum**2 / (4.0 * depth), rel=1e-9)

    def test_collapsed_turning_points_are_a_certificate_failure(self, run, monkeypatch):
        # turning points that coincide in floating point above V_min leave J(E) without a
        # period; no family is known to reach this since an overflowing harmonic stiffness
        # is refused, so the coincidence is forced
        monkeypatch.setattr(bs, "turning_points", lambda potential, E: (0.0, 0.0))
        code, out, err = run("quantize", "--potential", HARMONIC, "--levels", "0..2")
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert (error["kind"], error["type"]) == ("computation", "AccuracyError")


class TestPropagateCommand:
    def test_free_particle_slicing_is_exact(self, run):
        code, out, _ = run("propagate", "--potential",
                           '{"family": "polynomial", "m": 1.0, "coeffs": [0.0]}',
                           "--from", "0", "--to", "1", "--time", "2",
                           "--slices", "10,100")
        assert code == 0
        payload = json.loads(out)
        assert payload["S_cl"] == pytest.approx(0.25, rel=1e-12)
        for row in payload["convergence"]:
            assert row["error"] <= 1e-12

    def test_harmonic_quarter_period_summary(self, run):
        code, out, _ = run("propagate", "--potential", HARMONIC,
                           "--from", "1", "--to", "1",
                           "--time", repr(math.pi / 2), "--slices", "100,200")
        assert code == 0
        payload = json.loads(out)
        assert payload["S_cl"] == pytest.approx(-1.0, rel=1e-9)
        assert payload["E"] == pytest.approx(1.0, rel=1e-9)
        errs = [row["error"] for row in payload["convergence"]]
        assert errs[1] < errs[0]

    def test_focal_time_is_a_computation_error(self, run):
        code, _, err = run("propagate", "--potential", HARMONIC,
                           "--from", "0", "--to", "1",
                           "--time", repr(math.pi), "--slices", "100")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ConjugatePointError"

    def test_a_short_harmonic_time_is_not_a_focal_time(self, run):
        # omega t = 1e-13 lies near 0, not near a focal time n pi with n >= 1
        code, out, err = run("propagate", "--potential", HARMONIC, "--from", "0",
                             "--to", "1", "--time", "1e-13", "--slices", "16")
        assert code == 0, err
        assert json.loads(out)["S_cl"] == pytest.approx(0.5e13, rel=1e-12)

    @pytest.mark.parametrize("potential, q_b, t, quantity", [
        (HARMONIC, "1e200", "1", "the path's energy E"),
        (HARMONIC, "1", "1e-300", "the path's energy E"),
        (ROTOR, "1e200", "1", "the path's energy E"),
        (ROTOR, "1", "1e-300", "the path's energy E"),
        (QUARTIC, "1e200", "1", "V at q_a or q_b"),
        (QUARTIC, "1", "1e-300", "the straight line's kinetic energy"),
        ('{"family": "morse"}', "1e200", "1", "the straight line's kinetic energy"),
        ('{"family": "morse"}', "1", "1e-300", "the straight line's kinetic energy"),
        ('{"family": "pendulum"}', "1e200", "1", "the straight line's kinetic energy"),
        ('{"family": "pendulum"}', "1", "1e-300", "the straight line's kinetic energy"),
        (TILTED, "1e200", "1", "V at q_a or q_b"),
        (TILTED, "1", "1e-300", "the straight line's kinetic energy"),
        # m v^2 / 2 = inf with v^2 finite: the bracket on E started at inf and never ended
        ('{"family": "quartic", "m": 1e300}', "1e10", "1", "the straight line's kinetic energy"),
        ('{"family": "harmonic", "omega": 1e-20}', "1e160", "1e10", "the action S_cl"),
        ('{"family": "harmonic", "m": 1e-300, "omega": 1e150}', "1", "1e200", "omega*t"),
        # no direct leg from 0 to 0: the branch scan's window reaches 2^50 e_lo = inf
        ('{"family": "polynomial", "coeffs": [1e300, 0, 1]}', "0", "1",
         "the branch scan's top E"),
    ], ids=["harmonic-far", "harmonic-short", "rotor-far", "rotor-short", "quartic-far",
            "quartic-short", "morse-far", "morse-short", "pendulum-far", "pendulum-short",
            "tilted-far", "tilted-short", "heavy-quartic", "slow-harmonic", "long-harmonic",
            "high-scan"])
    def test_an_overflowing_two_point_request_is_one_named_error(self, run, potential, q_b,
                                                                  t, quantity):
        # each ended in a RuntimeWarning traceback, in an OverflowError that named no
        # quantity, or in no end at all
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("propagate", "--potential", potential, "--from", "0",
                                 "--to", q_b, "--time", t, "--slices", "16")
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]  # the one JSON document on stderr
        assert (error["kind"], error["type"]) == ("computation", "OverflowError")
        assert error["message"] == f"{quantity} overflows"

    @pytest.mark.parametrize("t,E", [("3", "239.40694062915765"),
                                     ("1.58", "288.52867617258664")])
    def test_a_path_over_the_sextic_s_outer_barrier(self, run, t, E):
        # the barrier at 30.8 lies outside the first window of the landscape's scan.
        # When the landscape missed it, the branch scan's root-finder met infinite times
        # there in t = 3: a RuntimeWarning traceback under -W error, else an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("propagate", "--potential", SEXTIC, "--from", "20",
                                 "--to", "40", "--time", t)
        assert (code, err) == (0, "")
        assert f'"E": {E},' in out

    def test_a_maximum_the_landscape_missed_is_one_named_error(self, run):
        # V' = q ((q - c)^2 - d^2) changes sign twice inside one cell of the scan's grid,
        # so the landscape misses its bump at c - d (test_propagator.py)
        c, d = 1.0 + 2.0**-10, 0.004
        bump = json.dumps({"family": "polynomial",
                           "coeffs": [0.0, 0.0, (c * c - d * d) / 2.0, -2.0 * c / 3.0, 0.25]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run("propagate", "--potential", bump, "--from", "0.996",
                                 "--to", "1.006", "--time", "50")
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]  # the one JSON document on stderr
        assert (error["kind"], error["type"]) == ("computation", "TrajectoryError")
        assert error["message"] == ("V exceeds e_lo=0.0836514 between q_a=0.996 and "
                                    "q_b=1.006, at a maximum the landscape missed")

    def test_nonpositive_time_rejected(self, run):
        code, _, err = run("propagate", "--potential", HARMONIC,
                           "--from", "0", "--to", "1", "--time", "-1",
                           "--slices", "100")
        assert code == 2


class TestOracleCommand:
    def test_harmonic_levels(self, run):
        code, out, _ = run("oracle", "--potential", HARMONIC, "--levels", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["boundary"] == "dirichlet"
        for n, e in enumerate(payload["eigenvalues"]):
            assert e == pytest.approx(n + 0.5, abs=1e-4)

    def test_quartic_default_box_holds_eight_levels(self, run):
        code, out, err = run("oracle", "--potential", QUARTIC, "--levels", "8",
                             "--grid-size", "16384")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["box"] == [-8.0, 8.0]
        assert payload["eigenvalues"][7] == pytest.approx(12.738322, abs=1e-5)

    @pytest.mark.parametrize("coeffs, box, levels, explicit", [
        # (q^2 - 16)^2: minima at -+4 behind a barrier of 256, two degenerate pairs
        ("[256, 0, -32, 0, 1]", [-20.0, 12.0], [5.64089, 5.64089, 16.85856, 16.85856], "-8:8"),
        # tilted: the right well's ground state (5.7209) is the second level
        ("[0, 0.01, 64, -16, 1]", [-16.0000781227113, 15.999921877288699],
         [5.64106, 5.72072, 16.85907, 16.93806], "-4:12"),
    ], ids=["symmetric", "tilted"])
    def test_default_box_holds_a_well_behind_a_tall_barrier(self, run, coeffs, box, levels,
                                                            explicit):
        # the box held only the first minimum's well: (-8, 0), with a wall on the symmetric
        # barrier top, printed 5.6411, 16.860, 27.981, 39.002 (half the potential's spectrum),
        # and (-4, 4) left out the tilted well's 5.7209
        potential = f'{{"family": "polynomial", "coeffs": {coeffs}}}'
        code, out, err = run("oracle", "--potential", potential, "--levels", "4")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["box"] == box
        assert payload["eigenvalues"] == pytest.approx(levels, abs=1e-5)
        # a fine grid on a box about both wells: the default box's step is within 1e-4
        code, out, err = run("oracle", "--potential", potential, "--levels", "4",
                             f"--box={explicit}", "--grid-size", "8192")
        assert code == 0, err
        assert payload["eigenvalues"] == pytest.approx(json.loads(out)["eigenvalues"],
                                                       rel=1e-4)

    def test_the_sextic_s_default_box_holds_its_deepest_wells(self, run):
        # the box was (-8, 8), about the well at 0 alone, and level 0 read 0.49979100654258568;
        # the two outer wells hold a degenerate pair
        code, out, err = run("oracle", "--potential", SEXTIC, "--levels", "2")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["box"] == [-644.55160514601107, 379.44839485398893]
        assert payload["eigenvalues"] == [-22724.020446851111, -22724.020446851111]

    def test_rotor_resolves_to_periodic(self, run):
        code, out, _ = run("oracle", "--potential", ROTOR, "--levels", "3",
                           "--grid-size", "1024")
        assert code == 0
        payload = json.loads(out)
        assert payload["boundary"] == "periodic"
        assert payload["box"] == [0.0, pytest.approx(2.0 * math.pi)]

    def test_overlap_report(self, run):
        code, out, _ = run("oracle", "--potential", HARMONIC, "--levels", "1",
                           "--overlap-beta", "1.0")
        assert code == 0
        assert json.loads(out)["overlap"] >= 1.0 - 1e-6

    def test_eigenvector_csv(self, run):
        code, out, _ = run("oracle", "--potential", HARMONIC, "--levels", "2",
                           "--grid-size", "256", "--box", "-6:6",
                           "--eigenvectors", "on", "--format", "csv")
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "q,psi_0,psi_1"
        assert len(lines) == 257


#: one run of every subcommand but oracle, then oracle; prints whether scipy was loaded after each
SCIPY_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys
    from phasekit.cli import main

    h = '{"family": "harmonic"}'
    runs = [
        ("import", None),
        ("quantize", ["quantize", "--potential", h, "--levels", "0..1"]),
        ("wigner", ["wigner", "--potential", h, "--ensemble", '{"beta": 1}',
                    "--grid", "0:1:2", "--deltas", "0:0.1:2"]),
        ("thermo", ["thermo", "--potential", h, "--ensemble", '{"beta": 1}',
                    "--grid", "0:1:2", "--normalization", "normalized"]),
        ("propagate", ["propagate", "--potential", h, "--from", "1", "--to", "0",
                       "--time", "1", "--slices", "64"]),
        ("propagate-morse", ["propagate", "--potential", '{"family": "morse"}', "--from",
                             "0.5", "--to", "-0.25", "--time", "0.5", "--slices", "64"]),
        ("equilibrium", ["equilibrium", "--potential", h]),
        ("oracle", ["oracle", "--potential", h, "--levels", "1", "--grid-size", "64"]),
    ]
    loaded = {}
    for name, argv in runs:
        if argv is not None:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, name
        loaded[name] = "scipy" in sys.modules
    print(json.dumps(loaded))
""")


def test_only_an_eigensolve_imports_scipy():
    src = str(Path(phasekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert loaded.pop("oracle") is True
    assert loaded == dict.fromkeys(loaded, False)


#: the phasekit modules loaded after one run of the subcommand in argv[1], as JSON
MODULE_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys
    from phasekit.cli import main

    argv = json.loads(sys.argv[1])
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("phasekit."))))
""")


def test_each_subcommand_imports_only_the_layers_it_runs():
    h = '{"family": "harmonic"}'
    runs = {
        (): [],
        ("quantize", "--potential", h, "--levels", "0..1"): ["bohr_sommerfeld"],
        ("quantize", "--potential", h, "--levels", "0..1", "--oracle", "on",
         "--grid-size", "64"): ["bohr_sommerfeld", "schrodinger"],
        # wigner and propagate use bohr_sommerfeld's Gauss-Legendre tables and walls
        ("wigner", "--potential", h, "--ensemble", '{"beta": 1}', "--grid", "0:1:2",
         "--deltas", "0:0.1:2"): ["bohr_sommerfeld", "wigner"],
        ("thermo", "--potential", h, "--ensemble", '{"beta": 1}', "--grid", "0:1:2"):
            ["bohr_sommerfeld", "thermo", "wigner"],
        ("equilibrium", "--potential", h): ["bohr_sommerfeld", "thermo", "wigner"],
        ("propagate", "--potential", h, "--from", "1", "--to", "0", "--time", "1",
         "--slices", "64"): ["bohr_sommerfeld", "propagator"],
        ("oracle", "--potential", h, "--levels", "1", "--grid-size", "64"): ["schrodinger"],
    }
    src = str(Path(phasekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for argv, layers in runs.items():
        done = subprocess.run([sys.executable, "-c", MODULE_PROBE, json.dumps(argv)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == sorted(
            f"phasekit.{m}" for m in ["cli", "ensemble", "errors", "potentials", *layers]), argv


def test_rotor_oracle_prints_the_same_bytes_under_one_and_two_blas_threads():
    # the largest periodic solve of the benchmark; ARPACK's output changed with the
    # thread count here, the certified seeded solve's does not
    src = str(Path(phasekit.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "phasekit.cli", "oracle", "--potential", ROTOR,
            "--boundary", "periodic", "--levels", "15", "--grid-size", "32768"]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
