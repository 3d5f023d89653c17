import ast
import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dualflow
from dualflow import cli, particles, pde
from dualflow.measure import AtomicMeasure, UniformDensity, extract_atoms, wasserstein1
from dualflow.scenario import CHECKS, parse_scenario


BIG = 123456.789   # stands in a scenario for 1e400, which json.dumps cannot write


def scenario_dict(**overrides):
    base = {
        "flux": {"kind": "quadratic-attractive"},
        "initial": {"type": "atoms", "atoms": [[0.0, 1.0]]},
        "grid": {"x_min": -3.0, "x_max": 1.0, "n_cells": 200},
        "time": {"t_end": 1.0, "output_times": [0.0, 0.5, 1.0]},
        "diagnostics": {"checks": ["mass", "oleinik", "pressureless"],
                        "tolerances": {}},
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }
    base.update(overrides)
    return base


def write_scenario(tmp_path, name="scn.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(scenario_dict(**overrides)))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParsing:
    def test_round_trip(self, tmp_path):
        scn = cli.load_scenario(write_scenario(tmp_path))
        assert isinstance(scn.initial, AtomicMeasure)
        assert scn.n_cells == 200
        assert scn.cfl == 0.45  # default
        assert scn.checks == ("mass", "oleinik", "pressureless")

    def test_unknown_field_named_in_error(self, tmp_path):
        path = write_scenario(tmp_path, grid={"x_min": -3.0, "x_max": 1.0,
                                              "n_cells": 200, "spacing": 0.1})
        with pytest.raises(cli.ScenarioError, match="spacing"):
            cli.load_scenario(path)

    def test_missing_required_block(self, tmp_path):
        raw = scenario_dict()
        del raw["time"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(cli.ScenarioError, match="time"):
            cli.load_scenario(str(path))

    def test_unknown_check_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path, diagnostics={"checks": ["entropy"], "tolerances": {}})
        with pytest.raises(cli.ScenarioError, match="entropy"):
            cli.load_scenario(path)

    def test_unsorted_output_times_rejected(self, tmp_path):
        path = write_scenario(tmp_path,
                              time={"t_end": 1.0, "output_times": [0.5, 0.2]})
        with pytest.raises(cli.ScenarioError, match="sorted"):
            cli.load_scenario(path)

    def test_unknown_tolerance_key_rejected(self, tmp_path):
        path = write_scenario(
            tmp_path, diagnostics={"checks": ["mass"],
                                   "tolerances": {"mass_typo": 1.0}})
        with pytest.raises(cli.ScenarioError, match="mass_typo"):
            cli.load_scenario(path)

    def test_tolerance_of_a_check_without_one_rejected(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, diagnostics={"checks": ["pressureless"],
                                   "tolerances": {"pressureless": 1e9}})
        assert cli.main(["validate", "--scenario", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: diagnostics.tolerances") and err.count("\n") == 1

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_rejected(self, tmp_path, constant):
        text = json.dumps(scenario_dict()).replace('"t_end": 1.0',
                                                   f'"t_end": {constant}')
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        with pytest.raises(cli.ScenarioError, match=constant):
            cli.load_scenario(str(path))

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(cli.ScenarioError):
            cli.load_scenario(str(path))

    def test_density_initial(self, tmp_path):
        path = write_scenario(
            tmp_path,
            flux={"kind": "quadratic-repulsive"},
            initial={"type": "uniform", "x_left": -0.5, "x_right": 0.5,
                     "mass": 1.0},
            grid={"x_min": -2.0, "x_max": 4.0, "n_cells": 100})
        scn = cli.load_scenario(path)
        assert isinstance(scn.initial, UniformDensity)


class TestBundledScenarios:
    @pytest.mark.parametrize("name", [
        "single_dirac_attractive.json",
        "two_atoms_attractive.json",
        "three_atoms_attractive.json",
        "single_dirac_repulsive.json",
    ])
    def test_all_parse(self, name):
        scn = cli.load_scenario(cli.bundled_scenario(name))
        assert scn.t_end > 0


class TestRunCommand:
    def test_pde_run_writes_outputs(self, tmp_path):
        path = write_scenario(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--scenario", path, "--out", out]) == 0
        for fname in ["fields_faces.csv", "fields_cells.csv",
                      "atoms_extracted.csv", "diagnostics.csv",
                      "diagnostics.json"]:
            assert os.path.exists(os.path.join(out, fname)), fname
        report = json.loads(open(os.path.join(out, "diagnostics.json")).read())
        assert all(c["passed"] for c in report["checks"])

    def test_particles_run_writes_trajectory(self, tmp_path):
        path = write_scenario(
            tmp_path,
            initial={"type": "atoms",
                     "atoms": [[-0.25, 0.5], [0.25, 0.5]]},
            time={"t_end": 2.0, "output_times": [0.0, 1.0, 2.0]})
        out = str(tmp_path / "out")
        rc = cli.main(["run", "--scenario", path, "--engine", "particles",
                       "--out", out])
        assert rc == 0
        events = read_csv(os.path.join(out, "events.csv"))
        assert events[0] == ["t_event", "ids_merged", "x", "m"]
        assert len(events) == 2  # single merge
        assert float(events[1][0]) == pytest.approx(1.0)
        assert events[1][1] == "0+1"

    def test_both_engines_adds_w1_check(self, tmp_path):
        path = write_scenario(tmp_path)
        out = str(tmp_path / "out")
        rc = cli.main(["run", "--scenario", path, "--engine", "both",
                       "--out", out])
        assert rc == 0
        report = json.loads(open(os.path.join(out, "diagnostics.json")).read())
        names = {c["name"] for c in report["checks"]}
        assert "w1_pde_vs_particles" in names

    def test_both_engines_advance_oracle_once(self, tmp_path, monkeypatch):
        times = []
        advance = particles.advance

        def counted(system, t):
            times.append(t)
            return advance(system, t)

        monkeypatch.setattr(particles, "advance", counted)
        path = write_scenario(tmp_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", "--scenario", path, "--engine", "both",
                         "--out", out]) == 0
        assert times == [0.0, 0.5, 1.0]

    def test_pde_run_honours_requested_w1(self, tmp_path):
        path = write_scenario(
            tmp_path,
            diagnostics={"checks": ["mass", "w1_vs_particles"], "tolerances": {}})
        out = str(tmp_path / "out")
        assert cli.main(["run", "--scenario", path, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "diagnostics.json")).read())
        names = {c["name"] for c in report["checks"]}
        assert "w1_pde_vs_particles" in names

    @pytest.mark.parametrize("engine, overrides, message", [
        ("pde", {"flux": {"kind": "quadratic-repulsive"},
                 "diagnostics": {"checks": ["mass", "pushforward"]}},
         "diagnostics.checks: pushforward needs a velocity a non-increasing on [0, total mass], "
         "and flux is not"),
        ("pde", {"time": {"t_end": 1.0}, "diagnostics": {"checks": ["mass", "weak_residual"]}},
         "diagnostics.checks: weak_residual needs two or more distinct snapshot times in "
         "time.output_times and time.t_end"),
        ("both", {"time": {"t_end": 1.0}, "diagnostics": {"checks": ["mass", "weak_residual"]}},
         "diagnostics.checks: weak_residual needs two or more distinct snapshot times in "
         "time.output_times and time.t_end"),
        ("both", {"initial": {"type": "atoms", "atoms": [[0.0, 1.0], [5.0, 1.0]]}},
         "initial: atom on or outside the grid boundary (grid.x_min = -3.0, grid.x_max = 3.0, "
         "grid.n_cells = 200)"),
    ], ids=["pushforward-repulsive", "weak-residual-one-snapshot",
            "weak-residual-one-snapshot-both", "atom-outside-the-grid"])
    def test_refused_run_writes_no_file(self, tmp_path, capsys, engine, overrides, message):
        path = write_scenario(tmp_path, **{"grid": {"x_min": -3.0, "x_max": 3.0, "n_cells": 200},
                                           **overrides})
        out = tmp_path / "out"
        assert cli.main(["run", "--engine", engine, "--scenario", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_particles_refuse_repulsive(self, tmp_path, capsys):
        path = write_scenario(tmp_path, flux={"kind": "quadratic-repulsive"},
                              grid={"x_min": -1.0, "x_max": 3.0,
                                    "n_cells": 200})
        rc = cli.main(["run", "--scenario", path, "--engine", "particles"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_particles_refuse_density_initial(self, tmp_path):
        path = write_scenario(
            tmp_path,
            initial={"type": "uniform", "x_left": -0.5, "x_right": 0.5,
                     "mass": 1.0})
        assert cli.main(["run", "--scenario", path,
                         "--engine", "particles"]) == 1

    def test_missing_file_exit_code(self, capsys):
        assert cli.main(["run", "--scenario", "/nonexistent.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_failed_diagnostic_exit_code(self, tmp_path, capsys):
        # impossible tolerance forces a diagnostics failure -> exit 2
        path = write_scenario(
            tmp_path,
            diagnostics={"checks": ["mass"], "tolerances": {"mass": -1.0}})
        out = str(tmp_path / "out")
        rc = cli.main(["run", "--scenario", path, "--out", out])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().err

    def test_huge_t_end_refused_before_stepping(self, tmp_path, capsys):
        path = write_scenario(tmp_path, time={"t_end": 1e300})
        assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "t_end" in err

    @pytest.mark.parametrize("coeffs", [[0.0, 1e308], [1e308, 1e308]], ids=["a", "a-and-A"])
    @pytest.mark.parametrize("command", [["validate"], ["run", "--engine", "pde"]],
                             ids=["validate", "run"])
    def test_overflowing_wave_bound_refused_before_stepping(self, tmp_path, capsys,
                                                            coeffs, command):
        # max |a| overflows to inf: no CFL step exists, so the budget is inf
        path = write_scenario(tmp_path, flux={"kind": "polynomial", "coeffs": coeffs},
                              initial={"type": "atoms", "atoms": [[0.0, 1.0]]},
                              grid={"x_min": -1.0, "x_max": 1.0, "n_cells": 10},
                              time={"t_end": 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([*command, "--scenario", path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("error:") == 1 and err.startswith("error: ") and "MAX_STEPS" in err

    def test_exhausted_step_budget_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pde._March, "step_budget", lambda *args: 5)
        path = write_scenario(tmp_path)
        assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "budget" in err

    def test_determinism_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["run", "--scenario", path, "--out", out1]) == 0
        assert cli.main(["run", "--scenario", path, "--out", out2]) == 0
        for fname in ["fields_faces.csv", "fields_cells.csv",
                      "diagnostics.json", "diagnostics.csv"]:
            a = open(os.path.join(out1, fname), "rb").read()
            b = open(os.path.join(out2, fname), "rb").read()
            assert a == b, fname


IMPORTED = """
import sys
from dualflow import cli
prefix, argv = sys.argv[1].split("."), sys.argv[2:]
rc = cli.main(argv) if argv else 0
print(rc, sorted(m for m in sys.modules if m.split(".")[:len(prefix)] == prefix))
"""


@pytest.mark.parametrize("package, command, diagnostics", [
    # _horner is the one polynomial evaluator; numpy.polynomial is only the tests' reference
    ("numpy.polynomial", None, None),
    # weak_residual's draws are a fixed table; its tolerance is wide enough for
    # 3 snapshots, so that validate exits 0
    ("numpy.random", ["validate"], {"checks": ["mass", "weak_residual"],
                                    "tolerances": {"weak_residual": 2.0}}),
    # wasserstein1 merges its breaks without np.union1d, whose np.unique imports numpy.ma
    ("numpy.ma", ["run", "--engine", "both"], {"checks": ["mass", "w1_vs_particles"],
                                               "tolerances": {}}),
], ids=["cli-import", "validate", "run-both"])
def test_command_imports_no(tmp_path, package, command, diagnostics):
    """A fresh process that runs ``command`` imports nothing of ``package``;
    this test process may have imported it already."""
    argv = [] if command is None else [*command, "--scenario",
                                       write_scenario(tmp_path, diagnostics=diagnostics),
                                       "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(Path(m.__file__).parents[1]) for m in (dualflow, np)))
    out = subprocess.run([sys.executable, "-S", "-c", IMPORTED, package, *argv], check=True,
                         env=env, capture_output=True, text=True)
    assert out.stdout.splitlines()[-1] == "0 []"


class TestFailClosedFields:
    @pytest.mark.parametrize("n_cells", [200.7, True, 0, -5, "200", 10**7 + 1, 10**12])
    def test_n_cells_must_be_a_positive_integer(self, tmp_path, n_cells):
        path = write_scenario(tmp_path, grid={"x_min": -3.0, "x_max": 1.0,
                                              "n_cells": n_cells})
        with pytest.raises(cli.ScenarioError, match="grid.n_cells"):
            cli.load_scenario(path)

    @pytest.mark.parametrize("cfl", [0.0, -0.1, 1.5, "0.5", False])
    def test_cfl_outside_unit_interval(self, tmp_path, cfl):
        path = write_scenario(tmp_path, time={"t_end": 1.0, "cfl": cfl})
        with pytest.raises(cli.ScenarioError, match="time.cfl"):
            cli.load_scenario(path)

    def test_cfl_one_accepted(self, tmp_path):
        assert cli.load_scenario(write_scenario(tmp_path, time={"t_end": 1.0, "cfl": 1})).cfl == 1.0

    @pytest.mark.parametrize("x_min, x_max", [(1.0, 1.0), (2.0, -3.0), (-1e308, 1e308),
                                              (1e15, 1e15 + 4)],
                             ids=["empty", "reversed", "overflowing", "faces-not-distinct"])
    def test_grid_extent_must_be_positive_and_finite(self, tmp_path, capsys, x_min, x_max):
        path = write_scenario(tmp_path, grid={"x_min": x_min, "x_max": x_max, "n_cells": 200})
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # refused before numpy overflows
            assert cli.main(["validate", "--scenario", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: grid.x_max - grid.x_min must be ")

    def test_atom_outside_the_grid_is_one_error_line(self, tmp_path, capsys):
        path = write_scenario(tmp_path, initial={"type": "atoms", "atoms": [[5.0, 1.0]]})
        assert cli.main(["validate", "--scenario", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: initial: atom on or outside the grid boundary "
            "(grid.x_min = -3.0, grid.x_max = 1.0, grid.n_cells = 200)"]

    @pytest.mark.parametrize("initial", [
        {"type": "atoms", "atoms": [[-0.5, 0.5], [1.0, 0.5]]},
        {"type": "triangular", "x_left": -4.0, "x_peak": 0.0, "x_right": 0.5, "mass": 1.0},
    ], ids=["atom-on-the-right-face", "density-past-the-left-face"])
    def test_initial_data_off_the_grid_are_refused_at_load(self, tmp_path, capsys, initial):
        with pytest.raises(cli.ScenarioError, match=r"^initial: .* boundary \(grid\.x_min = "
                                                    r"-3\.0, grid\.x_max = 1\.0, "
                                                    r"grid\.n_cells = 200\)$"):
            parse_scenario(scenario_dict(initial=initial))
        if initial["type"] == "atoms":   # the particle engine, which grids nothing, never runs
            path = write_scenario(tmp_path, initial=initial)
            out = tmp_path / "out"
            assert cli.main(["run", "--engine", "particles", "--scenario", path,
                             "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith("error: initial: atom on or outside")
            assert not out.exists()

    @pytest.mark.parametrize("initial, message", [
        ({"type": "uniform", "x_left": 0.5, "x_right": -0.5, "mass": 1.0},
         "initial: invalid uniform density block"),
        ({"type": "uniform", "x_left": -0.5, "x_right": 0.5, "mass": 0},
         "initial: invalid uniform density block"),
        ({"type": "triangular", "x_left": -0.5, "x_peak": 0.7, "x_right": 0.5, "mass": 1.0},
         "initial: invalid triangular density block"),
        ({"type": "uniform", "x_left": -3.0, "x_right": 0.5, "mass": 1.0},
         "initial: density support touches the grid boundary "
         "(grid.x_min = -3.0, grid.x_max = 1.0, grid.n_cells = 200)"),
    ], ids=["uniform_reversed", "uniform_massless", "triangular_peak_outside",
            "support_on_the_boundary"])
    def test_bad_density_block_names_its_fields(self, tmp_path, capsys, initial, message):
        path = write_scenario(tmp_path, initial=initial)
        assert cli.main(["validate", "--scenario", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("overrides, field", [
        ({"time": {"t_end": BIG}}, "time.t_end"),
        ({"diagnostics": {"tolerances": {"mass": BIG}}}, "diagnostics.tolerances.mass"),
        ({"initial": {"type": "uniform", "x_left": BIG, "x_right": 0.5, "mass": 1.0}},
         "initial.x_left"),
        ({"initial": {"type": "atoms", "atoms": [[0.0, 0.5], [0.5, BIG]]}},
         "initial.atoms[1][1]"),
    ], ids=["t_end", "tolerance", "x_left", "atom_mass"])
    def test_number_that_overflows_to_infinity_is_an_error_line(self, tmp_path, capsys,
                                                                overrides, field):
        """JSON reads 1e400 as inf, which no field admits."""
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scenario_dict(**overrides)).replace(str(BIG), "1e400"))
        assert cli.main(["validate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {field} must be a finite number, got inf"]

    @pytest.mark.parametrize("overrides, field", [
        ({"initial": {"type": "uniform", "x_left": "a", "x_right": 1.0, "mass": 1.0}},
         "initial.x_left"),
        ({"initial": {"type": "triangular", "x_left": -1.0, "x_peak": None,
                      "x_right": 1.0, "mass": 1.0}}, "initial.x_peak"),
        ({"initial": {"type": "uniform", "x_left": -1.0, "x_right": 1.0, "mass": True}},
         "initial.mass"),
        ({"initial": {"type": "atoms", "atoms": [[0.0, True]]}}, "initial.atoms[0][1]"),
        ({"initial": {"type": "atoms", "atoms": [[0.0, "x"]]}}, "initial.atoms[0][1]"),
        ({"initial": {"type": "atoms", "atoms": [[0.0]]}}, "initial.atoms[0]"),
        ({"initial": {"type": "atoms", "atoms": [[k / 4096, 1 / 2048 if k != 1500 else "m"]
                                                 for k in range(2048)]}},
         "initial.atoms[1500][1]"),
        ({"output": {"directory": 5}}, "output.directory"),
        ({"output": {"directory": None}}, "output.directory"),
        ({"output": {"directory": ["out"]}}, "output.directory"),
    ], ids=["x_left_string", "x_peak_null", "mass_bool", "atom_mass_bool",
            "atom_mass_string", "atom_not_a_pair", "atom_1500_of_2048", "directory_int",
            "directory_null", "directory_list"])
    def test_bad_initial_or_output_field_named(self, tmp_path, overrides, field):
        path = write_scenario(tmp_path, **overrides)
        with pytest.raises(cli.ScenarioError, match=re.escape(field)):
            cli.load_scenario(path)

    @pytest.mark.parametrize("overrides, field", [
        ({"grid": 5}, "grid"),
        ({"flux": 5}, "flux"),
        ({"initial": 5}, "initial"),
        ({"time": {"t_end": 1.0, "output_times": 5}}, "time.output_times"),
        ({"diagnostics": {"checks": 5}}, "diagnostics.checks"),
        ({"diagnostics": {"tolerances": [1]}}, "diagnostics.tolerances"),
        ({"diagnostics": {"tolerances": {"mass": "x"}}}, "diagnostics.tolerances.mass"),
        ({"diagnostics": {"tolerances": {"mass": 10**400}}}, "diagnostics.tolerances.mass"),
    ], ids=["grid", "flux", "initial", "output_times", "checks", "tolerances_list",
            "tolerance_string", "tolerance_huge_int"])
    def test_wrongly_typed_container_is_an_error_line(self, tmp_path, capsys, overrides,
                                                       field):
        path = write_scenario(tmp_path, **overrides)
        assert cli.main(["validate", "--scenario", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be ")

    @pytest.mark.parametrize("block, field", [
        ({"kind": "polynomial", "coeffs": 5}, "coeffs"),
        ({"kind": "piecewise-linear-a", "nodes": 5}, "nodes"),
        ({"kind": "polynomial", "coeffs": ["a"]}, "coeffs[0]"),
        ({"kind": "piecewise-linear-a", "nodes": [[0]]}, "nodes[0]"),
        ({"kind": "piecewise-linear-a", "nodes": [[0, 1], [1, "x"]]}, "nodes[1][1]"),
        ({"kind": "polynomial", "coeffs": [True, 1]}, "coeffs[0]"),
        ({"kind": "polynomial", "coeffs": [1, 10**400]}, "coeffs[1]"),
        ({"kind": "piecewise-linear-a", "nodes": [[0, 1], [10**400, 0]]}, "nodes[1][0]"),
    ], ids=["coeffs_int", "nodes_int", "coeff_string", "node_not_a_pair", "node_string",
            "coeff_bool", "coeff_huge_int", "node_huge_int"])
    @pytest.mark.parametrize("command", ["validate", "riemann"])
    def test_wrongly_typed_flux_entry_is_an_error_line(self, tmp_path, capsys, block, field,
                                                       command):
        if command == "validate":
            argv = ["validate", "--scenario", write_scenario(tmp_path, flux=block),
                    "--out", str(tmp_path / "out")]
            prefix = "error: flux: "
        else:
            argv = ["riemann", "--flux", json.dumps(block), "0", "1"]
            prefix = "error: "
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"{prefix}{field} must be ")

    @pytest.mark.parametrize("formats", [["xlsx"], ["csv", "parquet"], "csv"])
    def test_unknown_output_format(self, tmp_path, formats):
        path = write_scenario(tmp_path, output={"formats": formats})
        with pytest.raises(cli.ScenarioError, match="output.formats"):
            cli.load_scenario(path)

    @pytest.mark.parametrize("formats, written", [
        (["json"], ["diagnostics.json"]),
        (["csv"], ["atoms_extracted.csv", "diagnostics.csv", "events.csv",
                   "fields_cells.csv", "fields_faces.csv", "trajectory.csv"]),
        ([], []),
    ])
    def test_run_honours_formats(self, tmp_path, formats, written):
        path = write_scenario(tmp_path, output={"formats": formats})
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", path, "--engine", "both", "--out", str(out)]) == 0
        assert (sorted(os.listdir(out)) if out.exists() else []) == written


class TestOutputFiles:
    def test_mode_follows_the_umask(self, tmp_path):
        path = write_scenario(tmp_path)
        out = tmp_path / "out"
        old = os.umask(0o022)
        try:
            assert cli.main(["run", "--scenario", path, "--engine", "both", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        modes = {f.name: f.stat().st_mode & 0o777 for f in out.iterdir()}
        assert len(modes) == 7 and set(modes.values()) == {0o644}, modes

    def test_csv_bytes_match_the_csv_module(self, tmp_path):
        blocks = [(0.25, np.array([1.0, -2.5e-300, 1 / 3]), np.arange(3), ["a+b", "", "c"]),
                  (1.0, 2, "", float("nan")),
                  (0.5, np.array([]), np.array([], dtype=int), [])]
        cli._write_csv(str(tmp_path / "fast.csv"), ["t", "x", "i", "s"], blocks)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "i", "s"])
            writer.writerows([[cli._fmt(v) for v in row] for row in
                              [(0.25, 1.0, 0, "a+b"), (0.25, -2.5e-300, 1, ""),
                               (0.25, 1 / 3, 2, "c"), (1.0, 2, "", float("nan"))]])
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n_columns=st.integers(2, 4), n_blocks=st.integers(0, 5))
    def test_csv_bytes_match_the_csv_module_for_random_blocks(self, tmp_path_factory, data,
                                                              n_columns, n_blocks):
        blocks = []
        n = data.draw(st.integers(0, 40))
        for _ in range(n_blocks):
            n = data.draw(st.one_of(st.just(n), st.integers(0, 40)))   # often a repeat
            prev = blocks[-1] if blocks else (None,) * n_columns
            blocks.append(tuple(data.draw(csv_column(n, p)) for p in prev))
        header = [f"c{j}" for j in range(n_columns)]
        d = tmp_path_factory.mktemp("csv")
        cli._write_csv(str(d / "fast.csv"), header, blocks)
        with open(d / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for block in blocks:
                writer.writerows(reference_rows(block))
        assert (d / "fast.csv").read_bytes() == (d / "ref.csv").read_bytes()

    def test_a_repeated_column_is_reused_only_when_bits_and_dtype_match(self, tmp_path):
        x = np.array([0.0, 0.0, 1.5])
        signed = np.array([-0.0, 0.0, 1.5])
        zeros = np.repeat([0.0, -0.0, 0.0], 4)   # runs that differ only in sign
        blocks = [(t, col) for t, col in enumerate([x, x.copy(), signed, signed.view(np.int64),
                                                    signed.view(np.int64), x, zeros])]
        cli._write_csv(str(tmp_path / "fast.csv"), ["t", "x"], blocks)
        expected = "t,x\r\n" + "".join(f"{a},{b}\r\n" for block in blocks
                                       for a, b in reference_rows(block))
        assert (tmp_path / "fast.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("header, block", [
        (["t", "s"], (0.5, ["1+2", "3,4"])),
        (["t", "s"], (0.5, 'a"b')),
        (["t", "s"], (0.5, ["x\ny"])),
        (["t", "s\r"], (0.5, 1.0)),
        (["s"], ([""],)),
    ], ids=["comma", "quote", "newline", "header_return", "lone_empty_cell"])
    def test_a_cell_that_needs_quoting_is_refused(self, tmp_path, header, block):
        with pytest.raises(ValueError, match="quoting"):
            cli._write_csv(str(tmp_path / "x.csv"), header, [block])
        assert not (tmp_path / "x.csv").exists()


FIELD_FILES = {"fields_faces.csv": ["t", "x_face", "u"],
               "fields_cells.csv": ["t", "x_center", "rho_cell_mass", "rho_density"],
               "atoms_extracted.csv": ["t", "atom_id", "x", "m"]}


def field_blocks(snapshots, name):
    """The blocks of one field CSV, as _write_csv takes them."""
    for s in snapshots:
        f = s.field
        if name == "fields_faces.csv":
            yield s.t, f.faces, f.u_faces
        elif name == "fields_cells.csv":
            yield s.t, f.centers, f.cell_masses, f.cell_masses / f.dx
        else:
            mu = extract_atoms(f)
            yield s.t, np.arange(mu.n_atoms), mu.positions, mu.masses


class TestFieldWriter:
    """run --engine pde|both formats the field CSVs in a forked child as the
    march reaches each snapshot; the child writes them only on a commit."""

    @pytest.mark.parametrize("name", ["single_dirac_attractive.json", "two_atoms_attractive.json",
                                      "three_atoms_attractive.json",
                                      "single_dirac_repulsive.json"])
    def test_field_csvs_equal_write_csv_in_process(self, tmp_path, name):
        # run --engine both where the oracle serves the data, else --engine pde
        scn = cli.load_scenario(cli.bundled_scenario(name))
        snapshots = cli.run_pde(scn)
        ref = tmp_path / "ref"
        for fname, header in FIELD_FILES.items():
            cli._write_csv(str(ref / fname), header, field_blocks(snapshots, fname))
        out = tmp_path / "out"
        engine = "pde" if "repulsive" in name else "both"
        assert cli.main(["run", "--engine", engine, "--scenario", cli.bundled_scenario(name),
                         "--out", str(out)]) == 0
        for fname in FIELD_FILES:
            assert (out / fname).read_bytes() == (ref / fname).read_bytes(), fname

    @pytest.mark.parametrize("fork", ["missing", "failing"])
    def test_without_fork_the_same_bytes_are_written_in_process(self, tmp_path, monkeypatch,
                                                                fork):
        path = write_scenario(tmp_path)
        assert cli.main(["run", "--engine", "both", "--scenario", path,
                         "--out", str(tmp_path / "forked")]) == 0

        def no_process():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        if fork == "missing":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", no_process)
        assert cli.main(["run", "--engine", "both", "--scenario", path,
                         "--out", str(tmp_path / "in_process")]) == 0
        for fname in os.listdir(tmp_path / "forked"):
            assert ((tmp_path / "forked" / fname).read_bytes()
                    == (tmp_path / "in_process" / fname).read_bytes()), fname

    @pytest.mark.parametrize("argv, overrides", [
        (["validate"], {}),
        (["convergence", "--resolutions", "50,100,200"], {}),
        (["run", "--engine", "particles"], {}),
        (["run", "--engine", "both"], {"output": {"formats": ["json"]}}),
    ], ids=["validate", "convergence", "run-particles", "run-without-csv"])
    def test_only_a_csv_run_of_the_pde_forks(self, tmp_path, monkeypatch, argv, overrides):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        path = write_scenario(tmp_path, **overrides)
        assert cli.main([*argv, "--scenario", path, "--out", str(tmp_path / "out")]) == 0

    def failed(self, tmp_path, capsys, path, engine="pde"):
        """The one error line of a run that must exit 1, write nothing and
        leave no child behind."""
        out = tmp_path / "out"
        assert cli.main(["run", "--engine", engine, "--scenario", path, "--out", str(out)]) == 1
        assert not out.exists()
        with pytest.raises(ChildProcessError):   # every child is reaped
            os.waitpid(-1, os.WNOHANG)
        [line] = capsys.readouterr().err.splitlines()
        return line

    def test_solver_error_after_streamed_snapshots(self, tmp_path, capsys, monkeypatch):
        sent = []
        send = cli._FieldWriter.send
        monkeypatch.setattr(cli._FieldWriter, "send",
                            lambda self, s: sent.append(s.t) or send(self, s))
        monkeypatch.setattr(pde._March, "step_budget", lambda *args: 20)   # t = 0.1 takes 12
        path = write_scenario(tmp_path, time={"t_end": 1.0, "output_times": [0.0, 0.1, 0.5]})
        assert self.failed(tmp_path, capsys, path).startswith("error: step budget (20 steps)")
        assert sent == [0.0, 0.1]

    def test_scenario_error_after_the_march(self, tmp_path, capsys, monkeypatch):
        # every refusal comes at load; an error between the march and the commit
        # still writes nothing and reaps the child
        def refuse(*args):
            raise cli.ScenarioError("refused after the march")

        monkeypatch.setattr(cli, "run_diagnostics", refuse)
        line = self.failed(tmp_path, capsys, write_scenario(tmp_path), "both")
        assert line == "error: refused after the march"

    @pytest.mark.parametrize("error, message", [(ValueError("no repr here"), "no repr here"),
                                                (MemoryError(), "MemoryError")],
                             ids=["ValueError", "bare-MemoryError"])
    def test_a_failure_in_the_child_is_one_io_error_line(self, tmp_path, capsys, monkeypatch,
                                                         error, message):
        def refuse(a):
            raise error

        monkeypatch.setattr(cli, "_reprs", refuse)   # the child is a fork: it calls this too
        line = self.failed(tmp_path, capsys, write_scenario(tmp_path), "both")
        assert line == f"i/o error: {message}"

    def test_an_exception_in_the_parent_leaves_no_child(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_diagnostics", interrupted)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            cli.main(["run", "--scenario", write_scenario(tmp_path), "--out", str(out)])
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("overrides, code", [
        ({}, 0), ({"diagnostics": {"checks": ["mass"], "tolerances": {"mass": -1.0}}}, 2)])
    def test_a_finished_run_leaves_no_child(self, tmp_path, overrides, code):
        path = write_scenario(tmp_path, **overrides)
        assert cli.main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == code
        assert len(os.listdir(tmp_path / "out")) == 5
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def reference_rows(block):
    """The rows of one _write_csv block, formatted as the csv.writer-based
    writer did: numpy entries by repr, list entries and scalars by _fmt."""
    n = max((len(c) for c in block if isinstance(c, (list, np.ndarray))), default=1)
    cols = [map(repr, c.tolist()) if isinstance(c, np.ndarray)
            else map(cli._fmt, c) if isinstance(c, list)
            else [cli._fmt(c)] * n for c in block]
    return zip(*cols)


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, float("inf"), float("-inf"), float("nan"),
                  0.1 + 0.2, 1 / 3, 1.2345678901234567e-300, 9007199254740993.0]
_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
_strings = st.text(alphabet="0123456789+", max_size=6)


def csv_column(n, prev):
    """One column of an n-row block; prev is the same column of the previous
    block, which it may repeat, view as the other dtype, or repeat with the
    sign of one zero flipped."""
    runs = st.lists(st.tuples(_floats, st.integers(1, 30)), min_size=1).map(
        lambda r: np.resize(np.repeat(*map(np.array, zip(*r))), n))   # long runs
    choices = [st.lists(_floats, min_size=n, max_size=n).map(np.array), runs,
               st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n).map(
                   lambda v: np.array(v, dtype=np.int64)),
               st.lists(_floats, min_size=n, max_size=n),
               st.lists(_strings, min_size=n, max_size=n),
               _floats, _floats.map(np.float64), st.integers(), _strings]
    if isinstance(prev, np.ndarray) and len(prev) == n:
        choices += [st.just(prev), st.just(prev.view(np.int64 if prev.dtype == float
                                                     else float))]
        zeros = np.flatnonzero(prev == 0)
        if prev.dtype == float and len(zeros):
            signed = prev.copy()
            signed[zeros[0]] = 0.0 if np.signbit(prev[zeros[0]]) else -0.0
            choices.append(st.just(signed))
    return st.one_of(choices)


SOURCES = sorted(Path(dualflow.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_value_types_need_no_dataclasses(source):
    """No module imports dataclasses or writes a field through object.__setattr__."""
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else []
            names += [alias.name for alias in node.names]
            assert "dataclasses" not in names, f"line {node.lineno}"
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__":
            assert not (isinstance(node.value, ast.Name) and node.value.id == "object"), \
                f"line {node.lineno}"


@pytest.mark.parametrize("command", ["run", "validate"])
def test_out_leaves_the_loaded_scenario_unchanged(tmp_path, monkeypatch, command):
    scn = cli.load_scenario(write_scenario(tmp_path))
    monkeypatch.setattr(cli, "load_scenario", lambda path: scn)
    out = tmp_path / "elsewhere"
    assert cli.main([command, "--scenario", "scn.json", "--out", str(out)]) == 0
    assert (out / "diagnostics.json").is_file()
    assert scn.out_dir == "out" and scn.checks == ("mass", "oleinik", "pressureless")


class TestValidateCommand:
    @pytest.mark.parametrize("overrides, names", [
        ({"diagnostics": {"checks": list(CHECKS),
                          "tolerances": {"weak_residual": 2.0}}},
         {"mass_conservation", "oleinik_osl", "momentum_total", "momentum_bracket",
          "pushforward_x", "pushforward_x2", "pushforward_sin", "weak_residual",
          "w1_pde_vs_particles"}),
        ({"flux": {"kind": "quadratic-repulsive"},
          "grid": {"x_min": -1.0, "x_max": 3.0, "n_cells": 200},
          "diagnostics": {"checks": ["mass", "oleinik", "pressureless", "weak_residual"],
                          "tolerances": {"weak_residual": 2.0}}},
         {"mass_conservation", "oleinik_osl", "oleinik_density", "momentum_total",
          "momentum_bracket", "weak_residual"}),
    ], ids=["attractive-every-check", "repulsive"])
    def test_records_hold_python_floats_and_bools(self, tmp_path, overrides, names):
        path = write_scenario(tmp_path, **overrides)
        out = tmp_path / "out"
        assert cli.main(["validate", "--scenario", path, "--out", str(out)]) == 0
        scn = cli.load_scenario(path)
        records = cli.run_diagnostics(scn, cli.run_pde(scn))
        assert {c.name for c in records} == names
        for c in records:
            assert list(map(type, c)) == [str, float, float, float, float, bool], c
        cli.write_report(scn._replace(out_dir=str(tmp_path / "again")), records)
        assert (tmp_path / "again" / "diagnostics.json").read_bytes() == \
            (out / "diagnostics.json").read_bytes()

    @pytest.mark.parametrize("name", ["single_dirac_attractive", "single_dirac_repulsive",
                                      "three_atoms_attractive", "two_atoms_attractive"])
    def test_run_and_validate_write_the_same_report(self, tmp_path, name):
        """diagnostics.json has one layout: `run --engine pde` and `validate`
        write the same bytes for the same scenario."""
        path = cli.bundled_scenario(f"{name}.json")
        for command in (["run", "--engine", "pde"], ["validate"]):
            out = tmp_path / command[0]
            assert cli.main([*command, "--scenario", path, "--out", str(out)]) == 0
        assert (tmp_path / "run" / "diagnostics.json").read_bytes() == \
            (tmp_path / "validate" / "diagnostics.json").read_bytes()

    def test_passes_and_prints_lines(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out = str(tmp_path / "out")
        rc = cli.main(["validate", "--scenario", path, "--out", out])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(line.startswith("pass") for line in lines)

    def test_failure_exit_two(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            diagnostics={"checks": ["mass"], "tolerances": {"mass": -1.0}})
        out = str(tmp_path / "out")
        rc = cli.main(["validate", "--scenario", path, "--out", out])
        assert rc == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("overrides", [
        {"initial": {"type": "uniform", "x_left": -0.5, "x_right": 0.5,
                     "mass": 1.0}},
        {"flux": {"kind": "quadratic-repulsive"},
         "grid": {"x_min": -1.0, "x_max": 3.0, "n_cells": 200}},
    ], ids=["density-initial", "repulsive-flux"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_requested_w1_the_oracle_cannot_serve(self, tmp_path, capsys,
                                                  overrides, command):
        path = write_scenario(
            tmp_path, diagnostics={"checks": ["mass", "w1_vs_particles"],
                                   "tolerances": {}}, **overrides)
        out = tmp_path / "out"
        assert cli.main([command, "--scenario", path, "--out", str(out)]) == 1
        assert "w1_vs_particles" in capsys.readouterr().err
        assert not out.exists()

    def test_w1_with_every_snapshot_at_a_merge(self, tmp_path, capsys):
        # the two atoms meet at t = 1.0, the only output time: the snapshot at
        # the merge is compared with the oracle like any other
        scn = json.loads(open(cli.bundled_scenario("two_atoms_attractive.json")).read())
        scn["time"] = {"t_end": 1.0}
        scn["diagnostics"]["checks"] = ["w1_vs_particles"]
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scn))
        out = tmp_path / "out"
        assert cli.main(["validate", "--scenario", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        [record] = json.loads((out / "diagnostics.json").read_text())["checks"]
        assert (record["name"], record["t"], record["passed"]) == ("w1_pde_vs_particles", 1.0,
                                                                   True)


class TestConvergenceCommand:
    def test_table_and_csv(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        out = str(tmp_path / "out")
        rc = cli.main(["convergence", "--scenario", path,
                       "--resolutions", "50,100,200", "--out", out])
        assert rc == 0
        rows = read_csv(os.path.join(out, "convergence.csv"))
        assert rows[0] == ["n_cells", "l1_error", "order"]
        assert len(rows) == 4
        errs = [float(r[1]) for r in rows[1:]]
        assert errs[0] > errs[1] > errs[2]

    def test_too_few_resolutions(self, tmp_path):
        path = write_scenario(tmp_path)
        assert cli.main(["convergence", "--scenario", path,
                         "--resolutions", "50,100"]) == 1

    @pytest.mark.parametrize("resolutions", ["0,20,40", "20,20,40", "10,x,40", "-5,20,40",
                                             "100,200,1000000000000"])
    def test_bad_resolutions_are_an_error_line(self, tmp_path, capsys, resolutions):
        path = write_scenario(tmp_path)
        assert cli.main(["convergence", "--scenario", path, f"--resolutions={resolutions}",
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "resolutions" in err

    def test_resolutions_take_the_parsers_grid_test(self, tmp_path, capsys):
        # 200 cells on [1e15, 1e15 + 400] are 16 ulps of 1e15 wide, which the
        # parser admits; 2 000 would be 1.6, too few to keep the faces increasing
        path = write_scenario(tmp_path, initial={"type": "atoms", "atoms": [[1e15 + 200, 1.0]]},
                              grid={"x_min": 1e15, "x_max": 1e15 + 400, "n_cells": 200})
        out = tmp_path / "out"
        assert cli.main(["convergence", "--scenario", path, "--resolutions", "100,200,2000",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--resolutions" in err[0]
        assert not out.exists()

    def test_resolutions_over_the_cell_step_cap_are_an_error_line(self, tmp_path, capsys):
        # 2e5 cells of 2e-5 give a budget of about 2.2e5 steps to t_end = 1,
        # within MAX_STEPS, but 4.4e10 cell steps, over MAX_CELL_STEPS
        path = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["convergence", "--scenario", path,
                         "--resolutions", "200000,400000,800000", "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "MAX_CELL_STEPS" in err[0]
        assert not out.exists()

    def test_fan_narrower_than_an_ulp(self, tmp_path):
        # x0 + M t == x0: the reference is the atom itself, and each row is
        # the exact W1 of u_h's one-cell ramp against its step, about dx / 2
        path = write_scenario(tmp_path, flux={"kind": "quadratic-repulsive"},
                              initial={"type": "atoms", "atoms": [[1e15, 1.0]]},
                              grid={"x_min": 1e15 - 400, "x_max": 1e15 + 400, "n_cells": 200},
                              time={"t_end": 0.01})
        out = tmp_path / "out"
        assert cli.main(["convergence", "--scenario", path, "--resolutions", "100,200,400",
                         "--out", str(out)]) == 0
        rows = read_csv(out / "convergence.csv")[1:]
        for n, err, _ in rows:
            assert 0 < float(err) < 0.51 * 800 / int(n)

    @pytest.mark.parametrize("t_end", [1.0, 0.01], ids=["wide-fan", "fan-inside-a-cell"])
    def test_repulsive_dirac_rows_are_exact(self, t_end):
        scn = parse_scenario(scenario_dict(
            flux={"kind": "quadratic-repulsive"}, grid={"x_min": -1.0, "x_max": 3.0, "n_cells": 100},
            time={"t_end": t_end}))
        rows = cli.convergence_table(scn, [100, 200, 400])
        for row in rows:
            field = cli.run_pde(scn, row["n_cells"])[-1].field
            sub = 64 * field.n_cells   # midpoints of 64 sub-cells per cell
            x = field.x_min + (np.arange(sub) + 0.5) * (field.x_max - field.x_min) / sub
            exact = np.clip(x / t_end, 0.0, 1.0)
            gap = np.abs(np.interp(x, field.faces, field.u_faces) - exact)
            quad = np.mean(gap) * (field.x_max - field.x_min)
            assert abs(row["l1_error"] - quad) <= 0.01 * field.dx

    def test_self_convergence_rows_are_w1_to_the_finest_grid(self):
        scn = parse_scenario(scenario_dict(
            flux={"kind": "polynomial", "coeffs": [0.0, 1.0, -1.0]},
            initial={"type": "triangular", "x_left": -1.0, "x_peak": -0.2, "x_right": 1.0,
                     "mass": 1.0},
            grid={"x_min": -4.0, "x_max": 4.0, "n_cells": 100}, time={"t_end": 2.0}))
        rows = cli.convergence_table(scn, [100, 200, 400])
        finest = cli.run_pde(scn, 400)[-1].field
        for row in rows[:-1]:
            field = cli.run_pde(scn, row["n_cells"])[-1].field
            assert row["l1_error"] == wasserstein1(field, finest) > 0
        assert rows[1]["order"] is not None
        assert math.isnan(rows[-1]["l1_error"]) and rows[-1]["order"] is None

    @pytest.mark.parametrize("name", ["single_dirac_attractive", "single_dirac_repulsive",
                                      "three_atoms_attractive", "two_atoms_attractive"])
    def test_w1_rate_on_bundled_scenarios(self, name):
        # a monotone scheme converges at O(dx) here (Kuznetsov 1976); the
        # coarsest grid resolves every gap between atoms
        scn = cli.load_scenario(cli.bundled_scenario(f"{name}.json"))
        rows = cli.convergence_table(scn, [400, 800, 1600, 3200])
        orders = [r["order"] for r in rows[1:]]
        assert all(o is not None and o >= 0.8 for o in orders), orders


@pytest.mark.parametrize("coeffs", [[0, 1], [0.0, 1.0, 0.0]], ids=["linear", "trailing-zero"])
def test_a_equal_to_u_is_recognised_by_value(coeffs):
    """a(u) = u spelled as a polynomial gets quadratic-repulsive's density
    check and exact convergence reference: the same records and rows, bit for bit."""
    scns = [parse_scenario(scenario_dict(flux=flux,
                                         grid={"x_min": -1.0, "x_max": 3.0, "n_cells": 200}))
            for flux in ({"kind": "quadratic-repulsive"}, {"kind": "polynomial", "coeffs": coeffs})]
    checks = [cli.run_diagnostics(scn, cli.run_pde(scn)) for scn in scns]
    assert "oleinik_density" in {c.name for c in checks[0]}
    assert repr(checks[1]) == repr(checks[0])
    rows = [cli.convergence_table(scn, [100, 200, 400]) for scn in scns]
    assert repr(rows[1]) == repr(rows[0])
    assert not math.isnan(rows[0][-1]["l1_error"])   # the exact fan, not the finest grid


class TestRiemannCommand:
    def test_attractive_shock(self, capsys):
        rc = cli.main(["riemann", "--flux",
                       '{"kind": "quadratic-attractive"}', "0", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shock" in out
        assert "-0.5" in out

    def test_repulsive_rarefaction(self, capsys):
        rc = cli.main(["riemann", "--flux",
                       '{"kind": "quadratic-repulsive"}', "0", "1"])
        assert rc == 0
        assert "rarefaction" in capsys.readouterr().out

    def test_composite(self, capsys):
        rc = cli.main(["riemann", "--flux",
                       '{"kind": "polynomial", "coeffs": [0.75, -3.0, 3.0]}',
                       "0", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "composite" in out

    def test_decreasing_states_rejected(self, capsys):
        rc = cli.main(["riemann", "--flux",
                       '{"kind": "quadratic-attractive"}', "1", "0"])
        assert rc == 1

    @pytest.mark.parametrize("kind, u_plus", [("quadratic-attractive", "1e308"),
                                              ("quadratic-repulsive", "1e200"),
                                              ("quadratic-repulsive", "1e154")])
    def test_states_where_A_overflows_are_an_error_line(self, capsys, kind, u_plus):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["riemann", "--flux", json.dumps({"kind": kind}), "0", u_plus])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_finite_flux_json_rejected(self, capsys):
        rc = cli.main(["riemann", "--flux", '{"kind":"polynomial","coeffs":[NaN]}', "0", "1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: --flux contains the non-finite number NaN\n"


# a(u) non-increasing on [0, 1] for each: the oracle serves all three
CROSS_MODELS = {
    "quadratic": {"kind": "quadratic-attractive"},
    "cubic": {"kind": "polynomial", "coeffs": [0.0, -0.5, 0.0, -0.5]},
    "piecewise-linear": {"kind": "piecewise-linear-a",
                         "nodes": [[0.0, 1.0], [0.3, 0.2], [0.7, -0.1], [1.0, -1.0]]},
}


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from(sorted(CROSS_MODELS)),
       atoms=st.lists(st.tuples(st.floats(-1.5, 1.5), st.integers(1, 16)),
                      min_size=1, max_size=6, unique_by=lambda a: a[0]))
def test_engines_agree_in_w1(model, atoms):
    """run --engine both: at every output time W1(PDE, oracle) <= 3 dx."""
    total = sum(k for _, k in atoms)
    scn = parse_scenario(scenario_dict(
        flux=CROSS_MODELS[model],
        initial={"type": "atoms", "atoms": [[x, k / total] for x, k in atoms]},
        grid={"x_min": -4.0, "x_max": 4.0, "n_cells": 400},
        time={"t_end": 2.0, "output_times": [0.25, 0.5, 1.0, 1.5, 2.0]}))
    snapshots = cli.run_pde(scn)
    pairs = cli.pair_with_oracle(snapshots, cli.run_particles(scn)[0])
    assert [snap for snap, _ in pairs] == snapshots   # every snapshot is paired
    for snap, oracle_atoms in pairs:
        assert wasserstein1(snap.field, oracle_atoms) <= 3 * scn.dx
