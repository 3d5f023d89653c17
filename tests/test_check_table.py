"""scenario.CHECKS: each check's precondition refuses a scenario at load, for
every command, before any engine runs, with the field named.  What the
preconditions admit runs without the library raises they stand in for, and
what they refuse raises when run anyway."""

import json
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from dualflow import analysis, cli, particles, pde
from dualflow.scenario import CHECKS, ScenarioError, parse_scenario

REPULSIVE = {"flux": {"kind": "quadratic-repulsive"},
             "grid": {"x_min": -1.0, "x_max": 3.0, "n_cells": 200}}
UNIFORM = {"initial": {"type": "uniform", "x_left": -0.5, "x_right": 0.5, "mass": 1.0}}
COMMANDS = {"run-pde": ["run", "--engine", "pde"], "run-both": ["run", "--engine", "both"],
            "run-particles": ["run", "--engine", "particles"], "validate": ["validate"],
            "convergence": ["convergence", "--resolutions", "50,100,200"]}


def scenario(checks, **overrides):
    raw = {"flux": {"kind": "quadratic-attractive"},
           "initial": {"type": "atoms", "atoms": [[0.0, 1.0]]},
           "grid": {"x_min": -3.0, "x_max": 1.0, "n_cells": 200},
           "time": {"t_end": 1.0, "output_times": [0.0, 0.5, 1.0]},
           "diagnostics": {"checks": ["mass", *checks]}}
    raw.update(overrides)
    return raw


@pytest.fixture
def no_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an engine ran on a scenario refused at load")

    monkeypatch.setattr(pde, "run", refuse)
    monkeypatch.setattr(pde, "march", refuse)
    monkeypatch.setattr(particles, "advance", refuse)


def refused(tmp_path, capsys, raw, argv):
    """The one error line of ``argv`` on the scenario ``raw``, which must exit 1 and
    write no file."""
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main([*argv, "--scenario", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    return line


PRECONDITIONS = {   # check, overrides, the field its refusal names
    "weak_residual-one-time": ("weak_residual", {"time": {"t_end": 1.0}}, "time.output_times"),
    "weak_residual-repeated-time": ("weak_residual",
                                    {"time": {"t_end": 1.0, "output_times": [1.0, 1.0]}},
                                    "time.output_times"),
    "weak_residual-34-cells": ("weak_residual",
                               {"grid": {"x_min": -3.0, "x_max": 1.0, "n_cells": 34}},
                               "grid.n_cells = 34"),
    "pushforward-repulsive": ("pushforward", REPULSIVE, "flux"),
    "w1-density": ("w1_vs_particles", UNIFORM, "initial.type"),
    "w1-repulsive": ("w1_vs_particles", REPULSIVE, "flux"),
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", PRECONDITIONS)
def test_refused_at_load_by_every_command(tmp_path, capsys, no_engine, case, command):
    check, overrides, field = PRECONDITIONS[case]
    line = refused(tmp_path, capsys, scenario([check], **overrides), COMMANDS[command])
    assert line.startswith(f"error: diagnostics.checks: {check} needs ")
    assert field in line


@pytest.mark.parametrize("engine", ["both", "particles"])
@pytest.mark.parametrize("overrides, field", [(UNIFORM, "initial.type"), (REPULSIVE, "flux")],
                         ids=["density", "repulsive"])
def test_an_engine_the_oracle_cannot_serve_is_refused_first(tmp_path, capsys, no_engine,
                                                             engine, overrides, field):
    line = refused(tmp_path, capsys, scenario([], **overrides), ["run", "--engine", engine])
    assert line.startswith(f"error: --engine {engine} needs ")
    assert field in line


def test_weak_residual_runs_from_35_cells():
    raw = scenario(["weak_residual"], grid={"x_min": -3.0, "x_max": 1.0, "n_cells": 35})
    scn = parse_scenario(raw)
    records = cli.run_diagnostics(scn, cli.run_pde(scn))
    assert [c.name for c in records][-1] == "weak_residual"


def test_tolerances_hold_every_default_and_the_scenario_overrides():
    raw = scenario([], diagnostics={"tolerances": {"oleinik": 0.5}})
    scn = parse_scenario(raw)
    dx = 4.0 / 200
    assert scn.tolerances == {"mass": 1e-12, "oleinik": 0.5, "pushforward": 5 * dx,
                              "weak_residual": 20 * dx, "w1_vs_particles": 3 * dx}
    assert {name for name, c in CHECKS.items() if c.tolerance is None} == {
        "pressureless"}


# one flux block per kind: two with a non-increasing a on [0, 1.2], two without
FLUXES = [{"kind": "quadratic-attractive"}, {"kind": "quadratic-repulsive"},
          {"kind": "polynomial", "coeffs": [0.0, 1.0, -1.0]},
          {"kind": "piecewise-linear-a",
           "nodes": [[0.0, 1.0], [0.3, 0.2], [0.7, -0.1], [1.0, -1.0]]}]
ATOMS = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.05, 0.3)), min_size=1, max_size=4)
DENSITIES = st.tuples(st.floats(-1.0, -0.1), st.floats(0.1, 1.0), st.floats(0.2, 1.2)).flatmap(
    lambda b: st.sampled_from([
        {"type": "uniform", "x_left": b[0], "x_right": b[1], "mass": b[2]},
        {"type": "triangular", "x_left": b[0], "x_peak": 0.0, "x_right": b[1], "mass": b[2]}]))
BOUNDARY = "wave reached the grid boundary"   # pde's warning when a tail reaches an end face
FIRST_RECORD = {"mass": "mass_conservation", "oleinik": "oleinik_osl",
                "pressureless": "momentum_total", "pushforward": "pushforward_x",
                "weak_residual": "weak_residual", "w1_vs_particles": "w1_pde_vs_particles"}


@settings(max_examples=100, deadline=None)
@given(checks=st.lists(st.sampled_from(list(CHECKS)), unique=True, max_size=6),
       flux=st.sampled_from(FLUXES),
       initial=ATOMS.map(lambda a: {"type": "atoms", "atoms": [list(p) for p in a]}) | DENSITIES,
       t_end=st.floats(0.1, 0.5), fractions=st.lists(st.floats(0.0, 1.0), max_size=3),
       n_cells=st.integers(8, 120))
@example(checks=["mass"], flux={"kind": "quadratic-repulsive"},   # the tail reaches x = 4
         initial={"type": "atoms", "atoms": [[1.0, 0.25]]}, t_end=0.5,
         fractions=[0.25, 0.5, 0.75], n_cells=8)
def test_load_refuses_exactly_the_checks_that_raise(checks, flux, initial, t_end, fractions,
                                                    n_cells):
    # On the coarsest grids the scheme's numerical tail can reach an end face, and pde
    # warns; that warning alone is admitted, every other RuntimeWarning still raises.
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", BOUNDARY, RuntimeWarning)
        load_and_run(checks, flux, initial, t_end, fractions, n_cells)
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)
            and not str(w.message).startswith(BOUNDARY)] == []


def load_and_run(checks, flux, initial, t_end, fractions, n_cells):
    raw = {"flux": flux, "initial": initial,
           "grid": {"x_min": -4.0, "x_max": 4.0, "n_cells": n_cells},
           "time": {"t_end": t_end, "output_times": sorted(f * t_end for f in fractions)},
           "diagnostics": {"checks": checks}}
    try:
        scn = parse_scenario(raw)
    except ScenarioError as exc:   # only a precondition refuses these scenarios
        assert str(exc).startswith("diagnostics.checks: ")
        name = str(exc).split()[1]
        assert name in checks
        # and the check it names raises when run anyway
        scn = parse_scenario({**raw, "diagnostics": {"checks": []}})._replace(checks=(name,))
        with pytest.raises((analysis.AnalysisError, particles.OracleError)):
            cli.run_diagnostics(scn, cli.run_pde(scn))
        return
    records = cli.run_diagnostics(scn, cli.run_pde(scn))   # every refusal came at load
    assert {FIRST_RECORD[c] for c in checks} <= {c.name for c in records}
