"""Each check passes the engine's correct output on the scenarios it admits.

Scaling every mass by M and every time by 1/M gives `two_atoms_attractive`
(a(u) = -u) the same motion, so a check that is sound on the unit-mass run
must pass the scaled run too; W1, the push-forward errors and the weak
residual are integrals of u or rho and scale by M, which their default
bounds do.  The scaled runs at M = 2**20, 1e6 and 1e9, the frozen candidate
and the random 16-atom runs each failed under the absolute bounds of the
unit-mass defaults.  The engine's roundoff tolerances on u are relative to M
and its landing test on an output time to that time, so the scaled runs take
the unit run's steps: at M = 1e-20 an absolute widening of [0, M] refused the
run for its step budget, and at M = 1e15 an absolute landing test left half
the output intervals without a step.
"""

import contextlib
import io
import json
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from dualflow import cli
from dualflow.scenario import CHECKS, parse_scenario
from test_scenario import BUNDLED, workloads

SCALED = ("w1_pde_vs_particles", "pushforward_x", "pushforward_x2", "pushforward_sin",
          "weak_residual")   # the records of the checks whose default bounds carry M


def scaled_two_atoms(M: float) -> dict:
    """two_atoms_attractive with every mass times M and every time over M, 41
    output times and every check."""
    raw = json.loads(Path(cli.bundled_scenario("two_atoms_attractive.json")).read_text())
    raw["initial"]["atoms"] = [[x, m * M] for x, m in raw["initial"]["atoms"]]
    t_end = raw["time"]["t_end"] / M
    raw["time"] = {"t_end": t_end, "cfl": raw["time"]["cfl"],
                   "output_times": [k * t_end / 40 for k in range(41)]}
    raw["diagnostics"] = {"checks": list(CHECKS)}
    return raw


@cache
def snapshots(M: float) -> tuple:
    return tuple(cli.run_pde(parse_scenario(scaled_two_atoms(M))))


@cache
def records(M: float, frozen: bool = False) -> tuple:
    """The scaled run's check records; ``frozen`` holds rho_0 at every snapshot time."""
    snaps = list(snapshots(M))
    if frozen:
        snaps = [s._replace(field=snaps[0].field) for s in snaps]
    return tuple(cli.run_diagnostics(parse_scenario(scaled_two_atoms(M)), snaps))


@pytest.mark.parametrize("M", [1e-20, 1e15])
def test_the_scaled_run_takes_the_unit_steps(M):
    steps = [s.step_count for s in snapshots(M)]
    assert steps == [s.step_count for s in snapshots(1.0)]
    assert steps[-1] == 920 and min(np.diff(steps)) > 0   # a step in each of the 40 intervals


@pytest.mark.parametrize("M", [2.0**-20, 2.0**20, 1e-6, 1e6, 1e9, 1e-20, 1e15])
def test_the_scaled_two_atom_run_passes_every_check(M):
    recs = records(M)
    assert len(recs) == len(records(1.0)) and {r.name for r in recs} >= set(SCALED)
    assert [r for r in recs if not r.passed] == []


@pytest.mark.parametrize("M", [2.0**-20, 2.0**20])
def test_mass_scaled_records_are_M_times_the_unit_records(M):
    """At a power of two the scaling is exact, so the records are, bit for bit."""
    pairs = [(r, u) for r, u in zip(records(M), records(1.0), strict=True) if r.name in SCALED]
    assert len(pairs) == 165
    assert all(r.value == M * u.value and r.bound == M * u.bound for r, u in pairs)


@pytest.mark.parametrize("M", [1.0, 2.0**-20])
def test_the_frozen_candidate_fails_w1_at_every_mass(M):
    failed = {r.name for r in records(M, frozen=True) if not r.passed}
    assert "w1_pde_vs_particles" in failed


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_heavy_random_atoms_compare_with_the_oracle(tmp_path, seed):
    """The grid's u and the oracle's merged aggregates sum the masses in different
    orders; W1's equal-mass test is relative, so ulps of 1e6 do not refuse the pair."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-0.9, 0.9, 16))
    m = rng.uniform(0.5, 1.5, 16) / 16 * 1e6
    raw = {"flux": {"kind": "quadratic-attractive"},
           "initial": {"type": "atoms", "atoms": np.column_stack((x, m)).tolist()},
           "grid": {"x_min": -2.0, "x_max": 2.0, "n_cells": 400},
           "time": {"t_end": 5e-7},
           "diagnostics": {"checks": ["w1_vs_particles"]}}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["validate", "--scenario", str(path), "--out", str(tmp_path)])
    assert (code, err.getvalue()) == (0, "")


def test_bundled_and_workload_scenarios_have_unit_mass():
    """So the mass-scaled defaults leave every bound, and every identity output, as it was."""
    raws = [json.loads(p.read_text()) for p in BUNDLED] + [
        workloads.scenario(name, seed, tiny=tiny) for name in workloads.WORKLOADS
        for seed in (1, 7) for tiny in (False, True)]
    assert [parse_scenario(raw).initial.total_mass for raw in raws] == [1.0] * len(raws)
