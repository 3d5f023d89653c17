import contextlib
import copy
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dualflow
from dualflow import cli, flux as fx, pde
from dualflow.scenario import (FLUX_FIELDS, MAX_CELLS, MAX_SNAPSHOT_VALUES, ScenarioError,
                               load_scenario, parse_flux, parse_scenario)


def test_flux_block_fail_closed():
    assert parse_flux({"kind": "quadratic-attractive"}) == fx.quadratic_attractive()
    with pytest.raises(ScenarioError):
        parse_flux({"kind": "quadratic-attractive", "extra": 1})
    with pytest.raises(ScenarioError, match="coeffs"):
        parse_flux({"kind": "polynomial"})
    with pytest.raises(ScenarioError):
        parse_flux({"kind": "tabulated"})
    # a field of another kind is not read, so it is refused by name
    with pytest.raises(ScenarioError, match="coeffs"):
        parse_flux({"kind": "quadratic-repulsive", "coeffs": [0, 2]})
    with pytest.raises(ScenarioError, match="nodes"):
        parse_flux({"kind": "polynomial", "coeffs": [0.0, 1.0], "nodes": [[0, 1], [1, 0]]})
    with pytest.raises(ScenarioError, match="unknown flux kind"):
        parse_flux({"kind": ["polynomial"]})


def test_flux_fields_cover_every_kind():
    assert tuple(FLUX_FIELDS) == fx.KINDS


LOAD_BUNDLED = """
import json, os, sys
from dualflow import scenario
folder = os.path.join(os.path.dirname(scenario.__file__), "scenarios")
names = sorted(n for n in os.listdir(folder) if n.endswith(".json"))
for name in names:
    scenario.load_scenario(os.path.join(folder, name))
print(json.dumps([names, [m for m in ("argparse", "tempfile", "dualflow.cli")
                          if m in sys.modules]]))
"""


def test_scenarios_load_without_the_cli():
    """dualflow.scenario reads every bundled scenario without importing the
    CLI or what only the CLI needs (argparse, tempfile)."""
    path = os.pathsep.join(str(Path(m.__file__).parents[1]) for m in (dualflow, np))
    # -S: no site hooks, which may import tempfile themselves
    out = subprocess.run([sys.executable, "-S", "-c", LOAD_BUNDLED], check=True,
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    names, loaded = json.loads(out.stdout)
    assert len(names) == 4 and loaded == []


# --- fuzzing the bundled and workload scenarios through `validate` -----------------------

BUNDLED = sorted(Path(dualflow.__file__).parent.joinpath("scenarios").glob("*.json"))


def bench_workloads():
    """bench/workloads.py, read without writing bytecode next to it."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)   # @dataclass
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


# the fuzzer's seeds: the bundled scenarios and the workloads' at seed 1, tiny
workloads = bench_workloads()
SEEDS = {**{p.stem: json.loads(p.read_text()) for p in BUNDLED},
         **{name: workloads.scenario(name, 1, tiny=True) for name in workloads.WORKLOADS}}
EXTREMES = [0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 10**400 - 1, -(10**400 - 1)]
VALUES = [None, True, "a", 1, 0.5, [], [1.0], {}, {"a": 1}]   # of every JSON type
NEW_KEYS = ["zzz", "kind", "coeffs", "cfl", "output_times", "checks", "tolerances", "mass",
            "oleinik", "formats", "directory", "diagnostics", "output"]
BOUNDARY = "wave reached the grid boundary"   # pde's one documented warning


def json_type(value):
    return "number" if type(value) in (int, float) else type(value).__name__


def nodes(value, path=()):
    """(path, value) of every node of a JSON tree, the root first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from nodes(child, (*path, key))


def replace(root, path, value):
    if not path:
        return value
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return root


def mutate(data, root):
    """One mutation of ``root`` drawn from ``data``: delete or add a key, swap a JSON
    type, set a number to an extreme, empty, duplicate or reorder a list.  Returns the
    new root and the path of the mutated field (of the key, for a key added or deleted)."""
    path, value = data.draw(st.sampled_from(list(nodes(root))))
    ops = ["swap"]
    if isinstance(value, dict):
        ops += ["add", "delete"] if value else ["add"]
    if isinstance(value, list) and value:
        ops += ["empty", "duplicate", "reorder"]
    if json_type(value) == "number":
        ops += ["extreme"]
    op = data.draw(st.sampled_from(ops))
    if op == "swap":
        new = data.draw(st.sampled_from([v for v in VALUES if json_type(v) != json_type(value)]))
    elif op == "add":
        key = data.draw(st.sampled_from(NEW_KEYS))
        new = {**value, key: data.draw(st.sampled_from(VALUES + EXTREMES))}
    elif op == "delete":
        key = data.draw(st.sampled_from(sorted(value)))
        new = {k: v for k, v in value.items() if k != key}
    elif op == "extreme":
        new = data.draw(st.sampled_from(EXTREMES))
    elif op == "empty":
        new = []
    elif op == "duplicate":
        i = data.draw(st.integers(0, len(value) - 1))
        new = [*value[:i + 1], value[i], *value[i + 1:]]
    else:
        new = data.draw(st.permutations(value))
    field = (*path, key) if op in ("add", "delete") else path
    return replace(root, path, copy.deepcopy(new)), field   # no node is shared or reused


@pytest.mark.parametrize("block, key, value, message", [
    ("initial", "type", [], "initial.type must be atoms|uniform|triangular, got []"),
    ("grid", "x_min", -1e308, "grid.x_min must lie in [-1e+100, 1e+100], got -1e+308"),
    ("grid", "x_max", 1e200, "grid.x_max must lie in [-1e+100, 1e+100], got 1e+200"),
    ("initial", "atoms", [[0.0, 5e-324]],
     "initial: the total mass must lie in [1e-100, 1e+100], got 5e-324"),
    ("initial", "atoms", [[-0.5, 1e308], [0.5, 1e308]],
     "initial: the total mass must lie in [1e-100, 1e+100], got inf"),
], ids=["unhashable-type", "x_min-squared-overflows", "x_max-squared-overflows",
        "subnormal-mass", "total-mass-overflows"])
def test_mutations_the_fuzzer_found_are_refused_at_load(tmp_path, block, key, value, message):
    """Each of these once escaped `validate` as a TypeError or as numpy's overflow
    RuntimeWarning (in the pushforward x2 test function, the pressureless slack
    divided by a subnormal cell mass, or the sum of the atoms' masses)."""
    raw = json.loads(BUNDLED[0].read_text())   # single_dirac_attractive
    raw[block][key] = value
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert cli.main(["validate", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert err.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize("flux, message", [
    ({"kind": "piecewise-linear-a", "nodes": [[0.0, 1.0]]},
     "flux: piecewise-linear-a needs at least 2 nodes"),
    ({"kind": "polynomial", "coeffs": []}, "flux: polynomial model needs coefficients"),
], ids=["one-node", "no-coeffs"])
def test_flux_blocks_without_a_model_are_refused_at_load(tmp_path, flux, message):
    raw = json.loads(BUNDLED[0].read_text())
    raw["flux"] = flux
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ScenarioError) as exc:
        load_scenario(str(path))
    assert str(exc.value) == message


TWO_ATOMS = json.loads(Path(cli.bundled_scenario("two_atoms_attractive.json")).read_text())
BELOW_ONE = math.nextafter(1.0, 0.0)


def refusal(tmp_path, argv):
    """cli.main(argv + --out) with warnings as errors: its code, its stderr and
    whether it wrote the output directory."""
    err, out = io.StringIO(), tmp_path / "out"
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main([*argv, "--out", str(out)])
    return code, err.getvalue(), out.exists()


@pytest.mark.parametrize("changes, message", [
    ({"grid": {"x_min": -1e50, "x_max": 1.0, "n_cells": 800},
      "diagnostics": {"checks": ["mass", "oleinik", "pressureless"]}},
     "initial: atom on or outside the grid's last face 0.0, which rounds below x_max "
     "(grid.x_min = -1e+50, grid.x_max = 1.0, grid.n_cells = 800)"),
    ({"grid": {"x_min": -2.3, "x_max": 1.0, "n_cells": 708},
      "initial": {"type": "atoms", "atoms": [[-0.25, 0.5], [BELOW_ONE, 0.5]]}},
     "initial: atom on or outside the grid's last face 0.9999999999999996, which rounds "
     "below x_max (grid.x_min = -2.3, grid.x_max = 1.0, grid.n_cells = 708)"),
    ({"initial": {"type": "atoms", "atoms": [[-0.25, 0.5], [0.25, 1e-17]]}},
     "initial.atoms: the atom at x = 0.25 of mass 1e-17 is below the resolution of the "
     "cumulative mass 0.5 of the atoms left of it"),
    ({"initial": {"type": "atoms", "atoms": [[-0.25, 0.5], [0.25, 1e-300]]}},
     "initial.atoms: the atom at x = 0.25 of mass 1e-300 is below the resolution of the "
     "cumulative mass 0.5 of the atoms left of it"),
    # it raises the cumulative mass 1.0 by an ulp, but its mid level rounds up to the total
    ({"initial": {"type": "atoms", "atoms": [[-0.25, 1.0], [0.25, 2.6645352591003756e-16]]}},
     "initial.atoms: the atom at x = 0.25 of mass 2.6645352591003756e-16 is below the "
     "resolution of the cumulative mass 1.0 of the atoms left of it"),
], ids=["x_min-1e50", "708-cells", "mass-1e-17", "mass-1e-300", "mid-level-at-the-total"])
def test_atoms_the_grid_would_lose_are_refused_at_load(tmp_path, changes, message):
    """Each of these once lost an atom from u: one beyond a last face that rounds below
    grid.x_max (validate passed, mass_conservation reading 0 against a first snapshot
    that had lost it too), or too light for the cumulative mass to resolve (a quantile
    error that named no field)."""
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({**TWO_ATOMS, **changes}))
    assert refusal(tmp_path, ["validate", "--scenario", str(path)]) == (
        1, f"error: {message}\n", False)


def test_resolutions_whose_last_face_drops_an_atom_are_refused_before_any_march(
        tmp_path, monkeypatch):
    # on 800 cells the last face is 1.0000000000000004; on 708 it is 0.9999999999999996
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({**TWO_ATOMS, "grid": {"x_min": -2.3, "x_max": 1.0, "n_cells": 800},
                                "initial": {"type": "atoms",
                                            "atoms": [[-0.25, 0.5], [BELOW_ONE, 0.5]]}}))
    monkeypatch.setattr(pde, "march", None)   # a march would raise TypeError
    assert refusal(tmp_path, ["convergence", "--scenario", str(path),
                                       "--resolutions", "200,400,708"]) == (
        1, "error: initial: atom on or outside the grid's last face 0.9999999999999996, "
        "which rounds below x_max (grid.x_min = -2.3, grid.x_max = 1.0, --resolutions = 708)\n",
        False)


# 10^6 cells and 2 001 output times: 2.0e9 face values of snapshots, 16 GB of u alone
OVER_THE_SNAPSHOT_CAP = {
    "flux": {"kind": "quadratic-attractive"},
    "initial": {"type": "uniform", "x_left": -0.5, "x_right": 0.5, "mass": 1.0},
    "grid": {"x_min": -1.0, "x_max": 1.0, "n_cells": 10**6},
    "time": {"t_end": 1e-3, "output_times": [k * 5e-7 for k in range(2001)]}}


def test_snapshots_over_the_cap_are_refused_at_load(tmp_path, monkeypatch):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(OVER_THE_SNAPSHOT_CAP))
    monkeypatch.setattr(pde, "run", None)   # a march would raise TypeError
    monkeypatch.setattr(pde, "march", None)
    for argv in (["validate"], ["run", "--engine", "pde"]):
        code, err, wrote = refusal(tmp_path, [*argv, "--scenario", str(path)])
        assert (code, wrote) == (1, False)
        assert err == ("error: time.output_times: 2001 snapshot times (time.t_end included) of "
                       "1000001 faces (grid.n_cells = 1000000) hold 2001002001 face values, "
                       f"more than MAX_SNAPSHOT_VALUES = {MAX_SNAPSHOT_VALUES}\n")


@pytest.mark.parametrize("n_cells, times, admitted", [
    (MAX_SNAPSHOT_VALUES // 10 - 1, 10, True), (MAX_SNAPSHOT_VALUES // 10 - 1, 11, False),
    (MAX_CELLS, 1, True), (MAX_CELLS, 2, False)],
    ids=["10-times", "11-times", "largest-grid-once", "largest-grid-twice"])
def test_the_snapshot_cap_counts_faces_times_distinct_times(n_cells, times, admitted):
    # n_cells + 1 faces at `times` distinct times, t_end among them, each listed twice;
    # parsed only, never run
    raw = copy.deepcopy(OVER_THE_SNAPSHOT_CAP)
    raw["grid"]["n_cells"] = n_cells
    raw["time"]["output_times"] = sorted(2 * [k * 1e-4 for k in range(times - 1)] + [1e-3])
    with contextlib.nullcontext() if admitted else pytest.raises(ScenarioError,
                                                                 match="time.output_times"):
        parse_scenario(raw)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(SEEDS)), count=st.integers(1, 3), data=st.data())
def test_mutated_scenarios_validate_or_are_refused(name, count, data):
    """`validate` on a bundled or workload scenario mutated 1-3 times exits 0, 2, or 1
    with one `error:` or `i/o error:` line; a refusal at load names the top-level block
    of a mutated field (or "scenario", for the root and its keys) and nothing else
    escapes.  The only warning admitted is pde's boundary-contact RuntimeWarning."""
    raw, named = copy.deepcopy(SEEDS[name]), set()
    for _ in range(count):
        raw, field = mutate(data, raw)
        named.update(map(str, field[:1] if len(field) > 1 else ("scenario", *field)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scn.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        try:
            load_scenario(path)
            refused = False
        except ScenarioError:
            refused = True
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.filterwarnings("always", BOUNDARY, RuntimeWarning)
            code = cli.main(["validate", "--scenario", path, "--out", os.path.join(tmp, "out")])
    assert [str(w.message) for w in caught if not str(w.message).startswith(BOUNDARY)] == []
    lines = err.getvalue().splitlines()
    if refused:
        assert code == 1
        [line] = lines
        assert line.startswith("error: ") and any(block in line for block in named), line
    else:
        assert code in (0, 1, 2)
        if code == 1:
            [line] = lines
            assert line.startswith(("error: ", "i/o error: ")), line
