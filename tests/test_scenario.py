import contextlib
import copy
import io
import json
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
from dualflow import cli, flux as fx
from dualflow.scenario import FLUX_FIELDS, ScenarioError, load_scenario, parse_flux


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


# --- fuzzing the bundled scenarios through `validate` -------------------------------------

BUNDLED = sorted(Path(dualflow.__file__).parent.joinpath("scenarios").glob("*.json"))
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
], ids=["unhashable-type", "x_min-squared-overflows", "x_max-squared-overflows",
        "subnormal-mass"])
def test_mutations_the_fuzzer_found_are_refused_at_load(tmp_path, block, key, value, message):
    """Each of these once escaped `validate` as a TypeError or as numpy's overflow
    RuntimeWarning (in the pushforward x2 test function, or the pressureless
    slack divided by a subnormal cell mass)."""
    raw = json.loads(BUNDLED[0].read_text())   # single_dirac_attractive
    raw[block][key] = value
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert cli.main(["validate", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    assert err.getvalue() == f"error: {message}\n"


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(BUNDLED), count=st.integers(1, 3), data=st.data())
def test_mutated_scenarios_validate_or_are_refused(name, count, data):
    """`validate` on a bundled scenario mutated 1-3 times exits 0, 2, or 1 with one
    `error:` or `i/o error:` line; a refusal at load names the top-level block of a
    mutated field (or "scenario", for the root and its keys) and nothing else
    escapes.  The only warning admitted is pde's boundary-contact RuntimeWarning."""
    raw, named = json.loads(name.read_text()), set()
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
