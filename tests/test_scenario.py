import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualflow
from dualflow import flux as fx
from dualflow.scenario import FLUX_FIELDS, ScenarioError, parse_flux


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
