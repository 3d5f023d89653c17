"""bench/tracer.py can trace every function it names in dualflow.

The tracer rebinds each entry of ``tracer.FUNCTIONS`` at run time, through
the namespace of the module that defines it, so a rename, a deletion or a
move behind a module ``__getattr__`` in ``src/`` would otherwise break only
traced runs, and a call through a name that it does not rebind would go
untimed.  The tracer is loaded read-only: no bytecode is written next to it.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dualflow

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    str(Path(m.__file__).parents[1]) for m in (dualflow, np)))
LOAD = """
import importlib.util, sys
sys.dont_write_bytecode = True
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
"""
INSTALL = LOAD + """
tracer.Tracer().install()
print("installed", len(tracer.FUNCTIONS))
"""
# the spans per traced function of one command, cli.main(sys.argv[2:])
TRACED_COMMAND = LOAD + """
traced = tracer.Tracer()
traced.install()
from dualflow import cli
assert cli.main(sys.argv[2:]) == 0
counts = dict.fromkeys(tracer.FUNCTIONS, 0)
for span in traced.spans:
    counts[tracer.FUNCTIONS[int(span[0])]] += 1
print(counts)
"""


def test_every_traced_function_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    for qual in tracer.FUNCTIONS:
        module, _, name = qual.partition(".")
        obj = importlib.import_module(f"dualflow.{module}")
        for part in name.split("."):
            assert hasattr(obj, part), f"{qual} is traced but not defined"
            obj = getattr(obj, part)
        assert callable(obj), qual


def test_the_tracer_installs_in_a_fresh_interpreter():
    # hasattr also passes a name that a module __getattr__ serves, which install()
    # cannot rebind; this process has imported (and may have traced) dualflow already
    out = subprocess.run([sys.executable, "-S", "-c", INSTALL, str(TRACER)], env=ENV,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[0] == "installed" and int(out.stdout.split()[1]) > 0, out.stdout


def test_a_traced_command_records_the_spans_of_the_moved_code(tmp_path):
    # pde.FluxPlan calls flux's range bounds through the flux module, and
    # measure's names call their bodies in dualflow.transport: the tracer, which rebinds
    # names only in the modules it lists, must still see every call
    scenario = tmp_path / "scn.json"
    scenario.write_text(json.dumps({
        "flux": {"kind": "quadratic-attractive"},
        "initial": {"type": "atoms", "atoms": [[-0.5, 0.5], [0.5, 0.5]]},
        "grid": {"x_min": -2.0, "x_max": 2.0, "n_cells": 100},
        "time": {"t_end": 1.0, "output_times": [0.0, 0.5, 1.0]},
        "diagnostics": {"checks": ["mass", "pushforward"]},
        "output": {"formats": ["json"]}}))
    out = subprocess.run([sys.executable, "-S", "-c", TRACED_COMMAND, str(TRACER), "run",
                          "--engine", "both", "--scenario", str(scenario),
                          "--out", str(tmp_path / "out")],
                         env=ENV, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    counts = ast.literal_eval(out.stdout.splitlines()[-1])
    for qual in ("flux.max_wave_speed", "flux.max_slope_of_a", "measure.wasserstein1",
                 "measure.quantile"):
        assert counts[qual] >= 1, (qual, counts)
