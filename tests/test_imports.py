"""Each command loads only the modules it runs.

``import dualflow`` loads no submodule; its names load their module on first
use.  ``cli`` imports the PDE engine, the particle oracle, the diagnostics,
the CSV formatter, the convergence study and the Riemann classifier inside
the functions that run them, ``flux`` the piecewise-linear A only for that
kind, and ``scenario`` reads the check table without ``analysis``.
``measure`` loads the bodies of its atoms, W1 and quantile functions on
their first call.  numpy is imported by the first function that builds an
array, with the collector off: ``cli`` and ``particles`` bind no numpy,
`run --engine particles` builds no array under a quadratic a, and
``cli.entry``, not ``cli.main``, sets one BLAS thread before it.
Each test that looks at ``sys.modules`` or the environment runs one fresh
interpreter, since this test process has imported every module already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualflow
from dualflow import analysis
from dualflow.scenario import CHECKS

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    str(Path(m.__file__).parents[1]) for m in (dualflow, np)))
# the names dualflow/__init__ bound by eager imports, each with its module
OLD_EXPORTS = {
    "flux": ["FluxError", "FluxModel", "eval_A", "eval_a", "godunov_flux", "piecewise_linear",
             "polynomial", "quadratic_attractive", "quadratic_repulsive"],
    "measure": ["AtomicMeasure", "GridField", "MeasureError", "extract_atoms", "quantile",
                "sample_to_grid", "wasserstein1"],
    "particles": ["AggregateSystem", "MergeEvent", "OracleError", "advance", "collapse_time",
                  "next_event", "velocities"],
    "pde": ["SolverState", "run", "step"],
}
LOADED = """
import sys
exec(sys.argv[1])
print(sorted(m[9:] for m in sys.modules if m.startswith("dualflow.")))
"""


def fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-S", "-c", code, *argv], env=ENV,
                          capture_output=True, text=True)


def submodules_after(code: str) -> list[str]:
    """The dualflow submodules a fresh interpreter holds after running ``code``."""
    out = fresh(LOADED, code)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_import_dualflow_loads_no_submodule():
    assert submodules_after("import dualflow") == []


def test_cli_import_loads_no_engine_and_no_check():
    assert submodules_after("import dualflow.cli") == ["cli", "flux", "measure", "scenario"]


def scenario_file(tmp_path, **overrides) -> str:
    raw = {"flux": {"kind": "quadratic-attractive"},
           "initial": {"type": "atoms", "atoms": [[-0.5, 0.5], [0.5, 0.5]]},
           "grid": {"x_min": -2.0, "x_max": 2.0, "n_cells": 100},
           "time": {"t_end": 1.0, "output_times": [0.0, 0.5, 1.0]}, **overrides}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(raw))
    return str(path)


JSON_ONLY = {"output": {"formats": ["json"]}}


COMMAND_LINES = [
    (["run", "--engine", "particles"], {},
     ["cli", "csvtext", "flux", "measure", "particles", "scenario"]),
    (["run", "--engine", "particles"], JSON_ONLY, ["cli", "flux", "measure", "particles", "scenario"]),
    (["run", "--engine", "pde"], {},
     ["analysis", "cli", "csvtext", "flux", "measure", "pde", "scenario", "transport"]),
    (["run", "--engine", "pde"], JSON_ONLY,
     ["analysis", "cli", "flux", "measure", "pde", "scenario"]),
    (["validate"], {}, ["analysis", "cli", "flux", "measure", "pde", "scenario"]),
    (["validate"], {"flux": {"kind": "piecewise-linear-a", "nodes": [[0.0, 0.0], [1.0, -1.0]]}},
     ["analysis", "cli", "flux", "measure", "pde", "pwl", "scenario"]),
    (["convergence", "--resolutions", "50,100,200"], {},
     ["cli", "convergence", "csvtext", "flux", "measure", "particles", "pde", "scenario",
      "transport"]),
    (["riemann", "--flux", '{"kind": "quadratic-attractive"}', "0", "1"], {},
     ["analysis", "cli", "flux", "measure", "riemann", "scenario"]),
]
COMMAND_IDS = ["run-particles", "run-particles-json", "run-pde", "run-pde-json", "validate",
               "validate-pwl", "convergence", "riemann"]


def command_code(tmp_path, argv, overrides) -> str:
    """Code that runs one of COMMAND_LINES through cli.main, asserting exit 0."""
    if argv[0] != "riemann":
        argv = [*argv, "--scenario", scenario_file(tmp_path, **overrides),
                "--out", str(tmp_path / "out")]
    return f"from dualflow import cli\nassert cli.main({argv!r}) == 0"


@pytest.mark.parametrize("argv, overrides, loaded", COMMAND_LINES, ids=COMMAND_IDS)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, overrides, loaded):
    # the CSV formatter only with "csv" in the formats, the piecewise-linear A only
    # for that kind; convergence and riemann only for their own commands; the flux plan only with
    # the PDE engine, and the atoms, W1 and quantile bodies (transport) only for the
    # field CSVs, a W1 check or the flow reconstruction: neither for the particle
    # engine alone nor for riemann
    assert submodules_after(command_code(tmp_path, argv, overrides)) == loaded


@pytest.mark.parametrize("argv, overrides", [line[:2] for line in COMMAND_LINES], ids=COMMAND_IDS)
def test_no_command_loads_argparse_gettext_or_locale(tmp_path, argv, overrides):
    # cli parses its command line from its own table; argparse's help strings load
    # gettext, and gettext loads locale
    code = command_code(tmp_path, argv, overrides) + """
import sys
print([m for m in ("argparse", "gettext", "locale") if m in sys.modules])"""
    out = fresh(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"


def imports_of(path: Path) -> set[str]:
    """The absolute names of the dualflow modules and names that ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "dualflow" + ("." + node.module if node.module else "") if node.level \
                else node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_no_module_imports_the_cli():
    # under `python -m dualflow.cli` the cli runs as __main__: importing dualflow.cli
    # would compile and run it a second time
    sources = sorted(Path(dualflow.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        cli_imports = {n for n in imports_of(path) if n == "dualflow.cli"
                       or n.startswith("dualflow.cli.")}
        assert not cli_imports, (path.name, cli_imports)


def test_validate_loads_the_oracle_for_w1_vs_particles(tmp_path):
    argv = ["validate", "--scenario", scenario_file(tmp_path, diagnostics={
        "checks": ["mass", "w1_vs_particles"]}), "--out", str(tmp_path / "out")]
    code = f"from dualflow import cli\nassert cli.main({argv!r}) == 0"
    assert "particles" in submodules_after(code)


def test_validate_without_checks_loads_no_analysis(tmp_path):
    # analysis is loaded by the first check that runs; diagnostics.json needs none
    argv = ["validate", "--scenario", scenario_file(tmp_path, diagnostics={"checks": []}),
            "--out", str(tmp_path / "out")]
    code = f"from dualflow import cli\nassert cli.main({argv!r}) == 0"
    assert submodules_after(code) == ["cli", "flux", "measure", "pde", "scenario"]
    assert json.loads((tmp_path / "out" / "diagnostics.json").read_text())["checks"] == []


def test_every_old_export_resolves_lazily():
    code = f"""
import sys, dualflow
for module, names in {OLD_EXPORTS!r}.items():
    assert "dualflow." + module not in sys.modules, module
    owner = getattr(dualflow, module)
    assert owner is sys.modules["dualflow." + module], module
    for name in names:
        exec(f"from dualflow import {{name}} as imported")
        assert imported is getattr(dualflow, name) is getattr(owner, name), name
assert dualflow.__version__ == "0.1.0"
assert not hasattr(dualflow, "no_such_name")
print("ok")
"""
    out = fresh(code)
    assert out.returncode == 0 and out.stdout.split() == ["ok"], out.stderr


def test_analysis_serves_the_riemann_names_on_first_use():
    # the acceptance test reads analysis.nonuniqueness_demo; validate never loads riemann
    code = """
import sys
from dualflow import analysis
assert "dualflow.riemann" not in sys.modules
for name in ("admissible_speed_range", "nonuniqueness_demo"):
    assert getattr(analysis, name) is getattr(sys.modules["dualflow.riemann"], name), name
assert not hasattr(analysis, "classify_riemann")
print("ok")
"""
    out = fresh(code)
    assert out.returncode == 0 and out.stdout.split() == ["ok"], out.stderr


def test_every_check_names_a_runner_in_analysis():
    assert CHECKS
    for name, check in CHECKS.items():
        assert callable(getattr(analysis, check.runner, None)), (name, check.runner)


def test_solver_error_is_one_error_line_in_a_fresh_process(tmp_path):
    # a t_end whose step budget exceeds pde.MAX_STEPS: pde.run raises SolverError
    path = scenario_file(tmp_path, time={"t_end": 1e300})
    out = fresh("import sys; from dualflow import cli; sys.exit(cli.main(sys.argv[1:]))",
                "validate", "--scenario", path, "--out", str(tmp_path / "out"))
    assert out.returncode == 1 and out.stdout == ""
    [line] = out.stderr.splitlines()
    assert line.startswith("error: t_end = 1e+300 needs a budget of ") and "MAX_STEPS" in line


# the numpy-free command lines: the particle engine under a quadratic a, with
# and without CSV files; under a piecewise-linear a it evaluates A on arrays
PARTICLE_LINES = [line[:2] for line in COMMAND_LINES if line[0][-1] == "particles"]
PWL_PARTICLES = (["run", "--engine", "particles"],
                 {"flux": {"kind": "piecewise-linear-a", "nodes": [[0.0, 1.0], [0.5, 0.0], [1.0, -1.0]]}})
NUMPY_LOAD = """
import gc, sys
passes = []   # the collections that begin while numpy is still loading
def seen(phase, info):
    numpy = sys.modules.get("numpy")
    if phase == "start" and getattr(getattr(numpy, "__spec__", None), "_initializing", False):
        passes.append(info["generation"])
gc.callbacks.append(seen)
exec(sys.argv[1])
print(("numpy" in sys.modules, passes))
"""


def numpy_load(code: str) -> tuple[bool, list]:
    """Whether a fresh interpreter that runs ``code`` loads numpy, and the
    generations of the collections that run while it loads."""
    out = fresh(NUMPY_LOAD, code)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, overrides", PARTICLE_LINES,
                         ids=["csv", "json"])
def test_the_particle_engine_runs_without_numpy(tmp_path, argv, overrides):
    assert numpy_load(command_code(tmp_path, argv, overrides)) == (False, [])
    assert (tmp_path / "out" / "trajectory.csv").exists() == ("output" not in overrides)


def test_the_oracle_and_the_cli_bind_no_numpy():
    from dualflow import cli, particles
    for module in (cli, particles):
        assert "np" not in vars(module), module.__name__


def test_the_oracle_steps_from_float_lists_without_numpy():
    code = """
from dualflow import flux, measure, particles
atoms = measure.AtomicMeasure([-0.375, 0.0, 0.375], [0.25, 0.5, 0.25])
system = particles.AggregateSystem.create(atoms, flux.quadratic_attractive())
assert particles.next_event(system) == (1.0, [(0, 1), (1, 2)])
final, events = particles.advance(system, 2.0)
assert (final.atoms.xs, final.vs, len(events)) == ([-1.0], [-0.5], 1)
"""
    assert numpy_load(code) == (False, [])


@pytest.mark.parametrize("argv, overrides", [line[:2] for line in COMMAND_LINES
                                             if line[0][-1] != "particles"] + [PWL_PARTICLES],
                         ids=[i for i in COMMAND_IDS if not i.startswith("run-particles")]
                         + ["run-particles-pwl"])
def test_every_other_command_loads_numpy_without_collections(tmp_path, argv, overrides):
    assert numpy_load(command_code(tmp_path, argv, overrides)) == (True, [])


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the BLAS variables of the child as it exits, read by a handler registered before its code
BLAS_AT_EXIT = f"""
import atexit, os, sys
atexit.register(lambda: print([os.environ.get(name) for name in {BLAS_THREADS!r}]))
exec(sys.argv[1])
"""
RIEMANN = ["riemann", "--flux", '{"kind": "quadratic-attractive"}', "0", "1"]


@pytest.mark.parametrize("code, user, seen", [
    (f"import sys\nsys.argv[1:] = {RIEMANN!r}\nfrom dualflow import cli\ncli.entry()",
     {}, ["1", "1", "1"]),
    (f"import sys\nsys.argv[1:] = {RIEMANN!r}\nfrom dualflow import cli\ncli.entry()",
     {"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
    (f"from dualflow import cli\nassert cli.main({RIEMANN!r}) == 0", {}, [None, None, None]),
    ("import dualflow\ndualflow.run", {}, [None, None, None]),
], ids=["entry", "entry-keeps-the-users-value", "main", "import"])
def test_only_the_entry_sets_one_blas_thread(code, user, seen):
    env = {k: v for k, v in ENV.items() if k not in BLAS_THREADS} | user
    out = subprocess.run([sys.executable, "-S", "-c", BLAS_AT_EXIT, code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert ast.literal_eval(out.stdout.splitlines()[-1]) == seen
