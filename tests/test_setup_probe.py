"""bench/run.py's set-up probe runs on the tiny scenario of every workload.

The probe times ``cli.initial_grid(cli.load_scenario(path))`` for the
benchmark's ``setup_s``, so a change to either function would otherwise show
only in a benchmark run.  bench/ is only read: run.py is parsed, not
imported, and no bytecode is written next to workloads.py.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def setup_probe() -> str:
    """The source of SETUP_PROBE, read from bench/run.py without running it."""
    for node in ast.parse((ROOT / "bench" / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["SETUP_PROBE"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no SETUP_PROBE")


def test_setup_probe_prints_one_positive_time(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)   # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    probe = setup_probe()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    assert workloads.WORKLOADS
    for name in workloads.WORKLOADS:
        path = tmp_path / f"{name}.json"
        workloads.write_scenario(str(path), name, 1, tiny=True)
        out = subprocess.run([sys.executable, "-c", probe, str(path)], cwd=tmp_path, env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, (name, out.stderr)
        printed = out.stdout.split()
        assert len(printed) == 1 and float(printed[0]) > 0, (name, out.stdout)
