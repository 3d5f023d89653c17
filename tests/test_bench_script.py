"""Smoke tests of the scripts in benchmarks/: bench.py's layers run on the
workloads' tiny scenarios and small cases, and identity.py's --compare on
synthetic records.

The layer functions are called directly, never bench.py's ``main``, so no
BENCH_*.json is written; identity.py's 19 commands are never run.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load(monkeypatch, name):
    monkeypatch.setattr(sys, "path", list(sys.path))   # bench.py prepends src/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave benchmarks/ as it is
    spec = importlib.util.spec_from_file_location(f"{name}_script", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    module = load(monkeypatch, "bench")
    # the layers run the workloads' seed-1 scenarios, here at their tiny sizes; `asked`
    # lists the workloads a layer took, so a test sees that it built none of its own
    module.asked = []

    def tiny(name):
        module.asked.append(name)
        return module.parse_scenario(module.workloads.scenario(name, module.SEED, tiny=True))

    monkeypatch.setattr(module, "workload", tiny)
    return module


def test_pde_step_layer(bench, monkeypatch):
    # the layer restores a _March from vars(march), so it follows _March's fields
    for name, value in (("STEP_CELLS", 64), ("STEP_WIDTHS", (8, 32)), ("STEP_COUNT", 2),
                        ("STEP_REPEATS", 1)):
        monkeypatch.setattr(bench, name, value)
    results = bench.pde_step_layer()
    assert set(results) == {"quadratic-repulsive", "piecewise-linear-a"}
    for per_width in results.values():
        assert set(per_width) == {"8", "32"}
        assert all(0.0 < us < math.inf for us in per_width.values())


def test_output_layer(bench, monkeypatch):
    monkeypatch.setattr(bench, "REPEATS", 1)
    results = bench.output_layer()
    assert set(results) == {"seconds", "march_s", "streamed_s", "commit_wait_ms", "mb_per_s",
                            "bytes", "writer_ms"}
    assert results["bytes"] > 0 and results["streamed_s"] > results["commit_wait_ms"] / 1e3 >= 0
    assert bench.asked == ["attractive_crosscheck"]


def test_particles_layer(bench, monkeypatch):
    monkeypatch.setattr(bench, "SIZES", (10, 40))
    monkeypatch.setattr(bench, "REPEATS", 1)
    results = bench.particles_layer()
    assert set(results) == {"10", "40", "64_chained"}   # particle_collapse has 64 tiny atoms
    assert all(0.0 < s < math.inf for s in results.values())
    assert bench.asked == ["particle_collapse"]


def test_checks_layer(bench, monkeypatch):
    monkeypatch.setattr(bench, "CHECK_REPEATS", 1)
    results = bench.checks_layer()
    assert bench.asked == list(results) == ["attractive_crosscheck", "diagnostics_validate"]
    for label, per_check in results.items():
        assert list(per_check) == list(bench.CHECKS)
        # the density under a(u) = u - u^2 has neither a flow nor an oracle
        missing = {"pushforward", "w1_vs_particles"} if label == "diagnostics_validate" else set()
        assert {name for name, ms in per_check.items() if ms is None} == missing
        assert all(0.0 < ms < math.inf for ms in per_check.values() if ms is not None)


RECORD = {"run_a": {"exit": 0, "stdout": "s1", "files": {"f.csv": "h1", "g.json": "h2"}},
          "run_b": {"exit": 2, "stdout": "s2", "files": {}}}


@pytest.mark.parametrize("change, listed", [
    (None, None),
    (lambda r: r["run_a"]["files"].update({"f.csv": "h9"}), "run_a/f.csv: differs"),
    (lambda r: r.pop("run_b"), "run_b: only in A"),
    (lambda r: r["run_b"].update(exit=1), "run_b: exit differs (2 -> 1)"),
], ids=["equal", "file-hash", "missing-command", "exit-code"])
def test_identity_compare(monkeypatch, tmp_path, capsys, change, listed):
    identity = load(monkeypatch, "identity")
    changed = json.loads(json.dumps(RECORD))
    if change:
        change(changed)
    paths = []
    for name, record in (("a.json", RECORD), ("b.json", changed)):
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(json.dumps(record))
    code = identity.main(["--compare", *paths])
    out = capsys.readouterr().out
    if listed is None:
        assert code == 0 and out == "identical: 2 commands, 2 files\n"
    else:
        assert code == 1 and out.splitlines() == [listed]
