"""Smoke test of benchmarks/bench.py: its layers run on small cases.

The layer functions are called directly, never ``main``, so no
BENCH_*.json is written.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "bench.py"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script prepends src/
    spec = importlib.util.spec_from_file_location("bench_script", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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


def test_particles_layer(bench, monkeypatch):
    monkeypatch.setattr(bench, "SIZES", (10, 40))
    monkeypatch.setattr(bench, "REPEATS", 1)
    results = bench.particles_layer()
    assert set(results) == {"10", "40"}
    assert all(0.0 < s < math.inf for s in results.values())
