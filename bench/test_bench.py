"""Self-tests of the benchmark at tiny sizes: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def test_benchmark_json_matches_the_code():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    for w in SPEC["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert len((BENCH.parent / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_scenarios(name, tmp_path):
    a = workloads.write_scenario(str(tmp_path / "a.json"), name, 7)
    workloads.write_scenario(str(tmp_path / "b.json"), name, 7)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert workloads.scenario_bytes(a) != workloads.scenario_bytes(workloads.scenario(name, 8))


def test_oracle_generators_refuse_non_attractive_flux():
    scn = workloads.scenario("attractive_crosscheck", 0)
    workloads.require_attractive(scn)
    for flux in ({"kind": "quadratic-repulsive"},
                 {"kind": "piecewise-linear-a", "nodes": [[0.0, 0.0], [0.5, 1.0], [1.0, -1.0]]},
                 {"kind": "polynomial", "coeffs": [0.0, -1.0]}):
        with pytest.raises(ValueError, match="non-increasing"):
            workloads.require_attractive(dict(scn, flux=flux))


def test_dyadic_masses_sum_to_exactly_one():
    import random

    ms = workloads.dyadic_masses(random.Random(3), 24)
    assert sum(ms) == 1.0 and min(ms) > 0


def test_gate_w1_agrees_with_dualflow():
    from dualflow.measure import AtomicMeasure, GridField, wasserstein1

    rng = np.random.default_rng(0)
    u = np.concatenate(([0.0], np.sort(rng.uniform(0, 1, 49)), [1.0]))
    field = GridField(-1.0, 1.0, 50, u)
    atoms = AtomicMeasure(np.sort(rng.uniform(-0.9, 0.9, 5)), np.full(5, 0.2))
    ours = gate.w1_field_atoms(field.faces, u, atoms.positions, atoms.masses)
    assert ours == pytest.approx(wasserstein1(field, atoms), abs=1e-12)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_reported_with_its_unit(name, trace, tmp_path):
    result = run.measure(name, 1, 0.1, trace, tiny=True, work_root=tmp_path / "w")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(result)


def test_traced_run_covers_all_six_modules(tmp_path):
    result = run.measure("attractive_crosscheck", 1, 0.1, True, tiny=True,
                         work_root=tmp_path / "w")
    m = result["metrics"]
    for mod in ("cli", "pde", "flux", "measure", "particles", "analysis"):
        assert m[f"{mod}.self_s"]["value"] > 0, mod
    assert m["measure.GridField.validate.calls"]["value"] > 0
    assert m["cli.oracle_advance_calls"]["value"] > 1


def _corrupt_mass(out_dir: Path):
    path = out_dir / "fields_faces.csv"
    lines = path.read_text().splitlines()
    t, x, u = lines[-1].split(",")
    lines[-1] = f"{t},{x},{float(u) + 1e-6!r}"
    path.write_text("\n".join(lines) + "\n")


def test_gate_catches_a_mass_that_is_off(tmp_path):
    runner = run.Runner(workloads.WORKLOADS["rarefaction_pde"], 1, tmp_path / "w",
                        time.perf_counter() + 120, tiny=True)
    runner.command()
    assert runner.failed == 0
    problems, _ = gate.check(runner.workload, runner.scn, str(runner.out), 0)
    assert problems == []
    _corrupt_mass(runner.out)
    problems, _ = gate.check(runner.workload, runner.scn, str(runner.out), 0)
    assert any("boundary values" in p for p in problems)


def test_corrupted_runs_are_counted_as_failures(tmp_path, monkeypatch):
    real_spawn = run.spawn
    calls = []

    def spawn_then_corrupt(argv, env, cwd, log, timeout):
        code, wall, rss = real_spawn(argv, env, cwd, log, timeout)
        if "--out" in argv:
            calls.append(argv)
            if len(calls) > 1:   # the first run sets the reference digest
                _corrupt_mass(Path(argv[argv.index("--out") + 1]))
        return code, wall, rss

    monkeypatch.setattr(run, "spawn", spawn_then_corrupt)
    result = run.measure("rarefaction_pde", 1, 0.1, False, tiny=True,
                         work_root=tmp_path / "w")
    assert not result["correct"]
    assert result["attempted"] == len(calls) >= 2
    assert result["failed"] == result["attempted"] - 1


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "rarefaction_pde", "--seed", "0",
                     "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
