"""Smoke tests of the scripts in benchmarks/: bench.py's layers run on the
workloads' tiny scenarios and small cases, identity.py's --compare on
synthetic records, and ab.py on HEAD against HEAD, one short pair, its
--layers turns, its identity verdict and its summaries of the pairs split by
the host probe, with stand-ins for the scripts.

The layer functions are called directly, never bench.py's ``main``, so no
BENCH_*.json is written in the repository (ab.py writes its record in a
temporary directory); identity.py's 19 commands are never run.
"""

import importlib.util
import json
import math
import subprocess
import sys
import tempfile
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
        return module.workloads.scenario(name, module.SEED, tiny=True)

    monkeypatch.setattr(module, "workload_scenario", tiny)
    return module


def test_pde_step_layer(bench, monkeypatch):
    # the layer restores a _March from vars(march), so it follows _March's fields
    for name, value in (("STEP_CELLS", 64), ("STEP_WIDTHS", (8, 32)), ("STEP_COUNT", 2),
                        ("STEP_REPEATS", 1), ("MARCH_REPEATS", 1)):
        monkeypatch.setattr(bench, name, value)
    results = bench.pde_step_layer()
    assert bench.asked == [*bench.STEP_WORKLOADS, *bench.MARCH_WORKLOADS]
    marches = results.pop("march")
    assert set(results) == set(bench.fx.KINDS)
    for per_width in results.values():
        assert set(per_width) == {"8", "32"}
        assert all(0.0 < us < math.inf for us in per_width.values())
    assert list(marches) == list(bench.MARCH_WORKLOADS)
    for march in marches.values():
        assert march["steps"] > 0 and 0.0 < march["us_per_step"] < math.inf


def test_output_layer(bench, monkeypatch):
    monkeypatch.setattr(bench, "REPEATS", 1)
    results = bench.output_layer()
    assert set(results) == {"seconds", "mb_per_s", "bytes"}
    assert results["bytes"] > 0 and 0.0 < results["seconds"] < math.inf
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


def test_process_layer(bench, monkeypatch):
    monkeypatch.setattr(bench, "PROCESS_SPAWNS", 1)
    results = bench.process_layer()
    assert bench.asked == list(results) == list(bench.workloads.WORKLOADS)
    for name, per_process in results.items():
        assert set(per_process) == {"wall_ms", "wall_ms_blas_unset", "teardown_ms",
                                    "lines_compiled", "numpy_loaded"}
        assert 0.0 < per_process["teardown_ms"] < per_process["wall_ms"] < math.inf
        assert 0.0 < per_process["wall_ms_blas_unset"] < math.inf
        # the particle engine builds no array
        assert per_process["numpy_loaded"] is (name != "particle_collapse")
    # the particle engine's run compiles these modules (cli as __main__) and no other
    sources = bench.ROOT / "src" / "dualflow"
    assert results["particle_collapse"]["lines_compiled"] == sum(
        len((sources / f"{m}.py").read_text().splitlines())
        for m in ("__init__", "cli", "csvtext", "flux", "measure", "particles", "scenario"))


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


def test_ab_head_against_head(monkeypatch, tmp_path):
    ab = load(monkeypatch, "ab")
    if subprocess.run(["git", "-C", str(ab.ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")
    monkeypatch.setattr(ab, "OUT_DIR", tmp_path)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    # identity.py's 19 commands are never run here (test_ab_identity_verdict)
    monkeypatch.setattr(ab, "identity", lambda trees: {"verdict": "stub", "identical": True})
    assert ab.main(["HEAD", "HEAD", "--workload", "rarefaction_pde", "--pairs", "1",
                    "--seconds", "0.01", "--label", "smoke"]) == 0
    assert not any((tmp_path / "tmp").iterdir())   # the extracted trees are gone
    result = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert result["a"]["commit"] == result["b"]["commit"] and result["same_outputs"]
    assert result["identity"] == {"verdict": "stub", "identical": True}
    (pair,) = result["pairs"]
    assert pair["first"] == "a" and pair["a"]["correct"] and pair["b"]["correct"]
    assert set(result["summary"]) == {"setup_s", "run_s", "peak_rss_mib", "output_bytes"}
    for s in result["summary"].values():
        assert s["pairs"] == 1 and s["b_wins"] in (0, 1)
        assert s["a"]["iqr"] == s["b"]["iqr"] == 0.0
    assert ab.spread([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "iqr": 1.5}


def test_ab_layers_take_turns(monkeypatch, tmp_path):
    ab = load(monkeypatch, "ab")
    if subprocess.run(["git", "-C", str(ab.ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")
    monkeypatch.setattr(ab, "OUT_DIR", tmp_path)
    monkeypatch.setattr(ab, "identity", lambda trees: None)
    runs = []   # bench.py itself takes minutes: each run records its side and pair
    monkeypatch.setattr(ab, "layers", lambda tree, k: runs.append((tree.name, k)) or
                        {"side": tree.name, "pair": k})
    assert ab.main(["HEAD", "HEAD", "--layers", "--pairs", "3", "--label", "smoke"]) == 0
    assert runs == [("a", 0), ("b", 0), ("b", 1), ("a", 1), ("a", 2), ("b", 2)]
    result = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert result["layers"] and result["identity"] is None and "summary" not in result
    assert [p["first"] for p in result["pairs"]] == ["a", "b", "a"]
    assert all(p[side] == {"side": side, "pair": k}
               for k, p in enumerate(result["pairs"]) for side in "ab")


@pytest.mark.parametrize("same", [True, False])
def test_ab_identity_verdict(monkeypatch, tmp_path, same):
    # each tree records with its own identity.py; B's compares the two records
    ab = load(monkeypatch, "ab")
    fake = """
import json, sys
if sys.argv[1] == "--compare":
    a, b = (json.load(open(p)) for p in sys.argv[2:])
    print("identical: 1 commands, 0 files" if a == b else "x: exit differs (0 -> 1)")
    sys.exit(a != b)
json.dump({"x": {"exit": int(open("code").read())}}, open(sys.argv[1], "w"))
"""
    trees = {side: tmp_path / side for side in "ab"}
    for side, tree in trees.items():
        (tree / "benchmarks").mkdir(parents=True)
        (tree / "benchmarks" / "identity.py").write_text(fake)
        (tree / "code").write_text("0" if same or side == "a" else "1")
    assert ab.identity(trees) == (
        {"verdict": "identical: 1 commands, 0 files", "identical": True} if same else
        {"verdict": "x: exit differs (0 -> 1)", "identical": False})
    (trees["a"] / "benchmarks" / "identity.py").unlink()   # a revision from before the script
    assert ab.identity(trees) is None


def test_ab_probe_reads_the_loop_in_two_processes_over_alone(monkeypatch):
    ab = load(monkeypatch, "ab")
    monkeypatch.setattr(ab, "PROBE_LOOPS", 20_000)
    # about 1 with two free cores and 2 with one; a loop this short also reads the fork
    assert 0.5 < ab.probe() < math.inf


def test_ab_summarises_the_quiet_and_busy_pairs_apart(monkeypatch, tmp_path):
    # each tree is a stand-in bench/run.py whose run_s is B's 0.9 against A's 1.0
    ab = load(monkeypatch, "ab")
    stand_in = """
import json, sys
print("outputs_sha256 same")
print(json.dumps({"correct": 1, "attempted": 1, "failed": 0,
                  "metrics": {"run_s": {"value": float(open("run_s").read())}}}))
"""

    def extract(rev, dest):
        (dest / "bench").mkdir(parents=True)
        (dest / "bench" / "run.py").write_text(stand_in)
        (dest / "run_s").write_text("1.0" if rev == "A" else "0.9")
        (dest / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "run_s", "better": "lower"}]}))
        return rev

    ratios = iter([1.0, 2.0, 1.5, 1.2, 1.8])
    monkeypatch.setattr(ab, "OUT_DIR", tmp_path)
    monkeypatch.setattr(ab, "extract", extract)
    monkeypatch.setattr(ab, "identity", lambda trees: None)
    monkeypatch.setattr(ab, "probe", lambda: next(ratios))
    assert ab.main(["A", "B", "--workload", "w", "--pairs", "5", "--seconds", "1",
                    "--label", "smoke"]) == 0
    result = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert [p["probe"] for p in result["pairs"]] == [1.0, 2.0, 1.5, 1.2, 1.8]
    assert result["same_outputs"]
    for key, pairs in (("summary", 5), ("summary_quiet", 2), ("summary_busy", 2)):
        assert result[key] == {"run_s": {"a": {"median": 1.0, "iqr": 0.0},
                                         "b": {"median": 0.9, "iqr": 0.0},
                                         "b_wins": pairs, "pairs": pairs}}
    assert ab.summary([], {"run_s": True}) is None   # no pair on that side of a split
