"""Interleaved A/B of two revisions: one workload of `bench/run.py`, or the layers.

    python3 benchmarks/ab.py REV_A REV_B --workload W --pairs N --seconds S --label L [--seed K]
    python3 benchmarks/ab.py REV_A REV_B --layers --pairs N --label L

Each revision is extracted with `git archive` into a temporary directory
(nothing in `.git` changes; the directories are removed on exit).  First
each tree's own `benchmarks/identity.py` records what that tree's program
writes, and B's `--compare`s the two records.  Then, N times, each side's
own `bench/run.py --workload W --seed K --seconds S --trace 0` (or, with
`--layers`, its own `benchmarks/bench.py`) runs to completion, one child at
a time, the side that goes first alternating from pair to pair, so a slow
spell of a shared host falls on both sides alike.

Before each pair a probe reads how much of the host is free: a CPU-bound
loop is timed alone, then in two processes at once (this one and a fork),
and the pair records the second wall time over the first.  Where each
copy has a core to itself it reads about 1; where the two take turns on one
core, about 2.  No command of the program forks, but a host shared with
other work can leave its commands less than a core each, so an A/B can
move with the host rather than with the change; the ratio tells the
spells apart.

Writes `BENCH_L.json` at the repository root: the identity verdict, every
sample (its end-to-end metrics and the digest of its outputs, or its layer
results) with the pair's probe ratio, and, for a workload, per metric each
side's median and IQR and the number of pairs in which B is better than A,
over all pairs and again over the pairs whose ratio read below QUIET and
above BUSY (null where no pair did).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT   # where BENCH_<label>.json goes
PROBE_LOOPS = 2_000_000   # about 0.08 s on one core of a 2-core x86-64 host
QUIET, BUSY = 1.35, 1.7   # probe ratios that split the pairs in the summary


def spin() -> float:
    """Wall seconds of PROBE_LOOPS turns of a CPU-bound loop."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return time.perf_counter() - t0


def probe() -> float:
    """The loop's wall time in two processes at once over its time alone."""
    alone = spin()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:   # the child spins and leaves, running none of the parent's exit code
        spin()
        os._exit(0)
    spin()
    os.waitpid(pid, 0)
    return (time.perf_counter() - t0) / alone


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


def extract(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; return its commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def sample(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of the tree's bench/run.py: its metrics and output digest."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree.name}: bench/run.py exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = next((line.split()[1] for line in lines if line.startswith("outputs_sha256 ")), None)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "outputs_sha256": digest,
            **{name: m["value"] for name, m in result["metrics"].items()}}


def layers(tree: Path, k: int) -> dict:
    """One run of the tree's benchmarks/bench.py: its layer results."""
    label = f"ab_layers_{k}"
    proc = subprocess.run([sys.executable, "benchmarks/bench.py", "--label", label], cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree.name}: benchmarks/bench.py exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads((tree / f"BENCH_{label}.json").read_text())


def identity(trees: dict) -> dict | None:
    """Each tree's benchmarks/identity.py record, and B's --compare of the two:
    its verdict line(s) and whether they found no difference.  None when a
    tree has no identity.py."""
    scripts = {side: tree / "benchmarks" / "identity.py" for side, tree in trees.items()}
    if not all(path.exists() for path in scripts.values()):
        return None
    records = {side: str(tree.parent / f"identity_{side}.json") for side, tree in trees.items()}
    for side, tree in trees.items():
        subprocess.run([sys.executable, str(scripts[side]), records[side]], cwd=tree,
                       capture_output=True, check=True)
    proc = subprocess.run([sys.executable, str(scripts["b"]), "--compare", records["a"],
                           records["b"]], capture_output=True, text=True)
    return {"verdict": proc.stdout.strip(), "identical": proc.returncode == 0}


def spread(values: list) -> dict:
    """Median and IQR, the quartiles interpolated as numpy.percentile does."""
    q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                  else (values[0],) * 3)
    return {"median": q2, "iqr": q3 - q1}


def summary(pairs: list, lower: dict) -> dict | None:
    """Per metric (``lower``: whether lower is better): both sides' median
    and IQR, and B's wins over the pairs; None without pairs."""
    if not pairs:
        return None
    out = {}
    for name, lower_better in lower.items():
        a = [p["a"][name] for p in pairs]
        b = [p["b"][name] for p in pairs]
        wins = sum((y < x) if lower_better else (y > x) for x, y in zip(a, b))
        out[name] = {"a": spread(a), "b": spread(b), "b_wins": wins, "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("rev_a")
    p.add_argument("rev_b")
    p.add_argument("--workload")
    p.add_argument("--layers", action="store_true",
                   help="run each tree's benchmarks/bench.py instead of a workload")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--label", required=True)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.layers == (args.workload is not None):
        p.error("give either --workload or --layers")
    if args.pairs < 1 or not args.layers and not (args.seconds or 0) > 0:
        p.error("--pairs must be at least 1, and --seconds positive with --workload")
    with tempfile.TemporaryDirectory(prefix="dualflow-ab-") as tmp:
        trees = {side: Path(tmp, side) for side in ("a", "b")}
        commits = {side: extract(rev, trees[side])
                   for side, rev in (("a", args.rev_a), ("b", args.rev_b))}
        verdict = identity(trees)
        print(f"identity: {verdict and verdict['verdict']}", flush=True)
        metrics = json.loads((trees["a"] / "BENCHMARK.json").read_text())["end_to_end"]
        lower = {m["name"]: m["better"] == "lower" for m in metrics}
        pairs = []
        for k in range(args.pairs):
            order = ("a", "b") if k % 2 == 0 else ("b", "a")
            pair = {"first": order[0], "probe": probe()}
            for side in order:
                pair[side] = (layers(trees[side], k) if args.layers else
                              sample(trees[side], args.workload, args.seed, args.seconds))
            pairs.append(pair)
            if not args.layers:
                print(f"pair {k + 1}/{args.pairs}: probe {pair['probe']:.2f}, run_s a "
                      f"{pair['a']['run_s']:.4f} b {pair['b']['run_s']:.4f}", flush=True)
            else:
                print(f"pair {k + 1}/{args.pairs}: probe {pair['probe']:.2f}, layers done",
                      flush=True)
    results = {
        "a": {"rev": args.rev_a, "commit": commits["a"]},
        "b": {"rev": args.rev_b, "commit": commits["b"]},
        "identity": verdict,
    }
    if args.layers:
        results.update(layers=True, pairs=pairs)
    else:
        digests = {p[side]["outputs_sha256"] for p in pairs for side in "ab"}
        results.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                       same_outputs=len(digests) == 1 and None not in digests,
                       summary=summary(pairs, lower),
                       summary_quiet=summary([p for p in pairs if p["probe"] < QUIET], lower),
                       summary_busy=summary([p for p in pairs if p["probe"] > BUSY], lower),
                       pairs=pairs)
        for key, title in (("summary", "all pairs"), ("summary_quiet", f"probe < {QUIET}"),
                           ("summary_busy", f"probe > {BUSY}")):
            for name, s in (results[key] or {}).items():
                print(f"{title}: {name}: a {s['a']['median']:.6g} (IQR {s['a']['iqr']:.3g}), "
                      f"b {s['b']['median']:.6g} (IQR {s['b']['iqr']:.3g}), "
                      f"b better in {s['b_wins']}/{s['pairs']}")
    path = OUT_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {path.name}" + ("" if args.layers else
          f"; outputs identical across all runs: {results['same_outputs']}"))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # unwinds: the trees are removed
    sys.exit(main())
