"""Byte-identity record: the SHA-256 of everything 19 dualflow commands write.

    python3 benchmarks/identity.py OUT.json
    python3 benchmarks/identity.py --compare A.json B.json

The first form runs, one after another, each in a fresh temporary
directory:

- `run --engine both` and `validate` on the 4 bundled scenarios,
- `convergence --resolutions 100,200,400` on `single_dirac_repulsive` and
  `two_atoms_attractive`,
- each workload of `bench/workloads.py` at seeds 1 and 7, with its own argv,
- `convergence --resolutions 100,200,400` on the seed-1 `diagnostics_validate`
  scenario, whose density data have no exact reference (self-convergence),

and writes OUT.json = {command: {"exit": code, "stdout": sha256,
"files": {name: sha256}}}.  The program is run from `src/` next to this
directory, so a copy of this script in another checkout records that
checkout's outputs.  `bench/workloads.py` is only read (no bytecode is
written next to it).

The second form lists every command, file, stdout or exit code that differs
between two records, and exits 1 if there is any difference, else 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUNDLED = ("single_dirac_attractive", "single_dirac_repulsive",
           "three_atoms_attractive", "two_atoms_attractive")
CONVERGENCE = ("single_dirac_repulsive", "two_atoms_attractive")
SEEDS = (1, 7)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def commands(work: Path):
    """(label, argv after `python -m dualflow.cli`) for every command; writes
    the workload scenarios into ``work``."""
    scenarios = SRC / "dualflow" / "scenarios"
    for name in BUNDLED:
        path = str(scenarios / f"{name}.json")
        yield f"run_{name}", ["run", "--engine", "both", "--scenario", path]
        yield f"validate_{name}", ["validate", "--scenario", path]
    for name in CONVERGENCE:
        yield (f"convergence_{name}",
               ["convergence", "--scenario", str(scenarios / f"{name}.json"),
                "--resolutions", "100,200,400"])
    sys.dont_write_bytecode = True   # leave bench/ as it is
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for name, workload in sorted(workloads.WORKLOADS.items()):
        for seed in SEEDS:
            path = work / f"{name}_{seed}.json"
            workloads.write_scenario(str(path), name, seed)
            yield f"{name}_seed{seed}", [*workload.argv, "--scenario", str(path)]
    yield ("convergence_diagnostics_validate_seed1",
           ["convergence", "--scenario", str(work / "diagnostics_validate_1.json"),
            "--resolutions", "100,200,400"])


def record() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, argv in commands(work):
            out = work / label
            proc = subprocess.run([sys.executable, "-m", "dualflow.cli", *argv,
                                   "--out", str(out)],
                                  cwd=work, env=env, capture_output=True)
            files = {}
            for path in sorted(out.rglob("*")) if out.is_dir() else ():
                if path.is_file():
                    files[str(path.relative_to(out))] = sha256(path.read_bytes())
            result[label] = {"exit": proc.returncode, "stdout": sha256(proc.stdout),
                             "files": files}
            print(f"{label}: exit {proc.returncode}, {len(files)} files", file=sys.stderr)
    return result


def differences(a: dict, b: dict) -> list[str]:
    lines = []
    for label in sorted(set(a) | set(b)):
        if label not in a or label not in b:
            lines.append(f"{label}: only in {'B' if label not in a else 'A'}")
            continue
        ra, rb = a[label], b[label]
        for key in ("exit", "stdout"):
            if ra[key] != rb[key]:
                lines.append(f"{label}: {key} differs ({ra[key]} -> {rb[key]})")
        fa, fb = ra["files"], rb["files"]
        for name in sorted(set(fa) | set(fb)):
            if name not in fa or name not in fb:
                lines.append(f"{label}/{name}: only in {'B' if name not in fa else 'A'}")
            elif fa[name] != fb[name]:
                lines.append(f"{label}/{name}: differs")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        lines = differences(a, b)
        print("\n".join(lines) if lines else
              f"identical: {len(a)} commands, {sum(len(r['files']) for r in a.values())} files")
        return 1 if lines else 0
    if len(argv) == 1 and not argv[0].startswith("-"):
        Path(argv[0]).write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
        return 0
    print("usage: identity.py OUT.json | identity.py --compare A.json B.json", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
