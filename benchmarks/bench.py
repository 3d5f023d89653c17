"""Layer benchmark: best-of-3 wall time per case, written to BENCH_<label>.json.

Only the particle layer so far: the collapse of N equal-mass atoms at seeded
uniform positions on [-1, 1] under a(u) = -u, for N = 10^3, 10^4 and 10^5,
timed over `particles.advance` to t = inf (every one of the N - 1 merges).
Once a size takes longer than SKIP_AFTER_S, larger sizes (ten times as many
atoms, so at least ten times as long) are recorded as null, so the script
also finishes against the earlier O(N^2) engine.

    python3 benchmarks/bench.py --label particle_oracle

writes `BENCH_particle_oracle.json` = {"env": {...}, "particles": {N: seconds}}
at the repository root.  Needs only the standard library and numpy; the
program is imported from `src/` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dualflow import flux as fx, particles  # noqa: E402
from dualflow.measure import AtomicMeasure  # noqa: E402

SIZES = (10**3, 10**4, 10**5)
REPEATS = 3
SKIP_AFTER_S = 2.0


def collapse_seconds(n: int) -> float:
    """Best of REPEATS wall times for n seeded equal-mass atoms to collapse."""
    x = np.sort(np.random.default_rng(n).uniform(-1.0, 1.0, n))
    system = particles.AggregateSystem.create(AtomicMeasure(x, np.full(n, 1.0 / n)),
                                              fx.quadratic_attractive())
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        final, events = particles.advance(system, math.inf)
        best = min(best, time.perf_counter() - start)
        if final.atoms.n_atoms != 1 or sum(len(e.indices) - 1 for e in events) != n - 1:
            raise SystemExit(f"N = {n}: the atoms did not collapse in N - 1 merges")
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="particle_oracle",
                        help="output file name is BENCH_<label>.json (default: %(default)s)")
    label = parser.parse_args(argv).label
    results: dict[str, float | None] = {}
    skip = False
    for n in SIZES:
        results[str(n)] = None if skip else collapse_seconds(n)
        print(f"particles N={n}: " + ("skipped" if skip else f"{results[str(n)]:.4f} s"),
              flush=True)
        skip = skip or results[str(n)] > SKIP_AFTER_S
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "platform": platform.platform(), "cpus": os.cpu_count()}
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps({"env": env, "particles": results}, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
