"""Layer benchmark: best wall time of several repeats per case, written to BENCH_<label>.json.

Four layers so far:

- particles: the collapse of N equal-mass atoms at seeded uniform positions
  on [-1, 1] under a(u) = -u, for N = 10^3, 10^4 and 10^5, timed over
  `particles.advance` to t = inf (every one of the N - 1 merges).  Once a
  size takes longer than SKIP_AFTER_S, larger sizes (ten times as many
  atoms, so at least ten times as long) are recorded as null, so the script
  also finishes against the earlier O(N^2) engine.  One more case,
  "2048_chained", advances the 2 048-atom system through the output times of
  the `particle_collapse` workload, one `advance` call each, as
  `cli.run_particles` does: every call after the first starts from merged
  aggregates and builds its own heap, which the t = inf collapse does once.
- output: the three field CSVs (fields_faces.csv, fields_cells.csv and
  atoms_extracted.csv) of the 17 PDE snapshots of one fixed scenario: 24
  seeded atoms under an attractive piecewise-linear a(u) on 1 600 cells,
  the shape of the `attractive_crosscheck` benchmark workload.  Timed two
  ways.  In process, `cli.write_field_outputs` over the snapshots, as
  seconds and as MB of CSV written per second.  And the way `run` drives
  the writer: the march (`cli.run_pde`) streaming each snapshot to the
  forked `cli._FieldWriter(scn.out_dir)`, the scenario's checks
  (`cli.run_diagnostics(scn, snapshots)`, which returns their records and
  writes no file), the commit and the reaping of the child, against the
  same march and checks alone.  Reported are both wall times, their
  difference (what the writer adds, in ms) and the time the parent waits
  at the commit (ms): the formatting that the march and the checks did
  not hide.  `run`'s own writes of its other files, which overlap the
  child's writes, are left out.
- pde_step: microseconds per PDE step (one `_March.dt` and one
  `_March.advance`) on n = 6 400 cells, for quadratic-repulsive a(u) = u
  and for the piecewise-linear a of the output layer, each on a ramp of u
  from 0 to 1 over 8, 800 and 3 200 cells (a window of that many faces).
  Every step starts from the same ramp, so the window keeps its width;
  best of 30 sums of 200 timed steps, divided by 200, the six cases taking
  turns.  Thirty rounds, not three, and taking turns: on a shared 2-core
  host the mean of 200 steps moves between about 16 and 40 us in stretches
  of 10 ms to seconds, so the repeats of one case must be spread out.
- checks: milliseconds per call of each `scenario.CHECKS` entry on the PDE
  snapshots of two scenarios: the output layer's (the shape of
  `attractive_crosscheck`) and a triangular density under a(u) = u - u^2
  on 3 200 cells with 41 output times (the shape of `diagnostics_validate`).
  Best of 15 rounds that call each check's runner once; null where the
  check's precondition refuses the scenario (pushforward needs a
  non-increasing a, w1_vs_particles atoms).

    python3 benchmarks/bench.py --label LABEL

times every layer and writes `BENCH_LABEL.json` = {"env": {...},
"particles": {...}, "output": {...}, "pde_step": {...}, "checks": {...}}
at the repository root.  The particles and output layers take the best of
3.  Needs only the standard library and numpy; the program is imported
from `src/` next to this directory, so a copy of this script in another
checkout times that checkout's code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dualflow import cli, flux as fx, particles, pde  # noqa: E402
from dualflow.measure import AtomicMeasure, GridField  # noqa: E402
from dualflow.scenario import CHECKS, parse_scenario  # noqa: E402

SIZES = (10**3, 10**4, 10**5)
CHAIN_ATOMS = 2048
CHAIN_TIMES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)   # particle_collapse's output times
REPEATS = 3
SKIP_AFTER_S = 2.0
PWL_NODES = [[0.0, 1.0], [0.3, 0.2], [0.7, -0.1], [1.0, -1.0]]   # attractive_crosscheck's a
STEP_CELLS = 6400
STEP_WIDTHS = (8, 800, 3200)
STEP_COUNT = 200
STEP_REPEATS = 30
CHECK_REPEATS = 15


def collapse_seconds(n: int, times=(math.inf,)) -> float:
    """Best of REPEATS wall times for n seeded equal-mass atoms advanced
    through ``times``, one `advance` call each; every merge is counted."""
    x = np.sort(np.random.default_rng(n).uniform(-1.0, 1.0, n))
    system = particles.AggregateSystem.create(AtomicMeasure(x, np.full(n, 1.0 / n)),
                                              fx.quadratic_attractive())
    best = math.inf
    for _ in range(REPEATS):
        final, merged = system, 0
        start = time.perf_counter()
        for t in times:
            final, events = particles.advance(final, t)
            merged += sum(len(e.indices) - 1 for e in events)
        best = min(best, time.perf_counter() - start)
        if merged != n - final.atoms.n_atoms:
            raise SystemExit(f"N = {n}: the merges do not account for the lost atoms")
        if times[-1] == math.inf and final.atoms.n_atoms != 1:
            raise SystemExit(f"N = {n}: the atoms did not collapse in N - 1 merges")
    return best


def particles_layer() -> dict:
    results: dict[str, float | None] = {}
    skip = False
    for n in SIZES:
        results[str(n)] = None if skip else collapse_seconds(n)
        print(f"particles N={n}: " + ("skipped" if skip else f"{results[str(n)]:.4f} s"),
              flush=True)
        skip = skip or results[str(n)] > SKIP_AFTER_S
    key = f"{CHAIN_ATOMS}_chained"
    results[key] = collapse_seconds(CHAIN_ATOMS, CHAIN_TIMES)
    print(f"particles {key}: {results[key]:.4f} s", flush=True)
    return results


def output_scenario() -> dict:
    """24 atoms with dyadic masses summing to 1 at seeded positions in [-2, 2]."""
    rng = np.random.default_rng(24)
    weights = rng.integers(1 << 19, 3 << 19, 24)
    weights[-1] += (1 << 25) - weights.sum()
    return {
        "flux": {"kind": "piecewise-linear-a", "nodes": PWL_NODES},
        "initial": {"type": "atoms", "atoms": [[float(x), float(w) / (1 << 25)] for x, w in
                                               zip(np.sort(rng.uniform(-2.0, 2.0, 24)),
                                                   weights)]},
        "grid": {"x_min": -4.0, "x_max": 4.0, "n_cells": 1600},
        "time": {"t_end": 4.0, "cfl": 0.45, "output_times": [k / 4 for k in range(17)]},
    }


def output_layer() -> dict:
    """Best of REPEATS of each: write_field_outputs in process, the march and
    checks alone, and the same with the forked writer, with its commit wait."""
    scn = parse_scenario(output_scenario())
    snapshots = cli.run_pde(scn)
    best = dict.fromkeys(("seconds", "march_s", "streamed_s", "commit_wait_ms"), math.inf)

    def keep(key, value):
        best[key] = min(best[key], value)

    with tempfile.TemporaryDirectory() as out:
        scn = scn._replace(out_dir=out)
        for _ in range(REPEATS):
            start = time.perf_counter()
            cli.write_field_outputs(out, snapshots)
            keep("seconds", time.perf_counter() - start)
            start = time.perf_counter()
            cli.run_diagnostics(scn, cli.run_pde(scn))
            keep("march_s", time.perf_counter() - start)
            start = time.perf_counter()
            with cli._FieldWriter(scn.out_dir) as fields:
                streamed = cli.run_pde(scn, each=fields.send)
                cli.run_diagnostics(scn, streamed)
                commit = time.perf_counter()
                fields.commit(streamed)
                keep("commit_wait_ms", (time.perf_counter() - commit) * 1e3)
            keep("streamed_s", time.perf_counter() - start)
        size = sum(f.stat().st_size for f in Path(out).iterdir())
    best.update(mb_per_s=size / 1e6 / best["seconds"], bytes=size,
                writer_ms=(best["streamed_s"] - best["march_s"]) * 1e3)
    print(f"output write_field_outputs: {best['seconds']:.4f} s, {best['mb_per_s']:.1f} MB/s "
          f"({size} bytes); march and checks {best['march_s']:.4f} s, with the writer "
          f"{best['streamed_s']:.4f} s (+{best['writer_ms']:.1f} ms), commit wait "
          f"{best['commit_wait_ms']:.1f} ms", flush=True)
    return best


def ramp_march(model: fx.FluxModel, width: int):
    """A _March on a ramp of u from 0 to 1 over ``width`` of STEP_CELLS cells."""
    k = np.arange(STEP_CELLS + 1) - (STEP_CELLS - width) // 2
    return pde._March(GridField(-1.0, 1.0, STEP_CELLS, np.clip(k / width, 0.0, 1.0)), model)


def step_seconds(march, start_ext, start_jumps, start_state) -> float:
    """The time of STEP_COUNT dt + advance pairs, each from the start state."""
    total = 0.0
    for _ in range(STEP_COUNT):
        np.copyto(march.ext, start_ext)
        np.copyto(march.jumps, start_jumps)
        vars(march).update(start_state)
        start = time.perf_counter()
        march.advance(march.dt(0.45))
        total += time.perf_counter() - start
    return total


def pde_step_layer() -> dict:
    """Microseconds per step: best of STEP_REPEATS rounds that time each case once."""
    cases = {}
    for model in (fx.quadratic_repulsive(), fx.piecewise_linear(PWL_NODES)):
        for width in STEP_WIDTHS:
            march = ramp_march(model, width)
            cases[model.kind, width] = (march, march.ext.copy(), march.jumps.copy(),
                                        dict(vars(march)))
    best = dict.fromkeys(cases, math.inf)
    for _ in range(STEP_REPEATS):
        for key, case in cases.items():
            best[key] = min(best[key], step_seconds(*case))
    results: dict[str, dict[str, float]] = {}
    for (kind, width), seconds in best.items():
        results.setdefault(kind, {})[str(width)] = us = seconds / STEP_COUNT * 1e6
        print(f"pde_step {kind} window={width}: {us:.1f} us/step", flush=True)
    return results


def validate_scenario() -> dict:
    """A triangular density under a(u) = u - u^2: diagnostics_validate's shape, unshifted."""
    return {
        "flux": {"kind": "polynomial", "coeffs": [0.0, 1.0, -1.0]},
        "initial": {"type": "triangular", "x_left": -1.0, "x_peak": -0.2, "x_right": 1.0,
                    "mass": 1.0},
        "grid": {"x_min": -4.0, "x_max": 4.0, "n_cells": 3200},
        "time": {"t_end": 2.0, "cfl": 0.45, "output_times": [k / 20 for k in range(41)]},
    }


CHECK_SCENARIOS = {"attractive_crosscheck": output_scenario,
                   "diagnostics_validate": validate_scenario}


def checks_layer() -> dict:
    """Milliseconds per call of each check: best of CHECK_REPEATS rounds per scenario."""
    results: dict[str, dict[str, float | None]] = {}
    for label, make in CHECK_SCENARIOS.items():
        scn = parse_scenario(make())
        snapshots = cli.run_pde(scn)
        best = {name: math.inf for name, check in CHECKS.items()
                if not (check.precondition and check.precondition(scn))}
        pairs = None
        if "w1_vs_particles" in best:
            pairs = cli.pair_with_oracle(scn, snapshots, *cli.run_particles(scn))
        for _ in range(CHECK_REPEATS):
            for name in best:
                start = time.perf_counter()
                CHECKS[name].run(scn, snapshots, pairs)
                best[name] = min(best[name], time.perf_counter() - start)
        results[label] = {name: best[name] * 1e3 if name in best else None
                          for name in CHECKS}
        for name, ms in results[label].items():
            print(f"checks {label} {name}: " + ("n/a" if ms is None else f"{ms:.2f} ms"),
                  flush=True)
    return results


LAYERS = {"particles": particles_layer, "output": output_layer, "pde_step": pde_step_layer,
          "checks": checks_layer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="particle_oracle",
                        help="output file name is BENCH_<label>.json (default: %(default)s)")
    label = parser.parse_args(argv).label
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "platform": platform.platform(), "cpus": os.cpu_count()}
    results = {"env": env, **{name: layer() for name, layer in LAYERS.items()}}
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
