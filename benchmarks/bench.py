"""Layer benchmark: best wall time of several repeats per case, written to BENCH_<label>.json.

Every scenario timed here is a `bench/workloads.py` workload at seed 1, the
scenario `bench/run.py --seed 1` runs (`workload_scenario`).  Five layers so far:

- particles: the collapse of N equal-mass atoms at seeded uniform positions
  on [-1, 1] under a(u) = -u, for N = 10^3, 10^4 and 10^5, timed over
  `particles.advance` to t = inf (every one of the N - 1 merges).  Once a
  size takes longer than SKIP_AFTER_S, larger sizes (ten times as many
  atoms, so at least ten times as long) are recorded as null, so the script
  also finishes against the earlier O(N^2) engine.  One more case,
  "2048_chained", advances the `particle_collapse` workload's 2 048 atoms
  through its output times, one `advance` call each, as `cli.run_particles`
  does: every call after the first starts from merged aggregates and builds
  its own heap, which the t = inf collapse does once.
- output: the three field CSVs (fields_faces.csv, fields_cells.csv and
  atoms_extracted.csv) of the 17 PDE snapshots of `attractive_crosscheck`:
  `cli.write_field_outputs` over the snapshots and `scenario.write_files`
  of its texts, as `run` formats and writes them, as seconds and as MB of
  CSV written per second.  `run` writes its other files in the same
  `write_files` call; those are left out.
- pde_step: microseconds per PDE step, each one call of the step body
  that `pde.march` runs (`_March.stepper`), on n = 6 400 cells, for the
  flux of each workload, one per kind: quadratic-repulsive a(u) = u
  (`rarefaction_pde`), the piecewise-linear a of `attractive_crosscheck`,
  quadratic-attractive a(u) = -u (`particle_collapse`) and the polynomial
  a(u) = u - u^2 of `diagnostics_validate`, each on a ramp of u from 0 to 1
  over 8, 800 and 3 200 cells (a window of that many faces).  Every step
  starts from the same ramp, so the window keeps its width; best of 30
  sums of 200 timed steps, divided by 200, the twelve cases taking turns.
  Thirty rounds, not three, and taking turns: on a shared 2-core host the
  mean of 200 steps moves between about 16 and 40 us in stretches of 10 ms
  to seconds, so the repeats of one case must be spread out.  One more
  case, "march", times the whole march (`cli.run_pde`) of each of
  MARCH_WORKLOADS, `rarefaction_pde`, `attractive_crosscheck` and
  `diagnostics_validate`, best of MARCH_REPEATS, as its steps and us per
  step.
- checks: milliseconds per call of each `scenario.CHECKS` entry on the PDE
  snapshots of `attractive_crosscheck` and of `diagnostics_validate`.  Best
  of 15 rounds that call each check's runner once; null where the check's
  precondition refuses the scenario (pushforward needs a non-increasing a,
  w1_vs_particles atoms).
- process: what a whole command costs as a process, the fixed cost that the
  layers above leave out.  Each workload's command is spawned
  PROCESS_SPAWNS times in each of two environments, the workloads and the
  environments taking turns, as `python -c STAMP_EXIT`: it registers an
  atexit handler that writes time.monotonic() to stderr, then runs
  `dualflow.cli` as `__main__`, as `python -m dualflow.cli` does, so the
  exit code is the command's.  Handlers run last-in first-out, so the stamp
  is the last one's.  The first environment is `bench/run.py`'s
  (PYTHONPATH=src, one BLAS/OpenMP thread) with PYTHONDONTWRITEBYTECODE=1;
  the second is the same without the three BLAS variables (BLAS_THREADS),
  as a user's shell has it, where only the program can set them.  Reported
  per workload are the medians of the wall time in each (`wall_ms`,
  `wall_ms_blas_unset`) and of the teardown in the first, the time from that
  stamp to the parent's return from wait (the flush of stdio, whatever the
  interpreter still does after it, and process exit), all in ms, the source
  lines the command compiled (the lines of the `dualflow` modules in the
  child's `sys.modules` when the stamp is taken, `__init__` and `cli`, which
  runs as `__main__`, included) and whether numpy was loaded by then.

    python3 benchmarks/bench.py --label LABEL

times every layer and writes `BENCH_LABEL.json` = {"env": {...},
"particles": {...}, "output": {...}, "pde_step": {...}, "checks": {...},
"process": {...}}
at the repository root.  The particles and output layers take the best of
3.  Needs only the standard library and numpy; the program is imported
from `src/` next to this directory, so a copy of this script in another
checkout times that checkout's code.  `bench/workloads.py` is only read
(no bytecode is written next to it).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True   # leave bench/ as it is
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from dualflow import cli, flux as fx, particles, pde  # noqa: E402
from dualflow.measure import AtomicMeasure, GridField  # noqa: E402
from dualflow.scenario import CHECKS, Scenario, parse_scenario, write_files  # noqa: E402

SEED = 1
SIZES = (10**3, 10**4, 10**5)
REPEATS = 3
SKIP_AFTER_S = 2.0
STEP_CELLS = 6400
STEP_WIDTHS = (8, 800, 3200)
STEP_COUNT = 200
STEP_REPEATS = 30
STEP_WORKLOADS = ("rarefaction_pde", "attractive_crosscheck", "particle_collapse",
                  "diagnostics_validate")
MARCH_WORKLOADS = ("rarefaction_pde", "attractive_crosscheck", "diagnostics_validate")
MARCH_REPEATS = 10
CHECK_WORKLOADS = ("attractive_crosscheck", "diagnostics_validate")
CHECK_REPEATS = 15
PROCESS_SPAWNS = 10
STAMP_EXIT = (   # registered first, so the last atexit handler to run
    "import atexit, runpy, sys, time\n"
    "atexit.register(lambda: sys.stderr.write('\\t'.join(\n"
    "    m.__file__ for m in list(sys.modules.values())\n"
    "    if getattr(m, '__spec__', None) and m.__spec__.name.split('.')[0] == 'dualflow')\n"
    "    + '\\n' + repr('numpy' in sys.modules) + '\\n' + repr(time.monotonic()) + '\\n'))\n"
    "runpy.run_module('dualflow.cli', run_name='__main__', alter_sys=True)\n"
)
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def workload_scenario(name: str) -> dict:
    """The seed-SEED scenario of one `bench/workloads.py` workload, as a dict."""
    return workloads.scenario(name, SEED)


def workload(name: str) -> Scenario:
    """The parsed seed-SEED scenario of one `bench/workloads.py` workload."""
    return parse_scenario(workload_scenario(name))


def uniform_atoms(n: int):
    """n equal-mass atoms at seeded uniform positions on [-1, 1] under a(u) = -u."""
    x = np.sort(np.random.default_rng(n).uniform(-1.0, 1.0, n))
    return particles.AggregateSystem.create(AtomicMeasure(x, np.full(n, 1.0 / n)),
                                            fx.quadratic_attractive())


def collapse_seconds(system, times=(math.inf,)) -> float:
    """Best of REPEATS wall times for ``system`` advanced through ``times``,
    one `advance` call each; every merge is counted."""
    n = system.atoms.n_atoms
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
        results[str(n)] = None if skip else collapse_seconds(uniform_atoms(n))
        print(f"particles N={n}: " + ("skipped" if skip else f"{results[str(n)]:.4f} s"),
              flush=True)
        skip = skip or results[str(n)] > SKIP_AFTER_S
    scn = workload("particle_collapse")
    key = f"{scn.initial.n_atoms}_chained"
    results[key] = collapse_seconds(particles.AggregateSystem.create(scn.initial, scn.model),
                                    sorted(set(scn.output_times) | {scn.t_end}))
    print(f"particles {key}: {results[key]:.4f} s", flush=True)
    return results


def output_layer() -> dict:
    """Best of REPEATS of write_field_outputs and the write_files of its texts."""
    snapshots = cli.run_pde(workload("attractive_crosscheck"))
    seconds = math.inf
    with tempfile.TemporaryDirectory() as out:
        for _ in range(REPEATS):
            start = time.perf_counter()
            write_files(out, cli.write_field_outputs(snapshots))
            seconds = min(seconds, time.perf_counter() - start)
        size = sum(f.stat().st_size for f in Path(out).iterdir())
    best = {"seconds": seconds, "mb_per_s": size / 1e6 / seconds, "bytes": size}
    print(f"output write_field_outputs: {seconds:.4f} s, {best['mb_per_s']:.1f} MB/s "
          f"({size} bytes)", flush=True)
    return best


def ramp_march(model: fx.FluxModel, width: int):
    """A _March on a ramp of u from 0 to 1 over ``width`` of STEP_CELLS cells."""
    k = np.arange(STEP_CELLS + 1) - (STEP_CELLS - width) // 2
    return pde._March(GridField(-1.0, 1.0, STEP_CELLS, np.clip(k / width, 0.0, 1.0)), model)


def step_seconds(march, step, start_ext, start_jumps, start_state) -> float:
    """The time of STEP_COUNT calls of ``step``, each from the start state."""
    total = 0.0
    for _ in range(STEP_COUNT):
        np.copyto(march.ext, start_ext)
        np.copyto(march.jumps, start_jumps)
        vars(march).update(start_state)
        start = time.perf_counter()
        step(math.inf)
        total += time.perf_counter() - start
    return total


def pde_step_layer() -> dict:
    """Microseconds per step: best of STEP_REPEATS rounds that time each case
    once; and the march of each of MARCH_WORKLOADS, best of MARCH_REPEATS."""
    cases = {}
    for name in STEP_WORKLOADS:
        model = workload(name).model
        for width in STEP_WIDTHS:
            march = ramp_march(model, width)
            cases[model.kind, width] = (march, march.stepper(0.45), march.ext.copy(),
                                        march.jumps.copy(), dict(vars(march)))
    best = dict.fromkeys(cases, math.inf)
    for _ in range(STEP_REPEATS):
        for key, case in cases.items():
            best[key] = min(best[key], step_seconds(*case))
    results: dict[str, dict] = {}
    for (kind, width), seconds in best.items():
        results.setdefault(kind, {})[str(width)] = us = seconds / STEP_COUNT * 1e6
        print(f"pde_step {kind} window={width}: {us:.1f} us/step", flush=True)
    results["march"] = {}
    for name in MARCH_WORKLOADS:
        scn = workload(name)
        seconds = math.inf
        for _ in range(MARCH_REPEATS):
            start = time.perf_counter()
            steps = cli.run_pde(scn)[-1].step_count
            seconds = min(seconds, time.perf_counter() - start)
        results["march"][name] = march = {"steps": steps, "us_per_step": seconds / steps * 1e6}
        print(f"pde_step march {name}: {steps} steps, {march['us_per_step']:.1f} us/step",
              flush=True)
    return results


def checks_layer() -> dict:
    """Milliseconds per call of each check: best of CHECK_REPEATS rounds per scenario."""
    results: dict[str, dict[str, float | None]] = {}
    for label in CHECK_WORKLOADS:
        scn = workload(label)
        snapshots = cli.run_pde(scn)
        best = {name: math.inf for name, check in CHECKS.items()
                if not (check.precondition and check.precondition(scn))}
        pairs = None
        if "w1_vs_particles" in best:
            pairs = cli.pair_with_oracle(snapshots, cli.run_particles(scn)[0])
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


def process_layer() -> dict:
    """Median wall time and teardown, in ms, of PROCESS_SPAWNS processes per workload,
    the wall time again with the BLAS variables unset, and the dualflow source lines
    each workload's command compiles and whether it loads numpy."""
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    unset.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    envs = {"wall_ms": dict(unset, **dict.fromkeys(BLAS_THREADS, "1")),
            "wall_ms_blas_unset": unset}
    times: dict[str, dict[str, list]] = {name: {key: [] for key in (*envs, "teardown_ms")}
                                         for name in workloads.WORKLOADS}
    lines: dict[str, int] = {}
    numpy_loaded: dict[str, bool] = {}
    with tempfile.TemporaryDirectory() as tmp:
        commands = {}
        for name, w in workloads.WORKLOADS.items():
            path = Path(tmp, f"{name}.json")
            path.write_bytes(workloads.scenario_bytes(workload_scenario(name)))
            commands[name] = [sys.executable, "-c", STAMP_EXIT, *w.argv,
                              "--scenario", str(path), "--out", str(Path(tmp, name))]
        for _ in range(PROCESS_SPAWNS):
            for name, argv in commands.items():
                for key, env in envs.items():
                    shutil.rmtree(argv[-1], ignore_errors=True)   # each run writes afresh
                    start = time.monotonic()
                    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
                    end = time.monotonic()
                    if proc.returncode != 0:
                        raise SystemExit(f"process {name}: exit {proc.returncode}\n"
                                         f"{proc.stderr}")
                    *_, modules, numpy, stamp = proc.stderr.splitlines()
                    times[name][key].append(end - start)
                    if key == "wall_ms":
                        times[name]["teardown_ms"].append(end - float(stamp))
                    lines[name] = sum(len(Path(f).read_text().splitlines())
                                      for f in set(modules.split("\t")))
                    numpy_loaded[name] = numpy == "True"
    results = {}
    for name, samples in times.items():
        results[name] = {key: statistics.median(ms) * 1e3 for key, ms in samples.items()}
        results[name].update(lines_compiled=lines[name], numpy_loaded=numpy_loaded[name])
        r = results[name]
        print(f"process {name}: wall {r['wall_ms']:.1f} ms, {r['wall_ms_blas_unset']:.1f} ms "
              f"with the BLAS variables unset, teardown {r['teardown_ms']:.1f} ms (medians of "
              f"{PROCESS_SPAWNS}), {lines[name]} lines compiled, numpy "
              f"{'loaded' if r['numpy_loaded'] else 'not loaded'}", flush=True)
    return results


LAYERS = {"particles": particles_layer, "output": output_layer, "pde_step": pde_step_layer,
          "checks": checks_layer, "process": process_layer}


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
