"""The convergence command: exact L1 error of u over resolutions, against one reference.

Loaded on first use, by `dualflow convergence` and by ``cli.convergence_table``;
no other command compiles it.  Like every module, it imports no
``dualflow.cli``: it runs the engines itself.
"""

from __future__ import annotations

import math

from . import flux as fx
from .csvtext import csv_text
from .measure import AtomicMeasure, GridField, sample_to_grid, wasserstein1
from .scenario import CHECKS, Scenario, ScenarioError, check_grid, write_files


def _final_field(scn: Scenario, n_cells: int) -> GridField:
    """u at t_end on n_cells cells: the last snapshot of
    cli.run_pde(scn._replace(n_cells=n_cells)), the only one kept."""
    from . import pde
    grid = sample_to_grid(scn.initial, scn.x_min, scn.x_max, n_cells)
    for state in pde.march(grid, scn.model, scn.t_end, scn.cfl, scn.output_times):
        pass
    return state.field


def _reference(scn: Scenario, finest: GridField):
    """The u_ref that every convergence row is measured against.

    Data the oracle serves (w1_vs_particles' precondition, which asks for
    atoms and a non-increasing a): its atoms at t_end, after one advance
    from t = 0.  One atom under a(u) = u: its fan, the one-cell field whose
    primitive is clip((x - x0) / t, 0, M) (the atom itself when the fan is
    narrower than an ulp of x0).  Anything else: ``finest``, the finest grid.
    """
    mu = scn.initial
    if not CHECKS["w1_vs_particles"].precondition(scn):
        from . import particles
        return particles.advance(particles.AggregateSystem.create(mu, scn.model),
                                 scn.t_end)[0].atoms
    if isinstance(mu, AtomicMeasure) and mu.n_atoms == 1 and fx.is_identity_a(scn.model):
        x0, m = mu.xs[0], mu.total_mass
        x1 = x0 + m * scn.t_end
        return GridField(x0, x1, 1, [0.0, m]) if x1 > x0 else mu
    return finest


def convergence_table(scn: Scenario, resolutions) -> list[dict]:
    """Exact W1 = L1 error of u per resolution, with observed order between rows.

    ``resolutions``: cell counts, as ints or as the strings of --resolutions;
    at least 3 of them, distinct, each a grid the scenario's parser admits.
    The error is wasserstein1 against _reference; a row measured against
    itself (the finest grid) is NaN, with no order.
    """
    try:
        ns = sorted(int(n) for n in resolutions)
    except ValueError:
        ns = []
    if len(ns) < 3 or len(set(ns)) < len(ns):
        raise ScenarioError("--resolutions must be at least 3 distinct integers, "
                            f"got {','.join(map(str, resolutions))}")
    for n in ns:
        check_grid(scn.x_min, scn.x_max, n, "--resolutions", scn.initial)
    fields = [_final_field(scn, n) for n in ns]
    reference = _reference(scn, fields[-1])
    rows = []
    for i, (n, f) in enumerate(zip(ns, fields)):
        e = math.nan if f is reference else wasserstein1(f, reference)
        order = None
        if i and e > 0 and rows[-1]["l1_error"] > 0:
            order = math.log2(rows[-1]["l1_error"] / e) / math.log2(n / ns[i - 1])
        rows.append({"n_cells": n, "l1_error": e, "order": order})
    return rows


def cmd_convergence(scn: Scenario, resolutions: str) -> int:
    """convergence.csv and the printed table of the comma-separated ``resolutions``."""
    rows = convergence_table(scn, resolutions.split(","))
    write_files(scn.out_dir, {"convergence.csv": csv_text(
        ["n_cells", "l1_error", "order"],
        [(r["n_cells"], r["l1_error"], "" if r["order"] is None else r["order"]) for r in rows])})
    print(f"{'n_cells':>8} {'L1 error':>14} {'order':>8}")
    for r in rows:
        order = "" if r["order"] is None else f"{r['order']:.3f}"
        print(f"{r['n_cells']:>8} {r['l1_error']:>14.6e} {order:>8}")
    return 0
