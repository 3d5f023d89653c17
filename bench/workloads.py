"""Seeded scenario generators for the four benchmark workloads.

Each workload is one `dualflow run` or `dualflow validate` command on a
scenario built here from the benchmark seed.  The program only ever sees
the scenario JSON written by `write_scenario`; the same (workload, seed,
tiny) always gives byte-identical files.

Masses are dyadic (multiples of 2**-k summing to exactly 1), so every
partial sum the program forms is exact and the output checks in `gate.py`
can demand exact mass conservation instead of a tolerance.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# a(u) for the piecewise-linear workload: non-increasing on [0, 1], so the
# sticky-particle oracle applies (Brenier & Grenier 1998).
PWL_NODES = [[0.0, 1.0], [0.3, 0.2], [0.7, -0.1], [1.0, -1.0]]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]      # dualflow subcommand and engine, before --scenario
    outputs: tuple[str, ...]   # files the command must write
    oracle: bool               # runs the particle engine


_FIELDS = ("fields_faces.csv", "fields_cells.csv", "atoms_extracted.csv",
           "diagnostics.csv", "diagnostics.json")
_PARTICLES = ("trajectory.csv", "events.csv")

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("rarefaction_pde", ("run", "--engine", "pde"), _FIELDS, False),
    Workload("attractive_crosscheck", ("run", "--engine", "both"),
             _FIELDS + _PARTICLES, True),
    Workload("particle_collapse", ("run", "--engine", "particles"), _PARTICLES, True),
    Workload("diagnostics_validate", ("validate",), ("diagnostics.json",), False),
)}


def dyadic_masses(rng: random.Random, n: int, bits: int = 30) -> list[float]:
    """n random positive masses, multiples of 2**-bits, summing to exactly 1."""
    total = 1 << bits
    weights = [rng.uniform(0.5, 1.5) for _ in range(n)]
    scale = total / sum(weights)
    ints = [max(1, int(w * scale)) for w in weights[:-1]]
    ints.append(total - sum(ints))
    if ints[-1] < 1:
        raise ValueError("mass draw left no room for the last atom")
    return [k / total for k in ints]


def distinct_positions(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    xs = [rng.uniform(lo, hi) for _ in range(n)]
    if len(set(xs)) != n:
        raise ValueError("duplicate atom position drawn; choose another seed")
    return xs


def a_nonincreasing(flux: dict, m_total: float) -> bool:
    """True when a(u) is non-increasing on [0, m_total], decided exactly.

    Kinds this cannot decide exactly count as not attractive, so an oracle
    workload is refused rather than emitted on a guess.
    """
    kind = flux["kind"]
    if kind == "quadratic-attractive":
        return True
    if kind == "quadratic-repulsive":
        return m_total <= 0
    if kind == "piecewise-linear-a":
        nodes = flux["nodes"]

        def a(u):  # linear between nodes, constant outside
            if u <= nodes[0][0]:
                return nodes[0][1]
            for (u0, a0), (u1, a1) in zip(nodes, nodes[1:]):
                if u <= u1:
                    return a0 + (a1 - a0) * (u - u0) / (u1 - u0)
            return nodes[-1][1]

        pts = [0.0] + [u for u, _ in nodes if 0.0 < u < m_total] + [m_total]
        vals = [a(u) for u in pts]
        return all(v1 <= v0 for v0, v1 in zip(vals, vals[1:]))
    return False


def A_of(flux: dict, u: float) -> float:
    """Antiderivative A(u) with A(0) = 0, for the oracle fluxes used here."""
    kind = flux["kind"]
    if kind == "quadratic-attractive":
        return -0.5 * u * u
    if kind == "piecewise-linear-a":
        nodes = flux["nodes"]
        if not (nodes[0][0] <= 0.0 and u <= nodes[-1][0]):
            raise ValueError("A_of: u outside the node range")
        total = 0.0
        for (u0, a0), (u1, a1) in zip(nodes, nodes[1:]):
            lo, hi = max(u0, 0.0), min(u1, u)
            if hi > lo:
                s = (a1 - a0) / (u1 - u0)
                total += (a0 + s * (0.5 * (lo + hi) - u0)) * (hi - lo)
        return total
    raise ValueError(f"A_of: unsupported flux kind {kind!r}")


def require_attractive(scn: dict) -> dict:
    """Refuse an oracle scenario whose flux is not attractive on [0, M]."""
    m_total = sum(m for _, m in scn["initial"]["atoms"])
    if not a_nonincreasing(scn["flux"], m_total):
        raise ValueError("oracle workload needs a(u) non-increasing on [0, M]")
    return scn


def _rarefaction_pde(rng, tiny):
    # The bundled single_dirac_repulsive scenario at n = 6400, with the atom
    # moved by the seed; exact solution u = clamp((x - x0)/t, 0, 1).
    x0 = rng.uniform(-0.1, 0.1)
    return {
        "flux": {"kind": "quadratic-repulsive"},
        "initial": {"type": "atoms", "atoms": [[x0, 1.0]]},
        "grid": {"x_min": -1.0, "x_max": 3.0, "n_cells": 400 if tiny else 6400},
        "time": {"t_end": 2.0, "cfl": 0.9, "output_times": [0.5, 1.0, 2.0]},
        "diagnostics": {"checks": ["mass", "oleinik", "pressureless"],
                        "tolerances": {}},
    }


def _attractive_crosscheck(rng, tiny):
    n = 6 if tiny else 24
    xs = distinct_positions(rng, n, -2.0, 2.0)
    ms = dyadic_masses(rng, n)
    return require_attractive({
        "flux": {"kind": "piecewise-linear-a", "nodes": PWL_NODES},
        "initial": {"type": "atoms", "atoms": [[x, m] for x, m in zip(xs, ms)]},
        "grid": {"x_min": -4.0, "x_max": 4.0, "n_cells": 400 if tiny else 1600},
        "time": {"t_end": 4.0, "cfl": 0.45,
                 "output_times": [k / 4 for k in range(17)]},
        "diagnostics": {"checks": ["mass", "oleinik", "pressureless",
                                   "pushforward", "weak_residual"],
                        "tolerances": {}},
    })


def _particle_collapse(rng, tiny):
    n = 64 if tiny else 2048
    xs = distinct_positions(rng, n, -1.0, 1.0)
    return require_attractive({
        "flux": {"kind": "quadratic-attractive"},
        "initial": {"type": "atoms", "atoms": [[x, 1.0 / n] for x in xs]},
        # the particle engine never samples the grid; the parser requires one
        "grid": {"x_min": -6.0, "x_max": 2.0, "n_cells": 800},
        "time": {"t_end": 8.0, "cfl": 0.45,
                 "output_times": [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]},
    })


def _diagnostics_validate(rng, tiny):
    shift = rng.uniform(-0.1, 0.1)
    peak = -0.2 + rng.uniform(-0.1, 0.1)
    return {
        "flux": {"kind": "polynomial", "coeffs": [0.0, 1.0, -1.0]},
        "initial": {"type": "triangular", "x_left": -1.0 + shift,
                    "x_peak": peak + shift, "x_right": 1.0 + shift, "mass": 1.0},
        "grid": {"x_min": -4.0, "x_max": 4.0, "n_cells": 400 if tiny else 3200},
        "time": {"t_end": 2.0, "cfl": 0.45,
                 "output_times": [k / 20 for k in range(41)]},
        "diagnostics": {"checks": ["mass", "oleinik", "pressureless",
                                   "weak_residual"],
                        "tolerances": {}},
    }


_GENERATORS = {
    "rarefaction_pde": _rarefaction_pde,
    "attractive_crosscheck": _attractive_crosscheck,
    "particle_collapse": _particle_collapse,
    "diagnostics_validate": _diagnostics_validate,
}


def scenario(name: str, seed: int, tiny: bool = False) -> dict:
    """The scenario dict of one workload; `tiny` shrinks grids and atom
    counts (not output times, which the weak residual needs) for self-tests."""
    rng = random.Random(f"{name}/{seed}")
    return _GENERATORS[name](rng, tiny)


def scenario_bytes(scn: dict) -> bytes:
    return (json.dumps(scn, indent=1, sort_keys=True) + "\n").encode()


def write_scenario(path: str, name: str, seed: int, tiny: bool = False) -> dict:
    scn = scenario(name, seed, tiny)
    with open(path, "wb") as fh:
        fh.write(scenario_bytes(scn))
    return scn
