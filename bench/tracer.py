"""Span tracing of dualflow's public functions, applied from outside `src/`.

Child side: `Tracer.install` wraps every function in TARGETS and rebinds the
wrapper under each name that refers to the original in any dualflow module
(so `cli.wasserstein1`, imported from measure, is traced too) or, for a
method, on its class.  Each call appends one span (function, start, end,
parent span, value) to an in-memory list; `dump` writes them once, when the
command has finished.  `value` is a count or size recorded at a boundary
where a derived metric needs it (see VALUES).

Parent side: `summarize` turns a span file into per-function calls,
inclusive time and self time (span minus the spans it directly contains).
Flux is the bottom layer, called per cell or per step by the others, so its
self time is also split by calling layer: the module of the nearest span
that is not itself in flux.
"""

from __future__ import annotations

import importlib
import math
import time

import numpy as np

TARGETS = {
    "cli": ("load_scenario", "run_pde", "run_particles", "pair_with_oracle",
            "run_diagnostics", "write_field_outputs", "write_particle_outputs",
            "write_summary_csv"),
    "pde": ("run", "step", "stable_dt", "numerical_flux"),
    "flux": ("godunov_flux", "max_slope_on_intervals", "max_wave_speed",
             "max_slope_of_a", "a_range", "eval_A", "eval_a"),
    "measure": ("sample_to_grid", "extract_atoms", "wasserstein1", "quantile",
                "GridField.validate"),
    "particles": ("advance", "next_event", "velocities"),
    "analysis": ("check_oleinik", "pressureless_check", "reconstruct_flow",
                 "pushforward_checks", "weak_residual"),
}
MODULES = tuple(TARGETS)
FUNCTIONS = tuple(f"{m}.{f}" for m, fs in TARGETS.items() for f in fs)
CALLERS = tuple(m for m in MODULES if m != "flux")


def _active_face_frac(snapshots) -> float:
    """Mean share of faces between the first and last non-constant face."""
    fracs = []
    for s in snapshots:
        u = s.field.u_faces
        moving = np.nonzero(np.diff(u))[0]
        span = moving[-1] - moving[0] + 2 if moving.size else 0
        fracs.append(span / u.size)
    return float(np.mean(fracs))


# value recorded per span: (args, kwargs, result) -> float
VALUES = {
    "pde.step": lambda a, k, r: k["dt"] if "dt" in k else a[2],
    "pde.numerical_flux": lambda a, k, r: np.size(a[1]),
    "pde.run": lambda a, k, r: _active_face_frac(r),
    "particles.advance": lambda a, k, r: len(r[1]),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]

    def _wrap(self, index: int, fn, value=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[me] = (index, t0, t1, parent, math.nan)
            if value is not None:
                spans[me] = (index, t0, t1, parent, float(value(args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = {m: importlib.import_module(f"dualflow.{m}") for m in MODULES}
        namespaces = [vars(importlib.import_module("dualflow"))]
        namespaces += [vars(m) for m in mods.values()]
        for index, qual in enumerate(FUNCTIONS):
            mod, _, name = qual.partition(".")
            owner_name, _, method = name.rpartition(".")
            if owner_name:  # a method: rebind on the class only
                owner = getattr(mods[mod], owner_name)
                setattr(owner, method,
                        self._wrap(index, getattr(owner, method), VALUES.get(qual)))
                continue
            original = getattr(mods[mod], name)
            traced = self._wrap(index, original, VALUES.get(qual))
            bound = 0
            for ns in namespaces:
                for key, obj in list(ns.items()):
                    if obj is original:
                        ns[key] = traced
                        bound += 1
            if not bound:
                raise RuntimeError(f"could not trace {qual}")

    def dump(self, path: str):
        np.save(path, np.array(self.spans, dtype=float).reshape(-1, 5))


def summarize(path: str) -> dict:
    """Per-function calls, incl_s, self_s and recorded values of one command."""
    spans = np.load(path)
    fn = spans[:, 0].astype(int)
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(int)
    inner = np.zeros(len(spans))
    nested = parent >= 0
    np.add.at(inner, parent[nested], dur[nested])
    self_t = dur - inner
    module = np.array([MODULES.index(q.partition(".")[0]) for q in FUNCTIONS])[fn]
    flux = MODULES.index("flux")
    caller = module.copy()   # spans are in call order, so parents come first
    for i in np.nonzero(module == flux)[0]:
        caller[i] = caller[parent[i]] if parent[i] >= 0 else flux
    out = {}
    for index, qual in enumerate(FUNCTIONS):
        sel = fn == index
        out[qual] = {
            "calls": int(np.count_nonzero(sel)),
            "incl_s": float(np.sum(dur[sel])),
            "self_s": float(np.sum(self_t[sel])),
            "values": spans[sel, 4],
        }
    in_flux = module == flux
    out["flux_self_by_caller"] = {m: float(np.sum(self_t[in_flux & (caller == MODULES.index(m))]))
                                  for m in CALLERS}
    out["spans"] = len(spans)
    return out


if __name__ == "__main__":
    # Traced command: python3 tracer.py SPANS.npy ARGV... runs `dualflow ARGV`.
    import sys

    tracer = Tracer()
    tracer.install()
    from dualflow import cli

    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)
