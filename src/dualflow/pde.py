"""Monotone finite-volume evolution of the primitive u.

The face samples u_i satisfy the scalar conservation law u_t + A(u)_x = 0
pointwise, so the textbook Godunov update is applied to them directly:

    u_i^{n+1} = u_i^n - (dt/dx) * (F(u_i, u_{i+1}) - F(u_{i-1}, u_i))

with Dirichlet ghost states equal to the pinned end faces: 0 on the left
and the total mass on the right.
The density is recovered as cell masses rho_i = u_{i+1} - u_i.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import NamedTuple

import numpy as np

from . import flux as fx
from .measure import BOUNDARY_TOL, MONOTONE_TOL, GridField

MAX_STEPS = 10**7   # the largest step budget pde.run accepts
MAX_CELL_STEPS = 10**10   # the largest n_cells x step budget pde.run accepts


class SolverError(RuntimeError, ValueError):   # ValueError too, so cli.main needs no pde
    """Fatal numerical failure (NaN state, invalid configuration)."""


class SolverState(NamedTuple):
    t: float
    field: GridField
    cfl: float = fx.CFL
    step_count: int = 0


def numerical_flux(model: fx.FluxModel, u_left, u_right):
    """Godunov flux plus a corner-dissipation term on convex stretches of A.

    Pure Godunov leaves an O(1) density spike in the single cell at a
    rarefaction foot where the characteristic speed stagnates (the face
    value there decays only like 2*dx/t), which breaks the 1/t density
    bound.  Blending in local Lax-Friedrichs dissipation with speed
    s = max(0, max a') * |u_right - u_left| removes the spike; s vanishes
    identically wherever a is non-increasing, so shocks in the attractive
    case see the exact Godunov flux.
    """
    F = fx.godunov_flux(model, u_left, u_right)
    slope = fx.max_slope_on_intervals(model, np.minimum(u_left, u_right),
                                      np.maximum(u_left, u_right))
    du = np.asarray(u_right) - np.asarray(u_left)
    s = np.maximum(slope, 0.0) * np.abs(du)
    return F - 0.5 * s * du


def _outside() -> int:
    """The stacklevel of the first frame outside this module, for a warning
    raised by the caller: it names the user of step, run or march."""
    level, frame = 1, sys._getframe(1)
    while frame.f_globals is globals():
        level, frame = level + 1, frame.f_back
    return level


def stable_dt(field: GridField, model: fx.FluxModel, cfl: float) -> float:
    """CFL time step from the exact wave-speed bound on [min u, max u]; inf at rest."""
    return _March(field, model).dt(cfl)


class _March:
    """The faces of one run between Dirichlet ghosts, advanced in place.

    ``ext`` = [u_0, u_0, ..., u_n, u_n]: the ghosts repeat the pinned end
    faces (u_0 = 0 within BOUNDARY_TOL·M, u_n = M), so the left ghost enters
    only face 0's update, which the pin discards.  Only faces next to a
    non-zero jump d_j = ext[j+1] - ext[j] can change in a step: elsewhere
    the update is F(c, c) - F(c, c) = 0 exactly.  The jumps are non-zero
    only for j in ``self.window`` (None when u is constant), which grows by
    at most one jump per side per step, so each step updates that stretch
    alone.

    While the faces are nondecreasing, ``ext`` lies between its ghosts: the
    flux plan, with the wave bound of the CFL step, is built once for
    [ext[0], ext[-1]].  A step whose faces dipped by roundoff (within
    MONOTONE_TOL·M) takes the reference ``numerical_flux`` and the CFL step
    of a plan of its own [min u, max u].
    """

    def __init__(self, field: GridField, model: fx.FluxModel):
        u = field.u_faces
        if not np.all(np.isfinite(u)):
            raise SolverError("NaN/Inf in solver state")
        self.grid = field
        self.dx = field.dx
        self.model = model
        self.ext = np.concatenate((u[:1], u, u[-1:]))
        self.plan = fx.FluxPlan(model, float(u[0]), float(u[-1]))
        mass = abs(float(u[-1]))   # the roundoff tolerances on u are relative to it
        self.monotone_tol, self.boundary_tol = MONOTONE_TOL * mass, BOUNDARY_TOL * mass
        self.jumps = np.empty(u.size + 1)   # d_j = ext[j+1] - ext[j], kept current by _check
        self.work = list(np.empty((4, u.size + 2)))   # scratch rows
        self._check(0, u.size)

    def _check(self, j0: int, j1: int):
        """Refresh and validate the jumps d_j0..d_j1, which hold every non-zero jump.

        One pass gives the finiteness and monotonicity checks (a NaN or an
        infinite face makes the smallest jump NaN or -inf), the ordering of
        the faces, the largest jump for the CFL bound and the new window.
        The new window's first jump is d_j0 or else d_j0+1, the old end (its
        last d_j1 or d_j1-1); d is searched only when both are zero.
        """
        ext = self.ext
        d = np.subtract(ext[j0 + 1:j1 + 2], ext[j0:j1 + 1], self.jumps[j0:j1 + 1])
        d_min = float(np.minimum.reduce(d))
        if not d_min >= -self.monotone_tol:
            self.field()   # raises the validation error
        self.ordered = d_min >= 0.0
        self.jump = max(float(np.maximum.reduce(d)), -d_min)
        first = j0 if d[0] else j0 + 1 if d[1] else None
        last = j1 if d[-1] else j1 - 1 if d[-2] else None
        if first is None or last is None:
            nonzero = j0 + d.nonzero()[0]
            first, last = (int(nonzero[0]), int(nonzero[-1])) if nonzero.size else (None, None)
        self.window = None if first is None else (first, last)

    def dt(self, cfl: float) -> float:
        """The CFL step of the current faces; inf when no wave moves."""
        if self.ordered:
            return self.plan.dt(cfl, self.dx, self.jump)
        u = self.ext[1:-1]
        plan = fx.FluxPlan(self.model, float(np.minimum.reduce(u)), float(np.maximum.reduce(u)))
        return plan.dt(cfl, self.dx, self.jump)

    def advance(self, dt: float):
        """One Godunov step of length dt; boundary faces stay pinned exactly."""
        if not math.isfinite(dt) or dt <= 0:
            raise SolverError("no positive time step available (pass dt for rest states)")
        if self.window is None:
            return
        ext, work = self.ext, self.work
        n = ext.size - 2   # faces
        j0, j1 = max(self.window[0] - 1, 0), min(self.window[1] + 1, n)
        m = j1 - j0 + 1
        e = ext[j0:j1 + 2]
        if self.ordered:
            F = self.plan.fluxes(e, self.jumps[j0:j1 + 1], work[2][:m], work)
        else:
            F = numerical_flux(self.model, e[:-1], e[1:])
        dF = np.subtract(F[1:], F[:-1], work[3][:m - 1])
        dF *= dt / self.dx
        faces = ext[j0 + 1:j1 + 1]
        faces -= dF   # in place; `ext[j0 + 1:j1 + 1] -= dF` would copy it back too
        if j0 == 0 or j1 == n:
            # Dirichlet pinning to the ghosts; warn when waves reach the edge of the grid.
            tol = self.boundary_tol
            if abs(ext[1] - ext[0]) > tol or abs(ext[n] - ext[-1]) > tol:
                warnings.warn("wave reached the grid boundary; domain too small",
                              RuntimeWarning, stacklevel=_outside())
            ext[1], ext[n] = ext[0], ext[-1]
        self._check(j0, j1)

    def field(self) -> GridField:
        g = self.grid
        return GridField(g.x_min, g.x_max, g.n_cells, self.ext[1:-1]).validate()   # copies

    def step_budget(self, t_end: float, cfl: float, n_targets: int) -> float:
        """More steps than any run to t_end takes.

        ext stays between its ghosts but for roundoff, which _check admits
        down to a jump of -MONOTONE_TOL·M, so the bound is taken on that range
        widened by MONOTONE_TOL·M on each side.  Every step but the last before
        an output time is at least the CFL step of that bound (none, and an
        inf budget, if it overflows); doubling the count and a few steps more
        leave room for roundoff.
        """
        lo, hi = float(self.ext[0]) - self.monotone_tol, float(self.ext[-1]) + self.monotone_tol
        dt_floor = fx.FluxPlan(self.model, lo, hi).dt(cfl, self.dx, hi - lo)
        return 2.0 * (n_targets + (t_end / dt_floor if dt_floor > 0.0 else math.inf)) + 8.0


def step(state: SolverState, model: fx.FluxModel, dt: float | None = None) -> SolverState:
    """Advance one Godunov step; boundary faces stay pinned exactly."""
    march = _March(state.field, model)
    if dt is None:
        dt = march.dt(state.cfl)
    march.advance(dt)
    return SolverState(state.t + dt, march.field(), state.cfl, state.step_count + 1)


def march(initial: GridField, model: fx.FluxModel, t_end: float,
          cfl: float = fx.CFL, output_times=None):
    """March to t_end, yielding a snapshot as each requested output time is
    reached (landing on it exactly; t_end is always included).

    The arguments are checked, and the step budget set, before the first
    snapshot.  A run whose budget (``_March.step_budget``) exceeds MAX_STEPS,
    or whose n_cells x budget exceeds MAX_CELL_STEPS, is refused before its
    first step, and one that needs more steps than its budget raises
    SolverError instead of running on.
    """
    if not (0 < t_end < np.inf):
        raise ValueError("t_end must be positive and finite")
    if not (0 < cfl <= 1):
        raise ValueError("cfl must lie in (0, 1]")
    initial.validate()
    targets = sorted(set(float(t) for t in (output_times or [])) | {t_end})
    if targets[0] < 0 or targets[-1] > t_end:
        raise ValueError("output times must lie in [0, t_end]")

    at_zero = targets[0] == 0.0
    faces = _March(initial, model)
    budget = faces.step_budget(t_end, cfl, len(targets) - at_zero)
    if budget > MAX_STEPS:
        raise SolverError(f"t_end = {t_end} needs a budget of {budget:.3g} steps, "
                          f"more than MAX_STEPS = {MAX_STEPS}")
    if initial.n_cells * budget > MAX_CELL_STEPS:
        raise SolverError(f"t_end = {t_end} on {initial.n_cells} cells needs a budget of "
                          f"{initial.n_cells * budget:.3g} cell steps, "
                          f"more than MAX_CELL_STEPS = {MAX_CELL_STEPS}")
    if at_zero:
        yield SolverState(0.0, initial, cfl, 0)
    t, steps = 0.0, 0
    for target in targets[at_zero:]:
        while t < target - 1e-15 * target:   # relative to the target: any time scale lands
            if steps >= budget:
                raise SolverError(f"step budget ({budget:.0f} steps) exhausted at t = {t}")
            dt = min(faces.dt(cfl), target - t)
            faces.advance(dt)
            t += dt
            steps += 1
        yield SolverState(target, faces.field(), cfl, steps)  # t absorbs roundoff


def run(initial: GridField, model: fx.FluxModel, t_end: float,
        cfl: float = fx.CFL, output_times=None) -> list[SolverState]:
    """march's snapshots, one per output time, as a list."""
    return list(march(initial, model, t_end, cfl, output_times))
