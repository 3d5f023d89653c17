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

from . import NumpyOnFirstUse
from . import flux as fx   # called as fx.name, where bench/tracer.py rebinds flux's functions
from .measure import BOUNDARY_TOL, MONOTONE_TOL, GridField

np = NumpyOnFirstUse(globals())

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


class FluxPlan:
    """A FluxModel compiled for the PDE time loop on nondecreasing faces
    within [lo, hi], with the range's wave bound ``speed`` = max |a| and
    ``slope`` = max(0, max a') for its CFL step ``dt``.

    Holds from the extremum tables the evaluators of A and a', the
    stationary points of A with their values and the stretches where a' > 0
    can be reached, the last two kept only where they meet (lo, hi).
    ``fluxes`` reproduces ``numerical_flux`` on consecutive face values bit
    for bit, and uses their order: a stationary point lies strictly inside
    one face interval at most, found with one searchsorted.  For A = c·u²
    with no stationary point inside (lo, hi) it is A at the upwind face,
    ``upwind``.  Faces out of order go to the reference itself.
    """

    def __init__(self, model: fx.FluxModel, lo: float, hi: float):
        A, _, da = model._tables
        with np.errstate(over="ignore"):   # a bound that overflows is inf: no step is stable
            self.speed = fx.max_wave_speed(model, lo, hi)
            self.slope = max(0.0, fx.max_slope_of_a(model, lo, hi))
        # A point or stretch not meeting (lo, hi) is strictly inside no face
        # interval, so dropping it changes no flux.
        inside = fx._meeting(lo, hi, A)[0]
        self.stationary = tuple(zip(A.left[inside].tolist(), A.vals[inside].tolist()))
        # None: a' <= 0 on [lo, hi], so the corner-dissipation term is exactly zero
        inside = fx._meeting(lo, hi, da)[0] & (da.vals > 0.0)
        self.corner = None if self.slope <= 0.0 else tuple(
            zip(da.left[inside].tolist(), da.right[inside].tolist(), da.vals[inside].tolist()))
        self.A, self.da = A.at.sorted, da.at
        # A = c·u², c ≠ 0, which _horner evaluates as (u·c)·u + 0.0 whatever the kind
        # (A.at is (+0.0, None, c): _new_tables' literal 0.0 is A's constant term), is
        # monotone on a range without 0 inside, and so is each rounded product: on
        # nondecreasing faces min(A(uL), A(uR)) is, bit for bit (every zero of A is +0.0),
        # A at the upwind face, uL where A rises.  For c > 0, (u·c)·u is never -0.0, so no
        # + 0.0.  None, or (c, whether the upwind face is uR, 0.0 or None)
        self.upwind = None
        at = A.at
        if (type(at) is fx._Horner and len(at) == 3 and at[1] is None and at[2]
                and not self.stationary):
            zero, _, c = at
            rises = (float(c) > 0.0) == (lo >= 0.0)
            self.upwind = (c, not rises, None if c > 0.0 else zero)
        self.half = np.array(0.5)   # 0-d: a ufunc takes it faster than a float
        # a' a constant: its value (1.0 skips the pass du * 1.0), else None
        self.da_const = float(da.at[0]) if da.at is not None and len(da.at) == 1 else None

    def dt(self, cfl: float, dx: float, jump: float) -> float:
        """The CFL step of faces in [lo, hi] whose largest jump is ``jump``; inf
        when no wave moves.  Corner dissipation adds at most slope * jump; with
        slope 0, ``jump`` is not read."""
        speed = self.speed + self.slope * jump if self.slope > 0.0 else self.speed
        return cfl * dx / speed if speed > 0.0 else math.inf

    def fluxes(self, e, uL, uR, du, out, work):
        """numerical_flux(model, uL, uR) into ``out``, bit for bit, for
        nondecreasing faces ``e`` within the plan's [lo, hi], given with its
        views uL = e[:-1] and uR = e[1:] and their jumps du = uR - uL.

        ``work`` holds two scratch rows of length >= e.size.
        """
        m = du.size
        if self.upwind is not None:   # A = c·u² at the upwind face, on m faces
            c, right, zero = self.upwind
            u = uR if right else uL
            F = np.multiply(u, c, out)
            F *= u
            if zero is not None:
                np.add(F, zero, F)
        else:
            A = self.A(e, work[0][:m + 1])
            # Godunov on uL <= uR: the min of A over [uL, uR]
            F = np.minimum(A[:-1], A[1:], out=out)
            # sorted faces: a stationary point c can be inside (uL, uR) of the
            # face k alone, where e[k] < c <= e[k + 1]
            for c, Ac in self.stationary:
                k = e.searchsorted(c) - 1
                if 0 <= k < m and c < e[k + 1] and not F[k] < Ac:
                    F[k] = Ac   # np.minimum's pick: on a tie, Ac
        if self.corner is None:
            return F
        # corner dissipation: F - 0.5 * s * du, s = max(0, max a') * du
        if self.da_const is not None:   # a' is a constant, here > 0
            s = du if self.da_const == 1.0 else np.multiply(du, self.da[0], work[1][:m])
        else:
            if self.da is None:   # a' has no value at a node: the stretches alone
                slope = np.zeros(m)
            else:   # a' at the face values
                D = self.da(e, work[0][:m + 1])
                slope = np.maximum(D[:-1], D[1:])
                np.maximum(slope, 0.0, out=slope)
            for l, r, v in self.corner:
                np.maximum(slope, v, out=slope, where=(l < uR) & (uL < r))
            s = np.multiply(slope, du, out=slope)
        term = np.multiply(s, self.half, work[1][:m])
        term *= du
        F -= term
        return F


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
    of a plan of its own [min u, max u].  ``stepper`` makes the one step
    body that march and step run.
    """

    def __init__(self, field: GridField, model: fx.FluxModel):
        u = field.u_faces
        if not np.all(np.isfinite(u)):
            raise SolverError("NaN/Inf in solver state")
        self.grid = field
        self.dx = field.dx
        self.model = model
        self.ext = np.concatenate((u[:1], u, u[-1:]))
        self.plan = FluxPlan(model, float(u[0]), float(u[-1]))
        mass = abs(float(u[-1]))   # the roundoff tolerances on u are relative to it
        self.monotone_tol, self.boundary_tol = MONOTONE_TOL * mass, BOUNDARY_TOL * mass
        self.jumps = np.empty(u.size + 1)   # d_j = ext[j+1] - ext[j], kept current by _check
        self.work = list(np.empty((4, u.size + 2)))   # scratch rows
        self._check(0, self.ext[:-1], self.ext[1:], self.jumps)

    def _check(self, j0: int, uL, uR, d):
        """Refresh and validate the jumps d = uR - uL, the views ext[j0:j1 + 1],
        ext[j0 + 1:j1 + 2] and jumps[j0:j1 + 1], which hold every non-zero jump.

        One pass gives the finiteness and monotonicity checks (a NaN or an
        infinite face makes the smallest jump NaN or -inf), the ordering of
        the faces, the largest jump for the CFL bound and the new window.
        The largest jump is taken only where the CFL step reads it, on faces
        out of order or with a plan whose slope is > 0; else it is None.
        The extremes are read at argmin/argmax, about half the cost of a
        ufunc reduce: both return the first NaN, and of a +-0 tie they may
        pick the other zero, whose sign no comparison and no speed + slope *
        jump can see.
        The new window's first jump is d_j0 or else d_j0+1, the old end (its
        last d_j1 or d_j1-1); d is searched only when both are zero.
        """
        np.subtract(uR, uL, d)
        d_min = d.item(d.argmin())
        if not d_min >= -self.monotone_tol:
            self.field()   # raises the validation error
        self.ordered = ordered = d_min >= 0.0
        self.jump = (max(d.item(d.argmax()), -d_min)
                     if not ordered or self.plan.slope > 0.0 else None)
        j1 = j0 + d.size - 1
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
        plan = FluxPlan(self.model, float(np.minimum.reduce(u)), float(np.maximum.reduce(u)))
        return plan.dt(cfl, self.dx, self.jump)

    def stepper(self, cfl: float | None):
        """The step body: ``step(limit)`` takes one Godunov step, of the CFL
        step ``dt(cfl)`` or ``limit``, whichever is shorter (``limit`` itself
        when cfl is None), with the boundary faces pinned exactly, and
        returns its length.

        The buffers, the plan's constants and the ufuncs are bound here, once
        per run; the state of the faces (``ordered``, ``jump``, ``window``)
        stays on the march, and ``_check`` refreshes it after each step.
        """
        ext, jumps, work, dx, model = self.ext, self.jumps, self.work, self.dx, self.model
        plan_dt, fluxes, dt_of, check = self.plan.dt, self.plan.fluxes, self.dt, self._check
        n = ext.size - 2   # faces
        flux_row, diff_row, subtract, inf = work[2], work[3], np.subtract, math.inf

        def step(limit: float) -> float:
            if cfl is None:
                dt = limit
            else:
                dt = plan_dt(cfl, dx, self.jump) if self.ordered else dt_of(cfl)
                if limit < dt:
                    dt = limit
            if not 0.0 < dt < inf:
                raise SolverError("no positive time step available (pass dt for rest states)")
            window = self.window
            if window is None:
                return dt
            j0, j1 = max(window[0] - 1, 0), min(window[1] + 1, n)
            m = j1 - j0 + 1
            # the stretch's faces and jumps, sliced once for the fluxes and the check
            e, du = ext[j0:j1 + 2], jumps[j0:j1 + 1]
            uL, uR = e[:-1], e[1:]
            if self.ordered:
                F = fluxes(e, uL, uR, du, flux_row[:m], work)
            else:
                F = numerical_flux(model, uL, uR)
            dF = subtract(F[1:], F[:-1], diff_row[:m - 1])
            dF *= dt / dx
            faces = ext[j0 + 1:j1 + 1]
            faces -= dF   # in place; `ext[j0 + 1:j1 + 1] -= dF` would copy it back too
            if j0 == 0 or j1 == n:
                # Dirichlet pinning to the ghosts; warn when waves reach the edge of the grid.
                tol = self.boundary_tol
                if abs(ext[1] - ext[0]) > tol or abs(ext[n] - ext[-1]) > tol:
                    warnings.warn("wave reached the grid boundary; domain too small",
                                  RuntimeWarning, stacklevel=_outside())
                ext[1], ext[n] = ext[0], ext[-1]
            check(j0, uL, uR, du)
            return dt

        return step

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
        dt_floor = FluxPlan(self.model, lo, hi).dt(cfl, self.dx, hi - lo)
        return 2.0 * (n_targets + (t_end / dt_floor if dt_floor > 0.0 else math.inf)) + 8.0


def step(state: SolverState, model: fx.FluxModel, dt: float | None = None) -> SolverState:
    """Advance one Godunov step; boundary faces stay pinned exactly."""
    march = _March(state.field, model)
    if dt is None:
        dt = march.stepper(state.cfl)(math.inf)
    else:
        march.stepper(None)(dt)
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
    advance = faces.stepper(cfl)
    t, steps = 0.0, 0
    for target in targets[at_zero:]:
        while t < target - 1e-15 * target:   # relative to the target: any time scale lands
            if steps >= budget:
                raise SolverError(f"step budget ({budget:.0f} steps) exhausted at t = {t}")
            t += advance(target - t)
            steps += 1
        yield SolverState(target, faces.field(), cfl, steps)  # t absorbs roundoff


def run(initial: GridField, model: fx.FluxModel, t_end: float,
        cfl: float = fx.CFL, output_times=None) -> list[SolverState]:
    """march's snapshots, one per output time, as a list."""
    return list(march(initial, model, t_end, cfl, output_times))
