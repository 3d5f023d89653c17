"""The PDE time loop's compiled flux: FluxPlan.

Loaded by ``pde`` alone, as ``pwl`` is by ``flux``: the particle engine, the
checks and the Riemann classifier never compile it.  It calls ``flux``'s
functions through the module (``fx.max_wave_speed``), never through names of
its own, so that ``bench/tracer.py``, which rebinds them in ``flux``'s
namespace, times these calls too.
"""

from __future__ import annotations

import math

import numpy as np

from . import flux as fx


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
