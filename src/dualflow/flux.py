"""Interaction-velocity models: a(u), its antiderivative A(u), and the Godunov flux.

A model is the pair (a, A) with the normalization A(0) = 0.  Built-in kinds:

    quadratic-attractive   a(u) = -u,  A(u) = -u^2/2
    quadratic-repulsive    a(u) =  u,  A(u) =  u^2/2
    polynomial             a(u) = sum_k c_k u^k
    piecewise-linear-a     a interpolated between (u_k, a_k) nodes,
                           constant extension outside the node range
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as P

KINDS = (
    "quadratic-attractive",
    "quadratic-repulsive",
    "polynomial",
    "piecewise-linear-a",
)


class FluxError(ValueError):
    """Bad flux model definition or non-finite evaluation input."""


@dataclass(frozen=True)
class FluxModel:
    """Velocity a and antiderivative A, both evaluable in closed form.

    ``a_coeffs`` holds polynomial coefficients c_0..c_n (a(u) = sum c_k u^k)
    for polynomial-type kinds; ``nodes`` holds ((u_0, a_0), ...) for the
    piecewise-linear kind.  A(0) = 0 always.
    """

    kind: str
    a_coeffs: tuple[float, ...] = ()
    nodes: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise FluxError(f"unknown flux kind {self.kind!r}")
        if self.kind == "piecewise-linear-a":
            if len(self.nodes) < 2:
                raise FluxError("piecewise-linear-a needs at least 2 nodes")
            us = [u for u, _ in self.nodes]
            if any(u2 <= u1 for u1, u2 in zip(us, us[1:])):
                raise FluxError("piecewise-linear-a nodes must have increasing u")
            slopes = [(a2 - a1) / (u2 - u1)
                      for (u1, a1), (u2, a2) in zip(self.nodes, self.nodes[1:])]
            if not all(map(math.isfinite, [*us, *slopes])):
                raise FluxError("piecewise-linear-a nodes must be finite, with a "
                                "finite slope of a between them")
        elif self.kind == "polynomial":
            if not self.a_coeffs:
                raise FluxError("polynomial model needs coefficients")
            if not all(map(math.isfinite, self.a_coeffs)):
                raise FluxError("polynomial coefficients must be finite")
            try:   # the extremum candidates of A, a and a'
                stationary_points(self)
                _range_plan(self)
            except np.linalg.LinAlgError as exc:
                raise FluxError(f"polynomial coefficients {list(self.a_coeffs)} out of "
                                f"range: their roots cannot be computed ({exc})") from exc


def quadratic_attractive() -> FluxModel:
    return FluxModel("quadratic-attractive", a_coeffs=(0.0, -1.0))


def quadratic_repulsive() -> FluxModel:
    return FluxModel("quadratic-repulsive", a_coeffs=(0.0, 1.0))


def polynomial(coeffs) -> FluxModel:
    return FluxModel("polynomial", a_coeffs=tuple(float(c) for c in coeffs))


def piecewise_linear(nodes) -> FluxModel:
    return FluxModel(
        "piecewise-linear-a",
        nodes=tuple((float(u), float(a)) for u, a in nodes),
    )


def _check_finite(u):
    if not np.isfinite(u).all():
        raise FluxError("non-finite argument to flux evaluation")


@functools.lru_cache(maxsize=None)
def _pwl_arrays(model: FluxModel):
    us = np.array([u for u, _ in model.nodes])
    avs = np.array([a for _, a in model.nodes])
    return us, avs


def eval_a(model: FluxModel, u):
    """Evaluate the velocity a(u).  Accepts scalars or arrays."""
    u = np.asarray(u, dtype=float)
    _check_finite(u)
    if model.kind == "piecewise-linear-a":
        us, avs = _pwl_arrays(model)
        out = np.interp(u, us, avs)
    else:
        out = P.polyval(u, np.asarray(model.a_coeffs))
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=None)
def _A_coeffs(model: FluxModel) -> np.ndarray:
    """Coefficients of A for the polynomial kinds: c_k/(k+1) shifted by one."""
    c = np.asarray(model.a_coeffs)
    out = np.concatenate(([0.0], c / np.arange(1, len(c) + 1)))
    out.setflags(write=False)   # shared by every caller
    return out


class _PwlA:
    """A(u) for the piecewise-linear kind: a table per segment, built once."""

    def __init__(self, model: FluxModel):
        us, avs = _pwl_arrays(model)
        raw = np.concatenate(([0.0], np.cumsum(0.5 * (avs[1:] + avs[:-1]) * np.diff(us))))
        self.nodes = us
        self.inner_nodes = us[1:-1]
        # per segment k: u_k, a_k, A_raw(u_k) and half the slope of a
        self.segments = (us[:-1], avs[:-1], raw[:-1],
                         0.5 * ((avs[1:] - avs[:-1]) / (us[1:] - us[:-1])))
        self.edges = (float(us[0]), float(avs[0]), float(raw[0]),
                      float(us[-1]), float(avs[-1]), float(raw[-1]))
        self.shift = float(self._raw(np.asarray(0.0), False))

    def within(self, lo, hi) -> bool:
        return bool(self.nodes[0] <= lo and hi <= self.nodes[-1])

    def __call__(self, u, within: bool, out=None):
        """A(u) = A_raw(u) - A_raw(0); ``within``: all u lie in the node range."""
        out = self._raw(u, within, out)
        out -= self.shift
        return out

    def _raw(self, u, within, out=None):
        # the integral of a from the first node
        u0, a0, raw0, half_slope = self.segments
        idx = np.searchsorted(self.inner_nodes, u, side="right")
        du = u - u0[idx]
        val = a0[idx]
        val *= du
        val += raw0[idx]          # raw + a0*du
        quad = half_slope[idx]
        quad *= du
        quad *= du                # 0.5*slope*du*du
        out = np.add(val, quad, out=out)
        if not within:   # constant extension of a outside the node range
            u_first, a_first, raw_first, u_last, a_last, raw_last = self.edges
            below = raw_first + a_first * (u - u_first)
            above = raw_last + a_last * (u - u_last)
            out = np.where(u < u_first, below, np.where(u > u_last, above, out))
        return out


@functools.lru_cache(maxsize=None)
def _pwl_A(model: FluxModel) -> _PwlA:
    return _PwlA(model)


def eval_A(model: FluxModel, u):
    """Evaluate the antiderivative A(u) with A(0) = 0."""
    u = np.asarray(u, dtype=float)
    _check_finite(u)
    if model.kind == "piecewise-linear-a":
        A = _pwl_A(model)
        out = A(u, u.size == 0 or A.within(u.min(), u.max()))
    else:
        out = P.polyval(u, _A_coeffs(model))
    return out if out.ndim else float(out)


def _real_poly_roots(coeffs):
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if len(c) <= 1:
        return np.empty(0)
    r = np.roots(c[::-1])
    r = r[np.abs(r.imag) < 1e-9].real
    return np.sort(r)


@functools.lru_cache(maxsize=None)
def stationary_points(model: FluxModel) -> tuple[float, ...]:
    """All u where a(u) = 0, i.e. interior extremum candidates of A."""
    if model.kind == "piecewise-linear-a":
        us, avs = _pwl_arrays(model)
        pts = list(us[avs == 0.0])
        for k in range(len(us) - 1):
            a0, a1 = avs[k], avs[k + 1]
            if a0 * a1 < 0:
                pts.append(us[k] - a0 * (us[k + 1] - us[k]) / (a1 - a0))
        return tuple(sorted(pts))
    return tuple(_real_poly_roots(model.a_coeffs))


@functools.lru_cache(maxsize=None)
def _range_plan(model: FluxModel):
    """Where a and a' can attain their extrema inside a query interval.

    Returns ((a_cand, a_vals), (left, right, da_vals, da)).  a_cand are the
    interior extremum candidates of a, and a_vals = a(a_cand).  Each
    [left, right] is a stretch on which a' takes the value da_vals: single
    points (the roots of a'') for polynomial kinds, where ``da`` holds the
    coefficients of a' for the interval endpoints; the segments between
    nodes plus the two constant extensions for the piecewise-linear kind,
    which needs no endpoint values (``da`` is None).
    """
    if model.kind == "piecewise-linear-a":
        us, avs = _pwl_arrays(model)
        left = np.concatenate(([-np.inf], us))
        right = np.concatenate((us, [np.inf]))
        slopes = np.concatenate(([0.0], np.diff(avs) / np.diff(us), [0.0]))
        return (us, eval_a(model, us)), (left, right, slopes, None)
    c = np.asarray(model.a_coeffs)
    da = c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1)
    a_cand = _real_poly_roots(da)
    da_cand = _real_poly_roots(da[1:] * np.arange(1, len(da)))
    return (a_cand, eval_a(model, a_cand)), (da_cand, da_cand, P.polyval(da_cand, da), da)


def _pick(lo, hi, left, right, vals, fill):
    """Array [k, ...]: vals[k] where [left[k], right[k]] meets the open
    interval (lo, hi), else fill."""
    shape = vals.shape + (1,) * np.ndim(lo)
    inside = (left.reshape(shape) < hi) & (lo < right.reshape(shape))
    return np.where(inside, vals.reshape(shape), fill)


def _scalar(x):
    return x if np.ndim(x) else float(x)


def a_range(model: FluxModel, lo, hi):
    """(min, max) of a over each [lo, hi]; the bounds may come in either order."""
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    cand, vals = _range_plan(model)[0]
    ends = eval_a(model, np.array((lo, hi)))
    vals = np.concatenate((ends, _pick(lo, hi, cand, cand, vals, ends[0])))
    return _scalar(vals.min(axis=0)), _scalar(vals.max(axis=0))


def max_wave_speed(model: FluxModel, lo: float, hi: float) -> float:
    amin, amax = a_range(model, lo, hi)
    return max(abs(amin), abs(amax))


def max_slope_on_intervals(model: FluxModel, lo, hi):
    """Max of a' (slope of the velocity) over each [lo_i, hi_i], lo_i <= hi_i.

    Positive values flag locally convex stretches of A, where rarefactions
    live; the solver uses this to scale its corner-dissipation term.  At a
    lone node of the piecewise-linear kind (lo_i = hi_i = a node) a' is
    taken as 0.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    left, right, vals, da = _range_plan(model)[1]
    if da is None:
        out = _pick(lo, hi, left, right, vals, -np.inf).max(axis=0)
        return np.where(out > -np.inf, out, 0.0)
    out = np.maximum(P.polyval(lo, da), P.polyval(hi, da))
    if vals.size:
        out = np.maximum(out, _pick(lo, hi, left, right, vals, out).max(axis=0))
    return out


def max_slope_of_a(model: FluxModel, lo: float, hi: float) -> float:
    """Largest slope of a on [lo, hi]; used to test the attractive hypothesis."""
    return float(max_slope_on_intervals(model, min(lo, hi), max(lo, hi)))


ATTRACTIVE_TOL = 1e-12   # the largest slope of a that is_attractive calls non-increasing


def is_attractive(model: FluxModel, m_total: float) -> bool:
    """True when a is non-increasing on [0, m_total] (concave A)."""
    return max_slope_of_a(model, 0.0, m_total) <= ATTRACTIVE_TOL


def godunov_flux(model: FluxModel, u_left, u_right):
    """Exact Godunov interface flux for u_t + A(u)_x = 0.

    min of A over [u_left, u_right] for u_left <= u_right, max over
    [u_right, u_left] otherwise.  Vectorized over both arguments.
    """
    ul = np.asarray(u_left, dtype=float)
    ur = np.asarray(u_right, dtype=float)
    _check_finite(ul)
    _check_finite(ur)
    lo = np.minimum(ul, ur)
    hi = np.maximum(ul, ur)
    A_lo = eval_A(model, lo)
    A_hi = eval_A(model, hi)
    fmin = np.minimum(A_lo, A_hi)
    fmax = np.maximum(A_lo, A_hi)
    for c in stationary_points(model):
        inside = (lo < c) & (c < hi)
        if np.any(inside):
            Ac = eval_A(model, c)
            fmin = np.where(inside, np.minimum(fmin, Ac), fmin)
            fmax = np.where(inside, np.maximum(fmax, Ac), fmax)
    out = np.where(ul <= ur, fmin, fmax)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# compiled plan for the solver's time loop


def _horner(x, coeffs, out):
    """P.polyval(x, coeffs) into ``out``, in numpy's operation order:
    c[-1] + x*0, then c[k] + y*x for k = len - 2 .. 0 (len(coeffs) >= 2)."""
    np.multiply(x, 0.0, out=out)
    np.add(out, coeffs[-1], out=out)
    for c in coeffs[-2::-1]:
        np.multiply(out, x, out=out)
        np.add(out, c, out=out)
    return out


class _Stage(NamedTuple):
    """What the face flux needs on data within one range [lo, hi]."""

    stationary: tuple   # (c, A(c)) for the stationary points with lo < c < hi
    within: bool        # [lo, hi] lies in the piecewise-linear node range
    corner: tuple | None  # None: the corner-dissipation term is exactly zero


class FluxPlan:
    """A FluxModel compiled once (``flux_plan``) for the PDE time loop.

    Holds, as Python floats, the Horner coefficients of A and a' (polynomial
    kinds) or the per-segment table of A with its A(0) shift (the
    piecewise-linear kind), the stationary points of A with their values,
    and the candidate stretches of a'.  Both queries below reproduce the
    reference functions bit for bit: ``wave_bounds`` is stable_dt's bound,
    ``fluxes`` is ``numerical_flux`` on consecutive face values.
    """

    def __init__(self, model: FluxModel):
        self.model = model
        left, right, vals, da = _range_plan(model)[1]
        self.slope_cands = left, right, vals
        self.da = () if da is None else tuple(da.tolist())   # a' for the polynomial kinds
        if model.kind == "piecewise-linear-a":
            self.pwl = _pwl_A(model)
        else:
            self.pwl = None
            self.A_coeffs = tuple(_A_coeffs(model).tolist())
        self.stationary = tuple((float(p), eval_A(model, p)) for p in stationary_points(model))
        self.wave_bounds = functools.lru_cache(maxsize=64)(self._wave_bounds)
        self._stage = functools.lru_cache(maxsize=64)(self._make_stage)

    def _wave_bounds(self, lo: float, hi: float):
        """(max |a|, max(0, max a')) over [lo, hi]: stable_dt's two range queries."""
        return (max_wave_speed(self.model, lo, hi),
                max(0.0, max_slope_of_a(self.model, lo, hi)))

    def _make_stage(self, lo: float, hi: float) -> _Stage:
        # A point or stretch not meeting (lo, hi) is strictly inside no face
        # interval, so dropping it changes no flux.
        stationary = tuple((c, Ac) for c, Ac in self.stationary if lo < c < hi)
        left, right, vals = self.slope_cands
        if self.pwl is not None:
            within = self.pwl.within(lo, hi)
            # max(0, slope) only sees the segments of positive slope
            segs = tuple((l, r, v) for l, r, v in zip(left.tolist(), right.tolist(), vals.tolist())
                         if v > 0.0 and l < hi and lo < r)
            return _Stage(stationary, within, ("segments", segs) if segs else None)
        if len(self.da) == 1:   # constant a' = k: corner term is max(k, 0)*|du|
            k = self.da[0]
            return _Stage(stationary, True, ("constant", k) if k > 0.0 else None)
        cands = tuple((c, v) for c, v in zip(left.tolist(), vals.tolist()) if lo < c < hi)
        return _Stage(stationary, True, ("polynomial", cands))

    def fluxes(self, e, out, work, lo: float, hi: float, ordered: bool):
        """numerical_flux(model, e[:-1], e[1:]) into ``out``, bit for bit.

        ``lo`` and ``hi`` bound the values of ``e``; ``ordered`` says e is
        nondecreasing.  ``work`` is a scratch array of shape (4, >= e.size).
        """
        m = e.size - 1
        stage = self._stage(lo, hi)
        uL, uR = e[:-1], e[1:]
        if self.pwl is None:
            A = _horner(e, self.A_coeffs, work[0, :m + 1])
        else:
            A = self.pwl(e, stage.within, out=work[0, :m + 1])
        if ordered:   # the usual case; skipping min/max/abs saves ~7% of a rarefaction run
            flo, fhi = uL, uR
        else:
            flo = np.minimum(uL, uR, out=work[1, :m])
            fhi = np.maximum(uL, uR, out=work[2, :m])
        # Godunov: min of A over [uL, uR], max over [uR, uL]
        F = np.minimum(A[:-1], A[1:], out=out)
        fmax = None if ordered else np.maximum(A[:-1], A[1:])
        for c, Ac in stage.stationary:
            inside = (flo < c) & (c < fhi)
            np.minimum(F, Ac, out=F, where=inside)
            if fmax is not None:
                np.maximum(fmax, Ac, out=fmax, where=inside)
        if fmax is not None:
            np.copyto(F, fmax, where=uL > uR)
        if stage.corner is None:
            return F
        # corner dissipation: F - 0.5 * s * du, s = max(0, max a') * |du|
        du = np.subtract(uR, uL, out=work[3, :m])
        absdu = du if ordered else np.abs(du)
        kind, data = stage.corner
        if kind == "constant":
            s = absdu * data
        else:
            if kind == "polynomial":
                D = _horner(e, self.da, work[0, :m + 1])
                slope = np.maximum(D[:-1], D[1:])
                for c, v in data:
                    np.maximum(slope, v, out=slope, where=(c < fhi) & (flo < c))
                np.maximum(slope, 0.0, out=slope)
            else:
                slope = np.zeros(m)
                for l, r, v in data:
                    np.maximum(slope, v, out=slope, where=(l < fhi) & (flo < r))
            s = np.multiply(slope, absdu, out=slope)
        term = np.multiply(s, 0.5)
        term *= du
        F -= term
        return F


@functools.lru_cache(maxsize=None)
def flux_plan(model: FluxModel) -> FluxPlan:
    """The model's compiled plan, built once per model."""
    return FluxPlan(model)
