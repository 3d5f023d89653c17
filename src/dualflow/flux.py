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
from dataclasses import dataclass

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
        elif self.kind == "polynomial":
            if not self.a_coeffs:
                raise FluxError("polynomial model needs coefficients")


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


def from_dict(block: dict) -> FluxModel:
    """Build a model from a scenario flux block (fail-closed on unknown keys)."""
    allowed = {"kind", "coeffs", "nodes"}
    unknown = set(block) - allowed
    if unknown:
        raise FluxError(f"unknown flux field(s): {sorted(unknown)}")
    kind = block.get("kind")
    if kind == "quadratic-attractive":
        return quadratic_attractive()
    if kind == "quadratic-repulsive":
        return quadratic_repulsive()
    if kind == "polynomial":
        if "coeffs" not in block:
            raise FluxError("polynomial flux requires 'coeffs'")
        return polynomial(block["coeffs"])
    if kind == "piecewise-linear-a":
        if "nodes" not in block:
            raise FluxError("piecewise-linear-a flux requires 'nodes'")
        return piecewise_linear(block["nodes"])
    raise FluxError(f"unknown flux kind {kind!r}")


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
def _pwl_antiderivative_nodes(model: FluxModel):
    # Cumulative trapezoid integrals of a at the nodes, shifted so A(0) = 0.
    us, avs = _pwl_arrays(model)
    seg = 0.5 * (avs[1:] + avs[:-1]) * np.diff(us)
    raw = np.concatenate(([0.0], np.cumsum(seg)))
    return us, avs, raw


def _pwl_A_raw(model, u):
    us, avs, raw = _pwl_antiderivative_nodes(model)
    u = np.asarray(u, dtype=float)
    idx = np.clip(np.searchsorted(us, u, side="right") - 1, 0, len(us) - 2)
    u0, u1 = us[idx], us[idx + 1]
    a0, a1 = avs[idx], avs[idx + 1]
    du = u - u0
    slope = (a1 - a0) / (u1 - u0)
    inside = raw[idx] + a0 * du + 0.5 * slope * du * du
    # constant extension of a outside the node range
    below = raw[0] + avs[0] * (u - us[0])
    above = raw[-1] + avs[-1] * (u - us[-1])
    return np.where(u < us[0], below, np.where(u > us[-1], above, inside))


def eval_A(model: FluxModel, u):
    """Evaluate the antiderivative A(u) with A(0) = 0."""
    u = np.asarray(u, dtype=float)
    _check_finite(u)
    if model.kind == "piecewise-linear-a":
        out = _pwl_A_raw(model, u) - _pwl_A_raw(model, 0.0)
    else:
        c = np.asarray(model.a_coeffs)
        ac = np.concatenate(([0.0], c / np.arange(1, len(c) + 1)))
        out = P.polyval(u, ac)
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


def is_attractive(model: FluxModel, m_total: float, tol: float = 1e-12) -> bool:
    """True when a is non-increasing on [0, m_total] (concave A)."""
    return max_slope_of_a(model, 0.0, m_total) <= tol


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
