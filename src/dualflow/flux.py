"""Interaction-velocity models: a(u), its antiderivative A(u), and the Godunov flux.

A model is the pair (a, A) with the normalization A(0) = 0.  Built-in kinds:

    quadratic-attractive   a(u) = -u,  A(u) = -u^2/2
    quadratic-repulsive    a(u) =  u,  A(u) =  u^2/2
    polynomial             a(u) = sum_k c_k u^k
    piecewise-linear-a     a interpolated between (u_k, a_k) nodes,
                           constant extension outside the node range
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

CFL = 0.45   # the Courant number of a run, and of a scenario, that sets none (FluxPlan.dt)
KINDS = (
    "quadratic-attractive",
    "quadratic-repulsive",
    "polynomial",
    "piecewise-linear-a",
)


class FluxError(ValueError):
    """Bad flux model definition or non-finite evaluation input."""


class FluxModel:
    """Velocity a and antiderivative A, both evaluable in closed form.

    ``a_coeffs`` holds polynomial coefficients c_0..c_n (a(u) = sum c_k u^k)
    for polynomial-type kinds; ``nodes`` holds ((u_0, a_0), ...) for the
    piecewise-linear kind.  A(0) = 0 always.  Models are equal, and hash
    alike, when (kind, a_coeffs, nodes) are.
    """

    __slots__ = ("kind", "a_coeffs", "nodes", "_tables")

    def __init__(self, kind: str, a_coeffs: tuple[float, ...] = (),
                 nodes: tuple[tuple[float, float], ...] = ()):
        if kind not in KINDS:
            raise FluxError(f"unknown flux kind {kind!r}")
        if kind == "piecewise-linear-a":
            if len(nodes) < 2:
                raise FluxError("piecewise-linear-a needs at least 2 nodes")
            us = [u for u, _ in nodes]
            if any(u2 <= u1 for u1, u2 in zip(us, us[1:])):
                raise FluxError("piecewise-linear-a nodes must have increasing u")
            slopes = [(a2 - a1) / (u2 - u1) for (u1, a1), (u2, a2) in zip(nodes, nodes[1:])]
            if not all(map(math.isfinite, [*us, *slopes])):
                raise FluxError("piecewise-linear-a nodes must be finite, with a "
                                "finite slope of a between them")
        elif kind == "polynomial":
            if not a_coeffs:
                raise FluxError("polynomial model needs coefficients")
            if not all(map(math.isfinite, a_coeffs)):
                raise FluxError("polynomial coefficients must be finite")
        self.kind, self.a_coeffs, self.nodes = kind, a_coeffs, nodes
        # the extremum tables of A, a and a', per instance: equal models can differ in a zero's sign
        try:   # a far root may overflow; the table then holds eval's +-inf there
            with np.errstate(over="ignore", divide="ignore"):
                self._tables = _new_tables(self)
        except np.linalg.LinAlgError as exc:
            raise FluxError(f"polynomial coefficients {list(a_coeffs)} out of "
                            f"range: their roots cannot be computed ({exc})") from exc

    def _key(self):
        return self.kind, self.a_coeffs, self.nodes

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "FluxModel(kind=%r, a_coeffs=%r, nodes=%r)" % self._key()


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


def _finite(u):
    """u as a float array; FluxError unless every entry is finite."""
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise FluxError("non-finite argument to flux evaluation")
    return u


def _value(at, u):
    """An extremum table's evaluator ``at`` on the float array u; a float for 0-d u."""
    return _scalar(at(u, np.empty(u.shape)))


def eval_a(model: FluxModel, u):
    """Evaluate the velocity a(u).  Accepts scalars or arrays."""
    return _value(model._tables[1].at, _finite(u))


def eval_A(model: FluxModel, u):
    """Evaluate the antiderivative A(u) with A(0) = 0."""
    return _value(model._tables[0].at, _finite(u))


class _PwlA:
    """A(u) for the piecewise-linear kind, a = avs at the N nodes us: one row
    per stretch of the a' table, of values ``slopes``.  Rows 1..N-1 are the
    segments between nodes, rows 0 and N the constant extensions of a."""

    def __init__(self, us, avs, slopes):
        raw = np.concatenate(([0.0], np.cumsum(0.5 * (avs[1:] + avs[:-1]) * np.diff(us))))
        # the row of u; the last node stays on the last segment
        self.breaks = np.append(us[:-1], np.nextafter(us[-1], np.inf))
        # per row one column, gathered in one call: u, a, A_raw where it starts, half
        # the slope of a (-0.0 on the extensions, where the quadratic term changes no bit)
        half_slope = 0.5 * slopes
        half_slope[[0, -1]] = -0.0
        self.table = np.vstack([np.r_[v[0], v] for v in (us, avs, raw)] + [half_slope])
        # then A_raw(0), from a first call; None for +0.0: x - (+0.0) is x, even for -0.0
        self.shift = None
        shift = float(self(np.asarray(0.0)))
        if shift or math.copysign(1.0, shift) < 0:
            self.shift = np.array(shift)   # 0-d, as in _horner_coeffs

    def __call__(self, u, out=None):
        """A(u) = A_raw(u) - A_raw(0), A_raw the integral of a from the first node."""
        u0, val, raw0, quad = self.table.take(self.breaks.searchsorted(u, side="right"), 1)
        du = np.subtract(u, u0, out=u0 if u0.ndim else None)   # a 0-d u gathers scalars
        val *= du
        val += raw0               # raw + a0*du
        quad *= du
        quad *= du                # 0.5*slope*du*du
        out = np.add(val, quad, out)
        if self.shift is not None:
            out -= self.shift
        return out


def _horner_coeffs(coeffs) -> _Horner:
    """``coeffs`` for _horner: 0-d arrays (a ufunc takes them faster than
    floats), and None for each add that changes no bit.  For finite y, adding
    a zero c[k] can change only the sign of a zero y, and the last add, of
    c[0], makes that sign the same unless c[0] is -0.0."""
    c0 = coeffs[0]
    keep = c0 == 0.0 and math.copysign(1.0, c0) < 0
    return _Horner(np.array(c) if c or keep or k in (0, len(coeffs) - 1) else None
                   for k, c in enumerate(coeffs))


class _Horner(tuple):
    """What _horner_coeffs returns; called as (x, out), it is _horner."""

    def __call__(self, x, out):
        return _horner(x, self, out)


def _horner(x, coeffs, out):
    """numpy's polyval(x, c) into ``out``, bit for bit for finite x, where
    ``coeffs`` = _horner_coeffs(c).  numpy starts from c[-1] + x*0, which is
    c[-1] itself when it is not 0, then takes y*x + c[k], k = len-2 .. 0."""
    if coeffs[-1] and len(coeffs) > 1:
        np.multiply(x, coeffs[-1], out)
    else:   # +-0.0 decides the sign of a zero; for a lone c[0] this is the value
        np.multiply(x, 0.0, out)
        np.add(out, coeffs[-1], out)
        if len(coeffs) == 1:
            return out
        np.multiply(out, x, out)
    for c in coeffs[-2:0:-1]:
        if c is not None:
            np.add(out, c, out)
        np.multiply(out, x, out)
    np.add(out, coeffs[0], out)
    return out


def _real_poly_roots(coeffs):
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if len(c) <= 1:
        return np.empty(0)
    r = np.roots(c[::-1])
    r = r[np.abs(r.imag) < 1e-9].real
    return np.sort(r)


class _Extrema(NamedTuple):
    """Where one derivative of A can reach an extremum inside an interval:
    on each stretch [left[k], right[k]] (a point when left = right) it
    takes the value vals[k].  ``at(x, out)`` evaluates that derivative on a
    float array x, into ``out`` (an array of x's shape) where it can; it is
    None for a' of the piecewise-linear kind, which has no value at a node."""

    left: np.ndarray
    right: np.ndarray
    vals: np.ndarray
    at: Callable | None


def _new_tables(model: FluxModel) -> tuple[_Extrema, _Extrema, _Extrema]:
    """The extremum tables of A, a and a', each with the one evaluator of
    its derivative that every caller uses.

    Polynomial kinds: the real roots of the next derivative, and _horner
    over the derivative's coefficients.  The piecewise-linear kind: the
    zeros of a with _PwlA, the nodes with np.interp on them, and for a' the
    segments between nodes plus the two constant extensions.
    """
    if model.kind == "piecewise-linear-a":
        us, avs = map(np.array, zip(*model.nodes))
        slopes = np.r_[0.0, np.diff(avs) / np.diff(us), 0.0]
        k = np.nonzero(avs[:-1] * avs[1:] < 0)[0]   # segments on which a changes sign
        zeros = np.sort(np.r_[us[avs == 0.0],
                              us[k] - avs[k] * (us[k + 1] - us[k]) / (avs[k + 1] - avs[k])])
        return (_table(zeros, _PwlA(us, avs, slopes)),
                _table(us, lambda u, out: np.interp(u, us, avs)),
                _Extrema(np.r_[-np.inf, us], np.r_[us, np.inf], slopes, None))
    c = np.asarray(model.a_coeffs)
    derivs = [np.concatenate(([0.0], c / np.arange(1, len(c) + 1))), c]   # A, a, a', a''
    for _ in range(2):
        d = derivs[-1]
        derivs.append(d[1:] * np.arange(1, len(d)) if len(d) > 1 else np.zeros(1))
    return tuple(_table(_real_poly_roots(derivs[k + 1]), _horner_coeffs(derivs[k].tolist()))
                 for k in range(3))


def _table(pts, at) -> _Extrema:
    """The table of the derivative evaluated by ``at``, extremal at the points pts."""
    return _Extrema(pts, pts, _value(at, pts), at)


def _meeting(lo, hi, table: _Extrema):
    """(inside, vals), arrays [k, ...]: whether stretch k meets the open
    interval (lo, hi), and the value there."""
    shape = table.vals.shape + (1,) * np.ndim(lo)
    return ((table.left.reshape(shape) < hi) & (lo < table.right.reshape(shape)),
            table.vals.reshape(shape))


def _span(table: _Extrema, lo, hi, ends):
    """(min, max) over each [lo, hi] of the derivative with extremum table
    ``table`` and values ``ends`` = (at lo, at hi).  The candidates are
    reduced in FluxPlan.fluxes' order, the ends first; a stretch outside
    (lo, hi) enters as +inf (min) or -inf (max), which changes no bit, not
    even the sign of a zero."""
    inside, vals = _meeting(lo, hi, table)
    lows = np.concatenate((ends, np.where(inside, vals, np.inf)))
    highs = np.concatenate((ends, np.where(inside, vals, -np.inf)))
    return _scalar(lows.min(axis=0)), _scalar(highs.max(axis=0))


def _scalar(x):
    return x if np.ndim(x) else float(x)


def a_range(model: FluxModel, lo, hi):
    """(min, max) of a over each [lo, hi]; the bounds may come in either order."""
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    return _span(model._tables[1], lo, hi, eval_a(model, np.array((lo, hi))))


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
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    table = model._tables[2]
    # a' with no evaluator gives no end values: its stretches alone, which cover
    # the line and leave -inf only at a lone node
    ends = np.empty((0, *lo.shape)) if table.at is None else _value(table.at, np.array((lo, hi)))
    top = _span(table, lo, hi, ends)[1]
    return _scalar(np.where(top == -np.inf, 0.0, top))


def max_slope_of_a(model: FluxModel, lo: float, hi: float) -> float:
    """Largest slope of a on [lo, hi]; used to test the attractive hypothesis."""
    return float(max_slope_on_intervals(model, min(lo, hi), max(lo, hi)))


ATTRACTIVE_TOL = 1e-12   # the largest slope of a that is_attractive calls non-increasing


def is_attractive(model: FluxModel, m_total: float) -> bool:
    """True when a is non-increasing on [0, m_total] (concave A)."""
    return max_slope_of_a(model, 0.0, m_total) <= ATTRACTIVE_TOL


def is_identity_a(model: FluxModel) -> bool:
    """True when a(u) = u, whatever kind spells it: coefficients (0, 1), then zeros."""
    return model.a_coeffs[:2] == (0.0, 1.0) and not any(model.a_coeffs[2:])


def godunov_flux(model: FluxModel, u_left, u_right):
    """Exact Godunov interface flux for u_t + A(u)_x = 0.

    min of A over [u_left, u_right] for u_left <= u_right, max over
    [u_right, u_left] otherwise.  Vectorized over both arguments.
    """
    ul, ur = _finite(u_left), _finite(u_right)
    lo, hi = np.minimum(ul, ur), np.maximum(ul, ur)
    fmin, fmax = _span(model._tables[0], lo, hi, eval_A(model, np.array((lo, hi))))
    return _scalar(np.where(ul <= ur, fmin, fmax))


# ---------------------------------------------------------------------------
# compiled plan for the solver's time loop


class FluxPlan:
    """A FluxModel compiled for the PDE time loop on nondecreasing faces
    within [lo, hi], with the range's wave bound ``speed`` = max |a| and
    ``slope`` = max(0, max a') for its CFL step ``dt``.

    Holds from the extremum tables the evaluators of A and a', the
    stationary points of A with their values and the stretches where a' > 0
    can be reached, the last two kept only where they meet (lo, hi).
    ``fluxes`` reproduces ``numerical_flux`` on consecutive face values bit
    for bit, and uses their order: a stationary point lies strictly inside
    one face interval at most, found with one searchsorted.  Faces out of
    order go to the reference itself.
    """

    def __init__(self, model: FluxModel, lo: float, hi: float):
        A, _, da = model._tables
        with np.errstate(over="ignore"):   # a bound that overflows is inf: no step is stable
            self.speed = max_wave_speed(model, lo, hi)
            self.slope = max(0.0, max_slope_of_a(model, lo, hi))
        # A point or stretch not meeting (lo, hi) is strictly inside no face
        # interval, so dropping it changes no flux.
        inside = _meeting(lo, hi, A)[0]
        self.stationary = tuple(zip(A.left[inside].tolist(), A.vals[inside].tolist()))
        # None: a' <= 0 on [lo, hi], so the corner-dissipation term is exactly zero
        inside = _meeting(lo, hi, da)[0] & (da.vals > 0.0)
        self.corner = None if self.slope <= 0.0 else tuple(
            zip(da.left[inside].tolist(), da.right[inside].tolist(), da.vals[inside].tolist()))
        self.A, self.da = A.at, da.at
        # a' a constant: its value (1.0 skips the pass du * 1.0), else None
        self.da_const = float(da.at[0]) if da.at is not None and len(da.at) == 1 else None

    def dt(self, cfl: float, dx: float, jump: float) -> float:
        """The CFL step of faces in [lo, hi] whose largest jump is ``jump``; inf
        when no wave moves.  Corner dissipation adds at most slope * jump."""
        speed = self.speed + self.slope * jump if self.slope > 0.0 else self.speed
        return cfl * dx / speed if speed > 0.0 else math.inf

    def fluxes(self, e, du, out, work):
        """numerical_flux(model, e[:-1], e[1:]) into ``out``, bit for bit, for
        nondecreasing ``e`` within the plan's [lo, hi] whose jumps
        e[1:] - e[:-1] are ``du``.

        ``work`` holds two scratch rows of length >= e.size.
        """
        m = e.size - 1
        A = self.A(e, work[0][:m + 1])
        # Godunov on uL <= uR: the min of A over [uL, uR]
        F = np.minimum(A[:-1], A[1:], out=out)
        # sorted faces: a stationary point c can be inside (uL, uR) of the face
        # k alone, where e[k] < c <= e[k + 1]
        for c, Ac in self.stationary:
            k = e.searchsorted(c) - 1
            if 0 <= k < m and c < e[k + 1]:
                F[k] = np.minimum(F[k], Ac)
        if self.corner is None:
            return F
        uL, uR = e[:-1], e[1:]
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
        term = np.multiply(s, 0.5, work[1][:m])
        term *= du
        F -= term
        return F
