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

from . import NumpyOnFirstUse

np = NumpyOnFirstUse(globals())

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
    alike, when (kind, a_coeffs, nodes) are.  The extremum tables (``_tables``)
    are built on first use, except for the polynomial kind, whose roots are
    taken at construction so that coefficients they fail on are refused there.
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
        if kind == "polynomial":   # np.roots now: coefficients it fails on are refused here
            self.__getattr__("_tables")

    def __getattr__(self, name: str):
        """``_tables``, built on its first read: the extremum tables of A, a and a',
        per instance, since equal models can differ in a zero's sign."""
        if name != "_tables":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        try:   # a far root may overflow; the table then holds eval's +-inf there
            with np.errstate(over="ignore", divide="ignore"):
                self._tables = tables = _new_tables(self)
        except np.linalg.LinAlgError as exc:
            raise FluxError(f"polynomial coefficients {list(self.a_coeffs)} out of "
                            f"range: their roots cannot be computed ({exc})") from exc
        return tables

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


def eval_A_list(model: FluxModel, us: list) -> list:
    """eval_A at each float of the list ``us``, bit for bit, as a list of
    floats (the oracle's A at its atom levels).  The polynomial-type kinds
    run _horner's operations in its order on Python floats and build no
    array, so beyond the polynomial kind's tables, which its construction
    builds, they need no numpy; the piecewise-linear kind calls eval_A."""
    if not all(map(math.isfinite, us)):
        raise FluxError("non-finite argument to flux evaluation")
    if model.nodes:
        return eval_A(model, np.array(us)).tolist()
    return _horner_list(us, _horner_plan(_integral(model.a_coeffs)))


def _integral(a_coeffs) -> list:
    """The coefficients of A, the integral of a(u) = sum c_k u^k from 0."""
    return [0.0, *(c / k for k, c in enumerate(a_coeffs, 1))]


def _horner_plan(coeffs) -> list:
    """``coeffs``, floats, with None for each add that changes no bit.  For
    finite y, adding a zero c[k] can change only the sign of a zero y, and
    the last add, of c[0], makes that sign the same unless c[0] is -0.0."""
    c0 = coeffs[0]
    keep = c0 == 0.0 and math.copysign(1.0, c0) < 0
    return [c if c or keep or k in (0, len(coeffs) - 1) else None for k, c in enumerate(coeffs)]


def _horner_coeffs(coeffs) -> _Horner:
    """``coeffs`` for _horner: _horner_plan's, as 0-d arrays (a ufunc takes
    them faster than floats)."""
    return _Horner(None if c is None else np.array(c) for c in _horner_plan(coeffs))


def _horner_list(xs, coeffs) -> list:
    """_horner at each float of ``xs``, its operations in its order, where
    ``coeffs`` = _horner_plan(c): a list of floats."""
    if coeffs[-1] and len(coeffs) > 1:
        ys = [x * coeffs[-1] for x in xs]
    else:
        ys = [x * 0.0 + coeffs[-1] for x in xs]
        if len(coeffs) == 1:
            return ys
        ys = [y * x for y, x in zip(ys, xs)]
    for c in coeffs[-2:0:-1]:
        if c is not None:
            ys = [y + c for y in ys]
        ys = [y * x for y, x in zip(ys, xs)]
    return [y + coeffs[0] for y in ys]


class _Horner(tuple):
    """What _horner_coeffs returns; called as (x, out), it is _horner."""

    def __call__(self, x, out):
        return _horner(x, self, out)

    sorted = __call__   # on sorted faces too: the order saves Horner nothing (pwl.PwlA.sorted)


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
    zeros of a with pwl.PwlA, the nodes with np.interp on them, and for a' the
    segments between nodes plus the two constant extensions.
    """
    if model.kind == "piecewise-linear-a":
        from .pwl import PwlA   # loaded by this kind only
        us, avs = map(np.array, zip(*model.nodes))
        slopes = np.r_[0.0, np.diff(avs) / np.diff(us), 0.0]
        k = np.nonzero(avs[:-1] * avs[1:] < 0)[0]   # segments on which a changes sign
        zeros = np.sort(np.r_[us[avs == 0.0],
                              us[k] - avs[k] * (us[k + 1] - us[k]) / (avs[k + 1] - avs[k])])
        return (_table(zeros, PwlA(us, avs, slopes)),
                _table(us, lambda u, out: np.interp(u, us, avs)),
                _Extrema(np.r_[-np.inf, us], np.r_[us, np.inf], slopes, None))
    c = np.asarray(model.a_coeffs)
    derivs = [np.array(_integral(model.a_coeffs)), c]   # A, a, a', a''
    for _ in range(2):
        d = derivs[-1]
        derivs.append(d[1:] * np.arange(1, len(d)) if len(d) > 1 else np.zeros(1))
    if not np.isfinite(derivs[3]).all():   # a' or a'' overflows: 1 + inf·u is NaN at 0
        raise FluxError(f"polynomial coefficients {list(model.a_coeffs)} out of range: "
                        "the derivatives of a overflow")
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
    top = slope_range_of_a(model, lo, hi)[1]
    return _scalar(np.where(top == -np.inf, 0.0, top))


def max_slope_of_a(model: FluxModel, lo: float, hi: float) -> float:
    """Largest slope of a on [lo, hi]; used to test the attractive hypothesis."""
    return float(max_slope_on_intervals(model, min(lo, hi), max(lo, hi)))


def slope_range_of_a(model: FluxModel, lo, hi):
    """(min, max) of a' over each [lo, hi], lo <= hi, from its extremum table.
    a' with no evaluator gives no end values: its stretches alone, which cover
    the line and leave (inf, -inf) only at a lone node."""
    table = model._tables[2]
    ends = (np.empty((0, *np.shape(lo))) if table.at is None
            else _value(table.at, np.array((lo, hi))))
    return _span(table, lo, hi, ends)


ATTRACTIVE_TOL = 1e-12   # the largest slope of a that is_attractive calls non-increasing


def is_attractive(model: FluxModel, m_total: float) -> bool:
    """True when a is non-increasing on [0, m_total] (concave A): when
    max_slope_of_a(model, 0, m_total) <= ATTRACTIVE_TOL.  For an a of degree
    1 or less that is decided in floats, without the tables: a' is c_1, or 0."""
    if not model.nodes and len(model.a_coeffs) <= 2:   # a = c_0 + c_1 u
        return (model.a_coeffs[1] if len(model.a_coeffs) == 2 else 0.0) <= ATTRACTIVE_TOL
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
