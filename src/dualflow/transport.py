"""Readouts of measures that few commands run: the atoms of a grid field, the
W1 distance and quantiles.

``measure`` keeps each of these names as a function that loads this module
on its first call, so a command compiles it only when it runs one of them:
``run`` with field CSVs (``extract_atoms``), the W1 checks and ``convergence``
(``wasserstein1``) and the flow reconstruction (``quantile``).
"""

from __future__ import annotations

from . import NumpyOnFirstUse
from .measure import (ATOM_MASS_SHARE, ATOM_WIDTH_CELLS, AtomicMeasure, GridField, MeasureError,
                      _cdf)

np = NumpyOnFirstUse(globals())


def extract_atoms(field: GridField) -> AtomicMeasure:
    """Locate Dirac-like mass clusters in a grid field.

    A cell belongs to a cluster when some window of ATOM_WIDTH_CELLS
    consecutive cells containing it carries at least ATOM_MASS_SHARE of the
    total mass; clusters are maximal runs of such cells, padded with
    adjacent tail cells above a relative floor.  Atom position is the
    mass-weighted centroid.
    """
    total = field.total_mass
    masses = field.cell_masses
    n = masses.size
    w = min(ATOM_WIDTH_CELLS, n)
    window = np.convolve(masses, np.ones(w), mode="valid")  # sums of w cells
    # cell i is marked when one of the windows j = i-w+1 .. i is heavy
    marked = np.convolve(window >= ATOM_MASS_SHARE * total, np.ones(w, dtype=int)) > 0
    starts, stops = np.flatnonzero(np.diff(marked, prepend=False, append=False)).reshape(-1, 2).T
    # the marked runs [starts, stops) grow tails over the cells above a floor: on the
    # left up to a light cell (at or below the floor) or the previous cluster, on the
    # right up to a light cell or the next run; -1 and n stand for the grid's ends
    light = np.concatenate(([-1], np.flatnonzero(masses <= 1e-9 * total), [n]))
    right = np.minimum(light[light.searchsorted(stops)], np.append(starts[1:], n))
    left = np.maximum(light[light.searchsorted(starts) - 1] + 1, np.append(0, right[:-1]))
    centers = field.centers
    xs, ms = [], []
    for j, k in zip(left.tolist(), right.tolist()):
        m = float(np.sum(masses[j:k]))
        xs.append(float(np.sum(masses[j:k] * centers[j:k]) / m))
        ms.append(m)
    # disjoint runs in grid order: the centroids increase strictly
    return AtomicMeasure(xs, ms)


def _cdf_breaks(obj) -> np.ndarray:
    if isinstance(obj, AtomicMeasure):
        return obj.positions
    return obj.faces


def _union(x, y) -> np.ndarray:
    """np.union1d(x, y) bit for bit, without the numpy.ma import of its np.unique."""
    u = np.concatenate((x, y))
    u.sort()
    keep = np.ones(u.shape, dtype=bool)
    np.not_equal(u[1:], u[:-1], out=keep[1:])
    return u[keep]


def wasserstein1(mu, nu) -> float:
    """W1 distance = integral of |U_mu - U_nu| over the line.

    Both primitives are piecewise linear (or constant) between the merged
    breakpoints, so the integral is computed exactly interval by interval.
    """
    if abs(mu.total_mass - nu.total_mass) > 1e-10 * max(mu.total_mass, nu.total_mass):
        raise MeasureError("wasserstein1 requires equal total masses")
    breaks = _union(_cdf_breaks(mu), _cdf_breaks(nu))
    if breaks.size < 2:
        return 0.0
    a, b = breaks[:-1], breaks[1:]
    d0 = _cdf(mu, a, "right") - _cdf(nu, a, "right")
    d1 = _cdf(mu, b, "left") - _cdf(nu, b, "left")
    h = b - a
    same = d0 * d1 >= 0
    trap = 0.5 * (np.abs(d0) + np.abs(d1)) * h
    denom = np.where(same, 1.0, np.abs(d1 - d0))
    cross = 0.5 * (d0 * d0 + d1 * d1) / denom * h
    return float(np.sum(np.where(same, trap, cross)))


def quantile(obj, q):
    """Generalized inverse of the primitive: inf{x : U(x) >= q}, 0 < q < mass,
    for one level q (a float) or for each level of an array q (an array)."""
    q = np.asarray(q, dtype=float)
    total = obj.total_mass
    outside = ~((0.0 < q) & (q < total))
    if outside.any():
        raise MeasureError(f"quantile level {q[outside][0]} outside (0, {total})")
    if isinstance(obj, AtomicMeasure):
        x = obj.positions[np.searchsorted(obj.levels[1:], q, side="left")]
    else:
        u, faces = obj.u_faces, obj.faces
        i = np.searchsorted(u, q, side="left")
        lo, hi = u[i - 1], u[i]
        flat = (hi == q) | (hi == lo) | (i == 0)   # on a face, flat or below u[0]: that face
        x = np.where(flat, faces[i],
                     faces[i - 1] + obj.dx * (q - lo) / np.where(flat, 1.0, hi - lo))
    return x if q.ndim else float(x)
