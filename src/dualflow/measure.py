"""Representations of the density rho and its primitive u.

Two concrete forms are used throughout: an ordered list of point masses
(AtomicMeasure) and a uniform grid carrying u at cell interfaces
(GridField).  The primitive is the right-continuous CDF,
u(x) = rho((-inf, x]); an atom sitting exactly on a grid face is assigned
to that face.
"""

from __future__ import annotations

import numpy as np


# Roundoff tolerances on u, per unit of the total mass M = |u[-1]| (none when M = 0):
MONOTONE_TOL = 1e-14   # the largest face-to-face decrease of u still taken as nondecreasing
BOUNDARY_TOL = 1e-12   # the largest |u| at the left face still taken as pinned to 0
ATOM_WIDTH_CELLS = 5   # extract_atoms: cells in the window whose mass marks a cluster
ATOM_MASS_SHARE = 0.05  # extract_atoms: share of the total mass such a window must carry


class MeasureError(ValueError):
    """Invalid measure data or incompatible operands."""


class AtomicMeasure:
    """Finite sum of point masses m_i * delta_{x_i}, positions strictly increasing;
    ``levels``, the primitive at and between the atoms (0, m_1, m_1 + m_2, ..., summed
    once, left to right), ends at the total mass, inf past the float range."""

    __slots__ = ("positions", "masses", "levels")

    def __init__(self, positions, masses):
        x = np.atleast_1d(np.array(positions, dtype=float))   # copies: the caller's arrays
        m = np.atleast_1d(np.array(masses, dtype=float))      # stay writable
        if x.shape != m.shape:
            raise MeasureError("positions and masses must have equal length")
        if x.size and (not np.all(np.isfinite(x)) or not np.all(np.isfinite(m))):
            raise MeasureError("non-finite atom data")
        if np.any(m <= 0):
            raise MeasureError("atom masses must be strictly positive")
        if x.size > 1 and np.any(np.diff(x) <= 0):
            raise MeasureError("atom positions must be strictly increasing")
        with np.errstate(over="ignore"):
            levels = np.concatenate(([0.0], np.cumsum(m)))
        for a in (x, m, levels):
            a.setflags(write=False)
        self.positions, self.masses, self.levels = x, m, levels

    @classmethod
    def from_pairs(cls, pairs) -> "AtomicMeasure":
        """Build from (x, m) pairs of numbers; atoms at identical positions are coalesced."""
        xs, ms = [], []
        for x, m in sorted(pairs):
            if xs and x == xs[-1]:
                ms[-1] += m
            else:
                xs.append(x)
                ms.append(m)
        return cls(xs, ms)

    @property
    def n_atoms(self) -> int:
        return self.positions.size

    @property
    def total_mass(self) -> float:
        return float(self.levels[-1])


def face_at(x_min: float, x_max: float, n_cells: int, k):
    """Face k (a number or an array) of n_cells cells on [x_min, x_max], the one face
    formula: x_min + dx * k, which at k = n_cells can round below x_max."""
    return x_min + (x_max - x_min) / n_cells * k


class GridField:
    """Uniform grid holding u at the n_cells+1 cell interfaces.

    u is nondecreasing with u[0] = 0 and u[-1] = total mass; cell masses are
    the face differences.
    """

    __slots__ = ("x_min", "x_max", "n_cells", "u_faces")

    def __init__(self, x_min: float, x_max: float, n_cells: int, u_faces):
        if n_cells < 1 or x_max <= x_min:
            raise MeasureError("invalid grid extent")
        u = np.array(u_faces, dtype=float)   # a copy: the caller's array stays writable
        if u.shape != (n_cells + 1,):
            raise MeasureError("u_faces must have n_cells + 1 entries")
        u.setflags(write=False)
        self.x_min, self.x_max, self.n_cells, self.u_faces = x_min, x_max, n_cells, u

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def faces(self) -> np.ndarray:
        return face_at(self.x_min, self.x_max, self.n_cells, np.arange(self.n_cells + 1))

    @property
    def centers(self) -> np.ndarray:
        return face_at(self.x_min, self.x_max, self.n_cells, np.arange(self.n_cells) + 0.5)

    @property
    def cell_masses(self) -> np.ndarray:
        return np.diff(self.u_faces)

    @property
    def total_mass(self) -> float:
        return float(self.u_faces[-1])

    def validate(self):
        u = self.u_faces
        if not np.all(np.isfinite(u)):
            raise MeasureError("non-finite grid field")
        mass = abs(float(u[-1]))
        if np.any(np.diff(u) < -MONOTONE_TOL * mass):
            raise MeasureError("u_faces not nondecreasing")
        if abs(u[0]) > BOUNDARY_TOL * mass:
            raise MeasureError("left boundary value not pinned to 0")
        return self


class UniformDensity:
    """Constant density carrying ``mass`` on [x_left, x_right]."""

    def __init__(self, x_left: float, x_right: float, mass: float):
        if x_right <= x_left or mass <= 0:
            raise MeasureError("invalid uniform density block")
        self.x_left, self.x_right, self.total_mass = x_left, x_right, mass
        self.support = x_left, x_right

    def cdf(self, x):
        t = np.clip((np.asarray(x, dtype=float) - self.x_left)
                    / (self.x_right - self.x_left), 0.0, 1.0)
        return self.total_mass * t


class TriangularDensity:
    """Triangular density with peak at ``x_peak``, support [x_left, x_right]."""

    def __init__(self, x_left: float, x_peak: float, x_right: float, mass: float):
        if not (x_left < x_peak < x_right) or mass <= 0:
            raise MeasureError("invalid triangular density block")
        self.x_left, self.x_peak, self.x_right = x_left, x_peak, x_right
        self.total_mass, self.support = mass, (x_left, x_right)

    def cdf(self, x):
        a, c, b, m = self.x_left, self.x_peak, self.x_right, self.total_mass
        x = np.clip(np.asarray(x, dtype=float), a, b)
        left = (x - a) ** 2 / ((b - a) * (c - a))
        right = 1.0 - (b - x) ** 2 / ((b - a) * (b - c))
        out = np.where(x < c, left, right)
        return m * np.clip(out, 0.0, 1.0)


def check_inside(source, x_min: float, x_max: float, n_cells: int):
    """Refuse a measure whose support does not lie strictly inside (x_min, x_max),
    where the Dirichlet ghost values of a grid on [x_min, x_max] would not hold,
    or reaches the last face of its n_cells cells, which can round below x_max:
    the grid's u would lose the mass beyond it."""
    if isinstance(source, AtomicMeasure):
        if source.n_atoms == 0:
            raise MeasureError("cannot grid an empty measure")
        (lo, hi), what = source.positions[[0, -1]], "atom on or outside"
    else:
        (lo, hi), what = source.support, "density support touches"
    if lo <= x_min or hi >= x_max:
        raise MeasureError(f"{what} the grid boundary")
    if hi >= (last := face_at(x_min, x_max, n_cells, n_cells)):
        raise MeasureError(f"{what} the grid's last face {last!r}, which rounds below x_max")


def sample_to_grid(source, x_min: float, x_max: float, n_cells: int) -> GridField:
    """Project a measure onto a grid: u at each face = mass on (-inf, face].

    Atomic input is reproduced exactly cell by cell.  The source must pass
    check_inside.
    """
    check_inside(source, x_min, x_max, n_cells)
    faces = face_at(x_min, x_max, n_cells, np.arange(n_cells + 1))
    u = (_cdf(source, faces, "right") if isinstance(source, AtomicMeasure)
         else source.cdf(faces))
    return GridField(x_min, x_max, n_cells, u).validate()


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


def _cdf(obj, x: np.ndarray, side: str) -> np.ndarray:
    """CDF at x: its right limit for side="right", its left limit for side="left"."""
    if isinstance(obj, AtomicMeasure):
        return obj.levels[np.searchsorted(obj.positions, x, side=side)]
    return np.interp(x, obj.faces, obj.u_faces, left=0.0, right=obj.total_mass)


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
