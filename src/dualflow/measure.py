"""Representations of the density rho and its primitive u.

Two concrete forms are used throughout: an ordered list of point masses
(AtomicMeasure) and a uniform grid carrying u at cell interfaces
(GridField).  The primitive is the right-continuous CDF,
u(x) = rho((-inf, x]); an atom sitting exactly on a grid face is assigned
to that face.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


MONOTONE_TOL = 1e-14   # the largest face-to-face decrease of u still taken as nondecreasing
BOUNDARY_TOL = 1e-12   # the largest |u| at the left face still taken as pinned to 0
ATOM_WIDTH_CELLS = 5   # extract_atoms: cells in the window whose mass marks a cluster
ATOM_MASS_SHARE = 0.05  # extract_atoms: share of the total mass such a window must carry


class MeasureError(ValueError):
    """Invalid measure data or incompatible operands."""


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite sum of point masses m_i * delta_{x_i}, positions strictly increasing."""

    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.positions, dtype=float))
        m = np.atleast_1d(np.asarray(self.masses, dtype=float))
        if x.shape != m.shape:
            raise MeasureError("positions and masses must have equal length")
        if x.size and (not np.all(np.isfinite(x)) or not np.all(np.isfinite(m))):
            raise MeasureError("non-finite atom data")
        if np.any(m <= 0):
            raise MeasureError("atom masses must be strictly positive")
        if x.size > 1 and np.any(np.diff(x) <= 0):
            raise MeasureError("atom positions must be strictly increasing")
        x.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "masses", m)

    @classmethod
    def from_pairs(cls, pairs) -> "AtomicMeasure":
        """Build from (x, m) pairs; atoms at identical positions are coalesced."""
        pairs = sorted((float(x), float(m)) for x, m in pairs)
        xs: list[float] = []
        ms: list[float] = []
        for x, m in pairs:
            if xs and x == xs[-1]:
                ms[-1] += m
            else:
                xs.append(x)
                ms.append(m)
        return cls(np.array(xs), np.array(ms))

    @property
    def n_atoms(self) -> int:
        return self.positions.size

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    @property
    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.masses)


@dataclass(frozen=True)
class GridField:
    """Uniform grid holding u at the n_cells+1 cell interfaces.

    u is nondecreasing with u[0] = 0 and u[-1] = total mass; cell masses are
    the face differences.
    """

    x_min: float
    x_max: float
    n_cells: int
    u_faces: np.ndarray

    def __post_init__(self):
        if self.n_cells < 1 or self.x_max <= self.x_min:
            raise MeasureError("invalid grid extent")
        u = np.asarray(self.u_faces, dtype=float)
        if u.shape != (self.n_cells + 1,):
            raise MeasureError("u_faces must have n_cells + 1 entries")
        u.setflags(write=False)
        object.__setattr__(self, "u_faces", u)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def faces(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_cells + 1)

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + self.dx * (np.arange(self.n_cells) + 0.5)

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
        if np.any(np.diff(u) < -MONOTONE_TOL):
            raise MeasureError("u_faces not nondecreasing")
        if abs(u[0]) > BOUNDARY_TOL:
            raise MeasureError("left boundary value not pinned to 0")
        return self


class UniformDensity:
    """Constant density carrying ``mass`` on [x_left, x_right]."""

    def __init__(self, x_left: float, x_right: float, mass: float):
        if x_right <= x_left or mass <= 0:
            raise MeasureError("invalid uniform density block")
        self.x_left, self.x_right, self.total_mass = x_left, x_right, mass

    def cdf(self, x):
        t = np.clip((np.asarray(x, dtype=float) - self.x_left)
                    / (self.x_right - self.x_left), 0.0, 1.0)
        return self.total_mass * t

    @property
    def support(self):
        return self.x_left, self.x_right


class TriangularDensity:
    """Triangular density with peak at ``x_peak``, support [x_left, x_right]."""

    def __init__(self, x_left: float, x_peak: float, x_right: float, mass: float):
        if not (x_left < x_peak < x_right) or mass <= 0:
            raise MeasureError("invalid triangular density block")
        self.x_left, self.x_peak, self.x_right = x_left, x_peak, x_right
        self.total_mass = mass

    def cdf(self, x):
        a, c, b, m = self.x_left, self.x_peak, self.x_right, self.total_mass
        x = np.clip(np.asarray(x, dtype=float), a, b)
        left = (x - a) ** 2 / ((b - a) * (c - a))
        right = 1.0 - (b - x) ** 2 / ((b - a) * (b - c))
        out = np.where(x < c, left, right)
        return m * np.clip(out, 0.0, 1.0)

    @property
    def support(self):
        return self.x_left, self.x_right


def sample_to_grid(source, x_min: float, x_max: float, n_cells: int) -> GridField:
    """Project a measure onto a grid: u at each face = mass on (-inf, face].

    Atomic input is reproduced exactly cell by cell.  The source support must
    lie strictly inside (x_min, x_max) so the Dirichlet ghost values hold.
    """
    faces = x_min + (x_max - x_min) / n_cells * np.arange(n_cells + 1)
    if isinstance(source, AtomicMeasure):
        if source.n_atoms == 0:
            raise MeasureError("cannot grid an empty measure")
        if source.positions[0] <= x_min or source.positions[-1] >= x_max:
            raise MeasureError("atom on or outside the grid boundary")
        u = _cdf(source, faces, "right")
    else:
        lo, hi = source.support
        if lo <= x_min or hi >= x_max:
            raise MeasureError("density support touches the grid boundary")
        u = np.asarray(source.cdf(faces), dtype=float)
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
    marked = np.zeros(n, dtype=bool)
    for j in np.nonzero(window >= ATOM_MASS_SHARE * total)[0]:
        marked[j:j + w] = True
    tail_floor = 1e-9 * total
    centers = field.centers
    xs, ms = [], []
    j = end = 0   # end: one past the previous cluster, where a left tail stops
    while j < n:
        if not marked[j]:
            j += 1
            continue
        k = j
        while k + 1 < n and marked[k + 1]:
            k += 1
        while j > end and masses[j - 1] > tail_floor and not marked[j - 1]:
            j -= 1
        while k + 1 < n and masses[k + 1] > tail_floor and not marked[k + 1]:
            k += 1
        cluster = slice(j, k + 1)
        m = float(np.sum(masses[cluster]))
        x = float(np.sum(masses[cluster] * centers[cluster]) / m)
        xs.append(x)
        ms.append(m)
        j = end = k + 1
    if not xs:
        return AtomicMeasure(np.empty(0), np.empty(0))
    return AtomicMeasure.from_pairs(zip(xs, ms))


def _cdf_breaks(obj) -> np.ndarray:
    if isinstance(obj, AtomicMeasure):
        return obj.positions
    return obj.faces


def _cdf(obj, x: np.ndarray, side: str) -> np.ndarray:
    """CDF at x: its right limit for side="right", its left limit for side="left"."""
    if isinstance(obj, AtomicMeasure):
        cum = np.concatenate(([0.0], obj.cumulative))
        return cum[np.searchsorted(obj.positions, x, side=side)]
    return np.interp(x, obj.faces, obj.u_faces, left=0.0, right=obj.total_mass)


def wasserstein1(mu, nu) -> float:
    """W1 distance = integral of |U_mu - U_nu| over the line.

    Both primitives are piecewise linear (or constant) between the merged
    breakpoints, so the integral is computed exactly interval by interval.
    """
    if abs(mu.total_mass - nu.total_mass) > 1e-10:
        raise MeasureError("wasserstein1 requires equal total masses")
    breaks = np.union1d(_cdf_breaks(mu), _cdf_breaks(nu))
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
    levels = np.asarray(q, dtype=float)
    total = obj.total_mass
    outside = ~((0.0 < levels) & (levels < total))
    if outside.any():
        raise MeasureError(f"quantile level {levels[outside][0]} outside (0, {total})")
    if isinstance(obj, AtomicMeasure):
        x = obj.positions[np.searchsorted(obj.cumulative, levels, side="left")]
    else:
        u, faces = obj.u_faces, obj.faces
        i = np.searchsorted(u, levels, side="left")
        lo, hi = u[i - 1], u[i]
        flat = (hi == levels) | (hi == lo)   # on a face or a flat stretch: that face
        x = np.where(flat, faces[i],
                     faces[i - 1] + obj.dx * (levels - lo) / np.where(flat, 1.0, hi - lo))
    return x if levels.ndim else float(x)
