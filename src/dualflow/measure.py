"""Representations of the density rho and its primitive u.

Two concrete forms are used throughout: an ordered list of point masses
(AtomicMeasure) and a uniform grid carrying u at cell interfaces
(GridField).  The primitive is the right-continuous CDF,
u(x) = rho((-inf, x]); an atom sitting exactly on a grid face is assigned
to that face.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate

from . import NumpyOnFirstUse

np = NumpyOnFirstUse(globals())


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
    once, left to right), ends at the total mass, inf past the float range.

    The data are checked and summed as Python floats, kept as the lists ``xs``,
    ``ms`` and ``cum`` (read them, do not change them); ``positions``,
    ``masses`` and ``levels`` are the same as new read-only arrays, built on
    each read, so a caller that reads none of them needs no numpy."""

    __slots__ = ("xs", "ms", "cum")

    def __init__(self, positions, masses):
        x, m = _floats(positions), _floats(masses)   # copies: the caller's stay writable
        if len(x) != len(m):
            raise MeasureError("positions and masses must have equal length")
        if not (all(map(math.isfinite, x)) and all(map(math.isfinite, m))):
            raise MeasureError("non-finite atom data")
        if m and min(m) <= 0:
            raise MeasureError("atom masses must be strictly positive")
        if any(map(operator.ge, x, x[1:])):
            raise MeasureError("atom positions must be strictly increasing")
        # np.cumsum's sums, in its order; past the float range a sum is inf
        self.xs, self.ms, self.cum = x, m, [0.0, *accumulate(m)]

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

    positions = property(lambda self: frozen_array(self.xs), doc="xs as a new read-only array")
    masses = property(lambda self: frozen_array(self.ms), doc="ms as a new read-only array")
    levels = property(lambda self: frozen_array(self.cum), doc="cum as a new read-only array")

    @property
    def n_atoms(self) -> int:
        return len(self.xs)

    @property
    def total_mass(self) -> float:
        return self.cum[-1]


def _floats(values) -> list:
    """``values`` as a new list of Python floats: an array's through tolist,
    which is faster than iterating its numpy scalars."""
    return list(map(float, values.tolist() if hasattr(values, "tolist") else values))


def frozen_array(values):
    """``values``, floats, as a read-only float array."""
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


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
        lo, hi, what = source.xs[0], source.xs[-1], "atom on or outside"
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


def _cdf(obj, x: np.ndarray, side: str) -> np.ndarray:
    """CDF at x: its right limit for side="right", its left limit for side="left"."""
    if isinstance(obj, AtomicMeasure):
        return obj.levels[np.searchsorted(obj.positions, x, side=side)]
    return np.interp(x, obj.faces, obj.u_faces, left=0.0, right=obj.total_mass)


# extract_atoms, wasserstein1 and quantile run in few commands: their bodies are in
# dualflow.transport, compiled on first call (bench/tracer.py binds these names)


def extract_atoms(field: GridField) -> AtomicMeasure:
    """Dirac-like mass clusters of a grid field (transport.extract_atoms)."""
    from .transport import extract_atoms
    return extract_atoms(field)


def wasserstein1(mu, nu) -> float:
    """W1 distance between two measures of equal mass (transport.wasserstein1)."""
    from .transport import wasserstein1
    return wasserstein1(mu, nu)


def quantile(obj, q):
    """Generalized inverse of the primitive, inf{x : U(x) >= q} (transport.quantile)."""
    from .transport import quantile
    return quantile(obj, q)
