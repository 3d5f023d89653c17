"""Exact event-driven dynamics of Dirac aggregates (attractive case only).

Between merge events every aggregate drifts at the constant speed

    v_i = (A(M_i) - A(M_{i-1})) / m_i,   M_i = m_1 + ... + m_i,

aggregates stick on contact (masses summed, position continuous), and
velocities are recomputed after each merge.  Valid only when a is
non-increasing on [0, total mass]; the repulsive/general case belongs to
the PDE path and is refused here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import flux as fx
from .measure import AtomicMeasure, MeasureError

EVENT_TOL = 1e-12
MAX_EVENTS = 10**6


class OracleError(ValueError):
    """Oracle used outside its validity domain (non-attractive flux, caps)."""


@dataclass(frozen=True)
class MergeEvent:
    t: float
    indices: tuple[int, ...]  # indices into the pre-merge atom list
    x: float
    m: float


def _speeds(atoms: AtomicMeasure, model: fx.FluxModel) -> np.ndarray:
    # velocities without its attractiveness test, which no merge can change
    cum = np.concatenate(([0.0], atoms.cumulative))
    return np.diff(fx.eval_A(model, cum)) / atoms.masses


def velocities(atoms: AtomicMeasure, model: fx.FluxModel) -> np.ndarray:
    """Aggregate speeds from the antiderivative increments over mass blocks."""
    if atoms.n_atoms == 0:
        raise MeasureError("no atoms")
    if not fx.is_attractive(model, atoms.total_mass):
        raise OracleError("aggregate dynamics requires a non-increasing velocity a "
                          "on [0, total mass]")
    return _speeds(atoms, model)


@dataclass(frozen=True)
class AggregateSystem:
    time: float
    atoms: AtomicMeasure
    model: fx.FluxModel
    v: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.v is None:
            object.__setattr__(self, "v", velocities(self.atoms, self.model))

    @classmethod
    def create(cls, atoms: AtomicMeasure, model: fx.FluxModel,
               time: float = 0.0) -> "AggregateSystem":
        return cls(time, atoms, model)

    @property
    def total_mass(self) -> float:
        return self.atoms.total_mass


def next_event(system: AggregateSystem):
    """(t_event, colliding pairs) for the earliest adjacent collision, or (None, [])."""
    x, v = system.atoms.positions, system.v
    if x.size < 2:
        return None, []
    gaps = np.diff(x)
    closing = v[:-1] - v[1:]
    times = np.full(gaps.shape, np.inf)
    active = closing > 0
    times[active] = gaps[active] / closing[active]
    t_min = times.min()
    if not np.isfinite(t_min):
        return None, []
    pairs = [(i, i + 1) for i in np.nonzero(times <= t_min + EVENT_TOL)[0]]
    return system.time + t_min, pairs


def _drift_and_merge(system: AggregateSystem, t: float, pairs, events: list):
    """The system drifted to time t, with every linked run of atoms merged.

    Neighbours i, i+1 are linked when (i, i+1) is one of ``pairs`` or their
    gap has closed to EVENT_TOL or less.  Each maximal run of linked atoms
    becomes one aggregate at its centre of mass, recorded as one MergeEvent.
    """
    x = system.atoms.positions + system.v * (t - system.time)
    link = np.diff(x) <= EVENT_TOL
    link[[i for i, _ in pairs]] = True
    if not link.any():
        return AggregateSystem(t, AtomicMeasure(x, system.atoms.masses), system.model,
                               v=system.v)
    m = system.atoms.masses
    starts = np.flatnonzero(np.concatenate(([True], ~link)))
    ends = np.append(starts[1:], x.size)
    new_x, new_m = x[starts], m[starts]
    for k in np.flatnonzero(ends - starts > 1):
        g = slice(starts[k], ends[k])
        new_m[k] = gm = float(np.sum(m[g]))
        new_x[k] = gx = float(np.sum(m[g] * x[g]) / gm)
        events.append(MergeEvent(t, tuple(range(g.start, g.stop)), gx, gm))
    atoms = AtomicMeasure(new_x, new_m)
    return AggregateSystem(t, atoms, system.model, v=_speeds(atoms, system.model))


def advance(system: AggregateSystem, t_target: float):
    """Alternate linear drift and sticky merges up to t_target.

    Returns (system at t_target, list of MergeEvent).  With t_target = inf
    the system is returned at its last merge, since no later time is finite.
    """
    if t_target < system.time - EVENT_TOL:
        raise ValueError("t_target must not precede the current time")
    events: list[MergeEvent] = []
    while True:
        t_ev, pairs = next_event(system)
        if t_ev is None or t_ev > t_target:
            if t_target == math.inf:
                return system, events
            return _drift_and_merge(system, t_target, [], events), events
        system = _drift_and_merge(system, t_ev, pairs, events)
        if len(events) > MAX_EVENTS:
            raise OracleError("event cap exceeded (10^6 merge events)")


def collapse_time(system: AggregateSystem) -> float:
    """First time a single aggregate remains; math.inf if merges stall."""
    final, _ = advance(system, math.inf)
    return final.time if final.atoms.n_atoms == 1 else math.inf
