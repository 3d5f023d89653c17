"""Exact event-driven dynamics of Dirac aggregates (attractive case only).

Between merge events every aggregate drifts at the constant speed

    v_i = (A(M_i) - A(M_{i-1})) / m_i,   M_i = m_1 + ... + m_i,

aggregates stick on contact (masses summed, position continuous), and the
aggregate of atoms l..r moves at (A(M_r) - A(M_{l-1})) / m.  Valid only when
a is non-increasing on [0, total mass]; the repulsive/general case belongs to
the PDE path and is refused here.

`advance` is a kinetic event loop (Basch, Guibas & Hershberger 1999): each
aggregate is a trajectory x0 + v (t - t0) in a linked list, and a heap holds
the times at which neighbours come within EVENT_TOL and collide, so a merge
touches only its two outer gaps: O(log N) work per merge.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import flux as fx
from .measure import AtomicMeasure, MeasureError

EVENT_TOL = 1e-12
MAX_EVENTS = 10**6


class OracleError(ValueError):
    """Oracle used outside its validity domain (non-attractive flux, caps)."""


@dataclass(frozen=True, slots=True)
class MergeEvent:
    t: float
    indices: tuple[int, ...]  # indices into the pre-merge atom list
    x: float
    m: float


def velocities(atoms: AtomicMeasure, model: fx.FluxModel) -> np.ndarray:
    """Aggregate speeds from the antiderivative increments over mass blocks."""
    if atoms.n_atoms == 0:
        raise MeasureError("no atoms")
    if not fx.is_attractive(model, atoms.total_mass):
        raise OracleError("aggregate dynamics requires a non-increasing velocity a "
                          "on [0, total mass]")
    cum = np.concatenate(([0.0], atoms.cumulative))
    return np.diff(fx.eval_A(model, cum)) / atoms.masses


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


def advance(system: AggregateSystem, t_target: float):
    """Alternate linear drift and sticky merges up to t_target.

    Returns (system at t_target, list of MergeEvent).  With t_target = inf
    the system is returned at its last merge, since no later time is finite.

    At each instant t (the earliest collision, or t_target) neighbours are
    linked when they collide within EVENT_TOL of t or their gap has closed to
    EVENT_TOL or less; each maximal run of linked aggregates becomes one
    aggregate at its centre of mass, recorded as one MergeEvent.
    """
    t = system.time
    if t_target < t - EVENT_TOL:
        raise ValueError("t_target must not precede the current time")
    x, m, n = system.atoms.positions, system.atoms.masses, system.atoms.n_atoms
    # Aggregates are named by the slot of their leftmost incoming atom, so
    # slot order is list order.  Slot s covers incoming atoms s .. hi[s] - 1.
    A = fx.eval_A(system.model, np.concatenate(([0.0], np.cumsum(m)))).tolist()
    x0, t0, v, mass = x.tolist(), [t] * n, system.v.tolist(), m.tolist()
    hi = list(range(1, n + 1))
    nxt, prv = list(range(1, n + 1)), list(range(-1, n - 1))
    nxt[-1] = -1
    # stamp[s] versions the gap right of slot s (heap entries carry it);
    # -1 once s is merged away
    stamp = [0] * n
    fenwick = [i & -i for i in range(n + 1)]  # live-slot counts, for ranks

    def gap_entry(s: int):
        """Heap entry (t_reach, t_hit, s, stamp) of the gap right of live slot s
        at time t: t_hit is when the neighbours collide (inf if they do not
        close), t_reach <= t_hit when their gap has closed to EVENT_TOL; None
        when neither ever happens."""
        r = nxt[s]
        gap = (x0[r] + v[r] * (t - t0[r])) - (x0[s] + v[s] * (t - t0[s]))
        rate = v[s] - v[r]
        if rate > 0:
            return t + max(gap - EVENT_TOL, 0.0) / rate, t + gap / rate, s, stamp[s]
        return (t, math.inf, s, stamp[s]) if gap <= EVENT_TOL else None

    heap = [e for e in map(gap_entry, range(n - 1)) if e]
    heapq.heapify(heap)

    events: list[MergeEvent] = []
    while True:
        # pop every live gap that may link at the next instant, min(t_hit, t_target)
        popped, t_ev, bound = [], math.inf, t_target + EVENT_TOL
        while heap and heap[0][0] <= bound:
            entry = heapq.heappop(heap)
            if stamp[entry[2]] == entry[3]:
                popped.append(entry)
                if entry[1] < t_ev:
                    t_ev = entry[1]
                    bound = min(t_ev, t_target) + EVENT_TOL
        if t_ev == math.inf == t_target:
            break
        if t_ev <= t_target:
            t = t_ev
            hit = t + EVENT_TOL
        else:
            t, hit = t_target, -math.inf
        linked = set()
        for entry in popped:
            if entry[0] <= t or entry[1] <= hit:
                linked.add(entry[2])
            else:
                heapq.heappush(heap, entry)
        # maximal runs of linked gaps, left to right, as lists of slots
        runs: list[list[int]] = []
        for s in sorted(linked):
            if runs and runs[-1][-1] == s:
                runs[-1].append(nxt[s])
            else:
                runs.append([s, nxt[s]])
        # Each run's MergeEvent.indices are ranks among the aggregates alive
        # before this instant: the live slots left of it, plus those this
        # instant's earlier runs (all further left) have already removed.
        touched, removed = set(), 0
        for run in runs:
            l, r = run[0], run[-1]
            i, rank = l, removed
            while i:
                rank += fenwick[i]
                i &= i - 1
            mg = mx = 0.0
            for a in run:
                mg += mass[a]
                mx += mass[a] * (x0[a] + v[a] * (t - t0[a]))
            events.append(MergeEvent(t, tuple(range(rank, rank + len(run))), mx / mg, mg))
            x0[l], t0[l], mass[l], hi[l] = mx / mg, t, mg, hi[r]
            v[l] = (A[hi[l]] - A[l]) / mg
            for a in run[1:]:
                stamp[a] = -1
                i = a + 1
                while i <= n:
                    fenwick[i] -= 1
                    i += i & -i
            removed += len(run) - 1
            nxt[l] = nxt[r]
            if nxt[l] >= 0:
                prv[nxt[l]] = l
            touched.add(l)
            if prv[l] >= 0:
                touched.add(prv[l])
        for s in touched:
            stamp[s] += 1
            if nxt[s] >= 0 and (entry := gap_entry(s)):
                heapq.heappush(heap, entry)
        if len(events) > MAX_EVENTS:
            raise OracleError("event cap exceeded (10^6 merge events)")
        if t == t_target:
            break

    live = np.flatnonzero(np.array(stamp) >= 0)
    v_live = np.array(v)[live]
    atoms = AtomicMeasure(np.array(x0)[live] + v_live * (t - np.array(t0)[live]),
                          np.array(mass)[live])
    return AggregateSystem(t, atoms, system.model, v=v_live), events


def collapse_time(system: AggregateSystem) -> float:
    """First time a single aggregate remains; math.inf if merges stall."""
    final, _ = advance(system, math.inf)
    return final.time if final.atoms.n_atoms == 1 else math.inf
