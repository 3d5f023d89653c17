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
touches only its two outer gaps: O(log N) heap work per merge.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import NamedTuple

import numpy as np

from . import flux as fx
from .measure import AtomicMeasure, MeasureError

EVENT_TOL = 1e-12
MAX_EVENTS = 10**6
LINKED, REMOVED = -2, -1   # stamps of slots, besides versions


class OracleError(ValueError):
    """Oracle used outside its validity domain (non-attractive flux, caps)."""


class MergeEvent(NamedTuple):
    t: float
    indices: tuple[int, ...]  # indices into the pre-merge atom list
    x: float
    m: float


def velocities(atoms: AtomicMeasure, model: fx.FluxModel) -> np.ndarray:
    """Aggregate speeds from the antiderivative increments over mass blocks."""
    if not isinstance(atoms, AtomicMeasure):
        raise OracleError(f"aggregate dynamics needs an AtomicMeasure, got {type(atoms).__name__}")
    if atoms.n_atoms == 0:
        raise MeasureError("no atoms")
    if not fx.is_attractive(model, atoms.total_mass):
        raise OracleError("aggregate dynamics requires a non-increasing velocity a "
                          "on [0, total mass]")
    return np.diff(fx.eval_A(model, atoms.levels)) / atoms.masses


class AggregateSystem:
    """Aggregates ``atoms`` at ``time``; speeds ``v`` default to velocities(atoms, model)."""

    __slots__ = ("time", "atoms", "model", "v")

    def __init__(self, time: float, atoms: AtomicMeasure, model: fx.FluxModel,
                 v: np.ndarray | None = None):
        self.time, self.atoms, self.model = time, atoms, model
        self.v = velocities(atoms, model) if v is None else v

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
    if not t_target >= t - EVENT_TOL:   # NaN fails this too
        raise ValueError(f"t_target must not precede the current time, got {t_target!r}")
    x, m, n = system.atoms.positions, system.atoms.masses, system.atoms.n_atoms
    # Aggregates are named by the slot of their leftmost incoming atom, so
    # slot order is list order.  Slot s covers incoming atoms s .. hi[s] - 1.
    A = fx.eval_A(system.model, system.atoms.levels).tolist()
    x0, t0, v, mass = x.tolist(), [t] * n, system.v.tolist(), m.tolist()
    hi, nxt, prv = list(range(1, n + 1)), [*range(1, n), -1], list(range(-1, n - 1))
    # stamp[s]: the version of the gap right of slot s in the heap, LINKED while
    # that gap merges at this instant, REMOVED once s merged into its left one
    stamp, version = [0] * n, 0
    # merged-away slots, for ranks; also counted per block of 2**shift slots,
    # about sqrt(8 n): a byte count is cheaper than a sum of ints
    shift = (n.bit_length() + 3) // 2
    dead, dead_in_block = bytearray(n), [0] * ((n >> shift) + 1)

    # A gap's entry is (t_reach, t_hit, s, version): t_hit is when the
    # neighbours collide (inf if they do not close), t_reach <= t_hit when
    # their gap has closed to EVENT_TOL; a gap where neither happens has none.
    # Every aggregate starts at time t, so the first heap is one array pass,
    # without the gaps that cannot link by t_target (never popped here).
    gap, rate = x[1:] - x[:-1], system.v[:-1] - system.v[1:]
    c = (rate > 0).nonzero()[0]   # the closing gaps
    t_reach = t + np.maximum(gap[c] - EVENT_TOL, 0.0) / rate[c]
    c, t_reach = c[due := t_reach <= t_target + EVENT_TOL], t_reach[due]
    heap = list(zip(t_reach.tolist(), (t + gap[c] / rate[c]).tolist(), c.tolist(), [0] * c.size))
    heap += [(t, math.inf, s, 0) for s in ((rate <= 0) & (gap <= EVENT_TOL)).nonzero()[0].tolist()]
    heapify(heap)

    events: list[MergeEvent] = []
    while True:
        # pop every live gap that may link at the next instant, min(t_hit, t_target)
        popped, linked, t_ev, bound = [], [], math.inf, t_target + EVENT_TOL
        while heap and heap[0][0] <= bound:
            entry = heappop(heap)
            if stamp[entry[2]] == entry[3]:
                popped.append(entry)
                if entry[1] < t_ev:
                    t_ev = entry[1]
                    bound = min(t_ev, t_target) + EVENT_TOL
        if t_ev == math.inf == t_target:
            break
        t, hit = (t_ev, t_ev + EVENT_TOL) if t_ev <= t_target else (t_target, -math.inf)
        for entry in popped:
            if entry[0] <= t or entry[1] <= hit:
                linked.append(entry[2])
                stamp[entry[2]] = LINKED
            else:
                heappush(heap, entry)
        linked.sort()
        # Each maximal run of linked gaps, left to right, merges into its
        # leftmost slot l.  Its MergeEvent.indices are ranks among the
        # aggregates alive before this instant: the q live slots left of l,
        # plus those this instant's earlier runs (all further left) removed.
        removed = 0
        for l in linked:
            if stamp[l] == REMOVED:   # inside a run that began further left
                continue
            q = l - sum(dead_in_block[:l >> shift]) - dead.count(1, l >> shift << shift, l)
            first, r, mg, mx = q + removed, l, 0.0, 0.0
            while True:   # add slot r; go on while the gap right of it is linked
                mg += mass[r]
                mx += mass[r] * (x0[r] + v[r] * (t - t0[r]))
                if stamp[r] != LINKED:
                    break
                stamp[r] = REMOVED
                r = nxt[r]
                removed += 1
                dead[r] = 1
                dead_in_block[r >> shift] += 1
            stamp[r] = REMOVED
            x0[l], t0[l], mass[l], hi[l] = mx / mg, t, mg, hi[r]
            v[l] = (A[hi[l]] - A[l]) / mg
            events.append(MergeEvent(t, tuple(range(first, q + removed + 1)), x0[l], mg))
            nxt[l] = r = nxt[r]
            if r >= 0:
                prv[r] = l
            for s in (prv[l], l):   # new entries for the two gaps the merge changed
                if s < 0:
                    continue
                stamp[s] = version = version + 1
                r = nxt[s]
                if r < 0:
                    continue
                gap = (x0[r] + v[r] * (t - t0[r])) - (x0[s] + v[s] * (t - t0[s]))
                rate = v[s] - v[r]   # the first heap's entry, for one gap
                if rate > 0:
                    heappush(heap, (t + (gap - EVENT_TOL if gap > EVENT_TOL else 0.0) / rate,
                                    t + gap / rate, s, version))
                elif gap <= EVENT_TOL:
                    heappush(heap, (t, math.inf, s, version))
        if len(heap) > 2 * (n - len(events)):   # stale entries outnumber live ones
            heap = [e for e in heap if stamp[e[2]] == e[3]]
            heapify(heap)
        if len(events) > MAX_EVENTS:
            raise OracleError(f"event cap exceeded ({MAX_EVENTS} merge events)")
        if t == t_target:
            break

    live = np.frombuffer(dead, dtype=np.uint8) == 0
    v_live = np.array(v)[live]
    atoms = AtomicMeasure(np.array(x0)[live] + v_live * (t - np.array(t0)[live]),
                          np.array(mass)[live])
    return AggregateSystem(t, atoms, system.model, v=v_live), events


def collapse_time(system: AggregateSystem) -> float:
    """First time a single aggregate remains; math.inf if merges stall."""
    final, _ = advance(system, math.inf)
    return final.time if final.atoms.n_atoms == 1 else math.inf
