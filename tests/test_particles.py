import bisect
import csv
import functools
import heapq
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualflow import cli
from dualflow import flux as fx
from dualflow import particles as pt
from dualflow.measure import AtomicMeasure, MeasureError, TriangularDensity, UniformDensity
from dualflow.scenario import parse_scenario, write_files

ATTR = fx.quadratic_attractive()


def system(pairs, model=ATTR, time=0.0):
    return pt.AggregateSystem.create(AtomicMeasure.from_pairs(pairs), model, time)


class TestVelocities:
    def test_single_atom_center_of_mass_speed(self):
        # a(u) = -u: v = (A(m) - A(0)) / m = -m/2
        s = system([(0.0, 1.0)])
        np.testing.assert_allclose(s.v, [-0.5])

    def test_two_equal_atoms(self):
        s = system([(-0.25, 0.5), (0.25, 0.5)])
        np.testing.assert_allclose(s.v, [-0.25, -0.75])

    def test_three_equal_atoms(self):
        s = system([(-1.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3)])
        np.testing.assert_allclose(s.v, [-1 / 6, -1 / 2, -5 / 6])

    def test_speeds_lie_in_velocity_range(self):
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(-2, 2, 12))
        ms = rng.uniform(0.1, 1.0, 12)
        s = system(zip(xs, ms))
        amin, amax = fx.a_range(ATTR, 0.0, float(np.sum(ms)))
        assert np.all(s.v >= amin - 1e-12)
        assert np.all(s.v <= amax + 1e-12)

    def test_empty_measure_refused(self):
        with pytest.raises(MeasureError, match="no atoms"):
            pt.velocities(AtomicMeasure(np.empty(0), np.empty(0)), ATTR)

    def test_repulsive_refused(self):
        with pytest.raises(pt.OracleError):
            system([(0.0, 1.0)], model=fx.quadratic_repulsive())

    @pytest.mark.parametrize("density", [UniformDensity(-0.5, 0.5, 1.0),
                                         TriangularDensity(-0.5, 0.0, 0.5, 1.0)],
                             ids=["uniform", "triangular"])
    @pytest.mark.parametrize("start", [pt.velocities, pt.AggregateSystem.create],
                             ids=["velocities", "create"])
    def test_density_data_refused_naming_the_type(self, density, start):
        with pytest.raises(pt.OracleError, match=f"got {type(density).__name__}$"):
            start(density, ATTR)


class TestTwoAtomMerge:
    def test_worked_example(self):
        # masses 1/2 at -1/4 and +1/4: gap 0.5 closes at rate 0.5 -> t* = 1
        s = system([(-0.25, 0.5), (0.25, 0.5)])
        t_ev, pairs = pt.next_event(s)
        assert t_ev == pytest.approx(1.0, abs=1e-14)
        assert pairs == [(0, 1)]
        s2, events = pt.advance(s, 2.0)
        assert len(events) == 1
        assert events[0].t == pytest.approx(1.0, abs=1e-14)
        assert events[0].x == pytest.approx(-0.5, abs=1e-14)
        assert events[0].m == pytest.approx(1.0, abs=1e-14)
        # merged unit mass then drifts at -1/2 for one more unit of time
        assert s2.atoms.n_atoms == 1
        assert s2.atoms.positions[0] == pytest.approx(-1.0, abs=1e-14)

    def test_position_continuous_across_merge(self):
        s = system([(-0.25, 0.5), (0.25, 0.5)])
        before, _ = pt.advance(s, 1.0 - 1e-9)
        after, _ = pt.advance(s, 1.0)
        gap = before.atoms.positions[1] - before.atoms.positions[0]
        assert gap == pytest.approx(0.5e-9, rel=1e-3)
        assert after.atoms.positions[0] == pytest.approx(-0.5, abs=1e-12)


class TestThreeAtoms:
    def test_collapse_time_and_location(self):
        s = system([(-1.0, 1 / 3), (0.0, 1 / 3), (1.0, 1 / 3)])
        t_c = pt.collapse_time(s)
        assert t_c == pytest.approx(3.0, abs=1e-12)
        final, _ = pt.advance(s, t_c)
        assert final.atoms.n_atoms == 1
        # center of mass starts at 0 and drifts at -1/2
        assert final.atoms.positions[0] == pytest.approx(-1.5, abs=1e-12)

    def test_simultaneous_triple_merge(self):
        # symmetric configuration collapses in a single three-way event
        s = system([(-0.5, 0.25), (0.0, 0.5), (0.5, 0.25)])
        t_ev, pairs = pt.next_event(s)
        assert len(pairs) == 2
        s2, events = pt.advance(s, t_ev)
        assert len(events) == 1
        assert events[0].indices == (0, 1, 2)
        assert s2.atoms.n_atoms == 1


class TestInvariants:
    def test_mass_and_momentum_conserved(self):
        rng = np.random.default_rng(9)
        xs = np.sort(rng.uniform(-3, 3, 10))
        ms = rng.uniform(0.05, 0.8, 10)
        s = system(zip(xs, ms))
        m0 = s.total_mass
        p0 = float(np.sum(s.atoms.masses * s.v))
        for t in [0.5, 1.5, 4.0, 20.0]:
            s, _ = pt.advance(s, t)
            assert s.total_mass == pytest.approx(m0, abs=1e-12)
            p = float(np.sum(s.atoms.masses * s.v))
            assert p == pytest.approx(p0, abs=1e-12)
            # total momentum equals A(M) - A(0)
            assert p == pytest.approx(fx.eval_A(ATTR, m0), abs=1e-12)

    def test_order_preserved_no_crossing(self):
        rng = np.random.default_rng(21)
        xs = np.sort(rng.uniform(-2, 2, 8))
        ms = rng.uniform(0.1, 0.5, 8)
        s = system(zip(xs, ms))
        for t in np.linspace(0.1, 10.0, 25):
            s, _ = pt.advance(s, t)
            if s.atoms.n_atoms > 1:
                assert np.all(np.diff(s.atoms.positions) > 0)

    def test_eventual_collapse_to_drifting_point(self):
        s = system([(-2.0, 0.3), (-0.5, 0.4), (1.0, 0.2), (2.5, 0.1)])
        t_c = pt.collapse_time(s)
        assert math.isfinite(t_c)
        later, _ = pt.advance(s, t_c + 5.0)
        assert later.atoms.n_atoms == 1
        assert later.v[0] == pytest.approx(fx.eval_A(ATTR, 1.0) / 1.0, abs=1e-12)


class TestAdvanceEdgeCases:
    def test_zero_time_advance(self):
        s = system([(0.0, 1.0)])
        s2, events = pt.advance(s, 0.0)
        assert events == []
        assert s2.atoms.positions[0] == 0.0

    def test_backwards_time_rejected(self):
        s = system([(0.0, 1.0)], time=1.0)
        with pytest.raises(ValueError):
            pt.advance(s, 0.5)

    def test_nan_time_rejected(self):
        # NaN compares false both ways, so it must be refused before the loop
        s = system([(-0.25, 0.5), (0.25, 0.5)])
        with pytest.raises(ValueError, match="nan"):
            pt.advance(s, math.nan)

    def test_event_cap_names_the_cap(self, monkeypatch):
        monkeypatch.setattr(pt, "MAX_EVENTS", 3)
        s = system([(float(x), 1 / 8) for x in [0.0, 1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0]])
        with pytest.raises(pt.OracleError, match=r"event cap exceeded \(3 merge events\)"):
            pt.advance(s, math.inf)

    def test_trajectory_csv_shape(self, tmp_path):
        scn = parse_scenario({
            "flux": {"kind": "quadratic-attractive"},
            "initial": {"type": "atoms", "atoms": [[-0.25, 0.5], [0.25, 0.5]]},
            "grid": {"x_min": -3.0, "x_max": 1.0, "n_cells": 200},
            "time": {"t_end": 2.0, "output_times": [0.0, 0.5, 2.0]},
        })
        write_files(str(tmp_path), cli.write_particle_outputs(*cli.run_particles(scn)))
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["t", "atom_id", "x", "m", "v"]
        # 2 atoms at t=0 and t=0.5, 1 atom at t=2
        assert len(rows) == 5
        t_last, _, x_last, m_last, v_last = map(float, rows[-1])
        assert (t_last, m_last) == (2.0, 1.0)
        assert x_last == pytest.approx(-1.0, abs=1e-12)
        assert v_last == pytest.approx(-0.5, abs=1e-12)


class TestMergeAccounting:
    """Every merge, however it is detected, is recorded as one MergeEvent."""

    def test_merge_by_closed_gap_at_an_event_is_recorded(self):
        # (0,1) collide at t = 1; (2,3) are due 3e-12 later, outside the
        # event tolerance, but their gap has closed to 7.5e-13 by then
        s = system([(-0.5, 0.25), (-0.25, 0.25), (1.0, 0.25), (1.25 + 7.5e-13, 0.25)])
        final, events = pt.advance(s, 10.0)
        assert final.atoms.n_atoms == 1
        assert [e.indices for e in events] == [(0, 1), (2, 3), (0, 1)]
        assert events[1].t == events[0].t == pytest.approx(1.0, abs=1e-12)
        assert sum(len(e.indices) - 1 for e in events) == 3

    def test_collisions_within_the_tolerance_share_an_instant(self):
        # closing speed 4: (2,3) collide 5e-13 after (0,1), when their gap
        # is still 2e-12, so only the collision tolerance links them at t = 1
        s = system([(0.0, 4.0), (4.0, 4.0), (100.0, 4.0), (104.0 + 2e-12, 4.0)])
        _, events = pt.advance(s, 2.0)
        assert [(e.t, e.indices) for e in events] == [(1.0, (0, 1)), (1.0, (2, 3))]

    def test_simultaneous_collisions_apart_stay_apart(self):
        # (0,1) and (2,3) collide at t = 1, one unit apart: two aggregates
        s = system([(-0.5, 0.25), (-0.25, 0.25), (1.0, 0.25), (1.25, 0.25)])
        s2, events = pt.advance(s, 1.0)
        assert [e.indices for e in events] == [(0, 1), (2, 3)]
        assert s2.atoms.positions.tolist() == [-0.625, 0.375]

    def test_merge_by_closed_gap_at_the_target_time_is_recorded(self):
        s = system([(-0.25, 0.5), (0.25, 0.5)])
        t = 1.0 - 1e-12
        s2, events = pt.advance(s, t)
        assert s2.atoms.n_atoms == 1
        assert [(e.t, e.indices, e.m) for e in events] == [(t, (0, 1), 1.0)]
        _, later = pt.advance(s2, 2.0)
        assert later == []


PWL_NODES = [0.0, 0.25, 0.5, 1.0]


@st.composite
def attractive_models(draw):
    """quadratic-attractive, or a piecewise-linear a non-increasing everywhere
    (drops of zero give constant stretches, where merges stall)."""
    if draw(st.booleans()):
        return ATTR
    drops = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
                          min_size=len(PWL_NODES) - 1, max_size=len(PWL_NODES) - 1))
    a = np.concatenate(([1.0], 1.0 - np.cumsum(drops)))
    return fx.piecewise_linear(zip(PWL_NODES, a.tolist()))


@settings(max_examples=80, deadline=None)
@given(model=attractive_models(),
       xs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=12, unique=True),
       ks=st.lists(st.integers(1, 64), min_size=12, max_size=12),
       times=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4))
def test_merge_accounting_and_invariants(model, xs, ks, times):
    # dyadic masses: every partial sum is exact, so mass must be too
    s0 = system(zip(xs, [k / 256 for k in ks]), model=model)
    n0, m0 = s0.atoms.n_atoms, s0.total_mass
    x_bar0 = float(np.sum(s0.atoms.masses * s0.atoms.positions)) / m0
    s, merged = s0, 0
    for t in sorted(times):
        s, events = pt.advance(s, t)
        merged += sum(len(e.indices) - 1 for e in events)
        assert merged == n0 - s.atoms.n_atoms
        assert s.total_mass == m0
        x_bar = float(np.sum(s.atoms.masses * s.atoms.positions)) / m0
        assert x_bar == pytest.approx(x_bar0 + t * fx.eval_A(model, m0) / m0, abs=1e-12)
        assert np.all(np.diff(s.atoms.positions) > 0)


# ---------------------------------------------------------------------------
# The O(N^2) loop the kinetic event queue replaced, kept as the test reference:
# every instant drifts every aggregate, rebuilds the measure and recomputes
# every speed.


def _reference_speeds(atoms, model):
    return np.diff(fx.eval_A(model, atoms.levels)) / atoms.masses


def _reference_drift_and_merge(system, t, pairs, events):
    x = system.atoms.positions + system.v * (t - system.time)
    link = np.diff(x) <= pt.EVENT_TOL
    link[[i for i, _ in pairs]] = True
    if not link.any():
        return pt.AggregateSystem(t, AtomicMeasure(x, system.atoms.masses), system.model,
                                  v=system.v)
    m = system.atoms.masses
    starts = np.flatnonzero(np.concatenate(([True], ~link)))
    ends = np.append(starts[1:], x.size)
    new_x, new_m = x[starts], m[starts]
    for k in np.flatnonzero(ends - starts > 1):
        g = slice(starts[k], ends[k])
        new_m[k] = gm = float(np.sum(m[g]))
        new_x[k] = gx = float(np.sum(m[g] * x[g]) / gm)
        events.append(pt.MergeEvent(t, tuple(range(g.start, g.stop)), gx, gm))
    atoms = AtomicMeasure(new_x, new_m)
    return pt.AggregateSystem(t, atoms, system.model, v=_reference_speeds(atoms, system.model))


def reference_advance(system, t_target):
    events = []
    while True:
        t_ev, pairs = pt.next_event(system)
        if t_ev is None or t_ev > t_target:
            if t_target == math.inf:
                return system, events
            return _reference_drift_and_merge(system, t_target, [], events), events
        system = _reference_drift_and_merge(system, t_ev, pairs, events)


CUBIC = fx.polynomial([0.5, -0.5, 0.0, -1.0])  # a(u) = 1/2 - u/2 - u^3


def assert_matches_reference(pairs, model, times, last=math.inf):
    """advance and reference_advance, chained through times and then to
    ``last``, record the same merge groups; times, positions and speeds agree
    to 1e-10 (relative beyond magnitude 1: slow merges can come at t ~ 10^3)
    and masses exactly."""
    close = functools.partial(pytest.approx, rel=1e-10, abs=1e-10)
    new = old = system(pairs, model)
    for t in [*sorted(times), last]:
        new, ev_new = pt.advance(new, t)
        old, ev_old = reference_advance(old, t)
        assert [e.indices for e in ev_new] == [e.indices for e in ev_old]
        for a, b in zip(ev_new, ev_old):
            assert (a.t, a.x) == close((b.t, b.x))
            assert a.m == b.m
        assert new.time == close(old.time)
        assert new.atoms.masses.tolist() == old.atoms.masses.tolist()
        assert new.atoms.positions == close(old.atoms.positions)
        assert new.v == close(old.v)


def random_configuration(rng):
    """1-60 atoms with dyadic masses (exact partial sums) under one of the
    three attractive model kinds; a third of them on a grid of eighths, half
    of those with equal masses, to force simultaneous collisions."""
    n = int(rng.integers(1, 61))
    kind = rng.integers(3)
    if kind == 0:
        model = ATTR
    elif kind == 1:
        model = CUBIC
    else:
        drops = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], size=len(PWL_NODES) - 1)
        model = fx.piecewise_linear(zip(PWL_NODES, (1.0 - np.cumsum([0.0, *drops])).tolist()))
    xs = rng.uniform(-2.0, 2.0, n)
    ks = rng.integers(1, 65, n)
    if rng.random() < 1 / 3:
        xs = np.round(xs * 8) / 8
        if rng.random() < 0.5:
            ks[:] = ks[0]
    return list(zip(xs.tolist(), (ks / 4096).tolist())), model, rng.uniform(0.0, 3.0, 2).tolist()


def test_seeded_sweep_matches_reference():
    for seed in range(500):
        pairs, model, times = random_configuration(np.random.default_rng(seed))
        assert_matches_reference(pairs, model, times)


def test_large_collapse_chained_matches_reference():
    # particle_collapse's shape: each call after the first starts from merged
    # aggregates and builds its heap from them
    xs = np.sort(np.random.default_rng(2048).uniform(-1.0, 1.0, 2048))
    assert_matches_reference([(x, 1 / 2048) for x in xs.tolist()], ATTR,
                             [0.0, 0.5, 1.0, 2.0, 4.0, 8.0])


@pytest.mark.parametrize("n", [10**2, 10**3, 10**4])
@settings(max_examples=4, deadline=None)
@given(model=st.one_of(attractive_models(), st.just(CUBIC)), seed=st.integers(0, 2**32 - 1))
def test_large_systems_match_reference_over_their_first_merges(n, model, seed):
    # advance builds its first heap in one pass over the gaps and its result from
    # its lists; up to 10^4 atoms, advanced through three times between their first
    # 60 merges (the reference pays O(n) per merge)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2.0, 2.0, n)   # dyadic masses, of about 0.5 in all
    pairs = list(zip(xs.tolist(), (rng.integers(1, 65, n) / 2**(5 + n.bit_length())).tolist()))
    _, events = pt.advance(system(pairs, model), math.inf)
    t = [e.t for e in events[:62]] or [0.0]
    t += [t[-1] + 1.0] * (62 - len(t))   # with fewer merges, times after the last
    assert_matches_reference(pairs, model, [0.5 * (t[20] + t[21]), 0.5 * (t[40] + t[41])],
                             last=0.5 * (t[60] + t[61]))


@settings(max_examples=60, deadline=None)
@given(model=st.one_of(attractive_models(), st.just(CUBIC)),
       xs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=60, unique=True),
       ks=st.lists(st.integers(1, 64), min_size=60, max_size=60),
       times=st.lists(st.floats(0.0, 3.0), max_size=3))
def test_matches_reference(model, xs, ks, times):
    assert_matches_reference(zip(xs, [k / 4096 for k in ks]), model, times)


# ---------------------------------------------------------------------------
# Exact rational reference for a(u) = -u: speeds -(M_{l-1} + M_r)/2 are exact
# for dyadic masses, and collisions are exact ties, with no tolerance.


def exact_merges(xs, ms):
    """(t, indices) of every merge of atoms at sorted xs, as Fractions."""
    n = len(xs)
    cum = [Fraction(0)]
    for m in ms:
        cum.append(cum[-1] + Fraction(m))
    x0, t0, mass = [Fraction(x) for x in xs], [Fraction(0)] * n, [Fraction(m) for m in ms]
    hi, v = list(range(1, n + 1)), [-(cum[i] + cum[i + 1]) / 2 for i in range(n)]
    nxt, prv = list(range(1, n + 1)), list(range(-1, n - 1))
    nxt[-1] = -1
    stamp, live, heap, merges = [0] * n, list(range(n)), [], []

    def push(s, t):  # the collision of s with its right neighbour
        r = nxt[s]
        gap = (x0[r] + v[r] * (t - t0[r])) - (x0[s] + v[s] * (t - t0[s]))
        heapq.heappush(heap, (t + gap / (v[s] - v[r]), s, stamp[s]))

    for s in range(n - 1):
        push(s, Fraction(0))
    while heap:
        t, s, st = heapq.heappop(heap)
        if stamp[s] != st:
            continue
        linked = {s}
        while heap and heap[0][0] == t:
            _, s, st = heapq.heappop(heap)
            if stamp[s] == st:
                linked.add(s)
        runs = []
        for s in sorted(linked):
            if runs and runs[-1][-1] == s:
                runs[-1].append(nxt[s])
            else:
                runs.append([s, nxt[s]])
        ranks = [bisect.bisect_left(live, run[0]) for run in runs]
        for run, rank in zip(runs, ranks):
            merges.append((t, tuple(range(rank, rank + len(run)))))
            l, r = run[0], run[-1]
            mg = sum(mass[a] for a in run)
            x0[l] = sum(mass[a] * (x0[a] + v[a] * (t - t0[a])) for a in run) / mg
            t0[l], mass[l], hi[l] = t, mg, hi[r]
            v[l] = -(cum[hi[l]] + cum[l]) / 2
            for a in run[1:]:
                stamp[a] = -1
                del live[bisect.bisect_left(live, a)]
            nxt[l] = nxt[r]
            if nxt[l] >= 0:
                prv[nxt[l]] = l
            for a in (prv[l], l):
                if a >= 0:
                    stamp[a] += 1
                    if nxt[a] >= 0:
                        push(a, t)
    return merges


@pytest.mark.parametrize("seed", range(3))
def test_event_times_match_exact_rationals(seed):
    rng = np.random.default_rng(seed)
    n = 300
    xs = np.sort(rng.uniform(-1.0, 1.0, n)).tolist()
    ms = (rng.integers(1, 65, n) / 16384).tolist()
    final, events = pt.advance(system(zip(xs, ms)), math.inf)
    exact = exact_merges(xs, ms)
    assert final.atoms.n_atoms == 1
    assert [e.indices for e in events] == [idx for _, idx in exact]
    assert max(abs(e.t - float(t)) for e, (t, _) in zip(events, exact)) <= 1e-12
