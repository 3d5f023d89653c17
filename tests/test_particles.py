import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualflow import cli
from dualflow import flux as fx
from dualflow import particles as pt
from dualflow.measure import AtomicMeasure

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

    def test_repulsive_refused(self):
        with pytest.raises(pt.OracleError):
            system([(0.0, 1.0)], model=fx.quadratic_repulsive())


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

    def test_trajectory_csv_shape(self, tmp_path):
        scn = cli.parse_scenario({
            "flux": {"kind": "quadratic-attractive"},
            "initial": {"type": "atoms", "atoms": [[-0.25, 0.5], [0.25, 0.5]]},
            "grid": {"x_min": -3.0, "x_max": 1.0, "n_cells": 200},
            "time": {"t_end": 2.0, "output_times": [0.0, 0.5, 2.0]},
        })
        cli.write_particle_outputs(str(tmp_path), *cli.run_particles(scn))
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
