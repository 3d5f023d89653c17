import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from dualflow import cli, flux as fx
from dualflow import measure as ms
from dualflow import pde, pwl
from dualflow.pde import FluxPlan

ATTR = fx.quadratic_attractive()
REP = fx.quadratic_repulsive()
one_model_per_kind = pytest.mark.parametrize(
    "model", [ATTR, REP, fx.polynomial([0.1, 1.0, -3.0, 2.0]),
              fx.piecewise_linear([(0.0, 1.0), (0.4, -0.5), (1.0, 0.5)])],
    ids=lambda m: m.kind)


def dirac_grid(x_min=-3.0, x_max=1.0, n=200, x0=0.0, m=1.0):
    return ms.sample_to_grid(ms.AtomicMeasure.from_pairs([(x0, m)]),
                             x_min, x_max, n)


class TestStableDt:
    def test_positive_and_cfl_scaled(self):
        f = dirac_grid()
        dt1 = pde.stable_dt(f, ATTR, 0.45)
        dt2 = pde.stable_dt(f, ATTR, 0.9)
        assert dt1 > 0
        assert dt2 == pytest.approx(2 * dt1)

    def test_rest_state_has_infinite_dt(self):
        # constant-velocity model with a = 0: no waves, dt unbounded; run
        # caps each step by the next output time, so it still reaches t_end
        still = fx.polynomial([0.0])
        f = dirac_grid()
        assert pde.stable_dt(f, still, 0.45) == np.inf
        snaps = pde.run(f, still, 2.0, output_times=[0.5])
        assert [s.t for s in snaps] == [0.5, 2.0]
        assert [s.step_count for s in snaps] == [1, 2]
        assert np.array_equal(snaps[-1].field.u_faces, f.u_faces)

    @one_model_per_kind
    def test_equals_the_whole_grid_scan(self, model):
        two = ms.AtomicMeasure.from_pairs([(-0.5, 0.25), (0.3, 0.75)])
        for f in (dirac_grid(), ms.sample_to_grid(two, -3.0, 1.0, 150)):
            for cfl in (0.45, 0.9):
                assert pde.stable_dt(f, model, cfl) == reference_dt(f, model, cfl)

    def test_step_rejects_infinite_dt(self):
        still = fx.polynomial([0.0])
        state = pde.SolverState(0.0, dirac_grid())
        with pytest.raises(pde.SolverError):
            pde.step(state, still)

    def test_dt_steps_a_rest_state(self):
        # no mass, so no face moves: only a given dt advances the clock
        field = ms.GridField(-1.0, 1.0, 8, np.zeros(9))
        state = pde.SolverState(0.0, field)
        stepped = pde.step(state, ATTR, dt=0.5)
        assert (stepped.t, stepped.step_count) == (0.5, 1)
        assert stepped.field.u_faces.tobytes() == field.u_faces.tobytes()
        with pytest.raises(pde.SolverError, match="pass dt for rest states"):
            pde.step(state, ATTR)


class TestStepInvariants:
    @pytest.mark.parametrize("model", [ATTR, REP])
    def test_mass_conserved_exactly(self, model):
        state = pde.SolverState(0.0, dirac_grid())
        for _ in range(50):
            state = pde.step(state, model)
        assert state.field.total_mass == 1.0
        assert state.field.u_faces[0] == 0.0

    @pytest.mark.parametrize("model", [ATTR, REP])
    def test_monotonicity_preserved(self, model):
        state = pde.SolverState(0.0, dirac_grid())
        for _ in range(50):
            state = pde.step(state, model)
            assert np.all(np.diff(state.field.u_faces) >= -1e-14)

    def test_bounds_preserved(self):
        # monotone scheme: u stays within [0, total mass]
        state = pde.SolverState(0.0, dirac_grid())
        for _ in range(50):
            state = pde.step(state, REP)
        u = state.field.u_faces
        assert u.min() >= -1e-14
        assert u.max() <= 1.0 + 1e-14

    def test_nan_face_refused(self):
        field = ms.GridField(-1.0, 1.0, 2, np.array([0.0, np.nan, 1.0]))
        with pytest.raises(pde.SolverError, match="NaN/Inf"):
            pde.step(pde.SolverState(0.0, field), ATTR)


class TestShockTransport:
    def test_attractive_dirac_moves_at_center_of_mass_speed(self):
        # unit Dirac at 0, a(u) = -u: travels at -(1/2)
        snaps = pde.run(dirac_grid(n=400), ATTR, 1.0)
        final = snaps[-1].field
        atom = ms.extract_atoms(final)
        assert atom.n_atoms == 1
        assert atom.masses[0] == pytest.approx(1.0, abs=1e-6)
        assert atom.positions[0] == pytest.approx(-0.5, abs=2 * final.dx)

    def test_riemann_shock_speed(self):
        # a(u) = -u, states 0 / 1: shock speed (A(1)-A(0))/1 = -1/2
        f = ms.GridField(-2.0, 1.0, 300,
                         np.where(np.linspace(-2.0, 1.0, 301) >= 0.0, 1.0, 0.0))
        snaps = pde.run(f, ATTR, 1.0)
        final = snaps[-1].field
        mid = ms.quantile(final, 0.5)
        assert mid == pytest.approx(-0.5, abs=3 * final.dx)


class TestRarefaction:
    def test_repulsive_dirac_spreads_linearly(self):
        # exact profile: u(t,x) = clamp(x/t, 0, 1)
        snaps = pde.run(dirac_grid(x_min=-1.0, x_max=3.0, n=400), REP, 1.0,
                        cfl=0.9)
        final = snaps[-1].field
        exact = np.clip(final.faces / 1.0, 0.0, 1.0)
        err = final.dx * np.sum(np.abs(final.u_faces - exact))
        assert err < 0.02

    def test_density_bound_no_foot_spike(self):
        snaps = pde.run(dirac_grid(x_min=-1.0, x_max=3.0, n=400), REP, 2.0,
                        cfl=0.9, output_times=[0.5, 1.0, 2.0])
        for s in snaps:
            if s.t == 0.0:
                continue
            dens = s.field.cell_masses / s.field.dx
            assert dens.max() <= 1.0 / s.t + 2 * s.field.dx / s.t


class TestRun:
    def test_output_times_hit_exactly(self):
        snaps = pde.run(dirac_grid(), ATTR, 1.0, output_times=[0.0, 0.3, 0.7])
        assert [s.t for s in snaps] == [0.0, 0.3, 0.7, 1.0]

    def test_bad_arguments(self):
        f = dirac_grid()
        with pytest.raises(ValueError):
            pde.run(f, ATTR, -1.0)
        with pytest.raises(ValueError):
            pde.run(f, ATTR, 1.0, cfl=1.5)
        with pytest.raises(ValueError):
            pde.run(f, ATTR, 1.0, output_times=[2.0])

    def test_boundary_contact_warns(self):
        # domain too small: the shock hits the left edge before t = 4
        with pytest.warns(RuntimeWarning, match="boundary"):
            pde.run(dirac_grid(x_min=-1.0, x_max=1.0, n=100), ATTR, 4.0)


def momentum_field(state, model):
    """Per-cell momentum q_i = A(u_{i+1}) - A(u_i) of the q = A(u)_x extension."""
    return np.diff(fx.eval_A(model, state.field.u_faces))


class TestMomentum:
    @pytest.mark.parametrize("model", [ATTR, REP])
    def test_total_momentum_is_flux_increment(self, model):
        snaps = pde.run(dirac_grid(x_min=-3.0, x_max=3.0, n=300), model, 0.5)
        q = momentum_field(snaps[-1], model)
        assert float(q.sum()) == pytest.approx(fx.eval_A(model, 1.0), abs=1e-12)

    def test_velocity_bracket(self):
        # q_i / rho_i stays inside the velocity range wherever mass sits
        snaps = pde.run(dirac_grid(), ATTR, 1.0)
        rho = snaps[-1].field.cell_masses
        q = momentum_field(snaps[-1], ATTR)
        sel = rho > 1e-10
        ratio = q[sel] / rho[sel]
        amin, amax = fx.a_range(ATTR, 0.0, 1.0)
        assert np.all(ratio >= amin - 1e-10)
        assert np.all(ratio <= amax + 1e-10)


def bits(x):
    """The float64 bit patterns, so that equality is exact (sign of 0 too)."""
    return np.asarray(x, dtype=float).view(np.int64)


def valid_model(build):
    """The model build(args) makes, or None where FluxModel refuses the args."""
    def make(args):
        try:
            return build(args)
        except fx.FluxError:
            return None
    return make


def polynomial_models(max_size):
    return (st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=max_size)
            .map(valid_model(fx.polynomial)).filter(lambda m: m is not None))


@st.composite
def pwl_models(draw, attractive=False):
    us = sorted(draw(st.lists(st.floats(-0.2, 1.2), min_size=2, max_size=5,
                              unique=True)))
    avs = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(us), max_size=len(us)))
    if attractive:
        avs = sorted(avs, reverse=True)
    model = valid_model(fx.piecewise_linear)(list(zip(us, avs)))
    assume(model is not None)
    return model


# one random model per flux kind
KIND_MODELS = {
    "quadratic-attractive": st.just(ATTR),
    "quadratic-repulsive": st.just(REP),
    "polynomial": polynomial_models(4),
    "piecewise-linear-a": pwl_models(),
}


def is_c_u(model):
    """Whether a(u) = ±0 + c·u, so that A = (c/2)·u², with c/2 ≠ 0."""
    return len(model.a_coeffs) == 2 and model.a_coeffs[0] == 0.0 and model.a_coeffs[1] / 2 != 0.0


class TestFluxPlan:
    @pytest.mark.parametrize("kind", fx.KINDS)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_kernel_equals_numerical_flux(self, kind, data):
        model = data.draw(KIND_MODELS[kind])
        # faces on the extremum points of A, a and a' (the nodes of the
        # piecewise-linear kind among them), on zero and subnormals, and
        # repeated face values, which sort into runs of equal faces
        edges = [u for table in model._tables for u in table.left.tolist() if -1.0 <= u <= 2.0]
        tiny = [0.0, 5e-324, 1e-310, -5e-324, -1e-310]
        repeats = data.draw(st.lists(st.floats(-0.1, 1.5) | st.sampled_from(tiny),
                                     min_size=1, max_size=4))
        faces = data.draw(st.lists(st.floats(-0.1, 1.5) | st.sampled_from(edges + tiny + repeats),
                                   min_size=2, max_size=40))
        e = np.sort(np.array(faces)) + 0.0   # monotone, no negative zero
        for e in (e, 0.0 - e[::-1]):   # and mirrored, mostly below 0
            ref = bits(pde.numerical_flux(model, e[:-1], e[1:]))
            m = e.size - 1
            lo, hi = float(e[0]), float(e[-1])
            wider = (data.draw(st.floats(-2.0, lo)), data.draw(st.floats(hi, 2.0)))
            # for A = c·u², a range with 0 inside keeps the min of A at both faces,
            # [-ε, M]; one without, [0, M] or [lo, hi], takes A at the upwind face
            ranges = [(lo, hi), wider, (-2.0, 2.0), (min(lo, -5e-324), hi)]
            ranges += [(0.0, hi)] if lo >= 0.0 else [(lo, 0.0)] if hi <= 0.0 else []
            for lo, hi in ranges:
                plan = FluxPlan(model, lo, hi)
                assert (plan.upwind is not None) == (is_c_u(model) and not lo < 0.0 < hi)
                # the piecewise-linear A gathers its rows by runs from RUNS_FROM faces on
                for runs_from in (pwl.RUNS_FROM, 0):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(pwl, "RUNS_FROM", runs_from)
                        got = plan.fluxes(e, e[:-1], e[1:], np.diff(e), np.empty(m),
                                          np.empty((2, e.size)))
                    assert np.array_equal(bits(got), ref)

    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(-2.0, 2.0).filter(lambda c: c / 2), zero=st.sampled_from([0.0, -0.0]),
           data=st.data())
    def test_polynomial_c_u_takes_the_upwind_flux(self, c, zero, data):
        # a(u) = ±0 + c·u gives A the evaluator of the quadratic kinds, (u·c/2)·u + 0.0,
        # so its plan takes the upwind flux where 0 is not inside the range, whatever the kind
        model = fx.polynomial([zero, c])
        faces = data.draw(st.lists(st.floats(0.0, 1.5) | st.sampled_from([0.0, 5e-324, 1e-310]),
                                   min_size=2, max_size=40))
        e = np.sort(np.array(faces)) + 0.0
        for e in (e, 0.0 - e[::-1]):
            plan = FluxPlan(model, float(e[0]), float(e[-1]))
            assert plan.upwind is not None
            got = plan.fluxes(e, e[:-1], e[1:], np.diff(e), np.empty(e.size - 1),
                              np.empty((2, e.size)))
            assert np.array_equal(bits(got), bits(pde.numerical_flux(model, e[:-1], e[1:])))

    def test_c_u_upwind_equals_the_quadratic_kinds(self):
        for c, quadratic in ((1.0, REP), (-1.0, ATTR)):
            for lo, hi in ((0.0, 1.0), (-1.0, 0.0)):
                plan = FluxPlan(fx.polynomial([0.0, c]), lo, hi)
                same = FluxPlan(quadratic, lo, hi)
                assert bits(plan.upwind[0]) == bits(same.upwind[0])
                assert plan.upwind[1:] == same.upwind[1:]
        # A = 0 (c/2 is 0), a constant term or a third coefficient keep the min of A
        for coeffs in ([0.0, 0.0], [0.0, 5e-324], [0.5, 1.0], [0.0, 1.0, 0.0]):
            assert FluxPlan(fx.polynomial(coeffs), 0.0, 1.0).upwind is None

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_pwl_run_gather_equals_the_take(self, data):
        # PwlA.sorted gathers the rows of sorted faces by runs: the bits of
        # __call__, for faces on every break (the last one, nextafter the last
        # node, too), repeated faces, signed zeros and subnormals
        model = data.draw(pwl_models())
        A = model._tables[0].at
        special = [*A.breaks.tolist(), *(u for u, _ in model.nodes), 0.0, -0.0,
                   5e-324, -5e-324, 1e-310, -1e-310]
        faces = data.draw(st.lists(st.floats(-0.5, 1.5) | st.sampled_from(special),
                                   min_size=1, max_size=60))
        e = np.sort(np.array(faces * data.draw(st.integers(1, 3))))
        ref = A(e, np.empty(e.size))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pwl, "RUNS_FROM", 0)
            got = A.sorted(e, np.empty(e.size))
        assert np.array_equal(bits(got), bits(ref))

    @pytest.mark.parametrize("kind", fx.KINDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_wave_bound_equals_the_range_queries(self, kind, data):
        model = data.draw(KIND_MODELS[kind])
        lo, hi = sorted(data.draw(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))))
        plan = FluxPlan(model, lo, hi)
        assert bits(plan.speed) == bits(fx.max_wave_speed(model, lo, hi))
        assert bits(plan.slope) == bits(max(0.0, fx.max_slope_of_a(model, lo, hi)))

    @one_model_per_kind
    def test_one_slope_query_per_run_plan(self, model, monkeypatch):
        # the plan queries max a' once; the CFL step of ordered faces reads it
        calls = []
        max_slope_of_a = fx.max_slope_of_a
        monkeypatch.setattr(fx, "max_slope_of_a",
                            lambda *args: calls.append(1) or max_slope_of_a(*args))
        march = pde._March(dirac_grid(), model)
        march.dt(0.45)
        assert march.ordered and len(calls) == 1

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_pwl_slope_equals_the_stretch_formula(self, data):
        # a' of the piecewise-linear kind: the largest slope of the stretches
        # (segments and constant extensions) meeting (lo, hi); 0 at a lone node
        model = data.draw(pwl_models())
        us, avs = map(np.array, zip(*model.nodes))
        left, right = np.r_[-np.inf, us], np.r_[us, np.inf]
        slopes = np.r_[0.0, np.diff(avs) / np.diff(us), 0.0]
        points = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(us.tolist()),
                           st.sampled_from((0.5 * (us[:-1] + us[1:])).tolist()))
        pairs = data.draw(st.lists(st.tuples(points, points), min_size=1, max_size=8))
        lo, hi = np.array([min(p) for p in pairs]), np.array([max(p) for p in pairs])
        inside = (left[:, None] < hi) & (lo < right[:, None])
        top = np.where(inside, slopes[:, None], -np.inf).max(axis=0)
        ref = np.where(top > -np.inf, top, 0.0)
        assert np.array_equal(bits(fx.max_slope_on_intervals(model, lo, hi)), bits(ref))
        for l, h, r in zip(lo.tolist(), hi.tolist(), ref):
            got = fx.max_slope_on_intervals(model, l, h)
            assert type(got) is float and bits(got) == bits(r)


def reduce_check(march, j0, d):
    """_check's ordered, jump and window from ufunc reductions of the jumps d."""
    d_min = float(np.minimum.reduce(d))
    ordered = d_min >= 0.0
    jump = (max(float(np.maximum.reduce(d)), -d_min)
            if not ordered or march.plan.slope > 0.0 else None)
    nonzero = j0 + np.flatnonzero(d)
    return ordered, jump, (int(nonzero[0]), int(nonzero[-1])) if nonzero.size else None


class TestCheck:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "inside", "last"])
    def test_non_finite_face_in_the_window_refused(self, bad, where):
        march = pde._March(dirac_grid(), REP)
        step = march.stepper(0.45)
        for _ in range(5):
            step(math.inf)
        j0, j1 = march.window
        march.ext[{"first": j0 + 1, "inside": (j0 + j1) // 2, "last": j1}[where]] = bad
        e, d = march.ext[j0:j1 + 2], march.jumps[j0:j1 + 1]
        with pytest.raises(ms.MeasureError, match="non-finite"):
            march._check(j0, e[:-1], e[1:], d)

    @pytest.mark.parametrize("model", [ATTR, REP], ids=lambda m: m.kind)
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_signed_zero_jumps_read_as_the_reductions(self, model, data):
        # jumps -0.0 - 0.0 = -0.0 among +0.0 ones, with a dip of roundoff or without:
        # argmin/argmax may pick the other zero of a tie, which changes nothing here
        march = pde._March(dirac_grid(), model)
        e = np.array(sorted(data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
                                               min_size=3, max_size=12))))
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, e.size - 1))
            e[k] -= 1e-17   # a dip that the check admits
        d = np.empty(e.size - 1)
        march._check(3, e[:-1], e[1:], d)
        assert (march.ordered, march.jump, march.window) == reduce_check(march, 3, e[1:] - e[:-1])


def reference_dt(field, model, cfl):
    """stable_dt from whole-grid scans: the wave-speed bound on [min u, max u],
    plus max(0, max a') times the largest face jump, ghosts included."""
    u = field.u_faces
    lo, hi = float(u.min()), float(u.max())
    speed = fx.max_wave_speed(model, lo, hi)
    slope = max(0.0, fx.max_slope_of_a(model, lo, hi))
    if slope > 0.0:
        ext = np.concatenate(([0.0], u, [field.total_mass]))
        speed += slope * float(np.max(np.abs(np.diff(ext))))
    return cfl * field.dx / speed if speed > 0.0 else np.inf


def reference_run(initial, model, t_end, cfl, output_times, step_fn):
    """pde.run's loop, one whole-grid step_fn(u, dt) at a time."""
    targets = sorted(set(output_times) | {t_end})
    u, t, out = initial.u_faces, 0.0, []
    if targets[0] == 0.0:
        out.append((0.0, u))
        targets = targets[1:]
    for target in targets:
        while t < target - 1e-15 * target:
            field = ms.GridField(initial.x_min, initial.x_max, initial.n_cells, u)
            dt = min(reference_dt(field, model, cfl), target - t)
            u = step_fn(field, dt)
            t += dt
        out.append((target, u))
    return out


def flux_step(model):
    """The whole-grid Godunov step built from numerical_flux."""
    def step_fn(field, dt):
        u = field.u_faces
        ext = np.concatenate(([0.0], u, [field.total_mass]))
        F = pde.numerical_flux(model, ext[:-1], ext[1:])
        new = u - (dt / field.dx) * (F[1:] - F[:-1])
        new[0], new[-1] = u[0], u[-1]
        return new
    return step_fn


def public_step(model, cfl):
    def step_fn(field, dt):
        return pde.step(pde.SolverState(0.0, field, cfl), model, dt=dt).field.u_faces
    return step_fn


def atoms_grid(xs, ws):
    """Atoms at xs with masses ws / sum(ws) on 120 cells of [-3, 3]."""
    mu = ms.AtomicMeasure.from_pairs((x, w / sum(ws)) for x, w in zip(xs, ws))
    return ms.sample_to_grid(mu, -3.0, 3.0, 120)


def atoms(max_size=4):
    """1..max_size atoms (positions, weights) in (-3, 3), some near the grid ends."""
    return st.integers(1, max_size).flatmap(lambda k: st.tuples(
        st.lists(st.floats(-2.95, 2.95), min_size=k, max_size=k, unique=True),
        st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))


def checked_run(grid, model, t_end, cfl, output_times, paths):
    """pde.run, checking after every step that the window holds the first
    and last non-zero jump of the faces and ghosts (None when there is none).
    Counts in ``paths`` the steps whose new window ends were read next to the
    old ones ("read"), those where d was searched ("search"), and those whose
    stretch touched a grid end ("grid end")."""
    stepper = pde._March.stepper

    def checked(march, cfl):
        step = stepper(march, cfl)
        n = march.ext.size - 2

        def checked_step(limit):
            window = march.window
            dt = step(limit)
            d = np.diff(march.ext)
            nonzero = np.flatnonzero(d)
            assert march.window == ((nonzero[0], nonzero[-1]) if nonzero.size else None)
            if window is not None:
                j0, j1 = max(window[0] - 1, 0), min(window[1] + 1, n)
                paths["read" if (d[j0] or d[j0 + 1]) and (d[j1] or d[j1 - 1]) else "search"] += 1
                paths["grid end"] += j0 == 0 or j1 == n
            return dt
        return checked_step

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # waves at the grid ends
        mp.setattr(pde._March, "stepper", checked)
        return pde.run(grid, model, t_end, cfl, output_times)


class TestRunMatchesReference:
    @pytest.mark.parametrize("name", ["single_dirac_attractive.json", "two_atoms_attractive.json",
                                      "three_atoms_attractive.json", "single_dirac_repulsive.json"])
    def test_bundled_scenarios_bit_identical(self, name):
        scn = cli.load_scenario(cli.bundled_scenario(name))
        grid = cli.initial_grid(scn)
        snaps = pde.run(grid, scn.model, scn.t_end, cfl=scn.cfl, output_times=scn.output_times)
        ref = reference_run(grid, scn.model, scn.t_end, scn.cfl, scn.output_times,
                            flux_step(scn.model))
        assert [s.t for s in snaps] == [t for t, _ in ref]
        for s, (_, u) in zip(snaps, ref):
            assert np.array_equal(bits(s.field.u_faces), bits(u))

    @one_model_per_kind
    def test_step_is_run_one_step_at_a_time(self, model):
        grid = dirac_grid(n=120)
        snaps = pde.run(grid, model, 0.5, output_times=[0.25])
        for step_fn in (flux_step(model), public_step(model, 0.45)):
            ref = reference_run(grid, model, 0.5, 0.45, [0.25], step_fn)
            for s, (_, u) in zip(snaps, ref):
                assert np.array_equal(bits(s.field.u_faces), bits(u))

    @pytest.mark.parametrize("kind", fx.KINDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_runs_bit_identical_and_windows_exact(self, kind, data):
        model = data.draw(KIND_MODELS[kind])
        grid = atoms_grid(*data.draw(atoms()))
        # at cfl 1 faces can land exactly on a neighbour's value (a constant
        # a = 1 moves u by one cell per step), so old end jumps become zero
        cfl = data.draw(st.sampled_from([0.45, 1.0]))
        assume(pde._March(grid, model).step_budget(0.5, cfl, 2) < 4000)   # short runs
        paths = dict.fromkeys(("read", "search", "grid end"), 0)
        snaps = checked_run(grid, model, 0.5, cfl, [0.25], paths)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ref = reference_run(grid, model, 0.5, cfl, [0.25], flux_step(model))
        assert [s.t for s in snaps] == [t for t, _ in ref]
        for s, (_, u) in zip(snaps, ref):
            assert np.array_equal(bits(s.field.u_faces), bits(u))
        for path, count in paths.items():
            if count:
                event(f"window: {path}")

    @one_model_per_kind
    def test_unordered_steps_take_the_reference_flux(self, model, monkeypatch):
        # a face lowered by roundoff, which validate admits: the steps whose
        # faces are out of order call numerical_flux instead of the flux plan
        grid = atoms_grid([-0.5, 0.5], [1.0, 1.0])
        u = grid.u_faces.copy()
        u[60] -= 5e-15
        grid = ms.GridField(grid.x_min, grid.x_max, grid.n_cells, u).validate()
        calls = []
        numerical_flux = pde.numerical_flux
        monkeypatch.setattr(pde, "numerical_flux",
                            lambda *args: calls.append(1) or numerical_flux(*args))
        snaps = pde.run(grid, model, 0.5, output_times=[0.25])
        monkeypatch.undo()
        assert calls
        ref = reference_run(grid, model, 0.5, 0.45, [0.25], flux_step(model))
        assert [s.t for s in snaps] == [t for t, _ in ref]
        for s, (_, u) in zip(snaps, ref):
            assert np.array_equal(bits(s.field.u_faces), bits(u))

    def test_left_face_below_zero_keeps_the_flux_plan(self, monkeypatch):
        # validate admits |u_0| <= BOUNDARY_TOL; the ghosts repeat the end
        # faces, so u_0 < 0 leaves the faces ordered and no step takes the
        # reference flux, while the run still equals one with the ghost at 0
        grid = ms.sample_to_grid(ms.AtomicMeasure.from_pairs([(0.0, 1.0)]), -3.0, 3.0, 1600)
        u = grid.u_faces.copy()
        u[0] = -1e-13
        grid = ms.GridField(grid.x_min, grid.x_max, grid.n_cells, u).validate()
        monkeypatch.setattr(pde, "numerical_flux", lambda *args: pytest.fail("unordered step"))
        snaps = pde.run(grid, REP, 0.5)
        monkeypatch.undo()
        ref = reference_run(grid, REP, 0.5, 0.45, [], flux_step(REP))
        assert [s.t for s in snaps] == [t for t, _ in ref]
        assert np.array_equal(bits(snaps[-1].field.u_faces), bits(ref[-1][1]))

    def test_window_search_and_grid_ends_are_reached(self):
        # a(u) = 1 at cfl 1 moves u one cell per step exactly: the left end jump
        # of the window becomes zero every step, and the right one reaches the grid end
        paths = dict.fromkeys(("read", "search", "grid end"), 0)
        checked_run(atoms_grid([-0.5, 2.5], [1.0, 1.0]), fx.polynomial([1.0]), 1.0, 1.0, [],
                    paths)
        assert min(paths.values()) > 0, paths


class TestStepBudget:
    def test_exceeding_the_budget_raises(self, monkeypatch):
        monkeypatch.setattr(pde._March, "step_budget", lambda *args: 5)
        with pytest.raises(pde.SolverError, match="budget"):
            pde.run(dirac_grid(), ATTR, 1.0)

    def test_budget_covers_the_run(self):
        grid = dirac_grid(x_min=-1.0, x_max=3.0, n=400)
        snaps = pde.run(grid, REP, 2.0, cfl=0.9, output_times=[0.5, 1.0])
        budget = pde._March(grid, REP).step_budget(2.0, 0.9, 3)
        assert snaps[-1].step_count <= budget < 10 * snaps[-1].step_count

    @pytest.mark.parametrize("kind", fx.KINDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_budget_equals_the_wave_bound_formula(self, kind, data):
        model = data.draw(KIND_MODELS[kind])
        grid = atoms_grid(*data.draw(atoms()))
        cfl = data.draw(st.sampled_from([0.45, 1.0]))
        t_end = data.draw(st.floats(0.01, 100.0))
        n_targets = data.draw(st.integers(1, 5))
        # the CFL step of [u_0, M] widened by MONOTONE_TOL·M, whose largest jump is its width
        u = grid.u_faces
        tol = ms.MONOTONE_TOL * float(u[-1])
        lo, hi = float(u[0]) - tol, float(u[-1]) + tol
        speed = fx.max_wave_speed(model, lo, hi)
        slope = max(0.0, fx.max_slope_of_a(model, lo, hi))
        top = speed + slope * (hi - lo)
        dt_floor = cfl * grid.dx / top if top > 0.0 else np.inf
        ref = 2.0 * (n_targets + (t_end / dt_floor if dt_floor > 0.0 else np.inf)) + 8.0
        budget = pde._March(grid, model).step_budget(t_end, cfl, n_targets)
        assert bits(budget) == bits(ref)

    def test_budget_admits_roundoff_outside_the_range(self):
        # a rises steeply just below u = 0: faces that dip below 0 by roundoff
        # see a' = 15.25 there, which shortens dt; a budget taken on [0, M]
        # alone ran out after 29 steps
        model = fx.piecewise_linear([(-0.0625, 0.0), (0.0, 0.953125)])
        grid = atoms_grid([0.0], [1.0])
        snaps = pde.run(grid, model, 0.5, cfl=1.0)
        assert snaps[-1].step_count == 42

    def test_budget_above_max_steps_refused_before_stepping(self, monkeypatch):
        def no_step(limit):
            raise AssertionError("stepped")
        monkeypatch.setattr(pde._March, "stepper", lambda self, cfl: no_step)
        with pytest.raises(pde.SolverError, match="t_end"):
            pde.run(dirac_grid(), ATTR, 1e300)

    @pytest.mark.parametrize("t_end", [np.inf, np.nan])
    def test_non_finite_t_end_rejected(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            pde.run(dirac_grid(), ATTR, t_end)


# Models whose scheme is monotone under the CFL step: the corner-dissipation
# coefficient max(0, max a') is zero (a non-increasing) or constant (a
# linear).  A rising piecewise-linear a is left out: there the coefficient
# jumps as a face value crosses a node, and the scheme is not monotone.
CONTRACTIVE = st.one_of(
    st.just(ATTR), st.just(REP),
    polynomial_models(2),
    pwl_models(attractive=True),
)


@settings(max_examples=40, deadline=None)
@given(model=CONTRACTIVE,
       xs=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4, unique=True),
       ys=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4, unique=True))
def test_l1_contraction(model, xs, ys):
    # two initial data with the same mass, advanced with the same dt
    def grid(pos):
        mu = ms.AtomicMeasure.from_pairs((x, 1.0 / len(pos)) for x in pos)
        return ms.sample_to_grid(mu, -3.0, 3.0, 120)
    a, b = pde.SolverState(0.0, grid(xs)), pde.SolverState(0.0, grid(ys))
    dist = np.sum(np.abs(a.field.u_faces - b.field.u_faces))
    for _ in range(30):   # waves stay clear of the pinned boundaries
        dt = min(pde.stable_dt(a.field, model, 0.45), pde.stable_dt(b.field, model, 0.45), 1.0)
        a, b = pde.step(a, model, dt=dt), pde.step(b, model, dt=dt)
        new = np.sum(np.abs(a.field.u_faces - b.field.u_faces))
        assert new <= dist * (1 + 1e-12) + 1e-15
        dist = new


@settings(max_examples=40, deadline=None)
@given(model=CONTRACTIVE, data=atoms())
def test_snapshots_keep_mass_order_and_bounds(model, data):
    # property test 3: exact mass and left pin, monotone u within [0, M]
    grid = atoms_grid(*data)
    mass = grid.total_mass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # waves at the grid ends
        snaps = pde.run(grid, model, 1.0, output_times=[0.0, 0.25, 0.5, 0.75])
    for snap in snaps:
        u = snap.field.u_faces
        assert snap.field.total_mass == mass and u[0] == 0.0
        assert np.diff(u).min() >= -ms.MONOTONE_TOL
        assert u.min() >= -ms.MONOTONE_TOL and u.max() <= mass + ms.MONOTONE_TOL
