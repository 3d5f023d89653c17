import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dualflow import flux as fx
from dualflow import measure as ms
from dualflow import pde


def atoms(*pairs):
    return ms.AtomicMeasure.from_pairs(pairs)


class TestAtomicMeasure:
    def test_basic(self):
        mu = atoms((-1.0, 0.5), (1.0, 0.5))
        assert mu.n_atoms == 2
        assert mu.total_mass == 1.0
        np.testing.assert_allclose(mu.levels, [0.0, 0.5, 1.0])

    def test_from_pairs_sorts_and_coalesces(self):
        mu = ms.AtomicMeasure.from_pairs([(1.0, 0.25), (-1.0, 0.5), (1.0, 0.25)])
        np.testing.assert_allclose(mu.positions, [-1.0, 1.0])
        np.testing.assert_allclose(mu.masses, [0.5, 0.5])

    def test_rejects_bad_data(self):
        with pytest.raises(ms.MeasureError):
            ms.AtomicMeasure(np.array([0.0]), np.array([-1.0]))
        with pytest.raises(ms.MeasureError):
            ms.AtomicMeasure(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(ms.MeasureError):
            ms.AtomicMeasure(np.array([np.nan]), np.array([1.0]))

    def test_empty_allowed(self):
        mu = ms.AtomicMeasure(np.empty(0), np.empty(0))
        assert mu.n_atoms == 0
        assert mu.total_mass == 0.0

    def test_copies_the_callers_arrays(self):
        x, m = np.array([0.0, 1.0]), np.array([0.5, 0.5])
        mu = ms.AtomicMeasure(x, m)
        x[0], m[0] = -1.0, 2.0   # the caller's arrays stay writable
        assert mu.positions.tolist() == [0.0, 1.0] and mu.masses.tolist() == [0.5, 0.5]
        assert not mu.positions.flags.writeable and not mu.masses.flags.writeable


class TestGridField:
    def test_geometry(self):
        f = ms.GridField(-1.0, 1.0, 4, np.array([0.0, 0.0, 1.0, 1.0, 1.0]))
        assert f.dx == 0.5
        np.testing.assert_allclose(f.faces, [-1.0, -0.5, 0.0, 0.5, 1.0])
        np.testing.assert_allclose(f.centers, [-0.75, -0.25, 0.25, 0.75])
        np.testing.assert_allclose(f.cell_masses, [0.0, 1.0, 0.0, 0.0])
        assert f.total_mass == 1.0

    def test_copies_the_callers_array(self):
        u = np.array([0.0, 1.0])
        f = ms.GridField(0.0, 1.0, 1, u)
        u[0] = -1.0   # the caller's array stays writable
        assert f.u_faces.tolist() == [0.0, 1.0] and not f.u_faces.flags.writeable

    def test_validate(self):
        f = ms.GridField(-1.0, 1.0, 2, np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ms.MeasureError):
            f.validate()
        g = ms.GridField(-1.0, 1.0, 2, np.array([0.5, 0.7, 1.0]))
        with pytest.raises(ms.MeasureError):
            g.validate()


class TestSampleToGrid:
    def test_single_atom_worked_example(self):
        # delta at 0 with mass 1 on [-1, 1] with 4 cells
        f = ms.sample_to_grid(atoms((0.0, 1.0)), -1.0, 1.0, 4)
        np.testing.assert_allclose(f.u_faces, [0.0, 0.0, 1.0, 1.0, 1.0])

    def test_atom_between_faces(self):
        f = ms.sample_to_grid(atoms((0.1, 1.0)), -1.0, 1.0, 4)
        np.testing.assert_allclose(f.u_faces, [0.0, 0.0, 0.0, 1.0, 1.0])
        np.testing.assert_allclose(f.cell_masses, [0.0, 0.0, 1.0, 0.0])

    def test_atom_on_boundary_rejected(self):
        with pytest.raises(ms.MeasureError):
            ms.sample_to_grid(atoms((-1.0, 1.0)), -1.0, 1.0, 4)

    def test_uniform_density_exact_cdf(self):
        u = ms.UniformDensity(-0.5, 0.5, 2.0)
        f = ms.sample_to_grid(u, -1.0, 1.0, 8)
        np.testing.assert_allclose(
            f.u_faces, [0.0, 0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.0, 2.0])
        assert f.total_mass == 2.0

    def test_triangular_density_mass_and_peak(self):
        tri = ms.TriangularDensity(-1.0, 0.0, 1.0, 1.0)
        f = ms.sample_to_grid(tri, -2.0, 2.0, 400)
        assert f.total_mass == pytest.approx(1.0, abs=1e-14)
        # symmetric: median at the peak
        assert ms.quantile(f, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_support_touching_boundary_rejected(self):
        with pytest.raises(ms.MeasureError):
            ms.sample_to_grid(ms.UniformDensity(-1.0, 0.5, 1.0), -1.0, 1.0, 4)

    def test_check_inside_is_strict_on_both_ends(self):
        ms.check_inside(atoms((-0.5, 1.0), (0.99, 1.0)), -1.0, 1.0, 200)
        ms.check_inside(ms.TriangularDensity(-0.99, 0.0, 0.5, 1.0), -1.0, 1.0, 200)
        for source in (atoms((1.0, 1.0)), atoms((-2.0, 1.0), (0.0, 1.0)),
                       ms.UniformDensity(0.0, 1.0, 1.0), ms.TriangularDensity(-1.5, 0.0, 0.5, 1.0)):
            with pytest.raises(ms.MeasureError, match="boundary"):
                ms.check_inside(source, -1.0, 1.0, 200)

    @pytest.mark.parametrize("x_min, x_max, n_cells", [(-2.3, 1.0, 708), (-1e50, 1.0, 800)])
    def test_check_inside_refuses_support_past_a_last_face_below_x_max(self, x_min, x_max,
                                                                      n_cells):
        last = ms.face_at(x_min, x_max, n_cells, n_cells)
        assert last < x_max and last == ms.GridField(x_min, x_max, n_cells,
                                                     np.zeros(n_cells + 1)).faces[-1]
        x = math.nextafter(x_max, 0.0) if last > 0.25 else 0.25   # between last and x_max
        for source in (atoms((x_min / 2, 0.5), (x, 0.5)), ms.UniformDensity(x_min / 2, x, 1.0)):
            with pytest.raises(ms.MeasureError, match=f"last face {last!r}"):
                ms.check_inside(source, x_min, x_max, n_cells)
            with pytest.raises(ms.MeasureError, match="last face"):   # u would lose its mass
                ms.sample_to_grid(source, x_min, x_max, n_cells)


class TestExtractAtoms:
    def test_recovers_gridded_atoms(self):
        mu = atoms((-0.8, 0.3), (0.6, 0.7))
        f = ms.sample_to_grid(mu, -2.0, 2.0, 400)
        got = ms.extract_atoms(f)
        assert got.n_atoms == 2
        np.testing.assert_allclose(got.masses, mu.masses, atol=1e-12)
        np.testing.assert_allclose(got.positions, mu.positions, atol=f.dx)

    def test_ignores_spread_out_mass(self):
        f = ms.sample_to_grid(ms.UniformDensity(-0.9, 0.9, 1.0), -1.0, 1.0, 400)
        got = ms.extract_atoms(f)
        assert got.n_atoms == 0

    def test_tail_running_into_the_next_cluster_keeps_both(self):
        # the tail of the atom in cell 10 reaches the cells marked around
        # cell 25; each cell is counted in exactly one cluster
        masses = np.zeros(40)
        masses[[10, 25]] = 0.45
        masses[11:25] = 0.1 / 14
        f = ms.GridField(-1.0, 1.0, 40, np.concatenate(([0.0], np.cumsum(masses))))
        got = ms.extract_atoms(f)
        assert got.n_atoms == 2
        assert got.masses.sum() == pytest.approx(f.total_mass, abs=1e-12)

    def test_threshold_is_respected(self):
        # an atom below ATOM_MASS_SHARE of the total mass is not extracted,
        # one above it is
        for share, found in ((0.8, 1), (1.2, 2)):
            m = share * ms.ATOM_MASS_SHARE
            f = ms.sample_to_grid(atoms((-0.5, m), (0.5, 1.0 - m)), -1.0, 1.0, 100)
            got = ms.extract_atoms(f)
            assert got.n_atoms == found
            assert got.positions[-1] == pytest.approx(0.5, abs=f.dx)


def extract_atoms_reference(field):
    """extract_atoms as a scan over the cells, the reference of its array search."""
    total = field.total_mass
    masses = field.cell_masses
    n = masses.size
    w = min(ms.ATOM_WIDTH_CELLS, n)
    window = np.convolve(masses, np.ones(w), mode="valid")
    marked = np.zeros(n, dtype=bool)
    for j in np.nonzero(window >= ms.ATOM_MASS_SHARE * total)[0]:
        marked[j:j + w] = True
    tail_floor = 1e-9 * total
    centers = field.centers
    xs, mass = [], []
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
        xs.append(float(np.sum(masses[cluster] * centers[cluster]) / m))
        mass.append(m)
        j = end = k + 1
    if not xs:
        return ms.AtomicMeasure(np.empty(0), np.empty(0))
    return ms.AtomicMeasure.from_pairs(zip(xs, mass))


def assert_same_atoms(got, ref):
    for a, b in ((got.positions, ref.positions), (got.masses, ref.masses)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestExtractAtomsEqualsTheScan:
    @pytest.mark.parametrize("seed", range(4))
    def test_on_pde_snapshots(self, seed):
        # seeded atoms merging under the attractive piecewise-linear a
        rng = np.random.default_rng(seed)
        mu = ms.AtomicMeasure(np.sort(rng.uniform(-1.5, 1.5, 12)), np.full(12, 1.0 / 12))
        model = fx.piecewise_linear([(0.0, 1.0), (0.3, 0.2), (0.7, -0.1), (1.0, -1.0)])
        for snap in pde.run(ms.sample_to_grid(mu, -3.0, 3.0, 400), model, 1.0,
                            output_times=[0.0, 0.1, 0.3, 0.6]):
            assert_same_atoms(ms.extract_atoms(snap.field), extract_atoms_reference(snap.field))

    @settings(max_examples=300, deadline=None)
    @given(masses=st.lists(st.sampled_from([0.0, 1e-10]) | st.floats(0.0, 2e-9)
                           | st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_on_drawn_cell_masses(self, masses):
        # zero, tail-floor-sized and heavy cells, so that runs and tails meet
        assume(sum(masses) > 0.0)
        f = ms.GridField(-1.0, 1.0, len(masses), np.concatenate(([0.0], np.cumsum(masses))))
        assert_same_atoms(ms.extract_atoms(f), extract_atoms_reference(f))


@settings(max_examples=200, deadline=None)
@given(x=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5]) | st.floats(-2.0, 2.0)),
       y=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5]) | st.floats(-2.0, 2.0)))
def test_union_equals_union1d(x, y):
    # repeats and zeros of both signs: which of equal values is kept shows in the bits
    x, y = np.sort(x), np.sort(y)
    assert np.array_equal(ms._union(x, y).view(np.int64), np.union1d(x, y).view(np.int64))


class TestWasserstein:
    def test_worked_example(self):
        mu = atoms((-0.25, 0.5), (0.25, 0.5))
        nu = atoms((0.0, 1.0))
        assert ms.wasserstein1(mu, nu) == pytest.approx(0.25, abs=1e-15)

    def test_translation_distance(self):
        mu = atoms((0.0, 1.0))
        nu = atoms((0.7, 1.0))
        assert ms.wasserstein1(mu, nu) == pytest.approx(0.7, abs=1e-15)

    def test_symmetry_and_identity(self):
        mu = atoms((-1.0, 0.4), (0.5, 0.6))
        nu = atoms((0.2, 1.0))
        assert ms.wasserstein1(mu, nu) == pytest.approx(
            ms.wasserstein1(nu, mu), abs=1e-15)
        assert ms.wasserstein1(mu, mu) == 0.0

    def test_grid_vs_atoms(self):
        mu = atoms((0.0, 1.0))
        f = ms.sample_to_grid(mu, -1.0, 1.0, 4)
        # the grid primitive ramps linearly across the one loaded cell, so
        # the distance to the atom is half that cell's width
        assert ms.wasserstein1(f, mu) == pytest.approx(f.dx / 2, abs=1e-15)

    def test_crossing_sign_handled_exactly(self):
        # U_mu - U_nu changes sign inside an interval; compare to quadrature
        mu = atoms((-1.0, 1.0))
        nu = ms.sample_to_grid(ms.UniformDensity(-2.0, 1.0, 1.0), -3.0, 3.0, 6)
        xs = np.linspace(-3.0, 3.0, 2_000_001)
        umu = np.where(xs >= -1.0, 1.0, 0.0)
        unu = np.clip((xs + 2.0) / 3.0, 0.0, 1.0)
        ref = np.trapezoid(np.abs(umu - unu), xs)
        assert ms.wasserstein1(mu, nu) == pytest.approx(ref, abs=1e-5)

    def test_mass_mismatch_rejected(self):
        with pytest.raises(ms.MeasureError):
            ms.wasserstein1(atoms((0.0, 1.0)), atoms((0.0, 2.0)))


class TestQuantile:
    def test_worked_example(self):
        mu = atoms((-1.0, 0.5), (1.0, 0.5))
        assert ms.quantile(mu, 0.75) == 1.0
        assert ms.quantile(mu, 0.5) == -1.0  # inf{x : U(x) >= 1/2}
        assert ms.quantile(mu, 0.25) == -1.0

    def test_grid_interpolation(self):
        f = ms.sample_to_grid(ms.UniformDensity(-0.5, 0.5, 1.0), -1.0, 1.0, 8)
        assert ms.quantile(f, 0.5) == pytest.approx(0.0, abs=1e-14)
        assert ms.quantile(f, 0.25) == pytest.approx(-0.25, abs=1e-14)

    def test_out_of_range_rejected(self):
        mu = atoms((0.0, 1.0))
        with pytest.raises(ms.MeasureError):
            ms.quantile(mu, 0.0)
        with pytest.raises(ms.MeasureError):
            ms.quantile(mu, 1.5)

    def test_levels_below_the_total_reach_the_last_atom(self):
        """The total is the last of the levels quantile searches; numpy's pairwise sum
        of these masses ends an ulp higher, and a level between the two once indexed
        past the last atom."""
        mu = ms.AtomicMeasure(range(8), [
            0.6008642961850954, 0.07585185974836328, 0.3503207777371492, 0.33361493409693543,
            0.03797709933299598, 0.8574708797256025, 0.03500591969383493, 0.0027354607912608575])
        top = mu.levels[-1]
        assert mu.total_mass == top < 2.2938412273112374 < np.sum(mu.masses)
        assert ms.quantile(mu, math.nextafter(top, 0.0)) == 7.0
        for q in (top, 2.2938412273112374):
            with pytest.raises(ms.MeasureError):
                ms.quantile(mu, q)


def _quantile_reference(obj, q):
    """One level at a time, by the formula quantile keeps for every level."""
    if isinstance(obj, ms.AtomicMeasure):
        return float(obj.positions[int(np.searchsorted(obj.levels, q, side="left")) - 1])
    u = obj.u_faces
    i = int(np.searchsorted(u, q, side="left"))
    if i == 0 or u[i] == q or u[i] == u[i - 1]:
        return float(obj.faces[i])
    return float(obj.faces[i - 1] + obj.dx * (q - u[i - 1]) / (u[i] - u[i - 1]))


# cell masses with flat stretches (zeros) between them, on a random extent
GRIDS = st.builds(
    lambda masses, x_min, width: ms.GridField(x_min, x_min + width, len(masses),
                                              np.concatenate(([0.0], np.cumsum(masses)))),
    st.lists(st.sampled_from([0.0]) | st.floats(1e-3, 1.0), min_size=1, max_size=30)
    .filter(any), st.floats(-5.0, 5.0), st.floats(0.5, 10.0))
ATOMS = st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(1e-3, 1.0)),
                 min_size=1, max_size=10).map(ms.AtomicMeasure.from_pairs)


class TestArrayQuantile:
    @settings(max_examples=100, deadline=None)
    @given(obj=GRIDS | ATOMS, shares=st.lists(st.floats(0.0, 1.0), max_size=10),
           seed=st.integers(0, 2**32 - 1))
    def test_array_equals_each_level_bit_for_bit(self, obj, shares, seed):
        total = obj.total_mass
        # drawn levels, seeded ones whose digits are not as round, and the
        # face values or atom boundaries of the CDF, which include every flat
        # stretch of a grid's u
        steps = obj.levels if isinstance(obj, ms.AtomicMeasure) else obj.u_faces
        seeded = np.random.default_rng(seed).uniform(0.0, 1.0, 10)
        levels = np.concatenate((total * np.array(shares), total * seeded, steps))
        levels = levels[(0.0 < levels) & (levels < total)]
        got = ms.quantile(obj, levels)
        each = [ms.quantile(obj, q) for q in levels]
        ref = [_quantile_reference(obj, q) for q in levels]
        assert got.shape == levels.shape
        assert all(type(x) is float for x in each)
        assert np.array_equal(got.view(np.int64), np.array(each).view(np.int64))
        assert np.array_equal(got.view(np.int64), np.array(ref).view(np.int64))

    def test_face_and_flat_levels(self):
        # u = 0, 0.25, 0.25, 1 on faces -1, 0, 1, 2: 0.25 is a face value
        # and the level of the flat stretch [0, 1]
        f = ms.GridField(-1.0, 2.0, 3, np.array([0.0, 0.25, 0.25, 1.0]))
        np.testing.assert_array_equal(ms.quantile(f, np.array([0.125, 0.25, 0.625])),
                                      [-0.5, 0.0, 1.5])

    def test_level_below_the_first_face_value(self):
        # u[0] = 1e-13 > 0: a lower level lies at the first face, not beyond the last
        f = ms.GridField(-1.0, 1.0, 4, np.array([1e-13, 0.25, 0.5, 0.75, 1.0])).validate()
        assert ms.quantile(f, 5e-14) == -1.0
        np.testing.assert_array_equal(ms.quantile(f, np.array([5e-14, 0.25, 0.5])),
                                      [-1.0, -0.5, 0.0])

    def test_scalar_level_gives_a_float(self):
        f = ms.sample_to_grid(ms.UniformDensity(-0.5, 0.5, 1.0), -1.0, 1.0, 8)
        for obj in (f, atoms((0.0, 1.0))):
            assert type(ms.quantile(obj, 0.5)) is float
            assert type(ms.quantile(obj, np.float64(0.5))) is float

    @pytest.mark.parametrize("bad", [0.0, 1.5, -0.25, float("nan")])
    def test_level_outside_named(self, bad):
        for obj in (atoms((0.0, 1.0)), ms.sample_to_grid(atoms((0.0, 1.0)), -1.0, 1.0, 4)):
            with pytest.raises(ms.MeasureError, match=f"level {bad} outside"):
                ms.quantile(obj, np.array([0.25, bad, 0.75]))
