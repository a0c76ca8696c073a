import math

import numpy as np
import pytest

import renewalsim as rs
from renewalsim import HybridMeasure
from renewalsim.errors import MeasureError


def ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


class TestConstruction:
    def test_grid_geometry(self):
        mu = HybridMeasure(0.5, np.zeros(5))
        assert mu.x_max == 2.0
        assert mu.node_count == 5
        np.testing.assert_allclose(mu.nodes, [0, 0.5, 1.0, 1.5, 2.0])

    def test_atoms_merge_and_drop_zero(self):
        mu = HybridMeasure(0.5, np.zeros(5), ((1.0, 1.0), (1.0, 1.0), (0.5, 0.0)))
        assert mu.atoms == ((1.0, 2.0),)

    def test_atom_outside_domain_rejected(self):
        with pytest.raises(MeasureError):
            HybridMeasure(0.5, np.zeros(5), ((3.0, 1.0),))

    def test_nonnegative_flag_enforced(self):
        with pytest.raises(MeasureError):
            HybridMeasure(0.5, np.array([0.0, -1.0, 0.0]), nonnegative=True)
        with pytest.raises(MeasureError):
            HybridMeasure(0.5, np.zeros(3), ((0.5, -1.0),), nonnegative=True)

    def test_jump_sets_mean_node_value(self):
        mu = HybridMeasure(0.5, np.zeros(5), jumps=((1.0, 2.0, 4.0),))
        assert mu.density[2] == 3.0
        assert mu.jumps == ((1.0, 2.0, 4.0),)

    def test_density_immutable(self):
        mu = HybridMeasure(0.5, np.zeros(5))
        with pytest.raises(ValueError):
            mu.density[0] = 1.0


class TestTotalVariation:
    def test_single_atom(self):
        mu = HybridMeasure.point_mass(1.0, 4.0, 0.5, weight=2.0)
        assert rs.total_variation(mu) == 2.0

    def test_exponential_density(self):
        # trapezoid bias is h^2/12, so 1e-6 needs h = 1e-3
        mu = HybridMeasure.from_function(lambda x: np.exp(-x), 40.0, 0.001)
        assert abs(rs.total_variation(mu) - 1.0) <= 1e-6

    def test_zero_measure(self):
        assert rs.total_variation(HybridMeasure.zero(3.0, 0.1)) == 0.0

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dens = rng.normal(size=21)
            atoms = ((0.7, rng.normal()), (1.3, rng.normal()))
            mu = HybridMeasure(0.1, dens, atoms)
            a = rng.normal()
            scaled = rs.linear_combination(a, mu, 0.0, HybridMeasure.zero(2.0, 0.1))
            np.testing.assert_allclose(
                rs.total_variation(scaled), abs(a) * rs.total_variation(mu),
                rtol=1e-12, atol=1e-15,
            )


class TestIntegrate:
    def test_dirac_evaluation(self):
        mu = HybridMeasure.point_mass(0.7, 2.0, 0.1)
        assert rs.integrate(mu, lambda x: np.cos(x)) == pytest.approx(math.cos(0.7), abs=1e-15)

    def test_exponential_unit_mass(self):
        mu = HybridMeasure.from_function(lambda x: np.exp(-x), 40.0, 0.001)
        assert abs(rs.integrate(mu, ones) - 1.0) <= 1e-6

    def test_two_atoms_first_moment(self):
        mu = HybridMeasure(0.5, np.zeros(7), ((1.0, 1.0), (2.0, 1.0)))
        assert rs.integrate(mu, lambda x: np.asarray(x, float)) == 3.0

    def test_scalar_function_fallback(self):
        mu = HybridMeasure.point_mass(1.0, 2.0, 0.5)
        assert rs.integrate(mu, math.exp) == pytest.approx(math.e, rel=1e-12)


class TestWeightedVariation:
    def test_unit_weight_matches_total_variation(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            mu = HybridMeasure(0.2, rng.normal(size=16), ((1.1, rng.normal()),))
            assert rs.weighted_variation(mu, ones) == rs.total_variation(mu)

    def test_negative_atom_weighting(self):
        mu = HybridMeasure(0.5, np.zeros(5), ((1.5, -3.0),))
        w = lambda x: np.exp(-np.asarray(x, float))
        assert rs.weighted_variation(mu, w) == pytest.approx(3.0 * math.exp(-1.5), rel=1e-14)

    def test_sign_change_off_grid(self):
        # density x - 1 on [0, 2] with no node at the crossing
        h = 2.0 / 3.0
        mu = HybridMeasure(h, np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0]))
        assert rs.weighted_variation(mu, ones) == pytest.approx(1.0, abs=1e-15)

    def test_caller_breakpoint_splits_weight(self):
        # piecewise weight kink inside a panel: splitting changes the sum
        mu = HybridMeasure(1.0, np.array([1.0, 1.0]))
        w = lambda x: np.abs(np.asarray(x, float) - 0.5)
        exact = 0.25  # integral of |x - 1/2| over [0, 1]
        split = rs.weighted_variation(mu, w, breakpoints=(0.5,))
        assert split == pytest.approx(exact, abs=1e-15)

    def test_jump_node_uses_one_sided_values(self):
        # mean node value would lose mass where the sign flips across a jump
        mu = HybridMeasure(1.0, np.zeros(3), jumps=((1.0, -2.0, 2.0),))
        # |density| integrates the two one-sided triangles: 2*(2*1/2) = 2
        assert rs.weighted_variation(mu, ones) == pytest.approx(2.0, abs=1e-14)

    def test_rejects_negative_weight(self):
        mu = HybridMeasure.zero(1.0, 0.5)
        with pytest.raises(MeasureError):
            rs.weighted_variation(mu, lambda x: -ones(x))


class TestAngleBracket:
    def test_zero_measure_gives_length(self):
        assert rs.angle_bracket(HybridMeasure.zero(3.0, 0.1)) == pytest.approx(3.0, rel=1e-14)

    def test_atom_adds_absolute_weight(self):
        mu = HybridMeasure.point_mass(1.0, 3.0, 0.1, weight=-2.0)
        assert rs.angle_bracket(mu) == pytest.approx(5.0, rel=1e-14)

    def test_constant_density_closed_form(self):
        c, L = 1.7, 4.0
        mu = HybridMeasure.from_function(lambda x: c * ones(x), L, 0.01)
        assert rs.angle_bracket(mu) == pytest.approx(L * math.sqrt(1 + c * c), abs=1e-10)

    def test_lower_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            mu = HybridMeasure(0.1, rng.normal(size=31),
                               ((0.55, rng.normal()), (2.15, rng.normal())))
            ab = rs.angle_bracket(mu)
            atom_tv = sum(abs(w) for _, w in mu.atoms)
            assert ab >= max(mu.x_max, atom_tv) - 1e-12


class TestMollify:
    def test_atom_free_is_identity(self):
        mu = HybridMeasure.from_function(lambda x: np.exp(-x), 2.0, 0.1)
        assert rs.mollify(mu, 0.5) is mu

    def test_unit_bump_mass_and_support(self):
        mu = HybridMeasure.point_mass(1.0, 4.0, 0.005)
        out = rs.mollify(mu, 0.1)
        assert not out.atoms
        assert abs(rs.integrate(out, ones) - 1.0) <= 1e-12
        xs = out.nodes
        assert np.all(out.density[(xs < 0.895) | (xs > 1.105)] == 0.0)

    def test_reflection_preserves_mass(self):
        mu = HybridMeasure.point_mass(0.02, 4.0, 0.005, weight=0.7)
        out = rs.mollify(mu, 0.1)
        assert abs(rs.integrate(out, ones) - 0.7) <= 1e-12 * 0.7

    def test_angle_gap_shrinks_along_ladder(self):
        mu = HybridMeasure.point_mass(1.0, 6.0, 0.005)
        ref = rs.angle_bracket(mu)
        gaps = [abs(rs.angle_bracket(rs.mollify(mu, e)) - ref)
                for e in (0.4, 0.2, 0.1, 0.05)]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05 * ref

    def test_too_small_width_rejected(self):
        mu = HybridMeasure.point_mass(1.0, 4.0, 0.1)
        with pytest.raises(MeasureError):
            rs.mollify(mu, 0.05)

    def test_kernel_must_fit_domain(self):
        mu = HybridMeasure.point_mass(3.95, 4.0, 0.01)
        with pytest.raises(MeasureError):
            rs.mollify(mu, 0.2)


class TestShiftPushforward:
    def test_identity(self):
        mu = HybridMeasure.from_function(lambda x: np.exp(-x), 2.0, 0.1, atoms=((1.0, 2.0),))
        out = rs.shift_pushforward(mu, 0.0, 1.0)
        np.testing.assert_array_equal(out.density, mu.density)
        assert out.atoms == mu.atoms

    def test_atom_moves_and_scales(self):
        mu = HybridMeasure.point_mass(0.5, 2.0, 0.1)
        out = rs.shift_pushforward(mu, 2.0, math.exp(-2.0))
        assert out.atoms == ((2.5, math.exp(-2.0)),)
        assert out.x_max == pytest.approx(4.0)

    def test_density_shift_preserves_mass(self):
        mu = HybridMeasure.from_function(lambda x: np.exp(-x), 20.0, 0.01)
        out = rs.shift_pushforward(mu, 1.0, 1.0)
        assert abs(rs.integrate(out, ones) - rs.integrate(mu, ones)) <= 1e-12
        xs = out.nodes
        sel = xs > 1.0
        np.testing.assert_allclose(out.density[sel], np.exp(-(xs[sel] - 1.0)), atol=1e-12)
        # the onset at x = t is a recorded jump with one-sided limits
        assert out.jumps == ((1.0, 0.0, 1.0),)

    def test_misaligned_shift_resamples(self):
        mu = HybridMeasure.from_function(lambda x: x, 1.0, 0.25)
        out = rs.shift_pushforward(mu, 0.3, 1.0)
        assert out.density_at(0.55) == pytest.approx(0.25, abs=1e-12)


class TestLinearCombination:
    def test_self_cancellation(self):
        mu = HybridMeasure.from_function(lambda x: np.sin(x), 2.0, 0.1, atoms=((0.7, 2.0),))
        out = rs.linear_combination(1.0, mu, -1.0, mu)
        assert rs.total_variation(out) == 0.0
        assert out.atoms == ()

    def test_atom_merge(self):
        a = HybridMeasure.point_mass(1.0, 2.0, 0.1)
        out = rs.linear_combination(1.0, a, 1.0, a)
        assert out.atoms == ((1.0, 2.0),)

    def test_ac_and_atom_tv_add(self):
        ac = HybridMeasure.from_function(lambda x: np.exp(-x), 40.0, 0.001)
        atom = HybridMeasure.point_mass(2.0, 40.0, 0.001)
        out = rs.linear_combination(1.0, ac, -1.0, atom)
        assert abs(rs.total_variation(out) - 2.0) <= 1e-6

    def test_mixed_grids_refine(self):
        a = HybridMeasure.from_function(lambda x: ones(x), 1.0, 0.5)
        b = HybridMeasure.from_function(lambda x: ones(x), 2.0, 0.25)
        out = rs.linear_combination(1.0, a, 1.0, b)
        assert out.h == 0.25
        assert out.x_max == pytest.approx(2.0)
        assert out.density_at(0.5) == pytest.approx(2.0)
        assert out.density_at(1.5) == pytest.approx(1.0)


class TestSnapshotIO:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        mu = HybridMeasure(0.03125, rng.normal(size=33), ((0.4, rng.normal()), (0.9, 2.0)))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        rs.write_snapshot(mu, p1)
        again = rs.read_snapshot(p1)
        rs.write_snapshot(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(again.density, mu.density)
        assert again.atoms == mu.atoms

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n")
        with pytest.raises(MeasureError):
            rs.read_snapshot(p)

    def test_non_uniform_grid_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("kind,x,value\ndensity,0,1\ndensity,1,1\ndensity,3,1\n")
        with pytest.raises(MeasureError):
            rs.read_snapshot(p)


class TestAcCumulative:
    def test_matches_closed_form(self):
        mu = HybridMeasure.from_function(lambda x: np.asarray(x, float), 2.0, 0.001)
        ys = np.array([0.0, 0.3, 1.0, 1.7, 2.0])
        np.testing.assert_allclose(rs.measures.ac_cumulative(mu, ys), ys ** 2 / 2, atol=1e-9)

    def test_scalar_input_returns_float(self):
        mu = HybridMeasure.from_function(lambda x: ones(x), 1.0, 0.25)
        out = rs.measures.ac_cumulative(mu, 0.6)
        assert isinstance(out, float)
        assert out == pytest.approx(0.6)


class TestAcFirstMoment:
    def test_linear_density_exact(self):
        # the interpolant of x is x itself, so M1(y) = y^3 / 3 with no grid error
        mu = HybridMeasure.from_function(lambda x: np.asarray(x, float), 2.0, 0.01)
        ys = np.array([-0.5, 0.0, 0.013, 0.3, 1.0, 1.777, 2.0, 3.0])
        yc = np.clip(ys, 0.0, 2.0)
        np.testing.assert_allclose(rs.measures.ac_first_moment(mu, ys), yc ** 3 / 3,
                                   rtol=1e-13, atol=1e-15)

    def test_jump_record_uses_one_sided_values(self):
        # density 1 on [0, 1), 3 on (1, 2]: the node value 2 at x = 1 is the mean
        dens = np.where(np.arange(9) * 0.25 < 1.0, 1.0, 3.0)
        mu = HybridMeasure(0.25, dens, jumps=((1.0, 1.0, 3.0),))
        ys = np.array([0.5, 1.0, 1.5, 2.0])
        exact = np.where(ys <= 1.0, ys ** 2 / 2, 0.5 + 1.5 * (ys ** 2 - 1.0))
        np.testing.assert_allclose(rs.measures.ac_first_moment(mu, ys), exact,
                                   rtol=1e-14)

    def test_scalar_input_returns_float(self):
        mu = HybridMeasure.from_function(lambda x: ones(x), 1.0, 0.25)
        out = rs.measures.ac_first_moment(mu, 0.6)
        assert isinstance(out, float)
        assert out == pytest.approx(0.18)
