import math

import numpy as np
import pytest

import renewalsim as rs
from renewalsim import HybridMeasure
from renewalsim.errors import EntropyError

from oracles import stationary_measure


def ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


class TestRecession:
    def test_abs_direction_plus(self):
        assert rs.recession(np.abs, 1) == 1.0

    def test_sqrt1p_direction_minus(self):
        val = rs.recession(lambda u: np.sqrt(1.0 + u * u), -1)
        assert abs(val - 1.0) <= 1e-9

    def test_linear_is_exact(self):
        assert rs.recession(lambda u: 3.5 * u, 1) == 3.5
        assert rs.recession(lambda u: 3.5 * u, -1) == -3.5

    def test_superlinear_rejected(self):
        with pytest.raises(EntropyError, match="not admissible"):
            rs.recession(lambda u: u * u, 1)

    def test_one_homogeneity(self):
        for name in ("abs", "sqrt1p", "pospart", "id"):
            H = rs.builtin_integrand(name)
            for alpha in (0.5, 2.0, 7.0):
                for z in (1, -1):
                    scaled = rs.recession(lambda u: H.H(alpha * u), z)
                    assert abs(scaled - alpha * H.H_inf(z)) <= 1e-9


class TestIntegrandValidation:
    def test_builtin_recession_values(self):
        # piecewise-linear integrands converge exactly; sqrt1p only to the
        # recession loop's 1e-9 stopping tolerance
        for name in ("abs", "pospart", "id"):
            H = rs.builtin_integrand(name)
            want = {"abs": (1.0, 1.0), "pospart": (1.0, 0.0), "id": (1.0, -1.0)}[name]
            assert (H.H_inf_plus, H.H_inf_minus) == want
        H = rs.builtin_integrand("sqrt1p")
        assert H.H_inf_plus == pytest.approx(1.0, abs=1e-9)
        assert H.H_inf_minus == pytest.approx(1.0, abs=1e-9)

    def test_abs_shift_recession(self):
        H = rs.abs_shift(0.5)
        assert H.H_inf_plus == pytest.approx(1.0, abs=1e-9)
        assert H.H_inf_minus == pytest.approx(1.0, abs=1e-9)

    def test_nonconvex_rejected(self):
        for name, H in (("neg_abs", lambda u: -np.abs(u)), ("sin", np.sin)):
            with pytest.raises(EntropyError, match="not convex"):
                rs.make_integrand(name, H)

    def test_unknown_builtin(self):
        with pytest.raises(EntropyError):
            rs.builtin_integrand("nope")


class TestGreFunctional:
    def test_multiple_of_profile_gives_plain_value(self, const_spectral):
        _, sp = const_spectral
        H = rs.builtin_integrand("sqrt1p")
        for m in (0.5, 1.0, 3.0):
            mu = stationary_measure(sp, 40.0, 1e-4, mass=m)
            val = rs.gre_functional(mu, sp, H)
            assert abs(val - float(H.H(np.asarray(m, float)))) <= 1e-8

    def test_unit_atom_with_abs(self, const_spectral):
        _, sp = const_spectral
        mu = HybridMeasure.point_mass(0.7, 40.0, 0.01)
        val = rs.gre_functional(mu, sp, rs.builtin_integrand("abs"))
        assert val == pytest.approx(sp.phi(0.7), abs=1e-14)

    def test_zero_measure(self, const_spectral):
        _, sp = const_spectral
        assert rs.gre_functional(HybridMeasure.zero(40.0, 0.01), sp,
                                 rs.builtin_integrand("abs")) == 0.0

    def test_identity_reduces_to_dual_mass(self, const_spectral):
        _, sp = const_spectral
        rng = np.random.default_rng(2)
        H = rs.builtin_integrand("id")
        for _ in range(5):
            mu = HybridMeasure(0.05, rng.normal(size=81), ((1.7, rng.normal()),))
            lhs = rs.gre_functional(mu, sp, H)
            rhs = rs.integrate(mu, sp.phi)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)

    def test_overflow_guard(self):
        B = rs.BirthLaw.constant(20.0)
        sp = rs.solve_spectral(B)
        mu = HybridMeasure.from_function(lambda x: ones(x), 40.0, 0.1)
        with pytest.raises(EntropyError, match="overflow"):
            rs.gre_functional(mu, sp, rs.builtin_integrand("abs"))


def sweep_J(mu, B, sp, H):
    """The shipped J: the sweep's ``J_<H>`` at sample 0 of the trajectory from ``mu``."""
    traj = rs.birth_series(mu, B, sp, mu.h, mu.h)
    return rs.sample_diagnostics(traj, (0.0,), [H])[f"J_{H.name}"][0]


class TestDissipation:
    def test_zero_for_profile_multiples(self, const_spectral):
        B, sp = const_spectral
        H = rs.builtin_integrand("sqrt1p")
        for c in (0.2, 1.0, 4.0):
            mu = stationary_measure(sp, 40.0, 0.005, mass=c)
            assert abs(sweep_J(mu, B, sp, H)) <= 1e-8

    def test_unit_atom_hand_value(self, const_spectral):
        # independent hand evaluation: H(0) * 1 + 1 * 1 * 1 - H(1) = 2 - sqrt(2)
        B, sp = const_spectral
        H = rs.builtin_integrand("sqrt1p")
        for x0 in (0.3, 0.7, 2.0):
            val = sweep_J(HybridMeasure.point_mass(x0, 40.0, 0.005), B, sp, H)
            assert val == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-8)

    def test_zero_measure(self, const_spectral):
        B, sp = const_spectral
        val = sweep_J(HybridMeasure.zero(40.0, 0.01), B, sp, rs.builtin_integrand("abs"))
        assert val == 0.0

    def test_nonnegative_on_random_signed_measures(self, ind_spectral):
        B, sp = ind_spectral
        rng = np.random.default_rng(4)
        Hs = [rs.builtin_integrand(n) for n in ("abs", "sqrt1p", "pospart")]
        for _ in range(25):
            mu = HybridMeasure(0.01, rng.normal(size=1201),
                               ((0.31, rng.normal()), (0.87, rng.normal())))
            for H in Hs:
                assert sweep_J(mu, B, sp, H) >= -1e-10

    def test_overflow_guard(self):
        # the same density/N overflow that gre_functional rejects
        B = rs.BirthLaw.constant(20.0)
        sp = rs.solve_spectral(B)
        mu = HybridMeasure.from_function(lambda x: ones(x), 40.0, 0.05)
        with pytest.raises(EntropyError, match="overflow"):
            sweep_J(mu, B, sp, rs.builtin_integrand("abs"))


class TestJensenDefect:
    def psi(self, x):
        return np.full_like(np.asarray(x, dtype=float), 0.2)  # uniform on [0, 5]

    def test_constant_density_equality(self):
        f = rs.builtin_integrand("sqrt1p")
        for c in (0.3, 1.0, 7.0):
            mu = HybridMeasure.from_function(lambda x: c * ones(x), 5.0, 0.005)
            assert abs(rs.jensen_defect(mu, self.psi, f)) <= 1e-10

    def test_atom_contamination_strictly_positive(self):
        f = rs.builtin_integrand("sqrt1p")
        mu = HybridMeasure(0.005, np.ones(1001), ((2.5, 1.0),))
        got = rs.jensen_defect(mu, self.psi, f)
        want = math.sqrt(2.0) + 0.2 - math.sqrt(1.0 + 1.44)
        assert got == pytest.approx(want, abs=1e-10)
        assert got > 1e-3

    def test_linear_integrand_always_zero(self):
        f = rs.builtin_integrand("id")
        rng = np.random.default_rng(9)
        for _ in range(20):
            mu = HybridMeasure(0.005, rng.normal(size=1001),
                               ((float(rng.uniform(0.1, 4.9)), float(rng.normal())),))
            assert abs(rs.jensen_defect(mu, self.psi, f)) <= 1e-12

    def test_unnormalized_weight_rejected(self):
        mu = HybridMeasure.zero(5.0, 0.01)
        with pytest.raises(EntropyError, match="not normalized"):
            rs.jensen_defect(mu, ones, rs.builtin_integrand("abs"))


class TestBirthDominatesDual:
    def test_constant_family(self, const_spectral):
        B, sp = const_spectral
        holds, c = rs.verify_B_dominates_phi(B, sp)
        assert holds
        assert c == pytest.approx(1.0, rel=1e-9)

    def test_indicator_minimum_at_origin(self, ind_spectral):
        B, sp = ind_spectral
        holds, c = rs.verify_B_dominates_phi(B, sp)
        assert holds
        assert c == pytest.approx(2.0 / sp.phi0, rel=1e-9)

    def test_rate_gap_breaks_domination(self):
        B = rs.BirthLaw.table([0.0, 0.5, 0.75, 1.0, 2.0, 3.0],
                              [2.0, 0.0, 0.0, 2.0, 2.0, 0.0])
        sp = rs.solve_spectral(B)
        holds, c = rs.verify_B_dominates_phi(B, sp)
        assert not holds
        assert c == 0.0


class TestSemicontinuity:
    def test_oscillating_sequence_drops_strictly_in_the_limit(self, const_spectral):
        # triangle waves of shrinking period converge weak* to zero while the
        # functional stays far above the zero measure's value: the liminf
        # inequality is strict without area convergence
        _, sp = const_spectral
        H = rs.builtin_integrand("sqrt1p")
        limit = rs.gre_functional(HybridMeasure.zero(40.0, 0.01), sp, H)
        values = []
        for k in (50, 100, 200, 400):
            h = 40.0 / (2 * k)
            dens = np.tile([1.0, -1.0], k + 1)[: 2 * k + 1]
            values.append(rs.gre_functional(HybridMeasure(h, dens), sp, H))
        assert all(v >= limit - 1e-9 for v in values)
        assert min(values) > limit + 0.1  # genuinely strict drop

    def test_thin_bumps_converge_with_area_convergence(self, const_spectral):
        # uniform bumps k 1_[1, 1+1/k] dx converge weak* to the unit atom at 1
        # together with their area functionals, so the entropy converges too
        _, sp = const_spectral
        H = rs.builtin_integrand("sqrt1p")
        h = 1.0 / 64.0
        atom = HybridMeasure.point_mass(1.0, 40.0, h)
        limit = rs.gre_functional(atom, sp, H)
        gaps = []
        for k in (4, 8, 16, 32):
            n = int(round(40.0 / h)) + 1
            xs = np.arange(n) * h
            dens = np.where((xs >= 1.0) & (xs <= 1.0 + 1.0 / k), float(k), 0.0)
            dens[np.abs(xs - 1.0) < 1e-12] = k / 2.0
            dens[np.abs(xs - (1.0 + 1.0 / k)) < 1e-12] = k / 2.0
            gaps.append(abs(rs.gre_functional(HybridMeasure(h, dens), sp, H) - limit))
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05
