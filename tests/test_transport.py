import glob
import hashlib
import math
import os

import numpy as np
import pytest

import renewalsim as rs
from renewalsim import HybridMeasure
from renewalsim.errors import TransportError
from renewalsim.measures import ac_cumulative
from renewalsim.scenarios import load_scenario
from renewalsim.transport import _LOCAL

from oracles import (direct_births, linear_combination, reference_birth_series, reference_evolve,
                     stationary_measure, weighted_variation)

SCENARIOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                          "scenarios", "*.ini")))


def ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def assert_matches_reference(traj):
    ref = reference_birth_series(traj.initial, traj.birth_law, traj.spectral,
                                 traj.dt, traj.horizon)
    err = np.abs(traj.births - ref).max()
    assert err <= 1e-13 * np.abs(ref).max(), f"max deviation {err:.3e}"


def assert_matches_direct(traj):
    ref = direct_births(traj)
    err = np.abs(traj.births - ref).max()
    assert err <= 1e-12 * np.abs(ref).max(), f"max deviation {err:.3e}"


class TestBirthSeries:
    def test_zero_data_zero_births(self, const_spectral):
        B, sp = const_spectral
        traj = rs.birth_series(HybridMeasure.zero(40.0, 0.01), B, sp, 0.01, 5.0)
        assert np.all(traj.births == 0.0)

    def test_dirac_constant_rate_is_flat(self, dirac_benchmark):
        traj, _ = dirac_benchmark
        assert np.abs(traj.births - 1.0).max() <= 1e-6

    @pytest.mark.parametrize("atoms", [((0.4, 0.3),), ((0.0, 0.3),)],
                             ids=["interior", "age0"])
    def test_initial_birth_matches_measure_integral(self, ind_spectral, atoms):
        # an atom at age 0 lies on the lower edge of the support [0, 1]
        B, sp = ind_spectral
        n0 = HybridMeasure.from_function(lambda x: np.exp(-x), 12.0, 0.001,
                                         atoms=atoms, nonnegative=True)
        traj = rs.birth_series(n0, B, sp, 0.001, 1.0)
        assert traj.births[0] == pytest.approx(rs.integrate(n0, B.quad_values), abs=1e-7)

    def test_stationary_births_constant(self, const_spectral):
        # the sampled profile's mass is 1 + h^2/12, and b tracks it exactly,
        # so matching the continuum value to 1e-6 needs h below ~3e-3
        B, sp = const_spectral
        n0 = stationary_measure(sp, 40.0, 0.002)
        traj = rs.birth_series(n0, B, sp, 0.002, 5.0)
        assert np.abs(traj.births - sp.lambda0).max() <= 1e-6

    def test_time_step_above_grid_rejected(self, const_spectral):
        B, sp = const_spectral
        with pytest.raises(TransportError, match="exceeds grid spacing"):
            rs.birth_series(HybridMeasure.zero(4.0, 0.01), B, sp, 0.02, 1.0)

    def test_noninteger_grid_ratio_rejected(self, const_spectral):
        B, sp = const_spectral
        with pytest.raises(TransportError, match="integer multiple"):
            rs.birth_series(HybridMeasure.zero(4.0, 0.01), B, sp, 0.003, 0.3)
        for T in (math.inf, math.nan):
            with pytest.raises(TransportError, match="horizon must be an integer multiple"):
                rs.birth_series(HybridMeasure.zero(4.0, 0.01), B, sp, 0.01, T)

    def test_truncation_certificate_enforced(self, ind_spectral):
        B, sp = ind_spectral
        with pytest.raises(TransportError, match="truncation"):
            rs.birth_series(HybridMeasure.zero(4.0, 0.01), B, sp, 0.01, 3.5)

    def test_implicit_weight_guard(self):
        B = rs.BirthLaw.constant(3000.0)
        sp = rs.solve_spectral(B)
        n0 = HybridMeasure.zero(0.04, 0.001)
        with pytest.raises(TransportError, match="implicit boundary weight"):
            rs.birth_series(n0, B, sp, 0.001, 0.01)


class TestDirectOracle:
    """The Toeplitz/FFT step against the direct segment-split sum."""

    @staticmethod
    def density(x):
        return np.exp(-x) * (1.0 + 0.5 * np.sin(5.0 * x))

    def indicator_run(self, ind_spectral, atoms, T, dt=0.001):
        B, sp = ind_spectral
        n0 = HybridMeasure.from_function(self.density, 12.0, dt, atoms=atoms,
                                         nonnegative=True)
        return rs.birth_series(n0, B, sp, dt, T)

    def test_density_only_constant_law(self, const_spectral):
        B, sp = const_spectral
        n0 = HybridMeasure.from_function(self.density, 40.0, 0.002, nonnegative=True)
        traj = rs.birth_series(n0, B, sp, 0.002, 4.0)
        assert traj.birth_jumps == ()
        assert_matches_direct(traj)

    def test_density_only_indicator_law(self, ind_spectral):
        traj = self.indicator_run(ind_spectral, (), 2.0)
        assert traj.birth_jumps == ()
        assert_matches_direct(traj)

    def test_three_atoms(self, ind_spectral):
        traj = self.indicator_run(ind_spectral, ((0.2, 0.3), (0.5, 0.2), (0.9, 0.1)), 2.0)
        assert [j for j, _ in traj.birth_jumps] == [100, 500, 800]
        assert_matches_direct(traj)

    @pytest.mark.parametrize("gap", [1, 2])
    def test_jumps_steps_apart(self, ind_spectral, gap):
        traj = self.indicator_run(ind_spectral, ((0.5, 0.3), (0.5 - gap * 0.001, 0.2)), 1.0)
        assert [j for j, _ in traj.birth_jumps] == [500, 500 + gap]
        assert_matches_direct(traj)

    def test_jumps_at_first_steps_and_horizon(self, ind_spectral):
        T, dt = 0.8, 0.001
        atoms = ((1.0 - dt, 0.3), (1.0 - 2 * dt, 0.2), (1.0 - T, 0.1))
        traj = self.indicator_run(ind_spectral, atoms, T, dt)
        assert [j for j, _ in traj.birth_jumps] == [1, 2, 800]
        assert_matches_direct(traj)

    @pytest.mark.parametrize("B", [rs.BirthLaw.constant(1.0),
                                   rs.BirthLaw.indicator(2.0, 0.0, 1.0),
                                   rs.BirthLaw.table([0.0, 0.4, 1.0, 1.3],
                                                     [1.0, 3.0, 2.0, 1.5])],
                             ids=["constant", "indicator", "table"])
    def test_first_steps_are_trapezoid_and_simpson(self, B):
        # from the breakpoint t = 0 the window loop applies the trapezoid
        # rule at step 1 and Simpson's rule at step 2
        dt = 0.001
        n0 = HybridMeasure.from_function(self.density, 12.0, dt,
                                         atoms=((0.3, 0.4), (0.55, 0.3)), nonnegative=True)
        sp = rs.solve_spectral(B)
        traj = rs.birth_series(n0, B, sp, dt, 0.8)
        assert all(j > 2 for j, _ in traj.birth_jumps)
        times = traj.times[:3]
        kv = B.quad_values(times) * np.exp(-sp.lambda0 * times)
        g = B.birth_forcing(n0, times) * np.exp(-sp.lambda0 * times)
        b0, b1, b2 = traj.births[:3]
        b1_ref = (g[1] + 0.5 * dt * kv[1] * b0) / (1.0 - 0.5 * dt * kv[0])
        b2_ref = ((g[2] + dt / 3.0 * (4.0 * kv[1] * b1 + kv[2] * b0))
                  / (1.0 - dt / 3.0 * kv[0]))
        assert abs(b1 - b1_ref) <= 1e-14 * abs(b1_ref)
        assert abs(b2 - b2_ref) <= 1e-14 * abs(b2_ref)

    def test_coincident_jumps_merge(self):
        # one atom enters [0.25, 1] as the other leaves it
        B = rs.BirthLaw.indicator(2.0, 0.25, 1.0)
        n0 = HybridMeasure.from_function(self.density, 12.0, 0.001,
                                         atoms=((0.1, 0.3), (0.85, 0.2)),
                                         nonnegative=True)
        traj = rs.birth_series(n0, B, rs.solve_spectral(B), 0.001, 1.0)
        assert [j for j, _ in traj.birth_jumps] == [150, 900]
        assert_matches_direct(traj)

    def test_signed_datum(self, ind_spectral):
        B, sp = ind_spectral
        n0 = HybridMeasure.from_function(lambda x: np.sin(6.0 * x) * np.exp(-x), 12.0,
                                         0.001, atoms=((0.3, -1.5), (0.6, 0.2)))
        traj = rs.birth_series(n0, B, sp, 0.001, 1.5)
        assert traj.births.min() < 0.0
        assert_matches_direct(traj)

    def test_table_law_with_support_end_jump(self):
        # the rate drops from 1.5 to 0 at 1.3; the atom crosses it at t = 0.75
        B = rs.BirthLaw.table([0.0, 0.4, 1.0, 1.3], [1.0, 3.0, 2.0, 1.5])
        n0 = HybridMeasure.from_function(self.density, 12.0, 0.001,
                                         atoms=((0.55, 0.3),), nonnegative=True)
        traj = rs.birth_series(n0, B, rs.solve_spectral(B), 0.001, 1.5)
        assert [j for j, _ in traj.birth_jumps] == [750]
        assert_matches_direct(traj)

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_horizon_at_fft_block_boundary(self, ind_spectral, offset):
        K = 16 * _LOCAL + offset
        traj = self.indicator_run(ind_spectral, ((0.4, 0.3),), K * 0.001)
        assert traj.births.size == K + 1
        assert_matches_direct(traj)

    def test_long_horizon_dirac_stays_flat(self, const_spectral):
        # K = 80000: roundoff in the FFT history must not accumulate
        B, sp = const_spectral
        n0 = HybridMeasure.point_mass(0.5, 40.0, 0.005)
        traj = rs.birth_series(n0, B, sp, 0.0005, 40.0)
        assert traj.births.size == 80001
        assert np.abs(traj.births - 1.0).max() <= 1e-6


class TestRetiredJumps:
    """A trace jump leaves the window loop once the kernel no longer reaches it.

    Every case runs to at least three times the law's support, and its
    atoms cross a rate discontinuity, so trace jumps retire (``k - j >=
    live``) while the trace goes on; the trace matches ``direct_births``,
    which sums every jump's terms at every step, to 1e-12 max(1, |b|).
    """

    dt = 0.001

    @staticmethod
    def live(traj):
        return int(np.count_nonzero(traj.times <= traj.birth_law.live_end))

    def run(self, B, atoms, T, x_max=8.0):
        n0 = HybridMeasure.from_function(TestDirectOracle.density, x_max, self.dt,
                                         atoms=atoms, nonnegative=True)
        traj = rs.birth_series(n0, B, rs.solve_spectral(B), self.dt, T)
        if B.support_end is not None:
            assert traj.horizon >= 3.0 * B.support_end
        return traj

    @staticmethod
    def assert_matches_direct(traj):
        ref = direct_births(traj)
        err = np.abs(traj.births - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-12, f"max deviation {err.max():.3e}"

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_jump_live_steps_before_a_window(self, ind_spectral, offset):
        # live = 1001, so the jump at j = 279 is exactly live steps before
        # the window at 5 _LOCAL = 1280 and retires when it opens
        j = 5 * _LOCAL - 1001 + offset
        traj = self.run(ind_spectral[0], ((1.0 - j * self.dt, 0.3),), 3.0)
        assert self.live(traj) == 1001
        assert [jj for jj, _ in traj.birth_jumps] == [j]
        assert (j + self.live(traj) - offset) % _LOCAL == 0
        self.assert_matches_direct(traj)

    @pytest.mark.parametrize("end", [1.023, 1.024, 1.025])
    def test_window_opens_near_the_last_live_lag(self, end):
        # live = 1024, 1025 or 1026: the window at 4 _LOCAL = 1024 opens on
        # the last lag where kv is nonzero, or one before or after it
        B = rs.BirthLaw.indicator(2.0, 0.0, end)
        traj = self.run(B, ((0.5, 0.3),), 3.2)
        assert self.live(traj) - 1 == round(end / self.dt)
        self.assert_matches_direct(traj)

    def test_several_jumps_retire_in_one_window(self):
        # rate 1 on [0, 0.4), 3 then 2 on [0.4, 1]: each atom below 0.4 crosses
        # both jumps; 50, 100 and 150 all retire when the window at 1280 opens
        B = rs.BirthLaw.table((0.0, 0.4, 0.4, 1.0), (1.0, 1.0, 3.0, 2.0))
        traj = self.run(B, ((0.35, 0.3), (0.3, 0.2), (0.25, 0.4)), 3.0)
        jumps = [j for j, _ in traj.birth_jumps]
        assert jumps == [50, 100, 150, 650, 700, 750]
        live = self.live(traj)
        assert sum(4 * _LOCAL < j + live <= 5 * _LOCAL for j in jumps) == 3
        self.assert_matches_direct(traj)

    def test_clamped_trace(self):
        # the trace vanishes over more than one window after its jump at
        # step 100 retires, and rounding leaves values the guard clamps
        B = rs.BirthLaw.indicator(4.0, 0.5, 1.0)
        n0 = HybridMeasure.point_mass(0.9, 4.0, self.dt)
        traj = rs.birth_series(n0, B, rs.solve_spectral(B), self.dt, 3.0)
        assert [j for j, _ in traj.birth_jumps] == [100]
        assert traj.clamp_count > 0 and 100 + self.live(traj) < traj.births.size
        self.assert_matches_direct(traj)

    @pytest.mark.parametrize("seed", range(4))
    def test_generated_table_laws_with_an_interior_jump(self, seed):
        rng = np.random.default_rng(seed)
        end = float(rng.choice([0.5, 0.75, 1.0]))
        mid = round(rng.uniform(0.2, 0.8) * end / self.dt) * self.dt
        low = float(rng.uniform(0.2, 1.5))
        high = (2.0 - low * mid) / (end - mid) * float(rng.uniform(1.0, 2.0))
        B = rs.BirthLaw.table((0.0, mid, mid, end), (low, low, high, high))
        nodes = rng.choice(np.arange(1, round(mid / self.dt)), size=3, replace=False)
        atoms = tuple((float(i * self.dt), float(rng.uniform(0.1, 0.5))) for i in nodes)
        T = round(3.0 * end / self.dt + rng.integers(0, _LOCAL)) * self.dt
        traj = self.run(B, atoms, T, x_max=5.0)
        # every atom crosses both rate jumps, and every trace jump retires
        assert len(traj.birth_jumps) == 6
        assert max(j for j, _ in traj.birth_jumps) + self.live(traj) < traj.births.size
        self.assert_matches_direct(traj)

    def test_constant_law_retires_nothing(self, const_spectral):
        # no support end: live is the whole trace, and the law has no jump
        traj = self.run(const_spectral[0], ((0.3, 0.3), (0.7, 0.2)), 3.0)
        assert self.live(traj) == traj.births.size and traj.birth_jumps == ()
        self.assert_matches_direct(traj)


class TestWindowSolve:
    """The blocked triangular solves against the per-step reference loop."""

    dt = 0.001

    def run(self, B, sp, atoms, T):
        n0 = HybridMeasure.from_function(TestDirectOracle.density, 12.0, self.dt,
                                         atoms=atoms, nonnegative=True)
        return rs.birth_series(n0, B, sp, self.dt, T)

    @pytest.mark.parametrize("offset", [0, 1, 2, _LOCAL - 1])
    def test_jump_at_window_offset(self, ind_spectral, offset):
        # an atom at 1 - j dt leaves the support [0, 1] at step j
        j = 2 * _LOCAL + offset
        traj = self.run(*ind_spectral, ((1.0 - j * self.dt, 0.3),), (j + 300) * self.dt)
        assert [jj for jj, _ in traj.birth_jumps] == [j]
        assert_matches_reference(traj)

    @pytest.mark.parametrize("gap", [1, 2])
    def test_jumps_across_window_edge(self, ind_spectral, gap):
        j = 2 * _LOCAL - 1
        atoms = ((1.0 - j * self.dt, 0.3), (1.0 - (j + gap) * self.dt, 0.2))
        traj = self.run(*ind_spectral, atoms, (j + 300) * self.dt)
        assert [jj for jj, _ in traj.birth_jumps] == [j, j + gap]
        assert_matches_reference(traj)

    def test_horizon_below_one_window(self, ind_spectral):
        K = _LOCAL - 10
        traj = self.run(*ind_spectral, ((0.95, 0.3),), K * self.dt)
        assert traj.births.size == K + 1 and len(traj.birth_jumps) == 1
        assert_matches_reference(traj)

    def test_signed_datum(self, ind_spectral):
        B, sp = ind_spectral
        n0 = HybridMeasure.from_function(lambda x: np.sin(6.0 * x) * np.exp(-x), 12.0,
                                         self.dt, atoms=((0.3, -1.5), (0.6, 0.2)))
        traj = rs.birth_series(n0, B, sp, self.dt, 1.5)
        assert traj.births.min() < 0.0 and traj.clamp_count == 0
        assert_matches_reference(traj)

    def test_clamps_resolve_the_rest_of_the_window(self):
        # the atom leaves no offspring age in [0.1, 0.5): the trace vanishes
        # over more than one window, and FFT rounding leaves values of +-1e-17
        B = rs.BirthLaw.indicator(4.0, 0.5, 1.0)
        n0 = HybridMeasure.point_mass(0.9, 4.0, self.dt)
        traj = rs.birth_series(n0, B, rs.solve_spectral(B), self.dt, 3.0)
        windows = traj.births.size // _LOCAL + 1
        # more clamps than windows: some window clamps more than once
        assert traj.clamp_count > windows
        assert 0.0 < traj.clamp_max < 1e-10 * np.abs(traj.births).max()
        assert traj.births.min() == 0.0
        assert_matches_reference(traj)

    def test_clamps_correct_the_window_by_rank_one_terms(self):
        # the same law and atom to T = 6 at dt = 5e-4: 128 clamps over 47
        # windows; the later rows of a clamp's window take its rank-one correction
        B = rs.BirthLaw.indicator(4.0, 0.5, 1.0)
        n0 = HybridMeasure.point_mass(0.9, 8.0, 5e-4)
        traj = rs.birth_series(n0, B, rs.solve_spectral(B), 5e-4, 6.0)
        assert traj.clamp_count == 128
        assert 0.0 < traj.clamp_max < 1e-10 * np.abs(traj.births).max()
        assert_matches_reference(traj)

    def test_negative_beyond_tolerance_mid_window(self):
        # the negative atom enters the support [0.5, 1] at t = 0.3, step 300,
        # and takes the trace far below zero there
        B = rs.BirthLaw.indicator(4.0, 0.5, 1.0)
        sp = rs.solve_spectral(B)
        n0 = HybridMeasure.from_function(lambda x: np.exp(-x), 4.0, self.dt,
                                         atoms=((0.2, -1.0),))
        signed = rs.birth_series(n0, B, sp, self.dt, 1.0).births
        first = int(np.flatnonzero(signed < 0.0)[0])
        assert first == 300 and first % _LOCAL not in (0, _LOCAL - 1)
        # flag the signed datum nonnegative behind the constructor's check
        object.__setattr__(n0, "nonnegative", True)
        for solver in (rs.birth_series, reference_birth_series):
            with pytest.raises(TransportError, match="negative beyond tolerance"):
                solver(n0, B, sp, self.dt, 1.0)

    @pytest.mark.parametrize("path", SCENARIOS, ids=os.path.basename)
    def test_shipped_scenarios_match_and_never_clamp(self, path):
        sc = load_scenario(path)
        traj = rs.birth_series(sc.initial, sc.birth_law, rs.solve_spectral(sc.birth_law),
                               sc.dt, sc.horizon)
        assert (traj.clamp_count, traj.clamp_max) == (0, 0.0)
        assert_matches_reference(traj)


class TestSupportBound:
    """The trace bounded by the law's support, against the unbounded oracles.

    ``direct_births`` sums every history pair and ``reference_birth_series``
    convolves uncapped FFT blocks; ``birth_series`` evaluates kernel and
    forcing on the first ``live`` grid times and caps every FFT block at C,
    the smallest power of two >= live.
    """

    @staticmethod
    def cap(traj):
        live = int(np.count_nonzero(traj.times <= traj.birth_law.live_end))
        return 1 << (live - 1).bit_length()

    @staticmethod
    def run(B, atoms, T, dt, x_max=12.0):
        n0 = HybridMeasure.from_function(TestDirectOracle.density, x_max, dt,
                                         atoms=atoms, nonnegative=True)
        return rs.birth_series(n0, B, rs.solve_spectral(B), dt, T)

    @staticmethod
    def assert_matches_oracles(traj):
        assert_matches_direct(traj)
        assert_matches_reference(traj)

    def test_several_levels_capped(self):
        traj = self.run(rs.BirthLaw.indicator(2.0, 0.0, 1.0), ((0.2, 0.3), (0.5, 0.2)),
                        10.0, 0.004)
        C = self.cap(traj)
        assert C == 256 and traj.births.size - 1 >= 8 * C
        self.assert_matches_oracles(traj)

    def test_cap_below_window(self):
        traj = self.run(rs.BirthLaw.indicator(40.0, 0.0, 0.05), ((0.01, 0.3),), 3.0, 0.001,
                        x_max=4.0)
        assert self.cap(traj) == 64 < _LOCAL and traj.birth_jumps
        self.assert_matches_oracles(traj)

    def test_support_end_off_grid(self):
        B = rs.BirthLaw.indicator(2.0, 0.1, 0.7537)
        traj = self.run(B, ((0.3, 0.3),), 10.0, 0.004)
        assert B.support_end / 0.004 % 1.0 > 0.1 and self.cap(traj) == 256
        self.assert_matches_oracles(traj)

    def test_support_end_jump_meets_atom_at_age_zero(self):
        # 700 * dt lies a rounding error past the support end 0.7, where the
        # atom born at age 0 takes the mean rate: that step is live
        B = rs.BirthLaw.indicator(2.0, 0.0, 0.7)
        traj = self.run(B, ((0.0, 0.3),), 2.5, 0.001, x_max=4.0)
        assert traj.times[700] > B.support_end and self.cap(traj) == 1024
        assert [j for j, _ in traj.birth_jumps] == [700]
        self.assert_matches_oracles(traj)

    def test_table_with_nonzero_last_rate(self):
        # the rate drops from 1.5 to 0 at the support end 1.3
        traj = self.run(rs.BirthLaw.table([0.0, 0.4, 1.0, 1.3], [1.0, 3.0, 2.0, 1.5]),
                        ((0.5, 0.3),), 10.0, 0.004)
        assert self.cap(traj) == 512 and [j for j, _ in traj.birth_jumps] == [200]
        self.assert_matches_oracles(traj)

    @staticmethod
    def rfft_lengths(monkeypatch, *args):
        lengths = []
        rfft = np.fft.rfft

        def spy(a, n=None, *rest, **kw):
            lengths.append(n)
            return rfft(a, n, *rest, **kw)

        monkeypatch.setattr(np.fft, "rfft", spy)
        traj = rs.birth_series(*args)
        monkeypatch.undo()
        return traj, lengths

    def test_no_transform_longer_than_twice_the_cap(self, monkeypatch, ind_spectral):
        B, sp = ind_spectral
        n0 = HybridMeasure.point_mass(0.5, 40.0, 0.004)
        traj, lengths = self.rfft_lengths(monkeypatch, n0, B, sp, 0.004, 30.0)
        C = self.cap(traj)
        # uncapped, the blocks would reach 4096 steps
        assert 16 * C < traj.births.size and max(lengths) == 2 * C

    def test_constant_law_transforms_uncapped(self, monkeypatch, const_spectral):
        B, sp = const_spectral
        n0 = HybridMeasure.point_mass(0.5, 40.0, 0.002)
        traj, lengths = self.rfft_lengths(monkeypatch, n0, B, sp, 0.002, 8.0)
        blocks = [lo & -lo for lo in range(_LOCAL, traj.births.size, _LOCAL)]
        # one transform of kv per block length, one of b per block
        assert sorted(lengths) == sorted([2 * m for m in set(blocks)] + [2 * m for m in blocks])

    def test_constant_law_trace_bytes_unchanged(self, const_spectral):
        # sha256 of the trace as computed before the support bound: a constant
        # law has no support end, so it takes the unbounded path bit for bit
        B, sp = const_spectral
        n0 = HybridMeasure.from_function(TestDirectOracle.density, 40.0, 0.002,
                                         atoms=((0.5, 0.3),), nonnegative=True)
        births = rs.birth_series(n0, B, sp, 0.002, 8.0).births
        assert births.size == 4001
        assert hashlib.sha256(births.tobytes()).hexdigest() == (
            "31d925de12e4f0d11e2e21833afef416dc89603221c4f2a7bd0ecd71659bfbc7")


class TestEvolve:
    def test_time_zero_identity(self, dirac_benchmark):
        traj, _ = dirac_benchmark
        assert rs.evolve(traj, 0.0) is traj.initial

    def test_exact_solution_snapshot(self, dirac_benchmark):
        traj, _ = dirac_benchmark
        for t in (1.0, 2.5, 7.0):
            snap = rs.evolve(traj, t)
            xs = snap.nodes
            newborn = (xs > 0) & (xs < t)
            assert np.abs(snap.density[newborn] - np.exp(-xs[newborn])).max() <= 1e-6
            beyond = xs > t
            assert np.all(snap.density[beyond] == 0.0)
            assert len(snap.atoms) == 1
            loc, wt = snap.atoms[0]
            assert loc == pytest.approx(0.5 + t, abs=1e-12)
            assert abs(wt - math.exp(-t)) <= 1e-12
            # the seam node carries both one-sided limits
            seams = [j for j in snap.jumps if abs(j[0] - t) < 1e-12]
            assert len(seams) == 1
            _, left, right = seams[0]
            assert abs(left - math.exp(-t)) <= 1e-6
            assert right == 0.0

    def test_stationary_snapshot_in_variation(self, const_spectral):
        B, sp = const_spectral
        n0 = stationary_measure(sp, 40.0, 0.002)
        traj = rs.birth_series(n0, B, sp, 0.002, 5.0)
        for t in (1.0, 5.0):
            diff = linear_combination(1.0, rs.evolve(traj, t), -1.0, n0)
            assert weighted_variation(diff) <= 1e-6

    def test_snap_to_nearest_time_node(self, dirac_benchmark):
        traj, _ = dirac_benchmark
        a = rs.evolve(traj, 1.0004)
        b = rs.evolve(traj, 1.0)
        np.testing.assert_array_equal(a.density, b.density)

    def test_positivity(self, dirac_benchmark):
        traj, _ = dirac_benchmark
        for t in (0.5, 3.0, 9.5):
            snap = rs.evolve(traj, t)
            assert snap.nonnegative
            assert snap.density.min() >= 0.0
            assert all(w >= 0.0 for _, w in snap.atoms)

    def test_out_of_range_rejected(self, dirac_benchmark):
        traj, _ = dirac_benchmark
        with pytest.raises(TransportError):
            rs.evolve(traj, 11.0)
        with pytest.raises(TransportError):
            rs.evolve(traj, -1.0)

    def test_time_past_x_max_rejected(self):
        # a trace may run past x_max, but a snapshot's newborn seam may not
        law = rs.BirthLaw.constant(1.0)
        mu = HybridMeasure.from_function(lambda x: np.exp(-x), 2.0, 0.01, nonnegative=True)
        traj = rs.birth_series(mu, law, rs.solve_spectral(law), 0.01, 3.0)
        assert rs.evolve(traj, 2.0).x_max == 2.0
        with pytest.raises(TransportError, match="past x_max"):
            rs.evolve(traj, 2.01)


class TestCharacteristicLabels:
    def test_windows_reproduce_evolve(self, sweep_cases, acceptance_trajectories,
                                      seam_at_x_max):
        # evolve reads each snapshot off the labels; the assembly from the
        # birth trace and the datum lays out the same file, to the last bits
        cases = list(sweep_cases.values())
        cases += [(traj, np.arange(0, 201, 20) * 0.05)
                  for *_, traj in acceptance_trajectories]
        cases.append((seam_at_x_max, (0.5, 1.99, 2.0)))
        for traj, times in cases:
            for t in times:
                snap, ref = rs.evolve(traj, t), reference_evolve(traj, t)
                assert (snap.h, snap.node_count, snap.atoms) == (ref.h, ref.node_count, ref.atoms)
                got = np.array(snap.jumps, dtype=float).reshape(-1, 3)
                want = np.array(ref.jumps, dtype=float).reshape(-1, 3)
                assert got[:, 0].tolist() == want[:, 0].tolist()
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
                np.testing.assert_allclose(snap.density, ref.density, rtol=1e-14, atol=0.0)


class TestUnrenormalize:
    def test_total_mass_grows_exponentially(self, const_spectral):
        # unit dual mass grows like e^t once the damping is undone
        B, sp = const_spectral
        n0 = HybridMeasure.point_mass(0.0, 40.0, 0.005)
        traj = rs.birth_series(n0, B, sp, 0.001, 5.0)
        t = 5.0
        mass = rs.integrate(rs.evolve(traj, t), ones) * math.exp(sp.lambda0 * t)
        assert abs(mass - math.exp(t)) <= 1e-5 * math.exp(t)


class TestConservation:
    def test_constant_law_with_tail_leak(self, const_spectral):
        # domain short enough that real mass exits through x_max
        B, sp = const_spectral
        n0 = HybridMeasure.from_function(lambda x: np.exp(-x), 4.0, 0.001,
                                         nonnegative=True)
        traj = rs.birth_series(n0, B, sp, 0.001, 2.0)
        m0 = rs.integrate(n0, sp.phi)
        # the leak is genuinely nonzero here
        assert rs.tail_phi_mass(traj, traj.horizon) > 1e-3
        diag = rs.sample_diagnostics(traj, (0.5, 1.0, 2.0), etas=())
        for c in diag["conserved_phi_mass"]:
            assert abs(c - m0) <= 1e-6 * m0

    def test_seam_on_the_last_node_integrates_its_left_limit(self, seam_at_x_max):
        traj = seam_at_x_max
        snap = rs.evolve(traj, traj.horizon)
        assert snap.jumps[-1][0] == snap.x_max
        exact = ac_cumulative(snap, snap.x_max)
        assert abs(rs.integrate(snap, ones) - exact) <= 1e-14 * exact

    def test_seam_on_the_last_node_conserves(self, seam_at_x_max):
        traj = seam_at_x_max
        m0 = rs.integrate(traj.initial, traj.spectral.phi)
        diag = rs.sample_diagnostics(traj, (traj.horizon,), etas=())
        assert abs(diag["conserved_phi_mass"][0] - m0) <= 1e-5 * m0

    def test_indicator_law(self, ind_spectral):
        B, sp = ind_spectral
        n0 = HybridMeasure.from_function(
            lambda x: np.exp(-((x - 0.4) ** 2) / 0.02), 12.0, 0.0005,
            nonnegative=True)
        traj = rs.birth_series(n0, B, sp, 0.0005, 4.0)
        m0 = rs.integrate(n0, sp.phi)
        diag = rs.sample_diagnostics(traj, (0.5, 2.0, 4.0), etas=())
        for c in diag["conserved_phi_mass"]:
            assert abs(c - m0) <= 1e-6 * m0


    def test_tail_phi_mass_takes_an_array_of_times(self, sweep_cases):
        # the atom at 3.2 leaves [0, 4] at t = 0.8 and takes its mass along
        traj, _ = sweep_cases["atom_leaves"]
        n0, lam = traj.initial, traj.spectral.lambda0

        def reference_tail(t):  # the former scalar implementation
            v = n0.x_max - t
            ac_out = ac_cumulative(n0, n0.x_max) - ac_cumulative(n0, max(v, 0.0))
            atom_out = sum(wt for loc, wt in n0.atoms if loc > v)
            return math.exp(-lam * t) * traj.spectral.phi(0.0) * (ac_out + atom_out)

        ts = np.linspace(0.0, 2.0, 81)
        leak = rs.tail_phi_mass(traj, ts)
        assert leak.shape == ts.shape
        scalar = [rs.tail_phi_mass(traj, t) for t in ts]
        assert all(isinstance(v, float) for v in scalar)
        np.testing.assert_array_equal(leak, scalar)
        np.testing.assert_allclose(leak, [reference_tail(t) for t in ts], rtol=1e-14)
        i = int(np.searchsorted(ts, 0.8))
        assert leak[i + 1] - leak[i] >= 0.9 * 0.4 * math.exp(-0.825) * traj.spectral.phi(0.0)

    def test_tail_phi_mass_vanishes_for_finite_support(self, sweep_cases):
        traj, _ = sweep_cases["table_law"]
        assert rs.tail_phi_mass(traj, 1.0) == 0.0
        np.testing.assert_array_equal(rs.tail_phi_mass(traj, np.array([0.5, 1.0])), 0.0)


class TestBoundaryConsistency:
    def test_birth_trace_matches_snapshot_integral(self, dirac_benchmark,
                                                   const_spectral):
        B, _ = const_spectral
        traj, _ = dirac_benchmark
        for t in (0.5, 2.0, 8.0):
            snap = rs.evolve(traj, t)
            k = int(round(t / traj.dt))
            lhs = traj.births[k]
            rhs = rs.integrate(snap, B.quad_values)
            assert abs(lhs - rhs) <= 1e-5 * B.sup_bound * 1.0


class TestSemigroup:
    @pytest.mark.parametrize("s,t", [(0.5, 1.0), (1.25, 2.0), (2.0, 0.75)])
    def test_restart_matches_direct(self, const_spectral, s, t):
        # materializing the midpoint snapshot loses O(h^2) to resampling, so
        # the grid must be fine enough for the 1e-6 comparison
        B, sp = const_spectral
        n0 = HybridMeasure.from_function(
            lambda x: np.exp(-x), 40.0, 0.002, atoms=((1.5, 0.5),),
            nonnegative=True)
        direct = rs.birth_series(n0, B, sp, 0.0005, s + t)
        mid = rs.evolve(direct, s)
        restarted = rs.birth_series(mid, B, sp, 0.0005, t)
        diff = linear_combination(
            1.0, rs.evolve(restarted, t), -1.0, rs.evolve(direct, s + t))
        assert weighted_variation(diff) <= 1e-6


class TestRefinement:
    def test_observed_order_at_least_1_8(self, const_spectral):
        B, sp = const_spectral
        n0 = HybridMeasure.from_function(
            lambda x: np.exp(-0.5 * ((x - 2.0) / 0.4) ** 2), 20.0, 0.01,
            nonnegative=True)
        T = 5.0
        ends = []
        for dt in (0.01, 0.005, 0.0025, 0.00125):
            traj = rs.birth_series(n0, B, sp, dt, T)
            ends.append(traj.births[-1])
        d1 = abs(ends[0] - ends[1])
        d2 = abs(ends[1] - ends[2])
        d3 = abs(ends[2] - ends[3])
        orders = [math.log2(d1 / d2), math.log2(d2 / d3)]
        assert min(orders) >= 1.8, f"observed orders {orders}"
