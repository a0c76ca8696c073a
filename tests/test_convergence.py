import dataclasses
import math
import os

import numpy as np
import pytest

import renewalsim as rs
from renewalsim import HybridMeasure, cli, convergence
from renewalsim.errors import RenewalError
from renewalsim.scenarios import parse_scenario

from oracles import linear_combination, stationary_measure, weighted_variation


def ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


class TestDistanceToEquilibrium:
    def test_stationary_data_stays_at_zero(self, const_spectral):
        B, sp = const_spectral
        n0 = stationary_measure(sp, 40.0, 0.002, mass=2.0)
        traj = rs.birth_series(n0, B, sp, 0.002, 4.0)
        for t in (0.0, 1.0, 4.0):
            assert rs.distance_to_equilibrium(traj, t) <= 1e-6

    def test_dirac_oracle(self, dirac_benchmark):
        # exact solution gives distance 2 exp(-t) under the unit weight
        traj, _ = dirac_benchmark
        for t in (1.0, 3.0, 6.0):
            d = rs.distance_to_equilibrium(traj, t, eta=ones)
            assert abs(d - 2.0 * math.exp(-t)) <= 1e-4 * 2.0 * math.exp(-t)

    def test_time_zero_matches_direct_evaluation(self, dirac_benchmark,
                                                 const_spectral):
        _, sp = const_spectral
        traj, _ = dirac_benchmark
        m0 = rs.integrate(traj.initial, sp.phi)
        eq = stationary_measure(sp, 40.0, 0.005, mass=m0)
        diff = linear_combination(1.0, traj.initial, -1.0, eq)
        direct = weighted_variation(diff, ones)
        assert rs.distance_to_equilibrium(traj, 0.0, eta=ones) == pytest.approx(
            direct, rel=1e-12)

    def test_dual_weighted_distance_sampled_monotone(self, ind_spectral):
        # the difference from equilibrium is itself a signed solution, so the
        # entropy contraction with the absolute-value integrand makes the
        # dual-weighted distance non-increasing
        B, sp = ind_spectral
        n0 = rs.HybridMeasure.point_mass(0.25, 12.0, 0.00025)
        traj = rs.birth_series(n0, B, sp, 0.00025, 5.0)
        ds = [rs.distance_to_equilibrium(traj, t) for t in np.arange(0.0, 5.1, 0.1)]
        worst = max(b - a for a, b in zip(ds[:-1], ds[1:]))
        assert worst <= 1e-8, f"max sampled increase {worst:.3e}"


class TestFitDecayRate:
    def test_exact_exponential(self):
        ts = np.arange(1.0, 9.0)
        fit = rs.fit_decay_rate([(t, 2.0 * math.exp(-t)) for t in ts])
        assert abs(fit.sigma_hat - 1.0) <= 1e-10
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_shifted_exponential(self):
        ts = np.linspace(0.0, 10.0, 21)
        fit = rs.fit_decay_rate([(t, 5.0 * math.exp(-0.25 * (t - 2.0))) for t in ts])
        assert abs(fit.sigma_hat - 0.25) <= 1e-10

    def test_requires_five_usable_samples(self):
        with pytest.raises(RenewalError, match="5 usable"):
            rs.fit_decay_rate([(1.0, 0.5), (2.0, 0.1), (3.0, 1e-16), (4.0, 1e-16)])

    def test_fit_stops_at_the_discretisation_floor(self):
        # D decays like exp(-t) down to t = 6, then grows linearly off its floor
        ts = np.arange(1.0, 10.5, 0.5)
        samples = [(t, math.exp(-min(t, 6.0)) * (1.0 + max(t - 6.0, 0.0))) for t in ts]
        fit = rs.fit_decay_rate(samples)
        assert [t for t, _ in fit.samples] == [t for t in ts if t <= 6.0]
        assert abs(fit.sigma_hat - 1.0) <= 1e-10
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_matches_polyfit(self, seed):
        # noisy decay over an uneven, shifted time window; np.polyfit is the oracle
        rng = np.random.default_rng(seed)
        ts = np.sort(rng.uniform(2.0, 40.0, 60))
        ds = 0.3 * np.exp(-0.05 * ts + 0.002 * rng.normal(size=ts.size))
        fit = rs.fit_decay_rate(list(zip(ts, ds)))
        slope, intercept = np.polyfit(ts, np.log(ds), 1)
        resid = np.log(ds) - (slope * ts + intercept)
        dev = np.log(ds) - np.log(ds).mean()
        assert len(fit.samples) == ts.size
        assert fit.sigma_hat == pytest.approx(-slope, rel=1e-12, abs=0.0)
        assert fit.y0_hat == pytest.approx(-intercept / slope, rel=1e-12, abs=0.0)
        assert fit.r_squared == pytest.approx(1.0 - resid @ resid / (dev @ dev),
                                              rel=0.0, abs=1e-12)

    def test_floor_filtering(self):
        ts = np.arange(1.0, 12.0)
        samples = [(t, math.exp(-t)) for t in ts] + [(20.0, 1e-16)]
        fit = rs.fit_decay_rate(samples)
        assert len(fit.samples) == len(ts)
        assert abs(fit.sigma_hat - 1.0) <= 1e-10


class TestMollificationHarness:
    def test_atom_free_all_gaps_vanish(self, const_spectral):
        _, sp = const_spectral
        n0 = HybridMeasure.from_function(lambda x: np.exp(-x), 6.0, 0.005)
        rep = rs.reshetnyak_harness(n0, sp, rs.builtin_integrand("abs"),
                                    (0.4, 0.2, 0.1, 0.05))
        assert rep.passed
        assert max(rep.gre_gaps) <= 1e-12
        assert max(rep.flat_distances) == 0.0

    def test_atom_ladder(self, const_spectral):
        _, sp = const_spectral
        n0 = HybridMeasure.point_mass(1.0, 6.0, 0.005)
        eps = (0.4, 0.2, 0.1, 0.05)
        rep = rs.reshetnyak_harness(n0, sp, rs.builtin_integrand("abs"), eps)
        assert rep.passed
        assert rep.angle_gaps[-1] < rep.angle_gaps[0]
        for e, fd in zip(eps, rep.flat_distances):
            assert fd <= e / 2.0 + 1e-9

    def test_one_grid_context_per_ladder(self, ind_spectral):
        _, sp = ind_spectral
        seen = {"phi": 0, "N": 0}

        def counting(name, fn):
            def counted(x):
                seen[name] += np.size(x)
                return fn(x)
            return counted

        sp = dataclasses.replace(sp, phi=counting("phi", sp.phi), N=counting("N", sp.N))
        n0 = HybridMeasure.from_function(lambda x: np.exp(-x), 6.0, 0.005,
                                         atoms=((0.02, 0.3), (1.0, 0.5), (2.5, 0.2)))
        rep = rs.reshetnyak_harness(n0, sp, rs.builtin_integrand("abs"),
                                    (0.4, 0.2, 0.1, 0.05))
        assert len(rep.gre_values) == 4
        # once per node, plus phi at the three atoms
        assert seen == {"phi": n0.node_count + 3, "N": n0.node_count}

    def test_rungs_evaluate_H_where_mollify_changed_the_datum(self, ind_spectral):
        _, sp = ind_spectral
        smooth = HybridMeasure.from_function(lambda x: np.exp(-x), 6.0, 0.005)
        # a jump record under the middle atom: its sides change with the rung
        n0 = HybridMeasure(smooth.h, smooth.density, ((0.02, 0.3), (1.0, 0.5), (2.5, 0.2)),
                           jumps=((1.0, 0.5, 0.1),))
        base = rs.builtin_integrand("sqrt1p")
        evaluated = []
        H = dataclasses.replace(base, H=lambda u: evaluated.append(np.size(u)) or base.H(u))
        eps = (0.4, 0.2, 0.1, 0.05)
        rep = rs.reshetnyak_harness(n0, sp, H, eps)
        # bit for bit the full evaluation of every rung
        assert rep.gre_reference == rs.gre_functional(n0, sp, base)
        assert rep.gre_values == tuple(rs.gre_functional(rs.mollify(n0, e), sp, base)
                                       for e in eps)
        assert evaluated[0] == 2 * (n0.node_count - 1)
        # a rung's new panel sides: two per node within eps + 2h of an atom
        for e, count in zip(eps, evaluated[1:]):
            assert 0 < count <= 3 * 2 * (2 * e / n0.h + 5)

    def test_bad_ladder_rejected(self, const_spectral):
        _, sp = const_spectral
        n0 = HybridMeasure.point_mass(1.0, 6.0, 0.005)
        with pytest.raises(RenewalError, match="decreasing"):
            rs.reshetnyak_harness(n0, sp, rs.builtin_integrand("abs"), (0.1, 0.2))


INDICATOR_MIXED = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                               "indicator_mixed.ini")
# edits of indicator_mixed.ini's datum into the trace-atoms benchmark
# workload's seed-1 datum: the same law and grid, three atoms
TRACE_ATOMS_SEED1 = {"lo = 0.0": "lo = 0.07125", "hi = 2.0": "hi = 1.2575",
                     "mass = 1.0": "mass = 1.248702",
                     "atoms = 0.25:0.5": "atoms = 0.606:0.116844 0.78075:0.263415 0.816:0.358413"}


class TestLazyMollificationReport:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"flat_distance": 0, "angle_bracket": 0}

        def counting(name):
            fn = getattr(convergence, name)

            def counted(*args):
                seen[name] += 1
                return fn(*args)
            monkeypatch.setattr(convergence, name, counted)

        counting("flat_distance")
        counting("angle_bracket")
        return seen

    def test_verify_computes_no_flat_distance_or_area_functional(self, calls, capsys):
        assert cli.main(["verify", "--scenario", INDICATOR_MIXED]) == 0
        assert "PASS mollification" in capsys.readouterr().out
        assert calls == {"flat_distance": 0, "angle_bracket": 0}

    @pytest.mark.parametrize("edits", [{}, TRACE_ATOMS_SEED1],
                             ids=["indicator_mixed", "trace_atoms_seed1"])
    def test_lazy_fields_equal_the_direct_loop(self, calls, edits):
        with open(INDICATOR_MIXED, encoding="utf-8") as fh:
            text = fh.read()
        for old, new in edits.items():
            assert text.count(old) == 1
            text = text.replace(old, new)
        sc = parse_scenario(text)
        n0, sp = sc.initial, rs.solve_spectral(sc.birth_law)
        rep = rs.reshetnyak_harness(n0, sp, sc.integrands()[0], sc.eps_list)
        assert calls == {"flat_distance": 0, "angle_bracket": 0}

        rungs = [rs.mollify(n0, e) for e in sc.eps_list]
        ref = rs.angle_bracket(n0)
        values = tuple(rs.angle_bracket(m) for m in rungs)
        lazy = (rep.flat_distances, rep.angle_reference, rep.angle_values, rep.angle_gaps)
        assert lazy == (tuple(rs.flat_distance(m, n0) for m in rungs), ref, values,
                        tuple(abs(v - ref) for v in values))
        first = dict(calls)
        assert first == {"flat_distance": len(rungs), "angle_bracket": len(rungs) + 1}

        # a second read is served from the cache, and the report keeps no rung
        assert (rep.flat_distances, rep.angle_reference, rep.angle_values,
                rep.angle_gaps) == lazy
        assert calls == first
        kept = [v for v in vars(rep).values() if isinstance(v, HybridMeasure)]
        assert len(kept) == 1 and kept[0] is n0


def birth_integral(traj, times):
    """``birth_integral_report`` on the sweep over t = 0 and ``times``."""
    times = (0.0, *times)
    diag = rs.sample_diagnostics(traj, times)
    return convergence.birth_integral_report(times, diag["m0"], diag["m_k"], diag["D_phi"])


class TestBirthIntegralSequence:
    def test_stationary_profile(self, const_spectral):
        # the initial-mass quadrature bias feeds the births, so hitting 1e-8
        # absolute needs a grid with h^2/12 below it
        B, sp = const_spectral
        n0 = stationary_measure(sp, 20.0, 2e-4)
        traj = rs.birth_series(n0, B, sp, 2e-4, 4.0)
        rep = birth_integral(traj, (1.0, 2.0, 3.0, 4.0))
        assert rep.passed
        assert max(abs(m - rep.m0) for m in rep.m_values) <= 1e-8

    def test_dirac_scenario_converges(self, dirac_benchmark, const_spectral):
        B, sp = const_spectral
        traj, _ = dirac_benchmark
        rep = birth_integral(traj, tuple(np.arange(0.5, 10.5, 0.5)))
        assert rep.passed
        assert rep.final_deviation <= 1e-4

    def test_zero_data(self, const_spectral):
        B, sp = const_spectral
        n0 = HybridMeasure.zero(40.0, 0.01)
        traj = rs.birth_series(n0, B, sp, 0.01, 2.0)
        rep = birth_integral(traj, (1.0, 2.0))
        assert rep.passed
        assert rep.m_values == (0.0, 0.0)
