import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renewalsim as rs
from renewalsim import HybridMeasure, convergence
from renewalsim.errors import EntropyError, MeasureError, RenewalError

from oracles import linear_combination, reference_harness, stationary_measure, weighted_variation


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
            d = rs.distance_to_equilibrium(traj, t, eta="one")
            assert abs(d - 2.0 * math.exp(-t)) <= 1e-4 * 2.0 * math.exp(-t)

    def test_time_zero_matches_direct_evaluation(self, dirac_benchmark,
                                                 const_spectral):
        _, sp = const_spectral
        traj, _ = dirac_benchmark
        m0 = rs.integrate(traj.initial, sp.phi)
        eq = stationary_measure(sp, 40.0, 0.005, mass=m0)
        diff = linear_combination(1.0, traj.initial, -1.0, eq)
        direct = weighted_variation(diff, ones)
        assert rs.distance_to_equilibrium(traj, 0.0, eta="one") == pytest.approx(
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

    def test_unknown_weight_name_raises(self, dirac_benchmark):
        traj, _ = dirac_benchmark
        with pytest.raises(RenewalError, match="unknown variation weight 'ones'"):
            rs.distance_to_equilibrium(traj, 1.0, eta="ones")
        with pytest.raises(RenewalError, match="unknown variation weight 'psi'"):
            rs.sample_diagnostics(traj, (0.0, 1.0), etas=("phi", "psi"))


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
        eps = (0.4, 0.2, 0.1, 0.05)
        rep = rs.reshetnyak_harness(n0, sp, rs.builtin_integrand("abs"), eps)
        assert rep.passed
        assert max(rep.gre_gaps) <= 1e-12
        assert max(rs.flat_distance(rs.mollify(n0, e), n0) for e in eps) == 0.0

    def test_atom_ladder(self, const_spectral):
        _, sp = const_spectral
        n0 = HybridMeasure.point_mass(1.0, 6.0, 0.005)
        eps = (0.4, 0.2, 0.1, 0.05)
        rep = rs.reshetnyak_harness(n0, sp, rs.builtin_integrand("abs"), eps)
        assert rep.passed
        rungs = [rs.mollify(n0, e) for e in eps]
        angle_gaps = [abs(rs.angle_bracket(m) - rs.angle_bracket(n0)) for m in rungs]
        assert angle_gaps[-1] < angle_gaps[0]
        for e, m in zip(eps, rungs):
            assert rs.flat_distance(m, n0) <= e / 2.0 + 1e-9

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
        # N once per node (the overflow pass), phi once per node up to the
        # first past live_end (phi vanishes there), plus phi at the three atoms
        fertile = int(np.count_nonzero(n0.nodes <= sp.live_end)) + 1
        assert fertile < n0.node_count // 5
        assert seen == {"phi": fertile + 3, "N": n0.node_count}

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
        # the full evaluation of the datum and of every rung, bit for bit
        assert rep.gre_reference == rs.gre_functional(n0, sp, base)
        for e, v in zip(eps, rep.gre_values):
            assert v == rs.gre_functional(rs.mollify(n0, e), sp, base)
        # the datum's sides on the panels left of live_end
        assert evaluated[0] == 2 * np.count_nonzero(n0.nodes <= sp.live_end)
        # a rung's new panel sides: two per node within eps + 2h of an atom
        for e, count in zip(eps, evaluated[1:]):
            assert 0 < count <= 3 * 2 * (2 * e / n0.h + 5)

    def test_bad_ladder_rejected(self, const_spectral):
        _, sp = const_spectral
        n0 = HybridMeasure.point_mass(1.0, 6.0, 0.005)
        with pytest.raises(RenewalError, match="decreasing"):
            rs.reshetnyak_harness(n0, sp, rs.builtin_integrand("abs"), (0.1, 0.2))


class TestLadderStopsAtLiveEnd:
    """``reshetnyak_harness`` against the full-grid ladder ``reference_harness``.

    The datum has density, atoms and a jump record on both sides of the
    law's ``live_end``, and the widest rungs reach past it.  Only the
    summation order moves: every value within 1e-15 |gre_reference|, and
    the pass/fail flags and the order of the gaps are the same.
    """

    EPS = (0.4, 0.2, 0.1, 0.05)

    @staticmethod
    def datum(h=0.005):
        smooth = HybridMeasure.from_function(
            lambda x: np.exp(-x) * (1.0 + 0.5 * np.sin(5.0 * x)), 6.0, h)
        return HybridMeasure(h, smooth.density, ((0.3, 0.4), (0.95, 0.3), (2.5, 0.2)),
                             jumps=((0.6, 0.5, 0.2), (3.0, 0.1, 0.3)))

    @pytest.mark.parametrize("law", [rs.BirthLaw.indicator(2.0, 0.0, 1.0),
                                     rs.BirthLaw.table((0.0, 0.4, 0.4, 1.2),
                                                       (1.0, 1.0, 3.0, 2.0))],
                             ids=["indicator", "table"])
    @pytest.mark.parametrize("name", ["abs", "sqrt1p", "pospart"])
    def test_matches_the_full_grid(self, law, name):
        sp, n0, H = rs.solve_spectral(law), self.datum(), rs.builtin_integrand(name)
        assert sp.live_end < 2.5 and max(self.EPS) + 0.95 > sp.live_end
        rep, ref = (f(n0, sp, H, self.EPS) for f in (rs.reshetnyak_harness, reference_harness))
        tol = 1e-15 * abs(ref.gre_reference)
        assert abs(rep.gre_reference - ref.gre_reference) <= tol
        assert np.abs(np.subtract(rep.gre_values, ref.gre_values)).max() <= tol
        assert (rep.gap_decreased, rep.final_below_tol) == (ref.gap_decreased,
                                                            ref.final_below_tol)
        assert np.argsort(rep.gre_gaps).tolist() == np.argsort(ref.gre_gaps).tolist()

    def test_constant_law_is_the_full_grid(self, const_spectral):
        # live_end = inf: every panel is live, and the sums are today's bits
        _, sp = const_spectral
        H = rs.builtin_integrand("sqrt1p")
        assert sp.live_end == math.inf
        assert (rs.reshetnyak_harness(self.datum(), sp, H, self.EPS)
                == reference_harness(self.datum(), sp, H, self.EPS))

    def test_overflow_past_live_end_still_raises(self, ind_spectral):
        _, sp = ind_spectral
        H, h = rs.builtin_integrand("abs"), 0.005
        # density/N is 1.8e303 at x = 5 only, far past live_end = 1
        dens = np.zeros(1201)
        dens[1000] = 1e300
        n0 = HybridMeasure(h, dens, ((0.5, 0.3),))
        with pytest.raises(EntropyError, match="overflows"):
            rs.reshetnyak_harness(n0, sp, H, self.EPS)
        # on one side of a jump record only: the panel right of it, then left
        for limits in ((0.0, 1e300), (1e300, 0.0)):
            n0 = HybridMeasure(h, np.zeros(1201), ((0.5, 0.3),), jumps=((5.0, *limits),))
            with pytest.raises(EntropyError, match="overflows"):
                rs.reshetnyak_harness(n0, sp, H, self.EPS)

    def test_rung_overflow_past_live_end_still_raises(self, ind_spectral):
        _, sp = ind_spectral
        H, h = rs.builtin_integrand("abs"), 0.005
        x = np.arange(1201) * h
        # density/N is 0.9e300 around x = 3: the datum passes, and the atom's
        # bump there takes the rung past 1e300
        dens = np.where(np.abs(x - 3.0) <= 0.5, 0.9e300 * sp.N(x), 0.0)
        n0 = HybridMeasure(h, dens, ((0.5, 0.3), (3.0, 1e300 * float(sp.N(3.0)))))
        rs.gre_functional(n0, sp, H)  # the datum itself does not overflow
        with pytest.raises(EntropyError, match="overflows"):
            reference_harness(n0, sp, H, self.EPS)
        with pytest.raises(EntropyError, match="overflows"):
            rs.reshetnyak_harness(n0, sp, H, self.EPS)

    @pytest.mark.parametrize("limits", [(0.0, 0.9e300), (0.9e300, 0.0)], ids=["right", "left"])
    def test_rung_overflow_on_one_side_of_a_jump_record(self, ind_spectral, limits):
        # density/N is 0.9e300 on one side of x = 3 only, and one rung's bump
        # adds 0.5e300 there: only the panel on that side overflows
        _, sp = ind_spectral
        H, h, N3 = rs.builtin_integrand("abs"), 0.005, float(sp.N(3.0))
        n0 = HybridMeasure(h, np.zeros(1201), ((0.5, 0.3), (3.0, 0.2e300 * N3)),
                           jumps=((3.0, limits[0] * N3, limits[1] * N3),))
        rs.gre_functional(n0, sp, H)
        for harness in (reference_harness, rs.reshetnyak_harness):
            with pytest.raises(EntropyError, match="overflows"):
                harness(n0, sp, H, (0.4,))

    def test_kernel_past_the_domain_still_raises(self, ind_spectral):
        _, sp = ind_spectral
        n0 = HybridMeasure.from_function(lambda x: np.exp(-x), 6.0, 0.005,
                                         atoms=((0.5, 0.3), (5.8, 0.2)))
        for harness in (rs.reshetnyak_harness, reference_harness):
            with pytest.raises(MeasureError, match="leaves the domain"):
                harness(n0, sp, rs.builtin_integrand("abs"), self.EPS)


# the eigendata of the ladder property's three law shapes
LADDER_SPECTRA = [rs.solve_spectral(law) for law in (
    rs.BirthLaw.constant(1.0),  # live_end = inf: every panel is live
    rs.BirthLaw.indicator(3.0, 0.4, 1.1),  # lo > 0
    rs.BirthLaw.table((0.0, 0.5, 0.5, 1.3), (1.0, 1.5, 0.5, 2.0)),  # interior jump
)]


@st.composite
def ladder_cases(draw):
    """A datum, a law and an epsilon ladder for ``reshetnyak_harness``.

    Density with a jump record under an atom, atoms on and off the grid
    on both sides of ``live_end``, an optional signed pair, and widths
    that reach past ``live_end``; some kernels leave the domain, and some
    data overflow density/N.
    """
    sp = draw(st.sampled_from(LADDER_SPECTRA))
    h = draw(st.sampled_from((0.01, 0.02)))
    n = int(round(draw(st.sampled_from((3.0, 4.0))) / h)) + 1
    signed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = rng.normal(size=n) if signed else rng.uniform(0.0, 2.0, n)
    if draw(st.integers(0, 7)) == 7:  # density/N overflows at one node
        density[draw(st.integers(0, n - 1))] = 1e305
    weights = st.floats(0.05, 1.0)
    node = st.integers(1, n - 2)
    atoms = [(draw(node) * h, draw(weights))
             for _ in range(draw(st.integers(1, 3)))]           # on grid nodes
    atoms += [(draw(st.floats(0.0, (n - 1) * h)), draw(weights))
              for _ in range(draw(st.integers(0, 2)))]          # anywhere
    if signed:  # a pair of opposite weights
        c, w = draw(st.floats(0.1, 2.0)), draw(weights)
        atoms += [(c, w), (c + draw(st.floats(0.0, 0.3)), -w)]
    limits = st.floats(-1.0, 1.0) if signed else st.floats(0.0, 2.0)
    jumps = [(atoms[0][0], draw(limits), draw(limits))]          # under an atom
    second = draw(node) * h
    if draw(st.booleans()) and second != jumps[0][0]:
        jumps.append((second, draw(limits), draw(limits)))
    n0 = HybridMeasure(h, density, tuple(atoms), tuple(jumps), nonnegative=not signed)
    widths = draw(st.lists(st.floats(h, 0.8), min_size=1, max_size=4, unique=True))
    H = rs.builtin_integrand(draw(st.sampled_from(("abs", "sqrt1p", "pospart"))))
    return n0, sp, H, tuple(sorted(widths, reverse=True))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(ladder_cases())
def test_generated_ladders_are_gre_of_mollify(case):
    # the reference is gre_functional(n0) and each rung
    # gre_functional(mollify(n0, eps)), bit for bit; the full-grid ladder
    # agrees to its summation order and raises the same errors
    n0, sp, H, eps = case
    try:
        rep = rs.reshetnyak_harness(n0, sp, H, eps)
    except RenewalError as exc:
        with pytest.raises(RenewalError) as oracle:
            reference_harness(n0, sp, H, eps)
        assert (type(oracle.value), str(oracle.value)) == (type(exc), str(exc))
        return
    assert rep.gre_reference == rs.gre_functional(n0, sp, H)
    assert rep.gre_values == tuple(rs.gre_functional(rs.mollify(n0, e), sp, H) for e in eps)
    ref = reference_harness(n0, sp, H, eps)
    tol = 1e-15 * abs(ref.gre_reference)
    assert abs(rep.gre_reference - ref.gre_reference) <= tol
    assert np.abs(np.subtract(rep.gre_values, ref.gre_values)).max() <= tol


def birth_integral(traj, times):
    """``birth_integral_report`` on the sweep over t = 0 and ``times``."""
    times = (0.0, *times)
    diag = rs.sample_diagnostics(traj, times)
    return convergence.birth_integral_report(diag["m0"], diag["m_k"], diag["D_phi"])


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
