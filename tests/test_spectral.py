import math

import numpy as np
import pytest

import renewalsim as rs
from renewalsim import BirthLaw
from renewalsim.errors import SpectralError
from renewalsim.measures import ac_cumulative, ac_first_moment
from renewalsim.quadrature import composite_simpson

from oracles import stationary_measure

# independent root for 2 (1 - exp(-lam)) / lam = 1, frozen from a standalone
# bisection at 1e-16 interval width
LAMBDA0_INDICATOR = 1.5936242600400399
# lambda0 = 1.7e-3: the panel antiderivatives lose the dual normalization
NEAR_CRITICAL_LAW = ((0.0, 0.5, 1.0), (1.001, 0.5005, 2.002))


def bisection_oracle(f, lo, hi, iters=200):
    assert f(lo) > 0 > f(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestConstantFamily:
    @pytest.mark.parametrize("beta", [1.0, 2.5])
    def test_growth_rate_equals_rate(self, beta):
        lam = rs.solve_lambda0(BirthLaw.constant(beta))
        assert abs(lam - beta) <= 1e-10

    @pytest.mark.parametrize("beta", [1.0, 2.5])
    def test_dual_weight_is_one(self, beta):
        B = BirthLaw.constant(beta)
        sp = rs.solve_spectral(B)
        xs = np.linspace(0.0, 30.0 / beta, 200)
        np.testing.assert_allclose(sp.phi(xs), 1.0, atol=1e-8)
        assert abs(sp.phi0 - 1.0) <= 1e-8

    def test_boundary_identity(self):
        B = BirthLaw.constant(2.5)
        sp = rs.solve_spectral(B)
        lam = sp.lambda0
        # N(0) = integral B N dx, by the growth-rate equation
        assert abs(sp.N(0.0) - lam * B.laplace(lam)) <= 1e-8


class TestEigenN:
    def test_value_at_zero(self):
        N = rs.eigen_N(1.7)
        assert float(N(0.0)) == 1.7

    def test_truncated_mass_closed_form(self):
        lam, x_max = 1.3, 12.0
        N = rs.eigen_N(lam)
        quad = composite_simpson(N, 0.0, x_max, 4000)
        assert abs(quad - (1.0 - math.exp(-lam * x_max))) <= 1e-10

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(SpectralError):
            rs.eigen_N(0.0)


class TestIndicatorFamily:
    def test_growth_rate_against_bisection_oracle(self, ind_spectral):
        _, sp = ind_spectral
        oracle = bisection_oracle(
            lambda lam: 2.0 * (1.0 - math.exp(-lam)) / lam - 1.0, 1.0, 2.0
        )
        assert abs(sp.lambda0 - oracle) <= 1e-10
        assert abs(sp.lambda0 - LAMBDA0_INDICATOR) <= 1e-12

    def test_dual_weight_vanishes_past_support(self, ind_spectral):
        _, sp = ind_spectral
        assert np.all(sp.phi(np.array([1.0, 1.5, 7.0])) == 0.0)

    def test_dual_ode_residual(self, ind_spectral):
        B, sp = ind_spectral
        h = 5e-4
        xs = np.arange(1, int(round(1.0 / h)) - 1) * h
        xs = xs[np.abs(xs - 1.0) > 2 * h]
        phi = sp.phi(xs)
        dphi = (sp.phi(xs + h) - sp.phi(xs - h)) / (2 * h)
        resid = -dphi + sp.lambda0 * phi - sp.phi(0.0) * B(xs)
        assert np.abs(resid).max() <= 1e-6 * B.sup_bound * sp.phi0

    def test_normalization_residual(self, ind_spectral):
        _, sp = ind_spectral
        assert sp.residual_normalization <= 1e-8
        assert sp.residual_euler_lotka <= 1e-10

    def test_dual_weight_nonnegative(self, ind_spectral):
        _, sp = ind_spectral
        assert np.min(sp.phi(np.linspace(0.0, 2.0, 4001))) >= 0.0


def random_indicators():
    """Five seeded indicator laws with supercritical rates."""
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = float(rng.uniform(0.0, 1.0))
        width = float(rng.uniform(0.5, 3.0))
        beta = float(rng.uniform(1.5, 6.0)) / width * (1.0 + rng.uniform(0.1, 1.0))
        yield BirthLaw.indicator(beta, a, a + width)


class TestRandomLaws:
    def test_normalization_on_random_laws(self):
        for B in random_indicators():
            sp = rs.solve_spectral(B)
            assert sp.residual_normalization <= 1e-8
            assert sp.residual_euler_lotka <= 1e-10

    def test_steep_law_is_resolved(self):
        # lambda0 = beta: the exact normalization has no panel count to outgrow
        # (a Simpson check needs 40 panels per unit of lambda0 x, 4e6 at 1e5)
        for beta in (200.0, 1e5):
            sp = rs.solve_spectral(BirthLaw.indicator(beta, 0.0, 1.0))
            assert sp.residual_normalization <= 1e-8, beta


class TestTableFamily:
    def make(self):
        return BirthLaw.table([0.0, 0.5, 1.0, 2.0], [0.0, 2.0, 2.0, 0.0])

    def test_spectral_residuals(self):
        sp = rs.solve_spectral(self.make())
        assert sp.residual_euler_lotka <= 1e-10
        assert sp.residual_normalization <= 1e-8

    @pytest.mark.xfail(strict=True, raises=SpectralError,
                       reason="lambda0 = 1.7e-3: the panel antiderivatives cancel, "
                              "exact residual 1.1e-7")
    def test_near_critical_law(self):
        sp = rs.solve_spectral(BirthLaw.table(*NEAR_CRITICAL_LAW))
        assert sp.residual_normalization <= 1e-8

    def test_laplace_matches_simpson(self):
        B = self.make()
        lam = 0.8
        quad = composite_simpson(lambda x: B(x) * np.exp(-lam * x), 0.0, 2.0,
                                 8000, breakpoints=B.xs)
        assert abs(B.laplace(lam) - quad) <= 1e-10


class IndicatorOracle:
    """Closed forms of the rate ``beta 1_[lo, hi]``, independent of the table code."""

    def __init__(self, beta, lo, hi):
        self.beta, self.lo, self.hi = beta, lo, hi

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.lo) & (x <= self.hi), self.beta, 0.0)

    def jump_points(self):
        pts = [(self.lo, 0.0, self.beta)] if self.lo > 0.0 else []
        return tuple(pts + [(self.hi, self.beta, 0.0)])

    def total_integral(self):
        return self.beta * (self.hi - self.lo)

    def integral_to(self, x):
        return self.beta * max(0.0, min(x, self.hi) - self.lo)

    def laplace(self, lam):
        return self.beta * (math.exp(-lam * self.lo) - math.exp(-lam * self.hi)) / lam

    def laplace_moment(self, lam):
        lo, hi, b = self.lo, self.hi, self.beta
        return b * (
            (lo * math.exp(-lam * lo) - hi * math.exp(-lam * hi)) / lam
            + (math.exp(-lam * lo) - math.exp(-lam * hi)) / lam ** 2
        )

    def laplace_tail(self, x, lam):
        lo, hi, b = self.lo, self.hi, self.beta
        start = np.maximum(x, lo)
        out = b / lam * (np.exp(-lam * (start - x)) - np.exp(-lam * (hi - x)))
        return np.where(x < hi, out, 0.0)


INDICATORS = [(2.0, 0.0, 1.0), (2.5, 0.25, 1.0), (2.5, 0.3, 1.1), (1.5, 0.7, 2.4)]


@pytest.mark.parametrize("params", INDICATORS)
class TestIndicatorSugar:
    """``BirthLaw.indicator`` is a table law; it must agree with the closed forms."""

    def test_is_a_table(self, params):
        beta, lo, hi = params
        B = BirthLaw.indicator(*params)
        assert B.kind == "table" and B.support_end == hi and B.sup_bound == beta
        assert B.breakpoints() == ((0.0, hi) if lo == 0.0 else (0.0, lo, hi))

    def test_pointwise_values_and_jumps(self, params):
        _, lo, hi = params
        B, ref = BirthLaw.indicator(*params), IndicatorOracle(*params)
        xs = np.concatenate([np.linspace(-0.5, hi + 0.5, 2001),
                             [lo, hi, np.nextafter(lo, -1.0), np.nextafter(hi, 9.0)]])
        np.testing.assert_array_equal(B(xs), ref(xs))
        assert B.jump_points() == ref.jump_points()

    def test_integrals(self, params):
        B, ref = BirthLaw.indicator(*params), IndicatorOracle(*params)
        assert B.total_integral() == pytest.approx(ref.total_integral(), rel=1e-15)
        for x in np.linspace(-0.2, params[2] + 0.3, 47).tolist() + list(params[1:]):
            assert abs(B.integral_to(x) - ref.integral_to(x)) <= 1e-15 * max(
                1.0, abs(ref.integral_to(x))), x

    def test_transforms(self, params):
        B, ref = BirthLaw.indicator(*params), IndicatorOracle(*params)
        lam0 = rs.solve_lambda0(B)
        for lam in (lam0, 1.0, 2.0, 5.0):
            assert B.laplace(lam) == pytest.approx(ref.laplace(lam), rel=1e-15, abs=0)
            assert B.laplace_moment(lam) == pytest.approx(ref.laplace_moment(lam),
                                                          rel=1e-15, abs=0)
            x = np.linspace(0.0, params[2] + 0.2, 3001)
            got, want = B.laplace_tail(x, lam), ref.laplace_tail(x, lam)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            assert np.all(got[x >= params[2]] == 0.0)

    def test_growth_rate(self, params):
        # the panel and closed-form transforms round differently, so the
        # Newton-polished root may move by a few ulps
        oracle = rs.solve_lambda0(IndicatorOracle(*params))
        lam = rs.solve_lambda0(BirthLaw.indicator(*params))
        assert abs(lam - oracle) <= 4 * np.spacing(oracle)


class TestTableValidation:
    @pytest.mark.parametrize("xs, vals", [
        ([0.0, 0.5, 0.5, 0.5, 1.0], [2.0, 2.0, 3.0, 4.0, 2.0]),   # triple abscissa
        ([0.0, 0.0, 1.0], [1.0, 3.0, 3.0]),                        # repeat at 0
        ([0.0, 1.0, 1.0], [3.0, 3.0, 0.0]),                        # repeat at the end
        ([0.0, 0.6, 0.4, 1.0], [3.0, 3.0, 3.0, 3.0]),              # decreasing
        ([0.0, float("nan"), 1.0], [3.0, 3.0, 3.0]),
        ([0.0, 1.0, float("inf")], [3.0, 3.0, 3.0]),
        ([0.0, 1.0], [float("nan"), 3.0]),
        ([0.0, 1.0], [float("inf"), float("inf")]),
    ])
    def test_rejected(self, xs, vals):
        with pytest.raises(SpectralError):
            BirthLaw.table(xs, vals)

    def test_inner_jump(self):
        B = BirthLaw.table([0.0, 0.5, 0.5, 1.0, 1.5], [1.0, 3.0, 1.0, 2.0, 0.0])
        assert B.jump_points() == ((0.5, 3.0, 1.0),)
        assert B.breakpoints() == (0.0, 0.5, 1.0, 1.5)
        assert B(0.5) == 1.0 and B.quad_values([0.5])[0] == 2.0
        assert B.integral_to(0.5) == 1.0 and B.integral_to(1.0) == 1.75
        # a repeat with equal values is no jump; the support-end drop is
        flat = BirthLaw.table([0.0, 0.5, 0.5, 1.0], [3.0, 3.0, 3.0, 2.0])
        assert flat.jump_points() == ((1.0, 2.0, 0.0),)
        sp = rs.solve_spectral(B)
        assert sp.residual_euler_lotka <= 1e-10 and sp.residual_normalization <= 1e-8


class TestHypothesisChecks:
    def test_subcritical_indicator_rejected(self):
        with pytest.raises(SpectralError, match="net reproduction"):
            BirthLaw.indicator(0.9, 0.0, 1.0)

    def test_subcritical_table_rejected(self):
        with pytest.raises(SpectralError, match="net reproduction"):
            BirthLaw.table([0.0, 1.0], [0.9, 0.9])

    def test_negative_table_rejected(self):
        with pytest.raises(SpectralError):
            BirthLaw.table([0.0, 1.0], [2.0, -0.1])


class TestMeasureConsistency:
    def test_stationary_profile_has_unit_dual_mass(self, ind_spectral):
        _, sp = ind_spectral
        n0 = stationary_measure(sp, 2.0, 1e-4)
        assert abs(rs.integrate(n0, sp.phi) - 1.0) <= 1e-8

    def test_constant_family_dual_mass(self, const_spectral):
        _, sp = const_spectral
        n0 = stationary_measure(sp, 40.0, 2e-4)
        assert abs(rs.integrate(n0, sp.phi) - 1.0) <= 1e-8


# -- exact birth forcing against a merged-breakpoint Simpson oracle ----------


def law_pieces(B):
    """``(p, q, B(p+), B(q-))`` for every linear panel of positive width."""
    return [(p, q, vp, vq) for p, q, vp, vq
            in zip(B.xs[:-1], B.xs[1:], B.vals[:-1], B.vals[1:]) if q > p]


def rate_at_atom(pieces, y):
    """Mean of the one-sided limits of B at y; at age 0 the value B(0+)."""

    def limit(z, right):
        for p, q, vp, vq in pieces:
            if (p <= z < q) if right else (p < z <= q):
                return vp + (vq - vp) * (z - p) / (q - p)
        return 0.0

    for p, q, _, _ in pieces:
        for e in (p, q):
            if abs(y - e) <= 1e-9 * max(1.0, e):
                y = e
    if y == 0.0:
        return limit(0.0, True)
    return 0.5 * (limit(y, False) + limit(y, True))


def simpson_forcing(B, mu, s):
    """Integral of B(x + s) d mu(x) by Simpson's rule on merged breakpoints.

    The grid nodes are merged with the shifted panel edges; between two
    consecutive cut points the rate and the density are both linear, so the
    integrand is quadratic and Simpson's rule is exact.
    """
    pieces = law_pieces(B)
    h, n = mu.h, mu.node_count
    left, right = np.array(mu.density[:-1]), np.array(mu.density[1:])
    for x, lo, hi in mu.jumps:
        i = int(round(x / h))
        if i < n - 1:
            left[i] = hi
        if i > 0:
            right[i - 1] = lo
    edges = [e - s for p, q, _, _ in pieces for e in (p, q)]
    cuts = np.unique(np.concatenate([mu.nodes, [e for e in edges if 0.0 < e < mu.x_max]]))
    u, v = cuts[:-1], cuts[1:]
    mid = 0.5 * (u + v)
    cell = np.minimum((mid // h).astype(int), n - 2)
    slope = (right[cell] - left[cell]) / h
    f = np.zeros((3, mid.size))
    for row, x in enumerate((u, mid, v)):
        dens = left[cell] + slope * (x - cell * h)
        for p, q, vp, vq in pieces:
            inside = (p <= mid + s) & (mid + s < q)
            rate = vp + (vq - vp) * (x + s - p) / (q - p)
            f[row, inside] = (rate * dens)[inside]
    total = float(np.sum((v - u) / 6.0 * (f[0] + 4.0 * f[1] + f[2])))
    return total + sum(wt * rate_at_atom(pieces, loc + s) for loc, wt in mu.atoms)


def forcing_shifts(B, mu, s_max):
    """Grid shifts, random shifts, and shifts that put every panel edge just
    before and just after every atom, the domain start and a grid node."""
    h = mu.h
    pts = [0.0, 7.3 * h] + [loc for loc, _ in mu.atoms]
    near = [e - x + d for p, q, _, _ in law_pieces(B) for e in (p, q)
            for x in pts for d in (-1e-3 * h, 0.0, 1e-3 * h)]
    rng = np.random.default_rng(5)
    shifts = np.concatenate([np.arange(0.0, s_max, 4 * h), rng.uniform(0.0, s_max, 40),
                             [s for s in near if 0.0 <= s <= s_max]])
    return np.unique(shifts)


def jump_measure():
    """A smooth density with atoms at 0, inside and on every edge of TABLE_JUMP."""
    return rs.HybridMeasure.from_function(
        lambda x: np.exp(-x) * (1.0 + 0.5 * np.sin(5.0 * x)), 3.0, 0.01,
        atoms=((0.0, 0.2), (0.4, 0.3), (0.77, 0.25), (1.0, 0.1), (1.3, 0.15)),
        nonnegative=True,
    )


TABLE_JUMP = ([0.0, 0.4, 1.0, 1.3], [1.0, 3.0, 2.0, 1.5])   # jumps 1.5 -> 0 at 1.3


class TestExactForcing:
    """``birth_forcing`` against the merged-breakpoint Simpson oracle."""

    @staticmethod
    def assert_matches_oracle(B, mu, s_max=1.6):
        shifts = forcing_shifts(B, mu, s_max)
        ref = np.array([simpson_forcing(B, mu, s) for s in shifts])
        out = B.birth_forcing(mu, shifts)
        err = np.abs(out - ref).max()
        assert err <= 1e-12 * np.abs(ref).max(), f"max deviation {err:.3e}"
        return out, shifts

    def test_table_with_support_end_jump(self):
        B = BirthLaw.table(*TABLE_JUMP)
        out, shifts = self.assert_matches_oracle(B, jump_measure())
        # past the support nothing is left to give birth
        assert np.all(out[shifts > 1.3 + 1e-9] == 0.0)

    def test_density_with_jump_records(self):
        mu = jump_measure()
        mu = rs.HybridMeasure(mu.h, mu.density, mu.atoms,
                              jumps=((0.5, 0.2, 1.4), (1.2, 0.9, 0.1), (2.0, 0.0, 0.7)),
                              nonnegative=True)
        self.assert_matches_oracle(BirthLaw.table(*TABLE_JUMP), mu)

    def test_smooth_table(self):
        B = BirthLaw.table([0.0, 0.5, 1.0, 1.5], [1.0, 3.0, 2.0, 0.0])
        self.assert_matches_oracle(B, jump_measure(), s_max=1.8)

    def test_indicator_through_panel_formula(self):
        B = BirthLaw.indicator(2.5, 0.3, 1.1)
        mu = rs.HybridMeasure.from_function(
            lambda x: 1.0 + x, 3.0, 0.01,
            atoms=((0.0, 0.2), (0.3, 0.3), (0.55, 0.1), (1.1, 0.4)), nonnegative=True)
        self.assert_matches_oracle(B, mu, s_max=1.4)

    def test_indicator_from_age_zero_counts_newborn_atom(self):
        B = BirthLaw.indicator(2.0, 0.0, 1.0)
        mu = rs.HybridMeasure.point_mass(0.0, 3.0, 0.01, 0.5)
        out, _ = self.assert_matches_oracle(B, mu, s_max=1.2)
        assert out[0] == 1.0


def full_birth_forcing(B, mu, shifts):
    """The panel-moment forcing evaluated at every shift, the support end ignored."""
    shifts = np.asarray(shifts, dtype=float)
    locs = np.array([a[0] for a in mu.atoms])
    wts = np.array([a[1] for a in mu.atoms])
    _, _, c0, c1 = B._panels
    ys = np.array(B.breakpoints())[:, None] - shifts
    m0 = np.diff(ac_cumulative(mu, ys), axis=0)
    m1 = np.diff(ac_first_moment(mu, ys), axis=0)
    c0, c1 = c0[:, None], c1[:, None]
    out = ((c0 + c1 * shifts) * m0 + c1 * m1).sum(axis=0)
    if locs.size:
        out = out + B.quad_values(locs[None, :] + shifts[:, None]) @ wts
    return out


class TestForcingSupportBound:
    """Shifts past ``live_end`` are exact zeros; live shifts are the full evaluation."""

    @staticmethod
    def assert_bounded(B, mu, shifts):
        out, full = B.birth_forcing(mu, shifts), full_birth_forcing(B, mu, shifts)
        live = shifts <= B.live_end
        assert live.any() and not live.all()
        assert np.array_equal(out[live], full[live])  # bit for bit
        assert np.all(out[~live] == 0.0) and np.all(full[~live] == 0.0)
        return out

    @pytest.mark.parametrize("law", [TABLE_JUMP, ([0.0, 0.5, 1.0, 1.5], [1.0, 3.0, 2.0, 0.0])],
                             ids=["support-end-jump", "smooth"])
    def test_table_laws(self, law):
        self.assert_bounded(BirthLaw.table(*law), jump_measure(), np.arange(301) * 0.01)

    def test_moments_read_the_datum_up_to_the_support_end(self):
        # off-grid shifts and jump records on both sides of the support end
        # 1.3: the cumulative sums stop a few cells past it, with the same bits
        mu = jump_measure()
        mu = rs.HybridMeasure(mu.h, mu.density, mu.atoms, nonnegative=True,
                              jumps=((0.5, 0.2, 1.4), (1.3, 0.9, 0.1), (1.31, 0.1, 0.6),
                                     (1.32, 0.6, 0.2), (1.33, 0.2, 0.5), (2.0, 0.0, 0.7)))
        B = BirthLaw.table(*TABLE_JUMP)
        self.assert_bounded(B, mu, np.concatenate([[-0.0123], forcing_shifts(B, mu, 1.6)]))

    def test_live_end_snaps_like_quad_values(self):
        # 700 * 0.001 is 0.7000000000000001, a rounding error past the support
        # end: the atom at age 0 still sits on the jump and takes the mean rate
        B = BirthLaw.indicator(2.0, 0.0, 0.7)
        mu = rs.HybridMeasure.point_mass(0.0, 3.0, 0.001, 0.5)
        shifts = np.arange(1001) * 0.001
        assert shifts[700] > B.support_end and shifts[700] <= B.live_end < shifts[701]
        out = self.assert_bounded(B, mu, shifts)
        assert out[700] == 0.5 and out[699] == 1.0

    def test_constant_law_has_no_end(self):
        assert BirthLaw.constant(1.0).live_end == math.inf


# -- exact dual normalization against the Simpson oracle ---------------------


def simpson_dual_mass(B, lam, phi):
    """Integral of N phi by Simpson's rule, 80 panels per unit of lam x.

    The window ends at the support end or at 40 / lam, past which N phi is
    below exp(-40) of its size; a constant law adds its closed-form tail.
    """
    N = rs.eigen_N(lam)
    x_hi = 40.0 / lam if B.support_end is None else min(B.support_end, 40.0 / lam)
    panels = max(4000, math.ceil(80.0 * lam * x_hi))
    quad = composite_simpson(lambda x: N(x) * phi(x), 0.0, x_hi, panels, B.breakpoints())
    if B.kind == "constant":
        quad += phi(x_hi) * math.exp(-lam * x_hi)
    return quad


def laws_built_here():
    """Every birth law this file builds, the near-critical one included."""
    laws = {f"constant-{beta}": BirthLaw.constant(beta) for beta in (1.0, 2.5)}
    laws.update({f"indicator-{beta}-{lo}-{hi}": BirthLaw.indicator(beta, lo, hi)
                 for beta, lo, hi in [(2.0, 0.0, 1.0), (200.0, 0.0, 1.0), (1e5, 0.0, 1.0),
                                      (2.0, 0.0, 0.7), *INDICATORS]})
    laws.update({f"random-{i}": B for i, B in enumerate(random_indicators())})
    tables = {"table": ([0.0, 0.5, 1.0, 2.0], [0.0, 2.0, 2.0, 0.0]),
              "inner-jump": ([0.0, 0.5, 0.5, 1.0, 1.5], [1.0, 3.0, 1.0, 2.0, 0.0]),
              "flat-repeat": ([0.0, 0.5, 0.5, 1.0], [3.0, 3.0, 3.0, 2.0]),
              "support-end-jump": TABLE_JUMP,
              "smooth": ([0.0, 0.5, 1.0, 1.5], [1.0, 3.0, 2.0, 0.0]),
              "near-critical": NEAR_CRITICAL_LAW}
    laws.update({name: BirthLaw.table(*law) for name, law in tables.items()})
    return laws


LAWS_BUILT_HERE = laws_built_here()
NEAR_CRITICAL = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="lambda0 = 1.7e-3: the c1 / lambda^2 terms of the panel antiderivatives cancel, "
           "exact 1 + 1.1e-7 against Simpson 1 - 1.8e-8")


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=NEAR_CRITICAL) if name == "near-critical" else name
    for name in sorted(LAWS_BUILT_HERE)])
def test_exact_dual_mass_matches_simpson(name):
    # lambda0 phi0 tail_moment is the integral of N phi; the residual is its gap to 1
    B = LAWS_BUILT_HERE[name]
    lam = rs.solve_lambda0(B)
    phi, phi0 = rs.eigen_phi(B, lam)
    exact = lam * phi0 * B.tail_moment(lam)
    oracle = simpson_dual_mass(B, lam, phi)
    assert abs(exact - oracle) <= 1e-11, (exact, oracle)
