"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""
import math
import time

import numpy as np
import pytest

import renewalsim as rs
from renewalsim import HybridMeasure
from renewalsim.errors import ScenarioError
from renewalsim.scenarios import parse_scenario


def ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- scenario suite shared by criteria 3-5 ------------------------------------

SAMPLE_TIMES = np.arange(201) * 0.05  # 201 samples over [0, 10]


@pytest.fixture(scope="module")
def suite(acceptance_trajectories):
    """Four scenarios x 201 samples: conserved mass, entropy and dissipation."""
    integrands = [rs.builtin_integrand(n) for n in ("abs", "sqrt1p", "pospart")]
    out = []
    for name, B, sp, traj in acceptance_trajectories:
        diag = rs.sample_diagnostics(traj, SAMPLE_TIMES, integrands, etas={})
        gre = {H.name: diag[f"gre_{H.name}"] for H in integrands}
        dis = {H.name: diag[f"J_{H.name}"] for H in integrands}
        out.append(dict(name=name, B=B, sp=sp, traj=traj, m0=diag["m0"],
                        conserved=diag["conserved_phi_mass"], gre=gre, dis=dis,
                        integrands=integrands))
    return out


# -- criteria ------------------------------------------------------------------


def test_criterion_1_exact_solution(dirac_benchmark):
    traj, build_seconds = dirac_benchmark
    start = time.perf_counter()

    b_err = float(np.abs(traj.births - 1.0).max())
    ac_err = 0.0
    atom_err = 0.0
    for t in (1.0, 2.5, 5.0, 10.0):
        snap = rs.evolve(traj, t)
        xs = snap.nodes
        newborn = (xs > 0) & (xs < t)
        ac_err = max(ac_err, float(
            np.abs(snap.density[newborn] - np.exp(-xs[newborn])).max()))
        beyond = xs > t
        ac_err = max(ac_err, float(np.abs(snap.density[beyond]).max()))
        (loc, wt), = snap.atoms
        atom_err = max(atom_err, abs(wt - math.exp(-t)))
    elapsed = build_seconds + (time.perf_counter() - start)

    ok = b_err <= 1e-6 and ac_err <= 1e-6 and atom_err <= 1e-12 and elapsed <= 10.0
    report(1, "constant-rate exact solution", ok,
           f"sup|b-1|={b_err:.2e} ac={ac_err:.2e} atom={atom_err:.2e} "
           f"runtime={elapsed:.2f}s")


def test_criterion_2_exponential_decay(dirac_benchmark):
    traj, _ = dirac_benchmark
    ts = [t for t in SAMPLE_TIMES if 1.0 - 1e-12 <= t <= 8.0 + 1e-12]
    ds = [rs.distance_to_equilibrium(traj, t, eta=ones) for t in ts]
    rel = max(abs(d - 2.0 * math.exp(-t)) / (2.0 * math.exp(-t))
              for t, d in zip(ts, ds))
    fit = rs.fit_decay_rate(list(zip(ts, ds)), eta_name="one")
    ok = rel <= 1e-4 and abs(fit.sigma_hat - 1.0) <= 0.01 and fit.r_squared >= 0.9999
    report(2, "distance decays like 2 exp(-t)", ok,
           f"max rel err={rel:.2e} sigma={fit.sigma_hat:.6f} r2={fit.r_squared:.7f}")


def test_criterion_3_conservation(suite):
    details = []
    ok = True
    for case in suite:
        drift = float(np.abs(case["conserved"] - case["m0"]).max() / abs(case["m0"]))
        ok = ok and drift <= 1e-6
        details.append(f"{case['name']}={drift:.2e}")
    report(3, "dual-weighted mass conserved", ok, " ".join(details))


def test_criterion_4_entropy_monotone(suite):
    details = []
    ok = True
    for case in suite:
        worst = max(float(np.diff(series).max())
                    for series in case["gre"].values())
        ok = ok and worst <= 1e-8
        details.append(f"{case['name']}={worst:.2e}")
    report(4, "entropy non-increasing (201 samples, 3 integrands)", ok,
           " ".join(details))


def test_criterion_5_dissipation(suite):
    details = []
    ok = True
    for case in suite:
        min_j = min(float(series.min()) for series in case["dis"].values())
        ok = ok and min_j >= -1e-10
        for H in case["integrands"]:
            total = float(np.trapezoid(case["dis"][H.name], dx=0.05))
            bound = case["gre"][H.name][0] + 1e-6
            ok = ok and total <= bound
        details.append(f"{case['name']} minJ={min_j:.1e}")
    report(5, "dissipation nonnegative, cumulative below initial entropy", ok,
           " ".join(details))


def test_criterion_6_spectral(ind_spectral):
    B, sp = ind_spectral

    def f(lam):
        return 2.0 * (1.0 - math.exp(-lam)) / lam - 1.0

    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    lam_ok = abs(sp.lambda0 - oracle) <= 1e-10

    h = 5e-4
    xs = np.arange(1, int(round(1.0 / h))) * h
    xs = xs[np.abs(xs - 1.0) > 2 * h]
    resid = (-(sp.phi(xs + h) - sp.phi(xs - h)) / (2 * h)
             + sp.lambda0 * sp.phi(xs) - sp.phi(0.0) * B(xs))
    ode_ok = float(np.abs(resid).max()) <= 1e-6 * B.sup_bound * sp.phi0
    norm_ok = sp.residual_normalization <= 1e-8

    base = """
[birth_law]
kind = constant
beta = {beta}
[initial_measure]
atoms = 0.25:1.0
[numerics]
h = 0.005
dt = 0.005
T = 1.0
x_max = {xmax}
[outputs]
directory = out
"""
    rejected = False
    try:
        parse_scenario(base.format(beta=0.5, xmax=2.0))
    except ScenarioError as err:
        rejected = any("net reproduction below one" in m for m in err.errors)
    const_ok = rejected
    for beta in (1.0, 2.5):
        spc = rs.solve_spectral(rs.BirthLaw.constant(beta))
        const_ok = const_ok and abs(spc.lambda0 - beta) <= 1e-10
        const_ok = const_ok and float(
            np.abs(spc.phi(np.linspace(0.0, 20.0 / beta, 500)) - 1.0).max()) <= 1e-8

    ok = lam_ok and ode_ok and norm_ok and const_ok
    report(6, "spectral correctness", ok,
           f"|lam-oracle|={abs(sp.lambda0 - oracle):.1e} ode_resid_ok={ode_ok} "
           f"norm_resid={sp.residual_normalization:.1e} constant_family_ok={const_ok}")


def test_criterion_7_mollification_ladder(const_spectral):
    _, sp = const_spectral
    n0 = HybridMeasure.point_mass(1.0, 6.0, 0.005)
    eps = (0.4, 0.2, 0.1, 0.05)
    rep = rs.reshetnyak_harness(n0, sp, rs.builtin_integrand("abs"), eps,
                                functional_tol=1e-2)
    angle_ok = (rep.angle_gaps[-1] < rep.angle_gaps[0]
                and rep.angle_gaps[-1] < 0.02 * rep.angle_reference)
    gre_ok = rep.gre_gaps[-1] < 1e-2
    ok = angle_ok and gre_ok and rep.passed
    report(7, "mollification ladder", ok,
           f"angle gaps {rep.angle_gaps[0]:.3f}->{rep.angle_gaps[-1]:.3f} "
           f"(ref {rep.angle_reference:.1f}), entropy gap {rep.gre_gaps[-1]:.1e}")


def test_criterion_8_jensen_defect():
    f = rs.builtin_integrand("sqrt1p")
    fid = rs.builtin_integrand("id")
    psi = lambda x: np.full_like(np.asarray(x, dtype=float), 0.2)

    eq_worst = 0.0
    for c in (0.3, 1.0, 7.0):
        mu = HybridMeasure.from_function(lambda x: c * ones(x), 5.0, 0.005)
        eq_worst = max(eq_worst, abs(rs.jensen_defect(mu, psi, f)))
    eq_ok = eq_worst <= 1e-10

    contaminated = HybridMeasure(0.005, np.ones(1001), ((2.5, 1.0),))
    pos = rs.jensen_defect(contaminated, psi, f)
    pos_ok = pos > 1e-3

    rng = np.random.default_rng(12)
    id_worst = 0.0
    for _ in range(20):
        mu = HybridMeasure(0.005, rng.normal(size=1001),
                           ((float(rng.uniform(0.1, 4.9)), float(rng.normal())),))
        id_worst = max(id_worst, abs(rs.jensen_defect(mu, psi, fid)))
    id_ok = id_worst <= 1e-12

    ok = eq_ok and pos_ok and id_ok
    report(8, "measure-level Jensen defect", ok,
           f"equality={eq_worst:.1e} contaminated={pos:.3e} linear={id_worst:.1e}")


def test_criterion_9_flat_metric():
    linprog = pytest.importorskip("scipy.optimize").linprog

    def lp(locs, w):
        n = len(locs)
        rows, rhs = [], []
        for i in range(n - 1):
            gap = locs[i + 1] - locs[i]
            row = np.zeros(n)
            row[i + 1], row[i] = 1.0, -1.0
            rows.append(row.copy())
            rhs.append(gap)
            rows.append(-row)
            rhs.append(gap)
        res = linprog(-np.asarray(w), A_ub=np.array(rows) if rows else None,
                      b_ub=np.array(rhs) if rows else None,
                      bounds=[(-1.0, 1.0)] * n, method="highs")
        assert res.success
        return -res.fun

    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        na, nb = rng.integers(1, 4), rng.integers(1, 4)
        mk = lambda n: HybridMeasure(
            2.0, np.zeros(5),
            tuple((float(l), float(w)) for l, w in
                  zip(np.unique(rng.uniform(0, 8, n)), rng.normal(0, 2, n))))
        mu, nu = mk(na), mk(nb)
        locs = [a[0] for a in mu.atoms] + [a[0] for a in nu.atoms]
        wts = [a[1] for a in mu.atoms] + [-a[1] for a in nu.atoms]
        uloc, inv = np.unique(locs, return_inverse=True)
        uw = np.bincount(inv, weights=np.asarray(wts))
        keep = uw != 0.0
        want = lp(uloc[keep], uw[keep]) if keep.any() else 0.0
        worst = max(worst, abs(rs.flat_distance(mu, nu) - want))
    lp_ok = worst <= 1e-6

    pin_ok = True
    for gap, expect in ((0.5, 0.5), (1.5, 1.5), (5.0, 2.0)):
        a = HybridMeasure.point_mass(0.0, 8.0, 0.5)
        b = HybridMeasure.point_mass(gap, 8.0, 0.5)
        pin_ok = pin_ok and abs(rs.flat_distance(a, b) - expect) <= 1e-12

    ok = lp_ok and pin_ok
    report(9, "flat metric against LP oracle", ok,
           f"max |dp-lp|={worst:.1e} pinned min(gap,2) ok={pin_ok}")


def test_criterion_10_refinement_order(const_spectral):
    B, sp = const_spectral
    n0 = HybridMeasure.from_function(
        lambda x: np.exp(-0.5 * ((x - 2.0) / 0.4) ** 2), 20.0, 0.01,
        nonnegative=True)
    ends = []
    for dt in (0.01, 0.005, 0.0025, 0.00125):
        traj = rs.birth_series(n0, B, sp, dt, 5.0)
        ends.append(traj.births[-1])
    d1, d2, d3 = (abs(a - b) for a, b in zip(ends[:-1], ends[1:]))
    orders = (math.log2(d1 / d2), math.log2(d2 / d3))
    ok = min(orders) >= 1.8
    report(10, "time-step refinement order", ok,
           f"orders {orders[0]:.2f}, {orders[1]:.2f}")
