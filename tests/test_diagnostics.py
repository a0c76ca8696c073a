"""The diagnostic sweep against the per-snapshot functionals it replaced.

``reference_gre_functional``, ``reference_dissipation_J``,
``reference_jensen_defect`` and ``reference_distance`` are the former
one-measure implementations, kept verbatim as oracles (the jensen one
without its input checks).  The sweep and the thin wrappers must reproduce them
bit for bit (``==``), because the CLI artifacts are byte-stable.
"""
import math

import numpy as np
import pytest

import renewalsim as rs
from renewalsim import HybridMeasure
from renewalsim.errors import EntropyError
from renewalsim.measures import _panel_sides

INTEGRANDS = [rs.builtin_integrand(n) for n in ("abs", "sqrt1p", "pospart")]


def ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _sided_samples(mu):
    nodes = mu.nodes
    L, R = _panel_sides(mu)
    xs = np.concatenate([nodes[:-1], nodes[1:]])
    vals = np.concatenate([L, R])
    w = np.full(xs.size, mu.h / 2.0)
    return xs, vals, w


def reference_gre_functional(mu, spectral, H):
    xs, vals, w = _sided_samples(mu)
    Nx = spectral.N(xs)
    with np.errstate(all="ignore"):
        ratio = vals / Nx
    if not np.all(np.isfinite(ratio)) or np.any(np.abs(ratio) > 1e300):
        raise EntropyError("density/N overflows: domain too long for this rate")
    phix = spectral.phi(xs)
    total = float(np.sum(w * phix * Nx * np.asarray(H.H(ratio), dtype=float)))
    for loc, wt in mu.atoms:
        total += spectral.phi(loc) * H.H_inf(math.copysign(1.0, wt)) * abs(wt)
    return total


def reference_dissipation_J(mu, B, spectral, H):
    if spectral.residual_euler_lotka > 1e-8:
        raise EntropyError("reference measure is not normalized: eigen residual too big")
    lam = spectral.lambda0
    n_zero = lam  # N(0)
    xs, vals, w = _sided_samples(mu)
    Nx = spectral.N(xs)
    ratio = vals / Nx
    weights = w * B.quad_values(xs) * Nx / n_zero
    wsum = float(weights.sum())
    if not wsum > 0.0:
        raise EntropyError("reference measure has no mass on this grid")
    weights = weights / wsum

    term1 = float(np.sum(weights * np.asarray(H.H(ratio), dtype=float)))
    arg = float(np.sum(weights * ratio))
    term2 = 0.0
    for loc, wt in mu.atoms:
        psi = float(B.quad_values(np.array([loc]))[0]) / n_zero
        term2 += psi * H.H_inf(math.copysign(1.0, wt)) * abs(wt)
        arg += psi * wt
    return term1 + term2 - float(H.H(np.asarray(arg, dtype=float)))


def reference_jensen_defect(mu, psi, f):
    xs, vals, w = _sided_samples(mu)
    psix = np.asarray(psi(xs), dtype=float)
    weights = w * psix / float(np.sum(w * psix))
    term1 = float(np.sum(weights * np.asarray(f.H(vals), dtype=float)))
    arg = float(np.sum(weights * vals))
    term2 = 0.0
    for loc, wt in mu.atoms:
        pl = float(np.asarray(psi(np.asarray([loc])), dtype=float)[0])
        term2 += pl * f.H_inf(math.copysign(1.0, wt)) * abs(wt)
        arg += pl * wt
    return term1 + term2 - float(f.H(np.asarray(arg, dtype=float)))


def reference_distance(traj, t, eta):
    spectral = traj.spectral
    m0 = rs.integrate(traj.initial, spectral.phi)
    snap = rs.evolve(traj, t)
    eq = rs.stationary_measure(spectral, snap.x_max, snap.h, mass=m0)
    diff = rs.linear_combination(1.0, snap, -1.0, eq)
    return rs.weighted_variation(diff, eta, breakpoints=(t,))


def assert_sweep_matches_oracles(traj, times):
    sp, B = traj.spectral, traj.birth_law
    etas = {"phi": sp.phi, "one": None, "ones": ones}
    diag = rs.sample_diagnostics(traj, times, INTEGRANDS, etas)
    assert diag["m0"] == rs.integrate(traj.initial, sp.phi)
    for i, t in enumerate(times):
        snap = rs.evolve(traj, t)
        for name, eta in etas.items():
            assert diag[f"D_{name}"][i] == reference_distance(traj, t, eta), (name, t)
        m_k = rs.integrate(snap, B.quad_values) / sp.N(0.0)
        assert diag["m_k"][i] == m_k, t
        conserved = rs.integrate(snap, sp.phi) + rs.tail_phi_mass(traj, t)
        assert diag["conserved_phi_mass"][i] == conserved, t
        for H in INTEGRANDS:
            assert diag[f"gre_{H.name}"][i] == reference_gre_functional(snap, sp, H)
            assert diag[f"J_{H.name}"][i] == reference_dissipation_J(snap, B, sp, H)


def test_acceptance_scenarios_every_20th_sample(acceptance_trajectories):
    times = np.arange(0, 201, 20) * 0.05
    for _, _, _, traj in acceptance_trajectories:
        assert_sweep_matches_oracles(traj, times)


def test_table_law_with_atoms():
    B = rs.BirthLaw.table([0.0, 0.5, 1.0, 1.5], [1.0, 3.0, 2.0, 0.5])
    sp = rs.solve_spectral(B)
    n0 = HybridMeasure.from_function(
        lambda x: np.exp(-((x - 0.7) / 0.2) ** 2), 6.0, 0.002,
        atoms=((0.9, 0.3), (1.2, 0.1)), nonnegative=True)
    traj = rs.birth_series(n0, B, sp, 0.002, 4.0)
    assert_sweep_matches_oracles(traj, np.arange(0.0, 4.01, 0.25))


def test_trace_jump_records(ind_spectral):
    # atoms crossing the rate jump at age 1 make the birth trace jump
    B, sp = ind_spectral
    n0 = HybridMeasure(0.01, np.full(1201, 0.2), ((0.25, 0.5), (0.6, 0.3)),
                       nonnegative=True)
    traj = rs.birth_series(n0, B, sp, 0.01, 3.0)
    assert traj.birth_jumps
    times = np.arange(0.0, 3.01, 0.1)
    assert any(len(rs.evolve(traj, t).jumps) >= 2 for t in times)  # seam + trace
    assert_sweep_matches_oracles(traj, times)


def test_signed_datum(ind_spectral):
    B, sp = ind_spectral
    n0 = HybridMeasure.from_function(
        lambda x: np.sin(3.0 * x) * np.exp(-x), 12.0, 0.005,
        atoms=((0.3, -0.4), (0.55, 0.2)))
    traj = rs.birth_series(n0, B, sp, 0.005, 4.0)
    assert_sweep_matches_oracles(traj, np.arange(0.0, 4.01, 0.2))


def test_two_snapshot_grids(const_spectral):
    # an even number of steps keeps the datum's spacing, an odd one needs
    # half of it: the sweep keeps one set of grid arrays per spacing
    B, sp = const_spectral
    n0 = HybridMeasure.from_function(lambda x: np.exp(-x), 20.0, 0.05,
                                     atoms=((0.5, 1.0),), nonnegative=True)
    traj = rs.birth_series(n0, B, sp, 0.025, 2.0)
    times = (0.0, 0.275, 0.5, 0.775, 1.0, 1.525, 1.75)
    assert len({rs.evolve(traj, t).h for t in times}) == 2
    assert_sweep_matches_oracles(traj, times)


def test_single_measure_wrappers_match_oracles(ind_spectral):
    B, sp = ind_spectral
    rng = np.random.default_rng(7)
    for _ in range(5):
        mu = HybridMeasure(0.01, rng.normal(size=1201),
                           ((0.31, rng.normal()), (0.87, rng.normal())),
                           ((0.5, 0.2, -0.3),))
        for H in INTEGRANDS:
            assert rs.gre_functional(mu, sp, H) == reference_gre_functional(mu, sp, H)
            assert rs.dissipation_J(mu, B, sp, H) == reference_dissipation_J(mu, B, sp, H)


def test_jensen_defect_matches_oracle():
    # shares its Jensen-gap kernel with dissipation_J
    rng = np.random.default_rng(9)
    psi = lambda x: np.full_like(np.asarray(x, dtype=float), 0.2)  # uniform on [0, 5]
    for _ in range(5):
        mu = HybridMeasure(0.005, rng.normal(size=1001),
                           ((float(rng.uniform(0.1, 4.9)), float(rng.normal())),),
                           ((2.5, 0.4, -0.1),))
        for f in INTEGRANDS:
            assert rs.jensen_defect(mu, psi, f) == reference_jensen_defect(mu, psi, f)


def test_distance_to_equilibrium_matches_oracle(dirac_benchmark):
    traj, _ = dirac_benchmark
    for t in (0.0, 0.5, 3.0):
        assert rs.distance_to_equilibrium(traj, t) == reference_distance(
            traj, t, traj.spectral.phi)
        assert rs.distance_to_equilibrium(traj, t, eta=ones) == reference_distance(
            traj, t, ones)


def test_sweep_raises_on_density_overflow():
    B = rs.BirthLaw.constant(20.0)
    sp = rs.solve_spectral(B)
    n0 = HybridMeasure.from_function(ones, 40.0, 0.05, nonnegative=True)
    traj = rs.birth_series(n0, B, sp, 0.05, 1.0)
    with pytest.raises(EntropyError, match="overflow"):
        rs.sample_diagnostics(traj, (0.0, 1.0), INTEGRANDS)
