"""The diagnostic sweep against the per-snapshot functionals it replaced.

``reference_gre_functional``, ``reference_dissipation_J``,
``reference_jensen_defect`` and ``reference_distance`` are the former
one-measure implementations, kept verbatim as oracles (the jensen one
without its input checks), applied to ``evolve(traj, t)``.  The sweep
builds no snapshot: it sums weights against windows of the time-invariant
label arrays density/N (``transport.characteristic_labels``), which adds
the same terms in another order, so every column must agree with the
oracles to ``TOL * max(1, |oracle|)``.  The sweep puts all of its samples
on one grid, and the oracles see the snapshots on that grid
(``oracles.on_sweep_grid``).  The one-measure functionals left
in ``src/`` (``gre_functional``, ``jensen_defect``) share the oracles'
arithmetic and must reproduce them bit for bit (``==``).
"""
import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

import renewalsim as rs
from renewalsim import HybridMeasure, convergence
from renewalsim.cli import main
from renewalsim.convergence import _BLOCK, _TAIL_EXP, _node_weights
from renewalsim.errors import EntropyError, TransportError
from renewalsim.measures import _panel_sides
from renewalsim.transport import characteristic_labels

from oracles import linear_combination, on_sweep_grid, stationary_measure, weighted_variation

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
    eq = stationary_measure(spectral, snap.x_max, snap.h, mass=m0)
    diff = linear_combination(1.0, snap, -1.0, eq)
    return weighted_variation(diff, eta, breakpoints=(t,))


TOL = 1e-12


def assert_close(value, oracle, what):
    assert abs(value - oracle) <= TOL * max(1.0, abs(oracle)), (what, value, oracle)


def assert_sweep_matches_oracles(traj, times, etas=None):
    sp, B = traj.spectral, traj.birth_law
    etas = etas or {"phi": sp.phi, "one": None, "ones": ones}
    diag = rs.sample_diagnostics(traj, times, INTEGRANDS, etas)
    traj = on_sweep_grid(traj, times)
    assert diag["m0"] == rs.integrate(traj.initial, sp.phi)
    for i, t in enumerate(times):
        snap = rs.evolve(traj, t)
        for name, eta in etas.items():
            assert_close(diag[f"D_{name}"][i], reference_distance(traj, t, eta), (name, t))
        m_k = rs.integrate(snap, B.quad_values) / sp.N(0.0)
        assert_close(diag["m_k"][i], m_k, ("m_k", t))
        conserved = rs.integrate(snap, sp.phi) + rs.tail_phi_mass(traj, t)
        assert_close(diag["conserved_phi_mass"][i], conserved, ("phi mass", t))
        for H in INTEGRANDS:
            assert_close(diag[f"gre_{H.name}"][i], reference_gre_functional(snap, sp, H),
                         (H.name, t))
            assert_close(diag[f"J_{H.name}"][i], reference_dissipation_J(snap, B, sp, H),
                         (H.name, t))


def test_acceptance_scenarios_every_20th_sample(acceptance_trajectories):
    times = np.arange(0, 201, 20) * 0.05
    for _, _, _, traj in acceptance_trajectories:
        assert_sweep_matches_oracles(traj, times)


def test_table_law_with_atoms(sweep_cases):
    assert_sweep_matches_oracles(*sweep_cases["table_law"])


def test_trace_jump_records(sweep_cases):
    traj, times = sweep_cases["trace_jumps"]
    assert traj.birth_jumps
    assert any(len(rs.evolve(traj, t).jumps) >= 2 for t in times)  # seam + trace
    assert_sweep_matches_oracles(traj, times)


def test_signed_datum(sweep_cases):
    assert_sweep_matches_oracles(*sweep_cases["signed"])


def test_two_snapshot_grids(sweep_cases):
    # evolve puts these samples on two grids; the sweep puts them all on the
    # finer one, sample 0 and m0 included
    traj, times = sweep_cases["two_grids"]
    assert len({rs.evolve(traj, t).h for t in times}) == 2
    assert {rs.evolve(on_sweep_grid(traj, times), t).h for t in times} == {0.025}
    assert_sweep_matches_oracles(traj, times)


def test_one_label_table_and_one_weight_set(sweep_cases, monkeypatch):
    # however many grids evolve would use, one call builds one of each
    calls = []
    for name in ("characteristic_labels", "_LabelTable", "_node_weights", "_window_sums"):
        original = getattr(convergence, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(convergence, name, counted)
    for case in ("two_grids", "datum_jumps", "table_law"):
        traj, times = sweep_cases[case]
        calls.clear()
        rs.sample_diagnostics(traj, times, INTEGRANDS, {"phi": traj.spectral.phi, "one": None})
        assert sorted(calls) == ["_LabelTable", "_node_weights", "_window_sums",
                                 "characteristic_labels"], case


def test_datum_jump_records(sweep_cases):
    traj, times = sweep_cases["datum_jumps"]
    assert [x for x, _, _ in traj.initial.jumps] == [0.0, 1.5, 10.5]
    assert len({rs.evolve(traj, t).h for t in times}) == 2
    assert_sweep_matches_oracles(traj, times)


def test_datum_last_node_past_rounded_x_max(const_spectral):
    # the datum ends at 20000 * 0.0003 = 5.999999999999999, but the label
    # grids' last nodes, 20000 * (3 * 0.0001) and 60000 * 0.0001, round above
    # it: sample 0 and m0 still read the datum's last node value
    B, sp = const_spectral
    n0 = HybridMeasure.from_function(lambda x: np.exp(-0.1 * x), 6.0, 0.0003, nonnegative=True)
    traj = rs.birth_series(n0, B, sp, 0.0001, 0.6)
    for times in ((0.0, 0.3, 0.6), (0.0, 0.3001, 0.6)):
        assert_sweep_matches_oracles(traj, times)


def test_atom_leaving_the_domain(sweep_cases):
    traj, times = sweep_cases["atom_leaves"]
    counts = [len(rs.evolve(traj, t).atoms) for t in times]
    assert counts[0] == 2 and counts[-1] == 1
    assert_sweep_matches_oracles(traj, times)


def test_table_law_tail_with_nonzero_constant():
    # B ends at 1.5 with the value 0.5 and jumps to 0 there; past it the unit
    # weight is w N times 1, a geometric tail.  The 0.04 grid (stride 4) has
    # no node at the support end; the other two do.  The sweep puts every
    # sample on the 0.01 grid
    B = rs.BirthLaw.table([0.0, 0.3, 1.5], [2.0, 1.0, 0.5])
    sp = rs.solve_spectral(B)
    n0 = rs.HybridMeasure.from_function(lambda x: np.exp(-2.0 * x), 8.0, 0.04,
                                        atoms=((0.2, 0.4),), nonnegative=True)
    traj = rs.birth_series(n0, B, sp, 0.01, 3.0)
    times = (0.0, 0.37, 0.5, 1.02, 1.3, 2.0, 2.45, 3.0)
    assert {rs.evolve(traj, t).h for t in times} == {0.01, 0.02, 0.04}
    for spacing, n in ((0.02, 401), (0.04, 201)):
        W, _, head, dhead = _node_weights(sp, B, {"one": None}, n, spacing, True)
        assert head == math.floor(1.5 / spacing + 1e-9) + 1 and dhead == 0
        assert W[2, head] > 0.0
    assert_sweep_matches_oracles(traj, times)


def test_callable_eta_has_no_tail(sweep_cases):
    # 1 + sin(x) / 2 never settles: its head is the whole window
    traj, times = sweep_cases["datum_jumps"]
    wavy = lambda x: 1.0 + 0.5 * np.sin(x)
    *_, dhead = _node_weights(traj.spectral, traj.birth_law, {"wavy": wavy}, 601, 0.02, True)
    assert dhead == 601
    assert_sweep_matches_oracles(traj, times, {"wavy": wavy, "one": None})


@pytest.fixture(scope="module")
def long_tail(const_spectral):
    """800 e-folds of N between the oldest label and the newest."""
    B, sp = const_spectral
    x_max, T = 400.0, 400.0
    assert sp.lambda0 * (T + x_max) > 2.0 * _TAIL_EXP + sp.lambda0 * 0.2
    n0 = rs.HybridMeasure.from_function(lambda x: 0.5 * np.exp(-x) + 0.3 * np.exp(-0.2 * x),
                                        x_max, 0.2, atoms=((0.5, 0.4),), nonnegative=True)
    return (rs.birth_series(n0, B, sp, 0.1, T),
            (0.0, 3.1, 50.0, 123.3, 200.0, 333.3, 399.9, 400.0))


def test_tail_recurrence_over_several_blocks(long_tail):
    # the scaled reverse sums run in at least three blocks on the sweep's
    # grid, the finer of the two that evolve uses
    traj, times = long_tail
    assert {rs.evolve(traj, t).h for t in times} == {0.1, 0.2}
    assert on_sweep_grid(traj, times).initial.h == 0.1
    assert_sweep_matches_oracles(traj, times)


def test_label_blocks_leave_every_column_unchanged(sweep_cases, long_tail, monkeypatch):
    # the pass over label blocks carries each head window and each running
    # reverse sum across block edges: no bit may depend on the block size
    cases = [*sweep_cases.values(), long_tail]

    def columns():
        return [rs.sample_diagnostics(traj, times, INTEGRANDS,
                                      {"phi": traj.spectral.phi, "one": None, "ones": ones})
                for traj, times in cases]

    default = columns()
    longest = max(characteristic_labels(traj, 1).left.size for traj, _ in cases)
    for block in (7, 100, 4097, longest):
        monkeypatch.setattr(convergence, "_BLOCK", block)
        for want, got in zip(default, columns()):
            assert want.keys() == got.keys()
            for key in want:
                assert np.array_equal(want[key], got[key]), (block, key)


def test_sweep_memory_is_labels_plus_blocks(ind_spectral):
    # K = 40 000 steps and 48 001 nodes, with three atoms: one label array
    # pair of L = 88 001, and no row function held over all of it.  The
    # bound counts the labels three times (they and the O(L) transients of
    # building them and the node weights), two row buffers of a block plus
    # the longest head, and the weights' head columns
    B, sp = ind_spectral
    h, n = 0.00025, 48001
    xs = np.arange(n) * h
    dens = np.where((xs > 0.3) & (xs < 1.2), 1.0 / 0.9, 0.0)
    n0 = HybridMeasure(h, dens, ((0.2, 0.3), (0.45, 0.5), (0.8, 0.2)), nonnegative=True)
    traj = rs.birth_series(n0, B, sp, h, 10.0)
    times = np.arange(21) * 0.5
    etas = {"phi": sp.phi, "one": None}
    L = characteristic_labels(traj, 1).left.size
    W, _, head, dhead = _node_weights(sp, B, etas, n, h, True)
    P, F = max(head, dhead), 1 + len(INTEGRANDS)
    words = 3 * 2 * L + 2 * (F + 1) * (_BLOCK + P) + W.shape[0] * (P + 2)
    assert L == 88001 and W.shape[1] == P + 2
    tracemalloc.start()
    try:
        rs.sample_diagnostics(traj, times, INTEGRANDS, etas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * words, (peak, 8 * words)


def test_sweep_raises_where_evolve_does(sweep_cases):
    traj, times = sweep_cases["trace_jumps"]
    with pytest.raises(TransportError, match="outside"):
        rs.sample_diagnostics(traj, (0.0, traj.horizon + 0.5))
    empty = rs.sample_diagnostics(traj, (), INTEGRANDS, {"phi": traj.spectral.phi})
    assert all(empty[key].shape == (0,) for key in empty if key != "m0")
    # a trace jump over twice the trace leaves a negative left limit, which
    # evolve rejects at the jump instant and clips at every later time
    (j, _), = [jd for jd in traj.birth_jumps if jd[0] == 40]
    bad = dataclasses.replace(traj, birth_jumps=((j, 3.0 * traj.births[j]),))
    t_j = j * traj.dt
    with pytest.raises(TransportError, match="negative"):
        rs.evolve(bad, t_j)
    with pytest.raises(TransportError, match="negative"):
        rs.sample_diagnostics(bad, (0.0, t_j), INTEGRANDS)
    assert_sweep_matches_oracles(bad, times[np.abs(times - t_j) > 1e-9])


def test_single_measure_wrappers_match_oracles(ind_spectral):
    _, sp = ind_spectral
    rng = np.random.default_rng(7)
    for _ in range(5):
        mu = HybridMeasure(0.01, rng.normal(size=1201),
                           ((0.31, rng.normal()), (0.87, rng.normal())),
                           ((0.5, 0.2, -0.3),))
        for H in INTEGRANDS:
            assert rs.gre_functional(mu, sp, H) == reference_gre_functional(mu, sp, H)


def test_jensen_defect_matches_oracle():
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
        assert_close(rs.distance_to_equilibrium(traj, t),
                     reference_distance(traj, t, traj.spectral.phi), t)
        assert_close(rs.distance_to_equilibrium(traj, t, eta=ones),
                     reference_distance(traj, t, ones), t)


def test_sweep_raises_on_density_overflow():
    B = rs.BirthLaw.constant(20.0)
    sp = rs.solve_spectral(B)
    n0 = HybridMeasure.from_function(ones, 40.0, 0.05, nonnegative=True)
    traj = rs.birth_series(n0, B, sp, 0.05, 1.0)
    with pytest.raises(EntropyError, match="overflow"):
        rs.sample_diagnostics(traj, (0.0, 1.0), INTEGRANDS)


SMALL = """
[birth_law]
kind = indicator
beta = 2.0
a = 0.0
b = 1.0

[initial_measure]
density = uniform
lo = 0.0
hi = 1.0
mass = 1.0
atoms = 0.25:0.5

[numerics]
h = 0.002
dt = 0.002
T = 2.0
x_max = 4.0

[diagnostics]
integrands = abs sqrt1p pospart
eta = phi one
snapshot_times = 1.0 2.0
eps_list = 0.4 0.2 0.1
sample_dt = 0.05

[outputs]
directory = out
"""


def test_only_snapshot_files_call_evolve(tmp_path, monkeypatch, capsys):
    # the sweep builds no snapshot: verify calls evolve never, run once per file
    original = rs.transport.evolve
    calls = []

    def counted(traj, t):
        calls.append(t)
        return original(traj, t)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("renewalsim") and getattr(mod, "evolve", None) is original:
            monkeypatch.setattr(mod, "evolve", counted)
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    assert main(["verify", "--scenario", str(path)]) in (0, 3)  # T = 2 is short
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert calls == []
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    assert calls == [1.0, 2.0]
