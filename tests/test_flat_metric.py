import struct

import numpy as np
import pytest

import renewalsim as rs
from renewalsim import HybridMeasure, measures
from renewalsim.cli import main
from renewalsim.measures import _chain_max, _support_points

from oracles import linear_combination, lp_oracle

pytest.importorskip("scipy.optimize")


def reference_chain_max(locs: np.ndarray, w: np.ndarray) -> float:
    """Maximize sum(w_i f_i) over |f_i| <= 1, |f_{i+1} - f_i| <= gap_i.

    Forward sweep of the exact dynamic program on the concave piecewise
    linear value function V_k(y) = best total with f_k = y: slide the top
    apart by the gap (max-filter), clamp the domain back to [-1, 1], then
    tilt by the next weight.  The answer is the final peak value.

    The value function is rebuilt as breakpoint and value arrays at every
    point; kept as the oracle for the slope-trick sweep in ``_chain_max``.
    """
    xs = np.array([-1.0, 1.0])
    vs = w[0] * xs
    for k in range(1, locs.size):
        g = locs[k] - locs[k - 1]
        top = vs.max()
        flat = np.flatnonzero(vs == top)
        pl, pr = flat[0], flat[-1]
        xs = np.concatenate([xs[:pl + 1] - g, xs[pr:] + g])
        vs = np.concatenate([vs[:pl + 1], vs[pr:]])
        vl = np.interp(-1.0, xs, vs)
        vr = np.interp(1.0, xs, vs)
        keep = (xs > -1.0) & (xs < 1.0)
        xs = np.concatenate([[-1.0], xs[keep], [1.0]])
        vs = np.concatenate([[vl], vs[keep], [vr]])
        vs = vs + w[k] * xs
    return float(vs.max())


def assert_matches_reference(locs, w):
    got = _chain_max(locs, w)
    want = reference_chain_max(locs, w)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


def random_atomic(rng, max_atoms=6, span=8.0):
    n = rng.integers(1, max_atoms + 1)
    locs = np.unique(rng.uniform(0.0, span, n))
    wts = rng.normal(0.0, 2.0, locs.size)
    atoms = tuple((float(l), float(w)) for l, w in zip(locs, wts))
    return HybridMeasure(span / 4, np.zeros(5), atoms)


def test_identical_measures_distance_zero():
    mu = HybridMeasure.from_function(lambda x: np.exp(-x), 4.0, 0.1,
                                     atoms=((1.5, 2.0),))
    # node weights cancel up to one rounding step when the atom sits on a node
    assert abs(rs.flat_distance(mu, mu)) <= 1e-12


@pytest.mark.parametrize("gap,expected", [(0.5, 0.5), (1.5, 1.5), (5.0, 2.0)])
def test_point_mass_pair_min_gap_two(gap, expected):
    a = HybridMeasure.point_mass(0.0, 8.0, 0.5)
    b = HybridMeasure.point_mass(gap, 8.0, 0.5)
    assert rs.flat_distance(a, b) == pytest.approx(expected, abs=1e-12)


def test_agrees_with_lp_oracle_on_atomic_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        mu = random_atomic(rng)
        nu = random_atomic(rng)
        got = rs.flat_distance(mu, nu)
        locs = [a[0] for a in mu.atoms] + [a[0] for a in nu.atoms]
        wts = [a[1] for a in mu.atoms] + [-a[1] for a in nu.atoms]
        order = np.argsort(locs)
        locs = np.asarray(locs)[order]
        wts = np.asarray(wts)[order]
        # merge duplicate support points for the oracle
        uloc, inv = np.unique(locs, return_inverse=True)
        uw = np.bincount(inv, weights=wts)
        want = lp_oracle(uloc, uw)
        assert got == pytest.approx(want, abs=1e-6)


def test_agrees_with_lp_oracle_on_density_instances():
    rng = np.random.default_rng(19)
    for _ in range(10):
        mu = HybridMeasure(0.5, rng.normal(size=9))
        nu = HybridMeasure(0.5, rng.normal(size=9), ((1.7, rng.normal()),))
        l1, w1 = _support_points(mu)
        l2, w2 = _support_points(nu)
        locs = np.concatenate([l1, l2])
        wts = np.concatenate([w1, -w2])
        uloc, inv = np.unique(locs, return_inverse=True)
        uw = np.bincount(inv, weights=wts)
        keep = uw != 0.0
        want = lp_oracle(uloc[keep], uw[keep])
        assert rs.flat_distance(mu, nu) == pytest.approx(want, abs=1e-6)


def test_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(23)
    for _ in range(60):
        a, b, c = (random_atomic(rng, max_atoms=4) for _ in range(3))
        dab = rs.flat_distance(a, b)
        dbc = rs.flat_distance(b, c)
        dac = rs.flat_distance(a, c)
        assert dab == pytest.approx(rs.flat_distance(b, a), abs=1e-9)
        assert dac <= dab + dbc + 1e-9


def test_positive_homogeneity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        mu = random_atomic(rng, max_atoms=3)
        nu = random_atomic(rng, max_atoms=3)
        zero = HybridMeasure.zero(8.0, 2.0)
        two_mu = linear_combination(2.0, mu, 0.0, zero)
        two_nu = linear_combination(2.0, nu, 0.0, zero)
        assert rs.flat_distance(two_mu, two_nu) == pytest.approx(
            2.0 * rs.flat_distance(mu, nu), abs=1e-9
        )


def difference_bounds(mu, nu):
    """|total| and total variation of the discretized difference mu - nu."""
    la, wa = _support_points(mu)
    lb, wb = _support_points(nu)
    _, inv = np.unique(np.concatenate([la, lb]), return_inverse=True)
    diff = np.bincount(inv, weights=np.concatenate([wa, -wb]))
    return abs(diff.sum()), np.abs(diff).sum()


def test_cli_distance_on_large_snapshots(tmp_path, capsys):
    # 250 001 nodes each: the support of the difference has no size cap
    h = 4e-5
    a = HybridMeasure.from_function(lambda x: np.exp(-x) * (1.0 + 0.3 * np.sin(7.0 * x)),
                                    10.0, h, atoms=((0.5, 0.4), (2.0, 0.1)))
    b = HybridMeasure.from_function(lambda x: 1.1 * np.exp(-1.1 * x), 10.0, h,
                                    atoms=((0.75, 0.2),))
    assert a.node_count == b.node_count == 250_001
    pa, pb = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    rs.write_snapshot(a, pa)
    rs.write_snapshot(b, pb)
    capsys.readouterr()
    assert main(["distance", pa, pb]) == 0
    d_ab = capsys.readouterr().out.strip()
    assert main(["distance", pb, pa]) == 0
    d_ba = capsys.readouterr().out.strip()
    assert d_ab == d_ba
    lo, hi = difference_bounds(a, b)  # the CSV round trip is exact
    assert lo * (1 - 1e-9) <= float(d_ab) <= hi * (1 + 1e-9)


def test_seam_on_the_last_node_weighs_its_left_limit(seam_at_x_max):
    # a nonnegative measure lies at its mass from zero; the last node's
    # jump record has its right limit past the domain
    snap = rs.evolve(seam_at_x_max, seam_at_x_max.horizon)
    exact = measures.ac_cumulative(snap, snap.x_max)
    zero = HybridMeasure.zero(snap.x_max, snap.h)
    assert abs(rs.flat_distance(snap, zero) - exact) <= 1e-14 * exact


def test_chain_max_single_point():
    assert _chain_max(np.array([1.0]), np.array([-3.0])) == 3.0


def reference_instances():
    """Seeded (locs, weights) pairs covering the sweep's branches."""
    rng = np.random.default_rng(41)
    for _ in range(20):  # single points, including a zero weight
        yield rng.uniform(0.0, 5.0, 1), rng.choice([0.0, rng.normal()], 1)
    for _ in range(60):  # smooth traffic with some zero weights
        n = int(rng.integers(2, 40))
        w = rng.normal(size=n) * (rng.uniform(size=n) < 0.7)
        yield np.cumsum(rng.uniform(0.01, 0.5, n)), w
    for _ in range(60):  # integer weights on a lattice: exact zero slopes, flat peaks
        n = int(rng.integers(2, 40))
        yield np.cumsum(rng.integers(1, 4, n)) * 0.25, rng.integers(-3, 4, n).astype(float)
    for _ in range(40):  # gaps of 2 and more: the clamp clears whole sides
        n = int(rng.integers(2, 20))
        yield np.cumsum(rng.choice([0.3, 2.0, 3.5], n)), rng.normal(size=n)
    for _ in range(20):  # dense steps: long walks of the peak
        n = int(rng.integers(50, 300))
        yield np.cumsum(rng.uniform(1e-3, 2e-2, n)), rng.normal(size=n)


def test_chain_max_agrees_with_reference():
    count = 0
    for locs, w in reference_instances():
        assert_matches_reference(locs, w)
        count += 1
    assert count >= 200


def test_chain_max_agrees_with_reference_on_white_noise():
    rng = np.random.default_rng(43)
    assert_matches_reference(np.sort(rng.uniform(0.0, 10.0, 4000)), rng.normal(size=4000))


def test_chain_max_is_mirror_symmetric():
    for locs, w in reference_instances():
        assert _chain_max(locs, -w) == _chain_max(locs, w)


def test_snapshot_distance_symmetric_bounded_and_exact(ind_spectral):
    B, sp = ind_spectral
    dt = 0.005
    n0 = HybridMeasure.from_function(lambda x: np.exp(-x) * (1.0 + 0.5 * np.sin(5.0 * x)),
                                     6.0, dt, atoms=((0.25, 0.4), (0.5, 0.3)),
                                     nonnegative=True)
    traj = rs.birth_series(n0, B, sp, dt, 2.0)
    assert traj.birth_jumps
    a, b = rs.evolve(traj, 0.9), rs.evolve(traj, 2.0)
    d_ab, d_ba = rs.flat_distance(a, b), rs.flat_distance(b, a)
    assert abs(d_ab - d_ba) <= 1e-12 * max(1.0, d_ab)

    la, wa = _support_points(a)
    lb, wb = _support_points(b)
    locs, inv = np.unique(np.concatenate([la, lb]), return_inverse=True)
    diff = np.bincount(inv, weights=np.concatenate([wa, -wb]))
    assert abs(diff.sum()) * (1 - 1e-9) <= d_ab <= np.abs(diff).sum() * (1 + 1e-9)
    keep = diff != 0.0
    want = reference_chain_max(locs[keep], diff[keep])
    assert abs(d_ab - want) <= 1e-12 * max(1.0, want)


# -- the same-grid merge against the sort-merge ---------------------------------


def reference_flat_distance(mu, nu):
    """Flat distance with the support merged by sorting all support points.

    Kept as the oracle for the node-by-node subtraction that
    ``flat_distance`` uses on measures sharing one grid.
    """
    l1, w1 = _support_points(mu)
    l2, w2 = _support_points(nu)
    uniq, inv = np.unique(np.concatenate([l1, l2]), return_inverse=True)
    merged = np.bincount(inv, weights=np.concatenate([w1, -w2]))
    keep = merged != 0.0
    if not keep.any():
        return 0.0
    return _chain_max(uniq[keep], merged[keep])


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.fixture
def merge_calls(monkeypatch):
    """Count the calls of the same-grid merge."""
    calls = []
    merge = measures._same_grid_difference

    def counted(mu, nu):
        calls.append(1)
        return merge(mu, nu)

    monkeypatch.setattr(measures, "_same_grid_difference", counted)
    return calls


def assert_same_as_reference(mu, nu):
    for a, b in ((mu, nu), (nu, mu)):
        got, want = rs.flat_distance(a, b), reference_flat_distance(a, b)
        assert bits(got) == bits(want), (got, want)
    return got


def smooth(x_max=4.0, h=0.25, atoms=(), scale=1.0, nonnegative=False):
    return HybridMeasure.from_function(lambda x: scale * np.exp(-x), x_max, h, atoms=atoms,
                                       nonnegative=nonnegative)


class TestSameGridMerge:
    def test_atoms_at_one_node_in_both(self, merge_calls):
        assert_same_as_reference(smooth(atoms=((1.0, 0.3),)),
                                 smooth(atoms=((1.0, 0.7),), scale=1.2))
        assert merge_calls

    def test_shared_off_node_atom(self, merge_calls):
        assert_same_as_reference(smooth(atoms=((1.1, 0.3), (2.0, 0.1))),
                                 smooth(atoms=((1.1, 0.2), (0.3, -0.4)), scale=0.9))
        assert merge_calls

    def test_atom_facing_a_node(self, merge_calls):
        # mu's atom merges into nu's node weight at x = 1.5
        mu = HybridMeasure(0.5, np.zeros(9), ((1.5, 0.25),))
        nu = HybridMeasure(0.5, np.linspace(0.0, 1.0, 9))
        assert_same_as_reference(mu, nu)
        assert merge_calls

    def test_exact_cancellation(self, merge_calls):
        # atom 0.25 at node 3 cancels nu's node weight 0.5 * 0.5 exactly, and
        # mu's -0.0 node against nu's 0.0 node cancels to -0.0
        dens = np.zeros(9)
        dens[3] = 0.5
        mu_dens = np.zeros(9)
        mu_dens[5] = -0.0
        mu = HybridMeasure(0.5, mu_dens, ((1.5, 0.25),))
        nu = HybridMeasure(0.5, dens)
        assert assert_same_as_reference(mu, nu) == 0.0
        mu = smooth(atoms=((1.1, 0.3),))
        assert assert_same_as_reference(mu, mu) == 0.0
        assert merge_calls

    def test_signed_pair(self, merge_calls):
        rng = np.random.default_rng(53)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            h = float(rng.choice([0.1, 0.25, 1.0 / 3.0]))
            x_max = (n - 1) * h

            def draw():
                dens = rng.normal(size=n) * (rng.uniform(size=n) < 0.6)
                on_node = rng.integers(0, n, 3) * h
                off_node = rng.uniform(0.0, x_max, 2)
                locs = np.concatenate([on_node, off_node])
                return HybridMeasure(h, dens, tuple(zip(locs, rng.normal(size=5))))

            mu, nu = draw(), draw()
            shared = mu.atoms[-1][0]
            nu = HybridMeasure(h, nu.density, nu.atoms + ((shared, rng.normal()),))
            assert_same_as_reference(mu, nu)
            assert_same_as_reference(mu, HybridMeasure(h, mu.density, nu.atoms))
        assert len(merge_calls) == 200

    def test_different_node_counts_take_the_mixed_path(self, merge_calls):
        mu = smooth(x_max=4.0, atoms=((1.1, 0.3),))
        nu = smooth(x_max=5.0, atoms=((1.1, 0.2), (4.5, 0.1)))
        assert_same_as_reference(mu, nu)
        assert not merge_calls
