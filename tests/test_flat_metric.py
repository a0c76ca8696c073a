import struct
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renewalsim as rs
from renewalsim import HybridMeasure, measures
from renewalsim.cli import main
from renewalsim.measures import _chain_max, _support_points

from oracles import (linear_combination, lp_oracle, reference_chain_max,
                     reference_flat_distance, reference_slope_trick)

pytest.importorskip("scipy.optimize")


def assert_matches_reference(locs, w):
    got = _chain_max(locs, w)
    want = reference_chain_max(locs, w)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)
    assert bits(got) == bits(reference_slope_trick(locs, w))


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


# -- run batches against the point-by-point sweep -------------------------------


def run_cases():
    """Seeded (name, locs, weights) with same-sign runs around ``_RUN`` points."""
    rng = np.random.default_rng(61)
    R = measures._RUN

    def signed(lengths, sizes):
        return np.repeat(np.resize([1.0, -1.0], len(lengths)), lengths) * sizes

    lengths = [R + 10, 3 * R, 2 * R, 3 * R]  # each run's G grows past 2
    n = sum(lengths)
    yield ("clamp inside a run", np.arange(n) * 0.05 + 0.3,
           signed(lengths, rng.uniform(0.1, 1.0, n)))
    for sizes in ("mixed", "equal"):  # integer weights: moves whose slope is exactly zero
        lengths = [R + 5, R + 20, 2 * R, R, R + 3, 2 * R + 7]
        n = sum(lengths)
        w = rng.integers(1, 4, n).astype(float) if sizes == "mixed" else np.ones(n)
        yield (f"integer lattice, {sizes} weights",
               np.cumsum(rng.integers(1, 4, n)) * 0.0625, signed(lengths, w))
    # S absorbs the 2s after 1e17, so their pushes share one slope; the -1e-17
    # leaves S at the value that makes that slope zero, and its twin waits a step
    w = np.array([2.0, 1e17] + [2.0] * R + [-1e-17] * 3 + [-1e17] + [-2.0] * R)
    yield "absorbed weights", np.arange(1, w.size + 1) * 0.01, w
    lengths = [2 * R, R + 7, 3 * R, R + 2]
    n = sum(lengths)
    yield ("gaps of 2 and more inside a run",
           np.cumsum(rng.choice([0.01, 2.0, 3.5], n, p=[0.9, 0.05, 0.05])),
           signed(lengths, rng.uniform(0.1, 1.0, n)))
    lengths = [R - 1, R, R + 1, R, R - 1, R + 1]
    n = sum(lengths)
    yield ("run lengths around _RUN", np.cumsum(rng.uniform(0.005, 0.03, n)),
           signed(lengths, rng.uniform(0.1, 1.0, n)))
    lengths = [4 * R, R + 1, R + 3, 2 * R, R]  # runs that leave the far end of a side
    n = sum(lengths)
    yield ("clamp outside the moves", np.arange(n) * 0.002,
           signed(lengths, rng.uniform(0.1, 1.0, n)))
    lengths = [R + 20, 1, 3, 2 * R, 1, 2, R + 5]  # atom-sized weights in the short runs
    n = sum(lengths)
    sizes = rng.uniform(0.01, 0.05, n)
    sizes[np.cumsum(lengths)[:-1]] = 2.0
    yield ("short heavy runs between long runs", np.cumsum(rng.uniform(0.005, 0.02, n)),
           signed(lengths, sizes))
    n = 300
    yield ("signs alternating at every point", np.cumsum(rng.uniform(0.005, 0.03, n)),
           signed([1] * n, rng.uniform(0.1, 1.0, n)))


RUN_CASES = list(run_cases())


@pytest.fixture
def batches(monkeypatch):
    """Sizes of the runs that ``_chain_max`` advanced in numpy."""
    sizes = []
    batch = measures._batch

    def spy(G, *args):
        sizes.append(G.size)
        return batch(G, *args)

    monkeypatch.setattr(measures, "_batch", spy)
    return sizes


@pytest.mark.parametrize("name,locs,w", RUN_CASES, ids=[c[0] for c in RUN_CASES])
def test_run_batches_give_the_bits_of_the_point_sweep(name, locs, w, batches, monkeypatch):
    want = reference_slope_trick(locs, w)
    assert bits(reference_slope_trick(locs, -w)) == bits(want)
    exact = reference_chain_max(locs, w)
    assert abs(want - exact) <= 1e-12 * max(1.0, abs(exact))
    lengths = np.diff(np.flatnonzero(np.r_[True, (w[1:] > 0) != (w[:-1] > 0), True]))
    shipped = measures._RUN
    for run in (shipped, 1, locs.size + 1):
        monkeypatch.setattr(measures, "_RUN", run)
        del batches[:]
        for v in (w, -w):
            assert bits(_chain_max(locs, v)) == bits(want), (run, v[0])
        assert sorted(batches) == sorted(2 * [int(x) for x in lengths if x >= run])
    if name != "signs alternating at every point":
        assert max(lengths) >= shipped  # the shipped threshold batches a run here


@pytest.mark.parametrize("name,reached", [("clamp inside a run", True),
                                          ("clamp outside the moves", False)])
def test_clamp_steps_run_where_the_clamp_meets_the_moves(name, reached, batches,
                                                         monkeypatch):
    _, locs, w = next(c for c in RUN_CASES if c[0] == name)
    calls = []
    first_clamp = measures._first_clamp

    def spy(u, G):
        calls.append(u.size)
        return first_clamp(u, G)

    monkeypatch.setattr(measures, "_first_clamp", spy)
    assert bits(_chain_max(locs, w)) == bits(reference_slope_trick(locs, w))
    if reached:
        assert max(calls) > 0
    else:
        assert len(calls) < len(batches)


def test_batch_advances_any_state_like_the_point_steps():
    # sides as the sweep keeps their slopes, but with ends in any order, so
    # the clamp must stop at the first end that stays, as the point steps do
    rng = np.random.default_rng(67)
    for _ in range(60):
        s = float(rng.choice([1.0, -1.0]))
        L, n, m = (int(v) for v in rng.integers(1, 40, 3))
        G = np.sort(rng.uniform(0.0, 2.0, L))
        a = rng.uniform(0.05, 1.0, L) * rng.choice([1.0, 1e-17], L, p=[0.9, 0.1])
        take = [rng.uniform(-1.5, 1.5, n), np.sort(rng.normal(size=n))[::int(s)]]
        grow = [rng.uniform(-1.5, 1.5, m), np.sort(rng.normal(size=m))[::-int(s)]]
        S = float(rng.normal())
        sides = [[deque(v.tolist()) for v in side] for side in (grow, take)]
        left, right = sides if s > 0 else sides[::-1]
        want = measures._steps(G, s * a, left, right, 0.5, S)
        got = measures._batch(G, a, take, grow, s, 0.5, S)
        assert [bits(v) for v in got] == [bits(v) for v in want]
        for arrays, deques in zip((grow, take), sides):
            assert [v.tolist() for v in arrays] == [list(d) for d in deques]


def test_first_clamp_is_the_float_test():
    # u + G >= 1 and G >= 1 - u part ways within an ulp of the threshold
    rng = np.random.default_rng(71)
    G = np.sort(np.concatenate([rng.uniform(0.0, 3.0, 40), [0.5, 0.5, 1.0, 2.0]]))
    G = np.sort(np.concatenate([G, np.nextafter(G, 9.0), np.nextafter(G, -9.0)]))
    u = np.concatenate([1.0 - G, np.nextafter(1.0 - G, 9.0), np.nextafter(1.0 - G, -9.0),
                        rng.uniform(-3.0, 2.0, 40)])
    want = [next((k for k, g in enumerate(G.tolist()) if x + g >= 1.0), G.size)
            for x in u.tolist()]
    assert measures._first_clamp(u, G).tolist() == want
    assert (np.searchsorted(G, 1.0 - u) != want).sum() > 0


def test_a_single_long_run_on_empty_sides():
    locs = np.cumsum(np.full(3 * measures._RUN, 0.01))
    for w in (np.linspace(0.1, 1.0, locs.size), -np.linspace(0.1, 1.0, locs.size)):
        assert bits(_chain_max(locs, w)) == bits(reference_slope_trick(locs, w))
        assert _chain_max(locs, w) == pytest.approx(abs(w).sum(), abs=1e-12)


def test_reference_instances_in_numpy_batches(monkeypatch):
    monkeypatch.setattr(measures, "_RUN", 1)
    for locs, w in reference_instances():
        assert bits(_chain_max(locs, w)) == bits(reference_slope_trick(locs, w))


# -- generated measure pairs against the LP --------------------------------------

SIZE = st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def measure_pairs(draw):
    """Small signed pairs on one grid or two, with atoms on and off nodes and a jump."""

    def measure(h, n):
        nodes = draw(st.lists(st.integers(0, n - 1), max_size=2))
        off = draw(st.lists(st.tuples(st.floats(0.0, (n - 1) * h), SIZE), max_size=2))
        jump = (draw(st.integers(0, n - 1)) * h, draw(SIZE), draw(SIZE))
        return HybridMeasure(h, np.array(draw(st.lists(SIZE, min_size=n, max_size=n))),
                             tuple((i * h, draw(SIZE)) for i in nodes) + tuple(off), (jump,))

    h = draw(st.sampled_from((0.25, 0.5)))
    n = draw(st.integers(2, 8))
    mu = measure(h, n)
    nu = measure(h, n) if draw(st.booleans()) else measure(h / 2, draw(st.integers(2, 2 * n)))
    return mu, nu


@settings(max_examples=60, deadline=None, derandomize=True)
@given(measure_pairs())
def test_generated_pairs_agree_with_the_lp(pair):
    mu, nu = pair
    l1, w1 = _support_points(mu)
    l2, w2 = _support_points(nu)
    uloc, inv = np.unique(np.concatenate([l1, l2]), return_inverse=True)
    uw = np.bincount(inv, weights=np.concatenate([w1, -w2]))
    keep = uw != 0.0
    want = lp_oracle(uloc[keep], uw[keep]) if keep.any() else 0.0
    assert rs.flat_distance(mu, nu) == pytest.approx(want, abs=1e-6)
    assert bits(rs.flat_distance(nu, mu)) == bits(rs.flat_distance(mu, nu))
    if keep.any():
        assert bits(_chain_max(uloc[keep], -uw[keep])) == bits(_chain_max(uloc[keep], uw[keep]))


@pytest.mark.parametrize("h", [0.25, 0.125], ids=["one grid", "two grids"])
def test_distance_is_bitwise_symmetric_with_an_atom_on_a_shared_point(h):
    # found by measure_pairs: summed left to right, the weight at x = 0 was
    # 0.125 - h/6 - 1 one way and h/6 + 1 - 0.125 the other, which round
    # apart; each measure's weights there are now summed before subtracting
    mu = HybridMeasure(0.25, np.array([1.0, 0.0]))
    nu = HybridMeasure(h, np.array([1.0 / 3.0, 0.0]), ((0.0, 1.0),))
    assert bits(rs.flat_distance(nu, mu)) == bits(rs.flat_distance(mu, nu))
