import glob
import math
import os
import shutil
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renewalsim as rs
from renewalsim import HybridMeasure, measures
from renewalsim.errors import MeasureError
from renewalsim.scenarios import load_scenario

from oracles import linear_combination, weighted_variation


def ones(x):
    return np.ones_like(np.asarray(x, dtype=float))


class TestConstruction:
    def test_grid_geometry(self):
        mu = HybridMeasure(0.5, np.zeros(5))
        assert mu.x_max == 2.0
        assert mu.node_count == 5
        np.testing.assert_allclose(mu.nodes, [0, 0.5, 1.0, 1.5, 2.0])

    def test_atoms_merge_and_drop_zero(self):
        mu = HybridMeasure(0.5, np.zeros(5), ((1.0, 1.0), (1.0, 1.0), (0.5, 0.0)))
        assert mu.atoms == ((1.0, 2.0),)

    def test_atom_outside_domain_rejected(self):
        with pytest.raises(MeasureError):
            HybridMeasure(0.5, np.zeros(5), ((3.0, 1.0),))

    def test_nonnegative_flag_enforced(self):
        with pytest.raises(MeasureError):
            HybridMeasure(0.5, np.array([0.0, -1.0, 0.0]), nonnegative=True)
        with pytest.raises(MeasureError):
            HybridMeasure(0.5, np.zeros(3), ((0.5, -1.0),), nonnegative=True)

    def test_jump_sets_mean_node_value(self):
        mu = HybridMeasure(0.5, np.zeros(5), jumps=((1.0, 2.0, 4.0),))
        assert mu.density[2] == 3.0
        assert mu.jumps == ((1.0, 2.0, 4.0),)

    @pytest.mark.parametrize("limits", [(math.inf, 0.0), (1.5e308, 1.7e308)],
                             ids=["infinite limit", "mean overflows"])
    def test_non_finite_jump_rejected(self, limits):
        with pytest.raises(MeasureError, match="jump limits and their mean must be finite"):
            HybridMeasure(0.5, np.zeros(5), jumps=((1.0, *limits),))

    def test_density_immutable(self):
        mu = HybridMeasure(0.5, np.zeros(5))
        with pytest.raises(ValueError):
            mu.density[0] = 1.0


class TestTotalVariation:
    def test_single_atom(self):
        mu = HybridMeasure.point_mass(1.0, 4.0, 0.5, weight=2.0)
        assert weighted_variation(mu) == 2.0

    def test_exponential_density(self):
        # trapezoid bias is h^2/12, so 1e-6 needs h = 1e-3
        mu = HybridMeasure.from_function(lambda x: np.exp(-x), 40.0, 0.001)
        assert abs(weighted_variation(mu) - 1.0) <= 1e-6

    def test_zero_measure(self):
        assert weighted_variation(HybridMeasure.zero(3.0, 0.1)) == 0.0

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dens = rng.normal(size=21)
            atoms = ((0.7, rng.normal()), (1.3, rng.normal()))
            mu = HybridMeasure(0.1, dens, atoms)
            a = rng.normal()
            scaled = linear_combination(a, mu, 0.0, HybridMeasure.zero(2.0, 0.1))
            np.testing.assert_allclose(
                weighted_variation(scaled), abs(a) * weighted_variation(mu),
                rtol=1e-12, atol=1e-15,
            )


class TestIntegrate:
    def test_dirac_evaluation(self):
        mu = HybridMeasure.point_mass(0.7, 2.0, 0.1)
        assert rs.integrate(mu, lambda x: np.cos(x)) == pytest.approx(math.cos(0.7), abs=1e-15)

    def test_exponential_unit_mass(self):
        mu = HybridMeasure.from_function(lambda x: np.exp(-x), 40.0, 0.001)
        assert abs(rs.integrate(mu, ones) - 1.0) <= 1e-6

    def test_two_atoms_first_moment(self):
        mu = HybridMeasure(0.5, np.zeros(7), ((1.0, 1.0), (2.0, 1.0)))
        assert rs.integrate(mu, lambda x: np.asarray(x, float)) == 3.0

    def test_scalar_function_fallback(self):
        mu = HybridMeasure.point_mass(1.0, 2.0, 0.5)
        assert rs.integrate(mu, math.exp) == pytest.approx(math.e, rel=1e-12)


class TestWeightedVariation:
    def test_unit_weight_matches_total_variation(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            mu = HybridMeasure(0.2, rng.normal(size=16), ((1.1, rng.normal()),))
            assert weighted_variation(mu, ones) == weighted_variation(mu)

    def test_negative_atom_weighting(self):
        mu = HybridMeasure(0.5, np.zeros(5), ((1.5, -3.0),))
        w = lambda x: np.exp(-np.asarray(x, float))
        assert weighted_variation(mu, w) == pytest.approx(3.0 * math.exp(-1.5), rel=1e-14)

    def test_sign_change_off_grid(self):
        # density x - 1 on [0, 2] with no node at the crossing
        h = 2.0 / 3.0
        mu = HybridMeasure(h, np.array([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0]))
        assert weighted_variation(mu, ones) == pytest.approx(1.0, abs=1e-15)

    def test_caller_breakpoint_splits_weight(self):
        # piecewise weight kink inside a panel: splitting changes the sum
        mu = HybridMeasure(1.0, np.array([1.0, 1.0]))
        w = lambda x: np.abs(np.asarray(x, float) - 0.5)
        exact = 0.25  # integral of |x - 1/2| over [0, 1]
        split = weighted_variation(mu, w, breakpoints=(0.5,))
        assert split == pytest.approx(exact, abs=1e-15)

    def test_jump_node_uses_one_sided_values(self):
        # mean node value would lose mass where the sign flips across a jump
        mu = HybridMeasure(1.0, np.zeros(3), jumps=((1.0, -2.0, 2.0),))
        # |density| integrates the two one-sided triangles: 2*(2*1/2) = 2
        assert weighted_variation(mu, ones) == pytest.approx(2.0, abs=1e-14)

    def test_rejects_negative_weight(self):
        mu = HybridMeasure.zero(1.0, 0.5)
        with pytest.raises(MeasureError):
            weighted_variation(mu, lambda x: -ones(x))


class TestAngleBracket:
    def test_zero_measure_gives_length(self):
        assert rs.angle_bracket(HybridMeasure.zero(3.0, 0.1)) == pytest.approx(3.0, rel=1e-14)

    def test_atom_adds_absolute_weight(self):
        mu = HybridMeasure.point_mass(1.0, 3.0, 0.1, weight=-2.0)
        assert rs.angle_bracket(mu) == pytest.approx(5.0, rel=1e-14)

    def test_constant_density_closed_form(self):
        c, L = 1.7, 4.0
        mu = HybridMeasure.from_function(lambda x: c * ones(x), L, 0.01)
        assert rs.angle_bracket(mu) == pytest.approx(L * math.sqrt(1 + c * c), abs=1e-10)

    def test_lower_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            mu = HybridMeasure(0.1, rng.normal(size=31),
                               ((0.55, rng.normal()), (2.15, rng.normal())))
            ab = rs.angle_bracket(mu)
            atom_tv = sum(abs(w) for _, w in mu.atoms)
            assert ab >= max(mu.x_max, atom_tv) - 1e-12


class TestMollify:
    def test_atom_free_is_identity(self):
        mu = HybridMeasure.from_function(lambda x: np.exp(-x), 2.0, 0.1)
        assert rs.mollify(mu, 0.5) is mu

    def test_unit_bump_mass_and_support(self):
        mu = HybridMeasure.point_mass(1.0, 4.0, 0.005)
        out = rs.mollify(mu, 0.1)
        assert not out.atoms
        assert abs(rs.integrate(out, ones) - 1.0) <= 1e-12
        xs = out.nodes
        assert np.all(out.density[(xs < 0.895) | (xs > 1.105)] == 0.0)

    def test_reflection_preserves_mass(self):
        mu = HybridMeasure.point_mass(0.02, 4.0, 0.005, weight=0.7)
        out = rs.mollify(mu, 0.1)
        assert abs(rs.integrate(out, ones) - 0.7) <= 1e-12 * 0.7

    def test_angle_gap_shrinks_along_ladder(self):
        mu = HybridMeasure.point_mass(1.0, 6.0, 0.005)
        ref = rs.angle_bracket(mu)
        gaps = [abs(rs.angle_bracket(rs.mollify(mu, e)) - ref)
                for e in (0.4, 0.2, 0.1, 0.05)]
        assert gaps[-1] < gaps[0]
        assert gaps[-1] < 0.05 * ref

    def test_too_small_width_rejected(self):
        mu = HybridMeasure.point_mass(1.0, 4.0, 0.1)
        with pytest.raises(MeasureError):
            rs.mollify(mu, 0.05)

    def test_kernel_must_fit_domain(self):
        mu = HybridMeasure.point_mass(3.95, 4.0, 0.01)
        with pytest.raises(MeasureError):
            rs.mollify(mu, 0.2)


def reference_mollify(mu, eps):
    """``mollify`` with every atom's kernel CDF evaluated on every cell edge.

    Kept as the oracle for the local evaluation near each atom.
    """
    from renewalsim.measures import _SNAP, _hat_cdf

    if eps < mu.h * (1.0 - 1e-12):
        raise MeasureError("mollifier width below grid spacing: kernel unresolvable")
    if not mu.atoms:
        return mu
    nodes = mu.nodes
    x_max = mu.x_max
    edges = np.empty(nodes.size + 1)
    edges[0] = 0.0
    edges[-1] = x_max
    edges[1:-1] = nodes[:-1] + mu.h / 2.0
    widths = np.diff(edges)

    dens = mu.density.copy()
    added = np.zeros_like(dens)
    for c, wt in mu.atoms:
        if c + eps > x_max * (1 + _SNAP):
            raise MeasureError(f"kernel around atom at {c} leaves the domain")
        mass_to = _hat_cdf(edges, c, eps) - _hat_cdf(-edges, c, eps)
        added += wt * np.diff(mass_to) / widths
    dens = dens + added
    jumps = tuple((x, lo + added[int(round(x / mu.h))], hi + added[int(round(x / mu.h))])
                  for x, lo, hi in mu.jumps)
    return HybridMeasure(mu.h, dens, (), jumps, nonnegative=mu.nonnegative)


def assert_mollify_matches_reference(mu, eps):
    out, ref = rs.mollify(mu, eps), reference_mollify(mu, eps)
    assert np.array_equal(out.density, ref.density)
    assert out.density.tobytes() == ref.density.tobytes()  # signs of zero too
    assert out.jumps == ref.jumps
    assert out.atoms == ref.atoms == ()
    return out


class TestLocalMollify:
    """The local evaluation against the full-grid projection, bit for bit."""

    def test_atom_at_zero(self):
        mu = HybridMeasure.point_mass(0.0, 4.0, 0.01, weight=0.6)
        assert_mollify_matches_reference(mu, 0.1)

    def test_reflected_atom(self):
        mu = HybridMeasure.from_function(lambda x: np.exp(-x), 4.0, 0.01,
                                         atoms=((0.037, 0.8),))
        for eps in (0.05, 0.1, 0.4):
            assert_mollify_matches_reference(mu, eps)

    def test_kernel_touching_the_right_end(self):
        mu = HybridMeasure.point_mass(3.75, 4.0, 0.01)
        assert 3.75 + 0.25 == mu.x_max
        assert_mollify_matches_reference(mu, 0.25)

    def test_negative_atom_on_signed_datum(self):
        mu = HybridMeasure.from_function(lambda x: np.sin(3.0 * x), 4.0, 0.01,
                                         atoms=((1.234, -0.7), (2.5, 0.2)))
        assert_mollify_matches_reference(mu, 0.2)

    def test_overlapping_kernels(self):
        mu = HybridMeasure.from_function(lambda x: np.exp(-x), 4.0, 0.01,
                                         atoms=((1.0, 0.5), (1.07, -0.3), (1.1, 0.2)))
        assert_mollify_matches_reference(mu, 0.1)

    def test_atom_on_a_jump_node(self):
        dens = np.exp(-np.arange(401) * 0.01)
        mu = HybridMeasure(0.01, dens, ((1.5, 0.4),), ((1.5, 0.2, 0.9), (1.56, 0.1, 0.3)),
                           nonnegative=True)
        out = assert_mollify_matches_reference(mu, 0.1)
        assert len(out.jumps) == 2

    def test_width_equal_to_spacing(self):
        mu = HybridMeasure.from_function(lambda x: np.exp(-x), 4.0, 0.01,
                                         atoms=((0.0, 0.1), (0.005, 0.2), (2.0, 0.3),
                                                (2.013, 0.4)))
        assert_mollify_matches_reference(mu, 0.01)

    def test_random_data(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            n = int(rng.integers(20, 400))
            h = float(rng.choice([0.01, 0.1, 1.0 / 3.0, 0.0125]))
            x_max = (n - 1) * h
            eps = float(rng.uniform(h, x_max / 4))
            locs = np.concatenate([rng.uniform(0.0, x_max - eps, 3),
                                   rng.integers(0, int((x_max - eps) / h), 2) * h])
            mu = HybridMeasure(h, rng.normal(size=n), tuple(zip(locs, rng.normal(size=5))))
            assert_mollify_matches_reference(mu, eps)


class TestLinearCombination:
    def test_self_cancellation(self):
        mu = HybridMeasure.from_function(lambda x: np.sin(x), 2.0, 0.1, atoms=((0.7, 2.0),))
        out = linear_combination(1.0, mu, -1.0, mu)
        assert weighted_variation(out) == 0.0
        assert out.atoms == ()

    def test_atom_merge(self):
        a = HybridMeasure.point_mass(1.0, 2.0, 0.1)
        out = linear_combination(1.0, a, 1.0, a)
        assert out.atoms == ((1.0, 2.0),)

    def test_ac_and_atom_tv_add(self):
        ac = HybridMeasure.from_function(lambda x: np.exp(-x), 40.0, 0.001)
        atom = HybridMeasure.point_mass(2.0, 40.0, 0.001)
        out = linear_combination(1.0, ac, -1.0, atom)
        assert abs(weighted_variation(out) - 2.0) <= 1e-6

    def test_mixed_grids_refine(self):
        a = HybridMeasure.from_function(lambda x: ones(x), 1.0, 0.5)
        b = HybridMeasure.from_function(lambda x: ones(x), 2.0, 0.25)
        out = linear_combination(1.0, a, 1.0, b)
        assert out.h == 0.25
        assert out.x_max == pytest.approx(2.0)
        assert out.density_at(0.5) == pytest.approx(2.0)
        assert out.density_at(1.5) == pytest.approx(1.0)


def reference_read_snapshot(path) -> HybridMeasure:
    """Oracle: a line-by-line snapshot reader written apart from ``read_snapshot``.

    It knows only ``density`` and ``atom`` rows, so it is compared on files
    without jump rows.
    """
    xs, vs, atoms = [], [], []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "kind,x,value":
            raise MeasureError(f"bad snapshot header: {header!r}")
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise MeasureError(f"line {ln}: expected 3 fields")
            kind, x, v = parts
            try:
                x, v = float(x), float(v)
            except ValueError as exc:
                raise MeasureError(f"line {ln}: {exc}") from exc
            if not (math.isfinite(x) and math.isfinite(v)):
                raise MeasureError(f"line {ln}: non-finite value")
            if kind == "density":
                xs.append(x)
                vs.append(v)
            elif kind == "atom":
                atoms.append((x, v))
            else:
                raise MeasureError(f"line {ln}: unknown kind {kind!r}")
    if len(xs) < 2:
        raise MeasureError("snapshot needs at least two density nodes")
    h = xs[1] - xs[0]
    if h <= 0.0:
        raise MeasureError("snapshot nodes must increase")
    for i, x in enumerate(xs):
        if abs(x - i * h) > 1e-9 * max(1.0, xs[-1]):
            raise MeasureError("snapshot grid is not uniform")
    return HybridMeasure(h, np.array(vs), tuple(atoms))


def _density_rows(n, h=0.25, seed=0):
    vals = np.random.default_rng(seed).normal(size=n)
    return [f"density,{i * h!r},{v!r}" for i, v in enumerate(vals.tolist())]


def _long_file(line, text, insert=False):
    """5000 density rows with ``text`` put at ``line`` (header = line 1)."""
    rows = _density_rows(5000)
    rows[line - 2:line - 2 + (not insert)] = [text]
    return rows


# name -> data lines after the header (a str is written as raw text)
ORACLE_CASES = {
    "plain": _density_rows(9) + ["atom,0.5,2.0", "atom,1.5,-0.25"],
    "blank lines": ["", "   "] + _density_rows(4)[:2] + ["", "\t"]
                   + _density_rows(4)[2:] + [""],
    "crlf": "\r\n".join(_density_rows(5) + ["atom,0.25,1.0"]) + "\r\n",
    "no final newline": "\n".join(_density_rows(5)),
    "spaces around fields": ["  density, 0.0 ,1.5  ", "density,\t0.25, 2 ", "density,0.5,3"],
    "space inside kind": ["density,0.0,1.5", "density ,0.25,2"],
    "underscore digits": ["density,0,1_0", "density,1,2"],
    "inf value": _density_rows(3) + ["density,0.75,inf"],
    "nan value": ["density,0,nan", "density,0.25,1"],
    "overflow": _density_rows(3) + ["atom,1e400,1"],
    "bad float": _density_rows(3) + ["density,0.75,1.0.0"],
    "unknown kind": _density_rows(3) + ["mass,0.75,1.0"],
    "two fields": _density_rows(3) + ["density,0.75"],
    "four fields": _density_rows(3) + ["density,0.75,1,2"],
    # 2 + 4 fields: 6 fields for 2 lines, realigned into two valid-looking rows
    "two then four fields": ["density,0", "1,density,0.25,2", "density,0.5,3"],
    "float error before kind error": ["foo,abc,1", "density,0,1", "density,1,1"],
    "atoms before density rows": ["atom,0.5,1.0", "atom,0.25,-2"] + _density_rows(4)
                                 + ["atom,0.75,3"],
    "one node": ["density,0,1", "atom,0,1"],
    "no nodes": ["atom,0,1"],
    "empty": [],
    "decreasing nodes": ["density,1,1", "density,0,1"],
    "non-uniform grid": ["density,0,1", "density,1,1", "density,3,1"],
    "bad line at 4098": _long_file(4098, "density,1024,x"),
    "bad line at 4500": _long_file(4500, "density,1124.5"),
    "blank and bad beyond one block": _long_file(4097, "") + ["density,1250,inf"],
    "non-uniform beyond one block": _long_file(4600, "density,1149.6,0"),
    "long valid": _long_file(4097, "atom,3.5,1", insert=True) + ["", "atom,1249.75,2"],
}


def _write_case(path, lines):
    data = lines if isinstance(lines, str) else "".join(ln + "\n" for ln in lines)
    path.write_bytes(("kind,x,value\n" + data).encode("ascii"))


def _read_or_error(reader, path):
    try:
        return reader(path)
    except MeasureError as exc:
        return f"MeasureError: {exc}"


def _seam_snapshot():
    """A coarse measure with an O(1) jump at the newborn seam and an atom."""
    h = 0.125
    xs = np.arange(33) * h
    dens = np.where(xs < 1.5, np.exp(-xs), 0.3 * np.exp(-xs))
    return HybridMeasure(h, dens, ((2.0, 0.75), (3.5, 1.25)),
                         ((1.5, float(np.exp(-1.5)), 0.3 * float(np.exp(-1.5))),
                          (2.25, 1.0, 0.0)),
                         nonnegative=True)


class TestSnapshotIO:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        mu = HybridMeasure(0.03125, rng.normal(size=33), ((0.4, rng.normal()), (0.9, 2.0)))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        rs.write_snapshot(mu, p1)
        again = rs.read_snapshot(p1)
        rs.write_snapshot(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(again.density, mu.density)
        assert again.atoms == mu.atoms

    def test_round_trip_keeps_jump_records(self, tmp_path, ind_spectral):
        _, sp = ind_spectral
        mu = _seam_snapshot()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rs.write_snapshot(mu, p1)
        again = rs.read_snapshot(p1)
        assert again.jumps == mu.jumps
        assert again.atoms == mu.atoms
        assert again.h == mu.h
        np.testing.assert_array_equal(again.density, mu.density)
        H = rs.builtin_integrand("sqrt1p")
        assert rs.gre_functional(again, sp, H) == rs.gre_functional(mu, sp, H)
        rs.write_snapshot(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        # jump rows come last, two three-field rows per record
        tail = p1.read_text().splitlines()[-4:]
        assert [row.split(",")[0] for row in tail] == ["jump_lo", "jump_hi"] * 2
        assert all(len(row.split(",")) == 3 for row in tail)

    def test_written_rows_match_per_value_formatting(self, tmp_path):
        mu = _seam_snapshot()
        p = tmp_path / "a.csv"
        rs.write_snapshot(mu, p)
        f = "{:.17g}".format
        want = ["kind,x,value"]
        want += [f"density,{f(i * mu.h)},{f(v)}" for i, v in enumerate(mu.density)]
        want += [f"atom,{f(x)},{f(w)}" for x, w in mu.atoms]
        for x, lo, hi in mu.jumps:
            want += [f"jump_lo,{f(x)},{f(lo)}", f"jump_hi,{f(x)},{f(hi)}"]
        assert p.read_text().splitlines() == want

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_reader_matches_oracle(self, tmp_path, case):
        p = tmp_path / "s.csv"
        _write_case(p, ORACLE_CASES[case])
        got = _read_or_error(rs.read_snapshot, p)
        want = _read_or_error(reference_read_snapshot, p)
        if isinstance(want, str):
            assert got == want
            return
        assert isinstance(got, HybridMeasure), got
        assert got.h == want.h
        np.testing.assert_array_equal(got.density, want.density)
        assert got.atoms == want.atoms
        assert got.jumps == ()

    def test_oracle_cases_cover_both_outcomes(self, tmp_path):
        errors = {}
        for case, lines in ORACLE_CASES.items():
            p = tmp_path / "s.csv"
            _write_case(p, lines)
            errors[case] = _read_or_error(reference_read_snapshot, p)
        assert errors["bad line at 4500"] == "MeasureError: line 4500: expected 3 fields"
        assert errors["bad line at 4098"].startswith("MeasureError: line 4098: ")
        assert errors["two then four fields"] == "MeasureError: line 2: expected 3 fields"
        assert isinstance(errors["long valid"], HybridMeasure)
        assert isinstance(errors["spaces around fields"], HybridMeasure)

    @pytest.mark.parametrize("rows, message", [
        (["jump_lo,0.25,1"], "line 6: jump_lo row without a jump_hi row at its x"),
        (["jump_hi,0.25,1"], "line 6: jump_hi row without a jump_lo row"),
        (["jump_lo,0.25,1", "jump_hi,0.5,2"],
         "line 6: jump_lo row without a jump_hi row at its x"),
        (["jump_lo,0.25,1", "jump_lo,0.5,2", "jump_hi,0.5,3"],
         "line 6: jump_lo row without a jump_hi row at its x"),
        (["jump_lo,0.25,1", "jump_hi,0.25,2", "", "jump_hi,0.5,3"],
         "line 9: jump_hi row without a jump_lo row"),
    ], ids=["lo at end", "hi alone", "hi at other x", "two lo", "second hi"])
    def test_unpaired_jump_rows_rejected(self, tmp_path, rows, message):
        p = tmp_path / "s.csv"
        _write_case(p, _density_rows(4) + rows)
        with pytest.raises(MeasureError) as err:
            rs.read_snapshot(p)
        assert str(err.value) == message

    @pytest.mark.parametrize("rows, message", [
        (_density_rows(4) + ["jump_hi,0.25,1", "density,1.0"], "line 7: expected 3 fields"),
        (["density,0,1", "jump_lo,0,1"], "line 3: jump_lo row without a jump_hi row at its x"),
        (["density,0,1", "density,1,1", "density,3,1", "jump_hi,1,2"],
         "line 5: jump_hi row without a jump_lo row"),
    ], ids=["bad row after unpaired jump", "unpaired jump before one node",
            "unpaired jump before non-uniform grid"])
    def test_error_precedence(self, tmp_path, rows, message):
        # every line is checked before jump rows are paired, and pairing
        # comes before the grid checks
        p = tmp_path / "s.csv"
        _write_case(p, rows)
        with pytest.raises(MeasureError) as err:
            rs.read_snapshot(p)
        assert str(err.value) == message

    def test_jump_pair_split_across_blocks(self, tmp_path):
        # header + 4095 density rows: the jump_lo row is line 4097, and a
        # blank line separates it from its jump_hi row
        rows = _density_rows(4095)
        rows += ["jump_lo,2.5,0.75", "", "jump_hi,2.5,-1", "atom,3,2"]
        p = tmp_path / "s.csv"
        _write_case(p, rows)
        mu = rs.read_snapshot(p)
        assert mu.jumps == ((2.5, 0.75, -1.0),)
        assert mu.density[10] == -0.125
        assert mu.atoms == ((3.0, 2.0),)

    @pytest.mark.parametrize("data, message", [
        (b"kind,x,value\ndensity,0,1\xc3\xa9\n", "line 2: non-ASCII byte 0xc3"),
        (b"kind,x,value\xff\ndensity,0,1\ndensity,1,1\n", "line 1: non-ASCII byte 0xff"),
        (b"kind,x,value\ndensity,0,1\ndensity,0.5\ndensity,1,\xa01\n",
         "line 3: expected 3 fields"),
        ("kind,x,value\n".encode() + "\n".join(_long_file(4500, "atom,1\u00b7125,1")).encode(),
         "line 4500: non-ASCII byte 0xc2"),
    ], ids=["in a value", "in the header", "after a bad line", "in the second block"])
    def test_non_ascii_byte_is_a_bad_line(self, tmp_path, data, message):
        p = tmp_path / "s.csv"
        p.write_bytes(data)
        with pytest.raises(MeasureError) as err:
            rs.read_snapshot(p)
        assert str(err.value) == message

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n")
        with pytest.raises(MeasureError):
            rs.read_snapshot(p)

    def test_non_uniform_grid_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("kind,x,value\ndensity,0,1\ndensity,1,1\ndensity,3,1\n")
        with pytest.raises(MeasureError):
            rs.read_snapshot(p)


SHIPPED_SCENARIOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                                  "scenarios", "**", "*.ini"), recursive=True))


def _bits(mu):
    """Everything a measure holds, as integers: ``-0.0`` and ``0.0`` differ."""
    return (np.float64(mu.h).view(np.int64), mu.density.view(np.int64).tolist(),
            np.array(mu.atoms, dtype=float).view(np.int64).tolist(),
            np.array(mu.jumps, dtype=float).view(np.int64).tolist(), mu.nonnegative)


def _parsed(path):
    """``read_snapshot`` of a copy of the CSV that has no twin: the parser's result."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "copy.csv")
        shutil.copyfile(path, copy)
        return _read_or_error(rs.read_snapshot, copy)


def _twin_matches_parse(mu, path):
    """Write ``mu``; its twin and the parser give the same measure, bit for bit."""
    rs.write_snapshot(mu, path)
    twin = measures._twin_measure(path)
    assert twin is not None
    parsed = _parsed(path)
    assert _bits(twin) == _bits(parsed) == _bits(rs.read_snapshot(path))


FINITE = st.one_of(st.sampled_from((0.0, -0.0, 5e-324, -1e-300, 1.0, 1e300)),
                   st.floats(min_value=-1e300, max_value=1e300))


@st.composite
def measures_with_jumps(draw):
    """Measures with ``-0.0`` values, off-grid atoms and jump records."""
    h = draw(st.sampled_from((0.25, 0.1, 1.0 / 3.0, 0.00025)))
    n = draw(st.integers(2, 40))
    dens = draw(st.lists(FINITE, min_size=n, max_size=n))
    x_max = (n - 1) * h
    locs = st.floats(min_value=0.0, max_value=x_max)
    atoms = draw(st.lists(st.tuples(locs, FINITE), max_size=5))
    nodes = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=4))
    jumps = [(i * h, draw(FINITE), draw(FINITE)) for i in nodes]
    return HybridMeasure(h, np.array(dens), tuple(atoms), tuple(jumps))


def _edit_digit(csv, twin, to):
    """Change the last digit of the CSV's second density value to ``to``."""
    data = bytearray(csv.read_bytes())
    end = data.index(b"\n", data.index(b"\ndensity,") + 1)
    end = data.index(b"\n", end + 1) - 1
    data[end] = ord(to) if data[end] != ord(to) else ord("1")
    csv.write_bytes(bytes(data))


def _truncate(csv, twin):
    twin.write_bytes(twin.read_bytes()[:-8])


def _flip_payload_byte(csv, twin):
    raw = bytearray(twin.read_bytes())
    raw[-3] ^= 0x10
    twin.write_bytes(bytes(raw))


def _counts_past_size(csv, twin):
    # a well-formed tag around counts that claim more values than there are
    raw = twin.read_bytes()
    payload = np.frombuffer(raw, "<f8", offset=24).copy()
    payload[1] = payload.size
    tag = np.frombuffer(raw, "<u8", 3).copy()
    tag[2] = zlib.crc32(payload.tobytes())
    twin.write_bytes(tag.tobytes() + payload.tobytes())


def _stale_tag(csv, twin):
    # the CSV of another measure beside this measure's twin
    mu = _seam_snapshot()
    other = csv.with_name("other.csv")
    rs.write_snapshot(HybridMeasure(mu.h, mu.density + 1.0, mu.atoms, mu.jumps), other)
    shutil.copyfile(other, csv)


class TestSnapshotTwin:
    """``read_snapshot`` through the binary twin is the parser, bit for bit."""

    @pytest.mark.parametrize("path", SHIPPED_SCENARIOS, ids=os.path.basename)
    def test_shipped_scenario_snapshot(self, tmp_path, path):
        # the first snapshot time, capped at t = 1 to keep long_horizon.ini's trace short
        sc = load_scenario(path)
        t = min(sc.snapshot_times[0], 1.0)
        traj = rs.birth_series(sc.initial, sc.birth_law, rs.solve_spectral(sc.birth_law),
                               sc.dt, t)
        snap = rs.evolve(traj, t)
        assert snap.jumps and snap.atoms
        _twin_matches_parse(snap, tmp_path / "s.csv")

    def test_seam_snapshot(self, tmp_path):
        _twin_matches_parse(_seam_snapshot(), tmp_path / "s.csv")

    @settings(max_examples=40, deadline=None)
    @given(measures_with_jumps())
    def test_generated_measures(self, mu):
        with tempfile.TemporaryDirectory() as tmp:
            _twin_matches_parse(mu, os.path.join(tmp, "s.csv"))

    @pytest.mark.parametrize("damage", [
        lambda csv, twin: _edit_digit(csv, twin, "7"),
        lambda csv, twin: _edit_digit(csv, twin, "x"),
        _truncate,
        lambda csv, twin: twin.write_bytes(twin.read_bytes()[:20]),
        lambda csv, twin: twin.write_bytes(b""),
        _flip_payload_byte,
        _counts_past_size,
        _stale_tag,
        lambda csv, twin: twin.unlink(),
    ], ids=["digit edited", "digit to letter", "twin truncated", "twin shorter than its tag",
            "twin empty", "payload byte flipped", "counts past size", "stale tag",
            "no twin"])
    def test_damage_falls_back_to_the_parser(self, tmp_path, damage):
        csv = tmp_path / "s.csv"
        twin = tmp_path / "s.csv.bin"
        rs.write_snapshot(_seam_snapshot(), csv)
        damage(csv, twin)
        assert measures._twin_measure(csv) is None
        got = _read_or_error(rs.read_snapshot, csv)
        want = _parsed(csv)
        if isinstance(want, str):
            assert got == want
        else:
            assert _bits(got) == _bits(want)

    def test_edited_digit_changes_the_measure(self, tmp_path):
        csv = tmp_path / "s.csv"
        rs.write_snapshot(_seam_snapshot(), csv)
        _edit_digit(csv, None, "7")
        assert _bits(rs.read_snapshot(csv)) != _bits(_seam_snapshot())
        _edit_digit(csv, None, "x")
        with pytest.raises(MeasureError, match="^line 3: could not convert"):
            rs.read_snapshot(csv)


class TestAcCumulative:
    def test_matches_closed_form(self):
        mu = HybridMeasure.from_function(lambda x: np.asarray(x, float), 2.0, 0.001)
        ys = np.array([0.0, 0.3, 1.0, 1.7, 2.0])
        np.testing.assert_allclose(rs.measures.ac_cumulative(mu, ys), ys ** 2 / 2, atol=1e-9)

    def test_scalar_input_returns_float(self):
        mu = HybridMeasure.from_function(lambda x: ones(x), 1.0, 0.25)
        out = rs.measures.ac_cumulative(mu, 0.6)
        assert isinstance(out, float)
        assert out == pytest.approx(0.6)


class TestAcFirstMoment:
    def test_linear_density_exact(self):
        # the interpolant of x is x itself, so M1(y) = y^3 / 3 with no grid error
        mu = HybridMeasure.from_function(lambda x: np.asarray(x, float), 2.0, 0.01)
        ys = np.array([-0.5, 0.0, 0.013, 0.3, 1.0, 1.777, 2.0, 3.0])
        yc = np.clip(ys, 0.0, 2.0)
        np.testing.assert_allclose(rs.measures.ac_first_moment(mu, ys), yc ** 3 / 3,
                                   rtol=1e-13, atol=1e-15)

    def test_jump_record_uses_one_sided_values(self):
        # density 1 on [0, 1), 3 on (1, 2]: the node value 2 at x = 1 is the mean
        dens = np.where(np.arange(9) * 0.25 < 1.0, 1.0, 3.0)
        mu = HybridMeasure(0.25, dens, jumps=((1.0, 1.0, 3.0),))
        ys = np.array([0.5, 1.0, 1.5, 2.0])
        exact = np.where(ys <= 1.0, ys ** 2 / 2, 0.5 + 1.5 * (ys ** 2 - 1.0))
        np.testing.assert_allclose(rs.measures.ac_first_moment(mu, ys), exact,
                                   rtol=1e-14)

    def test_scalar_input_returns_float(self):
        mu = HybridMeasure.from_function(lambda x: ones(x), 1.0, 0.25)
        out = rs.measures.ac_first_moment(mu, 0.6)
        assert isinstance(out, float)
        assert out == pytest.approx(0.18)
