"""The CSV writer against the one-template oracle, byte for byte.

``measures._write_rows`` formats a grid column once per spacing and every
value through ``measures._format17``, which leaves to ``%`` only the rows
it cannot decide; ``oracles.reference_write_rows`` formats every value
with ``%.17g``.  The two must write the same text.  The edge table holds
the cases random draws rarely reach: ties, notation switches, the ends
of the fast path's range and every binary exponent.
"""
import io
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalsim import cli, measures
from renewalsim.cli import main
from renewalsim.measures import _BLOCK, _decimal17, _format17, _write_rows
from renewalsim.scenarios import load_scenario
from renewalsim.transport import evolve

from oracles import reference_write_rows

ROWS = ("%.17g,%.17g,%.17g\n", "jump_lo,%.17g,%.17g\njump_hi,%.17g,%.17g\n")
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.2250738585072014e-308,
           1e-300, -1e-300, 1e300, -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 0.1)
VALUES = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-2 ** 53, 2 ** 53).map(float),
    st.floats(),
    st.floats(min_value=1e290, max_value=1e308),
    st.floats(min_value=0.0, max_value=1e-290),
)
SPACINGS = st.one_of(st.sampled_from((0.00025, 0.001, 0.1, 1.0 / 3.0, 5e-324, 1e300)),
                     st.floats(min_value=1e-300, max_value=1e300))


def text(writer, row, *columns) -> str:
    fh = io.StringIO()
    writer(fh, row, *columns)
    return fh.getvalue()


def first_difference(got: str, want: str):
    """None if the texts are equal, else their first differing line.

    Keeps a failure cheap to report: pytest's diff of two long texts is not.
    """
    if got == want:
        return None
    pairs = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
    for i, (a, b) in enumerate(pairs):
        if a != b:
            return f"line {i}: got {a!r}, want {b!r}"
    return f"one text extends the other: {len(got)} against {len(want)} characters"


def same_as_oracle(row, *columns):
    """Assert the writer's text equals the oracle's; a number column is a grid spacing."""
    n = next(np.size(c) for c in columns if np.ndim(c))
    expanded = [np.arange(n) * c if np.ndim(c) == 0 else c for c in columns]
    diff = first_difference(text(_write_rows, row, *columns),
                            text(reference_write_rows, row, *expanded))
    assert diff is None, diff


@st.composite
def run_columns(draw):
    """A column of runs of equal values, some long and crossing block edges."""
    runs = draw(st.lists(st.tuples(VALUES, st.integers(1, 2500)), min_size=1, max_size=5))
    return np.repeat(np.array([v for v, _ in runs]), [k for _, k in runs])


@settings(max_examples=40, deadline=None)
@given(run_columns(), SPACINGS, st.sampled_from(ROWS))
def test_runs_and_grids_match_oracle(col, g, row):
    if row.count("%") == 3:
        same_as_oracle(row, g, col, col[::-1])
    else:
        same_as_oracle(row, col[::-1], col, g, col)


@settings(max_examples=60, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=300))
def test_distinct_and_repeated_values_match_oracle(values):
    col = np.array(values)
    same_as_oracle(ROWS[0], col, np.sort(col), col[::-1])


@pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_block_edges(n):
    distinct = np.arange(n) * 0.37 - 11.0
    runs = distinct.copy()
    runs[n // 3:] = -0.0  # one run reaching over every block edge past n / 3
    runs[n // 2:n // 2 + 5] = 0.0  # equal to -0.0, other bits
    runs[-2:] = 5e-324
    integral = np.floor(distinct)  # integer values, each repeated 2 or 3 times
    same_as_oracle(ROWS[0], 0.00025, runs, distinct)
    same_as_oracle(ROWS[0], integral, 1e300, np.zeros(n))
    same_as_oracle(ROWS[1], runs, runs[::-1], 1.0 / 3.0, integral)


def ulp_neighbours(xs):
    """Each x of ``xs`` with its neighbours 1 ulp away."""
    xs = np.asarray(xs, dtype=float)
    return np.concatenate([np.nextafter(xs, -np.inf), xs, np.nextafter(xs, np.inf)])


def near_ties():
    """Doubles whose 17-digit scaled value is a tie or within 1e-9 of one.

    For k = 16 - E > 0, x = m * 2**-(s + k) scales to m * 5**k / 2**s; m
    is solved modulo 2**s so that the fraction is 1/2 or 1/2 +- 2**-s.  For
    k < 0, x = m * 2**(u - k) scales to m * 2**u / 5**-k, and m is solved
    modulo 5**-k for the fraction (5**-k +- 1) / (2 * 5**-k).  Only m in
    [2**52, 2**53) with the scaled value in [1e16, 1e17) are kept.
    """
    found = []

    def keep(m, mod, num, den, exp2):
        if m < 2 ** 52:
            m += -(-(2 ** 52 - m) // mod) * mod
        if m < 2 ** 53 and 10 ** 16 * den <= m * num < 10 ** 17 * den:
            found.append(math.ldexp(m, exp2))

    for k in range(17, 45):
        for s in range(36, 60):
            for delta in (-1, 0, 1):
                m = (2 ** (s - 1) + delta) * pow(5 ** k, -1, 2 ** s) % 2 ** s
                keep(m, 2 ** s, 5 ** k, 2 ** s, -s - k)
    for k in range(-22, 0):
        for u in range(12):
            for r in ((5 ** -k - 1) // 2, (5 ** -k + 1) // 2):
                keep(r * pow(2 ** u, -1, 5 ** -k) % 5 ** -k, 5 ** -k, 2 ** u, 5 ** -k, u - k)
    return np.array(found)


def edge_table():
    """Every edge case of the decision rule, each with both signs."""
    rng = np.random.default_rng(1604)
    # 20 nines parse to the double nearest a power of ten, which may lie
    # below it by less than half a 17th digit and so round up to it
    below_powers = [float("9" * 20 + f"e{k}") for k in range(-30, 30)]
    exponents = np.arange(-1074, 1024)
    mantissas = [1.0, np.nextafter(2.0, 0.0), 1.0 + rng.random()]
    x = np.concatenate([
        [1000000000000000.25, 1000000000000000.75, 0.0, math.inf, math.nan],
        ulp_neighbours([1e-5, 1e-4, 1e16, 1e17, 1e-280, 1e280]),
        ulp_neighbours([float(f"1e{k}") for k in range(-300, 301)]),
        below_powers,
        *(np.ldexp(mant, exponents) for mant in mantissas),
        near_ties(),
    ])
    return np.concatenate([x, -x])


def true_decimal(x: float):
    """The 17-digit (D, E) that ``%.17g`` prints for a finite nonzero x, and the tie distance.

    D is |x| * 10**(16 - E) rounded half up (ties are never compared), and
    a carry to 1e17 moves to the next decade.  The distance is that of
    the scaled value's fraction from 1/2.
    """
    d = abs(Decimal(x))
    E = d.adjusted()
    scaled = d.scaleb(16 - E)
    frac = scaled - int(scaled)
    D = int(scaled) + (frac > Decimal("0.5"))
    if D == 10 ** 17:
        D, E = 10 ** 16, E + 1
    return D, E, abs(frac - Decimal("0.5"))


def test_exact_ties_round_half_to_even():
    for x, want in [(1000000000000000.25, "1000000000000000.2"),
                    (1000000000000000.75, "1000000000000000.8")]:
        for sign in (1.0, -1.0):
            got = _format17(np.array([sign * x]))[0]
            assert got.tobytes().rstrip(b"\0").decode() == ("-" if sign < 0 else "") + want


def test_edge_table_matches_oracle():
    col = edge_table()
    same_as_oracle(ROWS[0], col, col[::-1], np.roll(col, 7))
    out = _format17(col)
    assert out.shape == (col.size, 24)
    # NUL-padded: no NUL before the last text byte of a row
    lengths = (out != 0).sum(axis=1)
    assert (out[np.arange(24) < lengths[:, None]] != 0).all()


def test_fast_path_decides_all_but_the_listed_rows():
    """``%`` gets only non-finite x, |x| outside [1e-280, 1e280], and near-ties."""
    col = edge_table()
    D, E, defer = _decimal17(col)
    want_defer = np.zeros(col.size, bool)
    carries = 0
    for i, x in enumerate(col.tolist()):
        if x == 0.0:
            assert (D[i], E[i]) == (0, 0)
        elif not 1e-280 <= abs(x) <= 1e280:
            want_defer[i] = True
        else:
            d, e, tie_distance = true_decimal(x)
            want_defer[i] = tie_distance < Decimal("1e-9")
            if not want_defer[i]:
                assert (D[i], E[i]) == (d, e), x
                carries += abs(Decimal(x)) < Decimal(10) ** e
    np.testing.assert_array_equal(defer, want_defer)
    assert (want_defer & (np.abs(col) >= 1e-280) & (np.abs(col) <= 1e280)).any()  # near-ties
    assert carries > 0  # doubles just below a power of ten that round up to it


def test_empty_columns():
    assert _format17(np.empty(0)).shape == (0, 24)
    assert text(_write_rows, ROWS[1], *[np.empty(0)] * 4) == ""
    fh = io.StringIO()
    _write_rows(fh, "atom,%.17g,%.17g\n", np.empty(0), np.empty(0))
    assert fh.getvalue() == ""


def test_grid_grows_and_changes_spacing(monkeypatch):
    monkeypatch.setattr(measures, "_grid", (math.nan, 0, ()))
    entries = []
    for g, n in [(0.001, 10), (0.001, 5000), (0.001, 4100), (0.005, 9000), (0.001, 20)]:
        same_as_oracle("%.17g,%.17g\n", g, np.ones(n))
        entries.append(measures._grid)
    assert [e[:2] for e in entries] == [(0.001, 10), (0.001, 5000), (0.001, 5000),
                                        (0.005, 9000), (0.001, 20)]
    assert [[b.shape for b in e[2]] for e in entries[1:4:2]] == [
        [(_BLOCK, 24), (904, 24)], [(_BLOCK, 24), (_BLOCK, 24), (808, 24)]]
    assert entries[2] is entries[1]  # a shorter file reuses the entry whole
    assert entries[1][2][0] is not entries[0][2][0]  # a partial block is formatted again


LAYERED = """
[birth_law]
kind = indicator
beta = 2.0
a = 0.0
b = 1.0

[initial_measure]
density = uniform
lo = 0.0
hi = 2.0
mass = 1.0
atoms = 0.25:0.5

[numerics]
h = 0.005
dt = 0.001
T = 6.0
x_max = 8.0

[diagnostics]
snapshot_times = {snaps}
sample_dt = 0.5

[outputs]
directory = out
"""


def reference_snapshot(mu) -> str:
    """``write_snapshot``'s file text through the oracle writer."""
    jumps = np.array(mu.jumps, dtype=float).reshape(-1, 3)
    atoms = np.array(mu.atoms, dtype=float).reshape(-1, 2)
    return "kind,x,value\n" + text(reference_write_rows, "density,%.17g,%.17g\n",
                                   mu.nodes, mu.density) + text(
        reference_write_rows, "atom,%.17g,%.17g\n", atoms[:, 0], atoms[:, 1]) + text(
        reference_write_rows, "jump_lo,%.17g,%.17g\njump_hi,%.17g,%.17g\n",
        jumps[:, 0], jumps[:, 1], jumps[:, 0], jumps[:, 2])


def reformatted(path) -> str:
    """A CSV file's text with every value parsed and written again by the oracle."""
    header, *rows = path.read_text().splitlines()
    cols = np.array([[float(v) for v in r.split(",")] for r in rows]).T
    return header + "\n" + text(reference_write_rows, ",".join(["%.17g"] * len(cols)) + "\n",
                                *cols)


class TestGridCache:
    def run(self, tmp_path, monkeypatch, snaps):
        """``run`` then ``spectral`` in this process, recording every grid block formatted.

        A block is recorded as ``(g, start, stop)`` when the grid cache
        returns it as a new matrix, not one it already held for g.
        """
        calls = []
        grid_blocks = measures._grid_blocks

        def spy(g, n):
            held = measures._grid[2] if measures._grid[0] == g else ()
            blocks = grid_blocks(g, n)
            calls.extend((g, i * _BLOCK, i * _BLOCK + len(b)) for i, b in enumerate(blocks)
                         if i >= len(held) or b is not held[i])
            return blocks

        monkeypatch.setattr(measures, "_grid_blocks", spy)
        monkeypatch.setattr(measures, "_grid", (math.nan, 0, ()))
        path = tmp_path / "s.ini"
        path.write_text(LAYERED.format(snaps=snaps))
        out = tmp_path / "o"
        assert main(["--quiet", "run", "--scenario", str(path), "--out", str(out)]) == 0
        return path, out, calls

    def test_every_file_equals_the_oracle(self, tmp_path, monkeypatch, capsys):
        # births at dt, a snapshot at 5 dt, two at dt, then the spectral table at h
        path, out, calls = self.run(tmp_path, monkeypatch, "3.0 2.999 2.998")
        dt, g5 = 0.001, 5 * 0.001
        assert calls == [(dt, 0, 4096), (dt, 4096, 6001),  # births.csv
                         (g5, 0, 1601),  # snapshot_3.csv
                         (dt, 0, 4096), (dt, 4096, 8001),  # snapshot_2.999.csv
                         (0.5, 0, 13)]  # diagnostics.csv; snapshot_2.998.csv formats none
        capsys.readouterr()
        assert main(["spectral", "--scenario", str(path)]) == 0
        assert calls[6:] == [(0.005, 0, 1601)]

        sc = load_scenario(str(path))
        spectral, traj = cli._simulate(sc)
        births = "t,b\n" + text(reference_write_rows, "%.17g,%.17g\n", traj.times, traj.births)
        files = {"births.csv": births}
        for ts in sc.snapshot_times:
            files[f"snapshot_{ts:g}.csv"] = reference_snapshot(evolve(traj, ts))
        files["diagnostics.csv"] = reformatted(out / "diagnostics.csv")
        for name, want in files.items():
            diff = first_difference((out / name).read_text(), want)
            assert diff is None, f"{name}: {diff}"
        t = np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=1, usecols=0)
        np.testing.assert_array_equal(t, np.arange(13) * 0.5)

        table = capsys.readouterr().out.split("x,N,phi\n")[1]
        xs = np.arange(1601) * sc.h
        diff = first_difference(table, text(reference_write_rows, "%.17g,%.17g,%.17g\n",
                                            xs, spectral.N(xs), spectral.phi(xs)))
        assert diff is None, diff

    def test_stride_one_snapshot_extends_the_births_grid(self, tmp_path, monkeypatch):
        # the births t column is a prefix of a stride-1 snapshot's x column
        _, out, calls = self.run(tmp_path, monkeypatch, "2.999")
        assert calls == [(0.001, 0, 4096), (0.001, 4096, 6001), (0.001, 4096, 8001),
                         (0.5, 0, 13)]
