"""The CSV writer against the one-template oracle, byte for byte.

``measures._write_rows`` formats a grid column once per spacing and each
run of equal values once; ``oracles.reference_write_rows`` formats every
value with ``%.17g``.  The two must write the same text.
"""
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewalsim import cli, measures
from renewalsim.cli import main
from renewalsim.measures import _BLOCK, _write_rows
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


def test_grid_grows_and_changes_spacing(monkeypatch):
    monkeypatch.setattr(measures, "_grid", (math.nan, 0, ()))
    for g, n in [(0.001, 10), (0.001, 5000), (0.001, 4100), (0.005, 9000), (0.001, 20)]:
        same_as_oracle("%.17g,%.17g\n", g, np.ones(n))
    assert measures._grid[:2] == (0.001, 20)


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
        """``run`` then ``spectral`` in this process, recording every grid block formatted."""
        calls = []
        fmt = measures._format_grid

        def spy(g, start, stop):
            calls.append((g, start, stop))
            return fmt(g, start, stop)

        monkeypatch.setattr(measures, "_format_grid", spy)
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
