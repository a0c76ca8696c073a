import ast
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import renewalsim as rs
from renewalsim import measures, scenarios
from renewalsim.cli import main
from renewalsim.errors import ScenarioError
from renewalsim.measures import HybridMeasure
from renewalsim.scenarios import load_scenario, parse_scenario

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
# environment for a subprocess that imports renewalsim from this checkout
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
     *filter(None, [os.environ.get("PYTHONPATH")])]))
# constant_dirac's 0.005 snapshot grid is coarser than dt = 0.001: the
# sampled dual mass drifts by trapezoid error (ROADMAP item 1, dt grid)
SHIPPED = [
    pytest.param(name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="FAIL conservation: max relative drift 2.084e-06; "
               "FAIL gre_monotonicity: max sampled increase 1.016e-07"))
    if name == "constant_dirac.ini" else name
    for name in sorted(os.listdir(SCENARIO_DIR)) if name.endswith(".ini")
]

GOLDEN = """
# minimal constant-rate point-mass scenario
[birth_law]
kind = constant
beta = 1.0

[initial_measure]
atoms = 0.5:1.0

[numerics]
h = 0.01
dt = 0.002
T = 2.0
x_max = 8.0

[diagnostics]
integrands = abs sqrt1p pospart
eta = phi one
snapshot_times = 1.0 2.0
eps_list = 0.4 0.2 0.1 0.05
sample_dt = 0.1

[outputs]
directory = out
"""

STATIONARY = """
[birth_law]
kind = constant
beta = 1.0

[initial_measure]
density = exponential
rate = 1.0
mass = 1.0

[numerics]
h = 0.0005
dt = 0.0005
T = 2.0
x_max = 20.0

[diagnostics]
sample_dt = 0.1

[outputs]
directory = out
"""

TABLE_LAW = """
[birth_law]
kind = table
x = 0 0.5 1 1.5
values = 1 3 2 0

[initial_measure]
density = gaussian-bump
center = 0.7
width = 0.2
mass = 1.0
atoms = 0.9:0.3

[numerics]
h = 0.002
dt = 0.002
T = 4.0
x_max = 6.0

[diagnostics]
snapshot_times = 4.0
sample_dt = 0.5

[outputs]
directory = out
"""


class TestParsing:
    def test_golden_scenario(self):
        sc = parse_scenario(GOLDEN)
        assert sc.birth_law.kind == "constant"
        assert sc.initial.atoms == ((0.5, 1.0),)
        assert sc.h == 0.01 and sc.dt == 0.002
        assert sc.snapshot_times == (1.0, 2.0)
        assert rs.solve_lambda0(sc.birth_law) == pytest.approx(1.0, abs=1e-10)

    def test_net_reproduction_window_check(self):
        text = GOLDEN.replace("beta = 1.0", "beta = 0.5").replace(
            "x_max = 8.0", "x_max = 2.0").replace("T = 2.0", "T = 1.0").replace(
            "atoms = 0.5:1.0", "atoms = 0.25:1.0")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any("net reproduction below one" in m for m in err.value.errors)

    def test_time_step_above_grid(self):
        text = GOLDEN.replace("dt = 0.002", "dt = 0.02")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any("time step exceeds grid spacing" in m for m in err.value.errors)

    def test_all_errors_reported(self):
        text = GOLDEN.replace("dt = 0.002", "dt = 0.02").replace(
            "atoms = 0.5:1.0", "atoms = 7.5:1.0")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        msgs = err.value.errors
        assert len(msgs) >= 2
        assert any("time step" in m for m in msgs)
        assert any("atom location" in m for m in msgs)

    def test_unknown_key_with_line_number(self):
        text = GOLDEN.replace("beta = 1.0", "beta = 1.0\nbogus = 3")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any("line" in m and "bogus" in m for m in err.value.errors)

    def test_truncation_certificate(self):
        text = GOLDEN.replace("kind = constant", "kind = indicator").replace(
            "beta = 1.0", "beta = 2.0\na = 0.0\nb = 7.0")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any("truncation certificate" in m for m in err.value.errors)

    def test_misaligned_edge_with_discontinuous_law(self):
        text = GOLDEN.replace("kind = constant", "kind = indicator").replace(
            "beta = 1.0", "beta = 2.0\na = 0.0\nb = 1.0035")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any("not on the spatial grid" in m for m in err.value.errors)

    def test_uniform_density_mass(self):
        text = STATIONARY.replace(
            "density = exponential\nrate = 1.0\nmass = 1.0",
            "density = uniform\nlo = 0.0\nhi = 2.0\nmass = 1.5")
        sc = parse_scenario(text)
        got = rs.integrate(sc.initial, lambda x: np.ones_like(np.asarray(x, float)))
        assert got == pytest.approx(1.5, rel=1e-12)

    def test_every_config_key_is_read(self, tmp_path, monkeypatch):
        # a key in _SECTIONS that no parse reads would be accepted and ignored
        read, get = set(), scenarios._Parser.get

        def spy(self, section, key, default=None):
            read.add((section, key))
            return get(self, section, key, default)

        monkeypatch.setattr(scenarios._Parser, "get", spy)
        rs.write_snapshot(HybridMeasure.from_function(lambda x: np.exp(-x), 8.0, 0.01),
                          tmp_path / "datum.csv")
        laws = ("kind = constant\nbeta = 1.0",
                "kind = indicator\nbeta = 2.0\na = 0.5\nb = 1.5",
                "kind = table\nx = 0 0.5 1.5\nvalues = 1 3 0")
        data = ("density = none",
                "density = exponential\nrate = 1.0\nmass = 1.0",
                "density = gaussian-bump\ncenter = 3.0\nwidth = 0.5",
                "density = uniform\nlo = 1.0\nhi = 2.0",
                "file = datum.csv")
        for law in laws:
            parse_scenario(GOLDEN.replace("kind = constant\nbeta = 1.0", law))
        for datum in data:
            parse_scenario(GOLDEN.replace("atoms = 0.5:1.0", f"atoms = 0.5:1.0\n{datum}"),
                           base_dir=str(tmp_path))
        keys = {(name, key) for name, keys in scenarios._SECTIONS.items() for key in keys}
        assert keys - read == set()

    def test_negative_atom_rejected(self):
        text = GOLDEN.replace("atoms = 0.5:1.0", "atoms = 0.5:-1.0")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any("negative" in m for m in err.value.errors)


LAW, ATOMS = "kind = constant\nbeta = 1.0", "atoms = 0.5:1.0"
INTEGRANDS = "integrands = abs sqrt1p pospart"
# 10000.2 and 10000.25 are distinct grid times with one "{t:g}" name
COLLIDING = {"beta = 1.0": "beta = 0.001",
             "h = 0.01\ndt = 0.002\nT = 2.0\nx_max = 8.0":
                 "h = 0.05\ndt = 0.05\nT = 10001\nx_max = 10002",
             "snapshot_times = 1.0 2.0": "snapshot_times = 10000.2 10000.25"}

# (edits of GOLDEN, a message parse_scenario reports for it); None: it parses.
# coarse.csv and bad.csv are written by the parser_files fixture
PARSER_MESSAGES = [
    ({"[outputs]": "[output]"}, "line 23: unknown section [output]"),
    ({"[outputs]": "[output]"}, "line 24: key outside any section"),
    ({"directory = out": "directory = out\n[outputs]"}, "line 25: duplicate section [outputs]"),
    ({"directory = out": "directory = out\nbogus"}, "line 25: expected 'key = value'"),
    ({"beta = 1.0": "beta = 1.0\nbogus = 3"}, "line 6: unknown key 'bogus' in [birth_law]"),
    ({"beta = 1.0": "beta = 1.0\nbeta = 2.0"}, "line 6: duplicate key 'beta'"),
    ({"beta = 1.0\n": ""}, "[birth_law] missing required key 'beta'"),
    ({"beta = 1.0": "beta = one"}, "[birth_law] beta: not a number: 'one'"),
    ({"snapshot_times = 1.0 2.0": "snapshot_times = 1.0 two"},
     "[diagnostics] snapshot_times: not a number list: '1.0 two'"),
    ({"kind = constant\n": ""}, "[birth_law] missing required key 'kind'"),
    ({LAW: "kind = table"}, "[birth_law] table law needs 'x' and 'values'"),
    ({"kind = constant": "kind = bogus"}, "[birth_law] unknown kind 'bogus'"),
    ({"beta = 1.0": "beta = -1"}, "[birth_law] constant birth rate must be positive and finite"),
    ({"beta = 1.0": "beta = 1.0\na = 0.0"}, "[birth_law] 'a' is not used by this configuration"),
    ({ATOMS: "atoms = 0.5"}, "[initial_measure] bad atom token '0.5'"),
    ({ATOMS: ATOMS + "\ndensity = gaussian-bump\ncenter = 1.0\nwidth = 0"},
     "[initial_measure] gaussian-bump needs center and width > 0"),
    ({ATOMS: ATOMS + "\ndensity = uniform\nlo = 0.005\nhi = 1.0"},
     "[initial_measure] uniform edges must sit on the grid"),
    ({ATOMS: ATOMS + "\ndensity = uniform\nlo = 1.0\nhi = 9.0"},
     "[initial_measure] uniform support must lie in [0, x_max]"),
    ({ATOMS: ATOMS + "\ndensity = bogus"}, "[initial_measure] unknown density 'bogus'"),
    ({"h = 0.01": "h = -0.01"}, "[numerics] h must be positive"),
    ({"dt = 0.002": "dt = 0.02"}, "time step exceeds grid spacing"),
    ({"dt = 0.002": "dt = 0.003"}, "grid spacing must be an integer multiple of the time step"),
    ({"x_max = 8.0": "x_max = 8.005"}, "x_max must be an integer multiple of the grid spacing"),
    ({"T = 2.0": "T = 2.001"}, "horizon must be an integer multiple of the time step"),
    ({"T = 2.0": "T = 9.0"}, "horizon T exceeds x_max: newborns would age past the grid"),
    ({"beta = 1.0": "beta = 0.1"}, "net reproduction below one"),
    ({LAW: "kind = indicator\nbeta = 2.0\na = 0.0\nb = 7.0"},
     "truncation certificate violated: support_end + T exceeds x_max"),
    ({LAW: "kind = indicator\nbeta = 2.0\na = 0.0\nb = 1.0035"},
     "birth-law discontinuity at 1.0035 is not on the spatial grid"),
    ({ATOMS: "atoms = 7.5:1.0"}, "atom location 7.5 outside (0, x_max - T)"),
    ({ATOMS: "atoms = 0.5:-1.0"}, "atom at 0.5 has negative weight"),
    ({LAW: "kind = indicator\nbeta = 2.0\na = 0.0\nb = 1.0", ATOMS: "atoms = 0.505:1.0"},
     "atom at 0.505 is not on the spatial grid (required with a discontinuous birth law)"),
    ({"sample_dt = 0.1": "sample_dt = 0.003"},
     "sample_dt must be a positive multiple of the time step"),
    ({"snapshot_times = 1.0 2.0": "snapshot_times = 1.0 3.0"},
     "snapshot time 3.0 must be a time-grid point in [0, T]"),
    (COLLIDING, "snapshot times 10000.2 and 10000.25 share the file name snapshot_10000.2.csv"),
    ({"eps_list = 0.4 0.2 0.1 0.05": "eps_list = 0.2 0.4"}, "eps_list must be strictly decreasing"),
    ({"eps_list = 0.4 0.2 0.1 0.05": "eps_list = 0.4 0.005"},
     "eps_list entries must be at least the grid spacing"),
    ({INTEGRANDS: "integrands = abs bogus"}, "unknown integrand 'bogus'"),
    ({INTEGRANDS: "integrands = abs_shift(2)"}, None),
    ({INTEGRANDS: "integrands = abs_shift(x)"}, "unknown integrand 'abs_shift(x)'"),
    ({INTEGRANDS: "integrands = abs_shift(1e999)"}, "unknown integrand 'abs_shift(1e999)'"),
    ({"eta = phi one": "eta = psi"}, "unknown eta choice 'psi' (use phi or one)"),
    ({ATOMS: "file = coarse.csv"}, "initial measure file grid does not match the numerics"),
    ({ATOMS: "file = bad.csv"}, "initial measure file: bad snapshot header: 'nonsense'"),
    ({"T = 2.0": "T = 0.2", "snapshot_times = 1.0 2.0": "snapshot_times = 0.2",
      ATOMS: "atoms = 7.7:1.0"},
     "eps_list: the kernel of width 0.4 around the atom at 7.7 leaves [0, x_max]"),
    ({ATOMS: ATOMS + "\ndensity = exponential\nmass = -1"},
     "initial measure: nonnegative measure has a negative density node"),
    ({INTEGRANDS: "integrands = abs_shift(1) abs abs_shift(1.0)"},
     "[diagnostics] integrand 'abs_shift(1)' is listed twice"),
    ({"eta = phi one": "eta = phi one phi"}, "[diagnostics] eta choice 'phi' is listed twice"),
]


@pytest.fixture(scope="module")
def parser_files(tmp_path_factory):
    path = tmp_path_factory.mktemp("parser_files")
    rs.write_snapshot(HybridMeasure.from_function(lambda x: np.exp(-x), 8.0, 0.02),
                      path / "coarse.csv")
    (path / "bad.csv").write_text("nonsense\n")
    return str(path)


@pytest.mark.parametrize("edits, message", PARSER_MESSAGES)
def test_parser_message(parser_files, edits, message):
    text = GOLDEN
    for old, new in edits.items():
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    if message is None:
        parse_scenario(text, base_dir=parser_files)
        return
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text, base_dir=parser_files)
    assert message in err.value.errors


def _message_templates() -> dict:
    """Each message ``scenarios.py`` writes into its error list, as a regex per source text.

    A message is a string literal or f-string inside the arguments of an
    ``errors``/``errs`` ``append`` or ``extend``, or of ``ScenarioError``;
    each f-string field matches any text.
    """
    with open(scenarios.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = {}

    def collect(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] = re.escape(node.value)
        elif isinstance(node, ast.JoinedStr):
            parts = [re.escape(v.value) if isinstance(v, ast.Constant) else ".+"
                     for v in node.values]
            found[ast.unparse(node)] = "".join(parts)
        else:
            for child in ast.iter_child_nodes(node):
                collect(child)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute):
            owner = getattr(f.value, "attr", getattr(f.value, "id", None))
            sink = f.attr in ("append", "extend") and owner in ("errors", "errs")
        else:
            sink = getattr(f, "id", None) == "ScenarioError"
        if sink:
            for arg in node.args:
                collect(arg)
    return found


def test_every_parser_message_has_a_row():
    # a row covers the template that matches its message with the most
    # literal text, so "[birth_law] {exc}" needs a row of its own
    templates = _message_templates()
    assert len(templates) >= 40, sorted(templates)

    def literal(pattern):
        return len(re.sub(r"\\(.)", r"\1", pattern.replace(".+", "")))

    covered = set()
    for _, message in PARSER_MESSAGES:
        hits = [src for src, pattern in templates.items()
                if message is not None and re.fullmatch(pattern, message, re.S)]
        if hits:
            covered.add(max(hits, key=lambda src: literal(templates[src])))
    assert sorted(templates.keys() - covered) == []


class TestCli:
    def write(self, tmp_path, text, name="scenario.ini"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def mixed(self, tmp_path, **values):
        """``indicator_mixed.ini`` with the given ``key = value`` lines replaced."""
        with open(os.path.join(SCENARIO_DIR, "indicator_mixed.ini"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for key, value in values.items():
            lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                     for line in lines]
        return self.write(tmp_path, "\n".join(lines))

    def test_spectral_prints_growth_rate(self, tmp_path, capsys):
        path = self.write(tmp_path, GOLDEN)
        assert main(["spectral", "--scenario", path]) == 0
        out = capsys.readouterr().out.splitlines()
        lam = float(out[0].split("=")[1])
        assert abs(lam - 1.0) <= 1e-10
        assert out[4] == "x,N,phi"

    def test_distance_between_point_snapshots(self, tmp_path, capsys):
        a = rs.HybridMeasure.point_mass(0.0, 4.0, 0.5)
        b = rs.HybridMeasure.point_mass(0.5, 4.0, 0.5)
        pa, pb = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        rs.write_snapshot(a, pa)
        rs.write_snapshot(b, pb)
        assert main(["distance", pa, pb]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5, abs=1e-12)

    def test_distance_reports_a_non_ascii_byte(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"kind,x,value\ndensity,0,1\xc3\xa9\n")
        assert main(["distance", str(bad), str(bad)]) == 2
        assert capsys.readouterr().err == "numerical error: line 2: non-ASCII byte 0xc3\n"

    def test_run_writes_artifacts_deterministically(self, tmp_path, capsys):
        path = self.write(tmp_path, GOLDEN)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["--quiet", "run", "--scenario", path, "--out", str(out1)]) == 0
        assert main(["--quiet", "run", "--scenario", path, "--out", str(out2)]) == 0

        births = (out1 / "births.csv").read_text().splitlines()
        assert len(births) == 1 + 1001  # header + T/dt + 1 rows
        diags = (out1 / "diagnostics.csv").read_text().splitlines()
        assert len(diags) == 1 + 21  # header + floor(T / sample_dt) + 1
        header = diags[0].split(",")
        assert header[:5] == ["t", "D_phi", "D_one", "m_k", "conserved_phi_mass"]
        assert "gre_abs" in header and "J_sqrt1p" in header

        for name in ("births.csv", "diagnostics.csv", "decayfit.json",
                     "snapshot_1.csv", "snapshot_2.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

        snap = rs.read_snapshot(out1 / "snapshot_1.csv")
        assert len(snap.atoms) == 1

        fit = json.loads((out1 / "decayfit.json").read_text())
        assert set(fit) == {"eta_name", "sigma_hat", "y0_hat", "r_squared",
                            "m0", "sample_count"}

    def test_run_restarts_from_snapshot_with_its_jumps(self, tmp_path, capsys):
        # the t = 1 snapshot has a seam jump; reloaded as initial data it keeps
        # the record, so the restart's t = 0 diagnostics are the original's at t = 1
        out = tmp_path / "o"
        path = self.write(tmp_path, GOLDEN)
        assert main(["--quiet", "run", "--scenario", path, "--out", str(out)]) == 0
        snap = rs.read_snapshot(out / "snapshot_1.csv")
        assert snap.jumps
        restart = self.write(tmp_path, GOLDEN.replace(
            "atoms = 0.5:1.0", "file = o/snapshot_1.csv"), name="restart.ini")
        assert load_scenario(restart).initial.jumps == snap.jumps
        out2 = tmp_path / "o2"
        assert main(["--quiet", "run", "--scenario", restart, "--out", str(out2)]) == 0
        rows = [(out / "diagnostics.csv").read_text().splitlines(),
                (out2 / "diagnostics.csv").read_text().splitlines()]
        header = rows[0][0].split(",")
        at_1 = dict(zip(header, map(float, rows[0][11].split(","))))  # sample_dt 0.1
        at_0 = dict(zip(header, map(float, rows[1][1].split(","))))
        assert at_1["t"] == 1.0 and at_0["t"] == 0.0
        for name in header:
            if name.startswith(("gre_", "J_", "conserved_phi_mass")):
                assert at_0[name] == pytest.approx(at_1[name], rel=1e-12, abs=1e-15), name
        # the restart read the snapshot's twin; without it, the parsed CSV
        # gives the same artifacts, byte for byte
        assert measures._twin_measure(out / "snapshot_1.csv") is not None
        (out / "snapshot_1.csv.bin").unlink()
        out3 = tmp_path / "o3"
        assert main(["--quiet", "run", "--scenario", restart, "--out", str(out3)]) == 0
        names = sorted(os.listdir(out2))
        assert names == sorted(os.listdir(out3)) and "snapshot_1.csv.bin" in names
        for name in names:
            assert (out2 / name).read_bytes() == (out3 / name).read_bytes(), name

    def test_run_writes_only_requested_eta_columns(self, tmp_path, capsys):
        path = self.write(tmp_path, GOLDEN.replace("eta = phi one", "eta = one"))
        out = tmp_path / "o"
        assert main(["--quiet", "run", "--scenario", path, "--out", str(out)]) == 0
        header = (out / "diagnostics.csv").read_text().splitlines()[0].split(",")
        assert header[:4] == ["t", "D_one", "m_k", "conserved_phi_mass"]
        assert "D_phi" not in header
        # the decay fit still uses the dual-weighted distance
        fit = json.loads((out / "decayfit.json").read_text())
        assert fit["eta_name"] == "phi" and fit["sample_count"] > 0

    def test_quiet_after_subcommand(self, tmp_path, capsys):
        # the form documented in the README
        path = self.write(tmp_path, GOLDEN)
        assert main(["run", "--scenario", path, "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["run", "--scenario", path, "--out", str(tmp_path / "o")]) == 0
        assert "wrote births.csv" in capsys.readouterr().out

    def test_table_law_births_reach_dual_mass_limit(self, tmp_path, capsys):
        # b(T) -> m0 * lambda0 with m0 the conserved dual mass
        path = self.write(tmp_path, TABLE_LAW)
        out = tmp_path / "o"
        assert main(["--quiet", "run", "--scenario", path, "--out", str(out)]) == 0
        b_T = float((out / "births.csv").read_text().splitlines()[-1].split(",")[1])
        diags = (out / "diagnostics.csv").read_text().splitlines()
        m0 = float(diags[1].split(",")[diags[0].split(",").index("conserved_phi_mass")])
        ref = m0 * rs.solve_lambda0(parse_scenario(TABLE_LAW).birth_law)
        assert abs(b_T - ref) <= 1e-4 * abs(ref)

    def test_verify_stationary_scenario_passes(self, tmp_path, capsys):
        path = self.write(tmp_path, STATIONARY)
        code = main(["verify", "--scenario", path])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FAIL" not in out
        assert "PASS conservation" in out

    @pytest.mark.parametrize("name", SHIPPED)
    def test_verify_shipped_scenario(self, name, capsys):
        code = main(["verify", "--scenario", os.path.join(SCENARIO_DIR, name)])
        out = capsys.readouterr().out
        assert code == 0 and "FAIL" not in out, out

    @pytest.mark.parametrize("h, sample_dt", [("0.002", "0.05025"), ("0.00125", "0.0505")])
    def test_verify_samples_on_mixed_strides(self, tmp_path, capsys, h, sample_dt):
        # dt = 0.00025: the samples' own strides gcd(k, h/dt) are 1, 2, 4 and 8
        # (h = 0.002) or 1 and 5 (h = 0.00125); the checks compare samples, so
        # the sweep puts them all on one grid
        code = main(["verify", "--scenario", self.mixed(tmp_path, h=h, sample_dt=sample_dt)])
        out = capsys.readouterr().out
        assert code == 0 and "FAIL" not in out, out

    @pytest.mark.parametrize("values, skipped", [
        ({"integrands": ""}, ["gre_monotonicity: skipped: no integrands",
                              "dissipation: skipped: no integrands",
                              "mollification: skipped: no integrands"]),
        ({"T": "0.04", "snapshot_times": "0.04"}, ["gre_monotonicity: skipped: one sample",
                                                   "birth_integral_limit: skipped: one sample"]),
    ])
    def test_verify_skips_checks_without_their_data(self, tmp_path, capsys, values, skipped):
        # no integrand, or a single sample (T < sample_dt): the checks that need
        # them say so, and the other checks still run
        code = main(["verify", "--scenario", self.mixed(tmp_path, **values)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and len(lines) == 6, lines
        assert [line for line in lines if "skipped" in line] == [f"PASS {s}" for s in skipped]

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = self.write(tmp_path, GOLDEN.replace("dt = 0.002", "dt = 0.02"))
        assert main(["run", "--scenario", path]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("law", [
        "kind = table\nx = 0 1\nvalues = nan 3",
        "kind = table\nx = 0 1\nvalues = inf inf",
        # the normalization check is exact and has no panel count: the old key is unknown
        "kind = constant\nbeta = 1.0\nquadrature_panels = 2000",
    ])
    def test_birth_law_config_errors(self, tmp_path, capsys, law):
        path = self.write(tmp_path, GOLDEN.replace("kind = constant\nbeta = 1.0", law))
        assert main(["spectral", "--scenario", path]) == 1
        err = capsys.readouterr().err
        if "quadrature_panels" in law:
            assert "config error: line 6: unknown key 'quadrature_panels' in [birth_law]" in err
        else:
            assert "config error: [birth_law]" in err

    @pytest.mark.parametrize("key, value", [
        ("sample_dt", "inf"), ("sample_dt", "nan"), ("hi", "inf"),
        ("atoms", "nan:0.5"), ("atoms", "inf:0.5"), ("h", "nan"), ("x_max", "inf"),
        ("eps_list", "nan"),
        # the density builder's own errors reach the report too
        ("density", "bogus"),
    ])
    def test_non_finite_values_are_config_errors(self, tmp_path, capsys, key, value):
        # each validator reports its own message instead of a traceback
        assert main(["verify", "--scenario", self.mixed(tmp_path, **{key: value})]) == 1
        err = capsys.readouterr().err
        assert "config error: " in err and "Traceback" not in err, err

    def test_spectral_on_a_steep_law(self, tmp_path, capsys):
        for beta in ("200.0", "1e5"):
            law = f"kind = indicator\nbeta = {beta}\na = 0.0\nb = 1.0"
            path = self.write(tmp_path, GOLDEN.replace("kind = constant\nbeta = 1.0", law))
            assert main(["spectral", "--scenario", path]) == 0, capsys.readouterr().err

    def test_repeated_abscissa_table_equals_indicator(self, tmp_path, capsys):
        laws = {"indicator": "kind = indicator\nbeta = 2.0\na = 0.25\nb = 1",
                "table": "kind = table\nx = 0 0.25 0.25 1\nvalues = 0 0 2 2"}
        for name, law in laws.items():
            path = self.write(tmp_path, GOLDEN.replace("kind = constant\nbeta = 1.0", law),
                              name=f"{name}.ini")
            assert main(["--quiet", "run", "--scenario", path,
                         "--out", str(tmp_path / name)]) == 0
        for name in ("births.csv", "diagnostics.csv", "snapshot_1.csv", "snapshot_2.csv"):
            table = (tmp_path / "table" / name).read_bytes()
            assert table == (tmp_path / "indicator" / name).read_bytes(), name
        assert load_scenario(str(tmp_path / "table.ini")).birth_law.jump_points() == (
            (0.25, 0.0, 2.0), (1.0, 2.0, 0.0))

    def test_commands_leave_numpy_random_unloaded(self, tmp_path):
        # importing numpy.random costs every command about 15 ms
        path = self.write(tmp_path, GOLDEN)
        script = (
            "import sys\n"
            "from renewalsim.cli import main\n"
            f"codes = [main(['--quiet', cmd, '--scenario', {path!r}, *extra])\n"
            f"         for cmd, extra in (('run', ['--out', {str(tmp_path / 'o')!r}]),"
            " ('verify', []))]\n"
            "print(codes, 'numpy.random' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], env=SRC_ENV, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        codes, loaded = out.split("\n")[-2].rsplit(" ", 1)
        # verify may exit 3: GOLDEN's coarse sample grid fails conservation
        assert codes in ("[0, 0]", "[0, 3]") and loaded == "False", out

    def test_cli_leaves_quadrature_unloaded(self):
        # Simpson quadrature is the tests' oracle, and linear combinations on a
        # common grid (the only Fraction user) live in tests/oracles.py
        script = ("import sys\nimport renewalsim.cli\n"
                  "print([m in sys.modules for m in ('renewalsim.quadrature', 'fractions')])\n")
        out = subprocess.run([sys.executable, "-c", script], env=SRC_ENV, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == "[False, False]", out

    def test_commands_leave_numpy_ma_and_hashlib_unloaded(self, tmp_path):
        # np.unique without return_index imports numpy.ma: about 9 ms and 1 MB
        # that every command would pay for nothing.  hashlib loads OpenSSL:
        # about 2.6 ms and 3.6 MB; snapshot twins are checked with zlib's CRC-32
        script = (
            "import sys\nfrom renewalsim.cli import main\n"
            "costly = ('numpy.ma', 'hashlib', '_hashlib')\n"
            "print([m for m in costly if m in sys.modules])\n"
            f"ini, out = {os.path.join(SCENARIO_DIR, 'indicator_mixed.ini')!r}, {str(tmp_path)!r}\n"
            "assert main(['run', '--scenario', ini, '--out', out, '--quiet']) == 0\n"
            "assert main(['verify', '--scenario', ini]) == 0\n"
            "assert main(['distance', out + '/snapshot_2.csv', out + '/snapshot_6.csv']) == 0\n"
            "print([m for m in costly if m in sys.modules])\n")
        out = subprocess.run([sys.executable, "-c", script], env=SRC_ENV, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        lines = out.splitlines()
        assert lines[0] == lines[-1] == "[]", out
        assert (tmp_path / "snapshot_6.csv.bin").exists()

    def test_dissipation_bound_carries_phi0_lambda0(self, tmp_path, capsys):
        # beta = 0.5: phi(0) N(0) = 0.5, so gre(0) - gre(T) = 0.5 int J and the
        # unscaled int J = 4.0000009 would exceed gre(0) + 1e-6 = 2.0000015
        with open(os.path.join(SCENARIO_DIR, "constant_dirac.ini"), encoding="utf-8") as fh:
            text = fh.read()
        for key, value in (("beta", "0.5"), ("T", "30.0"), ("x_max", "60.0"),
                           ("integrands", "abs_shift(1)"), ("sample_dt", "0.005")):
            text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                             for line in text.splitlines())
        main(["verify", "--scenario", self.write(tmp_path, text)])
        line = next(ln for ln in capsys.readouterr().out.splitlines() if "dissipation" in ln)
        assert line.startswith("PASS dissipation:") and "phi(0)N(0) = 0.5;" in line, line

    def test_python_dash_m_runs_the_cli(self):
        # a checkout has no console script: README's commands run as python -m
        proc = subprocess.run(
            [sys.executable, "-m", "renewalsim", "verify", "--scenario",
             os.path.join(SCENARIO_DIR, "indicator_mixed.ini")],
            env=SRC_ENV, capture_output=True, text=True, timeout=120)
        lines = proc.stdout.splitlines()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert len(lines) == 6 and all(line.startswith("PASS ") for line in lines)

    def test_overflowing_density_is_one_config_error_line(self, tmp_path):
        # mass * rate overflows: numpy must not print warnings before the error
        with open(os.path.join(SCENARIO_DIR, "indicator_mixed.ini"), encoding="utf-8") as fh:
            text = fh.read()
        text = text.replace("density = uniform\nlo = 0.0\nhi = 2.0\nmass = 1.0",
                            "density = exponential\nmass = 10\nrate = 1e308")
        assert "rate = 1e308" in text
        proc = subprocess.run(
            [sys.executable, "-m", "renewalsim", "verify", "--scenario", self.write(tmp_path, text)],
            env=SRC_ENV, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == "config error: initial measure: density values must be finite\n"

    def test_eps_list_kernel_past_x_max_is_a_config_error(self, tmp_path, capsys):
        # the widest kernel around the atom at 11.45 would reach 12.25 > x_max = 12
        with open(os.path.join(SCENARIO_DIR, "indicator_mixed.ini"), encoding="utf-8") as fh:
            text = fh.read()
        for key, value in (("atoms", "11.45:0.5"), ("T", "0.5"), ("snapshot_times", "0.5"),
                           ("sample_dt", "0.1"), ("eps_list", "0.8 0.4 0.2 0.1 0.05")):
            text = "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line
                             for line in text.splitlines())
        path = self.write(tmp_path, text)
        assert main(["verify", "--scenario", path]) == 1
        err = capsys.readouterr().err
        assert "config error: eps_list" in err and "0.8" in err and "11.45" in err, err
        text = text.replace("0.8 0.4", "0.55 0.4")  # 11.45 + 0.55 = x_max still fits
        assert main(["verify", "--scenario", self.write(tmp_path, text)]) in (0, 3)
        assert len(capsys.readouterr().out.splitlines()) == 6

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_horizon_past_x_max_is_a_config_error(self, tmp_path, capsys, command):
        # a constant law has no support end to bound T: newborns would age past x_max
        text = STATIONARY.replace("h = 0.0005\ndt = 0.0005\nT = 2.0\nx_max = 20.0",
                                  "h = 0.01\ndt = 0.01\nT = 3.0\nx_max = 2.0").replace(
            "sample_dt = 0.1", "snapshot_times = 1 3")
        out = tmp_path / "o"
        args = [command, "--scenario", self.write(tmp_path, text)]
        assert main(args + ["--out", str(out)] if command == "run" else args) == 1
        assert capsys.readouterr().err == ("config error: horizon T exceeds x_max: "
                                           "newborns would age past the grid\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["density kind", "law kind", "file with density"])
    def test_unread_keys_are_config_errors(self, tmp_path, capsys, case):
        # each key here was parsed and then ignored: rate under density =
        # uniform, beta under kind = table, the density keys beside file =
        if case == "density kind":
            with open(os.path.join(SCENARIO_DIR, "indicator_mixed.ini"), encoding="utf-8") as fh:
                text = fh.read().replace("mass = 1.0", "mass = 1.0\nrate = 3.0")
            unread = [("initial_measure", "rate")]
        elif case == "law kind":
            text = GOLDEN.replace(LAW, "kind = table\nbeta = 1.0\nx = 0 0.5 1.5\nvalues = 1 3 0")
            unread = [("birth_law", "beta")]
        else:
            rs.write_snapshot(HybridMeasure.from_function(lambda x: np.exp(-x), 8.0, 0.01),
                              tmp_path / "datum.csv")
            text = GOLDEN.replace(ATOMS, "file = datum.csv\ndensity = exponential\nrate = 2.0")
            unread = [("initial_measure", "density"), ("initial_measure", "rate")]
        assert main(["verify", "--scenario", self.write(tmp_path, text)]) == 1
        assert capsys.readouterr().err == "".join(
            f"config error: [{section}] {key!r} is not used by this configuration\n"
            for section, key in unread)

    def test_snapshot_times_sharing_a_file_name(self, tmp_path, capsys):
        # run writes snapshot_{t:g}.csv, and :g keeps six significant digits
        text = GOLDEN
        for old, new in COLLIDING.items():
            text = text.replace(old, new)
        out = tmp_path / "o"
        assert main(["run", "--scenario", self.write(tmp_path, text), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: snapshot times 10000.2 and 10000.25 share the file name "
            "snapshot_10000.2.csv\n")
        assert not out.exists()
        # equal times name one file with one snapshot: still allowed
        text = text.replace("10000.2 10000.25", "10000.25 10000.250 10000.3")
        assert parse_scenario(text).snapshot_times == (10000.25, 10000.25, 10000.3)

    def test_missing_file_exit_code(self, capsys):
        assert main(["run", "--scenario", "/nonexistent.ini"]) == 1

    @pytest.mark.parametrize("argv, usage, message", [
        (["distance", "a.csv"], "usage: renewalsim distance", "required: file_b"),
        (["run"], "usage: renewalsim run", "required: --scenario"),
        (["bogus"], "usage: renewalsim [-h]", "invalid choice: 'bogus'"),
    ], ids=["distance-one-file", "run-no-scenario", "unknown-command"])
    def test_usage_error_is_a_config_error(self, capsys, argv, usage, message):
        # exit 2 is kept for numerical failures: a bad command line exits 1
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(usage) and message in err, err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: renewalsim")

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # growth rate 20 on a 40-long window: density/N overflows in the
        # entropy diagnostics
        text = GOLDEN.replace("beta = 1.0", "beta = 20.0").replace(
            "h = 0.01", "h = 0.05").replace("dt = 0.002", "dt = 0.05").replace(
            "x_max = 8.0", "x_max = 40.0")
        path = self.write(tmp_path, text)
        sc_code = main(["run", "--scenario", path, "--out", str(tmp_path / "o")])
        assert sc_code == 2
        assert "numerical error" in capsys.readouterr().err
