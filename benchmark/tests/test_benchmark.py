"""Tests of the benchmark's own code: generator, output checks, tracer.

Run from the repository root: python3 -m pytest benchmark/tests -q
"""
import math

import pytest

import checks
import spans
import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    a, b, c = (workloads.generate(name, s) for s in (7, 7, 8))
    assert a.ini == b.ini and a.lambda0 == b.lambda0
    assert a.ini != c.ini
    assert a.sizes == c.sizes
    assert len(a.atoms) == len(c.atoms) == a.sizes["atoms"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generated_sizes_match_the_scenario(name):
    import renewalsim

    wl = workloads.generate(name, 3)
    sc = renewalsim.parse_scenario(wl.ini)
    assert round(sc.horizon / sc.dt) == wl.sizes["K"]
    assert sc.initial.node_count == wl.sizes["nodes"]
    assert len(sc.initial.atoms) == wl.sizes["atoms"]
    assert round(sc.horizon / sc.sample_dt) + 1 == wl.sizes["samples"]
    assert len(sc.snapshot_times) == wl.sizes["snapshots"]


def test_euler_lotka_root_matches_closed_form():
    law = {"kind": "indicator", "beta": 2.0, "a": 0.0, "b": 1.0}
    lam = workloads.euler_lotka_root(law)
    assert abs(2.0 * (1.0 - math.exp(-lam)) / lam - 1.0) < 1e-13


def _write_run(tmp_path, births, m0, samples=3):
    with open(tmp_path / "births.csv", "w") as fh:
        fh.write("t,b\n" + "".join(f"{0.1 * i!r},{b!r}\n" for i, b in enumerate(births)))
    with open(tmp_path / "diagnostics.csv", "w") as fh:
        fh.write("t,D_phi,conserved_phi_mass\n")
        fh.write("".join(f"{0.5 * i!r},0.1,{m0!r}\n" for i in range(samples)))


def test_constant_law_births_perturbed_by_1e3_are_rejected(tmp_path):
    refs = {"K": 4, "samples": 3, "lambda0": 1.0, "const_births": 1.7}
    _write_run(tmp_path, [1.7] * 5, 1.7)
    assert checks.check_run(tmp_path, refs) == []
    _write_run(tmp_path, [1.7, 1.7, 1.7 * (1 + 1e-3), 1.7, 1.7], 1.7)
    assert checks.check_run(tmp_path, refs)


def test_limit_births_perturbed_by_1e3_are_rejected(tmp_path):
    refs = {"K": 4, "samples": 3, "lambda0": 1.5, "const_births": None}
    good = [3.0, 2.0, 1.6, 1.52, 1.2 * 1.5]
    _write_run(tmp_path, good, 1.2)
    assert checks.check_run(tmp_path, refs) == []
    _write_run(tmp_path, good[:-1] + [good[-1] * (1 + 1e-3)], 1.2)
    assert checks.check_run(tmp_path, refs)
    _write_run(tmp_path, good[:-1], 1.2)  # a row short
    assert checks.check_run(tmp_path, refs)


def test_verify_output_check():
    lines = "\n".join(f"PASS c{i}: ok" for i in range(6))
    assert checks.check_verify(lines, 0) == (0, [])
    failing = lines.replace("PASS c2", "FAIL c2")
    assert checks.check_verify(failing, 3) == (1, [])
    assert checks.check_verify(failing, 0)[1]
    assert checks.check_verify("\n".join(lines.splitlines()[:5]), 0)[1]


def _write_snapshot(path, h, values, atoms=()):
    with open(path, "w") as fh:
        fh.write("kind,x,value\n")
        fh.write("".join(f"density,{i * h!r},{v!r}\n" for i, v in enumerate(values)))
        fh.write("".join(f"atom,{x!r},{w!r}\n" for x, w in atoms))


def test_distance_check_bounds_and_symmetry(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_snapshot(a, 0.5, [1.0, 1.0, 1.0], [(0.25, 0.5)])
    _write_snapshot(b, 0.5, [0.0, 0.0, 0.0])
    # mass difference = 1 + 0.5 = total variation, so the distance is 1.5
    assert checks.check_distance(1.5, 1.5, a, b) == []
    assert checks.check_distance(1.5, 1.5 + 1e-6, a, b)
    assert checks.check_distance(1.4, 1.4, a, b)
    assert checks.check_distance(1.6, 1.6, a, b)


def test_self_times_on_a_synthetic_span_tree():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 7.0, 2),
        ("a", 7.5, 8.0, 2),
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({"root": 3.0, "a": 3.5, "b": 2.5, "c": 1.0})


def test_self_times_clip_overlapping_children():
    tree = [("p", 0.0, 4.0, -1), ("x", 1.0, 3.0, 0), ("y", 2.0, 5.0, 0)]
    assert spans.self_times(tree)["p"] == pytest.approx(1.0)


def test_tracer_wraps_call_sites_and_restores_them():
    import renewalsim
    import renewalsim.cli as cli
    import renewalsim.convergence as convergence
    import renewalsim.measures as measures

    before = (cli.integrate, convergence.integrate, measures.integrate,
              renewalsim.BirthLaw.birth_forcing)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.integrate is convergence.integrate is measures.integrate
        assert cli.integrate is not before[0]
        B = renewalsim.BirthLaw.constant(1.0)
        sp = renewalsim.solve_spectral(B)
        mu = renewalsim.HybridMeasure.point_mass(0.5, 4.0, 0.5)
        cli.integrate(mu, sp.phi)
        B.birth_forcing(mu, [0.0, 1.0])
    finally:
        tracer.uninstall()
    assert (cli.integrate, convergence.integrate, measures.integrate,
            renewalsim.BirthLaw.birth_forcing) == before
    names = [s[0] for s in tracer.spans]
    assert "measures.integrate" in names and "spectral.solve_spectral" in names
    assert tracer.counters["spectral.birth_forcing.evals"] == 2
    assert tracer.counters["spectral.phi.points"] >= 9
    assert all(s[3] == -1 or s[3] < i for i, s in enumerate(tracer.spans))
