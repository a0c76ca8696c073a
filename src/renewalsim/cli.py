"""Command-line front end: run scenarios, print spectra, verify invariants.

Subcommands
-----------
run       simulate a scenario and write births.csv, diagnostics.csv,
          decayfit.json and the requested snapshot files (each CSV with
          its binary twin, which distance and file = restarts read)
spectral  print the growth rate, residuals and an x,N,phi table
distance  print the flat distance between two snapshot files
verify    run the invariant suite for a scenario, exit nonzero on failure

Exit codes: 0 ok, 1 config error (a bad command line too), 2 numerical
failure, 3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .convergence import (
    birth_integral_report,
    fit_decay_rate,
    reshetnyak_harness,
    sample_diagnostics,
)
from .entropy import verify_B_dominates_phi
from .errors import RenewalError, ScenarioError
# integrate stays importable from here: benchmark/tests patches it at this call site
from .measures import (  # noqa: F401
    _write_rows,
    flat_distance,
    integrate,
    read_snapshot,
    write_snapshot,
)
from .scenarios import Scenario, load_scenario
from .spectral import solve_spectral
from .transport import birth_series, evolve

_F = "{:.17g}".format


def _sample_times(sc: Scenario):
    """The sample times k * sample_dt, the grid column of diagnostics.csv."""
    count = int(math.floor(sc.horizon / sc.sample_dt + 1e-9)) + 1
    return [k * sc.sample_dt for k in range(count)]


def _simulate(sc: Scenario):
    spectral = solve_spectral(sc.birth_law)
    traj = birth_series(sc.initial, sc.birth_law, spectral, sc.dt, sc.horizon)
    return spectral, traj


def cmd_run(sc: Scenario, out_dir: str, quiet: bool) -> int:
    spectral, traj = _simulate(sc)
    os.makedirs(out_dir, exist_ok=True)

    times = _sample_times(sc)
    # D_phi feeds decayfit.json whether or not it is a requested column
    etas = tuple(dict.fromkeys(("phi", *sc.eta_choices)))
    diag = sample_diagnostics(traj, times, sc.integrands, etas)
    m0 = diag["m0"]

    # files are written after the sweep: started on a heap the writers' block
    # buffers have fragmented, the sweep sets a higher peak (peak RSS,
    # long_horizon.ini: 149.5 MiB against 141.7; trace-atoms: 38.1 against
    # 37.4).  In this order the snapshot writes set the peak (long_horizon.ini:
    # the birth trace 72 MiB, the sweep 121 MiB, births.csv 121 MiB, the two
    # snapshots with the shared 1.02M-node formatted grid and their twins 134
    # and 142 MiB; trace-atoms: the sweep 36.3 MiB, the snapshots 37.4 MiB).
    # diagnostics.csv's sample grid replaces the shared grid, so the fit runs
    # after it is freed.
    with open(os.path.join(out_dir, "births.csv"), "w", encoding="ascii") as fh:
        fh.write("t,b\n")
        _write_rows(fh, "%.17g,%.17g\n", traj.dt, traj.births)

    for ts in sc.snapshot_times:
        snap = evolve(traj, ts)
        write_snapshot(snap, os.path.join(out_dir, f"snapshot_{ts:g}.csv"))

    names = [*(f"D_{eta}" for eta in sc.eta_choices), "m_k", "conserved_phi_mass"]
    names += [f"{kind}_{H.name}" for kind in ("gre", "J") for H in sc.integrands]
    with open(os.path.join(out_dir, "diagnostics.csv"), "w", encoding="ascii") as fh:
        fh.write(",".join(["t", *names]) + "\n")
        _write_rows(fh, ",".join(["%.17g"] * (1 + len(names))) + "\n",
                    sc.sample_dt, *(diag[n] for n in names))

    lo = 0.2 * sc.horizon
    window = [(t, d) for t, d in zip(times, diag["D_phi"]) if t >= lo]
    fit_payload = {
        "eta_name": "phi", "sigma_hat": None, "y0_hat": None,
        "r_squared": None, "m0": m0, "sample_count": 0,
    }
    try:
        fit = fit_decay_rate(window)
        fit_payload.update(
            sigma_hat=fit.sigma_hat, y0_hat=fit.y0_hat,
            r_squared=fit.r_squared, sample_count=len(fit.samples),
        )
    except RenewalError:
        pass  # stationary data: nothing above the floating floor to fit
    with open(os.path.join(out_dir, "decayfit.json"), "w", encoding="ascii") as fh:
        json.dump(fit_payload, fh, sort_keys=True, indent=2)
        fh.write("\n")

    if not quiet:
        print(f"wrote births.csv, diagnostics.csv, decayfit.json to {out_dir}")
    return 0


def cmd_spectral(sc: Scenario) -> int:
    spectral = solve_spectral(sc.birth_law)
    print(f"lambda0 = {_F(spectral.lambda0)}")
    print(f"phi0 = {_F(spectral.phi0)}")
    print(f"residual_euler_lotka = {_F(spectral.residual_euler_lotka)}")
    print(f"residual_normalization = {_F(spectral.residual_normalization)}")
    print("x,N,phi")
    xs = np.arange(int(round(sc.x_max / sc.h)) + 1) * sc.h
    _write_rows(sys.stdout, "%.17g,%.17g,%.17g\n", sc.h, spectral.N(xs), spectral.phi(xs))
    return 0


def cmd_distance(path_a: str, path_b: str) -> int:
    mu = read_snapshot(path_a)
    nu = read_snapshot(path_b)
    print(_F(flat_distance(mu, nu)))
    return 0


def _verify_checks(sc: Scenario):
    spectral, traj = _simulate(sc)
    times = _sample_times(sc)
    diag = sample_diagnostics(traj, times, sc.integrands)

    def conservation():
        scale = max(abs(diag["m0"]), 1e-30)
        worst = float(np.abs(diag["conserved_phi_mass"] - diag["m0"]).max())
        return worst / scale <= 1e-6, f"max relative drift {worst / scale:.3e}"

    def gre_monotone():
        if not sc.integrands:
            return True, "skipped: no integrands"
        if len(times) < 2:
            return True, "skipped: one sample"
        worst = max(float(np.diff(diag[f"gre_{H.name}"]).max()) for H in sc.integrands)
        return worst <= 1e-8, f"max sampled increase {worst:.3e}"

    def dissipation():
        if not sc.integrands:
            return True, "skipped: no integrands"
        factor = spectral.phi0 * spectral.lambda0  # phi(0) N(0): d/dt gre = -factor J
        min_j = math.inf
        cum_ok = True
        detail = []
        for H in sc.integrands:
            js = diag[f"J_{H.name}"]
            min_j = min(min_j, float(js.min()))
            total = factor * float(np.trapezoid(js, dx=sc.sample_dt))
            bound = diag[f"gre_{H.name}"][0] + 1e-6  # sample 0 is the datum
            cum_ok = cum_ok and total <= bound
            detail.append(f"{H.name}: phi(0)N(0) int J = {total:.8g} <= {bound:.8g}")
        ok = min_j >= -1e-10 and cum_ok
        return ok, f"min J {min_j:.3e}; phi(0)N(0) = {factor:.6g}; " + "; ".join(detail)

    def mollification():
        if not (traj.initial.atoms and sc.eps_list):
            return True, "skipped: no atoms or no eps ladder"
        if not sc.integrands:
            return True, "skipped: no integrands"
        rep = reshetnyak_harness(traj.initial, spectral, sc.integrands[0], sc.eps_list)
        return rep.passed, (
            f"entropy gaps {rep.gre_gaps[0]:.3e} -> {rep.gre_gaps[-1]:.3e}"
        )

    def domination():
        holds, c = verify_B_dominates_phi(sc.birth_law, spectral)
        return holds, f"C = {c:.6g}"

    def birth_integral():
        if len(times) < 2:
            return True, "skipped: one sample"
        idx = np.arange(0, len(times), max(1, len(times) // 20))  # sample 0 first
        rep = birth_integral_report(diag["m0"], diag["m_k"][idx], diag["D_phi"][idx])
        return rep.passed, f"final |m_k - m0| = {rep.final_deviation:.3e}"

    return [
        ("conservation", conservation),
        ("gre_monotonicity", gre_monotone),
        ("dissipation", dissipation),
        ("mollification", mollification),
        ("birth_dominates_phi", domination),
        ("birth_integral_limit", birth_integral),
    ]


def cmd_verify(sc: Scenario) -> int:
    results = [(name, *check()) for name, check in _verify_checks(sc)]
    failed = False
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    return 3 if failed else 0


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors as config errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="renewalsim",
        description="Age-renewal simulator for measure-valued initial data",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    # also accepted after the subcommand; SUPPRESS keeps a leading --quiet
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                       help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[quiet],
                           help="simulate a scenario and write artifacts")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--out", default=None, help="override the scenario output dir")

    spec_p = sub.add_parser("spectral", parents=[quiet],
                            help="print eigendata for a scenario")
    spec_p.add_argument("--scenario", required=True)

    dist_p = sub.add_parser("distance", parents=[quiet],
                            help="flat distance between two snapshots")
    dist_p.add_argument("file_a")
    dist_p.add_argument("file_b")

    ver_p = sub.add_parser("verify", parents=[quiet],
                           help="run the invariant suite")
    ver_p.add_argument("--scenario", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            sc = load_scenario(args.scenario)
            return cmd_run(sc, args.out or sc.out_dir, args.quiet)
        if args.command == "spectral":
            return cmd_spectral(load_scenario(args.scenario))
        if args.command == "distance":
            return cmd_distance(args.file_a, args.file_b)
        if args.command == "verify":
            return cmd_verify(load_scenario(args.scenario))
    except ScenarioError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return 1
    except RenewalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
