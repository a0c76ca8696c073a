"""Output checks that share no code with the program under test.

Every check returns a list of error strings; an empty list means the
output passed.  Files are parsed here with plain Python and numpy, and the
reference values come from ``workloads`` (scipy root of the Euler-Lotka
equation, exact trapezoid mass of the initial datum).
"""
from __future__ import annotations

import numpy as np

CONST_BIRTHS_RTOL = 1e-9   # constant law: b(t) = beta * total initial mass, exactly
LIMIT_RTOL = 1e-4          # finite-support laws: b(T) = m0 * lambda0 at the horizon
VERIFY_CHECKS = 6          # check lines printed by ``verify``


def _read_csv(path):
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh if line.strip()]
    return header, rows


def check_run(out_dir, refs) -> list:
    """births.csv and diagnostics.csv against the workload's references.

    ``refs`` holds ``K``, ``samples``, ``lambda0`` and, for a constant law,
    ``const_births``.
    """
    errors = []
    header, rows = _read_csv(f"{out_dir}/births.csv")
    if header != ["t", "b"] or len(rows) != refs["K"] + 1:
        return [f"births.csv: header {header}, {len(rows)} rows, want {refs['K'] + 1}"]
    b = np.array([float(r[1]) for r in rows])
    header, rows = _read_csv(f"{out_dir}/diagnostics.csv")
    if len(rows) != refs["samples"] or "conserved_phi_mass" not in header:
        return [f"diagnostics.csv: {len(rows)} rows, want {refs['samples']}"]
    if float(rows[0][0]) != 0.0:
        return ["diagnostics.csv: first sample is not t = 0"]
    m0 = float(rows[0][header.index("conserved_phi_mass")])

    if refs.get("const_births") is not None:
        ref = refs["const_births"]
        dev = float(np.max(np.abs(b - ref))) / abs(ref)
        if not dev <= CONST_BIRTHS_RTOL:
            errors.append(f"births deviate from beta * mass by {dev:.3e} relative "
                          f"(limit {CONST_BIRTHS_RTOL:g})")
    else:
        ref = m0 * refs["lambda0"]
        dev = abs(b[-1] - ref) / abs(ref)
        if not dev <= LIMIT_RTOL:
            errors.append(f"b(T) deviates from m0 * lambda0 by {dev:.3e} relative "
                          f"(limit {LIMIT_RTOL:g})")
    return errors


def check_verify(stdout: str, code: int):
    """Return (FAIL line count, errors) for one ``verify`` call.

    Exactly six check lines; exit 3 exactly when one of them is a FAIL.
    """
    lines = [ln for ln in stdout.splitlines() if ln.startswith(("PASS ", "FAIL "))]
    fails = sum(ln.startswith("FAIL ") for ln in lines)
    errors = []
    if len(lines) != VERIFY_CHECKS:
        errors.append(f"verify printed {len(lines)} check lines, want {VERIFY_CHECKS}")
    if code != (3 if fails else 0):
        errors.append(f"verify exit code {code} with {fails} FAIL lines")
    return fails, errors


def snapshot_weights(path):
    """Support points of a snapshot file: trapezoid node weights plus atoms."""
    header, rows = _read_csv(path)
    if header != ["kind", "x", "value"]:
        raise ValueError(f"{path}: bad header {header}")
    dens = [(float(x), float(v)) for k, x, v in rows if k == "density"]
    atoms = [(float(x), float(v)) for k, x, v in rows if k == "atom"]
    xs = np.array([x for x, _ in dens])
    h = xs[1] - xs[0]
    tw = np.full(xs.size, h)
    tw[0] = tw[-1] = h / 2.0
    locs = np.concatenate([xs, [x for x, _ in atoms]])
    wts = np.concatenate([tw * np.array([v for _, v in dens]), [v for _, v in atoms]])
    return locs, wts


def check_distance(d_ab: float, d_ba: float, path_a, path_b) -> list:
    """Flat distance is symmetric and lies in [|mass difference|, TV(difference)]."""
    la, wa = snapshot_weights(path_a)
    lb, wb = snapshot_weights(path_b)
    locs, inv = np.unique(np.concatenate([la, lb]), return_inverse=True)
    diff = np.bincount(inv, weights=np.concatenate([wa, -wb]), minlength=locs.size)
    lower = abs(float(diff.sum()))
    upper = float(np.abs(diff).sum())
    errors = []
    if abs(d_ab - d_ba) > 1e-12 * max(1.0, abs(d_ab)):
        errors.append(f"distance not symmetric: {d_ab!r} vs {d_ba!r}")
    if not (lower * (1 - 1e-9) - 1e-15 <= d_ab <= upper * (1 + 1e-9) + 1e-15):
        errors.append(f"distance {d_ab!r} outside [{lower!r}, {upper!r}]")
    return errors
