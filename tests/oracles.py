"""Measure helpers that only the tests use, as oracles and fixtures.

``weighted_variation`` splits every panel exactly at the sign changes of
the density and is the D_eta oracle of ``tests/test_diagnostics.py``;
``linear_combination`` forms ``a mu + b nu`` on a common refinement grid;
``stationary_measure`` samples the profile ``mass * N dx``;
``on_sweep_grid`` re-samples a trajectory's datum on the diagnostic
sweep's grid, so that ``evolve`` builds every sample there.  No command
needs any of them: the diagnostic sweep (``convergence.sample_diagnostics``)
computes its distances from the characteristic labels instead.
``reference_write_rows`` is the one-template CSV writer that formats every
value with ``%.17g``, the byte-for-byte oracle of ``measures._write_rows``.
"""
import dataclasses
import math
from fractions import Fraction

import numpy as np

from renewalsim.errors import MeasureError
from renewalsim.measures import _BLOCK, _SNAP, HybridMeasure, _evaluate, _panel_sides
from renewalsim.spectral import SpectralData


def weighted_variation(mu: HybridMeasure, w=None, breakpoints=()) -> float:
    """Integral of a nonnegative weight against ``|mu|``.

    The absolute value of the piecewise-linear density is integrated
    exactly: every panel is split at its sign change, at jump nodes the
    one-sided limits are used, and callers may force additional split
    points (``breakpoints``) where the weight or density is known to kink.
    """
    nodes = mu.nodes
    h = mu.h
    n = nodes.size
    L, R = _panel_sides(mu)
    if w is None:
        wn = np.ones(n)
    else:
        wn = _evaluate(w, nodes)
        if wn.min() < -1e-12:
            raise MeasureError("variation weight must be nonnegative")

    inner = {}
    for bp in breakpoints:
        bp = float(bp)
        if bp <= 0.0 or bp >= mu.x_max:
            continue
        pos = bp / h
        if abs(pos - round(pos)) <= _SNAP:
            continue  # already a node
        inner.setdefault(int(pos), []).append(bp)

    cross = L * R < 0.0
    special = cross.copy()
    for i in inner:
        if 0 <= i < n - 1:
            special[i] = True

    plain = ~special
    total = float(np.sum((np.abs(L[plain]) * wn[:-1][plain]
                          + np.abs(R[plain]) * wn[1:][plain]) * (h / 2.0)))

    for i in np.flatnonzero(special):
        a, b = nodes[i], nodes[i + 1]
        li, ri = L[i], R[i]
        pts = sorted(inner.get(i, []))
        if li * ri < 0.0:
            pts.append(a + h * li / (li - ri))
            pts.sort()
        xs = np.array([a] + pts + [b])
        vals = li + (ri - li) * (xs - a) / h
        vals[0], vals[-1] = li, ri
        ws = np.empty_like(xs)
        ws[0], ws[-1] = wn[i], wn[i + 1]
        if xs.size > 2:
            ws[1:-1] = 1.0 if w is None else _evaluate(w, xs[1:-1])
        seg = np.diff(xs)
        av = np.abs(vals)
        total += float(np.sum(seg * (av[:-1] * ws[:-1] + av[1:] * ws[1:]) / 2.0))

    for loc, wt in mu.atoms:
        wloc = 1.0 if w is None else float(_evaluate(w, np.array([loc]))[0])
        total += wloc * abs(wt)
    return total


def _common_grid(mu: HybridMeasure, nu: HybridMeasure):
    """Target (h, node_count) covering both measures; grids must be commensurable."""
    h1, h2 = mu.h, nu.h
    if abs(h1 - h2) <= _SNAP * h1:
        g = min(h1, h2)
    else:
        frac = Fraction(h1 / h2).limit_denominator(10 ** 6)
        p, q = frac.numerator, frac.denominator
        g = h1 / p
        if p < 1 or q < 1 or abs(h2 / q - g) > _SNAP * g:
            raise MeasureError("incommensurable grids cannot be combined")
    x_max = max(mu.x_max, nu.x_max)
    n = int(round(x_max / g)) + 1
    return g, n


def _resample(mu: HybridMeasure, g: float, n: int):
    """Density values and carried-over jumps of ``mu`` on the refined grid."""
    xs = np.arange(n) * g
    dens = mu.density_at(xs)
    jumps = {}
    for x, lo, hi in mu.jumps:
        i = int(round(x / g))
        if abs(x - i * g) <= _SNAP * max(1.0, x):
            jumps[i] = (lo, hi)
    return dens, jumps


def linear_combination(a: float, mu: HybridMeasure, b: float, nu: HybridMeasure):
    """The measure ``a*mu + b*nu`` on a common refinement grid."""
    g, n = _common_grid(mu, nu)
    d1, j1 = _resample(mu, g, n)
    d2, j2 = _resample(nu, g, n)
    dens = a * d1 + b * d2
    atoms = [(loc, a * wt) for loc, wt in mu.atoms]
    atoms += [(loc, b * wt) for loc, wt in nu.atoms]

    jumps = []
    for i in sorted(set(j1) | set(j2)):
        lo1, hi1 = j1.get(i, (d1[i], d1[i]))
        lo2, hi2 = j2.get(i, (d2[i], d2[i]))
        lo, hi = a * lo1 + b * lo2, a * hi1 + b * hi2
        if lo != hi:
            jumps.append((i * g, lo, hi))

    nonneg = mu.nonnegative and nu.nonnegative and a >= 0.0 and b >= 0.0
    return HybridMeasure(g, dens, tuple(atoms), tuple(jumps), nonnegative=nonneg)


def stationary_measure(spectral: SpectralData, x_max: float, h: float,
                       mass: float = 1.0) -> HybridMeasure:
    """The profile ``mass * N dx`` sampled on a grid."""
    return HybridMeasure.from_function(
        lambda x: mass * spectral.N(x), x_max, h, nonnegative=mass >= 0.0
    )


def on_sweep_grid(traj, times):
    """``traj`` with its datum re-sampled on the diagnostic sweep's grid for ``times``.

    The sweep puts all of its samples on the stride ``d = gcd(h / dt, k_1,
    ..., k_S)``.  The datum re-sampled at spacing ``d * dt`` (its
    piecewise-linear density at the finer nodes, its atoms and jump
    records kept) has ``h / dt = d``, so ``evolve`` of the returned
    trajectory builds every sample, sample 0 included, on that grid, and
    ``integrate`` of its datum is the sweep's ``m0``.  The birth trace is
    the original one.
    """
    n0 = traj.initial
    m = round(n0.h / traj.dt)
    d = math.gcd(m, *(round(t / traj.dt) for t in times))
    if d == m:
        return traj
    g = d * traj.dt
    dens = n0.density_at(np.minimum(np.arange(round(n0.x_max / g) + 1) * g, n0.x_max))
    datum = HybridMeasure(g, dens, n0.atoms, n0.jumps, nonnegative=n0.nonnegative)
    return dataclasses.replace(traj, initial=datum)


def reference_write_rows(fh, row: str, *columns) -> None:
    """Write ``row % values`` for every index of the equal-length ``columns``.

    ``row`` is a ``%``-template holding one field per column and ending in a
    newline (it may span several lines).  Each block of rows is formatted by
    one ``%`` on the repeated template, so every CSV artifact shares this one
    ``%.17g`` float formatting.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    for s in range(0, columns[0].size, _BLOCK):
        block = np.column_stack([c[s:s + _BLOCK] for c in columns])
        fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))
