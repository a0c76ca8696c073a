"""Measure helpers that only the tests use, as oracles and fixtures.

``weighted_variation`` splits every panel exactly at the sign changes of
the density and is the D_eta oracle of ``tests/test_diagnostics.py``;
``linear_combination`` forms ``a mu + b nu`` on a common refinement grid;
``stationary_measure`` samples the profile ``mass * N dx``;
``on_sweep_grid`` re-samples a trajectory's datum on the diagnostic
sweep's grid, so that a snapshot is built on that grid.  No command
needs any of them: the diagnostic sweep (``convergence.sample_diagnostics``)
computes its distances from the characteristic labels instead.
``reference_evolve`` is the former snapshot assembly from the birth trace
and the shifted, damped datum, kept unchanged: the oracle of ``evolve``,
which reads each snapshot off the characteristic labels, and the snapshot
the sweep's oracles sum over, so that the sweep is not checked against the
labels it is built from.  ``lp_oracle`` solves the flat metric's
bounded-Lipschitz maximization as a linear program (scipy, imported on
call), the oracle of ``flat_distance``.  ``reference_slope_trick`` is the
former point-by-point slope-trick sweep, kept unchanged: the bit-for-bit
oracle of ``measures._chain_max``, which advances long same-sign runs in
numpy.  ``reference_chain_max`` rebuilds the value function at every
point, the oracle of both to 1e-12.  ``reference_flat_distance`` merges the
support by sorting all support points, the bit-for-bit oracle of the
same-grid merge in ``flat_distance``.
``reference_write_rows`` is the one-template CSV writer that formats every
value with ``%.17g``, the byte-for-byte oracle of ``measures._write_rows``.
The birth trace has two oracles, each starting its step loop at k = 1 with
t = 0 as the first breakpoint, as ``birth_series`` does:
``direct_births`` builds every step's segment-split Gregory weights
(``_segment_weights``) and sums the whole history, the O(K^2) oracle to
1e-12; ``reference_birth_series`` is the former per-step loop of
``birth_series``, with its FFT history blocks and its negativity guard in
scalars, the oracle to 1e-13 and of where the guard raises.
``reference_harness`` is the former mollification ladder, which evaluates
phi, N and H on every panel side of the datum and of each rung: the oracle
of ``convergence.reshetnyak_harness``, which stops at the birth law's
``live_end``, to the summation order.  It builds its full-grid N and gre
weight itself, on the samples of ``_sided_samples``.
``reference_gre_functional``, ``reference_dissipation_J``,
``reference_jensen_defect`` and ``reference_distance`` are the former
one-measure implementations of the diagnostics, the oracles of the sweep
``convergence.sample_diagnostics`` and of the one-measure functionals
(``tests/test_diagnostics.py``).
"""
import dataclasses
import math
from collections import deque
from fractions import Fraction

import numpy as np

from renewalsim.convergence import _GRE_TOL, MollificationReport
from renewalsim.entropy import _gre, _ratio
from renewalsim.errors import EntropyError, MeasureError, RenewalError, TransportError
from renewalsim.measures import (_BLOCK, _SNAP, HybridMeasure, _chain_max, _evaluate,
                                 _panel_sides, _support_points, integrate, mollify)
from renewalsim.spectral import SpectralData
from renewalsim.transport import _GREGORY_ENDS, _LOCAL, _atoms_at, snapshot_index


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
    records kept) has ``h / dt = d``, so ``evolve`` (or ``reference_evolve``)
    of the returned trajectory builds every sample, sample 0 included, on
    that grid, and ``integrate`` of its datum is the sweep's ``m0``.  The
    birth trace is the original one.
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


def reference_evolve(traj, t: float) -> HybridMeasure:
    """Snapshot of the renormalized solution at time t, assembled from ``births`` and the datum.

    ``t`` is snapped to the nearest time node and the grid is the one
    ``snapshot_index`` names, so the newborn/shifted seam and all
    transported kinks sit on nodes.  A time past ``x_max`` raises
    ``TransportError``: the seam would leave the grid.
    """
    k, d = snapshot_index(traj, t)
    if k == 0:
        return traj.initial
    _, M = traj._grid_ints()
    if k > M:
        raise TransportError("snapshot time past x_max: the newborn seam leaves the grid")

    n0 = traj.initial
    lam = traj.spectral.lambda0
    dt = traj.dt
    g = d * dt
    seam = k // d
    n_new = M // d + 1
    t_k = k * dt
    decay = math.exp(-lam * t_k)

    dens = np.empty(n_new)
    js = np.arange(seam)
    dens[:seam] = traj.births[k - js * d] * np.exp(-lam * g * js)
    for j, delta in traj.birth_jumps:
        if j == k:
            # snapshot taken at the jump instant: every age x > 0 was born
            # strictly before it, so the boundary node takes the left limit
            dens[0] = traj.births[k] - 0.5 * delta
    left = traj.births[0] * decay
    right = _panel_sides(n0)[0][0] * decay
    dens[seam] = 0.5 * (left + right)
    if seam + 1 < n_new:
        u = (np.arange(seam + 1, n_new) - seam) * g
        dens[seam + 1:] = decay * n0.density_at(u)

    jumps = []
    if left != right:
        jumps.append((t_k, left, right))
    for j, delta in traj.birth_jumps:
        if not (0 < k - j < k) or (k - j) % d != 0:
            continue
        xj = (k - j) * dt
        damp = math.exp(-lam * xj)
        mean = traj.births[j] * damp
        half = 0.5 * delta * damp
        # x below the kink maps to times above the trace jump and vice versa
        jumps.append((xj, mean + half, mean - half))
    for x, lo, hi in n0.jumps:
        if x == 0.0:
            continue  # folded into the seam's right limit
        if x + t_k <= n0.x_max * (1.0 + _SNAP):
            jumps.append((x + t_k, lo * decay, hi * decay))

    if n0.nonnegative:
        floor = -1e-12 * max(1.0, float(np.abs(dens).max()))
        if dens.min() < floor:
            raise TransportError("snapshot density went negative beyond tolerance")
        np.clip(dens, 0.0, None, out=dens)
        jumps = [(x, max(lo, 0.0), max(hi, 0.0)) for x, lo, hi in jumps]

    _, locs, wts = _atoms_at(traj, [k])
    return HybridMeasure(g, dens, tuple(zip(locs.tolist(), wts.tolist())), tuple(jumps),
                         nonnegative=n0.nonnegative)


def _segment_weights(k, inner, kv, b_jump):
    """Quadrature weights for one convolution step, split at b's jumps.

    ``inner`` holds the x-indices of the jumps strictly inside (0, k).
    Returns the per-node weight array over 0..k (sided means at jump nodes
    fold into the weights) plus the scalar correction carrying the
    difference between the one-sided values and the stored means.
    """
    edges = [0] + inner + [k]
    w = np.zeros(k + 1)
    extra = 0.0
    for p, q in zip(edges[:-1], edges[1:]):
        seg = q - p
        if seg >= 3:
            w[p] += 5.0 / 12.0
            w[p + 1] += 13.0 / 12.0
            w[p + 2:q - 1] += 1.0
            w[q - 1] += 13.0 / 12.0
            w[q] += 5.0 / 12.0
            wp, wq = 5.0 / 12.0, 5.0 / 12.0
        elif seg == 2:
            w[p] += 1.0 / 3.0
            w[p + 1] += 4.0 / 3.0
            w[q] += 1.0 / 3.0
            wp, wq = 1.0 / 3.0, 1.0 / 3.0
        else:
            w[p] += 0.5
            w[q] += 0.5
            wp, wq = 0.5, 0.5
        # right edge of the segment sees b from above its jump time (+d/2),
        # left edge from below (-d/2); the mean flows through w itself
        if q < k and (k - q) in b_jump:
            extra += wq * kv[q] * 0.5 * b_jump[k - q]
        if p > 0 and (k - p) in b_jump:
            extra -= wp * kv[p] * 0.5 * b_jump[k - p]
    return w, extra


def direct_births(traj):
    """O(K^2) reference: every step re-weights the whole history.

    Builds each step's segment-split Gregory weights explicitly and sums
    the full history directly, with the same breakpoints (t = 0 and the
    trace's jumps), one-sided jump values and negativity clamp as
    ``birth_series``.
    """
    n0, B, lam, dt = traj.initial, traj.birth_law, traj.spectral.lambda0, traj.dt
    K = traj.births.size - 1
    times = np.arange(K + 1) * dt
    kv = B.quad_values(times) * np.exp(-lam * times)
    g = B.birth_forcing(n0, times) * np.exp(-lam * times)
    b_jump = dict(traj.birth_jumps)

    def settle(val):
        return max(val, 0.0) if n0.nonnegative else val

    b = np.zeros(K + 1)
    b[0] = g[0]
    for k in range(1, K + 1):
        inner = sorted(k - j for j in b_jump if 0 < k - j < k)
        w, extra = _segment_weights(k, inner, kv, b_jump)
        s = float(np.dot(w[1:] * kv[1:k + 1], b[k - 1::-1][:k])) + extra
        b[k] = settle((g[k] + dt * s) / (1.0 - dt * w[0] * kv[0]))
    return b


def reference_birth_series(n0, B, spectral, dt, T):
    """The former per-step loop of ``birth_series``: one Python step per node.

    Same scheme, same FFT history blocks and the same negativity guard, with
    each step's local window sum, jump corrections and clamp done in
    scalars.  Returns the births array; raises ``TransportError`` where the
    guard fires.
    """
    K = int(round(T / dt))
    lam = spectral.lambda0
    times = np.arange(K + 1) * dt
    kv = B.quad_values(times) * np.exp(-lam * times)
    g = B.birth_forcing(n0, times) * np.exp(-lam * times)
    b_jump = {}
    for p, vl, vr in B.jump_points():
        for loc, wt in n0.atoms:
            tj = p - loc
            if tj <= _SNAP or tj > K * dt + _SNAP:
                continue
            j = int(round(tj / dt))
            if 0 < j <= K and abs(tj - j * dt) <= _SNAP * max(1.0, tj):
                delta = wt * (vr - vl) * math.exp(-lam * j * dt)
                b_jump[j] = b_jump.get(j, 0.0) + delta
    b_jump = {j: d for j, d in b_jump.items() if d != 0.0}

    b = np.zeros(K + 1)
    b[0] = g[0]
    nonneg = n0.nonnegative
    scale = max(abs(b[0]), 1.0)

    def settle(val):
        nonlocal scale
        if nonneg and val < 0.0:
            if val < -1e-10 * scale:
                raise TransportError("birth trace went negative beyond tolerance")
            val = 0.0
        scale = max(scale, abs(val))
        return val

    jt = sorted(b_jump)
    half = [0.5 * b_jump[j] for j in jt]
    below = [_GREGORY_ENDS[min(q - p, 3)] for p, q in zip([0] + jt, jt)]
    hist = np.zeros(K + 1)
    kvl, gl, bl = memoryview(kv), memoryview(g), memoryview(b)
    spectra = {}
    active = 0
    for k in range(1, K + 1):
        if k % _LOCAL == 0:
            m = k & -k
            if m not in spectra:
                spectra[m] = np.fft.rfft(kv[:2 * m], 2 * m)
            n = min(m, K + 1 - k)
            conv = np.fft.irfft(np.fft.rfft(b[k - m:k], 2 * m) * spectra[m], 2 * m)
            hist[k:k + n] += conv[m:m + n]
        lo = k - k % _LOCAL
        s = float(hist[k] + np.dot(b[lo:k], kv[k - lo:0:-1])) - 0.5 * kvl[k] * bl[0]
        while active < len(jt) and jt[active] < k:
            active += 1
        p, vp = 0, bl[0]
        for i in range(active):
            q = jt[i]
            a0, a1 = below[i]
            s += (a0 * (kvl[k - p] * vp + kvl[k - q] * (bl[q] - half[i]))
                  + a1 * (kvl[k - p - 1] * bl[p + 1] + kvl[k - q + 1] * bl[q - 1]))
            p, vp = q, bl[q] + half[i]
        a0, a1 = _GREGORY_ENDS[min(k - p, 3)]
        s += a0 * kvl[k - p] * vp + a1 * (kvl[k - p - 1] * bl[p + 1] + kvl[1] * bl[k - 1])
        bl[k] = settle((gl[k] + dt * s) / (1.0 - dt * (0.5 + a0) * kvl[0]))
    return b


def _sided_samples(mu):
    nodes = mu.nodes
    L, R = _panel_sides(mu)
    xs = np.concatenate([nodes[:-1], nodes[1:]])
    vals = np.concatenate([L, R])
    w = np.full(xs.size, mu.h / 2.0)
    return xs, vals, w


def reference_gre_functional(mu, spectral, H):
    xs, vals, w = _sided_samples(mu)
    Nx = spectral.N(xs)
    with np.errstate(all="ignore"):
        ratio = vals / Nx
    if not np.all(np.isfinite(ratio)) or np.any(np.abs(ratio) > 1e300):
        raise EntropyError("density/N overflows: domain too long for this rate")
    phix = spectral.phi(xs)
    total = float(np.sum(w * phix * Nx * np.asarray(H.H(ratio), dtype=float)))
    for loc, wt in mu.atoms:
        total += spectral.phi(loc) * H.H_inf(math.copysign(1.0, wt)) * abs(wt)
    return total


def reference_dissipation_J(mu, B, spectral, H):
    if spectral.residual_euler_lotka > 1e-8:
        raise EntropyError("reference measure is not normalized: eigen residual too big")
    lam = spectral.lambda0
    n_zero = lam  # N(0)
    xs, vals, w = _sided_samples(mu)
    Nx = spectral.N(xs)
    ratio = vals / Nx
    weights = w * B.quad_values(xs) * Nx / n_zero
    wsum = float(weights.sum())
    if not wsum > 0.0:
        raise EntropyError("reference measure has no mass on this grid")
    weights = weights / wsum

    term1 = float(np.sum(weights * np.asarray(H.H(ratio), dtype=float)))
    arg = float(np.sum(weights * ratio))
    term2 = 0.0
    for loc, wt in mu.atoms:
        psi = float(B.quad_values(np.array([loc]))[0]) / n_zero
        term2 += psi * H.H_inf(math.copysign(1.0, wt)) * abs(wt)
        arg += psi * wt
    return term1 + term2 - float(H.H(np.asarray(arg, dtype=float)))


def reference_jensen_defect(mu, psi, f):
    xs, vals, w = _sided_samples(mu)
    psix = np.asarray(psi(xs), dtype=float)
    weights = w * psix / float(np.sum(w * psix))
    term1 = float(np.sum(weights * np.asarray(f.H(vals), dtype=float)))
    arg = float(np.sum(weights * vals))
    term2 = 0.0
    for loc, wt in mu.atoms:
        pl = float(np.asarray(psi(np.asarray([loc])), dtype=float)[0])
        term2 += pl * f.H_inf(math.copysign(1.0, wt)) * abs(wt)
        arg += pl * wt
    return term1 + term2 - float(f.H(np.asarray(arg, dtype=float)))


def reference_distance(traj, t, eta):
    spectral = traj.spectral
    m0 = integrate(traj.initial, spectral.phi)
    snap = reference_evolve(traj, t)
    eq = stationary_measure(spectral, snap.x_max, snap.h, mass=m0)
    diff = linear_combination(1.0, snap, -1.0, eq)
    return weighted_variation(diff, eta, breakpoints=(t,))


def reference_harness(n0: HybridMeasure, spectral: SpectralData, H, eps_list):
    """The former full-grid ladder of ``convergence.reshetnyak_harness``, kept unchanged.

    phi, N and H(density/N) on every panel side of the datum, each rung
    mollified on the whole grid and compared side by side with the datum,
    and every rung's gre summed over all panel sides.
    """
    eps = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps[:-1], eps[1:])):
        raise RenewalError("epsilon ladder must be strictly decreasing")
    if eps and eps[-1] < n0.h:
        raise RenewalError("epsilon ladder goes below the grid spacing")

    xs, sides, w = _sided_samples(n0)
    Nx = spectral.N(xs)
    gre_w = w * spectral.phi(xs) * Nx
    Hr = np.asarray(H.H(_ratio(sides, Nx)), dtype=float)
    gre_ref = _gre(gre_w, Hr, n0.atoms, spectral, H)
    gre_vals, gre_gaps = [], []
    for e in eps:
        rung = np.concatenate(_panel_sides(mollify(n0, e)))  # a rung has no atoms
        cells = np.flatnonzero(rung != sides)
        kept = Hr[cells]
        Hr[cells] = H.H(_ratio(rung[cells], Nx[cells]))
        gv = float(np.sum(gre_w * Hr))
        Hr[cells] = kept
        gre_vals.append(gv)
        gre_gaps.append(abs(gv - gre_ref))

    decreased = bool(gre_gaps and gre_gaps[-1] <= gre_gaps[0] + 1e-12)
    below = bool(gre_gaps and gre_gaps[-1] <= _GRE_TOL)
    return MollificationReport(tuple(gre_vals), tuple(gre_gaps), gre_ref, decreased, below)


def lp_oracle(locs, w):
    """Brute-force LP for the bounded-Lipschitz maximization (scipy, imported here)."""
    from scipy.optimize import linprog

    locs = np.asarray(locs, dtype=float)
    w = np.asarray(w, dtype=float)
    n = locs.size
    rows, rhs = [], []
    for i in range(n - 1):
        gap = locs[i + 1] - locs[i]
        row = np.zeros(n)
        row[i + 1], row[i] = 1.0, -1.0
        rows.append(row.copy())
        rhs.append(gap)
        rows.append(-row)
        rhs.append(gap)
    res = linprog(
        -w,
        A_ub=np.array(rows) if rows else None,
        b_ub=np.array(rhs) if rows else None,
        bounds=[(-1.0, 1.0)] * n,
        method="highs",
    )
    assert res.success
    return -res.fun


def reference_slope_trick(locs: np.ndarray, w: np.ndarray) -> float:
    """Maximize sum(w_i f_i) over |f_i| <= 1, |f_{i+1} - f_i| <= gap_i.

    Forward sweep of the exact dynamic program on the concave piecewise
    linear value function V_k(y) = best total with f_k = y: slide the top
    apart by the gap (max-filter), clamp the domain back to [-1, 1], then
    tilt by the next weight.  The answer is the final peak value.

    V_k is kept by the slope trick: its peak value ``top`` and two deques of
    ``(x, slope)`` segments, ``left`` (increasing part, outer -> inner) and
    ``right`` (decreasing part, inner -> outer).  Each segment stores its
    inner end; the outer end is the next segment's inner end or the domain
    end -1 / +1, and the peak is the interval between the innermost ends.
    Shifts and tilts are lazy: with G = x_k - x_0 the total gap so far and S
    the total weight, left ends are stored as x + G, right ends as x - G and
    slopes as slope - S, so the max-filter is the growth of G and the clamp
    pops the segments whose inner end has left [-1, 1].  A tilt by w > 0 turns the
    old flat top into a left segment, then moves right segments whose slope
    has become positive to the left side, adding slope * length to ``top``;
    a slope of exactly zero becomes the new flat top.  w < 0 is the mirror
    image, written operation for operation, so the result is bit-identical
    under w -> -w.  The first point tilts the zero function on [-1, 1].

    Each point costs one push plus one move per breakpoint the peak
    crosses, which depends on the data (under one per point on snapshot
    differences, about 27 on white-noise weights), so this is not
    amortized O(1).
    """
    x0 = float(locs[0])
    left, right = deque(), deque()
    top = S = 0.0
    for x, wk in zip(locs.tolist(), w.tolist()):
        G = x - x0
        while left and left[0][0] - G <= -1.0:
            left.popleft()
        while right and right[-1][0] + G >= 1.0:
            right.pop()
        if wk > 0.0:
            p = right[0][0] + G if right else 1.0
            top += wk * p
            left.append((p + G, -S))
            S += wk
            while right:
                m = right[0][1] + S
                if m < 0.0:
                    break
                slope = right.popleft()[1]
                if m == 0.0:
                    break
                q = right[0][0] + G if right else 1.0
                top += m * (q - p)
                left.append((q + G, slope))
                p = q
        elif wk < 0.0:
            p = left[-1][0] - G if left else -1.0
            top += wk * p
            right.appendleft((p - G, -S))
            S += wk
            while left:
                m = left[-1][1] + S
                if m > 0.0:
                    break
                slope = left.pop()[1]
                if m == 0.0:
                    break
                q = left[-1][0] - G if left else -1.0
                top += m * (q - p)
                right.appendleft((q - G, slope))
                p = q
    return top


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


def reference_flat_distance(mu, nu):
    """Flat distance with the support merged by sorting all support points.

    Each measure's weights at a point are summed before the two sums are
    subtracted.  Kept as the oracle for the node-by-node subtraction that
    ``flat_distance`` uses on measures sharing one grid.
    """
    l1, w1 = _support_points(mu)
    l2, w2 = _support_points(nu)
    uniq, inv = np.unique(np.concatenate([l1, l2]), return_inverse=True)
    merged = (np.bincount(inv[:l1.size], weights=w1, minlength=uniq.size)
              - np.bincount(inv[l1.size:], weights=w2, minlength=uniq.size))
    keep = merged != 0.0
    if not keep.any():
        return 0.0
    return _chain_max(uniq[keep], merged[keep])


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
