"""Time evolution of a measure datum by exact characteristics.

The solution is stored as the initial measure plus the boundary birth trace
b(t); nothing is ever regridded during evolution, so atoms stay atoms with
exactly known weights.  The ratio of the solution to the stable profile N
is carried unchanged along characteristics, so the ratios of all snapshots
on one grid stride are windows of one array indexed by birth time
(``characteristic_labels``): ``b / lam`` on the newborn side, the datum
over N beyond, and both one-sided limits where they differ (the seam at
x = t and every transported jump).  A snapshot is its window times N
(``evolve``); the diagnostic sweep sums over the windows instead of
building snapshots.

The birth trace solves the renewal integral equation

    b(t) = g(t) + integral_0^t B(x) exp(-lam x) b(t - x) dx,

with g the damped birth contribution of the shifted initial datum.  The
convolution uses trapezoid product integration with third-order Gregory end
corrections: the plain trapezoid rule's O(dt^2) defect feeds through the
renewal resolvent and grows linearly in t, which is too coarse for the
long-horizon diagnostics this package exists to produce.

Every step k >= 1 is the same Toeplitz sum ``sum_i kv[k-i] b[i]`` plus the
Gregory end terms, plus a sparse correction for each jump of b in the
history: the rule is applied segment by segment between the breakpoints
t = 0 and the jumps, with ends set by each segment's length, and the
segment-split weights differ from the plain ones only within two nodes of
each jump, so the correction is a few terms per jump.  The history sum is
convolved in doubling blocks (Hairer, Lubich and Schlichte, SIAM J. Sci.
Stat. Comput. 6, 1985): once b[e-m:e] is known, with m the lowest set bit
of e, one FFT adds its contribution to the next m steps, so only the
current window of ``_LOCAL`` steps is left.  Past the birth law's last
fertile age (``BirthLaw.live_end``) the kernel and the forcing are exact
zeros, so both are evaluated on the first ``live`` grid times only, and no
block is longer than C, the smallest power of two >= live: a longer block
would add only pairs at lags past the support.  For the same reason a jump
at least ``live`` steps back adds nothing: its correction terms read only
kernel lags of ``live`` or more, so it retires from the window loop, and the
segment chain starts at the last retired jump.  Likewise the half-weight
term of node 0 and the end terms of the last breakpoint are skipped once
they are out of reach.  Inside a window, the steps at
least three past the last breakpoint couple only through a lower-triangular
Toeplitz system (the Gregory ends at nodes k and k-1 go into its diagonal
and its lag-1 coupling); every other term of their rows is known when the
rows open and is built as a vector, and the rows are solved by one product
with the system's inverse, itself lower-triangular Toeplitz and built once
per trajectory.  The two steps after t = 0 and after each jump have their
own Gregory ends (trapezoid, then Simpson) and are solved as 1-row systems.
A clamped value changes the later rows of its system by a rank-one term,
O(_LOCAL).  A trace of K steps costs O(min(K, live) P + live_end / h) work
for the forcing of a P-panel law on a grid of spacing h, O(K log^2 min(K,
C)) for the history and O(K / _LOCAL) Python iterations (plus one per
clamped value), each with vector terms for the jumps within the kernel's
reach only, not for every jump in the history.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EntropyError, TransportError
from .measures import _SNAP, HybridMeasure, _is_multiple, ac_cumulative
from .spectral import BirthLaw, SpectralData

__all__ = [
    "Trajectory",
    "birth_series",
    "evolve",
    "snapshot_index",
    "CharacteristicLabels",
    "characteristic_labels",
    "tail_phi_mass",
]

# Window of the birth trace solved as one block; older history arrives in
# FFT blocks of at least this many steps.  A power of two: of 64, 128 and
# 256, 256 was fastest on a 3-jump K = 40 000 trace and on a par elsewhere
# (each window costs O(_LOCAL^2) flops but a fixed count of numpy calls).
_LOCAL = 256

# Gregory end offsets from the trapezoid weights, (end node, next node),
# for a segment of 1, 2 and >= 3 steps: trapezoid, Simpson, third order.
_GREGORY_ENDS = (None, (0.0, 0.0), (-1.0 / 6.0, 1.0 / 6.0),
                 (-1.0 / 12.0, 1.0 / 12.0))


@dataclass(frozen=True)
class Trajectory:
    """Initial datum, spectral data and the computed birth trace."""

    initial: HybridMeasure
    spectral: SpectralData
    birth_law: BirthLaw
    dt: float
    horizon: float
    births: np.ndarray
    birth_jumps: tuple = ()  # (time index, jump size) where the trace jumps
    clamp_count: int = 0  # nonnegative data: births rounded below 0 and set to 0
    clamp_max: float = 0.0  # the largest magnitude so clamped

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.births.size) * self.dt

    def _grid_ints(self):
        m = int(round(self.initial.h / self.dt))
        M = int(round(self.initial.x_max / self.dt))
        return m, M


def _check_multiple(value: float, unit: float, what: str) -> int:
    if not _is_multiple(value, unit) or round(value / unit) < 0:
        raise TransportError(f"{what} must be an integer multiple of {unit}")
    return int(round(value / unit))


def _lower_toeplitz(col: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix with first column ``col``."""
    lag = np.subtract.outer(np.arange(col.size), np.arange(col.size))
    return np.where(lag >= 0, col[np.maximum(lag, 0)], 0.0)


def birth_series(n0: HybridMeasure, B: BirthLaw, spectral: SpectralData,
                 dt: float, T: float) -> Trajectory:
    """Solve for the boundary birth trace on the time grid 0, dt, ..., T.

    Requirements: dt divides the grid spacing and the horizon; a finite
    birth-law support must satisfy ``support_end + T <= x_max`` so that mass
    leaving the window can never feed back into births (constant laws need
    no certificate, their forcing is evaluated analytically on the full
    half-line).

    For nonnegative data, a birth value below ``-1e-10`` times the largest
    |b| so far raises; a smaller negative one (rounding) is set to 0 and
    counted in the trajectory's ``clamp_count`` and ``clamp_max``.
    """
    if dt <= 0.0 or T <= 0.0:
        raise TransportError("time step and horizon must be positive")
    if dt > n0.h * (1.0 + _SNAP):
        raise TransportError("time step exceeds grid spacing")
    K = _check_multiple(T, dt, "horizon")
    _check_multiple(n0.h, dt, "grid spacing")
    _check_multiple(n0.x_max, dt, "domain length")
    if B.support_end is not None and B.support_end + T > n0.x_max * (1.0 + _SNAP):
        raise TransportError(
            "truncation certificate fails: support_end + T exceeds x_max"
        )

    lam = spectral.lambda0
    times = np.arange(K + 1) * dt
    live = int(np.searchsorted(times, B.live_end, side="right"))  # kv, g = 0 past it
    kv, g = np.zeros(K + 1), np.zeros(K + 1)
    np.multiply(B.quad_values(times[:live]), np.exp(-lam * times[:live]), out=kv[:live])
    if 1.0 - 0.5 * dt * kv[0] <= 0.0:
        raise TransportError("time step too large for the implicit boundary weight")
    np.multiply(B.birth_forcing(n0, times[:live]), np.exp(-lam * times[:live]), out=g[:live])

    # The forcing (hence b) jumps whenever an atom crosses a birth-rate
    # discontinuity; the jump sizes are known exactly.  The stored series
    # carries the mean value at a jump node, and the convolution below is
    # integrated segment-by-segment with the one-sided values so the end
    # corrections never straddle a jump.
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
    clamps, clamp_max = 0, 0.0

    def accept(s, x):
        # store x as b[s:s+len(x)]; a negative value is clamped to 0 or
        # raises.  x solves one lower-triangular Toeplitz system (inverse
        # ``inv``), so clamping x[n] moves the later values by the rank-one
        # term -x[n] inv[1:] / inv[0]
        nonlocal scale, clamps, clamp_max
        start = 0
        while True:
            n = x.size
            if nonneg:
                neg = x[start:] < 0.0  # False at nan: a later non-finite value hides nothing
                if neg.any():
                    n = start + int(neg.argmax())
            b[s + start:s + n] = x[start:n]
            scale = float(np.fmax.reduce(np.abs(x[start:n]), initial=scale))
            if n == x.size:
                return
            if x[n] < -1e-10 * scale:
                raise TransportError("birth trace went negative beyond tolerance")
            b[s + n] = 0.0
            clamps += 1
            clamp_max = max(clamp_max, float(-x[n]))
            if n + 1 < x.size:
                x[n + 1:] -= x[n] * inv[1:x.size - n] / inv[0]
            start = n + 1

    # Step k integrates over the time nodes 0..k, cut into segments at the
    # breakpoints before k: t = 0 and the jumps.  hist[k] is the unit-weight
    # Toeplitz sum over the nodes below k's window; the window's own earlier
    # nodes add ``inner @ b``.  The trapezoid halves the weight of node 0 (node k is
    # the implicit unknown), and both ends of every segment add the Gregory
    # offsets for its length, at a jump node applied to the one-sided value
    # that segment sees.  Without jumps this is the plain third-order
    # Gregory rule; where both segments next to a jump have >= 3 steps, the
    # one-sided parts cancel.  The steps k >= p + 3 (p the last breakpoint
    # before k) of one window couple only through the Toeplitz system with
    # first column ``col``, solved by one product with its inverse ``solve``;
    # the steps p + 1 and p + 2 are 1-row solves.
    jt = sorted(b_jump)
    half = [0.5 * b_jump[j] for j in jt]
    below = [_GREGORY_ENDS[min(q - p, 3)] for p, q in zip([0] + jt, jt)]
    a0, a1 = _GREGORY_ENDS[3]
    w = min(_LOCAL, K + 1)
    inner = _lower_toeplitz(kv[:w])  # only its strictly lower part is read
    col = -dt * kv[:w]
    col[0] = 1.0 - dt * (0.5 + a0) * kv[0]
    col[1:2] *= 1.0 + a1  # a slice: w is 1 when K = 0
    inv = np.zeros(w)  # first column of the inverse, by forward substitution
    inv[0] = 1.0 / col[0]
    for i in range(1, w):
        inv[i] = -float(np.dot(col[i:0:-1], inv[:i])) * inv[0]
    solve = _lower_toeplitz(inv)

    hist = np.zeros(K + 1)
    spectra = {}  # rfft of kv[:2m] per block length m <= cap, the kernel's reach
    cap = 1 << (live - 1).bit_length()
    active = retired = 0  # jumps before k; of them, those at least live steps back
    for lo in range(0, K + 1, _LOCAL):
        hi = min(lo + _LOCAL, K + 1)
        if lo:
            # all of b[lo-m:lo] is final: add its share of the history to
            # hist[lo:lo+m] with one circular convolution of length 2m; a
            # longer block would add only pairs at lags > cap, where kv = 0
            m = min(lo & -lo, cap)
            if m not in spectra:
                spectra[m] = np.fft.rfft(kv[:2 * m], 2 * m)
            n = min(m, K + 1 - lo)
            conv = np.fft.irfft(np.fft.rfft(b[lo - m:lo], 2 * m) * spectra[m], 2 * m)
            hist[lo:lo + n] += conv[m:m + n]
        k = max(lo, 1)
        while k < hi:
            # rows k..e-1 share the last breakpoint p and their Gregory ends;
            # every term but their mutual coupling is known, so it is one vector
            while active < len(jt) and jt[active] < k:
                active += 1
            # every kv a jump's terms read sits at least k - jt lags back, so
            # once that is live or more they are exact zeros: the jump retires,
            # and the segment chain starts at the last retired breakpoint
            while retired < active and k - jt[retired] >= live:
                retired += 1
            p = jt[active - 1] if active else 0
            if k - p < 3:
                e = k + 1
            else:
                e = min(hi, jt[active] + 1) if active < len(jt) else hi
            r = hist[k:e]  # read once, so the rows' known terms gather in place
            if k > lo:
                r += inner[k - lo:e - lo, :k - lo] @ b[lo:k]
            if k < live:
                r -= 0.5 * b[0] * kv[k:e]
            p = jt[retired - 1] if retired else 0
            vp = b[p] + half[retired - 1] if retired else b[0]
            for i in range(retired, active):
                q = jt[i]
                c0, c1 = below[i]
                r += (c0 * (kv[k - p:e - p] * vp + kv[k - q:e - q] * (b[q] - half[i]))
                      + c1 * (kv[k - p - 1:e - p - 1] * b[p + 1]
                              + kv[k - q + 1:e - q + 1] * b[q - 1]))
                p, vp = q, b[q] + half[i]
            c0, c1 = _GREGORY_ENDS[min(k - p, 3)]
            if k - p - 1 < live:
                r += c0 * kv[k - p:e - p] * vp + c1 * kv[k - p - 1:e - p - 1] * b[p + 1]
            r[0] += c1 * kv[1] * b[k - 1]
            r = g[k:e] + dt * r
            if k - p < 3:
                accept(k, r / (1.0 - dt * (0.5 + c0) * kv[0]))
            else:
                accept(k, solve[:e - k, :e - k] @ r)
            k = e

    b.setflags(write=False)
    return Trajectory(n0, spectral, B, dt, K * dt, b, tuple(sorted(b_jump.items())),
                      clamps, clamp_max)


def _snap(traj: Trajectory, times):
    """The time-snapping rule: ``(outside, k)`` arrays for an array of times.

    ``outside`` marks the times outside [0, horizon] (nan included), whose
    ``k`` is meaningless; every other time snaps to its nearest node k.
    """
    t = np.asarray(times, dtype=float)
    outside = ~((t >= -_SNAP) & (t <= traj.horizon * (1.0 + _SNAP) + _SNAP))
    k = np.rint(np.where(outside, 0.0, t) / traj.dt)
    return outside, np.clip(k, 0, traj.births.size - 1).astype(int)


def _stride(traj: Trajectory, ks) -> int:
    """The grid rule: stride ``gcd(h / dt, k_1, ..., k_S)`` for the time indices ``ks``.

    The coarsest refinement of the time grid with a node at every seam
    x = t_k and at every node of the initial grid image (h divides x_max).
    """
    return math.gcd(traj._grid_ints()[0], *(int(k) for k in ks))


def snapshot_index(traj: Trajectory, t: float):
    """Time index k and grid stride d of the snapshot at time t.

    ``t`` is snapped to the nearest time node, and d is ``_stride`` of k
    alone, so the snapshot spacing is ``d * dt``.  At k = 0 that is the
    datum's own spacing.
    """
    outside, k = _snap(traj, t)
    if outside:
        raise TransportError("snapshot time outside [0, horizon]")
    return int(k), _stride(traj, [k])


def _atoms_at(traj: Trajectory, ks):
    """Atoms of the snapshots at time indices ``ks``: shifted by t, damped, cut at x_max.

    Flat arrays ``(row, location, weight)``, ``row`` indexing ``ks``, in
    row-major order.
    """
    n0 = traj.initial
    t = np.asarray(ks) * traj.dt
    locs = np.array([loc for loc, _ in n0.atoms], dtype=float)
    wts = np.array([wt for _, wt in n0.atoms], dtype=float)
    shifted = locs + t[:, None]
    rows, cols = np.nonzero(shifted <= n0.x_max * (1.0 + _SNAP))
    # math.exp, not np.exp: snapshot files keep their bytes
    decay = np.array([math.exp(v) for v in -traj.spectral.lambda0 * t])
    return rows, np.minimum(shifted[rows, cols], n0.x_max), wts[cols] * decay[rows]


@dataclass(frozen=True)
class CharacteristicLabels:
    """The ratio density/N of every snapshot on one grid, as one array.

    The ratio is carried unchanged along characteristics, so it is a
    function of the birth time tau = t - x alone.  Position ``p`` holds
    tau = (origin - p) * spacing: the newborn label ``b(tau) / lambda0`` for
    p < origin, the seam at p = origin, and the shifted ``datum`` over N
    beyond.  ``datum`` is the snapshot at k = 0: the datum itself at stride
    h / dt, on a finer grid its piecewise-linear density at the finer
    nodes, with its atoms and jump records.  The snapshot at time index k
    (a multiple of ``stride``), on this grid, has the ratio
    ``labels[offset(k) + j]`` at its node j.  The diagnostic sweep builds
    one such array for all of its samples, and ``evolve`` one per snapshot.

    Both arrays are one-sided: ``left[p]`` is the value seen from the panel
    to the right of the node (the panel's left end, as in ``_panel_sides``),
    ``right[p]`` the value seen from the panel to its left.  They differ at
    the seam, at the trace-jump records and at the datum's jump records.
    For nonnegative data both are clipped at zero.  ``clipped`` maps each
    trace-jump index whose left limit was negative to that limit before
    clipping: the only time indices at which the negativity guard of
    ``_window`` can fire.
    """

    stride: int
    spacing: float
    origin: int
    left: np.ndarray
    right: np.ndarray
    datum: HybridMeasure
    clipped: dict

    def offset(self, k: int) -> int:
        return self.origin - k // self.stride


def characteristic_labels(traj: Trajectory, ks) -> CharacteristicLabels:
    """The label arrays shared by the snapshots at time indices ``ks``, on their ``_stride``."""
    n0, N = traj.initial, traj.spectral.N
    lam = traj.spectral.lambda0
    stride = _stride(traj, ks)
    m, M = traj._grid_ints()
    g = stride * traj.dt
    origin = (traj.births.size - 1) // stride
    u = np.arange(M // stride + 1) * g
    # the last u may pass x_max by a rounding error
    dens = n0.density_at(np.minimum(u, n0.x_max))
    datum = n0 if stride == m else HybridMeasure(g, dens, n0.atoms, n0.jumps,
                                                  nonnegative=n0.nonnegative)
    with np.errstate(all="ignore"):
        right = np.concatenate([traj.births[origin * stride::-stride] / lam, dens[1:] / N(u[1:])])
    left = right.copy()
    # the datum's right limit at age 0: a jump record there carries it
    left[origin] = next((hi for x, _, hi in n0.jumps if x == 0.0), n0.density[0]) / lam
    for j, delta in traj.birth_jumps:
        if j % stride == 0:
            p = origin - j // stride
            left[p] = (traj.births[j] - 0.5 * delta) / lam
            right[p] = (traj.births[j] + 0.5 * delta) / lam
    for x, lo, hi in n0.jumps:
        if x > 0.0:
            p = origin + int(round(x / g))
            with np.errstate(all="ignore"):
                left[p], right[p] = hi / N(x), lo / N(x)
    clipped = {}
    if n0.nonnegative:
        clipped = {j: float(left[origin - j // stride]) for j, _ in traj.birth_jumps
                   if j % stride == 0 and left[origin - j // stride] < 0.0}
        np.maximum(left, 0.0, out=left)
        np.maximum(right, 0.0, out=right)
    return CharacteristicLabels(stride, g, origin, left, right, datum, clipped)


def evolve(traj: Trajectory, t: float) -> HybridMeasure:
    """Snapshot of the renormalized solution at time t.

    ``t`` is snapped to the nearest time node and the grid is the one
    ``snapshot_index`` names, so the newborn/shifted seam and all
    transported kinks sit on nodes.  The snapshot is the window of
    ``characteristic_labels(traj, [k])`` times N, read by ``_window``.  A
    time past ``x_max`` raises ``TransportError``: the seam would leave the
    grid.  So does a negative left limit at a trace-jump instant, and an
    overflow of density/N raises ``EntropyError``.
    """
    k, _ = snapshot_index(traj, t)
    if k == 0:
        return traj.initial
    if k > traj._grid_ints()[1]:
        raise TransportError("snapshot time past x_max: the newborn seam leaves the grid")
    lab = characteristic_labels(traj, [k])
    dens, jumps = _window(traj, lab, k)
    _, locs, wts = _atoms_at(traj, [k])
    return HybridMeasure(lab.spacing, dens, tuple(zip(locs.tolist(), wts.tolist())), jumps,
                         nonnegative=traj.initial.nonnegative)


def _overflows(left, right):
    """Where density/N overflows: a label on either side is not finite or exceeds 1e300."""
    return ~((np.abs(left) <= 1e300) & (np.abs(right) <= 1e300))


def _window(traj: Trajectory, lab: CharacteristicLabels, k: int):
    """Node values and jump records of the snapshot at time index k: ``lab``'s window times N.

    Each node takes its side toward larger x.  So node 0 takes its limit
    from x > 0, at a trace-jump instant the trace's left limit: every age
    x > 0 was born strictly before it.  Where the two sides differ past
    node 0, a record ``(x, left limit, right limit)`` is written, and
    ``HybridMeasure`` sets that node to their mean.  Raises
    ``EntropyError`` where density/N overflows, then ``TransportError`` at
    a trace-jump instant whose left limit ``lab`` clipped from below
    -1e-12 times the largest of 1, its own magnitude and the window's
    one-sided values.
    """
    n = traj._grid_ints()[1] // lab.stride + 1
    off = lab.offset(k)
    left, right = lab.left[off:off + n], lab.right[off:off + n]
    if _overflows(left, right).any():
        raise EntropyError("density/N overflows: domain too long for this rate")
    Nx = traj.spectral.N(np.arange(n) * lab.spacing)
    L, R = left * Nx, right * Nx
    low = lab.clipped.get(k, 0.0) * Nx[0]
    if low < -1e-12 * max(1.0, -low, float(np.abs(L).max())):
        raise TransportError("snapshot density went negative beyond tolerance")
    p = np.flatnonzero(left[1:] != right[1:]) + 1
    return L, tuple(zip((p * lab.spacing).tolist(), R[p].tolist(), L[p].tolist()))


def tail_phi_mass(traj: Trajectory, t):
    """Dual-weighted mass of the initial datum that has left the window by t.

    For finite-support birth laws the dual weight vanishes beyond the window
    (the truncation certificate guarantees it), so the leak is zero; for
    constant laws the weight is a known constant and the leak is an exact
    right-tail mass of the initial datum.  ``t`` may be an array of times;
    a scalar ``t`` gives a float.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if traj.birth_law.support_end is not None:
        out = np.zeros(ts.shape)
    else:
        n0 = traj.initial
        v = n0.x_max - ts
        cum = ac_cumulative(n0, np.concatenate([[n0.x_max], np.maximum(v, 0.0)]))
        locs = np.array([loc for loc, _ in n0.atoms])
        wts = np.array([wt for _, wt in n0.atoms])
        atom_out = (locs[None, :] > v[:, None]) @ wts
        phi_const = traj.spectral.phi(0.0)
        lam = traj.spectral.lambda0
        out = np.exp(-lam * ts) * phi_const * ((cum[0] - cum[1:]) + atom_out)
    return float(out[0]) if np.ndim(t) == 0 else out
