"""Time evolution of a measure datum by exact characteristics.

The solution is stored as the initial measure plus the boundary birth trace
b(t); nothing is ever regridded during evolution, so atoms stay atoms with
exactly known weights.  Snapshots are materialized on demand: newborn mass
appears as the density ``b(t - x) exp(-lam x)`` on (0, t), the initial
datum is shifted by t and damped by ``exp(-lam t)``, and the seam at x = t
is a grid node carrying both one-sided limits.  The ratio of a snapshot to
the stable profile N is carried unchanged along characteristics, so the
ratios of all snapshots on one grid stride are windows of one array indexed
by birth time (``characteristic_labels``); the diagnostic sweep sums over
those windows instead of building snapshots.

The birth trace solves the renewal integral equation

    b(t) = g(t) + integral_0^t B(x) exp(-lam x) b(t - x) dx,

with g the damped birth contribution of the shifted initial datum.  The
convolution uses trapezoid product integration with third-order Gregory end
corrections: the plain trapezoid rule's O(dt^2) defect feeds through the
renewal resolvent and grows linearly in t, which is too coarse for the
long-horizon diagnostics this package exists to produce.

Every step k >= 3 is the same Toeplitz sum ``sum_i kv[k-i] b[i]`` plus the
Gregory end terms, plus a sparse correction for each jump of b in the
history: the rule is applied segment by segment between jumps, and the
segment-split weights differ from the plain ones only within two nodes of
each jump, so the correction costs O(#jumps) per step.  The history sum is
convolved in doubling blocks (Hairer, Lubich and Schlichte, SIAM J. Sci.
Stat. Comput. 6, 1985): once b[e-m:e] is known, with m the lowest set bit
of e, one FFT adds its contribution to the next m steps, and only a short
local window is summed directly.  A trace of K steps costs O(K log^2 K).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TransportError
from .measures import HybridMeasure, ac_cumulative
from .spectral import BirthLaw, SpectralData

__all__ = [
    "Trajectory",
    "birth_series",
    "evolve",
    "snapshot_index",
    "snapshot_atoms",
    "CharacteristicLabels",
    "characteristic_labels",
    "unrenormalize",
    "tail_phi_mass",
]

_SNAP = 1e-9

# Direct-sum window of the birth-trace history; older history arrives in
# FFT blocks of at least this many steps.  A power of two.
_LOCAL = 64

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

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.births.size) * self.dt

    def _grid_ints(self):
        m = int(round(self.initial.h / self.dt))
        M = int(round(self.initial.x_max / self.dt))
        return m, M


def _check_multiple(value: float, unit: float, what: str) -> int:
    k = int(round(value / unit))
    if k < 0 or abs(value - k * unit) > _SNAP * max(1.0, abs(value)):
        raise TransportError(f"{what} must be an integer multiple of {unit}")
    return k


def birth_series(n0: HybridMeasure, B: BirthLaw, spectral: SpectralData,
                 dt: float, T: float) -> Trajectory:
    """Solve for the boundary birth trace on the time grid 0, dt, ..., T.

    Requirements: dt divides the grid spacing and the horizon; a finite
    birth-law support must satisfy ``support_end + T <= x_max`` so that mass
    leaving the window can never feed back into births (constant laws need
    no certificate, their forcing is evaluated analytically on the full
    half-line).
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
    kv = B.quad_values(times) * np.exp(-lam * times)
    if 1.0 - 0.5 * dt * kv[0] <= 0.0:
        raise TransportError("time step too large for the implicit boundary weight")
    g = B.birth_forcing(n0, times) * np.exp(-lam * times)

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

    def settle(val):
        nonlocal scale
        if nonneg and val < 0.0:
            if val < -1e-10 * scale:
                raise TransportError("birth trace went negative beyond tolerance")
            val = 0.0
        scale = max(scale, abs(val))
        return val

    if K >= 1:
        b[1] = settle((g[1] + 0.5 * dt * kv[1] * b[0]) / (1.0 - 0.5 * dt * kv[0]))
    if K >= 2:
        b[2] = settle(
            (g[2] + dt / 3.0 * (4.0 * kv[1] * b[1] + kv[2] * b[0]))
            / (1.0 - dt / 3.0 * kv[0])
        )

    # Step k integrates over the time nodes 0..k, cut into segments at the
    # jumps before k.  hist[k] plus the local dot is the unit-weight
    # Toeplitz sum over nodes 0..k-1.  The trapezoid halves the weight of
    # node 0 (node k is the implicit unknown), and both ends of every
    # segment add the Gregory offsets for its length, at a jump node
    # applied to the one-sided value that segment sees.  Without jumps this
    # is the plain third-order Gregory rule; where both segments next to a
    # jump have >= 3 steps, the one-sided parts cancel.
    jt = sorted(b_jump)
    half = [0.5 * b_jump[j] for j in jt]
    below = [_GREGORY_ENDS[min(q - p, 3)] for p, q in zip([0] + jt, jt)]
    hist = np.zeros(K + 1)
    # float views: the scalar work per step stays off numpy scalars
    kvl, gl, bl = memoryview(kv), memoryview(g), memoryview(b)
    spectra = {}
    active = 0
    for k in range(3, K + 1):
        if k % _LOCAL == 0:
            # all of b[k-m:k] is final: add its share of the history to
            # hist[k:k+m] with one circular convolution of length 2m
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

    b.setflags(write=False)
    return Trajectory(n0, spectral, B, dt, K * dt, b, tuple(sorted(b_jump.items())))


def _right_limit_at_zero(mu: HybridMeasure) -> float:
    for x, _, hi in mu.jumps:
        if x == 0.0:
            return hi
    return float(mu.density[0])


def snapshot_index(traj: Trajectory, t: float):
    """Time index k and grid stride d of the snapshot at time t.

    ``t`` is snapped to the nearest time node.  The snapshot spacing is
    ``d * dt`` with ``d = gcd(k, x_max / dt, h / dt)``: the coarsest
    refinement of the time grid that puts nodes exactly at x = t and at
    every node of the initial grid image.  At k = 0 that is the datum's own
    spacing.
    """
    if t < -_SNAP or t > traj.horizon * (1.0 + _SNAP) + _SNAP:
        raise TransportError("snapshot time outside [0, horizon]")
    k = int(round(t / traj.dt))
    k = min(max(k, 0), traj.births.size - 1)
    m, M = traj._grid_ints()
    return k, math.gcd(k, math.gcd(M, m))


def snapshot_atoms(traj: Trajectory, k: int) -> tuple:
    """Atoms of the snapshot at time index k: shifted by t, damped, cut at x_max."""
    n0 = traj.initial
    t_k = k * traj.dt
    decay = math.exp(-traj.spectral.lambda0 * t_k)
    return tuple(
        (min(loc + t_k, n0.x_max), wt * decay)
        for loc, wt in n0.atoms
        if loc + t_k <= n0.x_max * (1.0 + _SNAP)
    )


def evolve(traj: Trajectory, t: float) -> HybridMeasure:
    """Snapshot of the renormalized solution at time t.

    ``t`` is snapped to the nearest time node and the grid is the one
    ``snapshot_index`` names, so the newborn/shifted seam and all
    transported kinks sit on nodes.
    """
    k, d = snapshot_index(traj, t)
    if k == 0:
        return traj.initial

    n0 = traj.initial
    lam = traj.spectral.lambda0
    dt = traj.dt
    _, M = traj._grid_ints()
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
    right = _right_limit_at_zero(n0) * decay
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

    return HybridMeasure(g, dens, snapshot_atoms(traj, k), tuple(jumps),
                         nonnegative=n0.nonnegative)


@dataclass(frozen=True)
class CharacteristicLabels:
    """The ratio density/N of every snapshot with one grid stride, as one array.

    The ratio is carried unchanged along characteristics, so it is a
    function of the birth time tau = t - x alone.  Position ``p`` holds
    tau = (origin - p) * spacing: the newborn label ``b(tau) / lambda0`` for
    p < origin, the seam at p = origin, and the shifted datum
    ``n0(-tau) / N(-tau)`` beyond.  The snapshot at time index k (a multiple
    of ``stride``) has the ratio ``labels[offset(k) + j]`` at its node j.

    Both arrays are one-sided: ``left[p]`` is the value seen from the panel
    to the right of the node (the panel's left end, as in ``_panel_sides``),
    ``right[p]`` the value seen from the panel to its left.  They differ at
    the seam, at the trace-jump records and at the datum's jump records.
    For nonnegative data both are clipped at zero, as ``evolve`` clips;
    ``clipped`` holds the trace-jump indices whose left limit was negative:
    the only time indices at which ``evolve``'s negativity guard can fire.
    """

    stride: int
    spacing: float
    origin: int
    left: np.ndarray
    right: np.ndarray
    clipped: frozenset = frozenset()

    def offset(self, k: int) -> int:
        return self.origin - k // self.stride


def characteristic_labels(traj: Trajectory, stride: int) -> CharacteristicLabels:
    """The label arrays shared by every snapshot whose grid stride is ``stride``."""
    n0, N = traj.initial, traj.spectral.N
    lam = traj.spectral.lambda0
    _, M = traj._grid_ints()
    g = stride * traj.dt
    origin = (traj.births.size - 1) // stride
    u = np.arange(1, M // stride + 1) * g
    with np.errstate(all="ignore"):
        datum = n0.density_at(u) / N(u)
    right = np.concatenate([traj.births[origin * stride::-stride] / lam, datum])
    left = right.copy()
    left[origin] = _right_limit_at_zero(n0) / lam
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
    clipped = ()
    if n0.nonnegative:
        clipped = [j for j, _ in traj.birth_jumps
                   if j % stride == 0 and left[origin - j // stride] < 0.0]
        np.maximum(left, 0.0, out=left)
        np.maximum(right, 0.0, out=right)
    return CharacteristicLabels(stride, g, origin, left, right, frozenset(clipped))


def unrenormalize(mu: HybridMeasure, t: float, lambda0: float) -> HybridMeasure:
    """Undo the exponential damping: multiply all masses by exp(lambda0 t)."""
    if lambda0 * t > 700.0:
        raise TransportError("unrenormalization factor overflows")
    s = math.exp(lambda0 * t)
    jumps = tuple((x, lo * s, hi * s) for x, lo, hi in mu.jumps)
    atoms = tuple((loc, wt * s) for loc, wt in mu.atoms)
    return HybridMeasure(mu.h, mu.density * s, atoms, jumps, nonnegative=mu.nonnegative)


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
