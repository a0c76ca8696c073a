"""Long-time diagnostics: distance to equilibrium, decay fits, mollification.

The central quantity is the weighted variation distance between a snapshot
and its equilibrium projection ``m0 N dx``, where m0 is the conserved
dual-weighted mass of the initial datum.  ``sample_diagnostics`` computes
it together with every other per-sample quantity (birth integral, dual
mass, entropy, dissipation) in one pass over the sample times, as weighted
window sums of the time-invariant ratio labels of the transport module.
The distance is weighted by phi or by 1, the two weights of the paper's
convergence results.  A log-linear fit of that distance estimates the
empirical decay rate; the mollification harness checks that smoothing the
initial datum moves the entropy functional by a gap that shrinks to zero
with the kernel width.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EntropyError, RenewalError
from .measures import HybridMeasure, _bump_sum, integrate
from .entropy import EntropyIntegrand, _gre, _gre_grid, _ratio
from .spectral import SpectralData
from .transport import (
    Trajectory,
    characteristic_labels,
    _atoms_at,
    _overflows,
    _snap,
    _window,
    snapshot_index,
    tail_phi_mass,
)

__all__ = [
    "DecayFit",
    "sample_diagnostics",
    "distance_to_equilibrium",
    "fit_decay_rate",
    "MollificationReport",
    "reshetnyak_harness",
    "BirthIntegralReport",
    "birth_integral_report",
]

_FLOOR = 1e-13  # distances below this are floating noise, not signal
_MK_SLACK, _MK_FLOOR, _MK_FINAL_TOL = 1e-7, 1e-6, 1e-4  # birth_integral_report
_GRE_TOL = 1e-2  # reshetnyak_harness: the largest final entropy gap that passes


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit D(t) ~ exp(-sigma (t - y0)) of a distance series."""

    samples: tuple
    sigma_hat: float
    y0_hat: float
    r_squared: float


# A tail block's scale q^block stays at least e^-_TAIL_EXP = 2^-512, a
# normal float with room below it: the scaled terms neither underflow nor,
# divided back, overflow.
_TAIL_EXP = 512.0 * math.log(2.0)
# Labels per block of the sweep's pass: the row buffers hold this many
# labels (plus the longest head), however long the label arrays are.
_BLOCK = 1 << 14


def _blocks(lo: int, hi: int):
    """The label blocks ``[b0, b1)`` of ``_BLOCK`` positions covering [lo, hi), top down."""
    for b1 in range(hi, lo, -_BLOCK):
        yield max(lo, b1 - _BLOCK), b1


class _LabelTable:
    """The sweep's labels and the rows it reads from them.

    No row is held over all the labels: ``fill`` writes the rows of one
    label block into a buffer.  Row r is ``f_r(left[p]) + f_r(right[p])``,
    summed over both panel sides, for each row function f_r, and the last
    row holds the same sum for |ratio - m0|, the row of the distances; so a
    snapshot's node sums are one window of rows.  ``bad`` holds the
    positions of the labels that overflow.  The cells where ``ratio - m0``
    changes sign (``cross``, by their left position), and the point in
    each where it crosses zero, do not depend on the sample time (N(x + g)
    / N(x) = exp(-lambda0 g) everywhere), so the exact split of |ratio -
    m0| at its zero is folded into the distance row: a cell's left end
    carries ``cross_left`` = theta |a| instead of |a| and its right end
    ``cross_right`` = (1 - theta) |b| instead of |b|.  ``bad`` and
    ``cross`` are found block by block when the table is built; a cell at
    a block's top reads one label of the block above.
    """

    def __init__(self, lab, m0: float, lam: float, fns):
        self.lab, self.m0, self.fns = lab, m0, fns
        self.rows = len(fns) + 1
        L, R = lab.left, lab.right
        bad, cross = [], []
        with np.errstate(all="ignore"):
            for b0, b1 in _blocks(0, L.size):
                bad.append(b0 + np.flatnonzero(_overflows(L[b0:b1], R[b0:b1])))
                a = L[b0:min(b1, L.size - 1)] - m0
                cross.append(b0 + np.flatnonzero(a * (R[b0 + 1:b1 + 1] - m0) < 0.0))
            self.bad = np.concatenate(bad[::-1])
            self.cross = np.concatenate(cross[::-1])
            a_c, b_c = L[self.cross] - m0, R[self.cross + 1] - m0
            theta = a_c / (a_c - math.exp(-lam * lab.spacing) * b_c)  # zero offset / spacing
            self.cross_left = theta * np.abs(a_c)
            self.cross_right = (1.0 - theta) * np.abs(b_c)

    def fill(self, b0: int, b1: int, out):
        """The rows of labels [b0, b1) into ``out[:, :b1 - b0]``: one per fn, then distances."""
        L, R = self.lab.left[b0:b1], self.lab.right[b0:b1]
        m = b1 - b0
        with np.errstate(all="ignore"):
            for r, f in enumerate(self.fns):
                np.add(f(L), f(R), out=out[r, :m])
            a, b = np.abs(L - self.m0), np.abs(R - self.m0)
            i0, i1 = self.cross.searchsorted((b0, b1))
            a[self.cross[i0:i1] - b0] = self.cross_left[i0:i1]
            i0, i1 = self.cross.searchsorted((b0 - 1, b1 - 1))
            b[self.cross[i0:i1] + 1 - b0] = self.cross_right[i0:i1]
            np.add(a, b, out=out[-1, :m])

    def overflows(self, starts, stops):
        """Whether each window [start, stop) holds a label that overflows."""
        return self.bad.searchsorted(stops) > self.bad.searchsorted(starts)

    def ends(self, first, last):
        """Every row's sides at nodes ``first`` and ``last`` that a window drops: (window, row).

        Node ``first`` has no panel to its left and node ``last`` none to
        its right; in the distance row a sign-change cell there carries its
        split value.
        """
        sides = []
        for v, nodes, shift, split in ((self.lab.right[first], first, 1, self.cross_right),
                                       (self.lab.left[last], last, 0, self.cross_left)):
            with np.errstate(all="ignore"):
                side = np.stack([np.asarray(f(v), dtype=float) for f in self.fns]
                                + [np.abs(v - self.m0)], 1)
            c = self.cross.searchsorted(nodes - shift)
            hit = c < self.cross.size
            hit[hit] = self.cross[c[hit]] + shift == nodes[hit]
            side[hit, -1] = split[c[hit]]
            sides.append(side)
        return sides


def _node_weights(spectral, B, etas, n: int, spacing: float, entropy: bool):
    """Node weights of one snapshot grid, one row per weighted sum.

    Rows: ``w phi N`` (dual mass, gre), ``w B N / N(0)`` (birth integral,
    dissipation) and one per name in ``etas`` (distances): that row again
    for ``"phi"``, ``w N`` for ``"one"``, with w = spacing / 2 the weight of
    each panel end.  Each row is ``w N g`` with g = phi, B / N(0) or 1; its
    head is 1 plus the last node where g differs from its final value (the
    whole grid if that leaves one node), and past the head the row is
    ``w N`` times that constant, a geometric sequence.
    Returns the weights at the nodes the sums read (the first head + 1 and
    the last), the unit-mass normalizer of the dissipation weight over both
    panel sides, and ``head``, the longest head of all rows: past it every
    row is geometric.  One g row over the whole grid is held at a time.
    """
    if entropy and spectral.residual_euler_lotka > 1e-8:
        raise EntropyError("reference measure is not normalized: eigen residual too big")
    x = np.arange(n) * spacing
    wN = spectral.N(x)
    if entropy and not wN.min() > 0.0:
        raise EntropyError("density/N overflows: domain too long for this rate")
    np.multiply(wN, 0.5 * spacing, out=wN)
    rows = []  # per row: g up to its head, and the final g

    def add(g):
        moving = g != g[-1]
        head = n - int(moving[::-1].argmax()) if moving.any() else 0
        rows.append((g[:head].copy(), g[-1]))

    add(spectral.phi(x))
    g = B.quad_values(x) / spectral.lambda0  # N(0) = lambda0
    wsum = 2.0 * float((g * wN).sum()) - g[0] * wN[0] - g[-1] * wN[-1]
    add(g)
    rows += [rows[0] if eta == "phi" else (np.empty(0), 1.0) for eta in etas]
    if entropy and not wsum > 0.0:
        raise EntropyError("reference measure has no mass on this grid")
    head = max(g.size for g, _ in rows)
    head = head if head < n - 1 else n
    keep = min(head + 1, n)
    cols = np.append(np.arange(keep), n - 1) if keep < n else np.arange(n)
    W = np.empty((len(rows), cols.size))
    for w, (g, final) in zip(W, rows):
        w[:] = final
        w[:g.size] = g
    W *= wN[cols]
    return W, wsum, head


class _GeometricSums:
    """``sum_{p=start}^{stop-1} exp(-decay (p - start)) f[:, p]`` per (start, stop).

    One backward recurrence ``G[p] = f[p] + q G[p + 1]``, q = exp(-decay),
    over [min(starts), max(stops)], run from the top in recurrence blocks
    of ``_TAIL_EXP / decay`` positions as a scaled reverse cumulative sum
    with exact powers of q; a window is then ``G[start] - q^(stop - start)
    G[stop]``.  The rows of f arrive label block by label block, top down
    (``feed``), and only G at the starts and stops is kept.  A recurrence
    block that spans label blocks folds its running reverse sum into the
    next label block's first element; ``np.cumsum`` adds sequentially, so
    G does not depend on where the label blocks fall.  ``sums`` is indexed
    (window, row).
    """

    def __init__(self, starts, stops, decay: float, rows: int):
        self.starts, self.stops, self.decay = starts, stops, decay
        self.lo, self.hi = int(starts.min()), int(stops.max())
        self.step = max(1, int(_TAIL_EXP / decay))
        at = np.concatenate([starts, stops])
        self.order = np.argsort(at, kind="stable")
        self.at = at[self.order]
        self.G = np.zeros((rows, at.size))
        self.top = np.zeros(rows)  # G at the top of the current recurrence block
        self.run = None            # its reverse cumulative sum so far

    def feed(self, b0: int, f, scratch):
        """Take rows ``f`` of the labels from b0 up; the labels above came before."""
        c1, lo = min(self.hi, b0 + f.shape[1]), max(self.lo, b0)
        while c1 > lo:
            r1 = self.hi - (self.hi - c1) // self.step * self.step
            r0 = max(self.lo, r1 - self.step)
            c0 = max(r0, lo)
            e = np.exp(-self.decay * np.arange(c0 - r0, c1 - r0))
            part = scratch[:f.shape[0], :c1 - c0]
            np.multiply(f[:, c0 - b0:c1 - b0], e, out=part)
            if c1 < r1:
                part[:, -1] += self.run
            np.cumsum(part[:, ::-1], axis=1, out=part[:, ::-1])
            self.run = part[:, 0].copy()
            part += math.exp(-self.decay * (r1 - r0)) * self.top[:, None]
            part /= e
            i0, i1 = self.at.searchsorted((c0, c1))
            self.G[:, self.order[i0:i1]] = part[:, self.at[i0:i1] - c0]
            if c0 == r0:
                self.top = part[:, 0].copy()
            c1 = c0

    def sums(self):
        S = self.starts.size
        return (self.G[:, :S] - np.exp(-self.decay * (self.stops - self.starts))
                * self.G[:, S:]).T


def _window_sums(tab: _LabelTable, offs, n: int, decay: float, W, head: int):
    """``sum_j row[off + j] W[:, j]`` over the windows [off, off + n), for every row.

    Returns one array indexed (window, row of the table, row of W), from
    one top-down pass over the table's label blocks, which fills one row
    buffer per block.  The first ``head`` nodes of a window are summed
    densely from the block its offset falls in, plus the ``head`` labels
    copied from the block above; past them each row of W is ``W[:, head]``
    times a power of exp(-decay), so the rest is one ``_GeometricSums``
    recurrence over the labels for all windows at once.
    """
    order = np.argsort(offs, kind="stable")
    ascending = offs[order]
    lo, hi = (int(ascending[0]), int(ascending[-1]) + n) if offs.size else (0, 0)
    width = min(_BLOCK, hi - lo)
    buf = np.empty((tab.rows, width + head))
    scratch = np.empty((tab.rows, width))
    z = np.zeros((offs.size, tab.rows, W.shape[0]))
    tail = (_GeometricSums(offs + head, offs + n, decay, tab.rows)
            if offs.size and head < n and W[:, head].any() else None)
    Wh = W[:, :head].T
    for b0, b1 in _blocks(lo, hi):
        m = b1 - b0
        if b1 < hi:
            buf[:, m:m + head] = above
        tab.fill(b0, b1, buf)
        if head:
            for s in order[ascending.searchsorted(b0):ascending.searchsorted(b1)]:
                z[s] = buf[:, offs[s] - b0:offs[s] - b0 + head] @ Wh
        if tail:
            tail.feed(b0, buf[:, :m], scratch)
        above = buf[:, :head].copy()
    if tail:
        z += tail.sums()[:, :, None] * W[:, head]
    return z


def sample_diagnostics(traj: Trajectory, times, integrands=(), etas=("phi",)) -> dict:
    """Every per-sample diagnostic of a trajectory in one pass over ``times``.

    Returns ``m0``, the dual mass of the datum, and one array per column:
    ``D_<eta>`` for each weight name in ``etas`` (``phi``, or ``one`` for
    the unit weight), the weighted variation of the snapshot minus
    ``m0 N dx``; ``m_k``, the birth integral over N(0);
    ``conserved_phi_mass``, the dual mass plus the leak past x_max; and
    ``gre_<H>``, ``J_<H>`` per integrand.

    All samples, and ``m0``, lie on one grid: the grid of
    ``characteristic_labels(traj, ks)`` for the samples' time indices ks,
    which also carries the datum on that grid.

    No snapshot is built.  Every column is a weighted sum of the ratio
    density/N, which is constant along characteristics: the ratio of every
    sample is one window of those time-invariant label arrays, and each H
    is applied once to each label, in one top-down pass over blocks of
    ``_BLOCK`` labels.  The node weights ``w phi N``, ``w B N / N(0)`` and
    ``w N`` are built once, and every column is one entry of one product:
    the table's rows (the ratio, each H, then |ratio - m0|) against every
    weight row, less the sides that node 0 and node n - 1 have outside the
    window, so every sum reads one-sided values at both ends.  Each weight
    is ``w N g``, and g is constant past its head (past the birth law's
    last breakpoint phi and B are, and 1 is everywhere).  The longest head
    is summed per sample from the block its window starts in, and the
    geometric rest of every window comes from one blocked backward
    recurrence over the labels, which keeps only its values at the window
    ends.  So the sweep costs O(L F) time for labels of length L
    and F row functions, plus O(S P) for S samples with heads of P nodes:
    nothing for a constant law, the law's support for a table law.  Its
    memory is the labels, O(L), plus O(F (block + P)) for the row buffers
    and O(R P) for the head columns of the R weight rows; no row function
    is held over all the labels.  Offsets, the overflow check, the window
    ends and the atoms are array operations, and the sign-change cells of
    ``D_<eta>`` are folded into the labels.

    The values agree to rounding with the same sums taken over the nodes of
    the snapshots on the sweep's grid (in another order; the tests keep
    those per-snapshot sums as oracles).  Errors are raised in this order:
    a weight name other than ``phi`` or ``one``, the node weights'
    normalization checks, then in sample order the checks of
    ``transport._window``, the one reading of a snapshot off the labels
    that ``evolve`` makes too: an overflow of density/N (an
    ``EntropyError`` even without integrands: every column is a sum over
    density/N), then the negativity guard at a trace jump whose left limit
    was clipped; then the first time outside [0, horizon].
    """
    spectral, B = traj.spectral, traj.birth_law
    lam = spectral.lambda0
    for eta in etas:
        if eta not in ("phi", "one"):
            raise RenewalError(f"unknown variation weight {eta!r} (use phi or one)")
    # row functions of the ratio; the table adds |ratio - m0| as its last row
    fns = [lambda r: r] + [H.H for H in integrands]
    F = len(fns)
    times = np.asarray(times, dtype=float)
    outside, ks = _snap(traj, times)
    S = int(outside.argmax()) if outside.any() else times.size  # before the first outside
    ks = ks[:S]
    lab = characteristic_labels(traj, ks)
    m0 = integrate(lab.datum, spectral.phi)
    n, spacing = lab.datum.node_count, lab.spacing
    tab = _LabelTable(lab, m0, lam, fns)
    W, wsum, head = _node_weights(spectral, B, etas, n, spacing, bool(integrands))
    offs = lab.offset(ks)
    ends = offs + n - 1
    for i in np.flatnonzero(np.isin(ks, list(lab.clipped)) | tab.overflows(offs, ends + 1)):
        _window(traj, lab, ks[i])  # raises at an overflow or a negative left limit
    if S < times.size:
        snapshot_index(traj, times[S])  # raises: outside [0, horizon]

    # indexed (sample, row of the table, row of W): a window drops the side
    # of node 0 to its left and the side of node n - 1 to its right
    first, last = tab.ends(offs, ends)
    sums = (_window_sums(tab, offs, n, lam * spacing, W, head)
            - first[:, :, None] * W[:, 0] - last[:, :, None] * W[:, -1])

    rows, locs, wts = _atoms_at(traj, ks)

    def per_sample(values):
        return np.bincount(rows, weights=values, minlength=S)

    phis, psis = spectral.phi(locs), B.quad_values(locs) / lam
    out = {}
    for e, eta in enumerate(etas, start=2):
        weight = phis if eta == "phi" else 1.0
        out[f"D_{eta}"] = sums[:, F, e] + per_sample(weight * np.abs(wts))
    out["m_k"] = sums[:, 0, 1] + per_sample(psis * wts)
    out["conserved_phi_mass"] = (sums[:, 0, 0] + per_sample(phis * wts)
                                 + tail_phi_mass(traj, times))
    arg = sums[:, 0, 1] / wsum + per_sample(psis * wts)
    for r, H in enumerate(integrands, start=1):
        cost = np.where(wts > 0.0, H.H_inf_plus, H.H_inf_minus) * np.abs(wts)
        out[f"gre_{H.name}"] = sums[:, r, 0] + per_sample(phis * cost)
        out[f"J_{H.name}"] = (sums[:, r, 1] / wsum + per_sample(psis * cost)
                              - np.asarray(H.H(arg), dtype=float))
    out["m0"] = m0
    return out


def distance_to_equilibrium(traj: Trajectory, t: float, eta: str = "phi") -> float:
    """Variation distance at t from m0 N dx, weighted by phi or (``"one"``) by 1."""
    return float(sample_diagnostics(traj, (t,), etas=(eta,))[f"D_{eta}"][0])


def fit_decay_rate(samples) -> DecayFit:
    """Least squares through (t, log D): slope gives the rate estimate.

    Samples at or below the floating floor are discarded, and so is every
    sample after the smallest D: past it D has stopped decaying and sits on
    the discretisation floor.  At least five usable points are required.
    """
    usable = [(float(t), float(d)) for t, d in samples if d > _FLOOR]
    if np.any(np.diff([t for t, _ in usable]) <= 0.0):
        raise RenewalError("decay samples must have strictly increasing times")
    if usable:
        usable = usable[:int(np.argmin([d for _, d in usable])) + 1]
    if len(usable) < 5:
        raise RenewalError("need at least 5 usable samples to fit a decay rate")
    ts = np.array([t for t, _ in usable])
    logd = np.log(np.array([d for _, d in usable]))
    # centred two-parameter least squares, in closed form (no LAPACK call)
    t_mean, y_mean = float(ts.mean()), float(logd.mean())
    tc = ts - t_mean
    slope = float(np.dot(tc, logd - y_mean) / np.dot(tc, tc))
    intercept = y_mean - slope * t_mean
    sigma = -slope
    y0 = intercept / sigma if abs(sigma) > 1e-300 else math.nan
    fitted = slope * ts + intercept
    ss_res = float(np.sum((logd - fitted) ** 2))
    ss_tot = float(np.sum((logd - y_mean) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else (1.0 if ss_res < 1e-20 else 0.0)
    return DecayFit(tuple(usable), sigma, y0, r2)


@dataclass(frozen=True)
class MollificationReport:
    """Per-epsilon entropy gaps of a mollified datum, from ``reshetnyak_harness``."""

    gre_values: tuple
    gre_gaps: tuple
    gre_reference: float
    gap_decreased: bool
    final_below_tol: bool

    @property
    def passed(self) -> bool:
        return self.gap_decreased and self.final_below_tol


def reshetnyak_harness(n0: HybridMeasure, spectral: SpectralData,
                       H: EntropyIntegrand, eps_list) -> MollificationReport:
    """Mollify the datum along a decreasing epsilon ladder and tabulate entropy gaps.

    For each epsilon: the entropy functional of the mollified datum and its
    gap to the unmollified value.  Passing means the final entropy gap is no
    larger than the first and at most ``_GRE_TOL``.

    The reference is ``gre_functional(n0)`` and each rung is
    ``gre_functional(mollify(n0, eps))``, bit for bit, from one evaluation
    of the datum (``entropy._gre_grid``): phi, the gre weight and
    H(density/N) on the panels before ``spectral.live_end``, past which phi
    is 0, and density/N checked for overflow on every panel side.  A rung
    changes the datum only at the nodes where ``mollify``'s summed bumps
    (``measures._bump_sum``) are nonzero, so it checks density/N and
    re-evaluates H only on the panel sides of those nodes.  So the ladder
    costs O(live_end / h + atoms eps / h) per rung plus one O(n) pass.
    """
    eps = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps[:-1], eps[1:])):
        raise RenewalError("epsilon ladder must be strictly decreasing")
    if eps and eps[-1] < n0.h:
        raise RenewalError("epsilon ladder goes below the grid spacing")

    Nx, L, R, c, gre_w, Hr = _gre_grid(n0, spectral, H)
    gre_ref = _gre(gre_w, Hr, n0.atoms, spectral, H)
    gre_vals = []
    for e in eps:
        # the nodes j whose density the rung changes, as mollify changes them
        lo, added = _bump_sum(n0, e)
        j = lo + np.flatnonzero(added)
        jl, jr = j[j < n0.node_count - 1], j[j > 0] - 1  # the panels right and left of j
        ratio_l = _ratio(L[jl] + added[jl - lo], Nx[jl])
        ratio_r = _ratio(R[jr] + added[jr + 1 - lo], Nx[jr + 1])
        cells = np.concatenate([jl[jl < c], c + jr[jr < c]])
        rung = Hr.copy()
        rung[cells] = H.H(np.concatenate([ratio_l[jl < c], ratio_r[jr < c]]))
        gre_vals.append(_gre(gre_w, rung, (), spectral, H))  # a rung has no atoms
    gre_gaps = [abs(v - gre_ref) for v in gre_vals]

    decreased = bool(gre_gaps and gre_gaps[-1] <= gre_gaps[0] + 1e-12)
    below = bool(gre_gaps and gre_gaps[-1] <= _GRE_TOL)
    return MollificationReport(tuple(gre_vals), tuple(gre_gaps), gre_ref, decreased, below)


@dataclass(frozen=True)
class BirthIntegralReport:
    """Birth-integral series m_k and its convergence to m0."""

    m_values: tuple
    m0: float
    envelope_ok: bool
    final_deviation: float
    final_ok: bool

    @property
    def passed(self) -> bool:
        return self.envelope_ok and self.final_ok


def birth_integral_report(m0: float, m_k, d_phi) -> BirthIntegralReport:
    """Check that m_k = (integral B d snapshot)/N(0) settles at m0.

    ``m_k`` and ``d_phi`` are sweep columns at the same sample times, the
    first of them t = 0: the datum's distance ``d_phi[0]`` sets the threshold
    and the later samples are checked.  The deviation |m_k - m0|
    generically oscillates through zero while its envelope decays (the
    subdominant renewal roots are complex), so the check asserts that no
    deviation sets a new maximum (beyond ``_MK_SLACK``) once the equilibrium
    distance has dropped below a tenth of its initial value, and that the
    final deviation is at most ``_MK_FINAL_TOL``.  Deviations below
    ``_MK_FLOOR`` count as converged quadrature jitter.
    """
    mks, ds = np.asarray(m_k[1:], dtype=float), np.asarray(d_phi, dtype=float)
    start = 0
    if ds[0] > _FLOOR:
        below = np.flatnonzero(ds[1:] < 0.1 * ds[0])
        start = int(below[0]) if below.size else mks.size - 1
    devs = np.maximum(np.abs(mks - m0), _MK_FLOOR)[start:]
    envelope_ok = bool(np.all(devs[1:] <= np.maximum.accumulate(devs)[:-1] + _MK_SLACK))
    final_dev = float(abs(mks[-1] - m0)) if mks.size else 0.0
    return BirthIntegralReport(tuple(mks.tolist()), m0, envelope_ok, final_dev,
                               final_dev <= _MK_FINAL_TOL)
