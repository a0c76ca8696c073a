"""Long-time diagnostics: distance to equilibrium, decay fits, mollification.

The central quantity is the weighted variation distance between a snapshot
and its equilibrium projection ``m0 N dx``, where m0 is the conserved
dual-weighted mass of the initial datum.  ``sample_diagnostics`` computes
it together with every other per-sample quantity (birth integral, dual
mass, entropy, dissipation) in one pass over the sample times, as weighted
window sums of the time-invariant ratio labels of the transport module.
A log-linear fit of that distance estimates the empirical decay rate; the
mollification harness checks that smoothing the initial datum moves the
entropy functional, the area functional and the flat distance coherently
to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EntropyError, MeasureError, RenewalError
from .measures import (
    HybridMeasure,
    _evaluate,
    angle_bracket,
    flat_distance,
    integrate,
    mollify,
)
from .entropy import EntropyIntegrand, _GridEntropy
from .spectral import SpectralData
from .transport import (
    Trajectory,
    characteristic_labels,
    evolve,
    snapshot_atoms,
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
    "mk_sequence_check",
]

_FLOOR = 1e-13  # distances below this are floating noise, not signal


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit D(t) ~ exp(-sigma (t - y0)) of a distance series."""

    eta_name: str
    samples: tuple
    sigma_hat: float
    y0_hat: float
    r_squared: float
    m0: float


class _LabelTable:
    """Row functions of one stride's labels, summed over both panel sides.

    ``fsum[p, r]`` is ``f_r(left[p]) + f_r(right[p])``, so a snapshot's node
    sums are one window of rows; ``bad`` counts the labels that overflow up
    to each position.  The cells where ``ratio - m0`` changes sign
    (``cross``, by their left position), and the point in each where it
    crosses zero, do not depend on the sample time (N(x + g) / N(x) =
    exp(-lambda0 g) everywhere), so the exact split of ``weighted_variation``
    is a fixed correction per cell: it removes ``cross_left`` and
    ``cross_right``, times the node weights, from the cell's two ends.
    """

    def __init__(self, lab, fns, m0: float, lam: float):
        self.lab = lab
        L, R = lab.left, lab.right
        self.fsum = np.empty((L.size, len(fns)))
        with np.errstate(all="ignore"):
            for r, f in enumerate(fns):
                self.fsum[:, r] = np.asarray(f(L), dtype=float) + np.asarray(f(R), dtype=float)
            ok = np.isfinite(L) & np.isfinite(R) & (np.abs(L) <= 1e300) & (np.abs(R) <= 1e300)
            a, b = L[:-1] - m0, R[1:] - m0
            self.cross = np.flatnonzero(a * b < 0.0)
        self.bad = np.concatenate([[0], np.cumsum(~ok)])
        a, b = a[self.cross], b[self.cross]
        theta = a / (a - math.exp(-lam * lab.spacing) * b)  # zero offset / spacing
        self.cross_left = (1.0 - theta) * np.abs(a)
        self.cross_right = theta * np.abs(b)


def _node_weights(spectral, B, etas, n: int, spacing: float, entropy: bool):
    """Node weights of one snapshot grid, one column per weighted sum.

    Columns: ``w phi N`` (dual mass, gre), ``w B N / N(0)`` (birth integral,
    dissipation) and ``w eta N`` per eta (distances), with w = spacing / 2
    the weight of each panel end.  Also the unit-mass normalizer of the
    dissipation weight over both panel sides.
    """
    if entropy and spectral.residual_euler_lotka > 1e-8:
        raise EntropyError("reference measure is not normalized: eigen residual too big")
    x = np.arange(n) * spacing
    Nx = spectral.N(x)
    if entropy and not Nx.min() > 0.0:
        raise EntropyError("density/N overflows: domain too long for this rate")
    wN = 0.5 * spacing * Nx
    W = np.empty((n, 2 + len(etas)))
    W[:, 0] = wN * spectral.phi(x)
    W[:, 1] = wN * B.quad_values(x) / spectral.lambda0  # N(0) = lambda0
    for e, eta in enumerate(etas.values()):
        wn = 1.0
        if eta is not None:
            wn = _evaluate(eta, x)
            if wn.min() < -1e-12:
                raise MeasureError("variation weight must be nonnegative")
        W[:, 2 + e] = wN * wn
    wsum = 2.0 * float(W[:, 1].sum()) - W[0, 1] - W[-1, 1]
    if entropy and not wsum > 0.0:
        raise EntropyError("reference measure has no mass on this grid")
    return W, wsum


def sample_diagnostics(traj: Trajectory, times, integrands=(), etas=None) -> dict:
    """Every per-sample diagnostic of a trajectory in one pass over ``times``.

    Returns ``m0``, the dual mass of the datum, and one array per column:
    ``D_<name>`` for each ``name: weight`` in ``etas`` (default
    ``{"phi": phi}``, None is the unit weight), the weighted variation of
    the snapshot minus ``m0 N dx``; ``m_k``, the birth integral over N(0);
    ``conserved_phi_mass``, the dual mass plus the leak past x_max; and
    ``gre_<H>``, ``J_<H>`` per integrand.

    No snapshot is built.  Every column is a weighted sum of the ratio
    density/N, which is constant along characteristics: per grid stride the
    ratio of every snapshot is one window of the time-invariant label
    arrays of ``characteristic_labels``, and each H is applied once to
    them.  Per grid spacing the node weights ``w phi N``, ``w B N / N(0)``
    and ``w eta N`` are built once, so a sample costs one product of a
    window view with the weights, plus closed-form terms for the atoms,
    the window ends, the sign-change cells of ``D_<name>`` and the leak.
    The values agree with the one-measure functionals applied to
    ``evolve(traj, t)`` to rounding (the sums are taken in another order).
    A sample raises where ``evolve`` or those functionals would; where
    density/N overflows this is an ``EntropyError`` even without
    integrands, because every column is a sum over density/N.
    """
    spectral, B = traj.spectral, traj.birth_law
    lam = spectral.lambda0
    if etas is None:
        etas = {"phi": spectral.phi}
    m0 = integrate(traj.initial, spectral.phi)
    # row functions of the ratio; the columns are the node weights
    fns = [lambda r: r] + [H.H for H in integrands]
    if etas:
        fns.append(lambda r: np.abs(r - m0))
    S = len(times)
    n_max = traj._grid_ints()[1]
    sums = np.empty((S, len(fns), 2 + len(etas)))
    wsums = np.empty(S)
    ks = []
    tables, grids, members = {}, {}, {}
    for i, t in enumerate(times):
        k, d = snapshot_index(traj, t)
        ks.append(k)
        spacing = traj.initial.h if k == 0 else d * traj.dt  # sample 0 is the datum
        if spacing not in grids:
            if d not in tables:
                tables[d] = _LabelTable(characteristic_labels(traj, d), fns, m0, lam)
            grids[spacing] = (tables[d], *_node_weights(
                spectral, B, etas, n_max // d + 1, spacing, bool(integrands)))
        tab, W, wsums[i] = grids[spacing]
        off, n = tab.lab.offset(k), W.shape[0]
        if tab.bad[off + n] > tab.bad[off]:
            raise EntropyError("density/N overflows: domain too long for this rate")
        if k in tab.lab.clipped:
            evolve(traj, t)  # its negativity guard decides whether this snapshot exists
        z = tab.fsum[off:off + n].T @ W
        if etas:
            a, b = tab.cross.searchsorted((off, off + n - 1))
            if a < b:
                j = tab.cross[a:b] - off
                z[-1, 2:] -= tab.cross_left[a:b] @ W[j, 2:] + tab.cross_right[a:b] @ W[j + 1, 2:]
        sums[i] = z
        members.setdefault(spacing, []).append((i, off, k))

    # Node 0 has no panel to its left and node n-1 none to its right.  The
    # trapezoid sums (dual mass, birth integral) take the node value there
    # instead of the one-sided one: the mean of a jump record, and at
    # sample 0 the datum's own stored value.
    trapezoid_ends = np.zeros((S, 2 + len(etas)))
    for spacing, group in members.items():
        tab, W, _ = grids[spacing]
        lab = tab.lab
        idx, offs, ks_g = (np.array(v, dtype=int) for v in zip(*group))
        ends = offs + W.shape[0] - 1
        with np.errstate(all="ignore"):
            first = np.stack([np.asarray(f(lab.right[offs]), dtype=float) for f in fns], 1)
            last = np.stack([np.asarray(f(lab.left[ends]), dtype=float) for f in fns], 1)
        sums[idx] -= first[:, :, None] * W[0] + last[:, :, None] * W[-1]
        node0 = np.where(ks_g == 0, traj.initial.density[0] / lam - lab.left[offs], 0.0)
        node_end = 0.5 * (lab.left[ends] - lab.right[ends])
        trapezoid_ends[idx] = node0[:, None] * W[0] + node_end[:, None] * W[-1]

    atoms = [(i, loc, wt) for i, k in enumerate(ks) for loc, wt in snapshot_atoms(traj, k)]
    rows = np.array([i for i, _, _ in atoms], dtype=int)
    locs = np.array([loc for _, loc, _ in atoms], dtype=float)
    wts = np.array([wt for _, _, wt in atoms], dtype=float)

    def per_sample(values):
        return np.bincount(rows, weights=values, minlength=S)

    phis, psis = spectral.phi(locs), B.quad_values(locs) / lam
    out = {}
    for e, (name, eta) in enumerate(etas.items()):
        etax = 1.0 if eta is None or not atoms else _evaluate(eta, locs)
        out[f"D_{name}"] = sums[:, -1, 2 + e] + per_sample(etax * np.abs(wts))
    out["m_k"] = sums[:, 0, 1] + trapezoid_ends[:, 1] + per_sample(psis * wts)
    out["conserved_phi_mass"] = (sums[:, 0, 0] + trapezoid_ends[:, 0] + per_sample(phis * wts)
                                 + tail_phi_mass(traj, np.asarray(times, dtype=float)))
    arg = sums[:, 0, 1] / wsums + per_sample(psis * wts)
    for r, H in enumerate(integrands, start=1):
        cost = np.where(wts > 0.0, H.H_inf_plus, H.H_inf_minus) * np.abs(wts)
        out[f"gre_{H.name}"] = sums[:, r, 0] + per_sample(phis * cost)
        out[f"J_{H.name}"] = (sums[:, r, 1] / wsums + per_sample(psis * cost)
                              - np.asarray(H.H(arg), dtype=float))
    out["m0"] = m0
    return out


def distance_to_equilibrium(traj: Trajectory, t: float, eta=None) -> float:
    """Weighted variation distance (``eta`` defaults to phi) at t from m0 N dx."""
    eta = traj.spectral.phi if eta is None else eta
    return float(sample_diagnostics(traj, (t,), etas={"eta": eta})["D_eta"][0])


def fit_decay_rate(samples, eta_name: str = "", m0: float = math.nan) -> DecayFit:
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
    slope, intercept = np.polyfit(ts, logd, 1)
    sigma = -float(slope)
    y0 = float(intercept) / sigma if abs(sigma) > 1e-300 else math.nan
    fitted = slope * ts + intercept
    ss_res = float(np.sum((logd - fitted) ** 2))
    ss_tot = float(np.sum((logd - logd.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else (1.0 if ss_res < 1e-20 else 0.0)
    return DecayFit(eta_name, tuple(usable), sigma, y0, r2, m0)


@dataclass(frozen=True)
class MollificationReport:
    """Per-epsilon table of functional gaps for a mollified datum."""

    eps: tuple
    gre_values: tuple
    gre_gaps: tuple
    angle_values: tuple
    angle_gaps: tuple
    flat_distances: tuple
    gre_reference: float
    angle_reference: float
    functional_tol: float
    gap_decreased: bool
    final_below_tol: bool

    @property
    def passed(self) -> bool:
        return self.gap_decreased and self.final_below_tol


def reshetnyak_harness(n0: HybridMeasure, spectral: SpectralData,
                       H: EntropyIntegrand, eps_list,
                       functional_tol: float = 1e-2) -> MollificationReport:
    """Mollify the datum along a decreasing epsilon ladder and tabulate gaps.

    For each epsilon: the entropy functional of the mollified datum, its gap
    to the unmollified value, the same for the area functional, and the flat
    distance to the original.  Passing means the final entropy gap is no
    larger than the first and below ``functional_tol``.

    Every rung lies on the datum's grid, so phi and N are evaluated there
    once for the whole ladder.  A rung changes the datum only within eps of
    its atoms: mollifying costs O(eps / h) per atom, and the flat distance
    subtracts the two measures node by node, so its support is the changed
    nodes and the atoms.
    """
    eps = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps[:-1], eps[1:])):
        raise RenewalError("epsilon ladder must be strictly decreasing")
    if eps and eps[-1] < n0.h:
        raise RenewalError("epsilon ladder goes below the grid spacing")

    grid = _GridEntropy(n0, spectral)
    gre_ref = grid.values(n0, (H,))[0][0]
    ab_ref = angle_bracket(n0)
    gre_vals, gre_gaps, ab_vals, ab_gaps, flats = [], [], [], [], []
    for e in eps:
        smoothed = mollify(n0, e)
        gv = grid.values(smoothed, (H,))[0][0]
        av = angle_bracket(smoothed)
        gre_vals.append(gv)
        gre_gaps.append(abs(gv - gre_ref))
        ab_vals.append(av)
        ab_gaps.append(abs(av - ab_ref))
        flats.append(flat_distance(smoothed, n0))

    decreased = bool(gre_gaps and gre_gaps[-1] <= gre_gaps[0] + 1e-12)
    below = bool(gre_gaps and gre_gaps[-1] <= functional_tol)
    return MollificationReport(
        tuple(eps), tuple(gre_vals), tuple(gre_gaps), tuple(ab_vals),
        tuple(ab_gaps), tuple(flats), gre_ref, ab_ref, functional_tol,
        decreased, below,
    )


@dataclass(frozen=True)
class BirthIntegralReport:
    """Birth-integral series m_k and its convergence to m0."""

    times: tuple
    m_values: tuple
    m0: float
    start_index: int
    envelope_ok: bool
    final_deviation: float
    final_ok: bool

    @property
    def passed(self) -> bool:
        return self.envelope_ok and self.final_ok


def birth_integral_report(times, m0: float, m_k, d_phi, slack: float = 1e-7,
                          floor: float = 1e-6, final_tol: float = 1e-4) -> BirthIntegralReport:
    """Check that m_k = (integral B d snapshot)/N(0) settles at m0.

    ``m_k`` and ``d_phi`` are sweep columns sampled at ``times``, and
    ``times[0]`` is 0: the datum's distance ``d_phi[0]`` sets the threshold
    and the later samples are checked.  The deviation |m_k - m0|
    generically oscillates through zero while its envelope decays (the
    subdominant renewal roots are complex), so the check asserts that no
    deviation sets a new maximum (beyond ``slack``) once the equilibrium
    distance has dropped below a tenth of its initial value, and that the
    final deviation is at most ``final_tol``.  Deviations below ``floor``
    count as converged quadrature jitter.
    """
    times = tuple(float(t) for t in times[1:])
    mks, ds = np.asarray(m_k[1:], dtype=float), np.asarray(d_phi, dtype=float)
    start = 0
    if ds[0] > _FLOOR:
        below = np.flatnonzero(ds[1:] < 0.1 * ds[0])
        start = int(below[0]) if below.size else len(times) - 1
    devs = np.maximum(np.abs(mks - m0), floor)[start:]
    envelope_ok = bool(np.all(devs[1:] <= np.maximum.accumulate(devs)[:-1] + slack))
    final_dev = float(abs(mks[-1] - m0)) if mks.size else 0.0
    return BirthIntegralReport(
        times, tuple(mks.tolist()), m0, start, envelope_ok, final_dev,
        final_dev <= final_tol,
    )


def mk_sequence_check(traj: Trajectory, times, slack: float = 1e-7, floor: float = 1e-6,
                      final_tol: float = 1e-4) -> BirthIntegralReport:
    """``birth_integral_report`` on one sweep over t = 0 and ``times``."""
    times = [0.0, *(float(t) for t in times)]
    if any(b <= a for a, b in zip(times[1:-1], times[2:])):
        raise RenewalError("check times must be strictly increasing")
    diag = sample_diagnostics(traj, times)
    return birth_integral_report(times, diag["m0"], diag["m_k"], diag["D_phi"],
                                 slack, floor, final_tol)
