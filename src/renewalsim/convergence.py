"""Long-time diagnostics: distance to equilibrium, decay fits, mollification.

The central quantity is the weighted variation distance between a snapshot
and its equilibrium projection ``m0 N dx``, where m0 is the conserved
dual-weighted mass of the initial datum.  ``sample_diagnostics`` computes
it together with every other per-sample quantity (birth integral, dual
mass, entropy, dissipation) in one pass over the snapshots.  A log-linear
fit of that distance estimates the empirical decay rate; the mollification
harness checks that smoothing the initial datum moves the entropy
functional, the area functional and the flat distance coherently to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RenewalError
from .measures import (
    HybridMeasure,
    flat_distance,
    integrate,
    linear_combination,
    mollify,
    weighted_variation,
)
from .entropy import EntropyIntegrand, _GridEntropy, gre_functional
from .spectral import SpectralData, stationary_measure
from .transport import Trajectory, evolve, tail_phi_mass

__all__ = [
    "DecayFit",
    "sample_diagnostics",
    "distance_to_equilibrium",
    "fit_decay_rate",
    "MollificationReport",
    "reshetnyak_harness",
    "BirthIntegralReport",
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


def sample_diagnostics(traj: Trajectory, times, integrands=(), etas=None) -> dict:
    """Every per-sample diagnostic of a trajectory in one pass over ``times``.

    Returns ``m0``, the dual mass of the datum, and one array per column:
    ``D_<name>`` for each ``name: weight`` in ``etas`` (default
    ``{"phi": phi}``, None is the unit weight), the weighted variation of
    the snapshot minus ``m0 N dx``; ``m_k``, the birth integral over N(0);
    ``conserved_phi_mass``, the dual mass plus the leak past x_max; and
    ``gre_<H>``, ``J_<H>`` per integrand.  Each snapshot is built once, the
    equilibrium and entropy weights once per snapshot grid; every value is
    bit-identical to the one-measure function applied to ``evolve(traj, t)``.
    """
    spectral, B = traj.spectral, traj.birth_law
    if etas is None:
        etas = {"phi": spectral.phi}
    m0 = integrate(traj.initial, spectral.phi)
    n_zero = spectral.N(0.0)
    names = [f"D_{name}" for name in etas] + ["m_k", "conserved_phi_mass"]
    names += [f"{kind}_{H.name}" for kind in ("gre", "J") for H in integrands]
    out = {name: np.empty(len(times)) for name in names}
    grids = {}
    for i, t in enumerate(times):
        snap = evolve(traj, t)
        # every snapshot spans [0, x_max], so the spacing fixes the grid
        if snap.h not in grids:
            grids[snap.h] = (stationary_measure(spectral, snap.x_max, snap.h, mass=m0),
                             _GridEntropy(snap, spectral, B) if integrands else None)
        eq, entropy = grids[snap.h]
        if etas:
            diff = linear_combination(1.0, snap, -1.0, eq)
            for name, eta in etas.items():
                out[f"D_{name}"][i] = weighted_variation(diff, eta, (t,))
        out["m_k"][i] = integrate(snap, B.quad_values) / n_zero
        out["conserved_phi_mass"][i] = integrate(snap, spectral.phi) + tail_phi_mass(traj, t)
        if integrands:
            for H, g, j in zip(integrands, *entropy.values(snap, integrands)):
                out[f"gre_{H.name}"][i] = g
                out[f"J_{H.name}"][i] = j
    out["m0"] = m0
    return out


def distance_to_equilibrium(traj: Trajectory, t: float, eta=None) -> float:
    """Weighted variation distance (``eta`` defaults to phi) at t from m0 N dx."""
    eta = traj.spectral.phi if eta is None else eta
    return float(sample_diagnostics(traj, (t,), etas={"eta": eta})["D_eta"][0])


def fit_decay_rate(samples, eta_name: str = "", m0: float = math.nan) -> DecayFit:
    """Least squares through (t, log D): slope gives the rate estimate.

    Samples at or below the floating floor are discarded; at least five
    usable points are required.
    """
    usable = [(float(t), float(d)) for t, d in samples if d > _FLOOR]
    if len(usable) < 5:
        raise RenewalError("need at least 5 usable samples to fit a decay rate")
    ts = np.array([t for t, _ in usable])
    if np.any(np.diff(ts) <= 0.0):
        raise RenewalError("decay samples must have strictly increasing times")
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
    """
    eps = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps[:-1], eps[1:])):
        raise RenewalError("epsilon ladder must be strictly decreasing")
    if eps and eps[-1] < n0.h:
        raise RenewalError("epsilon ladder goes below the grid spacing")

    from .measures import angle_bracket  # local import keeps module deps one-way

    gre_ref = gre_functional(n0, spectral, H)
    ab_ref = angle_bracket(n0)
    gre_vals, gre_gaps, ab_vals, ab_gaps, flats = [], [], [], [], []
    for e in eps:
        smoothed = mollify(n0, e)
        gv = gre_functional(smoothed, spectral, H)
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


def mk_sequence_check(traj: Trajectory, times, slack: float = 1e-7, floor: float = 1e-6,
                      final_tol: float = 1e-4) -> BirthIntegralReport:
    """Check that m_k = (integral B d snapshot)/N(0) settles at m0.

    The deviation |m_k - m0| generically oscillates through zero while its
    envelope decays (the subdominant renewal roots are complex), so the
    check asserts that no deviation sets a new maximum (beyond ``slack``)
    once the equilibrium distance has dropped below a tenth of its initial
    value, and that the final deviation is at most ``final_tol``.
    Deviations below ``floor`` count as converged quadrature jitter.
    """
    times = [float(t) for t in times]
    if any(b <= a for a, b in zip(times[:-1], times[1:])):
        raise RenewalError("check times must be strictly increasing")
    diag = sample_diagnostics(traj, [0.0, *times])
    m0, mks, ds = diag["m0"], diag["m_k"][1:], diag["D_phi"]
    start = 0
    if ds[0] > _FLOOR:
        below = np.flatnonzero(ds[1:] < 0.1 * ds[0])
        start = int(below[0]) if below.size else len(times) - 1
    devs = np.maximum(np.abs(mks - m0), floor)[start:]
    envelope_ok = bool(np.all(devs[1:] <= np.maximum.accumulate(devs)[:-1] + slack))
    final_dev = float(abs(mks[-1] - m0)) if mks.size else 0.0
    return BirthIntegralReport(
        tuple(times), tuple(mks.tolist()), m0, start, envelope_ok, final_dev,
        final_dev <= final_tol,
    )
