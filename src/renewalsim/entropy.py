"""Convex integrands with recession values and the entropy diagnostics.

An admissible integrand is a convex H with at most linear growth; its
recession values at +/-1 say what H costs per unit of singular mass of
either sign.  The three diagnostics evaluated here are the weighted
relative-entropy functional of a measure against the stable profile, the
instantaneous dissipation (a measure-level Jensen gap driven by the birth
rate), and the plain Jensen defect for a caller-supplied weight.

The discrete Jensen quantities renormalize their quadrature weight vectors
to unit mass, so nonnegativity holds exactly (up to rounding) instead of up
to quadrature error; the shift this introduces is below the quadrature
tolerance everywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EntropyError
from .measures import HybridMeasure, _panel_sides
from .spectral import BirthLaw, SpectralData

__all__ = [
    "EntropyIntegrand",
    "recession",
    "make_integrand",
    "builtin_integrand",
    "abs_shift",
    "gre_functional",
    "dissipation_J",
    "jensen_defect",
    "verify_B_dominates_phi",
]


def recession(H, z: int) -> float:
    """Directional linear-growth limit of H at z in {-1, +1}.

    Evaluates H(s z)/s along s = 2^k, k = 10..40, and returns the value once
    successive iterates agree to 1e-9.
    """
    if z not in (-1, 1):
        raise EntropyError("recession direction must be +1 or -1")
    prev = None
    for k in range(10, 41):
        s = 2.0 ** k
        val = float(H(np.asarray(s * z, dtype=float))) / s
        if prev is not None and abs(val - prev) <= 1e-9:
            return val
        prev = val
    raise EntropyError("not admissible: recession limit did not converge")


@dataclass(frozen=True)
class EntropyIntegrand:
    """Convex integrand with its recession values on the unit sphere."""

    name: str
    H: Callable
    H_inf_plus: float
    H_inf_minus: float
    strictly_convex: bool = False

    def H_inf(self, sign: float) -> float:
        return self.H_inf_plus if sign > 0 else self.H_inf_minus


# Convexity probe: 1000 point pairs spread evenly over [-100, 100]^2 by the
# R2 sequence (rotations by the inverse powers of the plastic ratio, the
# two-dimensional analogue of golden-ratio rotation): fixed, and no RNG.
_R2 = np.array([0.7548776662466927, 0.5698402909980532])
_PROBE = 200.0 * (np.outer(np.arange(1, 1001), _R2) % 1.0) - 100.0


def make_integrand(name: str, H, strictly_convex: bool = False) -> EntropyIntegrand:
    """Validate convexity, linear growth and recession, then package H."""
    z1, z2 = _PROBE[:, 0], _PROBE[:, 1]
    mid = np.asarray(H(0.5 * (z1 + z2)), dtype=float)
    avg = 0.5 * (np.asarray(H(z1), dtype=float) + np.asarray(H(z2), dtype=float))
    if np.any(mid > avg + 1e-12 * np.maximum(1.0, np.abs(avg))):
        raise EntropyError(f"integrand {name!r} is not convex")
    zs = np.array([1.0, 1e2, 1e4, 1e6])
    for sgn in (1.0, -1.0):
        ratios = np.abs(np.asarray(H(sgn * zs), dtype=float)) / (1.0 + zs)
        if not np.all(np.isfinite(ratios)):
            raise EntropyError(f"integrand {name!r} has unbounded growth")
    hp = recession(H, 1)
    hm = recession(H, -1)
    return EntropyIntegrand(name, H, hp, hm, strictly_convex)


def abs_shift(k: float) -> EntropyIntegrand:
    """The integrand u -> |u - k|."""
    return make_integrand(f"abs_shift({k:g})", lambda u: np.abs(u - k))


_BUILTINS = {
    "abs": lambda: make_integrand("abs", np.abs),
    "sqrt1p": lambda: make_integrand(
        "sqrt1p", lambda u: np.sqrt(1.0 + np.square(u)), strictly_convex=True
    ),
    "pospart": lambda: make_integrand("pospart", lambda u: np.maximum(u, 0.0)),
    "id": lambda: make_integrand("id", lambda u: np.asarray(u, dtype=float)),
}


def builtin_integrand(name: str) -> EntropyIntegrand:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise EntropyError(f"unknown integrand {name!r}") from None


def _sample_points(mu: HybridMeasure):
    """Both ends of every panel, left ends first, each with weight h/2.

    The density values there are ``np.concatenate(_panel_sides(mu))``.
    """
    nodes = mu.nodes
    xs = np.concatenate([nodes[:-1], nodes[1:]])
    return xs, np.full(xs.size, mu.h / 2.0)


class _GridEntropy:
    """gre and dissipation of any measure on one grid.

    Built once per grid: N at ``_sample_points``, the gre weight ``w phi N``
    and, given a birth law, the unit-mass dissipation weight ``w B N / N(0)``.
    """

    def __init__(self, mu: HybridMeasure, spectral: SpectralData,
                 B: BirthLaw | None = None):
        if B is not None and spectral.residual_euler_lotka > 1e-8:
            raise EntropyError("reference measure is not normalized: eigen residual too big")
        self.spectral, self.B = spectral, B
        xs, w = _sample_points(mu)
        self.Nx = spectral.N(xs)
        self.gre_w = w * spectral.phi(xs) * self.Nx
        if B is not None:
            j_w = w * B.quad_values(xs) * self.Nx / spectral.lambda0  # N(0) = lambda0
            wsum = float(j_w.sum())
            if not wsum > 0.0:
                raise EntropyError("reference measure has no mass on this grid")
            self.j_w = j_w / wsum

    def ratio(self, sides: np.ndarray, cells=slice(None)) -> np.ndarray:
        """density/N at the panel sides ``sides[cells]``; raises where it overflows."""
        with np.errstate(all="ignore"):
            ratio = sides[cells] / self.Nx[cells]
        if not np.all(np.isfinite(ratio)) or np.any(np.abs(ratio) > 1e300):
            raise EntropyError("density/N overflows: domain too long for this rate")
        return ratio

    def gre(self, Hr: np.ndarray, phis, atoms, H: EntropyIntegrand) -> float:
        """gre from H(ratio) at every panel side and phi at the atoms."""
        total = float(np.sum(self.gre_w * Hr))
        for p, (_, wt) in zip(phis, atoms):
            total += p * H.H_inf(math.copysign(1.0, wt)) * abs(wt)
        return total

    def values(self, mu: HybridMeasure, integrands):
        """Lists of gre and (given a birth law) dissipation, one per integrand."""
        spectral, B = self.spectral, self.B
        ratio = self.ratio(np.concatenate(_panel_sides(mu)))
        phis = [spectral.phi(loc) for loc, _ in mu.atoms]
        if B is not None:
            psis = [float(B.quad_values(np.array([loc]))[0]) / spectral.lambda0
                    for loc, _ in mu.atoms]
        gre, dis = [], []
        for H in integrands:
            Hr = np.asarray(H.H(ratio), dtype=float)
            gre.append(self.gre(Hr, phis, mu.atoms, H))
            if B is not None:
                dis.append(_jensen_gap(self.j_w, ratio, Hr, psis, mu.atoms, H))
        return gre, dis


def _jensen_gap(weights, vals, Hvals, psis, atoms, H: EntropyIntegrand) -> float:
    """Jensen gap of H; ``weights`` has unit mass, ``psis`` weight the atoms."""
    arg = float(np.sum(weights * vals))
    term2 = 0.0
    for psi, (_, wt) in zip(psis, atoms):
        term2 += psi * H.H_inf(math.copysign(1.0, wt)) * abs(wt)
        arg += psi * wt
    return float(np.sum(weights * Hvals)) + term2 - float(H.H(np.asarray(arg, dtype=float)))


def gre_functional(mu: HybridMeasure, spectral: SpectralData,
                   H: EntropyIntegrand) -> float:
    """Weighted entropy of a measure relative to the stable profile.

    AC part: integral of phi N H(density / N); singular part: each atom
    contributes phi(loc) |weight| times the recession value of its sign.
    """
    return _GridEntropy(mu, spectral).values(mu, (H,))[0][0]


def dissipation_J(mu: HybridMeasure, B: BirthLaw, spectral: SpectralData,
                  H: EntropyIntegrand) -> float:
    """Instantaneous entropy dissipation of a measure state.

    Three terms: H(density/N) against the unit-mass reference B N / N(0) dx,
    the recession cost of the atoms weighted by B/N(0), minus H of the total
    birth integral B/N(0) against the measure.  Nonnegative for convex H.
    """
    return _GridEntropy(mu, spectral, B).values(mu, (H,))[1][0]


def jensen_defect(mu: HybridMeasure, psi, f: EntropyIntegrand) -> float:
    """Defect in the measure-level Jensen inequality for the weight psi.

    ``psi`` must integrate to one over the measure's domain (checked to
    1e-8).  Zero exactly iff the AC density is constant on the support of
    psi and no atoms sit there (for strictly convex f), and identically
    zero for linear f.
    """
    xs, w = _sample_points(mu)
    vals = np.concatenate(_panel_sides(mu))
    psix = np.asarray(psi(xs), dtype=float)
    if psix.min() < 0.0:
        raise EntropyError("jensen weight must be nonnegative")
    wsum = float(np.sum(w * psix))
    if abs(wsum - 1.0) > 1e-8:
        raise EntropyError("jensen weight is not normalized on this domain")
    psis = [float(np.asarray(psi(np.asarray([loc])), dtype=float)[0])
            for loc, _ in mu.atoms]
    return _jensen_gap(w * psix / wsum, vals, np.asarray(f.H(vals), dtype=float),
                       psis, mu.atoms, f)


def verify_B_dominates_phi(B: BirthLaw, spectral: SpectralData,
                           x_max: float | None = None, n: int = 4001):
    """Largest C with B >= C phi on the sampling grid, and whether C > 0.

    The minimum runs over nodes where phi exceeds 1e-14; the grid covers
    the birth-law support (or a 40/lambda window for infinite support).
    """
    if x_max is None:
        x_max = B.support_end if B.support_end is not None else 40.0 / spectral.lambda0
    xs = np.linspace(0.0, x_max, n)
    phix = np.asarray(spectral.phi(xs), dtype=float)
    bx = np.asarray(B(xs), dtype=float)
    mask = phix > 1e-14
    if not mask.any():
        return True, math.inf
    c = float(np.min(bx[mask] / phix[mask]))
    return c > 0.0, max(c, 0.0)
