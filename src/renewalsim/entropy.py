"""Convex integrands with recession values and the entropy diagnostics.

An admissible integrand is a convex H with at most linear growth; its
recession values at +/-1 say what H costs per unit of singular mass of
either sign.  The two diagnostics evaluated here on a single measure are
the weighted relative-entropy functional of a measure against the stable
profile and the measure-level Jensen defect for a caller-supplied weight.
The dissipation (the Jensen gap driven by the birth rate) exists only as
the per-sample column of ``convergence.sample_diagnostics``.

Each is a trapezoid sum over both ends of every panel; phi and N are
evaluated once per grid node and copied to the panel ends.

The Jensen defect renormalizes its quadrature weight vector to unit mass,
so nonnegativity holds exactly (up to rounding) instead of up to
quadrature error; the shift this introduces is below the quadrature
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

    def H_inf(self, sign: float) -> float:
        return self.H_inf_plus if sign > 0 else self.H_inf_minus


# Convexity probe: 1000 point pairs spread evenly over [-100, 100]^2 by the
# R2 sequence (rotations by the inverse powers of the plastic ratio, the
# two-dimensional analogue of golden-ratio rotation): fixed, and no RNG.
_R2 = np.array([0.7548776662466927, 0.5698402909980532])
_PROBE = 200.0 * (np.outer(np.arange(1, 1001), _R2) % 1.0) - 100.0
_DOMINANCE_NODES = 4001  # sampling grid of verify_B_dominates_phi


def make_integrand(name: str, H) -> EntropyIntegrand:
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
    return EntropyIntegrand(name, H, hp, hm)


def abs_shift(k: float) -> EntropyIntegrand:
    """The integrand u -> |u - k|."""
    return make_integrand(f"abs_shift({k:g})", lambda u: np.abs(u - k))


_BUILTINS = {
    "abs": lambda: make_integrand("abs", np.abs),
    "sqrt1p": lambda: make_integrand("sqrt1p", lambda u: np.sqrt(1.0 + np.square(u))),
    "pospart": lambda: make_integrand("pospart", lambda u: np.maximum(u, 0.0)),
    "id": lambda: make_integrand("id", lambda u: np.asarray(u, dtype=float)),
}


def builtin_integrand(name: str) -> EntropyIntegrand:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise EntropyError(f"unknown integrand {name!r}") from None


def _sides(v: np.ndarray) -> np.ndarray:
    """Node values at both ends of every panel, in ``_panel_sides`` order."""
    return np.concatenate([v[:-1], v[1:]])


def _entropy_grid(mu: HybridMeasure, spectral: SpectralData):
    """N and the gre weight ``(h/2 phi) N`` at the panel sides of ``mu``'s grid."""
    x = mu.nodes
    Nx = spectral.N(x)
    return _sides(Nx), _sides(mu.h / 2.0 * spectral.phi(x) * Nx)


def _ratio(dens: np.ndarray, Nx: np.ndarray) -> np.ndarray:
    """density/N side by side; raises where it overflows."""
    with np.errstate(all="ignore"):
        ratio = dens / Nx
    if not np.all(np.isfinite(ratio)) or np.any(np.abs(ratio) > 1e300):
        raise EntropyError("density/N overflows: domain too long for this rate")
    return ratio


def _gre(gre_w, Hr, atoms, spectral: SpectralData, H: EntropyIntegrand) -> float:
    """gre from H(density/N) at every panel side and the recession cost of the atoms."""
    total = float(np.sum(gre_w * Hr))
    for loc, wt in atoms:
        total += spectral.phi(loc) * H.H_inf(math.copysign(1.0, wt)) * abs(wt)
    return total


def gre_functional(mu: HybridMeasure, spectral: SpectralData,
                   H: EntropyIntegrand) -> float:
    """Weighted entropy of a measure relative to the stable profile.

    AC part: integral of phi N H(density / N); singular part: each atom
    contributes phi(loc) |weight| times the recession value of its sign.
    """
    Nx, gre_w = _entropy_grid(mu, spectral)
    ratio = _ratio(np.concatenate(_panel_sides(mu)), Nx)
    return _gre(gre_w, np.asarray(H.H(ratio), dtype=float), mu.atoms, spectral, H)


def jensen_defect(mu: HybridMeasure, psi, f: EntropyIntegrand) -> float:
    """Defect in the measure-level Jensen inequality for the weight psi.

    ``psi`` must integrate to one over the measure's domain (checked to
    1e-8).  Zero exactly iff the AC density is constant on the support of
    psi and no atoms sit there (for strictly convex f), and identically
    zero for linear f.
    """
    vals = np.concatenate(_panel_sides(mu))
    psix = _sides(np.asarray(psi(mu.nodes), dtype=float))
    if psix.min() < 0.0:
        raise EntropyError("jensen weight must be nonnegative")
    w_psi = mu.h / 2.0 * psix
    wsum = float(np.sum(w_psi))
    if abs(wsum - 1.0) > 1e-8:
        raise EntropyError("jensen weight is not normalized on this domain")
    weights = w_psi / wsum
    arg = float(np.sum(weights * vals))
    term2 = 0.0
    for loc, wt in mu.atoms:
        pl = float(np.asarray(psi(np.asarray([loc])), dtype=float)[0])
        term2 += pl * f.H_inf(math.copysign(1.0, wt)) * abs(wt)
        arg += pl * wt
    Hvals = np.asarray(f.H(vals), dtype=float)
    return float(np.sum(weights * Hvals)) + term2 - float(f.H(np.asarray(arg, dtype=float)))


def verify_B_dominates_phi(B: BirthLaw, spectral: SpectralData):
    """Largest C with B >= C phi on the sampling grid, and whether C > 0.

    The minimum runs over the ``_DOMINANCE_NODES`` grid nodes where phi
    exceeds 1e-14; the grid covers the birth-law support (or a 40/lambda
    window for infinite support).
    """
    x_max = B.support_end if B.support_end is not None else 40.0 / spectral.lambda0
    xs = np.linspace(0.0, x_max, _DOMINANCE_NODES)
    phix = np.asarray(spectral.phi(xs), dtype=float)
    bx = np.asarray(B(xs), dtype=float)
    mask = phix > 1e-14
    if not mask.any():
        return True, math.inf
    c = float(np.min(bx[mask] / phix[mask]))
    return c > 0.0, max(c, 0.0)
