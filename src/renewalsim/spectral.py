"""Eigenstructure of the age-renewal model.

Solves the growth-rate equation ``integral B(x) exp(-lam x) dx = 1`` for the
Malthusian parameter, builds the stable age profile ``N(x) = lam exp(-lam x)``
and the dual weight ``phi`` with the normalization ``integral N phi dx = 1``.

Three birth-law families are supported.  ``constant`` and ``indicator`` laws
use closed forms throughout (the infinite tail of a constant law is handled
analytically, never by quadrature); ``table`` laws are piecewise linear with
finite support and use exact per-panel exponential integrals.  The birth
forcing of both finite-support families is one exact panel-moment formula.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SpectralError
from .measures import HybridMeasure, ac_cumulative, ac_first_moment
from .quadrature import composite_simpson

__all__ = [
    "BirthLaw",
    "SpectralData",
    "solve_lambda0",
    "eigen_N",
    "eigen_phi",
    "solve_spectral",
    "stationary_measure",
]

_SNAP = 1e-9


def _poly_exp_antideriv(lam, base, c0, c1, c2, y):
    """Antiderivative of (c0 + c1 y + c2 y^2) exp(-lam (y - base)) at y."""
    p = c0 + y * (c1 + y * c2)
    dp = c1 + 2.0 * c2 * y
    return -np.exp(-lam * (y - base)) * (p / lam + dp / lam ** 2 + 2.0 * c2 / lam ** 3)


def _poly_exp_int(lam, base, c0, c1, c2, p, q):
    return _poly_exp_antideriv(lam, base, c0, c1, c2, q) - _poly_exp_antideriv(
        lam, base, c0, c1, c2, p
    )


@dataclass(frozen=True)
class BirthLaw:
    """Nonnegative bounded birth rate with quadrature metadata.

    Attributes
    ----------
    kind:
        ``"constant"``, ``"indicator"`` or ``"table"``.
    sup_bound:
        Essential supremum of the rate.
    support_end:
        Smallest x beyond which the rate vanishes; ``None`` means infinite
        support (constant laws only).
    quadrature_panels:
        Panel budget for the Simpson checks run against this law.
    """

    kind: str
    sup_bound: float
    support_end: float | None
    quadrature_panels: int = 2000
    beta: float = 0.0
    lo: float = 0.0
    hi: float = 0.0
    xs: tuple = ()
    vals: tuple = ()

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, beta: float, quadrature_panels: int = 2000) -> "BirthLaw":
        if not (beta > 0.0 and math.isfinite(beta)):
            raise SpectralError("constant birth rate must be positive and finite")
        return cls("constant", beta, None, quadrature_panels, beta=beta)

    @classmethod
    def indicator(cls, beta: float, lo: float, hi: float,
                  quadrature_panels: int = 2000) -> "BirthLaw":
        if not (0.0 <= lo < hi and math.isfinite(hi)):
            raise SpectralError("indicator support must satisfy 0 <= lo < hi")
        if not (beta > 0.0 and math.isfinite(beta)):
            raise SpectralError("indicator birth rate must be positive and finite")
        if beta * (hi - lo) <= 1.0 + 1e-8:
            raise SpectralError("net reproduction below one")
        return cls("indicator", beta, hi, quadrature_panels, beta=beta, lo=lo, hi=hi)

    @classmethod
    def table(cls, xs, vals, quadrature_panels: int = 2000) -> "BirthLaw":
        xs = tuple(float(x) for x in xs)
        vals = tuple(float(v) for v in vals)
        if len(xs) < 2 or len(xs) != len(vals):
            raise SpectralError("table law needs matching x and value lists")
        if xs[0] != 0.0 or any(b <= a for a, b in zip(xs[:-1], xs[1:])):
            raise SpectralError("table nodes must start at 0 and increase")
        if min(vals) < 0.0:
            raise SpectralError("birth rate must be nonnegative")
        law = cls("table", max(vals), xs[-1], quadrature_panels, xs=xs, vals=vals)
        if law.total_integral() <= 1.0 + 1e-8:
            raise SpectralError("net reproduction below one")
        return law

    # -- pointwise and quadrature sampling -------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.where(x >= 0.0, self.beta, 0.0)
        if self.kind == "indicator":
            return np.where((x >= self.lo) & (x <= self.hi), self.beta, 0.0)
        xs = np.array(self.xs)
        vals = np.array(self.vals)
        out = np.interp(x, xs, vals, left=0.0, right=0.0)
        return np.where((x >= 0.0) & (x <= self.support_end), out, 0.0)

    def jump_points(self) -> tuple:
        """Interior discontinuities (with one-sided values) of the rate."""
        if self.kind == "constant":
            return ()
        if self.kind == "indicator":
            pts = []
            if self.lo > 0.0:
                pts.append((self.lo, 0.0, self.beta))
            pts.append((self.hi, self.beta, 0.0))
            return tuple(pts)
        if self.vals[-1] != 0.0:
            return ((self.xs[-1], self.vals[-1], 0.0),)
        return ()

    def quad_values(self, x):
        """Samples for trapezoid quadrature: jump points take the mean value."""
        x = np.asarray(x, dtype=float)
        out = np.asarray(self(x), dtype=float).copy()
        for p, vl, vr in self.jump_points():
            out[np.abs(x - p) <= _SNAP * max(1.0, p)] = 0.5 * (vl + vr)
        return out

    # -- exact integrals --------------------------------------------------

    def total_integral(self) -> float:
        """Integral of the rate over its whole support (inf for constant)."""
        if self.kind == "constant":
            return math.inf
        if self.kind == "indicator":
            return self.beta * (self.hi - self.lo)
        xs, vals = np.array(self.xs), np.array(self.vals)
        return float(np.trapezoid(vals, xs))

    def integral_to(self, x: float) -> float:
        """Integral of the rate over [0, x]."""
        if self.kind == "constant":
            return self.beta * max(x, 0.0)
        if self.kind == "indicator":
            return self.beta * max(0.0, min(x, self.hi) - self.lo)
        xs, vals = np.array(self.xs), np.array(self.vals)
        x = min(max(x, 0.0), self.support_end)
        grid = np.concatenate([xs[xs < x], [x]])
        return float(np.trapezoid(np.interp(grid, xs, vals), grid))

    def laplace(self, lam: float) -> float:
        """Integral of B(x) exp(-lam x) over [0, inf)."""
        if lam <= 0.0:
            total = self.total_integral()
            if lam == 0.0:
                return total
            raise SpectralError("transform argument must be nonnegative")
        if self.kind == "constant":
            return self.beta / lam
        if self.kind == "indicator":
            return self.beta * (math.exp(-lam * self.lo) - math.exp(-lam * self.hi)) / lam
        total = 0.0
        for (p, q), (vp, vq) in self._panels():
            d = (vq - vp) / (q - p)
            total += _poly_exp_int(lam, 0.0, vp - d * p, d, 0.0, p, q)
        return float(total)

    def laplace_moment(self, lam: float) -> float:
        """Integral of x B(x) exp(-lam x) over [0, inf)."""
        if lam <= 0.0:
            raise SpectralError("transform argument must be positive")
        if self.kind == "constant":
            return self.beta / lam ** 2
        if self.kind == "indicator":
            lo, hi, b = self.lo, self.hi, self.beta
            return b * (
                (lo * math.exp(-lam * lo) - hi * math.exp(-lam * hi)) / lam
                + (math.exp(-lam * lo) - math.exp(-lam * hi)) / lam ** 2
            )
        total = 0.0
        for (p, q), (vp, vq) in self._panels():
            d = (vq - vp) / (q - p)
            total += _poly_exp_int(lam, 0.0, 0.0, vp - d * p, d, p, q)
        return float(total)

    def laplace_tail(self, x, lam: float):
        """Integral of B(y) exp(-lam (y - x)) over [x, inf), vectorized in x.

        The exponent is measured from x, so the result stays bounded and the
        dual weight ``phi0 * tail`` never overflows.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "constant":
            return np.full_like(x, self.beta / lam)
        if self.kind == "indicator":
            lo, hi, b = self.lo, self.hi, self.beta
            start = np.maximum(x, lo)
            out = b / lam * (np.exp(-lam * (start - x)) - np.exp(-lam * (hi - x)))
            return np.where(x < hi, out, 0.0)
        return self._table_tail(x, lam)

    def _panels(self):
        xs, vals = self.xs, self.vals
        for i in range(len(xs) - 1):
            yield (xs[i], xs[i + 1]), (vals[i], vals[i + 1])

    def _table_tail(self, x, lam):
        xs = np.array(self.xs)
        vals = np.array(self.vals)
        m = xs.size
        # G[i] = integral_{xs[i]}^{end} B exp(-lam (y - xs[i])), backward recursion
        G = np.zeros(m)
        for i in range(m - 2, -1, -1):
            p, q = xs[i], xs[i + 1]
            d = (vals[i + 1] - vals[i]) / (q - p)
            local = _poly_exp_int(lam, p, vals[i] - d * p, d, 0.0, p, q)
            G[i] = local + math.exp(-lam * (q - p)) * G[i + 1]
        out = np.zeros_like(x)
        inside = (x >= 0.0) & (x < xs[-1])
        xi = x[inside]
        idx = np.minimum(np.searchsorted(xs, xi, side="right") - 1, m - 2)
        p, q = xs[idx], xs[idx + 1]
        d = (vals[idx + 1] - vals[idx]) / (q - p)
        c = vals[idx] - d * p
        partial = _poly_exp_antideriv(lam, xi, c, d, 0.0, q) - _poly_exp_antideriv(
            lam, xi, c, d, 0.0, xi
        )
        out[inside] = partial + np.exp(-lam * (q - xi)) * G[idx + 1]
        return out

    # -- birth forcing against a measure ----------------------------------

    def _linear_pieces(self):
        """Panel edges and coefficients with ``B(y) = c0 + c1 y`` on each panel."""
        if self.kind == "indicator":
            return np.array([self.lo, self.hi]), np.array([self.beta]), np.zeros(1)
        xs, vals = np.array(self.xs), np.array(self.vals)
        c1 = np.diff(vals) / np.diff(xs)
        return xs, vals[:-1] - c1 * xs[:-1], c1

    def birth_forcing(self, mu: HybridMeasure, shifts) -> np.ndarray:
        """Integral of B(x + s) d mu(x) for every shift s, exact and vectorized.

        Constant laws use the total mass.  Indicator and table laws are
        piecewise linear: on a panel ``[p, q]`` with ``B(y) = c0 + c1 y`` the
        density contributes ``(c0 + c1 s) (M0(q - s) - M0(p - s)) + c1 (M1(q - s)
        - M1(p - s))`` with the exact cumulative mass ``M0`` and first moment
        ``M1`` of the piecewise-linear density.  Atoms are weighted with
        ``quad_values``, so an atom on a rate discontinuity counts with the
        mean one-sided value, matching the trapezoid jump convention.
        """
        shifts = np.asarray(shifts, dtype=float)
        locs = np.array([a[0] for a in mu.atoms])
        wts = np.array([a[1] for a in mu.atoms])
        if self.kind == "constant":
            ac = ac_cumulative(mu, mu.x_max)
            return np.full_like(shifts, self.beta * (ac + wts.sum()))
        edges, c0, c1 = self._linear_pieces()
        ys = edges[:, None] - shifts
        m0 = np.diff(ac_cumulative(mu, ys), axis=0)
        m1 = np.diff(ac_first_moment(mu, ys), axis=0)
        c0, c1 = c0[:, None], c1[:, None]
        out = ((c0 + c1 * shifts) * m0 + c1 * m1).sum(axis=0)
        if locs.size:
            out = out + self.quad_values(locs[None, :] + shifts[:, None]) @ wts
        return out


@dataclass(frozen=True)
class SpectralData:
    """Growth rate, stable profile, dual weight and their residuals."""

    lambda0: float
    N: Callable
    phi: Callable
    phi0: float
    residual_euler_lotka: float
    residual_normalization: float


def solve_lambda0(B: BirthLaw) -> float:
    """Unique positive root of ``B.laplace(lam) = 1``.

    Bracketing bisection (the upper end is doubled until the residual goes
    negative) followed by a Newton polish with the analytic derivative.
    """

    def F(lam):
        return (B.total_integral() if lam == 0.0 else B.laplace(lam)) - 1.0

    if F(0.0) <= 1e-8:
        raise SpectralError("net reproduction below one")
    lo, hi = 0.0, 1.0
    for _ in range(60):
        if F(hi) < 0.0:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise SpectralError("failed to bracket the growth rate")

    for _ in range(200):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if F(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)

    for _ in range(30):
        f = F(lam)
        if abs(f) <= 1e-14:
            break
        step = f / B.laplace_moment(lam)  # F' = -laplace_moment
        nxt = lam + step
        if not (lo <= nxt <= hi):
            nxt = 0.5 * (lo + hi)
        if nxt == lam:
            break
        lam = nxt
    if abs(F(lam)) > 1e-10:
        raise SpectralError("growth-rate residual above tolerance")
    return float(lam)


def eigen_N(lambda0: float) -> Callable:
    """Stable age profile ``N(x) = lambda0 exp(-lambda0 x)`` (unit mass)."""
    if lambda0 <= 0.0:
        raise SpectralError("growth rate must be positive")

    def N(x):
        return lambda0 * np.exp(-lambda0 * np.asarray(x, dtype=float))

    return N


def eigen_phi(B: BirthLaw, lambda0: float):
    """Dual weight and its boundary value.

    ``phi(x) = phi0 exp(lam x) * tail(x)`` with ``tail(x)`` the exponentially
    weighted remainder of the birth rate beyond x; ``phi0`` is fixed by the
    unit normalization against N, which reduces to the first transform
    moment.  Exponentials are always taken of nonpositive arguments.
    """
    m1 = B.laplace_moment(lambda0)
    if not (m1 > 1e-12):
        raise SpectralError("degenerate birth law: normalization integral vanishes")
    phi0 = 1.0 / (lambda0 * m1)

    def phi(x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr1 = np.atleast_1d(arr)
        out = phi0 * B.laplace_tail(arr1, lambda0)
        out = np.where(arr1 < 0.0, 0.0, out)
        return float(out[0]) if scalar else out

    return phi, phi0


def solve_spectral(B: BirthLaw) -> SpectralData:
    """Solve both eigenproblems and record the defining residuals."""
    lam = solve_lambda0(B)
    N = eigen_N(lam)
    phi, phi0 = eigen_phi(B, lam)
    res_el = abs(B.laplace(lam) - 1.0)

    breakpoints = [p for p, _, _ in B.jump_points()]
    if B.kind == "table":
        breakpoints = list(B.xs)
    if B.support_end is not None:
        x_hi = B.support_end
        tail = 0.0
    else:
        x_hi = 40.0 / lam
        tail = phi0 * B.beta / lam * math.exp(-lam * x_hi)  # phi is constant there
    quad = composite_simpson(
        lambda x: N(x) * phi(x), 0.0, x_hi, B.quadrature_panels, breakpoints
    )
    res_norm = abs(quad + tail - 1.0)
    if res_el > 1e-10:
        raise SpectralError("growth-rate residual above tolerance")
    if res_norm > 1e-8:
        raise SpectralError("dual normalization residual above tolerance")
    return SpectralData(lam, N, phi, phi0, res_el, res_norm)


def stationary_measure(spectral: SpectralData, x_max: float, h: float,
                       mass: float = 1.0) -> HybridMeasure:
    """The profile ``mass * N dx`` sampled on a grid."""
    return HybridMeasure.from_function(
        lambda x: mass * spectral.N(x), x_max, h, nonnegative=mass >= 0.0
    )
