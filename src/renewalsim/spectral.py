"""Eigenstructure of the age-renewal model.

Solves the growth-rate equation ``integral B(x) exp(-lam x) dx = 1`` for the
Malthusian parameter, builds the stable age profile ``N(x) = lam exp(-lam x)``
and the dual weight ``phi`` with the normalization ``integral N phi dx = 1``.

Two birth-law families are supported.  ``constant`` laws use closed forms
throughout (the infinite tail is handled analytically, never by
quadrature).  ``table`` laws are piecewise linear with finite support; a
repeated inner abscissa is a jump, left value first, and an indicator
``beta 1_[lo, hi]`` is sugar for such a table.  One panel table
``(p, q, c0, c1)`` with ``B(y) = c0 + c1 y`` on each panel of positive
width drives the exact exponential transforms, the dual-weight tail, its
normalization residual and the exact panel-moment birth forcing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import SpectralError
from .measures import _SNAP, HybridMeasure, _head, ac_cumulative, ac_first_moment

__all__ = [
    "BirthLaw",
    "SpectralData",
    "solve_lambda0",
    "eigen_N",
    "eigen_phi",
    "solve_spectral",
]

def _poly_exp_antideriv(lam, base, c0, c1, c2, y):
    """Antiderivative of (c0 + c1 y + c2 y^2) exp(-lam (y - base)) at y."""
    p = c0 + y * (c1 + y * c2)
    dp = c1 + 2.0 * c2 * y
    return -np.exp(-lam * (y - base)) * (p / lam + dp / lam ** 2 + 2.0 * c2 / lam ** 3)


def _poly_exp_int(lam, base, c0, c1, c2, p, q):
    return _poly_exp_antideriv(lam, base, c0, c1, c2, q) - _poly_exp_antideriv(
        lam, base, c0, c1, c2, p
    )


def _panel_sum(terms) -> float:
    """Left-to-right sum of per-panel terms (pairwise summation would move bits)."""
    return float(np.add.accumulate(terms)[-1])


@dataclass(frozen=True)
class BirthLaw:
    """Nonnegative bounded birth rate.

    Attributes
    ----------
    kind:
        ``"constant"`` or ``"table"``.
    sup_bound:
        Essential supremum of the rate.
    support_end:
        Smallest x beyond which the rate vanishes; ``None`` means infinite
        support (constant laws only).
    beta:
        The rate of a constant law.
    xs, vals:
        Table nodes and values.  A node repeated once is a jump: the first
        copy carries the left limit, the second the right limit.
    """

    kind: str
    sup_bound: float
    support_end: float | None
    beta: float = 0.0
    xs: tuple = ()
    vals: tuple = ()

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, beta: float) -> "BirthLaw":
        if not (beta > 0.0 and math.isfinite(beta)):
            raise SpectralError("constant birth rate must be positive and finite")
        return cls("constant", beta, None, beta=beta)

    @classmethod
    def indicator(cls, beta: float, lo: float, hi: float) -> "BirthLaw":
        """Rate ``beta`` on [lo, hi] and zero elsewhere, as a table law."""
        if not (0.0 <= lo < hi and math.isfinite(hi)):
            raise SpectralError("indicator support must satisfy 0 <= lo < hi")
        if lo == 0.0:
            return cls.table((0.0, hi), (beta, beta))
        return cls.table((0.0, lo, lo, hi), (0.0, 0.0, beta, beta))

    @classmethod
    def table(cls, xs, vals) -> "BirthLaw":
        xs = tuple(float(x) for x in xs)
        vals = tuple(float(v) for v in vals)
        if len(xs) < 2 or len(xs) != len(vals):
            raise SpectralError("table law needs matching x and value lists")
        if not all(math.isfinite(v) for v in xs + vals):
            raise SpectralError("table nodes and values must be finite")
        steps = np.diff(xs)
        if xs[0] != 0.0 or steps.min() < 0.0:
            raise SpectralError("table nodes must start at 0 and increase")
        repeat = steps == 0.0
        if repeat[0] or repeat[-1] or np.any(repeat[:-1] & repeat[1:]):
            raise SpectralError("a table node may repeat once (a jump), inside the support")
        if min(vals) < 0.0:
            raise SpectralError("birth rate must be nonnegative")
        law = cls("table", max(vals), xs[-1], xs=xs, vals=vals)
        if law.total_integral() <= 1.0 + 1e-8:
            raise SpectralError("net reproduction below one")
        return law

    @cached_property
    def _panels(self):
        """``(p, q, c0, c1)`` with ``B(y) = c0 + c1 y`` on every panel of positive width."""
        xs, vals = np.array(self.xs), np.array(self.vals)
        wide = np.diff(xs) > 0.0
        p, q = xs[:-1][wide], xs[1:][wide]
        c1 = (vals[1:][wide] - vals[:-1][wide]) / (q - p)
        return p, q, vals[:-1][wide] - c1 * p, c1

    # -- pointwise and quadrature sampling -------------------------------

    def __call__(self, x):
        """The rate; at a table jump the right limit, at the support end the left."""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.where(x >= 0.0, self.beta, 0.0)
        # np.interp returns the second copy's value at a repeated node
        out = np.interp(x, self.xs, self.vals, left=0.0, right=0.0)
        return np.where((x >= 0.0) & (x <= self.support_end), out, 0.0)

    def breakpoints(self) -> tuple:
        """Sorted distinct table abscissae: every kink and jump of the rate."""
        if self.kind == "constant":
            return ()
        p, q, _, _ = self._panels
        return (*p.tolist(), float(q[-1]))

    def jump_points(self) -> tuple:
        """Discontinuities ``(x, left, right)`` of the rate on (0, inf)."""
        if self.kind == "constant":
            return ()
        xs, vals = self.xs, self.vals
        pts = [(a, vl, vr) for a, b, vl, vr in zip(xs, xs[1:], vals, vals[1:]) if a == b]
        pts.append((xs[-1], vals[-1], 0.0))
        return tuple(pt for pt in pts if pt[1] != pt[2])

    @cached_property
    def live_end(self) -> float:
        """Last age at which ``quad_values`` can be nonzero: the support end plus the jump snap."""
        if self.support_end is None:
            return math.inf
        return self.support_end + _SNAP * max(1.0, self.support_end)

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
        return float(np.trapezoid(self.vals, self.xs))

    def integral_to(self, x: float) -> float:
        """Integral of the rate over [0, x]."""
        if self.kind == "constant":
            return self.beta * max(x, 0.0)
        xs, vals = np.array(self.xs), np.array(self.vals)
        x = min(max(x, 0.0), self.support_end)
        i = np.count_nonzero(xs < x) - 1   # last node below x; xs[i + 1] >= x
        if i < 0:
            return 0.0
        end = np.interp(x, xs[i:i + 2], vals[i:i + 2])   # left limit at x
        return float(np.trapezoid(np.append(vals[:i + 1], end), np.append(xs[:i + 1], x)))

    def laplace(self, lam: float) -> float:
        """Integral of B(x) exp(-lam x) over [0, inf)."""
        if lam <= 0.0:
            total = self.total_integral()
            if lam == 0.0:
                return total
            raise SpectralError("transform argument must be nonnegative")
        if self.kind == "constant":
            return self.beta / lam
        p, q, c0, c1 = self._panels
        return _panel_sum(_poly_exp_int(lam, 0.0, c0, c1, 0.0, p, q))

    def laplace_moment(self, lam: float) -> float:
        """Integral of x B(x) exp(-lam x) over [0, inf)."""
        if lam <= 0.0:
            raise SpectralError("transform argument must be positive")
        if self.kind == "constant":
            return self.beta / lam ** 2
        p, q, c0, c1 = self._panels
        return _panel_sum(_poly_exp_int(lam, 0.0, 0.0, c0, c1, p, q))

    def _panel_tails(self, lam: float) -> np.ndarray:
        """``G[k]`` = integral of B exp(-lam (y - p[k])) over [p[k], inf); ``G[P] = 0``."""
        p, q, c0, c1 = self._panels
        local = _poly_exp_int(lam, p, c0, c1, 0.0, p, q)
        G = np.zeros(p.size + 1)
        for k in range(p.size - 1, -1, -1):
            G[k] = local[k] + math.exp(-lam * (q[k] - p[k])) * G[k + 1]
        return G

    def tail_moment(self, lam: float) -> float:
        """Integral over x >= 0 of ``integral_x^inf B(y) exp(-lam y) dy``, i.e. ``laplace_moment``.

        Computed through the tail recursion instead: on the x-panel [p, q] the inner integral
        splits at q into ``integral_p^q (y - p) B exp(-lam y) dy + (q - p) exp(-lam q) G[k + 1]``.
        """
        if self.kind == "constant":
            return self.beta / lam ** 2
        p, q, c0, c1 = self._panels
        near = _poly_exp_int(lam, 0.0, -p * c0, c0 - p * c1, c1, p, q)
        return _panel_sum(near + (q - p) * np.exp(-lam * q) * self._panel_tails(lam)[1:])

    def laplace_tail(self, x, lam: float):
        """Integral of B(y) exp(-lam (y - x)) over [x, inf), vectorized in x.

        The exponent is measured from x, so the result stays bounded and the
        dual weight ``phi0 * tail`` never overflows.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "constant":
            return np.full_like(x, self.beta / lam)
        p, q, c0, c1 = self._panels
        G = self._panel_tails(lam)
        out = np.zeros_like(x)
        inside = (x >= 0.0) & (x < q[-1])
        xi = x[inside]
        k = np.searchsorted(p, xi, side="right") - 1
        partial = _poly_exp_int(lam, xi, c0[k], c1[k], 0.0, xi, q[k])
        out[inside] = partial + np.exp(-lam * (q[k] - xi)) * G[k + 1]
        return out

    # -- birth forcing against a measure ----------------------------------

    def birth_forcing(self, mu: HybridMeasure, shifts) -> np.ndarray:
        """Integral of B(x + s) d mu(x) for every shift s, exact and vectorized.

        Constant laws use the total mass.  Table laws are piecewise linear:
        on a panel ``[p, q]`` with ``B(y) = c0 + c1 y`` the density
        contributes ``(c0 + c1 s) (M0(q - s) - M0(p - s)) + c1 (M1(q - s) -
        M1(p - s))`` with the exact cumulative mass ``M0`` and first moment
        ``M1`` of the piecewise-linear density, each evaluated once at the
        shifted breakpoints.  Atoms are weighted with ``quad_values``, so an
        atom on a rate discontinuity counts with the mean one-sided value,
        matching the trapezoid jump convention.  Past ``live_end`` every
        shifted breakpoint and atom lies beyond the support: those shifts
        are exactly 0 and not evaluated.  The cumulative sums read the
        density only up to the largest shifted breakpoint (the support end
        for nonnegative shifts), so the cost is O(P) per live shift plus
        O(live_end / h) for the sums.
        """
        shifts = np.asarray(shifts, dtype=float)
        locs = np.array([a[0] for a in mu.atoms])
        wts = np.array([a[1] for a in mu.atoms])
        if self.kind == "constant":
            ac = ac_cumulative(mu, mu.x_max)
            return np.full_like(shifts, self.beta * (ac + wts.sum()))
        out = np.zeros(shifts.shape)
        live = shifts <= self.live_end
        s = shifts[live]
        _, _, c0, c1 = self._panels
        ys = np.array(self.breakpoints())[:, None] - s
        head = _head(mu, float(ys.max(initial=0.0)))
        m0 = np.diff(ac_cumulative(head, ys), axis=0)
        m1 = np.diff(ac_first_moment(head, ys), axis=0)
        c0, c1 = c0[:, None], c1[:, None]
        out[live] = ((c0 + c1 * s) * m0 + c1 * m1).sum(axis=0)
        if locs.size:
            out[live] += self.quad_values(locs[None, :] + s[:, None]) @ wts
        return out


@dataclass(frozen=True)
class SpectralData:
    """Growth rate, stable profile, dual weight and their residuals.

    ``live_end`` is the birth law's ``live_end``: phi vanishes past it
    (inf for a constant law).
    """

    lambda0: float
    N: Callable
    phi: Callable
    phi0: float
    residual_euler_lotka: float
    residual_normalization: float
    live_end: float


def solve_lambda0(B: BirthLaw) -> float:
    """Unique positive root of ``B.laplace(lam) = 1``.

    Bracketing bisection (the upper end is doubled until the residual goes
    negative) followed by a Newton polish with the analytic derivative.
    """

    def F(lam):
        return B.laplace(lam) - 1.0

    if B.total_integral() - 1.0 <= 1e-8:  # F(0); a closed-form laplace may divide by lam
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
    """Solve both eigenproblems and record the defining residuals.

    ``integral N phi dx = lambda0 phi0 B.tail_moment(lambda0)`` exactly, so the normalization
    check sets the tail recursion behind phi against the moment behind phi0 without sampling.
    The growth-rate residual it records is the one ``solve_lambda0`` has already bounded.
    """
    lam = solve_lambda0(B)
    phi, phi0 = eigen_phi(B, lam)
    res_el = abs(B.laplace(lam) - 1.0)
    res_norm = abs(lam * phi0 * B.tail_moment(lam) - 1.0)
    if res_norm > 1e-8:
        raise SpectralError("dual normalization residual above tolerance")
    return SpectralData(lam, eigen_N(lam), phi, phi0, res_el, res_norm, B.live_end)

