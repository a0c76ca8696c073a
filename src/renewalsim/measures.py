"""Finite signed measures on [0, x_max] as grid density plus exact atoms.

The absolutely continuous part is stored as samples of a piecewise-linear
density on a uniform grid; the singular part is an explicit list of point
masses that is never smeared onto the grid.  All operations are pure
functions returning new values, so measures are safe to share across
threads.

A measure may carry *jump records*: grid nodes where the density has two
one-sided limits (transport snapshots have one at the newborn seam).  The
stored node value is the mean of the two limits, which keeps trapezoid
sums of ``f * density`` exact for continuous ``f`` (an end node has one
panel and enters them with its one-sided limit, ``_node_values``);
operations that apply a nonlinearity pointwise (absolute value, entropy
integrands) consult the one-sided limits instead.
"""
from __future__ import annotations

import math
import os
import warnings
import zlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import MeasureError

__all__ = [
    "HybridMeasure",
    "integrate",
    "angle_bracket",
    "mollify",
    "flat_distance",
    "ac_cumulative",
    "ac_first_moment",
    "write_snapshot",
    "read_snapshot",
]

_SNAP = 1e-9  # relative slack when matching coordinates to grid nodes


def _is_multiple(value: float, unit: float) -> bool:
    """Whether ``value`` is an integer multiple of ``unit`` up to the snap; never inf or nan."""
    q = value / unit
    return math.isfinite(q) and abs(value - round(q) * unit) <= _SNAP * max(1.0, abs(value))


def _evaluate(f, x):
    """Evaluate a scalar function on an array, vectorizing if needed."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            out = np.asarray(f(x), dtype=float)
        except (TypeError, ValueError, DeprecationWarning):
            out = np.asarray(np.vectorize(f)(x), dtype=float)
    if out.shape != np.shape(x):
        out = np.asarray(np.vectorize(f)(x), dtype=float)
    return out


@dataclass(frozen=True, eq=False)
class HybridMeasure:
    """A finite signed measure on [0, x_max].

    Parameters
    ----------
    h:
        Grid spacing; ``x_max`` is ``(len(density) - 1) * h`` exactly.
    density:
        Density samples at the nodes ``0, h, 2h, ...`` (the AC part).
    atoms:
        ``(location, weight)`` pairs for the singular part.  Locations are
        merged on construction and exact-zero weights dropped.
    jumps:
        ``(node_x, left_limit, right_limit)`` records; the node value is
        forced to the mean of the limits.
    nonnegative:
        When set, density, atom weights and jump limits must all be >= 0.
    """

    h: float
    density: np.ndarray
    atoms: tuple = ()
    jumps: tuple = ()
    nonnegative: bool = False

    def __post_init__(self):
        h = float(self.h)
        if not (h > 0.0 and math.isfinite(h)):
            raise MeasureError("grid spacing must be a positive finite number")
        dens = np.array(self.density, dtype=float)
        if dens.ndim != 1 or dens.size < 2:
            raise MeasureError("density must be a 1-d array with at least two nodes")
        if not np.all(np.isfinite(dens)):
            raise MeasureError("density values must be finite")
        x_max = (dens.size - 1) * h

        # canonical atoms: sorted, merged by exact location, zeros dropped
        merged = {}
        for loc, wt in self.atoms:
            loc = float(loc)
            wt = float(wt)
            if not (math.isfinite(loc) and math.isfinite(wt)):
                raise MeasureError("atom entries must be finite")
            if loc < -_SNAP * max(1.0, x_max) or loc > x_max * (1 + _SNAP) + _SNAP:
                raise MeasureError(f"atom at {loc} lies outside [0, {x_max}]")
            loc = min(max(loc, 0.0), x_max)
            merged[loc] = merged.get(loc, 0.0) + wt
        atoms = tuple(sorted((l, w) for l, w in merged.items() if w != 0.0))

        # canonical jumps: snapped to nodes, node value = mean of limits
        jumps = []
        seen = set()
        for x, lo, hi in self.jumps:
            lo = float(lo)
            hi = float(hi)
            if not math.isfinite(lo + hi):  # a limit is inf or nan, or the mean overflows
                raise MeasureError("jump limits and their mean must be finite")
            if lo == hi:
                continue
            i = int(round(float(x) / h))
            if not (0 <= i < dens.size) or abs(float(x) - i * h) > _SNAP * max(1.0, x_max):
                raise MeasureError(f"jump at {x} does not sit on a grid node")
            if i in seen:
                raise MeasureError("duplicate jump node")
            seen.add(i)
            dens[i] = 0.5 * (lo + hi)
            jumps.append((i * h, lo, hi))
        jumps = tuple(sorted(jumps))

        if self.nonnegative:
            if dens.min() < 0.0:
                raise MeasureError("nonnegative measure has a negative density node")
            if any(w < 0.0 for _, w in atoms):
                raise MeasureError("nonnegative measure has a negative atom")
            if any(lo < 0.0 or hi < 0.0 for _, lo, hi in jumps):
                raise MeasureError("nonnegative measure has a negative jump limit")

        dens.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "density", dens)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "jumps", jumps)

    # -- basic geometry -------------------------------------------------

    @property
    def node_count(self) -> int:
        return self.density.size

    @property
    def x_max(self) -> float:
        return (self.density.size - 1) * self.h

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.density.size) * self.h

    def density_at(self, x):
        """Piecewise-linear density value (zero outside the domain)."""
        return np.interp(x, self.nodes, self.density, left=0.0, right=0.0)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _node_count(x_max: float, h: float) -> int:
        n = int(round(x_max / h)) + 1
        if n < 2 or abs((n - 1) * h - x_max) > _SNAP * max(1.0, x_max):
            raise MeasureError("x_max must be an integer multiple of the grid spacing")
        return n

    @classmethod
    def zero(cls, x_max: float, h: float) -> "HybridMeasure":
        return cls(h, np.zeros(cls._node_count(x_max, h)), nonnegative=True)

    @classmethod
    def from_function(cls, fn, x_max: float, h: float, atoms=(), nonnegative=False):
        n = cls._node_count(x_max, h)
        vals = _evaluate(fn, np.arange(n) * h)
        return cls(h, vals, tuple(atoms), nonnegative=nonnegative)

    @classmethod
    def point_mass(cls, loc: float, x_max: float, h: float, weight: float = 1.0):
        n = cls._node_count(x_max, h)
        return cls(h, np.zeros(n), ((loc, weight),), nonnegative=weight >= 0.0)


def _panel_sides(mu: HybridMeasure):
    """One-sided node values (left, right) for every grid panel."""
    d = mu.density
    left = d[:-1].copy()
    right = d[1:].copy()
    for x, lo, hi in mu.jumps:
        i = int(round(x / mu.h))
        if i < left.size:
            left[i] = hi
        if i >= 1:
            right[i - 1] = lo
    return left, right


def _node_values(mu: HybridMeasure) -> np.ndarray:
    """Node densities for trapezoid sums: an end node takes its one panel's side of a jump."""
    L, R = _panel_sides(mu)
    return np.concatenate([L[:1], mu.density[1:-1], R[-1:]])


def integrate(mu: HybridMeasure, f) -> float:
    """Integral of ``f`` against the measure.

    Trapezoid rule against the AC density (``_node_values``) plus the exact
    atom sum.  It equals the one-sided panel-split sum for any continuous
    ``f``: at inner jump nodes the mean value splits evenly between the two
    panels, and an end node takes its one panel's limit.
    """
    fx = _evaluate(f, mu.nodes)
    total = float(np.trapezoid(fx * _node_values(mu), dx=mu.h))
    if mu.atoms:
        locs = np.array([a[0] for a in mu.atoms])
        wts = np.array([a[1] for a in mu.atoms])
        total += float(np.dot(_evaluate(f, locs), wts))
    return total


def angle_bracket(mu: HybridMeasure) -> float:
    """Area-type functional: integral of sqrt(1 + density^2) plus atom mass."""
    L, R = _panel_sides(mu)
    ac = float(np.sum((np.sqrt(1.0 + L * L) + np.sqrt(1.0 + R * R)) * (mu.h / 2.0)))
    return ac + sum(abs(w) for _, w in mu.atoms)


def _hat_cdf(y, c, eps):
    """CDF of the unit triangular kernel centred at ``c`` with half-width ``eps``."""
    u = np.clip((np.asarray(y, dtype=float) - c) / eps, -1.0, 1.0)
    return np.where(u <= 0.0, 0.5 * (1.0 + u) ** 2, 1.0 - 0.5 * (1.0 - u) ** 2)


def mollify(mu: HybridMeasure, eps: float) -> "HybridMeasure":
    """Replace every atom by a mass-preserving triangular bump.

    Kernel mass spilling below x = 0 is reflected back into [0, eps], so
    each atom's mass lands on the grid exactly (cell-average projection:
    the trapezoid weights of the grid coincide with the cell widths).  The
    density part is left untouched and the result carries no atoms.

    Node i owns the cell between the edges ``(i - 1/2) h`` and
    ``(i + 1/2) h``, clipped to [0, x_max].  Only the cells that meet
    (c - eps, c + eps), widened by one cell on each side, are evaluated;
    when c < eps that range starts at x = 0 and so holds the reflected
    cells as well.  Outside it the kernel's CDF is exactly 0 or 1 at every
    edge and the cell masses are exactly zero, so an atom costs O(eps / h)
    and the result is the same, bit for bit, as the projection evaluated
    on every cell.
    """
    if eps < mu.h * (1.0 - 1e-12):
        raise MeasureError("mollifier width below grid spacing: kernel unresolvable")
    if not mu.atoms:
        return mu
    start, span = _bump_sum(mu, eps)
    added = np.pad(span, (start, mu.node_count - start - span.size))
    dens = mu.density + added
    jumps = tuple((x, lo + added[int(round(x / mu.h))], hi + added[int(round(x / mu.h))])
                  for x, lo, hi in mu.jumps)
    return HybridMeasure(mu.h, dens, (), jumps, nonnegative=mu.nonnegative)


def _bump_sum(mu: HybridMeasure, eps: float):
    """The density ``mollify`` adds, on the node span its bumps reach: ``(lo, added)``.

    Node ``lo + j`` gains ``added[j]``: the atoms' bumps summed in atom
    order.  Raises ``MeasureError`` at the first atom whose kernel leaves
    the domain.
    """
    h, n, x_max = mu.h, mu.node_count, mu.x_max
    bumps = []
    for c, wt in mu.atoms:
        if c + eps > x_max * (1 + _SNAP):
            raise MeasureError(f"kernel around atom at {c} leaves the domain")
        # edges lo..hi: edge j sits at (j - 1/2) h, edge 0 at 0, edge n at x_max
        lo = max(0, math.floor((c - eps) / h + 0.5) - 1)
        hi = min(n, math.ceil((c + eps) / h + 0.5) + 1)
        edges = np.arange(lo - 1, hi) * h + h / 2.0
        if lo == 0:
            edges[0] = 0.0
        if hi == n:
            edges[-1] = x_max
        mass_to = _hat_cdf(edges, c, eps) - _hat_cdf(-edges, c, eps)
        bumps.append((lo, wt * np.diff(mass_to) / np.diff(edges)))
    lo = min((b0 for b0, _ in bumps), default=0)
    added = np.zeros(max((b0 + b.size for b0, b in bumps), default=lo) - lo)
    for b0, bump in bumps:
        added[b0 - lo:b0 - lo + bump.size] += bump
    return lo, added


def _cell_offsets(mu: HybridMeasure, ys):
    """Grid cell index and offset into it of every y, clipped to [0, x_max]."""
    yc = np.clip(ys, 0.0, mu.x_max)
    idx = np.minimum((yc / mu.h).astype(int), mu.node_count - 2)
    return idx, yc - idx * mu.h


def ac_cumulative(mu: HybridMeasure, ys) -> np.ndarray:
    """Exact integral of the piecewise-linear density over [0, y] for each y.

    Honours jump records (panel masses use the one-sided limits).
    """
    L, R = _panel_sides(mu)
    panel_mass = (L + R) * (mu.h / 2.0)
    cum = np.concatenate([[0.0], np.cumsum(panel_mass)])
    scalar = np.ndim(ys) == 0
    idx, s = _cell_offsets(mu, np.atleast_1d(np.asarray(ys, dtype=float)))
    vline = L[idx] + (R[idx] - L[idx]) * s / mu.h
    out = cum[idx] + s * (L[idx] + vline) / 2.0
    return float(out[0]) if scalar else out


def _head(mu: HybridMeasure, y: float) -> HybridMeasure:
    """The density and jump records of ``mu`` on its first nodes, up to one cell past y.

    ``ac_cumulative`` and ``ac_first_moment`` of the result equal those of
    ``mu`` bit for bit at every point up to y: their running sums are the
    same prefix sums, and every such point keeps its cell and offset.
    """
    n = min(mu.node_count, math.floor(max(y, 0.0) / mu.h) + 3)
    if n == mu.node_count:
        return mu
    return HybridMeasure(mu.h, mu.density[:n], (),
                         tuple(j for j in mu.jumps if round(j[0] / mu.h) < n))


def ac_first_moment(mu: HybridMeasure, ys) -> np.ndarray:
    """Exact integral of x times the density over [0, y] for each y.

    The first-moment companion of ``ac_cumulative``: on each grid cell
    ``[a, a + h]`` with one-sided values ``l``, ``r`` and slope
    ``d = (r - l) / h`` the moment up to offset ``s`` is the cubic
    ``a (l s + d s^2 / 2) + l s^2 / 2 + d s^3 / 3``.
    """
    L, R = _panel_sides(mu)
    h = mu.h
    cell = mu.nodes[:-1] * (L + R) * (h / 2.0) + (L + 2.0 * R) * (h * h / 6.0)
    cum = np.concatenate([[0.0], np.cumsum(cell)])
    scalar = np.ndim(ys) == 0
    idx, s = _cell_offsets(mu, np.atleast_1d(np.asarray(ys, dtype=float)))
    lv = L[idx]
    d = (R[idx] - lv) / h
    out = cum[idx] + s * (idx * h * (lv + 0.5 * d * s) + s * (0.5 * lv + d * s / 3.0))
    return float(out[0]) if scalar else out


# -- flat (bounded-Lipschitz) metric -----------------------------------------


def _node_masses(mu: HybridMeasure) -> np.ndarray:
    """Trapezoid weight times density (``_node_values``) at every grid node."""
    tw = np.full(mu.node_count, mu.h)
    tw[0] = tw[-1] = mu.h / 2.0
    return tw * _node_values(mu)


def _support_points(mu: HybridMeasure):
    locs = mu.nodes
    wts = _node_masses(mu)
    if mu.atoms:
        locs = np.concatenate([locs, [a[0] for a in mu.atoms]])
        wts = np.concatenate([wts, [a[1] for a in mu.atoms]])
    return locs, wts


_RUN = 48  # points from which a same-sign run is advanced in one numpy batch


def _chain_max(locs: np.ndarray, w: np.ndarray) -> float:
    """Maximize sum(w_i f_i) over |f_i| <= 1, |f_{i+1} - f_i| <= gap_i.

    Forward sweep of the exact dynamic program on the concave piecewise
    linear value function V_k(y) = best total with f_k = y: slide the top
    apart by the gap (max-filter), clamp the domain back to [-1, 1], then
    tilt by the next weight.  The answer is the final peak value.

    V_k is kept by the slope trick: its peak value ``top`` and, for each
    side of the peak, the ends ``x`` and slopes ``s`` of its segments,
    outer -> inner.  Each segment stores its inner end; the outer end is
    the next segment's inner end or the domain end -1 / +1, and the peak is
    the interval between the innermost ends.  Shifts and tilts are lazy:
    with G = x_k - x_0 the total gap so far and S the total weight, left
    ends are stored as x + G, right ends as x - G and slopes as slope - S,
    so the max-filter is the growth of G and the clamp drops the outer
    segments whose inner end has left [-1, 1].  A tilt by w > 0 turns the
    old flat top into a left segment, then moves right segments whose slope
    has become positive to the left side, adding slope * length to
    ``top``; a slope of exactly zero becomes the new flat top.  w < 0 is
    the mirror image, so the result is bit-identical under w -> -w.  A
    point clamps only the side it consumes: the other side is not read
    until a point of the other sign, whose clamp at its larger G drops the
    same segments.  The first point tilts the zero function on [-1, 1], and
    zero weights change nothing.

    A same-sign run of at least ``_RUN`` points is advanced in numpy
    (``_batch``) with the sides held as arrays; shorter runs are stepped
    point by point (``_steps``) with the sides held as deques.  Both give
    the same bits.  The cost is array work per long run, linear in its
    length and in the sizes of the sides, plus Python work per point and
    per move inside short runs, plus one copy of the sides whenever the
    two kinds of run alternate.
    """
    keep = (w > 0.0) | (w < 0.0)
    G = locs[keep] - locs[0]
    w = w[keep]
    pos = w > 0.0
    starts = np.flatnonzero(np.concatenate(([True], pos[1:] != pos[:-1])))
    ends = np.append(starts[1:], w.size)
    long_run = ends - starts >= _RUN
    left, right = [np.empty(0), np.empty(0)], [np.empty(0), np.empty(0)]
    top = S = 0.0
    i = 0  # the long runs, then an empty one at the end for the short runs after them
    for a, b in zip(np.append(starts[long_run], w.size).tolist(),
                    np.append(ends[long_run], w.size).tolist()):
        if i < a:
            for side in (left, right):
                if isinstance(side[0], np.ndarray):
                    side[:] = [deque(v.tolist()) for v in side]
            top, S = _steps(G[i:a], w[i:a], left, right, top, S)
        if a < b:
            for side in (left, right):
                if isinstance(side[0], deque):
                    side[:] = [np.fromiter(v, float, len(v)) for v in side]
            if pos[a]:
                top, S = _batch(G[a:b], w[a:b], right, left, 1.0, top, S)
            else:
                top, S = _batch(G[a:b], -w[a:b], left, right, -1.0, top, S)
        i = b
    return top


def _steps(G, w, left, right, top, S):
    """``_chain_max`` point by point over nonzero weights; returns (top, S).

    ``left`` and ``right`` are each a deque of ends and a deque of slopes.
    """
    lx, ls = left
    rx, rs = right
    for g, wk in zip(G.tolist(), w.tolist()):
        if wk > 0.0:
            while rx and rx[0] + g >= 1.0:
                rx.popleft()
                rs.popleft()
            p = rx[-1] + g if rx else 1.0
            top += wk * p
            lx.append(p + g)
            ls.append(-S)
            S += wk
            while rs:
                m = rs[-1] + S
                if m < 0.0:
                    break
                slope = rs.pop()
                rx.pop()
                if m == 0.0:
                    break
                q = rx[-1] + g if rx else 1.0
                top += m * (q - p)
                lx.append(q + g)
                ls.append(slope)
                p = q
        else:
            while lx and lx[0] - g <= -1.0:
                lx.popleft()
                ls.popleft()
            p = lx[-1] - g if lx else -1.0
            top += wk * p
            rx.append(p - g)
            rs.append(-S)
            S += wk
            while ls:
                m = ls[-1] + S
                if m > 0.0:
                    break
                slope = ls.pop()
                lx.pop()
                if m == 0.0:
                    break
                q = lx[-1] - g if lx else -1.0
                top += m * (q - p)
                rx.append(q - g)
                rs.append(slope)
                p = q
    return top, S


def _batch(G, a, take, grow, s, top, S):
    """``_chain_max`` over one run of weights ``s * a`` (a > 0); returns (top, S).

    The run consumes the side ``take`` (the right side for s > 0) at its
    inner end and pushes onto ``grow``.  In mirror form the consumed side
    holds u = s * x, its outward position minus G, and t = s * slope, so
    its outward slope is t + sS with sS = s * S: one routine serves both
    signs with the same float operations.  Taking items j inner -> outer:
    - j moves at the first step whose cumulative sS makes t_j + sS >= 0,
      that is sS >= -t_j exactly (one searchsorted), and not before the
      item in front of it; a move whose slope is exactly zero pops that
      item and ends its step, so the items behind it wait one step;
    - j is clamped at the first step where it and every item outside it
      have u + G >= 1 (``_first_clamp``), unless it moved first;
    - the grown side is not read during the run, so its clamp waits.
    The pushes, moves and increments of ``top`` are then array
    expressions; ``top`` sums them with one cumsum in the sweep's order.
    """
    x, slope = take
    n, L = x.size, G.size
    u, t = (x[::-1], slope[::-1]) if s > 0 else (-x[::-1], -slope[::-1])
    sS = np.cumsum(np.concatenate(([s * S], a)))  # before each step, then after the run
    after = sS[1:]
    k = int(np.searchsorted(-t, after[-1], "right"))  # the items that can move; t falls outward
    out = u + G[-1] >= 1.0
    stays = np.flatnonzero(~out)
    cut = int(stays[-1]) + 1 if stays.size else 0  # items from here outward go by the run's end
    if cut > k:  # the clamp stays outside the items the run reads: apply it now
        u, t = u[:k + 1], t[:k + 1]
        c = np.full(k + 2, L)
    else:  # step of each item's clamp
        c = np.full(n + 1, L)
        hit = np.flatnonzero(out)
        c[hit] = _first_clamp(u[hit], G)
        c[:n] = np.maximum.accumulate(c[:n][::-1])[::-1]
    c[-1] = -1  # past the last item nothing is left
    e = np.full(u.size, L)  # step of each item's move, L past the run
    e[:k] = np.searchsorted(after, -t[:k])
    for j in np.flatnonzero(after[e[:k]] == -t[:k]).tolist():
        if e[j] < L and after[e[j]] == -t[j]:
            e[j + 1:np.searchsorted(e, e[j], "right")] = e[j] + 1
    m = int(np.count_nonzero((e < L) & (e < c[:-1])))  # they leave from the inner end
    if cut <= k:
        cut = max(m, int(np.count_nonzero(c[:-1] >= L)))
    em = e[:m]
    M = t[:m] + after[em]
    ks = np.arange(L)
    front = _before(em, L)
    up = np.append(u, 0.0)
    P = np.where(c[front] > ks, up[front] + G, 1.0)  # the inner end at each push
    if M.all():
        em1, nxt, done = em, np.arange(1, m + 1), front
    else:  # zero slopes: popped, not moved
        em1, nxt = em[M != 0.0], np.flatnonzero(M) + 1
        done = _before(em1, L)
    Ge = G[em1]
    Q = np.where(c[nxt] > em1, up[nxt] + Ge, 1.0)  # the next inner end at each move
    at_push = ks + done  # each step's push, then its moves inner to outer
    at_move = em1 + np.arange(1, em1.size + 1)
    terms = np.empty(L + em1.size + 1)
    terms[0] = top
    terms[at_push + 1] = a * P
    terms[at_move + 1] = M[nxt - 1] * (Q - (up[nxt - 1] + Ge))
    new_x = np.empty(L + em1.size)
    new_x[at_push] = P + G
    new_x[at_move] = Q + Ge
    new_s = np.empty(L + em1.size)
    new_s[at_push] = -sS[:-1]
    new_s[at_move] = t[nxt - 1]
    take[:] = x[n - cut:n - m], slope[n - cut:n - m]
    if s < 0:
        new_x, new_s = -new_x, -new_s
    grow[:] = np.concatenate((grow[0], new_x)), np.concatenate((grow[1], new_s))
    return float(np.cumsum(terms)[-1]), s * float(sS[-1])


def _before(e, L):
    """How many entries of ``e``, sorted steps below L, come before each step 0..L-1."""
    return np.concatenate(([0], np.cumsum(np.bincount(e, minlength=L)[:L - 1])))


def _first_clamp(u, G):
    """First index k with u + G[k] >= 1.0 in floats, G.size if none.

    ``searchsorted`` on 1 - u starts it; the float test ``u + G >= 1`` is
    not the same as ``G >= 1 - u``, so it steps to where the test flips.
    """
    L = G.size
    k = np.searchsorted(G, 1.0 - u)
    while True:
        up = k < L
        up[up] = u[up] + G[k[up]] < 1.0
        if not up.any():
            break
        k[up] += 1
    while True:
        down = k > 0
        down[down] = u[down] + G[k[down] - 1] >= 1.0
        if not down.any():
            break
        k[down] -= 1
    return k


def _same_grid_difference(mu: HybridMeasure, nu: HybridMeasure):
    """Sorted support and weights of ``mu - nu`` on their one shared grid.

    At every support point each measure's weight is summed first (its node
    weight, then its atoms there), and the two sums are subtracted once:
    the order of the sort-merge of ``flat_distance``, so the weights are
    the same floats, and those of ``nu - mu`` are their exact negations.
    Atoms off the nodes are merged by location and inserted in order.
    """
    nodes = mu.nodes

    def with_atoms(m, off):
        vals = _node_masses(m)
        for loc, wt in m.atoms:
            k = round(loc / mu.h)
            if k < nodes.size and nodes[k] == loc:
                vals[k] += wt
            else:
                off[loc] = off.get(loc, 0.0) + wt
        return vals

    off_mu, off_nu = {}, {}
    vals = with_atoms(mu, off_mu)
    vals -= with_atoms(nu, off_nu)
    if off_mu or off_nu:
        locs = np.array(sorted(off_mu.keys() | off_nu.keys()))
        wts = np.array([off_mu.get(x, 0.0) - off_nu.get(x, 0.0) for x in locs.tolist()])
        pos = nodes.searchsorted(locs)
        nodes, vals = np.insert(nodes, pos, locs), np.insert(vals, pos, wts)
    return nodes, vals


def flat_distance(mu: HybridMeasure, nu: HybridMeasure) -> float:
    """Flat (bounded-Lipschitz) distance between two measures.

    The difference measure is discretized to atoms (trapezoid node weights
    for the AC parts, atoms verbatim) and the finite maximization over test
    functions with sup-norm and Lipschitz constant at most one is solved
    exactly by a clamping dynamic program over the sorted support.

    Two measures on the same grid (equal spacing and node count) are
    subtracted node by node in O(n), and the nodes where they agree drop
    out of the support; measures on different grids are merged by sorting
    all their support points.  Both give the same floats.  The support has
    no size limit.  The dynamic program does numpy work per long same-sign
    run of the difference and Python work per point and per move of the
    peak in the short runs between them (``_chain_max``).
    """
    if mu.h == nu.h and mu.node_count == nu.node_count:
        locs, wts = _same_grid_difference(mu, nu)
    else:
        l1, w1 = _support_points(mu)
        l2, w2 = _support_points(nu)
        locs, inv = np.unique(np.concatenate([l1, l2]), return_inverse=True)
        wts = (np.bincount(inv[:l1.size], weights=w1, minlength=locs.size)
               - np.bincount(inv[l1.size:], weights=w2, minlength=locs.size))
    keep = wts != 0.0
    if not keep.any():
        return 0.0
    return _chain_max(locs[keep], wts[keep])


# -- CSV files ----------------------------------------------------------------

_BLOCK = 4096  # rows formatted per block
_WIDTH = 24  # bytes of the longest %.17g text, as in "-1.2345678901234567e-300"
_FAST = (1e-280, 1e280)  # |x| the scaling handles without overflow or underflow
_E_LO, _E_HI = -281, 281  # decimal exponents it scales by, its correction included
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_TIE = 1e-9  # a fraction this close to 1/2 is left to %
_DEFER = 1 << 12  # group key of the rows that % formats, above every exponent's key
_tables = None  # built by _format_tables on first use
# The formatted grid of one spacing per process: (g, node count, per block
# of _BLOCK nodes the _format17 matrix of arange(n) * g).  It is a function
# of g alone and is replaced whole, never changed in place, so callers
# sharing it, threads included, write what they would without it.
_grid = (math.nan, 0, ())


def _format_tables():
    """The formatter's lookup tables, built once per process.

    ``quads[i]`` is the four ASCII digits of ``i < 10**4`` as one uint32
    (first digit in the lowest byte) and ``zeros[i]`` their trailing zero
    count.  Column ``j`` of ``powers`` is, for ``k = 16 - (_E_HI - j)``,
    the float ``hi`` nearest ``10**k``, its Veltkamp halves, and the float
    nearest the remainder ``10**k - hi``, all found with Python integers.
    Row L of ``masks`` keeps the first L bytes of a ``_WIDTH``-byte row.
    """
    global _tables
    if _tables is None:
        digits = np.indices((10,) * 4).reshape(4, -1).T
        quads = (digits + 48).astype(np.uint8, order="C").view("<u4").ravel()
        zeros = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
        powers = []
        for k in range(16 - _E_HI, 17 - _E_LO):
            if k >= 0:
                hi = float(10 ** k)
                lo = float(10 ** k - int(hi))
            else:
                hi = 1 / 10 ** -k
                num, den = hi.as_integer_ratio()
                lo = (den - num * 10 ** -k) / (den * 10 ** -k)
            c = hi * _SPLIT
            head = c - (c - hi)
            powers.append((hi, head, hi - head, lo))
        keep = np.arange(_WIDTH) < np.arange(_WIDTH + 1)[:, None]
        masks = (keep * 255).astype(np.uint8).view(np.uint64)
        _tables = quads, zeros, np.array(powers).T.copy(), masks
    return _tables


def _scale(a: np.ndarray, E: np.ndarray):
    """``a * 10**(16 - E)`` as an int64 D plus a fraction f in [-1/2, 1/2].

    The product is ``p + q``: p is the float product with the head ``hi``
    of the power, q its exact error (Dekker's TwoProduct) plus ``a`` times
    the power's remainder.  For ``a * 10**(16 - E)`` in [1e16, 1e17], p is
    an integer below 2**57, and q is within 1e-14 of the exact rest, so D =
    p + rint(q) is the nearest integer unless f lies within that of 1/2.
    """
    hi, head, tail, lo = _format_tables()[2][:, _E_HI - E]
    p = a * hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    q = ((ah * head - p) + ah * tail + al * head) + al * tail + a * lo
    r = np.rint(q)
    return p.astype(np.int64) + r.astype(np.int64), q - r


def _out_of_range(D: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Whether D + f lies below 1e16 or D above 1e17, each a wrong exponent."""
    return (D < 10 ** 16) | ((D == 10 ** 16) & (f < 0.0)) | (D > 10 ** 17)


def _decimal17(v: np.ndarray):
    """The 17-digit decimal of every x of ``v``: mantissa D, exponent E, and the rows left to ``%``.

    For a nonzero x that is not deferred, D in [1e16, 1e17) and E are the
    digits and exponent that ``'%.17g' % x`` prints: |x| rounded to 17
    significant digits is D * 10**(E - 16).  A zero has D = E = 0.

    **Exactness.**  E = floor(log10|x|) comes from ``np.log10``, and
    ``_scale`` rounds |x| * 10**(16 - E) to the integer D, exact to 1e-14 of
    a unit.  When D + f falls below 1e16 or D above 1e17, ``log10`` was off
    by one: E moves once and the row is scaled again.  D = 1e17 is a
    rounding carry into the next decade, and becomes 1e16 with E + 1.

    **Deferral.**  A row is left to ``%`` when x is inf or nan, when |x|
    lies outside [1e-280, 1e280] (where the scaling could overflow or
    underflow), when the corrected exponent is still out of range, or when
    f lies within 1e-9 of 1/2: ties and near-ties, which ``%`` rounds half
    to even and where 1e-14 could decide the side.  Both zeros stay.
    """
    a = np.abs(v)
    fast = (a >= _FAST[0]) & (a <= _FAST[1])
    a = np.where(fast, a, 1.0)
    E = np.floor(np.log10(a)).astype(np.int64)
    D, f = _scale(a, E)
    bad = _out_of_range(D, f)
    redo = np.flatnonzero(bad)
    if redo.size:
        E[redo] += np.where(D[redo] > 10 ** 17, 1, -1)
        D[redo], f[redo] = _scale(a[redo], E[redo])
        bad[redo] = _out_of_range(D[redo], f[redo])
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    E[carry] += 1
    zero = v == 0.0
    defer = ~zero & (~fast | bad | (np.abs(np.abs(f) - 0.5) < _TIE))
    D[zero | defer] = E[zero | defer] = 0
    return D, E, defer


def _format17(v: np.ndarray) -> np.ndarray:
    """The NUL-padded ASCII of ``'%.17g' % x`` for every x of ``v``, as an (n, 24) uint8 matrix.

    The digits and exponent come from ``_decimal17``; ``%`` formats only
    the rows it defers.  Rows are grouped by (E, sign), and each group is
    laid out with slice copies in ``%g``'s form: fixed notation for -4 <=
    E < 17, else ``d.ddde±XX``, with trailing zeros and a bare ``.``
    dropped; a zero is ``0`` or ``-0``.  The digits come from the 4-digit
    tables of ``_format_tables``.  The bytes past each row's length are
    zeroed, then the exponent suffix is written at that length.
    """
    v = np.ascontiguousarray(v, dtype=float)
    m = v.size
    out = np.zeros((m, _WIDTH), np.uint8)
    if not m:
        return out
    quads, zeros, _, masks = _format_tables()
    D, E, defer = _decimal17(v)
    neg = np.signbit(v)
    key = np.where(D == 0, neg, (E - _E_LO + 1) * 2 + neg)  # (E, sign); 0 and 1 for zeros
    key[defer] = _DEFER
    order = None
    if not (key[1:] >= key[:-1]).all():
        order = np.argsort(key, kind="stable")
        key, D = key[order], D[order]

    d0 = D // 10 ** 16
    r = D - d0 * 10 ** 16
    groups = np.empty((m, 4), np.int64)
    for j, unit in enumerate((10 ** 12, 10 ** 8, 10 ** 4)):
        groups[:, j] = r // unit
        r -= groups[:, j] * unit
    groups[:, 3] = r
    digits = np.empty((m, 17), np.uint8)
    digits[:, 0] = d0 + 48
    digits[:, 1:] = quads[groups].view(np.uint8)
    tz = zeros[groups]  # 4 for an all-zero group; D's first digit is never 0
    nd = 17 - (tz[:, 3] + (tz[:, 3] == 4) * (tz[:, 2] + (tz[:, 2] == 4) * (
        tz[:, 1] + (tz[:, 1] == 4) * tz[:, 0])))  # significant digits

    length = np.empty(m, np.int64)
    suffixes = []
    cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, m]):
        k = int(key[lo])
        o, d, n = out[lo:hi], digits[lo:hi], nd[lo:hi]
        if k == _DEFER:
            rows = v[lo:hi] if order is None else v[order[lo:hi]]
            for i, x in enumerate(rows.tolist()):
                text = ("%.17g" % x).encode("ascii")
                o[i, :len(text)] = np.frombuffer(text, np.uint8)
                length[lo + i] = len(text)
            continue
        s = k & 1
        if s:
            o[:, 0] = 45
        if k < 2:
            o[:, s] = 48
            length[lo:hi] = s + 1
            continue
        e = k // 2 + _E_LO - 1
        if 0 <= e < 17:  # ddd.ddd
            o[:, s:s + e + 1] = d[:, :e + 1]
            o[:, s + e + 1] = 46
            o[:, s + e + 2:s + 18] = d[:, e + 1:]
            kept = np.maximum(n, e + 1)
            length[lo:hi] = s + kept + (kept > e + 1)
        elif -4 <= e < 0:  # 0.000ddd
            o[:, s:s + 1 - e] = 48
            o[:, s + 1] = 46
            o[:, s + 1 - e:s + 18 - e] = d
            length[lo:hi] = s + 1 - e + n
        else:  # d.ddde±XX
            o[:, s] = d[:, 0]
            o[:, s + 1] = 46
            o[:, s + 2:s + 18] = d[:, 1:]
            length[lo:hi] = s + n + (n > 1)
            suffixes.append((lo, hi, e))
    out.view(np.uint64)[...] &= np.take(masks, length, axis=0)
    for lo, hi, e in suffixes:
        suffix = np.frombuffer(b"e%+03d" % e, np.uint8)
        cols = length[lo:hi, None] + np.arange(suffix.size)
        out[np.arange(lo, hi)[:, None], cols] = suffix
    if order is not None:
        out[order] = out.copy()
    return out


def _grid_blocks(g: float, n: int) -> tuple:
    """The ``_format17`` matrices of ``arange(n) * g``, one per block of ``_BLOCK`` nodes.

    A spacing's entry grows on demand (a partial last block is formatted
    again) and holds at least n nodes; a new spacing replaces it.
    """
    global _grid
    spacing, size, blocks = _grid
    if spacing != g:
        size, blocks = 0, ()
    if size < n:
        first = size // _BLOCK
        blocks = blocks[:first] + tuple(_format17(np.arange(s, min(s + _BLOCK, n)) * g)
                                        for s in range(first * _BLOCK, n, _BLOCK))
        _grid = (g, n, blocks)
    return blocks


def _write_rows(fh, row: str, *columns) -> None:
    """Write ``row % values`` for every index of the equal-length ``columns``.

    ``row`` is a ``%``-template holding one ``%.17g`` field per column and
    ending in a newline (it may span several lines).  A column given as a
    number g stands for the grid ``arange(n) * g``, n being the length of
    the other columns; its matrices come from ``_grid_blocks``, so files
    with the same grid spacing format it once per process.  Every other
    column is formatted by ``_format17``, which writes the bytes of
    ``%.17g`` for every value (``%`` itself formats only the rows it
    cannot decide).  Each block of ``_BLOCK`` rows is the template's
    literal bytes and the columns' matrices side by side, with the NUL
    padding dropped, written at once: every CSV artifact shares this one
    writer.
    """
    literals = [np.frombuffer(part.encode("ascii"), np.uint8) for part in row.split("%.17g")]
    n = next(np.size(c) for c in columns if np.ndim(c))
    columns = [np.ascontiguousarray(c, dtype=float) if np.ndim(c) else _grid_blocks(c, n)
               for c in columns]
    for s in range(0, n, _BLOCK):
        m = min(_BLOCK, n - s)
        pieces = [np.broadcast_to(literals[0], (m, literals[0].size))]
        for c, literal in zip(columns, literals[1:]):
            pieces.append(c[s // _BLOCK][:m] if isinstance(c, tuple) else _format17(c[s:s + m]))
            pieces.append(np.broadcast_to(literal, (m, literal.size)))
        block = np.concatenate(pieces, axis=1)
        fh.write(block[block != 0].tobytes().decode("ascii"))


class _TaggedFile:
    """A binary file that takes text, keeping the byte count and CRC-32 of what it wrote."""

    def __init__(self, fh):
        self.fh, self.size, self.crc = fh, 0, 0

    def write(self, text: str) -> None:
        data = text.encode("ascii")
        self.fh.write(data)
        self.size += len(data)
        self.crc = zlib.crc32(data, self.crc)


# A snapshot's twin is the file ``<snapshot>.bin``: three little-endian
# uint64 (the CSV's byte length, the CSV's CRC-32, the payload's CRC-32),
# then the float64 payload h, atom count, jump count, density, atoms
# (location, weight) and jumps (x, left, right).
_TWIN_SUFFIX = ".bin"
_TAG_BYTES = 24
_CHUNK = 1 << 20  # CSV bytes per CRC read


def write_snapshot(mu: HybridMeasure, path) -> None:
    """Write the measure as ``kind,x,value`` CSV (17 significant digits), plus its twin.

    One ``density`` row per grid node (the stored node value), then one
    ``atom`` row per atom, then each jump record as a ``jump_lo`` row and a
    ``jump_hi`` row holding its left and right limit.  Every row has three
    fields, and :func:`read_snapshot` rebuilds the measure exactly.

    The binary twin ``<path>.bin`` is written after the CSV.  It holds the
    measure's float64 values and a tag: the CSV's byte length and CRC-32,
    taken from the bytes as they are written, and the CRC-32 of the values.
    :func:`read_snapshot` loads the twin in place of parsing the CSV while
    the tag matches the CSV.
    """
    jumps = np.array(mu.jumps, dtype=float).reshape(-1, 3)
    atoms = np.array(mu.atoms, dtype=float).reshape(-1, 2)
    with open(path, "wb") as fh:
        out = _TaggedFile(fh)
        out.write("kind,x,value\n")
        _write_rows(out, "density,%.17g,%.17g\n", mu.h, mu.density)
        _write_rows(out, "atom,%.17g,%.17g\n", atoms[:, 0], atoms[:, 1])
        _write_rows(out, "jump_lo,%.17g,%.17g\njump_hi,%.17g,%.17g\n",
                    jumps[:, 0], jumps[:, 1], jumps[:, 0], jumps[:, 2])
    payload = np.concatenate(([mu.h, len(atoms), len(jumps)], mu.density,
                              atoms.ravel(), jumps.ravel())).astype("<f8", copy=False)
    tag = np.array([out.size, out.crc, zlib.crc32(payload)], dtype="<u8").tobytes()
    with open(os.fspath(path) + _TWIN_SUFFIX, "wb") as fh:
        fh.write(tag)
        fh.write(payload)


def _twin_measure(path):
    """The measure in the twin of the snapshot ``path``, or None.

    None unless the twin exists, its payload's CRC-32 matches, its counts
    fit its size, and the CSV's byte length and CRC-32 match the tag.  The
    CSV is read in chunks of ``_CHUNK`` bytes for its CRC and not parsed.
    """
    try:
        with open(os.fspath(path) + _TWIN_SUFFIX, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    if len(raw) < _TAG_BYTES + 3 * 8 or len(raw) % 8:
        return None
    size, crc, payload_crc = np.frombuffer(raw, "<u8", 3).tolist()
    if payload_crc != zlib.crc32(memoryview(raw)[_TAG_BYTES:]):
        return None
    payload = np.frombuffer(raw, "<f8", offset=_TAG_BYTES)
    h, n_atoms, n_jumps = payload[:3].tolist()
    if not (n_atoms.is_integer() and n_jumps.is_integer() and n_atoms >= 0 and n_jumps >= 0):
        return None
    n_atoms, n_jumps = int(n_atoms), int(n_jumps)
    nodes = payload.size - 3 - 2 * n_atoms - 3 * n_jumps
    if nodes < 2:
        return None
    got_size = got_crc = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK):
            got_size += len(chunk)
            got_crc = zlib.crc32(chunk, got_crc)
    if (got_size, got_crc) != (size, crc):
        return None
    a = 3 + nodes
    j = a + 2 * n_atoms
    return HybridMeasure(h, payload[3:a], payload[a:j].reshape(-1, 2).tolist(),
                         payload[j:].reshape(-1, 3).tolist())


def _check_ascii(line: str, ln: int) -> None:
    """Raise the ``MeasureError`` of a line holding a non-ASCII byte.

    Snapshots are decoded as ASCII with ``surrogateescape``, so a byte b
    above 0x7f reads as the character U+DC00 + b, which no check accepts.
    """
    if not line.isascii():
        bad = next(c for c in line if not c.isascii())
        raise MeasureError(f"line {ln}: non-ASCII byte {ord(bad) - 0xDC00:#04x}")


def _pair_jumps(rows):
    """``(x, left, right)`` records from ``(kind, x, value, line)`` jump rows.

    Taken in file order, the jump rows must alternate ``jump_lo``,
    ``jump_hi``, with both rows of a pair at the same x.
    """
    jumps = []
    pending = None
    for kind, x, v, ln in rows:
        if pending is None:
            if kind != "jump_lo":
                raise MeasureError(f"line {ln}: jump_hi row without a jump_lo row")
            pending = (x, v, ln)
        elif kind == "jump_hi" and x == pending[0]:
            jumps.append((x, pending[1], v))
            pending = None
        else:
            break
    if pending is not None:
        raise MeasureError(f"line {pending[2]}: jump_lo row without a jump_hi row "
                           "at its x")
    return tuple(jumps)


def read_snapshot(path) -> HybridMeasure:
    """Read a measure written by :func:`write_snapshot`.

    The file is a ``kind,x,value`` header and rows of the kinds ``density``
    (one per grid node, in increasing x), ``atom``, and ``jump_lo`` /
    ``jump_hi`` pairs (one pair per jump record: its left and right limit at
    the node x).  Blank lines and whitespace around a line are ignored, rows
    of different kinds may come in any order, and files without jump rows
    read as measures without jump records.  Values are parsed as Python
    ``float`` does, and a round trip through :func:`write_snapshot` is exact.
    A line holding a byte outside ASCII is a bad line.

    When the snapshot's binary twin (``<path>.bin``, written by
    :func:`write_snapshot`) is intact and its tag matches the CSV's byte
    length and CRC-32, the measure is built from the twin's values, which
    are the ones the parser would read.  Otherwise (no twin, a short or
    damaged twin, a CSV rewritten or edited since) the CSV is parsed, one
    line at a time, and the first bad line is the one reported.
    """
    mu = _twin_measure(path)
    if mu is not None:
        return mu
    xs, vs, atoms, jump_rows = [], [], [], []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        _check_ascii(header, 1)
        if header != "kind,x,value":
            raise MeasureError(f"bad snapshot header: {header!r}")
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            _check_ascii(line, ln)
            parts = line.split(",")
            if len(parts) != 3:
                raise MeasureError(f"line {ln}: expected 3 fields")
            kind, x, v = parts
            try:
                x, v = float(x), float(v)
            except ValueError as exc:
                raise MeasureError(f"line {ln}: {exc}") from exc
            if not (math.isfinite(x) and math.isfinite(v)):
                raise MeasureError(f"line {ln}: non-finite value")
            if kind == "density":
                xs.append(x)
                vs.append(v)
            elif kind == "atom":
                atoms.append((x, v))
            elif kind == "jump_lo" or kind == "jump_hi":
                jump_rows.append((kind, x, v, ln))
            else:
                raise MeasureError(f"line {ln}: unknown kind {kind!r}")
    jumps = _pair_jumps(jump_rows)
    if len(xs) < 2:
        raise MeasureError("snapshot needs at least two density nodes")
    xs = np.array(xs)
    h = float(xs[1] - xs[0])
    if h <= 0.0:
        raise MeasureError("snapshot nodes must increase")
    if np.abs(xs - np.arange(xs.size) * h).max() > _SNAP * max(1.0, float(xs[-1])):
        raise MeasureError("snapshot grid is not uniform")
    return HybridMeasure(h, np.array(vs), tuple(atoms), jumps)
