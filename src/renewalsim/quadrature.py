"""Composite Simpson quadrature with forced panel boundaries: the tests' oracle.

No command imports it.  Pinning panel edges to the integrand's known
discontinuities keeps a merely bounded integrand second-order accurate.
"""
from __future__ import annotations

import numpy as np


def composite_simpson(f, a: float, b: float, panels: int, breakpoints=()) -> float:
    """Integrate ``f`` over [a, b] with ``panels`` Simpson panels.

    ``breakpoints`` inside (a, b) become hard panel edges; the panel budget is
    distributed over the resulting segments proportionally to their length.
    ``f`` must accept numpy arrays.
    """
    if b <= a:
        return 0.0
    if panels < 1:
        raise ValueError("panel count must be positive")
    edges = [a]
    for bp in sorted(set(float(p) for p in breakpoints)):
        if a < bp < b:
            edges.append(bp)
    edges.append(b)

    total = 0.0
    span = b - a
    for lo, hi in zip(edges[:-1], edges[1:]):
        seg_panels = max(1, int(round(panels * (hi - lo) / span)))
        x = np.linspace(lo, hi, 2 * seg_panels + 1)
        y = np.asarray(f(x), dtype=float)
        hseg = (hi - lo) / (2 * seg_panels)
        total += hseg / 3.0 * (
            y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()
        )
    return float(total)
