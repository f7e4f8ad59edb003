"""Composite Gauss-Legendre quadrature along polylines, with an optional
branch-tracked logarithm mode used for integrals of log L and for
monodromy diagnostics.

Both entry points run one refinement loop, `_refine`: the panels are
doubled uniformly until two successive levels agree, that is until
|I_k - I_(k-1)| <= max(tol, tol |I_k|) with tol = cfg.quad_tol, and that
difference is reported as the error estimate.  Branch tracking walks the
unwrapped logarithm through the ordered node sequence and also requires its
largest imaginary step to stay below pi/2.  A result that is still not
accepted after cfg.max_refinements doublings raises QuadratureNotConverged
(BranchStepTooLarge when the branch step blocked it), a level sum that is
not finite raises it at once, and no unconverged value is returned.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .config import EvalConfig, DEFAULT_CONFIG
from .errors import BranchStepTooLarge, DomainError, QuadratureNotConverged

__all__ = ["QuadResult", "integrate_polyline", "tracked_log_polyline",
           "gl_rule"]

TWO_PI = 2.0 * math.pi


@lru_cache(maxsize=8)
def gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    levels: int
    panels: int


def _panel_points(waypoints, level: int, base_len: float, n: int):
    """Ordered GL nodes and complex weights along the polyline."""
    x, w = gl_rule(n)
    pts: list[complex] = []
    wts: list[complex] = []
    total_panels = 0
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        seg = b - a
        length = abs(seg)
        panels = max(1, math.ceil(length / base_len)) * (1 << level)
        total_panels += panels
        for p in range(panels):
            u0 = a + seg * (p / panels)
            u1 = a + seg * ((p + 1) / panels)
            mid = (u0 + u1) / 2.0
            half = (u1 - u0) / 2.0
            pts.extend(mid + half * xi for xi in x)
            wts.extend(half * wi for wi in w)
    return pts, wts, total_panels


def _refine(level_sum: Callable[[list, list], tuple[complex, float]],
            waypoints, cfg: EvalConfig, base_len: float) -> QuadResult:
    """Double the panels until two levels agree and the branch step of
    level_sum(nodes, weights) -> (value, step) is below pi/2, or raise."""
    waypoints = [complex(u) for u in waypoints]
    if len(waypoints) < 2:
        raise DomainError("polyline needs at least two waypoints")
    tol = cfg.quad_tol
    prev = None
    for level in range(cfg.max_refinements + 1):
        pts, wts, panels = _panel_points(waypoints, level, base_len,
                                         cfg.gl_nodes)
        val, step = level_sum(pts, wts)
        if not cmath.isfinite(val):
            raise QuadratureNotConverged(
                f"level {level} sum is {val}; integrand not finite on path")
        if prev is not None:
            delta = abs(val - prev)
            if step < 0.5 * math.pi and delta <= max(tol, tol * abs(val)):
                return QuadResult(val, delta, level, panels)
        prev = val
    if step >= 0.5 * math.pi:
        raise BranchStepTooLarge(
            f"branch tracking step of {step:.3f} in Im(log) even at "
            f"{panels} panels; path too close to a zero or pole")
    raise QuadratureNotConverged(
        f"levels still differ by {delta:.3e} (tol {tol:.1e}) after "
        f"{cfg.max_refinements} doublings, {panels} panels")


def integrate_polyline(f: Callable[[complex], complex], waypoints,
                       cfg: EvalConfig = DEFAULT_CONFIG, *,
                       base_len: float = 0.5) -> QuadResult:
    """Integral of f along the polyline through the given waypoints."""

    def level_sum(pts, wts):
        return sum(wi * f(pt) for pt, wi in zip(pts, wts)), 0.0

    return _refine(level_sum, waypoints, cfg, base_len)


def tracked_log_polyline(wf: Callable[[complex], complex], waypoints,
                         cfg: EvalConfig = DEFAULT_CONFIG, *,
                         kernel: Callable[[complex], complex] | None = None,
                         anchor: complex | None = None,
                         base_len: float = 0.5) -> QuadResult:
    """Integral of kernel(xi) * log w(xi) along the polyline, with the
    logarithm continued continuously from the start of the path.

    anchor, when given, is the known branch value of log w at the first
    waypoint; otherwise the principal value there seeds the walk (for
    closed loops the choice drops out of the integral).
    """

    def level_sum(pts, wts):
        log = cmath.log(wf(complex(waypoints[0])))
        if anchor is not None:
            log += TWO_PI * 1j * round((anchor - log).imag / TWO_PI)
        max_step = 0.0
        total: complex = 0.0
        for pt, wt in zip(pts, wts):
            raw = cmath.log(wf(pt))
            adj = raw + TWO_PI * 1j * round((log - raw).imag / TWO_PI)
            max_step = max(max_step, abs((adj - log).imag))
            log = adj
            k = 1.0 if kernel is None else kernel(pt)
            total += wt * k * log
        return total, max_step

    return _refine(level_sum, waypoints, cfg, base_len)
