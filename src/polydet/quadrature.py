"""Composite Gauss-Legendre quadrature along polylines, with an optional
branch-tracked logarithm mode used for integrals of log L and for
monodromy diagnostics.

Integrands take the array of a level's nodes and return the array of their
values (`f(ndarray) -> ndarray`), so each refinement level costs one call;
the evaluators below them (L-values, L'/L) split large node arrays into
kernel chunks themselves.  Both entry points run one refinement loop,
`_refine`: the panels are doubled uniformly until two successive levels
agree, that is until |I_k - I_(k-1)| <= max(tol, tol |I_k|) with
tol = cfg.quad_tol, and that difference is reported as the error estimate.
A level's weighted values are summed left to right.  Branch tracking
unwraps the logarithm of the level's values along the ordered nodes and
also requires its largest imaginary step to stay below pi/2.  A result
that is still not accepted after cfg.max_refinements doublings raises
QuadratureNotConverged (BranchStepTooLarge when the branch step blocked
it), a level sum or tracked logarithm that is not finite raises it at once,
and no unconverged value is returned.
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
    """Ordered GL nodes and complex weights along the polyline, as arrays."""
    x, w = gl_rule(n)
    pts, wts = [], []
    total_panels = 0
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        seg = b - a
        panels = max(1, math.ceil(abs(seg) / base_len)) * (1 << level)
        total_panels += panels
        p = np.arange(panels)
        u0 = a + seg * (p / panels)
        u1 = a + seg * ((p + 1) / panels)
        half = ((u1 - u0) / 2.0)[:, None]
        pts.append((((u0 + u1) / 2.0)[:, None] + half * x).ravel())
        wts.append((half * w).ravel())
    return np.concatenate(pts), np.concatenate(wts), total_panels


def _sum_in_order(terms: np.ndarray) -> complex:
    """Left-to-right sum of a level's weighted values, node by node."""
    return complex(np.cumsum(terms)[-1])


def _refine(level_sum: Callable[[np.ndarray, np.ndarray], tuple[complex, float]],
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


def integrate_polyline(f: Callable[[np.ndarray], np.ndarray], waypoints,
                       cfg: EvalConfig = DEFAULT_CONFIG, *,
                       base_len: float = 0.5) -> QuadResult:
    """Integral of f along the polyline through the given waypoints; f maps
    the array of a level's nodes to the array of its values."""

    def level_sum(pts, wts):
        return _sum_in_order(wts * f(pts)), 0.0

    return _refine(level_sum, waypoints, cfg, base_len)


def tracked_log_polyline(wf: Callable[[np.ndarray], np.ndarray], waypoints,
                         cfg: EvalConfig = DEFAULT_CONFIG, *,
                         kernel: Callable[[np.ndarray], np.ndarray] | None = None,
                         anchor: complex | None = None,
                         base_len: float = 0.5) -> QuadResult:
    """Integral of kernel(xi) * log w(xi) along the polyline, with the
    logarithm continued continuously from the start of the path.

    wf and kernel map a node array to a value array; each level evaluates
    wf once, at the first waypoint followed by the level's nodes.  anchor,
    when given, is the known branch value of log w at the first waypoint;
    otherwise the principal value there seeds the walk (for closed loops
    the choice drops out of the integral).
    """

    def level_sum(pts, wts):
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = np.log(wf(np.concatenate(([complex(waypoints[0])], pts))))
        if not np.isfinite(raw).all():
            raise QuadratureNotConverged(
                "log w is not finite at a node; branch walk cannot continue")
        # the walk adds to each node the multiple of 2 pi i that lands it
        # nearest its predecessor: a cumulative sum of rounded jumps
        jumps = np.round(-np.diff(raw.imag) / TWO_PI)
        turns = np.concatenate(([0.0], np.cumsum(jumps)))
        if anchor is not None:
            turns += round((anchor - raw[0]).imag / TWO_PI)
        log = raw + TWO_PI * 1j * turns
        max_step = float(np.abs(np.diff(log.imag)).max())
        k = 1.0 if kernel is None else kernel(pts)
        return _sum_in_order(wts * k * log[1:]), max_step

    return _refine(level_sum, waypoints, cfg, base_len)
