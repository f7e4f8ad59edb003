"""Locally adaptive Gauss-Kronrod quadrature along polylines, with a
branch-tracked logarithm mode for the monodromy defect.

Every panel carries the 21-node Kronrod extension of the 10-node
Gauss-Legendre rule (G10/K21, the pair of QUADPACK's qk21), computed once
at import by Laurie's algorithm.  Both entry points run one loop, `_refine`.
It starts from equal panels of length at most base_len on each segment of
the path, a layout built once per path and base_len (`_start`).  Each pass
evaluates the integrand once, on the 21 nodes of every panel that is not
yet settled: integrands take the node array (read-only) and return the
array of their values (`f(ndarray) -> ndarray`), and the evaluators
below them (L-values, L'/L) split large arrays into kernel chunks
themselves.  A panel settles when its Kronrod-Gauss difference |K - G| is
at most its length share of max(tol, tol |I|), with tol = QUAD_TOL and
I the current sum of the panels' Kronrod values in path order; the other
panels are bisected.  The error a panel reports is max(|K - G|,
50 eps sum |w_K f|): the difference floored by the rounding of the
integrand's own values (QUADPACK's roundoff term), so a systematic error in
every node is charged too.  The error estimate is the sum of the panel
errors, and one above max(tol, tol |I|), which bisection cannot lower
once every panel has settled, raises QuadratureNotConverged.

Branch tracking keeps the logarithm of every panel's node values in path
order, walks the branch over all of them again on each pass, and also
leaves unsettled a panel whose largest imaginary step is pi/2 or more.  A
panel that is still unsettled after MAX_REFINEMENTS bisections raises
QuadratureNotConverged (BranchStepTooLarge when the branch step blocked
it), a sum or tracked logarithm that is not finite raises it at once, and
no unconverged value is returned.  `_refine` reads the two module
constants at call time; only `integrate_polyline` takes a `cfg`, an
`EvalConfig` whose two fields override them, for a tighter run.

`laguerre_rule`, the Gauss rule of x^alpha e^-x on [0, inf), is a fixed
rule, not a second adaptive loop, for `poly_l`'s Euler tail and `_abel_plana`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import BranchStepTooLarge, DomainError, QuadratureNotConverged

__all__ = ["QuadResult", "integrate_polyline", "tracked_log_polyline",
           "kronrod_rule", "laguerre_rule"]

TWO_PI = 2.0 * math.pi
# a panel settles at its length share of max(QUAD_TOL, QUAD_TOL |I|), and
# one still open after MAX_REFINEMENTS bisections raises
QUAD_TOL = 1e-10
MAX_REFINEMENTS = 12
# QUADPACK's roundoff floor: a panel's error is at least this many units of
# rounding of the sum of |w_K f| over its nodes
_ROUNDOFF = 50.0 * np.finfo(float).eps


def kronrod_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (2n+1)-point Gauss-Kronrod rule on [-1, 1]: ascending nodes,
    their Kronrod weights, and the n-point Gauss weights, which sit on the
    odd-indexed nodes (zero elsewhere).

    Laurie's algorithm (Math. Comp. 66, 1997), in long double, extends the
    Legendre recurrence (every a_k is 0) to the Jacobi-Kronrod matrix, whose
    Gauss rule (`_gauss_rule`) is the Kronrod rule, each weight rounded once.
    It avoids numpy.polynomial, whose import costs several ms per CLI start.
    """
    a = np.zeros(2 * n + 1)
    b = np.zeros(2 * n + 1, np.longdouble)
    k = np.arange(1, (3 * n + 1) // 2 + 1)
    b[0] = 2.0
    b[k] = k * k / (4.0 * k * k - np.longdouble(1.0))
    s, t = np.zeros((2, n // 2 + 2), np.longdouble)
    t[1] = b[n + 1]
    # Laurie's inner loops over k are running sums of terms that read s
    # before it is overwritten: one np.cumsum per step of m
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:n // 2 + 2] = s[0:n // 2 + 1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - m + k
        s[j] = np.cumsum(b[m - k] * s[j + 1] - b[k + n + 1] * s[j])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1]] / s[j[-1] + 1]
        s, t = t, s
    nodes, wk = _gauss_rule(a, b)
    wg = np.zeros(2 * n + 1)
    wg[1::2] = _gauss_rule(a[:n], b[:n])[1]   # still Legendre's entries
    # exact symmetry about 0
    return 0.5 * (nodes - nodes[::-1]), 0.5 * (wk + wk[::-1]), wg


@lru_cache(maxsize=None)
def laguerre_rule(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule of the weight x^alpha e^-x on [0, inf) (Jacobi
    matrix: diagonal 2k + alpha + 1, off-diagonal sqrt(k (k + alpha))):
    ascending nodes and weights summing to 1, i.e. divided by Gamma(alpha +
    1), each to full relative accuracy.  Cached, read-only arrays."""
    k = np.arange(n, dtype=float)
    b = k * (k + alpha)
    b[0] = 1.0
    return _read_only(*_gauss_rule(2.0 * k + alpha + 1.0, b))


def _gauss_rule(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the Gauss rule of the Jacobi matrix J
    with diagonal a and off-diagonal sqrt(b[1:]); b[0] is the total weight.
    Sturm counts (negative pivots of J - t; Barth, Martin & Wilkinson 1967),
    three rounds of 16 a node, bracket the nodes; Newton steps on the monic
    p_(k+1) = (x - a_k) p_k - b_k p_(k-1) in long double (in double the
    smallest 40-point Laguerre node was 83 ulps off) settle them; weights
    are 1 / sum_(k<n) p_k(x)^2 / (b_0 ... b_k), a sum nothing cancels."""
    n, c = a.size, b.astype(float)      # the counts need no long double
    r = 2.0 * np.sqrt(c[1:]).max(initial=0.0)      # Gershgorin radius bound
    lo, width = np.array([a.min() - r]), np.ptp(a) + 2.0 * r
    with np.errstate(divide="ignore"):      # a zero pivot reads as +0
        for ways in (16 * n, 16, 16):
            width /= ways + 1
            d = a[:, None, None] - lo[:, None] - width * np.arange(1, ways + 1)
            for k in range(1, n):
                d[k] -= c[k] / d[k - 1]
            below = (d < 0).sum(axis=0)
            lo = lo + width * (below <= np.arange(n)[:, None]).sum(axis=1)
    x = (lo + width / 2).astype(np.longdouble)
    p = np.zeros((n + 2, 2, n), np.longdouble)     # p_(k-1) and p_(k-1)'
    p[1, 0] = 1.0
    for _ in range(4):      # the fourth pass also gives the weights
        u = x - a[:, None]
        for k in range(n):
            p[k + 2] = u[k] * p[k + 1] - b[k] * p[k]
            p[k + 2, 1] += p[k + 1, 0]
        x -= p[n + 1, 0] / p[n + 1, 1]
    squares = p[1:n + 1, 0] ** 2 / np.cumprod(b.astype(np.longdouble))[:, None]
    return x.astype(float), (1.0 / squares.sum(axis=0)).astype(float)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cached rule is shared by all callers."""
    for v in arrays:
        v.flags.writeable = False
    return arrays


_X, _WK, _WG = _read_only(*kronrod_rule(10))
_W, = _read_only(np.stack([_WK, _WG], axis=1))


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float
    levels: int         # passes made; 1 when every starting panel settled
    panels: int         # panels at acceptance


def _path(waypoints) -> list[complex]:
    waypoints = [complex(u) for u in waypoints]
    if len(waypoints) < 2:
        raise DomainError("polyline needs at least two waypoints")
    return waypoints


def _sum_in_order(terms: np.ndarray) -> complex:
    """Left-to-right sum of the panels' values, panel by panel."""
    return complex(np.cumsum(terms)[-1])


@lru_cache(maxsize=4)
def _start(path: bytes, base_len: float) -> tuple:
    """The starting layout of the polyline whose waypoints are the complex
    array with these bytes (bytes keep the sign of a zero): equal panels of
    length at most base_len on each segment, as lo, hi, their half widths,
    their shares of the path's length and their (panels x 21) nodes, and
    that length.  Cached, read-only arrays: the Hankel ray and circle
    start alike on every call."""
    waypoints = np.frombuffer(path, dtype=np.complex128).tolist()
    lo, hi = [], []
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        p = np.arange(max(1, math.ceil(abs(b - a) / base_len)))
        lo.append(a + (b - a) * (p / p.size))
        hi.append(a + (b - a) * ((p + 1) / p.size))
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    size = np.abs(hi - lo)
    length = float(size.sum()) or 1.0     # 0 on a point path
    half = (hi - lo) / 2.0
    nodes = ((lo + hi) / 2.0)[:, None] + half[:, None] * _X
    return (*_read_only(lo, hi, half, size / length, nodes), length)


def _refine(evaluate: Callable[[np.ndarray], np.ndarray],
            combine: Callable[[np.ndarray, np.ndarray],
                              tuple[np.ndarray, np.ndarray | float]],
            waypoints: list[complex], cfg, base_len: float) -> QuadResult:
    """Bisect the panels that are not settled until all are, or raise.

    evaluate(nodes) -> values is called once per pass, on the flat nodes of
    the new panels; combine(nodes, values) -> (f, step) maps the stored
    (panels x 21) values of every panel, in path order, to integrand values
    and each panel's largest branch step (0.0 for all of them, untracked).
    """
    lo, hi, half, share, nodes, length = _start(
        np.array(waypoints, dtype=np.complex128).tobytes(), base_len)
    vals = _panels(evaluate(nodes.ravel()), nodes.shape)
    depth = np.zeros(lo.size, dtype=int)
    tol, cap = (QUAD_TOL, MAX_REFINEMENTS) if cfg is None \
        else (cfg.quad_tol, cfg.max_refinements)
    passes = 1
    while True:
        f, step = combine(nodes, vals)
        kg = half[:, None] * (f @ _W)
        value = _sum_in_order(kg[:, 0])
        if not cmath.isfinite(value):
            raise QuadratureNotConverged(
                f"pass {passes} sum is {value}; integrand not finite on path")
        diff = np.abs(kg[:, 0] - kg[:, 1])
        bar = max(tol, tol * abs(value))
        blocked = step >= 0.5 * math.pi
        open_ = blocked | (diff > share * bar)
        if not open_.any():
            err = float(np.maximum(diff, _ROUNDOFF * np.abs(half)
                                   * (np.abs(f) @ _WK)).sum())
            if err > bar:
                raise QuadratureNotConverged(
                    f"error {err:.3e} (rounding floor) above tol {tol:.1e}")
            return QuadResult(value, err, passes, lo.size)
        stuck = open_ & (depth >= cap)
        if (stuck & blocked).any():
            raise BranchStepTooLarge(
                f"branch tracking step of {step[stuck].max():.3f} in Im(log) "
                f"after {cap} bisections; path too close to a zero or pole")
        if stuck.any():
            raise QuadratureNotConverged(
                f"panel error {diff[stuck].max():.3e} still above its share "
                f"of tol {tol:.1e} after {cap} bisections, {lo.size} panels")
        # each open panel becomes two fresh halves, kept in path order
        idx = np.repeat(np.arange(lo.size), np.where(open_, 2, 1))
        first = np.concatenate(([True], idx[1:] != idx[:-1]))
        mid = (lo + hi) / 2.0
        fresh = open_[idx]
        lo = np.where(first, lo[idx], mid[idx])
        hi = np.where(first & fresh, mid[idx], hi[idx])
        depth = depth[idx] + fresh
        half = (hi - lo) / 2.0
        share = np.abs(hi - lo) / length
        new = ((lo + hi) / 2.0)[fresh, None] + half[fresh, None] * _X
        nodes, vals = nodes[idx], vals[idx]
        nodes[fresh] = new
        vals[fresh] = _panels(evaluate(new.ravel()), new.shape)
        passes += 1


def _panels(values: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """An evaluation of a pass's flat nodes (or a scalar), as complex
    panels."""
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (shape[0] * shape[1],):
        values = np.broadcast_to(values, (shape[0] * shape[1],))
    return values.reshape(shape)


def integrate_polyline(f: Callable[[np.ndarray], np.ndarray], waypoints,
                       cfg=None, *, base_len: float = 0.5) -> QuadResult:
    """Integral of f along the polyline through the given waypoints; f maps
    the array of a pass's nodes to the array of its values.  A cfg
    (`EvalConfig`) overrides QUAD_TOL and MAX_REFINEMENTS."""
    def combine(nodes, vals):
        return vals, 0.0

    return _refine(f, combine, _path(waypoints), cfg, base_len)


def tracked_log_polyline(wf: Callable[[np.ndarray], np.ndarray], waypoints,
                         *, base_len: float = 0.5) -> QuadResult:
    """Integral of log w(xi) along the polyline, with the logarithm
    continued continuously from the principal value at the first waypoint
    (on a closed loop the choice drops out of the integral).

    wf maps a node array to a value array; each pass evaluates it once, at
    the new panels' nodes (the first also at the first waypoint).
    """
    wps = _path(waypoints)

    def log_w(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = np.log(np.broadcast_to(wf(x), x.shape))
        if not np.isfinite(raw).all():
            raise QuadratureNotConverged(
                "log w is not finite at a node; branch walk cannot continue")
        return raw

    start = log_w(np.array([wps[0]]))

    def combine(nodes, raw_logs):
        raw = np.concatenate((start, raw_logs.ravel()))
        # the walk adds to each node the multiple of 2 pi i that lands it
        # nearest its predecessor: a cumulative sum of rounded jumps
        jumps = np.round(-np.diff(raw.imag) / TWO_PI)
        turns = np.concatenate(([0.0], np.cumsum(jumps)))
        log = raw + TWO_PI * 1j * turns
        step = np.abs(np.diff(log.imag)).reshape(nodes.shape).max(axis=1)
        return log[1:].reshape(nodes.shape), step

    return _refine(log_w, combine, wps, None, base_len)
