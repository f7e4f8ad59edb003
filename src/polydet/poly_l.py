"""Higher depth L-functions: log L_K^(r)(s; chi) = sum over prime ideals of
(log N)^(1-r) Li_r(chi(P) N^-s).

The Euler route (`poly_l_log_euler`) expands Li_r into its power series,
sums the ideals of norm <= 1000 with the prime-power kernel
`l_functions._prime_power_sum` and the rest as one Gauss-Laguerre integral
of the analytic L'/L, which the continuation below and the direct
determinant route also read.  Depth 1 recovers the ordinary L-function.
Successive s-derivatives walk down the depth ladder: d/ds log L^(r) =
-log L^(r-1), so the (r-1)-st derivative of log L^(r) is (-1)^(r-1) log L
and the r-th is (-1)^(r-1) L'/L.  Every depth r >= 1 therefore extends
left of Re(s) = 1 by Taylor's formula at the real anchor 3 with one
integral of L'/L along an explicit path (`poly_l_log_continued`), which
must not cross the cuts from the pole and the zeros (`_check_cuts`).
"""

from __future__ import annotations

import cmath
import math
import warnings
from functools import lru_cache

import numpy as np

from .config import EvalConfig, DEFAULT_CONFIG
from .errors import (DomainError, NonClosedLoop, PathLeavesOmega,
                     UnsupportedCharacter, overflow_is_domain_error)
from .fields_and_characters import HeckeCharacter, NumberField
from .l_functions import (_SERIES_MIN_RE, PathSpec, _check_pair,
                          _ideal_arrays, _prime_power_sum, l_log_derivative,
                          l_value)
from .quadrature import (_ROUNDOFF, integrate_polyline, laguerre_rule,
                         tracked_log_polyline)
from .special_functions import Result
from .zero_data import scan_ordinates

__all__ = [
    "poly_l_euler",
    "poly_l_log_euler",
    "poly_l_ladder_residual",
    "poly_l_log_continued",
    "poly_l_continued",
    "erh_monodromy_defect",
]


# Norm bound X of the Euler route's term-by-term sum; the ideals above it
# enter through one Gauss-Laguerre integral of L'/L (`poly_l_log_euler`)
_EULER_NORM = 1000
_LOG_X = math.log(_EULER_NORM)
# Laguerre rule sizes: the larger gives the tail, the gap to the smaller
# its error; nodes below _MIN_WEIGHT of a rule's largest weight are dropped
_LAGUERRE_SIZES = (20, 30)
_MIN_WEIGHT = 1e-19
# Laguerre nodes per block of the tail's (nodes x ideals) correction: 16 x
# ~170 ideals keep a block's arrays near 40 KB.  All ~41 nodes at once
# took ~430 KB of temporaries per call, which glibc's malloc could hand
# back to the system after each call and fault in again on the next
# (94 against 19 minor faults per closed determinant, and ~8% fewer
# closed determinants a second, on a 2-core x86_64 VM)
_NODE_BLOCK = 16


@lru_cache(maxsize=64)
def _tail_rules(r: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Nodes x and scaled weights v e^x of the Laguerre rules of the weight
    x^(r-1) e^-x, both rules concatenated, and where the larger starts."""
    xs, ws = [], []
    for n in _LAGUERRE_SIZES:
        x, v = laguerre_rule(n, r - 1.0)
        keep = v >= _MIN_WEIGHT * v.max()
        xs.append(x[keep])
        ws.append(np.exp(np.log(v[keep]) + x[keep]))   # e^x alone may overflow
    return np.concatenate(xs), np.concatenate(ws), len(xs[0])


@overflow_is_domain_error
def poly_l_log_euler(fld: NumberField, chi: HeckeCharacter, r: int,
                     s: complex) -> tuple[complex, float, int]:
    """log L^(r)(s) for Re(s) >= 1.02; returns (log, err, X), X = 1000 the
    norm bound of the term-by-term sum.  By int_0^inf tau^(r-1)
    e^(-l tau log NP) dtau = (r-1)! / (l log NP)^r (Froberg, BIT 1968),

        log L^(r)(s) = sum_{NP <= X, l >= 1} (log NP)^(1-r) chi(P)^l NP^(-ls) / l^r
                       - (1/(r-1)!) int_0^inf tau^(r-1) (L'/L)_X(s+tau) dtau,
        (L'/L)_X(v) = (L'/L)(v) + sum_{NP <= X} chi(P) log NP NP^-v
                                                / (1 - chi(P) NP^-v)
                    = -sum_{NP > X, l >= 1} chi(P)^l log NP NP^(-lv).

    With tau = x / log X the integral is (log X)^-r Gamma(r) sum_j v_j e^x_j
    (L'/L)_X(s + x_j / log X), (x_j, v_j) the Gauss-Laguerre rule of the
    weight x^(r-1) e^-x with weights summing to 1, so Gamma(r) cancels.
    The analytic L'/L is read at the nodes of a 20- and a 30-point rule in
    one call and the 30-point value returned; err adds the gap between the
    two rules, the rounding floor 50 eps sum |v e^x f| of the node values
    and that of the term-by-term sum.
    """
    _check_pair(fld, chi)
    if not isinstance(r, int) or r < 1:
        raise DomainError("depth r must be a positive integer")
    s = complex(s)
    if not s.real >= _SERIES_MIN_RE:   # also rejects NaN
        raise DomainError(
            f"Euler route needs Re(s) >= {_SERIES_MIN_RE}, got {s.real}")
    head = _prime_power_sum(fld, chi, s, r, _EULER_NORM)
    norms, logn, chiv = _ideal_arrays(fld, chi, _EULER_NORM)
    x, vex, split = _tail_rules(r)
    v = s + x / _LOG_X
    lld = l_log_derivative(fld, chi, v)
    # chi(P) NP^-v = chi(P) NP^-s NP^(-x / log X), nodes x ideals, summed
    # over the ideals with and without signs, _NODE_BLOCK nodes at a time
    head_p = chiv * np.exp(-s * logn)
    corr = np.empty(len(x), dtype=np.complex128)
    acorr = np.empty(len(x))
    for lo in range(0, len(x), _NODE_BLOCK):
        at = slice(lo, lo + _NODE_BLOCK)
        p = head_p * np.exp(np.multiply.outer(-x[at] / _LOG_X, logn))
        terms = logn * p / (1.0 - p)
        corr[at], acorr[at] = terms.sum(axis=1), np.abs(terms).sum(axis=1)
    f = vex * (lld + corr)
    small, large = f[:split].sum(), f[split:].sum()
    size = np.sum(vex[split:] * (np.abs(lld[split:]) + acorr[split:]))
    # the head's sum |terms| is at most sum (log NP)^(1-r) / (NP^Re(s) - 1)
    head_size = np.sum(logn ** (1 - r) / (norms ** s.real - 1.0))
    err = (abs(large - small) + _ROUNDOFF * size) / _LOG_X ** r \
        + _ROUNDOFF * (1.0 + abs(s.imag) * _LOG_X) * head_size
    return head - large / _LOG_X ** r, float(err), _EULER_NORM


def poly_l_euler(fld: NumberField, chi: HeckeCharacter, r: int,
                 s: complex) -> Result:
    """L^(r)(s; chi) from the Euler sum with its exact tail, valid for
    Re(s) >= 1.02 (`poly_l_log_euler`)."""
    logv, err, _ = poly_l_log_euler(fld, chi, r, s)
    return Result.from_log(logv, err, "euler")


# ---------------------------------------------------------------------------
# Ladder identity


# The ladder differentiates by the trapezoid rule on a circle of this
# radius around s with this many nodes, which converges geometrically for
# an analytic function (Trefethen & Weideman, SIAM Review 56, 2014) and
# has no step to choose.  Its error grows like (radius / distance to the
# singularity at s = 1)^nodes: radius 0.5 at s = 2.2 keeps ~0.7 from
# Re(s) = 1, where radius 1.0 gave 2.8e-6.
_CIRCLE_RADIUS = 0.5
_CIRCLE_NODES = 32


def _circle_derivative(f, s: complex, m: int) -> complex:
    """The m-th derivative of an analytic f at s, from f at the nodes
    s + rho w_k, w_k = e^(2 pi i k / M): Cauchy's integral by the
    trapezoid rule, m! / (M rho^m) sum_k f(s + rho w_k) w_k^(-m)."""
    w = np.exp(2j * math.pi * np.arange(_CIRCLE_NODES) / _CIRCLE_NODES)
    vals = np.array([f(s + _CIRCLE_RADIUS * wk) for wk in w])
    return complex(math.factorial(m) * np.mean(vals * w ** -m)
                   / _CIRCLE_RADIUS ** m)


def poly_l_ladder_residual(fld: NumberField, chi: HeckeCharacter, r: int,
                           s: complex, target_depth: int = 1) -> float:
    """|d^(r-d)/ds^(r-d) log L^(r)(s) - (-1)^(r-d) log L^(d)(s)|, d the
    target depth: r - d successive derivatives of the depth-r logarithm
    reproduce the depth-d logarithm up to sign.

    The derivative is `_circle_derivative` of the Euler route, which
    raises DomainError at a circle node left of Re(s) = 1.02.
    """
    d = target_depth
    if not (isinstance(d, int) and 1 <= d < r):
        raise DomainError("need an integer 1 <= target_depth < r")
    m = r - d
    s = complex(s)
    deriv = _circle_derivative(
        lambda v: poly_l_log_euler(fld, chi, r, v)[0], s, m)
    target = (-1.0) ** m * poly_l_log_euler(fld, chi, d, s)[0]
    return abs(deriv - target)


# ---------------------------------------------------------------------------
# Continuation left of Re(s) = 1


# Taylor's formula gives the same log L^(r)(s) from any real anchor a >=
# 1.5, where |log L(a)| <= log zeta_K(1.5) < pi is on the series branch;
# at 3 the Euler sums' tails are near rounding
_ANCHOR = 3.0
# A path within this of a cut meets it: a scanned zero ordinate can differ
# from a quoted one in its last digits
_CUT_TOL = 1e-9


def _check_cuts(fld: NumberField, chi: HeckeCharacter,
                path: PathSpec) -> bool:
    """Raise PathLeavesOmega if the path meets a cut of the plane on which
    log L^(r) is single valued; return whether it comes within 0.1 of the
    critical line, where the cuts rest on the assumed zero locations.

    The cuts run left from the pole at 1 (principal characters) or the
    rightmost trivial zero -m_v/N_v on the real axis, and from 1/2 +- i
    gamma for each scanned zero ordinate gamma.  A segment meets the line
    Im w = c where it crosses it, or at its left end if it lies along it.
    """
    wps = path.waypoints
    if min(w.real for w in wps) > 1.0:
        return False
    if not chi.is_self_dual:
        raise UnsupportedCharacter(
            "continuation into the strip needs a zero table; only self-dual "
            "characters are scanned automatically")
    height = max(abs(w.imag) for w in wps) + 5.0
    x0 = 1.0 if chi.is_principal else \
        max(-pl.m / pl.nv for pl in chi.arch_places())
    cuts = [(0.0, x0)] + [(c, 0.5) for g in scan_ordinates(fld, chi, height)
                          for c in (g, -g)]
    segments = list(zip(wps[:-1], wps[1:]))
    for a, b in segments:
        lo, hi = sorted((a.imag, b.imag))
        for c, start in cuts:
            if not lo - _CUT_TOL <= c <= hi + _CUT_TOL:
                continue
            if hi - lo <= _CUT_TOL:
                x = min(a.real, b.real)
            else:
                t = min(1.0, max(0.0, (c - a.imag) / (b.imag - a.imag)))
                x = a.real + t * (b.real - a.real)
            if x <= start + _CUT_TOL:
                raise PathLeavesOmega(
                    f"path segment {a} -> {b} crosses the cut Im w = {c} "
                    f"at {complex(x, c)}")
    return any(min(a.real, b.real) <= 0.6 and max(a.real, b.real) >= 0.4
               for a, b in segments)


def poly_l_log_continued(fld: NumberField, chi: HeckeCharacter, r: int,
                         s: complex, cfg: EvalConfig = DEFAULT_CONFIG,
                         path: PathSpec | None = None) -> tuple[complex, float]:
    """log L^(r)(s) for any depth r >= 1 by Taylor's formula at the real
    anchor a = 3; returns (log, err).

        log L^(r)(s) = sum_{k=0}^{r-1} ((-1)^k / k!) (s-a)^k log L^(r-k)(a)
                       + ((-1)^(r-1) / (r-1)!) int_a^s (s-xi)^(r-1) (L'/L)(xi) dxi

    The terms k < r-1 are Euler sums at the anchor, each charged its tail;
    the term k = r-1 is the principal log of the analytic L(a).  The
    integral runs along the path (straight by default), which is checked
    once against the cuts before any L'/L is read (`_check_cuts`); a path
    near the critical line warns.  err adds the tails and the quadrature
    error.
    """
    _check_pair(fld, chi)
    if not isinstance(r, int) or r < 1:
        raise DomainError("depth r must be a positive integer")
    s = complex(s)
    a = _ANCHOR
    if path is None:
        # s at the anchor leaves no remainder integral
        path = PathSpec((complex(a), s)) if abs(s - a) >= 1e-9 else None
    elif abs(path.waypoints[0] - a) > 1e-9 or abs(path.waypoints[-1] - s) > 1e-9:
        raise DomainError("path must run from the anchor 3 to s")
    near_line = path is not None and _check_cuts(fld, chi, path)

    logv = 0.0 + 0.0j
    err = 0.0
    for k in range(r):
        coef = ((-1.0) ** k / math.factorial(k)) * (s - a) ** k
        if k < r - 1:
            lg, tail, _ = poly_l_log_euler(fld, chi, r - k, a)
            err += abs(coef) * tail
        else:
            lg = cmath.log(l_value(fld, chi, a))
        logv += coef * lg
    if path is None:
        return logv, err

    def remainder(xi: np.ndarray) -> np.ndarray:
        return (s - xi) ** (r - 1) * l_log_derivative(fld, chi, xi)

    quad = integrate_polyline(remainder, path.waypoints, cfg)
    if near_line:
        warnings.warn(
            "path within 0.1 of the critical line; continuation there rests "
            "on the assumed zero locations", stacklevel=2)
    sign = (-1.0) ** (r - 1) / math.factorial(r - 1)
    return logv + sign * quad.value, err + abs(sign) * quad.error


def poly_l_continued(fld: NumberField, chi: HeckeCharacter, r: int, s: complex,
                     cfg: EvalConfig = DEFAULT_CONFIG,
                     path: PathSpec | None = None) -> Result:
    """L^(r)(s) for any depth r >= 1, continued from the real anchor 3
    (`poly_l_log_continued`)."""
    logv, err = poly_l_log_continued(fld, chi, r, s, cfg, path)
    return Result.from_log(logv, err, "continued")


def erh_monodromy_defect(fld: NumberField, chi: HeckeCharacter,
                         loop: PathSpec,
                         cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """-contour integral of the tracked log of (xi-1)^eps L(xi) over a loop.

    For a closed loop in Re(s) > 0.55 keeping distance >= 0.05 from s = 1,
    the integrand is analytic and zero-free inside whenever all nontrivial
    zeros in the enclosed region lie on the critical line, making the
    defect vanish.  A zero rho of order m strictly inside contributes
    2 pi i m (rho - xi0) where xi0 is the loop basepoint.
    """
    _check_pair(fld, chi)
    if not loop.is_closed:
        raise NonClosedLoop("monodromy defect needs a closed loop")
    if min(w.real for w in loop.waypoints) <= 0.55:
        raise DomainError("loop must stay in Re(s) > 0.55")
    if loop.min_distance_to(1.0) < 0.05:
        raise DomainError("loop must keep distance >= 0.05 from s = 1")
    eps = chi.epsilon

    def wf(xi: np.ndarray) -> np.ndarray:
        v = l_value(fld, chi, xi)
        return v * (xi - 1.0) ** eps if eps else v

    tracked = tracked_log_polyline(wf, loop.waypoints, cfg)
    return -tracked.value
