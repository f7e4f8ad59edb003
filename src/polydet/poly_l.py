"""Higher depth L-functions: log L_K^(r)(s; chi) = sum over prime ideals of
(log N)^(1-r) Li_r(chi(P) N^-s).

The Euler route expands Li_r into its power series and sums with the single
prime-power kernel `l_functions._prime_power_sum`, whose rungs r = 1
(log L) and r = 0 (-L'/L) serve `l_functions` as well.  Depth 1 recovers
the ordinary L-function.  Successive s-derivatives walk down the depth
ladder: d/ds log L^(r) = -log L^(r-1), so the (r-1)-st derivative of
log L^(r) is (-1)^(r-1) log L and the r-th is (-1)^(r-1) L'/L.  Every
depth r >= 1 therefore extends left of Re(s) = 1 by Taylor's formula at a
real anchor with one integral of L'/L along an explicit path
(`poly_l_log_continued`).
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .config import EvalConfig, DEFAULT_CONFIG
from .errors import (DomainError, NonClosedLoop, PathLeavesOmega,
                     StencilLeavesDomain, UnsupportedCharacter)
from .fields_and_characters import HeckeCharacter, NumberField
from .l_functions import (_SERIES_MIN_RE, PathSpec, _check_pair,
                          _prime_power_sum, l_log_derivative, l_value,
                          omega_region, OmegaRegion)
from .quadrature import integrate_polyline, tracked_log_polyline
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


def _tail_log_bound(fld: NumberField, r: int, sigma: float, bound: int) -> float:
    """Bound on the absolute error of log L^(r) from dropping norms > bound.

    Uses |Li_r(x)| <= |x|/(1-|x|) and (log N)^(1-r) <= (log bound)^(1-r),
    with at most deg(K) ideals above each rational prime and inert norms
    p^2 counted separately.
    """
    x = float(bound)
    geo = 1.0 / (1.0 - x ** (-sigma))
    s1 = fld.degree * (x - 1.0) ** (1.0 - sigma) / (sigma - 1.0)
    s2 = 0.0
    if fld.degree > 1:
        rt = math.sqrt(x) - 1.0
        s2 = rt ** (1.0 - 2.0 * sigma) / (2.0 * sigma - 1.0)
    weight = math.log(x) ** (1 - r)
    return weight * geo * (s1 + s2) + 1e-15


def poly_l_log_euler(fld: NumberField, chi: HeckeCharacter, r: int, s: complex,
                     cfg: EvalConfig = DEFAULT_CONFIG,
                     prime_bound: int | None = None) -> tuple[complex, float, int]:
    """log L^(r)(s) from the prime-ideal sum; returns (log, tail_log, bound).

    tail_log bounds the absolute error of the returned logarithm.
    """
    _check_pair(fld, chi)
    if not isinstance(r, int) or r < 1:
        raise DomainError("depth r must be a positive integer")
    s = complex(s)
    if not s.real >= _SERIES_MIN_RE:   # also rejects NaN
        raise DomainError(
            f"Euler route needs Re(s) >= {_SERIES_MIN_RE}, got {s.real}")
    bound = int(prime_bound or cfg.prime_bound)
    return (_prime_power_sum(fld, chi, s, r, bound),
            _tail_log_bound(fld, r, s.real, bound), bound)


def poly_l_euler(fld: NumberField, chi: HeckeCharacter, r: int, s: complex,
                 cfg: EvalConfig = DEFAULT_CONFIG,
                 prime_bound: int | None = None) -> Result:
    """L^(r)(s; chi) by truncated Euler sum, valid for Re(s) > 1; the error
    bounds the prime-ideal truncation only."""
    logv, tail_log, _ = poly_l_log_euler(fld, chi, r, s, cfg, prime_bound)
    return Result.from_log(logv, tail_log, "euler")


# ---------------------------------------------------------------------------
# Ladder identity


def _central_stencil(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and coefficients of the central finite difference for the
    m-th derivative on m+1 symmetric nodes (O(h^2) accurate)."""
    if m % 2 == 0:
        offs = np.arange(-m // 2, m // 2 + 1, dtype=float)
    else:
        half = (m + 1) // 2
        offs = np.array([k for k in range(-half, half + 1) if k != 0],
                        dtype=float)
    n = len(offs)
    V = np.vander(offs, n, increasing=True).T
    rhs = np.zeros(n)
    rhs[m] = math.factorial(m)
    coeffs = np.linalg.solve(V, rhs)
    return offs, coeffs


def poly_l_ladder_residual(fld: NumberField, chi: HeckeCharacter, r: int,
                           s: complex, h: float,
                           cfg: EvalConfig = DEFAULT_CONFIG,
                           target_depth: int = 1) -> float:
    """|FD^(r-d)[log L^(r)](s) - (-1)^(r-d) log L^(d)(s)| with step h.

    Checks that r - d successive derivatives of the depth-r logarithm
    reproduce the depth-d logarithm up to sign, using a central stencil.
    """
    d = target_depth
    if not 1 <= d < r:
        raise DomainError("need 1 <= target_depth < r")
    if h <= 0:
        raise DomainError("step must be positive")
    m = r - d
    offs, coeffs = _central_stencil(m)
    s = complex(s)
    if (s + min(offs) * h).real < _SERIES_MIN_RE:
        raise StencilLeavesDomain(
            f"stencil node Re(s) {(s + min(offs) * h).real} below "
            f"{_SERIES_MIN_RE}")
    fd = 0.0 + 0.0j
    for k, c in zip(offs, coeffs):
        fd += c * poly_l_log_euler(fld, chi, r, s + k * h, cfg)[0]
    fd /= h ** m
    target = (-1.0) ** m * poly_l_log_euler(fld, chi, d, s, cfg)[0]
    return abs(fd - target)


# ---------------------------------------------------------------------------
# Continuation left of Re(s) = 1


def _omega_for_path(fld: NumberField, chi: HeckeCharacter, path: PathSpec,
                    cfg: EvalConfig) -> OmegaRegion | None:
    """Zero-cut region for a path that leaves Re(s) > 1; None otherwise,
    since the pole, the zeros and every cut lie in Re(s) <= 1."""
    if min(w.real for w in path.waypoints) > 1.0:
        return None
    need = max(path.max_abs_im + 5.0, 5.0)
    if not chi.is_self_dual:
        raise UnsupportedCharacter(
            "continuation into the strip needs a zero table; only self-dual "
            "characters are scanned automatically")
    return omega_region(fld, chi, scan_ordinates(fld, chi, need, cfg), need)


def poly_l_log_continued(fld: NumberField, chi: HeckeCharacter, r: int,
                         s: complex, cfg: EvalConfig = DEFAULT_CONFIG,
                         anchor: float = 3.0,
                         path: PathSpec | None = None) -> tuple[complex, float]:
    """log L^(r)(s) for any depth r >= 1 by Taylor's formula at a real
    anchor a; returns (log, err).

        log L^(r)(s) = sum_{k=0}^{r-1} ((-1)^k / k!) (s-a)^k log L^(r-k)(a)
                       + ((-1)^(r-1) / (r-1)!) int_a^s (s-xi)^(r-1) (L'/L)(xi) dxi

    The terms k < r-1 are Euler sums at the anchor, each charged its tail;
    the term k = r-1 is the principal log of the analytic L(a), which is
    the series branch since |log L(a)| <= log zeta_K(1.5) < pi.  The
    integral runs along the path, which must stay inside the zero-free cut
    region; points too close to the critical line are flagged.  err adds
    the tails and the quadrature error.
    """
    _check_pair(fld, chi)
    if not isinstance(r, int) or r < 1:
        raise DomainError("depth r must be a positive integer")
    s = complex(s)
    a = float(anchor)
    if not a >= 1.5:   # also rejects NaN
        raise DomainError("anchor must be real with a >= 1.5")
    if path is not None:
        wps = path.waypoints
        if abs(wps[0] - a) > 1e-9 or abs(wps[-1] - s) > 1e-9:
            raise DomainError("path must run from the anchor to s")

    logv = 0.0 + 0.0j
    err = 0.0
    for k in range(r):
        coef = ((-1.0) ** k / math.factorial(k)) * (s - a) ** k
        if k < r - 1:
            lg, tail, _ = poly_l_log_euler(fld, chi, r - k, a, cfg)
            err += abs(coef) * tail
        else:
            lg = cmath.log(l_value(fld, chi, a, cfg))
        logv += coef * lg
    if path is None and abs(s - a) < 1e-9:
        # s sits at the anchor: the remainder integral vanishes
        return logv, err
    path = path or PathSpec((complex(a), s))

    omega = _omega_for_path(fld, chi, path, cfg)
    flagged: list[complex] = []

    def remainder(xi: np.ndarray) -> np.ndarray:
        if omega is not None:
            if not (inside := omega.contains(xi)).all():
                raise PathLeavesOmega(
                    f"path point {xi[~inside][0]} leaves the cut region")
            flagged.extend(xi[~omega.verifiable(xi)])
        return (s - xi) ** (r - 1) * l_log_derivative(fld, chi, xi, cfg)

    quad = integrate_polyline(remainder, path.waypoints, cfg)
    if flagged:
        warnings.warn(
            f"{len(flagged)} path points within 0.1 of the critical line or "
            "beyond the zero table height; continuation there rests on the "
            "assumed zero locations", stacklevel=2)
    sign = (-1.0) ** (r - 1) / math.factorial(r - 1)
    return logv + sign * quad.value, err + abs(sign) * quad.error


def poly_l_continued(fld: NumberField, chi: HeckeCharacter, r: int, s: complex,
                     cfg: EvalConfig = DEFAULT_CONFIG,
                     anchor: float = 3.0,
                     path: PathSpec | None = None) -> Result:
    """L^(r)(s) for any depth r >= 1, continued from a real anchor
    (`poly_l_log_continued`)."""
    logv, err = poly_l_log_continued(fld, chi, r, s, cfg, anchor, path)
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
        v = l_value(fld, chi, xi, cfg)
        return v * (xi - 1.0) ** eps if eps else v

    tracked = tracked_log_polyline(wf, loop.waypoints, cfg)
    return -tracked.value
