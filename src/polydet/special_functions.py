"""Scalar special functions: Bernoulli polynomials, Hurwitz zeta and its
s-derivative by Euler-Maclaurin summation, the exponentiated derivative
(a higher analogue of the gamma factor), truncated polylogarithms, and a
Stirling-series log gamma.

`hurwitz_zeta_em(s, z, cfg, minus_pole=...)` is the one entry point to the
Euler-Maclaurin kernel `_em_core`: it checks that s and z are finite, that
Re(z) > 0 and (unless the pole is subtracted) that s is outside the pole
guard, picks the split N (at most cfg.series_max_terms), and raises
DomainError instead of returning a non-finite value or derivative.

Everything here is plain double precision.  The Euler-Maclaurin split point
grows with |Im s| and |z| so the Bernoulli tail stays geometrically
convergent; the a-posteriori remainder bounds use the first omitted term
with the classical |s + 2J + 1| / (Re s + 2J + 1) inflation factor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .config import EvalConfig, DEFAULT_CONFIG
from .errors import DomainError, PoleAtOne, overflow_is_domain_error

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "hurwitz_zeta_em",
    "milnor_gamma",
    "polylog",
    "polylog_tail_bound",
    "log_gamma",
    "EmResult",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials (exact rational arithmetic)

_BERN: list[Fraction] = [Fraction(1)]


def bernoulli_number(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention, as an exact Fraction."""
    if n < 0:
        raise DomainError("Bernoulli index must be non-negative")
    while len(_BERN) <= n:
        m = len(_BERN)
        acc = Fraction(0)
        for k in range(m):
            acc += math.comb(m + 1, k) * _BERN[k]
        _BERN.append(-acc / (m + 1))
    return _BERN[n]


@lru_cache(maxsize=256)
def _bernoulli_poly_coeffs(r: int) -> tuple[Fraction, ...]:
    # B_r(z) = sum_k C(r,k) B_k z^{r-k}; coefficients in descending degree
    return tuple(math.comb(r, k) * bernoulli_number(k) for k in range(r + 1))


def bernoulli_poly(r: int, z: complex) -> complex:
    """Bernoulli polynomial B_r(z), exact rational coefficients, Horner eval."""
    if not isinstance(r, int) or r < 0:
        raise DomainError("bernoulli_poly degree must be a non-negative integer")
    coeffs = _bernoulli_poly_coeffs(r)
    acc: complex = 0
    for c in coeffs:
        acc = acc * z + complex(c)
    return acc


@lru_cache(maxsize=8)
def _bern_over_fact(jmax: int) -> tuple[float, ...]:
    # B_{2j} / (2j)! for j = 0 .. jmax as floats
    return tuple(float(bernoulli_number(2 * j) / Fraction(math.factorial(2 * j)))
                 for j in range(jmax + 1))


# ---------------------------------------------------------------------------
# Euler-Maclaurin core


@dataclass(frozen=True)
class EmResult:
    value: complex
    ds: complex
    err_value: float
    err_ds: float
    split: int


def _phi_expm1(x: complex) -> complex:
    # (exp(-x) - 1) / x, stable near 0
    if abs(x) < 0.25:
        term: complex = -1.0
        acc: complex = -1.0
        for k in range(1, 18):
            term *= -x / (k + 1)
            acc += term
            if abs(term) < 1e-18:
                break
        return acc
    return (cmath.exp(-x) - 1.0) / x


def _psi_expm1(x: complex) -> complex:
    # (-x e^{-x} - (e^{-x} - 1)) / x^2, stable near 0
    if abs(x) < 0.25:
        acc: complex = 0.0
        num = 1.0 + 0j  # (-1)^k x^k
        for k in range(0, 20):
            term = num * (k + 1) / math.factorial(k + 2)
            acc += term
            if abs(term) < 1e-18:
                break
            num *= -x
        return acc
    ex = cmath.exp(-x)
    return (-x * ex - (ex - 1.0)) / (x * x)


def _em_core(s: complex, z: complex, N: int, J: int, minus_pole: bool) -> EmResult:
    """Euler-Maclaurin evaluation of zeta(s, z) and d/ds zeta(s, z).

    With minus_pole=True the simple pole term 1/(s-1) is subtracted
    analytically, so the result is finite and smooth across s = 1.
    """
    s = complex(s)
    z = complex(z)
    m = np.arange(N, dtype=np.float64)
    base = m + z
    logb = np.log(base.astype(np.complex128))
    pw = np.exp(-s * logb)
    val = complex(pw.sum())
    dval = complex(-(logb * pw).sum())
    # magnitude of everything summed, for the rounding part of the error:
    # large direct-sum powers cancel against the integral term at negative
    # Re(s), costing |largest part| * eps of absolute accuracy
    mag = float(np.abs(pw).sum())
    mag_ds = float(np.abs(logb * pw).sum())

    w = N + z
    lw = cmath.log(w)
    winv = 1.0 / w
    wms = cmath.exp(-s * lw)  # w^{-s}

    # integral term w^{1-s}/(s-1), optionally with the pole removed
    eps = s - 1.0
    if minus_pole:
        x = eps * lw
        t, dt = lw * _phi_expm1(x), lw * lw * _psi_expm1(x)
    else:
        w1ms = wms * w
        t = w1ms / eps
        dt = -w1ms * (lw / eps + 1.0 / (eps * eps))
    val += t
    dval += dt
    mag += abs(t)
    mag_ds += abs(dt)

    # boundary term w^{-s}/2
    val += 0.5 * wms
    dval += -0.5 * lw * wms
    mag += 0.5 * abs(wms)
    mag_ds += 0.5 * abs(lw * wms)

    # Bernoulli tail with joint pochhammer/derivative accumulation
    bf = _bern_over_fact(J + 1)
    poch: complex = 1.0      # (s)_k
    dpoch: complex = 0.0     # d/ds (s)_k
    k = 0
    wpow = wms * winv        # w^{-s-1}
    winv2 = winv * winv
    for j in range(1, J + 1):
        need = 2 * j - 1
        while k < need:
            f = s + k
            dpoch = dpoch * f + poch
            poch = poch * f
            k += 1
        term = bf[j] * poch * wpow
        dterm = bf[j] * (dpoch - poch * lw) * wpow
        val += term
        dval += dterm
        mag += abs(term)
        mag_ds += abs(dterm)
        wpow *= winv2

    # first omitted term as remainder estimate (wpow is now w^{-s-2J-1})
    while k < 2 * J + 1:
        f = s + k
        dpoch = dpoch * f + poch
        poch = poch * f
        k += 1
    denom = s.real + 2 * J + 1
    if denom <= 0:
        infl = 10.0
    else:
        infl = min(10.0, abs(s + 2 * J + 1) / denom)
    # oscillatory loss along the tail: |(x+w)^{-s}| carries e^{Im s arg(x+w)}
    infl *= 6.0 * math.exp(min(8.0, abs(s.imag) * abs(cmath.phase(w))))
    scale = abs(bf[J + 1]) * abs(wpow)
    # rounding: each power costs |s| log|base| ulps through exp(-s log b)
    round_fac = 1e-16 * (4.0 + 0.5 * abs(s) * math.log(abs(w) + 2.0))
    err = scale * abs(poch) * infl + round_fac * (mag + 1.0)
    err_ds = scale * (abs(dpoch) + abs(poch) * abs(lw)) * infl \
        + round_fac * (mag_ds + 1.0)
    return EmResult(val, dval, err, err_ds, N)


def hurwitz_zeta_em(s: complex, z: complex, cfg: EvalConfig = DEFAULT_CONFIG,
                    *, minus_pole: bool = False) -> EmResult:
    """zeta(s, z) = sum_{m >= 0} (m + z)^{-s} and d/ds zeta(s, z) by
    Euler-Maclaurin, with remainder bounds; Re(z) > 0, s != 1.

    The only entry point to the Euler-Maclaurin kernel.  s and z must be
    finite, and a value or derivative that overflows raises DomainError.
    With minus_pole=True the result is zeta(s, z) - 1/(s-1) and its
    s-derivative, finite and smooth across s = 1 (no pole guard); the
    Dirichlet assembly uses it, where the subtracted poles cancel.

    At nonpositive integer s the tail terminates (the Pochhammer factor
    hits zero), so with minus_pole=False the value is computed with N = 1:
    a large split there only piles up huge direct-sum powers that cancel
    against the tail and cost ~|z+N|^(1-s) eps of absolute accuracy.  The
    derivative keeps the large split, where the differentiated tail still
    converges.
    """
    s, z = complex(s), complex(z)
    if not (cmath.isfinite(s) and cmath.isfinite(z)):
        raise DomainError(f"hurwitz zeta needs finite s and z, got s = {s}, z = {z}")
    if z.real <= 0:
        raise DomainError(f"hurwitz zeta requires Re(z) > 0, got z = {z}")
    if not minus_pole and abs(s - 1.0) < cfg.pole_guard:
        raise PoleAtOne(f"s = {s} is inside the pole guard radius {cfg.pole_guard}")
    try:
        N = int(math.ceil(abs(s.imag)) + math.ceil(abs(z))
                + cfg.euler_maclaurin_shift)
        if N > cfg.series_max_terms:
            raise DomainError(f"Euler-Maclaurin split for s = {s}, z = {z} "
                              "exceeds cfg.series_max_terms")
        em = _em_core(s, z, N, cfg.bernoulli_terms, minus_pole)
        if not minus_pole and s.imag == 0.0 and s.real <= 0.0 \
                and s.real == round(s.real):
            r = 1 - int(round(s.real))
            val = _em_core(s, z, 1, r // 2 + 1, minus_pole=False)
            round_err = 1e-15 * (1.0 + abs(z)) ** max(r - 1, 1)
            em = EmResult(val.value, em.ds, val.err_value + round_err,
                          em.err_ds, N)
        finite = cmath.isfinite(em.value) and cmath.isfinite(em.ds)
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(f"hurwitz zeta at s = {s}, z = {z} overflows "
                          "double precision")
    return em


# ---------------------------------------------------------------------------
# Higher gamma factor


@overflow_is_domain_error
def milnor_gamma(r: int, z: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """exp(d/ds zeta(s, z) at s = 1 - r); at r = 1 this is Gamma(z)/sqrt(2 pi).

    Defined for integer depth r >= 1 and Re(z) > 0.
    """
    if not isinstance(r, int) or r < 1:
        raise DomainError("depth r must be a positive integer")
    return cmath.exp(hurwitz_zeta_em(1 - r, z, cfg).ds)


# ---------------------------------------------------------------------------
# Polylogarithm partial sums


def polylog_tail_bound(r: int, absz: float, terms: int) -> float:
    """Bound |sum_{m > terms} z^m / m^r| for |z| = absz < 1."""
    if absz == 0.0:
        return 0.0
    return absz ** (terms + 1) / ((terms + 1) ** r * (1.0 - absz))


def polylog(r: int, z: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Li_r(z) by direct partial sums, restricted to |z| <= 0.99.

    The term count is chosen so the geometric tail bound is below
    cfg.target_abs_error; DomainError if that needs more than
    cfg.series_max_terms terms.
    """
    if not isinstance(r, int) or r < 1:
        raise DomainError("polylog order must be a positive integer")
    z = complex(z)
    a = abs(z)
    if a > 0.99 + 1e-12:
        raise DomainError(f"polylog series requires |z| <= 0.99, got |z| = {a}")
    if a == 0.0:
        return 0.0
    M = 8
    while polylog_tail_bound(r, a, M) > cfg.target_abs_error:
        M *= 2
        if M > cfg.series_max_terms:
            raise DomainError("polylog series cap exceeded")
    k = np.arange(1, M + 1, dtype=np.float64)
    return complex(np.sum(np.power(complex(z), k) / k ** r))


# ---------------------------------------------------------------------------
# log Gamma, principal branch on Re(z) > 0

# B_{2j} / (2j (2j-1)) for the Stirling series, j = 1..12
_STIRLING = [float(bernoulli_number(2 * j) / Fraction(2 * j * (2 * j - 1)))
             for j in range(1, 13)]


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma on Re(z) > 0.

    Arguments are shifted right until the Stirling series converges fast;
    the recursion log Gamma(z) = log Gamma(z+1) - log(z) stays on the
    principal branch throughout the right half plane.
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError(f"log_gamma requires Re(z) > 0, got {z}")
    shift: complex = 0.0
    w = z
    while w.real < 12.0:
        shift += cmath.log(w)
        w += 1.0
    lw = cmath.log(w)
    acc = (w - 0.5) * lw - w + 0.5 * math.log(2.0 * math.pi)
    winv = 1.0 / w
    winv2 = winv * winv
    p = winv
    for c in _STIRLING:
        acc += c * p
        p *= winv2
    return acc - shift
