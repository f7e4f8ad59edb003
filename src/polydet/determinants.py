"""Higher depth determinants of L-function zeros.

The zero zeta function xi(s, z) = sum over nontrivial zeros rho of
((z - rho) / 2pi)^(-s) is computed two independent ways: truncated sums
over tabulated zeros (Re(s) > 1), and a Hankel-contour representation

    xi = A1 + A2 + A3,

    A1 = eps [(2pi/z)^s + (2pi/(z-1))^s]
    A2 = (2pi)^s [ (sin(pi s)/pi) int_delta^inf (L'/L)(z+x) x^-s dx
         + (delta^(1-s)/2pi) int_-pi^pi (L'/L)(z - delta e^(i psi))
                                        e^(i(1-s) psi) dpsi ]
    A3 = - sum_v (N_v pi)^s zeta(s, w_v),   w_v = (N_v z + m_v)/2

valid for all s away from s = 1 and for every circle radius delta with
Re(z) - delta > 1.  xi does not depend on delta, so it is no input: the
code takes delta = min(1, 0.4 (Re z - 1)) (`_circle_radius`).
`determinant_direct` takes d/ds of the same pieces at s = 1 - r, and
exp(-d xi/ds) there is the depth-r determinant.
The ray integral from lo (delta for xi, 0 at s = 1 - r) runs in t with the
double-exponential substitution for exponentially decaying integrands,
x = lo + exp(t - e^-t), t from -4 to the cut
x - lo = max(80, 3 max(-Re s, 0) / log 2 + 60), past the peak of the weight
|x^-s|; at Re z >= 1.3 a direct determinant of depth <= 3 settles in one
pass of 126 L'/L nodes, and depths 4 to 12 in two passes.  The cut ends
x - lo < e^-58.6 and past the cut are bounded a priori from a majorant of
|L'/L|.
This direct route reads only the analytic L'/L, no prime tables; the closed
form uses the depth-r Euler sum, Bernoulli polynomials and Milnor gammas.

Both routes read the analytic L'/L, whose integral is the closed route's
Euler tail past norm 1000 (`poly_l.poly_l_log_euler`); the `ladder` verify
suite checks that route against a plain sieve, tests check L'/L by mpmath.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .config import EvalConfig, DEFAULT_CONFIG
from .errors import DomainError, overflow_is_domain_error
from .fields_and_characters import HeckeCharacter, NumberField
from .l_functions import (_check_pair, completed_lambda, conductor,
                          l_log_derivative)
from .poly_l import poly_l_log_continued, poly_l_log_euler
from .quadrature import integrate_polyline
from .special_functions import (EmResult, Result, bernoulli_poly,
                                hurwitz_zeta_em)
from .zero_data import ZeroTable, truncation_tail_estimate

__all__ = [
    "xi_zero_sum",
    "xi_hankel",
    "determinant_direct",
    "determinant_closed",
    "regularized_product",
]

_TWO_PI = 2.0 * math.pi


def _circle_radius(z: complex) -> float:
    """Radius delta of the Hankel circle around z, well inside Re(w) > 1."""
    if not z.real > 1.0:   # also rejects NaN
        raise DomainError("Hankel evaluation needs Re(z) > 1")
    return min(1.0, 0.4 * (z.real - 1.0))


# ---------------------------------------------------------------------------
# Route 1: truncated sum over tabulated zeros


def xi_zero_sum(fld: NumberField, chi: HeckeCharacter, s: complex, z: complex,
                table: ZeroTable) -> Result:
    """sum over table zeros (both ordinate signs) of ((z - rho)/2pi)^-s.

    Needs Re(s) > 1 (convergent zero sum) and Re(z) > 1 (zeros stay in the
    left half-plane of z).  The error estimate is the density tail bound
    above the table's completeness height.
    """
    _check_pair(fld, chi)
    s = complex(s)
    z = complex(z)
    if s.real <= 1.0:
        raise DomainError("zero sum needs Re(s) > 1")
    if z.real <= 1.0:
        raise DomainError("zero sum needs Re(z) > 1")
    gam = np.asarray(table.ordinates)
    mult = np.asarray(table.multiplicities, dtype=float)
    up = (z - 0.5 - 1j * gam) / _TWO_PI
    dn = (z - 0.5 + 1j * gam) / _TWO_PI
    total = complex(np.sum(mult * (np.exp(-s * np.log(up))
                                   + np.exp(-s * np.log(dn)))))
    err = truncation_tail_estimate(fld, chi, s, z, table.completeness_height)
    return Result(total, err, "zero-sum")


# ---------------------------------------------------------------------------
# Route 2: Hankel contour


# The ray x = lo + exp(t - e^-t) over t from _T_HEAD to the cut, the
# double-exponential map for integrands that decay exponentially
# (Mori & Sugihara, J. Comput. Appl. Math. 127, 2001): (L'/L)(z+x) falls
# like 2^-x, so the integrand decays double exponentially in t at both ends
# and the default ray is 6 G10/K21 panels of width _T_PANEL, 126 nodes, one
# kernel chunk.  The head [lo, lo + _HEAD] and the part past the cut are
# bounded a priori.
_T_HEAD = -4.0
_T_PANEL = 1.5
_HEAD = math.exp(_T_HEAD - math.exp(-_T_HEAD))


def _log_derivative_bound(fld: NumberField, sigma: float) -> float:
    """A bound on |L'/L| on Re w = sigma > 1 for every character of fld:
    n sum_{m >= 2} log(m) m^-sigma, n the degree of fld.  log(t) t^-sigma
    falls after its peak at t = e^(1/sigma), so the sum is at most its
    largest value on t >= 2 plus its integral from 2."""
    d = sigma - 1.0
    peak = math.log(2.0) * 2.0 ** -sigma if sigma * math.log(2.0) >= 1.0 \
        else 1.0 / (math.e * sigma)
    return fld.degree * (peak + 2.0 ** (1.0 - sigma) * (math.log(2.0) / d
                                                        + 1.0 / (d * d)))


def _ray(fld: NumberField, chi: HeckeCharacter, s: complex, z: complex,
         lo: float, cfg: EvalConfig) -> tuple[complex, float]:
    """int_lo^inf (L'/L)(z+x) x^-s dx by the double-exponential ray above,
    with its quadrature error plus a priori bounds of the cut head and
    tail."""
    def on_ray(t: np.ndarray) -> np.ndarray:
        t = t.real
        g = np.exp(-t)
        e = t - g
        u = np.exp(e)
        log_x = e if lo == 0.0 else np.log(lo + u)
        # x^-s dx/dt, with dx/dt = (1 + e^-t) u
        weight = np.exp(e - s * log_x) * (1.0 + g)
        return l_log_derivative(fld, chi, z + lo + u) * weight

    k = -s.real                                 # |x^-s| = x^k on the ray
    # x^k 2^-x peaks at x = k / log 2; a cut at three times that plus 60,
    # and at least 80, leaves it below e^-39 of its peak there
    x_cut = max(80.0, 3.0 * max(k, 0.0) / math.log(2.0) + 60.0)
    # t - e^-t = log x_cut by Newton steps from t = log x_cut, where e^-t
    # is below 1/80
    log_cut = t_cut = math.log(x_cut)
    for _ in range(3):
        g = math.exp(-t_cut)
        t_cut -= (t_cut - g - log_cut) / (1.0 + g)
    ray = integrate_polyline(on_ray, (_T_HEAD, t_cut), cfg,
                             base_len=_T_PANEL)
    head_x = lo + _HEAD if k >= 0.0 else lo
    head = _HEAD * _log_derivative_bound(fld, z.real + lo) * head_x ** k
    # past x0 = lo + x_cut, |L'/L(z+x)| <= B(Re z + x0) 2^-(x - x0) with
    # B the bound above, and int_x0^inf x^k 2^-(x - x0) dx is at most
    # x0^k / (log 2 - max(k, 0) / x0), where that rate is >= 2 log(2) / 3;
    # x0 is where the map ends
    x0 = lo + math.exp(t_cut - math.exp(-t_cut))
    rate = math.log(2.0) - max(k, 0.0) / x0
    tail = _log_derivative_bound(fld, z.real + x0) * x0 ** k / rate
    return ray.value, ray.error + head + tail


def _closed_pieces(chi: HeckeCharacter, s: complex, z: complex) -> EmResult:
    """A1 + A3 and its s-derivative with error bounds; PoleAtOne at s = 1."""
    val = ds = 0.0 + 0.0j
    if chi.epsilon:
        for u in (z, z - 1.0):
            lg = cmath.log(_TWO_PI / u)
            p = cmath.exp(s * lg)
            val += p
            ds += lg * p
    err = err_ds = 0.0
    for v in chi.arch_places():
        lb = math.log(v.nv * math.pi)
        em = hurwitz_zeta_em(s, v.w(z))
        coef = cmath.exp(s * lb)
        val -= coef * em.value
        ds -= coef * (lb * em.value + em.ds)
        err += abs(coef) * em.err_value
        err_ds += abs(coef) * (lb * em.err_value + em.err_ds)
    return EmResult(val, ds, err, err_ds)


@overflow_is_domain_error
def xi_hankel(fld: NumberField, chi: HeckeCharacter, s: complex, z: complex,
              cfg: EvalConfig = DEFAULT_CONFIG) -> Result:
    """A1 + A2 + A3 with the ray and circle pieces by adaptive quadrature.

    Analytic in s away from the Hurwitz pole at s = 1, so this route also
    serves as the continuation of the zero sum.
    """
    _check_pair(fld, chi)
    s, z = complex(s), complex(z)
    dl = _circle_radius(z)
    closed = _closed_pieces(chi, s, z)
    pref = cmath.exp(s * math.log(_TWO_PI))
    ray_coef = pref * cmath.sin(math.pi * s) / math.pi
    circ_coef = pref * cmath.exp((1.0 - s) * math.log(dl)) / _TWO_PI
    ray, ray_err = _ray(fld, chi, s, z, dl, cfg)

    def on_circle(psi: np.ndarray) -> np.ndarray:
        p = psi.real
        return l_log_derivative(fld, chi, z - dl * np.exp(1j * p)) \
            * np.exp(1j * (1.0 - s) * p)

    circ = integrate_polyline(on_circle, (complex(-math.pi), complex(math.pi)),
                              cfg)
    return Result(closed.value + ray_coef * ray + circ_coef * circ.value,
                  abs(ray_coef) * ray_err + abs(circ_coef) * circ.error
                  + closed.err_value, "hankel")


# ---------------------------------------------------------------------------
# Determinants


@overflow_is_domain_error
def determinant_direct(fld: NumberField, chi: HeckeCharacter, r: int,
                       z: complex,
                       cfg: EvalConfig = DEFAULT_CONFIG) -> Result:
    """exp(-d xi/ds at s = 1-r), straight from the contour representation.

    There sin(pi s) vanishes, so d(A1 + A2 + A3)/ds is d(A1 + A3)/ds plus
    dA2 = -(2pi)^(1-r) (-1)^r int_0^inf (L'/L)(z+x) x^(r-1) dx, the ray of
    xi_hankel taken from 0, with the weight x^-s = x^(r-1).
    """
    _check_pair(fld, chi)
    if not isinstance(r, int) or r < 1:
        raise DomainError("depth r must be a positive integer")
    s, z = complex(1 - r), complex(z)
    if not z.real > 1.0:   # also rejects NaN
        raise DomainError("Hankel evaluation needs Re(z) > 1")
    closed = _closed_pieces(chi, s, z)
    coef = -(_TWO_PI ** (1 - r)) * (-1.0) ** r
    ray, ray_err = _ray(fld, chi, s, z, 0.0, cfg)
    return Result.from_log(-(closed.ds + coef * ray),
                           closed.err_ds + abs(coef) * ray_err, "direct")


@overflow_is_domain_error
def determinant_closed(fld: NumberField, chi: HeckeCharacter, r: int,
                       z: complex, cfg: EvalConfig = DEFAULT_CONFIG) -> Result:
    """Closed-form depth-r determinant.

    log Xi_r(z) = eps sum_{u in {z, z-1}} (u/2pi)^(r-1) log(u/2pi)
                  + (-1)^(r-1) (r-1)! (2pi)^(1-r) log L^(r)(z)
                  + sum_v [ -((N_v pi)^(1-r)/r) B_r(w_v) log(N_v pi)
                            + (N_v pi)^(1-r) log MilnorGamma_r(w_v) ]

    The depth-r logarithm comes from the Euler sum with its L'/L tail (depth
    1 from the analytic log L continued from the real anchor 3, with its
    quadrature error), Milnor gamma logs from zeta_s'(1 - r, w).
    """
    _check_pair(fld, chi)
    if not isinstance(r, int) or r < 1:
        raise DomainError("depth r must be a positive integer")
    z = complex(z)
    if z.real <= 1.0:
        raise DomainError("closed form needs Re(z) > 1")
    eps = chi.epsilon

    logv = 0.0 + 0.0j
    if eps:
        for u in (z, z - 1.0):
            lg = cmath.log(u / _TWO_PI)
            logv += cmath.exp((r - 1) * lg) * lg

    if r == 1:
        log_lr, tail = poly_l_log_continued(fld, chi, 1, z, cfg)
    else:
        log_lr, tail, _ = poly_l_log_euler(fld, chi, r, z)
    lcoef = (-1.0) ** (r - 1) * math.factorial(r - 1) * _TWO_PI ** (1 - r)
    logv += lcoef * log_lr

    err = abs(lcoef) * tail
    for v in chi.arch_places():
        base = v.nv * math.pi
        w = v.w(z)
        em = hurwitz_zeta_em(1 - r, w)
        coef = base ** (1 - r)
        logv += -(coef / r) * complex(bernoulli_poly(r, w)) * math.log(base)
        logv += coef * em.ds
        err += coef * em.err_ds
    return Result.from_log(logv, err, "closed")


def regularized_product(fld: NumberField, chi: HeckeCharacter,
                        z: complex) -> complex:
    """Depth-1 determinant as an elementary multiple of the completed
    L-function:

        Xi_1(z) = (Nf |d_K|)^(-z/2) 2^(-eps - r1/2 - m_C/2)
                  pi^(-2 eps - m/2) Lambda(z)

    with m_C summing the weights of the complex places and m the total
    weight over all places.
    """
    _check_pair(fld, chi)
    z = complex(z)
    places = chi.arch_places()
    m_c = sum(v.m for v in places if v.nv == 2)
    m = sum(v.m for v in places)
    eps = chi.epsilon
    q = conductor(fld, chi)
    lam = completed_lambda(fld, chi, z)
    two_exp = -(eps + 0.5 * fld.r1 + 0.5 * m_c)
    pi_exp = -(2.0 * eps + 0.5 * m)
    return cmath.exp(-0.5 * z * math.log(q)
                     + two_exp * math.log(2.0)
                     + pi_exp * math.log(math.pi)) * lam
