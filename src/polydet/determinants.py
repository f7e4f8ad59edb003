"""Higher depth determinants of L-function zeros.

The zero zeta function xi(s, z) = sum over nontrivial zeros rho of
((z - rho) / 2pi)^(-s) is computed two independent ways: truncated sums
over tabulated zeros (Re(s) > 1), and a Hankel-contour representation

    xi = A1 + A2 + A3,

    A1 = eps [(2pi/z)^s + (2pi/(z-1))^s]
    A2 = (2pi)^s [ (sin(pi s)/pi) int_delta^X (L'/L)(z+x) x^-s dx
         + (delta^(1-s)/2pi) int_-pi^pi (L'/L)(z - delta e^(i psi))
                                        e^(i(1-s) psi) dpsi ]
    A3 = - sum_v (N_v pi)^s zeta(s, w_v),   w_v = (N_v(z+i phi_v)+|m_v|)/2

valid for all s away from s = 1.  The depth-r determinant is
exp(-d xi/ds at s = 1-r); the closed form expresses it through the
depth-r L-value, Bernoulli polynomials and Milnor gamma factors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import EvalConfig, DEFAULT_CONFIG
from .errors import ContourInvalid, DomainError, PoleAtOne
from .fields_and_characters import ArchPlace, HeckeCharacter, NumberField
from .l_functions import (PathSpec, _check_pair, completed_lambda,
                          l_log_derivative, l_value, log_l_branch)
from .poly_l import poly_l_log_euler
from .quadrature import integrate_polyline
from .special_functions import bernoulli_poly, hurwitz_zeta_em
from .zero_data import ZeroTable, truncation_tail_estimate

__all__ = [
    "ContourSpec",
    "XiValue",
    "default_contour",
    "xi_zero_sum",
    "xi_hankel",
    "xi_ds_at_depth",
    "determinant_direct",
    "determinant_closed",
    "regularized_product",
]

_TWO_PI = 2.0 * math.pi
_LOG_2PI = math.log(_TWO_PI)


@dataclass(frozen=True)
class ContourSpec:
    """Hankel contour data: circle radius and truncation depth of the ray."""

    delta: float
    cut_depth: float = 60.0

    def validate(self, z: complex) -> None:
        if not 0.0 < self.delta:
            raise ContourInvalid("circle radius must be positive")
        if z.real - self.delta <= 1.0:
            raise ContourInvalid(
                f"circle of radius {self.delta} around z = {z} reaches "
                "Re(w) <= 1")
        if self.cut_depth <= self.delta + 1.0:
            raise ContourInvalid("cut depth too shallow")


def default_contour(z: complex, depth: int = 1) -> ContourSpec:
    """Radius well inside Re(w) > 1; deeper cut for larger x^(r-1) weights."""
    z = complex(z)
    if z.real <= 1.0:
        raise DomainError("Hankel evaluation needs Re(z) > 1")
    delta = min(1.0, 0.4 * (z.real - 1.0))
    return ContourSpec(delta, 60.0 + 15.0 * max(0, depth - 3))


@dataclass(frozen=True)
class XiValue:
    value: complex
    error_estimate: float
    route: str

    def to_record(self) -> dict:
        return {
            "value_re": self.value.real,
            "value_im": self.value.imag,
            "error_estimate": self.error_estimate,
            "route": self.route,
        }


def _w_place(v: ArchPlace, z: complex) -> complex:
    return 0.5 * (v.nv * (z + 1j * v.phi) + abs(v.m))


# ---------------------------------------------------------------------------
# Route 1: truncated sum over tabulated zeros


def xi_zero_sum(fld: NumberField, chi: HeckeCharacter, s: complex, z: complex,
                table: ZeroTable,
                cfg: EvalConfig = DEFAULT_CONFIG) -> XiValue:
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
    return XiValue(total, err, "zero-sum")


# ---------------------------------------------------------------------------
# Route 2: Hankel contour


def _ray_tail(fld: NumberField, chi: HeckeCharacter, z: complex, x_max: float,
              power: float, cfg: EvalConfig) -> float:
    """Estimate of the dropped integral of |L'/L(z+x) x^power| over x > x_max.

    The log derivative decays by at least a factor 2 per unit once
    Re(z + x) is large, since the lightest prime ideal has norm 2.
    """
    f0 = abs(l_log_derivative(fld, chi, z + x_max, cfg, route="series"))
    # unit-step majorant of the integral of the geometric envelope
    return sum(f0 * 0.5 ** k * (x_max + k) ** power for k in range(200))


def xi_hankel(fld: NumberField, chi: HeckeCharacter, s: complex, z: complex,
              cfg: EvalConfig = DEFAULT_CONFIG,
              contour: ContourSpec | None = None) -> XiValue:
    """A1 + A2 + A3 with the ray and circle pieces by adaptive quadrature.

    Analytic in s away from the Hurwitz pole at s = 1, so this route also
    serves as the continuation of the zero sum.
    """
    _check_pair(fld, chi)
    s = complex(s)
    z = complex(z)
    if abs(s - 1.0) < cfg.pole_guard:
        raise PoleAtOne("xi has a pole at s = 1")
    contour = contour or default_contour(z)
    contour.validate(z)
    dl, xmax = contour.delta, contour.cut_depth
    eps = chi.epsilon

    a1 = 0.0 + 0.0j
    if eps:
        a1 = cmath.exp(s * cmath.log(_TWO_PI / z)) \
            + cmath.exp(s * cmath.log(_TWO_PI / (z - 1.0)))

    def on_ray(x: complex) -> complex:
        xr = x.real
        return l_log_derivative(fld, chi, z + xr, cfg) \
            * cmath.exp(-s * math.log(xr))

    ray = integrate_polyline(on_ray, (complex(dl), complex(xmax)), cfg,
                             base_len=2.0)

    def on_circle(psi: complex) -> complex:
        p = psi.real
        return l_log_derivative(fld, chi, z - dl * cmath.exp(1j * p), cfg) \
            * cmath.exp(1j * (1.0 - s) * p)

    circ = integrate_polyline(on_circle, (complex(-math.pi), complex(math.pi)),
                              cfg)

    pref = cmath.exp(s * _LOG_2PI)
    ray_coef = pref * cmath.sin(math.pi * s) / math.pi
    circ_coef = pref * cmath.exp((1.0 - s) * math.log(dl)) / _TWO_PI
    a2 = ray_coef * ray.value + circ_coef * circ.value

    a3 = 0.0 + 0.0j
    err3 = 0.0
    for v in chi.arch_places():
        base = v.nv * math.pi
        em = hurwitz_zeta_em(s, _w_place(v, z), cfg)
        coef = cmath.exp(s * math.log(base))
        a3 -= coef * em.value
        err3 += abs(coef) * em.err_value

    tail = _ray_tail(fld, chi, z, xmax, -s.real, cfg)
    err = abs(ray_coef) * (ray.error + tail) + abs(circ_coef) * circ.error \
        + err3
    return XiValue(a1 + a2 + a3, err, "hankel")


def xi_ds_at_depth(fld: NumberField, chi: HeckeCharacter, r: int, z: complex,
                   cfg: EvalConfig = DEFAULT_CONFIG,
                   contour: ContourSpec | None = None) -> XiValue:
    """d xi/ds at s = 1 - r, the logarithm of the inverse determinant.

    At integer s = 1 - r the ray prefactor sin(pi s) vanishes, so the
    derivative collapses to closed pieces plus one convergent real-axis
    integral with the smooth weight x^(r-1):

        dA1 = eps sum_{u in {z, z-1}} log(2pi/u) (2pi/u)^(1-r)
        dA2 = -(2pi)^(1-r) (-1)^r int_0^inf (L'/L)(z+x) x^(r-1) dx
        dA3 = -sum_v (N_v pi)^(1-r) [log(N_v pi) zeta(1-r, w_v)
                                      + zeta_s'(1-r, w_v)]
    """
    _check_pair(fld, chi)
    if not isinstance(r, int) or r < 1:
        raise DomainError("depth r must be a positive integer")
    z = complex(z)
    if z.real <= 1.0:
        raise DomainError("derivative route needs Re(z) > 1")
    contour = contour or default_contour(z, depth=r)
    contour.validate(z)
    xmax = contour.cut_depth
    eps = chi.epsilon

    da1 = 0.0 + 0.0j
    if eps:
        for u in (z, z - 1.0):
            lg = cmath.log(_TWO_PI / u)
            da1 += lg * cmath.exp((1 - r) * lg)

    def on_ray(x: complex) -> complex:
        xr = x.real
        w = l_log_derivative(fld, chi, z + xr, cfg)
        return w * xr ** (r - 1) if r > 1 else w

    ray = integrate_polyline(on_ray, (0.0 + 0.0j, complex(xmax)), cfg,
                             base_len=2.0)
    coef2 = -(_TWO_PI ** (1 - r)) * (-1.0) ** r
    da2 = coef2 * ray.value

    da3 = 0.0 + 0.0j
    err3 = 0.0
    for v in chi.arch_places():
        base = v.nv * math.pi
        em = hurwitz_zeta_em(1 - r, _w_place(v, z), cfg)
        coef = base ** (1 - r)
        da3 -= coef * (math.log(base) * em.value + em.ds)
        err3 += coef * (math.log(base) * em.err_value + em.err_ds)

    tail = _ray_tail(fld, chi, z, xmax, r - 1, cfg)
    err = abs(coef2) * (ray.error + tail) + err3
    return XiValue(da1 + da2 + da3, err, "hankel-ds")


# ---------------------------------------------------------------------------
# Determinants


def _xi_from_log(log: complex, err: float, route: str) -> XiValue:
    """exp(log) with the relative error expm1(err); DomainError when either
    overflows a double."""
    try:
        value = cmath.exp(log)
        return XiValue(value, abs(value) * math.expm1(err), route)
    except OverflowError:
        raise DomainError(f"|Xi| = exp({log.real:.4g}) or its error bound "
                          f"expm1({err:.4g}) overflows a double") from None


def determinant_direct(fld: NumberField, chi: HeckeCharacter, r: int,
                       z: complex,
                       cfg: EvalConfig = DEFAULT_CONFIG) -> XiValue:
    """exp(-d xi/ds at s = 1-r), straight from the contour representation."""
    ds = xi_ds_at_depth(fld, chi, r, z, cfg)
    return _xi_from_log(-ds.value, ds.error_estimate, "direct")


def _log_l_exact(fld: NumberField, chi: HeckeCharacter, z: complex,
                 cfg: EvalConfig) -> complex:
    """Branch-correct log L(z) without Euler truncation (depth 1 only)."""
    if z.imag == 0.0 and z.real > 1.0:
        v = l_value(fld, chi, z, cfg)
        if v.imag == 0.0 and v.real > 0.0:
            return complex(math.log(v.real))
    anchor = max(3.0, z.real + 1.0)
    return log_l_branch(fld, chi, PathSpec((complex(anchor), z)), cfg)


def determinant_closed(fld: NumberField, chi: HeckeCharacter, r: int,
                       z: complex, cfg: EvalConfig = DEFAULT_CONFIG,
                       prime_bound: int | None = None) -> XiValue:
    """Closed-form depth-r determinant.

    log Xi_r(z) = eps sum_{u in {z, z-1}} (u/2pi)^(r-1) log(u/2pi)
                  + (-1)^(r-1) (r-1)! (2pi)^(1-r) log L^(r)(z)
                  + sum_v [ -((N_v pi)^(1-r)/r) B_r(w_v) log(N_v pi)
                            + (N_v pi)^(1-r) log MilnorGamma_r(w_v) ]

    The depth-r logarithm comes from the truncated Euler sum (depth 1 uses
    the exact analytic value), Milnor gamma logs from the Hurwitz zeta
    s-derivative at 1 - r.
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
        log_lr, tail = _log_l_exact(fld, chi, z, cfg), 0.0
        bound = 0
    else:
        log_lr, tail, bound = poly_l_log_euler(fld, chi, r, z, cfg,
                                               prime_bound
                                               or _auto_prime_bound(fld, z))
    lcoef = (-1.0) ** (r - 1) * math.factorial(r - 1) * _TWO_PI ** (1 - r)
    logv += lcoef * log_lr

    err = abs(lcoef) * tail
    for v in chi.arch_places():
        base = v.nv * math.pi
        w = _w_place(v, z)
        em = hurwitz_zeta_em(1 - r, w, cfg)
        coef = base ** (1 - r)
        logv += -(coef / r) * complex(bernoulli_poly(r, w)) * math.log(base)
        logv += coef * em.ds
        err += coef * em.err_ds
    return _xi_from_log(logv, err, "closed")


def _auto_prime_bound(fld: NumberField, z: complex) -> int:
    """Smallest sieve bound whose estimated Euler tail is below 2e-7."""
    sigma = complex(z).real
    for x in (100_000, 500_000, 2_000_000, 4_000_000, 8_000_000):
        est = fld.degree * x ** (1.0 - sigma) / ((sigma - 1.0) * math.log(x))
        if est <= 2e-7:
            return x
    return 8_000_000


def regularized_product(fld: NumberField, chi: HeckeCharacter, z: complex,
                        cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Depth-1 determinant as an elementary multiple of the completed
    L-function:

        Xi_1(z) = (Nf |d_K|)^(-z/2) 2^(-eps - r1/2 - i phi_C - m_C/2)
                  pi^(-2 eps - m/2) Lambda(z)

    with phi_C, m_C summing the frequencies and weights of the complex
    places and m the total weight over all places.
    """
    _check_pair(fld, chi)
    z = complex(z)
    places = chi.arch_places()
    phi_c = sum(v.phi for v in places if v.nv == 2)
    m_c = sum(abs(v.m) for v in places if v.nv == 2)
    m = sum(abs(v.m) for v in places)
    eps = chi.epsilon
    q = chi.conductor_norm * abs(fld.discriminant)
    lam = completed_lambda(fld, chi, z, cfg)
    two_exp = -(eps + 0.5 * fld.r1 + 1j * phi_c + 0.5 * m_c)
    pi_exp = -(2.0 * eps + 0.5 * m)
    return cmath.exp(-0.5 * z * math.log(q)
                     + two_exp * math.log(2.0)
                     + pi_exp * math.log(math.pi)) * lam
