"""Hecke L-functions for the supported family, via Hurwitz zeta assembly.

Global continuation comes for free from the Euler-Maclaurin Hurwitz zeta,
every value and s-derivative read from `special_functions.hurwitz_zeta_em`
(so its finite-input, pole-guard and finite-output checks hold here too):

  * zeta(s) = zeta(s, 1),
  * L(s, chi) = q^{-s} sum_a chi(a) zeta(s, a/q) for Dirichlet chi mod q,
    with the pole-subtracted zeta(s, a/q) - 1/(s-1) (`minus_pole=True`),
    whose subtracted poles cancel because the chi(a) sum to zero,
  * zeta_K(s) = zeta(s) L(s, chi_{d_K}) for quadratic K.

`_l_and_ds` returns L, L' and the kernel's bounds on them at a scalar s or
an array of nodes (same shape back); the Dirichlet sum makes one batched
Hurwitz call for all residues and nodes.  `l_value`, the analytic route of
`l_log_derivative` and `completed_lambda` read it and take arrays too.

On top of that sit the completed function with its gamma factors, the root
number of its functional equation from the Gauss sum, the polyline path
type that `poly_l` continues log L^(r) along, and contour zero counting by
the argument principle.

Right of Re(s) = 1, `_power_sum` sums over prime ideals and powers in one
flat pass over the cached ideal table (`_ideal_arrays`): the head of the
Euler route of `poly_l`, and `_prime_power_sum`, the `ladder` suite's sieve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DomainError, FieldMismatch, GammaPole, NearZeroOfL,
                     NonClosedLoop, ResidualTooLarge, UnsupportedCharacter)
from .fields_and_characters import (HeckeCharacter, NumberField,
                                    _ideal_table, kronecker_character)
from .quadrature import integrate_polyline
from .special_functions import (_EPS, EM_CHUNK, EmResult, _fields,
                                hurwitz_zeta_em, log_gamma)

__all__ = [
    "PathSpec",
    "l_value",
    "l_log_derivative",
    "completed_lambda",
    "conductor",
    "root_number",
    "argument_principle_count",
]

_SERIES_MIN_RE = 1.02      # the Euler route's floor on Re(s)


# ---------------------------------------------------------------------------
# Paths


@dataclass(frozen=True)
class PathSpec:
    """A polyline s-plane path given by its waypoints."""

    waypoints: tuple[complex, ...]

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise DomainError("path needs at least two waypoints")
        if not all(map(cmath.isfinite, self.waypoints)):
            raise DomainError(f"waypoints must be finite: {self.waypoints}")
        for a, b in zip(self.waypoints[:-1], self.waypoints[1:]):
            if abs(a - b) == 0.0:
                raise DomainError("consecutive waypoints must be distinct")

    @staticmethod
    def rectangle(re0: float, re1: float, im0: float, im1: float) -> "PathSpec":
        """Closed counterclockwise rectangle [re0, re1] x [im0, im1]."""
        c = (complex(re0, im0), complex(re1, im0), complex(re1, im1),
             complex(re0, im1), complex(re0, im0))
        return PathSpec(c)

    @property
    def is_closed(self) -> bool:
        return abs(self.waypoints[0] - self.waypoints[-1]) < 1e-12

    def min_distance_to(self, point: complex) -> float:
        """Distance from the polyline to a point."""
        best = math.inf
        for a, b in zip(self.waypoints[:-1], self.waypoints[1:]):
            seg = b - a
            # orthogonal projection parameter, clamped to the segment
            t = ((point - a).real * seg.real + (point - a).imag * seg.imag) \
                / abs(seg) ** 2
            t = min(1.0, max(0.0, t))
            best = min(best, abs(a + t * seg - point))
        return best


# ---------------------------------------------------------------------------
# Values and s-derivatives by Hurwitz assembly


def _check_pair(fld: NumberField, chi: HeckeCharacter):
    if chi.fld != fld:
        raise FieldMismatch(f"character of {chi.fld} used with {fld}")
    if not (chi.is_principal or fld.is_rational):
        raise UnsupportedCharacter("Dirichlet characters live over Q")
    if fld.degree > 2:
        raise UnsupportedCharacter("only Q and quadratic fields are supported")


def _dirichlet_and_ds(chi: HeckeCharacter, s: np.ndarray) -> EmResult:
    """L(s, chi), L'(s, chi) and their bounds at an array of nodes, for a
    primitive non-principal Dirichlet chi.

    Assembled from pole-subtracted Hurwitz zetas, one batched call for
    every residue with chi(a) != 0 and every node, weighted and summed
    over the residues by broadcasting; the subtracted poles cancel
    because the character values sum to zero, so the assembly is valid at
    s = 1 as well.  Each residue's derivative is that of q^-s zeta(s,
    a/q), summed from the bases q m + a (`scale=q`): L' carries no
    -log(q) L, which far right would cancel to rounding noise against the
    tiny true L'/L.  The bounds add the kernel's times |chi(a) q^-s|.
    """
    q = chi.modulus
    values = np.array(chi.values, dtype=np.complex128)
    a = np.flatnonzero(values)
    em = hurwitz_zeta_em(s, a, minus_pole=True, scale=q)
    v = values[a, None]
    qs = np.exp(-s * math.log(q))
    aq = np.abs(qs)     # and |chi(a)| = 1 on every residue summed
    return EmResult(*(k * f.sum(axis=0) for k, f in zip(
        (qs, qs, aq, aq), (v * em.value, v * em.ds, em.err_value, em.err_ds))))


@lru_cache(maxsize=16)
def _quadratic_kronecker(fld: NumberField) -> HeckeCharacter:
    return kronecker_character(fld.discriminant)


def _l_and_ds(fld: NumberField, chi: HeckeCharacter, s) -> tuple:
    """(L, L', err_L, err_L'), the kernel's bounds carried through the sums
    and product rule, at a scalar s or an array of nodes (s's shape)."""
    _check_pair(fld, chi)
    arr = np.asarray(s, dtype=np.complex128)
    nodes = arr.reshape(-1)
    L, dL = np.empty_like(nodes), np.empty_like(nodes)
    eL, edL = np.empty(len(nodes)), np.empty(len(nodes))
    # one kernel chunk of at most EM_CHUNK nodes at a time, so that all
    # Hurwitz pieces of a chunk (zeta and L(chi_d) of a Dedekind zeta)
    # share its Pochhammer table; far left of 0 the q^-s factor or the
    # Dedekind product can overflow finite Hurwitz values
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(nodes), EM_CHUNK):
            part, at = nodes[lo:lo + EM_CHUNK], slice(lo, lo + EM_CHUNK)
            if not chi.is_principal:
                em = _dirichlet_and_ds(chi, part)
            elif fld.is_rational:
                em = hurwitz_zeta_em(part, 1.0)
            else:
                # Dedekind zeta of a quadratic field: zeta(s) L(s, chi_disc)
                z, dz, ez, edz = _fields(hurwitz_zeta_em(part, 1.0))
                l, dl, el, edl = _fields(
                    _dirichlet_and_ds(_quadratic_kronecker(fld), part))
                em = EmResult(
                    z * l, dz * l + z * dl, abs(z) * el + abs(l) * ez,
                    abs(l) * edz + abs(dz) * el + abs(dl) * ez + abs(z) * edl)
            L[at], dL[at], eL[at], edL[at] = _fields(em)
    finite = np.isfinite(L) & np.isfinite(dL) & np.isfinite(eL + edL)
    if not finite.all():
        raise DomainError(f"L(s) at s = {nodes[~finite][0]} overflows double "
                          "precision")
    if arr.ndim == 0:
        return complex(L[0]), complex(dL[0]), float(eL[0]), float(edL[0])
    return tuple(x.reshape(arr.shape) for x in (L, dL, eL, edL))


def l_value(fld: NumberField, chi: HeckeCharacter, s):
    """L_K(s, chi) for the supported family, continued to s != pole, at a
    scalar s or elementwise over an array of nodes."""
    return _l_and_ds(fld, chi, s)[0]


def l_log_derivative(fld: NumberField, chi: HeckeCharacter, s):
    """(L'/L)(s, chi) at a scalar s or elementwise over an array of nodes;
    NearZeroOfL where |L| < 1e-12 or |L| <= the kernel's bound on L."""
    L, dL, err = _l_and_ds(fld, chi, s)[:3]
    if (small := np.abs(L) <= np.maximum(1e-12, err)).any():
        raise NearZeroOfL("|L| is below 1e-12 or its bound at s = "
                          f"{np.asarray(s, dtype=np.complex128)[small][0]}")
    return dL / L


# ---------------------------------------------------------------------------
# Prime power sums (Re s > 1)


@lru_cache(maxsize=64)
def _ideal_arrays(fld: NumberField, chi: HeckeCharacter, bound: int):
    """(norms, log norms, character values) of the prime ideals of norm
    <= bound, sorted by norm; a Dirichlet character is read at p mod q."""
    ps, norms = _ideal_table(fld, bound)
    chiv = np.array(chi.values, dtype=np.complex128)[ps % chi.modulus]
    norms = norms.astype(np.float64)
    return norms, np.log(norms), chiv


def _prime_power_sum(fld: NumberField, chi: HeckeCharacter, s: complex,
                     r: int, bound: int) -> complex:
    """sum over P with NP <= bound and l >= 1 of
    (log NP)^(1-r) chi(P)^l NP^(-ls) / l^r, for r >= 0 and Re(s) > 1.

    Terms with NP^(-l Re s) < 1e-19 are dropped, so for each l the kept
    ideals are a table prefix [0, k_l), and l stops at the first power that
    drops every ideal; Re(s) must not be NaN.  All (l, ideal) terms form one
    flat array, from a single exponential call over the table (`_power_sum`).
    """
    norms, logn, chiv = _ideal_arrays(fld, chi, bound)
    return _power_sum(norms, logn ** (1 - r), chiv * np.exp(-s * logn),
                      s.real, r)


def _power_sum(norms, weight, base, sigma: float, r: int) -> complex:
    """`_prime_power_sum` from a table's norms NP, weights (log NP)^(1-r)
    and chi(P) NP^-s = base, at sigma = Re s."""
    # k_l is nonincreasing in l, and zero once l log10 NP_min > 19 / sigma
    top = int(19.0 / (sigma * math.log10(norms[0]))) + 2
    ls = np.arange(1, top + 1)
    ks = norms.searchsorted(10.0 ** (19.0 / (ls * sigma)), side="right")
    ls, ks = ls[ks > 0], ks[ks > 0]
    l = ls.repeat(ks)
    i = np.arange(l.size) - (ks.cumsum() - ks).repeat(ks)   # ideal index
    # chi(P)^l NP^(-ls) as an integer power of chi(P) NP^-s, which numpy
    # forms by repeated squaring; l^-r as a float power, which underflows
    # to 0 quietly at large depth
    inv_lr = (ls.astype(float) ** -r).repeat(ks)
    return complex((weight[i] * base[i] ** l * inv_lr).sum())


# ---------------------------------------------------------------------------
# Completed function, root number, zero counting


def conductor(fld: NumberField, chi: HeckeCharacter) -> int:
    """The conductor q = N(f) |d_K| of L(s, chi)."""
    return chi.conductor_norm * abs(fld.discriminant)


def completed_lambda(fld: NumberField, chi: HeckeCharacter, s):
    """Completed L-function: pole factor, conductor power, gamma factors,
    at a scalar s or elementwise over an array of nodes.

    Entire for non-principal chi; for principal chi the polynomial factor
    absorbs the poles at 0 and 1 (evaluation exactly at s = 1 is still
    blocked by the pole guard of the L-value route).
    """
    out = _completed(fld, chi, s)[0]
    return complex(out) if out.ndim == 0 else out


def _completed(fld: NumberField, chi: HeckeCharacter, s) -> tuple:
    """(Lambda, bound): |Lambda| times L's relative bound plus exp's rounding
    of the exponents, 4 eps (1 + |log A^(s/2)| + sum of |log Gamma(w)| + 16;
    log Gamma's Stirling terms at |w + n| >= 12 reach ~40 and cancel)."""
    _check_pair(fld, chi)
    s = np.asarray(s, dtype=np.complex128)
    gamma_prod, expo = 1.0, 1.0
    for pl in chi.arch_places():
        w = pl.w(s)
        if (left := w.real <= 0).any():
            raise DomainError(f"gamma argument {w[left][0]} has Re <= 0; "
                              "reflection not implemented")
        k = np.round(w.real)
        if (pole := (np.abs(w - k) < 1e-8) & (k <= 0)).any():
            raise GammaPole(f"gamma factor pole at argument {w[pole][0]}")
        gamma_prod = gamma_prod * np.exp(lg := log_gamma(w))
        expo = expo + np.abs(lg) + 16.0
    # the conductor factor q / (2^(2 r2) pi^n)
    A = conductor(fld, chi) / (4.0 ** fld.r2 * math.pi ** fld.degree)
    L, _, err, _ = _l_and_ds(fld, chi, s)
    out = np.exp(log_a := 0.5 * s * math.log(A)) * L * gamma_prod
    if chi.epsilon == 1:
        out = out * (0.5 * s * (s - 1.0))
    return out, np.abs(out) * (err / np.abs(L)
                               + 4.0 * _EPS * (expo + np.abs(log_a)))


def root_number(fld: NumberField, chi: HeckeCharacter) -> complex:
    """W with Lambda(1 - s, conj chi) = W Lambda(s, chi), in closed form.

    For a character mod q of parity a it is i^a sqrt(q) / tau(chi), with
    the Gauss sum tau(chi) = sum_m chi(m) e^(2 pi i m / q) (Davenport,
    Multiplicative Number Theory, ch. 9), under the conductor and gamma
    factors of `completed_lambda`; the principal table (1,) mod 1 has
    tau = 1, so W = 1.  The Gauss sum is summed exactly rounded
    (`math.fsum`), so only its q terms carry rounding error.
    """
    _check_pair(fld, chi)
    q = chi.modulus
    terms = [v * cmath.exp(2j * math.pi * a / q) for a, v in enumerate(chi.values)]
    tau = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return 1j ** chi.parity * math.sqrt(q) / tau


def argument_principle_count(fld: NumberField, chi: HeckeCharacter,
                             loop: PathSpec) -> int:
    """(1/2 pi i) contour integral of L'/L: zeros minus poles inside.

    The loop must be closed; for principal characters a loop around s = 1
    counts the pole with weight -1.
    """
    if not loop.is_closed:
        raise NonClosedLoop("argument principle needs a closed loop")

    def f(u: np.ndarray) -> np.ndarray:
        return l_log_derivative(fld, chi, u)

    res = integrate_polyline(f, loop.waypoints)
    raw = res.value / (2j * math.pi)
    n = round(raw.real)
    resid = abs(raw - n)
    if resid >= 0.01:
        raise ResidualTooLarge(
            f"winding number residual {resid:.2e} (raw {raw}); "
            "loop may pass too close to a zero")
    return int(n)
