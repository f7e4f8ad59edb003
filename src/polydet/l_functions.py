"""Hecke L-functions for the supported family, via Hurwitz zeta assembly.

Global continuation comes for free from the Euler-Maclaurin Hurwitz zeta,
every value and s-derivative read from `special_functions.hurwitz_zeta_em`
(so its finite-input, pole-guard and finite-output checks hold here too):

  * zeta(s) = zeta(s, 1),
  * L(s, chi) = q^{-s} sum_a chi(a) zeta(s, a/q) for Dirichlet chi mod q,
    with the pole-subtracted zeta(s, a/q) - 1/(s-1) (`minus_pole=True`),
    whose subtracted poles cancel because the chi(a) sum to zero,
  * zeta_K(s) = zeta(s) L(s, chi_{d_K}) for quadratic K.

`_l_and_ds` returns (L, L') from this assembly at a scalar s or an array of
nodes (same shape back); the Dirichlet sum makes one batched Hurwitz call
per residue for all nodes.  `l_value`, the analytic route of
`l_log_derivative` and `completed_lambda` read it and take arrays too.

On top of that sit the completed function with its gamma factors, the root
number from the functional equation, the path and cut-plane types that
`poly_l` continues log L^(r) on, and contour zero counting by the argument
principle.

Right of Re(s) = 1 an independent route sums over prime ideals in one
kernel, `_prime_power_sum`: its rung r = 1 is log L (`log_l_series`), its
rung r = 0 is -L'/L (`l_log_derivative`, route "series"), and r >= 2 gives
the depth-r logarithms of `poly_l`.  It sums norms below P0 = 4096 term by
term and the rest in blocks of width h = 1/16 in log NP, each from
precomputed moments and a 20-term Taylor series about the block centre
(the local-Taylor step of the non-uniform FFT, Dutt & Rokhlin 1993), so
a sum to the 8M bound costs a few hundred exponentials instead of one per
prime ideal.  The moments depend on neither s nor r and are cached per
table and power class of the character, their binomially weighted sums per
depth r as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import EvalConfig, DEFAULT_CONFIG
from .errors import (DegenerateSample, DomainError, FieldMismatch, GammaPole,
                     NearZeroOfL, NonClosedLoop, ResidualTooLarge,
                     UnsupportedCharacter)
from .fields_and_characters import (HeckeCharacter, NumberField,
                                    _ideal_table, kronecker_character)
from .quadrature import integrate_polyline
from .special_functions import EM_CHUNK, hurwitz_zeta_em, log_gamma

__all__ = [
    "PathSpec",
    "OmegaRegion",
    "l_value",
    "l_log_derivative",
    "log_l_series",
    "completed_lambda",
    "conductor_factor",
    "root_number",
    "argument_principle_count",
]

_SERIES_MIN_RE = 1.02      # prime power series only used comfortably right of 1
_SMALL_L = 1e-12


# ---------------------------------------------------------------------------
# Path and branch-domain types


@dataclass(frozen=True)
class PathSpec:
    """A polyline s-plane path given by its waypoints."""

    waypoints: tuple[complex, ...]

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise DomainError("path needs at least two waypoints")
        for a, b in zip(self.waypoints[:-1], self.waypoints[1:]):
            if abs(a - b) == 0.0:
                raise DomainError("consecutive waypoints must be distinct")

    @staticmethod
    def line(a: complex, b: complex) -> "PathSpec":
        return PathSpec((complex(a), complex(b)))

    @staticmethod
    def rectangle(re0: float, re1: float, im0: float, im1: float) -> "PathSpec":
        """Closed counterclockwise rectangle [re0, re1] x [im0, im1]."""
        c = (complex(re0, im0), complex(re1, im0), complex(re1, im1),
             complex(re0, im1), complex(re0, im0))
        return PathSpec(c)

    @property
    def is_closed(self) -> bool:
        return abs(self.waypoints[0] - self.waypoints[-1]) < 1e-12

    @property
    def length(self) -> float:
        return sum(abs(b - a) for a, b in
                   zip(self.waypoints[:-1], self.waypoints[1:]))

    @property
    def max_abs_im(self) -> float:
        return max(abs(u.imag) for u in self.waypoints)

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


@dataclass(frozen=True)
class OmegaRegion:
    """Cut plane on which the continued log L is single valued.

    The excluded set is a union of leftward horizontal half-lines: from the
    pole at 1 (principal characters), from the rightmost trivial zero of
    each gamma factor, and from each tabulated nontrivial zero (assumed on
    the critical line).  Membership is only verifiable away from the
    critical line and below the completeness height of the table.
    """

    pole_cut: bool
    trivial_cut_starts: tuple[complex, ...]
    zero_ordinates: tuple[float, ...]
    completeness: float
    tol: float = 1e-9

    def contains(self, w):
        """Whether w lies off every cut; elementwise over an array."""
        w = np.asarray(w, dtype=np.complex128)
        tol = self.tol
        out = np.ones(w.shape, dtype=bool)
        if self.pole_cut:
            out &= ~((np.abs(w.imag) < tol) & (w.real <= 1.0 + tol))
        for c in self.trivial_cut_starts:
            out &= ~((np.abs(w.imag - c.imag) < tol) & (w.real <= c.real + tol))
        if self.zero_ordinates:
            g = np.asarray(self.zero_ordinates)
            im = w.imag[..., None]
            on_ordinate = ((np.abs(im - g) < tol)
                           | (np.abs(im + g) < tol)).any(axis=-1)
            out &= ~(on_ordinate & (w.real <= 0.5 + tol))
        return bool(out) if w.ndim == 0 else out

    def verifiable(self, w):
        """Whether containment can actually be certified for this point;
        elementwise over an array."""
        w = np.asarray(w, dtype=np.complex128)
        tol = self.tol
        near_line = (0.4 - tol <= w.real) & (w.real <= 0.6 + tol)
        too_high = np.abs(w.imag) > self.completeness + tol
        out = (w.real > 1.0) | ~(near_line | too_high)
        return bool(out) if w.ndim == 0 else out


def omega_region(fld: NumberField, chi: HeckeCharacter,
                 zero_ordinates=(), completeness: float = 0.0) -> OmegaRegion:
    starts = tuple(complex(-abs(pl.m) / pl.nv, -pl.phi)
                   for pl in chi.arch_places())
    return OmegaRegion(chi.epsilon == 1, starts, tuple(float(g) for g in
                       zero_ordinates), float(completeness))


# ---------------------------------------------------------------------------
# Values and s-derivatives by Hurwitz assembly


def _check_pair(fld: NumberField, chi: HeckeCharacter):
    if chi.fld != fld:
        raise FieldMismatch(f"character of {chi.fld} used with {fld}")
    if chi.kind == "dirichlet" and not fld.is_rational:
        raise UnsupportedCharacter("Dirichlet characters live over Q")
    if chi.kind == "trivial":
        return
    if chi.kind != "dirichlet":
        raise UnsupportedCharacter(f"unsupported character kind {chi.kind!r}")
    if fld.degree > 2:
        raise UnsupportedCharacter("only Q and quadratic fields are supported")


def _zeta_and_ds(s: np.ndarray, cfg: EvalConfig) -> tuple[np.ndarray, np.ndarray]:
    em = hurwitz_zeta_em(s, 1.0, cfg)
    return em.value, em.ds


def _dirichlet_and_ds(chi: HeckeCharacter, s: np.ndarray,
                      cfg: EvalConfig) -> tuple[np.ndarray, np.ndarray]:
    """L(s, chi) and L'(s, chi) at an array of nodes, for a primitive
    non-principal Dirichlet chi.

    Assembled from pole-subtracted Hurwitz zetas, one batched call per
    residue; the subtracted poles cancel because the character values sum
    to zero, so the assembly is valid at s = 1 as well.
    """
    q = chi.modulus
    qs = np.exp(-s * math.log(q))
    tot = np.zeros_like(s)
    dtot = np.zeros_like(s)
    for a in range(1, q):
        v = chi.values[a]
        if v == 0:
            continue
        em = hurwitz_zeta_em(s, a / q, cfg, minus_pole=True)
        tot += v * em.value
        dtot += v * em.ds
    L = qs * tot
    dL = -math.log(q) * L + qs * dtot
    return L, dL


@lru_cache(maxsize=16)
def _quadratic_kronecker(fld: NumberField) -> HeckeCharacter:
    return kronecker_character(fld.discriminant)


def _l_and_ds(fld: NumberField, chi: HeckeCharacter, s,
              cfg: EvalConfig) -> tuple:
    """(L, L') by the analytic route at a scalar s (complex results) or an
    array of nodes (arrays of the same shape)."""
    _check_pair(fld, chi)
    arr = np.asarray(s, dtype=np.complex128)
    nodes = arr.reshape(-1)
    L = np.empty_like(nodes)
    dL = np.empty_like(nodes)
    # one kernel chunk at a time, so that all Hurwitz pieces of a chunk
    # share its Pochhammer table
    for lo in range(0, len(nodes), EM_CHUNK):
        part, at = nodes[lo:lo + EM_CHUNK], slice(lo, lo + EM_CHUNK)
        if chi.kind == "dirichlet":
            L[at], dL[at] = _dirichlet_and_ds(chi, part, cfg)
        elif fld.is_rational:
            L[at], dL[at] = _zeta_and_ds(part, cfg)
        else:
            # Dedekind zeta of a quadratic field: zeta(s) * L(s, chi_disc)
            z, dz = _zeta_and_ds(part, cfg)
            l, dl = _dirichlet_and_ds(_quadratic_kronecker(fld), part, cfg)
            L[at], dL[at] = z * l, dz * l + z * dl
    if arr.ndim == 0:
        return complex(L[0]), complex(dL[0])
    return L.reshape(arr.shape), dL.reshape(arr.shape)


def l_value(fld: NumberField, chi: HeckeCharacter, s,
            cfg: EvalConfig = DEFAULT_CONFIG):
    """L_K(s, chi) for the supported family, continued to s != pole, at a
    scalar s or elementwise over an array of nodes."""
    return _l_and_ds(fld, chi, s, cfg)[0]


def l_log_derivative(fld: NumberField, chi: HeckeCharacter, s,
                     cfg: EvalConfig = DEFAULT_CONFIG,
                     route: str = "analytic"):
    """(L'/L)(s, chi).

    route "analytic" differentiates the Hurwitz assembly and works wherever
    L is nonzero, at a scalar s or elementwise over an array of nodes
    (NearZeroOfL if any node has |L| < 1e-12); route "series" sums the
    prime power Dirichlet series at a scalar s and requires Re(s) > 1
    (used as an independent cross-check).
    """
    if route == "series":
        s = complex(s)
        _check_pair(fld, chi)
        if not s.real > _SERIES_MIN_RE:   # also rejects NaN
            raise DomainError(f"series route requires Re(s) > {_SERIES_MIN_RE}")
        return -_prime_power_sum(fld, chi, s, 0, cfg.prime_bound)
    if route != "analytic":
        raise DomainError(f"unknown route {route!r}")
    L, dL = _l_and_ds(fld, chi, s, cfg)
    if (small := np.abs(L) < _SMALL_L).any():
        raise NearZeroOfL(f"|L| is below {_SMALL_L} at s = "
                          f"{np.asarray(s, dtype=np.complex128)[small][0]}")
    return dL / L


# ---------------------------------------------------------------------------
# Prime power series (independent route, Re s > 1)


# Far field of the prime-power sum: norms of at least _NEAR_NORM fall into
# blocks of width _BLOCK_WIDTH in log NP, each summed from _TAYLOR_TERMS
# moments while |l s| _BLOCK_WIDTH / 2 <= 1 (see `_prime_power_sum`)
_NEAR_NORM = 4096
_LOG_NEAR = math.log(_NEAR_NORM)
_BLOCK_WIDTH = 1.0 / 16.0
_TAYLOR_TERMS = 20


@lru_cache(maxsize=64)
def _ideal_arrays(fld: NumberField, chi: HeckeCharacter, bound: int):
    """(norms, log norms, character values) of the prime ideals of norm
    <= bound, sorted by norm; a Dirichlet character is read at p mod q."""
    ps, norms = _ideal_table(fld, bound)
    if chi.kind == "trivial":
        chiv = np.ones(len(ps), dtype=np.complex128)
    else:
        chiv = np.array(chi.values, dtype=np.complex128)[ps % chi.modulus]
    norms = norms.astype(np.float64)
    return norms, np.log(norms), chiv


def _block_centres(nblocks: int) -> np.ndarray:
    """log NP at the centres a_b of the first nblocks far-field blocks."""
    return _LOG_NEAR + _BLOCK_WIDTH * (np.arange(nblocks) + 0.5)


def _block_edges(logn: np.ndarray) -> np.ndarray:
    """Table indices where the far-field blocks [log P0 + b h,
    log P0 + (b+1) h) start, then len(logn); [0, edges[0]) is near."""
    top = logn[-1] if logn.size else 0.0
    nblocks = int((top - _LOG_NEAR) // _BLOCK_WIDTH) + 1 if top >= _LOG_NEAR \
        else 0
    return np.searchsorted(
        logn, _LOG_NEAR + _BLOCK_WIDTH * np.arange(nblocks + 1))


@lru_cache(maxsize=64)
def _character_order(chi: HeckeCharacter) -> int:
    """Least m >= 1 with chi^m principal, so chi^l = chi^((l-1) % m + 1)."""
    values = np.array([v for v in chi.values if abs(v) > 0.5],
                      dtype=np.complex128)
    m = 1
    while np.abs(values ** m - 1.0).max(initial=0.0) > 1e-9:
        m += 1
    return m


@lru_cache(maxsize=64)
def _block_moments(fld: NumberField, chi: HeckeCharacter, bound: int,
                   power: int) -> np.ndarray:
    """M[b, n] = sum over P in far-field block b of chi(P)^power d_P^n,
    n < _TAYLOR_TERMS, with d_P the offset of log NP from the block centre;
    real for a real character.  Independent of s and r."""
    _, logn, chiv = _ideal_arrays(fld, chi, bound)
    edges = _block_edges(logn)
    lo, counts = edges[0], np.diff(edges)
    d = np.repeat(_block_centres(counts.size), counts)
    np.subtract(logn[lo:], d, out=d)
    w = chiv[lo:].real ** power if chi.is_self_dual else chiv[lo:] ** power
    moments = np.zeros((counts.size, _TAYLOR_TERMS), dtype=w.dtype)
    full = np.flatnonzero(counts)
    starts = edges[full] - lo
    for n in range(_TAYLOR_TERMS):
        moments[full, n] = np.add.reduceat(w, starts)
        w *= d
    return moments


@lru_cache(maxsize=256)
def _weighted_moments(fld: NumberField, chi: HeckeCharacter, bound: int,
                      power: int, r: int) -> np.ndarray:
    """R[b, j] = sum over k < NT - j of binom(1-r, k) a_b^(1-r-k) M[b, k+j]:
    the moments of `_block_moments` weighted by the binomial series of
    (a_b + d)^(1-r) = (log NP)^(1-r) about the block centre a_b.
    Independent of s."""
    moments = _block_moments(fld, chi, bound, power)
    k = np.arange(_TAYLOR_TERMS)
    a = _block_centres(len(moments))
    binom = np.cumprod(np.concatenate(([1.0], (1 - r - k[:-1]) / k[1:])))
    weights = binom * a[:, None] ** (1 - r - k)
    out = np.empty_like(moments)
    for j in range(_TAYLOR_TERMS):
        out[:, j] = np.sum(weights[:, :_TAYLOR_TERMS - j] * moments[:, j:],
                           axis=1)
    return out


def _far_field(weighted: np.ndarray, ls: complex) -> complex:
    """sum over the first len(weighted) blocks b of
    exp(-ls a_b) sum_j (-ls)^j / j! R[b, j], R from `_weighted_moments`."""
    a = _block_centres(len(weighted))
    expo = np.cumprod(np.concatenate(
        ([1.0], -ls / np.arange(1, _TAYLOR_TERMS))))
    # elementwise, not a matrix product, which would page BLAS kernels
    # into memory for a 20-term sum
    return complex(np.sum(np.exp(-ls * a) * np.sum(weighted * expo, axis=1)))


def _prime_power_sum(fld: NumberField, chi: HeckeCharacter, s: complex,
                     r: int, bound: int) -> complex:
    """sum over P with NP <= bound and l >= 1 of
    (log NP)^(1-r) chi(P)^l NP^(-ls) / l^r, for r >= 0 and Re(s) > 1.

    Terms with NP^(-l Re s) < 1e-19 are dropped; the sum over l stops at the
    first power where that drops every ideal, so Re(s) must not be NaN.

    For each l the kept ideals are the table prefix [0, k).  The near field,
    norms below P0 = `_NEAR_NORM` and the partial block at the cutoff k, is
    summed term by term.  The far field, the whole blocks of width
    h = `_BLOCK_WIDTH` in log NP between them, is summed per block b as

        exp(-ls a_b) sum_{n < NT} c_n M[b, n],

    with a_b the block centre, c_n the Taylor coefficients in d of
    exp(-ls d) (a_b + d)^(1-r) and M[b, n] = sum_{P in b} chi(P)^l d_P^n
    the moments of `_block_moments` (NT = `_TAYLOR_TERMS` = 20).  Grouped by
    the power of ls this is exp(-ls a_b) sum_j (-ls)^j / j! R[b, j], with R
    the binomially weighted moments of `_weighted_moments`, so a call costs
    one exponential per block.  Blocks are used only while |l s| h/2 <= 1;
    beyond that k itself ends the near field, so every ideal is summed term
    by term.

    Error: with |l s d| <= 1 the Taylor remainder of exp(-ls d) is at most
    e/NT! relative to exp(-ls a_b), and each term is at least e^-1 times
    that, so truncation costs about e^2/20! ~ 3e-18 of sum |terms|; the
    binomial series converges like (h / 2 a_b)^n <= 0.004^n.  The sum of
    |c_n M[b, n]| is at most about e^2 times the block's sum |terms|, so
    rounding stays within a few units of eps sum |terms|, as for the
    per-term sum.
    """
    norms, logn, chiv = _ideal_arrays(fld, chi, bound)
    edges = _block_edges(logn)

    def near(lo: int, hi: int, l: int) -> complex:
        x = logn[lo:hi]
        return np.sum(x ** (1 - r) * chiv[lo:hi] ** l * np.exp(-l * s * x))

    total = 0.0 + 0.0j
    l = 1
    while True:
        k = int(np.searchsorted(norms, 10.0 ** (19.0 / (l * s.real)),
                                side="right"))
        if k == 0:
            return complex(total)
        nb = 0
        if abs(l * s) * _BLOCK_WIDTH / 2 <= 1.0:
            nb = int(np.searchsorted(edges[1:], k, side="right"))
        if nb == 0:
            part = near(0, k, l)
        else:
            power = (l - 1) % _character_order(chi) + 1
            weighted = _weighted_moments(fld, chi, bound, power, r)
            part = near(0, edges[0], l) + near(edges[nb], k, l) \
                + _far_field(weighted[:nb], l * s)
        total += part / l ** r
        l += 1


def log_l_series(fld: NumberField, chi: HeckeCharacter, s: complex,
                 cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """log L(s, chi) from the absolutely convergent prime power series.

    This is the canonical branch on Re(s) > 1 (it tends to 0 as
    Re(s) -> infinity).
    """
    s = complex(s)
    _check_pair(fld, chi)
    if not s.real > _SERIES_MIN_RE:   # also rejects NaN
        raise DomainError(f"log L series requires Re(s) > {_SERIES_MIN_RE}")
    return _prime_power_sum(fld, chi, s, 1, cfg.prime_bound)


# ---------------------------------------------------------------------------
# Completed function, root number, zero counting


def conductor_factor(fld: NumberField, chi: HeckeCharacter) -> float:
    """N(conductor) |d_K| / (2^{2 r2} pi^n)."""
    n = fld.degree
    return chi.conductor_norm * abs(fld.discriminant) / \
        (4.0 ** fld.r2 * math.pi ** n)


def completed_lambda(fld: NumberField, chi: HeckeCharacter, s,
                     cfg: EvalConfig = DEFAULT_CONFIG):
    """Completed L-function: pole factor, conductor power, gamma factors,
    at a scalar s or elementwise over an array of nodes.

    Entire for non-principal chi; for principal chi the polynomial factor
    absorbs the poles at 0 and 1 (evaluation exactly at s = 1 is still
    blocked by the pole guard of the L-value route).
    """
    _check_pair(fld, chi)
    s = np.asarray(s, dtype=np.complex128)
    gamma_prod = 1.0
    for pl in chi.arch_places():
        w = (pl.nv * (s + 1j * pl.phi) + abs(pl.m)) / 2.0
        if (left := w.real <= 0).any():
            raise DomainError(f"gamma argument {w[left][0]} has Re <= 0; "
                              "reflection not implemented")
        k = np.round(w.real)
        if (pole := (np.abs(w - k) < 1e-8) & (k <= 0)).any():
            raise GammaPole(f"gamma factor pole at argument {w[pole][0]}")
        gamma_prod = gamma_prod * np.exp(log_gamma(w))
    A = conductor_factor(fld, chi)
    out = np.exp(0.5 * s * math.log(A)) * l_value(fld, chi, s, cfg) * gamma_prod
    if chi.epsilon == 1:
        out = out * (0.5 * s * (s - 1.0))
    return complex(out) if s.ndim == 0 else out


def root_number(fld: NumberField, chi: HeckeCharacter,
                s_sample: complex = 0.3 + 2.0j,
                cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """W with Lambda(1 - s, conj chi) = W Lambda(s, chi), from two samples."""
    chib = chi.conjugate()

    def ratio(s: complex) -> complex:
        den = completed_lambda(fld, chi, s, cfg)
        if abs(den) < 1e-250:
            raise DegenerateSample(f"|Lambda({s})| too small for a ratio")
        return completed_lambda(fld, chib, 1.0 - s, cfg) / den

    w1 = ratio(complex(s_sample))
    w2 = ratio(complex(s_sample) + 0.31 + 0.17j)
    if abs(w1 - w2) > 1e-8:
        raise DegenerateSample(
            f"root number differs between samples: {w1} vs {w2}")
    if abs(abs(w1) - 1.0) > 1e-8:
        raise DegenerateSample(f"|W| = {abs(w1)} deviates from 1")
    return w1


def argument_principle_count(fld: NumberField, chi: HeckeCharacter,
                             loop: PathSpec,
                             cfg: EvalConfig = DEFAULT_CONFIG) -> int:
    """(1/2 pi i) contour integral of L'/L: zeros minus poles inside.

    The loop must be closed; for principal characters a loop around s = 1
    counts the pole with weight -1.
    """
    if not loop.is_closed:
        raise NonClosedLoop("argument principle needs a closed loop")

    def f(u: np.ndarray) -> np.ndarray:
        return l_log_derivative(fld, chi, u, cfg)

    res = integrate_polyline(f, loop.waypoints, cfg)
    raw = res.value / (2j * math.pi)
    n = round(raw.real)
    resid = abs(raw - n)
    if resid >= 0.01:
        raise ResidualTooLarge(
            f"winding number residual {resid:.2e} (raw {raw}); "
            "loop may pass too close to a zero")
    return int(n)
