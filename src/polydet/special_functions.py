"""Special functions: Bernoulli polynomials, Hurwitz zeta and its
s-derivative by Euler-Maclaurin summation, the exponentiated derivative
(a higher analogue of the gamma factor), truncated polylogarithms, and a
Stirling-series log gamma.

`hurwitz_zeta_em(s, z, minus_pole=...)` is the one entry point to the
Euler-Maclaurin kernel `_em_core`.  s is a scalar or a 1-D array of nodes
and z a scalar or a 1-D array of shifts (all residues of a Dirichlet
character in one call); the kernel works on chunks of at most EM_CHUNK
nodes, each with one split N (the largest any (shift, node) pair of the
chunk needs, at most SERIES_MAX_TERMS), and blocks of shifts of at most
EM_TERMS direct-sum terms a call.  It builds the direct sum as a (shifts
x nodes x N) array and the Bernoulli tail as one einsum over the chunk's
Pochhammer table, shared by every shift.  The split (EM_SHIFT), the
Bernoulli term count (EM_BERNOULLI_TERMS) and the pole guard (POLE_GUARD)
are module constants: the kernel takes no config.  The entry point checks
every (shift, node) pair: s and z finite, Re(z) > 0, and (unless the pole
is subtracted) s outside the pole guard; it raises DomainError instead of
returning a non-finite value or derivative.  `log_gamma` also takes arrays.
`Result` (value, error_estimate, route) is what the xi, determinant and
poly-L routes return; `Result.from_log` exponentiates a logarithm and its
error, and raises DomainError where the value would underflow.

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
    "Result",
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
def _bern_over_fact(jmax: int) -> np.ndarray:
    # B_{2j} / (2j)! for j = 0 .. jmax as floats (read-only)
    out = np.array([float(bernoulli_number(2 * j)
                          / Fraction(math.factorial(2 * j)))
                    for j in range(jmax + 1)])
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Euler-Maclaurin core


@dataclass(frozen=True)
class EmResult:
    """Value, s-derivative and their error bounds: complex and float for a
    scalar s and shift, arrays of the same length for an array of nodes or
    of shifts, and (shifts x nodes) arrays for both."""

    value: complex | np.ndarray
    ds: complex | np.ndarray
    err_value: float | np.ndarray
    err_ds: float | np.ndarray


@dataclass(frozen=True)
class Result:
    """What a route returns: a finite value, a finite bound on its error and
    the route's name.  A non-finite value or bound raises DomainError."""

    value: complex
    error_estimate: float
    route: str

    def __post_init__(self):
        if not (cmath.isfinite(self.value) and math.isfinite(
                self.error_estimate)):
            raise DomainError(f"{self.route} result is not a finite double")

    @property
    def tail_bound(self) -> float:
        """error_estimate under the name perfbench/workloads.py reads."""
        return self.error_estimate

    @classmethod
    @overflow_is_domain_error
    def from_log(cls, log: complex, err: float, route: str) -> "Result":
        """exp(log) given an absolute error err of log: the value's error
        is |value| expm1(err).  A log whose real part is below that of the
        smallest normal double raises DomainError: its exp would be a
        subnormal or 0 with an error bound of 0, a claim of exactness."""
        if log.real < _LOG_TINY:
            raise DomainError(f"{route} result exp({log}) underflows double "
                              "precision")
        value = cmath.exp(log)
        return cls(value, abs(value) * math.expm1(err), route)


_EPS = float(np.finfo(float).eps)
_LOG_TINY = math.log(np.finfo(float).tiny)

# Largest node batch one kernel call sees.  Its Pochhammer tables are
# (J+1 x nodes), shared by every shift of the chunk; 128 nodes keep them
# in cache.
EM_CHUNK = 128
# Largest number of direct-sum terms (shifts x nodes x N, N the chunk's
# split) one kernel call holds: a chunk's shifts go to the kernel in blocks
# of EM_TERMS // (nodes N), or one at a time where one shift alone has more
# terms.  The direct sum and its moduli are arrays of that size, so a call
# needs at most ~0.6 MB beyond what one shift needs; on the Hankel ray (N ~
# 25) a block is ~1024 (shift, node) pairs.
EM_TERMS = 25 * 1024
# Base shift added to ceil(|Im s|) + ceil(|z|) for the split N.
EM_SHIFT = 20
# Fewest Bernoulli correction terms J of the Euler-Maclaurin tail; beyond
# ~30 the Bernoulli terms grow before they shrink.
EM_BERNOULLI_TERMS = 20
# Largest split N, and the longest polylog partial sum.
SERIES_MAX_TERMS = 2_000_000
# Radius around s = 1 inside which the Hurwitz zeta raises PoleAtOne.
POLE_GUARD = 1e-8

# Taylor coefficients at 0 of (exp(-x) - 1) / x and its companion
# (-x e^-x - (e^-x - 1)) / x^2, highest degree first for np.polyval
_PHI_TAYLOR = [(-1.0) ** (k + 1) / math.factorial(k + 1) for k in range(18)][::-1]
_PSI_TAYLOR = [(-1.0) ** k * (k + 1) / math.factorial(k + 2)
               for k in range(20)][::-1]


def _expm1_quotients(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(-x) - 1) / x and (-x e^-x - (e^-x - 1)) / x^2, stable near 0."""
    small = np.abs(x) < 0.25
    xs = np.where(small, 1.0, x)
    ex = np.exp(-xs)
    phi = (ex - 1.0) / xs
    psi = (-xs * ex - (ex - 1.0)) / (xs * xs)
    if small.any():
        phi = np.where(small, np.polyval(_PHI_TAYLOR, x), phi)
        psi = np.where(small, np.polyval(_PSI_TAYLOR, x), psi)
    return phi, psi


@lru_cache(maxsize=1)
def _pochhammers(nodes: bytes, K: int) -> tuple[np.ndarray, ...]:
    """(s)_k and d/ds (s)_k at the odd orders k = 1, 3, .., K at the nodes
    s (as bytes), and their moduli, as read-only ((K + 1) / 2 x nodes)
    arrays: the Bernoulli tail reads no other order.

    The table depends on s alone, so the Hurwitz pieces of one L-value
    chunk (every residue, every factor) share it: the last one is kept.
    d/ds (s)_k = (s)_k sum_(i<k) 1/(s+i), except at a node where some
    factor s + m is 0 or too small to invert (s at or next to a nonpositive
    integer): there the product rule runs factor by factor.
    """
    s = np.frombuffer(nodes, dtype=np.complex128)
    dpoch = np.arange(K)[:, None] + s
    poch = np.cumprod(dpoch, axis=0)
    np.divide(1.0, dpoch, out=dpoch)
    np.cumsum(dpoch, axis=0, out=dpoch)
    # an infinite or NaN 1/(s+m) leaves its column's total non-finite
    bad = np.flatnonzero(~np.isfinite(dpoch[-1]))
    dpoch *= poch
    for i in bad:
        d, p, col = 0j, 1 + 0j, []
        for f in (complex(s[i]) + k for k in range(K)):
            d, p = d * f + p, p * f
            col.append(d)
        dpoch[:, i] = col
    odd = (poch[0::2], dpoch[0::2])
    out = odd + (np.abs(odd[0]), np.abs(odd[1]))
    for a in out:
        a.flags.writeable = False
    return out


def _em_core(s: np.ndarray, z: np.ndarray, N: int, J: int,
             minus_pole: bool, scale: int) -> EmResult:
    """Euler-Maclaurin evaluation of zeta(s, z / q) and its s-derivative at
    a 1-D array of s and a 1-D array of shifts z (q = scale) with one split
    N, with error bounds, as (shifts x nodes) arrays.

    The derivative is that of q^-s zeta(s, z / q), divided by q^-s: it is
    formed from the logarithms of the bases q m + z (exact integers on the
    Dirichlet path) and of q w, so it carries no -log(q) zeta(s, z / q)
    that would cancel to rounding noise where the true value is tiny.
    With minus_pole=True the simple pole term 1/(s-1) is subtracted
    analytically, so the result is finite and smooth across s = 1.
    """
    m = np.arange(N, dtype=np.float64)
    # the shifts on a leading axis, before the nodes
    z = z[:, None]
    z0 = z / scale
    logb = np.log(m + z0[..., None])
    logd = np.log(scale * m + z[..., None])
    pw = np.multiply(-s[:, None], logb)
    np.exp(pw, out=pw)
    val = pw.sum(axis=-1)
    # magnitude of everything summed, for the rounding part of the error:
    # large direct-sum powers cancel against the integral term at negative
    # Re(s), costing |largest part| * eps of absolute accuracy
    apw = np.abs(pw)
    mag = apw.sum(axis=-1)
    pw *= logd
    dval = -pw.sum(axis=-1)
    apw *= np.abs(logd)
    mag_ds = apw.sum(axis=-1)
    del pw, apw

    w = N + z0
    lw = np.log(w)
    lqw = np.log(scale * N + z)   # log(q w)
    winv = 1.0 / w
    wms = np.power(w, -s)  # w^{-s}, exact at small integer s

    # integral term w^{1-s}/(s-1), optionally with the pole removed
    eps = s - 1.0
    if minus_pole:
        phi, psi = _expm1_quotients(eps * lw)
        t = lw * phi
        dt = lw * lw * psi - math.log(scale) * t
    else:
        w1ms = wms * w
        t = w1ms / eps
        dt = -w1ms * (lqw / eps + 1.0 / (eps * eps))

    # Bernoulli tail: term j is B_2j/(2j)! (s)_(2j-1) w^(-s-2j+1), summed
    # as w^-s sum_j coef_j (s)_(2j-1), one einsum over the Pochhammer
    # table (no (terms x nodes) array per shift)
    bf = _bern_over_fact(J + 1)
    poch, dpoch, apoch, adpoch = _pochhammers(s.tobytes(), 2 * J + 1)
    coef = bf[1:J + 1] * winv ** np.arange(1, 2 * J, 2)
    tail = np.einsum("...j,jn->...n", coef, poch[:-1])
    dtail = np.einsum("...j,jn->...n", coef, dpoch[:-1])
    # added to the direct sum term by term in the formula's order (integral,
    # boundary, tail): another order moves depth-3 direct determinants by
    # ~1e-13, their rounding noise
    val += t
    val += 0.5 * wms
    val += wms * tail
    dval += dt
    dval -= 0.5 * lqw * wms
    dval += wms * (dtail - lqw * tail)
    # the tail's magnitude as |w^-s| sum_j |coef_j| |(s)_(2j-1)|; its
    # derivative's by the triangle inequality
    awms, alqw = np.abs(wms), abs(lqw)
    acoef = np.abs(coef)
    atail = np.einsum("...j,jn->...n", acoef, apoch[:-1])
    atail += 0.5
    mag += np.abs(t) + awms * atail
    mag_ds += np.abs(dt) + awms * (
        np.einsum("...j,jn->...n", acoef, adpoch[:-1]) + alqw * atail)

    # first omitted term as remainder estimate, with the classical
    # |s + 2J + 1| / (Re s + 2J + 1) inflation (Re s > -(2J + 1): see
    # hurwitz_zeta_em)
    infl = np.minimum(10.0, np.abs(s + 2 * J + 1) / (s.real + 2 * J + 1))
    # oscillatory loss along the tail: |(x+w)^{-s}| carries e^{Im s arg(x+w)}
    rem = infl * np.exp(np.minimum(8.0, np.abs(s.imag) * np.abs(np.angle(w))))
    rem *= awms
    rem *= 6.0 * abs(bf[J + 1]) * abs(winv) ** (2 * J + 1)
    # rounding: each power costs |s| log|base| ulps through exp(-s log b)
    round_fac = 4e-16 + np.abs(s) * (5e-17 * np.log(abs(w) + 2.0))
    pk, dpk = apoch[-1], adpoch[-1]
    err = rem * pk + round_fac * (mag + 1.0)
    err_ds = rem * (dpk + pk * alqw) + round_fac * (mag_ds + 1.0)
    return EmResult(val, dval, err, err_ds)


@overflow_is_domain_error
def hurwitz_zeta_em(s, z, *, minus_pole: bool = False,
                    scale: int = 1) -> EmResult:
    """zeta(s, z) = sum_{m >= 0} (m + z)^{-s} and d/ds zeta(s, z) by
    Euler-Maclaurin, with remainder bounds; Re(z) > 0, s != 1.

    s is a scalar or a 1-D array of nodes, z a scalar or a 1-D array of
    shifts; the fields have the shape of s for a scalar z and are (shifts
    x nodes) arrays for an array of shifts.  The only entry point to the
    Euler-Maclaurin kernel: it feeds `_em_core` chunks of at most EM_CHUNK
    nodes, each with one split N, the largest any (shift, node) pair of the
    chunk needs, and the chunk's shifts in blocks of at most EM_TERMS
    direct-sum terms (or one shift).  Every node and shift must be
    finite, and a value or derivative that overflows raises DomainError.
    A chunk gets J = EM_BERNOULLI_TERMS Bernoulli terms, or more where a
    node has Re(s) <= -(2J + 1) (the classical remainder bound needs
    Re(s) > -(2J + 1)), and the split N = ceil(max |Im s|) + ceil(max |z|)
    + EM_SHIFT, at most SERIES_MAX_TERMS; s within POLE_GUARD of 1 raises
    PoleAtOne.
    With minus_pole=True the result is zeta(s, z) - 1/(s-1) and its
    s-derivative, finite and smooth across s = 1 (no pole guard); the
    Dirichlet assembly uses it, where the subtracted poles cancel.

    With an integer scale q > 1 the shift is z / q (z = a for the residue
    a mod q), and ds is the derivative of q^-s times the value, divided by
    q^-s: d/ds zeta - log(q) zeta, summed from the bases q m + a, so a
    Dirichlet L' needs no -log(q) L that cancels to rounding noise.

    At nonpositive integer s = 1 - r the value is the closed form
    zeta(1 - r, z) = -B_r(z) / r (plus 1/r with minus_pole=True): the
    kernel's large split there only piles up huge direct-sum powers that
    cancel against the tail and cost ~|z+N|^(1-s) eps of absolute
    accuracy.  The derivative keeps the large split, where the
    differentiated tail still converges.
    """
    s = np.asarray(s, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    scalar_s, scalar_z = s.ndim == 0, z.ndim == 0
    s, z = np.atleast_1d(s), np.atleast_1d(z)
    if s.ndim != 1 or z.ndim != 1 or not (s.size and z.size):
        raise DomainError("hurwitz zeta takes scalars or non-empty 1-D "
                          "arrays of s and z")
    if not (np.isfinite(s).all() and np.isfinite(z).all()):
        # argmin finds the first non-finite entry (or the first entry)
        raise DomainError(f"hurwitz zeta needs finite s and z, got s = "
                          f"{s[np.argmin(np.isfinite(s))]}, z = "
                          f"{z[np.argmin(np.isfinite(z))]}")
    shift = z / scale
    if shift.real.min() <= 0:
        raise DomainError(f"hurwitz zeta requires Re(z) > 0, got z = "
                          f"{shift[np.argmin(shift.real)]}")
    if not minus_pole and (near := np.abs(s - 1.0) < POLE_GUARD).any():
        raise PoleAtOne(f"s = {s[near][0]} is inside the pole guard radius "
                        f"{POLE_GUARD}")
    zmax = math.ceil(np.abs(shift).max())
    rows = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, len(s), EM_CHUNK):
            part = s[lo:lo + EM_CHUNK]
            # J >= EM_BERNOULLI_TERMS Bernoulli terms, and enough that
            # Re s > -(2J + 1) on every node, where the remainder is bounded
            J = max(EM_BERNOULLI_TERMS,
                    int((-part.real.min() - 1.0) // 2.0) + 1)
            N = int(math.ceil(np.abs(part.imag).max()) + zmax + EM_SHIFT)
            if N > SERIES_MAX_TERMS:
                raise DomainError(
                    f"Euler-Maclaurin split for s = {part[0]}, |z| <= "
                    f"{zmax} exceeds {SERIES_MAX_TERMS} terms")
            step = max(1, EM_TERMS // (len(part) * N))
            rows.append(_joined([_em_core(part, z[b:b + step], N, J,
                                          minus_pole, scale)
                                 for b in range(0, len(z), step)], axis=0))
        em = _joined(rows, axis=-1)
        _trivial_zero_values(s, shift, em, minus_pole)
    bad = ~(np.isfinite(em.value) & np.isfinite(em.ds)
            & np.isfinite(em.err_value))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DomainError(f"hurwitz zeta at s = {s[j]}, z = {shift[i]} "
                          "overflows double precision")
    fields = (em.value, em.ds, em.err_value, em.err_ds)
    if scalar_z:
        fields = [f[0] for f in fields]
    if scalar_s:
        fields = [f[..., 0] for f in fields]
    if scalar_s and scalar_z:
        fields = [f(x) for f, x in zip((complex, complex, float, float),
                                       fields)]
    return EmResult(*fields)


def _joined(parts: list[EmResult], axis: int) -> EmResult:
    """The kernel results of adjacent blocks as one, joined along axis."""
    if len(parts) == 1:
        return parts[0]
    return EmResult(*(np.concatenate([getattr(p, f) for p in parts], axis)
                      for f in ("value", "ds", "err_value", "err_ds")))


def _trivial_zero_values(s: np.ndarray, z: np.ndarray, em: EmResult,
                         minus_pole: bool) -> None:
    """Overwrite em's values and their errors at nonpositive integer nodes
    s = 1 - r with -B_r(z) / r, plus 1/r with minus_pole=True (see
    hurwitz_zeta_em), for every shift z (em's fields are (shifts x nodes)
    arrays).  The error is the Horner rounding bound 2 eps r sum_k |c_k|
    |z|^(r-k) over the coefficients c_k of B_r, divided by r, plus the
    margin of the N = 1 kernel sum this replaced, plus the rounding of the
    added 1/r."""
    if s.real.min() > 0.0:
        return
    hits = np.flatnonzero((s.imag == 0.0) & (s.real <= 0.0)
                          & (s.real == np.round(s.real)))
    for j in hits:
        r = 1 - int(round(s[j].real))
        absc = np.abs(np.array(_bernoulli_poly_coeffs(r), dtype=float))
        for i, zi in enumerate(z):
            zi = complex(zi)
            em.value[i, j] = -bernoulli_poly(r, zi) / r \
                + (1.0 / r if minus_pole else 0.0)
            em.err_value[i, j] = 2.0 * _EPS * np.polyval(absc, abs(zi)) \
                + 1e-15 * np.float64(1.0 + abs(zi)) ** max(r - 1, 1) \
                + (2.0 * _EPS / r if minus_pole else 0.0)


# ---------------------------------------------------------------------------
# Higher gamma factor


@overflow_is_domain_error
def milnor_gamma(r: int, z: complex) -> complex:
    """exp(d/ds zeta(s, z) at s = 1 - r); at r = 1 this is Gamma(z)/sqrt(2 pi).

    Defined for integer depth r >= 1 and Re(z) > 0.
    """
    if not isinstance(r, int) or r < 1:
        raise DomainError("depth r must be a positive integer")
    return cmath.exp(hurwitz_zeta_em(1 - r, z).ds)


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
    SERIES_MAX_TERMS terms.
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
        if M > SERIES_MAX_TERMS:
            raise DomainError("polylog series cap exceeded")
    k = np.arange(1, M + 1, dtype=np.float64)
    return complex(np.sum(np.power(complex(z), k) / k ** r))


# ---------------------------------------------------------------------------
# log Gamma, principal branch on Re(z) > 0

# B_{2j} / (2j (2j-1)) for the Stirling series, j = 1..12
_STIRLING = [float(bernoulli_number(2 * j) / Fraction(2 * j * (2 * j - 1)))
             for j in range(1, 13)]


def log_gamma(z):
    """Principal branch of log Gamma on Re(z) > 0, at a scalar z or
    elementwise over an array.

    Arguments are shifted right until the Stirling series converges fast;
    the recursion log Gamma(z) = log Gamma(z+1) - log(z) stays on the
    principal branch throughout the right half plane.
    """
    z = np.asarray(z, dtype=np.complex128)
    if (bad := ~(np.isfinite(z) & (z.real > 0))).any():
        raise DomainError(f"log_gamma requires finite z with Re(z) > 0, got "
                          f"{z[bad].ravel()[0]}")
    # shift each argument by the n >= 0 unit steps that take Re past 12
    n = np.maximum(0.0, np.ceil(12.0 - z.real))
    steps = np.arange(int(n.max()) if n.size else 0)
    shifted = z[..., None] + steps
    shift = np.log(shifted, where=steps < n[..., None],
                   out=np.zeros_like(shifted)).sum(axis=-1)
    w = z + n
    lw = np.log(w)
    acc = (w - 0.5) * lw - w + 0.5 * math.log(2.0 * math.pi)
    winv = 1.0 / w
    winv2 = winv * winv
    p = winv
    for c in _STIRLING:
        acc = acc + c * p
        p = p * winv2
    out = acc - shift
    return complex(out) if z.ndim == 0 else out
