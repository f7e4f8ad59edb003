"""Special functions: Bernoulli polynomials, Hurwitz zeta and its
s-derivative by Euler-Maclaurin summation, the exponentiated derivative
(a higher analogue of the gamma factor), and log gamma and its derivative
psi from one shifted Stirling series.

`hurwitz_zeta_em(s, z, minus_pole=...)` is the one entry point to the
Euler-Maclaurin kernel `_em_core`.  s is a scalar or a 1-D array of nodes
and z a scalar or a 1-D array of shifts (all residues of a Dirichlet
character in one call); the kernel works on chunks of at most EM_CHUNK
nodes, each with the split N its nodes need (cut where their needs differ
too much to share one, at most SERIES_MAX_TERMS), and blocks of shifts of
at most EM_TERMS direct-sum terms a call.  It builds the direct sum as a
(shifts x nodes x N) array of exponentials, or, for a split of at least
_POWER_MIN_SPLIT and integer shifts coprime to the scale (zeta and every
Dirichlet residue), all shifts in one call from a table of n^-s built with
exponentials at the primes alone (`_power_plan`).  The Bernoulli tail and
its bound are one matrix product each over the chunk's Pochhammer table of
odd orders, shared by every shift; the tables of the most recent chunks
are kept, up to _NODE_CACHE_BYTES.  A table builds (s)_k and d/ds (s)_k
each on its own contiguous (J + 1) x n array and then sets them side by
side, so every node's entries are the same bits whatever its neighbours,
a lone node's included (numpy rounds a strided one-node column through
another loop).  The truncation target,
the Bernoulli term count (EM_BERNOULLI_TERMS), the split at nonpositive
integers (EM_SHIFT) and the pole guard (POLE_GUARD) are module constants:
the kernel takes no config.  The entry point checks
every (shift, node) pair: s and z finite, Re(z) > 0, and (unless the pole
is subtracted) s outside the pole guard; it raises DomainError instead of
returning a non-finite value or derivative.  `log_gamma` also takes
arrays; the zero scans read log gamma and psi together from
`_log_gamma_and_psi`.
`_abel_plana(r, a)` is a second evaluator of zeta(1 - r, a) and its
s-derivative, from the Abel-Plana formula on fixed Gauss-Laguerre rules
(also read at a + 1 through the recurrence where Re a < 1), with no
kernel call: `milnor_gamma` and the direct determinant route read it.
`Result` (value, error_estimate, route) is what the xi, determinant and
poly-L routes return; `Result.from_log` exponentiates a logarithm and its
error, and raises DomainError where the value would underflow.

Everything here is plain double precision.  The a-posteriori remainder
bounds use the first omitted term with the classical |s + 2J + 1| / (Re s
+ 2J + 1) inflation factor, and each node's split is the smallest |w| at
which that bound is below 1e-16 (about 0.4 |Im s| high in the strip), plus
ceil|z|.  The rounding floor charges each direct-sum power |s| eps per unit
of log|base|; a power built from k prime factors and rescaled by q^s
carries |s| eps (log n + log q) + k eps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PoleAtOne, overflow_is_domain_error
from .quadrature import _ROUNDOFF, _read_only, laguerre_rule

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "hurwitz_zeta_em",
    "milnor_gamma",
    "log_gamma",
    "EmResult",
    "Result",
]


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials (exact rational arithmetic)

_BERN: list[Fraction] = [Fraction(1)]


def bernoulli_number(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention, as an exact Fraction.

    The table grows at least twofold at a time, from the tangent numbers
    T_k in Python integers (Brent & Harvey, arXiv:1108.0286, Algorithm
    TangentNumbers): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    if n < 0:
        raise DomainError("Bernoulli index must be non-negative")
    if len(_BERN) <= n:
        K = max(n, 2 * len(_BERN)) // 2
        t = [math.factorial(k) for k in range(K)]   # t[k - 1] becomes T_k
        for k in range(1, K):
            for j in range(k, K):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        _BERN[:] = [Fraction(1), Fraction(-1, 2)]
        for k in range(1, K + 1):
            _BERN.extend((Fraction((-1) ** (k - 1) * 2 * k * t[k - 1],
                                   4 ** k * (4 ** k - 1)), Fraction(0)))
    return _BERN[n]


@lru_cache(maxsize=256)
def _bernoulli_poly_coeffs(r: int) -> tuple[float, ...]:
    # B_r(z) = sum_k C(r,k) B_k z^{r-k}, each exact coefficient rounded once;
    # descending degree
    return tuple(float(math.comb(r, k) * bernoulli_number(k))
                 for k in range(r + 1))


@overflow_is_domain_error
def bernoulli_poly(r: int, z: complex) -> complex:
    """Bernoulli polynomial B_r(z): exact rational coefficients rounded to
    doubles, Horner eval; DomainError unless every number is finite."""
    if not isinstance(r, int) or r < 0:
        raise DomainError("bernoulli_poly degree must be a non-negative integer")
    coeffs = _bernoulli_poly_coeffs(r)
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    if not cmath.isfinite(acc):
        raise DomainError(f"B_{r}({z}) is not a finite double")
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

# Largest node batch one kernel call sees.  Its `_NodeTable` holds (J x 2
# nodes) Pochhammer tables (~1 KB a node), shared by every shift of the
# chunk; 512 nodes take a long path (the monodromy loop, a scan grid) in
# few calls.
EM_CHUNK = 512
# Most bytes the cached node tables hold together (`_TableCache`): one
# full chunk's, or many small ones.
_NODE_CACHE_BYTES = 1 << 19
# Largest number of direct-sum terms (shifts x nodes x N, N the split) one
# kernel call holds: a chunk's shifts go to the kernel in blocks of
# EM_TERMS // (nodes N), or one at a time where one shift alone has more
# terms.  The prime-power path holds its (powers x nodes) table and the
# rows it gathers from it in node blocks of at most EM_TERMS entries.  The
# direct sum and its moduli are arrays of that size, so a call needs at
# most ~0.6 MB beyond what one shift needs.
EM_TERMS = 25 * 1024
# Shortest split at which integer shifts coprime to the scale take the
# prime-power direct sum (`_power_plan`).  The Hankel ray and the Euler
# tail (N ~ 9 on 41-126 nodes) keep their exponentials: taken from N = 8,
# the path slowed the `euler` and `hankel` benchmarks, and the rounding it
# moved cost the `hankel` xi readings 0.09 digits.  Zero scans (N ~ 60-90)
# and the longer splits of a contour in the strip (N ~ 12-27) take it.
_POWER_MIN_SPLIT = 12
# Largest first omitted Bernoulli term a split admits, absolute: a quarter
# of the kernel's 4e-16 (mag + 1) rounding floor, so truncation never sets
# an error bound.
_TRUNCATION_TARGET = 1e-16
# Most a node's rounding floor may grow where it shares a chunk's split
# with nodes that need a larger one (see _split_groups).
_BATCH_GROWTH = 4.0
# Split |w| at a nonpositive integer s = 1 - r, plus ceil(|z|): there the
# value is in closed form and the derivative keeps this fixed split.
EM_SHIFT = 20
# Fewest Bernoulli correction terms J of the Euler-Maclaurin tail; beyond
# ~30 the Bernoulli terms grow before they shrink.
EM_BERNOULLI_TERMS = 20
# Largest split N of the direct sum.
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


def _omitted(rem, pk, dpk, alqw):
    """Bounds on the first omitted Bernoulli term of the value and of the
    s-derivative, from the remainder factor rem at w, |(s)_(2J+1)| = pk,
    |d/ds (s)_(2J+1)| = dpk and |log(q w)| = alqw.  The one remainder
    expression: `_em_core` adds it to its error bounds, and
    `_NodeTable.need` sizes the split from it."""
    return rem * pk, rem * (dpk + pk * alqw)


class _NodeTable(NamedTuple):
    """What the kernel reads of a chunk's nodes s alone, for J Bernoulli
    terms: (s)_k and d/ds (s)_k at the odd orders k = 1, 3, .., 2J - 1
    side by side in one (J x 2 nodes) array, poch, and their moduli in
    apoch, so that the Bernoulli tail and its bound are one matrix product
    each; per node the moduli pk and dpk of the first omitted order 2J + 1,
    the remainder factor rem (the |s + 2J + 1| / (Re s + 2J + 1) inflation
    times 6 |B_(2J+2)| / (2J+2)!), the rounding |s| eps each unit of
    log|base| costs, and the split each node needs, per scale q."""

    s: np.ndarray
    J: int
    poch: np.ndarray
    apoch: np.ndarray
    pk: np.ndarray
    dpk: np.ndarray
    rem: np.ndarray
    sround: np.ndarray
    needs: dict

    def take(self, idx: np.ndarray) -> "_NodeTable":
        """The table of the nodes s[idx]."""
        both = np.concatenate((idx, idx + len(self.s)))
        return _NodeTable(self.s[idx], self.J, self.poch[:, both],
                          self.apoch[:, both],
                          *(a[idx] for a in self[4:-1]),
                          {q: n[idx] for q, n in self.needs.items()})

    @property
    def nbytes(self) -> int:
        """The bytes of its arrays: per node, s and 2J entries of poch
        (complex), 2J of apoch and pk, dpk, rem and sround (float)."""
        return 3 * (self.J + 1) * self.s.nbytes

    def need(self, scale: int) -> np.ndarray:
        """The smallest real |w| >= 1 per node at which `_omitted` is below
        _TRUNCATION_TARGET for both the value and the derivative of the
        scale-q kernel, or EM_SHIFT at a nonpositive integer s.

        At real w the remainder factor is rem |w|^-(Re s + 2J + 1), so the
        bound is met where log|w| is at least log(_omitted / target) / (Re
        s + 2J + 1); log|q w| makes that a fixed point in log|w|, which
        two steps up from |w| = 1 reach to ~1e-3 (the right side grows
        only like log log|w|).  An overflowing Pochhammer modulus gives an
        infinite or NaN need."""
        got = self.needs.get(scale)
        if got is None:
            a = self.s.real + (2 * self.J + 1)
            rem = self.rem / _TRUNCATION_TARGET
            logw = 0.0
            for _ in range(2):
                bound = np.maximum(*_omitted(rem, self.pk, self.dpk,
                                             math.log(scale) + logw))
                logw = np.maximum(logw, np.log(bound) / a)
            got = np.exp(logw)
            # (s)_(2J+1) vanishes exactly at a nonpositive integer s
            got[self.pk == 0.0] = EM_SHIFT
            self.needs[scale] = got
        return got


class _TableCache:
    """The `_NodeTable`s by (nodes as bytes, J), least recently used first,
    and the bytes they hold.

    A table depends on s alone, so the Hurwitz pieces of one L-value chunk
    (every residue, every factor) share it, and the closed route's s = 1 - r
    tables outlive the L'/L chunks between them: the most recently used
    tables are kept, up to _NODE_CACHE_BYTES together (and the newest one
    always)."""

    def __init__(self):
        self.tables: dict[tuple[bytes, int], _NodeTable] = {}
        self.nbytes = 0

    def get(self, s: np.ndarray, J: int) -> _NodeTable:
        """The table of the nodes s for J Bernoulli terms, its arrays
        read-only."""
        key = (s.tobytes(), J)
        tab = self.tables.pop(key, None)
        if tab is None:
            tab = _build_node_table(np.frombuffer(key[0], dtype=np.complex128),
                                    J)
            self.nbytes += tab.nbytes
            while self.tables and self.nbytes > _NODE_CACHE_BYTES:
                self.nbytes -= self.tables.pop(next(iter(self.tables))).nbytes
        self.tables[key] = tab
        return tab


_NODE_TABLES = _TableCache()


def _build_node_table(s: np.ndarray, J: int) -> _NodeTable:
    """The `_NodeTable` of the nodes s, from J + 1 rows of odd orders:
    (s)_1 = s and (s)_(2j+1) = (s)_(2j-1) a b with a = s + 2j - 1, b = s +
    2j.

    d/ds (s)_k = (s)_k sum_(i<k) 1/(s+i), the pairs of that sum taken as
    (a + b) / (a b), except at a node where some factor is 0 or too small
    to invert (s at or next to a nonpositive integer): there the product
    rule runs pair by pair.
    """
    n = len(s)
    # (s)_k and d/ds (s)_k, each built in place on its own contiguous
    # (J + 1) x n array: a and b in turn, then a b and a + b = 2 b - 1
    poch = np.empty((J + 1, n), dtype=np.complex128)
    dpoch = np.empty_like(poch)
    ab, apb = poch[1:], dpoch[1:]
    np.add(s, np.arange(1.0, 2 * J, 2)[:, None], out=ab)
    np.add(ab, 1.0, out=apb)
    ab *= apb
    apb *= 2.0
    apb -= 1.0
    poch[0] = s
    dpoch[0] = 1.0
    dpoch /= poch
    np.cumprod(poch, axis=0, out=poch)
    np.cumsum(dpoch, axis=0, out=dpoch)
    # an infinite or NaN reciprocal leaves its column's total non-finite
    bad = np.flatnonzero(~np.isfinite(dpoch[-1]))
    dpoch *= poch
    for i in bad:
        u = complex(s[i])
        d, p, col = 1 + 0j, u, [1 + 0j]
        for k in range(2, 2 * J + 1, 2):
            f = (u + k - 1) * (u + k)
            d, p = d * f + p * (2 * u + 2 * k - 1), p * f
            col.append(d)
        dpoch[:, i] = col
    # side by side, (s)_k in the first n columns, so that the Bernoulli
    # tail and its bound are one matrix product each; the halves are freed
    # before the moduli are taken (~350 KB for a 512-node chunk)
    table = np.concatenate((poch, dpoch), axis=1)
    del poch, dpoch, ab, apb
    atable = np.abs(table)
    for t in (table, atable):
        t.flags.writeable = False
    K = 2 * J + 1
    rem = np.abs(s + K)
    rem /= s.real + K
    np.minimum(rem, 10.0, out=rem)
    rem *= 6.0 * abs(_bern_over_fact(J + 1)[J + 1])
    return _NodeTable(s, J, table[:J], atable[:J], atable[J, :n],
                      atable[J, n:], rem, _EPS * np.abs(s), {})


def _em_core(s: np.ndarray, z: np.ndarray, N: int, minus_pole: bool,
             scale: int, tab: _NodeTable,
             plan: _PowerPlan | None = None) -> EmResult:
    """Euler-Maclaurin evaluation of zeta(s, z / q) and its s-derivative at
    a 1-D array of s and a 1-D array of shifts z (q = scale) with one split
    N, with error bounds, as (shifts x nodes) arrays; tab is the
    `_NodeTable` of the nodes s, with its J Bernoulli terms, and plan the
    `_power_plan` of integer shifts, if their direct sum is built from
    prime powers.

    The derivative is that of q^-s zeta(s, z / q), divided by q^-s: it is
    formed from the logarithms of the bases q m + z (exact integers on the
    Dirichlet path) and of q w, so it carries no -log(q) zeta(s, z / q)
    that would cancel to rounding noise where the true value is tiny.
    With minus_pole=True the simple pole term 1/(s-1) is subtracted
    analytically, so the result is finite and smooth across s = 1.
    """
    # the shifts on a leading axis, before the nodes
    z = z[:, None]
    w = N + (z if scale == 1 else z / scale)   # z / 1 is z, bit for bit
    if plan is None:
        val, dval, mag, mag_ds = _exp_sums(s, z, N, scale)
        # each power costs |s| log|base| ulps through exp(-s log b)
        round_fac = 4e-16 + tab.sround * np.log(abs(w) + 2.0)
        perr = perr_ds = 0.0
    else:
        val, dval, mag, mag_ds, perr, perr_ds = _power_sums(s, plan, scale)
        # a power n^-s costs |s| log n ulps through the exponentials at its
        # primes, the rescaling q^s another |s| log q, and its k prime
        # factors k eps through their exponentials and products: the floor
        # charges one, perr the other k - 1
        round_fac = 4e-16 + tab.sround * (plan.lognmax + math.log(scale))
    lqw = np.log(scale * N + z)   # log(q w); log w itself at q = 1
    winv = 1.0 / w
    wms = np.power(w, -s)  # w^{-s}, exact at small integer s

    # integral term w^{1-s}/(s-1), optionally with the pole removed
    eps = s - 1.0
    if minus_pole:
        lw = lqw if scale == 1 else np.log(w)
        phi, psi = _expm1_quotients(eps * lw)
        t = lw * phi
        dt = lw * lw * psi - math.log(scale) * t
    else:
        w1ms = wms * w
        t = w1ms / eps
        dt = -w1ms * (lqw / eps + 1.0 / (eps * eps))

    # Bernoulli tail: term j is B_2j/(2j)! (s)_(2j-1) w^(-s-2j+1), summed
    # as w^-s sum_j coef_j (s)_(2j-1), with its s-derivative from one
    # matrix product over the Pochhammer table (no (terms x nodes) array
    # per shift)
    J, n = tab.J, len(s)
    bf = _bern_over_fact(J + 1)
    coef = bf[1:J + 1] * winv ** np.arange(1, 2 * J, 2)
    tails = coef @ tab.poch
    tail, dtail = tails[:, :n], tails[:, n:]
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
    atails = np.abs(coef) @ tab.apoch
    atail = atails[:, :n] + 0.5
    mag += np.abs(t) + awms * atail
    mag_ds += np.abs(dt) + awms * (atails[:, n:] + alqw * atail)

    # first omitted term as remainder estimate, with the classical
    # |s + 2J + 1| / (Re s + 2J + 1) inflation in tab.rem (Re s > -(2J + 1):
    # see hurwitz_zeta_em) and the oscillatory loss along the tail:
    # |(x+w)^{-s}| carries e^{Im s arg(x+w)}, exactly 1 at real s
    if s.imag.any():
        rem = np.exp(np.minimum(8.0, np.abs(s.imag) * np.abs(np.angle(w))))
        rem *= tab.rem
        rem *= awms
    else:
        rem = tab.rem * awms
    rem *= abs(winv) ** (2 * J + 1)
    err, err_ds = _omitted(rem, tab.pk, tab.dpk, alqw)
    err += round_fac * (mag + 1.0) + perr
    err_ds += round_fac * (mag_ds + 1.0) + perr_ds
    return EmResult(val, dval, err, err_ds)


def _exp_sums(s: np.ndarray, z: np.ndarray, N: int, scale: int) -> tuple:
    """The direct sum sum_(m<N) (m + z/q)^-s, minus its s-derivative's
    sum_(m<N) log(q m + z) (m + z/q)^-s, and the sums of their moduli, at
    the nodes s and the shifts z (a column), one exponential per term."""
    m = np.arange(N, dtype=np.float64)
    logd = np.log(scale * m + z[..., None])
    logb = logd if scale == 1 else np.log(m + z[..., None] / scale)
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
    return val, dval, mag, apw.sum(axis=-1)


class _PowerPlan(NamedTuple):
    """How `_power_sums` builds n^-s for the n <= nmax coprime to q: the
    table's rows hold n in order of their number k of prime factors, n = 1
    first and then the primes (log p each), and each later block of rows
    (lo, hi) is the product of the rows of n's smallest prime factor and
    of its cofactor.  grid lists the rows of the bases q m + z, m < N,
    shift by shift, and weights (shifts x 4 x N) holds 1, log n, (k - 1)
    eps and (k - 1) eps log n for each of them, k the number of prime
    factors of n."""

    rows: int
    logp: np.ndarray
    blocks: tuple
    grid: np.ndarray
    weights: np.ndarray
    lognmax: float


@lru_cache(maxsize=16)
def _power_plan(scale: int, shifts: tuple[int, ...],
                N: int) -> _PowerPlan | None:
    """The `_PowerPlan` of the positive integer shifts z coprime to q =
    scale at the split N >= 2, or None where its table or its bases would
    have more than EM_TERMS rows."""
    nmax = scale * (N - 1) + max(shifts)
    if nmax > 4 * EM_TERMS or len(shifts) * N > EM_TERMS:
        return None
    n = np.arange(nmax + 1)
    spf = n.copy()                  # smallest prime factor
    for p in range(2, math.isqrt(nmax) + 1):
        if spf[p] == p:
            np.minimum(spf[p * p::p], p, out=spf[p * p::p])
    n = n[1:][np.gcd(n[1:], scale) == 1]
    if n.size > EM_TERMS:
        return None
    k = np.zeros_like(n)
    rest = n.copy()
    while (more := rest > 1).any():
        k += more
        rest[more] //= spf[rest[more]]
    order = np.lexsort((n, k))
    n, k = n[order], k[order]
    row = np.empty(nmax + 1, dtype=np.intp)
    row[n] = np.arange(n.size)
    starts = np.searchsorted(k, np.arange(k[-1] + 2))
    blocks = tuple((lo, hi, row[spf[n[lo:hi]]], row[n[lo:hi] // spf[n[lo:hi]]])
                   for lo, hi in zip(starts[2:-1], starts[3:]))
    bases = np.add.outer(shifts, scale * np.arange(N))
    logb = np.log(bases.astype(np.float64))
    keps = _EPS * np.maximum(k[row[bases]] - 1, 0)
    logp = np.log(n[starts[1]:starts[2]].astype(np.float64))
    return _PowerPlan(n.size, logp, blocks, row[bases].ravel(),
                      np.stack((np.ones_like(logb), logb, keps, keps * logb),
                               axis=1), float(logb.max()))


def _power_sums(s: np.ndarray, plan: _PowerPlan, scale: int) -> tuple:
    """What `_exp_sums` returns, for the shifts of plan, with n^-s built
    from exponentials at the primes alone as n^-s = p^-s (n/p)^-s, and
    (m + z/q)^-s = q^s (q m + z)^-s.  Each shift's sums are matrix products
    of its weights with its rows of the table, in node blocks whose table
    and gathered rows hold at most EM_TERMS entries together.  Also the
    rounding the prime factors past the first add, eps sum (k - 1) |n^-s|
    and the same with log n."""
    shifts, _, N = plan.weights.shape
    sums = np.empty((shifts, 2, len(s)), dtype=np.complex128)
    asums = np.empty((shifts, 4, len(s)))
    step = max(1, EM_TERMS // (2 * plan.rows))
    primes = slice(1, 1 + len(plan.logp))
    for lo in range(0, len(s), step):
        part, at = s[lo:lo + step], slice(lo, lo + step)
        table = np.empty((plan.rows, len(part)), dtype=np.complex128)
        table[0] = 1.0
        np.multiply.outer(plan.logp, -part, out=table[primes])
        np.exp(table[primes], out=table[primes])
        for a, b, prow, crow in plan.blocks:
            np.multiply(table[prow], table[crow], out=table[a:b])
        grid = table[plan.grid].reshape(shifts, N, len(part))
        sums[..., at] = (plan.weights[:, :2]
                         @ grid.view(np.float64)).view(np.complex128)
        # |n^-s| = n^-Re s, read once per distinct Re s (one on a scan line)
        sig, back = np.unique(part.real, return_inverse=True)
        moduli = np.exp(np.multiply.outer(plan.weights[:, 1], -sig))
        asums[..., at] = (plan.weights @ moduli)[..., back]
    val, dval = sums[:, 0], -sums[:, 1]
    if scale > 1:
        qs = np.exp(s * math.log(scale))
        val *= qs
        dval *= qs
        asums *= np.abs(qs)
    return (val, dval, *asums.transpose(1, 0, 2))


@overflow_is_domain_error
def hurwitz_zeta_em(s, z, *, minus_pole: bool = False,
                    scale: int = 1) -> EmResult:
    """zeta(s, z) = sum_{m >= 0} (m + z)^{-s} and d/ds zeta(s, z) by
    Euler-Maclaurin, with remainder bounds; Re(z) > 0, s != 1.

    s is a scalar or a 1-D array of nodes, z a scalar or a 1-D array of
    shifts; the fields have the shape of s for a scalar z and are (shifts
    x nodes) arrays for an array of shifts.  The only entry point to the
    Euler-Maclaurin kernel: it feeds `_em_core` chunks of at most EM_CHUNK
    nodes and the chunk's shifts in blocks of at most EM_TERMS direct-sum
    terms (or one shift), or all of them at once on the prime-power path
    (`_shift_blocks`).  Every node and shift must be finite, and a value
    or derivative that overflows raises DomainError.  A chunk gets J =
    EM_BERNOULLI_TERMS Bernoulli terms, or more where a node has Re(s) <=
    -(2J + 1) (the classical remainder bound needs Re(s) > -(2J + 1)).
    Each node needs the smallest real |w| at which the kernel's own bound
    on the first omitted term is below _TRUNCATION_TARGET, for the value
    and the derivative (`_NodeTable.need`), and EM_SHIFT at a nonpositive
    integer s; its split is ceil(need) + ceil(max |z|), so |w| >= need for
    every shift.  A chunk's nodes share the largest split unless that
    would grow some node's rounding floor by more than _BATCH_GROWTH: then
    the chunk is cut into groups of similar split (`_split_groups`).  A
    split past SERIES_MAX_TERMS, or one that overflows (a Pochhammer
    modulus past double range), raises DomainError; s within POLE_GUARD of
    1 raises PoleAtOne.
    With minus_pole=True the result is zeta(s, z) - 1/(s-1) and its
    s-derivative, finite and smooth across s = 1 (no pole guard); the
    Dirichlet assembly uses it, where the subtracted poles cancel.

    With an integer scale q > 1 the shift is z / q (z = a for the residue
    a mod q), and ds is the derivative of q^-s times the value, divided by
    q^-s: d/ds zeta - log(q) zeta, summed from the bases q m + a, so a
    Dirichlet L' needs no -log(q) L that cancels to rounding noise.

    At nonpositive integer s = 1 - r the value is the closed form
    zeta(1 - r, z) = -B_r(z) / r (plus 1/r with minus_pole=True): the
    kernel's direct-sum powers there cancel against the tail and cost
    ~|z+N|^(1-s) eps of absolute accuracy.  The derivative keeps the split
    ceil|z| + EM_SHIFT, where the differentiated tail still converges.
    """
    s = np.asarray(s, dtype=np.complex128)
    z = np.asarray(z, dtype=np.complex128)
    scalar_s, scalar_z = s.ndim == 0, z.ndim == 0
    s, z = (s[None] if scalar_s else s), (z[None] if scalar_z else z)
    if s.ndim != 1 or z.ndim != 1 or not (s.size and z.size):
        raise DomainError("hurwitz zeta takes scalars or non-empty 1-D "
                          "arrays of s and z")
    if not (np.isfinite(s).all() and np.isfinite(z).all()):
        # argmin finds the first non-finite entry (or the first entry)
        raise DomainError(f"hurwitz zeta needs finite s and z, got s = "
                          f"{s[np.argmin(np.isfinite(s))]}, z = "
                          f"{z[np.argmin(np.isfinite(z))]}")
    shift = z if scale == 1 else z / scale
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
            tab = _NODE_TABLES.get(part, J)
            split = np.ceil(tab.need(scale)) + zmax
            if not (split <= SERIES_MAX_TERMS).all():
                i = np.argmin(split <= SERIES_MAX_TERMS)
                raise DomainError(
                    f"Euler-Maclaurin split for s = {part[i]}, |z| <= "
                    f"{zmax} exceeds {SERIES_MAX_TERMS} terms or overflows "
                    "double precision")
            groups = _split_groups(split, part.real)
            if groups is None:
                rows.append(_shift_blocks(part, z, int(split.max()),
                                          minus_pole, scale, tab))
                continue
            em = _joined([_shift_blocks(part[g], z, int(split[g].max()),
                                        minus_pole, scale, tab.take(g))
                          for g in groups], axis=-1)
            back = np.argsort(np.concatenate(groups))
            rows.append(EmResult(*(f[..., back] for f in _fields(em))))
        em = _joined(rows, axis=-1)
        _trivial_zero_values(s, shift, em, minus_pole)
    bad = ~(np.isfinite(em.value) & np.isfinite(em.ds)
            & np.isfinite(em.err_value))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise DomainError(f"hurwitz zeta at s = {s[j]}, z = {shift[i]} "
                          "overflows double precision")
    at = (0 if scalar_z else slice(None), 0 if scalar_s else slice(None))
    fields = [f[at] for f in _fields(em)]
    if scalar_s and scalar_z:
        fields = [f(x) for f, x in zip((complex, complex, float, float),
                                       fields)]
    return EmResult(*fields)


def _split_groups(split: np.ndarray,
                  re_s: np.ndarray) -> list[np.ndarray] | None:
    """None where every node of a chunk can share its largest split, else
    index arrays of the nodes that share one split each.

    A split N larger than a node's own N_i adds nothing to its truncation
    but grows its rounding floor with the direct-sum magnitude, ~N^(1 -
    Re s) left of Re s = 1.  So a node may share a split up to N_i
    _BATCH_GROWTH^(1 / (1 - Re s)); the nodes sorted by split are cut
    greedily where the next one would pass that limit for some node of
    its group."""
    if len(split) == 1 or re_s.min() >= 1.0 or split.min() == split.max():
        return None
    lim = split * _BATCH_GROWTH ** (1.0 / np.maximum(1.0 - re_s, 0.0))
    if split.max() <= lim.min():
        return None
    order = np.argsort(split, kind="stable")
    groups, start, cap = [], 0, math.inf
    for k, i in enumerate(order):
        if split[i] > cap:
            groups.append(order[start:k])
            start, cap = k, math.inf
        cap = min(cap, lim[i])
    groups.append(order[start:])
    return groups


def _shift_blocks(s: np.ndarray, z: np.ndarray, N: int, minus_pole: bool,
                  scale: int, tab: _NodeTable) -> EmResult:
    """The kernel at the nodes s with split N over the shifts z: in one
    call on the prime-power path, where the split is at least
    _POWER_MIN_SPLIT and the shifts are positive integers coprime to the
    scale (zeta, every Dirichlet residue), else in blocks of at most
    EM_TERMS direct-sum terms (or one shift)."""
    if N >= _POWER_MIN_SPLIT and not z.imag.any():
        ints = z.real.astype(np.int64)
        if (ints == z.real).all() and ints.min() > 0 \
                and (np.gcd(ints, scale) == 1).all():
            plan = _power_plan(scale, tuple(ints.tolist()), N)
            if plan is not None:
                return _em_core(s, z, N, minus_pole, scale, tab, plan)
    step = max(1, EM_TERMS // (len(s) * N))
    return _joined([_em_core(s, z[b:b + step], N, minus_pole, scale, tab)
                    for b in range(0, len(z), step)], axis=0)


def _fields(em: EmResult) -> tuple:
    return em.value, em.ds, em.err_value, em.err_ds


def _joined(parts: list[EmResult], axis: int) -> EmResult:
    """The kernel results of adjacent blocks as one, joined along axis."""
    if len(parts) == 1:
        return parts[0]
    return EmResult(*(np.concatenate(f, axis)
                      for f in zip(*map(_fields, parts))))


def _trivial_zero_values(s: np.ndarray, z: np.ndarray, em: EmResult,
                         minus_pole: bool) -> None:
    """Overwrite em's values and their errors at nonpositive integer nodes
    s = 1 - r with -B_r(z) / r, plus 1/r with minus_pole=True (see
    hurwitz_zeta_em), for every shift z (em's fields are (shifts x nodes)
    arrays).  The error is the Horner bound of `_bernoulli_zero_value`,
    plus the margin of the N = 1 kernel sum this replaced, plus the
    rounding of the added 1/r."""
    re = s.real
    if re.min() > 0.0:
        return
    hits = np.flatnonzero((s.imag == 0.0) & (re <= 0.0) & (re == np.round(re)))
    for j, sj in zip(hits.tolist(), re[hits].tolist()):
        r = 1 - int(round(sj))
        for i, zi in enumerate(z.tolist()):
            value, err = _bernoulli_zero_value(r, zi)
            em.value[i, j] = value + (1.0 / r if minus_pole else 0.0)
            # a numpy power overflows to inf where a float power raises
            em.err_value[i, j] = err \
                + 1e-15 * np.float64(1.0 + abs(zi)) ** max(r - 1, 1) \
                + (2.0 * _EPS / r if minus_pole else 0.0)


def _bernoulli_zero_value(r: int, z: complex) -> tuple[complex, float]:
    """zeta(1 - r, z) = -B_r(z) / r and its Horner rounding bound 2 eps r
    sum_k |c_k| |z|^(r-k) over the coefficients c_k of B_r, divided by r."""
    az, bound = abs(z), 0.0
    for c in _bernoulli_poly_coeffs(r):
        bound = bound * az + abs(c)
    return -bernoulli_poly(r, z) / r, 2.0 * _EPS * bound


# ---------------------------------------------------------------------------
# Hurwitz zeta at s = 1 - r by the Abel-Plana formula; higher gamma factor


# Gauss-Laguerre rule sizes of the Abel-Plana integral: the larger gives
# the value, the gap between the two its error (a third rule of 20 nodes
# set the claim wherever it was far from converged, up to ~1e5 above the
# error)
_ABEL_PLANA_SIZES = (30, 40)


@lru_cache(maxsize=1)
def _abel_plana_rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Laguerre rules of _ABEL_PLANA_SIZES in x = 2 pi t, concatenated:
    the offsets -it and then it of their nodes, weights q over 2 pi (1 -
    e^-x), so that int_0^inf f(t) / (e^(2 pi t) - 1) dt ~ sum q f(t), and
    where each rule starts.  Built on first use, not at import; read-only."""
    xs, ws = zip(*(laguerre_rule(n, 0.0) for n in _ABEL_PLANA_SIZES))
    x = np.concatenate(xs)
    q = np.concatenate(ws) / (-2.0 * math.pi * np.expm1(-x))
    it = 1j * x / (2.0 * math.pi)
    return _read_only(np.concatenate((-it, it)), q,
                      np.cumsum((0,) + _ABEL_PLANA_SIZES[:-1]))


@overflow_is_domain_error
def _abel_plana(r: int, a: complex) -> EmResult:
    """zeta(1 - r, a) and d/ds zeta(s, a) at s = 1 - r, Re(a) > 0, with
    error bounds, without the Euler-Maclaurin kernel.

    The value is the closed form -B_r(a) / r with its Horner rounding bound
    (`_bernoulli_zero_value`).  The derivative comes from the Abel-Plana
    (Hermite) formula (DLMF §25.11)

        zeta(s, a) = a^-s / 2 + a^(1-s) / (s - 1)
                     + i int_0^inf [(a + it)^-s - (a - it)^-s]
                                   / (e^(2 pi t) - 1) dt

    differentiated in s (`_abel_plana_ds`).  Its integrand has branch
    points at t = +-ia, 2 pi Re a off the real axis in x = 2 pi t, so the
    fixed rules lose digits as Re a -> 0 (5e-6 relative at a = 0.05, r =
    1).  For Re a < 1 the derivative is also read at a + 1 by the
    recurrence zeta'(1 - r, a) = zeta'(1 - r, a + 1) - a^(r-1) log a, and
    the reading with the smaller claim is kept: the shift wins at small
    depth, while at large depth the integrand near the poles t = +-i of
    1 / (e^(2 pi t) - 1), of size |a + 1|^(r-1), grows with it.
    DomainError unless r >= 1 is an integer and a is finite with Re(a) >
    0, or where a value overflows.
    """
    if not isinstance(r, int) or r < 1:
        raise DomainError("depth r must be a positive integer")
    a = complex(a)
    if not (cmath.isfinite(a) and a.real > 0.0):
        raise DomainError(f"hurwitz zeta requires finite z with Re(z) > 0, "
                          f"got z = {a}")
    value, err_value = _bernoulli_zero_value(r, a)
    ds, err_ds = _abel_plana_ds(r, a)
    if a.real < 1.0:
        step = a ** (r - 1) * cmath.log(a)
        up, err_up = _abel_plana_ds(r, a + 1.0)
        err_up += float(_ROUNDOFF) * abs(step)
        if err_up < err_ds:
            ds, err_ds = up - step, err_up
    if not (cmath.isfinite(value) and cmath.isfinite(ds)
            and math.isfinite(err_value) and math.isfinite(err_ds)):
        raise DomainError(f"hurwitz zeta at s = {1 - r}, z = {a} overflows "
                          "double precision")
    return EmResult(value, ds, err_value, err_ds)


def _abel_plana_ds(r: int, a: complex) -> tuple[complex, float]:
    """d/ds zeta(s, a) at s = 1 - r from the Abel-Plana formula (see
    `_abel_plana`), and its error.  At s = 1 - r the integrand is a
    polynomial times logarithms, i [(a - it)^(r-1) log(a - it) - (a +
    it)^(r-1) log(a + it)], and the integral is read from each Laguerre
    rule of _ABEL_PLANA_SIZES in x = 2 pi t.  The larger rule gives the
    derivative; its error is the gap between the two rules plus the
    rounding floor 50 eps sum |terms|."""
    offsets, q, starts = _abel_plana_rules()
    with np.errstate(over="ignore", invalid="ignore"):
        u = a + offsets
        f = np.log(u)
        f *= np.power(u, r - 1)
        fm, fp = f[:q.size], f[q.size:]
        quads = (1j * np.add.reduceat(q * (fm - fp), starts)).tolist()
        k = starts[-1]
        size = float(np.dot(q[k:], np.abs(fm[k:]) + np.abs(fp[k:])))
    la = cmath.log(a)
    p = a ** (r - 1)
    ds = -0.5 * la * p + a * p * (la - 1.0 / r) / r + quads[-1]
    size += abs(0.5 * la * p) + abs(a * p) * (abs(la) + 1.0 / r) / r
    err_ds = abs(quads[1] - quads[0]) + float(_ROUNDOFF) * size
    return ds, err_ds


@overflow_is_domain_error
def milnor_gamma(r: int, z: complex) -> complex:
    """exp(d/ds zeta(s, z) at s = 1 - r); at r = 1 this is Gamma(z)/sqrt(2 pi).

    Defined for integer depth r >= 1 and Re(z) > 0; the derivative is read
    from the Abel-Plana formula (`_abel_plana`).
    """
    return cmath.exp(_abel_plana(r, z).ds)


# ---------------------------------------------------------------------------
# log Gamma and psi, principal branch on Re(z) > 0

# The Stirling series of log Gamma(w) is sum_j c_j w^(1 - 2j), c_j =
# B_2j / (2j (2j - 1)), j = 1..12, and that of psi(w) its derivative
# -sum_j (2j - 1) c_j w^(-2j): column 0 holds c_j, column 1 (2j - 1) c_j
_STIRLING = np.array([float(bernoulli_number(2 * j)
                            / Fraction(2 * j * (2 * j - 1)))
                      for j in range(1, 13)])
_STIRLING = np.stack((_STIRLING, np.arange(1, 24, 2) * _STIRLING), axis=-1)


def _log_gamma_and_psi(z, name: str, psi: bool = True) -> tuple:
    """log Gamma(z) and psi(z) = (log Gamma)'(z) on Re z > 0, elementwise
    as arrays of z's shape, from one shifted Stirling series; DomainError
    (naming the caller) unless every z is finite with Re z > 0.  With
    psi=False the second item is None, and psi's own terms are skipped.

    Each z takes the n >= 0 unit steps that bring |z + n| to 12 or past;
    there the first Stirling term omitted after the 12 kept is below
    ~1e-19, its sector factor sec^26(arg w / 2) included, so an argument
    high on the line takes no step.  The recursions log Gamma(z) = log
    Gamma(z + 1) - log z and psi(z) = psi(z + 1) - 1/z stay on the
    principal branch throughout the right half plane.
    """
    z = np.asarray(z, dtype=np.complex128)
    if (bad := ~(np.isfinite(z) & (z.real > 0))).any():
        raise DomainError(f"{name} requires finite z with Re(z) > 0, got "
                          f"{z[bad].ravel()[0]}")
    n = np.maximum(0.0, np.ceil(np.sqrt(np.maximum(0.0, 144.0 - z.imag ** 2))
                                - z.real))
    steps = int(n.max()) if n.size else 0
    w = z + n
    lw = np.log(w)
    winv = 1.0 / w
    winv2 = winv * winv
    # both series at once: the powers w^-2 .. w^-22 on a trailing axis
    # times the two coefficient columns
    pw = np.cumprod(np.broadcast_to(winv2[..., None], winv2.shape + (11,)),
                    axis=-1)
    series = _STIRLING[0] + pw @ _STIRLING[1:]
    lg = (w - 0.5) * lw - w + 0.5 * math.log(2.0 * math.pi) \
        + winv * series[..., 0]
    dg = lw - winv * (0.5 + winv * series[..., 1]) if psi else None
    if steps:
        # the recursions' sums over each z's own steps; where no z takes a
        # step they are zero, and subtracting zero changes no bit
        k = np.arange(steps)
        shifted = z[..., None] + k
        used = k < n[..., None]
        lg -= np.log(shifted, where=used,
                     out=np.zeros_like(shifted)).sum(axis=-1)
        if psi:
            dg -= np.divide(1.0, shifted, where=used,
                            out=np.zeros_like(shifted)).sum(axis=-1)
    return lg, dg


def log_gamma(z):
    """Principal branch of log Gamma on Re(z) > 0, at a scalar z or
    elementwise over an array (`_log_gamma_and_psi`)."""
    out = _log_gamma_and_psi(z, "log_gamma", psi=False)[0]
    return complex(out) if out.ndim == 0 else out
