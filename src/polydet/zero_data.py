"""Nontrivial zero ordinates: file ingest/export, scanning the critical
line of self-dual characters by Hardy's Z at Gram points, one Euler factor
at a time, and density-based truncation tail estimates for zero sums.

File format: one positive ordinate per line (optionally followed by an
integer multiplicity), '#' starts a comment, and an optional "height: T"
line states the height up to which the table is complete.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (DomainError, EmptyZeroTable, NonMonotoneError,
                     ParseError, UnsupportedCharacter)
from .fields_and_characters import (HeckeCharacter, NumberField,
                                    trivial_character)
from .l_functions import (_l_and_ds, _quadratic_kronecker, conductor,
                          root_number)
from .special_functions import _log_gamma_and_psi

__all__ = [
    "ZeroTable",
    "load_zeros",
    "loads_zeros",
    "save_zeros",
    "find_zeros",
    "scan_ordinates",
    "truncation_tail_estimate",
    "zero_count_estimate",
    "builtin_zeta_zeros",
]

_BISECT_TOL = 1e-9
# Gram points sampled past the one at the scan height, of which the first
# good one closes the top block
_SPARE_GRAM = 8
# a Gram block short of sign changes is resampled at 2^3 points per Gram
# interval, then at doubling density up to 2^8
_FIRST_DOUBLINGS = 3
_MAX_DOUBLINGS = 8
# theta's sample step: from half-unit brackets, three theta calls settle
# every Gram point (from unit brackets, chi_8's first to 1000 took four)
_THETA_STEP = 0.5
# cap on the safeguarded Newton steps per batch of Hermite cubics, which
# start `_newton_refine` at Gram points and at Z's sign changes
_NEWTON_STEPS = 30
_Q = NumberField.rational()


@dataclass(frozen=True)
class ZeroTable:
    """Ordinates of zeros 1/2 + i gamma with gamma > 0, assumed simple
    unless a multiplicity is given, complete up to completeness_height."""

    label: str
    ordinates: tuple[float, ...]
    completeness_height: float
    multiplicities: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.ordinates:
            raise EmptyZeroTable("zero table has no ordinates")
        arr = np.asarray(self.ordinates)
        if not (np.isfinite(arr).all() and (arr > 0).all()):
            raise DomainError("ordinates must be finite and positive")
        if not math.isfinite(self.completeness_height):
            raise DomainError("completeness height must be finite")
        if np.any(np.diff(arr) <= 0):
            raise NonMonotoneError("ordinates must be strictly increasing")
        if not self.multiplicities:
            object.__setattr__(self, "multiplicities", (1,) * len(self.ordinates))
        if len(self.multiplicities) != len(self.ordinates):
            raise DomainError("multiplicities length mismatch")
        # the table cannot claim completeness beyond its last entry
        h = min(float(self.completeness_height), float(self.ordinates[-1]))
        object.__setattr__(self, "completeness_height", h)

    def __len__(self):
        return len(self.ordinates)

    def truncated(self, n_pairs: int) -> "ZeroTable":
        """The first n_pairs ordinates, complete up to the last kept one."""
        if not 1 <= n_pairs <= len(self.ordinates):
            raise DomainError(f"need 1 <= n_pairs <= {len(self.ordinates)}")
        return ZeroTable(self.label, self.ordinates[:n_pairs],
                         self.ordinates[n_pairs - 1],
                         self.multiplicities[:n_pairs])

    def to_text(self) -> str:
        lines = [f"# zeros of {self.label}",
                 f"height: {self.completeness_height:.9f}"]
        for g, m in zip(self.ordinates, self.multiplicities):
            lines.append(f"{g:.12f}" + (f" {m}" if m != 1 else ""))
        return "\n".join(lines) + "\n"


def loads_zeros(text: str, label: str = "table") -> ZeroTable:
    """Parse a zero table from text; see the module docstring for the format."""
    ordinates: list[float] = []
    mults: list[int] = []
    height: float | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("height"):
            parts = line.split(":", 1)
            if len(parts) != 2:
                raise ParseError("malformed height line", lineno)
            try:
                height = float(parts[1])
            except ValueError:
                raise ParseError(f"bad height value {parts[1]!r}", lineno)
            if not math.isfinite(height):
                raise ParseError(f"height {height} is not finite", lineno)
            continue
        fields = line.split()
        if len(fields) > 2:
            raise ParseError(f"expected 'ordinate [multiplicity]', got {line!r}",
                             lineno)
        try:
            g = float(fields[0])
        except ValueError:
            raise ParseError(f"bad ordinate {fields[0]!r}", lineno)
        m = 1
        if len(fields) == 2:
            try:
                m = int(fields[1])
            except ValueError:
                raise ParseError(f"bad multiplicity {fields[1]!r}", lineno)
            if m < 1:
                raise ParseError("multiplicity must be >= 1", lineno)
        if not 0 < g < math.inf:
            raise ParseError("ordinates must be finite and positive", lineno)
        if ordinates and g <= ordinates[-1]:
            raise NonMonotoneError(
                f"line {lineno}: ordinate {g} does not increase past "
                f"{ordinates[-1]}")
        ordinates.append(g)
        mults.append(m)
    if not ordinates:
        raise EmptyZeroTable("no ordinates found")
    if height is None:
        height = ordinates[-1]
    return ZeroTable(label, tuple(ordinates), height, tuple(mults))


def load_zeros(path: str, label: str | None = None) -> ZeroTable:
    with open(path) as fh:
        return loads_zeros(fh.read(), label or path)


def save_zeros(table: ZeroTable, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(table.to_text())


def builtin_zeta_zeros() -> ZeroTable:
    """The bundled table of Riemann zeta ordinates (first 100+)."""
    ref = importlib.resources.files("polydet").joinpath("data/zeta_zeros_100.txt")
    return loads_zeros(ref.read_text(), "zeta (bundled)")


# ---------------------------------------------------------------------------
# Sign-change scanning


def _hermite_root(f0: np.ndarray, f1: np.ndarray, d0: np.ndarray,
                  d1: np.ndarray) -> np.ndarray:
    """A root u in [0, 1] of the cubic Hermite interpolant of the end
    values f0, f1 (nonzero, of opposite signs) and the end slopes d0, d1
    per unit of u, by safeguarded Newton steps on the cubic from the
    regula falsi point: a step that leaves the shrinking bracket is a
    bisection instead."""
    lo, hi = np.zeros_like(f0), np.ones_like(f0)
    u = f0 / (f0 - f1)
    neg = f0 < 0
    for _ in range(_NEWTON_STEPS):
        v = 1.0 - u
        p = (f0 * (1.0 + 2.0 * u) + d0 * u) * v * v \
            + (f1 * (3.0 - 2.0 * u) - d1 * v) * u * u
        dp = 6.0 * (f1 - f0) * u * v + d0 * v * (1.0 - 3.0 * u) \
            + d1 * u * (3.0 * u - 2.0)
        same = (p < 0) == neg
        lo, hi = np.where(same, u, lo), np.where(same, hi, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = u - p / dp
        # a start within 1e-9 of a bracket's width is plenty: the cubic is
        # itself only a model of g
        if np.all(np.abs(step - u) <= 1e-9):
            break
        u = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
    return u


def _newton_refine(g, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
                   fhi: np.ndarray, dlo: np.ndarray, dhi: np.ndarray,
                   target=0.0) -> np.ndarray:
    """One root of g(x) = target per bracket [lo, hi], all refined in
    lockstep, where g(x) returns (g, g') at an array x, g(lo) = flo and
    g(hi) = fhi lie on either side of the target (0 for Z, n pi for Gram
    points on theta, one per bracket), and dlo, dhi are the slopes there.

    Every step makes one call of g at one point per bracket still wider
    than _BISECT_TOL: first the root of the cubic Hermite interpolant of
    the end values and slopes, then the Newton step from the point last
    evaluated, each clipped tol/2 inside the bracket so that a point next
    to an end that is already close to the root crosses it and closes the
    bracket.  A step that leaves the bracket, or a bracket that has halved
    fewer than k/2 - 2 times in k steps, takes a bisection instead, so a
    bracket of width w needs at most 2 log2(w / tol) + 5 evaluations,
    rounded up, where Newton alone crawls to a flat zero ((t - c)^9).
    Each root is the linear interpolant of the true end values of its final
    bracket, clipped into it.
    """
    c = np.broadcast_to(target, np.shape(lo))
    lo, hi, flo, fhi = (np.array(a, float) for a in (lo, hi, flo - c, fhi - c))
    w0 = hi - lo
    nxt = lo + w0 * _hermite_root(flo, fhi, w0 * dlo, w0 * dhi)
    k = 0
    while (act := np.flatnonzero(hi - lo > _BISECT_TOL)).size:
        a, b, x = lo[act], hi[act], nxt[act]
        bis = (~((a <= x) & (x <= b))
               | (b - a > w0[act] * 2.0 ** (2.0 - 0.5 * k)))
        x = np.where(bis, 0.5 * (a + b),
                     np.clip(x, a + 0.5 * _BISECT_TOL, b - 0.5 * _BISECT_TOL))
        fx, dx = g(x)
        fx = fx - c[act]
        hit = fx == 0.0
        # signs are compared, never multiplied: products of small values
        # underflow to zero
        left = ~hit & ((fx < 0) == (flo[act] < 0))
        right = ~hit & ~left
        il, ir = act[left], act[right]
        lo[il], flo[il] = x[left], fx[left]
        hi[ir], fhi[ir] = x[right], fx[right]
        lo[act[hit]] = hi[act[hit]] = x[hit]
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt[act] = x - fx / dx
        k += 1
    return np.clip(lo + (hi - lo) * (flo / (flo - fhi)), lo, hi)


def _theta(chi: HeckeCharacter,
           t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta(t), theta'(t)) from one Stirling pass: Hardy's phase
    theta(t) = Im log Gamma((1/2 + a + it)/2) + (t/2) log(q/pi) of a
    Dirichlet factor of parity a mod q, continuous in t and convex on
    t > 0, with one minimum, and theta'(t) = Re psi((1/2 + a + it)/2) / 2
    + log(q/pi) / 2."""
    lg, psi = _log_gamma_and_psi((0.5 + chi.parity + 1j * t) / 2.0,
                                 "Hardy's theta")
    c = 0.5 * math.log(chi.modulus / math.pi)
    return lg.imag + c * t, 0.5 * psi.real + c


def _hardy_z(chi: HeckeCharacter,
             t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Z(t), Z'(t)), Z(t) = e^(i theta(t)) L(1/2 + it, chi): real for
    root number +1, of the sign of the completed function and of modulus
    |L|, so it stays in the double range however far up the line.
    Z' = Re(i e^(i theta) (theta' L + L')) reads the L' that the kernel
    returns with L."""
    L, dL = _l_and_ds(_Q, chi, 0.5 + 1j * t)[:2]
    th, dth = _theta(chi, t)
    rot = np.exp(1j * th)
    return (rot * L).real, (1j * rot * (dth * L + dL)).real


def _sign_changes(z: np.ndarray) -> np.ndarray:
    # signs are compared, never multiplied as values, which can underflow
    return np.sign(z[:-1]) * np.sign(z[1:]) < 0


def _rosser_blocks(g, t: np.ndarray, n: np.ndarray, z: np.ndarray,
                   dz: np.ndarray) -> tuple[np.ndarray, ...]:
    """Samples (t, z, dz) of a Hardy Z-function, (z, dz) = g(t), from its
    values z and slopes dz at Gram points t of indices n, on which every
    Gram block shows its sign changes (Rosser's rule; Brent, Math. Comp.
    33, 1979).

    The first and last samples and every good one ((-1)^n z > 0) bound the
    blocks, and a block of n' - n Gram intervals must show n' - n sign
    changes.  Short blocks gain uniform samples, one call of g per
    resample: first the grid of 2^_FIRST_DOUBLINGS points per Gram
    interval at once (a short block mostly needs that many, and each call
    pays the kernel's set-up), then the grid at doubling density;
    DomainError names a block still short at 2^_MAX_DOUBLINGS.
    """
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.where(n % 2, -z, z) > 0), [t.size - 1]))
    # sorted: drop a repeated end (np.unique would load numpy.ma, ~6 ms)
    bounds = bounds[np.diff(bounds, prepend=-1) > 0]
    ends, want = t[bounds], np.diff(n[bounds])
    d = 0
    while True:
        seen = np.concatenate(([0], np.cumsum(_sign_changes(z))))
        found = np.diff(seen[np.searchsorted(t, ends)])
        short = np.flatnonzero(found < want)
        if not short.size or d >= _MAX_DOUBLINGS:
            break
        # the grid of 2^d points per Gram interval, less the coarser grid
        # already sampled (at first, the ends and the points near the Gram
        # points, which the block already has)
        prev, d = d, d + 1 if d else _FIRST_DOUBLINGS
        grids = [np.linspace(ends[j], ends[j + 1], want[j] * 2 ** d + 1)
                 for j in short]
        new = np.concatenate([x[np.arange(x.size) % 2 ** (d - prev) != 0]
                              for x in grids])
        order = np.argsort(np.concatenate((t, new)), kind="stable")
        t = np.concatenate((t, new))[order]
        znew, dznew = g(new)
        z = np.concatenate((z, znew))[order]
        dz = np.concatenate((dz, dznew))[order]
    if short.size:
        j = short[0]
        raise DomainError(
            f"Gram block ({ends[j]:.6f}, {ends[j + 1]:.6f}] shows {found[j]} "
            f"of its {want[j]} sign changes at 2^{_MAX_DOUBLINGS} samples per "
            "Gram interval")
    return t, z, dz


def _factor_ordinates(chi: HeckeCharacter, height: float) -> np.ndarray:
    """Ordinates in (0, height] of a Dirichlet factor L(s, chi) over Q, by
    its Hardy Z at Gram points, each block resolved by `_rosser_blocks`
    and each sign change refined by `_newton_refine`.

    theta and theta' are sampled every _THETA_STEP from 0 to height, and
    on to where theta's tangent at the last sample reaches _SPARE_GRAM
    Gram points past height (theta is convex); on its increasing branch,
    from the first index n0 there, the samples bracket each n pi for
    `_newton_refine`.  Z and Z' at all the Gram points are one call.  The
    head (0, g_n0] is one more block, of n0 + eps zeros (eps = 1 for
    zeta's pole): t = 0 stands for Gram index -eps.  The scan runs past
    height to the next good Gram point, so that the top block closes.
    """
    tg = np.append(np.arange(0.0, height, _THETA_STEP), height)
    thg, dthg = _theta(chi, tg)
    n0 = math.floor(thg.min() / math.pi) + 1
    n_top = max(n0, math.ceil(thg[-1] / math.pi))
    while thg[-1] < (n_top + _SPARE_GRAM) * math.pi:
        # theta is convex, so it lies above its tangent at the last sample:
        # sample to where that tangent reaches the last spare Gram point, or
        # double the samples where it rises too slowly (or falls)
        need = ((n_top + _SPARE_GRAM) * math.pi - thg[-1]) / _THETA_STEP
        count = tg.size if dthg[-1] * tg.size <= need \
            else math.ceil(need / dthg[-1])
        more = tg[-1] + _THETA_STEP * np.arange(1.0, count + 1.0)
        tg = np.append(tg, more)
        thg, dthg = np.concatenate(((thg, dthg), _theta(chi, more)), axis=1)
    k = int(thg.argmin())
    n = np.arange(n0 - 1, n_top + _SPARE_GRAM + 1)
    n[0] = -chi.epsilon
    gram = n[1:] * math.pi
    j = k + np.searchsorted(thg[k:], gram)
    t = np.append(0.0, _newton_refine(
        partial(_theta, chi), tg[j - 1], tg[j], thg[j - 1], thg[j],
        dthg[j - 1], dthg[j], gram))
    g = partial(_hardy_z, chi)
    z, dz = g(t)
    m = n_top - n0 + 1   # the position of g_n_top >= height
    top = np.flatnonzero(np.where(n[m:] % 2, -z[m:], z[m:]) > 0)
    if not top.size:
        raise DomainError(f"no good Gram point among the {_SPARE_GRAM + 1} "
                          f"from height {height}")
    end = m + top[0] + 1
    t, z, dz = _rosser_blocks(g, t[:end], n[:end], z[:end], dz[:end])
    brk = np.flatnonzero(_sign_changes(z))
    found = _newton_refine(g, t[brk], t[brk + 1], z[brk], z[brk + 1],
                           dz[brk], dz[brk + 1])
    return found[found <= height]


def scan_ordinates(fld: NumberField, chi: HeckeCharacter,
                   height: float) -> tuple[float, ...]:
    """Ordinates of the zeros 1/2 + i gamma with 0 < gamma <= height found
    on the critical line, in increasing order; may be empty.

    Every supported self-dual L-function is a product of Dirichlet factors
    over Q (zeta, L(s, chi) for a real primitive chi, and both for the
    Dedekind zeta of Q(sqrt d)); each is scanned by `_factor_ordinates`,
    every ordinate refined by Newton steps on Hardy's Z to a final bracket
    at most _BISECT_TOL = 1e-9 wide, and the results are merged.
    Completeness rests on Rosser's rule and is not certified.  Raises
    UnsupportedCharacter unless the root number is +1, and DomainError
    where a Gram block stays short of its zeros.
    """
    if not chi.is_self_dual:
        raise UnsupportedCharacter("zero scan requires a self-dual character")
    if not 1.0 < height < math.inf:   # also rejects NaN
        raise DomainError("scan height must be finite and exceed 1")
    # a principal character has W = 1, and so has every real primitive
    # character, the Kronecker factor of a Dedekind zeta among them
    if abs((w := root_number(fld, chi)) - 1.0) > 1e-9:
        raise UnsupportedCharacter(f"root number {w:.6g}; sign scanning "
                                   "needs root number +1")
    factors = [chi] if not chi.is_principal else (
        [trivial_character(_Q)]
        + ([] if fld.is_rational else [_quadratic_kronecker(fld)]))
    found = np.sort(np.concatenate([_factor_ordinates(f, height)
                                    for f in factors]))
    return tuple(float(t) for t in found)


def find_zeros(fld: NumberField, chi: HeckeCharacter,
               height: float) -> ZeroTable:
    """Zeros of the completed function with 0 < gamma <= height, by the
    Gram-point scan `scan_ordinates` (whose errors it raises), as a table
    complete up to height under Rosser's rule; EmptyZeroTable when none."""
    ordinates = scan_ordinates(fld, chi, height)
    if not ordinates:
        raise EmptyZeroTable(f"no zeros found below height {height}")
    return ZeroTable(f"{fld.label}, {chi.label}", ordinates, height)


# ---------------------------------------------------------------------------
# Density estimates


def zero_count_estimate(fld: NumberField, chi: HeckeCharacter,
                        height: float) -> float:
    """Main term plus constant of the zero counting function N(T) (one
    sign of the ordinate), after Riemann-von Mangoldt:

        (T/2pi) (n log(T/2pi e) + log Q) + eps + sum_j (2 a_j - 1)/8,

    with eps = 1 for the pole of a principal character and one term per
    gamma factor Gamma_R(s + a_j), from Stirling's formula for its argument
    on the critical line; a complex place is Gamma_R(s + a) Gamma_R(s + a + 1).
    The constant is 7/8 for zeta, 1/8 for chi_-4 and 1 for Q(i).
    """
    if not 0 < height < math.inf:   # also rejects NaN
        raise DomainError("height must be positive and finite")
    n = fld.degree
    q = conductor(fld, chi)
    t = height / (2.0 * math.pi)
    # a real place is Gamma_R(s + m), a complex one Gamma_R(s + m/2)
    # Gamma_R(s + m/2 + 1): (nv + 2m - 2)/8 per place
    const = chi.epsilon + sum((v.nv + 2 * v.m - 2) / 8.0
                              for v in chi.arch_places())
    return t * (n * (math.log(t) - 1.0) + math.log(q)) + const


def truncation_tail_estimate(fld: NumberField, chi: HeckeCharacter,
                             s: complex, z: complex, height: float) -> float:
    """Estimated magnitude of the zero-sum tail over |gamma| > height.

    Integrates the per-zero bound |(z - rho)/2pi|^{-Re s} against the
    density (1/2pi) log(Q (t/2pi)^n) dt for both ordinate signs, then
    doubles the result as a safety factor.  For complex s each term also
    carries exp(Im s * arg), at most exp(|Im s| pi/2) since Re(z - rho) > 0.
    Heuristic, not a certificate.
    """
    s = complex(s)
    z = complex(z)
    sigma = s.real
    if sigma <= 1.0:
        raise DomainError("tail estimate needs Re(s) > 1")
    a = abs(z.imag)
    if height <= a + 1.0:
        raise DomainError("height must exceed |Im z| + 1")
    n = fld.degree
    q = conductor(fld, chi)
    A = (height - a) / (2.0 * math.pi)
    j0 = A ** (1.0 - sigma) / (sigma - 1.0)
    j1 = A ** (1.0 - sigma) * (math.log(A) / (sigma - 1.0)
                               + 1.0 / (sigma - 1.0) ** 2)
    shift = math.log1p(a / (2.0 * math.pi * A))
    one_sided = math.log(q) * j0 + n * (j1 + shift * j0)
    return 2.0 * (2.0 * one_sided) * math.exp(0.5 * math.pi * abs(s.imag))
