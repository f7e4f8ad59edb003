"""Nontrivial zero ordinates: file ingest/export, sign-change scanning on
the critical line for self-dual characters, and density-based truncation
tail estimates for zero sums.

File format: one positive ordinate per line (optionally followed by an
integer multiplicity), '#' starts a comment, and an optional "height: T"
line states the height up to which the table is complete.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, EmptyZeroTable, NonMonotoneError,
                     ParseError, UnsupportedCharacter)
from .fields_and_characters import HeckeCharacter, NumberField
from .l_functions import completed_lambda

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

_SCAN_STEP = 0.05
_BISECT_TOL = 1e-9


@dataclass(frozen=True)
class ZeroTable:
    """Ordinates of zeros 1/2 + i gamma with gamma > 0, assumed simple
    unless a multiplicity is given, complete up to completeness_height."""

    label: str
    ordinates: tuple[float, ...]
    completeness_height: float
    multiplicities: tuple[int, ...] = ()
    assumes_critical_line: bool = True

    def __post_init__(self):
        if not self.ordinates:
            raise EmptyZeroTable("zero table has no ordinates")
        arr = np.asarray(self.ordinates)
        if np.any(arr <= 0):
            raise DomainError("ordinates must be positive")
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
                         self.multiplicities[:n_pairs],
                         self.assumes_critical_line)

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
        if g <= 0:
            raise ParseError("ordinates must be positive", lineno)
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


def _illinois(g, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray,
              fhi: np.ndarray) -> np.ndarray:
    """One zero per bracket [lo, hi] of a sign change of g (flo = g(lo) and
    fhi = g(hi), nonzero with opposite signs), all refined in lockstep.

    Every step makes one call of the vectorized g at one point per bracket
    still wider than _BISECT_TOL: the regula falsi point of the weighted end
    values, clipped tol/2 inside the bracket so that a point next to an end
    that is already close to the zero crosses it and closes the bracket.
    When the same end moves twice in a row the stale end's weight is halved
    (the Illinois rule, Dowell & Jarratt 1971).  A bracket that has halved
    fewer than k/2 - 2 times in k steps takes a bisection step instead, so a
    bracket of width w needs at most 2 log2(w / tol) + 5 evaluations, rounded
    up (57 for the grid step 0.05), where regula falsi alone can stall at a
    flat zero (~190 evaluations for (t - c)^9).
    Each zero is the linear interpolant of the true end values of its final
    bracket, clipped into it.
    """
    lo, hi, flo, fhi = (np.array(a, dtype=float) for a in (lo, hi, flo, fhi))
    wlo, whi = flo.copy(), fhi.copy()
    moved = np.zeros(lo.size, dtype=int)   # -1: lo moved last, +1: hi
    w0 = hi - lo
    k = 0
    while (act := np.flatnonzero(hi - lo > _BISECT_TOL)).size:
        a, b = lo[act], hi[act]
        x = np.clip(a + (b - a) * (wlo[act] / (wlo[act] - whi[act])),
                    a + 0.5 * _BISECT_TOL, b - 0.5 * _BISECT_TOL)
        bis = b - a > w0[act] * 2.0 ** (2.0 - 0.5 * k)
        x[bis] = 0.5 * (a[bis] + b[bis])
        fx = g(x)
        hit = fx == 0.0
        # signs are compared, never multiplied: products of small values
        # underflow to zero
        left = ~hit & ((fx < 0) == (flo[act] < 0))
        right = ~hit & ~left
        side = np.where(left, -1, 1)
        stale = moved[act] == side
        wlo[act[right & stale]] *= 0.5
        whi[act[left & stale]] *= 0.5
        moved[act] = side
        il, ir = act[left], act[right]
        lo[il], flo[il], wlo[il] = x[left], fx[left], fx[left]
        hi[ir], fhi[ir], whi[ir] = x[right], fx[right], fx[right]
        lo[act[hit]] = hi[act[hit]] = x[hit]
        k += 1
    return np.clip(lo + (hi - lo) * (flo / (flo - fhi)), lo, hi)


def scan_ordinates(fld: NumberField, chi: HeckeCharacter, height: float,
                   step: float = _SCAN_STEP) -> tuple[float, ...]:
    """Ordinates found by a sign-change scan along Re(s) = 1/2; may be empty.

    The real completed function is evaluated on the whole grid in one
    batch; its sign changes bracket zeros, which `_illinois` refines to
    brackets at most _BISECT_TOL = 1e-9 wide (about 6 evaluations each, at
    most 57 at the default step), and every ordinate lies in its final
    bracket.  Two zeros in one grid interval are missed.  Raises
    DomainError if the function falls below the normal double range, where
    its sign is lost, below height.
    """
    if not chi.is_self_dual:
        raise UnsupportedCharacter("zero scan requires a self-dual character")
    if not 1.0 < height < math.inf:   # also rejects NaN
        raise DomainError("scan height must be finite and exceed 1")

    def g(t: np.ndarray) -> np.ndarray:
        return completed_lambda(fld, chi, 0.5 + 1j * t).real

    def below_normal(t: float) -> bool:
        # on the eight grid points up to t, so that a zero cannot pass for
        # the envelope
        return np.abs(g(t - step * np.arange(8))).max() < np.finfo(float).tiny

    # realness probes at generic heights (away from zeros, where Im/|Lambda|
    # would be 0/0): Lambda is real on the line exactly when the root number
    # is +1, as for every self-dual character of the supported family
    v = completed_lambda(fld, chi,
                         0.5 + 1j * (height * (np.arange(16) + 0.389) / 16.0))
    w = np.abs(v)
    off = np.abs(v.imag[w > 1e-280]) / w[w > 1e-280]
    if off.size and (off_slack := off.max()) > 1e-6:
        raise UnsupportedCharacter(
            "completed function is not real on the line (residual "
            f"{off_slack:.2e}); sign scanning needs root number +1")

    # |Lambda| falls off like exp(-pi n t / 4) up the line, so check the top
    # of the grid before the rest; where it fails, bisect for the height at
    # which the grid leaves the normal range
    if below_normal(height):
        a, b = 0.0, height
        while b - a > 1.0:
            mid = 0.5 * (a + b)
            if below_normal(mid):
                b = mid
            else:
                a = mid
        raise DomainError(
            f"|Lambda(1/2 + it)| falls below the normal double range near "
            f"t = {b:.0f}, so its sign is lost; scan below that height")

    ts = np.arange(0.0, height + step, step)
    ts[-1] = min(ts[-1], height)
    vals = g(ts)
    sgn = np.sign(vals)
    # an exact zero on the grid is an ordinate; a sign change brackets one
    exact = ts[:-1][(sgn[:-1] == 0) & (ts[:-1] > 0)]
    brk = np.flatnonzero((sgn[:-1] != 0) & (sgn[:-1] == -sgn[1:]))
    found = np.concatenate((exact, _illinois(
        g, ts[brk], ts[brk + 1], vals[brk], vals[brk + 1])))
    return tuple(float(t) for t in np.sort(found))


def find_zeros(fld: NumberField, chi: HeckeCharacter,
               height: float) -> ZeroTable:
    """Zeros of the completed function with 0 < gamma <= height, by
    `scan_ordinates` (whose errors it raises); EmptyZeroTable when none."""
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
    q = chi.conductor_norm * abs(fld.discriminant)
    t = height / (2.0 * math.pi)
    # a real place is Gamma_R(s + |m|), a complex one Gamma_R(s + |m|/2)
    # Gamma_R(s + |m|/2 + 1): (nv + 2|m| - 2)/8 per place
    const = chi.epsilon + sum((v.nv + 2 * abs(v.m) - 2) / 8.0
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
    q = chi.conductor_norm * abs(fld.discriminant)
    A = (height - a) / (2.0 * math.pi)
    j0 = A ** (1.0 - sigma) / (sigma - 1.0)
    j1 = A ** (1.0 - sigma) * (math.log(A) / (sigma - 1.0)
                               + 1.0 / (sigma - 1.0) ** 2)
    shift = math.log1p(a / (2.0 * math.pi * A))
    one_sided = math.log(q) * j0 + n * (j1 + shift * j0)
    return 2.0 * (2.0 * one_sided) * math.exp(0.5 * math.pi * abs(s.imag))
