"""Number fields (rational and quadratic), prime ideal tables, and the
supported family of characters.

A character is one model: its field, a modulus q and a value table on the
residues mod q.  The principal character of any supported field is the
table (1,) mod 1; every other character is a primitive Dirichlet
character over the rationals.  Each archimedean place contributes the
gamma factor Gamma(w_v), w_v(s) = (N_v s + m_v)/2 (`ArchPlace.w`).

Prime ideals exist only as numpy arrays: `_ideal_table` gives the rational
prime below and the norm of every prime ideal up to a bound, built from one
cached sieve (`_primes`).  In a quadratic field the splitting of p is the
Kronecker symbol (d_K|p), read once per residue class of p mod |d_K|; no
general ideal arithmetic is attempted.  The Kronecker symbol (d|n) of any
n >= 1 takes (d|2) from d mod 8 and the odd part by Jacobi reciprocity.

Dirichlet characters mod q are selected by index among the generator
powers of (Z/q)^*: the smallest primitive root of each odd prime power,
3 mod 4 or -1 and 5 mod 2^e, each lifted to modulus q by the Chinese
remainder theorem.  Only primitive characters are accepted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedCharacter

__all__ = [
    "NumberField",
    "ArchPlace",
    "HeckeCharacter",
    "kronecker_symbol",
    "trivial_character",
    "kronecker_character",
    "dirichlet_character_by_index",
]


# ---------------------------------------------------------------------------
# Fields


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, p^e) for every prime power p^e exactly dividing n >= 1."""
    out, p = [], 2
    while p * p <= n:
        pk = 1
        while n % p == 0:
            n //= p
            pk *= p
        if pk > 1:
            out.append((p, pk))
        p += 1
    if n > 1:
        out.append((n, n))
    return out


@dataclass(frozen=True)
class NumberField:
    """Q or a quadratic field Q(sqrt(d)) described by its key invariants."""

    degree: int
    discriminant: int
    r1: int   # number of real places
    r2: int   # number of complex places
    label: str

    @staticmethod
    def rational() -> "NumberField":
        return NumberField(1, 1, 1, 0, "Q")

    @staticmethod
    def quadratic(d: int) -> "NumberField":
        if d in (0, 1):
            raise DomainError("quadratic field needs d != 0, 1")
        if any(pk != p for p, pk in _prime_powers(abs(d))):
            raise DomainError(f"d = {d} is not squarefree")
        disc = d if d % 4 == 1 else 4 * d
        if d > 0:
            r1, r2 = 2, 0
        else:
            r1, r2 = 0, 1
        return NumberField(2, disc, r1, r2, f"Q(sqrt({d}))")

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    def __str__(self):
        return self.label


@dataclass(frozen=True)
class ArchPlace:
    """Archimedean place data entering a gamma factor: local degree N_v and
    weight m_v in {0, 1}."""

    nv: int
    m: int = 0

    def w(self, s):
        """w_v(s) = (N_v s + m_v)/2, the argument of this place's Gamma."""
        return (self.nv * s + self.m) / 2.0


# ---------------------------------------------------------------------------
# Kronecker symbol and primes


def kronecker_symbol(d: int, n: int) -> int:
    """Kronecker symbol (d|n) for n >= 1: a factor (d|2) per factor 2 of n,
    read from d mod 8, then the Jacobi symbol of the odd part by
    reciprocity (Cohen, Alg. 1.4.10)."""
    if n < 1:
        raise DomainError("Kronecker symbol needs n >= 1")
    t = 1
    while n % 2 == 0:
        if d % 2 == 0:
            return 0
        n //= 2
        if d % 8 in (3, 5):
            t = -t
    d %= n
    while d:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                t = -t
        d, n = n, d
        if d % 4 == 3 and n % 4 == 3:
            t = -t
        d %= n
    return t if n == 1 else 0


@lru_cache(maxsize=8)
def _primes(n: int) -> np.ndarray:
    """All primes <= n as a read-only int64 array, by a numpy sieve over
    the odd numbers."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)   # odd[i] stands for 2 i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = False
    primes = np.concatenate(([2], 2 * np.nonzero(odd)[0] + 1))
    primes.flags.writeable = False
    return primes


def _ideal_table(fld: NumberField, norm_bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Rational prime below and norm of every prime ideal of norm <=
    norm_bound, as int64 arrays sorted by (norm, p, index).

    A prime p of Q is one ideal of norm p over Q.  In a quadratic field it
    splits into two ideals of norm p when (d_K|p) = 1, ramifies into one of
    norm p when (d_K|p) = 0, and stays inert with norm p^2 when (d_K|p) = -1.
    """
    ps = _primes(norm_bound)
    if fld.is_rational:
        return ps, ps
    disc = fld.discriminant
    # for a fundamental discriminant, p -> (d_K|p) is a character mod |d_K|,
    # so one prime per residue class decides the whole class
    res = ps % abs(disc)
    classes, first = np.unique(res, return_index=True)
    symbol = np.zeros(abs(disc), dtype=np.int64)
    symbol[classes] = [kronecker_symbol(disc, int(ps[i])) for i in first]
    sym = symbol[res]
    count = np.where(sym == 1, 2, 1)
    count[(sym == -1) & (ps * ps > norm_bound)] = 0
    p = np.repeat(ps, count)
    norms = np.where(np.repeat(sym, count) == -1, p * p, p)
    order = np.argsort(norms, kind="stable")
    return p[order], norms[order]


# ---------------------------------------------------------------------------
# Characters


@dataclass(frozen=True)
class HeckeCharacter:
    """A character of the supported family: a value table mod `modulus`,
    which is (1,) mod 1 for the principal character of `fld` and otherwise
    a primitive Dirichlet character over Q (zero off the units)."""

    fld: NumberField
    modulus: int = 1
    values: tuple[complex, ...] = (1,)   # indexed by residue 0..modulus-1
    label: str = "trivial"

    @property
    def is_principal(self) -> bool:
        return self.modulus == 1

    @property
    def epsilon(self) -> int:
        """1 when L(s, chi) has the pole at s = 1 (principal), else 0."""
        return 1 if self.is_principal else 0

    @property
    def conductor_norm(self) -> int:
        return self.modulus

    def value_at_int(self, n: int) -> complex:
        if math.gcd(n, self.modulus) != 1:
            return 0.0
        return self.values[n % self.modulus]

    @property
    def parity(self) -> int:
        """0 for even characters, 1 for odd."""
        v = self.value_at_int(self.modulus - 1)  # chi(-1)
        if abs(v - 1.0) < 1e-12:
            return 0
        if abs(v + 1.0) < 1e-12:
            return 1
        raise UnsupportedCharacter("character table has chi(-1) != +-1")

    @property
    def is_self_dual(self) -> bool:
        return all(abs(v.imag) < 1e-12 for v in self.values)

    def conjugate(self) -> "HeckeCharacter":
        vals = tuple(v.conjugate() for v in self.values)
        return HeckeCharacter(self.fld, self.modulus, vals,
                              self.label + "~" if not self.is_self_dual else self.label)

    def arch_places(self) -> tuple[ArchPlace, ...]:
        """Gamma factor data: one place per archimedean place of the field;
        a real place carries weight m = parity."""
        return (ArchPlace(1, self.parity),) * self.fld.r1 + \
            (ArchPlace(2),) * self.fld.r2

    def __str__(self):
        return self.label


def trivial_character(fld: NumberField) -> HeckeCharacter:
    return HeckeCharacter(fld)


def _primitive_character(q: int, values: tuple[complex, ...],
                         label: str) -> HeckeCharacter:
    """The Dirichlet character of a multiplicative table mod q, which must
    be primitive: its conductor, the smallest f | q with chi(a) = chi(1)
    for every a = 1 (mod f) coprime to q, is q itself."""
    cond = next(f for f in range(1, q + 1) if q % f == 0 and all(
        abs(values[a] - values[1]) <= 1e-10
        for a in range(1, q, f) if math.gcd(a, q) == 1))
    if cond != q:
        raise UnsupportedCharacter(
            f"table mod {q} is induced from modulus {cond}; only primitive "
            "characters are supported")
    return HeckeCharacter(NumberField.rational(), q, values, label)


def kronecker_character(disc: int) -> HeckeCharacter:
    """The real primitive character a -> (disc|a) of a fundamental discriminant."""
    q = abs(disc)
    if disc == 0 or disc % 4 not in (0, 1):
        raise DomainError("discriminant must be nonzero and 0 or 1 mod 4")
    if q == 1:
        raise UnsupportedCharacter("use the trivial character for modulus 1")
    # for disc = 0, 1 (mod 4), a -> (disc|a) is a character mod q, zero
    # exactly off the units, so its table needs no multiplicativity check
    values = (0j,) + tuple(complex(kronecker_symbol(disc, a))
                           for a in range(1, q))
    return _primitive_character(q, values, f"kronecker({disc})")


# --- character group enumeration (for CLI selection by index) --------------


def _unit_group_generators(q: int) -> list[tuple[int, int]]:
    """Generators (g, order) of (Z/q)^*: per odd prime power its smallest
    primitive root, 3 mod 4, or -1 and 5 mod 2^e for e >= 3, each lifted to
    g mod p^k and 1 mod q/p^k."""
    gens = []
    for p, pk in _prime_powers(q):
        if pk == 2:
            continue
        if pk == 4:
            local = [(3, 2)]
        elif p == 2:
            local = [(pk - 1, 2), (5, pk // 4)]
        else:
            phi = pk - pk // p
            g = next(g for g in range(2, pk) if g % p and all(
                pow(g, phi // l, pk) != 1 for l, _ in _prime_powers(phi)))
            local = [(g, phi)]
        rest = q // pk
        inv = pow(pk, -1, rest)
        gens += [((g + pk * ((1 - g) * inv % rest)) % q, o) for g, o in local]
    return gens


def dirichlet_character_by_index(q: int, index: int) -> HeckeCharacter:
    """The index-th character mod q in a fixed enumeration.

    Characters are enumerated by exponent tuples on the generators of
    (Z/q)^*, mixed-radix with the last generator fastest.  Index 0 is the
    principal character, which is rejected (use the trivial character).
    """
    gens = _unit_group_generators(q)
    orders = [o for _, o in gens]
    total = math.prod(orders)
    if not 0 <= index < total:
        raise DomainError(f"character index must be in [0, {total}) for q = {q}")
    if index == 0:
        raise UnsupportedCharacter(
            "index 0 is the principal character mod q; use the trivial character")
    exps = [index // math.prod(orders[i + 1:]) % o for i, o in enumerate(orders)]
    # walk the units as products of generator powers, adding up the phase
    # of each; the table is multiplicative by construction, and the tiny
    # parts of exp are rounded away
    phase = {1: 0.0}
    for (g, o), e in zip(gens, exps):
        phase = {a * pow(g, k, q) % q: ph + e * k / o
                 for a, ph in phase.items() for k in range(o)}
    vals = [0j] * q
    for a, ph in phase.items():
        v = cmath.exp(2j * math.pi * ph)
        vals[a] = complex(round(v.real, 15), round(v.imag, 15))
    return _primitive_character(q, tuple(vals), f"dirichlet:{q}:{index}")
