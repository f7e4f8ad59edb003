"""Number fields (rational and quadratic), prime ideal tables, and the
supported family of characters: the trivial (class) character over any
supported field and Dirichlet characters over the rationals.

Prime ideals exist only as numpy arrays: `_ideal_table` gives the rational
prime below and the norm of every prime ideal up to a bound, built from one
cached sieve (`_primes`).  In a quadratic field the splitting of p is the
Kronecker symbol (d_K|p), read once per residue class of p mod |d_K|; no
general ideal arithmetic is attempted.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParseError, UnsupportedCharacter

__all__ = [
    "NumberField",
    "ArchPlace",
    "HeckeCharacter",
    "kronecker_symbol",
    "trivial_character",
    "dirichlet_character_from_values",
    "kronecker_character",
    "dirichlet_character_by_index",
    "load_character_file",
]


# ---------------------------------------------------------------------------
# Fields


def _is_squarefree(d: int) -> bool:
    n = abs(d)
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


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
        if not _is_squarefree(d):
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
    """Archimedean place data entering a gamma factor: local degree N_v,
    frequency parameter phi_v, and integer weight m_v."""

    nv: int
    phi: float = 0.0
    m: int = 0


# ---------------------------------------------------------------------------
# Kronecker symbol and primes


def kronecker_symbol(d: int, p: int) -> int:
    """Kronecker symbol (d|p) for p prime (including p = 2)."""
    if p < 2:
        raise DomainError("p must be a prime >= 2")
    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 in (1, 7) else -1
    r = d % p
    if r == 0:
        return 0
    e = pow(r, (p - 1) // 2, p)
    return 1 if e == 1 else -1


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
    """A character of the supported family.

    kind "trivial": the principal class character of its field.
    kind "dirichlet": a primitive Dirichlet character over Q given by a
    value table on residues coprime to the modulus.
    """

    fld: NumberField
    kind: str
    modulus: int = 1
    values: tuple[complex, ...] = ()   # indexed by residue 0..modulus-1
    label: str = "trivial"

    @property
    def is_principal(self) -> bool:
        return self.kind == "trivial"

    @property
    def epsilon(self) -> int:
        """1 when L(s, chi) has the pole at s = 1 (principal), else 0."""
        return 1 if self.is_principal else 0

    @property
    def conductor_norm(self) -> int:
        return 1 if self.kind == "trivial" else self.modulus

    def value_at_int(self, n: int) -> complex:
        if self.kind == "trivial":
            return 1.0
        if math.gcd(n, self.modulus) != 1:
            return 0.0
        return self.values[n % self.modulus]

    @property
    def parity(self) -> int:
        """0 for even characters, 1 for odd."""
        if self.kind == "trivial":
            return 0
        v = self.value_at_int(self.modulus - 1)  # chi(-1)
        if abs(v - 1.0) < 1e-12:
            return 0
        if abs(v + 1.0) < 1e-12:
            return 1
        raise UnsupportedCharacter("character table has chi(-1) != +-1")

    @property
    def is_self_dual(self) -> bool:
        if self.kind == "trivial":
            return True
        return all(abs(v.imag) < 1e-12 for v in self.values)

    def conjugate(self) -> "HeckeCharacter":
        if self.kind == "trivial":
            return self
        vals = tuple(v.conjugate() for v in self.values)
        return HeckeCharacter(self.fld, self.kind, self.modulus, vals,
                              self.label + "~" if not self.is_self_dual else self.label)

    def arch_places(self) -> tuple[ArchPlace, ...]:
        """Gamma factor data: one place per archimedean place of the field.

        For Dirichlet characters the real place carries weight m = parity.
        """
        if self.kind == "dirichlet":
            return (ArchPlace(1, 0.0, self.parity),)
        places = [ArchPlace(1, 0.0, 0)] * self.fld.r1 + \
                 [ArchPlace(2, 0.0, 0)] * self.fld.r2
        return tuple(places)

    def __str__(self):
        return self.label


def trivial_character(fld: NumberField) -> HeckeCharacter:
    return HeckeCharacter(fld, "trivial", 1, (), "trivial")


def _conductor_of_table(q: int, values: tuple[complex, ...]) -> int:
    """Smallest induced modulus of a character table mod q."""
    for f in range(1, q + 1):
        if q % f != 0:
            continue
        ok = True
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            for b in range(1, q):
                if math.gcd(b, q) != 1:
                    continue
                if (a - b) % f == 0 and abs(values[a] - values[b]) > 1e-10:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return f
    return q


def dirichlet_character_from_values(q: int, table: dict[int, complex],
                                    label: str | None = None) -> HeckeCharacter:
    """Build a Dirichlet character over Q from values on residues coprime to q."""
    if q < 1:
        raise DomainError("modulus must be positive")
    vals = [0j] * q
    for a in range(q):
        if math.gcd(a, q) == 1:
            if a % q not in {k % q for k in table}:
                raise DomainError(f"missing character value at residue {a} mod {q}")
    for a, v in table.items():
        if math.gcd(a, q) != 1:
            raise DomainError(f"residue {a} is not coprime to {q}")
        vals[a % q] = complex(v)
    vals_t = tuple(vals)
    # multiplicativity check on the table
    for a in range(1, q):
        if math.gcd(a, q) != 1:
            continue
        for b in range(a, q):
            if math.gcd(b, q) != 1:
                continue
            if abs(vals_t[(a * b) % q] - vals_t[a] * vals_t[b]) > 1e-10:
                raise DomainError(f"value table is not multiplicative at ({a},{b})")
    if q == 1:
        raise UnsupportedCharacter("use the trivial character for modulus 1")
    cond = _conductor_of_table(q, vals_t)
    if cond != q:
        raise UnsupportedCharacter(
            f"table mod {q} is induced from modulus {cond}; only primitive "
            "characters are supported")
    return HeckeCharacter(NumberField.rational(), "dirichlet", q, vals_t,
                          label or f"dirichlet mod {q}")


def kronecker_character(disc: int) -> HeckeCharacter:
    """The real primitive character a -> (disc|a) of a fundamental discriminant."""
    q = abs(disc)
    if disc % 4 not in (0, 1):
        raise DomainError("discriminant must be 0 or 1 mod 4")
    table: dict[int, complex] = {}
    for a in range(1, q + 1):
        if math.gcd(a, q) != 1:
            continue
        table[a % q] = float(_kronecker_general(disc, a))
    return dirichlet_character_from_values(q, table, label=f"kronecker({disc})")


def _kronecker_general(d: int, n: int) -> int:
    """Kronecker symbol (d|n) for positive n via prime factorization of n."""
    if n == 1:
        return 1
    out = 1
    m = n
    f = 2
    while f * f <= m:
        while m % f == 0:
            out *= kronecker_symbol(d, f)
            m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out *= kronecker_symbol(d, m)
    return out


# --- character group enumeration (for CLI selection by index) --------------


def _unit_group_generators(q: int) -> list[tuple[int, int]]:
    """Generators (g, order) of (Z/q)^* via CRT on prime power factors."""
    def factor(n):
        fs = []
        f = 2
        while f * f <= n:
            if n % f == 0:
                e = 0
                while n % f == 0:
                    n //= f
                    e += 1
                fs.append((f, e))
            f += 1
        if n > 1:
            fs.append((n, 1))
        return fs

    def primitive_root(pk, p):
        phi = pk - pk // p
        def ordmod(g):
            o, x = 1, g % pk
            while x != 1:
                x = x * g % pk
                o += 1
            return o
        for g in range(2, pk):
            if math.gcd(g, pk) == 1 and ordmod(g) == phi:
                return g, phi
        raise RuntimeError("no primitive root found")

    gens = []
    for p, e in factor(q):
        pk = p ** e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                gens.append((_crt_lift(3, pk, q), 2))
            else:
                gens.append((_crt_lift(pk - 1, pk, q), 2))
                gens.append((_crt_lift(5, pk, q), pk // 4))
        else:
            g, order = primitive_root(pk, p)
            gens.append((_crt_lift(g, pk, q), order))
    return gens


def _crt_lift(g: int, pk: int, q: int) -> int:
    """Lift g mod pk to x mod q with x = g mod pk and x = 1 mod q/pk."""
    m = q // pk
    if m == 1:
        return g % q
    inv = pow(pk, -1, m)
    # x = g + pk * t with t = (1 - g) * inv mod m
    t = ((1 - g) * inv) % m
    return (g + pk * t) % q


def dirichlet_character_by_index(q: int, index: int) -> HeckeCharacter:
    """The index-th character mod q in a fixed enumeration.

    Characters are enumerated by exponent tuples on the generators of
    (Z/q)^*, mixed-radix with the last generator fastest.  Index 0 is the
    principal character, which is rejected (use the trivial character).
    """
    gens = _unit_group_generators(q)
    orders = [o for _, o in gens]
    total = math.prod(orders) if orders else 1
    if not 0 <= index < total:
        raise DomainError(f"character index must be in [0, {total}) for q = {q}")
    if index == 0:
        raise UnsupportedCharacter(
            "index 0 is the principal character mod q; use the trivial character")
    exps = []
    rem = index
    for o in reversed(orders):
        exps.append(rem % o)
        rem //= o
    exps.reverse()
    # discrete logs by brute force walk over the group
    vals: dict[int, complex] = {}
    # enumerate group elements as products of generator powers
    def rec(i, elem, phase):
        if i == len(gens):
            vals[elem] = cmath.exp(2j * math.pi * phase)
            return
        g, o = gens[i]
        cur = 1
        for k in range(o):
            rec(i + 1, (elem * cur) % q, phase + exps[i] * k / o)
            cur = (cur * g) % q
    rec(0, 1 % q, 0.0)
    table = {a: v for a, v in vals.items()}
    # tidy tiny imaginary parts from roots of unity
    clean = {a: complex(round(v.real, 15), round(v.imag, 15)) for a, v in table.items()}
    return dirichlet_character_from_values(q, clean, label=f"dirichlet:{q}:{index}")


def load_character_file(path: str) -> HeckeCharacter:
    """Read a character from a JSON file {"modulus": q, "values": {...}}.

    Values may be numbers or [re, im] pairs; keys are residues as strings.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON in character file: {e}") from e
    if not isinstance(doc, dict) or "modulus" not in doc or "values" not in doc:
        raise ParseError("character file needs 'modulus' and 'values' entries")
    q = int(doc["modulus"])
    table: dict[int, complex] = {}
    for key, v in doc["values"].items():
        try:
            a = int(key)
        except ValueError:
            raise ParseError(f"residue key {key!r} is not an integer")
        if isinstance(v, (list, tuple)):
            if len(v) != 2:
                raise ParseError(f"value for residue {key} must be [re, im]")
            table[a] = complex(float(v[0]), float(v[1]))
        else:
            table[a] = complex(float(v))
    return dirichlet_character_from_values(q, table, label=f"file:{path}")
