"""Number field invariants, prime ideal tables, character arithmetic."""
import cmath
import math
import time

import numpy as np
import pytest

from polydet import (
    ArchPlace,
    DomainError,
    NumberField,
    UnsupportedCharacter,
    dirichlet_character_by_index,
    dirichlet_character_from_values,
    kronecker_character,
    kronecker_symbol,
    trivial_character,
)
from polydet.fields_and_characters import (_ideal_table, _primes,
                                           _unit_group_generators)
from polydet.l_functions import _ideal_arrays


def test_field_invariants():
    q = NumberField.rational()
    assert (q.degree, q.discriminant, q.r1, q.r2) == (1, 1, 1, 0)
    qi = NumberField.quadratic(-1)
    assert (qi.degree, qi.discriminant, qi.r1, qi.r2) == (2, -4, 0, 1)
    rt5 = NumberField.quadratic(5)
    assert (rt5.degree, rt5.discriminant, rt5.r1, rt5.r2) == (2, 5, 2, 0)


def test_quadratic_field_rejects_bad_d():
    for d in (0, 1, 4, 12, -8):
        with pytest.raises(DomainError):
            NumberField.quadratic(d)


def test_primes_up_to():
    assert _primes(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_kronecker_symbol_quadratic_residues():
    # (-4|p) = +1 iff p = 1 mod 4
    for p in (5, 13, 17):
        assert kronecker_symbol(-4, p) == 1
    for p in (3, 7, 11, 19):
        assert kronecker_symbol(-4, p) == -1
    assert kronecker_symbol(-4, 2) == 0
    # (5|p) = +1 iff p = +-1 mod 5
    assert kronecker_symbol(5, 11) == 1
    assert kronecker_symbol(5, 19) == 1
    assert kronecker_symbol(5, 3) == -1
    assert kronecker_symbol(5, 7) == -1
    assert kronecker_symbol(5, 5) == 0


def _factor(n):
    """Prime factors of n with multiplicity, by trial division."""
    out, f = [], 2
    while n > 1:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    return out


def _euler_criterion(d, p):
    """(d|p) for prime p: d mod 8 at p = 2, d^((p-1)/2) mod p otherwise."""
    if p == 2:
        return 0 if d % 2 == 0 else 1 if d % 8 in (1, 7) else -1
    e = pow(d, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


def test_kronecker_symbol_is_product_over_prime_factors():
    for n in range(1, 301):
        fs = _factor(n)
        for d in range(-100, 101):
            want = math.prod(_euler_criterion(d, p) for p in fs)
            assert kronecker_symbol(d, n) == want, (d, n)
    for n in (0, -3):
        with pytest.raises(DomainError):
            kronecker_symbol(5, n)


def test_prime_ideal_norms_real_quadratic():
    # in Q(sqrt(5)): 2, 3 inert (norms 4, 9), 5 ramified (norm 5),
    # 11 splits into two ideals of norm 11
    rt5 = NumberField.quadratic(5)
    ps, norms = _ideal_table(rt5, 12)
    assert norms.tolist() == [4, 5, 9, 11, 11]
    assert ps.tolist() == [2, 5, 3, 11, 11]


def test_prime_ideal_norms_gaussian():
    # in Q(i): 2 ramified (norm 2), 5 = (2+i)(2-i) (two norms 5),
    # 3, 7 inert (norms 9, 49), 13 splits
    qi = NumberField.quadratic(-1)
    ps, norms = _ideal_table(qi, 13)
    assert norms.tolist() == [2, 5, 5, 9, 13, 13]
    assert ps[norms == 13].tolist() == [13, 13]   # the split pair above 13


def test_split_pattern_matches_kronecker():
    qi = NumberField.quadratic(-1)
    ps, norms = _ideal_table(qi, 100)
    by_p: dict[int, list] = {}
    for p, norm in zip(ps.tolist(), norms.tolist()):
        by_p.setdefault(p, []).append(norm)
    for p, ns in by_p.items():
        symbol = kronecker_symbol(-4, p)
        if symbol == 1:
            assert ns == [p, p]
        elif symbol == -1:
            assert ns == [p * p]
        else:
            assert ns == [p]


def _brute_force_ideals(fld, chi, bound):
    """(norm, chi value) of every prime ideal of norm <= bound, sorted by
    norm: primes by trial division, splitting by kronecker_symbol and
    character values by value_at_int, one prime at a time."""
    out = []
    for p in range(2, bound + 1):
        if any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
            continue
        v = chi.value_at_int(p)
        if fld.is_rational:
            out.append((p, v))
            continue
        symbol = kronecker_symbol(fld.discriminant, p)
        if symbol == 1:
            out += [(p, v), (p, v)]
        elif symbol == 0:
            out.append((p, v))
        elif p * p <= bound:
            out.append((p * p, v))
    out.sort(key=lambda e: e[0])
    return out


def _trivial_pair(fld):
    return fld, trivial_character(fld)


_Q = NumberField.rational()


@pytest.mark.parametrize("fld,chi", [
    _trivial_pair(_Q),
    _trivial_pair(NumberField.quadratic(-1)),
    _trivial_pair(NumberField.quadratic(5)),
    _trivial_pair(NumberField.quadratic(2)),
    _trivial_pair(NumberField.quadratic(-163)),
    (_Q, kronecker_character(-23)),
    (_Q, dirichlet_character_by_index(5, 1)),
], ids=["Q", "quad:-1", "quad:5", "quad:2", "quad:-163", "kronecker:-23",
        "dirichlet:5:1"])
def test_ideal_arrays_match_brute_force(fld, chi):
    norms, logn, chiv = _ideal_arrays(fld, chi, 5000)
    want = _brute_force_ideals(fld, chi, 5000)
    assert norms.tolist() == [float(n) for n, _ in want]
    assert chiv.tolist() == [complex(v) for _, v in want]
    assert np.array_equal(logn, np.log(norms))
    assert _ideal_table(fld, 5000)[1].tolist() == [n for n, _ in want]


def test_trivial_character_basics():
    q = NumberField.rational()
    triv = trivial_character(q)
    assert triv.is_principal and triv.epsilon == 1
    assert triv.conductor_norm == 1
    assert triv.parity == 0 and triv.is_self_dual
    assert triv.value_at_int(17) == 1.0


def test_kronecker_character_chi4():
    chi = kronecker_character(-4)
    assert not chi.is_principal and chi.epsilon == 0
    assert chi.conductor_norm == 4
    assert chi.parity == 1          # odd character
    assert chi.is_self_dual
    want = {1: 1.0, 3: -1.0}
    for n in range(1, 12):
        got = chi.value_at_int(n)
        assert got == (want.get(n % 4, 0.0))


def test_kronecker_character_rejects_non_discriminants():
    for d in (0, 2, 3, -1, -5):
        with pytest.raises(DomainError):
            kronecker_character(d)
    with pytest.raises(UnsupportedCharacter):
        kronecker_character(1)
    with pytest.raises(UnsupportedCharacter):
        kronecker_character(-16)    # induced from chi_-4


def test_kronecker_character_builds_its_table_directly():
    # one Kronecker symbol per residue plus the primitivity test, with no
    # pairwise multiplicativity check, which is quadratic in the modulus
    t0 = time.perf_counter()
    chi = kronecker_character(-4003)
    assert time.perf_counter() - t0 < 0.2
    assert chi.modulus == 4003 and chi.parity == 1
    assert chi.value_at_int(2) == kronecker_symbol(-4003, 2)


def test_kronecker_character_chi5_is_legendre():
    chi = kronecker_character(5)
    assert chi.parity == 0          # even character
    for p in _primes(40).tolist():
        assert chi.value_at_int(p) == float(kronecker_symbol(5, p))


def test_character_multiplicativity_enforced():
    with pytest.raises(DomainError):
        dirichlet_character_from_values(4, {1: 1.0, 3: 2.0})


def test_imprimitive_character_rejected():
    # the character mod 8 induced from chi mod 4 is not primitive
    with pytest.raises(UnsupportedCharacter):
        dirichlet_character_from_values(
            8, {1: 1.0, 3: -1.0, 5: 1.0, 7: -1.0})


def test_character_group_enumeration():
    # phi(5) = 4 characters mod 5; index 0 is excluded (principal)
    chis = [dirichlet_character_by_index(5, k) for k in range(1, 4)]
    orders = set()
    for chi in chis:
        vals = [chi.value_at_int(n) for n in (1, 2, 3, 4)]
        assert abs(vals[0] - 1.0) < 1e-12
        # characters take 4th roots of unity values mod 5
        assert all(abs(abs(v) - 1.0) < 1e-12 for v in vals)
        order = 1
        g = chi.value_at_int(2)   # 2 generates (Z/5)*
        acc = g
        while abs(acc - 1.0) > 1e-9:
            acc *= g
            order += 1
        orders.add(order)
    assert orders == {2, 4}         # one quadratic, two quartic


# (generator, order) of each cyclic factor of (Z/q)^*: the smallest
# primitive root of an odd prime power, 3 mod 4, or -1 and 5 mod 2^e, each
# lifted to 1 mod the rest of q
UNIT_GENERATORS = {
    8: [(7, 2), (5, 2)], 12: [(7, 2), (5, 2)], 15: [(11, 2), (7, 4)],
    16: [(15, 2), (5, 4)], 20: [(11, 2), (17, 4)],
    24: [(7, 2), (13, 2), (17, 2)], 35: [(22, 4), (31, 6)],
    63: [(29, 6), (10, 6)], 100: [(51, 2), (77, 20)],
}


def test_unit_group_generators_pinned():
    for q, gens in UNIT_GENERATORS.items():
        assert _unit_group_generators(q) == gens


def _primitive_count(q):
    """Number of primitive characters mod q: p - 2 at p^1 and
    p^e (1 - 1/p)^2 at p^e, e >= 2, multiplied over q's prime powers."""
    fs = _factor(q)
    return math.prod(p - 2 if fs.count(p) == 1
                     else p ** (fs.count(p) - 2) * (p - 1) ** 2
                     for p in set(fs))


def test_character_enumeration_is_the_primitive_characters():
    for q in range(2, 201):
        units = [a for a in range(1, q) if math.gcd(a, q) == 1]
        total = math.prod(o for _, o in _unit_group_generators(q))
        assert total == len(units)
        # a character induced from q/p is trivial on the units = 1 mod q/p
        near_one = [[a for a in units if (a - 1) % (q // p) == 0]
                    for p in set(_factor(q))]
        seen, returned = set(), 0
        for index in range(1, total):
            try:
                chi = dirichlet_character_by_index(q, index)
            except UnsupportedCharacter:
                continue
            returned += 1
            vals = np.array(chi.values)
            for sub in near_one:
                assert np.abs(vals[sub] - 1.0).max() > 1e-9, (q, index)
            seen.add(np.round(vals[units], 9).tobytes())
        assert returned == len(seen) == _primitive_count(q), q


def test_character_by_index_out_of_range():
    with pytest.raises(DomainError):
        dirichlet_character_by_index(5, 4)


def test_value_table_mod_4_is_the_kronecker_character():
    chi = dirichlet_character_from_values(4, {1: 1, 3: -1})
    ref = kronecker_character(-4)
    for n in range(8):
        assert chi.value_at_int(n) == ref.value_at_int(n)
    assert chi.modulus == 4 and chi.parity == 1


def test_quartic_character_mod_5_and_its_conjugate():
    # index 1 sends the primitive root 2 to i
    chi = dirichlet_character_by_index(5, 1)
    assert abs(chi.value_at_int(2) - 1j) < 1e-12
    assert not chi.is_self_dual
    conj = chi.conjugate()
    assert abs(conj.value_at_int(2) + 1j) < 1e-12


def test_arch_places():
    q = NumberField.rational()
    assert trivial_character(q).arch_places() == (ArchPlace(1, 0),)
    chi4 = kronecker_character(-4)
    (place,) = chi4.arch_places()
    assert (place.nv, place.m) == (1, 1)    # odd character carries weight 1
    qi = NumberField.quadratic(-1)
    (place,) = trivial_character(qi).arch_places()
    assert (place.nv, place.m) == (2, 0)    # one complex place
    rt5 = NumberField.quadratic(5)
    places = trivial_character(rt5).arch_places()
    assert [p.nv for p in places] == [1, 1]
