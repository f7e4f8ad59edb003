"""Number field invariants, prime ideal tables, character arithmetic."""
import cmath
import json
import math

import numpy as np
import pytest

from polydet import (
    DomainError,
    NumberField,
    ParseError,
    UnsupportedCharacter,
    dirichlet_character_by_index,
    dirichlet_character_from_values,
    kronecker_character,
    kronecker_symbol,
    load_character_file,
    trivial_character,
)
from polydet.fields_and_characters import _ideal_table, _primes
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


def test_character_by_index_out_of_range():
    with pytest.raises(DomainError):
        dirichlet_character_by_index(5, 4)


def test_character_file_round_trip(tmp_path):
    path = tmp_path / "chi.json"
    doc = {"modulus": 4, "values": {"1": 1.0, "3": -1.0}}
    path.write_text(json.dumps(doc))
    chi = load_character_file(str(path))
    ref = kronecker_character(-4)
    for n in range(8):
        assert chi.value_at_int(n) == ref.value_at_int(n)
    assert chi.modulus == 4 and chi.parity == 1


def test_character_file_complex_values(tmp_path):
    # quartic character mod 5 with chi(2) = i
    path = tmp_path / "chi5.json"
    doc = {"modulus": 5, "values": {"1": 1.0, "2": [0.0, 1.0],
                                    "3": [0.0, -1.0], "4": -1.0}}
    path.write_text(json.dumps(doc))
    chi = load_character_file(str(path))
    assert abs(chi.value_at_int(2) - 1j) < 1e-12
    assert not chi.is_self_dual
    conj = chi.conjugate()
    assert abs(conj.value_at_int(2) + 1j) < 1e-12


def test_character_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_character_file(str(bad))
    bad.write_text(json.dumps({"values": {}}))
    with pytest.raises(ParseError):
        load_character_file(str(bad))


def test_arch_places():
    q = NumberField.rational()
    assert trivial_character(q).arch_places() == \
        tuple([type(trivial_character(q).arch_places()[0])(1, 0.0, 0)])
    chi4 = kronecker_character(-4)
    (place,) = chi4.arch_places()
    assert (place.nv, place.m) == (1, 1)    # odd character carries weight 1
    qi = NumberField.quadratic(-1)
    (place,) = trivial_character(qi).arch_places()
    assert (place.nv, place.m) == (2, 0)    # one complex place
    rt5 = NumberField.quadratic(5)
    places = trivial_character(rt5).arch_places()
    assert [p.nv for p in places] == [1, 1]
