"""Zero tables: parsing, scanning, density estimates, tail bounds."""
import math

import pytest

from polydet import (
    DomainError,
    EmptyZeroTable,
    NonMonotoneError,
    NumberField,
    ParseError,
    UnsupportedCharacter,
    ZeroTable,
    builtin_zeta_zeros,
    find_zeros,
    kronecker_character,
    load_zeros,
    loads_zeros,
    save_zeros,
    trivial_character,
    truncation_tail_estimate,
    zero_count_estimate,
)

Q = NumberField.rational()
TRIV = trivial_character(Q)
CHI4 = kronecker_character(-4)

# published ordinates of the first three nontrivial zeta zeros
ZETA_123 = (14.134725141734694, 21.022039638771555, 25.010857580145688)

# first three ordinates of L(s, chi_-4), frozen from the scanner after
# cross-checks against the zero counting estimate and sign changes of the
# completed function
CHI4_123 = (6.020948904380, 10.243770303953, 12.988098012283)


def test_builtin_table_first_three():
    tab = builtin_zeta_zeros()
    assert len(tab) >= 100
    for got, want in zip(tab.ordinates[:3], ZETA_123):
        assert abs(got - want) < 1e-6


def test_builtin_table_monotone_and_complete():
    tab = builtin_zeta_zeros()
    assert all(a < b for a, b in zip(tab.ordinates, tab.ordinates[1:]))
    assert tab.completeness_height >= tab.ordinates[-1]
    assert all(m == 1 for m in tab.multiplicities)


def test_scan_reproduces_published_zeta_ordinates():
    tab = find_zeros(Q, TRIV, 26.0)
    assert len(tab) == 3
    for got, want in zip(tab.ordinates, ZETA_123):
        assert abs(got - want) < 1e-6


def test_scan_chi4_ordinates():
    tab = find_zeros(Q, CHI4, 14.0)
    assert len(tab) == 3
    for got, want in zip(tab.ordinates, CHI4_123):
        assert abs(got - want) < 1e-6


def test_dedekind_zeros_factorize():
    # zeros of zeta_{Q(i)} = zeros of zeta union zeros of L(chi_-4)
    qi = NumberField.quadratic(-1)
    tab_qi = find_zeros(qi, trivial_character(qi), 15.0)
    merged = sorted(find_zeros(Q, TRIV, 15.0).ordinates
                    + find_zeros(Q, CHI4, 15.0).ordinates)
    assert len(tab_qi) == len(merged)
    for a, b in zip(tab_qi.ordinates, merged):
        assert abs(a - b) < 1e-6


def test_scan_height_capped():
    with pytest.raises(DomainError):
        find_zeros(Q, TRIV, 80.0)


def test_scan_empty_range_raises():
    with pytest.raises(EmptyZeroTable):
        find_zeros(Q, CHI4, 5.0)   # no chi_-4 zeros below height 6


def test_zero_count_estimate_tracks_actual():
    tab = builtin_zeta_zeros()
    t = tab.completeness_height
    assert abs(zero_count_estimate(Q, TRIV, t) - len(tab)) < 3.0
    # the estimate grows with the conductor
    assert zero_count_estimate(Q, CHI4, 30.0) > zero_count_estimate(Q, TRIV, 30.0)


def test_zero_count_estimate_constant():
    # Riemann-von Mangoldt's constant on top of the main term: 7/8 for zeta,
    # 1/8 for chi_-4 (odd), 1 for Q(i) (pole, Gamma_R(s) Gamma_R(s + 1))
    qi = NumberField.quadratic(-1)
    t = 50.0 / (2.0 * math.pi)
    for fld, chi, q, const in ((Q, TRIV, 1, 7 / 8), (Q, CHI4, 4, 1 / 8),
                               (qi, trivial_character(qi), 4, 1.0)):
        main = t * (fld.degree * (math.log(t) - 1.0) + math.log(q))
        assert zero_count_estimate(fld, chi, 50.0) - main == \
            pytest.approx(const, abs=1e-12)
    for height in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            zero_count_estimate(Q, TRIV, height)


def test_parse_basic_and_height():
    text = "# comment\nheight: 30\n14.134725 1\n21.022040\n"
    tab = loads_zeros(text, "demo")
    assert tab.ordinates == (14.134725, 21.022040)
    # a claimed height beyond the last ordinate clamps down: the table only
    # certifies completeness as far as the zeros it actually holds
    assert tab.completeness_height == 21.022040
    assert tab.multiplicities == (1, 1)


def test_parse_defaults_height_to_last_ordinate():
    tab = loads_zeros("5.0\n7.5\n", "demo")
    assert tab.completeness_height == 7.5


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="height"):
        loads_zeros("height: abc\n10.0\n", "demo")
    with pytest.raises(ParseError, match="ordinate"):
        loads_zeros("10.0\nnot-a-number\n", "demo")
    with pytest.raises(NonMonotoneError, match="line 3"):
        loads_zeros("10.0\n12.0\n11.0\n", "demo")
    with pytest.raises(EmptyZeroTable):
        loads_zeros("# nothing here\n", "demo")
    with pytest.raises(ParseError):
        loads_zeros("10.0 1 extra-field\n", "demo")
    with pytest.raises(ParseError):
        loads_zeros("10.0 0\n", "demo")   # multiplicity must be >= 1


def test_table_validation():
    with pytest.raises(DomainError):
        ZeroTable("bad", (-1.0, 2.0), 5.0)
    with pytest.raises(NonMonotoneError):
        ZeroTable("bad", (2.0, 1.0), 5.0)
    # completeness clamps to the last ordinate
    tab = ZeroTable("clamp", (5.0, 9.0), 100.0)
    assert tab.completeness_height == 9.0


def test_truncated_table():
    tab = builtin_zeta_zeros()
    cut = tab.truncated(10)
    assert len(cut) == 10
    assert cut.completeness_height == cut.ordinates[-1]
    assert cut.ordinates == tab.ordinates[:10]


def test_round_trip_through_text(tmp_path):
    tab = builtin_zeta_zeros().truncated(20)
    path = tmp_path / "zeros.txt"
    save_zeros(tab, str(path))
    back = load_zeros(str(path))
    assert len(back) == 20
    for a, b in zip(back.ordinates, tab.ordinates):
        assert abs(a - b) < 1e-11
    assert abs(back.completeness_height - tab.completeness_height) < 1e-11


def test_tail_estimate_frozen_value():
    # frozen from the closed form: 4 (log q J0 + n (J1 + log1p(a/(2 pi A)) J0))
    # with A = (T - |Im z|)/(2 pi) at (s, z, T) = (3, 2, 100)
    got = truncation_tail_estimate(Q, TRIV, 3.0, 2.0, 100.0)
    assert abs(got - 2.579751e-2) < 1e-7


def test_tail_estimate_decreases_with_height():
    a = truncation_tail_estimate(Q, TRIV, 3.0, 2.0, 50.0)
    b = truncation_tail_estimate(Q, TRIV, 3.0, 2.0, 100.0)
    c = truncation_tail_estimate(Q, TRIV, 3.0, 2.0, 200.0)
    assert a > b > c > 0.0


def test_tail_estimate_domain_guards():
    with pytest.raises(DomainError):
        truncation_tail_estimate(Q, TRIV, 1.0, 2.0, 100.0)   # needs Re(s) > 1
    with pytest.raises(DomainError):
        truncation_tail_estimate(Q, TRIV, 3.0, 2.0 + 99.5j, 100.0)


def test_scan_rejects_non_self_dual():
    # a quartic character has zeros off the scanned component
    from polydet import dirichlet_character_by_index
    chi = dirichlet_character_by_index(5, 1)
    if not chi.is_self_dual:
        with pytest.raises(UnsupportedCharacter):
            find_zeros(Q, chi, 10.0)
