"""Zero tables: parsing, scanning, density estimates, tail bounds."""
import math
import time

import numpy as np
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
    completed_lambda,
    find_zeros,
    kronecker_character,
    load_zeros,
    loads_zeros,
    save_zeros,
    scan_ordinates,
    trivial_character,
    truncation_tail_estimate,
    zero_count_estimate,
)
from polydet.zero_data import _BISECT_TOL, _SCAN_STEP, _illinois

Q = NumberField.rational()
TRIV = trivial_character(Q)
CHI4 = kronecker_character(-4)
QI = NumberField.quadratic(-1)

# Ordinates from mpmath 1.3 at 30 digits:
#   mp.mp.dps = 30
#   ZETA_10 = [mp.zetazero(n).imag for n in range(1, 11)]
#   lam = lambda t: mp.re((4 / mp.pi) ** ((0.5 + 1j * t) / 2)
#                         * mp.gamma((1.5 + 1j * t) / 2)
#                         * mp.dirichlet(0.5 + 1j * t, [0, 1, 0, -1]))
#   CHI4_123 = [mp.findroot(lam, g) for g in (6.02, 10.24, 12.99)]
ZETA_10 = (14.134725141734694, 21.022039638771555, 25.010857580145689,
           30.424876125859513, 32.935061587739190, 37.586178158825671,
           40.918719012147495, 43.327073280915000, 48.005150881167160,
           49.773832477672302)
CHI4_123 = (6.0209489046975967, 10.243770304166555, 12.988098012312423)


def test_builtin_table_first_three():
    tab = builtin_zeta_zeros()
    assert len(tab) >= 100
    for got, want in zip(tab.ordinates[:3], ZETA_10):
        assert abs(got - want) < 1e-9


def test_builtin_table_matches_mpmath():
    # the bundled table holds mpmath's ordinates to 12 decimals
    tab = builtin_zeta_zeros()
    for got, want in zip(tab.ordinates[:10], ZETA_10, strict=True):
        assert abs(got - want) <= 1e-12
    assert tab.completeness_height == tab.ordinates[-1]


def test_builtin_table_monotone_and_complete():
    tab = builtin_zeta_zeros()
    assert all(a < b for a, b in zip(tab.ordinates, tab.ordinates[1:]))
    assert tab.completeness_height >= tab.ordinates[-1]
    assert all(m == 1 for m in tab.multiplicities)


def test_scan_reproduces_published_zeta_ordinates():
    tab = find_zeros(Q, TRIV, 50.0)
    assert len(tab) == 10
    for got, want in zip(tab.ordinates, ZETA_10):
        assert abs(got - want) < _BISECT_TOL


def test_scan_chi4_ordinates():
    tab = find_zeros(Q, CHI4, 14.0)
    assert len(tab) == 3
    for got, want in zip(tab.ordinates, CHI4_123):
        assert abs(got - want) < _BISECT_TOL


def test_scan_ordinates_lie_in_narrow_sign_changes():
    # every ordinate sits in a sign-change bracket at most 1e-9 wide
    got = np.array(scan_ordinates(QI, trivial_character(QI), 40.0))
    lam = completed_lambda(QI, trivial_character(QI),
                           0.5 + 1j * np.concatenate((got - _BISECT_TOL,
                                                      got + _BISECT_TOL)))
    below, above = np.split(np.sign(lam.real), 2)
    assert np.all(below == -above) and np.all(below != 0)


def test_dedekind_zeros_factorize():
    # zeros of zeta_{Q(i)} = zeros of zeta union zeros of L(chi_-4)
    tab_qi = find_zeros(QI, trivial_character(QI), 15.0)
    merged = sorted(find_zeros(Q, TRIV, 15.0).ordinates
                    + find_zeros(Q, CHI4, 15.0).ordinates)
    assert len(tab_qi) == len(merged)
    for a, b in zip(tab_qi.ordinates, merged):
        assert abs(a - b) < _BISECT_TOL


def test_dedekind_scan_high_on_the_line():
    # |Lambda| of Q(i) is ~1e-180 here, so a product of two grid values
    # underflows to zero; comparing signs still sees every sign change
    qi = scan_ordinates(QI, trivial_character(QI), 270.0)
    merged = sorted(scan_ordinates(Q, TRIV, 270.0)
                    + scan_ordinates(Q, CHI4, 270.0))
    qi = [g for g in qi if g > 230.0]
    merged = [g for g in merged if g > 230.0]
    assert len(qi) == len(merged) == 56
    for a, b in zip(qi, merged):
        assert abs(a - b) < _BISECT_TOL


def test_scan_raises_below_the_normal_range():
    # Lambda of Q(i) leaves the normal double range near t = 459 and
    # underflows to 0.0 near 470; the top of the grid is checked first
    start = time.perf_counter()
    with pytest.raises(DomainError, match="normal double range near t = 4"):
        scan_ordinates(QI, trivial_character(QI), 500.0)
    assert time.perf_counter() - start < 1.0


def _refine_on_grid(g, t):
    """_illinois on the sign changes of g over the grid t; also returns the
    sizes of its calls of g."""
    v = g(t)
    sgn = np.sign(v)
    i = np.flatnonzero((sgn[:-1] != 0) & (sgn[:-1] == -sgn[1:]))
    calls = []

    def counted(x):
        calls.append(x.size)
        return g(x)
    return _illinois(counted, t[i], t[i + 1], v[i], v[i + 1]), calls


def _sine(t):
    """Simple zeros at k pi / 7, of varying slopes."""
    return np.sin(7.0 * t) * (1.0 + 0.3 * t)


def test_illinois_flat_zero_within_cap():
    # regula falsi alone stalls at a zero of order 9 (about 190 steps);
    # the bisection safeguard keeps it within 2 log2(step / tol) + 5
    cap = 2 * math.ceil(math.log2(_SCAN_STEP / _BISECT_TOL)) + 5
    for c in (0.0123, 0.3141, 0.04999):
        lo = math.floor(c / _SCAN_STEP) * _SCAN_STEP
        got, calls = _refine_on_grid(lambda t: (t - c) ** 9,
                                     np.array([lo, lo + _SCAN_STEP]))
        assert len(calls) <= cap
        assert abs(got[0] - c) <= _BISECT_TOL


def test_illinois_few_evaluations():
    # superlinear steps: ~5.5 evaluations per bracket on Q(i) below 40,
    # where bisection takes 26 (13 lockstep calls without the Illinois
    # weights, 7 without the clip on the sine)
    def lam(t):
        return completed_lambda(QI, trivial_character(QI), 0.5 + 1j * t).real
    got, calls = _refine_on_grid(lam, np.arange(0.0, 40.0, _SCAN_STEP))
    assert sum(calls) <= 6 * len(got) and len(calls) <= 8
    _, calls = _refine_on_grid(_sine, np.arange(0.02, 6.0, _SCAN_STEP))
    assert len(calls) <= 6


def test_illinois_lockstep_and_scale_free():
    # the 13 zeros of _sine below 6, one bracket each, all refined in
    # lockstep; scaled by 1e-200 the end-value products underflow, but
    # the signs and ratios the refiner reads do not
    results = []
    for scale in (1.0, 1e-200):
        got, calls = _refine_on_grid(lambda t: scale * _sine(t),
                                     np.arange(0.02, 6.0, _SCAN_STEP))
        assert calls[0] == len(got) == 13
        # the interpolant of a final bracket, not its midpoint
        assert np.all(np.abs(got - np.pi * np.arange(1, 14) / 7.0) <= 1e-12)
        results.append(got)
    assert np.allclose(*results, rtol=0.0, atol=1e-13)


def test_find_zeros_uncapped_matches_scan():
    tab = find_zeros(Q, TRIV, 80.0)
    assert tab.ordinates == scan_ordinates(Q, TRIV, 80.0)
    assert len(tab) == 21   # N(80) for zeta


def test_find_zeros_raises_above_normal_range():
    # |Lambda| of Q(i) leaves the normal double range near t = 459
    t0 = time.perf_counter()
    with pytest.raises(DomainError):
        find_zeros(QI, trivial_character(QI), 500.0)
    assert time.perf_counter() - t0 < 1.0
    for height in (math.inf, math.nan):
        with pytest.raises(DomainError):
            find_zeros(Q, TRIV, height)


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
