"""Zero tables: parsing, scanning, density estimates, tail bounds."""
import math
import os
import subprocess
import sys
import time

import mpmath as mp
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
from polydet import special_functions, zero_data
from polydet.zero_data import _BISECT_TOL, _newton_refine, _rosser_blocks

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
    # |Lambda| of Q(i) is ~1e-180 here; the scan reads its factors' Hardy
    # Z, whose modulus is |L|
    qi = scan_ordinates(QI, trivial_character(QI), 270.0)
    merged = sorted(scan_ordinates(Q, TRIV, 270.0)
                    + scan_ordinates(Q, CHI4, 270.0))
    qi = [g for g in qi if g > 230.0]
    merged = [g for g in merged if g > 230.0]
    assert len(qi) == len(merged) == 56
    for a, b in zip(qi, merged):
        assert abs(a - b) < _BISECT_TOL


# mpmath 1.3 at 30 digits:
#   mp.mp.dps = 30
#   ZETA_647_649 = [mp.zetazero(n).imag for n in (647, 648, 649)]
ZETA_647_649 = (997.51193475193922921, 998.82754713692963313,
                999.79157155741294046)


def test_scan_runs_past_the_old_lambda_ceiling():
    # Hardy's Z has modulus |L|, so the scan runs where Lambda itself left
    # the normal double range (near t = 918 for zeta); the top Gram block
    # closes past the height
    got = scan_ordinates(Q, TRIV, 1000.0)
    assert len(got) == 649
    for g, want in zip(got[-3:], ZETA_647_649, strict=True):
        assert abs(g - want) < _BISECT_TOL


def _refine_on_grid(g, t):
    """_newton_refine on the sign changes of g over the grid t, where g
    returns (g, g'); also returns the sizes of its calls of g."""
    v, dv = g(t)
    sgn = np.sign(v)
    i = np.flatnonzero((sgn[:-1] != 0) & (sgn[:-1] == -sgn[1:]))
    calls = []

    def counted(x):
        calls.append(x.size)
        return g(x)
    return _newton_refine(counted, t[i], t[i + 1], v[i], v[i + 1], dv[i],
                          dv[i + 1]), calls


def _sine(t):
    """Simple zeros at k pi / 7, of varying slopes, and the slope."""
    return (np.sin(7.0 * t) * (1.0 + 0.3 * t),
            7.0 * np.cos(7.0 * t) * (1.0 + 0.3 * t) + 0.3 * np.sin(7.0 * t))


# bracket width of the grids the refiner is tested on
_STEP = 0.05


def test_newton_refine_flat_zero_within_cap():
    # Newton steps crawl to a zero of order 9 (a factor 8/9 per step); the
    # bisection safeguard keeps it within 2 log2(width / tol) + 5
    cap = 2 * math.ceil(math.log2(_STEP / _BISECT_TOL)) + 5
    for c in (0.0123, 0.3141, 0.04999):
        lo = math.floor(c / _STEP) * _STEP
        got, calls = _refine_on_grid(
            lambda t: ((t - c) ** 9, 9.0 * (t - c) ** 8),
            np.array([lo, lo + _STEP]))
        assert len(calls) <= cap
        assert abs(got[0] - c) <= _BISECT_TOL


def test_newton_refine_few_evaluations(monkeypatch):
    # quadratic steps from the Hermite start: 3 lockstep calls on the
    # sine's 0.05 brackets (5 with the Illinois rule), and on Hardy's Z
    # of zeta and chi_-4 at Gram points 5.6 L-value points per ordinate,
    # the Gram samples and Rosser's resampling included (8.4-8.6 with the
    # Illinois rule)
    _, calls = _refine_on_grid(_sine, np.arange(0.02, 6.0, _STEP))
    assert len(calls) <= 4
    points = []
    hardy_z = zero_data._hardy_z

    def counted(chi, t):
        points.append(t.size)
        return hardy_z(chi, t)
    monkeypatch.setattr(zero_data, "_hardy_z", counted)
    for fld, chi, count in ((Q, TRIV, 79), (Q, CHI4, 122),
                            (QI, trivial_character(QI), 201)):
        points.clear()
        assert len(scan_ordinates(fld, chi, 200.0)) == count
        assert sum(points) <= 6.0 * count


def test_newton_refine_lockstep_and_scale_free():
    # the 13 zeros of _sine below 6, one bracket each, all refined in
    # lockstep; scaled by 1e-200 the end-value products underflow, but
    # the signs and ratios the refiner reads do not
    results = []
    for scale in (1.0, 1e-200):
        got, calls = _refine_on_grid(
            lambda t: tuple(scale * f for f in _sine(t)),
            np.arange(0.02, 6.0, _STEP))
        assert calls[0] == len(got) == 13
        # the interpolant of a final bracket, not its midpoint
        assert np.all(np.abs(got - np.pi * np.arange(1, 14) / 7.0) <= 1e-12)
        results.append(got)
    assert np.allclose(*results, rtol=0.0, atol=1e-13)


# Z' against mpmath 1.3 at 30 digits: mp.siegelz(t, derivative=1) for
# zeta; for chi_-4 a central difference of
#   Z(t) = re(exp(1j * (im(loggamma((1.5 + 1j * t) / 2))
#                      + t / 2 * log(4 / pi)))
#             * dirichlet(0.5 + 1j * t, [0, 1, 0, -1]))
def test_hardy_z_slope_against_mpmath():
    with mp.workdps(30):
        for t in (14.0, 50.3, 150.7):
            z, dz = zero_data._hardy_z(TRIV, np.array([t]))
            assert abs(z[0] - float(mp.siegelz(t))) <= 1e-12
            assert abs(dz[0] - float(mp.siegelz(t, derivative=1))) <= 1e-11

        def z_chi4(t):
            theta = (mp.im(mp.loggamma((1.5 + 1j * t) / 2))
                     + t / 2 * mp.log(4 / mp.pi))
            return mp.re(mp.exp(1j * theta)
                         * mp.dirichlet(0.5 + 1j * t, [0, 1, 0, -1]))
        h = mp.mpf("1e-10")
        for t in (6.5, 50.3, 150.7):
            z, dz = zero_data._hardy_z(CHI4, np.array([t]))
            want = (z_chi4(t + h) - z_chi4(t - h)) / (2 * h)
            assert abs(z[0] - float(z_chi4(t))) <= 1e-12
            assert abs(dz[0] - float(want)) <= 1e-11


def test_dtheta_against_digamma():
    # _theta returns theta(t) = Im log Gamma((1/2 + a + it)/2) + (t/2)
    # log(q/pi) and theta'(t) = Re psi((1/2 + a + it)/2) / 2 + log(q/pi) / 2
    # from one Stirling pass; Newton on theta at Gram points and Z' read
    # theta'
    t = np.array([1.0, 5.0, 20.0, 200.0])
    for chi, a, q in ((TRIV, 0, 1), (CHI4, 1, 4)):
        got, dgot = zero_data._theta(chi, t)
        for x, g, dg in zip(t, got, dgot):
            w = (0.5 + a + 1j * x) / 2
            want = mp.im(mp.loggamma(w)) + x / 2 * mp.log(q / mp.pi)
            dwant = (mp.re(mp.digamma(w)) + mp.log(q / mp.pi)) / 2
            assert abs(g - float(want)) <= 1e-14 * max(1.0, abs(g))
            assert abs(dg - float(dwant)) <= 1e-14


def test_gram_solve_converges_in_few_theta_passes(monkeypatch):
    # theta outside Hardy's Z: the samples (one call, and one more past
    # the height) and `_newton_refine`'s passes on theta - n pi, of which
    # three settle every Gram point, so 5 a scan.  Counted in
    # Stirling series: one gives theta and theta' together, so a theta
    # call and a Z call each build one (29 for chi_-4 to 200 when theta'
    # built its own)
    calls = {"stirling": 0, "theta": 0, "z": 0}
    stirling, theta, hardy_z = (zero_data._log_gamma_and_psi,
                                zero_data._theta, zero_data._hardy_z)

    def counted(key, f):
        def wrapped(*args):
            calls[key] += 1
            return f(*args)
        return wrapped
    monkeypatch.setattr(zero_data, "_log_gamma_and_psi",
                        counted("stirling", stirling))
    monkeypatch.setattr(zero_data, "_theta", counted("theta", theta))
    monkeypatch.setattr(zero_data, "_hardy_z", counted("z", hardy_z))
    for disc, height in ((None, 1000.0), (-4, 1000.0), (-3, 200.0),
                         (5, 200.0), (101, 200.0), (-163, 60.0)):
        chi = TRIV if disc is None else kronecker_character(disc)
        calls.update(theta=0, z=0)
        scan_ordinates(Q, chi, height)
        # each Z call makes one theta call
        assert calls["theta"] - calls["z"] <= 6
    calls["stirling"] = 0
    scan_ordinates(Q, CHI4, 200.0)
    assert calls["stirling"] <= 16


def test_spare_gram_samples_stop_at_the_tangent(monkeypatch):
    # theta is sampled to the height in one call; the second goes on only
    # to where theta's tangent at the last sample (theta is convex) reaches
    # the last spare Gram point: 15-32 samples at heights 200 and 1000,
    # where sampling as far again took 401 and 2001
    sizes = []
    theta = zero_data._theta

    def spy(chi, t):
        sizes.append(t.size)
        return theta(chi, t)
    monkeypatch.setattr(zero_data, "_theta", spy)
    for chi in (TRIV, CHI4, kronecker_character(8)):
        for height in (200.0, 1000.0):
            sizes.clear()
            zero_data._factor_ordinates(chi, height)
            assert sizes[0] == 2 * height + 1
            assert 10 <= sizes[1] <= 40


def _gram_samples(monkeypatch, chi, height):
    """The Gram points t and their indices n that the scan of chi to
    height hands `_rosser_blocks`, less the head sample t = 0."""
    seen = []
    rosser = zero_data._rosser_blocks

    def spy(g, t, n, z, dz):
        seen.append((t.copy(), n.copy()))
        return rosser(g, t, n, z, dz)
    monkeypatch.setattr(zero_data, "_rosser_blocks", spy)
    scan_ordinates(Q, chi, height)
    (t, n), = seen
    return t[1:], n[1:]


def test_gram_values_against_mpmath(monkeypatch):
    # zeta's Gram points are mpmath 1.3's, mp.grampoint(n) at the default
    # 15 digits, every one the scan to 200 samples (from g_-1, on theta's
    # increasing branch)
    t, n = _gram_samples(monkeypatch, TRIV, 200.0)
    assert n[0] == -1 and t.size >= 70
    for g, k in zip(t, n):
        assert abs(g - float(mp.grampoint(int(k)))) <= 1e-9
    # chi_-4's solve theta(g_n) = n pi, with theta from mpmath's loggamma
    # at 30 digits, as in test_dtheta_against_digamma
    t, n = _gram_samples(monkeypatch, CHI4, 200.0)
    assert n[0] >= 0 and t.size >= 100
    with mp.workdps(30):
        for g, k in zip(t, n):
            g = mp.mpf(float(g))
            theta = (mp.im(mp.loggamma((1.5 + 1j * g) / 2))
                     + g / 2 * mp.log(4 / mp.pi))
            assert abs(theta - int(k) * mp.pi) <= 1e-9


def test_find_zeros_uncapped_matches_scan():
    tab = find_zeros(Q, TRIV, 80.0)
    assert tab.ordinates == scan_ordinates(Q, TRIV, 80.0)
    assert len(tab) == 21   # N(80) for zeta


def test_find_zeros_high_on_the_line_and_bad_heights():
    # Lambda of Q(i) leaves the normal double range near t = 459; its
    # factors' Z do not, and the table is the union of theirs, as many as
    # Riemann-von Mangoldt's main term says
    t0 = time.perf_counter()
    tab = find_zeros(QI, trivial_character(QI), 1000.0)
    assert time.perf_counter() - t0 < 3.0
    assert tab.ordinates == tuple(sorted(scan_ordinates(Q, TRIV, 1000.0)
                                         + scan_ordinates(Q, CHI4, 1000.0)))
    assert abs(len(tab) - zero_count_estimate(QI, trivial_character(QI),
                                              1000.0)) < 1.0
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
    # no comparison fails on NaN, so non-finite numbers are refused by name
    for text, line in (("10.0\nnan\n", 2), ("10.0\n12.0\ninf 2\n", 3),
                       ("height: nan\n10.0\n", 1),
                       ("10.0\nheight: inf\n", 2)):
        with pytest.raises(ParseError, match=f"line {line}:") as err:
            loads_zeros(text, "demo")
        assert err.value.line == line


def test_table_validation():
    with pytest.raises(DomainError):
        ZeroTable("bad", (-1.0, 2.0), 5.0)
    with pytest.raises(NonMonotoneError):
        ZeroTable("bad", (2.0, 1.0), 5.0)
    for ordinates, height in (((2.0, math.nan), 5.0), ((2.0, math.inf), 5.0),
                              ((2.0, 3.0), math.nan), ((2.0, 3.0), math.inf)):
        with pytest.raises(DomainError):
            ZeroTable("bad", ordinates, height)
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


def test_q_scan_to_200_stays_within_its_kernel_term_budget(monkeypatch):
    # the direct-sum terms (shifts x nodes x split) the scans hand the
    # Euler-Maclaurin kernel: ~37k for Q and ~152k for Q(i) with Newton
    # steps on Hardy's Z, ~58k and ~229k with the Illinois rule, so a lost
    # split, a denser sampling or a slower refinement shows here without
    # timing noise
    terms = []
    core = special_functions._em_core

    def spy(s, z, N, *args):
        terms.append(len(s) * len(z) * N)
        return core(s, z, N, *args)

    monkeypatch.setattr(special_functions, "_em_core", spy)
    assert len(scan_ordinates(Q, TRIV, 200.0)) == 79
    assert sum(terms) <= 50_000
    terms.clear()
    assert len(scan_ordinates(QI, trivial_character(QI), 200.0)) == 201
    assert sum(terms) <= 200_000


@pytest.mark.parametrize("disc", [None, -3, -4, -7, -8, -11, 5, 8, 12, 13,
                                  -20, -23, 17, 21, 24, 101, -163, -199])
def test_gram_scan_matches_a_dense_sign_scan(disc):
    # the head block (0, g_n0] and Rosser's rule against the sign changes
    # of the completed function at step 0.01; the first zero of chi_-163,
    # at 0.203, lies below its first Gram point
    chi = TRIV if disc is None else kronecker_character(disc)
    t = np.arange(0.0, 60.0, 0.01)
    sgn = np.sign(completed_lambda(Q, chi, 0.5 + 1j * t).real)
    brk = np.flatnonzero(sgn[:-1] * sgn[1:] < 0)
    got = np.array(scan_ordinates(Q, chi, 60.0))
    assert got.size == brk.size
    assert np.all((t[brk] < got) & (got < t[brk + 1]))
    if disc == -163:
        assert abs(got[0] - 0.2029) < 1e-4


def test_rosser_blocks_resolve_or_raise():
    # Gram points 0, 1, 2 of indices 0, 1, 2, where the one at 1 is bad:
    # the block (0, 2] needs two sign changes
    t, n = np.array([0.0, 1.0, 2.0]), np.array([0, 1, 2])

    def pair(x):   # zeros at 0.8 and 0.9, and the slope
        return (x - 0.8) * (x - 0.9), 2.0 * x - 1.7
    ts, zs, dzs = _rosser_blocks(pair, t, n, *pair(t))
    assert ts[0] == 0.0 and ts[-1] == 2.0 and np.all(np.diff(ts) > 0)
    assert (np.sign(zs[:-1]) * np.sign(zs[1:]) < 0).sum() == 2
    assert np.array_equal(dzs, 2.0 * ts - 1.7)

    def touch(x):   # no sign change at all
        return 1.0 + (x - 1.0) ** 2, 2.0 * (x - 1.0)
    with pytest.raises(DomainError,
                       match=r"Gram block \(0.000000, 2.000000\]"):
        _rosser_blocks(touch, t, n, *touch(t))


def test_short_gram_block_resamples_in_one_call(monkeypatch):
    # the block (0, 2] above shows both zeros on the grid of 8 points per
    # Gram interval, which its first resample takes in one call of g (three
    # calls, at 2, 4 and 8 points, when each doubled the last); later
    # resamples double the density, each point sampled once
    t, n = np.array([0.0, 1.0, 2.0]), np.array([0, 1, 2])
    sizes = []

    def pair(x):   # zeros at 0.8 and 0.9
        sizes.append(x.size)
        return (x - 0.8) * (x - 0.9), 2.0 * x - 1.7
    ts, _, _ = _rosser_blocks(pair, t, n, *pair(t))
    assert sizes == [3, 14] and ts.size == 17

    def close(x):   # zeros at 0.8 and 0.81, first split at 2^7 per interval
        sizes.append(x.size)
        return (x - 0.8) * (x - 0.81), 2.0 * x - 1.61
    sizes.clear()
    ts, _, _ = _rosser_blocks(close, t, n, *close(t))
    assert sizes == [3, 14, 16, 32, 64, 128]
    assert ts.size == np.unique(ts).size == 2 * 2 ** 7 + 1
    # the chi_-4 scan to 200 makes 8 lockstep Z calls (10 at one doubling
    # per call)
    calls = []
    hardy_z = zero_data._hardy_z

    def counted(chi, x):
        calls.append(x.size)
        return hardy_z(chi, x)
    monkeypatch.setattr(zero_data, "_hardy_z", counted)
    assert len(scan_ordinates(Q, CHI4, 200.0)) == 122
    assert len(calls) <= 8


def test_scan_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma (~6 ms) on its first call in a process;
    # the scan's sorted Gram block bounds need no sort
    code = ("import sys, polydet as pd; q = pd.NumberField.rational(); "
            "pd.scan_ordinates(q, pd.trivial_character(q), 30.0); "
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma loaded'")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
