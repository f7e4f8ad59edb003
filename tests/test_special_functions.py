"""Special function layer against independent oracles.

Frozen reference digits were produced with mpmath at 30 significant digits;
mpmath is also used live for spot checks so precision regressions surface
with a diff, not just a boolean.
"""
import cmath
import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polydet import (
    DEFAULT_CONFIG,
    DomainError,
    EvalConfig,
    PoleAtOne,
    Result,
    bernoulli_number,
    bernoulli_poly,
    hurwitz_zeta_em,
    log_gamma,
    milnor_gamma,
)
from polydet import special_functions, verification
from polydet.special_functions import _abel_plana, _log_gamma_and_psi
from polydet.verification import run_suite


@pytest.fixture(autouse=True)
def _fifty_digits():
    """50 digits so central-difference oracles for d/ds keep ~25 good
    digits, whatever precision another test module sets at import."""
    with mp.workdps(50):
        yield


# mpmath, 30 digits
LOG_GAMMA_37 = 1.42807232666538812920049835255
ZETA_PRIME_MINUS1 = -0.165421143700450929213919660243
EXP_ZETA_PRIME_MINUS1 = 0.847536694177301291028403410087


def _bernoulli_from_cleared_cache(first: int) -> list[Fraction]:
    """B_0 .. B_300 from an emptied table, after B_first (none if -1)."""
    saved = list(special_functions._BERN)
    try:
        special_functions._BERN[:] = [Fraction(1)]
        if first >= 0:
            bernoulli_number(first)
        return [bernoulli_number(n) for n in range(301)]
    finally:
        special_functions._BERN[:] = saved


def test_bernoulli_numbers_exact():
    known = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
             3: Fraction(0), 4: Fraction(-1, 30), 6: Fraction(1, 42),
             8: Fraction(-1, 30), 10: Fraction(5, 66),
             12: Fraction(-691, 2730)}
    for n, want in known.items():
        assert bernoulli_number(n) == want
    b200 = mp.bernfrac(200)
    # B_230 first, then ascending; and ascending alone
    for bern in (_bernoulli_from_cleared_cache(230),
                 _bernoulli_from_cleared_cache(-1)):
        assert all(isinstance(b, Fraction) for b in bern)
        assert all(bern[n] == want for n, want in known.items())
        # sum_(k<=m) C(m+1, k) B_k = 0 for m >= 1, exactly
        for m in range(1, 301):
            assert sum(math.comb(m + 1, k) * bern[k]
                       for k in range(m + 1)) == 0
        assert all(bern[n] == 0 for n in range(3, 301, 2))
        assert bern[200] == Fraction(int(b200[0]), int(b200[1]))


def test_bernoulli_poly_values():
    assert bernoulli_poly(1, 0.5) == 0.0
    assert abs(bernoulli_poly(2, 0.0) - 1.0 / 6.0) < 1e-15
    # B_3(z) = z^3 - 1.5 z^2 + 0.5 z
    for z in (0.3, 1.7, 2.5 + 1.5j):
        want = z ** 3 - 1.5 * z ** 2 + 0.5 * z
        assert abs(bernoulli_poly(3, z) - want) < 1e-13 * (1 + abs(want))


def test_bernoulli_poly_translation():
    # B_r(z + 1) - B_r(z) = r z^(r-1)
    for r in (1, 2, 3, 4, 5):
        for z in (0.4, 2.2, 1.0 + 1.0j):
            gap = bernoulli_poly(r, z + 1) - bernoulli_poly(r, z)
            assert abs(gap - r * z ** (r - 1)) < 1e-12 * (1 + abs(z) ** r)


def test_log_gamma_against_scipy():
    for z in (0.3, 1.0, 3.7, 12.5, 2.0 + 3.0j, 0.5 - 8.0j):
        assert abs(log_gamma(complex(z)) - sps.loggamma(z)) < 1e-12


def test_log_gamma_frozen_digits():
    assert abs(log_gamma(3.7) - LOG_GAMMA_37) < 1e-12


def test_log_gamma_and_digamma_across_the_stirling_shift():
    # an argument is shifted right only until |z| >= 12, so Hardy's theta
    # (Re z = 1/4, 3/4) high on the line takes no shift; points just
    # inside and outside that circle, at a scalar and in one array
    z = np.array([complex(x, y) for x in (0.25, 0.75, 3.0)
                  for y in (0.0, 11.9, 12.0, 12.1, 100.0, 1000.0)])

    def psi(z):
        return _log_gamma_and_psi(z, "test")[1]
    for fn, ref in ((log_gamma, mp.loggamma), (psi, mp.digamma)):
        got = fn(z)
        for w, g in zip(z, got):
            want = complex(ref(mp.mpc(w)))
            assert abs(g - want) <= 1e-14 * abs(want)
            assert abs(fn(complex(w)) - g) <= 1e-15 * abs(want)
    with pytest.raises(DomainError):
        psi(np.array([1.5, -0.5 + 1.0j]))


def test_stirling_shift_sums_skipped_where_no_argument_steps():
    # where no argument takes a step the recursions' sums are skipped, and
    # subtracting their zero changed no bit: theta's arguments high on the
    # line give the same bits alone as beside ones that step
    high = np.array([0.25 + 30.0j, 0.75 + 200.0j, 0.25 - 1000.0j])
    both = np.concatenate(([0.25 + 1.0j, 3.0 + 0.0j], high))
    for psi in (False, True):
        alone = special_functions._log_gamma_and_psi(high, "test", psi)
        beside = special_functions._log_gamma_and_psi(both, "test", psi)
        assert np.array_equal(alone[0], beside[0][2:])
        if psi:
            assert np.array_equal(alone[1], beside[1][2:])
        else:
            assert alone[1] is None and beside[1] is None


def test_hurwitz_reduces_to_zeta():
    assert abs(hurwitz_zeta_em(2.0, 1.0).value - math.pi ** 2 / 6.0) < 1e-13
    assert abs(hurwitz_zeta_em(4.0, 1.0).value - math.pi ** 4 / 90.0) < 1e-13


def test_hurwitz_zeta_against_mpmath():
    pts = [(2.5, 0.7), (1.5, 3.0 + 1.0j), (-2.0, 1.25), (0.5, 2.0),
           (3.0 + 4.0j, 0.9), (-1.5, 4.0 - 2.0j)]
    for s, z in pts:
        want = complex(mp.zeta(mp.mpc(s), mp.mpc(z)))
        got = hurwitz_zeta_em(complex(s), complex(z)).value
        assert abs(got - want) < 1e-11 * (1 + abs(want))


def test_hurwitz_ds_against_mpmath():
    h = mp.mpf("1e-25")
    for s, z in [(2.0, 1.0), (0.0, 0.3), (-1.0, 1.25), (-3.0, 2.0 + 1.0j)]:
        want = complex((mp.zeta(mp.mpc(s) + h, mp.mpc(z))
                        - mp.zeta(mp.mpc(s) - h, mp.mpc(z))) / (2 * h))
        got = hurwitz_zeta_em(complex(s), complex(z)).ds
        assert abs(got - want) < 1e-10 * (1 + abs(want))


def test_hurwitz_error_claims_cover_actuals():
    # the reported estimates must dominate the observed deviation
    pts = [(2.0, 1.0), (-2.0, 2.0), (0.5, 0.7), (-5.0, 1.0 + 1.0j),
           (2.0 + 3.0j, 0.9), (0.5 + 14.13j, 2.0)]
    for s, z in pts:
        r = hurwitz_zeta_em(complex(s), complex(z))
        want = mp.zeta(mp.mpc(s), mp.mpc(z))
        h = mp.mpf("1e-25")
        want_ds = (mp.zeta(mp.mpc(s) + h, mp.mpc(z))
                   - mp.zeta(mp.mpc(s) - h, mp.mpc(z))) / (2 * h)
        assert abs(complex(mp.mpc(r.value) - want)) <= max(r.err_value, 1e-15)
        assert abs(complex(mp.mpc(r.ds) - want_ds)) <= max(r.err_ds, 1e-15)


def test_hurwitz_nonpositive_integers_are_bernoulli():
    # zeta(1 - r, z) = -B_r(z) / r, the identity the closed form leans on
    for r in range(1, 7):
        for z in (0.3, 1.0, 2.5, 1.0 + 2.0j):
            got = hurwitz_zeta_em(complex(1 - r), complex(z)).value
            want = -bernoulli_poly(r, z) / r
            assert abs(got - want) < 1e-10 * (1 + abs(want))


def test_hurwitz_nonpositive_integers_within_claim():
    # the closed form -B_r(z)/r and its rounding bound against mpmath
    for r in range(1, 9):
        for z in (0.3, 1.0, 2.5, 7.25, 1.0 + 2.0j, 2.5 + 1.5j, 0.7 - 3.0j):
            got = hurwitz_zeta_em(complex(1 - r), complex(z))
            want = complex(mp.zeta(1 - r, mp.mpc(z)))
            assert abs(got.value - want) <= got.err_value


def test_hurwitz_minus_pole_smooth_at_one():
    # zeta(s, z) - 1/(s-1) extends smoothly; compare both sides of s = 1
    z = 1.7
    left = hurwitz_zeta_em(1.0 - 1e-7, z, minus_pole=True).value
    right = hurwitz_zeta_em(1.0 + 1e-7, z, minus_pole=True).value
    center = hurwitz_zeta_em(1.0 + 0j, z, minus_pole=True).value
    assert abs(left - right) < 1e-6
    assert abs(0.5 * (left + right) - center) < 1e-6
    # at z = 1 the regular value is the Euler-Mascheroni constant
    assert abs(hurwitz_zeta_em(1.0 + 0j, 1.0, minus_pole=True).value
               - 0.5772156649015329) < 1e-10
    # away from s = 1 it differs from zeta by exactly the pole 1/(s-1)
    for s in (2.5, 0.5 + 3.0j, -1.5):
        full = hurwitz_zeta_em(s, 0.7).value
        cut = hurwitz_zeta_em(s, 0.7, minus_pole=True).value
        assert abs(full - cut - 1.0 / (s - 1.0)) < 1e-12


def test_hurwitz_ds_frozen_zeta_digits():
    # zeta'(-1) and its exponential (Glaisher-Kinkelin)
    assert abs(hurwitz_zeta_em(-1.0, 1.0).ds - ZETA_PRIME_MINUS1) < 1e-11
    got = cmath.exp(hurwitz_zeta_em(-1.0, 1.0).ds)
    assert abs(got - EXP_ZETA_PRIME_MINUS1) < 1e-11


def test_milnor_gamma_depth_one_is_lerch():
    # exp(d_s zeta(0, z)) = Gamma(z) / sqrt(2 pi)
    for z in (0.4, 1.0, 3.7, 2.0 + 1.0j):
        want = cmath.exp(sps.loggamma(z)) / math.sqrt(2.0 * math.pi)
        assert abs(milnor_gamma(1, complex(z)) - want) < 1e-11 * (1 + abs(want))


# w on both sides of Re w = 1, complex ones as the benchmark's arch pieces
# (w = z/2, (z+1)/2 and z at Re z >= 1.8, |Im z| <= 3.7), near Re w = 1/2,
# near Re w = 0 (read at w + 1 through the recurrence at small depth), and
# far up the imaginary axis (a direct determinant at z = 2 + 40i)
ABEL_PLANA_W = (0.51, 0.75, 1.0, 2.0, 3.0, 0.51 + 1.0j, 0.9 - 1.85j,
                1.25 + 0.25j, 1.75 + 0.25j, 3.5 - 3.7j, 1.23, 0.05, 0.1, 0.2,
                0.05 + 1.0j, 0.2 - 3.0j, 1.0 + 20.0j, 0.6 - 40.0j)


@pytest.mark.parametrize("r", range(1, 31))
def test_abel_plana_within_claims_against_mpmath(r):
    # the reference, at 50 digits:
    #   complex(mp.zeta(1 - r, mp.mpc(w), derivative=1))
    # the Euler-Maclaurin kernel's derivative at r = 18, w = 1 reads 1.3e8
    # (claim 6.4e9) against 3.13; with Golub-Welsch weights the 40-node
    # rule was off by 2.4e-9 relative at r = 29, w = 1.23 (claim 2.3e-9),
    # and without the shift by 5e-6 relative at r = 1, w = 0.05
    for w in ABEL_PLANA_W:
        em = _abel_plana(r, w)
        want = complex(mp.zeta(1 - r, mp.mpc(w), derivative=1))
        assert abs(em.ds - want) <= em.err_ds, (r, w)
        assert abs(em.value - complex(mp.zeta(1 - r, mp.mpc(w)))) \
            <= em.err_value, (r, w)
        scale = max(1.0, abs(want))
        if r <= 4:
            # 1.8e-13 at most on this grid
            assert em.err_ds <= 1e-11 * scale, (r, w)
        if r <= 20:
            # the gap of the 30- and 40-node rules sets the claim: near the
            # poles of 1 / (e^(2 pi t) - 1) at t = +-i the integrand is of
            # size |w + 1|^(r-1); the claims reach 1.9e-9 relative at w = 2,
            # r = 18, where the error is 1.6e-11 relative (1.4e-6 while a
            # 20-node rule's gap counted too)
            assert em.err_ds <= 1e-8 * scale, (r, w)


@pytest.mark.parametrize("z", [0.05, 0.1, 0.2, 0.05 + 1.0j, 0.3 - 2.0j])
def test_milnor_gamma_near_re_zero(z):
    # the fixed Laguerre rules at z itself are off by 5e-6, 8e-8 and 3e-10
    # relative at r = 1 and z = 0.05, 0.1 and 0.2, and by 3e-5 at
    # 0.05 + i; read at z + 1 they keep full precision
    for r in (1, 2, 3):
        want = complex(mp.exp(mp.zeta(1 - r, mp.mpc(z), derivative=1)))
        assert abs(milnor_gamma(r, z) - want) <= 1e-13 * abs(want), (r, z)


def test_abel_plana_reads_no_kernel(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("kernel called")
    monkeypatch.setattr(special_functions, "_em_core", no_kernel)
    _abel_plana(3, 1.25 + 0.5j)
    milnor_gamma(2, 1.5)


def test_special_suite_catches_a_planted_abel_plana_error(monkeypatch):
    # the kernel and Abel-Plana evaluators of zeta'(1 - r, w) are checked
    # against each other: a 1e-9 relative error in one fails the check
    def planted(r, a):
        em = _abel_plana(r, a)
        return dataclasses.replace(em, ds=em.ds * (1.0 + 1e-9))
    check = run_suite("special")[0]
    assert check.name == "hurwitz-ds-abel-plana" and check.passed
    monkeypatch.setattr(verification, "_abel_plana", planted)
    check = run_suite("special")[0]
    assert check.name == "hurwitz-ds-abel-plana" and not check.passed


def test_abel_plana_domain():
    for r, w in ((0, 1.0), (2.0, 1.0), (2, 0.0), (2, -0.5 + 1.0j),
                 (2, complex(math.nan, 0.0)), (2, complex(1.0, math.inf)),
                 (400, 1e3)):
        with pytest.raises(DomainError):
            _abel_plana(r, w)


def test_milnor_gamma_past_the_kernel_depth():
    # exp(zeta'(-17, 1)) = 22.843...; the kernel gave exp(1.3e8)
    want = complex(mp.exp(mp.zeta(-17, 1, derivative=1)))
    assert abs(milnor_gamma(18, 1.0) - want) <= 1e-12 * abs(want)


def test_milnor_gamma_rejects_bad_depth():
    with pytest.raises(DomainError):
        milnor_gamma(0, 1.5)
    # Gamma(500) / sqrt(2 pi) is about 1e1131, beyond a double
    with pytest.raises(DomainError):
        milnor_gamma(1, 500.0)


def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(quad_tol=-1.0)
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError):
            EvalConfig(quad_tol=bad)
    # the quadrature's two settings; every reported error is a route's own
    assert {f.name for f in dataclasses.fields(EvalConfig)} == \
        {"quad_tol", "max_refinements"}
    with pytest.raises(TypeError):
        EvalConfig(target_abs_error=1e-12)
    assert DEFAULT_CONFIG.with_updates(max_refinements=8).max_refinements == 8


def test_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL, which nothing in the package needs
    code = ("import sys, polydet; "
            "assert 'hashlib' not in sys.modules, 'hashlib loaded'")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_hurwitz_rejects_pole_and_bad_z():
    with pytest.raises(PoleAtOne):
        hurwitz_zeta_em(1.0, 2.0)
    with pytest.raises(PoleAtOne):
        hurwitz_zeta_em(1.0 + 1e-12j, 2.0)
    with pytest.raises(DomainError):
        hurwitz_zeta_em(2.0, -0.5)
    with pytest.raises(DomainError):
        hurwitz_zeta_em(math.nan, 1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta_em(2.0, complex(1.0, math.inf))
    # zeta(-200, 1) = -B_201/201 = 0, but its Euler-Maclaurin terms overflow
    with pytest.raises(DomainError):
        hurwitz_zeta_em(-200.0, 1.0)


# ---------------------------------------------------------------------------
# An array of shifts: one kernel call for all residues a mod q


node = st.builds(complex, st.floats(-6.0, 8.0), st.floats(-30.0, 30.0))


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from([4, 5, 23]), minus_pole=st.booleans(),
       nodes=st.lists(node, min_size=1, max_size=4))
def test_shift_array_rows_match_scalar_shift_calls(q, minus_pole, nodes):
    if not minus_pole:
        assume(all(abs(u - 1.0) > 1e-3 for u in nodes))
    s = np.array(nodes, dtype=np.complex128)
    a = np.arange(1, q)
    em = hurwitz_zeta_em(s, a, minus_pole=minus_pole, scale=q)
    assert em.value.shape == em.ds.shape == em.err_ds.shape == (q - 1, len(s))
    for i in range(q - 1):
        one = hurwitz_zeta_em(s, a[i], minus_pole=minus_pole, scale=q)
        assert one.value.shape == s.shape
        assert (np.abs(em.value[i] - one.value)
                <= em.err_value[i] + one.err_value).all()
        assert (np.abs(em.ds[i] - one.ds) <= em.err_ds[i] + one.err_ds).all()


def test_shift_array_with_scalar_s():
    em = hurwitz_zeta_em(2.5 + 1.0j, np.array([0.5, 1.0, 2.0 + 1.0j]))
    assert em.value.shape == (3,)
    for i, z in enumerate((0.5, 1.0, 2.0 + 1.0j)):
        one = hurwitz_zeta_em(2.5 + 1.0j, z)
        assert abs(em.value[i] - one.value) <= em.err_value[i] + one.err_value


def test_shift_array_with_a_bad_shift_or_node_is_a_domain_error():
    s = np.array([2.0, 0.5 + 3.0j])
    with pytest.raises(DomainError):
        hurwitz_zeta_em(s, np.array([0.5, -0.5, 1.5]))
    with pytest.raises(DomainError):
        hurwitz_zeta_em(s, np.array([1, 0, 3]), minus_pole=True, scale=4)
    with pytest.raises(DomainError):
        hurwitz_zeta_em(s, np.array([0.5, complex(1.0, math.nan)]))
    with pytest.raises(DomainError):
        hurwitz_zeta_em(np.array([2.0, math.nan]), np.array([1, 3]),
                        minus_pole=True, scale=4)
    with pytest.raises(PoleAtOne):
        hurwitz_zeta_em(np.array([2.0, 1.0]), np.array([0.5, 1.5]))
    with pytest.raises(DomainError):
        hurwitz_zeta_em(-200.0, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        hurwitz_zeta_em(s, np.array([]))
    with pytest.raises(DomainError):
        hurwitz_zeta_em(s, np.ones((2, 2)))


def test_trivial_zero_values_apply_per_shift():
    # at s = 1 - r every row is -B_r(a/q)/r, plus 1/r with the pole removed
    a, q = np.array([1, 2, 4]), 5
    for r in (1, 3, 7):
        s = np.array([2.0, 1.0 - r])
        for minus_pole in (False, True):
            em = hurwitz_zeta_em(s, a, minus_pole=minus_pole, scale=q)
            for i, ai in enumerate(a):
                want = complex(mp.zeta(1 - r, mp.mpf(int(ai)) / q))
                if minus_pole:
                    want += 1.0 / r
                assert abs(em.value[i, 1] - want) <= em.err_value[i, 1]


@pytest.mark.parametrize("q", [1, 3, 5])
def test_trivial_zero_closed_form_bit_for_bit(q):
    # at s = 1 - r the value is -B_r(w)/r and err_value the Horner bound
    # 2 eps sum_k |c_k| |w|^(r-k) plus the margin 1e-15 (1 + |w|)^max(r-1, 1),
    # at the shift w = z / q the kernel reads, both by np.polyval: on an
    # object array for the value, so that its Horner steps round as Python
    # complex arithmetic does, and on floats for the bound
    eps = np.finfo(float).eps
    for r in range(1, 13):
        c = [float(math.comb(r, k) * bernoulli_number(k))
             for k in range(r + 1)]
        for z in (1.0, 2.0, 0.9, 2.5 + 1.5j, 0.8 - 3.2j, 7.25 + 0.5j):
            w = complex((np.array([z], dtype=complex) / q)[0])
            em = hurwitz_zeta_em(1.0 - r, z, scale=q)
            want = -np.polyval(c, np.array(w, dtype=object)) / r
            bound = 2.0 * eps * np.polyval(np.abs(c), abs(w))
            assert em.value == want, (r, z)
            assert em.err_value == \
                bound + 1e-15 * (1.0 + abs(w)) ** max(r - 1, 1), (r, z)


def test_result_is_finite_or_raises():
    res = Result.from_log(math.log(2.0) + 0.5j, 1e-3, "direct")
    assert res.value == cmath.exp(math.log(2.0) + 0.5j)
    assert res.error_estimate == abs(res.value) * math.expm1(1e-3)
    with pytest.raises(DomainError):
        Result(complex(math.nan, 0.0), 1e-12, "closed")
    with pytest.raises(DomainError):
        Result(1.0 + 0.0j, math.inf, "closed")
    with pytest.raises(DomainError):
        Result.from_log(800.0, 1e-12, "closed")   # exp overflows
    # exp(-709) is subnormal and exp(-800) is 0: neither has a relative error
    for log in (-709.0, -800.0 + 1.0j):
        with pytest.raises(DomainError, match="underflows"):
            Result.from_log(log, 1e-12, "closed")
    assert Result.from_log(-708.0, 1e-12, "closed").value.real > 0.0


# ---------------------------------------------------------------------------
# Each node's split sized from the kernel's own remainder bound

# (s, a, q, zeta(s, a/q), d/ds zeta(s, a/q) - log(q) zeta(s, a/q)): the
# value and the `scale=q` derivative, with a the shift itself where q = 1.
# Nine nodes on the line 1/2 + it, t <= 200 (z = 1, 1/4, 3/4), eight at
# z = 1 with Re s in [-6, 8], |Im s| <= 30, and eight at complex shifts with
# |Im z| <= 3; pinned with mpmath 1.3 at 30 digits by
#   rng = np.random.default_rng(20)
#   rows = [(complex(0.5, t), a, q) for t, (a, q) in zip(
#       rng.uniform(0, 200, 9), [(1, 1), (1, 4), (3, 4)] * 3)]
#   rows += [(complex(rng.uniform(-6, 8), rng.uniform(-30, 30)), 1, 1)
#            for _ in range(8)]
#   for _ in range(8):
#       s = complex(rng.uniform(-6, 8), rng.uniform(-30, 30))
#       rows.append((s, complex(rng.uniform(0.05, 3), rng.uniform(-3, 3)), 1))
#   for s, a, q in rows:
#       v = mp.zeta(s, mp.mpf(a) / q) if q > 1 else mp.zeta(s, a)
#       d = (mp.zeta(s, mp.mpf(a) / q, 1) - mp.log(q) * v if q > 1
#            else mp.zeta(s, a, 1))
#       print((s, a, q, complex(v), complex(d)))
HURWITZ_PINS = [
    ((0.5+56.01519252603187j), 1, 1, (0.11783395650440288-1.0370137922117946j),
     (2.2489484837490497+1.404544346075406j)),
    ((0.5+92.22934196058843j), 1, 4, (0.4499664167667894+0.6690827229911243j),
     (-5.72958808764098+0.8322202478003324j)),
    ((0.5+24.34393851528838j), 3, 4, (2.518952148424533+0.18942356052549325j),
     (-5.044220511271501+0.23579761867168558j)),
    ((0.5+104.5216703437865j), 1, 1, (1.0200552911452965-0.03176513801873968j),
     (-1.4379512997840256-0.08384916127490626j)),
    ((0.5+81.83368175484098j), 1, 4, (0.8163467497189998+2.425918611522771j),
     (4.561293022104776-4.828472183884642j)),
    ((0.5+14.327909440932984j), 3, 4, (-0.6819131203905147-2.2212566114809156j),
     (0.6832545905900186+3.7161005579893627j)),
    ((0.5+19.79333516370636j), 1, 1, (0.6536145347561487-1.1879520618224397j),
     (0.4768033667120981+1.1501513876915042j)),
    ((0.5+197.25767279334937j), 1, 4, (-0.5099096249295435-1.1152615967606923j),
     (-4.932747412071609+2.0328572914174305j)),
    ((0.5+138.81357647151734j), 3, 4, (-1.304844437182038-1.2089176164728936j),
     (0.8120583724894775+4.164519848263203j)),
    ((0.2816384436836614+8.410608515385718j), 1, 1, (1.3671454091742183+0.3590449817546433j),
     (-0.16376314275849177-0.24854814171791487j)),
    ((-2.2131560096370384-11.887561981082268j), 1, 1, (4.056604852340694+3.986874684751676j),
     (-3.264619710462521-2.0396972293479863j)),
    ((-4.973211054277073-26.84486573265041j), 1, 1, (-560.9118906733007-2929.0960905416873j),
     (1421.7212730119563+4167.451563087614j)),
    ((5.304651796962565+18.798320147380977j), 1, 1, (1.0223815564509473-0.014551839464528094j),
     (-0.015540932106761758+0.01147971568403539j)),
    ((-5.930397425568149-10.196679354150152j), 1, 1, (-3.452533241609754-32.960924257008095j),
     (20.67280074063351+19.40630239656474j)),
    ((-4.752784007446525-1.9231855326333793j), 1, 1, (-0.029550929429495644-0.001966189574873949j),
     (-0.0009365086638256597-0.035712343207552066j)),
    ((2.6476524383206943+3.0628837771653323j), 1, 1, (0.8721208244158527-0.08784338580241681j),
     (0.09538339201400936+0.03255013850752447j)),
    ((-4.123133785304654+12.146570195105731j), 1, 1, (20.56197199799415-10.56533857983458j),
     (-18.741056643679812+0.6730453372004961j)),
    ((2.581571683779474-1.9544785412623078j), (0.9265250640145827+2.5103633041051756j), 1, (0.0053783430685274145+0.0025684022181511495j),
     (-0.001730117814822728-0.01225865631189386j)),
    ((-4.8318442278742815-21.314203577195038j), (1.16678372069179-1.4446569333305854j), 1, (-3035819537.6751995+1792584129.408386j),
     (266951584.02787772-3807631284.2383237j)),
    ((2.6269348329439683+11.673263309047094j), (2.1264882006344052+1.643316379741167j), 1, (114.62084883062283-100.80867405542556j),
     (-178.19024786516886+21.948593113246876j)),
    ((-3.546691859841596+14.77883610890246j), (0.7758442245565353+0.21601466135941205j), 1, (1.7866934025025714-161.77546068148607j),
     (-63.134270879510744+113.22679056305891j)),
    ((-2.903695963552145+18.730477836996073j), (0.36828869423823846-0.4149729624859586j), 1, (-3.0333304843990554-0.5687407015562927j),
     (3.261580167164265+1.1863474413237447j)),
    ((2.8720592350025136+11.845389359641601j), (0.33133869206652566+2.9047180805546224j), 1, (-547448.2457866676+1360309.3689556762j),
     (2561560.01941439-665554.395127342j)),
    ((-1.9410934554136485-3.2167004290301158j), (0.9465290655357442-2.760606232072924j), 1, (6.822010545135285+443.03573894291077j),
     (-546.1230612858853-393.7520661063361j)),
    ((-2.57653523451682-10.379921375167033j), (1.7467537166626497-2.5826114289798774j), 1, (-415406.7649012963+30252.1269905934j),
     (429091.42594409495-445858.12068122736j)),
]


@pytest.mark.parametrize("s, a, q, value, ds", HURWITZ_PINS)
def test_hurwitz_pinned_values_within_claims(s, a, q, value, ds):
    em = hurwitz_zeta_em(s, a, scale=q)
    assert abs(em.value - value) <= em.err_value
    assert abs(em.ds - ds) <= em.err_ds


@settings(max_examples=25, deadline=None)
@given(nodes=st.lists(node, min_size=2, max_size=12))
@example(nodes=[-5.397 - 0.809j, 3.0 + 30.0j])
@example(nodes=[-0.2 + 0j, -5.0 - 30.0j])
def test_batched_node_within_10x_of_its_error_alone(nodes):
    # a chunk is cut where its nodes' splits differ, so no node pays for a
    # batch-mate's larger split: left of 0 a shared split 51 against its
    # own 22 once cost zeta(-5.397 - 0.809i) ~400x.  Batched with -5 - 30i,
    # -0.2 shares a split on the prime-power path, whose floor charges eps
    # for each prime factor of a term past the first: 8.0x (9.3x when it
    # charged every factor, and up to 32x at s ~ 0 when it charged twice
    # the largest count to every term)
    assume(all(abs(u - 1.0) > 1e-3 for u in nodes))
    em = hurwitz_zeta_em(np.array(nodes, dtype=np.complex128), 1.0)
    for i, u in enumerate(nodes):
        alone = hurwitz_zeta_em(u, 1.0)
        assert em.err_value[i] <= 10.0 * alone.err_value
        assert em.err_ds[i] <= 10.0 * alone.err_ds
        assert abs(em.value[i] - complex(mp.zeta(u))) <= 10.0 * alone.err_value
        assert abs(em.ds[i] - complex(mp.zeta(u, 1, 1))) \
            <= 10.0 * alone.err_ds


@pytest.mark.parametrize("s", [1e9 + 0.5, -200.5, 3.0 + 2e7j])
def test_split_past_cap_or_pochhammer_overflow_is_a_domain_error(s):
    # (s)_41 overflows at s = 1e9 + 0.5 and (s)_201 at -200.5, so the need
    # is infinite; at Im s = 2e7 the split is ~3e6 > SERIES_MAX_TERMS
    with pytest.raises(DomainError):
        hurwitz_zeta_em(s, 1.0)


# nodes whose split is past _POWER_MIN_SPLIT, from Re s = -3 to 3
POWER_NODES = np.array([complex(re, im) for im in (100.0, 300.0, 1000.0)
                        for re in (-3.0, 0.5, 3.0)])


@pytest.mark.parametrize("q, shifts, checked", [
    (1, (1,), (1,)),                        # zeta
    (4, (1, 3), (1, 3)),                    # chi_-4
    (23, tuple(range(1, 23)), (1, 5, 22)),  # chi_-23
])
def test_prime_power_direct_sum_within_claims(monkeypatch, q, shifts,
                                              checked):
    # every residue of a Dirichlet character (and zeta's shift 1) takes the
    # prime-power path at these heights; it agrees with the exponential
    # path within the sum of both claims, and with mpmath within its own
    # claim (mpmath on a few residues of chi_-23 only, for time)
    plans = []
    core = special_functions._em_core

    def spy(*args):
        plans.append(args[6] if len(args) > 6 else None)
        return core(*args)
    monkeypatch.setattr(special_functions, "_em_core", spy)
    z = np.array(shifts, dtype=float)
    em = hurwitz_zeta_em(POWER_NODES, z, minus_pole=q > 1, scale=q)
    assert plans and all(p is not None for p in plans)
    monkeypatch.setattr(special_functions, "_POWER_MIN_SPLIT", 10 ** 9)
    plans.clear()
    ex = hurwitz_zeta_em(POWER_NODES, z, minus_pole=q > 1, scale=q)
    assert plans and all(p is None for p in plans)
    assert (np.abs(em.value - ex.value) <= em.err_value + ex.err_value).all()
    assert (np.abs(em.ds - ex.ds) <= em.err_ds + ex.err_ds).all()
    with mp.workdps(20):
        for i, a in enumerate(shifts):
            if a not in checked:
                continue
            for j, u in enumerate(POWER_NODES):
                s, x = mp.mpc(u.real, u.imag), mp.mpf(a) / q
                want, dwant = mp.zeta(s, x), mp.zeta(s, x, 1)
                # ds is that of q^-s zeta(s, a/q), divided by q^-s
                dwant -= mp.log(q) * want
                if q > 1:    # minus the pole 1/(s - 1)
                    want -= 1 / (s - 1)
                    dwant += 1 / (s - 1) ** 2 + mp.log(q) / (s - 1)
                assert abs(em.value[i, j] - complex(want)) \
                    <= em.err_value[i, j], (a, u)
                assert abs(em.ds[i, j] - complex(dwant)) \
                    <= em.err_ds[i, j], (a, u)


def test_power_plan_covers_the_bases_and_their_factors():
    # the table's rows are the n <= q (N - 1) + max z coprime to q, ordered
    # by their number of prime factors; each product block multiplies the
    # rows of a prime and of a cofactor already built
    plan = special_functions._power_plan(4, (1, 3), 30)
    n = np.exp(np.concatenate(([0.0], plan.logp))).round()
    assert n[0] == 1 and all(_omega(int(p)) == 1 for p in n[1:])
    assert plan.rows == 2 * 30 and plan.grid.size == 2 * 30
    built = 1 + plan.logp.size
    for lo, hi, prow, crow in plan.blocks:
        assert lo == built and (prow < lo).all() and (crow < lo).all()
        built = hi
    assert built == plan.rows
    bases = np.add.outer((1, 3), 4 * np.arange(30)).ravel()
    assert np.array_equal(plan.weights[:, 1].ravel(), np.log(bases))
    # the rounding weight of each base is eps per prime factor past the
    # first (81 = 3^4; 1 has none)
    k = plan.weights[:, 2].ravel() / special_functions._EPS + 1
    assert np.array_equal(k, [max(_omega(int(b)), 1) for b in bases])
    assert k.max() == 4
    # past EM_TERMS rows a node the kernel keeps its exponentials
    assert special_functions._power_plan(163, tuple(range(1, 163)),
                                         400) is None


def _omega(n: int) -> int:
    """The number of prime factors of n, with multiplicity."""
    k, d = 0, 2
    while n > 1:
        while n % d == 0:
            n, k = n // d, k + 1
        d += 1
    return k


@pytest.mark.parametrize("nodes", [
    [0.5 + 14.0j, 2.5 - 40.0j, 7.25, -3.5 + 0.25j],
    # at and next to nonpositive integers, where the product rule runs
    [0.0, -2.0, -2.0 + 1e-12, -7.0 + 1e-9j, -1.0 - 1e-300j, -39.0],
])
def test_odd_order_pochhammer_table_against_mpmath(nodes):
    # (s)_k and d/ds (s)_k at k = 1, 3, .., 2J - 1 side by side, and the
    # moduli of order 2J + 1, against mpmath rising factorials and their
    # numerical s-derivatives at 50 digits
    J = special_functions.EM_BERNOULLI_TERMS
    s = np.array(nodes, dtype=np.complex128)
    # the kernel builds its tables where 1/s may be infinite
    with np.errstate(divide="ignore", invalid="ignore"):
        tab = special_functions._build_node_table(s, J)
    n = len(nodes)
    assert tab.poch.shape == (J, 2 * n) == tab.apoch.shape
    assert np.array_equal(tab.apoch, np.abs(tab.poch))
    for i, u in enumerate(nodes):
        x = mp.mpc(u)
        for j, k in enumerate(range(1, 2 * J + 2, 2)):
            want = mp.rf(x, k)
            dwant = mp.diff(lambda y: mp.rf(y, k), x)
            if j < J:
                got, dgot = tab.poch[j, i], tab.poch[j, n + i]
            else:
                got, dgot = tab.pk[i], tab.dpk[i]
                want, dwant = abs(want), abs(dwant)
            assert abs(got - complex(want)) <= 1e-13 * abs(want), (u, k)
            assert abs(dgot - complex(dwant)) <= 1e-13 * abs(dwant), (u, k)


def test_node_table_column_does_not_depend_on_its_neighbours():
    # each node's (s)_k and d/ds (s)_k rows and its moduli, remainder and
    # rounding factors are the same bits in any chunk of two or more
    # nodes, wherever it sits; a lone complex node, whose one-column
    # arrays numpy may round through another loop, agrees within 2 ulps
    J = special_functions.EM_BERNOULLI_TERMS
    rng = np.random.default_rng(7)
    others = rng.uniform(-30, 30, 6) + 1j * rng.uniform(-200, 200, 6)
    build = special_functions._build_node_table

    def column(nodes, i):
        # 1/s is infinite at s = -2, as where the kernel builds its tables
        with np.errstate(divide="ignore", invalid="ignore"):
            tab = build(np.array(nodes, dtype=np.complex128), J)
        n = len(tab.s)
        return (tab.poch[:, i], tab.poch[:, n + i], tab.apoch[:, i],
                tab.apoch[:, n + i], tab.pk[i], tab.dpk[i], tab.rem[i],
                tab.sround[i])

    for a, b, c, d in ((0.5 + 14.0j, 2.5 - 40.0j, -3.5 + 0.25j, 7.25),
                       tuple(others[:4]), (others[4], -2.0, others[5], 3.0)):
        want = column([a, b], 0)
        for nodes, i in (([c, a, d], 1), ([b, a], 1), ([d, c, b, a], 3),
                         ([a, d, c], 0), ([c, d, b, *others, a], 9)):
            for x, y in zip(column(nodes, i), want):
                assert np.array_equal(x, y), (a, nodes)
        for x, y in zip(column([a], 0), want):
            assert np.all(np.abs(x - y)
                          <= 2 * special_functions._EPS * np.abs(y)), a


def test_node_tables_stay_within_their_byte_budget():
    # the cache keeps the most recently used tables up to
    # _NODE_CACHE_BYTES, always the newest, and a full chunk's table alone
    # fits, so the L-value pieces of one chunk share it
    cache = special_functions._NODE_TABLES
    for lo in range(4):
        hurwitz_zeta_em(2.0 + 1j * np.arange(lo, lo + 1.0, 1.0
                                             / special_functions.EM_CHUNK),
                        1.0)
        assert len(cache.tables[next(reversed(cache.tables))].s) \
            == special_functions.EM_CHUNK
        assert cache.nbytes <= special_functions._NODE_CACHE_BYTES
    assert cache.nbytes == sum(t.nbytes for t in cache.tables.values())
    # a table's byte count is that of its arrays, taken rows included
    tab = next(iter(cache.tables.values()))
    for t in (tab, tab.take(np.arange(0, len(tab.s), 3))):
        assert t.nbytes == sum(a.nbytes for a in t
                               if isinstance(a, np.ndarray))
    small = np.array([-1.0 + 0j])
    hurwitz_zeta_em(small, 2.5)
    key = (small.tobytes(), special_functions.EM_BERNOULLI_TERMS)
    assert next(reversed(cache.tables)) == key
