"""Special function layer against independent oracles.

Frozen reference digits were produced with mpmath at 30 significant digits;
mpmath is also used live for spot checks so precision regressions surface
with a diff, not just a boolean.
"""
import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import assume, given, settings
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
    polylog,
    polylog_tail_bound,
)


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
LI2_HALF = 0.58224052646501250590265632016


def test_bernoulli_numbers_exact():
    known = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
             3: Fraction(0), 4: Fraction(-1, 30), 6: Fraction(1, 42),
             8: Fraction(-1, 30), 10: Fraction(5, 66),
             12: Fraction(-691, 2730)}
    for n, want in known.items():
        assert bernoulli_number(n) == want


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


def test_milnor_gamma_rejects_bad_depth():
    with pytest.raises(DomainError):
        milnor_gamma(0, 1.5)
    # Gamma(500) / sqrt(2 pi) is about 1e1131, beyond a double
    with pytest.raises(DomainError):
        milnor_gamma(1, 500.0)


def test_polylog_against_mpmath():
    for r in (1, 2, 3):
        for z in (0.5, -0.8, 0.3 + 0.4j):
            want = complex(mp.polylog(r, mp.mpc(z)))
            assert abs(polylog(r, complex(z)) - want) < 1e-11


def test_polylog_frozen_li2_half():
    assert abs(polylog(2, 0.5) - LI2_HALF) < 1e-12


def test_polylog_depth_one_is_log():
    for z in (0.5, -0.7, 0.2 + 0.6j):
        assert abs(polylog(1, complex(z)) + cmath.log(1 - z)) < 1e-11


def test_polylog_tail_bound_is_a_bound():
    r, z, terms = 2, 0.9, 40
    partial = sum(z ** m / m ** r for m in range(1, terms + 1))
    true_tail = abs(complex(mp.polylog(r, z)) - partial)
    assert true_tail <= polylog_tail_bound(r, abs(z), terms)


def test_polylog_domain_guard():
    with pytest.raises(DomainError):
        polylog(2, 1.2)


def test_config_validation():
    with pytest.raises(ValueError):
        EvalConfig(bernoulli_terms=0)
    with pytest.raises(ValueError):
        EvalConfig(quad_tol=-1.0)
    for key in ("target_abs_error", "quad_tol", "pole_guard"):
        with pytest.raises(ValueError):
            EvalConfig(**{key: math.nan})
    assert DEFAULT_CONFIG.with_updates(max_refinements=8).max_refinements == 8
    assert DEFAULT_CONFIG.config_hash() != \
        DEFAULT_CONFIG.with_updates(max_refinements=8).config_hash()


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
        # the block's split serves its largest shift, so it may exceed
        # the split of the shift alone
        one = hurwitz_zeta_em(2.5 + 1.0j, z)
        assert em.split >= one.split
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
