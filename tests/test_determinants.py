"""Determinants and the xi function: contour route, zero-sum route, closed
forms, and the depth-1 reduction to the completed L-function."""
import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydet import (
    DEFAULT_CONFIG,
    DomainError,
    NumberField,
    PoleAtOne,
    builtin_zeta_zeros,
    completed_lambda,
    determinant_closed,
    determinant_direct,
    kronecker_character,
    l_log_derivative,
    regularized_product,
    trivial_character,
    truncation_tail_estimate,
    xi_hankel,
    xi_zero_sum,
)
from polydet import determinants
from polydet.determinants import _log_derivative_bound, _ray
from polydet.l_functions import _ideal_arrays

mp.mp.dps = 30

Q = NumberField.rational()
QI = NumberField.quadratic(-1)
TRIV = trivial_character(Q)
CHI4 = kronecker_character(-4)

# Xi_1(2) for the Riemann zeta zeros: the depth-1 determinant collapses to
# 2^{-3/2} pi^{-2} Lambda(2) = 1 / (6 sqrt(2) 2 pi) = 1 / (6 * 2^{1.5} * pi)
XI1_AT_2 = 0.018756589919939709782399983146


def test_depth_one_closed_frozen_value():
    got = determinant_closed(Q, TRIV, 1, 2.0)
    assert abs(got.value - XI1_AT_2) < 1e-12
    assert abs(got.value.imag) < 1e-14


def test_depth_one_direct_matches_frozen_value():
    got = determinant_direct(Q, TRIV, 1, 2.0)
    assert abs(got.value - XI1_AT_2) < 1e-9


def test_closed_vs_direct_complex_point():
    # one case of the cross-route identity at depth 2 off the real axis
    closed = determinant_closed(Q, CHI4, 2, 2.5 + 1.5j)
    direct = determinant_direct(Q, CHI4, 2, 2.5 + 1.5j)
    rel = abs(closed.value - direct.value) / abs(closed.value)
    assert rel < 1e-6


def test_depth_one_reduction_against_mpmath():
    # Xi_1(z) = |d|^{-z/2} 2^{-1-r1/2} pi^{-2} Lambda(z) for the trivial
    # character of Q, with Lambda assembled independently in mpmath; off the
    # real axis log L is continued from an anchor, and the gap must stay
    # within the claimed error
    for z in (2.0, 3.0, 3.5, 1.987 + 0.39j, 1.3 + 4j):
        zm = mp.mpc(z)
        lam = 0.5 * zm * (zm - 1) * mp.power(1 / mp.pi, zm / 2) \
            * mp.gamma(zm / 2) * mp.zeta(zm)
        want = complex(mp.power(2, -1.5) * mp.power(mp.pi, -2) * lam)
        got = determinant_closed(Q, TRIV, 1, z)
        assert abs(got.value - want) < 1e-11 * (1 + abs(want))
        if isinstance(z, complex):
            assert abs(got.value - want) <= got.error_estimate


def test_hankel_routes_read_no_prime_tables():
    # the direct route must stay independent of the prime sums that the
    # closed form reads, or one bug could hide in both routes
    _ideal_arrays.cache_clear()
    determinant_direct(QI, trivial_character(QI), 2, 2.5 + 1.5j)
    xi_hankel(Q, CHI4, 3.0, 2.0)
    assert _ideal_arrays.cache_info().misses == 0


def test_regularized_product_matches_closed_form():
    # includes the odd character, whose gamma weight shifts the pi exponent
    cases = [(Q, TRIV, 3.5), (Q, CHI4, 2.5), (QI, trivial_character(QI), 2.5)]
    for fld, chi, z in cases:
        a = regularized_product(fld, chi, z)
        b = determinant_closed(fld, chi, 1, z).value
        assert abs(a - b) < 1e-9 * (1 + abs(b))


def test_xi_hankel_hadamard_oracle():
    # xi(2, z) = -(2 pi)^2 (Lambda'/Lambda)'(z), by squaring the zero sum;
    # the right side via a 5-point second derivative of log Lambda
    h = 1e-2
    for z in (2.0, 3.0):
        stencil = [(-2, -1.0 / 12), (-1, 16.0 / 12), (0, -30.0 / 12),
                   (1, 16.0 / 12), (2, -1.0 / 12)]
        d2 = sum(c * math.log(abs(completed_lambda(Q, TRIV, z + k * h)))
                 for k, c in stencil) / h ** 2
        want = -(2 * math.pi) ** 2 * d2
        got = xi_hankel(Q, TRIV, 2.0, z)
        assert abs(got.value - want) < 1e-5 * (1 + abs(want))
        assert abs(got.value.imag) < 1e-10


def test_xi_hankel_contour_independence(monkeypatch):
    # xi does not depend on the circle radius the code chooses
    z = 3.0
    values = []
    for delta in (0.3, 0.6):
        monkeypatch.setattr(determinants, "_circle_radius",
                            lambda z, delta=delta: delta)
        values.append(xi_hankel(Q, TRIV, 2.5, z).value)
    assert abs(values[0] - values[1]) < 1e-10


def test_xi_hankel_guards():
    # the pole guard of the gamma-factor Hurwitz zetas, for every character
    for fld, chi in ((Q, TRIV), (Q, CHI4), (QI, trivial_character(QI))):
        with pytest.raises(PoleAtOne):
            xi_hankel(fld, chi, 1.0, 3.0)
        with pytest.raises(PoleAtOne):
            xi_hankel(fld, chi, 1.0 + 1e-9j, 3.0)
    # the circle around z must stay in Re(w) > 1
    for z in (1.0, 0.5 + 2j, complex(math.nan)):
        with pytest.raises(DomainError):
            xi_hankel(Q, TRIV, 2.0, z)


def test_log_derivative_bound_is_a_bound():
    # the a priori bound of the ray's cut ends must dominate |L'/L|
    for fld, chi in ((Q, TRIV), (Q, CHI4), (QI, trivial_character(QI)),
                     (Q, kronecker_character(-23))):
        for sigma in (1.3, 1.44, 1.45, 2.0, 5.0, 30.0, 81.0):
            bound = _log_derivative_bound(fld, sigma)
            for t in (0.0, 0.7, 14.1):
                assert abs(l_log_derivative(fld, chi, complex(sigma, t))) \
                    <= bound


def test_direct_depth_four_dirichlet_within_claims():
    # far out on the ray L'/L of chi_-4 is ~3^-x; formed as a difference
    # that cancels to rounding noise, the x^3 weight kept the ray from
    # settling
    for z in (1.3, 1.5, 2.0, 3.0):
        direct = determinant_direct(Q, CHI4, 4, z)
        closed = determinant_closed(Q, CHI4, 4, z)
        assert abs(direct.value - closed.value) \
            <= direct.error_estimate + closed.error_estimate


def _ray_by_dirichlet_series(k: int, z: float) -> float:
    # int_0^inf (zeta'/zeta)(z+x) x^k dx = -sum Lambda(n) n^-z k!/log(n)^(k+1)
    sieve = bytearray([1]) * 2001
    terms = []
    for p in range(2, 2001):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
            pk = p
            while pk <= 2000:
                terms.append(math.log(p) * pk ** -z * math.factorial(k)
                             / math.log(pk) ** (k + 1))
                pk *= p
    return -math.fsum(terms)


@pytest.mark.parametrize("k", [14, 20, 30, 60])
def test_deep_ray_against_dirichlet_series(k):
    # the weight x^k peaks at x = k / log 2, so a ray cut at a fixed x = 80
    # lost 3e-11 relative at k = 14 and 1e-4 at k = 30, and at k = 60 its
    # tail bound was infinite
    value, err = _ray(Q, TRIV, complex(-k), 2.0 + 0j, 0.0, DEFAULT_CONFIG)
    exact = _ray_by_dirichlet_series(k, 2.0)
    assert abs(value - exact) <= err
    assert abs(value - exact) <= 1e-14 * abs(exact)
    assert err <= 1e-11 * abs(exact)


# int_0^inf (zeta'/zeta)(z+x) x^k dx from mpmath 1.3 (the same digits at
# dps 30 and 40; at k = 0 it is -log zeta(z)):
#   mp.mp.dps = 30
#   f = lambda x: mp.zeta(z + x, derivative=1) / mp.zeta(z + x) * x ** k
#   mp.quad(f, [0, 1, 2, 4, 8, 16, 32, 64, 128, mp.inf])
RAY_PINS = {
    (0, 1.3): -1.36913528557117018543349,
    (1, 1.3): -1.111214170033795432473197,
    (3, 1.3): -8.926975295665010422110674,
    (0, 2 + 1.5j): -0.0322006791206019907625 + 0.3641722507733556586720j,
    (1, 2 + 1.5j): -0.1253508905565935312950 + 0.4428673680354322975805j,
    (3, 2 + 1.5j): -2.137053977557562430575 + 4.482350727601453789172j,
}


@pytest.mark.parametrize("k, z", list(RAY_PINS))
def test_ray_against_mpmath_at_benchmark_depths(k, z):
    # the weights x^0, x^1 and x^3 of depths 1, 2 and 4; the claim is the
    # panels' Kronrod-Gauss differences, which reach 1.7e-11 of the value at
    # x^3 on z = 1.3 (2.4e-11 at x^0 on z = 2 + 1.5i with the exp-sinh map)
    value, err = _ray(Q, TRIV, complex(-k), complex(z), 0.0, DEFAULT_CONFIG)
    exact = RAY_PINS[k, z]
    assert abs(value - exact) <= err
    assert abs(value - exact) <= 1e-14 * abs(exact)
    assert err <= 2e-11 * abs(exact)


def test_direct_determinant_settles_in_one_pass(monkeypatch):
    # over the benchmark's Re z in [1.8, 3.5], |Im z| <= 3.7 and depths 1-3,
    # the ray's six starting panels settle at once: one L'/L call of 126
    # nodes, one kernel chunk (63 + 42 + 42 nodes in three calls, or four,
    # with the exp-sinh map)
    calls = []

    def counted(fld, chi, s):
        calls.append(np.asarray(s).size)
        return l_log_derivative(fld, chi, s)
    monkeypatch.setattr(determinants, "l_log_derivative", counted)
    for fld, chi in ((Q, TRIV), (Q, CHI4), (QI, trivial_character(QI))):
        for r in (1, 2, 3):
            for z in (1.8 - 3.7j, 2.5 + 1.2j, 3.5 + 3.7j):
                calls.clear()
                determinant_direct(fld, chi, r, z)
                assert calls == [126], (fld, chi, r, z)


def test_deep_direct_determinant_within_claims():
    for chi in (TRIV, CHI4):
        direct = determinant_direct(Q, chi, 15, 2.5)
        closed = determinant_closed(Q, chi, 15, 2.5)
        assert abs(direct.value - closed.value) \
            <= direct.error_estimate + closed.error_estimate


@pytest.mark.parametrize("quad_tol", [1e-12, 1e-13])
def test_direct_route_at_tight_quad_tol(quad_tol):
    cfg = DEFAULT_CONFIG.with_updates(quad_tol=quad_tol)
    z = 1.4 + 2j
    for r in (1, 2, 3, 4):
        direct = determinant_direct(Q, CHI4, r, z, cfg)
        closed = determinant_closed(Q, CHI4, r, z)
        assert abs(direct.value - closed.value) \
            <= direct.error_estimate + closed.error_estimate


def test_xi_zero_sum_vs_hankel_within_tail():
    table = builtin_zeta_zeros()
    for s, z in ((3.0, 2.0), (2.5, 3.0)):
        zs = xi_zero_sum(Q, TRIV, s, z, table)
        hk = xi_hankel(Q, TRIV, s, z)
        assert abs(zs.value - hk.value) <= zs.error_estimate + hk.error_estimate
        assert abs(zs.error_estimate
                   - truncation_tail_estimate(Q, TRIV, s, z,
                                              table.completeness_height)) \
            < 1e-12


@settings(max_examples=30, deadline=None)
@given(s=st.builds(complex, st.floats(1.5, 8.0), st.floats(-3.0, 3.0)),
       z=st.builds(complex, st.floats(1.3, 4.0), st.floats(-3.0, 3.0)))
def test_xi_routes_agree_within_their_claims(s, z):
    zs = xi_zero_sum(Q, TRIV, s, z, builtin_zeta_zeros())
    hk = xi_hankel(Q, TRIV, s, z)
    assert abs(zs.value - hk.value) <= zs.error_estimate + hk.error_estimate


def test_xi_zero_sum_gap_shrinks_with_more_zeros():
    table = builtin_zeta_zeros()
    hk = xi_hankel(Q, TRIV, 3.0, 2.0).value
    gaps = []
    for n in (25, 50, 100):
        zs = xi_zero_sum(Q, TRIV, 3.0, 2.0, table.truncated(n))
        gaps.append(abs(zs.value - hk))
    assert gaps[0] > gaps[1] > gaps[2]


def test_xi_zero_sum_domain_guards():
    table = builtin_zeta_zeros()
    with pytest.raises(DomainError):
        xi_zero_sum(Q, TRIV, 0.5, 2.0, table)
    with pytest.raises(DomainError):
        xi_zero_sum(Q, TRIV, 2.0, 0.5, table)


def test_determinant_domain_guard():
    with pytest.raises(DomainError):
        determinant_closed(Q, TRIV, 2, 0.5)
    with pytest.raises(DomainError):
        determinant_direct(Q, TRIV, 2, 0.5)


@pytest.mark.parametrize("route", [determinant_closed, determinant_direct])
def test_underflowing_determinant_is_a_domain_error(route):
    # -log Xi_18(2.5) is about -862, below log of the smallest normal
    # double (-708.4): exp of it is 0, which an error of 0 would call exact
    with pytest.raises(DomainError, match="underflows"):
        route(Q, TRIV, 18, 2.5)
