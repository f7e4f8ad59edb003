"""Determinants and the xi function: contour route, zero-sum route, closed
forms, and the depth-1 reduction to the completed L-function."""
import cmath
import json
import math
import os
import subprocess
import sys

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
from polydet import determinants, special_functions
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


@pytest.mark.parametrize("fld, chi", [(Q, TRIV), (Q, CHI4),
                                      (QI, trivial_character(QI))])
@pytest.mark.parametrize("z", [2.0 + 40.0j, 1.1 + 0.3j, 1.5 - 20.0j])
def test_routes_agree_far_up_and_near_re_w_one_half(fld, chi, z):
    # the arch pieces at w = 1 + 20i (z = 2 + 40i) and Re w = 0.55 (Q at z
    # = 1.1 + 0.3i), read by the Abel-Plana helper on the direct route and
    # by the kernel on the closed one; the gaps sit below 0.1 of the claims
    for r in (1, 2, 3):
        direct = determinant_direct(fld, chi, r, z)
        closed = determinant_closed(fld, chi, r, z)
        assert abs(direct.value - closed.value) \
            <= direct.error_estimate + closed.error_estimate, r
        assert direct.error_estimate <= 1e-10 * abs(closed.value), r


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


# Xi_r(2.5 + 0.5i) from its closed form in mpmath 1.3 at dps 30, with
# log L^(r) summed over the prime powers n <= 10^6 (the tail is below 1e-16
# of the value at r >= 8):
#   w, base = ((z + 1) / 2 if odd else z / 2), mp.pi
#   log Xi = (-1)^(r-1) (r-1)! (2 pi)^(1-r)
#              * sum_n Lambda(n) chi(n) n^-z / log(n)^r
#            + [not odd] sum_{u in (z, z-1)} (u / 2 pi)^(r-1) log(u / 2 pi)
#            - base^(1-r) mp.bernpoly(r, w) log(base) / r
#            + base^(1-r) mp.zeta(1 - r, w, derivative=1)
DIRECT_PINS = {
    (False, 8): 0.9711723963346561309759 + 0.008554732671219645837885j,
    (False, 12): 0.5233312498796326831726 + 0.1197474825636318904734j,
    (False, 15): 12696015.63305640852475 + 4648975.036554668765617j,
    (False, 17): 1.477346388358527863604e+90 + 5.862859765207726579432e+89j,
    (True, 8): 1.000408913157760585893 - 0.0002991919136470285377318j,
    (True, 12): 1.001285141959016882389 - 0.000785132203991971032547j,
    (True, 15): 0.9914781596204471788131 + 0.005182328706200289736995j,
    (True, 17): 0.9575185406204080285373 + 0.02523845677384480934655j,
    (True, 20): 1.91300558861598458925 - 0.9623323628617377845806j,
}


@pytest.mark.parametrize("odd, r", list(DIRECT_PINS))
def test_deep_direct_determinant_against_mpmath(odd, r):
    # with the Euler-Maclaurin arch piece Q was off by 6.1e-9, 5.5e-6,
    # 1.3e-2 and 0.19 relative at r = 8, 12, 15 and 17, and chi_-4 raised
    # DomainError at r = 20
    got = determinant_direct(Q, CHI4 if odd else TRIV, r, 2.5 + 0.5j)
    want = DIRECT_PINS[odd, r]
    assert abs(got.value - want) <= got.error_estimate
    assert abs(got.value - want) <= 1e-12 * abs(want)


def test_direct_determinant_kernel_calls(monkeypatch):
    # the arch piece reads no kernel: one call per L-factor of the ray's
    # 126 L'/L nodes (zeta and L(chi_-4) for Q(i))
    calls = []
    core = special_functions._em_core

    def counted(*args):
        calls.append(args[0].size)
        return core(*args)
    monkeypatch.setattr(special_functions, "_em_core", counted)
    for fld, chi, n in ((Q, TRIV, 1), (Q, CHI4, 1),
                        (QI, trivial_character(QI), 2)):
        for r in (1, 2, 3):
            calls.clear()
            determinant_direct(fld, chi, r, 2.5 + 1.2j)
            assert len(calls) == n, (fld, chi, r, calls)


# the (s, z) of the twelve xi points of the benchmark's pool (Q)
POOL_XI = [(5.62 - 0.344j, 2.506 - 1.676j), (5.35 + 0.914j, 2.759 - 2.65j),
           (5.867 - 0.28j, 1.907 + 2.619j), (5.07 + 0.564j, 1.903 - 2.938j),
           (6.97 - 0.599j, 2.956 - 1.042j), (6.564 - 0.708j, 3.386 + 2.311j),
           (6.123 - 0.923j, 2.288 - 0.259j), (5.095 + 0.977j, 2.65 - 2.768j),
           (5.877 + 0.48j, 2.758 - 0.447j), (5.694 - 0.768j, 2.442 + 3.673j),
           (5.851 + 0.772j, 2.867 - 1.4j), (5.847 - 0.574j, 1.961 - 1.237j)]


def test_xi_circle_is_one_kernel_chunk(monkeypatch):
    # the circle starts as 6 panels, 126 nodes, and settles in one pass
    circle = []

    def counted(fld, chi, w):
        w = np.asarray(w)
        if np.allclose(np.abs(w - z), determinants._circle_radius(z)):
            circle.append(w.size)
        return l_log_derivative(fld, chi, w)
    monkeypatch.setattr(determinants, "l_log_derivative", counted)
    for s, z in POOL_XI:
        circle.clear()
        xi_hankel(Q, TRIV, s, z)
        assert circle == [126], (s, z)


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


# The polydet functions that both routes reach, in five groups.  The north
# star keeps the routes independent, so a change that points one route at
# the other's evaluator (the closed route at `_abel_plana`, the direct route
# at `poly_l_log_euler`) shares more names and fails the test below.
SHARED_BY_BOTH_ROUTES = {
    "L'/L and its Euler-Maclaurin kernel": {
        "l_functions.l_log_derivative", "l_functions._l_and_ds",
        "l_functions._dirichlet_and_ds", "special_functions.hurwitz_zeta_em",
        "special_functions._em_core", "special_functions._exp_sums",
        "special_functions._expm1_quotients", "special_functions._fields",
        "special_functions._joined", "special_functions._omitted",
        "special_functions._shift_blocks", "special_functions._split_groups",
        "special_functions._bern_over_fact",
        "special_functions._build_node_table",
        "special_functions._NodeTable.need",
        "special_functions._NodeTable.nbytes",
        "special_functions._TableCache.get"},
    "the quadrature engine": {
        "quadrature.integrate_polyline", "quadrature._refine",
        "quadrature._start", "quadrature._path", "quadrature._panels",
        "quadrature._sum_in_order", "quadrature._gauss_rule",
        "quadrature._read_only", "quadrature.laguerre_rule"},
    "the Bernoulli closed form": {
        "special_functions.bernoulli_poly",
        "special_functions.bernoulli_number",
        "special_functions._bernoulli_poly_coeffs",
        "special_functions._bernoulli_zero_value",
        "special_functions._trivial_zero_values"},
    "character data": {
        "l_functions._check_pair", "fields_and_characters.ArchPlace.w",
        "fields_and_characters.HeckeCharacter.arch_places",
        "fields_and_characters.HeckeCharacter.epsilon",
        "fields_and_characters.HeckeCharacter.is_principal",
        "fields_and_characters.HeckeCharacter.parity",
        "fields_and_characters.HeckeCharacter.value_at_int",
        "fields_and_characters.NumberField.is_rational"},
    "Result.from_log": {"special_functions.Result.from_log"},
}

# One route in a fresh interpreter, so that no cache filled by the other
# hides a call: the polydet functions it reaches (nested functions,
# comprehensions, lambdas and dunders left out) on Q and chi_-4,
# r = 1, 2, 3, 6, z = 2, 2.5+1.5i
_ROUTE_CALLS = r"""
import json, os, sys
import polydet
root = os.path.dirname(polydet.__file__) + os.sep
route = getattr(polydet, "determinant_" + sys.argv[1])
q = polydet.NumberField.rational()
chis = (polydet.trivial_character(q), polydet.kronecker_character(-4))
seen = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(root):
        module = code.co_filename[len(root):-3].replace(os.sep, ".")
        seen.add(module + "." + code.co_qualname)

sys.setprofile(profile)
for chi in chis:
    for r in (1, 2, 3, 6):
        for z in (2.0, 2.5 + 1.5j):
            route(q, chi, r, z)
sys.setprofile(None)
print(json.dumps(sorted(n for n in seen if "<" not in n
                        and not n.rsplit(".", 1)[1].startswith("__"))))
"""


def test_routes_share_only_the_pinned_functions():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    children = [subprocess.Popen([sys.executable, "-c", _ROUTE_CALLS, route],
                                 env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
                for route in ("closed", "direct")]
    reached = []
    for child in children:
        out, err = child.communicate()
        assert child.returncode == 0, err
        reached.append(set(json.loads(out)))
    closed, direct = reached
    allowed = set().union(*SHARED_BY_BOTH_ROUTES.values())
    assert sorted(closed & direct - allowed) == []   # newly shared
    assert sorted(allowed - (closed & direct)) == []   # no longer shared
    # each route's own arch piece and L-function data stay its own
    assert "special_functions._abel_plana" in direct - closed
    assert "poly_l.poly_l_log_euler" in closed - direct
