"""Depth-r L-functions: Euler sums, ladder identity, continuation, monodromy."""
import cmath
import math
import warnings

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydet import (
    DEFAULT_CONFIG,
    DomainError,
    NonClosedLoop,
    NumberField,
    PathSpec,
    PathLeavesOmega,
    determinant_closed,
    dirichlet_character_by_index,
    erh_monodromy_defect,
    kronecker_character,
    l_value,
    log_l_series,
    poly_l_continued,
    poly_l_euler,
    poly_l_log_continued,
    poly_l_log_euler,
    poly_l_ladder_residual,
    trivial_character,
)
from polydet.l_functions import _ideal_arrays
from polydet.poly_l import _EULER_NORM, _circle_derivative

Q = NumberField.rational()
TRIV = trivial_character(Q)
CHI4 = kronecker_character(-4)
QI = NumberField.quadratic(-1)
CHI5 = dirichlet_character_by_index(5, 1)     # complex, order 4

# regression value: continued L^(2) for chi_-4 at s = 0.8, below the
# abscissa of convergence, real because the character is self-dual
L2_CHI4_08 = 0.7478397531605411
# depth-1 closed determinant for chi_5 (index 1) at 1.01 + 2i, where the
# path from the anchor stays right of Re(s) = 1 and needs no zero scan
XI1_CHI5 = 0.06167239184477233 - 0.1476106335722032j
# ordinate of the first zero of zeta
GAMMA_1 = 14.134725141734695


def test_depth_one_euler_is_l_value():
    for s in (3.0, 2.5 + 1.0j):
        res = poly_l_euler(Q, TRIV, 1, complex(s))
        gap = abs(res.value - l_value(Q, TRIV, complex(s)))
        assert gap <= res.error_estimate + 1e-11
        assert res.route == "euler"


def test_euler_depth_guards():
    with pytest.raises(DomainError):
        poly_l_euler(Q, TRIV, 0, 3.0)
    with pytest.raises(DomainError):
        poly_l_euler(Q, TRIV, 2, 1.01)   # needs Re(s) above the series floor


def test_series_domain_edges_at_floor():
    # log L and L^(r) right of 1 share the Euler route's one floor: it
    # accepts Re(s) = 1.02 itself, and rejects 1.01 and a NaN real part
    for s in (1.02, 1.02 + 3.0j):
        assert cmath.isfinite(log_l_series(Q, TRIV, s))
        res = poly_l_euler(Q, CHI4, 2, s)
        assert math.isfinite(abs(res.value)) and res.error_estimate > 0.0
    for s in (1.01, 1.01 + 3.0j, complex(math.nan, 1.0)):
        with pytest.raises(DomainError):
            log_l_series(Q, TRIV, s)
        with pytest.raises(DomainError):
            poly_l_euler(Q, CHI4, 2, s)


def _mp_log_l(label, s):
    """mpmath's log L: zeta, L(chi_-4) = 4^-s (zeta(s, 1/4) - zeta(s,
    3/4)), and the Dedekind zeta of Q(i) as the sum of the two logs."""
    with mp.workdps(30):
        s = mp.mpc(s)
        log_zeta = mp.log(mp.zeta(s))
        log_chi4 = mp.log(4 ** -s * (mp.zeta(s, mp.mpf(1) / 4)
                                     - mp.zeta(s, mp.mpf(3) / 4)))
        return complex({"Q": log_zeta, "chi4": log_chi4,
                        "Qi": log_zeta + log_chi4}[label])


@pytest.mark.parametrize("label, fld, chi", [
    ("Q", Q, TRIV), ("chi4", Q, CHI4), ("Qi", QI, trivial_character(QI))])
def test_log_l_series_against_mpmath_within_its_claim(label, fld, chi):
    for sigma in (1.02, 1.05, 1.3, 2.0, 3.0):
        for t in (0.0, 14.0):
            s = complex(sigma, t)
            _, err, _ = poly_l_log_euler(fld, chi, 1, s)
            assert abs(log_l_series(fld, chi, s) - _mp_log_l(label, s)) <= err


def test_log_l_series_builds_only_the_euler_table():
    # log L reads the prime ideals to the Euler route's norm bound alone
    _ideal_arrays.cache_clear()
    log_l_series(Q, TRIV, 3.0)
    info = _ideal_arrays.cache_info()
    assert info.currsize == 1
    _ideal_arrays(Q, TRIV, _EULER_NORM)
    assert _ideal_arrays.cache_info().misses == info.misses


def test_circle_derivative_against_closed_forms():
    # the first and second derivatives of e^(2s) and log s at s = 2.5
    s = 2.5
    for f, d1, d2 in ((lambda v: cmath.exp(2 * v), 2 * math.exp(2 * s),
                       4 * math.exp(2 * s)),
                      (cmath.log, 1 / s, -1 / s ** 2)):
        for m, want in ((1, d1), (2, d2)):
            got = _circle_derivative(f, s, m)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_ladder_residuals():
    # d/ds log L^(r) = -log L^(r-1), differentiated on a circle
    assert poly_l_ladder_residual(Q, TRIV, 2, 2.5) < 1e-12
    assert poly_l_ladder_residual(Q, CHI4, 2, 3.0) < 1e-12
    assert poly_l_ladder_residual(Q, TRIV, 3, 2.5) < 1e-12


def test_ladder_one_step_depth_three():
    # one derivative of log L^(3) lands on log L^(2)
    assert poly_l_ladder_residual(Q, TRIV, 3, 2.5, target_depth=2) < 1e-12


def test_ladder_circle_domain_guard():
    # the circle around 1.05 reaches Re(s) = 0.55, left of the Euler
    # route's floor 1.02
    with pytest.raises(DomainError):
        poly_l_ladder_residual(Q, TRIV, 2, 1.05)
    for d in (0, 2, 1.5):
        with pytest.raises(DomainError):
            poly_l_ladder_residual(Q, TRIV, 2, 2.5, target_depth=d)


def test_continued_overlap_with_euler():
    ref = poly_l_euler(Q, TRIV, 2, 2.5)
    got = poly_l_continued(Q, TRIV, 2, 2.5)
    assert abs(got.value - ref.value) < 1e-7
    assert got.route == "continued"


def test_continued_path_independence():
    s = 2.0 + 1.0j
    straight = poly_l_continued(Q, TRIV, 2, s)
    bent = poly_l_continued(Q, TRIV, 2, s,
                            path=PathSpec((3.0 + 0j, 2.5 + 1.5j, s)))
    assert abs(straight.value - bent.value) < 1e-8


def test_continued_at_anchor_degenerates_to_euler():
    got = poly_l_continued(Q, TRIV, 3, 3.0)
    ref = poly_l_euler(Q, TRIV, 3, 3.0)
    assert abs(got.value - ref.value) < 1e-14
    assert got.route == "continued"


def test_continued_below_convergence_regression():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = poly_l_continued(Q, CHI4, 2, 0.8)
    assert abs(res.value.imag) < 1e-9
    assert abs(res.value - L2_CHI4_08) < 1e-9


def test_continued_certified_tails_cover_gap():
    # at s = 1.5 the Euler route tail is large but certified; the two
    # routes must agree within the sum of their claimed tails
    ref = poly_l_euler(Q, TRIV, 2, 1.5)
    got = poly_l_continued(Q, TRIV, 2, 1.5)
    gap = abs(got.value - ref.value)
    assert gap <= got.error_estimate + ref.error_estimate


def test_continued_warns_near_critical_line():
    with pytest.warns(UserWarning, match="assumed zero locations"):
        poly_l_continued(Q, CHI4, 2, 0.5 + 3.0j)


def test_continued_blocks_pole_cut():
    # for the principal character the real axis left of 1 is cut
    with pytest.raises(PathLeavesOmega):
        poly_l_continued(Q, TRIV, 2, 0.8)


# paths that cross a cut between two quadrature nodes, where the integral
# lands on another branch of the log (off by -2 pi i and +2 pi i from the
# straight paths' 0.2748 - 1.3650i and -0.5067 - 0.5881i) while its error
# claim stays near 1e-13
@pytest.mark.parametrize("s, path", [
    (0.3 + 20.0j, (3.0, -1.0 + 10.0j, 0.3 + 20.0j)),   # the zero cut at 14.13i
    (0.7 + 2.0j, (3.0, 0.7 - 1.0j, 0.7 + 2.0j)),       # the pole cut
])
def test_continued_path_crossing_a_cut_raises(s, path):
    with pytest.raises(PathLeavesOmega, match="crosses the cut"):
        poly_l_log_continued(Q, TRIV, 1, s, path=PathSpec(path))


def test_continued_detour_right_matches_straight_path():
    s = 0.3 + 20.0j
    with pytest.warns(UserWarning, match="assumed zero locations"):
        straight, err = poly_l_log_continued(Q, TRIV, 1, s,
                                             path=PathSpec((3.0, s)))
    with pytest.warns(UserWarning, match="assumed zero locations"):
        detour, derr = poly_l_log_continued(
            Q, TRIV, 1, s, path=PathSpec((3.0, 3.0 + 20.0j, s)))
    assert abs(detour - straight) <= err + derr


@pytest.mark.parametrize("fld, s", [(Q, -0.64 + 16.06j),
                                    (QI, 0.345 + 22.03j)])
def test_continued_default_path_passes_below_the_cuts(fld, s):
    # the straight line from 3 crosses the cut left of 1/2 + i gamma_1
    # (Q) or of a Q(i) zero below Im s; the default path turns at 3 + i Im s
    chi = trivial_character(fld)
    with pytest.warns(UserWarning, match="assumed zero locations"):
        got, err = poly_l_log_continued(fld, chi, 1, s)
    value = cmath.exp(got)
    assert abs(value - l_value(fld, chi, s)) <= abs(value) * math.expm1(err)
    with pytest.raises(PathLeavesOmega):
        poly_l_log_continued(fld, chi, 1, s, path=PathSpec((3.0, s)))


def test_continued_zero_cut_endpoints():
    # the cut runs left from the first zero 1/2 + i gamma_1 and its conjugate
    for s in (complex(0.3, GAMMA_1), complex(0.3, -GAMMA_1)):
        with pytest.raises(PathLeavesOmega):
            poly_l_log_continued(Q, TRIV, 1, s)
    for s in (complex(0.7, GAMMA_1), 2.0 + 14.0j):
        got, _ = poly_l_log_continued(Q, TRIV, 1, s)
        assert abs(cmath.exp(got) - l_value(Q, TRIV, s)) \
            <= 1e-9 * abs(cmath.exp(got))


def test_continued_real_axis_for_an_odd_character():
    # chi_-4 has no pole; its real axis is cut left of the trivial zero -1
    with pytest.warns(UserWarning, match="assumed zero locations"):
        got, _ = poly_l_log_continued(Q, CHI4, 1, -0.5)
    assert abs(cmath.exp(got) - l_value(Q, CHI4, -0.5)) < 1e-12
    with pytest.raises(PathLeavesOmega):
        poly_l_log_continued(Q, CHI4, 1, -1.5)


def test_continued_depth_guard():
    with pytest.raises(DomainError):
        poly_l_continued(Q, TRIV, 0, 2.5)
    for r in (1, 4):
        res = poly_l_continued(Q, TRIV, r, 2.5)
        assert cmath.isfinite(res.value) and res.error_estimate > 0.0
    with pytest.raises(DomainError):
        poly_l_continued(Q, TRIV, 2, 2.5,
                         path=PathSpec((3.0 + 0j, 2.0 + 0j)))  # wrong endpoint


@settings(max_examples=30, deadline=None)
@given(pair=st.sampled_from([(Q, TRIV), (Q, CHI4), (QI, trivial_character(QI)),
                             (Q, CHI5)]),
       r=st.integers(1, 4), re=st.floats(1.5, 4.0), im=st.floats(-2.0, 2.0))
def test_continued_matches_euler_within_claims(pair, r, re, im):
    fld, chi = pair
    s = complex(re, im)
    got = poly_l_continued(fld, chi, r, s)
    ref = poly_l_euler(fld, chi, r, s)
    assert abs(got.value - ref.value) \
        <= got.error_estimate + ref.error_estimate


# log zeta^(r)(s) = sum_l l^-r T_r(l s), T_r(u) = sum_p (log p)^(1-r) p^-u
# = (1/(r-2)!) int_0^inf t^(r-2) P(u + t) dt with P the prime zeta function;
# about six minutes in mpmath, so the values are pinned:
#
#     mp.mp.dps = 20
#     def T(r, u):
#         f = lambda t: t ** (r - 2) * mp.primezeta(u + t)
#         return mp.quad(f, [0, 1, 4, mp.inf]) / mp.factorial(r - 2)
#     def log_zeta_r(r, s):
#         tot, l = 0, 1
#         while True:
#             term = T(r, l * mp.mpc(s)) / l ** r
#             tot += term
#             if abs(term) < 1e-19 and l > 2:
#                 return tot
#             l += 1
LOG_ZETA_R = {
    (2, 1.3): 1.1112141700337953716 + 0j,
    (2, 1.3 + 0.5j): 0.86084147582759723387 - 0.5464894936997792613j,
    (3, 1.3 + 0.5j): 1.0481184979826168281 - 0.50878361671199018345j,
    (4, 1.55 + 2j): 0.063443530686401302552 - 1.1156233711409190133j,
}


@pytest.mark.parametrize("r, s", list(LOG_ZETA_R))
def test_log_euler_against_prime_zeta_reference(r, s):
    got, err, _ = poly_l_log_euler(Q, TRIV, r, s)
    assert abs(got - LOG_ZETA_R[r, s]) <= err <= 1e-11


@pytest.mark.parametrize("r", [1, 2])
def test_log_euler_near_the_pole_within_its_claim(r):
    # at Re s = 1.02 the tail integral carries most of the sum
    s = 1.02 + 0.3j
    got, err, _ = poly_l_log_euler(Q, TRIV, r, s)
    ref, ref_err = poly_l_log_continued(Q, TRIV, r, s)
    assert abs(got - ref) <= err + ref_err


def test_depth_one_closed_determinant_right_of_one():
    chi5 = dirichlet_character_by_index(5, 1)
    got = determinant_closed(Q, chi5, 1, 1.01 + 2.0j)
    assert abs(got.value - XI1_CHI5) <= 1e-13 * abs(XI1_CHI5)


def test_log_continued_depth_one_matches_series_in_overlap():
    got, err = poly_l_log_continued(Q, TRIV, 1, 2.5 + 1.0j)
    assert abs(got - _mp_log_l("Q", 2.5 + 1.0j)) < 1e-14
    assert 0.0 < err < 1e-12


def test_log_continued_depth_one_closed_loop_returns():
    loop = PathSpec((3.0 + 0.0j, 3.0 + 2.0j, 4.0 + 2.0j, 4.0 + 0.0j,
                     3.0 + 0.0j))
    got, _ = poly_l_log_continued(Q, TRIV, 1, 3.0, path=loop)
    assert abs(got - _mp_log_l("Q", 3.0)) < 1e-14


def test_log_continued_path_must_start_at_the_anchor():
    with pytest.raises(DomainError):
        poly_l_log_continued(Q, TRIV, 1, 3.0,
                             path=PathSpec((2.0 + 1.0j, 3.0 + 0.0j)))


def test_monodromy_defect_zero_free_box():
    loop = PathSpec.rectangle(0.6, 0.9, 1.0, 3.0)
    d = erh_monodromy_defect(Q, TRIV, loop)
    assert abs(d) < 1e-9


def test_monodromy_guards():
    with pytest.raises(NonClosedLoop):
        erh_monodromy_defect(Q, TRIV, PathSpec((2.0 + 0j, 3.0 + 0j)))
    with pytest.raises(DomainError):
        erh_monodromy_defect(Q, TRIV, PathSpec.rectangle(0.3, 0.9, 1.0, 2.0))
    with pytest.raises(DomainError):
        # passes within 0.02 of the pole at 1
        erh_monodromy_defect(Q, TRIV, PathSpec.rectangle(0.6, 0.98, -1.0, 1.0))
