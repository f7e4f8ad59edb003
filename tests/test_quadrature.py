"""Polyline quadrature: the Gauss-Kronrod rule, the Laguerre rules and
their one builder, exactness on polynomials, residues on closed loops, local
refinement, branch tracking, the rounding floor of the error estimate, and
the one non-convergence policy of both entry points.

Integrands take the array of a pass's nodes and return an array."""
import cmath
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_genlaguerre

import polydet
from polydet import (DEFAULT_CONFIG, NumberField, PathSpec, determinant_closed,
                     determinant_direct, erh_monodromy_defect, milnor_gamma,
                     poly_l, quadrature, special_functions, trivial_character,
                     xi_hankel)
from polydet.errors import (BranchStepTooLarge, DomainError,
                            QuadratureNotConverged)
from polydet.quadrature import (integrate_polyline, kronrod_rule,
                                laguerre_rule, tracked_log_polyline)

SQUARE = (-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j)
UNREACHABLE = DEFAULT_CONFIG.with_updates(quad_tol=1e-30, max_refinements=1)

coord = st.floats(min_value=-2.0, max_value=2.0)
point = st.builds(complex, coord, coord)
EPS = np.finfo(float).eps


def _monomial_integrals(degree):
    d = np.arange(degree + 1)
    return d, (1.0 - (-1.0) ** (d + 1)) / (d + 1)


def test_kronrod_rule_exact_to_degree_31_and_gauss_subset_is_leggauss():
    x, wk, wg = kronrod_rule(10)
    d, exact = _monomial_integrals(31)
    assert np.abs(wk @ x[:, None] ** d - exact).max() < 1e-14
    d, exact = _monomial_integrals(19)
    assert np.abs(wg @ x[:, None] ** d - exact).max() < 1e-14
    gx, gw = np.polynomial.legendre.leggauss(10)
    assert np.abs(x[1::2] - gx).max() < 1e-15
    assert np.abs(wg[1::2] - gw).max() < 1e-15 and not wg[::2].any()
    assert (wk > 0).all() and (np.diff(x) > 0).all()


# The reference rules, at 40 digits: scipy's nodes, each polished by three
# Newton steps on L_n^(alpha), whose derivative is -L_(n-1)^(alpha+1), and
# the classical weights, divided by Gamma(alpha + 1) as the rule's are:
#   x += mp.laguerre(n, alpha, x) / mp.laguerre(n - 1, alpha + 1, x)
#   w = mp.gamma(n + alpha + 1) / (mp.factorial(n) * mp.gamma(alpha + 1)
#                                  * x * mp.laguerre(n - 1, alpha + 1, x) ** 2)
# Golub-Welsch weights were off by 0.78 relative at n = 30, alpha = 1
@pytest.mark.parametrize("alpha", [0, 1, 3, 29])
@pytest.mark.parametrize("n", [20, 30, 40])
def test_laguerre_rule_to_full_relative_accuracy(n, alpha):
    want_x, want_w = [], []
    with mp.workdps(40):
        scale = mp.gamma(n + alpha + 1) / (mp.factorial(n)
                                           * mp.gamma(alpha + 1))
        for start in roots_genlaguerre(n, alpha)[0]:
            x = mp.mpf(start)
            for _ in range(3):
                x += mp.laguerre(n, alpha, x) \
                    / mp.laguerre(n - 1, alpha + 1, x)
            want_x.append(float(x))
            want_w.append(float(scale / (x * mp.laguerre(n - 1, alpha + 1,
                                                         x) ** 2)))
    x, w = laguerre_rule(n, float(alpha))
    assert np.abs(x / want_x - 1.0).max() <= 1e-14
    assert np.abs(w / want_w - 1.0).max() <= 2e-14


def test_cached_rules_are_read_only():
    shared = (*laguerre_rule(20, 1.0), *special_functions._abel_plana_rules(),
              *poly_l._tail_rules(2)[:2], quadrature._X, quadrature._WK,
              quadrature._WG, quadrature._W)
    for rule in shared:
        with pytest.raises(ValueError):
            rule[0] = 0.0


def test_rules_need_no_eigensolver(monkeypatch):
    src = Path(polydet.__file__).parent
    assert not [p.name for p in src.glob("*.py") if "linalg" in p.read_text()]

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
    for cached in (laguerre_rule, special_functions._abel_plana_rules,
                   poly_l._tail_rules):
        cached.cache_clear()
    Q = NumberField.rational()
    kronrod_rule(10)
    determinant_direct(Q, trivial_character(Q), 2, 2.0)
    determinant_closed(Q, trivial_character(Q), 2, 2.0)
    milnor_gamma(3, 1.5)


def test_starting_layouts_are_cached_read_only_and_bounded():
    # a path's starting panels and nodes are built once and shared: the
    # cached arrays are read-only, an integral from a cold cache (here one
    # that bisects) equals a warm one bit for bit, and so does a direct
    # determinant, whose ray reuses one layout for every z
    def peaked(u):
        return 1.0 / (u * u + 1e-4) + 1j * u

    def bits(*values):
        return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]

    q = NumberField.rational()
    runs = []
    for _ in range(2):
        quadrature._start.cache_clear()
        cold = integrate_polyline(peaked, (-1.0, 2.0 + 0.5j, 3.0))
        warm = integrate_polyline(peaked, (-1.0, 2.0 + 0.5j, 3.0))
        det = determinant_direct(q, trivial_character(q), 2, 1.6 + 0.4j)
        runs.append(bits(cold.value, cold.error, det.value,
                         det.error_estimate))
        assert cold.levels > 1
        assert bits(cold.value, cold.error) == bits(warm.value, warm.error)
        assert (cold.levels, cold.panels) == (warm.levels, warm.panels)
    assert runs[0] == runs[1]
    assert quadrature._start.cache_info().hits >= 1
    for a in quadrature._start(np.array([-1.0, 3.0 + 0j]).tobytes(),
                               0.5)[:-1]:
        with pytest.raises(ValueError):
            a.flat[0] = 0.0
    # a layout is keyed by the waypoints' bits, the sign of a zero included
    quadrature._start.cache_clear()
    for y in (0.0, -0.0):
        integrate_polyline(np.exp, (-1.0, complex(3.0, y)))
    assert quadrature._start.cache_info().currsize == 2
    size = quadrature._start.cache_info().maxsize
    assert size is not None
    for k in range(size + 5):
        integrate_polyline(np.exp, (0.0, 1.0 + k))
    assert quadrature._start.cache_info().currsize <= size


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(point, min_size=1, max_size=6),
       waypoints=st.lists(point, min_size=2, max_size=4))
def test_polynomials_integrate_exactly_at_first_level(coeffs, waypoints):
    def p(u):
        return sum(c * u ** k for k, c in enumerate(coeffs))

    def antiderivative(u):
        return sum(c * u ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))

    res = integrate_polyline(p, waypoints)
    exact = antiderivative(waypoints[-1]) - antiderivative(waypoints[0])
    assert abs(res.value - exact) <= 1e-10 * max(1.0, abs(exact))
    assert res.levels == 1


@pytest.mark.parametrize("a, expect", [(0.3 + 0.2j, 2j * math.pi),
                                       (2.5 - 0.5j, 0.0)])
def test_closed_square_picks_up_the_residue(a, expect):
    res = integrate_polyline(lambda u: 1.0 / (u - a), SQUARE)
    assert abs(res.value - expect) < 1e-9


def test_both_entry_points_raise_when_not_converged(monkeypatch):
    with pytest.raises(QuadratureNotConverged):
        integrate_polyline(np.exp, (0.0, 1.0 + 1.0j), UNREACHABLE)
    # K21 and G10 agree to the last bit on exp(u / 10), so every panel
    # settles at once; the rounding floor, 1e16 times the tolerance, raises
    with pytest.raises(QuadratureNotConverged):
        integrate_polyline(lambda u: np.exp(u / 10), (0.0, 1.0), UNREACHABLE)
    # the same through the module constants, which the tracked log reads
    monkeypatch.setattr(quadrature, "QUAD_TOL", UNREACHABLE.quad_tol)
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS",
                        UNREACHABLE.max_refinements)
    with pytest.raises(QuadratureNotConverged):
        integrate_polyline(np.exp, (0.0, 1.0 + 1.0j))
    with pytest.raises(QuadratureNotConverged):
        tracked_log_polyline(lambda u: u + 3.0, (0.0, 1.0 + 1.0j))


def test_module_constants_reach_the_routes(monkeypatch):
    # the routes take no config: they read QUAD_TOL and MAX_REFINEMENTS at
    # call time, through both entry points.  Both settle within one
    # bisection here, so the unreachable QUAD_TOL is what makes them raise
    q = NumberField.rational()
    triv = trivial_character(q)
    loop = PathSpec.rectangle(0.6, 0.9, 1.0, 2.0)
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 1)
    assert cmath.isfinite(xi_hankel(q, triv, 2.0, 2.0).value)
    assert abs(erh_monodromy_defect(q, triv, loop)) < 1e-8
    monkeypatch.setattr(quadrature, "QUAD_TOL", UNREACHABLE.quad_tol)
    with pytest.raises(QuadratureNotConverged):
        xi_hankel(q, triv, 2.0, 2.0)
    with pytest.raises(QuadratureNotConverged):
        erh_monodromy_defect(q, triv, loop)


def test_non_finite_level_sum_raises_at_the_first_level():
    calls = []

    def nan_at(u):
        calls.extend(np.atleast_1d(u))
        return math.nan

    with pytest.raises(QuadratureNotConverged):
        integrate_polyline(nan_at, (0.0, 1.0))
    assert len(calls) <= 42     # two panels of 21 nodes, no bisection


def test_path_past_a_near_zero_raises_branch_step(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 1)
    # the zero sits between the two middle nodes of the panel [0.25, 0.5],
    # one bisection below the starting panel [0, 0.5]
    x = kronrod_rule(10)[0]
    rho = 0.375 + 0.125 * (x[10] + x[11]) / 2 + 1e-4j
    with pytest.raises(BranchStepTooLarge) as exc:
        tracked_log_polyline(lambda u: u - rho, (0.0, 1.0))
    assert isinstance(exc.value, QuadratureNotConverged)


@pytest.mark.parametrize("waypoints", [(), (1.0 + 1.0j,)])
def test_fewer_than_two_waypoints_is_a_domain_error(waypoints):
    with pytest.raises(DomainError):
        integrate_polyline(np.exp, waypoints)
    with pytest.raises(DomainError):
        tracked_log_polyline(np.exp, waypoints)


def test_tracked_non_finite_node_raises():
    with pytest.raises(QuadratureNotConverged):
        tracked_log_polyline(lambda u: u * math.nan, (0.0, 1.0))


def test_near_singular_integrand_refines_only_near_the_peak():
    c, e = 0.3, 1e-3
    nodes = []

    def peak(u):
        nodes.extend(u.real)
        return 1.0 / ((u - c) ** 2 + e * e)

    res = integrate_polyline(peak, (0.0, 2.0))
    exact = (math.atan((2.0 - c) / e) + math.atan(c / e)) / e
    assert abs(res.value - exact) <= res.error
    assert res.levels > 5
    nodes = np.asarray(nodes)
    assert np.mean(np.abs(nodes - c) < 0.05) > 0.5
    # uniform doubling to the same finest panel: 4 * 2^(levels-1) panels
    assert nodes.size * 20 < 4 * 2 ** (res.levels - 1) * 21


def test_tracked_log_across_the_branch_cut_with_uneven_panels():
    # arg (u - rho)^2 runs from near -2 pi to 0 on [0, 1]: the principal log
    # jumps by 2 pi i at u = 0.3, the tracked one follows 2 log(u - rho)
    rho = 0.3 + 0.01j

    def antiderivative(u):
        return (u - rho) * cmath.log(u - rho) - u

    res = tracked_log_polyline(lambda u: (u - rho) ** 2, (0.0, 1.0))
    # seeded with the principal value at 0, which is 2 log(-rho) + 2 pi i
    expect = 2.0 * (antiderivative(1.0) - antiderivative(0.0)) + 2j * math.pi
    assert abs(res.value - expect) <= max(res.error, 1e-12)
    assert res.levels > 1 and res.panels < 2 * 2 ** (res.levels - 1)


def test_claimed_error_covers_planted_node_noise():
    # every node carries a bias of 20-30 eps relative, amplified by 1e6: the
    # two rules agree to rounding, so only the roundoff floor can cover it
    def noisy(u):
        return 1e6 * np.exp(1j * u) * (1.0 + 20 * EPS
                                       * (1.0 + 0.5 * np.sin(1e5 * u.real)))

    res = integrate_polyline(noisy, (0.0, 1.0))
    exact = 1e6 * (cmath.exp(1j) - 1.0) / 1j
    assert abs(res.value - exact) > 1e-9
    assert abs(res.value - exact) <= res.error


def test_roundoff_floor_does_not_hold_panels_open(monkeypatch):
    # next to the small circle of this xi a short ray panel carries much of
    # sum |f|: its roundoff floor exceeds its share of a tight tolerance at
    # every bisection, so the floor is charged to the error but may not
    # block settling
    q = NumberField.rational()
    args = (q, trivial_character(q), 3.907 + 2.908j, 1.408 + 0.189j)
    loose = xi_hankel(*args)
    monkeypatch.setattr(quadrature, "QUAD_TOL", 1e-12)
    tight = xi_hankel(*args)
    assert abs(tight.value - loose.value) \
        <= tight.error_estimate + loose.error_estimate
