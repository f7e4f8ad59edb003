"""Polyline quadrature: exactness on polynomials, residues on closed loops,
branch anchoring, and the one non-convergence policy of both entry points.

Integrands take the array of a level's nodes and return an array."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydet import DEFAULT_CONFIG
from polydet.errors import (BranchStepTooLarge, DomainError,
                            QuadratureNotConverged)
from polydet.quadrature import integrate_polyline, tracked_log_polyline

SQUARE = (-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j, -1 - 1j)
UNREACHABLE = DEFAULT_CONFIG.with_updates(quad_tol=1e-30, max_refinements=1)

coord = st.floats(min_value=-2.0, max_value=2.0)
point = st.builds(complex, coord, coord)


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


def test_anchor_selects_the_branch():
    def wf(u):
        return u + 3.0

    wps = (0.0, 1.0 + 1.0j, 2.0 + 0.5j)
    shifted = cmath.log(wf(wps[0])) + 2j * math.pi
    base = tracked_log_polyline(wf, wps)
    moved = tracked_log_polyline(wf, wps, anchor=shifted)
    expect = 2j * math.pi * (wps[-1] - wps[0])
    assert abs(moved.value - base.value - expect) < 1e-12


def test_both_entry_points_raise_when_not_converged():
    with pytest.raises(QuadratureNotConverged):
        integrate_polyline(np.exp, (0.0, 1.0 + 1.0j), UNREACHABLE)
    with pytest.raises(QuadratureNotConverged):
        tracked_log_polyline(lambda u: u + 3.0, (0.0, 1.0 + 1.0j),
                             UNREACHABLE)


def test_non_finite_level_sum_raises_at_the_first_level():
    calls = []

    def nan_at(u):
        calls.extend(np.atleast_1d(u))
        return math.nan

    with pytest.raises(QuadratureNotConverged):
        integrate_polyline(nan_at, (0.0, 1.0))
    assert len(calls) <= 64     # two panels of 32 nodes, no doubling


def test_path_past_a_near_zero_raises_branch_step():
    cfg = DEFAULT_CONFIG.with_updates(gl_nodes=4, max_refinements=1)
    rho = 0.5 + 1e-3j
    with pytest.raises(BranchStepTooLarge) as exc:
        tracked_log_polyline(lambda u: u - rho, (0.0, 1.0), cfg)
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
