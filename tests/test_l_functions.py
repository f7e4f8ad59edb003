"""L-function layer: values, continuation, completion, branch tracking.

mpmath supplies independent oracles: zeta and the Dirichlet L-functions of
small modulus via Hurwitz zeta combinations.
"""
import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polydet import (
    DomainError,
    FieldMismatch,
    HeckeCharacter,
    NearZeroOfL,
    NonClosedLoop,
    NumberField,
    PathSpec,
    PoleAtOne,
    ResidualTooLarge,
    UnsupportedCharacter,
    argument_principle_count,
    completed_lambda,
    determinant_closed,
    determinant_direct,
    dirichlet_character_by_index,
    erh_monodromy_defect,
    kronecker_character,
    l_log_derivative,
    l_value,
    log_l_series,
    root_number,
    trivial_character,
)
from polydet import poly_l, special_functions
from polydet.l_functions import _ideal_arrays, _l_and_ds, _prime_power_sum
from polydet.special_functions import EM_CHUNK, hurwitz_zeta_em, log_gamma

mp.mp.dps = 30

Q = NumberField.rational()
QI = NumberField.quadratic(-1)
RT5 = NumberField.quadratic(5)
TRIV = trivial_character(Q)
CHI4 = kronecker_character(-4)

ZETA_QI_2 = 1.50670300992298503088656504818     # zeta(2) * Catalan
CATALAN = 0.915965594177219015054603514932


def mp_chi4_l(s):
    # L(s, chi_-4) = 4^{-s} (zeta(s, 1/4) - zeta(s, 3/4))
    return 4 ** (-mp.mpc(s)) * (mp.zeta(mp.mpc(s), mp.mpf(1) / 4)
                                - mp.zeta(mp.mpc(s), mp.mpf(3) / 4))


def test_zeta_values_match_mpmath():
    for s in (2.0, 3.0, 1.5, 0.5, -1.5, 2.0 + 1.0j, 0.3 + 2.0j):
        want = complex(mp.zeta(mp.mpc(s)))
        got = l_value(Q, TRIV, complex(s))
        assert abs(got - want) < 1e-10 * (1 + abs(want))


def test_trivial_zeros_at_negative_even_integers():
    # zeta and zeta_Q(i) = zeta L(., chi_-4) vanish at s = -2, -4, -6; the
    # zeta factor must take the exact N = 1 Euler-Maclaurin branch there
    for fld in (Q, QI):
        for s in (-2.0, -4.0, -6.0):
            assert abs(l_value(fld, trivial_character(fld), s)) < 1e-13


def test_l_value_rejects_nan():
    with pytest.raises(DomainError):
        l_value(Q, TRIV, complex(math.nan, 0.0))
    with pytest.raises(DomainError):
        l_value(Q, CHI4, complex(2.0, math.nan))


def test_leibniz_value():
    assert abs(l_value(Q, CHI4, 1.0) - math.pi / 4.0) < 1e-12


def test_catalan_value():
    assert abs(l_value(Q, CHI4, 2.0) - CATALAN) < 1e-12


def test_chi4_matches_mpmath_off_the_line():
    for s in (0.5, -0.5, 0.25 + 3.0j, 1.5 - 2.0j):
        want = complex(mp_chi4_l(s))
        got = l_value(Q, CHI4, complex(s))
        assert abs(got - want) < 1e-10 * (1 + abs(want))


def test_dedekind_zeta_factorizes():
    # zeta_{Q(i)} = zeta * L(chi_-4), an arithmetic identity the
    # implementation does not assume anywhere
    tqi = trivial_character(QI)
    for s in (2.0, 3.0, 1.5, 2.0 + 1.0j):
        lhs = l_value(QI, tqi, complex(s))
        rhs = l_value(Q, TRIV, complex(s)) * l_value(Q, CHI4, complex(s))
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))
    assert abs(l_value(QI, tqi, 2.0) - ZETA_QI_2) < 1e-12


def test_pole_guard():
    with pytest.raises(PoleAtOne):
        l_value(Q, TRIV, 1.0)
    with pytest.raises(PoleAtOne):
        l_value(QI, trivial_character(QI), 1.0 + 1e-10j)
    # non-principal characters are regular at 1
    assert abs(l_value(Q, CHI4, 1.0) - math.pi / 4.0) < 1e-12


def _mp_l(chi, s):
    """L(s, chi) for TRIV, CHI4 or the Dedekind zeta of QI (chi None)."""
    if chi is TRIV:
        return mp.zeta(mp.mpc(s))
    if chi is CHI4:
        return mp_chi4_l(s)
    return mp.zeta(mp.mpc(s)) * mp_chi4_l(s)


def test_euler_product_consistency():
    # the Euler product, exp of the depth-1 Euler route, against mpmath
    for fld, chi, key in ((Q, TRIV, TRIV), (Q, CHI4, CHI4),
                          (QI, trivial_character(QI), None)):
        for s in (3.0, 2.5 + 1.0j):
            ep = cmath.exp(log_l_series(fld, chi, complex(s)))
            want = complex(_mp_l(key, s))
            assert abs(ep - want) < 1e-14 * (1 + abs(want))


def _mp_l_log_derivative(chi, s):
    # L'/L of zeta or of L(chi_-4) = 4^-s (zeta(s, 1/4) - zeta(s, 3/4))
    s = mp.mpc(s)
    if chi is TRIV:
        return complex(mp.zeta(s, 1, 1) / mp.zeta(s))
    a, b = mp.mpf(1) / 4, mp.mpf(3) / 4
    return complex((mp.zeta(s, a, 1) - mp.zeta(s, b, 1))
                   / (mp.zeta(s, a) - mp.zeta(s, b)) - mp.log(4))


def test_log_derivative_two_routes_agree():
    # the analytic L'/L against mpmath's Hurwitz derivatives
    for fld, chi in ((Q, TRIV), (Q, CHI4)):
        for s in (2.5, 3.0 + 1.5j):
            got = l_log_derivative(fld, chi, complex(s))
            assert abs(got - _mp_l_log_derivative(chi, s)) < 1e-14


def _mp_log_derivative(chi, s):
    # L'/L from the Dirichlet series: at Re(s) >= 30 its terms past
    # n = 200 are below 1e-50 of either sum
    s = mp.mpc(s)
    q = chi.modulus
    terms = [(mp.mpc(chi.values[n % q]) * mp.power(n, -s), mp.log(n))
             for n in range(1, 200)]
    return complex(-mp.fsum(t * ln for t, ln in terms)
                   / mp.fsum(t for t, _ in terms))


@pytest.mark.parametrize("disc", [-4, 5, -23])
def test_log_derivative_far_right_against_mpmath(disc):
    # far right L'/L is ~2^-s or 3^-s, so L' may not be formed as a
    # difference that cancels to rounding noise
    chi = kronecker_character(disc)
    for s in (30 + 1j, 60 + 0.5j):
        want = _mp_log_derivative(chi, s)
        got = l_log_derivative(Q, chi, s)
        assert abs(got - want) <= 1e-14 * abs(want)


def test_log_derivative_matches_finite_difference():
    h = 1e-6
    for s in (2.0, 0.3 + 2.0j):
        fd = (cmath.log(l_value(Q, TRIV, s + h)) -
              cmath.log(l_value(Q, TRIV, s - h))) / (2 * h)
        assert abs(l_log_derivative(Q, TRIV, complex(s)) - fd) < 1e-6


def test_log_derivative_guards():
    # L'/L has one route and no floor right of 1: Re(s) = 1.01, below the
    # Euler route's 1.02, is read as anywhere else
    for chi in (TRIV, CHI4):
        want = _mp_l_log_derivative(chi, 1.01)
        assert abs(l_log_derivative(Q, chi, 1.01) - want) \
            <= 1e-14 * abs(want)
    with pytest.raises(TypeError):
        l_log_derivative(Q, TRIV, 3.0, route="series")
    with pytest.raises(DomainError):
        l_log_derivative(Q, TRIV, complex(math.nan, 1.0))
    with pytest.raises(NearZeroOfL):
        l_log_derivative(Q, TRIV, complex(0.5, 14.134725141734695))


def test_log_l_series_is_principal_branch():
    # the canonical branch tends to 0 as Re(s) grows
    assert abs(log_l_series(Q, TRIV, 8.0)) < 5e-3
    # and is mpmath's principal log of zeta
    for s in (2.0, 3.0 + 2.0j):
        want = complex(mp.log(mp.zeta(mp.mpc(s))))
        assert abs(log_l_series(Q, TRIV, complex(s)) - want) < 1e-14


def test_completed_lambda_convention_against_mpmath():
    # Lambda = [s(s-1)/2]^eps A^{s/2} prod Gamma(w_v) L with
    # A = N(f) |d| / (4^{r2} pi^n); checked against mpmath piece by piece
    for s in (2.0, 3.0, 0.4 + 1.3j):
        s = complex(s)
        want = complex(0.5 * s * (s - 1)
                       * mp.power(1 / mp.pi, s / 2) * mp.gamma(mp.mpc(s) / 2)
                       * mp.zeta(mp.mpc(s)))
        got = completed_lambda(Q, TRIV, s)
        assert abs(got - want) < 1e-10 * (1 + abs(want))
    for s in (2.0, 1.5 - 2.0j):
        s = complex(s)
        want = complex(mp.power(4 / mp.pi, s / 2)
                       * mp.gamma((mp.mpc(s) + 1) / 2) * mp_chi4_l(s))
        got = completed_lambda(Q, CHI4, s)
        assert abs(got - want) < 1e-10 * (1 + abs(want))


def test_conductor_factor_values():
    # at s = 2 Lambda = A [s(s-1)/2]^eps Gamma(w) L with [s(s-1)/2] = 1, so
    # Lambda / (Gamma(w) L) from mpmath is the conductor factor
    # A = q / (4^r2 pi^n): 1/pi, 4/pi and 4 / (4 pi^2)
    for fld, chi, key, gamma, want in (
            (Q, TRIV, TRIV, mp.gamma(1), 1 / mp.pi),
            (Q, CHI4, CHI4, mp.gamma(1.5), 4 / mp.pi),
            (QI, trivial_character(QI), None, mp.gamma(2), 1 / mp.pi ** 2)):
        got = completed_lambda(fld, chi, 2.0) / complex(gamma * _mp_l(key, 2))
        assert abs(got - complex(want)) < 2e-14 * float(want)


def test_functional_equation():
    # self-dual cases: Lambda(s) = W Lambda(1-s) with W = 1
    for fld, chi in ((Q, TRIV), (Q, CHI4), (QI, trivial_character(QI)),
                     (RT5, trivial_character(RT5))):
        for s in (0.3 + 2.0j, 0.7 - 1.0j):
            a = completed_lambda(fld, chi, s)
            b = completed_lambda(fld, chi, 1 - s)
            assert abs(a - b) < 1e-9 * (1 + abs(a))


def test_root_numbers_are_one():
    for fld, chi in ((Q, TRIV), (Q, CHI4), (QI, trivial_character(QI)),
                     (RT5, trivial_character(RT5))):
        w = root_number(fld, chi)
        assert abs(w - 1.0) < 1e-9


def test_character_and_field_must_match():
    # a character of Q used with Q(i), and a Dirichlet table attached to
    # Q(i), which the package does not support
    with pytest.raises(FieldMismatch):
        l_value(QI, CHI4, 2.0)
    stray = HeckeCharacter(QI, 4, CHI4.values)
    with pytest.raises(UnsupportedCharacter):
        l_value(QI, stray, 2.0)
    with pytest.raises(UnsupportedCharacter):
        root_number(QI, stray)


def test_functional_equation_complex_characters():
    # Lambda(1 - s, conj chi) = W Lambda(s, chi) with W = i^a sqrt(q) / tau(chi)
    for q in (5, 7, 13, 16):
        chi = dirichlet_character_by_index(q, 1)
        assert not chi.is_self_dual
        w = root_number(Q, chi)
        # the reference: W as the ratio of the two sides at two samples
        for s in (0.3 + 2.0j, 0.61 + 2.17j):
            ratio = completed_lambda(Q, chi.conjugate(), 1 - s) / \
                completed_lambda(Q, chi, s)
            assert abs(ratio - w) <= 1e-10
        for s in (0.3 + 2.0j, 0.7 - 1.0j, 0.45 + 7.0j):
            rhs = w * completed_lambda(Q, chi, s)
            lhs = completed_lambda(Q, chi.conjugate(), 1 - s)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_argument_principle_counts():
    # first zeta zero
    loop = PathSpec.rectangle(0.2, 0.8, 13.0, 15.0)
    assert argument_principle_count(Q, TRIV, loop) == 1
    # zero-free box
    empty = PathSpec.rectangle(2.0, 3.0, 1.0, 2.0)
    assert argument_principle_count(Q, TRIV, empty) == 0
    # box around the pole at s = 1: poles count with weight -1
    pole = PathSpec.rectangle(0.9, 1.1, -0.1, 0.1)
    assert argument_principle_count(Q, TRIV, pole) == -1
    with pytest.raises(NonClosedLoop):
        argument_principle_count(Q, TRIV, PathSpec((2.0 + 0j, 3.0 + 0j)))


def test_pathspec_validation():
    with pytest.raises(DomainError):
        PathSpec((2.0 + 0j,))
    with pytest.raises(DomainError):
        PathSpec((2.0 + 0j, 2.0 + 0j))
    rect = PathSpec.rectangle(0.0, 1.0, 0.0, 1.0)
    assert rect.is_closed
    line = PathSpec((0.0, 3.0 + 4.0j))
    assert abs(line.min_distance_to(3.0 + 4.0j)) < 1e-15
    assert abs(PathSpec((-1.0, 1.0)).min_distance_to(1.0j) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# Batched evaluation: an array of nodes gives the one-node values


CHI23 = kronecker_character(-23)
BATCH_PAIRS = [(Q, TRIV), (Q, CHI4), (QI, trivial_character(QI)), (Q, CHI23)]


def _dirichlet_err(chi, s):
    """Error bounds of L and L' at the nodes s for a Dirichlet chi, from
    the EmResult bounds of its pole-subtracted Hurwitz pieces."""
    q = chi.modulus
    ev = ed = 0.0
    for a in range(1, q):
        if chi.values[a]:
            em = hurwitz_zeta_em(s, a, minus_pole=True, scale=q)
            ev = ev + em.err_value
            ed = ed + em.err_ds
    qs = np.abs(np.exp(-s * math.log(q)))
    return qs * ev, qs * ed


node = st.builds(complex, st.floats(-6.0, 8.0), st.floats(-30.0, 30.0))


@settings(max_examples=25, deadline=None)
@given(pair=st.sampled_from(BATCH_PAIRS),
       nodes=st.lists(node, min_size=1, max_size=5))
def test_batch_matches_one_node_calls(pair, nodes):
    fld, chi = pair
    if chi.epsilon == 1:
        assume(all(abs(u - 1.0) > 1e-3 for u in nodes))
    s = np.array(nodes, dtype=np.complex128)
    L, dL, eb, db = _l_and_ds(fld, chi, s)
    assert L.shape == dL.shape == eb.shape == db.shape == s.shape
    for i, u in enumerate(nodes):
        one, done, e1, d1 = _l_and_ds(fld, chi, u)
        # the batch may use a larger split than the node alone; each
        # evaluation lies within its own bound of the true value
        assert abs(L[i] - one) <= e1 + eb[i]
        assert abs(dL[i] - done) <= d1 + db[i]


KRON5 = kronecker_character(5)


def _mp_l_and_ds(fld, chi, s):
    """mpmath's (L, L') at the working precision (30 digits)."""
    s = mp.mpc(s.real, s.imag)
    if not chi.is_principal:
        return mp.dirichlet(s, chi.values), mp.dirichlet(s, chi.values, 1)
    z, dz = mp.zeta(s), mp.zeta(s, derivative=1)
    if fld.is_rational:
        return z, dz
    c = [v.real for v in kronecker_character(fld.discriminant).values]
    l, dl = mp.dirichlet(s, c), mp.dirichlet(s, c, 1)
    return z * l, dz * l + z * dl


# on a 1e-6 grid: mpmath's Hurwitz reflection loses every digit at |s| ~
# 1e-100 (L(s, chi_5) there came back as 2.6e61 i)
grid = st.integers(-10 ** 6, 10 ** 6).map(lambda k: k * 1e-6)


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from([(Q, TRIV), (Q, CHI4), (Q, KRON5),
                             (QI, trivial_character(QI))]),
       s=st.builds(lambda x, y: complex(8.0 * x, 20.0 * y), grid, grid))
@example(pair=(Q, KRON5), s=-8.0 + 0j)     # a trivial zero: L'/L raises
@example(pair=(Q, CHI4), s=-5.5 + 0j)      # L is 2.3e-7 from mpmath
def test_l_claims_cover_the_gap_to_mpmath(pair, s):
    # the kernel's claims, as `lfun` reports them: err_L for L, err_L' for
    # L', and (err_L' + |L'/L| err_L) / (|L| - err_L) for L'/L; where |L|
    # is within its claim of 0 (a trivial zero) L'/L raises instead
    fld, chi = pair
    assume(abs(s - 1.0) >= 0.05)
    L, dL, err, derr = _l_and_ds(fld, chi, s)
    ref, dref = _mp_l_and_ds(fld, chi, s)
    assert abs(ref - L) <= err
    assert abs(dref - dL) <= derr
    if abs(L) <= max(1e-12, err):
        with pytest.raises(NearZeroOfL):
            l_log_derivative(fld, chi, s)
    else:
        v = l_log_derivative(fld, chi, s)
        assert abs(dref / ref - v) <= (derr + abs(v) * err) / (abs(L) - err)


def test_batch_with_a_bad_node_is_a_domain_error():
    with pytest.raises(DomainError):
        l_value(Q, CHI4, np.array([2.0, math.nan, 3.0 + 1.0j]))
    with pytest.raises(DomainError):
        l_log_derivative(QI, trivial_character(QI),
                         np.array([2.0, complex(3.0, math.inf)]))
    with pytest.raises(DomainError):
        hurwitz_zeta_em(np.array([2.0, 3.0]), -0.5)
    with pytest.raises(DomainError):
        log_gamma(np.array([1.5, 2.0 + 1.0j, -0.5]))


def test_trivial_zero_branch_applies_per_node():
    s = np.array([2.0 + 1.0j, -2.0, 0.5 + 14.0j, -1.5])
    got = l_value(QI, trivial_character(QI), s)
    assert abs(got[1]) < 1e-13
    for i in (0, 2, 3):
        assert abs(got[i] - l_value(QI, trivial_character(QI), s[i])) \
            < 1e-12 * (1 + abs(got[i]))


def test_large_batches_reach_the_kernel_in_chunks(monkeypatch):
    sizes = []
    core = special_functions._em_core

    def spy(s, *args):
        sizes.append(len(s))
        return core(s, *args)

    monkeypatch.setattr(special_functions, "_em_core", spy)
    s = 2.0 + np.linspace(0.0, 20.0, 20_000) + 3.0j
    out = l_log_derivative(Q, TRIV, s)
    assert out.shape == s.shape and np.isfinite(out).all()
    assert len(sizes) > 1
    assert max(sizes) <= EM_CHUNK
    assert sum(sizes) == s.size


def test_dirichlet_residues_reach_the_kernel_in_shift_blocks(monkeypatch):
    # chi_-23 has 22 residues; EM_CHUNK + 22 nodes are two chunks, and
    # each chunk sends its residues in blocks of at most EM_TERMS
    # direct-sum terms
    calls = []
    core = special_functions._em_core

    def spy(s, z, N, *args):
        calls.append((len(s), len(z), N))
        return core(s, z, N, *args)

    monkeypatch.setattr(special_functions, "_em_core", spy)
    s = 2.0 + np.exp(np.linspace(-4.0, 4.4, EM_CHUNK + 22)) + 0.5j
    out = l_log_derivative(Q, CHI23, s)
    assert out.shape == s.shape and np.isfinite(out).all()
    chunks = sorted({(n, N) for n, _, N in calls})
    assert [n for n, _ in chunks] == [22, EM_CHUNK]
    want = sum(math.ceil(22 / (special_functions.EM_TERMS // (n * N)))
               for n, N in chunks)
    assert len(calls) == want < 44
    assert all(n * m * N <= special_functions.EM_TERMS for n, m, N in calls)
    assert sum(n * m for n, m, _ in calls) == 22 * s.size


def test_high_in_the_strip_residues_reach_the_kernel_one_at_a_time(
        monkeypatch):
    # at |Im s| ~ 1e5 one residue's direct sum alone (a split of ~4e4) is
    # past EM_TERMS, so the 162 residues of chi_-163 go one per call, not
    # all in one
    calls = []
    core = special_functions._em_core

    def spy(s, z, N, *args):
        calls.append((len(s), len(z), N))
        return core(s, z, N, *args)

    monkeypatch.setattr(special_functions, "_em_core", spy)
    got = l_value(Q, kronecker_character(-163), 0.5 + 1e5j)
    assert cmath.isfinite(got)
    assert len(calls) == 162
    assert all(n == m == 1 and N > special_functions.EM_TERMS
               for n, m, N in calls)


def test_split_cuts_add_no_kernel_call_on_a_scan_grid_or_the_hankel_ray(
        monkeypatch):
    # a chunk is cut only where its nodes' splits differ by a lot: the Q
    # scan grid to 200 and a Q direct determinant's ray and circle send one
    # kernel call per chunk, as with one split per chunk
    calls, chunks = [], []
    core, groups = special_functions._em_core, special_functions._split_groups

    def spy_core(s, *args):
        calls.append(len(s))
        return core(s, *args)

    def spy_groups(*args):
        chunks.append(groups(*args))
        return chunks[-1]

    monkeypatch.setattr(special_functions, "_em_core", spy_core)
    monkeypatch.setattr(special_functions, "_split_groups", spy_groups)
    grid = 0.5 + 1j * np.arange(0.0, 200.0 + 0.05, 0.05)
    assert np.isfinite(completed_lambda(Q, TRIV, grid)).all()
    assert len(calls) == math.ceil(grid.size / EM_CHUNK)
    calls.clear()
    chunks.clear()
    determinant_direct(Q, TRIV, 2, 2.0)
    assert len(calls) == len(chunks) > 0
    assert not any(chunks)


def test_long_paths_stay_within_a_memory_bound(monkeypatch):
    # the monodromy loop of the strip benchmark (~6,000 L-value nodes on
    # the rectangle [0.6, 0.9] x [-30, 30]) and 512 chi_-23 nodes at
    # height 200 (22 residues, split ~85, on the prime-power path): the
    # node-table cache holds at most _NODE_CACHE_BYTES, and a kernel
    # call's arrays grow with its shifts x nodes.  Measured peaks: 1.4 and
    # 3.6 MB (1.5 and 1.3 at 128-node chunks); with 512-node chunks and a
    # cache of eight such tables the loop peaked at ~5 MB
    seen = []
    l_value_of_loop = poly_l.l_value

    def spy(fld, chi, s):
        seen.append(np.array(s))
        return l_value_of_loop(fld, chi, s)
    monkeypatch.setattr(poly_l, "l_value", spy)
    erh_monodromy_defect(Q, TRIV, PathSpec.rectangle(0.6, 0.9, -30.0, 30.0))
    loop = np.concatenate(seen)
    assert loop.size > 6000
    high = 0.5 + 1j * np.linspace(199.0, 201.0, EM_CHUNK)
    for chi, s, bound_mb in ((TRIV, loop, 2.5), (CHI23, high, 5.0)):
        l_value(Q, chi, s[:2])          # plans, rules and imports first
        tracemalloc.start()
        try:
            l_value(Q, chi, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2 ** 20, (chi, peak)


@pytest.mark.parametrize("disc, s, want", [
    (5, -6.0, 0.0),       # chi_5 is even: zeros at the negative even s
    (-4, -5.0, 0.0),      # chi_-4 is odd: zeros at the negative odd s
    (-4, -6.0, -30.5),
    (-23, -4.0, 6816.0),
])
def test_dirichlet_l_at_nonpositive_integers(disc, s, want):
    # L(1 - r, chi) = -q^(r-1) sum_a chi(a) B_r(a/q) / r, from the closed
    # form per residue instead of a kernel sum that cancels to noise
    chi = kronecker_character(disc)
    ref = complex(mp.dirichlet(s, [chi.values[a].real
                                   for a in range(chi.modulus)]))
    assert ref == want
    got = l_value(Q, chi, s)
    assert abs(got - ref) <= _dirichlet_err(chi, np.array([s]))[0][0]
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_l_value_overflow_is_a_domain_error():
    # finite Hurwitz pieces, but q^-s L or the Dedekind product overflows
    with pytest.raises(DomainError):
        l_value(Q, kronecker_character(-163), -150.0)
    with pytest.raises(DomainError):
        l_log_derivative(Q, CHI4, np.array([2.0, -170.0]))
    with pytest.raises(DomainError):
        l_value(QI, trivial_character(QI), -170.0)


def test_chi163_direct_determinant_matches_closed():
    # 162 residues: several shift blocks per chunk on the Hankel ray
    chi = kronecker_character(-163)
    direct = determinant_direct(Q, chi, 2, 2.0)
    closed = determinant_closed(Q, chi, 2, 2.0)
    assert abs(direct.value - closed.value) \
        <= direct.error_estimate + closed.error_estimate


# ---------------------------------------------------------------------------
# Prime-power sum: the flat (power x ideal) pass against per-power sums


def _per_term_sum(fld, chi, s, r, bound):
    """(sum, sum of |terms|) of the prime-power sum with every ideal and
    power summed term by term, over the same table and cutoff."""
    norms, logn, chiv = _ideal_arrays(fld, chi, bound)
    total, size = 0j, 0.0
    l = 1
    while True:
        k = int(np.searchsorted(norms, 10.0 ** (19.0 / (l * s.real)),
                                side="right"))
        if k == 0:
            return total, size
        terms = logn[:k] ** (1 - r) * chiv[:k] ** l \
            * np.exp(-l * s * logn[:k]) / l ** r
        total += terms.sum()
        size += np.abs(terms).sum()
        l += 1


CHI5 = dirichlet_character_by_index(5, 1)     # complex, order 4
SUM_PAIRS = [(Q, TRIV), (Q, CHI4), (QI, trivial_character(QI)),
             (RT5, trivial_character(RT5)), (Q, CHI5)]


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(SUM_PAIRS), r=st.integers(0, 4),
       sigma=st.floats(1.02, 6.0), t=st.floats(-60.0, 60.0),
       bound=st.sampled_from([10_000, 200_000]))
def test_prime_power_sum_matches_per_term_sum(pair, r, sigma, t, bound):
    fld, chi = pair
    s = complex(sigma, t)
    want, size = _per_term_sum(fld, chi, s, r, bound)
    assert abs(_prime_power_sum(fld, chi, s, r, bound) - want) <= 1e-14 * size


def test_prime_power_sum_at_the_largest_sieve_bound():
    fld, chi, s, bound = QI, trivial_character(QI), 1.3 + 0j, 8_000_000
    want, size = _per_term_sum(fld, chi, s, 2, bound)
    assert abs(_prime_power_sum(fld, chi, s, 2, bound) - want) <= 1e-14 * size
