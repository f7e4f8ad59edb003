"""Acceptance gate: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Each criterion drives the matching verification suite at its stated
tolerances and, where a runtime budget applies, asserts it.
"""
import time

from polydet.verification import run_suite


def _gate(idx: int, label: str, suite: str, budget: float | None = None):
    t0 = time.perf_counter()
    results = run_suite(suite)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results)
    in_time = budget is None or elapsed < budget
    # report the check closest to (or past) its tolerance
    tight = max(results, key=lambda r: r.measured / r.tolerance)
    tag = "PASS" if ok and in_time else "FAIL"
    clock = f"  time={elapsed:.1f}s" + (f"/{budget:.0f}s" if budget else "")
    print(f"[{tag}] criterion {idx}: {label}  "
          f"worst={tight.measured:.3e} (tol={tight.tolerance:.0e}, "
          f"{tight.name}){clock}")
    assert ok, f"criterion {idx} failed: " \
        + "; ".join(r.line() for r in results if not r.passed)
    assert in_time, f"criterion {idx} overran budget: {elapsed:.1f}s"


def test_criterion_1_lerch_bernoulli():
    _gate(1, "kernel vs Abel-Plana zeta' within claims, Lerch and shift "
          "residuals <= 1e-10", "special", budget=5.0)


def test_criterion_2_ladder_identity():
    _gate(2, "derivative ladder residuals on a circle", "ladder", budget=30.0)


def test_criterion_3_two_route_determinants():
    _gate(3, "closed vs direct determinant, 27 cases", "theorem",
          budget=300.0)


def test_criterion_4_depth_one_product():
    _gate(4, "depth-1 determinant matches completed product", "deninger",
          budget=30.0)


def test_criterion_5_explicit_formula():
    _gate(5, "zero-sum vs contour within estimates", "explicit", budget=120.0)


def test_criterion_6_zero_finder():
    _gate(6, "zero ordinates and factorization", "zerofinder")


def test_criterion_7_monodromy():
    _gate(7, "loop counts and strip defect", "monodromy")


def test_criterion_8_continuation_overlap():
    _gate(8, "continued vs Euler-product values", "continuation")
