"""Named verification suites: each returns a list of CheckResult records
with a measured discrepancy and a pinned tolerance.

Suites:
  special       kernel vs Abel-Plana zeta'(1-r, w), Lerch, Hurwitz shift
  ladder        s-derivatives of depth-r logs, on a circle, walk down the
                ladder; the Euler route against the plain 2M sieve
  theorem       closed form vs exp(-xi') at depths 1..3, gap within both
                claims
  deninger      depth-1 determinant vs elementary multiple of Lambda
  explicit      truncated zero sums vs the contour route
  zerofinder    scanned ordinates vs published values and zero counts
  monodromy     winding/defect checks on zero-free loops
  continuation  Taylor-plus-L'/L continuation vs Euler sums in the overlap
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import EvalConfig, DEFAULT_CONFIG
from .determinants import (determinant_closed, determinant_direct,
                           regularized_product, xi_hankel, xi_zero_sum)
from .errors import PolydetError
from .fields_and_characters import (HeckeCharacter, NumberField,
                                    kronecker_character, trivial_character)
from .l_functions import (PathSpec, _prime_power_sum,
                          argument_principle_count, completed_lambda)
from .poly_l import (erh_monodromy_defect, poly_l_continued, poly_l_euler,
                     poly_l_ladder_residual, poly_l_log_euler)
from .quadrature import tracked_log_polyline
from .special_functions import _abel_plana, hurwitz_zeta_em, log_gamma
from .zero_data import builtin_zeta_zeros, find_zeros, zero_count_estimate

__all__ = ["CheckResult", "SUITES", "run_suite", "run_all", "format_results"]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] {self.suite}:{self.name}  "
                f"measured={self.measured:.3e}  tol={self.tolerance:.1e}")


def _pairs() -> list[tuple[NumberField, HeckeCharacter, str]]:
    q = NumberField.rational()
    gi = NumberField.quadratic(-1)
    return [
        (q, trivial_character(q), "Q-triv"),
        (q, kronecker_character(-4), "Q-chi4"),
        (gi, trivial_character(gi), "Qi-triv"),
    ]


def _class_pairs() -> list[tuple[NumberField, HeckeCharacter, str]]:
    q = NumberField.rational()
    gi = NumberField.quadratic(-1)
    r5 = NumberField.quadratic(5)
    return [
        (q, trivial_character(q), "Q"),
        (gi, trivial_character(gi), "Qi"),
        (r5, trivial_character(r5), "Qrt5"),
    ]


# ---------------------------------------------------------------------------


def suite_special(cfg: EvalConfig = DEFAULT_CONFIG) -> list[CheckResult]:
    out = []
    tol = 1e-10

    # zeta'(1-r, w) by the closed route's kernel and the direct route's
    # Abel-Plana integral: the worst gap over the sum of both claims
    worst = 0.0
    for r in range(1, 7):
        for w in (0.3, 1.0, 2.5, 1.0 + 2.0j, 4.75 - 1.5j):
            em, ap = hurwitz_zeta_em(1 - r, w), _abel_plana(r, w)
            worst = max(worst, abs(em.ds - ap.ds) / (em.err_ds + ap.err_ds))
    out.append(CheckResult("special", "hurwitz-ds-abel-plana", worst, 1.0))

    # Lerch: zeta_s'(0, w) = log Gamma(w) - (1/2) log 2pi
    worst = 0.0
    for w in (0.5, 1.0, 3.7, 2.0 + 1.0j, 6.25 - 2.0j):
        lhs = hurwitz_zeta_em(0, w).ds
        rhs = log_gamma(complex(w)) - 0.5 * _LOG_2PI
        worst = max(worst, abs(lhs - rhs))
    out.append(CheckResult("special", "lerch-loggamma", worst, tol))

    # Hurwitz shift: zeta(s, w) = zeta(s, w+1) + w^-s
    worst = 0.0
    for s in (2.0, -1.5, 0.5 + 3.0j):
        for w in (0.7, 2.2 + 1.0j):
            lhs = hurwitz_zeta_em(s, w).value
            rhs = hurwitz_zeta_em(s, w + 1.0).value + w ** (-s)
            worst = max(worst, abs(lhs - rhs))
    out.append(CheckResult("special", "hurwitz-shift", worst, tol))
    return out


def suite_ladder(cfg: EvalConfig = DEFAULT_CONFIG) -> list[CheckResult]:
    out = []
    q = NumberField.rational()
    chars = [(trivial_character(q), "triv"), (kronecker_character(-4), "chi4")]
    points = np.linspace(2.2, 4.0, 10)
    for r in (2, 3):
        for chi, cname in chars:
            worst = max(poly_l_ladder_residual(q, chi, r, float(s))
                        for s in points)
            out.append(CheckResult("ladder", f"r{r}-{cname}", worst, 1e-12))
    # single rung: one derivative of the depth-3 log meets depth 2
    worst = max(poly_l_ladder_residual(q, trivial_character(q), 3, float(s),
                                       target_depth=2)
                for s in points[::3])
    out.append(CheckResult("ladder", "r3-one-step", worst, 1e-12))
    # the plain 2M sieve reads no L'/L (its own truncation ~2e-9 at r = 2)
    for r in (2, 3):
        for chi, cname in chars:
            gap = abs(_prime_power_sum(q, chi, 2.0 + 0j, r, 2_000_000)
                      - poly_l_log_euler(q, chi, r, 2.0)[0])
            out.append(CheckResult("ladder", f"sieve-r{r}-{cname}", gap, 1e-7))
    return out


def suite_theorem(cfg: EvalConfig = DEFAULT_CONFIG) -> list[CheckResult]:
    """Per (pair, depth): the largest relative gap between the routes, and
    the largest gap over the sum of both routes' claimed errors."""
    out = []
    tol = 1e-6
    for fld, chi, name in _pairs():
        for r in (1, 2, 3):
            worst = worst_claim = 0.0
            for z in (2.0, 3.0, 2.5 + 1.5j):
                c = determinant_closed(fld, chi, r, z, cfg)
                d = determinant_direct(fld, chi, r, z, cfg)
                gap = abs(c.value - d.value)
                worst = max(worst, gap / abs(c.value))
                worst_claim = max(worst_claim, gap / (c.error_estimate
                                                      + d.error_estimate))
            out.append(CheckResult("theorem", f"{name}-r{r}", worst, tol))
            out.append(CheckResult("theorem", f"{name}-r{r}-claims",
                                   worst_claim, 1.0))
    return out


def suite_deninger(cfg: EvalConfig = DEFAULT_CONFIG) -> list[CheckResult]:
    out = []
    for fld, chi, name in _class_pairs():
        const = abs(fld.discriminant)
        worst = 0.0
        for z in np.arange(1.5, 4.01, 0.5):
            z = float(z)
            lam = completed_lambda(fld, chi, z)
            target = const ** (-0.5 * z) * 2.0 ** (-1.0 - 0.5 * fld.r1) \
                * math.pi ** -2.0 * lam
            got = determinant_closed(fld, chi, 1, z, cfg).value
            worst = max(worst, abs(got - target) / abs(target))
            rp = regularized_product(fld, chi, z)
            worst = max(worst, abs(rp - target) / abs(target))
        out.append(CheckResult("deninger", name, worst, 1e-9))
    # frozen special value for the rational field at z = 2
    q = NumberField.rational()
    got = determinant_closed(q, trivial_character(q), 1, 2.0, cfg).value
    expect = 1.0 / (6.0 * 2.0 ** 1.5 * math.pi)
    out.append(CheckResult("deninger", "value-at-2",
                           abs(got - expect) / expect, 1e-9))
    return out


def suite_explicit(cfg: EvalConfig = DEFAULT_CONFIG) -> list[CheckResult]:
    out = []
    q = NumberField.rational()
    chi = trivial_character(q)
    table = builtin_zeta_zeros()
    for s, z in ((2.0, 2.0), (3.0, 2.0), (2.5, 3.0)):
        direct = xi_hankel(q, chi, s, z, cfg)
        gaps = []
        for n in (25, 50, 100):
            zs = xi_zero_sum(q, chi, s, z, table.truncated(n))
            gaps.append((abs(zs.value - direct.value), zs.error_estimate))
        # the 100-pair gap must sit inside the density tail estimate
        gap, est = gaps[-1]
        out.append(CheckResult("explicit", f"s{s}-z{z}-gap", gap, est))
        # and truncation error must shrink as the table grows
        mono = 0.0 if gaps[0][0] > gaps[1][0] > gaps[2][0] else 1.0
        out.append(CheckResult("explicit", f"s{s}-z{z}-monotone", mono, 0.5))
    return out


def suite_zerofinder(cfg: EvalConfig = DEFAULT_CONFIG) -> list[CheckResult]:
    out = []
    q = NumberField.rational()
    triv = trivial_character(q)
    published = (14.134725142, 21.022039639, 25.010857580)
    tab = find_zeros(q, triv, 30.0)
    worst = max(abs(a - b) for a, b in zip(tab.ordinates[:3], published))
    out.append(CheckResult("zerofinder", "zeta-first-three", worst, 1e-6))

    # bundled table head must match a fresh scan
    bundled = builtin_zeta_zeros()
    worst = max(abs(a - b) for a, b in
                zip(tab.ordinates, bundled.ordinates[:len(tab)]))
    out.append(CheckResult("zerofinder", "bundled-consistency", worst, 1e-8))

    # the Q(i) table merges the scans of its zeta and chi_-4 factors: its
    # count below 15 against the argument principle on the Dedekind zeta
    gi = NumberField.quadratic(-1)
    t_gi = find_zeros(gi, trivial_character(gi), 15.0)
    t_chi = find_zeros(q, kronecker_character(-4), 15.0)
    inside = argument_principle_count(
        gi, trivial_character(gi), PathSpec.rectangle(0.25, 0.75, 1.0, 15.0),
        cfg)
    out.append(CheckResult("zerofinder", "dedekind-factorization",
                           abs(len(t_gi) - inside), 0.5))

    # zero counts against the density main term
    worst = 0.0
    for fld, chi, tab2 in ((q, triv, bundled), (gi, trivial_character(gi), t_gi),
                           (q, kronecker_character(-4), t_chi)):
        est = zero_count_estimate(fld, chi, tab2.completeness_height)
        worst = max(worst, abs(len(tab2) - est))
    out.append(CheckResult("zerofinder", "count-vs-density", worst, 2.0))
    return out


def suite_monodromy(cfg: EvalConfig = DEFAULT_CONFIG) -> list[CheckResult]:
    out = []
    q = NumberField.rational()
    triv = trivial_character(q)

    # argument principle: exactly one zero in [0.2, 0.8] x [13, 15]
    loop = PathSpec.rectangle(0.2, 0.8, 13.0, 15.0)
    n = argument_principle_count(q, triv, loop, cfg)
    out.append(CheckResult("monodromy", "count-first-zero", abs(n - 1), 0.5))

    # planted zero: the tracked -contour log of (xi - rho) must equal
    # 2 pi i (rho - xi0) exactly (integration by parts around one zero)
    rho = 0.75 + 14.0j
    base = loop.waypoints[0]
    tracked = tracked_log_polyline(lambda u: u - rho, loop.waypoints, cfg)
    defect = -tracked.value
    expect = 2.0j * math.pi * (rho - base)
    out.append(CheckResult("monodromy", "planted-zero", abs(defect - expect),
                           1e-6))

    # zero-free rectangle right of the critical line: defect vanishes
    big = PathSpec.rectangle(0.6, 0.9, -30.0, 30.0)
    d = erh_monodromy_defect(q, triv, big, cfg)
    out.append(CheckResult("monodromy", "strip-defect", abs(d), 1e-6))
    return out


def suite_continuation(cfg: EvalConfig = DEFAULT_CONFIG) -> list[CheckResult]:
    out = []
    q = NumberField.rational()
    triv = trivial_character(q)
    for r in (2, 3):
        worst = 0.0
        for s in (2.0, 2.5, 3.0, 4.0, 2.0 + 1.0j):
            s = complex(s)
            straight = poly_l_continued(q, triv, r, s, cfg)
            bent = PathSpec((3.0 + 0.0j, 0.5 * (3.0 + s) + 1.2j, s))
            dog = poly_l_continued(q, triv, r, s, cfg, path=bent)
            ref = poly_l_euler(q, triv, r, s)
            worst = max(worst, abs(straight.value - ref.value),
                        abs(dog.value - ref.value))
        out.append(CheckResult("continuation", f"overlap-r{r}", worst, 1e-7))
    return out


SUITES = {
    "special": suite_special,
    "ladder": suite_ladder,
    "theorem": suite_theorem,
    "deninger": suite_deninger,
    "explicit": suite_explicit,
    "zerofinder": suite_zerofinder,
    "monodromy": suite_monodromy,
    "continuation": suite_continuation,
}


def run_suite(name: str, cfg: EvalConfig = DEFAULT_CONFIG) -> list[CheckResult]:
    if name == "all":
        return run_all(cfg)
    if name not in SUITES:
        raise PolydetError(f"unknown suite {name!r}; have "
                           f"{', '.join(sorted(SUITES))}, all")
    return SUITES[name](cfg)


def run_all(cfg: EvalConfig = DEFAULT_CONFIG) -> list[CheckResult]:
    out: list[CheckResult] = []
    for fn in SUITES.values():
        out.extend(fn(cfg))
    return out


def format_results(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    bad = sum(not r.passed for r in results)
    lines.append(f"{len(results) - bad}/{len(results)} checks passed")
    return "\n".join(lines)
