"""Evaluation configuration shared by every numerical routine.

A single frozen dataclass is threaded through the evaluators so that a run
can be reproduced from its config snapshot alone.  The defaults are sized
for double precision work at desk scale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict, replace


@dataclass(frozen=True)
class EvalConfig:
    # Absolute error target for series/quadrature termination decisions.
    target_abs_error: float = 1e-12
    # Base shift added to ceil(|Im s|) + ceil(|z|) when choosing the
    # Euler-Maclaurin split point N.
    euler_maclaurin_shift: int = 20
    # Number of Bernoulli correction terms in the Euler-Maclaurin tail.
    bernoulli_terms: int = 20
    # Hard cap on series lengths (polylog, Dirichlet series tails).
    series_max_terms: int = 2_000_000
    # Sieve bound of the plain prime-power series that cross-check the
    # analytic L right of 1 (log_l_series, the "series" route of L'/L).
    prime_bound: int = 100_000
    # Relative/absolute tolerance for adaptive panel refinement.
    quad_tol: float = 1e-10
    # Maximum number of bisections of one quadrature panel before giving up.
    max_refinements: int = 12
    # Guard radius around s = 1 for pole detection.
    pole_guard: float = 1e-8

    def __post_init__(self):
        if not self.target_abs_error > 0:   # "not x > 0" also rejects NaN
            raise ValueError("target_abs_error must be positive")
        if self.euler_maclaurin_shift < 1:
            raise ValueError("euler_maclaurin_shift must be a positive integer")
        if not 1 <= self.bernoulli_terms <= 30:
            # beyond ~30 the Bernoulli terms grow before they shrink
            raise ValueError("bernoulli_terms must be in [1, 30]")
        if self.series_max_terms < 100:
            raise ValueError("series_max_terms too small")
        if self.prime_bound < 10:
            raise ValueError("prime_bound must be at least 10")
        if not self.quad_tol > 0:
            raise ValueError("quad_tol must be positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")
        if not self.pole_guard > 0:
            raise ValueError("pole_guard must be positive")

    def snapshot(self) -> dict:
        return asdict(self)

    def with_updates(self, **kw) -> "EvalConfig":
        return replace(self, **kw)

    def config_hash(self) -> str:
        blob = json.dumps(self.snapshot(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


DEFAULT_CONFIG = EvalConfig()
