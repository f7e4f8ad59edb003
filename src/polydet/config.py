"""Evaluation configuration: the quadrature's two settings in one frozen
dataclass.  The kernel, the L-value layer, the zero scans, the verify
suites and the CLI take none; the routes' `cfg` parameters remain for
reference generation at a tighter tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EvalConfig:
    # Relative/absolute tolerance for adaptive panel refinement.
    quad_tol: float = 1e-10
    # Maximum number of bisections of one quadrature panel before giving up.
    max_refinements: int = 12

    def __post_init__(self):
        # "not 0 < x < inf" also rejects NaN
        if not 0 < self.quad_tol < math.inf:
            raise ValueError("quad_tol must be positive and finite")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")

    def with_updates(self, **kw) -> "EvalConfig":
        return replace(self, **kw)


DEFAULT_CONFIG = EvalConfig()
