"""A tighter quadrature for the direct route: `determinant_direct`'s `cfg`,
passed down to `integrate_polyline`, overrides `quadrature.QUAD_TOL` and
`MAX_REFINEMENTS`, which are its defaults.  No other route takes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .quadrature import MAX_REFINEMENTS, QUAD_TOL


@dataclass(frozen=True)
class EvalConfig:
    quad_tol: float = QUAD_TOL
    max_refinements: int = MAX_REFINEMENTS

    def __post_init__(self):
        # "not 0 < x < inf" also rejects NaN
        if not 0 < self.quad_tol < math.inf:
            raise ValueError("quad_tol must be positive and finite")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")

    def with_updates(self, **kw) -> "EvalConfig":
        return replace(self, **kw)


DEFAULT_CONFIG = EvalConfig()
