"""Evaluation configuration: the quadrature's two settings in one frozen
dataclass, so that a run can be reproduced from its config snapshot alone.
The kernel, the L-value layer and the zero scans take none.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, replace


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

    def snapshot(self) -> dict:
        return asdict(self)

    def with_updates(self, **kw) -> "EvalConfig":
        return replace(self, **kw)

    def config_hash(self) -> str:
        import hashlib   # loads OpenSSL; only the CLI's records read it
        blob = json.dumps(self.snapshot(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


DEFAULT_CONFIG = EvalConfig()
