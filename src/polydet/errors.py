"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class;
anything else surfaces as a plain ValueError/TypeError from validation.
"""

import functools


class PolydetError(Exception):
    """Base class for all package-specific errors."""


class PoleAtOne(PolydetError):
    """Evaluation requested inside the guard radius of the pole at s = 1."""


class DomainError(PolydetError):
    """Argument outside the documented domain of an evaluator."""


def overflow_is_domain_error(routine):
    """Report an OverflowError raised inside routine as DomainError."""
    @functools.wraps(routine)
    def guarded(*args, **kwargs):
        try:
            return routine(*args, **kwargs)
        except OverflowError as exc:
            raise DomainError(f"{routine.__qualname__}: {exc}") from None
    return guarded


class FieldMismatch(PolydetError):
    """Character or ideal data attached to a different number field."""


class UnsupportedCharacter(PolydetError):
    """Character outside the supported family for the requested operation."""


class NearZeroOfL(PolydetError):
    """Logarithmic derivative requested too close to a zero of L."""


class PathLeavesOmega(PolydetError):
    """Integration path meets a cut of the plane on which log L^(r) is single
    valued."""


class QuadratureNotConverged(PolydetError):
    """Polyline quadrature left a panel above its share of
    `quadrature.QUAD_TOL` after `MAX_REFINEMENTS` bisections of it; no
    unconverged value is returned."""


class BranchStepTooLarge(QuadratureNotConverged):
    """Branch-tracked quadrature still stepped by pi/2 or more in Im(log)
    between neighbouring nodes of a panel bisected
    `quadrature.MAX_REFINEMENTS` times: the path runs too close to a zero
    or pole of the tracked function."""


class GammaPole(PolydetError):
    """Gamma factor evaluated at (or too near) a non-positive integer."""


class NonClosedLoop(PolydetError):
    """A closed contour was required but first and last waypoints differ."""


class ResidualTooLarge(PolydetError):
    """Integer-valued quantity computed with too large a residual."""


class ParseError(PolydetError):
    """A zero table or command-line value could not be parsed.

    Carries the 1-based line number when the failure is tied to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonMonotoneError(PolydetError):
    """Zero ordinates are not strictly increasing."""


class EmptyZeroTable(PolydetError):
    """Zero table contains no ordinates."""
