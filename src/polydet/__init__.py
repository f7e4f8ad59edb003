"""Higher depth determinants of Hecke L-function zeros.

Two independent routes to the depth-r determinant

    Xi_r(z) = exp(-d/ds xi(s, z) at s = 1 - r),
    xi(s, z) = sum over nontrivial zeros rho of ((z - rho) / 2 pi)^(-s),

one through a closed form in the depth-r L-function and Hurwitz zeta data,
one through a Hankel contour representation of xi, plus the supporting
special functions, L-functions, zero tables, and verification suites that
cross-check them.
"""
from .config import DEFAULT_CONFIG, EvalConfig
from .determinants import (determinant_closed, determinant_direct,
                           regularized_product, xi_hankel, xi_zero_sum)
from .errors import (BranchStepTooLarge, DomainError, EmptyZeroTable,
                     FieldMismatch, GammaPole, NearZeroOfL, NonClosedLoop,
                     NonMonotoneError, ParseError, PathLeavesOmega, PoleAtOne,
                     PolydetError, QuadratureNotConverged, ResidualTooLarge,
                     UnsupportedCharacter)
from .fields_and_characters import (ArchPlace, HeckeCharacter, NumberField,
                                    dirichlet_character_by_index,
                                    kronecker_character, kronecker_symbol,
                                    trivial_character)
from .l_functions import (PathSpec, argument_principle_count,
                          completed_lambda, l_log_derivative, l_value,
                          root_number)
from .poly_l import (erh_monodromy_defect, log_l_series, poly_l_continued,
                     poly_l_euler, poly_l_ladder_residual,
                     poly_l_log_continued, poly_l_log_euler)
from .special_functions import (EmResult, Result, bernoulli_number,
                                bernoulli_poly, hurwitz_zeta_em, log_gamma,
                                milnor_gamma)
from .verification import SUITES, CheckResult, format_results, run_suite
from .zero_data import (ZeroTable, builtin_zeta_zeros, find_zeros, load_zeros,
                        loads_zeros, save_zeros, scan_ordinates,
                        truncation_tail_estimate, zero_count_estimate)

__version__ = "3.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
