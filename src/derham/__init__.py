"""Exact algebraic de Rham cohomology of complements of affine varieties.

Everything reduces to Groebner basis computations in the Weyl algebra
over the rationals: localizations are presented through Bernstein-Sato
polynomials, Mayer-Vietoris and Cech complexes of them are replaced by
quasi-isomorphic V-strict free complexes, and the restriction b-function
truncates those to finite complexes of rational vector spaces whose exact
ranks are the cohomology dimensions.
"""

__version__ = "0.1.0"

from .errors import (BBoundExceededError, DerhamError, DimensionMismatchError,
                     InconsistencyError, InternalError, InvalidInputError)
from .weyl import (NEG_INF, FiltrationSpec, WeylElement, apply_to_polynomial,
                   format_operator, fourier, theta, v_degree, weyl_mul)
from .parsing import parse_operator, parse_polynomial
from .groebner import (ModuleElement, OperatorMatrix, SubmoduleSolver,
                       obvious_shift)
from .presentations import ChainComplexPres, DModPresentation
from .localization import (LocalizationFamily, LocalizedModule,
                           annihilator_of_fs, bernstein_sato,
                           formal_action_is_zero, localize)
from .mv import family_for_mv, family_for_support, mv_complex, mv_tensor_cech
from .strictify import (StrictDoubleComplex, StrictificationResult,
                        minimize_complex, strictify_complex, verify_strict_ses,
                        verify_v_strict)
from .restriction import (GradedKoszulComplex, GradedVectorComplex,
                          ThetaPolynomial, TruncatedComplex, TruncationWindow,
                          b_function_of_complex, certify_b_function,
                          cohomology_dims, fourier_complex, graded_koszul,
                          integer_root_window, omega_tensor_truncate,
                          restriction_b_function_module)
from .pipeline import (ProblemSpec, ResultReport, compute_derham,
                       compute_derham_support)
