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
                     InconsistencyError, InternalError, InvalidInputError,
                     ReductionLimitError)
from .weyl import (NEG_INF, FiltrationSpec, WeylElement, apply_to_laurent,
                   apply_to_polynomial, format_operator, fourier, theta,
                   v_degree, weyl_mul)
from .parsing import parse_operator, parse_polynomial
from .groebner import (GroebnerBasis, ModuleElement, OperatorMatrix,
                       SubmoduleSolver, TermOrder, groebner_basis,
                       kernel_of_map, normal_form, obvious_shift,
                       submodule_membership, syzygies)
from .presentations import (ChainComplexPres, CohomologyData, DModMap,
                            DModPresentation, cohomology_presentation,
                            v_strict_resolution)
from .localization import (LocalizationFamily, LocalizedModule,
                           annihilator_of_fs, bernstein_sato,
                           formal_action_is_zero, localize)
from .mv import (MVIndex, cech_complex, family_for_cech, family_for_mv,
                 family_for_support, mv_complex, mv_tensor_cech)
from .strictify import (FreeCoverDiagram, QuotientSES, ResolutionStep,
                        StrictDoubleComplex, StrictSESWitness,
                        StrictificationResult, SubmoduleSES, free_cover_ses,
                        minimize_complex, strictify_complex, strictify_ses,
                        strictify_two_ses, v_strict_complex, verify_strict_ses,
                        verify_v_strict)
from .restriction import (GradedKoszulComplex, GradedVectorComplex,
                          ThetaPolynomial, TruncatedComplex, TruncationWindow,
                          b_function_of_complex, certify_b_function,
                          cohomology_dims, euler_characteristic,
                          fourier_complex, graded_koszul, integer_root_window,
                          omega_tensor_truncate, restriction_b_function_module)
from .pipeline import (ProblemSpec, ResultReport, compute_derham,
                       compute_derham_support)
