"""pbent: exact analysis of p-ary functions f: F_{p^n} -> F_p.

Walsh spectra live in the ring Z[w] of cyclotomic integers and every
classification (bent, regular, weakly regular, dual-bent) is decided by
exact integer arithmetic.  See README.md for a tour.
"""

from .cyclo import CycInt, gauss_sum, unit_class
from .errors import (BudgetError, InternalInconsistency, ParseError,
                     PreconditionError)
from .gf import FFElem, FieldCtx, FieldError, get_field, parse_field_spec
from .funcrep import (ANF, PFunction, RelativeTraceForm, TraceForm,
                      anf_to_truth, coset_leaders, parse_function_spec,
                      p_weight, to_relative_trace_form, truth_to_anf)
from .walsh import (Classification, WalshSpectrum,
                    NON_WEAKLY_REGULAR, NOT_BENT, REGULAR, WEAKLY_REGULAR,
                    bent_via_derivatives, bent_via_second_derivative_sum,
                    classify, dual_iteration_check, extract_certificate,
                    is_bent, second_derivative_triple_sum, single_walsh_value,
                    walsh_fast, walsh_naive)
from .derivanalysis import (CubicLikeCertificate, WrIdentityReport,
                            cubic_like_certificate, derivative_linear_space,
                            quadratic_balance_witness, verify_cubic_like, wr_identity_check)
from .constructions import (TrinomialParams, add_quadratic, bent_concatenation,
                            lemma2_witness, mm_special_form, outer_degree,
                            nonvanishing_quadratic_search,
                            quadratic_part_function, trinomial_bent,
                            trinomial_closed_form_walsh,
                            trinomial_first_derivative_form)
from .catalog import CatalogEntry, list_catalog, verify_entry

__version__ = "0.1.0"
