"""Exact twisted group cohomology and branched-bending deformations for
finitely presented matrix groups."""

from .bending import (BendingDatum, centralizer_generator, hnn_first_order,
                      match_up_to_column_signs_and_scale, tangent_cocycle,
                      trace_derivative_matrix)
from .cohomology import (CocycleSpace, CohomologyReport, class_span_dim,
                         cocycle_eval, default_parabolic_words, h1_report,
                         is_cuspidal, peripheral_invariant_dims, scannell_check)
from .complexes import (Angle, BendingComplex, Binding, Incidence,
                        bending_dimension, build_system)
from .linalg import (FloatMatrix, RationalMatrix, in_column_space, nullspace,
                     rank_of_vectors, rref_rank)
from .modules import CoefficientModule
from .reps import (FirstOrderRep, QuadraticForm, Representation,
                   first_order_evaluate, is_parabolic, validate_representation)
from .words import (GroupRingElem, Presentation, Word, WordError, fox_derivative,
                    parse_word)

__version__ = "0.1.0"

__all__ = [
    "Angle", "BendingComplex", "BendingDatum", "Binding",
    "CocycleSpace", "CoefficientModule", "CohomologyReport",
    "FirstOrderRep", "FloatMatrix", "GroupRingElem", "Incidence", "Presentation",
    "QuadraticForm", "RationalMatrix", "Representation", "Word", "WordError",
    "bending_dimension", "build_system",
    "centralizer_generator", "class_span_dim", "cocycle_eval",
    "default_parabolic_words", "first_order_evaluate", "fox_derivative",
    "h1_report", "hnn_first_order", "in_column_space", "is_cuspidal",
    "is_parabolic", "match_up_to_column_signs_and_scale", "nullspace",
    "parse_word", "peripheral_invariant_dims", "rank_of_vectors", "rref_rank",
    "scannell_check", "tangent_cocycle", "trace_derivative_matrix",
    "validate_representation",
]
