"""Exact generalized-inverse computations in small finite rings."""

# set before the submodules load: cli and theoremlab import it
__version__ = "0.1.0"

from .errors import (BadTensorShape, BudgetExceeded, GinvError, InvalidModulus,
                     NoUnity, NotAssociative, NotInnerInverse, NotReflexiveInverse,
                     ParseError, RingMismatch, TableCapExceeded, UnknownCheck,
                     WrongRing)
from .fixture import build_example_ring, is_example_ring
from .ginv import (Frames, IannDecompositions, additive_span,
                   iann_decomposition_batch, idempotent_frames,
                   inner_annihilator, inner_inverse_pairs, inner_inverses,
                   inner_inverses_param_batch, inner_products,
                   left_annihilator, outer_inverses, principal_ideal_rows,
                   principal_left_ideal, principal_right_ideal,
                   ref_decomposition,
                   reflexive_inverses, right_annihilator,
                   singleton_conjugate_batch, sumset)
from .parsing import parse_element, render_elem
from .rings import (DEFAULT_BUDGET, TABLE_CAP, Elem, ElemSet, MatrixRing, Ring,
                    TableRing, ZmodRing, build_matrix_ring, build_table_algebra,
                    build_zmod, is_regular, is_semiprime, regular_elements)
from .theoremlab import (CHECK_NAMES, CheckVerdict, SuiteReport,
                         check_decomposition, check_example_claims,
                         check_hartwig, check_inner_param, check_invariance,
                         check_jain_prasad, check_nielsen, check_refl_map,
                         check_subset_criterion, check_theorem_inner,
                         check_theorem_reflexive, run_suite)
