"""Continuous-variable Bell functional toolkit.

Evaluates the two-quadrature Bell functional on truncated Fock lattices and
on exact structured superpositions, builds matrices of moments with
bipartition-dependent ordering, and cross-checks negativity claims against a
dense partial-transpose spectral oracle.
"""

from .cfrd import (CfrdReport, QuadratureSettings, TwoModeBound,
                   VerificationResult, beta_from_table, cfrd_beta,
                   cfrd_evaluate, mode_transform,
                   quadrature_matrices, two_mode_bound, two_mode_moment_table, verify_implication)
from .errors import (BipartitionError, CutoffError, CvBellError,
                     NumericalConsistencyError, SettingsError, TruncationError)
from .fock import (DenseState, ModeSpec, PartialTransposeResult,
                   from_amplitudes, make_basis_state, make_coherent_product,
                   make_ghz_like, make_two_mode_squeezed, partial_transpose,
                   partial_transpose_min_eig, random_separable_mixture,
                   random_state)
from .moments import (MinorReport, MomentMatrix, build_moment_matrix,
                      cfrd_minor_determinant, find_negative_minor, index_pairs,
                      principal_minor)
from .search import (OptimizeResult, ScanRow, SettingsSearchSpec,
                     batched_nelder_mead, best_beta_two_mode_batch,
                     default_alpha_grid, optimize_settings, scan_cat_family)
from .structured import (NormalOrderedPoly, PrimitiveKet, StructuredState,
                         coherent_ket, make_cat_family, make_fock_pair,
                         normal_order, number_ket, single_mode_matrix_element,
                         structured_moment)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
