"""Finite-truncation models of a separable Banach space sitting inside a
Hilbert space, with weighted-metric adjoints, Schatten-type norm checks,
a square-summing dual-functional space, and singular convolution operators.

The package is organized bottom-up:

- numerics: dense linear-algebra kernels with explicit validation
- spaces: grid functions, Lp norms, the duality map, trigonometric bases
- embedding: the weighted inner product induced by a basis and its duals
- operators: adjoints, polar/spectral decompositions, Courant-Fischer
- schatten: singular values and trace-ideal norm inequalities
- ks2: the square-summing functional space built on a cube enumeration
- integrals: Hilbert-transform and Riesz-potential discretizations
- suites / cli: named check registry and the command-line runner
"""

__version__ = "0.1.0"

from . import numerics  # noqa: F401
from .spaces import (  # noqa: F401
    GridFunction,
    SchauderBasis,
    coefficients,
    fourier_sbasis,
    from_callable,
    lp_norm,
    pairing,
    reconstruct,
)
from .embedding import (  # noqa: F401
    EmbeddingSpace,
    dyadic_weights,
    gram_matrix,
    h_inner,
)
from .operators import (  # noqa: F401
    BOperator,
    SpectralDecomposition,
    adjoint,
    adjoint_algebra_defect,
    b_opnorm_estimate,
    from_h_matrix,
    h_eigen,
    h_matrix,
    h_opnorm,
    is_naturally_selfadjoint,
    lax_check,
    lax_khat,
    minmax_eigenvalue,
    polar_decompose,
    self_conjugacy_check,
    spectral_decompose,
)
from .schatten import (  # noqa: F401
    horn_sums,
    lidskii_sums,
    schatten_norm,
    schatten_norm_paths,
    singular_value_gap,
    singular_values,
    weyl_sums,
)
from .ks2 import (  # noqa: F401
    Cube,
    converged_values,
    cube,
    cube_rows,
    embedding_bounds,
    functional_Fk,
    functional_values,
    ks2_inner,
    pairing_order,
    rational_center,
    tail_bound,
    values_inner,
    values_norm,
    weak_strong_norms,
)
from .integrals import (  # noqa: F401
    hilbert_multiplier,
    hilbert_pv,
    riesz_potential,
    signal_from_callable,
)
from .suites import SUITE_NAMES, SuiteParams, list_checks, run_suite  # noqa: F401
