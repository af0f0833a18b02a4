"""Topological indices of chiral unitaries and split-step quantum walks.

A chiral unitary factorizes as a product of two self-adjoint unitaries;
its spectral asymmetry at the points +-1 carries integer indices.  This
package builds such walks on the one-dimensional lattice, computes every
index of the finite-dimensional theory, certifies the essential-spectrum
assumptions with limit symbols, evaluates exact kernels of banded
operators on the doubly infinite lattice, and cross-validates kernel
counts against symbol winding numbers.
"""

from .exceptions import (
    ChiralwalkError,
    DimensionMismatchError,
    NormalizationError,
    NotFredholmError,
    PreconditionError,
    ScenarioError,
)
from .operators import (
    BandedAnisotropicOperator,
    CoefficientFunction,
    SymbolLoop,
    TruncatedOperator,
    identity,
    mult_op,
    shift_power,
)
from .walks import (
    ChiralPair,
    SplitStepParams,
    build_gamma0,
    build_gamma1,
    build_generator_walk,
    build_walk,
    build_weighted_shift_walk,
)
from .indices import (
    IndexReport,
    KernelSummary,
    cayley_index,
    chiral_selfadjoint_index,
    full_index_report,
    generator_index,
    kernel_basis,
    kernel_bound_check,
    kernel_decomposition_check,
    pair_index,
    pair_index_trace,
    susy_index,
    symmetry_index_pm,
    tanaka_index_pm,
)
from .essential import certify_unitary, gap_at
from .transfer import exact_index, exact_kernel
from .winding import (
    verify_index_theorem_banded,
    verify_index_theorem_chiral,
    winding_det,
)

__version__ = "0.1.0"
