"""Programmable unambiguous quantum-state discrimination.

A numpy library for constructing the measurement families that identify an
unknown pure state against quantum program registers holding the candidate
states, verifying their unambiguity and symmetry properties, reproducing the
structured Gram spectra that fix their coefficients, running the mixed-state
pipeline, and sampling reproducible measurement records.
"""

from .antisym import (
    AntisymProjector,
    Permutation,
    all_permutations,
    antisym_basis_vector,
    antisym_projector,
    antisym_projector_from_basis,
    increasing_tuples,
    wedge,
)
from .config import DEFAULT_ENTRY_CAP
from .discriminator import (
    CovarianceReport,
    Povm,
    ProgramInput,
    VerificationReport,
    build_optimal_equal,
    build_trivial_antisym,
    build_universal,
    check_covariance,
    cross_term,
    efficiency_bounds,
    family_povm,
    known_state_optimum,
    outcome_probabilities,
    product_probabilities,
    program_input,
    success_factor,
    success_prob_analytic,
    success_prob_operational,
    verify_unambiguous,
)
from .errors import (
    CapExceeded,
    FormatError,
    IndexOutOfRange,
    InvalidPovm,
    LayoutMismatch,
    NotHermitian,
    NotPositive,
    ProgramNotIndependent,
    UdiscError,
    WrongRegime,
)
from .gram_spectra import (
    GramStructure,
    LabeledVectors,
    SpectralSummary,
    build_basis_vectors,
    c_optimal,
    extremal_eigenvalues,
    gamma_block_matrix,
    gram_closed_form,
    gram_numeric,
    lambda_block_matrix,
)
from .mixed_states import (
    BoundsReport,
    CoreDecomposition,
    MixedProgram,
    PartProbabilities,
    bounds_check,
    build_program,
    core_decompose,
    part_probabilities,
    require_density,
)
from .sampler import (
    OutcomeDistribution,
    SampleRecord,
    distribution_from_probs,
    outcome_distribution,
    sample,
)
from .tensor_algebra import (
    eig_hermitian,
    fidelity,
    gram,
    gram_det,
    kron_chain,
    partial_trace,
)

__version__ = "0.1.0"
