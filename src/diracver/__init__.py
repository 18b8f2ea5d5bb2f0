"""Exact verification of dispersion-degeneracy constraints for Dirac matrix sets.

The package proves, in exact rational arithmetic, which matrix dimensions
admit a demanded number of linearly independent positive-energy plane-wave
solutions, derives the forced characteristic-polynomial coefficients (or an
impossibility certificate), and audits concrete Hermitian matrix quadruples
against the resulting trace, determinant, structure, and anticommutation
conditions, with a floating-point eigensolver as an independent cross-check.
"""

from .algebra import (
    ComplexRational,
    EPoly,
    MultiPoly,
    ReducedPair,
    reduce_at_dispersion,
)
from .clifford import (
    CATALOG_NAMES,
    CanonicalizationResult,
    CliffordReport,
    EquivalenceVerdict,
    ExactUnitary,
    StructureReport,
    TraceDetReport,
    beta_spectrum,
    canonicalize_beta,
    catalog,
    check_alpha_structure,
    check_anticommutation,
    check_trace_det,
    equivalence_audit,
    perturbed_set,
    random_exact_unitary,
    random_hermitian_set,
)
from .dispersion import (
    DegeneracyRequirement,
    DispersionReport,
    ForcedCoefficientSolution,
    InfeasibilityCertificate,
    SPoly,
    check_dispersion,
    factorized_spectrum,
    solve_forced_coefficients,
)
from .spectrum import (
    MomentumSample,
    SpectrumRow,
    SpinorBasis,
    SweepResult,
    eigensolve,
    positive_energy_spinors,
    sweep,
)
from .symmat import (
    CharPoly,
    HermiticityError,
    MatrixSet,
    build_hamiltonian,
    char_poly,
    trace_and_det,
)

__version__ = "0.1.0"
