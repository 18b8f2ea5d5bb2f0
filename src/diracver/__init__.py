"""Exact verification of dispersion-degeneracy constraints for Dirac matrix sets.

The package proves, in exact rational arithmetic, which matrix dimensions
admit a demanded number of linearly independent positive-energy plane-wave
solutions, derives the forced characteristic-polynomial coefficients (or an
impossibility certificate), and audits concrete Hermitian matrix quadruples
against the resulting trace, determinant, structure, and anticommutation
conditions, with a floating-point eigensolver as an independent cross-check.

Each exported name is imported from its module on first access (PEP 562),
so importing the package, or one command of ``diracver.cli``, compiles only
the modules that are used.
"""

import sys

# every exported name, by the module that defines it
_EXPORTS = {
    "algebra": (
        "ComplexRational",
        "EPoly",
        "MultiPoly",
        "ReducedPair",
        "reduce_at_dispersion",
    ),
    "clifford": (
        "CATALOG_NAMES",
        "CanonicalizationResult",
        "CliffordReport",
        "EquivalenceVerdict",
        "ExactUnitary",
        "StructureReport",
        "TraceDetReport",
        "beta_spectrum",
        "canonicalize_beta",
        "catalog",
        "check_alpha_structure",
        "check_anticommutation",
        "check_trace_det",
        "equivalence_audit",
        "perturbed_set",
        "random_exact_unitary",
        "random_hermitian_set",
    ),
    "dispersion": (
        "DegeneracyRequirement",
        "DispersionReport",
        "ForcedCoefficientSolution",
        "InfeasibilityCertificate",
        "SPoly",
        "check_dispersion",
        "factorized_spectrum",
        "solve_forced_coefficients",
    ),
    "spectrum": (
        "MomentumSample",
        "SpectrumRow",
        "SpinorBasis",
        "SweepResult",
        "eigensolve",
        "positive_energy_spinors",
        "sweep",
    ),
    "symmat": (
        "CharPoly",
        "HermiticityError",
        "MatrixSet",
        "build_hamiltonian",
        "char_poly",
        "trace_and_det",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module}"
    __import__(qualified)
    return getattr(sys.modules[qualified], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
