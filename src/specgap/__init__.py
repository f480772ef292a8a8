"""Spectral-gap estimation for quantum lattice models.

The gap is read off the exponential decay rate of the commutator
expectation <[H, O]> under norm-preserving imaginary-time evolution,
realized with infinite tensor networks (TEBD in 1D, simple-update iPEPS
in 2D and 3D) and validated against an exact dense oracle.
"""

from .estimator import GapEstimate, GapTrace, estimate_gap, fit_gap
from .imps import EvolutionSchedule, IMpsState, random_product_imps, run_evolution_1d
from .ipeps import IPepsState, random_product_ipeps, run_evolution_peps, superorthogonalize
from .models import (
    CONSTANTS,
    LatticeSpec,
    LocalTerm,
    Model,
    OperatorTerms,
    commutator_terms,
    haldane,
    haldane_gap_operator,
    haldane_model,
    tfim,
    tfim_chain,
    tfim_chain_model,
    tfim_gap_operator,
    tfim_model,
)
from .oracle import (
    OverlapClass,
    OverlapKind,
    SpectralDecomposition,
    classify_overlap,
    commutator_expectation_exact,
    evolve_exact,
    spectral_decompose,
    theorem1_slope_check,
)
from .wii import Mpo, MpoBlocks, build_wii, hamiltonian_line_mpo

__all__ = [
    "CONSTANTS",
    "EvolutionSchedule",
    "GapEstimate",
    "GapTrace",
    "IMpsState",
    "IPepsState",
    "LatticeSpec",
    "LocalTerm",
    "Model",
    "Mpo",
    "MpoBlocks",
    "OperatorTerms",
    "OverlapClass",
    "OverlapKind",
    "SpectralDecomposition",
    "build_wii",
    "classify_overlap",
    "commutator_expectation_exact",
    "commutator_terms",
    "estimate_gap",
    "evolve_exact",
    "fit_gap",
    "haldane",
    "haldane_gap_operator",
    "haldane_model",
    "hamiltonian_line_mpo",
    "random_product_imps",
    "random_product_ipeps",
    "run_evolution_1d",
    "run_evolution_peps",
    "spectral_decompose",
    "superorthogonalize",
    "tfim",
    "tfim_chain",
    "tfim_chain_model",
    "tfim_gap_operator",
    "tfim_model",
    "theorem1_slope_check",
]

__version__ = "0.1.0"
