"""Operator-theory toolkit for dense complex matrices.

Polar decompositions, Aluthge transforms and their iterates, commutant
(intertwiner) spaces with adjoint-intertwining verdicts, Schatten
p-norms with the associated commutator inequalities, and seeded
verification suites behind a small CLI.
"""

from .commutant import (
    CommutantBasis,
    FpReport,
    aluthge_intertwiner_map,
    com_inclusion,
    commutant_basis,
    fp_property,
    intertwiner_polar_identities,
    odd_root_unity_check,
    power_intertwining_check,
    reduces_check,
    semicircle_check,
    squared_angular_criterion,
    sylvester_matrix,
)
from .generate import KINDS, GenerationError, generate, random_unitary
from .linalg import (
    DEFAULT_TOL,
    CheckReport,
    Tolerances,
    adjoint,
    fro_norm,
    hermitian_part,
    min_hermitian_eigenvalue,
    op_norm,
    singular_values,
    spectral_radius,
)
from .matrixio import (
    matrix_from_doc,
    matrix_to_doc,
    read_matrices,
    read_matrix,
    write_matrices,
    write_matrix,
)
from .polar import (
    MODE_PARTIAL,
    MODE_UNITARY,
    AluthgeTrajectory,
    PolarParts,
    aluthge,
    aluthge_iterate,
    aluthge_st,
    involution_angular_check,
    polar_decompose,
    product_polar_check,
)
from .schatten import (
    InequalityReport,
    aluthge_commutator_bound,
    aluthge_intertwiner_bound,
    approx_commutator_bound,
    block_embed,
    block_identity_check,
    exact_intertwiner_transfer,
    schatten_norm,
)
from .suites import SUITE_IDS, CaseFailure, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "AluthgeTrajectory",
    "CaseFailure",
    "CheckReport",
    "CommutantBasis",
    "DEFAULT_TOL",
    "FpReport",
    "GenerationError",
    "InequalityReport",
    "KINDS",
    "MODE_PARTIAL",
    "MODE_UNITARY",
    "PolarParts",
    "SUITE_IDS",
    "SuiteReport",
    "Tolerances",
    "adjoint",
    "aluthge",
    "aluthge_commutator_bound",
    "aluthge_intertwiner_bound",
    "aluthge_intertwiner_map",
    "aluthge_iterate",
    "aluthge_st",
    "approx_commutator_bound",
    "block_embed",
    "block_identity_check",
    "com_inclusion",
    "commutant_basis",
    "exact_intertwiner_transfer",
    "fp_property",
    "fro_norm",
    "generate",
    "hermitian_part",
    "intertwiner_polar_identities",
    "involution_angular_check",
    "matrix_from_doc",
    "matrix_to_doc",
    "min_hermitian_eigenvalue",
    "odd_root_unity_check",
    "op_norm",
    "polar_decompose",
    "power_intertwining_check",
    "product_polar_check",
    "random_unitary",
    "read_matrices",
    "read_matrix",
    "reduces_check",
    "run_suite",
    "schatten_norm",
    "semicircle_check",
    "singular_values",
    "spectral_radius",
    "squared_angular_criterion",
    "sylvester_matrix",
    "write_matrices",
    "write_matrix",
]
