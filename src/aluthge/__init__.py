"""Operator-theory toolkit for dense complex matrices.

Polar decompositions, Aluthge transforms and their iterates, commutant
(intertwiner) spaces with adjoint-intertwining verdicts, Schatten
p-norms with the associated commutator inequalities, and seeded
verification suites behind a small CLI.

Every exported name is written once, in ``_EXPORTS``, under the module
that defines it; ``__all__``, ``dir()`` and attribute access are read
from that table. ``import aluthge`` loads no submodule: the first access
to a name (or to a submodule, as ``aluthge.polar``) imports its module
and binds the name here, so a program pays only for the modules it uses.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "commutant": (
        "CommutantBasis FpReport aluthge_intertwiner_map com_inclusion commutant_basis fp_property"
        " intertwiner_polar_identities odd_root_unity_check power_intertwining_check semicircle_check"
        " squared_angular_criterion"
    ),
    "generate": "KINDS GenerationError generate random_unitary",
    "linalg": (
        "DEFAULT_TOL CheckReport Tolerances adjoint fro_norm hermitian_part min_hermitian_eigenvalue op_norm"
        " singular_values spectral_radius"
    ),
    "matrixio": "matrix_from_doc matrix_to_doc read_matrices read_matrix write_matrices write_matrix",
    "polar": (
        "MODE_PARTIAL MODE_UNITARY AluthgeTrajectory PolarParts aluthge aluthge_iterate aluthge_st"
        " involution_angular_check polar_decompose product_polar_check"
    ),
    "schatten": (
        "InequalityReport aluthge_commutator_bound aluthge_intertwiner_bound approx_commutator_bound block_embed"
        " block_identity_check exact_intertwiner_transfer schatten_norm"
    ),
    "suites": "SUITE_IDS CaseFailure SuiteReport run_suite",
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})


class _Package(ModuleType):
    """The import system binds each submodule it loads on the package; an export of the same name keeps its place."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, ModuleType) and _ORIGIN.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
