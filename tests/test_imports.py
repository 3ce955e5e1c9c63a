"""Import hygiene of the package, checked with the standard library alone.

Every name a module exports must resolve, and every module-level import
must be used or re-exported, so a deletion cannot leave a stale name
behind. Every factorization goes through the entries of ``linalg``, the
only module that names numpy's factorizations or a scipy module, and
every SVD is taken in one of a few named functions, so a new private
factorization shows up here. Every export is either called inside the
package or named here as API for its users.
"""

import ast
import re
from importlib import import_module
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "aluthge").glob("*.py"))


def _module_name(path: Path) -> str:
    return "aluthge" if path.stem == "__init__" else f"aluthge.{path.stem}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_exports_resolve(path):
    module = import_module(_module_name(path))
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), "duplicate names in __all__"
    assert [name for name in names if not hasattr(module, name)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(getattr(import_module(_module_name(path)), "__all__", []))
    assert sorted(imported - used - exported) == []


# The functions that may call an SVD: the polar factors, the singular values
# and the commutant block solver.
SVD_SITES = [
    "commutant._block_null_vectors",
    "linalg.singular_values",
    "polar.polar_factors",
]


def _owners(tree: ast.AST, match) -> list[str]:
    """The enclosing function of every node that ``match`` accepts (``<module>`` outside any)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                found.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def _calls_by_function(tree: ast.AST, name: str) -> list[str]:
    """The enclosing function of every call to a function called ``name`` (``<module>`` outside any)."""
    return _owners(tree, lambda node: isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == name)


def test_svd_is_called_only_in_its_named_sites():
    sites = [
        f"{path.stem}.{owner}"
        for path in SOURCES
        for owner in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")), "svd")
    ]
    assert sorted(sites) == SVD_SITES


# The one function that may take an eigendecomposition with eigenvectors:
# the spectral groups, one per operand above the Kronecker crossover.
EIG_SITES = ["commutant._spectral_groups"]


def test_eig_is_called_only_in_its_named_site():
    sites = [
        f"{path.stem}.{owner}"
        for path in SOURCES
        for owner in _calls_by_function(ast.parse(path.read_text(encoding="utf-8")), "eig")
    ]
    assert sorted(sites) == EIG_SITES


# numpy.linalg's factorizations, which only the entries of linalg may name.
FACTORIZATIONS = {"svd", "eig", "eigh", "eigvals", "eigvalsh", "inv", "qr", "solve", "lstsq", "cholesky", "pinv"}


def _names_lapack(node: ast.AST) -> bool:
    """A numpy.linalg factorization or a scipy module, named by an attribute, an import or a string constant."""
    if isinstance(node, ast.Attribute):
        return ast.unparse(node.value) in ("np.linalg", "numpy.linalg") and node.attr in FACTORIZATIONS
    if isinstance(node, ast.ImportFrom):
        module, names = node.module or "", {alias.name for alias in node.names}
        return module.split(".")[0] == "scipy" or module == "numpy.linalg" and not names.isdisjoint(FACTORIZATIONS)
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "scipy" for alias in node.names)
    is_text = isinstance(node, ast.Constant) and isinstance(node.value, str)
    return is_text and re.fullmatch(r"scipy(\.\w+)*", node.value) is not None


def test_only_linalg_names_a_factorization_or_scipy():
    # linalg's Schur entries import scipy when first called, so every other
    # path, diagonalizable pairs above the Kronecker crossover included, runs
    # on numpy alone.
    sites = {path.stem for path in SOURCES if any(map(_names_lapack, ast.walk(_source(path.stem))))}
    assert sites == {"linalg"}


def _package_imports(tree: ast.AST) -> set[str]:
    """The package modules a source file imports outside any function body."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.ImportFrom) and child.level:
                found.update([child.module] if child.module else [alias.name for alias in child.names])
            elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("aluthge"):
                found.add(child.module)
            elif isinstance(child, ast.Import):
                found.update(alias.name for alias in child.names if alias.name.startswith("aluthge"))
            visit(child)

    visit(tree)
    return found


def _source(stem: str) -> ast.AST:
    return ast.parse(next(path for path in SOURCES if path.stem == stem).read_text(encoding="utf-8"))


def test_package_init_imports_no_submodule_and_names_each_export_once():
    # Each export is written once, as a word of its module's entry in the table.
    tree = _source("__init__")
    assert _package_imports(tree) == set()
    table = next(
        node.value for node in tree.body if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_EXPORTS"
    )
    in_table = {id(node) for node in ast.walk(table)}
    listed = [
        word
        for entry in table.values
        for node in ast.walk(entry)
        if isinstance(node, ast.Constant)
        for word in node.value.split()
    ]
    elsewhere = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and id(node) not in in_table}
    elsewhere |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exports = import_module("aluthge").__all__
    assert sorted(listed) == sorted(exports)
    assert elsewhere.isdisjoint(exports)


def test_cli_imports_only_parse_and_emit_modules_up_front():
    # Every other module is imported by the command that runs it.
    assert _package_imports(_source("cli")) == {"linalg", "matrixio", "polar"}


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'aluthge' has no attribute 'sylvester_matrix'$"):
        import_module("aluthge").sylvester_matrix


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from aluthge import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(import_module("aluthge").__all__)


# Exports that no package code calls, kept as API for users (the README
# says who each is for): the paper's transform, two of its commutant
# criteria, the seeded instance generator and the writers of the
# documents that the CLI reads.
LIBRARY_API = {"aluthge", "com_inclusion", "generate", "squared_angular_criterion", "write_matrices", "write_matrix"}


def test_every_export_has_a_caller_or_is_library_api():
    loaded = {
        node.id
        for path in SOURCES
        if path.stem != "__init__"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert set(import_module("aluthge").__all__) - loaded == LIBRARY_API
