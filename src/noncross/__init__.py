"""Exact computations on non-crossing partition lattices of ADE root systems.

The package builds finite root systems of types A, D and E, enumerates the
poset NC(W) of non-crossing partitions under the absolute order (and its
m-divisible generalisation NC^m), computes decomposition numbers of Coxeter
elements, characteristic and zeta polynomials, M- and F-triangles, and
replays the published linear-system derivations of the large exceptional
decomposition tables.  All arithmetic is exact (integers and fractions).

The namespace is lazy (PEP 562): ``import noncross`` loads no submodule,
and a name of ``__all__`` imports its defining submodule on first access,
so a process pays only for the layers it uses.  ``from noncross import
X`` and ``from noncross import *`` work as for eager imports.
"""

from importlib import import_module as _import_module

__version__ = "1.0.0"

# defining submodule -> the names the package exports from it
_EXPORTS = {
    "closedform": ("zeta_closed",),
    "decomp": ("DecompositionTable", "all_labels_of_rank",
               "all_tuples_of_rank", "canonical_tuple", "census_table",
               "count_bruteforce", "count_product", "count_typeA",
               "full_table", "orderings", "special_values", "tuple_rank"),
    "direct": ("build_ncm", "characteristic_direct", "mobius",
               "mobius_from_top", "zeta_direct"),
    "exact": ("Echelon", "InconsistentSystemError", "LinearSystem",
              "SolutionSpace", "echelon", "solve"),
    "linsys": ("EXPECTED_DIMENSION", "ReplayError", "ReplayReport",
               "generate_equations", "replay"),
    "ncposet": ("NcPoset", "characteristic_polynomial", "enumerate_nc",
                "ncm_cardinality", "read_cache", "reflection_orbits",
                "write_cache"),
    "polynomial": ("SparsePolynomial",),
    "refdata": ("CHI_STAR_COEFFS", "REFERENCE_TABLE_NAMES",
                "chi_star_reference", "golden_dual", "reference_table"),
    "rootsystem": ("RootSystem", "build_root_system"),
    "triangles": ("FTriangleCandidate", "MTriangle", "TransformFailure",
                  "assemble_dual", "dual_to_primal", "f_reciprocity_checks",
                  "fm_transform", "mtriangle_direct", "reciprocity_check",
                  "zeta_identity_check"),
    "typelabel": ("ResourceGuardError", "SUPPORTED_AMBIENTS", "TypeLabel",
                  "label"),
    "weyl": ("absolute_length", "bipartite_coxeter", "enumerate_group"),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module("." + name, __name__)
    if name not in _ORIGIN:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(_import_module("." + _ORIGIN[name], __name__), name)
    globals()[name] = value          # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
