"""Exact computations on non-crossing partition lattices of ADE root systems.

The package builds finite root systems of types A, D and E, enumerates the
poset NC(W) of non-crossing partitions under the absolute order (and its
m-divisible generalisation NC^m), computes decomposition numbers of Coxeter
elements, characteristic and zeta polynomials, M- and F-triangles, and
replays the published linear-system derivations of the large exceptional
decomposition tables.  All arithmetic is exact (integers and fractions).
"""

from .decomp import (DecompositionTable, all_labels_of_rank,
                     all_tuples_of_rank, canonical_tuple, census_table,
                     count_bruteforce, count_product, count_typeA,
                     full_table, orderings, special_values, tuple_rank)
from .exact import (Echelon, InconsistentSystemError, LinearSystem,
                    SolutionSpace, SparsePolynomial, echelon, solve)
from .linsys import (EXPECTED_DIMENSION, ReplayError, ReplayReport,
                     generate_equations, production_table, replay)
from .ncposet import (NcPoset, ResourceGuardError, build_ncm,
                      characteristic_direct, characteristic_polynomial,
                      enumerate_nc, load_or_enumerate, mobius,
                      mobius_from_top, ncm_cardinality, read_cache,
                      write_cache, zeta_closed, zeta_direct)
from .refdata import (CHI_STAR_COEFFS, REFERENCE_TABLE_NAMES,
                      chi_star_reference, golden_dual, reference_table)
from .rootsystem import SUPPORTED_AMBIENTS, RootSystem, build_root_system
from .triangles import (FTriangleCandidate, MTriangle, TransformFailure,
                        assemble_dual, dual_to_primal, f_reciprocity_checks,
                        fm_transform, mtriangle_direct, reciprocity_check,
                        zeta_identity_check)
from .typelabel import TypeLabel, label
from .weyl import (absolute_length, bipartite_coxeter,
                   classify_parabolic_type, enumerate_group,
                   reflection_orbits)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
