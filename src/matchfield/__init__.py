"""Exact combinatorics of matching fields and triangulations of products of
two simplices: tope fields, linkage, amalgamation, tope arrangements, Chow
covectors with their lattice-point bijection and reconstruction, degree-pair
reconstruction of triangulations, flip graphs, matching stacks and
transversal matroids."""

from .core import (
    BipartiteGraph,
    contained_tope,
    is_compatible,
    simplex_lattice_points,
    subsets,
)
from .errors import (
    FieldValidationError,
    InconsistentCollectionError,
    InconsistentPairsError,
    InconsistentPhiError,
    MatchfieldError,
    MissingSubsetError,
    NotAMatchingError,
    NotASpanningTreeError,
    NotATriangulationError,
    NotLinkageError,
    SizeCapError,
    TiedMinimumError,
    WrongSupportError,
)
from .fields import (
    ExtendedTopeArrangement,
    MatchingField,
    TopeArrangement,
    TopeField,
    coherent_field,
    field_from_arrangement,
    i_amalgamation,
    is_linkage,
    linkage_covector,
    maximal_tope,
    tope_arrangement,
    trianguloid_check,
    validate_matching_field,
    validate_tope_field,
)
from .chow import (
    ChowCollection,
    PhiMap,
    chow_collection,
    field_from_chow,
    reconstruct_chow_from_phi,
)
from .triang import (
    Triangulation,
    count_bound,
    enumerate_triangulations,
    extract_field,
    phi,
    reconstruct_triangulation,
    staircase_triangulation,
    validate_triangulation,
)
from .flip import (
    flip_graph,
    linkage_tree,
    maximal_cells,
)
from .stacks import (
    MatchingStack,
    TransversalMatroid,
    completion,
    extend,
    extraction,
    right_submatching_check,
    stack_from_trees,
    transversal_matroid,
    validate_ensemble,
)
from .randgen import random_weight_matrix, seeded_coherent_field, splitmix64

__version__ = "0.1.0"
