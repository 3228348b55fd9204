"""Shared fixtures: the small reference fields and tree sets used throughout.

Matchings are written as words: position i of the word holds the left node
matched to ri.
"""

import gc
import random
import time
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from matchfield import BipartiteGraph, subsets, validate_matching_field
from matchfield.fields import field_from_graphs


def cpu_timed(call):
    """call()'s result and the CPU time of this process it took, with the
    collector paused: CPU time leaves out other processes' load, and a full
    collection of the whole test session's heap can alone take longer than
    a bound, charged to whichever call happens to trigger it."""
    gc.disable()
    try:
        start = time.process_time()
        result = call()
        return result, time.process_time() - start
    finally:
        gc.enable()


def graph(n, d, edges):
    return BipartiteGraph(n, d, edges)


def mask_table(graphs):
    """A table {key: graph} as the {key: edge mask} table that tope
    arrangements, extended arrangements and matching stacks are built from;
    a stack key (J, I) of subsets becomes (J mask, I mask)."""
    from matchfield import core

    def key(k):
        return tuple(map(core.subset_mask, k)) if k and type(k[0]) is tuple else k

    return {key(k): g.mask for k, g in graphs.items()}


def graph_to_json_dict(g):
    return {"n": g.n, "d": g.d, "edges": [list(e) for e in g.edges]}


def graph_from_json_dict(data):
    """A graph read with the strict checks of the table reader."""
    from matchfield import core
    from oracles import read_graph

    return read_graph(*core.read_sides(data), data["edges"])


def matching_from_word(n, d, word):
    return BipartiteGraph(n, d, [(int(ch), pos) for pos, ch in enumerate(word, start=1)])


def random_matching_field(n, d, seed):
    """Matching field with a seeded random matching on every d-subset; most
    such fields are not linkage."""
    rng = random.Random(seed)
    assignment = {}
    for sigma in subsets(n, d):
        rights = list(range(1, d + 1))
        rng.shuffle(rights)
        assignment[sigma] = BipartiteGraph(n, d, list(zip(sigma, rights)))
    return validate_matching_field(n, d, assignment)


# weight entries of every accepted kind, with numerators small enough that
# ties are common: Fractions with denominators 1..12, binary floats, ints
RATIONAL_WEIGHTS = st.one_of(
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 12)),
    st.integers(-6, 6).map(lambda k: k / 4),
    st.integers(-3, 3),
)

# entries that are no finite rational, which every weight reader refuses
BAD_WEIGHTS = pytest.mark.parametrize(
    "bad",
    ["x", None, 1j, float("nan"), float("inf"), "1/0"],
    ids=["string", "none", "complex", "nan", "inf", "zero-denominator"],
)


def rescaled(weights, c, shifts):
    """c * weights plus shifts[i] on column i, in exact arithmetic: a
    perfect matching uses every column once, so its weight moves by the
    same positive factor and the same constant as every other's."""
    return [[c * Fraction(x) + s for x, s in zip(row, shifts)] for row in weights]


def field_from_words(n, d, words):
    assignment = {
        sigma: matching_from_word(n, d, word) for sigma, word in words.items()
    }
    return validate_matching_field(n, d, assignment)


FIELD_42_WORDS = {
    (1, 2): "12",
    (1, 3): "13",
    (1, 4): "14",
    (2, 3): "23",
    (2, 4): "42",
    (3, 4): "43",
}

# (4,2)-tope field of type (2,1): the 1-amalgamation of the field above
TOPES_42 = {
    (1, 2, 3): [(1, 1), (2, 1), (3, 2)],
    (1, 2, 4): [(1, 1), (4, 1), (2, 2)],
    (1, 3, 4): [(1, 1), (4, 1), (3, 2)],
    (2, 3, 4): [(2, 1), (4, 1), (3, 2)],
}

# linkage covectors of the (4,2) field, plus the tope covector of TOPES_42
COVECTORS_42 = {
    (1, 2, 3): [(1, 1), (2, 1), (2, 2), (3, 2)],
    (1, 2, 4): [(1, 1), (4, 1), (2, 2), (4, 2)],
    (1, 3, 4): [(1, 1), (4, 1), (4, 2), (3, 2)],
    (2, 3, 4): [(2, 1), (4, 1), (2, 2), (3, 2)],
}
TOPE_COVECTOR_42 = [(1, 1), (2, 1), (4, 1), (2, 2), (3, 2)]

# (4,3) field with pairwise compatible matchings that is not linkage
FIELD_43_WORDS = {
    (1, 2, 3): "123",
    (1, 2, 4): "124",
    (1, 3, 4): "413",
    (2, 3, 4): "234",
}

# interior trees of a non-regular subdivision; their matchings form a
# (6,3) linkage field that is polyhedral but not coherent
INTERIOR_TREES_63 = [
    [(1, 1), (2, 1), (1, 3), (2, 2), (4, 2), (3, 3), (5, 3), (6, 3)],
    [(1, 1), (2, 1), (3, 1), (2, 2), (4, 2), (3, 3), (5, 3), (6, 3)],
    [(1, 1), (6, 2), (3, 1), (2, 2), (4, 2), (3, 3), (5, 3), (6, 3)],
    [(1, 1), (2, 1), (4, 2), (6, 2), (3, 1), (4, 1), (5, 3), (6, 3)],
    [(1, 1), (2, 1), (3, 1), (2, 2), (4, 2), (6, 2), (5, 3), (6, 3)],
    [(1, 1), (2, 2), (3, 1), (5, 2), (4, 2), (3, 3), (5, 3), (6, 2)],
]

# linkage covectors of a (6,4) field whose tope covectors are mutually
# incompatible; nodes 1..4 act as dummies, 5 and 6 carry the structure
COVECTOR_TREES_64 = [
    [(1, 1), (2, 2), (3, 3), (4, 4), (5, 1), (5, 2), (5, 3), (5, 4)],
    [(1, 1), (2, 2), (3, 3), (4, 4), (6, 1), (6, 2), (6, 3), (6, 4)],
    [(1, 1), (2, 2), (3, 3), (5, 4), (5, 1), (6, 2), (5, 3), (6, 4)],
    [(1, 1), (2, 2), (6, 3), (4, 4), (6, 1), (5, 2), (5, 3), (6, 4)],
    [(1, 1), (6, 2), (3, 3), (4, 4), (5, 1), (5, 2), (6, 3), (5, 4)],
    [(6, 1), (2, 2), (3, 3), (4, 4), (5, 1), (6, 2), (5, 3), (6, 4)],
]

# (5,3) linkage field whose flip graph decomposes into five linkage trees
FIELD_53_WORDS = ["321", "142", "521", "341", "351", "541", "342", "523", "542", "543"]


@pytest.fixture(scope="session")
def differential_fields():
    """Inputs on which fast constructions are compared with their oracles:
    seeded coherent (linkage) fields from (4,2) to (8,4), then seeded random
    matching fields, most of them not linkage."""
    from matchfield.randgen import seeded_coherent_field

    coherent = [
        seeded_coherent_field(n, d, 100 * n + d)[0]
        for n, d in [(4, 2), (5, 2), (5, 3), (6, 3), (7, 3), (6, 4), (8, 4)]
    ]
    random_fields = [
        random_matching_field(n, d, 10 * n + d + seed)
        for n, d in [(4, 2), (5, 2), (5, 3), (6, 3), (6, 4)]
        for seed in range(3)
    ]
    return coherent + random_fields


@pytest.fixture(scope="session")
def field_42():
    return field_from_words(4, 2, FIELD_42_WORDS)


@pytest.fixture(scope="session")
def tope_field_42(field_42):
    from matchfield import i_amalgamation

    return i_amalgamation(field_42, 1)


@pytest.fixture(scope="session")
def field_43():
    return field_from_words(4, 3, FIELD_43_WORDS)


@pytest.fixture(scope="session")
def field_53():
    words = {tuple(sorted(int(c) for c in w)): w for w in FIELD_53_WORDS}
    return field_from_words(5, 3, words)


@pytest.fixture(scope="session")
def trees_63():
    return [BipartiteGraph(6, 3, t) for t in INTERIOR_TREES_63]


@pytest.fixture(scope="session")
def field_63(trees_63):
    return field_from_graphs(trees_63, 6, 3)


@pytest.fixture(scope="session")
def covector_trees_64():
    return [BipartiteGraph(6, 4, t) for t in COVECTOR_TREES_64]


@pytest.fixture(scope="session")
def field_64(covector_trees_64):
    return field_from_graphs(covector_trees_64, 6, 4)


@pytest.fixture(scope="session")
def extended_24(field_64):
    """Extended (2,4) arrangement violating the hexagon axiom: strip the
    dummy matching from the maximal topes of the (6,4) field."""
    from matchfield.fields import extended_arrangement_by_stripping

    return extended_arrangement_by_stripping(field_64, [(1, 1), (2, 2), (3, 3), (4, 4)])


def exhaustive_compatibility(g1, g2):
    """Independent oracle for the alternating-cycle test: search all pairs of
    edge-disjoint perfect matchings on common node sets, one inside g1 minus
    g2, one inside g2 minus g1."""
    from matchfield.core import contained_matchings

    only1 = g1.difference(g2)
    only2 = g2.difference(g1)
    m1 = contained_matchings(only1)
    m2 = contained_matchings(only2)
    for key in set(m1) & set(m2):
        return False, key
    return True, None


def matchings_agree(g1, g2):
    """Oracle for core.agreed_masks on two graphs: whenever both contain
    perfect matchings on the same J ⊔ I, those matchings coincide."""
    from matchfield.core import CompatibilityWitness, contained_matchings

    g1._same_sides(g2)
    first = contained_matchings(g1)
    for key, m2 in contained_matchings(g2).items():
        m1 = first.get(key)
        if m1 is not None and m1 != m2:
            return False, CompatibilityWitness(key[0], key[1], m1, m2)
    return True, None


def agreed_graphs(graphs):
    """``core.agreed_masks`` of the graphs' masks and the first clash as
    ``triang.find_agreement_violation`` names it: (g, h, J, I) or None."""
    from matchfield import core, triang

    n, d = (graphs[0].n, graphs[0].d) if graphs else (0, 1)
    return core.agreed_masks([g.mask for g in graphs], n, d)[0], triang.find_agreement_violation(graphs)
