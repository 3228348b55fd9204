"""Cross-cutting invariants: oracle equivalences, randomized structure
checks, order independence."""

import functools
import itertools

import pytest
from hypothesis import example, find, given, settings, strategies as st

from matchfield import (
    BipartiteGraph,
    InconsistentPairsError,
    flip_graph,
    is_compatible,
    is_linkage,
    maximal_tope,
    phi,
    reconstruct_chow_from_phi,
    reconstruct_triangulation,
    simplex_lattice_points,
    subsets,
    tope_arrangement,
)
from matchfield import chow, core, triang
from matchfield.chow import PhiMap, chow_by_definition, chow_collection
from matchfield.core import contained_matchings
from matchfield.errors import MatchfieldError
from matchfield.fields import check_sector_monotonicity, field_from_graphs
from matchfield.randgen import random_weight_matrix, seeded_coherent_field, splitmix64
from matchfield.stacks import transversal_matroid
from matchfield.triang import (
    check_triangulation,
    degree_pair,
    enumerate_triangulations,
    find_agreement_violation,
    find_flip_violation,
    staircase_triangulation,
    tree_count,
    trees_from_json_dict,
)

from conftest import (
    agreed_graphs,
    exhaustive_compatibility,
    graph,
    graph_from_json_dict,
    graph_to_json_dict,
    mask_table,
    random_matching_field,
)
from oracles import (
    agreed_matchings_per_graph,
    check_basis_exchange,
    check_triangulation_with_flip,
    chow_by_intersection,
    column_functions,
    contained_tope_by_search,
    covectors_by_rdv,
    extended_tope_arrangement_by_products,
    field_from_graphs_by_partial_matchings,
    find_cycle_by_graph,
    is_forest,
    is_simplex_lattice_by_listing,
    is_spanning_tree_by_cycles,
    matching_masks_by_graph,
    read_graph,
    rebuild_by_validation,
    reconstruct_chow_on_tuples,
    reconstruct_triangulation_by_every_leaf,
    reconstruct_triangulation_on_tuples,
    sector_sweep_by_levels,
    transversal_matroid_by_augmenting,
    tree_degree_pair,
)
from test_fields import arrangement_by_amalgamation, outcome
from test_flip import flip_graph_by_pairs
from test_triang import agreement_by_pairs, flip_violation_by_scan, spanning_tree_of_order


def graphs_strategy(n, d):
    return st.integers(min_value=0, max_value=(1 << (n * d)) - 1).map(
        lambda mask: BipartiteGraph.from_mask(n, d, mask)
    )


class TestKeyedPassOracles:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(3, 2), (4, 2), (5, 2), (4, 3), (5, 3)]), st.integers(0, 1 << 32))
    def test_random_matching_fields(self, size, seed):
        # linkage or not, the covector and keyed-pass routes agree with the
        # amalgamation chain and the pairwise scan
        field = random_matching_field(*size, seed)
        assert flip_graph(field) == flip_graph_by_pairs(field)
        assert outcome(tope_arrangement, field) == outcome(arrangement_by_amalgamation, field)


@st.composite
def perturbed_tree_lists(draw):
    """A relabelled staircase with up to three trees replaced by spanning
    trees of random edge orders, in a drawn order."""
    n, d = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (4, 3)]))
    left = draw(st.permutations(range(1, n + 1)))
    right = draw(st.permutations(range(1, d + 1)))
    trees = staircase_triangulation(n, d, left, right).sorted_trees()
    every = [(j, i) for j in range(1, n + 1) for i in range(1, d + 1)]
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(trees) - 1))
        trees[pos] = spanning_tree_of_order(n, d, draw(st.permutations(every)))
    return draw(st.permutations(trees))


class TestTriangulationAxiomOracles:
    @settings(max_examples=200, deadline=None)
    @given(perturbed_tree_lists())
    def test_keyed_pass_and_mask_lookup(self, trees):
        assert find_agreement_violation(trees) == agreement_by_pairs(trees)
        assert find_flip_violation(trees) == flip_violation_by_scan(trees)


@st.composite
def lattice_candidates(draw):
    """m, dim and C(m + dim - 1, dim - 1) vectors, the count of the lattice
    points of m * Delta_{dim-1}: those points in a drawn order with up to
    three of them replaced by a repeat of another, by a vector of the right
    sum with an entry below 0, by one of the wrong sum, or by one of the
    wrong length."""
    m, dim = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    vectors = draw(st.permutations(simplex_lattice_points(m, dim)))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(vectors) - 1))
        v = list(vectors[pos])
        fault = draw(st.sampled_from(["repeat", "negative", "sum", "length"]))
        if fault == "repeat":
            v = list(draw(st.sampled_from(vectors)))
        elif fault == "negative" and len(v) > 1:
            a, b = draw(st.permutations(range(len(v))))[:2]
            shift = v[a] + draw(st.integers(1, 2))
            v[a], v[b] = v[a] - shift, v[b] + shift
        elif fault == "sum" and v:
            v[draw(st.integers(0, len(v) - 1))] += draw(st.sampled_from([-1, 1]))
        elif fault == "length":
            v = v[:-1] if len(v) > 1 and draw(st.booleans()) else v + [0]
        vectors[pos] = tuple(v)
    return m, dim, vectors


class TestLatticeCountingOracle:
    @settings(max_examples=300, deadline=None)
    @given(lattice_candidates())
    def test_counting_agrees_with_listing(self, candidate):
        # the count is always right, so only the entries decide
        m, dim, vectors = candidate
        assert core.is_simplex_lattice(vectors, m, dim) == is_simplex_lattice_by_listing(
            vectors, m, dim
        )


@st.composite
def member_sets(draw):
    """A random set of lattice points of m * Delta_{d-1}, a right node i and
    a seed: the top point m * e_i or a drawn lattice point."""
    d, m = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    points = simplex_lattice_points(m, d)
    members = draw(st.sets(st.sampled_from(points)))
    i = draw(st.integers(1, d))
    top = tuple(m if t == i else 0 for t in range(1, d + 1))
    seed = draw(st.sampled_from([top, top] + points))
    return members | draw(st.sampled_from([set(), {top}])), i, seed


@st.composite
def forests(draw, n, d):
    """A random forest on (n, d): edges in a drawn order, each kept unless
    it closes a cycle, up to a drawn edge count."""
    every = draw(st.permutations(range(n * d)))
    limit = draw(st.integers(0, n + d - 1))
    mask = 0
    for b in every:
        if mask.bit_count() == limit:
            break
        if is_forest(BipartiteGraph.from_mask(n, d, mask | 1 << b)):
            mask |= 1 << b
    return BipartiteGraph.from_mask(n, d, mask)


@st.composite
def maximal_topes(draw, n, d):
    """A random graph with left degrees 1 covering every right node."""
    f = draw(st.lists(st.integers(1, d), min_size=n, max_size=n).filter(
        lambda f: len(set(f)) == d))
    return BipartiteGraph(n, d, list(zip(range(1, n + 1), f)))


@st.composite
def collectible_graph_lists(draw):
    """Graphs to read a field off: the trees of a relabelled staircase or
    the maximal topes of a random field's arrangement, in a drawn order,
    with up to three replaced by random forests or maximal topes."""
    n, d = draw(st.sampled_from([(2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (5, 3)]))
    if draw(st.booleans()):
        left = draw(st.permutations(range(1, n + 1)))
        right = draw(st.permutations(range(1, d + 1)))
        graphs = staircase_triangulation(n, d, left, right).sorted_trees()
    else:
        field = random_matching_field(n, d, draw(st.integers(0, 1 << 32)))
        try:
            graphs = [tope for _, tope in tope_arrangement(field).items()]
        except MatchfieldError:
            graphs = [m for _, m in field.items()]
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(graphs) - 1))
        graphs[pos] = draw(st.one_of(forests(n, d), maximal_topes(n, d)))
    return n, d, draw(st.permutations(graphs))


@st.composite
def tope_search_cases(draw):
    """A graph near a tree and a right index k in 0..d + 1: a spanning tree
    on some left rows (the others isolated), maybe with one bit flipped, or
    a sparse random mask."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    k = draw(st.integers(0, d + 1))
    if draw(st.booleans()):
        rows = sorted(draw(st.sets(st.integers(1, n), min_size=1)))
        every = [(j, i) for j in rows for i in range(1, d + 1)]
        mask = spanning_tree_of_order(n, d, draw(st.permutations(every))).mask
        if draw(st.booleans()):
            mask ^= 1 << draw(st.integers(0, n * d - 1))
    else:
        bits = draw(st.sets(st.integers(0, n * d - 1), max_size=n + d))
        mask = sum(1 << b for b in bits)
    return BipartiteGraph.from_mask(n, d, mask), k


def tope_outcome(search, case):
    """The tope's edge mask, or the type and message of the error."""
    try:
        return search(*case).mask
    except MatchfieldError as exc:
        return type(exc), str(exc)


@st.composite
def cycle_search_cases(draw):
    """A graph up to 8 x 8: a forest, that forest with up to three edges
    added, which mostly closes a cycle, or any edge set."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    forest = draw(forests(n, d)).mask
    extra = sum(1 << b for b in draw(st.sets(st.integers(0, n * d - 1), min_size=1, max_size=3)))
    any_edges = draw(st.integers(0, (1 << n * d) - 1))
    return BipartiteGraph.from_mask(n, d, draw(st.sampled_from([forest, forest | extra, any_edges])))


class TestMaskKernelOracles:
    @settings(max_examples=500, deadline=None)
    @given(cycle_search_cases())
    @example(BipartiteGraph.from_mask(8, 8, (1 << 64) - 1))
    @example(BipartiteGraph(8, 8, [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4),
                                   (5, 4), (5, 5), (6, 5), (6, 6), (7, 6), (7, 7), (8, 7),
                                   (8, 8), (1, 8)]))
    def test_mask_cycle_search(self, g):
        # the same cycle, edge for edge, as the union-find over tagged nodes
        assert core.find_cycle(g.mask, g.n, g.d) == find_cycle_by_graph(g)

    @pytest.mark.parametrize("forest", [True, False])
    def test_cycle_search_cases_reach_both_verdicts(self, forest):
        def reaches(g):
            return g.n * g.d > 1 and (find_cycle_by_graph(g) is None) == forest

        find(cycle_search_cases(), reaches, settings=settings(database=None, derandomize=True))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_one_mask_agreement_is_the_listing(self, n, d, data):
        # the same items in the same key order, and no clash on one mask
        mask = data.draw(st.integers(0, (1 << n * d) - 1))
        agreed, clash = core.agreed_masks([mask], n, d)
        expected = matching_masks_by_graph(BipartiteGraph.from_mask(n, d, mask))
        assert list(agreed.items()) == list(expected.items()) and clash is None

    @settings(max_examples=500, deadline=None)
    @given(tope_search_cases())
    def test_row_walk_contained_tope(self, case):
        assert tope_outcome(core.contained_tope, case) == tope_outcome(contained_tope_by_search, case)

    @pytest.mark.parametrize("prefix", ["ok", "right index", "tree must cover", "input is not a tree"])
    def test_tope_search_cases_reach_every_outcome(self, prefix):
        # a tope and each of the three errors occur among the cases above
        def reaches(case):
            got = tope_outcome(contained_tope_by_search, case)
            return (got[1] if isinstance(got, tuple) else "ok").startswith(prefix)

        find(tope_search_cases(), reaches, settings=settings(database=None, derandomize=True))

    @settings(max_examples=300, deadline=None)
    @given(member_sets(), st.integers(1, 3))
    def test_breadth_first_sector_sweep(self, case, spare):
        # the coded sweep in any base above the top digit, decoded
        members, i, seed = case
        dim, base = len(seed), sum(seed) + spare
        codes = {core.encode_point(v, base) for v in members}
        swept = core.sector_sweep(codes, i, core.encode_point(seed, base), dim, base)
        assert {core.decode_point(x, dim, base) for x in swept} == sector_sweep_by_levels(
            members, i, seed
        )

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 4), st.data())
    def test_row_walk_spanning_test(self, n, d, data):
        # edge counts near n + d - 1, where the two tests can disagree
        bits = data.draw(st.sets(
            st.integers(0, max(n * d - 1, 0)),
            min_size=max(min(n * d, n + d - 2), 0),
            max_size=min(n * d, n + d),
        ))
        g = BipartiteGraph.from_mask(n, d, sum(1 << b for b in bits))
        assert (core.tree_tope(g.mask, range(1, n + 1), d, 1) is not None) == is_spanning_tree_by_cycles(g)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([(2, 2), (3, 2), (4, 3), (5, 3), (4, 4)]), st.data())
    def test_right_perfect_matchings(self, size, data):
        n, d = size
        g = data.draw(st.one_of(forests(n, d), maximal_topes(n, d)))
        full = (1 << d) - 1
        expected = {J: m for (J, I), m in matching_masks_by_graph(g).items() if I == full}
        assert core.right_perfect_matchings(g.mask, n, d) == expected

    @settings(max_examples=200, deadline=None)
    @given(collectible_graph_lists())
    def test_field_from_graphs(self, case):
        # the same field, or the same error and message
        n, d, graphs = case
        assert outcome(lambda gs: field_from_graphs(gs, n, d), graphs) == outcome(
            lambda gs: field_from_graphs_by_partial_matchings(gs, n, d), graphs
        )


@st.composite
def bijective_pairings(draw):
    """The left lattice points paired with a permutation of the right ones."""
    n, d = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rights = draw(st.permutations(simplex_lattice_points(n - 1, d)))
    return n, d, frozenset(zip(simplex_lattice_points(d - 1, n), rights))


class TestDegreePairReconstruction:
    @settings(max_examples=300, deadline=None)
    @given(bijective_pairings())
    def test_random_pairings_are_rebuilt_or_refused(self, case):
        # nothing but InconsistentPairsError may escape, and the verdict and
        # trees are those of the every-leaf recursion under the certificate
        n, d, pairs = case
        try:
            t = reconstruct_triangulation(pairs, n, d)
        except InconsistentPairsError:
            with pytest.raises(InconsistentPairsError):
                reconstruct_triangulation_by_every_leaf(pairs, n, d)
            return
        assert phi(t) == pairs
        assert check_triangulation(t.masks, n, d).ok
        assert reconstruct_triangulation_by_every_leaf(pairs, n, d) == t


def route_outcome(route, *args):
    """A route's result, or the type and message of the error it raised."""
    try:
        return route(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def relabelled_staircases(draw, max_n=6, max_d=5):
    """A staircase of size up to (max_n, max_d), either way round, with its
    rows and columns in drawn orders."""
    n, d = draw(st.integers(1, max_n)), draw(st.integers(1, max_d))
    if draw(st.booleans()):
        n, d = d, n
    left = draw(st.permutations(range(1, n + 1)))
    right = draw(st.permutations(range(1, d + 1)))
    return staircase_triangulation(n, d, left, right)


def moved_unit(draw, vector):
    """The vector with one unit moved between two drawn coordinates, or the
    vector itself when the drawn source coordinate is zero."""
    a, b = draw(st.integers(0, len(vector) - 1)), draw(st.integers(0, len(vector) - 1))
    if not vector[a]:
        return vector
    moved = list(vector)
    moved[a] -= 1
    moved[b] += 1
    return tuple(moved)


@st.composite
def mutated_pair_sets(draw):
    """The pairs of a relabelled staircase up to (5,4) after one or two
    mutations: two right vectors swapped, or one unit moved between two
    coordinates of one vector."""
    t = draw(relabelled_staircases(5, 4))
    pairs = sorted(phi(t))
    for _ in range(draw(st.integers(1, 2))):
        a, b = draw(st.integers(0, len(pairs) - 1)), draw(st.integers(0, len(pairs) - 1))
        (u, v), (w, x) = pairs[a], pairs[b]
        if draw(st.booleans()):
            pairs[a], pairs[b] = (u, x), (w, v)
        elif draw(st.booleans()):
            pairs[a] = (moved_unit(draw, u), v)
        else:
            pairs[a] = (u, moved_unit(draw, v))
    return t.n, t.d, pairs


@st.composite
def mutated_phi_maps(draw):
    """The phi map of a seeded coherent field up to (7,4) after one or two
    mutations: two values swapped, or one unit moved within one value."""
    n, d = draw(st.sampled_from([(3, 2), (4, 2), (4, 3), (5, 3), (6, 3), (6, 4), (7, 4)]))
    field, _, _ = seeded_coherent_field(n, d, draw(st.integers(0, 50)))
    mapping = dict(chow_collection(field).phi().mapping)
    keys = sorted(mapping, key=core.mask_subset)
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(keys)), draw(st.sampled_from(keys))
        if draw(st.booleans()):
            mapping[a], mapping[b] = mapping[b], mapping[a]
        else:
            mapping[a] = moved_unit(draw, mapping[a])
    return n, d, mapping


class TestCodedReconstructions:
    """Both sector reconstructions on integer codes against the same routes
    on tuples: the same result, or the same error type and message."""

    def test_every_enumerated_triangulation(self):
        sizes = [(n, d) for n in range(1, 7) for d in range(1, 7) if tree_count(n, d) <= 6]
        rebuilt = 0
        for n, d in sizes:
            for t in enumerate_triangulations(n, d):
                pairs = phi(t)
                assert reconstruct_triangulation(pairs, n, d) == t
                assert reconstruct_triangulation_on_tuples(pairs, n, d) == t
                rebuilt += 1
        # eleven sizes with one tree, d! at (2, d), n! at (n, 2), 108 at (3, 3)
        assert rebuilt == 11 + (2 + 6 + 24 + 120 + 720) + (6 + 24 + 120 + 720) + 108

    @settings(max_examples=60, deadline=None)
    @given(relabelled_staircases())
    @example(staircase_triangulation(6, 5, (4, 1, 6, 2, 5, 3), (5, 3, 1, 4, 2)))
    @example(staircase_triangulation(5, 6, (2, 5, 1, 4, 3), (6, 1, 5, 2, 4, 3)))
    def test_relabelled_staircases(self, t):
        pairs = phi(t)
        assert reconstruct_triangulation(pairs, t.n, t.d) == t
        assert reconstruct_triangulation_on_tuples(pairs, t.n, t.d) == t

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(mutated_pair_sets(), bijective_pairings()))
    def test_mutated_pair_sets(self, case):
        n, d, pairs = case
        assert route_outcome(reconstruct_triangulation, pairs, n, d) == route_outcome(
            reconstruct_triangulation_on_tuples, pairs, n, d
        )

    @settings(max_examples=150, deadline=None)
    @given(mutated_phi_maps())
    def test_mutated_phi_maps(self, case):
        n, d, mapping = case
        assert route_outcome(reconstruct_chow_from_phi, PhiMap(n, d, mapping), n, d) == (
            route_outcome(reconstruct_chow_on_tuples, PhiMap(n, d, mapping), n, d)
        )

    @settings(max_examples=150, deadline=None)
    @given(mutated_phi_maps())
    # the (4,3) maps of test_each_rejection_check refused by the two checks
    @example((4, 3, {0b11: (0, 0, 2), 0b101: (1, 0, 1), 0b1001: (0, 1, 1),
                     0b110: (1, 1, 0), 0b1010: (2, 0, 0), 0b1100: (0, 2, 0)}))
    @example((4, 3, {0b11: (0, 0, 2), 0b101: (1, 0, 1), 0b1001: (0, 1, 1),
                     0b110: (0, 2, 0), 0b1010: (2, 0, 0), 0b1100: (1, 1, 0)}))
    def test_rebuild_keeps_the_verdict_of_validating_its_table(self, case):
        # the rebuild, before any certificate, gives the collection or the
        # refusal that validating the table of its sweeps gives; both run
        # on a phi map whose shape the caller has checked, as
        # reconstruct_chow_from_phi and roundtrip --kind chow both do
        n, d, mapping = case

        def checked_then(route, phi):
            phi.validate_bijective()
            cc = route(phi, n, d)
            return list(cc.mask_table.items()), list(cc.rdvs.items())

        assert route_outcome(checked_then, chow._rebuild, PhiMap(n, d, mapping)) == (
            route_outcome(checked_then, rebuild_by_validation, PhiMap(n, d, mapping))
        )

    @pytest.mark.parametrize("strategy", [mutated_pair_sets(), mutated_phi_maps()])
    def test_mutations_reach_a_deep_refusal(self, strategy):
        # some mutated input passes the shape checks and is refused by the
        # sectors or the certificate
        deep = ("admitted to two sectors", "sectors do not cover", "negative degree",
                "rebuilt trees violate", "does not reproduce", "not a perfect matching")

        def refused_deep(case):
            n, d, data = case
            if isinstance(data, dict):
                got = route_outcome(reconstruct_chow_from_phi, PhiMap(n, d, data), n, d)
            else:
                got = route_outcome(reconstruct_triangulation, data, n, d)
            return isinstance(got, tuple) and any(text in got[1] for text in deep)

        find(strategy, refused_deep, settings=settings(database=None, derandomize=True))


def memo_levels(memo):
    """(n, d, codes) of every level of coded pairs that the memo of
    ``triang._tree`` holds: the level each deletion step was taken from and
    its facets, and each pair set before and after its transposition."""
    levels = set()
    for key, value in memo.items():
        if isinstance(key, frozenset):  # an interned level set, held as its own key
            continue
        if len(key) == 4:  # (n, d, codes, pos) of a deletion
            n, d, codes, _ = key
            levels |= {(n, d, codes), (n - 1, d, value[1])}
        else:  # (n, d, codes) of a transposition
            n, d, codes = key
            levels |= {(n, d, codes), (d, n, value)}
    return levels


class TestSettledByTheShapeCheck:
    """What the shape check at the entry point settles, so that neither
    ``core.sectors`` nor ``triang._rebuild`` tests it again: at every level
    the deletions accept, both projections biject onto their lattice points
    and every sweep seed is present, and every rebuilt tree carries its own
    degree pair."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(mutated_pair_sets(), bijective_pairings(),
                     relabelled_staircases().map(lambda t: (t.n, t.d, phi(t)))))
    def test_every_accepted_level_keeps_the_shape_and_every_tree_its_pair(self, case):
        n, d, pairs = case
        pairs = frozenset((tuple(u), tuple(v)) for u, v in pairs)
        try:
            triang._check_pair_shape(pairs, n, d)
        except InconsistentPairsError:
            return
        base = max(n, d)
        codes = frozenset(core.encode_point(u + v, base) for u, v in pairs)
        left, right, memo, trees = tuple(range(1, n + 1)), tuple(range(1, d + 1)), {}, {}
        try:
            for x in sorted(codes):
                trees[x] = triang._tree(x, codes, left, right, base, memo)
        except InconsistentPairsError:
            pass  # the levels of the steps taken before the refusal are kept
        for m, k, level in memo_levels(memo):
            low = base**k
            lefts = [core.decode_point(x // low, m, base) for x in level]
            rights = [core.decode_point(x % low, k, base) for x in level]
            assert core.is_simplex_lattice(lefts, k - 1, m)
            assert core.is_simplex_lattice(rights, m - 1, k)
            seeds = {(m - 1) * base ** (k - i) for i in range(1, k + 1)}
            assert seeds <= {x % low for x in level}
        for x, mask in trees.items():
            assert core.encode_point(sum(degree_pair(mask, n, d), ()), base) == x
        if len(trees) == len(codes):
            rebuilt = triang._rebuild(pairs, n, d)
            assert sorted(degree_pair(m, n, d) for m in rebuilt) == sorted(pairs)


@st.composite
def mutated_tree_sets(draw):
    """n, d and the trees of a relabelled staircase up to (6,5) or (5,6) in
    a drawn order, with one tree kept, replaced by a spanning tree of a
    random edge order or by as many edges in a random order, dropped, or
    replaced by a copy of another tree."""
    t = draw(relabelled_staircases())
    n, d, trees = t.n, t.d, t.sorted_trees()
    every = [(j, i) for j in range(1, n + 1) for i in range(1, d + 1)]
    pos = draw(st.integers(0, len(trees) - 1))
    change = draw(st.sampled_from(["keep", "spanning", "edges", "drop", "copy"]))
    if change == "spanning":
        trees[pos] = spanning_tree_of_order(n, d, draw(st.permutations(every)))
    elif change == "edges":
        trees[pos] = graph(n, d, draw(st.permutations(every))[: n + d - 1])
    elif change == "drop":
        del trees[pos]
    elif change == "copy":
        trees[pos] = trees[draw(st.integers(0, len(trees) - 1))]
    return n, d, draw(st.permutations(trees))


class TestTriangulationMaskRoutes:
    """The triangulation layer on edge masks against the graph routes of
    ``tests/oracles.py``: the same reader, degree pairs, report kind and
    witness repr, rebuild, and extended arrangement."""

    @settings(max_examples=200, deadline=None)
    @given(mutated_tree_sets())
    @example((2, 2, [graph(2, 2, [(1, 1), (2, 1), (2, 2)]), graph(2, 2, [(1, 2), (2, 1), (2, 2)])]))
    def test_reader_pairs_and_report(self, case):
        n, d, trees = case
        data = {"n": n, "d": d, "trees": [list(map(list, g.edges)) for g in trees]}
        masks = trees_from_json_dict(data)[2]
        assert masks == [read_graph(n, d, edges).mask for edges in data["trees"]]
        assert [degree_pair(m, n, d) for m in masks] == list(map(tree_degree_pair, trees))
        report, expected = check_triangulation(masks, n, d), check_triangulation_with_flip(trees, n, d)
        assert report == expected and repr(report.witness) == repr(expected.witness)

    @settings(max_examples=100, deadline=None)
    @given(mutated_tree_sets())
    def test_rebuild_of_the_pairs(self, case):
        # the pair set of the trees, a triangulation's or not, is rebuilt or
        # refused by both routes alike
        n, d, trees = case
        pairs = {tree_degree_pair(g) for g in trees}
        assert route_outcome(reconstruct_triangulation, pairs, n, d) == route_outcome(
            reconstruct_triangulation_on_tuples, pairs, n, d
        )

    @settings(max_examples=30, deadline=None)
    @given(relabelled_staircases(max_n=8, max_d=8))
    @example(staircase_triangulation(8, 8, (3, 8, 1, 6, 2, 7, 5, 4), (6, 2, 8, 4, 1, 7, 3, 5)))
    def test_extended_arrangement_of_a_staircase(self, t):
        expected = extended_tope_arrangement_by_products(t).mask_table
        assert triang.extended_tope_arrangement(t).mask_table == expected

    @pytest.mark.parametrize("kind", [None, "count", "spanning", "agreement"])
    def test_the_strategy_reaches_every_report_kind(self, kind):
        def reported(case):
            n, d, trees = case
            return check_triangulation([g.mask for g in trees], n, d).kind == kind

        find(mutated_tree_sets(), reported, settings=settings(database=None, derandomize=True))


@functools.lru_cache(maxsize=None)
def every_spanning_tree(n, d):
    """``core.all_spanning_trees``, built once per size."""
    return core.all_spanning_trees(n, d)


@st.composite
def agreement_cases(draw):
    """A graph sequence for the agreement pass, one of five kinds: a
    relabelled staircase up to (6,5) or (5,6), maybe with one tree replaced
    by a random spanning tree, dropped or duplicated; spanning trees drawn at
    n * d <= 12; random graphs at up to (4,4) with one that holds a 4-cycle;
    the empty sequence; spanning trees on two different sides."""
    kind = draw(st.sampled_from(["staircase", "trees", "square", "empty", "mixed"]))
    if kind == "empty":
        return []
    if kind == "staircase":
        t = draw(relabelled_staircases())
        n, d, trees = t.n, t.d, t.sorted_trees()
        pos = draw(st.integers(0, len(trees) - 1))
        change = draw(st.sampled_from(["none", "replace", "drop", "duplicate"]))
        if change == "replace":
            every = [(j, i) for j in range(1, n + 1) for i in range(1, d + 1)]
            trees[pos] = spanning_tree_of_order(n, d, draw(st.permutations(every)))
        elif change == "drop":
            del trees[pos]
        elif change == "duplicate":
            trees.insert(draw(st.integers(0, len(trees))), trees[pos])
        return trees if draw(st.booleans()) else draw(st.permutations(trees))
    if kind == "trees":
        n, d = draw(st.sampled_from([(n, d) for n in range(1, 13) for d in range(1, 13) if n * d <= 12]))
        return draw(st.lists(st.sampled_from(every_spanning_tree(n, d)), min_size=1, max_size=8))
    if kind == "square":
        n, d = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        graphs = draw(st.lists(graphs_strategy(n, d), max_size=4))
        j, k = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=2)))
        i, h = sorted(draw(st.sets(st.integers(0, d - 1), min_size=2, max_size=2)))
        square = sum(1 << (row * d + col) for row in (j, k) for col in (i, h))
        extra = draw(st.integers(0, (1 << n * d) - 1))
        graphs.insert(draw(st.integers(0, len(graphs))), BipartiteGraph.from_mask(n, d, square | extra))
        return graphs
    sizes = draw(st.lists(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), min_size=2, max_size=2, unique=True))
    graphs = [draw(st.sampled_from(every_spanning_tree(*size))) for size in sizes]
    graphs += draw(st.lists(st.sampled_from(every_spanning_tree(*sizes[0])), max_size=4))
    return draw(st.permutations(graphs))


@st.composite
def random_mask_lists(draw):
    """Up to five arbitrary edge masks on one (n, d) up to (4, 4), as graphs."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    masks = draw(st.lists(st.integers(0, (1 << n * d) - 1), max_size=5))
    return [BipartiteGraph.from_mask(n, d, m) for m in masks]


class TestSharedAgreementPass:
    """The one pass of ``core.agreed_masks`` shared by all graphs, with its
    clash named by ``triang.find_agreement_violation``, against each graph's
    matchings listed on its own, with a clash handed to the preorder pass
    over each graph's listing: the same agreed map and the same witness
    tuple.  Graphs on differing sides raise."""

    def test_every_enumerated_triangulation(self):
        sizes = [(n, d) for n in range(1, 7) for d in range(1, 7) if tree_count(n, d) <= 6]
        checked = 0
        for n, d in sizes:
            for t in enumerate_triangulations(n, d):
                trees = t.sorted_trees()
                got = agreed_graphs(trees)
                assert got == agreed_matchings_per_graph(trees)
                assert got[1] is None
                checked += 1
        assert checked == 11 + (2 + 6 + 24 + 120 + 720) + (6 + 24 + 120 + 720) + 108

    @settings(max_examples=300, deadline=None)
    @given(agreement_cases())
    @example(staircase_triangulation(6, 5, (4, 1, 6, 2, 5, 3), (5, 3, 1, 4, 2)).sorted_trees())
    @example(staircase_triangulation(5, 6, (2, 5, 1, 4, 3), (6, 1, 5, 2, 4, 3)).sorted_trees())
    @example([])
    def test_same_map_and_witness_as_the_per_graph_pass(self, graphs):
        if len({(g.n, g.d) for g in graphs}) > 1:
            with pytest.raises(MatchfieldError, match="differing sides"):
                find_agreement_violation(graphs)
        else:
            assert agreed_graphs(graphs) == agreed_matchings_per_graph(graphs)

    @settings(max_examples=300, deadline=None)
    @given(random_mask_lists())
    def test_random_mask_lists(self, graphs):
        # any edge masks, not only trees: many keys hold several matchings
        assert agreed_graphs(graphs) == agreed_matchings_per_graph(graphs)

    @pytest.mark.parametrize("agree", [True, False])
    def test_cases_reach_both_verdicts(self, agree):
        # among sequences of two or more graphs, some agree and some clash,
        # so the comparison above is not vacuous
        def verdict(graphs):
            return len(graphs) > 1 and (agreed_matchings_per_graph(graphs)[1] is None) == agree

        find(agreement_cases(), verdict, settings=settings(database=None, derandomize=True))
        find(random_mask_lists(), verdict, settings=settings(database=None, derandomize=True))


class TestCompatibilityOracle:
    @settings(max_examples=400, deadline=None)
    @given(graphs_strategy(4, 3), graphs_strategy(4, 3))
    def test_random_pairs_4_3(self, g1, g2):
        assert is_compatible(g1, g2)[0] == exhaustive_compatibility(g1, g2)[0]

    @settings(max_examples=400, deadline=None)
    @given(graphs_strategy(5, 3), graphs_strategy(5, 3))
    def test_random_pairs_5_3(self, g1, g2):
        assert is_compatible(g1, g2)[0] == exhaustive_compatibility(g1, g2)[0]

    @settings(max_examples=200, deadline=None)
    @given(graphs_strategy(5, 3), graphs_strategy(5, 3))
    def test_symmetry(self, g1, g2):
        assert is_compatible(g1, g2)[0] == is_compatible(g2, g1)[0]

    def test_witness_is_valid(self):
        stream = splitmix64(5150)
        for _ in range(300):
            m1 = BipartiteGraph.from_mask(5, 3, next(stream) & ((1 << 15) - 1))
            m2 = BipartiteGraph.from_mask(5, 3, next(stream) & ((1 << 15) - 1))
            ok, witness = is_compatible(m1, m2)
            if ok:
                continue
            assert witness.first.mask & ~(m1.mask & ~m2.mask) == 0
            assert witness.second.mask & ~(m2.mask & ~m1.mask) == 0
            assert witness.first.left_support() == witness.left
            assert witness.second.left_support() == witness.left
            assert witness.first.right_support() == witness.right


class TestDegreeVectorRigidity:
    def test_distinct_topes_same_degrees_incompatible(self):
        # all topes on (4,2) of each type: same (ldv, rdv) pair forces a clash
        for v in [(2, 1), (1, 2), (2, 2), (3, 1)]:
            topes = {}
            k = sum(v)
            for sigma in subsets(4, k):
                for func in column_functions(sigma, v):
                    g = graph(4, 2, func)
                    topes.setdefault((g.left_degrees(), v), []).append(g)
            for group in topes.values():
                for a, b in itertools.combinations(group, 2):
                    assert not is_compatible(a, b)[0]

    def test_distinct_trees_shared_degree_vector_incompatible(self):
        # the containment notion is the right one here: sharing only one of
        # the two degree vectors leaves the symmetric difference unbalanced,
        # so the cycle criterion can miss the conflicting matchings
        from matchfield.core import all_spanning_trees

        trees = all_spanning_trees(3, 3)
        for a, b in itertools.combinations(trees, 2):
            if (
                a.left_degrees() == b.left_degrees()
                or a.right_degrees() == b.right_degrees()
            ):
                assert find_agreement_violation([a, b]) is not None


class TestCoherentFields:
    def test_thousand_random_matrices_are_linkage(self):
        sizes = [(4, 2), (5, 2), (5, 3), (6, 3), (7, 3), (6, 2), (7, 2)]
        checked = 0
        for idx in range(1001):
            n, d = sizes[idx % len(sizes)]
            field, _, _ = seeded_coherent_field(n, d, 31337 + idx)
            assert is_linkage(field).ok
            checked += 1
        assert checked >= 1000

    def test_weight_matrix_deterministic(self):
        assert random_weight_matrix(3, 2, 1) == random_weight_matrix(3, 2, 1)
        assert random_weight_matrix(3, 2, 1) != random_weight_matrix(3, 2, 2)


class TestAmalgamationOrder:
    def test_order_independence_up_to_6_3(self):
        for n, d, seed in [(4, 2, 11), (5, 3, 12), (6, 3, 13), (6, 2, 14)]:
            field, _, _ = seeded_coherent_field(n, d, seed)
            for point in simplex_lattice_points(n - d, d):
                v = tuple(x + 1 for x in point)
                base = maximal_tope(field, v)
                pool = [i + 1 for i in range(d) for _ in range(v[i] - 1)]
                for order in set(itertools.permutations(pool)):
                    assert maximal_tope(field, v, order=list(order)) == base


class TestArrangementInvariants:
    def test_sector_monotonicity_on_samples(self):
        for n, d, seed in [(5, 2, 3), (5, 3, 4), (6, 3, 5)]:
            field, _, _ = seeded_coherent_field(n, d, seed)
            ta = tope_arrangement(field)
            check_sector_monotonicity(ta.mask_table)

    def test_neighbour_chow_containment(self, field_63):
        # rq-edges of the covector at v + ep - eq are contained at v
        cc = chow_collection(field_63)
        check_sector_monotonicity(mask_table(covectors_by_rdv(cc)))

    def test_covectors_match_intersections_on_samples(self):
        for n, d, seed in [(5, 2, 21), (5, 3, 22), (6, 3, 23), (7, 3, 24)]:
            field, _, _ = seeded_coherent_field(n, d, seed)
            ta = tope_arrangement(field)
            by_rdv = covectors_by_rdv(chow_collection(field))
            for v in simplex_lattice_points(n - d + 1, d):
                assert chow_by_intersection(ta, v) == by_rdv[v]
                assert chow_by_definition(field, by_rdv[v].left_support()) == by_rdv[v]


class TestSweepOrderFree:
    @staticmethod
    def _sweep(pairs_by_rdv, member_rdvs, i, seed_rdv, d, reverse):
        if seed_rdv not in member_rdvs:
            return set()
        admitted = {seed_rdv}
        top = seed_rdv[i - 1]
        by_level = {}
        for rdv in member_rdvs:
            by_level.setdefault(rdv[i - 1], []).append(rdv)
        for h in range(top - 1, -1, -1):
            level = sorted(by_level.get(h, []), reverse=reverse)
            for rdv in level:
                for k in range(1, d + 1):
                    if k == i or rdv[k - 1] == 0:
                        continue
                    up = list(rdv)
                    up[i - 1] += 1
                    up[k - 1] -= 1
                    if tuple(up) in admitted:
                        admitted.add(rdv)
                        break
        return admitted

    def test_chow_sector_sweep_order_free(self, field_63):
        cc = chow_collection(field_63)
        by_rdv = {v: rho for rho, v in cc.phi().mapping.items()}
        n, d = 6, 3
        for j in range(1, n + 1):
            member = {v for rho, v in cc.phi().mapping.items() if rho >> (j - 1) & 1}
            for i in range(1, d + 1):
                seed = tuple((n - d + 1) if t == i else 0 for t in range(1, d + 1))
                fwd = self._sweep(by_rdv, member, i, seed, d, reverse=False)
                bwd = self._sweep(by_rdv, member, i, seed, d, reverse=True)
                assert fwd == bwd


class TestCovectorDegrees:
    def test_right_degrees_are_type_plus_one(self, field_42, field_53, field_63):
        from matchfield.fields import linkage_covector, tope_field_of_type

        for field in (field_42, field_53, field_63):
            n, d = field.n, field.d
            for point in simplex_lattice_points(max(n - 1 - d, 0), d):
                v = tuple(x + 1 for x in point)
                tf = tope_field_of_type(field, v)
                if tf.thickness + 1 > n:
                    continue
                for tau in subsets(n, tf.thickness + 1):
                    res = linkage_covector(tf, tau)
                    assert res.ok
                    assert res.graph.right_degrees() == tuple(x + 1 for x in v)


class TestNeighbourTrees:
    def test_adjacent_trees_share_contained_tope(self):
        # compatible trees at rdv v and v + ep - eq contain the same maximal
        # tope with rdv v - 1 + ep, and sector containment holds
        from matchfield.core import contained_tope
        from matchfield.triang import staircase_triangulation

        for n, d in [(3, 2), (4, 2), (3, 3), (4, 3)]:
            t = staircase_triangulation(n, d)
            by_rdv = {g.right_degrees(): g for g in t.trees}
            for v, g in by_rdv.items():
                for p in range(1, d + 1):
                    for q in range(1, d + 1):
                        if p == q or v[q - 1] <= 1:
                            continue
                        shifted = list(v)
                        shifted[p - 1] += 1
                        shifted[q - 1] -= 1
                        h = by_rdv.get(tuple(shifted))
                        if h is None:
                            continue
                        # the shared tope has rdv v - 1 + ep: rooted at p in
                        # g and at q in the shifted tree
                        assert contained_tope(g, p) == contained_tope(h, q)
                        for j, i in g.edges:
                            if i == p:
                                assert (j, p) in h
                                assert (
                                    h.left_degrees()[j - 1]
                                    <= g.left_degrees()[j - 1]
                                )


class TestMatroidInvariants:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 7), st.integers(1, 6), st.integers(0, (1 << 42) - 1),
           st.integers(0, (1 << 42) - 1))
    def test_row_bitmask_search_equals_the_augmenting_oracle(self, n, d, a, b):
        # an edge in a quarter of the places: many graphs below full rank
        g = BipartiteGraph.from_mask(n, d, a & b & (1 << n * d) - 1)
        assert transversal_matroid(g) == transversal_matroid_by_augmenting(g)

    def test_basis_exchange_on_samples(self):
        stream = splitmix64(777)
        checked = 0
        while checked < 60:
            mask = next(stream) & ((1 << 10) - 1)
            g = BipartiteGraph.from_mask(5, 2, mask)
            m = transversal_matroid(g)
            if m.rank == 0:
                continue
            assert check_basis_exchange(m)
            checked += 1


class TestSerializationProperties:
    @settings(max_examples=200, deadline=None)
    @given(graphs_strategy(5, 3))
    def test_graph_json_round_trip(self, g):
        assert graph_from_json_dict(graph_to_json_dict(g)) == g

    @settings(max_examples=100, deadline=None)
    @given(graphs_strategy(4, 4))
    def test_canonical_json_is_stable(self, g):
        from matchfield.core import canonical_json

        a = canonical_json(graph_to_json_dict(g))
        b = canonical_json(graph_to_json_dict(g))
        assert a == b and a.endswith("\n")


class TestTreeMatchingCounts:
    def test_contained_matchings_unique_per_support_in_forests(self):
        from matchfield.core import all_spanning_trees

        for tree in all_spanning_trees(3, 2):
            assert is_spanning_tree_by_cycles(tree)
            seen = {}
            for key, m in contained_matchings(tree).items():
                assert key not in seen or seen[key] == m
                seen[key] = m
