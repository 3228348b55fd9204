"""Graph primitives: degrees, classification, compatibility, contained topes,
and the mask kernels against their edge-list oracles."""

from itertools import combinations, permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from matchfield import (
    BipartiteGraph,
    MatchfieldError,
    NotASpanningTreeError,
    SizeCapError,
    contained_tope,
    is_compatible,
    simplex_lattice_points,
    subsets,
)
from matchfield import chow, core, triang

from conftest import (
    agreed_graphs,
    exhaustive_compatibility,
    graph,
    graph_from_json_dict,
    graph_to_json_dict,
)
from oracles import (
    agreed_in_preorder,
    agreed_matchings_by_edges,
    classify,
    connected_components,
    contained_matchings_by_edges,
    degree_vectors,
    contained_tope_by_search,
    functions_compatible,
    is_simplex_lattice_by_listing,
    parse_subset_key_by_sorting,
    sectors,
    subsets_by_recursion,
)


def degree_vectors_read(g):
    """The row and column popcounts that ``find_flip_violation`` reads,
    checked against the edge-list count."""
    vectors = g.left_degrees(), g.right_degrees()
    assert vectors == degree_vectors(g)
    return vectors


class TestDegreeVectors:
    def test_matching(self):
        g = graph(4, 2, [(1, 1), (2, 2)])
        assert degree_vectors_read(g) == ((1, 1, 0, 0), (1, 1))

    def test_empty(self):
        assert degree_vectors_read(graph(4, 2, [])) == ((0, 0, 0, 0), (0, 0))

    def test_tree(self):
        g = graph(4, 2, [(1, 1), (2, 1), (4, 1), (2, 2), (3, 2)])
        assert degree_vectors_read(g) == ((1, 2, 1, 1), (3, 2))

    def test_sums_match_edge_count(self):
        g = graph(5, 3, [(1, 1), (2, 1), (3, 2), (4, 3), (5, 3)])
        left, right = degree_vectors_read(g)
        assert sum(left) == sum(right) == len(g)


class TestClassify:
    def test_tope(self):
        got = classify(graph(4, 2, [(1, 1), (2, 1), (3, 2)]))
        assert got.kind == "tope" and got.type_vector == (2, 1)

    def test_matching_beats_forest(self):
        got = classify(graph(2, 2, [(1, 1), (2, 2)]))
        assert got.kind == "matching"

    def test_spanning_tree(self):
        got = classify(graph(4, 2, [(1, 1), (2, 1), (4, 1), (2, 2), (3, 2)]))
        assert got.kind == "spanning-tree"

    def test_forest_and_other(self):
        assert classify(graph(3, 2, [(1, 1), (1, 2)])).kind == "forest"
        square = graph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
        assert classify(square).kind == "other"


class TestSpanningTrees:
    @pytest.mark.parametrize("n,d", [(3, 3), (2, 4)])
    def test_every_subgraph_against_the_search(self, n, d):
        # n + d - 1 edges and acyclic, against one BFS component and the count
        found = 0
        for mask in range(1 << (n * d)):
            g = core.BipartiteGraph.from_mask(n, d, mask)
            expected = len(g) == n + d - 1 and len(connected_components(g)) == 1
            assert (core.tree_tope(g.mask, range(1, n + 1), d, 1) is not None) == expected, g
            found += expected
        assert found == n ** (d - 1) * d ** (n - 1)  # spanning trees of K_{n,d}


class TestCompatibility:
    def test_identical(self):
        g = graph(4, 2, [(1, 1), (2, 2)])
        ok, witness = is_compatible(g, g)
        assert ok and witness is None

    def test_crossing_matchings(self):
        g1 = graph(2, 2, [(1, 1), (2, 2)])
        g2 = graph(2, 2, [(2, 1), (1, 2)])
        ok, witness = is_compatible(g1, g2)
        assert not ok
        assert witness.left == (1, 2) and witness.right == (1, 2)
        assert witness.first.mask & ~g1.mask == 0 and witness.second.mask & ~g2.mask == 0

    def test_compatible_field_pair(self, field_43):
        ok, _ = is_compatible(field_43.matching((1, 2, 3)), field_43.matching((1, 2, 4)))
        assert ok

    def test_symmetric_and_reflexive_small(self):
        gs = [graph(2, 2, e) for e in [[(1, 1)], [(1, 1), (2, 2)], [(2, 1), (1, 2)]]]
        for a in gs:
            assert is_compatible(a, a)[0]
            for b in gs:
                assert is_compatible(a, b)[0] == is_compatible(b, a)[0]

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2)])
    def test_oracle_equivalence_exhaustive(self, n, d):
        every = [(j, i) for j in range(1, n + 1) for i in range(1, d + 1)]
        graphs = []
        for mask in range(1 << len(every)):
            edges = [e for k, e in enumerate(every) if mask >> k & 1]
            graphs.append(graph(n, d, edges))
        for a in graphs:
            for b in graphs:
                assert is_compatible(a, b)[0] == exhaustive_compatibility(a, b)[0]

    def test_shared_edge_on_alternating_cycle(self):
        # matchings found inside the raw graphs would disagree, but the edge
        # (1,1) is shared, so the cycle criterion reports compatible
        g1 = graph(2, 2, [(1, 1), (2, 2)])
        g2 = graph(2, 2, [(1, 2), (2, 1), (1, 1)])
        assert is_compatible(g1, g2)[0]
        clash = triang.find_agreement_violation([g1, g2])
        assert clash is not None and clash[:3] == (g1, g2, (1, 2))


class TestContainedTope:
    TREE = [(1, 1), (2, 1), (4, 1), (2, 2), (3, 2)]

    def brute_force(self, tree, rdv):
        hits = []
        for mask in range(1 << len(tree.edges)):
            edges = [e for k, e in enumerate(tree.edges) if mask >> k & 1]
            g = graph(tree.n, tree.d, edges)
            if g.right_degrees() == rdv and all(x <= 1 for x in g.left_degrees()):
                hits.append(g)
        return hits

    def test_drop_r2(self):
        tree = graph(4, 2, self.TREE)
        got = contained_tope(tree, 1)
        assert set(got.edges) == {(1, 1), (2, 1), (4, 1), (3, 2)}
        assert self.brute_force(tree, (3, 1)) == [got]

    def test_drop_r1(self):
        tree = graph(4, 2, self.TREE)
        got = contained_tope(tree, 2)
        assert set(got.edges) == {(1, 1), (4, 1), (2, 2), (3, 2)}
        assert self.brute_force(tree, (2, 2)) == [got]

    def test_star(self):
        star = graph(3, 1, [(1, 1), (2, 1), (3, 1)])
        assert contained_tope(star, 1) == star

    def test_not_a_tree(self):
        with pytest.raises(NotASpanningTreeError):
            contained_tope(graph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)]), 1)
        with pytest.raises(NotASpanningTreeError):
            contained_tope(graph(3, 2, [(1, 1), (2, 2)]), 1)

    def test_subgraph_and_tope(self):
        tree = graph(4, 2, self.TREE)
        for k in (1, 2):
            tope = contained_tope(tree, k)
            assert tope.mask & ~tree.mask == 0
            assert classify(tope).kind == "tope"

    def test_walk_reads_the_searched_tope_off_every_spanning_tree(self):
        # every spanning tree with n * d <= 12 and every root rk
        sizes = [(n, d) for n in range(1, 13) for d in range(1, 13) if n * d <= 12]
        trees = 0
        for n, d in sizes:
            for g in core.all_spanning_trees(n, d):
                trees += 1
                for k in range(1, d + 1):
                    expected = contained_tope_by_search(g, k).mask
                    assert core.tree_tope(g.mask, range(1, n + 1), d, k) == expected
        assert trees == sum(n ** (d - 1) * d ** (n - 1) for n, d in sizes)


class TestSubsetsAndLatticePoints:
    def test_colex(self):
        assert list(subsets(3, 2)) == [(1, 2), (1, 3), (2, 3)]
        assert list(subsets(4, 4)) == [(1, 2, 3, 4)]
        assert list(subsets(4, 0)) == [()]

    def test_out_of_range(self):
        with pytest.raises(SizeCapError):
            list(subsets(3, 4))

    def test_agrees_with_recursion(self):
        for n in range(11):
            for k in range(n + 1):
                assert list(subsets(n, k)) == list(subsets_by_recursion(n, k))

    def test_subset_masks(self):
        for k in range(6):
            for subset in subsets(5, k):
                mask = core.subset_mask(subset)
                assert mask.bit_count() == k and core.mask_subset(mask) == subset

    def test_colex_bitmask_walk_is_the_colex_listing(self):
        for n in range(11):
            for k in range(n + 1):
                assert list(core.subset_masks(n, k)) == list(map(core.subset_mask, subsets(n, k)))
            assert list(core.subset_masks(n, n + 1)) == []
            assert list(core.subset_masks(n, n + 3)) == []

    def test_colex_bitmask_walk_refuses_a_side_over_the_cap(self):
        with pytest.raises(SizeCapError, match=r"^subsets\(70, 30\) out of range$"):
            next(core.subset_masks(70, 30))

    @pytest.mark.parametrize("fault", [None, "drop", "extra", "wide", "narrow", "tuple", "negative",
                                       "beyond"])
    def test_subset_keys_are_counted_as_they_would_be_listed(self, fault):
        for n in range(1, 8):
            for k in range(n + 1):
                keys = list(core.subset_masks(n, k))
                last = keys.pop()
                keys += {None: [last], "drop": [], "extra": [last, 1 << n],
                         "wide": [last | 1 << n] if k else [last, 1],
                         "narrow": [last & last - 1] if k else [last, 1],
                         "tuple": [core.mask_subset(last)], "negative": [-1 - last],
                         "beyond": [last ^ (last & -last) | 1 << n] if k else [last, 1]}[fault]
                listed = set(keys) == set(map(core.subset_mask, subsets(n, k)))
                assert core.is_subset_keys(dict.fromkeys(keys).keys(), n, k) == listed

    @pytest.mark.parametrize("n, k", [(65, 1), (3, 4), (3, -1)])
    def test_subset_keys_out_of_range_raise_as_the_listing(self, n, k):
        with pytest.raises(SizeCapError, match=rf"^subsets\({n}, {k}\) out of range$"):
            core.is_subset_keys({}, n, k)

    def test_subset_codec_lists_every_subset_once_in_colex_order(self):
        for n in range(13):
            for k in range(n + 1):
                expected = [(core.subset_key(s), core.subset_mask(s), s) for s in subsets(n, k)]
                assert core.subset_codec(n, k, comb(n, k)) == expected

    @pytest.mark.parametrize("n, k, size", [(5, 2, 9), (5, 6, 10**9), (-1, 0, 10**9),
                                            (65, 1, 10**9), (4, -1, 10**9)])
    def test_subset_codec_is_empty_beyond_its_guard(self, n, k, size):
        # C(5, 2) = 10 entries would outgrow a table of 9, and the rest
        # name no k-subsets of [n] within MAX_SIDE
        assert core.subset_codec(n, k, size) == []

    def test_lattice_points(self):
        assert simplex_lattice_points(2, 2) == [(0, 2), (1, 1), (2, 0)]
        assert len(simplex_lattice_points(4, 3)) == 15
        assert all(sum(p) == 4 for p in simplex_lattice_points(4, 3))

    @pytest.mark.parametrize("m, dim", [(-1, 2), (2, 0)])
    def test_invalid_lattice_parameters(self, m, dim):
        # the counting test refuses them as the listing does
        message = rf"^invalid lattice point parameters \({m}, {dim}\)$"
        for check in (simplex_lattice_points, lambda m, dim: core.is_simplex_lattice([], m, dim)):
            with pytest.raises(MatchfieldError, match=message):
                check(m, dim)

    @pytest.mark.parametrize(
        "vectors, verdict",
        [
            ([(0, 3), (1, 2), (2, 1), (3, 0)], True),
            ([(3, 0), (1, 2), (0, 3), (2, 1)], True),  # in any order
            ([(0, 3), (1, 2), (2, 1)], False),  # a point missing
            ([(0, 3), (1, 2), (2, 1), (2, 1)], False),  # a point twice
            ([(0, 3), (1, 2), (2, 1), (-1, 4)], False),  # an entry below 0
            ([(0, 3), (1, 2), (2, 1), (2, 2)], False),  # a sum above m
            ([(0, 3), (1, 2), (2, 1), (3, 0, 0)], False),  # a vector too long
        ],
    )
    def test_counting_test(self, vectors, verdict):
        assert core.is_simplex_lattice(vectors, 3, 2) is verdict
        assert is_simplex_lattice_by_listing(vectors, 3, 2) is verdict

    def test_counting_test_takes_ints_only(self):
        # the listing finds 3.0 == 3 and True == 1; the counting test
        # admits int entries alone
        for vectors in [[(0, 3), (1, 2), (2, 1), (3.0, 0)], [(0, 3), (True, 2), (2, 1), (3, 0)]]:
            assert is_simplex_lattice_by_listing(vectors, 3, 2)
            assert not core.is_simplex_lattice(vectors, 3, 2)

    def test_counting_test_lists_no_point(self, monkeypatch):
        # (10^6) * Delta_499 has more than 10^1800 points: the count decides
        assert not core.is_simplex_lattice([(10**6,) + (0,) * 499], 10**6, 500)
        points = simplex_lattice_points(4, 3)
        monkeypatch.setattr(core, "simplex_lattice_points", None)
        assert core.is_simplex_lattice(points, 4, 3)


class TestPointCodes:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 6), st.data())
    def test_codes_decode_and_keep_tuple_order(self, base, dim, data):
        digits = st.lists(st.integers(0, base - 1), min_size=dim, max_size=dim).map(tuple)
        v, w = data.draw(digits), data.draw(digits)
        x, y = core.encode_point(v, base), core.encode_point(w, base)
        assert core.decode_point(x, dim, base) == v
        assert 0 <= x < base**dim
        assert (x < y) == (v < w) and (x == y) == (v == w)

    def test_move_is_the_coordinate_move(self):
        # v -> v - e_i + e_k is x - B^(d-i) + B^(d-k), allowed on digit i > 0
        base, dim = 4, 3
        for v in simplex_lattice_points(3, dim):
            x = core.encode_point(v, base)
            for i in range(1, dim + 1):
                assert (x // base ** (dim - i) % base > 0) == (v[i - 1] > 0)
                if not v[i - 1]:
                    continue
                for k in range(1, dim + 1):
                    w = list(v)
                    w[i - 1] -= 1
                    w[k - 1] += 1
                    assert x - base ** (dim - i) + base ** (dim - k) == core.encode_point(w, base)


@st.composite
def subset_key_spellings(draw):
    """Keys near the spelling of a subset: members respelled (leading zero,
    sign, blank, hex, a non-ASCII digit), reordered, repeated or dropped to
    an empty key, joined by a comma or another separator."""
    members = draw(st.lists(st.integers(0, 70), max_size=6))
    if draw(st.booleans()):
        members.sort()
    if members and draw(st.booleans()):
        members.insert(draw(st.integers(0, len(members))), draw(st.sampled_from(members)))
    words = [draw(st.sampled_from([str(x), str(x), "0" + str(x), "+" + str(x), " " + str(x),
                                   str(-x), hex(x), "\u0663", ""])) for x in members]
    return draw(st.sampled_from([",", ",", ", ", ";"])).join(words)


def key_outcome(parse, key):
    try:
        return parse(key)
    except ValueError as exc:
        return str(exc)


class TestSubsetKeys:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(subset_key_spellings(), st.text("0123456789,+- x\u0663", max_size=12)))
    def test_one_pass_parse_matches_the_sorting_oracle(self, key):
        expected = key_outcome(parse_subset_key_by_sorting, key)
        assert key_outcome(lambda k: core.read_subset_key(k, 0), key) == expected
        for n in (0, 3, 70):
            bits = expected if isinstance(expected, str) else core.subset_bits(expected, n)
            assert key_outcome(lambda k: core.read_subset_key(k, n), key) == bits

    @pytest.mark.parametrize("key", ["", "0", "2,1", "1,1", "01,2", "1,", "1\n", "\u0663"])
    def test_refusal_names_the_key(self, key):
        with pytest.raises(ValueError) as err:
            core.read_subset_key(key, 0)
        assert str(err.value) == (
            f"subset key {key!r} must list positive integers in increasing order")


class TestSectors:
    def test_collision_names_the_least_twice_admitted_member(self):
        # sectors 2 and 3 both admit all three members; the message names
        # the least of them, whatever order the sweep admits them in
        members = {(0, 2, 0), (0, 1, 1), (0, 0, 2)}
        rdvs = members | {(2, 0, 0)}
        with pytest.raises(MatchfieldError) as info:
            sectors(members, rdvs, 2, 5, MatchfieldError)
        assert str(info.value) == "rdv (0, 0, 2) admitted to two sectors of 5"
        for base in (3, 4, 7):
            codes = {core.encode_point(v, base) for v in members}
            with pytest.raises(MatchfieldError) as coded:
                core.sectors(codes, 2, 5, MatchfieldError, 3, base)
            assert str(coded.value) == str(info.value)


class TestGraphBasics:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 6), st.integers(1, 6), st.data())
    def test_right_degrees_count_edges(self, n, d, data):
        cells = st.sets(st.integers(0, n * d - 1), max_size=n * d) if n else st.just(set())
        bits = data.draw(cells)
        g = BipartiteGraph.from_mask(n, d, sum(1 << b for b in bits))
        assert g.right_degrees() == tuple(
            sum(1 for _, i in g.edges if i == r) for r in range(1, d + 1)
        )
        column = core.column_mask(n, d)
        assert [b for b in range(n * d) if column >> b & 1] == [j * d for j in range(n)]

    def test_canonical_edge_order(self):
        g = graph(3, 2, [(3, 1), (1, 2), (1, 1)])
        assert g.edges == ((1, 1), (1, 2), (3, 1))

    def test_no_duplicates(self):
        assert len(graph(2, 2, [(1, 1), (1, 1)])) == 1

    def test_out_of_range_edge(self):
        with pytest.raises(MatchfieldError):
            graph(2, 2, [(3, 1)])

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            BipartiteGraph(65, 2, [])

    def test_set_ops(self):
        a = graph(2, 2, [(1, 1), (2, 2)])
        b = graph(2, 2, [(2, 2), (2, 1)])
        assert BipartiteGraph.from_mask(2, 2, a.mask | b.mask).edges == ((1, 1), (2, 1), (2, 2))
        assert BipartiteGraph.from_mask(2, 2, a.mask & b.mask).edges == ((2, 2),)
        assert a.difference(b).edges == ((1, 1),)

    def test_json_round_trip(self):
        g = graph(4, 2, [(1, 1), (2, 2)])
        assert graph_from_json_dict(graph_to_json_dict(g)) == g

    def test_table_round_trip(self):
        g = graph(4, 2, [(1, 1), (2, 2)])
        data = core.write_masks(4, 2, "graphs", {0b11: g.mask})
        assert data == {"n": 4, "d": 2, "graphs": {"1,2": [[1, 1], [2, 2]]}}
        assert core.read_masks(data, "graphs") == (4, 2, {0b11: g.mask})
        # a key of another size than the first misses the codec of the
        # 2-subsets and is written and read by the per-key path
        table = {core.subset_mask(s): g.mask for s in subsets(4, 2)} | {0b111: g.mask}
        data = core.write_masks(4, 2, "graphs", table)
        assert list(data["graphs"]) == ["1,2", "1,3", "2,3", "1,4", "2,4", "3,4", "1,2,3"]
        assert core.read_masks(data, "graphs") == (4, 2, table)
        data = core.write_masks(4, 2, "topes", {(1, 0): g.mask}, core.subset_key)
        assert data == {"n": 4, "d": 2, "topes": {"1,0": [[1, 1], [2, 2]]}}
        assert core.read_masks(data, "topes", core.parse_point_key) == (4, 2, {(1, 0): g.mask})
        data = chow.phi_to_json_dict(chow.PhiMap(4, 2, {0b111: (3, 0)}))
        assert data == {"n": 4, "d": 2, "phi": {"1,2,3": [3, 0]}}
        assert chow.phi_from_json_dict(data).mapping == {0b111: (3, 0)}

    @pytest.mark.parametrize(
        "data, vectors",
        [
            ({"n": "4", "d": 2, "t": {}}, False),
            ({"n": 4, "d": None, "t": {}}, False),
            ({"n": 4, "d": 2, "t": []}, False),
            ({"n": 4, "d": 2, "t": {"1,2": 5}}, False),
            ({"n": 4, "d": 2, "t": {"1,2": {}}}, False),
            ({"n": 4, "d": 2, "t": {"1,2": "12"}}, False),
            ({"n": 4, "d": 2, "t": {"1,2": [[1, 1], [2]]}}, False),
            ({"n": 4, "d": 2, "t": {"1,2": [[1, 1], ["2", 2]]}}, False),
            ({"n": 4, "d": 2, "t": {"1,2": [[1, 1], [2, None]]}}, False),
            ({"n": 4, "d": 2, "t": {"x": [[1, 1]]}}, False),
            ({"n": 4, "d": 2, "t": {"1,2,3": {}}}, True),
            ({"n": 4, "d": 2, "t": {"1,2,3": [3, "0"]}}, True),
        ],
    )
    def test_table_of_the_wrong_shape(self, data, vectors):
        # the table t read as edge lists, or as the vectors of a phi map
        with pytest.raises(ValueError):
            if vectors:
                chow.phi_from_json_dict({"n": data["n"], "d": data["d"], "phi": data["t"]})
            else:
                core.read_masks(data, "t")

    def test_graph_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match="pair of integers"):
            graph_from_json_dict({"n": 2, "d": 2, "edges": [[1, 1], {}]})


class TestMatchingMasks:
    @staticmethod
    def as_tuples(g):
        return [
            ((core.mask_subset(J), core.mask_subset(I)), BipartiteGraph.from_mask(g.n, g.d, m))
            for (J, I), m in core.agreed_masks([g.mask], g.n, g.d)[0].items()
        ]

    @pytest.mark.parametrize("n, d", [(3, 3), (2, 4), (4, 4)])
    def test_every_spanning_tree(self, n, d):
        trees = core.all_spanning_trees(n, d)
        assert len(trees) == n ** (d - 1) * d ** (n - 1)
        for g in trees:
            # same keys in the same order, and the same matchings
            assert self.as_tuples(g) == list(contained_matchings_by_edges(g).items())

    def test_thin_converter(self):
        g = graph(3, 3, [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1)])
        assert core.contained_matchings(g) == contained_matchings_by_edges(g)
        assert list(core.contained_matchings(g)) == list(contained_matchings_by_edges(g))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    def test_any_graph(self, n, d, data):
        bits = data.draw(st.sets(st.integers(0, n * d - 1), max_size=n * d))
        g = BipartiteGraph.from_mask(n, d, sum(1 << b for b in bits))
        expected = contained_matchings_by_edges(g)
        got = self.as_tuples(g)
        assert [key for key, _ in got] == list(expected)
        # with several matchings per key both keep the last one found
        assert got == list(expected.items())

    def test_agreement_witness_on_all_tree_pairs(self):
        trees = core.all_spanning_trees(3, 3)
        clashes = 0
        for pair in combinations(trees, 2):
            agreed, clash = agreed_graphs(pair)
            old_agreed, old_clash = agreed_matchings_by_edges(pair)
            assert clash == old_clash
            assert {
                (core.mask_subset(J), core.mask_subset(I)): BipartiteGraph.from_mask(3, 3, m)
                for (J, I), m in agreed.items()
            } == old_agreed
            clashes += clash is not None
        # both verdicts occur, so the comparison is not vacuous
        assert 0 < clashes < len(trees) * (len(trees) - 1) // 2

    def test_agreement_witness_over_many_trees(self):
        trees = core.all_spanning_trees(2, 4)[::3]
        assert triang.find_agreement_violation(trees) == agreed_matchings_by_edges(trees)[1]

    def test_two_matchings_on_one_key_keep_the_preorder_witness(self):
        # a 4-cycle holds both perfect matchings on ({1, 2}, {1, 2}); the
        # square owns the last one, as in the preorder of its own listing
        square = graph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)])
        diagonal = graph(2, 2, [(1, 1), (2, 2)])
        cases = {
            (square,): None,
            (square, diagonal): (square, diagonal, (1, 2), (1, 2)),
            (diagonal, square): (diagonal, square, (1, 2), (1, 2)),
        }
        for graphs, witness in cases.items():
            agreed, clash = agreed_graphs(graphs)
            assert (agreed, clash) == agreed_in_preorder(graphs)
            assert clash == witness == agreed_matchings_by_edges(graphs)[1]

    def test_graphs_on_differing_sides_are_refused(self):
        # a matching's edge mask depends on d, so no comparison means anything
        graphs = [BipartiteGraph(2, 2, [(2, 1)]), BipartiteGraph(2, 3, [(2, 1)])]
        with pytest.raises(MatchfieldError, match="differing sides"):
            triang.find_agreement_violation(graphs)


def maximal_topes(n, d):
    """Every graph with left degrees 1 covering all right nodes."""
    out = []
    for f in product(range(1, d + 1), repeat=n):
        if len(set(f)) == d:
            out.append(BipartiteGraph(n, d, list(zip(range(1, n + 1), f))))
    return out


def tope_function(g):
    return core.tope_function(g.mask, g.n, g.d)


class TestTopeFunctions:
    def test_function_of_a_tope(self):
        g = graph(4, 3, [(1, 2), (2, 1), (3, 3), (4, 2)])
        assert tope_function(g) == (1, 0, 2, 1)

    def test_function_of_a_partial_matching(self):
        # a left node without an edge takes the value d
        assert tope_function(graph(4, 3, [(1, 2), (3, 3)])) == (1, 3, 2, 3)
        assert tope_function(graph(2, 2, [])) == (2, 2)

    def test_all_partial_against_perfect_matchings(self):
        # every partial matching of K_{4,3} against every perfect matching
        # on a 3-subset, both argument orders
        n, d = 4, 3
        partial = [
            BipartiteGraph(n, d, list(zip(J, I)))
            for k in range(d + 1)
            for J in subsets(n, k)
            for I in permutations(range(1, d + 1), k)
        ]
        perfect = [g for g in partial if len(g) == d]
        verdicts = set()
        for a in partial:
            for b in perfect:
                expected = is_compatible(a, b)[0]
                fa, fb = tope_function(a), tope_function(b)
                assert functions_compatible(fa, fb, d) == expected
                assert functions_compatible(fb, fa, d) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 5), st.data())
    def test_partial_against_perfect_matching(self, n, d, data):
        d = min(n, d)
        sigma = data.draw(st.lists(st.integers(1, n), min_size=d, max_size=d, unique=True))
        rights = data.draw(st.permutations(range(1, d + 1)))
        k = data.draw(st.integers(0, d))
        J = data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
        I = data.draw(st.lists(st.integers(1, d), min_size=k, max_size=k, unique=True))
        a = BipartiteGraph(n, d, list(zip(J, I)))
        b = BipartiteGraph(n, d, list(zip(sigma, rights)))
        fa, fb = tope_function(a), tope_function(b)
        expected = is_compatible(a, b)[0]
        assert functions_compatible(fa, fb, d) == expected
        assert functions_compatible(fb, fa, d) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.data())
    def test_any_partial_function_pair(self, n, d, data):
        # left degrees at most 1: value 0 draws no edge at that left node
        fs = st.lists(st.integers(0, d), min_size=n, max_size=n)
        f1, f2 = data.draw(fs), data.draw(fs)
        a = BipartiteGraph(n, d, [(j, i) for j, i in zip(range(1, n + 1), f1) if i])
        b = BipartiteGraph(n, d, [(j, i) for j, i in zip(range(1, n + 1), f2) if i])
        got = functions_compatible(tope_function(a), tope_function(b), d)
        assert got == is_compatible(a, b)[0]

    @pytest.mark.parametrize("n, d", [(4, 2), (5, 2), (4, 3), (5, 3)])
    def test_all_maximal_tope_pairs(self, n, d):
        topes = maximal_topes(n, d)
        verdicts = set()
        for a, b in combinations(topes, 2):
            fa, fb = tope_function(a), tope_function(b)
            expected = is_compatible(a, b)[0]
            assert functions_compatible(fa, fb, d) == expected
            assert functions_compatible(fb, fa, d) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.data())
    def test_any_function_pair(self, n, d, data):
        fs = st.lists(st.integers(1, d), min_size=n, max_size=n)
        f1, f2 = data.draw(fs), data.draw(fs)
        a = BipartiteGraph(n, d, list(zip(range(1, n + 1), f1)))
        b = BipartiteGraph(n, d, list(zip(range(1, n + 1), f2)))
        got = functions_compatible(tope_function(a), tope_function(b), d)
        assert got == is_compatible(a, b)[0]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.data())
    def test_kernel_marks_exactly_the_incompatible_partners(self, n, d, data):
        # value d leaves a left node undefined; each side draws total maps
        # (values below d) or partial ones
        def maps():
            top = data.draw(st.sampled_from((d - 1, d)))
            return st.lists(st.integers(0, top), min_size=n, max_size=n)

        f = data.draw(maps())
        partners = data.draw(st.lists(maps(), max_size=40))
        bad = core.incompatible_partners(f, core.partner_index(partners, n, d), d)
        assert bad >> len(partners) == 0
        for k, g in enumerate(partners):
            assert bool(bad >> k & 1) == (not functions_compatible(f, g, d))
