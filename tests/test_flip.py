"""Flip graphs, linkage trees, and prodsimplicial cells."""

import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from matchfield import (
    MatchfieldError,
    NotLinkageError,
    extract_field,
    flip_graph,
    linkage_covector,
    linkage_tree,
    maximal_cells,
    maximal_tope,
    staircase_triangulation,
)
from matchfield import subsets
from matchfield.flip import (
    FlipGraph,
    expected_edge_count,
    flip_graph_to_dot,
    matching_word,
)

from conftest import field_from_words, graph, random_matching_field
from matchfield import core, fields as fields_mod
from matchfield.core import BipartiteGraph
from matchfield.fields import is_linkage, tope_arrangement
from matchfield.flip import cell_of_tope
from matchfield.randgen import seeded_coherent_field
from oracles import (
    NotAProductSkeletonError,
    cell_to_tope,
    edge_count_check,
    every_linkage_field,
    factor_dims,
    flip_neighbors,
    linkage_tree_decomposition,
    linkage_tree_edges_by_scan,
    nested_cells_by_scan,
    tope_to_cell,
)


def flip_label(m1, m2):
    """Deviating right node if the matchings differ in exactly one edge."""
    diff1 = m1.difference(m2)
    diff2 = m2.difference(m1)
    if len(diff1) == 1 and len(diff2) == 1:
        ((_, i1),) = diff1.edges
        ((_, i2),) = diff2.edges
        if i1 == i2:
            return i1
    return None


def flip_graph_by_pairs(field):
    """Oracle for flip_graph: test every pair of matchings."""
    vertices = tuple(subsets(field.n, field.d))
    edges = set()
    for s1, s2 in combinations(vertices, 2):
        label = flip_label(field.matching(s1), field.matching(s2))
        if label is not None:
            a, b = sorted((s1, s2))
            edges.add((a, b, label))
    return FlipGraph(field.n, field.d, vertices, frozenset(edges))


class TestFlipGraph:
    def test_reference_counts(self, field_42):
        fg = flip_graph(field_42)
        assert len(fg.vertices) == 6
        assert len(fg.edges) == 8 == expected_edge_count(4, 2)

    def test_bigger_field(self, field_53):
        fg = flip_graph(field_53)
        assert len(fg.vertices) == 10
        assert len(fg.edges) == 15 == expected_edge_count(5, 3)

    def test_single_matching(self):
        f = field_from_words(2, 2, {(1, 2): "12"})
        fg = flip_graph(f)
        assert len(fg.vertices) == 1 and not fg.edges

    def test_edge_count_check(self, field_42, field_53, field_43):
        assert edge_count_check(field_42)
        assert edge_count_check(field_53)
        with pytest.raises(NotLinkageError):
            edge_count_check(field_43)

    def test_same_label_neighbours_form_triangles(self, field_42, field_53):
        # two adjacent edges with the same label force the 3-cycle to close
        # (the matchings differ pairwise at that right node); in an induced
        # quadrangle adjacent labels therefore always differ
        for field in (field_42, field_53):
            fg = flip_graph(field)
            edge_set = {(a, b): lab for a, b, lab in fg.edges}
            for sigma in fg.vertices:
                by_label = {}
                for other, lab in flip_neighbors(fg, sigma):
                    by_label.setdefault(lab, []).append(other)
                for lab, others in by_label.items():
                    for x in others:
                        for y in others:
                            if x < y:
                                assert edge_set.get((x, y)) == lab

    def test_quadrangle_labels_alternate(self, field_42):
        fg = flip_graph(field_42)
        labels = {}
        for a, b, lab in fg.edges:
            labels[(a, b)] = labels[(b, a)] = lab
        square = [(1, 2), (1, 3), (3, 4), (2, 4)]  # words 12, 13, 43, 42
        ring = list(zip(square, square[1:] + square[:1]))
        ring_labels = [labels[e] for e in ring]
        assert ring_labels[0] == ring_labels[2] != ring_labels[1] == ring_labels[3]

    def test_reference_labels(self, field_53):
        # the flip between words 321 and 521 deviates at r1
        fg = flip_graph(field_53)
        assert ((1, 2, 3), (1, 2, 5), 1) in fg.edges
        # 321 and 351: deviation at r2
        assert ((1, 2, 3), (1, 3, 5), 2) in fg.edges


    def test_agrees_with_pairwise_scan(self, differential_fields, field_43, field_63):
        # linkage or not, the keyed pass finds exactly the flips of the scan
        for field in differential_fields + [field_43, field_63]:
            assert flip_graph(field) == flip_graph_by_pairs(field)


class TestLinkageTrees:
    def test_reference_tree(self, field_42):
        lt = linkage_tree(field_42, (1, 2, 3))
        assert lt.edges == {((1, 2), (1, 3), 2), ((1, 3), (2, 3), 1)}

    def test_four_subset_tree(self, field_53):
        lt = linkage_tree(field_53, (1, 2, 3, 4))
        assert len(lt.edges) == 3
        assert {lab for _, _, lab in lt.edges} == {1, 2, 3}

    def test_non_linkage_rejected(self, field_43):
        with pytest.raises(NotLinkageError):
            linkage_tree(field_43, (1, 2, 3, 4))

    @pytest.mark.parametrize("tau", [(1, 1, 2), (0, 1, 2), (1, 2, 5)])
    def test_tau_must_be_left_nodes(self, field_42, tau):
        with pytest.raises(MatchfieldError, match="distinct left nodes in 1..4"):
            linkage_tree(field_42, tau)

    def test_rejects_the_taus_of_the_cycle_search(self, field_43):
        # exactly the taus whose covector has a cycle raise NotLinkageError,
        # with the cycle that linkage_covector finds
        cases = [field_43] + [random_matching_field(*size, seed)
                              for size in [(4, 2), (5, 2), (4, 3), (5, 3)] for seed in range(8)]
        raised = 0
        for field in cases:
            for tau in subsets(field.n, field.d + 1):
                res = linkage_covector(field, tau)
                try:
                    linkage_tree(field, tau)
                    got = None
                except NotLinkageError as exc:
                    got = (exc.tau, exc.cycle)
                except MatchfieldError:
                    got = None
                assert got == (None if res.ok else (res.tau, res.cycle))
                raised += got is not None
        assert raised > 20

    def test_agrees_with_pairwise_scan(self, differential_fields, field_43, field_63, field_64):
        # wherever linkage_tree returns, its keyed pass finds the flips of
        # the pairwise scan over tau's matchings
        returned = 0
        for field in differential_fields + [field_43, field_63, field_64]:
            for tau in subsets(field.n, field.d + 1):
                try:
                    tree = linkage_tree(field, tau)
                except MatchfieldError:
                    continue
                assert tree.edges == linkage_tree_edges_by_scan(field, tau)
                returned += 1
        assert returned > 100

    def test_decomposition_covers_exactly(self, field_42, field_53):
        for field in (field_42, field_53):
            trees = linkage_tree_decomposition(field)
            total = sum(len(t.edges) for t in trees.values())
            assert total == len(flip_graph(field).edges)


class TestCells:
    def test_square_cell(self, field_42):
        cell = tope_to_cell(field_42, (2, 2))
        assert factor_dims(cell) == (1, 1)
        assert cell.vertices == {(1, 2), (1, 3), (2, 4), (3, 4)}

    def test_triangle_cell(self, field_42):
        cell = tope_to_cell(field_42, (3, 1))
        assert factor_dims(cell) == (2, 0)
        assert cell.vertices == {(1, 3), (2, 3), (3, 4)}

    def test_cell_to_tope_round_trip(self, field_42):
        for v in [(3, 1), (2, 2), (1, 3)]:
            cell = tope_to_cell(field_42, v)
            tope = cell_to_tope(field_42, cell.vertices)
            assert tope == maximal_tope(field_42, v)

    def test_not_a_skeleton(self, field_42):
        with pytest.raises((NotAProductSkeletonError, MatchfieldError)):
            cell_to_tope(field_42, [(1, 2), (2, 3)])

    def test_maximal_cells(self, field_42, field_53):
        cells42 = maximal_cells(field_42)
        assert sorted(factor_dims(c) for c in cells42.values()) == [
            (0, 2),
            (1, 1),
            (2, 0),
        ]
        cells53 = maximal_cells(field_53)
        assert len(cells53) == 6  # lattice points of 2*Delta_2

    def test_cells_are_never_nested(self, differential_fields, field_42, field_53, field_63, field_64):
        linkage = [f for f in differential_fields if is_linkage(f).ok]
        assert len(linkage) >= 7
        for field in [field_42, field_53, field_63, field_64] + linkage:
            assert nested_cells_by_scan(maximal_cells(field)) == []

    def test_single_matching_trivial_cell(self):
        f = field_from_words(2, 2, {(1, 2): "21"})
        cells = maximal_cells(f)
        assert list(cells) == [(0, 0)]
        assert cells[(0, 0)].vertices == {(1, 2)}

    def test_face_restriction(self, field_42):
        # restricting one neighbour set yields the cell of the sub-tope
        cell = tope_to_cell(field_42, (2, 2))
        sub_vertices = [s for s in cell.vertices if 1 in s]
        tope = cell_to_tope(field_42, sub_vertices)
        assert tope.right_neighbors(1) == (1,)

    def test_face_lattice(self, field_42, field_53):
        # every choice of nonempty neighbour subsets is itself a cell whose
        # union tope has exactly those neighbour sets
        from itertools import combinations as combos, product

        for field in (field_42, field_53):
            for _, cell in maximal_cells(field).items():
                subset_pools = [
                    [frozenset(c) for r in range(1, len(ns) + 1) for c in combos(ns, r)]
                    for ns in cell.neighbor_sets
                ]
                for chosen in product(*subset_pools):
                    verts = [
                        tuple(sorted(pick))
                        for pick in product(*(sorted(c) for c in chosen))
                    ]
                    sub_tope = cell_to_tope(field, verts)
                    got = tuple(
                        frozenset(sub_tope.right_neighbors(i))
                        for i in range(1, field.d + 1)
                    )
                    assert got == tuple(chosen)


def cells_by_product_scan(field):
    """The oracle for maximal_cells: cell_of_tope on every maximal tope."""
    ta = tope_arrangement(field)
    return {
        point: cell_of_tope(field, BipartiteGraph.from_mask(field.n, field.d, mask))
        for point, mask in ta.mask_table.items()
    }


class TestCellsByContainment:
    """The containment pass of maximal_cells against the product scan of
    cell_of_tope, and its count check."""

    @pytest.mark.parametrize("n, d, count", [(4, 2, 24), (5, 2, 120), (4, 3, 96)])
    def test_every_small_linkage_field(self, n, d, count):
        linkage = every_linkage_field(n, d)
        assert len(linkage) == count
        for field in linkage:
            cells = maximal_cells(field)
            assert list(cells) == sorted(cells)
            assert cells == cells_by_product_scan(field)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(3, 2), (5, 3), (6, 3), (6, 4), (7, 3), (8, 4)]),
        st.integers(0, 10**6),
    )
    def test_coherent_fields(self, size, seed):
        field, _, _ = seeded_coherent_field(*size, seed)
        assert maximal_cells(field) == cells_by_product_scan(field)

    def test_a_field_that_is_not_linkage_is_refused(self, field_43):
        with pytest.raises(NotLinkageError):
            maximal_cells(field_43)

    def test_count_check_names_a_matching_the_tope_lacks(self, monkeypatch):
        # another linkage field's arrangement: the first tope in point order
        # holding a product choice that is not the field's matching fails the
        # count, which names the least such sigma
        linkage = every_linkage_field(4, 3)
        arrangements = [tope_arrangement(f) for f in linkage]
        n, d = 4, 3
        fired = 0
        for field in linkage[:12]:
            for ta in arrangements:
                monkeypatch.setattr(fields_mod, "tope_arrangement", lambda _, ta=ta: ta)
                lacking = [
                    (point, sigma)
                    for point, tope in sorted(ta.mask_table.items())
                    for J, m in core.right_perfect_matchings(tope, n, d).items()
                    if field.mask_table[J] != m
                    for sigma in [core.mask_subset(J)]
                ]
                if not lacking:
                    assert maximal_cells(field) == cells_by_product_scan(field)
                    continue
                with pytest.raises(MatchfieldError) as err:
                    maximal_cells(field)
                point = lacking[0][0]
                sigma = min(s for p, s in lacking if p == point)
                assert str(err.value) == f"tope matching on {sigma} is not in the field"
                # re-checked: the field's matching on sigma is not in the tope
                assert field.mask_table[core.subset_mask(sigma)] & ~ta.mask_table[point]
                fired += 1
        assert fired > 100


class TestDot:
    def test_words_and_colors(self, field_53):
        dot = flip_graph_to_dot(field_53, flip_graph(field_53))
        assert '"321"' in dot and '"543"' in dot
        assert "color=red" in dot
        assert 'label="1"' in dot

    # sha256 of flip_graph_to_dot, pinned so that the DOT text stays
    # byte-identical whichever route picks the colours; the second key says
    # whether the field is linkage, so coloured
    DIGESTS = {
        ("field_42", True): "fd9f39f5c7111f5705cc171d8d4c29f3cf56884a3490ec2224a86e124b7296de",
        ("field_53", True): "257febd4111fd210cace423d10b70d3056bd59c40de8892db0ef707a7d0c6583",
        ("field_63", True): "80c89157d737b7b530a647c1b62d7a994ef6f31807fd2f8b1a60bb9d7a54ad1a",
        ("field_64", True): "f23be9774c5007d204fc5548599028cddc5e5b639471200bf8764b38869334d8",
        ("field_43", False): "556ba893c339d5ed2fc2cd88f1de62a19a0e9037626beb6176d589aa1abff0da",
    }

    @pytest.mark.parametrize("name, color", sorted(DIGESTS))
    def test_dot_matches_its_pinned_digest(self, request, name, color):
        field = request.getfixturevalue(name)
        dot = flip_graph_to_dot(field, flip_graph(field))
        assert ("color=" in dot) == color
        assert hashlib.sha256(dot.encode()).hexdigest() == self.DIGESTS[(name, color)]

    @pytest.mark.parametrize("n, d, v", [(4, 2, (2, 1)), (5, 3, (2, 1, 1))])
    def test_a_tope_field_is_refused(self, n, d, v):
        field = extract_field(staircase_triangulation(n, d))
        tope_field = fields_mod.tope_field_of_type(field, v)
        with pytest.raises(MatchfieldError) as err:
            flip_graph_to_dot(tope_field, flip_graph(field))
        assert str(err.value) == f"expected a matching field, not type {v}"

    def test_word_encoding(self):
        assert matching_word(graph(4, 2, [(4, 1), (2, 2)])) == "42"
