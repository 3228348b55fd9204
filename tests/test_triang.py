"""Triangulations: axioms, extraction, degree pairs, reconstruction,
necessary conditions, generators, enumeration."""

import random
from itertools import combinations, permutations, product

import pytest

from matchfield import (
    InconsistentPairsError,
    MatchfieldError,
    NotATriangulationError,
    SizeCapError,
    count_bound,
    enumerate_triangulations,
    extract_field,
    is_linkage,
    phi,
    reconstruct_triangulation,
    staircase_triangulation,
    validate_triangulation,
)
from matchfield import core, simplex_lattice_points, triang
from matchfield.core import BipartiteGraph, contained_matchings
from matchfield.fields import field_from_graphs
from matchfield.stacks import stack_from_trees
from matchfield.triang import (
    Triangulation,
    TriangulationReport,
    check_triangulation,
    extended_tope_arrangement,
    find_agreement_violation,
    find_flip_violation,
    pairs_from_json_dict,
    pairs_to_json_dict,
    tree_count,
    triangulation_from_json_dict,
    triangulation_to_json_dict,
)
from matchfield import trianguloid_check

from conftest import cpu_timed, graph, mask_table, matchings_agree
from oracles import (
    agreed_matchings_per_graph,
    check_triangulation_with_flip,
    extended_tope_arrangement_by_products,
    necessary_conditions,
    reconstruct_by_every_leaf,
    reconstruct_triangulation_by_every_leaf,
    reconstruct_triangulation_on_tuples,
    sector_sweep,
)


def agreement_by_pairs(trees):
    """Oracle for find_agreement_violation: scan every pair of trees."""
    maps = [contained_matchings(g) for g in trees]
    for (g, mg), (h, mh) in combinations(zip(trees, maps), 2):
        for key, m1 in mg.items():
            m2 = mh.get(key)
            if m2 is not None and m1 != m2:
                return (g, h, key[0], key[1])
    return None


def flip_violation_by_scan(trees):
    """Oracle for find_flip_violation: test every other tree for containment."""
    for g in trees:
        left, right = g.left_degrees(), g.right_degrees()
        for j, i in g.edges:
            if left[j - 1] == 1 or right[i - 1] == 1:
                continue
            reduced = g.difference(graph(g.n, g.d, [(j, i)]))
            if not any(h != g and reduced.mask & ~h.mask == 0 for h in trees):
                return (g, (j, i))
    return None


def random_spanning_tree(n, d, rng):
    """Kruskal's algorithm on a shuffled edge list of K_{n,d}."""
    every = [(j, i) for j in range(1, n + 1) for i in range(1, d + 1)]
    rng.shuffle(every)
    return spanning_tree_of_order(n, d, every)


def spanning_tree_of_order(n, d, edges):
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    chosen = []
    for j, i in edges:
        a, b = find(("L", j)), find(("R", i))
        if a != b:
            parent[a] = b
            chosen.append((j, i))
    return graph(n, d, chosen)


def spy_on_one_mask_listings(monkeypatch):
    """The graphs whose matchings ``core.agreed_masks`` lists on their one
    mask from now on."""
    listings, agreed = [], core.agreed_masks

    def spy(masks, n, d):
        if len(masks) == 1:
            listings.append(BipartiteGraph.from_mask(n, d, masks[0]))
        return agreed(masks, n, d)

    monkeypatch.setattr(core, "agreed_masks", spy)
    return listings


def perturbed_staircases(sizes, per_size, seed):
    """Relabelled staircases with 0-3 trees replaced by random spanning
    trees, in shuffled order: (n, d, trees) triples."""
    rng = random.Random(seed)
    out = []
    for n, d in sizes:
        for _ in range(per_size):
            left = rng.sample(range(1, n + 1), n)
            right = rng.sample(range(1, d + 1), d)
            trees = staircase_triangulation(n, d, left, right).sorted_trees()
            for pos in rng.sample(range(len(trees)), rng.randint(0, min(3, len(trees)))):
                trees[pos] = random_spanning_tree(n, d, rng)
            rng.shuffle(trees)
            out.append((n, d, trees))
    return out


def reconstruct_by_degree_recount(pairs, left_labels, right_labels, memo):
    """Oracle for reconstruct_by_every_leaf: the set-valued recursion that
    rebuilds each subtree as a graph to recompute its degree pair."""
    key = (left_labels, right_labels, pairs)
    if key in memo:
        return memo[key]
    n, d = len(left_labels), len(right_labels)
    if n == 1:
        (pair,) = pairs
        edges = frozenset({tuple((left_labels[0], i) for i in right_labels)})
        memo[key] = edges
        return edges
    if d == 1:
        edges = frozenset({tuple((j, right_labels[0]) for j in left_labels)})
        memo[key] = edges
        return edges
    if n < d:
        flipped = frozenset((v, u) for u, v in pairs)
        sub = reconstruct_by_degree_recount(flipped, right_labels, left_labels, memo)
        trees = frozenset(tuple(sorted((j, i) for i, j in t)) for t in sub)
        memo[key] = trees
        return trees

    by_rdv = {v: (u, v) for u, v in pairs}
    if len(by_rdv) != len(pairs):
        raise InconsistentPairsError("right projection is not injective")
    trees: dict = {}
    for pos, j in enumerate(left_labels):
        member_rdvs = {v for u, v in pairs if u[pos] == 0}
        if not member_rdvs:
            raise InconsistentPairsError(f"no tree has {j} as a leaf")
        assigned: dict = {}
        for ipos, i in enumerate(right_labels):
            seed = tuple((n - 1) if t == ipos else 0 for t in range(d))
            if seed not in by_rdv:
                raise InconsistentPairsError(f"no tree with extreme rdv {seed}")
            for rdv in sector_sweep(member_rdvs, ipos + 1, seed):
                if rdv in assigned:
                    raise InconsistentPairsError(
                        f"rdv {rdv} admitted to two sectors of {j}"
                    )
                assigned[rdv] = (ipos, i)
        if set(assigned) != member_rdvs:
            raise InconsistentPairsError(f"sectors do not cover all pairs through {j}")
        sub_left = tuple(x for x in left_labels if x != j)
        sub_pairs = {}
        for rdv, (ipos, i) in assigned.items():
            u, v = by_rdv[rdv]
            sub_u = tuple(x for t, x in enumerate(u) if t != pos)
            sub_v = tuple(x - (1 if t == ipos else 0) for t, x in enumerate(v))
            if any(x < 0 for x in sub_v):
                raise InconsistentPairsError("deletion leaves a negative degree")
            sub_pairs[(sub_u, sub_v)] = (rdv, i)
        if len(sub_pairs) != len(assigned):
            raise InconsistentPairsError("deletion pairs collide")
        sub_trees = reconstruct_by_degree_recount(
            frozenset(sub_pairs), sub_left, right_labels, memo
        )
        sub_by_pair = {}
        for t in sub_trees:
            g = BipartiteGraph(max(left_labels), max(right_labels), t)
            lu = tuple(g.left_degrees()[x - 1] - 1 for x in sub_left)
            rv = tuple(g.right_degrees()[x - 1] - 1 for x in right_labels)
            sub_by_pair[(lu, rv)] = t
        for (sub_u, sub_v), (rdv, i) in sub_pairs.items():
            base = sub_by_pair.get((sub_u, sub_v))
            if base is None:
                raise InconsistentPairsError("recursion lost a deletion pair")
            tree = tuple(sorted(base + ((j, i),)))
            pair = by_rdv[rdv]
            old = trees.get(pair)
            if old is not None and old != tree:
                raise InconsistentPairsError(f"branches disagree on the tree at {pair}")
            trees[pair] = tree
    if len(trees) != len(pairs):
        raise InconsistentPairsError("not every tree was reconstructed")
    result = frozenset(trees.values())
    memo[key] = result
    return result


def all_pairings(n, d):
    """Every pair set whose projections biject onto the lattice points."""
    lefts = simplex_lattice_points(d - 1, n)
    rights = simplex_lattice_points(n - 1, d)
    return [frozenset(zip(lefts, perm)) for perm in permutations(rights)]


def swapped_staircase_pairs(sizes, per_size, seed):
    """Degree pairs of relabelled staircases with the right vectors of 0-3
    pairs of pairs swapped: (n, d, pairs) triples."""
    rng = random.Random(seed)
    out = []
    for n, d in sizes:
        for _ in range(per_size):
            left = rng.sample(range(1, n + 1), n)
            right = rng.sample(range(1, d + 1), d)
            pairs = sorted(phi(staircase_triangulation(n, d, left, right)))
            for _ in range(rng.randint(0, 3)):
                a, b = rng.sample(range(len(pairs)), 2)
                (ua, va), (ub, vb) = pairs[a], pairs[b]
                pairs[a], pairs[b] = (ua, vb), (ub, va)
            out.append((n, d, frozenset(pairs)))
    return out


def differential_pair_sets():
    """All pairings at (3,3), (2,4) and (4,2), and 288 swapped staircase pair
    sets up to (5,4): (n, d, pairs) triples."""
    cases = [(n, d, pairs) for n, d in [(3, 3), (2, 4), (4, 2)] for pairs in all_pairings(n, d)]
    return cases + swapped_staircase_pairs(PERTURBED_SIZES, 24, 7)


def outcome(reconstruct, pairs, n, d):
    """Trees as a set of edge tuples, or the exception's type and message."""
    try:
        trees = reconstruct(pairs, tuple(range(1, n + 1)), tuple(range(1, d + 1)), {})
    except Exception as exc:
        return type(exc), str(exc)
    return frozenset(trees.values()) if isinstance(trees, dict) else trees


PERTURBED_SIZES = [(n, d) for n in range(2, 6) for d in range(2, 5)]


SQUARE_TREES = [
    [(1, 1), (2, 1), (2, 2)],
    [(1, 1), (1, 2), (2, 2)],
]


class TestValidation:
    def test_square(self):
        trees = [graph(2, 2, t) for t in SQUARE_TREES]
        t = validate_triangulation([g.mask for g in trees], 2, 2)
        assert len(t.trees) == 2

    def test_agreement_violation(self):
        trees = [
            graph(2, 2, SQUARE_TREES[0]),
            graph(2, 2, [(1, 2), (2, 1), (2, 2)]),
        ]
        report = check_triangulation([g.mask for g in trees], 2, 2)
        assert not report.ok and report.kind == "agreement"
        assert report.witness[2] == (1, 2) and report.witness[3] == (1, 2)

    def test_count_violation(self, trees_63):
        report = check_triangulation([g.mask for g in trees_63], 6, 3)
        assert not report.ok and report.kind == "count"
        assert report.witness == (6, 21)

    @pytest.mark.parametrize("bad", [None, "x", True, -1])
    def test_a_mask_out_of_range_is_refused_by_the_grid_text(self, bad):
        # before sorting, which would raise TypeError on a mask that is no int
        masks = list(staircase_triangulation(3, 3).masks)
        masks[1] = bad
        for check in (check_triangulation, validate_triangulation):
            with pytest.raises(MatchfieldError) as info:
                check(masks, 3, 3)
            assert str(info.value) == "mask has bits outside the 3x3 grid"

    @pytest.mark.parametrize("n,d", [(2, 0), (0, 3), (1, 0), (-1, 3), (0, 0)])
    def test_empty_side_is_refused_by_name(self, n, d):
        # as staircase_triangulation and enumerate_triangulations refuse it
        for masks in ([], [0]):
            with pytest.raises(MatchfieldError) as info:
                check_triangulation(masks, n, d)
            assert type(info.value) is MatchfieldError
            assert str(info.value) == f"triangulation ({n}, {d}) needs a node on each side"

    @pytest.mark.parametrize("kind", ["agreement", "count", "spanning"])
    def test_a_refusal_carries_its_kind_and_witness(self, kind):
        # the message names the kind only; the witness is the report's
        masks = [graph(2, 2, t).mask for t in SQUARE_TREES]
        masks[1] = {"agreement": graph(2, 2, [(1, 2), (2, 1), (2, 2)]).mask,
                    "count": masks[0], "spanning": graph(2, 2, [(1, 1), (1, 2)]).mask}[kind]
        with pytest.raises(NotATriangulationError) as info:
            validate_triangulation(masks, 2, 2)
        report = check_triangulation(masks, 2, 2)
        assert report.kind == kind and str(info.value) == f"not a triangulation: {kind}"
        assert (info.value.kind, info.value.witness) == (report.kind, report.witness)

    def test_a_read_decides_its_masks_once(self, monkeypatch):
        # the range of the masks is decided by check_triangulation, and the
        # triangulation holds what it decided; a reconstruction decides the
        # masks it rebuilt once too
        calls, check = [], core.check_masks
        monkeypatch.setattr(core, "check_masks", lambda *a: calls.append(a) or check(*a))
        t = staircase_triangulation(5, 4, (2, 5, 1, 4, 3), (3, 1, 4, 2))
        data, pairs = triangulation_to_json_dict(t), phi(t)
        calls.clear()
        assert triangulation_from_json_dict(data) == t
        assert len(calls) == 1
        calls.clear()
        assert reconstruct_triangulation(pairs, 5, 4) == t
        assert len(calls) == 1

    def test_spanning_violation(self):
        trees = [graph(2, 2, SQUARE_TREES[0]), graph(2, 2, [(1, 1), (1, 2)])]
        report = check_triangulation([g.mask for g in trees], 2, 2)
        assert not report.ok and report.kind == "spanning"

    def test_flip_violation_detected(self):
        # l3's non-leaf edge (3,1) of the third tree is in no other tree;
        # the predicate is exercised directly because K spanning trees that
        # agree pairwise are a triangulation (Postnikov 2009, Lemma 12.6), in
        # which the flip axiom holds, so no set passing the agreement axiom
        # fails it
        from matchfield.triang import find_flip_violation

        trees = [
            graph(3, 2, [(1, 1), (1, 2), (2, 2), (3, 2)]),
            graph(3, 2, [(1, 1), (2, 1), (2, 2), (3, 2)]),
            graph(3, 2, [(1, 2), (2, 1), (3, 1), (3, 2)]),
        ]
        witness = find_flip_violation(trees)
        assert witness is not None
        tree, edge = witness
        assert edge in tree.edges

    def test_flip_holds_on_valid(self):
        from matchfield.triang import find_flip_violation

        t = staircase_triangulation(3, 2)
        assert find_flip_violation(t.sorted_trees()) is None


class TestFlipFollowsFromAgreement:
    """check_triangulation stops after agreement; the flip pass it dropped
    never fires on a set that gets that far."""

    ENUMERABLE = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (2, 5), (5, 2)]

    def test_reports_match_the_flip_oracle(self):
        cases = list(TestKeyedAxioms.CASES)
        for n, d in self.ENUMERABLE:
            for t in enumerate_triangulations(n, d):
                trees = t.sorted_trees()
                # enumeration runs no check_triangulation of its own
                assert check_triangulation_with_flip(trees, n, d).ok
                cases.append((n, d, trees))
                cases.append((n, d, trees[1:]))
                cut = trees[0].difference(graph(n, d, trees[0].edges[:1]))
                cases.append((n, d, trees[1:] + [cut]))
        kinds = set()
        for n, d, trees in cases:
            report = check_triangulation([g.mask for g in trees], n, d)
            assert report == check_triangulation_with_flip(trees, n, d)
            kinds.add(report.kind)
        assert kinds == {None, "count", "spanning", "agreement"}

    @pytest.mark.parametrize(
        "n, d, count", [(2, 3, 6), (3, 2, 6), (2, 4, 24), (4, 2, 24), (3, 3, 108)]
    )
    def test_every_agreeing_tree_set_passes_the_flip_axiom(self, n, d, count):
        # every K-set of spanning trees that agree pairwise, as the K-cliques
        # of the agreement graph taken in increasing index order
        trees = core.all_spanning_trees(n, d)
        maps = [core.agreed_masks([g.mask], n, d)[0] for g in trees]
        agree = [
            sum(1 << b for b, mh in enumerate(maps) if all(mh.get(k, m) == m for k, m in mg.items()))
            for mg in maps
        ]
        found = []

        def grow(chosen, candidates):
            if len(chosen) == tree_count(n, d):
                found.append([trees[b] for b in chosen])
                return
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                b = low.bit_length() - 1
                grow(chosen + [b], candidates & agree[b])

        grow([], (1 << len(trees)) - 1)
        assert len(found) == count
        for chosen in found:
            assert find_flip_violation(chosen) is None


class TestKeyedAxioms:
    """The keyed agreement pass and the flip mask lookup against the pairwise
    scans they replace."""

    CASES = perturbed_staircases(PERTURBED_SIZES, 12, seed=2018)

    def test_witnesses_match_pairwise_scans(self):
        agreement = flip = 0
        for n, d, trees in self.CASES:
            witness = find_agreement_violation(trees)
            assert witness == agreement_by_pairs(trees)
            agreement += witness is not None
            witness = find_flip_violation(trees)
            assert witness == flip_violation_by_scan(trees)
            flip += witness is not None
        # both verdicts occur, so neither comparison is vacuous
        assert 0 < agreement < len(self.CASES) and 0 < flip < len(self.CASES)

    def test_relabelled_88_staircase_is_accepted(self):
        # 3432 trees holding C(16, 8) - 1 = 12869 distinct matchings, decided
        # by the shared pass alone
        t = staircase_triangulation(8, 8, (3, 7, 1, 8, 5, 2, 6, 4), (6, 2, 8, 4, 1, 7, 3, 5))
        assert len(t.trees) == tree_count(8, 8) == 3432
        assert check_triangulation(t.masks, 8, 8) == TriangulationReport(True)
        assert len(core.agreed_masks(t.masks, 8, 8)[0]) == 12869

    def test_65_staircase_with_a_foreign_tree_is_refused_with_the_oracle_witness(self, monkeypatch):
        rng = random.Random(23)
        t = staircase_triangulation(6, 5, (4, 1, 6, 2, 5, 3), (5, 3, 1, 4, 2))
        foreign = random_spanning_tree(6, 5, rng)
        while foreign in t.trees:
            foreign = random_spanning_tree(6, 5, rng)
        trees = t.sorted_trees()
        trees[rng.randrange(len(trees))] = foreign
        listings = spy_on_one_mask_listings(monkeypatch)
        report = check_triangulation([g.mask for g in trees], 6, 5)
        # a refusal lists the matchings of one tree, the witness's first
        assert listings == [report.witness[0]]
        witness = agreed_matchings_per_graph(sorted(trees, key=lambda g: g.mask))[1]
        assert witness is not None and foreign in witness[:2]
        assert report == TriangulationReport(False, "agreement", witness)

    def test_88_staircase_with_a_relabelled_tree_is_refused(self, monkeypatch):
        # the identity staircase with its first tree replaced by the first
        # tree it lacks of the staircase with l1 and l2 swapped; the preorder
        # oracle would list 2,400,402 matchings, so the witness is pinned
        trees = staircase_triangulation(8, 8).sorted_trees()
        swapped = staircase_triangulation(8, 8, (2, 1, 3, 4, 5, 6, 7, 8)).sorted_trees()
        held = set(trees)
        trees[0] = next(g for g in swapped if g not in held)
        listings = spy_on_one_mask_listings(monkeypatch)
        report = check_triangulation([g.mask for g in trees], 8, 8)
        first = graph(8, 8, [(1, i) for i in range(1, 9)] + [(2, 1)] + [(j, 8) for j in range(3, 9)])
        second = graph(8, 8, [(1, i) for i in range(1, 8)] + [(2, 7), (2, 8)] + [(j, 8) for j in range(3, 9)])
        assert report == TriangulationReport(False, "agreement", (first, second, (1, 2), (1, 7)))
        assert listings == [first]

    def test_pair_verdicts_match_matchings_agree(self):
        for n, d, trees in self.CASES[::6]:
            for g, h in combinations(trees[:8], 2):
                clash = find_agreement_violation([g, h])
                assert (clash is None) == matchings_agree(g, h)[0]
                if clash is not None:
                    key = clash[2:]
                    assert contained_matchings(g)[key] != contained_matchings(h)[key]

    def test_stack_unchanged_on_valid_triangulations(self):
        for n, d in [(2, 2), (3, 2), (2, 4), (3, 3), (4, 3), (5, 2)]:
            trees = staircase_triangulation(n, d, None, tuple(range(d, 0, -1))).sorted_trees()
            entries = {((), ()): graph(n, d, [])}
            for g in trees:
                for key, m in contained_matchings(g).items():
                    assert entries.setdefault(key, m) == m
            assert stack_from_trees(trees, n, d).mask_table == mask_table(entries)

    def test_trees_on_other_sides_are_refused(self):
        # masks of graphs on other node sets would be read as other edges
        trees = staircase_triangulation(3, 2).sorted_trees()
        other = graph(2, 3, [(1, 1), (1, 2), (1, 3), (2, 3)])
        for build in (stack_from_trees, field_from_graphs):
            with pytest.raises(MatchfieldError, match=r"a tree on \(2, 3\) among trees on \(3, 2\)"):
                build(trees + [other], 3, 2)

    def test_stack_refuses_disagreeing_trees(self):
        trees = [graph(2, 2, SQUARE_TREES[0]), graph(2, 2, [(1, 2), (2, 1), (2, 2)])]
        with pytest.raises(MatchfieldError, match=r"disagree on the matching of \(\(1, 2\), \(1, 2\)\)"):
            stack_from_trees(trees, 2, 2)


class TestExtraction:
    def test_square(self):
        t = validate_triangulation([graph(2, 2, t).mask for t in SQUARE_TREES], 2, 2)
        field = extract_field(t)
        assert field.matching((1, 2)).edges == ((1, 1), (2, 2))

    def test_nonsquare_maximal_matching(self):
        # a (3,3) triangulation whose matching sends 1->r2, 2->r3, 3->r1
        target = graph(3, 3, [(1, 2), (2, 3), (3, 1)])
        hits = [
            t
            for t in enumerate_triangulations(3, 3)
            if extract_field(t).matching((1, 2, 3)) == target
        ]
        assert hits
        assert all(extract_field(t).matching((1, 2, 3)) == target for t in hits)

    def test_staircase_fields_are_linkage(self):
        for n, d in [(3, 2), (4, 2), (3, 3), (4, 3)]:
            field = extract_field(staircase_triangulation(n, d))
            assert is_linkage(field).ok

    def test_extraction_needs_wide_left_side(self):
        with pytest.raises(MatchfieldError):
            extract_field(staircase_triangulation(2, 4))

    def test_a_mask_off_the_grid_is_refused(self):
        # refused where the triangulation is held: bit 40 lies above the
        # 3x2 grid and -1 has bits above every grid
        masks = staircase_triangulation(3, 2).masks
        for n, d, held in ((3, 2, [masks[0] | 1 << 40, *masks[1:]]), (2, 2, [-1])):
            with pytest.raises(MatchfieldError) as err:
                extract_field(triang.Triangulation(n, d, held))
            assert str(err.value) == f"mask has bits outside the {n}x{d} grid"

    def test_partial_extraction_requires_coverage(self):
        single = staircase_triangulation(3, 2).sorted_trees()[:1]
        with pytest.raises(MatchfieldError):
            field_from_graphs(single, 3, 2)


class TestPhi:
    def test_square(self):
        t = validate_triangulation([graph(2, 2, tr).mask for tr in SQUARE_TREES], 2, 2)
        assert phi(t) == {((0, 1), (1, 0)), ((1, 0), (0, 1))}

    def test_staircase_23_identity_display(self):
        # for the prism over a triangle, the identity staircase trees carry
        # left pairs (k-1, 3-k) and right pairs with a single 1 at position k
        t = staircase_triangulation(2, 3)
        expected = set()
        for k in (1, 2, 3):
            left = (k - 1, 3 - k)
            right = tuple(1 if i == k else 0 for i in (1, 2, 3))
            expected.add((left, right))
        assert phi(t) == expected

    def test_count(self):
        for n, d in [(3, 2), (3, 3), (4, 2)]:
            t = staircase_triangulation(n, d)
            assert len(phi(t)) == tree_count(n, d)


class TestReconstruction:
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 4)])
    def test_enumerated_round_trips(self, n, d):
        for t in enumerate_triangulations(n, d):
            assert reconstruct_triangulation(phi(t), n, d) == t

    @pytest.mark.parametrize(
        "n,d",
        [
            (1, 1), (2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (5, 2), (3, 4),
            (4, 3), (6, 1), (1, 6), (7, 6), (6, 7),
        ],
    )
    def test_staircase_round_trips(self, n, d):
        t = staircase_triangulation(n, d)
        assert reconstruct_triangulation(phi(t), n, d) == t

    def test_permuted_staircase_round_trips(self):
        t = staircase_triangulation(3, 3, left_order=(2, 3, 1), right_order=(3, 1, 2))
        assert reconstruct_triangulation(phi(t), 3, 3) == t

    def test_pair_off_the_simplex_is_refused(self):
        # right count, distinct left vectors, one of them (-1, 2, 0) with the
        # right sum but off the lattice points of 1 * Delta_2
        pairs = sorted(phi(staircase_triangulation(3, 2)))
        u, v = pairs[0]
        pairs[0] = ((-1, 2, 0), v)
        assert len({u for u, _ in pairs}) == len(pairs) == tree_count(3, 2)
        message = "^projections are not bijections onto lattice points$"
        with pytest.raises(InconsistentPairsError, match=message):
            reconstruct_triangulation(pairs, 3, 2)

    def test_all_3x3_triangulations_round_trip(self):
        found = enumerate_triangulations(3, 3)
        assert len(found) == 108
        for t in found:
            assert reconstruct_triangulation(phi(t), 3, 3) == t

    def test_all_2x5_triangulations_round_trip(self):
        # K = 5 prisms: exercises the transposed recursion throughout
        found = enumerate_triangulations(2, 5)
        assert len(found) == 120
        for t in found:
            assert reconstruct_triangulation(phi(t), 2, 5) == t

    def test_bigger_staircases_round_trip(self):
        for n, d in [(4, 4), (5, 3), (2, 6)]:
            t = staircase_triangulation(n, d, None, tuple(range(d, 0, -1)))
            assert reconstruct_triangulation(phi(t), n, d) == t

    def test_projection_violation_rejected(self):
        pairs = {((0, 1), (1, 0)), ((1, 0), (1, 0))}
        with pytest.raises(InconsistentPairsError):
            reconstruct_triangulation(pairs, 2, 2)

    def test_pair_count_checked_before_lattice_points(self):
        # 29 * Delta_29 has C(58, 29) lattice points; none may be listed
        with pytest.raises(InconsistentPairsError, match="0 pairs"):
            reconstruct_triangulation(set(), 30, 30)
        assert not necessary_conditions(set(), 30, 30).projections_ok

    @pytest.mark.parametrize("n,d", [(0, 2), (2, 0), (1, 0), (-1, 3)])
    def test_empty_sides_rejected(self, n, d):
        with pytest.raises(InconsistentPairsError):
            reconstruct_triangulation(set(), n, d)

    def test_pair_keyed_recursion_agrees_with_degree_recount(self):
        kinds = set()
        for n, d, pairs in differential_pair_sets():
            expected = outcome(reconstruct_by_degree_recount, pairs, n, d)
            assert outcome(reconstruct_by_every_leaf, pairs, n, d) == expected, (n, d, sorted(pairs))
            kinds.add(expected[0] if isinstance(expected, tuple) else "trees")
        assert {"trees", InconsistentPairsError} <= kinds

    def test_one_chain_per_tree_agrees_with_every_leaf_oracle(self):
        accepted = 0
        for n, d, pairs in differential_pair_sets():
            try:
                expected = reconstruct_triangulation_by_every_leaf(pairs, n, d)
            except InconsistentPairsError:
                with pytest.raises(InconsistentPairsError):
                    reconstruct_triangulation(pairs, n, d)
                continue
            assert reconstruct_triangulation(pairs, n, d) == expected, (n, d, sorted(pairs))
            accepted += 1
        assert accepted == 350

    @pytest.mark.parametrize(
        "pairs,message",
        [
            (
                [((0, 0, 2), (0, 2, 0)), ((0, 1, 1), (1, 0, 1)), ((0, 2, 0), (2, 0, 0)),
                 ((1, 0, 1), (0, 0, 2)), ((1, 1, 0), (1, 1, 0)), ((2, 0, 0), (0, 1, 1))],
                "rdv (0, 0, 2) admitted to two sectors of 2",
            ),
            (
                [((0, 0, 2), (0, 1, 1)), ((0, 1, 1), (2, 0, 0)), ((0, 2, 0), (0, 2, 0)),
                 ((1, 0, 1), (1, 1, 0)), ((1, 1, 0), (0, 0, 2)), ((2, 0, 0), (1, 0, 1))],
                "sectors do not cover all pairs through 2",
            ),
            (
                [((0, 0, 2), (1, 0, 1)), ((0, 1, 1), (0, 0, 2)), ((0, 2, 0), (1, 1, 0)),
                 ((1, 0, 1), (0, 2, 0)), ((1, 1, 0), (2, 0, 0)), ((2, 0, 0), (0, 1, 1))],
                "deletion leaves a negative degree",
            ),
        ],
        ids=["two-sectors", "coverage", "negative-degree"],
    )
    def test_each_deletion_check_refuses_an_input_first(self, pairs, message):
        # without its check, each input escapes as another exception or is
        # refused later with another message
        with pytest.raises(InconsistentPairsError) as info:
            reconstruct_triangulation(pairs, 3, 3)
        assert str(info.value) == message

    def test_coded_steps_are_the_tuple_steps_of_a_65_staircase(self, monkeypatch):
        # every deletion step and transposed pair set of the coded recursion
        # is the encoding of the tuple one under its level key (n, d, codes
        # [, pos]), whatever labels reach it, and no degree along the way
        # reaches the base B = max(n, d), so no digit carries
        n, d = 6, 5
        t = staircase_triangulation(n, d, (3, 6, 1, 5, 2, 4), (2, 5, 3, 1, 4))
        pairs, base = phi(t), max(n, d)

        def code(pair):
            return core.encode_point(pair[0] + pair[1], base)

        def codes(pair_set):
            return frozenset(map(code, pair_set))

        expected: dict = {}
        assert reconstruct_triangulation_on_tuples(pairs, n, d, expected) == t
        memo: dict = {}
        calls: list = []
        deletion = triang._deletion

        def spy(level, pos, m, k, j, b):
            calls.append((m, k, level, pos))
            return deletion(level, pos, m, k, j, b)

        monkeypatch.setattr(triang, "_deletion", spy)
        left, right = tuple(range(1, n + 1)), tuple(range(1, d + 1))
        for x in sorted(codes(pairs)):
            triang._tree(x, codes(pairs), left, right, base, memo)
        coded = {}
        for key, value in expected.items():
            assert max(max(u + v) for u, v in key[2]) < base
            if len(key) == 4:  # (left labels, right labels, pairs, pos): a deletion
                down, facet = value
                assert max(max(u + v) for u, v in facet) < base
                value = (
                    {code(pair): (i, code(sub)) for pair, (i, sub) in down.items()},
                    codes(facet),
                )
            else:  # (left labels, right labels, pairs): the transposed pairs
                value = codes(value)
            level = (len(key[0]), len(key[1]), codes(key[2])) + key[3:]
            # label keys of one level carry one coded step
            assert coded.setdefault(level, value) == value
        assert coded == {key: value for key, value in memo.items() if isinstance(key, tuple)}
        steps = [key for key in coded if len(key) == 4]
        assert len(calls) == len(set(calls)) == len(steps) == 186
        assert set(calls) == set(steps)
        assert len(expected) > len(coded)

    def test_rebuild_holds_each_level_set_once(self, monkeypatch):
        # a relabelled (7,6) staircase: no two distinct objects among the
        # memo's level sets are equal, and the rebuild is the input
        t = staircase_triangulation(7, 6, (4, 7, 1, 6, 2, 5, 3), (3, 6, 1, 5, 2, 4))
        memos: list = []
        tree = triang._tree

        def spy(code, codes, left, right, base, memo):
            memos.append(memo)
            return tree(code, codes, left, right, base, memo)

        monkeypatch.setattr(triang, "_tree", spy)
        assert reconstruct_triangulation(phi(t), 7, 6) == t
        assert all(memo is memos[0] for memo in memos)
        held = {id(level): level for level in memos[0] if isinstance(level, frozenset)}
        for key, value in memos[0].items():
            if isinstance(key, tuple):
                held[id(key[2])] = key[2]
                facets = value[1] if len(key) == 4 else value
                held[id(facets)] = facets
        assert len(held) > 100
        assert len(set(held.values())) == len(held)

    def test_phi_injective_on_enumerable_cases(self):
        for n, d in [(2, 2), (2, 3), (2, 4), (3, 3)]:
            found = enumerate_triangulations(n, d)
            images = {phi(t) for t in found}
            assert len(images) == len(found)


class TestNecessaryConditions:
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
    def test_valid_images_pass(self, n, d):
        t = staircase_triangulation(n, d)
        report = necessary_conditions(phi(t), n, d)
        assert report.ok

    def test_enumerated_images_pass(self):
        for n, d in [(2, 2), (2, 3), (2, 4)]:
            for t in enumerate_triangulations(n, d):
                assert necessary_conditions(phi(t), n, d).ok

    def test_projection_failure(self):
        pairs = {((0, 1), (1, 0)), ((1, 0), (1, 0))}
        report = necessary_conditions(pairs, 2, 2)
        assert not report.projections_ok

    def test_exhaustive_3x3_screen(self):
        # all 720 pairings of the lattice points: the screen keeps every one
        # of the 108 genuine images and the certified reconstruction decides
        # the rest correctly
        import itertools

        from matchfield import simplex_lattice_points

        valid = {frozenset(phi(t)) for t in enumerate_triangulations(3, 3)}
        points = simplex_lattice_points(2, 3)
        accepted = rejected = 0
        for perm in itertools.permutations(points):
            pairs = frozenset(zip(points, perm))
            report = necessary_conditions(pairs, 3, 3)
            if pairs in valid:
                assert report.ok
            try:
                reconstruct_triangulation(pairs, 3, 3)
                accepted += 1
                assert pairs in valid
            except InconsistentPairsError:
                rejected += 1
                assert pairs not in valid
        assert accepted == 108 and rejected == 612

    def test_adjacency_failure(self):
        # re-pair one left point with a non-adjacent right point: the
        # projections stay bijective but the stranded pair lacks neighbours
        t = staircase_triangulation(3, 3)
        pairs = sorted(phi(t))
        mapping = dict(pairs)
        lefts = [u for u, _ in pairs]
        a, b = lefts[0], lefts[-1]
        mapping[a], mapping[b] = mapping[b], mapping[a]
        report = necessary_conditions(set(mapping.items()), 3, 3)
        assert report.projections_ok
        assert not report.adjacency_ok
        assert report.deletion_ok is None
        pair, have, needed = report.witness
        assert have < needed


class TestGenerators:
    def test_staircase_22(self):
        t = staircase_triangulation(2, 2)
        assert {tuple(sorted(g.edges)) for g in t.trees} == {
            tuple(sorted(tr)) for tr in SQUARE_TREES
        }

    def test_staircase_valid(self):
        for n, d in [(2, 3), (3, 3), (4, 2), (2, 5)]:
            t = staircase_triangulation(n, d)
            assert check_triangulation(t.masks, n, d).ok

    def test_bad_order(self):
        with pytest.raises(MatchfieldError):
            staircase_triangulation(3, 2, left_order=(1, 1, 2))

    def test_count_bound(self):
        assert count_bound(2, 2) == 2
        assert count_bound(2, 3) == 6
        assert count_bound(3, 3) == 720

    @pytest.mark.parametrize(
        "n, d, error, message",
        [
            (0, 2, MatchfieldError, r"count_bound \(0, 2\) needs a node on each side"),
            (2, 0, MatchfieldError, r"count_bound \(2, 0\) needs a node on each side"),
            # C(22, 11) = 705432 trees: the factorial alone takes seconds
            (12, 12, SizeCapError, r"count_bound \(12, 12\) has 705432 trees, over the cap of 100000"),
        ],
    )
    def test_count_bound_refuses_at_once(self, n, d, error, message):
        def call():
            with pytest.raises(error, match=f"^{message}$"):
                count_bound(n, d)

        assert cpu_timed(call)[1] < 0.05

    def test_enumeration_counts(self):
        assert len(enumerate_triangulations(2, 2)) == 2
        assert len(enumerate_triangulations(2, 3)) == 6
        assert len(enumerate_triangulations(2, 4)) == 24

    def test_enumeration_matches_bound_at_n2(self):
        for d in (2, 3, 4):
            assert len(enumerate_triangulations(2, d)) == count_bound(2, d)

    def test_enumeration_cap(self):
        with pytest.raises(SizeCapError):
            enumerate_triangulations(4, 4)

    def test_degree_classes_at_every_admitted_size(self):
        # the right degree vectors of the spanning trees of K_{n,d} are all
        # the positive vectors of sum n + d - 1, K of them, and each
        # triangulation takes one tree of each class
        admitted = []
        for n in range(1, core.MAX_SIDE + 1):
            for d in range(1, core.MAX_SIDE + 1):
                try:
                    found = enumerate_triangulations(n, d)
                except SizeCapError:
                    continue
                classes = {g.right_degrees() for g in core.all_spanning_trees(n, d)}
                positive = {v for v in product(range(1, n + 1), repeat=d) if sum(v) == n + d - 1}
                assert classes == positive and len(classes) == tree_count(n, d)
                for t in found:
                    assert sorted(core.right_degrees(m, n, d) for m in t.masks) == sorted(classes)
                admitted.append((n, d))
        # (1, d) and (d, 1) up to the 24 edges of all_spanning_trees, and
        # the ten sizes with K from 2 to 6
        assert len(admitted) == 24 + 23 + 10


class TestExtendedArrangement:
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)])
    def test_triangulation_arrangements_are_trianguloids(self, n, d):
        t = staircase_triangulation(n, d)
        report = trianguloid_check(extended_tope_arrangement(t))
        assert report.trianguloid

    def test_enumerated_arrangements_are_trianguloids(self):
        for n, d in [(2, 2), (2, 3)]:
            for t in enumerate_triangulations(n, d):
                assert trianguloid_check(extended_tope_arrangement(t)).trianguloid

    @pytest.mark.parametrize(
        "n, d", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (2, 5), (5, 2)])
    def test_enumerated_arrangements_match_every_product_choice(self, n, d):
        for t in enumerate_triangulations(n, d):
            expected = extended_tope_arrangement_by_products(t).mask_table
            assert extended_tope_arrangement(t).mask_table == expected

    def test_a_tree_mask_that_is_no_tree_is_refused(self):
        t = triang.Triangulation(2, 2, [graph(2, 2, [(1, 1), (1, 2), (2, 1), (2, 2)]).mask])
        with pytest.raises(MatchfieldError) as err:
            extended_tope_arrangement(t)
        assert str(err.value) == "[[1, 1], [1, 2], [2, 1], [2, 2]] is not a spanning tree"


class TestSerialization:
    def test_triangulation_round_trip(self):
        t = staircase_triangulation(3, 2)
        assert triangulation_from_json_dict(triangulation_to_json_dict(t)) == t

    def test_pairs_round_trip(self):
        t = staircase_triangulation(3, 2)
        pairs = phi(t)
        assert pairs_from_json_dict(pairs_to_json_dict(pairs, 3, 2)) == pairs
