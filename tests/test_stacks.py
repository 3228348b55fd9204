"""Stacks, ensembles, completion, extension, matroids, right submatchings."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matchfield import (
    BipartiteGraph,
    MatchfieldError,
    MatchingStack,
    SizeCapError,
    TiedMinimumError,
    coherent_field,
    completion,
    core,
    extend,
    extract_field,
    extraction,
    is_linkage,
    right_submatching_check,
    stack_from_trees,
    staircase_triangulation,
    transversal_matroid,
    validate_ensemble,
)
from matchfield import core, fields, randgen
from matchfield import stacks as stacks_mod
from matchfield.stacks import (
    stack_from_json_dict,
    stack_to_json_dict,
    stiefel_image_of_field,
)
from matchfield.fields import maximal_tope_covectors

from conftest import (
    BAD_WEIGHTS,
    RATIONAL_WEIGHTS,
    field_from_words,
    graph,
    mask_table,
    random_matching_field,
    rescaled,
)
from oracles import (
    _transpose,
    check_basis_exchange,
    completion_linkage_check,
    matching_masks_by_graph,
    right_submatching_check_by_rescan,
    stack_left_linkage,
    stack_right_linkage,
    stiefel_image,
    transversal_matroid_by_augmenting,
    validate_ensemble_by_layer_fields,
)


def random_stack(n, d, seed):
    """A seeded random perfect matching on every pair (J, I); most such
    stacks are neither closed nor linkage."""
    rng = random.Random(seed)
    entries = {}
    for J, I in MatchingStack(n, d, {}).pairs():
        rights = list(I)
        rng.shuffle(rights)
        entries[(J, I)] = BipartiteGraph(n, d, list(zip(J, rights)))
    return MatchingStack(n, d, mask_table(entries))


def agreeing_field(n, d, seed):
    """A seeded matching field whose every d-subset takes the first of its
    shuffled bijections whose submatchings agree with those of the subsets
    before it, or the first one where none does; its mask table is in a
    shuffled order."""
    rng = random.Random(seed)
    chosen, table = {}, {}
    for sigma in core.subsets(n, d):
        options = list(itertools.permutations(range(1, d + 1)))
        rng.shuffle(options)
        matchings = [graph(n, d, list(zip(sigma, rights))) for rights in options]
        agrees = (
            g for g in matchings
            if all(chosen.get(key, sub) == sub for key, sub in matching_masks_by_graph(g).items())
        )
        g = next(agrees, matchings[0])
        for key, sub in matching_masks_by_graph(g).items():
            chosen.setdefault(key, sub)
        table[core.subset_mask(sigma)] = g.mask
    items = list(table.items())
    rng.shuffle(items)
    return fields.field_from_masks(n, d, core.all_ones(d), dict(items))


def graph_entries(stack):
    """The matching of every pair of a stack that has them all, as graphs."""
    return {pair: stack.matching(*pair) for pair in stack.pairs()}


@pytest.fixture(scope="module")
def square_stack():
    t = staircase_triangulation(2, 2)
    return stack_from_trees(t.sorted_trees(), 2, 2)


@pytest.fixture(scope="module")
def stack_42():
    t = staircase_triangulation(4, 2)
    return stack_from_trees(t.sorted_trees(), 4, 2)


class TestEnsemble:
    def test_triangulation_stack_is_ensemble(self, square_stack):
        assert validate_ensemble(square_stack).ok

    def test_closure_violation(self):
        # reassign a 2-level entry sitting under the full 3-matching; with
        # min(n, d) <= 2 every small entry is forced and closure cannot break
        t = staircase_triangulation(3, 3)
        stack = stack_from_trees(t.sorted_trees(), 3, 3)
        entries = graph_entries(stack)
        full = stack.matching((1, 2, 3), (1, 2, 3))
        (j1, i1), (j2, i2) = full.edges[0], full.edges[1]
        key = (tuple(sorted((j1, j2))), tuple(sorted((i1, i2))))
        entries[key] = graph(3, 3, [(j1, i2), (j2, i1)])
        broken = MatchingStack(3, 3, mask_table(entries))
        report = validate_ensemble(broken)
        assert report.support_ok
        assert not report.closure_ok
        # the full matching is the first pair with a reassigned submatching
        assert report.witness == ("closure", (1, 2, 3), (1, 2, 3), key)

    def test_closure_witness_is_the_first_of_the_scan(self):
        # two 2-submatchings of the full 3-matching reassigned: deleting the
        # lowest edge first reaches {e2, e3}, but the (size, combination)
        # scan reaches {e1, e3} first, and that is the witness
        t = staircase_triangulation(3, 3)
        stack = stack_from_trees(t.sorted_trees(), 3, 3)
        entries = graph_entries(stack)
        e1, e2, e3 = stack.matching((1, 2, 3), (1, 2, 3)).edges
        keys = []
        for (j1, i1), (j2, i2) in [(e1, e3), (e2, e3)]:
            key = (tuple(sorted((j1, j2))), tuple(sorted((i1, i2))))
            entries[key] = graph(3, 3, [(j1, i2), (j2, i1)])
            keys.append(key)
        broken = MatchingStack(3, 3, mask_table(entries))
        report = validate_ensemble(broken)
        assert report == validate_ensemble_by_layer_fields(broken)
        assert report.witness == ("closure", (1, 2, 3), (1, 2, 3), keys[0])

    def test_non_linkage_layer(self, field_43):
        # stack whose full layer is the compatible-but-not-linkage field
        report = validate_ensemble(extend(field_43))
        assert not report.left_linkage_ok

    def test_support_violation(self):
        stack = MatchingStack(2, 2, mask_table({((1,), (1,)): graph(2, 2, [(1, 2)])}))
        report = validate_ensemble(stack)
        assert not report.support_ok

    def test_missing_pair_is_the_support_witness(self):
        # the first pair without a matching is named; closure and both
        # linkage axioms go unchecked and are reported false
        empty = graph(2, 2, [])
        for entries, missing in [({}, ((), ())), ({((), ()): empty}, ((1,), (1,)))]:
            report = validate_ensemble(MatchingStack(2, 2, mask_table(entries)))
            assert report.witness == ("support",) + missing
            assert not (report.support_ok or report.closure_ok)
            assert not (report.left_linkage_ok or report.right_linkage_ok)

    def test_missing_pair_raises_and_stores_nothing(self):
        stack = MatchingStack(2, 2, {(0, 0): 0})
        with pytest.raises(MatchfieldError, match=r"no matching assigned to \(\(1,\), \(2,\)\)"):
            stack.matching((1,), (2,))
        assert list(stack.mask_table) == [(0, 0)]


class TestRightLinkage:
    def test_transposed_left_linkage_agrees_with_the_layers(self, square_stack, stack_42):
        # verdict and witness (J, tau) of the fixed-J layers, on ensembles of
        # staircases and on random stacks
        ensembles = [square_stack, stack_42] + [
            stack_from_trees(staircase_triangulation(n, d).sorted_trees(), n, d)
            for n, d in [(3, 3), (2, 3), (3, 2), (2, 4)]
        ]
        randoms = [
            random_stack(n, d, 10 * n + d + seed)
            for n, d in [(3, 3), (2, 3), (3, 2), (2, 4), (4, 3)]
            for seed in range(4)
        ]
        verdicts = []
        for stack in ensembles + randoms:
            expected = stack_right_linkage(stack)
            assert stack_left_linkage(_transpose(stack)) == expected
            report = validate_ensemble(stack)
            assert report.right_linkage_ok == expected[0]
            if report.left_linkage_ok and report.closure_ok and not expected[0]:
                assert report.witness == ("right-linkage",) + expected[1]
            verdicts.append(expected[0])
        assert all(verdicts[: len(ensembles)])
        assert False in verdicts

    def test_degenerate_stack_is_right_linkage(self):
        stack = MatchingStack(0, 2, {(0, 0): 0})
        report = validate_ensemble(stack)
        assert report.ok and stack_right_linkage(stack) == (True, None)


def ensemble_oracle_cases():
    """Stacks on which validate_ensemble meets its layer-field oracle:
    relabelled staircase ensembles, extensions of seeded coherent fields
    (weight-minimal and lexicographic), seeded random stacks, ensembles with
    one entry replaced by another matching on its pair, ensembles with
    one entry dropped or off its pair."""
    rng = random.Random(2019)
    sizes = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (4, 3), (3, 4)]
    ensembles = []
    for n, d in sizes:
        for _ in range(3):
            left, right = rng.sample(range(1, n + 1), n), rng.sample(range(1, d + 1), d)
            ensembles.append(stack_from_trees(
                staircase_triangulation(n, d, left, right).sorted_trees(), n, d))
    extended = []
    for n, d in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3)]:
        for seed in range(3):
            field, weights, _ = randgen.seeded_coherent_field(n, d, seed)
            extended += [extend(field, weights), extend(field)]
    randoms = [random_stack(n, d, 100 * n + 10 * d + seed) for n, d in sizes for seed in range(8)]
    perturbed = []
    for _ in range(300):
        stack = rng.choice(ensembles + extended)
        entries = graph_entries(stack)
        J, I = rng.choice(sorted(key for key in entries if len(key[0]) >= 2))
        old = entries[(J, I)]
        perm = rng.choice([p for p in itertools.permutations(I) if graph(stack.n, stack.d, zip(J, p)) != old])
        entries[(J, I)] = graph(stack.n, stack.d, list(zip(J, perm)))
        perturbed.append(MatchingStack(stack.n, stack.d, mask_table(entries)))
    unsupported = []
    for stack in ensembles[::4]:
        entries = graph_entries(stack)
        key = rng.choice(sorted(entries))
        del entries[key]
        unsupported.append(MatchingStack(stack.n, stack.d, mask_table(entries)))
        entries[key] = graph(stack.n, stack.d, [(1, 1)])
        unsupported.append(MatchingStack(stack.n, stack.d, mask_table(entries)))
    return ensembles + extended + randoms + perturbed + unsupported


class TestEnsembleByEdgeCounts:
    def test_reports_match_the_layer_field_oracle(self):
        cases = ensemble_oracle_cases()
        outcomes = set()
        for stack in cases:
            report = validate_ensemble(stack)
            assert report == validate_ensemble_by_layer_fields(stack)
            outcomes.add(report.witness[0] if report.witness else "ok")
        assert len(cases) >= 400
        assert outcomes == {"ok", "support", "closure", "left-linkage", "right-linkage"}


class TestCompletion:
    def test_one_two_stack(self):
        entries = {
            ((), ()): graph(1, 2, []),
            ((1,), (1,)): graph(1, 2, [(1, 1)]),
            ((1,), (2,)): graph(1, 2, [(1, 2)]),
        }
        field = completion(MatchingStack(1, 2, mask_table(entries)))
        assert field.matching((1, 2)).edges == ((1, 2), (2, 1))
        assert field.matching((1, 3)).edges == ((1, 1), (3, 2))
        assert field.matching((2, 3)).edges == ((2, 1), (3, 2))
        assert is_linkage(field).ok

    def test_empty_stack(self):
        stack = MatchingStack(0, 2, {(0, 0): 0})
        field = completion(stack)
        assert field.matching((1, 2)).edges == ((1, 1), (2, 2))

    def test_triangulation_stack_completion_is_linkage(self, square_stack):
        field = completion(square_stack)
        assert (field.n, field.d) == (4, 2)
        assert is_linkage(field).ok

    def test_linkage_agreement_on_derived(self, square_stack, stack_42):
        for stack in (square_stack, stack_42):
            assert completion_linkage_check(stack) == (True, True)

    def test_linkage_agreement_trivial_stack(self):
        stack = MatchingStack(0, 2, {(0, 0): 0})
        assert completion_linkage_check(stack) == (True, True)

    def test_linkage_agreement_on_perturbed(self, stack_42):
        base = graph_entries(stack_42)
        seen_false = 0
        for key in [k for k in base if len(k[0]) == 2 and k[1] == (1, 2)]:
            J, I = key
            for perm in itertools.permutations(I):
                cand = BipartiteGraph(4, 2, list(zip(J, perm)))
                if cand == base[key]:
                    continue
                entries = dict(base)
                entries[key] = cand
                res = completion_linkage_check(MatchingStack(4, 2, mask_table(entries)))
                assert res[0] == res[1]
                seen_false += res == (False, False)
        assert seen_false > 0


class TestExtendExtract:
    def test_round_trip_lexicographic(self, field_42):
        stack = extend(field_42)
        assert extraction(stack) == field_42

    def test_round_trip_weights(self):
        weights = [(0, 1), (0, 0), (1, 0)]
        from matchfield import coherent_field

        field = coherent_field(weights)
        stack = extend(field, weights=weights)
        assert extraction(stack) == field
        # sampled closure: the weight-minimal submatchings nest
        report = validate_ensemble(stack)
        assert report.closure_ok

    @pytest.mark.parametrize(
        "weights, shape",
        [
            ([[0, 1], [2]], "[2, 1]"),
            ([[0, 1], [0, 0], [1]], "[2, 2, 1]"),
            ([[0, 1], [0, 0]], "[2, 2]"),
            ([[0, 1, 2], [0, 0, 1], [1, 0, 2]], "[3, 3, 3]"),
            ([1, 2, 3], "[None, None, None]"),
        ],
        ids=["ragged", "short-row", "too-few-rows", "too-many-columns", "rows-with-no-length"],
    )
    def test_weights_of_the_wrong_shape(self, weights, shape):
        from matchfield import coherent_field

        field = coherent_field([(0, 1), (0, 0), (1, 0)])
        with pytest.raises(MatchfieldError) as err:
            extend(field, weights=weights)
        assert str(err.value) == f"weights with row lengths {shape} are not a 3 x 2 matrix"

    @BAD_WEIGHTS
    def test_an_entry_that_is_no_finite_rational_is_named(self, bad):
        field = coherent_field([(0, 1), (0, 0), (1, 0)])
        with pytest.raises(MatchfieldError) as err:
            extend(field, weights=[[0, 1], [bad, 0], [1, 0]])
        assert type(err.value) is MatchfieldError
        assert str(err.value) == f"weight at row 2, column 1 is {bad!r}, not a finite rational"

    def test_every_accepted_kind_reads_as_its_fraction(self):
        weights = [[True, "1/3"], [Fraction(1, 2), 0.25], [2, "-1.5"]]
        field = coherent_field(weights)
        assert extend(field, weights) == extend(field, [[Fraction(x) for x in row] for row in weights])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_positive_scaling_and_column_shifts_keep_every_pair(self, data):
        # every pair (J, I) takes the same matching, or the same tie
        n = data.draw(st.integers(1, 5))
        d = data.draw(st.integers(1, min(n, 3)))
        field, _, _ = randgen.seeded_coherent_field(n, d, 10 * n + d)
        row = st.lists(RATIONAL_WEIGHTS, min_size=d, max_size=d)
        weights = data.draw(st.lists(row, min_size=n, max_size=n))
        c = data.draw(st.builds(Fraction, st.integers(1, 30), st.integers(1, 12)))
        shift = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
        shifts = data.draw(st.lists(shift, min_size=d, max_size=d))

        def outcome(w):
            try:
                return extend(field, w).mask_table
            except TiedMinimumError as exc:
                return exc.sigma, exc.first, exc.second

        assert outcome(rescaled(weights, c, shifts)) == outcome(weights)

    def test_stacks_differing_in_one_entry_are_unequal(self, field_42):
        stack = extend(field_42)
        assert stack == extend(field_42)
        entries = dict(stack.mask_table)
        entries[(0b11, 0b11)] = graph(4, 2, [(1, 2), (2, 1)]).mask
        assert stack != MatchingStack(4, 2, entries)
        del entries[(0b11, 0b11)]
        assert stack != MatchingStack(4, 2, entries)
        assert stack != MatchingStack(4, 3, stack.mask_table)

    def test_lexicographic_bytes(self, field_42):
        assert core.canonical_json(stack_to_json_dict(extend(field_42))) == (
            '{"d":2,"matchings":{"J:1,2|I:1,2":[[1,1],[2,2]],"J:1,3|I:1,2":[[1,1],[3,2]],'
            '"J:1,4|I:1,2":[[1,1],[4,2]],"J:1|I:1":[[1,1]],"J:1|I:2":[[1,2]],'
            '"J:2,3|I:1,2":[[2,1],[3,2]],"J:2,4|I:1,2":[[2,2],[4,1]],"J:2|I:1":[[2,1]],'
            '"J:2|I:2":[[2,2]],"J:3,4|I:1,2":[[3,2],[4,1]],"J:3|I:1":[[3,1]],'
            '"J:3|I:2":[[3,2]],"J:4|I:1":[[4,1]],"J:4|I:2":[[4,2]],"J:|I:":[]},"n":4}\n'
        )

    def test_from_weights_bytes(self):
        from matchfield import coherent_field

        weights = [(0, 1), (0, 0), (1, 0)]
        stack = extend(coherent_field(weights), weights=weights)
        assert core.canonical_json(stack_to_json_dict(stack)) == (
            '{"d":2,"matchings":{"J:1,2|I:1,2":[[1,1],[2,2]],"J:1,3|I:1,2":[[1,1],[3,2]],'
            '"J:1|I:1":[[1,1]],"J:1|I:2":[[1,2]],"J:2,3|I:1,2":[[2,1],[3,2]],'
            '"J:2|I:1":[[2,1]],"J:2|I:2":[[2,2]],"J:3|I:1":[[3,1]],"J:3|I:2":[[3,2]],'
            '"J:|I:":[]},"n":3}\n'
        )
        # at d = 3 the weight-minimal 2-matchings differ from lexicographic-min
        field, weights, _ = randgen.seeded_coherent_field(4, 3, 1)
        text = core.canonical_json(stack_to_json_dict(extend(field, weights=weights)))
        assert text != core.canonical_json(stack_to_json_dict(extend(field)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "825e93166dec176158d9eddbd357121e7406b0f84db43462a5409f0b91f36546"
        )

    def test_size_cap(self, field_42, monkeypatch):
        # C(4 + 2, 2) = 15 pairs
        monkeypatch.setattr(stacks_mod, "EXTEND_MAX_PAIRS", 15)
        assert len(extend(field_42).mask_table) == 15
        monkeypatch.setattr(stacks_mod, "EXTEND_MAX_PAIRS", 14)
        with pytest.raises(SizeCapError) as err:
            extend(field_42, weights=[[0]])
        assert str(err.value) == "extending a (4, 2) field fills 15 pairs, over the cap of 14"

    def test_size_cap_default(self):
        field, _, _ = randgen.seeded_coherent_field(10, 7, 0)  # C(17, 7) = 19,448 pairs
        with pytest.raises(SizeCapError, match=f"over the cap of {stacks_mod.EXTEND_MAX_PAIRS}"):
            extend(field)

    def test_extraction_matches_triangulation_field(self, stack_42):
        from matchfield import extract_field

        t = staircase_triangulation(4, 2)
        assert extraction(stack_42) == extract_field(t)


class TestMatroids:
    def test_tope_is_partition_matroid(self):
        tope = graph(4, 2, [(1, 1), (4, 1), (2, 2), (3, 2)])
        m = transversal_matroid(tope)
        expected = {
            tuple(sorted((a, b))) for a in (1, 4) for b in (2, 3)
        }
        assert m.bases == expected
        assert check_basis_exchange(m)

    def test_size_cap(self):
        cap = stacks_mod.TRANSVERSAL_MAX_LEFT
        assert transversal_matroid(graph(cap, 1, [(1, 1)])).rank == 1
        with pytest.raises(SizeCapError, match=f"n <= {cap}"):
            transversal_matroid(graph(cap + 1, 2, [(1, 1), (2, 2)]))

    def test_matching_matroid(self):
        m = transversal_matroid(graph(4, 2, [(1, 1), (2, 2)]))
        assert m.rank == 2 and m.bases == {(1, 2)}

    def test_covector_matroid_by_oracle(self):
        cov = graph(4, 2, [(1, 1), (2, 1), (4, 1), (2, 2), (3, 2)])
        m = transversal_matroid(cov)
        # brute force: pairs with a system of distinct right partners
        expected = set()
        for a, b in itertools.combinations(range(1, 5), 2):
            for i1 in cov.left_neighbors(a):
                for i2 in cov.left_neighbors(b):
                    if i1 != i2:
                        expected.add((a, b))
        assert m.bases == expected
        assert check_basis_exchange(m)

    @pytest.mark.parametrize(
        "n, d, edges",
        [
            (12, 12, None),
            (12, 64, None),
            (12, 6, None),
            (12, 12, [(j, 1) for j in range(1, 13)]),
        ],
        ids=["K12,12", "K12,64", "K12,6", "star-on-r1"],
    )
    def test_row_bitmask_search_at_the_cap_equals_the_augmenting_oracle(self, n, d, edges):
        # complete graphs of full rank, a complete graph with all C(12, 6)
        # subsets as bases, and a star whose rank search tests every subset
        # of every size above 1
        g = BipartiteGraph.from_mask(n, d, (1 << n * d) - 1) if edges is None else graph(n, d, edges)
        assert transversal_matroid(g) == transversal_matroid_by_augmenting(g)

    def test_stiefel_image_of_field(self, field_42):
        matroids = stiefel_image_of_field(field_42)
        assert len(matroids) == 2  # thickness-3 types (2,1) and (1,2)
        covs = maximal_tope_covectors(field_42)
        assert matroids == stiefel_image([covs[v] for v in sorted(covs)])

    def test_every_tope_gives_partition_matroid(self, field_42):
        from matchfield import tope_arrangement

        for _, tope in tope_arrangement(field_42).items():
            m = transversal_matroid(tope)
            sets = [tope.right_neighbors(i) for i in (1, 2)]
            expected = {
                tuple(sorted((a, b))) for a in sets[0] for b in sets[1] if a != b
            }
            assert m.bases == expected


class TestRightSubmatching:
    def test_reference_field_passes(self, field_42):
        assert right_submatching_check(field_42).ok

    def test_wide_field_fails_with_cycle(self, field_64):
        report = right_submatching_check(field_64)
        assert not report.ok
        J, I, kind, cycle = report.witness
        assert (J, I, kind) == ((5, 6), (1, 2, 3), "cycle")
        cycle_graph = graph(6, 4, cycle)
        assert all(deg in (0, 2) for deg in cycle_graph.left_degrees())

    def test_square_vacuous(self):
        f = field_from_words(2, 2, {(1, 2): "12"})
        assert right_submatching_check(f).ok

    @pytest.mark.parametrize("n, d, v", [(4, 2, (2, 1)), (5, 3, (2, 1, 1))])
    def test_a_tope_field_is_refused(self, n, d, v):
        tope_field = fields.tope_field_of_type(extract_field(staircase_triangulation(n, d)), v)
        with pytest.raises(MatchfieldError) as err:
            right_submatching_check(tope_field)
        assert str(err.value) == f"expected a matching field, not type {v}"

    def test_witness_names_the_lowest_incompatible_partner(self, monkeypatch, field_42):
        # no real field yet reaches a submatching with two incompatible
        # partners, so the kernel reports partners 1 and 3: the witness must
        # name the field matching at the lowest set bit
        monkeypatch.setattr(core, "incompatible_partners", lambda f, index, d: 0b1010)
        report = right_submatching_check(field_42)
        assert not report.ok and report.witness[2] == "incompatible"
        all_matchings = [m for _, m in field_42.items()]
        assert report.witness[3][1] == all_matchings[1] != all_matchings[3]

    def test_agrees_with_the_rescan_oracle(self, field_64):
        # coherent fields, seeded random fields and the failing (6,4) fixture:
        # verdict, witness and disagreement error are the oracle's
        def outcome(check, field):
            try:
                report = check(field)
            except MatchfieldError as exc:
                return ("error", str(exc))
            return ("ok",) if report.ok else ("witness", report.witness)

        cases = [
            randgen.seeded_coherent_field(n, d, seed)[0]
            for n, d in [(4, 2), (4, 3), (5, 3), (5, 4), (6, 3), (7, 3), (7, 4)]
            for seed in range(6)
        ]
        sizes = [(3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 3)]
        cases += [random_matching_field(*sizes[seed % 6], seed) for seed in range(300)]
        cases.append(field_64)
        kinds, witnesses = set(), set()
        for field in cases:
            expected = outcome(right_submatching_check_by_rescan, field)
            assert outcome(right_submatching_check, field) == expected
            kinds.add(expected[0])
            if expected[0] == "witness":
                witnesses.add(expected[1][2])
        assert kinds == {"ok", "witness", "error"}
        assert witnesses == {"cycle", "incompatible"}

    def test_agrees_with_the_rescan_oracle_on_agreeing_fields(self):
        # fields whose matchings mostly agree on their submatchings reach
        # every outcome: a pass, a cycle, an incompatible |J|-matching and a
        # disagreement; the table order, which picks the witness partner,
        # is shuffled
        def outcome(check, field):
            try:
                report = check(field)
            except MatchfieldError as exc:
                return "error", str(exc)
            return report.witness[2] if report.witness else "ok", repr(report)

        kinds = set()
        sizes = [(n, d) for n in range(2, 7) for d in range(2, 5) if d <= n]
        for seed in range(600):
            field = agreeing_field(*sizes[seed % len(sizes)], seed)
            expected = outcome(right_submatching_check_by_rescan, field)
            assert outcome(right_submatching_check, field) == expected
            kinds.add(expected[0])
        assert kinds == {"ok", "cycle", "incompatible", "error"}

    def test_accepting_field_makes_no_is_compatible_call(self, monkeypatch):
        calls = []
        real = core.is_compatible
        monkeypatch.setattr(core, "is_compatible", lambda a, b: calls.append(1) or real(a, b))
        field = randgen.seeded_coherent_field(6, 3, 1)[0]
        # the counter sees the calls of the rescan oracle
        assert right_submatching_check_by_rescan(field).ok and calls
        calls.clear()
        assert right_submatching_check(field).ok
        assert calls == []


class TestSerialization:
    def test_stack_round_trip(self, square_stack):
        data = stack_to_json_dict(square_stack)
        assert "J:1|I:1" in data["matchings"] or "J:1|I:2" in data["matchings"]
        rebuilt = stack_from_json_dict(data)
        assert rebuilt == square_stack

    def test_matroid_dict(self):
        m = transversal_matroid(graph(4, 2, [(1, 1), (2, 2)]))
        assert m.as_dict() == {"ground": 4, "rank": 2, "bases": [[1, 2]]}
