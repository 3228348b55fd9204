"""Fields: validation, linkage, coherence, amalgamation, arrangements, axioms."""

import itertools
import random
import re
import time
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from matchfield import (
    InconsistentCollectionError,
    MatchfieldError,
    MissingSubsetError,
    NotAMatchingError,
    NotLinkageError,
    SizeCapError,
    TiedMinimumError,
    WrongSupportError,
    chow_collection,
    coherent_field,
    field_from_arrangement,
    flip_graph,
    i_amalgamation,
    is_linkage,
    linkage_covector,
    maximal_cells,
    maximal_tope,
    reconstruct_chow_from_phi,
    simplex_lattice_points,
    subsets,
    tope_arrangement,
    trianguloid_check,
    validate_matching_field,
    validate_tope_field,
)
from matchfield import core, fields as fields_mod
from matchfield.core import BipartiteGraph, all_ones, is_compatible, vector_sum
from matchfield.fields import (
    _min_assignment,
    check_sector_monotonicity,
    extended_arrangement_by_stripping,
    field_from_json_dict,
    field_to_json_dict,
    maximal_tope_covectors,
    tope_field_of_type,
)
from matchfield.randgen import random_weight_matrix, seeded_coherent_field
from matchfield.stacks import stiefel_image_of_field

from conftest import (
    BAD_WEIGHTS,
    COVECTORS_42,
    FIELD_42_WORDS,
    RATIONAL_WEIGHTS,
    TOPES_42,
    TOPE_COVECTOR_42,
    field_from_words,
    graph,
    mask_table,
    matching_from_word,
    random_matching_field,
    rescaled,
)
from oracles import (
    arrangement_pair_by_scan,
    coherent_tope_field,
    collapse_split_graph,
    column_functions,
    every_linkage_field,
    field_from_json_dict_by_rows,
    i_amalgamation_by_cycles,
    increasing_splitting,
    is_linkage_by_cycles,
    is_spanning_tree_by_cycles,
    refuse_field_by_tuples,
    subfield_delete_left,
)


def is_linkage_pairwise(field):
    """Oracle for is_linkage: an independent formulation over pairs of
    d-subsets.

    For distinct sigma, sigma' there must be some j' in sigma' minus sigma
    such that swapping j' for the sigma-partner of its sigma'-partner changes
    the matching only at that right node.
    """
    sigmas = list(subsets(field.n, field.d))
    for sigma, sigma_p in permutations(sigmas, 2):
        m = field.matching(sigma)
        m_p = field.matching(sigma_p)
        found = False
        for j_p in sigma_p:
            if j_p in sigma:
                continue
            (i,) = m_p.left_neighbors(j_p)
            (j,) = m.right_neighbors(i)
            swapped = tuple(sorted(set(sigma) - {j} | {j_p}))
            m_s = field.matching(swapped)
            if m_s.difference(m).right_support() == (i,) and m.difference(
                m_s
            ).right_support() == (i,):
                found = True
                break
        if not found:
            return False
    return True


def arrangement_by_amalgamation(field):
    """Oracle for tope_arrangement: every maximal tope from the chain of
    i-amalgamations, reusing the canonical-order prefix chain."""
    n, d = field.n, field.d
    ones = all_ones(d)
    cache = {ones: field}

    def field_for(target):
        if target in cache:
            return cache[target]
        for i in range(d, 0, -1):
            if target[i - 1] > 1:
                prev = list(target)
                prev[i - 1] -= 1
                step = i
                break
        tf = i_amalgamation(field_for(tuple(prev)), step)
        cache[target] = tf
        return tf

    topes = {}
    for point in simplex_lattice_points(n - d, d):
        topes[point] = field_for(vector_sum(point, ones)).tope(range(1, n + 1))
    return fields_mod.TopeArrangement(n, d, mask_table(topes))


def covectors_by_amalgamation(field):
    """Oracle for maximal_tope_covectors: the linkage covector on [n] of the
    amalgamated tope field of every positive type of sum n - 1."""
    n, d = field.n, field.d
    out = {}
    if n - 1 < d:
        return out
    for point in simplex_lattice_points(n - 1 - d, d):
        v = vector_sum(point, all_ones(d))
        res = linkage_covector(tope_field_of_type(field, v), range(1, n + 1))
        if not res.ok:
            raise NotLinkageError(res.tau, res.cycle)
        out[v] = res.graph
    return out


def coherent_field_by_permutations(weights):
    """Oracle for coherent_field: all d! bijections on each d-subset, the
    route before the subset DP."""
    n = len(weights)
    d = len(weights[0])
    weights = [[Fraction(x) for x in row] for row in weights]
    assignment = {}
    columns = tuple(range(1, d + 1))
    for sigma in core.subsets(n, d):
        best, tied = _min_assignment(sigma, weights, columns)
        if tied is not None:
            first = BipartiteGraph(n, d, list(zip(sigma, best)))
            second = BipartiteGraph(n, d, list(zip(sigma, tied)))
            raise TiedMinimumError(sigma, first, second)
        assignment[sigma] = BipartiteGraph(n, d, list(zip(sigma, best)))
    return fields_mod.MatchingField(n, d, core.graph_masks(n, d, assignment))


def coherent_outcome(route, weights):
    """The field of a route, or the message, subset and both witnesses of
    its tie."""
    try:
        return route(weights)
    except TiedMinimumError as exc:
        return str(exc), exc.sigma, exc.first, exc.second


def outcome(route, field):
    """The result of a route, or the type, message and cycle of its error."""
    try:
        return route(field)
    except MatchfieldError as exc:
        return type(exc), str(exc), getattr(exc, "cycle", None)


def refusal(route, *args):
    """The type and text of the MatchfieldError a route raises, or None."""
    try:
        route(*args)
    except MatchfieldError as exc:
        return type(exc), str(exc)
    return None


FAULTS = ["none", "drop", "tuple", "beyond", "both", "off-grid", "row-twice", "shift", "sum",
          "n=65"]


@st.composite
def mutated_field_tables(draw):
    """(n, d, v, table) of a coherent field on (n, d) <= (6, 3), or a tope
    field amalgamated from it, as it is or with one fault: an entry dropped,
    a tuple key, a key with a member above n or both added, a bit moved off
    the grid, a second edge in a row, the support shifted, sum(v) > n, n = 65."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, 6))
    field = seeded_coherent_field(n, d, draw(st.integers(0, 10**6)))[0]
    for i in draw(st.lists(st.integers(1, d), max_size=n - d)):
        field = i_amalgamation(field, i)
    v, table = field.type_vector, dict(field.mask_table)
    key = draw(st.sampled_from(sorted(table)))
    mask, sigma = table[key], core.mask_subset(key)
    b = draw(st.sampled_from(list(core._bits(mask))))
    fault = draw(st.sampled_from(FAULTS))
    if fault == "drop":
        del table[key]
    elif fault in ("tuple", "beyond", "both"):
        if fault != "beyond":  # a member twice: no spelling of a subset
            table[sigma + sigma[:1]] = mask
        if fault != "tuple":  # the top member moved to n + 1
            table[key ^ 1 << (key.bit_length() - 1) | 1 << n] = mask
    elif fault == "off-grid":
        table[key] = mask ^ 1 << b | 1 << (n * d + draw(st.integers(0, 5)))
    elif fault == "row-twice":
        other = draw(st.sampled_from([i for i in range(d) if i != b % d] or [None]))
        table[key] = mask if other is None else mask | 1 << (b // d * d + other)
    elif fault == "shift":  # the edge of a member moved to a row outside the key
        row = draw(st.sampled_from([j for j in range(n) if not key >> j & 1] or [None]))
        table[key] = mask if row is None else mask ^ 1 << b | 1 << (row * d + b % d)
    elif fault == "sum":
        v = (v[0] + n - sum(v) + 1, *v[1:])
    elif fault == "n=65":
        n = 65
    return n, d, v, table


# the public entry points that read an unchecked field's table
UNCHECKED_ENTRY_POINTS = {
    "is_linkage": is_linkage,
    "require_linkage": fields_mod.require_linkage,
    "i_amalgamation": lambda field: i_amalgamation(field, 1),
    "tope_arrangement": tope_arrangement,
    "maximal_cells": maximal_cells,
    "chow_collection": chow_collection,
    "stiefel_image_of_field": stiefel_image_of_field,
    "flip_graph": flip_graph,
}


class TestValidation:
    def test_reference_field_valid(self, field_42):
        assert field_42.n == 4 and field_42.d == 2
        assert field_42.matching((2, 4)).edges == ((2, 2), (4, 1))

    def test_missing_subset(self):
        words = dict(FIELD_42_WORDS)
        del words[(3, 4)]
        with pytest.raises(MissingSubsetError) as err:
            field_from_words(4, 2, words)
        assert err.value.sigma == (3, 4)

    def test_not_a_matching(self):
        bad = {s: matching_from_word(4, 2, w) for s, w in FIELD_42_WORDS.items()}
        bad[(1, 2)] = graph(4, 2, [(1, 1), (2, 1)])
        with pytest.raises(NotAMatchingError):
            validate_matching_field(4, 2, bad)

    def test_wrong_support(self):
        bad = {s: matching_from_word(4, 2, w) for s, w in FIELD_42_WORDS.items()}
        bad[(1, 2)] = matching_from_word(4, 2, "13")
        with pytest.raises(MatchfieldError):
            validate_matching_field(4, 2, bad)

    def test_more_columns_than_left_nodes(self):
        # a (2, 3) matching field would need 3-subsets of [2]
        with pytest.raises(MatchfieldError) as err:
            validate_matching_field(2, 3, {})
        assert str(err.value) == "invalid type vector (1, 1, 1) for (2, 3): its sum 3 exceeds n = 2"
        with pytest.raises(MatchfieldError, match=r"for \(4, 2\): its sum 5 exceeds n = 4"):
            validate_tope_field(4, 2, (3, 2), {})

    def test_tope_field_valid(self, tope_field_42):
        got = validate_tope_field(4, 2, (2, 1), dict(tope_field_42.items()))
        assert got == tope_field_42

    def test_matching_field_messages(self):
        good = {s: matching_from_word(4, 2, w) for s, w in FIELD_42_WORDS.items()}
        cases = [
            ({(1, 2): good[(1, 2)]}, "no entry for subset (1, 3)"),
            ({**good, (1, 2): graph(4, 2, [(1, 1), (2, 1)])},
             "value for (1, 2) is not a perfect matching"),
            ({**good, (1, 2): graph(5, 2, [(1, 1), (2, 2)])},
             "graph for (1, 2) has wrong ambient size"),
            ({**good, (1, 2): matching_from_word(4, 2, "13")},
             "value for (1, 2) has left support (1, 3)"),
            ({**good, (1, 2, 3): graph(4, 2, [(1, 1), (2, 2)])},
             "value for (1, 2, 3) has left support None"),
        ]
        for assignment, message in cases:
            with pytest.raises(MatchfieldError) as err:
                validate_matching_field(4, 2, assignment)
            assert str(err.value) == message

    def test_tope_field_checked_like_a_matching_field(self, tope_field_42):
        # the extra key and the ambient size were not checked for tope fields
        good = dict(tope_field_42.items())
        with pytest.raises(WrongSupportError) as err:
            validate_tope_field(4, 2, (2, 1), {**good, (1, 2): graph(4, 2, [(1, 1), (2, 2)])})
        assert err.value.sigma == (1, 2)
        wide = {**good, (1, 2, 3): graph(5, 2, [(1, 1), (2, 1), (3, 2)])}
        with pytest.raises(NotAMatchingError, match="wrong ambient size"):
            validate_tope_field(4, 2, (2, 1), wide)
        with pytest.raises(NotAMatchingError, match="not a tope of type"):
            validate_tope_field(4, 2, (1, 2), good)

    @pytest.mark.parametrize("v", [(2,), (0, 3), (3, 2)])
    def test_invalid_type_vector(self, tope_field_42, v):
        with pytest.raises(MatchfieldError, match="invalid type vector"):
            validate_tope_field(4, 2, v, dict(tope_field_42.items()))

    def test_all_ones_type_gives_a_matching_field(self, field_42):
        got = validate_tope_field(4, 2, (1, 1), dict(field_42.items()))
        assert isinstance(got, fields_mod.MatchingField) and got == field_42

    @pytest.mark.parametrize("n, d", [(10**9, 10**9), (3, 10**9)])
    def test_huge_sides_are_refused_before_the_type_vector(self, n, d):
        # an empty table checks no edge, so the sides are checked before
        # all_ones(d) would build d ones
        message = f"node counts ({n}, {d}) outside [0, 64]"
        start = time.perf_counter()
        with pytest.raises(SizeCapError) as err:
            field_from_json_dict({"n": n, "d": d, "matchings": {}})
        assert str(err.value) == message
        for validate in (lambda: validate_matching_field(n, d, {}),
                         lambda: validate_tope_field(n, d, (1,), {}),
                         lambda: fields_mod.MatchingField(n, d, {})):
            with pytest.raises(SizeCapError, match=re.escape(message)):
                validate()
        assert time.perf_counter() - start < 0.05

    @settings(max_examples=300, deadline=None)
    @given(mutated_field_tables())
    def test_one_scan_refuses_as_the_tuple_scan(self, case):
        # holds_type and the validator's refusal against the scan over the
        # table with its keys turned into tuples
        n, d, v, table = case
        expected = refusal(refuse_field_by_tuples, n, d, v, table)
        # the hold refuses a table out of range: a key with the validator's
        # fault, a mask with the one grid text, a side over the cap by itself
        held = refusal(fields_mod.TopeField, n, d, v, table)
        assert held in (None, expected, (MatchfieldError, f"mask has bits outside the {n}x{d} grid"),
                        (SizeCapError, f"node counts ({n}, {d}) outside [0, 64]"))
        if held is None:
            assert fields_mod.TopeField(n, d, v, table).holds_type == (expected is None)
        else:
            assert expected is not None
        assert refusal(fields_mod.field_from_masks, n, d, v, table) == expected

    @pytest.mark.parametrize("entry", UNCHECKED_ENTRY_POINTS.values(),
                             ids=UNCHECKED_ENTRY_POINTS.keys())
    def test_an_unchecked_field_that_lacks_a_subset_is_refused(self, field_42, entry):
        table = dict(field_42.mask_table)
        del table[0b11]
        with pytest.raises(MissingSubsetError) as err:
            entry(fields_mod.MatchingField(4, 2, table))
        assert str(err.value) == "no entry for subset (1, 2)"

    def test_a_negative_key_is_named_by_itself(self, field_42):
        # its bits never end, so it is no subset to list
        table = {**field_42.mask_table, -1: 0}
        for build in (lambda: fields_mod.MatchingField(4, 2, table),
                      lambda: fields_mod.field_from_masks(4, 2, (1, 1), table)):
            with pytest.raises(WrongSupportError) as err:
                build()
            assert str(err.value) == "value for (-1,) has left support None"

    def test_flip_graph_refuses_an_extra_tuple_key(self, field_42):
        table = {**field_42.mask_table, (2, 1): field_42.mask_table[0b11]}
        with pytest.raises(WrongSupportError) as err:
            flip_graph(fields_mod.MatchingField(4, 2, table))
        assert str(err.value) == "value for (2, 1) has left support None"

    @pytest.mark.parametrize("extra, named", [
        ([("a", "b")], ("a", "b")),
        ([(1.5, 2)], (1.5, 2)),
        # members that cannot be compared: the key is named by its repr
        ([("a", "b"), (1.5, 2)], ("a", "b")),
        ([("a", "b"), (2, 9)], (2, 9)),
    ])
    def test_a_key_with_a_member_that_is_no_int_is_named(self, field_42, extra, named):
        # core.subset_bits keeps such a subset as its tuple, which no
        # validator accepts; naming the least extra key compares no members
        # of different types
        assert core.subset_bits(extra[0], 4) == extra[0]
        good = dict(field_42.items())
        assignment = {**good, **{key: graph(4, 2, [(1, 1), (2, 2)]) for key in extra}}
        for validate in (lambda: validate_matching_field(4, 2, assignment),
                         lambda: validate_tope_field(4, 2, (1, 1), assignment)):
            with pytest.raises(WrongSupportError) as err:
                validate()
            assert err.value.sigma == named
        with pytest.raises(MissingSubsetError) as err:
            field_42.tope(("a", "b"))
        assert err.value.sigma == ("a", "b")

    def test_a_view_names_a_key_its_table_lacks(self, field_42):
        # a subset the field lacks, or one whose members do not compare, a
        # point off the lattice, a pair of members that do not compare and
        # a key with a list member, which cannot be hashed, are each refused
        # with an error naming the key asked for
        from matchfield.stacks import stack_from_trees
        from matchfield.triang import extended_tope_arrangement, staircase_triangulation

        for sigma, named in [(("a", 1), ("a", 1)), ((1, 9), (1, 9)), ((True, 2), (True, 2)),
                             (iter([5, 1]), (5, 1)), (([1], 2), ([1], 2))]:
            with pytest.raises(MissingSubsetError) as err:
                field_42.matching(sigma)
            assert err.value.sigma == named
        t = staircase_triangulation(4, 2)
        views = [
            (lambda: tope_arrangement(field_42).tope((9, 9, 9)), "no tope at (9, 9, 9)"),
            (lambda: extended_tope_arrangement(t).graph((5, 5)), "no graph at (5, 5)"),
            (lambda: stack_from_trees(t.sorted_trees(), 4, 2).matching(("a", 1), (1, 2)),
             "no matching assigned to (('a', 1), (1, 2))"),
            (lambda: tope_arrangement(field_42).tope(([1], 1, 0)), "no tope at ([1], 1, 0)"),
            (lambda: extended_tope_arrangement(t).graph(([1], 3)), "no graph at ([1], 3)"),
            (lambda: stack_from_trees(t.sorted_trees(), 4, 2).matching(([1],), (1,)),
             "no matching assigned to (([1],), (1,))"),
        ]
        for view, message in views:
            with pytest.raises(MatchfieldError) as err:
                view()
            assert str(err.value) == message
        assert field_42.matching([2, 1]) == field_42.matching((1, 2))


class TestLinkage:
    def test_one_mask_table_per_field(self, field_63, monkeypatch):
        # the table the reader parses is the field, held without the row
        # pass of the validator, and the linkage test, the Chow pass and the
        # arrangement read that very object without ever building the graphs
        read = []

        def spy(name):
            real = getattr(fields_mod, name)

            def reading(*args):
                read.append((name, next(a for a in args if isinstance(a, dict))))
                return real(*args)

            monkeypatch.setattr(fields_mod, name, reading)

        for name in ("field_from_masks", "_held", "covector_mask", "chow_masks"):
            spy(name)
        field = field_from_json_dict(field_to_json_dict(field_63))
        (name, table), = read
        assert name == "_held" and field.mask_table is table
        assert table == {core.subset_mask(sigma): m.mask for sigma, m in field_63.items()}
        fields_mod.require_linkage(field)
        tope_arrangement(field)
        assert {name for name, _ in read} == {"_held", "covector_mask", "chow_masks"}
        assert all(t is table for _, t in read)
        assert field.mask_table is table
        assert "assignment" not in vars(field)

    def test_covectors_match_reference(self, field_42):
        for tau, expected in COVECTORS_42.items():
            res = linkage_covector(field_42, tau)
            assert res.ok
            assert set(res.graph.edges) == set(expected)

    def test_tope_covector(self, tope_field_42):
        res = linkage_covector(tope_field_42, (1, 2, 3, 4))
        assert res.ok
        assert set(res.graph.edges) == set(TOPE_COVECTOR_42)

    def test_non_linkage_field_has_cycle(self, field_43):
        res = linkage_covector(field_43, (1, 2, 3, 4))
        assert not res.ok and res.cycle is not None
        cycle_graph = graph(4, 3, res.cycle)
        assert cycle_graph.mask & ~res.graph.mask == 0

    def test_wrong_tau_size(self, field_43):
        with pytest.raises(MatchfieldError):
            linkage_covector(field_43, (1, 3, 4))

    @pytest.mark.parametrize("tau", [(1, 1, 2), (0, 1, 2), (1, 2, 5)])
    def test_tau_must_be_left_nodes(self, field_42, tau):
        # a repeated node would otherwise land on the covector of another
        # subset, and 0 or 5 name no left node of a (4,2) field
        with pytest.raises(MatchfieldError, match="distinct left nodes in 1..4"):
            linkage_covector(field_42, tau)

    def test_is_linkage(self, field_42, field_43, field_53):
        assert is_linkage(field_42).ok
        report = is_linkage(field_43)
        assert not report.ok
        assert [res.tau for res in report.failures] == [(1, 2, 3, 4)]
        assert is_linkage(field_53).ok

    def test_single_matching_field_vacuous(self):
        f = field_from_words(2, 2, {(1, 2): "12"})
        assert is_linkage(f).ok
        # no valid tau exists at maximal thickness
        with pytest.raises(MatchfieldError):
            linkage_covector(f, (1, 2))

    def test_pairwise_formulation_agrees(self, field_42, field_43, field_53, field_63):
        for field in (field_42, field_43, field_53, field_63):
            assert is_linkage_pairwise(field) == is_linkage(field).ok

    def test_weak_compatibility(self, field_42, field_43):
        # matchings of a linkage field are pairwise compatible; the converse
        # fails: the non-linkage field is still pairwise compatible
        for field in (field_42, field_43):
            items = [m for _, m in field.items()]
            for a in items:
                for b in items:
                    assert is_compatible(a, b)[0]


def amalgamated_tope_fields(field):
    """Every tope field reachable from a linkage field by i-amalgamations,
    up to thickness n - 1, keyed by type."""
    found = {field.type_vector: field}
    frontier = [field]
    while frontier:
        tf = frontier.pop()
        if tf.thickness + 1 >= tf.n:
            continue
        for i in range(1, tf.d + 1):
            nxt = i_amalgamation(tf, i)
            if nxt.type_vector not in found:
                found[nxt.type_vector] = nxt
                frontier.append(nxt)
    return [found[v] for v in sorted(found)]


def retyped_topes(tf, sigma):
    """Every tope of tf's type on sigma: maps sigma -> [d] hitting ri v_i times."""
    for f in itertools.product(range(1, tf.d + 1), repeat=len(sigma)):
        g = BipartiteGraph(tf.n, tf.d, list(zip(sigma, f)))
        if g.right_degrees() == tf.type_vector:
            yield g


@st.composite
def raw_tope_fields(draw):
    """Unvalidated tope fields: any graph on (n, d) for every k-subset, so
    unions may miss left nodes of tau or carry edges outside it."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, n - 1))
    masks = st.integers(0, (1 << (n * d)) - 1)
    assignment = {
        sigma: BipartiteGraph.from_mask(n, d, draw(masks)) for sigma in subsets(n, k)
    }
    return fields_mod.TopeField(n, d, (k,) + (0,) * (d - 1), core.graph_masks(n, d, assignment))


class TestLinkageAgainstCycles:
    """The edge-count test of is_linkage gives the reports of building every
    union as a graph and searching it for a cycle, failures included."""

    def test_differential_fields(self, differential_fields):
        verdicts = set()
        for field in differential_fields:
            report = is_linkage(field)
            assert report == is_linkage_by_cycles(field)
            verdicts.add(report.ok)
        assert verdicts == {True, False}

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (6, 3)]), st.integers(0, 1 << 32))
    def test_random_matching_fields(self, size, seed):
        field = random_matching_field(*size, seed)
        assert is_linkage(field) == is_linkage_by_cycles(field)

    @settings(max_examples=200, deadline=None)
    @given(raw_tope_fields())
    def test_raw_tope_fields(self, field):
        assert is_linkage(field) == is_linkage_by_cycles(field)

    def test_amalgamated_tope_fields(self, field_42, field_53, field_63, field_64):
        failing = 0
        for field in (field_42, field_53, field_63, field_64):
            for tf in amalgamated_tope_fields(field):
                assert is_linkage(tf) == is_linkage_by_cycles(tf)
                assert is_linkage(tf).ok
                # replace the tope on the first subset by each other tope
                sigma = min(tf.assignment)
                for g in retyped_topes(tf, sigma):
                    changed = validate_tope_field(
                        tf.n, tf.d, tf.type_vector, {**tf.assignment, sigma: g}
                    )
                    report = is_linkage(changed)
                    assert report == is_linkage_by_cycles(changed)
                    failing += not report.ok
        assert failing > 10

    def test_find_cycle_runs_once_per_failing_tau(self, monkeypatch, differential_fields):
        searched = []
        real = core.find_cycle
        monkeypatch.setattr(core, "find_cycle", lambda *args: searched.append(args) or real(*args))
        for field in differential_fields:
            searched.clear()
            report = is_linkage(field)
            assert searched == [(res.graph.mask, field.n, field.d) for res in report.failures]
            searched.clear()
            if report.ok:
                fields_mod.require_linkage(field)
            else:
                with pytest.raises(NotLinkageError) as err:
                    fields_mod.require_linkage(field)
                assert (err.value.tau, err.value.cycle) == (
                    report.failures[0].tau, report.failures[0].cycle)
            assert len(searched) == (not report.ok)


class TestLinkageByCount:
    """A field that holds its type carries the verdict of its one validating
    pass, so linkage is decided by the edge count of every covector."""

    @staticmethod
    def spy(monkeypatch, name):
        """A list that grows by one for every call of core.<name>."""
        calls, real = [], getattr(core, name)
        monkeypatch.setattr(core, name, lambda *a: calls.append(a) or real(*a))
        return calls

    def test_validated_fields_walk_no_rows(self, monkeypatch, differential_fields, field_43):
        verdicts = set()
        for field in (*differential_fields, field_43):
            validated = field_from_json_dict(field_to_json_dict(field))
            walked = self.spy(monkeypatch, "tree_tope")
            read = self.spy(monkeypatch, "read_rows")
            report = is_linkage(validated)
            if report.ok:
                fields_mod.require_linkage(validated)
            else:
                with pytest.raises(NotLinkageError):
                    fields_mod.require_linkage(validated)
            assert walked == [] and read == []
            assert report == is_linkage_by_cycles(field)
            verdicts.add(report.ok)
        assert verdicts == {True, False}

    def test_amalgamation_walks_each_covector_once(self, monkeypatch, differential_fields):
        # the covectors of a linkage field are trees, so one walk from ri
        # reads each tope and no graph or cycle is built
        linkage = [field for field in differential_fields if is_linkage(field).ok]
        assert len(linkage) >= 7
        for field in linkage:
            n, d = field.n, field.d
            validated = field_from_json_dict(field_to_json_dict(field))
            target = vector_sum(all_ones(d), max(simplex_lattice_points(n - d, d)))
            order = fields_mod.amalgamation_order(d, target, all_ones(d))
            walked = self.spy(monkeypatch, "tree_tope")
            others = [self.spy(monkeypatch, name) for name in ("contained_tope", "find_cycle")]
            covectors = []
            monkeypatch.setattr(fields_mod, "linkage_covector", lambda *a: covectors.append(a))
            assert tope_field_of_type(validated, target).type_vector == target
            assert [call[3] for call in walked] == [
                i for k, i in enumerate(order, start=d) for _ in range(comb(n, k + 1))]
            assert others == [[], []] and covectors == []
            monkeypatch.undo()

    def test_a_field_read_decides_its_type_while_it_parses(self, monkeypatch):
        # a valid (10,4) field reads no row again; a field that fails its
        # type still reaches the refusal of the validator, with its text
        field = seeded_coherent_field(10, 4, 1)[0]
        data = field_to_json_dict(field)
        read = self.spy(monkeypatch, "read_rows")
        refused = []
        refuse = fields_mod._field_fault
        monkeypatch.setattr(fields_mod, "_field_fault", lambda *a: refused.append(a) or refuse(*a))
        validated = field_from_json_dict(data)
        assert read == [] and refused == []
        assert validated == field and "holds_type" in vars(validated) and validated.holds_type
        edges = [[1, 1], [2, 2], [3, 3], [5, 3]]  # r3 twice, r4 never
        bad = {**data, "matchings": {**data["matchings"], "1,2,3,5": edges}}
        with pytest.raises(NotAMatchingError) as err:
            field_from_json_dict(bad)
        assert str(err.value) == "value for (1, 2, 3, 5) is not a perfect matching"
        (n, d, v, table), = refused
        assert table[0b10111] == graph(n, d, edges).mask
        with pytest.raises(NotAMatchingError) as expected:
            field_from_json_dict_by_rows(bad)
        assert str(err.value) == str(expected.value)

    def test_unchecked_field_checks_its_type_once(self, monkeypatch, field_43, field_63):
        for field in (field_43, field_63):
            twin = field_from_json_dict(field_to_json_dict(field))
            read = self.spy(monkeypatch, "read_rows")
            table = core.graph_masks(field.n, field.d, dict(field.items()))
            raw = fields_mod.MatchingField(field.n, field.d, table)
            assert [is_linkage(raw), is_linkage(raw)] == [is_linkage(twin)] * 2
            assert len(read) == len(raw.mask_table) and raw.holds_type

    def test_a_type_with_zeros_takes_the_cycle_search(self):
        # topes of type (2, 1, 0) that hold it, whose union over [4] has
        # k + d = 6 edges on the 6 nodes it meets: a cycle the count would
        # take for a tree, as r3 stays out of it
        edges = {(1, 2, 3): [(1, 2), (2, 1), (3, 1)], (1, 2, 4): [(1, 2), (2, 1), (4, 1)],
                 (1, 3, 4): [(1, 1), (3, 2), (4, 1)], (2, 3, 4): [(2, 1), (3, 2), (4, 1)]}
        table = core.graph_masks(4, 3, {s: graph(4, 3, e) for s, e in edges.items()})
        field = fields_mod.TopeField(4, 3, (2, 1, 0), table)
        assert field.holds_type
        report = is_linkage(field)
        assert report == is_linkage_by_cycles(field)
        assert [res.tau for res in report.failures] == [(1, 2, 3, 4)]

    def test_unions_run_through_the_subsets_in_order(self):
        for n in range(1, 11):
            for k in range(n + 1):
                table = dict.fromkeys(map(core.subset_mask, subsets(n, k)), 0)
                field = fields_mod.TopeField(n, 1, (k,), table)
                taus = [tau for tau, _ in fields_mod._covector_unions(field)]
                expected = [core.subset_mask(t) for t in subsets(n, k + 1)] if k < n else []
                assert taus == expected


class TestCoherent:
    WEIGHTS = [(0, 1), (0, 0), (1, 0)]

    def test_reference_weights(self):
        f = coherent_field(self.WEIGHTS)
        assert f.matching((1, 2)).edges == ((1, 1), (2, 2))
        assert f.matching((1, 3)).edges == ((1, 1), (3, 2))
        assert f.matching((2, 3)).edges == ((2, 1), (3, 2))

    def test_zero_matrix_ties(self):
        with pytest.raises(TiedMinimumError) as err:
            coherent_field([[0, 0], [0, 0], [0, 0]])
        assert err.value.first != err.value.second

    def test_square_generic(self):
        f = coherent_field([[0, 5], [3, 1]])
        assert f.matching((1, 2)).edges == ((1, 1), (2, 2))

    def test_exhaustive_minimum_oracle(self):
        from fractions import Fraction
        from itertools import permutations

        f = coherent_field(self.WEIGHTS)
        for sigma in subsets(3, 2):
            best = min(
                permutations((1, 2)),
                key=lambda p: sum(Fraction(self.WEIGHTS[j - 1][i - 1]) for j, i in zip(sigma, p)),
            )
            assert f.matching(sigma) == graph(3, 2, list(zip(sigma, best)))

    def test_tope_field_and_splitting(self):
        tf = coherent_tope_field(self.WEIGHTS, (2, 1))
        assert tf.tope((1, 2, 3)).edges == ((1, 1), (2, 1), (3, 2))
        split = increasing_splitting(tf)
        assert (split.n, split.d) == (3, 3)
        assert is_linkage(split).ok

    def test_tope_field_type_too_thick(self):
        with pytest.raises(MatchfieldError):
            coherent_tope_field(self.WEIGHTS, (2, 2))

    def test_single_column_tope(self):
        # d = 1: the only tope joins all of sigma to r1
        tf = coherent_tope_field([(0,), (1,), (2,)], (3,))
        assert tf.tope((1, 2, 3)).edges == ((1, 1), (2, 1), (3, 1))

    def test_dp_agrees_with_search_on_fixed_weights(self):
        # the reference weights, and the matrices behind the conftest seeds
        inputs = [self.WEIGHTS, [[0, 0], [0, 0], [0, 0]], [[0, 5], [3, 1]]]
        inputs += [
            random_weight_matrix(n, d, 100 * n + d)
            for n, d in [(4, 2), (5, 2), (5, 3), (6, 3), (7, 3), (6, 4), (8, 4)]
        ]
        for weights in inputs:
            got = coherent_outcome(coherent_field, weights)
            assert got == coherent_outcome(coherent_field_by_permutations, weights)

    @pytest.mark.parametrize(
        "n,d,seeds",
        [(3, 1, 2), (5, 2, 2), (7, 3, 2), (10, 3, 2), (6, 4, 2), (10, 4, 2),
         (5, 5, 2), (8, 5, 2), (10, 5, 1), (7, 6, 2), (10, 6, 1)],
    )
    def test_dp_agrees_with_search_on_seeded_weights(self, n, d, seeds):
        for seed in range(seeds):
            weights = random_weight_matrix(n, d, 7 * n + d + seed)
            assert coherent_field(weights) == coherent_field_by_permutations(weights)

    def test_dp_agrees_with_search_on_small_integer_weights(self):
        # entries in 0..3 tie often: same field, or same tie and witnesses
        rng = random.Random(2024)
        tied = 0
        for _ in range(400):
            n = rng.randint(1, 6)
            d = rng.randint(1, min(n, 4))
            weights = [[rng.randint(0, 3) for _ in range(d)] for _ in range(n)]
            got = coherent_outcome(coherent_field, weights)
            assert got == coherent_outcome(coherent_field_by_permutations, weights)
            tied += isinstance(got, tuple)
        assert 50 < tied < 350

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_dp_agrees_with_search_hypothesis(self, data):
        n = data.draw(st.integers(1, 6))
        d = data.draw(st.integers(1, min(n, 4)))
        row = st.lists(st.integers(0, 3), min_size=d, max_size=d)
        weights = data.draw(st.lists(row, min_size=n, max_size=n))
        got = coherent_outcome(coherent_field, weights)
        assert got == coherent_outcome(coherent_field_by_permutations, weights)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_dp_agrees_with_search_on_rational_weights(self, data):
        # Fractions, binary floats and ints mixed, n·d <= 24: the DP on the
        # scaled ints gives the Fraction search's field, or its tie and witnesses
        n = data.draw(st.integers(1, 8))
        d = data.draw(st.integers(1, min(n, 24 // n)))
        row = st.lists(RATIONAL_WEIGHTS, min_size=d, max_size=d)
        weights = data.draw(st.lists(row, min_size=n, max_size=n))
        got = coherent_outcome(coherent_field, weights)
        assert got == coherent_outcome(coherent_field_by_permutations, weights)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_positive_scaling_and_column_shifts_keep_the_outcome(self, data):
        n = data.draw(st.integers(1, 7))
        d = data.draw(st.integers(1, min(n, 4)))
        row = st.lists(RATIONAL_WEIGHTS, min_size=d, max_size=d)
        weights = data.draw(st.lists(row, min_size=n, max_size=n))
        c = data.draw(st.builds(Fraction, st.integers(1, 30), st.integers(1, 12)))
        shift = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
        shifts = data.draw(st.lists(shift, min_size=d, max_size=d))
        got = coherent_outcome(coherent_field, rescaled(weights, c, shifts))
        assert got == coherent_outcome(coherent_field, weights)

    def test_every_accepted_kind_reads_as_its_fraction(self):
        # bool, string, Fraction, float and int, scaled by lcm(3, 2, 4) = 12
        weights = [[True, "1/3"], [Fraction(1, 2), 0.25], [2, "-1.5"]]
        assert coherent_field(weights) == coherent_field(
            [[Fraction(x) for x in row] for row in weights])
        exact = fields_mod._integer_weights(weights)
        assert exact == [[12, 4], [6, 3], [24, -18]]
        assert {type(x) for row in exact for x in row} == {int}

    @BAD_WEIGHTS
    def test_an_entry_that_is_no_finite_rational_is_named(self, bad):
        with pytest.raises(MatchfieldError) as err:
            coherent_field([[0, 1], [bad, 2], [3, 4]])
        assert type(err.value) is MatchfieldError
        assert str(err.value) == f"weight at row 2, column 1 is {bad!r}, not a finite rational"

    def test_rows_with_no_length_are_refused_by_the_shape_check(self):
        with pytest.raises(MatchfieldError) as err:
            coherent_field([1, 2])
        assert type(err.value) is MatchfieldError
        assert str(err.value) == (
            "weights with row lengths [None, None] are not an n x d matrix with 1 <= d <= n"
        )

    def test_oversized_input_refused_before_any_work(self):
        # (40, 20) has 1.4e11 twenty-subsets; (30, 29) has only 30, but the
        # DP would visit every smaller subset, about 2^30 of them
        for n, d in [(40, 20), (30, 29)]:
            with pytest.raises(SizeCapError, match="over the cap"):
                coherent_field([[0] * d for _ in range(n)])
        assert sum(comb(14, k) for k in range(8)) <= fields_mod.COHERENT_MAX_SUBSETS

    @pytest.mark.parametrize(
        "weights, shape",
        [([[0, 1], [2]], "[2, 1]"), ([], "[]"), ([[0, 1, 2], [3, 4, 5]], "[3, 3]")],
        ids=["ragged", "empty", "fewer-rows-than-columns"],
    )
    def test_malformed_matrix_refused_before_any_work(self, monkeypatch, weights, shape):
        def no_work(*args):
            raise AssertionError("the DP ran")

        monkeypatch.setattr(fields_mod, "Fraction", no_work)
        monkeypatch.setattr(fields_mod, "comb", no_work)
        with pytest.raises(MatchfieldError) as err:
            coherent_field(weights)
        assert type(err.value) is MatchfieldError
        assert str(err.value) == (
            f"weights with row lengths {shape} are not an n x d matrix with 1 <= d <= n"
        )

    def test_dp_reaches_beyond_the_search(self):
        # (14, 7): 3432 subsets of 5040 bijections each for the search
        field, _, _ = seeded_coherent_field(14, 7, 1407)
        assert len(field.assignment) == comb(14, 7)
        assert is_linkage(field).ok


class TestBeyondSixColumns:
    """The first d >= 7 inputs, reachable since coherent fields come from
    the subset DP."""

    @pytest.mark.parametrize("n,d", [(9, 7), (10, 7)])
    def test_chow_arrangement_and_flips(self, n, d):
        field, _, _ = seeded_coherent_field(n, d, 1000 * n + d)
        cc = chow_collection(field)
        assert reconstruct_chow_from_phi(cc.phi(), n, d) == cc
        assert field_from_arrangement(tope_arrangement(field)) == field
        assert len(flip_graph(field).edges) == comb(n, d + 1) * d


class TestIncreasingSplitting:
    def test_reference_tope(self, tope_field_42):
        split = increasing_splitting(tope_field_42)
        assert (split.n, split.d) == (4, 3)
        # tope {1,2 -> r1, 3 -> r2} splits to 1 -> r1^1, 2 -> r1^2, 3 -> r2
        assert split.matching((1, 2, 3)).edges == ((1, 1), (2, 2), (3, 3))
        assert is_linkage(split).ok

    def test_identity_on_matching_fields(self, field_42):
        assert increasing_splitting(field_42) == field_42

    def test_refines_maximal_topes(self, field_42, tope_field_42):
        split = increasing_splitting(tope_field_42)
        for w in simplex_lattice_points(1, 3):
            v_split = tuple(x + 1 for x in w)
            merged = collapse_split_graph(
                maximal_tope(split, v_split), (2, 1)
            )
            assert merged == maximal_tope(field_42, (v_split[0] + v_split[1], v_split[2]))


class TestAmalgamation:
    def test_one_amalgamation_is_reference_tope_field(self, field_42):
        tf = i_amalgamation(field_42, 1)
        assert tf.type_vector == (2, 1)
        for sigma, edges in TOPES_42.items():
            assert set(tf.tope(sigma).edges) == set(edges)

    def test_two_amalgamation(self, field_42):
        tf = i_amalgamation(field_42, 2)
        expected = {
            (1, 2, 3): {(1, 1), (2, 2), (3, 2)},
            (1, 2, 4): {(1, 1), (2, 2), (4, 2)},
            (1, 3, 4): {(1, 1), (3, 2), (4, 2)},
            (2, 3, 4): {(4, 1), (2, 2), (3, 2)},
        }
        for sigma, edges in expected.items():
            assert set(tf.tope(sigma).edges) == edges

    def test_two_amalgamation_brute_force_unique(self, field_42):
        # inside each linkage covector there is exactly one tope of type (1,2)
        tf = i_amalgamation(field_42, 2)
        for tau in subsets(4, 3):
            cov = linkage_covector(field_42, tau).graph
            hits = []
            for mask in range(1 << len(cov.edges)):
                edges = [e for k, e in enumerate(cov.edges) if mask >> k & 1]
                g = graph(4, 2, edges)
                if g.right_degrees() == (1, 2) and all(x <= 1 for x in g.left_degrees()):
                    hits.append(g)
            assert hits == [tf.tope(tau)]

    def test_non_linkage_rejected(self, field_43):
        with pytest.raises(NotLinkageError) as err:
            i_amalgamation(field_43, 1)
        assert err.value.tau == (1, 2, 3, 4)

    def test_maximal_thickness_rejected(self, field_42):
        tf = tope_field_of_type(field_42, (3, 1))
        with pytest.raises(MatchfieldError):
            i_amalgamation(tf, 1)

    def test_result_is_linkage(self, field_42):
        assert is_linkage(i_amalgamation(field_42, 1)).ok
        assert is_linkage(i_amalgamation(field_42, 2)).ok


def amalgamation_outcome(route, tf, i):
    """The tope field of one step, or the type, message, tau and cycle of
    its error."""
    try:
        return route(tf, i)
    except MatchfieldError as exc:
        return type(exc), str(exc), getattr(exc, "tau", None), getattr(exc, "cycle", None)


class TestAmalgamationOnMasks:
    def test_chain_equals_the_cycle_search_chain(self):
        # every step of the canonical chain to every maximal type
        for n, d in [(4, 2), (5, 2), (5, 3), (6, 3), (6, 4)]:
            for seed in range(3):
                field = seeded_coherent_field(n, d, seed)[0]
                for point in simplex_lattice_points(n - d, d):
                    target = vector_sum(point, all_ones(d))
                    new = old = field
                    for i in fields_mod.amalgamation_order(d, target, all_ones(d)):
                        new, old = i_amalgamation(new, i), i_amalgamation_by_cycles(old, i)
                        assert new == old
                    assert new.type_vector == target

    def test_accepting_chain_searches_no_cycle(self, monkeypatch):
        searched = []
        real = core.find_cycle
        monkeypatch.setattr(core, "find_cycle", lambda *args: searched.append(args) or real(*args))
        field = seeded_coherent_field(6, 3, 2)[0]
        assert maximal_tope(field, (2, 2, 2)).left_degrees() == all_ones(6)
        assert len(maximal_tope_covectors(field)) == comb(4, 2)
        assert searched == []

    def test_non_linkage_inputs_raise_the_same_error(self, field_43):
        # one step from each right node, then a second step from every
        # first step that succeeded
        cases = [field_43] + [
            random_matching_field(*size, seed)
            for size in [(4, 2), (5, 2), (4, 3), (5, 3), (6, 3)]
            for seed in range(12)
        ]
        raised = 0
        for field in cases:
            for i in range(1, field.d + 1):
                got = amalgamation_outcome(i_amalgamation, field, i)
                assert got == amalgamation_outcome(i_amalgamation_by_cycles, field, i)
                if isinstance(got, tuple):
                    raised += got[0] is NotLinkageError
                    continue
                for i2 in range(1, field.d + 1):
                    again = amalgamation_outcome(i_amalgamation, got, i2)
                    assert again == amalgamation_outcome(i_amalgamation_by_cycles, got, i2)
        assert raised > 20


class TestMaximalTopes:
    def brute_force(self, field, v):
        """Unique tope with right degree vector v compatible with the field."""
        hits = []
        for func in column_functions(tuple(range(1, field.n + 1)), v):
            tope = graph(field.n, field.d, func)
            if all(is_compatible(tope, m)[0] for _, m in field.items()):
                hits.append(tope)
        return hits

    @pytest.mark.parametrize(
        "v,expected",
        [
            ((3, 1), {(1, 1), (2, 1), (4, 1), (3, 2)}),
            ((2, 2), {(1, 1), (4, 1), (2, 2), (3, 2)}),
            ((1, 3), {(1, 1), (2, 2), (3, 2), (4, 2)}),
        ],
    )
    def test_reference_values(self, field_42, v, expected):
        tope = maximal_tope(field_42, v)
        assert set(tope.edges) == expected
        assert self.brute_force(field_42, v) == [tope]

    def test_bad_target(self, field_42):
        with pytest.raises(MatchfieldError):
            maximal_tope(field_42, (4, 1))
        with pytest.raises(MatchfieldError):
            maximal_tope(field_42, (4, 0))


class TestArrangement:
    def test_reference(self, field_42):
        ta = tope_arrangement(field_42)
        assert sorted(ta.topes) == [(0, 2), (1, 1), (2, 0)]

    def test_single_matching(self):
        f = field_from_words(2, 2, {(1, 2): "21"})
        ta = tope_arrangement(f)
        assert ta.topes[(0, 0)] == f.matching((1, 2))

    def test_wide_field_arrangement(self, field_64):
        ta = tope_arrangement(field_64)
        assert len(ta.topes) == 10  # lattice points of 2*Delta_3

    def test_round_trip(self, field_42, field_53, field_63, field_64):
        for field in (field_42, field_53, field_63, field_64):
            assert field_from_arrangement(tope_arrangement(field)) == field

    def test_conflicting_topes_name_the_subset(self, field_42):
        # built past the validator, which refuses such topes first: the
        # collector names the d-subset on which two topes disagree
        topes = dict(tope_arrangement(field_42).mask_table)
        topes[(1, 1)] = graph(4, 2, [(1, 2), (2, 1), (3, 1), (4, 2)]).mask
        ta = fields_mod.TopeArrangement._unchecked(4, 2, topes)
        with pytest.raises(MatchfieldError, match=r"trees disagree on the matching of \(1, 2\)$"):
            field_from_arrangement(ta)

    def test_key_off_the_simplex_is_refused(self, field_42):
        # right count, distinct keys, one of them (-1, 3) off 2 * Delta_1
        topes = dict(tope_arrangement(field_42).mask_table)
        topes[(-1, 3)] = topes.pop((0, 2))
        with pytest.raises(MatchfieldError, match="^arrangement keys are not the lattice points$"):
            fields_mod.TopeArrangement(4, 2, topes)

    def test_key_count_checked_before_lattice_points(self):
        # 40 * Delta_19 has C(39, 19), about 6.9e10, lattice points
        with pytest.raises(MatchfieldError, match="arrangement keys are not the lattice points"):
            fields_mod.arrangement_from_json_dict({"n": 40, "d": 20, "topes": {}})

    def test_wrong_right_degrees_are_refused(self, field_42):
        topes = dict(tope_arrangement(field_42).mask_table)
        topes[(1, 1)] = topes[(2, 0)]
        with pytest.raises(MatchfieldError, match=r"^tope at \(1, 1\) has wrong right degrees$"):
            fields_mod.TopeArrangement(4, 2, topes)

    @pytest.mark.parametrize(
        "n, d, point, mask, message",
        [
            # right degrees (2, 2) with l1 holding two edges and l2 none
            (4, 2, (1, 1), graph(4, 2, [(1, 1), (1, 2), (3, 1), (4, 2)]).mask,
             "tope at (1, 1) is not maximal"),
            # the tope at (1, 1) of field_42 plus an edge bit off the 4 x 2 grid
            (4, 2, (1, 1), 105 | 1 << 8, "mask has bits outside the 4x2 grid"),
            # every bit set: its one column on the grid has the right degree
            (1, 1, (0,), -1, "mask has bits outside the 1x1 grid"),
        ],
        ids=["row-twice", "off-grid", "negative"],
    )
    def test_a_tope_that_is_not_maximal_is_refused(self, field_42, n, d, point, mask, message):
        topes = dict(tope_arrangement(field_42).mask_table) if n == 4 else {}
        topes[point] = mask
        with pytest.raises(MatchfieldError) as err:
            fields_mod.TopeArrangement(n, d, topes)
        assert str(err.value) == message

    def test_a_missing_covector_is_named_by_its_right_degrees(self, field_42, monkeypatch):
        # the covector of rdv (2, 1) dropped: the tope at (1, 1) is the first to need it
        def chow_masks(n, d, table, lifts):
            covectors, grid = real(n, d, table, lifts).items(), (1 << n * d) - 1
            return {k: m for k, m in covectors if core.right_degrees(m & grid, n, d) != (2, 1)}

        real = fields_mod.chow_masks
        monkeypatch.setattr(fields_mod, "chow_masks", chow_masks)
        with pytest.raises(InconsistentCollectionError, match=r"^no covector with rdv \(2, 1\)$"):
            tope_arrangement(field_42)

    def test_huge_sides_are_refused_before_the_lattice_count(self):
        # C(5999999, 2999999) lattice points would be counted first
        data = {"n": 6_000_000, "d": 3_000_000, "topes": {}}
        start = time.perf_counter()
        with pytest.raises(SizeCapError, match=r"^node counts \(6000000, 3000000\) outside"):
            fields_mod.arrangement_from_json_dict(data)
        assert time.perf_counter() - start < 0.05

    def test_sector_monotonicity_enforced(self, field_42):
        ta = tope_arrangement(field_42)
        check_sector_monotonicity(ta.mask_table)
        broken = dict(ta.mask_table)
        broken[(2, 0)] = graph(4, 2, [(1, 1), (2, 1), (3, 1), (4, 2)]).mask
        with pytest.raises(MatchfieldError):
            fields_mod.TopeArrangement(4, 2, broken)

    def test_sector_violation_names_least_rq_edge_of_h(self):
        # H at (1, 0) = (0, 1) + e1 - e2 has r2-edges (2,2), (3,2), both
        # missing from G; the least j is named, in the last column
        graphs = {
            (0, 1): graph(3, 2, [(1, 1), (1, 2)]),
            (1, 0): graph(3, 2, [(1, 1), (2, 2), (3, 2)]),
        }
        with pytest.raises(MatchfieldError) as err:
            check_sector_monotonicity(mask_table(graphs))
        assert str(err.value) == "sector violation: edge (2,2) of (1, 0) missing at (0, 1)"

    def test_sector_violation_names_least_rp_edge_of_g(self):
        # G at (1, 0), H at (0, 1) = (1, 0) + e2 - e1: the r1-edges of H lie
        # in G, but the r2-edges (2,2), (3,2) of G are missing from H
        graphs = {
            (1, 0): graph(3, 2, [(1, 1), (2, 2), (3, 2)]),
            (0, 1): graph(3, 2, [(1, 1)]),
        }
        with pytest.raises(MatchfieldError) as err:
            check_sector_monotonicity(mask_table(graphs))
        assert str(err.value) == "sector violation: edge (2,2) of (1, 0) missing at (0, 1)"

    def test_sector_violation_in_a_middle_column(self):
        # d = 3: G at (0, 1, 0), H at (0, 0, 1) = G's point + e3 - e2; the
        # r2-edges (3,2), (4,2) of H are missing from G
        graphs = {
            (0, 1, 0): graph(4, 3, [(1, 1), (2, 2)]),
            (0, 0, 1): graph(4, 3, [(1, 1), (3, 2), (4, 2)]),
        }
        with pytest.raises(MatchfieldError) as err:
            check_sector_monotonicity(mask_table(graphs))
        assert str(err.value) == "sector violation: edge (3,2) of (0, 0, 1) missing at (0, 1, 0)"


    def test_planted_incompatible_pair(self, field_42):
        topes = dict(tope_arrangement(field_42).mask_table)
        topes[(1, 1)] = graph(4, 2, [(1, 1), (2, 2), (3, 1), (4, 2)]).mask
        # the tope clashes with (2, 0) only, so the first pair is not reported
        with pytest.raises(MatchfieldError) as err:
            fields_mod.TopeArrangement(4, 2, topes)
        assert str(err.value) == "topes at (1, 1) and (2, 0) are incompatible"

    def test_first_incompatible_pair_as_by_the_cycle_test(self, field_53):
        # every one-tope replacement in a (5,3) arrangement: the message names
        # the first pair in sorted order that is_compatible refuses
        ta = tope_arrangement(field_53)
        refused = 0
        for point, old in ta.items():
            for f in itertools.product((1, 2, 3), repeat=5):
                g = graph(5, 3, list(zip(range(1, 6), f)))
                if g == old or g.right_degrees() != vector_sum(point, (1, 1, 1)):
                    continue
                topes = {**ta.topes, point: g}
                first = next(
                    (
                        f"topes at {p1} and {p2} are incompatible"
                        for (p1, t1), (p2, t2) in itertools.combinations(sorted(topes.items()), 2)
                        if not is_compatible(t1, t2)[0]
                    ),
                    None,
                )
                if first is None:
                    continue
                refused += 1
                with pytest.raises(MatchfieldError) as err:
                    fields_mod.TopeArrangement(5, 3, mask_table(topes))
                assert str(err.value) == first
        assert refused > 10

    @pytest.mark.parametrize("n, d", [(6, 3), (8, 4), (9, 3), (10, 5)])
    def test_swapped_tope_values_name_the_pair_of_the_scan(self, n, d):
        # swapping the values of two left nodes inside maximal topes keeps
        # their right degrees and maximality, so validation reaches the
        # compatibility step, and its message is the pairwise scan's.  The
        # swap goes into a few topes (mostly refused) or into all but a few
        # (in all of them it relabels the field, which is accepted); a tope
        # giving both nodes one value is left as it is
        def outcome(check, topes):
            try:
                check(topes)
            except MatchfieldError as exc:
                return str(exc)
            return None

        rng = random.Random(100 * n + d)
        scan_verdicts = set()
        for seed in range(4):
            ta = tope_arrangement(seeded_coherent_field(n, d, seed)[0])
            points = sorted(ta.mask_table)
            for _ in range(10):
                topes = dict(ta.mask_table)
                j, k = rng.sample(range(n), 2)
                r = rng.randint(0, 2)
                few = rng.random() < 0.5
                for point in rng.sample(points, r + 1 if few else len(points) - r):
                    f = list(core.tope_function(topes[point], n, d))
                    f[j], f[k] = f[k], f[j]
                    topes[point] = graph(n, d, [(x + 1, i + 1) for x, i in enumerate(f)]).mask
                scan = outcome(lambda t: arrangement_pair_by_scan(n, d, t), topes)
                expected = scan or outcome(check_sector_monotonicity, topes)
                assert outcome(lambda t: fields_mod.TopeArrangement(n, d, t), topes) == expected
                scan_verdicts.add(scan is None)
        assert scan_verdicts == {True, False}


    @pytest.mark.parametrize("n, d, count", [(3, 2, 6), (4, 2, 24), (5, 2, 120), (4, 3, 96)])
    def test_every_compatible_assignment_is_sector_monotone(self, n, d, count):
        # every choice of a maximal tope with rdv p + 1 at each lattice point
        # p: the ones validation accepts (compatibility, no sector pass) all
        # pass the sector check, and some refused ones fail it
        points = simplex_lattice_points(n - d, d)
        choices = [
            [
                graph(n, d, list(zip(range(1, n + 1), f))).mask
                for f in itertools.product(range(1, d + 1), repeat=n)
                if tuple(f.count(i) - 1 for i in range(1, d + 1)) == p
            ]
            for p in points
        ]
        accepted = sector_refused = 0
        for pick in itertools.product(*choices):
            topes = dict(zip(points, pick))
            try:
                fields_mod.TopeArrangement(n, d, topes)
            except MatchfieldError:
                sector_refused += outcome(check_sector_monotonicity, topes) is not None
                continue
            check_sector_monotonicity(topes)
            accepted += 1
        assert accepted == count and sector_refused > 0


# the edge sizes n = d and d = 1, both linkage
EDGE_FIELDS = {
    "n=d": {"n": 2, "d": 2, "matchings": {"1,2": [[1, 2], [2, 1]]}},
    "d=1": {"n": 3, "d": 1, "matchings": {str(j): [[j, 1]] for j in (1, 2, 3)}},
}


@st.composite
def coherent_fields_to_50(draw):
    """A seeded coherent field with n * d <= 50."""
    d = draw(st.integers(1, 7))
    n = draw(st.integers(d, 50 // d))
    return seeded_coherent_field(n, d, draw(st.integers(0, 10**6)))[0]


class TestArrangementTrustsTheorems:
    """``tope_arrangement`` holds what it builds unchecked, as the paper's
    theorems imply every check of ``TopeArrangement.validate``, and
    ``maximal_tope_covectors`` returns its unions unwalked, as amalgamation
    keeps a field linkage: run, the checks pass on every linkage field at
    desk scale and on coherent fields."""

    @staticmethod
    def assert_checks_pass(field):
        ta = tope_arrangement(field)
        assert fields_mod.TopeArrangement(field.n, field.d, ta.mask_table) == ta
        for covector in maximal_tope_covectors(field).values():
            assert is_spanning_tree_by_cycles(covector)

    @pytest.mark.parametrize(
        "n, d, count", [(3, 2, 6), (4, 2, 24), (5, 2, 120), (3, 3, 6), (4, 3, 96)])
    def test_every_small_linkage_field(self, n, d, count):
        linkage = every_linkage_field(n, d)
        assert len(linkage) == count
        for field in linkage:
            self.assert_checks_pass(field)

    @settings(max_examples=60, deadline=None)
    @given(coherent_fields_to_50())
    def test_coherent_fields(self, field):
        self.assert_checks_pass(field)

    @pytest.mark.parametrize("data", EDGE_FIELDS.values(), ids=EDGE_FIELDS.keys())
    def test_edge_sizes(self, data):
        self.assert_checks_pass(field_from_json_dict(data))

    def test_an_unchecked_table_that_is_no_field_is_validated(self):
        # linkage, but no field: the value on (2, 3) has four edges, two at
        # l1, and no theorem covers what is built from it
        field = fields_mod.MatchingField(3, 2, {3: 9, 5: 18, 6: 27})
        assert is_linkage(field).ok and not field.holds_type
        with pytest.raises(MatchfieldError, match=r"^tope at \(0, 1\) is not maximal$"):
            tope_arrangement(field)


class TestAgainstAmalgamation:
    def test_arrangement(self, differential_fields, field_42, field_43, field_63, field_64):
        inputs = differential_fields + [field_42, field_43, field_63, field_64]
        verdicts = []
        for field in inputs:
            got = outcome(tope_arrangement, field)
            assert got == outcome(arrangement_by_amalgamation, field)
            verdicts.append(isinstance(got, tuple) and got[0])
        # both kinds of input occur: arrangements built, and linkage refused
        assert set(verdicts) == {False, NotLinkageError}

    def test_maximal_tope_covectors(self, differential_fields, field_42, field_43, field_64):
        for field in differential_fields + [field_42, field_43, field_64]:
            got = outcome(maximal_tope_covectors, field)
            assert got == outcome(covectors_by_amalgamation, field)

    def test_single_matching(self):
        f = field_from_words(2, 2, {(1, 2): "21"})
        assert tope_arrangement(f) == arrangement_by_amalgamation(f)
        assert maximal_tope_covectors(f) == {} == covectors_by_amalgamation(f)


class TestSubfield:
    def test_deletion(self, field_42):
        sub = subfield_delete_left(field_42, 4)
        assert (sub.n, sub.d) == (3, 2)
        assert sub.matching((1, 2)) == graph(3, 2, [(1, 1), (2, 2)])
        assert is_linkage(sub).ok


class TestTrianguloid:
    def test_counterexample_fails_hexagon(self, extended_24):
        report = trianguloid_check(extended_24)
        assert report.pre_trianguloid
        assert not report.hexagon.ok
        c, triple = report.hexagon.witness
        assert c == (0, 0, 0, 0) and triple == frozenset({1, 2, 3})

    def test_key_off_the_simplex_is_refused(self, extended_24):
        # right count, distinct keys, one of them (-1, 3, 0, 0) off the simplex
        graphs = dict(extended_24.mask_table)
        graphs[(-1, 3, 0, 0)] = graphs.pop((0, 2, 0, 0))
        message = "^extended arrangement must cover all lattice points$"
        with pytest.raises(MatchfieldError, match=message):
            fields_mod.ExtendedTopeArrangement(2, 4, graphs)

    def test_wrong_degree_fails_t1(self, extended_24):
        graphs = dict(extended_24.mask_table)
        graphs[(2, 0, 0, 0)] = graph(2, 4, [(1, 2), (2, 2)]).mask
        eta = fields_mod.ExtendedTopeArrangement(2, 4, graphs)
        report = trianguloid_check(eta)
        assert not report.right_degrees.ok

    def test_isolated_left_fails_t2(self, extended_24):
        graphs = dict(extended_24.mask_table)
        graphs[(1, 1, 0, 0)] = graph(2, 4, [(1, 1), (1, 2)]).mask  # l2 isolated
        eta = fields_mod.ExtendedTopeArrangement(2, 4, graphs)
        report = trianguloid_check(eta)
        assert report.right_degrees.ok
        assert not report.left_cover.ok
        assert report.left_cover.witness[0] == (1, 1, 0, 0)

    def test_stripping_requires_dummy_matching(self, field_42):
        with pytest.raises(MatchfieldError):
            extended_arrangement_by_stripping(field_42, [(1, 1), (2, 2)])

    def test_completion_of_stripped_arrangement(self, field_64, extended_24):
        # re-adding the dummy matching recovers the maximal topes
        dummies = [(1, 1), (2, 2), (3, 3), (4, 4)]
        relabel = {1: 5, 2: 6}
        for point, g in extended_24.items():
            rebuilt = graph(
                6, 4, [(relabel[j], i) for j, i in g.edges] + dummies
            )
            v = tuple(x + 1 for x in point)
            assert rebuilt == maximal_tope(field_64, v)


class TestMaximalTopeCovectors:
    def test_reference(self, field_42):
        covs = maximal_tope_covectors(field_42)
        assert set(covs) == {(2, 1), (1, 2)}
        assert set(covs[(2, 1)].edges) == set(TOPE_COVECTOR_42)

    def test_incompatible_covectors_exist(self, field_64):
        covs = maximal_tope_covectors(field_64)
        assert len(covs) == 4
        flat = list(covs.values())
        assert any(
            not is_compatible(a, b)[0] for a in flat for b in flat if a != b
        )


class TestSerialization:
    def test_matching_field_round_trip(self, field_42):
        assert field_from_json_dict(field_to_json_dict(field_42)) == field_42

    def test_tope_field_round_trip(self, tope_field_42):
        data = field_to_json_dict(tope_field_42)
        assert data["type"] == [2, 1]
        assert field_from_json_dict(data) == tope_field_42
