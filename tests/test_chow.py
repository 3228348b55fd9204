"""Chow covectors: both constructions, the bijection, transversality,
sectors, and reconstruction from the phi map."""

import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from matchfield import (
    BipartiteGraph,
    InconsistentPhiError,
    NotAMatchingError,
    NotLinkageError,
    SizeCapError,
    chow_collection,
    field_from_chow,
    is_linkage,
    reconstruct_chow_from_phi,
    simplex_lattice_points,
    subsets,
    tope_arrangement,
)
from matchfield.chow import (
    ChowCollection,
    PhiMap,
    chow_by_definition,
    phi_from_json_dict,
    phi_to_json_dict,
)
from matchfield import chow as chow_mod
from matchfield import core, fields, triang
from matchfield.errors import InconsistentCollectionError, MatchfieldError
from matchfield.randgen import seeded_coherent_field

from conftest import field_from_words, graph
from oracles import (
    chow_by_intersection,
    chow_collection_by_validation,
    collection_rdvs_by_graphs,
    covectors_by_rdv,
    field_from_chow_by_topes,
    is_transversal,
    minimal_transversals,
    sector,
    sector_sweep,
)


REFERENCE_PHI = {
    core.subset_mask(rho): v
    for rho, v in [((1, 2, 4), (3, 0)), ((1, 3, 4), (2, 1)), ((1, 2, 3), (1, 2)), ((2, 3, 4), (0, 3))]
}


def phi_of(n, d, mapping):
    """The PhiMap of a {subset: lattice point} map, each key as its bitmask."""
    return PhiMap(n, d, {core.subset_mask(rho): v for rho, v in mapping.items()})


def reconstruct_by_deletion(phi, n, d):
    """Oracle for reconstruct_chow_from_phi: the deletion induction of the
    paper's proof, followed by the same certificate."""
    phi.validate_bijective()
    mapping = {frozenset(core.mask_subset(rho)): v for rho, v in phi.mapping.items()}
    covectors = _reconstruct_chow(mapping, tuple(range(1, n + 1)), d, {})
    out = {
        tuple(sorted(rho)): BipartiteGraph(n, d, edges)
        for rho, edges in covectors.items()
    }
    try:
        collection = ChowCollection(n, d, core.graph_masks(n, d, out))
        if collection.phi().mapping != phi.mapping:
            raise InconsistentPhiError("reconstruction does not reproduce phi")
        field = field_from_chow(collection)
        if chow_collection(field) != collection:
            raise InconsistentPhiError("covectors do not belong to any field")
    except (InconsistentCollectionError, NotLinkageError) as exc:
        raise InconsistentPhiError(str(exc)) from exc
    return collection


def _reconstruct_chow(mapping, labels, d, memo):
    """mapping: frozenset(rho) -> rdv over the left label set `labels`.

    Returns frozenset(rho) -> tuple of edges ((j, i) with original labels).
    """
    key = labels
    if key in memo:
        return memo[key]
    n = len(labels)
    if n == d:
        out = {}
        for rho, rdv in mapping.items():
            if len(rho) != 1 or sum(rdv) != 1:
                raise InconsistentPhiError("bad base-case pair")
            (j,) = tuple(rho)
            i = rdv.index(1) + 1
            out[rho] = ((j, i),)
        memo[key] = out
        return out

    by_rdv = {v: rho for rho, v in mapping.items()}
    if len(by_rdv) != len(mapping):
        raise InconsistentPhiError("right projection is not injective")
    covectors: dict = {}
    for j in labels:
        member_rdvs = {v for rho, v in mapping.items() if j in rho}
        sectors = {}
        assigned: dict = {}
        for i in range(1, d + 1):
            seed = tuple((n - d + 1) if t == i else 0 for t in range(1, d + 1))
            if seed not in by_rdv:
                raise InconsistentPhiError(f"no member with extreme rdv {seed}")
            admitted = sector_sweep(member_rdvs, i, seed)
            sectors[i] = admitted
            for rdv in admitted:
                if rdv in assigned:
                    raise InconsistentPhiError(
                        f"rdv {rdv} admitted to two sectors of {j}"
                    )
                assigned[rdv] = i
        if set(assigned) != member_rdvs:
            raise InconsistentPhiError(f"sectors do not cover all pairs through {j}")
        # deletion: remove lj and its sector edge from every member
        sub_labels = tuple(x for x in labels if x != j)
        sub_mapping = {}
        for rdv, i in assigned.items():
            rho = by_rdv[rdv]
            sub_rho = frozenset(rho - {j})
            sub_rdv = tuple(x - (1 if t == i else 0) for t, x in enumerate(rdv, start=1))
            if any(x < 0 for x in sub_rdv) or sub_rho in sub_mapping:
                raise InconsistentPhiError("deletion is not a valid phi map")
            sub_mapping[sub_rho] = sub_rdv
        sub_covectors = _reconstruct_chow(sub_mapping, sub_labels, d, memo)
        for rdv, i in assigned.items():
            rho = by_rdv[rdv]
            edges = sub_covectors[frozenset(rho - {j})] + ((j, i),)
            edges = tuple(sorted(edges))
            old = covectors.get(rho)
            if old is not None and old != edges:
                raise InconsistentPhiError(f"branches disagree on covector {set(rho)}")
            covectors[rho] = edges
    if len(covectors) != len(mapping):
        raise InconsistentPhiError("not every covector was reconstructed")
    memo[key] = covectors
    return covectors


class TestByDefinition:
    def test_reference_covectors(self, field_42):
        assert set(chow_by_definition(field_42, (1, 2, 4)).edges) == {
            (1, 1),
            (2, 1),
            (4, 1),
        }
        assert set(chow_by_definition(field_42, (1, 3, 4)).edges) == {
            (1, 1),
            (4, 1),
            (3, 2),
        }

    def test_square_field(self):
        f = field_from_words(2, 2, {(1, 2): "21"})
        assert chow_by_definition(f, (1,)).edges == ((1, 2),)
        assert chow_by_definition(f, (2,)).edges == ((2, 1),)

    def test_wrong_rho_size(self, field_42):
        with pytest.raises(Exception):
            chow_by_definition(field_42, (1, 2))

    def test_keyed_pass_gives_every_covector(self, differential_fields):
        # linkage or not, one pass over the matchings gives the covector of
        # every (n-d+1)-subset rho, as its definition does
        for field in differential_fields:
            table = {core.subset_mask(sigma): m.mask for sigma, m in field.items()}
            covectors = fields.chow_masks(field.n, field.d, table)
            masks = {core.mask_subset(rho): m for rho, m in covectors.items()}
            assert masks == {
                rho: chow_by_definition(field, rho).mask
                for rho in subsets(field.n, field.n - field.d + 1)
            }

    @pytest.mark.parametrize(
        "extra", [1 << 8, 1 << 200_000, -1], ids=["off-grid", "far", "negative"]
    )
    def test_keyed_pass_refuses_bits_off_the_grid(self, field_42, extra):
        # an unchecked table's key of the wrong size is read by no linkage
        # test, so the pass refuses its mask itself, at once and in little
        # memory; a negative mask would never run out of bits
        table = {**field_42.mask_table, 0b1111: extra}
        field = fields.MatchingField(4, 2, table)
        for build in (lambda: fields.chow_masks(4, 2, table), lambda: chow_collection(field),
                      lambda: tope_arrangement(field)):
            with pytest.raises(MatchfieldError, match=r"^mask has bits outside the 4x2 grid$"):
                build()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_keyed_pass_is_its_own_inverse(self, data):
        # any keys, of any size, each entry on rows of its key: the pass run
        # twice gives the table back, without the entries left empty
        n = data.draw(st.integers(1, 7))
        d = data.draw(st.integers(1, 4))
        keys = data.draw(st.sets(st.integers(0, (1 << n) - 1), max_size=12))
        table = {}
        for key in keys:
            rows = [j for j in range(n) if key >> j & 1]
            edges = data.draw(st.sets(st.tuples(st.sampled_from(rows), st.integers(0, d - 1)))
                              if rows else st.just(set()))
            table[key] = sum(1 << j * d + i for j, i in edges)
        once = fields.chow_masks(n, d, table)
        assert fields.chow_masks(n, d, once) == {k: m for k, m in table.items() if m}


class TestByIntersection:
    def test_matches_definition(self, field_42):
        ta = tope_arrangement(field_42)
        cc = chow_collection(field_42)
        by_rdv = covectors_by_rdv(cc)
        for v in simplex_lattice_points(3, 2):
            assert chow_by_intersection(ta, v) == by_rdv[v]

    @pytest.mark.parametrize(
        "v,expected",
        [
            ((2, 1), {(1, 1), (4, 1), (3, 2)}),
            ((3, 0), {(1, 1), (2, 1), (4, 1)}),
            ((0, 3), {(2, 2), (3, 2), (4, 2)}),
        ],
    )
    def test_reference_values(self, field_42, v, expected):
        ta = tope_arrangement(field_42)
        assert set(chow_by_intersection(ta, v).edges) == expected


class TestCollection:
    def test_reference_phi(self, field_42):
        cc = chow_collection(field_42)
        assert cc.phi().mapping == REFERENCE_PHI

    def test_nonregular_field_bijection(self, field_63):
        cc = chow_collection(field_63)
        assert len(cc.covectors) == 15
        assert sorted(g.right_degrees() for g in cc.covectors.values()) == (
            simplex_lattice_points(4, 3)
        )

    def test_square_field(self):
        f = field_from_words(2, 2, {(1, 2): "21"})
        cc = chow_collection(f)
        assert set(cc.covectors) == {(1,), (2,)}

    def test_non_linkage_rejected(self, field_43):
        with pytest.raises(NotLinkageError):
            chow_collection(field_43)


class TestCollectionValidation:
    def test_covector_of_another_size_is_refused(self, field_42):
        # the same edges on (6, 2) or (4, 3) once passed the row reading,
        # wrote the same JSON and yet compared unequal to the true collection
        for n, d in [(6, 2), (4, 3)]:
            covectors = dict(chow_collection(field_42).covectors)
            covectors[(1, 2, 4)] = BipartiteGraph(n, d, covectors[(1, 2, 4)].edges)
            message = r"^covector at \(1, 2, 4\) has wrong ambient size$"
            with pytest.raises(InconsistentCollectionError, match=message):
                ChowCollection(4, 2, core.graph_masks(4, 2, covectors))

    def test_repeated_degree_vector_is_refused(self, field_42):
        # the rows of a covector on rho give its rdv the sum |rho| and no
        # negative entry, so only a repeat leaves the lattice points: (3, 0)
        # at (1, 3, 4), as at (1, 2, 4)
        covectors = dict(chow_collection(field_42).covectors)
        covectors[(1, 3, 4)] = graph(4, 2, [(1, 1), (3, 1), (4, 1)])
        message = "^right degree vectors do not biject onto the lattice points$"
        with pytest.raises(InconsistentCollectionError, match=message):
            ChowCollection(4, 2, core.graph_masks(4, 2, covectors))

    def test_degree_vectors_are_read_once(self, field_42, monkeypatch):
        cc = chow_collection(field_42)
        monkeypatch.setattr(BipartiteGraph, "right_degrees", None)
        assert cc.phi().mapping == REFERENCE_PHI
        covectors = cc.covectors
        expected = {v: covectors[core.mask_subset(rho)] for rho, v in REFERENCE_PHI.items()}
        assert covectors_by_rdv(cc) == expected

    def test_mask_table_is_the_covectors(self, field_63):
        cc = chow_collection(field_63)
        assert cc.mask_table == {core.subset_mask(rho): g.mask for rho, g in cc.covectors.items()}


# each result class whose constructor validates a mask table: how the
# result is built from field_42, and the error type and texts its
# constructor raises for each fault at the least key
RESULTS = {
    "chow-collection": (ChowCollection, chow_collection, InconsistentCollectionError, {
        "negative": "covector at (1, 2, 3) has wrong ambient size",
        "off-grid": "covector at (1, 2, 3) has wrong ambient size",
        "missing-key": "keys must be the (n-d+1)-subsets",
    }),
    "tope-arrangement": (fields.TopeArrangement, tope_arrangement, MatchfieldError, {
        "negative": "tope at (0, 2) has wrong right degrees",
        "off-grid": "tope at (0, 2) is not maximal",
        "missing-key": "arrangement keys are not the lattice points",
    }),
    "extended-arrangement": (
        fields.ExtendedTopeArrangement,
        lambda field: triang.extended_tope_arrangement(triang.staircase_triangulation(3, 2)),
        MatchfieldError,
        {
            "negative": "graph at (0, 3) has bits outside the 3x2 grid",
            "off-grid": "graph at (0, 3) has bits outside the 3x2 grid",
            "missing-key": "extended arrangement must cover all lattice points",
        },
    ),
}

TABLE_FAULTS = {
    "negative": lambda table, key, nd: {**table, key: -1},
    "off-grid": lambda table, key, nd: {**table, key: table[key] | 1 << nd},
    "missing-key": lambda table, key, nd: {k: m for k, m in table.items() if k != key},
}


@pytest.mark.parametrize("fault", list(TABLE_FAULTS))
@pytest.mark.parametrize("kind", list(RESULTS))
def test_result_constructor_validates_its_table(field_42, kind, fault):
    # a result class has one public constructor, on a mask table, and it
    # validates: the table of a built result is accepted, and one fault at
    # its least key raises the class's own error
    build, result, error, texts = RESULTS[kind]
    made = result(field_42)
    n, d, table = made.n, made.d, made.mask_table
    assert build(n, d, table).mask_table == table
    with pytest.raises(error) as caught:
        build(n, d, TABLE_FAULTS[fault](table, min(table), n * d))
    assert type(caught.value) is error and str(caught.value) == texts[fault]


# the private hold of each result class with one, and the validator it skips
HOLDS = {
    "chow-collection": (chow_mod, "_covector_rdvs",
                        lambda cc: ChowCollection._unchecked(cc.n, cc.d, cc.mask_table, cc.rdvs)),
    "tope-arrangement": (fields.TopeArrangement, "validate",
                         lambda ta: fields.TopeArrangement._unchecked(ta.n, ta.d, ta.mask_table)),
}


@pytest.mark.parametrize("kind", list(HOLDS))
def test_unchecked_holds_the_table_without_reading_it(field_42, monkeypatch, kind):
    # a builder that certified its table holds that very table and runs no
    # validator, where the public constructor runs it once
    build, result, _, _ = RESULTS[kind]
    owner, name, hold = HOLDS[kind]
    made = result(field_42)
    validator, calls = getattr(owner, name), []
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or validator(*args))
    held = hold(made)
    assert held.mask_table is made.mask_table and held == made and calls == []
    assert build(made.n, made.d, made.mask_table) == made and len(calls) == 1


def perturbed(covectors: dict, n: int, d: int, kind: str, rng: random.Random) -> dict:
    """A copy of a {rho: graph} collection with one fault of the given kind."""
    out = dict(covectors)
    rho = rng.choice(sorted(out))
    g = out[rho]
    if kind == "second edge in a row":
        j = rng.choice(rho)
        i = rng.choice([i for i in range(1, d + 1) if i not in g.left_neighbors(j)] or [1])
        out[rho] = BipartiteGraph(n, d, g.edges + ((j, i),))
    elif kind == "edge off the support":
        j = rng.choice([j for j in range(1, n + 1) if j not in rho])
        out[rho] = BipartiteGraph(n, d, g.edges + ((j, rng.randint(1, d)),))
    elif kind == "two covectors swapped":
        other = rng.choice(sorted(out))
        out[rho], out[other] = out[other], g
    elif kind == "two columns swapped":  # swaps two entries of one rdv
        a, b = rng.sample(range(1, d + 1), 2) if d > 1 else (1, 1)
        swap = {a: b, b: a}
        out[rho] = BipartiteGraph(n, d, [(j, swap.get(i, i)) for j, i in g.edges])
    else:  # a missing key
        del out[rho]
    return out


FAULTS = [
    "second edge in a row", "edge off the support", "two covectors swapped",
    "two columns swapped", "missing key",
]


def collection_outcome(build, n, d, covectors):
    """A validator's mask table and rdvs, or the type and message it raises."""
    try:
        got = build(n, d, covectors)
    except MatchfieldError as exc:
        return type(exc), str(exc)
    return got if isinstance(got, tuple) else (got.mask_table, got.rdvs)


class TestCollectionOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([(3, 2), (4, 2), (5, 3), (6, 3), (6, 4), (7, 3)]),
        st.integers(0, 10**6),
        st.lists(st.sampled_from(FAULTS), max_size=2),
    )
    def test_mask_validator_agrees_with_the_graph_validator(self, size, seed, faults):
        n, d = size
        rng = random.Random(seed)
        covectors = dict(chow_collection(seeded_coherent_field(n, d, seed)[0]).covectors)
        for kind in faults:
            covectors = perturbed(covectors, n, d, kind, rng)
        expected = collection_outcome(collection_rdvs_by_graphs, n, d, covectors)
        graphs = core.graph_masks(n, d, covectors)
        assert collection_outcome(ChowCollection, n, d, graphs) == expected
        table = {core.subset_mask(rho): g.mask for rho, g in covectors.items()}
        assert collection_outcome(ChowCollection, n, d, table) == expected
        if isinstance(expected[0], dict):  # accepted: the rdvs come in table order too
            assert list(ChowCollection(n, d, graphs).rdvs.items()) == list(expected[1].items())


def pass_outcome(build, field):
    """A collection's table, rdvs and key order, or the type and message of
    its refusal."""
    try:
        cc = build(field)
    except MatchfieldError as exc:
        return type(exc), str(exc)
    return cc.mask_table, list(cc.rdvs.items()), list(cc.mask_table)


# every (n, d) with 1 <= d <= n and n * d <= 30
CODED_SIZES = [(n, d) for n in range(1, 31) for d in range(1, n + 1) if n * d <= 30]


class TestCodedPass:
    """``chow_collection`` codes the rdvs in the keyed pass on a field that
    holds type (1, ..., 1) and checks only that they are distinct; the oracle
    validates the plain pass's table."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CODED_SIZES), st.integers(0, 10**6))
    def test_equals_the_validated_route_on_coherent_fields(self, size, seed):
        field, _, _ = seeded_coherent_field(*size, seed)
        assert field.holds_type
        expected = pass_outcome(chow_collection_by_validation, field)
        assert isinstance(expected[0], dict)
        assert pass_outcome(chow_collection, field) == expected

    def test_equals_the_validated_route_on_the_fixtures(
        self, differential_fields, field_42, field_43, field_53, field_63, field_64
    ):
        # the non-linkage fields among them raise the same NotLinkageError,
        # as linkage is required before the codes are compared; n = d and
        # d = 1 take the coded pass too
        squares = [
            field_from_words(2, 2, {(1, 2): "21"}), field_from_words(3, 3, {(1, 2, 3): "312"})
        ]
        lines = [field_from_words(n, 1, {(j,): str(j) for j in range(1, n + 1)}) for n in (1, 3)]
        fixtures = [field_42, field_43, field_53, field_63, field_64] + squares + lines
        accepted = 0
        for field in differential_fields + fixtures:
            expected = pass_outcome(chow_collection_by_validation, field)
            assert pass_outcome(chow_collection, field) == expected
            accepted += isinstance(expected[0], dict)
        assert accepted >= 16

    def test_the_distinctness_check_refuses_a_non_linkage_field(
        self, differential_fields, field_43, monkeypatch
    ):
        # with linkage not required, the rdvs of a non-linkage field that
        # holds its type collide, and both routes refuse them with one text
        monkeypatch.setattr(fields, "require_linkage", lambda field: None)
        refused = 0
        for field in differential_fields + [field_43]:
            expected = pass_outcome(chow_collection_by_validation, field)
            assert pass_outcome(chow_collection, field) == expected
            refused += expected == (InconsistentCollectionError, chow_mod.BIJECTION)
        assert refused >= 5

    def test_a_field_that_does_not_hold_its_type_is_validated(self, field_42):
        # one matching short of an edge is still linkage; its covector is not
        table = dict(field_42.mask_table)
        key = core.subset_mask((1, 3))
        table[key] &= table[key] - 1
        field = fields.MatchingField(4, 2, table)
        expected = (InconsistentCollectionError, "covector at (1, 2, 4) has wrong support")
        assert pass_outcome(chow_collection_by_validation, field) == expected
        assert pass_outcome(chow_collection, field) == expected

    def test_a_tope_field_is_validated(self, tope_field_42):
        assert tope_field_42.holds_type and tope_field_42.type_vector == (2, 1)
        expected = (InconsistentCollectionError, "keys must be the (n-d+1)-subsets")
        assert pass_outcome(chow_collection_by_validation, tope_field_42) == expected
        assert pass_outcome(chow_collection, tope_field_42) == expected


class TestFieldFromChow:
    def test_union_gives_tope(self, field_42):
        cc = chow_collection(field_42)
        by_rdv = covectors_by_rdv(cc)
        union = BipartiteGraph.from_mask(4, 2, by_rdv[(2, 1)].mask | by_rdv[(1, 2)].mask)
        assert set(union.edges) == {(1, 1), (4, 1), (2, 2), (3, 2)}

    def test_round_trip(self, field_42, field_53, field_63):
        for field in (field_42, field_53, field_63):
            assert field_from_chow(chow_collection(field)) == field

    def test_square_round_trip(self):
        f = field_from_words(2, 2, {(1, 2): "21"})
        assert field_from_chow(chow_collection(f)) == f

    def test_coherent_round_trip(self):
        field, _, _ = seeded_coherent_field(5, 3, 20240521)
        assert field_from_chow(chow_collection(field)) == field

    def test_agrees_with_tope_route(
        self, differential_fields, field_42, field_53, field_63, field_64
    ):
        # the keyed pass read backwards and the unions of covectors into
        # maximal topes give the same field, which is the one they came from
        coherent = [
            seeded_coherent_field(n, d, 10 * n + d)[0]
            for n, d in [(4, 2), (5, 3), (6, 3), (7, 4), (8, 4), (9, 4), (10, 5)]
        ]
        inputs = differential_fields + [field_42, field_53, field_63, field_64] + coherent
        checked = 0
        for field in inputs:
            if not is_linkage(field).ok:
                continue
            cc = chow_collection(field)
            assert field_from_chow(cc) == field_from_chow_by_topes(cc) == field
            checked += 1
        assert checked >= 15

    # a validated collection that belongs to no field: the covectors of
    # (1,3) and (2,3) both send their lj-edge to r1 on the subset (1, 2)
    NO_FIELD = {(1, 3): [(1, 1), (3, 1)], (2, 3): [(2, 1), (3, 2)], (1, 2): [(1, 2), (2, 2)]}

    def test_collection_of_no_field_is_refused(self):
        no_field = {rho: graph(3, 2, e) for rho, e in self.NO_FIELD.items()}
        cc = ChowCollection(3, 2, core.graph_masks(3, 2, no_field))
        with pytest.raises(NotAMatchingError) as caught:
            field_from_chow(cc)
        assert caught.value.sigma == (1, 2)
        with pytest.raises(InconsistentCollectionError):
            field_from_chow_by_topes(cc)


class TestTransversals:
    def test_examples(self, field_42):
        assert is_transversal(graph(4, 2, [(1, 1), (2, 1), (4, 1)]), field_42)
        assert not is_transversal(graph(4, 2, [(1, 1)]), field_42)

    def test_minimal_transversals_are_chow(self, field_42):
        cc = chow_collection(field_42)
        assert minimal_transversals(field_42) == set(cc.covectors.values())

    def test_cap(self, field_42):
        with pytest.raises(SizeCapError):
            minimal_transversals(field_42, cap=(3, 2))


class TestSector:
    def test_reference(self, field_42):
        cc = chow_collection(field_42)
        image = sector(covectors_by_rdv(cc), 4, 2)
        assert {v for _, v in image.members} == {(0, 3)}

    def test_empty_sector(self, field_63):
        cc = chow_collection(field_63)
        assert not sector(covectors_by_rdv(cc), 1, 2).members

    def test_isolated_everywhere(self):
        collection = {(1, 0): graph(2, 2, [(1, 1)]), (0, 1): graph(2, 2, [(1, 2)])}
        assert not sector(collection, 2, 1).members


SWAP_SIZES = [(4, 2), (5, 3), (6, 3), (7, 3), (8, 4)]


def coherent_phi_and_swaps(n, d):
    """The Chow collection of a seeded coherent (n, d) field, and its phi
    map followed by four seeded two-value swaps of it."""
    field, _, _ = seeded_coherent_field(n, d, 1000 * n + d)
    cc = chow_collection(field)
    keys = sorted(cc.phi().mapping, key=core.mask_subset)
    rng = random.Random(n * d)
    mappings = [cc.phi().mapping]
    for _ in range(4):
        a, b = rng.sample(keys, 2)
        swapped = dict(cc.phi().mapping)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        mappings.append(swapped)
    return cc, mappings


class TestReconstruction:
    def test_reference(self, field_42):
        cc = chow_collection(field_42)
        rebuilt = reconstruct_chow_from_phi(cc.phi(), 4, 2)
        assert rebuilt == cc

    def test_square_base_case(self):
        f = field_from_words(2, 2, {(1, 2): "21"})
        cc = chow_collection(f)
        assert reconstruct_chow_from_phi(cc.phi(), 2, 2) == cc

    def test_flip_graph_field(self, field_53):
        cc = chow_collection(field_53)
        assert reconstruct_chow_from_phi(cc.phi(), 5, 3) == cc

    def test_nonregular_field(self, field_63):
        cc = chow_collection(field_63)
        assert reconstruct_chow_from_phi(cc.phi(), 6, 3) == cc

    def test_random_coherent_round_trip(self):
        field, _, _ = seeded_coherent_field(6, 3, 77)
        cc = chow_collection(field)
        assert reconstruct_chow_from_phi(cc.phi(), 6, 3) == cc

    def test_non_bijective_phi_rejected(self, field_42):
        mapping = dict(chow_collection(field_42).phi().mapping)
        mapping[core.subset_mask((1, 2, 3))] = mapping[core.subset_mask((1, 2, 4))]
        with pytest.raises(InconsistentPhiError):
            reconstruct_chow_from_phi(PhiMap(4, 2, mapping), 4, 2)

    def test_value_off_the_simplex_is_refused(self):
        # right count, distinct values, one of them (-1, 4) off 3 * Delta_1
        mapping = dict(REFERENCE_PHI)
        mapping[core.subset_mask((1, 2, 4))] = (-1, 4)
        message = "^phi values must biject onto the lattice points$"
        with pytest.raises(InconsistentPhiError, match=message):
            PhiMap(4, 2, mapping).validate_bijective()
        with pytest.raises(InconsistentPhiError, match=message):
            reconstruct_chow_from_phi(PhiMap(4, 2, mapping), 4, 2)

    def test_d_above_n_is_refused_as_phi_fault(self):
        # its only key is the empty subset, and no matching field has d > n
        with pytest.raises(InconsistentPhiError, match=r"needs 1 <= d <= n$"):
            reconstruct_chow_from_phi(phi_of(2, 3, {(): (0, 0, 0)}), 2, 3)

    def test_realizable_swap_finds_the_other_field(self, field_42):
        # swapping two values of this bijection lands on the phi map of a
        # different linkage field, which the reconstruction must find
        mapping = dict(chow_collection(field_42).phi().items())
        mapping[(1, 2, 3)], mapping[(1, 2, 4)] = (
            mapping[(1, 2, 4)],
            mapping[(1, 2, 3)],
        )
        rebuilt = reconstruct_chow_from_phi(phi_of(4, 2, mapping), 4, 2)
        other = field_from_chow(rebuilt)
        assert other != field_42
        assert chow_collection(other) == rebuilt

    def test_scrambled_phi_detected(self, field_63):
        # swap two values: still bijective, but from no linkage field
        mapping = dict(chow_collection(field_63).phi().mapping)
        keys = sorted(mapping, key=core.mask_subset)
        a, b = keys[0], keys[5]
        mapping[a], mapping[b] = mapping[b], mapping[a]
        with pytest.raises(InconsistentPhiError):
            reconstruct_chow_from_phi(PhiMap(6, 3, mapping), 6, 3)

    @pytest.mark.parametrize("n", [4, 5])
    def test_exhaustive_small_width_decision(self, n):
        # enumerate every (n,2) matching field; the linkage ones have
        # pairwise-distinct phi maps, and the reconstruction decides every
        # bijection correctly (at width two, each one is realisable)
        import itertools

        from matchfield import BipartiteGraph
        from matchfield.fields import MatchingField, is_linkage

        sigmas = list(subsets(n, 2))
        linkage_phis = {}
        for choice in itertools.product((0, 1), repeat=len(sigmas)):
            assignment = {}
            for sigma, flip in zip(sigmas, choice):
                a, b = sigma
                assignment[sigma] = BipartiteGraph(n, 2, [(a, 1 + flip), (b, 2 - flip)])
            f = MatchingField(n, 2, core.graph_masks(n, 2, assignment))
            if is_linkage(f).ok:
                cc = chow_collection(f)
                key = frozenset(cc.phi().mapping.items())
                assert key not in linkage_phis
                linkage_phis[key] = cc

        rhos = list(subsets(n, n - 1))
        points = simplex_lattice_points(n - 1, 2)
        for perm in itertools.permutations(points):
            mapping = dict(zip(map(core.subset_mask, rhos), perm))
            key = frozenset(mapping.items())
            rebuilt = reconstruct_chow_from_phi(PhiMap(n, 2, mapping), n, 2)
            assert key in linkage_phis and rebuilt == linkage_phis[key]

    @pytest.mark.parametrize(
        "values, message",
        [
            # three values of the phi map of a coherent (4,3) field, rotated
            ({(1, 2): (1, 0, 1), (1, 3): (0, 2, 0), (2, 4): (0, 0, 2)},
             "admitted to two sectors"),
            ({(2, 3): (0, 2, 0), (2, 4): (2, 0, 0), (3, 4): (1, 1, 0)},
             "does not reproduce phi"),
            # two values swapped
            ({(1, 2): (1, 1, 0), (2, 3): (0, 0, 2)}, "sectors do not cover all pairs"),
            ({(2, 4): (2, 0, 0), (3, 4): (0, 2, 0)}, "do not biject onto the lattice points"),
        ],
        ids=["two-sectors", "phi-equality", "coverage", "collection"],
    )
    def test_each_rejection_check(self, values, message):
        # each input is first refused by the named check; the last check,
        # chow_collection(field) == collection, was reached by no input tried
        mapping = {
            (1, 2): (0, 0, 2), (1, 3): (1, 0, 1), (1, 4): (0, 1, 1),
            (2, 3): (1, 1, 0), (2, 4): (0, 2, 0), (3, 4): (2, 0, 0),
        }
        assert reconstruct_chow_from_phi(phi_of(4, 3, mapping), 4, 3)
        mapping.update(values)
        with pytest.raises(InconsistentPhiError, match=message):
            reconstruct_chow_from_phi(phi_of(4, 3, mapping), 4, 3)

    @pytest.mark.parametrize("n,d", SWAP_SIZES)
    def test_agrees_with_deletion_oracle(self, n, d):
        # the true phi map of a coherent field and seeded two-value swaps of
        # it: both routes accept with equal covectors, or both reject
        cc, mappings = coherent_phi_and_swaps(n, d)
        verdicts = []
        for mapping in mappings:
            results = []
            for route in (reconstruct_chow_from_phi, reconstruct_by_deletion):
                try:
                    results.append(route(PhiMap(n, d, mapping), n, d).covectors)
                except InconsistentPhiError:
                    results.append(None)
            assert results[0] == results[1]
            verdicts.append(results[0])
        assert verdicts[0] == cc.covectors

    def test_rebuild_reads_no_covector_again(self, monkeypatch):
        # the table the sweeps build is held as it is: no row of it is read
        # again, as validating it would read every covector once
        n, d = 10, 5
        phi = chow_collection(seeded_coherent_field(n, d, 1)[0]).phi()
        read_rows, calls = core.read_rows, []
        monkeypatch.setattr(core, "read_rows", lambda *args: calls.append(args) or read_rows(*args))
        rebuilt = chow_mod._rebuild(phi, n, d)
        assert calls == []
        ChowCollection(n, d, rebuilt.mask_table)
        assert len(calls) == comb(n, n - d + 1)

    def test_reconstruction_lists_no_subset(self, monkeypatch):
        # phi and the collections are keyed by bitmask from end to end: the
        # key set is counted and every walk over subsets is over bitmasks
        n, d = 10, 5
        cc = chow_collection(seeded_coherent_field(n, d, 1)[0])
        listing, calls = core.subsets, []
        monkeypatch.setattr(core, "subsets", lambda *args: calls.append(args) or listing(*args))
        assert reconstruct_chow_from_phi(cc.phi(), n, d) == cc
        assert calls == []

    @pytest.mark.parametrize(
        "key", [0b1111, 0b11, 0b1_0000_0011, -5, (1, 2, 4), True],
        ids=["four-members", "two-members", "member-beyond-n", "negative", "tuple", "bool"],
    )
    def test_phi_keys_are_counted(self, key):
        # REFERENCE_PHI with its key (1, 2, 4) replaced: four keys, as many
        # as the 3-subsets of [4], one of which is no 3-subset bitmask
        mapping = dict(REFERENCE_PHI)
        mapping[key] = mapping.pop(core.subset_mask((1, 2, 4)))
        with pytest.raises(InconsistentPhiError, match=r"^phi keys must be the \(n-d\+1\)-subsets$"):
            PhiMap(4, 2, mapping).validate_bijective()

    @pytest.mark.parametrize("n,d", SWAP_SIZES)
    def test_held_rebuild_is_the_validated_collection(self, n, d):
        # every phi map the reconstruction accepts is held with the table and
        # rdvs that validating its table gives, in the same order
        accepted = 0
        for mapping in coherent_phi_and_swaps(n, d)[1]:
            try:
                held = reconstruct_chow_from_phi(PhiMap(n, d, mapping), n, d)
            except InconsistentPhiError:
                continue
            validated = ChowCollection(n, d, held.mask_table)
            assert list(held.mask_table.items()) == list(validated.mask_table.items())
            assert list(held.rdvs.items()) == list(validated.rdvs.items())
            accepted += 1
        assert accepted

    def test_deletion_restriction(self, field_42):
        # stripping lj from the covectors through lj gives the collection of
        # the field with lj deleted
        from oracles import subfield_delete_left

        cc = chow_collection(field_42)
        for j in range(1, 5):
            label_map = {x: (x if x < j else x - 1) for x in range(1, 5) if x != j}
            expected = {
                tuple(sorted(label_map[x] for x in rho if x != j)): graph(
                    3, 2, [(label_map[x], i) for x, i in g.edges if x != j]
                )
                for rho, g in cc.items()
                if j in rho
            }
            sub = chow_collection(subfield_delete_left(field_42, j))
            assert expected == dict(sub.covectors)


class TestCertificate:
    """No input tried reaches the certificate's own checks first
    (test_each_rejection_check), so stand-ins show that both still run."""

    def test_rebuilt_field_must_be_linkage(self, field_42, monkeypatch):
        phi = chow_collection(field_42).phi()

        def refuse(field):
            raise NotLinkageError((1, 2, 3))

        monkeypatch.setattr(fields, "require_linkage", refuse)
        with pytest.raises(InconsistentPhiError, match=r"^union over \(1, 2, 3\) is not a tree$"):
            reconstruct_chow_from_phi(phi, 4, 2)

    def test_rebuilt_field_must_give_the_covectors_back(self, field_42, monkeypatch):
        # another linkage (4,2) field: the one of two swapped phi values
        mapping = dict(chow_collection(field_42).phi().items())
        mapping[(1, 2, 3)], mapping[(1, 2, 4)] = mapping[(1, 2, 4)], mapping[(1, 2, 3)]
        other = field_from_chow(reconstruct_chow_from_phi(phi_of(4, 2, mapping), 4, 2))
        assert other != field_42 and is_linkage(other).ok
        phi = chow_collection(field_42).phi()
        monkeypatch.setattr(chow_mod, "field_from_chow", lambda cc: other)
        with pytest.raises(InconsistentPhiError, match="^covectors do not belong to any field$"):
            reconstruct_chow_from_phi(phi, 4, 2)


class TestPhiJson:
    def test_round_trip(self, field_42):
        phi = chow_collection(field_42).phi()
        assert phi_from_json_dict(phi_to_json_dict(phi)) == phi
