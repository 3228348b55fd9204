"""End-to-end acceptance checks.

Each test covers one headline guarantee at its stated tolerance (all exact;
the budgets are wall-clock seconds) and prints one line; run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion report.
"""

import itertools
import json
import time
from functools import wraps

from matchfield import (
    BipartiteGraph,
    MatchingStack,
    enumerate_triangulations,
    flip_graph,
    i_amalgamation,
    is_compatible,
    linkage_covector,
    maximal_tope,
    phi,
    reconstruct_chow_from_phi,
    reconstruct_triangulation,
    right_submatching_check,
    simplex_lattice_points,
    staircase_triangulation,
    stack_from_trees,
    tope_arrangement,
    trianguloid_check,
)
from matchfield.chow import chow_collection
from matchfield.cli import run as cli_run
from matchfield.core import canonical_json
from matchfield.fields import (
    check_sector_monotonicity,
    field_from_arrangement,
    field_to_json_dict,
)
from matchfield.flip import expected_edge_count
from matchfield.randgen import seeded_coherent_field, splitmix64
from matchfield.triang import extended_tope_arrangement

from conftest import (
    COVECTORS_42,
    TOPES_42,
    TOPE_COVECTOR_42,
    exhaustive_compatibility,
    mask_table,
)
from oracles import (
    completion_linkage_check,
    linkage_tree_decomposition,
    minimal_transversals,
    stack_left_linkage,
)


def criterion(number, summary):
    def wrap(fn):
        @wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {number:2d}: FAIL - {summary}")
                raise
            print(f"acceptance {number:2d}: PASS - {summary}")

        return inner

    return wrap


COHERENT_SIZES = [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (7, 2), (7, 3)]


def coherent_sample(count, base_seed=20240811):
    for idx in range(count):
        n, d = COHERENT_SIZES[idx % len(COHERENT_SIZES)]
        field, _, _ = seeded_coherent_field(n, d, base_seed + idx)
        yield field


@criterion(1, "reference (4,2) field: linkage, covectors, 1-amalgamation")
def test_reference_field_pipeline(field_42, tope_field_42, tmp_path):
    start = time.monotonic()
    path = tmp_path / "field.json"
    path.write_text(canonical_json(field_to_json_dict(field_42)))
    assert cli_run(["check-linkage", str(path), "--json", str(tmp_path / "out.json")]) == 0
    assert json.loads((tmp_path / "out.json").read_text())["linkage"] is True
    for tau, expected in COVECTORS_42.items():
        res = linkage_covector(field_42, tau)
        assert res.ok and set(res.graph.edges) == set(expected)
    tope_cov = linkage_covector(tope_field_42, (1, 2, 3, 4))
    assert tope_cov.ok and set(tope_cov.graph.edges) == set(TOPE_COVECTOR_42)
    amalg = i_amalgamation(field_42, 1)
    assert amalg.type_vector == (2, 1)
    for sigma, edges in TOPES_42.items():
        assert set(amalg.tope(sigma).edges) == set(edges)
    assert time.monotonic() - start < 1.0


@criterion(2, "Chow right-degree bijection = minimal transversals, 200+ fields")
def test_chow_bijection_and_transversal_oracle(field_42):
    start = time.monotonic()
    checked = 0
    for field in itertools.chain([field_42], coherent_sample(200)):
        cc = chow_collection(field)
        rdvs = sorted(g.right_degrees() for g in cc.covectors.values())
        assert rdvs == simplex_lattice_points(field.n - field.d + 1, field.d)
        assert set(cc.covectors.values()) == minimal_transversals(field)
        checked += 1
    assert checked >= 201
    assert time.monotonic() - start < 60.0


@criterion(3, "covector reconstruction from the phi map is exact")
def test_chow_reconstruction(field_42, field_53):
    for field in itertools.chain([field_42, field_53], coherent_sample(200)):
        cc = chow_collection(field)
        assert reconstruct_chow_from_phi(cc.phi(), field.n, field.d) == cc


@criterion(4, "triangulation reconstruction from degree pairs is exact")
def test_triangulation_reconstruction():
    start = time.monotonic()
    for n, d in [(2, 2), (2, 3), (2, 4)]:
        for t in enumerate_triangulations(n, d):
            assert reconstruct_triangulation(phi(t), n, d) == t
    for n in range(1, 7):
        for d in range(1, 8 - n):
            t = staircase_triangulation(n, d)
            assert reconstruct_triangulation(phi(t), n, d) == t
    assert time.monotonic() - start < 60.0


@criterion(5, "triangulation counts 2, 6, 24 match the factorial bound at n=2")
def test_triangulation_counts():
    from matchfield.triang import count_bound

    for d, expected in [(2, 2), (3, 6), (4, 24)]:
        found = enumerate_triangulations(2, d)
        assert len(found) == expected == count_bound(2, d)


@criterion(6, "flip graphs have binom(n,d+1)*d edges covered once by linkage trees")
def test_flip_graph_structure(field_42, field_53):
    for field in itertools.chain([field_42, field_53], coherent_sample(25)):
        fg = flip_graph(field)
        assert len(fg.edges) == expected_edge_count(field.n, field.d)
        trees = linkage_tree_decomposition(field)
        assert sum(len(t.edges) for t in trees.values()) == len(fg.edges)
    assert len(flip_graph(field_42).edges) == 8
    assert len(flip_graph(field_53).edges) == 15


@criterion(7, "field -> arrangement -> field is the identity; sectors monotone")
def test_cryptomorphism(field_42, field_53, field_63, field_64):
    fixtures = [field_42, field_53, field_63, field_64]
    for field in itertools.chain(fixtures, coherent_sample(25)):
        ta = tope_arrangement(field)
        check_sector_monotonicity(ta.mask_table)
        assert field_from_arrangement(ta) == field


@criterion(8, "hexagon axiom: (2,4) fixture fails T4 at the origin triple only")
def test_trianguloid_axioms(extended_24):
    report = trianguloid_check(extended_24)
    assert report.right_degrees.ok and report.left_cover.ok
    assert report.sector_inclusion.ok
    assert not report.hexagon.ok
    c, triple = report.hexagon.witness
    assert c == (0, 0, 0, 0) and triple == frozenset({1, 2, 3})
    # every triangulation with n + d <= 6 (all enumerable) is a trianguloid
    for n, d in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]:
        for t in enumerate_triangulations(n, d):
            assert trianguloid_check(extended_tope_arrangement(t)).trianguloid


@criterion(9, "stack and completion linkage agree; wide field fails with a cycle")
def test_stacks_and_submatchings(field_64):
    for n, d in [(2, 2), (2, 3), (2, 4)]:
        for t in enumerate_triangulations(n, d):
            stack = stack_from_trees(t.sorted_trees(), n, d)
            assert completion_linkage_check(stack) == (True, True)
    # 50 perturbed stacks that break a layer's linkage: both sides must
    # agree as (False, False) -- a linkage completion would force every
    # layer to be linkage
    stream = splitmix64(909090)
    broken = 0
    sources = [(4, 2), (3, 3), (5, 2), (4, 3)]
    while broken < 50:
        n, d = sources[next(stream) % len(sources)]
        t = staircase_triangulation(n, d)
        stack = stack_from_trees(t.sorted_trees(), n, d)
        entries = {pair: stack.matching(*pair) for pair in stack.pairs()}
        keys = sorted(k for k in entries if len(k[0]) >= 2)
        key = keys[next(stream) % len(keys)]
        J, I = key
        perms = [p for p in itertools.permutations(I) if list(p) != [
            entries[key].left_neighbors(j)[0] for j in J
        ]]
        perm = perms[next(stream) % len(perms)]
        entries[key] = BipartiteGraph(n, d, list(zip(J, perm)))
        perturbed = MatchingStack(n, d, mask_table(entries))
        if stack_left_linkage(perturbed)[0]:
            continue  # this swap left every layer linkage; draw again
        res = completion_linkage_check(perturbed)
        assert res == (False, False)
        broken += 1
    report = right_submatching_check(field_64)
    assert not report.ok
    J, I, kind, _ = report.witness
    assert (J, I, kind) == ((5, 6), (1, 2, 3), "cycle")


@criterion(10, "compatibility oracle equivalence and amalgamation order freedom")
def test_property_suite():
    start = time.monotonic()
    # exhaustive oracle agreement on every graph pair at (4,2) and (3,3)
    for n, d in [(4, 2), (3, 3)]:
        graphs = [
            BipartiteGraph.from_mask(n, d, mask) for mask in range(1 << (n * d))
        ]
        for a in graphs:
            for b in graphs:
                if b.mask < a.mask:
                    continue
                assert is_compatible(a, b)[0] == exhaustive_compatibility(a, b)[0]
    # seeded sampling at (5,3): the full square of pairs is out of reach
    stream = splitmix64(13579)
    for _ in range(4000):
        a = BipartiteGraph.from_mask(5, 3, next(stream) & ((1 << 15) - 1))
        b = BipartiteGraph.from_mask(5, 3, next(stream) & ((1 << 15) - 1))
        assert is_compatible(a, b)[0] == exhaustive_compatibility(a, b)[0]
    # amalgamation order independence up to (6,3)
    for n, d, seed in [(5, 2, 41), (5, 3, 42), (6, 2, 43), (6, 3, 44)]:
        field, _, _ = seeded_coherent_field(n, d, seed)
        for point in simplex_lattice_points(n - d, d):
            v = tuple(x + 1 for x in point)
            base = maximal_tope(field, v)
            pool = [i + 1 for i in range(d) for _ in range(v[i] - 1)]
            for order in set(itertools.permutations(pool)):
                assert maximal_tope(field, v, order=list(order)) == base
    assert time.monotonic() - start < 120.0
