"""Flip graph of a matching field and its prodsimplicial cells.

Vertices are the matchings (identified by their d-subsets); two are adjacent
when they differ in exactly one edge, necessarily at the same right node,
which labels the edge.  The graph is built by bucketing the matchings on
what they keep when their ri-edge is removed.  For a linkage field it has
binom(n, d+1) * d edges and decomposes edge-exactly into the linkage trees,
one per (d+1)-subset of left nodes: a flip between a and b lies in the tree
of a ∪ b.  A linkage tree is the same bucket pass run on the d+1 matchings
of its tau; the DOT export of a linkage field colours a flip by a ∪ b.

The matchings contained in a maximal tope with right degree vector v induce a
subgraph isomorphic to the vertex-edge graph of the product of simplices
Delta_{v1-1} x ... x Delta_{vd-1}: a matching corresponds to its tuple of
neighbour choices, and flips change exactly one coordinate.  These product
skeleta are the maximal cells of the prodsimplicial flag complex of the flip
graph, in bijection with the lattice points of (n-d)*Delta_{d-1}, and never
nested: cell(T1) ⊆ cell(T2) puts every edge of T1 in T2, and maximal topes
have n edges each, so T1 = T2.

`maximal_cells` finds every cell in one keyed containment pass.  The
field's matchings are numbered in the colex order of `core.subset_codec`,
which also gives each number its sigma, as it does for `flip_graph`, and
two lists of bitsets over them are built once: holders[b], the matchings
that hold edge bit b, and users[j], those whose sigma holds lj.
A matching lies in the maximal tope with map f when each of its left nodes
j takes the edge (lj, r f(j)), so the matchings inside the tope are every &
~OR_j (users[j] ^ holders[j, f(j)]), and the cell's vertices are the sigmas
of the set bits.  The check that the field holds every product choice is a
count.  The tope is a function, so it holds exactly |N_1| * ... * |N_d|
matchings covering R, at most one per sigma, and each field matching inside
it is one of them: the counts agree exactly when every product choice is
the field's matching on its sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod
from typing import Iterable

from . import core, fields
from .core import BipartiteGraph
from .errors import MatchfieldError, NotLinkageError


@dataclass(frozen=True)
class FlipGraph:
    n: int
    d: int
    vertices: tuple  # d-subsets, sorted
    edges: frozenset  # (sigma1, sigma2, label) with sigma1 < sigma2


def _flips(d: int, matchings: Iterable) -> frozenset:
    """All flips among (sigma, edge mask) pairs in one keyed pass: matchings
    that differ only at ri share the key (matching minus its ri-edge, i), so
    every pair inside one bucket is an edge labelled i."""
    buckets: dict = {}
    for sigma, m in matchings:
        for b in core._bits(m):
            buckets.setdefault((m ^ 1 << b, b % d + 1), []).append(sigma)
    return frozenset(
        (a, b, i)
        for (_, i), group in buckets.items()
        for a, b in combinations(sorted(group), 2)
    )


def flip_graph(field: fields.MatchingField) -> FlipGraph:
    """The flip graph of any field, linkage or not; its vertices are the
    d-subsets of ``core.subset_codec``, in ``core.subsets`` order.  A table
    with other keys raises its fault as a matching field
    (``fields._field_fault``)."""
    table = field.mask_table
    vertices = {mask: sigma for _, mask, sigma in core.subset_codec(field.n, field.d, len(table))}
    if vertices.keys() != table.keys():
        raise fields._field_fault(field.n, field.d, core.all_ones(field.d), table)
    edges = _flips(field.d, ((vertices[k], m) for k, m in table.items()))
    return FlipGraph(field.n, field.d, tuple(vertices.values()), edges)


def expected_edge_count(n: int, d: int) -> int:
    return comb(n, d + 1) * d


@dataclass(frozen=True)
class LinkageTree:
    tau: tuple
    vertices: tuple  # the d-subsets tau minus {l}, keyed by the dropped node
    edges: frozenset  # (sigma1, sigma2, label)


def linkage_tree(field: fields.MatchingField, tau: Iterable[int]) -> LinkageTree:
    """Induced flip subgraph on the d+1 matchings of tau: a tree with d edges.
    Its labels reproduce the linkage covector: an i-flip between M_{tau-j}
    and M_{tau-j'} consists of their edges (lj', ri) and (lj, ri), so both
    lie in the covector, the union over tau.  A covector with a cycle raises
    NotLinkageError."""
    res = fields.linkage_covector(field, tau)
    if not res.ok:
        raise NotLinkageError(res.tau, res.cycle)
    tau = res.tau
    verts = sorted(tuple(x for x in tau if x != drop) for drop in tau)
    table = field.mask_table
    edges = _flips(field.d, ((sigma, table[core.subset_mask(sigma)]) for sigma in verts))
    if len(edges) != field.d:
        raise MatchfieldError(f"induced subgraph on {tau} is not a linkage tree")
    return LinkageTree(tau, tuple(verts), edges)


# ---------------------------------------------------------------------------
# prodsimplicial cells


@dataclass(frozen=True)
class ProdsimplicialCell:
    """Product-of-simplices cell given by the tope's neighbour sets."""

    neighbor_sets: tuple  # tuple of sorted tuples N_1..N_d
    vertices: frozenset  # the d-subsets of the contained matchings


def cell_of_tope(field: fields.MatchingField, tope: BipartiteGraph) -> ProdsimplicialCell:
    """The cell of one maximal tope by scanning its product choices, each
    checked against the field: the per-tope route that `maximal_cells`
    replaces with one containment pass, kept as its oracle."""
    neighbor_sets = tuple(tope.right_neighbors(i) for i in range(1, field.d + 1))
    verts = set()
    column_bits = [[1 << (j - 1) * field.d + i for j in ns] for i, ns in enumerate(neighbor_sets)]
    table = field.mask_table
    for choice, bits in zip(product(*neighbor_sets), product(*column_bits)):
        sigma = tuple(sorted(choice))
        if table[core.subset_mask(sigma)] != sum(bits):
            raise MatchfieldError(f"tope matching on {sigma} is not in the field")
        verts.add(sigma)
    return ProdsimplicialCell(neighbor_sets, frozenset(verts))


def maximal_cells(field: fields.MatchingField) -> dict:
    """One cell per lattice point of (n-d)*Delta_{d-1}, in sorted point
    order, from one containment pass over the field's matchings (see the
    module docstring for the pass and its count check).  A tope that holds
    fewer field matchings than its product choices raises MatchfieldError
    naming the least sigma whose matching in the tope is not the field's.

    The cells are never nested: if cell(T1) ⊆ cell(T2), every edge of the
    maximal tope T1 lies in a matching of the field that T2 contains, so
    T1 ⊆ T2; both have exactly n edges, so T1 = T2 and the two lattice
    points are the same."""
    ta = fields.tope_arrangement(field)
    n, d, table = field.n, field.d, field.mask_table
    codec = core.subset_codec(n, d, len(table))
    holders, users = [0] * (n * d), [0] * n
    for k, (_, key, _) in enumerate(codec):
        for b in core._bits(table[key]):
            holders[b] |= 1 << k
            users[b // d] |= 1 << k
    # the matchings that use lj by another edge than bit b = (lj, ri)
    elsewhere = [users[b // d] ^ holders[b] for b in range(n * d)]
    every = (1 << len(codec)) - 1
    cells = {}
    for point, mask in sorted(ta.mask_table.items()):
        outside, factors = 0, [[] for _ in range(d)]
        for b in core._bits(mask):
            outside |= elsewhere[b]
            factors[b % d].append(b // d + 1)
        held = every ^ outside
        if held.bit_count() != prod(map(len, factors)):
            found = core.right_perfect_matchings(mask, n, d)
            sigma = min(core.mask_subset(J) for J, m in found.items() if table[J] != m)
            raise MatchfieldError(f"tope matching on {sigma} is not in the field")
        vertices = frozenset([codec[b][2] for b in core._bits(held)])
        cells[point] = ProdsimplicialCell(tuple(map(tuple, factors)), vertices)
    return cells


def matching_word(m: BipartiteGraph) -> str:
    """Word encoding of a matching: position i holds the partner of ri."""
    return "".join(str(m.right_neighbors(i)[0]) for i in range(1, m.d + 1))


def flip_graph_to_dot(field: fields.MatchingField, fg: FlipGraph) -> str:
    """DOT export of the field's flip graph fg, edges labelled; on a linkage
    field each linkage tree takes a cycling palette colour by the colex rank
    of its tau (its place in `core.subsets`), and a flip between a and b lies
    in the tree of a ∪ b."""
    fields._matching_field(field)
    palette = ["red", "blue", "green", "orange", "magenta", "cyan", "brown", "black"]
    color = fields.is_linkage(field).ok
    lines = ["graph flips {"]

    def vertex_name(sigma):
        if field.n <= 9:
            return matching_word(field.matching(sigma))
        return "s" + "_".join(map(str, sigma))

    for sigma in fg.vertices:
        lines.append(f'  "{vertex_name(sigma)}";')
    for a, b, label in sorted(fg.edges):
        attrs = [f'label="{label}"']
        if color:
            rank = sum(comb(x - 1, r) for r, x in enumerate(sorted(set(a) | set(b)), start=1))
            attrs.append(f"color={palette[rank % len(palette)]}")
        lines.append(
            f'  "{vertex_name(a)}" -- "{vertex_name(b)}" [{", ".join(attrs)}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
