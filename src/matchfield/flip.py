"""Flip graph of a matching field and its prodsimplicial cells.

Vertices are the matchings (identified by their d-subsets); two are adjacent
when they differ in exactly one edge, necessarily at the same right node,
which labels the edge.  The graph is built by bucketing the matchings on
what they keep when their ri-edge is removed.  For a linkage field it has
binom(n, d+1) * d edges and decomposes edge-exactly into the linkage trees,
one per (d+1)-subset of left nodes.

The matchings contained in a maximal tope with right degree vector v induce a
subgraph isomorphic to the vertex-edge graph of the product of simplices
Delta_{v1-1} x ... x Delta_{vd-1}: a matching corresponds to its tuple of
neighbour choices, and flips change exactly one coordinate.  These product
skeleta are the maximal cells of the prodsimplicial flag complex of the flip
graph, in bijection with the lattice points of (n-d)*Delta_{d-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Iterable

from . import core, fields
from .core import BipartiteGraph
from .errors import MatchfieldError


@dataclass(frozen=True)
class FlipGraph:
    n: int
    d: int
    vertices: tuple  # d-subsets, sorted
    edges: frozenset  # (sigma1, sigma2, label) with sigma1 < sigma2

    def degree(self, sigma) -> int:
        sigma = tuple(sorted(sigma))
        return sum(1 for a, b, _ in self.edges if sigma in (a, b))

    def neighbors(self, sigma):
        sigma = tuple(sorted(sigma))
        out = []
        for a, b, label in self.edges:
            if a == sigma:
                out.append((b, label))
            elif b == sigma:
                out.append((a, label))
        return sorted(out)


def _flip_label(m1: BipartiteGraph, m2: BipartiteGraph):
    """Deviating right node if the matchings differ in exactly one edge."""
    only1, only2 = m1.mask & ~m2.mask, m2.mask & ~m1.mask
    b1, b2 = only1.bit_length() - 1, only2.bit_length() - 1
    if only1.bit_count() == only2.bit_count() == 1 and b1 % m1.d == b2 % m1.d:
        return b1 % m1.d + 1
    return None


def flip_graph(field: fields.MatchingField) -> FlipGraph:
    """All flips in one keyed pass: matchings that differ only at ri share the
    key (matching minus its ri-edge, i), so every pair inside one bucket is an
    edge labelled i.  Needs no linkage."""
    buckets: dict = {}
    for sigma, m in field.items():
        for b in core._bits(m.mask):
            buckets.setdefault((m.mask ^ 1 << b, b % field.d + 1), []).append(sigma)
    edges = frozenset(
        (a, b, i)
        for (_, i), group in buckets.items()
        for a, b in combinations(sorted(group), 2)
    )
    return FlipGraph(field.n, field.d, tuple(core.subsets(field.n, field.d)), edges)


def expected_edge_count(n: int, d: int) -> int:
    return comb(n, d + 1) * d


@dataclass(frozen=True)
class LinkageTree:
    tau: tuple
    vertices: tuple  # the d-subsets tau minus {l}, keyed by the dropped node
    edges: frozenset  # (sigma1, sigma2, label)


def linkage_tree(field: fields.MatchingField, tau: Iterable[int]) -> LinkageTree:
    """Induced flip subgraph on the d+1 matchings of tau: a tree with d edges
    whose labels reproduce the linkage covector (the two endpoints of an
    i-labelled edge are the matchings exchanging the partner of ri)."""
    tau = tuple(sorted(tau))
    if len(tau) != field.d + 1:
        raise MatchfieldError(f"tau must have size {field.d + 1}")
    verts = [tuple(x for x in tau if x != drop) for drop in tau]
    union = 0
    for sigma in verts:
        union |= field.matching(sigma).mask
    covector = fields.covector_graph(field.n, field.d, tau, union)
    edges = set()
    for s1, s2 in combinations(verts, 2):
        label = _flip_label(field.matching(s1), field.matching(s2))
        if label is not None:
            a, b = sorted((s1, s2))
            edges.add((a, b, label))
    if len(edges) != field.d:
        raise MatchfieldError(f"induced subgraph on {tau} is not a linkage tree")
    # labels must mirror the covector: an i-edge joins M_{tau-j} and M_{tau-j'}
    # with (lj, ri) and (lj', ri) both covector edges
    for a, b, i in edges:
        (j,) = set(tau) - set(a)
        (j_p,) = set(tau) - set(b)
        if (j, i) not in covector or (j_p, i) not in covector:
            raise MatchfieldError(f"edge labels disagree with the covector on {tau}")
    return LinkageTree(tau, tuple(sorted(verts)), frozenset(edges))


# ---------------------------------------------------------------------------
# prodsimplicial cells


@dataclass(frozen=True)
class ProdsimplicialCell:
    """Product-of-simplices cell given by the tope's neighbour sets."""

    neighbor_sets: tuple  # tuple of sorted tuples N_1..N_d
    vertices: frozenset  # the d-subsets of the contained matchings

    @property
    def factor_dims(self) -> tuple:
        return tuple(len(ns) - 1 for ns in self.neighbor_sets)


def cell_of_tope(field: fields.MatchingField, tope: BipartiteGraph) -> ProdsimplicialCell:
    neighbor_sets = tuple(tope.right_neighbors(i) for i in range(1, field.d + 1))
    verts = set()
    column_bits = [[1 << (j - 1) * field.d + i for j in ns] for i, ns in enumerate(neighbor_sets)]
    for choice, bits in zip(product(*neighbor_sets), product(*column_bits)):
        sigma = tuple(sorted(choice))
        if field.matching(sigma).mask != sum(bits):
            raise MatchfieldError(f"tope matching on {sigma} is not in the field")
        verts.add(sigma)
    return ProdsimplicialCell(neighbor_sets, frozenset(verts))


def maximal_cells(field: fields.MatchingField) -> dict:
    """One cell per lattice point of (n-d)*Delta_{d-1}; vertex sets certified
    inclusion-maximal among each other."""
    ta = fields.tope_arrangement(field)
    cells = {
        point: cell_of_tope(field, tope) for point, tope in ta.items()
    }
    items = sorted(cells.items())
    for (p1, c1), (p2, c2) in combinations(items, 2):
        if c1.vertices < c2.vertices or c2.vertices < c1.vertices:
            raise MatchfieldError(f"cells at {p1} and {p2} are nested")
    return cells


def matching_word(m: BipartiteGraph) -> str:
    """Word encoding of a matching: position i holds the partner of ri."""
    return "".join(str(m.right_neighbors(i)[0]) for i in range(1, m.d + 1))


def flip_graph_to_dot(field: fields.MatchingField, color: bool = True) -> str:
    """DOT export with edge labels; with color, each linkage tree gets one of
    a cycling palette."""
    fg = flip_graph(field)
    palette = ["red", "blue", "green", "orange", "magenta", "cyan", "brown", "black"]
    tree_of_edge = {}
    if color:
        for idx, tau in enumerate(core.subsets(field.n, field.d + 1)):
            tree = linkage_tree(field, tau)
            for edge in tree.edges:
                tree_of_edge[edge] = palette[idx % len(palette)]
    lines = ["graph flips {"]

    def vertex_name(sigma):
        if field.n <= 9:
            return matching_word(field.matching(sigma))
        return "s" + "_".join(map(str, sigma))

    for sigma in fg.vertices:
        lines.append(f'  "{vertex_name(sigma)}";')
    for a, b, label in sorted(fg.edges):
        attrs = [f'label="{label}"']
        if color and (a, b, label) in tree_of_edge:
            attrs.append(f"color={tree_of_edge[(a, b, label)]}")
        lines.append(
            f'  "{vertex_name(a)}" -- "{vertex_name(b)}" [{", ".join(attrs)}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
