"""Second routes to objects the library builds one way: independent
descriptions kept as test oracles.

- Chow covectors as intersections of maximal topes and as the minimal
  transversals of the field (Berge multiplication, desk scale), the
  combinatorial sectors of an rdv-keyed collection (``covectors_by_rdv``),
  and the field read back through the maximal topes, unions of its
  covectors: the oracle for the keyed pass of ``chow.field_from_chow``.
- Colexicographic subsets by recursion on the top member, the oracle for
  ``core.subsets``, the view of the Gosper walk ``core.subset_masks``, and
  a vector set compared sorted with the listed lattice points, the oracle
  for the counting test of ``core.is_simplex_lattice``.
- Necessary conditions on a degree-pair set, screened before a certified
  reconstruction.
- Degree-pair reconstruction that deletes every left leaf at every level
  and checks that the branches agree, the oracle for the one deletion chain
  per tree of ``reconstruct_triangulation``.
- Prodsimplicial cells by amalgamating to the maximal tope and scanning its
  product choices (``flip.cell_of_tope``), the oracle for the containment
  pass of ``flip.maximal_cells``; the tope of a cell's vertex set checked to
  be a product skeleton, a cell's factor dimensions, a vertex's flip
  neighbours by a scan of every edge, and the flip edge count of a linkage
  field.  Flips by testing every pair of matchings, the
  oracle for the keyed pass that builds a linkage tree, and the scan of all
  pairs of cells for a nested one, which the proof in ``flip.maximal_cells``
  says never finds any.
- Graph classification and connected components by breadth-first search,
  degree vectors counted over the edge list, and the forest and
  spanning-tree tests by a cycle search over tagged nodes, which walks the
  closing edge's path by breadth first over neighbour lists: the oracles for
  the degree popcounts, the mask union-find of ``core.find_cycle`` and the
  row walk of ``core.tree_tope``.  The tope inside a tree by a
  breadth-first search from rk over tagged ("L", j) / ("R", i) neighbour
  lists, the oracle for the row-mask walk of ``core.tree_tope`` behind
  ``core.contained_tope``.
- The transversal matroid by an augmenting search over neighbour tuples
  and sets, with the rank found first and the subsets of that size tested
  again: the oracle for the row bitmask search of
  ``stacks.transversal_matroid``.
- Constructions that only theorem checks run: the increasing splitting of a
  tope field into a matching field and its inverse on one graph, the
  induced field on L minus lj, the exact cover of the flip graph by the
  linkage trees, the Stiefel image of a list of graphs, the basis
  exchange axiom of a transversal matroid, left linkage of a stack against
  that of its completion, and coherent tope fields by exhaustive search
  over the column assignments.
- Linkage by building every (k+1)-subset union as a graph and searching it
  for a cycle, the oracle for the edge-count test of ``fields.is_linkage``,
  and the i-amalgamation step built the same way, with its topes read off
  by that breadth-first search, the oracle for the mask test and the walk
  of ``fields.i_amalgamation``.
- Left linkage of a stack by ``fields.is_linkage`` on every fixed-I layer
  field, right linkage as left linkage of the transposed stack, and the
  ensemble check built on them: the oracles for the one edge-count table of
  ``stacks.validate_ensemble``.  Right linkage layer by layer with the sides
  swapped, the oracle for left linkage of the transposed stack.
- The triangulation axioms on graphs with the flip pass after agreement,
  the oracle for ``triang.check_triangulation``, which takes tree masks and
  stops after agreement.  The graph reader of a JSON edge list and the
  degree pair of a tree through its degree vectors: the oracles for the
  masks of ``triang.trees_from_json_dict`` and ``triang.degree_pair``.
- The extended arrangement of a triangulation as every product choice of
  one edge per row of every tree, the oracle for the one walk per tree and
  right node of ``triang.extended_tope_arrangement``.
- Contained matchings as edge tuples in the preorder of the lexicographic
  edge list, and the containment agreement pass over them: the oracles for
  ``core.contained_matchings`` and ``triang.find_agreement_violation``.
  Each graph's matchings by a depth-first search over its nonempty rows,
  the oracle for ``core.agreed_masks`` on one mask.  Each graph's
  matchings listed row by row on its own, the oracle for the one pass of
  ``core.agreed_masks`` shared by all graphs, and every graph's listing by
  that search in turn, the oracle for its witness of a clash.
  The field read off a graph list by filtering all its partial matchings,
  the oracle for ``core.right_perfect_matchings`` in
  ``fields.field_from_graphs``.
- Combinatorial sectors swept level by level in coordinate i, the oracle
  for the breadth-first ``core.sector_sweep``.  Both sector
  reconstructions, degree pairs and phi maps, with every lattice point a
  tuple: the oracles for the integer codes of ``core.sectors``,
  ``triang._tree``, ``triang._deletion`` and ``reconstruct_chow_from_phi``.
  The Chow sweeps with the table they build validated again by
  ``ChowCollection(n, d, table)``, the oracle for the checks that
  ``chow._rebuild`` makes while it builds, and the covectors of a linkage
  field validated the same way, the oracle for the coded pass of
  ``chow.chow_collection``.
- The right-submatching check that rescans every field matching for each
  (J, I') and runs ``is_compatible`` on every contained matching, the
  oracle for the table-driven ``right_submatching_check``.
- Compatibility of two partial maps by peeling sinks, and the pairwise scan
  of a tope arrangement with it: the oracles for the closure over all
  partners of ``core.incompatible_partners``.
- The JSON reader that builds a graph per edge list, the field validator
  that scans a {subset: graph} map in ``core.subsets`` order, and the
  collection validator that reads each covector graph: the oracles for
  ``core.read_masks``, ``fields.field_from_masks`` and the one-pass check
  of ``ChowCollection(n, d, table)``.  The field validator's refusal run on
  the table with its keys turned into tuples, the oracle for the one scan
  of ``fields._field_fault``.  The edge list read by one loop that
  tests each edge's shape before its place, and the field read through it
  and then validated by the row pass: the oracles for the accepting loop of
  ``core.edge_mask`` and the type ``fields.field_from_json_dict`` decides
  while it parses.  The tope arrangement, extended arrangement and
  matching stack held as {key: graph} maps, with the arrangement validated
  graph by graph, and their readers through that JSON reader: the oracles
  for the mask tables of ``TopeArrangement``, ``ExtendedTopeArrangement``
  and ``MatchingStack`` and their readers.
  The maximal topes as unions of covector graphs, the route
  ``field_from_chow_by_topes`` takes.
- Every linkage field at desk scale, by trying every bijection per
  d-subset: the fields on which the checks that ``fields.tope_arrangement``
  leaves to theorems are run after all.
- The subset key read by a second regular expression and a sorted copy of
  its members, the oracle for the one-pass ``core.read_subset_key``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

from matchfield import core, fields
from matchfield.chow import ChowCollection, PhiMap, field_from_chow
from matchfield.core import BipartiteGraph
from matchfield.errors import (
    FieldValidationError,
    InconsistentCollectionError,
    InconsistentPairsError,
    InconsistentPhiError,
    MatchfieldError,
    MissingSubsetError,
    NotAMatchingError,
    NotASpanningTreeError,
    NotLinkageError,
    SizeCapError,
    TiedMinimumError,
    WrongSupportError,
)
from matchfield.flip import (
    FlipGraph,
    ProdsimplicialCell,
    cell_of_tope,
    expected_edge_count,
    flip_graph,
    linkage_tree,
)
from matchfield.stacks import (
    EnsembleReport,
    MatchingStack,
    SubmatchingReport,
    TransversalMatroid,
    completion,
    transversal_matroid,
)
from matchfield.triang import (
    Triangulation,
    TriangulationReport,
    _check_pair_shape,
    check_triangulation,
    find_agreement_violation,
    find_flip_violation,
    tree_count,
)


# ---------------------------------------------------------------------------
# graphs: classification and connected components


@dataclass(frozen=True)
class GraphClass:
    kind: str  # one of: matching, tope, spanning-tree, forest, other
    type_vector: Optional[tuple[int, ...]] = None


def adjacency(g: BipartiteGraph) -> dict[tuple[str, int], list[tuple[str, int]]]:
    """Neighbour lists of the nodes ("L", j) and ("R", i), isolated ones included."""
    adj: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for j in range(1, g.n + 1):
        adj[("L", j)] = []
    for i in range(1, g.d + 1):
        adj[("R", i)] = []
    for j, i in g.edges:
        adj[("L", j)].append(("R", i))
        adj[("R", i)].append(("L", j))
    return adj


def connected_components(g: BipartiteGraph) -> list[set]:
    adj = adjacency(g)
    seen: set = set()
    comps = []
    for root in adj:
        if root in seen:
            continue
        comp = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node in comp:
                continue
            comp.add(node)
            stack.extend(adj[node])
        seen |= comp
        comps.append(comp)
    return comps


def contained_tope_by_search(tree: BipartiteGraph, k: int) -> BipartiteGraph:
    """The unique tope with right degree vector v - 1_{[d] minus k} inside a tree.

    The tree must cover every right node and be a tree on its support
    (isolated left nodes are ignored, so linkage covectors on a subset of L
    qualify): it has one edge fewer than nodes and the search from rk
    reaches them all, so no cycle search is needed.  Rooting the tree at rk,
    the last edge of the path from rk to every other right node is removed;
    that edge is the one joining the other right node to its parent.
    """
    if not (1 <= k <= tree.d):
        raise MatchfieldError(f"right index {k} out of range")
    right = tree.right_degrees()
    if any(deg == 0 for deg in right):
        raise NotASpanningTreeError("tree must cover every right node")
    nodes = len(tree.left_support()) + tree.d
    if len(tree) != nodes - 1:
        raise NotASpanningTreeError("input is not a tree on its support")
    # BFS from rk; drop the parent edge of every other right node
    adj = adjacency(tree)
    parent: dict = {("R", k): None}
    frontier = [("R", k)]
    drop = []
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adj[node]:
                if nb in parent:
                    continue
                parent[nb] = node
                if nb[0] == "R":
                    drop.append((node[1], nb[1]))
                nxt.append(nb)
        frontier = nxt
    if len(parent) != nodes:  # nodes - 1 edges: disconnected exactly when cyclic
        raise NotASpanningTreeError("input is not a tree on its support")
    return tree.difference(BipartiteGraph(tree.n, tree.d, drop))


def find_cycle_by_graph(g: BipartiteGraph) -> Optional[list[tuple[int, int]]]:
    """Oracle for the mask union-find of ``core.find_cycle``: some cycle of
    g as an edge list, or None if g is a forest.  Edges join a union-find
    over tagged ("L", j) / ("R", i) nodes in lexicographic order, and the
    first edge closing a cycle determines it: the path between its ends by a
    breadth-first search over the neighbour lists of the earlier edges, then
    the edge."""
    parent: dict = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj: dict = {}
    for j, i in g.edges:
        a, b = ("L", j), ("R", i)
        for node in (a, b):
            parent.setdefault(node, node)
            adj.setdefault(node, [])
        ra, rb = find(a), find(b)
        if ra == rb:
            path = _forest_path(adj, a, b)
            edges = []
            for u, v in zip(path, path[1:]):
                l, r = (u, v) if u[0] == "L" else (v, u)
                edges.append((l[1], r[1]))
            edges.append((j, i))
            return edges
        parent[ra] = rb
        adj[a].append(b)
        adj[b].append(a)
    return None


def _forest_path(adj, start, goal):
    prev = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adj[node]:
                if nb in prev:
                    continue
                prev[nb] = node
                if nb == goal:
                    path = [nb]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return path[::-1]
                nxt.append(nb)
        frontier = nxt
    raise MatchfieldError("no path in forest")  # unreachable for joined components


def is_forest(g: BipartiteGraph) -> bool:
    return find_cycle_by_graph(g) is None


def is_spanning_tree_by_cycles(g: BipartiteGraph) -> bool:
    """Connected and acyclic on all n + d nodes: an acyclic graph with
    n + d - 1 edges has exactly one component."""
    return len(g) == g.n + g.d - 1 and is_forest(g)


def read_graph(n: int, d: int, edges) -> BipartiteGraph:
    """A graph from its JSON edge list, read by ``core.edge_mask``: the
    graph route of the triangulation reader, which keeps the masks."""
    return BipartiteGraph.from_mask(n, d, core.edge_mask(n, d, edges)[0])


def degree_vectors(g: BipartiteGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Left and right degree vectors counted over the edge list: the oracle
    for the row and column popcounts of ``BipartiteGraph.left_degrees`` and
    ``right_degrees``."""
    left, right = [0] * g.n, [0] * g.d
    for j, i in g.edges:
        left[j - 1] += 1
        right[i - 1] += 1
    return tuple(left), tuple(right)


def tree_degree_pair(g: BipartiteGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Normalised (left, right) degree pair of a spanning tree through its
    degree vectors: the oracle for the popcounts of ``triang.degree_pair``."""
    left, right = degree_vectors(g)
    return tuple(x - 1 for x in left), tuple(x - 1 for x in right)


def classify(g: BipartiteGraph) -> GraphClass:
    """Classify with priority matching > tope > spanning tree > forest > other."""
    left, right = degree_vectors(g)
    if all(deg >= 1 for deg in right) and all(deg <= 1 for deg in left):
        if all(deg == 1 for deg in right):
            return GraphClass("matching", right)
        return GraphClass("tope", right)
    if is_spanning_tree_by_cycles(g):
        return GraphClass("spanning-tree")
    if is_forest(g):
        return GraphClass("forest")
    return GraphClass("other")


# ---------------------------------------------------------------------------
# Chow covectors: intersections of topes, transversals, sectors


def chow_by_intersection(
    ta: fields.TopeArrangement, v: Sequence[int]
) -> BipartiteGraph:
    """Covector with right degree vector v from the maximal topes.

    Intersect the topes with right degree vector v + 1_{[d] minus i} over the
    i with v_i > 0; coordinates with v_i = 0 contribute no tope, and instead
    every ri-edge is deleted from the result."""
    v = tuple(v)
    n, d = ta.n, ta.d
    if len(v) != d or sum(v) != n - d + 1 or any(x < 0 for x in v):
        raise MatchfieldError(f"{v} is not a lattice point of {n - d + 1}Δ_{d - 1}")
    mask: Optional[int] = None
    for i in range(1, d + 1):
        if v[i - 1] == 0:
            continue
        # tope rdv v + 1_{[d] minus i} is keyed by the lattice point v - e_i
        point = tuple(x - (1 if t == i else 0) for t, x in enumerate(v, start=1))
        tope = ta.tope(point).mask
        mask = tope if mask is None else mask & tope
    assert mask is not None  # sum v = n - d + 1 >= 1 forces a positive entry
    current = BipartiteGraph.from_mask(n, d, mask)
    drop = []
    for i in range(1, d + 1):
        if v[i - 1] == 0:
            drop.extend((j, i) for j in current.right_neighbors(i))
    return current.difference(BipartiteGraph(n, d, drop))


def is_transversal(g: BipartiteGraph, field: fields.MatchingField) -> bool:
    """True when g shares an edge with every matching of the field."""
    return all(g.mask & m.mask for _, m in field.items())


def minimal_transversals(
    field: fields.MatchingField, cap: tuple[int, int] = (7, 3)
) -> set[BipartiteGraph]:
    """All inclusion-minimal transversals, by Berge multiplication.

    Exponential oracle; sizes are capped (default n <= 7, d <= 3).
    """
    n, d = field.n, field.d
    if n > cap[0] or d > cap[1]:
        raise SizeCapError(f"minimal_transversals capped at {cap}")
    minimal: list[int] = [0]
    for _, m in sorted(field.items()):
        hyper = m.mask
        fresh: list[int] = []
        for h in minimal:
            if h & hyper:
                fresh.append(h)
            else:
                for b in core._bits(hyper):
                    fresh.append(h | (1 << b))
        minimal = _minimize(fresh)
    return {BipartiteGraph.from_mask(n, d, mask) for mask in minimal}


def _minimize(masks: list[int]) -> list[int]:
    masks = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in masks:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


@dataclass(frozen=True)
class SectorImage:
    """Degree pairs of the collection members where lj is a leaf on ri."""

    j: int
    i: int
    members: frozenset


def covectors_by_rdv(cc: ChowCollection) -> dict[tuple, BipartiteGraph]:
    """The covectors of a collection as {rdv: graph}, the form the sector
    and tope oracles read."""
    n, d, table = cc.n, cc.d, cc.mask_table
    return {v: BipartiteGraph.from_mask(n, d, table[rho]) for rho, v in cc.rdvs.items()}


def sector(collection: dict, j: int, i: int) -> SectorImage:
    """Members of an rdv-keyed collection containing (lj, ri) with lj of
    degree 1, reported by their (left, right) degree-vector pairs."""
    members = []
    for _, g in sorted(collection.items()):
        if (j, i) in g and g.left_degrees()[j - 1] == 1:
            members.append((g.left_degrees(), g.right_degrees()))
    return SectorImage(j, i, frozenset(members))


def sector_sweep_by_levels(member_rdvs: set, i: int, seed: tuple) -> set:
    """Oracle for ``core.sector_sweep``: from the seed at the top level of
    coordinate i downwards, a member joins when an admitted member sits at
    v + e_i - e_k (k != i, v_k > 0).  Empty when the seed is not a member."""
    if seed not in member_rdvs:
        return set()
    admitted = {seed}
    by_level: dict[int, list[tuple]] = {}
    for rdv in member_rdvs:
        by_level.setdefault(rdv[i - 1], []).append(rdv)
    for h in range(seed[i - 1] - 1, -1, -1):
        for rdv in by_level.get(h, []):
            for k in range(len(rdv)):
                if k == i - 1 or rdv[k] == 0:
                    continue
                up = list(rdv)
                up[i - 1] += 1
                up[k] -= 1
                if tuple(up) in admitted:
                    admitted.add(rdv)
                    break
    return admitted


def field_from_chow_by_topes(cc: ChowCollection) -> fields.MatchingField:
    """Oracle for ``chow.field_from_chow``: the tope with right degree vector
    v is the union of the covectors at v - 1_{[d] minus i}, and the maximal
    matchings of the topes, one per choice of a neighbour of every ri, give
    the field.  A union that is not a maximal tope, or two topes holding
    different matchings on one d-subset, raise InconsistentCollectionError."""
    n, d = cc.n, cc.d
    topes = topes_from_covectors(n, d, cc.covectors.values())
    assignment: dict = {}
    for tope in topes.values():
        for choice in product(*(tope.right_neighbors(i) for i in range(1, d + 1))):
            sigma = tuple(sorted(choice))
            m = BipartiteGraph(n, d, list(zip(choice, range(1, d + 1))))
            if assignment.setdefault(sigma, m) != m:
                raise InconsistentCollectionError(f"conflicting matchings on {sigma}")
    return fields.validate_matching_field(n, d, assignment)


# ---------------------------------------------------------------------------
# subsets


def subsets_by_recursion(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Oracle for ``core.subsets``: the k-subsets of [n] in colexicographic
    order, every (k-1)-subset of [top - 1] followed by top, for top = k..n."""
    if k == 0:
        yield ()
        return
    for top in range(k, n + 1):
        for rest in subsets_by_recursion(top - 1, k - 1):
            yield rest + (top,)


def is_simplex_lattice_by_listing(vectors, m: int, dim: int) -> bool:
    """Oracle for ``core.is_simplex_lattice``: the sorted vectors equal the
    listed lattice points of m * Delta_{dim-1}."""
    return sorted(vectors) == core.simplex_lattice_points(m, dim)


# ---------------------------------------------------------------------------
# flip graphs and cells


def _flip_label(m1: BipartiteGraph, m2: BipartiteGraph):
    """Deviating right node if the matchings differ in exactly one edge."""
    only1, only2 = m1.mask & ~m2.mask, m2.mask & ~m1.mask
    b1, b2 = only1.bit_length() - 1, only2.bit_length() - 1
    if only1.bit_count() == only2.bit_count() == 1 and b1 % m1.d == b2 % m1.d:
        return b1 % m1.d + 1
    return None


def linkage_tree_edges_by_scan(field: fields.MatchingField, tau: Sequence[int]) -> frozenset:
    """The flips among the d+1 matchings of tau, pair by pair."""
    verts = [tuple(x for x in sorted(tau) if x != drop) for drop in sorted(tau)]
    edges = set()
    for s1, s2 in combinations(verts, 2):
        label = _flip_label(field.matching(s1), field.matching(s2))
        if label is not None:
            a, b = sorted((s1, s2))
            edges.add((a, b, label))
    return frozenset(edges)


def flip_neighbors(fg: FlipGraph, sigma: Iterable[int]) -> list[tuple]:
    """The (neighbour, label) pairs of sigma in the flip graph, sorted, by a
    scan over every edge."""
    sigma = tuple(sorted(sigma))
    out = []
    for a, b, label in fg.edges:
        if a == sigma:
            out.append((b, label))
        elif b == sigma:
            out.append((a, label))
    return sorted(out)


def factor_dims(cell: ProdsimplicialCell) -> tuple:
    """The dimensions of the simplices whose product the cell is."""
    return tuple(len(ns) - 1 for ns in cell.neighbor_sets)


def nested_cells_by_scan(cells: dict) -> list[tuple]:
    """Every pair of lattice points whose cells' vertex sets are nested."""
    return [
        (p1, p2)
        for (p1, c1), (p2, c2) in combinations(sorted(cells.items()), 2)
        if c1.vertices < c2.vertices or c2.vertices < c1.vertices
    ]


def tope_to_cell(field: fields.MatchingField, v: Sequence[int]) -> ProdsimplicialCell:
    """Cell of the maximal tope with right degree vector v: its matchings are
    the transversals of the neighbour sets."""
    tope = fields.maximal_tope(field, v)
    return cell_of_tope(field, tope)


class NotAProductSkeletonError(MatchfieldError):
    """A vertex set does not induce the 1-skeleton of a product of simplices."""


def cell_to_tope(field: fields.MatchingField, vertices: Iterable) -> BipartiteGraph:
    """Union of the matchings of a cell's vertex set, verified to be a product
    skeleton via the neighbour-choice coordinatisation."""
    verts = sorted(tuple(sorted(s)) for s in vertices)
    mask = 0
    for sigma in verts:
        mask |= field.matching(sigma).mask
    union = BipartiteGraph.from_mask(field.n, field.d, mask)
    left, right = degree_vectors(union)
    if any(deg > 1 for deg in left) or any(deg < 1 for deg in right):
        raise NotAProductSkeletonError("union of the matchings is not a tope")
    neighbor_sets = tuple(union.right_neighbors(i) for i in range(1, field.d + 1))
    coords = {}
    for sigma in verts:
        m = field.matching(sigma)
        coord = tuple((m.right_neighbors(i))[0] for i in range(1, field.d + 1))
        coords[sigma] = coord
    expected = {tuple(sorted(c)): c for c in product(*neighbor_sets)}
    if sorted(coords) != sorted(expected) or any(
        coords[s] != expected[s] for s in coords
    ):
        raise NotAProductSkeletonError("vertex set is not a full product of simplices")
    # flips must change exactly one coordinate
    for s1, s2 in combinations(verts, 2):
        label = _flip_label(field.matching(s1), field.matching(s2))
        differ = sum(1 for a, b in zip(coords[s1], coords[s2]) if a != b)
        if (label is not None) != (differ == 1):
            raise NotAProductSkeletonError("flip structure disagrees with coordinates")
    return union


def edge_count_check(field: fields.MatchingField) -> bool:
    """Edge count of the flip graph equals binom(n, d+1) * d (linkage only)."""
    fields.require_linkage(field)
    return len(flip_graph(field).edges) == expected_edge_count(field.n, field.d)


# ---------------------------------------------------------------------------
# necessary conditions on pair sets


def _adjacent_pairs(p, q):
    """Both components differ by +1/-1 in exactly two coordinates."""

    def one_swap(a, b):
        diffs = [x - y for x, y in zip(a, b)]
        return sorted(x for x in diffs if x) == [-1, 1]

    return one_swap(p[0], q[0]) and one_swap(p[1], q[1])


@dataclass(frozen=True)
class NecessaryConditionsReport:
    projections_ok: bool
    adjacency_ok: bool
    deletion_ok: Optional[bool]  # None when an earlier condition already failed
    witness: Optional[tuple] = None

    @property
    def ok(self):
        return bool(self.projections_ok and self.adjacency_ok and self.deletion_ok)


def necessary_conditions(pairs: Iterable, n: int, d: int, check_deletions: bool = True):
    """Screen a pair set against conditions every triangulation image meets:
    bijective projections, enough adjacent pairs (at least n+d-1-l(p) where
    l(p) counts unnormalised entries equal to 1), and existence of a deletion
    satisfying the first two conditions (searched exhaustively)."""
    pairs = frozenset((tuple(u), tuple(v)) for u, v in pairs)
    try:
        _check_pair_shape(pairs, n, d)
    except InconsistentPairsError as exc:
        return NecessaryConditionsReport(False, None, None, (str(exc),))

    plist = sorted(pairs)
    for p in plist:
        l_p = sum(1 for x in p[0] if x == 0) + sum(1 for x in p[1] if x == 0)
        needed = n + d - 1 - l_p
        have = sum(1 for q in plist if q != p and _adjacent_pairs(p, q))
        if have < needed:
            return NecessaryConditionsReport(True, False, None, (p, have, needed))

    if not check_deletions:
        return NecessaryConditionsReport(True, True, True)
    for pos in range(n):
        members = [p for p in plist if p[0][pos] == 0]
        if not _deletion_exists(members, pos, None, n, d):
            return NecessaryConditionsReport(True, True, False, ("left", pos + 1))
    for ipos in range(d):
        members = [p for p in plist if p[1][ipos] == 0]
        if not _deletion_exists(members, None, ipos, n, d):
            return NecessaryConditionsReport(True, True, False, ("right", ipos + 1))
    return NecessaryConditionsReport(True, True, True)


def _deletion_exists(members, pos, ipos, n, d):
    """Search a choice of decremented coordinate per member making the
    deletion satisfy the first two conditions."""
    if pos is not None:
        n_new, d_new = n - 1, d
    else:
        n_new, d_new = n, d - 1

    def candidates(p):
        u, v = p
        if pos is not None:
            base_u = tuple(x for t, x in enumerate(u) if t != pos)
            return [
                ((base_u, tuple(x - (1 if t == k else 0) for t, x in enumerate(v))))
                for k in range(d)
                if v[k] >= 1
            ]
        base_v = tuple(x for t, x in enumerate(v) if t != ipos)
        return [
            ((tuple(x - (1 if t == k else 0) for t, x in enumerate(u)), base_v))
            for k in range(n)
            if u[k] >= 1
        ]

    options = [candidates(p) for p in members]

    def search(idx, chosen):
        if idx == len(options):
            rep = necessary_conditions(chosen, n_new, d_new, check_deletions=False)
            return rep.projections_ok and rep.adjacency_ok
        for cand in options[idx]:
            if cand in chosen:
                continue
            if search(idx + 1, chosen | {cand}):
                return True
        return False

    return search(0, frozenset())


# ---------------------------------------------------------------------------
# degree-pair reconstruction deleting every left leaf


def reconstruct_by_every_leaf(pairs, left_labels, right_labels, memo):
    """Oracle for ``triang._tree``: the recursion that deletes every left
    leaf j at every level and checks that the branches agree.

    pairs: normalised degree pairs over the given label tuples.

    Returns {degree pair: edge tuple in original labels}, each tree keyed
    by its own degree pair; a base case does so whatever pair was asked
    for, so that a wrong request fails the caller's lookup.
    """
    key = (left_labels, right_labels, pairs)
    if key in memo:
        return memo[key]
    n, d = len(left_labels), len(right_labels)
    if n == 1:
        (pair,) = pairs
        trees = {((d - 1,), (0,) * d): tuple((left_labels[0], i) for i in right_labels)}
        memo[key] = trees
        return trees
    if d == 1:
        trees = {((0,) * n, (n - 1,)): tuple((j, right_labels[0]) for j in left_labels)}
        memo[key] = trees
        return trees
    if n < d:
        flipped = frozenset((v, u) for u, v in pairs)
        sub = reconstruct_by_every_leaf(flipped, right_labels, left_labels, memo)
        trees = {(u, v): tuple(sorted((j, i) for i, j in t)) for (v, u), t in sub.items()}
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
            for rdv in sector_sweep_by_levels(member_rdvs, ipos + 1, seed):
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
        sub_trees = reconstruct_by_every_leaf(
            frozenset(sub_pairs), sub_left, right_labels, memo
        )
        for (sub_u, sub_v), (rdv, i) in sub_pairs.items():
            base = sub_trees.get((sub_u, sub_v))
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
    memo[key] = trees
    return trees


def reconstruct_triangulation_by_every_leaf(pairs: Iterable, n: int, d: int):
    """``reconstruct_by_every_leaf`` under the shape check and the
    certificate of ``reconstruct_triangulation``: the trees must reproduce
    the pairs and satisfy the axioms."""
    pairs = frozenset((tuple(u), tuple(v)) for u, v in pairs)
    _check_pair_shape(pairs, n, d)
    trees = reconstruct_by_every_leaf(pairs, tuple(range(1, n + 1)), tuple(range(1, d + 1)), {})
    t = Triangulation(n, d, [BipartiteGraph(n, d, edges).mask for edges in trees.values()])
    if frozenset(tree_degree_pair(g) for g in t.trees) != pairs:
        raise InconsistentPairsError("reconstruction does not reproduce the pairs")
    if not check_triangulation_with_flip(t.trees, n, d).ok:
        raise InconsistentPairsError("rebuilt trees violate an axiom")
    return t


def check_triangulation_with_flip(
    trees: Iterable[BipartiteGraph], n: int, d: int
) -> TriangulationReport:
    """Count, spanning, agreement and then the flip axiom, the first failing
    check reported with its witness: the oracle for ``check_triangulation``,
    which stops after agreement because the flip axiom follows from it."""
    trees = sorted(set(trees), key=lambda g: g.mask)
    if len(trees) != tree_count(n, d):
        return TriangulationReport(False, "count", (len(trees), tree_count(n, d)))
    for g in trees:
        if g.n != n or g.d != d or not is_spanning_tree_by_cycles(g):
            return TriangulationReport(False, "spanning", (g,))
    witness = find_agreement_violation(trees)
    if witness is not None:
        return TriangulationReport(False, "agreement", witness)
    witness = find_flip_violation(trees)
    if witness is not None:
        return TriangulationReport(False, "flip", witness)
    return TriangulationReport(True)


# ---------------------------------------------------------------------------
# both sector reconstructions on tuples


def sector_sweep(member_rdvs: set, i: int, seed: tuple) -> set:
    """Oracle for the coded ``core.sector_sweep``: the same breadth-first
    search with the moves v -> v - e_i + e_k made on tuples."""
    if seed not in member_rdvs:
        return set()
    admitted, queue = {seed}, [seed]
    i -= 1
    for v in queue:  # grows while it is read, first in first out
        if v[i]:
            down = list(v)
            down[i] -= 1
            for k in range(len(v)):  # k = i gives v back, already admitted
                down[k] += 1
                w = tuple(down)
                down[k] -= 1
                if w in member_rdvs and w not in admitted:
                    admitted.add(w)
                    queue.append(w)
    return admitted


def sectors(member_rdvs: set, rdvs, top: int, j: int, error: type) -> dict:
    """Oracle for the coded ``core.sectors``: {rdv: i} over tuples, with
    the same checks, witnesses and messages."""
    d = len(next(iter(rdvs)))
    sector: dict = {}
    for i in range(1, d + 1):
        seed = tuple(top if t == i else 0 for t in range(1, d + 1))
        if seed not in rdvs:
            raise error(f"no member with extreme rdv {seed}")
        admitted = sector_sweep(member_rdvs, i, seed)
        for rdv in admitted:
            if rdv in sector:
                twice = min(v for v in admitted if sector.get(v, i) != i)
                raise error(f"rdv {twice} admitted to two sectors of {j}")
            sector[rdv] = i
    if sector.keys() != member_rdvs:
        raise error(f"sectors do not cover all pairs through {j}")
    return sector


def tuple_tree(pair, pairs, left_labels, right_labels, memo):
    """Oracle for the coded ``triang._tree``: the same deletion chain with
    each degree pair a pair of tuples; memo holds each deletion step and
    each transposed pair set."""
    n, d = len(left_labels), len(right_labels)
    if n == 1:
        return tuple((left_labels[0], i) for i in right_labels)
    if d == 1:
        return tuple((j, right_labels[0]) for j in left_labels)
    u, v = pair
    if n < d:
        key = (left_labels, right_labels, pairs)
        if key not in memo:
            memo[key] = frozenset((b, a) for a, b in pairs)
        sub = tuple_tree((v, u), memo[key], right_labels, left_labels, memo)
        return tuple((j, i) for i, j in sub)
    pos = u.index(0)
    key = (left_labels, right_labels, pairs, pos)
    if key not in memo:
        memo[key] = tuple_deletion(pairs, pos, n, left_labels[pos])
    down, facet = memo[key]
    i, sub_pair = down[pair]
    sub_left = left_labels[:pos] + left_labels[pos + 1 :]
    sub = tuple_tree(sub_pair, facet, sub_left, right_labels, memo)
    return sub + ((left_labels[pos], right_labels[i - 1]),)


def tuple_deletion(pairs, pos, n, j):
    """Oracle for the coded ``triang._deletion``: ({pair: (i, facet pair)},
    facet pairs) over tuples."""
    rdvs = {v for _, v in pairs}
    members = [(u, v) for u, v in pairs if u[pos] == 0]
    sector = sectors({v for _, v in members}, rdvs, n - 1, j, InconsistentPairsError)
    down = {}
    for u, v in members:
        i = sector[v]
        if v[i - 1] == 0:
            raise InconsistentPairsError("deletion leaves a negative degree")
        down[(u, v)] = (i, (u[:pos] + u[pos + 1 :], v[: i - 1] + (v[i - 1] - 1,) + v[i:]))
    return down, frozenset(facet for _, facet in down.values())


def reconstruct_triangulation_on_tuples(pairs: Iterable, n: int, d: int, memo=None):
    """``tuple_tree`` under the shape check, the pair recount and the
    certificate of ``reconstruct_triangulation``, with its messages; memo,
    when given, keeps the deletion steps for inspection."""
    pairs = frozenset((tuple(u), tuple(v)) for u, v in pairs)
    _check_pair_shape(pairs, n, d)
    left, right = tuple(range(1, n + 1)), tuple(range(1, d + 1))
    memo = {} if memo is None else memo
    t = Triangulation(n, d, [
        BipartiteGraph(n, d, tuple_tree(pair, pairs, left, right, memo)).mask
        for pair in sorted(pairs)
    ])
    if frozenset(tree_degree_pair(g) for g in t.trees) != pairs:
        raise InconsistentPairsError("reconstruction does not reproduce the pairs")
    report = check_triangulation(t.masks, n, d)
    if not report.ok:
        raise InconsistentPairsError(f"rebuilt trees violate the {report.kind} axiom")
    return t


def reconstruct_chow_on_tuples(phi: PhiMap, n: int, d: int) -> ChowCollection:
    """Oracle for the coded ``chow.reconstruct_chow_from_phi``: the sectors
    of every left node on tuples, then the same certificate."""
    if (phi.n, phi.d) != (n, d):
        raise MatchfieldError("phi dimensions disagree")
    phi.validate_bijective()
    by_rdv = {v: rho for rho, v in phi.mapping.items()}
    table = dict.fromkeys(by_rdv.values(), 0)
    for j in range(n):
        member_rdvs = {v for v, rho in by_rdv.items() if rho >> j & 1}
        sector = sectors(member_rdvs, by_rdv, n - d + 1, j + 1, InconsistentPhiError)
        for rdv, i in sector.items():
            table[by_rdv[rdv]] |= 1 << (j * d + i - 1)
    try:
        collection = ChowCollection(n, d, table)
        if collection.rdvs != phi.mapping:
            raise InconsistentPhiError("reconstruction does not reproduce phi")
        field = field_from_chow(collection)
        fields.require_linkage(field)
        if fields.chow_masks(n, d, field.mask_table) != collection.mask_table:
            raise InconsistentPhiError("covectors do not belong to any field")
    except (FieldValidationError, InconsistentCollectionError, NotLinkageError) as exc:
        raise InconsistentPhiError(str(exc)) from exc
    return collection


def chow_collection_by_validation(field: fields.TopeField) -> ChowCollection:
    """Oracle for the coded pass of ``chow.chow_collection``: linkage
    required first, then the plain keyed pass, its table validated by
    ``ChowCollection(n, d, table)`` (one ``core.read_rows`` per covector and
    the lattice count)."""
    fields.require_linkage(field)
    n, d = field.n, field.d
    return ChowCollection(n, d, fields.chow_masks(n, d, field.mask_table))


def rebuild_by_validation(phi: PhiMap, n: int, d: int) -> ChowCollection:
    """Oracle for ``chow._rebuild``: the same sector sweeps, with every
    point coded by ``core.encode_point`` and every rho its bitmask key, and
    the table they build then validated by ``ChowCollection(n, d, table)``
    and compared with phi."""
    base = n - d + 2  # above every coordinate
    by_code = {core.encode_point(v, base): rho for rho, v in phi.mapping.items()}
    table = dict.fromkeys(by_code.values(), 0)
    for j in range(n):
        members = {x for x, rho in by_code.items() if rho >> j & 1}
        sector = core.sectors(members, n - d + 1, j + 1, InconsistentPhiError, d, base)
        for x, i in sector.items():
            table[by_code[x]] |= 1 << (j * d + i - 1)
    try:
        collection = ChowCollection(n, d, table)
    except InconsistentCollectionError as exc:
        raise InconsistentPhiError(str(exc)) from exc
    if collection.rdvs != phi.mapping:
        raise InconsistentPhiError("reconstruction does not reproduce phi")
    return collection


# ---------------------------------------------------------------------------
# splitting right nodes and deleting a left node


def increasing_splitting(tf: fields.TopeField) -> fields.MatchingField:
    """Split right node ri into v_i copies; within each tope the neighbours of
    ri go to increasing copies in increasing index order.  Returns an (n, k)
    matching field on the flattened copy nodes."""
    v = tf.type_vector
    k = tf.thickness
    offset = [0]
    for x in v:
        offset.append(offset[-1] + x)
    assignment = {}
    for sigma, tope in tf.items():
        edges = []
        for i in range(1, tf.d + 1):
            for t, j in enumerate(sorted(tope.right_neighbors(i)), start=1):
                edges.append((j, offset[i - 1] + t))
        assignment[sigma] = BipartiteGraph(tf.n, k, edges)
    return fields.MatchingField(tf.n, k, core.graph_masks(tf.n, k, assignment))


def collapse_split_graph(g: BipartiteGraph, type_vector: Sequence[int]) -> BipartiteGraph:
    """Inverse of the splitting on a single graph: merge the copy nodes back."""
    v = tuple(type_vector)
    lookup = {}
    col = 0
    for i, count in enumerate(v, start=1):
        for _ in range(count):
            col += 1
            lookup[col] = i
    return BipartiteGraph(g.n, len(v), [(j, lookup[i]) for j, i in g.edges])


def subfield_delete_left(field: fields.MatchingField, j: int) -> fields.MatchingField:
    """Induced field on L minus lj: keep the subsets avoiding j, relabel."""
    label_map = {old: new for new, old in enumerate(
        [x for x in range(1, field.n + 1) if x != j], start=1
    )}
    assignment = {}
    for sigma, m in field.items():
        if j in sigma:
            continue
        assignment[tuple(label_map[x] for x in sigma)] = BipartiteGraph(
            field.n - 1, field.d, [(label_map[x], i) for x, i in m.edges]
        )
    n, d = field.n - 1, field.d
    return fields.MatchingField(n, d, core.graph_masks(n, d, assignment))


def linkage_tree_decomposition(field: fields.MatchingField) -> dict:
    """Every flip edge lies in exactly one linkage tree; returns tau -> tree
    and certifies the exact cover."""
    fg = flip_graph(field)
    cover: dict = {}
    trees = {}
    for tau in core.subsets(field.n, field.d + 1):
        tree = linkage_tree(field, tau)
        trees[tau] = tree
        for edge in tree.edges:
            if edge in cover:
                raise MatchfieldError(f"flip edge {edge} covered twice")
            cover[edge] = tau
    if set(cover) != set(fg.edges):
        raise MatchfieldError("linkage trees do not cover the flip graph exactly")
    return trees


def stiefel_image(graphs: Iterable[BipartiteGraph]) -> list[TransversalMatroid]:
    """Transversal matroid of every graph in the collection, in order."""
    return [transversal_matroid(g) for g in graphs]


def _has_perfect_left_matching(g: BipartiteGraph, J: Sequence[int]) -> bool:
    """Augmenting-path search: can J be matched injectively into R?"""
    match_r: dict[int, int] = {}

    def augment(j, seen):
        for i in g.left_neighbors(j):
            if i in seen:
                continue
            seen.add(i)
            if i not in match_r or augment(match_r[i], seen):
                match_r[i] = j
                return True
        return False

    return all(augment(j, set()) for j in J)


def transversal_matroid_by_augmenting(g: BipartiteGraph) -> TransversalMatroid:
    """Oracle for ``stacks.transversal_matroid``: the rank found by testing
    every subset from size min(n, d) down with an augmenting search over
    neighbour tuples and sets, then every subset of that size again."""
    rank = 0
    for size in range(min(g.n, g.d), -1, -1):
        if any(
            _has_perfect_left_matching(g, J) for J in core.subsets(g.n, size)
        ):
            rank = size
            break
    bases = frozenset(
        J for J in core.subsets(g.n, rank) if _has_perfect_left_matching(g, J)
    )
    return TransversalMatroid(g.n, rank, bases)


def completion_linkage_check(stack: MatchingStack) -> tuple[bool, bool]:
    """Left linkage of the stack and of its completion.

    A linkage completion forces every stack layer to be linkage (deleting
    dummy leaves from a covector tree leaves a tree), so completion-linkage
    without stack-linkage is impossible and is asserted.  The converse needs
    the layers to cohere: a completion covector mixes entries of adjacent
    layers, so a stack violating closure can be layer-linkage while its
    completion is not.  For closed stacks (ensembles), both values agree.
    """
    stack_ok, _ = stack_left_linkage(stack)
    comp_ok = fields.is_linkage(completion(stack)).ok
    if comp_ok and not stack_ok:
        raise MatchfieldError(
            "completion is linkage but a stack layer is not; "
            "deleting dummy leaves should have preserved the trees"
        )
    return stack_ok, comp_ok


def column_functions(sigma, counts):
    """All maps sigma -> columns hitting column i exactly counts[i] times."""
    if not sigma:
        if all(c == 0 for c in counts):
            yield ()
        return
    j = sigma[0]
    for i, c in enumerate(counts, start=1):
        if c:
            reduced = list(counts)
            reduced[i - 1] -= 1
            for rest in column_functions(sigma[1:], reduced):
                yield ((j, i),) + rest


def coherent_tope_field(
    weights: Sequence[Sequence], type_vector: Sequence[int]
) -> fields.TopeField:
    """Tope field of the weight-minimal column assignments with multiplicity v.

    Equivalent to duplicating column i of the matrix v_i times and taking the
    coherent matching field of the widened matrix; only the column pattern is
    compared, so copy ties are harmless and within a column the increasing
    convention applies implicitly.
    """
    n = len(weights)
    d = len(weights[0])
    v = tuple(type_vector)
    if any(x < 1 for x in v):
        raise MatchfieldError(f"type vector {v} must be positive")
    k = sum(v)
    if k > n:
        raise MatchfieldError(f"thickness {k} exceeds {n}")
    weights = [[Fraction(x) for x in row] for row in weights]
    assignment = {}
    for sigma in core.subsets(n, k):
        best = None
        best_cost = None
        tied = None
        for func in column_functions(sigma, v):
            cost = sum(weights[j - 1][i - 1] for j, i in func)
            if best_cost is None or cost < best_cost:
                best, best_cost, tied = func, cost, None
            elif cost == best_cost and set(func) != set(best):
                tied = func
        if tied is not None:
            raise TiedMinimumError(
                sigma, BipartiteGraph(n, d, best), BipartiteGraph(n, d, tied)
            )
        assignment[sigma] = BipartiteGraph(n, d, best)
    return fields.TopeField(n, d, v, core.graph_masks(n, d, assignment))


def check_basis_exchange(m: TransversalMatroid) -> bool:
    for b1 in m.bases:
        for b2 in m.bases:
            for x in set(b1) - set(b2):
                ok = any(
                    tuple(sorted(set(b1) - {x} | {y})) in m.bases
                    for y in set(b2) - set(b1)
                )
                if not ok:
                    return False
    return True


# ---------------------------------------------------------------------------
# linkage by unions and cycles


def is_linkage_by_cycles(field: fields.TopeField) -> fields.LinkageReport:
    """Oracle for ``fields.is_linkage``: the union over every (k+1)-subset tau
    built graph by graph, then a union-find cycle search on every union."""
    n, d, k = field.n, field.d, field.thickness
    failures = []
    for tau in core.subsets(n, k + 1) if k < n else ():
        mask = 0
        for drop in tau:
            mask |= field.tope(tuple(x for x in tau if x != drop)).mask
        union = BipartiteGraph.from_mask(n, d, mask)
        cycle = find_cycle_by_graph(union)
        if cycle:
            failures.append(fields.CovectorResult(tau, union, tuple(cycle)))
    return fields.LinkageReport(not failures, tuple(failures))


def i_amalgamation_by_cycles(tf: fields.TopeField, i: int) -> fields.TopeField:
    """Oracle for ``fields.i_amalgamation``: every covector built graph by
    graph through ``linkage_covector`` and its union-find cycle search, the
    first tau with a cycle raising NotLinkageError."""
    if not (1 <= i <= tf.d):
        raise MatchfieldError(f"right index {i} out of range")
    if tf.thickness >= tf.n:
        raise MatchfieldError("tope field already has maximal thickness")
    assignment = {}
    for tau in core.subsets(tf.n, tf.thickness + 1):
        res = fields.linkage_covector(tf, tau)
        if not res.ok:
            raise NotLinkageError(tau, res.cycle)
        assignment[tau] = contained_tope_by_search(res.graph, i)
    new_type = core.vector_sum(tf.type_vector, core.unit_vector(tf.d, i))
    return fields.TopeField(tf.n, tf.d, new_type, core.graph_masks(tf.n, tf.d, assignment))


# ---------------------------------------------------------------------------
# stack linkage, layer by layer


def _layer_field(stack: MatchingStack, I: tuple) -> fields.MatchingField:
    """Fixed-I layer as a matching field on L ⊔ I (right nodes relabelled)."""
    k = len(I)
    relabel = {i: t for t, i in enumerate(I, start=1)}
    assignment = {}
    for J in core.subsets(stack.n, k):
        m = stack.matching(J, I)
        assignment[J] = BipartiteGraph(
            stack.n, k, [(j, relabel[i]) for j, i in m.edges]
        )
    return fields.MatchingField(stack.n, k, core.graph_masks(stack.n, k, assignment))


def _transpose(stack: MatchingStack) -> "GraphMatchingStack":
    """The stack with its sides swapped: (I, J) holds the matching of (J, I)
    with every edge reversed.  Every nonempty pair must have a matching; the
    empty pair is left out, since the swapped sides may have no right node."""
    return GraphMatchingStack(
        stack.d,
        stack.n,
        {
            (I, J): BipartiteGraph(
                stack.d, stack.n, [(i, j) for j, i in stack.matching(J, I).edges]
            )
            for J, I in stack.pairs()
            if J
        },
    )


def stack_left_linkage(stack: MatchingStack) -> tuple[bool, Optional[tuple]]:
    """Left linkage of every fixed-I layer, by `fields.is_linkage` on the
    layer field, with the first witness (I, tau)."""
    for k in range(1, min(stack.n, stack.d) + 1):
        if k + 1 > stack.n:
            continue
        for I in core.subsets(stack.d, k):
            report = fields.is_linkage(_layer_field(stack, I))
            if not report.ok:
                return False, (I, report.failures[0].tau)
    return True, None


def validate_ensemble_by_layer_fields(stack: MatchingStack) -> EnsembleReport:
    """The oracle for the edge-count table of ``stacks.validate_ensemble``:
    support pair by pair, left linkage of the layer fields, right linkage as
    left linkage of the transposed stack, then closure, with the same
    witnesses."""
    for J, I in stack.pairs():
        try:
            m = stack.matching(J, I)
            rdv = tuple(int(i in I) for i in range(1, stack.d + 1))
            ok = len(m) == len(J) and m.left_support() == J and m.right_degrees() == rdv
        except MatchfieldError:
            ok = False
        if not ok:
            return EnsembleReport(False, False, False, False, ("support", J, I))
    left_ok, lw = stack_left_linkage(stack)
    right_ok, rw = stack_left_linkage(_transpose(stack))
    for J, I in stack.pairs():
        m = stack.matching(J, I)
        for r in range(1, len(J)):
            for sub_edges in combinations(m.edges, r):
                sub = BipartiteGraph(stack.n, stack.d, sub_edges)
                key = (sub.left_support(), sub.right_support())
                if stack.matching(*key) != sub:
                    witness = ("closure", J, I, key)
                    return EnsembleReport(True, False, left_ok, right_ok, witness)
    witness = (("left-linkage",) + lw if lw else None) or (
        ("right-linkage",) + rw if rw else None
    )
    return EnsembleReport(True, True, left_ok, right_ok, witness)


# ---------------------------------------------------------------------------
# right linkage of a stack


def _transpose_layer_field(stack: MatchingStack, J: tuple) -> fields.MatchingField:
    """Fixed-J layer as a matching field on R ⊔ J (sides swapped)."""
    k = len(J)
    relabel = {j: t for t, j in enumerate(J, start=1)}
    assignment = {}
    for I in core.subsets(stack.d, k):
        m = stack.matching(J, I)
        assignment[I] = BipartiteGraph(
            stack.d, k, [(i, relabel[j]) for j, i in m.edges]
        )
    return fields.MatchingField(stack.d, k, core.graph_masks(stack.d, k, assignment))


def stack_right_linkage(stack: MatchingStack) -> tuple[bool, Optional[tuple]]:
    """Right linkage of every fixed-J layer, with the first witness (J, tau)."""
    for k in range(1, min(stack.n, stack.d) + 1):
        if k + 1 > stack.d:
            continue
        for J in core.subsets(stack.n, k):
            report = fields.is_linkage(_transpose_layer_field(stack, J))
            if not report.ok:
                return False, (J, report.failures[0].tau)
    return True, None


# ---------------------------------------------------------------------------
# contained matchings over edge lists


def matching_masks_by_graph(g: BipartiteGraph) -> dict[tuple[int, int], int]:
    """All nonempty matchings inside g as {(J mask, I mask): edge mask}: the
    oracle for ``core.agreed_masks`` on g's one mask.

    A depth-first search extends a matching by one edge of a later nonempty
    left row, rows in increasing order and the free right bits of a row in
    increasing order; a matching is listed before its extensions, so the
    keys come in the preorder of the matchings over the lexicographic edge
    order.  For a graph with several matchings at a key the last one found
    is kept.
    """
    d = g.d
    full = (1 << d) - 1
    rows = [(j, g.mask >> (j * d) & full) for j in range(g.n)]
    rows = [(1 << j, j * d, row) for j, row in rows if row]
    out: dict[tuple[int, int], int] = {}

    def extend(start: int, J: int, I: int, m: int) -> None:
        for t in range(start, len(rows)):
            jbit, shift, row = rows[t]
            free = row & ~I
            while free:
                low = free & -free
                free ^= low
                key = (J | jbit, I | low)
                out[key] = m | low << shift
                extend(t + 1, *key, out[key])

    extend(0, 0, 0, 0)
    return out


def contained_matchings_by_edges(g: BipartiteGraph) -> dict[tuple, BipartiteGraph]:
    """Oracle for ``core.contained_matchings``: every nonempty matching inside g,
    keyed by (left support, right support), in the preorder of the edge
    tuples."""
    out: dict[tuple, BipartiteGraph] = {}
    for m in _enumerate_matchings(g.edges, 0, [], g.n, g.d):
        key = (tuple(sorted(j for j, _ in m)), tuple(sorted(i for _, i in m)))
        out[key] = BipartiteGraph(g.n, g.d, m)
    return out


def _enumerate_matchings(edges, start, current, n, d):
    if current:
        yield tuple(current)
    used_l = {j for j, _ in current}
    used_r = {i for _, i in current}
    for idx in range(start, len(edges)):
        j, i = edges[idx]
        if j in used_l or i in used_r:
            continue
        current.append((j, i))
        yield from _enumerate_matchings(edges, idx + 1, current, n, d)
        current.pop()


def agreed_matchings_by_edges(graphs: Sequence[BipartiteGraph]) -> tuple[dict, Optional[tuple]]:
    """Oracle for ``core.agreed_masks`` and ``triang.find_agreement_violation``
    over contained_matchings_by_edges: the agreed graphs keyed by (J, I)
    tuples and the first clash."""
    first: dict[tuple, tuple] = {}
    clashes = []
    for b, g in enumerate(graphs):
        for pos, (key, m) in enumerate(contained_matchings_by_edges(g).items()):
            m_a, a, pos_a = first.setdefault(key, (m, b, pos))
            if m_a != m:
                clashes.append((a, b, pos_a, key))
    agreed = {key: m for key, (m, _, _) in first.items()}
    if not clashes:
        return agreed, None
    a, b, _, (J, I) = min(clashes)
    return agreed, (graphs[a], graphs[b], J, I)


def agreed_matchings_per_graph(graphs: Sequence[BipartiteGraph]) -> tuple[dict, Optional[tuple]]:
    """Oracle for the shared pass of ``core.agreed_masks``: each graph's
    matchings listed separately, row by row, into one (J mask, I mask) dict,
    with a clash handed to the preorder pass ``agreed_in_preorder``."""
    agreed: dict[tuple, int] = {}
    for g in graphs:
        d, full = g.d, (1 << g.d) - 1
        level = [(0, 0, 0)]  # (J, I, edge mask), the empty matching first
        for j in range(g.n):
            ends = [(1 << b, 1 << b + j * d) for b in core._bits(g.mask >> (j * d) & full)]
            grown = []
            for J, I, m in level:
                J |= 1 << j
                for low, edge in ends:
                    if not I & low:
                        e = m | edge
                        if agreed.setdefault((J, I | low), e) != e:
                            return agreed_in_preorder(graphs)
                        grown.append((J, I | low, e))
            level += grown
    return agreed, None


def agreed_in_preorder(graphs: Sequence[BipartiteGraph]) -> tuple[dict, Optional[tuple]]:
    """The agreed map and first clash over each graph's
    ``matching_masks_by_graph`` in turn."""
    first: dict[tuple, tuple] = {}  # (J, I) -> (edge mask, graph index, key position)
    clashes = []
    for b, g in enumerate(graphs):
        for pos, (key, m) in enumerate(matching_masks_by_graph(g).items()):
            m_a, a, pos_a = first.setdefault(key, (m, b, pos))
            if m_a != m:
                # (a, pos_a) names the key, so min never compares keys
                clashes.append((a, b, pos_a, key))
    agreed = {key: m for key, (m, _, _) in first.items()}
    if not clashes:
        return agreed, None
    a, b, _, (J, I) = min(clashes)
    return agreed, (graphs[a], graphs[b], core.mask_subset(J), core.mask_subset(I))


def field_from_graphs_by_partial_matchings(
    graphs: Iterable[BipartiteGraph], n: int, d: int
) -> fields.MatchingField:
    """Oracle for ``fields.field_from_graphs``: every partial matching of
    each graph from ``matching_masks_by_graph``, filtered to those covering
    every right node; the first disagreement in preorder is reported."""
    full = (1 << d) - 1
    masks: dict = {}
    for g in graphs:
        if (g.n, g.d) != (n, d):
            raise MatchfieldError(f"a tree on ({g.n}, {g.d}) among trees on ({n}, {d})")
        for (J, I), m in matching_masks_by_graph(g).items():
            if I == full and masks.setdefault(J, m) != m:
                raise MatchfieldError(
                    f"trees disagree on the matching of {core.mask_subset(J)}"
                )
    assignment = {
        core.mask_subset(J): BipartiteGraph.from_mask(n, d, m) for J, m in masks.items()
    }
    return fields.validate_matching_field(n, d, assignment)


# ---------------------------------------------------------------------------
# compatible right submatchings, one rescan of the field per (J, I')


def right_submatching_check_by_rescan(
    field: fields.MatchingField, max_left: Optional[int] = None
) -> SubmatchingReport:
    """For every left subset J and right subset I with |I| = |J| + 1, the
    union of the existing submatchings of field matchings on J ⊔ I' (I'
    ranging over the |J|-subsets of I) must be a forest whose contained
    |J|-matchings are all compatible with the field.

    max_left caps |J| (default: no cap beyond d - 1).
    """
    n, d = field.n, field.d
    cap = min(d - 1, max_left if max_left is not None else d - 1)
    all_matchings = [m for _, m in field.items()]
    for size in range(1, cap + 1):
        for J in core.subsets(n, size):
            for I in core.subsets(d, size + 1):
                mask, pieces = 0, {}
                for I_sub in combinations(I, size):
                    sub = _field_submatching(field, J, I_sub)
                    if sub is not None:
                        pieces[I_sub] = sub
                        mask |= sub.mask
                if not pieces:
                    continue
                union = BipartiteGraph.from_mask(n, d, mask)
                cycle = find_cycle_by_graph(union)
                if cycle is not None:
                    return SubmatchingReport(False, (J, I, "cycle", tuple(cycle)))
                for key, m in core.contained_matchings(union).items():
                    if len(key[0]) != size:
                        continue
                    for other in all_matchings:
                        ok, _ = core.is_compatible(m, other)
                        if not ok:
                            return SubmatchingReport(
                                False, (J, I, "incompatible", (m, other))
                            )
    return SubmatchingReport(True)


def _field_submatching(field, J, I_sub):
    """Unique submatching of a field matching on J ⊔ I_sub, if any exists."""
    found = None
    for _, m in field.items():
        edges = [(j, i) for j, i in m.edges if j in J and i in I_sub]
        if len(edges) != len(J):
            continue
        sub = BipartiteGraph(field.n, field.d, edges)
        if sub.left_support() != J or sub.right_support() != tuple(I_sub):
            continue
        if found is not None and found != sub:
            raise MatchfieldError(f"field matchings disagree on ({J}, {I_sub})")
        found = sub
    return found


# ---------------------------------------------------------------------------
# compatibility of partial maps, one pair at a time


def functions_compatible(f1: Sequence[int], f2: Sequence[int], d: int) -> bool:
    """is_compatible for two graphs with left degrees at most 1, from their
    tope_function values.  A left node j with f1[j] != f2[j] carries the
    arcs r_f2[j] -> lj -> r_f1[j]; contracted, they form a digraph on the d
    right nodes, acyclic exactly when the graphs are compatible.  The value
    d of a node one graph leaves out puts its one arc at an extra node d,
    never peeled or alive, so it closes no cycle.  Sinks are peeled from the
    out-neighbour masks until nothing is left (acyclic) or none remains."""
    out = [0] * (d + 1)
    for a, b in zip(f1, f2):
        if a != b:
            out[b] |= 1 << a
    live = [u for u in range(d) if out[u]]  # nodes without out-arcs are sinks
    while live:
        alive = 0
        for u in live:
            alive |= 1 << u
        rest = [u for u in live if out[u] & alive]
        if len(rest) == len(live):
            return False
        live = rest
    return True


def arrangement_pair_by_scan(n: int, d: int, table: dict) -> None:
    """The compatibility step of ``TopeArrangement.validate`` as a scan of
    all pairs of maximal topes, a mask table, in sorted order: raises the
    message that names the first incompatible pair."""
    functions = [(p, core.tope_function(t, n, d)) for p, t in sorted(table.items())]
    for (p1, f1), (p2, f2) in combinations(functions, 2):
        if not functions_compatible(f1, f2, d):
            raise MatchfieldError(f"topes at {p1} and {p2} are incompatible")


# ---------------------------------------------------------------------------
# graph-keyed JSON reading and validation


def _graph(n: int, d: int, edges) -> BipartiteGraph:
    """A graph from its JSON edge list; ValueError unless that is a list of
    integer pairs."""
    if type(edges) not in (list, tuple):
        raise ValueError(f"an edge list must be a list, got {edges!r}")
    for e in edges:
        if type(e) not in (list, tuple) or len(e) != 2 or {type(e[0]), type(e[1])} != {int}:
            raise ValueError(f"an edge must be a pair of integers, got {e!r}")
    return BipartiteGraph(n, d, edges)


def read_table(
    data: dict, name: str, parse_key=lambda key: core.read_subset_key(key, 0), vectors: bool = False
) -> tuple[int, int, dict]:
    """n, d and the table data[name], keys parsed by parse_key and values
    read as graphs or, with vectors, integer tuples.  Raises ValueError on
    a value of the wrong JSON shape or a key parse_key refuses; nothing
    else is validated."""
    n, d = core.read_sides(data)
    table = data[name]
    if not isinstance(table, dict):
        raise ValueError(f"{name} must be an object, got {table!r}")
    if vectors:
        return n, d, {parse_key(k): core._int_tuple(v, "a vector") for k, v in table.items()}
    return n, d, {parse_key(k): _graph(n, d, v) for k, v in table.items()}


def phi_by_key(data: dict) -> PhiMap:
    """A phi object read by ``read_table``, each subset then keyed as the
    mask reader keys it (``core.subset_bits``: a member beyond n keeps the
    tuple): the oracle for the codec and reader of ``chow.phi_from_json_dict``."""
    n, d, table = read_table(data, "phi", vectors=True)
    return PhiMap(n, d, {core.subset_bits(rho, n): v for rho, v in table.items()})


def edge_mask_by_shapes(n: int, d: int, edges) -> int:
    """The edge mask of a JSON edge list by one loop that tests each edge's
    shape before its place, the oracle for the accepting loop and refusal
    routine of ``core.edge_mask``.  Raises ValueError unless it is a list of
    integer pairs, then SizeCapError unless (n, d) is within the cap, then
    MatchfieldError naming its first edge off the n x d grid."""
    if type(edges) not in (list, tuple):
        raise ValueError(f"an edge list must be a list, got {edges!r}")
    grid = 0 <= n <= core.MAX_SIDE and 1 <= d <= core.MAX_SIDE
    mask, off = 0, None
    for e in edges:
        if type(e) in (list, tuple) and len(e) == 2:
            j, i = e
            if type(j) is int and type(i) is int:
                if grid and 0 < j <= n and 0 < i <= d:
                    mask |= 1 << ((j - 1) * d + i - 1)
                elif off is None:
                    off = (j, i)
                continue
        raise ValueError(f"an edge must be a pair of integers, got {e!r}")
    core._check_sides(n, d)
    if off is not None:
        raise MatchfieldError(f"edge ({off[0]}, {off[1]}) out of range for ({n}, {d})")
    return mask


def field_from_json_dict_by_rows(data: dict) -> fields.TopeField:
    """A field read into its mask table by ``edge_mask_by_shapes`` and then
    validated by the row pass of ``fields.field_from_masks``, the oracle for
    the type that ``fields.field_from_json_dict`` decides while it parses."""
    n, d, entries = core.read_object(data, "matchings")
    read_key = core.subset_reader(n, entries)
    table = {read_key(k): edge_mask_by_shapes(n, d, edges) for k, edges in entries.items()}
    core._check_sides(n, d)
    v = core._int_tuple(data.get("type", core.all_ones(d)), "a type vector")
    if v != core.all_ones(d):
        v = fields._type_vector(n, d, v)
    return fields.field_from_masks(n, d, v, table)


def refuse_field_by_tuples(n: int, d: int, v: tuple, table: dict) -> None:
    """Oracle for ``fields._field_fault``: the table with every bitmask key
    turned into its tuple of members, scanned in ``core.subsets`` order.
    Raises MatchfieldError naming (n, d) when sum(v) > n, SizeCapError from
    ``core.subsets``, then MissingSubsetError, NotAMatchingError or
    WrongSupportError with the first bad subset, then WrongSupportError with
    the least key left over; returns None on a field of type v."""
    if sum(v) > n:
        raise MatchfieldError(
            f"invalid type vector {v} for ({n}, {d}): its sum {sum(v)} exceeds n = {n}"
        )
    what = "perfect matching" if v == core.all_ones(d) else f"tope of type {v}"
    cleaned = {key if type(key) is tuple else core.mask_subset(key): m for key, m in table.items()}
    for sigma in core.subsets(n, sum(v)):
        mask = cleaned.get(sigma)
        if mask is None:
            raise MissingSubsetError(sigma)
        if mask >> n * d:
            raise NotAMatchingError(sigma, f"graph for {sigma} has wrong ambient size")
        rows = core.read_rows(mask, n, d)
        if rows is None or rows[2] != v:
            raise NotAMatchingError(sigma, f"value for {sigma} is not a {what}")
        if rows[0] != sigma:
            raise WrongSupportError(sigma, rows[0])
    # every subset is present and good by now, so any other key is left over
    extra = set(cleaned).difference(core.subsets(n, sum(v)))
    if extra:
        raise WrongSupportError(min(extra), None)


def _validated_field(n: int, d: int, v: tuple, assignment: dict) -> fields.TopeField:
    """The one field validator: the keys must be exactly the sum(v)-subsets
    of [n], each holding a graph on (n, d) with left degrees at most 1, right
    degree vector v and left support its key.  Raises MatchfieldError naming
    (n, d) when sum(v) > n, so a matching field with d > n, then
    MissingSubsetError, NotAMatchingError or WrongSupportError with the
    offending subset.  A MatchingField when v = (1, ..., 1), else a
    TopeField."""
    if sum(v) > n:
        raise MatchfieldError(
            f"invalid type vector {v} for ({n}, {d}): its sum {sum(v)} exceeds n = {n}"
        )
    matching = v == core.all_ones(d)
    what = "perfect matching" if matching else f"tope of type {v}"
    cleaned = {tuple(sorted(s)): g for s, g in assignment.items()}
    for sigma in core.subsets(n, sum(v)):
        graph = cleaned.get(sigma)
        if graph is None:
            raise MissingSubsetError(sigma)
        if graph.n != n or graph.d != d:
            raise NotAMatchingError(sigma, f"graph for {sigma} has wrong ambient size")
        rows = core.read_rows(graph.mask, graph.n, graph.d)
        if rows is None or rows[2] != v:
            raise NotAMatchingError(sigma, f"value for {sigma} is not a {what}")
        if rows[0] != sigma:
            raise WrongSupportError(sigma, rows[0])
    # every subset is present by now, so a surplus key means an extra one
    if len(cleaned) > comb(n, sum(v)):
        extra = set(cleaned).difference(core.subsets(n, sum(v)))
        raise WrongSupportError(min(extra), None)
    table = core.graph_masks(n, d, cleaned)
    return fields.MatchingField(n, d, table) if matching else fields.TopeField(n, d, v, table)


def field_from_json_dict_by_graphs(data: dict) -> fields.TopeField:
    """A field read as a graph per subset and validated over that map."""
    n, d, assignment = read_table(data, "matchings")
    core._check_sides(n, d)
    v = core._int_tuple(data.get("type", core.all_ones(d)), "a type vector")
    if v != core.all_ones(d):
        if len(v) != d or any(x < 1 for x in v):
            raise MatchfieldError(f"invalid type vector {v} for ({n}, {d})")
        return _validated_field(n, d, v, assignment)
    return _validated_field(n, d, core.all_ones(d), assignment)


def collection_rdvs_by_graphs(n: int, d: int, covectors: dict) -> tuple[dict, dict]:
    """The covector checks of a collection read from its graphs, rho by rho:
    its mask table and {rho bitmask: rdv}, or InconsistentCollectionError."""
    covectors = {tuple(sorted(r)): g for r, g in covectors.items()}
    if covectors.keys() != set(core.subsets(n, n - d + 1)):
        raise InconsistentCollectionError("keys must be the (n-d+1)-subsets")
    table, rdvs = {}, {}
    for rho, g in covectors.items():
        if (g.n, g.d) != (n, d):
            raise InconsistentCollectionError(f"covector at {rho} has wrong ambient size")
        rows = core.read_rows(g.mask, g.n, g.d)  # at most one edge per row, nonzero exactly on rho
        if rows is None or rows[0] != rho:
            raise InconsistentCollectionError(f"covector at {rho} has wrong support")
        table[rows[1]], rdvs[rows[1]] = g.mask, rows[2]
    if not core.is_simplex_lattice(rdvs.values(), n - d + 1, d):
        raise InconsistentCollectionError(
            "right degree vectors do not biject onto the lattice points"
        )
    return table, rdvs


# ---------------------------------------------------------------------------
# extended arrangements by product choices


def extended_tope_arrangement_by_products(t: Triangulation) -> fields.ExtendedTopeArrangement:
    """Oracle for ``triang.extended_tope_arrangement``: every subgraph of
    every tree that keeps one edge of each row, keyed by its right degree
    vector; two that differ at one vector raise MatchfieldError."""
    n, d, row = t.n, t.d, (1 << t.d) - 1
    table: dict = {}
    for mask in t.masks:
        rows = ([1 << b for b in core._bits(mask & row << j * d)] for j in range(n))
        for cell in map(sum, product(*rows)):
            rdv = core.right_degrees(cell, n, d)
            if table.setdefault(rdv, cell) != cell:
                raise MatchfieldError(f"two cells share the right degree vector {rdv}")
    return fields.ExtendedTopeArrangement(n, d, table)


# ---------------------------------------------------------------------------
# graph-keyed containers and their JSON readers


class GraphTopeArrangement:
    """Compatible maximal topes keyed by lattice points of (n-d)*Delta_{d-1}:
    the arrangement held as {lattice point: graph}, the oracle for the mask
    table and one-pass validation of ``fields.TopeArrangement``."""

    def __init__(self, n: int, d: int, topes: dict):
        core._check_sides(n, d)
        self.n = n
        self.d = d
        self.topes = {tuple(p): g for p, g in topes.items()}
        self.validate()

    def validate(self) -> None:
        if not core.is_simplex_lattice(self.topes, self.n - self.d, self.d):
            raise MatchfieldError("arrangement keys are not the lattice points")
        ones = core.all_ones(self.d)
        for point, tope in self.topes.items():
            if tope.right_degrees() != core.vector_sum(point, ones):
                raise MatchfieldError(f"tope at {point} has wrong right degrees")
            if tope.left_degrees() != core.all_ones(self.n):
                raise MatchfieldError(f"tope at {point} is not maximal")
        # maximal topes are functions [n] -> [d]; each meets its later partners
        points = sorted(self.topes)
        functions = [core.tope_function(self.topes[p].mask, self.n, self.d) for p in points]
        index = core.partner_index(functions, self.n, self.d)
        for k, f in enumerate(functions):
            if later := core.incompatible_partners(f, index, self.d) >> (k + 1):
                p2 = points[k + (later & -later).bit_length()]
                raise MatchfieldError(f"topes at {points[k]} and {p2} are incompatible")


class GraphExtendedTopeArrangement:
    """One graph per lattice point of n*Delta_{d-1}, held as {lattice point:
    graph}: the oracle for the mask table of ``fields.ExtendedTopeArrangement``."""

    def __init__(self, n: int, d: int, graphs: dict):
        core._check_sides(n, d)
        self.n = n
        self.d = d
        self.graphs = {tuple(p): g for p, g in graphs.items()}
        if not core.is_simplex_lattice(self.graphs, n, d):
            raise MatchfieldError("extended arrangement must cover all lattice points")


class GraphMatchingStack:
    """Map (J, I) -> perfect matching on J ⊔ I, held as {(J, I): graph}: the
    oracle for the mask table of ``stacks.MatchingStack``.  Entries may be
    sparse: a pair without an entry has no matching, and asking for it
    raises MatchfieldError."""

    def __init__(self, n: int, d: int, entries: dict):
        self.n = n
        self.d = d
        self.entries = {
            (tuple(sorted(J)), tuple(sorted(I))): g for (J, I), g in entries.items()
        }

    def matching(self, J: Iterable[int], I: Iterable[int]) -> BipartiteGraph:
        key = (tuple(sorted(J)), tuple(sorted(I)))
        if len(key[0]) != len(key[1]):
            raise MatchfieldError("|J| and |I| must agree")
        if key not in self.entries:
            raise MatchfieldError(f"no matching assigned to {key}")
        return self.entries[key]

    def pairs(self):
        for k in range(min(self.n, self.d) + 1):
            for J in core.subsets(self.n, k):
                for I in core.subsets(self.d, k):
                    yield (J, I)


def topes_from_covectors(n: int, d: int, covectors: Iterable[BipartiteGraph]) -> dict:
    """Maximal topes keyed by the lattice points p of (n-d)*Delta_{d-1}: the
    tope at p has right degree vector p + 1 and is the union of the Chow
    covectors with right degree vectors p + e_i, i = 1..d."""
    by_rdv = {g.right_degrees(): g.mask for g in covectors}
    topes = {}
    for point in core.simplex_lattice_points(n - d, d):
        mask = 0
        for i in range(1, d + 1):
            rdv = core.vector_sum(point, core.unit_vector(d, i))
            if rdv not in by_rdv:
                raise InconsistentCollectionError(f"no covector with rdv {rdv}")
            mask |= by_rdv[rdv]
        tope = BipartiteGraph.from_mask(n, d, mask)
        if tope.left_degrees() != core.all_ones(n):
            v = core.vector_sum(point, core.all_ones(d))
            raise InconsistentCollectionError(f"union at {v} is not a maximal tope")
        topes[point] = tope
    return topes


def parse_stack_key(key: str):
    """(J, I) from the key J:<subset>|I:<subset>, either subset possibly
    empty; any other key raises ValueError naming it."""
    j_part, _, i_part = key.partition("|")
    if j_part[:2] == "J:" and i_part[:2] == "I:":
        try:
            return tuple(core.read_subset_key(h[2:], 0) if h[2:] else () for h in (j_part, i_part))
        except ValueError:
            pass
    raise ValueError(f"stack key {key!r} must read J:<subset>|I:<subset>")


def arrangement_by_graphs(data: dict) -> tuple[int, int, dict]:
    """An arrangement object read as a graph per point and validated over
    that map: its sides and the edge masks of its topes."""
    ta = GraphTopeArrangement(*read_table(data, "topes", core.parse_point_key))
    return ta.n, ta.d, {p: g.mask for p, g in ta.topes.items()}


def extended_by_graphs(data: dict) -> tuple[int, int, dict]:
    """An extended arrangement object read as a graph per point: its sides
    and the edge masks of its graphs."""
    eta = GraphExtendedTopeArrangement(*read_table(data, "graphs", core.parse_point_key))
    return eta.n, eta.d, {p: g.mask for p, g in eta.graphs.items()}


def stack_by_graphs(data: dict) -> tuple[int, int, dict]:
    """A stack object read as a graph per pair: its sides and its edge masks,
    each pair keyed as the mask reader keys it (a subset with a member
    beyond its side stays a tuple)."""
    stack = GraphMatchingStack(*read_table(data, "matchings", parse_stack_key))
    n, d = stack.n, stack.d
    return n, d, {
        (core.subset_bits(J, n), core.subset_bits(I, d)): g.mask
        for (J, I), g in stack.entries.items()
    }


def every_linkage_field(n: int, d: int) -> list[fields.MatchingField]:
    """Every (n, d) linkage field: all choices of a bijection sigma -> R per
    d-subset sigma, kept when is_linkage accepts them."""
    choices = [
        [sum(1 << (j - 1) * d + i for j, i in zip(sigma, p)) for p in permutations(range(d))]
        for sigma in core.subsets(n, d)
    ]
    keys = [core.subset_mask(sigma) for sigma in core.subsets(n, d)]
    every = (fields.MatchingField(n, d, dict(zip(keys, masks)))
             for masks in product(*choices))
    return [field for field in every if fields.is_linkage(field).ok]


def parse_subset_key_by_sorting(key: str) -> tuple[int, ...]:
    """A subset key matched as a subset spelling, read as a point key and
    compared with the sorted set of its members."""
    if core._SUBSET_KEY.fullmatch(key):
        subset = core.parse_point_key(key)
        if list(subset) == sorted(set(subset)):
            return subset
    raise ValueError(f"subset key {key!r} must list positive integers in increasing order")
