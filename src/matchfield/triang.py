"""Triangulations of a product of two simplices as sets of spanning trees.

A triangulation of Delta_{n-1} x Delta_{d-1} is encoded by its set of
K = binom(n+d-2, n-1) full-dimensional cells, spanning trees on the bipartite
node set.  A ``Triangulation`` holds the sorted tuple of their n x d edge
masks (``masks``); its trees as graphs, ``trees`` and ``sorted_trees()``, are
a view built on request.  The JSON reader reads each tree into its mask
(``core.edge_mask``) and the writer writes them back (``core.edge_lists``).

By Postnikov (2009, Lemma 12.6), K distinct spanning trees are a
triangulation exactly when any two containing perfect matchings on the same
node sets agree there; the flip axiom then follows and is not checked.
``check_triangulation`` takes the tree masks: spanning is the row walk of
``core.tree_tope``, and agreement is checked by containment (not the
symmetric-difference cycle criterion, since a shared edge can sit on an
alternating cycle that the orientation test cannot see) in one pass shared
by all the trees, ``core.agreed_masks``: each distinct contained matching
is built once, keyed by (J, I), with the bitset of the trees that hold it,
so a triangulation costs about (C(n+d, n) - 1) * d steps.  A graph is built
only for the witness of a refusal.  The same pass, the one kernel for
agreement, builds the ensemble of ``stacks.stack_from_trees`` and the
per-tree maps of ``enumerate_triangulations``; ``find_agreement_violation``
is its one wrapper on graphs.

The degree-pair map sends each tree to its left and right degree vectors,
its row and column popcounts, normalised by subtracting the all-ones
vectors.  The pair set determines the triangulation; reconstruction codes
each pair (u, v) as u * B^d + v, B = max(n, d) (``core.encode_point``), and
walks each tree's chain of deletions in one loop (``_tree``): find the edge
(lj, ri) of its first left leaf, a zero digit of u, from the sector of j
that holds v (``core.sectors``), OR its bit into the tree's mask, drop the
digit, subtract B^(d-i) from v and go on without j; a transposed step swaps
the halves of the code.  Each step is computed once per level, its sides
and coded pair set, whatever labels reach it, and each level set is held
once.  The shape of the pairs, K of them with both projections bijective
onto lattice points, is checked once: by ``reconstruct_triangulation``, or
by ``phi`` in ``roundtrip``.  Each deletion keeps it, so no sweep lacks its
seed (``_deletion``).  Each step adds a leaf lj (u_j = 0) on the ri whose
v_i it lowers, and the base star carries the pair left, so each tree
carries its own pair and none is recounted; the masks must pass the axioms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, factorial
from typing import Iterable, Optional, Sequence

from . import core, fields
from .core import BipartiteGraph
from .errors import (
    InconsistentPairsError,
    MatchfieldError,
    NotATriangulationError,
    SizeCapError,
)


def tree_count(n: int, d: int) -> int:
    """Number of full-dimensional cells in any triangulation."""
    return comb(n + d - 2, n - 1)


@dataclass(frozen=True)
class TriangulationReport:
    ok: bool
    kind: Optional[str] = None  # count, spanning or agreement
    witness: Optional[tuple] = None
    masks: tuple = field(default=(), compare=False, repr=False)  # what an ok report checked


class Triangulation(core.MaskTable):
    """Spanning trees encoding the maximal cells, held as the mask table
    {rank: edge mask} of their distinct edge masks in increasing order,
    ``masks``: decided by the constructor, or held (``_unchecked``) as
    ``check_triangulation`` decided them by each entry that validates."""

    def __init__(self, n: int, d: int, masks: Iterable[int]):
        super().__init__(n, d, dict(enumerate(masks)))  # the range, before the masks are sorted
        self.mask_table = dict(enumerate(sorted(set(self.mask_table.values()))))

    @property
    def masks(self) -> tuple:
        return tuple(self.mask_table.values())

    @property
    def trees(self) -> frozenset:
        return frozenset(self.sorted_trees())

    def sorted_trees(self) -> list[BipartiteGraph]:
        return [BipartiteGraph.from_mask(self.n, self.d, m) for m in self.masks]

    def __hash__(self):
        return hash((self.n, self.d, self.masks))


def find_agreement_violation(trees: Sequence[BipartiteGraph]):
    """First pair of trees (g, h, J, I) containing different matchings on the
    same node sets J ⊔ I, in pairwise-scan order; None if all agree.  The
    graph face of ``core.agreed_masks``; trees on differing sides raise
    MatchfieldError."""
    sides = {(g.n, g.d) for g in trees}
    if len(sides) > 1:
        raise MatchfieldError("agreement of graphs on differing sides")
    clash = core.agreed_masks([g.mask for g in trees], *next(iter(sides), (0, 1)))[1]
    if clash is None:
        return None
    a, b, J, I = clash
    return trees[a], trees[b], core.mask_subset(J), core.mask_subset(I)


def find_flip_violation(trees: Sequence[BipartiteGraph]):
    """Tree and non-leaf edge whose removal is contained in no other tree;
    None on any triangulation.  For spanning trees on one node set, such
    another tree is a distinct tree mask that drops to the same forest by one
    bit: g minus e lies in another tree exactly when at least two distinct
    masks minus a bit give it."""
    forests = Counter(m ^ 1 << b for m in {g.mask for g in trees} for b in core._bits(m))
    for g in trees:
        left, right = g.left_degrees(), g.right_degrees()
        for j, i in g.edges:
            if left[j - 1] == 1 or right[i - 1] == 1:
                continue
            if forests[g.mask & ~(1 << ((j - 1) * g.d + i - 1))] < 2:
                return (g, (j, i))
    return None


def check_triangulation(masks: Iterable[int], n: int, d: int) -> TriangulationReport:
    """Count, spanning and agreement of n x d tree masks, the first failure
    with a witness: by Postnikov ("Permutohedra, associahedra, and beyond",
    Lemma 12.6) the triangulations.  Trees T, T' disagree on some (J, I)
    exactly when U(T, T'), T directed left to right and T' back, has a
    directed cycle of length >= 4: an alternating cycle of the two
    matchings.  The flip axiom follows: a tree minus a non-leaf edge is a
    facet on all nodes, so off the boundary of the product, and an interior
    facet lies in two cells.  Only a witness is built as graphs; the sides
    are refused (``core._check_sides``), then a mask out of range
    (``core.check_masks``), before the trees are counted."""
    masks = list(masks)
    core._check_sides(n, d, MatchfieldError(f"triangulation ({n}, {d}) needs a node on each side"))
    core.check_masks(masks, n, d)
    masks = sorted(set(masks))
    if len(masks) != tree_count(n, d):
        return TriangulationReport(False, "count", (len(masks), tree_count(n, d)))
    rows = range(1, n + 1)
    for m in masks:
        if core.tree_tope(m, rows, d, 1) is None:
            return TriangulationReport(False, "spanning", (BipartiteGraph.from_mask(n, d, m),))
    clash = core.agreed_masks(masks, n, d)[1]
    if clash is not None:
        a, b, J, I = clash
        g, h = (BipartiteGraph.from_mask(n, d, masks[t]) for t in (a, b))
        witness = (g, h, core.mask_subset(J), core.mask_subset(I))
        return TriangulationReport(False, "agreement", witness)
    return TriangulationReport(True, masks=tuple(masks))


def validate_triangulation(masks: Iterable[int], n: int, d: int) -> Triangulation:
    """The triangulation of n x d tree masks, or the first failure's error."""
    report = check_triangulation(masks, n, d)
    if not report.ok:
        raise NotATriangulationError(report.kind, report.witness)
    return Triangulation._unchecked(n, d, dict(enumerate(report.masks)))


# ---------------------------------------------------------------------------
# extraction


# the collector under its older name, which callers outside the package use
extract_field_from_trees = fields.field_from_graphs


def extract_field(t: Triangulation) -> fields.MatchingField:
    """The matching field of a triangulation; always linkage.

    Needs n >= d; transpose the triangulation for the other orientation.
    """
    if t.n < t.d:
        raise MatchfieldError("extraction needs n >= d; transpose first")
    field = fields._collect_matchings(t.masks, t.n, t.d)
    fields.require_linkage(field)
    return field


# ---------------------------------------------------------------------------
# the degree-pair map


def degree_pair(mask: int, n: int, d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Normalised (left, right) degree pair of an n x d tree mask: its row
    and column popcounts less one."""
    row, column = (1 << d) - 1, core.column_mask(n, d)
    return (
        tuple([(mask >> j * d & row).bit_count() - 1 for j in range(n)]),
        tuple([(mask >> i & column).bit_count() - 1 for i in range(d)]),
    )


def phi(t: Triangulation) -> frozenset:
    """Degree pairs of all trees; both projections biject onto their lattice
    point sets."""
    pairs = frozenset(degree_pair(m, t.n, t.d) for m in t.masks)
    if len(pairs) != len(t.masks):
        raise MatchfieldError("degree pairs are not distinct")
    _check_pair_shape(pairs, t.n, t.d)
    return pairs


# ---------------------------------------------------------------------------
# reconstruction from degree pairs


def reconstruct_triangulation(pairs: Iterable, n: int, d: int) -> Triangulation:
    """Rebuild the unique triangulation with the given normalised degree
    pairs.  Raises InconsistentPairsError if none exists: the pairs must have
    the shape of a pair set and the rebuilt trees satisfy the axioms, so that
    every accepted input is a triangulation's pair set."""
    pairs = frozenset((tuple(u), tuple(v)) for u, v in pairs)
    _check_pair_shape(pairs, n, d)
    return _certified(_rebuild(pairs, n, d), n, d)


def _rebuild(pairs: frozenset, n: int, d: int) -> list[int]:
    """The tree masks of the deletion chains of a pair set of checked shape."""
    base = max(n, d)
    codes = frozenset(core.encode_point(u + v, base) for u, v in pairs)
    left, right, memo = tuple(range(1, n + 1)), tuple(range(1, d + 1)), {}
    return [_tree(x, codes, left, right, base, memo) for x in sorted(codes)]


def _certified(masks: list[int], n: int, d: int) -> Triangulation:
    """The triangulation of rebuilt masks, once they satisfy the axioms themselves."""
    report = check_triangulation(masks, n, d)
    if not report.ok:
        raise InconsistentPairsError(f"rebuilt trees violate the {report.kind} axiom")
    return Triangulation._unchecked(n, d, dict(enumerate(report.masks)))


def _check_pair_shape(pairs, n, d):
    unfit = InconsistentPairsError(
        f"{len(pairs)} pairs do not fit a triangulation of size ({n}, {d})")
    core._check_sides(n, d, unfit)  # before the binomial of tree_count
    if len(pairs) != tree_count(n, d):
        raise unfit
    lefts, rights = zip(*pairs)  # u and v of every pair
    if not (core.is_simplex_lattice(lefts, d - 1, n)
            and core.is_simplex_lattice(rights, n - 1, d)):
        raise InconsistentPairsError("projections are not bijections onto lattice points")


def _tree(code, codes, left_labels, right_labels, base, memo):
    """The edge mask, on the grid of the given label tuples, of the tree at
    the pair `code` among the coded normalised degree pairs `codes` over
    those labels.

    With n >= d the tree's first left leaf lj (u_j = 0) exists, since
    sum(u) = d - 1 < n.  Its edge is (lj, ri) for the sector of j that holds
    v, and the rest of the tree is the tree at the deleted pair of the facet
    without lj; with n < d the sides swap.  One loop walks this chain,
    ORing each edge's bit into the mask in the original orientation, down
    to one node on a side, which joins every node of the other.  memo holds
    each deletion step under (n, d, codes, pos) and each transposed pair set
    under (n, d, codes): a step reads no label but j, for its refusal text,
    so it is computed once per level whatever labels reach it.  Each level
    set is held once, as its own key, so a hit compares by identity.
    """
    # bit (j - 1) * jw + (i - 1) * iw of the edge (lj, ri) in the labels of
    # the step, the weights swapping with the sides
    jw, iw, mask = len(right_labels), 1, 0
    n, d = len(left_labels), len(right_labels)
    while n > 1 and d > 1:
        if n < d:  # with the sides swapped, the pair u * B^d + v is v * B^n + u
            key, low, high = (n, d, codes), base**d, base**n
            if key not in memo:
                swapped = frozenset(x % low * high + x // low for x in codes)
                memo[key] = memo.setdefault(swapped, swapped)
            code, codes = code % low * high + code // low, memo[key]
            left_labels, right_labels, n, d = right_labels, left_labels, d, n
            jw, iw = iw, jw
            continue
        u, unit, pos = code // base**d, base ** (n - 1), 0
        while u // unit % base:  # the first zero digit of u, most significant first
            unit //= base
            pos += 1
        key = (n, d, codes, pos)
        step = memo.get(key)
        if step is None:
            down, facets = _deletion(codes, pos, n, d, left_labels[pos], base)
            step = memo[key] = down, memo.setdefault(facets, facets)
        down, codes = step
        i, code = down[code]
        mask |= 1 << (left_labels[pos] - 1) * jw + (right_labels[i - 1] - 1) * iw
        left_labels = left_labels[:pos] + left_labels[pos + 1 :]
        n -= 1
    for j in left_labels:
        for i in right_labels:
            mask |= 1 << (j - 1) * jw + (i - 1) * iw
    return mask


def _deletion(codes, pos, n, d, j, base):
    """Delete left node j at position pos from the trees having it as a leaf:
    ({code: (i, facet code)}, facet codes), where ri is j's neighbour.

    Both projections of the facet pairs stay bijective: the lefts lose a
    common zero; the rights, one per left with a zero at pos and so as many
    as the points of (n-2) * Delta_{d-1}, are nonnegative (no negative
    degree) and injective (members v in sector i and v - e_i + e_k in sector
    k, which would meet, are one member admitted to two sectors).  So every
    seed (n-1) * e_i of ``core.sectors`` is an rdv of the level."""
    low, digit = base**d, base ** (n - 1 - pos)
    split, high, units = low * digit, digit * base, [base**k for k in range(d, -1, -1)]
    members = [x for x in codes if not x // split % base]
    sector = core.sectors({x % low for x in members}, n - 1, j, InconsistentPairsError, d, base)
    down = {}
    for x in members:
        u, v = divmod(x, low)
        i = sector[v]
        unit = units[i]
        if not v // unit % base:
            raise InconsistentPairsError("deletion leaves a negative degree")
        down[x] = (i, (u // high * digit + u % digit) * low + v - unit)
    return down, frozenset(facet for _, facet in down.values())


# ---------------------------------------------------------------------------
# generators


# a (10, 10) staircase has 48,620 trees; the CLI builds and prints it in
# about 1.5 s (2-core x86-64, Python 3.11)
STAIRCASE_MAX_TREES = 10**5


def staircase_triangulation(
    n: int,
    d: int,
    left_order: Optional[Sequence[int]] = None,
    right_order: Optional[Sequence[int]] = None,
) -> Triangulation:
    """Staircase triangulation: one tree per monotone lattice path through the
    n x d grid, with rows and columns taken in the given orders (identity by
    default).  For n = 2 the right order realises the bijection between
    triangulations of Delta_1 x Delta_{d-1} and permutations of [d].
    Raises MatchfieldError on an empty side, and SizeCapError beyond
    MAX_SIDE nodes a side or STAIRCASE_MAX_TREES trees, before any tree is
    built."""
    core._check_sides(n, d, MatchfieldError(f"staircase ({n}, {d}) needs a node on each side"))
    if tree_count(n, d) > STAIRCASE_MAX_TREES:
        raise SizeCapError(
            f"staircase ({n}, {d}) has {tree_count(n, d)} trees, "
            f"over the cap of {STAIRCASE_MAX_TREES}"
        )
    left_order = list(left_order or range(1, n + 1))
    right_order = list(right_order or range(1, d + 1))
    if sorted(left_order) != list(range(1, n + 1)) or sorted(right_order) != list(
        range(1, d + 1)
    ):
        raise MatchfieldError("orders must be permutations")
    bits = [[1 << (j - 1) * d + i - 1 for i in right_order] for j in left_order]
    masks = []
    for rises in combinations(range(1, n + d - 1), d - 1):
        row, col, mask = 0, 0, bits[0][0]
        for step in range(1, n + d - 1):
            if step in rises:
                col += 1
            else:
                row += 1
            mask |= bits[row][col]
        masks.append(mask)
    return Triangulation(n, d, masks)


def count_bound(n: int, d: int) -> int:
    """Upper bound K! on the number of triangulations, K = tree_count(n, d).
    Raises MatchfieldError on an empty side and SizeCapError beyond
    STAIRCASE_MAX_TREES trees, before the factorial."""
    core._check_sides(n, d, MatchfieldError(f"count_bound ({n}, {d}) needs a node on each side"))
    K = tree_count(n, d)
    if K > STAIRCASE_MAX_TREES:
        raise SizeCapError(
            f"count_bound ({n}, {d}) has {K} trees, over the cap of {STAIRCASE_MAX_TREES}")
    return factorial(K)


def enumerate_triangulations(n: int, d: int) -> list[Triangulation]:
    """Exhaustive enumeration, deterministic order.  Capped at K <= 6.

    Trees are grouped by right degree vector (each class contributes exactly
    one tree, by the agreement axiom and counting); the search extends a
    partial selection class by class, pruning on containment-agreement and
    distinct left degree vectors.  A complete candidate is a triangulation
    without ``check_triangulation``: K distinct spanning trees, one per
    class, every pair passing the clash test of ``core.agreed_masks``.
    Raises MatchfieldError on an empty side, like staircase_triangulation.
    """
    core._check_sides(
        n, d, MatchfieldError(f"enumerate_triangulations ({n}, {d}) needs a node on each side"))
    K = tree_count(n, d)
    if K > 6:
        raise SizeCapError(f"enumerate_triangulations capped at K <= 6, got K = {K}")
    trees = core.all_spanning_trees(n, d)
    classes: dict[tuple, list[BipartiteGraph]] = {}
    for g in trees:
        classes.setdefault(g.right_degrees(), []).append(g)
    rdvs = sorted(classes)  # the positive vectors of sum n + d - 1, K of them
    maps = {g: core.agreed_masks([g.mask], n, d)[0] for g in trees}

    found: list[Triangulation] = []

    def agree(g, h):
        mg, mh = maps[g], maps[h]
        small, big = (mg, mh) if len(mg) <= len(mh) else (mh, mg)
        for key, m in small.items():
            other = big.get(key)
            if other is not None and other != m:
                return False
        return True

    def extend(idx, chosen, used_ldv):
        if idx == len(rdvs):
            found.append(Triangulation(n, d, [g.mask for g in chosen]))
            return
        for g in sorted(classes[rdvs[idx]], key=lambda x: x.mask):
            ldv = g.left_degrees()
            if ldv in used_ldv:
                continue
            if all(agree(g, h) for h in chosen):
                extend(idx + 1, chosen + [g], used_ldv | {ldv})

    extend(0, [], frozenset())
    found.sort(key=lambda t: t.masks)
    return found


# ---------------------------------------------------------------------------
# extended arrangements from triangulations


def extended_tope_arrangement(t: Triangulation) -> fields.ExtendedTopeArrangement:
    """The cells of a triangulation with all left degrees 1, one per right
    degree vector in n*Delta_{d-1}; boundary cells have isolated right nodes.
    The cell at b + e_k is the walk of `core.tree_tope` from rk over the tree
    of right degree vector b + 1, so K*d walks reach every lattice point."""
    n, d, rows = t.n, t.d, range(1, t.n + 1)
    table: dict = {}
    for mask in t.masks:
        for k in range(1, d + 1):
            cell = core.tree_tope(mask, rows, d, k)
            if cell is None:
                raise MatchfieldError(f"{core.edge_lists(n, d, [mask])[0]} is not a spanning tree")
            rdv = core.right_degrees(cell, n, d)
            if table.setdefault(rdv, cell) != cell:
                raise MatchfieldError(f"two cells share the right degree vector {rdv}")
    return fields.ExtendedTopeArrangement(n, d, table)


# ---------------------------------------------------------------------------
# serialization


def triangulation_to_json_dict(t: Triangulation) -> dict:
    return {"n": t.n, "d": t.d, "trees": core.edge_lists(t.n, t.d, t.masks)}


def trees_from_json_dict(data: dict) -> tuple[int, int, list[int]]:
    """n, d and the tree masks of a triangulation object (``core.edge_mask``).
    Raises ValueError when a value has the wrong JSON shape, or an empty
    side before any tree is read; the trees are not validated."""
    n, d = core.read_sides(data)
    if min(n, d) < 1:
        raise MatchfieldError(f"triangulation ({n}, {d}) needs a node on each side")
    return n, d, [core.edge_mask(n, d, t)[0] for t in core._json_list(data["trees"], "trees")]


def triangulation_from_json_dict(data: dict) -> Triangulation:
    n, d, trees = trees_from_json_dict(data)
    return validate_triangulation(trees, n, d)


def pairs_to_json_dict(pairs: Iterable, n: int, d: int) -> dict:
    return {
        "n": n,
        "d": d,
        "pairs": sorted([list(u), list(v)] for u, v in pairs),
    }


def pairs_from_json_dict(data: dict) -> frozenset:
    """The degree pairs of a pair-set object; its n and d must be integers.
    Raises ValueError when a value has the wrong JSON shape."""
    core.read_sides(data)
    pairs = set()
    for pair in core._json_list(data["pairs"], "pairs"):
        u, v = core._json_list(pair, "a degree pair", 2)
        pairs.add((core._int_tuple(u, "a degree vector"), core._int_tuple(v, "a degree vector")))
    return frozenset(pairs)
