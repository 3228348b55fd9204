"""Bipartite-graph primitives shared by every other module.

Graphs live on left nodes l1..ln and right nodes r1..rd and are identified
with their edge sets.  Edges are 1-based pairs (j, i) meaning (lj, ri),
encoded internally as bits of an integer mask, so equality, union and
intersection are structural and cheap.  The hard cap n, d <= 64 keeps the
masks honest; enumerative operations impose much smaller practical caps of
their own.

The central relation is *compatibility*: two graphs are incompatible when
one can find a perfect matching inside the first and another one inside the
second, on the same node sets, that are edge-disjoint.  This is decided by
orienting the edges of g1 \\ g2 left-to-right and those of g2 \\ g1
right-to-left and searching for a directed cycle; such a cycle alternates
between the two graphs and its two halves are the conflicting matchings.
Note the criterion ignores edges present in both graphs.  The stronger,
containment-based agreement check used for triangulation axioms and stacks
is ``agreed_masks``, one pass over a dict keyed by (J, I).

The certificate kernels work on integer masks alone, one kernel per fact.
``agreed_masks`` builds each distinct matching of all the edge masks once,
into one dict keyed by (J mask, I mask): a depth-first pass over the rows
carries the bitset of the masks that hold the partial matching, so the work
is about the distinct matchings times d, not the sum of the matchings per
graph, and a refusal costs about what an acceptance does; on one mask it is
the listing of the matchings inside it.  ``find_cycle`` is the forest or
cycle test, a union-find over the edge bits.  ``right_perfect_matchings``
builds only the matchings that cover R, column by column; ``tree_tope``
walks a tree over its row masks, deciding spanning trees and linkage
covectors and reading off the tope inside;
``sector_sweep`` is a breadth-first search over lattice points coded as
integers, sum v_k * B^(dim-k) with every digit below B, so that a move is
integer arithmetic and code order is tuple order; ``sectors`` tests no seed
for presence, since each caller's entry point checks that its codes biject
onto the lattice points.  ``incompatible_partners``
tests a partial map (``tope_function``) against all its partners in one
closure over bitsets.

Every keyed container is a mask table, {key: edge mask}: a field or a set of
Chow covectors keyed by left-subset bitmasks, a tope arrangement or an
extended arrangement by lattice points, a matching stack by (J mask, I mask),
a triangulation by the rank of each tree mask.  Each is a ``MaskTable``, which
holds (n, d) and the table once its constructor has decided their range by
the one range rule (``fit``), compares and prints them, and gives the one
trusted hold, which decides nothing (``MaskTable._unchecked``).  Its graphs,
such as ``graph_table``, are a view built only for a caller that asks for
them.  A phi map, keyed by left-subset bitmasks too, holds lattice points and
is no MaskTable; its constructor decides its keys by the same rule.  In process a left subset is its bitmask, and
``subset_masks`` is the one colex walk over them; ``subsets`` is a view of
it that names the members, for callers that name subsets, and one scan of
it decides a field (``fields._field_fault``).  A JSON table of keys and
edge lists is read straight into one, each edge list by one accepting loop
(``edge_mask``) that gathers the bitmasks of its rows and columns beside
its mask; any other edge list goes to one refusal routine.  ``read_masks``
reads every table so but a field's, whose reader decides its type from
them while it parses (``fields.field_from_json_dict``).  ``write_masks``
writes one [j, i] list per grid bit per output (``edge_lists``).  Subset
keys cross that boundary through one codec per call, ``subset_codec``: every
k-subset of [n] as (key, bitmask, subset) in colex order, built for a table
only when it has no more entries than the table, k taken from the table's
first key.  Every subset-keyed table, phi's too, is read by
``subset_reader`` and written by ``subset_writer``, which look keys up in
it; a key it lacks goes to ``read_subset_key``, which refuses it by name or
reads a subset of another size.  Every JSON format is read strictly: a value
of the wrong shape, a subset key that is not its subset's one spelling or a
point key that is not its point's one spelling raises ValueError.  Graphs,
triangulations and degree pairs are read with the same checks.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import Collection, Iterable, Iterator, NoReturn, Optional, Sequence

from .errors import MatchfieldError, NotASpanningTreeError, SizeCapError

MAX_SIDE = 64


def _check_sides(n: int, d: int, empty: Optional[MatchfieldError] = None) -> None:
    """The one side check: ``empty``, when given, for a side with no node;
    then MatchfieldError naming an empty right side or a negative left one,
    then SizeCapError for a side over MAX_SIDE.  Else n = 0 is allowed, for
    the degenerate stacks that complete to n = d fields."""
    if empty is not None and min(n, d) < 1:
        raise empty
    if not (0 <= n <= MAX_SIDE and 1 <= d <= MAX_SIDE):
        if n < 0 or d < 1:
            raise MatchfieldError(f"node counts ({n}, {d}) need n >= 0 and d >= 1")
        raise SizeCapError(f"node counts ({n}, {d}) outside [0, {MAX_SIDE}]")


class BipartiteGraph:
    """Immutable bipartite graph on [n] ⊔ [d], stored as an edge bitmask."""

    __slots__ = ("n", "d", "mask", "_edges")

    def __init__(self, n: int, d: int, edges: Iterable[tuple[int, int]]):
        _check_sides(n, d)
        mask = 0
        for j, i in edges:
            if not (1 <= j <= n and 1 <= i <= d):
                raise MatchfieldError(f"edge ({j}, {i}) out of range for ({n}, {d})")
            mask |= 1 << ((j - 1) * d + (i - 1))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_edges", None)

    @classmethod
    def from_mask(cls, n: int, d: int, mask: int) -> "BipartiteGraph":
        _check_sides(n, d)
        check_masks((mask,), n, d)
        g = cls.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "d", d)
        object.__setattr__(g, "mask", mask)
        object.__setattr__(g, "_edges", None)
        return g

    def __setattr__(self, *args):
        raise AttributeError("BipartiteGraph is immutable")

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges in lexicographic order; computed once."""
        cached = self._edges
        if cached is None:
            pairs = _edge_pairs(self.n, self.d)
            cached = tuple(pairs[b] for b in _bits(self.mask))
            object.__setattr__(self, "_edges", cached)
        return cached

    def __eq__(self, other):
        return (
            isinstance(other, BipartiteGraph)
            and self.n == other.n
            and self.d == other.d
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.n, self.d, self.mask))

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, edge):
        j, i = edge
        if not (1 <= j <= self.n and 1 <= i <= self.d):
            return False
        return bool(self.mask >> ((j - 1) * self.d + (i - 1)) & 1)

    def __repr__(self):
        return f"BipartiteGraph({self.n}, {self.d}, {list(self.edges)})"

    def _same_sides(self, other: "BipartiteGraph") -> None:
        if self.n != other.n or self.d != other.d:
            raise MatchfieldError("graphs live on different node sets")

    def difference(self, other: "BipartiteGraph") -> "BipartiteGraph":
        self._same_sides(other)
        return BipartiteGraph.from_mask(self.n, self.d, self.mask & ~other.mask)

    def left_degrees(self) -> tuple[int, ...]:
        row = (1 << self.d) - 1
        return tuple(
            (self.mask >> ((j - 1) * self.d) & row).bit_count() for j in range(1, self.n + 1)
        )

    def right_degrees(self) -> tuple[int, ...]:
        return right_degrees(self.mask, self.n, self.d)

    def left_neighbors(self, j: int) -> tuple[int, ...]:
        row = self.mask >> ((j - 1) * self.d) & ((1 << self.d) - 1)
        return tuple(b + 1 for b in _bits(row))

    def right_neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(j for j, i2 in self.edges if i2 == i)

    def left_support(self) -> tuple[int, ...]:
        return tuple(j for j, deg in enumerate(self.left_degrees(), start=1) if deg)

    def right_support(self) -> tuple[int, ...]:
        return tuple(i for i, deg in enumerate(self.right_degrees(), start=1) if deg)


def column_mask(n: int, d: int) -> int:
    """Bit j * d of every row j < n: the r1 column of an n x d edge mask,
    and shifted left by i - 1 the ri column."""
    return ((1 << n * d) - 1) // ((1 << d) - 1)


def right_degrees(mask: int, n: int, d: int) -> tuple[int, ...]:
    """The right degree vector of an n x d edge mask: its column popcounts."""
    return tuple([(mask & column).bit_count() for column in _columns(n, d)])


@functools.lru_cache(maxsize=64)
def _columns(n: int, d: int) -> tuple[int, ...]:
    """The ri column of an n x d edge mask, for i = 1..d."""
    column = column_mask(n, d)
    return tuple(column << i for i in range(d))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# cycles and trees


def find_cycle(mask: int, n: int, d: int) -> Optional[list[tuple[int, int]]]:
    """Some cycle of an n x d edge mask as an edge list, or None if it is a
    forest: the one forest or cycle test.

    A union-find (lj is node j - 1, ri node n + i - 1) takes the edge bits
    in increasing order, which is lexicographic (j, i) order.  The first bit
    closing a cycle determines it, so the result is deterministic: the path
    between the bit's ends through the earlier bits, which form a forest,
    then the bit itself.
    """
    parent = list(range(n + d))
    for b in _bits(mask):
        x, y = b // d, n + b % d
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x == y:
            break
        parent[x] = y
    else:
        return None
    j, i = b // d, b % d
    earlier, full, column = mask & (1 << b) - 1, (1 << d) - 1, column_mask(n, d)
    prev, todo = {j: j}, [j]
    for u in todo:  # a walk from lj over the earlier bits, grown while it is read
        if u < n:
            ends = [n + c for c in _bits(earlier >> u * d & full)]
        else:
            ends = [c // d for c in _bits(earlier >> u - n & column)]
        for v in ends:
            if v not in prev:
                prev[v] = u
                todo.append(v)
    cycle, v = [(j + 1, i + 1)], n + i  # back from ri to lj, then reversed
    while v != j:
        u = prev[v]
        left, right = (u, v) if u < n else (v, u)
        cycle.append((left + 1, right - n + 1))
        v = u
    return cycle[:0:-1] + cycle[:1]


def tree_tope(mask: int, rows: Sequence[int], d: int, k: int) -> Optional[int]:
    """The tope inside a tree on rows ⊔ [d] in which rk keeps its edges and
    every other right node loses one, as an edge mask; None unless the mask
    is such a tree: len(rows) + d - 1 edges, all joined up by a walk from
    rk that joins rows level by level over their row masks.  A row keeps
    its edges to the columns reached before its level, in a tree just one."""
    if mask.bit_count() != len(rows) + d - 1:
        return None
    full = (1 << d) - 1
    shifts = [(j - 1) * d for j in rows]
    reached, tope = 1 << (k - 1), 0
    while shifts:
        joined, rest = reached, []
        for s in shifts:
            if (row := mask >> s & full) & joined:
                reached |= row
                tope |= (row & joined) << s
            else:
                rest.append(s)
        if len(rest) == len(shifts):
            return None
        shifts = rest
    return tope if reached == full else None


# ---------------------------------------------------------------------------
# compatibility


@dataclass(frozen=True)
class CompatibilityWitness:
    """Two edge-disjoint perfect matchings on the same node sets J ⊔ I."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    first: BipartiteGraph
    second: BipartiteGraph


def is_compatible(
    g1: BipartiteGraph, g2: BipartiteGraph
) -> tuple[bool, Optional[CompatibilityWitness]]:
    """Alternating-cycle compatibility test.

    Orient g1 \\ g2 from left to right and g2 \\ g1 from right to left; the
    graphs are incompatible exactly when this digraph has a cycle.  The cycle
    is reported as a witness: its g1 half and g2 half are edge-disjoint
    perfect matchings on the cycle's node sets.  The search is deterministic:
    arcs are scanned in lexicographic order and the first cycle found through
    the smallest starting edge is returned.
    """
    g1._same_sides(g2)
    only1 = g1.difference(g2)
    only2 = g2.difference(g1)
    # arcs: left node -> right nodes (from g1), right node -> left nodes (from g2)
    fwd: dict[int, list[int]] = {}
    bwd: dict[int, list[int]] = {}
    for j, i in only1.edges:
        fwd.setdefault(j, []).append(i)
    for j, i in only2.edges:
        bwd.setdefault(i, []).append(j)
    for j in sorted(fwd):
        for i in fwd[j]:
            cycle = _directed_cycle_through(j, i, fwd, bwd)
            if cycle is not None:
                m1 = [(a, b) for a, b in cycle if (a, b) in only1]
                m2 = [(a, b) for a, b in cycle if (a, b) in only2]
                left = tuple(sorted({a for a, _ in cycle}))
                right = tuple(sorted({b for _, b in cycle}))
                witness = CompatibilityWitness(
                    left,
                    right,
                    BipartiteGraph(g1.n, g1.d, m1),
                    BipartiteGraph(g1.n, g1.d, m2),
                )
                return False, witness
    return True, None


def _directed_cycle_through(j0, i0, fwd, bwd):
    """Shortest directed cycle using arc lj0 -> ri0, via BFS back to lj0."""
    # BFS over alternating arcs starting at ri0, looking for lj0
    prev: dict = {("R", i0): None}
    frontier = [("R", i0)]
    while frontier:
        nxt_frontier = []
        for node in frontier:
            side, idx = node
            targets = (
                [("L", j) for j in sorted(bwd.get(idx, []))]
                if side == "R"
                else [("R", i) for i in sorted(fwd.get(idx, []))]
            )
            for tgt in targets:
                if tgt == ("L", j0):
                    edges = [(j0, i0), (j0, node[1])]
                    cur = node
                    while cur is not None:
                        par = prev[cur]
                        if par is None:
                            break
                        a, b = (par, cur) if par[0] == "L" else (cur, par)
                        edges.append((a[1], b[1]))
                        cur = par
                    return edges
                if tgt not in prev:
                    prev[tgt] = node
                    nxt_frontier.append(tgt)
        frontier = nxt_frontier
    return None


def tope_function(mask: int, n: int, d: int) -> tuple[int, ...]:
    """The 0-based map f of an n x d edge mask with left degrees at most 1:
    f[j - 1] = i - 1 for its edge (lj, ri), and d where lj has no edge."""
    full = (1 << d) - 1
    rows = (mask >> (j * d) & full for j in range(n))
    return tuple(row.bit_length() - 1 if row else d for row in rows)


def read_rows(mask: int, n: int, d: int) -> Optional[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """The left rows of an n x d edge mask, read once: None when a row holds
    two edges or a bit lies off the grid, else the nonzero rows as a subset
    and as a bitmask, and the right degree vector."""
    if mask >> n * d:
        return None
    full = (1 << d) - 1
    support, key, rdv = [], 0, [0] * d
    for j in range(n):
        if row := mask & full:
            if row & (row - 1):
                return None
            support.append(j + 1)
            key |= 1 << j
            rdv[row.bit_length() - 1] += 1
        mask >>= d
    return tuple(support), key, tuple(rdv)


def partner_index(functions: Sequence[Sequence[int]], n: int, d: int) -> list[list[int]]:
    """index[j][b]: bitset of the partners k with functions[k][j] == b (d: undefined)."""
    index = [[0] * (d + 1) for _ in range(n)]
    for k, f in enumerate(functions):
        for row, b in zip(index, f):
            row[b] |= 1 << k
    return index


def incompatible_partners(f: Sequence[int], index: list[list[int]], d: int) -> int:
    """Bitset of the partners in ``partner_index`` incompatible with f.  Bit k
    of reach[b][a] is an arc b -> a (f(j) = a != f_k(j) = b, both < d); Warshall
    step m finds the cycles whose largest node is m, so it joins larger nodes only."""
    reach = [[0] * d for _ in range(d)]
    for row, a in zip(index, f):
        if a < d:
            for b in range(d):
                reach[b][a] |= row[b]
            reach[a][a] = 0  # partners that agree with f at j
    cyclic = 0
    for m, via in enumerate(reach):
        cyclic |= via[m]
        for r in reach[m + 1:]:
            if into := r[m]:
                for i in range(m + 1, d):
                    r[i] |= into & via[i]
    return cyclic


def right_perfect_matchings(mask: int, n: int, d: int) -> dict[int, int]:
    """The matchings inside an n x d edge mask that cover every right node,
    as {J mask: edge mask}, built column by column: each matching of
    r1..r(i-1) is extended by an unused left node of column i.  A forest or
    a tope holds at most one matching per J; for a graph with several the
    last one found is kept."""
    column = column_mask(n, d)
    level = {0: 0}
    for i in range(d):
        ends = [(1 << b // d, 1 << b + i) for b in _bits(mask >> i & column)]
        level = {J | jbit: m | edge for J, m in level.items()
                 for jbit, edge in ends if not J & jbit}
    return level


def mask_subset(mask: int) -> tuple[int, ...]:
    """The 1-based subset whose members are the set bits of mask."""
    return tuple(b + 1 for b in _bits(mask))


def graph_table(n: int, d: int, table: dict[int, int]) -> dict:
    """A table {left-subset bitmask: edge mask} as {subset: graph}."""
    return {mask_subset(key): BipartiteGraph.from_mask(n, d, m) for key, m in table.items()}


def graph_masks(n: int, d: int, graphs: dict) -> dict:
    """A table {subset: graph} as {left-subset bitmask: edge mask}, keyed by
    ``subset_bits`` of each sorted subset.  A graph on other sides than
    (n, d) becomes -1, which has bits off every grid."""
    return {
        subset_bits(tuple(sorted(s)), n): g.mask if (g.n, g.d) == (n, d) else -1
        for s, g in graphs.items()
    }


class MaskTable:
    """A keyed container held as its mask table {key: edge mask} on (n, d),
    its range decided by the constructor (``fit``).  Two are equal when one is
    an instance of the other's class and their ``_identity`` matches; a
    subclass keeps only its checks, extra state and graph views."""

    key_sides = 0  # keys checked: 1, left-subset bitmasks; 2, (J, I) pairs; 0, by the class

    def __init__(self, n: int, d: int, table: dict):
        _check_sides(n, d)
        check_masks(table.values(), n, d)
        if self.key_sides and not fit(table, *(n, d)[:self.key_sides]):
            raise self._key_fault(n, d, table)
        self.n, self.d, self.mask_table = n, d, table

    def _key_fault(self, n: int, d: int, table: dict) -> MatchfieldError:
        return MatchfieldError(f"keys must be subset bitmasks of the sides ({n}, {d})")

    @classmethod
    def _unchecked(cls, n: int, d: int, table: dict, **held):
        """The one trusted hold: a container of a table its builder has
        decided, with the state that builder computed (``held``), no check run."""
        made = cls.__new__(cls)
        made.n, made.d, made.mask_table = n, d, table
        made.__dict__.update(held)
        return made

    def _graph(self, key, missing) -> BipartiteGraph:
        """The graph at a key, the one lookup of every view; ``missing()``, an
        error naming the key asked for, when the table holds none there, an
        unhashable key included."""
        try:
            mask = self.mask_table[key]
        except (KeyError, TypeError):  # TypeError: the key cannot be hashed
            raise missing() from None
        return BipartiteGraph.from_mask(self.n, self.d, mask)

    def _identity(self) -> tuple:
        return self.n, self.d, self.mask_table

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented  # so Python asks other, which may be the subclass
        return self._identity() == other._identity()

    def __repr__(self):
        return f"<{type(self).__name__} ({self.n},{self.d}) with {len(self.mask_table)} entries>"


def fit(xs: Collection, *bits: int) -> bool:
    """The range rule: every x an int, no bool, in [0, 2^bits), as an edge mask
    (n * d) or a subset bitmask (its side) is; for two widths, a pair of them."""
    if len(bits) == 2:
        return set(map(type, xs)) <= {tuple} and set(map(len, xs)) <= {2} and all(
            map(fit, zip(*xs), bits))
    return set(map(type, xs)) <= {int} and not (xs and (min(xs) < 0 or max(xs) >> bits[0]))


def check_masks(masks: Iterable, n: int, d: int) -> None:
    """Refuse an n x d edge mask out of range (``fit``) with the one grid text."""
    if not fit(masks, n * d):
        raise MatchfieldError(f"mask has bits outside the {n}x{d} grid")


def subset_mask(subset: Iterable[int]) -> int:
    """The bitmask whose set bits are the members of a 1-based subset; the
    inverse of mask_subset."""
    return sum(1 << (j - 1) for j in subset)


def subset_bits(subset: tuple[int, ...], n: int):
    """The key of a subset in a mask table: its bitmask when its members
    are ints increasing within [n] and n <= MAX_SIDE, else the tuple itself.
    No validator accepts a tuple key, and a huge member is never shifted."""
    mask, top = 0, min(n, MAX_SIDE)
    for j in subset:
        if type(j) is not int or not 0 < j <= top or mask >> (j - 1):
            return subset
        mask |= 1 << (j - 1)
    return mask


def contained_matchings(g: BipartiteGraph) -> dict[tuple, BipartiteGraph]:
    """The nonempty matchings inside g, ``agreed_masks`` of its one mask,
    keyed by (left support, right support) tuples, each as a graph."""
    return {
        (mask_subset(J), mask_subset(I)): BipartiteGraph.from_mask(g.n, g.d, m)
        for (J, I), m in agreed_masks([g.mask], g.n, g.d)[0].items()
    }


def agreed_masks(masks: Sequence[int], n: int, d: int) -> tuple[dict, Optional[tuple]]:
    """Containment agreement of n x d edge masks in one keyed pass: the
    matchings inside the masks as {(J mask, I mask): edge mask}, each from
    the first mask holding its key, and the first disagreement as (index of
    g, index of h, J mask, I mask), or None.  Bit j - 1 of J stands for lj,
    bit i - 1 of I for ri.  "First" is the order of a pairwise scan over g
    before h, then over g's keys; a key's clash is between its first holder
    and the first later mask that differs there.

    Each edge carries the bitset of the masks that hold it.  A depth-first
    search extends a matching by an edge of a later row, rows in increasing
    order and then right bits in increasing order, and carries the bitset of
    the masks that hold the matching; an edge extends it when the AND of the
    two bitsets is nonzero.  So each distinct matching is built once, at the
    cost of about d tries, and a refusal costs about what an acceptance
    does; a triangulation holds C(n+d, n) - 1 distinct matchings.  A
    matching comes before its extensions, so the keys come in the preorder
    of the matchings over the lexicographic edge order.  The search meets
    each mask's matchings in that preorder, so at a key given several
    matchings a mask owns the last one it holds.  The witness is the least
    (lowest owner, lowest owner of another matching) over those keys, ties
    going to the key first in the listing of the first holder alone: this
    pass on its one mask, which holds no clash.

    Stronger than is_compatible for trees: a shared edge may lie on an
    alternating cycle, which the symmetric-difference orientation cannot see.
    """
    holders = [0] * (n * d)  # bit t of holders[b]: mask t holds edge bit b
    for t, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            holders[low.bit_length() - 1] |= 1 << t
            mask ^= low
    rows = [(1 << j, [(1 << i, 1 << j * d + i, holders[j * d + i]) for i in range(d)])
            for j in range(n)]
    agreed: dict[tuple, int] = {}
    found: dict[tuple, list] = {}  # a key with two or more matchings -> them in search order

    def search(start: int, J: int, I: int, m: int, S: int) -> None:
        for t in range(start, len(rows)):
            jbit, ends = rows[t]
            J_t = J | jbit
            for low, edge, h in ends:
                if not I & low and (held := S & h):
                    e, I_t = m | edge, I | low
                    if agreed.setdefault((J_t, I_t), e) != e:
                        found.setdefault((J_t, I_t), [agreed[J_t, I_t]]).append(e)
                    search(t + 1, J_t, I_t, e, held)

    search(0, 0, 0, 0, (1 << len(masks)) - 1)
    clashes = set()  # (first holder, first graph to differ, key)
    for key, matchings in found.items():
        owners, later = {}, 0
        for m in reversed(matchings):
            held = functools.reduce(int.__and__, (holders[b] for b in _bits(m)))
            owners[m] = held & ~later
            later |= held
        first = later & -later
        agreed[key] = next(m for m, own in owners.items() if own & first)
        if others := later & ~owners[agreed[key]]:
            clashes.add((first.bit_length() - 1, (others & -others).bit_length() - 1, key))
    if not clashes:
        return agreed, None
    a, b, _ = min(clashes)
    return agreed, next((a, b, *key) for key in agreed_masks([masks[a]], n, d)[0]
                        if (a, b, key) in clashes)


# ---------------------------------------------------------------------------
# topes inside trees


def contained_tope(tree: BipartiteGraph, k: int) -> BipartiteGraph:
    """The unique tope with right degree vector v - 1_{[d] minus k} inside a tree.

    The tree must cover every right node and be a tree on its support
    (isolated left nodes are ignored, so linkage covectors on a subset of L
    qualify).  Rooting the tree at rk, the last edge of the path from rk to
    every other right node is removed: each left node keeps only its edge
    towards rk, which ``tree_tope`` reads off its walk from rk.
    """
    if not (1 <= k <= tree.d):
        raise MatchfieldError(f"right index {k} out of range")
    if any(deg == 0 for deg in tree.right_degrees()):
        raise NotASpanningTreeError("tree must cover every right node")
    tope = tree_tope(tree.mask, tree.left_support(), tree.d, k)
    if tope is None:
        raise NotASpanningTreeError("input is not a tree on its support")
    return BipartiteGraph.from_mask(tree.n, tree.d, tope)


# ---------------------------------------------------------------------------
# subsets and lattice points


def subsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """k-subsets of [n] in colexicographic order: a view of ``subset_masks``
    that names each bitmask's members.  (n, k) out of range raise
    SizeCapError at the call."""
    if not (0 <= k <= n <= MAX_SIDE):
        raise SizeCapError(f"subsets({n}, {k}) out of range")
    return map(mask_subset, subset_masks(n, k))


def subset_masks(n: int, k: int) -> Iterator[int]:
    """The bitmasks of the k-subsets of [n] in increasing order, which is
    the colex order of ``subsets``; none when k > n, and SizeCapError for
    n over MAX_SIDE, as in ``subsets``.  The one colex bitmask walk:
    Gosper's step gives the next bitmask with as many set bits."""
    if n > MAX_SIDE:
        raise SizeCapError(f"subsets({n}, {k}) out of range")
    mask, end = (1 << k) - 1, 1 << n
    while mask < end:
        yield mask
        if not (low := mask & -mask):  # the one 0-subset
            return
        step = mask + low
        mask = step | ((step ^ mask) >> 2) // low


def is_subset_keys(keys: Collection, n: int, k: int) -> bool:
    """Whether a table's keys are the bitmasks of the k-subsets of [n], by
    counting as ``is_simplex_lattice`` does: C(n, k) distinct ints of k bits
    below 1 << n are all of them.  (n, k) out of range raise as in ``subsets``."""
    if not (0 <= k <= n <= MAX_SIDE):
        raise SizeCapError(f"subsets({n}, {k}) out of range")
    return len(keys) == comb(n, k) and all(
        type(x) is int and x.bit_count() == k and not x >> n for x in keys)


def simplex_lattice_points(m: int, dim: int) -> list[tuple[int, ...]]:
    """Lattice points of the dilated simplex m * Delta_{dim-1}: nonnegative
    integer vectors of length dim with coordinate sum m, in lexicographic
    order."""
    if dim < 1 or m < 0:
        raise MatchfieldError(f"invalid lattice point parameters ({m}, {dim})")
    if dim == 1:
        return [(m,)]
    out = []
    for first in range(m + 1):
        out.extend((first,) + rest for rest in simplex_lattice_points(m - first, dim - 1))
    return out


def is_simplex_lattice(vectors: Collection, m: int, dim: int) -> bool:
    """Whether the vectors are the lattice points of m * Delta_{dim-1}, each
    once, decided by counting and never listing them: C(m + dim - 1, dim - 1)
    distinct vectors of dim nonnegative ints summing to m are all of them.
    Invalid (m, dim) raise as in simplex_lattice_points."""
    if dim < 1 or m < 0:
        raise MatchfieldError(f"invalid lattice point parameters ({m}, {dim})")
    return (
        len(vectors) == comb(m + dim - 1, dim - 1) == len(set(vectors))
        and set(map(type, vectors)) <= {tuple}
        and set(map(type, chain.from_iterable(vectors))) <= {int}
        and all(len(v) == dim and sum(v) == m and min(v) >= 0 for v in vectors)
    )


def vector_sum(a: Iterable[int], b: Iterable[int]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def unit_vector(dim: int, i: int) -> tuple[int, ...]:
    return tuple(1 if t == i else 0 for t in range(1, dim + 1))


def all_ones(dim: int) -> tuple[int, ...]:
    return (1,) * dim


def encode_point(v: Sequence[int], base: int) -> int:
    """Code sum v_k * base^(dim-k) of a lattice point, the first coordinate
    most significant: for digits below base, code order is tuple order."""
    code = 0
    for c in v:
        code = code * base + c
    return code


def decode_point(x: int, dim: int, base: int) -> tuple[int, ...]:
    """The lattice point of length dim with code x (``encode_point``)."""
    return tuple(x // base**k % base for k in range(dim - 1, -1, -1))


def sector_sweep(members: set, i: int, seed: int, dim: int, base: int) -> set:
    """Combinatorial sector of ri among the member codes of length dim: the
    members reached from the seed by the moves v -> v - e_i + e_k (v_i > 0),
    adding base^(dim-k) - base^(dim-i), breadth first, so a member joins when
    an admitted one sits at v + e_i - e_k.  Empty if the seed is no member."""
    if seed not in members:
        return set()
    unit = base ** (dim - i)
    moves = [base**k - unit for k in range(dim) if k != dim - i]
    admitted, queue = {seed}, [seed]
    for x in queue:  # grows while it is read, first in first out
        if x // unit % base:  # v_i > 0
            for move in moves:
                w = x + move
                if w in members and w not in admitted:
                    admitted.add(w)
                    queue.append(w)
    return admitted


def sectors(members: set, top: int, j: int, error: type, dim: int, base: int) -> dict:
    """Partition the member rdv codes of left node j into its combinatorial
    sectors, one per right node i swept from the seed top * e_i
    (``sector_sweep``): {code: i}.  Raises ``error``, naming decoded points,
    when a member is admitted to two sectors (the least one of the first
    sector meeting an earlier one) or one is missed.  A seed that is no
    member sweeps nothing; every seed is a code of the caller's level,
    whose codes biject onto the lattice points."""
    sector: dict = {}
    for i in range(1, dim + 1):
        admitted = sector_sweep(members, i, top * base ** (dim - i), dim, base)
        if not admitted.isdisjoint(sector):
            twice = min(admitted & sector.keys())
            raise error(f"rdv {decode_point(twice, dim, base)} admitted to two sectors of {j}")
        for x in admitted:
            sector[x] = i
    if len(sector) != len(members):  # every admitted code is a member
        raise error(f"sectors do not cover all pairs through {j}")
    return sector


# ---------------------------------------------------------------------------
# serialization


def canonical_json(data) -> str:
    """Canonical JSON: sorted keys, no floats, newline-terminated.  Tuples
    are written as arrays, and a witness as it is held (``_witness_json``);
    every caller passes a fresh tree, so the encoder skips its check for
    circular references."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"), check_circular=False,
                      default=_witness_json) + "\n"


def _witness_json(x):
    """A graph as its edge list, a set as its sorted members; TypeError else."""
    if isinstance(x, BipartiteGraph):
        return x.edges
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    raise TypeError(f"{type(x).__name__} has no JSON form")


_SUBSET_KEY = re.compile(r"[1-9][0-9]*(,[1-9][0-9]*)*")
_POINT_KEY = re.compile(r"(-?[1-9][0-9]*|0)(,(-?[1-9][0-9]*|0))*")
_JSON_LISTS = (list, tuple)


def read_subset_key(key: str, n: int):
    """The subset a key spells, positive integers in increasing order and
    comma-joined, as ``subset_bits`` keys it, from one fullmatch and one
    loop over the members: its bitmask, or its tuple when a member lies
    beyond min(n, MAX_SIDE), which is never shifted; so on n = 0 the tuple.
    Any other key raises ValueError naming it, so no two keys of a table
    spell one subset."""
    if _SUBSET_KEY.fullmatch(key):
        members, mask, last, top = tuple(map(int, key.split(","))), 0, 0, min(n, MAX_SIDE)
        for j in members:
            if j <= last:
                break
            if j <= top:
                mask |= 1 << (j - 1)
            last = j
        else:
            return mask if last <= top else members
    raise ValueError(f"subset key {key!r} must list positive integers in increasing order")


def parse_point_key(key: str) -> tuple[int, ...]:
    """An integer vector from the one key ``subset_key`` writes for it; any
    other spelling raises ValueError naming it, so none spells it twice."""
    if not _POINT_KEY.fullmatch(key):
        raise ValueError(f"point key {key!r} must be integers in plain decimal, comma-joined")
    return tuple(map(int, key.split(",")))


def subset_key(subset: Iterable[int]) -> str:
    return ",".join(str(x) for x in subset)


def subset_codec(n: int, k: int, size: int) -> list[tuple[str, int, tuple[int, ...]]]:
    """Every k-subset of [n] once, as (key, bitmask, subset), in the colex
    order of ``subsets`` and ``subset_masks``, that is, increasing bitmask;
    empty unless 0 <= k <= n <= MAX_SIDE and C(n, k) <= size, the entries
    of the table whose keys it serves (through ``subset_reader`` and
    ``subset_writer``), so it never costs more than the table does.  The
    t-subsets whose largest member is m are the first C(m - 1, t - 1)
    (t - 1)-subsets, each extended by m; level t keeps the largest members
    that level k can still extend."""
    if not (0 <= k <= n <= MAX_SIDE and comb(n, k) <= size):
        return []
    level = [("", 0, ())]
    for t in range(1, k + 1):
        grown, sep = [], "," if t > 1 else ""
        for m in range(t, n - k + t + 1):
            tail, bit, last = sep + str(m), 1 << (m - 1), (m,)
            grown += [(key + tail, mask | bit, subset + last)
                      for key, mask, subset in level[:comb(m - 1, t - 1)]]
        level = grown
    return level


def _json_list(value, what: str, length: Optional[int] = None) -> list:
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        size = "a list" if length is None else f"a list of length {length}"
        raise ValueError(f"{what} must be {size}, got {value!r}")
    return list(value)


def _int_tuple(value, what: str) -> tuple[int, ...]:
    items = _json_list(value, what)
    if any(type(x) is not int for x in items):
        raise ValueError(f"{what} must hold integers, got {value!r}")
    return tuple(items)


def edge_mask(n: int, d: int, edges) -> tuple[int, int, int]:
    """The edge mask of a JSON edge list, the bitmask of its rows (the left
    nodes it meets) and that of its columns (the right nodes it meets),
    read in one loop over its pairs of integers on the n x d grid.
    Anything else goes to ``_refuse_edges``.  Each edge is unpacked as
    (j, i), so in process any two-item iterable of integers passes where
    JSON gives a list."""
    mask = rows = cols = 0
    if type(edges) in _JSON_LISTS and 0 <= n <= MAX_SIDE and 1 <= d <= MAX_SIDE:
        try:
            top = d + 1  # bit (j - 1) * d + i - 1 in one subtraction; rows and cols one up
            for j, i in edges:
                if type(j) is int and type(i) is int and 0 < j <= n and 0 < i <= d:
                    mask |= 1 << (j * d + i - top)
                    rows |= 1 << j
                    cols |= 1 << i
                else:
                    break
            else:
                return mask, rows >> 1, cols >> 1
        except (TypeError, ValueError):  # an edge that is no pair
            pass
    _refuse_edges(n, d, edges)


def _refuse_edges(n: int, d: int, edges) -> NoReturn:
    """Raise the fault of an edge list ``edge_mask`` refused: ValueError
    unless it is a list of integer pairs, then SizeCapError unless (n, d) is
    within the cap, then MatchfieldError naming its first edge off the
    n x d grid."""
    if type(edges) not in _JSON_LISTS:
        raise ValueError(f"an edge list must be a list, got {edges!r}")
    off = None
    for e in edges:
        if type(e) not in _JSON_LISTS or len(e) != 2 or {type(e[0]), type(e[1])} != {int}:
            raise ValueError(f"an edge must be a pair of integers, got {e!r}")
        if off is None and not (0 < e[0] <= n and 0 < e[1] <= d):
            off = e
    _check_sides(n, d)
    # every edge is a pair and the sides are good, so the loop stopped off the grid
    raise MatchfieldError(f"edge ({off[0]}, {off[1]}) out of range for ({n}, {d})")


@functools.lru_cache(maxsize=64)
def _edge_pairs(n: int, d: int) -> tuple[tuple[int, int], ...]:
    """(j, i) of every bit b = (j - 1) * d + i - 1 of an n x d edge mask."""
    return tuple((b // d + 1, b % d + 1) for b in range(n * d))


def edge_lists(n: int, d: int, masks: Iterable[int]) -> list[list]:
    """The JSON edge list [[j, i], ...] of each n x d edge mask, in bit
    order, one call per output: its lists share one [j, i] list per grid
    bit, made beside the tuples of ``_edge_pairs``, and no two calls do."""
    pairs, out = list(map(list, _edge_pairs(n, d))), []
    for mask in masks:
        edges = []
        while mask:
            low = mask & -mask
            edges.append(pairs[low.bit_length() - 1])
            mask ^= low
        out.append(edges)
    return out


def read_sides(data: dict) -> tuple[int, int]:
    """n and d of an input object; ValueError unless both are integers."""
    return _int_tuple([data["n"], data["d"]], "n and d")


def read_object(data: dict, name: str) -> tuple[int, int, dict]:
    """n, d and the JSON object data[name]; ValueError unless it is one."""
    n, d = read_sides(data)
    table = data[name]
    if not isinstance(table, dict):
        raise ValueError(f"{name} must be an object, got {table!r}")
    return n, d, table


def read_masks(data: dict, name: str, parse_key=None) -> tuple[int, int, dict]:
    """n, d and the table data[name] of keys and edge lists as a mask table:
    each entry's key read by parse_key, by default ``subset_reader``'s, then
    its edge list by ``edge_mask``.  Raises ValueError on a value of the
    wrong JSON shape or a key parse_key refuses; nothing else is validated."""
    n, d, table = read_object(data, name)
    parse_key = parse_key or subset_reader(n, table)
    return n, d, {parse_key(k): edge_mask(n, d, v)[0] for k, v in table.items()}


def subset_reader(n: int, table: dict):
    """The reader of a JSON table's keys as left subsets of [n]: each looked
    up in ``subset_codec``, k the member count the first key spells, else
    read by ``read_subset_key``."""
    members = next(iter(table), "").count(",") + 1
    masks = {key: mask for key, mask, _ in subset_codec(n, members, len(table))}
    return lambda key: masks[key] if key in masks else read_subset_key(key, n)


def subset_writer(n: int, table: dict):
    """The writer of a table's left-subset bitmask keys as JSON keys: each
    looked up in ``subset_codec``, k taken from the first key, else spelled
    by ``subset_key``."""
    members = next(iter(table), 0).bit_count()
    keys = {mask: text for text, mask, _ in subset_codec(n, members, len(table))}
    return lambda m: keys[m] if m in keys else subset_key(mask_subset(m))


def write_masks(n: int, d: int, name: str, table: dict, key=None) -> dict:
    """The object read_masks reads, each key written by key(k), by default
    ``subset_writer``'s, and the edge lists by one ``edge_lists`` call, so
    the entries of one output share its [j, i] lists."""
    key = key or subset_writer(n, table)
    return {"n": n, "d": d, name: dict(zip(map(key, table), edge_lists(n, d, table.values())))}


def all_spanning_trees(n: int, d: int) -> list[BipartiteGraph]:
    """All spanning trees of the complete bipartite graph K_{n,d}.

    Desk scale only: iterates over all (n + d - 1)-subsets of the n*d edges.
    """
    if n * d > 24:
        raise SizeCapError(f"all_spanning_trees({n}, {d}) beyond desk scale")
    every = [(j, i) for j in range(1, n + 1) for i in range(1, d + 1)]
    out = []
    for chosen in combinations(every, n + d - 1):
        g = BipartiteGraph(n, d, chosen)
        if tree_tope(g.mask, range(1, n + 1), d, 1) is not None:
            out.append(g)
    return out
