"""Matching stacks, ensembles, completion, and transversal matroids.

A matching stack assigns a perfect matching to every pair (J, I) of
equal-sized subsets of the two node sets.  An ensemble additionally
satisfies closure (submatchings are again assigned values) and linkage
(every fixed-I layer is a left-linkage field, every fixed-J layer a
right-linkage field), both decided by edge counts on one mask table.
Triangulations induce ensembles: collect every partial matching occurring
in the trees.

Completion embeds an (m, d)-stack into an (m+d, d)-matching field by
appending d dummy left nodes; the matching for a d-subset sigma matches
each dummy node l_{m+h} in sigma to its own right node r_h and routes the
remaining right nodes through the stack.  A linkage completion forces every
stack layer to be linkage; the converse holds for stacks whose layers
cohere (closure), since completion covectors mix adjacent layers.

The combinatorial Stiefel map sends a graph to its transversal matroid,
whose bases are the maximum-size left subsets matchable into the right
side; for a tope this is the partition matroid of the neighbour sets.  It
and the compatible right submatching check work on row and edge bitmasks,
building graphs only for a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

from . import core, fields
from .core import BipartiteGraph
from .errors import MatchfieldError, SizeCapError, TiedMinimumError


class MatchingStack(core.MaskTable):
    """Map (J, I) -> perfect matching on J ⊔ I, held as the mask table
    {(J mask, I mask): edge mask}; `matching` is a graph view of one entry.

    Entries may be sparse: a pair without an entry has no matching, and
    asking for it raises MatchfieldError.
    """

    key_sides = 2

    def matching(self, J: Iterable[int], I: Iterable[int]) -> BipartiteGraph:
        key = tuple(  # a subset of members not all ints names no key, unsorted
            tuple(sorted(S)) if core.fit(S, core.MAX_SIDE) else S for S in map(tuple, (J, I)))
        if len(key[0]) != len(key[1]):
            raise MatchfieldError("|J| and |I| must agree")
        bits = (core.subset_bits(key[0], self.n), core.subset_bits(key[1], self.d))
        return self._graph(bits, lambda: MatchfieldError(f"no matching assigned to {key}"))

    def pairs(self):
        for k in range(min(self.n, self.d) + 1):
            for J in core.subsets(self.n, k):
                for I in core.subsets(self.d, k):
                    yield (J, I)



def stack_from_trees(trees: Iterable[BipartiteGraph], n: int, d: int) -> MatchingStack:
    """Ensemble of a triangulation: every partial matching of the trees.

    The trees must cover all (J, I) pairs and agree; both hold for valid
    triangulations.  The agreed keys are pairs: they cover all C(n + d, d)
    exactly when there are as many.
    """
    trees = list(trees)
    for g in trees:
        if (g.n, g.d) != (n, d):
            raise MatchfieldError(f"a tree on ({g.n}, {g.d}) among trees on ({n}, {d})")
    agreed, clash = core.agreed_masks([g.mask for g in trees], n, d)
    if clash is not None:
        raise MatchfieldError(
            f"trees disagree on the matching of {tuple(map(core.mask_subset, clash[2:]))}")
    agreed[(0, 0)] = 0
    stack = MatchingStack(n, d, agreed)
    if len(agreed) != comb(n + d, d):
        missing = next(p for p in stack.pairs() if tuple(map(core.subset_mask, p)) not in agreed)
        raise MatchfieldError(f"trees do not cover the pair {missing}")
    return stack


# ---------------------------------------------------------------------------
# ensemble axioms


@dataclass(frozen=True)
class EnsembleReport:
    support_ok: bool
    closure_ok: bool
    left_linkage_ok: bool
    right_linkage_ok: bool
    witness: Optional[tuple] = None

    @property
    def ok(self):
        return self.support_ok and self.closure_ok and self.left_linkage_ok and self.right_linkage_ok

    def as_dict(self) -> dict:
        return {
            "support": self.support_ok,
            "closure": self.closure_ok,
            "left_linkage": self.left_linkage_ok,
            "right_linkage": self.right_linkage_ok,
            "witness": self.witness,
        }


def validate_ensemble(stack: MatchingStack) -> EnsembleReport:
    """Support, closure and both linkage axioms, with the first witness.  A
    pair without a matching fails support; an axiom left unchecked because
    support failed is reported false.  Linkage and closure read the stored
    table at the pairs the support check passed.  Closure looks
    up each entry minus one edge, by size: by induction every entry passing
    that is closed, so the first to fail is the first entry holding a wrong
    submatching, and only it is scanned by (size, combination) for the witness."""
    n, d, table = stack.n, stack.d, {}
    for J, I in stack.pairs():
        key = (core.subset_mask(J), core.subset_mask(I))
        m = stack.mask_table.get(key)
        rows = None if m is None else core.read_rows(m, n, d)
        rdv = tuple(key[1] >> i & 1 for i in range(d))
        if rows is None or rows[1] != key[0] or rows[2] != rdv:
            return EnsembleReport(False, False, False, False, ("support", J, I))
        table[key] = m
    lw = _unlinked_layer(table, n, d, fix_left=False)
    rw = _unlinked_layer(table, n, d, fix_left=True)
    for (jm, im), mask in table.items():
        subs = (((jm ^ 1 << b // d, im ^ 1 << b % d), mask ^ 1 << b) for b in core._bits(mask))
        if all(table[key] == sub for key, sub in subs):
            continue
        J, I = core.mask_subset(jm), core.mask_subset(im)
        m = stack.matching(J, I)
        for r in range(1, len(J)):
            for sub_edges in combinations(m.edges, r):
                sub = BipartiteGraph(n, d, sub_edges)
                key = (sub.left_support(), sub.right_support())
                if stack.matching(*key) != sub:
                    witness = ("closure", J, I, key)
                    return EnsembleReport(True, False, lw is None, rw is None, witness)
    witness = ("left-linkage",) + lw if lw else ("right-linkage",) + rw if rw else None
    return EnsembleReport(True, True, lw is None, rw is None, witness)


def _unlinked_layer(table: dict, n: int, d: int, fix_left: bool) -> Optional[tuple]:
    """First (fixed subset, tau) whose layer union over tau has other than
    2k edges: fixed-I layers and left taus, or with fix_left fixed-J layers
    and right taus.  On a supported stack the union is connected: for a
    component C and each x in tau, the matching on tau - x pairs C minus x
    with C's fixed nodes, which forces C to hold all of tau (the argument of
    `fields.is_linkage`).  On 2k + 1 nodes it is a tree exactly with 2k edges."""
    fixed_side, tau_side = (n, d) if fix_left else (d, n)
    for k in range(1, min(fixed_side, tau_side - 1) + 1):
        for f in core.subset_masks(fixed_side, k):
            for tau in core.subset_masks(tau_side, k + 1):
                union = 0
                for t in core._bits(tau):
                    rest = tau ^ 1 << t
                    union |= table[(f, rest) if fix_left else (rest, f)]
                if union.bit_count() != 2 * k:
                    return core.mask_subset(f), core.mask_subset(tau)
    return None


# ---------------------------------------------------------------------------
# completion, extension, extraction


def completion(stack: MatchingStack) -> fields.MatchingField:
    """Matching field of the stack on m + d left nodes: dummy node l_{m+h}
    pairs with r_h whenever it lies in the subset, its bit ORed onto the
    stack matching's mask (the top m rows of an (m + d, d) mask)."""
    m, d = stack.n, stack.d
    core._check_sides(m + d, d)  # the completed field's sides, before the subset walk
    left, right = (1 << m) - 1, (1 << d) - 1
    table = {}
    for sigma in core.subset_masks(m + d, d):
        J, dummy_rights = sigma & left, sigma >> m  # bit h - 1: the dummy paired with rh
        I = right ^ dummy_rights
        base = stack.mask_table.get((J, I))
        if base is None:
            raise MatchfieldError(f"no matching assigned to {tuple(map(core.mask_subset, (J, I)))}")
        dummies = sum(1 << (m + h) * d + h for h in core._bits(dummy_rights))
        table[sigma] = base | dummies
    return fields.field_from_masks(m + d, d, core.all_ones(d), table)


def extraction(stack: MatchingStack) -> fields.MatchingField:
    """Keep the pairs with I = R: one matching per d-subset of L."""
    if stack.n < stack.d:
        raise MatchfieldError("extraction needs n >= d")
    full = tuple(range(1, stack.d + 1))
    assignment = {
        J: stack.matching(J, full) for J in core.subsets(stack.n, stack.d)
    }
    return fields.validate_matching_field(stack.n, stack.d, assignment)


# every pair (J, I) is filled: C(n + d, d) of them; (9, 6) has 5,005 and takes
# about 1 s from weights on a 2-core x86-64 machine
EXTEND_MAX_PAIRS = 10**4


def extend(
    field: fields.MatchingField, weights: Optional[Sequence[Sequence]] = None
) -> MatchingStack:
    """Extend a field to a stack: pairs with I = R take the field's matchings,
    every other pair is filled at once.

    Without weights the h-th smallest element of J is paired with the h-th
    smallest of I (lexicographic-min).  With weights each pair takes the
    minimal matching on the ints of `fields._integer_weights` (ties raise
    TiedMinimumError); the matrix must be n x d: another shape raises
    MatchfieldError naming its row lengths before the stack is built.
    Raises SizeCapError beyond EXTEND_MAX_PAIRS pairs, before any work.
    """
    n, d = field.n, field.d
    pairs = comb(n + d, d)
    if pairs > EXTEND_MAX_PAIRS:
        raise SizeCapError(
            f"extending a ({n}, {d}) field fills {pairs} pairs, "
            f"over the cap of {EXTEND_MAX_PAIRS}"
        )
    if weights is not None:
        shape = [len(row) if hasattr(row, "__len__") else None for row in weights]
        if len(weights) != n or shape != [d] * n:
            raise MatchfieldError(
                f"weights with row lengths {shape} are not a {n} x {d} matrix"
            )
        exact = fields._integer_weights(weights)
    table = {(key, (1 << d) - 1): m for key, m in field.mask_table.items()}
    stack = MatchingStack(n, d, table)
    for J, I in stack.pairs():
        key = (core.subset_mask(J), core.subset_mask(I))
        if key in table:
            continue
        best = I
        if weights is not None:
            best, tied = fields._min_assignment(J, exact, I)
            if tied is not None:
                raise TiedMinimumError(
                    (J, I),
                    BipartiteGraph(n, d, list(zip(J, best))),
                    BipartiteGraph(n, d, list(zip(J, tied))),
                )
        table[key] = sum(1 << (j - 1) * d + i - 1 for j, i in zip(J, best))
    return stack


# ---------------------------------------------------------------------------
# transversal matroids


@dataclass(frozen=True)
class TransversalMatroid:
    ground: int
    rank: int
    bases: frozenset

    def as_dict(self) -> dict:
        return {
            "ground": self.ground,
            "rank": self.rank,
            "bases": sorted(list(b) for b in self.bases),
        }


# left subsets are tested one by one, each by an augmenting search over row
# bitmasks: 2^12 = 4,096 at n = 12
TRANSVERSAL_MAX_LEFT = 12


def transversal_matroid(g: BipartiteGraph) -> TransversalMatroid:
    """Matroid on the left nodes whose independent sets are the matchable
    subsets; the bases, stored explicitly (desk scale), are those of the
    largest size from min(n, d) down that has one.  Raises SizeCapError
    beyond TRANSVERSAL_MAX_LEFT left nodes, before any work."""
    if g.n > TRANSVERSAL_MAX_LEFT:
        raise SizeCapError(f"transversal_matroid capped at n <= {TRANSVERSAL_MAX_LEFT}")
    full = (1 << g.d) - 1
    rows, left = [g.mask >> j * g.d & full for j in range(g.n)], range(1, g.n + 1)
    for rank in range(min(g.n, g.d), -1, -1):
        if bases := frozenset(J for J in combinations(left, rank) if _matchable(rows, J)):
            return TransversalMatroid(g.n, rank, bases)


def _matchable(rows: Sequence[int], J: Sequence[int]) -> bool:
    """Whether the rows J match injectively into R: Hall's count on all of
    J, then an augmenting search per row; `seen` holds the right bits tried
    and owner the row matched to each right bit."""
    neighbours = 0
    for j in J:
        neighbours |= rows[j - 1]
    if neighbours.bit_count() < len(J):
        return False
    owner: dict[int, int] = {}
    seen = 0

    def augment(j: int) -> bool:
        nonlocal seen
        while free := rows[j] & ~seen:
            low = free & -free
            seen |= low
            if low not in owner or augment(owner[low]):
                owner[low] = j
                return True
        return False

    for j in J:
        seen = 0
        if not augment(j - 1):
            return False
    return True


def stiefel_image_of_field(field: fields.MatchingField) -> list[TransversalMatroid]:
    """Stiefel image of the maximal tope linkage covectors (the covectors on
    tau = [n] of the thickness n-1 tope fields), keyed order: by type.

    At n = d the list is empty: no positive type vector of length d sums to
    n - 1, so there is no such covector, though Delta(d, d) is the single
    point U(d, d)."""
    covectors = fields.maximal_tope_covectors(field)
    return [transversal_matroid(covectors[v]) for v in sorted(covectors)]


# ---------------------------------------------------------------------------
# compatible right submatchings


@dataclass(frozen=True)
class SubmatchingReport:
    ok: bool
    witness: Optional[tuple] = None  # (J, I, kind, data)


def right_submatching_check(field: fields.MatchingField) -> SubmatchingReport:
    """For every left subset J and right subset I with |I| = |J| + 1 <= d,
    the union of the existing submatchings of field matchings on J ⊔ I' (I'
    ranging over the |J|-subsets of I) must be a forest whose contained
    |J|-matchings are all compatible with the field.

    One table holds every field matching's 2^d - 1 edge subsets, which for
    a validated field are the matchings ``core.agreed_masks`` lists in it:
    J mask -> {I' mask: edge mask}, or None where two differ; reaching None
    raises MatchfieldError.  ``core.find_cycle``, the one forest or cycle
    test, takes each union's mask.  Each distinct |J|-matching of a
    forest meets every field matching in one ``core.incompatible_partners``
    call; its lowest bit, in mask table order, is a full rescan's witness.
    """
    fields._matching_field(field)
    n, d = field.n, field.d
    matchings = list(field.mask_table.values())
    table: dict[int, dict[int, Optional[int]]] = {}
    functions = []  # core.tope_function of each field matching
    for m in matchings:
        entries, f = [(0, 0, 0)], [d] * n
        for b in core._bits(m):
            f[b // d] = b % d
            entries += [(J | 1 << b // d, I | 1 << b % d, e | 1 << b) for J, I, e in entries]
        functions.append(f)
        for J, I, e in entries[1:]:
            row = table.setdefault(J, {})
            if row.setdefault(I, e) != e:
                row[I] = None
    index, passed = core.partner_index(functions, n, d), set()
    for size in range(1, d):
        rights = [
            (I, [(I_sub, core.subset_mask(I_sub)) for I_sub in combinations(I, size)])
            for I in core.subsets(d, size + 1)
        ]
        for J in core.subsets(n, size):
            row = table.get(core.subset_mask(J), {})
            for I, subs in rights:
                union = 0
                for I_sub, I_mask in subs:
                    if (sub := row.get(I_mask, 0)) is None:
                        raise MatchfieldError(f"field matchings disagree on ({J}, {I_sub})")
                    union |= sub
                if not union:
                    continue
                if cycle := core.find_cycle(union, n, d):
                    return SubmatchingReport(False, (J, I, "cycle", tuple(cycle)))
                for mask, f in _perfect_matchings(union, J, n, d):
                    if mask in passed:
                        continue
                    if bad := core.incompatible_partners(f, index, d):
                        m = BipartiteGraph.from_mask(n, d, mask)
                        other = matchings[(bad & -bad).bit_length() - 1]
                        witness = (m, BipartiteGraph.from_mask(n, d, other))
                        return SubmatchingReport(False, (J, I, "incompatible", witness))
                    passed.add(mask)
    return SubmatchingReport(True)


def _perfect_matchings(mask: int, J: Sequence[int], n: int, d: int) -> list[tuple[int, tuple]]:
    """The matchings in an n x d edge mask that cover J, row by row over J
    and free right bits in increasing order (``core.agreed_masks``
    order), each with its ``core.tope_function``, whose entry for a row of
    J is the right bit the row picks and d elsewhere."""
    level, last = [(0, 0, ())], 0
    for j in J:
        shift, skipped = (j - 1) * d, (d,) * (j - 1 - last)
        row = mask >> shift & (1 << d) - 1
        level = [(I | 1 << b, m | 1 << shift + b, f + skipped + (b,))
                 for I, m, f in level for b in core._bits(row & ~I)]
        last = j
    rest = (d,) * (n - last)
    return [(m, f + rest) for _, m, f in level]


# ---------------------------------------------------------------------------
# serialization


def stack_key(key: tuple[int, int]) -> str:
    J, I = (core.subset_key(core.mask_subset(m)) for m in key)
    return f"J:{J}|I:{I}"


def read_stack_key(key: str, n: int, d: int) -> tuple:
    """(J, I) from the key J:<subset>|I:<subset>, either subset possibly
    empty, each read by ``core.read_subset_key`` against its side; any
    other key raises ValueError naming it."""
    j_part, _, i_part = key.partition("|")
    if j_part[:2] == "J:" and i_part[:2] == "I:":
        try:
            parts = ((j_part[2:], n), (i_part[2:], d))
            return tuple(core.read_subset_key(h, side) if h else 0 for h, side in parts)
        except ValueError:
            pass
    raise ValueError(f"stack key {key!r} must read J:<subset>|I:<subset>")


def stack_to_json_dict(stack: MatchingStack) -> dict:
    return core.write_masks(stack.n, stack.d, "matchings", stack.mask_table, stack_key)


def stack_from_json_dict(data: dict) -> MatchingStack:
    n, d = core.read_sides(data)
    core._check_sides(n, d)  # before any key is read
    return MatchingStack(*core.read_masks(data, "matchings", lambda k: read_stack_key(k, n, d)))
