"""Matching fields, tope fields, linkage, amalgamation and tope arrangements.

An (n, d)-matching field assigns to every d-subset sigma of the left nodes a
perfect matching on sigma ⊔ R.  A tope field of type v = (v1..vd) assigns to
every k-subset (k = sum v) a tope whose right degree vector is v.

A field is its mask table {left-subset bitmask: edge mask}, whose range its
constructor decides, not its type.  The JSON reader builds it and decides its
type while it parses (`field_from_json_dict`); a table built in process is
validated by one pass over it (`field_from_masks`), and a {subset: graph}
map by `validate_matching_field` or `validate_tope_field`.  The linkage
test, the Chow pass and the writer read the table; the graphs are a view,
built only for a caller that asks for them.

The field is *linkage* when the union of the assignments over every
(k+1)-subset tau is a tree, the *linkage covector* of tau; inside it each
right node ri has degree vi + 1.  On a field that holds its type
(`TopeField.holds_type`, decided by the reader or the validator) with
every v_i > 0 every such union is connected: for a component C and any x
in tau, the tope on tau - x gives |C_L - x| = sum of v_i over C_R, which
holds for x in C_L and for x outside C_L only when C_L = tau.  So there
the union is a tree exactly when it has k + d edges, and linkage is decided
by OR-ing tope masks and one popcount per tau (`is_linkage`); any other
field takes the cycle search of `linkage_covector` on every tau.

The i-amalgamation extracts from each covector the unique tope of type
v + e_i, producing a tope field one thicker; iterating up to thickness n
yields one maximal tope per positive right degree vector of sum n.  Keyed by
right degree vector minus the all-ones vector, these form the tope
arrangement of the field, a bijection onto the lattice points of
(n-d)*Delta_{d-1}, and the field is recovered from the arrangement by
collecting the maximal matchings of its tope masks with the collector that
also reads the field off the trees of a triangulation (`field_from_graphs`).
The arrangement is built without amalgamating: the maximal tope of type v is the
union of the Chow covectors whose right degree vectors are v - 1_{[d] minus i},
i = 1..d, looked up by the rdv codes that the one keyed pass over the
matchings (`chow_masks`) adds above each covector's edges.  The pass is its
own inverse: run on the covectors it reads the field back.

An arrangement, like a field, is its mask table {lattice point: edge mask},
and so is an extended arrangement, which carries a graph for every lattice
point of n*Delta_{d-1} (isolated right nodes allowed at the boundary) and is
where the trianguloid axioms T1-T4 are checked, on column masks.

Coherent fields, the weight-minimal matchings of a generic matrix, come from
one exact dynamic program over the left subsets of size at most d; a subset
with two optimal bijections is a tie and raises TiedMinimumError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import comb, lcm
from typing import Iterable, Iterator, Optional, Sequence

from . import core
from .core import BipartiteGraph
from .errors import (
    InconsistentCollectionError,
    MatchfieldError,
    MissingSubsetError,
    NotAMatchingError,
    NotLinkageError,
    SizeCapError,
    TiedMinimumError,
    WrongSupportError,
)


class TopeField(core.MaskTable):
    """Assignment of one tope of fixed type to every k-subset of left nodes,
    held as the mask table {left-subset bitmask: edge mask}; the graphs,
    `assignment` and `items`, are a view built on first use."""

    key_sides = 1

    def __init__(self, n: int, d: int, type_vector: Sequence[int], table: dict):
        """A field holding the mask table itself, its range decided and its type not."""
        self.type_vector = tuple(type_vector)
        super().__init__(n, d, table)

    def _key_fault(self, n: int, d: int, table: dict) -> MatchfieldError:
        # the validator names ints and tuples, the keys of core.subset_bits
        if set(map(type, table)) <= {int, tuple}:
            return _field_fault(n, d, self.type_vector, table)
        return super()._key_fault(n, d, table)

    @property
    def thickness(self) -> int:
        return sum(self.type_vector)

    @cached_property
    def holds_type(self) -> bool:
        """Whether the table is a field of its type (``_field_fault`` finds
        none).  The JSON reader sets it from what it parsed and the validator
        from its scan; on any other field it is that scan, on first use."""
        return _field_fault(self.n, self.d, self.type_vector, self.mask_table) is None

    @cached_property
    def assignment(self) -> dict:
        """The topes as {subset: graph}, built on first use."""
        return core.graph_table(self.n, self.d, self.mask_table)

    def tope(self, sigma: Iterable[int]) -> BipartiteGraph:
        sigma = tuple(sigma)  # in any order; a subset of members not all ints names no key
        key = (core.subset_bits(tuple(sorted(sigma)), self.n)
               if core.fit(sigma, core.MAX_SIDE) else None)
        return self._graph(key, lambda: MissingSubsetError(sigma))

    def items(self):
        return self.assignment.items()

    def _identity(self) -> tuple:
        return *super()._identity(), self.type_vector

    def __hash__(self):
        return hash((self.n, self.d, self.type_vector, frozenset(self.mask_table.items())))


class MatchingField(TopeField):
    """Tope field of type (1,..,1): one perfect matching per d-subset."""

    def __init__(self, n: int, d: int, table: dict):
        core._check_sides(n, d)  # before all_ones(d) builds d ones
        super().__init__(n, d, core.all_ones(d), table)

    matching = TopeField.tope


def _matching_field(field: TopeField) -> MatchingField:
    """The field, once it is a matching field; MatchfieldError naming the
    type of any other tope field."""
    if not isinstance(field, MatchingField):
        raise MatchfieldError(f"expected a matching field, not type {field.type_vector}")
    return field


def validate_matching_field(n: int, d: int, assignment: dict) -> MatchingField:
    """Check a raw subset -> graph map and wrap it as a MatchingField: the
    type (1, ..., 1) call of the field validator, on its mask table."""
    core._check_sides(n, d)
    return field_from_masks(n, d, core.all_ones(d), core.graph_masks(n, d, assignment))


def validate_tope_field(n: int, d: int, type_vector: Sequence[int], assignment: dict) -> TopeField:
    """Check a raw subset -> graph map against a type vector, which must be
    positive, of length d and of sum at most n, and wrap it as a TopeField."""
    core._check_sides(n, d)
    v = _type_vector(n, d, type_vector)
    return field_from_masks(n, d, v, core.graph_masks(n, d, assignment))


def _type_vector(n: int, d: int, type_vector: Sequence[int]) -> tuple:
    v = tuple(type_vector)
    if len(v) != d or any(x < 1 for x in v):
        raise MatchfieldError(f"invalid type vector {v} for ({n}, {d})")
    return v


def field_from_masks(n: int, d: int, v: tuple, table: dict) -> TopeField:
    """The one field validator, on a mask table: one scan over the
    sum(v)-subsets in colex order (``_field_fault``) decides it, and the
    field keeps the verdict.  A MatchingField when v = (1, ..., 1), else a
    TopeField, holding the table itself."""
    fault = _field_fault(n, d, v, table)
    if fault is not None:
        raise fault
    return _held(n, d, v, table)


def _held(n: int, d: int, v: tuple, table: dict) -> TopeField:
    """A MatchingField when v = (1, ..., 1), else a TopeField, holding a
    table its caller has decided to be a field of type v, unchecked."""
    cls = MatchingField if v == core.all_ones(d) else TopeField
    return cls._unchecked(n, d, table, type_vector=v, holds_type=True)


def _field_fault(n: int, d: int, v: tuple, table: dict) -> Optional[MatchfieldError]:
    """The first fault of a table as a field of type v, or None: its keys
    must be exactly the k-subsets of [n] (k = sum(v)) as bitmasks, a tuple
    key from ``core.subset_bits`` never is, each holding an edge mask on
    (n, d) with left degrees at most 1, right degree vector v and left
    support its key.  MatchfieldError naming (n, d) when k > n, so a
    matching field with d > n; SizeCapError when (n, k) is out of the
    range of ``core.subsets``; then MissingSubsetError, NotAMatchingError
    or WrongSupportError with the first bad subset in colex order, one
    ``read_rows`` per key; then WrongSupportError with the least extra key."""
    k = sum(v)
    if k > n:
        return MatchfieldError(
            f"invalid type vector {v} for ({n}, {d}): its sum {k} exceeds n = {n}")
    if not 0 <= k <= n <= core.MAX_SIDE:
        return SizeCapError(f"subsets({n}, {k}) out of range")
    for key in core.subset_masks(n, k):
        mask = table.get(key)
        rows = None if mask is None else core.read_rows(mask, n, d)
        if rows is None or rows[1] != key or rows[2] != v:
            sigma = core.mask_subset(key)
            if mask is None:
                return MissingSubsetError(sigma)
            if mask >> n * d:
                return NotAMatchingError(sigma, f"graph for {sigma} has wrong ambient size")
            if rows is None or rows[2] != v:
                what = "perfect matching" if v == core.all_ones(d) else f"tope of type {v}"
                return NotAMatchingError(sigma, f"value for {sigma} is not a {what}")
            return WrongSupportError(sigma, rows[0])
    if len(table) == comb(n, k):
        return None  # k-subsets of [n], as many as there are: all of them
    # a key is left over; a negative one, whose bits never end, names itself,
    # and one with a member that is no int is named by its repr after the rest
    extra = {key if type(key) is tuple else core.mask_subset(key) if key >= 0 else (key,)
             for key in set(table).difference(core.subset_masks(n, k))}
    ints = {s for s in extra if set(map(type, s)) <= {int}}
    return WrongSupportError(min(ints) if ints else min(extra, key=repr), None)


# ---------------------------------------------------------------------------
# linkage


@dataclass(frozen=True)
class CovectorResult:
    """Union of the topes over a (k+1)-subset: a tree on success."""

    tau: tuple[int, ...]
    graph: BipartiteGraph
    cycle: Optional[tuple[tuple[int, int], ...]]  # None iff the union is a tree

    @property
    def ok(self) -> bool:
        return self.cycle is None


def linkage_covector(field: TopeField, tau: Iterable[int]) -> CovectorResult:
    """Union of the field's topes over the k-subsets of tau (|tau| = k + 1)."""
    tau = tuple(sorted(tau))
    if len(tau) != field.thickness + 1:
        raise MatchfieldError(
            f"tau must have size {field.thickness + 1}, got {len(tau)}"
        )
    if len(set(tau) & set(range(1, field.n + 1))) != len(tau):
        raise MatchfieldError(f"tau must hold distinct left nodes in 1..{field.n}, got {tau}")
    mask = covector_mask(field.mask_table, core.subset_mask(tau))
    union = BipartiteGraph.from_mask(field.n, field.d, mask)
    cycle = core.find_cycle(mask, field.n, field.d)
    return CovectorResult(tau, union, tuple(cycle) if cycle else None)


@dataclass(frozen=True)
class LinkageReport:
    ok: bool
    failures: tuple[CovectorResult, ...]


def is_linkage(field: TopeField) -> LinkageReport:
    """Check the tree condition for every (k+1)-subset; collect all failures.

    On a field that holds its type (``TopeField.holds_type``) with every
    v_i > 0, the count decides: for a component C of the union and any x in
    tau, the tope on tau - x pairs C_L - x with C_R, so
    |C_L - x| = sum of v_i over C_R.  That is |C_L| - 1 for x in C_L and
    |C_L| otherwise, and v > 0, so C_L = tau and the union is connected: a
    tree with k + d edges, and a cycle with any other count.  Only a tau of
    another count goes through `linkage_covector` and `core.find_cycle`,
    which build its graph and cycle.  Any other field takes that cycle
    search on every tau.
    """
    failures = tuple(_failing_covectors(field))
    return LinkageReport(not failures, failures)


def require_linkage(field: TopeField) -> None:
    first = next(_failing_covectors(field), None)
    if first is not None:
        raise NotLinkageError(first.tau, first.cycle)


def _failing_covectors(field: TopeField) -> Iterator[CovectorResult]:
    """The non-tree covectors in `core.subsets` order; none when k >= n (no
    (k+1)-subsets, so vacuously linkage)."""
    counted = field.holds_type and all(x > 0 for x in field.type_vector)
    tree = field.thickness + field.d
    for tau, union in _covector_unions(field):
        if not counted or union.bit_count() != tree:
            res = linkage_covector(field, core.mask_subset(tau))
            if not res.ok:
                yield res


def _covector_unions(field: TopeField) -> Iterator[tuple[int, int]]:
    """(tau, edge mask of its covector) for every (k+1)-subset tau as a
    bitmask, in `core.subset_masks` order, which is the `core.subsets`
    order, from the tope masks keyed by left-subset bitmask."""
    topes = field.mask_table
    for tau in core.subset_masks(field.n, field.thickness + 1):
        yield tau, covector_mask(topes, tau)


def covector_mask(topes: dict[int, int], tau: int) -> int:
    """Edge mask of the covector of the bitmask tau: the OR of topes[tau - j],
    j in tau; MissingSubsetError names a tau - j the table lacks."""
    union, rest = 0, tau
    try:
        while rest:
            low = rest & -rest
            rest ^= low
            union |= topes[tau ^ low]
    except KeyError:
        raise MissingSubsetError(core.mask_subset(tau ^ low)) from None
    return union


# ---------------------------------------------------------------------------
# coherent fields from exact rational weights


def _integer_weights(weights: Sequence[Sequence]) -> list[list[int]]:
    """Each entry read by Fraction, then all scaled to ints by the lcm of the
    denominators, a positive factor that keeps every comparison and tie; an
    entry that is no finite rational raises MatchfieldError naming it."""
    rows = []
    for j, row in enumerate(weights, 1):
        rows.append([])
        for i, x in enumerate(row, 1):
            try:
                rows[-1].append(Fraction(x))
            except (TypeError, ValueError, ArithmeticError):
                raise MatchfieldError(
                    f"weight at row {j}, column {i} is {x!r}, not a finite rational"
                ) from None
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def _min_assignment(rows: Sequence[int], weights, columns: Sequence[int]):
    """Minimal bijection rows -> columns under exact weights (ints or
    Fractions), and a second one when two share the minimum (else None).

    Exhaustive over |rows|! bijections: it names the witnesses of a tie in
    `coherent_field` and fills stacks from weights.
    """
    best = best_cost = tied = None
    for perm in permutations(columns):
        cost = sum(weights[j - 1][i - 1] for j, i in zip(rows, perm))
        if best_cost is None or cost < best_cost:
            best, best_cost, tied = perm, cost, None
        elif cost == best_cost and perm != best:
            tied = perm
    return best, tied


# the DP visits every left subset of size at most d: (14, 7) is 9,908 subsets,
# about 25 ms on a 2-core x86-64 machine; C(n, d) alone would let (30, 29) in
COHERENT_MAX_SUBSETS = 10**5


def coherent_field(weights: Sequence[Sequence]) -> MatchingField:
    """Matching field of the weight-minimal matchings of a generic matrix.

    Weights are exact rationals, made one int matrix by `_integer_weights`.
    One dynamic program over the left subsets S with |S| <= d, on those ints:
    the least weight of a bijection S -> columns 1..|S| is the least, over j
    in S, of that of S - j plus w[j][|S|], and the number of optimal
    bijections is carried along.  A count above 1 on a d-subset is a tie:
    the first tied subset in `core.subsets` order raises TiedMinimumError
    with two optimal matchings found by `_min_assignment` on the same ints.
    Raises MatchfieldError unless the weights form an n x d matrix with
    1 <= d <= n (a row with no length reads None), then SizeCapError when
    the DP would visit more than COHERENT_MAX_SUBSETS subsets; both before
    any entry is read.
    """
    shape = [len(row) if hasattr(row, "__len__") else None for row in weights]
    n, d = len(weights), shape[0] if shape else 0
    if not 1 <= (d or 0) <= n or shape.count(d) != n:
        raise MatchfieldError(
            f"weights with row lengths {shape} are not an n x d matrix with 1 <= d <= n"
        )
    visited = sum(comb(n, k) for k in range(d + 1))
    if visited > COHERENT_MAX_SUBSETS:
        raise SizeCapError(
            f"coherent field on ({n}, {d}) visits {visited} left subsets, "
            f"over the cap of {COHERENT_MAX_SUBSETS}"
        )
    weights = _integer_weights(weights)
    # levels[k][S] = (least weight of S -> 1..k, number of optimal bijections,
    # the row j matched to column k in one of them); S is a bitmask of rows
    levels = [{0: (0, 1, None)}]
    for k in range(d):
        level = {}
        for mask, (cost, count, _) in levels[-1].items():
            for j in range(n):
                if mask >> j & 1:
                    continue
                key, total = mask | 1 << j, cost + weights[j][k]
                best = level.get(key)
                if best is None or total < best[0]:
                    level[key] = (total, count, j)
                elif total == best[0]:
                    level[key] = (total, best[1] + count, best[2])
        levels.append(level)
    columns = tuple(range(1, d + 1))
    table = {}
    for key in core.subset_masks(n, d):
        mask = key
        if levels[d][mask][1] > 1:
            sigma = core.mask_subset(key)
            best, tied = _min_assignment(sigma, weights, columns)
            first = BipartiteGraph(n, d, list(zip(sigma, best)))
            second = BipartiteGraph(n, d, list(zip(sigma, tied)))
            raise TiedMinimumError(sigma, first, second)
        edges = 0
        for k in range(d, 0, -1):  # a unique optimum has count 1 at every state
            j = levels[k][mask][2]
            edges |= 1 << (j * d + k - 1)
            mask &= ~(1 << j)
        table[key] = edges
    return MatchingField(n, d, table)


# ---------------------------------------------------------------------------
# amalgamation


def i_amalgamation(tf: TopeField, i: int) -> TopeField:
    """Tope field of type v + e_i extracted from the linkage covectors.

    Each tope is one walk of `core.tree_tope` from ri over its covector; a
    covector the walk finds no tree goes through `linkage_covector`, whose
    cycle raises NotLinkageError with tau, and then `core.contained_tope`.
    """
    if not (1 <= i <= tf.d):
        raise MatchfieldError(f"right index {i} out of range")
    if tf.thickness >= tf.n:
        raise MatchfieldError("tope field already has maximal thickness")
    table = {}
    for tau, union in _covector_unions(tf):
        tope = core.tree_tope(union, core.mask_subset(tau), tf.d, i)
        if tope is None:
            res = linkage_covector(tf, core.mask_subset(tau))
            if not res.ok:
                raise NotLinkageError(res.tau, res.cycle)
            tope = core.contained_tope(res.graph, i).mask
        table[tau] = tope
    new_type = core.vector_sum(tf.type_vector, core.unit_vector(tf.d, i))
    return TopeField(tf.n, tf.d, new_type, table)


def amalgamation_order(d: int, target: Sequence[int], start: Sequence[int]) -> list[int]:
    """Canonical order: for i ascending, repeat i (target_i - start_i) times."""
    order = []
    for i in range(1, d + 1):
        order.extend([i] * (target[i - 1] - start[i - 1]))
    return order


def tope_field_of_type(
    field: TopeField, target: Sequence[int], order: Optional[Sequence[int]] = None
) -> TopeField:
    """Iterated amalgamation from `field` up to the given type vector."""
    target = tuple(target)
    if len(target) != field.d or any(
        t < s for t, s in zip(target, field.type_vector)
    ):
        raise MatchfieldError(f"target {target} not reachable from {field.type_vector}")
    if sum(target) > field.n:
        raise MatchfieldError(f"target {target} exceeds thickness {field.n}")
    if order is None:
        order = amalgamation_order(field.d, target, field.type_vector)
    current = field
    for i in order:
        current = i_amalgamation(current, i)
    if current.type_vector != target:
        raise MatchfieldError(f"order {list(order)} does not reach {target}")
    return current


def maximal_tope(
    field: TopeField, v: Sequence[int], order: Optional[Sequence[int]] = None
) -> BipartiteGraph:
    """The unique maximal tope with right degree vector v compatible with the
    field, built by iterated amalgamation (canonically: ascending i)."""
    v = tuple(v)
    if any(x < 1 for x in v) or sum(v) != field.n:
        raise MatchfieldError(f"target {v} is not positive with sum {field.n}")
    tf = tope_field_of_type(field, v, order)
    return tf.tope(range(1, field.n + 1))


class TopeArrangement(core.MaskTable):
    """Compatible maximal topes keyed by lattice points of (n-d)*Delta_{d-1},
    held as a mask table; the graphs, `topes`, `tope` and `items`, a view.

    Compatibility implies the sector condition of axiom T3, so it is not
    checked: for topes G at a and H at a + e_p - e_q, the arcs
    f_G(j) -> f_H(j), j where they differ, are acyclic, with out-degree minus
    in-degree +1 at q, -1 at p and 0 elsewhere.  So they form one simple path
    from q to p (an arc off it would close a cycle): no arc enters q or
    leaves p, that is, every rq-edge of H lies in G and every rp-edge of G in
    H."""

    def __init__(self, n: int, d: int, table: dict):
        super().__init__(n, d, table)
        self.validate()

    def validate(self) -> None:
        n, d, table = self.n, self.d, self.mask_table
        if not core.is_simplex_lattice(table, n - d, d):
            raise MatchfieldError("arrangement keys are not the lattice points")
        maps = {}
        for point, mask in table.items():  # each tope's rows read once
            if core.right_degrees(mask, n, d) != tuple(x + 1 for x in point):
                raise MatchfieldError(f"tope at {point} has wrong right degrees")
            # every row defined and n edges: one edge per row
            f = maps[point] = core.tope_function(mask, n, d)
            if d in f or mask.bit_count() != n:
                raise MatchfieldError(f"tope at {point} is not maximal")
        # maximal topes are functions [n] -> [d]; each meets its later partners
        points = sorted(table)
        functions = [maps[p] for p in points]
        index = core.partner_index(functions, n, d)
        for k, f in enumerate(functions):
            if later := core.incompatible_partners(f, index, d) >> (k + 1):
                p2 = points[k + (later & -later).bit_length()]
                raise MatchfieldError(f"topes at {points[k]} and {p2} are incompatible")

    @cached_property
    def topes(self) -> dict:
        """The topes as {lattice point: graph}, built on first use."""
        return {p: BipartiteGraph.from_mask(self.n, self.d, m) for p, m in self.mask_table.items()}

    def tope(self, point: Sequence[int]) -> BipartiteGraph:
        return self._graph(tuple(point), lambda: MatchfieldError(f"no tope at {tuple(point)}"))

    def items(self):
        return sorted(self.topes.items())


def check_sector_monotonicity(table: dict) -> None:
    """For rdv-adjacent members G at a and H at a + e_p - e_q of a table
    {lattice point: edge mask}, the rq-edges of H must lie in G and the
    rp-edges of G in H, compared as column masks; a violation names the
    missing edge with the least j."""
    if not table:
        return
    d = len(next(iter(table)))
    column = core.column_mask(core.MAX_SIDE, d)
    for point, g in table.items():
        for p, q in permutations(range(1, d + 1), 2):
            if point[q - 1] == 0:
                continue
            shifted = tuple(x + (i == p) - (i == q) for i, x in enumerate(point, start=1))
            h = table.get(shifted)
            if h is None:
                continue
            for i, have, lack, at, to in ((q, h, g, shifted, point), (p, g, h, point, shifted)):
                extra = have & column << (i - 1) & ~lack
                if extra:
                    j = ((extra & -extra).bit_length() - 1) // d + 1
                    raise MatchfieldError(
                        f"sector violation: edge ({j},{i}) of {at} missing at {to}")


def chow_masks(n: int, d: int, table: dict[int, int], lifts: Sequence[int] = ()) -> dict[int, int]:
    """The keyed pass between a matching field and its Chow covectors, both
    as {left-subset bitmask: edge mask}, linkage or not.  The edge (lj, ri) of
    the matching on sigma is the lj-edge of the covector of rho = (L minus
    sigma) + j; as then sigma = (L minus rho) + j, the pass is its own inverse
    on tables whose entries lie in the rows of their keys.  There no bit comes
    twice, so adding one ORs it; an edge at ri adds lifts[i - 1] above too."""
    everyone, nd, lifts = (1 << n) - 1, n * d, lifts or [0] * d
    core.check_masks(table.values(), n, d)
    rows, gains = [1 << p // d for p in range(nd)], [1 << p | lifts[p % d] for p in range(nd)]
    out: dict[int, int] = {}
    for subset, mask in table.items():
        rest = everyone ^ subset
        while mask:
            pos = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            key = rest | rows[pos]
            out[key] = out.get(key, 0) + gains[pos]
    return out


def tope_arrangement(field: MatchingField) -> TopeArrangement:
    """Maximal tope for every lattice point p of (n-d)*Delta_{d-1}: the union
    of the Chow covectors of `chow_masks` with right degree vectors p + e_i,
    i = 1..d, each keyed by the rdv code the keyed pass adds above its edges
    (`core.encode_point`, base n - d + 2, the lifts of `chow.chow_collection`),
    so that p + e_i is a code plus (n - d + 2)^(d - i).

    A non-linkage field raises NotLinkageError with the first failing tau,
    the one the amalgamation chain (maximal_tope) would stop at.  The
    arrangement of a field that holds its type is held unchecked
    (`TopeArrangement._unchecked`), as each check of `validate` holds by a
    result on the linkage field certified first (Loho & Smith, "Matching
    fields and lattice points of simplices", arXiv:1804.01595):
    - keys: the loop runs over `core.simplex_lattice_points`;
    - right degrees p + 1 and maximality: the union of the covectors with
      right degree vectors p + e_i is the maximal tope at p;
    - pairwise compatibility: the maximal topes of a linkage field form a
      tope arrangement.
    A table that does not hold its type is no field: no theorem covers it,
    its edges may carry into the codes (`chow_masks`), and its arrangement
    is validated.  The tests run the skipped checks on every linkage field
    at desk scale and on coherent fields.
    """
    require_linkage(field)
    n, d, nd = field.n, field.d, field.n * field.d
    base = n - d + 2  # above every coordinate of a covector's rdv
    units = [base ** (d - i) for i in range(1, d + 1)]  # the code of e_i
    packed = chow_masks(n, d, field.mask_table, [unit << nd for unit in units])
    by_code = {x >> nd: x & (1 << nd) - 1 for x in packed.values()}
    topes = {}
    for point in core.simplex_lattice_points(n - d, d):
        code, mask = core.encode_point(point, base), 0
        for unit in units:
            covector = by_code.get(code + unit)
            if covector is None:
                rdv = core.decode_point(code + unit, d, base)
                raise InconsistentCollectionError(f"no covector with rdv {rdv}")
            mask |= covector
        topes[point] = mask
    return (TopeArrangement._unchecked if field.holds_type else TopeArrangement)(n, d, topes)


def field_from_graphs(graphs: Iterable[BipartiteGraph], n: int, d: int) -> MatchingField:
    """Collect the perfect matchings on d-subset ⊔ R inside the graphs,
    trees or maximal topes (`_collect_matchings`); a graph on other sides
    is refused when the collection reaches it."""
    def masks():
        for g in graphs:
            if (g.n, g.d) != (n, d):
                raise MatchfieldError(f"a tree on ({g.n}, {g.d}) among trees on ({n}, {d})")
            yield g.mask

    return _collect_matchings(masks(), n, d)


def _collect_matchings(masks: Iterable[int], n: int, d: int) -> MatchingField:
    """The perfect matchings on d-subset ⊔ R inside n x d edge masks
    (``core.right_perfect_matchings``).  Partial mask sets work as long as
    they cover every d-subset and agree; a clash names the J of the mask's
    first clashing matching in edge order."""
    table: dict = {}  # J mask -> edge mask of the matching on J ⊔ R, the field's table
    for mask in masks:
        found = core.right_perfect_matchings(mask, n, d)
        clashes = [(core.mask_subset(m), J) for J, m in found.items() if table.get(J, m) != m]
        if clashes:
            J = min(clashes)[1]
            raise MatchfieldError(f"trees disagree on the matching of {core.mask_subset(J)}")
        table.update(found)
    return field_from_masks(n, d, core.all_ones(d), table)


def field_from_arrangement(ta: TopeArrangement) -> MatchingField:
    """The field whose maximal matchings the topes contain, read off the
    mask table in sorted point order; it must be linkage."""
    table = ta.mask_table
    field = _collect_matchings((table[p] for p in sorted(table)), ta.n, ta.d)
    require_linkage(field)
    return field


def maximal_tope_covectors(field: MatchingField) -> dict[tuple, BipartiteGraph]:
    """Linkage covectors of the thickness n-1 tope fields, keyed by the type.

    These are the trees the maximal topes are extracted from: one covector on
    tau = [n] for every positive type vector v of sum n - 1, the union of the
    maximal topes of types v + e_i, i = 1..d.  No union is walked: it is the
    covector on [n] of the tope field of type v amalgamated from the field,
    a tree as amalgamation keeps a field linkage (Loho & Smith, arXiv:1804.01595).
    """
    n, d = field.n, field.d
    out = {}
    if n - 1 < d:
        return out
    topes = tope_arrangement(field).mask_table
    for point in core.simplex_lattice_points(n - 1 - d, d):
        mask = 0
        for i in range(1, d + 1):
            mask |= topes[core.vector_sum(point, core.unit_vector(d, i))]
        out[core.vector_sum(point, core.all_ones(d))] = BipartiteGraph.from_mask(n, d, mask)
    return out


# ---------------------------------------------------------------------------
# extended arrangements and trianguloid axioms


class ExtendedTopeArrangement(core.MaskTable):
    """One graph per lattice point of n*Delta_{d-1}, held as the mask table
    {lattice point: edge mask} on the n x d grid; boundary points carry
    isolated right nodes.  The graphs, `graph` and `items`, are a view."""

    def __init__(self, n: int, d: int, table: dict):
        super().__init__(n, d, table)
        if not core.is_simplex_lattice(table, n, d):
            raise MatchfieldError("extended arrangement must cover all lattice points")

    def graph(self, point: Sequence[int]) -> BipartiteGraph:
        return self._graph(tuple(point), lambda: MatchfieldError(f"no graph at {tuple(point)}"))

    def items(self):
        return [(p, self.graph(p)) for p in sorted(self.mask_table)]


@dataclass(frozen=True)
class AxiomResult:
    ok: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class TrianguloidReport:
    right_degrees: AxiomResult  # T1
    left_cover: AxiomResult  # T2
    sector_inclusion: AxiomResult  # T3
    hexagon: AxiomResult  # T4

    @property
    def pre_trianguloid(self) -> bool:
        return self.right_degrees.ok and self.left_cover.ok and self.sector_inclusion.ok

    @property
    def trianguloid(self) -> bool:
        return self.pre_trianguloid and self.hexagon.ok

    def as_dict(self) -> dict:
        results = (self.right_degrees, self.left_cover, self.sector_inclusion, self.hexagon)
        return {f"T{t}": {"ok": r.ok, "witness": r.witness} for t, r in enumerate(results, 1)}


def trianguloid_check(eta: ExtendedTopeArrangement) -> TrianguloidReport:
    """Evaluate the four trianguloid axioms, reporting the first violation of
    each.  T4 (hexagon): whenever the graphs at c+ei+ej and c+ej+ek disagree
    on the neighbourhood of rj, the graphs at c+ei+ej and c+ei+ek must agree
    on ri and those at c+ei+ek and c+ej+ek must agree on rk."""
    n, d, table = eta.n, eta.d, eta.mask_table
    points, full = sorted(table), (1 << d) - 1

    def first(bad):  # the first failing point in sorted order, with its graph
        p = next((p for p in points if bad(p, table[p])), None)
        return AxiomResult(True) if p is None else AxiomResult(False, (p, eta.graph(p)))

    t1 = first(lambda p, m: core.right_degrees(m, n, d) != p)
    t2 = first(lambda p, m: any(not m >> j * d & full for j in range(n)))

    t3 = AxiomResult(True)
    try:
        check_sector_monotonicity(table)
    except MatchfieldError as exc:
        t3 = AxiomResult(False, (str(exc),))

    t4 = AxiomResult(True)
    units = [core.unit_vector(d, i) for i in range(1, d + 1)]
    column = core.column_mask(n, d)

    def nb(point, r):  # the left neighbours of the right node r, as a column mask
        return table[point] >> (r - 1) & column

    for c in core.simplex_lattice_points(n - 2, d) if n >= 2 else []:
        for i, j, k in permutations(range(1, d + 1), 3):
            a_ij = core.vector_sum(c, core.vector_sum(units[i - 1], units[j - 1]))
            a_jk = core.vector_sum(c, core.vector_sum(units[j - 1], units[k - 1]))
            a_ik = core.vector_sum(c, core.vector_sum(units[i - 1], units[k - 1]))
            if nb(a_ij, j) == nb(a_jk, j):
                continue
            if nb(a_ij, i) != nb(a_ik, i) or nb(a_ik, k) != nb(a_jk, k):
                t4 = AxiomResult(False, (c, frozenset((i, j, k))))
                break
        if not t4.ok:
            break
    return TrianguloidReport(t1, t2, t3, t4)


def extended_arrangement_by_stripping(
    field: MatchingField, dummy_edges: Iterable[tuple[int, int]]
) -> ExtendedTopeArrangement:
    """Extended arrangement recovered from a pointed field.

    The field must be a completion: every maximal tope contains the given
    dummy matching (one left node per right node).  Stripping it and
    relabelling the remaining left nodes yields the extended arrangement
    whose completion is the field's own tope arrangement.
    """
    dummy = sorted(dummy_edges)
    if [i for _, i in dummy] != list(range(1, field.d + 1)):
        raise MatchfieldError("dummy edges must cover each right node once")
    dummy_left = {j for j, _ in dummy}
    if len(dummy_left) != field.d:
        raise MatchfieldError("dummy left nodes must be distinct")
    n, d = field.n, field.d
    topes = tope_arrangement(field).mask_table
    drop, row = BipartiteGraph(n, d, dummy).mask, (1 << d) - 1
    shifts = [(j - 1) * d for j in range(1, n + 1) if j not in dummy_left]
    table = {}
    for point, tope in sorted(topes.items()):
        if tope & drop != drop:
            raise MatchfieldError(
                f"maximal tope at {point} does not contain the dummy matching"
            )
        # the kept rows, moved up in order: the tope but the dummy matching
        table[point] = sum((tope >> s & row) << t * d for t, s in enumerate(shifts))
        if table[point].bit_count() != tope.bit_count() - d:
            raise MatchfieldError("dummy left nodes carry extra edges")
    return ExtendedTopeArrangement(n - d, d, table)


# ---------------------------------------------------------------------------
# serialization


def field_to_json_dict(field: TopeField) -> dict:
    data = core.write_masks(field.n, field.d, "matchings", field.mask_table)
    if field.type_vector != core.all_ones(field.d):
        data["type"] = list(field.type_vector)
    return data


def field_from_json_dict(data: dict) -> TopeField:
    """The field of a JSON object, its type decided while it parses.  Each
    entry's key is read by ``core.subset_reader`` and its edge list into its
    mask, rows and columns by ``core.edge_mask``; when every entry's rows
    are its key with one edge each and its right degree vector is v, over
    C(n, k) entries with 0 <= k <= n <= MAX_SIDE, which are the conditions
    ``_field_fault`` scans for, the field holds the verdict and no row is
    read again.  For v = (1, ..., 1) an entry's right degrees are v when its
    d edges meet d columns; any other v reads them by
    ``core.right_degrees``.  Any other table goes to ``field_from_masks``."""
    n, d, entries = core.read_object(data, "matchings")
    read_key, table, parsed, matched = core.subset_reader(n, entries), {}, True, True
    for text, edges in entries.items():
        key = read_key(text)
        mask, rows, cols = core.edge_mask(n, d, edges)
        table[key] = mask
        size = mask.bit_count()
        parsed = parsed and rows == key and size == rows.bit_count()
        matched = matched and size == cols.bit_count() == d
    core._check_sides(n, d)  # before all_ones(d): an empty table checks no edge
    v = core._int_tuple(data.get("type", core.all_ones(d)), "a type vector")
    if v != core.all_ones(d):
        v = _type_vector(n, d, v)
    k = sum(v)
    if not (parsed and 0 <= k <= n <= core.MAX_SIDE and len(table) == comb(n, k) and (
            matched if v == core.all_ones(d)
            else all(core.right_degrees(m, n, d) == v for m in table.values()))):
        return field_from_masks(n, d, v, table)
    return _held(n, d, v, table)


def arrangement_to_json_dict(ta: TopeArrangement) -> dict:
    return core.write_masks(ta.n, ta.d, "topes", ta.mask_table, core.subset_key)


def arrangement_from_json_dict(data: dict) -> TopeArrangement:
    return TopeArrangement(*core.read_masks(data, "topes", core.parse_point_key))


def extended_to_json_dict(eta: ExtendedTopeArrangement) -> dict:
    return core.write_masks(eta.n, eta.d, "graphs", eta.mask_table, core.subset_key)


def extended_from_json_dict(data: dict) -> ExtendedTopeArrangement:
    return ExtendedTopeArrangement(*core.read_masks(data, "graphs", core.parse_point_key))
