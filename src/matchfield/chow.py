"""Chow covectors of a matching field and their lattice-point bijection.

For every (n-d+1)-subset rho of the left nodes, the Chow covector is the
graph of the map sending j in rho to the right partner of lj in the matching
on (L minus rho) union {j}.  For linkage fields the right degree vectors
(rdvs) of the covectors hit every lattice point of (n-d+1)*Delta_{d-1}
exactly once, by the main theorem of Loho & Smith, and the bijection
phi: rho -> lattice point determines the field.  There are C(n, d-1)
subsets, as many as lattice points, so a bijection is recognised by
counting (``core.is_simplex_lattice``), and so is its key set
(``core.is_subset_keys``).  A collection, like a field, is its mask table
{left-subset bitmask: edge mask}; its rdvs and phi are keyed by the same
bitmasks from the JSON reader to the writer, so phi is handed on as built.
Subsets are tuples only in views for a caller that asks for them (the
graphs, ``PhiMap.items``), in witnesses and in error texts.  As the edge
(lj, ri) of the matching on sigma is the lj-edge of the covector of
rho = (L minus sigma) + j, and sigma = (L minus rho) + j, one pass builds
the covectors from the field and back (``fields.chow_masks``).  From a
linkage field that holds type (1, ..., 1) it also codes their rdvs, and
only their distinctness is checked; any other table is validated in one
pass (``ChowCollection(n, d, table)``).

Reconstruction inverts phi with one sweep per left node over the lattice
points coded in base n-d+2 (``core.encode_point``).  For fixed j and i, the
covectors containing the edge (lj, ri) form a *combinatorial sector*, swept
from the pair at the top level (v_i = n-d+1): a pair joins when an admitted
pair sits at rdv v + e_i - e_k.  The d sectors of j partition the covectors
through j (``core.sectors``, shared with the triangulations), and each ORs
its edge at lj into the mask of its rho.  The rebuild keeps the table its
sweeps build; it checks only that their rdv codes are distinct, then that
each is its phi value's.  The shape of phi is checked once: by
``reconstruct_chow_from_phi`` (``PhiMap.validate_bijective``), or in
``roundtrip`` by the collection it is read off; so every seed is a value
and the sweep tests none.  The certificate runs in full: it rebuilds the
field, checks that it is linkage and that its covector table equals the
rebuilt one, mask for mask.  ``roundtrip --kind chow`` certifies only a
rebuild that differs from the table of its validated linkage input, as an
equal one is what the certificate would confirm.  The tests keep the
paper's induction on deleting lj, and the covectors as intersections of
maximal topes and as minimal transversals, as oracles.
"""

from __future__ import annotations

from functools import cached_property
from operator import mul, ne
from typing import Iterable

from . import core, fields
from .core import BipartiteGraph
from .errors import (
    FieldValidationError,
    InconsistentCollectionError,
    InconsistentPhiError,
    MatchfieldError,
    NotLinkageError,
)

BIJECTION = "right degree vectors do not biject onto the lattice points"


def chow_by_definition(field: fields.MatchingField, rho: Iterable[int]) -> BipartiteGraph:
    """Covector of rho: edge (j, i) where i is lj's partner in the matching on
    (L minus rho) + j.  Works for any matching field, linkage or not.  The
    library builds every covector in one keyed pass (`fields.chow_masks`);
    this per-rho definition is kept as the oracle the tests check it against."""
    rho = list(rho)
    n, d = field.n, field.d
    if len(rho) != n - d + 1:
        raise MatchfieldError(f"rho must have size {n - d + 1}, got {len(rho)}")
    complement = [x for x in range(1, n + 1) if x not in rho]
    edges = []
    for j in rho:
        (i,) = field.matching(complement + [j]).left_neighbors(j)
        edges.append((j, i))
    return BipartiteGraph(n, d, edges)


class ChowCollection:
    """All covectors of a linkage field, with the degree-vector bijection,
    held as the checked mask table {rho bitmask: edge mask} and as
    {rho bitmask: rdv}; the graphs, `covectors`, are a view built on first
    use."""

    def __init__(self, n: int, d: int, table: dict):
        """A collection holding the mask table itself, once validated."""
        self.n, self.d, self.mask_table, self.rdvs = n, d, table, _covector_rdvs(n, d, table)

    @classmethod
    def _unchecked(cls, n: int, d: int, table: dict, rdvs: dict) -> "ChowCollection":
        """A collection holding a table and rdvs its builder has checked."""
        cc = cls.__new__(cls)
        cc.n, cc.d, cc.mask_table, cc.rdvs = n, d, table, rdvs
        return cc

    @cached_property
    def covectors(self) -> dict:
        """The covectors as {rho: graph}, built on first use."""
        return core.graph_table(self.n, self.d, self.mask_table)

    def items(self):
        return sorted(self.covectors.items())

    def phi(self) -> "PhiMap":
        return PhiMap(self.n, self.d, self.rdvs)

    def __eq__(self, other):
        return (
            isinstance(other, ChowCollection)
            and (self.n, self.d) == (other.n, other.d)
            and self.mask_table == other.mask_table
        )

    def __repr__(self):
        return f"<ChowCollection ({self.n},{self.d}) with {len(self.mask_table)} covectors>"


def _covector_rdvs(n: int, d: int, table: dict) -> dict:
    """{rho bitmask: rdv} of a covector mask table, in table order: its keys
    must be the (n-d+1)-subsets of [n] as bitmasks (``core.is_subset_keys``),
    each holding an edge mask on (n, d) with at most one edge per row and
    left support its key, and its rdvs must biject onto the lattice points.
    Raises InconsistentCollectionError for the keys, else for the first
    covector in table order, else for the rdvs."""
    if not core.is_subset_keys(table.keys(), n, n - d + 1):
        raise InconsistentCollectionError("keys must be the (n-d+1)-subsets")
    rdvs = {}
    for key, mask in table.items():
        rows = core.read_rows(mask, n, d)
        if rows is None or rows[1] != key:
            fault = "wrong ambient size" if mask >> n * d else "wrong support"
            raise InconsistentCollectionError(f"covector at {core.mask_subset(key)} has {fault}")
        rdvs[key] = rows[2]
    if not core.is_simplex_lattice(rdvs.values(), n - d + 1, d):
        raise InconsistentCollectionError(BIJECTION)
    return rdvs


class PhiMap:
    """Bijection from (n-d+1)-subsets to lattice points of (n-d+1)*Delta,
    held as {rho bitmask: lattice point tuple}; `items` is the view keyed
    by subsets."""

    def __init__(self, n: int, d: int, mapping: dict):
        self.n, self.d, self.mapping = n, d, {rho: tuple(v) for rho, v in mapping.items()}

    def validate_bijective(self) -> None:
        if not 1 <= self.d <= self.n:
            raise InconsistentPhiError(f"phi for ({self.n}, {self.d}) needs 1 <= d <= n")
        core._check_sides(self.n, self.d)  # before the binomial of the key count
        k = self.n - self.d + 1
        if not core.is_subset_keys(self.mapping.keys(), self.n, k):
            raise InconsistentPhiError("phi keys must be the (n-d+1)-subsets")
        if not core.is_simplex_lattice(self.mapping.values(), k, self.d):
            raise InconsistentPhiError("phi values must biject onto the lattice points")

    def items(self):
        return sorted((core.mask_subset(rho), v) for rho, v in self.mapping.items())

    def __eq__(self, other):
        return (
            isinstance(other, PhiMap)
            and (self.n, self.d) == (other.n, other.d)
            and self.mapping == other.mapping
        )

    def __repr__(self):
        return f"<PhiMap ({self.n},{self.d})>"


def chow_collection(field: fields.MatchingField) -> ChowCollection:
    """All covectors of a linkage field with their rdvs, a bijection onto the
    lattice points by Loho & Smith's main theorem, so that on a field holding
    type (1, ..., 1) one coded pass checks only that they are distinct."""
    fields.require_linkage(field)
    n, d, nd, base = field.n, field.d, field.n * field.d, field.n - field.d + 2
    if not (field.holds_type and field.type_vector == core.all_ones(d)):
        return ChowCollection(n, d, fields.chow_masks(n, d, field.mask_table))
    lifts = [base ** (d - i) << nd for i in range(1, d + 1)]  # code of e_i, above the edges
    packed = fields.chow_masks(n, d, field.mask_table, lifts)
    if len({x >> nd for x in packed.values()}) < len(packed):
        raise InconsistentCollectionError(BIJECTION)
    rdvs = {rho: tuple([x // lift % base for lift in lifts]) for rho, x in packed.items()}
    return ChowCollection._unchecked(n, d, {rho: x % (1 << nd) for rho, x in packed.items()}, rdvs)


def field_from_chow(cc: ChowCollection) -> fields.MatchingField:
    """Rebuild the field by the pass that built the covectors, run on them.
    A collection that belongs to no field gives some d-subset a graph that is
    not a perfect matching, and the validator raises NotAMatchingError."""
    n, d = cc.n, cc.d
    return fields.field_from_masks(n, d, core.all_ones(d), fields.chow_masks(n, d, cc.mask_table))


# ---------------------------------------------------------------------------
# reconstruction


def reconstruct_chow_from_phi(phi: PhiMap, n: int, d: int) -> ChowCollection:
    """Invert phi: rebuild every covector from the subset -> lattice point
    bijection of a linkage field.

    Raises InconsistentPhiError when the input comes from no linkage field:
    the result is certified by rebuilding the field from the covectors,
    checking that it is linkage and that its covectors are the rebuilt
    ones, mask for mask.
    """
    if (phi.n, phi.d) != (n, d):
        raise MatchfieldError("phi dimensions disagree")
    phi.validate_bijective()
    return _certified(_rebuild(phi, n, d))


def _rebuild(phi: PhiMap, n: int, d: int) -> ChowCollection:
    """The covectors of the sector sweeps of a bijective phi, held as built:
    ``core.sectors`` puts each member through lj in one sector of j or
    raises, so each rho gets one edge in each of its rows.  Their rdv codes
    must be distinct, then each its phi value's; the certificate is the caller's."""
    base = n - d + 2  # above every coordinate
    weights = [base ** (d - i) for i in range(1, d + 1)]  # of coordinate i, as core.encode_point
    by_code, members = {}, [set() for _ in range(n)]  # members[j]: the codes through l(j+1)
    for rho, v in phi.mapping.items():
        x = sum(map(mul, v, weights))
        by_code[x] = rho
        for j in core._bits(rho):
            members[j].add(x)
    table, codes = dict.fromkeys(by_code.values(), 0), dict.fromkeys(by_code, 0)
    for j in range(n):
        sector = core.sectors(members[j], base - 1, j + 1, InconsistentPhiError, d, base)
        for x, i in sector.items():
            table[by_code[x]] |= 1 << (j * d + i - 1)
            codes[x] += weights[i - 1]
    if len(set(codes.values())) < len(codes):
        raise InconsistentPhiError(BIJECTION)
    if any(map(ne, codes, codes.values())):
        raise InconsistentPhiError("reconstruction does not reproduce phi")
    return ChowCollection._unchecked(n, d, table, dict(phi.mapping))


def _certified(collection: ChowCollection) -> ChowCollection:
    """The rebuilt covectors, once they are those of an actual linkage field."""
    n, d = collection.n, collection.d
    try:
        field = field_from_chow(collection)
        fields.require_linkage(field)
        if fields.chow_masks(n, d, field.mask_table) != collection.mask_table:
            raise InconsistentPhiError("covectors do not belong to any field")
    except (FieldValidationError, InconsistentCollectionError, NotLinkageError) as exc:
        raise InconsistentPhiError(str(exc)) from exc
    return collection


def collection_to_json_dict(cc: ChowCollection) -> dict:
    return core.write_masks(cc.n, cc.d, "covectors", cc.mask_table)


def phi_to_json_dict(phi: PhiMap) -> dict:
    """The phi object, each key written by ``core.subset_writer``."""
    key = core.subset_writer(phi.n, phi.mapping)
    return {"n": phi.n, "d": phi.d, "phi": {key(rho): list(v) for rho, v in phi.mapping.items()}}


def phi_from_json_dict(data: dict) -> PhiMap:
    """The phi map of a phi object, each key read by ``core.subset_reader``,
    which names a refused key and keeps one with a member beyond n a tuple,
    for ``PhiMap.validate_bijective`` to refuse."""
    n, d, table = core.read_object(data, "phi")
    key = core.subset_reader(n, table)
    return PhiMap(n, d, {key(k): core._int_tuple(v, "a vector") for k, v in table.items()})
