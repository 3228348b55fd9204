"""Chow covectors of a matching field and their lattice-point bijection.

For every (n-d+1)-subset rho of the left nodes, the Chow covector is the
graph of the map sending j in rho to the right partner of lj in the matching
on (L minus rho) union {j}.  For linkage fields the right degree vectors of
the covectors hit every lattice point of (n-d+1)*Delta_{d-1} exactly once;
the resulting bijection phi: rho -> lattice point determines the field.
One pass over the matchings builds every covector: the edge (lj, ri) of the
matching on sigma belongs to the covector of rho = (L minus sigma) + j.  As
then sigma = (L minus rho) + j, the same pass run on the covectors reads the
field back (``fields.chow_masks``).

Reconstruction inverts phi with one sweep per left node.  For fixed j and
i, the covectors containing the edge (lj, ri) form a *combinatorial sector*,
swept over the levels of the i-th right coordinate: the unique pair at the
top level (v_i = n-d+1) seeds it, and a pair at level h joins when an
admitted pair sits at rdv v + e_i - e_k.  The d sectors of j partition the
covectors through j and give each its edge at lj: ``core.sectors``, the same
partition that rebuilds triangulations from degree pairs.  A certificate
rebuilds the field and re-derives the covectors.  The paper's induction on
deleting lj is kept in the tests as an oracle, and so are the two other
descriptions of the covectors: as intersections of maximal topes, and as the
minimal transversals to the field (graphs meeting every matching, minimal
under inclusion) by a Berge-style blocker computation; and so is the field
read back through the maximal topes, unions of covectors.
"""

from __future__ import annotations

from math import comb
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


def chow_by_definition(field: fields.MatchingField, rho: Iterable[int]) -> BipartiteGraph:
    """Covector of rho: edge (j, i) where i is lj's partner in the matching on
    (L minus rho) + j.  Works for any matching field, linkage or not.  The
    library builds every covector in one keyed pass (`fields.chow_masks`);
    this per-rho definition is kept as the oracle the tests check it against."""
    rho = tuple(sorted(rho))
    n, d = field.n, field.d
    if len(rho) != n - d + 1:
        raise MatchfieldError(f"rho must have size {n - d + 1}, got {len(rho)}")
    complement = [x for x in range(1, n + 1) if x not in rho]
    edges = []
    for j in rho:
        sigma = tuple(sorted(complement + [j]))
        (i,) = field.matching(sigma).left_neighbors(j)
        edges.append((j, i))
    return BipartiteGraph(n, d, edges)


class ChowCollection:
    """All covectors of a linkage field, with the degree-vector bijection."""

    def __init__(self, n: int, d: int, covectors: dict):
        self.n = n
        self.d = d
        self.covectors = {tuple(sorted(r)): g for r, g in covectors.items()}
        self._validate()

    def _validate(self) -> None:
        n, d = self.n, self.d
        expected = list(core.subsets(n, n - d + 1))
        if sorted(self.covectors) != sorted(expected):
            raise InconsistentCollectionError("keys must be the (n-d+1)-subsets")
        for rho, g in self.covectors.items():
            # its left rows, read once: nonzero exactly on rho, one bit at most each
            rows = [g.mask >> (j * g.d) & ((1 << g.d) - 1) for j in range(g.n)]
            support = tuple(j for j, row in enumerate(rows, start=1) if row)
            if support != rho or any(row & (row - 1) for row in rows):
                raise InconsistentCollectionError(f"covector at {rho} has wrong support")
        rdvs = sorted(g.right_degrees() for g in self.covectors.values())
        if rdvs != core.simplex_lattice_points(n - d + 1, d):
            raise InconsistentCollectionError(
                "right degree vectors do not biject onto the lattice points"
            )

    def covector(self, rho: Iterable[int]) -> BipartiteGraph:
        return self.covectors[tuple(sorted(rho))]

    def items(self):
        return sorted(self.covectors.items())

    def by_rdv(self) -> dict[tuple, BipartiteGraph]:
        return {g.right_degrees(): g for g in self.covectors.values()}

    def phi(self) -> "PhiMap":
        return PhiMap(
            self.n,
            self.d,
            {rho: g.right_degrees() for rho, g in self.covectors.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, ChowCollection)
            and (self.n, self.d) == (other.n, other.d)
            and self.covectors == other.covectors
        )

    def __repr__(self):
        return f"<ChowCollection ({self.n},{self.d}) with {len(self.covectors)} covectors>"


class PhiMap:
    """Bijection from (n-d+1)-subsets to lattice points of (n-d+1)*Delta."""

    def __init__(self, n: int, d: int, mapping: dict):
        self.n = n
        self.d = d
        self.mapping = {tuple(sorted(r)): tuple(v) for r, v in mapping.items()}

    def validate_bijective(self) -> None:
        if not 1 <= self.d <= self.n:
            raise InconsistentPhiError(f"phi for ({self.n}, {self.d}) needs 1 <= d <= n")
        k = self.n - self.d + 1
        # count first, so that a huge (n, d) never lists its subsets
        if len(self.mapping) != comb(self.n, k):
            raise InconsistentPhiError("phi keys must be the (n-d+1)-subsets")
        if sorted(self.mapping) != sorted(core.subsets(self.n, k)):
            raise InconsistentPhiError("phi keys must be the (n-d+1)-subsets")
        if sorted(self.mapping.values()) != core.simplex_lattice_points(k, self.d):
            raise InconsistentPhiError("phi values must biject onto the lattice points")

    def items(self):
        return sorted(self.mapping.items())

    def __eq__(self, other):
        return (
            isinstance(other, PhiMap)
            and (self.n, self.d) == (other.n, other.d)
            and self.mapping == other.mapping
        )

    def __repr__(self):
        return f"<PhiMap ({self.n},{self.d})>"


def chow_collection(field: fields.MatchingField) -> ChowCollection:
    """All covectors of a linkage field; the rdv bijection is certified."""
    fields.require_linkage(field)
    table = {core.subset_mask(sigma): m.mask for sigma, m in field.items()}
    return ChowCollection(field.n, field.d, _chow_pass(field.n, field.d, table))


def field_from_chow(cc: ChowCollection) -> fields.MatchingField:
    """Rebuild the field by the pass that built the covectors, run on them.
    A collection that belongs to no field gives some d-subset a graph that is
    not a perfect matching, and the validator raises NotAMatchingError."""
    table = {core.subset_mask(rho): g.mask for rho, g in cc.covectors.items()}
    return fields.validate_matching_field(cc.n, cc.d, _chow_pass(cc.n, cc.d, table))


def _chow_pass(n: int, d: int, table: dict) -> dict:
    """``fields.chow_masks`` of the table, keyed by subsets and with graphs."""
    return {
        core.mask_subset(key): BipartiteGraph.from_mask(n, d, mask)
        for key, mask in fields.chow_masks(n, d, table).items()
    }


# ---------------------------------------------------------------------------
# reconstruction


def reconstruct_chow_from_phi(phi: PhiMap, n: int, d: int) -> ChowCollection:
    """Invert phi: rebuild every covector from the subset -> lattice point
    bijection of a linkage field.

    Raises InconsistentPhiError when the input comes from no linkage field:
    the result is certified by rebuilding the field from the covectors and
    checking that its collection reproduces the input exactly.
    """
    if (phi.n, phi.d) != (n, d):
        raise MatchfieldError("phi dimensions disagree")
    phi.validate_bijective()
    by_rdv = {v: rho for rho, v in phi.mapping.items()}
    edges: dict = {rho: [] for rho in phi.mapping}
    for j in range(1, n + 1):
        member_rdvs = {v for rho, v in phi.mapping.items() if j in rho}
        sector = core.sectors(member_rdvs, by_rdv, n - d + 1, j, InconsistentPhiError)
        for rdv, i in sector.items():
            edges[by_rdv[rdv]].append((j, i))
    out = {rho: BipartiteGraph(n, d, e) for rho, e in edges.items()}
    try:
        collection = ChowCollection(n, d, out)
        if collection.phi().mapping != phi.mapping:
            raise InconsistentPhiError("reconstruction does not reproduce phi")
        # certificate: the collection must belong to an actual linkage field
        field = field_from_chow(collection)
        if chow_collection(field) != collection:
            raise InconsistentPhiError("covectors do not belong to any field")
    except (FieldValidationError, InconsistentCollectionError, NotLinkageError) as exc:
        raise InconsistentPhiError(str(exc)) from exc
    return collection


def collection_to_json_dict(cc: ChowCollection) -> dict:
    return core.write_table(cc.n, cc.d, "covectors", cc.items())


def phi_to_json_dict(phi: PhiMap) -> dict:
    return core.write_table(phi.n, phi.d, "phi", phi.items())


def phi_from_json_dict(data: dict) -> PhiMap:
    return PhiMap(*core.read_table(data, "phi", vectors=True))
