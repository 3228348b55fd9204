"""Command-line interface.

Every subcommand maps to one library operation or a short pipeline; input
and output are canonical JSON (sorted keys, integers only, newline
terminated), so runs are byte-stable.  Each handler loads its input,
computes, and returns ``(result, verdict)``: the JSON dict and whether the
check it runs passed (always true for a subcommand with no verdict),
then the ``(text, path)`` of any further file it writes, such as the
``--dot`` file of ``flipgraph``.  ``run`` writes them in one place: it adds
``--seed`` to the result, writes the further files and the result to stdout
or the ``--json`` file, opening every file before it writes any, and writes
the result to stderr as well when the verdict fails.  Exit codes: 0
success, 1 validation failure (the report, or the library error with any
witness it carries, goes to stderr as JSON), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

from . import chow, core, fields, flip, stacks, triang
from .errors import MatchfieldError


def _not_an_integer(token: str):
    raise ValueError(f"expected an integer, got {token}")


def _object(pairs: list) -> dict:
    """A JSON object from its pairs; ValueError naming a repeated key."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen: set = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"key {key!r} is repeated in one JSON object")
    return data


def _load(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    data = json.loads(text, object_pairs_hook=_object,
                      parse_float=_not_an_integer, parse_constant=_not_an_integer)
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    for literal in ("true", "false"):  # no input format has them in its string keys
        if literal in text:
            _not_an_integer(literal)
    return data


def _load_matching_field(path: str) -> fields.MatchingField:
    return fields._matching_field(fields.field_from_json_dict(_load(path)))


def _write(outputs: list) -> None:
    """Write each (text, path) pair to the file at path, or to stdout when
    path is None, the files first.  Every file is opened before any is
    written, so a path that cannot be opened leaves no output: the files
    opened before it stay unwritten, and one its open created is removed.
    An existing regular file is overwritten in place and cut to the text's
    length, because truncating it to zero first is costly on ext4; devices
    are not cut.  The write is neither atomic nor synced: a crash or a write
    cut short can leave the new bytes followed by the old file's tail, or
    the new length holding old bytes.
    """
    opened = []
    try:
        for text, path in outputs:
            if path is not None:
                created = not os.path.lexists(path)
                opened.append((os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), text, path, created))
    except OSError:
        for fd, _, path, created in opened:
            os.close(fd)
            if created:
                os.unlink(path)
        raise
    for fd, text, _, _ in opened:
        with open(fd, "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.flush()
                os.ftruncate(fd, fh.tell())
    for text, path in outputs:
        if path is None:
            sys.stdout.write(text)


# -- subcommand handlers ----------------------------------------------------


def cmd_check_linkage(args) -> tuple[dict, bool]:
    field = fields.field_from_json_dict(_load(args.input))
    report = fields.is_linkage(field)
    failures = [{"tau": res.tau, "cycle": res.cycle} for res in report.failures]
    return {"linkage": report.ok, "failures": failures}, report.ok


def cmd_amalgamate(args) -> tuple[dict, bool]:
    field = fields.field_from_json_dict(_load(args.input))
    target = core.parse_point_key(args.target)
    tf = fields.tope_field_of_type(field, target)
    return fields.field_to_json_dict(tf), True


def cmd_arrangement(args) -> tuple[dict, bool]:
    field = _load_matching_field(args.input)
    ta = fields.tope_arrangement(field)
    return fields.arrangement_to_json_dict(ta), True


def cmd_trianguloid_check(args) -> tuple[dict, bool]:
    eta = fields.extended_from_json_dict(_load(args.input))
    report = fields.trianguloid_check(eta)
    return report.as_dict(), report.trianguloid


def cmd_chow(args) -> tuple[dict, bool]:
    field = _load_matching_field(args.input)
    cc = chow.chow_collection(field)
    return chow.collection_to_json_dict(cc), True


def cmd_phi(args) -> tuple[dict, bool]:
    field = _load_matching_field(args.input)
    cc = chow.chow_collection(field)
    return chow.phi_to_json_dict(cc.phi()), True


def cmd_reconstruct_chow(args) -> tuple[dict, bool]:
    phi = chow.phi_from_json_dict(_load(args.phi))
    cc = chow.reconstruct_chow_from_phi(phi, phi.n, phi.d)
    return chow.collection_to_json_dict(cc), True


def cmd_validate_triangulation(args) -> tuple[dict, bool]:
    n, d, masks = triang.trees_from_json_dict(_load(args.input))
    report = triang.check_triangulation(masks, n, d)
    return {"valid": report.ok, "violation": report.kind, "witness": report.witness}, report.ok


def cmd_extract(args) -> tuple[dict, bool]:
    t = triang.triangulation_from_json_dict(_load(args.input))
    field = triang.extract_field(t)
    return fields.field_to_json_dict(field), True


def cmd_phi_triangulation(args) -> tuple[dict, bool]:
    t = triang.triangulation_from_json_dict(_load(args.input))
    pairs = triang.phi(t)
    return triang.pairs_to_json_dict(pairs, t.n, t.d), True


def cmd_reconstruct_triangulation(args) -> tuple[dict, bool]:
    data = _load(args.input)
    pairs = triang.pairs_from_json_dict(data)
    t = triang.reconstruct_triangulation(pairs, data["n"], data["d"])
    return triang.triangulation_to_json_dict(t), True


def cmd_staircase(args) -> tuple[dict, bool]:
    left = core.parse_point_key(args.left_order) if args.left_order else None
    right = core.parse_point_key(args.right_order) if args.right_order else None
    t = triang.staircase_triangulation(args.n, args.d, left, right)
    return triang.triangulation_to_json_dict(t), True


def cmd_enumerate_triangulations(args) -> tuple[dict, bool]:
    found = triang.enumerate_triangulations(args.n, args.d)
    out = {
        "n": args.n,
        "d": args.d,
        "count": len(found),
        "bound": triang.count_bound(args.n, args.d),
        "triangulations": [
            triang.triangulation_to_json_dict(t)["trees"] for t in found
        ],
    }
    return out, True


def cmd_flipgraph(args) -> tuple[dict, bool]:
    field = _load_matching_field(args.input)
    fg = flip.flip_graph(field)
    out = {
        "vertices": fg.vertices,  # tuples are written as arrays
        "edges": sorted(fg.edges),
        "edge_count": len(fg.edges),
        "expected_for_linkage": flip.expected_edge_count(field.n, field.d),
    }
    if args.dot is None:
        return out, True
    return out, True, (flip.flip_graph_to_dot(field, fg), args.dot)


def cmd_cells(args) -> tuple[dict, bool]:
    field = _load_matching_field(args.input)
    cells = flip.maximal_cells(field)
    out = {
        "cells": {
            core.subset_key(point): {
                "factors": cell.neighbor_sets,  # tuples are written as arrays
                "vertices": sorted(cell.vertices),
            }
            for point, cell in sorted(cells.items())
        }
    }
    return out, True


def cmd_complete(args) -> tuple[dict, bool]:
    stack = stacks.stack_from_json_dict(_load(args.input))
    field = stacks.completion(stack)
    return fields.field_to_json_dict(field), True


def cmd_ensemble_check(args) -> tuple[dict, bool]:
    stack = stacks.stack_from_json_dict(_load(args.input))
    report = stacks.validate_ensemble(stack)
    return report.as_dict(), report.ok


def cmd_stiefel(args) -> tuple[dict, bool]:
    field = _load_matching_field(args.input)
    matroids = stacks.stiefel_image_of_field(field)
    return {"matroids": [m.as_dict() for m in matroids]}, True


def cmd_right_submatching_check(args) -> tuple[dict, bool]:
    field = _load_matching_field(args.input)
    report = stacks.right_submatching_check(field)
    return {"ok": report.ok, "witness": report.witness}, report.ok


def cmd_roundtrip(args) -> tuple[dict, bool]:
    if args.kind == "chow":
        field = _load_matching_field(args.input)
        cc = chow.chow_collection(field)  # the bijection that phi reads off
        rebuilt = chow._rebuild(cc.phi(), field.n, field.d)
        if rebuilt != cc:  # cc is the input's, so only a differing rebuild is certified
            chow._certified(rebuilt)
        # both hold every (n-d+1)-subset
        diff = sorted(
            core.subset_key(core.mask_subset(rho))
            for rho, m in cc.mask_table.items()
            if rebuilt.mask_table[rho] != m
        )
    else:
        t = triang.triangulation_from_json_dict(_load(args.input))
        rebuilt = sorted(triang._rebuild(triang.phi(t), t.n, t.d))  # phi checks the pairs' shape
        if rebuilt != list(t.masks):  # t holds the axioms, so only a differing rebuild is certified
            triang._certified(rebuilt, t.n, t.d)
        diff = core.edge_lists(t.n, t.d, sorted(set(t.masks).symmetric_difference(rebuilt)))
    return {"kind": args.kind, "diff": diff, "match": not diff}, not diff


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchfield",
        description="Exact combinatorics of matching fields, tope arrangements, "
        "Chow covectors and triangulations of products of two simplices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help, input=None, **before):
        """A subcommand with --json, --seed, an option --NAME=keywords for
        each in ``before``, then its input (help text ``input``; none when
        False); the caller adds the rest."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--json", help="write the JSON result to this path")
        p.add_argument("--seed", type=int, help="seed recorded in the output")
        for option, keywords in before.items():
            p.add_argument("--" + option, **keywords)
        if input is not False:
            p.add_argument("input", help=input)
        return p

    add("check-linkage", cmd_check_linkage, help="test the linkage property",
        input="matching/tope field JSON")

    p = add("amalgamate", cmd_amalgamate, help="iterated amalgamation to a type")
    p.add_argument("--target", required=True, help="target type vector, e.g. 3,1")

    add("arrangement", cmd_arrangement, help="tope arrangement of a field")
    add("trianguloid-check", cmd_trianguloid_check, help="axioms T1-T4",
        input="extended arrangement JSON")
    add("chow", cmd_chow, help="all Chow covectors")
    add("phi", cmd_phi, help="subset -> lattice point bijection")

    p = add("reconstruct-chow", cmd_reconstruct_chow, help="invert a phi map", input=False)
    p.add_argument("--phi", required=True, help="phi JSON file")

    add("validate-triangulation", cmd_validate_triangulation, help="tree axioms")
    add("extract", cmd_extract, help="matching field of a triangulation")
    add("phi-triangulation", cmd_phi_triangulation, help="degree pair set")
    add(
        "reconstruct-triangulation",
        cmd_reconstruct_triangulation,
        help="invert a degree pair set",
        input="pairs JSON with n, d",
    )

    p = add("staircase", cmd_staircase, help="staircase triangulation", input=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--left-order", help="permutation of 1..n, e.g. 2,1,3")
    p.add_argument("--right-order", help="permutation of 1..d")

    p = add(
        "enumerate-triangulations",
        cmd_enumerate_triangulations,
        help="exhaustive enumeration (tiny sizes)",
        input=False,
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("flipgraph", cmd_flipgraph, help="flip graph, optionally as DOT")
    p.add_argument("--dot", help="write DOT with per-linkage-tree colors")

    add("cells", cmd_cells, help="maximal prodsimplicial cells")
    add("complete", cmd_complete, help="matching field completion of a stack")
    add("ensemble-check", cmd_ensemble_check, help="stack ensemble axioms")
    add("stiefel", cmd_stiefel, help="transversal matroids of the maximal covectors")
    add(
        "right-submatching-check",
        cmd_right_submatching_check,
        help="compatible right submatching property",
    )
    # --kind before the input, so a call with neither names --kind first
    add("roundtrip", cmd_roundtrip, help="forward map, reconstruct, diff",
        kind={"choices": ["chow", "triangulation"], "required": True})

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call; no option has a
    mutable default, so parsing leaves it as it was."""
    return build_parser()


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        out, ok, *files = args.handler(args)
        if args.seed is not None:
            out["seed"] = args.seed
        text = core.canonical_json(out)
        _write([*files, (text, args.json)])
        if not ok:
            sys.stderr.write(text)
        return 0 if ok else 1
    except (MatchfieldError, OSError, KeyError, ValueError) as exc:
        failed = isinstance(exc, MatchfieldError)  # exit 1; any other is a usage error
        report = {"error": type(exc).__name__, "message": str(exc)}
        if failed and vars(exc):  # the attributes of an error that carries a witness
            report["witness"] = vars(exc)
        sys.stderr.write(core.canonical_json(report))
        return 1 if failed else 2


def main() -> None:
    sys.exit(run())
