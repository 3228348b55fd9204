"""Command-line surface: exit codes, JSON reports, byte stability."""

import argparse
import contextlib
import copy
import errno
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from matchfield import chow, core, fields, triang
from matchfield.chow import PhiMap, chow_collection, phi_from_json_dict, phi_to_json_dict
from matchfield.cli import build_parser, run
from matchfield.errors import MatchfieldError
from matchfield.fields import (
    arrangement_from_json_dict,
    arrangement_to_json_dict,
    extended_from_json_dict,
    extended_to_json_dict,
    field_from_json_dict,
    field_to_json_dict,
    tope_arrangement,
)
from matchfield.randgen import seeded_coherent_field
from matchfield.stacks import stack_from_json_dict, stack_to_json_dict, stack_from_trees
from matchfield.triang import (
    STAIRCASE_MAX_TREES,
    Triangulation,
    enumerate_triangulations,
    extended_tope_arrangement,
    pairs_to_json_dict,
    phi,
    staircase_triangulation,
    triangulation_to_json_dict,
)

import oracles


@pytest.fixture()
def field_file(tmp_path, field_42):
    path = tmp_path / "field42.json"
    path.write_text(core.canonical_json(field_to_json_dict(field_42)))
    return str(path)


@pytest.fixture()
def bad_field_file(tmp_path, field_43):
    path = tmp_path / "field43.json"
    path.write_text(core.canonical_json(field_to_json_dict(field_43)))
    return str(path)


@pytest.fixture()
def triangulation_file(tmp_path):
    t = staircase_triangulation(3, 2)
    path = tmp_path / "t32.json"
    path.write_text(core.canonical_json(triangulation_to_json_dict(t)))
    return str(path)


def test_check_linkage_pass(capsys, field_file):
    assert run(["check-linkage", field_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["linkage"] is True


def test_check_linkage_fail_lists_tau(capsys, bad_field_file):
    assert run(["check-linkage", bad_field_file]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.err)
    assert report["linkage"] is False
    assert [1, 2, 3, 4] in [f["tau"] for f in report["failures"]]


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_file(capsys):
    assert run(["check-linkage", "/nonexistent/field.json"]) == 2


def test_amalgamate(capsys, field_file):
    assert run(["amalgamate", field_file, "--target", "2,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["type"] == [2, 1]
    assert out["matchings"]["1,2,3"] == [[1, 1], [2, 1], [3, 2]]


def test_arrangement_and_cells(capsys, field_file):
    assert run(["arrangement", field_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["topes"]) == {"0,2", "1,1", "2,0"}
    assert run(["cells", field_file]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert cells["1,1"]["factors"] == [[1, 4], [2, 3]]


def test_chow_phi_reconstruct(capsys, field_file, tmp_path):
    assert run(["phi", field_file, "--json", str(tmp_path / "phi.json")]) == 0
    phi_data = json.loads((tmp_path / "phi.json").read_text())
    assert phi_data["phi"]["1,2,4"] == [3, 0]
    assert run(["reconstruct-chow", "--phi", str(tmp_path / "phi.json")]) == 0
    rebuilt = json.loads(capsys.readouterr().out)
    assert rebuilt["covectors"]["1,2,4"] == [[1, 1], [2, 1], [4, 1]]


def test_roundtrip_commands(capsys, field_file, triangulation_file):
    assert run(["roundtrip", "--kind", "chow", field_file]) == 0
    assert json.loads(capsys.readouterr().out)["match"] is True
    assert run(["roundtrip", "--kind", "triangulation", triangulation_file]) == 0
    assert json.loads(capsys.readouterr().out)["match"] is True


def count_certificates(monkeypatch):
    """A list that grows by one for every check_triangulation call."""
    calls, check = [], triang.check_triangulation
    monkeypatch.setattr(triang, "check_triangulation", lambda *a: calls.append(a) or check(*a))
    return calls


@pytest.mark.parametrize("n,d", [(3, 2), (2, 4), (4, 3), (5, 4)])
def test_triangulation_round_trip_runs_one_certificate(capsys, monkeypatch, tmp_path, n, d):
    # the input is validated by check_triangulation; a rebuild equal to it
    # is not certified a second time
    t = staircase_triangulation(n, d, tuple(range(n, 0, -1)), None)
    path = tmp_path / "t.json"
    path.write_text(core.canonical_json(triangulation_to_json_dict(t)))
    calls = count_certificates(monkeypatch)
    assert run(["roundtrip", "--kind", "triangulation", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["match"] is True
    assert len(calls) == 1


def test_differing_rebuild_reaches_the_certificate(capsys, monkeypatch, tmp_path):
    # the two triangulations of the square, and a tree of each: a rebuild
    # that differs from the input is certified, and refused when it fails
    (a, b) = enumerate_triangulations(2, 2)
    path = tmp_path / "t.json"
    path.write_text(core.canonical_json(triangulation_to_json_dict(a)))
    mixed = Triangulation(2, 2, [a.masks[0], b.masks[0]])
    for rebuilt, code in [(mixed, 1), (b, 1), (a, 0)]:
        monkeypatch.setattr(triang, "_rebuild", lambda pairs, n, d: rebuilt)
        calls = count_certificates(monkeypatch)
        assert run(["roundtrip", "--kind", "triangulation", str(path)]) == code
        out, err = capsys.readouterr()
        assert len(calls) == (1 if rebuilt == a else 2)
        if rebuilt is mixed:
            assert json.loads(err) == {
                "error": "InconsistentPairsError",
                "message": "rebuilt trees violate the agreement axiom",
            }
        else:
            assert json.loads(out)["match"] is (rebuilt == a)


def count_shape_checks(monkeypatch):
    """A list that grows by the name of every shape check of a reconstruction
    input: of a pair set, of a phi map, or of the Chow collection a round
    trip reads its phi map off."""
    calls = []
    pairs, bijective, collection = (
        triang._check_pair_shape, PhiMap.validate_bijective, chow.chow_collection)
    monkeypatch.setattr(triang, "_check_pair_shape", lambda *a: calls.append("pairs") or pairs(*a))
    monkeypatch.setattr(PhiMap, "validate_bijective", lambda p: calls.append("phi") or bijective(p))
    monkeypatch.setattr(chow, "chow_collection", lambda f: calls.append("collection") or collection(f))
    return calls


def test_each_reconstruction_checks_its_input_shape_once(capsys, monkeypatch, tmp_path):
    t = staircase_triangulation(4, 3, (2, 4, 1, 3), (3, 1, 2))
    field = triang.extract_field(t)
    data = {
        "t.json": triangulation_to_json_dict(t),
        "pairs.json": pairs_to_json_dict(phi(t), 4, 3),
        "field.json": field_to_json_dict(field),
        "phi.json": phi_to_json_dict(chow_collection(field).phi()),
    }
    for name, value in data.items():
        (tmp_path / name).write_text(core.canonical_json(value))
    for argv, expected in [
        (["reconstruct-triangulation", "pairs.json"], ["pairs"]),
        (["roundtrip", "--kind", "triangulation", "t.json"], ["pairs"]),
        (["reconstruct-chow", "--phi", "phi.json"], ["phi"]),
        (["roundtrip", "--kind", "chow", "field.json"], ["collection"]),
    ]:
        calls = count_shape_checks(monkeypatch)
        argv[-1] = str(tmp_path / argv[-1])
        assert run(argv) == 0
        capsys.readouterr()
        assert calls == expected, argv


@pytest.mark.parametrize(
    "data",
    [{"n": 2, "d": 0, "trees": []}, {"n": 0, "d": 3, "trees": []}, {"n": 1, "d": 0, "trees": [[]]}],
    ids=["d0", "n0", "d0-one-tree"],
)
@pytest.mark.parametrize("command", [
    ["validate-triangulation"],
    ["extract"],
    ["phi-triangulation"],
    ["roundtrip", "--kind", "triangulation"],
], ids=lambda c: c[0])
def test_empty_side_triangulation_is_refused_by_name(capsys, tmp_path, command, data):
    # an empty side holds no edge; the reader refuses it by name before it
    # reads a tree, and check_triangulation before it counts them
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    assert run(command + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "MatchfieldError",
        "message": f"triangulation ({data['n']}, {data['d']}) needs a node on each side",
    }


def count_chow_certificates(monkeypatch):
    """A list that grows by one for every Chow certificate, counted at its
    first step, the field rebuilt from the covectors."""
    calls, rebuild = [], chow.field_from_chow
    monkeypatch.setattr(chow, "field_from_chow", lambda cc: calls.append(cc) or rebuild(cc))
    return calls


@pytest.mark.parametrize("name", ["field_42", "field_53", "field_63"])
def test_chow_round_trip_certifies_no_matching_rebuild(capsys, monkeypatch, tmp_path, request, name):
    # the input passed the linkage test, and a rebuild equal to its Chow
    # table is that table; reconstruct-chow, with no field, certifies once
    path, phi_path = tmp_path / "f.json", tmp_path / "phi.json"
    path.write_text(core.canonical_json(field_to_json_dict(request.getfixturevalue(name))))
    calls = count_chow_certificates(monkeypatch)
    assert run(["roundtrip", "--kind", "chow", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "chow", "diff": [], "match": True}
    assert calls == []
    assert run(["phi", str(path), "--json", str(phi_path)]) == 0
    assert run(["reconstruct-chow", "--phi", str(phi_path)]) == 0
    assert len(calls) == 1


def test_differing_chow_rebuild_reaches_the_certificate(capsys, monkeypatch, field_file, field_42):
    # another linkage collection (two phi values of field_42 swapped) is
    # certified and reported as a mismatch; a collection of no field fails
    mapping = dict(chow_collection(field_42).phi().mapping)
    a, b = core.subset_mask((1, 2, 3)), core.subset_mask((1, 2, 4))
    mapping[a], mapping[b] = mapping[b], mapping[a]
    other = chow.reconstruct_chow_from_phi(PhiMap(4, 2, mapping), 4, 2)
    edges = {(1, 2, 3): [(1, 1), (2, 1), (3, 1)], (1, 2, 4): [(1, 1), (2, 1), (4, 2)],
             (1, 3, 4): [(1, 2), (3, 2), (4, 1)], (2, 3, 4): [(2, 2), (3, 2), (4, 2)]}
    graphs = {rho: core.BipartiteGraph(4, 2, e) for rho, e in edges.items()}
    broken = chow.ChowCollection(4, 2, core.graph_masks(4, 2, graphs))
    diff = sorted(core.subset_key(rho) for rho, g in chow_collection(field_42).covectors.items()
                  if other.covectors[rho] != g)
    assert diff
    for rebuilt in (other, broken):
        monkeypatch.setattr(chow, "_rebuild", lambda phi, n, d: rebuilt)
        calls = count_chow_certificates(monkeypatch)
        assert run(["roundtrip", "--kind", "chow", field_file]) == 1
        out, err = capsys.readouterr()
        assert calls == [rebuilt]
        if rebuilt is broken:
            assert out == "" and json.loads(err) == {
                "error": "InconsistentPhiError",
                "message": "value for (1, 2) is not a perfect matching",
            }
        else:
            assert json.loads(out) == json.loads(err) == {
                "kind": "chow", "diff": diff, "match": False}


def test_validate_extract_phi_triangulation(capsys, triangulation_file):
    assert run(["validate-triangulation", triangulation_file]) == 0
    capsys.readouterr()
    assert run(["extract", triangulation_file]) == 0
    field = json.loads(capsys.readouterr().out)
    assert field["n"] == 3 and field["d"] == 2
    assert run(["phi-triangulation", triangulation_file]) == 0
    pairs = json.loads(capsys.readouterr().out)
    assert len(pairs["pairs"]) == 3


def test_reconstruct_triangulation(capsys, triangulation_file, tmp_path):
    assert run(["phi-triangulation", triangulation_file, "--json", str(tmp_path / "p.json")]) == 0
    capsys.readouterr()
    assert run(["reconstruct-triangulation", str(tmp_path / "p.json")]) == 0
    t = json.loads(capsys.readouterr().out)
    original = json.loads(open(triangulation_file).read())
    assert sorted(map(str, t["trees"])) == sorted(map(str, original["trees"]))


def test_staircase_and_enumerate(capsys):
    assert run(["staircase", "--n", "2", "--d", "3", "--right-order", "2,1,3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["trees"]) == 3
    assert run(["enumerate-triangulations", "--n", "2", "--d", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 6 and out["bound"] == 6


def test_flipgraph_with_dot(capsys, field_file, tmp_path):
    dot = tmp_path / "flip.dot"
    assert run(["flipgraph", field_file, "--dot", str(dot)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["edge_count"] == 8 == out["expected_for_linkage"]
    assert "color=" in dot.read_text()


def test_flipgraph_dot_of_a_square_field(capsys, tmp_path):
    # n = d: one matching and no flip; the field is linkage with no tau of
    # size d + 1, and the DOT file holds its one vertex
    src, dot = tmp_path / "field.json", tmp_path / "flip.dot"
    src.write_text('{"n":3,"d":3,"matchings":{"1,2,3":[[1,3],[2,1],[3,2]]}}')
    assert run(["flipgraph", str(src), "--dot", str(dot)]) == 0
    assert json.loads(capsys.readouterr().out)["edge_count"] == 0
    assert dot.read_text() == 'graph flips {\n  "231";\n}\n'


def test_stack_commands(capsys, tmp_path):
    t = staircase_triangulation(2, 2)
    stack = stack_from_trees(t.sorted_trees(), 2, 2)
    path = tmp_path / "stack.json"
    path.write_text(core.canonical_json(stack_to_json_dict(stack)))
    assert run(["ensemble-check", str(path)]) == 0
    capsys.readouterr()
    assert run(["complete", str(path)]) == 0
    field = json.loads(capsys.readouterr().out)
    assert field["n"] == 4 and field["d"] == 2


def test_missing_stack_pair_is_reported(capsys, tmp_path):
    path = tmp_path / "stack.json"
    path.write_text(json.dumps({"n": 2, "d": 2, "matchings": {}}))
    assert run(["ensemble-check", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report == {
        "closure": False,
        "left_linkage": False,
        "right_linkage": False,
        "support": False,
        "witness": "('support', (), ())",
    }


def test_stiefel_and_submatching(capsys, field_file):
    assert run(["stiefel", field_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["matroids"]) == 2
    assert run(["right-submatching-check", field_file]) == 0


def test_trianguloid_check_command(capsys, tmp_path, extended_24):
    from matchfield.fields import extended_to_json_dict

    path = tmp_path / "eta.json"
    path.write_text(core.canonical_json(extended_to_json_dict(extended_24)))
    assert run(["trianguloid-check", str(path)]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["T1"]["ok"] and report["T2"]["ok"] and report["T3"]["ok"]
    assert not report["T4"]["ok"]


def test_corrupted_phi_surfaces_inconsistency(capsys, tmp_path, field_63):
    # swapping two values of the (4,2) phi yields another realizable field,
    # so corrupt the wider fixture where the swap is genuinely inconsistent
    path = tmp_path / "field63.json"
    path.write_text(core.canonical_json(field_to_json_dict(field_63)))
    assert run(["phi", str(path), "--json", str(tmp_path / "phi.json")]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "phi.json").read_text())
    keys = sorted(data["phi"])
    a, b = keys[0], keys[5]
    data["phi"][a], data["phi"][b] = data["phi"][b], data["phi"][a]
    (tmp_path / "bad.json").write_text(core.canonical_json(data))
    assert run(["reconstruct-chow", "--phi", str(tmp_path / "bad.json")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InconsistentPhiError"


def test_failing_checks_exit_one(capsys, tmp_path, field_64):
    path = tmp_path / "wide.json"
    path.write_text(core.canonical_json(field_to_json_dict(field_64)))
    assert run(["right-submatching-check", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"] and "cycle" in report["witness"]


def test_byte_stability(capsys, field_file):
    outputs = []
    for _ in range(2):
        assert run(["chow", field_file, "--seed", "7"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert '"seed":7' in outputs[0]


@pytest.mark.parametrize(
    "data, fault",
    [
        ({"n": 2, "d": 2, "matchings": {"1,2": [[1.0, 1], [2, 2]]}}, "1.0"),
        ([{"n": 2, "d": 2, "matchings": {"1,2": [[1, 1], [2, 2]]}}], "JSON object"),
        ({"n": True, "d": 1, "matchings": {"1": [[1, 1]]}}, "true"),
    ],
    ids=["float-edge", "top-level-list", "bool-size"],
)
def test_malformed_input_is_a_usage_error(capsys, tmp_path, data, fault):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["check-linkage", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError" and fault in err["message"]


def test_field_with_more_columns_than_left_nodes(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 2, "d": 3, "matchings": {}}))
    assert run(["check-linkage", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "MatchfieldError",
        "message": "invalid type vector (1, 1, 1) for (2, 3): its sum 3 exceeds n = 2",
    }


@pytest.mark.parametrize("argv, code", [(["--help"], 0), ([], 2)], ids=["help", "no-arguments"])
def test_module_entry_point(argv, code):
    # python -m matchfield runs the command line from a source checkout
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "matchfield", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == code
    assert "usage: matchfield" in (done.stdout if code == 0 else done.stderr)


@pytest.mark.parametrize("command", ["arrangement", "flipgraph", "cells", "chow", "stiefel"])
def test_tope_field_where_a_matching_field_is_needed(capsys, tmp_path, tope_field_42, command):
    path = tmp_path / "tope.json"
    path.write_text(core.canonical_json(field_to_json_dict(tope_field_42)))
    assert run([command, str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "expected a matching field, not type (2, 1)"


@pytest.mark.parametrize(
    "data, extra",
    [
        (
            {
                "n": 3, "d": 2, "type": [2, 1],
                "matchings": {"1,2,3": [[1, 1], [2, 1], [3, 2]], "1,2": [[1, 1], [2, 2]]},
            },
            "(1, 2)",
        ),
        (
            {
                "n": 3, "d": 2,
                "matchings": {
                    "1,2": [[1, 1], [2, 2]], "1,3": [[1, 1], [3, 2]], "2,3": [[2, 1], [3, 2]],
                    "1,2,3": [[1, 1], [2, 1], [3, 2]],
                },
            },
            "(1, 2, 3)",
        ),
    ],
    ids=["tope-field", "matching-field"],
)
def test_field_with_an_extra_subset_is_refused(capsys, tmp_path, data, extra):
    # tope and matching fields share one validator, which refuses a key of
    # the wrong size instead of echoing it back
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(data))
    assert run(["amalgamate", str(path), "--target", "2,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "WrongSupportError",
        "message": f"value for {extra} has left support None",
    }


MALFORMED_TREES = {
    "trees-number": {"n": 2, "d": 2, "trees": 5},
    "tree-number": {"n": 2, "d": 2, "trees": [5]},
    "edge-string": {"n": 2, "d": 2, "trees": [[["1", 1], [2, 1], [2, 2]]]},
    "edge-triple": {"n": 2, "d": 2, "trees": [[[1, 1, 2], [2, 1], [2, 2]]]},
    "n-string": {"n": "2", "d": 2, "trees": [[[1, 1], [2, 1], [2, 2]]]},
}
TREE_COMMANDS = [
    ["validate-triangulation"],
    ["extract"],
    ["phi-triangulation"],
    ["roundtrip", "--kind", "triangulation"],
]


@pytest.mark.parametrize("fault", sorted(MALFORMED_TREES))
@pytest.mark.parametrize("command", TREE_COMMANDS, ids=lambda c: c[0])
def test_malformed_triangulation_is_a_usage_error(capsys, tmp_path, command, fault):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_TREES[fault]))
    assert run(command + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "data",
    [
        {"n": 2, "d": 2, "pairs": 3},
        {"n": 2, "d": 2, "pairs": [[1, 2]]},
        {"n": 2, "d": 2, "pairs": [[[0, 1]]]},
        {"n": 2, "d": "2", "pairs": []},
    ],
    ids=["pairs-number", "pair-of-numbers", "pair-of-one", "d-string"],
)
def test_malformed_pairs_are_a_usage_error(capsys, tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["reconstruct-triangulation", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ValueError"


@pytest.mark.parametrize("n, d", [(30, 30), (0, 3), (2, 0), (-1, 5), (0, 10**6)])
def test_pair_set_of_the_wrong_size_is_refused_before_any_work(capsys, tmp_path, n, d):
    # listing the lattice points of 29 * Delta_29 would not finish; an empty
    # side is refused as a pair set of the wrong size before any side cap
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": n, "d": d, "pairs": []}))
    assert run(["reconstruct-triangulation", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InconsistentPairsError"
    assert err["message"] == f"0 pairs do not fit a triangulation of size ({n}, {d})"


HUGE = 3_000_000


@pytest.mark.parametrize(
    "command, data, error, message",
    [
        (
            ["trianguloid-check"],
            {"n": HUGE, "d": HUGE, "graphs": {}},
            "SizeCapError",
            f"node counts ({HUGE}, {HUGE}) outside [0, 64]",
        ),
        (
            ["reconstruct-triangulation"],
            {"n": HUGE, "d": HUGE, "pairs": []},
            "SizeCapError",
            f"node counts ({HUGE}, {HUGE}) outside [0, 64]",
        ),
        (
            ["reconstruct-chow", "--phi"],
            {"n": HUGE, "d": HUGE, "phi": {}},
            "SizeCapError",
            f"node counts ({HUGE}, {HUGE}) outside [0, 64]",
        ),
        (
            ["validate-triangulation"],
            {"n": HUGE, "d": HUGE, "trees": []},
            "SizeCapError",
            f"node counts ({HUGE}, {HUGE}) outside [0, 64]",
        ),
        (
            ["complete"],
            {"n": 40, "d": 30, "matchings": {}},
            "SizeCapError",
            "node counts (70, 30) outside [0, 64]",
        ),
    ],
    ids=["extended", "pairs", "phi", "trees", "completed-stack"],
)
def test_huge_sides_are_refused_at_once(capsys, tmp_path, command, data, error, message):
    # the lattice-point and tree counts of these sides are binomials with
    # millions of digits; the sides are refused before either is computed,
    # and a stack whose completed field is over the cap before its subset walk
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    code, elapsed = cpu_timed(lambda: run(command + [str(path)]))
    assert code == 1
    assert elapsed < 0.05
    assert json.loads(capsys.readouterr().err) == {"error": error, "message": message}


@pytest.mark.parametrize(
    "command, data",
    [
        (["check-linkage"], {"n": 2, "d": 2, "matchings": []}),
        (["check-linkage"], {"n": 2, "d": 2, "matchings": {"1,2": 5}}),
        (["arrangement"], {"n": 2, "d": 2, "matchings": {"1,2": {}}}),
        (["amalgamate", "--target", "2,1"], {"n": 3, "d": 2, "matchings": {}, "type": "x"}),
        (["trianguloid-check"], {"n": 1, "d": 2, "graphs": []}),
        (["trianguloid-check"], {"n": 1, "d": 2, "graphs": {"1,0": [[1, "1"]], "0,1": [[1, 2]]}}),
        (["reconstruct-chow", "--phi"], {"n": 2, "d": 2, "phi": []}),
        (["reconstruct-chow", "--phi"], {"n": 2, "d": 2, "phi": {"1": [1, "x"], "2": [0, 1]}}),
        (["complete"], {"n": 1, "d": 1, "matchings": 5}),
        (["ensemble-check"], {"n": 1, "d": 1, "matchings": {"J:1|I:1": [None], "J:|I:": []}}),
    ],
    ids=[
        "field-list",
        "field-number",
        "field-edges-object",
        "tope-type-string",
        "extended-list",
        "extended-edge-string",
        "phi-list",
        "phi-vector-string",
        "stack-number",
        "stack-edge-null",
    ],
)
def test_malformed_table_is_a_usage_error(capsys, tmp_path, command, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(command + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ValueError"


def phi_respelled(key):
    """The phi object of a seeded coherent (6, 3) field with its key
    "1,2,3,4" spelled as key: the right entry count, one key at fault."""
    data = phi_to_json_dict(chow_collection(seeded_coherent_field(6, 3, 1)[0]).phi())
    data["phi"][key] = data["phi"].pop("1,2,3,4")
    return data


def subset_key_refusal(key):
    return f"subset key {key!r} must list positive integers in increasing order"


@pytest.mark.parametrize(
    "command, data, code, error, message",
    [
        (
            ["reconstruct-chow", "--phi"],
            {"n": 60, "d": 30, "phi": {}},
            1,
            "InconsistentPhiError",
            "phi keys must be the (n-d+1)-subsets",
        ),
        (
            ["trianguloid-check"],
            {"n": 60, "d": 30, "graphs": {}},
            1,
            "MatchfieldError",
            "extended arrangement must cover all lattice points",
        ),
        (
            ["reconstruct-chow", "--phi"],
            {"n": 3, "d": 5, "phi": {}},
            1,
            "InconsistentPhiError",
            "phi for (3, 5) needs 1 <= d <= n",
        ),
        (
            ["reconstruct-chow", "--phi"],
            {"n": 2, "d": 0, "phi": {}},
            1,
            "InconsistentPhiError",
            "phi for (2, 0) needs 1 <= d <= n",
        ),
        (
            ["reconstruct-chow", "--phi"],
            phi_respelled("1,2,3,99"),
            1,
            "InconsistentPhiError",
            "phi keys must be the (n-d+1)-subsets",
        ),
        (
            ["reconstruct-chow", "--phi"],
            phi_respelled("1,2,3"),
            1,
            "InconsistentPhiError",
            "phi keys must be the (n-d+1)-subsets",
        ),
        (
            ["reconstruct-chow", "--phi"],
            phi_respelled("2,1,3,4"),
            2,
            "ValueError",
            subset_key_refusal("2,1,3,4"),
        ),
        (
            ["reconstruct-chow", "--phi"],
            phi_respelled("0,1,2,3"),
            2,
            "ValueError",
            subset_key_refusal("0,1,2,3"),
        ),
    ],
    ids=["phi", "extended", "phi-d-above-n-plus-1", "phi-d-zero", "phi-member-above-n",
         "phi-key-of-another-size", "phi-key-unordered", "phi-member-zero"],
)
def test_wrong_entry_count_is_refused_before_any_work(
    capsys, tmp_path, command, data, code, error, message
):
    # C(60, 31) subsets and C(89, 29) lattice points would never be listed;
    # a phi whose d lies outside 1..n is refused by its size before its
    # (n-d+1)-subsets, which do not exist, are asked for; a phi key is read
    # by the shared subset reader, and a key at fault among the right
    # number of entries keeps the refusal of the key set or of its spelling
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert run(command + [str(path)]) == code
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": error, "message": message}


def square_stack_data():
    return stack_to_json_dict(stack_from_trees(staircase_triangulation(2, 2).sorted_trees(), 2, 2))


def assert_usage_error_naming(capsys, argv, key):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "ValueError" and repr(key) in err["message"]


@pytest.mark.parametrize(
    "respell",
    [
        lambda key: key.replace("J:", "XY").replace("I:", "ZW"),
        lambda key: key.replace("J:", "").replace("I:", ""),
        lambda key: key + "|I:1",
    ],
    ids=["wrong-prefixes", "unprefixed", "third-part"],
)
@pytest.mark.parametrize("command", ["ensemble-check", "complete"])
def test_stack_keys_must_read_j_and_i(capsys, tmp_path, command, respell):
    data = square_stack_data()
    data["matchings"] = {respell(k): v for k, v in data["matchings"].items()}
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(data))
    assert_usage_error_naming(capsys, [command, str(path)], next(iter(data["matchings"])))


@pytest.mark.parametrize("bad", ["2,1", "1,1", "0,1", "-1,2", "01,2", "1, 2", "+1,2", ""])
def test_field_subset_keys_have_one_spelling(capsys, tmp_path, field_42, bad):
    # a second spelling of a subset would otherwise win over the first by file order
    data = field_to_json_dict(field_42)
    data["matchings"][bad] = data["matchings"]["1,2"][::-1]
    path = tmp_path / "field.json"
    path.write_text(json.dumps(data))
    assert_usage_error_naming(capsys, ["check-linkage", str(path)], bad)


def test_extended_point_keys_have_one_spelling(capsys, tmp_path):
    # three entries for the two lattice points of 1 * Delta_1: "01,0" spells
    # (1, 0) a second time, and would otherwise win over "1,0" by file order
    data = {"n": 1, "d": 2, "graphs": {"1,0": [[1, 1]], "0,1": [[1, 2]], "01,0": [[1, 1]]}}
    path = tmp_path / "extended.json"
    path.write_text(json.dumps(data))
    assert_usage_error_naming(capsys, ["trianguloid-check", str(path)], "01,0")


@pytest.mark.parametrize("bad", [" 0,+2", "01,0", "\u0660,\u0662", "0, 2", "+0,2", "-0,2", "0,2,", ""])
def test_arrangement_point_keys_have_one_spelling(field_42, bad):
    # each of them spells (0, 2) to int(), or nothing at all
    data = arrangement_to_json_dict(tope_arrangement(field_42))
    data["topes"][bad] = data["topes"].pop("0,2")
    with pytest.raises(ValueError) as err:
        arrangement_from_json_dict(data)
    assert str(err.value) == f"point key {bad!r} must be integers in plain decimal, comma-joined"


def with_repeated_key(data):
    """The JSON text of data with one key written twice, the first time
    with a value that is not valid there: the first key of its table, or
    else its "n"."""
    name = next((k for k, v in data.items() if isinstance(v, dict)), None)
    if name is None:
        return '{"n": "x", ' + json.dumps(data)[1:], "n"
    table = data[name]
    key = next(iter(table))
    text = json.dumps({**data, name: "TABLE"})
    first = "{" + json.dumps(key) + ": [[1, 1], [1, 2]], " + json.dumps(table)[1:]
    return text.replace('"TABLE"', first), key


@pytest.mark.parametrize(
    "fmt", ["field", "tope-field", "extended", "phi", "triangulation", "pairs", "stack"]
)
def test_repeated_json_key_is_refused(capsys, tmp_path, fuzz_inputs, fmt):
    # json.loads alone would keep the last value of a repeated key, so the
    # first one would never be read
    data, commands = fuzz_inputs[fmt]
    text, key = with_repeated_key(data)
    path = tmp_path / "repeated.json"
    path.write_text(text)
    for command in commands:
        assert run(command + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError",
            "message": f"key {key!r} is repeated in one JSON object",
        }


def test_phi_subset_keys_have_one_spelling(capsys, tmp_path, field_42):
    data = phi_to_json_dict(chow_collection(field_42).phi())
    data["phi"]["4,2,1"] = data["phi"].pop("1,2,4")
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(data))
    assert_usage_error_naming(capsys, ["reconstruct-chow", "--phi", str(path)], "4,2,1")


@pytest.mark.parametrize(
    "key, bad", [("J:1,2|I:1,2", "J:2,1|I:1,2"), ("J:1,2|I:1,2", "J:1,2|I:2,1")], ids=["J", "I"]
)
def test_stack_subset_keys_have_one_spelling(capsys, tmp_path, key, bad):
    data = square_stack_data()
    data["matchings"][bad] = data["matchings"].pop(key)
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(data))
    assert_usage_error_naming(capsys, ["ensemble-check", str(path)], bad)


@pytest.mark.parametrize(
    "argv",
    [
        ["right-submatching-check", "FIELD", "--cap", "0"],
        ["amalgamate", "FIELD", "--type", "2,1"],
        ["amalgamate", "FIELD", "--target", "2,1", "--type", "2,1"],
    ],
    ids=["cap", "type", "type-beside-target"],
)
def test_removed_options_are_usage_errors(capsys, field_file, argv):
    assert run([field_file if a == "FIELD" else a for a in argv]) == 2
    assert capsys.readouterr().out == ""


def test_readme_lists_every_subcommand_and_option():
    # the command table and its header line against the parser, both ways
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    common = set(re.findall(r"--[a-z][a-z-]*", section.split("\n|", 1)[0]))
    documented = {}
    for cell in re.findall(r"^\| (.+?) \|", section, re.M):
        for usage in re.findall(r"`([^`]+)`", cell):
            documented[usage.split()[0]] = common | set(re.findall(r"--[a-z][a-z-]*", usage))
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actual = {
        name: {o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")}
        for name, p in subparsers.choices.items()
    }
    assert documented == actual


EMPTY_SIDES = [(0, 5), (3, 0), (-1, 2)]


@pytest.mark.parametrize(
    "command, routine, n, d",
    [pytest.param("staircase", "staircase", n, d, id=f"{n}-{d}") for n, d in EMPTY_SIDES]
    + [
        pytest.param(
            "enumerate-triangulations", "enumerate_triangulations", n, d, id=f"enumerate-{n}-{d}"
        )
        for n, d in EMPTY_SIDES
    ],
)
def test_staircase_with_an_empty_side_is_refused(capsys, command, routine, n, d):
    # refused by name before any count of trees is taken
    assert run([command, "--n", str(n), "--d", str(d)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "MatchfieldError",
        "message": f"{routine} ({n}, {d}) needs a node on each side",
    }


@pytest.mark.parametrize("side", ["99999999999999999999", "100000", "1000000"])
def test_enumeration_over_the_side_cap_is_refused_at_once(capsys, side):
    # the sides are capped before the binomial of the tree count, which
    # would overflow, print more than 4300 digits or run for minutes
    code, elapsed = cpu_timed(lambda: run(["enumerate-triangulations", "--n", side, "--d", side]))
    assert code == 1
    assert elapsed < 0.05
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "SizeCapError",
        "message": f"node counts ({side}, {side}) outside [0, 64]",
    }


def test_one_parser_serves_every_call(capsys, monkeypatch, field_file):
    # help, usage errors, failures and results print the same bytes on a
    # second call through the same parser, which is built once
    from matchfield import cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    calls = [
        ["--help"],
        ["chow", "--help"],
        ["frobnicate"],
        ["staircase", "--n", "x", "--d", "2"],
        ["staircase", "--n", "2"],
        ["chow", field_file, "--seed", "3"],
        ["staircase", "--n", "2", "--d", "3", "--right-order", "2,1,3"],
        ["check-linkage", "/nonexistent/field.json"],
    ]
    rounds = []
    for _ in range(2):
        results = []
        for argv in calls:
            code = run(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        rounds.append(results)
    assert rounds[0] == rounds[1]
    assert [code for code, _, _ in rounds[0]] == [0, 0, 2, 2, 2, 0, 0, 2]
    assert "usage: matchfield" in rounds[0][0][1]
    assert built == [1]


def test_staircase_over_the_cap_is_refused(capsys):
    assert run(["staircase", "--n", "30", "--d", "30"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "SizeCapError",
        "message": f"staircase (30, 30) has 30067266499541040 trees, "
        f"over the cap of {STAIRCASE_MAX_TREES}",
    }


# -- fuzzing the input boundary -----------------------------------------------

FIELD_COMMANDS = [
    ["check-linkage"],
    ["amalgamate", "--target", "2,1"],
    ["arrangement"],
    ["chow"],
    ["phi"],
    ["flipgraph"],
    ["cells"],
    ["stiefel"],
    ["right-submatching-check"],
    ["roundtrip", "--kind", "chow"],
]
DELETE = "<delete>"
REPLACEMENTS = [[], {}, "x", None, [1], -1, 0, 1, 2, 3, DELETE]


@pytest.fixture(scope="session")
def fuzz_inputs(field_42, tope_field_42, extended_24):
    """One small valid input per format and the subcommands that read it."""
    t32, t22 = staircase_triangulation(3, 2), staircase_triangulation(2, 2)
    return {
        "field": (field_to_json_dict(field_42), FIELD_COMMANDS),
        "tope-field": (field_to_json_dict(tope_field_42), FIELD_COMMANDS),
        "extended": (extended_to_json_dict(extended_24), [["trianguloid-check"]]),
        "phi": (phi_to_json_dict(chow_collection(field_42).phi()), [["reconstruct-chow", "--phi"]]),
        "triangulation": (triangulation_to_json_dict(t32), TREE_COMMANDS),
        "pairs": (pairs_to_json_dict(phi(t32), 3, 2), [["reconstruct-triangulation"]]),
        "stack": (
            stack_to_json_dict(stack_from_trees(t22.sorted_trees(), 2, 2)),
            [["ensemble-check"], ["complete"]],
        ),
        "arrangement": (arrangement_to_json_dict(tope_arrangement(field_42)), []),
    }


def node_paths(data, path=()):
    """The path to every node of a JSON value, the root first."""
    yield path
    if isinstance(data, dict):
        children = data.items()
    elif isinstance(data, list):
        children = enumerate(data)
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


def mutated(data, path, value):
    """A copy of data with the node at path replaced by value, or deleted."""
    if not path:
        return value
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "fmt", ["field", "tope-field", "extended", "phi", "triangulation", "pairs", "stack"]
)
@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(choice=st.data())
def test_mutated_input_never_escapes_the_cli(tmp_path, fuzz_inputs, fmt, choice):
    data, commands = fuzz_inputs[fmt]
    path = choice.draw(st.sampled_from(list(node_paths(data))), label="path")
    value = choice.draw(st.sampled_from(REPLACEMENTS if path else REPLACEMENTS[:-1]), label="value")
    source = tmp_path / "mutated.json"
    source.write_text(json.dumps(mutated(data, path, value)))
    for command in commands:
        code, out, err = run_quietly(command + [str(source)])
        assert code in (0, 1, 2)
        if code:
            assert isinstance(json.loads(err), dict)
        assert run_quietly(command + [str(source)])[1] == out


def read_outcome(read, data):
    """What a reader makes of data: a field as its class, type vector and
    mask table, a phi map or (n, d, mask table) as itself, or the type and
    message of its error."""
    try:
        got = read(data)
    except (MatchfieldError, KeyError, ValueError) as exc:  # what run maps to exit 1 or 2
        return type(exc), str(exc)
    if isinstance(got, (PhiMap, tuple)):
        return got
    return type(got), got.n, got.d, got.type_vector, got.mask_table


def sides_and_table(read):
    """A reader of a mask-table container as one giving (n, d, mask table)."""
    def table(data):
        got = read(data)
        return got.n, got.d, got.mask_table

    return table


READERS = {  # the reader of each format and its oracle
    "field": (field_from_json_dict, oracles.field_from_json_dict_by_graphs),
    "tope-field": (field_from_json_dict, oracles.field_from_json_dict_by_graphs),
    "phi": (phi_from_json_dict, oracles.phi_by_key),
    "extended": (sides_and_table(extended_from_json_dict), oracles.extended_by_graphs),
    "stack": (sides_and_table(stack_from_json_dict), oracles.stack_by_graphs),
    "arrangement": (sides_and_table(arrangement_from_json_dict), oracles.arrangement_by_graphs),
}


@pytest.mark.parametrize("fmt", list(READERS))
@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(choice=st.data())
def test_mutated_input_reads_as_the_graph_reader_does(fuzz_inputs, fmt, choice):
    # the mask reader and validator against the graph reader and the
    # subset-by-subset validator: the same table, or the same error
    data, _ = fuzz_inputs[fmt]
    # below the root: run refuses an input that is no JSON object before reading it
    path = choice.draw(st.sampled_from(list(node_paths(data))[1:]), label="path")
    data = mutated(data, path, choice.draw(st.sampled_from(REPLACEMENTS), label="value"))
    read, oracle = READERS[fmt]
    assert read_outcome(read, data) == read_outcome(oracle, data)


def reader_cases(field):
    """Malformed field objects, each built from the valid one."""
    good = field_to_json_dict(field)
    table = good["matchings"]
    yield {**good, "matchings": {**table, "1,2": [[1, 9], [2, "x"]]}}  # shape after range
    yield {**good, "matchings": {**table, "1,2": [[1, 9], [2, 2]]}}
    yield {"n": 100, "d": 2, "matchings": {"1,2": [[10**9, 1]]}}
    yield {"n": 100, "d": 2, "matchings": {"1,1000000000": [[1, 1]]}}
    yield {**good, "matchings": {**table, "1,1000000000": [[1, 1], [2, 2]]}}
    for n, d in [(100, 2), (10**9, 2), (-1, 2), (4, 0)]:
        yield {"n": n, "d": d, "matchings": {}}  # an empty table with bad n or d
    yield {**good, "matchings": {**table, "1,2,3": [[1, 1], [2, 2]]}}  # keys of the wrong size
    yield {**good, "matchings": {("1,2,3" if k == "1,2" else k): m for k, m in table.items()}}
    yield {**good, "matchings": {**table, "2,1": table["1,2"]}}
    yield {**good, "matchings": {**table, "1,2": [[1, 1], [2, 1]]}}
    yield {**good, "type": [1]}


def test_malformed_field_reads_as_the_graph_reader_does(field_42):
    for data in reader_cases(field_42):
        got = read_outcome(field_from_json_dict, data)
        assert got == read_outcome(oracles.field_from_json_dict_by_graphs, data)
        assert isinstance(got[0], type) and issubclass(got[0], Exception)


# -- the field's type decided while it parses ----------------------------------

EDGE_FAULTS = ["string", "one", "three", "object", "bool", "double", "row", "off-grid",
               "list-object", "tuple", "missing", "extra", "squeeze", "type"]


@st.composite
def mutated_edges(draw, data):
    """A copy of a field object with one edge list, entry or type turned
    toward a fallback of the accepting loop of ``core.edge_mask`` or of the
    verdict the reader draws from it."""
    data = copy.deepcopy(data)
    n, d, table = data["n"], data["d"], data["matchings"]
    key = draw(st.sampled_from(sorted(table)), label="key")
    edges = table[key]
    t = draw(st.integers(0, len(edges) - 1), label="edge")
    j, i = edges[t]
    fault = draw(st.sampled_from(EDGE_FAULTS), label="fault")
    if fault == "string":
        edges[t] = draw(st.sampled_from(["ab", f"{j}{i}"]))
    elif fault == "one":
        edges[t] = [j]
    elif fault == "three":
        edges[t] = [j, i, i]
    elif fault == "object":
        edges[t] = draw(st.sampled_from([{}, {"j": j, "i": i}, {str(j): j, "x": i}]))
    elif fault == "bool":
        edges[t] = draw(st.sampled_from([[True, i], [j, True], [j, False], [j, float(i)]]))
    elif fault == "double":
        edges.insert(t, [j, i])
    elif fault == "row":
        edges.insert(t, [j, i % d + 1])
    elif fault == "off-grid":
        edges[t] = draw(st.sampled_from([[0, i], [n + 1, i], [j, 0], [j, d + 1], [-1, 1], [65, 1]]))
        if draw(st.booleans()):  # a malformed edge after it is still a shape fault
            edges.insert(draw(st.integers(t + 1, len(edges))), draw(st.sampled_from(["x", [1], [1, "2"]])))
    elif fault == "list-object":
        table[key] = {str(s): e for s, e in enumerate(edges)}
    elif fault == "tuple":
        table[key] = tuple(map(tuple, edges)) if draw(st.booleans()) else tuple(edges)
    elif fault == "missing":
        del table[key]
    elif fault == "extra":
        table[draw(st.sampled_from([f"{key},{n + 1}", f"{n + 1}", key.rpartition(",")[0] or "1,2"]))] = edges
    elif fault == "squeeze":  # the key loses a member, whose edge moves to another row of it
        del table[key]
        rest = [e for e in edges if e != [j, i]]
        table[",".join(sorted({str(e[0]) for e in rest}, key=int))] = [[rest[0][0], i]] + rest
    else:
        data["type"] = draw(st.lists(st.integers(0, 3), min_size=max(d - 1, 1), max_size=d + 1))
    return data


@pytest.fixture(scope="session")
def parsed_fields(field_42, tope_field_42):
    """Valid field objects to mutate: the matching and tope fields on (4, 2)
    and a coherent matching field on (6, 3)."""
    coherent = seeded_coherent_field(6, 3, 1)[0]
    return [field_to_json_dict(f) for f in (field_42, tope_field_42, coherent)]


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(choice=st.data())
def test_field_read_decides_its_type_as_the_row_pass_does(parsed_fields, choice):
    # the same table, or the same error type and text, as the graph reader
    # and as the parent route: each edge list by the oracle loop, then the
    # row pass of field_from_masks; an accepted field's verdict is that pass's
    data = choice.draw(st.sampled_from(parsed_fields), label="field")
    data = choice.draw(mutated_edges(data), label="data")
    got = read_outcome(field_from_json_dict, data)
    assert got == read_outcome(oracles.field_from_json_dict_by_graphs, data)
    assert got == read_outcome(oracles.field_from_json_dict_by_rows, data)
    if not issubclass(got[0], Exception):
        field = field_from_json_dict(data)
        assert "holds_type" in vars(field)
        rows = fields.TopeField(field.n, field.d, field.type_vector, field.mask_table)
        assert field.holds_type == rows.holds_type


def edge_outcome(n, d, edges):
    """What an edge list reads as by ``core.edge_mask`` and by the oracle
    loop: each reader's mask or the type and text of its error."""
    outcomes = []
    for read in (lambda: core.edge_mask(n, d, edges)[0], lambda: oracles.edge_mask_by_shapes(n, d, edges)):
        try:
            outcomes.append(read())
        except (MatchfieldError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


JSON_EDGES = st.one_of(
    st.lists(st.integers(-1, 66), min_size=2, max_size=2),
    st.lists(st.integers(1, 4), min_size=2, max_size=2).map(tuple),
    st.lists(st.one_of(st.booleans(), st.integers(0, 3), st.just("1"), st.just(1.0)), max_size=3),
    st.sampled_from(["ab", "12", {}, {"1": 1, "2": 2}, None, 1]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([-1, 0, 1, 3, 4, 64, 65]),
    d=st.sampled_from([-1, 0, 1, 2, 4, 64, 65]),
    edges=st.one_of(
        st.lists(JSON_EDGES, max_size=6),
        st.lists(JSON_EDGES, max_size=6).map(tuple),
        st.sampled_from(["", "11", {}, {"1": [1, 1]}, None, 7]),
    ),
)
def test_edge_mask_reads_as_the_oracle_loop_does(n, d, edges):
    # the accepting loop and its refusal routine against one loop that tests
    # each edge's shape before its place: the same mask or the same error,
    # an off-grid edge before a malformed one included
    got, expected = edge_outcome(n, d, edges)
    assert got == expected
    if type(got) is int:
        assert core.edge_mask(n, d, edges)[1] == sum({1 << (e[0] - 1) for e in edges})


@pytest.mark.parametrize("n, d", [(10**9, 10**9), (3, 10**9)])
def test_empty_field_with_huge_sides_exits_1(capsys, tmp_path, n, d):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": n, "d": d, "matchings": {}}))
    assert run(["check-linkage", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "SizeCapError",
        "message": f"node counts ({n}, {d}) outside [0, 64]",
    }


@pytest.mark.parametrize(
    "command, data",
    [(["check-linkage"], {"n": 2, "d": 0, "matchings": {}}),
     (["trianguloid-check"], {"n": 2, "d": 0, "graphs": {}})],
    ids=["field", "extended"],
)
def test_empty_right_side_is_refused_by_name(capsys, tmp_path, command, data):
    # (2, 0) lies within the side cap, so the refusal names the empty side
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    assert run(command + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "MatchfieldError",
        "message": "node counts (2, 0) need n >= 0 and d >= 1",
    }


# -- subset keys through the codec ---------------------------------------------


def read_masks_by_key(data, name):
    """``core.read_masks`` with every key read by the per-key parser and
    every edge list by the oracle loop."""
    n, d, table = core.read_object(data, name)
    return n, d, {core.subset_bits(core.read_subset_key(k, 0), n): oracles.edge_mask_by_shapes(n, d, v)
                  for k, v in table.items()}


@st.composite
def mutated_keys(draw, table, n):
    """The table with one to three of its keys respelled, reordered, given a
    repeated member or a member out of range; a key that lands on another
    key's spelling takes its place."""
    keys = list(table)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(keys) - 1))
        members = keys[at].split(",")
        t = draw(st.integers(0, len(members) - 1))
        fault = draw(st.sampled_from(["respell", "reorder", "repeat", "range"]))
        if fault == "respell":
            members[t] = draw(st.sampled_from(["0{}", "+{}", " {}", "{} "])).format(members[t])
        elif fault == "reorder":
            members[t - 1], members[t] = members[t], members[t - 1]
        elif fault == "repeat":
            members[t] = members[t - 1]
        else:
            members[t] = str(draw(st.sampled_from([0, -1, n + 1, 64, 65, 10**9])))
        keys[at] = ",".join(members)
    return dict(zip(keys, table.values()))


@pytest.mark.parametrize("fmt", ["field", "tope-field", "phi"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(choice=st.data())
def test_codec_reads_keys_as_the_per_key_parser_does(fuzz_inputs, fmt, choice):
    # a key the codec holds reads as its parse; any other goes to the parser,
    # so the same table or the same refusal
    data, _ = fuzz_inputs[fmt]
    name = "phi" if fmt == "phi" else "matchings"
    data = {**data, name: choice.draw(mutated_keys(data[name], data["n"]), label="table")}
    if fmt == "phi":
        expected = read_outcome(oracles.phi_by_key, data)
        assert read_outcome(phi_from_json_dict, data) == expected
    else:
        expected = read_outcome(lambda data: read_masks_by_key(data, name), data)
        assert read_outcome(lambda data: core.read_masks(data, name), data) == expected
        expected = read_outcome(oracles.field_from_json_dict_by_graphs, data)
        assert read_outcome(field_from_json_dict, data) == expected


@pytest.mark.parametrize("k", [1, 2, 32, 63, 64])
def test_single_key_at_n_64_builds_no_large_codec(monkeypatch, k):
    # C(64, 32) subsets would never be listed; the codec serves a table only
    # when it is no larger than the table
    built = []
    codec = core.subset_codec
    monkeypatch.setattr(core, "subset_codec", lambda *args: built.append(codec(*args)) or built[-1])
    key = core.subset_key(range(1, k + 1))
    (table, phi), elapsed = cpu_timed(lambda: (
        core.read_masks({"n": 64, "d": 2, "t": {key: [[1, 1]]}}, "t"),
        phi_from_json_dict({"n": 64, "d": 2, "phi": {key: [1, 0]}})))
    assert table == (64, 2, {(1 << k) - 1: 1})
    assert phi.mapping == {(1 << k) - 1: (1, 0)}
    assert elapsed < 0.05
    assert len(built) == 2 and all(len(entries) <= 1 for entries in built)


# -- fuzzing the integer options -----------------------------------------------

OPTION_VALUES = [str(x) for x in [0, -1, 1, 2, 3, 4, 5, 6, 64, 65, 10**20, 10**40]] + ["", "1,1", "0"]


@st.composite
def integer_option_argv(draw, field_path):
    """An argv of staircase, enumerate-triangulations or amalgamate whose
    integer options are drawn from OPTION_VALUES; sides both within 1..64
    stay at most 6, or are both 64, which every command refuses at once."""
    value = st.sampled_from(OPTION_VALUES)
    command = draw(st.sampled_from(["staircase", "enumerate-triangulations", "amalgamate"]))
    if command == "amalgamate":
        argv = [command, field_path, "--target", draw(value)]
        if draw(st.booleans()):
            argv[-1] += "," + draw(value)
    else:
        n, d = draw(value), draw(value)
        sides = [int(x) for x in (n, d) if re.fullmatch(r"-?[0-9]+", x)]
        if len(sides) == 2 and all(1 <= x <= 64 for x in sides):
            assume(max(sides) <= 6 or min(sides) == 64)
        argv = [command, "--n", n, "--d", d]
        if command == "staircase":
            for option in ("--left-order", "--right-order"):
                if draw(st.booleans()):
                    argv += [option, draw(value)]
    if draw(st.booleans()):
        argv += ["--seed", draw(value)]
    return argv


def cpu_timed(call):
    """call()'s result and the CPU time of this process it took, with the
    collector paused: CPU time leaves out other processes' load, and a full
    collection of the whole test session's heap can alone take longer than
    a bound, charged to whichever call happens to trigger it."""
    gc.disable()
    try:
        start = time.process_time()
        result = call()
        return result, time.process_time() - start
    finally:
        gc.enable()


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(choice=st.data())
def test_integer_options_never_escape_the_cli(tmp_path, field_42, choice):
    path = tmp_path / "field.json"
    path.write_text(core.canonical_json(field_to_json_dict(field_42)))
    argv = choice.draw(integer_option_argv(str(path)), label="argv")
    (code, out, err), elapsed = cpu_timed(lambda: run_quietly(argv))
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 1:
        assert isinstance(json.loads(err), dict) and out == ""
    if code == 2:
        assert err.startswith("usage: matchfield") or isinstance(json.loads(err), dict)
    if code:
        assert elapsed < 0.05, (argv, elapsed)


# -- fuzzing the sides of JSON inputs -------------------------------------------

JSON_SIDE_FORMS = (  # every argv that reads a JSON input, with its empty table
    [(command, "matchings", {}) for command in FIELD_COMMANDS]
    + [(command, "trees", []) for command in TREE_COMMANDS]
    + [(["trianguloid-check"], "graphs", {}), (["reconstruct-chow", "--phi"], "phi", {}),
       (["reconstruct-triangulation"], "pairs", []),
       (["ensemble-check"], "matchings", {}), (["complete"], "matchings", {})]
)
BAD_SIDES = [(-1, 2), (2, -1), (3, 0), (0, 3), (0, 0), (65, 3), (3, 65), (10**6, 5 * 10**5),
             (2 * 10**7, 10**7), (10**20, 5 * 10**19), (10**40, 10**40)]


@pytest.mark.parametrize(
    "command, name, empty", JSON_SIDE_FORMS, ids=["-".join(c) for c, _, _ in JSON_SIDE_FORMS])
def test_json_sides_never_escape_the_cli(tmp_path, command, name, empty):
    # an empty table reads no edge list, so the sides are refused on their own
    path = tmp_path / "sides.json"
    for n, d in BAD_SIDES:
        path.write_text(json.dumps({"n": n, "d": d, name: empty}))
        (code, out, err), elapsed = cpu_timed(lambda: run_quietly(command + [str(path)]))
        assert code in (1, 2), (n, d, code)
        assert "Traceback" not in out + err and isinstance(json.loads(err), dict), (n, d)
        assert elapsed < 0.05, (n, d, elapsed)


# -- one output policy for every subcommand ------------------------------------


@pytest.fixture()
def inputs(tmp_path, field_42, field_43, field_64, trees_63, extended_24):
    """The path of one input file for each upper-case name in OUTPUT_CASES."""
    t32 = staircase_triangulation(3, 2)
    data = {
        "FIELD": field_to_json_dict(field_42),
        "NONLINKAGE": field_to_json_dict(field_43),
        "WIDE": field_to_json_dict(field_64),
        "EXTENDED": extended_to_json_dict(extended_tope_arrangement(t32)),
        "HEXAGON": extended_to_json_dict(extended_24),
        "PHI": phi_to_json_dict(chow_collection(field_42).phi()),
        "TREES": triangulation_to_json_dict(t32),
        "TOO-FEW-TREES": {"n": 6, "d": 3, "trees": [list(map(list, g.edges)) for g in trees_63]},
        "PAIRS": pairs_to_json_dict(phi(t32), 3, 2),
        "STACK": square_stack_data(),
        "EMPTY-STACK": {"n": 2, "d": 2, "matchings": {}},
    }
    paths = {}
    for name, value in data.items():
        path = tmp_path / f"{name}.json"
        path.write_text(core.canonical_json(value))
        paths[name] = str(path)
    return paths


# every subcommand on a passing input, and each verdict also on a failing one
OUTPUT_CASES = [
    (["check-linkage", "FIELD"], 0),
    (["check-linkage", "NONLINKAGE"], 1),
    (["amalgamate", "FIELD", "--target", "2,1"], 0),
    (["arrangement", "FIELD"], 0),
    (["trianguloid-check", "EXTENDED"], 0),
    (["trianguloid-check", "HEXAGON"], 1),
    (["chow", "FIELD"], 0),
    (["phi", "FIELD"], 0),
    (["reconstruct-chow", "--phi", "PHI"], 0),
    (["validate-triangulation", "TREES"], 0),
    (["validate-triangulation", "TOO-FEW-TREES"], 1),
    (["extract", "TREES"], 0),
    (["phi-triangulation", "TREES"], 0),
    (["reconstruct-triangulation", "PAIRS"], 0),
    (["staircase", "--n", "2", "--d", "3", "--right-order", "2,1,3"], 0),
    (["enumerate-triangulations", "--n", "2", "--d", "3"], 0),
    (["flipgraph", "FIELD"], 0),
    (["cells", "FIELD"], 0),
    (["complete", "STACK"], 0),
    (["ensemble-check", "STACK"], 0),
    (["ensemble-check", "EMPTY-STACK"], 1),
    (["stiefel", "FIELD"], 0),
    (["right-submatching-check", "FIELD"], 0),
    (["right-submatching-check", "WIDE"], 1),
    (["roundtrip", "--kind", "chow", "FIELD"], 0),
    (["roundtrip", "--kind", "triangulation", "TREES"], 0),
]


def test_output_cases_cover_every_subcommand():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv, _ in OUTPUT_CASES} == set(subparsers.choices)


@pytest.mark.parametrize("argv, code", OUTPUT_CASES, ids=[" ".join(a) for a, _ in OUTPUT_CASES])
def test_every_subcommand_follows_one_output_policy(tmp_path, inputs, argv, code):
    # --json moves the report off stdout unchanged, --seed adds one key, and
    # a failed verdict exits 1 with the same bytes on stderr
    argv = [inputs.get(a, a) for a in argv]
    target = tmp_path / "out.json"
    plain = run_quietly(argv)
    seeded = run_quietly(argv + ["--seed", "5"])
    to_file = run_quietly(argv + ["--seed", "5", "--json", str(target)])
    assert plain[0] == seeded[0] == to_file[0] == code
    assert to_file[1] == ""
    written = target.read_text()
    assert written == seeded[1]
    assert json.loads(written) == {**json.loads(plain[1]), "seed": 5}
    if code:
        assert to_file[2] == seeded[2] == written
        assert plain[2] == plain[1]
    else:
        assert to_file[2] == seeded[2] == plain[2] == ""


@pytest.mark.parametrize(
    "argv",
    [["staircase", "--n", "2", "--d", "2"], ["check-linkage", "NONLINKAGE"]],
    ids=["result", "failed-verdict"],
)
def test_unwritable_json_path_is_a_usage_error(tmp_path, inputs, argv):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_quietly([inputs.get(a, a) for a in argv] + ["--json", str(target)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"


# -- results written in place ---------------------------------------------------


def old_file_bytes(kind, inputs, new):
    """What OUT holds before a run: 64 KiB of another case's output, or one
    byte less than the new result, of other bytes."""
    if kind == "longer":
        other = run_quietly(["cells", inputs["FIELD"]])[1].encode()
        return (other * (65536 // len(other) + 1))[:65536]
    return b"#" * (len(new) - 1)


@pytest.mark.parametrize("kind", ["longer", "shorter"])
@pytest.mark.parametrize("argv, code", OUTPUT_CASES, ids=[" ".join(a) for a, _ in OUTPUT_CASES])
def test_json_over_an_existing_file_holds_exactly_the_result(tmp_path, inputs, argv, code, kind):
    argv = [inputs.get(a, a) for a in argv]
    plain = run_quietly(argv)
    target = tmp_path / "existing.json"
    target.write_bytes(old_file_bytes(kind, inputs, plain[1].encode()))
    assert run_quietly(argv + ["--json", str(target)]) == (code, "", plain[2])
    assert target.read_bytes() == plain[1].encode()


@pytest.mark.parametrize("kind", ["longer", "shorter"])
def test_dot_over_an_existing_file_holds_exactly_the_graph(tmp_path, inputs, kind):
    fresh, target = tmp_path / "fresh.dot", tmp_path / "existing.dot"
    assert run_quietly(["flipgraph", inputs["FIELD"], "--dot", str(fresh)])[0] == 0
    dot = fresh.read_bytes()
    target.write_bytes(old_file_bytes(kind, inputs, dot))
    assert run_quietly(["flipgraph", inputs["FIELD"], "--dot", str(target)])[0] == 0
    assert target.read_bytes() == dot


def test_json_to_dev_null_is_written_and_not_cut():
    assert run_quietly(["staircase", "--n", "2", "--d", "2", "--json", os.devnull]) == (0, "", "")


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_unwritable_out_reports_the_open_error_exactly(tmp_path, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    error = IsADirectoryError if where == "directory" else FileNotFoundError
    number = errno.EISDIR if where == "directory" else errno.ENOENT
    expected = core.canonical_json(
        {"error": error.__name__, "message": f"[Errno {number}] {os.strerror(number)}: {str(target)!r}"}
    )
    code, out, err = run_quietly(["staircase", "--n", "2", "--d", "2", "--json", str(target)])
    assert (code, out, err) == (2, "", expected)


@pytest.mark.parametrize("unwritable", ["--json", "--dot"])
@pytest.mark.parametrize("before", ["fresh", "existing"])
def test_an_unwritable_out_leaves_the_other_file_as_it_was(tmp_path, inputs, unwritable, before):
    # both files are opened before either is written: the one that opened
    # is left as it was, so a fresh path is left with no file at all
    work = tmp_path / "work"
    work.mkdir()
    missing, other = work / "missing" / "out", work / "other"
    if before == "existing":
        other.write_bytes(b"old bytes")
    paths = {"--json": other, "--dot": other, unwritable: missing}
    expected = core.canonical_json({
        "error": "FileNotFoundError",
        "message": f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(missing)!r}",
    })
    argv = ["flipgraph", inputs["FIELD"], "--dot", str(paths["--dot"]), "--json", str(paths["--json"])]
    assert run_quietly(argv) == (2, "", expected)
    assert list(work.iterdir()) == ([other] if before == "existing" else [])
    if before == "existing":
        assert other.read_bytes() == b"old bytes"


@pytest.mark.parametrize(
    "argv",
    [["staircase", "--n", "2", "--d", "2", "--json", ""], ["flipgraph", "FIELD", "--dot", ""]],
    ids=["json", "dot"],
)
def test_empty_out_is_a_usage_error(inputs, argv):
    code, out, err = run_quietly([inputs.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "FileNotFoundError"


_audit_logs = []  # one list per open recorded_opens_and_cuts block


def _audit(event, args):
    if _audit_logs and event in ("open", "os.truncate"):
        _audit_logs[-1].append((event, args))


sys.addaudithook(_audit)


@contextlib.contextmanager
def recorded_opens_and_cuts():
    """Record every open and every os.truncate / os.ftruncate the block makes,
    through whichever module: each raises an audit event with its flags or
    length."""
    _audit_logs.append([])
    try:
        yield _audit_logs[-1]
    finally:
        _audit_logs.pop()


@pytest.mark.parametrize("option", ["--json", "--dot"])
def test_result_write_never_truncates_to_zero(tmp_path, inputs, option):
    # truncating OUT to zero is costly on ext4, so OUT is opened without
    # O_TRUNC and cut once, at the result's length.  A file object's own
    # truncate() raises no audit event, so the writer cuts with os.ftruncate.
    argv = ["flipgraph", inputs["FIELD"]]
    fresh, target = tmp_path / "fresh", tmp_path / "existing"
    assert run_quietly(argv + [option, str(fresh)])[0] == 0
    target.write_bytes(b"#" * 65536)
    with recorded_opens_and_cuts() as events:
        assert run_quietly(argv + [option, str(target)])[0] == 0
    result = fresh.read_bytes()
    assert target.read_bytes() == result
    # opening a descriptor reports the mode's flags but applies none of them
    truncating = [args for event, args in events
                  if event == "open" and not isinstance(args[0], int) and args[2] & os.O_TRUNC]
    assert truncating == []
    assert [args[1] for event, args in events if event == "os.truncate"] == [len(result)]


# -- canonical stdout pinned across changes -------------------------------------

# Larger inputs beside OUTPUT_CASES: seeded coherent fields and a relabelled
# staircase at the benchmark's sizes.
PINNED_FIELDS = {"COHERENT-9-4": (9, 4, 94), "COHERENT-10-5": (10, 5, 105)}
PINNED_RUNS = [argv for argv, _ in OUTPUT_CASES] + [
    argv
    for name in PINNED_FIELDS
    for argv in (
        ["arrangement", name],
        ["cells", name],
        ["chow", name],
        ["phi", name],
        ["reconstruct-chow", "--phi", "PHI-" + name],
        ["roundtrip", "--kind", "chow", name],
    )
] + [["extract", "STAIRCASE-6-5"], ["roundtrip", "--kind", "triangulation", "STAIRCASE-6-5"]] + [
    [command, "COHERENT-10-4"] for command in ("arrangement", "flipgraph", "cells")
] + [["stiefel", name] for name in ("COHERENT-9-4", "COHERENT-10-5", "COHERENT-10-4")] + [
    [command, name] for name in ("SQUARE-2-2", "LINE-3-1") for command in ("arrangement", "cells")
]

# sha256 of the stdout of every run in PINNED_RUNS, recorded at a known-good
# revision: a change that alters canonical output for valid inputs fails here
STDOUT_SHA256 = {
    "check-linkage FIELD": "1a466de1a01dfa9c96c9154ff57e0be7f992b17a0e92f0b70c07b5e80465111a",
    "check-linkage NONLINKAGE": "c1a74af0b0701a5f0cc9d11dd1bb9cd5e3d04c2ab5c367b3355dc9c9922661e3",
    "amalgamate FIELD --target 2,1":
        "8a618bb5c08907d7c004ebb1122a54a3f3a439d1d07197ab2e34cbe06c1a2d79",
    "arrangement FIELD": "fdeae69185987c91f27349340bc0ec44f8f88b19b621d409941454e4d6972737",
    "trianguloid-check EXTENDED":
        "010e532115b1891963a6ed17707e818b7e3f4399b631d5a0747726a3896550ec",
    "trianguloid-check HEXAGON": "b4c0f006af075d8dbd414df530f599607226f162f1515890f5f11922456824ed",
    "chow FIELD": "da77c8cc61eb0d66354fac338665a187ba7ff87cf10a64a5dffe4d375ddfa7cc",
    "phi FIELD": "9bb647c4661a85f39201db4d4419dfff1f3c5212afda133c1b0f35bec5f54349",
    "reconstruct-chow --phi PHI":
        "da77c8cc61eb0d66354fac338665a187ba7ff87cf10a64a5dffe4d375ddfa7cc",
    "validate-triangulation TREES":
        "6afdd0ccd86b15757375ee14676c7df51f2ee6ab676d72f0787a8cc03eff7522",
    "validate-triangulation TOO-FEW-TREES":
        "3fef858eb5e0f863356690f50dd156591477adac3d229e66be640a6b825faa3e",
    "extract TREES": "61c9f59fa3b19e4acc9ac50507c73258f11f28bfd004b0768b4faa47c2c96596",
    "phi-triangulation TREES": "d819e100f4a29c676e0d103ec2c524dafd61d44c00cce95bf28b620849c9159c",
    "reconstruct-triangulation PAIRS":
        "e12ff29e359d240d0320a6d7f118f23848a578fbb6aa5bf5b5ffa3952b72d550",
    "staircase --n 2 --d 3 --right-order 2,1,3":
        "b85808b66dae52b006e6d693f3f3e81affe617c571a6a837021df046d3a250bc",
    "enumerate-triangulations --n 2 --d 3":
        "d1f4e59ef84eeb398c02c31706820da5d62722f566624ba35d6e74bf278f19a9",
    "flipgraph FIELD": "248db8a84e80dec0b4c7895e211a32c4674b491b072591bbc3e9c6ae827a442f",
    "cells FIELD": "ff8af4e90414587f4b0884cbf385502d8dd26f3adcd0ac5d27d0a19c112b6b8f",
    "complete STACK": "ac11e56e44ef1b185c68bd799baa5db29bbc092eae624d551131a7749aa6167b",
    "ensemble-check STACK": "b1a9808c65e2443070fbd47697f5ed3e115664151cc351b5e953a91f6f03e50d",
    "ensemble-check EMPTY-STACK":
        "0a69a4db5165b86c181267c0e353ebd93800deef4401efbdeb4b1cc9a625f178",
    "stiefel FIELD": "380a4aa0749ddfd23ace5477a2056af3e118ed062be2421149d04c7b46e16609",
    "right-submatching-check FIELD":
        "262e5582a4db6b5a2e0888e2f22e12f95a28f66852bde8d3a612f267d91340a8",
    "right-submatching-check WIDE":
        "aab5e113b61e6bfca8567205668f9921700ed936581cce467a1220faab3c91ac",
    "roundtrip --kind chow FIELD":
        "ea3c5c3b040893e22a810a765bd9d0ff4d644eb34689dd10b8c3431bb6cf7f35",
    "roundtrip --kind triangulation TREES":
        "791f7db196140e618af5a5dfc9b9cac00e1ed333fee4cbab91e78c6b978e495d",
    "arrangement COHERENT-9-4": "2f02a03464b2c1a13380b5d5b23f775772cf287592514c7d7fb201b36bd862cf",
    "cells COHERENT-9-4": "cb82bdc4adb95a741cdf106b62f5191f1cd36808817a48aa926959eac2f23df9",
    "chow COHERENT-9-4": "63953df892de6daf979c8be8e08f8918773b5f90ddcdb865315aad2c274f2f6e",
    "phi COHERENT-9-4": "4cb4d6e6a4d7cf6be0e32840067b642ac5104a91cd9b3fd0bec8e665dabe568c",
    "reconstruct-chow --phi PHI-COHERENT-9-4":
        "63953df892de6daf979c8be8e08f8918773b5f90ddcdb865315aad2c274f2f6e",
    "roundtrip --kind chow COHERENT-9-4":
        "ea3c5c3b040893e22a810a765bd9d0ff4d644eb34689dd10b8c3431bb6cf7f35",
    "arrangement COHERENT-10-5": "545de5edfac8d8adb3d1c2ff85da63b4e1d6908f8bdd79318f04b2c59293339b",
    "cells COHERENT-10-5": "4a67cce3616c0ba8847dae6bd07d5b7b58bb34e5e0cf3d1afa7da360f2d42376",
    "chow COHERENT-10-5": "309ec88ffa822410979f89dfa1625e765efacfa2976260613e07884d47e12417",
    "phi COHERENT-10-5": "833659dc09e85e073cf4691cf02eabdea4af994c1a85cfc801c29f9c991c5313",
    "reconstruct-chow --phi PHI-COHERENT-10-5":
        "309ec88ffa822410979f89dfa1625e765efacfa2976260613e07884d47e12417",
    "roundtrip --kind chow COHERENT-10-5":
        "ea3c5c3b040893e22a810a765bd9d0ff4d644eb34689dd10b8c3431bb6cf7f35",
    "extract STAIRCASE-6-5": "7a1bc0677bce3254ac9c44ba8d1c8d0edb0cf7bc04ff901d88b2f4b2ea402dfb",
    "roundtrip --kind triangulation STAIRCASE-6-5":
        "791f7db196140e618af5a5dfc9b9cac00e1ed333fee4cbab91e78c6b978e495d",
    # the field-pipeline steps on a (10,4) field, recorded before cells moved
    # to the containment pass and the writer took tuples
    "arrangement COHERENT-10-4": "98aef8c3884608b617ff67625dda7212a170b0647398ae0899b1693e133e84dd",
    "flipgraph COHERENT-10-4": "2726c31013c432c0b72e32c0da19e0bd33a44ef9002881f961de2dc3c0d127cf",
    "cells COHERENT-10-4": "76596ff96fefd990a1f55084b2fcb9f426dce4a0441d6d0aa8aa50f7ccbe2919",
    # recorded while the tope arrangement was still re-validated as built
    "stiefel COHERENT-9-4": "e695b4604f7c244e6f8d668b4fcc616739e47155b879a343041f446f9a66da08",
    "stiefel COHERENT-10-5": "c49ae8c15ef788105cd2434f14e6cbc008777be6964400b12cbfd6c1529fecab",
    "stiefel COHERENT-10-4": "5574aea1f933437590cd06a87ac8da40deeb5a477aa2638f0df3986e9881fb80",
    "arrangement SQUARE-2-2": "bf385cf4b7cf2f57c85bb40afb066b5b83e45aaf3dedeba9bb7f3b9677d1afef",
    "cells SQUARE-2-2": "1a4ca43085450843527d65216040e73256369a95f616608fd42d6a80fb8086cc",
    "arrangement LINE-3-1": "fe300201135e8e8c1039e1ec56d72e7491024a5c348545b9a06efc350c2876ad",
    "cells LINE-3-1": "4d9698b91da90e36d9c9ed257b8e6ab40b37c8e5ab972bb709ca4576ef874f15",
}


@pytest.fixture(scope="module")
def pinned_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("pinned")
    data = {}
    for name, (n, d, seed) in PINNED_FIELDS.items():
        field, _, _ = seeded_coherent_field(n, d, seed)
        data[name] = field_to_json_dict(field)
        data["PHI-" + name] = phi_to_json_dict(chow_collection(field).phi())
    data["COHERENT-10-4"] = field_to_json_dict(seeded_coherent_field(10, 4, 104)[0])
    # the edge sizes n = d and d = 1
    data["SQUARE-2-2"] = {"n": 2, "d": 2, "matchings": {"1,2": [[1, 2], [2, 1]]}}
    data["LINE-3-1"] = {"n": 3, "d": 1, "matchings": {str(j): [[j, 1]] for j in (1, 2, 3)}}
    t = staircase_triangulation(6, 5, [3, 6, 1, 5, 2, 4], [2, 5, 1, 4, 3])
    data["STAIRCASE-6-5"] = triangulation_to_json_dict(t)
    paths = {}
    for name, value in data.items():
        path = work / f"{name}.json"
        path.write_text(core.canonical_json(value))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("argv", PINNED_RUNS, ids=[" ".join(a) for a in PINNED_RUNS])
def test_stdout_matches_its_pinned_digest(inputs, pinned_inputs, argv):
    paths = {**inputs, **pinned_inputs}
    _, out, _ = run_quietly([paths.get(a, a) for a in argv])
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == STDOUT_SHA256.get(" ".join(argv)), f"{' '.join(argv)!r}: {digest!r},"


# -- where validation runs ------------------------------------------------------

# the tope arrangement and the Chow collection of a validated linkage field
# are held unchecked
FORWARD_NAMES = ("FIELD", "COHERENT-10-5", "COHERENT-10-4", "SQUARE-2-2", "LINE-3-1")
FORWARD_RUNS = [
    [command, name] for name in FORWARD_NAMES for command in ("arrangement", "cells", "stiefel")
]
CHOW_RUNS = [
    argv + [name]
    for name in FORWARD_NAMES
    for argv in (["phi"], ["chow"], ["roundtrip", "--kind", "chow"])
]


@pytest.fixture
def validations(monkeypatch):
    """The names of the arrangement and collection validators, one per call."""
    seen = []
    validate, covector_rdvs = fields.TopeArrangement.validate, chow._covector_rdvs
    monkeypatch.setattr(fields.TopeArrangement, "validate",
                        lambda ta: seen.append("validate") or validate(ta))
    monkeypatch.setattr(chow, "_covector_rdvs",
                        lambda *args: seen.append("_covector_rdvs") or covector_rdvs(*args))
    return seen


@pytest.mark.parametrize(
    "argv", FORWARD_RUNS + CHOW_RUNS, ids=[" ".join(a) for a in FORWARD_RUNS + CHOW_RUNS]
)
def test_a_valid_field_is_not_validated_again(inputs, pinned_inputs, validations, argv):
    paths = {**inputs, **pinned_inputs}
    assert run_quietly([paths.get(a, a) for a in argv])[0] == 0
    assert validations == []


def test_untrusted_routes_keep_their_validators(inputs, pinned_inputs, validations, monkeypatch):
    code, out, _ = run_quietly(["arrangement", pinned_inputs["COHERENT-10-5"]])
    assert code == 0 and validations == []
    ta = arrangement_from_json_dict(json.loads(out))
    assert validations == ["validate"]
    assert fields.TopeArrangement(ta.n, ta.d, ta.mask_table) == ta
    assert validations == ["validate"] * 2
    # an untrusted phi map is checked for its shape on entry and its rebuild
    # certified; the table the sector sweeps build is not validated again
    validate_bijective, certified = chow.PhiMap.validate_bijective, chow._certified
    monkeypatch.setattr(chow.PhiMap, "validate_bijective",
                        lambda phi: validations.append("validate_bijective") or validate_bijective(phi))
    monkeypatch.setattr(chow, "_certified",
                        lambda cc: validations.append("_certified") or certified(cc))
    assert run_quietly(["reconstruct-chow", "--phi", pinned_inputs["PHI-COHERENT-10-5"]])[0] == 0
    assert validations == ["validate"] * 2 + ["validate_bijective", "_certified"]
