"""Command-line surface: exit codes, JSON reports, byte stability."""

import json

import pytest

from matchfield import core
from matchfield.cli import run
from matchfield.fields import field_to_json_dict
from matchfield.stacks import stack_to_json_dict, stack_from_trees
from matchfield.triang import staircase_triangulation, triangulation_to_json_dict




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


@pytest.mark.parametrize("command", ["arrangement", "flipgraph", "cells", "chow", "stiefel"])
def test_tope_field_where_a_matching_field_is_needed(capsys, tmp_path, tope_field_42, command):
    path = tmp_path / "tope.json"
    path.write_text(core.canonical_json(field_to_json_dict(tope_field_42)))
    assert run([command, str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["message"] == "expected a matching field, not type (2, 1)"


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


def test_pair_set_of_the_wrong_size_is_refused_before_any_work(capsys, tmp_path):
    # listing the lattice points of 29 * Delta_29 would not finish
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 30, "d": 30, "pairs": []}))
    assert run(["reconstruct-triangulation", str(path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InconsistentPairsError"
    assert err["message"] == "0 pairs do not fit a triangulation of size (30, 30)"
