"""The command line end to end, in process: the pipelines and refusals of a
console-script session, each run through ``cli.run`` on a fixed input.

The work files of the module live in one directory, so a pipeline reads
what the run before it wrote, as a shell session would: a (4,3) and a
(10,5) staircase field, the identity and a relabelled (8,8) staircase.
Every run asserts that its stderr holds no traceback.  The console script
itself, the installed entry point, is smoke-tested from a fresh install
outside the checkout in CI."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

from matchfield import core, fields, randgen, stacks, triang
from matchfield.cli import run
from matchfield.errors import MatchfieldError


def cli(*argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([str(a) for a in argv])
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("pipelines")


def made(work, name, *argv):
    """The work file `name`, written by one run of argv with --json that exits 0."""
    path = work / name
    if not path.exists():
        assert cli(*argv, "--json", path) == (0, "", "")
    return path


RELABELLED = ("--left-order", "3,8,1,6,2,7,4,5", "--right-order", "5,2,8,1,7,3,6,4")


@pytest.fixture(scope="module")
def staircase(work):
    return made(work, "staircase.json", "staircase", "--n", "4", "--d", "3")


@pytest.fixture(scope="module")
def field(work, staircase):
    return made(work, "field.json", "extract", staircase)


@pytest.fixture(scope="module")
def staircase88(work):
    return made(work, "staircase88.json", "staircase", "--n", "8", "--d", "8")


@pytest.fixture(scope="module")
def relabelled88(work):
    return made(work, "relabelled88.json", "staircase", "--n", "8", "--d", "8", *RELABELLED)


@pytest.fixture(scope="module")
def field105(work):
    staircase105 = made(work, "staircase105.json", "staircase", "--n", "10", "--d", "5")
    return made(work, "field105.json", "extract", staircase105)


def text_of(work, name, *argv, code=0):
    """The --json report of one run of argv that exits with code."""
    path = work / name
    assert cli(*argv, "--json", path)[0] == code
    return path.read_text()


# -- pipelines ----------------------------------------------------------------


@pytest.mark.parametrize("name", ["staircase", "staircase88", "relabelled88"])
def test_a_triangulation_comes_back_from_its_degree_pairs(work, request, name):
    # the (8,8) staircases put 3432 trees through the agreement pass and
    # back; in the relabelled one, levels reached by different labels share
    # their deletion steps
    trees = request.getfixturevalue(name)
    pairs = made(work, f"pairs-{name}.json", "phi-triangulation", trees)
    rebuilt = made(work, f"rebuilt-{name}.json", "reconstruct-triangulation", pairs)
    assert rebuilt.read_bytes() == trees.read_bytes()
    assert '"match":true' in text_of(work, f"roundtrip-{name}.json",
                                     "roundtrip", "--kind", "triangulation", trees)


@pytest.mark.parametrize("name", ["staircase", "staircase88"])
def test_a_staircase_is_a_valid_triangulation(work, request, name):
    trees = request.getfixturevalue(name)
    assert '"valid":true' in text_of(work, f"valid-{name}.json", "validate-triangulation", trees)


@pytest.mark.parametrize("name", ["field", "field105"])
def test_a_staircase_field_is_linkage_and_comes_back_from_phi(work, request, name):
    # the (10,5) field is linkage by the edge count, and its Chow round trip
    # does not certify its equal rebuild again
    path = request.getfixturevalue(name)
    assert '"linkage":true' in text_of(work, f"linkage-{name}.json", "check-linkage", path)
    assert '"match":true' in text_of(work, f"chow-{name}.json", "roundtrip", "--kind", "chow", path)
    phi = made(work, f"phi-{name}.json", "phi", path)
    rebuilt = made(work, f"rebuilt-chow-{name}.json", "reconstruct-chow", "--phi", phi)
    assert rebuilt.read_bytes() == made(work, f"covectors-{name}.json", "chow", path).read_bytes()


@pytest.mark.parametrize("name", ["field", "field105"])
def test_an_arrangement_reads_back_as_its_field(work, request, name):
    # the arrangement read back as a table of point keys gives the field
    path = request.getfixturevalue(name)
    arrangement = made(work, f"arrangement-{name}.json", "arrangement", path)
    ta = fields.arrangement_from_json_dict(json.loads(arrangement.read_text()))
    back = core.canonical_json(fields.field_to_json_dict(fields.field_from_arrangement(ta)))
    assert back == path.read_text()


@pytest.mark.parametrize("name", ["field", "field105"])
def test_the_stacks_kernels_pass_on_a_staircase_field(work, request, name):
    # transversal matroids of the maximal covectors, and compatible right
    # submatchings
    path = request.getfixturevalue(name)
    assert '"matroids":[{' in text_of(work, f"stiefel-{name}.json", "stiefel", path)
    assert '"ok":true' in text_of(work, f"submatching-{name}.json", "right-submatching-check", path)


def test_the_flip_graph_and_cells_of_the_small_field(work, field):
    dot = work / "flips.dot"
    assert cli("flipgraph", field, "--dot", dot)[0] == 0
    assert "color=" in dot.read_text()
    assert cli("cells", field)[0] == 0


def test_the_field_pipeline_counts_the_cells_and_flips(work, field105):
    # one cell per lattice point of 5 * Delta_4, C(9, 4) = 126, and
    # C(10, 6) * 5 = 1050 flips
    cells = json.loads(made(work, "cells105.json", "cells", field105).read_text())
    flips = json.loads(made(work, "flips105.json", "flipgraph", field105).read_text())
    assert len(cells["cells"]) == 126
    assert flips["edge_count"] == flips["expected_for_linkage"] == 1050


def test_the_stack_and_extended_arrangement_of_a_staircase(work, staircase):
    t = triang.triangulation_from_json_dict(json.loads(staircase.read_text()))
    stack, extended = work / "stack.json", work / "extended.json"
    stack.write_text(core.canonical_json(
        stacks.stack_to_json_dict(stacks.stack_from_trees(t.sorted_trees(), t.n, t.d))))
    extended.write_text(core.canonical_json(
        fields.extended_to_json_dict(triang.extended_tope_arrangement(t))))
    assert '"right_linkage":true' in text_of(work, "ensemble.json", "ensemble-check", stack)
    completion = made(work, "completion.json", "complete", stack)
    assert '"linkage":true' in text_of(work, "completion-linkage.json", "check-linkage", completion)
    assert cli("trianguloid-check", extended, "--json", work / "trianguloid.json")[0] == 0


def test_amalgamation_and_enumeration(work, field):
    amalgam = text_of(work, "amalgam.json", "amalgamate", field, "--target", "2,1,1")
    assert '"type":[2,1,1]' in amalgam
    enumerated = text_of(work, "enum.json", "enumerate-triangulations", "--n", "3", "--d", "3")
    assert '"count":108' in enumerated


def test_out_is_rewritten_in_place(work, field105):
    # a shorter result over a longer file is cut to its own length, and
    # /dev/null takes a result without a cut
    rewritten = work / "rewritten.json"
    assert cli("cells", field105, "--json", rewritten)[0] == 0
    assert cli("check-linkage", field105, "--json", rewritten)[0] == 0
    code, out, _ = cli("check-linkage", field105)
    assert code == 0 and rewritten.read_text() == out
    assert cli("staircase", "--n", "4", "--d", "3", "--json", "/dev/null") == (0, "", "")


def test_a_coherent_field_is_the_same_on_scaled_and_shifted_weights(work):
    # a seeded (9,4) matrix W and W/7 plus rational column shifts give the
    # same field, byte for byte, and the moved one survives the Chow round trip
    field, w, _ = randgen.seeded_coherent_field(9, 4, 42)
    moved = [[x / 7 + Fraction(i - 2, 3) for i, x in enumerate(row)] for row in w]
    texts = [core.canonical_json(fields.field_to_json_dict(f))
             for f in (field, fields.coherent_field(moved))]
    assert texts[0] == texts[1]
    path = work / "coherent-moved.json"
    path.write_text(texts[1])
    roundtrip = text_of(work, "coherent-chow.json", "roundtrip", "--kind", "chow", path)
    assert '"match":true' in roundtrip


def test_a_nan_weight_is_named_by_its_place():
    with pytest.raises(MatchfieldError) as info:
        fields.coherent_field([[0, 1], [float("nan"), 2]])
    assert type(info.value) is MatchfieldError and "row 2, column 1" in str(info.value)


# -- refusals -------------------------------------------------------------------


FIELD43 = ('{"n":4,"d":3,"matchings":{"1,2,3":[[1,1],[2,2],[3,3]],"1,2,4":[[1,1],[2,2],[4,3]],'
           '"1,3,4":[[4,1],[1,2],[3,3]],"2,3,4":[[2,1],[3,2],[4,3]]}}')
FIELD64 = (
    '{"d":4,"matchings":{"1,2,3,4":[[1,1],[2,2],[3,3],[4,4]],"1,2,3,5":[[1,1],[2,2],[3,3],[5,4]],'
    '"1,2,3,6":[[1,1],[2,2],[3,3],[6,4]],"1,2,4,5":[[1,1],[2,2],[4,4],[5,3]],'
    '"1,2,4,6":[[1,1],[2,2],[4,4],[6,3]],"1,2,5,6":[[1,1],[2,2],[5,3],[6,4]],'
    '"1,3,4,5":[[1,1],[3,3],[4,4],[5,2]],"1,3,4,6":[[1,1],[3,3],[4,4],[6,2]],'
    '"1,3,5,6":[[1,1],[3,3],[5,4],[6,2]],"1,4,5,6":[[1,1],[4,4],[5,2],[6,3]],'
    '"2,3,4,5":[[2,2],[3,3],[4,4],[5,1]],"2,3,4,6":[[2,2],[3,3],[4,4],[6,1]],'
    '"2,3,5,6":[[2,2],[3,3],[5,1],[6,4]],"2,4,5,6":[[2,2],[4,4],[5,3],[6,1]],'
    '"3,4,5,6":[[3,3],[4,4],[5,1],[6,2]]},"n":6}')
NOT_A_PERFECT_MATCHING = "value for (1, 2) is not a perfect matching"

# argv before the input, the input as written, the exit code, and what stderr holds
REFUSALS = {
    # phi sides over the cap are refused before the binomial of the key count
    "phi-huge": (["reconstruct-chow", "--phi"], '{"n":20000000,"d":10000000,"phi":{}}', 1,
                 ['"error":"SizeCapError"']),
    "phi-huger": (["reconstruct-chow", "--phi"],
                  '{"n":100000000000000000000,"d":50000000000000000000,"phi":{}}', 1,
                  ['"error":"SizeCapError"']),
    # a phi key with a member above n is read by the shared subset reader
    # and refused with the key set
    "phi-beyond": (["reconstruct-chow", "--phi"],
                   '{"n":4,"d":3,"phi":{"1,2":[0,0,2],"1,3":[1,0,1],"1,4":[0,1,1],"2,3":[1,1,0],'
                   '"2,4":[0,2,0],"3,9":[2,0,0]}}', 1, ['"error":"InconsistentPhiError"']),
    # a (4,3) phi map with the values at (2,4) and (3,4) swapped passes the
    # sweeps, whose rdvs then do not biject onto the lattice points
    "swapped-phi43": (["reconstruct-chow", "--phi"],
                      '{"n":4,"d":3,"phi":{"1,2":[0,0,2],"1,3":[1,0,1],"1,4":[0,1,1],"2,3":[1,1,0],'
                      '"2,4":[2,0,0],"3,4":[0,2,0]}}', 1,
                      ['"error":"InconsistentPhiError"', "do not biject onto the lattice points"]),
    # a (3,3) pair set of the right shape whose first deletion admits one
    # rdv to two sectors
    "two-sectors": (["reconstruct-triangulation"],
                    '{"n":3,"d":3,"pairs":[[[0,0,2],[0,2,0]],[[0,1,1],[1,0,1]],[[0,2,0],[2,0,0]],'
                    '[[1,0,1],[0,0,2]],[[1,1,0],[1,1,0]],[[2,0,0],[0,1,1]]]}', 1,
                    ['"error":"InconsistentPairsError"']),
    # the (6,4) field of the test fixtures: its submatchings on
    # ((5, 6), (1, 2, 3)) close a cycle
    "submatching64": (["right-submatching-check"], FIELD64, 1,
                      ['[[5,6],[1,2,3],"cycle",[[6,1],[5,1],[5,2],[6,2]]]']),
    # a (4,3) field of pairwise compatible matchings that is not linkage
    "linkage43": (["check-linkage"], FIELD43, 1,
                  ['"tau":[1,2,3,4]', '"cycle":[[2,1],[1,1],[1,2],[2,2]]']),
    "chow43": (["chow"], FIELD43, 1,
               ['"error":"NotLinkageError"',
                '"witness":{"cycle":[[2,1],[1,1],[1,2],[2,2]],"tau":[1,2,3,4]}']),
    # an edge off the grid exits 1, and a malformed edge anywhere in the
    # same list beats it with exit 2
    "off-grid": (["chow"], '{"n":2,"d":2,"matchings":{"1,2":[[1,9],[2,2]]}}', 1,
                 ['"error":"MatchfieldError"']),
    "not-a-pair": (["chow"], '{"n":2,"d":2,"matchings":{"1,2":[[1,9],[1,"x"]]}}', 2,
                   ['"error":"ValueError"']),
    # a subset key the codec does not hold goes to the per-key parser, which
    # refuses a second spelling by name
    "respelled-field": (["check-linkage"], FIELD43.replace('"1,2,3"', '"01,2,3"', 1), 2,
                        ['"error":"ValueError"']),
    # the reader decides the type while it parses: two edges in one row and
    # a doubled edge are no perfect matching, an off-grid edge before a
    # 3-list and an edge list given as an object are shape faults
    "one-row": (["check-linkage"], '{"n":2,"d":2,"matchings":{"1,2":[[1,1],[1,2]]}}', 1,
                ['"error":"NotAMatchingError"', NOT_A_PERFECT_MATCHING]),
    "doubled": (["check-linkage"], '{"n":2,"d":2,"matchings":{"1,2":[[1,1],[1,1]]}}', 1,
                ['"error":"NotAMatchingError"', NOT_A_PERFECT_MATCHING]),
    "off-grid-then-triple": (["check-linkage"], '{"n":2,"d":2,"matchings":{"1,2":[[1,9],[2,2,2]]}}',
                             2, ['"error":"ValueError"']),
    "edges-object": (["check-linkage"], '{"n":2,"d":2,"matchings":{"1,2":{"1":1}}}', 2,
                     ['"error":"ValueError"']),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_a_refused_input_exits_with_its_error(tmp_path, name):
    argv, text, code, held = REFUSALS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(text + "\n")
    got, _, err = cli(*argv, path)
    assert got == code
    for part in held:
        assert part in err


def test_a_respelled_phi_key_is_a_usage_error(work, field):
    # "01,2" in a phi map, as "01,2,3" in a field above
    phi = made(work, "phi-field.json", "phi", field)
    respelled = work / "respelled-phi.json"
    respelled.write_text(phi.read_text().replace('"1,2"', '"01,2"', 1))
    code, _, err = cli("reconstruct-chow", "--phi", respelled)
    assert code == 2 and '"error":"ValueError"' in err


def test_a_staircase_with_a_foreign_tree_is_refused(work, staircase88):
    # the (8,8) staircase with its first tree replaced by the first tree it
    # lacks of the staircase with l1 and l2 swapped: an agreement refusal,
    # at about the cost of the acceptance above
    swapped = made(work, "swapped88.json", "staircase", "--n", "8", "--d", "8",
                   "--left-order", "2,1,3,4,5,6,7,8")
    a, b = (json.loads(p.read_text()) for p in (staircase88, swapped))
    a["trees"][0] = next(t for t in b["trees"] if t not in a["trees"])
    refused = work / "refused88.json"
    refused.write_text(json.dumps(a))
    report = text_of(work, "refused88.out", "validate-triangulation", refused, code=1)
    assert '"violation":"agreement"' in report


def test_an_arrangement_or_phi_map_with_two_values_swapped_is_refused(work, field105):
    # the forward maps trust what they build, the untrusted routes keep
    # their validators: an arrangement with two topes swapped is refused on
    # reading, and a phi map with two values swapped by the rebuild
    data = json.loads(made(work, "arrangement-field105.json", "arrangement", field105).read_text())
    t = data["topes"]
    a, b = sorted(t)[:2]
    t[a], t[b] = t[b], t[a]
    with pytest.raises(MatchfieldError):
        fields.arrangement_from_json_dict(data)
    data = json.loads(made(work, "phi-field105.json", "phi", field105).read_text())
    p = data["phi"]
    a, b = sorted(p)[:2]
    p[a], p[b] = p[b], p[a]
    swapped = work / "swapped-phi105.json"
    swapped.write_text(json.dumps(data))
    code, _, err = cli("reconstruct-chow", "--phi", swapped)
    assert code == 1 and '"error":"InconsistentPhiError"' in err
