"""Every witness a report or an error writes is JSON that loads back into
the library and re-confirms its fault: a linkage cycle is a cycle inside the
covector of its tau, a submatching cycle lies in the union on its (J, I),
and a tied minimum holds two different matchings of one weight.  A refused
tree set's error holds two trees with different matchings on one (J, I); the
reports of ``validate-triangulation`` are loaded back in
``test_triang_pinned.py``."""

import contextlib
import io
import json
from itertools import combinations

import pytest

from matchfield import core, fields, triang
from matchfield.cli import run
from matchfield.errors import TiedMinimumError


def run_json(argv):
    """Exit code, the stdout report and the stderr report of one CLI run,
    each read back as JSON (None when empty)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert "Traceback" not in err.getvalue()
    return code, *(json.loads(s.getvalue()) if s.getvalue() else None for s in (out, err))


def write(tmp_path, name, data):
    path = tmp_path / f"{name}.json"
    path.write_text(core.canonical_json(data))
    return str(path)


def assert_a_cycle(edges, n, d):
    """The edge list is one cycle: distinct edges, each node met twice, and
    ``core.find_cycle`` finds one on its mask."""
    mask = core.edge_mask(n, d, edges)[0]
    assert mask.bit_count() == len(edges) >= 4
    for side in (0, 1):
        ends = [e[side] for e in edges]
        assert all(ends.count(x) == 2 for x in ends)
    assert core.find_cycle(mask, n, d)
    return mask


def assert_a_linkage_cycle(field, tau, cycle):
    covector = 0
    for sigma in combinations(tau, field.thickness):
        covector |= field.mask_table[core.subset_mask(sigma)]
    mask = assert_a_cycle(cycle, field.n, field.d)
    assert mask & ~covector == 0


def test_a_linkage_failure_loads_back(tmp_path, field_43):
    # the report of check-linkage and the stderr witness of chow name a tau
    # whose covector holds a cycle
    path = write(tmp_path, "field43", fields.field_to_json_dict(field_43))
    code, report, err = run_json(["check-linkage", path])
    assert code == 1 and err == report and not report["linkage"]
    for failure in report["failures"]:
        assert_a_linkage_cycle(field_43, failure["tau"], failure["cycle"])
    code, out, err = run_json(["chow", path])
    assert code == 1 and out is None and err["error"] == "NotLinkageError"
    assert set(err["witness"]) == {"tau", "cycle"}
    assert_a_linkage_cycle(field_43, err["witness"]["tau"], err["witness"]["cycle"])
    assert err["witness"] == report["failures"][0]


def test_a_submatching_cycle_loads_back(tmp_path, field_64):
    path = write(tmp_path, "field64", fields.field_to_json_dict(field_64))
    code, report, err = run_json(["right-submatching-check", path])
    assert code == 1 and err == report and not report["ok"]
    J, I, kind, cycle = report["witness"]
    assert kind == "cycle"
    # the union of the field matchings' submatchings on J and each |J|-subset of I
    n, d, union = field_64.n, field_64.d, 0
    for m in field_64.mask_table.values():
        for I_sub in combinations(I, len(J)):
            sub = [(j, i) for j, i in core.edge_lists(n, d, [m])[0] if j in J and i in I_sub]
            if len(sub) == len(J) and {i for _, i in sub} == set(I_sub):
                union |= core.edge_mask(n, d, sub)[0]
    assert assert_a_cycle(cycle, n, d) & ~union == 0


@pytest.mark.parametrize(
    "argv", [["extract"], ["phi-triangulation"], ["roundtrip", "--kind", "triangulation"]],
    ids=lambda argv: argv[0])
def test_a_refused_tree_set_loads_back(tmp_path, argv):
    # the (3,3) staircase with its first tree replaced by the first tree it
    # lacks of the staircase with l1 and l2 swapped: each tree read refuses
    # it, and the two trees of the witness hold different matchings on (J, I)
    trees = [triang.staircase_triangulation(3, 3, order).masks for order in (None, (2, 1, 3))]
    masks = [next(m for m in trees[1] if m not in trees[0]), *trees[0][1:]]
    data = {"n": 3, "d": 3, "trees": core.edge_lists(3, 3, masks)}
    code, out, err = run_json(argv + [write(tmp_path, "refused", data)])
    assert code == 1 and out is None
    assert err["error"] == "NotATriangulationError"
    assert err["message"] == "not a triangulation: agreement"
    assert err["witness"]["kind"] == "agreement"
    g, h, J, I = err["witness"]["witness"]
    key = (core.subset_mask(J), core.subset_mask(I))
    held = [core.agreed_masks([core.edge_mask(3, 3, t)[0]], 3, 3)[0][key] for t in (g, h)]
    assert held[0] != held[1]
    assert core.edge_mask(3, 3, g)[0] in masks and core.edge_mask(3, 3, h)[0] in masks


def test_a_tied_minimum_loads_back(tmp_path, monkeypatch):
    # cli.run writes the error's attributes as its witness: the two
    # matchings of the tie differ and weigh the same
    weights = [[1, 2], [3, 4]]  # 1 + 4 = 2 + 3
    with pytest.raises(TiedMinimumError) as info:
        fields.coherent_field(weights)

    def tied(_):
        raise info.value

    monkeypatch.setattr(fields, "field_from_json_dict", tied)
    code, out, err = run_json(["check-linkage", write(tmp_path, "any", {})])
    assert code == 1 and out is None and err["error"] == "TiedMinimumError"
    witness = err["witness"]
    assert set(witness) == {"sigma", "first", "second"}
    first, second = witness["first"], witness["second"]
    assert first != second
    for matching in (first, second):
        assert sorted(j for j, _ in matching) == witness["sigma"]
        assert sorted(i for _, i in matching) == [1, 2]
    weight = [sum(weights[j - 1][i - 1] for j, i in m) for m in (first, second)]
    assert weight[0] == weight[1]


def test_the_encoder_writes_graphs_and_sets_and_nothing_else():
    g = core.BipartiteGraph(2, 2, [(2, 1), (1, 2)])
    assert core.canonical_json({"g": g, "s": frozenset({3, 1}), "t": {2, 0}}) == (
        '{"g":[[1,2],[2,1]],"s":[1,3],"t":[0,2]}\n')
    for unknown in (object(), 1j, b"x"):
        with pytest.raises(TypeError):
            core.canonical_json({"x": unknown})
