"""The stdout of every triangulation subcommand on two (6,5) staircases, and
of validate-triangulation on one refusal of each kind, pinned by digest:
the tree sets travel through these commands as edge masks, and any change
of route must leave every byte and every witness as it was.  A witness is
JSON, its graphs written as edge lists (``core.canonical_json``)."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from matchfield import core
from matchfield.cli import run
from matchfield.triang import (
    pairs_to_json_dict,
    phi,
    staircase_triangulation,
    tree_count,
    triangulation_to_json_dict,
)

ORDERS = {"IDENTITY": (None, None), "ORDERED": ((3, 6, 1, 5, 2, 4), (2, 5, 3, 1, 4))}
COMMANDS = [
    ["phi-triangulation", "{}"],
    ["reconstruct-triangulation", "PAIRS-{}"],
    ["validate-triangulation", "{}"],
    ["extract", "{}"],
    ["roundtrip", "--kind", "triangulation", "{}"],
]
PINNED_RUNS = [([a.format(name) for a in argv], 0) for name in ORDERS for argv in COMMANDS] + [
    (["validate-triangulation", "DROPPED"], 1),
    (["validate-triangulation", "CUT"], 1),
    (["validate-triangulation", "FOREIGN"], 1),
]

# sha256 of stdout, recorded before the tree sets moved onto edge masks; the
# validate-triangulation digests again when its witness became JSON
STDOUT_SHA256 = {
    "phi-triangulation IDENTITY":
        "9ccd679819f3bb1cdb692a424fd9e0294d6379d7fd28c03fcefb9255573d410b",
    "reconstruct-triangulation PAIRS-IDENTITY":
        "cf76adfa74075b84794b17a1a3edef5bc48782490409e0808e43cc9506aa3c42",
    "validate-triangulation IDENTITY":
        "7f0736848f6347ac5143dd1a38dbd895879470dfec08e2f801bfe1ca75a9b630",
    "extract IDENTITY": "da5c147df0d4655e78bfe3e5ec8de85cadd82a8e3efb69048f24b29aff889b3a",
    "roundtrip --kind triangulation IDENTITY":
        "791f7db196140e618af5a5dfc9b9cac00e1ed333fee4cbab91e78c6b978e495d",
    "phi-triangulation ORDERED":
        "98b1b1005cc4008496ad2c44d3ea9f16a248e2f4f48ba29f13d0c10d6e6a6f84",
    "reconstruct-triangulation PAIRS-ORDERED":
        "7a3cb7cc097c71a6870a224ded1b0ef9eaa5c3caa21af35d4e4e1b39843eec21",
    "validate-triangulation ORDERED":
        "7f0736848f6347ac5143dd1a38dbd895879470dfec08e2f801bfe1ca75a9b630",
    "extract ORDERED": "3787b55a7796dea536d3ad08d840580e27b938f993520ffece5c0ec431d74a20",
    "roundtrip --kind triangulation ORDERED":
        "791f7db196140e618af5a5dfc9b9cac00e1ed333fee4cbab91e78c6b978e495d",
    "validate-triangulation DROPPED":
        "60d01d9d19f603b8a3a6a712615615f9f687857ab747fe06523e85ee302a3b2d",
    "validate-triangulation CUT":
        "f8ef9d0151b73dfe9d12d2bf9460aa7070e84c0dede176eebbed5dacc5b75641",
    "validate-triangulation FOREIGN":
        "4c7bc1c9cf4be6a760b633744d0ce203a185bb1f20d1e36ad23ca3cf79c94b67",
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Input files: both staircases and their pairs, and the ordered one
    with a tree dropped (count), a tree cut to a forest (spanning) and a
    tree replaced by one of the identity staircase (agreement)."""
    work = tmp_path_factory.mktemp("pinned-triang")
    data = {}
    for name, (left, right) in ORDERS.items():
        t = staircase_triangulation(6, 5, left, right)
        data[name] = triangulation_to_json_dict(t)
        data["PAIRS-" + name] = pairs_to_json_dict(phi(t), 6, 5)
    trees = data["ORDERED"]["trees"]
    data["DROPPED"] = {"n": 6, "d": 5, "trees": trees[:40] + trees[41:]}
    data["CUT"] = {"n": 6, "d": 5, "trees": trees[:40] + [trees[40][:-1]] + trees[41:]}
    foreign = next(t for t in data["IDENTITY"]["trees"] if t not in trees)
    data["FOREIGN"] = {"n": 6, "d": 5, "trees": trees[:40] + [foreign] + trees[41:]}
    out = {}
    for name, value in data.items():
        path = work / f"{name}.json"
        path.write_text(core.canonical_json(value))
        out[name] = str(path)
    return out


@pytest.mark.parametrize("argv, code", PINNED_RUNS, ids=[" ".join(a) for a, _ in PINNED_RUNS])
def test_triangulation_stdout_matches_its_pinned_digest(paths, argv, code):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert run([paths.get(a, a) for a in argv]) == code
    assert err.getvalue() == ("" if code == 0 else out.getvalue())
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == STDOUT_SHA256[" ".join(argv)], f"{' '.join(argv)!r}: {digest!r},"


@pytest.mark.parametrize("name, kind", [
    ("DROPPED", "count"), ("CUT", "spanning"), ("FOREIGN", "agreement")])
def test_a_refusal_witness_loads_back(paths, name, kind):
    # the witness, read back as JSON, re-confirms the fault: the count it
    # names, a tree that is no spanning tree, or two trees of the input
    # holding different matchings on the stated (J, I)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert run(["validate-triangulation", paths[name]]) == 1
    assert err.getvalue() == out.getvalue()
    report = json.loads(out.getvalue())
    assert report["violation"] == kind
    n, d, witness = 6, 5, report["witness"]
    trees = json.loads(Path(paths[name]).read_text())["trees"]
    if kind == "count":
        assert witness == [len(trees), tree_count(n, d)] and len(trees) != tree_count(n, d)
        return
    if kind == "spanning":
        (tree,) = witness
        assert tree in trees
        assert core.tree_tope(core.edge_mask(n, d, tree)[0], range(1, n + 1), d, 1) is None
    else:
        g, h, J, I = witness
        assert g in trees and h in trees
        key = (core.subset_mask(J), core.subset_mask(I))
        held = [core.agreed_masks([core.edge_mask(n, d, t)[0]], n, d)[0].get(key) for t in (g, h)]
        assert None not in held and held[0] != held[1]


@pytest.mark.parametrize("argv", [argv for argv, code in PINNED_RUNS if code == 0],
                         ids=[" ".join(a) for a, code in PINNED_RUNS if code == 0])
def test_a_valid_input_builds_no_graph(paths, monkeypatch, argv):
    # the tree sets stay edge masks from the reader to the writer; a graph
    # is built only for the witness of a refusal.  The spy wraps the two
    # ways to build one, which the class defines itself: patching the
    # inherited __new__ would leave one on the class after the undo, and
    # every later BipartiteGraph(n, d, edges) would raise TypeError
    built = []
    init, from_mask = core.BipartiteGraph.__init__, core.BipartiteGraph.from_mask.__func__

    def spy_init(self, *args):
        built.append(args)
        init(self, *args)

    def spy_from_mask(cls, *args):
        built.append(args)
        return from_mask(cls, *args)

    monkeypatch.setattr(core.BipartiteGraph, "__init__", spy_init)
    monkeypatch.setattr(core.BipartiteGraph, "from_mask", classmethod(spy_from_mask))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([paths.get(a, a) for a in argv]) == 0
    assert built == []
    # the spy sees the witness graphs of a refusal
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert run(["validate-triangulation", paths["FOREIGN"]]) == 1
    assert built
    monkeypatch.undo()
    assert "__new__" not in vars(core.BipartiteGraph)
    assert core.BipartiteGraph(1, 1, [(1, 1)]).mask == 1
