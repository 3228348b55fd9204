"""Seeded inputs and checked CLI pipelines for the benchmark workloads.

`build(name, seed, work, scale)` generates the inputs of one workload from its
seed, writes them as canonical JSON under `work`, and returns the pipelines
that run on them.  A pipeline is a list of `Step`s: one `matchfield.cli.run`
argument vector, the exit code the call must give, and a check of its output
that raises `CheckFailed` when the output is wrong.  The program only ever
sees the JSON files.

The checks are independent of the code under test where the paper allows:
lattice points, tree counts and flip-edge counts are recomputed here, and
round trips are compared byte for byte.  Matchfield modules are imported
inside the functions, so a re-import between set-ups is always picked up.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("field-pipeline", "chow-roundtrip", "triangulation-roundtrip", "desk-mix")

# (n, d) sizes per workload; "small" is the smoke scale used by the tests and
# by the reference pass of a traced run.
SIZES = {
    "field-pipeline": {"full": [(8, 4), (9, 4), (8, 5), (10, 4)], "small": [(4, 2)]},
    "chow-roundtrip": {"full": [(9, 4), (10, 4), (9, 5), (10, 5)], "small": [(4, 2)]},
    "triangulation-roundtrip": {
        "full": [(5, 4), (5, 5), (6, 4), (6, 5)],
        "small": [(3, 2)],
    },
    "desk-mix": {"full": [(4, 2), (5, 2), (5, 3), (6, 3)], "small": [(4, 2)]},
}
DESK_STACKS = {"full": [(2, 2), (3, 2), (2, 3)], "small": [(2, 2)]}
# Distinct seeded inputs per size at the full scale (one at the smoke
# scale): more inputs per run make the figures depend less on the inputs a
# seed happens to draw.  The work of a coherent field in the amalgamation
# chain varies most from seed to seed, and those fields are cheap to make.
COPIES = {"field-pipeline": 4, "chow-roundtrip": 2, "triangulation-roundtrip": 2}

# Fixture data shared with the test suite, copied so that the benchmark's
# inputs do not change when the tests do.  Matchings are words: position i
# holds the left node matched to ri.
FIELD_42_WORDS = {
    (1, 2): "12", (1, 3): "13", (1, 4): "14",
    (2, 3): "23", (2, 4): "42", (3, 4): "43",
}
# pairwise compatible but not linkage
FIELD_43_WORDS = {(1, 2, 3): "123", (1, 2, 4): "124", (1, 3, 4): "413", (2, 3, 4): "234"}
FIELD_53_WORDS = ["321", "142", "521", "341", "351", "541", "342", "523", "542", "543"]
# interior trees of a non-regular subdivision: a (6,3) linkage field
INTERIOR_TREES_63 = [
    [(1, 1), (2, 1), (1, 3), (2, 2), (4, 2), (3, 3), (5, 3), (6, 3)],
    [(1, 1), (2, 1), (3, 1), (2, 2), (4, 2), (3, 3), (5, 3), (6, 3)],
    [(1, 1), (6, 2), (3, 1), (2, 2), (4, 2), (3, 3), (5, 3), (6, 3)],
    [(1, 1), (2, 1), (4, 2), (6, 2), (3, 1), (4, 1), (5, 3), (6, 3)],
    [(1, 1), (2, 1), (3, 1), (2, 2), (4, 2), (6, 2), (5, 3), (6, 3)],
    [(1, 1), (2, 2), (3, 1), (5, 2), (4, 2), (3, 3), (5, 3), (6, 2)],
]
# linkage covectors of a (6,4) field that fails the right submatching check
COVECTOR_TREES_64 = [
    [(1, 1), (2, 2), (3, 3), (4, 4), (5, 1), (5, 2), (5, 3), (5, 4)],
    [(1, 1), (2, 2), (3, 3), (4, 4), (6, 1), (6, 2), (6, 3), (6, 4)],
    [(1, 1), (2, 2), (3, 3), (5, 4), (5, 1), (6, 2), (5, 3), (6, 4)],
    [(1, 1), (2, 2), (6, 3), (4, 4), (6, 1), (5, 2), (5, 3), (6, 4)],
    [(1, 1), (6, 2), (3, 3), (4, 4), (5, 1), (5, 2), (6, 3), (5, 4)],
    [(6, 1), (2, 2), (3, 3), (4, 4), (5, 1), (6, 2), (5, 3), (6, 4)],
]


class CheckFailed(Exception):
    """An output that is not what the step was built to produce."""


@dataclass
class Step:
    argv: list
    expect: int  # exit code the call must give
    check: Optional[Callable[[], None]] = None  # run only when the code matched


@dataclass
class Workload:
    name: str
    pipelines: list  # list of lists of Step


# -- independent oracles ---------------------------------------------------


def lattice_points(m: int, dim: int) -> set:
    """Nonnegative integer vectors of length dim summing to m (stars and bars)."""
    out = set()
    for bars in combinations(range(m + dim - 1), dim - 1):
        cuts = (-1,) + bars + (m + dim - 1,)
        out.add(tuple(cuts[k + 1] - cuts[k] - 1 for k in range(dim)))
    return out


def point_key(point) -> str:
    return ",".join(str(x) for x in point)


def derive_seed(seed: int, *parts) -> int:
    """Stable 48-bit seed for one input of one workload."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:6], "big")


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_bytes(path) -> bytes:
    return Path(path).read_bytes()


# -- input generation -------------------------------------------------------


def _write(path: Path, data) -> str:
    from matchfield import core

    path.write_text(core.canonical_json(data))
    return str(path)


def _field_from_words(n, d, words):
    from matchfield import core, fields

    return fields.validate_matching_field(
        n,
        d,
        {
            sigma: core.BipartiteGraph(n, d, [(int(ch), pos) for pos, ch in enumerate(w, 1)])
            for sigma, w in words.items()
        },
    )


def _coherent(seed, tag, n, d):
    from matchfield import randgen

    field, _, _ = randgen.seeded_coherent_field(n, d, derive_seed(seed, tag, n, d))
    return field


def _order(seed, tag, k):
    """Seeded permutation of 1..k: the ranks of a row of random weights."""
    from matchfield import randgen

    (row,) = randgen.random_weight_matrix(1, k, derive_seed(seed, tag, k))
    return sorted(range(1, k + 1), key=lambda x: row[x - 1])


def _staircase(seed, tag, n, d):
    from matchfield import triang

    return triang.staircase_triangulation(
        n, d, _order(seed, tag + "-left", n), _order(seed, tag + "-right", d)
    )


def _inputs(name, scale):
    """(n, d, label) for every input of a main workload."""
    for n, d in SIZES[name][scale]:
        for copy in range(COPIES[name] if scale == "full" else 1):
            yield n, d, f"{n}-{d}-{copy}"


# -- workloads ----------------------------------------------------------------


def field_pipeline(seed: int, work: Path, scale: str) -> list:
    """check-linkage -> arrangement -> flipgraph -> cells on coherent fields."""
    from matchfield import fields

    pipelines = []
    for n, d, label in _inputs("field-pipeline", scale):
        field = _coherent(seed, "field-pipeline-" + label, n, d)
        src = _write(work / f"field-{label}.json", fields.field_to_json_dict(field))
        out = lambda what, label=label: str(work / f"field-{label}.{what}.json")
        pipelines.append(
            [
                Step(["check-linkage", src, "--json", out("linkage")], 0,
                     lambda o=out("linkage"): check_linkage_ok(o)),
                Step(["arrangement", src, "--json", out("arrangement")], 0,
                     lambda o=out("arrangement"), s=src, n=n, d=d: check_arrangement(o, s, n, d)),
                Step(["flipgraph", src, "--json", out("flip")], 0,
                     lambda o=out("flip"), n=n, d=d: check_flipgraph(o, n, d)),
                Step(["cells", src, "--json", out("cells")], 0,
                     lambda o=out("cells"), n=n, d=d: check_cells(o, n, d)),
            ]
        )
    return pipelines


def chow_roundtrip(seed: int, work: Path, scale: str) -> list:
    """phi -> chow -> reconstruct-chow -> roundtrip --kind chow on coherent fields."""
    from matchfield import fields

    pipelines = []
    for n, d, label in _inputs("chow-roundtrip", scale):
        field = _coherent(seed, "chow-roundtrip-" + label, n, d)
        src = _write(work / f"chow-{label}.json", fields.field_to_json_dict(field))
        out = lambda what, label=label: str(work / f"chow-{label}.{what}.json")
        pipelines.append(
            [
                Step(["phi", src, "--json", out("phi")], 0,
                     lambda o=out("phi"), n=n, d=d: check_phi(o, n, d)),
                Step(["chow", src, "--json", out("chow")], 0,
                     lambda o=out("chow"), n=n, d=d: check_chow(o, n, d)),
                Step(["reconstruct-chow", "--phi", out("phi"), "--json", out("rebuilt")], 0,
                     lambda a=out("rebuilt"), b=out("chow"): check_same_bytes(a, b)),
                Step(["roundtrip", "--kind", "chow", src, "--json", out("roundtrip")], 0,
                     lambda o=out("roundtrip"): check_roundtrip(o, "chow")),
            ]
        )
    return pipelines


def triangulation_roundtrip(seed: int, work: Path, scale: str) -> list:
    """phi-triangulation -> reconstruct-triangulation -> validate-triangulation
    -> extract -> roundtrip --kind triangulation on relabelled staircases."""
    from matchfield import triang

    pipelines = []
    for n, d, label in _inputs("triangulation-roundtrip", scale):
        t = _staircase(seed, "triangulation-roundtrip-" + label, n, d)
        src = _write(work / f"tri-{label}.json", triang.triangulation_to_json_dict(t))
        out = lambda what, label=label: str(work / f"tri-{label}.{what}.json")
        pipelines.append(
            [
                Step(["phi-triangulation", src, "--json", out("pairs")], 0,
                     lambda o=out("pairs"), n=n, d=d: check_pairs(o, n, d)),
                Step(["reconstruct-triangulation", out("pairs"), "--json", out("rebuilt")], 0,
                     lambda a=out("rebuilt"), s=src: check_same_bytes(a, s)),
                Step(["validate-triangulation", src, "--json", out("valid")], 0,
                     lambda o=out("valid"): check_valid_triangulation(o)),
                Step(["extract", src, "--json", out("field")], 0,
                     lambda o=out("field"), n=n, d=d: check_matching_field(o, n, d)),
                Step(["roundtrip", "--kind", "triangulation", src, "--json", out("roundtrip")], 0,
                     lambda o=out("roundtrip"): check_roundtrip(o, "triangulation")),
            ]
        )
    return pipelines


def desk_mix(seed: int, work: Path, scale: str) -> list:
    """Short calls of the remaining subcommands, plus inputs that must be
    rejected with exit 1 (invalid objects) or exit 2 (unreadable input)."""
    from matchfield import chow, core, fields, stacks, triang

    pipelines = []
    out = lambda name: str(work / f"{name}.out.json")

    # seeded coherent fields: amalgamate, stiefel, right-submatching-check
    for n, d in SIZES["desk-mix"][scale]:
        field = _coherent(seed, "desk-mix", n, d)
        src = _write(work / f"field-{n}-{d}.json", fields.field_to_json_dict(field))
        target = (n - d,) + (1,) * (d - 1)  # thickness n - 1
        tag = f"field-{n}-{d}"
        pipelines.append(
            [
                Step(["amalgamate", src, "--target", point_key(target), "--json", out(tag + ".amalgamated")], 0,
                     lambda o=out(tag + ".amalgamated"), n=n, t=target: check_tope_field(o, n, t)),
                Step(["stiefel", src, "--json", out(tag + ".stiefel")], 0,
                     lambda o=out(tag + ".stiefel"), n=n, d=d: check_stiefel(o, n, d)),
                Step(["right-submatching-check", src, "--json", out(tag + ".submatching")], 0,
                     lambda o=out(tag + ".submatching"): check_key(o, "ok", True)),
            ]
        )

    # matching stacks of relabelled staircases: ensemble-check, complete
    for n, d in DESK_STACKS[scale]:
        t = _staircase(seed, "desk-mix-stack", n, d)
        stack = stacks.stack_from_trees(t.sorted_trees(), n, d)
        src = _write(work / f"stack-{n}-{d}.json", stacks.stack_to_json_dict(stack))
        tag = f"stack-{n}-{d}"
        pipelines.append(
            [
                Step(["ensemble-check", src, "--json", out(tag + ".ensemble")], 0,
                     lambda o=out(tag + ".ensemble"): check_key(o, "right_linkage", True)),
                Step(["complete", src, "--json", out(tag + ".completion")], 0,
                     lambda o=out(tag + ".completion"), n=n, d=d: check_matching_field(o, n + d, d)),
            ]
        )

    # staircase and trianguloid-check on the staircase's extended arrangement
    n, d = (3, 3) if scale == "full" else (3, 2)
    t = _staircase(seed, "desk-mix-staircase", n, d)
    expected = _write(work / f"staircase-{n}-{d}.json", triang.triangulation_to_json_dict(t))
    eta = _write(work / f"extended-{n}-{d}.json",
                 fields.extended_to_json_dict(triang.extended_tope_arrangement(t)))
    pipelines.append(
        [
            Step(["staircase", "--n", str(n), "--d", str(d),
                  "--left-order", point_key(_order(seed, "desk-mix-staircase-left", n)),
                  "--right-order", point_key(_order(seed, "desk-mix-staircase-right", d)),
                  "--json", out("staircase")], 0,
                 lambda o=out("staircase"), e=expected: check_same_bytes(o, e)),
            Step(["trianguloid-check", eta, "--json", out("trianguloid")], 0,
                 lambda o=out("trianguloid"): check_trianguloid(o, True)),
        ]
    )

    # fixtures of the test suite
    f42 = _write(work / "fixture-42.json", fields.field_to_json_dict(_field_from_words(4, 2, FIELD_42_WORDS)))
    words53 = {tuple(sorted(int(c) for c in w)): w for w in FIELD_53_WORDS}
    f53 = _write(work / "fixture-53.json", fields.field_to_json_dict(_field_from_words(5, 3, words53)))
    field_63 = triang.extract_field_from_trees(
        [core.BipartiteGraph(6, 3, t) for t in INTERIOR_TREES_63], 6, 3
    )
    field_64 = triang.extract_field_from_trees(
        [core.BipartiteGraph(6, 4, t) for t in COVECTOR_TREES_64], 6, 4
    )
    f64 = _write(work / "fixture-64.json", fields.field_to_json_dict(field_64))
    eta_24 = _write(work / "fixture-eta-24.json", fields.extended_to_json_dict(
        fields.extended_arrangement_by_stripping(field_64, [(1, 1), (2, 2), (3, 3), (4, 4)])
    ))
    pipelines.append(
        [
            Step(["check-linkage", f42, "--json", out("fixture-42.linkage")], 0,
                 lambda o=out("fixture-42.linkage"): check_linkage_ok(o)),
            Step(["amalgamate", f42, "--target", "2,1", "--json", out("fixture-42.amalgamated")], 0,
                 lambda o=out("fixture-42.amalgamated"): check_tope_field(o, 4, (2, 1))),
        ]
    )
    pipelines.append(
        [
            Step(["stiefel", f53, "--json", out("fixture-53.stiefel")], 0,
                 lambda o=out("fixture-53.stiefel"): check_stiefel(o, 5, 3)),
            Step(["right-submatching-check", f53, "--json", out("fixture-53.submatching")], 0,
                 lambda o=out("fixture-53.submatching"): check_key(o, "ok", True)),
        ]
    )

    # rejects, exit 1: invalid objects
    f43 = _write(work / "fixture-43.json", fields.field_to_json_dict(_field_from_words(4, 3, FIELD_43_WORDS)))
    phi = chow.phi_to_json_dict(chow.chow_collection(field_63).phi())
    keys = sorted(phi["phi"])
    phi["phi"][keys[0]], phi["phi"][keys[5]] = phi["phi"][keys[5]], phi["phi"][keys[0]]
    bad_phi = _write(work / "reject-phi-63.json", phi)
    dropped = triang.triangulation_to_json_dict(_staircase(seed, "desk-mix-dropped", 3, 3))
    dropped["trees"].pop(derive_seed(seed, "desk-mix-dropped") % len(dropped["trees"]))
    bad_tri = _write(work / "reject-triangulation-33.json", dropped)
    pipelines += [
        [Step(["check-linkage", f43, "--json", out("reject-43")], 1,
              lambda o=out("reject-43"): check_key(o, "linkage", False))],
        [Step(["reconstruct-chow", "--phi", bad_phi, "--json", out("reject-phi")], 1)],
        [Step(["validate-triangulation", bad_tri, "--json", out("reject-triangulation")], 1,
              lambda o=out("reject-triangulation"): check_key(o, "violation", "count"))],
        [Step(["right-submatching-check", f64, "--json", out("reject-64")], 1,
              lambda o=out("reject-64"): check_key(o, "ok", False))],
        [Step(["trianguloid-check", eta_24, "--json", out("reject-eta")], 1,
              lambda o=out("reject-eta"): check_trianguloid(o, False))],
    ]

    # rejects, exit 2: unreadable input
    malformed = work / "reject-malformed.json"
    malformed.write_text(Path(f42).read_text()[:-20])
    missing = work / "reject-missing.json"
    missing.unlink(missing_ok=True)
    pipelines += [
        [Step(["check-linkage", str(malformed)], 2)],
        [Step(["arrangement", str(missing)], 2)],
    ]
    return pipelines


BUILDERS = {
    "field-pipeline": field_pipeline,
    "chow-roundtrip": chow_roundtrip,
    "triangulation-roundtrip": triangulation_roundtrip,
    "desk-mix": desk_mix,
}


def build(name: str, seed: int, work: Path, scale: str = "full") -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return Workload(name, BUILDERS[name](seed, work, scale))


def build_reference(seed: int, work: Path) -> Workload:
    """Every workload at the smoke scale, in one pass."""
    pipelines = []
    for name in WORKLOADS:
        pipelines += build(name, seed, work / name, "small").pipelines
    return Workload("reference", pipelines)


# -- output checks --------------------------------------------------------------


def check_linkage_ok(path) -> None:
    data = load(path)
    expect(data == {"linkage": True, "failures": []}, f"linkage report {data}")


def check_key(path, key, value) -> None:
    data = load(path)
    expect(data.get(key) == value, f"{key} is {data.get(key)!r}, expected {value!r}")


def check_same_bytes(path, reference) -> None:
    expect(read_bytes(path) == read_bytes(reference), f"{path} differs from {reference}")


def check_arrangement(path, field_path, n, d) -> None:
    from matchfield import core, fields

    data = load(path)
    points = {point_key(p) for p in lattice_points(n - d, d)}
    expect(set(data["topes"]) == points, "arrangement keys are not the lattice points")
    rebuilt = fields.field_from_arrangement(fields.arrangement_from_json_dict(data))
    expect(
        core.canonical_json(fields.field_to_json_dict(rebuilt)) == Path(field_path).read_text(),
        "field_from_arrangement does not return the input field",
    )


def check_flipgraph(path, n, d) -> None:
    data = load(path)
    expected = comb(n, d + 1) * d
    expect(data["expected_for_linkage"] == expected, "wrong expected edge count")
    expect(data["edge_count"] == expected == len(data["edges"]), "edge count is not binom(n,d+1)*d")
    expect(len(data["vertices"]) == comb(n, d), "vertex count is not binom(n,d)")


def check_cells(path, n, d) -> None:
    data = load(path)
    points = {point_key(p) for p in lattice_points(n - d, d)}
    expect(set(data["cells"]) == points, "cell keys are not the lattice points")
    for key, cell in data["cells"].items():
        size = 1
        for factor in cell["factors"]:
            size *= len(factor)
        expect(len(cell["vertices"]) == size, f"cell {key} is not a full product")


def check_phi(path, n, d) -> None:
    data = load(path)
    values = sorted(tuple(v) for v in data["phi"].values())
    expect(len(data["phi"]) == comb(n, n - d + 1), "phi is not defined on every subset")
    expect(values == sorted(lattice_points(n - d + 1, d)),
           "phi is not a bijection onto the lattice points")


def check_chow(path, n, d) -> None:
    data = load(path)
    expect(len(data["covectors"]) == comb(n, n - d + 1), "wrong number of covectors")
    degrees = []
    for edges in data["covectors"].values():
        row = [0] * d
        for _, i in edges:
            row[i - 1] += 1
        degrees.append(tuple(row))
    expect(sorted(degrees) == sorted(lattice_points(n - d + 1, d)),
           "covector degree vectors are not the lattice points")


def check_roundtrip(path, kind) -> None:
    data = load(path)
    expect(data == {"kind": kind, "diff": [], "match": True}, f"roundtrip report {data}")


def check_pairs(path, n, d) -> None:
    data = load(path)
    expect(len(data["pairs"]) == comb(n + d - 2, d - 1), "pair count is not the tree count")
    expect(sorted(tuple(u) for u, _ in data["pairs"]) == sorted(lattice_points(d - 1, n)),
           "left degree vectors are not the lattice points")
    expect(sorted(tuple(v) for _, v in data["pairs"]) == sorted(lattice_points(n - 1, d)),
           "right degree vectors are not the lattice points")


def check_valid_triangulation(path) -> None:
    data = load(path)
    expect(data["valid"] is True and data["violation"] is None, f"validation report {data}")


def check_matching_field(path, n, d) -> None:
    data = load(path)
    expect((data["n"], data["d"]) == (n, d), "wrong field dimensions")
    expect(len(data["matchings"]) == comb(n, d), "a d-subset has no matching")
    for key, edges in data["matchings"].items():
        lefts = sorted(j for j, _ in edges)
        rights = sorted(i for _, i in edges)
        expect(point_key(lefts) == key and rights == list(range(1, d + 1)),
               f"matching on {key} is not perfect")


def check_tope_field(path, n, target) -> None:
    data = load(path)
    thickness = sum(target)
    expect(tuple(data["type"]) == tuple(target), "wrong tope field type")
    expect(len(data["matchings"]) == comb(n, thickness), "a subset has no tope")
    for key, edges in data["matchings"].items():
        degrees = [0] * len(target)
        for _, i in edges:
            degrees[i - 1] += 1
        expect(tuple(degrees) == tuple(target), f"tope on {key} has the wrong right degrees")
        expect(point_key(sorted({j for j, _ in edges})) == key, f"tope on {key} has the wrong support")


def check_stiefel(path, n, d) -> None:
    data = load(path)
    expect(len(data["matroids"]) == comb(n - 2, d - 1), "one matroid per maximal covector")


def check_trianguloid(path, ok) -> None:
    data = load(path)
    verdict = all(data[axiom]["ok"] for axiom in ("T1", "T2", "T3", "T4"))
    expect(verdict is ok, f"trianguloid verdict {verdict}, expected {ok}")
