"""Tests of the benchmark itself, at the smoke scale ((4,2) fields, (3,2)
staircases).  Run from the repository root with

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_is_correct(name, tmp_path):
    record = run.execute(name, 3, 0, False, scale="small", min_samples=0, out=tmp_path)
    result = record["result"]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_names_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(name, tmp_path):
    runs = [
        run.execute(name, 5, 0, True, scale="small", out=tmp_path / side)
        for side in ("a", "b")
    ]
    for record in runs:
        assert record["result"]["correct"], record["failures"] + record["problems"]
        assert set(record["result"]["metrics"]) == PER_LAYER
    first, second = (
        {k: v["value"] for k, v in r["result"]["metrics"].items() if k.endswith(".calls")}
        for r in runs
    )
    assert first == second
    files = [
        json.loads((tmp_path / side / f"trace-{name}.counts.json").read_text())
        for side in ("a", "b")
    ]
    for part in ("setup", "pass", "reference"):
        assert files[0][part] == files[1][part]


def test_self_times_come_from_the_span_file(tmp_path):
    record = run.execute("chow-roundtrip", 7, 0, True, scale="small", out=tmp_path)
    counts = json.loads((tmp_path / "trace-chow-roundtrip.counts.json").read_text())
    spans = tracer.Spans.read(tmp_path / "trace-chow-roundtrip.spans.tsv.gz")
    assert len(spans) == counts["spans"]
    setup_end, passes_end = counts["bounds"]
    parts = [
        (tracer.summarize(spans, 0, setup_end), 1),
        (tracer.summarize(spans, setup_end, passes_end), counts["passes"]),
        (tracer.summarize(spans, passes_end), 1),
    ]
    metrics = record["result"]["metrics"]
    for layer, functions in run.FUNCTIONS.items():
        for fn in functions:
            span = f"{layer}.{fn}"
            own = sum(p.get(span, {}).get("self_s", 0) / k for p, k in parts)
            assert metrics[f"{span}.self_ms"]["value"] == pytest.approx(own * 1e3, rel=1e-12)


def test_self_time_subtracts_direct_children_only():
    spans = tracer.Spans()
    spans.names = ["a", "b", "c"]
    # a [0, 10] > b [1, 6] > c [2, 4]; a > c [7, 8]
    for fid, start, end, parent in [(0, 0, 10, -1), (1, 1, 6, 0), (2, 2, 4, 1), (2, 7, 8, 0)]:
        spans.ids.append(fid)
        spans.starts.append(start)
        spans.ends.append(end)
        spans.parents.append(parent)
    summary = tracer.summarize(spans)
    assert summary["a"] == {"calls": 1, "self_s": 4, "incl_s": 10}
    assert summary["b"] == {"calls": 1, "self_s": 3, "incl_s": 5}
    assert summary["c"] == {"calls": 2, "self_s": 3, "incl_s": 3}
    assert tracer.child_time(spans, {"c"}, "a") == 1
    assert tracer.summarize(spans, 1, 3)["b"]["self_s"] == 3


def test_oracles():
    assert workloads.lattice_points(2, 3) == {
        (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)
    }
    assert workloads.lattice_points(0, 1) == {(0,)}
    assert workloads.derive_seed(1, "x", 4, 2) == workloads.derive_seed(1, "x", 4, 2)
    assert workloads.derive_seed(1, "x", 4, 2) != workloads.derive_seed(2, "x", 4, 2)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / "bench" / "out").exists()
