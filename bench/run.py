"""Seeded in-process benchmark of the matchfield command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else.  One client in one process, no threads,
closed loop: every `matchfield.cli.run` call starts when the previous one
has returned.  See bench/README.md for the workloads and the metrics.

With --trace 0 the run sets up its inputs SETUP_REPEATS times, then runs
whole passes over its pipelines until --seconds have gone by and at least
MIN_SAMPLES calls were timed, and reports the end-to-end metrics, with
every time scaled to a reference machine speed (see Speed).  With
--trace 1 it alternates untraced and traced passes for --seconds and
reports the per-layer split.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PACKAGE = ROOT / "src" / "matchfield"

import tracer as tracing  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_SAMPLES = 100  # so call_ms.p90 has at least ten samples beyond it
MAX_SECONDS = 120  # stop adding passes here even if MIN_SAMPLES is not met
REFERENCE_KERNEL_S = 0.002  # calibration kernel time at the reference speed
CALIBRATE_EVERY_S = 0.2

LAYERS = ("core", "fields", "chow", "triang", "flip", "stacks", "randgen", "cli")
FUNCTIONS = {
    "core": ["find_cycle", "contained_tope", "is_compatible", "contained_matchings",
             "canonical_json"],
    "fields": ["linkage_covector", "i_amalgamation", "tope_arrangement", "is_linkage",
               "validate_matching_field", "field_from_json_dict", "coherent_field",
               "maximal_tope_covectors"],
    "chow": ["chow_collection", "reconstruct_chow_from_phi", "field_from_chow",
             "chow_by_definition", "phi_from_json_dict"],
    "triang": ["reconstruct_triangulation", "check_triangulation",
               "find_agreement_violation", "find_flip_violation", "phi", "extract_field",
               "staircase_triangulation"],
    "flip": ["flip_graph", "maximal_cells", "cell_of_tope"],
    "stacks": ["stack_from_json_dict", "validate_ensemble", "completion",
               "stiefel_image_of_field", "right_submatching_check", "transversal_matroid"],
    "cli": ["run", "build_parser"],
}
# counted from the result: maximal topes returned by the amalgamation chain
TOPES_RETURNED = "fields.tope_arrangement.returned"

clock = time.perf_counter


class SetupError(Exception):
    """The checkout has no package under src/, or another one was imported."""


# -- environment --------------------------------------------------------------


def loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the package sources, which identifies the code under test
    also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc,
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "seed": seed,
        "loadavg_start": loadavg(),
    }


# -- set-up -------------------------------------------------------------------


def import_package() -> dict:
    """Import matchfield afresh from ROOT/src; returns layer -> module."""
    src = str(PACKAGE.parent)
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "matchfield" or m.startswith("matchfield.")]:
        del sys.modules[name]
    package = importlib.import_module("matchfield")
    if Path(package.__file__).resolve().parent != PACKAGE.resolve():
        raise SetupError(f"imported matchfield from {package.__file__}, not {PACKAGE}")
    return {layer: importlib.import_module("matchfield." + layer) for layer in LAYERS}


def set_up(name: str, seed: int, work: Path, scale: str, speed: "Speed"):
    """Import the package and generate and write the inputs; timed as
    setup_s, raw and at the reference speed."""
    before = speed.last
    start = clock()
    modules = import_package()
    workload = workloads.build(name, seed, work, scale)
    raw = clock() - start
    return modules, workload, raw, raw * Speed.factor(before, speed.sample())


# -- machine speed ------------------------------------------------------------


def calibration_kernel() -> float:
    """Seconds taken by a fixed pure-Python loop that uses nothing of the
    package, so that no change to the package can move it: integer
    arithmetic, then dict, tuple and str churn, which tracks the argparse-
    and dict-heavy calls better than arithmetic alone.  The fastest of three
    tries, since an interruption only ever adds time."""
    best = float("inf")
    for _ in range(3):
        start = clock()
        acc = 0
        for i in range(17_000):
            acc += i * i % 7
        table: dict = {}
        for i in range(2_500):
            key = (i * 2654435761) & 0x3FF
            table[key] = (key, str(key))
            acc += len(table.get(key ^ 1, ()))
        best = min(best, clock() - start)
    return best


class Speed:
    """Machine speed, sampled with the calibration kernel between calls.

    The sandbox's speed drifts by a third within a minute while the kernel
    tracks it, so times are scaled to the reference speed: the one at which
    the kernel takes REFERENCE_KERNEL_S.  `factor(before, after)` scales a
    time measured between two samples."""

    def __init__(self):
        self.last = calibration_kernel()
        self.at = clock()

    def sample(self) -> float:
        self.last = calibration_kernel()
        self.at = clock()
        return self.last

    @staticmethod
    def factor(before: float, after: float) -> float:
        return 2 * REFERENCE_KERNEL_S / (before + after)


# -- passes -------------------------------------------------------------------


class Pass:
    def __init__(self):
        self.raw: list[float] = []  # seconds per cli.run call, as measured
        self.samples: list[float] = []  # the same at the reference speed
        self.completed = 0  # pipelines whose every step was right
        self.failures: list[str] = []

    @property
    def seconds(self) -> float:
        return sum(self.samples)


def run_pass(cli, workload, speed: Speed, tracer=None) -> Pass:
    """Every pipeline once, in order; only the cli.run calls are timed.

    Speed is sampled between calls once CALIBRATE_EVERY_S have passed, and
    at the end; each call is scaled by the mean of the two samples around
    it."""
    result = Pass()
    sink = io.StringIO()
    before, pending = speed.last, 0

    def rescale():
        nonlocal before, pending
        after = speed.sample()
        factor = Speed.factor(before, after)
        result.samples += [t * factor for t in result.raw[len(result.raw) - pending:]]
        before, pending = after, 0

    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for pipeline in workload.pipelines:
            whole = True
            for step in pipeline:
                if pending and clock() - speed.at >= CALIBRATE_EVERY_S:
                    rescale()
                sink.seek(0)
                sink.truncate()
                if tracer is not None:
                    tracer.active = True
                start = clock()
                try:
                    code = cli.run(step.argv)
                except Exception:  # an escaping exception is a failed call
                    code = traceback.format_exc(limit=-1).strip().replace("\n", " | ")
                elapsed = clock() - start
                if tracer is not None:
                    tracer.active = False
                result.raw.append(elapsed)
                pending += 1
                problem = None
                if code != step.expect:
                    problem = f"exit {code}, expected {step.expect}"
                elif step.check is not None:
                    try:
                        step.check()
                    except Exception as exc:
                        problem = f"{type(exc).__name__}: {exc}"
                if problem is not None:
                    whole = False
                    result.failures.append(f"{' '.join(step.argv)}: {problem}")
            result.completed += whole
    rescale()
    return result


def keep_going(started: float, seconds: float, samples: int, min_samples: int) -> bool:
    elapsed = clock() - started
    if elapsed >= MAX_SECONDS:
        return False
    return elapsed < seconds or samples < min_samples


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density at their rank
    midpoints.  A plain order statistic jumps between the clusters that a few
    call types form; this weighted mean does not."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


# -- measurement --------------------------------------------------------------


def measure(name, seed, seconds, scale, min_samples, work):
    """Untraced run: the end-to-end metrics."""
    speed = Speed()
    setups, setups_raw = [], []
    for _ in range(SETUP_REPEATS):
        modules, workload, raw, elapsed = set_up(name, seed, work, scale, speed)
        setups.append(elapsed)
        setups_raw.append(raw)
    cli = modules["cli"]
    passes = []
    started = clock()
    while True:
        passes.append(run_pass(cli, workload, speed))
        if not keep_going(started, seconds, sum(len(p.samples) for p in passes), min_samples):
            break
    samples = [s for p in passes for s in p.samples]
    raw = [s for p in passes for s in p.raw]
    completed = sum(p.completed for p in passes)
    failures = [f for p in passes for f in p.failures]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pipelines_per_s": (completed / sum(samples), "1/s"),
        "call_ms.p50": (quantile(samples, 0.5) * 1e3, "ms"),
        "call_ms.p90": (quantile(samples, 0.9) * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    detail = {
        "passes": len(passes),
        "pipelines": len(workload.pipelines) * len(passes),
        "pipelines_completed": completed,
        "samples": len(samples),
        "call_seconds": sum(samples),
        "setup_s_all": setups,
        "raw": {
            "setup_s": statistics.median(setups_raw),
            "pipelines_per_s": completed / sum(raw),
            "call_ms.p50": quantile(raw, 0.5) * 1e3,
            "call_ms.p90": quantile(raw, 0.9) * 1e3,
            "call_seconds": sum(raw),
        },
    }
    return metrics, len(samples), failures, [], detail


def measure_traced(name, seed, seconds, scale, work, trace_path):
    """Traced run: the per-layer split.

    One traced unit is one input generation, one pass over the workload and
    one reference pass (every workload at the smoke scale).  Untraced and
    traced passes alternate so that trace_overhead compares like with like;
    every traced pass must make exactly the same calls.
    """
    speed = Speed()
    modules, workload, _, _ = set_up(name, seed, work, scale, speed)
    cli = modules["cli"]
    tr = tracing.Tracer(
        {layer: modules[layer] for layer in LAYERS},
        returned={"fields.tope_arrangement": lambda ta: len(ta.topes)},
    )
    tr.install()
    spans = tr.spans
    problems = []
    try:
        tr.active = True
        start = clock()
        workload = workloads.build(name, seed, work, scale)
        reference = workloads.build_reference(seed, work / "reference")
        setup_wall = clock() - start
        tr.active = False
        setup_end = len(spans)
        setup_counters = Counter(tr.counters)

        untraced, traced, per_pass = [], [], []
        started = clock()
        while True:
            untraced.append(run_pass(cli, workload, speed))
            first, before = len(spans), Counter(tr.counters)
            traced.append(run_pass(cli, workload, speed, tr))
            counts = Counter(spans.names[i] for i in spans.ids[first:])
            counts.update(tr.counters - before)
            per_pass.append(counts)
            if not keep_going(started, seconds, 0, 0):
                break
        passes_end = len(spans)
        before = Counter(tr.counters)
        ref = run_pass(cli, reference, speed, tr)
        ref_counters = tr.counters - before
    finally:
        tr.active = False
        tr.uninstall()

    if any(c != per_pass[0] for c in per_pass):
        problems.append("traced passes made different calls")

    n_passes = len(traced)
    setup = tracing.summarize(spans, 0, setup_end)
    body = tracing.summarize(spans, setup_end, passes_end)
    tail = tracing.summarize(spans, passes_end)

    def unit(field: str, span: str) -> float:
        """One traced unit: set-up + one (mean) pass + the reference pass."""
        return sum(
            part.get(span, {}).get(field, 0) / k
            for part, k in ((setup, 1), (body, n_passes), (tail, 1))
        )

    def unit_child(children, parent) -> float:
        return (
            tracing.child_time(spans, children, parent, 0, setup_end)
            + tracing.child_time(spans, children, parent, setup_end, passes_end) / n_passes
            + tracing.child_time(spans, children, parent, passes_end)
        )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = setup_wall + sum(sum(p.raw) for p in traced) / n_passes + sum(ref.raw)
    names = sorted(set(setup) | set(body) | set(tail))
    metrics = {}
    for layer in LAYERS:
        own = sum(unit("self_s", s) for s in names if s.split(".")[0] == layer)
        metrics[f"{layer}.self_ms"] = (own * 1e3, "ms")
        metrics[f"{layer}.share"] = (own / wall, "ratio")
    for layer, functions in FUNCTIONS.items():
        for fn in functions:
            span = f"{layer}.{fn}"
            metrics[f"{span}.calls"] = (round(unit("calls", span)), "count")
            metrics[f"{span}.self_ms"] = (unit("self_s", span) * 1e3, "ms")
    topes = sum(c[TOPES_RETURNED] for c in (setup_counters, per_pass[0], ref_counters))
    metrics["fields.covectors_per_tope"] = (
        ratio(metrics["fields.linkage_covector.calls"][0], topes), "ratio")
    metrics["chow.certificate_share"] = (ratio(
        unit_child({"chow.field_from_chow", "chow.chow_collection"}, "chow.reconstruct_chow_from_phi"),
        unit("incl_s", "chow.reconstruct_chow_from_phi")), "ratio")
    metrics["triang.certificate_share"] = (ratio(
        unit_child({"triang.check_triangulation"}, "triang.reconstruct_triangulation"),
        unit("incl_s", "triang.reconstruct_triangulation")), "ratio")
    metrics["cli.parser_share"] = (
        ratio(unit("incl_s", "cli.build_parser"), unit("incl_s", "cli.run")), "ratio")
    metrics["trace_overhead"] = (
        sum(p.seconds for p in traced) / sum(p.seconds for p in untraced), "ratio")

    spans.write(trace_path.with_suffix(".spans.tsv.gz"))
    counts = {
        "unit": "one traced set-up + one pass + one reference pass",
        "passes": n_passes,
        "spans": len(spans),
        "bounds": [setup_end, passes_end],  # first span of the passes, of the reference pass
        "setup": {**{k: v["calls"] for k, v in setup.items()}, **setup_counters},
        "pass": dict(per_pass[0]),
        "reference": {**{k: v["calls"] for k, v in tail.items()}, **ref_counters},
    }
    trace_path.with_suffix(".counts.json").write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")

    all_passes = untraced + traced + [ref]
    failures = [f for p in all_passes for f in p.failures]
    attempted = sum(len(p.samples) for p in all_passes)
    detail = {"passes": n_passes, "setup_wall_s": setup_wall, "unit_wall_s": wall, "spans": len(spans)}
    return metrics, attempted, failures, problems, detail


# -- driver -------------------------------------------------------------------


def execute(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
            min_samples: int = MIN_SAMPLES, out: Path = OUT) -> dict:
    """One benchmark run; returns the result record (see main for its use)."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SetupError(f"no package at {PACKAGE}; run from a source checkout")
    env = environment(seed)
    out.mkdir(parents=True, exist_ok=True)
    work = out / f"work-{workload}"
    if trace:
        metrics, attempted, failures, problems, detail = measure_traced(
            workload, seed, seconds, scale, work, out / f"trace-{workload}")
    else:
        metrics, attempted, failures, problems, detail = measure(
            workload, seed, seconds, scale, min_samples, work)
    env["loadavg_end"] = loadavg()
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"workload": workload, "scale": scale, "trace": int(trace), "seconds": seconds,
            "env": env, "detail": detail, "failures": failures[:20], "problems": problems,
            "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    env, result = record["env"], record["result"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {record['detail']['passes']}")
    print(f"python {env['python']}  nproc {env['nproc']}  git {env['git_revision']}  "
          f"src {env['src_sha256'][:12]}  loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    for name, m in result["metrics"].items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"{'call_ms samples':<44} {record['detail']['samples']:>14d} count")
    print(f"{'failed_ratio':<44} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} calls)")
    for line in record["failures"] + record["problems"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
