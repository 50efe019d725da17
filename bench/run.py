"""selfsim benchmark runner.

    python3 bench/run.py --workload paper|stream|cli-cold|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs batches of fixed work
in fresh worker processes until ``--seconds`` is used up (at least one
batch), checks every answer, and prints one ``name value unit`` line per
metric, then a JSON object on the last line of stdout.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` one batch runs
untraced and once more under the outside-in tracer, and the metrics are
the per-layer ones.  The exit code is 1 when any answer is wrong and 2
when selfsim's sources are missing.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import xml.etree.ElementTree as ET

import checker
import queries
from worker import check_answer, pinned_reports

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")

STREAM_CYCLES = 8  # per stream batch; at most the 8 enumerate variants per slot
STREAM_TRACE_CYCLES = 2  # stream cycles in a traced batch
# set-up samples taken before the first batch, between batches and after
# the last, so that set-up time is sampled across the whole run
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
# Tail percentile per workload: the highest with at least ten samples
# beyond it at this benchmark's nominal sample count (stream: 272 or 544
# queries a run, cli-cold: about 60 commands).  It is fixed, so that a
# faster or slower commit is compared at the same percentile.  paper has
# only three or four suite runs, so its tail is their maximum.
TAIL_PERCENTILE = {"paper": 100, "stream": 95, "cli-cold": 75}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB",
}

PINNED = pinned_reports()
REPORT_NAMES = tuple(p["name"] for p in PINNED)


def _layer_units():
    units = {"cover.calls": "count", "cover.distinct": "count",
             "cover.repeat_ratio": "ratio", "cover.pieces": "count",
             "cover.busy_s": "s", "cover.self_s": "s"}
    units.update({"cover.exact_points.calls": "count", "cover.exact_points.busy_s": "s",
                  "intervals.intersect_shifted.calls": "count",
                  "intervals.intersect_shifted.parts_out": "count",
                  "intervals.intersect_shifted.busy_s": "s",
                  "embedding.find_matching_words.calls": "count",
                  "embedding.find_matching_words.hits": "count",
                  "embedding.find_matching_words.hit_ratio": "ratio",
                  "embedding.find_matching_words.busy_s": "s"})
    for fn in ("check_embedding", "enumerate_embeddings", "decompose"):
        units.update({f"embedding.{fn}.calls": "count", f"embedding.{fn}.busy_s": "s",
                      f"embedding.{fn}.self_s": "s"})
    for fn in ("is_symmetric", "similarity_dimension"):
        units.update({f"similitudes.{fn}.calls": "count", f"similitudes.{fn}.busy_s": "s"})
    units.update({f"verify.{name}.busy_s": "s" for name in REPORT_NAMES})
    units.update({"ifsfile.parse_ifs_file.busy_s": "s", "svg.render_strip.busy_s": "s",
                  "cli.main.busy_s": "s", "trace.overhead_ratio": "ratio"})
    return units


LAYER_UNITS = _layer_units()


# -- processes --------------------------------------------------------------


class Child:
    """Outcome of one child process."""

    def __init__(self, rc, stdout, stderr, wall_s, rss_mb):
        self.rc, self.stdout, self.stderr = rc, stdout, stderr
        self.wall_s, self.rss_mb = wall_s, rss_mb

    def last_json(self) -> dict:
        lines = self.stdout.strip().splitlines()
        if self.rc != 0 or not lines:
            raise RuntimeError(f"worker exited {self.rc}: {self.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])


def run_child(argv, work, timeout=CHILD_TIMEOUT_S) -> Child:
    """Run argv to completion, timing it from spawn to reap and taking its
    peak RSS from wait4.  Output goes through files, so no pipe can fill."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out_path = os.path.join(work, "child.out")
    err_path = os.path.join(work, "child.err")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env=env)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(),
                     wall_s, usage.ru_maxrss / 1024)


def sample_setup(work, samples):
    """Append SETUP_SAMPLES times from spawning a fresh interpreter to
    ``import selfsim`` done, read on the shared monotonic clock."""
    code = "import time, selfsim; print(time.monotonic())"
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        child = run_child([sys.executable, "-c", code], work, timeout=60)
        if child.rc != 0:
            raise RuntimeError(f"import selfsim failed: {child.stderr.strip()[-2000:]}")
        samples.append(float(child.stdout.strip().splitlines()[-1]) - start)


def run_batches(seconds, run_batch, work, setup):
    """Run batch 0, 1, ... while the next one is expected to end within
    ``seconds`` plus half a batch; always at least one.  Set-up samples go
    to ``setup`` before, between and after the batches; their time does
    not count against ``seconds``."""
    results, spent = [], 0.0
    sample_setup(work, setup)
    while True:
        batch_start = time.perf_counter()
        results.append(run_batch(len(results)))
        last = time.perf_counter() - batch_start
        spent += last
        sample_setup(work, setup)
        if spent + last / 2 > seconds:
            return results


# -- statistics -------------------------------------------------------------


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


class Outcome:
    """What a workload run produced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: list[str] = []

    def add_ops(self, ops):
        for op in ops:
            self.attempted += 1
            if op["error"]:
                self.failed += 1
                self.problems.append(f"{op['kind']}: {op['error']}")


def latency_metrics(outcome, workload, latencies_ms):
    """The tail as a metric; the median is printed but not a bounded
    metric, because on stream it spreads past any useful bound between
    runs of the same code (bench/README.md, Noise)."""
    p = TAIL_PERCENTILE[workload]
    outcome.metrics["latency_tail_ms"] = percentile(latencies_ms, p)
    n = len(latencies_ms)
    beyond = n - max(math.ceil(p / 100 * n), 1)
    outcome.notes.append(f"latency median {statistics.median(latencies_ms):.6g} ms; "
                         f"tail is p{p} of {n} samples ({beyond} beyond it)")


def kind_medians(outcome, ops):
    """Median latency per operation kind, printed but not a bounded metric."""
    kinds = sorted({op["kind"] for op in ops})
    outcome.notes.append("median ms by kind: " + ", ".join(
        f"{kind} {statistics.median(op['ms'] for op in ops if op['kind'] == kind):.4g}"
        for kind in kinds))


# -- workloads --------------------------------------------------------------


def run_worker(work, mode, seed, batch, trace, cycles=1) -> dict:
    """One paper or stream batch in a fresh worker process."""
    child = run_child([sys.executable, WORKER, mode, "--seed", str(seed),
                       "--batch", str(batch), "--cycles", str(cycles),
                       "--trace", str(trace)], work)
    return child.last_json()


def take_worker_result(result, outcome):
    src = os.path.realpath(SRC)
    if not os.path.realpath(result["selfsim_file"]).startswith(src + os.sep):
        raise RuntimeError(f"selfsim was imported from {result['selfsim_file']}")
    outcome.add_ops(result["ops"])
    if "failed_reports" in result:
        outcome.attempted += len(REPORT_NAMES)
        outcome.failed += len(result["failed_reports"])
        outcome.problems += result["report_problems"]


def workload_paper(seed, seconds, work, outcome, setup):
    # the suite is pinned, so the seed changes nothing here
    results = run_batches(seconds, lambda b: run_worker(work, "paper", seed, b, 0),
                          work, setup)
    for result in results:
        take_worker_result(result, outcome)
    suites = [r["suite_s"] for r in results]
    outcome.metrics["wall_s"] = statistics.median(suites)
    outcome.metrics["ops_per_s"] = len(REPORT_NAMES) * len(suites) / sum(suites)
    latency_metrics(outcome, "paper", [s * 1000 for s in suites])
    outcome.metrics["peak_rss_mb"] = max(r["rss_mb"] for r in results)
    outcome.notes.append(f"{len(suites)} verify-paper runs of the pinned suite")


def workload_stream(seed, seconds, work, outcome, setup):
    results = run_batches(
        seconds, lambda b: run_worker(work, "stream", seed, b, 0, STREAM_CYCLES), work, setup)
    ops = []
    for result in results:
        take_worker_result(result, outcome)
        ops += result["ops"]
    walls = [r["batch_s"] for r in results]
    outcome.metrics["wall_s"] = statistics.median(walls)
    outcome.metrics["ops_per_s"] = len(ops) / sum(walls)
    latency_metrics(outcome, "stream", [op["ms"] for op in ops])
    kind_medians(outcome, ops)
    outcome.metrics["peak_rss_mb"] = max(r["rss_mb"] for r in results)
    outcome.notes.append(f"{len(results)} sessions of {STREAM_CYCLES} cycles; "
                         f"inputs digest {results[0]['digest']}")


def _spec_files(work) -> dict[str, str]:
    paths = {}
    for name, text in queries.SYSTEMS.items():
        paths[name] = os.path.join(work, f"{name}.ifs")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


CLI_EXIT = {"included": (0,), "excluded": (1,), "open": (0, 1, 4),
            "inventory": (0,), "cover": (0,)}


def check_cli(query, child, svg_path) -> str | None:
    """Why one cli-cold command's answer is wrong, or None."""
    if child.rc not in CLI_EXIT[query["expect"]]:
        return f"exit code {child.rc}: {child.stderr.strip()[-300:]}"
    try:
        rec = json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return "no JSON record on stdout"
    if query["kind"] == "cover":
        maps = queries.MAPS[query["system"]]
        why = checker.check_cover(maps, query["depth"], rec)
        if why:
            return why
        try:
            rects = ET.parse(svg_path).getroot().iter("{http://www.w3.org/2000/svg}rect")
        except (OSError, ET.ParseError) as exc:
            return f"svg unreadable: {exc}"
        bars = sum(len(checker.cover_parts(maps, n)) + 1 for n in range(query["depth"] + 1))
        if len(list(rects)) != bars:
            return "svg bar count disagrees with the covers"
        return None
    return check_answer(query, rec if query["kind"] == "enumerate" else rec["verdict"])


def cli_command(query, specs, work, traced, trace_out=None):
    svg_path = os.path.join(work, "strip.svg")
    args = queries.cli_args(query, specs[query["system"]], svg_path)
    if traced:
        argv = [sys.executable, WORKER, "cli-traced", trace_out, "--", *args]
    else:
        argv = [sys.executable, "-m", "selfsim.cli", *args]
    child = run_child(argv, work)
    return child, check_cli(query, child, svg_path)


def cli_batch_run(seed, batch, specs, work, outcome, traced=False, traces=None):
    batch_queries = queries.cli_batch(seed, batch)
    ops, rss = [], []
    start = time.perf_counter()
    for i, query in enumerate(batch_queries):
        trace_out = os.path.join(work, f"trace-{i}.json")
        child, error = cli_command(query, specs, work, traced, trace_out)
        ops.append({"kind": query["kind"], "ms": child.wall_s * 1000, "error": error})
        rss.append(child.rss_mb)
        if traced:
            with open(trace_out, encoding="utf-8") as fh:
                traces.append(json.load(fh))
    wall = time.perf_counter() - start
    outcome.add_ops(ops)
    return {"wall_s": wall, "ops": ops, "rss": rss, "digest": queries.digest(batch_queries)}


def workload_cli(seed, seconds, work, outcome, setup):
    specs = _spec_files(work)
    results = run_batches(seconds, lambda b: cli_batch_run(seed, b, specs, work, outcome),
                          work, setup)
    ops = [op for r in results for op in r["ops"]]
    walls = [r["wall_s"] for r in results]
    outcome.metrics["wall_s"] = statistics.median(walls)
    outcome.metrics["ops_per_s"] = len(ops) / sum(walls)
    latency_metrics(outcome, "cli-cold", [op["ms"] for op in ops])
    kind_medians(outcome, ops)
    outcome.metrics["peak_rss_mb"] = max(x for r in results for x in r["rss"])
    outcome.notes.append(f"{len(results)} cycles of {len(ops) // len(results)} commands; "
                         f"inputs digest {results[0]['digest']}")


# -- traced runs ------------------------------------------------------------


def merge_traces(snapshots) -> tuple[dict, list[str]]:
    """Sum the counters of several traced processes."""
    total: dict[str, dict] = {}
    absent: set[str] = set()
    for snap in snapshots:
        absent.update(snap["absent"])
        for prefix, entry in snap["stats"].items():
            acc = total.setdefault(prefix, {})
            for key, value in entry.items():
                if key == "reports":
                    acc.setdefault("reports", []).extend(value)
                else:
                    acc[key] = acc.get(key, 0) + value
    return total, sorted(absent)


def layer_metrics(stats, overhead) -> dict[str, float]:
    def get(prefix, key):
        return stats.get(prefix, {}).get(key, 0)

    out = {}
    for prefix in ("cover", "cover.exact_points", "intervals.intersect_shifted",
                   "embedding.find_matching_words", "embedding.check_embedding",
                   "embedding.enumerate_embeddings", "embedding.decompose",
                   "similitudes.is_symmetric", "similitudes.similarity_dimension",
                   "ifsfile.parse_ifs_file", "svg.render_strip", "cli.main"):
        for key, field in (("calls", "calls"), ("busy_s", "busy"), ("self_s", "self")):
            name = f"{prefix}.{key}"
            if name in LAYER_UNITS:
                out[name] = get(prefix, field)
    calls = get("cover", "calls")
    out["cover.distinct"] = get("cover", "distinct")
    out["cover.repeat_ratio"] = (calls - out["cover.distinct"]) / calls if calls else 0
    out["cover.pieces"] = get("cover", "pieces")
    out["intervals.intersect_shifted.parts_out"] = get("intervals.intersect_shifted", "parts_out")
    fmw = get("embedding.find_matching_words", "calls")
    out["embedding.find_matching_words.hits"] = get("embedding.find_matching_words", "hits")
    out["embedding.find_matching_words.hit_ratio"] = (
        out["embedding.find_matching_words.hits"] / fmw if fmw else 0)
    names = {(pin["theorem_id"], tuple(sorted(pin["params"].items()))): pin["name"]
             for pin in PINNED}
    for name in REPORT_NAMES:
        out[f"verify.{name}.busy_s"] = 0
    for tid, params, busy in stats.get("verify", {}).get("reports", []):
        name = names.get((tid, tuple(sorted(map(tuple, params)))))
        if name is not None:
            out[f"verify.{name}.busy_s"] += busy
    out["trace.overhead_ratio"] = overhead
    return {name: out[name] for name in LAYER_UNITS}


def traced(workload, seed, work, outcome):
    """Run one batch untraced, then the same batch traced in a fresh
    process, and set the per-layer metrics."""
    if workload in ("paper", "stream"):
        plain = run_worker(work, workload, seed, 0, 0, STREAM_TRACE_CYCLES)
        result = run_worker(work, workload, seed, 0, 1, STREAM_TRACE_CYCLES)
        for r in (plain, result):
            take_worker_result(r, outcome)
        snaps, ratio = [result["trace"]], result["work_s"] / plain["work_s"]
    else:
        specs = _spec_files(work)
        plain = cli_batch_run(seed, 0, specs, work, outcome)
        snaps = []
        result = cli_batch_run(seed, 0, specs, work, outcome, traced=True, traces=snaps)
        ratio = result["wall_s"] / plain["wall_s"]
    stats, absent = merge_traces(snaps)
    for name in absent:
        outcome.notes.append(f"absent wrap point: {name}")
    outcome.metrics = layer_metrics(stats, ratio)


WORKLOADS = {"paper": workload_paper, "stream": workload_stream, "cli-cold": workload_cli}


def run_workload(workload, seed, seconds, trace, work) -> Outcome:
    outcome = Outcome()
    outcome.problems += [f"checker: {p}" for p in checker.negative_control()]
    if trace:
        traced(workload, seed, work, outcome)
    else:
        setup = []
        WORKLOADS[workload](seed, seconds, work, outcome, setup)
        outcome.notes.append(f"setup_s is the median of {len(setup)} samples")
        outcome.metrics = {"setup_s": statistics.median(setup), **outcome.metrics}
    return outcome


def report(workload, outcome, units, out=sys.stdout):
    print(f"[{workload}] attempted {outcome.attempted}, failed {outcome.failed}, "
          f"fail_ratio {outcome.failed / max(outcome.attempted, 1):g}", file=out)
    for note in outcome.notes:
        print(f"[{workload}] {note}", file=out)
    for problem in outcome.problems[:20]:
        print(f"[{workload}] WRONG {problem}", file=out)
    for name, value in outcome.metrics.items():
        print(f"[{workload}] {name} {value:.6g} {units[name]}", file=out)


def result_json(outcome, units) -> dict:
    return {
        "correct": not outcome.problems,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "selfsim", "__init__.py")):
        print(f"selfsim sources not found under {SRC}", file=sys.stderr)
        return 2
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        results = {}
        for name in names:
            outcome = run_workload(name, args.seed, args.seconds, args.trace, work)
            report(name, outcome, units)
            results[name] = result_json(outcome, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
