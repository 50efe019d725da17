"""Worker process for the benchmark: one fresh interpreter per batch.

    worker.py paper  --trace 0|1
    worker.py stream --seed N --batch B --cycles K --trace 0|1
    worker.py cli-traced TRACE_OUT -- <selfsim arguments>

``paper`` and ``stream`` print one JSON object on the last line of
stdout.  ``cli-traced`` runs ``selfsim.cli.main`` under the tracer, writes
the trace to TRACE_OUT and exits with the command's exit code.  selfsim is
imported from the ``src`` directory on PYTHONPATH, which bench/run.py
sets.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

import checker
import queries

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _depths(query):
    return query.get("depths", queries.DEFAULT_DEPTHS)


def _expect_problem(query, rec) -> str | None:
    expect = query["expect"]
    got = checker.verdict_class(rec)
    if expect in ("included", "excluded") and got != expect:
        return f"expected {expect}, got {rec.get('kind')}"
    return None


def check_answer(query, answer) -> str | None:
    """Why the answer to ``query`` is wrong, or None.  ``answer`` is the
    record form: a verdict record, an enumeration record, or the
    (lo, hi) enclosure of a dimension query."""
    maps = queries.MAPS[query["system"]]
    kind = query["kind"]
    if kind == "enumerate":
        return checker.check_enumeration(
            maps, Fraction(query["ratio"]), answer, _depths(query))
    if kind == "dimension":
        lo, hi = answer
        return checker.check_dimension(maps, Fraction(query["tol"]), lo, hi)
    f = (Fraction(query["ratio"]), Fraction(query["offset"]))
    return _expect_problem(query, answer) or checker.check_verdict(
        maps, f, answer, _depths(query))


class Session:
    """A long-lived library session over the system pool."""

    def __init__(self, selfsim):
        self.s = selfsim
        self.ifs = {name: selfsim.parse_ifs(text) for name, text in queries.SYSTEMS.items()}

    def warm(self):
        # fill the cover caches a long-lived session would already hold
        for name in self.ifs:
            for depth in range(1, queries.DEFAULT_DEPTHS["cover_depth"] + 1):
                self.s.cover(self.ifs[name], depth)
            self.s.exact_points(self.ifs[name], queries.DEFAULT_DEPTHS["point_depth"])

    def call(self, query):
        """Run one query through the public API; returns the record form."""
        s, ifs, kind = self.s, self.ifs[query["system"]], query["kind"]
        d = _depths(query)
        depth_args = (d["point_depth"], d["cover_depth"], d["branch_depth"])
        if kind == "enumerate":
            return s.enumeration_record(
                s.enumerate_embeddings(ifs, Fraction(query["ratio"]), *depth_args))
        if kind == "dimension":
            iv = s.similarity_dimension(ifs, Fraction(query["tol"]))
            return (iv.lo, iv.hi)
        f = s.Similitude(Fraction(query["ratio"]), Fraction(query["offset"]))
        if kind == "decompose":
            return s.verdict_record(s.decompose(
                ifs, f, point_depth=d["point_depth"], cover_depth=d["cover_depth"],
                branch_depth=d["branch_depth"]))
        return s.verdict_record(s.check_embedding(ifs, f, *depth_args))

    def run(self, batch):
        """Time each query; check the answers after the clock stops."""
        ops = []
        clock = time.perf_counter
        for query in batch:
            start = clock()
            try:
                answer = self.call(query)
                error = None
            except Exception as exc:  # an op that raises counts as failed
                answer, error = None, f"{type(exc).__name__}: {exc}"
            ms = (clock() - start) * 1000
            if error is None:
                error = check_answer(query, answer)
            ops.append({"kind": query["kind"], "ms": ms, "error": error})
        return ops


def pinned_reports() -> list[dict]:
    with open(os.path.join(DATA, "paper_inventory.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_paper(rc: int, output: str) -> tuple[list[str], list[str]]:
    """(names of failed reports, problems) for the record output of
    verify-paper.  Inventory rows are compared to the pinned copy; checks
    must all be ok, but their list is not pinned."""
    pinned = {(p["theorem_id"], json.dumps(p["params"], sort_keys=True)): p
              for p in pinned_reports()}
    failed, problems, seen = set(), [], set()
    for line in output.splitlines():
        rec = json.loads(line) if line.strip() else None
        if rec is None:
            continue
        key = (rec.get("theorem_id"), json.dumps(rec.get("params"), sort_keys=True))
        pin = pinned.get(key)
        if pin is None:
            problems.append(f"unexpected report {key}")
            continue
        seen.add(key)
        name = pin["name"]
        rows = [{"ratio": r["ratio"],
                 "expected": [[m["ratio"], m["offset"]] for m in r["expected"]],
                 "actual": [[m["ratio"], m["offset"]] for m in r["actual"]]}
                for r in rec.get("rows", [])]
        bad = [c["label"] for c in rec.get("checks", []) if not c.get("ok")]
        for wrong, text in ((not rec.get("passed"), "report failed"),
                            (bad, f"checks failed: {bad}"),
                            (rows != pin["rows"], "inventory rows differ from the pinned copy")):
            if wrong:
                failed.add(name)
                problems.append(f"{name}: {text}")
    for key, pin in pinned.items():
        if key not in seen:
            failed.add(pin["name"])
            problems.append(f"{pin['name']}: report missing")
    if rc != 0:
        problems.append(f"verify-paper exited {rc}")
        if not failed:
            failed = {p["name"] for p in pinned.values()}
    return sorted(failed), problems


def run_paper(selfsim_cli):
    start = time.perf_counter()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = selfsim_cli.main(["verify-paper", "--format", "record"])
    suite_s = time.perf_counter() - start
    failed_reports, problems = check_paper(rc, out.getvalue())
    return {"suite_s": suite_s, "work_s": suite_s, "failed_reports": failed_reports,
            "report_problems": problems, "ops": []}


def run_stream(args, selfsim):
    session = Session(selfsim)
    session.warm()
    batch = queries.stream_batch(args.seed, args.batch, args.cycles)
    start = time.perf_counter()
    ops = session.run(batch)
    batch_s = time.perf_counter() - start
    return {"batch_s": batch_s, "work_s": batch_s, "ops": ops,
            "digest": queries.digest(batch)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "cli-traced":
        trace_out, args = argv[1], argv[3:]
        import tracer
        trace = tracer.install()
        import selfsim.cli
        try:
            return selfsim.cli.main(args)
        finally:
            with open(trace_out, "w", encoding="utf-8") as fh:
                json.dump(trace.snapshot(), fh)

    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("paper", "stream"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch", type=int, default=0)
    parser.add_argument("--cycles", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    trace = None
    if args.trace:
        import tracer
        trace = tracer.install()
    import selfsim
    import selfsim.cli

    if args.mode == "paper":
        result = run_paper(selfsim.cli)
    else:
        result = run_stream(args, selfsim)
    result["rss_mb"] = _rss_mb()
    result["selfsim_file"] = selfsim.__file__
    if trace is not None:
        result["trace"] = trace.snapshot()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
