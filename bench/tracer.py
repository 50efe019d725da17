"""Outside-in tracer for selfsim's public functions.

``install()`` replaces each function named in ``WRAP_POINTS`` with a
timing wrapper, in its own module and in every loaded ``selfsim`` module
that imported it by name, so calls between modules are seen too.  Nothing
in ``selfsim`` is edited.  A wrap point that no longer exists is listed in
``Tracer.absent`` instead of raising, so a rename shows up as missing
numbers rather than a crash.

For each wrap point the tracer counts calls, busy time (outermost calls
only, so recursion is not counted twice) and self time (the call's
duration minus the time spent in other wrapped calls it made), plus a few
exact counts taken from arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _cover_hook(stats, args, kwargs, result, _dur):
    ifs = args[0] if args else kwargs.get("ifs")
    depth = args[1] if len(args) > 1 else kwargs.get("depth")
    stats.setdefault("keys", set()).add((ifs, depth))
    stats["pieces"] = stats.get("pieces", 0) + result.piece_count


def _parts_out_hook(stats, _args, _kwargs, result, _dur):
    stats["parts_out"] = stats.get("parts_out", 0) + len(result.parts)


def _hits_hook(stats, _args, _kwargs, result, _dur):
    stats["hits"] = stats.get("hits", 0) + (1 if result else 0)


def _report_hook(stats, _args, _kwargs, result, dur):
    key = (result.theorem_id.value, tuple(result.params))
    reports = stats.setdefault("reports", {})
    reports[key] = reports.get(key, 0.0) + dur


# (module under selfsim, function name, metric prefix, hook)
WRAP_POINTS = (
    ("cover", "cover", "cover", _cover_hook),
    ("cover", "exact_points", "cover.exact_points", None),
    ("intervals", "intersect_shifted", "intervals.intersect_shifted", _parts_out_hook),
    ("embedding", "find_matching_words", "embedding.find_matching_words", _hits_hook),
    ("embedding", "check_embedding", "embedding.check_embedding", None),
    ("embedding", "enumerate_embeddings", "embedding.enumerate_embeddings", None),
    ("embedding", "decompose", "embedding.decompose", None),
    ("similitudes", "is_symmetric", "similitudes.is_symmetric", None),
    ("similitudes", "similarity_dimension", "similitudes.similarity_dimension", None),
    ("verify", "verify_three_map", "verify", _report_hook),
    ("verify", "verify_equal_gap", "verify", _report_hook),
    ("verify", "verify_corollary", "verify", _report_hook),
    ("verify", "verify_example_four_map", "verify", _report_hook),
    ("ifsfile", "parse_ifs_file", "ifsfile.parse_ifs_file", None),
    ("svg", "render_strip", "svg.render_strip", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # [child time] per open call
        self._depth: dict[str, int] = {}

    def _wrap(self, fn, prefix, hook):
        stats = self.stats.setdefault(prefix, {"calls": 0, "busy": 0.0, "self": 0.0})
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = depth.get(prefix, 0) == 0
            depth[prefix] = depth.get(prefix, 0) + 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                depth[prefix] -= 1
                stats["calls"] += 1
                stats["self"] += dur - frame[0]
                if outermost:
                    stats["busy"] += dur
                if stack:
                    stack[-1][0] += dur
            if hook is not None:
                hook(stats, args, kwargs, result, dur)
            return result

        return wrapper

    def install(self) -> "Tracer":
        # import every target module first, so that names imported into a
        # later module are replaced as well
        modules = {}
        for module_name, _name, _prefix, _hook in WRAP_POINTS:
            try:
                modules[module_name] = importlib.import_module(f"selfsim.{module_name}")
            except ImportError:
                pass
        for module_name, name, prefix, hook in WRAP_POINTS:
            module = modules.get(module_name)
            original = getattr(module, name, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{name}")
                continue
            wrapper = self._wrap(original, prefix, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "selfsim" or mod_name.startswith("selfsim.")
                ):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        return self

    def snapshot(self) -> dict:
        """JSON-ready copy of the counters."""
        out = {}
        for prefix, stats in self.stats.items():
            entry = {k: stats[k] for k in ("calls", "busy", "self")}
            for key in ("pieces", "parts_out", "hits"):
                if key in stats:
                    entry[key] = stats[key]
            if "keys" in stats:
                entry["distinct"] = len(stats["keys"])
            if "reports" in stats:
                entry["reports"] = [
                    [tid, [list(p) for p in params], busy]
                    for (tid, params), busy in stats["reports"].items()
                ]
            out[prefix] = entry
        return {"stats": out, "absent": self.absent}


def install() -> Tracer:
    return Tracer().install()
