"""Layer spans for the traced benchmark run.

The tracer wraps public wclt functions at their module attributes, in every
wclt module that binds them, so a CLI command or a library call is timed layer
by layer without editing the package.  Spans stay in memory as plain dicts
(name, start, end, parent, thread, counts) until the process ends; counts are
attached to the span where the work happens.

``iteration_metrics`` turns the spans of one benchmark iteration into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

import numpy as np

import wclt.cli  # noqa: F401  (loads every module that binds a traced name)
from wclt import chaos, weights
from wclt.patterns import copies_in_complete


class Tracer:
    """In-memory span recorder, safe to call from worker threads.

    A span opened on a worker thread with no open span of its own takes the
    innermost open span of the main thread as its parent: the call that
    caused it.  A call nested inside a span of the same name is not a new
    span, so recursion and re-exports are counted once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self.spans: list[dict] = []

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            with self._lock:
                stack = self._stacks.setdefault(thread, [])
                if any(self.spans[i]["name"] == name for i in stack):
                    sid = None
                else:
                    cause = stack or self._stacks.get(self._main, [])
                    sid = len(self.spans)
                    self.spans.append({"name": name, "parent": cause[-1] if cause else None,
                                       "thread": thread, "main": thread == self._main})
                    stack.append(sid)
            if sid is None:
                return fn(*args, **kwargs)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                with self._lock:
                    stack.pop()
                    self.spans[sid].update(start=start, end=end)
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.spans[sid]["counts"] = counter(bound, result)
            return result

        return traced


# -- counters: what each layer did, recorded where it happened ---------------


def _count_copies(args, result):
    return {"patterns.copies": len(result)}


def _count_uniforms(args, result):
    return {"rng.uniforms": int(args["rows"]) * int(args["cols"])}


def _count_quantiles(args, result):
    return {"weights.quantile_values": int(np.size(args["u"]))}


def _census_counter():
    seen = set()  # the library caches one census per (pattern, n) and process

    def count(args, result):
        key = (args["pattern"], args["n"])
        if key in seen or not result:
            return {}
        seen.add(key)
        copies = result[args["pattern"].num_edges]
        return {"graph_stats.census_pairs": copies * copies,
                "graph_stats.census_overlapping": sum(result.values())}

    return count


def _count_gather(args, result):
    pattern, p = args["pattern"], float(args["p"])
    ops = int(args["reps"]) * copies_in_complete(pattern, args["n"]) * pattern.num_edges
    return {"graph_stats.gather_ops": ops,
            "graph_stats.gather_surviving": ops * p ** pattern.num_edges}


def _count_samples(args, result):
    return {"distance.samples": result.sample_size}


def _count_point(args, result):
    return {"bounds.points": 1}


def _count_stein_paths(args, result):
    return {"chaos.paths": int(args["n_paths"])}


def _count_eval_paths(args, result):
    return {"chaos.paths": int(np.size(result))}


def _count_kernels(args, result):
    return {"graph_chaos.dense_elements": sum(k.values.size for k in result.kernels),
            "graph_chaos.kernel_nonzeros": sum(int(np.count_nonzero(k.values))
                                               for k in result.kernels)}


CLI_COMMANDS = ("_cmd_bound", "_cmd_simulate", "_cmd_distance", "_cmd_chaos_verify",
                "_cmd_rate_sweep")

def _targets() -> list[tuple]:
    """(module, attribute, span name, counter or None) for every traced function."""
    return [
        ("wclt.cli", "_chaos_checks", "chaos.verify", None),
        ("wclt.patterns", "enumerate_copies", "patterns.enumerate_copies", _count_copies),
        ("wclt.rng", "uniform_matrix", "rng.uniform_matrix", _count_uniforms),
        ("wclt.graph_stats", "intersection_pair_census", "graph_stats.pair_census",
         _census_counter()),
        ("wclt.graph_stats", "exact_variance", "graph_stats.exact_variance", None),
        ("wclt.graph_stats", "normalized_samples", "graph_stats.normalized_samples", _count_gather),
        ("wclt.bounds", "rate_term", "bounds.rate_term", _count_point),
        ("wclt.bounds", "wasserstein_bound", "bounds.wasserstein_bound", _count_point),
        ("wclt.bounds", "regime_bound", "bounds.regime_bound", _count_point),
        ("wclt.distance", "wasserstein1_to_normal", "distance.w1", _count_samples),
        ("wclt.chaos", "stein_bound_terms", "chaos.stein_bound_terms", _count_stein_paths),
        ("wclt.chaos", "derivative_values_many", "chaos.derivative_values_many", None),
        ("wclt.graph_chaos", "graph_weight_family", "graph_chaos.family", _count_kernels),
    ] + [("wclt.cli", cmd, "cli." + cmd[len("_cmd_"):], None) for cmd in CLI_COMMANDS]


def install(tracer: Tracer) -> None:
    """Replace each traced function by its span wrapper wherever wclt binds it."""
    modules = [m for name, m in sys.modules.items() if name == "wclt" or name.startswith("wclt.")]
    for module_name, attr, span, counter in _targets():
        original = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(span, original, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    for cls in (weights.WeightModel, *weights.WeightModel.__subclasses__()):
        if "quantile_array" in vars(cls):
            cls.quantile_array = tracer.wrap("weights.quantile_array",
                                             vars(cls)["quantile_array"], _count_quantiles)
    chaos.KernelFamily.eval_many = tracer.wrap("chaos.eval_many", chaos.KernelFamily.eval_many,
                                               _count_eval_paths)


# -- per-layer metrics -------------------------------------------------------

_BOUNDS = ("bounds.rate_term", "bounds.wasserstein_bound", "bounds.regime_bound")
_CLI = tuple("cli." + cmd[len("_cmd_"):] for cmd in CLI_COMMANDS)

# metric -> (kind, span names).  "total" sums the spans with no ancestor among
# the names (busy time, summed over threads); "self" subtracts from each span
# its direct children on the same thread.
TIME_METRICS = {
    "graph_stats.pair_census_s": ("total", ("graph_stats.pair_census",)),
    "graph_stats.accumulate_s": ("self", ("graph_stats.normalized_samples",)),
    "graph_stats.exact_variance_s": ("self", ("graph_stats.exact_variance",)),
    "rng.uniform_matrix_s": ("total", ("rng.uniform_matrix",)),
    "weights.quantile_array_s": ("total", ("weights.quantile_array",)),
    "patterns.enumerate_copies_s": ("total", ("patterns.enumerate_copies",)),
    "graph_chaos.family_s": ("total", ("graph_chaos.family",)),
    "chaos.stein_bound_terms_s": ("self", ("chaos.stein_bound_terms",)),
    "chaos.derivative_values_many_s": ("total", ("chaos.derivative_values_many",)),
    "chaos.eval_many_s": ("total", ("chaos.eval_many",)),
    "chaos.verify_s": ("total", ("chaos.verify",)),
    "distance.w1_s": ("total", ("distance.w1",)),
    "bounds.bound_s": ("total", _BOUNDS),
    "cli.self_s": ("self", _CLI),
}

COUNT_METRICS = ("graph_stats.census_pairs", "graph_stats.gather_ops", "rng.uniforms",
                 "weights.quantile_values", "patterns.copies", "graph_chaos.dense_elements",
                 "graph_chaos.kernel_nonzeros", "chaos.paths", "distance.samples",
                 "bounds.points")

# Counts the benchmark derives from arguments or results rather than observes
# as work done; the output labels them as computed.
COMPUTED = ("graph_stats.census_pairs", "graph_stats.census_useful_ratio",
            "graph_stats.gather_ops", "graph_stats.gather_useful_ratio",
            "rng.bytes_computed", "graph_chaos.dense_elements", "cli.csv_rows")


# Every per-layer metric an iteration reports, besides bench.trace_overhead_s,
# which compares traced and untraced iterations.
LAYER_METRICS = (*TIME_METRICS, *COUNT_METRICS, "graph_stats.census_useful_ratio",
                 "graph_stats.gather_useful_ratio", "rng.bytes_computed", "cli.csv_rows",
                 "bench.unattributed_s")


def _ancestors(spans: list[dict], span: dict):
    parent = span["parent"]
    while parent is not None:
        yield spans[parent]
        parent = spans[parent]["parent"]


def process_metrics(spans: list[dict]) -> dict:
    """Per-layer times and counts of one traced process."""
    children = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None and span["thread"] == spans[parent]["thread"]:
            children[parent] = children.get(parent, 0.0) + span["end"] - span["start"]
    out = dict.fromkeys(TIME_METRICS, 0.0)
    for metric, (kind, names) in TIME_METRICS.items():
        for i, span in enumerate(spans):
            if span["name"] not in names:
                continue
            if kind == "self":
                out[metric] += span["end"] - span["start"] - children.get(i, 0.0)
            elif not any(a["name"] in names for a in _ancestors(spans, span)):
                out[metric] += span["end"] - span["start"]
    counts = {}
    for span in spans:
        for key, value in span.get("counts", {}).items():
            # a count is taken where the work happens, not again by an enclosing span
            if not any(key in a.get("counts", {}) for a in _ancestors(spans, span)):
                counts[key] = counts.get(key, 0) + value
    out.update(counts)
    out["root_s"] = sum(s["end"] - s["start"] for s in spans if s["main"] and s["parent"] is None)
    return out


def iteration_metrics(processes: list[dict], wall: float, setup: float, csv_rows: int) -> dict:
    """Per-layer metrics of one traced iteration, summed over its processes."""
    total: dict = {}
    for proc in processes:
        for key, value in process_metrics(proc["spans"]).items():
            total[key] = total.get(key, 0) + value
    metrics = {name: total.get(name, 0) for name in (*TIME_METRICS, *COUNT_METRICS)}
    pairs, ops = total.get("graph_stats.census_pairs", 0), total.get("graph_stats.gather_ops", 0)
    metrics["graph_stats.census_useful_ratio"] = (
        total.get("graph_stats.census_overlapping", 0) / pairs if pairs else 0.0)
    metrics["graph_stats.gather_useful_ratio"] = (
        total.get("graph_stats.gather_surviving", 0) / ops if ops else 0.0)
    metrics["rng.bytes_computed"] = 8 * metrics["rng.uniforms"]
    metrics["cli.csv_rows"] = csv_rows
    metrics["bench.unattributed_s"] = wall - setup - total.get("root_s", 0.0)
    return metrics
