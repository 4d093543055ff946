"""Spans around the calls from one multidom layer into the next.

The traced run replaces, from outside the package, each module-level name
listed in ``BOUNDARIES`` (and every other multidom module's binding of the
same object) by a wrapper that records a span: name, start, end, parent and
a few counts read off the call. Spans stay in memory and are written out
when the run ends. End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _edges(args, kwargs, result):
    return {"edges": result.m}


def _vertices(args, kwargs, result):
    return {"vertices": args[0].n}


def _construction(args, kwargs, result):
    return {"trials": result.trials, "met": int(result.met_target)}


def _nodes(args, kwargs, result):
    return {"nodes": result.nodes_explored}


def _reports(args, kwargs, result):
    return {"reports": len(result)}


# (span name, module, attribute, counts taken from the call). A span named
# "cli" takes the subcommand as suffix: cli.gen, cli.bounds, ...
BOUNDARIES = (
    ("graph.generate", "multidom.graph", "gnp", _edges),
    ("graph.generate", "multidom.graph", "random_regular", _edges),
    ("graph.generate", "multidom.graph", "cycle", _edges),
    ("graph.generate", "multidom.graph", "petersen", _edges),
    ("graph.write", "multidom.graph", "write_graph", None),
    ("graph.read", "multidom.graph", "load_graph", _edges),
    ("graph.csr", "multidom.graph", "Graph.csr", None),
    ("verify.set", "multidom.verify", "verify_set", _vertices),
    ("verify.function", "multidom.verify", "verify_function", _vertices),
    ("verify.feasibility", "multidom.verify", "DominationSpec.feasibility", None),
    ("bounds.eval", "multidom.bounds", "bounds_for_spec", _reports),
    ("construct", "multidom.construct", "construct_parametric", _construction),
    ("construct", "multidom.construct", "construct_rs", _construction),
    ("construct", "multidom.construct", "construct_total_rs", _construction),
    ("oracle.set", "multidom.oracle", "exact_set_number", _nodes),
    ("oracle.function", "multidom.oracle", "exact_function_number", _nodes),
    ("kernels.search", "multidom._kernels", "set_search_fixed_size", None),
    ("kernels.search", "multidom._kernels", "function_search_min_weight", None),
    ("kernels.suffix", "multidom._kernels", "suffix_counts", None),
    ("tuner.compare", "multidom.tuner", "compare_bounds", None),
    ("cli", "multidom.cli", "main", None),
)

CLI_COMMANDS = ("gen", "bounds", "construct", "verify", "compare")

# name -> unit, in the order the traced run reports them
LAYER_METRICS = {
    "graph.generate_s": "s",
    "graph.generate_edges_per_s": "edges/s",
    "graph.write_s": "s",
    "graph.read_s": "s",
    "graph.read_edges_per_s": "edges/s",
    "graph.csr_s": "s",
    "verify.set_s": "s",
    "verify.function_s": "s",
    "verify.feasibility_s": "s",
    "verify.calls": "count",
    "verify.vertices_per_s": "vertices/s",
    "construct.self_s": "s",
    "construct.verify_s": "s",
    "construct.trials": "count",
    "construct.trials_per_s": "trials/s",
    "construct.met_per_instance": "ratio",
    "oracle.set_s": "s",
    "oracle.function_s": "s",
    "oracle.self_s": "s",
    "oracle.nodes": "count",
    "oracle.nodes_per_s": "nodes/s",
    "kernels.search_s": "s",
    "kernels.suffix_s": "s",
    "bounds.eval_s": "s",
    "bounds.reports": "count",
    "tuner.compare_s": "s",
    "cli.gen_s": "s",
    "cli.bounds_s": "s",
    "cli.construct_s": "s",
    "cli.verify_s": "s",
    "cli.compare_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


class Tracer:
    """Records spans in memory; ``phase`` tags each span 'setup' or 'run'."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.phase = "setup"
        self.active = True

    def install(self) -> None:
        """Wrap every boundary in ``BOUNDARIES``; multidom must be imported."""
        for name, module, attr, counts in BOUNDARIES:
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth), counts))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, counts)
            for other_name, other in list(sys.modules.items()):
                if other_name.split(".")[0] != "multidom" or other is None:
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapper)

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_name = name
            if name == "cli":
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.{argv[0]}"
            index = len(self.spans)
            span = {
                "name": span_name,
                "parent": self._stack[-1] if self._stack else -1,
                "phase": self.phase,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def paused(self):
        """Calls made by the output checks are not spans."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def layer_metrics(self, rounds: int, output_bytes_per_round: float) -> dict:
        """Per-layer metrics for one round of the workload.

        Spans of the timed part count 1/rounds each, set-up spans count once,
        so times and counts are per round with set-up work included.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end"] - s["start"]
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(float)
        counts = defaultdict(float)
        construct_verify = 0.0
        for i, s in enumerate(spans):
            w = 1.0 if s["phase"] == "setup" else 1.0 / rounds
            name = s["name"]
            dur = s["end"] - s["start"]
            total[name] += w * dur
            own[name] += w * (dur - child[i])
            calls[name] += w
            for key, value in s.get("counts", {}).items():
                counts[f"{name}.{key}"] += w * value
            if name in ("verify.set", "verify.function") and s["parent"] >= 0:
                if spans[s["parent"]]["name"] == "construct":
                    construct_verify += w * dur
        verify_s = total["verify.set"] + total["verify.function"]
        oracle_s = total["oracle.set"] + total["oracle.function"]
        values = {
            "graph.generate_s": total["graph.generate"],
            "graph.generate_edges_per_s": _ratio(counts["graph.generate.edges"], total["graph.generate"]),
            "graph.write_s": total["graph.write"],
            "graph.read_s": total["graph.read"],
            "graph.read_edges_per_s": _ratio(counts["graph.read.edges"], total["graph.read"]),
            "graph.csr_s": total["graph.csr"],
            "verify.set_s": total["verify.set"],
            "verify.function_s": total["verify.function"],
            "verify.feasibility_s": total["verify.feasibility"],
            "verify.calls": calls["verify.set"] + calls["verify.function"],
            "verify.vertices_per_s": _ratio(
                counts["verify.set.vertices"] + counts["verify.function.vertices"], verify_s
            ),
            "construct.self_s": own["construct"],
            "construct.verify_s": construct_verify,
            "construct.trials": counts["construct.trials"],
            "construct.trials_per_s": _ratio(counts["construct.trials"], total["construct"]),
            "construct.met_per_instance": _ratio(counts["construct.met"], calls["construct"]),
            "oracle.set_s": total["oracle.set"],
            "oracle.function_s": total["oracle.function"],
            "oracle.self_s": own["oracle.set"] + own["oracle.function"],
            "oracle.nodes": counts["oracle.set.nodes"] + counts["oracle.function.nodes"],
            "oracle.nodes_per_s": _ratio(
                counts["oracle.set.nodes"] + counts["oracle.function.nodes"], oracle_s
            ),
            "kernels.search_s": total["kernels.search"],
            "kernels.suffix_s": total["kernels.suffix"],
            "bounds.eval_s": total["bounds.eval"],
            "bounds.reports": counts["bounds.eval.reports"],
            "tuner.compare_s": total["tuner.compare"],
            "cli.self_s": sum(own[f"cli.{c}"] for c in CLI_COMMANDS),
            "cli.output_bytes": output_bytes_per_round,
        }
        for c in CLI_COMMANDS:
            values[f"cli.{c}_s"] = total[f"cli.{c}"]
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
