"""Spans around the calls into endokit's layers, recorded from outside it.

Each traced function is replaced, in every endokit module that holds a
reference to it, by a wrapper that records one span: its name, start, end,
the span that was open when it started, and the digest of the scenario being
checked (the trace identifier shared by all spans of one scenario).  A
layer's self time is a span's duration minus the time its wrapped children
covered.  Spans are kept in memory and written once, when the run ends.

Descent-suite workers of a ``--jobs N`` pool are forked after the wrappers
are installed, so they record into their own copy of the tracer; each of
their tasks dumps what it recorded to a file that the parent merges.
"""

from __future__ import annotations

import functools
import glob
import inspect
import itertools
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict

# (metric prefix, module, class or None, attribute): the layers' public
# functions, and constructors, which are looked up on their class.
SPANNED = (
    ("campaign.scenario_corpus", "endokit.campaign", None, "scenario_corpus"),
    ("campaign.check_scenario", "endokit.campaign", None, "check_scenario"),
    ("campaign.outcome_shape", "endokit.campaign", None, "outcome_shape"),
    ("descent.descend", "endokit.descent", None, "descend"),
    ("descent.compatibility_check", "endokit.descent", None, "compatibility_check"),
    ("enatural.Ambient", "endokit.enatural", "Ambient", "__init__"),
    ("enatural.pushed_group_check", "endokit.enatural", None, "pushed_group_check"),
    ("enatural.enumerate_E_natural", "endokit.enatural", None, "enumerate_E_natural"),
    ("enatural.verify_identities", "endokit.enatural", None, "verify_identities"),
    ("enatural.verify_index_sets", "endokit.enatural", None, "verify_index_sets"),
    ("intlinalg.hnf_rows", "endokit._intlinalg", None, "hnf_rows"),
    ("intlinalg.snf_with_transforms", "endokit._intlinalg", None, "snf_with_transforms"),
    ("intlinalg.det_int", "endokit._intlinalg", None, "det_int"),
    ("endoscopy.correspond_mu1_check", "endokit.endoscopy", None, "correspond_mu1_check"),
)
# Counted without a span: constructions of eigenvalue multisets, and the
# shape-cache misses (every call of the uncached check path).
COUNTED = (
    ("endoscopy.EigenMultiset", "endokit.endoscopy", "EigenMultiset", "__post_init__"),
    ("campaign.shape_cache.misses", "endokit.campaign", None, "_check_outcome"),
)
MEMO_TABLES = ("diag_intersect", "diag_product", "diag_identity_component", "diag_index")


def _modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "endokit" and m]


def _replace_everywhere(original, wrapper) -> None:
    """Point every endokit module's reference to ``original`` at ``wrapper``."""
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def memo_info() -> tuple[int, int]:
    """(hits, misses) summed over the lattice layer's memo tables."""
    from endokit import lattices

    infos = [getattr(lattices, t).cache_info() for t in MEMO_TABLES]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.entries = 0
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, trace id)
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._ids = itertools.count(os.getpid() * 10**9 + 1)  # unique across pool workers
        self.trace_id = ""

    def _spanned(self, fn, name: str):
        perf = time.perf_counter
        sets_trace = name == "campaign.check_scenario"
        eager = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            frame = [next(self._ids), 0.0]
            parent = stack[-1][0] if stack else 0
            if sets_trace:
                self.trace_id = args[0].digest()
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
                if eager:  # time the whole enumeration, not the generator's creation
                    result = iter(list(result))
            finally:
                end = perf()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                self.calls[name] += 1
                self.self_s[name] += took - frame[1]
                self.spans.append((frame[0], parent, name, start, end, self.trace_id))
                if sets_trace:
                    self.trace_id = ""
            if name == "enatural.enumerate_E_natural":
                self.entries += len(result)
            return result

        return traced

    def _counted(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every traced function and constructor of the imported library."""
        for targets, wrap in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, mod, cls, attr in targets:
                if cls:
                    klass = getattr(sys.modules[mod], cls)
                    setattr(klass, attr, wrap(getattr(klass, attr), name))
                else:
                    original = getattr(sys.modules[mod], attr)
                    _replace_everywhere(original, wrap(original, name))
        task = sys.modules["endokit.campaign"]._check_bucket_worker
        _replace_everywhere(task, self._worker_task(task))

    def _worker_task(self, fn):
        """Wrap a pool task so that it dumps what its worker recorded."""

        @functools.wraps(fn)
        def task(args):
            self.reset()
            hits0, misses0 = memo_info()
            try:
                return fn(args)
            finally:
                hits1, misses1 = memo_info()
                path = os.path.join(self.out_dir, f"worker-{os.getpid()}-{time.monotonic_ns()}.json")
                with open(path, "w") as fh:
                    json.dump(
                        {
                            "calls": self.calls,
                            "self_s": self.self_s,
                            "entries": self.entries,
                            "memo": [hits1 - hits0, misses1 - misses0],
                            "spans": self.spans,
                        },
                        fh,
                    )

        return task

    def merge_workers(self) -> tuple[int, int]:
        """Fold the pool workers' dumps into this tracer; returns their memo
        (hits, misses)."""
        hits = misses = 0
        for path in sorted(glob.glob(os.path.join(self.out_dir, "worker-*.json"))):
            with open(path) as fh:
                dump = json.load(fh)
            os.remove(path)
            for k, v in dump["calls"].items():
                self.calls[k] += v
            for k, v in dump["self_s"].items():
                self.self_s[k] += v
            self.entries += dump["entries"]
            hits += dump["memo"][0]
            misses += dump["memo"][1]
            self.spans.extend(tuple(s) for s in dump["spans"])
        return hits, misses

    def layer_metrics(self, run: dict) -> dict[str, float]:
        """Per-layer figures of one traced run; ``run`` holds the workload's
        own timings and its report's suite timings."""
        hits, misses = memo_info()
        worker_hits, worker_misses = self.merge_workers()
        hits, misses = hits + worker_hits, misses + worker_misses
        durations = sorted(
            (end - start) * 1e3 for _, _, name, start, end, _ in self.spans if name == "campaign.check_scenario"
        )
        scenarios = self.calls["campaign.check_scenario"]
        shapes = self.calls["campaign.shape_cache.misses"]
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        out = {
            "campaign.verdict_s": run["verdict_s"],
            "campaign.scenarios": scenarios,
            "campaign.check_scenario.samples": len(durations),
            "campaign.check_scenario.p50_ms": statistics.median(durations) if durations else 0.0,
            "campaign.check_scenario.p99_ms": _quantile(durations, 0.99),
            "campaign.shape_cache.misses": shapes,
            "campaign.shape_cache.hit_ratio": 1 - shapes / scenarios if scenarios else 0.0,
            "campaign.report.s": run["report_s"],
            "campaign.report.mb": run["report_mb"],
            "campaign.pool.worker_cpu_s": children.ru_utime + children.ru_stime,
            "campaign.pool.worker_rss_mb": children.ru_maxrss / 1024,
            "campaign.pool.parent_cpu_s": run["campaign_cpu_s"],
            "enatural.entries": self.entries,
            "lattices.memo.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "lattices.memo.misses": misses,
            "endoscopy.EigenMultiset.calls": self.calls["endoscopy.EigenMultiset"],
        }
        for suite in sys.modules["endokit.campaign"].SUITES:
            out[f"campaign.suite.{suite}.s"] = run["suite_timings"].get(suite, 0.0)
        for name, *_ in SPANNED:
            if name == "campaign.check_scenario":
                continue  # its spans give the percentiles above
            if not name.startswith("campaign."):
                out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        return out

    def write(self, path: str, metrics: dict) -> None:
        """Write the per-layer figures, then every span, one JSON line each."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"metrics": metrics, "span_fields": ["id", "parent", "name", "start", "end", "trace"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), (".s", "s"), ("_mb", "MB"), (".mb", "MB"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when it is empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]
