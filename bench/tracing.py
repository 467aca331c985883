"""Spans and counts around the public calls of each cqelite layer.

`Tracer.install` replaces every binding of a traced function, in every
cqelite module that holds one, with a wrapper that records a span (name,
start, end, parent span, request id) in memory.  Only the outermost call of
a function counts towards its time, so a recursive or re-entrant call is not
counted twice.  `uninstall` puts the original functions back, so an
untraced round runs the program exactly as shipped.

In the memory round, three calls run under `tracemalloc` instead and only
their peak is kept; their timings would be distorted and are not recorded.
"""

from __future__ import annotations

import json
import time
import tracemalloc

import cqelite
from cqelite import censors, cli, gen, model, parser, reasoner, rewriting

import workloads

MODULES = (cqelite, parser, reasoner, censors, rewriting, cli, gen, model, workloads)

TRACED = {
    "parser.parse_tbox": (parser, "parse_tbox"),
    "parser.parse_abox": (parser, "parse_abox"),
    "parser.parse_policy": (parser, "parse_policy"),
    "parser.parse_query": (parser, "parse_query"),
    "reasoner.saturate_tbox": (reasoner, "saturate_tbox"),
    "reasoner.abox_closure": (reasoner, "abox_closure"),
    "reasoner.is_consistent": (reasoner, "is_consistent"),
    "reasoner.is_policy_consistent": (reasoner, "is_policy_consistent"),
    "reasoner.perfect_ref": (reasoner, "perfect_ref"),
    "reasoner.cq_entailed": (reasoner, "cq_entailed"),
    "censors.secrets": (censors, "secrets"),
    "censors.iar_repair": (censors, "iar_repair"),
    "censors.qib_entail": (censors, "qib_entail"),
    "censors.opt_ga_censor": (censors, "opt_ga_censor"),
    "censors.enumerate_optimal_ga_censors": (censors, "enumerate_optimal_ga_censors"),
    "censors.ib_entail": (censors, "ib_entail"),
    "rewriting.qib_rewrite_report": (rewriting, "qib_rewrite_report"),
    "rewriting.eval_fo": (rewriting, "eval_fo"),
    # the benchmark's own ABox revision: a new ABox value from the model layer
    "model.revise": (workloads, "revise"),
}

# calls whose result size is recorded as a count
SIZED = (
    "parser.parse_abox",
    "reasoner.abox_closure",
    "reasoner.perfect_ref",
    "censors.secrets",
    "censors.iar_repair",
    "censors.opt_ga_censor",
    "censors.enumerate_optimal_ga_censors",
)

# calls whose peak allocation is sampled in the memory round
MEMORY = ("censors.opt_ga_censor", "rewriting.qib_rewrite_report", "rewriting.eval_fo")

# lru caches whose hit ratio is reported, read from cache_info()
CACHES = {
    "reasoner.abox_closure_hit_ratio": "reasoner.abox_closure",
    "reasoner.is_consistent_hit_ratio": "reasoner.is_consistent",
    "reasoner.is_policy_consistent_hit_ratio": "reasoner.is_policy_consistent",
    "reasoner.perfect_ref_hit_ratio": "reasoner.perfect_ref",
}

SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []  # (name, start, end, parent, request)
        self.dropped = 0
        self.stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.calls: dict[str, list] = {}  # name -> [outermost calls, seconds]
        self.sizes: dict[str, list] = {}  # name -> [calls, total size]
        self.peaks: dict[str, int] = {}  # name -> peak bytes
        self.request = 0
        self.active = False  # record only while a timed call runs
        self.memory = False  # memory round: sample peaks, record no spans
        self.originals = {name: getattr(mod, fn) for name, (mod, fn) in TRACED.items()}
        self.wrappers = {name: self._wrap(name, fn) for name, fn in self.originals.items()}
        self.bindings = [
            (mod, attr, fn, self.wrappers[name])
            for name, fn in self.originals.items()
            for mod in MODULES
            for attr, value in list(vars(mod).items())
            if value is fn
        ]
        self.counting = False  # sum cache deltas around each timed request
        self.cache_delta = {metric: [0, 0] for metric in CACHES}  # [hits, misses]

    # -- installing

    def install(self) -> None:
        for mod, attr, _, wrapper in self.bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self.bindings:
            setattr(mod, attr, original)

    # -- recording

    def _wrap(self, name: str, fn):
        tracer = self
        sized = name in SIZED
        sampled = name in MEMORY

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tracer.memory:
                if not sampled or tracemalloc.is_tracing():
                    return fn(*args, **kwargs)
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peaks[name] = max(tracer.peaks.get(name, 0), peak)
            outer = tracer.depth.get(name, 0) == 0
            tracer.depth[name] = tracer.depth.get(name, 0) + 1
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans) + tracer.dropped
            tracer.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.depth[name] -= 1
                tracer._span(name, start, end, parent, outer)
            if outer:
                if sized:
                    tracer.count(name, len(result))
                elif name == "rewriting.qib_rewrite_report":
                    tracer.count("rewriting.fo_nodes", result[1].node_count)
                    tracer.count("rewriting.guard_count", result[1].guard_count)
                    tracer.count("rewriting.fo_bytes", len(parser.serialize_fo(result[0]).encode()))
            return result

        traced.__wrapped__ = fn
        return traced

    def _span(self, name, start, end, parent, outer) -> None:
        if len(self.spans) < SPAN_CAP:
            self.spans.append((name, start - self.t0, end - self.t0, parent, self.request))
        else:
            self.dropped += 1
        if outer:
            entry = self.calls.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start

    def count(self, name: str, value: float) -> None:
        entry = self.sizes.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += value

    def cache_counts(self) -> dict[str, tuple]:
        counts = {}
        for metric, name in CACHES.items():
            info = getattr(self.originals[name], "cache_info", None)
            if info is not None:
                i = info()
                counts[metric] = (i.hits, i.misses)
        return counts

    def add_cache_delta(self, before: dict[str, tuple]) -> None:
        for metric, (hits, misses) in self.cache_counts().items():
            self.cache_delta[metric][0] += hits - before[metric][0]
            self.cache_delta[metric][1] += misses - before[metric][1]

    # -- reporting

    def mean_ms(self, name: str) -> float:
        calls, seconds = self.calls.get(name, (0, 0.0))
        return 1000.0 * seconds / calls if calls else 0.0

    def mean_count(self, name: str) -> float:
        calls, total = self.sizes.get(name, (0, 0.0))
        return total / calls if calls else 0.0

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        _, parse_s = self.calls.get("parser.parse_abox", (0, 0.0))
        parsed = self.sizes.get("parser.parse_abox", (0, 0.0))[1]
        m = {
            "parser.parse_ms": (self.mean_ms("parser.parse_abox"), "ms"),
            "parser.atoms_per_s": (parsed / parse_s if parse_s else 0.0, "atoms/s"),
            "reasoner.saturate_tbox_ms": (self.mean_ms("reasoner.saturate_tbox"), "ms"),
            "reasoner.abox_closure_ms": (self.mean_ms("reasoner.abox_closure"), "ms"),
            "reasoner.closure_atoms": (self.mean_count("reasoner.abox_closure"), "count"),
            "reasoner.is_consistent_ms": (self.mean_ms("reasoner.is_consistent"), "ms"),
            "reasoner.perfect_ref_ms": (self.mean_ms("reasoner.perfect_ref"), "ms"),
            "reasoner.perfect_ref_size": (self.mean_count("reasoner.perfect_ref"), "count"),
            "reasoner.certain_ms": (self.mean_ms("reasoner.cq_entailed"), "ms"),
            "censors.secrets_ms": (self.mean_ms("censors.secrets"), "ms"),
            "censors.secret_count": (self.mean_count("censors.secrets"), "count"),
            "censors.iar_repair_ms": (self.mean_ms("censors.iar_repair"), "ms"),
            "censors.repair_atoms": (self.mean_count("censors.iar_repair"), "count"),
            "censors.opt_ga_censor_ms": (self.mean_ms("censors.opt_ga_censor"), "ms"),
            "censors.censor_atoms": (self.mean_count("censors.opt_ga_censor"), "count"),
            "censors.opt_ga_censor_peak_mb": (self.peak_mb("censors.opt_ga_censor"), "MB"),
            "censors.enumerate_ms": (self.mean_ms("censors.enumerate_optimal_ga_censors"), "ms"),
            "censors.optimal_censors": (self.mean_count("censors.enumerate_optimal_ga_censors"), "count"),
            "censors.ib_ms": (self.mean_ms("censors.ib_entail"), "ms"),
            "rewriting.compile_ms": (self.mean_ms("rewriting.qib_rewrite_report"), "ms"),
            "rewriting.fo_nodes": (self.mean_count("rewriting.fo_nodes"), "count"),
            "rewriting.guard_count": (self.mean_count("rewriting.guard_count"), "count"),
            "rewriting.fo_bytes": (self.mean_count("rewriting.fo_bytes"), "bytes"),
            "rewriting.compile_peak_mb": (self.peak_mb("rewriting.qib_rewrite_report"), "MB"),
            "rewriting.eval_fo_ms": (self.mean_ms("rewriting.eval_fo"), "ms"),
            "rewriting.eval_fo_peak_mb": (self.peak_mb("rewriting.eval_fo"), "MB"),
            "model.revise_ms": (self.mean_ms("model.revise"), "ms"),
        }
        for metric, name in CACHES.items():
            if hasattr(self.originals[name], "cache_info"):
                hits, misses = self.cache_delta[metric]
                m[metric] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        return m

    def peak_mb(self, name: str) -> float:
        return self.peaks.get(name, 0) / 2**20

    def write(self, path) -> None:
        """Write every span and aggregate once, at the end of the run."""
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "calls": {k: {"outermost_calls": c, "seconds": s} for k, (c, s) in sorted(self.calls.items())},
            "counts": {k: {"calls": c, "total": t} for k, (c, t) in sorted(self.sizes.items())},
            "peak_bytes": self.peaks,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
