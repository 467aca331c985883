"""What the benchmark's tracer reads from the program, checked without
running a benchmark: a traced result line must name every per-layer metric
that BENCHMARK.json lists, and `bench/tracing.py` silently drops a metric
whose function lost its binding or its cache."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402  (needs bench/ on the path)


def test_traced_targets_are_bound_callables():
    for name, (module, attr) in tracing.TRACED.items():
        assert callable(getattr(module, attr, None)), name


def test_traced_caches_report_cache_info():
    for metric, name in tracing.CACHES.items():
        module, attr = tracing.TRACED[name]
        assert callable(getattr(getattr(module, attr), "cache_info", None)), metric


def test_layer_metrics_name_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        m["name"]
        for m in spec["per_layer"]
        if not m["name"].startswith("cli.") and m["name"] != "trace.overhead_pct"
    }
    assert wanted <= set(tracing.Tracer().layer_metrics())
