"""The benchmark's traced entry points still reach every layer.

A traced perfbench run wraps the program's functions at the names their
callers use; a renamed or bypassed entry point leaves its per-layer metric
empty, and the run then ends without a result line."""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_coverage_probe_feeds_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import layertrace
    import workloads

    tracer = layertrace.Tracer()
    layertrace.install_layers(tracer)
    try:
        workloads.coverage_probe(tmp_path)
    finally:
        tracer.uninstall()
    metrics = layertrace.per_layer_metrics(tracer.spans, lambda s: True)
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(declared) == 31
    assert sorted(metrics) == sorted(declared)
    not_finite = {k: v for k, v in metrics.items()
                  if not (isinstance(v, float) and math.isfinite(v))}
    assert not not_finite
