"""Spans around the calls into each layer of the program, recorded from the
benchmark's own code.

A wrapper is installed at the name the caller looks up (for example
``evfusion.fusion.stack_events``, which ``Model.encode_sample`` calls), so
no file of the program changes. Spans carry a name, start, end, parent and
the identifier of the benchmark operation that caused them; they are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.op_id: int | str = "setup"

    def install(self, owner, attr: str, name, after=None,
                count_tensors: bool = False) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``name`` (or ``name(args, kwargs)``); ``after(span, result, args,
        kwargs)`` may add counts, and ``count_tensors`` adds the number of
        autodiff tensors the call created."""
        original = getattr(owner, attr)
        span_name = name if callable(name) else (lambda args, kwargs: name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = {"name": span_name(args, kwargs), "op": tracer.op_id,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            first_node = _node_count() if count_tensors else 0
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if count_tensors:
                span["tensors"] = _node_count() - first_node - 1
            if after is not None:
                after(span, result, args, kwargs)
            return result

        self._installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ms and self ms (inclusive minus
        the time its child spans cover)."""
        child_ms = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ms[s["parent"]] += (s["end"] - s["start"]) * 1e3
        out: dict[str, dict] = {}
        for s, cm in zip(self.spans, child_ms):
            row = out.setdefault(s["name"], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            d = (s["end"] - s["start"]) * 1e3
            row["calls"] += 1
            row["total_ms"] += d
            row["self_ms"] += d - cm
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "layers": self.self_times(),
                                    "spans": self.spans}) + "\n")


def _node_count() -> int:
    from evfusion.autodiff import Tensor
    return Tensor(0.0).node_id


def _dir_bytes(directory) -> int:
    return sum(f.stat().st_size for f in Path(directory).iterdir() if f.is_file())


def install_layers(tracer: Tracer) -> None:
    """Wrap every public entry point the per-layer metrics time."""
    import evfusion.autodiff as autodiff
    import evfusion.cli as cli
    import evfusion.config as config
    import evfusion.data_files as data_files
    import evfusion.events as events
    import evfusion.fusion as fusion
    import evfusion.params as params
    import evfusion.trainer as trainer

    state: dict = {}

    tracer.install(config, "make_datasets", "config.make_datasets")
    tracer.install(cli, "make_datasets", "config.make_datasets")
    tracer.install(events, "simulate_dvs", "events.simulate_dvs",
                   after=lambda span, r, a, k: span.__setitem__("events", len(r)))
    tracer.install(events, "stack_events", "events.stack_events")
    tracer.install(fusion, "stack_events", "events.stack_events")
    tracer.install(data_files, "parse_events_csv", "events.parse_csv")
    tracer.install(data_files, "parse_events_binary", "events.parse_binary")

    def sample_bytes(span, result, args, kwargs):
        fmt = kwargs.get("event_format", args[2] if len(args) > 2 else "csv")
        span["bytes_" + fmt] = _dir_bytes(args[1])

    tracer.install(data_files, "write_sample", "data_files.write_sample", after=sample_bytes)
    tracer.install(data_files, "read_sample", "data_files.read_sample")
    tracer.install(data_files, "read_ppm", "data_files.read_ppm")

    def checkpoint_bytes(span, result, args, kwargs):
        path = Path(args[1])
        span["bytes"] = path.stat().st_size + path.with_suffix(path.suffix + ".json").stat().st_size

    tracer.install(params.ParamStore, "load", "params.load", after=checkpoint_bytes)
    tracer.install(fusion.Model, "encode_sample", "encoders.encode_sample", count_tensors=True)
    tracer.install(fusion, "encode_clip",
                   lambda args, kwargs: f"encoders.{kwargs.get('prefix', args[3] if len(args) > 3 else '')}_clip")
    tracer.install(fusion.Model, "text_tokens", "text.text_tokens")
    tracer.install(fusion.Model, "head", "fusion.head", count_tensors=True)
    tracer.install(fusion, "multimodal_transformer", "fusion.mt")
    tracer.install(fusion, "fuse_vision_event", "fusion.sa")
    tracer.install(fusion, "cross_attention", "fusion.ca")
    tracer.install(fusion, "classify", "fusion.classify")

    def keep_grads(span, result, args, kwargs):
        span["nodes"] = len(result)
        state["grad_bytes"] = {nid: g.nbytes for nid, g in result.items()}

    tracer.install(autodiff, "backward", "autodiff.backward", after=keep_grads)

    def retained(span, result, args, kwargs):
        # backward copied each gradient it returned into that tensor's .grad;
        # those of tensors that are not parameters are the retained ones
        store_ids = {t.node_id for t in args[0].store.tensors()}
        grad_bytes = state.pop("grad_bytes", {})
        span["retained_bytes"] = sum(b for nid, b in grad_bytes.items() if nid not in store_ids)

    tracer.install(trainer, "adamw_step", "trainer.adamw", after=retained)
    for owner in (trainer, cli):
        tracer.install(owner, "train", "trainer.train")
        tracer.install(owner, "evaluate", "trainer.evaluate",
                       after=lambda span, r, a, k: span.__setitem__("samples", len(a[0])))
    tracer.install(cli, "_train_and_eval", "cli.ablate_row")


# metrics that are the mean duration of one call of the named span
_MEAN_MS = {
    "config.make_datasets_ms": "config.make_datasets",
    "events.simulate_dvs_ms": "events.simulate_dvs",
    "events.stack_events_ms": "events.stack_events",
    "events.parse_csv_ms": "events.parse_csv",
    "events.parse_binary_ms": "events.parse_binary",
    "data_files.write_sample_ms": "data_files.write_sample",
    "data_files.read_sample_ms": "data_files.read_sample",
    "data_files.read_ppm_ms": "data_files.read_ppm",
    "params.load_ms": "params.load",
    "encoders.encode_sample_ms": "encoders.encode_sample",
    "encoders.rgb_clip_ms": "encoders.rgb_clip",
    "encoders.event_clip_ms": "encoders.event_clip",
    "text.text_tokens_ms": "text.text_tokens",
    "fusion.head_ms": "fusion.head",
    "fusion.mt_ms": "fusion.mt",
    "fusion.sa_ms": "fusion.sa",
    "fusion.ca_ms": "fusion.ca",
    "fusion.classify_ms": "fusion.classify",
    "autodiff.backward_ms": "autodiff.backward",
    "trainer.adamw_ms": "trainer.adamw",
    "cli.ablate_row_ms": "cli.ablate_row",
}

# metrics that are the mean of a count a wrapper attached to the span
_MEAN_ATTR = {
    "events.events_per_clip": ("events.simulate_dvs", "events", 1.0),
    "data_files.csv_bytes_per_sample": ("data_files.write_sample", "bytes_csv", 1.0),
    "data_files.binary_bytes_per_sample": ("data_files.write_sample", "bytes_binary", 1.0),
    "params.checkpoint_bytes": ("params.load", "bytes", 1.0),
    "encoders.tensors_per_sample": ("encoders.encode_sample", "tensors", 1.0),
    "fusion.tensors_per_sample": ("fusion.head", "tensors", 1.0),
    "autodiff.backward_nodes": ("autodiff.backward", "nodes", 1.0),
    "autodiff.retained_grad_mb": ("trainer.adamw", "retained_bytes", 1.0 / 2**20),
}


def per_layer_metrics(spans: list[dict], include) -> dict[str, float | None]:
    """Per-layer values from the spans for which ``include(span)`` holds;
    None where none of them fed the metric."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        if include(s):
            by_name.setdefault(s["name"], []).append(s)
    out: dict[str, float | None] = {}
    for metric, name in _MEAN_MS.items():
        found = by_name.get(name, [])
        out[metric] = (float(np.mean([(s["end"] - s["start"]) * 1e3 for s in found]))
                       if found else None)
    for metric, (name, key, scale) in _MEAN_ATTR.items():
        vals = [s[key] for s in by_name.get(name, []) if key in s]
        out[metric] = float(np.mean(vals)) * scale if vals else None

    trains = by_name.get("trainer.train", [])
    index = {id(s): i for i, s in enumerate(spans)}
    train_ids = {index[id(s)] for s in trains}

    def under_train(s):
        p = s["parent"]
        while p is not None:
            if p in train_ids:
                return True
            p = spans[p]["parent"]
        return False

    if trains:
        cached = sum((s["end"] - s["start"]) * 1e3
                     for s in by_name.get("encoders.encode_sample", []) if under_train(s))
        out["trainer.cache_build_ms"] = cached / len(trains)
    else:
        out["trainer.cache_build_ms"] = None
    evals = by_name.get("trainer.evaluate", [])
    n_eval = sum(s["samples"] for s in evals)
    out["trainer.evaluate_ms_per_sample"] = (
        sum((s["end"] - s["start"]) * 1e3 for s in evals) / n_eval if n_eval else None)
    return out
