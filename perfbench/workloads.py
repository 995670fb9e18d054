"""The four benchmark workloads, all on the default desk config (4 classes,
32x32, 3 frames, dim 64, batch 16) with sizes and seeds chosen here.

Each workload names the reference kernel that mimics its mix of work and
has three phases:

- ``prepare``: fixtures a user would already have, such as a checkpoint;
  not part of set-up time;
- ``setup``: what a user waits for before the first operation; run several
  times so that set-up time is a median;
- ``run_round``: one round of timed operations, each through ``Meter.time``.

``check`` runs after the timed loop and returns the failed output checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import oracle
import refkernel

import evfusion.cli as cli
import evfusion.config as config
import evfusion.data_files as data_files
import evfusion.events as events
import evfusion.fusion as fusion
import evfusion.text as text
import evfusion.trainer as trainer

# the component-analysis rows: all on, then each switch off in turn
ABLATION_ORDER = [
    {k: k != off for k in ("sci", "lvm", "mt", "sa", "ca")}
    for off in (None, "sci", "lvm", "mt", "sa", "ca")
]

TOL = 1e-9


def _dims(cfg) -> dict[str, dict]:
    enc = lambda e: {"depth": e.depth, "heads": e.heads, "patch_size": e.patch_size}
    return {"rgb": enc(cfg.rgb_encoder), "event": enc(cfg.event_encoder),
            "text": {"depth": cfg.text.depth, "heads": cfg.text.heads},
            "fusion": {"depth": cfg.fusion.depth, "heads": cfg.fusion.heads}}


def _token_ids(model, cfg) -> list[list[int]]:
    return [text.tokenize(text.render_prompt(model.cfg.template, lb), model.vocab,
                          cfg.text.max_len) for lb in cfg.labels]


def _reference_logits(ref, sample) -> np.ndarray:
    ev = sample.events
    w, h = ev.resolution
    frames = oracle.stack_brute_force(ev.x, ev.y, ev.t, ev.p,
                                      sample.clip.timestamps.tolist(), w, h)
    return ref.logits(sample.clip.frames, frames)


def _reference_model(ckpt: Path, model, cfg) -> oracle.ReferenceModel:
    return oracle.ReferenceModel(oracle.load_checkpoint(ckpt), _dims(cfg),
                                 _token_ids(model, cfg))


class TrainDesk:
    """train() with the frozen-encoder cache: fusion head forward, backward
    and AdamW do most of the work; the encoders run once per call."""

    REFERENCE = refkernel.NumericKernel
    name = "train-desk"
    EPOCHS = 4

    def __init__(self, seed: int, tmp: Path):
        self.seed, self.tmp = seed, tmp

    def prepare(self):
        pass

    def setup(self):
        self.cfg = config.load_config(None, {
            "seed": self.seed, "data.samples_per_class": 4,
            "data.eval_samples_per_class": 0, "optim.epochs": self.EPOCHS,
            "optim.seed": self.seed})
        self.train_set, _ = config.make_datasets(self.cfg)

    def run_round(self, meter):
        model = fusion.Model(self.cfg.model_config(), seed=self.seed)
        before = {n: t.data.copy() for n, t in model.store.items()}
        work = len(self.train_set) * self.EPOCHS
        log = meter.time("train", work, lambda: trainer.train(
            self.train_set, model, self.cfg.optim, self.cfg.switches))
        self.last = (model, before, log)

    def check(self) -> list[str]:
        bad = []
        fresh = fusion.Model(self.cfg.model_config(), seed=self.seed)
        ckpt = self.tmp / "fresh.ckpt"
        fresh.store.save(ckpt)
        ref = _reference_model(ckpt, fresh, self.cfg)
        for s in self.train_set[::4]:
            got = float(trainer.cross_entropy(fresh.forward(s), s.label).data[0, 0])
            want = oracle.cross_entropy(_reference_logits(ref, s), s.label)
            if abs(got - want) > TOL:
                bad.append(f"cross-entropy of {s.sample_id}: {got!r} != reference {want!r}")
        model, before, log = self.last
        losses = [r["train_loss"] for r in log]
        if not all(math.isfinite(x) for x in losses) or any(
                b >= a for a, b in zip(losses, losses[1:])):
            bad.append(f"per-epoch loss not finite and decreasing: {losses}")
        for name, t in model.store.items():
            same = np.array_equal(t.data, before[name])
            if model.store.is_frozen(name) and not same:
                bad.append(f"frozen parameter {name} changed")
            # free tokens stand in for text only when the sci switch is off
            if not model.store.is_frozen(name) and same and name != "fusion.free_tokens":
                bad.append(f"trainable parameter {name} did not change")
        return bad


class InferClips:
    """Classify held-out clips from a checkpoint: whole-set evaluate calls
    and one clip per call. Encoders, event stacking and the head forward
    do the work; backward and AdamW never run."""

    REFERENCE = refkernel.NumericKernel
    name = "infer-clips"

    def __init__(self, seed: int, tmp: Path):
        self.seed, self.tmp = seed, tmp
        self.ckpt = tmp / "model.ckpt"

    def _config(self):
        return config.load_config(None, {
            "seed": self.seed, "data.samples_per_class": 4,
            "data.eval_samples_per_class": 4, "optim.epochs": 1, "optim.seed": self.seed})

    def prepare(self):
        cfg = self._config()
        train_set, _ = config.make_datasets(cfg)
        model = fusion.Model(cfg.model_config(), seed=self.seed)
        trainer.train(train_set, model, cfg.optim, cfg.switches)
        model.store.save(self.ckpt)

    def setup(self):
        self.cfg = self._config()
        _, self.eval_set = config.make_datasets(self.cfg)
        self.model = fusion.Model(self.cfg.model_config(), seed=self.seed)
        self.model.store.load(self.ckpt)

    def run_round(self, meter):
        m, sw = self.model, self.cfg.switches
        self.set_result = meter.time("set", len(self.eval_set),
                                     lambda: trainer.evaluate(self.eval_set, m, sw))
        self.single = [meter.time("clip", 1, lambda s=s: trainer.evaluate([s], m, sw))
                       for s in self.eval_set]

    def check(self) -> list[str]:
        bad = []
        ref = _reference_model(self.ckpt, self.model, self.cfg)
        for s in self.eval_set[::4]:
            got = self.model.forward(s).data.reshape(-1)
            want = _reference_logits(ref, s)
            if np.max(np.abs(got - want)) > TOL:
                bad.append(f"logits of {s.sample_id} differ from the reference forward")
        per_set = self.set_result["per_sample"]
        for row, alone in zip(per_set, self.single):
            scores = np.array(row["scores"])
            alone_scores = np.array(alone["per_sample"][0]["scores"])
            if abs(scores.sum() - 1.0) > TOL or abs(alone_scores.sum() - 1.0) > TOL:
                bad.append(f"scores of {row['sample_id']} do not sum to 1")
            if np.max(np.abs(scores - alone_scores)) > TOL:
                bad.append(f"scores of {row['sample_id']} differ alone and in the set")
        return bad


class DataRoundtrip:
    """Synthesise clips (rendering and DVS simulation), write them in CSV
    and binary event formats, read them back and stack their events."""

    REFERENCE = refkernel.LoopKernel
    name = "data-roundtrip"
    FORMATS = ("csv", "binary")

    def __init__(self, seed: int, tmp: Path):
        self.seed, self.tmp = seed, tmp

    def prepare(self):
        pass

    def setup(self):
        self.cfg = config.load_config(None, {
            "seed": self.seed, "data.samples_per_class": 4,
            "data.eval_samples_per_class": 0})

    def _read_and_stack(self, out: Path):
        back = data_files.read_dataset(out)
        return back, [events.stack_events(s.events, s.clip.timestamps, s.events.resolution)
                      for s in back]

    def run_round(self, meter):
        # five short operations rather than one, so that the reference
        # bursts between them follow the machine's speed closely; the
        # round's samples are counted on its last operation. Every round
        # rewrites the same files, which keeps creating and deleting files
        # out of the timings
        cfg = self.cfg
        samples, _ = meter.time("synthesise", 0, lambda: config.make_datasets(cfg))
        back, stacked = {}, {}
        for i, fmt in enumerate(self.FORMATS):
            out = self.tmp / f"data-{fmt}"
            meter.time(f"write-{fmt}", 0, lambda: data_files.write_dataset(
                samples, cfg.labels, out, event_format=fmt))
            n = len(samples) * len(self.FORMATS) if i == len(self.FORMATS) - 1 else 0
            back[fmt], stacked[fmt] = meter.time(f"read-{fmt}", n,
                                                 lambda: self._read_and_stack(out))
        self.last = samples, back, stacked

    def check(self) -> list[str]:
        bad = []
        cfg = self.cfg
        samples, back, stacked = self.last
        for fmt in self.FORMATS:
            for a, b in zip(samples, back[fmt]):
                if not all(np.array_equal(getattr(a.events, c), getattr(b.events, c))
                           for c in "xytp"):
                    bad.append(f"{fmt}: events of {a.sample_id} did not round-trip")
                if max(np.max(np.abs(fa - fb)) for fa, fb in
                       zip(a.clip.frames, b.clip.frames)) > 0.5 / 255:
                    bad.append(f"{fmt}: frames of {a.sample_id} off by more than 0.5/255")
            for s, st in list(zip(back[fmt], stacked[fmt]))[::5]:
                w, h = s.events.resolution
                want = oracle.stack_brute_force(s.events.x, s.events.y, s.events.t,
                                                s.events.p, s.clip.timestamps.tolist(), w, h)
                if not all(np.array_equal(x, y) for x, y in zip(st.frames, want)):
                    bad.append(f"{fmt}: stacked frames of {s.sample_id} != per-event count")
        # replay the renderer's random stream to recover the first fine clips
        spec = cfg.synth_spec(cfg.data.samples_per_class)
        rng = np.random.default_rng(cfg.seed)
        for s in samples[:3]:
            fine = events.render_motion_clip(spec.classes[0], spec, rng)
            want = oracle.dvs_counts(fine.frames, spec.dvs_threshold)
            got = np.zeros_like(want)
            np.add.at(got, (s.events.y, s.events.x), 1)
            if not np.array_equal(got, want):
                bad.append(f"per-pixel event counts of {s.sample_id} != DVS closed form")
        return bad


class AblateSweep:
    """`evfusion ablate` on a reduced desk set: six switch patterns, each
    regenerating the data and training; the lvm-off row trains shallow
    encoders without the cache."""

    REFERENCE = refkernel.NumericKernel
    name = "ablate-sweep"
    PER_CLASS, EVAL_PER_CLASS, EPOCHS = 2, 1, 2

    def __init__(self, seed: int, tmp: Path):
        self.seed, self.tmp = seed, tmp
        self.cfg_path = tmp / "ablate.json"

    def prepare(self):
        self.cfg_path.write_text(json.dumps({
            "seed": self.seed, "out_dir": str(self.tmp / "ablate"),
            "data": {"samples_per_class": self.PER_CLASS,
                     "eval_samples_per_class": self.EVAL_PER_CLASS},
            "optim": {"epochs": self.EPOCHS, "seed": self.seed}}))

    def setup(self):
        self.cfg = config.load_config(self.cfg_path)

    def _ablate(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["ablate", "--config", str(self.cfg_path)])
        if code != 0:
            raise RuntimeError(f"evfusion ablate exited with {code}")

    def run_round(self, meter):
        n_classes = len(self.cfg.labels)
        per_row = n_classes * (self.PER_CLASS * self.EPOCHS + self.EVAL_PER_CLASS)
        meter.time("ablate", per_row * len(ABLATION_ORDER), self._ablate)

    def check(self) -> list[str]:
        rows = json.loads((self.tmp / "ablate" / "ablation.json").read_text())
        bad = []
        if [r["switches"] for r in rows] != ABLATION_ORDER:
            bad.append("ablation.json does not hold the six patterns in order")
        n_eval = len(self.cfg.labels) * self.EVAL_PER_CLASS
        for r in rows:
            for acc in r["top1"]:
                k = acc * n_eval
                if not (0.0 <= acc <= 1.0 and abs(k - round(k)) < TOL):
                    bad.append(f"top-1 {acc} is not a multiple of 1/{n_eval} in [0, 1]")
        return bad


WORKLOADS = {w.name: w for w in (TrainDesk, InferClips, DataRoundtrip, AblateSweep)}


def coverage_probe(tmp: Path) -> None:
    """Call every traced layer once on a tiny input, so that a traced run
    reports each per-layer metric even where its workload never calls it."""
    cfg = config.load_config(None, {"data.samples_per_class": 1,
                                    "data.eval_samples_per_class": 1, "optim.epochs": 1})
    train_set, eval_set = config.make_datasets(cfg)
    for fmt in DataRoundtrip.FORMATS:
        out = tmp / f"probe-{fmt}"
        data_files.write_dataset(train_set, cfg.labels, out, event_format=fmt)
        for s in data_files.read_dataset(out):
            events.stack_events(s.events, s.clip.timestamps, s.events.resolution)
    model = fusion.Model(cfg.model_config(), seed=0)
    trainer.train(train_set, model, cfg.optim, cfg.switches)
    model.store.save(tmp / "probe.ckpt")
    loaded = fusion.Model(cfg.model_config(), seed=1)
    loaded.store.load(tmp / "probe.ckpt")
    trainer.evaluate(eval_set, loaded, cfg.switches)
    probe_cfg = tmp / "probe-ablate.json"
    probe_cfg.write_text(json.dumps({
        "out_dir": str(tmp / "probe-ablate"), "optim": {"epochs": 1},
        "data": {"samples_per_class": 1, "eval_samples_per_class": 1}}))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["ablate", "--config", str(probe_cfg)])
