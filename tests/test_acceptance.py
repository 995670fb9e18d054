"""Acceptance suite: one test per release criterion, each at its pinned
tolerance. Every test prints a single PASS line on success (the pytest -v
PASSED/FAILED line is the authoritative per-criterion verdict)."""

import dataclasses
import json
import math
import multiprocessing
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from evfusion import autodiff as ad
from evfusion import cli
from evfusion.autodiff import Tensor, backward
from evfusion.config import (ABLATION_PATTERNS, SWEEP_FRAME_COUNTS,
                             SWEEP_TEMPLATES, load_config, make_datasets)
from evfusion.encoders import EncoderConfig, patchify_embed, init_encoder_params
from evfusion.events import (EventStream, MotionClass, VideoClip, event_counts,
                             simulate_dvs)
from evfusion.fusion import Model
from evfusion.gradcheck import (END_TO_END_TOL, PRIMITIVE_TOL, run_gradcheck)
from evfusion.params import ParamStore
from evfusion.trainer import cross_entropy, evaluate, train


def report(line: str) -> None:
    print(f"\n{line}")


# -- 1. gradient correctness ---------------------------------------------------

def test_gradient_correctness():
    t0 = time.perf_counter()
    result = run_gradcheck(seed=0)
    elapsed = time.perf_counter() - t0

    worst_prim = max(result["primitives"].values())
    assert worst_prim < PRIMITIVE_TOL, result["primitives"]
    assert result["end_to_end_error"] < END_TO_END_TOL
    assert len(result["checked_parameters"]) >= 32
    prefixes = {name.split(".")[0] for name in result["checked_parameters"]}
    assert {"rgb", "event", "text", "fusion"} <= prefixes
    assert result["passed"]
    assert elapsed < 120.0
    report(f"PASS gradient correctness: primitives max {worst_prim:.2e} < 1e-6, "
           f"end-to-end {result['end_to_end_error']:.2e} < 1e-3, "
           f"{len(result['checked_parameters'])} params, {elapsed:.1f}s")


# -- 2. attention invariants -----------------------------------------------------

def test_attention_invariants_on_1000_inputs():
    rng = np.random.default_rng(0)
    worst_row_sum = worst_bound = worst_envelope = 0.0
    for _ in range(1000):
        nq, nk, d, dv = rng.integers(1, 6, size=4)
        q = Tensor(rng.normal(scale=3.0, size=(nq, d)))
        k = Tensor(rng.normal(scale=3.0, size=(nk, d)))
        v = rng.normal(scale=3.0, size=(nk, dv))
        with ad.attention_weights() as sink:
            out = ad.scaled_dot_attention(q, k, Tensor(v)).data
        (w,) = sink
        w = w.data
        worst_row_sum = max(worst_row_sum, np.max(np.abs(w.sum(axis=1) - 1.0)))
        worst_bound = max(worst_bound, np.max(-w), np.max(w - 1.0))
        worst_envelope = max(worst_envelope,
                             np.max(v.min(axis=0) - out),
                             np.max(out - v.max(axis=0)))
    assert worst_row_sum < 1e-9
    assert worst_bound <= 0.0 or worst_bound < 1e-9
    assert worst_envelope < 1e-9
    report(f"PASS attention invariants (1000 inputs): row-sum dev "
           f"{worst_row_sum:.1e}, range dev {max(worst_bound, 0):.1e}, "
           f"envelope dev {max(worst_envelope, 0):.1e}, all < 1e-9")


# -- 3. loss identities -----------------------------------------------------------

def test_loss_identities():
    for n in (2, 4, 10, 114, 300):
        loss = cross_entropy(Tensor(np.zeros((1, n))), n - 1).data[0, 0]
        assert abs(loss - math.log(n)) < 1e-9, n

    rng = np.random.default_rng(1)
    worst = 0.0
    for n in (2, 4, 10, 114, 300):
        x = rng.normal(scale=2.0, size=(1, n))
        target = int(rng.integers(n))
        logits = Tensor(x, requires_grad=True)
        backward(cross_entropy(logits, target))
        p = np.exp(x - x.max())
        p /= p.sum()
        onehot = np.zeros((1, n))
        onehot[0, target] = 1.0
        worst = max(worst, np.max(np.abs(logits.grad - (p - onehot))))
    assert worst < 1e-9
    report(f"PASS loss identities: CE(uniform) = ln(L) for L in "
           f"{{2,4,10,114,300}} within 1e-9; grad = softmax - onehot "
           f"(max dev {worst:.1e} < 1e-9)")


# -- 4. event-stacking oracle ------------------------------------------------------

def test_event_stacking_oracle_100_streams():
    rng = np.random.default_rng(2)
    for trial in range(100):
        w, h = int(rng.integers(2, 20)), int(rng.integers(2, 20))
        n = int(rng.integers(0, 10_001))
        n_frames = int(rng.integers(1, 8))
        ts = np.sort(rng.integers(0, 100_000, size=n_frames))
        stream = EventStream((w, h),
                             rng.integers(0, w, n), rng.integers(0, h, n),
                             np.sort(rng.integers(-1000, 110_000, n)),
                             rng.integers(0, 2, n))
        counts = event_counts(stream, ts, (w, h))

        expected = np.zeros_like(counts)
        for x, y, t, p in zip(stream.x, stream.y, stream.t, stream.p):
            j = 0
            for jj in range(n_frames):
                if ts[jj] <= t:
                    j = jj
            expected[j, 0 if p == 1 else 1, y, x] += 1
        assert np.array_equal(counts, expected), f"trial {trial}"
        assert counts.sum() == n
    report("PASS event-stacking oracle: 100 random streams (<=10k events) "
           "match the brute-force assignment exactly; counts conserved")


# -- 5. DVS closed form -------------------------------------------------------------

def test_dvs_simulator_closed_form():
    # constant clip: zero events
    const = VideoClip([np.full((3, 3, 3), 0.4)] * 4, np.arange(4) * 1000)
    assert len(simulate_dvs(const, 0.1)) == 0

    rng = np.random.default_rng(3)
    for trial in range(50):
        lo = float(rng.uniform(0.02, 0.95))
        hi = float(rng.uniform(0.02, 0.95))
        threshold = float(rng.uniform(0.03, 0.5))
        delta = math.log(hi + 1e-3) - math.log(lo + 1e-3)
        clip = VideoClip([np.full((1, 1, 3), lo), np.full((1, 1, 3), hi)],
                         [0, 1000])
        stream = simulate_dvs(clip, threshold)
        assert len(stream) == math.floor(abs(delta) / threshold), trial
        if len(stream):
            assert np.all(stream.p == (1 if delta > 0 else 0)), trial
    report("PASS DVS closed form: step pixels emit exactly "
           "floor(|dlog|/threshold) events with correct polarity; "
           "constant clips emit none")


# -- 6. overfit check ----------------------------------------------------------------

@pytest.mark.slow
def test_overfit_desk_config():
    cfg = load_config(None, {
        "data.samples_per_class": 16,     # 4 classes x 16 = 64 samples
        "data.frames": 3,
        "optim.epochs": 200,
    })
    cfg.optim.stop_at_perfect_train = True
    assert cfg.fusion.dim == 64 and len(cfg.data.classes) == 4
    train_set, _ = make_datasets(cfg)
    assert len(train_set) == 64
    model = Model(cfg.model_config(), seed=cfg.seed)

    t0 = time.perf_counter()
    log = train(train_set, model, cfg.optim, cfg.switches)
    elapsed = time.perf_counter() - t0

    first5 = [r["train_loss"] for r in log[:5]]
    assert len(first5) == 5
    assert all(a > b for a, b in zip(first5, first5[1:])), first5
    assert log[-1]["train_top1"] == 1.0
    assert log[-1]["epoch"] < 200
    assert elapsed < 600.0
    report(f"PASS overfit: 100% train top-1 at epoch {log[-1]['epoch']} "
           f"(< 200), first-5 losses strictly decreasing, {elapsed:.0f}s < 600s")


# -- 7. generalization with events -----------------------------------------------------

def _motion_only_config(seed):
    cfg = load_config(None, {
        "data.static_rgb": True,
        "data.samples_per_class": 8,
        "data.eval_samples_per_class": 4,
        "rgb_encoder.dim": 32, "event_encoder.dim": 32,
        "text.dim": 32, "fusion.dim": 32,
        "rgb_encoder.depth": 1, "event_encoder.depth": 1,
        "optim.base_lr": 2e-3, "optim.batch_size": 8, "optim.epochs": 300,
        "seed": seed, "optim.seed": seed,
    })
    # all four classes share a shape, so only the event-borne motion
    # direction separates them
    cfg.data.classes = [MotionClass(f"square moving {d}", "square", d)
                        for d in ("right", "left", "up", "down")]
    cfg.optim.stop_at_perfect_train = True
    return cfg


def _zero_events(samples):
    return [dataclasses.replace(s, events=EventStream(s.events.resolution))
            for s in samples]


def _generalization_run(seed, zero_events):
    """(epochs trained, eval top-1) of the motion-only model at seed, or of
    its event-zeroed control. A worker process runs it, so it turns
    RuntimeWarnings into errors itself, as Tier-1 does."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cfg = _motion_only_config(seed)
        train_set, eval_set = make_datasets(cfg)
        if zero_events:
            # class-constant inputs: extra epochs cannot alter eval accuracy,
            # so the control trains on a shorter budget
            cfg.optim.epochs = 60
            train_set, eval_set = _zero_events(train_set), _zero_events(eval_set)
        model = Model(cfg.model_config(), seed=seed)
        log = train(train_set, model, cfg.optim, cfg.switches)
        return len(log), evaluate(eval_set, model, cfg.switches)["top1"]


@pytest.mark.slow
def test_generalization_with_events_over_5_seeds(monkeypatch):
    chance = 0.25
    seeds = range(5)
    # The ten trainings are independent: they run in up to two spawned
    # workers with one BLAS thread each, the five full models first. The
    # bits do not depend on the BLAS thread count.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(min(2, os.cpu_count() or 1), mp_context=context) as pool:
        runs = {(zero, seed): pool.submit(_generalization_run, seed, zero)
                for zero in (False, True) for seed in seeds}
        results = {key: run.result() for key, run in runs.items()}
    cfg = _motion_only_config(0)
    n = cfg.data.eval_samples_per_class * len(cfg.data.classes)
    full_hits = sum(round(results[False, seed][1] * n) for seed in seeds)
    zero_hits = sum(round(results[True, seed][1] * n) for seed in seeds)
    total = n * len(seeds)
    per_seed = [(results[False, seed][1], results[True, seed][1]) for seed in seeds]
    report("seed  epochs  top-1   control epochs  control top-1\n" + "\n".join(
        f"{seed:>4}  {results[False, seed][0]:>6}  {results[False, seed][1]:.4f}  "
        f"{results[True, seed][0]:>14}  {results[True, seed][1]:.4f}" for seed in seeds))

    full_pooled = full_hits / total
    zero_pooled = zero_hits / total
    # 99% normal-approximation binomial interval around chance
    half_width = 2.5758 * math.sqrt(chance * (1 - chance) / total)
    assert full_pooled > 2 * chance, per_seed
    assert abs(zero_pooled - chance) <= half_width, per_seed
    report(f"PASS generalization: full model pooled eval top-1 "
           f"{full_pooled:.3f} > {2 * chance} over 5 seeds; event-zeroed "
           f"{zero_pooled:.3f} within 99% binomial interval "
           f"[{chance - half_width:.3f}, {chance + half_width:.3f}]")


# -- 8. ablation harness shape ----------------------------------------------------------

TINY_DOC = {
    "data": {"classes": ["square moving right", "square moving left"],
             "samples_per_class": 2, "eval_samples_per_class": 1,
             "resolution": [16, 16], "frames": 2},
    "rgb_encoder": {"image_size": 16, "patch_size": 8, "dim": 16, "heads": 2,
                    "depth": 1, "mlp_ratio": 2.0},
    "event_encoder": {"image_size": 16, "patch_size": 8, "dim": 16, "heads": 2,
                      "depth": 1, "mlp_ratio": 2.0},
    "text": {"dim": 16, "heads": 2, "max_len": 8},
    "fusion": {"dim": 16, "heads": 2, "mlp_ratio": 2.0},
    "optim": {"epochs": 1, "batch_size": 4},
}


def _tiny_config(tmp_path, out_name):
    doc = json.loads(json.dumps(TINY_DOC))
    doc["out_dir"] = str(tmp_path / out_name)
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(doc))
    return path, tmp_path / out_name


def test_ablation_harness_shape(tmp_path):
    cfg_path, out = _tiny_config(tmp_path, "ablate")
    assert cli.main(["ablate", "--config", str(cfg_path)]) == 0
    rows = json.loads((out / "ablation.json").read_text())
    assert [r["switches"] for r in rows] == ABLATION_PATTERNS
    assert len(rows) == 6

    cfg_path, out = _tiny_config(tmp_path, "frames")
    assert cli.main(["sweep-frames", "--config", str(cfg_path)]) == 0
    rows = json.loads((out / "sweep_frames.json").read_text())
    assert [r["frames"] for r in rows] == SWEEP_FRAME_COUNTS == [1, 3, 5, 7]

    cfg_path, out = _tiny_config(tmp_path, "prompts")
    assert cli.main(["sweep-prompts", "--config", str(cfg_path)]) == 0
    rows = json.loads((out / "sweep_prompts.json").read_text())
    assert [r["template"] for r in rows] == SWEEP_TEMPLATES
    assert len(rows) == 5 and rows[-1]["template"] == "NONE"
    report("PASS ablation harness shape: ablate emits the 6 switch patterns, "
           "sweep-frames covers {1,3,5,7}, sweep-prompts covers the four "
           "templates plus NONE")


# -- 9. full-scale shape conformance ---------------------------------------------------

def test_full_scale_shape_conformance():
    cfg = EncoderConfig(image_size=224, patch_size=16, dim=768, heads=12,
                        depth=0)
    assert cfg.n_tokens == 197
    store = ParamStore()
    init_encoder_params(store, "enc", cfg, np.random.default_rng(0))
    frame = np.random.default_rng(1).uniform(size=(224, 224, 3))
    seq = patchify_embed(frame, cfg, store, "enc")
    assert seq.shape == (197, 768)
    report("PASS full-scale shape: image 224 / patch 16 / dim 768 yields "
           "197 tokens of width 768 per frame")


# -- 10. determinism ---------------------------------------------------------------------

def _snapshot(out_dir):
    """All output files as bytes; per-epoch metrics with wall-clock times
    stripped (timing is the one legitimately nondeterministic field)."""
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if not path.is_file():
            continue
        rel = str(path.relative_to(out_dir))
        raw = path.read_bytes()
        if path.name == "metrics.jsonl":
            records = [json.loads(ln) for ln in raw.decode().splitlines()]
            for r in records:
                r.pop("wall_ms", None)
            raw = json.dumps(records, sort_keys=True).encode()
        files[rel] = raw
    return files


def test_determinism_bit_identical_reruns(tmp_path):
    import shutil

    cfg_path, out = _tiny_config(tmp_path, "det")
    snapshots = []
    for _ in range(2):
        if out.exists():
            shutil.rmtree(out)
        assert cli.main(["synth-data", "--config", str(cfg_path)]) == 0
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        assert cli.main(["eval", "--config", str(cfg_path)]) == 0
        assert cli.main(["dump-embeddings", "--config", str(cfg_path)]) == 0
        snapshots.append(_snapshot(out))

    first, second = snapshots
    assert first.keys() == second.keys()
    diffs = [name for name in first if first[name] != second[name]]
    assert not diffs, f"outputs differ across identical re-runs: {diffs}"
    report(f"PASS determinism: {len(first)} output files byte-identical "
           f"across re-runs with the same config/seed "
           f"(per-epoch wall-clock timings excluded)")
