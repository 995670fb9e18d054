import dataclasses
import itertools
import json
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evfusion import autodiff as ad
from evfusion import config, fusion, trainer
from evfusion.autodiff import Tensor, backward
from evfusion.encoders import EncoderConfig
from evfusion.errors import ContractError, DimensionError, NumericError
from evfusion.events import MotionClass, SynthSpec, synth_dataset
from evfusion.fusion import FusionConfig, Model, ModelConfig
from evfusion.params import ParamStore
from evfusion.text import PromptTemplate, TextConfig
from evfusion.trainer import (EncodingMemo, OptimConfig, TrainState, adamw_step,
                              cosine_lr, cross_entropy, encode_blocks, evaluate, head_rows,
                              stack_blocks, train)

LABELS = ["square moving right", "square moving left",
          "disc moving up", "disc moving down"]
DIM = 16


def tiny_model(seed=0, labels=LABELS, **switches):
    enc = EncoderConfig(image_size=16, patch_size=8, dim=DIM, heads=2, depth=1,
                        mlp_ratio=2.0)
    cfg = ModelConfig(
        rgb=enc, event=EncoderConfig(**{**enc.__dict__}),
        text=TextConfig(dim=DIM, depth=1, heads=2, max_len=8),
        fusion=FusionConfig(dim=DIM, depth=1, heads=2, mlp_ratio=2.0),
        labels=list(labels),
        template=PromptTemplate("The action is {}"),
        switches=fusion.AblationSwitches(**switches))
    return Model(cfg, seed=seed)


def tiny_dataset(samples_per_class=2, seed=0, n_frames=2):
    classes = [MotionClass(lb, lb.split()[0], lb.split()[-1]) for lb in LABELS]
    spec = SynthSpec(classes=classes, samples_per_class=samples_per_class,
                     resolution=(16, 16), n_frames=n_frames)
    return synth_dataset(spec, seed=seed)


# -- cross entropy ------------------------------------------------------------

def test_cross_entropy_uniform_logits_is_log_n():
    for n in (2, 4, 10):
        loss = cross_entropy(Tensor(np.zeros((1, n))), 0)
        assert loss.data[0, 0] == pytest.approx(math.log(n), abs=1e-12)


def test_cross_entropy_confident_correct_is_small():
    logits = np.zeros((1, 4))
    logits[0, 2] = 50.0
    assert cross_entropy(Tensor(logits), 2).data[0, 0] < 1e-12


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 6))
    logits = Tensor(x, requires_grad=True)
    backward(cross_entropy(logits, 3))
    p = np.exp(x - x.max())
    p /= p.sum()
    onehot = np.zeros((1, 6))
    onehot[0, 3] = 1.0
    assert np.max(np.abs(logits.grad - (p - onehot))) < 1e-12


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.zeros((1, 4))), 4)
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.zeros((1, 4))), -1)
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.zeros((3, 4))), [0, 1])
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.zeros((2, 4))), 0)


def test_cross_entropy_batch_equals_single_rows_bit_exact():
    rng = np.random.default_rng(1)
    x = rng.normal(scale=3.0, size=(5, 7))
    labels = [3, 0, 6, 3, 1]
    batch = Tensor(x, requires_grad=True)
    losses = cross_entropy(batch, labels)
    assert losses.shape == (5, 1)
    backward(losses, np.ones(losses.shape))
    for i, label in enumerate(labels):
        row = Tensor(x[i:i + 1], requires_grad=True)
        loss = cross_entropy(row, label)
        backward(loss)
        assert loss.data[0, 0] == losses.data[i, 0]
        assert np.array_equal(row.grad, batch.grad[i:i + 1])


def test_cross_entropy_target_pick_matches_the_onehot_matmul_form_bit_exact():
    # picking the target replaces (logits * -onehot) @ ones: the sum it
    # replaces has one nonzero term, so losses and gradients are equal
    rng = np.random.default_rng(2)
    x = rng.normal(scale=3.0, size=(6, 5))
    labels = [4, 0, 2, 2, 1, 3]
    neg_onehot = np.zeros((6, 5))
    neg_onehot[np.arange(6), labels] = -1.0
    # the one-hot form in numpy, with its log-sum-exp and their gradients
    # under the mean over rows, g = 1/6 per row
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    z = e.sum(axis=1, keepdims=True)
    old_losses = (m + np.log(z)) + (x * neg_onehot) @ np.ones((5, 1))
    g = np.full((6, 1), 1.0) / 6
    old_grad = g * (e / z) + (g @ np.ones((1, 5))) * neg_onehot
    new = Tensor(x, requires_grad=True)
    losses = cross_entropy(new, labels)
    backward(ad.mean_rows(losses))
    assert np.array_equal(losses.data, old_losses)
    assert np.array_equal(new.grad, old_grad)


def test_cross_entropy_stable_for_extreme_logits():
    logits = Tensor(np.array([[1000.0, -1000.0]]))
    loss = cross_entropy(logits, 1).data[0, 0]
    assert np.isfinite(loss) and loss == pytest.approx(2000.0)


# -- optimizer ----------------------------------------------------------------

def test_adamw_first_step_moves_by_lr_sign():
    # bias-corrected first step: m_hat/(sqrt(v_hat)+eps) ~ sign(g)
    model = tiny_model()
    name, p = next(iter(model.store.trainable_items()))
    p.data = np.ones_like(p.data)
    model.store.zero_grad()
    for pname, pt in model.store.trainable_items():
        pt.grad = np.full_like(pt.data, 0.5 if pname == name else 1e-12)
    cfg = OptimConfig(base_lr=0.1, weight_decay=0.0)
    adamw_step(model, TrainState(), lr=0.1, cfg=cfg)
    assert np.allclose(p.data, 0.9, atol=1e-6)


def test_adamw_weight_decay_decoupled():
    # zero gradient: pure decay scales the parameter by (1 - lr*wd)
    model = tiny_model()
    _, p = next(iter(model.store.trainable_items()))
    p.data = np.full_like(p.data, 2.0)
    for _, pt in model.store.trainable_items():
        pt.grad = np.zeros_like(pt.data)
    cfg = OptimConfig(base_lr=0.1, weight_decay=0.5)
    adamw_step(model, TrainState(), lr=0.1, cfg=cfg)
    assert np.allclose(p.data, 2.0 * (1 - 0.1 * 0.5))


def test_adamw_lr_zero_is_noop():
    model = tiny_model()
    before = {n: t.data.copy() for n, t in model.store.trainable_items()}
    for _, pt in model.store.trainable_items():
        pt.grad = np.ones_like(pt.data)
    adamw_step(model, TrainState(), lr=0.0, cfg=OptimConfig(base_lr=0.0))
    for n, t in model.store.trainable_items():
        assert np.array_equal(t.data, before[n]), n


def test_adamw_skips_frozen_parameters():
    model = tiny_model()
    frozen_before = model.store["rgb.patch.w"].data.copy()
    for _, pt in model.store.trainable_items():
        pt.grad = np.ones_like(pt.data)
    model.store["rgb.patch.w"].grad = np.ones_like(frozen_before)
    adamw_step(model, TrainState(), lr=0.1, cfg=OptimConfig(base_lr=0.1))
    assert np.array_equal(model.store["rgb.patch.w"].data, frozen_before)


@pytest.mark.parametrize("bad", ["missing", "misshapen", "nan", "inf"])
def test_adamw_raises_on_a_trainable_gradient_missing_or_misshapen_and_changes_nothing(bad):
    model, state = tiny_model(), TrainState()
    for _, pt in model.store.trainable_items():
        pt.grad = np.ones_like(pt.data)
    adamw_step(model, state, lr=0.1, cfg=OptimConfig(base_lr=0.1))  # makes the moments
    name, p = model.store.trainable_items()[-1]  # the last one the update would reach
    if bad in ("nan", "inf"):
        p.grad.flat[-1] = float(bad)
        error, message = NumericError, (f"non-finite gradient in the {name.split('.')[0]} "
                                        f"group ({name})")
    else:
        p.grad = None if bad == "missing" else np.ones((1, *p.data.shape))
        got = "no gradient" if bad == "missing" else f"a gradient of shape {(1, *p.data.shape)}"
        error, message = ContractError, (f"trainable parameter {name} of shape "
                                         f"{p.data.shape} has {got}")
    values = {n: t.data.copy() for n, t in model.store.items()}
    moments = {n: (state.m[n].copy(), state.v[n].copy()) for n in state.m}
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        adamw_step(model, state, lr=0.1, cfg=OptimConfig(base_lr=0.1))
    assert state.step == 1 and state.m.keys() == moments.keys()
    assert all(np.array_equal(t.data, values[n]) for n, t in model.store.items())
    assert all(np.array_equal(state.m[n], m) and np.array_equal(state.v[n], v)
               for n, (m, v) in moments.items())


def test_a_step_that_gives_a_trainable_parameter_no_gradient_raises():
    # with sci on the free tokens are never read; made trainable, the step
    # must not skip them
    model = tiny_model(seed=2)
    model.store["fusion.free_tokens"].requires_grad = True
    with pytest.raises(ContractError, match=r"^trainable parameter fusion\.free_tokens "
                                            r"of shape \(4, 16\) has no gradient$"):
        trainer._train_step(model, tiny_dataset(), np.arange(4), None, TrainState(), 1e-3,
                            OptimConfig())


def test_optim_config_contracts():
    with pytest.raises(ContractError):
        OptimConfig(base_lr=-1.0)
    with pytest.raises(ContractError):
        OptimConfig(schedule_floor_fraction=1.0)
    with pytest.raises(ContractError):
        OptimConfig(batch_size=0)
    with pytest.raises(ContractError, match="epochs"):
        OptimConfig(epochs=0)


@pytest.mark.parametrize("kwargs", [
    {"betas": (1.0, 0.999)}, {"betas": (0.9, 1.0)}, {"betas": (-0.1, 0.999)},
    {"betas": (0.9,)}, {"weight_decay": -0.01}, {"weight_decay": float("nan")},
])
def test_optim_config_rejects_bad_betas_and_weight_decay(kwargs):
    with pytest.raises(ContractError, match=next(iter(kwargs))):
        OptimConfig(**kwargs)
    OptimConfig(betas=(0.0, 0.0), weight_decay=0.0)  # the closed ends are valid


# -- schedule -----------------------------------------------------------------

def test_cosine_lr_endpoints_and_midpoint():
    cfg = OptimConfig(base_lr=1.0, schedule_floor_fraction=0.1)
    assert cosine_lr(0, 100, cfg) == pytest.approx(1.0)
    assert cosine_lr(100, 100, cfg) == pytest.approx(0.1)
    assert cosine_lr(50, 100, cfg) == pytest.approx(0.55)


def test_cosine_lr_monotone_decreasing():
    cfg = OptimConfig(base_lr=3e-4)
    values = [cosine_lr(s, 200, cfg) for s in range(201)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_cosine_lr_contracts():
    cfg = OptimConfig()
    with pytest.raises(ContractError):
        cosine_lr(0, 0, cfg)
    with pytest.raises(ContractError):
        cosine_lr(11, 10, cfg)


# -- top-k and evaluation ------------------------------------------------------

def test_evaluate_topk_basics_and_tie_breaking():
    # a zero classifier weight makes every sample's logits equal the bias
    model = tiny_model(labels=[f"shape moving {d}" for d in "abcdefg"])
    model.store["fusion.clf.w"].data = np.zeros_like(model.store["fusion.clf.w"].data)
    model.store["fusion.clf.b"].data = np.array([[3.0, 1.0, 2.0, 0.0, 3.0, -1.0, -2.0]])
    sample = tiny_dataset(samples_per_class=1)[0]
    labels = [0, 4, 2, 6]
    data = [dataclasses.replace(sample, label=lb, sample_id=f"s{lb}") for lb in labels]
    metrics = evaluate(data, model)
    ranked = [[c for c, _ in rec["top5"]] for rec in metrics["per_sample"]]
    assert ranked == [[0, 4, 2, 1, 3]] * 4
    # exact tie of classes 0 and 4: the lower class index wins the top-1 slot
    assert [rec["pred"] for rec in metrics["per_sample"]] == [0, 0, 0, 0]
    # labels 0, 4, 2, 6: a k=1 hit; a k=1 miss that is a k=2 hit; top-5 hit and miss
    assert 4 in ranked[1][:2] and 2 in ranked[2] and 6 not in ranked[3]
    assert metrics["top1"] == 1 / 4 and metrics["top5"] == 3 / 4
    assert np.asarray(metrics["confusion"])[:, 0].tolist() == [1, 0, 1, 0, 1, 0, 1]


def test_evaluate_fields_and_confusion_consistency():
    model = tiny_model()
    data = tiny_dataset(samples_per_class=2)
    metrics = evaluate(data, model)
    assert set(metrics) == {"top1", "top5", "per_class_accuracy",
                            "confusion", "per_sample"}
    confusion = np.asarray(metrics["confusion"])
    assert confusion.sum() == len(data)
    assert metrics["top1"] == pytest.approx(np.trace(confusion) / len(data))
    # 4 classes: top-5 covers everything
    assert metrics["top5"] == 1.0
    for rec in metrics["per_sample"]:
        assert sum(rec["scores"]) == pytest.approx(1.0)
        assert len(rec["top5"]) == min(5, 4)


def test_evaluate_empty_dataset_rejected():
    with pytest.raises(ContractError):
        evaluate([], tiny_model())


@pytest.mark.parametrize("label", [4, -1])
def test_evaluate_rejects_a_label_outside_the_classes(label):
    data = tiny_dataset(samples_per_class=1)
    data[1] = dataclasses.replace(data[1], label=label)
    with pytest.raises(ContractError, match=f"^evaluate: label {label} out of range for 4 "):
        evaluate(data, tiny_model())


# -- ablation switches -----------------------------------------------------------

def test_evaluate_runs_the_switches_the_model_was_built_with():
    data = tiny_dataset(samples_per_class=1)
    model = tiny_model(seed=3, ca=False)
    result = evaluate(data, model)
    assert result == evaluate(data, model, model.cfg.switches)
    assert result != evaluate(data, tiny_model(seed=3))  # the ca stage did not run


@pytest.mark.parametrize("run", [
    lambda data, model, sw, memo: train(data, model, OptimConfig(epochs=1, batch_size=4), sw,
                                        eval_dataset=data, memo=memo),
    lambda data, model, sw, memo: evaluate(data, model, sw, memo),
], ids=["train", "evaluate"])
def test_switches_other_than_the_models_are_rejected_before_any_work(monkeypatch, run):
    data, model, memo = tiny_dataset(samples_per_class=1), tiny_model(seed=2), EncodingMemo()
    before = param_bytes(model)
    calls = count_label_encodes(monkeypatch)
    with pytest.raises(ContractError, match="differ from the model's"):
        run(data, model, fusion.AblationSwitches(ca=False), memo)
    assert param_bytes(model) == before
    assert len(memo) == 0 and not calls


# -- train loop ----------------------------------------------------------------

def test_train_log_schema_and_length():
    model = tiny_model()
    data = tiny_dataset()
    log = train(data, model, OptimConfig(epochs=3, batch_size=4),
                eval_dataset=data[:2])
    assert len(log) == 3
    for rec in log:
        assert set(rec) == {"epoch", "lr", "train_loss", "train_top1",
                            "eval_top1", "eval_top5", "wall_ms"}
        assert 0.0 <= rec["train_top1"] <= 1.0
        assert rec["eval_top1"] is not None


def test_train_reduces_loss_on_tiny_problem():
    model = tiny_model()
    data = tiny_dataset(samples_per_class=2)
    log = train(data, model, OptimConfig(epochs=15, batch_size=8, base_lr=1e-3))
    assert log[-1]["train_loss"] < log[0]["train_loss"]


def test_train_deterministic_across_runs():
    data = tiny_dataset()
    logs = []
    finals = []
    for _ in range(2):
        model = tiny_model(seed=3)
        logs.append(train(data, model, OptimConfig(epochs=3, batch_size=4,
                                                   seed=11)))
        finals.append(model.store["fusion.clf.w"].data.copy())
    for a, b in zip(*logs):
        assert a["train_loss"] == b["train_loss"]
        assert a["train_top1"] == b["train_top1"]
        assert a["lr"] == b["lr"]
    assert np.array_equal(finals[0], finals[1])


def per_sample_step(model, dataset, idx, cache, state, lr, cfg):
    """Reference step: one cross_entropy per sample, an add chain, then 1/B."""
    model.store.zero_grad()
    ft = model.text_tokens()
    losses, hits = [], 0
    for i in idx:
        sample = dataset[i]
        if cache is not None:
            fv, fe = Tensor(cache[i][0]), Tensor(cache[i][1])
        else:
            fv, fe = model.encode_sample([sample])
        logits, _ = model.head(fv, fe, ft)
        losses.append(cross_entropy(logits, sample.label))
        hits += int(np.argmax(logits.data)) == sample.label
    batch_loss = losses[0]
    for extra in losses[1:]:
        batch_loss = ad.add(batch_loss, extra)
    backward(batch_loss, np.array([[1.0 / len(losses)]]))
    adamw_step(model, state, lr, cfg)
    return [float(loss.data[0, 0]) for loss in losses], hits


@pytest.mark.parametrize("cached", [True, False])
def test_train_matches_per_sample_reference_step(monkeypatch, cached):
    monkeypatch.setattr(trainer, "TRAIN_DTYPE", np.float64)
    if not cached:  # force the path that re-encodes every step
        monkeypatch.setattr(trainer.EncodingMemo, "encode", lambda self, m, d: None)
    data = tiny_dataset()
    cfg = OptimConfig(epochs=3, batch_size=3, seed=4)  # 8 samples: a ragged last batch
    runs = []
    for step in (trainer._train_step, per_sample_step):
        monkeypatch.setattr(trainer, "_train_step", step)
        model = tiny_model(seed=6)
        log = train(data, model, cfg, eval_dataset=data[:3])
        runs.append(([{k: v for k, v in r.items() if k != "wall_ms"} for r in log],
                     {n: t.data.copy() for n, t in model.store.items()}))
    (log, params), (ref_log, ref_params) = runs
    # the batched head sums weight and text-token gradients over its batch
    # axis in one GEMM instead of the reference's add chain, so losses and
    # parameters may differ in their last bits; all else is exact
    assert len(log) == len(ref_log)
    for r, ref in zip(log, ref_log):
        assert r.keys() == ref.keys()
        assert {k: v for k, v in r.items() if k != "train_loss"} == \
            {k: v for k, v in ref.items() if k != "train_loss"}
        assert abs(r["train_loss"] - ref["train_loss"]) <= 1e-12
    assert params.keys() == ref_params.keys()
    assert all(np.max(np.abs(params[n] - ref_params[n])) <= 1e-12 for n in params)


def test_train_encoder_cache_matches_uncached(monkeypatch):
    data = tiny_dataset()
    results = []
    for cache in (True, False):
        if not cache:  # force the path that re-encodes every step
            monkeypatch.setattr(trainer.EncodingMemo, "encode", lambda self, m, d: None)
        model = tiny_model(seed=5)
        log = train(data, model, OptimConfig(epochs=2, batch_size=4, seed=2))
        results.append(([r["train_loss"] for r in log],
                        model.store["fusion.clf.w"].data.copy()))
    assert results[0][0] == results[1][0]
    assert np.array_equal(results[0][1], results[1][1])


def test_train_frozen_params_never_change():
    model = tiny_model()
    before = model.store["rgb.patch.w"].data.copy()
    train(tiny_dataset(), model, OptimConfig(epochs=2, batch_size=4))
    assert np.array_equal(model.store["rgb.patch.w"].data, before)


def test_train_stop_at_perfect_train():
    # lr=0 never reaches 100%: the loop must run all epochs
    model = tiny_model()
    data = tiny_dataset()
    cfg = OptimConfig(epochs=3, batch_size=4, base_lr=0.0,
                      stop_at_perfect_train=True)
    log = train(data, model, cfg)
    assert len(log) == 3 or log[-1]["train_top1"] == 1.0


def test_train_empty_dataset_rejected():
    with pytest.raises(ContractError):
        train([], tiny_model(), OptimConfig(epochs=1))


def test_evaluate_identical_with_and_without_no_grad():
    model = tiny_model(seed=4)
    data = tiny_dataset(samples_per_class=1)
    recorded = evaluate.__wrapped__(data, model)  # evaluate without no_grad
    assert recorded == evaluate(data, model)


def test_train_frees_previous_step_tape_before_next_forward(monkeypatch):
    # Tensor has __slots__ without __weakref__, so the weakref is to the
    # batch loss's own data array, which only that tensor holds.
    model = tiny_model()
    loss_refs, dead = [], []
    real_backward, real_head = ad.backward, model.head

    def recording_backward(root, grad=None):
        if root.shape[-1] == 1:  # a block's (b, 1) losses, not the (L, d) text tokens
            loss_refs.append(weakref.ref(root.data))
        return real_backward(root, grad)

    def checking_head(*args, **kwargs):
        if len(dead) < len(loss_refs):  # first head call of a later step
            dead.append(loss_refs[-1]() is None)
        return real_head(*args, **kwargs)

    monkeypatch.setattr(ad, "backward", recording_backward)
    monkeypatch.setattr(model, "head", checking_head)
    train(tiny_dataset(), model, OptimConfig(epochs=2, batch_size=4))
    assert len(loss_refs) == 4
    assert dead == [True, True, True]


# -- frozen-encoder memo ------------------------------------------------------------

def count_encodes(monkeypatch) -> list:
    """Record the ids of the samples Model.encode_sample encodes."""
    calls, real = [], Model.encode_sample

    def counting(self, samples):
        calls.extend(s.sample_id for s in samples)
        return real(self, samples)

    monkeypatch.setattr(Model, "encode_sample", counting)
    return calls


def test_train_encodes_the_eval_set_once_over_all_epochs(monkeypatch):
    data, held_out = tiny_dataset(), tiny_dataset(samples_per_class=1, seed=1)
    calls = count_encodes(monkeypatch)
    log = train(data, tiny_model(), OptimConfig(epochs=3, batch_size=4),
                eval_dataset=held_out)
    assert all(r["eval_top1"] is not None for r in log)
    assert sorted(calls) == sorted(s.sample_id for s in data + held_out)


def test_evaluate_with_a_memo_matches_evaluate_without_one():
    data = tiny_dataset(samples_per_class=1)
    model, memo = tiny_model(seed=2), EncodingMemo()
    assert evaluate(data, model, memo=memo) == evaluate(data, model)
    assert len(memo) == len(data)
    assert evaluate(data, model, memo=memo) == evaluate(data, model)  # all hits
    assert len(memo) == len(data)


def test_memo_misses_after_an_assigned_parameter_edit(monkeypatch):
    data = tiny_dataset(samples_per_class=1)
    model, memo = tiny_model(seed=2), EncodingMemo()
    first = evaluate(data, model, memo=memo)
    w = model.store["rgb.patch.w"]
    with pytest.raises(ValueError, match="read-only"):
        w.data *= 3.0  # the installed value cannot be written in place
    w.data = w.data * 3.0
    calls = count_encodes(monkeypatch)
    second = evaluate(data, model, memo=memo)
    assert len(calls) == len(data)
    assert second == evaluate(data, model)
    assert second["per_sample"] != first["per_sample"]


def test_memo_keys_on_the_encoder_config_not_only_its_parameters(monkeypatch):
    data = tiny_dataset(samples_per_class=1)
    model = tiny_model(seed=2)
    cfg = dataclasses.replace(model.cfg, rgb=dataclasses.replace(model.cfg.rgb, heads=1))
    other = Model(cfg, seed=2)  # same parameter shapes and values, other outputs
    for name, t in model.store.items():
        assert np.array_equal(t.data, other.store[name].data), name
    memo = EncodingMemo()
    evaluate(data, model, memo=memo)
    calls = count_encodes(monkeypatch)
    result = evaluate(data, other, memo=memo)
    assert len(calls) == len(data)
    assert result == evaluate(data, other)
    assert result != evaluate(data, model)


@pytest.mark.parametrize("n", [1, 4, 5, 9])
def test_memo_encodes_its_misses_four_to_a_call(monkeypatch, n):
    data = tiny_dataset(samples_per_class=3)[:n]
    model, memo = tiny_model(seed=2), EncodingMemo()
    calls = []
    real = Model.encode_sample
    monkeypatch.setattr(Model, "encode_sample",
                        lambda self, s: calls.append(len(s)) or real(self, s))
    half = memo.encode(model, data[:n // 2])
    assert len(calls) == math.ceil((n // 2) / trainer.HEAD_BATCH)
    calls.clear()
    full = memo.encode(model, data + data[:1])  # a repeated sample is encoded once
    misses = n - n // 2
    assert calls == [trainer.HEAD_BATCH] * (misses // 4) + [misses % 4] * (misses % 4 > 0)
    assert len(memo) == n and len(full) == n + 1 and full[-1] is full[0]
    assert all(a is b for pair, ref in zip(full, half) for a, b in zip(pair, ref))
    monkeypatch.setattr(Model, "encode_sample", real)
    with ad.no_grad():
        for (fv, fe), s in zip(full, data):
            one = model.encode_sample([s])
            assert fv.tobytes() == one[0].data[0].tobytes()
            assert fe.tobytes() == one[1].data[0].tobytes()


def test_memo_holds_nothing_for_trainable_encoders():
    model = tiny_model()
    for _, t in model.store.items():
        t.requires_grad = True
    memo = EncodingMemo()
    assert memo.encode(model, tiny_dataset(samples_per_class=1)) is None
    assert len(memo) == 0


def test_evaluate_without_a_memo_computes_no_key(monkeypatch):
    # no sample key: the only digest evaluate may take is the text tokens' one
    monkeypatch.setattr(trainer, "digest", lambda *a: pytest.fail("key computed"))
    evaluate(tiny_dataset(samples_per_class=1), tiny_model())


def count_recomputes(monkeypatch, model) -> dict[str, list]:
    """Record the calls of the three consumers of unchanged values: the
    cast's per-value step, the text branch's forward and the digest of the
    encoder parameters."""
    calls = {"cast": [], "text": count_label_encodes(monkeypatch), "digest": []}
    real_cast, real_digest = ParamStore._cast_value, trainer.digest

    def cast_value(self, name, data, dtype):
        calls["cast"].append(name)
        return real_cast(self, name, data, dtype)

    def digest(arrays, *context):
        if context == (model.cfg.rgb, model.cfg.event):
            calls["digest"].append(context)
        return real_digest(arrays, *context)

    monkeypatch.setattr(ParamStore, "_cast_value", cast_value)
    monkeypatch.setattr(trainer, "digest", digest)
    return calls


def test_a_repeated_evaluate_of_unchanged_values_recomputes_nothing(monkeypatch):
    data = tiny_dataset(samples_per_class=1)[:1]
    model, memo = tiny_model(seed=3), EncodingMemo()
    want = evaluate(data, model, memo=memo)
    calls = count_recomputes(monkeypatch, model)
    assert evaluate(data, model, memo=memo) == want
    assert evaluate(data, model) == want
    assert calls == {"cast": [], "text": [], "digest": []}
    n = len(model.store.names())
    # a value set anew, though equal, is recomputed once by the consumers that read it
    for name, recomputes in (("rgb.patch.b", (n, 0, 1)), ("text.proj.b", (n, 1, 0)),
                             ("fusion.clf.b", (n, 0, 0))):
        model.store.set(name, model.store[name].data)
        for _ in range(2):
            assert evaluate(data, model, memo=memo) == want
        assert tuple(map(len, calls.values())) == recomputes, name
        for c in calls.values():
            c.clear()


def test_no_cache_keeps_a_replaced_value_alive():
    data = tiny_dataset(samples_per_class=1)[:1]
    model, memo = tiny_model(seed=3), EncodingMemo()
    for _ in range(2):  # the second call reuses every cached result
        evaluate(data, model, memo=memo)
    w = model.store["rgb.patch.w"]
    with model.store.cast(trainer.TRAIN_DTYPE):
        refs = [weakref.ref(w.data)]
    refs.append(weakref.ref(w.data))
    model.store.set("rgb.patch.w", w.data)
    assert [r() for r in refs] == [None, None]


# -- class text tokens -----------------------------------------------------------

def count_label_encodes(monkeypatch) -> list:
    calls, real = [], fusion.encode_labels

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fusion, "encode_labels", counting)
    return calls


def test_no_grad_evaluate_encodes_the_labels_once(monkeypatch):
    data = tiny_dataset(samples_per_class=1)
    model = tiny_model(seed=3)
    want = evaluate(data, tiny_model(seed=3))
    calls = count_label_encodes(monkeypatch)
    assert evaluate(data, model) == want
    assert evaluate(data, model) == want
    assert len(calls) == 1


def test_text_tokens_recomputed_after_an_assigned_text_edit(monkeypatch):
    data = tiny_dataset(samples_per_class=1)
    model = tiny_model(seed=3)
    first = evaluate(data, model)
    calls = count_label_encodes(monkeypatch)
    w = model.store["text.proj.w"]
    with pytest.raises(ValueError, match="read-only"):
        w.data *= 3.0  # the installed value cannot be written in place
    w.data = w.data * 3.0
    second = evaluate(data, model)
    assert len(calls) == 1
    assert second["per_sample"] != first["per_sample"]
    fresh = tiny_model(seed=3)
    fresh.store.set("text.proj.w", fresh.store["text.proj.w"].data * 3.0)
    assert second == evaluate(data, fresh)


def test_training_with_a_frozen_text_branch_encodes_the_labels_once(monkeypatch):
    data = tiny_dataset()
    model = tiny_model(seed=3)
    model.store.freeze("text.")
    calls = count_label_encodes(monkeypatch)
    log = train(data, model, OptimConfig(epochs=3, batch_size=4))
    assert len(log) == 3 and len(calls) == 1  # 6 steps


def test_frozen_text_branch_is_encoded_once_over_train_and_evaluations(monkeypatch):
    data = tiny_dataset()
    model = tiny_model(seed=3)
    model.store.freeze("text.")
    calls = count_label_encodes(monkeypatch)
    log = train(data, model, OptimConfig(epochs=3, batch_size=4), eval_dataset=data[:2])
    assert len(log) == 3 and len(calls) == 1  # steps and evaluations share the dtype


def test_training_records_the_text_branch_after_a_no_grad_evaluate(monkeypatch):
    data = tiny_dataset(samples_per_class=1)
    model = tiny_model(seed=3)
    evaluate(data, model)  # fills the no-grad text tokens
    calls = count_label_encodes(monkeypatch)
    ft = model.text_tokens()
    assert len(calls) == 1 and ft.requires_grad and ft._parents
    model.store.zero_grad()
    backward(ft, 2.0 * ft.data)  # the gradients of sum(ft ** 2)
    assert np.abs(model.store["text.proj.w"].grad).sum() > 0
    before = model.store["text.embed"].data.copy()
    train(data, model, OptimConfig(epochs=1, batch_size=4))
    assert len(calls) == 2
    assert not np.array_equal(model.store["text.embed"].data, before)


# -- non-finite loss or gradient ---------------------------------------------------

def with_entry(a, index, value):
    """A copy of a whose entry at index is value."""
    edited = a.copy()
    edited[index] = value
    return edited


def param_bytes(model):
    return {n: t.data.tobytes() for n, t in model.store.items()}


def test_train_stops_on_a_non_finite_loss_before_any_update():
    model = tiny_model(seed=2)
    w = model.store["fusion.clf.w"]
    w.data = with_entry(w.data, (0, 0), np.nan)
    before = param_bytes(model)
    with pytest.raises(NumericError, match=r"^epoch 0, step 0: non-finite loss nan$"):
        train(tiny_dataset(), model, OptimConfig(epochs=2, batch_size=4))
    assert param_bytes(model) == before


@pytest.mark.parametrize("group", ["text", "fusion"])
def test_train_stops_on_a_non_finite_gradient_naming_its_group(monkeypatch, group):
    model = tiny_model(seed=2)
    name = next(n for n, _ in model.store.trainable_items() if n.startswith(group + "."))
    real, calls = ad.backward, []

    def poisoned(root, grad=None):  # the second step leaves one inf in name's gradient
        grads = real(root, grad)
        calls.append(root)
        if len(calls) == 2 * 2:  # a block's and the text branch's backward per step
            model.store[name].grad.reshape(-1)[0] = np.inf
        return grads

    monkeypatch.setattr(ad, "backward", poisoned)
    with pytest.raises(NumericError) as exc:
        train(tiny_dataset(), model, OptimConfig(epochs=2, batch_size=4))
    assert str(exc.value) == (f"epoch 0, step 1: non-finite gradient in the {group} "
                              f"group ({name})")
    # the failing step updated nothing: the parameters are those after step 0
    monkeypatch.setattr(ad, "backward", real)
    monkeypatch.setattr(trainer, "adamw_step", update_once(trainer.adamw_step))
    one_step = tiny_model(seed=2)
    with pytest.raises(NumericError, match="^epoch 0, step 1: stop$"):
        train(tiny_dataset(), one_step, OptimConfig(epochs=2, batch_size=4))
    assert param_bytes(model) == param_bytes(one_step)


def update_once(step):
    """adamw_step that updates once, then raises instead of updating again."""
    calls = []

    def once(*args, **kwargs):
        if calls:
            raise NumericError("stop")
        calls.append(1)
        return step(*args, **kwargs)
    return once


# -- the batched fusion head ------------------------------------------------

SWITCH_COMBOS = [dict(zip(("sci", "mt", "sa", "ca"), c))
                 for c in itertools.product([True, False], repeat=4)]


def frozen_encodings(model, data):
    with ad.no_grad():
        return [tuple(t.data[0] for t in model.encode_sample([s])) for s in data]


def combo_id(combo) -> str:
    return "-".join(f"{k}{int(v)}" for k, v in combo.items())


@pytest.mark.parametrize("combo,dtype", [
    *(pytest.param(c, np.float64, id=combo_id(c)) for c in SWITCH_COMBOS),
    *(pytest.param(c, np.float32, id=combo_id(c) + "-float32") for c in SWITCH_COMBOS),
])
def test_head_rows_bit_equals_per_sample_heads(combo, dtype):
    model = tiny_model(seed=1, **combo)
    with model.store.cast(dtype):
        enc = frozen_encodings(model, tiny_dataset()[:6])  # sub-batches of 4 and 2
        ft = model.text_tokens()
        logits, pooled = head_rows(model, stack_blocks(enc, dtype), ft)
        rows = [model.head(Tensor(a), Tensor(b), ft) for a, b in enc]
    assert logits.data.dtype == pooled.data.dtype == dtype
    assert logits.shape == (6, len(LABELS)) and pooled.shape == (6, DIM)
    assert logits.data.tobytes() == np.concatenate([r[0].data for r in rows]).tobytes()
    assert pooled.data.tobytes() == np.concatenate([r[1].data for r in rows]).tobytes()


def assert_a_step_grads_exactly_the_trainable_parameters(model, data):
    """One training step gives every trainable parameter a finite gradient
    and a frozen one none."""
    with model.store.cast(trainer.TRAIN_DTYPE):
        cache = EncodingMemo().encode(model, data)
    trainer._train_step(model, data, np.arange(len(data)), cache, TrainState(), 1e-3,
                        OptimConfig())
    for name, t in model.store.items():
        if t.requires_grad:
            assert t.grad is not None and np.isfinite(t.grad).all(), name
        else:
            assert t.grad is None, name


@pytest.mark.parametrize("pattern", config.ABLATION_PATTERNS, ids=combo_id)
def test_under_every_ablation_pattern_a_step_grads_exactly_the_trainable_parameters(pattern):
    cfg = config.load_config(None, {
        "data.samples_per_class": 1, "data.frames": 2, "data.resolution": [16, 16],
        "rgb_encoder.image_size": 16, "rgb_encoder.dim": 16, "rgb_encoder.heads": 2,
        "event_encoder.image_size": 16, "event_encoder.dim": 16, "event_encoder.heads": 2,
        "text.dim": 16, "text.heads": 2, "fusion.dim": 16, "fusion.heads": 2,
        **{f"switches.{k}": v for k, v in pattern.items()}})
    data, _ = config.make_datasets(cfg)
    assert_a_step_grads_exactly_the_trainable_parameters(
        Model(cfg.model_config(), seed=cfg.seed), data)


@pytest.mark.parametrize("combo", SWITCH_COMBOS, ids=combo_id)
def test_under_every_switch_combination_a_step_grads_exactly_the_trainable_parameters(combo):
    assert_a_step_grads_exactly_the_trainable_parameters(tiny_model(seed=3, **combo),
                                                         tiny_dataset()[:6])


@pytest.mark.parametrize("n", [1, 4, 5, 8, 9])
def test_head_rows_calls_the_head_once_per_sub_batch(monkeypatch, n):
    model = tiny_model()
    enc = frozen_encodings(model, tiny_dataset(samples_per_class=3)[:n])
    calls = []
    real = Model.head

    def counted(self, fv, fe, ft):
        calls.append(fv.shape[0])
        return real(self, fv, fe, ft)

    monkeypatch.setattr(Model, "head", counted)
    logits, _ = head_rows(model, stack_blocks(enc, np.float64), model.text_tokens())
    assert logits.shape[0] == n
    assert len(calls) == math.ceil(n / trainer.HEAD_BATCH)
    assert all(b == trainer.HEAD_BATCH for b in calls[:-1])


def test_head_rows_rejects_encodings_of_different_token_counts():
    model = tiny_model()
    (fv, fe), = frozen_encodings(model, tiny_dataset()[:1])
    with pytest.raises(DimensionError, match="vision encodings differ"):
        head_rows(model, stack_blocks([(fv, fe), (fv[1:], fe)], np.float64), model.text_tokens())


def test_head_rows_backpropagates_into_each_encoding_bit_exactly():
    # trainable encoders put a block's (b, T, d) encodings on the tape (the
    # lvm-off path); a sample's rows of their gradient are its own head's
    model = tiny_model(seed=2)
    enc = frozen_encodings(model, tiny_dataset()[:5])
    weights = np.random.default_rng(0).normal(size=(5, len(LABELS)))
    blocks = list(stack_blocks(enc, np.float64))  # blocks of 4 and 1
    for t in (t for block in blocks for t in block):
        t.requires_grad = True
    logits, _ = head_rows(model, blocks, model.text_tokens())
    backward(logits, weights)
    fv_grad, fe_grad = (np.concatenate([block[k].grad for block in blocks]) for k in (0, 1))
    for i, ((fv, fe), w) in enumerate(zip(enc, weights)):
        one = [Tensor(fv, requires_grad=True), Tensor(fe, requires_grad=True)]
        row, _ = model.head(*one, model.text_tokens())
        backward(row, w[None])
        assert fv_grad[i].tobytes() == one[0].grad.tobytes()
        assert fe_grad[i].tobytes() == one[1].grad.tobytes()


@pytest.mark.parametrize("frozen", [True, False])
def test_batched_train_runs_are_bit_identical(frozen):
    base = tiny_model().cfg
    cfg = dataclasses.replace(base, rgb=dataclasses.replace(base.rgb, frozen=frozen),
                              event=dataclasses.replace(base.event, frozen=frozen))
    data = tiny_dataset()
    runs = []
    for _ in range(2):
        model = Model(cfg, seed=7)
        log = train(data, model, OptimConfig(epochs=2, batch_size=6, seed=1),
                    eval_dataset=data[:5])
        runs.append(([{k: v for k, v in r.items() if k != "wall_ms"} for r in log],
                     {n: t.data.tobytes() for n, t in model.store.items()}))
    assert runs[0] == runs[1]


# -- blockwise training step -----------------------------------------------------

def one_tape_step(model, dataset, idx, cache, state, lr, cfg):
    """Reference step: every head block of the batch on one tape, then a
    single backward from the batch-mean loss."""
    model.store.zero_grad()
    if cache is not None:
        blocks = stack_blocks([cache[i] for i in idx], trainer.TRAIN_DTYPE)
    else:
        blocks = encode_blocks(model, [dataset[i] for i in idx])
    logits, _ = head_rows(model, blocks, model.text_tokens())
    labels = np.array([dataset[i].label for i in idx])
    losses = cross_entropy(logits, labels)
    backward(ad.mean_rows(losses))
    adamw_step(model, state, lr, cfg)
    return losses.data[:, 0].tolist(), int(np.sum(np.argmax(logits.data, axis=1) == labels))


def step_case(case):
    """A fresh model and its encoder cache for one step case."""
    model = tiny_model(seed=5, sci=case != "sci-off")
    if case == "frozen-text":
        model.store.freeze("text.")
    if case == "trainable-encoders":
        for name, t in model.store.items():
            t.requires_grad = t.requires_grad or name.startswith(("rgb.", "event."))
    return model, EncodingMemo().encode(model, tiny_dataset())


STEP_CASES = ["sci-on", "sci-off", "frozen-text", "trainable-encoders"]


@pytest.mark.parametrize("case", STEP_CASES)
def test_blockwise_step_matches_the_one_tape_step(monkeypatch, case):
    monkeypatch.setattr(trainer, "TRAIN_DTYPE", np.float64)
    data, idx = tiny_dataset(), np.array([6, 1, 4, 0, 7, 2])  # blocks of 4 and 2
    runs = []
    for step in (trainer._train_step, one_tape_step):
        model, cache = step_case(case)
        out = step(model, data, idx, cache, TrainState(), 1e-3, OptimConfig())
        runs.append((out, {n: t.data for n, t in model.store.items()},
                     {n: t.grad for n, t in model.store.trainable_items()}))
    ((losses, hits), params, grads), ((ref_losses, ref_hits), ref_params, ref_grads) = runs
    assert np.array(losses).tobytes() == np.array(ref_losses).tobytes() and hits == ref_hits
    # the blocks only reorder the weight- and text-gradient sums
    assert grads.keys() == ref_grads.keys()
    assert all((grads[n] is None) == (ref_grads[n] is None) for n in grads)
    assert all(np.max(np.abs(grads[n] - ref_grads[n])) <= 1e-12
               for n in grads if grads[n] is not None)
    assert all(np.max(np.abs(params[n] - ref_params[n])) <= 1e-12 for n in params)


@pytest.mark.parametrize("case", STEP_CASES)
def test_one_block_step_is_bit_identical_to_the_one_tape_step(monkeypatch, case):
    monkeypatch.setattr(trainer, "TRAIN_DTYPE", np.float64)
    data, idx = tiny_dataset(), np.array([5, 0, 3])
    runs = []
    for step in (trainer._train_step, one_tape_step):
        model, cache = step_case(case)
        runs.append((step(model, data, idx, cache, TrainState(), 1e-3, OptimConfig()),
                     param_bytes(model)))
    assert runs[0] == runs[1]


def test_each_block_runs_its_forward_and_backward_before_the_next(monkeypatch):
    # trainable encoders: a block's samples are encoded only when it runs
    model, cache = step_case("trainable-encoders")
    assert cache is None
    events = []
    real_encode, real_head, real_backward = model.encode_sample, model.head, ad.backward
    monkeypatch.setattr(model, "encode_sample",
                        lambda s: events.append(("encode", len(s))) or real_encode(s))
    monkeypatch.setattr(model, "head", lambda *a: events.append("head") or real_head(*a))
    monkeypatch.setattr(ad, "backward", lambda *a: events.append("backward")
                        or real_backward(*a))
    monkeypatch.setattr(trainer, "adamw_step", lambda *a: events.append("adamw"))
    trainer._train_step(model, tiny_dataset(), np.arange(6), cache, TrainState(),
                        1e-3, OptimConfig())
    # one encode per block; after the last block, the text branch's backward
    assert events == [("encode", 4), "head", "backward", ("encode", 2),
                      "head", "backward", "backward", "adamw"]


def desk_step_peak_mb(n_samples):
    """tracemalloc peak of one cached training step on the default desk config."""
    cfg = config.load_config(None, {"data.samples_per_class": 4,
                                    "data.eval_samples_per_class": 0})
    data, _ = config.make_datasets(cfg)
    model = Model(cfg.model_config(), seed=cfg.seed)
    cache, state = EncodingMemo().encode(model, data), TrainState()
    for traced in (False, True):  # the untraced step allocates the AdamW moments
        if traced:
            tracemalloc.start()
        trainer._train_step(model, data, np.arange(n_samples), cache, state,
                            1e-4, cfg.optim)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak / 2**20


def test_a_training_step_holds_one_head_block_at_a_time():
    assert trainer.HEAD_BATCH == 4
    assert desk_step_peak_mb(16) <= 1.25 * desk_step_peak_mb(4)


# -- float32 training steps and classification, float64 master weights ------------

def record_node_dtypes(monkeypatch):
    """The dtype of every tape node _make creates from now on."""
    real, seen = ad._make, []
    monkeypatch.setattr(ad, "_make", lambda data, *a: seen.append(data.dtype) or real(data, *a))
    return seen


@pytest.mark.parametrize("case", STEP_CASES)
def test_a_float32_step_creates_only_float32_nodes(monkeypatch, case):
    assert trainer.TRAIN_DTYPE is np.float32
    model, cache = step_case(case)  # a float64 cache: the step casts it
    seen = record_node_dtypes(monkeypatch)
    trainer._train_step(model, tiny_dataset(), np.arange(6), cache, TrainState(),
                        1e-3, OptimConfig())
    assert seen and set(seen) == {np.dtype(np.float32)}


def test_train_keeps_float64_values_moments_checkpoints_and_forward(monkeypatch, tmp_path):
    model, data, states = tiny_model(seed=1), tiny_dataset(), []
    real = trainer.adamw_step
    monkeypatch.setattr(trainer, "adamw_step",
                        lambda m, state, *a: states.append(state) or real(m, state, *a))
    train(data, model, OptimConfig(epochs=2, batch_size=4), eval_dataset=data[:2])
    f64 = np.dtype(np.float64)
    assert {t.data.dtype for t in model.store.tensors()} == {f64}
    assert {t.grad.dtype for _, t in model.store.trainable_items()
            if t.grad is not None} == {f64}
    state = states[-1]
    assert state.m and {a.dtype for a in [*state.m.values(), *state.v.values()]} == {f64}
    model.store.save(tmp_path / "m.ckpt")
    assert json.loads((tmp_path / "m.ckpt.json").read_text())["dtype"] == "<f8"
    seen = record_node_dtypes(monkeypatch)
    assert model.forward(data[0]).data.dtype == f64
    assert seen and set(seen) == {f64}
    seen.clear()
    result = evaluate(data, model)  # classifies as a step computes, scores in float64
    assert seen and set(seen) == {np.dtype(trainer.TRAIN_DTYPE)}
    for row in result["per_sample"]:
        assert all(type(p) is float for p in row["scores"])
        assert abs(math.fsum(row["scores"]) - 1.0) <= 1e-12


def test_a_float32_step_agrees_with_a_float64_step(monkeypatch):
    # float32 keeps about 7 significant digits: the losses (about 1.4) agree
    # to 1e-6, the gradients to 1e-7 and the parameters after one AdamW step
    # of lr 1e-3 to 1e-5, a hundredth of that step
    runs = []
    for dtype in (np.float32, np.float64):
        monkeypatch.setattr(trainer, "TRAIN_DTYPE", dtype)
        model, cache = step_case("sci-on")
        out = trainer._train_step(model, tiny_dataset(), np.arange(8), cache, TrainState(),
                                  1e-3, OptimConfig())
        runs.append((out, {n: t.data for n, t in model.store.items()},
                     {n: t.grad for n, t in model.store.trainable_items()}))
    ((losses, hits), params, grads), ((ref_losses, ref_hits), ref_params, ref_grads) = runs
    assert hits == ref_hits
    assert np.max(np.abs(np.array(losses) - ref_losses)) <= 1e-6
    assert all((grads[n] is None) == (ref_grads[n] is None) for n in grads)
    assert all(np.max(np.abs(grads[n] - ref_grads[n])) <= 1e-7
               for n in grads if grads[n] is not None)
    assert all(np.max(np.abs(params[n] - ref_params[n])) <= 1e-5 for n in params)


def test_evaluate_after_train_reads_the_steps_memo_entries(monkeypatch):
    data, memo = tiny_dataset(), EncodingMemo()
    model = tiny_model(seed=3)
    train(data, model, OptimConfig(epochs=2, batch_size=4), memo=memo)
    assert len(memo) == len(data)  # the steps' entries
    calls = count_encodes(monkeypatch)
    with_memo = evaluate(data, model, memo=memo)
    assert calls == [] and len(memo) == len(data)  # no second entry of any sample
    assert with_memo == evaluate(data, model)


def test_evaluate_of_each_sample_alone_equals_its_row_of_the_whole_set():
    data = tiny_dataset(samples_per_class=2)[:6]  # blocks of 4 and 2
    model = tiny_model(seed=3)
    whole = evaluate(data, model)["per_sample"]
    assert [evaluate([s], model)["per_sample"][0] for s in data] == whole


def test_float32_evaluate_matches_the_float64_forward_of_a_trained_model():
    data = tiny_dataset(samples_per_class=3)
    model = tiny_model(seed=3)
    log = train(data, model, OptimConfig(epochs=20, batch_size=4, base_lr=1e-2))
    assert log[-1]["train_loss"] < 0.75 * math.log(len(LABELS))  # the scores are not flat
    assert trainer.TRAIN_DTYPE is np.float32
    result = evaluate(data, model)
    with ad.no_grad():
        logits = np.concatenate([model.forward(s).data for s in data])
    assert logits.dtype == np.float64
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    want = e / e.sum(axis=1, keepdims=True)
    scores = np.array([row["scores"] for row in result["per_sample"]])
    assert [row["pred"] for row in result["per_sample"]] == np.argmax(logits, axis=1).tolist()
    assert np.max(np.abs(scores - want)) <= 1e-5
    assert np.max(np.abs(scores.sum(axis=1) - 1.0)) <= 1e-12


def test_param_store_cast_restores_the_float64_values_when_the_block_raises():
    model = tiny_model()
    before = {n: t.data for n, t in model.store.items()}
    with pytest.raises(NumericError):
        with model.store.cast(np.float32):
            assert {t.data.dtype for t in model.store.tensors()} == {np.dtype(np.float32)}
            raise NumericError("stop")
    assert all(t.data is before[n] for n, t in model.store.items())


def test_param_store_cast_of_a_finite_value_beyond_its_range_names_the_parameter():
    model = tiny_model()
    model.store.set("fusion.clf.w", with_entry(model.store["fusion.clf.w"].data, (1, 2), -1e39))
    w = model.store["fusion.clf.w"].data
    before = {n: t.data for n, t in model.store.items()}
    with pytest.raises(NumericError, match=r"^fusion\.clf\.w: a finite value overflows float32$"):
        with model.store.cast(np.float32):
            pytest.fail("the block ran")
    assert all(t.data is before[n] for n, t in model.store.items())
    # NaN and inf overflow nothing: they are cast as they are, for the checks downstream
    model.store.set("fusion.clf.w", with_entry(with_entry(w, (1, 2), np.inf), (1, 3), np.nan))
    with model.store.cast(np.float32):
        cast = model.store["fusion.clf.w"].data
        assert cast.dtype == np.float32 and np.isposinf(cast[1, 2]) and np.isnan(cast[1, 3])


def test_param_store_cast_reuses_the_copy_of_an_installed_value():
    store = tiny_model().store
    with store.cast(np.float32):
        first = {n: t.data for n, t in store.items()}
    with store.cast(np.float32):
        assert all(t.data is first[n] for n, t in store.items())
        with pytest.raises(ValueError, match="read-only"):
            store["fusion.clf.w"].data[0, 0] = 1.0
    w, b = store["fusion.clf.w"], store["fusion.clf.b"]
    store.set("fusion.clf.w", w.data * 2.0)  # the setter drops the kept copy
    b.data = b.data * 2.0  # an assigned value is cast on every call
    casts = []
    for _ in range(2):
        with store.cast(np.float32):
            casts.append((w.data, b.data))
    (w1, b1), (w2, b2) = casts
    assert w1 is w2 and w1 is not first["fusion.clf.w"]
    assert w1.tobytes() == (first["fusion.clf.w"] * np.float32(2.0)).tobytes()
    assert b1 is not b2 and b1.tobytes() == b2.tobytes() == (
        first["fusion.clf.b"] * np.float32(2.0)).tobytes()


def test_param_store_set_installs_a_read_only_copy_of_the_same_shape():
    store = tiny_model().store
    value = np.ones_like(store["fusion.clf.b"].data)
    store.set("fusion.clf.b", value)
    installed = store["fusion.clf.b"].data
    assert installed is not value and np.array_equal(installed, value)
    value[0, 0] = 5.0  # the caller's array stays its own
    assert installed[0, 0] == 1.0 and not installed.flags.writeable
    with pytest.raises(ContractError, match=r"fusion\.clf\.b: a value of shape \(2, 4\)"):
        store.set("fusion.clf.b", np.ones((2, 4)))


# one parameter read by each consumer of unchanged values: the encoders
# (the memo), the text branch (the text tokens) and the fusion head
_NAMES = ["rgb.patch.b", "text.proj.b", "fusion.clf.b"]


def _save_store(values: dict, path) -> None:
    store = ParamStore()
    for name, value in values.items():
        store.add(name, value)
    store.save(path)


_ENTRY = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1e-40, 1e39, -1e39]))
_OPS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(range(3)), _ENTRY),
    st.tuples(st.just("assign"), st.sampled_from(range(3)), _ENTRY),
    st.tuples(st.just("edit"), st.sampled_from(range(3)), _ENTRY),
    st.tuples(st.just("load"), st.just(0), _ENTRY),
    st.tuples(st.just("adamw"), st.just(0), st.floats(-1.0, 1.0)),
    st.tuples(st.just("cast"), st.just(0), st.just(0.0)),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_OPS, max_size=12))
def test_param_store_casts_equal_a_fresh_astype_whatever_wrote_the_values(tmp_path_factory,
                                                                          ops):
    rng = np.random.default_rng(0)
    model, memo, data = tiny_model(), EncodingMemo(), tiny_dataset(samples_per_class=1)[:1]
    store = model.store
    start = {n: t.data for n, t in store.items()}
    encoders = [n for n in store.names() if n.startswith(("rgb.", "event."))]
    encoded = set()  # the float32 encoder values the memo holds entries for
    encodes, encode_sample = [], model.encode_sample
    model.encode_sample = lambda samples: encodes.append(len(samples)) or encode_sample(samples)
    installed = set(_NAMES)  # the names whose value the store installed
    ckpt = tmp_path_factory.mktemp("cast") / "m.ckpt"
    state, optim = TrainState(), OptimConfig(weight_decay=0.1)
    for op, i, x in ops:
        value = rng.normal(size=start[_NAMES[i]].shape)
        value.reshape(-1)[0] = x
        if op == "set":
            store.set(_NAMES[i], value)
            installed.add(_NAMES[i])
        elif op == "assign":
            store[_NAMES[i]].data = value
            installed.discard(_NAMES[i])
        elif op == "edit":  # an assigned array is edited in place; an installed one cannot be
            if _NAMES[i] not in installed:
                store[_NAMES[i]].data.reshape(-1)[0] = x
        elif op == "load":
            _save_store({**start, **{n: np.full(start[n].shape, x) for n in _NAMES}}, ckpt)
            store.load(ckpt)
            installed = set(_NAMES)
        elif op == "adamw":
            for t in store.tensors():
                t.grad = np.full_like(t.data, x)
            adamw_step(model, state, 1e-3, optim)
            installed |= {n for n in _NAMES if not store.is_frozen(n)}
        else:
            values = {n: t.data for n, t in store.items()}
            with np.errstate(over="ignore"):
                want = {n: v.astype(np.float32) for n, v in values.items()}
            overflows = [n for n in store.names()
                         if np.isinf(want[n]).any() and np.isfinite(values[n]).all()]
            try:
                with store.cast(np.float32):
                    assert not overflows
                    for n, t in store.items():
                        assert t.data.dtype == np.float32
                        assert t.data.tobytes() == want[n].tobytes(), n
                        if n in installed:
                            with pytest.raises(ValueError, match="read-only"):
                                t.data[0, 0] = 0.0  # the kept copy
            except NumericError as exc:
                assert str(exc) == f"{overflows[0]}: a finite value overflows float32"
            assert all(t.data is values[n] for n, t in store.items())
        for n in installed:
            with pytest.raises(ValueError, match="read-only"):
                store[n].data[0, 0] = 0.0
        # the served text tokens are those of a fresh forward, in both dtypes, and
        # the memo encodes exactly when the float32 encoder values are new to it
        with ad.no_grad():
            assert model.text_tokens().data.tobytes() == model._encode_labels().data.tobytes()
            try:
                with store.cast(np.float32):
                    tokens = model.text_tokens().data
                    assert tokens.tobytes() == model._encode_labels().data.tobytes()
                    values = b"".join(store[n].data.tobytes() for n in encoders)
                    encodes.clear()
                    memo.encode(model, data)
                    assert bool(encodes) == (values not in encoded), op
                    encoded.add(values)
            except NumericError as exc:
                assert str(exc).endswith("a finite value overflows float32")
