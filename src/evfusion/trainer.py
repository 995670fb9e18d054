"""Cross-entropy training with AdamW and a cosine learning-rate schedule,
plus top-k evaluation."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError
from .events import Sample
from .fusion import AblationSwitches, Model


@dataclass
class OptimConfig:
    base_lr: float = 3e-4
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    epochs: int = 200
    batch_size: int = 16
    schedule_floor_fraction: float = 0.1
    seed: int = 0
    stop_at_perfect_train: bool = False

    def __post_init__(self):
        if self.base_lr < 0:
            raise ContractError("base_lr must be >= 0")
        if not (0.0 <= self.schedule_floor_fraction < 1.0):
            raise ContractError("schedule_floor_fraction must be in [0, 1)")
        if self.batch_size < 1:
            raise ContractError("batch_size must be >= 1")


@dataclass
class TrainState:
    step: int = 0
    epoch: int = 0
    current_lr: float = 0.0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """-log softmax(logits)[target] in stable log-sum-exp form."""
    n = logits.data.size
    if not (0 <= target < n):
        raise ContractError(f"target {target} out of range for {n} classes")
    onehot = np.zeros((n, 1))
    onehot[target, 0] = 1.0
    picked = ad.matmul(logits, Tensor(onehot))
    lse = ad.logsumexp_rows(logits)
    return ad.add(lse, ad.scale(picked, -1.0))


def softmax_scores(logits: np.ndarray) -> np.ndarray:
    flat = logits.reshape(-1)
    e = np.exp(flat - flat.max())
    return e / e.sum()


def adamw_step(model: Model, state: TrainState, lr: float,
               cfg: OptimConfig) -> None:
    """Decoupled-weight-decay update; frozen groups are skipped."""
    b1, b2 = cfg.betas
    state.step += 1
    t = state.step
    for name, p in model.store.trainable_items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape mismatch for {name}")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p.data = (p.data - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
                  - lr * cfg.weight_decay * p.data)
    state.current_lr = lr


def cosine_lr(step: int, total_steps: int, cfg: OptimConfig) -> float:
    """Half-cosine from base_lr down to base_lr * schedule_floor_fraction."""
    if total_steps <= 0:
        raise ContractError("total_steps must be positive")
    if not (0 <= step <= total_steps):
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    floor = cfg.base_lr * cfg.schedule_floor_fraction
    return floor + (cfg.base_lr - floor) * (1 + math.cos(math.pi * step / total_steps)) / 2


@ad.no_grad()
def _cache_encodings(model: Model, dataset: list[Sample]) -> list[tuple[np.ndarray, np.ndarray]]:
    cached = []
    for s in dataset:
        fv, fe = model.encode_sample(s)
        cached.append((fv.data, fe.data))
    return cached


def _train_step(model: Model, dataset: list[Sample], idx: np.ndarray,
                cache: list[tuple[np.ndarray, np.ndarray]] | None,
                switches: AblationSwitches, state: TrainState, lr: float,
                cfg: OptimConfig) -> tuple[list[float], int]:
    """One optimizer step on dataset[idx]: per-sample losses and correct
    count. The step's tape is freed on return, before the next forward."""
    model.store.zero_grad()
    ft = model.text_tokens(switches)
    losses, hits = [], 0
    for i in idx:
        sample = dataset[i]
        if cache is not None:
            fv, fe = Tensor(cache[i][0]), Tensor(cache[i][1])
        else:
            fv, fe = model.encode_sample(sample)
        logits, _ = model.head(fv, fe, ft, switches)
        losses.append(cross_entropy(logits, sample.label))
        if int(np.argmax(logits.data)) == sample.label:
            hits += 1
    batch_loss = losses[0]
    for extra in losses[1:]:
        batch_loss = ad.add(batch_loss, extra)
    batch_loss = ad.scale(batch_loss, 1.0 / len(losses))
    ad.backward(batch_loss)
    adamw_step(model, state, lr, cfg)
    return [float(loss.data[0, 0]) for loss in losses], hits


def train(dataset: list[Sample], model: Model, cfg: OptimConfig,
          switches: AblationSwitches | None = None,
          eval_dataset: list[Sample] | None = None) -> list[dict]:
    """Epoch loop with seeded shuffling; returns the per-epoch metric log.

    When both encoders are frozen their per-sample outputs are constant
    across steps and are precomputed once (observable results are
    unchanged; frozen parameters never update).
    """
    if not dataset:
        raise ContractError("dataset must be nonempty")
    switches = switches or AblationSwitches()
    rng = np.random.default_rng(cfg.seed)
    state = TrainState()

    frozen = model.store.is_frozen("rgb.patch.w") and model.store.is_frozen("event.patch.w")
    cache = _cache_encodings(model, dataset) if frozen else None

    n = len(dataset)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = max(1, cfg.epochs * steps_per_epoch)
    log: list[dict] = []

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        state.epoch = epoch
        perm = rng.permutation(n)
        epoch_losses: list[float] = []
        hits = 0
        for b in range(steps_per_epoch):
            idx = perm[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            lr = cosine_lr(state.step, total_steps, cfg)
            step_losses, step_hits = _train_step(model, dataset, idx, cache,
                                                 switches, state, lr, cfg)
            epoch_losses += step_losses
            hits += step_hits

        train_top1 = hits / n
        record = {
            "epoch": epoch,
            "lr": state.current_lr,
            "train_loss": float(np.mean(epoch_losses)),
            "train_top1": train_top1,
            "eval_top1": None,
            "eval_top5": None,
            "wall_ms": (time.perf_counter() - t0) * 1000.0,
        }
        if eval_dataset:
            metrics = evaluate(eval_dataset, model, switches)
            record["eval_top1"] = metrics["top1"]
            record["eval_top5"] = metrics["top5"]
        log.append(record)
        if cfg.stop_at_perfect_train and train_top1 == 1.0:
            break
    return log


def topk_hit(logits: np.ndarray, target: int, k: int) -> bool:
    """Target among the k largest logits; ties broken by lower class index."""
    flat = logits.reshape(-1)
    order = np.lexsort((np.arange(flat.size), -flat))
    return target in order[:k]


@ad.no_grad()
def evaluate(dataset: list[Sample], model: Model,
             switches: AblationSwitches | None = None) -> dict:
    """Top-1/top-5 accuracy, per-class accuracy, confusion counts, and
    per-sample softmax scores."""
    if not dataset:
        raise ContractError("dataset must be nonempty")
    switches = switches or AblationSwitches()
    n_classes = model.cfg.n_classes
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    top1 = top5 = 0
    per_sample = []
    ft = model.text_tokens(switches)
    for sample in dataset:
        fv, fe = model.encode_sample(sample)
        logits, _ = model.head(fv, fe, ft, switches)
        flat = logits.data.reshape(-1)
        pred = int(np.argmax(flat))
        confusion[sample.label, pred] += 1
        top1 += int(pred == sample.label)
        top5 += int(topk_hit(flat, sample.label, 5))
        scores = softmax_scores(flat)
        order = np.lexsort((np.arange(flat.size), -flat))
        per_sample.append({
            "sample_id": sample.sample_id,
            "label": sample.label,
            "pred": pred,
            "scores": scores.tolist(),
            "top5": [[int(c), float(scores[c])] for c in order[:5]],
        })
    class_total = confusion.sum(axis=1)
    per_class = [float(confusion[c, c] / class_total[c]) if class_total[c] else None
                 for c in range(n_classes)]
    return {
        "top1": top1 / len(dataset),
        "top5": top5 / len(dataset),
        "per_class_accuracy": per_class,
        "confusion": confusion.tolist(),
        "per_sample": per_sample,
    }
