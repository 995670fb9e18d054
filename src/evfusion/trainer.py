"""Cross-entropy training with AdamW and a cosine learning-rate schedule,
plus top-k evaluation."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError, NumericError
from .events import Sample
from .fusion import AblationSwitches, Model
from .params import digest


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
        if self.epochs < 1:
            raise ContractError("epochs must be >= 1")
        if len(self.betas) != 2 or not all(0.0 <= b < 1.0 for b in self.betas):
            raise ContractError(f"betas must be two values in [0, 1), got {list(self.betas)}")
        if not self.weight_decay >= 0.0:
            raise ContractError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class TrainState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def _check_labels(labels: np.ndarray, n: int, what: str) -> None:
    bad = labels[(labels < 0) | (labels >= n)]
    if bad.size:
        raise ContractError(f"{what} {bad[0]} out of range for {n} classes")


def cross_entropy(logits: Tensor, targets: int | Sequence[int]) -> Tensor:
    """Per-row -log softmax(logits)[target] in stable log-sum-exp form.

    logits is (B, L) and targets an int or a length-B label sequence;
    returns the (B, 1) column of per-row losses."""
    b, n = logits.shape
    labels = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if labels.shape != (b,):
        raise ContractError(f"{labels.size} targets for {b} rows of logits")
    _check_labels(labels, n, "target")
    return ad.cross_entropy_rows(logits, labels)


def adamw_step(model: Model, state: TrainState, lr: float,
               cfg: OptimConfig) -> None:
    """Decoupled-weight-decay update of every trainable parameter. Raises
    ContractError, changing nothing, when one lacks a gradient of its shape.
    The moments in state are updated in place; each parameter gets a new array."""
    params = model.store.trainable_items()
    for name, p in params:
        if p.grad is None or p.grad.shape != p.data.shape:
            got = "no gradient" if p.grad is None else f"a gradient of shape {p.grad.shape}"
            raise ContractError(f"trainable parameter {name} of shape {p.data.shape} has {got}")
    b1, b2 = cfg.betas
    state.step += 1
    t = state.step
    for name, p in params:
        g = p.grad
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= b1  # m = b1 * m + (1 - b1) * g
        m += (1 - b1) * g
        v *= b2  # v = b2 * v + (1 - b2) * g * g
        gg = (1 - b2) * g
        gg *= g
        v += gg
        # p - lr * m_hat / (sqrt(v_hat) + 1e-8) - lr * weight_decay * p
        update = m / (1 - b1**t)
        update *= lr
        den = np.divide(v, 1 - b2**t, out=gg)
        np.sqrt(den, out=den)
        den += 1e-8
        update /= den
        new = p.data - update
        new -= np.multiply(lr * cfg.weight_decay, p.data, out=update)
        p.data = new


def cosine_lr(step: int, total_steps: int, cfg: OptimConfig) -> float:
    """Half-cosine from base_lr down to base_lr * schedule_floor_fraction."""
    if total_steps <= 0:
        raise ContractError("total_steps must be positive")
    if not (0 <= step <= total_steps):
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    floor = cfg.base_lr * cfg.schedule_floor_fraction
    return floor + (cfg.base_lr - floor) * (1 + math.cos(math.pi * step / total_steps)) / 2


class EncodingMemo:
    """Frozen-encoder outputs for the length of one command.

    Maps (encoder key, sample key) to the sample's (fv, fe) rows of
    Model.encode_sample. Both keys are content digests: the encoder key
    covers both encoder configs and the dtype and value of every rgb.* and
    event.* parameter, so a parameter written in place misses instead of
    serving a stale entry; the sample key covers the frames, timestamps,
    events and resolution. Training steps and classification both read the
    parameters cast to TRAIN_DTYPE, so they share one entry per sample.
    """

    def __init__(self):
        self._entries: dict[tuple[bytes, bytes], tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @ad.no_grad()
    def encode(self, model: Model,
               dataset: list[Sample]) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """The (fv, fe) arrays of each sample, encoding only the samples
        not yet memoised under the model's encoders, HEAD_BATCH to a
        Model.encode_sample call; None when an encoder trains, since its
        outputs would change every step."""
        params = [t for n, t in model.store.items() if n.startswith(("rgb.", "event."))]
        if any(t.requires_grad for t in params):
            return None
        encoder_key = digest((t.data for t in params), model.cfg.rgb, model.cfg.event)
        keys = []
        for s in dataset:
            ev = s.events
            keys.append((encoder_key, digest([*s.clip.frames, s.clip.timestamps,
                                              ev.x, ev.y, ev.t, ev.p], ev.resolution)))
        # each missing key once: samples with equal keys have equal content
        misses = list({k: s for k, s in zip(keys, dataset) if k not in self._entries}.items())
        for i in range(0, len(misses), HEAD_BATCH):
            block = misses[i:i + HEAD_BATCH]
            fv, fe = model.encode_sample([s for _, s in block])
            for j, (key, _) in enumerate(block):
                self._entries[key] = (fv.data[j], fe.data[j])
        return [self._entries[key] for key in keys]


# Samples per Model.encode_sample and Model.head call, and per
# forward-then-backward block of a training step. A block's saved
# (HEAD_BATCH, heads, T, T) attention weights stay cache-sized, and a step
# holds one block's tape at a time, so its peak memory does not grow with
# the batch size.
HEAD_BATCH = 4

# The dtype of every pass that trains or classifies: a training step's
# forward and backward, evaluate and the embedding export. Parameter values,
# gradients, AdamW moments, checkpoints, Model.forward and the gradient check
# stay float64.
TRAIN_DTYPE = np.float32


def _stack(parts: list[Tensor], what: str) -> Tensor:
    """n (T, d) encodings as one (n, T, d) batch, on the tape when they are."""
    shape = parts[0].shape
    if any(p.shape != shape for p in parts):
        raise DimensionError(
            f"stack_blocks: {what} encodings differ in shape: {[p.shape for p in parts]}")
    return ad.reshape(ad.concat_rows(*parts), (len(parts), *shape))


Block = tuple[Tensor, Tensor]  # the (b, T, d) vision and event encodings of b samples


def stack_blocks(encodings: Iterable[tuple[Tensor, Tensor]]) -> Iterator[Block]:
    """The (T, d) (fv, fe) pairs of single samples, HEAD_BATCH to a block.
    All samples must have the same token counts."""
    pairs = iter(encodings)
    while chunk := list(itertools.islice(pairs, HEAD_BATCH)):
        yield _stack([fv for fv, _ in chunk], "vision"), _stack([fe for _, fe in chunk], "event")


def encode_blocks(model: Model, samples: Sequence[Sample]) -> Iterator[Block]:
    """The encodings of the samples, HEAD_BATCH to a Model.encode_sample
    call; each block is encoded only when it is drawn."""
    for i in range(0, len(samples), HEAD_BATCH):
        yield model.encode_sample(samples[i:i + HEAD_BATCH])


def head_blocks(model: Model, blocks: Iterable[Block],
                ft: Tensor) -> Iterator[tuple[Tensor, Tensor]]:
    """Run Model.head once per (fv, fe) block, every block reading the (L, d)
    text tokens ft, and yield each block's (b, L) logits and (b, d) pooled
    features. A block is dropped before the next is drawn, so encoders that
    train hold one block's tape at a time."""
    for fv, fe in blocks:
        yield model.head(fv, fe, ft)
        del fv, fe


def head_rows(model: Model, blocks: Iterable[Block], ft: Tensor) -> tuple[Tensor, Tensor]:
    """The stacked (N, L) logits and (N, d) pooled features of head_blocks."""
    logits, pooled = zip(*head_blocks(model, blocks, ft))
    return ad.concat_rows(*logits), ad.concat_rows(*pooled)


def classify_rows(model: Model, dataset: Sequence[Sample],
                  memo: EncodingMemo | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The float64 (N, L) logits and (N, d) pooled features of the samples,
    computed in TRAIN_DTYPE on a cast of the parameters, as a training step
    computes them. Frozen encodings come from memo when one is given;
    without one every sample is encoded and no key is computed."""
    with model.store.cast(TRAIN_DTYPE):
        cached = memo.encode(model, dataset) if memo is not None else None
        if cached is not None:
            blocks = stack_blocks((Tensor(fv), Tensor(fe)) for fv, fe in cached)
        else:
            blocks = encode_blocks(model, dataset)
        logits, pooled = head_rows(model, blocks, model.text_tokens())
    return (logits.data.astype(np.float64, copy=False),
            pooled.data.astype(np.float64, copy=False))


def _train_step(model: Model, dataset: list[Sample], idx: np.ndarray,
                cache: list[tuple[np.ndarray, np.ndarray]] | None,
                state: TrainState, lr: float, cfg: OptimConfig) -> tuple[list[float], int]:
    """One optimizer step on dataset[idx]: per-sample losses and correct
    count. The forward and backward passes compute in TRAIN_DTYPE on a cast
    of the parameters; AdamW then updates the float64 values from the
    float64 gradients. Each head block is backpropagated as soon as its
    forward ends and its tape is dropped before the next block starts; the
    weight gradients accumulate in .grad. Raises NumericError, updating
    nothing, when a loss or a trainable gradient is not finite."""
    model.store.zero_grad()
    dtype = TRAIN_DTYPE
    if cache is not None:  # a cache of another dtype is cast to the step's
        blocks = stack_blocks((Tensor(cache[i][0].astype(dtype, copy=False)),
                               Tensor(cache[i][1].astype(dtype, copy=False))) for i in idx)
    else:
        blocks = encode_blocks(model, [dataset[i] for i in idx])
    labels = np.array([dataset[i].label for i in idx])
    with model.store.cast(dtype):
        # The text branch is built once per step. Every block reads its
        # tokens through a detached leaf that gathers their gradient, and
        # one seeded backward after the last block passes that gradient on
        # into the text branch.
        ft = model.text_tokens()
        leaf = Tensor(ft.data, requires_grad=ft.requires_grad)
        # each sample's loss weighs 1/B of the batch mean
        scale = Tensor(np.array([[1.0 / len(idx)]], dtype=dtype))
        losses, hits = [], 0
        # A plain for: enumerate and zip would keep the last block's outputs,
        # and with them its tape, alive while the next block runs.
        for logits, pooled in head_blocks(model, blocks, leaf):
            block_labels = labels[len(losses):len(losses) + logits.shape[0]]
            rows = cross_entropy(logits, block_labels)
            if not np.isfinite(rows.data).all():
                raise NumericError(f"non-finite loss {rows.data.mean()}")
            losses += rows.data[:, 0].tolist()
            hits += int(np.sum(np.argmax(logits.data, axis=1) == block_labels))
            ad.backward(ad.mul(ad.sum_all(rows), scale))
            del logits, pooled, rows  # the block's tape goes with them
        if leaf.grad is not None:
            ad.backward(ft, leaf.grad.astype(dtype))
    for name, p in model.store.trainable_items():  # a missing one is adamw_step's error
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NumericError(
                f"non-finite gradient in the {name.split('.')[0]} group ({name})")
    adamw_step(model, state, lr, cfg)
    return losses, hits


def _check_switches(model: Model, switches: AblationSwitches | None) -> None:
    """A model runs the switches its config fixed when it was built; a caller
    that names switches must name those."""
    if switches is not None and switches != model.cfg.switches:
        raise ContractError(f"switches {switches} differ from the model's {model.cfg.switches}")


def train(dataset: list[Sample], model: Model, cfg: OptimConfig,
          switches: AblationSwitches | None = None,
          eval_dataset: list[Sample] | None = None,
          memo: EncodingMemo | None = None) -> list[dict]:
    """Epoch loop with seeded shuffling; returns the per-epoch metric log.

    The model's config fixes its ablation switches; switches, when given,
    must equal them. When both encoders are frozen their per-sample outputs
    are constant across steps: they come from memo (a fresh one when None),
    which also serves every per-epoch evaluation of eval_dataset. The steps
    and the evaluations both compute in TRAIN_DTYPE, so an evaluation reads
    the memo entries the steps made. Frozen parameters never update.
    """
    if not dataset:
        raise ContractError("dataset must be nonempty")
    _check_switches(model, switches)
    rng = np.random.default_rng(cfg.seed)
    state = TrainState()

    memo = memo if memo is not None else EncodingMemo()
    with model.store.cast(TRAIN_DTYPE):  # the cache is read in the steps' dtype
        cache = memo.encode(model, dataset)

    n = len(dataset)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    log: list[dict] = []

    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(n)
        epoch_losses: list[float] = []
        hits = 0
        for b in range(steps_per_epoch):
            idx = perm[b * cfg.batch_size:(b + 1) * cfg.batch_size]
            lr = cosine_lr(state.step, total_steps, cfg)
            try:
                step_losses, step_hits = _train_step(model, dataset, idx, cache,
                                                     state, lr, cfg)
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, step {b}: {exc}") from exc
            epoch_losses += step_losses
            hits += step_hits

        train_top1 = hits / n
        record = {
            "epoch": epoch,
            "lr": lr,
            "train_loss": float(np.mean(epoch_losses)),
            "train_top1": train_top1,
            "eval_top1": None,
            "eval_top5": None,
            "wall_ms": (time.perf_counter() - t0) * 1000.0,
        }
        if eval_dataset:
            metrics = evaluate(eval_dataset, model, memo=memo)
            record["eval_top1"] = metrics["top1"]
            record["eval_top5"] = metrics["top5"]
        log.append(record)
        if cfg.stop_at_perfect_train and train_top1 == 1.0:
            break
    return log


@ad.no_grad()
def evaluate(dataset: list[Sample], model: Model,
             switches: AblationSwitches | None = None,
             memo: EncodingMemo | None = None) -> dict:
    """Top-1/top-5 accuracy, per-class accuracy, confusion counts, and
    per-sample softmax scores. switches, when given, must equal those of the
    model's config. The logits are those of classify_rows, which reads
    frozen encodings from memo when one is given; the scores, ranks and
    accuracies are computed from them in float64."""
    if not dataset:
        raise ContractError("dataset must be nonempty")
    _check_switches(model, switches)
    n_classes = model.cfg.n_classes
    labels = np.array([s.label for s in dataset])
    _check_labels(labels, n_classes, "evaluate: label")
    logits, _ = classify_rows(model, dataset, memo)
    if not np.all(np.isfinite(logits)):
        raise NumericError("evaluate: non-finite logits")
    order = np.argsort(-logits, axis=1, kind="stable")  # ties: lower class first
    pred = np.argmax(logits, axis=1)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    scores = e / e.sum(axis=1, keepdims=True)
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (labels, pred), 1)
    per_sample = [{
        "sample_id": sample.sample_id,
        "label": sample.label,
        "pred": int(pred[i]),
        "scores": scores[i].tolist(),
        "top5": [[int(c), float(scores[i, c])] for c in order[i, :5]],
    } for i, sample in enumerate(dataset)]
    class_total = confusion.sum(axis=1)
    per_class = [float(confusion[c, c] / class_total[c]) if class_total[c] else None
                 for c in range(n_classes)]
    return {
        "top1": int(np.sum(pred == labels)) / len(dataset),
        "top5": int(np.sum(order[:, :5] == labels[:, None])) / len(dataset),
        "per_class_accuracy": per_class,
        "confusion": confusion.tolist(),
        "per_sample": per_sample,
    }
