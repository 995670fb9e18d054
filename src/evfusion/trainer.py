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
    return ad.add(ad.logsumexp_rows(logits), ad.neg_pick(logits, labels))


def adamw_step(model: Model, state: TrainState, lr: float,
               cfg: OptimConfig) -> None:
    """Decoupled-weight-decay update; frozen groups are skipped. The moments
    in state are updated in place; each parameter gets a new array."""
    b1, b2 = cfg.betas
    state.step += 1
    t = state.step
    for name, p in model.store.trainable_items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape mismatch for {name}")
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

    Maps (encoder key, sample key) to the (fv, fe) arrays of
    Model.encode_sample. Both keys are content digests: the encoder key
    covers both encoder configs and the value of every rgb.* and event.*
    parameter, so a parameter written in place misses instead of serving
    a stale entry; the sample key covers the frames, timestamps, events
    and resolution.
    """

    def __init__(self):
        self._entries: dict[tuple[bytes, bytes], tuple[np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @ad.no_grad()
    def encode(self, model: Model,
               dataset: list[Sample]) -> list[tuple[np.ndarray, np.ndarray]] | None:
        """The (fv, fe) arrays of each sample, encoding only the samples
        not yet memoised under the model's encoders; None when an encoder
        trains, since its outputs would change every step."""
        params = [t for n, t in model.store.items() if n.startswith(("rgb.", "event."))]
        if any(t.requires_grad for t in params):
            return None
        encoder_key = digest((t.data for t in params), model.cfg.rgb, model.cfg.event)
        out = []
        for s in dataset:
            ev = s.events
            key = (encoder_key, digest([*s.clip.frames, s.clip.timestamps,
                                         ev.x, ev.y, ev.t, ev.p], ev.resolution))
            if key not in self._entries:
                fv, fe = model.encode_sample(s)
                self._entries[key] = (fv.data, fe.data)
            out.append(self._entries[key])
        return out


# Samples per Model.head call, and per forward-then-backward block of a
# training step. A block's saved (HEAD_BATCH, heads, T, T) attention weights
# stay cache-sized, and a step holds one block's tape at a time, so its peak
# memory does not grow with the batch size.
HEAD_BATCH = 4

# The dtype of a training step's forward and backward passes. Parameter
# values, gradients, AdamW moments, checkpoints and every pass outside
# training (forward, evaluate, the gradient check) stay float64.
TRAIN_DTYPE = np.float32


def _stack(parts: list[Tensor], what: str) -> Tensor:
    """n (T, d) encodings as one (n, T, d) batch, on the tape when they are."""
    shape = parts[0].shape
    if any(p.shape != shape for p in parts):
        raise DimensionError(
            f"head_blocks: {what} encodings differ in shape: {[p.shape for p in parts]}")
    return ad.reshape(ad.concat_rows(*parts), (len(parts), *shape))


def head_blocks(model: Model, encodings: Iterable[tuple[Tensor, Tensor]],
                texts: Iterable[Tensor]) -> Iterator[tuple[Tensor, Tensor]]:
    """Run Model.head once per HEAD_BATCH of the (fv, fe) pairs and yield
    each block's (b, L) logits and (b, d) pooled features; the k-th block
    reads the k-th (L, d) text tokens of texts. A block's pairs are drawn
    only when it runs and dropped before the next block's are, so encoders
    that train hold one block's tape at a time. All samples must have the
    same token counts."""
    pairs, texts = iter(encodings), iter(texts)
    while chunk := list(itertools.islice(pairs, HEAD_BATCH)):
        yield model.head(_stack([fv for fv, _ in chunk], "vision"),
                         _stack([fe for _, fe in chunk], "event"), next(texts))
        del chunk


def head_rows(model: Model, encodings: Iterable[tuple[Tensor, Tensor]],
              ft: Tensor) -> tuple[Tensor, Tensor]:
    """The stacked (N, L) logits and (N, d) pooled features of head_blocks
    over the (fv, fe) pairs, every block reading the text tokens ft."""
    logits, pooled = zip(*head_blocks(model, encodings, itertools.repeat(ft)))
    return ad.concat_rows(*logits), ad.concat_rows(*pooled)


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
        encodings = ((Tensor(cache[i][0].astype(dtype, copy=False)),
                      Tensor(cache[i][1].astype(dtype, copy=False))) for i in idx)
    else:
        encodings = (model.encode_sample(dataset[i]) for i in idx)
    labels = np.array([dataset[i].label for i in idx])
    n_blocks = -(-len(idx) // HEAD_BATCH)
    with model.store.cast(dtype):
        # The text branch is built once per step. Every block but the last
        # reads its tokens through a detached leaf that gathers their
        # gradient; the last block reads the taped tokens and its loss
        # carries sum(ft * that gradient), so one backward call passes the
        # whole step's text gradient into the text branch.
        ft = model.text_tokens()
        leaf = Tensor(ft.data, requires_grad=ft.requires_grad)
        texts = itertools.chain(itertools.repeat(leaf, n_blocks - 1), [ft])
        # each sample's loss weighs 1/B of the batch mean
        scale = Tensor(np.array([[1.0 / len(idx)]], dtype=dtype))
        losses, hits = [], 0
        # A plain for: enumerate and zip would keep the last block's outputs,
        # and with them its tape, alive while the next block runs.
        for logits, pooled in head_blocks(model, encodings, texts):
            block_labels = labels[len(losses):len(losses) + logits.shape[0]]
            rows = cross_entropy(logits, block_labels)
            if not np.isfinite(rows.data).all():
                raise NumericError(f"non-finite loss {rows.data.mean()}")
            losses += rows.data[:, 0].tolist()
            hits += int(np.sum(np.argmax(logits.data, axis=1) == block_labels))
            loss = ad.mul(ad.sum_all(rows), scale)
            if len(losses) == len(idx) and leaf.grad is not None:  # the last block
                loss = ad.add(loss, ad.sum_all(ad.mul(ft, Tensor(leaf.grad.astype(dtype)))))
            ad.backward(loss)
            del logits, pooled, rows, loss  # the block's tape goes with them
    for name, p in model.store.trainable_items():
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
    and their memo entries compute in TRAIN_DTYPE, the evaluations in
    float64; the memo keys on the dtype, so the two never share an entry.
    Frozen parameters never update.
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
    model's config. Frozen encodings come from memo when one is given;
    without one every sample is encoded and no key is computed."""
    if not dataset:
        raise ContractError("dataset must be nonempty")
    _check_switches(model, switches)
    n_classes = model.cfg.n_classes
    labels = np.array([s.label for s in dataset])
    _check_labels(labels, n_classes, "evaluate: label")
    cached = memo.encode(model, dataset) if memo is not None else None
    if cached is not None:
        encodings = ((Tensor(fv), Tensor(fe)) for fv, fe in cached)
    else:
        encodings = (model.encode_sample(s) for s in dataset)
    logits = head_rows(model, encodings, model.text_tokens())[0].data
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
