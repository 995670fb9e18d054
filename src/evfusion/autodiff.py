"""Dense-tensor reverse-mode autodiff engine.

Tensors wrap row-major float64 numpy arrays. Every differentiable
operation records its parents and a backward closure on the output,
forming an acyclic define-by-run tape, except inside ``no_grad``.
``backward`` visits each node reachable from the loss once, in decreasing
creation order, and accumulates gradients into ``Tensor.grad`` of the
leaves.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

_node_ids = itertools.count()

# Deliberately corrupts one backward rule when enabled; negative control
# for the gradient-check harness.
_INJECT_BACKWARD_FAULT = False


def set_backward_fault(enabled: bool) -> None:
    global _INJECT_BACKWARD_FAULT
    _INJECT_BACKWARD_FAULT = enabled


_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Record no tape inside the block, so inference frees as it goes."""
    global _GRAD_ENABLED
    previous, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


_ATTENTION_WEIGHTS: list | None = None


@contextlib.contextmanager
def attention_weights():
    """Yield a list; each attention head's weights are appended to it in call order."""
    global _ATTENTION_WEIGHTS
    previous, _ATTENTION_WEIGHTS = _ATTENTION_WEIGHTS, []
    try:
        yield _ATTENTION_WEIGHTS
    finally:
        _ATTENTION_WEIGHTS = previous


class Tensor:
    """A float64 array plus its place in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "node_id", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.node_id = next(_node_ids)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may be a single row broadcast over a's rows."""
    if a.shape != b.shape and not (b.shape[0] == 1 and b.shape[1] == a.shape[1]):
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")
    data = a.data + b.data

    def backward(g):
        gb = g if b.shape == a.shape else g.sum(axis=0, keepdims=True)
        return g, gb

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    data = a.data * b.data

    def backward(g):
        return g * b.data, g * a.data

    return _make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree: {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward(g):
        ga = g @ b.data.T
        gb = a.data.T @ g
        if _INJECT_BACKWARD_FAULT:
            gb = gb * 1.5
        return ga, gb

    return _make(data, (a, b), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Tanh-form GELU approximation."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def backward(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
        return (g * dx,)

    return _make(data, (a,), backward)


def logsumexp_rows(a: Tensor) -> Tensor:
    """Row-wise log(sum(exp)), stable; output shape (m, 1)."""
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    z = e.sum(axis=1, keepdims=True)
    data = m + np.log(z)
    soft = e / z

    def backward(g):
        return (g * soft,)

    return _make(data, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row to zero mean / unit variance, then gain*x + bias."""
    n = x.shape[1]
    if gain.data.size != n or bias.data.size != n:
        raise DimensionError(
            f"layer_norm: gain/bias width must be {n}, got {gain.data.size}/{bias.data.size}")
    g_row = gain.data.reshape(1, n)
    b_row = bias.data.reshape(1, n)
    mu = x.data.mean(axis=1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * g_row + b_row

    def backward(g):
        gy = g * g_row
        mean_gy = gy.mean(axis=1, keepdims=True)
        mean_gy_xhat = (gy * xhat).mean(axis=1, keepdims=True)
        dx = inv * (gy - mean_gy - xhat * mean_gy_xhat)
        dgain = (g * xhat).sum(axis=0, keepdims=True).reshape(gain.shape)
        dbias = g.sum(axis=0, keepdims=True).reshape(bias.shape)
        return dx, dgain, dbias

    return _make(data, (x, gain, bias), backward)


def concat_rows(*parts: Tensor) -> Tensor:
    width = parts[0].shape[1]
    for p in parts:
        if p.shape[1] != width:
            raise DimensionError(
                f"concat_rows: widths differ: {p.shape[1]} vs {width}")
    data = np.concatenate([p.data for p in parts], axis=0)
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _make(data, parts, backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start < stop <= a.shape[0]):
        raise ContractError(f"slice_rows: bad range [{start}:{stop}) for {a.shape}")
    data = a.data[start:stop].copy()

    def backward(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        return (full,)

    return _make(data, (a,), backward)


def mean_rows(a: Tensor) -> Tensor:
    """Mean over the row axis; (m, n) -> (1, n)."""
    m = a.shape[0]
    data = a.data.mean(axis=0, keepdims=True)

    def backward(g):
        return (np.repeat(g, m, axis=0) / m,)

    return _make(data, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    data = np.array([[a.data.sum()]])

    def backward(g):
        return (np.full_like(a.data, g[0, 0]),)

    return _make(data, (a,), backward)


def take_rows(table: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of a table (embedding lookup); backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ContractError("take_rows: indices must be one-dimensional")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError(
            f"take_rows: index out of range for table with {table.shape[0]} rows")
    data = table.data[idx].copy()

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return _make(data, (table,), backward)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(width / heads)) v as one tape node.

    Head h reads the h-th equal share of the columns of q, k and v and
    writes that share of the output's columns. Inside attention_weights(),
    each head's row-stochastic weights are appended to its list.
    """
    (tk, dv), d = v.shape, q.shape[1]
    if k.shape != (tk, d) or heads < 1 or d % heads or dv % heads:
        raise DimensionError(
            f"attention: q {q.shape}, k {k.shape}, v {v.shape} do not fit {heads} heads")

    def split(x):  # (T, heads * w) -> (heads, T, w), a view
        return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)

    def merge(x):  # (heads, T, w) -> (T, heads * w)
        return x.transpose(1, 0, 2).reshape(x.shape[1], -1)

    c = 1.0 / math.sqrt(d // heads)
    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    logits = (qh @ kh.transpose(0, 2, 1)) * c
    if not np.all(np.isfinite(logits)):
        raise NumericError("attention: non-finite logits")
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    p = e / e.sum(axis=2, keepdims=True)
    if _ATTENTION_WEIGHTS is not None:
        _ATTENTION_WEIGHTS.extend(Tensor(w) for w in p)

    def backward(g):
        gh = split(g)
        dp = gh @ vh.transpose(0, 2, 1)
        ds = p * (dp - (dp * p).sum(axis=2, keepdims=True)) * c
        return (merge(ds @ kh), merge(ds.transpose(0, 2, 1) @ qh),
                merge(p.transpose(0, 2, 1) @ gh))

    return _make(merge(p @ vh), (q, k, v), backward)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse-sweep from a scalar loss, visiting nodes in decreasing creation order.

    Accumulates into .grad of every leaf (requires_grad tensor with no
    backward rule) reachable from the loss and returns {node_id: gradient}
    for those leaves. Each intermediate gradient is dropped once it has
    been passed on. Repeated calls without zero_grad accumulate.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return {}

    # _make numbers every output after its parents, so each node's consumers
    # have larger ids: popping the largest pending id reaches a node only after
    # every contribution to its gradient has arrived.
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    heap: list[tuple[int, Tensor]] = [(-loss.node_id, loss)]
    while heap:
        _, node = heapq.heappop(heap)
        if node._backward is None:  # a leaf keeps its entry in grads
            g = grads[node.node_id]
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        g = grads.pop(node.node_id)
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent.node_id in grads:
                grads[parent.node_id] = grads[parent.node_id] + pg
            else:
                grads[parent.node_id] = pg
                heapq.heappush(heap, (-parent.node_id, parent))
    return grads


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def finite_diff_check(f: Callable[[], Tensor], params: Sequence[Tensor],
                      eps: float = 1e-5, rng: np.random.Generator | None = None,
                      max_coords_per_param: int = 8) -> float:
    """Compare analytic gradients of scalar f() against central differences.

    Returns the max over sampled coordinates of
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not (0.0 < eps <= 1e-2):
        raise ContractError(f"finite_diff_check: eps {eps} outside (0, 1e-2]")
    base1 = float(f().data.reshape(()))
    base2 = float(f().data.reshape(()))
    if base1 != base2:
        raise ContractError("finite_diff_check: f is not deterministic")

    for p in params:
        p.zero_grad()
    loss = f()
    backward(loss)
    rng = rng or np.random.default_rng(0)

    worst = 0.0
    for p in params:
        if p.grad is None:
            raise ContractError("finite_diff_check: parameter received no gradient")
        flat = p.data.reshape(-1)
        n = flat.size
        coords = (np.arange(n) if n <= max_coords_per_param
                  else rng.choice(n, size=max_coords_per_param, replace=False))
        gflat = p.grad.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            fp = float(f().data.reshape(()))
            flat[c] = orig - eps
            fm = float(f().data.reshape(()))
            flat[c] = orig
            numeric = (fp - fm) / (2.0 * eps)
            analytic = gflat[c]
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            worst = max(worst, err)
    return worst
