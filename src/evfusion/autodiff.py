"""Dense-tensor reverse-mode autodiff engine.

Tensors wrap row-major float32 or float64 numpy arrays of at least two
axes: the last two are rows and columns. The operands fix the dtype: each
primitive computes and allocates in the dtype of its inputs, so float64 in
gives float64 out, and a leaf's ``.grad`` is float64 whatever the dtype of
the graph. ``linear``, ``add``, ``layer_norm``, ``concat_rows``,
``slice_rows``, ``mean_rows``, ``reshape``, ``scaled_dot_attention`` and the
elementwise ops also take leading batch axes (the frames of a clip, the
samples of a batch); ``matmul`` and ``cross_entropy_rows``, the loss as one
node, are 2-D, and so is ``take_rows``' table, whose indices may have any
shape. Every differentiable operation records its parents and a backward
closure on the output, forming an acyclic define-by-run tape, except inside
``no_grad``. ``backward`` visits each node reachable from its root once, in
decreasing creation order, and accumulates gradients into ``Tensor.grad`` of
the leaves.

Ownership rule: a primitive writes (``out=``, ``+=``, ``*=``) only into
arrays it allocated itself. It never writes into its inputs, the upstream
gradient, the arrays its backward keeps, or the weights it hands to
``attention_weights()``. Each in-place form performs the same floating-point
operations, in the same order, as the plain expression it stands for, so
results are bit-identical to that expression. Those expressions take row and
column sums and means as BLAS products with a ones or ``1/n`` column
(``a @ ones((n, 1))``, ``ones((1, m)) @ a``), not as numpy reductions;
attention scales ``q`` by ``1/sqrt(w)`` before ``q k^T`` and applies that
scale to dQ and dK, and its backward takes rowsum(dP∘P) as the equal
rowsum(G∘O) of the upstream gradient and the output. A BLAS product gives each
matrix of a stack the same result whatever the stack's length, so a batch
still equals its per-matrix calls bit for bit. These columns are allocated
per call; one cached across calls would have to be read-only.
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
_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)

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


def grad_enabled() -> bool:
    """False inside ``no_grad``: operations record no tape."""
    return _GRAD_ENABLED


_ATTENTION_WEIGHTS: list | None = None


@contextlib.contextmanager
def attention_weights():
    """Yield a list; each attention head's 2-D weights are appended to it in
    call order, batch-major when the attention has leading batch axes."""
    global _ATTENTION_WEIGHTS
    previous, _ATTENTION_WEIGHTS = _ATTENTION_WEIGHTS, []
    try:
        yield _ATTENTION_WEIGHTS
    finally:
        _ATTENTION_WEIGHTS = previous


class Tensor:
    """A float32 or float64 array plus its place in the computation graph;
    the operands fix the dtype. Such an ndarray is kept as given, anything
    else is converted to float64."""

    __slots__ = ("data", "grad", "requires_grad", "node_id", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = data
        if type(arr) is not np.ndarray or (arr.dtype is not _F64 and arr.dtype is not _F32):
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

def _check_2d(op: str, *tensors: Tensor) -> None:
    """The row ops without batch axes reject N-D input rather than read a
    batch axis as rows."""
    for t in tensors:
        if t.data.ndim != 2:
            raise DimensionError(f"{op}: takes 2-D tensors, got shape {t.shape}")


def _sum_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes along which an operand of ``shape`` was
    broadcast, giving it that operand's shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=axes, keepdims=True).reshape(shape)


def _col(n: int, dtype, value: float = 1.0) -> np.ndarray:
    """An (n, 1) column of value: a @ _col(n, dtype) sums a's rows and
    _col(m, dtype).T @ a its columns, as one BLAS product each."""
    return np.full((n, 1), value, dtype=dtype)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may broadcast over a's leading axes and rows, so a
    (1, n) row or a (T, n) table adds to every (T, n) matrix of a."""
    if (b.data.ndim > a.data.ndim or b.shape[-1] != a.shape[-1]
            or any(m not in (1, n) for m, n in zip(b.shape[::-1], a.shape[::-1]))):
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")
    data = a.data + b.data

    def backward(g):
        return g, _sum_to(g, b.shape)

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    data = a.data * b.data

    def backward(g):
        return g * b.data, g * a.data

    return _make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_2d("matmul", a, b)
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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one tape node: x is (..., d_in), w (d_in, d_out) and b
    (1, d_out); the leading axes of x are batch axes."""
    if w.data.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise DimensionError(
            f"linear: x {x.shape}, w {w.shape} and b {b.shape} do not fit")
    data = x.data @ w.data
    data += b.data

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        gx = g @ w.data.T if x.requires_grad else None
        gw = None
        if w.requires_grad:
            gw = x.data.reshape(-1, x.shape[-1]).T @ g2
            if _INJECT_BACKWARD_FAULT:
                gw *= 1.5
        return gx, gw, _col(g2.shape[0], g2.dtype).T @ g2

    return _make(data, (x, w, b), backward)


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """Tanh-form GELU approximation."""
    x = a.data
    t = x * x  # t = tanh(C * (x + 0.044715 * x**3)), built up in place
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    data = 0.5 * x
    data *= 1.0 + t

    def backward(g):
        # dx = 0.5 * (1 + t) + 0.5 * x * (1 - t**2) * C * (1 + 3 * 0.044715 * x**2)
        dx = 0.5 * x
        tmp = t * t
        np.subtract(1.0, tmp, out=tmp)
        dx *= tmp
        np.multiply(x, x, out=tmp)
        tmp *= 3 * 0.044715
        tmp += 1.0
        tmp *= _GELU_C
        dx *= tmp
        np.add(1.0, t, out=tmp)
        tmp *= 0.5
        dx += tmp
        dx *= g
        return (dx,)

    return _make(data, (a,), backward)


def cross_entropy_rows(a: Tensor, labels: np.ndarray) -> Tensor:
    """Per-row -log softmax(a)[labels[i]] in stable log-sum-exp form, as a
    (rows, 1) column: m + log(sum(exp(a - m))) - a[i, labels[i]]. The
    backward is g * softmax(a) less g at the labels."""
    _check_2d("cross_entropy_rows", a)
    rows = np.arange(a.shape[0])
    m = a.data.max(axis=1, keepdims=True)
    soft = a.data - m
    np.exp(soft, out=soft)
    z = soft.sum(axis=1, keepdims=True)
    data = m + np.log(z)
    data -= a.data[rows, labels].reshape(-1, 1)
    soft /= z

    def backward(g):
        ga = g * soft
        ga[rows, labels] -= g[:, 0]
        return (ga,)

    return _make(data, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row (the last axis) to zero mean / unit variance, then
    gain*x + bias; leading axes are batch axes."""
    n = x.shape[-1]
    if gain.data.size != n or bias.data.size != n:
        raise DimensionError(
            f"layer_norm: gain/bias width must be {n}, got {gain.data.size}/{bias.data.size}")
    g_row = gain.data.reshape(1, n)
    b_row = bias.data.reshape(1, n)
    mean = _col(n, x.data.dtype, 1.0 / n)
    xhat = x.data - x.data @ mean
    data = xhat * xhat
    inv = 1.0 / np.sqrt(data @ mean + eps)
    xhat *= inv
    np.multiply(xhat, g_row, out=data)
    data += b_row

    def backward(g):
        # dx = inv * (gy - mean(gy) - xhat * mean(gy * xhat)), built in gy
        mean = _col(n, g.dtype, 1.0 / n)
        gy = g * g_row
        tmp = gy * xhat
        mean_gy_xhat = tmp @ mean
        gy -= gy @ mean
        gy -= np.multiply(xhat, mean_gy_xhat, out=tmp)
        gy *= inv
        ones = _col(g.size // n, g.dtype).T
        dgain = ones @ np.multiply(g, xhat, out=tmp).reshape(-1, n)
        dbias = ones @ g.reshape(-1, n)
        return gy, dgain.reshape(gain.shape), dbias.reshape(bias.shape)

    return _make(data, (x, gain, bias), backward)


def concat_rows(*parts: Tensor) -> Tensor:
    """Join along the row axis (-2). Leading axes broadcast, so a (1, n) row
    can head every matrix of an (F, P, n) batch."""
    width = parts[0].shape[-1]
    for p in parts:
        if p.shape[-1] != width:
            raise DimensionError(
                f"concat_rows: widths differ: {p.shape[-1]} vs {width}")
    try:
        lead = np.broadcast_shapes(*(p.shape[:-2] for p in parts))
    except ValueError as exc:
        raise DimensionError(
            f"concat_rows: leading axes do not broadcast: {[p.shape for p in parts]}") from exc
    data = np.concatenate([p.data if p.shape[:-2] == lead
                           else np.broadcast_to(p.data, lead + p.shape[-2:])
                           for p in parts], axis=-2)
    offsets = np.cumsum([0] + [p.shape[-2] for p in parts])

    def backward(g):
        return tuple(_sum_to(g[..., offsets[i]:offsets[i + 1], :], p.shape)
                     for i, p in enumerate(parts))

    return _make(data, parts, backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """The same values in a new shape of at least two axes, as numpy's
    row-major reshape; (F, T, n) -> (F * T, n) stacks the matrices' rows."""
    data = a.data.reshape(shape)
    if data.ndim < 2:
        raise DimensionError(f"reshape: {shape} has fewer than two axes")

    def backward(g):
        return (g.reshape(a.shape),)

    return _make(data, (a,), backward)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) of every matrix: (..., m, n) -> (..., stop - start, n)."""
    if not (0 <= start < stop <= a.shape[-2]):
        raise ContractError(f"slice_rows: bad range [{start}:{stop}) for {a.shape}")
    data = a.data[..., start:stop, :].copy()

    def backward(g):
        full = np.zeros_like(a.data)
        full[..., start:stop, :] = g
        return (full,)

    return _make(data, (a,), backward)


def mean_rows(a: Tensor) -> Tensor:
    """Mean over the row axis of every matrix; (..., m, n) -> (..., 1, n)."""
    m = a.shape[-2]
    data = a.data.mean(axis=-2, keepdims=True)

    def backward(g):
        full = np.repeat(g, m, axis=-2)
        full /= m
        return (full,)

    return _make(data, (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    data = np.array([[a.data.sum()]], dtype=a.data.dtype)

    def backward(g):
        return (np.full_like(a.data, g[0, 0]),)

    return _make(data, (a,), backward)


def take_rows(table: Tensor, indices) -> Tensor:
    """Gather rows of a 2-D table (embedding lookup): an index array of shape
    S gives S + (n,), so (k,) indices give a (k, n) matrix and (G, k) ones a
    (G, k, n) batch. The backward scatter-adds."""
    _check_2d("take_rows", table)
    idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
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

    k and v share their leading axes, which are batch axes; q has the same
    ones or fewer, and a q with fewer is broadcast over the others, so one
    (L, d) query serves a (B, T, d) batch of keys and its gradient is summed
    over B. Head h reads the h-th equal share of the columns of q, k and v
    and writes that share of the output's columns. Inside
    attention_weights(), each head's row-stochastic weights are appended to
    its list, batch-major.
    """
    (tk, dv), d, lead = v.shape[-2:], q.shape[-1], v.shape[:-2]
    q_lead = q.shape[:-2]
    if (k.shape != lead + (tk, d) or lead[len(lead) - len(q_lead):] != q_lead
            or heads < 1 or d % heads or dv % heads):
        raise DimensionError(
            f"attention: q {q.shape}, k {k.shape}, v {v.shape} do not fit {heads} heads")

    def split(x):  # (..., T, heads * w) -> (..., heads, T, w), a view
        return x.reshape(*x.shape[:-1], heads, -1).swapaxes(-3, -2)

    def into(shape, a, b):  # a @ b written head by head into a new array
        out = np.empty(shape, dtype=b.dtype)
        np.matmul(a, b, out=split(out))
        return out

    c = 1.0 / math.sqrt(d // heads)
    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    # the logits of c q k^T, turned into softmax weights in place
    p = split(q.data * c) @ kh.swapaxes(-1, -2)
    if not np.all(np.isfinite(p)):
        raise NumericError("attention: non-finite logits")
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p @ _col(tk, p.dtype)
    if _ATTENTION_WEIGHTS is not None:
        _ATTENTION_WEIGHTS.extend(Tensor(w) for w in p.reshape(-1, *p.shape[-2:]))
    out = into(lead + (q.shape[-2], dv), p, vh)

    def backward(g):
        # ds = p * (dp - rowsum(dp * p)), built in place in dp = g v^T; the
        # row sums equal rowsum(g * out) per head, and c is applied to dq, dk
        gh = split(g)
        ds = gh @ vh.swapaxes(-1, -2)
        ds -= split(g * out) @ _col(dv // heads, g.dtype)
        ds *= p
        dq = into(lead + q.shape[-2:], ds, kh)
        dq *= c
        dk = into(k.shape, ds.swapaxes(-1, -2), qh)
        dk *= c
        return _sum_to(dq, q.shape), dk, into(v.shape, p.swapaxes(-1, -2), gh)

    return _make(out, (q, k, v), backward)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(root: Tensor, grad: np.ndarray | None = None) -> dict[int, np.ndarray]:
    """Reverse-sweep from root, visiting nodes in decreasing creation order.

    grad is the seed: the gradient of the quantity being differentiated
    with respect to root, of root's shape. A scalar root (a loss) may omit
    it and is seeded with one; so backward(root, g) gives exactly the
    gradients of backward(sum_all(mul(root, Tensor(g)))). The sweep never
    writes into grad.

    Accumulates into .grad of every leaf (requires_grad tensor with no
    backward rule) reachable from root and returns {node_id: gradient}
    for those leaves. Each intermediate gradient is dropped once it has
    been passed on. Repeated calls without zero_grad accumulate.
    """
    if grad is None:
        if root.data.size != 1:
            raise ContractError(
                f"backward: a root of shape {root.shape} needs a seed gradient")
        grad = np.ones_like(root.data)
    elif np.shape(grad) != root.shape:
        raise ContractError(
            f"backward: seed of shape {np.shape(grad)} for a root of shape {root.shape}")
    if not root.requires_grad:
        return {}

    # _make numbers every output after its parents, so each node's consumers
    # have larger ids: popping the largest pending id reaches a node only after
    # every contribution to its gradient has arrived.
    # A gradient's first contribution may be shared (add hands one g to both
    # parents) or a view (concat_rows), so the first sum allocates; the ids in
    # owned hold such sums, and later contributions are added into them.
    grads: dict[int, np.ndarray] = {root.node_id: grad}
    owned: set[int] = set()
    heap: list[tuple[int, Tensor]] = [(-root.node_id, root)]
    while heap:
        _, node = heapq.heappop(heap)
        if node._backward is None:  # a leaf keeps its entry in grads
            g = grads[node.node_id]  # .grad is float64: the first g is upcast
            if node.grad is not None:
                node.grad = node.grad + g
            else:
                node.grad = g.astype(np.float64, copy=node.node_id not in owned)
            continue
        g = grads.pop(node.node_id)
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            if parent.node_id in owned:
                grads[parent.node_id] += pg
            elif parent.node_id in grads:
                grads[parent.node_id] = grads[parent.node_id] + pg
                owned.add(parent.node_id)
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
