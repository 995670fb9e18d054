"""Transformer building blocks shared by the encoders and the fusion core.

All blocks operate on (..., tokens, dim) Tensors with pre-norm residual
wiring: leading axes, such as the frames of a clip, are batch axes, and
each (tokens, dim) matrix attends only within itself. Parameters live in a
ParamStore under a caller-chosen prefix.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError
from .params import ParamStore

INIT_STD = 0.02


def init_linear(store: ParamStore, prefix: str, d_in: int, d_out: int,
                rng: np.random.Generator) -> None:
    store.add(f"{prefix}.w", rng.normal(0.0, INIT_STD, size=(d_in, d_out)))
    store.add(f"{prefix}.b", np.zeros((1, d_out)))


def linear(store: ParamStore, prefix: str, x: Tensor) -> Tensor:
    return ad.linear(x, store[f"{prefix}.w"], store[f"{prefix}.b"])


def init_layer_norm(store: ParamStore, prefix: str, dim: int) -> None:
    store.add(f"{prefix}.gain", np.ones((1, dim)))
    store.add(f"{prefix}.bias", np.zeros((1, dim)))


def layer_norm(store: ParamStore, prefix: str, x: Tensor) -> Tensor:
    return ad.layer_norm(x, store[f"{prefix}.gain"], store[f"{prefix}.bias"])


def init_attention(store: ParamStore, prefix: str, dim: int,
                   rng: np.random.Generator) -> None:
    for name in ("wq", "wk", "wv", "wo"):
        init_linear(store, f"{prefix}.{name}", dim, dim, rng)


def multi_head_attention(store: ParamStore, prefix: str, x: Tensor, heads: int) -> Tensor:
    """Self-attention over one token sequence; heads split the width."""
    q = linear(store, f"{prefix}.wq", x)
    k = linear(store, f"{prefix}.wk", x)
    v = linear(store, f"{prefix}.wv", x)
    attended = ad.scaled_dot_attention(q, k, v, heads)
    return linear(store, f"{prefix}.wo", attended)


def mlp_hidden(dim: int, mlp_ratio: float) -> int:
    """The hidden width of a transformer block's MLP."""
    return int(round(dim * mlp_ratio))


def check_stack(dim: int, depth: int, mlp_ratio: float) -> None:
    """A config section's depth >= 0 blocks, each MLP at least one unit wide."""
    if depth < 0:
        raise ContractError(f"depth must be >= 0, got {depth}")
    if not math.isfinite(dim * mlp_ratio):
        raise ContractError(f"mlp_ratio {mlp_ratio} gives a non-finite MLP hidden width")
    if (hidden := mlp_hidden(dim, mlp_ratio)) < 1:
        raise ContractError(f"mlp_ratio {mlp_ratio} gives an MLP hidden width {hidden} < 1")


def init_transformer_block(store: ParamStore, prefix: str, dim: int,
                           mlp_ratio: float, rng: np.random.Generator) -> None:
    hidden = mlp_hidden(dim, mlp_ratio)
    init_layer_norm(store, f"{prefix}.ln1", dim)
    init_attention(store, f"{prefix}.attn", dim, rng)
    init_layer_norm(store, f"{prefix}.ln2", dim)
    init_linear(store, f"{prefix}.mlp1", dim, hidden, rng)
    init_linear(store, f"{prefix}.mlp2", hidden, dim, rng)


def transformer_block(store: ParamStore, prefix: str, x: Tensor, heads: int) -> Tensor:
    """Pre-norm block: x + MHA(LN(x)), then x + MLP(LN(x))."""
    attn = multi_head_attention(store, f"{prefix}.attn",
                                layer_norm(store, f"{prefix}.ln1", x), heads)
    x = ad.add(x, attn)
    h = linear(store, f"{prefix}.mlp1", layer_norm(store, f"{prefix}.ln2", x))
    h = linear(store, f"{prefix}.mlp2", ad.gelu(h))
    return ad.add(x, h)


def init_attention_only_block(store: ParamStore, prefix: str, dim: int,
                              rng: np.random.Generator) -> None:
    init_layer_norm(store, f"{prefix}.ln", dim)
    init_attention(store, f"{prefix}.attn", dim, rng)


def attention_only_block(store: ParamStore, prefix: str, x: Tensor, heads: int) -> Tensor:
    """Pre-norm residual self-attention without an MLP."""
    attn = multi_head_attention(store, f"{prefix}.attn",
                                layer_norm(store, f"{prefix}.ln", x), heads)
    return ad.add(x, attn)
