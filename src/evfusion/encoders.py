"""Patch-embedding vision/event encoders.

A frame is bilinearly resized to a square, cut into non-overlapping
patches, linearly projected, prefixed with a learned class token, and
given learned positional embeddings, then run through a stack of
pre-norm transformer blocks. All frames of one or more clips run as one
batched (frames, tokens, dim) forward in which each frame attends only
within itself. The RGB and event branches own separate parameter sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import blocks
from .autodiff import Tensor
from .errors import ContractError, NumericError
from .events import EventFrameSequence, VideoClip
from .params import ParamStore


@dataclass(frozen=True)
class EncoderConfig:
    image_size: int = 32
    patch_size: int = 8
    dim: int = 64
    depth: int = 2
    heads: int = 4
    mlp_ratio: float = 4.0
    frozen: bool = True

    def __post_init__(self):
        if min(self.image_size, self.patch_size, self.dim, self.heads) < 1:
            raise ContractError("image_size, patch_size, dim and heads must be >= 1")
        if self.image_size % self.patch_size != 0:
            raise ContractError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.dim % self.heads != 0:
            raise ContractError(f"dim {self.dim} not divisible by heads {self.heads}")
        blocks.check_stack(self.dim, self.depth, self.mlp_ratio)

    @property
    def n_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def n_tokens(self) -> int:
        return self.n_patches + 1  # class token


def bilinear_resize(frame: np.ndarray, size: int) -> np.ndarray:
    """Resize (..., H, W, C) to (..., size, size, C) with bilinear sampling."""
    h, w = frame.shape[-3:-1]
    if h == size and w == size:
        return np.asarray(frame, dtype=np.float64)
    ys = (np.arange(size) + 0.5) * (h / size) - 0.5
    xs = (np.arange(size) + 0.5) * (w / size) - 0.5
    ys = np.clip(ys, 0, h - 1)
    xs = np.clip(xs, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    f = frame.astype(np.float64)
    top = f[..., y0, :, :][..., x0, :] * (1 - wx) + f[..., y0, :, :][..., x1, :] * wx
    bot = f[..., y1, :, :][..., x0, :] * (1 - wx) + f[..., y1, :, :][..., x1, :] * wx
    return top * (1 - wy) + bot * wy


def event_frame_to_rgb(frame: np.ndarray) -> np.ndarray:
    """Map a 2-channel (ON, OFF) count image to the 3-channel embedder input:
    [ON, OFF, mean(ON, OFF)]."""
    on, off = frame[0], frame[1]
    return np.stack([on, off, 0.5 * (on + off)], axis=2)


def init_encoder_params(store: ParamStore, prefix: str, cfg: EncoderConfig,
                        rng: np.random.Generator) -> None:
    patch_dim = 3 * cfg.patch_size**2
    blocks.init_linear(store, f"{prefix}.patch", patch_dim, cfg.dim, rng)
    store.add(f"{prefix}.cls", rng.normal(0.0, blocks.INIT_STD, size=(1, cfg.dim)))
    store.add(f"{prefix}.pos",
              rng.normal(0.0, blocks.INIT_STD, size=(cfg.n_tokens, cfg.dim)))
    for i in range(cfg.depth):
        blocks.init_transformer_block(store, f"{prefix}.block{i}", cfg.dim,
                                      cfg.mlp_ratio, rng)


def patchify_embed(frame: np.ndarray, cfg: EncoderConfig, store: ParamStore,
                   prefix: str) -> Tensor:
    """Resize, patchify, project, prepend class token, add positions.

    frame is (..., H, W, 3); the result is (..., tokens, dim)."""
    if frame.ndim < 3 or frame.shape[-1] != 3:
        raise ContractError(f"expected (..., H, W, 3) frames, got {frame.shape}")
    if not np.all(np.isfinite(frame)):
        raise NumericError("patchify_embed: non-finite pixel values")
    img = bilinear_resize(frame, cfg.image_size)
    p = cfg.patch_size
    g = cfg.image_size // p
    lead = img.shape[:-3]
    patches = (img.reshape(*lead, g, p, g, p, 3)
                  .swapaxes(-4, -3)
                  .reshape(*lead, g * g, p * p * 3))
    dtype = store[f"{prefix}.patch.w"].data.dtype  # the encoder's compute dtype
    embedded = blocks.linear(store, f"{prefix}.patch",
                             Tensor(patches.astype(dtype, copy=False)))
    with_cls = ad.concat_rows(store[f"{prefix}.cls"], embedded)
    return ad.add(with_cls, store[f"{prefix}.pos"])


def encoder_forward(x: Tensor, cfg: EncoderConfig, store: ParamStore,
                    prefix: str) -> Tensor:
    for i in range(cfg.depth):
        x = blocks.transformer_block(store, f"{prefix}.block{i}", x, cfg.heads)
    return x


def encode_clip(clips: Sequence[VideoClip | EventFrameSequence], cfg: EncoderConfig,
                store: ParamStore, prefix: str) -> Tensor:
    """Encode all frames of the clips, in order, as one (frames, tokens, dim)
    forward; frame j of the result is exactly the encoding of frame j alone."""
    frames = [event_frame_to_rgb(f) if isinstance(clip, EventFrameSequence) else f
              for clip in clips for f in clip.frames]
    if not frames:
        raise ContractError("encode_clip: no frames")
    batch = np.stack([bilinear_resize(f, cfg.image_size) for f in frames])
    return encoder_forward(patchify_embed(batch, cfg, store, prefix), cfg, store, prefix)
