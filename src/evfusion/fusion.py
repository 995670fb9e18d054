"""Fusion core: modality-text multimodal transformers, vision-event
self-attention fusion, text-query cross-attention, and the classifier.

The Model class bundles both encoders, the text branch, and the fusion
parameters, and exposes the full forward pass under the ablation switches
its config fixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import blocks
from .autodiff import Tensor
from .encoders import EncoderConfig, encode_clip, init_encoder_params
from .errors import ContractError, DimensionError
from .events import Sample, stack_events
from .params import ParamStore
from .text import (PromptTemplate, TextConfig, Vocabulary, _words, encode_labels,
                   init_text_params, render_prompt)


@dataclass(frozen=True)
class FusionConfig:
    dim: int = 64
    depth: int = 1          # blocks per multimodal transformer
    heads: int = 4
    mlp_ratio: float = 4.0

    def __post_init__(self):
        if self.heads < 1:
            raise ContractError(f"fusion.heads must be >= 1, got {self.heads}")
        if self.dim % self.heads != 0:
            raise ContractError(
                f"fusion.dim {self.dim} not divisible by fusion.heads {self.heads}")
        blocks.check_stack(self.dim, self.depth, self.mlp_ratio)


@dataclass
class AblationSwitches:
    sci: bool = True   # semantic text branch (off: learned free tokens)
    lvm: bool = True   # deep frozen encoders (off: shallow trainable)
    mt: bool = True    # multimodal transformers
    sa: bool = True    # vision-event self-attention fusion
    ca: bool = True    # text-query cross-attention


def init_fusion_params(store: ParamStore, prefix: str, cfg: FusionConfig,
                       n_classes: int, rng: np.random.Generator) -> None:
    for branch in ("mt_vt", "mt_et"):
        for i in range(cfg.depth):
            blocks.init_transformer_block(store, f"{prefix}.{branch}.block{i}",
                                          cfg.dim, cfg.mlp_ratio, rng)
    blocks.init_attention_only_block(store, f"{prefix}.sa_ve", cfg.dim, rng)
    for branch in ("ca_vt", "ca_et"):
        for name in ("wq", "wk", "wv"):
            blocks.init_linear(store, f"{prefix}.{branch}.{name}", cfg.dim, cfg.dim, rng)
    blocks.init_attention_only_block(store, f"{prefix}.final", cfg.dim, rng)
    blocks.init_linear(store, f"{prefix}.clf", cfg.dim, n_classes, rng)
    store.add(f"{prefix}.free_tokens",
              rng.normal(0.0, blocks.INIT_STD, size=(n_classes, cfg.dim)))


def multimodal_transformer(modality: Tensor, text: Tensor, store: ParamStore,
                           prefix: str, cfg: FusionConfig) -> tuple[Tensor, Tensor]:
    """Joint self-attention over [modality; text]; split back afterwards.
    modality is (..., T, d); a (L, d) text broadcasts over its batch axes."""
    x = ad.concat_rows(modality, text)
    for i in range(cfg.depth):
        x = blocks.transformer_block(store, f"{prefix}.block{i}", x, cfg.heads)
    n = modality.shape[-2]
    return ad.slice_rows(x, 0, n), ad.slice_rows(x, n, x.shape[-2])


def fuse_vision_event(fv: Tensor, fe: Tensor, store: ParamStore,
                      prefix: str, cfg: FusionConfig) -> Tensor:
    """Residual self-attention over the concatenated vision+event tokens.
    No positional encodings are added here, so the block is
    permutation-equivariant over its input rows."""
    return blocks.attention_only_block(store, prefix, ad.concat_rows(fv, fe), cfg.heads)


def cross_attention(text: Tensor, fused: Tensor, store: ParamStore,
                    prefix: str, cfg: FusionConfig) -> Tensor:
    """Text tokens query the fused tokens; one output row per class,
    with a residual connection from the text query. A (L, d) text is
    projected once and broadcast over the batch axes of fused."""
    q = blocks.linear(store, f"{prefix}.wq", text)
    k = blocks.linear(store, f"{prefix}.wk", fused)
    v = blocks.linear(store, f"{prefix}.wv", fused)
    return ad.add(ad.scaled_dot_attention(q, k, v), text)


def classify(fused: Tensor, ca_vt: Tensor, ca_et: Tensor,
             store: ParamStore, prefix: str, cfg: FusionConfig) -> tuple[Tensor, Tensor]:
    """Concatenate the three streams, run the final self-attention block,
    mean-pool, and apply the single FC classifier.

    Returns (B, L) logits and (B, d) pooled pre-classifier features for a
    (B, T, d) fused input, and (1, L) and (1, d) for a 2-D (T, d) one."""
    x = ad.concat_rows(fused, ca_vt, ca_et)
    x = blocks.attention_only_block(store, f"{prefix}.final", x, cfg.heads)
    pooled = ad.mean_rows(x)
    logits = blocks.linear(store, f"{prefix}.clf", pooled)
    return (ad.reshape(logits, (-1, logits.shape[-1])),
            ad.reshape(pooled, (-1, pooled.shape[-1])))


@dataclass
class ModelConfig:
    rgb: EncoderConfig = field(default_factory=EncoderConfig)
    event: EncoderConfig = field(default_factory=EncoderConfig)
    text: TextConfig = field(default_factory=TextConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    labels: list[str] = field(default_factory=list)
    template: PromptTemplate = field(default_factory=lambda: PromptTemplate("NONE"))
    # every parameter exists whatever the switches; they select the stages
    # the forward pass runs, and Model freezes the parameters of the others
    switches: AblationSwitches = field(default_factory=AblationSwitches)

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ContractError(f"data.classes: need at least 2 classes, got {len(self.labels)}")
        dims = {"rgb_encoder.dim": self.rgb.dim, "event_encoder.dim": self.event.dim,
                "text.dim": self.text.dim, "fusion.dim": self.fusion.dim}
        if len(set(dims.values())) != 1:
            raise ContractError(f"all branch widths must agree, got {dims}")
        for label in self.labels:
            if not _words(render_prompt(self.template, label)):
                raise ContractError(f"label {label!r} renders to no tokens under template "
                                    f"{self.template.template!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ContractError("class labels must be distinct")

    @property
    def n_classes(self) -> int:
        return len(self.labels)


class Model:
    """All parameters plus the end-to-end forward pass."""

    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        prompts = [render_prompt(cfg.template, lb) for lb in cfg.labels]
        self.vocab = Vocabulary.build(prompts)
        self.store = ParamStore()
        rng = np.random.default_rng(seed)
        init_encoder_params(self.store, "rgb", cfg.rgb, rng)
        init_encoder_params(self.store, "event", cfg.event, rng)
        init_text_params(self.store, "text", cfg.text, self.vocab, rng)
        init_fusion_params(self.store, "fusion", cfg.fusion, cfg.n_classes, rng)
        sw = cfg.switches  # freeze frozen sections and what the switches never read
        for prefix, trains in (("rgb.", not cfg.rgb.frozen), ("event.", not cfg.event.frozen),
                               ("text.", sw.sci and not cfg.text.frozen),
                               ("fusion.free_tokens", not sw.sci), ("fusion.mt_", sw.mt),
                               ("fusion.sa_ve.", sw.sa), ("fusion.ca_", sw.ca)):
            if not trains:
                self.store.freeze(prefix)
        self._text_names = [n for n in self.store.names() if n.startswith("text.")]
        self._text_memo: tuple[tuple, np.ndarray] | None = None

    # -- forward stages --------------------------------------------------

    def encode_sample(self, samples: Sequence[Sample]) -> tuple[Tensor, Tensor]:
        """Encode the RGB clips and stacked event frames of b samples of F
        frames each, every branch as one (b * F, tokens, dim) forward, and
        return each branch's encodings as (b, F * tokens, dim): row i is
        sample i's frames, frame-major, exactly as if it were encoded alone."""
        frames = [len(s.clip) for s in samples]
        if len(set(frames)) > 1:
            raise DimensionError(f"encode_sample: samples of {frames} frames do not "
                                 "stack into one (b, F * tokens, dim) batch")
        events = [stack_events(s.events, s.clip.timestamps, s.events.resolution)
                  for s in samples]
        fv = encode_clip([s.clip for s in samples], self.cfg.rgb, self.store, "rgb")
        fe = encode_clip(events, self.cfg.event, self.store, "event")
        b = len(samples)
        return (ad.reshape(fv, (b, -1, fv.shape[-1])), ad.reshape(fe, (b, -1, fe.shape[-1])))

    def text_tokens(self) -> Tensor:
        """Per-class text tokens; with sci off, semantics-free learned
        tokens of identical shape stand in.

        While a text.* parameter takes gradients, outside no_grad, the text
        branch is built on the tape. Otherwise the (L, d) tokens depend only
        on the text config, the template, the labels and the text.* values,
        so they are computed once and served again while all of these are
        unchanged: the key holds their repr and the store's values_key of the
        text.* parameters, which changes with any new value and any cast to
        another dtype. A value assigned to ``.data`` has no such key; while
        one is held, the key holds each value's dtype, shape and bytes."""
        if not self.cfg.switches.sci:
            return self.store["fusion.free_tokens"]
        params = [self.store[n] for n in self._text_names]
        if ad.grad_enabled() and any(t.requires_grad for t in params):
            return self._encode_labels()
        values = self.store.values_key(self._text_names)
        if values is None:
            values = [(t.data.dtype.str, t.data.shape, t.data.tobytes()) for t in params]
        key = (repr((self.cfg.text, self.cfg.template, self.cfg.labels)), values)
        if self._text_memo is None or self._text_memo[0] != key:
            self._text_memo = (key, self._encode_labels().data)
        return Tensor(self._text_memo[1])

    def _encode_labels(self) -> Tensor:
        return encode_labels(self.cfg.labels, self.cfg.template, self.cfg.text,
                             self.vocab, self.store, "text")

    def head(self, fv: Tensor, fe: Tensor, ft: Tensor) -> tuple[Tensor, Tensor]:
        """Fusion stages from encoded tokens to (logits, pooled features).

        fv and fe are (B, T, d) batches of encodings, or one sample's 2-D
        (T, d); the (L, d) text tokens ft broadcast over B. Every stage acts
        on each sample's tokens alone, so a batch gives the rows of B
        separate calls: (B, L) logits and (B, d) pooled features."""
        cfg, switches = self.cfg.fusion, self.cfg.switches
        if switches.mt:
            fv, text_vt = multimodal_transformer(fv, ft, self.store, "fusion.mt_vt", cfg)
            fe, text_et = multimodal_transformer(fe, ft, self.store, "fusion.mt_et", cfg)
        else:
            text_vt = text_et = ft

        if switches.sa:
            fused = fuse_vision_event(fv, fe, self.store, "fusion.sa_ve", cfg)
        else:
            fused = ad.concat_rows(fv, fe)

        if switches.ca:
            ca_vt = cross_attention(text_vt, fused, self.store, "fusion.ca_vt", cfg)
            ca_et = cross_attention(text_et, fused, self.store, "fusion.ca_et", cfg)
        else:
            ca_vt, ca_et = text_vt, text_et

        return classify(fused, ca_vt, ca_et, self.store, "fusion", cfg)

    def forward(self, sample: Sample) -> Tensor:
        """Full pipeline: sample -> class logits of shape (1, L)."""
        fv, fe = self.encode_sample([sample])
        logits, _ = self.head(fv, fe, self.text_tokens())
        return logits
