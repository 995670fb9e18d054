"""Prompt rendering and the per-class text encoding branch.

Each class label is rendered into a sentence via a template, tokenized
against a word-level vocabulary built from the closed label set, run
through a small transformer (the labels of equal token count as one
batch), mean-pooled over non-PAD positions, and projected to the fusion
width — producing one text token per class.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import blocks
from .autodiff import Tensor
from .errors import ContractError
from .params import ParamStore

NONE_TEMPLATE = "NONE"
PAD, UNK = 0, 1

_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


@dataclass(frozen=True)
class PromptTemplate:
    template: str

    def __post_init__(self):
        if self.is_none:
            return
        if self.template.count("{}") != 1:
            raise ContractError(
                f"template must contain exactly one {{}} placeholder: {self.template!r}")
        try:
            self.template.format("label")
        except (ValueError, LookupError) as exc:
            raise ContractError(f"template {self.template!r} does not format: "
                                f"{type(exc).__name__}: {exc}") from exc

    @property
    def is_none(self) -> bool:
        return self.template == NONE_TEMPLATE


def render_prompt(tpl: PromptTemplate, label: str) -> str:
    """Substitute the label into the template; NONE yields the bare label."""
    if not label:
        raise ContractError("label must be non-empty")
    if tpl.is_none:
        return label
    return tpl.template.format(label)


def _words(text: str) -> list[str]:
    return text.lower().translate(_PUNCT_TABLE).split()


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]

    @classmethod
    def build(cls, texts: list[str]) -> "Vocabulary":
        mapping = {"<pad>": PAD, "<unk>": UNK}
        for text in texts:
            for word in _words(text):
                if word not in mapping:
                    mapping[word] = len(mapping)
        return cls(mapping)

    def __len__(self):
        return len(self.token_to_id)


def tokenize(text: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """Lowercase, strip punctuation, map words to ids, pad/truncate."""
    if max_len < 1:
        raise ContractError("max_len must be >= 1")
    ids = [vocab.token_to_id.get(w, UNK) for w in _words(text)][:max_len]
    return ids + [PAD] * (max_len - len(ids))


@dataclass(frozen=True)
class TextConfig:
    dim: int = 64          # internal width and output (fusion) width
    depth: int = 1
    heads: int = 4
    mlp_ratio: float = 4.0
    max_len: int = 12
    frozen: bool = False

    def __post_init__(self):
        for name, value in (("heads", self.heads), ("max_len", self.max_len)):
            if value < 1:
                raise ContractError(f"text.{name} must be >= 1, got {value}")
        if self.dim % self.heads != 0:
            raise ContractError(f"text.dim {self.dim} not divisible by text.heads {self.heads}")


def init_text_params(store: ParamStore, prefix: str, cfg: TextConfig,
                     vocab: Vocabulary, rng: np.random.Generator) -> None:
    store.add(f"{prefix}.embed",
              rng.normal(0.0, blocks.INIT_STD, size=(len(vocab), cfg.dim)))
    store.add(f"{prefix}.pos",
              rng.normal(0.0, blocks.INIT_STD, size=(cfg.max_len, cfg.dim)))
    for i in range(cfg.depth):
        blocks.init_transformer_block(store, f"{prefix}.block{i}", cfg.dim,
                                      cfg.mlp_ratio, rng)
    blocks.init_linear(store, f"{prefix}.proj", cfg.dim, cfg.dim, rng)
    if cfg.frozen:
        store.freeze(prefix)


def encode_labels(labels: list[str], tpl: PromptTemplate, cfg: TextConfig,
                  vocab: Vocabulary, store: ParamStore, prefix: str) -> Tensor:
    """Encode every class label into one token; row i = class i.

    The labels whose prompts have the same number of real tokens run as
    one (G, n, dim) forward; the rows then return to class order. PAD
    positions are dropped before the forward: they enter neither the
    attention nor the pooled mean, so extra padding cannot leak in."""
    ids = [[i for i in tokenize(render_prompt(tpl, lb), vocab, cfg.max_len) if i != PAD]
           for lb in labels]
    groups: dict[int, list[int]] = {}  # real token count -> its classes, in order
    for c, row in enumerate(ids):
        groups.setdefault(len(row), []).append(c)
    parts = []
    for n, classes in groups.items():
        x = ad.take_rows(store[f"{prefix}.embed"], [ids[c] for c in classes])
        x = ad.add(x, ad.slice_rows(store[f"{prefix}.pos"], 0, n))
        for i in range(cfg.depth):
            x = blocks.transformer_block(store, f"{prefix}.block{i}", x, cfg.heads)
        pooled = blocks.linear(store, f"{prefix}.proj", ad.mean_rows(x))  # (G, 1, dim)
        parts.append(ad.reshape(pooled, (len(classes), pooled.shape[-1])))
    tokens = ad.concat_rows(*parts)
    order = [c for classes in groups.values() for c in classes]
    if order != sorted(order):
        tokens = ad.take_rows(tokens, np.argsort(order))
    return tokens
