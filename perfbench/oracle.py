"""Independent oracles for the benchmark's output checks.

Plain numpy, importing no compute code from the program under test:

- a reference forward pass of the fusion classifier, built from the arrays
  of a checkpoint file (flat little-endian float64 plus its JSON sidecar);
- the DVS closed form: per pixel, floor(|delta log L| / threshold) events
  for each pair of consecutive frames;
- brute-force event stacking, one event at a time.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_LN_EPS = 1e-5


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Parameter arrays of a checkpoint, read straight from its two files."""
    path = Path(path)
    sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    flat = np.frombuffer(path.read_bytes(), dtype="<f8")
    arrays = {}
    for name, meta in sidecar["params"].items():
        shape = tuple(meta["shape"])
        size = int(np.prod(shape))
        arrays[name] = flat[meta["offset"]:meta["offset"] + size].reshape(shape).astype(np.float64)
    return arrays


# -- reference forward -------------------------------------------------------

def _ln(p, prefix, x):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + _LN_EPS) * p[f"{prefix}.gain"] + p[f"{prefix}.bias"]


def _lin(p, prefix, x):
    return x @ p[f"{prefix}.w"] + p[f"{prefix}.b"]


def _softmax(s):
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _attend(q, k, v):
    return _softmax(q @ k.T / math.sqrt(q.shape[1])) @ v


def _mha(p, prefix, x, heads):
    q, k, v = (_lin(p, f"{prefix}.{n}", x) for n in ("wq", "wk", "wv"))
    hd = x.shape[1] // heads
    out = np.concatenate([_attend(q[:, h * hd:(h + 1) * hd], k[:, h * hd:(h + 1) * hd],
                                  v[:, h * hd:(h + 1) * hd]) for h in range(heads)], axis=1)
    return _lin(p, f"{prefix}.wo", out)


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x * x * x)))


def _block(p, prefix, x, heads):
    x = x + _mha(p, f"{prefix}.attn", _ln(p, f"{prefix}.ln1", x), heads)
    h = _gelu(_lin(p, f"{prefix}.mlp1", _ln(p, f"{prefix}.ln2", x)))
    return x + _lin(p, f"{prefix}.mlp2", h)


def _attn_block(p, prefix, x, heads):
    return x + _mha(p, f"{prefix}.attn", _ln(p, f"{prefix}.ln", x), heads)


class ReferenceModel:
    """The classifier with every ablation switch on.

    ``dims`` gives, per branch ("rgb", "event", "text", "fusion"), the
    ``depth`` and ``heads``, plus ``patch_size`` for the two encoders;
    ``token_ids`` holds each class prompt's token ids. Inputs must already
    be at the encoders' image size.
    """

    def __init__(self, params: dict[str, np.ndarray], dims: dict[str, dict],
                 token_ids: list[list[int]]):
        self.p = params
        self.dims = dims
        self.token_ids = token_ids

    def _encode_frame(self, prefix: str, img: np.ndarray) -> np.ndarray:
        d = self.dims[prefix]
        ps = d["patch_size"]
        g = img.shape[0] // ps
        patches = img.reshape(g, ps, g, ps, 3).transpose(0, 2, 1, 3, 4).reshape(g * g, -1)
        x = np.concatenate([self.p[f"{prefix}.cls"], _lin(self.p, f"{prefix}.patch", patches)])
        x = x + self.p[f"{prefix}.pos"]
        for i in range(d["depth"]):
            x = _block(self.p, f"{prefix}.block{i}", x, d["heads"])
        return x

    def encode(self, rgb_frames: list[np.ndarray], event_frames: list[np.ndarray]):
        """Token matrices of the RGB clip and of the (2, H, W) event frames."""
        fv = np.concatenate([self._encode_frame("rgb", f) for f in rgb_frames])
        ev = [np.stack([f[0], f[1], 0.5 * (f[0] + f[1])], axis=2) for f in event_frames]
        fe = np.concatenate([self._encode_frame("event", f) for f in ev])
        return fv, fe

    def text(self, token_ids: list[list[int]], pad_id: int = 0) -> np.ndarray:
        """One pooled token per class from each prompt's token ids."""
        d = self.dims["text"]
        rows = []
        for ids in token_ids:
            real = [i for i in ids if i != pad_id]
            x = self.p["text.embed"][real] + self.p["text.pos"][:len(real)]
            for i in range(d["depth"]):
                x = _block(self.p, f"text.block{i}", x, d["heads"])
            rows.append(_lin(self.p, "text.proj", x.mean(axis=0, keepdims=True)))
        return np.concatenate(rows)

    def head(self, fv: np.ndarray, fe: np.ndarray, ft: np.ndarray) -> np.ndarray:
        d = self.dims["fusion"]
        streams = {}
        for name, mod in (("vt", fv), ("et", fe)):
            x = np.concatenate([mod, ft])
            for i in range(d["depth"]):
                x = _block(self.p, f"fusion.mt_{name}.block{i}", x, d["heads"])
            streams[name] = (x[:mod.shape[0]], x[mod.shape[0]:])
        fused = _attn_block(self.p, "fusion.sa_ve",
                            np.concatenate([streams["vt"][0], streams["et"][0]]), d["heads"])
        ca = []
        for name in ("vt", "et"):
            t = streams[name][1]
            q, k, v = (_lin(self.p, f"fusion.ca_{name}.{n}", src)
                       for n, src in (("wq", t), ("wk", fused), ("wv", fused)))
            ca.append(t + _attend(q, k, v))
        x = _attn_block(self.p, "fusion.final", np.concatenate([fused] + ca), d["heads"])
        return _lin(self.p, "fusion.clf", x.mean(axis=0, keepdims=True)).reshape(-1)

    def logits(self, rgb_frames, event_frames) -> np.ndarray:
        fv, fe = self.encode(rgb_frames, event_frames)
        return self.head(fv, fe, self.text(self.token_ids))


def cross_entropy(logits: np.ndarray, target: int) -> float:
    m = logits.max()
    return float(m + math.log(np.exp(logits - m).sum()) - logits[target])


# -- events --------------------------------------------------------------------

def dvs_counts(frames: list[np.ndarray], threshold: float) -> np.ndarray:
    """Closed-form per-pixel event count of a clip, summed over its frame
    pairs. The 1e-9 slack lets an exact multiple of the threshold count in
    full despite float rounding."""
    logs = [np.log(f.mean(axis=2) + 1e-3) for f in frames]
    total = np.zeros(logs[0].shape, dtype=np.int64)
    for a, b in zip(logs, logs[1:]):
        total += np.floor(np.abs(b - a) / threshold + 1e-9).astype(np.int64)
    return total


def stack_brute_force(x, y, t, p, timestamps, width: int, height: int) -> list[np.ndarray]:
    """Per-frame (ON, OFF) counts, each frame divided by its own peak; an
    event goes to the last frame whose timestamp is at or before it, and
    events before the first frame go to frame 0."""
    n = len(timestamps)
    counts = np.zeros((n, 2, height, width))
    for xi, yi, ti, pi in zip(x.tolist(), y.tolist(), t.tolist(), p.tolist()):
        j = 0
        for k in range(n):
            if timestamps[k] <= ti:
                j = k
        counts[j, 0 if pi == 1 else 1, yi, xi] += 1
    return [f / f.max() if f.max() > 0 else f for f in counts]
