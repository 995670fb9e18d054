"""On-disk dataset layout: one directory per sample holding PPM frames,
an event file (CSV or binary), and a manifest JSON, plus a top-level
dataset manifest."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError, ValidationError
from .events import (Sample, VideoClip, parse_events_binary, parse_events_csv,
                     write_events_binary, write_events_csv)


EVENT_FORMATS = ("csv", "binary")


def write_ppm(frame: np.ndarray, path: str | Path) -> None:
    """Binary P6 PPM, 8-bit, from floats in [0, 1]."""
    h, w = frame.shape[:2]
    data = np.clip(np.round(frame * 255.0), 0, 255).astype(np.uint8)
    with Path(path).open("wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


# P6 width height maxval, parted by whitespace and "#" comment lines, then one whitespace byte
_GAP = rb"(?:\s|#[^\n]*\n)+"
_PPM_HEADER = re.compile(rb"P6" + (_GAP + rb"(\d+)") * 3 + rb"\s")


def read_ppm(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    header = _PPM_HEADER.match(raw)
    if header is None:
        raise ParseError(f"{path}: not a binary PPM, or a malformed header")
    w, h, maxval = (int(f) for f in header.groups())
    if maxval != 255:
        raise ParseError(f"{path}: only 8-bit PPM supported")
    n = w * h * 3
    pixels = np.frombuffer(raw[header.end():header.end() + n], dtype=np.uint8)
    if n == 0 or pixels.size != n:
        raise ParseError(f"{path}: empty or truncated pixel data")
    return pixels.reshape(h, w, 3).astype(np.float64) / 255.0


def _check_event_format(event_format: str) -> None:
    if event_format not in EVENT_FORMATS:
        raise ContractError(f"event_format {event_format!r} is not 'csv' or 'binary'")


def write_sample(sample: Sample, directory: str | Path,
                 event_format: str = "csv") -> None:
    _check_event_format(event_format)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(sample.clip.frames):
        write_ppm(frame, directory / f"frame_{i:03d}.ppm")
    if event_format == "csv":
        write_events_csv(sample.events, directory / "events.csv")
    else:
        write_events_binary(sample.events, directory / "events.bin")
    manifest = {
        "sample_id": sample.sample_id,
        "label": sample.label,
        "timestamps": [int(t) for t in sample.clip.timestamps],
        "resolution": list(sample.events.resolution),
        "event_format": event_format,
        "n_frames": len(sample.clip),
        "n_events": len(sample.events),
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _manifest_fields(path: Path, **types: type) -> list:
    """The named fields of a JSON manifest; ParseError if it is malformed or
    one of them is missing or not of its type."""
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    bad = [f for f, t in types.items()  # a JSON boolean is not an integer
           if not (isinstance(manifest, dict) and isinstance(manifest.get(f), t)
                   and type(manifest[f]) is not bool)]
    if bad:
        raise ParseError(f"{path}: missing or mistyped fields {bad}")
    return [manifest[f] for f in types]


def read_sample(directory: str | Path) -> Sample:
    directory = Path(directory)
    sample_id, label, timestamps, resolution, event_format, n_frames, n_events = (
        _manifest_fields(directory / "manifest.json", sample_id=str, label=int,
                         timestamps=list, resolution=list, event_format=str,
                         n_frames=int, n_events=int))
    if not all(type(v) is int for v in timestamps + resolution):
        raise ParseError(f"{directory}: timestamps and resolution must hold integers")
    if len(timestamps) != n_frames:
        raise ValidationError(f"{directory}: {len(timestamps)} timestamps for {n_frames} frames")
    if any(b <= a for a, b in zip(timestamps, timestamps[1:])):
        raise ValidationError(f"{directory}: timestamps {timestamps} are not strictly increasing")
    if len(resolution) != 2 or min(resolution) < 1:
        raise ValidationError(f"{directory}: resolution {resolution} is not two positive integers")
    if label < 0:
        raise ValidationError(f"{directory}: label {label} is negative")
    if event_format not in EVENT_FORMATS:
        raise ParseError(f"{directory}: event_format {event_format!r} is not 'csv' or 'binary'")
    frame_paths = [directory / f"frame_{i:03d}.ppm" for i in range(n_frames)]
    events_path = directory / ("events.csv" if event_format == "csv" else "events.bin")
    missing = [p.name for p in frame_paths + [events_path] if not p.is_file()]
    if missing:
        raise ValidationError(f"{directory}: the manifest names missing files {missing}")
    clip = VideoClip([read_ppm(p) for p in frame_paths], np.asarray(timestamps, np.int64))
    if event_format == "csv":
        events = parse_events_csv(events_path, tuple(resolution))
    else:
        events = parse_events_binary(events_path)
        if events.resolution != tuple(resolution):
            raise ValidationError(f"{events_path}: header resolution {events.resolution}, "
                                  f"the manifest says {tuple(resolution)}")
    if len(events) != n_events:
        raise ValidationError(f"{directory}: {len(events)} events, the manifest says {n_events}")
    return Sample(clip, events, label, sample_id)


def write_dataset(samples: list[Sample], labels: list[str],
                  out_dir: str | Path, event_format: str = "csv",
                  split: str = "train") -> Path:
    _check_event_format(event_format)  # before anything is created
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    histogram: dict[str, int] = {}
    ids = []
    for sample in samples:
        name = f"{split}_{sample.sample_id}"
        write_sample(sample, out_dir / name, event_format)
        histogram[labels[sample.label]] = histogram.get(labels[sample.label], 0) + 1
        ids.append(name)
    manifest_path = out_dir / f"dataset_{split}.json"
    manifest_path.write_text(json.dumps({
        "split": split,
        "labels": labels,
        "n_samples": len(samples),
        "class_histogram": histogram,
        "samples": ids,
        "event_format": event_format,
    }, indent=2, sort_keys=True) + "\n")
    return manifest_path


def read_dataset(out_dir: str | Path, split: str = "train") -> list[Sample]:
    out_dir = Path(out_dir)
    manifest = out_dir / f"dataset_{split}.json"
    (names,) = _manifest_fields(manifest, samples=list)
    # each name is one directory inside out_dir, as write_dataset makes them
    bad = [n for n in names if not isinstance(n, str) or n in ("", ".", "..")
           or any(c in n for c in "/\\\0")]
    if bad:
        raise ParseError(f"{manifest}: sample names {bad} are not directory names")
    missing = [n for n in names if not (out_dir / n).is_dir()]
    if missing:
        raise ValidationError(f"{manifest}: no sample directory for {missing}")
    return [read_sample(out_dir / name) for name in names]
