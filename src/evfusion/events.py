"""Event streams: parsing, frame alignment, DVS simulation, synthetic data.

An event is the quadruple [x, y, t, p]: pixel coordinates, microsecond
timestamp, and ON/OFF polarity. Streams are kept as column arrays sorted
by timestamp (stable in input order on ties).

Synthesis and counting work on whole clips, with no loop per pixel or per
event: the renderer builds every frame's shape mask in one array, the DVS
simulator takes the log-luminance deltas of all frame pairs at once, and
event_counts bins a stream with one bincount.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, NumericError, ParseError, ValidationError

ON = 1
OFF = 0

_BIN_MAGIC = b"EVST"
_BIN_HEADER = struct.Struct("<4sHHHI2x")  # magic, version, width, height, count, pad
_BIN_RECORD_DTYPE = np.dtype([("x", "<u2"), ("y", "<u2"), ("t", "<i8"), ("p", "u1")])


@dataclass
class EventStream:
    resolution: tuple[int, int]  # (width, height)
    x: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    y: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    t: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    p: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def __len__(self):
        return self.x.size

    def validate(self) -> "EventStream":
        w, h = self.resolution
        if len(self) and (self.x.min() < 0 or self.x.max() >= w
                          or self.y.min() < 0 or self.y.max() >= h):
            raise ValidationError(
                f"event coordinates outside declared resolution {w}x{h}")
        if len(self) and np.any(np.diff(self.t) < 0):
            raise ValidationError("event timestamps must be non-decreasing")
        return self

    def sorted_by_time(self) -> "EventStream":
        order = np.argsort(self.t, kind="stable")
        return EventStream(self.resolution, self.x[order], self.y[order],
                           self.t[order], self.p[order])


@dataclass
class VideoClip:
    frames: list[np.ndarray]          # each (H, W, 3), floats in [0, 1]
    timestamps: np.ndarray            # microseconds, strictly increasing

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        if len(self.frames) != self.timestamps.size:
            raise ContractError("VideoClip: frames/timestamps length mismatch")
        if self.timestamps.size > 1 and np.any(np.diff(self.timestamps) <= 0):
            raise ContractError("VideoClip: timestamps must be strictly increasing")

    def __len__(self):
        return len(self.frames)


@dataclass
class EventFrameSequence:
    """Per-video-frame 2-channel (ON, OFF) count images, normalized to [0, 1]."""
    frames: list[np.ndarray]          # each (2, H, W)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _event_rows(lines: list[str]) -> np.ndarray | None:
    """The lines as an (n, 4) int64 array; None unless every nonblank line
    is four comma-separated integers."""
    try:
        rows = np.loadtxt(lines, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        return None
    return rows if rows.shape[1] == 4 else None


def parse_events_csv(path: str | Path, resolution: tuple[int, int]) -> EventStream:
    """Read an `x,y,t,p` header, then one row of four plain integers per
    event; blank lines are skipped and fields are not quoted."""
    path = Path(path)
    try:
        # ASCII only: numpy's integer parser misreads, even crashes on, some
        # non-ASCII characters
        with path.open(encoding="ascii") as fh:  # universal newlines
            header, *lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not ASCII text ({exc.reason})") from exc
    if header != "x,y,t,p":
        raise ParseError(f"{path}: expected header x,y,t,p, got {header!r}")
    # loadtxt warns on input with no rows
    rows = _event_rows(lines) if any(lines) else np.zeros((0, 4), np.int64)
    if rows is None:
        lineno, line = next((n, ln) for n, ln in enumerate(lines, start=2)
                            if ln and _event_rows([ln]) is None)
        raise ParseError(f"{path}:{lineno}: malformed row {line!r}")
    bad = np.flatnonzero((rows[:, 3] != 0) & (rows[:, 3] != 1))
    if bad.size:
        lineno = [n for n, ln in enumerate(lines, start=2) if ln][bad[0]]
        raise ParseError(f"{path}:{lineno}: polarity must be 0 or 1")
    stream = EventStream(resolution, *rows.T)
    return stream.sorted_by_time().validate()


def write_events_csv(stream: EventStream, path: str | Path) -> None:
    values = np.column_stack((stream.x, stream.y, stream.t, stream.p)).ravel().tolist()
    with Path(path).open("w", newline="") as fh:
        fh.write("x,y,t,p\r\n" + ("%d,%d,%d,%d\r\n" * len(stream)) % tuple(values))


def parse_events_binary(path: str | Path) -> EventStream:
    raw = Path(path).read_bytes()
    if len(raw) < _BIN_HEADER.size:
        raise ParseError(f"{path}: truncated header")
    magic, version, width, height, count = _BIN_HEADER.unpack(raw[:_BIN_HEADER.size])
    if magic != _BIN_MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if version != 1:
        raise ParseError(f"{path}: unsupported version {version}")
    body = raw[_BIN_HEADER.size:]
    expected = count * _BIN_RECORD_DTYPE.itemsize
    if len(body) != expected:
        raise ParseError(f"{path}: expected {expected} record bytes, found {len(body)}")
    rec = np.frombuffer(body, dtype=_BIN_RECORD_DTYPE)
    if np.any(rec["p"] > 1):
        raise ParseError(f"{path}: polarity must be 0 or 1")
    stream = EventStream((width, height),
                         rec["x"].astype(np.int64), rec["y"].astype(np.int64),
                         rec["t"].astype(np.int64), rec["p"].astype(np.int64))
    return stream.sorted_by_time().validate()


def write_events_binary(stream: EventStream, path: str | Path) -> None:
    w, h = stream.resolution
    rec = np.zeros(len(stream), dtype=_BIN_RECORD_DTYPE)
    rec["x"] = stream.x
    rec["y"] = stream.y
    rec["t"] = stream.t
    rec["p"] = stream.p
    with Path(path).open("wb") as fh:
        fh.write(_BIN_HEADER.pack(_BIN_MAGIC, 1, w, h, len(stream)))
        fh.write(rec.tobytes())


# ---------------------------------------------------------------------------
# frame alignment
# ---------------------------------------------------------------------------

def event_counts(stream: EventStream, clip_timestamps, resolution) -> np.ndarray:
    """Raw per-frame, per-polarity, per-pixel counts, shape (N, 2, H, W).

    Event i goes to the largest frame j with timestamps[j] <= t_i;
    earlier events go to frame 0, later ones to the last frame.
    """
    ts = np.asarray(clip_timestamps, dtype=np.int64)
    if ts.size == 0:
        raise ContractError("clip_timestamps must be nonempty")
    if ts.size > 1 and np.any(np.diff(ts) <= 0):
        raise ContractError("clip_timestamps must be strictly increasing")
    w, h = resolution
    j = np.clip(np.searchsorted(ts, stream.t, side="right") - 1, 0, ts.size - 1)
    chan = np.where(stream.p == ON, 0, 1)
    flat = ((j * 2 + chan) * h + stream.y) * w + stream.x
    return np.bincount(flat, minlength=ts.size * 2 * h * w).reshape(ts.size, 2, h, w)


def stack_events(stream: EventStream, clip_timestamps, resolution) -> EventFrameSequence:
    """Accumulate events into per-frame ON/OFF count images, each frame
    normalized by its own max count (all-zero frames stay zero)."""
    counts = event_counts(stream, clip_timestamps, resolution)
    frames = []
    for f in counts:
        peak = f.max()
        frames.append(f / peak if peak > 0 else f.astype(np.float64))
    return EventFrameSequence(frames)


# ---------------------------------------------------------------------------
# DVS simulation
# ---------------------------------------------------------------------------

def _event_count_for_delta(delta: np.ndarray, threshold: float) -> np.ndarray:
    # snap near-integer ratios up so an exact k*threshold change yields k
    # events despite float rounding
    with np.errstate(over="ignore"):  # an infinite ratio fails the check below
        ratio = np.abs(delta) / threshold
    if not (peak := ratio.max(initial=0.0)) < 2.0**63:  # also false for NaN
        raise NumericError(f"DVS threshold {threshold:g} gives a per-pixel event count "
                           f"of {peak:g}, past the int64 range")
    near = np.ceil(ratio) - ratio < 1e-9
    return np.where(near, np.ceil(ratio), np.floor(ratio)).astype(np.int64)


def simulate_dvs(clip: VideoClip, threshold: float) -> EventStream:
    """Emit floor(|delta log-luminance| / threshold) events per pixel per
    consecutive frame pair, timestamps interpolated at threshold crossings.
    All frame pairs are handled at once."""
    if threshold <= 0:
        raise ContractError("threshold must be positive")
    if len(clip) < 2:
        raise ContractError("simulate_dvs needs at least 2 frames")
    h, w = clip.frames[0].shape[:2]
    # log luminance of every frame; ((r + g) + b) / 3 sums in the order of
    # frame.mean(axis=2), so the events keep their bits
    log_lum = np.empty((len(clip), h, w))
    for plane, frame in zip(log_lum, clip.frames):
        np.add(frame[..., 0], frame[..., 1], out=plane)
        plane += frame[..., 2]
    log_lum /= 3
    log_lum += 1e-3
    np.log(log_lum, out=log_lum)
    delta = log_lum[1:] - log_lum[:-1]
    n = _event_count_for_delta(delta, threshold)
    # changed pixels in pair-major, row-major order
    pair, yy, xx = np.nonzero(n)
    cnt = n[pair, yy, xx]
    d = delta[pair, yy, xx]
    # one entry per event; k counts a pixel's events 1..cnt
    pix = np.repeat(np.arange(cnt.size), cnt)
    k = np.arange(1, pix.size + 1) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    ev_pair = pair[pix]
    t0, span = clip.timestamps[ev_pair], np.diff(clip.timestamps)[ev_pair]
    frac = k * threshold / np.abs(d)[pix]
    stream = EventStream((w, h), xx[pix], yy[pix], (t0 + frac * span).astype(np.int64),
                         np.where(d > 0, ON, OFF)[pix])
    return stream.sorted_by_time()


# ---------------------------------------------------------------------------
# synthetic dataset
# ---------------------------------------------------------------------------

SHAPES = ("square", "disc", "bar")
DIRECTIONS = ("left", "right", "up", "down")

_SHAPE_COLORS = {
    "square": (0.95, 0.35, 0.25),
    "disc": (0.30, 0.90, 0.35),
    "bar": (0.30, 0.40, 0.95),
}

_DIR_VECTORS = {
    "left": (-1.0, 0.0), "right": (1.0, 0.0),
    "up": (0.0, -1.0), "down": (0.0, 1.0),
}


@dataclass
class MotionClass:
    label: str
    shape: str
    direction: str

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ContractError(f"unknown shape {self.shape!r}")
        if self.direction not in DIRECTIONS:
            raise ContractError(f"unknown direction {self.direction!r}")


@dataclass
class SynthSpec:
    classes: list[MotionClass]
    samples_per_class: int
    resolution: tuple[int, int]       # (width, height)
    n_frames: int                     # frames handed to the model
    dvs_threshold: float = 0.15
    oversample: int = 4               # rendered frames per model frame
    frame_interval_us: int = 20_000   # between model frames
    static_rgb: bool = False          # blank identical RGB, events keep motion

    def __post_init__(self):
        if len(self.classes) < 2:
            raise ContractError("SynthSpec needs at least 2 classes")


@dataclass
class Sample:
    clip: VideoClip
    events: EventStream
    label: int
    sample_id: str = ""


def render_motion_clip(cls: MotionClass, spec: SynthSpec,
                       rng: np.random.Generator) -> VideoClip:
    """Render the fine-grained (oversampled) clip for one sample."""
    w, h = spec.resolution
    k = max(2, spec.n_frames * spec.oversample)
    dt = spec.frame_interval_us // spec.oversample
    size = min(w, h) / 6.0 + rng.uniform(-0.5, 0.5)
    dx, dy = _DIR_VECTORS[cls.direction]
    travel = min(w, h) * 0.5
    cx0 = w / 2.0 - dx * travel / 2.0 + rng.uniform(-2.0, 2.0)
    cy0 = h / 2.0 - dy * travel / 2.0 + rng.uniform(-2.0, 2.0)
    base = _SHAPE_COLORS[cls.shape]
    tint = rng.uniform(-0.04, 0.04)
    color = tuple(float(np.clip(c + tint, 0.0, 1.0)) for c in base)
    # every frame's shape mask at once, (k, h, w), from its column and row offsets
    frac = np.arange(k) / (k - 1)
    ox = np.arange(w) - (cx0 + dx * travel * frac)[:, None, None]
    oy = np.arange(h)[:, None] - (cy0 + dy * travel * frac)[:, None, None]
    if cls.shape == "square":
        masks = (np.abs(ox) <= size) & (np.abs(oy) <= size)
    elif cls.shape == "disc":
        masks = ox**2 + oy**2 <= size**2
    else:  # bar: tall thin rectangle
        masks = (np.abs(ox) <= size / 2) & (np.abs(oy) <= 2 * size)
    frames = []
    for mask in masks:
        canvas = np.full((h, w, 3), 0.12)
        canvas[mask] = color
        frames.append(canvas)
    timestamps = np.arange(k, dtype=np.int64) * dt
    return VideoClip(frames, timestamps)


def _subsample_clip(fine: VideoClip, n_frames: int, oversample: int) -> VideoClip:
    idx = [min((i + 1) * oversample - 1, len(fine) - 1) for i in range(n_frames)]
    return VideoClip([fine.frames[i].copy() for i in idx], fine.timestamps[idx])


def synth_dataset(spec: SynthSpec, seed: int, keep: range | None = None) -> list[Sample]:
    """Deterministic synthetic RGB+event classification dataset. With keep,
    only each class's samples whose index is in keep are made; the others
    are still rendered, so the kept ones are those of the full dataset."""
    rng = np.random.default_rng(seed)
    samples = []
    for label, cls in enumerate(spec.classes):
        for s in range(spec.samples_per_class):
            fine = render_motion_clip(cls, spec, rng)
            if keep is not None and s not in keep:
                continue
            events = simulate_dvs(fine, spec.dvs_threshold)
            clip = _subsample_clip(fine, spec.n_frames, spec.oversample)
            if spec.static_rgb:
                w, h = spec.resolution
                blank = np.full((h, w, 3), 0.5)
                clip = VideoClip([blank.copy() for _ in range(len(clip))],
                                 clip.timestamps)
            samples.append(Sample(clip, events, label, f"c{label:02d}_s{s:03d}"))
    return samples
