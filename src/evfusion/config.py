"""Run configuration: one JSON document describing data, model, ablation
switches, and optimizer, validated in a single pass."""

from __future__ import annotations

import functools
import itertools
import json
import math
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

from .encoders import EncoderConfig
from .errors import ConfigError, ContractError, EvFusionError
from .events import DIRECTIONS, SHAPES, MotionClass, Sample, SynthSpec, synth_dataset
from .fusion import AblationSwitches, FusionConfig, ModelConfig
from .text import PromptTemplate, TextConfig, _words, render_prompt
from .trainer import OptimConfig

SWEEP_FRAME_COUNTS = [1, 3, 5, 7]

SWEEP_TEMPLATES = [
    "This is a picture about Picture of {}",
    "The action in the picture is {}",
    "A photo of a {}",
    "The content of the playing card is {}",
    "NONE",
]

# six switch patterns of the component-analysis table: all-on plus five
# single-component-off rows
ABLATION_PATTERNS = [
    {"sci": True, "lvm": True, "mt": True, "sa": True, "ca": True},
    {"sci": False, "lvm": True, "mt": True, "sa": True, "ca": True},
    {"sci": True, "lvm": False, "mt": True, "sa": True, "ca": True},
    {"sci": True, "lvm": True, "mt": False, "sa": True, "ca": True},
    {"sci": True, "lvm": True, "mt": True, "sa": False, "ca": True},
    {"sci": True, "lvm": True, "mt": True, "sa": True, "ca": False},
]

DEFAULT_CLASSES = [
    {"label": "square moving right", "shape": "square", "direction": "right"},
    {"label": "square moving left", "shape": "square", "direction": "left"},
    {"label": "disc moving up", "shape": "disc", "direction": "up"},
    {"label": "disc moving down", "shape": "disc", "direction": "down"},
]


@dataclass
class DataConfig:
    classes: list[MotionClass]
    samples_per_class: int = 16
    eval_samples_per_class: int = 0
    resolution: tuple[int, int] = (32, 32)
    frames: int = 3
    dvs_threshold: float = 0.15
    oversample: int = 4
    frame_interval_us: int = 20_000
    static_rgb: bool = False


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/default"
    data: DataConfig = None
    rgb_encoder: EncoderConfig = field(default_factory=EncoderConfig)
    event_encoder: EncoderConfig = field(default_factory=EncoderConfig)
    text: TextConfig = field(default_factory=TextConfig)
    template: str = "The action of the human is {}"
    fusion: FusionConfig = field(default_factory=FusionConfig)
    switches: AblationSwitches = field(default_factory=AblationSwitches)
    optim: OptimConfig = field(default_factory=OptimConfig)
    shallow_encoder_depth: int = 1  # used when the lvm switch is off

    @property
    def labels(self) -> list[str]:
        return [c.label for c in self.data.classes]

    def model_config(self) -> ModelConfig:
        """The model's config, carrying a copy of the run's switches. lvm is
        applied here: off, both encoders become shallow and trainable."""
        rgb, event = self.rgb_encoder, self.event_encoder
        if not self.switches.lvm:
            rgb = _shallow(rgb, self.shallow_encoder_depth)
            event = _shallow(event, self.shallow_encoder_depth)
        return ModelConfig(rgb=rgb, event=event, text=self.text,
                           fusion=self.fusion, labels=self.labels,
                           template=PromptTemplate(self.template),
                           switches=replace(self.switches))

    def synth_spec(self, samples_per_class: int) -> SynthSpec:
        d = self.data
        return SynthSpec(classes=d.classes, samples_per_class=samples_per_class,
                         resolution=tuple(d.resolution), n_frames=d.frames,
                         dvs_threshold=d.dvs_threshold, oversample=d.oversample,
                         frame_interval_us=d.frame_interval_us,
                         static_rgb=d.static_rgb)


def _shallow(cfg: EncoderConfig, depth: int) -> EncoderConfig:
    return replace(cfg, depth=depth, frozen=False)


def make_datasets(cfg: RunConfig, *,
                  split: str | None = None) -> tuple[list[Sample], list[Sample]]:
    """Deterministic train/eval split: per class, the first
    samples_per_class generated samples train, the rest evaluate. With
    split "train" or "eval" only that split's samples are made (the other
    list is empty); they equal those of the full call."""
    n_train = cfg.data.samples_per_class
    total = n_train + cfg.data.eval_samples_per_class
    keep = {None: None, "train": range(n_train), "eval": range(n_train, total)}
    if split not in keep:
        raise ContractError(f"make_datasets: unknown split {split!r}")
    all_samples = synth_dataset(cfg.synth_spec(total), cfg.seed, keep[split])
    train, evald = [], []
    for label in range(len(cfg.data.classes)):
        block = [s for s in all_samples if s.label == label]
        n = 0 if split == "eval" else n_train  # an eval-only block holds no train samples
        train.extend(block[:n])
        evald.extend(block[n:])
    return train, evald


def _parse_classes(raw) -> list[MotionClass]:
    if not isinstance(raw, list):
        raise ConfigError(f"data.classes: expected a list, got {raw!r:.60}")
    classes = []
    for i, entry in enumerate(raw):
        if isinstance(entry, str):
            parts = entry.split()
            shape = next((p for p in parts if p in SHAPES), None)
            direction = next((p for p in parts if p in DIRECTIONS), None)
            if shape is None or direction is None:
                raise ConfigError(
                    f"data.classes[{i}]: string class {entry!r} must name a "
                    f"shape {SHAPES} and a direction {DIRECTIONS}")
            classes.append(MotionClass(entry, shape, direction))
        else:
            if not isinstance(entry, dict):
                raise ConfigError(f"data.classes[{i}]: expected a string or an object, "
                                  f"got {entry!r:.60}")
            classes.append(_build(entry, MotionClass, f"data.classes[{i}]"))
    return classes


def classes_from_labels(labels: list[str]) -> list[MotionClass]:
    """Assign a distinct motion program to each bare label by cycling the
    shape x direction product (labels-file interface)."""
    programs = list(itertools.product(SHAPES, DIRECTIONS))
    return [MotionClass(lb, *programs[i % len(programs)])
            for i, lb in enumerate(labels)]


def _typed(value, tp, where: str):
    """value checked against a field annotation of int, float, bool, str or
    a fixed-length tuple of those (given as a JSON list); float fields take
    finite numbers, int fields no booleans."""
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise ConfigError(f"{where}: expected a list of {len(args)} values, "
                              f"got {value!r:.60}")
        return tuple(_typed(v, t, f"{where}[{i}]")
                     for i, (v, t) in enumerate(zip(value, args)))
    if tp is float:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (isinstance(value, int) or math.isfinite(value)))
    elif tp is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, tp)
    if not ok:
        raise ConfigError(f"{where}: expected {tp.__name__}, got {value!r:.60}")
    return value


# the resolved field annotations of a config class, read once per class
_field_types = functools.cache(typing.get_type_hints)


def _build(section, cls, where: str, **given):
    """cls from a JSON object of its fields, each type-checked; ``given``
    holds fields already parsed."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object, got {section!r:.60}")
    hints = _field_types(cls)
    unknown = sorted(set(section) - set(hints))
    if unknown:
        raise ConfigError(f"{where}: unknown field {unknown[0]!r}")
    missing = [f.name for f in fields(cls) if f.name not in section and f.name not in given
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{where}: missing field {missing[0]!r}")
    values = {k: _typed(v, hints[k], f"{where}.{k}") for k, v in section.items()}
    try:
        return cls(**values, **given)
    except EvFusionError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read_labels(path) -> list[str]:
    if not isinstance(path, str):
        raise ConfigError(f"data.labels_file: expected a path string, got {path!r:.60}")
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: undecodable text, a NUL in the path
        raise ConfigError(f"data.labels_file: cannot read {path!r}: {exc}") from exc
    return [ln for ln in text.splitlines() if ln.strip()]


def load_config(path: str | Path | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Load a JSON run config; CLI overrides replace top-level keys
    (dotted keys reach into sections, e.g. 'optim.epochs'). Any malformed
    or wrongly typed value raises ConfigError naming its field."""
    doc: dict = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path}: expected a JSON object, "
                              f"got {type(doc).__name__}")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if "." in key:
            section, sub = key.split(".", 1)
            target = doc.setdefault(section, {})
            if not isinstance(target, dict):
                raise ConfigError(f"{section}: expected an object, got {target!r:.60}")
            target[sub] = value
        else:
            doc[key] = value

    data_raw = doc.get("data", {})
    if not isinstance(data_raw, dict):
        raise ConfigError(f"data: expected an object, got {data_raw!r:.60}")
    data_raw = dict(data_raw)
    if "labels_file" in data_raw:
        classes = classes_from_labels(_read_labels(data_raw.pop("labels_file")))
    else:
        classes = _parse_classes(data_raw.pop("classes", DEFAULT_CLASSES))
    data_raw.pop("classes", None)
    data = _build(data_raw, DataConfig, "data", classes=classes)

    top = _field_types(RunConfig)
    scalars = {k: _typed(doc[k], top[k], k) for k in
               ("seed", "out_dir", "template", "shallow_encoder_depth") if k in doc}
    cfg = RunConfig(
        data=data,
        rgb_encoder=_build(doc.get("rgb_encoder", {}), EncoderConfig, "rgb_encoder"),
        event_encoder=_build(doc.get("event_encoder", {}), EncoderConfig, "event_encoder"),
        text=_build(doc.get("text", {}), TextConfig, "text"),
        fusion=_build(doc.get("fusion", {}), FusionConfig, "fusion"),
        switches=_build(doc.get("switches", {}), AblationSwitches, "switches"),
        optim=_build(doc.get("optim", {}), OptimConfig, "optim"),
        **scalars,
    )
    validate(cfg)
    return cfg


def validate(cfg: RunConfig) -> None:
    """Cross-module consistency; raises ConfigError with actionable text."""
    if len(cfg.data.classes) < 2:
        raise ConfigError("data.classes: need at least 2 classes")
    d = cfg.data
    for name, value, low in [
            ("seed", cfg.seed, 0), ("shallow_encoder_depth", cfg.shallow_encoder_depth, 0),
            ("data.samples_per_class", d.samples_per_class, 1),
            ("data.eval_samples_per_class", d.eval_samples_per_class, 0),
            ("data.frames", d.frames, 1), ("data.resolution", min(d.resolution), 1),
            ("data.oversample", d.oversample, 1),
            ("data.frame_interval_us", d.frame_interval_us, 1),
            ("text.heads", cfg.text.heads, 1), ("text.max_len", cfg.text.max_len, 1),
            ("fusion.heads", cfg.fusion.heads, 1)]:
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    dims = {"rgb_encoder.dim": cfg.rgb_encoder.dim,
            "event_encoder.dim": cfg.event_encoder.dim,
            "text.dim": cfg.text.dim, "fusion.dim": cfg.fusion.dim}
    if len(set(dims.values())) != 1:
        raise ConfigError(f"all branch widths must agree, got {dims}")
    for section in ("text", "fusion"):
        dim, heads = getattr(cfg, section).dim, getattr(cfg, section).heads
        if dim % heads != 0:
            raise ConfigError(f"{section}.dim {dim} not divisible by {section}.heads {heads}")
    labels = cfg.labels
    if not all(labels):
        raise ConfigError("class labels must be non-empty")
    try:
        template = PromptTemplate(cfg.template)
        prompts = [render_prompt(template, label) for label in labels]
    except (ContractError, ValueError, LookupError) as exc:
        raise ConfigError(f"template {cfg.template!r}: {exc}") from exc
    for label, prompt in zip(labels, prompts):
        if not _words(prompt):
            raise ConfigError(f"label {label!r} renders to no tokens under template "
                              f"{cfg.template!r}")
    if len(set(labels)) != len(labels):
        raise ConfigError("class labels must be distinct")
    if cfg.data.dvs_threshold <= 0:
        raise ConfigError("data.dvs_threshold must be positive")


def config_to_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    d["data"]["classes"] = [asdict(c) for c in cfg.data.classes]
    return d
