"""Run configuration: one JSON document describing data, model, ablation
switches, and optimizer, validated in a single pass."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

from .encoders import EncoderConfig
from .errors import ConfigError, ContractError, EvFusionError
from .events import DIRECTIONS, SHAPES, MotionClass, Sample, SynthSpec, synth_dataset
from .fusion import AblationSwitches, FusionConfig, ModelConfig
from .text import PromptTemplate, TextConfig
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
        rgb, event = self.rgb_encoder, self.event_encoder
        if not self.switches.lvm:
            rgb = _shallow(rgb, self.shallow_encoder_depth)
            event = _shallow(event, self.shallow_encoder_depth)
        return ModelConfig(rgb=rgb, event=event, text=self.text,
                           fusion=self.fusion, labels=self.labels,
                           template=PromptTemplate(self.template))

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
            try:
                classes.append(MotionClass(entry["label"], entry["shape"],
                                           entry["direction"]))
            except (KeyError, TypeError, ContractError) as exc:
                raise ConfigError(f"data.classes[{i}]: {exc}") from exc
    return classes


def classes_from_labels(labels: list[str]) -> list[MotionClass]:
    """Assign a distinct motion program to each bare label by cycling the
    shape x direction product (labels-file interface)."""
    programs = list(itertools.product(SHAPES, DIRECTIONS))
    return [MotionClass(lb, *programs[i % len(programs)])
            for i, lb in enumerate(labels)]


def _build(section: dict, cls, where: str):
    try:
        return cls(**section)
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    except (ContractError, EvFusionError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path: str | Path | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Load a JSON run config; CLI overrides replace top-level keys
    (dotted keys reach into sections, e.g. 'optim.epochs')."""
    doc: dict = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path}: invalid JSON: {exc}") from exc
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if "." in key:
            section, sub = key.split(".", 1)
            doc.setdefault(section, {})[sub] = value
        else:
            doc[key] = value

    data_raw = dict(doc.get("data", {}))
    if "labels_file" in data_raw:
        labels = [ln for ln in Path(data_raw.pop("labels_file"))
                  .read_text().splitlines() if ln.strip()]
        classes = classes_from_labels(labels)
    else:
        classes = _parse_classes(data_raw.pop("classes", DEFAULT_CLASSES))
    data_raw.pop("classes", None)
    if "resolution" in data_raw:
        data_raw["resolution"] = tuple(data_raw["resolution"])
    data = _build({"classes": classes, **data_raw}, DataConfig, "data")

    optim_raw = dict(doc.get("optim", {}))
    if "betas" in optim_raw:
        optim_raw["betas"] = tuple(optim_raw["betas"])

    cfg = RunConfig(
        seed=int(doc.get("seed", 0)),
        out_dir=str(doc.get("out_dir", "runs/default")),
        data=data,
        rgb_encoder=_build(doc.get("rgb_encoder", {}), EncoderConfig, "rgb_encoder"),
        event_encoder=_build(doc.get("event_encoder", {}), EncoderConfig, "event_encoder"),
        text=_build(doc.get("text", {}), TextConfig, "text"),
        template=doc.get("template", "The action of the human is {}"),
        fusion=_build(doc.get("fusion", {}), FusionConfig, "fusion"),
        switches=_build(doc.get("switches", {}), AblationSwitches, "switches"),
        optim=_build(optim_raw, OptimConfig, "optim"),
        shallow_encoder_depth=int(doc.get("shallow_encoder_depth", 1)),
    )
    validate(cfg)
    return cfg


def validate(cfg: RunConfig) -> None:
    """Cross-module consistency; raises ConfigError with actionable text."""
    if len(cfg.data.classes) < 2:
        raise ConfigError("data.classes: need at least 2 classes")
    if cfg.data.samples_per_class < 1:
        raise ConfigError("data.samples_per_class must be >= 1")
    if cfg.data.frames < 1:
        raise ConfigError(f"data.frames must be >= 1, got {cfg.data.frames}")
    dims = {"rgb_encoder.dim": cfg.rgb_encoder.dim,
            "event_encoder.dim": cfg.event_encoder.dim,
            "text.dim": cfg.text.dim, "fusion.dim": cfg.fusion.dim}
    if len(set(dims.values())) != 1:
        raise ConfigError(f"all branch widths must agree, got {dims}")
    if cfg.fusion.dim % cfg.fusion.heads != 0:
        raise ConfigError(
            f"fusion.dim {cfg.fusion.dim} not divisible by fusion.heads {cfg.fusion.heads}")
    try:
        PromptTemplate(cfg.template)
    except ContractError as exc:
        raise ConfigError(f"template: {exc}") from exc
    labels = cfg.labels
    if len(set(labels)) != len(labels):
        raise ConfigError("class labels must be distinct")
    if cfg.data.dvs_threshold <= 0:
        raise ConfigError("data.dvs_threshold must be positive")


def config_to_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    d["data"]["classes"] = [asdict(c) for c in cfg.data.classes]
    return d
