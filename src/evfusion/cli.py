"""Command-line entry point.

Subcommands: synth-data, train, eval, ablate, sweep-frames,
sweep-prompts, grad-check, dump-embeddings.
Exit codes: 0 success, 1 verification failure, 2 config error, 3 IO error,
4 numeric failure (a NumericError: non-finite values, such as NaN weights in
a checkpoint, or a DVS threshold so small that a pixel's event count passes
the int64 range).
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data_files
from .config import (ABLATION_PATTERNS, SWEEP_FRAME_COUNTS,
                     SWEEP_TEMPLATES, RunConfig, config_to_dict, load_config,
                     make_datasets, validate)
from .errors import ConfigError, NumericError, ParseError, ValidationError
from .events import Sample
from .fusion import AblationSwitches, Model
from .gradcheck import run_gradcheck
from .params import _write_replacing
from .trainer import EncodingMemo, classify_rows, evaluate, train

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


_OPTIONAL_FLAGS = {
    "checkpoint": dict(help="parameter checkpoint path"),
    "template": dict(help="override the prompt template"),
    "epochs": dict(type=int, help="override optim.epochs"),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _flags(p: argparse.ArgumentParser, *optional: str) -> None:
    """--config, --seed and --out, plus the named flags the subcommand reads."""
    p.add_argument("--config", help="path to a JSON run config")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="override the output directory")
    for name in optional:
        p.add_argument(f"--{name}", **_OPTIONAL_FLAGS[name])


def _load(args) -> RunConfig:
    overrides = {"seed": args.seed, "out_dir": args.out,
                 "template": getattr(args, "template", None),
                 "optim.epochs": getattr(args, "epochs", None)}
    return load_config(args.config, overrides)


def _create(path: Path) -> Path:
    """path, once its directory exists: a command makes its output directory
    with the first file it writes, so a command that fails first makes none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _checkpoint_path(args, cfg: RunConfig) -> Path:
    return Path(args.checkpoint) if args.checkpoint else Path(cfg.out_dir) / "model.ckpt"


def _model_section(cfg: RunConfig) -> dict:
    """The settings a checkpoint's values were trained under: train writes
    them into its sidecar, and eval and dump-embeddings load it only under
    equal ones."""
    d = {**config_to_dict(cfg), "labels": cfg.labels}
    return {k: d[k] for k in ("switches", "labels", "template", "rgb_encoder",
                              "event_encoder", "text", "fusion", "shallow_encoder_depth")}


def _write_text(path: Path, text: str) -> None:
    """Replace path's content with text as a whole: it goes to a temporary
    file beside path first, so a failed write leaves the old file as it was."""
    _write_replacing(_create(path), text.encode())


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _split_samples(cfg: RunConfig, split: str) -> list[Sample]:
    """The samples of one split, the train split standing in for an empty
    eval split; the clips of the other split are not made."""
    if split == "eval" and not cfg.data.eval_samples_per_class:
        split = "train"
    train_set, eval_set = make_datasets(cfg, split=split)
    return train_set if split == "train" else eval_set


def _train_and_eval(cfg: RunConfig, datasets: tuple[list[Sample], list[Sample]],
                    memo: EncodingMemo) -> tuple[Model, list[dict], dict]:
    """Train on cfg's (train, eval) datasets, then evaluate; frozen
    encodings come from the command's memo."""
    train_set, eval_set = datasets
    model = Model(cfg.model_config(), seed=cfg.seed)
    log = train(train_set, model, cfg.optim, memo=memo)
    metrics = evaluate(eval_set or train_set, model, memo=memo)
    return model, log, metrics


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth_data(args) -> int:
    cfg = _load(args)
    out = Path(cfg.out_dir)
    train_set, eval_set = make_datasets(cfg)
    data_files.write_dataset(train_set, cfg.labels, out,
                             event_format=args.event_format, split="train")
    if eval_set:
        data_files.write_dataset(eval_set, cfg.labels, out,
                                 event_format=args.event_format, split="eval")
    print(f"wrote {len(train_set)} train / {len(eval_set)} eval samples to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load(args)
    out = Path(cfg.out_dir)
    model, log, metrics = _train_and_eval(cfg, make_datasets(cfg), EncodingMemo())
    _write_text(out / "metrics.jsonl",
                "".join(json.dumps(record, sort_keys=True) + "\n" for record in log))
    model.store.save(_create(_checkpoint_path(args, cfg)), model=_model_section(cfg))
    _write_json(out / "config.json", config_to_dict(cfg))
    _write_json(out / "final_metrics.json",
                {k: metrics[k] for k in ("top1", "top5", "per_class_accuracy")})
    print(f"train_top1={log[-1]['train_top1']:.4f} eval_top1={metrics['top1']:.4f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load(args)
    out = Path(cfg.out_dir)
    model = Model(cfg.model_config(), seed=cfg.seed)
    model.store.load(_checkpoint_path(args, cfg), model=_model_section(cfg))
    metrics = evaluate(_split_samples(cfg, "eval"), model)
    _write_json(out / "eval_metrics.json",
                {k: metrics[k] for k in
                 ("top1", "top5", "per_class_accuracy", "confusion")})
    _write_json(out / "top5_scores.json", metrics["per_sample"])
    print(f"top1={metrics['top1']:.4f} top5={metrics['top5']:.4f}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _load(args)
    memo = EncodingMemo()
    seed_cfgs = []
    for r in range(args.seeds):
        seed_cfg = copy.deepcopy(cfg)
        seed_cfg.seed = cfg.seed + r
        seed_cfg.optim.seed = cfg.optim.seed + r
        seed_cfgs.append((seed_cfg, make_datasets(seed_cfg)))
    rows = []
    for pattern in ABLATION_PATTERNS:
        accs = []
        for seed_cfg, datasets in seed_cfgs:
            row_cfg = copy.deepcopy(seed_cfg)
            row_cfg.switches = AblationSwitches(**pattern)
            _, _, metrics = _train_and_eval(row_cfg, datasets, memo)
            accs.append(metrics["top1"])
        rows.append({
            "switches": pattern,
            "seeds": args.seeds,
            "top1": accs,
            "mean": float(np.mean(accs)),
            "sd": float(np.std(accs)),
        })
        tag = " ".join(f"{k}={'on' if v else 'off'}" for k, v in pattern.items())
        print(f"{tag}: top1 {rows[-1]['mean']:.4f} +/- {rows[-1]['sd']:.4f}")
    _write_json(Path(cfg.out_dir) / "ablation.json", rows)
    return EXIT_OK


def cmd_sweep_frames(args) -> int:
    cfg = _load(args)
    row_cfgs = [copy.deepcopy(cfg) for _ in args.frame_counts]
    for row_cfg, n in zip(row_cfgs, args.frame_counts):
        row_cfg.data.frames = n
        validate(row_cfg)  # every row before the first one trains
    memo = EncodingMemo()
    rows = []
    for row_cfg in row_cfgs:
        n = row_cfg.data.frames
        _, log, metrics = _train_and_eval(row_cfg, make_datasets(row_cfg), memo)
        tokens_per_frame = row_cfg.rgb_encoder.n_tokens
        rows.append({
            "frames": n,
            "tokens_per_frame": tokens_per_frame,
            "token_axis_len": n * tokens_per_frame,
            "train_top1": log[-1]["train_top1"],
            "eval_top1": metrics["top1"],
        })
        print(f"frames={n}: eval_top1={metrics['top1']:.4f} "
              f"token_axis_len={rows[-1]['token_axis_len']}")
    _write_json(Path(cfg.out_dir) / "sweep_frames.json", rows)
    return EXIT_OK


def cmd_sweep_prompts(args) -> int:
    cfg = _load(args)
    row_cfgs = [copy.deepcopy(cfg) for _ in args.templates]
    for row_cfg, tpl in zip(row_cfgs, args.templates):
        row_cfg.template = tpl
        validate(row_cfg)  # every row before the first one trains
    memo = EncodingMemo()
    datasets = make_datasets(cfg)  # the template does not enter the data
    rows = []
    for row_cfg in row_cfgs:
        tpl = row_cfg.template
        _, log, metrics = _train_and_eval(row_cfg, datasets, memo)
        rows.append({
            "template": tpl,
            "train_top1": log[-1]["train_top1"],
            "eval_top1": metrics["top1"],
        })
        print(f"template={tpl!r}: eval_top1={metrics['top1']:.4f}")
    _write_json(Path(cfg.out_dir) / "sweep_prompts.json", rows)
    return EXIT_OK


def cmd_grad_check(args) -> int:
    report = run_gradcheck(seed=_load(args).seed, inject_fault=args.inject_fault)
    for name, err in sorted(report["primitives"].items()):
        status = "PASS" if err < report["primitive_tolerance"] else "FAIL"
        print(f"{status} primitive {name}: max rel error {err:.3e}")
    e2e = report["end_to_end_error"]
    status = "PASS" if e2e < report["end_to_end_tolerance"] else "FAIL"
    print(f"{status} end_to_end ({len(report['checked_parameters'])} parameters): "
          f"max rel error {e2e:.3e}")
    if args.out:
        _write_json(Path(args.out) / "gradcheck.json", report)
    if not report["passed"]:
        print("offending groups: " + ", ".join(report["failures"]), file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


@ad.no_grad()
def cmd_dump_embeddings(args) -> int:
    cfg = _load(args)
    model = Model(cfg.model_config(), seed=cfg.seed)
    model.store.load(_checkpoint_path(args, cfg), model=_model_section(cfg))
    dataset = _split_samples(cfg, args.split)
    _, pooled = classify_rows(model, dataset)
    if not np.all(np.isfinite(pooled)):
        raise NumericError("dump-embeddings: non-finite pooled features")
    path = Path(cfg.out_dir) / f"embeddings_{args.split}.csv"
    rows = io.StringIO(newline="")
    writer = csv.writer(rows)
    writer.writerow(["sample_id", "label"] + [f"f{i}" for i in range(cfg.fusion.dim)])
    for sample, row in zip(dataset, pooled.tolist()):
        writer.writerow([sample.sample_id, sample.label] + row)
    _write_text(path, rows.getvalue())
    print(f"wrote {len(dataset)} rows to {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evfusion",
        description="Frame-event-text fusion classifier harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate the synthetic dataset on disk")
    _flags(p)
    p.add_argument("--event-format", choices=data_files.EVENT_FORMATS, default="csv")
    p.set_defaults(fn=cmd_synth_data)

    p = sub.add_parser("train", help="train a model and write metrics + checkpoint")
    _flags(p, "checkpoint", "template", "epochs")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint, write top-5 scores")
    _flags(p, "checkpoint", "template")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run the six component-switch patterns")
    _flags(p, "template", "epochs")
    p.add_argument("--seeds", type=_positive_int, default=1,
                   help="repetitions per pattern")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("sweep-frames", help="train/eval across frame counts")
    _flags(p, "template", "epochs")
    p.add_argument("--frame-counts", type=int, nargs="+",
                   default=SWEEP_FRAME_COUNTS)
    p.set_defaults(fn=cmd_sweep_frames)

    p = sub.add_parser("sweep-prompts", help="train/eval across prompt templates")
    _flags(p, "epochs")
    p.add_argument("--templates", nargs="+", default=SWEEP_TEMPLATES)
    p.set_defaults(fn=cmd_sweep_prompts)

    p = sub.add_parser("grad-check", help="finite-difference verification gate")
    _flags(p)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one backward rule (negative control)")
    p.set_defaults(fn=cmd_grad_check)

    p = sub.add_parser("dump-embeddings", help="export pooled features as CSV")
    _flags(p, "checkpoint", "template")
    p.add_argument("--split", choices=["train", "eval"], default="train")
    p.set_defaults(fn=cmd_dump_embeddings)
    for p in sub.choices.values():  # full names only: --template must not mean --templates
        p.allow_abbrev = False
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ParseError, ValidationError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
