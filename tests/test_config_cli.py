import dataclasses
import hashlib
import json
import os
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evfusion import autodiff as ad
from evfusion import cli, data_files, events
from evfusion.config import (ABLATION_PATTERNS, SWEEP_FRAME_COUNTS,
                             SWEEP_TEMPLATES, DataConfig, classes_from_labels,
                             config_to_dict, load_config, make_datasets, validate)
from evfusion.encoders import EncoderConfig
from evfusion.errors import ConfigError, ContractError, ParseError, ValidationError
from evfusion.events import MotionClass, SynthSpec, synth_dataset
from evfusion.fusion import AblationSwitches, FusionConfig, Model
from evfusion.params import ParamStore
from evfusion.text import TextConfig
from evfusion.trainer import TRAIN_DTYPE, OptimConfig, encode_blocks, head_rows


TINY = {
    "seed": 0,
    "data": {
        "classes": ["square moving right", "square moving left"],
        "samples_per_class": 2,
        "eval_samples_per_class": 1,
        "resolution": [16, 16],
        "frames": 2,
    },
    "rgb_encoder": {"image_size": 16, "patch_size": 8, "dim": 16, "heads": 2,
                    "depth": 1, "mlp_ratio": 2.0},
    "event_encoder": {"image_size": 16, "patch_size": 8, "dim": 16, "heads": 2,
                      "depth": 1, "mlp_ratio": 2.0},
    "text": {"dim": 16, "heads": 2, "max_len": 8},
    "fusion": {"dim": 16, "heads": 2, "mlp_ratio": 2.0},
    "optim": {"epochs": 2, "batch_size": 4},
}


def write_tiny(tmp_path, **extra):
    doc = json.loads(json.dumps(TINY))
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


# -- config loading ------------------------------------------------------------

def test_load_defaults_without_file():
    cfg = load_config(None)
    assert cfg.rgb_encoder.dim == cfg.fusion.dim == 64
    assert len(cfg.data.classes) == 4
    assert cfg.optim.epochs == 200


def test_load_file_and_dotted_overrides(tmp_path):
    path = write_tiny(tmp_path)
    cfg = load_config(path, {"optim.epochs": 7, "seed": 3})
    assert cfg.optim.epochs == 7
    assert cfg.seed == 3
    assert cfg.data.resolution == (16, 16)
    assert [c.label for c in cfg.data.classes] == ["square moving right",
                                                   "square moving left"]


def test_none_overrides_ignored(tmp_path):
    cfg = load_config(write_tiny(tmp_path), {"seed": None, "optim.epochs": None})
    assert cfg.seed == 0 and cfg.optim.epochs == 2


def test_string_class_needs_shape_and_direction(tmp_path):
    doc = json.loads(json.dumps(TINY))
    doc["data"]["classes"] = ["waving hello", "square moving left"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="classes"):
        load_config(path)


def test_labels_file(tmp_path):
    labels = tmp_path / "labels.txt"
    labels.write_text("clap\nwave\njump\n")
    doc = json.loads(json.dumps(TINY))
    doc["data"].pop("classes")
    doc["data"]["labels_file"] = str(labels)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.labels == ["clap", "wave", "jump"]
    # each label got a distinct motion program
    programs = {(c.shape, c.direction) for c in cfg.data.classes}
    assert len(programs) == 3


def test_classes_from_labels_cycles_programs():
    classes = classes_from_labels([f"l{i}" for i in range(14)])
    assert classes[0].shape == classes[12].shape
    assert classes[0].direction == classes[12].direction


def test_config_error_cases(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    # width mismatch across branches
    doc = json.loads(json.dumps(TINY))
    doc["text"]["dim"] = 32
    p = tmp_path / "w.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="width"):
        load_config(p)
    # bad template
    p2 = write_tiny(tmp_path, template="no placeholder")
    with pytest.raises(ConfigError, match="template"):
        load_config(p2)
    # unknown field
    doc = json.loads(json.dumps(TINY))
    doc["optim"]["bogus"] = 1
    p3 = tmp_path / "u.json"
    p3.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="optim"):
        load_config(p3)


@pytest.mark.parametrize("doc,field", [
    ({"data": {"resolution": 5}}, "data.resolution"),
    ({"optim": {"betas": 0.9}}, "optim.betas"),
    ({"seed": "x"}, "seed"),
    (["seed", 1], "expected a JSON object"),
    ({"data": {"frames": "3"}}, "data.frames"),
    ({"fusion": {"heads": 0}}, "fusion.heads"),
    ({"data": []}, "data"),
    ({"text": {"heads": 0}}, "text.heads"),
    ({"text": {"dim": 10}}, "text.dim"),
    # a simulation step frame_interval_us // oversample of 0 us
    ({"data": {"frame_interval_us": 3, "oversample": 4}},
     "data.frame_interval_us (3) must be >= data.oversample (4)"),
    ({"fusion": {"mlp_ratio": -1.0}}, "fusion: mlp_ratio -1.0 gives an MLP hidden width -64 < 1"),
    ({"rgb_encoder": {"mlp_ratio": -0.5}}, "rgb_encoder: mlp_ratio -0.5"),
    ({"fusion": {"mlp_ratio": 0.0}}, "fusion: mlp_ratio 0.0"),
    ({"text": {"mlp_ratio": 0.001}}, "text: mlp_ratio 0.001 gives an MLP hidden width 0 < 1"),
    ({"rgb_encoder": {"depth": -1}}, "rgb_encoder: depth must be >= 0, got -1"),
    ({"event_encoder": {"depth": -1}}, "event_encoder: depth must be >= 0, got -1"),
    ({"text": {"depth": -1}}, "text: depth must be >= 0, got -1"),
    ({"fusion": {"depth": -1}}, "fusion: depth must be >= 0, got -1"),
], ids=["resolution-int", "betas-float", "seed-str", "top-level-list", "frames-str",
        "heads-zero", "data-list", "text-heads-zero", "text-dim-indivisible",
        "frame-interval-below-oversample", "fusion-mlp-ratio-negative",
        "rgb-mlp-ratio-negative", "fusion-mlp-ratio-zero", "text-mlp-ratio-tiny",
        "rgb-depth-negative", "event-depth-negative", "text-depth-negative",
        "fusion-depth-negative"])
def test_wrongly_typed_config_value_is_a_config_error_naming_it(tmp_path, capsys, doc, field):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=re.escape(field)):
        load_config(path)
    assert cli.main(["train", "--config", str(path), "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err and err.count("\n") == 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=8)
_VALUE = st.one_of(_JSON, st.integers(-2, 40), st.sampled_from([0.0, 0.5, 2.0]),
                   st.lists(st.integers(-1, 40), max_size=3),
                   st.sampled_from(["square moving right", "disc moving up", "{}", "NONE",
                                    "a {} {x}", ""]),
                   st.lists(st.sampled_from(["square moving left", "bar moving down", 3,
                                             {"label": "x", "shape": "disc",
                                              "direction": "up"}]), max_size=3))
_SECTIONS = {
    "data": [f.name for f in dataclasses.fields(DataConfig)] + ["labels_file"],
    "rgb_encoder": [f.name for f in dataclasses.fields(EncoderConfig)],
    "event_encoder": [f.name for f in dataclasses.fields(EncoderConfig)],
    "text": [f.name for f in dataclasses.fields(TextConfig)],
    "fusion": [f.name for f in dataclasses.fields(FusionConfig)],
    "switches": [f.name for f in dataclasses.fields(AblationSwitches)],
    "optim": [f.name for f in dataclasses.fields(OptimConfig)],
}


@st.composite
def _config_ish(draw):
    """A document with real section and field names, holding mostly
    plausible and sometimes arbitrary JSON values."""
    doc = {}
    for key in draw(st.lists(st.sampled_from(sorted(_SECTIONS) + [
            "seed", "out_dir", "template", "shallow_encoder_depth"]), max_size=4)):
        names = _SECTIONS.get(key)
        doc[key] = draw(_VALUE if names is None else st.one_of(_JSON, st.dictionaries(
            st.sampled_from(names), _VALUE, max_size=3)))
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(_JSON, _config_ish()))
def test_load_config_fuzz_only_config_errors(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "c.json"
    path.write_text(json.dumps(doc))
    try:
        cfg = load_config(path)
    except ConfigError:
        return
    assert len(cfg.labels) >= 2 and cfg.fusion.dim % cfg.fusion.heads == 0


def test_sweep_constants():
    assert SWEEP_FRAME_COUNTS == [1, 3, 5, 7]
    assert len(SWEEP_TEMPLATES) == 5 and SWEEP_TEMPLATES[-1] == "NONE"
    assert len(ABLATION_PATTERNS) == 6
    assert ABLATION_PATTERNS[0] == {k: True for k in ("sci", "lvm", "mt", "sa", "ca")}
    for pattern in ABLATION_PATTERNS[1:]:
        assert sum(not v for v in pattern.values()) == 1


def test_make_datasets_split_sizes_and_disjoint(tmp_path):
    cfg = load_config(write_tiny(tmp_path))
    train, evald = make_datasets(cfg)
    assert len(train) == 4 and len(evald) == 2
    assert {s.sample_id for s in train}.isdisjoint({s.sample_id for s in evald})


def sample_bytes(samples):
    return [(s.sample_id, s.label, [f.tobytes() for f in s.clip.frames],
             s.clip.timestamps.tobytes(), s.events.resolution,
             [getattr(s.events, f).tobytes() for f in "xytp"]) for s in samples]


@pytest.mark.parametrize("split", ["train", "eval"])
def test_make_datasets_one_split_equals_that_split_of_the_full_call(tmp_path, monkeypatch,
                                                                      split):
    cfg = load_config(write_tiny(tmp_path))
    full = dict(zip(("train", "eval"), make_datasets(cfg)))
    dvs = count_calls(monkeypatch, events, "simulate_dvs")
    got = dict(zip(("train", "eval"), make_datasets(cfg, split=split)))
    assert sample_bytes(got[split]) == sample_bytes(full[split])
    assert got["eval" if split == "train" else "train"] == []
    assert len(dvs) == len(full[split])  # the other split's clips get no events
    with pytest.raises(ContractError, match="unknown split 'test'"):
        make_datasets(cfg, split="test")


def test_config_to_dict_json_serializable(tmp_path):
    cfg = load_config(write_tiny(tmp_path))
    doc = config_to_dict(cfg)
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text)["optim"]["epochs"] == 2


@pytest.mark.parametrize("pattern", ABLATION_PATTERNS,
                         ids=lambda p: "-".join(k for k, v in p.items() if not v) or "all-on")
def test_model_config_carries_the_run_switches(tmp_path, pattern):
    cfg = load_config(write_tiny(tmp_path, switches=pattern))
    mc = cfg.model_config()
    assert mc.switches == cfg.switches == AblationSwitches(**pattern)
    assert mc.switches is not cfg.switches  # the model keeps its own copy


def test_write_sample_rejects_an_unknown_event_format_before_writing(tmp_path):
    samples, _ = desk_samples()
    with pytest.raises(ContractError, match="event_format 'CSV'"):
        data_files.write_sample(samples[0], tmp_path / "s", event_format="CSV")
    assert not (tmp_path / "s").exists()


def test_write_dataset_rejects_an_unknown_event_format_before_creating_anything(tmp_path):
    samples, _ = desk_samples()
    with pytest.raises(ContractError, match="event_format 'CSV'"):
        data_files.write_dataset(samples, ["a", "b"], tmp_path / "d", event_format="CSV")
    assert not (tmp_path / "d").exists()


def test_lvm_off_uses_shallow_trainable_encoders(tmp_path):
    cfg = load_config(write_tiny(tmp_path, switches={"lvm": False},
                                 shallow_encoder_depth=0))
    mc = cfg.model_config()
    assert mc.rgb.depth == 0 and not mc.rgb.frozen
    cfg_on = load_config(write_tiny(tmp_path))
    assert cfg_on.model_config().rgb.frozen


# -- parameter store persistence ------------------------------------------------

def test_param_store_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.add("a.w", rng.normal(size=(3, 4)))
    store.add("a.b", rng.normal(size=(1, 4)))
    store.add("b.w", rng.normal(size=(2, 2)))
    store.freeze("a")
    path = tmp_path / "model.ckpt"
    store.save(path)

    other = ParamStore()
    other.add("a.w", np.zeros((3, 4)))
    other.add("a.b", np.zeros((1, 4)))
    other.add("b.w", np.zeros((2, 2)))
    other.freeze("b")
    other.load(path)
    for name in store.names():
        assert np.array_equal(other[name].data, store[name].data)
    # a checkpoint holds values only: the loading store keeps its own flags
    assert [other.is_frozen(n) for n in other.names()] == [False, False, True]


def test_param_store_ignores_a_frozen_prefixes_sidecar_key(tmp_path):
    store = ParamStore()
    store.add("a.w", np.ones((2, 3)))
    store.add("b.w", np.full((1, 2), 2.0))
    store.freeze("a")
    path = tmp_path / "m.ckpt"
    store.save(path)
    sidecar = path.with_suffix(".ckpt.json")
    doc = json.loads(sidecar.read_text())
    assert "frozen_prefixes" not in doc
    doc["frozen_prefixes"] = ["b"]  # what older checkpoints carry
    sidecar.write_text(json.dumps(doc))

    other = ParamStore()
    other.add("a.w", np.zeros((2, 3)))
    other.add("b.w", np.zeros((1, 2)))
    other.load(path)
    assert np.array_equal(other["a.w"].data, store["a.w"].data)
    assert np.array_equal(other["b.w"].data, store["b.w"].data)
    assert not other.is_frozen("a.w") and not other.is_frozen("b.w")


def test_param_store_load_shape_mismatch(tmp_path):
    store = ParamStore()
    store.add("x", np.zeros((2, 2)))
    store.save(tmp_path / "m.ckpt")
    other = ParamStore()
    other.add("x", np.zeros((3, 3)))
    with pytest.raises(Exception):
        other.load(tmp_path / "m.ckpt")


def two_param_checkpoint(tmp_path):
    store = ParamStore()
    store.add("a.w", np.ones((2, 3)))
    store.add("b.w", np.ones((1, 2)))
    store.save(tmp_path / "m.ckpt")
    return tmp_path / "m.ckpt"


def test_param_store_load_missing_name_changes_nothing(tmp_path):
    path = two_param_checkpoint(tmp_path)
    other = ParamStore()
    other.add("a.w", np.zeros((2, 3)))
    other.add("b.w", np.zeros((1, 2)))
    other.add("c.w", np.zeros((2, 2)))
    with pytest.raises(ValidationError, match=r"missing \['c.w'\], extra \[\]"):
        other.load(path)
    assert not np.any(other["a.w"].data)


def test_param_store_load_extra_name(tmp_path):
    path = two_param_checkpoint(tmp_path)
    other = ParamStore()
    other.add("a.w", np.zeros((2, 3)))
    with pytest.raises(ValidationError, match=r"missing \[\], extra \['b.w'\]"):
        other.load(path)
    assert other.names() == ["a.w"]


def test_param_store_load_value_count_mismatch(tmp_path):
    path = two_param_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:-8])
    other = ParamStore()
    other.add("a.w", np.zeros((2, 3)))
    other.add("b.w", np.zeros((1, 2)))
    with pytest.raises(ParseError, match="holds 7 values, not 8"):
        other.load(path)


def edit_sidecar(path, edit):
    sidecar = path.with_suffix(path.suffix + ".json")
    doc = json.loads(sidecar.read_text())
    edit(doc)
    sidecar.write_text(json.dumps(doc))


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def counting_store():
    store = ParamStore()
    store.add("a.w", np.arange(4.0).reshape(1, 4))
    store.add("b.w", np.arange(4.0, 6.0).reshape(1, 2))
    return store


@pytest.mark.parametrize("edit,match", [
    (lambda doc: doc.update(dtype=">f8"), "dtype '>f8'"),
    (lambda doc: doc.update(dtype="<f4"), "dtype '<f4'"),
    (lambda doc: doc.pop("dtype"), "malformed sidecar"),
    (lambda doc: doc["params"]["b.w"].update(offset=1.5), "JSON integers"),
    (lambda doc: doc["params"]["b.w"].update(offset="4"), "JSON integers"),
    (lambda doc: doc["params"]["a.w"].update(offset=False), "JSON integers"),
    (lambda doc: doc.update(n_values=6.0), "JSON integers"),
    (lambda doc: doc.update(n_values="6"), "JSON integers"),
    (lambda doc: doc["params"]["a.w"].update(shape=[1.0, 4]), "JSON integers"),
    (lambda doc: doc["params"]["a.w"].update(shape="14"), "JSON integers"),
    # the parameters' ranges must tile the values
    (lambda doc: doc["params"]["b.w"].update(offset=0), "'a.w' starts at value 0, not 2"),
    (lambda doc: doc["params"]["b.w"].update(offset=3), "'b.w' starts at value 3, not 4"),
    (lambda doc: doc["params"]["b.w"].update(offset=5), "'b.w' starts at value 5, not 4"),
    (lambda doc: doc["params"]["b.w"].update(offset=-2), "'b.w' starts at value -2, not 0"),
], ids=["big-endian", "float32", "no-dtype", "float-offset", "str-offset", "bool-offset",
        "float-n_values", "str-n_values", "float-shape", "str-shape",
        "same-offset", "overlap", "past-the-end", "negative-offset"])
def test_param_store_load_rejects_a_mistyped_sidecar(tmp_path, edit, match):
    path = tmp_path / "m.ckpt"
    counting_store().save(path)
    edit_sidecar(path, edit)
    other = counting_store()
    other["a.w"].data = np.zeros((1, 4))
    with pytest.raises(ParseError, match=match):
        other.load(path)
    assert not np.any(other["a.w"].data)


def test_param_store_load_rejects_values_no_parameter_reads(tmp_path):
    path = tmp_path / "m.ckpt"
    counting_store().save(path)
    path.write_bytes(path.read_bytes() + np.array([9.0], "<f8").tobytes())
    edit_sidecar(path, lambda doc: doc.update(n_values=7))
    other = counting_store()
    other["a.w"].data = np.zeros((1, 4))
    with pytest.raises(ParseError, match="no parameter reads values 6 to 7, after 'b.w'"):
        other.load(path)
    assert not np.any(other["a.w"].data)


def test_param_store_load_reads_ranges_laid_out_in_any_order(tmp_path):
    path = tmp_path / "m.ckpt"
    counting_store().save(path)
    path.write_bytes(np.array([4.0, 5.0, 0.0, 1.0, 2.0, 3.0], "<f8").tobytes())  # b.w first
    edit_sidecar(path, lambda doc: (doc["params"]["a.w"].update(offset=2),
                                    doc["params"]["b.w"].update(offset=0),
                                    doc.update(values_sha256=sha256_of(path))))
    other = counting_store()
    other["a.w"].data = np.zeros((1, 4))
    other.load(path)
    assert other["a.w"].data.tobytes() == np.arange(4.0).reshape(1, 4).tobytes()
    assert other["b.w"].data.tobytes() == np.array([[4.0, 5.0]]).tobytes()


def test_param_store_checks_a_sidecar_model_section_only_when_both_sides_have_one(tmp_path):
    path = tmp_path / "m.ckpt"
    trained = {"switches": {"sci": True, "ca": False}, "labels": ["a", "b"]}
    counting_store().save(path, model=trained)
    assert json.loads(path.with_suffix(".ckpt.json").read_text())["model"] == trained
    other = counting_store()
    other["a.w"].data = np.zeros((1, 4))
    with pytest.raises(ValidationError, match=r"different switches\.ca: False in the "
                                              r"checkpoint, True in the config"):
        other.load(path, model={"switches": {"sci": True, "ca": True}, "labels": ["a", "b"]})
    with pytest.raises(ValidationError, match=r"different labels: \['a', 'b'\] in the "
                                              r"checkpoint, \['b', 'a'\]"):
        other.load(path, model={"switches": trained["switches"], "labels": ["b", "a"]})
    with pytest.raises(ValidationError, match=r"different template: None in the checkpoint"):
        other.load(path, model={**trained, "template": "A {}"})
    assert not np.any(other["a.w"].data)
    other.load(path)  # no model asked for: the section is not read
    assert np.array_equal(other["a.w"].data, counting_store()["a.w"].data)
    counting_store().save(path)  # no section, as older checkpoints: loads under any model
    assert "model" not in json.loads(path.with_suffix(".ckpt.json").read_text())
    counting_store().load(path, model=trained)


def test_param_store_save_records_the_values_sha256_and_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "m.ckpt"
    counting_store().save(path)
    assert json.loads(path.with_suffix(".ckpt.json").read_text())["values_sha256"] == (
        sha256_of(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m.ckpt.json"]


def test_param_store_load_rejects_values_its_sidecar_does_not_record(tmp_path):
    path = tmp_path / "m.ckpt"
    counting_store().save(path)
    recorded = sha256_of(path)
    path.write_bytes(np.arange(6.0)[::-1].tobytes())  # as many values, other ones
    other = counting_store()
    other["a.w"].data = np.zeros((1, 4))
    with pytest.raises(ValidationError, match=f"sha256 is {sha256_of(path)}, its sidecar "
                                              f"records '{recorded}'"):
        other.load(path)
    assert not np.any(other["a.w"].data)
    edit_sidecar(path, lambda doc: doc.pop("values_sha256"))  # an older sidecar
    other.load(path)
    assert other["a.w"].data.tobytes() == np.array([[5.0, 4.0, 3.0, 2.0]]).tobytes()


def test_param_store_save_that_dies_between_its_two_files_leaves_a_pair_that_fails(
        tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    counting_store().save(path)
    newer = counting_store()
    newer.set("a.w", -newer["a.w"].data)
    real = os.replace

    def no_sidecar(src, dst):
        if str(dst).endswith(".json"):
            raise OSError("no space left on device")
        real(src, dst)

    monkeypatch.setattr(os, "replace", no_sidecar)
    with pytest.raises(OSError):
        newer.save(path)
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m.ckpt.json"]
    with pytest.raises(ValidationError, match="the two files are not one checkpoint"):
        counting_store().load(path)


def test_cli_eval_of_a_float32_sidecar_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "run"
    path = write_tiny(tmp_path, out_dir=str(out))
    cfg = load_config(path)
    out.mkdir()
    Model(cfg.model_config(), seed=cfg.seed).store.save(out / "model.ckpt")
    edit_sidecar(out / "model.ckpt", lambda doc: doc.update(dtype="<f4"))
    assert run_cli(["eval", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and "dtype '<f4'" in err


@st.composite
def _sidecar_ish(draw):
    """The sidecar of counting_store with some fields replaced by other JSON."""
    doc = {"dtype": "<f8", "n_values": 6,
           "params": {"a.w": {"shape": [1, 4], "offset": 0},
                      "b.w": {"shape": [1, 2], "offset": 4}}}
    fields = [(doc, "dtype"), (doc, "n_values"), (doc, "params"),
              *((doc["params"][n], f) for n in ("a.w", "b.w") for f in ("shape", "offset"))]
    for owner, key in draw(st.lists(st.sampled_from(fields), max_size=3)):
        owner[key] = draw(st.one_of(_JSON, st.integers(-2, 8), st.sampled_from(
            ["<f8", ">f8", "<f4", 1.5, True, [1, 4], [2, 2], [1.0, 2]])))
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(_JSON, _sidecar_ish()))
def test_param_store_load_fuzz_only_typed_errors(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
    counting_store().save(path)
    path.with_suffix(".ckpt.json").write_text(json.dumps(doc))
    store = counting_store()
    try:
        store.load(path)
    except (ParseError, ValidationError):
        return
    assert doc["dtype"] == "<f8" and type(doc["n_values"]) is int
    for name, meta in doc["params"].items():  # each parameter read from its own offset
        assert type(meta["offset"]) is int
        assert store[name].data.tobytes() == np.arange(
            meta["offset"], meta["offset"] + store[name].data.size, dtype=float).tobytes()


# -- dataset files ---------------------------------------------------------------

def desk_samples(n_frames=2):
    classes = [MotionClass("square moving right", "square", "right"),
               MotionClass("disc moving up", "disc", "up")]
    spec = SynthSpec(classes=classes, samples_per_class=2,
                     resolution=(16, 16), n_frames=n_frames)
    return synth_dataset(spec, seed=0), [c.label for c in classes]


def test_ppm_roundtrip(tmp_path):
    frame = np.random.default_rng(1).uniform(size=(8, 10, 3))
    path = tmp_path / "f.ppm"
    data_files.write_ppm(frame, path)
    back = data_files.read_ppm(path)
    assert back.shape == frame.shape
    # 8-bit quantization bound
    assert np.max(np.abs(back - frame)) <= 1.0 / 255.0 + 1e-12


PIXELS = bytes([0, 128, 255, 10, 32, 35])  # holds the bytes of "\n", " " and "#"


@pytest.mark.parametrize("header", [
    b"P6\n# written by hand\n2 1\n255\n",
    b"P6 2 1 255 ",
    b"P6\t2\r\n1 # height\n# maxval next\n255\n",
])
def test_read_ppm_accepts_comments_and_any_whitespace(tmp_path, header):
    path = tmp_path / "f.ppm"
    path.write_bytes(header + PIXELS)
    back = data_files.read_ppm(path)
    assert back.shape == (1, 2, 3)
    assert np.array_equal(np.round(back * 255).reshape(-1), list(PIXELS))


@pytest.mark.parametrize("content", [
    b"",
    b"P6\n2 1\n",
    b"P6\n# comment without end",
    b"P3\n2 1\n255\n" + PIXELS,
    b"P6\n2 x\n255\n" + PIXELS,
    b"P6\n-2 1\n255\n" + PIXELS,
    b"P6\n2 1\n255" + PIXELS,
    b"P6\n2 1\n65535\n" + PIXELS,
    b"P6\n0 1\n255\n",
    b"P6\n2 1\n255\n" + PIXELS[:5],
])
def test_read_ppm_malformed_raises_parse_error(tmp_path, content):
    path = tmp_path / "bad.ppm"
    path.write_bytes(content)
    with pytest.raises(ParseError):
        data_files.read_ppm(path)


_PPM_WHITESPACE = [b" ", b"\n", b"\t", b"\r", b"\x0b", b"\x0c", b"# c\n", b"#\n"]


@st.composite
def _ppm_ish(draw):
    """P6 headers, half of them well formed and the rest with stray bytes,
    bad magic or bad fields, then random pixel bytes."""
    well_formed = draw(st.booleans())
    gap_parts = _PPM_WHITESPACE if well_formed else _PPM_WHITESPACE + [b"#", b"x", b""]
    gap = st.lists(st.sampled_from(gap_parts), min_size=1, max_size=3).map(b"".join)
    size = st.integers(0, 4).map(lambda n: str(n).encode())
    odd = st.sampled_from([b"0255", b"-1", b"65535", b"99999999999", b"2x", b""])
    fields = [size, size, st.just(b"255")]
    if not well_formed:
        fields = [st.one_of(f, odd) for f in fields]
    parts = [b"P6" if well_formed else draw(st.sampled_from([b"P6", b"P3", b"p6"]))]
    for field in fields:
        parts += [draw(gap), draw(field)]
    end = st.sampled_from([b" ", b"\n"]) if well_formed else gap
    return b"".join(parts) + draw(end) + draw(st.binary(max_size=60))


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.binary(max_size=60), _ppm_ish()))
def test_read_ppm_fuzz_only_typed_errors(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "f.ppm"
    path.write_bytes(raw)
    try:
        frame = data_files.read_ppm(path)
    except (ParseError, ValidationError):
        return
    assert frame.ndim == 3 and frame.shape[2] == 3 and frame.size > 0
    assert frame.min() >= 0.0 and frame.max() <= 1.0


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_dataset_roundtrip(tmp_path, fmt):
    samples, labels = desk_samples()
    data_files.write_dataset(samples, labels, tmp_path, event_format=fmt)
    back = data_files.read_dataset(tmp_path, split="train")
    assert len(back) == len(samples)
    for a, b in zip(samples, back):
        assert a.label == b.label and a.sample_id == b.sample_id
        assert np.array_equal(a.events.t, b.events.t)
        assert np.array_equal(a.events.p, b.events.p)
        for fa, fb in zip(a.clip.frames, b.clip.frames):
            assert np.max(np.abs(fa - fb)) <= 1.0 / 255.0 + 1e-12


@pytest.mark.parametrize("edit,error,match", [
    (None, ParseError, "invalid JSON"),
    (lambda doc: doc.pop("n_frames"), ParseError, "mistyped fields \\['n_frames'\\]"),
    (lambda doc: doc.pop("event_format"), ParseError, "mistyped fields \\['event_format'\\]"),
    (lambda doc: doc.update(timestamps=5), ParseError, "mistyped fields \\['timestamps'\\]"),
    (lambda doc: doc.update(n_frames="2"), ParseError, "mistyped fields \\['n_frames'\\]"),
    (lambda doc: doc.update(n_events=999999), ValidationError, "the manifest says 999999"),
    (lambda doc: doc.update(timestamps=doc["timestamps"][:1]), ValidationError,
     "1 timestamps for 2 frames"),
    (lambda doc: doc.update(timestamps=[5, 5, 5], n_frames=3), ValidationError,
     "not strictly increasing"),
    (lambda doc: doc.update(timestamps=["x", 1, 2], n_frames=3), ParseError, "must hold integers"),
    (lambda doc: doc.update(timestamps=[0.5, 1, 2], n_frames=3), ParseError,
     "must hold integers"),
    (lambda doc: doc.update(resolution=[16]), ValidationError, "not two positive integers"),
    (lambda doc: doc.update(resolution=["a", 16]), ParseError, "must hold integers"),
    (lambda doc: doc.update(event_format="aedat"), ParseError, "event_format 'aedat'"),
    (lambda doc: doc.update(label=True), ParseError, "mistyped fields \\['label'\\]"),
    (lambda doc: doc.update(n_frames=True, timestamps=[0]), ParseError,
     "mistyped fields \\['n_frames'\\]"),
    (lambda doc: doc.update(label=-1), ValidationError, "label -1 is negative"),
    (lambda doc: doc.update(timestamps=[0, 1, 2], n_frames=3), ValidationError,
     "missing files \\['frame_002.ppm'\\]"),
    (lambda doc: doc.update(event_format="binary"), ValidationError,
     "missing files \\['events.bin'\\]"),
], ids=["truncated", "no-n_frames", "no-event_format", "int-timestamps", "str-n_frames",
        "n_events", "timestamps", "repeated-timestamps", "str-timestamp", "float-timestamp",
        "one-resolution", "str-resolution", "unknown-event_format", "bool-label",
        "bool-n_frames", "negative-label", "missing-frame", "missing-events"])
def test_read_sample_rejects_a_bad_manifest(tmp_path, edit, error, match):
    samples, _ = desk_samples()
    data_files.write_sample(samples[0], tmp_path)
    path = tmp_path / "manifest.json"
    text = path.read_text()
    if edit is None:
        path.write_text(text[:len(text) // 2])
    else:
        doc = json.loads(text)
        edit(doc)
        path.write_text(json.dumps(doc))
    with pytest.raises(error, match=match):
        data_files.read_sample(tmp_path)


def test_read_sample_rejects_a_binary_header_resolution_the_manifest_does_not_give(tmp_path):
    samples, _ = desk_samples()
    data_files.write_sample(samples[0], tmp_path, event_format="binary")
    path = tmp_path / "events.bin"
    events.write_events_binary(dataclasses.replace(samples[0].events, resolution=(64, 48)), path)
    assert events.parse_events_binary(path).resolution == (64, 48)
    with pytest.raises(ValidationError,
                       match=r"header resolution \(64, 48\), the manifest says \(16, 16\)"):
        data_files.read_sample(tmp_path)


@pytest.mark.parametrize("content", ["{\"samples\": [", "{\"split\": \"train\"}", "[]"],
                         ids=["truncated", "no-samples", "not-an-object"])
def test_read_dataset_rejects_a_bad_manifest(tmp_path, content):
    samples, labels = desk_samples()
    data_files.write_dataset(samples, labels, tmp_path)
    (tmp_path / "dataset_train.json").write_text(content)
    with pytest.raises(ParseError):
        data_files.read_dataset(tmp_path)


@pytest.mark.parametrize("names,error,match", [
    ([5], ParseError, "sample names \\[5\\] are not directory names"),
    (["train_c00_s000", None], ParseError, "sample names \\[None\\]"),
    (["../train_c00_s000"], ParseError, "not directory names"),
    ([".."], ParseError, "not directory names"),
    (["train_c00_s000\x00"], ParseError, "not directory names"),
    (["train_c00_s000", "train_c09_s000"], ValidationError,
     "no sample directory for \\['train_c09_s000'\\]"),
], ids=["int", "null", "parent-path", "parent", "nul", "absent"])
def test_read_dataset_rejects_bad_sample_names(tmp_path, names, error, match):
    samples, labels = desk_samples()
    data_files.write_dataset(samples, labels, tmp_path / "d")
    (tmp_path / "d" / "dataset_train.json").write_text(json.dumps({"samples": names}))
    with pytest.raises(error, match=match):
        data_files.read_dataset(tmp_path / "d")


_MANIFEST_VALUES = st.one_of(
    _JSON, st.integers(-2, 4), st.sampled_from(["csv", "binary", "x", True, 1.5]),
    st.lists(st.integers(-1, 20), max_size=4), st.sampled_from([[16, 16], [0, 16], [1]]))


@st.composite
def _manifest_ish(draw, fields):
    """A written manifest with some of its fields replaced by other JSON."""
    doc = dict(fields)
    for key in draw(st.lists(st.sampled_from(sorted(fields)), max_size=3)):
        doc[key] = draw(_MANIFEST_VALUES)
    return doc


@pytest.fixture(scope="module")
def written_dataset(tmp_path_factory):
    samples, labels = desk_samples()
    root = tmp_path_factory.mktemp("dataset")
    data_files.write_dataset(samples, labels, root)
    return root


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_read_sample_fuzz_only_typed_errors(tmp_path_factory, written_dataset, data):
    sample_dir = tmp_path_factory.mktemp("fuzz") / "s"
    shutil.copytree(written_dataset / "train_c00_s000", sample_dir)
    fields = json.loads((sample_dir / "manifest.json").read_text())
    doc = data.draw(st.one_of(_JSON, _manifest_ish(fields)))
    (sample_dir / "manifest.json").write_text(json.dumps(doc))
    try:
        sample = data_files.read_sample(sample_dir)
    except (ParseError, ValidationError):
        return
    assert all(type(doc[f]) is int for f in ("label", "n_frames", "n_events"))
    assert len(sample.clip) == doc["n_frames"] and len(sample.events) == doc["n_events"]
    assert sample.label == doc["label"] >= 0


@settings(max_examples=200, deadline=None)
@given(doc=st.one_of(_JSON, _manifest_ish({"samples": ["train_c00_s000", "train_c00_s001"]}),
                     st.fixed_dictionaries({"samples": st.lists(st.one_of(_JSON, st.sampled_from(
                         ["train_c00_s000", "train_c01_s001", "..", "/tmp", ""])), max_size=3)})))
def test_read_dataset_fuzz_only_typed_errors(written_dataset, doc):
    (written_dataset / "dataset_fuzz.json").write_text(json.dumps(doc))
    try:
        samples = data_files.read_dataset(written_dataset, split="fuzz")
    except (ParseError, ValidationError):
        return
    assert [s.sample_id for s in samples] == [n.removeprefix("train_") for n in doc["samples"]]


# -- CLI ---------------------------------------------------------------------------

def run_cli(argv):
    return cli.main(argv)


def test_cli_punctuation_only_label_is_a_config_error(tmp_path, monkeypatch, capsys):
    labels = tmp_path / "labels.txt"
    labels.write_text("run\n!!!\n")
    doc = json.loads(json.dumps(TINY))
    doc["data"].pop("classes")
    doc["data"]["labels_file"] = str(labels)
    path = write_tiny(tmp_path, data=doc["data"], template="NONE",
                      out_dir=str(tmp_path / "out"))
    monkeypatch.setattr(cli, "make_datasets", lambda cfg: pytest.fail("data synthesised"))
    assert run_cli(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: label '!!!' renders to no tokens under template 'NONE'\n"


def test_cli_config_error_exit_code(tmp_path):
    assert run_cli(["train", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_grad_check_of_a_negative_seed_is_a_config_error(capsys):
    assert run_cli(["grad-check", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("section", ["rgb_encoder", "event_encoder", "text", "fusion"])
def test_cli_removed_activation_key_is_config_error(tmp_path, capsys, section):
    path = write_tiny(tmp_path, **{section: {**TINY[section], "activation": "gelu"}})
    assert run_cli(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}: ") and "activation" in err


@pytest.mark.parametrize("section", ["rgb_encoder", "event_encoder", "text", "fusion"])
def test_cli_overflowing_mlp_width_is_a_config_error(tmp_path, capsys, section):
    path = write_tiny(tmp_path, **{section: {**TINY[section], "mlp_ratio": 1e308}})
    assert run_cli(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {section}: mlp_ratio 1e+308 gives a non-finite MLP hidden width\n")


@pytest.mark.parametrize("command", ["synth-data", "train"])
def test_cli_dvs_threshold_past_int64_counts_is_a_numeric_failure(tmp_path, capsys, command):
    path = write_tiny(tmp_path, data={**TINY["data"], "dvs_threshold": 1e-300},
                      out_dir=str(tmp_path / "out"))
    assert run_cli([command, "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: DVS threshold 1e-300 gives a per-pixel event count")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()  # a failed command makes no output directory


@pytest.mark.parametrize("command", ["eval", "dump-embeddings"])
def test_cli_eval_missing_checkpoint_is_io_error(tmp_path, monkeypatch, capsys, command):
    path = write_tiny(tmp_path, out_dir=str(tmp_path / "out"))
    monkeypatch.setattr(cli, "make_datasets", lambda cfg: pytest.fail("data synthesised"))
    assert run_cli([command, "--config", str(path)]) == 3
    assert "model.ckpt" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # reading the checkpoint path makes no directory


def test_cli_synth_data(tmp_path, capsys):
    path = write_tiny(tmp_path, out_dir=str(tmp_path / "out"))
    assert run_cli(["synth-data", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "dataset_train.json").exists()
    assert (tmp_path / "out" / "dataset_eval.json").exists()
    assert "wrote" in capsys.readouterr().out


def test_cli_train_then_eval(tmp_path, capsys):
    out = tmp_path / "run"
    path = write_tiny(tmp_path, out_dir=str(out))
    assert run_cli(["train", "--config", str(path)]) == 0
    for fname in ("metrics.jsonl", "model.ckpt", "config.json",
                  "final_metrics.json"):
        assert (out / fname).exists(), fname
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2  # one record per epoch
    record = json.loads(lines[0])
    assert {"epoch", "lr", "train_loss", "train_top1"} <= set(record)

    assert run_cli(["eval", "--config", str(path)]) == 0
    assert (out / "eval_metrics.json").exists()
    scores = json.loads((out / "top5_scores.json").read_text())
    assert all("top5" in rec and "scores" in rec for rec in scores)
    assert "top1=" in capsys.readouterr().out


def test_cli_grad_check_pass_and_fault(tmp_path, capsys):
    assert run_cli(["grad-check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    gc = tmp_path / "gc"
    assert run_cli(["grad-check", "--seed", "0", "--inject-fault", "--out", str(gc)]) == 1
    assert "FAIL" in capsys.readouterr().out
    report = json.loads((gc / "gradcheck.json").read_text())
    assert not report["passed"] and {"linear", "linear_3d"} <= set(report["failures"])


def test_cli_dump_embeddings(tmp_path):
    out = tmp_path / "run"
    path = write_tiny(tmp_path, out_dir=str(out))
    assert run_cli(["train", "--config", str(path)]) == 0
    assert run_cli(["dump-embeddings", "--config", str(path)]) == 0
    rows = (out / "embeddings_train.csv").read_text().splitlines()
    assert rows[0].startswith("sample_id,label,f0")
    assert len(rows) == 1 + 4  # header + train samples
    cfg = load_config(path)
    model = Model(cfg.model_config(), seed=cfg.seed)
    model.store.load(out / "model.ckpt")
    train_set, _ = make_datasets(cfg)
    with ad.no_grad(), model.store.cast(TRAIN_DTYPE):  # the export computes as a step does
        _, pooled = head_rows(model, encode_blocks(model, train_set), model.text_tokens())
    assert pooled.data.dtype == TRAIN_DTYPE
    want_rows = pooled.data.astype(np.float64).tolist()
    for row, sample, want in zip(rows[1:], train_set, want_rows):
        sample_id, label, *features = row.split(",")
        assert (sample_id, int(label)) == (sample.sample_id, sample.label)
        assert [float(f) for f in features] == want


def with_first_entry(a, value):
    """A copy of a whose [0, 0] entry is value."""
    edited = a.copy()
    edited[0, 0] = value
    return edited


def save_tiny_checkpoint(path, out, name, value):
    """A checkpoint of the tiny model with one entry of name set to value."""
    cfg = load_config(path)
    model = Model(cfg.model_config(), seed=cfg.seed)
    model.store[name].data = with_first_entry(model.store[name].data, value)
    out.mkdir()
    model.store.save(out / "model.ckpt")


@pytest.mark.parametrize("value,message", [
    (np.nan, "dump-embeddings: non-finite pooled features"),
    (1e39, "fusion.final.attn.wv.w: a finite value overflows float32"),
], ids=["nan", "above-float32-max"])
def test_cli_dump_embeddings_of_non_finite_features_is_a_numeric_failure(tmp_path, capsys,
                                                                          value, message):
    # the attention logits stay finite (wv does not enter them), the pooled rows do not;
    # 1e39 is finite in the float64 checkpoint and fails the cast to float32
    out = tmp_path / "run"
    path = write_tiny(tmp_path, out_dir=str(out))
    save_tiny_checkpoint(path, out, "fusion.final.attn.wv.w", value)
    assert run_cli(["dump-embeddings", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err == f"numeric failure: {message}\n"
    assert not (out / "embeddings_train.csv").exists()


def test_cli_eval_of_a_weight_above_float32_max_is_a_numeric_failure(tmp_path, capsys):
    out = tmp_path / "run"
    path = write_tiny(tmp_path, out_dir=str(out))
    save_tiny_checkpoint(path, out, "fusion.final.attn.wv.w", 1e39)
    assert run_cli(["eval", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err == "numeric failure: fusion.final.attn.wv.w: a finite value overflows float32\n"
    assert not (out / "eval_metrics.json").exists()


@pytest.mark.parametrize("command", ["eval", "dump-embeddings"])
@pytest.mark.parametrize("edit,field", [
    (lambda doc: doc.pop("switches"), "switches.ca: False in the checkpoint, True"),
    (lambda doc: doc["data"]["classes"].reverse(), "labels: ['square moving right', "
                                                   "'square moving left'] in the checkpoint"),
    (lambda doc: doc.update(template="A {}"), "template: 'The action of the human is {}' "
                                              "in the checkpoint, 'A {}'"),
], ids=["switches-all-on", "labels-reordered", "template"])
def test_cli_loads_a_checkpoint_only_under_the_settings_it_was_trained_with(
        tmp_path, monkeypatch, capsys, command, edit, field):
    out = tmp_path / "run"
    trained = write_tiny(tmp_path, out_dir=str(out), switches={"ca": False})
    assert run_cli(["train", "--config", str(trained), "--epochs", "1"]) == 0
    assert json.loads((out / "model.ckpt.json").read_text())["model"] == {
        "switches": {"sci": True, "lvm": True, "mt": True, "sa": True, "ca": False},
        "labels": TINY["data"]["classes"], "template": "The action of the human is {}",
        "rgb_encoder": {**TINY["rgb_encoder"], "frozen": True},
        "event_encoder": {**TINY["event_encoder"], "frozen": True},
        "text": {**TINY["text"], "depth": 1, "mlp_ratio": 4.0, "frozen": False},
        "fusion": {**TINY["fusion"], "depth": 1}, "shallow_encoder_depth": 1}
    assert run_cli([command, "--config", str(trained)]) == 0
    doc = json.loads(trained.read_text())
    edit(doc)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    capsys.readouterr()
    monkeypatch.setattr(cli, "make_datasets", lambda *a, **k: pytest.fail("data synthesised"))
    assert run_cli([command, "--config", str(other)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("io error: checkpoint ") and f"different {field}" in err


def test_cli_loads_a_checkpoint_only_under_the_fusion_heads_it_was_trained_with(
        tmp_path, capsys):
    # the head count changes no parameter shape, so only the model section tells
    out = tmp_path / "run"
    trained = write_tiny(tmp_path, out_dir=str(out))
    assert run_cli(["train", "--config", str(trained), "--epochs", "1"]) == 0
    (tmp_path / "other").mkdir()
    other = write_tiny(tmp_path / "other", out_dir=str(out),
                       fusion={**TINY["fusion"], "heads": 4})
    for command in ("eval", "dump-embeddings"):
        capsys.readouterr()
        assert run_cli([command, "--config", str(other)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("io error: checkpoint ") and "Traceback" not in err
        assert "different fusion.heads: 2 in the checkpoint, 4 in the config" in err


UNREAD_FLAGS = [
    ("synth-data", "--template"), ("synth-data", "--epochs"), ("synth-data", "--checkpoint"),
    ("eval", "--epochs"), ("ablate", "--checkpoint"), ("sweep-frames", "--checkpoint"),
    ("sweep-prompts", "--template"), ("sweep-prompts", "--checkpoint"),
    ("grad-check", "--template"), ("grad-check", "--epochs"), ("grad-check", "--checkpoint"),
    ("dump-embeddings", "--epochs"),
]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_cli_rejects_flags_the_subcommand_does_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ParseError, ValidationError])
def test_cli_maps_parse_and_validation_errors_to_io_exit(tmp_path, capsys,
                                                        monkeypatch, error):
    def fail(cfg):
        raise error("bad input file")

    monkeypatch.setattr(cli, "make_datasets", fail)
    path = write_tiny(tmp_path, out_dir=str(tmp_path / "out"))
    assert run_cli(["train", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["io error: bad input file"]


def test_cli_eval_of_a_mis_paired_checkpoint_is_an_io_error(tmp_path, monkeypatch, capsys):
    # the values of a ca-off model beside the sidecar of a ca-on one of the same layout
    configs = {}
    for name, switches in (("off", {"ca": False}), ("on", {})):
        (tmp_path / name).mkdir()
        configs[name] = write_tiny(tmp_path / name, out_dir=str(tmp_path / name / "run"),
                                   switches=switches)
        assert run_cli(["train", "--config", str(configs[name]), "--epochs", "1"]) == 0
    ckpt = tmp_path / "on" / "run" / "model.ckpt"
    recorded = json.loads(ckpt.with_suffix(".ckpt.json").read_text())["values_sha256"]
    values = (tmp_path / "off" / "run" / "model.ckpt").read_bytes()
    assert values != ckpt.read_bytes()
    ckpt.write_bytes(values)
    capsys.readouterr()
    monkeypatch.setattr(cli, "make_datasets", lambda *a, **k: pytest.fail("data synthesised"))
    assert run_cli(["eval", "--config", str(configs["on"])]) == 3
    assert capsys.readouterr().err == (
        f"io error: checkpoint {ckpt}: the values file's sha256 is "
        f"{hashlib.sha256(values).hexdigest()}, its sidecar records '{recorded}': "
        "the two files are not one checkpoint\n")
    assert not (tmp_path / "on" / "run" / "eval_metrics.json").exists()


def test_cli_eval_wrong_shape_checkpoint_is_io_error(tmp_path, capsys):
    wide = load_config(write_tiny(tmp_path, fusion={"dim": 16, "heads": 2, "mlp_ratio": 4.0}))
    ckpt = tmp_path / "wide.ckpt"
    Model(wide.model_config(), seed=0).store.save(ckpt)
    path = write_tiny(tmp_path, out_dir=str(tmp_path / "out"))
    assert run_cli(["eval", "--config", str(path), "--checkpoint", str(ckpt)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and "'fusion.mt_vt.block0.mlp1.w'" in err


# -- one memo and one synthesis per command ---------------------------------------

def count_calls(monkeypatch, owner, name) -> list:
    calls, real = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_encoded_samples(monkeypatch) -> list:
    """Record the ids of the samples Model.encode_sample encodes."""
    ids, real = [], Model.encode_sample

    def counting(self, samples):
        ids.extend(s.sample_id for s in samples)
        return real(self, samples)

    monkeypatch.setattr(Model, "encode_sample", counting)
    return ids


@pytest.mark.parametrize("seeds", [1, 2])
def test_cli_ablate_encodes_each_clip_once_per_frozen_encoder(tmp_path, monkeypatch, seeds):
    path = write_tiny(tmp_path, out_dir=str(tmp_path / "out"))
    synths = count_calls(monkeypatch, cli, "make_datasets")
    encodes = count_encoded_samples(monkeypatch)
    assert run_cli(["ablate", "--config", str(path), "--seeds", str(seeds)]) == 0
    assert len(synths) == seeds
    n_train, n_eval, epochs = 4, 2, TINY["optim"]["epochs"]
    lvm_on_rows = n_train + n_eval  # five rows share one set of frozen encoders
    lvm_off_row = epochs * n_train + n_eval  # trainable encoders: encoded every step
    assert len(encodes) == seeds * (lvm_on_rows + lvm_off_row)


def test_cli_sweep_prompts_synthesises_and_encodes_once(tmp_path, monkeypatch):
    path = write_tiny(tmp_path, out_dir=str(tmp_path / "out"))
    synths = count_calls(monkeypatch, cli, "make_datasets")
    encodes = count_encoded_samples(monkeypatch)
    assert run_cli(["sweep-prompts", "--config", str(path)]) == 0
    assert len(synths) == 1 and len(encodes) == 4 + 2


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_cli_ablate_rejects_seeds_below_one(tmp_path, monkeypatch, capsys, seeds):
    path = write_tiny(tmp_path, out_dir=str(tmp_path / "out"))
    monkeypatch.setattr(cli, "make_datasets", lambda cfg: pytest.fail("data synthesised"))
    with pytest.raises(SystemExit) as exc:
        run_cli(["ablate", "--config", str(path), "--seeds", seeds])
    assert exc.value.code == 2
    assert "--seeds: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,extra", [
    (["train", "--epochs", "0"], {}),
    (["train"], {"optim": {"epochs": 0, "batch_size": 4}}),
    (["sweep-frames", "--epochs", "-2"], {}),
])
def test_cli_epochs_below_one_is_config_error(tmp_path, monkeypatch, capsys, argv, extra):
    path = write_tiny(tmp_path, out_dir=str(tmp_path / "out"), **extra)
    monkeypatch.setattr(cli, "make_datasets", lambda cfg: pytest.fail("data synthesised"))
    assert run_cli(argv + ["--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: optim: epochs must be >= 1\n"


@pytest.mark.parametrize("optim,match", [
    ({"betas": [1.0, 0.999]}, "betas must be two values in [0, 1), got [1.0, 0.999]"),
    ({"betas": [0.9, -0.5]}, "betas must be two values in [0, 1)"),
    ({"weight_decay": -0.01}, "weight_decay must be >= 0, got -0.01"),
])
def test_cli_bad_betas_or_weight_decay_is_config_error(tmp_path, monkeypatch, capsys,
                                                       optim, match):
    path = write_tiny(tmp_path, out_dir=str(tmp_path / "out"),
                      optim={**TINY["optim"], **optim})
    monkeypatch.setattr(cli, "make_datasets", lambda cfg: pytest.fail("data synthesised"))
    assert run_cli(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: optim: ") and match in err


def test_cli_eval_of_a_nan_checkpoint_is_a_numeric_failure(tmp_path, capsys):
    out = tmp_path / "run"
    path = write_tiny(tmp_path, out_dir=str(out))
    cfg = load_config(path)
    model = Model(cfg.model_config(), seed=cfg.seed)
    w = model.store["fusion.clf.w"]
    w.data = with_first_entry(w.data, np.nan)
    out.mkdir()
    model.store.save(out / "model.ckpt")
    assert run_cli(["eval", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "Traceback" not in err
    assert not (out / "eval_metrics.json").exists()


def test_cli_train_with_a_nan_weight_stops_at_step_0(tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    path = write_tiny(tmp_path, out_dir=str(out))

    class NanModel(Model):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            w = self.store["fusion.clf.w"]
            w.data = with_first_entry(w.data, np.nan)

    monkeypatch.setattr(cli, "Model", NanModel)
    assert run_cli(["train", "--config", str(path)]) == 4
    assert capsys.readouterr().err == (
        "numeric failure: epoch 0, step 0: non-finite loss nan\n")
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("eval_per_class", [1, 0])
@pytest.mark.parametrize("argv", [["eval"], ["dump-embeddings", "--split", "eval"]])
def test_cli_eval_commands_make_only_the_clips_they_read(tmp_path, monkeypatch, argv,
                                                         eval_per_class):
    data = {**TINY["data"], "eval_samples_per_class": eval_per_class}
    out = tmp_path / "run"
    path = write_tiny(tmp_path, out_dir=str(out), data=data)
    cfg = load_config(path)
    out.mkdir()
    Model(cfg.model_config(), seed=cfg.seed).store.save(out / "model.ckpt")
    train_set, eval_set = make_datasets(cfg)
    read = eval_set or train_set  # an empty eval split falls back to train
    dvs = count_calls(monkeypatch, events, "simulate_dvs")
    assert run_cli(argv + ["--config", str(path)]) == 0
    assert len(dvs) == len(read)
    if argv[0] == "eval":
        ids = [r["sample_id"] for r in json.loads((out / "top5_scores.json").read_text())]
    else:
        ids = [ln.split(",")[0] for ln in (out / "embeddings_eval.csv").read_text().split()[1:]]
    assert ids == [s.sample_id for s in read]


@pytest.mark.parametrize("argv,match", [
    (["sweep-frames", "--frame-counts", "1", "0"], "data.frames must be >= 1, got 0"),
    (["sweep-frames", "--frame-counts", "-3"], "data.frames must be >= 1, got -3"),
    (["sweep-prompts", "--templates", "A {}", "no placeholder"], "'no placeholder'"),
    (["sweep-prompts", "--templates", "A {}", "a {} {x}"], "'a {} {x}'"),
])
def test_cli_sweep_checks_every_value_before_the_first_row(tmp_path, monkeypatch, capsys,
                                                           argv, match):
    path = write_tiny(tmp_path, out_dir=str(tmp_path / "out"))
    monkeypatch.setattr(cli, "make_datasets", lambda cfg: pytest.fail("data synthesised"))
    assert run_cli(argv + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and match in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", ["rgb_encoder", "event_encoder", "text", "fusion"])
def test_model_config_sections_cannot_be_changed_after_validation(section):
    # validate checks a section once, when it is built; so nothing may edit it later
    cfg = load_config(None, {})
    with pytest.raises(dataclasses.FrozenInstanceError):
        getattr(cfg, section).heads = 0
    validate(cfg)
    assert getattr(cfg, section).heads == 4
