import dataclasses

import numpy as np
import pytest

from evfusion import autodiff as ad
from evfusion.autodiff import Tensor, backward
from evfusion.encoders import EncoderConfig
from evfusion.errors import ContractError, DimensionError
from evfusion.events import MotionClass, SynthSpec, synth_dataset
from evfusion.fusion import (AblationSwitches, FusionConfig, Model,
                             ModelConfig, classify, cross_attention,
                             fuse_vision_event, init_fusion_params,
                             multimodal_transformer)
from evfusion.params import ParamStore
from evfusion.text import PromptTemplate, TextConfig

DIM = 16
LABELS = ["square moving right", "square moving left",
          "disc moving up", "disc moving down"]


def make_fusion(cfg=None, n_classes=4, seed=0):
    cfg = cfg or FusionConfig(dim=DIM, depth=1, heads=2, mlp_ratio=2.0)
    store = ParamStore()
    init_fusion_params(store, "fusion", cfg, n_classes, np.random.default_rng(seed))
    return cfg, store


def rand_seq(rng, n):
    return Tensor(rng.normal(size=(n, DIM)))


def tiny_model_config(n_frames_unused=None, **switches):
    enc = EncoderConfig(image_size=16, patch_size=8, dim=DIM, heads=2, depth=1,
                        mlp_ratio=2.0)
    return ModelConfig(
        rgb=enc, event=EncoderConfig(**{**enc.__dict__}),
        text=TextConfig(dim=DIM, depth=1, heads=2, max_len=8),
        fusion=FusionConfig(dim=DIM, depth=1, heads=2, mlp_ratio=2.0),
        labels=list(LABELS),
        template=PromptTemplate("The action is {}"),
        switches=AblationSwitches(**switches))


def tiny_sample(seed=0):
    classes = [MotionClass(lb, lb.split()[0], lb.split()[-1]) for lb in LABELS]
    spec = SynthSpec(classes=classes, samples_per_class=1, resolution=(16, 16),
                     n_frames=2)
    return synth_dataset(spec, seed=seed)[0]


# -- stage-level tests --------------------------------------------------------

def test_multimodal_transformer_split_back_shapes():
    cfg, store = make_fusion()
    rng = np.random.default_rng(1)
    mod, text = multimodal_transformer(rand_seq(rng, 7), rand_seq(rng, 4),
                                       store, "fusion.mt_vt", cfg)
    assert mod.shape == (7, DIM)
    assert text.shape == (4, DIM)


def test_multimodal_transformer_text_participates():
    # changing the text rows must change the modality output rows
    cfg, store = make_fusion()
    rng = np.random.default_rng(2)
    mod = rand_seq(rng, 5)
    t1, t2 = rand_seq(rng, 4), rand_seq(rng, 4)
    a, _ = multimodal_transformer(mod, t1, store, "fusion.mt_vt", cfg)
    b, _ = multimodal_transformer(mod, t2, store, "fusion.mt_vt", cfg)
    assert not np.array_equal(a.data, b.data)


def test_multimodal_transformer_width_mismatch():
    cfg, store = make_fusion()
    bad = Tensor(np.zeros((3, DIM + 1)))
    with pytest.raises(DimensionError):
        multimodal_transformer(bad, Tensor(np.zeros((2, DIM))),
                               store, "fusion.mt_vt", cfg)


def test_fuse_vision_event_shape_and_permutation_equivariance():
    cfg, store = make_fusion()
    rng = np.random.default_rng(3)
    fv, fe = rand_seq(rng, 6), rand_seq(rng, 5)
    fused = fuse_vision_event(fv, fe, store, "fusion.sa_ve", cfg)
    assert fused.shape == (11, DIM)

    # no positional encoding: permuting the rows permutes the output rows
    joined = np.vstack([fv.data, fe.data])
    perm = rng.permutation(11)
    permuted = fuse_vision_event(
        Tensor(joined[perm][:6]),
        Tensor(joined[perm][6:]),
        store, "fusion.sa_ve", cfg)
    assert np.max(np.abs(permuted.data - fused.data[perm])) < 1e-10


def test_cross_attention_single_fused_row_is_residual_plus_value():
    cfg, store = make_fusion()
    rng = np.random.default_rng(4)
    text = rand_seq(rng, 4)
    fused = rand_seq(rng, 1)
    out = cross_attention(text, fused, store, "fusion.ca_vt", cfg)
    # one key -> attention weight 1 -> output = text + v(fused_row)
    v = (fused.data @ store["fusion.ca_vt.wv.w"].data
         + store["fusion.ca_vt.wv.b"].data)
    expected = text.data + np.repeat(v, 4, axis=0)
    assert np.max(np.abs(out.data - expected)) < 1e-10


def test_cross_attention_one_row_per_class():
    cfg, store = make_fusion()
    rng = np.random.default_rng(5)
    out = cross_attention(rand_seq(rng, 4), rand_seq(rng, 9),
                          store, "fusion.ca_vt", cfg)
    assert out.shape == (4, DIM)


def test_classify_zero_weights_gives_bias():
    cfg, store = make_fusion()
    store["fusion.clf.w"].data = np.zeros_like(store["fusion.clf.w"].data)
    store["fusion.clf.b"].data = np.arange(4.0).reshape(1, 4)
    rng = np.random.default_rng(6)
    logits, pooled = classify(rand_seq(rng, 5), rand_seq(rng, 4),
                              rand_seq(rng, 4), store, "fusion", cfg)
    assert logits.shape == (1, 4)
    assert np.array_equal(logits.data, [[0.0, 1.0, 2.0, 3.0]])
    assert pooled.shape == (1, DIM)


# -- model-level tests ---------------------------------------------------------

def test_model_config_contracts():
    with pytest.raises(ContractError):
        ModelConfig(labels=["just one"])
    with pytest.raises(ContractError):
        ModelConfig(labels=["a", "a"])
    enc = EncoderConfig(image_size=16, patch_size=8, dim=32, heads=2)
    with pytest.raises(ContractError):
        ModelConfig(rgb=enc, labels=["a", "b"])  # width mismatch vs defaults
    for build in (lambda: TextConfig(dim=10, heads=4), lambda: TextConfig(max_len=0),
                  lambda: FusionConfig(heads=0), lambda: FusionConfig(dim=10, heads=4),
                  lambda: ModelConfig(labels=["run", "!!!"])):
        with pytest.raises(ContractError):
            build()


def test_model_forward_logit_shape():
    model = Model(tiny_model_config(), seed=0)
    logits = model.forward(tiny_sample())
    assert logits.shape == (1, 4)
    assert np.all(np.isfinite(logits.data))


def test_model_forward_deterministic():
    sample = tiny_sample()
    a = Model(tiny_model_config(), seed=7).forward(sample).data
    b = Model(tiny_model_config(), seed=7).forward(sample).data
    assert np.array_equal(a, b)


def test_model_seed_changes_parameters():
    a = Model(tiny_model_config(), seed=0)
    b = Model(tiny_model_config(), seed=1)
    assert not np.array_equal(a.store["fusion.clf.w"].data,
                              b.store["fusion.clf.w"].data)


def test_free_tokens_used_only_when_sci_off():
    def grad_mass(t):
        return 0.0 if t.grad is None else np.abs(t.grad).sum()

    sample = tiny_sample()

    model = Model(tiny_model_config(sci=False), seed=2)
    model.store.zero_grad()
    logits = model.forward(sample)
    backward(logits, np.ones(logits.shape))
    assert grad_mass(model.store["fusion.free_tokens"]) > 0
    assert grad_mass(model.store["text.embed"]) == 0

    model = Model(tiny_model_config(sci=True), seed=2)
    model.store.zero_grad()
    logits = model.forward(sample)
    backward(logits, np.ones(logits.shape))
    assert grad_mass(model.store["fusion.free_tokens"]) == 0
    assert grad_mass(model.store["text.embed"]) > 0


def test_every_switch_pattern_runs_and_changes_output():
    sample = tiny_sample()
    base = Model(tiny_model_config(), seed=3).forward(sample).data
    for name in ("sci", "mt", "sa", "ca"):
        out = Model(tiny_model_config(**{name: False}), seed=3).forward(sample).data
        assert out.shape == (1, 4)
        assert np.all(np.isfinite(out))
        assert not np.array_equal(out, base), f"switch {name} had no effect"


def test_attention_weight_sink_collects_row_stochastic_matrices():
    model = Model(tiny_model_config(), seed=4)
    with ad.attention_weights() as sink:
        model.forward(tiny_sample())
    assert len(sink) > 0
    for w in sink:
        arr = w.data if isinstance(w, Tensor) else np.asarray(w)
        assert np.all(arr >= 0)
        assert np.max(np.abs(arr.sum(axis=1) - 1.0)) < 1e-9


def test_attention_weights_capture_every_head_of_one_forward():
    cfg = tiny_model_config()
    model = Model(cfg, seed=4)
    sample = tiny_sample()
    n_frames, n_labels, f = len(sample.clip), len(cfg.labels), cfg.fusion
    with ad.attention_weights() as sink:
        model.forward(sample)
    expected = (cfg.rgb.depth * cfg.rgb.heads * n_frames
                + cfg.event.depth * cfg.event.heads * n_frames
                + cfg.text.depth * cfg.text.heads * n_labels
                + 2 * f.depth * f.heads  # mt_vt, mt_et
                + f.heads                # sa
                + 2                      # ca_vt, ca_et: one head each
                + f.heads)               # final
    assert len(sink) == expected
    n_fused = n_frames * (cfg.rgb.n_tokens + cfg.event.n_tokens)
    assert [w.shape for w in sink[-f.heads - 2:]] == (
        [(n_labels, n_fused)] * 2 + [(n_fused + 2 * n_labels,) * 2] * f.heads)


def test_gradients_flow_to_all_trainable_fusion_params():
    model = Model(tiny_model_config(), seed=5)
    model.store.zero_grad()
    logits = model.forward(tiny_sample())
    backward(logits, 2.0 * logits.data)  # the gradients of sum(logits ** 2)
    for name, t in model.store.trainable_items():
        assert t.grad is not None and np.abs(t.grad).sum() > 0, name


def test_frozen_encoders_record_no_tape_outside_no_grad():
    model = Model(tiny_model_config(), seed=6)
    sample = tiny_sample()
    for t in model.encode_sample([sample]):
        assert not t.requires_grad and t._parents == ()
    model.store.zero_grad()
    logits = model.forward(sample)
    backward(logits, np.ones(logits.shape))
    encoder_params = [n for n in model.store.names() if n.startswith(("rgb.", "event."))]
    assert encoder_params and all(model.store[n].grad is None for n in encoder_params)
    assert model.store["fusion.clf.w"].grad is not None


# -- one encoder forward per block of samples ---------------------------------

def tiny_samples(n_frames, n=4, seed=0):
    classes = [MotionClass(lb, lb.split()[0], lb.split()[-1]) for lb in LABELS]
    spec = SynthSpec(classes=classes, samples_per_class=1, resolution=(16, 16),
                     n_frames=n_frames)
    return synth_dataset(spec, seed=seed)[:n]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_block_encodes_each_sample_bit_for_bit_as_alone(dtype):
    model = Model(tiny_model_config(), seed=2)
    samples = tiny_samples(n_frames=3)
    with ad.no_grad(), model.store.cast(dtype):
        fv, fe = model.encode_sample(samples)
        alone = [model.encode_sample([s]) for s in samples]
    tokens = 3 * model.cfg.rgb.n_tokens
    assert fv.shape == fe.shape == (len(samples), tokens, DIM)
    assert fv.data.dtype == fe.data.dtype == dtype
    for i, (v, e) in enumerate(alone):
        assert v.shape == e.shape == (1, tokens, DIM)
        assert fv.data[i].tobytes() == v.data[0].tobytes()
        assert fe.data[i].tobytes() == e.data[0].tobytes()


def test_a_block_of_trainable_encoders_backpropagates_into_each_sample():
    # lvm off: the block is on the tape, and every sample reaches the encoders
    model = Model(dataclasses.replace(
        tiny_model_config(), rgb=EncoderConfig(image_size=16, patch_size=8, dim=DIM,
                                               heads=2, depth=1, frozen=False)), seed=2)
    samples = tiny_samples(n_frames=2, n=3)
    fv, fe = model.encode_sample(samples)
    assert fv.requires_grad and not fe.requires_grad
    weights = np.random.default_rng(1).normal(size=fv.shape)
    backward(fv, weights)
    batched = model.store["rgb.patch.w"].grad
    model.store.zero_grad()
    for s, w in zip(samples, weights):
        backward(model.encode_sample([s])[0], w[None])
    assert np.max(np.abs(batched - model.store["rgb.patch.w"].grad)) <= 1e-12


def test_a_block_of_samples_with_different_frame_counts_is_rejected():
    # a bare reshape would mix frames across samples: 2 + 4 frames reshape
    # to (2, 3 * tokens, dim) without complaint
    model = Model(tiny_model_config(), seed=2)
    mixed = tiny_samples(n_frames=2, n=1) + tiny_samples(n_frames=4, n=1)
    with pytest.raises(DimensionError, match=r"samples of \[2, 4\] frames"):
        model.encode_sample(mixed)
