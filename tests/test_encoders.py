import numpy as np
import pytest

from evfusion import autodiff as ad
from evfusion.autodiff import Tensor
from evfusion.encoders import (EncoderConfig, bilinear_resize,
                               encode_clip, encoder_forward,
                               event_frame_to_rgb, init_encoder_params,
                               patchify_embed)
from evfusion.errors import ContractError, NumericError
from evfusion.events import EventFrameSequence, VideoClip
from evfusion.params import ParamStore


def make_encoder(cfg, seed=0, prefix="enc"):
    store = ParamStore()
    init_encoder_params(store, prefix, cfg, np.random.default_rng(seed))
    return store


def random_frame(rng, h=32, w=32):
    return rng.uniform(0.0, 1.0, size=(h, w, 3))


def test_token_count_desk_config():
    cfg = EncoderConfig(image_size=32, patch_size=8, dim=64)
    assert cfg.n_tokens == 17


def test_token_count_full_scale():
    cfg = EncoderConfig(image_size=224, patch_size=16, dim=768, heads=12)
    assert cfg.n_tokens == 197
    assert cfg.dim == 768


def test_token_count_formula_various_configs():
    for size, patch in ((16, 8), (32, 8), (64, 16), (224, 16)):
        cfg = EncoderConfig(image_size=size, patch_size=patch, dim=64)
        assert cfg.n_tokens == (size // patch) ** 2 + 1


def test_invalid_config_rejected():
    with pytest.raises(ContractError):
        EncoderConfig(image_size=30, patch_size=8, dim=64)
    with pytest.raises(ContractError):
        EncoderConfig(image_size=32, patch_size=8, dim=30, heads=4)


def test_patchify_shapes():
    cfg = EncoderConfig(image_size=32, patch_size=8, dim=64)
    store = make_encoder(cfg)
    seq = patchify_embed(random_frame(np.random.default_rng(0)), cfg, store, "enc")
    assert seq.shape == (17, 64)


def test_patchify_full_scale_shape():
    cfg = EncoderConfig(image_size=224, patch_size=16, dim=768, heads=12, depth=0)
    store = make_encoder(cfg)
    frame = np.random.default_rng(1).uniform(size=(224, 224, 3))
    seq = patchify_embed(frame, cfg, store, "enc")
    assert seq.shape == (197, 768)


def test_patchify_zero_image_zero_weights_gives_embeddings_only():
    cfg = EncoderConfig(image_size=16, patch_size=8, dim=8, heads=2, depth=0)
    store = make_encoder(cfg)
    store["enc.patch.w"].data = np.zeros_like(store["enc.patch.w"].data)
    store["enc.patch.b"].data = np.zeros_like(store["enc.patch.b"].data)
    seq = patchify_embed(np.zeros((16, 16, 3)), cfg, store, "enc")
    expected = np.vstack([store["enc.cls"].data, np.zeros((4, 8))]) + store["enc.pos"].data
    assert np.array_equal(seq.data, expected)


def test_patchify_rejects_nonfinite_pixels():
    cfg = EncoderConfig(image_size=16, patch_size=8, dim=8, heads=2)
    store = make_encoder(cfg)
    bad = np.zeros((16, 16, 3))
    bad[0, 0, 0] = np.inf
    with pytest.raises(NumericError):
        patchify_embed(bad, cfg, store, "enc")


def test_bilinear_resize_identity_and_constant():
    rng = np.random.default_rng(2)
    frame = rng.uniform(size=(16, 16, 3))
    assert np.array_equal(bilinear_resize(frame, 16), frame)
    const = np.full((10, 10, 3), 0.3)
    assert np.allclose(bilinear_resize(const, 32), 0.3)


def test_encoder_depth_zero_is_identity():
    cfg = EncoderConfig(image_size=16, patch_size=8, dim=8, heads=2, depth=0)
    store = make_encoder(cfg)
    tokens = Tensor(np.random.default_rng(3).normal(size=(5, 8)))
    out = encoder_forward(tokens, cfg, store, "enc")
    assert np.array_equal(out.data, tokens.data)


def test_encoder_preserves_shape():
    rng = np.random.default_rng(4)
    for depth, heads in ((1, 1), (2, 4)):
        cfg = EncoderConfig(image_size=16, patch_size=8, dim=16, heads=heads,
                            depth=depth)
        store = make_encoder(cfg)
        tokens = Tensor(rng.normal(size=(7, 16)))
        out = encoder_forward(tokens, cfg, store, "enc")
        assert out.shape == (7, 16)


def test_encoder_dim_mismatch():
    cfg = EncoderConfig(image_size=16, patch_size=8, dim=16, heads=2)
    store = make_encoder(cfg)
    with pytest.raises(ContractError):
        encoder_forward(Tensor(np.zeros((3, 8))), cfg, store, "enc")


def test_single_block_matches_straight_line_oracle():
    # depth 1, single head: re-derive the block from raw parameter values
    cfg = EncoderConfig(image_size=16, patch_size=8, dim=8, heads=1, depth=1,
                        mlp_ratio=2.0)
    store = make_encoder(cfg, seed=9)
    rng = np.random.default_rng(10)
    x = rng.normal(size=(5, 8))

    def ln(v, g, b, eps=1e-5):
        mu = v.mean(axis=1, keepdims=True)
        var = ((v - mu) ** 2).mean(axis=1, keepdims=True)
        return (v - mu) / np.sqrt(var + eps) * g + b

    def lin(v, p):
        return v @ store[f"enc.block0.{p}.w"].data + store[f"enc.block0.{p}.b"].data

    def gelu(v):
        return 0.5 * v * (1 + np.tanh(np.sqrt(2 / np.pi) * (v + 0.044715 * v**3)))

    h = ln(x, store["enc.block0.ln1.gain"].data, store["enc.block0.ln1.bias"].data)
    q, k, v = lin(h, "attn.wq"), lin(h, "attn.wk"), lin(h, "attn.wv")
    logits = q @ k.T / np.sqrt(8)
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    attn = lin(w @ v, "attn.wo")
    x1 = x + attn
    h2 = ln(x1, store["enc.block0.ln2.gain"].data, store["enc.block0.ln2.bias"].data)
    expected = x1 + lin(gelu(lin(h2, "mlp1")), "mlp2")

    out = encoder_forward(Tensor(x), cfg, store, "enc")
    assert np.max(np.abs(out.data - expected)) < 1e-10


def test_encode_clip_lengths_and_independence():
    cfg = EncoderConfig(image_size=16, patch_size=8, dim=8, heads=2, depth=1)
    store = make_encoder(cfg)
    rng = np.random.default_rng(6)
    frames = [random_frame(rng, 16, 16) for _ in range(5)]
    clip = VideoClip(frames, np.arange(5) * 1000)
    seqs = encode_clip([clip], cfg, store, "enc")
    assert len(seqs.data) == 5
    assert all(seqs.data[j].shape == (5, 8) for j in range(5))

    single = encode_clip([VideoClip(frames[:1], [0])], cfg, store, "enc")
    assert len(single.data) == 1

    # permuting frame order permutes outputs identically
    perm = [3, 0, 4, 1, 2]
    permuted = encode_clip([VideoClip([frames[i] for i in perm], np.arange(5) * 1000)],
                           cfg, store, "enc")
    for j, i in enumerate(perm):
        assert np.array_equal(permuted.data[j], seqs.data[i])


@pytest.mark.parametrize("events", [False, True])
def test_encode_clip_batch_equals_one_frame_calls(events):
    # the batched forward gives exactly the arrays of one call per frame
    cfg = EncoderConfig(image_size=16, patch_size=8, dim=8, heads=2, depth=2)
    store = make_encoder(cfg)
    rng = np.random.default_rng(11)
    if events:
        clips = [EventFrameSequence([rng.uniform(size=(2, 12, 20)) for _ in range(4)])]
        one = [EventFrameSequence([f]) for f in clips[0].frames]
    else:  # frames of two sizes: each is resized before they are batched
        frames = [random_frame(rng, 16, 16), random_frame(rng, 24, 20), random_frame(rng, 16, 16)]
        clips = [VideoClip(frames, np.arange(3))]
        one = [VideoClip([f], [0]) for f in frames]
    with ad.no_grad():
        batch = encode_clip(clips, cfg, store, "enc")
        alone = [encode_clip([c], cfg, store, "enc") for c in one]
    assert batch.shape == (len(one), cfg.n_tokens, cfg.dim)
    for j, a in enumerate(alone):
        assert np.array_equal(batch.data[j], a.data[0])


def test_encode_clip_empty_rejected():
    cfg = EncoderConfig(image_size=16, patch_size=8, dim=8, heads=2)
    store = make_encoder(cfg)
    with pytest.raises(ContractError):
        encode_clip([EventFrameSequence([])], cfg, store, "enc")


def test_event_frame_to_rgb_channels():
    on = np.array([[1.0, 0.0]])
    off = np.array([[0.0, 0.5]])
    rgb = event_frame_to_rgb(np.stack([on, off]))
    assert rgb.shape == (1, 2, 3)
    assert np.array_equal(rgb[..., 0], on)
    assert np.array_equal(rgb[..., 1], off)
    assert np.array_equal(rgb[..., 2], 0.5 * (on + off))


def test_frozen_prefix_marked():
    # init freezes nothing; Model freezes the sections their config marks frozen
    from evfusion.fusion import FusionConfig, Model, ModelConfig
    from evfusion.text import PromptTemplate, TextConfig

    cfg = EncoderConfig(image_size=16, patch_size=8, dim=8, heads=2, depth=1, frozen=True)
    assert not any(make_encoder(cfg).is_frozen(n) for n in make_encoder(cfg).names())
    model = Model(ModelConfig(rgb=cfg, event=EncoderConfig(image_size=16, patch_size=8, dim=8,
                                                           heads=2, depth=1, frozen=False),
                              text=TextConfig(dim=8, heads=2, frozen=True),
                              fusion=FusionConfig(dim=8, heads=2),
                              labels=["disc moving up", "bar moving left"],
                              template=PromptTemplate("A photo of a {}")), seed=0)
    frozen = ("rgb.", "text.", "fusion.free_tokens")  # sci on never reads the free tokens
    for name in model.store.names():
        assert model.store.is_frozen(name) == name.startswith(frozen), name


def test_gradient_flows_through_frozen_encoder():
    # a trainable readout after a frozen encoder still gets exact gradients
    from evfusion.autodiff import finite_diff_check

    cfg = EncoderConfig(image_size=16, patch_size=8, dim=8, heads=2, depth=1,
                        frozen=True)
    store = make_encoder(cfg)
    store.freeze("enc.")
    readout = Tensor(np.random.default_rng(8).normal(size=(8, 1)),
                     requires_grad=True)
    frame = random_frame(np.random.default_rng(7), 16, 16)

    def loss():
        seq = patchify_embed(frame, cfg, store, "enc")
        out = encoder_forward(seq, cfg, store, "enc")
        return ad.linear(ad.mean_rows(out), readout, Tensor(np.zeros((1, 1))))

    assert finite_diff_check(loss, [readout], eps=1e-4) < 1e-3
