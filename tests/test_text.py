import numpy as np
import pytest

from evfusion import autodiff as ad
from evfusion import blocks
from evfusion.errors import ContractError
from evfusion.params import ParamStore
from evfusion.text import (NONE_TEMPLATE, PAD, UNK, PromptTemplate, TextConfig,
                           Vocabulary, encode_labels, init_text_params, render_prompt,
                           tokenize)

LABELS = ["square moving right", "square moving left",
          "disc moving up", "disc moving down"]


def make_branch(tpl, cfg=None, labels=LABELS, seed=0):
    cfg = cfg or TextConfig(dim=16, depth=1, heads=2, max_len=12)
    vocab = Vocabulary.build([render_prompt(tpl, lb) for lb in labels])
    store = ParamStore()
    init_text_params(store, "text", cfg, vocab, np.random.default_rng(seed))
    return cfg, vocab, store


def test_template_requires_single_placeholder():
    PromptTemplate("A photo of a {}")
    PromptTemplate(NONE_TEMPLATE)
    with pytest.raises(ContractError):
        PromptTemplate("no placeholder here")
    with pytest.raises(ContractError):
        PromptTemplate("{} twice {}")


@pytest.mark.parametrize("text", ["a {} {x}", "{0} {}", "{} {", "{} {1}", "{}}"])
def test_template_that_does_not_format_is_rejected_at_construction(text):
    with pytest.raises(ContractError, match="does not format"):
        PromptTemplate(text)


def test_render_prompt_substitution_and_none():
    tpl = PromptTemplate("A photo of a {}")
    assert render_prompt(tpl, "cat") == "A photo of a cat"
    assert render_prompt(PromptTemplate(NONE_TEMPLATE), "cat") == "cat"
    with pytest.raises(ContractError):
        render_prompt(tpl, "")


def test_vocabulary_build_reserved_ids():
    vocab = Vocabulary.build(["a photo of a cat", "a photo of a dog"])
    assert vocab.token_to_id["<pad>"] == PAD
    assert vocab.token_to_id["<unk>"] == UNK
    assert {"a", "photo", "of", "cat", "dog"} <= set(vocab.token_to_id)
    # "a" appears several times but gets one id
    assert len(vocab) == 2 + 5


def test_tokenize_padding_truncation_unknowns():
    vocab = Vocabulary.build(["cat sat"])
    ids = tokenize("cat sat", vocab, 4)
    assert len(ids) == 4 and ids[2:] == [PAD, PAD]
    assert tokenize("zebra", vocab, 2) == [UNK, PAD]
    assert len(tokenize("cat sat cat sat cat", vocab, 3)) == 3
    with pytest.raises(ContractError):
        tokenize("cat", vocab, 0)


def test_tokenize_case_and_punctuation_folding():
    vocab = Vocabulary.build(["the action is running"])
    a = tokenize("The action is running.", vocab, 6)
    b = tokenize("the action is running", vocab, 6)
    assert a == b


def test_encode_labels_shape():
    tpl = PromptTemplate("The action is {}")
    cfg, vocab, store = make_branch(tpl)
    seq = encode_labels(LABELS, tpl, cfg, vocab, store, "text")
    assert seq.shape == (4, 16)


def test_encode_labels_row_independence():
    # row i depends only on label i: reordering labels permutes rows
    tpl = PromptTemplate("The action is {}")
    cfg, vocab, store = make_branch(tpl)
    base = encode_labels(LABELS, tpl, cfg, vocab, store, "text").data
    perm = [2, 0, 3, 1]
    shuffled = encode_labels([LABELS[i] for i in perm], tpl, cfg, vocab,
                             store, "text").data
    for j, i in enumerate(perm):
        assert np.array_equal(shuffled[j], base[i])


def test_encode_one_label_invariant_to_max_len_padding():
    # growing max_len only adds PAD positions, which must not leak into any row
    tpl = PromptTemplate("The action is {}")
    cfg, vocab, store = make_branch(tpl, TextConfig(dim=16, depth=1, heads=2,
                                                    max_len=16))
    short = TextConfig(dim=16, depth=1, heads=2, max_len=8)
    a = encode_labels(LABELS, tpl, short, vocab, store, "text")
    b = encode_labels(LABELS, tpl, cfg, vocab, store, "text")
    assert np.array_equal(a.data, b.data)


def one_label(label, tpl, cfg, vocab, store):
    """Reference: the (1, dim) token of one label run through the text
    branch on its own, a 2-D (n, dim) forward of its real tokens."""
    real = [i for i in tokenize(render_prompt(tpl, label), vocab, cfg.max_len) if i != PAD]
    x = ad.add(ad.take_rows(store["text.embed"], real),
               ad.slice_rows(store["text.pos"], 0, len(real)))
    for i in range(cfg.depth):
        x = blocks.transformer_block(store, f"text.block{i}", x, cfg.heads)
    return blocks.linear(store, "text.proj", ad.mean_rows(x))


@pytest.mark.parametrize("labels", [["up", "moving left"],
                                    ["moving left", "up", "disc moving down", "down"]],
                         ids=["two-counts", "three-counts-reordered"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_encode_labels_with_several_token_counts_equals_one_label_at_a_time(labels, dtype):
    tpl = PromptTemplate(NONE_TEMPLATE)
    cfg, vocab, store = make_branch(tpl, TextConfig(dim=16, depth=2, heads=2, max_len=6),
                                    labels=labels)
    with store.cast(dtype):
        tokens = encode_labels(labels, tpl, cfg, vocab, store, "text")
        rows = [one_label(lb, tpl, cfg, vocab, store) for lb in labels]
    assert tokens.shape == (len(labels), cfg.dim) and tokens.data.dtype == dtype
    assert tokens.data.tobytes() == np.concatenate([r.data for r in rows]).tobytes()


def test_encode_labels_gradients_match_one_label_at_a_time():
    # one forward per token-count group only regroups the weight-gradient sums
    labels = ["moving left", "up", "disc moving down", "down"]
    tpl = PromptTemplate(NONE_TEMPLATE)
    cfg, vocab, store = make_branch(tpl, labels=labels)
    seed = np.random.default_rng(4).normal(size=(len(labels), cfg.dim))
    grads = []
    for encode in (lambda: encode_labels(labels, tpl, cfg, vocab, store, "text"),
                   lambda: ad.concat_rows(*[one_label(lb, tpl, cfg, vocab, store)
                                            for lb in labels])):
        store.zero_grad()
        ad.backward(encode(), seed)
        grads.append({n: t.grad for n, t in store.items()})
    batched, reference = grads
    assert batched.keys() == reference.keys()
    for name in batched:
        assert np.max(np.abs(batched[name] - reference[name])) <= 1e-12, name


def test_different_templates_give_different_tokens():
    cfg = TextConfig(dim=16, depth=1, heads=2, max_len=12)
    t1 = PromptTemplate("A photo of a {}")
    t2 = PromptTemplate("The action in the picture is {}")
    vocab = Vocabulary.build([render_prompt(t, lb)
                              for t in (t1, t2) for lb in LABELS])
    store = ParamStore()
    init_text_params(store, "text", cfg, vocab, np.random.default_rng(3))
    a = encode_labels(LABELS, t1, cfg, vocab, store, "text").data
    b = encode_labels(LABELS, t2, cfg, vocab, store, "text").data
    assert not np.array_equal(a, b)


def test_encoding_deterministic():
    tpl = PromptTemplate("A photo of a {}")
    cfg, vocab, store = make_branch(tpl)
    a = encode_labels(LABELS, tpl, cfg, vocab, store, "text").data
    b = encode_labels(LABELS, tpl, cfg, vocab, store, "text").data
    assert np.array_equal(a, b)


def test_gradient_reaches_embedding_rows():
    from evfusion import autodiff as ad

    tpl = PromptTemplate(NONE_TEMPLATE)
    cfg, vocab, store = make_branch(tpl)
    seq = encode_labels(LABELS, tpl, cfg, vocab, store, "text")
    ad.backward(seq, np.ones(seq.shape))
    emb = store["text.embed"]
    assert emb.grad is not None
    used = {i for lb in LABELS for i in tokenize(lb, vocab, cfg.max_len)
            if i != PAD}
    row_norms = np.abs(emb.grad).sum(axis=1)
    assert all(row_norms[i] > 0 for i in used)
    assert row_norms[PAD] == 0.0
