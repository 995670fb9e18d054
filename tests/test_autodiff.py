import contextlib
import inspect
import math

import numpy as np
import pytest

from evfusion import autodiff as ad
from evfusion.autodiff import Tensor, backward, finite_diff_check
from evfusion.errors import ContractError, DimensionError, NumericError


def product(a: Tensor, b: Tensor) -> Tensor:
    """a @ b as a linear node with a zero bias that takes no gradient."""
    return ad.linear(a, b, Tensor(np.zeros((1, b.shape[1]))))


def attention_softmax(x) -> np.ndarray:
    """Row-wise softmax of x as scaled_dot_attention computes it: one query
    [[1.0]] against a row laid out as a column of keys has that row as its
    logits, and attention_weights() hands back the softmax of them."""
    with ad.attention_weights() as weights:
        for row in np.asarray(x, dtype=float):
            ad.scaled_dot_attention(Tensor([[1.0]]), Tensor(row.reshape(-1, 1)),
                                    Tensor(np.zeros((row.size, 1))))
    return np.vstack([w.data for w in weights])


def test_softmax_symmetry():
    out = attention_softmax([[0.0, 0.0]])
    assert np.array_equal(out, [[0.5, 0.5]])


def test_softmax_large_values_no_overflow():
    out = attention_softmax([[1000.0, 1000.0]])
    assert np.all(np.isfinite(out))
    assert np.array_equal(out, [[0.5, 0.5]])


def test_softmax_direct_exponentiation_oracle():
    x = np.array([[1.0, 2.0, 3.0]])
    expected = np.exp(x) / np.exp(x).sum()
    out = attention_softmax(x)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_softmax_nonfinite_input_raises():
    with pytest.raises(NumericError):
        attention_softmax([[1.0, np.nan]])


def test_softmax_rows_sum_to_one_and_in_range():
    rng = np.random.default_rng(3)
    for _ in range(50):
        out = attention_softmax(rng.normal(scale=5, size=(4, 7)))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-9


def test_softmax_shift_invariance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5))
    for c in (-100.0, 0.37, 42.0):
        a = attention_softmax(x)
        b = attention_softmax(x + c)
        assert np.max(np.abs(a - b)) < 1e-12
        assert np.array_equal(np.argmax(a, axis=1), np.argmax(b, axis=1))


def test_attention_single_key_returns_value():
    q = Tensor([[1.0, 2.0]])
    k = Tensor([[1.0, 2.0]])
    v = Tensor([[7.0]])
    out = ad.scaled_dot_attention(q, k, v)
    assert np.allclose(out.data, [[7.0]])


def test_attention_identical_keys_average_values():
    q = Tensor([[0.3, -0.2]])
    k = Tensor([[1.0, 1.0], [1.0, 1.0]])
    v = Tensor([[1.0], [3.0]])
    out = ad.scaled_dot_attention(q, k, v)
    assert np.allclose(out.data, [[2.0]])


def test_attention_matches_composed_oracle():
    rng = np.random.default_rng(11)
    q = rng.normal(size=(2, 4))
    k = rng.normal(size=(3, 4))
    v = rng.normal(size=(3, 5))
    logits = q @ k.T / 2.0  # sqrt(4)
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    expected = w @ v
    out = ad.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_attention_output_in_value_convex_envelope():
    rng = np.random.default_rng(12)
    for _ in range(100):
        q = Tensor(rng.normal(size=(3, 4)))
        k = Tensor(rng.normal(size=(5, 4)))
        v = rng.normal(size=(5, 6))
        out = ad.scaled_dot_attention(q, k, Tensor(v)).data
        assert np.all(out >= v.min(axis=0) - 1e-9)
        assert np.all(out <= v.max(axis=0) + 1e-9)


def test_concat_split_rows_inverse_bit_exact():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(4, 3))
    joined = ad.concat_rows(Tensor(a), Tensor(b))
    top, bottom = ad.slice_rows(joined, 0, 2), ad.slice_rows(joined, 2, 6)
    assert np.array_equal(top.data, a)
    assert np.array_equal(bottom.data, b)


def test_layer_norm_constant_row_gives_bias():
    gain = Tensor([[2.0, 2.0, 2.0]])
    bias = Tensor([[1.0, -1.0, 0.5]])
    out = ad.layer_norm(Tensor([[3.0, 3.0, 3.0]]), gain, bias)
    assert np.array_equal(out.data, bias.data)


def test_mean_rows_hand_computed():
    out = ad.mean_rows(Tensor([[1.0, 3.0], [5.0, 7.0]]))
    assert np.array_equal(out.data, [[3.0, 5.0]])


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        backward(ad.add(x, x))


def test_seeded_backward_equals_the_scalar_backward_of_sum_root_times_seed():
    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    w, b = Tensor(rng.normal(size=(4, 3)), requires_grad=True), Tensor(rng.normal(size=(1, 3)))
    seed = rng.normal(size=(2, 5, 3))

    def grads(run):
        for t in (x, w):
            t.zero_grad()
        run(ad.gelu(ad.linear(x, w, b)))
        return [x.grad, w.grad]

    seeded = grads(lambda root: backward(root, seed))
    # sum(root * seed) as a linear of the flattened root against the flattened seed
    summed = grads(lambda root: backward(product(ad.reshape(root, (1, -1)),
                                                 Tensor(seed.reshape(-1, 1)))))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(seeded, summed))
    # a leaf root takes the seed as its gradient, as a copy
    x.zero_grad()
    leaf_seed = rng.normal(size=x.shape)
    backward(x, leaf_seed)
    assert x.grad.tobytes() == leaf_seed.tobytes() and x.grad is not leaf_seed


def test_seeded_backward_rejects_a_missing_or_misshapen_seed():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    root = ad.gelu(x)
    with pytest.raises(ContractError, match=r"shape \(2, 3\) needs a seed"):
        backward(root)
    for bad in (np.ones((3, 2)), np.ones((1, 2, 3)), np.ones(6)):
        with pytest.raises(ContractError, match="seed of shape"):
            backward(root, bad)
    with pytest.raises(ContractError, match="seed of shape"):
        backward(product(ad.mean_rows(root), Tensor(np.ones((3, 1)))),
                 np.ones((1, 2)))  # a scalar root too
    assert x.grad is None


def test_take_rows_with_a_2d_index_equals_1d_calls_with_gradients():
    rng = np.random.default_rng(32)
    table = rng.normal(size=(6, 4))
    idx = np.array([[0, 5, 5], [2, 0, 3]])
    g = rng.normal(size=(2, 3, 4))
    out, grad = forward_and_grads(lambda t: ad.take_rows(t, idx), [table], g)
    assert out.shape == (2, 3, 4)
    rows = [forward_and_grads(lambda t: ad.take_rows(t, i), [table], gi)
            for i, gi in zip(idx, g)]
    assert_bit_equal([out], [np.stack([r[0] for r in rows])])
    assert np.max(np.abs(grad - rows[0][1] - rows[1][1])) <= 1e-15
    with pytest.raises(ContractError, match="out of range"):
        ad.take_rows(Tensor(table), [[0, 6]])


def test_backward_accumulates_without_reset():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    backward(x, np.ones(x.shape))
    backward(x, np.ones(x.shape))
    assert np.array_equal(x.grad, [[2.0, 2.0]])


def test_backward_shared_subexpression_counted_once_per_use():
    # y = x + x has gradient 2 per element
    x = Tensor([[3.0]], requires_grad=True)
    backward(ad.add(x, x))
    assert np.array_equal(x.grad, [[2.0]])


def test_forward_determinism():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4))

    def f(arr):
        return attention_softmax(product(Tensor(arr), Tensor(arr.T)).data)

    assert np.array_equal(f(x), f(x))


def test_finite_diff_exact_for_quadratic():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    a = Tensor(rng.normal(size=(3, 3)))
    w = rng.normal(size=(3, 3))

    def f():  # sum(w * (x a x)) is quadratic in x
        return product(x, product(a, x))

    assert finite_diff_check(f, [x], eps=1e-5, weights=w) < 1e-8


def test_finite_diff_detects_wrong_backward():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(3, 3)))
    b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    w = rng.normal(size=(3, 3))
    ad.set_backward_fault(True)
    try:
        err = finite_diff_check(lambda: product(a, b), [b], eps=1e-5, weights=w)
    finally:
        ad.set_backward_fault(False)
    assert err > 1e-1


def test_finite_diff_rejects_nondeterministic_f():
    state = {"n": 0}

    def f():
        state["n"] += 1
        return Tensor([[float(state["n"])]])

    with pytest.raises(ContractError):
        finite_diff_check(f, [Tensor([[1.0]], requires_grad=True)], eps=1e-5)


def test_finite_diff_names_a_non_finite_output_before_comparing_calls():
    x = Tensor(np.array([[np.nan, 1.0]]), requires_grad=True)
    with pytest.raises(NumericError, match=r"^finite_diff_check: f\(\) is nan at \(0, 0\)$"):
        finite_diff_check(lambda: ad.gelu(x), [x], weights=np.ones((1, 2)))
    assert x.grad is None  # raised before the backward


def test_finite_diff_perturbs_a_read_only_parameter_by_assignment():
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x.data.flags.writeable = False
    value, before = x.data, x.data.tobytes()
    assert finite_diff_check(lambda: ad.gelu(x), [x], eps=1e-5,
                             weights=rng.normal(size=(3, 4))) < 1e-6
    assert x.data is value and value.tobytes() == before


def test_finite_diff_rejects_misshapen_weights_before_perturbing():
    x = Tensor(np.random.default_rng(11).normal(size=(3, 4)), requires_grad=True)
    before = x.data.tobytes()
    seen = []

    def f():
        seen.append(x.data.tobytes())
        return ad.gelu(x)

    # (1, 4) would broadcast against the (3, 4) output
    for bad in (np.ones((4, 3)), np.ones((1, 4)), np.ones((3, 4, 1)), np.ones(12)):
        with pytest.raises(ContractError, match="seed of shape"):
            finite_diff_check(f, [x], eps=1e-5, weights=bad)
    assert x.data.tobytes() == before and set(seen) == {before}
    with pytest.raises(ContractError, match="needs a seed"):  # a non-scalar f without weights
        finite_diff_check(f, [x], eps=1e-5)
    assert x.data.tobytes() == before and set(seen) == {before}


def test_finite_diff_eps_contract():
    x = Tensor([[1.0]], requires_grad=True)
    with pytest.raises(ContractError):
        finite_diff_check(lambda: x, [x], eps=0.5)


def test_all_primitives_pass_finite_diff():
    from evfusion.gradcheck import primitive_checks, PRIMITIVE_TOL
    results = primitive_checks(seed=123)
    assert all(err < PRIMITIVE_TOL for err in results.values()), results


def test_gelu_matches_tanh_formula():
    x = np.linspace(-3, 3, 13)
    expected = 0.5 * x * (1 + np.tanh(math.sqrt(2 / math.pi) * (x + 0.044715 * x**3)))
    out = ad.gelu(Tensor(x.reshape(1, -1)))
    assert np.allclose(out.data.reshape(-1), expected, atol=1e-15)


def _per_head_attention_oracle(q, k, v, heads):
    """Plain-numpy multi-head attention: slice columns per head, softmax,
    weight the values, concatenate the heads."""
    hd, hv = q.shape[1] // heads, v.shape[1] // heads
    outs, weights = [], []
    for h in range(heads):
        qh, kh = q[:, h * hd:(h + 1) * hd], k[:, h * hd:(h + 1) * hd]
        logits = qh @ kh.T / math.sqrt(hd)
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        weights.append(w)
        outs.append(w @ v[:, h * hv:(h + 1) * hv])
    return np.concatenate(outs, axis=1), weights


@pytest.mark.parametrize("heads,tq,tk,d,dv", [(1, 3, 5, 4, 6), (2, 4, 4, 8, 8),
                                             (4, 5, 7, 8, 12), (8, 2, 9, 16, 8)])
def test_multi_head_attention_matches_per_head_oracle(heads, tq, tk, d, dv):
    rng = np.random.default_rng(heads)
    q = rng.normal(scale=2.0, size=(tq, d))
    k = rng.normal(scale=2.0, size=(tk, d))
    v = rng.normal(size=(tk, dv))
    expected, expected_weights = _per_head_attention_oracle(q, k, v, heads)
    with ad.attention_weights() as sink:
        out = ad.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), heads)
    assert out.shape == (tq, dv)
    assert np.max(np.abs(out.data - expected)) < 1e-12
    assert len(sink) == heads
    for w, want in zip(sink, expected_weights):
        assert isinstance(w, Tensor) and w.shape == (tq, tk)
        assert np.max(np.abs(w.data - want)) < 1e-12


def test_multi_head_attention_is_one_tape_node():
    q, k, v = (Tensor(np.ones((3, 8)), requires_grad=True) for _ in range(3))
    out = ad.scaled_dot_attention(q, k, v, heads=4)
    assert out._parents == (q, k, v)
    assert all(p._backward is None for p in out._parents)


def test_attention_weights_records_only_inside_the_context():
    x = Tensor(np.ones((3, 4)))
    ad.scaled_dot_attention(x, x, x, heads=2)
    with ad.attention_weights() as sink:
        assert sink == []
        ad.scaled_dot_attention(x, x, x, heads=2)
    ad.scaled_dot_attention(x, x, x, heads=2)
    assert len(sink) == 2
    with ad.attention_weights() as fresh:
        pass
    assert fresh == [] and fresh is not sink


def test_attention_weights_nesting_and_errors_restore_the_outer_list():
    x = Tensor(np.ones((3, 4)))
    with ad.attention_weights() as outer:
        ad.scaled_dot_attention(x, x, x)
        with ad.attention_weights() as inner:
            ad.scaled_dot_attention(x, x, x, heads=2)
        ad.scaled_dot_attention(x, x, x)
        with pytest.raises(ContractError):
            with ad.attention_weights() as failed:
                ad.scaled_dot_attention(x, x, x, heads=4)
                raise ContractError("boom")
        ad.scaled_dot_attention(x, x, x)
    with pytest.raises(ContractError):
        with ad.attention_weights() as top:
            raise ContractError("boom")
    ad.scaled_dot_attention(x, x, x, heads=2)
    assert [len(outer), len(inner), len(failed), len(top)] == [3, 2, 4, 0]


def test_attention_heads_must_divide_widths():
    x = Tensor(np.ones((2, 6)))
    with pytest.raises(DimensionError):
        ad.scaled_dot_attention(x, x, x, heads=4)
    with pytest.raises(DimensionError):
        ad.scaled_dot_attention(x, x, Tensor(np.ones((2, 4))), heads=3)
    with pytest.raises(DimensionError):
        ad.scaled_dot_attention(x, x, x, heads=0)


def test_primitive_checks_cover_multi_head_attention():
    from evfusion.gradcheck import primitive_checks, PRIMITIVE_TOL
    results = primitive_checks(seed=5)
    assert results["scaled_dot_attention"] < PRIMITIVE_TOL
    assert results["scaled_dot_attention_4_heads"] < PRIMITIVE_TOL


def test_backward_keeps_grad_on_leaves_only():
    x = Tensor([[1.0, -2.0, 3.0]], requires_grad=True)
    w = Tensor([[0.5], [1.0], [-1.5]], requires_grad=True)
    const = Tensor([[2.0, 2.0, 2.0]])
    h = ad.add(x, const)
    y = product(h, w)
    loss = product(y, y)
    grads = backward(loss)
    # y = (x + 2).w = -6, so dloss/dy = 2y = -12
    assert np.array_equal(x.grad, -12.0 * w.data.T)
    assert np.array_equal(w.grad, -12.0 * h.data.T)
    assert h.grad is None and y.grad is None and loss.grad is None
    assert const.grad is None
    assert set(grads) == {x.node_id, w.node_id}
    assert np.array_equal(grads[x.node_id], x.grad)


def test_backward_on_model_tape_fills_leaves_only():
    from evfusion import blocks
    from evfusion.params import ParamStore
    store = ParamStore()
    rng = np.random.default_rng(0)
    blocks.init_transformer_block(store, "b", 8, 2.0, rng)
    x = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    out = blocks.transformer_block(store, "b", x, 4)
    backward(out, np.ones(out.shape))
    nodes, stack = {}, [out]
    while stack:
        node = stack.pop()
        if node.node_id not in nodes:
            nodes[node.node_id] = node
            stack.extend(node._parents)
    inner = [n for n in nodes.values() if n._backward is not None]
    leaves = [n for n in nodes.values() if n._backward is None and n.requires_grad]
    assert len(inner) > 10 and all(n.grad is None for n in inner)
    assert {n.node_id for n in leaves} == {x.node_id} | {t.node_id for t in store.tensors()}
    assert all(n.grad is not None and n.grad.shape == n.shape for n in leaves)


def test_model_tape_numbers_every_node_after_its_parents():
    from evfusion.config import load_config, make_datasets
    from evfusion.fusion import Model
    from evfusion.trainer import cross_entropy
    # lvm off makes the encoders shallow and trainable, so they are on the tape
    cfg = load_config(None, {
        "data.samples_per_class": 1, "data.frames": 2, "data.resolution": [16, 16],
        "rgb_encoder.image_size": 16, "rgb_encoder.dim": 16, "rgb_encoder.heads": 2,
        "event_encoder.image_size": 16, "event_encoder.dim": 16, "event_encoder.heads": 2,
        "text.dim": 16, "text.heads": 2, "fusion.dim": 16, "fusion.heads": 2,
        "switches.lvm": False,
    })
    sample = make_datasets(cfg)[0][0]
    model = Model(cfg.model_config(), seed=0)
    loss = cross_entropy(model.forward(sample), sample.label)
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node.node_id not in nodes:
            nodes[node.node_id] = node
            stack.extend(node._parents)
    on_tape = {n.split(".")[0] for n in model.store.names()
               if model.store[n].node_id in nodes}
    assert {"rgb", "event", "text", "fusion"} <= on_tape
    assert all(p.node_id < n.node_id for n in nodes.values() for p in n._parents)


def test_backward_through_a_long_chain():
    x = Tensor([[1.0, -2.0]], requires_grad=True)
    y = x
    for _ in range(10_000):
        y = ad.add(y, x)
    grads = backward(y, np.ones(y.shape))
    assert np.array_equal(x.grad, [[10_001.0, 10_001.0]])
    assert set(grads) == {x.node_id}


def test_backward_leaf_with_consumers_combined_out_of_creation_order():
    x = Tensor([[3.0, -1.0]], requires_grad=True)
    c = product(x, Tensor([[5.0, 0.0], [0.0, 3.0]]))
    a = ad.add(x, x)
    b = product(x, Tensor([[-2.0, 0.0], [0.0, -1.0]]))
    # d/dx sum(b + a + c) = (-2, -1) + 2 + (5, 3)
    root = ad.add(ad.add(b, a), c)
    grads = backward(root, np.ones(root.shape))
    assert np.array_equal(x.grad, [[5.0, 4.0]])
    assert set(grads) == {x.node_id}


def test_no_grad_records_no_tape_and_restores_recording():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        out = ad.scaled_dot_attention(product(w, w), w, w, heads=2)
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        with ad.no_grad():
            pass
        assert product(w, w)._parents == ()
    with pytest.raises(ContractError):
        with ad.no_grad():
            raise ContractError("boom")
    recorded = product(w, w)
    assert recorded._parents[:2] == (w, w) and recorded.requires_grad


def test_batched_primitives_equal_per_matrix_calls():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 5, 8))
    w, b = Tensor(rng.normal(size=(8, 8))), Tensor(rng.normal(size=(1, 8)))
    table, cls = Tensor(rng.normal(size=(6, 8))), Tensor(rng.normal(size=(1, 8)))
    gain, bias = Tensor(rng.normal(size=(1, 8))), Tensor(rng.normal(size=(1, 8)))

    def forward(t):
        t = ad.add(ad.concat_rows(cls, ad.linear(t, w, b)), table)
        t = ad.layer_norm(t, gain, bias)
        return ad.scaled_dot_attention(t, t, t, heads=2)

    with ad.attention_weights() as sink:
        batch = forward(Tensor(x))
    assert batch.shape == (3, 6, 8) and len(sink) == 3 * 2
    for f in range(3):
        with ad.attention_weights() as one_sink:
            one = forward(Tensor(x[f]))
        assert np.array_equal(batch.data[f], one.data)
        for got, want in zip(sink[2 * f:2 * f + 2], one_sink):
            assert np.array_equal(got.data, want.data)
    flat = ad.reshape(batch, (-1, 8))
    assert flat.shape == (18, 8) and np.array_equal(flat.data[6:12], batch.data[1])


def test_batched_primitive_shape_contracts():
    x = Tensor(np.ones((2, 3, 4)))
    with pytest.raises(DimensionError):
        ad.add(x, Tensor(np.ones((3, 1))))  # no column broadcast
    with pytest.raises(DimensionError):
        ad.add(Tensor(np.ones((3, 4))), x)  # only b broadcasts
    with pytest.raises(DimensionError):
        ad.linear(x, Tensor(np.ones((3, 2))), Tensor(np.ones((1, 2))))
    with pytest.raises(DimensionError):
        ad.linear(x, Tensor(np.ones((4, 2))), Tensor(np.ones((1, 3))))
    with pytest.raises(DimensionError):
        ad.concat_rows(x, Tensor(np.ones((3, 2, 4))))
    with pytest.raises(DimensionError):
        ad.scaled_dot_attention(x, Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))))
    with pytest.raises(DimensionError):
        ad.reshape(x, (24,))


@pytest.mark.parametrize("op", [
    lambda x: ad.take_rows(x, [0]),
    lambda x: ad.cross_entropy_rows(x, np.array([0, 1])),
], ids=["take_rows", "cross_entropy_rows"])
def test_row_ops_without_batch_axes_reject_3d_input(op):
    # (2, 4, 4) would otherwise pass as rows of a batch axis
    with pytest.raises(DimensionError, match="takes 2-D tensors"):
        op(Tensor(np.ones((2, 4, 4))))


def test_linear_fault_hook_corrupts_the_weight_gradient():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(2, 3, 4)))
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
    mask = rng.normal(size=(2, 3, 2))
    out = lambda: ad.linear(x, w, b)
    assert finite_diff_check(out, [w, b], eps=1e-5, weights=mask) < 1e-8
    ad.set_backward_fault(True)
    try:
        assert finite_diff_check(out, [w], eps=1e-5, weights=mask) > 1e-1
    finally:
        ad.set_backward_fault(False)


# -- allocation-lean kernels against the expression-tree formulas ------------
# The primitives build their results in buffers they allocate themselves; the
# references below are the plain numpy expressions they stand for, with row and
# column sums as products with a ones or 1/n column, and every output and input
# gradient must equal them bit for bit. The oracle tests further down check
# the same primitives against the textbook formulas within a tolerance.

def reference_attention(q, k, v, heads, g):
    """Multi-head attention and its backward as one numpy expression per
    step: (output, dq, dk, dv). The scale multiplies q before q k^T and the
    small dq and dk after their products; rowsum(dp * p) is taken as the
    equal rowsum(g * out) of each head."""
    def split(x):
        return x.reshape(*x.shape[:-1], heads, -1).swapaxes(-3, -2)

    def merge(x):
        return x.swapaxes(-3, -2).reshape(*x.shape[:-3], x.shape[-2], -1)

    c = 1.0 / math.sqrt(q.shape[-1] // heads)
    qh, kh, vh, gh = split(q), split(k), split(v), split(g)
    logits = split(q * c) @ kh.swapaxes(-1, -2)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / (e @ np.ones((k.shape[-2], 1)))
    out = merge(p @ vh)
    dp = gh @ vh.swapaxes(-1, -2)
    ds = p * (dp - split(g * out) @ np.ones((v.shape[-1] // heads, 1)))
    return (out, merge(ds @ kh) * c, merge(ds.swapaxes(-1, -2) @ qh) * c,
            merge(p.swapaxes(-1, -2) @ gh))


def reference_layer_norm(x, gain, bias, g, eps=1e-5):
    n = x.shape[-1]
    mean, ones = np.full((n, 1), 1.0 / n), np.ones((1, g.size // n))
    xc = x - x @ mean
    inv = 1.0 / np.sqrt((xc * xc) @ mean + eps)
    xhat = xc * inv
    gy = g * gain
    mean_gy = gy @ mean
    mean_gy_xhat = (gy * xhat) @ mean
    return (xhat * gain + bias, inv * (gy - mean_gy - xhat * mean_gy_xhat),
            ones @ (g * xhat).reshape(-1, n), ones @ g.reshape(-1, n))


def reference_gelu(x, g):
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * (x * x * x)))
    dinner = c * (1.0 + 3 * 0.044715 * (x * x))
    dx = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
    return 0.5 * x * (1.0 + t), g * dx


def reference_linear(x, w, b, g):
    g2 = g.reshape(-1, g.shape[-1])
    return (x @ w + b, g @ w.T, x.reshape(-1, x.shape[-1]).T @ g2,
            np.ones((1, g2.shape[0])) @ g2)


def reference_cross_entropy_rows(x, labels, g):
    rows = np.arange(len(x))
    m = x.max(axis=1, keepdims=True)
    soft = np.exp(x - m)
    z = soft.sum(axis=1, keepdims=True)
    grad = g * (soft / z)
    grad[rows, labels] -= g[:, 0]
    return (m + np.log(z)) - x[rows, labels][:, None], grad


def forward_and_grads(op, arrays, g):
    """op's output and the gradient of sum(output * g) for each input."""
    ins = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*ins)
    backward(out, g)
    return [out.data] + [t.grad for t in ins]


def assert_bit_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("tq,tk", [(1, 6), (7, 11), (40, 40)])
def test_attention_bit_equals_reference(heads, lead, tq, tk):
    rng = np.random.default_rng(tq * 10 + heads)
    q, k = rng.normal(scale=2.0, size=lead + (tq, 16)), rng.normal(size=lead + (tk, 16))
    v, g = rng.normal(size=lead + (tk, 8)), rng.normal(size=lead + (tq, 8))
    got = forward_and_grads(lambda *t: ad.scaled_dot_attention(*t, heads=heads), [q, k, v], g)
    assert_bit_equal(got, reference_attention(q, k, v, heads, g))


@pytest.mark.parametrize("lead", [(), (3,)])
def test_layer_norm_gelu_linear_bit_equal_reference(lead):
    rng = np.random.default_rng(len(lead))
    x, g = rng.normal(scale=3.0, size=lead + (9, 16)), rng.normal(size=lead + (9, 16))
    gain, bias = rng.normal(size=(1, 16)), rng.normal(size=(1, 16))
    assert_bit_equal(forward_and_grads(ad.layer_norm, [x, gain, bias], g),
                     reference_layer_norm(x, gain, bias, g))
    assert_bit_equal(forward_and_grads(ad.gelu, [x], g), reference_gelu(x, g))
    w, b, g5 = rng.normal(size=(16, 5)), rng.normal(size=(1, 5)), rng.normal(size=lead + (9, 5))
    assert_bit_equal(forward_and_grads(ad.linear, [x, w, b], g5),
                     reference_linear(x, w, b, g5))


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_cross_entropy_rows_bit_equals_reference(dtype):
    # the leaf gradient of float32 logits is their float32 gradient, upcast
    rng = np.random.default_rng(31)
    x = rng.normal(scale=3.0, size=(7, 5)).astype(dtype)
    g = rng.normal(size=(7, 1)).astype(dtype)  # negative rows too
    labels = np.array([4, 0, 2, 2, 1, 3, 4])
    loss, grad = reference_cross_entropy_rows(x, labels, g)
    assert_bit_equal(forward_and_grads(lambda t: ad.cross_entropy_rows(t, labels), [x], g),
                     [loss, grad.astype(np.float64)])


def test_primitives_write_into_no_array_they_do_not_own(monkeypatch):
    """Every primitive_checks entry, with its inputs, its weights, each
    upstream gradient, each output and every array a backward rule keeps made
    read-only: an in-place write into any of them raises."""
    from evfusion import gradcheck

    def freeze(a):
        if isinstance(a, Tensor):
            a = a.data
        if isinstance(a, np.ndarray):
            a.flags.writeable = False

    make = ad._make

    def frozen_make(data, parents, rule):
        def checked_rule(g):
            freeze(g)
            return rule(g)
        for cell in rule.__closure__ or ():
            contents = cell.cell_contents
            for item in contents if isinstance(contents, (tuple, list)) else (contents,):
                freeze(item)
        out = make(data, parents, checked_rule)
        freeze(out)
        return out

    calls = []

    def run_read_only(f, params, eps, weights):
        calls.append(len(params))
        for p in params:
            p.zero_grad()
            freeze(p)
        freeze(weights)
        backward(f(), weights)
        assert all(p.grad is not None and np.all(np.isfinite(p.grad)) for p in params)
        return 0.0

    monkeypatch.setattr(ad, "_make", frozen_make)
    monkeypatch.setattr(gradcheck, "finite_diff_check", run_read_only)
    results = gradcheck.primitive_checks(seed=5)
    assert len(calls) == len(results) > 20 and set(results.values()) == {0.0}


def test_backward_adds_into_no_shared_gradient():
    # add hands one array to both of its parents; p1 then gets two more
    # contributions, views from concat_rows(p1, p1), so the first sum must be
    # a new array
    p1 = Tensor([[1.0, -2.0, 3.0]], requires_grad=True)
    p2 = Tensor([[4.0, 5.0, -6.0]], requires_grad=True)
    twice = ad.concat_rows(p1, p1)
    both = ad.add(p1, p2)  # created later, so its gradient reaches p1 first
    seed = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0], [100.0, 200.0, 300.0]])
    backward(ad.concat_rows(twice, both), seed)
    assert np.array_equal(p1.grad, [[111.0, 222.0, 333.0]])
    assert np.array_equal(p2.grad, [[100.0, 200.0, 300.0]])
    assert np.array_equal(seed[2], [100.0, 200.0, 300.0])


def test_batched_row_ops_equal_per_matrix_calls_with_gradients():
    rng = np.random.default_rng(21)
    x, g_slice, g_mean = (rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 2, 4)),
                          rng.normal(size=(3, 1, 4)))
    for op, g in ((lambda t: ad.slice_rows(t, 1, 3), g_slice), (ad.mean_rows, g_mean)):
        batch = forward_and_grads(op, [x], g)
        for f in range(3):
            one = forward_and_grads(op, [x[f]], g[f])
            assert_bit_equal([a[f] for a in batch], one)


def test_attention_broadcast_query_equals_per_matrix_calls_with_gradients():
    rng = np.random.default_rng(22)
    q, k, v = rng.normal(size=(4, 8)), rng.normal(size=(3, 6, 8)), rng.normal(size=(3, 6, 8))
    g = rng.normal(size=(3, 4, 8))
    op = lambda *t: ad.scaled_dot_attention(*t, heads=2)
    with ad.attention_weights() as sink:
        out, gq, gk, gv = forward_and_grads(op, [q, k, v], g)
    assert out.shape == (3, 4, 8) and gq.shape == q.shape and len(sink) == 3 * 2
    gq_sum = np.zeros_like(q)
    for f in range(3):
        with ad.attention_weights() as one_sink:
            one = forward_and_grads(op, [q, k[f], v[f]], g[f])
        assert_bit_equal([out[f], gk[f], gv[f]], [one[0], one[2], one[3]])
        assert_bit_equal([w.data for w in sink[2 * f:2 * f + 2]], [w.data for w in one_sink])
        gq_sum += one[1]  # the batch axis is summed in order
    assert_bit_equal([gq], [gq_sum])


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_batched_primitives_equal_per_matrix_calls_with_gradients(dtype):
    """A batch of three equals per-matrix calls in outputs, attention weights
    and input gradients bit for bit, and a batch of one equals the 2-D call
    in every gradient, the gain, bias and weight gradients included: the
    ones-vector products of layer norm, attention and linear do not change
    with the batch size. The batch's parameter gradients sum the per-matrix
    ones up to rounding."""
    rng = np.random.default_rng(12)
    x, g = rng.normal(size=(3, 5, 8)).astype(dtype), rng.normal(size=(3, 6, 8)).astype(dtype)
    params = [rng.normal(size=shape).astype(dtype)
              for shape in ((8, 8), (1, 8), (6, 8), (1, 8), (1, 8), (1, 8))]

    def run(xs, gs):
        """Output, attention weights, input gradient and parameter gradients."""
        t = Tensor(xs, requires_grad=True)
        w, b, table, cls, gain, bias = ps = [Tensor(p, requires_grad=True) for p in params]
        with ad.attention_weights() as sink:
            y = ad.add(ad.concat_rows(cls, ad.linear(t, w, b)), table)
            out = ad.scaled_dot_attention(ad.layer_norm(y, gain, bias), y, y, heads=2)
        backward(out, gs)
        assert out.data.dtype == dtype
        return out.data, [a.data for a in sink], t.grad, [p.grad for p in ps]

    batch = run(x, g)
    per_matrix = [run(x[f], g[f]) for f in range(3)]
    for f, (out, weights, gx, grads) in enumerate(per_matrix):
        assert_bit_equal([batch[0][f], batch[2][f]], [out, gx])
        assert_bit_equal(batch[1][2 * f:2 * f + 2], weights)
        one_out, one_weights, one_gx, one_grads = run(x[f:f + 1], g[f:f + 1])
        assert_bit_equal([one_out[0], one_gx[0]] + one_weights + one_grads,
                         [out, gx] + weights + grads)
    tol = 1e-12 if dtype == np.float64 else 1e-5
    for got, parts in zip(batch[3], zip(*(one[3] for one in per_matrix))):
        want = sum(parts)
        assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["+inf", "-inf", "nan"])
@pytest.mark.parametrize("where", ["q", "k"])
def test_attention_raises_on_non_finite_logits(where, bad):
    # the scale multiplies q before q k^T: a bad entry of either operand must
    # still reach the check on the logits
    rng = np.random.default_rng(23)
    arrays = {"q": rng.normal(size=(3, 8)), "k": rng.normal(size=(5, 8)),
              "v": rng.normal(size=(5, 8))}
    arrays[where][1, 2] = bad
    with pytest.raises(NumericError, match="non-finite logits"):
        ad.scaled_dot_attention(*(Tensor(arrays[n]) for n in "qkv"), heads=2)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_attention_raises_when_finite_q_and_k_overflow_the_logits():
    q, k = np.ones((2, 4)), np.ones((3, 4))
    q[1, 0], k[2, 0] = 1e200, -1e200
    with pytest.raises(NumericError, match="non-finite logits"):
        ad.scaled_dot_attention(Tensor(q), Tensor(k), Tensor(k))


# -- the primitives against textbook formulas and numpy's reductions -----------

def textbook_attention(q, k, v, heads, g):
    """softmax(q k^T c) v head by head and its gradients from
    dS = P∘(dP − rowsum(dP∘P))·c with numpy's .sum and .max; q may have
    fewer leading axes than k and v, and its gradient is summed over the
    others: (output, dq, dk, dv)."""
    hd, hv = q.shape[-1] // heads, v.shape[-1] // heads
    c = 1.0 / math.sqrt(hd)
    parts = []
    for h in range(heads):
        qh, kh = q[..., h * hd:(h + 1) * hd], k[..., h * hd:(h + 1) * hd]
        vh, gh = v[..., h * hv:(h + 1) * hv], g[..., h * hv:(h + 1) * hv]
        logits = (qh @ np.swapaxes(kh, -1, -2)) * c
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        dp = gh @ np.swapaxes(vh, -1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * c
        dq = ds @ kh
        parts.append((p @ vh, dq.sum(axis=tuple(range(dq.ndim - q.ndim))),
                      np.swapaxes(ds, -1, -2) @ qh, np.swapaxes(p, -1, -2) @ gh))
    return [np.concatenate(xs, axis=-1) for xs in zip(*parts)]


def textbook_layer_norm(x, gain, bias, g, eps=1e-5):
    n = x.shape[-1]
    std = np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - x.mean(axis=-1, keepdims=True)) / std
    gy = g * gain
    dx = (gy - gy.mean(axis=-1, keepdims=True)
          - xhat * (gy * xhat).mean(axis=-1, keepdims=True)) / std
    return (xhat * gain + bias, dx, (g * xhat).reshape(-1, n).sum(axis=0, keepdims=True),
            g.reshape(-1, n).sum(axis=0, keepdims=True))


def textbook_linear(x, w, b, g):
    x2, g2 = x.reshape(-1, x.shape[-1]), g.reshape(-1, g.shape[-1])
    return x @ w + b, g @ w.T, np.einsum("ri,rj->ij", x2, g2), g2.sum(axis=0, keepdims=True)


def assert_close(got, want, tol):
    """Each array within tol of the oracle's, relative to its largest entry."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= tol * max(1.0, np.max(np.abs(b)))


@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("layout", ["2d", "batch", "broadcast-q"])
@pytest.mark.parametrize("tq", [1, 4, 40])
def test_attention_matches_the_textbook_formulas(heads, layout, tq):
    rng = np.random.default_rng(tq * 10 + heads)
    lead = () if layout == "2d" else (3,)
    q = rng.normal(scale=2.0, size=(() if layout == "broadcast-q" else lead) + (tq, 16))
    k, v = rng.normal(size=lead + (11, 16)), rng.normal(size=lead + (11, 8))
    g = rng.normal(size=lead + (tq, 8))
    got = forward_and_grads(lambda *t: ad.scaled_dot_attention(*t, heads=heads), [q, k, v], g)
    assert_close(got, textbook_attention(q, k, v, heads, g), 1e-12)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("lead", [(), (3,), (2, 4)])
def test_layer_norm_and_linear_match_numpy_reductions(dtype, tol, lead):
    # float32 kernels against the float64 oracle of the same float32 inputs
    rng = np.random.default_rng(len(lead))
    x = (rng.normal(size=lead + (9, 64)) * 3.0 + 1.0).astype(dtype)
    g = rng.normal(size=lead + (9, 64)).astype(dtype)
    gain, bias = rng.normal(size=(1, 64)).astype(dtype), rng.normal(size=(1, 64)).astype(dtype)
    w, b = rng.normal(size=(64, 5)).astype(dtype), rng.normal(size=(1, 5)).astype(dtype)
    g5 = rng.normal(size=lead + (9, 5)).astype(dtype)
    f64 = lambda *arrays: [a.astype(np.float64) for a in arrays]
    assert_close(forward_and_grads(ad.layer_norm, [x, gain, bias], g),
                 textbook_layer_norm(*f64(x, gain, bias, g)), tol)
    assert_close(forward_and_grads(ad.linear, [x, w, b], g5),
                 textbook_linear(*f64(x, w, b, g5)), tol)


# -- the node every primitive makes ------------------------------------------------
# Each call takes a maker t(*shape) of input tensors; concat_rows runs once with
# equal leading axes and once with a row broadcast over them.

PRIMITIVE_CALLS = {
    "add": lambda t: ad.add(t(2, 3, 4), t(1, 4)),
    "linear": lambda t: ad.linear(t(2, 3, 4), t(4, 5), t(1, 5)),
    "gelu": lambda t: ad.gelu(t(3, 4)),
    "cross_entropy_rows": lambda t: ad.cross_entropy_rows(t(3, 4), np.array([0, 3, 1])),
    "layer_norm": lambda t: ad.layer_norm(t(2, 3, 4), t(1, 4), t(1, 4)),
    "concat_rows": lambda t: ad.concat_rows(t(2, 1, 4), t(2, 3, 4)),
    "concat_rows-broadcast": lambda t: ad.concat_rows(t(1, 4), t(2, 3, 4)),
    "reshape": lambda t: ad.reshape(t(2, 3, 4), (6, 4)),
    "slice_rows": lambda t: ad.slice_rows(t(2, 3, 4), 1, 3),
    "mean_rows": lambda t: ad.mean_rows(t(2, 3, 4)),
    "take_rows": lambda t: ad.take_rows(t(5, 4), [[0, 4], [2, 2]]),
    "scaled_dot_attention": lambda t: ad.scaled_dot_attention(t(3, 4), t(2, 5, 4), t(2, 5, 4),
                                                              heads=2),
}


def test_primitive_calls_cover_every_primitive():
    made = {name for name, f in vars(ad).items()
            if inspect.isfunction(f) and not name.startswith("_")
            and "_make(" in inspect.getsource(f)}
    assert made == {name.split("-")[0] for name in PRIMITIVE_CALLS}


@pytest.mark.parametrize("tape", [True, False], ids=["tape", "no_grad"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("name", sorted(PRIMITIVE_CALLS))
def test_every_primitive_makes_a_node_of_its_input_dtype_in_creation_order(name, dtype, tape):
    rng = np.random.default_rng(0)
    created = []  # every tensor, in the order it was made

    def t(*shape):
        created.append(Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True))
        return created[-1]

    with contextlib.nullcontext() if tape else ad.no_grad():
        for _ in range(2):
            out = PRIMITIVE_CALLS[name](t)
            created.append(out)
            assert type(out.data) is np.ndarray and out.data.ndim >= 2
            assert out.data.dtype == dtype and out.grad is None
            assert out.requires_grad is tape
            assert (out._parents != (), out._backward is not None) == (tape, tape)
    ids = [x.node_id for x in created]
    assert all(a < b for a, b in zip(ids, ids[1:])), ids
