"""Gradient verification suites: per-primitive finite-difference checks
and an end-to-end check of the full model loss."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, finite_diff_check
from .config import load_config, make_datasets
from .fusion import Model
from .trainer import cross_entropy

PRIMITIVE_EPS = 1e-5
PRIMITIVE_TOL = 1e-6
END_TO_END_EPS = 1e-4
END_TO_END_TOL = 1e-3


def _rand(rng, *shape):
    return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)


def primitive_checks(seed: int = 0) -> dict[str, float]:
    """Max relative finite-difference error for every differentiable
    primitive on random inputs in [-1, 1]; the `_3d` entries give the
    primitive a leading batch axis, `_broadcast_q` gives attention one
    query matrix for a batch of keys and values, and `take_rows_2d` gathers
    a (2, 3) index array."""
    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    x, y = _rand(rng, 3, 4), _rand(rng, 3, 4)
    w = rng.uniform(-1, 1, (3, 4))
    results["add"] = finite_diff_check(
        lambda: ad.add(x, y), [x, y], PRIMITIVE_EPS, weights=w)

    row = Tensor(rng.uniform(-1, 1, (1, 4)), requires_grad=True)
    results["add_row_broadcast"] = finite_diff_check(
        lambda: ad.add(x, row), [x, row], PRIMITIVE_EPS, weights=w)

    results["gelu"] = finite_diff_check(
        lambda: ad.gelu(x), [x], PRIMITIVE_EPS, weights=w)

    w1 = rng.uniform(-1, 1, (3, 1))
    results["cross_entropy_rows"] = finite_diff_check(
        lambda: ad.cross_entropy_rows(x, np.array([3, 0, 3])), [x], PRIMITIVE_EPS,
        weights=w1)

    gain = Tensor(rng.uniform(0.5, 1.5, (1, 4)), requires_grad=True)
    bias = _rand(rng, 1, 4)
    results["layer_norm"] = finite_diff_check(
        lambda: ad.layer_norm(x, gain, bias), [x, gain, bias], PRIMITIVE_EPS, weights=w)

    w6 = rng.uniform(-1, 1, (6, 4))
    results["concat_rows"] = finite_diff_check(
        lambda: ad.concat_rows(x, y), [x, y], PRIMITIVE_EPS, weights=w6)
    results["slice_rows"] = finite_diff_check(
        lambda: ad.slice_rows(x, 1, 3), [x], PRIMITIVE_EPS, weights=w[:2])

    results["mean_rows"] = finite_diff_check(
        lambda: ad.mean_rows(x), [x], PRIMITIVE_EPS, weights=w[:1])

    table = _rand(rng, 5, 4)
    results["take_rows"] = finite_diff_check(
        lambda: ad.take_rows(table, [0, 2, 2]), [table], PRIMITIVE_EPS, weights=w)

    q, k, v = _rand(rng, 2, 4), _rand(rng, 3, 4), _rand(rng, 3, 5)
    wq = rng.uniform(-1, 1, (2, 5))
    results["scaled_dot_attention"] = finite_diff_check(
        lambda: ad.scaled_dot_attention(q, k, v), [q, k, v], PRIMITIVE_EPS, weights=wq)
    q4, k4, v4 = _rand(rng, 3, 8), _rand(rng, 5, 8), _rand(rng, 5, 12)
    w4 = rng.uniform(-1, 1, (3, 12))
    results["scaled_dot_attention_4_heads"] = finite_diff_check(
        lambda: ad.scaled_dot_attention(q4, k4, v4, heads=4), [q4, k4, v4], PRIMITIVE_EPS,
        weights=w4)

    lw, lb = _rand(rng, 4, 2), _rand(rng, 1, 2)
    results["linear"] = finite_diff_check(
        lambda: ad.linear(x, lw, lb), [x, lw, lb], PRIMITIVE_EPS, weights=w[:, :2])

    x3, table3, w3 = _rand(rng, 2, 3, 4), _rand(rng, 3, 4), rng.uniform(-1, 1, (2, 3, 4))
    results["linear_3d"] = finite_diff_check(
        lambda: ad.linear(x3, lw, lb), [x3, lw, lb], PRIMITIVE_EPS, weights=w3[..., :2])
    results["add_3d_broadcast"] = finite_diff_check(
        lambda: ad.add(ad.add(x3, table3), row), [x3, table3, row], PRIMITIVE_EPS,
        weights=w3)
    results["layer_norm_3d"] = finite_diff_check(
        lambda: ad.layer_norm(x3, gain, bias), [x3, gain, bias], PRIMITIVE_EPS, weights=w3)
    w7 = rng.uniform(-1, 1, (2, 7, 4))
    results["concat_rows_3d_broadcast"] = finite_diff_check(
        lambda: ad.concat_rows(row, x3, y), [row, x3, y], PRIMITIVE_EPS, weights=w7)
    results["reshape"] = finite_diff_check(
        lambda: ad.reshape(x3, (6, 4)), [x3], PRIMITIVE_EPS, weights=w3.reshape(6, 4))
    q3, k3, v3 = _rand(rng, 2, 3, 8), _rand(rng, 2, 5, 8), _rand(rng, 2, 5, 12)
    w43 = rng.uniform(-1, 1, (2, 3, 12))
    results["scaled_dot_attention_3d_4_heads"] = finite_diff_check(
        lambda: ad.scaled_dot_attention(q3, k3, v3, heads=4), [q3, k3, v3], PRIMITIVE_EPS,
        weights=w43)
    results["slice_rows_3d"] = finite_diff_check(
        lambda: ad.slice_rows(x3, 1, 3), [x3], PRIMITIVE_EPS, weights=w3[:, :2])
    results["mean_rows_3d"] = finite_diff_check(
        lambda: ad.mean_rows(x3), [x3], PRIMITIVE_EPS, weights=w3[:, :1])
    results["scaled_dot_attention_broadcast_q"] = finite_diff_check(
        lambda: ad.scaled_dot_attention(q4, k3, v3, heads=4), [q4, k3, v3], PRIMITIVE_EPS,
        weights=w43)
    results["take_rows_2d"] = finite_diff_check(
        lambda: ad.take_rows(table, [[4, 0, 2], [2, 2, 1]]), [table], PRIMITIVE_EPS,
        weights=w3)
    return results


def end_to_end_check(seed: int = 0) -> tuple[float, list[str]]:
    """Finite-difference check of the full model loss on 32 sampled
    trainable parameters spanning every sub-network, 2 coordinates each.

    Returns (max relative error, names of the checked parameters)."""
    cfg = load_config(None, {
        "data.samples_per_class": 1,
        "data.frames": 2,
        "data.resolution": [16, 16],
        "rgb_encoder.image_size": 16, "rgb_encoder.dim": 32,
        "rgb_encoder.depth": 1, "rgb_encoder.mlp_ratio": 2.0,
        "event_encoder.image_size": 16, "event_encoder.dim": 32,
        "event_encoder.depth": 1, "event_encoder.mlp_ratio": 2.0,
        "text.dim": 32, "text.mlp_ratio": 2.0, "text.max_len": 8,
        "fusion.dim": 32, "fusion.mlp_ratio": 2.0,
        # the check samples encoder parameters, so they must take gradients
        "rgb_encoder.frozen": False, "event_encoder.frozen": False,
        "seed": seed,
    })
    train, _ = make_datasets(cfg)
    sample = train[0]
    model = Model(cfg.model_config(), seed=cfg.seed)

    rng = np.random.default_rng(seed)
    names = [n for n, _ in model.store.trainable_items()]
    groups: dict[str, list[str]] = {}
    for n in names:
        groups.setdefault(n.split(".")[0], []).append(n)
    # one guaranteed pick per sub-network, the rest uniform
    chosen: list[str] = [g[rng.integers(len(g))] for g in groups.values()]
    pool = [n for n in names if n not in chosen]
    extra = rng.choice(len(pool), size=max(0, 32 - len(chosen)), replace=False)
    chosen.extend(pool[i] for i in extra)

    def loss_fn():
        logits = model.forward(sample)
        return cross_entropy(logits, sample.label)

    err = finite_diff_check(loss_fn, [model.store[n] for n in chosen],
                            eps=END_TO_END_EPS, rng=rng,
                            max_coords_per_param=2)
    return err, chosen


def run_gradcheck(seed: int = 0, inject_fault: bool = False) -> dict:
    """Full verification gate; returns a report dict with per-primitive
    errors, the end-to-end error, and an overall pass flag."""
    ad.set_backward_fault(inject_fault)
    try:
        prim = primitive_checks(seed)
        e2e_err, checked = end_to_end_check(seed)
    finally:
        ad.set_backward_fault(False)
    failures = [name for name, err in prim.items() if err >= PRIMITIVE_TOL]
    if e2e_err >= END_TO_END_TOL:
        failures.append("end_to_end")
    return {
        "primitives": prim,
        "primitive_tolerance": PRIMITIVE_TOL,
        "end_to_end_error": e2e_err,
        "end_to_end_tolerance": END_TO_END_TOL,
        "checked_parameters": checked,
        "failures": failures,
        "passed": not failures,
    }
