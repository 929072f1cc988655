"""Acceptance gate: one test per release criterion.

Each test is numbered; the conftest hook prints an `ACCEPTANCE n:
PASS/FAIL` line per criterion so a release run can be audited from the
log alone.  Budgets are asserted with the wall clock, and the learning
criteria pin the exact corpus, optimizer, and schedule they were
calibrated with."""

import dataclasses
import json
import time

import numpy as np

import mixformer as mx
from mixformer import autodiff as ad
from mixformer.autodiff import grad_check
from mixformer.cli import main
from mixformer.trainer import OptimizerConfig, batch_loss, config_diff, run_ablation

from helpers import random_config, traced_forward_flops


def elapsed_under(t0: float, budget_s: float) -> None:
    took = time.perf_counter() - t0
    assert took < budget_s, f"budget {budget_s}s exceeded: {took:.1f}s"


# ----------------------------------------------------------------------
# 1. Head mixing is an exact, norm-preserving involution.
# ----------------------------------------------------------------------


def test_criterion_01_head_mixing_exact():
    t0 = time.perf_counter()
    hand = ad.Tensor(np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]))
    np.testing.assert_array_equal(
        mx.head_mixing(hand).data,
        np.array([[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]]),
    )
    rng = np.random.default_rng(1)
    for n, d in [(2, 4), (3, 9), (4, 8), (8, 16)]:
        x = rng.standard_normal((n, d))
        mixed = mx.head_mixing(ad.Tensor(x)).data
        np.testing.assert_array_equal(mx.head_mixing(ad.Tensor(mixed)).data, x)
        flat_in = np.sort(x.ravel())
        flat_out = np.sort(mixed.ravel())
        np.testing.assert_array_equal(flat_out, flat_in)  # entry permutation
        assert np.sum(flat_out**2) == np.sum(flat_in**2)  # Frobenius norm
    elapsed_under(t0, 1.0)


# ----------------------------------------------------------------------
# 2. The decoupling mask: user rows never read item-sourced chunks.
# ----------------------------------------------------------------------


def test_criterion_02_mask_semantics_exhaustive():
    t0 = time.perf_counter()
    for n in range(1, 9):
        for n_user in range(0, n + 1):
            for chunk in (1, 2, 3):
                mask = mx.build_mask(n, n_user, chunk * n)
                assert mask.shape == (n, chunk * n)
                for i in range(n):
                    for j in range(chunk * n):
                        blocked = i < n_user and j >= n_user * chunk
                        assert mask[i, j] == (0.0 if blocked else 1.0), (
                            n, n_user, chunk, i, j,
                        )
    elapsed_under(t0, 1.0)


# ----------------------------------------------------------------------
# 3. User-side activations never depend on item-side embeddings.
# ----------------------------------------------------------------------


def _random_decoupled(rng):
    n_heads = int(rng.choice([2, 4, 8]))
    head_dim = int(n_heads * rng.integers(1, 4))
    du, dg = int(rng.integers(4, 24)), int(rng.integers(4, 24))
    t = int(rng.choice([0, 2, 5]))
    n_u, n_g = mx.allocate_heads(du, dg, n_heads)
    cfg = mx.ModelConfig(
        n_heads=n_heads, head_dim=head_dim,
        n_blocks=int(rng.integers(1, 3)), max_seq_len=max(t, 1),
        decoupling=mx.DecoupleConfig(True, n_u, n_g),
    )
    schema = mx.schema_from_widths(du, dg, 6, max(t, 1))
    req = mx.Request(
        user_id=0, user_nonseq=[0],
        actions=np.zeros((t, 1), dtype=np.int64),
        candidates=np.zeros((3, 1), dtype=np.int64),
    )
    return cfg, schema, req


def _state_arrays(state):
    yield state.e_user
    yield state.x0_user
    if state.seq is not None:
        yield state.seq
    for layer in state.layers:
        for arr in (layer.mix_src_user, layer.keys, layer.values,
                    layer.q_user, layer.z_user, layer.out_user):
            if arr is not None:
                yield arr
    yield state.out_user


def test_criterion_03_item_independence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    for trial in range(50):
        cfg, schema, req = _random_decoupled(rng)
        store = mx.init_parameters(schema, cfg, seed=trial)
        before = [a.copy() for a in _state_arrays(
            mx.compute_shared_user_state(req, store)
        )]
        for field in schema.item_fields():
            table = store.tables[field.name]
            table.weight.data += rng.standard_normal(table.weight.data.shape)
        after = list(_state_arrays(mx.compute_shared_user_state(req, store)))
        assert len(before) == len(after)
        for a, b in zip(before, after):
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-12, (trial, cfg)

    # non-vacuity: the same probe applied to a user table must move the state
    cfg, schema, req = _random_decoupled(rng)
    store = mx.init_parameters(schema, cfg, seed=99)
    before = [a.copy() for a in _state_arrays(
        mx.compute_shared_user_state(req, store)
    )]
    user_field = schema.user_fields()[0]
    store.tables[user_field.name].weight.data += 1.0
    after = list(_state_arrays(mx.compute_shared_user_state(req, store)))
    assert any(not np.array_equal(a, b) for a, b in zip(before, after))
    elapsed_under(t0, 30.0)


# ----------------------------------------------------------------------
# 4. Request-level batching computes exactly what K single calls compute.
# ----------------------------------------------------------------------


def test_criterion_04_rlb_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    schema = mx.schema_from_widths(12, 10, 6, 8)
    n_u, n_g = mx.allocate_heads(12, 10, 4)
    cfg = mx.ModelConfig(
        n_heads=4, head_dim=32, n_blocks=2, max_seq_len=8,
        decoupling=mx.DecoupleConfig(True, n_u, n_g),
    )
    store = mx.init_parameters(schema, cfg, seed=0)
    for trial in range(50):
        t = int(rng.integers(0, 9))
        base = mx.Request(
            user_id=0, user_nonseq=[0],
            actions=np.zeros((t, 1), dtype=np.int64),
            candidates=np.zeros((1, 1), dtype=np.int64),
        )
        for k in (1, 2, 8, 32):
            req = dataclasses.replace(
                base, candidates=np.zeros((k, 1), dtype=np.int64)
            )
            batched = mx.rlb_forward(req, store)
            single = np.stack(
                [mx.forward_decoupled(req, i, store) for i in range(k)]
            )
            np.testing.assert_allclose(batched, single, rtol=1e-9, atol=1e-12)
    elapsed_under(t0, 60.0)


# ----------------------------------------------------------------------
# 5. A zero-user-head mask degenerates to the unmasked model, bit for bit.
# ----------------------------------------------------------------------


def test_criterion_05_degenerate_mask_bit_identical(tiny_schema):
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    from conftest import random_request

    for post_ln in (False, True):
        cfg = mx.ModelConfig(
            n_heads=2, head_dim=8, n_blocks=2, max_seq_len=6,
            ablations=mx.AblationFlags(post_ln=post_ln),
        )
        store = mx.init_parameters(tiny_schema, cfg, seed=5)
        all_pass = mx.build_mask(cfg.n_heads, 0, cfg.head_dim)
        assert np.all(all_pass == 1.0)
        for _ in range(5):
            req = random_request(tiny_schema, rng)
            for i in range(req.n_candidates):
                masked = mx.forward(req, i, store, mask=all_pass)
                plain = mx.forward(req, i, store)
                np.testing.assert_array_equal(masked, plain)
    elapsed_under(t0, 10.0)


# ----------------------------------------------------------------------
# 6. Analytic gradients of the whole model agree with finite differences.
# ----------------------------------------------------------------------


def test_criterion_06_full_model_gradients(tiny_schema):
    t0 = time.perf_counter()
    cfg = mx.ModelConfig(n_heads=2, head_dim=4, n_blocks=2, max_seq_len=3)
    rng = np.random.default_rng(66)

    labels = (rng.random((2, 2)) < 0.5).astype(np.float64)
    req = mx.Request(
        user_id=3,
        user_nonseq=np.array([3, 1], dtype=np.int64),
        actions=np.stack(
            [rng.integers(13, size=3), rng.integers(3, size=3)], axis=1
        ).astype(np.int64),
        candidates=np.stack(
            [rng.integers(13, size=2), rng.integers(4, size=2)], axis=1
        ).astype(np.int64),
        labels=labels,
    )
    batch = mx.stack_requests([req])

    worst = 0.0
    for seed in range(10):
        store = mx.init_parameters(tiny_schema, cfg, seed=seed)
        dense_names = sorted(store.dense)
        table_names = sorted(store.tables)

        def loss_fn(*tensors):
            for name, tensor in zip(dense_names, tensors):
                store.dense[name] = tensor
            for name, tensor in zip(table_names, tensors[len(dense_names):]):
                store.tables[name].weight = tensor
            return batch_loss(batch, store)

        inputs = [store.dense[n].data.copy() for n in dense_names]
        inputs += [store.tables[n].weight.data.copy() for n in table_names]
        report = grad_check(loss_fn, inputs, tolerance=1e-4, seed=seed, max_coords=6)
        worst = max(worst, report.max_rel_error)
        assert report.passed, f"seed {seed}: max rel err {report.max_rel_error:.2e}"
    assert worst < 1e-4
    elapsed_under(t0, 60.0)


# ----------------------------------------------------------------------
# 7. The closed-form meter equals the execution trace, and cost is
#    affine in sequence length.
# ----------------------------------------------------------------------


def test_criterion_07_meter_equals_trace():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    for trial in range(22):
        cfg, schema, t = random_config(rng)
        assert (
            mx.count_flops(cfg, schema, t, n_candidates=1).total
            == traced_forward_flops(cfg, schema, t, seed=trial)
        ), (trial, cfg)

    cfg = mx.ModelConfig(n_heads=4, head_dim=32, n_blocks=2, max_seq_len=64)
    schema = mx.schema_from_widths(20, 12, 6, 64)
    f = lambda t: mx.count_flops(cfg, schema, t, n_candidates=1).total
    slope, know = (f(32) - f(8)) // (32 - 8), f(8)
    assert f(20) == know + slope * (20 - 8)
    elapsed_under(t0, 30.0)


# ----------------------------------------------------------------------
# 8. Serving-cost savings at the pinned production shape.
# ----------------------------------------------------------------------


def test_criterion_08_production_savings_bracket():
    t0 = time.perf_counter()
    savings, report, assumptions = mx.production_savings()
    assert assumptions["n_heads"] == 16
    assert assumptions["n_blocks"] == 4
    assert assumptions["head_dim"] == 768
    assert assumptions["seq_len"] == 512
    assert assumptions["savings_mode"] == "request-shared-sequence"
    assert 0.25 <= savings <= 0.45, savings
    assert report.n_params > 0
    elapsed_under(t0, 5.0)


# ----------------------------------------------------------------------
# 9. The model beats the pooled baseline and respects the oracle ceiling.
# ----------------------------------------------------------------------


def test_criterion_09_learning_sanity():
    t0 = time.perf_counter()
    spec = mx.GeneratorSpec(
        n_users=600, n_items=120, n_clusters=12,
        seq_len_min=16, seq_len_max=16,
        n_requests=3000, candidates_per_request=8,
        seed=17,
    )
    spec, oracle_auc = mx.tune_noise_temperature(spec, (0.84, 0.86))
    assert 0.84 <= oracle_auc <= 0.86
    data = mx.generate(spec)
    train, holdout = mx.split_holdout(data, 0.12)
    base = mx.baseline_score(train, holdout, seed=0, epochs=3, batch_size=256)

    cfg = mx.ModelConfig(n_heads=4, head_dim=32, n_blocks=2, max_seq_len=16)
    res = mx.fit(
        train, cfg, seed=0, epochs=10, batch_size=64,
        optimizer_config=OptimizerConfig(lr_dense=0.003, lr_sparse=0.05),
        holdout=holdout,
    )
    model_auc = res.metrics.auc[0]
    assert model_auc >= base.auc[0] + 0.05, (model_auc, base.auc[0])
    assert model_auc <= oracle_auc + 0.01, (model_auc, oracle_auc)
    elapsed_under(t0, 600.0)


# ----------------------------------------------------------------------
# 10. With no user-item dot signal, sequence matching alone must carry
#     the model well past a mean-pooling baseline.
# ----------------------------------------------------------------------


def test_criterion_10_sequence_signal_sensitivity():
    t0 = time.perf_counter()
    spec = mx.GeneratorSpec(
        n_users=600, n_items=120, n_clusters=12, n_requests=3000,
        candidates_per_request=8, seq_len_min=16, seq_len_max=16,
        w_inter=0.0, w_seq=1.5, seed=17,
    )
    spec, oracle_auc = mx.tune_noise_temperature(spec, (0.84, 0.86))
    data = mx.generate(spec)
    train, holdout = mx.split_holdout(data, 0.1)
    base = mx.baseline_score(train, holdout, seed=0, epochs=2, batch_size=256)

    cfg = mx.ModelConfig(n_heads=4, head_dim=32, n_blocks=2, max_seq_len=64)
    res = mx.fit(
        train, cfg, seed=0, epochs=10, batch_size=128,
        optimizer_config=OptimizerConfig(lr_dense=0.003, lr_sparse=0.05),
        holdout=holdout,
    )
    model_auc = res.metrics.auc[0]
    assert model_auc >= base.auc[0] + 0.10, (model_auc, base.auc[0])
    assert model_auc <= oracle_auc + 0.01, (model_auc, oracle_auc)
    elapsed_under(t0, 600.0)


# ----------------------------------------------------------------------
# 11. Request-level batching is measurably faster on this machine.
# ----------------------------------------------------------------------


def test_criterion_11_rlb_wall_clock(tmp_path):
    t0 = time.perf_counter()
    corpus = tmp_path / "corpus"
    rc = main([
        "gen", "--out", str(corpus), "--users", "50", "--items", "40",
        "--requests", "10", "--candidates", "4", "--seq-len", "32",
        "--seed", "2", "--no-tune-oracle",
    ])
    assert rc == 0
    csv = tmp_path / "bench.csv"
    rc = main([
        "bench-rlb", "--data", str(corpus), "--candidates-list", "32",
        "--requests", "8", "--out", str(csv),
    ])
    assert rc == 0
    lines = csv.read_text().splitlines()
    k, _, _, speedup, max_diff, savings, _ = lines[2].split(",")
    assert k == "32"
    assert float(max_diff) < 1e-9
    assert float(savings) > 0.0
    assert float(speedup) >= 1.3, f"speedup {speedup}"
    elapsed_under(t0, 120.0)


# ----------------------------------------------------------------------
# 12. Every single-switch variant trains to completion.
# ----------------------------------------------------------------------


def test_criterion_12_ablation_harness():
    t0 = time.perf_counter()
    spec = mx.GeneratorSpec(
        n_users=300, n_items=80, n_clusters=8, n_requests=1200,
        candidates_per_request=4, seq_len_min=8, seq_len_max=8, seed=7,
    )
    data = mx.generate(spec)
    train, holdout = mx.split_holdout(data, 0.1)
    cfg = mx.ModelConfig(n_heads=4, head_dim=32, n_blocks=2, max_seq_len=8)
    opt = OptimizerConfig(lr_dense=0.003, lr_sparse=0.05)
    base = mx.fit(
        train, cfg, seed=0, epochs=1, batch_size=128,
        optimizer_config=opt, holdout=holdout,
    )
    assert np.all(np.isfinite(base.losses))

    for name in mx.ABLATION_NAMES:
        res = run_ablation(
            name, cfg, train, holdout, base.metrics,
            seed=0, epochs=1, batch_size=128, optimizer_config=opt,
        )
        assert np.all(np.isfinite(res.variant_losses)), name
        assert list(res.changed_fields) == [f"ablations.{name}"], name
        assert len(config_diff(cfg, mx.apply_ablation(cfg, name))) == 1
    elapsed_under(t0, 1800.0)
