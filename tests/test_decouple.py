"""User/item decoupling: head allocation, the mixing mask, leakage
freedom, and the shared-user-state serving path."""

import dataclasses
from itertools import islice

import numpy as np
import pytest

import mixformer as mx
from mixformer import autodiff as ad
from mixformer.autodiff import grad_check

from conftest import random_request
from helpers import assert_rlb_batch_matches

# the ablations the decoupled path supports (hm_to_sa cannot be decoupled)
VARIANTS = {
    "default": {},
    "post_ln": {"post_ln": True},
    "wo_hm": {"wo_hm": True},
    "wo_qm_ffn": {"wo_qm_ffn": True},
    "shared_seq_ffn": {"shared_seq_ffn": True},
    "shared_of_ffn": {"shared_of_ffn": True},
    "wo_hm+wo_qm_ffn": {"wo_hm": True, "wo_qm_ffn": True},
}


def decoupled_setup(seed, n_heads=4, head_dim=16, n_blocks=2, seq_len=5,
                    d_user=None, d_item=None, n_user_heads=None):
    rng = np.random.default_rng(seed)
    schema = mx.FeatureSchema(
        nonseq_fields=(
            mx.FeatureField("uid", "user", 11, d_user or 5),
            mx.FeatureField("iid", "item", 13, d_item or 7),
        ),
        action_fields=(mx.ActionField("aid", 13, 3),),
        max_seq_len=max(seq_len, 1),
    )
    n_u, n_g = mx.allocate_heads(schema.d_ns_user, schema.d_ns_item, n_heads)
    if n_user_heads is not None:
        n_u, n_g = n_user_heads, n_heads - n_user_heads
    cfg = mx.ModelConfig(
        n_heads=n_heads, head_dim=head_dim, n_blocks=n_blocks,
        max_seq_len=max(seq_len, 1),
        decoupling=mx.DecoupleConfig(True, n_u, n_g),
    )
    store = mx.init_parameters(schema, cfg, seed=seed)
    t = seq_len
    req = mx.Request(
        user_id=1,
        user_nonseq=[int(rng.integers(11))],
        actions=rng.integers(0, 13, (t, 1)),
        candidates=rng.integers(0, 13, (4, 1)),
    )
    return schema, cfg, store, req, rng


def other_requests(rng, seq_len, n_candidates, count):
    # requests of decoupled_setup's schema, users 2, 3, ...
    return [
        mx.Request(
            user_id=2 + j, user_nonseq=[int(rng.integers(11))],
            actions=rng.integers(0, 13, (seq_len, 1)),
            candidates=rng.integers(0, 13, (n_candidates, 1)),
        )
        for j in range(count)
    ]


class TestAllocateHeads:
    def test_proportional_split(self):
        assert mx.allocate_heads(60, 40, 16) == (10, 6)

    def test_each_side_keeps_a_head(self):
        assert mx.allocate_heads(1, 1000, 4) == (1, 3)
        assert mx.allocate_heads(1000, 1, 4) == (3, 1)

    def test_two_heads_minimum(self):
        with pytest.raises(mx.ConfigError):
            mx.allocate_heads(5, 5, 1)

    def test_sides_always_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            du, dg = int(rng.integers(1, 500)), int(rng.integers(1, 500))
            n = int(rng.integers(2, 33))
            u, g = mx.allocate_heads(du, dg, n)
            assert u + g == n and u >= 1 and g >= 1


class TestBuildMask:
    def test_exhaustive_small_sweep(self):
        # entry [i, j] must be 0 exactly when i is a user head and j
        # falls inside an item head's chunk
        for n in range(1, 9):
            for n_u in range(0, n + 1):
                for chunk in (1, 2, 3):
                    dim = n * chunk
                    mask = mx.build_mask(n, n_u, dim)
                    assert mask.shape == (n, dim)
                    for i in range(n):
                        for j in range(dim):
                            expected = 0.0 if (i < n_u and j >= n_u * chunk) else 1.0
                            assert mask[i, j] == expected, (n, n_u, chunk, i, j)

    def test_no_user_heads_means_all_ones(self):
        np.testing.assert_array_equal(mx.build_mask(4, 0, 8), np.ones((4, 8)))

    def test_indivisible_rejected(self):
        with pytest.raises(mx.ShapeError):
            mx.build_mask(3, 1, 8)


class TestMaskedMixing:
    def test_hand_case(self):
        x = np.array([[1.0, 2, 3, 4], [5, 6, 7, 8]])
        out = mx.head_mixing(x).data * mx.build_mask(2, 1, 4)
        np.testing.assert_array_equal(out, [[1, 2, 0, 0], [3, 4, 7, 8]])

    def test_item_rows_keep_user_chunks(self):
        # item heads still read user chunks; only user heads are cut off
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 8))
        out = mx.head_mixing(x).data * mx.build_mask(4, 2, 8)
        full = mx.head_mixing(x).data
        np.testing.assert_array_equal(out[2:], full[2:])
        np.testing.assert_array_equal(out[:2, :4], full[:2, :4])
        np.testing.assert_array_equal(out[:2, 4:], np.zeros((2, 4)))


class TestItemIndependence:
    def test_user_rows_blind_to_candidate_swap(self):
        # every layer's user-head activations must ignore the candidate
        for seed in range(5):
            schema, cfg, store, req, rng = decoupled_setup(seed)
            st = mx.compute_shared_user_state(req, store)
            other = dataclasses.replace(
                req, candidates=(req.candidates + 3) % 13
            )
            st2 = mx.compute_shared_user_state(other, store)
            np.testing.assert_array_equal(st.e_user, st2.e_user)
            for a, b in zip(st.layers, st2.layers):
                np.testing.assert_array_equal(a.out_user, b.out_user)
                np.testing.assert_array_equal(a.keys, b.keys)
                np.testing.assert_array_equal(a.values, b.values)

    def test_item_table_perturbation_leaves_user_heads(self):
        schema, cfg, store, req, rng = decoupled_setup(3)
        st = mx.compute_shared_user_state(req, store)
        store.tables["iid"].weight.data[...] += rng.standard_normal(
            store.tables["iid"].weight.data.shape
        )
        st2 = mx.compute_shared_user_state(req, store)
        for a, b in zip(st.layers, st2.layers):
            np.testing.assert_array_equal(a.out_user, b.out_user)


class TestRlbForward:
    def test_matches_reference_path(self):
        for seed in range(8):
            t = [0, 3, 7][seed % 3]
            schema, cfg, store, req, rng = decoupled_setup(seed, seq_len=t)
            per = np.stack(
                [mx.forward_decoupled(req, k, store) for k in range(req.n_candidates)]
            )
            rlb = mx.rlb_forward(req, store)
            np.testing.assert_allclose(rlb, per, rtol=1e-9, atol=1e-12)

    def test_requires_decoupling(self, tiny_schema, tiny_config):
        store = mx.init_parameters(tiny_schema, tiny_config, seed=0)
        req = random_request(tiny_schema, np.random.default_rng(0))
        with pytest.raises(mx.ConfigError):
            mx.rlb_forward(req, store)
        with pytest.raises(mx.ConfigError):
            mx.forward_decoupled(req, 0, store)
        with pytest.raises(mx.ConfigError):
            mx.compute_shared_user_state(req, store)
        with pytest.raises(mx.ConfigError):
            mx.rlb_forward_batch(mx.stack_requests([req]), store)

    @pytest.mark.parametrize("seq_len", [5, 0], ids=["seq", "no_seq"])
    @pytest.mark.parametrize("n_user_heads", [0, 1, 2, 3])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_post_ln_variant_also_matches(self, variant, n_user_heads, seq_len):
        # post_ln and every other decouplable variant, at every head split
        # (n_user_heads=0 packs the user fields into the item heads), with
        # and without a sequence; the executed FLOPs must equal the meter's
        schema, cfg, store, req, rng = decoupled_setup(
            11, seq_len=seq_len, n_user_heads=n_user_heads
        )
        cfg = dataclasses.replace(cfg, ablations=mx.AblationFlags(**VARIANTS[variant]))
        store = mx.init_parameters(schema, cfg, seed=11)
        per = np.stack(
            [mx.forward_decoupled(req, k, store) for k in range(req.n_candidates)]
        )
        with ad.FlopTrace() as trace:
            rlb = mx.rlb_forward(req, store)
        np.testing.assert_allclose(rlb, per, rtol=1e-9)
        meter = mx.count_flops(cfg, schema, seq_len, req.n_candidates, rlb=True)
        assert trace.total == meter.total
        # the user half alone traces the meter's user side
        with ad.FlopTrace() as user_trace:
            mx.compute_shared_user_state(req, store)
        assert user_trace.total == meter.user_total
        # the batch scorer, on a stack of this request and two others, and
        # on a stack of three one-candidate requests
        assert_rlb_batch_matches(
            store, [req, *other_requests(rng, seq_len, req.n_candidates, 2)]
        )
        assert_rlb_batch_matches(store, other_requests(rng, seq_len, 1, 3))

    @pytest.mark.parametrize(
        "change, error",
        [
            ({"actions": np.zeros((8, 1), dtype=np.int64)}, mx.DataError),
            ({"user_nonseq": np.array([1, 2])}, mx.DataError),
            ({"candidates": np.array([[3], [13]])}, mx.VocabError),
            ({"candidates": np.array([[3], [2**31]])}, mx.VocabError),
            ({"candidates": np.array([[3], [2**32 + 3]])}, mx.VocabError),
            ({"candidates": np.array([[3], [-1]])}, mx.VocabError),
            ({"candidates": np.array([[3], [1.5]])}, mx.VocabError),
            ({"user_nonseq": np.array([2**32 + 3])}, mx.VocabError),
            ({"actions": np.full((5, 1), 2**32 + 3)}, mx.VocabError),
            ({"labels": np.full((4, 1), 2)}, mx.DataError),
            ({"labels": np.full((4, 1), -1)}, mx.DataError),
            ({"labels": np.full((4, 1), 0.5)}, mx.DataError),
        ],
        ids=[
            "seq_too_long", "user_nonseq_length", "candidate_id", "candidate_id_2**31",
            "candidate_id_wraps_to_3", "candidate_id_negative", "candidate_id_fractional",
            "user_id_wraps_to_3", "action_id_wraps_to_3", "label_2", "label_negative",
            "label_half",
        ],
    )
    def test_bad_request_raises_typed_error(self, change, error):
        # a sequence 3 past max_seq_len, a wrong user_nonseq length, an
        # out-of-range id and a label other than 0 or 1 never reach the
        # scorer; an id that int32 cannot hold, such as 2**32 + 3, is not
        # narrowed to the valid id it would wrap to, and a label of 0.5 or
        # -1 is not cast to a uint8 label
        schema, cfg, store, req, rng = decoupled_setup(17, seq_len=5)
        bad = dataclasses.replace(req, **change)
        with pytest.raises(error):
            mx.rlb_forward(bad, store)
        with pytest.raises(error):
            mx.compute_shared_user_state(bad, store)

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_batch_projects_in_chunks(self, variant, monkeypatch):
        # a budget of two requests' sequence-FFN hidden activation projects
        # a stack of five in chunks of 2, 2 and 1; scores and FLOPs must be
        # those of one request at a time
        schema, cfg, store, req, rng = decoupled_setup(13, seq_len=5)
        cfg = dataclasses.replace(cfg, ablations=mx.AblationFlags(**VARIANTS[variant]))
        store = mx.init_parameters(schema, cfg, seed=13)
        monkeypatch.setattr(mx.decouple, "_KV_CHUNK_ELEMENTS", 2 * 5 * cfg.seq_ffn_hidden)
        chunks = []
        project = mx.decouple.project_actions

        def spy(s, p, c):
            chunks.append(len(s))
            return project(s, p, c)

        monkeypatch.setattr(mx.decouple, "project_actions", spy)
        assert_rlb_batch_matches(store, [req, *other_requests(rng, 5, req.n_candidates, 4)])
        # then rlb_forward scores each of the five alone, one chunk per block
        assert chunks == [2, 2, 1] * cfg.n_blocks + [1] * (5 * cfg.n_blocks)


class TestDecoupledModel:
    """A decoupled config masks itself: fit, batched_forward and evaluate
    train and score the model that rlb_forward serves."""

    @staticmethod
    def _config(schema, n_heads=4, head_dim=8, **kw):
        n_u, n_g = mx.allocate_heads(schema.d_ns_user, schema.d_ns_item, n_heads)
        return mx.ModelConfig(
            n_heads=n_heads, head_dim=head_dim, n_blocks=2, max_seq_len=6,
            decoupling=mx.DecoupleConfig(True, n_u, n_g), **kw,
        )

    def test_fit_trains_and_scores_the_served_model(self, tiny_schema):
        cfg = self._config(tiny_schema)
        mask = mx.build_mask(cfg.n_heads, cfg.decoupling.n_user_heads, cfg.head_dim)
        rng = np.random.default_rng(21)
        train = mx.Dataset(
            schema=tiny_schema,
            requests=[random_request(tiny_schema, rng) for _ in range(24)],
        )
        holdout = [random_request(tiny_schema, rng, seq_len=t) for t in (0, 2, 6, 6, 6, 6)]
        res = mx.fit(train, cfg, seed=0, batch_size=6, holdout=holdout, max_steps=3)

        # the same three steps with the mask passed by hand
        store = mx.init_parameters(tiny_schema, cfg, seed=0)
        opt = mx.Optimizer(store.dense, store.tables)
        steps = mx.train_steps(
            train.requests, opt, lambda batch: mx.batch_loss(batch, store, mask), 6, 0, 1
        )
        assert [loss for _, _, loss in islice(steps, 3)] == res.losses
        assert res.metrics == mx.evaluate(holdout, res.store, mask)

        for req in holdout:
            batched = mx.batched_forward(mx.stack_requests([req]), res.store)[0]
            np.testing.assert_allclose(
                mx.rlb_forward(req, res.store), batched, rtol=1e-9, atol=1e-12
            )

    @pytest.mark.parametrize("post_ln", [False, True], ids=["pre_norm", "post_ln"])
    def test_masked_model_gradients(self, tiny_schema, post_ln):
        cfg = mx.ModelConfig(
            n_heads=2, head_dim=4, n_blocks=2, max_seq_len=6,
            ablations=mx.AblationFlags(post_ln=post_ln),
            decoupling=mx.DecoupleConfig(True, 1, 1),
        )
        rng = np.random.default_rng(67)
        batch = mx.stack_requests([random_request(tiny_schema, rng, seq_len=3, n_candidates=2)])
        for seed in range(5):
            store = mx.init_parameters(tiny_schema, cfg, seed=seed)
            dense_names = sorted(store.dense)
            table_names = sorted(store.tables)

            def loss_fn(*tensors):
                for name, tensor in zip(dense_names, tensors):
                    store.dense[name] = tensor
                for name, tensor in zip(table_names, tensors[len(dense_names):]):
                    store.tables[name].weight = tensor
                return mx.batch_loss(batch, store)

            inputs = [store.dense[n].data.copy() for n in dense_names]
            inputs += [store.tables[n].weight.data.copy() for n in table_names]
            report = grad_check(loss_fn, inputs, tolerance=1e-4, seed=seed, max_coords=6)
            assert report.passed, f"seed {seed}: max rel err {report.max_rel_error:.2e}"


class TestDegenerateMask:
    def test_all_ones_mask_reproduces_base_model(self, tiny_schema, tiny_config):
        # an all-ones mask multiplies bit-identically, so the masked
        # forward must equal the plain forward exactly
        rng = np.random.default_rng(13)
        store = mx.init_parameters(tiny_schema, tiny_config, seed=2)
        mask = mx.build_mask(tiny_config.n_heads, 0, tiny_config.head_dim)
        for _ in range(5):
            req = random_request(tiny_schema, rng)
            for k in range(req.n_candidates):
                a = mx.forward(req, k, store)
                b = mx.forward(req, k, store, mask=mask)
                np.testing.assert_array_equal(a, b)
