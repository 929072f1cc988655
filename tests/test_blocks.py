"""Block semantics: the parameter-free mixing step, the three sublayers,
model configuration, forward shapes, and checkpointing."""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mixformer as mx
from mixformer import autodiff as ad
from mixformer.trainer import batch_loss

from conftest import random_request
from helpers import assert_rlb_batch_matches, random_config

SIGMOID2 = 1.0 / (1.0 + np.exp(-2.0))


class TestHeadMixing:
    def test_hand_case_n2_d4(self):
        x = np.array([[1.0, 2, 3, 4], [5, 6, 7, 8]])
        out = mx.head_mixing(x).data
        np.testing.assert_array_equal(out, [[1, 2, 5, 6], [3, 4, 7, 8]])

    def test_chunk_exchange_rule(self):
        # output row i, chunk j must equal input row j, chunk i
        rng = np.random.default_rng(0)
        n, dim = 4, 12
        chunk = dim // n
        x = rng.standard_normal((n, dim))
        out = mx.head_mixing(x).data
        for i in range(n):
            for j in range(n):
                np.testing.assert_array_equal(
                    out[i, j * chunk : (j + 1) * chunk],
                    x[j, i * chunk : (i + 1) * chunk],
                )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8), st.integers(1, 6))
    def test_involution_and_norm_preservation(self, seed, n, chunk):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, n * chunk))
        once = mx.head_mixing(x).data
        twice = mx.head_mixing(once).data
        np.testing.assert_array_equal(twice, x)
        # a permutation of entries: the multiset is preserved exactly, so
        # the Frobenius norm matches up to summation-order rounding
        assert sorted(once.reshape(-1)) == sorted(x.reshape(-1))
        assert np.linalg.norm(once) == pytest.approx(np.linalg.norm(x), rel=1e-14)

    def test_batched_leading_dims(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5, 2, 4))
        out = mx.head_mixing(x).data
        for b in range(3):
            for k in range(5):
                np.testing.assert_array_equal(out[b, k], mx.head_mixing(x[b, k]).data)

    def test_zero_flops(self):
        x = ad.Tensor(np.ones((4, 8)))
        with ad.FlopTrace() as tr:
            mx.head_mixing(x)
        assert tr.total == 0

    def test_indivisible_width_rejected(self):
        with pytest.raises(mx.ShapeError):
            mx.head_mixing(np.ones((3, 8)))

    def test_gradient_flows(self):
        x = ad.Tensor(np.arange(8.0).reshape(2, 4), requires_grad=True)
        out = mx.head_mixing(x)
        ad.sum_(ad.mul(out, out)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)


class TestCrossAttention:
    def test_two_step_hand_case(self):
        # T=2, D=1: scores [1, 3], softmax weight sigmoid(2) on the second
        q = np.array([[[1.0]]])
        keys = np.array([[[1.0], [3.0]]])
        values = np.array([[[2.0], [4.0]]])
        out = mx.cross_attention(q, keys, values).data
        expected = 2 * (1 - SIGMOID2) + 4 * SIGMOID2 + 1.0
        np.testing.assert_allclose(out, [[[expected]]])
        assert abs(expected - 4.761594155955764) < 1e-15

    def test_empty_sequence_is_identity(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((4, 8))
        out = mx.cross_attention(q, np.zeros((4, 0, 8)), np.zeros((4, 0, 8)))
        np.testing.assert_array_equal(out.data, q)
        out = mx.cross_attention(q, None, None)
        np.testing.assert_array_equal(out.data, q)

    def test_uniform_keys_average_values(self):
        # identical keys make attention an exact mean over value rows
        rng = np.random.default_rng(2)
        q = rng.standard_normal((1, 2, 3))
        keys = np.broadcast_to(rng.standard_normal((2, 1, 3)), (2, 5, 3)).copy()
        values = rng.standard_normal((2, 5, 3))
        out = mx.cross_attention(q, keys, values).data
        np.testing.assert_allclose(out[0], values.mean(axis=1) + q[0], rtol=1e-12)

    def test_mismatched_widths_rejected(self):
        with pytest.raises(mx.ShapeError):
            mx.cross_attention(np.ones((1, 2, 3)), np.ones((2, 4, 5)), np.ones((2, 4, 5)))

    def test_queries_need_a_candidate_axis(self):
        with pytest.raises(mx.ShapeError):
            mx.cross_attention(np.ones((2, 3)), np.ones((2, 4, 3)), np.ones((2, 4, 3)))


class TestConfig:
    def test_width_must_divide(self):
        with pytest.raises(mx.ConfigError):
            mx.ModelConfig(n_heads=16, head_dim=386, n_blocks=4, max_seq_len=8)

    def test_decoupling_heads_must_sum(self):
        with pytest.raises(mx.ConfigError):
            mx.ModelConfig(
                n_heads=4, head_dim=8, n_blocks=1, max_seq_len=4,
                decoupling=mx.DecoupleConfig(True, 1, 2),
            )

    def test_decoupling_incompatible_with_attention_mixing(self):
        with pytest.raises(mx.ConfigError):
            mx.ModelConfig(
                n_heads=4, head_dim=8, n_blocks=1, max_seq_len=4,
                ablations=mx.AblationFlags(hm_to_sa=True),
                decoupling=mx.DecoupleConfig(True, 2, 2),
            )

    def test_dict_round_trip(self):
        cfg = mx.ModelConfig(
            n_heads=4, head_dim=8, n_blocks=3, max_seq_len=4,
            expansion_ratio=1.5, seq_expansion_ratio=0.25, task_hidden=11,
            ablations=mx.AblationFlags(post_ln=True, shared_of_ffn=True),
            decoupling=mx.DecoupleConfig(True, 2, 2),
        )
        assert mx.config_from_dict(mx.config_to_dict(cfg)) == cfg

    def test_derived_widths(self):
        cfg = mx.ModelConfig(n_heads=4, head_dim=8, n_blocks=1, max_seq_len=4,
                             expansion_ratio=2.0, seq_expansion_ratio=0.25)
        assert cfg.model_width == 32
        assert cfg.ffn_hidden == 16
        assert cfg.seq_ffn_hidden == 8
        assert cfg.task_hidden_dim == 8


class TestParameterStore:
    def test_same_seed_reproduces(self, tiny_schema, tiny_config):
        a = mx.init_parameters(tiny_schema, tiny_config, seed=9)
        b = mx.init_parameters(tiny_schema, tiny_config, seed=9)
        for name in a.dense:
            np.testing.assert_array_equal(a.dense[name].data, b.dense[name].data)
        c = mx.init_parameters(tiny_schema, tiny_config, seed=10)
        assert any(
            not np.array_equal(a.dense[n].data, c.dense[n].data) for n in a.dense
        )

    def test_shared_seq_ffn_aliases_blocks(self, tiny_schema):
        cfg = mx.ModelConfig(
            n_heads=2, head_dim=8, n_blocks=3, max_seq_len=6,
            ablations=mx.AblationFlags(shared_seq_ffn=True),
        )
        store = mx.init_parameters(tiny_schema, cfg, seed=0)
        b0, b2 = store.block(0), store.block(2)
        assert b0["seq.ffn.gate"] is b2["seq.ffn.gate"]
        # per-block kv projections stay distinct
        assert b0["kv.key"] is not b2["kv.key"]

    def test_shared_of_ffn_single_stack(self, tiny_schema):
        cfg = mx.ModelConfig(
            n_heads=2, head_dim=8, n_blocks=1, max_seq_len=6,
            ablations=mx.AblationFlags(shared_of_ffn=True),
        )
        store = mx.init_parameters(tiny_schema, cfg, seed=0)
        assert store.block(0)["of.ffn.gate"].shape[0] == 1
        base = mx.init_parameters(
            tiny_schema,
            mx.ModelConfig(n_heads=2, head_dim=8, n_blocks=1, max_seq_len=6),
            seed=0,
        )
        assert base.block(0)["of.ffn.gate"].shape[0] == 2

    @pytest.mark.parametrize("shared_of_ffn", [False, True], ids=["per_head", "shared_of_ffn"])
    def test_block_cut_to_heads(self, tiny_schema, shared_of_ffn):
        cfg = mx.ModelConfig(
            n_heads=4, head_dim=8, n_blocks=2, max_seq_len=6,
            ablations=mx.AblationFlags(shared_of_ffn=shared_of_ffn),
        )
        store = mx.init_parameters(tiny_schema, cfg, seed=0)
        for lo, hi in ((0, 1), (1, 4), (0, 4)):
            whole, cut = store.block(1), store.block(1, (lo, hi))
            assert cut.keys() == whole.keys()
            for w in ("gate", "up", "down"):
                np.testing.assert_array_equal(
                    cut[f"qm.ffn.{w}"].data, whole[f"qm.ffn.{w}"].data[lo:hi]
                )
                of = cut[f"of.ffn.{w}"]
                if shared_of_ffn:
                    assert of is whole[f"of.ffn.{w}"] and of.shape[0] == 1
                else:
                    np.testing.assert_array_equal(of.data, whole[f"of.ffn.{w}"].data[lo:hi])
            assert cut["seq.ffn.gate"] is whole["seq.ffn.gate"]
            assert cut["qm.norm"] is whole["qm.norm"]

    def test_ablated_params_absent(self, tiny_schema):
        cfg = mx.ModelConfig(
            n_heads=2, head_dim=8, n_blocks=1, max_seq_len=6,
            ablations=mx.AblationFlags(wo_hm=True, wo_qm_ffn=True),
        )
        store = mx.init_parameters(tiny_schema, cfg, seed=0)
        bp = store.block(0)
        assert "qm.norm" not in bp and "qm.ffn.gate" not in bp
        cfg2 = mx.ModelConfig(
            n_heads=2, head_dim=8, n_blocks=1, max_seq_len=6,
            ablations=mx.AblationFlags(hm_to_sa=True),
        )
        bp2 = mx.init_parameters(tiny_schema, cfg2, seed=0).block(0)
        assert "qm.sa.query" in bp2
        assert "qm.sa.query" not in mx.init_parameters(tiny_schema, cfg, seed=0).block(0)

    def test_every_parameter_is_read(self):
        # parameter_shapes declares no weight that the forward pass leaves
        # unread: one backward reaches every dense tensor, for every
        # ablation and decoupled configs, with a non-empty sequence
        rng = np.random.default_rng(5)
        for trial in range(200):
            cfg, schema, t = random_config(rng)
            store = mx.init_parameters(schema, cfg, seed=trial)
            reqs = [random_request(schema, rng, seq_len=max(t, 1)) for _ in range(2)]
            batch_loss(mx.stack_requests(reqs), store).backward()
            unread = [name for name, p in store.dense.items() if p.grad is None]
            assert not unread, (trial, cfg.ablations, unread)


class TestGlorot:
    def test_bounds_and_determinism(self):
        rng = np.random.default_rng(3)
        w = mx.glorot_uniform(rng, (40, 30), fan_in=30, fan_out=40)
        limit = np.sqrt(6.0 / 70.0)
        assert w.shape == (40, 30)
        assert np.max(np.abs(w)) <= limit
        w2 = mx.glorot_uniform(np.random.default_rng(3), (40, 30), 30, 40)
        np.testing.assert_array_equal(w, w2)


class TestResidualStructure:
    def test_zeroed_block_is_identity_pre_norm(self, tiny_schema):
        # zero every FFN weight and the mixing-norm gain: each sublayer
        # contributes nothing and the block reduces to its residuals
        cfg = mx.ModelConfig(n_heads=2, head_dim=8, n_blocks=1, max_seq_len=6)
        store = mx.init_parameters(tiny_schema, cfg, seed=0)
        for name, t in store.dense.items():
            if ".ffn." in name or name.endswith("qm.norm"):
                t.data[...] = 0.0
        bp = store.block(0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 8))
        out = mx.mixformer_block(ad.Tensor(x), bp, cfg)
        np.testing.assert_array_equal(out.data, x)

    def test_zeroed_ffns_alone_do_not_suffice(self, tiny_schema):
        # the mixing step is parameter-free, so it survives zeroed FFNs
        cfg = mx.ModelConfig(n_heads=2, head_dim=8, n_blocks=1, max_seq_len=6)
        store = mx.init_parameters(tiny_schema, cfg, seed=0)
        for name, t in store.dense.items():
            if ".ffn." in name:
                t.data[...] = 0.0
        bp = store.block(0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 8))
        out = mx.mixformer_block(ad.Tensor(x), bp, cfg).data
        assert not np.allclose(out, x)

    def test_query_mixer_wo_hm_skips_mixing(self, tiny_schema):
        cfg = mx.ModelConfig(
            n_heads=2, head_dim=8, n_blocks=1, max_seq_len=6,
            ablations=mx.AblationFlags(wo_hm=True, wo_qm_ffn=True),
        )
        store = mx.init_parameters(tiny_schema, cfg, seed=0)
        x = np.random.default_rng(2).standard_normal((2, 8))
        out = mx.query_mixer(x, store.block(0), cfg)
        np.testing.assert_array_equal(out.data, x)


def _assert_stacked_rows_match_single(schema, cfg, n_candidates):
    # 3 stacked requests and one of a single candidate score each candidate
    # bit for bit as forward (and rlb_forward, when decoupled) does alone;
    # when decoupled, rlb_forward_batch scores the stack and a stack of
    # three one-candidate requests bit for bit as well
    schema = dataclasses.replace(schema, max_seq_len=cfg.max_seq_len)
    rng = np.random.default_rng(21)
    store = mx.init_parameters(schema, cfg, seed=3)
    reqs = [random_request(schema, rng, n_candidates=n_candidates) for _ in range(3)]
    reqs.append(random_request(schema, rng, n_candidates=1))
    batched = mx.batched_forward(mx.stack_requests(reqs[:3]), store)
    for b, r in enumerate(reqs):
        rows = batched[b] if b < 3 else mx.batched_forward(mx.stack_requests([r]), store)[0]
        single = np.stack([mx.forward(r, k, store) for k in range(r.n_candidates)])
        np.testing.assert_array_equal(rows, single)
        if cfg.user_heads:
            np.testing.assert_array_equal(mx.rlb_forward(r, store), single)
    if cfg.user_heads:
        assert_rlb_batch_matches(store, reqs[:3])
        ones = [reqs[3]] + [random_request(schema, rng, n_candidates=1) for _ in range(2)]
        assert_rlb_batch_matches(store, ones)


class TestForward:
    def test_batched_matches_single(self, tiny_schema, tiny_config):
        rng = np.random.default_rng(5)
        store = mx.init_parameters(tiny_schema, tiny_config, seed=1)
        reqs = [random_request(tiny_schema, rng, seq_len=6, n_candidates=4) for _ in range(3)]
        batch = mx.stack_requests(reqs)
        batched = mx.batched_forward(batch, store)
        for b, r in enumerate(reqs):
            for k in range(4):
                np.testing.assert_array_equal(batched[b, k], mx.forward(r, k, store))

    @pytest.mark.parametrize("seq_len", [6, 10])
    @pytest.mark.parametrize("n_user_heads", [0, 2])
    def test_stacked_rows_match_single_at_model_width(self, tiny_schema, n_user_heads, seq_len):
        # 3 requests x 32 candidates put 96 rows in each per-head GEMM, enough
        # rows for a transposed weight view to round a row differently from
        # the same row scored alone; 10 actions make a score GEMM whose
        # column count is not a multiple of 8
        cfg = mx.ModelConfig(
            n_heads=4, head_dim=32, n_blocks=2, max_seq_len=seq_len,
            decoupling=mx.DecoupleConfig(n_user_heads > 0, n_user_heads, 4 - n_user_heads),
        )
        _assert_stacked_rows_match_single(tiny_schema, cfg, n_candidates=32)

    def test_stacked_rows_match_single_at_wide_heads(self, tiny_schema):
        # the corrected presets' head width: every per-head GEMM contracts
        # over 384 or more, where one GEMM of all rows stops matching a row
        # scored alone
        cfg = mx.ModelConfig(
            n_heads=2, head_dim=384, n_blocks=1, max_seq_len=10,
            decoupling=mx.DecoupleConfig(True, 1, 1),
        )
        _assert_stacked_rows_match_single(tiny_schema, cfg, n_candidates=12)

    @pytest.mark.parametrize("n_user_heads", [0, 2])
    @pytest.mark.parametrize(
        "one_column",
        [{"task_hidden": 1}, {"expansion_ratio": 0.02}],
        ids=["task_hidden_1", "ffn_hidden_1"],
    )
    def test_stacked_rows_match_single_at_one_column(self, tiny_schema, one_column, n_user_heads):
        # one-column candidate-row products: a one-unit task hidden layer,
        # and head-wise FFNs whose hidden width rounds to 1 (0.02 * 32)
        cfg = mx.ModelConfig(
            n_heads=4, head_dim=32, n_blocks=2, max_seq_len=6, **one_column,
            decoupling=mx.DecoupleConfig(n_user_heads > 0, n_user_heads, 4 - n_user_heads),
        )
        assert cfg.task_hidden_dim == 1 or cfg.ffn_hidden == 1
        _assert_stacked_rows_match_single(tiny_schema, cfg, n_candidates=40)

    def test_empty_sequence_request(self, tiny_schema, tiny_config):
        rng = np.random.default_rng(6)
        store = mx.init_parameters(tiny_schema, tiny_config, seed=1)
        req = random_request(tiny_schema, rng, seq_len=0)
        out = mx.forward(req, 0, store)
        assert out.shape == (2,)
        assert np.all(np.isfinite(out))

    def test_sequence_influences_output(self, tiny_schema, tiny_config):
        rng = np.random.default_rng(7)
        store = mx.init_parameters(tiny_schema, tiny_config, seed=1)
        req = random_request(tiny_schema, rng, seq_len=6)
        base = mx.forward(req, 0, store)
        changed = dataclasses.replace(
            req, actions=(req.actions + 1) % 3
        )
        assert not np.allclose(mx.forward(changed, 0, store), base)

    def test_candidate_index_out_of_range(self, tiny_schema, tiny_config):
        store = mx.init_parameters(tiny_schema, tiny_config, seed=1)
        req = random_request(tiny_schema, np.random.default_rng(8), n_candidates=3)
        for bad in (-1, 3):
            with pytest.raises(mx.DataError):
                mx.forward(req, bad, store)

    def test_candidate_index_selects_item(self, tiny_schema, tiny_config):
        rng = np.random.default_rng(8)
        store = mx.init_parameters(tiny_schema, tiny_config, seed=1)
        req = random_request(tiny_schema, rng, n_candidates=3)
        outs = [mx.forward(req, k, store) for k in range(3)]
        assert not np.allclose(outs[0], outs[1]) or not np.allclose(outs[1], outs[2])


class TestCheckpoint:
    def test_round_trip_with_optimizer_and_extra(self, tmp_path, tiny_schema, tiny_config):
        store = mx.init_parameters(tiny_schema, tiny_config, seed=4)
        rng = np.random.default_rng(0)
        opt_state = {
            name: rng.random(t.data.shape) for name, t in store.dense.items()
        }
        for tab in store.tables.values():
            tab.adagrad_acc[...] = rng.random(tab.adagrad_acc.shape)
        p = tmp_path / "ck.bin"
        mx.save_checkpoint(str(p), store, dense_opt=opt_state, extra={"epoch": 3})
        back, opt_back, extra = mx.load_checkpoint(str(p))
        assert extra["epoch"] == 3
        assert back.config == tiny_config
        assert back.schema == tiny_schema
        for name in store.dense:
            np.testing.assert_array_equal(back.dense[name].data, store.dense[name].data)
        for name in store.tables:
            np.testing.assert_array_equal(
                back.tables[name].weight.data, store.tables[name].weight.data
            )
            np.testing.assert_array_equal(
                back.tables[name].adagrad_acc, store.tables[name].adagrad_acc
            )
        for name in opt_state:
            np.testing.assert_array_equal(opt_back[name], opt_state[name])

    def test_round_trip_without_optimizer(self, tmp_path, tiny_schema, tiny_config):
        store = mx.init_parameters(tiny_schema, tiny_config, seed=4)
        p = tmp_path / "ck.bin"
        mx.save_checkpoint(str(p), store)
        _, opt_back, extra = mx.load_checkpoint(str(p))
        assert opt_back is None
        assert extra == {}

    @staticmethod
    def _checkpoint_bytes(tmp_path, schema, config) -> bytes:
        store = mx.init_parameters(schema, config, seed=4)
        p = tmp_path / "whole.bin"
        opt = {name: np.ones(t.shape) for name, t in store.dense.items()}
        mx.save_checkpoint(str(p), store, dense_opt=opt, extra={"epoch": 1})
        return p.read_bytes()

    def test_corrupt_file_rejected(self, tmp_path, tiny_schema, tiny_config):
        p = tmp_path / "ck.bin"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(mx.DataError):
            mx.load_checkpoint(str(p))
        blob = bytearray(self._checkpoint_bytes(tmp_path, tiny_schema, tiny_config))
        blob[20] ^= 0xFF  # inside the JSON header
        p.write_bytes(bytes(blob))
        with pytest.raises(mx.DataError, match="ck.bin"):
            mx.load_checkpoint(str(p))

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_truncated_file_is_data_error(self, tmp_path, tiny_schema, tiny_config, data):
        blob = self._checkpoint_bytes(tmp_path, tiny_schema, tiny_config)
        p = tmp_path / "cut.bin"
        p.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1), label="offset")])
        with pytest.raises(mx.DataError, match="cut.bin"):
            mx.load_checkpoint(str(p))

    def test_accumulator_shape_mismatch_rejected(self, tmp_path, tiny_schema, tiny_config):
        store = mx.init_parameters(tiny_schema, tiny_config, seed=4)
        name = next(iter(store.tables))
        store.tables[name].adagrad_acc = np.ones(3)
        p = tmp_path / "ck.bin"
        mx.save_checkpoint(str(p), store)
        with pytest.raises(mx.DataError, match="accumulator"):
            mx.load_checkpoint(str(p))
        store = mx.init_parameters(tiny_schema, tiny_config, seed=4)
        opt = {n: np.ones(t.shape) for n, t in store.dense.items()}
        opt[next(iter(opt))] = np.ones(2)
        mx.save_checkpoint(str(p), store, dense_opt=opt)
        with pytest.raises(mx.DataError, match="accumulator"):
            mx.load_checkpoint(str(p))

    def test_failed_write_keeps_previous_checkpoint(
        self, tmp_path, tiny_schema, tiny_config, monkeypatch
    ):
        old = mx.init_parameters(tiny_schema, tiny_config, seed=4)
        p = tmp_path / "ck.bin"
        mx.save_checkpoint(str(p), old, extra={"step": 1})
        real_write = mx.blocks._write_array
        calls = []

        def failing_write(fh, arr):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("disk full")
            real_write(fh, arr)

        monkeypatch.setattr(mx.blocks, "_write_array", failing_write)
        new = mx.init_parameters(tiny_schema, tiny_config, seed=5)
        with pytest.raises(OSError, match="disk full"):
            mx.save_checkpoint(str(p), new, extra={"step": 2})
        back, _, extra = mx.load_checkpoint(str(p))
        assert extra == {"step": 1}
        for name in old.dense:
            np.testing.assert_array_equal(back.dense[name].data, old.dense[name].data)
        assert [f.name for f in tmp_path.iterdir()] == ["ck.bin"]

    def test_load_draws_no_random_numbers(
        self, tmp_path, tiny_schema, tiny_config, monkeypatch
    ):
        store = mx.init_parameters(tiny_schema, tiny_config, seed=4)
        p = tmp_path / "ck.bin"
        mx.save_checkpoint(str(p), store)

        def no_rng(*_):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        back, _, _ = mx.load_checkpoint(str(p))
        assert list(back.dense) == list(store.dense)
        assert list(back.tables) == list(store.tables)

    @pytest.mark.parametrize("seed", [-1, 1.5, "4", None, True, [4]])
    def test_bad_header_seed_is_data_error(self, tmp_path, tiny_schema, tiny_config, seed):
        blob = self._checkpoint_bytes(tmp_path, tiny_schema, tiny_config)
        (hlen,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12 : 12 + hlen])
        header["seed"] = seed
        hb = json.dumps(header, sort_keys=True).encode()
        p = tmp_path / "seed.bin"
        p.write_bytes(blob[:8] + struct.pack("<I", len(hb)) + hb + blob[12 + hlen :])
        with pytest.raises(mx.DataError, match="seed.bin"):
            mx.load_checkpoint(str(p))

    def test_loaded_model_scores_identically(self, tmp_path, tiny_schema, tiny_config):
        rng = np.random.default_rng(9)
        store = mx.init_parameters(tiny_schema, tiny_config, seed=4)
        req = random_request(tiny_schema, rng)
        before = mx.forward(req, 0, store)
        p = tmp_path / "ck.bin"
        mx.save_checkpoint(str(p), store)
        back, _, _ = mx.load_checkpoint(str(p))
        np.testing.assert_array_equal(mx.forward(req, 0, back), before)
