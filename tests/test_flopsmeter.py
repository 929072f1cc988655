"""The analytic cost model against the execution-trace oracle.

Two fully independent routes to the same number: the meter computes
closed forms from the config, the engine counts every operation it
actually executes.  They must agree exactly, not approximately."""

import numpy as np
import pytest

import mixformer as mx
from helpers import random_config, traced_forward_flops


class TestMeterAgainstTrace:
    def test_exact_over_random_configs(self):
        rng = np.random.default_rng(7)
        for trial in range(24):
            cfg, schema, t = random_config(rng)
            traced = traced_forward_flops(cfg, schema, t, seed=trial)
            metered = mx.count_flops(cfg, schema, t, n_candidates=1).total
            assert metered == traced, (trial, cfg)

    def test_components_sum_to_total(self):
        rng = np.random.default_rng(8)
        cfg, schema, t = random_config(rng)
        rep = mx.count_flops(cfg, schema, max(t, 2), n_candidates=3)
        assert rep.total == sum(c.user + c.item for c in rep.components.values())
        assert rep.total == rep.user_total + rep.item_total

    def test_candidates_scale_unbatched_linearly(self):
        rng = np.random.default_rng(9)
        cfg, schema, t = random_config(rng, allow_decouple=False)
        one = mx.count_flops(cfg, schema, t, n_candidates=1).total
        five = mx.count_flops(cfg, schema, t, n_candidates=5).total
        assert five == 5 * one


class TestSequenceAffinity:
    def test_two_point_fit_predicts_third(self):
        # per-candidate flops are affine in sequence length, so a line
        # through T=8 and T=32 must hit T=20 exactly
        cfg = mx.ModelConfig(n_heads=4, head_dim=32, n_blocks=2, max_seq_len=64)
        schema = mx.schema_from_widths(20, 12, 6, 64)
        f = lambda t: mx.count_flops(cfg, schema, t, n_candidates=1).total
        f8, f32 = f(8), f(32)
        slope = (f32 - f8) // (32 - 8)
        assert (f32 - f8) % (32 - 8) == 0
        assert f(20) == f8 + slope * (20 - 8)
        assert f(0) == f8 - slope * 8


class TestParams:
    def test_closed_form_matches_store(self):
        rng = np.random.default_rng(10)
        for _ in range(12):
            cfg, schema, _ = random_config(rng)
            store = mx.init_parameters(schema, cfg, seed=0)
            assert mx.count_params(cfg, schema) == store.n_dense_params

    def test_param_count_excludes_tables(self):
        cfg = mx.ModelConfig(n_heads=2, head_dim=8, n_blocks=1, max_seq_len=4)
        schema = mx.schema_from_widths(6, 6, 4, 4)
        store = mx.init_parameters(schema, cfg, seed=0)
        counted = mx.count_params(cfg, schema)
        assert counted == store.n_dense_params
        table_rows = sum(t.weight.size for t in store.tables.values())
        assert table_rows > 0 and counted < counted + table_rows


class TestRlbSavings:
    def _decoupled(self, head_dim=32):
        schema = mx.schema_from_widths(24, 24, 8, 16)
        n_u, n_g = mx.allocate_heads(24, 24, 4)
        cfg = mx.ModelConfig(
            n_heads=4, head_dim=head_dim, n_blocks=2, max_seq_len=16,
            decoupling=mx.DecoupleConfig(True, n_u, n_g),
        )
        return cfg, schema

    def test_savings_zero_at_single_candidate(self):
        cfg, schema = self._decoupled()
        assert mx.rlb_savings(cfg, schema, 16, 1) == 0.0

    def test_savings_increase_with_k_and_stay_below_user_share(self):
        cfg, schema = self._decoupled()
        rep = mx.count_flops(cfg, schema, 16, n_candidates=1)
        user_share = rep.user_total / rep.total
        prev = 0.0
        for k in (2, 8, 64, 1024):
            s = mx.rlb_savings(cfg, schema, 16, k)
            assert prev < s < user_share
            prev = s
        # saturates at exactly the user share as K grows without bound
        assert abs(mx.rlb_savings(cfg, schema, 16, 10**9) - user_share) < 1e-6

    def test_rlb_report_counts_user_once(self):
        cfg, schema = self._decoupled()
        k = 8
        unbatched = mx.count_flops(cfg, schema, 16, n_candidates=k)
        batched = mx.count_flops(cfg, schema, 16, n_candidates=k, rlb=True)
        assert batched.user_total * k == unbatched.user_total
        assert batched.item_total == unbatched.item_total

    def test_rlb_requires_decoupling(self):
        cfg = mx.ModelConfig(n_heads=4, head_dim=32, n_blocks=2, max_seq_len=16)
        schema = mx.schema_from_widths(24, 24, 8, 16)
        with pytest.raises(mx.ConfigError):
            mx.count_flops(cfg, schema, 16, n_candidates=8, rlb=True)


class TestScalingReport:
    def test_dense_axis_orders_by_cost(self):
        cfg = mx.ModelConfig(n_heads=4, head_dim=32, n_blocks=2, max_seq_len=16)
        schema = mx.schema_from_widths(24, 24, 8, 16)
        rows = mx.scaling_report(
            cfg, schema, "dense", [(32, 2), (64, 2), (64, 4)], seq_len=16
        )
        assert [r["head_dim"] for r in rows] == [32, 64, 64]
        assert rows[0]["params"] < rows[1]["params"] < rows[2]["params"]
        assert rows[0]["flops"] < rows[1]["flops"] < rows[2]["flops"]

    def test_sequence_axis_fixes_params(self):
        cfg = mx.ModelConfig(n_heads=4, head_dim=32, n_blocks=2, max_seq_len=16)
        schema = mx.schema_from_widths(24, 24, 8, 16)
        rows = mx.scaling_report(cfg, schema, "sequence", [8, 64, 512], seq_len=16)
        assert len({r["params"] for r in rows}) == 1
        assert rows[0]["flops"] < rows[1]["flops"] < rows[2]["flops"]


class TestProductionShape:
    def test_assumptions_are_self_describing(self):
        a = mx.load_production_assumptions()
        for key in ("n_heads", "head_dim", "n_blocks", "seq_len",
                    "candidates_per_request", "savings_mode", "notes"):
            assert key in a

    def test_dense_params_at_billion_scale(self):
        _, report, _ = mx.production_savings()
        assert 0.9e9 < report.n_params < 1.4e9

    def test_savings_in_published_bracket(self):
        savings, _, assumptions = mx.production_savings()
        assert 0.25 <= savings <= 0.45
        assert assumptions["savings_mode"] == "request-shared-sequence"
