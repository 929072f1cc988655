"""Optimizers, batch planning, metrics, and training-loop behavior."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import mixformer as mx
from mixformer import autodiff as ad
from mixformer.trainer import batch_loss

from conftest import random_request


def small_dataset(schema, n=20, seed=0, seq_len=4, k=3):
    rng = np.random.default_rng(seed)
    reqs = [random_request(schema, rng, seq_len=seq_len, n_candidates=k) for _ in range(n)]
    return mx.Dataset(schema=schema, requests=reqs)


def pair_count_auc(scores, labels):
    """AUC by brute force: wins plus half the ties over positive-negative pairs."""
    pos, neg = scores[labels > 0.5], scores[labels <= 0.5]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


class TestOptimizer:
    def test_rmsprop_single_step_hand_math(self):
        cfg = mx.OptimizerConfig(lr_dense=0.5)
        p = ad.Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([4.0])
        opt = mx.Optimizer({"w": p}, {}, cfg)
        opt.step()
        acc = 0.1 * 16.0
        expected = 2.0 - 0.5 * 4.0 / np.sqrt(acc + 1e-8)
        np.testing.assert_allclose(p.data, [expected], rtol=1e-12)
        # second step folds the accumulator forward
        p.grad = np.array([1.0])
        opt.step()
        acc2 = 0.9 * acc + 0.1 * 1.0
        expected2 = expected - 0.5 * 1.0 / np.sqrt(acc2 + 1e-8)
        np.testing.assert_allclose(p.data, [expected2], rtol=1e-12)

    def test_adagrad_touches_only_active_rows(self, tiny_schema):
        rng = np.random.default_rng(0)
        tables = mx.make_tables(tiny_schema, rng)
        tab = tables["iid"]
        before = tab.weight.data.copy()
        g = np.zeros_like(before)
        g[2] = 1.0
        g[5] = -2.0
        tab.weight.grad = g
        opt = mx.Optimizer({}, {"iid": tab}, mx.OptimizerConfig(lr_sparse=0.1))
        opt.step()
        changed = np.any(tab.weight.data != before, axis=1)
        assert list(np.flatnonzero(changed)) == [2, 5]
        # hand math for row 2: acc = 1, step = lr / sqrt(1 + eps)
        np.testing.assert_allclose(
            tab.weight.data[2],
            before[2] - 0.1 * 1.0 / np.sqrt(1.0 + 1e-10),
            rtol=1e-12,
        )
        np.testing.assert_allclose(tab.adagrad_acc[5], 4.0)

    def test_zero_lr_is_noop(self, tiny_schema, tiny_config):
        ds = small_dataset(tiny_schema)
        store = mx.init_parameters(tiny_schema, tiny_config, seed=0)
        opt = mx.Optimizer(
            store.dense, store.tables, mx.OptimizerConfig(lr_dense=0.0, lr_sparse=0.0)
        )
        before = {n: t.data.copy() for n, t in store.dense.items()}
        tables_before = {n: t.weight.data.copy() for n, t in store.tables.items()}
        batch = mx.stack_requests(ds.requests[:4])
        opt.zero_grad()
        batch_loss(batch, store, None).backward()
        opt.step()
        for n in before:
            np.testing.assert_array_equal(store.dense[n].data, before[n])
        for n in tables_before:
            np.testing.assert_array_equal(store.tables[n].weight.data, tables_before[n])

    def test_lr_scaling_first_order(self, tiny_schema, tiny_config):
        # halving the dense lr halves the first step exactly (same grads,
        # same accumulator): the update is linear in lr
        ds = small_dataset(tiny_schema)
        batch = mx.stack_requests(ds.requests[:4])
        deltas = {}
        for lr in (1e-3, 5e-4):
            store = mx.init_parameters(tiny_schema, tiny_config, seed=0)
            opt = mx.Optimizer(
                store.dense, store.tables, mx.OptimizerConfig(lr_dense=lr, lr_sparse=0.0)
            )
            before = store.dense["split.proj"].data.copy()
            opt.zero_grad()
            batch_loss(batch, store, None).backward()
            opt.step()
            deltas[lr] = store.dense["split.proj"].data - before
        np.testing.assert_allclose(deltas[1e-3], 2.0 * deltas[5e-4], rtol=1e-9)

    def test_invalid_config_rejected(self):
        with pytest.raises(mx.ConfigError):
            mx.OptimizerConfig(lr_dense=-0.1)


class TestBatchPlanning:
    def test_deterministic_per_seed_epoch(self, tiny_schema):
        reqs = small_dataset(tiny_schema, n=30).requests
        a = mx.plan_batches(reqs, 9, seed=1, epoch=0)
        b = mx.plan_batches(reqs, 9, seed=1, epoch=0)
        assert a == b
        assert mx.plan_batches(reqs, 9, seed=1, epoch=1) != a
        assert mx.plan_batches(reqs, 9, seed=2, epoch=0) != a

    def test_covers_every_request_once(self, tiny_schema):
        reqs = small_dataset(tiny_schema, n=25).requests
        plan = mx.plan_batches(reqs, 9, seed=3, epoch=2)
        seen = sorted(i for batch in plan for i in batch)
        assert seen == list(range(25))

    def test_batches_group_by_shape(self, tiny_schema):
        rng = np.random.default_rng(1)
        reqs = [random_request(tiny_schema, rng, seq_len=3, n_candidates=2) for _ in range(7)]
        reqs += [random_request(tiny_schema, rng, seq_len=5, n_candidates=4) for _ in range(6)]
        plan = mx.plan_batches(reqs, 8, seed=0, epoch=0)
        for batch in plan:
            shapes = {(reqs[i].seq_len, reqs[i].n_candidates) for i in batch}
            assert len(shapes) == 1

    def test_batch_size_counts_impressions(self, tiny_schema):
        rng = np.random.default_rng(2)
        reqs = [random_request(tiny_schema, rng, seq_len=3, n_candidates=4) for _ in range(10)]
        plan = mx.plan_batches(reqs, 8, seed=0, epoch=0)
        assert all(len(b) == 2 for b in plan)  # 8 impressions / 4 per request


class TestMetrics:
    def test_auc_hand_case(self):
        labels = np.array([0, 1, 1, 0, 1])
        scores = np.array([0.1, 0.8, 0.5, 0.45, 0.3])
        assert mx.auc(scores, labels) == pytest.approx(5 / 6)

    def test_auc_handles_ties(self):
        assert mx.auc(np.array([0.5, 0.2, 0.5, 0.9]), np.array([0, 1, 1, 1])) == pytest.approx(0.5)

    def test_auc_perfect_and_inverted(self):
        y = np.array([0, 0, 1, 1])
        assert mx.auc(np.array([0.1, 0.2, 0.7, 0.9]), y) == 1.0
        assert mx.auc(np.array([0.9, 0.7, 0.2, 0.1]), y) == 0.0

    def test_auc_single_class_rejected(self):
        with pytest.raises(mx.MetricError):
            mx.auc(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_uauc_skips_single_class_users(self):
        scores = np.array([0.9, 0.1, 0.8, 0.2, 0.7])
        labels = np.array([1, 0, 1, 0, 1])
        users = np.array([1, 1, 2, 2, 3])  # user 3 has only positives
        assert mx.uauc(scores, labels, users) == pytest.approx(1.0)

    def test_uauc_weighted_mean(self):
        scores = np.array([0.9, 0.1, 0.2, 0.8, 0.6, 0.4])
        labels = np.array([1, 0, 1, 0, 1, 0])
        users = np.array([1, 1, 2, 2, 2, 2])
        # user 1 auc 1.0 (2 imps), user 2 auc 0.25 (4 imps)
        assert mx.uauc(scores, labels, users) == pytest.approx((1.0 + 0.25) / 2)
        assert mx.uauc(scores, labels, users, weighted=True) == pytest.approx(
            (2 * 1.0 + 4 * 0.25) / 6
        )

    def test_uauc_no_valid_users_rejected(self):
        with pytest.raises(mx.MetricError):
            mx.uauc(np.array([0.5, 0.5]), np.array([1, 1]), np.array([1, 1]))

    def test_uauc_matches_per_user_auc(self):
        # the sorted split by user against auc() on each user's rows by mask
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 300))
            scores = np.round(rng.standard_normal(n), int(rng.integers(0, 3)))  # ties
            labels = (rng.random(n) < 0.4).astype(np.float64)
            users = rng.integers(0, 40, n)
            vals, sizes = [], []
            for u in np.unique(users):
                sel = users == u
                if 0 < labels[sel].sum() < sel.sum():
                    vals.append(mx.auc(scores[sel], labels[sel]))
                    sizes.append(sel.sum())
            if not vals:
                continue
            assert mx.uauc(scores, labels, users) == np.mean(vals)
            weighted = mx.uauc(scores, labels, users, weighted=True)
            assert weighted == np.average(vals, weights=sizes)

    def test_auc_equals_pair_count_under_ties(self):
        # wins plus half the ties over all positive-negative pairs, exactly
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 60))
            scores = rng.integers(0, int(rng.integers(1, 6)), n) * float(rng.choice([0.1, -1.0]))
            labels = (rng.random(n) < rng.random()).astype(np.float64)
            if labels.min() == labels.max():
                continue
            assert mx.auc(scores, labels) == pair_count_auc(scores, labels)
            checked += 1
        assert checked > 100

    def test_auc_tie_edge_cases(self):
        y = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        assert mx.auc(np.full(5, 0.3), y) == 0.5
        assert mx.auc(np.array([-0.0, 0.0]), np.array([0.0, 1.0])) == 0.5
        assert mx.auc(np.array([0.0, -0.0, 1.0]), np.array([0.0, 1.0, 1.0])) == 0.75
        # one positive among 1000 negatives, above 250 of them and tied with one
        scores = np.append(np.arange(1000) / 1000, 0.25)
        labels = np.append(np.zeros(1000), 1.0)
        assert mx.auc(scores, labels) == 250.5 / 1000
        assert mx.auc(-scores, labels) == 749.5 / 1000

    def test_uauc_under_ties_equals_per_user_pair_counts(self):
        rng = np.random.default_rng(9)
        scores = rng.integers(0, 3, 400) / 2.0
        labels = (rng.random(400) < 0.3).astype(np.float64)
        users = rng.integers(0, 12, 400)
        per_user = [
            pair_count_auc(scores[users == u], labels[users == u]) for u in np.unique(users)
        ]
        assert len(per_user) == 12
        assert mx.uauc(scores, labels, users) == np.mean(per_user)

    def test_uauc_rejects_bad_input(self):
        scores = np.array([0.9, 0.1, 0.8, np.nan])
        labels = np.array([1, 0, 1, 1])
        users = np.array([1, 1, 2, 2])
        with pytest.raises(mx.MetricError):
            mx.uauc(scores, labels, users[:3])
        with pytest.raises(mx.MetricError):
            mx.uauc(scores[:0], labels[:0], users[:0])
        # a non-finite score counts only for a user with both classes
        assert mx.uauc(scores, labels, users) == 1.0
        with pytest.raises(mx.NumericError):
            mx.uauc(scores, np.array([1, 0, 1, 0]), users)
        # labels reaching 0.5 make a user count, but 0.5 is no positive
        with pytest.raises(mx.MetricError):
            mx.uauc(scores[:2], np.array([0.5, 0.0]), users[:2])

    def test_logloss_matches_formula(self):
        p = np.array([0.9, 0.2])
        y = np.array([1.0, 0.0])
        expected = -(np.log(0.9) + np.log(0.8)) / 2
        assert mx.logloss(p, y) == pytest.approx(expected, rel=1e-12)


class TestLossAndTraining:
    def test_batch_loss_is_mean_over_impressions_of_task_sum(self, tiny_schema, tiny_config):
        ds = small_dataset(tiny_schema, n=4)
        store = mx.init_parameters(tiny_schema, tiny_config, seed=0)
        batch = mx.stack_requests(ds.requests)
        loss = float(batch_loss(batch, store, None).data)
        logits = mx.batched_forward(batch, store)
        z = logits.reshape(-1, 2)
        y = batch.labels.reshape(-1, 2)
        bce = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
        np.testing.assert_allclose(loss, bce.sum(axis=1).mean(), rtol=1e-12)

    def test_uint8_labels_give_the_float64_loss_bit_for_bit(self, tiny_schema, tiny_config):
        ds = small_dataset(tiny_schema, n=4)
        store = mx.init_parameters(tiny_schema, tiny_config, seed=0)
        batch = mx.stack_requests(ds.requests)
        assert batch.labels.dtype == np.uint8
        wide = dataclasses.replace(batch, labels=batch.labels.astype(np.float64))
        opt = mx.Optimizer(store.dense, store.tables)
        params = [*store.dense.values(), *(t.weight for t in store.tables.values())]
        runs = []
        for b in (batch, wide):
            opt.zero_grad()
            loss = batch_loss(b, store, None)
            loss.backward()
            runs.append([loss.data, *(p.grad.copy() for p in params)])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    def test_loss_decreases_on_small_data(self, tiny_schema, tiny_config):
        ds = small_dataset(tiny_schema, n=16, seed=3)
        res = mx.fit(
            ds, tiny_config, seed=0, epochs=10, batch_size=12,
            optimizer_config=mx.OptimizerConfig(lr_dense=0.003),
        )
        assert res.losses[-1] < res.losses[0] * 0.7
        assert all(np.isfinite(res.losses))

    def test_fit_respects_max_steps(self, tiny_schema, tiny_config):
        ds = small_dataset(tiny_schema, n=16)
        res = mx.fit(ds, tiny_config, seed=0, epochs=50, batch_size=6, max_steps=7)
        assert len(res.losses) == 7

    def test_predict_orders_by_request(self, tiny_schema, tiny_config, monkeypatch):
        # grouped batching internally, but output order must be the
        # caller's request order regardless of shape grouping; a stack holds
        # at most budget // max(seq_len, K) requests, so 6 // 3 = 2 of the
        # (3, 2) group where 6 // K would stack 3
        rng = np.random.default_rng(5)
        shapes = [(3, 2), (5, 3), (3, 2), (1, 4), (3, 2), (3, 2), (1, 4), (3, 2)]
        reqs = [random_request(tiny_schema, rng, seq_len=t, n_candidates=k) for t, k in shapes]
        store = mx.init_parameters(tiny_schema, tiny_config, seed=1)
        monkeypatch.setattr(mx.trainer, "_PREDICT_ROWS", 6)
        stacks = []

        def logits_fn(batch):
            stacks.append((batch.seq_len, batch.n_candidates, batch.n_requests))
            return mx.batched_forward(batch, store)

        probs, labels, users = mx.predict(reqs, logits_fn)
        assert sum(b for _, _, b in stacks) == len(reqs)
        assert all(b <= max(1, 6 // max(t, k)) for t, k, b in stacks)
        assert probs.shape == (sum(k for _, k in shapes), 2)
        expected_users = np.concatenate([
            np.full(r.n_candidates, r.user_id) for r in reqs
        ])
        np.testing.assert_array_equal(users, expected_users)
        start = 0
        for r in reqs:
            single = np.stack([mx.forward(r, k, store) for k in range(r.n_candidates)])
            np.testing.assert_allclose(
                probs[start : start + r.n_candidates],
                1.0 / (1.0 + np.exp(-single)),
                rtol=1e-12,
            )
            start += r.n_candidates

    def test_consecutive_steps_hold_one_tape(self):
        # backward frees the graph as it runs, so the previous step's loss
        # no longer keeps its tape alive through the next step's forward
        spec = mx.GeneratorSpec(
            n_users=100, n_items=60, n_requests=16, candidates_per_request=8,
            seq_len_min=16, seq_len_max=16, seed=0,
        )
        data = mx.generate(spec)
        cfg = mx.ModelConfig(n_heads=4, head_dim=16, n_blocks=2, max_seq_len=16)
        store = mx.init_parameters(data.dataset.schema, cfg, seed=0)
        opt = mx.Optimizer(store.dense, store.tables)
        # two batches of 8 requests each
        steps = mx.train_steps(
            data.dataset.requests, opt, lambda batch: batch_loss(batch, store), 64, 0, 1
        )
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            next(steps)
            one = tracemalloc.get_traced_memory()[1] - base
            next(steps)
            two = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert two < 1.3 * one, (one, two)

    def test_predict_rejects_no_requests(self, tiny_schema, tiny_config):
        store = mx.init_parameters(tiny_schema, tiny_config, seed=1)
        with pytest.raises(mx.MetricError):
            mx.predict([], lambda batch: mx.batched_forward(batch, store))
        with pytest.raises(mx.MetricError):
            mx.evaluate([], store)

    def test_training_is_deterministic(self, tiny_schema, tiny_config):
        ds = small_dataset(tiny_schema, n=12, seed=7)
        a = mx.fit(ds, tiny_config, seed=4, epochs=2, batch_size=6)
        b = mx.fit(ds, tiny_config, seed=4, epochs=2, batch_size=6)
        assert a.losses == b.losses
        for n in a.store.dense:
            np.testing.assert_array_equal(a.store.dense[n].data, b.store.dense[n].data)


class TestEvaluateDecoupled:
    """A config with user heads is evaluated through rlb_forward_batch."""

    @staticmethod
    def _setup(schema):
        cfg = mx.ModelConfig(
            n_heads=4, head_dim=8, n_blocks=2, max_seq_len=6,
            decoupling=mx.DecoupleConfig(True, 2, 2),
        )
        rng = np.random.default_rng(17)
        shapes = [(0, 3), (2, 1), (6, 4), (6, 4), (0, 3), (2, 1), (6, 2), (6, 4)] * 3
        holdout = [random_request(schema, rng, seq_len=t, n_candidates=k) for t, k in shapes]
        return mx.init_parameters(schema, cfg, seed=5), holdout

    def test_matches_masked_batched_scores(self, tiny_schema):
        store, holdout = self._setup(tiny_schema)
        cfg = store.config
        mask = mx.build_mask(cfg.n_heads, cfg.user_heads, cfg.head_dim)
        expected = mx.trainer.summarize(
            *mx.predict(holdout, lambda batch: mx.batched_forward(batch, store, mask))
        )
        assert mx.evaluate(holdout, store) == expected
        assert mx.evaluate(holdout, store, mask) == expected

    def test_stack_size_does_not_change_scores(self, tiny_schema, monkeypatch):
        # one request per stack and every request of a shape in one stack
        # score the same bits, decoupled and masked
        store, holdout = self._setup(tiny_schema)
        cfg = store.config
        mask = mx.build_mask(cfg.n_heads, cfg.user_heads, cfg.head_dim)
        n_shapes = len({(r.seq_len, r.n_candidates) for r in holdout})
        whole = len(holdout) * max(max(r.seq_len, r.n_candidates) for r in holdout)
        for score in (
            lambda batch: mx.rlb_forward_batch(batch, store),
            lambda batch: mx.batched_forward(batch, store, mask),
        ):
            probs = []
            for budget, n_stacks in ((1, len(holdout)), (whole, n_shapes)):
                monkeypatch.setattr(mx.trainer, "_PREDICT_ROWS", budget)
                stacks = []

                def counted(batch):
                    stacks.append(batch.n_requests)
                    return score(batch)

                probs.append(mx.predict(holdout, counted)[0])
                assert len(stacks) == n_stacks
            np.testing.assert_array_equal(probs[0], probs[1])

    @staticmethod
    def _long_sequence_evaluate_peak():
        """Peak traced bytes of one evaluate of 32 requests of 256 actions
        and 16 candidates at desk-small."""
        t = 256
        spec = mx.GeneratorSpec(
            n_users=200, n_items=60, n_requests=32, candidates_per_request=16,
            seq_len_min=t, seq_len_max=t, seed=0,
        )
        data = mx.generate(spec)
        schema = data.dataset.schema
        n_u, n_g = mx.allocate_heads(schema.d_ns_user, schema.d_ns_item, 4)
        cfg = mx.ModelConfig(
            n_heads=4, head_dim=32, n_blocks=2, max_seq_len=t,
            decoupling=mx.DecoupleConfig(True, n_u, n_g),
        )
        store = mx.init_parameters(schema, cfg, seed=0)
        tracemalloc.start()
        try:
            mx.evaluate(data.dataset.requests, store)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_long_sequence_working_set_is_bounded(self):
        # the stack's keys and values take 16 MiB at 32 requests, while its
        # sequence-FFN hidden activation, were it projected in one piece,
        # would take 16 MiB per array and lift the peak past 64 MiB
        assert self._long_sequence_evaluate_peak() < 32 * 2**20

    def test_long_sequence_stack_is_a_few_requests(self):
        # predict stacks 2048 // 256 = 8 such requests, so no stack holds
        # more than eight requests' sequence embedding, keys and values
        # (about 8.5 MiB; stacks of 4096 rows peak at about 16.8 MiB)
        assert self._long_sequence_evaluate_peak() < 12 * 2**20

    def test_foreign_mask_rejected(self, tiny_schema):
        store, holdout = self._setup(tiny_schema)
        cfg = store.config
        foreign = np.ones((cfg.n_heads, cfg.head_dim)), mx.build_mask(cfg.n_heads, 1, cfg.head_dim)
        batch = mx.stack_requests(holdout[:1])
        for mask in foreign:
            with pytest.raises(mx.ConfigError):
                mx.evaluate(holdout, store, mask)
            with pytest.raises(mx.ConfigError):
                mx.forward(holdout[0], 0, store, mask)
            with pytest.raises(mx.ConfigError):
                mx.batched_forward(batch, store, mask)
            with pytest.raises(mx.ConfigError):
                mx.batch_loss(batch, store, mask)


class TestEvaluateInputs:
    """evaluate validates its holdout before scoring it."""

    @pytest.mark.parametrize("decoupled", [False, True], ids=["plain", "decoupled"])
    def test_bad_holdout_raises_typed_error(self, tiny_schema, decoupled):
        cfg = mx.ModelConfig(
            n_heads=4, head_dim=8, n_blocks=1, max_seq_len=6,
            decoupling=mx.DecoupleConfig(True, 2, 2) if decoupled else mx.DecoupleConfig(),
        )
        store = mx.init_parameters(tiny_schema, cfg, seed=1)
        rng = np.random.default_rng(23)
        holdout = [random_request(tiny_schema, rng, n_candidates=4) for _ in range(6)]
        too_long = dataclasses.replace(holdout[0], actions=np.zeros((9, 2), dtype=np.int64))
        unlabelled = dataclasses.replace(holdout[1], labels=None)
        wide = dataclasses.replace(holdout[2], labels=np.zeros((4, 3)))
        short = dataclasses.replace(holdout[3], labels=np.zeros((3, 2)))
        not_binary = dataclasses.replace(holdout[4], labels=np.full((4, 2), 0.5))
        for bad, error in (
            (too_long, mx.DataError),
            (unlabelled, mx.MetricError),
            (wide, mx.MetricError),
            (short, mx.DataError),
            (not_binary, mx.DataError),
        ):
            with pytest.raises(error):
                mx.evaluate([*holdout, bad], store)
        mx.evaluate(holdout, store)


class TestAblationHarness:
    def test_names_cover_all_flags(self):
        import dataclasses as dc

        flag_names = {f.name for f in dc.fields(mx.AblationFlags)}
        assert set(mx.ABLATION_NAMES) == flag_names
        assert len(mx.ABLATION_NAMES) == 6

    def test_apply_ablation_flips_exactly_one_switch(self, tiny_config):
        for name in mx.ABLATION_NAMES:
            variant = mx.apply_ablation(tiny_config, name)
            diff = mx.config_diff(tiny_config, variant)
            assert list(diff) == [f"ablations.{name}"]
            assert diff[f"ablations.{name}"] == (False, True)

    def test_unknown_ablation_rejected(self, tiny_config):
        with pytest.raises(mx.ConfigError):
            mx.apply_ablation(tiny_config, "wo_everything")

    def test_run_ablation_reports_delta(self, tiny_schema, tiny_config):
        ds = small_dataset(tiny_schema, n=18, seed=9)
        train = mx.Dataset(schema=tiny_schema, requests=ds.requests[:14])
        holdout = ds.requests[14:]
        base = mx.fit(train, tiny_config, seed=0, epochs=1, batch_size=6, holdout=holdout)
        res = mx.run_ablation(
            "wo_hm", tiny_config, train, holdout, base.metrics,
            seed=0, epochs=1, batch_size=6,
        )
        assert res.name == "wo_hm"
        assert res.changed_fields == {"ablations.wo_hm": (False, True)}
        np.testing.assert_allclose(
            res.delta_auc, np.array(res.variant.auc) - np.array(base.metrics.auc)
        )
        assert all(np.isfinite(res.variant_losses))
