"""Synthetic generator: planted signal, oracle ceiling, determinism."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mixformer as mx
from mixformer.datagen import (
    BIAS,
    BIAS_SECOND_TASK,
    MATCH_CAP,
    GeneratorSpec,
    baseline_score,
    generate,
    make_schema,
    split_holdout,
    tune_noise_temperature,
)

SMALL = dict(
    n_users=300,
    n_items=80,
    n_clusters=8,
    seq_len_min=8,
    seq_len_max=12,
    n_requests=900,
    candidates_per_request=4,
    seed=3,
)


@pytest.fixture(scope="module")
def small_data():
    return generate(GeneratorSpec(**SMALL))


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def assert_same_requests(a, b):
    """The first min(len) requests and oracle rows of two corpora are equal."""
    for r_a, r_b in zip(a.dataset.requests, b.dataset.requests):
        assert r_a.user_id == r_b.user_id
        for name in ("user_nonseq", "actions", "candidates", "labels"):
            x, y = getattr(r_a, name), getattr(r_b, name)
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)
    for o_a, o_b in zip(a.oracle, b.oracle):
        np.testing.assert_array_equal(o_a, o_b)


# ---------------------------------------------------------------- schema


class TestSchema:
    def test_fields_cover_both_sides_and_actions(self):
        schema = make_schema(GeneratorSpec(**SMALL))
        names = [f.name for f in schema.nonseq_fields]
        assert names == ["user_id", "user_segment", "item_id", "item_cluster"]
        assert [f.side for f in schema.nonseq_fields] == [
            "user", "context", "item", "item",
        ]
        assert [f.name for f in schema.action_fields] == [
            "item_id", "action_type", "recency_bucket",
        ]
        assert schema.max_seq_len == SMALL["seq_len_max"]

    def test_vocab_sizes_track_spec(self):
        spec = GeneratorSpec(**SMALL)
        schema = make_schema(spec)
        by_name = {f.name: f for f in schema.nonseq_fields}
        assert by_name["user_id"].vocab_size == spec.n_users
        assert by_name["item_id"].vocab_size == spec.n_items
        assert by_name["item_cluster"].vocab_size == spec.n_clusters

    def test_generated_requests_validate(self, small_data):
        schema = small_data.dataset.schema
        for r in small_data.dataset.requests[:50]:
            r.validate(schema)


# ------------------------------------------------------------ validation


class TestSpecValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_items=1),
            dict(seq_len_min=5, seq_len_max=3),
            dict(seq_len_min=-1),
            dict(candidates_per_request=0),
            dict(noise_temperature=0.0),
            dict(n_tasks=3),
        ],
        ids=[
            "one_item", "seq_len_min_above_max", "negative_seq_len_min",
            "no_candidates", "zero_temperature", "three_tasks",
        ],
    )
    def test_bad_spec_rejected(self, bad):
        with pytest.raises(mx.ConfigError):
            GeneratorSpec(**{**SMALL, **bad})


# ------------------------------------------------------------ zero signal


@pytest.fixture(scope="module")
def flat():
    spec = GeneratorSpec(**{**SMALL, "n_requests": 1500}, w_inter=0.0, w_seq=0.0)
    return spec, generate(spec)


class TestZeroSignal:
    def test_label_marginal_matches_bias(self, flat):
        _, data = flat
        labels = np.concatenate([r.labels for r in data.dataset.requests])
        n = labels.shape[0]
        for task, bias in enumerate([BIAS, BIAS_SECOND_TASK]):
            p = sigmoid(bias)
            bound = 4.0 * math.sqrt(p * (1.0 - p) / n)
            assert abs(labels[:, task].mean() - p) < bound

    def test_oracle_probs_constant_and_auc_half(self, flat):
        _, data = flat
        probs = np.concatenate(data.oracle)
        np.testing.assert_array_equal(probs[:, 0], sigmoid(BIAS))
        assert data.oracle_auc(0) == 0.5
        assert data.oracle_auc(1) == 0.5

    def test_baseline_sits_at_chance(self, flat):
        _, data = flat
        train, holdout = split_holdout(data, 0.2)
        summary = baseline_score(train, holdout, seed=0, epochs=1, batch_size=512)
        assert 0.48 <= summary.auc[0] <= 0.52


# ------------------------------------------------------------ determinism


class TestDeterminism:
    def test_same_seed_byte_identical_files(self, tmp_path):
        spec = GeneratorSpec(**SMALL)
        paths = []
        for tag in ("a", "b"):
            data = generate(spec)
            ds_path = tmp_path / f"{tag}.bin"
            or_path = tmp_path / f"{tag}.csv"
            mx.write_dataset(str(ds_path), data.dataset)
            mx.write_oracle(str(or_path), data.oracle)
            paths.append((ds_path, or_path))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_different_seed_changes_labels(self):
        a = generate(GeneratorSpec(**SMALL))
        b = generate(GeneratorSpec(**{**SMALL, "seed": SMALL["seed"] + 1}))
        la = np.concatenate([r.labels for r in a.dataset.requests])
        lb = np.concatenate([r.labels for r in b.dataset.requests])
        assert not np.array_equal(la, lb)

    def test_prefix_of_requests_is_stable(self, small_data):
        """Shrinking n_requests must not disturb the earlier requests:
        every request draws from its own spawned seed."""
        short = generate(GeneratorSpec(**{**SMALL, "n_requests": 5}))
        assert_same_requests(short, small_data)


# ------------------------------------------------------------- chunking

CHUNKED = GeneratorSpec(**{**SMALL, "n_requests": 10})


def chunk_sizes(spec):
    return [c.rows.stop - c.rows.start for c in mx.datagen._draw(spec)[1]]


def request_rows(spec):
    """The rows a request counts for against the chunk budget."""
    return max(spec.candidates_per_request, spec.seq_len_max)


@pytest.fixture(scope="module")
def one_chunk():
    assert chunk_sizes(CHUNKED) == [CHUNKED.n_requests]
    return generate(CHUNKED)


class TestChunking:
    """The corpus is drawn and realized a few whole requests at a time;
    the chunk size must not change a single value."""

    @pytest.mark.parametrize("per_chunk, sizes", [
        (1, [1] * 10), (2, [2] * 5), (3, [3, 3, 3, 1]),
    ])
    def test_corpus_independent_of_chunk_size(self, one_chunk, per_chunk, sizes, monkeypatch):
        monkeypatch.setattr(mx.datagen, "_CHUNK_ROWS", per_chunk * request_rows(CHUNKED))
        assert chunk_sizes(CHUNKED) == sizes
        data = generate(CHUNKED)
        assert len(data.dataset.requests) == len(data.oracle) == CHUNKED.n_requests
        assert_same_requests(data, one_chunk)
        for name in ("user_latents", "item_latents", "item_clusters"):
            np.testing.assert_array_equal(getattr(data, name), getattr(one_chunk, name))

    def test_sequence_length_bounds_the_chunk(self, one_chunk, monkeypatch):
        # 12 actions outweigh 4 candidates: a budget of three requests'
        # candidates holds one request's sequence rows
        k, t = CHUNKED.candidates_per_request, CHUNKED.seq_len_max
        assert t > k
        monkeypatch.setattr(mx.datagen, "_CHUNK_ROWS", 3 * k)
        assert chunk_sizes(CHUNKED) == [1] * 10
        monkeypatch.setattr(mx.datagen, "_CHUNK_ROWS", 2 * t)
        assert chunk_sizes(CHUNKED) == [2] * 5
        assert_same_requests(generate(CHUNKED), one_chunk)

    def test_prefix_stable_across_chunk_boundary(self, one_chunk, monkeypatch):
        # chunks of 3: five requests end inside the second chunk
        monkeypatch.setattr(mx.datagen, "_CHUNK_ROWS", 3 * request_rows(CHUNKED))
        short = generate(replace(CHUNKED, n_requests=5))
        assert len(short.dataset.requests) == 5
        assert_same_requests(short, one_chunk)

    def test_temperature_search_independent_of_chunk_size(self, monkeypatch):
        spec = GeneratorSpec(**{**SMALL, "n_requests": 200})
        whole = tune_noise_temperature(spec)
        monkeypatch.setattr(mx.datagen, "_CHUNK_ROWS", 3 * request_rows(spec))
        assert tune_noise_temperature(spec) == whole


class TestWorkingSet:
    """Generation holds its output plus one chunk, and the oracle file is
    streamed row by row."""

    WIDE = GeneratorSpec(**{**SMALL, "seq_len_min": 8, "seq_len_max": 8,
                            "n_requests": 640, "candidates_per_request": 1024})

    @pytest.fixture(scope="class")
    def traced(self):
        tracemalloc.start()
        try:
            data = generate(self.WIDE)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return data, held, peak

    def test_generate_peak_near_its_output(self, traced):
        _, held, peak = traced
        assert peak < 1.25 * held, (held, peak)

    def test_long_sequence_generate_peak_near_its_output(self):
        # 16 candidates but 256 actions a request: the chunk is sized by
        # the sequence rows, so it is a few requests, not the whole corpus
        long = GeneratorSpec(**{**SMALL, "seq_len_min": 256, "seq_len_max": 256,
                                "n_requests": 640, "candidates_per_request": 16})
        tracemalloc.start()
        try:
            data = generate(long)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data.dataset.requests) == long.n_requests
        assert peak < 1.25 * held, (held, peak)

    def test_oracle_written_in_bounded_memory(self, traced, tmp_path):
        data, _, _ = traced
        path = tmp_path / "oracle.csv"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mx.write_oracle(str(path), data.oracle[:48])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < size / 10, (size, peak)

    def test_requests_retain_about_their_file_bytes(self, tmp_path):
        # ids and labels are held at dataset.bin's widths (4-byte ids,
        # 1-byte labels), so the requests retain little more than the file
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            requests = generate(self.WIDE).dataset.requests
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        path = tmp_path / "dataset.bin"
        mx.write_dataset(str(path), mx.Dataset(make_schema(self.WIDE), requests))
        impressions = sum(r.n_candidates for r in requests)
        per_impression = retained / impressions
        file_per_impression = path.stat().st_size / impressions
        assert per_impression < 1.2 * file_per_impression, (per_impression, file_per_impression)


# ---------------------------------------------------------- corpus shape


class TestCorpusShape:
    def test_requests_hold_file_widths(self, small_data):
        # int32 ids and uint8 labels, the widths of dataset.bin's <u4 and <u1
        for r in small_data.dataset.requests:
            for a in (r.user_nonseq, r.actions, r.candidates):
                assert a.dtype == np.int32
            assert r.labels.dtype == np.uint8

    def test_seq_lengths_span_the_configured_range(self, small_data):
        lens = np.array([r.seq_len for r in small_data.dataset.requests])
        assert lens.min() >= SMALL["seq_len_min"]
        assert lens.max() <= SMALL["seq_len_max"]
        assert lens.min() == SMALL["seq_len_min"]
        assert lens.max() == SMALL["seq_len_max"]

    def test_empty_sequences_supported(self):
        spec = GeneratorSpec(**{**SMALL, "seq_len_min": 0, "seq_len_max": 0,
                                "n_requests": 40})
        data = generate(spec)
        for r in data.dataset.requests:
            assert r.seq_len == 0
            assert r.actions.shape == (0, 3)
            assert r.actions.dtype == np.int32

    def test_recency_buckets_grow_logarithmically(self, small_data):
        from mixformer.datagen import N_RECENCY_BUCKETS

        for r in small_data.dataset.requests[:10]:
            ages = np.arange(r.seq_len)
            expected = np.minimum(
                np.log2(ages + 1).astype(np.int64), N_RECENCY_BUCKETS - 1
            )
            np.testing.assert_array_equal(r.actions[:, 2], expected)

    def test_candidate_clusters_consistent(self, small_data):
        clusters = small_data.item_clusters
        for r in small_data.dataset.requests[:50]:
            np.testing.assert_array_equal(
                r.candidates[:, 1], clusters[r.candidates[:, 0]]
            )

    def test_oracle_shapes_and_range(self, small_data):
        for r, probs in zip(small_data.dataset.requests, small_data.oracle):
            assert probs.shape == (r.n_candidates, 2)
            assert np.all((probs > 0.0) & (probs < 1.0))
            assert set(np.unique(r.labels)) <= {0.0, 1.0}

    def test_single_task_supported(self):
        spec = GeneratorSpec(**{**SMALL, "n_requests": 30}, n_tasks=1)
        data = generate(spec)
        for r, probs in zip(data.dataset.requests, data.oracle):
            assert r.labels.shape == (spec.candidates_per_request, 1)
            assert probs.shape == (spec.candidates_per_request, 1)

    def test_tasks_anticorrelated(self, small_data):
        probs = np.concatenate(small_data.oracle)
        assert np.corrcoef(probs[:, 0], probs[:, 1])[0, 1] < -0.9


# -------------------------------------------------------------- planted signal


class TestPlantedSignal:
    def test_match_contribution_is_capped(self):
        spec = GeneratorSpec(
            **{**SMALL, "n_items": 60, "n_clusters": 6},
            w_inter=0.0,
            w_seq=1.0,
            cluster_spread=0.05,
        )
        data = generate(spec)
        probs = np.concatenate(data.oracle)[:, 0]
        ceiling = sigmoid(spec.w_seq * MATCH_CAP / spec.noise_temperature
                          + BIAS)
        floor = sigmoid(BIAS)
        assert probs.max() <= ceiling + 1e-12
        assert probs.min() >= floor - 1e-12
        assert probs.max() > floor + 1e-9  # some sequence matches actually fire

    def test_oracle_dominates_partial_scorers(self, small_data):
        """Scoring by the true probabilities beats scoring by either
        signal component alone (up to sampling slack)."""
        from mixformer.trainer import auc

        labels = np.concatenate(
            [r.labels[:, 0] for r in small_data.dataset.requests]
        )
        oracle = np.concatenate([m[:, 0] for m in small_data.oracle])
        users = small_data.user_latents
        items = small_data.item_latents
        dots = np.concatenate(
            [
                items[r.candidates[:, 0]] @ users[r.user_id]
                for r in small_data.dataset.requests
            ]
        )
        rng = np.random.default_rng(0)
        oracle_auc = auc(oracle, labels)
        assert auc(dots, labels) <= oracle_auc + 0.01
        assert auc(rng.random(labels.size), labels) <= oracle_auc + 0.01
        assert oracle_auc > 0.6

    def test_interaction_only_baseline_below_oracle(self):
        spec = GeneratorSpec(**{**SMALL, "n_requests": 1200}, w_seq=0.0)
        data = generate(spec)
        train, holdout = split_holdout(data, 0.2)
        summary = baseline_score(train, holdout, seed=0, epochs=3, batch_size=256)
        assert summary.auc[0] < data.oracle_auc(0)

    def test_sequence_heavy_blinds_the_baseline(self):
        spec = GeneratorSpec(
            **{**SMALL, "n_items": 60, "n_clusters": 6, "n_requests": 1200},
            w_inter=0.0,
            w_seq=1.5,
            cluster_spread=0.05,
        )
        data = generate(spec)
        assert data.oracle_auc(0) > 0.7
        train, holdout = split_holdout(data, 0.2)
        summary = baseline_score(train, holdout, seed=0, epochs=3, batch_size=256)
        assert summary.auc[0] < 0.58


# ---------------------------------------------------------- temperature


class TestTemperatureTuning:
    def test_lands_in_band_and_reproduces(self):
        spec = GeneratorSpec(**SMALL)
        tuned, achieved = tune_noise_temperature(spec, (0.84, 0.86))
        assert 0.84 <= achieved <= 0.86
        assert tuned.noise_temperature != spec.noise_temperature
        regenerated = generate(tuned)
        assert regenerated.oracle_auc(0) == achieved

    def test_zero_signal_cannot_bracket(self):
        spec = GeneratorSpec(**{**SMALL, "n_requests": 200},
                             w_inter=0.0, w_seq=0.0)
        with pytest.raises(mx.DataError):
            tune_noise_temperature(spec, (0.84, 0.86))

    def test_bad_band_rejected(self):
        spec = GeneratorSpec(**SMALL)
        with pytest.raises(mx.ConfigError):
            tune_noise_temperature(spec, (0.86, 0.84))


# -------------------------------------------------------------- holdout


class TestSplitHoldout:
    def test_sizes_and_order(self, small_data):
        train, holdout = split_holdout(small_data, 0.25)
        n = len(small_data.dataset.requests)
        assert len(train.requests) + len(holdout) == n
        assert len(holdout) == n - int(n * 0.75)
        assert train.requests[0] is small_data.dataset.requests[0]
        assert holdout[-1] is small_data.dataset.requests[-1]

    def test_fraction_validated(self, small_data):
        for bad in (0.0, 1.0, -0.2, 300):
            with pytest.raises(mx.ConfigError):
                split_holdout(small_data, bad)

    def test_tiny_corpus_still_splits(self):
        data = generate(GeneratorSpec(**{**SMALL, "n_requests": 2}))
        train, holdout = split_holdout(data, 0.9)
        assert len(train.requests) >= 1
        assert len(holdout) >= 1

    def test_single_request_stays_on_train_side(self):
        data = generate(GeneratorSpec(**{**SMALL, "n_requests": 1}))
        train, holdout = split_holdout(data, 0.5)
        assert train.requests == data.dataset.requests
        assert holdout == []
