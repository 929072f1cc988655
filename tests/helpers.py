"""Shared test utilities: random model shapes, the execution-trace
FLOP oracle that cross-checks the analytic meter, and the batch-scorer
parity check."""

import dataclasses

import numpy as np

import mixformer as mx
from mixformer import autodiff as ad


def random_config(rng, allow_decouple=True):
    n_heads = int(rng.choice([2, 3, 4, 8]))
    head_dim = int(n_heads * rng.integers(2, 9))
    flags = mx.AblationFlags(
        wo_hm=bool(rng.random() < 0.2),
        hm_to_sa=bool(rng.random() < 0.2),
        wo_qm_ffn=bool(rng.random() < 0.2),
        shared_seq_ffn=bool(rng.random() < 0.2),
        shared_of_ffn=bool(rng.random() < 0.2),
        post_ln=bool(rng.random() < 0.2),
    )
    du, dg = int(rng.integers(4, 40)), int(rng.integers(4, 40))
    t = int(rng.choice([0, 1, 5, 8]))
    cfg = mx.ModelConfig(
        n_heads=n_heads, head_dim=head_dim,
        n_blocks=int(rng.integers(1, 4)), max_seq_len=max(t, 1),
        ablations=flags,
    )
    if allow_decouple and not flags.hm_to_sa and rng.random() < 0.4:
        n_u, n_g = mx.allocate_heads(du, dg, n_heads)
        cfg = dataclasses.replace(
            cfg, decoupling=mx.DecoupleConfig(True, n_u, n_g)
        )
    schema = mx.schema_from_widths(du, dg, 6, max(t, 1))
    return cfg, schema, t


def traced_forward_flops(cfg, schema, t, seed=0):
    store = mx.init_parameters(schema, cfg, seed=seed)
    req = mx.Request(
        user_id=0, user_nonseq=[0],
        actions=np.zeros((t, 1), dtype=np.int64),
        candidates=np.zeros((1, 1), dtype=np.int64),
    )
    with ad.FlopTrace() as tr:
        mx.forward(req, 0, store)
    return tr.total


def assert_rlb_batch_matches(store, requests):
    """rlb_forward_batch on a stack equals rlb_forward on each request and
    masked batched_forward, bit for bit, and traces B times the rlb meter."""
    batch = mx.stack_requests(requests)
    with ad.FlopTrace() as trace:
        out = mx.rlb_forward_batch(batch, store)
    np.testing.assert_array_equal(out, np.stack([mx.rlb_forward(r, store) for r in requests]))
    np.testing.assert_array_equal(out, mx.batched_forward(batch, store))
    meter = mx.count_flops(store.config, store.schema, batch.seq_len, batch.n_candidates, rlb=True)
    assert trace.total == len(requests) * meter.total
