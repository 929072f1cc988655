"""User-item decoupled inference.

Heads are partitioned into a user side and an item side.  A binary mask
on the head-mixing output, applied whenever the config decouples, stops
user heads from ever reading item chunks, so rows 0..n_user_heads-1 of
the state are functions of the user and sequence alone.  That makes
request-level batching possible: rlb_forward_batch runs each block on
the user rows once per request (a row range reads no item chunk, so
needs no mask), then on the item rows of every candidate, each pass on
its heads' weights, keys and values, the item rows also on the user
rows' mixing inputs.  rlb_forward is rlb_forward_batch on one request,
and compute_shared_user_state keeps the user half of the same loop.

rlb_forward_batch reproduces forward_decoupled bit for bit: every
candidate-row product, and the sequence FFN's product over action rows,
runs in fixed-shape row tiles (ad.head_matmul), so a row rounds the same
alone, among a request's candidates or in a stack.
It never recomputes anything candidate-independent.  trainer.evaluate
scores a config with user heads through it.  It holds one block's keys
and values of the stack at a time, and projects them a chunk of whole
requests at a time, sized so the sequence FFN's hidden activation stays
within _KV_CHUNK_ELEMENTS: over a whole stack of long sequences that
activation, not the keys and values, would set evaluate's peak memory.
A request's GEMMs are the same at any chunk size, so chunking changes
no score and no FLOP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .blocks import (
    ModelConfig,
    ParameterStore,
    build_mask,
    forward,
    mixformer_block,
    project_actions,
    sequence_embedding,
    task_logits,
)
from .errors import ConfigError
from .features import Request, RequestBatch, embed_nonseq_batch, split_heads


def allocate_heads(d_ns_user: int, d_ns_item: int, n_heads: int) -> tuple[int, int]:
    """Split n_heads proportionally to embedding widths.

    Item heads get floor(d_ns_item * n_heads / d_ns); both sides are
    clamped to at least one head.  Returns (n_user_heads, n_item_heads).
    """
    if n_heads < 2:
        raise ConfigError("decoupling needs at least 2 heads")
    total = d_ns_user + d_ns_item
    if total <= 0:
        raise ConfigError("embedding widths must be positive")
    n_item = (d_ns_item * n_heads) // total
    n_item = min(max(n_item, 1), n_heads - 1)
    return n_heads - n_item, n_item


def _require_decoupling(cfg: ModelConfig, caller: str) -> None:
    if not cfg.decoupling.enabled:
        raise ConfigError(f"{caller} requires decoupling in the config")


def forward_decoupled(
    request: Request, candidate_index: int, store: ParameterStore
) -> np.ndarray:
    """Reference decoupled scoring: the full forward pass with the mask."""
    cfg = store.config
    _require_decoupling(cfg, "forward_decoupled")
    mask = build_mask(cfg.n_heads, cfg.user_heads, cfg.head_dim)
    return forward(request, candidate_index, store, mask=mask)


@dataclass
class LayerUserState:
    """Candidate-independent intermediates of one block."""

    mix_src_user: np.ndarray | None  # what head mixing read, user rows
    keys: np.ndarray | None  # (n_heads, t, head_dim)
    values: np.ndarray | None
    q_user: np.ndarray  # (n_user_heads, head_dim)
    z_user: np.ndarray
    out_user: np.ndarray


@dataclass
class SharedUserState:
    """Everything a request contributes independently of any candidate."""

    e_user: np.ndarray  # non-sequential concat read by the user heads
    x0_user: np.ndarray  # user head rows after split
    seq: np.ndarray | None  # (t, model_width) raw sequence embedding
    layers: list[LayerUserState]
    out_user: np.ndarray  # user head rows after the last block


def _one(t: ad.Tensor | np.ndarray | None, ndim: int = 2) -> np.ndarray | None:
    # the last ndim axes of an array or tensor of one request and at most one candidate
    return None if t is None else ad.as_tensor(t).data.reshape(t.shape[-ndim:])


def compute_shared_user_state(request: Request, store: ParameterStore) -> SharedUserState:
    """Run all candidate-independent work of a request once: the block
    stack on the user rows at one candidate, and the sequence keys and
    values of every head."""
    cfg, schema = store.config, store.schema
    _require_decoupling(cfg, "shared user state")
    request.validate(schema)
    n_u = cfg.user_heads
    batch = request.as_batch()
    with ad.no_grad():
        # user fields feed the user heads, or the item heads when there are none
        e_user = embed_nonseq_batch(batch, store.tables, schema, user=n_u > 0, item=False)
        x0 = split_heads(e_user, store.dense["split.proj"], store.layout, (0, n_u))
        s = sequence_embedding(batch, store)
        rec = [r for _, _, r in _user_blocks(x0, s, store)]
    # LayerUserState's field order, with each field's number of axes
    keys = (("mix_src", 2), ("keys", 3), ("values", 3), ("q", 2), ("z", 2), ("out", 2))
    return SharedUserState(
        e_user=e_user.data.reshape(-1),
        x0_user=_one(x0),
        seq=None if s is None else s.data[0],
        layers=[LayerUserState(*(_one(r.get(k), d) for k, d in keys)) for r in rec],
        out_user=_one(rec[-1]["out"]),
    )


def rlb_forward(request: Request, store: ParameterStore) -> np.ndarray:
    """Score every candidate of a request with user work done once.

    Returns (n_candidates, n_tasks) logits, numerically equal to calling
    forward_decoupled on each candidate: rlb_forward_batch on a batch of
    this one request.
    """
    _require_decoupling(store.config, "rlb_forward")
    request.validate(store.schema)
    return rlb_forward_batch(request.as_batch(), store)[0]


# the most sequence-FFN hidden activation elements one key/value projection chunk holds
_KV_CHUNK_ELEMENTS = 2**16


def _project_chunked(
    s: np.ndarray, p: dict[str, ad.Tensor], cfg: ModelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """project_actions of a (B, t, width) stack, run on chunks of whole
    requests whose sequence-FFN hidden activation holds at most
    _KV_CHUNK_ELEMENTS, each written into the stack's keys and values."""
    b, t = s.shape[:2]
    c = max(1, _KV_CHUNK_ELEMENTS // (t * cfg.seq_ffn_hidden))
    keys = np.empty((b, cfg.n_heads, t, cfg.head_dim), s.dtype)
    values = np.empty_like(keys)
    for lo in range(0, b, c):
        k, v = project_actions(s[lo : lo + c], p, cfg)
        keys[lo : lo + c], values[lo : lo + c] = k.data, v.data
    return keys, values


def _user_blocks(user: ad.Tensor, s: ad.Tensor | None, store: ParameterStore):
    """The user half of the decoupled block loop, block by block.

    Each block projects every request's keys and values (_project_chunked),
    runs the user rows [0, n_user_heads) of the (B, 1, n_user_heads,
    head_dim) state through it, and yields the block's index, its (keys,
    values) or None, and the user rows' record: mixformer_block's plus
    those "keys", "values" and the block output "out".  The block's keys
    and values are dropped before the next block projects its own.
    """
    cfg = store.config
    n_u = cfg.user_heads
    for l in range(cfg.n_blocks):
        kv = None if s is None else _project_chunked(s.data, store.block(l), cfg)
        rec: dict = {} if kv is None else dict(zip(("keys", "values"), kv))
        user_kv = kv and tuple(a[:, :n_u] for a in kv)
        user = mixformer_block(user, store.block(l, (0, n_u)), cfg, user_kv, record=rec)
        rec["out"] = user
        yield l, kv, rec
        del kv, rec, user_kv


def rlb_forward_batch(batch: RequestBatch, store: ParameterStore) -> np.ndarray:
    """(B, K, n_tasks) logits of a stacked batch, each request scored as
    forward_decoupled scores each of its candidates: bit for bit, with
    user work done once per request.

    One pass over the blocks (_user_blocks): each block projects every
    request's keys and values once, runs the user rows at one row per
    request, then the item rows at every candidate, reading that block's
    keys, values and user mixing inputs, so only one block's keys and
    values of the stack are held at a time.
    """
    cfg, schema = store.config, store.schema
    _require_decoupling(cfg, "rlb_forward_batch")
    n, n_u = cfg.n_heads, cfg.user_heads
    b, k = batch.n_requests, batch.n_candidates
    proj = store.dense["split.proj"]
    with ad.no_grad():
        e_user = embed_nonseq_batch(batch, store.tables, schema, user=n_u > 0, item=False)
        user = split_heads(e_user, proj, store.layout, (0, n_u))
        e_item = embed_nonseq_batch(batch, store.tables, schema, user=n_u == 0)
        x = split_heads(e_item, proj, store.layout, (n_u, n))
        for l, kv, rec in _user_blocks(user, sequence_embedding(batch, store), store):
            kv = kv and tuple(a[:, n_u:] for a in kv)
            x = mixformer_block(x, store.block(l, (n_u, n)), cfg, kv, rec.get("mix_src"))
            user = rec["out"]
            del kv, rec
        user = ad.broadcast_to(user, (b, k, n_u, cfg.head_dim))
        full = ad.concat([user, x], axis=-2)
        return task_logits(full.reshape((b, k, cfg.model_width)), store).data
