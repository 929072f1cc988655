"""User-item decoupled inference.

Heads are partitioned into a user side and an item side.  A binary mask
on the head-mixing output stops user heads from ever reading item
chunks, so rows 0..n_user_heads-1 of the state are functions of the
user and sequence alone.  That makes request-level batching possible:
compute_shared_user_state runs the block stack on the user rows once
per request, keeping the sequence keys and values and the user rows'
mixing inputs; rlb_forward then runs the same stack on the item rows
for all candidates, reading that cache.

rlb_forward reproduces forward_decoupled exactly (up to float
reassociation); it never recomputes anything candidate-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .blocks import (
    ModelConfig,
    ParameterStore,
    forward,
    head_mixing,
    run_blocks,
    sequence_embedding,
    task_logits,
)
from .errors import ConfigError, ShapeError
from .features import Request, embed_nonseq_batch, split_heads


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


def build_mask(n_heads: int, n_user_heads: int, head_dim: int) -> np.ndarray:
    """(n_heads, head_dim) zero/one mask for the head-mixing output.

    Entry [i, j] is 0 iff row i is a user head and column j falls in an
    item head's chunk, i.e. j >= n_user_heads * (head_dim / n_heads).
    """
    if head_dim % n_heads != 0:
        raise ShapeError(f"head_dim {head_dim} not divisible by n_heads {n_heads}")
    if not 0 <= n_user_heads <= n_heads:
        raise ShapeError("n_user_heads must lie in [0, n_heads]")
    chunk = head_dim // n_heads
    mask = np.ones((n_heads, head_dim))
    mask[:n_user_heads, n_user_heads * chunk :] = 0.0
    return mask


def head_mixing_masked(x, mask: np.ndarray) -> ad.Tensor:
    """Head mixing followed by the decoupling mask."""
    x = ad.as_tensor(x)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != x.shape[-2:]:
        raise ShapeError(f"mask {mask.shape} does not match state {x.shape[-2:]}")
    return ad.mul(head_mixing(x), ad.Tensor(mask))


def _decoupling_mask(cfg: ModelConfig, caller: str) -> np.ndarray:
    if not cfg.decoupling.enabled:
        raise ConfigError(f"{caller} requires decoupling in the config")
    return build_mask(cfg.n_heads, cfg.decoupling.n_user_heads, cfg.head_dim)


def forward_decoupled(
    request: Request, candidate_index: int, store: ParameterStore
) -> np.ndarray:
    """Reference decoupled scoring: the full forward pass with the mask."""
    mask = _decoupling_mask(store.config, "forward_decoupled")
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


def _one(t: ad.Tensor | None) -> np.ndarray | None:
    # the single request's, single candidate's slice of a (1, 1, ...) tensor
    return None if t is None else t.data[0, 0]


def compute_shared_user_state(request: Request, store: ParameterStore) -> SharedUserState:
    """Run all candidate-independent work of a request once: the block
    stack on the user rows at one candidate, and the sequence keys and
    values of every head."""
    cfg, schema = store.config, store.schema
    mask = _decoupling_mask(cfg, "shared user state")
    request.validate(schema)
    n_u = cfg.decoupling.n_user_heads
    batch = request.as_batch()
    with ad.no_grad():
        # user fields feed the user heads, or the item heads when there are none
        e_user = embed_nonseq_batch(batch, store.tables, schema, user=n_u > 0, item=False)
        x0 = split_heads(e_user, store.dense["split.proj"], store.layout, (0, n_u))
        s = sequence_embedding(batch, store)
        rec: list[dict] = []
        out = run_blocks(x0, store, seq=s, mask=mask, rows=(0, n_u), record=rec)
    keys = ("mix_src", "keys", "values", "q", "z", "out")  # LayerUserState's field order
    return SharedUserState(
        e_user=e_user.data.reshape(-1),
        x0_user=_one(x0),
        seq=None if s is None else s.data[0],
        layers=[LayerUserState(*(_one(r.get(k)) for k in keys)) for r in rec],
        out_user=_one(out),
    )


def rlb_forward(request: Request, store: ParameterStore) -> np.ndarray:
    """Score every candidate of a request with user work done once.

    Returns (n_candidates, n_tasks) logits, numerically equal to calling
    forward_decoupled on each candidate.
    """
    cfg, schema = store.config, store.schema
    state = compute_shared_user_state(request, store)
    n, n_u, k = cfg.n_heads, cfg.decoupling.n_user_heads, request.n_candidates
    with ad.no_grad():
        e_item = embed_nonseq_batch(request.as_batch(), store.tables, schema, user=n_u == 0)
        x = split_heads(e_item, store.dense["split.proj"], store.layout, (n_u, n))
        # the mask leaves item rows whole, so they run without it
        x = run_blocks(
            x, store, rows=(n_u, n),
            kv=[(layer.keys, layer.values) for layer in state.layers],
            mix_prefix=[layer.mix_src_user for layer in state.layers],
        )
        user = ad.broadcast_to(ad.Tensor(state.out_user), (1, k, n_u, cfg.head_dim))
        full = ad.concat([user, x], axis=-2)
        return task_logits(full.reshape((k, cfg.model_width)), store).data
