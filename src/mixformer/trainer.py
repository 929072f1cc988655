"""Multi-task training loop, optimizers, and ranking metrics.

Dense weights use RMSProp; embedding tables use Adagrad applied only to
rows touched by the batch, with the accumulator stored on the table.
The per-impression loss is the sum over tasks of binary cross-entropy
on logits, averaged over the batch.  Batching is by impressions:
requests are grouped by (sequence length, candidate count) so stacks
are rectangular, shuffled deterministically per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .blocks import (
    AblationFlags,
    ModelConfig,
    ParameterStore,
    batched_forward,
    batched_forward_tensor,
    check_mask,
    init_parameters,
)
from .decouple import rlb_forward_batch
from .errors import ConfigError, MetricError, NumericError
from .features import Dataset, EmbeddingTable, Request, RequestBatch, stack_requests


RMS_DECAY = 0.9
RMS_EPS = 1e-8
ADAGRAD_EPS = 1e-10


@dataclass
class OptimizerConfig:
    lr_dense: float = 0.003
    lr_sparse: float = 0.05

    def __post_init__(self) -> None:
        if self.lr_dense < 0 or self.lr_sparse < 0:
            raise ConfigError("learning rates must be non-negative")


class Optimizer:
    """RMSProp for dense tensors, row-sparse Adagrad for tables."""

    def __init__(
        self,
        dense: dict[str, ad.Tensor],
        tables: dict[str, EmbeddingTable],
        config: OptimizerConfig | None = None,
    ):
        self.dense = dense
        self.tables = tables
        self.config = config or OptimizerConfig()
        self.rms_acc: dict[str, np.ndarray] = {
            name: np.zeros_like(t.data) for name, t in dense.items()
        }

    def step(self) -> None:
        c = self.config
        for name, t in self.dense.items():
            g = t.grad
            if g is None:
                continue
            acc = self.rms_acc[name]
            acc *= RMS_DECAY
            acc += (1.0 - RMS_DECAY) * g * g
            t.data = t.data - c.lr_dense * g / np.sqrt(acc + RMS_EPS)
        for table in self.tables.values():
            g = table.weight.grad
            if g is None:
                continue
            rows = np.flatnonzero(np.any(g != 0.0, axis=1))
            if rows.size == 0:
                continue
            gr = g[rows]
            table.adagrad_acc[rows] += gr * gr
            table.weight.data[rows] -= (
                c.lr_sparse * gr / np.sqrt(table.adagrad_acc[rows] + ADAGRAD_EPS)
            )

    def zero_grad(self) -> None:
        for t in self.dense.values():
            t.grad = None
        for table in self.tables.values():
            table.weight.grad = None


def bce_loss(logits: ad.Tensor, labels: np.ndarray | None) -> ad.Tensor:
    """Mean over impressions of summed per-task BCE on (..., n_tasks) logits."""
    if labels is None:
        raise ConfigError("training batches need labels")
    return ad.mean(ad.sum_(ad.bce_with_logits(logits, labels), axis=-1))


def batch_loss(batch: RequestBatch, store: ParameterStore, mask=None) -> ad.Tensor:
    """The model's training loss on one batch; scalar tensor."""
    return bce_loss(batched_forward_tensor(batch, store, mask), batch.labels)


def _shape_groups(requests: Sequence[Request]) -> dict[tuple[int, int], list[int]]:
    """Request indices keyed by (seq_len, K), so each group stacks."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, r in enumerate(requests):
        groups.setdefault((r.seq_len, r.n_candidates), []).append(i)
    return groups


def plan_batches(
    requests: Sequence[Request], batch_size: int, seed: int, epoch: int
) -> list[list[int]]:
    """Deterministic epoch plan: indices grouped by (seq_len, K), chunked
    to roughly batch_size impressions, order shuffled."""
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    rng = np.random.default_rng([seed, epoch])
    groups = _shape_groups(requests)
    batches: list[list[int]] = []
    for key in sorted(groups):
        idx = np.array(groups[key])
        rng.shuffle(idx)
        per = max(1, batch_size // key[1])
        for lo in range(0, len(idx), per):
            batches.append([int(j) for j in idx[lo : lo + per]])
    order = np.arange(len(batches))
    rng.shuffle(order)
    return [batches[i] for i in order]


def train_steps(
    requests: Sequence[Request],
    optimizer: Optimizer,
    loss_fn: Callable[[RequestBatch], ad.Tensor],
    batch_size: int,
    seed: int,
    epochs: int,
    start: tuple[int, int] = (0, 0),
) -> Iterator[tuple[int, int, float]]:
    """The optimizer loop: one step per batch of each epoch's plan.

    Yields (epoch, next_step_in_epoch, loss) after each Optimizer.step;
    bound the run with itertools.islice.  start=(epoch, step) skips the
    batches a yielded position has already consumed, so a run resumed
    from it retraces the interrupted one exactly.
    """
    first_epoch, first_step = start
    for epoch in range(first_epoch, epochs):
        plan = plan_batches(requests, batch_size, seed, epoch)
        for step in range(first_step if epoch == first_epoch else 0, len(plan)):
            batch = stack_requests([requests[i] for i in plan[step]])
            optimizer.zero_grad()
            loss = loss_fn(batch)
            value = float(loss.data)
            if not math.isfinite(value):
                raise NumericError(f"non-finite loss {value} at epoch {epoch} step {step}")
            loss.backward()
            optimizer.step()
            yield epoch, step + 1, value


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the tie-aware rank-sum identity."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape or scores.size == 0:
        raise MetricError("auc needs equal-length, non-empty scores and labels")
    if not np.all(np.isfinite(scores)):
        raise NumericError("auc received non-finite scores")
    pos = labels > 0.5
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("auc is undefined with a single class")
    # a run of tied scores at sorted positions [first, last) holds the
    # 1-based ranks first+1..last, and each of its scores gets their mean,
    # an exact half, so the rank sum is exact
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    last = np.r_[first[1:], scores.size]
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((first + 1 + last) / 2.0, last - first)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def uauc(
    scores: np.ndarray,
    labels: np.ndarray,
    user_ids: np.ndarray,
    weighted: bool = False,
) -> float:
    """Mean per-user AUC over users with both classes.

    weighted=True weights each user by their impression count."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    user_ids = np.asarray(user_ids).ravel()
    if not (scores.shape == labels.shape == user_ids.shape):
        raise MetricError("uauc needs aligned scores, labels, user_ids")
    # one stable sort splits the impressions by user, each in input order
    order = np.argsort(user_ids, kind="stable")
    users = user_ids[order]
    groups = np.split(order, np.flatnonzero(users[1:] != users[:-1]) + 1) if order.size else []
    vals: list[float] = []
    weights: list[float] = []
    for sel in groups:
        sub_labels = labels[sel]
        if sub_labels.min() > 0.5 or sub_labels.max() < 0.5:
            continue
        vals.append(auc(scores[sel], sub_labels))
        weights.append(float(sel.size))
    if not vals:
        raise MetricError("no user has both classes; uauc undefined")
    if weighted:
        w = np.array(weights)
        return float(np.average(np.array(vals), weights=w))
    return float(np.mean(vals))


def logloss(probs: np.ndarray, labels: np.ndarray) -> float:
    probs = np.asarray(probs, dtype=np.float64).ravel()
    if not np.all(np.isfinite(probs)):
        raise NumericError("logloss received non-finite probabilities")
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    y = np.asarray(labels, dtype=np.float64).ravel()
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


@dataclass
class MetricSummary:
    auc: list[float]
    uauc: list[float]
    logloss: list[float]
    n_impressions: int
    n_users: int


def summarize(probs: np.ndarray, labels: np.ndarray, users: np.ndarray) -> MetricSummary:
    """Per-task AUC, per-user AUC and logloss of (n_impressions, n_tasks) scores."""
    n_tasks = probs.shape[1]
    return MetricSummary(
        auc=[auc(probs[:, t], labels[:, t]) for t in range(n_tasks)],
        uauc=[uauc(probs[:, t], labels[:, t], users) for t in range(n_tasks)],
        logloss=[logloss(probs[:, t], labels[:, t]) for t in range(n_tasks)],
        n_impressions=int(probs.shape[0]),
        n_users=int(np.unique(users).size),
    )


# The most sequence or candidate rows one predict stack holds.  Not 1024:
# glibc raises its mmap threshold to the largest block freed, and at t=256
# a 1024-row stack's keys (1 MiB) leave it too low for rlb_forward's
# arrays, which are then mapped fresh on every later call.
_PREDICT_ROWS = 2048


def predict(
    requests: Sequence[Request],
    logits_fn: Callable[[RequestBatch], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scores for every impression: (probs, labels, user_ids), each with
    impressions flattened in request order.

    Requests are scored in stacks of one (seq_len, K) shape, each of at
    most max(1, 2048 // max(seq_len, K)) requests, so that neither its
    sequence rows nor its candidate rows pass 2048 unless one request's
    do; logits_fn maps a stack to (B, K, n_tasks) logits.
    """
    if not requests:
        raise MetricError("predict needs at least one request")
    groups = _shape_groups(requests)
    probs: list = [None] * len(requests)
    for key in sorted(groups):
        idx = groups[key]
        per = max(1, _PREDICT_ROWS // max(key))
        for lo in range(0, len(idx), per):
            sel = idx[lo : lo + per]
            p = ad.sigmoid(logits_fn(stack_requests([requests[i] for i in sel])))
            for i, rows in zip(sel, p):
                probs[i] = rows
    p = np.concatenate(probs)
    y = np.concatenate([
        np.full((r.n_candidates, p.shape[-1]), np.nan) if r.labels is None else r.labels
        for r in requests
    ])
    u = np.repeat([r.user_id for r in requests], [r.n_candidates for r in requests])
    return p, y, u


def evaluate(
    requests: Sequence[Request], store: ParameterStore, mask=None
) -> MetricSummary:
    """Holdout metrics of valid, labelled requests; mask must be None or the config's
    own.  A config with user heads is scored as it is served, by rlb_forward_batch."""
    cfg = store.config
    check_mask(cfg, mask)
    for r in requests:
        r.validate(store.schema)
        if r.labels is None or r.labels.shape[1] != cfg.n_tasks:
            raise MetricError(f"evaluate needs (K, {cfg.n_tasks}) labels on every request")
    score = rlb_forward_batch if cfg.user_heads else batched_forward
    return summarize(*predict(requests, lambda batch: score(batch, store)))


@dataclass
class FitResult:
    losses: list[float]
    metrics: MetricSummary | None
    store: ParameterStore
    optimizer: Optimizer


def fit(
    dataset: Dataset,
    config: ModelConfig,
    seed: int = 0,
    epochs: int = 1,
    batch_size: int = 256,
    optimizer_config: OptimizerConfig | None = None,
    holdout: Sequence[Request] | None = None,
    max_steps: int | None = None,
) -> FitResult:
    """Initialize, train, and optionally evaluate in one call."""
    if max_steps is not None and max_steps < 0:
        raise ConfigError("max_steps must be >= 0")
    store = init_parameters(dataset.schema, config, seed)
    opt = Optimizer(store.dense, store.tables, optimizer_config)
    steps = train_steps(
        dataset.requests, opt, lambda batch: batch_loss(batch, store),
        batch_size, seed, epochs,
    )
    losses = [loss for _, _, loss in islice(steps, max_steps)]
    metrics = evaluate(holdout, store) if holdout else None
    return FitResult(losses=losses, metrics=metrics, store=store, optimizer=opt)


ABLATION_NAMES = tuple(f.name for f in fields(AblationFlags))


def apply_ablation(config: ModelConfig, name: str) -> ModelConfig:
    if name not in ABLATION_NAMES:
        raise ConfigError(f"unknown ablation '{name}'")
    return replace(config, ablations=replace(config.ablations, **{name: True}))


def config_diff(a: ModelConfig, b: ModelConfig) -> dict[str, tuple]:
    """Flat map of leaf fields that differ between two configs."""
    from dataclasses import asdict

    def flatten(d: dict, prefix: str = "") -> dict:
        out: dict = {}
        for k, v in d.items():
            key = f"{prefix}{k}"
            if isinstance(v, dict):
                out.update(flatten(v, key + "."))
            else:
                out[key] = v
        return out

    fa, fb = flatten(asdict(a)), flatten(asdict(b))
    return {k: (fa[k], fb[k]) for k in fa if fa[k] != fb[k]}


@dataclass
class AblationResult:
    name: str
    base: MetricSummary
    variant: MetricSummary
    variant_losses: list[float]
    delta_auc: list[float]
    changed_fields: dict[str, tuple]


def run_ablation(
    name: str,
    base_config: ModelConfig,
    dataset: Dataset,
    holdout: Sequence[Request],
    base_metrics: MetricSummary,
    seed: int = 0,
    epochs: int = 1,
    batch_size: int = 256,
    optimizer_config: OptimizerConfig | None = None,
    max_steps: int | None = None,
) -> AblationResult:
    """Train one single-switch variant and report metric deltas vs base."""
    variant_cfg = apply_ablation(base_config, name)
    result = fit(
        dataset,
        variant_cfg,
        seed=seed,
        epochs=epochs,
        batch_size=batch_size,
        optimizer_config=optimizer_config,
        holdout=holdout,
        max_steps=max_steps,
    )
    delta = [v - b for v, b in zip(result.metrics.auc, base_metrics.auc)]
    return AblationResult(
        name=name,
        base=base_metrics,
        variant=result.metrics,
        variant_losses=result.losses,
        delta_auc=delta,
        changed_fields=config_diff(base_config, variant_cfg),
    )
