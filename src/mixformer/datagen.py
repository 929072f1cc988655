"""Synthetic impression generator with a known Bayes oracle.

Users and items live on the unit sphere; items are drawn around cluster
centers so that same-cluster pairs have high cosine similarity.  Each
request samples a user, an affinity-biased action sequence, and K
candidates (an affinity/uniform mixture).  Labels are Bernoulli draws
from

    p = sigmoid((w_inter * <u, v> + w_seq * match(seq, v)) / temperature + BIAS)

where match counts sequence items whose cosine similarity to the
candidate exceeds MATCH_THRESHOLD, capped at MATCH_CAP.  The second task
uses the negated signal with BIAS_SECOND_TASK, so the tasks are
anticorrelated.  True probabilities are kept, which gives an exact
oracle ceiling; the noise temperature can be bisected until the oracle
AUC lands in a target band.  Label draws reuse one set of uniforms
across temperature values, so the bisection objective is smooth.

Per-request randomness comes from spawned seed sequences, making every
request reproducible independently of generation order.  Requests are
drawn in chunks of at most _CHUNK_ROWS rows, a request counting as
max(K, seq_len_max) rows, so a chunk's candidate and sequence arrays both
stay bounded.  Each chunk is realized straight into the output arrays, so
generation holds the output plus one chunk.  Label uniforms come from one
sequential stream, so the corpus does not depend on the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError
from .features import (
    ID_DTYPE,
    LABEL_DTYPE,
    ActionField,
    Dataset,
    EmbeddingTable,
    FeatureField,
    FeatureSchema,
    Request,
    embed_actions_batch,
    embed_nonseq_batch,
    make_tables,
)
from .trainer import (
    MetricSummary,
    Optimizer,
    OptimizerConfig,
    auc,
    bce_loss,
    predict,
    summarize,
    train_steps,
)

N_ACTION_TYPES = 4
N_RECENCY_BUCKETS = 8
N_USER_SEGMENTS = 32
LATENT_DIM = 16
BIAS = -1.0
BIAS_SECOND_TASK = -1.5
MATCH_THRESHOLD = 0.8  # cosine above which a sequence item matches a candidate
MATCH_CAP = 10
AFFINITY_SHARPNESS = 6.0  # softmax inverse temperature over <u, item>
AFFINITY_MIX = 0.5  # share of candidates drawn by affinity, not uniformly


@dataclass(frozen=True)
class GeneratorSpec:
    """Knobs for the synthetic world; defaults give a desk-scale corpus."""

    n_users: int = 50_000
    n_items: int = 5_000
    n_clusters: int = 50
    cluster_spread: float = 0.08
    seq_len_min: int = 64
    seq_len_max: int = 64
    n_requests: int = 125_000
    candidates_per_request: int = 8
    w_inter: float = 2.5
    w_seq: float = 0.6
    noise_temperature: float = 1.0
    n_tasks: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_items < 2 or self.n_requests < 1:
            raise ConfigError("generator needs users, >= 2 items, and requests")
        if self.n_clusters < 1:
            raise ConfigError("n_clusters must be >= 1")
        if not 0 <= self.seq_len_min <= self.seq_len_max:
            raise ConfigError("need 0 <= seq_len_min <= seq_len_max")
        if self.candidates_per_request < 1:
            raise ConfigError("candidates_per_request must be >= 1")
        if self.noise_temperature <= 0:
            raise ConfigError("noise_temperature must be positive")
        if self.n_tasks not in (1, 2):
            raise ConfigError("generator supports 1 or 2 tasks")


def make_schema(spec: GeneratorSpec) -> FeatureSchema:
    return FeatureSchema(
        nonseq_fields=(
            FeatureField("user_id", "user", spec.n_users, 16),
            FeatureField("user_segment", "context", N_USER_SEGMENTS, 4),
            FeatureField("item_id", "item", spec.n_items, 16),
            FeatureField("item_cluster", "item", spec.n_clusters, 4),
        ),
        action_fields=(
            ActionField("item_id", spec.n_items, 16),
            ActionField("action_type", N_ACTION_TYPES, 2),
            ActionField("recency_bucket", N_RECENCY_BUCKETS, 2),
        ),
        max_seq_len=spec.seq_len_max,
    )


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


_CHUNK_ROWS = 2**16  # candidate or sequence rows drawn and realized at a time


@dataclass
class _World:
    """What every request draws from."""

    user_latents: np.ndarray
    item_latents: np.ndarray
    item_clusters: np.ndarray
    user_segments: np.ndarray


@dataclass
class _Chunk:
    """Consecutive requests as drawn before the temperature enters: ids,
    signals and the label uniforms."""

    rows: slice  # request indices
    users: np.ndarray  # (c,)
    sequences: list[np.ndarray]  # item ids, (T_i,)
    action_types: list[np.ndarray]
    candidates: np.ndarray  # (c, K)
    dot: np.ndarray  # (c, K)
    match: np.ndarray  # (c, K)
    label_u01: np.ndarray  # (c, K, n_tasks)


def _draw(spec: GeneratorSpec) -> tuple[_World, Iterator[_Chunk]]:
    """The world, and the requests in chunks of at most _CHUNK_ROWS rows
    (at least one request each), in request order.  A request counts as
    max(K, seq_len_max) rows: its candidates or its actions, whichever
    are more."""
    root = np.random.SeedSequence(spec.seed)
    world_ss, label_ss, requests_ss = root.spawn(3)
    rng = np.random.default_rng(world_ss)
    centers = _unit_rows(rng.normal(size=(spec.n_clusters, LATENT_DIM)))
    clusters = rng.integers(spec.n_clusters, size=spec.n_items)
    items = _unit_rows(
        centers[clusters]
        + spec.cluster_spread * rng.normal(size=(spec.n_items, LATENT_DIM))
    )
    users = _unit_rows(rng.normal(size=(spec.n_users, LATENT_DIM)))
    world = _World(users, items, clusters, rng.integers(N_USER_SEGMENTS, size=spec.n_users))
    return world, _chunks(spec, world, requests_ss, np.random.default_rng(label_ss))


def _chunks(
    spec: GeneratorSpec, world: _World, requests_ss: np.random.SeedSequence,
    label_rng: np.random.Generator,
) -> Iterator[_Chunk]:
    # spawned children and label uniforms follow one sequence however the
    # requests are chunked, so every chunk size draws the same corpus
    k = spec.candidates_per_request
    items = world.item_latents
    per_chunk = max(1, _CHUNK_ROWS // max(k, spec.seq_len_max))
    for start in range(0, spec.n_requests, per_chunk):
        c = min(per_chunk, spec.n_requests - start)
        req_users = np.empty(c, dtype=np.int64)
        sequences: list[np.ndarray] = []
        action_types: list[np.ndarray] = []
        cand = np.empty((c, k), dtype=ID_DTYPE)
        dot = np.empty((c, k))
        match = np.empty((c, k))
        for i, ss in enumerate(requests_ss.spawn(c)):
            rng = np.random.default_rng(ss)
            uid = int(rng.integers(spec.n_users))
            req_users[i] = uid
            u = world.user_latents[uid]
            logits = AFFINITY_SHARPNESS * (items @ u)
            logits -= logits.max()
            p = np.exp(logits)
            p /= p.sum()
            t = int(rng.integers(spec.seq_len_min, spec.seq_len_max + 1))
            seq = rng.choice(spec.n_items, size=t, replace=True, p=p)
            sequences.append(seq.astype(ID_DTYPE))
            action_types.append(rng.integers(N_ACTION_TYPES, size=t).astype(ID_DTYPE))
            from_affinity = rng.random(k) < AFFINITY_MIX
            cand[i] = np.where(
                from_affinity,
                rng.choice(spec.n_items, size=k, replace=True, p=p),
                rng.integers(spec.n_items, size=k),
            )
            cand_items = items[cand[i]]
            dot[i] = cand_items @ u
            if t:
                cos = items[seq] @ cand_items.T  # (T, K), all unit rows
                match[i] = np.minimum((cos > MATCH_THRESHOLD).sum(axis=0), MATCH_CAP)
            else:
                match[i] = 0.0
        yield _Chunk(
            rows=slice(start, start + c),
            users=req_users,
            sequences=sequences,
            action_types=action_types,
            candidates=cand,
            dot=dot,
            match=match,
            label_u01=label_rng.random((c, k, spec.n_tasks)),
        )


def _probs(
    spec: GeneratorSpec, dot: np.ndarray, match: np.ndarray, temperature: float,
    out: np.ndarray,
) -> np.ndarray:
    """Write the true label probabilities of the first out.shape[-1] tasks
    into out, (..., n), and return it."""
    signal = (spec.w_inter * dot + spec.w_seq * match) / temperature
    out[..., 0] = ad.sigmoid(signal + BIAS)
    if out.shape[-1] == 2:
        out[..., 1] = ad.sigmoid(-signal + BIAS_SECOND_TASK)
    return out


def _recency_buckets(t: int) -> np.ndarray:
    # most recent action first; bucket grows logarithmically with age
    ages = np.arange(t)
    return np.minimum(np.log2(ages + 1).astype(ID_DTYPE), N_RECENCY_BUCKETS - 1)


@dataclass
class SyntheticData:
    dataset: Dataset
    oracle: list[np.ndarray]  # per request (K, n_tasks) true probabilities
    user_latents: np.ndarray
    item_latents: np.ndarray
    item_clusters: np.ndarray

    def oracle_auc(self, task: int = 0) -> float:
        p = np.concatenate([m[:, task] for m in self.oracle])
        y = np.concatenate([r.labels[:, task] for r in self.dataset.requests])
        return auc(p, y)


def generate(spec: GeneratorSpec) -> SyntheticData:
    """Draw the full corpus at the spec's noise temperature.  Each chunk
    is realized into the output arrays: candidates, labels and oracle
    rows of every request are views of one array each, at the widths a
    Request holds (ID_DTYPE ids, LABEL_DTYPE labels)."""
    world, chunks = _draw(spec)
    shape = (spec.n_requests, spec.candidates_per_request)
    probs = np.empty((*shape, spec.n_tasks))
    labels = np.empty((*shape, spec.n_tasks), dtype=LABEL_DTYPE)
    cands = np.empty((*shape, 2), dtype=ID_DTYPE)
    requests: list[Request] = []
    for chunk in chunks:
        rows = chunk.rows
        _probs(spec, chunk.dot, chunk.match, spec.noise_temperature, probs[rows])
        labels[rows] = chunk.label_u01 < probs[rows]
        cands[rows, :, 0] = chunk.candidates
        cands[rows, :, 1] = world.item_clusters[chunk.candidates]
        for i, uid, seq, types in zip(
            range(rows.start, rows.stop), chunk.users.tolist(), chunk.sequences,
            chunk.action_types,
        ):
            t = seq.size
            actions = np.stack(
                [seq, types, _recency_buckets(t)], axis=1
            ) if t else np.zeros((0, 3), dtype=ID_DTYPE)
            requests.append(
                Request(
                    user_id=uid,
                    user_nonseq=np.array([uid, world.user_segments[uid]], dtype=ID_DTYPE),
                    actions=actions,
                    candidates=cands[i],
                    labels=labels[i],
                )
            )
        del chunk  # before the next chunk is drawn
    return SyntheticData(
        dataset=Dataset(schema=make_schema(spec), requests=requests),
        oracle=list(probs),
        user_latents=world.user_latents,
        item_latents=world.item_latents,
        item_clusters=world.item_clusters,
    )


_TEMPERATURE_BRACKET = (0.05, 100.0)
_TEMPERATURE_STEPS = 60


def tune_noise_temperature(
    spec: GeneratorSpec, target: tuple[float, float] = (0.84, 0.86)
) -> tuple[GeneratorSpec, float]:
    """Bisect the temperature, in log space over [0.05, 100] for at most
    60 steps, until the oracle AUC of task 0 lands in target.  Returns the
    adjusted spec and the achieved oracle AUC."""
    if not 0.5 < target[0] < target[1] < 1.0:
        raise ConfigError("target band must satisfy 0.5 < lo < hi < 1.0")
    shape = (spec.n_requests, spec.candidates_per_request)
    dot, match, u01 = np.empty(shape), np.empty(shape), np.empty(shape)
    for chunk in _draw(spec)[1]:
        dot[chunk.rows] = chunk.dot
        match[chunk.rows] = chunk.match
        u01[chunk.rows] = chunk.label_u01[..., 0]
    probs = np.empty((*shape, 1))
    mid = (target[0] + target[1]) / 2.0

    def oracle_auc(temp: float) -> float:
        p = _probs(spec, dot, match, temp, probs)[..., 0]
        return auc(p.ravel(), (u01 < p).ravel())

    lo, hi = _TEMPERATURE_BRACKET
    a_lo, a_hi = oracle_auc(lo), oracle_auc(hi)
    if not (a_hi <= mid <= a_lo):
        raise DataError(
            f"oracle AUC range [{a_hi:.3f}, {a_lo:.3f}] cannot bracket {mid:.3f}; "
            "adjust signal weights"
        )
    t_lo, t_hi = lo, hi
    best_t, best_a = lo, a_lo
    for _ in range(_TEMPERATURE_STEPS):
        t = math.sqrt(t_lo * t_hi)  # bisect in log space
        a = oracle_auc(t)
        if abs(a - mid) < abs(best_a - mid):
            best_t, best_a = t, a
        if target[0] <= a <= target[1]:
            return replace(spec, noise_temperature=t), a
        if a > mid:
            t_lo = t
        else:
            t_hi = t
    if target[0] <= best_a <= target[1]:
        return replace(spec, noise_temperature=best_t), best_a
    raise DataError(f"temperature search ended at oracle AUC {best_a:.4f}, outside target")


# ----------------------------------------------------------------------
# Baseline: logistic model on concatenated mean-pooled embeddings.  No
# attention and no multiplicative interactions, so it can only exploit
# additive per-field structure; planted bilinear or sequence-match
# signal is invisible to it beyond marginal effects.
# ----------------------------------------------------------------------


def _baseline_logits(
    batch, tables: dict[str, EmbeddingTable], linear: ad.Tensor, bias: ad.Tensor,
    schema: FeatureSchema,
) -> ad.Tensor:
    b, k = batch.n_requests, batch.n_candidates
    actions = embed_actions_batch(batch, tables, schema)
    if actions is None:
        pooled = ad.Tensor(np.zeros((b, 1, schema.action_dim)))
    else:
        pooled = ad.mean(actions, axis=1).reshape((b, 1, schema.action_dim))
    user = ad.concat([embed_nonseq_batch(batch, tables, schema, item=False), pooled], axis=-1)
    user = ad.broadcast_to(user, (b, k, user.shape[-1]))
    feats = ad.concat([user, embed_nonseq_batch(batch, tables, schema, user=False)], axis=-1)
    return ad.add(ad.matmul(feats, ad.swapaxes(linear, -1, -2)), bias)


def baseline_score(
    train: Dataset,
    holdout: Sequence[Request],
    seed: int = 0,
    epochs: int = 2,
    batch_size: int = 1024,
) -> MetricSummary:
    """Train the pooled logistic baseline and evaluate it on a holdout.

    The baseline steps its dense weights at lr_dense 0.01, not the
    model's default: the model-vs-baseline AUC margins of the acceptance
    criteria were measured against it.
    """
    schema = train.schema
    n_tasks = train.requests[0].labels.shape[1]
    rng = np.random.default_rng(seed)
    tables = make_tables(schema, rng)
    width = schema.d_ns + schema.action_dim
    linear = ad.Tensor(rng.normal(0.0, 0.01, size=(n_tasks, width)), requires_grad=True)
    bias = ad.Tensor(np.zeros(n_tasks), requires_grad=True)
    dense = {"linear": linear, "bias": bias}
    opt = Optimizer(dense, tables, OptimizerConfig(lr_dense=0.01))

    def logits(batch) -> ad.Tensor:
        return _baseline_logits(batch, tables, linear, bias, schema)

    for _ in train_steps(
        train.requests, opt, lambda batch: bce_loss(logits(batch), batch.labels),
        batch_size, seed, epochs,
    ):
        pass
    with ad.no_grad():
        return summarize(*predict(holdout, lambda batch: logits(batch).data))


def split_dataset(
    dataset: Dataset, holdout_fraction: float
) -> tuple[Dataset, list[Request]]:
    """Deterministic tail split.  From two requests up each side keeps at
    least one; a one-request corpus keeps it on the train side."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ConfigError("holdout_fraction must lie in (0, 1)")
    n = len(dataset.requests)
    cut = max(1, min(n - 1, int(n * (1.0 - holdout_fraction))))
    train = Dataset(schema=dataset.schema, requests=dataset.requests[:cut])
    return train, dataset.requests[cut:]


def split_holdout(
    data: SyntheticData, holdout_fraction: float = 0.1
) -> tuple[Dataset, list[Request]]:
    """split_dataset of a generated corpus; its requests are i.i.d. by construction."""
    return split_dataset(data.dataset, holdout_fraction)
