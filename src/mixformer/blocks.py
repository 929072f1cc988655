"""The stacked interaction blocks and the forward pass.

Each block applies three residual sublayers to an (n_heads, head_dim)
state: a query mixer (parameter-free head mixing plus per-head gated
FFNs), cross attention from per-head queries onto the user's action
sequence, and an output fusion of per-head gated FFNs.  Keys and values
are projected per block from the raw sequence embedding, so they depend
only on the request, never on the candidate.  Every gated FFN, the
sequence FFN too (one head), is the one autodiff op ad.gated_ffn.

Default normalization is rms_norm applied before each sublayer; the
post_ln ablation switches to gain-only layer_norm applied after the
residual add.

batched_forward_tensor runs the block stack on all head rows of a
(B, K, n_heads, head_dim) state, so the same code serves batched
training and single-candidate scoring (B = K = 1).  mixformer_block
also runs head rows [lo, hi) alone, as its inputs' shapes say: decoupled
serving (decouple.rlb_forward_batch) runs the user rows once per request
and the item rows per candidate.  The config alone decides the mask.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import BinaryIO, get_args, get_type_hints

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, ShapeError
from .features import (
    EmbeddingTable,
    FeatureSchema,
    HeadLayout,
    Request,
    RequestBatch,
    embed_actions_batch,
    embed_nonseq_batch,
    head_layout,
    make_tables,
    read_file,
    split_heads,
    table_shapes,
    write_atomic,
)


@dataclass(frozen=True)
class AblationFlags:
    """Single-switch model variants; all default off."""

    wo_hm: bool = False
    hm_to_sa: bool = False
    wo_qm_ffn: bool = False
    shared_seq_ffn: bool = False
    shared_of_ffn: bool = False
    post_ln: bool = False


@dataclass(frozen=True)
class DecoupleConfig:
    """Head allocation between candidate-independent and item sides."""

    enabled: bool = False
    n_user_heads: int = 0
    n_item_heads: int = 0


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


def check_mask(cfg: ModelConfig, mask: np.ndarray | None) -> None:
    """A mask argument must be None or the config's own (all ones without user heads)."""
    own = build_mask(cfg.n_heads, cfg.user_heads, cfg.head_dim)
    if mask is not None and not np.array_equal(mask, own):
        raise ConfigError("a model is scored with its config's own mixing mask or none")


@dataclass(frozen=True)
class ModelConfig:
    n_heads: int
    head_dim: int
    n_blocks: int
    max_seq_len: int
    expansion_ratio: float = 2.0
    seq_expansion_ratio: float | None = None
    n_tasks: int = 2
    task_hidden: int | None = None
    norm_eps: float = 1e-6
    ablations: AblationFlags = field(default_factory=AblationFlags)
    decoupling: DecoupleConfig = field(default_factory=DecoupleConfig)

    def __post_init__(self) -> None:
        if self.n_heads < 1 or self.head_dim < 1 or self.n_blocks < 1:
            raise ConfigError("n_heads, head_dim, n_blocks must be >= 1")
        if self.head_dim % self.n_heads != 0:
            raise ConfigError(
                f"head_dim {self.head_dim} must be divisible by n_heads "
                f"{self.n_heads} for head mixing"
            )
        if self.max_seq_len < 0 or self.n_tasks < 1:
            raise ConfigError("max_seq_len must be >= 0 and n_tasks >= 1")
        if self.task_hidden is not None and self.task_hidden < 1:
            raise ConfigError(f"task_hidden must be >= 1, not {self.task_hidden}")
        if self.expansion_ratio <= 0:
            raise ConfigError("expansion_ratio must be positive")
        if self.seq_expansion_ratio is not None and self.seq_expansion_ratio <= 0:
            raise ConfigError("seq_expansion_ratio must be positive")
        if self.norm_eps < 0:
            raise ConfigError("norm_eps must be >= 0")
        d = self.decoupling
        if d.enabled:
            if d.n_user_heads < 0 or d.n_item_heads < 1:
                raise ConfigError("decoupling needs n_item_heads >= 1, n_user_heads >= 0")
            if d.n_user_heads + d.n_item_heads != self.n_heads:
                raise ConfigError("user and item heads must sum to n_heads")
            if self.ablations.hm_to_sa:
                raise ConfigError(
                    "hm_to_sa mixes all heads through attention and cannot "
                    "preserve user/item decoupling"
                )

    @property
    def user_heads(self) -> int:
        """Head rows [0, user_heads) are user rows; 0 when not decoupled."""
        return self.decoupling.n_user_heads if self.decoupling.enabled else 0

    @property
    def model_width(self) -> int:
        return self.n_heads * self.head_dim

    @property
    def ffn_hidden(self) -> int:
        return max(1, round(self.expansion_ratio * self.head_dim))

    @property
    def seq_ffn_hidden(self) -> int:
        ratio = (
            self.seq_expansion_ratio
            if self.seq_expansion_ratio is not None
            else self.expansion_ratio
        )
        return max(1, round(ratio * self.model_width))

    @property
    def task_hidden_dim(self) -> int:
        return self.task_hidden if self.task_hidden is not None else self.head_dim


def config_to_dict(cfg: ModelConfig) -> dict:
    return asdict(cfg)


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field type: float takes ints, X | None takes null."""
    if get_args(hint):
        return any(_fits(value, arg) for arg in get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def settings_from_json(kind, obj, base=None, where: str = "config"):
    """A kind dataclass from the JSON object obj laid over base, a kind
    instance; nested dataclass fields are laid over base's the same way.
    With no base, obj must hold every required field.  An unknown key at
    any depth, a value whose JSON type does not fit its field, or a
    missing field is a ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, not {json.dumps(obj)}")
    hints = get_type_hints(kind)
    unknown = sorted(set(obj) - set(hints))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    values = {} if base is None else {f.name: getattr(base, f.name) for f in fields(kind)}
    for key, value in obj.items():
        hint = hints[key]
        if is_dataclass(hint):
            value = settings_from_json(hint, value, values.get(key), f"{where}.{key}")
        elif not _fits(value, hint):
            raise ConfigError(
                f"{where}.{key} must be {kind.__dataclass_fields__[key].type}, "
                f"not {json.dumps(value)}"
            )
        values[key] = value
    try:
        return kind(**values)
    except TypeError as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def config_from_dict(d: dict) -> ModelConfig:
    """Inverse of config_to_dict.  There is no base, so every field without
    a default must be present."""
    return settings_from_json(ModelConfig, d, where="model")


class ParameterStore:
    """All trainable state plus the config and schema it was built for.

    Dense tensors live in an insertion-ordered dict in parameter_shapes
    order; that order is the canonical serialization order for
    checkpoints and optimizer state.
    """

    def __init__(
        self,
        config: ModelConfig,
        schema: FeatureSchema,
        seed: int,
        dense: dict[str, np.ndarray],
        tables: dict[str, EmbeddingTable],
    ):
        self.config = config
        self.schema = schema
        self.seed = seed
        self.layout: HeadLayout = head_layout(schema, config.n_heads, config.user_heads)
        self.dense = {name: ad.Tensor(a, requires_grad=True) for name, a in dense.items()}
        self.tables = tables
        # block() looks tensors up on each call, so swapping an entry of
        # dense takes effect; only the key -> name map is built here
        self._block_names: list[dict[str, str]] = [{} for _ in range(config.n_blocks)]
        for name in dense:
            head, _, key = name.partition(".")
            if head == "seq_shared":
                for names in self._block_names:
                    names[f"seq.{key}"] = name
            elif head.startswith("block"):
                self._block_names[int(head[5:])][key] = name

    @property
    def n_dense_params(self) -> int:
        return sum(t.size for t in self.dense.values())

    def block(self, index: int, heads: tuple[int, int] | None = None) -> dict[str, ad.Tensor]:
        """Block index's tensors, keyed by their parameter_shapes names
        without the 'block<index>.' prefix; the shared sequence FFN's
        'seq_shared.*' appear as 'seq.*'.  heads = (lo, hi) cuts each
        per-head stack to heads [lo, hi); a shared one (first axis 1) stays whole."""
        p = {key: self.dense[name] for key, name in self._block_names[index].items()}
        if heads is not None:
            n = self.config.n_heads
            p = {k: w[slice(*heads)] if w.ndim == 3 and w.shape[0] == n else w for k, w in p.items()}
        return p


def glorot_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int
) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ShapeError("fans must be positive")
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def parameter_shapes(
    schema: FeatureSchema, config: ModelConfig
) -> dict[str, tuple[tuple[int, ...], int, int]]:
    """Every dense parameter the config owns, in creation order: name ->
    (shape, fan_in, fan_out).  Fans of 0 mark a norm gain, which starts at 1.

    The order is fixed: head projections, the sequence input projection,
    then per-block parameters, then task heads.  init_parameters draws in
    this order, count_params sums it and load_checkpoint checks against it.
    """
    n, dim = config.n_heads, config.head_dim
    width = head_layout(schema, n, config.user_heads).slice_width
    nd = config.model_width
    h = config.ffn_hidden
    hs = config.seq_ffn_hidden
    a = schema.action_dim
    th = config.task_hidden_dim
    flags = config.ablations
    shapes: dict[str, tuple[tuple[int, ...], int, int]] = {
        "split.proj": ((n, dim, width), width, dim),
        "seq.input_proj": ((nd, a), a, nd),
    }

    def gated_ffn(prefix: str, lead: tuple[int, ...], w: int, hidden: int) -> None:
        shapes[f"{prefix}.gate"] = (lead + (hidden, w), w, hidden)
        shapes[f"{prefix}.up"] = (lead + (hidden, w), w, hidden)
        shapes[f"{prefix}.down"] = (lead + (w, hidden), hidden, w)

    def seq_ffn(prefix: str) -> None:
        shapes[f"{prefix}.norm"] = ((nd,), 0, 0)
        gated_ffn(f"{prefix}.ffn", (), nd, hs)

    if flags.shared_seq_ffn:
        seq_ffn("seq_shared")
    for l in range(config.n_blocks):
        pre = f"block{l}"
        if not (flags.wo_hm and flags.wo_qm_ffn):
            shapes[f"{pre}.qm.norm"] = ((dim,), 0, 0)
        if flags.hm_to_sa and not flags.wo_hm:
            for part in ("query", "key", "value"):
                shapes[f"{pre}.qm.sa.{part}"] = ((dim, dim), dim, dim)
        if not flags.wo_qm_ffn:
            gated_ffn(f"{pre}.qm.ffn", (n,), dim, h)
        if not flags.shared_seq_ffn:
            seq_ffn(f"{pre}.seq")
        shapes[f"{pre}.kv.key"] = ((n, dim, dim), dim, dim)
        shapes[f"{pre}.kv.value"] = ((n, dim, dim), dim, dim)
        shapes[f"{pre}.of.norm"] = ((dim,), 0, 0)
        gated_ffn(f"{pre}.of.ffn", (1 if flags.shared_of_ffn else n,), dim, h)

    shapes["task.hidden"] = ((config.n_tasks, th, nd), nd, th)
    shapes["task.out"] = ((config.n_tasks, 1, th), th, 1)
    return shapes


def init_parameters(schema: FeatureSchema, config: ModelConfig, seed: int) -> ParameterStore:
    """Build all tables, then all dense weights, with one seeded generator:
    tables in table_shapes order, dense weights Glorot-uniform in
    parameter_shapes order, norm gains at 1."""
    rng = np.random.default_rng(seed)
    tables = make_tables(schema, rng)
    dense = {
        name: glorot_uniform(rng, shape, fan_in, fan_out) if fan_in else np.ones(shape)
        for name, (shape, fan_in, fan_out) in parameter_shapes(schema, config).items()
    }
    return ParameterStore(config, schema, seed, dense, tables)


# ----------------------------------------------------------------------
# Sublayers
# ----------------------------------------------------------------------


def head_mixing(x) -> ad.Tensor:
    """Parameter-free mixing: output row i, chunk j = input row j, chunk i.

    x is (..., n_heads, head_dim) with head_dim divisible by n_heads.
    An involution; costs zero FLOPs.
    """
    x = ad.as_tensor(x)
    if x.ndim < 2:
        raise ShapeError("head_mixing input must be at least 2-d")
    n, dim = x.shape[-2], x.shape[-1]
    if dim % n != 0:
        raise ShapeError(f"head_dim {dim} not divisible by n_heads {n}")
    chunk = dim // n
    lead = x.shape[:-2]
    return (
        x.reshape(lead + (n, n, chunk))
        .swapaxes(-3, -2)
        .reshape(lead + (n, dim))
    )


def _norm(x: ad.Tensor, scale: ad.Tensor, cfg: ModelConfig) -> ad.Tensor:
    if cfg.ablations.post_ln:
        return ad.layer_norm(x, scale, cfg.norm_eps)
    return ad.rms_norm(x, scale, cfg.norm_eps)


def _sublayer(x: ad.Tensor, scale: ad.Tensor, cfg: ModelConfig, fn) -> ad.Tensor:
    """Residual wrapper: pre-norm 'x + fn(norm(x))' or post-norm
    'norm(x + fn(x))' depending on the post_ln flag."""
    if cfg.ablations.post_ln:
        return _norm(ad.add(fn(x), x), scale, cfg)
    return ad.add(fn(_norm(x, scale, cfg)), x)


def _single_head_sa(x: ad.Tensor, p: dict[str, ad.Tensor], cfg: ModelConfig) -> ad.Tensor:
    """Ablation substitute for head mixing: one self-attention pass over
    the n_heads rows with learned D x D projections."""
    q, k, v = (
        ad.matmul(x, ad.swapaxes(p[f"qm.sa.{w}"], -1, -2)) for w in ("query", "key", "value")
    )
    scores = ad.mul(ad.matmul(q, ad.swapaxes(k, -1, -2)), 1.0 / math.sqrt(cfg.head_dim))
    return ad.matmul(ad.softmax(scores), v)


def _mix_rows(xn: ad.Tensor, cfg: ModelConfig, prefix) -> ad.Tensor:
    """Rows [lo, hi) of head mixing: xn holds their mixing inputs, prefix
    (None for lo = 0) those of rows [0, lo), and rows from hi on count as zeros."""
    lo = 0 if prefix is None else prefix.shape[-2]
    n, hi = cfg.n_heads, lo + xn.shape[-2]
    if (lo, hi) == (0, n):
        out = head_mixing(xn)
        if cfg.user_heads:
            out = ad.mul(out, ad.Tensor(build_mask(n, cfg.user_heads, cfg.head_dim)))
        return out
    lead, dim = xn.shape[:-2], xn.shape[-1]
    c = dim // n
    # chunks [lo, hi) of every source row, as (..., n, hi - lo, c)
    parts = [
        xn.reshape(lead + (hi - lo, n, c))[..., lo:hi, :],
        ad.Tensor(np.zeros(lead + (n - hi, hi - lo, c))),
    ]
    if lo:
        p = ad.as_tensor(prefix)
        p = p.reshape(p.shape[:-1] + (n, c))[..., lo:hi, :]
        parts.insert(0, ad.broadcast_to(p, lead + (lo, hi - lo, c)))
    return ad.concat(parts, axis=-3).swapaxes(-3, -2).reshape(lead + (hi - lo, dim))


def query_mixer(
    x,
    p: dict[str, ad.Tensor],
    cfg: ModelConfig,
    mix_prefix=None,
    record: dict | None = None,
) -> ad.Tensor:
    """Head mixing then per-head gated FFNs, each with its own residual.

    p is one block's parameters, as ParameterStore.block gives them for
    x's heads.  x holds head rows [lo, hi), lo the rows of mix_prefix (the
    mixing inputs of rows [0, lo)), as _mix_rows mixes them: the user rows
    [0, n_user_heads) so read no item chunk.  record, when given, receives
    the mixing inputs under "mix_src".
    """
    x = ad.as_tensor(x)
    flags = cfg.ablations
    if not flags.wo_hm:
        if flags.hm_to_sa:
            mix = lambda xn: _single_head_sa(xn, p, cfg)
        else:

            def mix(xn: ad.Tensor) -> ad.Tensor:
                if record is not None:
                    record["mix_src"] = xn
                return _mix_rows(xn, cfg, mix_prefix)

        x = _sublayer(x, p["qm.norm"], cfg, mix)
    if flags.wo_qm_ffn:
        return x
    ffn = [p[f"qm.ffn.{w}"] for w in ("gate", "up", "down")]
    return _sublayer(x, p["qm.norm"], cfg, lambda xn: ad.gated_ffn(xn, *ffn))


def project_actions(s, p: dict[str, ad.Tensor], cfg: ModelConfig) -> tuple[ad.Tensor, ad.Tensor]:
    """Per-block keys and values from the raw sequence embedding.

    s is (..., t, n_heads*head_dim).  The gated FFN plus residual reads
    the raw embedding at every block, as ad.gated_ffn on one head whose
    rows are the actions, so a row rounds the same in any stack of
    requests.  Then each head's slice is projected by that block's
    key/value matrices.  Returns two (..., n_heads, t, head_dim) tensors.
    """
    s = ad.as_tensor(s)
    lead, t, width = s.shape[:-2], s.shape[-2], s.shape[-1]
    ffn = [p[k].reshape((1,) + p[k].shape) for k in ("seq.ffn.gate", "seq.ffn.up", "seq.ffn.down")]
    one_head = lambda sn: ad.gated_ffn(sn.reshape(lead + (t, 1, width)), *ffn).reshape(sn.shape)
    h = _sublayer(s, p["seq.norm"], cfg, one_head)
    heads = h.reshape(lead + (t, cfg.n_heads, cfg.head_dim)).swapaxes(-3, -2)
    keys = ad.matmul(heads, ad.swapaxes(p["kv.key"], -1, -2))
    values = ad.matmul(heads, ad.swapaxes(p["kv.value"], -1, -2))
    return keys, values


def cross_attention(q, keys, values) -> ad.Tensor:
    """Per-head dot-product attention onto the sequence, residual from q.

    q is (..., K, n_heads, head_dim), K candidates of each request;
    keys/values are (..., n_heads, t, head_dim), one pair per request,
    with leading axes that broadcast against q's without K.  Each request
    and head is one GEMM with the candidates as rows.  An empty or absent
    sequence returns q unchanged.
    """
    q = ad.as_tensor(q)
    if keys is None:
        return q
    keys = ad.as_tensor(keys)
    values = ad.as_tensor(values)
    t = keys.shape[-2]
    if t == 0:
        return q
    if q.ndim < 3:
        raise ShapeError(f"queries must be (..., K, n_heads, head_dim), got {q.shape}")
    dim = q.shape[-1]
    if keys.shape[-1] != dim or values.shape[-1] != dim or values.shape[-2] != t:
        raise ShapeError("keys/values do not match query head width")
    scores = ad.mul(ad.head_matmul(q, keys), 1.0 / math.sqrt(dim))
    return ad.add(ad.head_matmul(ad.softmax(scores), ad.swapaxes(values, -1, -2)), q)


def output_fusion(z, p: dict[str, ad.Tensor], cfg: ModelConfig) -> ad.Tensor:
    """Per-head gated FFNs with residual on the attended state."""
    z = ad.as_tensor(z)
    ffn = [p[f"of.ffn.{w}"] for w in ("gate", "up", "down")]
    return _sublayer(z, p["of.norm"], cfg, lambda zn: ad.gated_ffn(zn, *ffn))


def mixformer_block(
    x,
    p: dict[str, ad.Tensor],
    cfg: ModelConfig,
    kv: tuple | None = None,
    mix_prefix=None,
    record: dict | None = None,
) -> ad.Tensor:
    """One full block.  p and kv, the (keys, values) pair as
    cross_attention takes it or None for an empty sequence, are those of
    x's heads.  mix_prefix is as for query_mixer; record, when given, also
    receives the query-mixer output "q" and attention output "z".
    """
    q = query_mixer(x, p, cfg, mix_prefix, record)
    z = cross_attention(q, *(kv if kv is not None else (None, None)))
    if record is not None:
        record.update(q=q, z=z)
    return output_fusion(z, p, cfg)


def task_logits(flat: ad.Tensor, store: ParameterStore) -> ad.Tensor:
    """Per-task MLP heads on the flattened stack output: (..., n_tasks).

    The hidden layer is one GEMM per task, with every leading axis as rows.
    The one-unit output layer is a dot product per row and task."""
    w1 = store.dense["task.hidden"]
    w2 = store.dense["task.out"]
    lead = flat.shape[:-1]
    hidden = ad.swish(ad.head_matmul(flat.reshape(lead + (1, flat.shape[-1])), w1))
    out = ad.matmul(w2, hidden.reshape(lead + w1.shape[:2] + (1,)))
    return out.reshape(lead + (store.config.n_tasks,))


def sequence_embedding(batch: RequestBatch, store: ParameterStore) -> ad.Tensor | None:
    """(B, t, model_width) projected action sequence; None when t = 0."""
    actions = embed_actions_batch(batch, store.tables, store.schema)
    if actions is None:
        return None
    return ad.matmul(actions, ad.swapaxes(store.dense["seq.input_proj"], -1, -2))


def forward(
    request: Request,
    candidate_index: int,
    store: ParameterStore,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Score one candidate of one request: returns (n_tasks,) logits.
    This is batched_forward on a batch of one request and one candidate."""
    request.validate(store.schema)
    if not 0 <= candidate_index < request.n_candidates:
        raise DataError(f"candidate index {candidate_index} out of range")
    batch = request.as_batch(slice(candidate_index, candidate_index + 1))
    return batched_forward(batch, store, mask)[0, 0]


def batched_forward_tensor(
    batch: RequestBatch, store: ParameterStore, mask: np.ndarray | None = None
) -> ad.Tensor:
    """(B, K, n_tasks) logits for a stacked batch; differentiable w.r.t.
    all parameters.  A config with user heads masks its own head mixing;
    mask, when given, must be that mask (check_mask)."""
    cfg, schema = store.config, store.schema
    check_mask(cfg, mask)
    b, k = batch.n_requests, batch.n_candidates
    e = embed_nonseq_batch(batch, store.tables, schema)
    x = split_heads(e, store.dense["split.proj"], store.layout)
    s = sequence_embedding(batch, store)
    for l in range(cfg.n_blocks):
        p = store.block(l)
        # keys and values depend on the request only, so its candidates share them
        kv = None if s is None else project_actions(s, p, cfg)
        x = mixformer_block(x, p, cfg, kv)
    return task_logits(x.reshape((b, k, cfg.model_width)), store)


def batched_forward(
    batch: RequestBatch, store: ParameterStore, mask: np.ndarray | None = None
) -> np.ndarray:
    with ad.no_grad():
        return batched_forward_tensor(batch, store, mask).data


# ----------------------------------------------------------------------
# Checkpoints: config + schema + every array, byte-stable.
# ----------------------------------------------------------------------

_CK_MAGIC = b"MXCK"
_CK_VERSION = 1


def _schema_to_dict(schema: FeatureSchema) -> dict:
    return {
        "max_seq_len": schema.max_seq_len,
        "nonseq": [
            [f.name, f.side, f.vocab_size, f.dim] for f in schema.nonseq_fields
        ],
        "action": [[f.name, f.vocab_size, f.dim] for f in schema.action_fields],
    }


def _schema_from_dict(d: dict) -> FeatureSchema:
    from .features import ActionField, FeatureField

    return FeatureSchema(
        tuple(FeatureField(n, s, v, dim) for n, s, v, dim in d["nonseq"]),
        tuple(ActionField(n, v, dim) for n, v, dim in d["action"]),
        d["max_seq_len"],
    )


def _write_array(fh, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    fh.write(struct.pack("<B", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.tobytes())


def _read_array(blob: bytes, off: int) -> tuple[np.ndarray, int]:
    (ndim,) = struct.unpack_from("<B", blob, off)
    off += 1
    shape = struct.unpack_from(f"<{ndim}I", blob, off)
    off += 4 * ndim
    count = int(np.prod(shape)) if ndim else 1
    arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape)
    off += 8 * count
    return arr.copy(), off


def save_checkpoint(
    path: str,
    store: ParameterStore,
    dense_opt: dict[str, np.ndarray] | None = None,
    extra: dict | None = None,
) -> None:
    """Serialize parameters, table state, and optionally optimizer state.

    dense_opt maps dense parameter names to their RMSProp accumulators;
    the Adagrad accumulators travel with their tables.  extra must be
    JSON-serializable (step counters and the like).  The file is written
    through features.write_atomic, so a failed write leaves the previous
    checkpoint whole.
    """
    header = {
        "config": config_to_dict(store.config),
        "schema": _schema_to_dict(store.schema),
        "seed": store.seed,
        "dense": list(store.dense.keys()),
        "tables": list(store.tables.keys()),
        "has_opt": dense_opt is not None,
        "extra": extra or {},
    }
    hb = json.dumps(header, sort_keys=True).encode()

    def write(fh: BinaryIO) -> None:
        fh.write(_CK_MAGIC)
        fh.write(struct.pack("<II", _CK_VERSION, len(hb)))
        fh.write(hb)
        for name in header["dense"]:
            _write_array(fh, store.dense[name].data)
        for name in header["tables"]:
            _write_array(fh, store.tables[name].weight.data)
            _write_array(fh, store.tables[name].adagrad_acc)
        if dense_opt is not None:
            for name in header["dense"]:
                _write_array(fh, dense_opt[name])

    write_atomic(path, write)


def load_checkpoint(path: str) -> tuple[ParameterStore, dict[str, np.ndarray] | None, dict]:
    """Inverse of save_checkpoint; a corrupt or inconsistent file raises DataError."""
    blob = read_file(path, "checkpoint")
    if blob[:4] != _CK_MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    try:
        return _parse_checkpoint(path, blob)
    except (struct.error, ValueError, KeyError, TypeError, ConfigError, ShapeError) as exc:
        raise DataError(f"{path}: corrupt checkpoint ({type(exc).__name__}: {exc})") from exc


def _parse_checkpoint(
    path: str, blob: bytes
) -> tuple[ParameterStore, dict[str, np.ndarray] | None, dict]:
    """The store is built from the file's arrays, checked against the
    config's inventory; no parameter is drawn."""

    def read(want: tuple[int, ...], what: str) -> np.ndarray:
        nonlocal off
        arr, off = _read_array(blob, off)
        if arr.shape != want:
            raise DataError(f"{path}: shape mismatch for {what}")
        return arr

    version, hlen = struct.unpack_from("<II", blob, 4)
    if version != _CK_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    header = json.loads(blob[12 : 12 + hlen].decode())
    cfg = config_from_dict(header["config"])
    schema = _schema_from_dict(header["schema"])
    seed = header["seed"]
    if type(seed) is not int or seed < 0:
        raise DataError(f"{path}: seed must be a non-negative integer, not {json.dumps(seed)}")
    shapes = {name: shape for name, (shape, _, _) in parameter_shapes(schema, cfg).items()}
    table_sizes = table_shapes(schema)
    if list(shapes) != header["dense"] or list(table_sizes) != header["tables"]:
        raise DataError(f"{path}: parameter inventory mismatch")
    off = 12 + hlen
    dense = {name: read(shape, name) for name, shape in shapes.items()}
    tables = {}
    for name, shape in table_sizes.items():
        tables[name] = EmbeddingTable(name, read(shape, f"table {name}"))
        tables[name].adagrad_acc = read(shape, f"table {name} accumulator")
    dense_opt = None
    if header["has_opt"]:
        dense_opt = {name: read(shape, f"{name} accumulator") for name, shape in shapes.items()}
    if off != len(blob):
        raise DataError(f"{path}: trailing bytes")
    return ParameterStore(cfg, schema, seed, dense, tables), dense_opt, header["extra"]
