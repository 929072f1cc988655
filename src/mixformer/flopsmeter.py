"""Closed-form cost model for the block stack.

Counts follow the package-wide convention (one multiply-add = 2 FLOPs
for matmuls, 5 per element for softmax and the norms, 0 for everything
else), so the analytic numbers here must match a FlopTrace of the real
forward passes bit for bit.  Every component is tagged with how much of
it is shareable across a request's candidates: sequence-side work is
request-level by construction, and with decoupling enabled the user
heads' work is too.

Two serving-cost conventions are supported by rlb_savings:

  * "per-candidate": the baseline recomputes everything, sequence
    included, for each of the K candidates.  Savings are then
    (1 - 1/K) * user_share and approach the user-shareable fraction.
  * "request-shared-sequence": both columns amortize the sequence-side
    work once per request (large production candidate sets always
    batch the sequence encoder), so the reported savings isolate what
    the user/item head split itself contributes.

The pinned production shape in data/production_shape.json reproduces a
billion-parameter, long-sequence deployment; under the second
convention it lands at roughly 35% serving FLOPs saved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources

from .blocks import DecoupleConfig, ModelConfig, parameter_shapes
from .errors import ConfigError
from .features import ActionField, FeatureField, FeatureSchema, head_layout

SEQ_COMPONENTS = ("seq_input_proj", "seq_ffn", "kv_proj")


@dataclass(frozen=True)
class ComponentCount:
    """FLOPs of one component, split by shareability."""

    user: int
    item: int

    @property
    def total(self) -> int:
        return self.user + self.item


@dataclass
class FlopsReport:
    components: dict[str, ComponentCount]
    n_params: int
    n_candidates: int
    rlb: bool

    @property
    def total(self) -> int:
        return sum(c.total for c in self.components.values())

    @property
    def user_total(self) -> int:
        return sum(c.user for c in self.components.values())

    @property
    def item_total(self) -> int:
        return sum(c.item for c in self.components.values())


def _per_candidate_components(
    config: ModelConfig, schema: FeatureSchema, seq_len: int
) -> dict[str, tuple[int, int]]:
    """(user, item) FLOPs of scoring one candidate, sequence included."""
    n, dim = config.n_heads, config.head_dim
    n_u = config.user_heads
    n_g = n - n_u
    layout = head_layout(schema, n, n_u)
    width = layout.slice_width
    nd = config.model_width
    h = config.ffn_hidden
    hs = config.seq_ffn_hidden
    th = config.task_hidden_dim
    nt = config.n_tasks
    a = schema.action_dim
    t = seq_len
    big_l = config.n_blocks
    flags = config.ablations

    comp: dict[str, tuple[int, int]] = {}
    comp["split_heads"] = (2 * n_u * dim * width, 2 * n_g * dim * width)
    comp["seq_input_proj"] = (2 * t * a * nd if t else 0, 0)

    norm_sites = (0 if flags.wo_hm else 1) + (0 if flags.wo_qm_ffn else 1)
    qm_user = 5 * n_u * dim * norm_sites
    qm_item = 5 * n_g * dim * norm_sites
    if not flags.wo_qm_ffn:
        qm_user += 6 * n_u * h * dim
        qm_item += 6 * n_g * h * dim
    if flags.hm_to_sa and not flags.wo_hm:
        # three D x D projections, row-over-row scores, softmax, weighted sum
        qm_item += 6 * n * dim * dim + 4 * n * n * dim + 5 * n * n
    comp["query_mixer"] = (big_l * qm_user, big_l * qm_item)

    seq_ffn = (5 * t * nd + 6 * t * nd * hs) if t else 0
    comp["seq_ffn"] = (big_l * seq_ffn, 0)
    comp["kv_proj"] = (big_l * (4 * n * t * dim * dim) if t else 0, 0)

    per_head_attn = (4 * t * dim + 5 * t) if t else 0
    comp["attention"] = (big_l * n_u * per_head_attn, big_l * n_g * per_head_attn)

    of_user = 5 * n_u * dim + 6 * n_u * h * dim
    of_item = 5 * n_g * dim + 6 * n_g * h * dim
    comp["output_fusion"] = (big_l * of_user, big_l * of_item)

    comp["task_heads"] = (0, 2 * nt * th * nd + 2 * nt * th)
    return comp


def count_params(config: ModelConfig, schema: FeatureSchema) -> int:
    """Dense parameter count, summed over the model's parameter inventory
    without allocating it; embedding tables are excluded."""
    return sum(math.prod(shape) for shape, _, _ in parameter_shapes(schema, config).values())


def count_flops(
    config: ModelConfig,
    schema: FeatureSchema,
    seq_len: int,
    n_candidates: int = 1,
    rlb: bool = False,
) -> FlopsReport:
    """Analytic cost of scoring one request of n_candidates.

    Without rlb every component is paid once per candidate.  With rlb
    (decoupling required) the user-tagged share is paid once.
    """
    if seq_len < 0 or n_candidates < 1:
        raise ConfigError("seq_len >= 0 and n_candidates >= 1 required")
    if rlb and not config.decoupling.enabled:
        raise ConfigError("request-level batching requires decoupling in the config")
    user_scale = 1 if rlb else n_candidates
    per = _per_candidate_components(config, schema, seq_len)
    return FlopsReport(
        components={
            name: ComponentCount(user_scale * user, n_candidates * item)
            for name, (user, item) in per.items()
        },
        n_params=count_params(config, schema),
        n_candidates=n_candidates,
        rlb=rlb,
    )


def rlb_savings(
    config: ModelConfig,
    schema: FeatureSchema,
    seq_len: int,
    n_candidates: int,
    mode: str = "per-candidate",
) -> float:
    """Fraction of serving FLOPs removed by request-level batching."""
    if mode not in ("per-candidate", "request-shared-sequence"):
        raise ConfigError(f"unknown savings mode '{mode}'")
    rlb = count_flops(config, schema, seq_len, n_candidates, rlb=True)
    base = count_flops(config, schema, seq_len, n_candidates).components
    if mode == "request-shared-sequence":
        base = {**base, **{name: rlb.components[name] for name in SEQ_COMPONENTS}}
    return 1.0 - rlb.total / sum(c.total for c in base.values())


def scaling_report(
    config: ModelConfig,
    schema: FeatureSchema,
    axis: str,
    points,
    seq_len: int = 512,
    n_candidates: int = 1,
) -> list[dict]:
    """Cost table along one scaling axis.

    axis="dense": points are (head_dim, n_blocks) pairs, seq_len fixed.
    axis="sequence": points are sequence lengths.
    """
    if axis not in ("dense", "sequence"):
        raise ConfigError(f"unknown scaling axis '{axis}'")
    rows: list[dict] = []
    for point in points:
        if axis == "dense":
            cfg, t = replace(config, head_dim=point[0], n_blocks=point[1]), seq_len
        else:
            cfg, t = config, int(point)
        rep = count_flops(cfg, schema, t, n_candidates)
        rows.append(
            {
                "head_dim": cfg.head_dim,
                "n_blocks": cfg.n_blocks,
                "seq_len": t,
                "params": rep.n_params,
                "flops": rep.total,
            }
        )
    return rows


def schema_from_widths(
    d_ns_user: int, d_ns_item: int, action_dim: int, max_seq_len: int
) -> FeatureSchema:
    """Synthetic one-field-per-side schema for pure cost studies."""
    return FeatureSchema(
        nonseq_fields=(
            FeatureField("user_blob", "user", 1, d_ns_user),
            FeatureField("item_blob", "item", 1, d_ns_item),
        ),
        action_fields=(ActionField("action_blob", 1, action_dim),),
        max_seq_len=max_seq_len,
    )


def load_production_assumptions() -> dict:
    """The pinned production-scale shape used for headline savings."""
    text = resources.files("mixformer").joinpath("data/production_shape.json").read_text()
    return json.loads(text)


def production_savings() -> tuple[float, "FlopsReport", dict]:
    """Savings under the pinned production assumptions.

    Returns (savings, rlb report, assumptions dict)."""
    a = load_production_assumptions()
    cfg = ModelConfig(
        n_heads=a["n_heads"],
        head_dim=a["head_dim"],
        n_blocks=a["n_blocks"],
        max_seq_len=a["seq_len"],
        expansion_ratio=a["expansion_ratio"],
        seq_expansion_ratio=a["seq_expansion_ratio"],
        n_tasks=a["n_tasks"],
        decoupling=DecoupleConfig(
            enabled=True,
            n_user_heads=a["n_user_heads"],
            n_item_heads=a["n_item_heads"],
        ),
    )
    schema = schema_from_widths(
        a["d_ns_user"], a["d_ns_item"], a["action_dim"], a["seq_len"]
    )
    savings = rlb_savings(
        cfg, schema, a["seq_len"], a["candidates_per_request"], mode=a["savings_mode"]
    )
    report = count_flops(
        cfg, schema, a["seq_len"], a["candidates_per_request"], rlb=True
    )
    return savings, report, a
