"""Unified feature-interaction and behavior-sequence ranking model.

Set MIXFORMER_NUM_THREADS before first import to pin the BLAS thread
pool; it must be applied before numpy loads, which is why it lives at
the top of this file.
"""

import os as _os

if "MIXFORMER_NUM_THREADS" in _os.environ:
    _v = _os.environ["MIXFORMER_NUM_THREADS"]
    for _k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_k, _v)

from .autodiff import FlopTrace, GradCheckReport, Tensor, grad_check, no_grad
from .blocks import (
    AblationFlags,
    DecoupleConfig,
    ModelConfig,
    ParameterStore,
    batched_forward,
    batched_forward_tensor,
    build_mask,
    config_from_dict,
    config_to_dict,
    cross_attention,
    forward,
    glorot_uniform,
    head_mixing,
    init_parameters,
    load_checkpoint,
    mixformer_block,
    output_fusion,
    parameter_shapes,
    project_actions,
    query_mixer,
    save_checkpoint,
    task_logits,
)
from .datagen import (
    N_ACTION_TYPES,
    N_RECENCY_BUCKETS,
    N_USER_SEGMENTS,
    GeneratorSpec,
    SyntheticData,
    baseline_score,
    generate,
    make_schema,
    split_holdout,
    tune_noise_temperature,
)
from .decouple import (
    LayerUserState,
    SharedUserState,
    allocate_heads,
    compute_shared_user_state,
    forward_decoupled,
    rlb_forward,
    rlb_forward_batch,
)
from .errors import (
    ConfigError,
    DataError,
    MetricError,
    MixformerError,
    NumericError,
    ShapeError,
    VocabError,
)
from .features import (
    ActionField,
    Dataset,
    EmbeddingTable,
    FeatureField,
    FeatureSchema,
    HeadLayout,
    Request,
    RequestBatch,
    embed_actions_batch,
    embed_nonseq_batch,
    head_layout,
    make_tables,
    read_dataset,
    read_oracle,
    read_schema,
    split_heads,
    stack_requests,
    table_shapes,
    write_dataset,
    write_oracle,
    write_schema,
)
from .flopsmeter import (
    ComponentCount,
    FlopsReport,
    count_flops,
    count_params,
    load_production_assumptions,
    production_savings,
    rlb_savings,
    scaling_report,
    schema_from_widths,
)
from .trainer import (
    ABLATION_NAMES,
    AblationResult,
    FitResult,
    MetricSummary,
    Optimizer,
    OptimizerConfig,
    apply_ablation,
    auc,
    batch_loss,
    config_diff,
    evaluate,
    fit,
    logloss,
    plan_batches,
    predict,
    run_ablation,
    train_steps,
    uauc,
)

__version__ = "0.1.0"
