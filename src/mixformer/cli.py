"""Command-line interface.

Subcommands: gen (synthetic corpus), train, flops (cost reports),
bench-rlb (request-level batching benchmark), ablate (single-switch
variants).  Each subcommand's settings are one dataclass; `main` resolves
it once from its defaults, then the --config JSON file (gen, train,
flops), then explicit flags, and every output embeds the resolved
settings so runs can be reproduced from artifacts alone.  Exit codes:
0 ok, 2 configuration, 3 data, 4 numeric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .blocks import (
    DecoupleConfig,
    ModelConfig,
    batched_forward,
    config_to_dict,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
    settings_from_json,
)
from .datagen import GeneratorSpec, generate, split_dataset, tune_noise_temperature
from .decouple import allocate_heads, forward_decoupled, rlb_forward
from .errors import ConfigError, DataError, NumericError
from .features import (
    RECORD_MAX,
    Dataset,
    FeatureSchema,
    read_dataset,
    read_file,
    read_schema,
    stack_requests,
    write_atomic,
    write_dataset,
    write_oracle,
    write_schema,
)
from .flopsmeter import (
    count_flops,
    production_savings,
    rlb_savings,
    scaling_report,
    schema_from_widths,
)
from .trainer import (
    ABLATION_NAMES,
    Optimizer,
    OptimizerConfig,
    apply_ablation,
    batch_loss,
    evaluate,
    fit,
    run_ablation,
    train_steps,
)

DEFAULT_SEQ_POINTS = (512, 2048, 8192, 10000)


def _preset_invalid_small() -> ModelConfig:
    # the published small shape; head_dim 386 cannot be split into 16 heads
    raise ConfigError(
        "preset 'small-reported' (n_heads=16, head_dim=386) is invalid: 386 is "
        "not divisible by 16, so head mixing cannot slice it; use "
        "'small-corrected' (head_dim=384)"
    )


PRESETS = {
    "desk-small": lambda: ModelConfig(n_heads=4, head_dim=32, n_blocks=2, max_seq_len=64),
    "small-corrected": lambda: ModelConfig(
        n_heads=16, head_dim=384, n_blocks=4, max_seq_len=512
    ),
    "medium-corrected": lambda: ModelConfig(
        n_heads=16, head_dim=768, n_blocks=4, max_seq_len=512
    ),
    "small-reported": _preset_invalid_small,
}


def _load_json(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        obj = json.loads(read_file(path, "config", text=True, error=ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


def _resolve(dc, file_cfg: dict, cli_args: dict):
    """defaults < config file < explicit CLI flags.  A negative seed is a
    ConfigError, since the generators draw from it."""
    run = settings_from_json(type(dc), file_cfg, dc)
    flags = {k: v for k, v in cli_args.items() if v is not None and k in dc.__dataclass_fields__}
    run = settings_from_json(type(dc), flags, run)
    if getattr(run, "seed", 0) < 0:
        raise ConfigError(f"seed must be >= 0, not {run.seed}")
    return run


def _model_config(run) -> ModelConfig:
    """The preset, with the run's model overrides laid over it."""
    if run.preset not in PRESETS:
        raise ConfigError(f"unknown preset '{run.preset}'; have {sorted(PRESETS)}")
    return settings_from_json(ModelConfig, run.model, PRESETS[run.preset](), "model")


def _decoupled(cfg: ModelConfig, schema) -> ModelConfig:
    n_u, n_g = allocate_heads(schema.d_ns_user, schema.d_ns_item, cfg.n_heads)
    return replace(
        cfg,
        decoupling=DecoupleConfig(enabled=True, n_user_heads=n_u, n_item_heads=n_g),
    )


def _run_header(run) -> str:
    """The `# {json}` first line of every output file: the resolved settings."""
    return "# " + json.dumps(asdict(run), sort_keys=True)


def _read_corpus(data: str) -> tuple[FeatureSchema, Dataset]:
    """The schema and dataset that `gen` wrote to the directory data."""
    schema = read_schema(str(Path(data) / "schema.txt"))
    return schema, read_dataset(str(Path(data) / "dataset.bin"), schema)


def _flag_int(token: str, flag: str, low: int | None = None) -> int:
    """One integer of a list flag; a bad token, or one below low, is a ConfigError."""
    try:
        value = int(token)
    except ValueError:
        raise ConfigError(f"{flag}: '{token}' is not an integer") from None
    if low is not None and value < low:
        raise ConfigError(f"{flag}: {value} is below {low}")
    return value


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------


@dataclass
class GenRun:
    seed: int = 0
    n_users: int = 2000
    n_items: int = 500
    n_requests: int = 20000
    candidates_per_request: int = 8
    seq_len: int = 32
    w_inter: float = 2.5
    w_seq: float = 0.6
    noise_temperature: float = 1.0
    tune_oracle: bool = True
    oracle_lo: float = 0.84
    oracle_hi: float = 0.86

    def __post_init__(self) -> None:
        if max(self.seq_len, self.candidates_per_request) > RECORD_MAX:
            raise ConfigError(
                f"seq_len and candidates_per_request must be <= {RECORD_MAX}, "
                "the most a dataset record holds"
            )


def cmd_gen(run: GenRun, args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        n_users=run.n_users,
        n_items=run.n_items,
        n_requests=run.n_requests,
        candidates_per_request=run.candidates_per_request,
        seq_len_min=run.seq_len,
        seq_len_max=run.seq_len,
        w_inter=run.w_inter,
        w_seq=run.w_seq,
        noise_temperature=run.noise_temperature,
        seed=run.seed,
    )
    achieved = None
    if run.tune_oracle:
        spec, achieved = tune_noise_temperature(spec, (run.oracle_lo, run.oracle_hi))
        run = replace(run, noise_temperature=spec.noise_temperature)
    data = generate(spec)
    # before anything is written, so a corpus whose oracle AUC is undefined
    # leaves no files behind
    record = {
        "run_config": asdict(run),
        "oracle_auc": achieved if achieved is not None else data.oracle_auc(0),
        "n_impressions": data.dataset.n_impressions,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_schema(str(out / "schema.txt"), data.dataset.schema)
    write_dataset(str(out / "dataset.bin"), data.dataset)
    write_oracle(str(out / "oracle.csv"), data.oracle)
    write_atomic(out / "gen_config.json", json.dumps(record, indent=2, sort_keys=True).encode())
    print(
        f"wrote {len(data.dataset.requests)} requests "
        f"({data.dataset.n_impressions} impressions) to {out}; "
        f"oracle AUC {record['oracle_auc']:.4f}"
    )
    return 0


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------


@dataclass
class TrainRun:
    preset: str = "desk-small"
    model: dict = field(default_factory=dict)
    seed: int = 0
    epochs: int = 1
    batch_size: int = 256
    max_steps: int | None = None
    holdout_fraction: float = 0.1
    eval_every: int = 0
    save_every: int = 0
    decouple: bool = False
    lr_dense: float = OptimizerConfig.lr_dense
    lr_sparse: float = OptimizerConfig.lr_sparse

    def __post_init__(self) -> None:
        if self.max_steps is not None and self.max_steps < 0:
            raise ConfigError("max_steps must be >= 0")
        if min(self.epochs, self.eval_every, self.save_every) < 0:
            raise ConfigError(
                "epochs, eval_every and save_every must be >= 0; "
                "eval_every and save_every of 0 evaluate and save only at the end"
            )
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction must lie in [0, 1); 0 keeps no holdout")


def _drop_rows_after(log_path: Path, global_step: int) -> None:
    """Drop log rows past global_step, and any row cut short, before a resume appends."""
    if not log_path.exists():
        return
    keep = []
    for line in read_file(log_path, "training log", text=True).splitlines(keepends=True):
        step = line.split(",", 1)[0]
        if line.endswith("\n") and not (step.isdigit() and int(step) > global_step):
            keep.append(line)
    write_atomic(log_path, "".join(keep).encode())


def _resume_position(extra, path: str) -> tuple[int, int, int]:
    """(epoch, step_in_epoch, global_step) from a checkpoint's extra header,
    each 0 when absent.  extra must be an object and each field present a
    non-negative int; anything else is a DataError."""
    if not isinstance(extra, dict):
        raise DataError(f"{path}: extra must be an object, not {json.dumps(extra)}")
    keys = ("epoch", "step_in_epoch", "global_step")
    for key in keys:
        value = extra.get(key, 0)
        if type(value) is not int or value < 0:
            raise DataError(
                f"{path}: {key} must be a non-negative integer, not {json.dumps(value)}"
            )
    return tuple(extra.get(key, 0) for key in keys)


def cmd_train(run: TrainRun, args: argparse.Namespace) -> int:
    schema, dataset = _read_corpus(args.data)
    train_set, holdout = (
        split_dataset(dataset, run.holdout_fraction)
        if run.holdout_fraction
        else (dataset, [])
    )
    opt_cfg = OptimizerConfig(lr_dense=run.lr_dense, lr_sparse=run.lr_sparse)

    start = (0, 0)
    global_step = 0
    if args.resume:
        store, dense_opt, extra = load_checkpoint(args.resume)
        if store.schema != schema:
            raise DataError(f"{args.resume} was trained on another schema than {args.data}'s")
        if dense_opt is None:
            raise DataError(f"{args.resume} has no optimizer state; cannot resume")
        opt = Optimizer(store.dense, store.tables, opt_cfg)
        opt.rms_acc = dense_opt
        epoch, step, global_step = _resume_position(extra, args.resume)
        start = (epoch, step)
        cfg = store.config
    else:
        cfg = _model_config(run)
        if run.decouple:
            cfg = _decoupled(cfg, schema)
        store = init_parameters(schema, cfg, run.seed)
        opt = Optimizer(store.dense, store.tables, opt_cfg)
    labels = dataset.requests[0].labels if dataset.requests else None
    if labels is not None and labels.shape[1] != cfg.n_tasks:
        raise ConfigError(
            f"the model has {cfg.n_tasks} task heads but the corpus labels "
            f"{labels.shape[1]} tasks"
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "train_log.csv"
    if args.resume:
        _drop_rows_after(log_path, global_step)
    log_fh = open(log_path, "a" if args.resume else "w")
    if not args.resume:
        log_fh.write(_run_header(run) + "\n")
        log_fh.write("step,epoch,loss,holdout_auc0,step_s,impr_per_s\n")
        log_fh.flush()

    def save(epoch: int, step: int, global_step: int) -> None:
        # the log on disk must reach every step the checkpoint holds, so a
        # killed run resumes with its rows (a resume drops any past it)
        log_fh.flush()
        os.fsync(log_fh.fileno())
        save_checkpoint(
            str(out / "checkpoint.bin"),
            store,
            dense_opt=opt.rms_acc,
            extra={"epoch": epoch, "step_in_epoch": step, "global_step": global_step},
        )

    impressions = 0

    def loss_fn(batch):
        nonlocal impressions
        impressions = batch.n_requests * batch.n_candidates
        return batch_loss(batch, store)

    steps = train_steps(
        train_set.requests, opt, loss_fn, run.batch_size, run.seed, run.epochs, start
    )
    epoch, step = start
    done = 0
    t0 = tick = time.perf_counter()
    try:
        for epoch, step, value in islice(steps, run.max_steps):
            # stack, forward, backward and optimizer step; not eval or saves
            step_s = time.perf_counter() - tick
            done += 1
            global_step += 1
            auc_cell = ""
            if run.eval_every and holdout and global_step % run.eval_every == 0:
                summary = evaluate(holdout, store)
                auc_cell = f"{summary.auc[0]:.6f}"
            log_fh.write(
                f"{global_step},{epoch},{value:.9f},{auc_cell},"
                f"{step_s:.6g},{impressions / step_s:.6g}\n"
            )
            if run.save_every and global_step % run.save_every == 0:
                save(epoch, step, global_step)
            tick = time.perf_counter()
        save(epoch, step, global_step)
    finally:
        log_fh.close()

    summary = evaluate(holdout, store) if holdout else None
    record = {
        "run_config": asdict(run),
        "model_config": config_to_dict(cfg),
        "steps": done,
        "wall_seconds": time.perf_counter() - t0,
        "metrics": asdict(summary) if summary else None,
    }
    write_atomic(out / "metrics.json", json.dumps(record, indent=2, sort_keys=True).encode())
    if summary:
        print(
            f"trained {done} steps; holdout AUC "
            + ", ".join(f"task{t}={a:.4f}" for t, a in enumerate(summary.auc))
        )
    else:
        print(f"trained {done} steps (no holdout)")
    return 0


# ----------------------------------------------------------------------
# flops
# ----------------------------------------------------------------------


@dataclass
class FlopsRun:
    preset: str = "desk-small"
    model: dict = field(default_factory=dict)
    seq_len: int = 64
    candidates: int = 1
    rlb: bool = False
    decouple: bool = False
    d_ns_user: int = 80
    d_ns_item: int = 48
    action_dim: int = 20
    axis: str | None = None
    points: str | None = None

    def __post_init__(self) -> None:
        if min(self.d_ns_user, self.d_ns_item, self.action_dim) < 1:
            raise ConfigError("d_ns_user, d_ns_item and action_dim must be >= 1")
        if self.axis not in (None, "dense", "sequence"):
            raise ConfigError(f"axis must be 'dense' or 'sequence', not {json.dumps(self.axis)}")


def cmd_flops(run: FlopsRun, args: argparse.Namespace) -> int:
    if args.production:
        savings, report, assumptions = production_savings()
        print("pinned production shape:")
        for key in (
            "n_heads", "head_dim", "n_blocks", "seq_len", "candidates_per_request",
            "d_ns_user", "d_ns_item", "savings_mode",
        ):
            print(f"  {key}: {assumptions[key]}")
        print(f"  dense params: {report.n_params:,}")
        print(f"  serving flops/request (batched): {report.total:,}")
        print(f"  savings vs unbatched: {savings:.4f}")
        return 0

    if args.schema:
        schema = read_schema(args.schema)
    else:
        schema = schema_from_widths(
            run.d_ns_user, run.d_ns_item, run.action_dim, max(run.seq_len, 1)
        )
    cfg = _model_config(run)
    if run.decouple or run.rlb:
        cfg = _decoupled(cfg, schema)

    if run.axis:
        if run.axis == "sequence":
            points = (
                [_flag_int(p, "--points") for p in run.points.split(",")]
                if run.points
                else list(DEFAULT_SEQ_POINTS)
            )
        else:
            if not run.points:
                raise ConfigError("dense axis needs --points like 384:4,768:4")
            points = []
            for tok in run.points.split(","):
                dim, _, blocks = tok.partition(":")
                blocks = _flag_int(blocks, "--points") if blocks else cfg.n_blocks
                points.append((_flag_int(dim, "--points"), blocks))
        rows = scaling_report(
            cfg, schema, run.axis, points, seq_len=run.seq_len,
            n_candidates=run.candidates,
        )
        lines = ["head_dim,n_blocks,seq_len,params,flops"]
        lines += [
            f"{r['head_dim']},{r['n_blocks']},{r['seq_len']},{r['params']},{r['flops']}"
            for r in rows
        ]
        text = "\n".join(lines) + "\n"
        if args.out:
            write_atomic(args.out, (_run_header(run) + "\n" + text).encode())
            print(f"wrote {len(rows)} rows to {args.out}")
        else:
            print(text, end="")
        return 0

    report = count_flops(
        cfg, schema, run.seq_len, n_candidates=run.candidates, rlb=run.rlb
    )
    print(f"params (dense): {report.n_params:,}")
    print(
        f"flops for {report.n_candidates} candidate(s)"
        + (" with request-level batching" if report.rlb else "")
        + f": {report.total:,}"
    )
    for name, comp in report.components.items():
        print(f"  {name:>15}: user {comp.user:>16,}  item {comp.item:>16,}")
    if cfg.decoupling.enabled and run.candidates > 1:
        s = rlb_savings(cfg, schema, run.seq_len, run.candidates)
        print(f"savings at K={run.candidates}: {s:.4f}")
    return 0


# ----------------------------------------------------------------------
# bench-rlb
# ----------------------------------------------------------------------


@dataclass
class BenchRlbRun:
    preset: str = "desk-small"
    seed: int = 0
    candidates_list: str = "1,2,4,8,16,32,64,128"
    requests: int = 20

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ConfigError("requests must be >= 1")


def cmd_bench_rlb(run: BenchRlbRun, args: argparse.Namespace) -> int:
    ks = [_flag_int(k, "--candidates-list", low=1) for k in run.candidates_list.split(",")]
    schema, dataset = _read_corpus(args.data)
    cfg = _decoupled(PRESETS[run.preset](), schema)
    store = init_parameters(schema, cfg, run.seed)
    requests = dataset.requests[: run.requests]
    rng = np.random.default_rng(run.seed)
    item_vocabs = [f.vocab_size for f in schema.item_fields()]

    lines = ["k,wall_percand_s,wall_rlb_s,speedup,max_abs_diff,meter_savings,wall_batched_s"]
    print(lines[0])
    for k in ks:
        reqs_k = []
        for r in requests:
            cands = np.stack(
                [rng.integers(v, size=k) for v in item_vocabs], axis=1
            ).astype(np.int64)
            reqs_k.append(replace(r, candidates=cands, labels=None))
        t0 = time.perf_counter()
        per_cand = [
            np.stack([forward_decoupled(r, i, store) for i in range(k)])
            for r in reqs_k
        ]
        t_base = time.perf_counter() - t0
        t0 = time.perf_counter()
        batched = [rlb_forward(r, store) for r in reqs_k]
        t_rlb = time.perf_counter() - t0
        # the strong baseline: all candidates of a request in one masked pass
        t0 = time.perf_counter()
        for r in reqs_k:
            batched_forward(stack_requests([r]), store)
        t_batched = time.perf_counter() - t0
        diff = max(
            float(np.max(np.abs(a - b))) for a, b in zip(per_cand, batched)
        )
        meter = rlb_savings(cfg, schema, requests[0].seq_len, k)
        speedup = t_base / t_rlb if t_rlb > 0 else float("inf")
        lines.append(
            f"{k},{t_base:.6f},{t_rlb:.6f},{speedup:.4f},{diff:.6e},{meter:.6f},"
            f"{t_batched:.6f}"
        )
        print(lines[-1])
    if args.out:
        write_atomic(args.out, "\n".join([_run_header(run), *lines, ""]).encode())
        print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------------
# ablate
# ----------------------------------------------------------------------


@dataclass
class AblateRun:
    preset: str = "desk-small"
    seed: int = 0
    epochs: int = 1
    batch_size: int = 256
    max_steps: int | None = None
    holdout_fraction: float = 0.1

    def __post_init__(self) -> None:
        # the CSV reports each run's final loss, so each run takes a step
        if self.epochs < 1 or (self.max_steps is not None and self.max_steps < 1):
            raise ConfigError("ablate needs an optimizer step: epochs and max_steps must be >= 1")


def cmd_ablate(run: AblateRun, args: argparse.Namespace) -> int:
    schema, dataset = _read_corpus(args.data)
    train_set, holdout = split_dataset(dataset, run.holdout_fraction)
    if not holdout:
        raise DataError("ablate needs a holdout, so a corpus of at least 2 requests")
    cfg = PRESETS[run.preset]()

    base = fit(
        train_set, cfg, seed=run.seed, epochs=run.epochs,
        batch_size=run.batch_size, holdout=holdout, max_steps=run.max_steps,
    )
    base_rep = count_flops(cfg, schema, schema.max_seq_len)
    lines = [
        _run_header(run),
        "name,changed_fields,params,flops,final_loss,auc0,delta_auc0",
        f"base,0,{base_rep.n_params},{base_rep.total},"
        f"{base.losses[-1]:.6f},{base.metrics.auc[0]:.6f},0.0",
    ]
    print(lines[-1])
    for name in ABLATION_NAMES:
        res = run_ablation(
            name, cfg, train_set, holdout, base.metrics, seed=run.seed,
            epochs=run.epochs, batch_size=run.batch_size, max_steps=run.max_steps,
        )
        vcfg = apply_ablation(cfg, name)
        rep = count_flops(vcfg, schema, schema.max_seq_len)
        row = (
            f"{name},{len(res.changed_fields)},{rep.n_params},{rep.total},"
            f"{res.variant_losses[-1]:.6f},{res.variant.auc[0]:.6f},"
            f"{res.delta_auc[0]:+.6f}"
        )
        lines.append(row)
        print(row)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "ablations.csv", ("\n".join(lines) + "\n").encode())
    print(f"wrote {out / 'ablations.csv'}")
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Run-setting flags take their field's name as dest and no default:
    the run dataclass declares each default once, and `main` resolves it."""
    p = argparse.ArgumentParser(
        prog="mixformer",
        description="Unified ranking model: data generation, training, and cost analysis.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic corpus with a known oracle")
    g.add_argument("--out", required=True, help="output directory for the corpus")
    g.add_argument("--config", help="JSON file of generator overrides")
    g.add_argument("--seed", type=int)
    g.add_argument("--users", dest="n_users", type=int)
    g.add_argument("--items", dest="n_items", type=int)
    g.add_argument("--requests", dest="n_requests", type=int)
    g.add_argument("--candidates", dest="candidates_per_request", type=int)
    g.add_argument("--seq-len", dest="seq_len", type=int)
    g.add_argument(
        "--no-tune-oracle", dest="tune_oracle", action="store_false", default=None,
        help="keep the configured noise temperature instead of bisecting",
    )
    g.set_defaults(func=cmd_gen, run=GenRun)

    t = sub.add_parser("train", help="train on a generated corpus")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True, help="output directory for the run")
    t.add_argument("--config", help="JSON file of training overrides")
    t.add_argument("--preset", choices=sorted(PRESETS))
    t.add_argument("--seed", type=int)
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", dest="batch_size", type=int)
    t.add_argument(
        "--max-steps", dest="max_steps", type=int,
        help="optimizer steps in this invocation, not counting steps before --resume",
    )
    t.add_argument(
        "--holdout-fraction", dest="holdout_fraction", type=float,
        help="tail share of requests held out; 0 trains on all of them",
    )
    t.add_argument("--eval-every", dest="eval_every", type=int)
    t.add_argument("--save-every", dest="save_every", type=int)
    t.add_argument("--resume", help="checkpoint to continue from")
    t.add_argument("--decouple", action="store_true", default=None)
    t.add_argument("--lr-dense", dest="lr_dense", type=float)
    t.add_argument("--lr-sparse", dest="lr_sparse", type=float)
    t.set_defaults(func=cmd_train, run=TrainRun)

    f = sub.add_parser("flops", help="analytic cost reports")
    f.add_argument("--config", help="JSON file of flops-run overrides")
    f.add_argument("--preset", choices=sorted(PRESETS))
    f.add_argument("--schema", help="schema.txt to take widths from")
    f.add_argument("--seq-len", dest="seq_len", type=int)
    f.add_argument("--candidates", type=int)
    f.add_argument("--rlb", action="store_true", default=None)
    f.add_argument("--decouple", action="store_true", default=None)
    f.add_argument("--axis", choices=("dense", "sequence"))
    f.add_argument("--points", help="dense: 'dim:blocks,...'; sequence: 'T,...'")
    f.add_argument("--production", action="store_true", help="pinned production shape")
    f.add_argument("--out", help="write CSV here instead of stdout")
    f.set_defaults(func=cmd_flops, run=FlopsRun)

    b = sub.add_parser("bench-rlb", help="compare per-candidate vs batched serving")
    b.add_argument("--data", required=True)
    b.add_argument("--preset", choices=sorted(PRESETS))
    b.add_argument("--seed", type=int)
    b.add_argument("--candidates-list", dest="candidates_list")
    b.add_argument("--requests", type=int)
    b.add_argument("--out", help="write the CSV here instead of stdout")
    b.set_defaults(func=cmd_bench_rlb, run=BenchRlbRun)

    a = sub.add_parser("ablate", help="train base plus all single-switch variants")
    a.add_argument("--data", required=True)
    a.add_argument("--out", required=True, help="output directory for ablations.csv")
    a.add_argument("--preset", choices=sorted(PRESETS))
    a.add_argument("--seed", type=int)
    a.add_argument("--epochs", type=int)
    a.add_argument("--batch-size", dest="batch_size", type=int)
    a.add_argument("--max-steps", dest="max_steps", type=int)
    a.add_argument("--holdout-fraction", dest="holdout_fraction", type=float)
    a.set_defaults(func=cmd_ablate, run=AblateRun)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = _resolve(args.run(), _load_json(getattr(args, "config", None)), vars(args))
        return args.func(run, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
