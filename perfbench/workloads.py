"""The benchmark's workloads: inputs made from a seed, the timed operation,
the honest-baseline pass, and the correctness gate.

Every workload is a closed loop with one caller on the ``desk-small``
preset, with user and item heads allocated by ``allocate_heads``.  The
package receives only the generated inputs; the seed never reaches it
except as the generator's and the initializer's seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

# Tolerances of the package's rlb-equivalence acceptance criterion.
RTOL, ATOL = 1e-9, 1e-12
TRAIN_BATCH_IMPRESSIONS = 256
TRAIN_LR_DENSE = 0.003  # the CLI default of 0.01 diverges on these corpora
N_USERS, N_ITEMS = 2000, 500  # the defaults of `mixformer gen`
N_CHECKED = 3  # ops per run compared with the reference paths
MAX_CHECKED_CANDIDATES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_candidates: int
    seq_len: int
    n_pool: int  # serving: requests in the stream; train: training requests
    n_holdout: int  # labelled requests scored by trainer.evaluate
    repeat_prob: float = 0.0  # serving: chance a request re-sends an earlier user and sequence
    train: bool = False
    n_epochs: int = 0  # train: epoch plans built at set-up
    n_baseline: int = 0  # serving: requests also scored by masked batched_forward


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="serve_wide",
            why=(
                "K=1024, seq_len 32, every user and sequence distinct: ~90% of FLOPs are "
                "item-side, so item-path and task-head gains show here and a user-state "
                "cache shows nothing."
            ),
            n_candidates=1024,
            seq_len=32,
            n_pool=1500,
            n_holdout=4,
            n_baseline=12,
        ),
        Workload(
            name="serve_longseq_repeat",
            why=(
                "K=16, seq_len 256, about half the requests re-send an earlier user and "
                "sequence: shared user state is ~96% of FLOPs, so sequence-side work and a "
                "user-state cache show here."
            ),
            n_candidates=16,
            seq_len=256,
            n_pool=4000,
            n_holdout=32,
            repeat_prob=0.5,
            n_baseline=40,
        ),
        Workload(
            name="train",
            why=(
                "Optimizer steps of 256 impressions (K=8, seq_len 32) with the decoupling "
                "mask, then holdout evaluation: blocks with the tape on; serving-only "
                "changes should not move it."
            ),
            n_candidates=8,
            seq_len=32,
            n_pool=2048,
            n_holdout=256,
            train=True,
            n_epochs=6,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """A seconds-long version of a workload for the benchmark's own tests."""
    return replace(
        w,
        n_candidates=min(w.n_candidates, 8),
        seq_len=min(w.seq_len, 8),
        n_pool=64 if w.train else 12,
        n_holdout=8,
        n_baseline=min(w.n_baseline, 2),
    )


@dataclass
class Inputs:
    """Everything one set-up builds."""

    spec: object  # GeneratorSpec
    config: object  # ModelConfig
    store: object  # ParameterStore
    mask: np.ndarray
    pool: list  # serving stream or training requests
    holdout: list
    plans: list[list[int]] = field(default_factory=list)  # train: request indices per step
    optimizer: object = None
    generate_s: float = 0.0


def generator_spec(mx, w: Workload, seed: int):
    t = w.seq_len
    return mx.datagen.GeneratorSpec(
        n_users=N_USERS,
        n_items=N_ITEMS,
        n_requests=w.n_pool + w.n_holdout,
        candidates_per_request=w.n_candidates,
        seq_len_min=t,
        seq_len_max=t,
        seed=seed,
    )


def model_config(mx, w: Workload, schema):
    base = mx.cli.PRESETS["desk-small"]()
    n_u, n_g = mx.decouple.allocate_heads(schema.d_ns_user, schema.d_ns_item, base.n_heads)
    return replace(
        base,
        max_seq_len=w.seq_len,
        decoupling=mx.blocks.DecoupleConfig(enabled=True, n_user_heads=n_u, n_item_heads=n_g),
    )


def with_repeats(pool: list, prob: float, seed: int) -> list:
    """A stream where each request, with probability ``prob``, re-sends an
    earlier request's user and action sequence with its own fresh
    candidates, as when a user refreshes a feed."""
    rng = np.random.default_rng([seed, 1])
    out: list = []
    for r in pool:
        if out and rng.random() < prob:
            src = out[int(rng.integers(len(out)))]
            r = replace(
                r, user_id=src.user_id, user_nonseq=src.user_nonseq,
                actions=src.actions, labels=None,
            )
        out.append(r)
    return out


def repeat_share(requests: list) -> float:
    """Share of requests whose (user, action sequence) equals an earlier one's."""
    seen: set = set()
    repeats = 0
    for r in requests:
        key = (r.user_id, r.actions.shape, r.actions.tobytes())
        repeats += key in seen
        seen.add(key)
    return repeats / len(requests) if requests else 0.0


def set_up(mx, w: Workload, seed: int) -> Inputs:
    """Generate the corpus, initialize parameters, and warm up the timed paths."""
    spec = generator_spec(mx, w, seed)
    t0 = time.perf_counter()
    data = mx.datagen.generate(spec)
    generate_s = time.perf_counter() - t0
    requests = data.dataset.requests
    pool, holdout = requests[: w.n_pool], requests[w.n_pool :]
    if w.repeat_prob:
        pool = with_repeats(pool, w.repeat_prob, seed)
    schema = data.dataset.schema
    cfg = model_config(mx, w, schema)
    store = mx.blocks.init_parameters(schema, cfg, seed)
    mask = mx.decouple.build_mask(cfg.n_heads, cfg.decoupling.n_user_heads, cfg.head_dim)
    inp = Inputs(spec, cfg, store, mask, pool, holdout, generate_s=generate_s)
    if w.train:
        inp.plans = [
            b
            for epoch in range(w.n_epochs)
            for b in mx.trainer.plan_batches(pool, TRAIN_BATCH_IMPRESSIONS, seed, epoch)
        ]
        inp.optimizer = mx.trainer.Optimizer(
            store.dense, store.tables, mx.trainer.OptimizerConfig(lr_dense=TRAIN_LR_DENSE)
        )
        # forward and backward without a step, so the parameters stay at init
        batch = mx.features.stack_requests([pool[i] for i in inp.plans[0]])
        mx.trainer.batch_loss(batch, store, mask).backward()
        inp.optimizer.zero_grad()
    else:
        for r in pool[:2]:
            mx.decouple.rlb_forward(r, store)
        mx.blocks.batched_forward(mx.features.stack_requests(pool[:1]), store, mask)
    return inp


def n_ops_available(w: Workload, inp: Inputs) -> int:
    return len(inp.plans) if w.train else len(inp.pool)


def run_op(mx, w: Workload, inp: Inputs, i: int):
    """One timed operation.

    Serving: one ``rlb_forward`` call on request i; returns its scores.
    Train: one optimizer step (stack, forward, backward, ``Optimizer.step``)
    on batch i of the epoch plans; returns the loss.
    """
    if not w.train:
        return mx.decouple.rlb_forward(inp.pool[i], inp.store)
    batch = mx.features.stack_requests([inp.pool[j] for j in inp.plans[i]])
    inp.optimizer.zero_grad()
    loss = mx.trainer.batch_loss(batch, inp.store, inp.mask)
    value = float(loss.data)
    loss.backward()
    inp.optimizer.step()
    return value


def units(w: Workload, inp: Inputs, i: int) -> int:
    """Candidates scored (serving) or impressions trained (train) by op i."""
    if w.train:
        return len(inp.plans[i]) * w.n_candidates
    return inp.pool[i].n_candidates


def meter_flops(mx, w: Workload, inp: Inputs, i: int) -> int:
    """The analytic meter's FLOPs for op i.

    Serving: ``count_flops(..., rlb=True)``.  Train: the forward pass of
    ``batched_forward_tensor``, which computes sequence work once per
    request and everything else once per candidate.
    """
    fm = mx.flopsmeter
    schema = inp.store.schema
    if not w.train:
        req = inp.pool[i]
        return fm.count_flops(inp.config, schema, req.seq_len, req.n_candidates, rlb=True).total
    per = fm.count_flops(inp.config, schema, w.seq_len, 1).components
    per_request = sum(
        c.total * (1 if name in fm.SEQ_COMPONENTS else w.n_candidates)
        for name, c in per.items()
    )
    return len(inp.plans[i]) * per_request


def checked_ops(n_done: int, n_checked: int) -> list[int]:
    """Evenly spaced op indices, first and last included."""
    if n_done <= 0:
        return []
    return sorted({int(round(x)) for x in np.linspace(0, n_done - 1, min(n_done, n_checked))})


@dataclass
class GateResult:
    failed: set[int] = field(default_factory=set)
    reasons: list[str] = field(default_factory=list)
    meter_minus_trace: int = 0
    user_flop_share: float = 0.0

    def fail(self, op: int, reason: str) -> None:
        self.failed.add(op)
        self.reasons.append(f"op {op}: {reason}")


def check_serving(mx, w: Workload, inp: Inputs, outputs: dict, checked: list[int]) -> GateResult:
    """Correctness gate for serving ops; runs outside the timed region.

    Every output must be finite and shaped (K, n_tasks).  On the checked
    ops, the scores must equal ``forward_decoupled`` per candidate at the
    acceptance tolerance, and a ``FlopTrace`` of ``rlb_forward`` must equal
    the meter.
    """
    gate = GateResult()
    n_tasks = inp.config.n_tasks
    for i, out in outputs.items():
        shape = (inp.pool[i].n_candidates, n_tasks)
        if np.shape(out) != shape:
            gate.fail(i, f"output shape {np.shape(out)} != {shape}")
        elif not np.all(np.isfinite(out)):
            gate.fail(i, "non-finite score")
    shares = []
    for i in checked:
        req = inp.pool[i]
        cands = np.unique(
            np.linspace(0, req.n_candidates - 1, MAX_CHECKED_CANDIDATES).astype(int)
        )
        ref = np.stack([mx.decouple.forward_decoupled(req, int(c), inp.store) for c in cands])
        out = np.asarray(outputs[i])
        if out.shape == (req.n_candidates, n_tasks) and not np.allclose(
            out[cands], ref, rtol=RTOL, atol=ATOL
        ):
            gate.fail(i, "rlb_forward differs from forward_decoupled")
        with mx.FlopTrace() as user:
            mx.decouple.compute_shared_user_state(req, inp.store)
        with mx.FlopTrace() as full:
            mx.decouple.rlb_forward(req, inp.store)
        diff = meter_flops(mx, w, inp, i) - full.total
        if diff:
            gate.fail(i, f"meter minus trace = {diff}")
        if abs(diff) >= abs(gate.meter_minus_trace):
            gate.meter_minus_trace = diff
        shares.append(user.total / full.total)
    gate.user_flop_share = float(np.mean(shares)) if shares else 0.0
    return gate


def check_train(mx, w: Workload, inp: Inputs, losses: dict, checked: list[int]) -> GateResult:
    """Correctness gate for train ops: every loss is finite, and the traced
    forward FLOPs of the checked steps equal the meter."""
    gate = GateResult()
    for i, loss in losses.items():
        if not np.isfinite(loss):
            gate.fail(i, f"non-finite loss {loss}")
    for i in checked:
        batch = mx.features.stack_requests([inp.pool[j] for j in inp.plans[i]])
        with mx.no_grad(), mx.FlopTrace() as trace:
            mx.trainer.batch_loss(batch, inp.store, inp.mask)
        diff = meter_flops(mx, w, inp, i) - trace.total
        if diff:
            gate.fail(i, f"meter minus trace = {diff}")
        if abs(diff) >= abs(gate.meter_minus_trace):
            gate.meter_minus_trace = diff
    return gate


def baseline_pass(mx, w: Workload, inp: Inputs, outputs: dict, gate: GateResult):
    """Score the first served requests again with ``rlb_forward`` and with
    masked ``batched_forward`` (B=1), alternating, outside the timed region.

    Returns (rlb seconds, batched seconds) per request.  A batched score
    that differs from the op's served score fails that op.
    """
    rlb_s, batched_s = [], []
    for i in range(min(w.n_baseline, len(outputs))):
        req = inp.pool[i]
        t0 = time.perf_counter()
        mx.decouple.rlb_forward(req, inp.store)
        t1 = time.perf_counter()
        ref = mx.blocks.batched_forward(mx.features.stack_requests([req]), inp.store, inp.mask)
        t2 = time.perf_counter()
        rlb_s.append(t1 - t0)
        batched_s.append(t2 - t1)
        if not np.allclose(outputs[i], ref[0], rtol=RTOL, atol=ATOL):
            gate.fail(i, "rlb_forward differs from masked batched_forward")
    return rlb_s, batched_s
