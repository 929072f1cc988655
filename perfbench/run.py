#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, so nothing needs installing.  The process is pinned to
one BLAS thread before NumPy loads.

A run sets up three times (the median is ``setup_s``), then runs the
workload's operation in a closed loop for ``--seconds`` with tracing off,
timing holdout evaluation at evenly spaced points between ops, then
checks the outputs and scores the honest baseline.  With ``--trace 1`` it
then runs the loop again for ``--seconds``, wrapping every layer's public
functions in spans on every other op, and reports per-layer metrics
instead of end-to-end ones; the spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it are a JSON report (provenance, sample counts, baseline, gate results)
and a readable table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("MIXFORMER_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
EVAL_REPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "eval_impr_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_BLOCKS = ("split_heads", "project_actions", "query_mixer", "cross_attention",
           "output_fusion", "task_logits")
PER_LAYER_UNITS = {
    "datagen.generate.s": "s",
    "features.lookup.calls_per_op": "count",
    "features.lookup.ms_per_op": "ms",
    "features.stack_requests.ms_per_op": "ms",
    **{f"blocks.{b}.{m}": u for b in _BLOCKS for m, u in (("ms_per_op", "ms"), ("gflops", "GFLOP/s"))},
    "blocks.batched_forward_tensor.ms_per_op": "ms",
    "blocks.batched_forward_tensor.self_ms_per_op": "ms",
    "blocks.batched_forward.ms_per_op": "ms",
    "decouple.rlb_forward.ms_per_op": "ms",
    "decouple.rlb_forward.self_ms_per_op": "ms",
    "decouple.compute_shared_user_state.ms_per_op": "ms",
    "decouple.compute_shared_user_state.self_ms_per_op": "ms",
    "decouple.item_side.us_per_cand": "us",
    "decouple.user_flop_share": "1",
    "decouple.repeat_share": "1",
    "decouple.rlb_speedup_vs_batched": "1",
    "autodiff.backward.ms_per_op": "ms",
    "autodiff.backward_over_forward": "1",
    "autodiff.flops.matmul_per_op": "count",
    "autodiff.flops.norm_per_op": "count",
    "autodiff.flops.softmax_per_op": "count",
    "trainer.optimizer_step.ms_per_op": "ms",
    "trainer.predict.ms": "ms",
    "trainer.metrics.ms": "ms",
    "trainer.holdout_auc": "1",
    "flopsmeter.meter_flops_per_op": "count",
    "flopsmeter.achieved_gflops": "GFLOP/s",
    "flopsmeter.meter_minus_trace": "count",
    "trace.untraced_p50_ms": "ms",
    "trace.traced_p50_ms": "ms",
    "trace.overhead_ratio": "1",
}


def import_package(root: Path):
    """Import ``mixformer`` from ``root/src``; None if that tree is absent."""
    src = root / "src"
    if not (src / "mixformer" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import mixformer
    import mixformer.cli  # noqa: F401  (the desk-small preset lives there)

    if src.resolve() not in Path(mixformer.__file__).resolve().parents:
        return None
    return mixformer


def tail_latency(values: list[float]) -> tuple[float, float]:
    """The highest percentile, at most 99, with at least ten samples above it.

    Returns (value, percentile).  With ten samples or fewer it is the maximum.
    """
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    idx = min(math.ceil(0.99 * n) - 1, n - 11)
    return s[idx], 100.0 * (idx + 1) / n


def timed_phase(mx, wl, w, inp, start: int, seconds: float, tracer=None, side=None,
                n_side: int = 0) -> dict:
    """Closed loop of ops from index ``start`` until ``seconds`` pass or the
    inputs run out.  Latency is timed around each op only.

    With a tracer, every other op is traced and the rest run with the
    tracer inactive, so the two latency samples see the same machine and
    their ratio is the tracing overhead.

    ``side``, if given, is called ``n_side`` times between ops at evenly
    spaced points of the phase, so that its samples also see the same
    machine as the ops; its time is left out of the phase's wall time.
    """
    n_avail = wl.n_ops_available(w, inp)
    lat: list[float] = []
    plain_lat: list[float] = []
    results: dict = {}
    traced_ops: list[int] = []
    kinds: dict[str, int] = {}
    done_units = 0
    side_s = 0.0
    t_start = time.perf_counter()
    side_at = [t_start + (k + 0.5) * seconds / n_side for k in range(n_side)]
    deadline = t_start + seconds
    i = start
    while i < n_avail:
        if tracer is None or (i - start) % 2:
            if tracer is not None:
                tracer.active = False
            t0 = time.perf_counter()
            results[i] = wl.run_op(mx, w, inp, i)
            t1 = time.perf_counter()
            (lat if tracer is None else plain_lat).append(t1 - t0)
        else:
            tracer.active, tracer.op = True, i
            with mx.FlopTrace() as ft:
                t0 = time.perf_counter()
                results[i] = tracer.span("op", wl.run_op, mx, w, inp, i)
                t1 = time.perf_counter()
            for k, v in ft.by_kind().items():
                kinds[k] = kinds.get(k, 0) + v
            tracer.op = None
            lat.append(t1 - t0)
            traced_ops.append(i)
        done_units += wl.units(w, inp, i)
        i += 1
        if side_at and t1 >= side_at[0]:
            side_at.pop(0)
            side()
            side_s += time.perf_counter() - t1
        if t1 >= deadline:
            break
    if tracer is not None:
        tracer.active = True
    for _ in side_at:  # the inputs ran out first
        side()
    wall = time.perf_counter() - t_start - side_s
    return {"start": start, "lat": lat, "plain_lat": plain_lat, "traced_ops": traced_ops,
            "results": results, "units": done_units, "wall": wall, "kinds": kinds}


class Evaluator:
    """Times ``trainer.evaluate`` on the holdout; one call per sample."""

    def __init__(self, mx, inp) -> None:
        self.mx, self.inp = mx, inp
        self.n_impr = sum(r.n_candidates for r in inp.holdout)
        self.rates: list[float] = []
        self.summary = None

    def __call__(self) -> None:
        t0 = time.perf_counter()
        self.summary = self.mx.trainer.evaluate(self.inp.holdout, self.inp.store, self.inp.mask)
        self.rates.append(self.n_impr / (time.perf_counter() - t0))


def gate(mx, wl, w, inp, phase: dict, n_checked: int):
    checked = wl.checked_ops(len(phase["lat"]), n_checked)
    checked = [phase["start"] + c for c in checked]
    if w.train:
        return wl.check_train(mx, w, inp, phase["results"], checked)
    return wl.check_serving(mx, w, inp, phase["results"], checked)


def provenance(mx, w, inp, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "seed": seed,
        "why": w.why,
        "workload": asdict(w),
        "model_config": asdict(inp.config),
        "generator_spec": asdict(inp.spec),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "commit": commit,
    }


def layer_metrics(mx, wl, w, inp, tr, untraced, traced, gate_res, summary, gen_s) -> dict:
    """Per-layer metrics from the traced phase's spans."""
    from tracing import END, NAME, OP, PARENT, START, aggregate

    spans = tr.spans
    n = max(len(traced["lat"]), 1)
    ops = set(traced["traced_ops"])
    agg = aggregate(spans, ops)

    def total(name: str, key: str = "s") -> float:
        return agg.get(name, {}).get(key, 0.0)

    def dur(s) -> float:
        return s[END] - s[START]

    m: dict[str, float] = {
        "datagen.generate.s": statistics.median(gen_s),
        "features.lookup.calls_per_op": total("features.lookup", "calls") / n,
        "features.lookup.ms_per_op": total("features.lookup") / n * 1e3,
        "features.stack_requests.ms_per_op": total("features.stack_requests") / n * 1e3,
    }
    for b in _BLOCKS:
        name = f"blocks.{b}"
        m[f"{name}.ms_per_op"] = total(name) / n * 1e3
        m[f"{name}.gflops"] = total(name, "flops") / total(name) / 1e9 if total(name) else 0.0
    for name in ("blocks.batched_forward_tensor", "decouple.rlb_forward",
                 "decouple.compute_shared_user_state"):
        m[f"{name}.ms_per_op"] = total(name) / n * 1e3
        m[f"{name}.self_ms_per_op"] = total(name, "self_s") / n * 1e3

    # item side of rlb_forward: its duration minus its compute_shared_user_state child
    item_s = total("decouple.rlb_forward")
    for s in spans:
        if (s[NAME] == "decouple.compute_shared_user_state" and s[OP] in ops
                and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "decouple.rlb_forward"):
            item_s -= dur(s)
    m["decouple.item_side.us_per_cand"] = (
        0.0 if w.train else item_s / n / w.n_candidates * 1e6
    )
    m["decouple.user_flop_share"] = gate_res.user_flop_share
    served = [inp.pool[i] for i in untraced["results"]] if not w.train else []
    m["decouple.repeat_share"] = wl.repeat_share(served)

    # honest baseline on the same requests, both sides traced
    base = [s for s in spans if s[NAME] == "blocks.batched_forward"
            and str(s[OP]).startswith("baseline:")]
    same = {int(s[OP].split(":")[1]) for s in base}
    batched_ms = sum(dur(s) for s in base) / max(len(base), 1) * 1e3
    rlb_same = aggregate(spans, same).get("decouple.rlb_forward", {}).get("s", 0.0)
    m["blocks.batched_forward.ms_per_op"] = batched_ms
    m["decouple.rlb_speedup_vs_batched"] = (
        batched_ms / (rlb_same / len(base) * 1e3) if base and rlb_same else 0.0
    )

    fwd = total("blocks.batched_forward_tensor")
    m["autodiff.backward.ms_per_op"] = total("autodiff.backward") / n * 1e3
    m["autodiff.backward_over_forward"] = total("autodiff.backward") / fwd if fwd else 0.0
    for kind in ("matmul", "norm", "softmax"):
        m[f"autodiff.flops.{kind}_per_op"] = traced["kinds"].get(kind, 0) / n
    m["trainer.optimizer_step.ms_per_op"] = total("trainer.optimizer_step") / n * 1e3

    evals = {j for j, s in enumerate(spans) if s[NAME] == "trainer.evaluate" and s[OP] == "eval"}
    metric_names = ("trainer.auc", "trainer.uauc", "trainer.logloss")
    m["trainer.predict.ms"] = sum(
        dur(s) for s in spans if s[NAME] == "trainer.predict" and s[PARENT] in evals
    ) / max(len(evals), 1) * 1e3
    m["trainer.metrics.ms"] = sum(
        dur(s) for s in spans if s[NAME] in metric_names and s[PARENT] in evals
    ) / max(len(evals), 1) * 1e3
    m["trainer.holdout_auc"] = summary.auc[0]

    meter = [wl.meter_flops(mx, w, inp, i) for i in untraced["results"]]
    meter_per_op = sum(meter) / max(len(meter), 1)
    m["flopsmeter.meter_flops_per_op"] = meter_per_op
    m["flopsmeter.achieved_gflops"] = meter_per_op / statistics.median(untraced["lat"]) / 1e9
    m["flopsmeter.meter_minus_trace"] = gate_res.meter_minus_trace

    p50_u = statistics.median(traced["plain_lat"]) * 1e3 if traced["plain_lat"] else 0.0
    p50_t = statistics.median(traced["lat"]) * 1e3 if traced["lat"] else 0.0
    m["trace.untraced_p50_ms"] = p50_u
    m["trace.traced_p50_ms"] = p50_t
    m["trace.overhead_ratio"] = p50_t / p50_u if p50_u else 0.0
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload's inputs (for the benchmark's own tests)")
    args = ap.parse_args(argv)

    for var in THREAD_VARS:  # before NumPy is first imported
        os.environ[var] = "1"
    mx = import_package(ROOT)
    if mx is None:
        print(f"error: no mixformer source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads as wl
    from tracing import Tracer

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    if args.tiny:
        w = wl.tiny(w)

    setup_s, gen_s = [], []
    inp = None
    for _ in range(SETUP_REPS):
        inp = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        inp = wl.set_up(mx, w, args.seed)
        setup_s.append(time.perf_counter() - t0)
        gen_s.append(inp.generate_s)

    phase_s = {"setup": sum(setup_s)}
    t0 = time.perf_counter()
    evaluator = Evaluator(mx, inp)
    untraced = timed_phase(mx, wl, w, inp, 0, args.seconds, side=evaluator, n_side=EVAL_REPS)
    t1 = time.perf_counter()
    g = gate(mx, wl, w, inp, untraced, wl.N_CHECKED)
    attempted = len(untraced["lat"])
    base_rlb, base_batched = ([], []) if w.train else wl.baseline_pass(
        mx, w, inp, untraced["results"], g)
    phase_s.update(timed_with_eval=t1 - t0, gate_and_baseline=time.perf_counter() - t1)
    rates, summary = evaluator.rates, evaluator.summary

    lat = untraced["lat"]
    p99, pct = tail_latency(lat)
    e2e = {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "latency_p50_ms": (statistics.median(lat) * 1e3, len(lat)),
        "throughput_per_s": (untraced["units"] / untraced["wall"], len(lat)),
        "eval_impr_per_s": (statistics.median(rates), len(rates)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }

    layers = None
    if args.trace:
        t0 = time.perf_counter()
        tracer = Tracer(mx)
        tracer.install()
        try:
            start = attempted if w.train else 0
            traced = timed_phase(mx, wl, w, inp, start, args.seconds, tracer)
            if not w.train:
                for i in traced["traced_ops"][: w.n_baseline]:
                    tracer.op = f"baseline:{i}"
                    mx.blocks.batched_forward(
                        mx.features.stack_requests([inp.pool[i]]), inp.store, inp.mask)
            tracer.op = "eval"
            summary = mx.trainer.evaluate(inp.holdout, inp.store, inp.mask)
        finally:
            tracer.op = None
            tracer.uninstall()
        tg = gate(mx, wl, w, inp, traced, 0)
        g.failed |= {("traced", i) for i in tg.failed}
        g.reasons += [f"traced {r}" for r in tg.reasons]
        attempted += len(traced["results"])
        layers = layer_metrics(mx, wl, w, inp, tracer, untraced, traced, g, summary, gen_s)
        tracer.write(ROOT / ".bench_out" / f"spans-{w.name}-seed{args.seed}.json")
        phase_s["traced"] = time.perf_counter() - t0

    failed = len(g.failed)
    report = {
        "provenance": provenance(mx, w, inp, args.seed),
        "end_to_end": {
            k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": n} for k, (v, n) in e2e.items()
        },
        # too unsteady on a shared host to bound, so reported but not in the result line
        "latency_p99_ms": {"value": p99 * 1e3, "unit": "ms", "samples": len(lat),
                           "percentile": pct},
        "phase_s": phase_s,
        "setup": {"runs_s": setup_s, "cold_s": setup_s[0], "generate_s": gen_s},
        "eval_impr_per_s_samples": rates,
        "baseline": {
            "requests": len(base_rlb),
            "rlb_p50_ms": statistics.median(base_rlb) * 1e3 if base_rlb else None,
            "masked_batched_p50_ms": statistics.median(base_batched) * 1e3 if base_batched else None,
        },
        "correctness": {
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted if attempted else 1.0,
            "reasons": g.reasons[:20],
            "meter_minus_trace": g.meter_minus_trace,
        },
        "decouple.repeat_share": wl.repeat_share(
            [] if w.train else [inp.pool[i] for i in untraced["results"]]),
        "decouple.user_flop_share": g.user_flop_share,
        "holdout": {"auc": summary.auc, "uauc": summary.uauc, "logloss": summary.logloss,
                    "impressions": summary.n_impressions},
    }
    print("report " + json.dumps(report, default=str))
    if layers is not None:
        metrics = {k: {"value": float(v), "unit": PER_LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, (v, _) in e2e.items()}
    for k, (v, n) in e2e.items():
        print(f"# {k:<18} {v:14.6g} {END_TO_END_UNITS[k]:<8} n={n}")
    print(f"# {'latency_p99_ms':<18} {p99 * 1e3:14.6g} {'ms':<8} n={len(lat)} (p{pct:.4g})")
    if layers is not None:
        for k, v in layers.items():
            print(f"# {k:<48} {v:14.6g} {PER_LAYER_UNITS[k]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
