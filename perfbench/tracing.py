"""Spans recorded around calls into the package's public functions.

The tracer never edits package source.  It replaces public functions at
every module attribute that holds them (``decouple`` imports
``cross_attention`` by name, ``trainer`` imports ``batched_forward_tensor``
by name, so patching one module is not enough) and a few methods on their
classes, and puts the originals back on ``uninstall``.

Each span is ``[name, start, end, parent, op, flops]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span or -1,
``op`` the identifier of the benchmark operation that was running, and
``flops`` the total of a ``FlopTrace`` opened inside the span (``None``
when the span does not count FLOPs).  Spans stay in memory until
``write`` is called.  While ``active`` is false the wrappers call straight
through and record nothing, so traced and untraced ops can alternate.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

NAME, START, END, PARENT, OP, FLOPS = range(6)

# (span name, module, attribute, count FLOPs).  Module-level functions are
# patched wherever the same function object is bound in the package.
FUNCTIONS = (
    ("features.stack_requests", "features", "stack_requests", False),
    ("blocks.split_heads", "features", "split_heads", True),
    ("blocks.project_actions", "blocks", "project_actions", True),
    ("blocks.query_mixer", "blocks", "query_mixer", True),
    ("blocks.cross_attention", "blocks", "cross_attention", True),
    ("blocks.output_fusion", "blocks", "output_fusion", True),
    ("blocks.task_logits", "blocks", "task_logits", True),
    ("blocks.batched_forward_tensor", "blocks", "batched_forward_tensor", False),
    ("blocks.batched_forward", "blocks", "batched_forward", False),
    ("decouple.compute_shared_user_state", "decouple", "compute_shared_user_state", False),
    ("decouple.rlb_forward", "decouple", "rlb_forward", False),
    ("trainer.evaluate", "trainer", "evaluate", False),
    ("trainer.predict", "trainer", "predict", False),
    ("trainer.auc", "trainer", "auc", False),
    ("trainer.uauc", "trainer", "uauc", False),
    ("trainer.logloss", "trainer", "logloss", False),
)

# (span name, module, class, method)
METHODS = (
    ("features.lookup", "features", "EmbeddingTable", "lookup"),
    ("autodiff.backward", "autodiff", "Tensor", "backward"),
    ("trainer.optimizer_step", "trainer", "Optimizer", "step"),
)


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[list] = []
        self.op: object = None
        self.active = True
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name: str, with_flops: bool, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            if with_flops:
                with self.package.FlopTrace() as trace:
                    rec[START] = time.perf_counter()
                    out = fn(*args, **kwargs)
                    rec[END] = time.perf_counter()
                rec[FLOPS] = trace.total
            else:
                rec[START] = time.perf_counter()
                out = fn(*args, **kwargs)
                rec[END] = time.perf_counter()
        finally:
            self._stack.pop()
        return out

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the benchmark's own."""
        return self.call(name, False, fn, args, kwargs)

    def _wrap(self, name: str, fn, with_flops: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, with_flops, fn, args, kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg_name = self.package.__name__
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == pkg_name or n.startswith(pkg_name + "."))
        ]
        for name, mod, attr, with_flops in FUNCTIONS:
            orig = getattr(sys.modules[f"{pkg_name}.{mod}"], attr)
            wrapper = self._wrap(name, orig, with_flops)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapper)
        for name, mod, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{pkg_name}.{mod}"], cls_name)
            self._set(cls, meth, self._wrap(name, getattr(cls, meth), False))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "flops"], "spans": self.spans},
                fh,
            )


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Spans come from one thread, so children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def aggregate(spans: list[list], ops) -> dict[str, dict[str, float]]:
    """Totals per span name over spans whose op is in ``ops``.

    Returns name -> {"calls", "s", "self_s", "flops"}; ``flops`` sums
    only spans that counted them.
    """
    ops = set(ops)
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s, self_s in zip(spans, selfs):
        if s[OP] not in ops:
            continue
        agg = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "flops": 0})
        agg["calls"] += 1
        agg["s"] += s[END] - s[START]
        agg["self_s"] += self_s
        if s[FLOPS] is not None:
            agg["flops"] += s[FLOPS]
    return out
