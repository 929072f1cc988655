"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray plus an optional backward closure; ops
build a DAG and Tensor.backward() walks it in reverse topological order.
Only what the model needs is implemented: broadcast-aware arithmetic,
matmul, shape ops, embedding gather, fused softmax / rms_norm /
layer_norm / swish / gated FFN / binary cross-entropy, and sigmoid on
arrays, the package's one logistic function.  grad_check compares any Tensor
function's backward pass against central finite differences.

Every op also reports a FLOP count to any active FlopTrace.  The
convention is fixed across the package so the analytic cost meter can be
checked against traced executions:

  * matmul: 2 * output_size * contraction_length (one multiply-add = 2)
  * softmax, rms_norm, layer_norm: 5 per input element
  * everything else (adds, residuals, masking, activations, reshapes,
    gathers): 0

All data is float64.  Gradients are accumulated in Tensor.grad as plain
ndarrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from .errors import GraphReleasedError, ShapeError

_GRAD_ENABLED: bool = True
_TRACES: list["FlopTrace"] = []
_GRAD_CHECK_STEP = 1e-5


class no_grad:
    """Context manager that disables graph construction.

    Forward values are unchanged; ops executed inside produce leaf
    tensors with no history.  FLOP tracing still works.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> bool:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class FlopTrace:
    """Records (kind, flops) events for ops executed while active.

    Traces nest; every active trace sees every event.  The total is the
    ground-truth cost of whatever ran inside the with-block and is what
    the closed-form meter must reproduce exactly.
    """

    def __init__(self) -> None:
        self.events: list[tuple[str, int]] = []

    def __enter__(self) -> "FlopTrace":
        _TRACES.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TRACES.remove(self)
        return False

    @property
    def total(self) -> int:
        return sum(f for _, f in self.events)

    def by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for kind, flops in self.events:
            out[kind] = out.get(kind, 0) + flops
        return out


def _record(kind: str, flops: int) -> None:
    if _TRACES:
        for trace in _TRACES:
            trace.events.append((kind, flops))


class Tensor:
    """A float64 ndarray with an optional place in a backward graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def backward(self, grad=None) -> None:
        """Accumulate gradients of a scalar (or given cotangent) into leaves.

        This consumes the graph: each node drops its parents and its VJP
        once the VJP has run, so saved activations are freed as the walk
        goes.  A second backward through a consumed node raises
        GraphReleasedError.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without a cotangent needs a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ShapeError(
                f"cotangent shape {grad.shape} does not match output {self.data.shape}"
            )

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        while order:
            node = order.pop()
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            parent_grads = node._vjp(g)
            parents = node._parents
            node._parents, node._vjp = (), _released
            for parent, pg in zip(parents, parent_grads):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return swapaxes(self, a, b)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _released(g: np.ndarray) -> Sequence[np.ndarray | None]:
    raise GraphReleasedError(
        "backward() through a graph that an earlier backward() already released"
    )


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    kind: str = "",
    flops: int = 0,
) -> Tensor:
    if flops:
        _record(kind, flops)
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back down to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (want, have) in enumerate(zip(shape, g.shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _sum_to_shape(g, a.data.shape), _sum_to_shape(g, b.data.shape)

    return _make(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (
            _sum_to_shape(g * b.data, a.data.shape),
            _sum_to_shape(g * a.data, b.data.shape),
        )

    return _make(out, (a, b), vjp)


def _folded_matmul(left: np.ndarray, right: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """left @ right summed down to shape, without the broadcast product.

    left is (..., m, c) and right (..., c, k); their leading axes
    broadcast to lead.  shape is an operand's (..., m, k), and its fold
    axes are the axes of lead where it is 1 (left-padded) and lead is
    not.  Those axes join the contraction, fold-major, so one np.matmul
    returns the reduced gradient.  With no fold axes this is the plain
    product.
    """
    lead = np.broadcast_shapes(left.shape[:-2], right.shape[:-2])
    n = len(lead)
    padded = (1,) * (n + 2 - len(shape)) + tuple(shape[:-2])
    fold = [i for i in range(n) if padded[i] == 1 and lead[i] != 1]
    if not fold:
        return np.matmul(left, right).reshape(shape)
    kept = [i for i in range(n) if i not in fold]
    left = left.reshape((1,) * (n + 2 - left.ndim) + left.shape)
    right = right.reshape((1,) * (n + 2 - right.ndim) + right.shape)
    depth = math.prod(lead[i] for i in fold) * left.shape[-1]
    left = left.transpose(kept + [n] + fold + [n + 1]).reshape(
        [left.shape[i] for i in kept] + [left.shape[-2], depth]
    )
    right = right.transpose(kept + fold + [n, n + 1]).reshape(
        [right.shape[i] for i in kept] + [depth, right.shape[-1]]
    )
    return np.matmul(left, right).reshape(shape)


ROW_TILE = 16


def _tiled_matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """np.matmul with every row computed in a GEMM call of one fixed shape.

    A BLAS picks its kernel, edge handling and thread split from a call's
    shape, so the same row can round differently in GEMMs of different row
    counts.  Here the rows go in tiles of ROW_TILE (the last one
    zero-padded), the columns are zero-padded to a multiple of 8, and each
    tile is its own GEMM call of the same shape; both paddings are sliced
    off.
    """
    m, c = left.shape[-2:]
    o = right.shape[-1]
    if o % 8:
        right = np.concatenate([right, np.zeros(right.shape[:-1] + (-o % 8,))], axis=-1)
    if m % ROW_TILE:
        left = np.concatenate([left, np.zeros(left.shape[:-2] + (-m % ROW_TILE, c))], axis=-2)
    tiles = left.reshape(left.shape[:-2] + (left.shape[-2] // ROW_TILE, ROW_TILE, c))
    out = np.matmul(tiles, right[..., None, :, :])
    return out.reshape(out.shape[:-3] + (left.shape[-2], right.shape[-1]))[..., :m, :o]


def matmul(a, b) -> Tensor:
    """Broadcasting matrix product; both operands must be at least 2-d."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands must have ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul contraction mismatch: {a.data.shape} @ {b.data.shape}"
        )
    out = np.matmul(a.data, b.data)
    k = a.data.shape[-1]
    flops = 2 * out.size * k

    def vjp(g):
        return (
            _folded_matmul(g, np.swapaxes(b.data, -1, -2), a.data.shape),
            _folded_matmul(np.swapaxes(a.data, -1, -2), g, b.data.shape),
        )

    return _make(out, (a, b), vjp, kind="matmul", flops=flops)


def _head_lead(x: Tensor, w: Tensor, op: str) -> int:
    """The number of lead axes of a per-head product of x by wᵀ."""
    nl = w.ndim - 3
    if nl < 0 or x.ndim < nl + 2 or x.shape[-1] != w.shape[-1]:
        raise ShapeError(f"{op} cannot multiply {x.shape} by {w.shape} transposed")
    return nl


def _head_rows(x: np.ndarray, nl: int) -> np.ndarray:
    """(*lead, *rows, n, c) as the per-head GEMM operand (*lead, n, R, c)."""
    r = math.prod(x.shape[nl:-2])
    return np.swapaxes(x.reshape(x.shape[:nl] + (r,) + x.shape[-2:]), -3, -2)


def _from_head_rows(y: np.ndarray, rows: tuple[int, ...]) -> np.ndarray:
    """The inverse of _head_rows: (*lead, n, R, o) as (*lead, *rows, n, o)."""
    return np.swapaxes(y, -3, -2).reshape(y.shape[:-3] + rows + (y.shape[-3], y.shape[-1]))


def _transposed(w: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of wᵀ, the right operand of every per-head GEMM."""
    return np.ascontiguousarray(np.swapaxes(w, -1, -2))


def _head_grads(g: np.ndarray, xr: np.ndarray, wt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of _tiled_matmul(xr, wt) for its cotangent g: xr's and wt's
    transpose, each one GEMM at the operand's own shape."""
    gx = _folded_matmul(g, np.swapaxes(wt, -1, -2), xr.shape)
    gw = _folded_matmul(np.swapaxes(xr, -1, -2), g, wt.shape)
    return gx, np.swapaxes(gw, -1, -2)


def head_matmul(x, w) -> Tensor:
    """Per-head x @ wᵀ with x's rows as the GEMM rows: (*lead, *rows, n, o).

    x is (*lead, *rows, n, c) and w is (*lead, n, o, c), where lead has
    w.ndim - 3 axes; either head count n may be 1 and broadcasts.  Each
    head is one product of all rows against a C-contiguous copy of wᵀ, run
    through _tiled_matmul, so a row rounds the same at any number of rows:
    one candidate scores exactly as it does among many, and an action's
    sequence-FFN row is the same in any stack of requests.
    """
    x, w = as_tensor(x), as_tensor(w)
    nl = _head_lead(x, w, "head_matmul")
    rows = x.shape[nl:-2]
    xr = _head_rows(x.data, nl)
    wt = _transposed(w.data)
    out = _tiled_matmul(xr, wt)

    def vjp(g):
        gx, gw = _head_grads(_head_rows(g, nl), xr, wt)
        return _from_head_rows(gx, rows), gw

    flops = 2 * out.size * x.shape[-1]
    return _make(_from_head_rows(out, rows), (x, w), vjp, kind="matmul", flops=flops)


def gated_ffn(x, gate, up, down) -> Tensor:
    """The gated FFN head_matmul(swish(x·gateᵀ) * (x·upᵀ), down) as one op.

    x is (*lead, *rows, n, c); gate and up are (*lead, n, hidden, c) and
    down (*lead, n, o, hidden), and any of their head counts n may be 1.
    The three products run as head_matmul runs them and record its three
    matmul FLOP events.  The tape keeps x's rows, the gate product a, the
    up product u and s = sigmoid(a); backward recomputes a*s and (a*s)*u
    in the same order of operations, so every value and gradient is
    bit-identical to the five-op composition.  Without a tape the gated
    product is written into s.
    """
    x, gate, up, down = as_tensor(x), as_tensor(gate), as_tensor(up), as_tensor(down)
    nl = _head_lead(x, gate, "gated_ffn")
    if up.shape != gate.shape or down.ndim != gate.ndim or down.shape[-1] != gate.shape[-2]:
        raise ShapeError(
            f"gated_ffn weights do not fit: gate {gate.shape}, up {up.shape}, down {down.shape}"
        )
    rows = x.shape[nl:-2]
    xr = _head_rows(x.data, nl)
    wg, wu, wd = _transposed(gate.data), _transposed(up.data), _transposed(down.data)
    a = _tiled_matmul(xr, wg)
    _record("matmul", 2 * a.size * x.shape[-1])
    u = _tiled_matmul(xr, wu)
    _record("matmul", 2 * u.size * x.shape[-1])
    s = sigmoid(a)
    taped = _GRAD_ENABLED and any(t.requires_grad for t in (x, gate, up, down))
    h = np.multiply(a, s, out=None if taped else s)
    h *= u
    if not taped:
        a = u = None  # nothing is kept, so free both before the down product
    out = _tiled_matmul(h, wd)

    def vjp(g):
        sw = np.multiply(a, s, out=a)
        h = sw * u
        gh, gd = _head_grads(_head_rows(g, nl), h, wd)
        # swish'(a) = s + (a*s)*(1 - s), built in h's buffer
        np.subtract(1.0, s, out=h)
        h *= sw
        h += s
        sw *= gh  # up's cotangent
        gh *= u
        gh *= h  # gate's cotangent
        gx, gg = _head_grads(gh, xr, wg)
        gxu, gu = _head_grads(sw, xr, wu)
        return _from_head_rows(gx, rows), _from_head_rows(gxu, rows), gg, gu, gd

    # x is a parent twice, so its two gradients join any other of x's
    # gradients one at a time, in the order the composition added them
    parents = (x, x, gate, up, down)
    flops = 2 * out.size * gate.shape[-2]
    return _make(_from_head_rows(out, rows), parents, vjp, kind="matmul", flops=flops)


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    old = x.data.shape
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(old),)

    return _make(out, (x,), vjp)


def swapaxes(x, a: int, b: int) -> Tensor:
    x = as_tensor(x)
    out = np.swapaxes(x.data, a, b)

    def vjp(g):
        return (np.swapaxes(g, a, b),)

    return _make(out, (x,), vjp)


def broadcast_to(x, shape: tuple[int, ...]) -> Tensor:
    x = as_tensor(x)
    out = np.broadcast_to(x.data, shape).copy()
    old = x.data.shape

    def vjp(g):
        return (_sum_to_shape(g, old),)

    return _make(out, (x,), vjp)


def concat(tensors: Sequence, axis: int = -1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(ts), vjp)


def getitem(x, idx) -> Tensor:
    """Basic (slice / int / ellipsis) indexing only, so grads never overlap."""
    x = as_tensor(x)
    out = x.data[idx]
    shape = x.data.shape

    def vjp(g):
        buf = np.zeros(shape, dtype=np.float64)
        buf[idx] = g
        return (buf,)

    return _make(np.array(out, dtype=np.float64), (x,), vjp)


def sum_(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)
    shape = x.data.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, shape).copy(),)

    return _make(np.asarray(out, dtype=np.float64), (x,), vjp)


def mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    shape = x.data.shape
    if axis is None:
        count = x.data.size
    else:
        count = shape[axis]

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / count, shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2 / count, shape).copy(),)

    return _make(np.asarray(out, dtype=np.float64), (x,), vjp)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)) of an array, elementwise."""
    return expit(x)


def swish(x) -> Tensor:
    """x * sigmoid(x), the gate activation of the gated FFN."""
    x = as_tensor(x)
    s = sigmoid(x.data)
    out = x.data * s

    def vjp(g):
        return (g * (s + x.data * s * (1.0 - s)),)

    return _make(out, (x,), vjp)


def softmax(x) -> Tensor:
    """Numerically stable softmax over the last axis.  5 flops/element."""
    x = as_tensor(x)
    if x.data.shape[-1] == 0:
        raise ShapeError("softmax over an empty axis is undefined")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (x,), vjp, kind="softmax", flops=5 * x.data.size)


def rms_norm(x, scale, eps: float) -> Tensor:
    """Root-mean-square normalization over the last axis with a learned gain.

    y_i = scale_i * x_i / sqrt(mean(x^2) + eps).  5 flops/element.
    """
    x, scale = as_tensor(x), as_tensor(scale)
    n = x.data.shape[-1]
    ms = np.mean(x.data * x.data, axis=-1, keepdims=True)
    r = np.sqrt(ms + eps)
    inv = 1.0 / r
    out = x.data * inv
    out *= scale.data

    def vjp(g):
        gs = g * scale.data
        proj = (gs * x.data).sum(axis=-1, keepdims=True)
        gx = gs * inv - x.data * (proj * inv**3 / n)
        gscale = _sum_to_shape(g * (x.data * inv), scale.data.shape)
        return gx, gscale

    return _make(out, (x, scale), vjp, kind="norm", flops=5 * x.data.size)


def layer_norm(x, scale, eps: float) -> Tensor:
    """Mean-and-variance normalization (population variance, gain only)."""
    x, scale = as_tensor(x), as_tensor(scale)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    s = np.sqrt(var + eps)
    xhat = xc / s
    out = xhat * scale.data

    def vjp(g):
        h = g * scale.data
        hmean = h.mean(axis=-1, keepdims=True)
        hx = (h * xhat).mean(axis=-1, keepdims=True)
        gx = (h - hmean - xhat * hx) / s
        gscale = _sum_to_shape(g * xhat, scale.data.shape)
        return gx, gscale

    return _make(out, (x, scale), vjp, kind="norm", flops=5 * x.data.size)


def embedding(table, ids: np.ndarray) -> Tensor:
    """Gather rows of a (vocab, dim) table by an integer id array."""
    table = as_tensor(table)
    ids = np.asarray(ids)
    if table.ndim != 2:
        raise ShapeError("embedding table must be 2-d")
    out = table.data[ids]
    vocab, dim = table.data.shape

    def vjp(g):
        buf = np.zeros((vocab, dim), dtype=np.float64)
        np.add.at(buf, ids.reshape(-1), g.reshape(-1, dim))
        return (buf,)

    return _make(out, (table,), vjp)


def bce_with_logits(logits, targets: np.ndarray) -> Tensor:
    """Elementwise binary cross-entropy on raw logits.

    Uses the overflow-safe form max(z,0) - z*y + log1p(exp(-|z|)).
    """
    logits = as_tensor(logits)
    y = np.asarray(targets, dtype=np.float64)
    z = logits.data
    out = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))

    def vjp(g):
        return (g * (sigmoid(z) - y),)

    return _make(out, (logits,), vjp)


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_coordinates: int
    tolerance: float
    worst_input: int = -1
    worst_coord: int = -1

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    tolerance: float = 1e-4,
    seed: int = 0,
    max_coords: int | None = None,
) -> GradCheckReport:
    """Compare fn's backward pass against central finite differences.

    fn maps one Tensor per input array to a Tensor.  A fixed random
    cotangent u is contracted with the output, so the scalar
    s(x) = <u, fn(x)> has gradient J^T u, which backward must reproduce
    coordinate by coordinate.  Relative error uses
    |a - n| / max(|a|, |n|, 1e-4); the differences step by 1e-5.
    """
    rng = np.random.default_rng(seed)
    inputs = [np.asarray(x, dtype=np.float64) for x in inputs]
    leaves = [Tensor(x, requires_grad=True) for x in inputs]
    out = fn(*leaves)
    u = rng.standard_normal(out.shape)
    out.backward(u)

    def objective() -> float:
        with no_grad():
            return float((u * fn(*[Tensor(x) for x in inputs]).data).sum())

    max_err = 0.0
    n_checked = 0
    worst = (-1, -1)
    for i, (x, leaf) in enumerate(zip(inputs, leaves)):
        flat = x.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        ga = np.zeros(flat.size) if leaf.grad is None else leaf.grad.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + _GRAD_CHECK_STEP
            plus = objective()
            flat[c] = orig - _GRAD_CHECK_STEP
            minus = objective()
            flat[c] = orig
            numeric = (plus - minus) / (2.0 * _GRAD_CHECK_STEP)
            a = float(ga[c])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
            n_checked += 1
            if err > max_err:
                max_err = err
                worst = (i, int(c))
    return GradCheckReport(
        max_rel_error=max_err,
        n_coordinates=n_checked,
        tolerance=tolerance,
        worst_input=worst[0],
        worst_coord=worst[1],
    )
