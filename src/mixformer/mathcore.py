"""Core numeric building blocks: norms, the gated FFN, softmax, init,
and a finite-difference gradient checker.

The array-in / array-out functions here are thin wrappers over the
autodiff ops, so there is exactly one implementation of each formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError, ShapeError


@dataclass
class NormParams:
    """Learnable gain plus epsilon for rms_norm / layer_norm.

    eps may be zero for exact-arithmetic checks; negative is rejected.
    """

    scale: np.ndarray
    eps: float = 1e-6

    def __post_init__(self) -> None:
        self.scale = np.asarray(self.scale, dtype=np.float64)
        if self.scale.ndim != 1:
            raise ShapeError("norm scale must be a vector")
        if self.eps < 0:
            raise ConfigError("norm eps must be >= 0")


@dataclass
class FfnParams:
    """Bias-free gated FFN weights: gate/up are (hidden, in), down is (out, hidden)."""

    gate: np.ndarray
    up: np.ndarray
    down: np.ndarray

    def __post_init__(self) -> None:
        self.gate = np.asarray(self.gate, dtype=np.float64)
        self.up = np.asarray(self.up, dtype=np.float64)
        self.down = np.asarray(self.down, dtype=np.float64)
        if self.gate.ndim != 2 or self.up.ndim != 2 or self.down.ndim != 2:
            raise ShapeError("FFN weights must be matrices")
        if self.gate.shape != self.up.shape:
            raise ShapeError(
                f"gate {self.gate.shape} and up {self.up.shape} must match"
            )
        if self.down.shape[1] != self.gate.shape[0]:
            raise ShapeError(
                f"down {self.down.shape} incompatible with hidden width {self.gate.shape[0]}"
            )


def _check_vector(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ShapeError(f"{name} must be a non-empty vector, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NumericError(f"{name} contains non-finite values")
    return x


def rms_norm(x: np.ndarray, params: NormParams) -> np.ndarray:
    """y_i = scale_i * x_i / sqrt(mean(x^2) + eps) over the last axis."""
    x = _check_vector(x, "rms_norm input")
    if params.scale.shape[0] != x.shape[0]:
        raise ShapeError("rms_norm scale length does not match input")
    with ad.no_grad():
        return ad.rms_norm(x, params.scale, params.eps).data


def layer_norm(x: np.ndarray, params: NormParams) -> np.ndarray:
    """Gain-only layer normalization with population variance."""
    x = _check_vector(x, "layer_norm input")
    if params.scale.shape[0] != x.shape[0]:
        raise ShapeError("layer_norm scale length does not match input")
    with ad.no_grad():
        return ad.layer_norm(x, params.scale, params.eps).data


def swiglu_ffn(x: np.ndarray, params: FfnParams) -> np.ndarray:
    """y = down @ (swish(gate @ x) * (up @ x)) with swish(z) = z * sigmoid(z)."""
    x = _check_vector(x, "ffn input")
    if params.gate.shape[1] != x.shape[0]:
        raise ShapeError(
            f"ffn expects input width {params.gate.shape[1]}, got {x.shape[0]}"
        )
    with ad.no_grad():
        col = ad.reshape(ad.Tensor(x), (x.shape[0], 1))
        h = ad.mul(ad.swish(ad.matmul(params.gate, col)), ad.matmul(params.up, col))
        y = ad.matmul(params.down, h)
        return y.data.reshape(-1)


def softmax(v: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax of a vector."""
    v = _check_vector(v, "softmax input")
    with ad.no_grad():
        return ad.softmax(v).data


def glorot_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int
) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    if fan_in <= 0 or fan_out <= 0:
        raise ShapeError("fans must be positive")
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


@dataclass
class DifferentiableOp:
    """A forward map plus its vector-Jacobian product and a FLOP count.

    forward(*inputs) -> ndarray; backward(cotangent, *inputs) -> one
    gradient per input.  Composition of ops composes flops additively.
    """

    forward: Callable[..., np.ndarray]
    backward: Callable[..., tuple[np.ndarray, ...]]
    flops: int = 0
    name: str = ""


def make_differentiable(
    tensor_fn: Callable[..., ad.Tensor],
    example_inputs: Sequence[np.ndarray],
    name: str = "",
) -> DifferentiableOp:
    """Wrap a Tensor-level function as a DifferentiableOp.

    The FLOP count is measured by tracing one forward pass on the
    example inputs, so it reflects exactly what forward() executes.
    """

    def forward(*inputs: np.ndarray) -> np.ndarray:
        with ad.no_grad():
            return tensor_fn(*[ad.Tensor(x) for x in inputs]).data

    def backward(cotangent: np.ndarray, *inputs: np.ndarray) -> tuple[np.ndarray, ...]:
        leaves = [ad.Tensor(x, requires_grad=True) for x in inputs]
        out = tensor_fn(*leaves)
        out.backward(np.asarray(cotangent, dtype=np.float64))
        grads = []
        for leaf in leaves:
            g = leaf.grad
            grads.append(np.zeros_like(leaf.data) if g is None else g)
        return tuple(grads)

    with ad.no_grad(), ad.FlopTrace() as trace:
        tensor_fn(*[ad.Tensor(x) for x in example_inputs])
    return DifferentiableOp(forward=forward, backward=backward, flops=trace.total, name=name)


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
    op: DifferentiableOp,
    inputs: Sequence[np.ndarray],
    tolerance: float = 1e-4,
    seed: int = 0,
    step: float = 1e-5,
    max_coords: int | None = None,
) -> GradCheckReport:
    """Compare op.backward against central finite differences.

    A fixed random cotangent u is contracted with the output, so the
    scalar s(x) = <u, f(x)> has gradient J^T u, which backward() must
    reproduce coordinate by coordinate.  Relative error uses
    |a - n| / max(|a|, |n|, 1e-4).
    """
    rng = np.random.default_rng(seed)
    inputs = [np.asarray(x, dtype=np.float64) for x in inputs]
    out = op.forward(*inputs)
    u = rng.standard_normal(out.shape)
    analytic = op.backward(u, *inputs)
    if len(analytic) != len(inputs):
        raise ShapeError("backward() must return one gradient per input")

    max_err = 0.0
    n_checked = 0
    worst = (-1, -1)
    for i, x in enumerate(inputs):
        flat = x.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        ga = analytic[i].reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            plus = float((u * op.forward(*inputs)).sum())
            flat[c] = orig - step
            minus = float((u * op.forward(*inputs)).sum())
            flat[c] = orig
            numeric = (plus - minus) / (2.0 * step)
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
