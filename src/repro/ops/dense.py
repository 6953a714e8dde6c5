"""Dense (fully-connected) and bias operators.

Batch-transparency audit: all operators here are row-independent at
inference (``MatMul`` rows, elementwise ``Add``/``Multiply``/``Scale``, the
Ranger range checks) and thus safe for batched trial replay.  All but
``MatMul`` are also pointwise (:attr:`Operator.pointwise`): plain IEEE
arithmetic, min/max and clip, one position at a time.  The
elementwise binaries additionally broadcast a batch-1 operand against a
B-row one, which is how the batched executor mixes cached golden values
with stacked dirty frontiers without materializing B copies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import Array, Operator, OperatorError


class MatMul(Operator):
    """Matrix multiplication ``x @ w`` for 2-D inputs.

    ``x`` has shape ``(batch, in_features)`` and ``w`` has shape
    ``(in_features, out_features)``.
    """

    def forward(self, x: Array, w: Array) -> Array:
        if x.ndim != 2 or w.ndim != 2:
            raise OperatorError(
                f"MatMul expects 2-D operands, got {x.shape} and {w.shape}")
        if x.shape[1] != w.shape[0]:
            raise OperatorError(
                f"MatMul inner dimensions differ: {x.shape} vs {w.shape}")
        return x @ w

    def backward(self, grad, inputs, output):
        x, w = inputs
        return [grad @ w.T, x.T @ grad]

    def flops(self, input_shapes, output_shape) -> int:
        (batch, in_features), (_, out_features) = input_shapes
        return 2 * batch * in_features * out_features


class BiasAdd(Operator):
    """Adds a bias vector to the last axis of the input."""

    pointwise = True

    def forward(self, x: Array, b: Array) -> Array:
        if b.ndim != 1 or x.shape[-1] != b.shape[0]:
            raise OperatorError(
                f"BiasAdd shape mismatch: input {x.shape}, bias {b.shape}")
        return x + b

    def backward(self, grad, inputs, output):
        reduce_axes = tuple(range(grad.ndim - 1))
        return [grad, grad.sum(axis=reduce_axes)]

    def flops(self, input_shapes, output_shape) -> int:
        return int(np.prod(output_shape))


class Add(Operator):
    """Element-wise addition (used by ResNet shortcut connections)."""

    pointwise = True

    def forward(self, a: Array, b: Array) -> Array:
        return a + b

    def backward(self, grad, inputs, output):
        a, b = inputs
        return [_unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape)]


class Multiply(Operator):
    """Element-wise multiplication."""

    pointwise = True

    def forward(self, a: Array, b: Array) -> Array:
        return a * b

    def backward(self, grad, inputs, output):
        a, b = inputs
        return [_unbroadcast(grad * b, a.shape), _unbroadcast(grad * a, b.shape)]


class Scale(Operator):
    """Multiplication by a compile-time scalar constant."""

    pointwise = True

    def __init__(self, factor: float) -> None:
        self.factor = float(factor)

    def forward(self, x: Array) -> Array:
        return x * self.factor

    def backward(self, grad, inputs, output):
        return [grad * self.factor]

    def config(self) -> Dict[str, float]:
        return {"factor": self.factor}


class Minimum(Operator):
    """Element-wise minimum — one half of Ranger's range check."""

    category = "protection"
    injectable = False
    pointwise = True
    grid_closed = True

    def forward(self, x: Array, bound: Array) -> Array:
        return np.minimum(x, bound)

    def backward(self, grad, inputs, output):
        x, bound = inputs
        mask = (x <= bound)
        return [grad * mask, _unbroadcast(grad * ~mask, np.shape(bound))]


class Maximum(Operator):
    """Element-wise maximum — the other half of Ranger's range check."""

    category = "protection"
    injectable = False
    pointwise = True
    grid_closed = True

    def forward(self, x: Array, bound: Array) -> Array:
        return np.maximum(x, bound)

    def backward(self, grad, inputs, output):
        x, bound = inputs
        mask = (x >= bound)
        return [grad * mask, _unbroadcast(grad * ~mask, np.shape(bound))]


class ClipByValue(Operator):
    """Fused ``clip(x, low, high)`` used by Ranger's clip policy."""

    category = "protection"
    injectable = False
    pointwise = True

    def __init__(self, low: float, high: float) -> None:
        if low > high:
            raise ValueError(f"clip lower bound {low} exceeds upper bound {high}")
        self.low = float(low)
        self.high = float(high)

    def forward(self, x: Array) -> Array:
        return np.clip(x, self.low, self.high)

    def backward(self, grad, inputs, output):
        (x,) = inputs
        mask = (x >= self.low) & (x <= self.high)
        return [grad * mask]

    def flops(self, input_shapes, output_shape) -> int:
        # One comparison against each bound per element.
        return 2 * int(np.prod(output_shape))

    def config(self) -> Dict[str, float]:
        return {"low": self.low, "high": self.high}


def _unbroadcast(grad: Array, shape: Tuple[int, ...]) -> Array:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    if np.shape(grad) == tuple(shape):
        return grad
    grad = np.asarray(grad)
    # Sum over leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were 1 in the original shape.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)
