"""Activation-function operators.

Activations are the anchor points for Ranger: the restriction bounds are
profiled at activation outputs and Algorithm 1 inserts range checks directly
after every activation operator (and after the pooling / reshape / concat
operators that consume them).  Each activation therefore carries two pieces of
metadata used by ``repro.core``:

* ``inherent_bounds`` — ``(low, high)`` if the function is bounded by
  construction (Tanh, Sigmoid), else ``None``.  Bounded activations do not
  need profiling (paper, Section III-C, Step 1).
* ``category`` — always ``"activation"`` so the transformation pass can find
  them without relying on names.

Batch-transparency audit: every activation is elementwise and ``Softmax``
normalizes over the last (class) axis only, so all operators here are
batch-transparent and safe for batched trial replay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import Array, Operator


class Activation(Operator):
    """Common base class for activation operators."""

    category = "activation"

    #: (low, high) if mathematically bounded, else None.
    inherent_bounds: Optional[Tuple[float, float]] = None


class ReLU(Activation):
    """Rectified linear unit: ``max(x, 0)``.  Unbounded above."""

    inherent_bounds = None
    pointwise = True

    def forward(self, x: Array) -> Array:
        return np.maximum(x, 0.0)

    def backward(self, grad, inputs, output):
        (x,) = inputs
        return [grad * (x > 0.0)]


class LeakyReLU(Activation):
    """Leaky ReLU with configurable negative slope."""

    pointwise = True

    def __init__(self, alpha: float = 0.01) -> None:
        self.alpha = float(alpha)

    def forward(self, x: Array) -> Array:
        return np.where(x > 0.0, x, self.alpha * x)

    def backward(self, grad, inputs, output):
        (x,) = inputs
        return [grad * np.where(x > 0.0, 1.0, self.alpha)]

    def config(self) -> Dict[str, float]:
        return {"alpha": self.alpha}


class ELU(Activation):
    """Exponential linear unit, used by the Comma.ai steering model.

    Bounded below by ``-alpha`` but unbounded above, so it still requires a
    profiled upper restriction bound.
    """

    def __init__(self, alpha: float = 1.0) -> None:
        self.alpha = float(alpha)

    def forward(self, x: Array) -> Array:
        return np.where(x > 0.0, x, self.alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))

    def backward(self, grad, inputs, output):
        (x,) = inputs
        dx = np.where(x > 0.0, 1.0, self.alpha * np.exp(np.minimum(x, 0.0)))
        return [grad * dx]

    def config(self) -> Dict[str, float]:
        return {"alpha": self.alpha}


class Tanh(Activation):
    """Hyperbolic tangent.  Inherently bounded to (-1, 1)."""

    inherent_bounds = (-1.0, 1.0)

    def forward(self, x: Array) -> Array:
        return np.tanh(x)

    def backward(self, grad, inputs, output):
        return [grad * (1.0 - output ** 2)]


class Sigmoid(Activation):
    """Logistic sigmoid.  Inherently bounded to (0, 1)."""

    inherent_bounds = (0.0, 1.0)

    def forward(self, x: Array) -> Array:
        return 1.0 / (1.0 + np.exp(-x))

    def backward(self, grad, inputs, output):
        return [grad * output * (1.0 - output)]


class Atan(Activation):
    """Arctangent, used as the output head of the Nvidia Dave model.

    The paper highlights that the horizontal asymptote of atan (output in
    ``(-pi/2, pi/2)``) makes the radians-output Dave model much more sensitive
    to faults at the atan input; we reproduce exactly that head here.
    """

    inherent_bounds = (-np.pi / 2.0, np.pi / 2.0)

    def forward(self, x: Array) -> Array:
        return np.arctan(x)

    def backward(self, grad, inputs, output):
        (x,) = inputs
        return [grad / (1.0 + x ** 2)]


class ScaledAtan(Activation):
    """``scale * atan(x)`` — the Dave model multiplies the atan output by 2."""

    def __init__(self, scale: float = 2.0) -> None:
        self.scale = float(scale)
        self.inherent_bounds = (-self.scale * np.pi / 2.0,
                                self.scale * np.pi / 2.0)

    def forward(self, x: Array) -> Array:
        return self.scale * np.arctan(x)

    def backward(self, grad, inputs, output):
        (x,) = inputs
        return [grad * self.scale / (1.0 + x ** 2)]

    def config(self) -> Dict[str, float]:
        return {"scale": self.scale}


class Softmax(Operator):
    """Row-wise softmax over the last axis.

    Classified as an output operator rather than an activation: Ranger does
    not place restriction bounds after the final softmax (the paper excludes
    the last FC layer / output from protection).
    """

    category = "output"

    def forward(self, x: Array) -> Array:
        shifted = x - np.max(x, axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / np.sum(exp, axis=-1, keepdims=True)

    def backward(self, grad, inputs, output):
        # Jacobian-vector product of softmax: s * (g - sum(g * s))
        dot = np.sum(grad * output, axis=-1, keepdims=True)
        return [output * (grad - dot)]

    def flops(self, input_shapes, output_shape) -> int:
        return 3 * int(np.prod(output_shape))


ACTIVATION_REGISTRY: Dict[str, type] = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "elu": ELU,
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "atan": Atan,
}


def make_activation(name: str, **kwargs) -> Activation:
    """Instantiate an activation operator by name.

    Parameters
    ----------
    name:
        One of ``relu``, ``leaky_relu``, ``elu``, ``tanh``, ``sigmoid``,
        ``atan``.
    """
    key = name.lower()
    if key not in ACTIVATION_REGISTRY:
        raise ValueError(f"unknown activation '{name}'; "
                         f"expected one of {sorted(ACTIVATION_REGISTRY)}")
    return ACTIVATION_REGISTRY[key](**kwargs)
