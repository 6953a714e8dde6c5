"""Shape-manipulation operators: reshape, flatten, concatenate, pad, dropout.

Reshape and Concatenate are specifically called out in the paper's
Algorithm 1 as operators to which the preceding activation's restriction
bound can be extended (they carry values through unchanged, so any value that
was in range before them must remain in range after them).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import Array, Operator, OperatorError


class Reshape(Operator):
    """Reshape to a fixed target shape (excluding the batch dimension).

    Batch-transparent by construction: the hardcoded ``target_shape``
    deliberately excludes the batch axis (``forward`` re-prepends
    ``x.shape[0]``), so the same node handles batch-1 golden runs and
    B-row batched replays without baking a batch size into the graph.
    """

    category = "reshape"
    grid_closed = True

    def __init__(self, target_shape: Tuple[int, ...]) -> None:
        self.target_shape = tuple(int(d) for d in target_shape)

    def forward(self, x: Array) -> Array:
        return x.reshape((x.shape[0],) + self.target_shape)

    def backward(self, grad, inputs, output):
        (x,) = inputs
        return [grad.reshape(x.shape)]

    def flops(self, input_shapes, output_shape) -> int:
        return 0

    def config(self) -> Dict[str, object]:
        return {"target_shape": self.target_shape}


class Flatten(Operator):
    """Flatten all non-batch dimensions into one."""

    category = "reshape"
    grid_closed = True

    def forward(self, x: Array) -> Array:
        return x.reshape(x.shape[0], -1)

    def backward(self, grad, inputs, output):
        (x,) = inputs
        return [grad.reshape(x.shape)]

    def flops(self, input_shapes, output_shape) -> int:
        return 0


class Concatenate(Operator):
    """Concatenate inputs along a given axis.

    SqueezeNet's fire modules concatenate the 1x1 and 3x3 expand branches
    along the channel axis; Algorithm 1 bounds this operator with
    ``(min(low_{j-1}, low_j), max(up_{j-1}, up_j))`` of the two feeding
    activations.
    """

    category = "concat"
    grid_closed = True

    @property
    def batch_transparent(self) -> bool:
        """Transparent for any feature axis; axis 0 concatenates the batch
        dimension itself, which merges rows across trials and cannot be
        replayed batched."""
        return self.axis != 0

    @property
    def pointwise(self) -> bool:
        """A concat along the last (channel) axis stacks each position's
        channels, so it is pointwise; any other axis moves positions."""
        return self.axis == -1

    def __init__(self, axis: int = -1) -> None:
        self.axis = int(axis)

    def forward(self, *inputs: Array) -> Array:
        if not inputs:
            raise OperatorError("Concatenate requires at least one input")
        return np.concatenate(inputs, axis=self.axis)

    def backward(self, grad, inputs, output):
        sizes = [inp.shape[self.axis] for inp in inputs]
        splits = np.cumsum(sizes)[:-1]
        return list(np.split(grad, splits, axis=self.axis))

    def flops(self, input_shapes, output_shape) -> int:
        return 0

    def config(self) -> Dict[str, object]:
        return {"axis": self.axis}


class Pad2D(Operator):
    """Zero-pad the spatial dimensions of an NHWC tensor."""

    category = "reshape"
    grid_closed = True

    def __init__(self, pad_h: Tuple[int, int], pad_w: Tuple[int, int]) -> None:
        self.pad_h = (int(pad_h[0]), int(pad_h[1]))
        self.pad_w = (int(pad_w[0]), int(pad_w[1]))

    def forward(self, x: Array) -> Array:
        if x.ndim != 4:
            raise OperatorError(f"Pad2D expects NHWC input, got {x.shape}")
        return np.pad(x, ((0, 0), self.pad_h, self.pad_w, (0, 0)),
                      mode="constant")

    def backward(self, grad, inputs, output):
        (x,) = inputs
        h, w = x.shape[1], x.shape[2]
        return [grad[:, self.pad_h[0]:self.pad_h[0] + h,
                     self.pad_w[0]:self.pad_w[0] + w, :]]

    def flops(self, input_shapes, output_shape) -> int:
        return 0

    def config(self) -> Dict[str, object]:
        return {"pad_h": self.pad_h, "pad_w": self.pad_w}


class Dropout(Operator):
    """Inverted dropout.

    Behaves as identity at inference (the mode the fault model targets) and
    applies a random mask during training.  The executor flips
    :attr:`training` through the trainer.
    """

    @property
    def batch_transparent(self) -> bool:
        """Batch-transparent at inference (identity) only.

        A training-mode dropout mask is drawn from one shared RNG stream
        over the whole array, so the mask a row receives depends on the
        batch shape and on the rows evaluated before it — stacked trials
        would not reproduce their batch-1 draws.
        """
        return not self.training or self.rate == 0.0

    @property
    def pointwise(self) -> bool:
        """Pointwise when it is the identity; a training mask is drawn
        for the whole array's shape."""
        return not self.training or self.rate == 0.0

    @property
    def grid_closed(self) -> bool:
        """Grid-closed when it is the identity; a training mask rescales."""
        return not self.training or self.rate == 0.0

    def __init__(self, rate: float = 0.5, seed: Optional[int] = None) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.training = False
        self._rng = np.random.default_rng(seed)
        self._mask: Optional[Array] = None

    def forward(self, x: Array) -> Array:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad, inputs, output):
        if self._mask is None:
            return [grad]
        return [grad * self._mask]

    def __getstate__(self):
        """Pickle the layer without its last training mask (scratch for
        :meth:`backward`, like ``BatchNorm``'s ``x_hat`` cache)."""
        state = dict(self.__dict__)
        state["_mask"] = None
        return state

    def flops(self, input_shapes, output_shape) -> int:
        return 0

    def config(self) -> Dict[str, float]:
        return {"rate": self.rate}
