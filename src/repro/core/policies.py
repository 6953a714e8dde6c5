"""Out-of-bound handling policies.

Ranger's default behaviour truncates out-of-range values to the restriction
bound.  Section VI-C of the paper evaluates two alternatives — resetting
out-of-range values to zero (as Minerva does on fault detection) and
replacing them with a random in-range value — and finds truncation is the
best choice.  All three are implemented here as protection operators the
transformation can insert.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..ops.base import Array, Operator
from ..ops.dense import ClipByValue


class RangeRestrictionOp(Operator):
    """Base class for the operators Ranger splices into the graph."""

    category = "protection"
    injectable = False

    def __init__(self, low: float, high: float) -> None:
        if low > high:
            raise ValueError(f"low bound {low} exceeds high bound {high}")
        self.low = float(low)
        self.high = float(high)

    def out_of_range(self, x: Array) -> Array:
        return (x < self.low) | (x > self.high)

    def flops(self, input_shapes, output_shape) -> int:
        # Two comparisons per element (range check) — matches the paper's
        # observation that Ranger adds only simple compare/select operations.
        return 2 * int(np.prod(output_shape))

    def config(self) -> Dict[str, float]:
        return {"low": self.low, "high": self.high}


class ClipToBound(RangeRestrictionOp):
    """Ranger's default policy: truncate out-of-range values to the bound."""

    def forward(self, x: Array) -> Array:
        return np.clip(x, self.low, self.high)

    def backward(self, grad, inputs, output):
        (x,) = inputs
        mask = (x >= self.low) & (x <= self.high)
        return [grad * mask]


class ResetToZero(RangeRestrictionOp):
    """Replace out-of-range values with zero (the Minerva-style alternative).

    The paper finds this policy *degrades accuracy* because zeroing a large
    legitimate activation is a much bigger perturbation than truncating it,
    and zeros propagate multiplicatively through later layers.
    """

    def forward(self, x: Array) -> Array:
        return np.where(self.out_of_range(x), 0.0, x)

    def backward(self, grad, inputs, output):
        (x,) = inputs
        return [grad * ~self.out_of_range(x)]


class ReplaceWithRandom(RangeRestrictionOp):
    """Replace out-of-range values with a random value inside the bound.

    The paper finds this maintains accuracy but is non-deterministic, which
    is why clipping remains the recommended policy for safety-critical use.
    """

    def __init__(self, low: float, high: float, seed: int = 0) -> None:
        super().__init__(low, high)
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Array) -> Array:
        mask = self.out_of_range(x)
        if not np.any(mask):
            return x
        replacement = self._rng.uniform(max(self.low, 0.0), self.high,
                                        size=x.shape)
        return np.where(mask, replacement, x)

    def backward(self, grad, inputs, output):
        (x,) = inputs
        return [grad * ~self.out_of_range(x)]


#: Policy registry keyed by the names accepted by ``apply_ranger``.
POLICY_REGISTRY = {
    "clip": ClipToBound,
    "zero": ResetToZero,
    "random": ReplaceWithRandom,
}


def make_restriction_op(policy: str, low: float, high: float,
                        seed: int = 0) -> RangeRestrictionOp:
    """Instantiate the protection operator for one protected node."""
    if policy not in POLICY_REGISTRY:
        raise ValueError(f"unknown policy '{policy}'; "
                         f"expected one of {sorted(POLICY_REGISTRY)}")
    if policy == "random":
        return ReplaceWithRandom(low, high, seed=seed)
    return POLICY_REGISTRY[policy](low, high)
