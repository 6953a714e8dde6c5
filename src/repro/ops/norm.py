"""Normalization operators: batch normalization and local response norm."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import Array, Operator, OperatorError


class BatchNorm(Operator):
    """Batch normalization over the channel (last) axis.

    During training the operator normalizes with batch statistics and updates
    exponential moving averages; at inference it uses the stored moving
    statistics, matching the frozen graphs the paper instruments.

    Inputs: ``x``, ``gamma``, ``beta`` (both of shape ``(channels,)``).
    """

    category = "normalization"

    @property
    def batch_transparent(self) -> bool:
        """Batch-transparent at inference only.

        Inference-mode BN normalizes every row with the stored *moving*
        statistics — rows are independent and the operator can be replayed
        batched.  Training-mode BN computes statistics across the batch
        axis, coupling every row to every other; stacking independent
        trials through it would silently change their semantics, so the
        batched executor must refuse it.
        """
        return not self.training

    @property
    def pointwise(self) -> bool:
        """Pointwise at inference only: the stored statistics make it a
        per-channel subtract, multiply and add at each position.  Batch
        statistics read every position."""
        return not self.training

    def __init__(self, momentum: float = 0.9, epsilon: float = 1e-5) -> None:
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)
        self.training = False
        #: Moving statistics, set by the first training pass; until then
        #: inference reads zeros and ones without storing them, so an
        #: inference pass never changes the operator's pickle.
        self.moving_mean: Optional[Array] = None
        self.moving_var: Optional[Array] = None
        self._cache: Optional[Tuple[Array, Array, Array]] = None

    def __getstate__(self):
        """Pickle the operator without the last call's ``x_hat`` cache.

        The cache is training scratch for :meth:`backward`: it holds a
        whole activation, and a content fingerprint over it would change
        with every forward pass, replays included (see
        :meth:`repro.graph.graph.Graph.__getstate__`).
        """
        state = dict(self.__dict__)
        state["_cache"] = None
        return state

    def forward(self, x: Array, gamma: Array, beta: Array) -> Array:
        channels = x.shape[-1]
        if gamma.shape != (channels,) or beta.shape != (channels,):
            raise OperatorError(
                f"BatchNorm parameter shapes {gamma.shape}/{beta.shape} do not "
                f"match channel count {channels}")
        axes = tuple(range(x.ndim - 1))
        moving_mean, moving_var = self.moving_mean, self.moving_var
        if moving_mean is None:
            moving_mean = np.zeros(channels, dtype=np.float64)
            moving_var = np.ones(channels, dtype=np.float64)

        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.moving_mean = (self.momentum * moving_mean
                                + (1.0 - self.momentum) * mean)
            self.moving_var = (self.momentum * moving_var
                               + (1.0 - self.momentum) * var)
        else:
            mean = moving_mean
            var = moving_var

        inv_std = 1.0 / np.sqrt(var + self.epsilon)
        # Same operations in the same order as (x - mean) * inv_std and
        # gamma * x_hat + beta, updating the fresh temporaries in place.
        x_hat = x - mean
        x_hat *= inv_std
        self._cache = (x_hat, inv_std, mean)
        out = gamma * x_hat
        out += beta
        return out

    def backward(self, grad, inputs, output):
        x, gamma, beta = inputs
        axes = tuple(range(x.ndim - 1))
        x_hat, inv_std, _ = self._cache
        grad_gamma = (grad * x_hat).sum(axis=axes)
        grad_beta = grad.sum(axis=axes)
        if self.training:
            n = float(np.prod([x.shape[a] for a in axes]))
            grad_xhat = grad * gamma
            grad_x = (inv_std / n) * (
                n * grad_xhat
                - grad_xhat.sum(axis=axes)
                - x_hat * (grad_xhat * x_hat).sum(axis=axes))
        else:
            grad_x = grad * gamma * inv_std
        return [grad_x, grad_gamma, grad_beta]

    def flops(self, input_shapes, output_shape) -> int:
        return 4 * int(np.prod(output_shape))

    def config(self) -> Dict[str, float]:
        return {"momentum": self.momentum, "epsilon": self.epsilon}


class LocalResponseNorm(Operator):
    """Local response normalization across channels (AlexNet-style).

    Batch-transparent: the normalization window slides over the channel
    axis only, so rows stay independent and batched replay is safe.
    """

    category = "normalization"

    def __init__(self, depth_radius: int = 2, bias: float = 1.0,
                 alpha: float = 1e-4, beta: float = 0.75) -> None:
        self.depth_radius = int(depth_radius)
        self.bias = float(bias)
        self.alpha = float(alpha)
        self.beta = float(beta)

    def _scale(self, x: Array) -> Array:
        squared = x ** 2
        channels = x.shape[-1]
        acc = np.zeros_like(x)
        for offset in range(-self.depth_radius, self.depth_radius + 1):
            lo = max(0, offset)
            hi = min(channels, channels + offset)
            acc[..., lo:hi] += squared[..., lo - offset:hi - offset]
        return self.bias + self.alpha * acc

    def forward(self, x: Array) -> Array:
        return x / (self._scale(x) ** self.beta)

    def backward(self, grad, inputs, output):
        # Exact LRN gradients are rarely needed (LRN appears only in AlexNet's
        # inference path here); a straight-through scaled gradient keeps
        # training stable and is the standard simplification.
        (x,) = inputs
        scale = self._scale(x)
        return [grad / (scale ** self.beta)]

    def flops(self, input_shapes, output_shape) -> int:
        window = 2 * self.depth_radius + 1
        return (window + 3) * int(np.prod(output_shape))

    def config(self) -> Dict[str, float]:
        return {"depth_radius": self.depth_radius, "bias": self.bias,
                "alpha": self.alpha, "beta": self.beta}
