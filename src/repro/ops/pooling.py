"""Pooling operators (NHWC layout).

Pooling operators carry the category ``"pooling"`` so that Ranger's
Algorithm 1 can extend the restriction bound of a preceding activation onto
them (paper, Section III-C, step 2).

Batch-transparency audit: pooling windows are strictly spatial (the strided
views never cross the batch axis) and ``GlobalAvgPool`` reduces only the
spatial axes, so every operator here is batch-transparent and safe for
batched trial replay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import Array, Operator, OperatorError
from .conv import compute_padding


def _pool_windows(x: Array, pool: int, stride: int,
                  padding: str, pad_value: float) -> Tuple[Array, Tuple[int, int]]:
    """Return a strided view of pooling windows and the output spatial size."""
    batch, h, w, c = x.shape
    pt, pb = compute_padding(h, pool, stride, padding)
    pl, pr = compute_padding(w, pool, stride, padding)
    if pt or pb or pl or pr:
        # ``np.pad(mode="constant")``'s bytes without its per-call set-up.
        padded = np.full((batch, h + pt + pb, w + pl + pr, c), pad_value,
                         dtype=x.dtype)
        padded[:, pt:pt + h, pl:pl + w] = x
        x = padded
    ph, pw = x.shape[1], x.shape[2]
    out_h = (ph - pool) // stride + 1
    out_w = (pw - pool) // stride + 1
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, out_h, out_w, pool, pool, c),
        strides=(strides[0], strides[1] * stride, strides[2] * stride,
                 strides[1], strides[2], strides[3]),
        writeable=False,
    )
    return windows, (out_h, out_w)


class MaxPool2D(Operator):
    """Max pooling over square windows."""

    category = "pooling"

    def __init__(self, pool: int = 2, stride: Optional[int] = None,
                 padding: str = "valid") -> None:
        if pool < 1:
            raise ValueError(f"pool size must be positive, got {pool}")
        self.pool = int(pool)
        self.stride = int(stride) if stride is not None else int(pool)
        self.padding = padding

    def forward(self, x: Array) -> Array:
        if x.ndim != 4:
            raise OperatorError(f"MaxPool2D expects NHWC input, got {x.shape}")
        windows, _ = _pool_windows(x, self.pool, self.stride, self.padding,
                                   pad_value=-np.inf)
        return windows.max(axis=(3, 4))

    def backward(self, grad, inputs, output):
        (x,) = inputs
        batch, h, w, c = x.shape
        pt, _ = compute_padding(h, self.pool, self.stride, self.padding)
        pl, _ = compute_padding(w, self.pool, self.stride, self.padding)
        out_h, out_w = output.shape[1], output.shape[2]
        grad_x = np.zeros_like(x, dtype=np.float64)
        windows, _ = _pool_windows(x, self.pool, self.stride, self.padding,
                                   pad_value=-np.inf)
        # For every output position, route the gradient to the argmax element.
        flat = windows.reshape(batch, out_h, out_w, self.pool * self.pool, c)
        argmax = flat.argmax(axis=3)  # (batch, out_h, out_w, c)
        for oi in range(out_h):
            for oj in range(out_w):
                idx = argmax[:, oi, oj, :]  # (batch, c)
                ki, kj = np.divmod(idx, self.pool)
                src_i = oi * self.stride + ki - pt
                src_j = oj * self.stride + kj - pl
                valid = ((src_i >= 0) & (src_i < h) & (src_j >= 0) & (src_j < w))
                b_idx, c_idx = np.nonzero(valid)
                np.add.at(grad_x,
                          (b_idx, src_i[b_idx, c_idx], src_j[b_idx, c_idx], c_idx),
                          grad[b_idx, oi, oj, c_idx])
        return [grad_x]

    def flops(self, input_shapes, output_shape) -> int:
        return self.pool * self.pool * int(np.prod(output_shape))

    def config(self) -> Dict[str, object]:
        return {"pool": self.pool, "stride": self.stride, "padding": self.padding}


class AvgPool2D(Operator):
    """Average pooling over square windows."""

    category = "pooling"

    def __init__(self, pool: int = 2, stride: Optional[int] = None,
                 padding: str = "valid") -> None:
        if pool < 1:
            raise ValueError(f"pool size must be positive, got {pool}")
        self.pool = int(pool)
        self.stride = int(stride) if stride is not None else int(pool)
        self.padding = padding

    def forward(self, x: Array) -> Array:
        if x.ndim != 4:
            raise OperatorError(f"AvgPool2D expects NHWC input, got {x.shape}")
        windows, _ = _pool_windows(x, self.pool, self.stride, self.padding,
                                   pad_value=0.0)
        return windows.mean(axis=(3, 4))

    def backward(self, grad, inputs, output):
        (x,) = inputs
        batch, h, w, c = x.shape
        pt, _ = compute_padding(h, self.pool, self.stride, self.padding)
        pl, _ = compute_padding(w, self.pool, self.stride, self.padding)
        out_h, out_w = output.shape[1], output.shape[2]
        share = 1.0 / (self.pool * self.pool)
        grad_x = np.zeros_like(x, dtype=np.float64)
        for oi in range(out_h):
            for oj in range(out_w):
                i0 = oi * self.stride - pt
                j0 = oj * self.stride - pl
                for ki in range(self.pool):
                    for kj in range(self.pool):
                        si, sj = i0 + ki, j0 + kj
                        if 0 <= si < h and 0 <= sj < w:
                            grad_x[:, si, sj, :] += grad[:, oi, oj, :] * share
        return [grad_x]

    def flops(self, input_shapes, output_shape) -> int:
        return self.pool * self.pool * int(np.prod(output_shape))

    def config(self) -> Dict[str, object]:
        return {"pool": self.pool, "stride": self.stride, "padding": self.padding}


class GlobalAvgPool(Operator):
    """Global average pooling — reduces NHWC to (batch, channels).

    Used by ResNet-18 and SqueezeNet before their classification heads.
    """

    category = "pooling"

    def forward(self, x: Array) -> Array:
        if x.ndim != 4:
            raise OperatorError(f"GlobalAvgPool expects NHWC input, got {x.shape}")
        return x.mean(axis=(1, 2))

    def backward(self, grad, inputs, output):
        (x,) = inputs
        batch, h, w, c = x.shape
        expanded = grad[:, None, None, :] / float(h * w)
        return [np.broadcast_to(expanded, x.shape).copy()]

    def flops(self, input_shapes, output_shape) -> int:
        return int(np.prod(input_shapes[0]))
