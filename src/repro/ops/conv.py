"""2-D convolution via im2col.

All convolutions in the model zoo use the NHWC layout (batch, height, width,
channels), which matches the TensorFlow models the paper instrumented.  The
implementation lowers convolution to a single matrix multiplication over an
im2col patch matrix; the backward pass reuses the same patch matrix, giving a
compact and numerically verifiable gradient.

Batch-transparency audit: convolution treats every batch row independently
(patches never cross rows), so it is safe for batched trial replay; note
that the im2col matmul is exactly the kind of BLAS call whose blocking —
and therefore last-ULP rounding — depends on the batch shape, which is why
batched replay carries the ULP_TOLERANT equivalence mode.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import Array, Operator, OperatorError


def compute_padding(in_size: int, kernel: int, stride: int,
                    padding: str) -> Tuple[int, int]:
    """Return (pad_before, pad_after) for one spatial dimension.

    ``"same"`` reproduces TensorFlow's SAME padding (output size =
    ceil(in / stride)); ``"valid"`` applies no padding.
    """
    if padding == "valid":
        return 0, 0
    if padding != "same":
        raise ValueError(f"unknown padding mode '{padding}'")
    out_size = -(-in_size // stride)  # ceil division
    total = max((out_size - 1) * stride + kernel - in_size, 0)
    before = total // 2
    return before, total - before


def conv_output_size(in_size: int, kernel: int, stride: int,
                     padding: str) -> int:
    """Spatial output size of a convolution / pooling window."""
    before, after = compute_padding(in_size, kernel, stride, padding)
    return (in_size + before + after - kernel) // stride + 1


def im2col(x: Array, kh: int, kw: int, stride: int,
           padding: str) -> Tuple[Array, Tuple[int, int]]:
    """Extract sliding patches from an NHWC tensor.

    Returns a matrix of shape ``(batch * out_h * out_w, kh * kw * channels)``
    together with the output spatial size.
    """
    batch, h, w, c = x.shape
    pt, pb = compute_padding(h, kh, stride, padding)
    pl, pr = compute_padding(w, kw, stride, padding)
    if pt or pb or pl or pr:
        x = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)), mode="constant")
    ph, pw = x.shape[1], x.shape[2]
    out_h = (ph - kh) // stride + 1
    out_w = (pw - kw) // stride + 1

    strides = x.strides
    window = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, out_h, out_w, kh, kw, c),
        strides=(strides[0], strides[1] * stride, strides[2] * stride,
                 strides[1], strides[2], strides[3]),
        writeable=False,
    )
    cols = window.reshape(batch * out_h * out_w, kh * kw * c)
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(cols: Array, x_shape: Tuple[int, int, int, int], kh: int, kw: int,
           stride: int, padding: str) -> Array:
    """Inverse of :func:`im2col` — scatter-add patch gradients back."""
    batch, h, w, c = x_shape
    pt, pb = compute_padding(h, kh, stride, padding)
    pl, pr = compute_padding(w, kw, stride, padding)
    ph, pw = h + pt + pb, w + pl + pr
    out_h = (ph - kh) // stride + 1
    out_w = (pw - kw) // stride + 1

    grad_padded = np.zeros((batch, ph, pw, c), dtype=cols.dtype)
    cols = cols.reshape(batch, out_h, out_w, kh, kw, c)
    for i in range(kh):
        for j in range(kw):
            grad_padded[:, i:i + stride * out_h:stride,
                        j:j + stride * out_w:stride, :] += cols[:, :, :, i, j, :]
    if pt or pb or pl or pr:
        return grad_padded[:, pt:pt + h, pl:pl + w, :]
    return grad_padded


class Conv2D(Operator):
    """2-D convolution with NHWC input and HWIO kernel layout.

    Inputs: ``x`` of shape ``(batch, h, w, in_channels)`` and ``kernel`` of
    shape ``(kh, kw, in_channels, out_channels)``.
    """

    def __init__(self, stride: int = 1, padding: str = "same") -> None:
        if stride < 1:
            raise ValueError(f"stride must be positive, got {stride}")
        if padding not in ("same", "valid"):
            raise ValueError(f"padding must be 'same' or 'valid', got '{padding}'")
        self.stride = int(stride)
        self.padding = padding

    def forward(self, x: Array, kernel: Array) -> Array:
        if x.ndim != 4 or kernel.ndim != 4:
            raise OperatorError(
                f"Conv2D expects 4-D input and kernel, got {x.shape} and "
                f"{kernel.shape}")
        kh, kw, in_c, out_c = kernel.shape
        if x.shape[3] != in_c:
            raise OperatorError(
                f"Conv2D channel mismatch: input has {x.shape[3]} channels, "
                f"kernel expects {in_c}")
        cols, (out_h, out_w) = im2col(x, kh, kw, self.stride, self.padding)
        out = cols @ kernel.reshape(kh * kw * in_c, out_c)
        return out.reshape(x.shape[0], out_h, out_w, out_c)

    def backward(self, grad, inputs, output):
        x, kernel = inputs
        kh, kw, in_c, out_c = kernel.shape
        cols, (out_h, out_w) = im2col(x, kh, kw, self.stride, self.padding)
        grad_mat = grad.reshape(-1, out_c)
        grad_kernel = (cols.T @ grad_mat).reshape(kernel.shape)
        grad_cols = grad_mat @ kernel.reshape(kh * kw * in_c, out_c).T
        grad_x = col2im(grad_cols, x.shape, kh, kw, self.stride, self.padding)
        return [grad_x, grad_kernel]

    def flops(self, input_shapes, output_shape) -> int:
        kernel_shape = input_shapes[1]
        kh, kw, in_c, _ = kernel_shape
        return 2 * kh * kw * in_c * int(np.prod(output_shape))

    def config(self) -> Dict[str, object]:
        return {"stride": self.stride, "padding": self.padding}
