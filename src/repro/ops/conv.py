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

Windowed replay: given its batch-1 golden input and output
(:class:`ConvGolden`), :meth:`Conv2D.forward` evaluates each row only at
the output positions whose receptive field touches an input position that
differs from golden (:func:`conv_window`), and serves every other position
from the golden output — exactly, since those positions read only
bit-identical inputs.  The subset GEMM is not bit-identical to the full
one on every BLAS (a row-subset product can round differently in the last
ULPs), so only ULP_TOLERANT batched replay hands the conv its golden
values; bit-exact replay always runs the full conv.  When the replay
carries each input row's box (:mod:`repro.ops.boxes`), the conv reads
the windows off the boxes instead of comparing its input against golden,
and returns the window values box-packed with the windows as their boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import Array, Operator, OperatorError
from .boxes import RowBoxes, diff_boxes, splice


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
    together with the output spatial size.  Callers must not write to it:
    for a 1x1 stride-1 kernel it is a view of ``x``.
    """
    batch, h, w, c = x.shape
    pt, pb = compute_padding(h, kh, stride, padding)
    pl, pr = compute_padding(w, kw, stride, padding)
    if pt or pb or pl or pr:
        # A zeroed buffer and one slice copy: the same bytes as
        # ``np.pad(mode="constant")`` without its per-call set-up, which
        # costs more than the copy on small activations.
        padded = np.zeros((batch, h + pt + pb, w + pl + pr, c), dtype=x.dtype)
        padded[:, pt:pt + h, pl:pl + w] = x
        x = padded
    else:
        x = np.ascontiguousarray(x)
        if kh == kw == stride == 1:
            # Every patch is one input position: the rows of ``x`` itself.
            return x.reshape(batch * h * w, c), (h, w)
    ph, pw = x.shape[1], x.shape[2]
    out_h = (ph - kh) // stride + 1
    out_w = (pw - kw) // stride + 1

    # The patch view, built straight on the (C-contiguous) buffer:
    # ``as_strided``'s wrapper costs more than the view itself.
    strides = x.strides
    window = np.ndarray(
        (batch, out_h, out_w, kh, kw, c), dtype=x.dtype, buffer=x,
        strides=(strides[0], strides[1] * stride, strides[2] * stride,
                 strides[1], strides[2], strides[3]))
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


#: Largest share of a call's output positions (rows x out_h x out_w) the
#: window kernel computes; past it the full im2col conv runs instead.  On
#: top of its share of the patch copy and GEMM, the window path pays one
#: bitwise comparison of the input against golden, an indexed gather and
#: a golden copy plus scatter of the output.  Timed at 32 rows on a 2-CPU
#: host over every 3x3 conv shape of resnet18, vgg11 and squeezenet, the
#: two paths break even between 0.35 of the positions (3-4 input
#: channels) and 0.75 (64-128 channels, where nearly all the time goes);
#: total conv time of trained-model batched campaigns read the same, within
#: noise, at shares 0.5, 0.65 and 0.8.
WINDOW_MAX_SHARE = 0.5


@dataclass
class ConvGolden:
    """The batch-1 golden input and output of one conv node.

    Passed as ``golden=`` to :meth:`Conv2D.forward` by batched
    (ULP_TOLERANT) replay; ``out`` must be the golden *final* value — the
    dtype policy already applied — and the caller applies the policy to
    the window values, which is why policies must be elementwise and
    idempotent.  ``positions_evaluated`` is filled in by the call: the
    output positions (summed over rows) it actually computed.

    ``boxes``, when given, are the input rows' carried boxes (see
    :mod:`repro.ops.boxes`): outside them each input row is bit-identical
    to ``x``, so the call skips comparing the input against golden.  With
    ``carry`` a windowed call returns the window values *box-packed* and
    sets ``out_boxes`` to the windows instead of splicing them into
    ``out``; ``out_boxes`` stays ``None`` when the full conv ran.
    """

    x: Array
    out: Array
    positions_evaluated: int = 0
    boxes: Optional[RowBoxes] = None
    carry: bool = False
    out_boxes: Optional[RowBoxes] = None


def reachable_range(first: np.ndarray, last: np.ndarray, pad_before: int,
                    kernel: int, stride: int, out_size: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Output indices whose window touches input indices ``[first, last]``.

    Output index ``o`` reads padded indices ``o*stride .. o*stride +
    kernel - 1``, i.e. input indices shifted by ``pad_before``; returns
    the inclusive ``(lo, hi)`` range per entry, empty when ``hi < lo``
    (a strided conv can step over a changed input entirely).
    """
    lo = np.maximum(0, -((kernel - 1 - first - pad_before) // stride))
    hi = np.minimum(out_size - 1, (last + pad_before) // stride)
    return lo, hi


def reachable_boxes(boxes: RowBoxes, h: int, w: int, kernel: Tuple[int, int],
                    stride: int, padding: str, out_h: int,
                    out_w: int) -> RowBoxes:
    """The output boxes a windowed operator (conv, pooling) can change
    when its input rows differ from golden only inside ``boxes``; an empty
    input box gives an empty output box."""
    kh, kw = kernel
    pt, _ = compute_padding(h, kh, stride, padding)
    pl, _ = compute_padding(w, kw, stride, padding)
    bounds = np.empty_like(boxes.bounds)
    bounds[0], bounds[1] = reachable_range(boxes.top, boxes.bottom, pt, kh,
                                           stride, out_h)
    bounds[2], bounds[3] = reachable_range(boxes.left, boxes.right, pl, kw,
                                           stride, out_w)
    empty = boxes.sizes == 0
    if empty.any():
        bounds[1, empty] = bounds[0, empty] - 1
    return RowBoxes(bounds)


def conv_window(x: Array, kernel: Array, stride: int, padding: str,
                golden: ConvGolden) -> Optional[Array]:
    """Conv of ``x`` evaluated only where it can differ from ``golden``.

    Per row, the input positions whose channels are not all bit-identical
    to ``golden.x`` form a bounding box (or ``golden.boxes`` carries it);
    dilated by the kernel, stride and padding it gives the output window
    that can change.  One gather of the window patches across all rows
    feeds one GEMM, whose results are scattered into a copy of
    ``golden.out`` (or, with ``golden.carry``, returned box-packed).  Returns
    ``None`` (and leaves the counter alone) for the caller to run the full
    conv when the windows cover more than :data:`WINDOW_MAX_SHARE` of the
    output, and for 1x1 kernels: those do so little work per output
    position that the input comparison alone costs about as much as the
    full conv (measured 1.7-4x slower than the full conv at every window
    share).
    """
    count, h, w, c = x.shape
    kh, kw, _, out_c = kernel.shape
    if kh * kw == 1:
        return None
    golden_out = np.asarray(golden.out)
    out_h, out_w = golden_out.shape[1:3]
    if golden.x.shape[1:] != x.shape[1:] or golden_out.shape[3] != out_c:
        raise OperatorError(
            f"Conv2D golden values do not match the call: input "
            f"{golden.x.shape} vs {x.shape}, output {golden_out.shape}")
    boxes = golden.boxes
    if boxes is None:
        boxes = diff_boxes(x, golden.x)
    windows = reachable_boxes(boxes, h, w, (kh, kw), stride, padding,
                              out_h, out_w)
    evaluated = windows.total
    if evaluated > WINDOW_MAX_SHARE * count * out_h * out_w:
        return None
    golden.positions_evaluated += evaluated
    if not evaluated:
        values = np.empty((0, out_c), dtype=np.result_type(x, kernel))
    else:
        # Flat (row, out_row, out_col) of every window position, rows in
        # order and each window row-major.
        row, out_row, out_col = windows.positions()
        # Gather the patches straight from the unpadded input: clip the
        # input coordinates into range and zero the taps that fall in the
        # padding (padding the whole batch first would copy every row).
        pt, _ = compute_padding(h, kh, stride, padding)
        pl, _ = compute_padding(w, kw, stride, padding)
        in_row = out_row[:, None] * stride - pt + np.arange(kh)
        in_col = out_col[:, None] * stride - pl + np.arange(kw)
        taps = ((row[:, None, None] * h
                 + np.clip(in_row, 0, h - 1)[:, :, None]) * w
                + np.clip(in_col, 0, w - 1)[:, None, :])
        patches = np.take(x.reshape(count * h * w, c), taps.ravel(), axis=0)
        patches = patches.reshape(evaluated, kh, kw, c)
        inside = (((in_row >= 0) & (in_row < h))[:, :, None]
                  & ((in_col >= 0) & (in_col < w))[:, None, :])
        if not inside.all():
            patches[~inside] = 0.0
        values = (patches.reshape(evaluated, kh * kw * c)
                  @ kernel.reshape(kh * kw * c, out_c))
    if golden.carry:
        golden.out_boxes = windows
        return values
    return splice(golden_out, windows, values)


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

    def forward(self, x: Array, kernel: Array,
                golden: Optional[ConvGolden] = None) -> Array:
        """Convolve ``x`` with ``kernel``.

        With ``golden`` (batched ULP_TOLERANT replay only) the output is
        evaluated only inside each row's reachable window and spliced into
        the golden output, or returned box-packed when ``golden`` carries
        the input's boxes (see :func:`conv_window`); the full conv runs
        when the windows are too large to pay.
        """
        if x.ndim != 4 or kernel.ndim != 4:
            raise OperatorError(
                f"Conv2D expects 4-D input and kernel, got {x.shape} and "
                f"{kernel.shape}")
        kh, kw, in_c, out_c = kernel.shape
        if x.shape[3] != in_c:
            raise OperatorError(
                f"Conv2D channel mismatch: input has {x.shape[3]} channels, "
                f"kernel expects {in_c}")
        if golden is not None:
            out = conv_window(x, kernel, self.stride, self.padding, golden)
            if out is not None:
                return out
        cols, (out_h, out_w) = im2col(x, kh, kw, self.stride, self.padding)
        if golden is not None:
            golden.positions_evaluated += x.shape[0] * out_h * out_w
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
