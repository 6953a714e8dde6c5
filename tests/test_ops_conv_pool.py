"""Unit tests for convolution and pooling operators, including gradient checks."""

import numpy as np
import pytest

from repro import ops
from repro.ops.conv import col2im, compute_padding, conv_output_size, im2col


def numerical_gradient(f, x, eps=1e-5):
    """Central-difference numerical gradient of a scalar function."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = f(x)
        flat[i] = original - eps
        minus = f(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestPaddingMath:
    def test_valid_padding_is_zero(self):
        assert compute_padding(10, 3, 1, "valid") == (0, 0)

    def test_same_padding_preserves_size_stride1(self):
        for size in (5, 8, 13):
            for kernel in (1, 3, 5):
                assert conv_output_size(size, kernel, 1, "same") == size

    def test_same_padding_stride2_halves(self):
        assert conv_output_size(8, 3, 2, "same") == 4
        assert conv_output_size(9, 3, 2, "same") == 5

    def test_valid_output_size(self):
        assert conv_output_size(8, 3, 1, "valid") == 6

    def test_unknown_padding_rejected(self):
        with pytest.raises(ValueError):
            compute_padding(8, 3, 1, "reflect")


class TestIm2Col:
    def test_round_trip_shapes(self, rng):
        x = rng.normal(size=(2, 6, 6, 3))
        cols, (oh, ow) = im2col(x, 3, 3, 1, "same")
        assert cols.shape == (2 * 6 * 6, 3 * 3 * 3)
        assert (oh, ow) == (6, 6)

    def test_identity_kernel_recovers_input(self, rng):
        x = rng.normal(size=(1, 5, 5, 1))
        cols, _ = im2col(x, 1, 1, 1, "valid")
        np.testing.assert_allclose(cols.reshape(x.shape), x)

    @staticmethod
    def _padded_reference(x, kh, kw, stride, padding):
        """The patch matrix built on ``np.pad``, as im2col once did."""
        batch, h, w, c = x.shape
        pt, pb = compute_padding(h, kh, stride, padding)
        pl, pr = compute_padding(w, kw, stride, padding)
        x = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)), mode="constant")
        out_h = (x.shape[1] - kh) // stride + 1
        out_w = (x.shape[2] - kw) // stride + 1
        s = x.strides
        window = np.lib.stride_tricks.as_strided(
            x, shape=(batch, out_h, out_w, kh, kw, c),
            strides=(s[0], s[1] * stride, s[2] * stride, s[1], s[2], s[3]))
        return (np.ascontiguousarray(window.reshape(-1, kh * kw * c)),
                (out_h, out_w))

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("size", [(7, 7), (8, 8), (6, 9)])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("kernel", [(1, 1), (3, 3), (2, 3)])
    def test_matches_np_pad_bytes(self, rng, padding, stride, size, batch,
                                  kernel):
        """Byte-identical to the ``np.pad`` construction, signed zeros and
        NaNs included, for contiguous and strided inputs."""
        x = rng.normal(size=(batch,) + size + (4,))
        x[0, 0, 0, 0] = -0.0
        x[-1, -1, -1, -1] = np.nan
        kh, kw = kernel
        for view in (x, x[:, ::-1, :, ::2]):
            cols, out_size = im2col(view, kh, kw, stride, padding)
            want, want_size = self._padded_reference(view, kh, kw, stride,
                                                     padding)
            assert out_size == want_size
            assert cols.shape == want.shape
            assert cols.tobytes() == want.tobytes()


class TestConv2D:
    def test_output_shape_same_padding(self, rng):
        x = rng.normal(size=(2, 8, 8, 3))
        k = rng.normal(size=(3, 3, 3, 5))
        out = ops.Conv2D(stride=1, padding="same").forward(x, k)
        assert out.shape == (2, 8, 8, 5)

    def test_output_shape_strided(self, rng):
        x = rng.normal(size=(1, 8, 8, 2))
        k = rng.normal(size=(3, 3, 2, 4))
        out = ops.Conv2D(stride=2, padding="same").forward(x, k)
        assert out.shape == (1, 4, 4, 4)

    def test_matches_direct_computation(self, rng):
        """Compare against a naive triple-loop convolution."""
        x = rng.normal(size=(1, 5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 3))
        out = ops.Conv2D(stride=1, padding="valid").forward(x, k)
        naive = np.zeros((1, 3, 3, 3))
        for i in range(3):
            for j in range(3):
                patch = x[0, i:i + 3, j:j + 3, :]
                for c in range(3):
                    naive[0, i, j, c] = np.sum(patch * k[:, :, :, c])
        np.testing.assert_allclose(out, naive, atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 4, 4, 3))
        k = rng.normal(size=(3, 3, 2, 4))
        with pytest.raises(ops.OperatorError):
            ops.Conv2D().forward(x, k)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ops.Conv2D(stride=0)
        with pytest.raises(ValueError):
            ops.Conv2D(padding="full")

    def test_gradient_wrt_input_and_kernel(self, rng):
        x = rng.normal(size=(1, 5, 5, 2))
        k = rng.normal(size=(3, 3, 2, 2))
        op = ops.Conv2D(stride=1, padding="same")

        out = op.forward(x, k)
        upstream = rng.normal(size=out.shape)
        grad_x, grad_k = op.backward(upstream, [x, k], out)

        num_x = numerical_gradient(
            lambda v: float(np.sum(op.forward(v, k) * upstream)), x.copy())
        num_k = numerical_gradient(
            lambda v: float(np.sum(op.forward(x, v) * upstream)), k.copy())
        np.testing.assert_allclose(grad_x, num_x, atol=1e-4)
        np.testing.assert_allclose(grad_k, num_k, atol=1e-4)

    def test_flops_scale_with_kernel_and_output(self):
        op = ops.Conv2D()
        flops = op.flops([(1, 8, 8, 3), (3, 3, 3, 16)], (1, 8, 8, 16))
        assert flops == 2 * 3 * 3 * 3 * 8 * 8 * 16


@pytest.mark.parametrize("pad_value", [-np.inf, 0.0])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("size", [(5, 5), (6, 7)])
def test_pool_windows_match_np_pad_bytes(rng, pad_value, stride, size):
    """Pooling windows hold the bytes of an ``np.pad``-padded input."""
    from repro.ops.pooling import _pool_windows
    x = rng.normal(size=(2,) + size + (3,))
    x[0, 0, 0, 0] = -0.0
    windows, out_size = _pool_windows(x, 3, stride, "same", pad_value)
    pt, pb = compute_padding(size[0], 3, stride, "same")
    pl, pr = compute_padding(size[1], 3, stride, "same")
    padded = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)),
                    mode="constant", constant_values=pad_value)
    for i in range(out_size[0]):
        for j in range(out_size[1]):
            want = padded[:, i * stride:i * stride + 3,
                          j * stride:j * stride + 3, :]
            assert (np.ascontiguousarray(windows[:, i, j]).tobytes()
                    == np.ascontiguousarray(want).tobytes())


class TestMaxPool:
    def test_reduces_spatial_size(self, rng):
        x = rng.normal(size=(2, 8, 8, 3))
        out = ops.MaxPool2D(pool=2).forward(x)
        assert out.shape == (2, 4, 4, 3)

    def test_takes_window_maximum(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        out = ops.MaxPool2D(pool=2).forward(x)
        np.testing.assert_array_equal(out[0, :, :, 0],
                                      np.array([[5.0, 7.0], [13.0, 15.0]]))

    def test_gradient_routes_to_argmax(self, rng):
        x = rng.normal(size=(1, 4, 4, 2))
        op = ops.MaxPool2D(pool=2)
        out = op.forward(x)
        upstream = rng.normal(size=out.shape)
        (grad_x,) = op.backward(upstream, [x], out)
        num = numerical_gradient(
            lambda v: float(np.sum(op.forward(v) * upstream)), x.copy())
        np.testing.assert_allclose(grad_x, num, atol=1e-4)

    def test_category_is_pooling(self):
        assert ops.MaxPool2D().category == "pooling"

    def test_monotone_in_each_input(self, rng):
        """Increasing any single input value never decreases the pooled output."""
        x = rng.normal(size=(1, 4, 4, 1))
        op = ops.MaxPool2D(pool=2)
        base = op.forward(x)
        bumped = x.copy()
        bumped[0, 1, 1, 0] += 10.0
        assert np.all(op.forward(bumped) >= base - 1e-12)


class TestAvgPool:
    def test_takes_window_mean(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        out = ops.AvgPool2D(pool=2).forward(x)
        np.testing.assert_allclose(out[0, :, :, 0],
                                   np.array([[2.5, 4.5], [10.5, 12.5]]))

    def test_gradient_matches_numerical(self, rng):
        x = rng.normal(size=(1, 4, 4, 2))
        op = ops.AvgPool2D(pool=2)
        out = op.forward(x)
        upstream = rng.normal(size=out.shape)
        (grad_x,) = op.backward(upstream, [x], out)
        num = numerical_gradient(
            lambda v: float(np.sum(op.forward(v) * upstream)), x.copy())
        np.testing.assert_allclose(grad_x, num, atol=1e-4)


class TestGlobalAvgPool:
    def test_output_shape(self, rng):
        x = rng.normal(size=(3, 5, 7, 4))
        out = ops.GlobalAvgPool().forward(x)
        assert out.shape == (3, 4)

    def test_equals_mean(self, rng):
        x = rng.normal(size=(2, 3, 3, 2))
        np.testing.assert_allclose(ops.GlobalAvgPool().forward(x),
                                   x.mean(axis=(1, 2)))

    def test_gradient(self, rng):
        x = rng.normal(size=(1, 3, 3, 2))
        op = ops.GlobalAvgPool()
        out = op.forward(x)
        upstream = rng.normal(size=out.shape)
        (grad_x,) = op.backward(upstream, [x], out)
        num = numerical_gradient(
            lambda v: float(np.sum(op.forward(v) * upstream)), x.copy())
        np.testing.assert_allclose(grad_x, num, atol=1e-5)

    def test_rejects_non_4d(self):
        with pytest.raises(ops.OperatorError):
            ops.GlobalAvgPool().forward(np.zeros((2, 3)))
