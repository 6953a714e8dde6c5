"""Unit and property tests for the fixed-point datatypes and bit flips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantization import (
    FIXED16,
    FIXED32,
    FixedPointFormat,
    FixedPointPolicy,
    fixed16_policy,
    fixed32_policy,
    flip_float32_bit,
)


class TestFixedPointFormat:
    def test_paper_configurations(self):
        assert FIXED32.total_bits == 32
        assert FIXED16.total_bits == 16
        assert FIXED16.integer_bits == 14 and FIXED16.fraction_bits == 2

    def test_resolution(self):
        assert FIXED16.resolution == 0.25
        assert FixedPointFormat(8, 8).resolution == pytest.approx(1 / 256)

    def test_range(self):
        fmt = FixedPointFormat(4, 2)  # 6-bit total
        assert fmt.max_value == pytest.approx((2 ** 5 - 1) * 0.25)
        assert fmt.min_value == pytest.approx(-(2 ** 5) * 0.25)

    def test_quantize_rounds_to_grid(self):
        fmt = FixedPointFormat(8, 2)
        assert fmt.quantize(np.array(1.1))[()] == pytest.approx(1.0)
        assert fmt.quantize(np.array(1.13))[()] == pytest.approx(1.25)

    def test_saturation(self):
        fmt = FixedPointFormat(4, 0)
        assert fmt.quantize(np.array(1000.0))[()] == fmt.max_value
        assert fmt.quantize(np.array(-1000.0))[()] == fmt.min_value

    def test_invalid_formats_rejected(self):
        with pytest.raises(ValueError):
            FixedPointFormat(0, 4)
        with pytest.raises(ValueError):
            FixedPointFormat(4, -1)
        with pytest.raises(ValueError):
            FixedPointFormat(60, 10)

    def test_representable(self):
        fmt = FixedPointFormat(8, 2)
        assert fmt.representable(np.array(1.25))
        assert not fmt.representable(np.array(1.1))


class TestBitFlips:
    def test_flip_low_bit_small_change(self):
        flipped = FIXED32.flip_bit(2.0, 0)
        assert abs(flipped - 2.0) == pytest.approx(FIXED32.resolution)

    def test_flip_high_bit_large_change(self):
        flipped = FIXED32.flip_bit(2.0, 30)
        assert abs(flipped - 2.0) > 1e5

    def test_flip_sign_bit_makes_negative(self):
        flipped = FIXED16.flip_bit(1.0, 15)
        assert flipped < 0

    def test_flip_out_of_range_bit(self):
        with pytest.raises(ValueError):
            FIXED16.flip_bit(1.0, 16)

    def test_flip_bits_multiple(self):
        value = FIXED16.flip_bits(0.0, [0, 1])
        assert value == pytest.approx(0.25 + 0.5)

    def test_bit_weight_monotone(self):
        weights = [FIXED16.bit_weight(b) for b in range(FIXED16.total_bits - 1)]
        assert all(weights[i] < weights[i + 1] for i in range(len(weights) - 1))

    def test_float32_flip_sign(self):
        assert flip_float32_bit(1.0, 31) == -1.0

    def test_float32_flip_mantissa_small(self):
        flipped = flip_float32_bit(1.0, 0)
        assert flipped != 1.0
        assert abs(flipped - 1.0) < 1e-6

    def test_float32_invalid_bit(self):
        with pytest.raises(ValueError):
            flip_float32_bit(1.0, 32)


class TestPolicies:
    def test_policy_names(self):
        assert fixed32_policy().name == "fixed32"
        assert fixed16_policy().name == "fixed16"

    def test_policy_skips_variables(self):
        from repro.graph.graph import Node
        from repro import ops
        policy = fixed16_policy()
        node = Node("w", ops.Variable(np.array([0.1])))
        value = np.array([0.1])
        np.testing.assert_array_equal(policy.apply(node, value), value)

    def test_policy_quantizes_compute_nodes(self):
        from repro.graph.graph import Node
        from repro import ops
        policy = fixed16_policy()
        node = Node("m", ops.MatMul(), ("a", "b"))
        out = policy.apply(node, np.array([0.1]))
        assert out[0] in (0.0, 0.25)


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

formats = st.builds(FixedPointFormat,
                    integer_bits=st.integers(min_value=2, max_value=24),
                    fraction_bits=st.integers(min_value=0, max_value=16))


@given(formats, st.floats(min_value=-1000, max_value=1000, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_quantize_idempotent(fmt, value):
    """Quantizing twice equals quantizing once."""
    once = fmt.quantize(np.array(value))
    twice = fmt.quantize(once)
    np.testing.assert_allclose(once, twice)


@given(st.one_of(
           st.sampled_from([FIXED32, FIXED16]),
           st.builds(FixedPointFormat,
                     integer_bits=st.integers(min_value=1, max_value=32),
                     fraction_bits=st.integers(min_value=0, max_value=20))),
       st.lists(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
                min_size=1, max_size=8))
# 200 examples at the default ``ci`` profile, 10x that at ``thorough``.
@settings(max_examples=8 * settings.default.max_examples, deadline=None)
def test_quantize_matches_integer_round_trip(fmt, values):
    """The float fast path equals ``decode(encode(x))`` bit for bit:
    half-to-even ties, saturation (infinities included), and zeros coming
    out as +0.0 — for whole arrays, 0-d arrays and non-contiguous views."""
    values = np.array(values)
    ties = (np.floor(values / fmt.scale) + 0.5) * fmt.scale
    sample = np.concatenate([values, ties, [0.0, -0.0, -0.1 * fmt.scale,
                                            np.inf, -np.inf]])

    def round_trip(x):
        return fmt.decode(fmt.encode(x))

    assert fmt.quantize(sample).tobytes() == round_trip(sample).tobytes()
    for value in sample:
        scalar = np.array(value)
        quantized = fmt.quantize(scalar)
        assert isinstance(quantized, np.ndarray) and quantized.shape == ()
        assert quantized.tobytes() == round_trip(scalar).tobytes()
    grid = np.tile(sample, (3, 2))
    for view in (sample[::2], sample[::-1], grid.T, grid[1:, ::3]):
        assert not view.flags.c_contiguous
        quantized = fmt.quantize(view)
        assert quantized.shape == view.shape
        assert quantized.tobytes() == round_trip(view).tobytes()


@pytest.mark.parametrize("fmt", [FIXED32, FIXED16], ids=["fixed32", "fixed16"])
def test_quantize_saturates_infinities_and_keeps_nan(fmt):
    """``+-inf`` saturate to the range ends and NaN stays the same NaN,
    byte for byte, alone (0-d) and among finite values."""
    values = np.array([np.inf, -np.inf, np.nan, 1.3, -0.0])
    expected = np.array([fmt.max_value, fmt.min_value, np.nan,
                         float(fmt.quantize(np.array(1.3))), 0.0])
    assert fmt.quantize(values).tobytes() == expected.tobytes()
    assert fmt.quantize(values[::2]).tobytes() == expected[::2].tobytes()
    for value, want in zip(values, expected):
        assert fmt.quantize(np.array(value)).tobytes() == want.tobytes()


@given(formats, st.floats(min_value=-1000, max_value=1000, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_quantize_error_bounded_in_range(fmt, value):
    """Within the representable range, the rounding error is at most half an LSB."""
    if fmt.min_value <= value <= fmt.max_value:
        quantized = float(fmt.quantize(np.array(value))[()])
        assert abs(quantized - value) <= fmt.resolution / 2 + 1e-12


@given(formats, st.floats(min_value=-500, max_value=500, allow_nan=False),
       st.data())
@settings(max_examples=100, deadline=None)
def test_bit_flip_is_involution(fmt, value, data):
    """Flipping the same bit twice restores the quantized value."""
    bit = data.draw(st.integers(min_value=0, max_value=fmt.total_bits - 1))
    quantized = float(fmt.quantize(np.array(value))[()])
    flipped = fmt.flip_bit(quantized, bit)
    restored = fmt.flip_bit(flipped, bit)
    assert restored == pytest.approx(quantized)


@given(formats, st.floats(min_value=-500, max_value=500, allow_nan=False),
       st.data())
@settings(max_examples=100, deadline=None)
def test_bit_flip_stays_representable(fmt, value, data):
    """A flipped value is always representable in the same format."""
    bit = data.draw(st.integers(min_value=0, max_value=fmt.total_bits - 1))
    flipped = fmt.flip_bit(value, bit)
    assert fmt.min_value <= flipped <= fmt.max_value
    assert bool(fmt.representable(np.array(flipped)))


@given(st.floats(min_value=0.1, max_value=1000, allow_nan=False),
       st.integers(min_value=0, max_value=20),
       st.integers(min_value=21, max_value=30))
@settings(max_examples=60, deadline=None)
def test_higher_bits_cause_larger_deviation(value, low_bit, high_bit):
    """The monotone-impact property behind Ranger: flips in higher-order bits
    produce deviations at least as large as flips in lower-order bits."""
    quantized = float(FIXED32.quantize(np.array(value))[()])
    low_dev = abs(FIXED32.flip_bit(quantized, low_bit) - quantized)
    high_dev = abs(FIXED32.flip_bit(quantized, high_bit) - quantized)
    assert high_dev >= low_dev
