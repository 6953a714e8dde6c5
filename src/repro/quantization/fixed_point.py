"""Fixed-point data types (Qm.n) and bit-level views of values.

The paper evaluates the DNNs with a 32-bit fixed-point datatype (RQ1–RQ3) and
a 16-bit fixed-point datatype with 14 integer and 2 fractional bits (RQ4).
This module provides

* :class:`FixedPointFormat` — a signed two's-complement Qm.n codec with
  saturating encode,
* bit-flip helpers that flip a chosen bit of a value *in its fixed-point
  representation* (the paper's fault model), and
* an IEEE-754 float32 bit-flip helper used for the floating-point fault-model
  ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed two's-complement fixed-point format with ``integer_bits``
    integer bits (including the sign bit) and ``fraction_bits`` fractional
    bits.

    The paper's configurations:

    * 32-bit: ``FixedPointFormat(integer_bits=22, fraction_bits=10)`` —
      enough integer range for the largest activations of the evaluated
      networks, matching the "32-bit fixed point" datatype used in RQ1–RQ3.
    * 16-bit: ``FixedPointFormat(integer_bits=14, fraction_bits=2)`` — the
      exact split the paper states for RQ4.
    """

    integer_bits: int
    fraction_bits: int

    def __post_init__(self) -> None:
        if self.integer_bits < 1:
            raise ValueError("integer_bits must be at least 1 (sign bit)")
        if self.fraction_bits < 0:
            raise ValueError("fraction_bits must be non-negative")
        if self.total_bits > 64:
            raise ValueError("formats wider than 64 bits are not supported")
        # The grid constants of :meth:`quantize` (saturation bounds and
        # rounding shift), fixed per format; ``None`` for formats too wide
        # for the float-only path.  Read-only 0-d float64 arrays: a ufunc
        # takes them without converting a Python float on every call.
        grid = None
        if self.total_bits <= 52:
            grid = tuple(np.array(constant) for constant in (
                self.min_value, self.max_value,
                1.5 * 2.0 ** (52 - self.fraction_bits)))
            for constant in grid:
                constant.flags.writeable = False
        object.__setattr__(self, "_grid", grid)

    def __getstate__(self):
        """Pickle the fields alone: the grid constants are derived, and a
        format's bytes feed content fingerprints (campaign specs)."""
        return {"integer_bits": self.integer_bits,
                "fraction_bits": self.fraction_bits}

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    # -- format properties ----------------------------------------------------

    @property
    def total_bits(self) -> int:
        return self.integer_bits + self.fraction_bits

    @property
    def scale(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** (-self.fraction_bits)

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return (2 ** (self.total_bits - 1) - 1) * self.scale

    @property
    def min_value(self) -> float:
        """Most negative representable value."""
        return -(2 ** (self.total_bits - 1)) * self.scale

    @property
    def resolution(self) -> float:
        return self.scale

    # -- encode / decode -----------------------------------------------------------

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Quantize real values to signed integer codes, with saturation."""
        values = np.asarray(values, dtype=np.float64)
        codes = np.round(values / self.scale)
        low = -(2 ** (self.total_bits - 1))
        high = 2 ** (self.total_bits - 1) - 1
        codes = np.clip(codes, low, high)
        return codes.astype(np.int64)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Map integer codes back to real values."""
        return np.asarray(codes, dtype=np.float64) * self.scale

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round real values onto the representable grid (encode + decode).

        Fused float-only fast path for the executor's per-output policy
        application (the hottest loop of every fixed-point campaign), in
        four passes: saturate from below and above, then round by adding and
        subtracting ``1.5 * 2**(52 - fraction_bits)`` (bounds and shift
        are fixed per format at construction).  After saturation every
        sum lies in one binade whose ULP is exactly the grid step, so the add
        rounds to the grid (half to even, like :meth:`encode`) and the
        subtract is exact.  That needs ``|value| <= 2**(51 - fraction_bits)``,
        i.e. formats up to 52 total bits; wider ones keep the exact int64
        round-trip.  Saturating before rounding gives the same result as
        the reverse because both bounds lie on the grid.  The result
        equals the int64 round-trip value for value and bit for bit
        (a zero comes out as ``+0.0``), except that NaN stays NaN instead
        of decaying to whatever ``astype(int64)`` turns it into.
        """
        grid = self._grid
        if grid is None:  # sums would leave the grid-step binade
            return self.decode(self.encode(values))
        low, high, shift = grid
        values = np.asarray(values, dtype=np.float64)
        # Saturate into one buffer with the bare ufuncs, which skip
        # ``np.clip``'s wrapper (``out=`` keeps a 0-d input an array).
        out = np.empty_like(values)
        np.maximum(values, low, out=out)
        np.minimum(out, high, out=out)
        out += shift
        out -= shift
        return out

    def representable(self, values: np.ndarray, atol: float = 1e-9) -> np.ndarray:
        """Boolean mask of values already exactly on the grid and in range."""
        values = np.asarray(values, dtype=np.float64)
        quantized = self.quantize(values)
        return np.isclose(values, quantized, atol=atol)

    # -- bit manipulation ------------------------------------------------------------

    def flip_bit(self, value: float, bit: int) -> float:
        """Flip one bit of ``value``'s two's-complement representation.

        ``bit`` is indexed from 0 (least-significant fraction bit) to
        ``total_bits - 1`` (the sign bit).  The value is first quantized onto
        the grid (a fault can only corrupt a stored representation).
        """
        if not 0 <= bit < self.total_bits:
            raise ValueError(
                f"bit index {bit} out of range for a {self.total_bits}-bit format")
        code = int(self.encode(np.asarray(value))[()])
        unsigned = code & ((1 << self.total_bits) - 1)
        unsigned ^= (1 << bit)
        # Re-interpret as signed two's complement.
        if unsigned >= (1 << (self.total_bits - 1)):
            unsigned -= (1 << self.total_bits)
        return float(self.decode(np.asarray(unsigned))[()])

    def flip_bits(self, value: float, bits: Iterable[int]) -> float:
        """Flip several distinct bits of one value."""
        out = value
        for bit in bits:
            out = self.flip_bit(out, bit)
        return out

    def bit_weight(self, bit: int) -> float:
        """Magnitude contributed by ``bit`` (the sign bit returns the full
        negative range it controls)."""
        if bit == self.total_bits - 1:
            return 2.0 ** (self.integer_bits - 1) * (2.0 ** self.fraction_bits) * self.scale
        return 2.0 ** bit * self.scale


#: The paper's default 32-bit fixed-point configuration (RQ1–RQ3).
FIXED32 = FixedPointFormat(integer_bits=22, fraction_bits=10)

#: The paper's reduced-precision configuration for RQ4 (14 integer + 2 fraction).
FIXED16 = FixedPointFormat(integer_bits=14, fraction_bits=2)


def flip_float32_bit(value: float, bit: int) -> float:
    """Flip one bit of an IEEE-754 single-precision representation.

    Used by the floating-point fault-model ablation.  ``bit`` 0 is the LSB of
    the mantissa, bit 31 is the sign bit.
    """
    if not 0 <= bit < 32:
        raise ValueError(f"bit index {bit} out of range for float32")
    as_int = np.float32(value).view(np.uint32)
    flipped = np.uint32(as_int ^ np.uint32(1 << bit))
    result = float(flipped.view(np.float32))
    # A flip in the exponent can produce inf/NaN; the injector treats these as
    # ordinary corrupted values (downstream ops propagate them).
    return result
