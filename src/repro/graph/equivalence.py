"""Execution-equivalence modes and ULP-distance helpers.

There is one replay core, ``Executor.run_from_batched``; ``run_from`` is
its one-row call under ``EXACT``.  The core carries an explicit
:class:`EquivalenceMode` that decides when a replayed row counts as clean
(equal to its golden value, so it stops propagating):

``EXACT``
    A row is clean only when it is bit-identical to the golden value, on
    every row.  A one-row replay is then bit-for-bit identical to a
    batch-1 full re-execution: the default incremental campaign path and
    every ``batch_trials=1`` run satisfy this.  With more than one row
    the replay is still deterministic relative to the cache, but BLAS
    kernels pick different blocking for different batch shapes, so a row
    computed at batch size ``B`` can differ from its batch-1 result in
    the last few ULPs; campaigns therefore refuse ``EXACT`` batches.

``ULP_TOLERANT``
    A row is clean within ``max_ulps`` of its golden value.  Each output
    row is the correctly-rounded-modulo-reassociation result of the same
    computation.  SDC verdicts (argmax / threshold comparisons) are
    unaffected in practice — the equivalence suite asserts verdict-set
    agreement rather than bit identity — and tolerant results report the
    maximum deviation actually observed so the claim is auditable.
"""

from __future__ import annotations

import enum
from typing import Union

import numpy as np

#: Default row-masking tolerance of the batched replay engine, in float64
#: ULPs.  Measured batch-shape reassociation noise is a handful of ULPs; the
#: smallest corruption any bit-flip fault model can produce (one LSB of a
#: Q14.2 / Q22.10 grid, or one float32 mantissa bit) is many orders of
#: magnitude larger, so this threshold separates the two cleanly.
DEFAULT_MAX_ULPS = 32


class EquivalenceMode(enum.Enum):
    """The numerical guarantee a replayed result satisfies."""

    EXACT = "exact"
    ULP_TOLERANT = "ulp_tolerant"

    @classmethod
    def coerce(cls, value: Union["EquivalenceMode", str, None],
               default: "EquivalenceMode") -> "EquivalenceMode":
        """Accept an enum member, its string value, or ``None`` (→ default)."""
        if value is None:
            return default
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"unknown equivalence mode {value!r}; expected one of "
                f"{[m.value for m in cls]}") from None


def _ordered_keys(values: np.ndarray) -> np.ndarray:
    """Map float64 bit patterns to monotonically ordered uint64 keys.

    The standard radix-sort trick: flip all bits of negative floats and the
    sign bit of non-negative ones, so the integer order of the keys matches
    the numeric order of the floats (with -0.0 and +0.0 one key apart) and
    the key difference between two floats is their distance in ULPs.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    negative = (bits >> np.uint64(63)).astype(bool)
    return np.where(negative, ~bits, bits | np.uint64(1 << 63))


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise distance between two float64 arrays, in ULPs.

    NaNs never compare close: a NaN against anything (including another
    NaN of a different payload) yields a huge distance, keeping NaN-carrying
    rows dirty during batched change propagation.  Identical bit patterns
    (including NaNs with equal payloads) yield distance 0.
    """
    a = np.ascontiguousarray(np.broadcast_arrays(
        np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))[0])
    b = np.ascontiguousarray(np.broadcast_to(
        np.asarray(b, dtype=np.float64), a.shape))
    ka, kb = _ordered_keys(a), _ordered_keys(b)
    dist = np.where(ka > kb, ka - kb, kb - ka).astype(np.float64)
    # Any comparison involving a NaN is unbounded-far unless bit-identical.
    nan_mask = np.isnan(a) | np.isnan(b)
    if nan_mask.any():
        same_bits = a.view(np.uint64) == b.view(np.uint64)
        dist = np.where(nan_mask, np.where(same_bits, 0.0, np.inf), dist)
    return dist


def max_row_ulp_distance(rows: np.ndarray, reference: np.ndarray
                         ) -> np.ndarray:
    """Per-row maximum ULP distance between ``rows`` (B, ...) and a
    broadcastable ``reference`` (1, ...) of the same trailing shape."""
    rows = np.asarray(rows)
    dist = ulp_distance(rows, np.broadcast_to(reference, rows.shape))
    if rows.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    return dist.reshape(rows.shape[0], -1).max(axis=1)
