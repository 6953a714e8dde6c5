"""Property-based suite for the stratified-sampling allocation math.

The allocators behind adaptive campaigns must uphold three invariants for
*any* quota vector and budget, because a violated one silently corrupts a
campaign (a lost trial shrinks the sample, a phantom trial breaks the
prefix property, a nondeterministic split breaks bit-reproducibility):

* **sum-to-total** — every allocation spends exactly the wave's budget;
* **non-negativity + quota rule** — each stratum receives a count within
  one unit of its exact proportional share (Hamilton's method);
* **determinism** — equal inputs produce equal allocations, and scaling
  all quotas by a positive constant changes nothing.

Example budgets come from the Hypothesis profiles registered in
``tests/conftest.py``: CI runs a small budget,
``REPRO_HYPOTHESIS_PROFILE=thorough`` digs 10× deeper.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from repro.injection import largest_remainder, neyman_allocation, uniform_allocation
from repro.injection.sampling import SHARE_EPSILON, Stratification, StratumSpace
from repro.quantization import FIXED32
from repro.injection import SingleBitFlip

#: Finite, non-negative quotas over a wide magnitude range.  Degenerate
#: all-zero vectors are valid input (the allocator falls back to uniform).
QUOTAS = st.lists(st.floats(min_value=0.0, max_value=1e9,
                            allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=24)
TOTALS = st.integers(min_value=0, max_value=5000)


@given(quotas=QUOTAS, total=TOTALS)
def test_sums_to_total_and_non_negative(quotas, total):
    counts = largest_remainder(quotas, total)
    assert sum(counts) == total
    assert all(count >= 0 for count in counts)
    assert len(counts) == len(quotas)


@given(quotas=QUOTAS, total=TOTALS)
def test_deterministic(quotas, total):
    assert largest_remainder(quotas, total) == largest_remainder(quotas, total)


@given(quotas=QUOTAS, total=TOTALS,
       factor=st.floats(min_value=1e-3, max_value=1e3,
                        allow_nan=False, allow_infinity=False))
def test_scale_invariant_within_quota_rule(quotas, total, factor):
    """Scaling every quota by the same factor may shift float noise, but
    each count must stay within one unit of the exact share either way."""
    scaled = largest_remainder([q * factor for q in quotas], total)
    scale = sum(quotas) or float(len(quotas))
    shares = [(q / scale if sum(quotas) > 0 else 1.0 / len(quotas)) * total
              for q in quotas]
    for count, share in zip(scaled, shares):
        assert abs(count - share) < 1 + 1e-6


@given(quotas=QUOTAS, total=TOTALS)
def test_quota_rule(quotas, total):
    """Hamilton's method never strays a full unit from the exact share."""
    counts = largest_remainder(quotas, total)
    scale = sum(quotas)
    if scale <= 0:
        scale, quotas = float(len(quotas)), [1.0] * len(quotas)
    for count, quota in zip(counts, quotas):
        assert abs(count - quota / scale * total) < 1 + 1e-6


@given(k=st.integers(min_value=1, max_value=40),
       per=st.integers(min_value=0, max_value=200))
def test_exactly_proportional_quotas_split_exactly(k, per):
    """A divisible total over equal quotas allocates exactly evenly —
    the epsilon-snap regression (float noise used to floor one stratum
    to ``per - 1`` and hand the unit to a remainder-ordering accident)."""
    assert largest_remainder([1.0] * k, k * per) == [per] * k
    # scaled copies of the same proportions behave identically
    assert largest_remainder([1.0 / 3] * k, k * per) == [per] * k


def test_near_integer_shares_snap_before_flooring():
    # 0.3 + 0.3 + 0.4 over 10: exact shares (3, 3, 4) with float noise
    assert largest_remainder([0.3, 0.3, 0.4], 10) == [3, 3, 4]
    # the documented pins from the fixed-point sweep configurations
    assert largest_remainder([1, 1, 1], 10) == [4, 3, 3]
    assert largest_remainder([0, 0], 4) == [2, 2]


def test_snap_over_allocation_is_reclaimed():
    """Shares just under an integer snap *up*; if the snapped floors
    overshoot the total the reclaim pass must repair it deterministically
    while keeping every count non-negative."""
    eps = SHARE_EPSILON / 4
    quotas = [1.0 - eps, 1.0 - eps, 1.0 + 2 * eps]
    for total in range(0, 12):
        counts = largest_remainder(quotas, total)
        assert sum(counts) == total
        assert all(count >= 0 for count in counts)


@pytest.fixture(scope="module")
def stratum_space():
    site_sizes = {"conv1": 400, "conv2": 900, "fc1": 300, "fc2": 100}
    return StratumSpace(site_sizes, SingleBitFlip(FIXED32),
                        Stratification(layer_bands=2, bit_bands=4))


@given(wave=st.integers(min_value=0, max_value=400))
def test_uniform_allocation_sums_and_covers(stratum_space, wave):
    allocation = uniform_allocation(stratum_space, wave)
    assert sum(allocation.values()) == wave
    assert set(allocation) == set(stratum_space.keys)
    if wave >= len(stratum_space):
        assert all(count >= 1 for count in allocation.values())
    spread = set(allocation.values())
    assert max(spread) - min(spread) <= 1  # even split up to rounding


@given(wave=st.integers(min_value=0, max_value=400),
       stats=st.dictionaries(
           st.tuples(st.integers(0, 1), st.integers(0, 3)),
           st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50))
                    .filter(lambda sn: sn[1] >= sn[0]),
                    min_size=1, max_size=2),
           max_size=8))
def test_neyman_allocation_sums_and_is_deterministic(stratum_space, wave,
                                                     stats):
    first = neyman_allocation(stratum_space, wave, stats)
    assert sum(first.values()) == wave
    assert all(count >= 0 for count in first.values())
    assert first == neyman_allocation(stratum_space, wave, stats)
