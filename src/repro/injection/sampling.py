"""Stratified / importance sampling over the fault space.

Uniform random fault injection spends most of its budget on trials whose
verdict is already certain: low-order bit flips almost never cause SDC,
high-order flips in late layers almost always get detected or masked the
same way, and the campaign keeps sampling them anyway.  This module
partitions the fault space into **strata** — the cross product of

* **layer bands**: contiguous runs of injectable nodes in topological
  order, cut so each band holds a near-equal share of the injectable
  state space, and
* **bit bands**: contiguous ranges of bit positions of the value
  representation,

and lets the campaign allocate each wave's trials across strata —
uniformly on the first wave (so every stratum has data), then
Neyman-style toward strata whose verdicts are still uncertain.  Because
a stratum's sampling probability differs from its share of the fault
space, raw counts are biased; :func:`repro.analysis.stratified_rate`
reweights per-stratum counts by the stratum weights computed here into
an unbiased Horvitz–Thompson estimate of the overall rate.

Per-stratum draws use their own :func:`stratum_rng` streams (two-element
spawn keys, collision-free against the campaign's single-element
per-trial keys), so growing a stratum's allocation extends its sample
without re-randomizing earlier draws — the prefix property campaigns
rely on for bit-reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .fault_models import FaultModel
from .injector import FaultInjector, InjectionPlan

#: First spawn-key element of per-stratum streams.  Trial streams use
#: single-element keys ``(trial_index,)`` and the plan stream uses
#: ``(PLAN_STREAM_KEY, 0)``; SeedSequence spawn keys of different lengths
#: never collide, and the leading element keeps the two-element spaces
#: apart from each other.
STRATUM_STREAM_KEY = 2

#: A stratum key: ``(layer_band_index, bit_band_index)``.
StratumKey = Tuple[int, int]


def stratum_rng(seed: int, stratum_index: int) -> np.random.Generator:
    """The dedicated, index-keyed RNG stream of one stratum.

    Analogous to ``streams.trial_rng``: the stream depends only on the
    campaign seed and the stratum's index in the space, never on how many
    trials other strata drew, so per-stratum sample sequences are stable
    as allocations evolve.
    """
    ss = np.random.SeedSequence(entropy=seed,
                                spawn_key=(STRATUM_STREAM_KEY, stratum_index))
    return np.random.default_rng(ss)


#: Relative tolerance within which a float share counts as an integer in
#: :func:`largest_remainder`.  ``q / scale * total`` carries a few ulps of
#: rounding error, so an exactly-proportional quota (thirds of a
#: divisible-by-three total, say) can come out as ``k - 1e-16``.
SHARE_EPSILON = 1e-9


def largest_remainder(quotas: Sequence[float], total: int) -> List[int]:
    """Round non-negative ``quotas`` to integers summing to ``total``.

    Hamilton's method: everyone gets the floor of their quota, the
    leftover units go to the largest fractional parts (ties broken by
    lower index, so the rounding is deterministic).

    Shares within :data:`SHARE_EPSILON` of an integer are snapped to that
    integer *before* flooring: ``q / scale * total`` is float arithmetic,
    so an exactly-proportional quota can land at ``k - 1e-16`` and floor
    to ``k - 1``.  The leftover pass would usually repair that (the
    near-1.0 fractional part wins a unit back first), but the repair
    consumes the stratum's place in the remainder ordering and lets float
    noise decide ties that should be decided by the exact quotas — the
    snap keeps exactly-proportional allocations independent of rounding
    noise.  Should accumulated snapping ever over-allocate, units are
    reclaimed from the *smallest* fractional parts (the reverse of the
    award order), so the quota rule ``|counts[i] - share_i| < 1`` holds
    either way.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    quotas = [float(q) for q in quotas]
    if any(q < 0 for q in quotas):
        raise ValueError(f"quotas must be non-negative, got {quotas}")
    scale = sum(quotas)
    if scale <= 0:
        quotas = [1.0] * len(quotas)
        scale = float(len(quotas))
    shares = [q / scale * total for q in quotas]
    snapped = [float(round(share))
               if abs(share - round(share)) <= SHARE_EPSILON * max(1.0, share)
               else share
               for share in shares]
    counts = [int(share) for share in snapped]
    leftover = total - sum(counts)
    order = sorted(range(len(snapped)),
                   key=lambda i: (-(snapped[i] - counts[i]), i))
    if leftover >= 0:
        for i in order[:leftover]:
            counts[i] += 1
    else:  # snapping rounded up past the total; reclaim deterministically
        for i in reversed(order):
            if leftover == 0:
                break
            if counts[i] > 0:
                counts[i] -= 1
                leftover += 1
    return counts


@dataclass(frozen=True)
class Stratification:
    """How to partition the fault space.

    Attributes
    ----------
    layer_bands:
        Number of contiguous topological bands the injectable nodes are
        cut into (clamped to the node count).
    bit_bands:
        Number of contiguous bit-position ranges.  Use ``1`` for fault
        models without per-bit semantics (random-value, stuck-at-zero);
        the single band then leaves plans unrestricted.
    """

    layer_bands: int = 4
    bit_bands: int = 4

    def __post_init__(self) -> None:
        if self.layer_bands < 1:
            raise ValueError(
                f"layer_bands must be positive, got {self.layer_bands}")
        if self.bit_bands < 1:
            raise ValueError(
                f"bit_bands must be positive, got {self.bit_bands}")


class StratumSpace:
    """The concrete strata of one (model, fault model) pair.

    Built from the injector's profiled per-node state space.  Layer bands
    are contiguous in topological order and balanced by cumulative state
    space (a band boundary is placed where the running total crosses the
    next equal share); bit bands split ``[0, total_bits)`` into
    near-equal contiguous ranges.  The stratum weight ``q_h`` is the
    probability a *uniform* fault lands in stratum ``h``:
    ``(band_state_space / total_state_space) * (band_bits / total_bits)``.
    Weights sum to 1 by construction.
    """

    def __init__(self, site_sizes: Mapping[str, int],
                 fault_model: FaultModel,
                 stratification: Stratification) -> None:
        if not site_sizes:
            raise ValueError("cannot stratify an empty fault space")
        self.stratification = stratification
        names = list(site_sizes.keys())  # insertion order == topo order
        total_space = float(sum(site_sizes.values()))

        n_layer = min(stratification.layer_bands, len(names))
        self.layer_band_nodes: List[List[str]] = [[] for _ in range(n_layer)]
        layer_space = [0.0] * n_layer
        acc, band = 0.0, 0
        for i, name in enumerate(names):
            # Never leave a later band empty: if only as many nodes remain
            # as bands, advance one band per node.
            remaining_bands = n_layer - band - 1
            if (band < n_layer - 1
                    and (acc >= total_space * (band + 1) / n_layer
                         or len(names) - i <= remaining_bands)):
                band += 1
            self.layer_band_nodes[band].append(name)
            layer_space[band] += float(site_sizes[name])
            acc += float(site_sizes[name])

        total_bits = getattr(fault_model, "total_bits", None)
        if stratification.bit_bands > 1 and total_bits is None:
            raise ValueError(
                f"{fault_model.describe()} has no bit positions to stratify "
                f"over; use Stratification(bit_bands=1)")
        if total_bits is not None:
            n_bit = min(stratification.bit_bands, int(total_bits))
            edges = [round(b * total_bits / n_bit) for b in range(n_bit + 1)]
            self.bit_band_ranges: List[Optional[Tuple[int, int]]] = [
                (edges[b], edges[b + 1]) for b in range(n_bit)]
        else:
            n_bit = 1
            self.bit_band_ranges = [None]
        # A 1-band split of a bit-flip model is intentionally unrestricted
        # (band is the full range, but leave plans unbanded so payloads and
        # RNG draws match unstratified campaigns exactly).
        if n_bit == 1:
            self.bit_band_ranges = [None]

        self.keys: List[StratumKey] = [(lb, bb) for lb in range(n_layer)
                                       for bb in range(n_bit)]
        bit_frac = [1.0 if rng is None
                    else (rng[1] - rng[0]) / float(total_bits)
                    for rng in self.bit_band_ranges]
        self.weights: Dict[StratumKey, float] = {
            (lb, bb): (layer_space[lb] / total_space) * bit_frac[bb]
            for lb in range(n_layer) for bb in range(n_bit)}

    def __len__(self) -> int:
        return len(self.keys)

    def index_of(self, key: StratumKey) -> int:
        return self.keys.index(key)

    @staticmethod
    def label(key: StratumKey) -> str:
        return f"L{key[0]}/B{key[1]}"

    def sample_stratum_plans(self, injector: FaultInjector, key: StratumKey,
                             count: int, rng: np.random.Generator
                             ) -> List[InjectionPlan]:
        """Draw ``count`` plans confined to stratum ``key``.

        The draw stays size-proportional within the stratum's node band
        (uniform over the stratum's values) and stamps the stratum's bit
        band on every site.
        """
        layer_band, bit_band = key
        return injector.sample_plans(
            count, rng=rng, nodes=self.layer_band_nodes[layer_band],
            bit_range=self.bit_band_ranges[bit_band])


def uniform_allocation(space: StratumSpace, wave_trials: int) -> Dict[StratumKey, int]:
    """Split one wave evenly across strata (largest-remainder rounded).

    With ``wave_trials >= len(space)`` every stratum receives at least
    one trial — the first-wave guarantee the Neyman step builds on.
    """
    counts = largest_remainder([1.0] * len(space), wave_trials)
    return dict(zip(space.keys, counts))


def neyman_allocation(space: StratumSpace, wave_trials: int,
                      stratum_stats: Mapping[StratumKey,
                                             Sequence[Tuple[int, int]]],
                      ) -> Dict[StratumKey, int]:
    """Allocate one wave's trials toward strata with uncertain verdicts.

    ``stratum_stats[h]`` holds ``(successes, trials)`` pairs — one per
    stopping criterion — observed in stratum ``h`` so far.  The Neyman
    rule allocates ``n_h ∝ q_h · σ_h`` where ``σ_h`` is the largest
    per-criterion binomial standard deviation
    ``sqrt(p̃_h (1 - p̃_h))`` with the Jeffreys-smoothed
    ``p̃ = (s + 0.5) / (n + 1)`` (never exactly 0 or 1, so a stratum is
    only *starved*, never frozen, by extreme early counts).  Unsampled
    strata score the maximal ``σ = 0.5``.
    """
    scores = []
    for key in space.keys:
        stats = stratum_stats.get(key, ())
        sigma = 0.5
        if stats:
            sigma = max(
                (((s + 0.5) / (n + 1)) * (1 - (s + 0.5) / (n + 1))) ** 0.5
                if n > 0 else 0.5
                for s, n in stats)
        scores.append(space.weights[key] * sigma)
    counts = largest_remainder(scores, wave_trials)
    return dict(zip(space.keys, counts))
