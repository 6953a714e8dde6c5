"""Per-trial corruption streams equal their ``SeedSequence`` reference.

:func:`repro.injection.trial_rng` and :func:`repro.injection.trial_rngs`
recompute ``SeedSequence``'s state words instead of building one per
trial; every stream must still be the generator
``default_rng(SeedSequence(entropy=seed, spawn_key=(index,)))``.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.injection import trial_rng, trial_rngs

seeds = st.one_of(st.integers(0, 2 ** 32), st.integers(0, 2 ** 128),
                  st.sampled_from([0, 2 ** 32 - 1, 2 ** 64, 2 ** 128]))
indices = st.one_of(st.integers(0, 2 ** 32 + 5), st.integers(0, 2 ** 40))


def reference(seed, index):
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def draws(rng):
    """Integers, uniforms and a choice: three ways through the stream."""
    return (rng.integers(0, 2 ** 63, 3).tobytes(),
            rng.uniform(-1.0, 1.0, 3).tobytes(),
            rng.choice(1000, size=3, replace=False).tobytes())


@given(seed=seeds, index=indices)
def test_trial_rng_matches_seed_sequence(seed, index):
    assert draws(trial_rng(seed, index)) == draws(reference(seed, index))


@given(seed=seeds, chunk=st.lists(indices, max_size=6))
def test_trial_rngs_match_seed_sequence(seed, chunk):
    streams = list(trial_rngs(seed, chunk))
    assert len(streams) == len(chunk)
    for rng, index in zip(streams, chunk):
        assert draws(rng) == draws(reference(seed, index))


def test_streams_are_independent_objects():
    """Batched replay holds a chunk's generators at once: drawing from one
    must not move another."""
    first, second = trial_rngs(5, [0, 1])
    first.random(10)
    assert draws(second) == draws(reference(5, 1))
