"""Shared fixtures for the test suite.

The expensive fixtures (trained models) are session-scoped: the whole suite
trains LeNet and the Comma model once each and reuses them everywhere.

The Hypothesis profiles are registered here, once for every property
suite: ``ci`` (the default) keeps example budgets small, and
``REPRO_HYPOTHESIS_PROFILE=thorough`` digs 10x deeper.  Tests that pin
their own ``@settings`` keep them.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # property suites skip themselves without Hypothesis
    pass
else:
    settings.register_profile("ci", max_examples=25, deadline=None)
    settings.register_profile("thorough", max_examples=250, deadline=None)
    settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

from repro.core import Ranger
from repro.models import prepare_model


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def lenet_prepared():
    """A trained LeNet on the synthetic digits dataset."""
    return prepare_model("lenet", epochs=5, seed=0)


@pytest.fixture(scope="session")
def comma_prepared():
    """A trained Comma.ai steering model on the synthetic driving dataset."""
    return prepare_model("comma", epochs=6, seed=0)


@pytest.fixture(scope="session")
def untrained_lenet():
    """An untrained LeNet (cheap model for structural tests)."""
    return prepare_model("lenet", train=False, seed=1)


@pytest.fixture(scope="session")
def lenet_protected(lenet_prepared):
    """LeNet protected by Ranger with max-value bounds."""
    ranger = Ranger(seed=0)
    sample, _ = lenet_prepared.dataset.sample_train(80, seed=0)
    protected, info = ranger.protect(lenet_prepared.model,
                                     profile_inputs=sample)
    return protected, info
