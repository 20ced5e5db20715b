"""Shared fixtures: environment specs and small prebuilt datasets.

Everything here is deterministic; fixtures that are expensive to build are
session-scoped and must not be mutated by tests.

BLAS is held to one thread before numpy loads, as benchmarks/run.py does:
results are identical at any thread count, and a second BLAS thread only
slows genil's small matrices when the other core is busy.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from genil.envs import environment, make_demo_pair
from genil.genetics import GAConfig, reproduce


@pytest.fixture(scope="session")
def grid_spec():
    return environment("GridNav")


@pytest.fixture(scope="session")
def pc_spec():
    return environment("PointChase")


@pytest.fixture(scope="session")
def grid_demos(grid_spec):
    """One ordered (good, bad) GridNav demo pair at the desk qualities."""
    return make_demo_pair(grid_spec, 0.1, 0.5, seed=1)


@pytest.fixture(scope="session")
def grid_dataset(grid_spec, grid_demos):
    """A full ranked dataset grown from the desk demo pair."""
    return reproduce(*grid_demos, GAConfig(), seed=1)


@pytest.fixture
def rng():
    return np.random.default_rng(7)
