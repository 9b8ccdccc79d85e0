import numpy as np
import pytest
from hypothesis import settings

from csa_floor.distributions import DegreeDistribution, parse_distribution

# Property tests draw the same examples on every run, so a failure reproduces
# and the suite's cost stays fixed.
settings.register_profile("csa", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("csa")


@pytest.fixture
def ref_dist() -> DegreeDistribution:
    return parse_distribution("2:0.25,3:0.6,8:0.15")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
