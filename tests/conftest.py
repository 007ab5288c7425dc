import random

import pytest

from spinweil.spingeo import STANDARD_H, STANDARD_S, Spinor
from spinweil.weil import STANDARD_PERIOD, Period

SEED = 987123


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture
def standard_h():
    return Spinor(STANDARD_H)


@pytest.fixture
def standard_s():
    return Spinor(STANDARD_S)


@pytest.fixture
def standard_period():
    return Period(*STANDARD_PERIOD)
