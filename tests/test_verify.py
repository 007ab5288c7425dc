"""Every check of the verify registry passes at the default seed and at two
more seeds."""

import pytest

from spinweil import verify

SEEDS = (20240, 1, 2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda c: c.name)
def test_registry_check_passes(check, seed):
    ok, detail = check.fn(seed)
    assert ok, f"{check.suite}/{check.name} failed at seed {seed}: {detail}"
