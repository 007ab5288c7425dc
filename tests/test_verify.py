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


def _fail_at(trial, real):
    """real, except that its call number `trial` (from 0) raises."""
    calls = iter(range(10 ** 6))

    def wrapped(*args):
        if next(calls) == trial:
            raise ValueError("conjugation by x does not preserve V")
        return real(*args)
    return wrapped


@pytest.mark.parametrize("name", ["spinor-equivariance",
                                  "twisted-conjugation-orthogonal"])
def test_group_check_failures_name_seed_and_trial(monkeypatch, name):
    check = next(c for c in verify.CHECKS if c.name == name)
    monkeypatch.setattr(verify.clifford, "twisted_conjugation",
                        _fail_at(2, verify.clifford.twisted_conjugation))
    ok, detail = check.fn(7)
    assert not ok
    assert detail.startswith("seed 7, trial 2: ")
    assert "conjugation by x does not preserve V" in detail


def test_equivariance_mismatch_names_seed_and_trial(monkeypatch):
    monkeypatch.setattr(verify, "rank", lambda m: 5)
    ok, detail = next(c for c in verify.CHECKS
                      if c.name == "spinor-equivariance").fn(11)
    assert (ok, detail) == (
        False, "seed 11, trial 0: moved subspace does not match moved spinor")


def test_orthogonality_mismatch_names_seed_and_trial(monkeypatch):
    monkeypatch.setattr(verify, "det", lambda m: 2)
    ok, detail = next(c for c in verify.CHECKS
                      if c.name == "twisted-conjugation-orthogonal").fn(11)
    assert (ok, detail) == (
        False, "seed 11, trial 0: matrix is not special orthogonal")
