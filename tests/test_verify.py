"""Every check of the verify registry passes at the default seed and at two
more seeds."""

import pytest

from spinweil import verify
from spinweil.spingeo import Spinor

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


def _check(name):
    return next(c for c in verify.CHECKS if c.name == name)


def _recording_failure(real, fail_call, log):
    """real, recording each call's arguments in log; call number
    fail_call (from 0) raises."""
    def wrapped(*args, **kwargs):
        log.append((args, kwargs))
        if len(log) - 1 == fail_call:
            raise RuntimeError("J^2 = -I failed")
        return real(*args, **kwargs)
    return wrapped


def test_weil_battery_failure_names_seed_trial_and_period(monkeypatch):
    log = []
    monkeypatch.setattr(verify.weil, "make_weil_datum",
                        _recording_failure(verify.weil.make_weil_datum, 2,
                                           log))
    ok, detail = _check("weil-datum-battery").fn(7)
    period_seed = log[2][1]["seed"]
    assert (ok, detail) == (
        False, f"seed 7, trial 2: period of sample seed {period_seed}: "
               f"J^2 = -I failed")


def test_weil_battery_mismatch_names_seed_trial_and_period(monkeypatch):
    log = []

    def report(datum):
        log.append(datum)
        return {"J_orthogonal": len(log) != 2, "discriminant": "1"}

    monkeypatch.setattr(verify.weil, "datum_report", report)
    ok, detail = _check("weil-datum-battery").fn(7)
    assert not ok
    assert detail.startswith("seed 7, trial 1: period of sample seed ")
    assert detail.endswith(": failed: ['J_orthogonal']")
    # the named sample seed reproduces the period of the failing trial
    period_seed = int(detail.split("sample seed ")[1].split(":")[0])
    assert verify.weil.sample_period(
        Spinor(list(verify.STANDARD_H)), Spinor(list(verify.STANDARD_S)),
        seed=period_seed) == log[1].period


def test_hodge_failure_names_seed_trial_and_period(monkeypatch):
    log = []
    monkeypatch.setattr(verify.weil, "cayley_hodge_test",
                        _recording_failure(verify.weil.cayley_hodge_test, 5,
                                           log))
    ok, detail = _check("hodge-criterion").fn(7)
    assert not ok
    # call 5 is the second (generic) period of trial 2
    assert detail.startswith("seed 7, trial 2: generic period of sample "
                             "seed ")
    assert detail.endswith(": J^2 = -I failed")
    period_seed = int(detail.split("sample seed ")[1].split(":")[0])
    assert verify.weil.sample_period(
        Spinor(list(verify.STANDARD_PERIOD[0])),
        Spinor(list(verify.STANDARD_H)), seed=period_seed) == log[5][0][1]


def test_hodge_mismatch_names_seed_trial_and_period(monkeypatch):
    monkeypatch.setattr(verify.weil, "cayley_hodge_test",
                        lambda s, per: False)
    ok, detail = _check("hodge-criterion").fn(3)
    assert not ok
    assert detail.startswith("seed 3, trial 0: orthogonal period of sample "
                             "seed ")
    assert detail.endswith(": criterion mismatched")
