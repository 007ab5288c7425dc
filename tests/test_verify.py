"""Every check of the verify registry passes at the default seed and at two
more seeds."""

import json
import random
from fractions import Fraction

import pytest

from spinweil import verify
from spinweil.jsonio import decode_multivector, decode_scalar
from spinweil.multivector import DEGREE4_MASKS, Multivector
from spinweil.spingeo import STANDARD_H, STANDARD_S, Spinor
from spinweil.weil import STANDARD_PERIOD

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
        STANDARD_H, STANDARD_S, seed=period_seed) == log[1].period


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
        STANDARD_PERIOD[0], STANDARD_H, seed=period_seed) == log[5][0][1]


def test_hodge_mismatch_names_seed_trial_and_period(monkeypatch):
    monkeypatch.setattr(verify.weil, "cayley_hodge_test",
                        lambda s, per: False)
    ok, detail = _check("hodge-criterion").fn(3)
    assert not ok
    assert detail.startswith("seed 3, trial 0: orthogonal period of sample "
                             "seed ")
    assert detail.endswith(": criterion mismatched")


# -- the checks that read the one-time tables, and subspace-parity ------------

def _nth_call_changed(real, n, change):
    """real, except that the result of its call number n (from 0) goes
    through change."""
    calls = []

    def wrapped(*args):
        calls.append(args)
        out = real(*args)
        return change(out) if len(calls) - 1 == n else out
    return wrapped


def _plus_unit(m):
    """m with 1 added to its entry (0, 1), which the Hodge star does not
    commute with."""
    return [[x + (i == 0 and j == 1) for j, x in enumerate(row)]
            for i, row in enumerate(m)]


def test_star_self_adjoint_mismatch_names_the_basis_forms(monkeypatch):
    star = _plus_unit(verify.star_matrix())
    monkeypatch.setattr(verify, "star_matrix", lambda: star)
    ok, detail = _check("star-self-adjoint").fn(5)
    assert (ok, detail) == (
        False, 'seed 5, trial 0: (star x, y) against (x, star y) on basis '
               'forms e_I, e_J: entry (e1235, e5678) is "1", not "0"')


def test_star_stability_mismatch_names_the_generator(monkeypatch):
    monkeypatch.setattr(verify.reps, "derived_action", _nth_call_changed(
        verify.reps.derived_action, 2, _plus_unit))
    ok, detail = _check("star-eigenspaces-stable").fn(7)
    rng = random.Random(7)
    label = verify.clifford.spin_v_xyz_table()[
        [rng.randrange(28) for _ in range(3)][2]][0]
    assert not ok
    assert detail.startswith(f"seed 7, trial 2: star does not commute with "
                             f"the action of x = {label}: entry (")


def test_bracket_mismatch_names_space_and_elements(monkeypatch):
    # call 3 t + 2 is the action of [x, y] in trial t
    monkeypatch.setattr(verify.reps, "derived_action", _nth_call_changed(
        verify.reps.derived_action, 3 * 4 + 2, _plus_unit))
    ok, detail = _check("bracket-compatibility").fn(9)
    rng = random.Random(9)
    draws = [(rng.randrange(28), rng.randint(1, 3)) for _ in range(10)]
    table = verify.clifford.spin_v_xyz_table()
    (a, ca), (b, cb) = draws[8], draws[9]
    assert not ok
    assert detail.startswith(
        f"seed 9, trial 4: bracket failed on Sym2S+ for x = "
        f"{ca}*{table[a][0]}, y = {cb}*{table[b][0]}: entry (0, 1) is ")


def test_symmetric_square_split_names_the_dependent_sample(monkeypatch):
    samples = list(verify.reps.quadric_square_span())
    samples[4] = samples[2]
    monkeypatch.setattr(verify.reps, "quadric_square_span", lambda: samples)
    ok, detail = _check("symmetric-square-split").fn(3)
    assert not ok
    head = "seed 3, trial 4: the square of sample B = "
    tail = " lies in the span of the 4 vectors before it"
    assert detail.startswith(head) and detail.endswith(tail)
    named = json.loads(detail[len(head):-len(tail)])
    assert [[Fraction(x) for x in row] for row in named] == samples[2][0]


def test_symmetric_square_split_names_the_image_of_the_invariant_line(
        monkeypatch):
    line = verify.reps.gamma0_line()
    col = next(j for j, x in enumerate(line) if x != 0)
    phi = [row[:] for row in verify.reps.phi_matrix()]
    phi[5][col] += 1
    monkeypatch.setattr(verify.reps, "phi_matrix", lambda: phi)
    ok, detail = _check("symmetric-square-split").fn(3)
    assert not ok
    head = "seed 3: phi sends the invariant line to "
    assert detail.startswith(head) and detail.endswith(", not 0")
    image = json.loads(detail[len(head):-len(", not 0")])
    assert [Fraction(x) for x in image] == \
        [line[col] if r == 5 else 0 for r in range(70)]


def test_veronese_pluecker_names_seed_trial_and_b(monkeypatch):
    real = verify.reps.veronese_pluecker_check
    calls = []

    def fails_on_trial_1(b):
        calls.append(b)
        return real(b) and len(calls) != 2

    monkeypatch.setattr(verify.reps, "veronese_pluecker_check",
                        fails_on_trial_1)
    ok, detail = _check("veronese-pluecker").fn(5)
    assert not ok
    head = "seed 5, trial 1: phi(z (.) z) is not the Pluecker image at B = "
    assert detail.startswith(head)
    rng = random.Random(5)
    drawn = [verify.random_alternating(rng) for _ in range(2)]
    named = json.loads(detail[len(head):])
    assert [[Fraction(x) for x in row] for row in named] == drawn[1]
    assert calls == drawn


def test_cayley_image_mismatch_names_the_column(monkeypatch):
    sign = verify.reps.gamma2alpha_star_sign()
    monkeypatch.setattr(verify.reps, "gamma2alpha_star_sign", lambda: -sign)
    ok, detail = _check("cayley-image-one-eigenspace").fn(3)
    assert not ok
    assert detail.startswith(f"seed 3, trial 0: the image of z1 z1 is not in "
                             f"the eigenspace {-sign}: star of [")
    column = [row[0] for row in verify.reps.phi_matrix()]
    named = json.loads(detail.split("star of ")[1].split(" is ")[0])
    assert [Fraction(x) for x in named] == column


def test_cayley_image_checks_every_column(monkeypatch):
    # column 8 (z2 z2) lies outside every seventh column; the form e_1235
    # is no star eigenvector, since star moves it to another basis form
    phi = [list(row) for row in verify.reps.phi_matrix()]
    for mask, row in zip(DEGREE4_MASKS, phi):
        row[8] = Fraction(int(mask == 0b10111))
    monkeypatch.setattr(verify.reps, "phi_matrix", lambda: phi)
    ok, detail = _check("cayley-image-one-eigenspace").fn(3)
    assert not ok
    assert detail.startswith("seed 3, trial 8: the image of z2 z2 is not in ")


def test_parity_mismatch_names_seed_trial_and_spinor(monkeypatch):
    monkeypatch.setattr(verify, "rank", lambda m: 5)
    ok, detail = _check("subspace-parity").fn(11)
    head = "seed 11, trial 0: cell-move route spans another subspace at s = "
    assert not ok and detail.startswith(head)
    z = verify.random_isotropic_spinor(random.Random(11))
    assert [Fraction(x) for x in json.loads(detail[len(head):])] == z.z


def test_odd_parity_names_seed_trial_and_spinor(monkeypatch):
    real = verify.spingeo.rank
    # the rank of the top four rows of the basis decides the parity
    monkeypatch.setattr(verify.spingeo, "rank",
                        lambda m: 3 if len(m) == 4 else real(m))
    ok, detail = _check("subspace-parity").fn(11)
    head = ("seed 11, trial 0: spinor produced an odd-component subspace "
            "at s = ")
    assert not ok and detail.startswith(head)
    z = verify.random_isotropic_spinor(random.Random(11))
    assert [Fraction(x) for x in json.loads(detail[len(head):])] == z.z


def _scalar_triples(seed):
    """The 1000 triples of field-axioms at the seed, drawn as it draws
    them."""
    rng, r, out = random.Random(seed), verify._rand_rational, []
    for _ in range(1000):
        kind = rng.randrange(3)
        if kind == 0:
            out.append([r(rng) for _ in range(3)])
        elif kind == 1:
            out.append([verify.QuadExt(r(rng), r(rng), -5) for _ in range(3)])
        else:
            out.append([verify.TowerScalar(*(r(rng) for _ in range(4)), m=-5)
                        for _ in range(3)])
    return out


def test_field_axioms_failure_names_seed_trial_and_triple(monkeypatch):
    real = verify.TowerScalar.__mul__
    monkeypatch.setattr(verify.TowerScalar, "__mul__",
                        lambda x, y: real(x, y) + 1)
    ok, detail = _check("field-axioms").fn(4)
    triples = _scalar_triples(4)
    trial = next(t for t, xs in enumerate(triples)
                 if isinstance(xs[0], verify.TowerScalar))
    head = f"seed 4, trial {trial}: multiplicative axioms failed at a, b, c = "
    assert not ok and detail.startswith(head)
    named = [decode_scalar(x) for x in json.loads(detail[len(head):])]
    assert named == triples[trial]


def test_commutator_identity_failure_names_seed_trial_and_vectors(
        monkeypatch):
    monkeypatch.setattr(verify, "commutator", _nth_call_changed(
        verify.commutator, 3, lambda out: out + 1))
    ok, detail = _check("degree2-commutator").fn(6)
    rng = random.Random(6)
    drawn = [[[Fraction(rng.randint(-2, 2)) for _ in range(8)]
              for _ in range(3)] for _ in range(4)]
    head = "seed 6, trial 3: commutator identity failed at x, y, v = "
    assert not ok and detail.startswith(head)
    named = json.loads(detail[len(head):])
    assert [[Fraction(c) for c in row] for row in named] == drawn[3]


def _named_terms(text):
    """The {mask: coefficient} terms named as one JSON list."""
    return [{int(m): Fraction(c) for m, c in terms.items()}
            for terms in json.loads(text)]


def test_module_law_failure_names_seed_trial_and_inputs(monkeypatch):
    calls = []
    real = verify.sigma_action

    def wrapped(x, eta):
        calls.append((x, eta))
        out = real(x, eta)
        # call 3 t + 2 is sigma(x, sigma(y, eta)) in trial t
        return out + Multivector.one(4) if len(calls) == 3 * 5 + 3 else out

    monkeypatch.setattr(verify, "sigma_action", wrapped)
    ok, detail = _check("module-structure").fn(8)
    head = "seed 8, trial 5: module law failed at x, y, eta = "
    assert not ok and detail.startswith(head)
    assert _named_terms(detail[len(head):]) == [
        calls[17][0].terms, calls[16][0].terms, calls[15][1].terms]


def test_module_parity_failure_names_seed_trial_and_inputs(monkeypatch):
    calls = []
    real = verify.sigma_action

    def wrapped(x, eta):
        calls.append((x, eta))
        out = real(x, eta)
        # the parity trials start after 3 calls in each of 1000 trials
        return (out + Multivector.basis_vector(4, 0)
                if len(calls) == 3000 + 2 + 1 else out)

    monkeypatch.setattr(verify, "sigma_action", wrapped)
    ok, detail = _check("module-structure").fn(8)
    head = "seed 8, parity trial 2: even element mixed the halves at x, eta = "
    assert not ok and detail.startswith(head)
    assert _named_terms(detail[len(head):]) == [calls[3002][0].terms,
                                                calls[3002][1].terms]


def _center_changed(n, change):
    """kuga.ks_center with the output of call n (from 0) changed."""
    return _nth_call_changed(verify.kuga.ks_center, n, change)


@pytest.mark.parametrize("trial", [0, 2])
def test_center_of_other_dimension_names_seed_trial_and_change(monkeypatch,
                                                               trial):
    monkeypatch.setattr(verify.kuga, "ks_center", _center_changed(
        trial, lambda out: (out[0] + [out[0][0]], None)))
    ok, detail = _check("center-basis-invariance").fn(3)
    rng = random.Random(3)
    changes = [verify.identity(6)] + [verify._random_unimodular(rng, 6)
                                      for _ in range(2)]
    head = f"seed 3, trial {trial}: T = "
    tail = ": center of dimension 3, not 2"
    assert not ok and detail.startswith(head) and detail.endswith(tail)
    named = json.loads(detail[len(head):-len(tail)])
    assert [[Fraction(x) for x in row] for row in named] == changes[trial]


def test_center_square_class_mismatch_names_the_classes(monkeypatch):
    monkeypatch.setattr(verify.kuga, "ks_center", _center_changed(
        1, lambda out: (out[0], 2 * out[1])))
    ok, detail = _check("center-basis-invariance").fn(3)
    assert not ok and detail.startswith("seed 3, trial 1: T = [[")
    assert detail.endswith(": square class -2, not -1")


def test_wedge_associativity_failure_names_seed_trial_and_forms(monkeypatch):
    calls = []
    real = verify.wedge

    def wrapped(x, y):
        calls.append((x, y))
        out = real(x, y)
        # call 4 t + 1 is (x ^ y) ^ z in trial t
        return out + Multivector.one(4) if len(calls) == 4 * 6 + 2 else out

    monkeypatch.setattr(verify, "wedge", wrapped)
    ok, detail = _check("wedge-algebra").fn(9)
    head = "seed 9, trial 6: associativity failed at x, y, z = "
    assert not ok and detail.startswith(head)
    named = [decode_multivector(terms, 4)
             for terms in json.loads(detail[len(head):])]
    assert named == [calls[24][0], calls[24][1], calls[26][1]]


def test_spinor_image_failure_names_seed_trial_and_matrix(monkeypatch):
    drawn = []

    def spinor_map(b):
        drawn.append(b)
        return Spinor([1, 0, 0, 0, 1, 0, 0, 0] if len(drawn) == 8 else
                      [1] + [0] * 7)

    monkeypatch.setattr(verify, "spinor_map", spinor_map)
    ok, detail = _check("spinor-image-isotropic").fn(12)
    head = "seed 12, trial 7: image left the quadric at B = "
    assert not ok and detail.startswith(head)
    named = json.loads(detail[len(head):])
    assert [[Fraction(x) for x in row] for row in named] == drawn[7]
    rng = random.Random(12)
    assert drawn == [verify.random_alternating(rng) for _ in range(8)]


def _wrong_at(call, real, change):
    """real, with the result of its call number `call` (from 0) changed."""
    calls = []

    def wrapped(*args):
        calls.append(args)
        out = real(*args)
        return change(out) if len(calls) - 1 == call else out
    wrapped.calls = calls
    return wrapped


def test_mukai_pairing_failure_names_seed_trial_and_vectors(monkeypatch):
    wrong = _wrong_at(3, verify.lattices.mukai_pairing, lambda x: x + 1)
    monkeypatch.setattr(verify.lattices, "mukai_pairing", wrong)
    ok, detail = _check("mukai-pairing").fn(5)
    head = ("seed 5, trial 3: pairing differs from -(r s' + r' s) + c . c' "
            "at v, w = ")
    assert not ok and detail.startswith(head)
    v, w = wrong.calls[3]
    assert json.loads(detail[len(head):]) == [[v.r, list(v.c), v.s],
                                              [w.r, list(w.c), w.s]]


def test_mukai_exponential_failure_names_seed_trial_and_matrix(monkeypatch):
    wrong = _wrong_at(4, verify.spinor_map, lambda s: s.scale(2))
    monkeypatch.setattr(verify, "spinor_map", wrong)
    ok, detail = _check("mukai-pairing").fn(5)
    head = ("seed 5, trial 4 of exp(B): exp(B) is not (1, c(B), -Pf B) of "
            "square 0 at B = ")
    assert not ok and detail.startswith(head)
    named = json.loads(detail[len(head):])
    assert [[Fraction(x) for x in row] for row in named] == wrong.calls[4][0]


def test_mukai_standard_spinor_failure_names_n(monkeypatch):
    monkeypatch.setattr(verify.reps, "standard_spinor",
                        lambda n: Spinor([1, 0, 0, 0, n, 0, 0, 0]))
    ok, detail = _check("mukai-pairing").fn(5)
    assert (ok, detail) == (False, "seed 5, trial s_3: s_n is not "
                            "standard_spinor(-n) of square 2n; (s_n, s_n) "
                            "= \"6\"")


def test_scaling_element_spectrum_prints_its_diagonal_as_text():
    assert _check("scaling-element-spectrum").fn(20240) == (
        True, 'diagonal ["-2", "0", "0", "0", "2", "0", "0", "0"]')


def test_even_closure_failure_names_seed_trial_and_factors(monkeypatch):
    calls = []
    real = verify.clifford.CliffordElement.__mul__

    def wrapped(x, y):
        calls.append((x, y))
        out = real(x, y)
        return out + x.algebra.generator(0) if len(calls) == 7 + 1 else out

    monkeypatch.setattr(verify.clifford.CliffordElement, "__mul__", wrapped)
    ok, detail = _check("even-algebra-closure").fn(5)
    head = ("seed 5, trial 7: product left the even part at the terms of "
            "x, y = ")
    assert not ok and detail.startswith(head)
    assert _named_terms(detail[len(head):]) == [calls[7][0].terms,
                                                calls[7][1].terms]


def test_ks_structure_failure_says_so_and_names_the_seed(monkeypatch):
    monkeypatch.setattr(verify.kuga, "ks_right_commutation",
                        lambda datum, seed: False)
    assert _check("ks-complex-structure").fn(4) == (
        False, "seed 4: a right multiplication by a random even element "
        "does not commute with J_KS")
