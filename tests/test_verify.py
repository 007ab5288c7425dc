"""Every check of the verify registry passes at the default seed and at two
more seeds."""

import functools
import inspect
import json
import os
import random
from fractions import Fraction

import pytest

from spinweil import cli, scalars, verify
from spinweil.jsonio import decode_multivector, decode_scalar, to_text
from spinweil.multivector import DEGREE4_MASKS, Multivector
from spinweil.spingeo import STANDARD_H, STANDARD_S, Spinor
from spinweil.weil import STANDARD_PERIOD

import table_references as reference

SEEDS = (20240, 1, 2)

#: every check in registry order: name, suite, identity and the detail it
#: passes with, the same at each of SEEDS
CONTRACT = [
    ('field-axioms', 'scalars',
     'associativity, commutativity, distributivity, inverses for the'
     ' three scalar types',
     '1000 random triples'),
    ('conjugation-and-norm', 'scalars',
     'conj is an involution and Nm(xy) = Nm(x) Nm(y)',
     '300 random pairs'),
    ('hilbert-bilinearity', 'scalars',
     "(a,b)p = (b,a)p and (a a', b)p = (a,b)p (a',b)p",
     '300 random triples over 6 places'),
    ('hilbert-product-formula', 'scalars',
     'the product of (a,b)p over all places is +1',
     '100 random pairs'),
    ('signature-invariance', 'lattices',
     'Sylvester signature is unchanged by unimodular change of basis',
     '20 random congruences'),
    ('quadric-is-isotropy', 'lattices',
     'z on the quadric iff (z,z) = 0 iff z1 z5 + z2 z6 + z3 z7 + z4 '
     'z8 = 0',
     '1000 random isotropic spinors'),
    ('complement-orthogonality', 'lattices',
     'every output of the complement pairs to zero with every input',
     '25 random vector pairs'),
    ('wedge-algebra', 'exterior',
     'wedge is associative and graded-commutative',
     '1000 associativity + 200 commutativity triples'),
    ('contraction-derivation', 'exterior',
     'D(x ^ y) = D(x) ^ y + (-1)^deg(x) x ^ D(y)',
     '300 random pairs'),
    ('pfaffian-congruence', 'exterior',
     'Pfaff(T^t B T) = det(T) Pfaff(B), and Pfaff(B)^2 = det(B)',
     '50 random matrices of sizes 4 and 6'),
    ('pluecker-equivariance', 'exterior',
     'pluecker(M A) = det(A) pluecker(M) for 4 x 4 A',
     '50 random pairs'),
    ('star-self-adjoint', 'exterior',
     '(star x, y) = (x, star y) for the induced degree-4 pairing',
     '70 x 70 exact matrix identity'),
    ('spin-dimension', 'clifford',
     'the 28 basis elements of spin(V) are independent, n(2n-1) = 28',
     'rank 28 of 28'),
    ('degree2-commutator', 'clifford',
     '[x y, v] = (y,v) x - (x,v) y for vectors x, y, v',
     '1000 random triples'),
    ('module-structure', 'clifford',
     'sigma(x y, n) = sigma(x, sigma(y, n)) and evens preserve the '
     'half-spin split',
     '1000 module law + 100 parity trials'),
    ('twisted-conjugation-orthogonal', 'clifford',
     'x v x* defines an orthogonal matrix of determinant one',
     '25 random group elements'),
    ('spinor-image-isotropic', 'spinor',
     'the spinor image of every alternating matrix lies on the '
     'quadric',
     '500 random matrices'),
    ('spinor-equivariance', 'spinor',
     'the spinor map intertwines the vector and half-spin actions',
     '100 random (g, B) pairs'),
    ('subspace-parity', 'spinor',
     'spinor subspaces meet the reference half in even dimension',
     '200 random isotropic spinors'),
    ('paper-point-fixtures', 'spinor',
     'the two distinguished complex quadric points and their '
     '2-dimensional intersection',
     'intersection dimension 2'),
    ('bracket-compatibility', 'reps',
     'action([x, y]) = [action(x), action(y)] on all seven spaces',
     'randomized pairs on all seven spaces'),
    ('symmetric-square-split', 'reps',
     'squares of quadric points span 35 dimensions, the invariant '
     'line completes the 36, and phi kills the invariant line',
     '35 + 1 = 36 split, phi(gamma0) = 0'),
    ('veronese-pluecker', 'reps',
     'phi(z (.) z) is the Pluecker image of the subspace of z, for z'
     ' the spinor of B',
     '3 random B'),
    ('star-eigenspaces-stable', 'reps',
     'the Hodge star commutes with every derived degree-4 action',
     '4 random generators'),
    ('cayley-image-one-eigenspace', 'reps',
     'the symmetric-square image lands in a single star eigenspace',
     'eigenvalue 1'),
    ('scaling-element-spectrum', 'reps',
     'the sum of the Cartan generators acts on S+ with spectrum {2, '
     '-2, 0^6} and the stated eigenvectors',
     'diagonal ["-2", "0", "0", "0", "2", "0", "0", "0"]'),
    ('weil-datum-battery', 'weil',
     'J^2 = -I, orthogonality, mu^2 = -d, commutation, balanced '
     'trace, E alternating (1,1) positive, trivial discriminant',
     '4 sampled periods, full battery'),
    ('hodge-criterion', 'weil',
     'the derivation of J kills the Cayley class iff the period is '
     'orthogonal to the spinor',
     '20 periods, both signs of the criterion'),
    ('omega-invariant-line', 'weil',
     'the polarization form spans the stabilizer-invariant line in '
     'degree 2',
     'standard datum'),
    ('field-scan', 'weil',
     'the discriminant fields realize squarefree parts 1, 2, 3, 5',
     'parts [1, 2, 3, 5]'),
    ('even-algebra-closure', 'kuga',
     'the even Clifford algebra of the complement has dimension 32 '
     'and is closed under multiplication',
     '50 random products'),
    ('center-basis-invariance', 'kuga',
     'the center dimension and generator square class are unchanged '
     'by unimodular change of basis',
     'square class -1'),
    ('ks-complex-structure', 'kuga',
     'J_KS squares to -I and commutes with right multiplications',
     'construction validates J^2 = -I internally'),
    ('mukai-pairing', 'mukai',
     'z -> (z_0, (z_1, z_5, z_2, z_6, z_3, z_7), -z_4) is an '
     'isometry of S+ onto the Mukai lattice, exp(B) goes to (1, '
     'c(B), -Pf B) of square 0, and (s_n, s_n) = 2n',
     '100 random pairs, 50 exponentials, n in {3, 4, 5}'),
]


@functools.lru_cache(maxsize=None)
def _results(seed):
    """check.fn(seed) of every check, by name, run once per seed."""
    return {c.name: c.fn(seed) for c in verify.CHECKS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda c: c.name)
def test_registry_check_passes(check, seed):
    ok, detail = _results(seed)[check.name]
    assert ok, f"{check.suite}/{check.name} failed at seed {seed}: {detail}"


@pytest.mark.parametrize("seed", SEEDS)
def test_registry_keeps_its_checks_and_passing_details(seed):
    rows = [(c.name, c.suite, c.identity, *_results(seed)[c.name])
            for c in verify.CHECKS]
    assert rows == [(name, suite, identity, True, detail)
                    for name, suite, identity, detail in CONTRACT]


def _at_call(real, n, act):
    """real, with the (args, kwargs) of every call kept in .calls; call
    number n (from 0) raises act when act is an exception, and returns
    act(its result) otherwise."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append((args, kwargs))
        at_n = len(calls) - 1 == n
        if at_n and isinstance(act, Exception):
            raise act
        out = real(*args, **kwargs)
        return act(out) if at_n else out
    wrapped.calls = calls
    return wrapped


def _site(fn, text):
    """"(<file>:<line> in <fn's name>)", the line of fn's source that holds
    text: where a crash there is named."""
    lines, first = inspect.getsourcelines(fn)
    line = first + next(i for i, x in enumerate(lines) if text in x)
    return (f"({os.path.basename(inspect.getsourcefile(fn))}:{line} in "
            f"{fn.__name__})")


@pytest.mark.parametrize("name", ["spinor-equivariance",
                                  "twisted-conjugation-orthogonal"])
def test_group_check_failures_name_seed_and_trial(monkeypatch, name):
    check = next(c for c in verify.CHECKS if c.name == name)
    monkeypatch.setattr(verify.clifford, "twisted_conjugation",
                        _at_call(verify.clifford.twisted_conjugation, 2,
                                 ValueError("conjugation by x does not "
                                            "preserve V")))
    ok, detail = check.fn(7)
    assert not ok
    assert detail.startswith("seed 7, trial 2: ")
    assert "conjugation by x does not preserve V" in detail


def _named_dict(terms):
    """The {mask: coefficient} terms of one JSON object."""
    return {int(m): Fraction(c) for m, c in terms.items()}


def test_equivariance_mismatch_names_seed_and_trial(monkeypatch):
    monkeypatch.setattr(verify, "rank", lambda m: 5)
    ok, detail = next(c for c in verify.CHECKS
                      if c.name == "spinor-equivariance").fn(11)
    head = ("seed 11, trial 0: moved subspace does not match moved spinor "
            "at the terms of g, B = ")
    assert not ok and detail.startswith(head)
    rng = random.Random(11)
    g = verify.clifford.random_spin_group_element(rng)
    b = verify.random_alternating(rng, lo=-2, hi=2)
    terms, named = json.loads(detail[len(head):])
    assert _named_dict(terms) == g.terms
    assert [[Fraction(x) for x in row] for row in named] == b


def test_orthogonality_mismatch_names_seed_and_trial(monkeypatch):
    monkeypatch.setattr(verify, "det", lambda m: 2)
    ok, detail = next(c for c in verify.CHECKS
                      if c.name == "twisted-conjugation-orthogonal").fn(11)
    head = ("seed 11, trial 0: matrix is not special orthogonal at the "
            "terms of g = ")
    assert not ok and detail.startswith(head)
    g = verify.clifford.random_spin_group_element(random.Random(11))
    assert _named_dict(json.loads(detail[len(head):])) == g.terms


def _check(name):
    return next(c for c in verify.CHECKS if c.name == name)


def test_weil_battery_failure_names_seed_trial_and_period(monkeypatch):
    wrong = _at_call(verify.weil.make_weil_datum, 2,
                     RuntimeError("J^2 = -I failed"))
    monkeypatch.setattr(verify.weil, "make_weil_datum", wrong)
    ok, detail = _check("weil-datum-battery").fn(7)
    period_seed = wrong.calls[2][1]["seed"]
    # the raise is in this file: the crash names the package line that
    # called the patched function
    site = _site(verify.check_weil_battery, "weil.make_weil_datum(")
    assert (ok, detail) == (
        False, f"seed 7, trial 2: RuntimeError: J^2 = -I failed {site} "
               f"= {period_seed}")


def test_weil_battery_mismatch_names_seed_trial_and_period(monkeypatch):
    log = []

    def report(datum):
        log.append(datum)
        return {"discriminant_trivial": len(log) != 2, "discriminant": "1"}

    monkeypatch.setattr(verify.weil, "datum_report", report)
    ok, detail = _check("weil-datum-battery").fn(7)
    head = ('seed 7, trial 1: report fields ["discriminant_trivial"] false '
            "at the period's seed = ")
    assert not ok and detail.startswith(head)
    # the named sample seed reproduces the period of the failing trial
    period_seed = int(detail[len(head):])
    assert verify.weil.sample_period(
        STANDARD_H, STANDARD_S, seed=period_seed) == log[1].period


def test_hodge_failure_names_seed_trial_and_period(monkeypatch):
    wrong = _at_call(verify.weil.cayley_hodge_test, 5,
                     RuntimeError("J^2 = -I failed"))
    monkeypatch.setattr(verify.weil, "cayley_hodge_test", wrong)
    ok, detail = _check("hodge-criterion").fn(7)
    assert not ok
    # call 5 is the second (generic) period of trial 2
    site = _site(verify.check_hodge_criterion, "weil.cayley_hodge_test(")
    head = (f"seed 7, trial 2 on the generic plane: RuntimeError: J^2 = -I "
            f"failed {site} = ")
    assert detail.startswith(head)
    period_seed = int(detail[len(head):])
    (_, period), _ = wrong.calls[5]
    assert verify.weil.sample_period(
        STANDARD_PERIOD[0], STANDARD_H, seed=period_seed) == period


def test_hodge_mismatch_names_seed_trial_and_period(monkeypatch):
    monkeypatch.setattr(verify.weil, "cayley_hodge_test",
                        lambda s, per: False)
    ok, detail = _check("hodge-criterion").fn(3)
    assert (ok, detail) == (
        False, f"seed 3, trial 0 on the orthogonal plane: criterion "
               f"mismatched at the sample seed of the period = "
               f"{random.Random(3).randrange(10 ** 6)}")


# -- the checks that read the one-time tables, and subspace-parity ------------

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
        False, 'seed 5, trial 0: (star x, y) is "1", not "0" as (x, star y) '
               'at basis forms x, y = ["e1235", "e5678"]')


def test_star_stability_mismatch_names_the_generator(monkeypatch):
    monkeypatch.setattr(verify.reps, "derived_action", _at_call(
        verify.reps.derived_action, 2, _plus_unit))
    ok, detail = _check("star-eigenspaces-stable").fn(7)
    rng = random.Random(7)
    label = verify.clifford.spin_v_xyz_table()[
        [rng.randrange(28) for _ in range(3)][2]][0]
    head = "seed 7, trial 2: star M(x) is "
    tail = " as M(x) star at x, row, column = "
    assert not ok and detail.startswith(head) and tail in detail
    assert json.loads(detail.split(tail)[1])[0] == label


def test_bracket_mismatch_names_space_and_elements(monkeypatch):
    # call 3 t + 2 is the action of [x, y] in trial t
    monkeypatch.setattr(verify.reps, "derived_action", _at_call(
        verify.reps.derived_action, 3 * 4 + 2, _plus_unit))
    ok, detail = _check("bracket-compatibility").fn(9)
    rng = random.Random(9)
    draws = [(rng.randrange(28), rng.randint(1, 3)) for _ in range(10)]
    table = verify.clifford.spin_v_xyz_table()
    (a, ca), (b, cb) = draws[8], draws[9]
    head = "seed 9, trial 4: [action(x), action(y)] is "
    tail = " as action([x, y]) on space, x, y, row, column = "
    assert not ok and detail.startswith(head) and tail in detail
    assert json.loads(detail.split(tail)[1]) == [
        "Sym2S+", f"{ca}*{table[a][0]}", f"{cb}*{table[b][0]}", 0, 1]


def test_symmetric_square_split_names_the_dependent_sample(monkeypatch):
    samples = list(verify.reps.quadric_square_span())
    samples[4] = samples[2]
    monkeypatch.setattr(verify.reps, "quadric_square_span", lambda: samples)
    ok, detail = _check("symmetric-square-split").fn(3)
    assert not ok
    head = ("seed 3, trial 4: the 4 vectors before it span the square of "
            "sample B = ")
    assert detail.startswith(head)
    named = json.loads(detail[len(head):])
    assert [[Fraction(x) for x in row] for row in named] == samples[2][0]


def test_symmetric_square_split_names_the_image_of_the_invariant_line(
        monkeypatch):
    line = reference.sym2_invariant_line()
    col = next(j for j, x in enumerate(line) if x != 0)
    phi = [row[:] for row in verify.reps.phi_matrix()]
    phi[5][col] += 1
    monkeypatch.setattr(verify.reps, "phi_matrix", lambda: phi)
    ok, detail = _check("symmetric-square-split").fn(3)
    assert not ok
    head = "seed 3, trial 35: phi(u) is "
    tail = ", not 0, at the invariant line u = "
    assert detail.startswith(head) and tail in detail
    image, named = (json.loads(x) for x in detail[len(head):].split(tail))
    assert [Fraction(x) for x in image] == \
        [line[col] if r == 5 else 0 for r in range(70)]
    assert [Fraction(x) for x in named] == line


def test_veronese_pluecker_names_seed_trial_and_b(monkeypatch):
    # trial 1's subspace has its first basis vector doubled, so its
    # Pluecker image is twice phi(z (.) z)
    graph = _at_call(verify.graph_basis, 1,
                     lambda basis: [[2 * row[0], *row[1:]] for row in basis])
    monkeypatch.setattr(verify, "graph_basis", graph)
    ok, detail = _check("veronese-pluecker").fn(5)
    assert not ok
    head = "seed 5, trial 1: phi(z (.) z) is not the Pluecker image at B = "
    assert detail.startswith(head)
    rng = random.Random(5)
    drawn = [verify.random_alternating(rng) for _ in range(2)]
    named = json.loads(detail[len(head):])
    assert [[Fraction(x) for x in row] for row in named] == drawn[1]
    assert [args for args, _ in graph.calls] == [(b,) for b in drawn]


def test_cayley_image_mismatch_names_the_column(monkeypatch):
    sign = verify.reps.gamma2alpha_star_sign()
    monkeypatch.setattr(verify.reps, "gamma2alpha_star_sign", lambda: -sign)
    ok, detail = _check("cayley-image-one-eigenspace").fn(3)
    assert not ok
    assert detail.startswith(f"seed 3, trial 0: the image is not in the "
                             f"eigenspace {-sign}: star of [")
    assert detail.endswith(', at the monomial = "z1 z1"')
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
    assert detail.startswith("seed 3, trial 8: the image is not in ")
    assert detail.endswith('"z2 z2"')


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
    head = ("seed 11, trial 0: RuntimeError: spinor produced an "
            "odd-component subspace "
            f"{_site(verify.spingeo.subspace_of_spinor, 'odd-component')} = ")
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
    monkeypatch.setattr(verify, "commutator", _at_call(
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
        return (out + Multivector(4, {1: 1})
                if len(calls) == 3000 + 2 + 1 else out)

    monkeypatch.setattr(verify, "sigma_action", wrapped)
    ok, detail = _check("module-structure").fn(8)
    head = ("seed 8, trial 2 of parity: even element mixed the halves at "
            "x, eta = ")
    assert not ok and detail.startswith(head)
    assert _named_terms(detail[len(head):]) == [calls[3002][0].terms,
                                                calls[3002][1].terms]


@pytest.mark.parametrize("trial", [0, 2])
def test_center_of_other_dimension_names_seed_trial_and_change(monkeypatch,
                                                               trial):
    monkeypatch.setattr(verify.kuga, "ks_center", _at_call(
        verify.kuga.ks_center, trial,
        lambda out: (out[0] + [out[0][0]], None)))
    ok, detail = _check("center-basis-invariance").fn(3)
    rng = random.Random(3)
    changes = [verify.identity(6)] + [verify._random_unimodular(rng, 6)
                                      for _ in range(2)]
    head = f"seed 3, trial {trial}: center of dimension 3, not 2, at T = "
    assert not ok and detail.startswith(head)
    named = json.loads(detail[len(head):])
    assert [[Fraction(x) for x in row] for row in named] == changes[trial]


def test_center_square_class_mismatch_names_the_classes(monkeypatch):
    monkeypatch.setattr(verify.kuga, "ks_center", _at_call(
        verify.kuga.ks_center, 1, lambda out: (out[0], 2 * out[1])))
    ok, detail = _check("center-basis-invariance").fn(3)
    head = "seed 3, trial 1: square class -2, not -1, at T = "
    assert not ok and detail.startswith(head)
    rng = random.Random(3)
    named = json.loads(detail[len(head):])
    assert [[Fraction(x) for x in row] for row in named] == \
        verify._random_unimodular(rng, 6)


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


def test_mukai_pairing_failure_names_seed_trial_and_vectors(monkeypatch):
    wrong = _at_call(verify.lattices.mukai_pairing, 3,
                              lambda x: x + 1)
    monkeypatch.setattr(verify.lattices, "mukai_pairing", wrong)
    ok, detail = _check("mukai-pairing").fn(5)
    head = ("seed 5, trial 3: pairing differs from -(r s' + r' s) + c . c' "
            "at v, w = ")
    assert not ok and detail.startswith(head)
    (v, w), _ = wrong.calls[3]
    assert json.loads(detail[len(head):]) == [[v.r, list(v.c), v.s],
                                              [w.r, list(w.c), w.s]]


def test_mukai_exponential_failure_names_seed_trial_and_matrix(monkeypatch):
    wrong = _at_call(verify.spinor_map, 4, lambda s: s.scale(2))
    monkeypatch.setattr(verify, "spinor_map", wrong)
    ok, detail = _check("mukai-pairing").fn(5)
    head = ("seed 5, trial 4 of exp(B): exp(B) is not (1, c(B), -Pf B) of "
            "square 0 at B = ")
    assert not ok and detail.startswith(head)
    named = json.loads(detail[len(head):])
    (b,), _ = wrong.calls[4]
    assert [[Fraction(x) for x in row] for row in named] == b


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
    seeds = []
    monkeypatch.setattr(verify.kuga, "ks_right_commutation",
                        lambda datum, seed: seeds.append(seed) and False)
    sample_seed = random.Random(4).randrange(10 ** 6)
    assert _check("ks-complex-structure").fn(4) == (
        False, f"seed 4, trial 0: a right multiplication by a random even "
        f"element does not commute with J_KS at the sample seed of the "
        f"elements = {sample_seed}")
    assert seeds == [sample_seed]


# -- _drive: crashes, and the checks that used to name nothing ---------------

def test_every_trial_names_inputs_that_encode_as_json():
    # so that a crash in any trial can be written with its inputs
    for check in verify.CHECKS:
        trials = check.fn.args[0]
        for trial, inputs in trials(random.Random(1)):
            json.loads(to_text(inputs))


def test_a_crash_names_its_type_seed_trial_and_inputs(monkeypatch):
    real, calls = verify.QuadExt.__mul__, []

    def mul(x, y):
        calls.append((x, y))
        if len(calls) == 40:
            raise KeyError(5)
        return real(x, y)

    # the products made before each trial starts, stepping the check itself
    counted = []
    monkeypatch.setattr(verify.QuadExt, "__mul__",
                        lambda x, y: counted.append(x) or real(x, y))
    before = {trial: len(counted) for trial, _ in
              verify.check_field_axioms(random.Random(4))}
    trial = max(t for t, n in before.items() if n < 40)
    monkeypatch.setattr(verify.QuadExt, "__mul__", mul)
    ok, detail = _check("field-axioms").fn(4)
    assert not ok and len(calls) == 40
    # call 40 is the product inside a / a, where QuadExt divides
    site = _site(verify.QuadExt.__truediv__, "self * o.inverse()")
    head = f"seed 4, trial {trial}: KeyError: 5 {site} = "
    assert detail.startswith(head)
    triple = _scalar_triples(4)[trial]
    assert [decode_scalar(x) for x in json.loads(detail[len(head):])] == triple
    # every product of the laws has a factor from the triple it checks
    assert any(x in triple for x in calls[-1])


def test_a_crash_of_a_deterministic_check_names_its_inputs(monkeypatch):
    def omega_line_check(datum):
        raise ValueError("stabilizer of dimension 14")

    monkeypatch.setattr(verify.weil, "omega_line_check", omega_line_check)
    ok, detail = _check("omega-invariant-line").fn(3)
    head = ("seed 3, trial 0: ValueError: stabilizer of dimension 14 "
            f"{_site(verify.check_omega_line, 'weil.omega_line_check(')} = ")
    assert not ok and detail.startswith(head)
    assert json.loads(detail[len(head):]) == [
        list(STANDARD_H), list(STANDARD_S), [list(v) for v in STANDARD_PERIOD]]


def test_verify_prints_a_crash_and_exits_one(monkeypatch, capsys):
    def mukai_pairing(v, w):
        raise KeyError(5)

    monkeypatch.setattr(verify.lattices, "mukai_pairing", mukai_pairing)
    assert cli.main(["verify", "--suite", "mukai"]) == 1
    lines = capsys.readouterr().out.splitlines()
    rng = random.Random(20240)
    v, w = ([rng.randint(-5, 5), [rng.randint(-5, 5) for _ in range(6)],
             rng.randint(-5, 5)] for _ in range(2))
    assert lines[1:] == [
        f"       -> seed 20240, trial 0: KeyError: 5 "
        f"{_site(verify.check_mukai, 'lattices.mukai_pairing(v, w)')} = "
        f"{json.dumps([v, w])}",
        "0/1 checks passed"]


def test_an_arithmetic_crash_names_the_package_line_not_fractions(
        monkeypatch):
    # Fraction(1, 0) raises inside fractions.py; the crash names the
    # package function that built it, not fractions.py or this file
    monkeypatch.setattr(verify.lattices, "mukai_pairing",
                        lambda v, w: scalars._over(1, 0))
    ok, detail = _check("mukai-pairing").fn(5)
    head = ("seed 5, trial 0: ZeroDivisionError: Fraction(1, 0) "
            f"{_site(scalars._over, 'Fraction(c, d)')} = ")
    assert not ok and detail.startswith(head)


def test_omega_line_failure_names_the_datum(monkeypatch):
    monkeypatch.setattr(verify.weil, "omega_line_check", lambda datum: False)
    ok, detail = _check("omega-invariant-line").fn(3)
    head = ("seed 3, trial 0: omega does not span the invariant line at h, "
            "s, period = ")
    assert not ok and detail.startswith(head)
    assert json.loads(detail[len(head):]) == [
        list(STANDARD_H), list(STANDARD_S), [list(v) for v in STANDARD_PERIOD]]


def test_fixture_failure_names_the_matrix_and_both_spinors(monkeypatch):
    real = verify.spinor_map
    wrong = _at_call(real, 1, lambda z: z.scale(2))
    monkeypatch.setattr(verify, "spinor_map", wrong)
    ok, detail = _check("paper-point-fixtures").fn(1)
    head = "seed 1, trial 1: spinor "
    assert not ok and detail.startswith(head)
    spinors, named = detail[len(head):].split(", at B = ")
    got, want = (json.loads(x) for x in spinors.split(", not "))
    (b,), _ = wrong.calls[1]
    assert [decode_scalar(x) for x in got] == [2 * x for x in real(b).z]
    assert [decode_scalar(x) for x in want] == real(b).z
    assert [[decode_scalar(x) for x in row] for row in json.loads(named)] == b


def test_even_closure_of_another_dimension_names_the_gram(monkeypatch):
    real = verify.clifford.CliffordAlgebra.basis_masks
    monkeypatch.setattr(verify.clifford.CliffordAlgebra, "basis_masks",
                        lambda alg, even_only=False:
                        list(real(alg, even_only))[:16])
    ok, detail = _check("even-algebra-closure").fn(5)
    head = ("seed 5, trial set-up: even part of dimension 16, not 32, at the "
            "Gram = ")
    assert not ok and detail.startswith(head)
    gram = verify.kuga.complement_data(STANDARD_H, STANDARD_S)[1].gram
    assert [[Fraction(x) for x in row]
            for row in json.loads(detail[len(head):])] == gram


def test_spin_dimension_failure_names_the_basis(monkeypatch):
    # the fifth basis element acts on V by the zero matrix: rank 27
    monkeypatch.setattr(verify.clifford, "spin_so_iso", _at_call(
        verify.clifford.spin_so_iso, 4, lambda m: [[0] * 8 for _ in m]))
    labels = [label for label, _, _ in verify.clifford.spin_v_xyz_table()]
    assert _check("spin-dimension").fn(2) == (
        False, f"seed 2, trial 0: rank 27 of 28 on V, not 28 of 28, at the "
               f"basis of spin(V) = {json.dumps(labels)}")


def test_scaling_element_failure_names_the_matrix_and_element(monkeypatch):
    monkeypatch.setattr(verify.reps, "derived_action", _at_call(
        verify.reps.derived_action, 0, _plus_unit))
    ok, detail = _check("scaling-element-spectrum").fn(2)
    head = "seed 2, trial 0: x acts on S+ by "
    assert not ok and detail.startswith(head)
    acts, want_named = detail[len(head):].split(", not ")
    want, named = want_named.split(", at x = ")
    x = sum(verify.clifford.cartan_elements(), verify.CV().zero())
    assert [[Fraction(c) for c in row] for row in json.loads(acts)] == \
        _plus_unit(verify.reps.derived_action(x, "S+"))
    diagonal = (-2, 0, 0, 0, 2, 0, 0, 0)
    assert json.loads(want) == [[d if i == j else 0 for j in range(8)]
                                for i, d in enumerate(diagonal)]
    assert _named_dict(json.loads(named)) == x.terms


def test_field_scan_failure_names_the_plane(monkeypatch):
    real = verify.weil.field_parameters

    def field_parameters(h, s):
        d, m, f = real(h, s)
        return (d, -7, f) if h == verify.weil.FIELD_SCAN_H[2] else (d, m, f)

    monkeypatch.setattr(verify.weil, "field_parameters", field_parameters)
    ok, detail = _check("field-scan").fn(2)
    assert (ok, detail) == (
        False, "seed 2, trial 2: squarefree part 7, not 3, at h, s = "
               "[[0, 3, 0, 0, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0, 0, 0]]")


def test_symmetric_square_split_names_a_short_span(monkeypatch):
    samples = list(verify.reps.quadric_square_span())[:34]
    monkeypatch.setattr(verify.reps, "quadric_square_span", lambda: samples)
    ok, detail = _check("symmetric-square-split").fn(3)
    head = ("seed 3, trial 34: u completes a span of 35, not 36, at the "
            "line u = ")
    assert not ok and detail.startswith(head)
    assert [Fraction(x) for x in json.loads(detail[len(head):])] == \
        reference.sym2_invariant_line()


def test_symmetric_square_split_names_an_invariant_space_of_another_dimension(
        monkeypatch):
    found = [[1] * 36, [2] * 36]
    monkeypatch.setattr(verify.reps, "invariant_subspace",
                        lambda gens, space: found)
    ok, detail = _check("symmetric-square-split").fn(3)
    assert (ok, detail) == (
        False, f"seed 3, trial set-up: the spin(V)-invariants of Sym^2 S+ "
               f"span dimension 2, not 1, at their basis = {to_text(found)}")
    assert "Error" not in detail


def test_hodge_criterion_fails_unless_both_answers_occur(monkeypatch):
    monkeypatch.setattr(verify.weil, "cayley_hodge_test", lambda s, per: True)
    monkeypatch.setattr(verify.weil.Period, "pairs_to_zero_with",
                        lambda per, z: True)
    assert _check("hodge-criterion").fn(20240) == (
        False, f"seed 20240, trial all: one sign only: the answers = "
               f"{json.dumps([True] * 20)}")
