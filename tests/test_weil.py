import json
import random
import re
from fractions import Fraction

import pytest

from spinweil import weil
from spinweil.jsonio import decode_vector
from spinweil.lattices import make_V, orthogonal_complement
from spinweil.linalg import (det, identity, inverse, mat, mat_mul, mat_vec,
                             rank)
from spinweil.multivector import Multivector, mask_of
from spinweil.reps import cayley_class
from spinweil.scalars import QuadExt, TowerScalar, is_norm
from spinweil.spingeo import (STANDARD_H, STANDARD_S, Spinor, splus_lattice,
                              subspace_of_spinor)
from spinweil.weil import (FIELD_SCAN_H, STANDARD_PERIOD, Period,
                           _spinor_ratio, cayley_hodge_test,
                           complex_structure, datum_report, field_parameters,
                           h2_split, k_action, kappa_spinor, make_weil_datum,
                           omega_line_check, polarization, sample_period,
                           weil_class_space, weil_condition)

import table_references as reference

NU1 = (1, 1, 1, 1, 1, 1, 1, 1)
NU2 = (1, 1, -1, -1, 1, 1, -1, -1)
NU3 = (1, -1, 1, -1, 1, -1, 1, -1)
NU4 = (1, -1, -1, 1, 1, -1, -1, 1)


def test_period_standard_example(standard_period):
    lat = splus_lattice()
    p, q = list(standard_period.p), list(standard_period.q)
    # direct evaluation with the form on S+
    assert lat.pair(p, p) == 2 and lat.pair(q, q) == 2
    assert lat.pair(p, q) == 0
    # (ell, ell) = (p,p) - (q,q) = 0 and (ell, conj ell) = (p,p) + (q,q) > 0
    ell = standard_period.spinor()
    assert ell.pair(ell) == 0
    assert ell.pair(Spinor([c.conj() for c in ell.z])) == 4


def test_period_validation():
    with pytest.raises(ValueError):
        Period((1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0))  # norms 0
    with pytest.raises(ValueError):
        Period((0, 0, 1, 0, 0, 0, 1, 0), (0, 0, 2, 0, 0, 0, 2, 0))  # not perp


def test_nu_configuration_periods():
    lat = splus_lattice()
    for nu in (NU1, NU2, NU3, NU4):
        assert lat.pair(list(nu), list(nu)) == 8
    ell = Period(NU1, NU2).spinor()
    assert ell.pair(Spinor([c.conj() for c in ell.z])) == 16


def test_sample_period_orthogonality(standard_h, standard_s):
    for seed in range(5):
        per = sample_period(standard_h, standard_s, seed=seed)
        assert per.pairs_to_zero_with(standard_h.z)
        assert per.pairs_to_zero_with(standard_s.z)


def test_sample_period_rejects_bad_plane():
    iso = Spinor([1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        sample_period(iso, Spinor([0, 1, 0, 0, 0, 1, 0, 0]))


def reference_sample_period(h, s, seed=0, tries=5000):
    """The period search on rational vectors: each draw is a Fraction
    combination of the complement basis and every pairing a Fraction."""
    lat = splus_lattice()
    comp = orthogonal_complement(lat, [h.z, s.z])
    rng = random.Random(seed)

    def draw():
        while True:
            c6 = [rng.randint(-3, 3) for _ in range(6)]
            if any(c6):
                return [sum(Fraction(c6[k]) * comp[k][i] for k in range(6))
                        for i in range(8)]

    positives = []
    for _ in range(tries):
        w = draw()
        if lat.pair(w, w) <= 0:
            continue
        for u in positives:
            a = lat.pair(u, u)
            t = lat.pair(u, w)
            proj = [wi - (t / a) * ui for wi, ui in zip(w, u)]
            c = lat.pair(proj, proj)
            if c > 0 and reference.is_square(a * c):
                return reference.period_of_pair(lat, u, w)
        if len(positives) < 64:
            positives.append(w)
    raise RuntimeError("period search exhausted the height cap")


#: (h, s) planes of the period search: the four h of the field scan with
#: the standard s, the standard plane, the plane of the generic periods of
#: the hodge-criterion check, the nu plane, a plane with a Fraction and the
#: (1, 2, 4, 8) plane
PERIOD_PLANES = (
    [(h, STANDARD_S, 25) for h in FIELD_SCAN_H]
    + [(STANDARD_H, STANDARD_S, 50), (STANDARD_PERIOD[0], STANDARD_H, 50),
       (NU1, NU2, 10),
       ([0, Fraction(1, 2), 0, 0, 0, 3, 0, 0], STANDARD_S, 10),
       ((1, -1, 0, -1, 1, 1, -2, -2), (2, 2, 0, 0, 0, 2, 1, 2), 10)])


def test_sample_period_matches_rational_search():
    cases = 0
    for h, s, count in PERIOD_PLANES:
        h, s = Spinor(list(h)), Spinor(list(s))
        for seed in range(count):
            got = sample_period(h, s, seed=seed)
            expected = reference_sample_period(h, s, seed=seed)
            assert got == expected
            assert repr(got) == repr(expected)
            assert [type(x) for x in got.p + got.q] == \
                [type(x) for x in expected.p + expected.q]
            cases += 1
    assert cases >= 200


def test_sample_period_failure_names_its_inputs(monkeypatch):
    monkeypatch.setattr(weil, "PERIOD_TRIES", 1)
    h, s = Spinor([0, Fraction(1, 2), 0, 0, 0, 3, 0, 0]), Spinor(STANDARD_S)
    with pytest.raises(RuntimeError) as info:
        sample_period(h, s, seed=17)
    message = str(info.value)
    assert message == (
        'period search exhausted the height cap: h = ["0", "1/2", "0", '
        '"0", "0", "3", "0", "0"], s = ["1", "0", "0", "0", "1", "0", '
        '"0", "0"], seed 17, tries 1')
    # the message alone reproduces the call
    hz, sz, seed, tries = re.fullmatch(
        r".*h = (\[.*\]), s = (\[.*\]), seed (\d+), tries (\d+)",
        message).groups()
    assert int(tries) == weil.PERIOD_TRIES
    with pytest.raises(RuntimeError, match=re.escape(message)):
        sample_period(Spinor(decode_vector(json.loads(hz))),
                      Spinor(decode_vector(json.loads(sz))), seed=int(seed))


def test_complex_structure_properties(standard_period):
    j = complex_structure(standard_period)
    minus_one = [[Fraction(-1 if a == b else 0) for b in range(8)]
                 for a in range(8)]
    assert mat_mul(j, j) == minus_one
    g = make_V().gram
    jt = [[j[b][a] for b in range(8)] for a in range(8)]
    assert mat_mul(jt, mat_mul(g, j)) == g
    # eigen-test over the Gaussian rationals: (J - i) kills the subspace
    z = subspace_of_spinor(standard_period.spinor())
    i_unit = QuadExt(0, 1, -1)
    for col in range(4):
        v = [z[r][col] for r in range(8)]
        jv = [sum(QuadExt(j[r][k], 0, -1) * v[k] for k in range(8))
              for r in range(8)]
        assert jv == [i_unit * x for x in v]


def conj_matrix(m):
    return [[x.conj() if isinstance(x, QuadExt) else x for x in row]
            for row in m]


def rational_part(m):
    """The rational entries of m; fails on an irrational entry."""
    assert all(x.b == 0 for row in m for x in row if isinstance(x, QuadExt))
    return [[x.a if isinstance(x, QuadExt) else Fraction(x) for x in row]
            for row in m]


def eigen_assembly(basis_plus, lam):
    """The matrix acting by lam on the column span of basis_plus and by
    -lam on its conjugate, assembled over the quadratic field."""
    basis_minus = conj_matrix(basis_plus)
    p = [basis_plus[i] + basis_minus[i] for i in range(8)]
    pinv = inverse(p)
    scaled = [[(lam if j < 4 else -lam) * pinv[j][k] for k in range(8)]
              for j in range(8)]
    return rational_part(mat_mul(p, scaled))


def reference_complex_structure(period):
    """+i on the annihilator of p + i q, -i on its conjugate."""
    z = subspace_of_spinor(period.spinor())
    return eigen_assembly(z, QuadExt(0, 1, -1))


def reference_k_action(h, s):
    """+sqrt(-d) on the annihilator of kappa, -sqrt(-d) on its conjugate."""
    kappa, d, m, f = kappa_spinor(h, s)
    return eigen_assembly(subspace_of_spinor(kappa), QuadExt(0, f, m))


def test_complex_structure_matches_eigen_assembly(standard_h, standard_s,
                                                  standard_period):
    periods = [standard_period, Period(NU1, NU2), Period(NU3, NU4)]
    periods += [sample_period(standard_h, standard_s, seed=seed)
                for seed in range(20)]
    for per in periods:
        assert complex_structure(per) == reference_complex_structure(per)


def test_k_action_matches_eigen_assembly(standard_s):
    for k in (1, 2, 3, 5):
        h = Spinor([0, k, 0, 0, 0, 1, 0, 0])
        mu, d, m, f = k_action(h, standard_s)
        assert d == 4 * k
        assert mu == reference_k_action(h, standard_s)
    # (h,h) = 8, (s,s) = 4, d = 32, m = -2
    h, s = Spinor([0, 1, 1, 0, 0, 1, 3, 0]), Spinor([1, 0, 0, 0, 2, 0, 0, 0])
    assert k_action(h, s)[0] == reference_k_action(h, s)


def test_spinor_ratio_rejects_a_non_orthogonal_pair():
    # (x, y) = 1: A_y is invertible, but the square is no scalar matrix
    x, y = Spinor([1, 1, 0, 0, 0, 1, 0, 0]), Spinor([1, 0, 0, 0, 1, 0, 0, 0])
    with pytest.raises(RuntimeError, match=re.escape("square check")):
        _spinor_ratio(x, y, 1)


def test_a_non_commuting_field_action_fails_the_weil_condition(
        monkeypatch, standard_h, standard_s, standard_period):
    mu, d, m, f = k_action(standard_h, standard_s)
    swap = [[Fraction(a == (b ^ 1)) for b in range(8)] for a in range(8)]
    monkeypatch.setattr(weil, "k_action", lambda h, s: (swap, d, m, f))
    with pytest.raises(ValueError, match="do not commute"):
        make_weil_datum(standard_h, standard_s, period=standard_period)


#: J and (mu, d, m, f) of the standard datum
J_STD = complex_structure(Period(*STANDARD_PERIOD))
K_STD = k_action(STANDARD_H, STANDARD_S)


def _standard_datum():
    return make_weil_datum(STANDARD_H, STANDARD_S,
                           period=Period(*STANDARD_PERIOD))


# the constructor raises that datum_report does not repeat, beside the two
# above: what to patch in weil, the call, the error and its message
CERTIFICATE_RAISES = [
    pytest.param(
        {"_spinor_ratio": lambda x, y, c: [[2 * v for v in row]
                                           for row in J_STD]},
        lambda: complex_structure(Period(*STANDARD_PERIOD)),
        RuntimeError, "J is not orthogonal", id="J-orthogonal"),
    pytest.param(
        {"k_action": lambda h, s: (J_STD, *K_STD[1:])}, _standard_datum,
        RuntimeError, "field eigenvalues are unbalanced", id="trace-mu-J"),
    pytest.param(
        {}, lambda: polarization(identity(8), J_STD),
        RuntimeError, "E is not alternating", id="E-alternating"),
    pytest.param(
        {}, lambda: polarization(K_STD[0],
                                 complex_structure(Period(NU1, NU2))),
        RuntimeError, "not J-invariant", id="E-type-1-1"),
    pytest.param(
        {"signature": lambda lattice: (4, 4, 0)}, _standard_datum,
        ValueError, "not positive definite", id="E-J-positive-both-signs"),
]


@pytest.mark.parametrize("patches, call, error, match", CERTIFICATE_RAISES)
def test_each_certificate_raises_where_the_datum_is_built(
        monkeypatch, patches, call, error, match):
    for name, value in patches.items():
        monkeypatch.setattr(weil, name, value)
    with pytest.raises(error, match=match):
        call()


def test_kappa_isotropic_symbolically(standard_h, standard_s):
    # (kappa, kappa) = -d a + a^2 b = 0 where a = (h,h), b = (s,s), d = ab
    kappa, d, m, f = kappa_spinor(standard_h, standard_s)
    assert kappa.pair(kappa) == 0
    a = standard_h.pair(standard_h)
    b = standard_s.pair(standard_s)
    assert -d * a + a * a * b == 0
    assert d == 4 and m == -1 and f == 2


def test_k_action_standard(standard_h, standard_s):
    mu, d, m, f = k_action(standard_h, standard_s)
    assert d == 4
    minus_d = [[Fraction(-4 if a == b else 0) for b in range(8)]
               for a in range(8)]
    assert mat_mul(mu, mu) == minus_d


def test_k_action_commutes_with_J(standard_h, standard_s, standard_period):
    mu, d, m, f = k_action(standard_h, standard_s)
    j = complex_structure(standard_period)
    assert mat_mul(mu, j) == mat_mul(j, mu)
    assert weil_condition(j, mu)


def test_weil_condition_toy_counterexample(standard_period):
    j = complex_structure(standard_period)
    mu = [[2 * x for x in row] for row in j]
    # mu = 2J commutes and squares to -4, but trace(mu J) = -16
    assert sum(mat_mul(mu, j)[i][i] for i in range(8)) == -16
    assert weil_condition(j, mu) is False


def test_weil_condition_conjugation_invariance(rng, standard_h, standard_s,
                                               standard_period):
    from spinweil.clifford import random_spin_group_element, \
        twisted_conjugation
    mu, d, m, f = k_action(standard_h, standard_s)
    j = complex_structure(standard_period)
    for _ in range(5):
        g = twisted_conjugation(random_spin_group_element(rng))
        ginv = inverse(g)
        j2 = mat_mul(g, mat_mul(j, ginv))
        mu2 = mat_mul(g, mat_mul(mu, ginv))
        assert weil_condition(j2, mu2) == weil_condition(j, mu)


def test_polarization_properties(standard_h, standard_s, standard_period):
    datum = make_weil_datum(standard_h, standard_s, period=standard_period)
    e, mu, j = datum.e, datum.mu, datum.j
    # E(mu v, mu w) = d E(v, w)
    mut = [[mu[b][a] for b in range(8)] for a in range(8)]
    assert mat_mul(mut, mat_mul(e, mu)) == [[4 * x for x in row] for row in e]
    # alternating
    assert all(e[a][b] == -e[b][a] for a in range(8) for b in range(8))
    # positivity certified by exact leading principal minors
    jt = [[j[b][a] for b in range(8)] for a in range(8)]
    bform = mat_mul(jt, e)
    assert all(det([row[:k] for row in bform[:k]]) > 0 for k in range(1, 9))


def test_positivity_nu_configuration():
    # two orthogonal positive 2-planes; the product of their structures is
    # +1 on the diagonal half and -1 on the antidiagonal half
    j1 = complex_structure(Period(NU1, NU2))
    j2 = complex_structure(Period(NU3, NU4))
    m = mat_mul(j1, j2)
    for i in range(4):
        plus = [Fraction(0)] * 8
        plus[i] = Fraction(1)
        plus[i + 4] = Fraction(1)
        minus = [Fraction(0)] * 8
        minus[i] = Fraction(1)
        minus[i + 4] = Fraction(-1)
        mp = mat_vec(m, plus)
        mm = mat_vec(m, minus)
        assert mp == plus or mp == [-x for x in plus]
        assert mm == minus or mm == [-x for x in minus]
    # the form (J1 J2 v, v) = (v+, v+) - (v-, v-) is definite: +2 on a
    # diagonal vector and +2 on an antidiagonal one (or both -2 for the
    # opposite orientation of the two structures)
    lat = make_V()
    v = [Fraction(1), 0, 0, 0, Fraction(1), 0, 0, 0]
    sign_plus = lat.pair(mat_vec(m, v), v)
    w = [Fraction(1), 0, 0, 0, Fraction(-1), 0, 0, 0]
    sign_minus = lat.pair(mat_vec(m, w), w)
    assert abs(sign_plus) == 2 and sign_plus == sign_minus
    # definiteness on a random vector as well
    r = [Fraction(k) for k in (1, -2, 3, 0, 2, 1, -1, 2)]
    val = lat.pair(mat_vec(m, r), r)
    assert (val > 0) == (sign_plus > 0) and val != 0


def test_hermitian_matrix_properties(standard_h, standard_s, standard_period):
    datum = make_weil_datum(standard_h, standard_s, period=standard_period)
    psi = datum.psi
    for a in range(4):
        for b in range(4):
            assert psi[a][b] == psi[b][a].conj()
    assert datum.disc != 0
    assert datum.disc_trivial
    assert is_norm(datum.disc, datum.d)


@pytest.mark.parametrize("hk", FIELD_SCAN_H)
def test_hermitian_matrix_matches_the_form_on_each_basis_pair(hk):
    # Psi[a][b] = E(v_a, mu v_b) + sqrt(-d) E(v_a, v_b), entry by entry
    datum = make_weil_datum(hk, STANDARD_S, seed=5)
    vs = weil.select_k_basis(datum.mu)

    def form(v, w):
        return sum(v[a] * datum.e[a][b] * w[b]
                   for a in range(8) for b in range(8))

    assert datum.psi == [[QuadExt(form(vi, mat_vec(datum.mu, vj)),
                                  datum.f * form(vi, vj), datum.m)
                          for vj in vs] for vi in vs]


def test_hermitian_basis_independence(rng, standard_h, standard_s,
                                      standard_period):
    datum = make_weil_datum(standard_h, standard_s, period=standard_period)
    psi = datum.psi
    m = datum.m
    for _ in range(5):
        # random invertible matrix over the field
        while True:
            t = [[QuadExt(rng.randint(-2, 2), rng.randint(-1, 1), m)
                  for _ in range(4)] for _ in range(4)]
            dt = det(t)
            if dt != 0:
                break
        tbar_t = [[t[b][a].conj() for b in range(4)] for a in range(4)]
        psi2 = mat_mul(tbar_t, mat_mul(psi, t))
        d2 = det(psi2)
        assert d2 == det(psi) * dt.norm()
        assert is_norm(d2.a if isinstance(d2, QuadExt) else d2,
                       datum.d) == datum.disc_trivial


def test_omega_line(standard_h, standard_s, standard_period):
    datum = make_weil_datum(standard_h, standard_s, period=standard_period)
    assert omega_line_check(datum)
    # a nonzero multiple spans the line; zero and a form off it do not
    omega, off = datum.omega, Multivector(8, {mask_of((0, 1)): Fraction(1)})
    assert omega_line_check(datum._replace(omega=omega.scale(Fraction(-3))))
    assert not omega_line_check(datum._replace(omega=Multivector.zero(8)))
    assert not omega_line_check(datum._replace(omega=omega + off))


def test_a_stabilizer_of_the_wrong_dimension_fails_the_datum(monkeypatch):
    # the datum is the one place the dimension 15 of G is checked, and its
    # message names the plane
    stabilizer = weil.stabilizer_algebra
    monkeypatch.setattr(weil, "stabilizer_algebra",
                        lambda fixed: stabilizer(fixed)[1:])
    with pytest.raises(RuntimeError) as info:
        _standard_datum()
    assert str(info.value) == (
        'stabilizer of h = ["0", "1", "0", "0", "0", "1", "0", "0"], s = '
        '["1", "0", "0", "0", "1", "0", "0", "0"] is 14-dimensional, not 15')


def test_cayley_hodge_standard(standard_h, standard_s, standard_period):
    assert cayley_hodge_test(standard_s, standard_period) is True


def test_cayley_hodge_violation(standard_h, standard_s):
    # a valid period not orthogonal to s
    p0 = Spinor([0, 0, 1, 0, 0, 0, 1, 0])
    per = sample_period(p0, standard_h, seed=11)
    if per.pairs_to_zero_with(standard_s.z):
        pytest.skip("sampled period accidentally orthogonal")
    assert cayley_hodge_test(standard_s, per) is False


def test_cayley_hodge_equivalence(rng, standard_h, standard_s):
    p0 = Spinor([0, 0, 1, 0, 0, 0, 1, 0])
    both = [0, 0]
    for k in range(30):
        anchor = standard_h if k % 2 == 0 else p0
        other = p0 if k % 2 == 0 else standard_h
        per = sample_period(anchor, other, seed=rng.randrange(10 ** 6))
        truth = per.pairs_to_zero_with(standard_s.z)
        both[truth] += 1
        assert cayley_hodge_test(standard_s, per) == truth
    assert both[0] > 0  # both branches exercised


def test_weil_class_space(standard_h, standard_s, standard_period):
    datum = make_weil_datum(standard_h, standard_s, period=standard_period)
    report = weil_class_space(datum)
    assert report["weil_plane_dim"] == 2
    assert report["three_space_dim"] == 3
    assert report["cayley_in_three_space"]
    assert report["cayley_not_in_omega_line"]
    assert report["hr_kills_omega_square"]
    assert report["hr_moves_cayley"]
    assert report["norm_eigenvalue_on_omega_square"]
    assert report["x4_eigenvalue_on_weil_line"]


def test_h2_split(standard_h, standard_s):
    out = h2_split(standard_h, standard_s)
    assert out["profile"] == (16, 6, 6)
    assert out["weights_match"]
    assert sum(out["profile"]) == 28
    # the three Hodge substructures have dimensions 15, 12, 1
    assert out["profile"][0] == 15 + 1
    assert out["profile"][1] + out["profile"][2] == 12


def test_field_scan_squarefree_parts(standard_s):
    # (h,h) = 2k and (s,s) = 2 give d = 4k with squarefree parts 1, 2, 3, 5
    seen = {}
    for k in (1, 2, 3, 5):
        h = Spinor([0, k, 0, 0, 0, 1, 0, 0])
        d, m, f = field_parameters(h, standard_s)
        assert d == 4 * k
        seen[d] = -m
    assert seen == {4: 1, 8: 2, 12: 3, 20: 5}


def test_data_across_fields():
    s = Spinor([1, 0, 0, 0, 1, 0, 0, 0])
    for k, expected_part in ((1, 1), (2, 2), (3, 3), (5, 5)):
        h = Spinor([0, k, 0, 0, 0, 1, 0, 0])
        datum = make_weil_datum(h, s, seed=17)
        assert -datum.m == expected_part
        report = datum_report(datum)
        assert all(v for key, v in report.items() if isinstance(v, bool))


def test_tower_intersection_dimension():
    # the +i eigenspace meets each field eigenspace in dimension two,
    # computed over the biquadratic tower
    s = Spinor([1, 0, 0, 0, 1, 0, 0, 0])
    h = Spinor([0, 2, 0, 0, 0, 1, 0, 0])    # d = 8, m = -2
    per = sample_period(h, s, seed=3)
    zl = subspace_of_spinor(per.spinor())
    kappa, d, m, f = kappa_spinor(h, s)
    zk = subspace_of_spinor(kappa)
    lift_l = [[TowerScalar(x.a, x.b, 0, 0, m=m) if isinstance(x, QuadExt)
               else TowerScalar(x, m=m) for x in row] for row in zl]
    lift_k = [[TowerScalar(x.a, 0, x.b, 0, m=m) if isinstance(x, QuadExt)
               else TowerScalar(x, m=m) for x in row] for row in zk]
    joint = [lift_l[r] + lift_k[r] for r in range(8)]
    assert 8 - rank(mat(joint)) == 2


def test_cayley_hodge_builds_the_class_once_per_spinor(monkeypatch,
                                                       standard_h, standard_s):
    calls = []

    def counting(s):
        calls.append(tuple(s.z))
        return cayley_class(s)

    monkeypatch.setattr(weil, "cayley_class", counting)
    weil._cayley_class_of.cache_clear()
    # every period below is orthogonal to exactly one of the two spinors
    p0 = Spinor([0, 0, 1, 0, 0, 0, 1, 0])
    try:
        for seed in range(3):
            for per in (sample_period(p0, standard_h, seed=seed),
                        sample_period(standard_h, standard_s, seed=seed)):
                for s in (standard_s, list(standard_s.z), p0):
                    z = s if isinstance(s, list) else s.z
                    assert cayley_hodge_test(s, per) == \
                        per.pairs_to_zero_with(z)
    finally:
        weil._cayley_class_of.cache_clear()
    assert calls == [tuple(standard_s.z), tuple(p0.z)]
