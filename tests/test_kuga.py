import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweil import kuga, weil
from spinweil.clifford import CliffordAlgebra
from spinweil.kuga import (complement_data, ks_center, ks_center_field_check,
                           ks_complex_structure, ks_hom, ks_report,
                           ks_right_commutation, mult_matrix)
from spinweil.lattices import BilinearLattice
from spinweil.linalg import mat_mul
from spinweil.scalars import squarefree_part
from spinweil.spingeo import STANDARD_H, STANDARD_S, Spinor, splus_lattice
from spinweil.weil import (FIELD_SCAN_H, STANDARD_PERIOD, Period,
                           datum_report, field_parameters, h2_split, k_action,
                           make_weil_datum, sample_period, weil_class_space)

import table_references as reference


def test_complement_is_rank_6(standard_h, standard_s):
    basis, lattice = complement_data(standard_h, standard_s)
    assert len(basis) == 6
    assert lattice.rank == 6
    from spinweil.lattices import signature
    assert signature(lattice) == (2, 4, 0)


def test_f1f2_square_constant(standard_h, standard_s, standard_period):
    # frozen by direct computation: (f1 f2)^2 = -c^2 / 4 with the
    # half-norm square convention
    datum = ks_complex_structure(standard_h, standard_s, standard_period)
    w = datum.algebra.vector(datum.f1) * datum.algebra.vector(datum.f2)
    assert w * w == datum.algebra.scalar(-datum.c * datum.c / 4)
    assert datum.c == 2


def test_jks_squares_to_minus_one(standard_h, standard_s, standard_period):
    datum = ks_complex_structure(standard_h, standard_s, standard_period)
    n = len(datum.even_masks)
    assert n == 32
    sq = mat_mul(datum.j_ks, datum.j_ks)
    assert sq == [[Fraction(-1 if a == b else 0) for b in range(n)]
                  for a in range(n)]


def test_right_multiplication_commutes(rng, standard_h, standard_s,
                                       standard_period):
    datum = ks_complex_structure(standard_h, standard_s, standard_period)
    assert ks_right_commutation(datum, seed=7)


def test_left_multiplication_does_not_commute(standard_h, standard_s,
                                              standard_period):
    # sanity contrast: generic left multiplications do not commute with a
    # left-multiplication complex structure unless central
    datum = ks_complex_structure(standard_h, standard_s, standard_period)
    masks = datum.even_masks
    x = datum.algebra.element({masks[1]: Fraction(1)})
    lmat = mult_matrix(datum.algebra, x, masks)
    assert mat_mul(lmat, datum.j_ks) != mat_mul(datum.j_ks, lmat)


def test_center_standard(standard_h, standard_s):
    _, lattice = complement_data(standard_h, standard_s)
    out = ks_center_field_check(lattice,
                                field_parameters(standard_h, standard_s)[1])
    assert out["center_dim"] == 2
    assert out["square_negative"]
    assert out["squarefree_part_matches"]


def test_center_across_fields(standard_s):
    for k in (1, 2, 3):
        h = Spinor([0, k, 0, 0, 0, 1, 0, 0])
        _, lattice = complement_data(h, standard_s)
        out = ks_center_field_check(lattice,
                                    field_parameters(h, standard_s)[1])
        assert out["center_dim"] == 2
        assert out["squarefree_part_matches"], (k, out)


def test_center_of_rank_one_is_the_scalar_line():
    # the even algebra of a rank-1 lattice is Q: no generator e_i e_j, so
    # the kernel of no rows is the whole 1-dimensional algebra
    assert ks_center(BilinearLattice([[3]])) == ([[Fraction(1)]], None)


def test_center_toy_rank_two():
    basis, sq = ks_center(BilinearLattice([[-2, 0], [0, -2]], label="toy"))
    assert len(basis) == 2
    assert sq == -1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_center_basis_matches_left_minus_right_matrices(k, standard_s):
    _, lattice = complement_data(Spinor([0, k, 0, 0, 0, 1, 0, 0]), standard_s)
    basis, sq = ks_center(lattice)
    expected = reference.ks_center_basis(lattice)
    assert basis == expected and repr(basis) == repr(expected)
    assert sq < 0


def _unimodular_change(lattice, rng, steps=8):
    """The lattice with Gram P^T G P, P in GL(n, Z) a product of random
    column additions."""
    n = lattice.rank
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in p:
            row[i] += c * row[j]
    pt = [list(col) for col in zip(*p)]
    return BilinearLattice(mat_mul(pt, mat_mul(lattice.gram, p)))


def test_center_basis_is_the_unit_scalar_then_the_generator():
    """The scalar column of the commutator rows is empty, so basis[0] is 1
    and basis[1] has no scalar coordinate: the generator that the old
    selection among the kernel vectors picked."""
    rng = random.Random(3301)
    _, standard = complement_data(STANDARD_H, STANDARD_S)
    lattices = ([standard] + [_unimodular_change(standard, rng)
                              for _ in range(3)]
                + [BilinearLattice(g, label="toy") for g in (
                    [[-2, 0], [0, -2]], [[2, 1], [1, -2]],
                    [[1, 0, 0, 1], [0, -1, 1, 0], [0, 1, 3, 0],
                     [1, 0, 0, 2]])])
    parts = set()
    for lattice in lattices:
        basis, sq = ks_center(lattice)
        masks = CliffordAlgebra(lattice).basis_masks(even_only=True)
        assert len(basis) == 2 and masks[0] == 0
        assert basis[0] == [1] + [0] * (len(masks) - 1)
        assert basis[1][0] == 0
        assert reference.center_generator(basis, masks) == basis[1]
        if lattice.rank == 6:
            parts.add(squarefree_part(sq.numerator * sq.denominator))
    assert parts == {-1}


GRAM_ENTRIES = st.one_of(st.just(0), st.integers(-3, 3),
                         st.fractions(min_value=-2, max_value=2,
                                      max_denominator=4))


@st.composite
def small_grams(draw):
    n = draw(st.integers(2, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(GRAM_ENTRIES)
    return BilinearLattice(g)


@settings(max_examples=40, deadline=None)
@given(small_grams())
def test_center_basis_matches_reference_on_small_grams(lattice):
    basis, sq = ks_center(lattice)
    expected = reference.ks_center_basis(lattice)
    assert basis == expected and repr(basis) == repr(expected)
    assert (sq is None) == (len(basis) != 2)


def test_spin_rep_charpoly(standard_h, standard_s, standard_period):
    # the deleted random-trial check, from the references: on the even
    # algebra a stabilizer element has the fourth power of its
    # characteristic polynomial on V, at 33 integer points
    datum = ks_complex_structure(standard_h, standard_s, standard_period)
    rng, points = random.Random(2), range(33)
    for _ in range(2):
        lmat, mv = reference.spin_rep_trial(datum, standard_h, standard_s,
                                            rng)
        assert reference.charpoly_values(lmat, points) == [
            v ** 4 for v in reference.charpoly_values(mv, points)]


def test_hom_maps_intertwine_random_stabilizer_elements(
        standard_h, standard_s, standard_period):
    # ks_hom solves on the 15 generators; each map also intertwines random
    # combinations, built through the reference lift
    datum = ks_complex_structure(standard_h, standard_s, standard_period)
    homs = ks_hom(datum, make_weil_datum(standard_h, standard_s,
                                         period=standard_period))
    assert len(homs) == 8
    assert all(len(phi) == 32 and all(len(row) == 8 for row in phi)
               for phi in homs)
    rng = random.Random(5)
    for _ in range(2):
        lmat, mv = reference.spin_rep_trial(datum, standard_h, standard_s,
                                            rng)
        for phi in homs:
            assert mat_mul(lmat, phi) == mat_mul(phi, mv)


CERTIFICATE = ("isogeny_hom_dim", "isogeny_joint_rank",
               "isogeny_even_algebra_is_V4", "isogeny_intertwines_J")


def certificate(h, s, period):
    report = ks_report(make_weil_datum(h, s, period=period))
    return tuple(report[k] for k in CERTIFICATE)


def test_ks_report(standard_h, standard_s, standard_period):
    rep = ks_report(make_weil_datum(standard_h, standard_s,
                                    period=standard_period))
    assert rep["even_algebra_dim"] == 32
    assert tuple(rep[k] for k in CERTIFICATE) == (8, 32, True, True)
    bad = [k for k, v in rep.items() if isinstance(v, bool) and not v]
    assert not bad


@pytest.mark.parametrize("h", FIELD_SCAN_H)
def test_certificate_on_the_field_scan_planes(h):
    period = sample_period(h, STANDARD_S, seed=11)
    assert certificate(h, STANDARD_S, period) == (8, 32, True, True)


def traceless_center_generator(datum):
    """omega read off ks_center's basis as ks_center reads it: the second
    vector, which has no mask-0 coordinate, less the scalar that makes the
    trace of left multiplication 0."""
    w = ks_center(datum.lattice)[0][1]
    x = datum.algebra.element(dict(zip(datum.even_masks, w)))
    lx = mult_matrix(datum.algebra, x, datum.even_masks)
    trace = sum(lx[i][i] for i in range(len(lx)))
    return x - datum.algebra.scalar(trace / len(lx))


def tie_constants(lw, homs, mu):
    """The c with L_omega Phi = c Phi mu, one for each Phi (None where
    there is no such c)."""
    out = []
    for phi in homs:
        lhs, rhs = mat_mul(lw, phi), mat_mul(phi, mu)
        pairs = [(a, b) for ra, rb in zip(lhs, rhs) for a, b in zip(ra, rb)]
        c = next(a / b for a, b in pairs if b)
        out.append(c if all(a == c * b for a, b in pairs) else None)
    return out


@pytest.mark.parametrize("h, period", [(STANDARD_H, STANDARD_PERIOD)]
                         + [(h, None) for h in FIELD_SCAN_H])
def test_the_center_acts_on_hom_as_the_field(h, period):
    # the center tie: L_omega Phi = c Phi mu for every Phi in Hom_G(V, C+(H)),
    # c = 1/8 with k_action's mu; the datum's mu is k_action's up to the sign
    # that the positivity of E(J v, v) picks (both occur here), and c follows
    h = Spinor(h)
    period = (Period(*period) if period else
              sample_period(h, STANDARD_S, seed=11))
    datum = ks_complex_structure(h, STANDARD_S, period)
    lw = mult_matrix(datum.algebra, traceless_center_generator(datum),
                     datum.even_masks)
    weil_datum = make_weil_datum(h, STANDARD_S, period=period)
    homs = ks_hom(datum, weil_datum)
    assert len(homs) == 8
    mu = k_action(h, STANDARD_S)[0]
    assert tie_constants(lw, homs, mu) == [Fraction(1, 8)] * 8
    weil_mu = weil_datum.mu
    sign = 1 if weil_mu == mu else -1
    assert weil_mu == [[sign * x for x in row] for row in mu]
    assert tie_constants(lw, homs, weil_mu) == [Fraction(sign, 8)] * 8


def random_positive_planes(rng, count):
    """The first count planes with integer h in [-2, 2]^8 and s drawn
    there and projected off h, kept when (h, h) > 0 and (s, s) > 0."""
    lat = splus_lattice()
    planes = []
    while len(planes) < count:
        h = [Fraction(rng.randint(-2, 2)) for _ in range(8)]
        s = [Fraction(rng.randint(-2, 2)) for _ in range(8)]
        hh = lat.pair(h, h)
        if hh <= 0:
            continue
        t = lat.pair(s, h) / hh
        s = [x - t * y for x, y in zip(s, h)]
        if lat.pair(s, s) > 0:
            planes.append((h, s))
    return planes


def test_certificate_on_random_planes():
    # a plane whose period search gives up is counted, not skipped
    fields, gave_up = [], 0
    for h, s in random_positive_planes(random.Random(7), 3):
        try:
            period = sample_period(h, s, seed=11)
        except RuntimeError:
            gave_up += 1
            continue
        assert certificate(h, s, period) == (8, 32, True, True), (h, s)
        fields.append(field_parameters(h, s)[1])
    assert gave_up == 0
    assert fields == [-59, -2, -35]


def test_minus_j_fails_the_intertwining(standard_h, standard_s,
                                        standard_period):
    # the certificate is not vacuous: no map carries -J to J_KS, and the
    # report reads false when handed a datum with -J
    datum = ks_complex_structure(standard_h, standard_s, standard_period)
    weil_datum = make_weil_datum(standard_h, standard_s,
                                 period=standard_period)
    minus_j = [[-x for x in row] for row in weil_datum.j]
    homs = ks_hom(datum, weil_datum)
    assert len(homs) == 8
    assert all(mat_mul(datum.j_ks, phi) != mat_mul(phi, minus_j)
               for phi in homs)
    report = ks_report(weil_datum._replace(j=minus_j))
    assert report["isogeny_even_algebra_is_V4"] is True
    assert report["isogeny_intertwines_J"] is False


def test_the_reports_read_g_j_and_the_field_off_the_datum(
        monkeypatch, standard_h, standard_s, standard_period):
    # once the datum exists, no report recomputes the stabilizer, the
    # complex structure or the field (kappa, m and f included)
    datum = make_weil_datum(standard_h, standard_s, period=standard_period)

    def fail(*args):
        raise AssertionError("recomputed what the datum carries")
    for module in (weil, kuga):
        for name in ("stabilizer_algebra", "complex_structure",
                     "field_parameters"):
            monkeypatch.setattr(module, name, fail, raising=False)
    assert datum_report(datum) == {
        "discriminant": "256", "discriminant_trivial": True,
        "omega_integral_coordinates": True,
        "omega_spans_invariant_line": True}
    assert ks_report(datum) == {
        "even_algebra_dim": 32, "f1f2_square": -1,
        "center_center_dim": 2, "center_omega_c_square": Fraction(-1, 16),
        "center_square_negative": True,
        "center_squarefree_part_matches": True, "isogeny_hom_dim": 8,
        "isogeny_joint_rank": 32, "isogeny_even_algebra_is_V4": True,
        "isogeny_intertwines_J": True}
    assert weil_class_space(datum) == {
        "weil_plane_dim": 2, "three_space_dim": 3,
        "cayley_in_three_space": True, "cayley_not_in_omega_line": True,
        "hr_kills_omega_square": True, "hr_moves_cayley": True,
        "norm_eigenvalue_on_omega_square": True,
        "x4_eigenvalue_on_weil_line": True}
    assert h2_split(datum) == {"profile": (16, 6, 6), "weights_match": True}


def test_period_not_in_complement_rejected(standard_h, standard_s):
    bad = Period((0, 1, 0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        ks_complex_structure(standard_h, standard_s, bad)
