from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweil.clifford import CliffordAlgebra
from spinweil.kuga import (complement_data, ks_center, ks_center_field_check,
                           ks_complex_structure, ks_i_eigenspace_dim,
                           ks_report, ks_right_commutation,
                           ks_spin_rep_check, mult_matrix)
from spinweil.lattices import BilinearLattice
from spinweil.linalg import identity, mat_mul
from spinweil.scalars import squarefree_part
from spinweil.spingeo import Spinor
from spinweil.weil import Period, sample_period

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
    assert ks_right_commutation(datum, seed=7, count=20)


def test_left_multiplication_does_not_commute(standard_h, standard_s,
                                              standard_period):
    # sanity contrast: generic left multiplications do not commute with a
    # left-multiplication complex structure unless central
    datum = ks_complex_structure(standard_h, standard_s, standard_period)
    masks = datum.even_masks
    x = datum.algebra.element({masks[1]: Fraction(1)})
    lmat = mult_matrix(datum.algebra, x, masks)
    assert mat_mul(lmat, datum.j_ks) != mat_mul(datum.j_ks, lmat)


def test_plus_i_eigenspace_dim(standard_h, standard_s, standard_period):
    datum = ks_complex_structure(standard_h, standard_s, standard_period)
    assert ks_i_eigenspace_dim(datum) == 16


def test_center_standard(standard_h, standard_s):
    out = ks_center_field_check(standard_h, standard_s)
    assert out["center_dim"] == 2
    assert out["square_negative"]
    assert out["squarefree_part_matches"]


def test_center_across_fields(standard_s):
    for k in (1, 2, 3):
        h = Spinor([0, k, 0, 0, 0, 1, 0, 0])
        out = ks_center_field_check(h, standard_s)
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


def test_spin_rep_charpoly(standard_h, standard_s):
    out = ks_spin_rep_check(standard_h, standard_s, seed=2, count=10)
    assert out["dimension_32_equals_4x8"]
    assert out["charpoly_fourth_power"]


def test_ks_report(standard_h, standard_s, standard_period):
    rep = ks_report(standard_h, standard_s, standard_period, seed=3)
    assert rep["even_algebra_dim"] == 32
    assert rep["plus_i_eigenspace_dim"] == 16
    bad = [k for k, v in rep.items() if isinstance(v, bool) and not v]
    assert not bad


def test_period_not_in_complement_rejected(standard_h, standard_s):
    bad = Period((0, 1, 0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        ks_complex_structure(standard_h, standard_s, bad)
