from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweil.clifford import CV
from spinweil.lattices import (BilinearLattice, MukaiVector, make_Splus,
                               make_V, moduli_dimension, mukai_pairing,
                               orthogonal_complement, signature,
                               sublattice_gram)
from spinweil.linalg import identity, mat_mul, transpose
from spinweil.multivector import pfaffian
from spinweil.reps import standard_spinor
from spinweil.scalars import QuadExt, TowerScalar
from spinweil.spingeo import spinor_map

import table_references as reference


def unit(i, n=8):
    e = [0] * n
    e[i] = 1
    return e


def test_V_gram_values():
    v = make_V()
    assert v.pair(unit(0), unit(4)) == 1
    assert v.pair(unit(0), unit(0)) == 0
    assert v.pair(unit(2), unit(6)) == 1
    assert v.pair(unit(2), unit(5)) == 0


def test_V_and_Splus_are_built_once():
    assert make_V() is make_V()
    assert make_Splus() is make_Splus()
    assert CV().lattice is make_V()


def test_V_signature():
    assert signature(make_V()) == (4, 4, 0)


def test_Splus_quadratic_values():
    s = make_Splus()
    z = [1, 0, 0, 0, 1, 0, 0, 0]
    assert s.pair(z, z) == 2
    iso = [1, 0, 0, 0, 0, 0, 0, 0]
    assert s.pair(iso, iso) == 0
    assert signature(s) == (4, 4, 0)


def test_signature_hyperbolic_plane():
    u = BilinearLattice([[0, 1], [1, 0]], label="U")
    assert signature(u) == (1, 1, 0)


def test_signature_of_plane_and_complement(standard_h, standard_s):
    s = make_Splus()
    plane = sublattice_gram(s, [standard_h.z, standard_s.z])
    assert signature(plane) == (2, 0, 0)
    comp = orthogonal_complement(s, [standard_h.z, standard_s.z])
    assert len(comp) == 6
    assert signature(sublattice_gram(s, comp)) == (2, 4, 0)


def test_signature_degenerate_and_negative():
    assert signature(BilinearLattice([[0, 0], [0, 0]])) == (0, 0, 2)
    assert signature(BilinearLattice([[-2, 0], [0, -3]])) == (0, 2, 0)
    assert signature(BilinearLattice([[1, 2], [2, 4]])) == (1, 0, 1)


def test_signature_congruence_invariance(rng):
    lat = make_V()
    for _ in range(20):
        t = identity(8)
        for _ in range(16):
            i, j = rng.randrange(8), rng.randrange(8)
            if i == j:
                continue
            c = rng.randint(-2, 2)
            for k in range(8):
                t[i][k] += c * t[j][k]
        tt = [[t[b][a] for b in range(8)] for a in range(8)]
        g2 = mat_mul(tt, mat_mul(lat.gram, t))
        assert signature(BilinearLattice(g2)) == signature(lat)


def test_complement_of_nothing_is_everything():
    lat = make_V()
    comp = orthogonal_complement(lat, [])
    assert len(comp) == 8


def test_complement_of_isotropic_contains_it():
    s = make_Splus()
    z = unit(0)
    comp = orthogonal_complement(s, [z])
    assert len(comp) == 7
    # z itself pairs to zero with z, so z is in the span of the complement
    assert reference.in_span(comp, [Fraction(c) for c in z])


def test_complement_exact_orthogonality(rng):
    s = make_Splus()
    for _ in range(25):
        vs = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(2)]
        comp = orthogonal_complement(s, vs)
        for w in comp:
            for v in vs:
                assert s.pair(w, v) == 0


def test_gram_must_be_symmetric():
    with pytest.raises(ValueError):
        BilinearLattice([[0, 1], [2, 0]])


def test_mukai_sn_square_and_dimension():
    for n in (3, 4, 5):
        sq, dim = moduli_dimension(n)
        assert sq == 2 * n
        assert dim == 2 * n + 2
        # s_n = (1, 0, -n) is the spinor 1 + n e_*, not standard_spinor(n)
        assert MukaiVector(1, (0,) * 6, -n).z == standard_spinor(-n).z
        assert MukaiVector(1, (0,) * 6, -n).z != standard_spinor(n).z


def test_mukai_zero_branch():
    v = MukaiVector(1, (0,) * 6, 0)
    assert mukai_pairing(v, v) == 0


def test_mukai_pure_h2_component():
    c = (1, 1, 0, 0, 0, 0)  # c . c = 2 in three hyperbolic planes
    v = MukaiVector(0, c, 0)
    assert mukai_pairing(v, v) == 2


INTS = st.integers(-9, 9)
TRIPLES = st.builds(MukaiVector, INTS, st.tuples(*[INTS] * 6), INTS)


@settings(max_examples=200, deadline=None)
@given(TRIPLES, TRIPLES)
def test_mukai_pairing_is_the_explicit_formula(v, w):
    expected = -(v.r * w.s + w.r * v.s) + sum(
        v.c[2 * i] * w.c[2 * i + 1] + v.c[2 * i + 1] * w.c[2 * i]
        for i in range(3))
    assert mukai_pairing(v, w) == expected


def test_mukai_pairing_reads_rational_text():
    v = MukaiVector("1/2", (0, 1, 0, 0, 0, 0), "-3")
    w = MukaiVector(Fraction(1, 2), (0, 1, 0, 0, 0, 0), -3)
    assert mukai_pairing(v, v) == mukai_pairing(w, w) == 3


@st.composite
def alternating(draw):
    b = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            x = draw(ENTRIES)
            b[i][j], b[j][i] = Fraction(x), -Fraction(x)
    return b


@settings(max_examples=150, deadline=None)
@given(alternating())
def test_the_pure_spinor_of_b_is_the_mukai_vector_of_exp_b(b):
    v = MukaiVector(1, (b[0][1], -b[2][3], b[0][2], b[1][3], b[0][3],
                        -b[1][2]), -pfaffian(b))
    assert v.z == spinor_map(b).z
    assert mukai_pairing(v, v) == 0


ENTRIES = st.one_of(st.just(0), st.integers(-3, 3),
                    st.fractions(min_value=-2, max_value=2,
                                 max_denominator=4))
#: coordinates of one vector pair: rationals, mixed with QuadExt or with
#: TowerScalar values of one field
COORDS = st.sampled_from([
    ENTRIES,
    st.one_of(ENTRIES, st.builds(lambda a, b: QuadExt(a, b, -3),
                                 ENTRIES, ENTRIES)),
    st.one_of(ENTRIES, st.builds(lambda *c: TowerScalar(*c, m=-3),
                                 *[ENTRIES] * 4))])


@st.composite
def gram_and_vectors(draw):
    """A symmetric Gram of ints and Fractions (so often not integral) and
    two vectors."""
    n = draw(st.integers(1, 8))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(ENTRIES)
    coords = draw(COORDS)
    v, w = ([draw(coords) for _ in range(n)] for _ in range(2))
    return BilinearLattice(g), v, w


@settings(max_examples=120, deadline=None)
@given(gram_and_vectors())
def test_pair_matches_dense_double_loop(case):
    lattice, v, w = case
    got, expected = lattice.pair(v, w), reference.pair(lattice, v, w)
    assert got == expected
    assert repr(got) == repr(expected) and type(got) is type(expected)
    vectors = [v, w, [c - d for c, d in zip(v, w)]]
    gram = sublattice_gram(lattice, vectors).gram
    dense = BilinearLattice([[reference.pair(lattice, a, b) for b in vectors]
                             for a in vectors]).gram
    assert gram == dense and repr(gram) == repr(dense)


def test_pair_on_a_non_integral_gram():
    g = [[Fraction(1, 2), Fraction(2, 3), 0],
         [Fraction(2, 3), -3, Fraction(5, 4)],
         [0, Fraction(5, 4), 0]]
    lattice = BilinearLattice(g)
    vectors = [[1, 0, 0], [Fraction(3, 5), -2, 1], [0, 0, 7], [0, 0, 0]]
    for v in vectors:
        for w in vectors:
            got, expected = lattice.pair(v, w), reference.pair(lattice, v, w)
            assert repr(got) == repr(expected) and got == expected
    assert lattice.pair(vectors[2], vectors[2]) == 0
    assert type(lattice.pair(vectors[2], vectors[2])) is int
    assert lattice.pair(vectors[0], vectors[1]) == Fraction(3, 10) - \
        Fraction(4, 3)
    assert sublattice_gram(lattice, vectors[:3]).gram == \
        [[Fraction(reference.pair(lattice, v, w)) for w in vectors[:3]]
         for v in vectors[:3]]


@st.composite
def symmetric_grams(draw):
    """A symmetric rational Gram of size 1-7: entries drawn freely (zero
    diagonals and zero Grams among them), or A^T D A of rank at most k."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = draw(ENTRIES)
        return g
    k = draw(st.integers(0, n))
    if not k:
        return [[0] * n for _ in range(n)]
    a = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(k)]
    d = [[draw(st.sampled_from([-3, -1, 1, 2])) if i == j else 0
          for j in range(k)] for i in range(k)]
    return mat_mul(transpose(a), mat_mul(d, a))


@settings(max_examples=300, deadline=None)
@given(symmetric_grams())
def test_signature_matches_the_pivoting_reference(gram):
    lattice = BilinearLattice(gram)
    got = signature(lattice)
    assert got == reference.signature(lattice)
    assert sum(got) == lattice.rank


def test_signature_on_zero_diagonals():
    assert signature(BilinearLattice([[0, 0, 1], [0, 0, 0], [1, 0, 0]])) \
        == (1, 1, 1)
    assert signature(BilinearLattice([[0, 1, 1], [1, 0, 1], [1, 1, 0]])) \
        == (1, 2, 0)


def test_pair_on_a_gram_over_a_quadratic_field():
    r = QuadExt(0, 1, 2)
    lattice = BilinearLattice([[1, r], [r, Fraction(1, 3)]])
    for v in ([1, 2], [Fraction(1, 2), 0], [r, 1], [0, 0]):
        for w in ([3, Fraction(-1, 4)], [r, r], [0, 1]):
            got, expected = lattice.pair(v, w), reference.pair(lattice, v, w)
            assert got == expected and repr(got) == repr(expected)
