import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweil.clifford import CV, CliffordAlgebra, CliffordElement
from spinweil.jsonio import decode_multivector, encode_multivector, to_json
from spinweil.lattices import make_Splus, make_V
from spinweil.linalg import det, mat_mul
from spinweil.multivector import (DEGREE4_MASKS, Multivector, VOLUME_MASK,
                                  contract, derive_multivector, indices_of,
                                  induced_gram4, mask_of, pfaffian, pluecker,
                                  popcount, star_matrix, wedge, wedge_sign)
from spinweil.scalars import QuadExt
from spinweil.spingeo import graph_basis, random_alternating

import table_references as reference


def mv(n, *pairs):
    return Multivector(n, {mask_of(idx): Fraction(c) for idx, c in pairs})


def test_wedge_basic():
    e1 = Multivector(4, {1: 1})
    e2 = Multivector(4, {2: 1})
    assert wedge(e1, e2) == mv(4, ((0, 1), 1))
    assert wedge(e1, e1).is_zero()
    assert wedge(e2, e1) == mv(4, ((0, 1), -1))


def test_wedge_square_of_two_form():
    x = mv(4, ((0, 1), 1), ((2, 3), 1))
    assert wedge(x, x) == mv(4, ((0, 1, 2, 3), 2))


def test_wedge_associative_random(rng):
    for _ in range(500):
        xs = [Multivector(4, {rng.randrange(16): Fraction(rng.randint(-3, 3))
                              for _ in range(3)}) for _ in range(3)]
        a, b, c = xs
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_graded_commutative(rng):
    for _ in range(200):
        ka, kb = rng.randrange(5), rng.randrange(5)
        a = Multivector(4, {m: Fraction(rng.randint(-2, 2))
                            for m in range(16) if bin(m).count("1") == ka})
        b = Multivector(4, {m: Fraction(rng.randint(-2, 2))
                            for m in range(16) if bin(m).count("1") == kb})
        sign = -1 if (ka * kb) % 2 else 1
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_contract_examples():
    # e5 is dual to e1: D_{e5}(e1) = 1-like coefficient on the empty set
    e1 = Multivector(4, {1: 1})
    assert contract([1, 0, 0, 0], e1) == Multivector.one(4)
    assert contract([1, 0, 0, 0], Multivector.one(4)).is_zero()
    # D_{e6}(e1 ^ e2) picks position 2 with sign (-1)^(2-1)
    e12 = mv(4, ((0, 1), 1))
    assert contract([0, 1, 0, 0], e12) == mv(4, ((0,), -1))


def test_contract_is_graded_derivation(rng):
    for _ in range(300):
        k = rng.randrange(4)
        dual = [0] * 4
        dual[rng.randrange(4)] = Fraction(rng.randint(1, 3))
        x = Multivector(4, {m: Fraction(rng.randint(-2, 2))
                            for m in range(16) if bin(m).count("1") == k})
        y = Multivector(4, {rng.randrange(16): Fraction(rng.randint(-2, 2))
                            for _ in range(3)})
        sign = -1 if k % 2 else 1
        assert contract(dual, wedge(x, y)) == (
            wedge(contract(dual, x), y)
            + wedge(x, contract(dual, y)).scale(sign))


def test_pfaffian_2x2():
    a = Fraction(7, 3)
    assert pfaffian([[0, a], [-a, 0]]) == a


def test_pfaffian_4x4_formula(rng):
    for _ in range(20):
        b = random_alternating(rng)
        expected = (b[0][1] * b[2][3] - b[0][2] * b[1][3]
                    + b[0][3] * b[1][2])
        assert pfaffian(b) == expected


def test_pfaffian_squares_to_determinant(rng):
    for size in (4, 6):
        for _ in range(50):
            b = random_alternating(rng, size=size)
            assert pfaffian(b) ** 2 == det(b)


def test_pfaffian_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pfaffian([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        pfaffian([[1, 2], [-2, 0]])


def test_pfaffian_congruence(rng):
    for _ in range(25):
        b = random_alternating(rng)
        t = [[Fraction(rng.randint(-2, 2)) for _ in range(4)]
             for _ in range(4)]
        tt = [[t[j][i] for j in range(4)] for i in range(4)]
        assert pfaffian(mat_mul(tt, mat_mul(b, t))) == det(t) * pfaffian(b)


def test_pluecker_identity_blocks():
    lower = [[0] * 4 for _ in range(4)] + [[1 if i == j else 0
                                            for j in range(4)]
                                           for i in range(4)]
    assert pluecker(lower) == Multivector(8, {mask_of((4, 5, 6, 7)): 1})
    upper = [[1 if i == j else 0 for j in range(4)]
             for i in range(4)] + [[0] * 4 for _ in range(4)]
    assert pluecker(upper) == Multivector(8, {mask_of((0, 1, 2, 3)): 1})


def minor_oracle(columns_matrix):
    """All 70 maximal minors by direct cofactor expansion."""
    out = {}
    for rows in combinations(range(8), 4):
        sub = [[columns_matrix[r][c] for c in range(4)] for r in rows]
        out[mask_of(rows)] = det(sub)
    return out


def test_pluecker_against_minor_oracle(rng):
    b = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    cols = graph_basis(b)
    got = pluecker(cols)
    oracle = minor_oracle(cols)
    for mask, value in oracle.items():
        assert got.coefficient(mask) == value
    for _ in range(10):
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(4)]
             for _ in range(8)]
        got = pluecker(m)
        for mask, value in minor_oracle(m).items():
            assert got.coefficient(mask) == value


def test_pluecker_gl_equivariance(rng):
    for _ in range(30):
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(4)]
             for _ in range(8)]
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(4)]
             for _ in range(4)]
        assert pluecker(mat_mul(m, a)) == pluecker(m).scale(det(a))


def test_rank_deficient_pluecker_is_zero():
    m = [[1, 1, 0, 0]] * 8
    assert pluecker([[Fraction(x) for x in row] for row in m]).is_zero()


def test_star_squares_to_identity():
    s = star_matrix()
    sq = mat_mul(s, s)
    for i in range(70):
        for j in range(70):
            assert sq[i][j] == (1 if i == j else 0)


def test_star_defining_identity():
    # oracle: independent evaluation of x ^ star(y) and the induced pairing,
    # star(e_J) read as column J of star_matrix
    g4 = induced_gram4(make_V().gram)
    s = star_matrix()
    for mi in DEGREE4_MASKS:
        x = Multivector(8, {mi: Fraction(1)})
        for j, mj in enumerate(DEGREE4_MASKS):
            star_y = Multivector(8, {m: row[j] for m, row
                                     in zip(DEGREE4_MASKS, s) if row[j]})
            lhs = wedge(x, star_y).coefficient(VOLUME_MASK)
            assert lhs == g4.get((mi, mj), 0)


def test_star_matrix_is_built_once():
    assert star_matrix() is star_matrix()


def test_star_eigenspace_dimensions():
    from spinweil.linalg import mat, nullspace
    s = star_matrix()
    for lam in (1, -1):
        shifted = [[s[a][b] - (lam if a == b else 0) for b in range(70)]
                   for a in range(70)]
        assert len(nullspace(mat(shifted))) == 35


def test_derive_multivector_matches_matrix(rng):
    from spinweil.multivector import coords_degree
    for _ in range(10):
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(8)]
             for _ in range(8)]
        x = Multivector(8, {mask_of(c): Fraction(rng.randint(-2, 2))
                            for c in combinations(range(8), 4)
                            if rng.random() < 0.2})
        direct = derive_multivector(m, x)
        assert direct == reference.derive_multivector(m, x)
        matrix = reference.derivation_matrix(m, 4)
        coords = coords_degree(x, DEGREE4_MASKS)
        via_matrix = [sum(matrix[i][j] * coords[j] for j in range(70))
                      for i in range(70)]
        assert coords_degree(direct, DEGREE4_MASKS) == via_matrix


def reference_sign(ma, mb):
    """(-1) to the number of pairs i in A, j in B with i > j, or 0 when A
    and B meet."""
    a, b = indices_of(ma), indices_of(mb)
    if set(a) & set(b):
        return 0
    return (-1) ** sum(i > j for i in a for j in b)


def reference_wedge(x, y):
    """The per-term wedge: each signed product added to the result as it
    comes, a term dropped whenever it sums to zero."""
    out = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            s = reference_sign(ma, mb)
            if s:
                v = out.get(ma | mb, 0) + s * ca * cb
                if v == 0:
                    out.pop(ma | mb, None)
                else:
                    out[ma | mb] = v
    return Multivector(x.n, out)


RATIONAL = st.one_of(st.integers(-4, 4),
                     st.fractions(min_value=-3, max_value=3,
                                  max_denominator=6))
QUAD = st.builds(lambda a, b: QuadExt(a, b, 5), RATIONAL, RATIONAL)


def multivectors(n, coeffs):
    return st.dictionaries(st.integers(0, (1 << n) - 1), coeffs,
                           max_size=12).map(lambda t: Multivector(n, t))


@st.composite
def wedge_factors(draw):
    """Two multivectors on one n from 0 to 8, each with rational, QuadExt or
    mixed coefficients."""
    n = draw(st.integers(0, 8))
    kinds = [RATIONAL, QUAD, st.one_of(RATIONAL, QUAD)]
    return [draw(multivectors(n, draw(st.sampled_from(kinds))))
            for _ in range(2)]


@settings(max_examples=100, deadline=None)
@given(wedge_factors())
def test_wedge_matches_per_term_reference(pair):
    x, y = pair
    got, expected = wedge(x, y), reference_wedge(x, y)
    assert got == expected
    assert repr(got) == repr(expected)



@settings(max_examples=100, deadline=None)
@given(wedge_factors(), st.one_of(st.just(0), RATIONAL, QUAD))
def test_wedge_sum_and_scale_match_the_fraction_paths(pair, c):
    # the stored forms against the product loop on Fraction terms, with
    # rational, QuadExt and mixed coefficients: equal, in the same order
    x, y = pair
    total = dict(x.terms)
    for m, v in y.terms.items():
        total[m] = total.get(m, 0) + v
    for got, expected in (
            (wedge(x, y), reference.blade_sum(x, y, x.algebra._products)),
            (x + y, Multivector(x.n, total)),
            (x.scale(c), Multivector(x.n, {m: c * v
                                           for m, v in x.terms.items()}))):
        assert got == expected
        assert repr(list(got.terms.items())) == \
            repr(list(expected.terms.items()))


def test_a_field_coefficient_of_rational_value_equals_its_fraction():
    # a form with a QuadExt coefficient keeps it over 1, so it can equal a
    # rational form over another denominator only by value
    half, sqrt5 = Fraction(1, 2), QuadExt(0, 1, 5)
    x = Multivector(4, {1: QuadExt(half, 0, 5)})
    assert x == Multivector(4, {1: half}) == x
    assert hash(x) == hash(Multivector(4, {1: half}))
    assert x != Multivector(4, {1: Fraction(1, 3)})
    assert x.scale(sqrt5) != Multivector(4, {1: half})

@pytest.mark.parametrize("n", [-1, 9, 30])
def test_the_rank_of_an_exterior_algebra_is_at_most_8(n):
    with pytest.raises(ValueError, match="rank 0 to 8"):
        Multivector(n, {})
    assert Multivector(8, {0xFF: 1}).n == 8
    assert Multivector.one(0) == Multivector(0, {0: 1})


def test_the_two_blade_algebras_stay_apart():
    terms = {mask_of((0, 3)): 1, mask_of((1, 2)): 2}
    x, y = Multivector(4, terms), CV().element(terms)
    # a Multivector lists its terms by (degree, indices), a Clifford
    # element by (degree, mask)
    assert repr(x) == "1*e14 + 2*e23"
    assert repr(y) == "2*e23 + 1*e14"
    with pytest.raises(ValueError,
                       match="^mismatched ambient exterior algebras$"):
        x + Multivector(8, terms)
    with pytest.raises(ValueError,
                       match="^mismatched ambient exterior algebras$"):
        wedge(x, y)
    with pytest.raises(ValueError,
                       match="^elements of different Clifford algebras$"):
        y + CliffordAlgebra(make_Splus()).element(terms)
    with pytest.raises(ValueError,
                       match="^elements of different Clifford algebras$"):
        y * x
    # not even on the exterior algebra's own Clifford algebra
    assert x != y and y != x
    assert x != CliffordElement(x.algebra, terms)
    assert to_json(x) == [{"indices": [2, 3], "coeff": "2"},
                          {"indices": [1, 4], "coeff": "1"}]
    with pytest.raises(TypeError):
        to_json(y)


@pytest.mark.parametrize("indices", [[2, 1], [1, 1], [0, 2], [1, 5]])
def test_decoding_rejects_a_blade_out_of_order_or_range(indices):
    item = {"indices": indices, "coeff": "1"}
    with pytest.raises(ValueError, match="increase strictly within 1..4"):
        decode_multivector([item], 4)


def test_decoding_rejects_a_repeated_blade():
    items = [{"indices": [1], "coeff": "1"}, {"indices": [1], "coeff": "2"}]
    with pytest.raises(ValueError, match=re.escape(
            "blade given twice: {'indices': [1], 'coeff': '2'}")):
        decode_multivector(items, 4)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: multivectors(n, RATIONAL)))
def test_decoding_inverts_encoding(x):
    assert decode_multivector(encode_multivector(x), x.n) == x


def test_popcount_and_wedge_sign():
    exterior = Multivector(8).algebra
    for mask in range(256):
        assert popcount(mask) == bin(mask).count("1")
        assert all(wedge_sign(mask, mb) == reference_sign(mask, mb)
                   for mb in range(256))
        # the blade products of the zero form are the signed wedges
        assert all(exterior.blade_product(mask, mb) ==
                   ({mask | mb: wedge_sign(mask, mb)} if not mask & mb else {})
                   for mb in range(256))
    # e_2 ^ e_1 = -e_12, e_3 ^ e_12 = e_123, e_24 ^ e_13 = -e_1234
    assert wedge_sign(0b10, 0b01) == -1
    assert wedge_sign(0b100, 0b011) == 1
    assert wedge_sign(0b1010, 0b0101) == -1
    assert wedge_sign(0b11, 0b10) == 0


# -- the sparse routes against the dense references -------------------------

def square_matrices(entries, n=8):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n,
                    max_size=n)


SPARSE = st.one_of(st.just(0), st.just(0), st.just(0), RATIONAL)


@settings(max_examples=60, deadline=None)
@given(square_matrices(st.one_of(SPARSE, QUAD)),
       multivectors(8, st.one_of(RATIONAL, QUAD)))
def test_derive_multivector_matches_reference_loop(m, x):
    got = derive_multivector(m, x)
    expected = reference.derive_multivector(m, x)
    assert got == expected
    assert repr(got) == repr(expected)


def _same_gram(got, expected):
    assert got == expected
    assert repr(got) == repr(expected)


def test_induced_gram4_of_v_matches_determinants():
    _same_gram(induced_gram4(make_V().gram),
               reference.induced_gram4(make_V().gram))


@st.composite
def sparse_grams(draw):
    """An 8 x 8 rational Gram with at most 12 nonzero entries."""
    g = [[0] * 8 for _ in range(8)]
    for (i, j), x in draw(st.dictionaries(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), RATIONAL,
            max_size=12)).items():
        g[i][j] = x
    return g


@settings(max_examples=25, deadline=None)
@given(sparse_grams())
def test_induced_gram4_matches_determinants_on_sparse_grams(gram):
    _same_gram(induced_gram4(gram), reference.induced_gram4(gram))


@settings(max_examples=8, deadline=None)
@given(square_matrices(RATIONAL))
def test_induced_gram4_matches_determinants_on_dense_grams(gram):
    _same_gram(induced_gram4(gram), reference.induced_gram4(gram))
