import hashlib
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinweil.clifford import (CV, CliffordAlgebra, CliffordElement,
                               _module_table, cartan_elements, commutator,
                               exp_nilpotent, is_spin_group_element,
                               is_spin_lie_element, random_spin_group_element,
                               sigma_action, so_to_spin, spin_so_iso,
                               spin_v_xyz_table, twisted_conjugation)
from spinweil.kuga import complement_data
from spinweil.lattices import BilinearLattice, make_V
from spinweil.linalg import det, identity, mat_mul, rank
from spinweil.multivector import (Multivector, indices_of, mask_of, pfaffian,
                                  popcount)
from spinweil.scalars import QuadExt, TowerScalar
from spinweil.spingeo import EVEN_MASKS, random_alternating

import table_references as reference


def test_defining_relations():
    alg = CV()
    e = alg.generator
    assert e(0) * e(4) + e(4) * e(0) == alg.one()
    assert (e(0) * e(0)).is_zero()
    assert e(1) * e(2) == -(e(2) * e(1))


def test_dimensions():
    alg = CV()
    assert len(alg.basis_masks()) == 256
    assert len(alg.basis_masks(even_only=True)) == 128
    rank6 = BilinearLattice([[0] * 6 for _ in range(6)])
    assert len(CliffordAlgebra(rank6).basis_masks(even_only=True)) == 32


def test_vector_square_is_half_norm(rng):
    alg = CV()
    lat = make_V()
    for _ in range(50):
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
        v = alg.vector(coords)
        assert v * v == alg.scalar(lat.pair(coords, coords) / 2)


def test_conjugation_rule():
    # (e1 e2)* = (-1)^2 e2 e1, and e2 e1 reduces to -e1 e2
    alg = CV()
    e = alg.generator
    assert (e(0) * e(1)).conj() == -(e(0) * e(1))
    assert alg.one().conj() == alg.one()
    for i in range(8):
        assert e(i).conj() == -e(i)
    # the non-orthogonal pair picks up a contraction term
    assert (e(0) * e(4)).conj() == alg.one() - e(0) * e(4)


def test_conjugation_antihomomorphism(rng):
    alg = CV()
    for _ in range(100):
        x = alg.element({rng.randrange(256): Fraction(rng.randint(-2, 2))
                         for _ in range(3)})
        y = alg.element({rng.randrange(256): Fraction(rng.randint(-2, 2))
                         for _ in range(3)})
        assert (x * y).conj() == y.conj() * x.conj()
        assert x.conj().conj() == x


def test_sigma_action_generators():
    alg = CV()
    one = Multivector.one(4)
    e1 = Multivector(4, {1: 1})
    assert sigma_action(alg.generator(0), one) == e1
    assert sigma_action(alg.generator(4), e1) == one
    assert sigma_action(alg.generator(4), one).is_zero()


def test_sigma_module_law(rng):
    alg = CV()
    for _ in range(500):
        x = alg.element({rng.randrange(256): Fraction(rng.randint(-2, 2))
                         for _ in range(2)})
        y = alg.element({rng.randrange(256): Fraction(rng.randint(-2, 2))
                         for _ in range(2)})
        eta = Multivector(4, {rng.randrange(16): Fraction(rng.randint(-2, 2))
                              for _ in range(2)})
        assert sigma_action(x * y, eta) == sigma_action(x, sigma_action(y, eta))


def test_even_elements_preserve_halves(rng):
    alg = CV()
    evens = [m for m in range(256) if popcount(m) % 2 == 0]
    for _ in range(100):
        x = alg.element({rng.choice(evens): Fraction(rng.randint(-2, 2))
                         for _ in range(3)})
        eta = Multivector(4, {m: Fraction(rng.randint(-2, 2))
                              for m in EVEN_MASKS})
        image = sigma_action(x, eta)
        assert all(m in EVEN_MASKS for m in image.terms)


def test_twisted_conjugation_identity_and_kernel():
    alg = CV()
    assert twisted_conjugation(alg.one()) == identity(8)
    assert twisted_conjugation(-alg.one()) == identity(8)


def test_twisted_conjugation_upper_triangular(rng):
    # the exponential of sum b_ij e_i e_j maps to the block matrix (I B; 0 I)
    alg = CV()
    for _ in range(10):
        b = random_alternating(rng)
        x = alg.zero()
        for i in range(4):
            for j in range(i + 1, 4):
                if b[i][j]:
                    x = x + (alg.generator(i) * alg.generator(j)).scale(b[i][j])
        g = exp_nilpotent(x)
        m = twisted_conjugation(g)
        expected = identity(8)
        for i in range(4):
            for j in range(4):
                expected[i][4 + j] = b[i][j]
        assert m == expected


def test_twisted_conjugation_orthogonal_det_one(rng):
    g_v = make_V().gram
    for _ in range(10):
        m = twisted_conjugation(random_spin_group_element(rng))
        mt = [[m[b2][a2] for b2 in range(8)] for a2 in range(8)]
        assert mat_mul(mt, mat_mul(g_v, m)) == g_v
        assert det(m) == 1


def test_twisted_conjugation_rejects_non_spin():
    alg = CV()
    with pytest.raises(ValueError):
        twisted_conjugation(alg.scalar(Fraction(2)))
    with pytest.raises(ValueError):
        twisted_conjugation(alg.generator(0))  # odd


@pytest.mark.parametrize("mask", [1 << 8, -1])
def test_an_element_rejects_a_mask_outside_its_algebra(mask):
    # mask -1 would read the product table row of mask 255
    alg = CV()
    with pytest.raises(ValueError, match="index outside the ambient space"):
        alg.element({mask: 1})
    with pytest.raises(ValueError, match="index outside the ambient space"):
        CliffordElement(alg, {0: 2, mask: 1})
    assert alg.element({255: 1}).terms == {255: 1}


def test_exp_nilpotent_basic():
    alg = CV()
    assert exp_nilpotent(alg.zero()) == alg.one()
    b12 = Fraction(3, 2)
    x = (alg.generator(0) * alg.generator(1)).scale(b12)
    assert exp_nilpotent(x) == alg.one() + x


def test_exp_nilpotent_rejects_non_nilpotent():
    alg = CV()
    with pytest.raises(ValueError):
        exp_nilpotent(alg.one())


def test_exp_omega_is_pfaffian_sum(rng):
    alg = CV()
    for _ in range(100):
        b = random_alternating(rng, lo=-2, hi=2)
        x = alg.zero()
        for i in range(4):
            for j in range(i + 1, 4):
                if b[i][j]:
                    x = x + (alg.generator(i) * alg.generator(j)).scale(b[i][j])
        g = exp_nilpotent(x)
        acted = sigma_action(g, Multivector.one(4))
        # oracle: sum over even subsets of Pfaffians of principal submatrices
        for mask in EVEN_MASKS:
            idx = [i for i in range(4) if mask >> i & 1]
            sub = [[b[a][bb] for bb in idx] for a in idx]
            assert acted.coefficient(mask) == pfaffian(sub)


def test_exp_inverse(rng):
    alg = CV()
    b = random_alternating(rng)
    x = alg.zero()
    for i in range(4):
        for j in range(i + 1, 4):
            x = x + (alg.generator(i) * alg.generator(j)).scale(b[i][j])
    assert exp_nilpotent(x) * exp_nilpotent(-x) == alg.one()
    assert is_spin_group_element(exp_nilpotent(x))


def test_commutator_identity_on_vectors(rng):
    alg = CV()
    lat = make_V()
    for _ in range(300):
        xs = [[Fraction(rng.randint(-3, 3)) for _ in range(8)]
              for _ in range(3)]
        x, y, v = (alg.vector(c) for c in xs)
        assert commutator(x * y, v) == (
            x.scale(lat.pair(xs[1], xs[2])) - y.scale(lat.pair(xs[0], xs[2])))


def test_xyz_table_matches_commutator_action():
    for label, elt, matrix in spin_v_xyz_table():
        assert is_spin_lie_element(elt), label
        assert spin_so_iso(elt) == matrix, label


def test_xyz_explicit_examples():
    alg = CV()
    table = {lab: (elt, m) for lab, elt, m in spin_v_xyz_table()}
    x11, m11 = table["X11"]
    assert x11 == alg.generator(0) * alg.generator(4) - alg.scalar(
        Fraction(1, 2))
    e = [[0] * 8 for _ in range(8)]
    e[0][0] = 1
    e[4][4] = -1
    assert m11 == [[Fraction(v) for v in row] for row in e]
    y12, m12 = table["Y12"]
    e = [[0] * 8 for _ in range(8)]
    e[0][5] = 1
    e[1][4] = -1
    assert m12 == [[Fraction(v) for v in row] for row in e]


def test_xyz_table_is_the_clifford_products():
    # the written-down terms against the products they replaced: the same
    # values, the same types and the same dict order
    table = spin_v_xyz_table()
    expected = reference.xyz_products()
    assert [label for label, _, _ in table] == [lab for lab, _ in expected]
    for (label, elt, _), (_, x) in zip(table, expected):
        assert elt == x, label
        assert repr(list(elt.terms.items())) == repr(list(x.terms.items()))


def test_cartan_elements_are_the_clifford_products():
    for i, (h, x) in enumerate(zip(cartan_elements(),
                                   reference.cartan_products())):
        assert h == x, i
        assert repr(list(h.terms.items())) == repr(list(x.terms.items()))


def test_spin_dimension_28():
    # the 28 basis elements act on V by independent matrices, n(2n-1) = 28
    table = spin_v_xyz_table()
    assert len(table) == 28
    assert rank([[c for row in spin_so_iso(x) for c in row]
                 for _, x, _ in table]) == 28


def test_spin_so_bracket_compatibility(rng):
    table = spin_v_xyz_table()
    for _ in range(100):
        x = table[rng.randrange(28)][1]
        y = table[rng.randrange(28)][1]
        lhs = spin_so_iso(commutator(x, y))
        mx, my = spin_so_iso(x), spin_so_iso(y)
        rhs = [[a - b for a, b in zip(ra, rb)]
               for ra, rb in zip(mat_mul(mx, my), mat_mul(my, mx))]
        assert lhs == rhs


def test_so_to_spin_roundtrip(rng):
    alg = CV()
    table = spin_v_xyz_table()
    for _ in range(20):
        x = alg.zero()
        for _ in range(4):
            x = x + table[rng.randrange(28)][1].scale(
                Fraction(rng.randint(-2, 2)))
        m = spin_so_iso(x)
        assert so_to_spin(alg, m) == x


def test_so_to_spin_restores_scalar_shift():
    alg = CV()
    m = spin_v_xyz_table()[0][2]  # X11
    lifted = so_to_spin(alg, m)
    assert lifted.scalar_part() == Fraction(-1, 2)


def test_so_to_spin_rejects_non_so():
    alg = CV()
    bad = identity(8)
    with pytest.raises(ValueError, match="not in so"):
        so_to_spin(alg, bad)


def test_so_to_spin_rejects_a_degenerate_gram():
    # e_3 and e_4 span the radical, so e_3 e_4 acts as 0 and the lift of
    # the image of e_1 e_3 is not unique
    g = [[2, 1, 0, 0], [1, -2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    alg = CliffordAlgebra(BilinearLattice(g))
    e = alg.generator
    m = spin_so_iso(e(0) * e(2))
    assert spin_so_iso(e(0) * e(2) + e(2) * e(3)) == m
    with pytest.raises(ValueError, match="nondegenerate Gram"):
        so_to_spin(alg, m)


def test_spin_basis_generic_lattice():
    lat = BilinearLattice([[2, 1, 0], [1, -2, 1], [0, 1, 4]])
    alg = CliffordAlgebra(lat)
    basis = reference.spin_basis(alg)
    assert len(basis) == 3
    for x in basis:
        assert is_spin_lie_element(x)
        m = spin_so_iso(x)
        assert so_to_spin(alg, m) == x


LIFT_ENTRIES = st.one_of(st.just(0), st.integers(-3, 3),
                         st.fractions(min_value=-2, max_value=2,
                                      max_denominator=4))


@st.composite
def lifts(draw):
    """A nondegenerate rational Gram of rank 2 to 5 and a random element
    of spin(L) on the reference basis."""
    n = draw(st.integers(2, 5))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(LIFT_ENTRIES)
    assume(det(g) != 0)
    alg = CliffordAlgebra(BilinearLattice(g))
    x = alg.zero()
    for b in reference.spin_basis(alg):
        x = x + b.scale(Fraction(draw(LIFT_ENTRIES)))
    return alg, x


@settings(max_examples=60, deadline=None)
@given(lifts())
def test_so_to_spin_inverts_spin_so_iso_on_nondegenerate_grams(lift):
    alg, x = lift
    m = spin_so_iso(x)
    got = so_to_spin(alg, m)
    assert got == x
    expected = reference.so_to_spin(alg, m)
    assert got == expected and repr(got) == repr(expected)


# -- the product against a per-term Fraction reference ------------------------

#: a rank-3 lattice with odd diagonal entries: e_1^2 = 1/2 and e_2^2 = -3/2,
#: so its blade products have half-integer coefficients
ODD = CliffordAlgebra(BilinearLattice([[1, 1, 0], [1, -3, 2], [0, 2, 4]]))


@lru_cache(maxsize=None)
def _word(alg, word):
    """The product of the generators e_w for w in word, as {mask: Fraction},
    by rewriting adjacent pairs with e_i e_j = -e_j e_i + (e_i, e_j) and
    e_i e_i = (e_i, e_i)/2; independent of the algebra's blade tables."""
    g = alg.gram
    for p in range(len(word) - 1):
        i, j = word[p], word[p + 1]
        if i < j:
            continue
        rest = word[:p] + word[p + 2:]
        if i == j:
            terms = [(g[i][i] / 2, rest)]
        else:
            swapped = word[:p] + (j, i) + word[p + 2:]
            terms = [(Fraction(-1), swapped), (g[i][j], rest)]
        out = {}
        for c, w in terms:
            for m, x in _word(alg, w).items():
                out[m] = out.get(m, Fraction(0)) + c * x
        return {m: x for m, x in out.items() if x}
    return {mask_of(word): Fraction(1)}


def reference_product(x, y):
    """Per-term product over Fractions, each blade product by rewriting."""
    alg = x.algebra
    out = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            word = tuple(indices_of(ma)) + tuple(indices_of(mb))
            for m, c in _word(alg, word).items():
                out[m] = out.get(m, Fraction(0)) + ca * cb * c
    return CliffordElement(alg, out)


COEFFS = st.one_of(st.integers(-4, 4),
                   st.fractions(min_value=-3, max_value=3,
                                max_denominator=12))


def elements(alg, coeffs=COEFFS, max_terms=5):
    masks = st.integers(0, (1 << alg.rank) - 1)
    return st.dictionaries(masks, coeffs, max_size=max_terms).map(
        lambda terms: CliffordElement(alg, terms))


def _same(got, expected):
    assert got == expected
    assert repr(sorted(got.terms.items())) == \
        repr(sorted(expected.terms.items()))


@settings(max_examples=100, deadline=None)
@given(elements(CV()), elements(CV()))
def test_product_matches_reference_on_V(x, y):
    _same(x * y, reference_product(x, y))


@settings(max_examples=100, deadline=None)
@given(elements(ODD), elements(ODD))
def test_product_matches_reference_with_half_integer_blades(x, y):
    _same(x * y, reference_product(x, y))


#: Q(sqrt(2)) coefficients with non-integral coordinates: against a
#: rational factor with denominators, the rational side of the product is
#: scaled to ints over its denominator and the other side is not
FRACTIONAL_QUAD = st.builds(QuadExt, COEFFS,
                            st.fractions(min_value=-2, max_value=2,
                                         max_denominator=6), st.just(2))


@settings(max_examples=50, deadline=None)
@given(elements(CV(), coeffs=FRACTIONAL_QUAD, max_terms=3),
       elements(CV(), max_terms=3))
def test_product_with_quadext_coefficients(x, y):
    _same(x * y, reference_product(x, y))
    _same(y * x, reference_product(y, x))


@settings(max_examples=50, deadline=None)
@given(elements(CV(), max_terms=4), elements(CV(), max_terms=4),
       elements(CV(), max_terms=4))
def test_product_is_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


# -- the spin module table against the generator action ----------------------

def test_module_table_digest():
    # SHA-256 of the table's repr, taken when it was built from wedge and
    # contract
    digest = hashlib.sha256(repr(_module_table()).encode()).hexdigest()
    assert digest == ("a00b2ad2d5ba9497b5213d7dd8cdbdf9"
                      "c1ea955cc93200e1a967709db38758d8")


def test_module_table_generator_rows_are_the_generator_action():
    table = _module_table()
    for k in range(8):
        for f in range(16):
            image = reference.gen_action(k, Multivector(4, {f: 1}))
            hit = table[1 << k][f]
            if not image.terms:
                assert hit is None, (k, f)
                continue
            [(g, s)] = image.terms.items()
            assert hit == (g, s) and type(hit[1]) is int, (k, f)


def reference_sigma(x, eta):
    """sigma(x) eta by composing the generator actions of each blade,
    rightmost factor first, on Multivectors."""
    out = Multivector.zero(4)
    for mask, c in x.terms.items():
        cur = eta
        for k in reversed(indices_of(mask)):
            cur = reference.gen_action(k, cur)
        out = out + cur.scale(c)
    return out


def reference_twisted(x):
    """The columns x e_j x* of twisted conjugation, by Clifford products."""
    alg = x.algebra
    xc = x.conj()
    assert x * xc == alg.one()
    images = [x * alg.generator(j) * xc for j in range(8)]
    assert all(img.is_vector() for img in images)
    return [[images[j].vector_part()[i] for j in range(8)] for i in range(8)]


QUAD = st.builds(QuadExt, st.integers(-3, 3), st.integers(-3, 3), st.just(2))
ANY_ELEMENTS = st.one_of(elements(CV()), elements(ODD),
                         elements(CV(), coeffs=QUAD, max_terms=4))


def reference_conj(x):
    """Per-term conjugate: (-1)^r times the reversed word of each blade,
    reduced by rewriting."""
    out = {}
    for mask, c in x.terms.items():
        word = tuple(reversed(indices_of(mask)))
        sign = -1 if len(word) % 2 else 1
        for m, v in _word(x.algebra, word).items():
            out[m] = out.get(m, Fraction(0)) + sign * c * v
    return CliffordElement(x.algebra, out)


@settings(max_examples=80, deadline=None)
@given(ANY_ELEMENTS)
def test_conj_matches_reference(x):
    _same(x.conj(), reference_conj(x))


def test_blade_conj_stores_ints_like_the_product_tables():
    assert all(type(c) is int for m in range(256)
               for c in CV().blade_conj(m).values())


#: Gram entries over Q (half-integers and quarters among them) or Q(sqrt(2))
GRAM_SCALARS = st.sampled_from([
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(QuadExt, st.integers(-2, 2), st.integers(-2, 2), st.just(2))])


@st.composite
def grams(draw):
    """A symmetric Gram of rank 0 to 6 over one field: free entries, or
    A^T D A for r <= n rows of A, which is degenerate when r < n."""
    n, scalars = draw(st.integers(0, 6)), draw(GRAM_SCALARS)
    g = [[0] * n for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = draw(scalars)
        return g
    r = draw(st.integers(0, n))
    a = [[draw(scalars) for _ in range(n)] for _ in range(r)]
    d = [draw(scalars) for _ in range(r)]
    return [[sum((a[t][i] * d[t] * a[t][j] for t in range(r)), Fraction(0))
             for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(grams())
def test_generator_entries_and_conjugates_match_the_recursion(gram):
    # values, types and dict order, for every blade and generator
    alg = CliffordAlgebra(BilinearLattice(gram))
    for a in range(1 << alg.rank):
        got, expected = alg.blade_conj(a), reference.blade_conj(alg, a)
        assert repr(list(got.items())) == repr(list(expected.items())), a
        for k in range(alg.rank):
            got = alg.blade_product(a, 1 << k)
            expected = reference.blade_times_gen(alg, a, k)
            assert repr(list(got.items())) == \
                repr(list(expected.items())), (a, k)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(elements(CV()), elements(CV()), COEFFS),
                 st.tuples(elements(CV(), coeffs=QUAD, max_terms=4),
                           elements(CV()), QUAD)))
def test_sum_negation_and_scale_match_per_term_reference(triple):
    x, y, c = triple
    alg = x.algebra
    total = dict(x.terms)
    for m, v in y.terms.items():
        total[m] = total.get(m, 0) + v
    _same(x + y, CliffordElement(alg, total))
    _same(-x, CliffordElement(alg, {m: -v for m, v in x.terms.items()}))
    _same(x.scale(c), CliffordElement(alg, {m: c * v
                                            for m, v in x.terms.items()}))


#: the Clifford algebra of the rank-6 complement of the standard h and s
#: in S+, the algebra of the Kuga-Satake construction
KS = CliffordAlgebra(complement_data([0, 1, 0, 0, 0, 1, 0, 0],
                                     [1, 0, 0, 0, 1, 0, 0, 0])[1])


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.tuples(elements(CV()), elements(CV())),
    st.tuples(elements(KS), elements(KS)),
    st.tuples(elements(CV(), coeffs=QUAD, max_terms=4), elements(CV())),
    st.tuples(elements(KS, max_terms=4),
              elements(KS, coeffs=QUAD, max_terms=4))))
def test_commutator_matches_two_products(pair):
    x, y = pair
    _same(commutator(x, y), x * y - y * x)
    _same(commutator(y, x), -(x * y - y * x))


#: a Clifford algebra over a Gram with non-integral entries
FRAC = CliffordAlgebra(BilinearLattice(
    [[Fraction(2, 3), Fraction(1, 2), 0, 0],
     [Fraction(1, 2), -1, Fraction(3, 4), 0],
     [0, Fraction(3, 4), 0, 1],
     [0, 0, 1, Fraction(-1, 5)]]))
TOWER = st.builds(lambda *c: TowerScalar(*c, m=-2),
                  *[st.integers(-2, 2)] * 4)


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    st.tuples(elements(CV()), elements(CV())),
    st.tuples(elements(KS), elements(KS)),
    st.tuples(elements(ODD), elements(ODD)),
    st.tuples(elements(FRAC), elements(FRAC)),
    st.tuples(elements(CV(), coeffs=QUAD, max_terms=4), elements(CV())),
    st.tuples(elements(FRAC, max_terms=4),
              elements(FRAC, coeffs=TOWER, max_terms=3))))
def test_commutator_table_matches_both_orders(pair):
    x, y = pair
    _same(commutator(x, y), reference.commutator(x, y))
    _same(commutator(y, x), reference.commutator(y, x))


@pytest.mark.parametrize("alg", [CV(), KS, ODD, FRAC],
                         ids=["V", "KS", "odd", "frac"])
def test_blade_commutator_drops_cancelled_terms(alg):
    masks = range(1 << alg.rank)
    for a in masks[::3]:
        for b in masks[::5]:
            got = alg.blade_commutator(a, b)
            expected = dict(alg.blade_product(a, b))
            for m, c in alg.blade_product(b, a).items():
                expected[m] = expected.get(m, 0) - c
            assert got == {m: c for m, c in expected.items() if c}
            assert all(c and (type(c) is int or c.denominator > 1)
                       for c in got.values())
        assert alg.blade_commutator(a, a) == {}
        assert alg.blade_commutator(0, a) == {}


def _by_hand(alg, x, y, sign=0):
    """sum c_A c_B (e_A e_B + sign e_B e_A), each blade product read from
    blade_product."""
    out = {}
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            for order, s in (((ma, mb), 1), ((mb, ma), sign)):
                for m, c in alg.blade_product(*order).items():
                    out[m] = out.get(m, 0) + s * ca * cb * c
    return CliffordElement(alg, out)


@pytest.mark.parametrize("alg", [CV(), KS, ODD, FRAC],
                         ids=["V", "KS", "odd", "frac"])
def test_blade_tables_are_rows_of_the_blade_products(alg):
    # e_A e_B is e_A times the generators of B in turn, each step read
    # from blade_product; the tables keep one row of 2^rank entries per
    # left blade, each entry the pairs of blade_product or blade_commutator
    n = 1 << alg.rank
    for a in range(0, n, 3):
        for b in range(0, n, 7):
            hand = {a: 1}
            for k in indices_of(b):
                step = {}
                for m, c in hand.items():
                    for m2, c2 in alg.blade_product(m, 1 << k).items():
                        step[m2] = step.get(m2, 0) + c * c2
                hand = {m: c for m, c in step.items() if c}
            assert alg.blade_product(a, b) == hand
            commutator_ab = alg.blade_commutator(a, b)
            for rows, entry in ((alg._products, hand),
                                (alg._commutators, commutator_ab)):
                assert len(rows) == n and len(rows[a]) == n
                assert rows[a][b] == tuple(entry.items())


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(elements(CV()), elements(CV())),
    st.tuples(elements(ODD), elements(ODD)),
    st.tuples(elements(FRAC, max_terms=4),
              elements(FRAC, coeffs=QUAD, max_terms=3))))
def test_row_table_product_and_commutator_match_blade_products(pair):
    x, y = pair
    _same(x * y, _by_hand(x.algebra, x, y))
    _same(commutator(x, y), _by_hand(x.algebra, x, y, -1))



# -- the stored integer forms against the Fraction paths ---------------------

#: Fraction coefficients with zeros, signs and denominators
FORM_COEFFS = st.one_of(st.just(0), st.just(Fraction(0)), COEFFS)


def _same_in_order(got, expected):
    """Equal by ==, with the same terms in the same order, by repr."""
    assert got == expected
    assert repr(list(got.terms.items())) == \
        repr(list(expected.terms.items()))


def _sum_on_fractions(x, y, sign):
    """x + sign y term by term on the Fraction terms, cancelled terms
    left out, in the order of x's terms and then y's."""
    total = dict(x.terms)
    for m, v in y.terms.items():
        total[m] = total.get(m, 0) + sign * v
    return CliffordElement(x.algebra, total)


def _conj_on_fractions(x):
    """The conjugate summed over the Fraction terms of x."""
    out = {}
    for mask, c in x.terms.items():
        for m, c2 in x.algebra.blade_conj(mask).items():
            out[m] = out.get(m, 0) + c * c2
    return CliffordElement(x.algebra, out)


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    st.tuples(elements(CV(), FORM_COEFFS), elements(CV(), FORM_COEFFS)),
    st.tuples(elements(FRAC, FORM_COEFFS, 4), elements(FRAC, FORM_COEFFS, 4)),
    st.tuples(elements(CV(), QUAD, 4), elements(CV(), FORM_COEFFS)),
    st.tuples(elements(CV(), FORM_COEFFS), elements(CV(), QUAD, 4))),
    st.one_of(FORM_COEFFS, QUAD))
def test_integer_forms_match_the_fraction_paths(pair, c):
    x, y = pair
    alg = x.algebra
    _same_in_order(x * y, reference.blade_sum(x, y, alg._products))
    _same_in_order(commutator(x, y),
                   reference.blade_sum(x, y, alg._commutators))
    _same_in_order(x + y, _sum_on_fractions(x, y, 1))
    _same_in_order(x - y, _sum_on_fractions(x, y, -1))
    _same_in_order(-x, CliffordElement(alg, {m: -v
                                             for m, v in x.terms.items()}))
    _same_in_order(x.scale(c), CliffordElement(
        alg, {m: c * v for m, v in x.terms.items()}))
    _same_in_order(x.conj(), _conj_on_fractions(x))


@settings(max_examples=80, deadline=None)
@given(st.one_of(elements(CV(), FORM_COEFFS), elements(CV(), QUAD, 4)),
       st.dictionaries(st.integers(0, 15), st.one_of(FORM_COEFFS, QUAD),
                       max_size=8).map(lambda t: Multivector(4, t)))
def test_sigma_action_matches_the_fraction_path(x, eta):
    _same_in_order(sigma_action(x, eta),
                   reference.sigma_action_on_fractions(x, eta))


@settings(max_examples=80, deadline=None)
@given(elements(CV(), FORM_COEFFS), elements(CV(), FORM_COEFFS))
def test_a_product_equals_and_hashes_as_its_terms_rebuilt(x, y):
    # the product is born with its integer form and builds its Fraction
    # terms on first read; an element built from those terms compares and
    # hashes the same, in the same key order
    z = x * y
    rebuilt = CliffordElement(z.algebra, dict(z.terms))
    assert z == rebuilt and rebuilt == z and hash(z) == hash(rebuilt)
    assert list(z.terms) == list(rebuilt.terms)
    assert all(type(c) is Fraction for c in z.terms.values())
    assert z.terms is z.terms
    with pytest.raises(TypeError):
        z.terms[0] = Fraction(1)
    # unequal values: another denominator, or the same one
    assert z != rebuilt + CV().one() and z != rebuilt + CV().scalar(
        Fraction(1, 2))
    assert z.is_zero() or z != rebuilt.scale(Fraction(1, 2))


def test_the_exponential_chain_starts_at_its_first_factor(monkeypatch):
    # exp(x) forms x^2, ..., x^k for x^k = 0 and no product by 1, and the
    # spin-group element multiplies its three exponentials only
    calls = []
    product = CliffordElement.__mul__

    def counted(self, other):
        calls.append((self, other))
        return product(self, other)

    monkeypatch.setattr(CliffordElement, "__mul__", counted)
    x = CV().generator(0) * CV().generator(1)
    calls.clear()
    assert exp_nilpotent(x) == CV().one() + x
    assert calls == [(x, x)]
    calls.clear()
    random_spin_group_element(random.Random(3))
    assert calls and all(a != CV().one() for a, _ in calls)

def test_random_spin_group_elements_keep_their_repr():
    # SHA-256 of the reprs at seeds 0-11 and spans 1, 2, taken when the
    # exponents were built from generator products
    text = "\n".join(repr(random_spin_group_element(random.Random(s), span))
                     for s in range(12) for span in (1, 2))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6322979121e7d09063508e56595a6cd6e003e8fcfdb3c03f2501b4b38a711b51")


def forms(coeffs=COEFFS):
    return st.dictionaries(st.integers(0, 15), coeffs, max_size=6).map(
        lambda terms: Multivector(4, terms))


@settings(max_examples=100, deadline=None)
@given(elements(CV(), max_terms=6), forms())
def test_sigma_action_matches_generator_composition(x, eta):
    got = sigma_action(x, eta)
    expected = reference_sigma(x, eta)
    assert got == expected
    assert repr(sorted(got.terms.items())) == \
        repr(sorted(expected.terms.items()))


def reference_sigma_terms(x, eta):
    """sigma(x) eta as one Fraction-by-Fraction loop over the terms of x
    and eta, each blade acting on each basis form by generator actions."""
    out = {}
    for mask, c in x.terms.items():
        for f, cf in eta.terms.items():
            cur = Multivector(4, {f: 1})
            for k in reversed(indices_of(mask)):
                cur = reference.gen_action(k, cur)
            for g, s in cur.terms.items():
                out[g] = out.get(g, Fraction(0)) + c * cf * s
    return Multivector(4, out)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(elements(CV(), coeffs=FRACTIONAL_QUAD, max_terms=3), forms()),
    st.tuples(elements(CV(), max_terms=3), forms(FRACTIONAL_QUAD))))
def test_sigma_action_with_quadext_coefficients(pair):
    x, eta = pair
    got, expected = sigma_action(x, eta), reference_sigma_terms(x, eta)
    assert got == expected
    assert repr(sorted(got.terms.items())) == \
        repr(sorted(expected.terms.items()))


@settings(max_examples=40, deadline=None)
@given(elements(CV(), max_terms=6))
def test_sigma_matrix_columns_are_sigma_action(x):
    m = reference.sigma_matrix(x)
    for f in range(16):
        image = sigma_action(x, Multivector(4, {f: 1}))
        assert [row[f] for row in m] == [image.coefficient(g)
                                         for g in range(16)]


def test_sigma_is_injective():
    # C(V) = End of the exterior algebra of W: the 256 blades act by
    # independent 16 x 16 matrices, which makes the spin-group test exact
    alg = CV()
    rows = [[c for row in reference.sigma_matrix(alg.element({a: 1}))
             for c in row] for a in range(256)]
    assert rank(rows) == 256


def _nilpotent_exponential(coeffs, family):
    alg = CV()
    x = alg.zero()
    for (i, j), c in zip(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
                         coeffs):
        x = x + (alg.generator(i + family) *
                 alg.generator(j + family)).scale(c)
    return exp_nilpotent(x)


def _same_route(x):
    """twisted_conjugation(x) and the three-sided route of table_references
    agree: the same matrix by == and repr, or the same ValueError."""
    try:
        expected = reference.twisted_conjugation(x)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            twisted_conjugation(x)
        return None
    got = twisted_conjugation(x)
    assert got == expected and repr(got) == repr(expected)
    return got


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_twisted_conjugation_matches_sandwich_on_random_elements(seed, span):
    g = random_spin_group_element(random.Random(seed), span)
    assert twisted_conjugation(g) == reference_twisted(g)
    assert is_spin_group_element(g)
    assert _same_route(g) is not None
    assert _same_route(-g) == _same_route(g)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                min_size=6, max_size=6),
       st.sampled_from((0, 4)), st.sampled_from((1, -1)))
def test_twisted_conjugation_matches_sandwich_on_exponentials(coeffs, family,
                                                             sign):
    g = _nilpotent_exponential(coeffs, family).scale(sign)
    got = twisted_conjugation(g)
    assert got == reference_twisted(g)
    assert repr(got) == repr(reference_twisted(g))
    assert _same_route(g) == got


def test_twisted_conjugation_rejects_unit_outside_spin():
    # x = 1 + (e - e*)/2 with e = e1...e6 is even with x x* = 1, but
    # x e_j x* leaves V
    alg = CV()
    e = alg.element({0b111111: 1})
    x = alg.one() + (e - e.conj()).scale(Fraction(1, 2))
    assert x.is_even() and x * x.conj() == alg.one()
    with pytest.raises(ValueError, match="does not preserve V"):
        twisted_conjugation(x)
    assert not is_spin_group_element(x)


def _form_transpose(m):
    """C m^T C for the spin-module form C[F][15 - F] = (-1)^|F & {0, 2}|:
    entry (g, f) is s(g) s(f) m[15 - f][15 - g]."""
    s = [(-1) ** bin(f & 0b101).count("1") for f in range(16)]
    return [[s[g] * s[f] * m[15 - f][15 - g] for f in range(16)]
            for g in range(16)]


def test_spin_module_form_is_its_own_inverse():
    # C I^T C = C^2
    one = reference.sigma_matrix(CV().one())
    assert _form_transpose(one) == one


@settings(max_examples=60, deadline=None)
@given(st.one_of(elements(CV(), max_terms=6),
                 elements(CV(), coeffs=QUAD, max_terms=4),
                 elements(CV(), coeffs=FRACTIONAL_QUAD, max_terms=3)))
def test_sigma_of_conjugate_is_the_form_transpose(x):
    # Chevalley's invariant form: sigma(x*) = C sigma(x)^T C
    assert reference.sigma_matrix(x.conj()) == \
        _form_transpose(reference.sigma_matrix(x))


def test_units_outside_spin_fail_on_the_one_block():
    # x = 1 + (e - e*)/2 is even; where x x* = 1 and x e_j x* leaves V, the
    # S+ -> S- block alone must see it
    alg, outside = CV(), 0
    for mask in range(256):
        if bin(mask).count("1") not in (2, 4, 6):
            continue
        e = alg.element({mask: 1})
        x = alg.one() + (e - e.conj()).scale(Fraction(1, 2))
        if x * x.conj() != alg.one():
            continue
        if _same_route(x) is None:
            outside += 1
            with pytest.raises(ValueError, match="does not preserve V"):
                twisted_conjugation(x)
    assert outside == 24


def test_spin_group_membership_rejections():
    alg = CV()
    assert not is_spin_group_element(alg.scalar(2))
    assert not is_spin_group_element(alg.generator(0))
    assert not is_spin_group_element(alg.zero())
    with pytest.raises(ValueError, match="x x\\* = 1"):
        twisted_conjugation(alg.zero())


def test_spin_module_needs_the_gram_of_V():
    # with Gram 2 I, e1 e1 = 1 acts as the identity, but e1 acts on the
    # exterior algebra of W by wedging, which squares to zero
    alg = CliffordAlgebra(BilinearLattice([[2 if i == j else 0
                                            for j in range(8)]
                                           for i in range(8)]))
    e1 = alg.generator(0)
    assert e1 * e1 == alg.one()
    one = Multivector.one(4)
    for call in (lambda: sigma_action(e1 * e1, one),
                 lambda: reference.sigma_matrix(alg.one()),
                 lambda: twisted_conjugation(alg.one()),
                 lambda: is_spin_group_element(alg.one())):
        with pytest.raises(ValueError, match="C\\(V\\)"):
            call()
    # another algebra with V's Gram is accepted
    alt = CliffordAlgebra(make_V())
    assert sigma_action(alt.generator(4), Multivector(4, {1: 1})) == one
    assert twisted_conjugation(alt.one()) == identity(8)
