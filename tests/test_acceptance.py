"""Acceptance suite: one test per criterion, exact (zero-tolerance)
equality throughout, one printed pass line per criterion.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines as
they pass).
"""

import random
from fractions import Fraction

from spinweil.clifford import (CV, cartan_elements, commutator,
                               exp_nilpotent, random_spin_group_element,
                               sigma_action, spin_so_iso, spin_v_xyz_table,
                               twisted_conjugation)
from spinweil.kuga import (ks_center_field_check, ks_complex_structure,
                           ks_report, ks_right_commutation)
from spinweil.lattices import make_V, moduli_dimension
from spinweil.linalg import det, identity, mat, mat_mul, mat_vec, nullspace, rank
from spinweil.multivector import Multivector, mask_of, pfaffian, star_matrix
from spinweil.reps import (cayley_class, cayley_constant, derived_action,
                           explicit_cayley_formula, invariant_subspace,
                           quadric_square_span, splus_matrix,
                           stabilizer_algebra, standard_spinor,
                           weight_decomposition, weight_multiset)
from spinweil.spingeo import (EVEN_MASKS, Spinor, random_alternating,
                              random_isotropic_spinor, spinor_map,
                              splus_lattice, transversality)
from spinweil.weil import (Period, cayley_hodge_test, datum_report, h2_split,
                           make_weil_datum, sample_period, weil_class_space)

import table_references as reference

SEED = 24601

H_STD = Spinor([0, 1, 0, 0, 0, 1, 0, 0])
S_STD = Spinor([1, 0, 0, 0, 1, 0, 0, 0])
PERIOD_STD = Period((0, 0, 1, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0, 0, 1))


def report(criterion, text):
    print(f"[PASS] criterion {criterion:>2}: {text}")


def test_criterion_01_spinor_quadric():
    rng = random.Random(SEED)
    for _ in range(1000):
        b = random_alternating(rng)
        z = spinor_map(b).z
        pf = b[0][1] * b[2][3] - b[0][2] * b[1][3] + b[0][3] * b[1][2]
        assert z == [1, b[0][1], b[0][2], b[0][3], pf,
                     -b[2][3], b[1][3], -b[1][2]]
        assert splus_lattice().pair(z, z) == 0
    report(1, "1000 spinor images on the quadric, coordinates exact")


def test_criterion_02_pfaffian_exponential():
    rng = random.Random(SEED + 1)
    alg = CV()
    for _ in range(100):
        b = random_alternating(rng, lo=-2, hi=2)
        x = alg.zero()
        for i in range(4):
            for j in range(i + 1, 4):
                if b[i][j]:
                    x = x + (alg.generator(i) * alg.generator(j)).scale(b[i][j])
        acted = sigma_action(exp_nilpotent(x), Multivector.one(4))
        for mask in EVEN_MASKS:
            idx = [i for i in range(4) if mask >> i & 1]
            sub = [[b[a][c] for c in idx] for a in idx]
            assert acted.coefficient(mask) == pfaffian(sub)
    for size in (4, 6):
        for _ in range(50):
            b = random_alternating(rng, size=size)
            assert pfaffian(b) ** 2 == det(b)
    report(2, "exponential = Pfaffian sum (100), Pfaffian^2 = det (2 x 50)")


def test_criterion_03_spin_cover():
    rng = random.Random(SEED + 2)
    alg = CV()
    g_v = make_V().gram
    for _ in range(20):
        b = random_alternating(rng)
        x = alg.zero()
        for i in range(4):
            for j in range(i + 1, 4):
                if b[i][j]:
                    x = x + (alg.generator(i) * alg.generator(j)).scale(b[i][j])
        m = twisted_conjugation(exp_nilpotent(x))
        expected = identity(8)
        for i in range(4):
            for j in range(4):
                expected[i][4 + j] = b[i][j]
        assert m == expected
    for _ in range(20):
        m = twisted_conjugation(random_spin_group_element(rng))
        mt = [[m[bb][aa] for bb in range(8)] for aa in range(8)]
        assert mat_mul(mt, mat_mul(g_v, m)) == g_v
        assert det(m) == 1
    assert twisted_conjugation(-alg.one()) == identity(8)
    report(3, "exp lands on (I B; 0 I); images special orthogonal; "
              "kernel contains -1")


def test_criterion_04_lie_dictionary():
    rng = random.Random(SEED + 3)
    table = spin_v_xyz_table()
    for label, elt, matrix in table:
        assert spin_so_iso(elt) == matrix, label
    for _ in range(1000):
        x = table[rng.randrange(28)][1]
        y = table[rng.randrange(28)][1]
        lhs = spin_so_iso(commutator(x, y))
        mx, my = spin_so_iso(x), spin_so_iso(y)
        rhs = [[a - b for a, b in zip(ra, rb)]
               for ra, rb in zip(mat_mul(mx, my), mat_mul(my, mx))]
        assert lhs == rhs
    alg = CV()
    lat = make_V()
    for _ in range(1000):
        xs = [[Fraction(rng.randint(-3, 3)) for _ in range(8)]
              for _ in range(3)]
        x, y, v = (alg.vector(c) for c in xs)
        assert commutator(x * y, v) == (
            x.scale(lat.pair(xs[1], xs[2])) - y.scale(lat.pair(xs[0], xs[2])))
    report(4, "28-element dictionary exact; 1000 bracket pairs; 1000 "
              "degree-2 commutator identities")


def test_criterion_05_representation_bookkeeping():
    vecs = [u for _, u in quadric_square_span()]
    assert rank(mat(vecs)) == 35
    assert len(invariant_subspace(identity(28), "Sym2S+")) == 1
    star = star_matrix()
    for lam in (1, -1):
        shifted = [[star[a][b] - (lam if a == b else 0) for b in range(70)]
                   for a in range(70)]
        assert len(nullspace(mat(shifted))) == 35
    half = Fraction(1, 2)
    expected = sorted(
        tuple(half if bit else -half for bit in bits)
        for bits in __import__("itertools").product((0, 1), repeat=4)
        if sum(bits) % 2 == 0)
    assert weight_multiset("S+") == expected
    top = [(label, vec) for wt, label, vec in weight_decomposition("S+")
           if wt == (half,) * 4]
    assert len(top) == 1 and top[0][1] == [0, 0, 0, 0, 1, 0, 0, 0]
    report(5, "35-dimensional square span; unique invariant; star "
              "eigenspaces 35 + 35; half-sum weights with top vector e*")


def test_criterion_06_cayley_class():
    rng = random.Random(SEED + 5)
    for n in (1, 2, 3, 5):
        a, b, lam = reference.cayley_routes(standard_spinor(n))
        assert lam is not None and lam != 0
        assert cayley_constant(n) == Fraction(1, 4)
        assert a == explicit_cayley_formula(n).scale(Fraction(1, 4))
    from spinweil.weil import _wedge4_apply
    s = standard_spinor(2)
    c = cayley_class(s)
    for _ in range(20):
        g = random_spin_group_element(rng)
        moved = Spinor(mat_vec(splus_matrix(g), s.z))
        assert cayley_class(moved) == _wedge4_apply(
            twisted_conjugation(g), c)
    report(6, "two routes proportional; constant 1/4 against the closed "
              "form; equivariance on 20 group elements")


def test_criterion_07_branching():
    for n in (1, 2):
        stab = stabilizer_algebra([standard_spinor(n)])
        assert len(stab) == 21
        assert len(invariant_subspace(stab, "Wedge4V")) == 1
    stab_hs = stabilizer_algebra([H_STD, S_STD])
    assert len(stab_hs) == 15
    assert len(invariant_subspace(stab_hs, "Wedge2V")) == 1
    report(7, "stabilizer dims 21 and 15; unique invariants in degrees "
              "4 and 2")


def test_criterion_08_transversality_and_scaling():
    rng = random.Random(SEED + 7)
    checked = 0
    agree_true = agree_false = 0
    while checked < 1000:
        z1 = random_isotropic_spinor(rng)
        z2 = random_isotropic_spinor(rng)
        try:
            claim = transversality(z1, z2)   # raises unless the ranks agree
        except ValueError:
            continue
        agree_true += claim
        agree_false += not claim
        checked += 1
    assert agree_true and agree_false
    x = CV().zero()
    for h in cartan_elements():
        x = x + h
    m = derived_action(x, "S+")
    assert [m[i][i] for i in range(8)] == [Fraction(v) for v in
                                           (-2, 0, 0, 0, 2, 0, 0, 0)]
    assert all(m[i][j] == 0 for i in range(8) for j in range(8) if i != j)
    report(8, f"1000 pairs, rank oracle agreement ({agree_true} disjoint, "
              f"{agree_false} meeting); scaling spectrum (2, -2, 0^6)")


def _invariant_line_cache():
    cache = {}

    def get(h, s):
        key = (tuple(h.z), tuple(s.z))
        if key not in cache:
            stab = stabilizer_algebra([h, s])
            assert len(stab) == 15
            inv = invariant_subspace(stab, "Wedge2V")
            assert len(inv) == 1
            cache[key] = inv[0]
        return cache[key]
    return get


def test_criterion_09_weil_fourfolds():
    from spinweil.reps import WEDGE2V_BASIS
    line_of = _invariant_line_cache()
    parts = set()
    count = 0
    for k in (1, 2, 3, 5):
        h = Spinor([0, k, 0, 0, 0, 1, 0, 0])
        for seed in range(5):
            datum = make_weil_datum(h, S_STD, seed=SEED + seed)
            rep = datum_report(datum)
            bad = [key for key, v in rep.items()
                   if isinstance(v, bool) and not v and
                   key != "omega_spans_invariant_line"]
            assert not bad, bad
            omega_coords = [datum.omega.coefficient(mask_of(t))
                            for t in WEDGE2V_BASIS]
            aug = mat([line_of(h, S_STD), omega_coords])
            assert rank(aug) == 1
            parts.add(-datum.m)
            count += 1
    assert parts == {1, 2, 3, 5}
    assert count >= 20
    report(9, f"{count} data across fields with squarefree parts "
              f"{sorted(parts)}: full battery exact")


def test_criterion_10_cayley_hodge():
    rng = random.Random(SEED + 9)
    p0 = Spinor([0, 0, 1, 0, 0, 0, 1, 0])
    hits = [0, 0]
    for k in range(100):
        if k % 2 == 0:
            per = sample_period(H_STD, S_STD, seed=rng.randrange(10 ** 6))
        else:
            per = sample_period(p0, H_STD, seed=rng.randrange(10 ** 6))
        truth = per.pairs_to_zero_with(S_STD.z)
        assert cayley_hodge_test(S_STD, per) == truth
        hits[truth] += 1
    assert hits[0] and hits[1]
    report(10, f"100 periods ({hits[1]} Hodge, {hits[0]} violations): "
               "derivation criterion equals orthogonality")


def test_criterion_11_weil_classes():
    for h, seed in ((H_STD, 0), (Spinor([0, 2, 0, 0, 0, 1, 0, 0]), 1)):
        datum = make_weil_datum(h, S_STD, seed=SEED + seed)
        rep = weil_class_space(datum)
        assert rep["weil_plane_dim"] == 2
        assert rep["three_space_dim"] == 3
        assert rep["cayley_in_three_space"]
        assert rep["cayley_not_in_omega_line"]
        assert rep["hr_kills_omega_square"] and rep["hr_moves_cayley"]
        assert rep["norm_eigenvalue_on_omega_square"]
        assert rep["x4_eigenvalue_on_weil_line"]
    report(11, "3-dimensional Hodge-class space; Cayley class off the "
               "polarization line; eigenvalue pattern Nm^2, x^4, "
               "conj(x)^4")


def test_criterion_12_wedge_square_split():
    out = h2_split(make_weil_datum(H_STD, S_STD, period=PERIOD_STD))
    assert out["profile"] == (16, 6, 6)
    assert out["weights_match"]
    report(12, "eigenvalue profile (16, 6, 6) and matching weight "
               "multisets for the two wedge squares")


def test_criterion_13_kuga_satake():
    datum = ks_complex_structure(H_STD, S_STD, PERIOD_STD)
    assert len(datum.even_masks) == 32
    sq = mat_mul(datum.j_ks, datum.j_ks)
    assert sq == [[Fraction(-1 if a == b else 0) for b in range(32)]
                  for a in range(32)]
    assert ks_right_commutation(datum, seed=SEED)
    weil_datum = make_weil_datum(H_STD, S_STD, period=PERIOD_STD)
    center = ks_center_field_check(datum.lattice, weil_datum.m)
    assert center["center_dim"] == 2
    assert center["squarefree_part_matches"]
    rep = ks_report(weil_datum)
    assert rep["isogeny_hom_dim"] == 8
    assert rep["isogeny_joint_rank"] == 32
    assert rep["isogeny_even_algebra_is_V4"]
    assert rep["isogeny_intertwines_J"]
    report(13, "dimension 32; J_KS^2 = -I; right multiplications commute; "
               "center field matches; Hom_G(V, C+(H)) has dimension 8 and "
               "joint rank 32 and carries J to J_KS")


def test_criterion_14_mukai():
    for n in (3, 4, 5):
        sq, dim = moduli_dimension(n)
        assert sq == 2 * n
        assert dim == 2 * n + 2
    report(14, "pairing 2n and moduli dimension 2n + 2 for n in {3, 4, 5}")
