from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweil.clifford import (CV, CliffordElement, cartan_elements,
                               commutator, random_spin_group_element,
                               sigma_action, spin_v_xyz_table,
                               twisted_conjugation)
from spinweil.linalg import mat, mat_mul, mat_vec, rank
from spinweil.multivector import (DEGREE4_MASKS, Multivector, coords_degree,
                                  derive_multivector, mask_of, star_matrix,
                                  wedge)
from spinweil.reps import (alpha_beta_gamma, branching_dims, cayley_class,
                           cayley_constant, cayley_routes, derived_action,
                           explicit_cayley_formula, gamma0_line,
                           gamma2alpha_star_sign, invariant_subspace,
                           phi_matrix, quadric_square_span, rep_space,
                           sminus_matrix, splus_matrix, stabilizer_algebra,
                           standard_spinor,
                           sym2_coords, weight_decomposition, weight_multiset)
from spinweil.scalars import QuadExt
from spinweil.spingeo import (ODD_MASKS, Spinor, graph_basis,
                              random_alternating, spinor_map)

XYZ = {lab: elt for lab, elt, _ in spin_v_xyz_table()}


def element(expr):
    """Rational combination of labelled basis elements, e.g. {"Y12": n}."""
    x = CV().zero()
    for lab, c in expr.items():
        x = x + XYZ[lab].scale(Fraction(c))
    return x


def test_rep_space_dimensions():
    dims = {"V": 8, "S+": 8, "S-": 8, "Wedge2V": 28, "Wedge4V": 70,
            "Sym2S+": 36, "Wedge2S+": 28}
    for name, d in dims.items():
        assert rep_space(name).dim == d


def test_explicit_derivation_on_V():
    # X = n Y12 + Z34 acting on V by the commutator
    n = 3
    x = element({"Y12": n, "Z34": 1})
    m = derived_action(x, "V")
    img = lambda j: [m[i][j] for i in range(8)]
    assert img(0) == [0] * 8                       # X(e1) = 0
    assert img(2) == [0] * 7 + [-1]                # X(e3) = -e8
    assert img(3) == [0] * 6 + [1, 0]              # X(e4) = e7
    assert img(4) == [0, -n, 0, 0, 0, 0, 0, 0]     # X(e5) = -n e2
    assert img(5) == [n, 0, 0, 0, 0, 0, 0, 0]      # X(e6) = n e1


def test_explicit_derivation_on_Splus():
    # the same X acts as n e1 e2 + contraction pair on the half-spin space
    n = 3
    x = element({"Y12": n, "Z34": 1})
    m = derived_action(x, "S+")
    one = Spinor([1, 0, 0, 0, 0, 0, 0, 0])
    estar = Spinor([0, 0, 0, 0, 1, 0, 0, 0])
    img_one = Spinor(mat_vec(m, one.z)).multivector()
    img_estar = Spinor(mat_vec(m, estar.z)).multivector()
    e12 = Multivector(4, {mask_of((0, 1)): Fraction(1)})
    assert img_one == e12.scale(Fraction(n))       # X(1) = n e1^e2
    assert img_estar == e12.scale(Fraction(-1))    # X(e*) = -e1^e2


def test_alpha_derivative_identity():
    # oracle from the closed-form invariant computation:
    # X(alpha) = -2n e1^e2 + 2 e7^e8 for X = n Y12 + Z34
    n = 2
    x = element({"Y12": n, "Z34": 1})
    m = derived_action(x, "V")
    alpha, beta, gamma = alpha_beta_gamma()
    got = derive_multivector(m, alpha)
    expected = Multivector(8, {mask_of((0, 1)): Fraction(-2 * n),
                               mask_of((6, 7)): Fraction(2)})
    assert got == expected


def test_cartan_eigenvalues_on_Splus():
    h1 = cartan_elements()[0]
    m = derived_action(h1, "S+")
    # +1/2 exactly on the z-coordinates whose index set contains 1
    from spinweil.spingeo import Z_DICT
    for k, (mask, _) in enumerate(Z_DICT):
        expected = Fraction(1, 2) if (mask & 1) else Fraction(-1, 2)
        assert m[k][k] == expected


def test_weights_of_Splus():
    wts = weight_multiset("S+")
    half = Fraction(1, 2)
    expected = sorted(
        tuple(half if b else -half for b in bits)
        for bits in __import__("itertools").product((0, 1), repeat=4)
        if sum(bits) % 2 == 0)
    assert wts == expected
    # highest weight vector is the top exterior power e*
    for wt, label, vec in weight_decomposition("S+"):
        if wt == (half, half, half, half):
            assert vec == [0, 0, 0, 0, 1, 0, 0, 0]


def test_weights_of_V():
    wts = weight_multiset("V")
    expected = []
    for i in range(4):
        for sign in (1, -1):
            w = [Fraction(0)] * 4
            w[i] = Fraction(sign)
            expected.append(tuple(w))
    assert wts == sorted(expected)


def test_top_weight_of_wedge4():
    ones = (Fraction(1),) * 4
    hits = [(label, vec) for wt, label, vec in weight_decomposition("Wedge4V")
            if wt == ones]
    assert len(hits) == 1
    assert hits[0][0] == (0, 1, 2, 3)


def test_invariant_dimensions():
    stab_s, _ = stabilizer_algebra([standard_spinor(1)])
    assert len(invariant_subspace(stab_s, "Wedge4V")) == 1
    h = Spinor([0, 1, 0, 0, 0, 1, 0, 0])
    s = Spinor([1, 0, 0, 0, 1, 0, 0, 0])
    stab_hs, _ = stabilizer_algebra([h, s])
    assert len(invariant_subspace(stab_hs, "Wedge2V")) == 1
    all28 = [elt for _, elt, _ in spin_v_xyz_table()]
    assert len(invariant_subspace(all28, "Sym2S+")) == 1


def test_stabilizer_dimensions():
    assert len(stabilizer_algebra([])[0]) == 28
    for n in (1, 2, 3, 5):
        stab, _ = stabilizer_algebra([standard_spinor(n)])
        assert len(stab) == 21
    h = Spinor([0, 1, 0, 0, 0, 1, 0, 0])
    s = Spinor([1, 0, 0, 0, 1, 0, 0, 0])
    assert len(stabilizer_algebra([h, s])[0]) == 15
    # the reference pair {1, e*}
    one = Spinor([1, 0, 0, 0, 0, 0, 0, 0])
    estar = Spinor([0, 0, 0, 0, 1, 0, 0, 0])
    assert len(stabilizer_algebra([one, estar])[0]) == 15


def test_stabilizer_membership_families():
    # for s = 1 - n e*: the traceless Cartan part, the off-diagonal X
    # family, and one sign of n Y_{ij} +- Z_{kl} annihilate s
    n = 2
    s = standard_spinor(n)

    def kills(x):
        return all(v == 0 for v in mat_vec(splus_matrix(x), s.z))

    assert kills(element({"X11": 1, "X22": -1}))
    assert kills(element({"X23": 1}))
    assert kills(element({"X14": 1}))
    # oracle first: the action on the module fixes the sign, computed from
    # X(1) = n e1 e2 and (n Y12 +- Z34)(e*) = -+ e1 e2
    plus = element({"Y12": n, "Z34": 1})
    minus = element({"Y12": n, "Z34": -1})
    assert not kills(plus)
    assert kills(minus)


def test_gamma0_is_dual_quadric_direction():
    g0 = gamma0_line()
    # pairing the invariant with the squares of quadric points gives zero
    # coefficients exactly off the quadric relation; sanity: it is nonzero
    assert any(x != 0 for x in g0)


def test_quadric_squares_span_35():
    samples = quadric_square_span()
    assert len(samples) == 35
    vecs = [u for _, u in samples]
    assert rank(mat(vecs)) == 35
    assert rank(mat(vecs + [gamma0_line()])) == 36


def test_cayley_class_isotropic_is_pluecker(rng):
    # for a quadric point the class is the wedge of the subspace itself
    for _ in range(10):
        b = random_alternating(rng)
        s = spinor_map(b)
        c = cayley_class(s)
        expected = coords_degree(
            __import__("spinweil.multivector", fromlist=["pluecker"]).pluecker(
                graph_basis(b)), DEGREE4_MASKS)
        assert coords_degree(c, DEGREE4_MASKS) == expected


def test_cayley_routes_proportional():
    for n in (1, 2, 3, 5):
        a, b, lam = cayley_routes(standard_spinor(n))
        assert lam is not None and lam != 0


def test_cayley_closed_form_constant():
    # frozen constant: the interpolated normalization gives exactly 1/4
    for n in (1, 2, 3, 5):
        assert cayley_constant(n) == Fraction(1, 4)


def test_cayley_closed_form_values():
    n = 2
    c = cayley_class(standard_spinor(n))
    formula = explicit_cayley_formula(n)
    assert c == formula.scale(Fraction(1, 4))
    alpha, beta, gamma = alpha_beta_gamma()
    # alpha^2 carries 2 e1^e5^e2^e6 = -2 e1^e2^e5^e6 on the sorted blade
    assert wedge(alpha, alpha).coefficient(mask_of((0, 1, 4, 5))) == -2


def test_cayley_rejects_zero():
    with pytest.raises(ValueError):
        cayley_class(Spinor([0] * 8))


def test_cayley_equivariance(rng):
    from spinweil.weil import _wedge4_apply
    s = standard_spinor(2)
    c = cayley_class(s)
    for _ in range(20):
        g = random_spin_group_element(rng)
        rho_s = splus_matrix(g)
        rho_v = twisted_conjugation(g)
        moved_s = Spinor(mat_vec(rho_s, s.z))
        lhs = cayley_class(moved_s, cross_check=False)
        rhs = _wedge4_apply(rho_v, c)
        assert lhs == rhs


def test_branching_profile():
    for n in (1, 3):
        profile = branching_dims(standard_spinor(n))
        assert profile == {"invariants": 1, "standard": 7, "residual": 27,
                           "complement": 35, "total": 70}


def test_branching_rejects_isotropic():
    with pytest.raises(ValueError):
        branching_dims(Spinor([1, 0, 0, 0, 0, 0, 0, 0]))


def test_phi_image_in_single_star_eigenspace():
    sgn = gamma2alpha_star_sign()
    assert sgn in (1, -1)
    star = star_matrix()
    phi = phi_matrix()
    for col in range(36):
        v = [phi[r][col] for r in range(70)]
        if all(x == 0 for x in v):
            continue
        assert mat_vec(star, v) == [sgn * x for x in v]


def test_star_commutes_with_actions(rng):
    star = star_matrix()
    table = spin_v_xyz_table()
    for _ in range(5):
        x = table[rng.randrange(28)][1]
        m = derived_action(x, "Wedge4V")
        assert mat_mul(star, m) == mat_mul(m, star)


def test_bracket_compatibility_all_spaces(rng):
    table = spin_v_xyz_table()
    for name in ("V", "S+", "S-", "Wedge2V", "Sym2S+", "Wedge2S+"):
        for _ in range(5):
            x = table[rng.randrange(28)][1]
            y = table[rng.randrange(28)][1]
            mx = derived_action(x, name)
            my = derived_action(y, name)
            mz = derived_action(commutator(x, y), name)
            lhs = mat_mul(mx, my)
            rhs = [[a + b for a, b in zip(ra, rb)]
                   for ra, rb in zip(mz, mat_mul(my, mx))]
            assert lhs == rhs


def test_scaling_element_spectrum():
    x = CV().zero()
    for h in cartan_elements():
        x = x + h
    m = derived_action(x, "S+")
    assert [m[i][i] for i in range(8)] == [Fraction(v) for v in
                                           (-2, 0, 0, 0, 2, 0, 0, 0)]
    assert all(m[i][j] == 0 for i in range(8) for j in range(8) if i != j)


def test_derived_action_validates():
    with pytest.raises(ValueError):
        derived_action(CV().generator(0), "V")  # odd element
    with pytest.raises(ValueError):
        derived_action(CV().one(), "V")  # 1 + 1* != 0


# -- half-spin matrices against sigma_action, column by column ---------------

def reference_splus(x):
    cols = []
    for j in range(8):
        unit = [0] * 8
        unit[j] = 1
        image = sigma_action(x, Spinor(unit).multivector())
        cols.append(Spinor.from_multivector(image).z)
    return [[cols[j][i] for j in range(8)] for i in range(8)]


def reference_sminus(x):
    cols = []
    for m in ODD_MASKS:
        image = sigma_action(x, Multivector(4, {m: 1}))
        assert all(mm in ODD_MASKS for mm in image.terms)
        cols.append([image.coefficient(mm) for mm in ODD_MASKS])
    return [[cols[j][i] for j in range(8)] for i in range(8)]


EVEN_BLADES = [m for m in range(256) if bin(m).count("1") % 2 == 0]
COEFFS = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=6),
                   st.builds(QuadExt, st.integers(-3, 3), st.integers(-3, 3),
                             st.just(3)))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.sampled_from(EVEN_BLADES), COEFFS, max_size=6))
def test_half_spin_matrices_match_sigma_action(terms):
    x = CliffordElement(CV(), terms)
    got = splus_matrix(x)
    assert got == reference_splus(x)
    assert repr(got) == repr(reference_splus(x))
    assert sminus_matrix(x) == reference_sminus(x)


def test_half_spin_matrices_on_group_elements(rng):
    for _ in range(5):
        g = random_spin_group_element(rng)
        assert splus_matrix(g) == reference_splus(g)
        assert sminus_matrix(g) == reference_sminus(g)


def test_half_spin_matrices_reject_mixing_elements():
    x = CV().generator(0) + CV().one()
    with pytest.raises(ValueError, match="even algebra"):
        splus_matrix(x)
    with pytest.raises(ValueError, match="odd part"):
        sminus_matrix(x)
