import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweil import reps
from spinweil.clifford import (CV, CliffordElement, cartan_elements,
                               commutator, is_spin_lie_element,
                               random_spin_group_element, sigma_action,
                               spin_so_iso, spin_v_xyz_table,
                               twisted_conjugation)
from spinweil.linalg import (identity, mat, mat_mul, mat_vec, nullspace, rank,
                             transpose)
from spinweil.multivector import (DEGREE4_MASKS, Multivector, coords_degree,
                                  derive_multivector, from_coords, mask_of,
                                  pluecker, star_matrix, wedge)
from spinweil.reps import (REP_NAMES, alpha_beta_gamma, branching_dims,
                           cayley_class, cayley_constant,
                           derivation_matrix, derived_action,
                           explicit_cayley_formula, gamma2alpha_star_sign,
                           invariant_subspace, phi_matrix,
                           quadric_square_span, rep_space, sminus_matrix,
                           spin_coordinates, splus_matrix, stabilizer_algebra,
                           standard_spinor, sym2_coords, weight_decomposition,
                           weight_multiset)
from spinweil.scalars import QuadExt
from spinweil.spingeo import (ODD_MASKS, Spinor, graph_basis,
                              random_alternating, spinor_map)

import table_references as reference
from test_spingeo import alternating

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
    stab_s = stabilizer_algebra([standard_spinor(1)])
    assert len(invariant_subspace(stab_s, "Wedge4V")) == 1
    h = Spinor([0, 1, 0, 0, 0, 1, 0, 0])
    s = Spinor([1, 0, 0, 0, 1, 0, 0, 0])
    stab_hs = stabilizer_algebra([h, s])
    assert len(invariant_subspace(stab_hs, "Wedge2V")) == 1
    assert len(invariant_subspace(identity(28), "Sym2S+")) == 1


def test_stabilizer_dimensions():
    assert stabilizer_algebra([]) == identity(28)
    for n in (1, 2, 3, 5):
        assert len(stabilizer_algebra([standard_spinor(n)])) == 21
    h = Spinor([0, 1, 0, 0, 0, 1, 0, 0])
    s = Spinor([1, 0, 0, 0, 1, 0, 0, 0])
    assert len(stabilizer_algebra([h, s])) == 15
    # the reference pair {1, e*}
    one = Spinor([1, 0, 0, 0, 0, 0, 0, 0])
    estar = Spinor([0, 0, 0, 0, 1, 0, 0, 0])
    assert len(stabilizer_algebra([one, estar])) == 15


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
    g0 = reference.sym2_invariant_line()
    # pairing the invariant with the squares of quadric points gives zero
    # coefficients exactly off the quadric relation; sanity: it is nonzero
    assert any(x != 0 for x in g0)


def test_quadric_squares_span_35():
    samples = quadric_square_span()
    assert len(samples) == 35
    vecs = [u for _, u in samples]
    assert rank(mat(vecs)) == 35
    assert rank(mat(vecs + [reference.sym2_invariant_line()])) == 36


def test_quadric_square_span_is_the_pinned_sample():
    # the 35 (B, coordinates) pairs that a fresh rank per candidate picked
    # from seed 314159: the same draws give the same pairs
    samples = quadric_square_span()
    assert samples[0][0] == [[0, -2, -1, -1], [2, 0, -3, -3], [1, 3, 0, 1],
                             [1, 3, -1, 0]]
    assert samples[-1][0] == [[0, 0, 0, 2], [0, 0, 1, 0], [0, -1, 0, 1],
                              [-2, 0, -1, 0]]
    assert hashlib.sha256(repr(samples).encode()).hexdigest() == \
        "c79278487ab40f3f8e323ce8e6e71b4bee559de84f39db09a85d85c79ee3fa1c"


def test_quadric_square_span_stall_names_seed_draws_and_dimension(
        monkeypatch):
    fixed = random_alternating(random.Random(0))
    monkeypatch.setattr(reps, "random_alternating", lambda rng: fixed)
    quadric_square_span.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=(
                f"seed 314159 span dimension 1 of 35 after "
                f"{reps.SPAN_DRAWS} draws")):
            quadric_square_span()
    finally:
        quadric_square_span.cache_clear()


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
        a, b, lam = reference.cayley_routes(standard_spinor(n))
        assert lam is not None and lam != 0


def test_cayley_closed_form_constant():
    # frozen constant: the closed form of phi gives exactly 1/4
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
        lhs = cayley_class(moved_s)
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


# -- the basis-table actions against the per-space derivation -----------------

def reference_action(x, name):
    """The derived action space by space: the membership test, then the
    commutator matrix on V or a half-spin block, extended by derivation to
    the wedge and symmetric powers."""
    if not is_spin_lie_element(x):
        raise ValueError("element fails the spin Lie algebra membership test")
    if name in ("V", "Wedge2V", "Wedge4V"):
        m = spin_so_iso(x)
        return (m if name == "V"
                else reference.derivation_matrix(m, int(name[-2])))
    if name == "S-":
        return sminus_matrix(x)
    m = splus_matrix(x)
    if name == "Sym2S+":
        return reference.sym2_derivation_matrix(m)
    return m if name == "S+" else reference.derivation_matrix(m, 2)


def reference_invariants(generators, name):
    stacked = [row for x in generators for row in reference_action(x, name)]
    if not stacked:
        return [list(row) for row in identity(rep_space(name).dim)]
    return nullspace(mat(stacked))


def reference_stabilizer(fixed):
    """Stabilizer by 28 Fraction matrix-vector products per spinor and
    elements summed one basis element at a time."""
    rows = []
    for f in fixed:
        images = [mat_vec(splus_matrix(x), f.z) for x in XYZ.values()]
        rows += [[images[a][i] for a in range(28)] for i in range(8)]
    vecs = nullspace(mat(rows)) if rows else [list(r) for r in identity(28)]
    elements = []
    for v in vecs:
        x = CV().zero()
        for c, elt in zip(v, XYZ.values()):
            if c != 0:
                x = x + elt.scale(c)
        elements.append(x)
    return elements, vecs


def _same_matrix(got, expected):
    assert got == expected
    assert repr(got) == repr(expected)


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SPIN_ELEMENTS = st.dictionaries(st.sampled_from(sorted(XYZ)), SMALL,
                                max_size=6).map(element)


@settings(max_examples=30, deadline=None)
@given(SPIN_ELEMENTS, st.sampled_from(REP_NAMES))
def test_derived_action_matches_per_space_derivation(x, name):
    _same_matrix(derived_action(x, name), reference_action(x, name))


def test_derived_action_on_cartan_and_basis_elements():
    irrational = (XYZ["X11"].scale(QuadExt(1, 1, 2)) +
                  XYZ["Y12"].scale(Fraction(1, 3)))
    for name in REP_NAMES:
        for x in cartan_elements() + list(XYZ.values()):
            _same_matrix(derived_action(x, name), reference_action(x, name))
        assert derived_action(irrational, name) == \
            reference_action(irrational, name)


def noniso_spinors():
    """As the cayley benchmark draws them: 3 nonzero integer coordinates
    of absolute value at most 3, and (s, s) != 0."""
    values = st.integers(1, 3).flatmap(lambda v: st.sampled_from((v, -v)))
    return st.tuples(st.permutations(range(8)),
                     st.lists(values, min_size=3, max_size=3)).map(
        lambda t: Spinor([dict(zip(t[0][:3], t[1])).get(i, 0)
                          for i in range(8)])).filter(
        lambda s: not s.is_isotropic())


ISO_SPINORS = st.integers(0, 10 ** 6).map(
    lambda seed: spinor_map(random_alternating(random.Random(seed))))


@settings(max_examples=8, deadline=None)
@given(st.one_of(noniso_spinors(), ISO_SPINORS),
       st.sampled_from(("Wedge4V", "Wedge2V", "Sym2S+")))
def test_stabilizer_and_invariants_match_reference(s, name):
    vecs = stabilizer_algebra([s])
    ref_stab, ref_vecs = reference_stabilizer([s])
    _same_matrix(vecs, ref_vecs)
    _same_matrix(invariant_subspace(vecs, name),
                 reference_invariants(ref_stab, name))


def test_invariants_of_the_full_table_and_of_nothing():
    xs = list(XYZ.values())
    _same_matrix(invariant_subspace(identity(28), "Sym2S+"),
                 reference_invariants(xs, "Sym2S+"))
    for name in REP_NAMES:
        _same_matrix(invariant_subspace([], name),
                     reference_invariants([], name))
    pair = [Spinor([0, 1, 0, 0, 0, 1, 0, 0]), Spinor([1, 0, 0, 0, 1, 0, 0, 0])]
    _same_matrix(stabilizer_algebra(pair), reference_stabilizer(pair)[1])
    _same_matrix(stabilizer_algebra([]), reference_stabilizer([])[1])


def test_stabilizer_and_invariants_over_a_quadratic_field():
    s = Spinor([QuadExt(1, 1, 2), 0, 0, 0, 1, 0, 0, 0])
    vecs = stabilizer_algebra([s])
    ref_stab, ref_vecs = reference_stabilizer([s])
    assert vecs == ref_vecs and len(vecs) == 21
    inv = invariant_subspace(vecs, "Wedge2V")
    assert inv == reference_invariants(ref_stab, "Wedge2V")


@settings(max_examples=20, deadline=None)
@given(noniso_spinors())
def test_cayley_routes_match_reference_route_b(s):
    a, b, lam = reference.cayley_routes(s)
    ref_b = reference_invariants(reference_stabilizer([s])[0], "Wedge4V")
    assert len(ref_b) == 1
    expected = from_coords(8, DEGREE4_MASKS, ref_b[0])
    assert b == expected and repr(b) == repr(expected)
    # route B of cayley_class is that line up to its scale
    line = reference.dense_line(reps._cayley_route_b(s), 70)
    assert line == ref_b[0] and repr(line) == repr(ref_b[0])
    assert lam is not None and lam != 0
    assert a == cayley_class(s)


def _workload_noniso_spinors(seed, count):
    """Spinors as the cayley benchmark draws them: three nonzero integer
    coordinates of absolute value at most 3, (z, z) != 0."""
    rng, values, out = random.Random(seed), [-3, -2, -1, 1, 2, 3], []
    while len(out) < count:
        z = [0] * 8
        for i in rng.sample(range(8), 3):
            z[i] = rng.choice(values)
        if not Spinor(z).is_isotropic():
            out.append(Spinor(z))
    return out


def test_route_b_matches_the_route_through_clifford_elements():
    for s in _workload_noniso_spinors(2205, 20):
        got = [reference.dense_line(reps._cayley_route_b(s), 70)]
        expected = reference.cayley_route_b(s.z)
        assert got == expected and repr(got) == repr(expected)


def dense_noniso_spinors():
    """Spinors with 8 nonzero integer coordinates in [-3, 3], (s, s) != 0."""
    return st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=8,
                    max_size=8).map(Spinor).filter(
        lambda s: not s.is_isotropic())


def fraction_noniso_spinors():
    """Spinors with 2 to 4 nonzero Fraction coordinates, (s, s) != 0."""
    return st.lists(SMALL, min_size=8, max_size=8).map(Spinor).filter(
        lambda s: not s.is_isotropic() and 2 <= sum(map(bool, s.z)) <= 4)


#: a spinor over Q(sqrt 2) and one over Q(sqrt -3)
FIELD_SPINORS = (
    Spinor([QuadExt(1, 1, 2), 0, 0, 0, 1, 0, 0, 0]),
    Spinor([0, QuadExt(1, 2, -3), 0, 1, 0, QuadExt(0, 1, -3), 2, 0]))


def _same_route_b_as_reference(s):
    """Route B's line has the support of the reference line and is a
    multiple of it, and the verdict against route A is the reference's."""
    line = reps._cayley_route_b(s)
    ref = reference.route_b_line(s)
    assert {c for c, x in line.items() if x} == {c for c, x in
                                                 enumerate(ref) if x}
    assert reference.routes_agree([line.get(c, 0) for c in range(70)], ref)
    a = mat_vec(phi_matrix(), reps.sym2_coords(s.z))
    verdict = reps._agree(reps.scale_to_integers(enumerate(a))[0], line)
    assert verdict and reference.routes_agree(a, ref)


@settings(max_examples=10, deadline=None)
@given(st.one_of(noniso_spinors(), fraction_noniso_spinors()))
def test_route_b_line_is_the_reference_line(s):
    _same_route_b_as_reference(s)


@settings(max_examples=4, deadline=None)
@given(dense_noniso_spinors())
def test_route_b_line_is_the_reference_line_on_dense_spinors(s):
    _same_route_b_as_reference(s)


@pytest.mark.parametrize("s", FIELD_SPINORS)
def test_route_b_line_is_the_reference_line_over_a_field(s):
    assert not s.is_isotropic()
    _same_route_b_as_reference(s)


def _agreement_cases():
    """(a, b) dense pairs: b a multiple of a by a nonzero, zero, negative
    or fractional factor, over Q or Q(sqrt 2), then possibly one entry off
    or either side zero."""
    values = st.one_of(st.integers(-4, 4).map(Fraction), SMALL,
                       st.builds(lambda p, q: QuadExt(p, q, 2), SMALL, SMALL))
    factors = st.one_of(st.sampled_from((0, 1, -1, 2, Fraction(-3, 2))),
                        values)

    @st.composite
    def case(draw):
        a = draw(st.lists(values, min_size=1, max_size=6))
        lam = draw(factors)
        b = [lam * x for x in a]
        edit = draw(st.sampled_from(("none", "off", "zero a", "zero b")))
        if edit == "off":
            i = draw(st.integers(0, len(a) - 1))
            b[i] = b[i] + draw(values)
        elif edit == "zero a":
            a = [Fraction(0)] * len(a)
        elif edit == "zero b":
            b = [Fraction(0)] * len(b)
        return a, b
    return case()


@settings(max_examples=100, deadline=None)
@given(_agreement_cases())
def test_agreement_matches_the_reference_verdict(pair):
    a, b = pair
    u = reps.scale_to_integers(enumerate(a))[0]
    v = {c: x for c, x in enumerate(b) if x or isinstance(x, QuadExt)}
    assert reps._agree(u, v) == reference.routes_agree(a, b)


# -- the membership test ------------------------------------------------------

def _member(x):
    try:
        spin_coordinates(x)
    except ValueError:
        return False
    return True


DEFECTS = st.one_of(
    st.just(None),
    st.builds(lambda m: CV().element({m: 1}),
              st.sampled_from([m for m in range(256)
                               if bin(m).count("1") % 2])),
    st.just(CV().one()),
    st.builds(lambda m: CV().element({m: 1}),
              st.sampled_from([m for m in range(256)
                               if bin(m).count("1") == 4])),
    st.builds(CV().scalar, SMALL.filter(bool)))


@settings(max_examples=80, deadline=None)
@given(SPIN_ELEMENTS, DEFECTS)
def test_membership_test_agrees_with_is_spin_lie_element(x, defect):
    y = x if defect is None else x + defect
    assert _member(y) == is_spin_lie_element(y)
    assert _member(y) == (defect is None)
    if defect is None:
        assert element(dict(zip(XYZ, spin_coordinates(y)))) == y


def test_membership_rejects_wrong_scalar_shift():
    x11 = XYZ["X11"]
    assert _member(x11)
    shifted = x11 + CV().scalar(Fraction(1, 2))  # e1 e5 without its -1/2
    assert not _member(shifted) and not is_spin_lie_element(shifted)
    with pytest.raises(ValueError, match="membership"):
        derived_action(shifted, "Wedge4V")


# -- route-B failures name the spinor -----------------------------------------

NONISO = Spinor([1, 0, 0, 0, 2, 0, 0, 0])
NONISO_TEXT = '["1", "0", "0", "0", "2", "0", "0", "0"]'


def test_route_b_reports_stabilizer_dimension(monkeypatch):
    real = reps._sparse_kernel
    monkeypatch.setattr(reps, "_sparse_kernel", lambda rows, ncols: real(
        rows, ncols)[:20 if ncols == 28 else None])
    with pytest.raises(RuntimeError) as err:
        cayley_class(NONISO)
    assert "must have dimension 21, found 20" in str(err.value)
    assert NONISO_TEXT in str(err.value)


def test_route_b_reports_invariant_dimension(monkeypatch):
    real = reps._sparse_kernel
    monkeypatch.setattr(reps, "_sparse_kernel", lambda rows, ncols: real(
        rows, ncols) * (2 if ncols == 70 else 1))
    with pytest.raises(RuntimeError) as err:
        cayley_class(NONISO)
    assert "not a line: dimension 2" in str(err.value)
    assert NONISO_TEXT in str(err.value)


def test_route_b_reports_disagreement(monkeypatch):
    monkeypatch.setattr(reps, "_cayley_route_b", lambda s: {0: 1})
    with pytest.raises(RuntimeError) as err:
        cayley_class(NONISO)
    assert "stabilizer route disagrees" in str(err.value)
    assert NONISO_TEXT in str(err.value)


def test_a_zero_route_a_disagrees(monkeypatch):
    monkeypatch.setattr(reps, "mat_vec", lambda a, v: [Fraction(0)] * 70)
    with pytest.raises(RuntimeError) as err:
        cayley_class(NONISO)
    assert "stabilizer route disagrees" in str(err.value)
    assert NONISO_TEXT in str(err.value)
    # the pure spinor 1 - 0 e_* takes route A alone
    with pytest.raises(RuntimeError, match="not proportional"):
        cayley_constant(0)


# -- the one-time tables against the dense references ------------------------

BASE_MATRICES = {
    "V": [m for _, _, m in spin_v_xyz_table()]
    + [derived_action(h, "V") for h in cartan_elements()],
    "S+": [splus_matrix(x) for _, x, _ in spin_v_xyz_table()]
    + [splus_matrix(h) for h in cartan_elements()],
}


@pytest.mark.parametrize("space", sorted(BASE_MATRICES))
@pytest.mark.parametrize("k", [1, 2, 3, 4, "Sym2"])
def test_derivations_of_basis_and_cartan_matrices_match_dense_loops(space,
                                                                    k):
    for m in BASE_MATRICES[space]:
        if k == "Sym2":
            _same_matrix(reps._dense_derivation(m, reps.SYM2_BASIS, True),
                         reference.sym2_derivation_matrix(m))
        else:
            _same_matrix(derivation_matrix(m, k),
                         reference.derivation_matrix(m, k))


RATIONAL = st.one_of(st.integers(-4, 4), SMALL)
ENTRIES = {"rational": st.one_of(st.just(0), RATIONAL),
           "QuadExt": st.one_of(st.just(0), RATIONAL, st.builds(
               lambda a, b: QuadExt(a, b, -3), SMALL, SMALL))}


@pytest.mark.parametrize("kind", sorted(ENTRIES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_derivations_of_random_matrices_match_dense_loops(kind, data):
    m = data.draw(st.lists(st.lists(ENTRIES[kind], min_size=8, max_size=8),
                           min_size=8, max_size=8))
    for k in (1, 2, 3, 4):
        _same_matrix(derivation_matrix(m, k),
                     reference.derivation_matrix(m, k))
    _same_matrix(reps._dense_derivation(m, reps.SYM2_BASIS, True),
                 reference.sym2_derivation_matrix(m))


@pytest.mark.parametrize("name", REP_NAMES)
def test_action_tables_match_the_dense_reference(name):
    got, d = reps._action_table(name)
    expected, d_expected = reference.action_table(name)
    assert d == d_expected
    assert got == expected
    assert repr([sorted(t.items()) for t in got]) == \
        repr([sorted(t.items()) for t in expected])


def test_action_tables_are_the_pinned_tables():
    # digest of the seven tables, entries sorted by key, taken from the
    # dense construction
    digest = hashlib.sha256()
    for name in REP_NAMES:
        table, d = reps._action_table(name)
        digest.update(repr((name, [sorted(t.items()) for t in table],
                            d)).encode())
    assert digest.hexdigest() == \
        "301b24c3330d1c17dad63ce21d345acc410043bc11b593e634007511a3ac6766"


def test_phi_matrix_is_the_pinned_inverse_route():
    phi = phi_matrix()
    _same_matrix(phi, reference.phi_matrix())
    digest = hashlib.sha256()
    for row in phi:
        for x in row:
            digest.update(repr(x).encode() + b"\n")
    assert digest.hexdigest() == \
        "fb247d531807a5ae989027917c02462bdd72dbe9f5a67adf3d8e0f8865c39534"


def test_phi_matrix_is_equivariant_on_every_basis_element():
    # the closed form is not fitted to any sample: A(X_a) phi = phi A(X_a)
    # from Sym^2 S+ to the degree-4 forms for all 28 X_a
    phi = phi_matrix()
    for label, x, _ in spin_v_xyz_table():
        assert mat_mul(derived_action(x, "Wedge4V"), phi) == \
            mat_mul(phi, derived_action(x, "Sym2S+")), label


def test_phi_matrix_reads_the_chevalley_products_off_the_module_table():
    # the table read of phi_matrix is the product e^_{I*} of Clifford
    # elements read through splus_matrix, entry by entry
    phi, expected = phi_matrix(), reference.chevalley_phi_matrix()
    assert phi == expected
    assert repr(phi) == repr(expected)


def test_chevalley_products_of_four_generators_pair_symmetrically():
    # phi_matrix reads (z_a, e^_J z_b) for a <= b only: the pairing is
    # symmetric for every 4-element J, in any order
    for j in [(0, 1, 2, 3), (4, 0, 1, 5), (7, 3, 6, 2), (5, 1, 2, 7)]:
        m = splus_matrix(reference.chevalley_product(list(j)))
        q = m[4:] + m[:4]
        assert q == transpose(q) and any(x != 0 for r in q for x in r)


def test_phi_matrix_kills_the_invariant_line():
    assert mat_vec(phi_matrix(), reference.sym2_invariant_line()) == [0] * 70


@settings(max_examples=40, deadline=None)
@given(alternating())
def test_veronese_pluecker_holds_for_the_closed_form(case):
    _, b = case
    assert mat_vec(phi_matrix(), sym2_coords(spinor_map(b).z)) == \
        coords_degree(pluecker(graph_basis(b)), DEGREE4_MASKS)
