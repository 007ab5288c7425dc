import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweil import spingeo
from spinweil.clifford import CV, twisted_conjugation
from spinweil.linalg import mat, mat_mul, mat_vec, rank
from spinweil.jsonio import encode_scalar
from spinweil.multivector import (DEGREE4_MASKS, Multivector,
                                  check_alternating, coords_degree, mask_of,
                                  pfaffian, pluecker, wedge)
from spinweil.reps import phi_matrix, sym2_coords
from spinweil.scalars import QuadExt, TowerScalar
from spinweil.spingeo import (Spinor, graph_basis, move_to_cell,
                              random_alternating, random_isotropic_spinor,
                              spinor_action_matrix, spinor_inverse,
                              spinor_map, subspace_of_spinor, transversality)

import table_references as reference


def test_spinor_map_zero_matrix():
    z = spinor_map([[0] * 4 for _ in range(4)])
    assert z.z == [1, 0, 0, 0, 0, 0, 0, 0]


def test_spinor_map_coordinate_formula(rng):
    for _ in range(100):
        b = random_alternating(rng)
        z = spinor_map(b).z
        pf = b[0][1] * b[2][3] - b[0][2] * b[1][3] + b[0][3] * b[1][2]
        assert z == [1, b[0][1], b[0][2], b[0][3], pf,
                     -b[2][3], b[1][3], -b[1][2]]
        assert spinor_map(b).is_isotropic()


def test_spinor_map_gaussian_fixture():
    # the two distinguished quadric points with Gaussian entries
    i = QuadExt(0, 1, -1)
    one = QuadExt(1, 0, -1)
    zero = QuadExt(0, 0, -1)
    b1 = [[zero, one, -i, -i],
          [-one, zero, i, -i],
          [i, -i, zero, -one],
          [i, i, one, zero]]
    ell1 = spinor_map(b1)
    assert ell1.z == [one, one, -i, -i, one, one, -i, -i]
    b2 = [[zero, -one, -i, i],
          [one, zero, -i, -i],
          [i, i, zero, one],
          [-i, i, -one, zero]]
    ell2 = spinor_map(b2)
    assert ell2.z == [one, -one, -i, i, one, -one, -i, i]
    # their subspaces intersect in exactly two dimensions, spanned by the
    # column combinations c1 - i c3 and c2 - i c4 of both graphs
    z1, z2 = graph_basis(b1), graph_basis(b2)
    joint = [z1[r] + z2[r] for r in range(8)]
    assert 8 - rank(mat(joint)) == 2
    for k in (0, 1):
        w1 = [z1[r][k] - i * z1[r][k + 2] for r in range(8)]
        w2 = [z2[r][k] - i * z2[r][k + 2] for r in range(8)]
        assert w1 == w2


def reference_spinor_map(b):
    """The exterior exponential of omega_B = sum_{i<j} b_ij e_i ^ e_j as
    the sum of its wedge powers over k!, read in z-coordinates."""
    check_alternating(b)
    omega = Multivector(4, {(1 << i) | (1 << j): b[i][j]
                            for i in range(4) for j in range(i + 1, 4)
                            if b[i][j] != 0})
    acc = power = Multivector.one(4)
    k, factorial = 1, 1
    while True:
        power = wedge(power, omega)
        if power.is_zero():
            return Spinor.from_multivector(acc)
        acc = acc + power.scale(Fraction(1, factorial))
        k += 1
        factorial *= k


def _same_spinor(got, expected):
    assert got == expected
    assert repr(got) == repr(expected)


def test_spinor_map_matches_wedge_exponential_on_paper_fixtures():
    i, one, zero = (QuadExt(a, b, -1) for a, b in ((0, 1), (1, 0), (0, 0)))
    fixtures = ([[zero, one, -i, -i], [-one, zero, i, -i],
                 [i, -i, zero, -one], [i, i, one, zero]],
                [[zero, -one, -i, i], [one, zero, -i, -i],
                 [i, i, zero, one], [-i, i, -one, zero]])
    for b in fixtures:
        got, expected = spinor_map(b), reference_spinor_map(b)
        _same_spinor(got, expected)
        assert ([encode_scalar(c) for c in got.z]
                == [encode_scalar(c) for c in expected.z])


ALT_ENTRIES = {
    "int": st.integers(-3, 3),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=5),
    "quadext": st.builds(lambda a, b: QuadExt(a, b, 2), st.integers(-2, 2),
                         st.integers(-2, 2)),
}


@st.composite
def alternating(draw):
    """(kind, B): a 4 x 4 alternating matrix of ints, Fractions or QuadExt
    (QuadExt mixed with zeros and ints), often with zero entries."""
    kind = draw(st.sampled_from(sorted(ALT_ENTRIES)))
    entry = ALT_ENTRIES[kind]
    if kind == "quadext":
        entry = st.one_of(entry, st.just(0), st.integers(-2, 2))
    b = [[0] * 4 for _ in range(4)]
    for r in range(4):
        for c in range(r + 1, 4):
            b[r][c] = draw(st.one_of(st.just(0), entry))
            b[c][r] = -b[r][c]
    return kind, b


@settings(max_examples=200, deadline=None)
@given(alternating())
def test_spinor_map_matches_wedge_exponential(case):
    kind, b = case
    got, expected = spinor_map(b), reference_spinor_map(b)
    _same_spinor(got, expected)
    if kind != "quadext":
        assert ([encode_scalar(c) for c in got.z]
                == [encode_scalar(c) for c in expected.z])


def test_spinor_map_rejects_non_alternating_and_other_sizes():
    with pytest.raises(ValueError, match="not alternating"):
        spinor_map([[0, 1, 0, 0], [1, 0, 0, 0], [0] * 4, [0] * 4])
    with pytest.raises(ValueError, match="zero diagonal"):
        spinor_map([[0] * 4, [0, 1, 0, 0], [0] * 4, [0] * 4])
    with pytest.raises(ValueError, match="n = 4"):
        spinor_map([[0, 1], [-1, 0]])


def test_spinor_inverse_zero():
    assert spinor_inverse(Spinor([1, 0, 0, 0, 0, 0, 0, 0])) == [
        [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]


def test_spinor_inverse_gaussian_fixture():
    i = QuadExt(0, 1, -1)
    one = QuadExt(1, 0, -1)
    ell1 = Spinor([one, one, -i, -i, one, one, -i, -i])
    b = spinor_inverse(ell1)
    assert b[0][1] == one and b[0][2] == -i and b[0][3] == -i
    assert b[2][3] == -one and b[1][3] == -i and b[1][2] == i


def test_spinor_inverse_roundtrip(rng):
    for _ in range(1000):
        b = random_alternating(rng)
        z = spinor_map(b)
        assert spinor_inverse(z) == [[Fraction(x) for x in row] for row in b]


def test_spinor_inverse_rejects():
    with pytest.raises(ValueError):
        spinor_inverse(Spinor([1, 0, 0, 0, 1, 0, 0, 0]))  # not isotropic
    with pytest.raises(ValueError):
        spinor_inverse(Spinor([0, 0, 0, 0, 1, 0, 0, 0]))  # outside the cell


@st.composite
def open_cell_spinors(draw):
    """An isotropic spinor with z_1 != 0 over Q or Q(sqrt 2): z_1 and
    z_2..z_4, z_6..z_8 drawn, z_5 solved from the quadric."""
    entry = ALT_ENTRIES[draw(st.sampled_from(["fraction", "quadext"]))]
    z = [draw(st.one_of(st.just(0), entry)) for _ in range(8)]
    z[0] = draw(entry.filter(lambda x: x != 0))
    z[4] = -(z[1] * z[5] + z[2] * z[6] + z[3] * z[7]) / z[0]
    return Spinor(z)


@settings(max_examples=150, deadline=None)
@given(open_cell_spinors())
def test_spinor_inverse_of_an_isotropic_spinor_has_its_pfaffian(s):
    # isotropy alone makes z_5 / z_1 the Pfaffian of the matrix read off,
    # so spinor_inverse needs no check of its own for z_5
    b = spinor_inverse(s)
    assert pfaffian(b) == s.z[4] / s.z[0]
    assert spinor_map(b).scale(s.z[0]) == s


def test_move_to_cell_identity_branch():
    z = Spinor([1, 2, 0, 0, 0, 0, 0, 2])
    assert z.is_isotropic()
    g, gmat, moved = move_to_cell(z)
    assert moved.z == z.z
    assert g == CV().one()


def test_move_to_cell_top_cell():
    estar = Spinor([0, 0, 0, 0, 1, 0, 0, 0])
    g, gmat, moved = move_to_cell(estar)
    assert moved.z[0] != 0
    assert moved.is_isotropic()


def test_move_to_cell_random(rng):
    for _ in range(200):
        z = random_isotropic_spinor(rng)
        g, gmat, moved = move_to_cell(z)
        assert moved.z[0] != 0
        assert moved.is_isotropic()


def _outside_the_cell(rng, count):
    """Isotropic spinors with z_1 = 0 and coordinates in {-1, 0, 1}."""
    out = []
    while len(out) < count:
        s = Spinor([0] + [rng.choice((-1, 0, 1)) for _ in range(7)])
        if s.is_isotropic() and not s.is_zero():
            out.append(s)
    return out


#: one spinor per branch of move_to_cell: the identity, c_ij e_ij for each
#: pair in the order 12, 13, 14, 23, 24, 34 (z-indices 1, 2, 3, 7, 6, 5)
#: beside a top-cell part, and the top cell alone
CELL_BRANCHES = ([Spinor([1, 2, 0, 0, 0, 0, 0, 2])]
                 + [Spinor([3 if i == k else 5 if i == 4 else 0
                            for i in range(8)]) for k in (1, 2, 3, 7, 6, 5)]
                 + [Spinor([0, 0, 0, 0, c, 0, 0, 0]) for c in (1, -3)])


def test_move_to_cell_matches_the_schedule_search(rng):
    spinors = CELL_BRANCHES + _outside_the_cell(rng, 60) + [
        random_isotropic_spinor(rng) for _ in range(60)]
    for s in spinors:
        got, expected = move_to_cell(s), reference.move_to_cell(s)
        assert got == expected and repr(got) == repr(expected)


def test_subspace_of_reference_points():
    # the unit spinor corresponds to the reference half W*
    sub = subspace_of_spinor(Spinor([1, 0, 0, 0, 0, 0, 0, 0]))
    assert all(sub[i][j] == 0 for i in range(4) for j in range(4))
    assert rank(mat([row[:] for row in sub[4:]])) == 4
    # the top exterior power corresponds to W
    sub2 = subspace_of_spinor(Spinor([0, 0, 0, 0, 1, 0, 0, 0]))
    assert all(sub2[i][j] == 0 for i in range(4, 8) for j in range(4))
    assert rank(mat([row[:] for row in sub2[:4]])) == 4


def test_subspace_matches_graph(rng):
    i = QuadExt(0, 1, -1)
    one = QuadExt(1, 0, -1)
    gaussian = [[0 * one, one, -i, -i],
                [-one, 0 * one, i, -i],
                [i, -i, 0 * one, -one],
                [i, i, one, 0 * one]]
    for b in [random_alternating(rng) for _ in range(25)] + [gaussian]:
        sub = subspace_of_spinor(spinor_map(b))
        expected = graph_basis(b)
        joint = [sub[r] + expected[r] for r in range(8)]
        assert rank(mat(joint)) == 4


SPINOR_ENTRIES = {
    "int": st.integers(-3, 3),
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=5),
    "quadext": st.builds(lambda a, b: QuadExt(a, b, 2), st.integers(-2, 2),
                         st.integers(-2, 2)),
    "tower": st.builds(lambda *c: TowerScalar(*c, m=-3),
                       *[st.integers(-2, 2)] * 4),
}


@st.composite
def spinors(draw):
    """A spinor (not necessarily isotropic) of ints, Fractions, QuadExt or
    TowerScalar coordinates, mixed with zeros."""
    entry = SPINOR_ENTRIES[draw(st.sampled_from(sorted(SPINOR_ENTRIES)))]
    return Spinor([draw(st.one_of(st.just(0), entry)) for _ in range(8)])


@settings(max_examples=150, deadline=None)
@given(spinors())
def test_spinor_action_matrix_matches_sigma_action(s):
    got, expected = spinor_action_matrix(s), reference.spinor_action_matrix(s)
    assert got == expected and repr(got) == repr(expected)


def test_a_non_isotropic_annihilator_fails_the_isotropy_certificate(
        monkeypatch):
    # rows whose kernel is span(e_1, e_2, e_5, e_6), where (e_1, e_5) = 1:
    # the kernel has dimension 4 but does not pair to 0
    monkeypatch.setattr(spingeo, "_action_rows",
                        lambda z: [{2: 1}, {3: 1}, {6: 1}, {7: 1}])
    with pytest.raises(ValueError, match="^subspace is not isotropic$"):
        subspace_of_spinor(Spinor([1, 0, 0, 0, 0, 0, 0, 0]))


def test_subspace_rejects_zero_and_non_isotropic():
    with pytest.raises(ValueError):
        subspace_of_spinor(Spinor([0] * 8))
    with pytest.raises(ValueError):
        subspace_of_spinor(Spinor([1, 0, 0, 0, 1, 0, 0, 0]))


def test_subspace_parity_even(rng):
    for _ in range(100):
        z = random_isotropic_spinor(rng)
        sub = subspace_of_spinor(z)
        # Z meets W* = span(e_5..e_8) in the kernel of its top four rows
        assert (4 - rank(sub[:4])) % 2 == 0


def test_transversality_reference_pair():
    w_star = Spinor([1, 0, 0, 0, 0, 0, 0, 0])
    w = Spinor([0, 0, 0, 0, 1, 0, 0, 0])
    assert transversality(w, w_star) is True


def test_transversality_rank_two_example():
    # 1 and 1 + e1^e2 span a line inside the quadric: common 2-plane
    z1 = Spinor([1, 0, 0, 0, 0, 0, 0, 0])
    z2 = Spinor([1, 1, 0, 0, 0, 0, 0, 0])
    assert transversality(z1, z2) is False


def test_transversality_rejects_proportional():
    z = Spinor([1, 1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        transversality(z, z.scale(Fraction(3)))


@pytest.mark.parametrize("first, second", [
    ("s", "-s/2"), ("s", "0"), ("0", "s"), ("0", "0")])
def test_transversality_rejects_every_proportional_pair(first, second):
    s = Spinor([1, 1, 0, 0, 0, 0, 0, 0])
    pick = {"s": s, "-s/2": s.scale(Fraction(-1, 2)), "0": Spinor([0] * 8)}
    with pytest.raises(ValueError, match="^spinors are proportional$"):
        transversality(pick[first], pick[second])


def test_transversality_rank_oracle(rng):
    # every call confirms the pairing criterion against the rank of the
    # joint basis and raises on a disagreement (the test below); both
    # answers occur
    answers = set()
    for _ in range(100):
        z1 = random_isotropic_spinor(rng)
        z2 = random_isotropic_spinor(rng)
        try:
            answers.add(transversality(z1, z2))
        except ValueError:
            continue
    assert answers == {True, False}


def test_transversality_raises_when_the_rank_disagrees(monkeypatch):
    real = spingeo.rank

    def flipped(rows):
        # the joint 8 x 8 basis reads the other answer; the 8 x 4 and
        # 4 x 4 ranks of subspace_of_spinor stay as they are
        r = real(rows)
        return r if len(rows[0]) != 8 else 7 if r == 8 else 8

    monkeypatch.setattr(spingeo, "rank", flipped)
    one = Spinor([1, 0, 0, 0, 0, 0, 0, 0])
    for other in (Spinor([0, 0, 0, 0, 1, 0, 0, 0]),     # transversal
                  Spinor([1, 1, 0, 0, 0, 0, 0, 0])):    # meeting
        with pytest.raises(RuntimeError, match="^form criterion disagrees "
                           "with rank criterion: conventions corrupted$"):
            transversality(one, other)


def test_equivariance_of_spinor_map(rng):
    # gamma(rho_V(g) Z) = rho_plus(g) gamma(Z) for products of exponentials
    from spinweil.reps import splus_matrix
    from spinweil.clifford import random_spin_group_element
    for _ in range(30):
        g = random_spin_group_element(rng)
        rho_v = twisted_conjugation(g)
        rho_s = splus_matrix(g)
        b2 = random_alternating(rng, lo=-2, hi=2)
        z = spinor_map(b2)
        moved_subspace = mat_mul(rho_v, subspace_of_spinor(z))
        gz = Spinor(mat_vec(rho_s, z.z))
        assert gz.is_isotropic()
        back = subspace_of_spinor(gz)
        joint = [moved_subspace[r] + back[r] for r in range(8)]
        assert rank(mat(joint)) == 4


def test_veronese_dictionary_rows():
    rows = phi_matrix()
    assert len(rows) == 70 and len(rows[0]) == 36
    # the coordinate of the reference minor at B = 0 is the square z1^2
    z0 = [1, 0, 0, 0, 0, 0, 0, 0]
    idx5678 = DEGREE4_MASKS.index(mask_of((4, 5, 6, 7)))
    values = mat_vec(rows, sym2_coords(z0))
    assert values[idx5678] == 1
    assert sum(1 for v in values if v != 0) == 1
    # the opposite reference minor is quadratic in the Pfaffian coordinate:
    # its value at a quadric point equals z5^2
    idx1234 = DEGREE4_MASKS.index(mask_of((0, 1, 2, 3)))
    import random as _random
    rr = _random.Random(5)
    for _ in range(10):
        b = random_alternating(rr)
        z = spinor_map(b).z
        assert mat_vec(rows, sym2_coords(z))[idx1234] == z[4] * z[4]


def test_veronese_pluecker_check_random(rng):
    for _ in range(100):
        b = random_alternating(rng)
        assert mat_vec(phi_matrix(), sym2_coords(spinor_map(b).z)) == \
            coords_degree(pluecker(graph_basis(b)), DEGREE4_MASKS)


def test_a_spinor_of_a_spinor_copies_its_coordinates():
    s = Spinor([1, 0, Fraction(1, 2), 0, 0, 0, QuadExt(0, 1, -1), 0])
    t = Spinor(s)
    assert t == s and repr(t) == repr(s) and t.z is not s.z
    t.z[0] = Fraction(5)
    assert s.z[0] == 1


def test_a_spinor_is_neither_hashable_nor_added():
    # its coordinates are a mutable list, so a Spinor is no dictionary key
    s, t = Spinor([1, 0, 0, 0, 0, 0, 0, 0]), Spinor([0, 1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(TypeError):
        hash(s)
    with pytest.raises(TypeError):
        s + t
    with pytest.raises(TypeError):
        s - t


def _tests_for_spinor(tree):
    """The isinstance calls whose class argument names Spinor."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
                and any(isinstance(n, ast.Name) and n.id == "Spinor"
                        or isinstance(n, ast.Attribute) and n.attr == "Spinor"
                        for n in ast.walk(node.args[1]))):
            yield node.lineno


def test_only_spingeo_turns_inputs_into_spinors():
    src = Path(__file__).resolve().parents[1] / "src" / "spinweil"
    offenders = sorted(
        (path.name, line) for path in src.glob("*.py")
        if path.name != "spingeo.py"
        for line in _tests_for_spinor(ast.parse(path.read_text())))
    assert offenders == []
