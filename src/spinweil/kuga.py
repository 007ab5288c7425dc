"""The Kuga-Satake construction on the even Clifford algebra C+(H) of the
rank-6 complement H of <h, s> in S+: the 32-dimensional lattice, the
complex structure J_KS by left multiplication, the center, and the
certificate that the Kuga-Satake variety is isogenous to A^4, A the Weil
fourfold of (h, s, period).

The certificate is Hom_G(V, C+(H)) (ks_hom), G the Weil datum's joint
stabilizer of h and s (WeilDatum.g), acting on C+(H) by left multiplication
through spin(H).  mu commutes with G, so Hom is a vector space over
K = Q(mu).  Rational dimension 8 and joint rank 32 make a K-basis Phi_1,
..., Phi_4 an isomorphism V^4 -> C+(H) of G-representations (Phi mu has
the image of Phi); J_KS Phi = Phi J for every Phi, J the datum's complex
structure on V, makes it carry J to J_KS.

With the convention v^2 = (v, v)/2 the product of two orthogonal vectors
of common length c squares to -c^2/4, so the exact complex structure is
(2/c) times left multiplication; the paper-level unit normalization would
need a real square root and is recovered projectively.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .clifford import CliffordAlgebra, CliffordElement, commutator, so_to_spin
from .lattices import BilinearLattice, make_Splus, sublattice_gram
from .linalg import (identity, mat_mul, rank, solve_matrix, sparse_nullspace,
                     transpose)
from .multivector import nonzero_columns
from .reps import _action_matrix
from .scalars import rat, squarefree_part
from .weil import Period, WeilDatum, complement_basis


def complement_data(h, s):
    """Basis of the rank-6 complement of <h, s> inside S+, and its Gram."""
    basis = complement_basis(h, s)
    return basis, sublattice_gram(make_Splus(), basis, label="H")


def _h_coordinates(cols, vectors):
    """Complement coordinates of the columns of the 8-row matrix vectors,
    cols the 8 x 6 matrix whose columns are the complement basis."""
    x = solve_matrix(cols, vectors)
    if x is None:
        raise ValueError("vector is not supported in the complement")
    return x


#: the even Clifford algebra of the complement (basis: its S+ coordinates)
#: with its complex structure by scaled left multiplication
KSDatum = namedtuple("KSDatum", "basis lattice algebra f1 f2 c even_masks "
                                "j_ks")


def mult_matrix(algebra, x, masks, right=False):
    """The matrix of y -> x y, or of y -> y x when right is set, on the
    span of the blades of the given masks, read off the stored form of
    each product."""
    cols = []
    for m in masks:
        e = CliffordElement._of(algebra, {m: 1}, 1)
        img = e * x if right else x * e
        if any(mm not in masks for mm in img._ints):
            raise RuntimeError("multiplication left the even part")
        cols.append([img.coefficient(mm) for mm in masks])
    return transpose(cols)


def ks_complex_structure(h, s, period: Period) -> KSDatum:
    """Complex structure on the even Clifford algebra from a period.

    f1 = p and f2 = q in complement coordinates share the square c > 0 and
    are orthogonal, as the Period guarantees for p and q (the complement's
    Gram pairs coordinates as S+ pairs the vectors), so (f1 f2)^2 = -c^2/4
    exactly and (2/c) L_{f1 f2} squares to minus the identity on all 32
    even basis blades; both are checked here, the one place they are, and
    a failure raises.
    """
    basis, lattice = complement_data(h, s)
    f1, f2 = transpose(_h_coordinates(transpose(basis),
                                      transpose([period.p, period.q])))
    algebra = CliffordAlgebra(lattice)
    c = lattice.pair(f1, f1)
    w = algebra.vector(f1) * algebra.vector(f2)
    if w * w != algebra.scalar(-c * c / 4):
        raise RuntimeError("(f1 f2)^2 = -c^2/4 failed: scale convention "
                           "violated")
    masks = algebra.even_masks()
    j_ks = mult_matrix(algebra, w.scale(Fraction(2) / c), masks)
    minus_identity = [[-x for x in row] for row in identity(len(masks))]
    if mat_mul(j_ks, j_ks) != minus_identity:
        raise RuntimeError("J_KS^2 = -I failed")
    return KSDatum(basis=basis, lattice=lattice, algebra=algebra, f1=f1,
                   f2=f2, c=c, even_masks=masks, j_ks=j_ks)


def ks_right_commutation(datum: KSDatum, seed=0) -> bool:
    """Twenty seeded right multiplications commute with J_KS."""
    rng = random.Random(seed)
    masks = datum.even_masks
    for _ in range(20):
        terms = {m: Fraction(rng.randint(-2, 2)) for m in
                 rng.sample(masks, 5)}
        x = datum.algebra.element(terms)
        rmat = mult_matrix(datum.algebra, x, masks, right=True)
        if mat_mul(rmat, datum.j_ks) != mat_mul(datum.j_ks, rmat):
            return False
    return True


def ks_center(lattice: BilinearLattice):
    """Basis of the center of the even Clifford algebra and the square of
    its traceless generator.

    The center is the kernel of the L_g - R_g, g = e_i e_j, whose column b
    is the commutator [g, e_b]: sparse rows, handed to sparse_nullspace as
    they are built.  It is 2-dimensional.  The scalar column is empty in
    every row, so the first free column is mask 0 and basis[0] is the unit
    scalar; basis[1] has no mask-0 coordinate and is the non-scalar
    generator.  Shifted by a scalar, it squares to a rational number whose
    squarefree part identifies the field attached to the lattice (None
    for a center of another dimension).
    """
    algebra = CliffordAlgebra(lattice)
    masks = algebra.even_masks()
    index = {m: a for a, m in enumerate(masks)}
    rows = []
    for i, j in combinations(range(lattice.rank), 2):
        g = algebra.generator(i) * algebra.generator(j)
        block = [{} for _ in masks]
        for b, m in enumerate(masks):
            img = commutator(g, CliffordElement._of(algebra, {m: 1}, 1))
            for mm, c in img.terms.items():
                block[index[mm]][b] = c
        rows += block
    basis = sparse_nullspace(rows, len(masks))
    if len(basis) != 2:
        return basis, None
    omega_c = algebra.element(dict(zip(masks, basis[1])))
    # the center is Q[w] with w^2 = alpha + beta w, so w - beta/2 squares to
    # a scalar; in a non-orthogonal basis e_i e_j has scalar part
    # (e_i, e_j)/2, so beta need not be 0; it is read off one non-scalar blade
    blade = next(m for m in omega_c.terms if m != 0)
    beta = (omega_c * omega_c).terms.get(blade, 0) / omega_c.terms[blade]
    omega_c = omega_c - algebra.scalar(beta / 2)
    square = omega_c * omega_c
    if square.degrees() not in ([], [0]):
        raise RuntimeError("center generator square is not a scalar")
    return basis, square.scalar_part()


def ks_center_field_check(lattice, m) -> dict:
    """The center of the even algebra of the complement lattice matches the
    field of the datum, m the squarefree part of -d."""
    basis, omega_sq = ks_center(lattice)
    sq = rat(omega_sq)
    part = squarefree_part(sq.numerator * sq.denominator)
    return {
        "center_dim": len(basis),
        "omega_c_square": sq,
        "square_negative": sq < 0,
        "squarefree_part_matches": part == m,
    }


def ks_hom(datum: KSDatum, weil_datum: WeilDatum):
    """Basis of Hom_G(V, C+(H)) as 32 x 8 matrices, G = weil_datum.g.

    The kernel of Phi -> L(xi) Phi - Phi M(xi) over the 15 generators xi,
    G's coefficient vectors on the X_a: L(xi) is left multiplication by
    the lift of xi's action on the complement, M(xi) is xi's action on V,
    and both actions on S+ and V are read off the cached tables
    (reps._action_matrix), M once per generator as its nonzero column
    entries.  Phi[c][b] is unknown 8 c + b: row (a, b) has L[a][c] at
    8 c + b and -M[c][b] at 8 a + c, which can share a column; the rows go
    to sparse_nullspace with their zeros left out.
    """
    cols = transpose(datum.basis)
    rows = []
    for xi in weil_datum.g:
        y = _h_coordinates(cols, mat_mul(_action_matrix(xi, "S+"), cols))
        lmat = mult_matrix(datum.algebra, so_to_spin(datum.algebra, y),
                           datum.even_masks)
        mcols = nonzero_columns(_action_matrix(xi, "V"))
        for a, lrow in enumerate(lmat):
            nonzero = [(c, x) for c, x in enumerate(lrow) if x]
            for b, mcol in enumerate(mcols):
                row = {8 * a + c: -x for c, x in mcol.items()}
                for c, x in nonzero:
                    row[8 * c + b] = row.get(8 * c + b, 0) + x
                rows.append({j: x for j, x in row.items() if x})
    return [[v[i:i + 8] for i in range(0, len(v), 8)]
            for v in sparse_nullspace(rows, 8 * len(datum.even_masks))]


def ks_report(weil_datum: WeilDatum) -> dict:
    """Full Kuga-Satake verification summary for one Weil datum, of values
    it computes: h, s, the period, J, m and G are read off the datum, and
    J_KS^2 = -I is ks_complex_structure's certificate, checked there once.

    The isogeny_* fields are the certificate of the module docstring:
    dim Hom_G(V, C+(H)) = 8 and joint rank 32, which together give
    V^4 = C+(H) as G-representations, and J_KS Phi = Phi J for every Phi
    (false when Hom is empty), which makes the isomorphism carry J to J_KS.
    """
    datum = ks_complex_structure(weil_datum.h, weil_datum.s,
                                 weil_datum.period)
    homs = ks_hom(datum, weil_datum)
    joint = rank([col for phi in homs for col in transpose(phi)])
    center = ks_center_field_check(datum.lattice, weil_datum.m)
    return {
        "even_algebra_dim": len(datum.even_masks),
        "f1f2_square": -datum.c * datum.c / 4,
        **{f"center_{k}": v for k, v in center.items()},
        "isogeny_hom_dim": len(homs),
        "isogeny_joint_rank": joint,
        "isogeny_even_algebra_is_V4": len(homs) == 8 and joint == 32,
        "isogeny_intertwines_J": bool(homs) and all(
            mat_mul(datum.j_ks, phi) == mat_mul(phi, weil_datum.j)
            for phi in homs),
    }
