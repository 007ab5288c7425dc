"""The Kuga-Satake construction on the even Clifford algebra of the rank-6
complement of the plane through h and s: the 32-dimensional lattice, the
complex structure by left multiplication, the center of the even algebra,
and the representation-level certificates behind the identification of the
Kuga-Satake abelian variety with four copies of the Weil fourfold.

With the convention v^2 = (v, v)/2 the product of two orthogonal vectors
of common length c squares to -c^2/4, so the exact complex structure is
(2/c) times left multiplication; the paper-level unit normalization would
need a real square root and is recovered projectively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .clifford import CliffordAlgebra, commutator, so_to_spin, spin_so_iso
from .lattices import BilinearLattice, sublattice_gram
from .linalg import (det, identity, mat, mat_mul, nullspace,
                     scale_to_integers, solve_matrix, sparse_nullspace,
                     transpose)
from .reps import splus_matrix, stabilizer_algebra
from .scalars import QuadExt, rat, squarefree_part
from .spingeo import splus_lattice
from .weil import Period, complement_basis, field_parameters


def complement_data(h, s):
    """Basis of the rank-6 complement of <h, s> inside S+, and its Gram."""
    basis = complement_basis(h, s)
    return basis, sublattice_gram(splus_lattice(), basis, label="H")


def _h_coordinates(cols, vectors):
    """Complement coordinates of the columns of the 8-row matrix vectors,
    cols the 8 x 6 matrix whose columns are the complement basis."""
    x = solve_matrix(cols, vectors)
    if x is None:
        raise ValueError("vector is not supported in the complement")
    return x


@dataclass(frozen=True)
class KSDatum:
    """The even Clifford algebra of the complement with its complex
    structure by scaled left multiplication."""
    lattice: BilinearLattice
    algebra: CliffordAlgebra
    f1: list
    f2: list
    c: Fraction
    even_masks: tuple
    j_ks: list


def mult_matrix(algebra, x, masks, right=False):
    """The matrix of y -> x y, or of y -> y x when right is set, on the
    span of the blades of the given masks."""
    cols = []
    for m in masks:
        e = algebra.element({m: Fraction(1)})
        img = e * x if right else x * e
        if any(mm not in masks for mm in img.terms):
            raise RuntimeError("multiplication left the even part")
        cols.append([img.terms.get(mm, Fraction(0)) for mm in masks])
    return [[cols[j][i] for j in range(len(masks))]
            for i in range(len(masks))]


def ks_complex_structure(h, s, period: Period) -> KSDatum:
    """Complex structure on the even Clifford algebra from a period.

    f1 = p and f2 = q in complement coordinates share the square c > 0 and
    are orthogonal, so (f1 f2)^2 = -c^2/4 exactly and (2/c) L_{f1 f2}
    squares to minus the identity on all 32 even basis blades.
    """
    basis, lattice = complement_data(h, s)
    f1, f2 = transpose(_h_coordinates(transpose(basis),
                                      transpose([period.p, period.q])))
    algebra = CliffordAlgebra(lattice)
    c = lattice.pair(f1, f1)
    if c <= 0 or lattice.pair(f2, f2) != c or lattice.pair(f1, f2) != 0:
        raise ValueError("period does not give an orthogonal equal-length "
                         "pair in the complement")
    w = algebra.vector(f1) * algebra.vector(f2)
    wsq = w * w
    if wsq != algebra.scalar(-c * c / 4):
        raise RuntimeError("(f1 f2)^2 = -c^2/4 failed: scale convention "
                           "violated")
    masks = tuple(algebra.basis_masks(even_only=True))
    lmat = mult_matrix(algebra, w, masks)
    scale = Fraction(2) / c
    j_ks = [[scale * x for x in row] for row in lmat]
    if not _squares_to_minus_identity(j_ks):
        raise RuntimeError("J_KS^2 = -I failed")
    return KSDatum(lattice=lattice, algebra=algebra, f1=f1, f2=f2, c=c,
                   even_masks=masks, j_ks=j_ks)


def _squares_to_minus_identity(m) -> bool:
    minus_identity = [[-x for x in row] for row in identity(len(m))]
    return mat_mul(m, m) == minus_identity


def ks_right_commutation(datum: KSDatum, seed=0, count=20) -> bool:
    """Right multiplications commute with the complex structure."""
    rng = random.Random(seed)
    masks = datum.even_masks
    for _ in range(count):
        terms = {m: Fraction(rng.randint(-2, 2)) for m in
                 rng.sample(masks, 5)}
        x = datum.algebra.element(terms)
        rmat = mult_matrix(datum.algebra, x, masks, right=True)
        if mat_mul(rmat, datum.j_ks) != mat_mul(datum.j_ks, rmat):
            return False
    return True


def ks_i_eigenspace_dim(datum: KSDatum) -> int:
    """Dimension of the +i eigenspace of J_KS (16 of 32)."""
    n = len(datum.even_masks)
    i_unit = QuadExt(0, 1, -1)
    shifted = [[QuadExt(datum.j_ks[a][b], 0, -1) -
                (i_unit if a == b else QuadExt(0, 0, -1))
                for b in range(n)] for a in range(n)]
    return len(nullspace(mat(shifted)))


def ks_center(lattice: BilinearLattice):
    """Basis of the center of the even Clifford algebra and the square of
    its traceless generator.

    The center is the kernel of the L_g - R_g, g = e_i e_j, whose column b
    is the commutator [g, e_b]: sparse rows, scaled by scale_to_integers
    (on ints when rational).  It is 2-dimensional; the non-scalar
    generator squares to a rational number whose squarefree part
    identifies the field attached to the lattice (None for a center of
    another dimension).
    """
    algebra = CliffordAlgebra(lattice)
    masks = tuple(algebra.basis_masks(even_only=True))
    index = {m: a for a, m in enumerate(masks)}
    rows = []
    for i, j in combinations(range(lattice.rank), 2):
        g = algebra.generator(i) * algebra.generator(j)
        block = [{} for _ in masks]
        for b, m in enumerate(masks):
            img = commutator(g, algebra.element({m: Fraction(1)}))
            for mm, c in img.terms.items():
                block[index[mm]][b] = c
        rows += [scale_to_integers(row.items())[0] for row in block]
    basis = sparse_nullspace(rows, len(masks))
    if len(basis) != 2:
        return basis, None
    # a non-scalar generator w of the center: zero its mask-0 coordinate
    idx0 = masks.index(0)
    u, v = basis
    if u[idx0] == 0:
        w = u
    elif v[idx0] == 0:
        w = v
    else:
        w = [a * v[idx0] - b * u[idx0] for a, b in zip(u, v)]
    if all(x == 0 for x in w):
        raise RuntimeError("center degenerated to the scalar line")
    omega_c = algebra.element({m: c for m, c in zip(masks, w)})
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


def ks_center_field_check(h, s) -> dict:
    """The center of the even algebra matches the field of the datum."""
    _, lattice = complement_data(h, s)
    basis, omega_sq = ks_center(lattice)
    d, m, f = field_parameters(h, s)
    sq = rat(omega_sq)
    part = squarefree_part(sq.numerator * sq.denominator)
    return {
        "center_dim": len(basis),
        "omega_c_square": sq,
        "square_negative": sq < 0,
        "squarefree_part_matches": part == m,
    }


def _charpoly_values(matrix, points):
    """det(t I - M) at integer points, exactly, via integer determinants."""
    n = len(matrix)
    scaled, denom = scale_to_integers(((a, b), x) for a, row in
                                      enumerate(matrix) for b, x in
                                      enumerate(row))
    out = []
    for t in points:
        m = [[(t * denom if a == b else 0) - scaled.get((a, b), 0)
              for b in range(n)] for a in range(n)]
        out.append(det(m) / denom ** n)
    return out


def ks_spin_rep_check(h, s, seed=0, count=10) -> dict:
    """Necessary conditions for the even algebra to be four copies of V
    as a representation of the joint stabilizer of h and s.

    Random Lie elements of the rank-15 stabilizer act on the even Clifford
    algebra by left multiplication (through the lift into the complement's
    spin algebra) and on V by the commutator; the characteristic polynomial
    of the former must be the fourth power of the latter.  Decided exactly
    by evaluating both determinants at 33 integer points.
    """
    basis, lattice = complement_data(h, s)
    algebra = CliffordAlgebra(lattice)
    masks = tuple(algebra.basis_masks(even_only=True))
    stab, _ = stabilizer_algebra([h, s])
    if len(stab) != 15:
        raise RuntimeError("stabilizer of h, s is not 15-dimensional")
    cols = transpose(basis)
    rng = random.Random(seed)
    points = list(range(33))
    all_match = True
    for _ in range(count):
        xi = _random_combination(stab, rng)
        y = _h_coordinates(cols, mat_mul(splus_matrix(xi), cols))
        lifted = so_to_spin(algebra, y)
        lmat = mult_matrix(algebra, lifted, masks)
        mv = spin_so_iso(xi)
        left_vals = _charpoly_values(lmat, points)
        v_vals = _charpoly_values(mv, points)
        if any(lv != vv ** 4 for lv, vv in zip(left_vals, v_vals)):
            all_match = False
            break
    return {
        "dimension_32_equals_4x8": len(masks) == 4 * len(mv),
        "charpoly_fourth_power": all_match,
        "trials": count,
    }


def _random_combination(elements, rng):
    out = None
    for e in elements:
        c = rng.randint(-2, 2)
        if c:
            term = e.scale(rat(c))
            out = term if out is None else out + term
    if out is None:
        out = elements[0]
    return out


def ks_report(h, s, period: Period, seed=0) -> dict:
    """Full Kuga-Satake verification summary for one datum."""
    datum = ks_complex_structure(h, s, period)
    rep = ks_spin_rep_check(h, s, seed=seed)
    center = ks_center_field_check(h, s)
    return {
        "even_algebra_dim": len(datum.even_masks),
        "f1f2_square": -datum.c * datum.c / 4,
        "J_KS_squares_to_minus_identity":
            _squares_to_minus_identity(datum.j_ks),
        "right_multiplication_commutes": ks_right_commutation(datum,
                                                              seed=seed),
        "plus_i_eigenspace_dim": ks_i_eigenspace_dim(datum),
        **{f"center_{k}": v for k, v in center.items()},
        **{f"rep_{k}": v for k, v in rep.items()},
    }
