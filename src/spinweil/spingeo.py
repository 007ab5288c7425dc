"""Isotropic subspaces, the spinor map and its inverse, the quadric, cell
moves and transversality.

A spinor is stored in the eight z-coordinates of the lattice S+.  The same
data can be viewed as an element of the even exterior algebra of W through
the fixed dictionary

    (z_1..z_8) = (c_0, c_12, c_13, c_14, c_1234, -c_34, c_24, -c_23),

where c_I is the coefficient of e_I.  The two sign flips are the single
point where sign conventions enter: they are chosen so that the quadric is
z_1 z_5 + z_2 z_6 + z_3 z_7 + z_4 z_8 = 0, which is exactly the statement
that the top coefficient of a decomposable even form equals the Pfaffian
identity c_0 c_1234 - c_12 c_34 + c_13 c_24 - c_14 c_23 = 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .clifford import (CV, CliffordElement, _module_table, exp_nilpotent,
                       sigma_action, twisted_conjugation)
from .lattices import splus_lattice
from .linalg import mat, rank, sparse_nullspace
from .multivector import Multivector, check_alternating, pfaffian
from .scalars import _integer_coords, rat

# z-coordinate index -> (bitmask of e_I, sign), see module docstring
Z_DICT = ((0, 1), (0b0011, 1), (0b0101, 1), (0b1001, 1),
          (0b1111, 1), (0b1100, -1), (0b1010, 1), (0b0110, -1))

#: even masks of the exterior algebra of W, in (degree, mask) order
EVEN_MASKS = (0, 3, 5, 6, 9, 10, 12, 15)
ODD_MASKS = (1, 2, 4, 8, 7, 11, 13, 14)

#: h and s of the standard Weil datum, whose plane has field Q(i)
STANDARD_H = (0, 1, 0, 0, 0, 1, 0, 0)
STANDARD_S = (1, 0, 0, 0, 1, 0, 0, 0)


class Spinor:
    """Element of S+ (possibly with extended scalars) in z-coordinates;
    Spinor(z) takes eight coordinates or a Spinor, whose list it copies."""

    __slots__ = ("z",)

    def __init__(self, z):
        if isinstance(z, Spinor):
            self.z = list(z.z)
            return
        z = list(z)
        if len(z) != 8:
            raise ValueError("a spinor has eight z-coordinates")
        self.z = [rat(c) if isinstance(c, (int, str, Fraction)) else c
                  for c in z]

    @classmethod
    def from_multivector(cls, mv: Multivector):
        if mv.n != 4 or any(m not in EVEN_MASKS for m in mv.terms):
            raise ValueError("spinors come from the even algebra of W")
        return cls([sign * mv.coefficient(mask) for mask, sign in Z_DICT])

    def multivector(self) -> Multivector:
        terms = {}
        for (mask, sign), c in zip(Z_DICT, self.z):
            if c != 0:
                terms[mask] = sign * c
        return Multivector(4, terms)

    def pair(self, other: "Spinor"):
        return splus_lattice().pair(self.z, other.z)

    def is_isotropic(self) -> bool:
        return self.pair(self) == 0

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.z)

    def scale(self, c):
        return Spinor([c * x for x in self.z])

    def __add__(self, other):
        return Spinor([a + b for a, b in zip(self.z, other.z)])

    def __sub__(self, other):
        return Spinor([a - b for a, b in zip(self.z, other.z)])

    def __eq__(self, other):
        return isinstance(other, Spinor) and all(
            a == b for a, b in zip(self.z, other.z))

    def __hash__(self):
        return hash(tuple(self.z))

    def __repr__(self):
        return f"Spinor({self.z})"


def spinor_map(b) -> Spinor:
    """Spinor coordinates of the isotropic subspace Z_B, B alternating.

    It is the exterior exponential of omega_B = sum b_ij e_i ^ e_j, whose
    e_I coefficients are the Pfaffians of the B_I: 1 + omega_B + Pf(B)
    e_1234, so z = (1, b12, b13, b14, Pf B, -b34, b24, -b23), with
    Fraction(0) for a zero.  Pf B sums the products of nonzero entries.
    """
    check_alternating(b)
    if len(b) != 4:
        raise ValueError("the geometry layer fixes n = 4")
    pf = sum(x * y for x, y in ((b[0][1], b[2][3]), (-b[0][2], b[1][3]),
                                (b[0][3], b[1][2])) if x and y)
    return Spinor([x or Fraction(0) for x in (
        1, b[0][1], b[0][2], b[0][3], pf, -b[2][3], b[1][3], -b[1][2])])


def spinor_inverse(s: Spinor):
    """The alternating matrix B with spinor_map(B) proportional to s.

    Needs an isotropic s with z_1 != 0 (the open cell); after scaling z_1
    to 1 the entries are read off and the z_5 coordinate is checked against
    the Pfaffian of the reconstructed matrix.
    """
    if not s.is_isotropic():
        raise ValueError("spinor is not isotropic")
    z = s.z
    if z[0] == 0:
        raise ValueError("z_1 = 0: outside the open cell")
    w = [c / z[0] for c in z]
    b12, b13, b14 = w[1], w[2], w[3]
    b34, b24, b23 = -w[5], w[6], -w[7]
    zero = w[0] - w[0]
    b = [[zero, b12, b13, b14],
         [-b12, zero, b23, b24],
         [-b13, -b23, zero, b34],
         [-b14, -b24, -b34, zero]]
    if pfaffian(b) != w[4]:
        raise ValueError("z_5 does not equal the Pfaffian: corrupted spinor")
    return b


def move_to_cell(s: Spinor):
    """A spin-group element g with (g s)_1 != 0, for isotropic s != 0.

    g is read off the even form c_0 + sum c_ij e_ij + c_1234 e_1234 of s
    (Chevalley, The Algebraic Theory of Spinors, 1954): g = 1 when
    z_1 = c_0 != 0; else g = exp(e_{i+4} e_{j+4}) for the first nonzero
    c_ij in the order 12, 13, 14, 23, 24, 34, which contracts c_ij e_ij to
    +-c_ij and squares to 0; else g = exp(e_5 e_8 + e_6 e_7), which
    contracts c_1234 e_1234, nonzero for an isotropic s != 0 with no part
    of degree 0 or 2.  The exponents are nilpotent, so g and its SO(V)
    matrix are exact.  Returns (g, matrix of g on V, g s); a moved z_1 of
    0 is impossible and signals a bug.
    """
    if s.is_zero():
        raise ValueError("spinor must be nonzero")
    if not s.is_isotropic():
        raise ValueError("spinor is not isotropic")
    form = s.multivector()
    # e_{i+4} e_{j+4} (i < j) is the canonical blade of its mask
    exponent = {} if s.z[0] != 0 else next(
        ({16 << i | 16 << j: 1} for i, j in combinations(range(4), 2)
         if form.coefficient(1 << i | 1 << j) != 0),
        {16 << 0 | 16 << 3: 1, 16 << 1 | 16 << 2: 1})
    g = exp_nilpotent(CliffordElement._of(CV(), exponent, 1))
    moved = Spinor.from_multivector(sigma_action(g, form))
    if moved.z[0] == 0:
        raise RuntimeError("cell-move schedule exhausted: impossible for "
                           "nonzero isotropic input")
    return g, twisted_conjugation(g), moved


def graph_basis(b):
    """The 8x4 matrix (B over I) whose columns span Z_B."""
    return [[b[i][j] for j in range(4)] for i in range(4)] + [
        [Fraction(1) if i == j else Fraction(0) for j in range(4)]
        for i in range(4)]


def _action_rows(z):
    """The rows of spinor_action_matrix for the coordinates z, sparse."""
    table, rows = _module_table(), {m: {} for m in ODD_MASKS}
    for (f, sign), c in zip(Z_DICT, z):
        if c == 0:
            continue
        for k in range(8):
            hit = table[1 << k][f]
            if hit is not None:
                rows[hit[0]][k] = c if sign * hit[1] > 0 else -c
    return [rows[m] for m in ODD_MASKS]


def spinor_action_matrix(s: Spinor):
    """The 8 x 8 matrix A_s of v -> v s from V into S-, read on the odd
    masks: column k is the action of the generator e_k on s, read off the
    spin-module table: e_k w_F is +-w_G or 0, so each entry is +-z or 0."""
    zero = Fraction(0)
    return [[row.get(k, zero) for k in range(8)] for row in _action_rows(s.z)]


def subspace_of_spinor(s: Spinor):
    """The maximal isotropic subspace attached to an isotropic spinor, as
    the 8 x 4 matrix whose columns span it.  It lies on the even component;
    a subspace on the odd one raises.

    It is Cartan's annihilator {v in V : v s = 0} (Chevalley, The
    Algebraic Theory of Spinors, 1954): the kernel of spinor_action_matrix,
    whose rows go to sparse_nullspace with s scaled to integers.  The
    scaling stays here: rows of ints pass _rational_form as they are,
    and a call took 75-80 us against 113-121 us with the Fraction rows
    (best of 7 passes over 300 spinors drawn as verify draws them, 3
    alternating runs, one core of a 2-core Xeon).
    """
    if s.is_zero():
        raise ValueError("spinor must be nonzero")
    if not s.is_isotropic():
        raise ValueError("spinor is not isotropic")
    kernel = sparse_nullspace(_action_rows(_integer_coords(s.z)[0]), 8)
    if len(kernel) != 4:
        raise RuntimeError("annihilator of a nonzero isotropic spinor is "
                           "not 4-dimensional")
    basis = [[v[i] for v in kernel] for i in range(8)]
    _validate_isotropic(basis)
    # Z meets W* = span(e_5..e_8) in the kernel of the top rows of its basis
    if (4 - rank(basis[:4])) % 2:
        raise RuntimeError("spinor produced an odd-component subspace")
    return basis


def _validate_isotropic(basis8x4):
    """B^T G B = 0 (columns paired on ints) and rank 4 for the 8 x 4 B."""
    cols = [_integer_coords(col) for col in zip(*basis8x4)]
    if any(CV().lattice._pair(a, b) != 0
           for a, b in combinations_with_replacement(cols, 2)):
        raise ValueError("subspace is not isotropic")
    if rank(basis8x4) != 4:
        raise ValueError("subspace basis is rank deficient")


def transversality(s1: Spinor, s2: Spinor) -> bool:
    """Whether the subspaces of two isotropic spinors meet only in 0.

    Decided by (s1, s2) != 0 on S+, and always confirmed against the rank
    of the concatenated 8x8 basis matrix; a disagreement raises.
    """
    if not (s1.is_isotropic() and s2.is_isotropic()):
        raise ValueError("both spinors must be isotropic")
    if s1.is_zero() or _proportionality(s2.z, s1.z) is not None:
        raise ValueError("spinors are proportional")
    answer = s1.pair(s2) != 0
    z1, z2 = subspace_of_spinor(s1), subspace_of_spinor(s2)
    joint = [z1[i] + z2[i] for i in range(8)]
    if (rank(mat(joint)) == 8) != answer:
        raise RuntimeError("form criterion disagrees with rank "
                           "criterion: conventions corrupted")
    return answer


def _proportionality(u, v):
    """The scalar c with u = c v, or None."""
    for a, b in zip(u, v):
        if b != 0:
            c = a / b
            return c if all(x == c * y for x, y in zip(u, v)) else None
    return None if any(x != 0 for x in u) else Fraction(0)


def random_alternating(rng, lo=-3, hi=3, size=4):
    """A random alternating matrix with integer entries in [lo, hi]."""
    b = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = Fraction(rng.randint(lo, hi))
            b[i][j] = v
            b[j][i] = -v
    return b


def random_isotropic_spinor(rng) -> Spinor:
    """A random point of the quadric cone, spread across both cells."""
    s = spinor_map(random_alternating(rng))
    scalar = Fraction(rng.randint(1, 5))
    s = s.scale(scalar)
    if rng.random() < 0.5:
        # swap the roles of the two cells: z_1 <-> z_5 etc. preserves the
        # quadric (it is the signed permutation induced by e_i <-> e_{i+4})
        z = s.z
        s = Spinor([z[4], z[6], z[5], z[7], z[0], z[2], z[1], z[3]])
    return s
