"""Bilinear lattices and their standard constructions.

The two central lattices are V = W + W* of rank 8 with the hyperbolic
pairing (x, y) = sum_i x_i y_{i+4} + x_{i+4} y_i (basis order e_1..e_4 in W,
e_5 = e_1*, ..., e_8 = e_4*), and the spinor lattice S+ in z-coordinates.
Both are four hyperbolic planes, built by one builder that stores the
Gram of U^4 unscaled.  The factor 2 in (z, z) = 2(z_1 z_5 + z_2 z_6 +
z_3 z_7 + z_4 z_8) is that of the quadratic form, whose zero set is the
quadric z_1 z_5 + z_2 z_6 + z_3 z_7 + z_4 z_8 = 0; it is not in the Gram.

The Mukai lattice H^ev(A) = U + U^3 of an abelian surface is S+, as
Spin(H^1(A) + H^1(A)^v) acts on H^ev(A) (Mukai 1987; Golyshev-Lunts-Orlov
2001): z -> (r, c, s) = (z_0, (z_1, z_5, z_2, z_6, z_3, z_7), -z_4), with
0-based z, is an isometry onto -(r s' + r' s) + c . c', c . c' pairing
c_2i with c_2i+1; the sign of z_4 is what makes it one.  The pure spinor
exp(B) = spinor_map(B) goes to (1, c(B), -Pf B), of square 0, with c(B) =
(b_12, -b_34, b_13, b_24, b_14, -b_23); the tests pin this convention.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .linalg import identity, mat_mul, nullspace
from .scalars import _integer_coords, _over, rat


class BilinearLattice:
    """Free module of finite rank with a symmetric Gram matrix; a rational
    Gram is also kept as ints over one denominator, for pair on ints."""

    __slots__ = ("rank", "gram", "label", "_rows", "_den")

    def __init__(self, gram, label=""):
        gram = [[rat(x) if isinstance(x, (int, str, Fraction)) else x
                 for x in row] for row in gram]
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "label", label)
        # the nonzero Gram entries of each row, as (column, value) pairs:
        # ints over the denominator _den when the Gram is rational
        flat, den = _integer_coords([x for row in gram for x in row])
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_rows", [
            [(j, x) for j, x in enumerate(flat[i * n:(i + 1) * n]) if x != 0]
            for i in range(n)])

    def __setattr__(self, *args):
        raise AttributeError("BilinearLattice values are immutable")

    def pair(self, v, w):
        """The bilinear form applied to two coordinate vectors."""
        n = self.rank
        if len(v) != n or len(w) != n:
            raise ValueError("coordinate length does not match lattice rank")
        return self._pair(_integer_coords(v), _integer_coords(w))

    def _pair(self, sv, sw):
        """pair of two vectors as _integer_coords gives them."""
        (v, dv), (w, dw) = sv, sw
        total, hit = 0, False
        for x, row in zip(v, self._rows):
            if x:
                for j, g in row:
                    if w[j]:
                        total, hit = total + x * g * w[j], True
        if not hit:
            return 0
        return _over(total, self._den * dv * dw)

    def __repr__(self):
        return f"BilinearLattice({self.label or 'rank %d' % self.rank})"


# The record is a namedtuple, not a dataclass: every process imports this
# module, and importing dataclasses (with inspect) would cost each of them.
class MukaiVector(namedtuple("MukaiVector", "r c s")):
    """Mukai vector (r, c, s), c in H^2 = U^3, read as the spinor z of S+
    (module docstring): s_n = (1, 0, -n) is z = (1, 0, 0, 0, n, 0, 0, 0)."""
    __slots__ = ()

    @property
    def z(self):
        """The S+ coordinates; r and s may be given as "p/q" text."""
        r, c, s = (rat(x) if isinstance(x, str) else x for x in self)
        return [r, c[0], c[2], c[4], -s, c[1], c[3], c[5]]


def _four_hyperbolic_planes(label) -> BilinearLattice:
    """U^4 of rank 8, coordinate i paired with coordinate i + 4."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(4):
        g[i][i + 4] = g[i + 4][i] = 1
    return BilinearLattice(g, label=label)


def make_V() -> BilinearLattice:
    """The rank-8 lattice V = W + W*, four hyperbolic planes."""
    return _four_hyperbolic_planes("V")


def make_Splus() -> BilinearLattice:
    """The rank-8 spinor lattice S+ in z-coordinates.

    The bilinear form is (z, z') = sum_i z_i z'_{i+4} + z_{i+4} z'_i, so
    S+ is again four hyperbolic planes and the attached quadratic form is
    (z, z) = 2(z_1 z_5 + z_2 z_6 + z_3 z_7 + z_4 z_8); the quadric cut out
    by it is z_1 z_5 + z_2 z_6 + z_3 z_7 + z_4 z_8 = 0.
    """
    return _four_hyperbolic_planes("S+")


@lru_cache(maxsize=1)
def splus_lattice() -> BilinearLattice:
    """The one S+ lattice that spinors and Mukai vectors pair in."""
    return make_Splus()


def signature(lattice: BilinearLattice):
    """Exact Sylvester signature (positive, negative, radical).

    Lagrange's diagonalisation: take the first nonzero diagonal entry
    d = g_kk, count its sign and pass to the Schur complement
    g_ab - g_ak g_kb / d on the other indices.  When the diagonal left is
    zero, x_i -> x_i + x_j at the first nonzero g_ij makes g_ii = 2 g_ij.
    What is left when g = 0 is the radical.  Exact arithmetic needs no
    pivot choice.
    """
    g = [list(row) for row in lattice.gram]
    rest = list(range(lattice.rank))
    pos = neg = 0
    while True:
        k = next((i for i in rest if g[i][i] != 0), None)
        if k is None:
            hit = next(((i, j) for i in rest for j in rest if g[i][j] != 0),
                       None)
            if hit is None:
                break
            k, j = hit
            for t in rest:
                g[k][t] += g[j][t]
            for t in rest:
                g[t][k] += g[t][j]
        d = g[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        rest.remove(k)
        for a in rest:
            if g[a][k] != 0:
                f = g[a][k] / d
                for b in rest:
                    g[a][b] -= f * g[k][b]
    return pos, neg, lattice.rank - pos - neg


def orthogonal_complement(lattice: BilinearLattice, vectors):
    """Basis of {t : (t, v) = 0 for all given v}, as coordinate lists."""
    coords = [list(v) for v in vectors]
    if not coords:
        return identity(lattice.rank)
    # rows: v^T G, kernel gives the complement
    return nullspace(mat_mul(coords, lattice.gram))


def sublattice_gram(lattice: BilinearLattice, vectors, label=""):
    """The Gram matrix of a list of vectors, as a new BilinearLattice; each
    vector is scaled to ints once."""
    scaled = [_integer_coords(list(v)) for v in vectors]
    return BilinearLattice([[lattice._pair(a, b) for b in scaled]
                            for a in scaled], label=label)


def mukai_pairing(v: MukaiVector, w: MukaiVector):
    """Mukai pairing -(r s' + r' s) + c . c', the S+ pairing of v.z and w.z."""
    return splus_lattice().pair(v.z, w.z)


def moduli_dimension(n: int):
    """(s_n, s_n) = 2n and the dimension 2n + 2 of the moduli space of
    s_n = (1, 0, -n), the spinor (1, 0, 0, 0, n, 0, 0, 0) of S+, which is
    reps.standard_spinor(-n)."""
    v = MukaiVector(1, (0,) * 6, -n)
    sq = mukai_pairing(v, v)
    return sq, sq + 2
