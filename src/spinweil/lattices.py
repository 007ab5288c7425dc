"""Bilinear lattices and their standard constructions.

The two central lattices are V = W + W* of rank 8 with the hyperbolic
pairing (x, y) = sum_i x_i y_{i+4} + x_{i+4} y_i (basis order e_1..e_4 in W,
e_5 = e_1*, ..., e_8 = e_4*), and the spinor lattice S+ in z-coordinates.
Both are four hyperbolic planes, built by one builder that stores the
Gram of U^4 unscaled.  The factor 2 in (z, z) = 2(z_1 z_5 + z_2 z_6 +
z_3 z_7 + z_4 z_8) is that of the quadratic form, whose zero set is the
quadric z_1 z_5 + z_2 z_6 + z_3 z_7 + z_4 z_8 = 0; it is not in the Gram.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

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

    def vector(self, coords):
        return LatticeVector(self, list(coords))

    def __repr__(self):
        return f"BilinearLattice({self.label or 'rank %d' % self.rank})"


# The records are namedtuples, not dataclasses: every process imports this
# module, and importing dataclasses (with inspect) would cost each of them.
class LatticeVector(namedtuple("LatticeVector", "parent coords")):
    __slots__ = ()

    def __new__(cls, parent, coords):
        if len(coords) != parent.rank:
            raise ValueError("coordinate length does not match lattice rank")
        return super().__new__(cls, parent, coords)


class MukaiVector(namedtuple("MukaiVector", "r c s")):
    """Triple (r, c, s) with c a coordinate vector in a rank-6 H^2 slot."""
    __slots__ = ()


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


def make_U3() -> BilinearLattice:
    """Rank-6 sum of three hyperbolic planes (an H^2 intersection form)."""
    g = [[0] * 6 for _ in range(6)]
    for i in range(3):
        g[2 * i][2 * i + 1] = 1
        g[2 * i + 1][2 * i] = 1
    return BilinearLattice(g, label="U^3")


def signature(lattice: BilinearLattice):
    """Exact Sylvester signature (positive, negative, radical).

    Symmetric Gaussian reduction: pivot on the largest-absolute-value
    diagonal entry; when the remaining diagonal is zero but an off-diagonal
    entry g_ij survives, replace x_i by x_i + x_j to create the diagonal
    entry 2 g_ij and continue.
    """
    n = lattice.rank
    g = [list(row) for row in lattice.gram]

    def swap(i, j):
        g[i], g[j] = g[j], g[i]
        for row in g:
            row[i], row[j] = row[j], row[i]

    pos = neg = 0
    for k in range(n):
        # best available diagonal pivot
        best, best_abs = -1, None
        for i in range(k, n):
            if g[i][i] != 0 and (best_abs is None or abs(g[i][i]) > best_abs):
                best, best_abs = i, abs(g[i][i])
        if best < 0:
            # look for a surviving off-diagonal entry
            found = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if g[i][j] != 0:
                        found = (i, j)
                        break
                if found:
                    break
            if found is None:
                break  # remaining block is the radical
            i, j = found
            # x_i -> x_i + x_j gives diagonal entry 2 g_ij
            for t in range(n):
                g[i][t] = g[i][t] + g[j][t]
            for t in range(n):
                g[t][i] = g[t][i] + g[t][j]
            best = i
        if best != k:
            swap(k, best)
        d = g[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if g[i][k] != 0:
                f = g[i][k] / d
                for t in range(n):
                    g[i][t] = g[i][t] - f * g[k][t]
                for t in range(n):
                    g[t][i] = g[t][i] - f * g[t][k]
    radical = n - pos - neg
    return (pos, neg, radical)


def orthogonal_complement(lattice: BilinearLattice, vectors):
    """Basis of {t : (t, v) = 0 for all given v}, as LatticeVectors."""
    coords = [v.coords if isinstance(v, LatticeVector) else list(v)
              for v in vectors]
    if not coords:
        return [lattice.vector(row) for row in identity(lattice.rank)]
    # rows: v^T G, kernel gives the complement
    rows = mat_mul(coords, lattice.gram)
    return [lattice.vector(b) for b in nullspace(rows)]


def sublattice_gram(lattice: BilinearLattice, basis_vectors, label=""):
    """The Gram matrix of a list of vectors, as a new BilinearLattice; each
    vector is scaled to ints once."""
    scaled = [_integer_coords(v.coords if isinstance(v, LatticeVector)
                              else list(v)) for v in basis_vectors]
    return BilinearLattice([[lattice._pair(a, b) for b in scaled]
                            for a in scaled], label=label)


def mukai_pairing(v: MukaiVector, w: MukaiVector, gramH2=None):
    """Mukai pairing -(r s' + r' s) + c . c' on (r, c, s) triples."""
    lat = make_U3() if gramH2 is None else BilinearLattice(gramH2)
    cc = lat.pair(list(v.c), list(w.c))
    return -(rat(v.r) * rat(w.s) + rat(w.r) * rat(v.s)) + cc


def moduli_dimension(n: int):
    """Dimension 2n + 2 of the moduli space attached to s_n = (1, 0, -n)."""
    v = MukaiVector(1, (0,) * 6, -n)
    sq = mukai_pairing(v, v)
    return sq, sq + 2
