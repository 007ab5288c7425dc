"""Exterior algebras over W (rank 4) and V (rank 8) with bitmask bases.

A multivector is a finite mapping {index-subset bitmask: scalar}; bit i of a
mask stands for the basis vector e_{i+1}.  Degree-4 bases on V are ordered
by lexicographic index subsets (itertools.combinations order).  The volume
form is e_1 ^ ... ^ e_8 in this basis order; the Hodge star below depends on
that orientation choice, which is fixed once here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .linalg import _over, _scaled_terms, det
from .scalars import rat


popcount = int.bit_count


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_of(mask: int):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def wedge_sign(a: int, b: int) -> int:
    """Sign of e_A ^ e_B relative to e_{A|B}; 0 if the masks overlap."""
    if a & b:
        return 0
    swaps = 0
    while b:
        low = b & -b
        # the generators of a that this generator of b moves past
        swaps += (a & -(low << 1)).bit_count()
        b ^= low
    return -1 if swaps & 1 else 1


def _accumulate(acc, mask, value):
    """Add value into acc[mask], dropping the entry when it becomes 0."""
    v = acc.get(mask, 0) + value
    if v == 0:
        acc.pop(mask, None)
    else:
        acc[mask] = v


class Multivector:
    """Element of the exterior algebra of a rank-n space (n <= 8)."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for m, c in terms.items():
                if m >> n:
                    raise ValueError("index outside the ambient space")
                c = rat(c) if isinstance(c, (int, str, Fraction)) else c
                if c != 0:
                    clean[m] = c
        self.terms = clean

    @classmethod
    def _of(cls, n, terms):
        """A multivector on clean terms (nonzero, inside the space, no int),
        without the per-term pass of __init__."""
        x = object.__new__(cls)
        x.n, x.terms = n, terms
        return x

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def one(cls, n):
        return cls(n, {0: Fraction(1)})

    @classmethod
    def basis_vector(cls, n, i):
        return cls(n, {1 << i: Fraction(1)})

    @classmethod
    def from_vector(cls, coords):
        n = len(coords)
        return cls(n, {1 << i: c for i, c in enumerate(coords) if c != 0})

    def is_zero(self):
        return not self.terms

    def coefficient(self, mask):
        return self.terms.get(mask, Fraction(0))

    def degrees(self):
        return sorted({popcount(m) for m in self.terms})

    def homogeneous_part(self, k):
        return Multivector(self.n, {m: c for m, c in self.terms.items()
                                    if popcount(m) == k})

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(out, m, c)
        return Multivector(self.n, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Multivector(self.n, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        if c == 0:
            return Multivector.zero(self.n)
        return Multivector(self.n, {m: c * x for m, x in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, Multivector) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def _check(self, other):
        if not isinstance(other, Multivector) or other.n != self.n:
            raise ValueError("mismatched ambient exterior algebras")

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda t: (popcount(t), indices_of(t))):
            lab = "1" if m == 0 else "e" + "".join(str(i + 1) for i in indices_of(m))
            parts.append(f"{self.terms[m]}*{lab}")
        return " + ".join(parts)


def wedge(x: Multivector, y: Multivector) -> Multivector:
    """Graded-commutative wedge product.  Rational factors are put over
    their common denominators and summed on ints, one Fraction per term
    at the end, as in the Clifford product; other scalars run unscaled."""
    x._check(y)
    a, b, d = _scaled_terms(x.terms, y.terms)
    out = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            if not ma & mb:
                m = ma | mb
                out[m] = get(m, 0) + wedge_sign(ma, mb) * ca * cb
    return Multivector._of(x.n, {m: _over(c, d) for m, c in out.items() if c})


def contract(dual_coords, x: Multivector) -> Multivector:
    """The degree -1 derivation D_{w*} on the exterior algebra of W.

    dual_coords gives w* = sum dual_coords[k] e_{k}* against the basis of W,
    so D(e_{i_1} ^ ... ^ e_{i_r}) = sum_j (-1)^(j-1) w*(e_{i_j}) (drop i_j).
    """
    out = {}
    for m, c in x.terms.items():
        for k, d in enumerate(dual_coords):
            if d == 0 or not (m >> k & 1):
                continue
            sign = -1 if popcount(m & ((1 << k) - 1)) % 2 else 1
            _accumulate(out, m ^ (1 << k), sign * d * c)
    return Multivector(x.n, out)


def check_alternating(b):
    n = len(b)
    for i in range(n):
        if b[i][i] != 0:
            raise ValueError("alternating matrix needs zero diagonal")
        for j in range(i + 1, n):
            if b[i][j] != -b[j][i]:
                raise ValueError("matrix is not alternating")
    return b


def pfaffian(b):
    """Pfaffian of an alternating matrix by expansion along the first row.

    Defined by Pfaff(B) e_1 ^ ... ^ e_2m = m! omega_B^m for the 2-form
    omega_B = sum_{i<j} b_ij e_i ^ e_j; the empty matrix has Pfaffian 1.
    """
    check_alternating(b)
    n = len(b)
    if n % 2:
        raise ValueError("Pfaffian needs an even-size matrix")

    def rec(rows):
        if not rows:
            return Fraction(1)
        first = rows[0]
        total = 0
        for t in range(1, len(rows)):
            coeff = b[first][rows[t]]
            if coeff == 0:
                continue
            rest = rows[1:t] + rows[t + 1:]
            sign = -1 if t % 2 == 0 else 1
            total = total + sign * coeff * rec(rest)
        return total

    return rec(tuple(range(n)))


DEGREE4_MASKS = tuple(mask_of(c) for c in combinations(range(8), 4))
DEGREE2_MASKS = tuple(mask_of(c) for c in combinations(range(8), 2))
VOLUME_MASK = 0xFF


def pluecker(columns_matrix) -> Multivector:
    """Wedge of the four columns of an 8 x 4 matrix, in the algebra of V.

    The coefficient on e_I is the determinant of the rows I of the matrix;
    a rank-deficient input yields the zero multivector.
    """
    cols = [[row[j] for row in columns_matrix] for j in range(4)]
    out = Multivector.from_vector(cols[0])
    for c in cols[1:]:
        out = wedge(out, Multivector.from_vector(c))
    return out


def minor_oracle(columns_matrix):
    """All 70 maximal minors by direct cofactor expansion (test oracle)."""
    out = {}
    for rows in combinations(range(8), 4):
        sub = [[columns_matrix[r][c] for c in range(4)] for r in rows]
        out[mask_of(rows)] = det(sub)
    return out


def induced_gram4(gram):
    """Induced pairing on degree 4: (x_1^..^x_4, y_1^..^y_4) = det((x_i, y_j))."""
    entries = {}
    masks = DEGREE4_MASKS
    for ma in masks:
        ia = indices_of(ma)
        for mb in masks:
            ib = indices_of(mb)
            sub = [[gram[a][b] for b in ib] for a in ia]
            d = det(sub)
            if d != 0:
                entries[(ma, mb)] = d
    return entries


@lru_cache(maxsize=None)
def _star_table():
    from .lattices import make_V
    gram = make_V().gram
    g4 = induced_gram4(gram)
    # star(e_J) = sum_I c_{I,J} e_I solves e_I ^ star(e_J) = (e_I, e_J) vol,
    # so c_{I^c, J} = (e_I, e_J) / sign(e_I ^ e_{I^c} = sign * vol).
    table = {}
    for mj in DEGREE4_MASKS:
        col = {}
        for mi in DEGREE4_MASKS:
            val = g4.get((mi, mj))
            if val is None:
                continue
            comp = VOLUME_MASK ^ mi
            s = wedge_sign(mi, comp)
            col[comp] = val / s
        table[mj] = col
    return table


def hodge_star(x: Multivector) -> Multivector:
    """Hodge star on degree-4 forms of V for the hyperbolic pairing.

    Solves x ^ star(y) = (x, y) vol with vol = e_1 ^ ... ^ e_8 and the
    Gram-determinant pairing on degree 4; star is an involution here
    (middle degree, signature (4,4), Gram determinant +1).
    """
    if x.n != 8:
        raise ValueError("Hodge star is defined on the algebra of V")
    if not x.is_zero() and x.degrees() != [4]:
        raise ValueError("Hodge star needs a homogeneous degree-4 input")
    table = _star_table()
    out = {}
    for mj, c in x.terms.items():
        for mi, t in table[mj].items():
            _accumulate(out, mi, c * t)
    return Multivector(8, out)


def star_matrix():
    """The 70 x 70 matrix of the Hodge star in the lexicographic basis."""
    table = _star_table()
    idx = {m: i for i, m in enumerate(DEGREE4_MASKS)}
    n = len(DEGREE4_MASKS)
    out = [[Fraction(0)] * n for _ in range(n)]
    for mj, col in table.items():
        j = idx[mj]
        for mi, v in col.items():
            out[idx[mi]][j] = v
    return out


def derive_multivector(m, x: Multivector) -> Multivector:
    """Apply the derivation extension of a matrix on vectors to a form."""
    n = x.n
    out = Multivector.zero(n)
    acc = {}
    for mask, c in x.terms.items():
        idxs = indices_of(mask)
        for t in idxs:
            for r in range(n):
                coef = m[r][t]
                if coef == 0:
                    continue
                if r == t:
                    _accumulate(acc, mask, c * coef)
                    continue
                if mask >> r & 1:
                    continue
                lo, hi = (r, t) if r < t else (t, r)
                between_mask = ((1 << hi) - 1) ^ ((1 << (lo + 1)) - 1)
                sign = -1 if popcount((mask ^ (1 << t)) & between_mask) % 2 else 1
                _accumulate(acc, (mask ^ (1 << t)) | (1 << r), sign * c * coef)
    out.terms.update({k: v for k, v in acc.items() if v != 0})
    return out


def coords_degree(x: Multivector, masks):
    return [x.coefficient(m) for m in masks]


def from_coords(n, masks, coords):
    return Multivector(n, {m: c for m, c in zip(masks, coords) if c != 0})
