"""Exterior algebras over W (rank 4) and V (rank 8) with bitmask bases.

A multivector is a finite mapping {index-subset bitmask: scalar}; bit i of a
mask stands for the basis vector e_{i+1}.  The exterior algebra of rank n
is the Clifford algebra C(0) of the zero form on it (Chevalley, The
Algebraic Theory of Spinors, 1954), one cached CliffordAlgebra per n
(_exterior).  So Multivector and clifford.CliffordElement share one term
base (_Blades), and _blade_sum is the one product loop: the Clifford
product, the commutator and the wedge each read a blade table through it.
An element keeps its terms in the form of the scaling rule of scalars
(scale_to_integers): rational coefficients as ints over one denominator
in lowest terms, any other scalars as they are over 1.  A product, sum,
negation or scaling reads the forms of its operands and is born with its
own (lowest_terms, one gcd per result), and == compares the forms; the
terms as Fractions are built only when read.

Degree-4 bases on V are ordered by lexicographic index subsets
(itertools.combinations order).  The volume form is e_1 ^ ... ^ e_8 in
this basis order; the Hodge star (star_matrix) depends on that orientation
choice, which is fixed once here.  The star's Gram (induced_gram4) and every
derivation extension of a matrix, on forms, wedge powers and Sym^2
(derivation_columns), read nonzero entries only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import prod
from types import MappingProxyType

from .scalars import (_integer_coords, _over, lowest_terms, rat,
                      scale_to_integers)


popcount = int.bit_count
_ZERO = Fraction(0)


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


class _Blades:
    """A finite mapping {blade bitmask: scalar} in a fixed Clifford
    algebra (an exterior algebra is the Clifford algebra of the zero
    form), stored as scale_to_integers gives its terms: _ints over one
    denominator _d in lowest terms (rational coefficients as ints, any
    other scalars as they are with _d = 1).  The terms, Fractions for
    rational coefficients, are a read-only view built on first read.
    Construction, the additive group, scaling, equality, hashing and the
    text are shared; a subclass supplies the text of its mixed-ambient
    error (_MIXED) and the sort key of its terms in repr (_order)."""

    __slots__ = ("algebra", "_ints", "_d", "_terms")

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        clean = {}
        if terms:
            top = 1 << algebra.rank
            for m, c in terms.items():
                if not 0 <= m < top:
                    raise ValueError("index outside the ambient space")
                c = rat(c) if isinstance(c, (int, str, Fraction)) else c
                if c:
                    clean[m] = c
        self._terms = MappingProxyType(clean)
        self._ints, self._d = scale_to_integers(clean.items())

    @classmethod
    def _of(cls, algebra, ints, d):
        """The element of the form (ints, d) that scale_to_integers or
        lowest_terms gives, unchecked."""
        x = object.__new__(cls)
        x.algebra, x._ints, x._d = algebra, ints, d
        return x

    @property
    def terms(self):
        try:
            return self._terms
        except AttributeError:
            d = self._d
            self._terms = MappingProxyType(
                {m: _over(c, d) for m, c in self._ints.items()})
            return self._terms

    def _check(self, other):
        if (not isinstance(other, type(self))
                or other.algebra is not self.algebra):
            raise ValueError(self._MIXED)

    def _sum(self, other, sign):
        """self + sign * other, over the denominator they share or the
        product of the two."""
        self._check(other)
        d, e = self._d, other._d
        if d == e:
            out = dict(self._ints)
        else:
            out = {m: c * e for m, c in self._ints.items()}
            sign *= d
            d *= e
        get = out.get
        for m, c in other._ints.items():
            out[m] = get(m, 0) + sign * c
        return self._of(self.algebra, *lowest_terms(out, d))

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self._of(self.algebra,
                        {m: -c for m, c in self._ints.items()}, self._d)

    def scale(self, c):
        (n,), e = _integer_coords([c])
        return self._of(self.algebra, *lowest_terms(
            {m: n * x for m, x in self._ints.items()}, self._d * e))

    def __eq__(self, other):
        if not (isinstance(other, type(self))
                and other.algebra is self.algebra):
            return False
        if self._d == other._d:
            return self._ints == other._ints
        # two rational forms in lowest terms differ with their denominators;
        # one with other scalars (d = 1) may still hold the same values
        return (any(type(c) is not int for x in (self, other)
                    for c in x._ints.values())
                and self.terms == other.terms)

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda t: t[0])))

    def is_zero(self):
        return not self._ints

    def coefficient(self, mask):
        """The coefficient on e_mask, read off the stored form: one shared
        Fraction(0) for a mask with no term."""
        ints = self._ints
        return _over(ints[mask], self._d) if mask in ints else _ZERO

    def degrees(self):
        return sorted({popcount(m) for m in self._ints})

    def __repr__(self):
        if not self._ints:
            return "0"
        parts = []
        for m in sorted(self.terms, key=self._order):
            lab = "1" if m == 0 else "e" + "".join(str(i + 1)
                                                   for i in indices_of(m))
            parts.append(f"{self.terms[m]}*{lab}")
        return " + ".join(parts)


def _blade_sum(x, y, rows):
    """The sum of c_A c_B rows[A][B] over the terms c_A e_A of x and c_B e_B
    of y (rows the blade product or commutator table of their algebra), on
    their stored forms, over the product of their denominators."""
    x._check(y)
    entry = x.algebra._blade_entry
    b = y._ints.items()
    out = {}
    get = out.get
    for ma, ca in x._ints.items():
        row = rows[ma]
        if row is None:
            row = rows[ma] = [None] * len(rows)
        for mb, cb in b:
            prod = row[mb]
            if prod is None:
                prod = entry(rows, ma, mb)
            cc = ca * cb
            for m, c in prod:
                out[m] = get(m, 0) + cc * c
    return type(x)._of(x.algebra, *lowest_terms(out, x._d * y._d))


@lru_cache(maxsize=None)
def _exterior(n):
    """The exterior algebra of rank n (0 to 8): the Clifford algebra of the
    zero form, whose blade products are the wedge products."""
    if not 0 <= n <= 8:
        raise ValueError(f"exterior algebras have rank 0 to 8, not {n}")
    from .clifford import CliffordAlgebra
    from .lattices import BilinearLattice
    return CliffordAlgebra(BilinearLattice([[0] * n for _ in range(n)]))


class Multivector(_Blades):
    """Element of the exterior algebra of a rank-n space (n <= 8)."""

    __slots__ = ()
    _MIXED = "mismatched ambient exterior algebras"

    @staticmethod
    def _order(m):
        return popcount(m), indices_of(m)

    def __init__(self, n, terms=None):
        super().__init__(_exterior(n), terms)

    @property
    def n(self):
        return self.algebra.rank

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def one(cls, n):
        return cls(n, {0: Fraction(1)})

    @classmethod
    def from_vector(cls, coords):
        n = len(coords)
        return cls(n, {1 << i: c for i, c in enumerate(coords) if c != 0})


def wedge(x: Multivector, y: Multivector) -> Multivector:
    """Graded-commutative wedge product: the Clifford product of the zero
    form, read off the blade product table of the exterior algebra."""
    return _blade_sum(x, y, x.algebra._products)


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


def induced_gram4(gram):
    """Induced pairing on degree 4: (x_1^..^x_4, y_1^..^y_4) = det((x_i, y_j)),
    as {(mask I, mask J): Fraction} over the nonzero minors det(G[I, J]).
    Leibniz over the nonzero entries of the rows I, on ints over the common
    denominator d of G: columns c_1..c_4, all distinct, add their signed
    product to the minor on J = sorted(c), which is divided by d^4."""
    ints, d = scale_to_integers(((i, j), x) for i, row in enumerate(gram)
                                for j, x in enumerate(row))
    rows = [{} for _ in gram]
    for (i, j), x in ints.items():
        rows[i][j] = x
    entries = {}
    for ia in combinations(range(len(gram)), 4):
        minors = {}
        for cols in product(*(rows[i] for i in ia)):
            if len(set(cols)) == 4:
                p = prod(rows[i][c] for i, c in zip(ia, cols))
                if sum(a > b for a, b in combinations(cols, 2)) % 2:
                    p = -p
                ib = tuple(sorted(cols))
                minors[ib] = minors.get(ib, 0) + p
        entries.update(((mask_of(ia), mask_of(ib)), Fraction(v, d ** 4))
                       for ib, v in sorted(minors.items()) if v)
    return entries


@lru_cache(maxsize=1)
def star_matrix():
    """The 70 x 70 matrix of the Hodge star on degree-4 forms of V in the
    lexicographic basis, for the hyperbolic pairing; cached, so callers
    only read it.

    Column J is star(e_J), which solves e_I ^ star(e_J) = (e_I, e_J) vol
    with vol = e_1 ^ ... ^ e_8 and the Gram-determinant pairing on degree
    4, so its entry at I^c is (e_I, e_J) / sign(e_I ^ e_{I^c} = sign * vol).
    The star is an involution here (middle degree, signature (4,4), Gram
    determinant +1).
    """
    from .lattices import make_V
    idx = {m: i for i, m in enumerate(DEGREE4_MASKS)}
    out = [[Fraction(0)] * 70 for _ in range(70)]
    for (mi, mj), val in induced_gram4(make_V().gram).items():
        comp = VOLUME_MASK ^ mi
        out[idx[comp]][idx[mj]] = val / wedge_sign(mi, comp)
    return out


def nonzero_columns(m):
    """The nonzero entries {r: m[r][t]} of each column t of a square m."""
    return [{r: row[t] for r, row in enumerate(m) if row[t] != 0}
            for t in range(len(m))]


def derivation_columns(cols, blades, symmetric=False):
    """The image {blade: x} of each blade (an ascending index tuple) under
    the derivation extension of the matrix with nonzero column entries
    cols[t] = {r: x}, in any scalar, zero sums kept: the sum over t in the
    blade of the blade with t replaced by r, times x.  On a wedge power a
    repeated index gives 0 and each index strictly between r and t flips
    the sign; on Sym^2 (symmetric set, blades a <= b) neither applies."""
    out = []
    for blade in blades:
        image = {}
        for pos, t in enumerate(blade):
            rest = blade[:pos] + blade[pos + 1:]
            for r, x in cols[t].items():
                if not symmetric:
                    if r in rest:
                        continue
                    lo, hi = (r, t) if r < t else (t, r)
                    if sum(lo < y < hi for y in rest) % 2:
                        x = -x
                key = tuple(sorted(rest + (r,)))
                image[key] = image.get(key, 0) + x
        out.append(image)
    return out


def derive_multivector(m, x: Multivector) -> Multivector:
    """Apply the derivation extension of a matrix on vectors to a form:
    each term's blade is mapped by derivation_columns."""
    terms = list(x._ints.items())
    images = derivation_columns(nonzero_columns(m),
                                [indices_of(mask) for mask, _ in terms])
    acc = {}
    for (_, c), image in zip(terms, images):
        for blade, v in image.items():
            _accumulate(acc, mask_of(blade), c * v)
    return Multivector._of(x.algebra, *lowest_terms(acc, x._d))


def coords_degree(x: Multivector, masks):
    return [x.coefficient(m) for m in masks]


def from_coords(n, masks, coords):
    return Multivector(n, {m: c for m, c in zip(masks, coords) if c != 0})
