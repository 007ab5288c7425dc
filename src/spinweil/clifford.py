"""Clifford algebras over a bilinear lattice, the spin module on the
exterior algebra of W, twisted conjugation onto SO(V), exact exponentials of
nilpotent elements, and the Lie algebra isomorphism spin <-> so.

The defining relation is v w + w v = (v, w), equivalently v^2 = (v, v)/2,
so the generators of the rank-8 lattice V satisfy e_i e_{i+4} + e_{i+4} e_i
= 1 and all e_i square to zero.  Products are reduced to the canonical
basis {e_{i_1} ... e_{i_k} : i_1 < ... < i_k} indexed by bitmasks.

The product of two elements runs on the integer forms that they store
(multivector._Blades: ints over one denominator for rational
coefficients, QuadExt and TowerScalar coefficients as they are), the
blade products keep integral coefficients as ints, and the result is put
in lowest terms over the product of the two denominators once at the
end.  The commutator x y - y x is the same loop over the blade
commutators, cancelled terms dropped (blade_commutator).
Blade products and commutators are kept in one table each per algebra,
filled on first use: a row of 2^rank entries per left blade, each entry
the (mask, coefficient) pairs of the result (_blade_entry).  The product
entry e_A e_k of a generator is written in closed form: e_k moves left
past each e_j of A with j > k, flipping the sign and leaving
(e_j, e_k) e_{A - j} behind, then joins A or squares to (e_k, e_k)/2.
Every other product entry, and the conjugate of a blade (on each call),
folds one generator at a time through those entries.
The one product loop (multivector._blade_sum) serves both algebras: the
exterior algebra is the Clifford algebra of the zero form, so its wedge
reads the product table of that algebra.

The spin module is one table.  C(V) is isomorphic to End of the exterior
algebra of W (Chevalley, The Algebraic Theory of Spinors, 1954): W acts by
wedging, W* by contracting, and each blade e_A sends each of the 16 basis
forms w_F to +-w_G or to 0.  The table of these signed partial
permutations is built once in closed form, with no product: e_k (k < 4)
sends w_F to +-w_{F + k} and e_{k+4} sends it to +-w_{F - k} (_module_table).
sigma_action and _sigma_rows read it, on the stored integer forms.
Chevalley's invariant form on spinors, C[F][15 - F] = (-1)^|F & {0, 2}|,
its own inverse, makes sigma(x*) = C sigma(x)^T C.  As sigma is injective, the
spin-group test runs on 16 x 16 matrices: x x* = 1 iff X C X^T C = 1 for
X = sigma(x); and for a vector u, y = x e_j x* - u is odd with y* = -y,
so the S- -> S+ block of sigma(y) is -C+ Q^T C- for its S+ -> S- block Q
(C keeps the half-spin split), and x e_j x* = u iff Q = 0.
twisted_conjugation and is_spin_group_element share that test, for
algebras with V's Gram only.

The lift so(L) -> spin(L) is written down, with no solve: m lifts to
sum_{i<j} a_ij (e_i e_j - (e_i, e_j)/2) with A = m G^-1 (so_to_spin).  It
needs G invertible; on a degenerate Gram the lift need not be unique,
and so_to_spin raises ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from .lattices import BilinearLattice, make_V
from .linalg import inverse, mat_mul, rank, sparse_product, transpose
from .multivector import (Multivector, _Blades, _accumulate, _blade_sum,
                          indices_of, popcount)
from .scalars import _over, lowest_terms, rat


def _integral_as_int(terms):
    """The {mask: scalar} terms with every integral rational as an int."""
    return {m: c.numerator if isinstance(c, Fraction) and c.denominator == 1
            else c for m, c in terms.items()}


class CliffordAlgebra:
    """The Clifford algebra C(L) of a bilinear lattice, dimension 2^rank.

    It keeps two memos: _products, the one memo of blade products (e_A e_k
    by the generator step _times_gen, the rest folded from it), and
    _commutators, since x y - y x would run the product loop twice.
    """

    def __init__(self, lattice: BilinearLattice):
        self.lattice = lattice
        self.rank = lattice.rank
        self.gram = lattice.gram
        self._products = [None] * (1 << self.rank)
        self._commutators = [None] * (1 << self.rank)

    # -- basis blade reduction ------------------------------------------

    def _times_gen(self, ma, k):
        """e_A e_k as {mask: coeff}, by the closed form of the module
        docstring: the end term, then the e_{A - j} by increasing j (the
        order of an entry sets the dict order of every product)."""
        g, out = self.gram, {}
        sign = -1 if popcount(ma >> k + 1) & 1 else 1
        if not ma >> k & 1:
            out[ma | 1 << k] = sign
        elif g[k][k]:
            out[ma ^ 1 << k] = sign * g[k][k] / 2
        for j in range(k + 1, ma.bit_length()):
            if ma >> j & 1:
                sign = -sign
                if g[j][k]:
                    out[ma ^ 1 << j] = sign * g[j][k]
        return out

    def _times_gens(self, acc, ks):
        """The terms {mask: coeff} acc times e_k for k in ks, in order, each
        step read from the entries e_A e_k of the product table."""
        for k in ks:
            nxt = {}
            for m, c in acc.items():
                for m2, c2 in self._blade_entry(self._products, m, 1 << k):
                    _accumulate(nxt, m2, c * c2)
            acc = nxt
        return acc

    def _blade_entry(self, rows, ma, mb):
        """The (mask, coeff) pairs of e_A e_B (rows the product table) or
        of e_A e_B - e_B e_A (the commutator table), filled on first use."""
        row = rows[ma]
        if row is None:
            row = rows[ma] = [None] * len(rows)
        if row[mb] is None:
            if rows is not self._products:
                acc = self.blade_product(ma, mb)
                for m, c in self._blade_entry(self._products, mb, ma):
                    _accumulate(acc, m, -c)
            elif popcount(mb) == 1:
                acc = self._times_gen(ma, mb.bit_length() - 1)
            else:
                acc = self._times_gens({ma: 1}, indices_of(mb))
            row[mb] = tuple(_integral_as_int(acc).items())
        return row[mb]

    def blade_product(self, ma, mb):
        """e_A e_B for canonical blades, as {mask: coeff}."""
        return dict(self._blade_entry(self._products, ma, mb))

    def blade_commutator(self, ma, mb):
        """e_A e_B - e_B e_A for canonical blades, as {mask: coeff}, the
        cancelled terms left out."""
        return dict(self._blade_entry(self._commutators, ma, mb))

    def blade_conj(self, mask):
        """Conjugate of a canonical blade: (-1)^r times the reversed product."""
        sign = -1 if popcount(mask) % 2 else 1
        return _integral_as_int(
            self._times_gens({0: sign}, reversed(indices_of(mask))))

    # -- element constructors -------------------------------------------

    def element(self, terms):
        return CliffordElement(self, terms)

    def zero(self):
        return CliffordElement(self, {})

    def one(self):
        return CliffordElement(self, {0: Fraction(1)})

    def scalar(self, c):
        return CliffordElement(self, {0: c})

    def generator(self, i):
        return CliffordElement(self, {1 << i: Fraction(1)})

    def vector(self, coords):
        return CliffordElement(self, {1 << i: c for i, c in enumerate(coords)})

    def basis_masks(self, even_only=False):
        masks = range(1 << self.rank)
        if even_only:
            return [m for m in masks if popcount(m) % 2 == 0]
        return list(masks)


class CliffordElement(_Blades):
    """Finite mapping {generator-subset bitmask: scalar} in a fixed C(L)."""

    __slots__ = ()
    _MIXED = "elements of different Clifford algebras"

    @staticmethod
    def _order(m):
        return popcount(m), m

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(rat(other))
        return _Blades.__add__(self, other)

    __radd__ = __add__

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(rat(other))
        return _blade_sum(self, other, self.algebra._products)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(rat(other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.algebra.scalar(rat(other))
        return _Blades.__eq__(self, other)

    # defining __eq__ drops the inherited hash
    __hash__ = _Blades.__hash__

    def is_even(self):
        return all(popcount(m) % 2 == 0 for m in self._ints)

    def scalar_part(self):
        return self.coefficient(0)

    def vector_part(self):
        """Coordinates of the degree-1 component."""
        return [self.coefficient(1 << i) for i in range(self.algebra.rank)]

    def is_vector(self):
        return all(popcount(m) == 1 for m in self._ints)

    def conj(self):
        """The anti-involution x_1...x_r -> (-1)^r x_r...x_1."""
        alg = self.algebra
        out = {}
        get = out.get
        for mask, c in self._ints.items():
            for m, c2 in alg.blade_conj(mask).items():
                out[m] = get(m, 0) + c * c2
        return CliffordElement._of(alg, *lowest_terms(out, self._d))


def commutator(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """x y - y x, in one pass over the blade commutators."""
    return _blade_sum(x, y, x.algebra._commutators)


@lru_cache(maxsize=1)
def CV() -> CliffordAlgebra:
    """The Clifford algebra of V (rank 8, dimension 256)."""
    return CliffordAlgebra(make_V())


# ---------------------------------------------------------------------------
# the spin module S = exterior algebra of W

@lru_cache(maxsize=1)
def _module_table():
    """table[A][F] = (G, s) with e_A w_F = s w_G (s = +-1), or None when
    e_A w_F = 0, for the 256 blades e_A of C(V) and the 16 basis forms w_F.

    The generators act in closed form, with s = (-1)^#{i in F : i < k}:
    e_k (k < 4) sends w_F to s w_{F + k} when k is not in F (wedging), and
    e_{k+4} sends w_F to s w_{F - k} when k is in F (contracting); every
    other entry is None.  e_A = e_k e_{A - k} with k its lowest index, so
    each further row is a generator row applied to a row built before it.
    """
    gen = []
    for k in range(8):
        bit = 1 << k % 4
        gen.append([None if bool(f & bit) == (k < 4) else
                    (f ^ bit, -1 if (f & bit - 1).bit_count() & 1 else 1)
                    for f in range(16)])
    table = [tuple((f, 1) for f in range(16))]
    for a in range(1, 256):
        low = a & -a
        act = gen[low.bit_length() - 1]
        table.append(tuple(
            None if hit is None or act[hit[0]] is None
            else (act[hit[0]][0], act[hit[0]][1] * hit[1])
            for hit in table[a ^ low]))
    return tuple(table)


def _table_for(algebra):
    """The module table, for an algebra with V's Gram matrix only."""
    if algebra is not CV() and algebra.gram != CV().gram:
        raise ValueError("the spin module needs an element of C(V), with "
                         "V's Gram matrix")
    return _module_table()


def sigma_action(x: CliffordElement, eta: Multivector) -> Multivector:
    """The C(V)-module structure on the exterior algebra of W.

    A blade e_{i_1}...e_{i_r} acts as the composite of the generator
    actions, rightmost factor first; W acts by wedging, W* by contracting.
    Even elements preserve the even/odd split.
    """
    table = _table_for(x.algebra)
    if eta.n != 4:
        raise ValueError("sigma_action acts on the exterior algebra of W")
    b = eta._ints.items()
    out = {}
    for ma, ca in x._ints.items():
        row = table[ma]
        for f, cf in b:
            if row[f] is not None:
                g, s = row[f]
                out[g] = out.get(g, 0) + s * ca * cf
    return Multivector._of(eta.algebra, *lowest_terms(out, x._d * eta._d))


def _sigma_rows(x, table):
    """sigma(x) over the denominator d of its stored form, as (rows, d):
    row G is {F: c}, the nonzero entries at the form masks F."""
    rows = [{} for _ in range(16)]
    for a, c in x._ints.items():
        for f, hit in enumerate(table[a]):
            if hit is not None:
                rows[hit[0]][f] = rows[hit[0]].get(f, 0) + hit[1] * c
    return [{f: c for f, c in row.items() if c} for row in rows], x._d


def is_spin_group_element(x: CliffordElement) -> bool:
    """Whether x passes the spin-group test that twisted_conjugation runs."""
    _table_for(x.algebra)
    try:
        twisted_conjugation(x)
    except ValueError:
        return False
    return True


#: C[F][15 - F], the spin-module form (see the module docstring)
_FORM_SIGN = tuple(-1 if (f & 5).bit_count() & 1 else 1 for f in range(16))
_ODD_FORMS = tuple(f for f in range(16) if f.bit_count() & 1)


def twisted_conjugation(x: CliffordElement):
    """The SO(V) matrix of v -> x v x* for x in the spin group; ValueError
    for x outside it, by the test of the module docstring.  X = sigma(x)
    and X* = C X^T C share the denominator d; the vector u of x e_j x* is
    read off Y = X sigma(e_j) X* at (2^i, 0) (its W part) and at
    (15 - 2^i, 15) (its W* part, signed by e_{i+4} w_15), and the odd rows
    of Y are compared with those of d^2 sigma(u), on sparse integer rows."""
    table = _table_for(x.algebra)
    xs, d = _sigma_rows(x, table)
    xcs = [{} for _ in range(16)]
    for g, row in enumerate(xs):
        for f, c in row.items():
            xcs[15 - f][15 - g] = _FORM_SIGN[f] * _FORM_SIGN[g] * c
    dd = d * d
    if (not x.is_even() or
            sparse_product(xs, xcs) != [{r: dd} for r in range(16)]):
        raise ValueError("element does not satisfy x x* = 1 in C(L)+")
    # the S+ -> S- block of sigma(e_k): (f, g, s) when e_k w_f = s w_g
    hits = [[(f, *hit) for f, hit in enumerate(table[1 << k])
             if hit is not None and hit[0] in _ODD_FORMS] for k in range(8)]
    odd_xs = [xs[g] for g in _ODD_FORMS]
    cols, zero = [], Fraction(0)
    for j in range(8):
        ej_xc = [{} for _ in range(16)]
        for f, g, s in hits[j]:
            ej_xc[g] = {k: s * c for k, c in xcs[f].items()}
        y = dict(zip(_ODD_FORMS, sparse_product(odd_xs, ej_xc)))
        u = ([y[1 << i].get(0, 0) for i in range(4)] +
             [table[1 << i + 4][15][1] * y[15 ^ 1 << i].get(15, 0)
              for i in range(4)])
        v = {g: {} for g in _ODD_FORMS}
        for k, c in enumerate(u):
            for f, g, s in hits[k] if c else ():
                v[g][f] = s * c
        if y != v:
            raise ValueError("conjugation by x does not preserve V")
        cols.append([_over(c, dd) if c else zero for c in u])
    return [[cols[j][i] for j in range(8)] for i in range(8)]


def exp_nilpotent(x: CliffordElement) -> CliffordElement:
    """Finite exponential sum x^k / k! of a nilpotent Clifford element.

    The power chain is capped at 2^rank terms; a chain that fails to
    terminate by then is not nilpotent and raises ValueError.
    """
    acc, power = x.algebra.one(), x
    for k in range(1, (1 << x.algebra.rank) + 1):
        if power.is_zero():
            return acc
        acc = acc + power.scale(Fraction(1, factorial(k)))
        power = power * x
    raise ValueError("power chain did not terminate: element is not nilpotent")


# ---------------------------------------------------------------------------
# the Lie algebra spin(L) and its matrix picture so(L)

def is_spin_lie_element(x: CliffordElement) -> bool:
    """Membership test: even, x + x* = 0 and [x, V] inside V."""
    return _spin_lie_images(x) is not None


def _spin_lie_images(x: CliffordElement):
    """The commutators [x, e_i], or None when x fails is_spin_lie_element."""
    if not x.is_even() or not (x + x.conj()).is_zero():
        return None
    images = [commutator(x, x.algebra.generator(i))
              for i in range(x.algebra.rank)]
    return images if all(image.is_vector() for image in images) else None


def spin_so_iso(x: CliffordElement):
    """Matrix of v -> x v - v x on L; the Lie isomorphism spin(L) -> so(L)."""
    images = _spin_lie_images(x)
    if images is None:
        raise ValueError("element fails the spin Lie algebra membership test")
    return transpose([image.vector_part() for image in images])


def so_to_spin(algebra: CliffordAlgebra, m) -> CliffordElement:
    """Inverse of spin_so_iso: lift a matrix in so(L) into spin(L) in C(L).

    The lift is x = sum_{i<j} a_ij (e_i e_j - (e_i, e_j)/2) with
    A = m G^-1, G the Gram.  As [e_i e_j, v] = (e_j, v) e_i - (e_i, v) e_j,
    the commutator action of x is A G, and m is in so(L) exactly when A is
    antisymmetric; the shifts -(e_i, e_j)/2 make x + x* = 0.  ValueError
    for a degenerate Gram (where the lift need not be unique) and for m
    outside so(L).
    """
    try:
        a = mat_mul(m, inverse(algebra.gram))
    except ValueError as exc:
        raise ValueError(f"the lift needs a nondegenerate Gram: {exc}")
    n, terms, shift = algebra.rank, {}, 0
    if any(a[i][j] != -a[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError("matrix is not in so(L) for the lattice Gram")
    for i, j in combinations(range(n), 2):
        if a[i][j]:
            terms[1 << i | 1 << j] = a[i][j]
            shift -= a[i][j] * algebra.gram[i][j] / 2
    terms[0] = shift
    return CliffordElement(algebra, terms)


# -- the explicit so(8) dictionary for V ------------------------------------

def _unit_difference(p, q):
    """E_p - E_q on V, for distinct index pairs p and q."""
    m = [[Fraction(0)] * 8 for _ in range(8)]
    m[p[0]][p[1]], m[q[0]][q[1]] = Fraction(1), Fraction(-1)
    return m


@lru_cache(maxsize=1)
def spin_v_xyz_table():
    """The 28 spin(V) basis elements and their so(8) matrices.

    Families (n = 4, indices 1-based in the labels):
      X_{i,j} = e_i e_{j+4} - delta_ij/2  ->  E_{i,j} - E_{4+j,4+i}
      Y_{i,j} = e_i e_j (i < j)           ->  E_{i,4+j} - E_{j,4+i}
      Z_{i,j} = e_{i+4} e_{j+4} (i < j)   ->  E_{4+i,j} - E_{4+j,i}
    Returns a tuple of (label, clifford element, expected matrix), built
    once; callers only read it.  For a < b, e_a e_b is the canonical blade
    of mask 2^a + 2^b, so each element is written down, with no product.
    """
    alg = CV()

    def blade(a, b):
        if b == a + 4:
            return CliffordElement._of(alg, {1 << a | 1 << b: 2, 0: -1}, 2)
        return CliffordElement._of(alg, {1 << a | 1 << b: 1}, 1)

    out = []
    for i in range(4):
        for j in range(4):
            out.append((f"X{i + 1}{j + 1}", blade(i, j + 4),
                        _unit_difference((i, j), (4 + j, 4 + i))))
    for i in range(4):
        for j in range(i + 1, 4):
            out.append((f"Y{i + 1}{j + 1}", blade(i, j),
                        _unit_difference((i, 4 + j), (j, 4 + i))))
    for i in range(4):
        for j in range(i + 1, 4):
            out.append((f"Z{i + 1}{j + 1}", blade(i + 4, j + 4),
                        _unit_difference((4 + i, j), (4 + j, i))))
    return tuple(out)


def cartan_elements():
    """H_i = X_ii = e_i e_{i+4} - 1/2 (i = 1..4), the Cartan basis of
    spin(V), read off spin_v_xyz_table."""
    table = {label: x for label, x, _ in spin_v_xyz_table()}
    return [table[f"X{i}{i}"] for i in range(1, 5)]


def random_spin_group_element(rng, span=1):
    """A random element of the spin group of V, exactly.

    Built as a product of exponentials of the two nilpotent degree-2
    families (W-pairs and W*-pairs); sums across the families are not
    nilpotent, so exactness forces the product form.  Each exponent is
    written down: e_a e_b (a < b, one family) is the blade of its mask.
    """
    g = None
    for family in (0, 4, 0):
        terms = {}
        for i, j in combinations(range(family, family + 4), 2):
            c = rng.randint(-span, span)
            if c:
                terms[1 << i | 1 << j] = c
        e = exp_nilpotent(CliffordElement._of(CV(), terms, 1))
        g = e if g is None else g * e
    return g


def spin_v_dimension_check():
    """Rank of the 28 basis elements acting on V; equals n(2n-1) = 28."""
    rows = [[c for row in spin_so_iso(x) for c in row]
            for _, x, _ in spin_v_xyz_table()]
    return rank(rows), len(rows)
