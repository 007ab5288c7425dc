"""Dense references for the one-time tables, kept from the loops that built
them before the sparse routes: derivations entry by entry over every row
index, the degree-4 Gram as 4,900 determinants, the basis-action tables
scaled from dense matrices, and the quadratic dictionary as the targets
times the inverse of the column matrix.  Also the Fraction-by-Fraction
kernels that the integer route replaced: the scalar-tower products, the
lattice pairing, the spinor action matrix built by sigma_action, the
commutator over the blade products of both orders, the center of the
even Clifford algebra from left and right multiplication matrices, and
the bilinear covariant as Chevalley products of generators read through
splus_matrix.  And the products that the written-down spin tables
replaced: the generator action on the exterior algebra of W by wedge and
contract, and the 28 spin(V) basis elements as Clifford products.  And
the lift so(L) -> spin(L) as a solve over the images of the basis
e_i e_j - (e_i, e_j)/2 of spin(L), which the closed form replaced.  And
the random-trial check that the Hom_G(V, C+(H)) certificate replaced: the
characteristic polynomials of a random stabilizer element on the even
Clifford algebra and on V, evaluated at integer points.  And route B of
the Cayley class as it ran before the elimination settled one-entry rows
first: the stabilizer's Clifford elements, their coordinates read back by
the membership test, and every stacked row inserted one at a time; and
both routes side by side (cayley_routes), which only tests read, route
B there as it ran before its one integer pass: the public
stabilizer_algebra and invariant_subspace, dense, and _proportionality
(route_b_line, routes_agree).  And
twisted conjugation by the three-sided route, with sigma(x*) built from
conj and every row of each product tested, which the form transpose and
the one-block test replaced; and the helpers that only tests use: the
16 x 16 matrix of sigma, the span test and the rational square test.
And the memoised recursion for e_A e_k that the closed-form generator
step of the product table replaced, with the blade conjugate folded
through it, and the Cartan elements as Clifford products.  And the two
exact kernels that now touch only nonzero data: mat_vec forming every
product, zero coordinates of v included, and the presolve of the integer
rref that rebuilt every row on each round.  And the kernel read off dense
Fraction rref rows, which the read-off from the integer rows replaced;
route B above reads its kernel through it, so it shares no read-off with
reps.  And the arithmetic that the stored integer forms replaced: the
scalar tower on Fraction coordinates (sum, difference, the product over
each factor's common denominator, conjugates, norm and inverse), and the
product loop of the blade algebras and sigma_action with both operands'
Fraction terms scaled on every call.  And three answers that are now read
off the construction: the cell move as a search over a schedule of
exponentials, the non-scalar center generator as a selection among the
kernel vectors, and the accepted period rebuilt from Fraction pairings.
Tests compare the library with them by == and by repr."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import isqrt, lcm

from spinweil import clifford, reps
from spinweil.clifford import (CV, CliffordAlgebra, CliffordElement,
                               _sigma_rows, _table_for, exp_nilpotent,
                               sigma_action, spin_so_iso, spin_v_xyz_table)
from spinweil.kuga import mult_matrix
from spinweil.linalg import (_over, det, extend_span, identity, inverse, mat,
                             mat_mul, mat_vec, nullspace, scale_to_integers,
                             solve, solve_matrix, sparse_product, transpose)
from spinweil.multivector import (DEGREE4_MASKS, Multivector, _Blades,
                                  _accumulate, contract, coords_degree,
                                  from_coords, indices_of, pluecker, popcount,
                                  wedge)
from spinweil.reps import (SYM2_BASIS, invariant_subspace, rep_space,
                           sminus_matrix, spin_coordinates, splus_matrix,
                           stabilizer_algebra)
from spinweil.scalars import QuadExt, TowerScalar, rat
from spinweil.spingeo import ODD_MASKS, Spinor, graph_basis
from spinweil.weil import Period, _sqrt_rational


def derivation_matrix(m, k):
    """Derivation extension of an n x n matrix to the k-th wedge power."""
    n = len(m)
    basis = tuple(combinations(range(n), k))
    index = {t: i for i, t in enumerate(basis)}
    out = [[Fraction(0)] * len(basis) for _ in range(len(basis))]
    for j, tup in enumerate(basis):
        for pos, t in enumerate(tup):
            for r in range(n):
                c = m[r][t]
                if c == 0:
                    continue
                if r == t:
                    out[j][j] += c
                    continue
                if r in tup:
                    continue
                rest = tup[:pos] + tup[pos + 1:]
                moved = sorted(rest + (r,))
                between = sum(1 for x in rest if min(r, t) < x < max(r, t))
                sign = -1 if between % 2 else 1
                out[index[tuple(moved)]][j] += sign * c
    return out


def sym2_derivation_matrix(m):
    """Derivation extension of an 8 x 8 matrix to Sym^2 of the space."""
    index = {t: i for i, t in enumerate(SYM2_BASIS)}
    out = [[Fraction(0)] * 36 for _ in range(36)]
    for j, (a, b) in enumerate(SYM2_BASIS):
        for r in range(8):
            if m[r][a] != 0:
                key = (min(r, b), max(r, b))
                out[index[key]][j] += m[r][a]
            if m[r][b] != 0:
                key = (min(a, r), max(a, r))
                out[index[key]][j] += m[r][b]
    return out


def derive_multivector(m, x):
    """Apply the derivation extension of a matrix on vectors to a form."""
    n = x.n
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
                sign = -1 if popcount((mask ^ (1 << t)) & between_mask) % 2 \
                    else 1
                _accumulate(acc, (mask ^ (1 << t)) | (1 << r),
                            sign * c * coef)
    return Multivector(n, {k: v for k, v in acc.items() if v != 0})


def induced_gram4(gram):
    """Induced pairing on degree 4 by one determinant per pair of basis
    forms."""
    entries = {}
    for ma in DEGREE4_MASKS:
        ia = indices_of(ma)
        for mb in DEGREE4_MASKS:
            ib = indices_of(mb)
            sub = [[gram[a][b] for b in ib] for a in ia]
            d = det(sub)
            if d != 0:
                entries[(ma, mb)] = d
    return entries


def basis_actions(name):
    """The dense matrices of the 28 X_a on a space."""
    if name == "V":
        return [m for _, _, m in spin_v_xyz_table()]
    if name in ("S+", "S-"):
        block = splus_matrix if name == "S+" else sminus_matrix
        return [block(x) for _, x, _ in spin_v_xyz_table()]
    base = basis_actions("V" if name.endswith("V") else "S+")
    if name == "Sym2S+":
        return [sym2_derivation_matrix(m) for m in base]
    return [derivation_matrix(m, int(name[5])) for m in base]


def action_table(name):
    """(table, d) as reps._action_table, from every entry of the dense
    matrices scaled to integers at once."""
    dim = rep_space(name).dim
    ints, d = scale_to_integers(
        ((a, dim * i + j), v) for a, m in enumerate(basis_actions(name))
        for i, row in enumerate(m) for j, v in enumerate(row))
    table = [{} for _ in range(28)]
    for (a, k), v in ints.items():
        table[a][k] = v
    return table, d


def sym2_invariant_line():
    """The spin(V)-invariant line of Sym^2 S+, as verify's
    symmetric-square-split check computes it: the invariants of all 28
    basis elements, one vector."""
    line, = invariant_subspace(identity(28), "Sym2S+")
    return line


def phi_matrix():
    """The quadratic dictionary as T C^-1 over the library's samples."""
    samples = reps.quadric_square_span()
    cols = [u for _, u in samples] + [sym2_invariant_line()]
    targets = [coords_degree(pluecker(graph_basis(b)), DEGREE4_MASKS)
               for b, _ in samples]
    targets.append([Fraction(0)] * 70)
    colmat = [[cols[c][r] for c in range(36)] for r in range(36)]
    tarmat = [[targets[c][r] for c in range(36)] for r in range(70)]
    return mat_mul(tarmat, inverse(colmat))


def sigma_matrix(x):
    """The 16 x 16 matrix of sigma(x) on the basis forms of the exterior
    algebra of W; row and column F stand for the form of mask F."""
    rows, d = _sigma_rows(x, _table_for(x.algebra))
    zero = Fraction(0)
    return [[_over(row[f], d) if f in row else zero for f in range(16)]
            for row in rows]


def twisted_conjugation(x):
    """The SO(V) matrix of v -> x v x* by the three-sided route: sigma(x)
    and sigma(x*), with x* from conj, over their denominators d and d*,
    x x* = 1 tested on all 16 rows of X X*, and x e_j x* on all 16 rows of
    X sigma(e_j) X*, its W* part read at (0, 2^i)."""
    table = _table_for(x.algebra)
    xs, d = _sigma_rows(x, table)
    xcs, dc = _sigma_rows(x.conj(), table)
    dd = d * dc
    if (not x.is_even() or
            sparse_product(xs, xcs) != [{r: dd} for r in range(16)]):
        raise ValueError("element does not satisfy x x* = 1 in C(L)+")
    cols = []
    for j in range(8):
        ej_xc = [{} for _ in range(16)]
        for f, hit in enumerate(table[1 << j]):
            if hit is not None:
                ej_xc[hit[0]] = {k: hit[1] * c for k, c in xcs[f].items()}
        y = sparse_product(xs, ej_xc)
        u = ([y[1 << i].get(0, 0) for i in range(4)] +
             [y[0].get(1 << i, 0) for i in range(4)])
        if y != _sigma_rows(x.algebra.vector(u), table)[0]:
            raise ValueError("conjugation by x does not preserve V")
        cols.append([_over(c, dd) for c in u])
    return [[cols[j][i] for j in range(8)] for i in range(8)]


def gen_action(k, eta):
    """e_k eta for a generator of C(V) on a form eta of the exterior algebra
    of W: generators of W act by left wedge, generators of W* by
    contraction."""
    if k < 4:
        return wedge(Multivector(4, {1 << k: 1}), eta)
    unit = [0] * 4
    unit[k - 4] = 1
    return contract(unit, eta)


def xyz_products():
    """(label, element) for the 28 spin(V) basis elements of
    spin_v_xyz_table, each as a Clifford product of two generators."""
    alg, e = CV(), CV().generator
    out = []
    for i in range(4):
        for j in range(4):
            x = e(i) * e(j + 4)
            if i == j:
                x = x - alg.scalar(Fraction(1, 2))
            out.append((f"X{i + 1}{j + 1}", x))
    out += [(f"Y{i + 1}{j + 1}", e(i) * e(j))
            for i, j in combinations(range(4), 2)]
    out += [(f"Z{i + 1}{j + 1}", e(i + 4) * e(j + 4))
            for i, j in combinations(range(4), 2)]
    return out


def cartan_products():
    """H_i = e_i e_{i+4} - 1/2 (i = 0..3), as Clifford products."""
    alg, e = CV(), CV().generator
    return [e(i) * e(i + 4) - alg.scalar(Fraction(1, 2)) for i in range(4)]


def _integral_as_int(terms):
    return {m: c.numerator if isinstance(c, Fraction) and c.denominator == 1
            else c for m, c in terms.items()}


@lru_cache(maxsize=None)
def blade_times_gen(algebra, mask, k):
    """e_mask e_k reduced to the canonical basis, as {mask: coeff}, by
    e_rest e_j e_k = -(e_rest e_k) e_j + (e_j, e_k) e_rest for the top
    index j of mask, memoised per (algebra, mask, k)."""
    if mask == 0:
        out = {1 << k: 1}
    else:
        j = mask.bit_length() - 1
        if j < k:
            out = {mask | (1 << k): 1}
        elif j == k:
            c = algebra.gram[k][k] / 2
            out = {mask ^ (1 << k): c} if c != 0 else {}
        else:
            out = {}
            for m2, c in blade_times_gen(algebra, mask ^ (1 << j), k).items():
                out[m2 | (1 << j)] = out.get(m2 | (1 << j), 0) - c
            g = algebra.gram[j][k]
            if g != 0:
                _accumulate(out, mask ^ (1 << j), g)
    return _integral_as_int(out)


def blade_conj(algebra, mask):
    """(-1)^r times the reversed product of the generators of a blade,
    folded through blade_times_gen."""
    acc = {0: 1}
    for k in reversed(indices_of(mask)):
        nxt = {}
        for m, c in acc.items():
            for m2, c2 in blade_times_gen(algebra, m, k).items():
                _accumulate(nxt, m2, c * c2)
        acc = nxt
    if popcount(mask) % 2:
        acc = {m: -c for m, c in acc.items()}
    return _integral_as_int(acc)


def chevalley_product(indices):
    """Chevalley's antisymmetrized product of the generators e_j of C(V),
    j in the order given (Chevalley, The Algebraic Theory of Spinors, 1954).
    V's Gram pairs e_j only with its dual e_{j+4 mod 8}: a dual pair is
    moved together past the anticommuting generators between them, and
    taken as e_j e_{j+4 mod 8} - 1/2."""
    alg, x, rest = CV(), CV().one(), list(indices)
    while rest:
        j = rest.pop(0)
        e = alg.generator(j)
        if (j + 4) % 8 in rest:
            k = rest.index((j + 4) % 8)
            e = (e * alg.generator(rest.pop(k)) -
                 alg.scalar(Fraction(1, 2))).scale(Fraction((-1) ** k))
        x = x * e
    return x


def chevalley_phi_matrix():
    """The bilinear covariant by 70 Clifford products: phi[I][(a, b)] =
    (z_a, e^_{I*} z_b), read off splus_matrix of the product."""
    rows = []
    for mask in DEGREE4_MASKS:
        m = splus_matrix(chevalley_product([(i + 4) % 8
                                            for i in indices_of(mask)]))
        rows.append([m[(a + 4) % 8][b] for a, b in SYM2_BASIS])
    return rows


def is_square(q):
    """Whether the rational q is a square in Q."""
    q = rat(q)
    n, d = q.numerator, q.denominator
    return q >= 0 and isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def in_span(vectors, v):
    """Whether v lies in the span of the given vectors."""
    if not vectors:
        return all(x == 0 for x in v)
    return solve(transpose(mat(vectors)), list(v)) is not None


def quad_product(x, y):
    """x y in Q(sqrt(m)) by Fraction products of the coordinates."""
    return QuadExt(x.a * y.a + x.m * x.b * y.b, x.a * y.b + x.b * y.a, x.m)


def tower_product(x, y):
    """x y in Q(i, sqrt(m)) by sixteen Fraction products."""
    a0, a1, a2, a3 = x.c
    b0, b1, b2, b3 = y.c
    m = x.m
    return TowerScalar(a0 * b0 - a1 * b1 + m * (a2 * b2 - a3 * b3),
                       a0 * b1 + a1 * b0 + m * (a2 * b3 + a3 * b2),
                       a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
                       a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1, m=m)


# -- the scalar tower and the blade algebras on Fraction coordinates, as
# they ran before each value kept its integer form

def _integer_coords(xs):
    """The Fractions xs as ints over the lcm of their denominators."""
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _field_element(like, coords):
    """The element of the field of like with the given coordinates."""
    if isinstance(like, QuadExt):
        return QuadExt(*coords, like.m)
    return TowerScalar(*coords, m=like.m)


def field_product(x, y):
    """x y in Q(sqrt(m)) or Q(i, sqrt(m)): each factor's coordinates over
    their common denominator, one Fraction per coordinate."""
    a, d = _integer_coords(x.c)
    b, e = _integer_coords(y.c)
    m, n = x.m, d * e
    if isinstance(x, QuadExt):
        return _field_element(x, (Fraction(a[0] * b[0] + m * a[1] * b[1], n),
                                  Fraction(a[0] * b[1] + a[1] * b[0], n)))
    (a0, a1, a2, a3), (b0, b1, b2, b3) = a, b
    return _field_element(x, (
        Fraction(a0 * b0 - a1 * b1 + m * (a2 * b2 - a3 * b3), n),
        Fraction(a0 * b1 + a1 * b0 + m * (a2 * b3 + a3 * b2), n),
        Fraction(a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1, n),
        Fraction(a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1, n)))


def field_conjugates(x):
    """(conj,) in Q(sqrt(m)), (conj_i, conj_m) in Q(i, sqrt(m)), each
    negating coordinates."""
    if isinstance(x, QuadExt):
        return (_field_element(x, (x.c[0], -x.c[1])),)
    c0, c1, c2, c3 = x.c
    return (_field_element(x, (c0, -c1, c2, -c3)),
            _field_element(x, (c0, c1, -c2, -c3)))


def field_inverse(x):
    """1 / x: over Q(sqrt(m)) conj(x) / norm(x); over Q(i, sqrt(m)) with
    t = x conj_i(x) and n = t conj_m(t) rational, conj_i(x) conj_m(t) / n."""
    if isinstance(x, QuadExt):
        a, b = x.c
        n = a * a - x.m * b * b
        return _field_element(x, (a / n, -b / n))
    t = field_product(x, field_conjugates(x)[0])
    n = field_product(t, field_conjugates(t)[1]).c[0]
    num = field_product(field_conjugates(x)[0], field_conjugates(t)[1])
    return _field_element(x, tuple(c / n for c in num.c))


def field_results(x, y):
    """{operation: result} for two elements of one field: sum,
    difference, product, conjugates, for a nonzero y quotient and inverse,
    and, over Q(sqrt(m)), the norm."""
    out = {"+": _field_element(x, [a + b for a, b in zip(x.c, y.c)]),
           "-": _field_element(x, [a - b for a, b in zip(x.c, y.c)]),
           "*": field_product(x, y),
           "conj": field_conjugates(x)}
    if any(y.c):
        out["/"] = field_product(x, field_inverse(y))
        out["inverse"] = field_inverse(y)
    if isinstance(x, QuadExt):
        out["norm"] = x.c[0] * x.c[0] - x.m * x.c[1] * x.c[1]
    return out


def _scaled_terms(a, b):
    """The terms a and b, each scaled by scale_to_integers, and the product
    of their two denominators."""
    a, da = scale_to_integers(a.items())
    b, db = scale_to_integers(b.items())
    return a, b, da * db


def _element(like, terms):
    """The element of the algebra of like with the given terms."""
    x = object.__new__(type(like))
    _Blades.__init__(x, like.algebra, terms)
    return x


def blade_sum(x, y, rows):
    """The sum of c_A c_B rows[A][B] over the terms of x and y (rows a
    blade table of their algebra), both terms scaled on every call and
    the result made one Fraction per term."""
    x._check(y)
    a, b, d = _scaled_terms(x.terms, y.terms)
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            cc = ca * cb
            for m, c in x.algebra._blade_entry(rows, ma, mb):
                out[m] = out.get(m, 0) + cc * c
    return _element(x, {m: _over(c, d) for m, c in out.items() if c})


def sigma_action_on_fractions(x, eta):
    """sigma(x) eta read off the module table, both terms scaled on every
    call and the result made one Fraction per form."""
    table = _table_for(x.algebra)
    a, b, d = _scaled_terms(x.terms, eta.terms)
    out = {}
    for ma, ca in a.items():
        for f, cf in b.items():
            if table[ma][f] is not None:
                g, s = table[ma][f]
                out[g] = out.get(g, 0) + s * ca * cf
    return Multivector(4, {g: _over(c, d) for g, c in out.items()})


def pair(lattice, v, w):
    """The dense double loop v^T G w over the Gram matrix, summed from
    int 0 over the nonzero terms."""
    g, n = lattice.gram, lattice.rank
    total = 0
    for i in range(n):
        if v[i] == 0:
            continue
        for j in range(n):
            if g[i][j] != 0 and w[j] != 0:
                total = total + v[i] * g[i][j] * w[j]
    return total


def spinor_action_matrix(s):
    """A_s with column k the form sigma_action(e_k, s) on the odd masks."""
    eta, alg = s.multivector(), CV()
    cols = [sigma_action(alg.generator(k), eta) for k in range(8)]
    return [[col.coefficient(m) for col in cols] for m in ODD_MASKS]


def commutator(x, y):
    """x y - y x in one pass over the blade products of both orders."""
    alg = x.algebra
    a, b, d = _scaled_terms(x.terms, y.terms)
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            cc = ca * cb
            for m, c in alg.blade_product(ma, mb).items():
                out[m] = out.get(m, 0) + cc * c
            for m, c in alg.blade_product(mb, ma).items():
                out[m] = out.get(m, 0) - cc * c
    return _element(x, {m: _over(c, d) for m, c in out.items() if c})


def ks_center_basis(lattice):
    """The center of the even Clifford algebra as the kernel of the dense
    stacked L_g - R_g over g = e_i e_j, from the left and right
    multiplication matrices."""
    algebra = CliffordAlgebra(lattice)
    masks = algebra.even_masks()
    rows = []
    for i, j in combinations(range(lattice.rank), 2):
        g = algebra.generator(i) * algebra.generator(j)
        left = mult_matrix(algebra, g, masks)
        right = mult_matrix(algebra, g, masks, right=True)
        rows += [[x - y for x, y in zip(lr, rr)]
                 for lr, rr in zip(left, right)]
    return nullspace(rows)


def center_generator(basis, masks):
    """The non-scalar generator of a 2-dimensional center as ks_center
    selected it from its kernel basis (u, v): a vector with no mask-0
    coordinate, else the combination of the two that has none."""
    idx0 = masks.index(0)
    u, v = basis
    if u[idx0] == 0:
        return u
    if v[idx0] == 0:
        return v
    return [a * v[idx0] - b * u[idx0] for a, b in zip(u, v)]


def spin_basis(algebra):
    """Basis e_i e_j - (e_i, e_j)/2 (i < j) of spin(L), n(n-1)/2 elements."""
    out = []
    for i, j in combinations(range(algebra.rank), 2):
        x = algebra.generator(i) * algebra.generator(j)
        g = algebra.gram[i][j]
        if g != 0:
            x = x - algebra.scalar(g / 2)
        out.append(x)
    return out


def so_to_spin(algebra, m):
    """The lift of m into spin(L): the coefficients on spin_basis solved
    from the n^2 entries of m against the spin_so_iso images."""
    basis = spin_basis(algebra)
    n = algebra.rank
    cols = []
    for b in basis:
        mb = spin_so_iso(b)
        cols.append([mb[i][j] for i in range(n) for j in range(n)])
    rhs = [m[i][j] for i in range(n) for j in range(n)]
    coeffs = solve(mat([[cols[c][r] for c in range(len(cols))]
                        for r in range(n * n)]), rhs)
    if coeffs is None:
        raise ValueError("matrix is outside the image of spin(L)")
    out = algebra.zero()
    for c, b in zip(coeffs, basis):
        if c != 0:
            out = out + b.scale(c)
    return out


def charpoly_values(matrix, points):
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


def stabilizer_elements(fixed):
    """The Clifford elements sum c_a X_a of the stabilizer's coefficient
    vectors, for the references that act by elements."""
    return [CV().element(reps._xyz_terms(c))
            for c in stabilizer_algebra(fixed)]


def spin_rep_trial(datum, h, s, rng):
    """(L(xi), M(xi)) for a random xi in the stabilizer of h and s, with
    coefficients in [-2, 2] on its basis: left multiplication on the even
    algebra of the KSDatum by the lift (so_to_spin above) of xi's action on
    the complement, and the commutator action on V."""
    stab = stabilizer_elements([h, s])
    terms = [e.scale(Fraction(c)) for e in stab if (c := rng.randint(-2, 2))]
    xi = sum(terms[1:], terms[0]) if terms else stab[0]
    cols = transpose(datum.basis)
    y = solve_matrix(cols, mat_mul(splus_matrix(xi), cols))
    return (mult_matrix(datum.algebra, so_to_spin(datum.algebra, y),
                        datum.even_masks), spin_so_iso(xi))


def cayley_route_b(z):
    """The kernel on the degree-4 forms of the stabilizer of the spinor z:
    the stacked rows of its Clifford elements' actions, each element's
    coordinates read back by spin_coordinates, inserted one at a time by
    extend_span with no presolve, and the kernel read off."""
    stab = stabilizer_elements([Spinor(z)])
    basis = {}
    coeffs = [scale_to_integers(enumerate(spin_coordinates(x)))[0]
              for x in stab]
    for row in reps._action_rows(coeffs, "Wedge4V"):
        extend_span(basis, row)
    pivots = sorted(basis)
    rows = [[Fraction(basis[pc].get(j, 0), basis[pc][pc]) for j in range(70)]
            for pc in pivots]
    return dense_kernel(rows, pivots, 70)


def dense_kernel(r, pivots, ncols):
    """The kernel basis read off the dense nonzero rref rows r and their
    pivots: one vector per free column fc, v[fc] = 1 and v[pc] = -r[i][fc]
    for the row i pivoting on pc."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def route_b_line(s):
    """Route B of cayley_class as it ran before its one integer pass: the
    stabilizer's dense coefficient vectors (stabilizer_algebra), and the
    invariant line of their actions on the degree-4 forms
    (invariant_subspace), with the same dimension errors."""
    coeffs = stabilizer_algebra([s])
    if len(coeffs) != 21:
        raise RuntimeError("stabilizer of a non-isotropic spinor must have "
                           f"dimension 21, found {len(coeffs)}")
    inv = invariant_subspace(coeffs, "Wedge4V")
    if len(inv) != 1:
        raise RuntimeError("stabilizer invariants in degree 4 not a line: "
                           f"dimension {len(inv)}")
    return inv[0]


def routes_agree(a, b):
    """The verdict of the cross-check of the dense vectors a (route A) and
    b (route B): a = c b for a nonzero c (_proportionality), so a zero on
    either side disagrees."""
    return reps._proportionality(a, b) not in (None, 0)


def dense_line(w, n):
    """The sparse kernel vector w (linalg._sparse_kernel) as the dense
    vector of length n that sparse_nullspace gives: w over its value at
    its free column, its first key, and Fraction(0) where it has no
    entry."""
    d = next(iter(w.values()))
    v = [Fraction(0)] * n
    for c, x in w.items():
        v[c] = Fraction(x, d) if isinstance(x, int) else x / d
    return v


def cayley_routes(s):
    """Both routes and the proportionality factor (A = factor * B), route B
    by route_b_line."""
    s = Spinor(s)
    a = mat_vec(reps.phi_matrix(), reps.sym2_coords(s.z))
    b = route_b_line(s)
    lam = reps._proportionality(a, b)
    return (from_coords(8, DEGREE4_MASKS, a), from_coords(8, DEGREE4_MASKS, b),
            lam)


def dense_mat_vec(a, v):
    """a v with every product formed, zero coordinates of v included."""
    return [sum(row[t] * v[t] for t in range(len(v))) for row in a]


def round_presolve(rows):
    """(the settled columns, the rows left without them): each round
    settles the columns of the one-entry rows and drops them from every
    row, until no row has one entry left."""
    pinned, new = set(), {c for row in rows if len(row) == 1 for c in row}
    while new:
        pinned |= new
        rows = [r for r in ({c: x for c, x in row.items() if c not in new}
                            for row in rows) if r]
        new = {c for row in rows if len(row) == 1 for c in row}
    return pinned, rows


def round_presolve_rref(rows):
    """The integer rref by round_presolve, then the rows left one at a
    time (extend_span)."""
    pinned, rows = round_presolve(rows)
    basis = {c: {c: 1} for c in pinned}
    for row in rows:
        extend_span(basis, row)
    return sorted(basis.items())


def signature(lattice):
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


def zfamily_exponent_candidates():
    """The schedule of cell-move exponents {(i, j): c}: the identity, each
    pair with c = 1 then -1, then every pattern over (0, 1, -1) with at
    least two nonzero pairs, in product order."""
    pairs = list(combinations(range(4), 2))
    yield {}
    for p in pairs:
        for c in (1, -1):
            yield {p: c}
    for pattern in product((0, 1, -1), repeat=6):
        if sum(1 for c in pattern if c) >= 2:
            yield {p: c for p, c in zip(pairs, pattern) if c}


def move_to_cell(s):
    """(g, matrix of g on V, g s) for the first exponential
    g = exp(sum c e_{i+4} e_{j+4}) of the schedule with (g s)_1 != 0."""
    for coeffs in zfamily_exponent_candidates():
        g = exp_nilpotent(CliffordElement._of(CV(), {
            16 << i | 16 << j: c for (i, j), c in coeffs.items()}, 1))
        moved = Spinor.from_multivector(sigma_action(g, s.multivector()))
        if moved.z[0] != 0:
            return g, clifford.twisted_conjugation(g), moved
    raise RuntimeError("cell-move schedule exhausted")


def period_of_pair(lattice, u, w):
    """The Period (u, q), q the projection of w off u scaled to u's
    length, from Fraction pairings."""
    a = lattice.pair(u, u)
    t = lattice.pair(u, w)
    proj = [wi - (t / a) * ui for wi, ui in zip(w, u)]
    c = lattice.pair(proj, proj)
    scale = _sqrt_rational(a * c) / c
    return Period(tuple(u), tuple(scale * x for x in proj))
