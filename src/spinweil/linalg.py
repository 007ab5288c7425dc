"""Exact dense linear algebra over the scalar tower.

Matrices are lists of row lists whose entries are Fractions, QuadExt or
TowerScalar values (mixed with ints/Fractions via coercion); no floating
point.  Every rref consumer goes in by one entry and out by one of two
read-offs, of the rref rows or of the kernel.  The entry, _rational_form,
takes sparse rows {column: x} (a dense matrix gives them by _rows, zeros
left out but for a zero of K, which still sets the field) and alone
decides their form: rows of ints pass as they are, rational rows become
primitive int rows, and rows over K = Q(sqrt(m)) or Q(i, sqrt(m)), the
field of their first other value, are made rational by restriction of
scalars: each row x becomes the coordinate rows of u x for u in the
Q-basis of K, 1 first, the k = [K : Q] coordinates of column j at
k j + s, scaled to ints from the integer coordinates each element of K
stores (scalars._Multiquadratic).  There is one elimination routine,
fraction-free Gauss-Jordan on integer rows (Bareiss, Math. Comp. 22,
1968): _integer_rref.  A row with one entry is the unit rref row of its
column, so those columns are settled first, by propagation: an index from
each column to the rows that hold it finds the rows a settled column is
dropped from, and a row left with one entry settles its column in turn.
The rows left go in one at a time, in input order (extend_span): each
is scaled to coprime integers, kept sparse, inserted into a fully reduced
basis, and divided only once at the end; a row in the span costs one
clear per pivot it meets, so a tall matrix of low rank is cheap.  The
rref is unique, so the rational rref rows are the coordinate rows of u R
for the K-rref rows R, and R is the rows that pivot on a first
coordinate.  The rows' read-off, _rref_rows, gives each K-or-Q rref row
as its pivot and the value at any column c, built only when asked for:
the integer entry over the pivot entry, or over K the element rebuilt
from the k coordinates of c.  rref reads every column of each row, rank counts
the rows, and solve, solve_matrix and inverse read the b block of one
rref of [a | b], whose pivots also give the rank of a (_solution).  The
kernel read-off, _sparse_kernel, reads the same integer rref rows: one
sparse vector w per free column fc, leading with fc, a multiple of v,
v[fc] = 1 and v[pc] = -R[pc][fc].  Over Q, w is the primitive integer
vector with w[fc] > 0: w[fc] = L and w[pc] = -r[fc] L / r[pc] for the
integer rref rows r that hold fc, L the lcm of their pivot entries, over
the gcd of all its entries; a row without fc is not read.  Over K, w is v,
with the element of K at every pivot, a zero of K included (it sets the
field, as in _rows).  sparse_nullspace is its dense view, w over w[fc]
with the shared Fraction(0) at every other column, so no Fraction is built
for a zero; nullspace is sparse_nullspace of the rows of a.
det is one fraction-free loop (Bareiss) for every scalar, on the first
nonzero pivot of each column (an exact determinant needs no pivot
preference): the rows scaled by _integer_coords (a row with an element of
K passes as it is, its zeros of K kept), the division by the previous
pivot // on a matrix of ints and the field's (_over) otherwise, and the
last pivot over the product of the row scales.  A row with a zero at the
pivot column takes no multiple of the pivot row, so the determinant is an
element of K exactly when a pivot of elimination over the field is one.

mat_mul is one sparse product for every scalar: each row of a and each
column of b goes through the scaling rule of scalars (scale_to_integers:
rationals become ints over the lcm of their denominators, other scalars
pass through with denominator 1), the sparse rows are multiplied and
summed (sparse_product), and each nonzero product entry is divided by its
row and column denominators once at the end (_over); a zero entry is
Fraction(0).  The rule has one owner, scalars; _rational_form (on
rational rows), det and the lattice pairing call it, and the blade
algebras and the scalar tower keep their values in its form, so the
wedge, the Clifford product and commutator and the spin-module rows read
it with no call.  Only an algorithm that is the sole path for its inputs
chooses by type: the form of the rows of an rref (_rational_form), and
the exact division of det (on ints, or in the field).
mat_vec sums each row over the nonzero coordinates of v only: the
symmetric square coordinates of a sparse spinor are mostly zero (6 of 36
for three nonzero coordinates).  A zero v is summed over all its
coordinates, so its zero has the type of the dense sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain, product
from math import gcd, lcm, prod

from .scalars import (_INT, _RATIONAL, _integer_coords, _lowest, _over,
                      scale_to_integers)


def mat(rows):
    return [list(r) for r in rows]


def identity(n):
    one, zero = Fraction(1), Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def sparse_product(a_rows, b_rows):
    """The rows of a b from the sparse rows ({column: x}, zeros left out)
    of a and of b, in the same form: each row is the dict its sums went
    into, copied without its zeros only when a sum cancelled."""
    out = []
    for row in a_rows:
        acc = {}
        get = acc.get
        for t, x in row.items():
            for j, y in b_rows[t].items():
                acc[j] = get(j, 0) + x * y
        out.append(acc if all(acc.values()) else
                   {j: s for j, s in acc.items() if s})
    return out


def mat_mul(a, b):
    """a b from the rows of a and the columns of b as scale_to_integers
    gives them, summed by sparse_product (see the module docstring)."""
    m = len(b[0])
    col_dens = []
    b_rows = [{} for _ in b]
    for j, col in enumerate(zip(*b)):
        ints, d = scale_to_integers(enumerate(col))
        col_dens.append(d)
        for t, y in ints.items():
            b_rows[t][j] = y
    a_scaled = [scale_to_integers(enumerate(row)) for row in a]
    zero = Fraction(0)
    out = []
    for (_, d), acc in zip(a_scaled,
                           sparse_product([r for r, _ in a_scaled], b_rows)):
        full = [zero] * m
        for j, s in acc.items():
            full[j] = _over(s, d * col_dens[j])
        out.append(full)
    return out


def mat_vec(a, v):
    """a v, each row summed over the nonzero coordinates of v (see the
    module docstring)."""
    terms = [(t, x) for t, x in enumerate(v) if x] or list(enumerate(v))
    return [sum([row[t] * x for t, x in terms]) for row in a]


def _primitive(row):
    """The sparse integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {c: x // g for c, x in row.items()}


def _clear(row, pivot, col):
    """row with its col entry cleared by the pivot row, fraction-free:
    (p/g) row - (a/g) pivot with g = gcd(p, a), made primitive."""
    a, p = row[col], pivot[col]
    g = gcd(p, a)
    s, t = p // g, a // g
    out = {c: s * x for c, x in row.items()} if s != 1 else dict(row)
    for c, x in pivot.items():
        y = out.get(c, 0) - t * x
        if y:
            out[c] = y
        else:
            del out[c]
    return _primitive(out) if out else out


def extend_span(basis, row) -> bool:
    """Insert the sparse integer row {column: int}, zeros left out, into
    basis, a fully reduced basis {pivot column: row}; whether row was
    outside its span.

    row is cleared on each pivot column it has; what is left, if anything,
    pivots on its leading column, which is then cleared from the basis.
    Each basis row leads with its pivot, so the basis in column order is
    the rref up to row scales."""
    for col in [c for c in row if c in basis]:
        row = _clear(row, basis[col], col)
    if not row:
        return False
    row = _primitive(row)
    lead = min(row)
    for pc, other in basis.items():
        if lead in other:
            basis[pc] = _clear(other, row, lead)
    basis[lead] = row
    return True


def _integer_rref(rows):
    """Gauss-Jordan on sparse integer rows: [(pivot column, row)] in
    column order, every pivot column cleared from every other row.  A row
    with one entry settles its column (the unit row is its rref row); the
    column is dropped from the rows that hold it, and a row left with one
    entry settles its column in turn; with no one-entry row, no column
    index is built.  The rows left, without the settled columns, go in one
    at a time (extend_span).  The input rows are not changed."""
    pinned = {c for row in rows if len(row) == 1 for c in row}
    rows = [row for row in rows if len(row) > 1]
    # left[i]: the entries of rows[i] on columns not yet dropped from it;
    # when one is left, its column may be settled already and in todo
    left = [len(row) for row in rows]
    if pinned:
        holders = {}
        for i, row in enumerate(rows):
            for c in row:
                holders.setdefault(c, []).append(i)
        todo = list(pinned)
        while todo:
            for i in holders.get(todo.pop(), ()):
                left[i] -= 1
                if left[i] == 1:
                    new = [c for c in rows[i] if c not in pinned]
                    pinned.update(new)
                    todo += new
    basis = {c: {c: 1} for c in pinned}
    for row, n in zip(rows, left):
        if n:
            extend_span(basis, row if n == len(row) else
                        {c: x for c, x in row.items() if c not in pinned})
    return sorted(basis.items())


def _rows(a):
    """The sparse rows {column: x} of the dense rows of a: zeros left out,
    but for a zero of K, which still sets the field."""
    return [{j: x for j, x in enumerate(row) if x or type(x) not in _RATIONAL}
            for row in a]


_ZERO = Fraction(0)


def _read_q(row, p, c):
    """read of _rational_form over Q: row[c] / p, one shared zero for a
    column row has no entry at."""
    return Fraction(row[c], p) if c in row else _ZERO


def _rational_form(rows):
    """(integer rows, k, read) of the sparse rows {column: x}: rows of ints
    as they are, rational rows as primitive int rows (k = 1), and rows over
    K realified (see the module docstring); read(row, p, c) is the value
    at column c, over Q or K, of the rref row that is the integer rref row
    over its pivot entry p."""
    kinds = set(map(type, chain.from_iterable(row.values() for row in rows)))
    if kinds <= _INT:
        return rows, 1, _read_q
    if kinds <= _RATIONAL:
        scaled = (scale_to_integers(row.items())[0] for row in rows)
        return [_primitive(ints) for ints in scaled if ints], 1, _read_q
    x = next(x for row in rows for x in row.values()
             if type(x) not in _RATIONAL)
    kind, m, k = type(x), x.m, len(x._n)
    units = [kind._of(tuple(int(t == s) for t in range(k)), 1, m)
             for s in range(k)]
    out = []
    for row, u in product(rows, units):
        prods = [(k * j, u * x) for j, x in row.items()]
        d = lcm(*[p._d for _, p in prods])
        ints = {c + s: n * (d // p._d) for c, p in prods
                for s, n in enumerate(p._n) if n}
        if ints:
            out.append(_primitive(ints))

    def read(row, p, c):
        return kind._of(*_lowest(tuple(row.get(k * c + s, 0)
                                       for s in range(k)), p), m)
    return out, k, read


def _rref_rows(rows):
    """The read-off: the nonzero rows of the rref over Q or K of the sparse
    rows, as [(pivot, entry)] in pivot order, entry(c) the value of the row
    at column c, read off the integer rref row that pivots on pivot, or
    over K on its first coordinate (see the module docstring)."""
    ints, k, read = _rational_form(rows)
    return [(pc // k, partial(read, row, row[pc]))
            for pc, row in _integer_rref(ints) if pc % k == 0]


def rref(a):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    if not a:
        return [], []
    ncols = len(a[0])
    pivot_rows = _rref_rows(_rows(a))
    rows = [[entry(c) for c in range(ncols)] for _, entry in pivot_rows]
    rows += [[Fraction(0)] * ncols for _ in range(len(a) - len(rows))]
    return rows, [pc for pc, _ in pivot_rows]


def rank(a) -> int:
    """The number of rows _rref_rows reads off."""
    return len(_rref_rows(_rows(a)))


def nullspace(a):
    """Basis of the right kernel {v : a v = 0}, as a list of vectors."""
    return sparse_nullspace(_rows(a), len(a[0])) if a else []


def _sparse_kernel(rows, ncols):
    """The kernel read-off: the right kernel of the matrix with ncols
    columns and the given sparse rows {column: x}, zeros left out, in any
    of the forms _rational_form takes, unscaled, as one sparse vector w
    per free column fc of the rref R, in column order, each leading with
    fc and a multiple of v, v[fc] = 1 and v[pc] = -R[pc][fc] for each
    pivot pc (see the module docstring)."""
    ints, k, read = _rational_form(rows)
    pivots = [(pc // k, r) for pc, r in _integer_rref(ints) if pc % k == 0]
    free = sorted(set(range(ncols)).difference(pc for pc, _ in pivots))
    if k > 1:
        return [{fc: 1, **{pc: read(row, -row[k * pc], fc)
                           for pc, row in pivots}} for fc in free]
    out = []
    for fc in free:
        held = [(pc, row[pc], row[fc]) for pc, row in pivots if fc in row]
        scale = lcm(*[p for _, p, _ in held])
        out.append(_primitive({fc: scale, **{pc: -x * (scale // p)
                                             for pc, p, x in held}}))
    return out


def sparse_nullspace(rows, ncols):
    """nullspace of the matrix with ncols columns and the given sparse rows
    {column: x}: the dense view of _sparse_kernel, each vector over its
    entry at its free column, with the shared Fraction(0) where it has no
    entry."""
    basis = []
    for w in _sparse_kernel(rows, ncols):
        d = next(iter(w.values()))
        v = [_ZERO] * ncols
        for c, x in w.items():
            v[c] = _over(x, d)
        basis.append(v)
    return basis


def solve(a, b):
    """One solution of a x = b, or None if the system is inconsistent."""
    x, _ = _solution(a, [[y] for y in b])
    return None if x is None else [y for y, in x]


def _solution(a, b):
    """(X, rank of a): one solution X of a X = b for matrix right-hand
    sides, None when there is none, from one rref of [a | b].  Its rows
    with a pivot in the a block carry the values of every column of b at
    once; the rows of X at free columns are 0."""
    ncols = len(a[0]) if a else 0
    pivot_rows = _rref_rows(_rows(chain(ra, rb) for ra, rb in zip(a, b)))
    rank = sum(pc < ncols for pc, _ in pivot_rows)
    if rank < len(pivot_rows):
        return None, rank
    x = [[Fraction(0)] * len(b[0]) for _ in range(ncols)]
    for pc, entry in pivot_rows:
        x[pc] = [entry(ncols + j) for j in range(len(b[0]))]
    return x, rank


def solve_matrix(a, b):
    """One solution X of a X = b for matrix right-hand sides, or None."""
    return _solution(a, b)[0]


def inverse(a):
    """a^-1 as the solution of a X = I; ValueError naming the rank when a
    is singular."""
    n = len(a)
    x, r = _solution(a, identity(n))
    if r < n:
        raise ValueError(f"matrix is not invertible: rank {r} of {n}")
    return x


def det(a):
    """Exact determinant by one fraction-free loop (see the module
    docstring)."""
    n = len(a)
    scaled = [_integer_coords(row) for row in a]
    m, scale = [list(xs) for xs, _ in scaled], prod(d for _, d in scaled)
    over_z = _INT.issuperset(map(type, chain.from_iterable(m)))
    sign = prev = 1
    for c in range(n):
        i = next((i for i in range(c, n) if m[i][c]), -1)
        if i < 0:
            return _over(0 * prev, scale)
        if i != c:
            m[c], m[i] = m[i], m[c]
            sign = -sign
        p, pivot = m[c][c], m[c][c + 1:]
        for row in m[c + 1:]:
            x = row[c]
            ys = ([y * p - x * z for y, z in zip(row[c + 1:], pivot)] if x
                  else [y * p for y in row[c + 1:]])
            row[c + 1:] = ([y // prev for y in ys] if over_z
                           else [_over(y, prev) for y in ys])
        prev = p
    return _over(sign * prev, scale)
