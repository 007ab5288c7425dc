"""The integer kernels of linalg against textbook references.

linalg has one elimination routine: fraction-free Gauss-Jordan on integer
rows, one row at a time, which a matrix over a quadratic field or the
tower reaches by restriction of scalars.  The references kept here are
textbook Gauss-Jordan with field division, for any scalar type, and the
earlier column-by-column scan on the same integer rows.  The rref of a matrix is
unique, so on rational matrices both routes must give the same rref,
pivots, rank, kernel, solutions and inverse, down to the repr of every
entry, and on field matrices they must be equal.  A product of rational
matrices is summed on ints and must equal the textbook loop over
Fractions, again down to the repr; a product over a field takes the same
sparse path and must equal the textbook loop, each nonzero entry of the
type its nonzero terms give.  The determinant is one fraction-free loop
(Bareiss) for every scalar and must equal Gaussian elimination over the
field, down to the repr: an element of K exactly when a pivot of that
elimination is one.
"""

import copy
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinweil import linalg, reps, scalars
from spinweil.linalg import (det, inverse, mat_mul, mat_vec, nullspace, rank,
                             rref, solve, solve_matrix, sparse_nullspace,
                             transpose)
from spinweil.scalars import QuadExt, TowerScalar
from spinweil.spingeo import STANDARD_H, STANDARD_S, Spinor
from spinweil.weil import make_weil_datum

import table_references as reference

#: the 181 Fractions p/q with q <= 7 in [-5, 5]
FRACTIONS = sorted({Fraction(p, q) for q in range(1, 8)
                    for p in range(-5 * q, 5 * q + 1)})

#: 0, an int in -6..6 or one of FRACTIONS, each drawn from a fixed pool
ENTRIES = st.one_of(
    st.just(0),
    st.sampled_from(range(-6, 7)),
    st.sampled_from(FRACTIONS),
)


@st.composite
def matrices(draw, rows=st.integers(0, 7), cols=st.integers(1, 7)):
    """Mixed int/Fraction matrices, wide or tall, with zero rows and rows
    that are combinations of others (so often rank-deficient)."""
    ncols = draw(cols)
    m = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(draw(rows))]
    for _ in range(draw(st.integers(0, 3))):
        if m and draw(st.booleans()):
            i = draw(st.integers(0, len(m) - 1))
            j = draw(st.integers(0, len(m) - 1))
            k = draw(ENTRIES)
            m.append([x + k * y for x, y in zip(m[i], m[j])])
        else:
            m.append([0] * ncols)
    return draw(st.permutations(m))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    return draw(matrices(rows=st.just(n), cols=st.just(n)))[:n]


def _pick_pivot(rows, col, start):
    """Row index of a pivot in the column, preferring large rationals."""
    best, best_abs = -1, None
    for i in range(start, len(rows)):
        x = rows[i][col]
        if x == 0:
            continue
        try:
            ax = abs(x)
        except TypeError:
            return i
        if best_abs is None or ax > best_abs:
            best, best_abs = i, ax
    return best


def field_rref(a):
    """rref by textbook Gauss-Jordan with field division, for any scalar
    type."""
    m = [list(r) for r in a]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        i = _pick_pivot(m, c, r)
        if i < 0:
            continue
        m[r], m[i] = m[i], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for j in range(nrows):
            if j != r and m[j][c] != 0:
                f = m[j][c]
                m[j] = [x - f * y for x, y in zip(m[j], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def field_pivot_rows(a):
    """The nonzero rows of the reference rref and their pivot columns."""
    m, pivots = field_rref(a)
    return m[:len(pivots)], pivots


def field_rref_rows(rows):
    """The read-off of linalg._rref_rows, [(pivot, entry)], from the
    reference rref of the sparse rows made dense: entry(c) is 0 past the
    last column any row holds."""
    width = 1 + max((c for row in rows for c in row), default=-1)
    m, pivots = field_pivot_rows([[row.get(j, 0) for j in range(width)]
                                  for row in rows])
    return [(pc, lambda c, r=r: r[c] if c < width else Fraction(0))
            for r, pc in zip(m, pivots)]


@contextmanager
def field_path():
    """Route every elimination through the textbook reference: rref,
    solve, solve_matrix and inverse read field_rref's rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_rref_rows", field_rref_rows)
        yield


def field_nullspace(a):
    """The kernel read off the dense rows of the reference rref."""
    if not a:
        return []
    return reference.dense_kernel(*field_pivot_rows(a), len(a[0]))


def field_rank(a):
    return len(field_pivot_rows(a)[1])


#: the field path of the functions whose read-off field_path alone would
#: share: the kernel read off the dense reference rows, and their count
FIELD_ROUTES = {nullspace: field_nullspace, rank: field_rank}


def both(fn, *args):
    """fn on the integer path and on the field path; a ValueError is a
    result too."""
    out = []
    for ctx, f in ((nullcontext(), fn),
                   (field_path(), FIELD_ROUTES.get(fn, fn))):
        with ctx:
            try:
                out.append(f(*args))
            except ValueError as exc:
                out.append(("ValueError", str(exc)))
    return out


def test_field_path_sends_each_rref_consumer_through_field_rref(
        monkeypatch):
    calls, real = [], field_rref
    monkeypatch.setitem(globals(), "field_rref",
                        lambda a: calls.append(a) or real(a))
    a = [[1, 2], [3, 4]]
    for fn, args in ((rref, (a,)), (solve, (a, [1, 0])),
                     (solve_matrix, (a, [[1], [0]])), (inverse, (a,))):
        calls.clear()
        with field_path():
            fn(*args)
        assert calls, fn.__name__
        calls.clear()
        fn(*args)
        assert not calls, fn.__name__


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_and_pivots_match_field_path(a):
    assert linalg._rational_form(linalg._rows(a))[1] == 1
    (r_int, p_int), (r_field, p_field) = both(rref, a)
    assert p_int == p_field
    assert r_int == r_field
    assert len(r_int) == len(a)
    k = len(p_int)
    assert repr(r_int[:k]) == repr(r_field[:k])


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_and_nullspace_match_field_path(a):
    r_int, r_field = both(rank, a)
    assert r_int == r_field
    n_int, n_field = both(nullspace, a)
    assert repr(n_int) == repr(n_field)
    if a:
        assert r_int + len(n_int) == len(a[0])
        for v in n_int:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)


@settings(max_examples=200, deadline=None)
@given(matrices(rows=st.integers(1, 7)), st.data())
def test_solve_matches_field_path(a, data):
    b = [data.draw(ENTRIES) for _ in a]
    x_int, x_field = both(solve, a, b)
    assert repr(x_int) == repr(x_field)
    if x_int is not None:
        assert [sum(p * q for p, q in zip(row, x_int)) for row in a] == b


@settings(max_examples=100, deadline=None)
@given(matrices(rows=st.integers(1, 7)))
def test_solve_reports_inconsistent_system(a):
    a = a + [[0] * len(a[0])]
    b = [0] * (len(a) - 1) + [1]
    assert both(solve, a, b) == [None, None]


@settings(max_examples=200, deadline=None)
@given(matrices(rows=st.integers(1, 7)), st.integers(1, 3), st.data())
def test_solve_matrix_matches_solve_per_column(a, k, data):
    b = [[data.draw(ENTRIES) for _ in range(k)] for _ in a]
    with field_path():
        cols = [solve(a, [row[j] for row in b]) for j in range(k)]
    expected = None if None in cols else transpose(cols)
    got_int, got_field = both(solve_matrix, a, b)
    assert repr(got_int) == repr(expected)
    assert repr(got_field) == repr(expected)


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_inverse_matches_field_path_singular_included(a):
    inv_int, inv_field = both(inverse, a)
    assert repr(inv_int) == repr(inv_field)
    if isinstance(inv_int, list):
        assert mat_mul(a, inv_int) == [[int(i == j) for j in range(len(a))]
                                       for i in range(len(a))]


def test_empty_matrix():
    assert rref([]) == ([], [])
    assert rank([]) == 0
    assert nullspace([]) == []
    assert rref([[]]) == ([[]], [])
    assert rank([[], []]) == 0


def test_integer_rows_are_primitive_and_sparse():
    # rational rows become primitive int rows, empty ones left out
    rows = linalg._rows([[Fraction(1, 2), 0, Fraction(-3, 4)], [0, 0, 0],
                         [6, 4, 0]])
    assert linalg._rational_form(rows)[:2] == (
        [{0: 2, 2: -3}, {0: 3, 1: 2}], 1)


def test_rational_form_passes_ints_and_realifies_field_rows():
    # rows of ints pass as they are
    ints = [{0: 6, 1: 4}, {}]
    assert linalg._rational_form(ints)[0] is ints
    # over Q(sqrt 2), row x gives the rows of x and sqrt(2) x, the two
    # coordinates of column j at 2 j and 2 j + 1, on ints
    r = QuadExt(0, 1, m=2)
    rows, k, read = linalg._rational_form(
        [{0: 1 + r, 1: Fraction(1, 2)}, {1: QuadExt(0, 0, m=2)}])
    assert (rows, k) == ([{0: 2, 1: 2, 2: 1}, {0: 4, 1: 2, 3: 1}], 2)
    # the value at column 0 of the K-row whose realified row is 1, 2 at
    # columns 0, 1 over the pivot entry -4
    x = read({0: 1, 1: 2}, -4, 0)
    assert type(x) is QuadExt and repr(x) == repr(QuadExt(
        Fraction(-1, 4), Fraction(-1, 2), m=2))


def test_a_zero_of_a_field_sets_the_field():
    # the only field entry is a zero: the matrix is still over Q(sqrt 2),
    # so the values read off its rref rows are of the field type, whose
    # repr has no "Fraction"; with a rational zero they are Fractions
    field = [[1, 0], [QuadExt(0, 0, m=2), 0]]
    rows, _ = rref(field)
    assert repr(rref(field)) == \
        "([[1, 0], [Fraction(0, 1), Fraction(0, 1)]], [0])"
    assert repr(nullspace(field)) == "[[0, Fraction(1, 1)]]"
    assert repr(solve_matrix(field, [[1], [0]])) == "[[1], [Fraction(0, 1)]]"
    assert {type(x) for x in rows[0] + [nullspace(field)[0][0],
                                        solve_matrix(field, [[1], [0]])[0][0]]
            } == {QuadExt}
    assert repr(rref([[1, 0], [0, 0]])[0][0]) == \
        "[Fraction(1, 1), Fraction(0, 1)]"


FIELDS = ([(QuadExt, m) for m in (-1, 2, -3, 5)]
          + [(TowerScalar, m) for m in (-2, 5)])


def field_elements(kind, m):
    """Elements of the field of kind and m, coordinates drawn from ENTRIES."""
    k = 2 if kind is QuadExt else 4
    return st.builds(lambda *c: kind(*c, m=m), *[ENTRIES] * k)


def field_entries(kind, m):
    """ints and Fractions mixed with elements of the field of kind and m."""
    element = field_elements(kind, m)
    return st.one_of(ENTRIES, element, element)


@st.composite
def field_matrices(draw, rows=st.integers(0, 5), cols=st.integers(1, 5)):
    """(a, entries): a matrix over one field with zero rows and rows that
    are field combinations of others, and the strategy of its entries."""
    entries = field_entries(*draw(st.sampled_from(FIELDS)))
    ncols = draw(cols)
    a = [[draw(entries) for _ in range(ncols)] for _ in range(draw(rows))]
    for _ in range(draw(st.integers(0, 2))):
        if a and draw(st.booleans()):
            i = draw(st.integers(0, len(a) - 1))
            j = draw(st.integers(0, len(a) - 1))
            k = draw(entries)
            a.append([x + k * y for x, y in zip(a[i], a[j])])
        else:
            a.append([0] * ncols)
    return draw(st.permutations(a)), entries


def against_reference(fn, *args):
    got, expected = both(fn, *args)
    assert got == expected
    return got


@settings(max_examples=80, deadline=None)
@given(field_matrices(), st.data())
def test_field_matrices_match_reference(pair, data):
    a, entries = pair
    rows, pivots = against_reference(rref, a)
    assert len(rows) == len(a)
    r = against_reference(rank, a)
    assert r == len(pivots)
    basis = against_reference(nullspace, a)
    if a:
        assert r + len(basis) == len(a[0])
    if a and basis:
        assert all(x == 0 for row in mat_mul(a, transpose(basis))
                   for x in row)
    if a:
        b = [data.draw(entries) for _ in a]
        x = against_reference(solve, a, b)
        if x is not None:
            assert [sum((p * q for p, q in zip(row, x)), 0)
                    for row in a] == b
    n = min(len(a), len(a[0])) if a else 0
    against_reference(inverse, [row[:n] for row in a[:n]])


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices(), field_matrices().map(lambda pair: pair[0])))
def test_rank_counts_the_pivots_of_rref(a):
    expected = len(rref(a)[1])
    real = linalg._rref_rows
    with pytest.MonkeyPatch.context() as mp:
        # rank counts the rows read off and reads no entry of them
        mp.setattr(linalg, "_rref_rows",
                   lambda rows: [(pc, None) for pc, _ in real(rows)])
        assert rank(a) == expected


def _sparse(a):
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def _row_integers(a):
    """Each rational row of a times the lcm of its denominators."""
    return [[int(x * lcm(*(Fraction(y).denominator for y in row)))
             for x in row] for row in a]


@settings(max_examples=100, deadline=None)
@given(matrices(), st.integers(1, 4))
def test_sparse_nullspace_of_integer_rows_matches_nullspace(a, scale):
    # each row times its own nonzero constant has the same kernel, and the
    # unscaled rows of a are scaled to those ints in one place
    ints = [[scale * x for x in row] for row in _row_integers(a)]
    if a:
        expected = repr(nullspace(a))
        assert repr(sparse_nullspace(_sparse(ints), len(a[0]))) == expected
        assert repr(sparse_nullspace(_sparse(a), len(a[0]))) == expected
    assert sparse_nullspace([], 3) == nullspace([[0, 0, 0]])


@settings(max_examples=40, deadline=None)
@given(field_matrices())
def test_sparse_nullspace_of_field_rows_matches_nullspace(pair):
    a, _ = pair
    if a:
        assert sparse_nullspace(_sparse(a), len(a[0])) == nullspace(a)


@st.composite
def kernel_matrices(draw):
    """A matrix over Q, Q(sqrt 2) or Q(i, sqrt m) with one to three empty
    rows: random, zero, or of full column rank (an upper triangular block
    with a nonzero diagonal among random rows), rows shuffled."""
    field = draw(st.sampled_from([None, (QuadExt, 2), (TowerScalar, -2),
                                  (TowerScalar, 5)]))
    entries = ENTRIES if field is None else field_entries(*field)
    nonzero = entries.filter(lambda x: x != 0)
    ncols = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["random", "zero", "full column rank"]))
    a = [] if shape == "zero" else [
        [draw(entries) for _ in range(ncols)]
        for _ in range(draw(st.integers(0, 4)))]
    if shape == "full column rank":
        a += [[draw(nonzero) if j == i else draw(entries) if j > i else 0
               for j in range(ncols)] for i in range(ncols)]
    a += [[0] * ncols for _ in range(draw(st.integers(1, 3)))]
    return draw(st.permutations(a)), shape


@settings(max_examples=150, deadline=None)
@given(kernel_matrices())
# a field matrix whose field elements are all zero is rational when sparse
@example(([[1, 0], [QuadExt(0, 0, m=2), 0]], "random"))
def test_kernel_read_off_the_integer_rows_matches_the_dense_read_off(case):
    a, shape = case
    ncols = len(a[0])

    def dense_read_off(m):
        rows, pivots = rref(m)
        return reference.dense_kernel(rows[:len(pivots)], pivots, ncols)

    expected = dense_read_off(a)
    if shape != "random":
        assert len(expected) == (ncols if shape == "zero" else 0)
    sparse = [_sparse(a)]
    if all(map(scalars.all_rational, a)):
        sparse.append(_sparse(_row_integers(a)))
    # sparse rows drop zero entries, so a matrix whose field elements are
    # all zero is rational in sparse form: each sparse form is held to the
    # read-off of the dense matrix it stands for
    wanted = [expected] + [
        dense_read_off([[row.get(j, 0) for j in range(ncols)] for row in rows])
        for rows in sparse]
    with pytest.MonkeyPatch.context() as mp:
        # the kernel is read off with no dense rref row built
        mp.setattr(linalg, "rref", None)
        got = [nullspace(a)] + [sparse_nullspace(rows, ncols)
                                for rows in sparse]
    for kernel, want in zip(got, wanted):
        assert kernel == want and repr(kernel) == repr(want)


@pytest.mark.parametrize("a", [
    [[QuadExt(1, 1, 2), 0], [1, QuadExt(0, 1, -3)]],
    [[TowerScalar(1, 1, 0, 0, m=-2)], [TowerScalar(0, 0, 1, 0, m=5)]],
])
def test_matrix_over_two_fields_raises(a):
    for fn in (rank, nullspace, inverse):
        with pytest.raises(ValueError):
            fn(a)


def reference_mat_mul(a, b):
    """The textbook triple loop, summed from Fraction(0)."""
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


KINDS = {
    "int": st.integers(-6, 6),
    "fraction": st.fractions(min_value=-5, max_value=5, max_denominator=9),
    "mixed": ENTRIES,
}


@st.composite
def factor_pairs(draw, kinds=st.sampled_from(sorted(KINDS)).map(KINDS.get)):
    """(a, b) with a n x k and b k x m, n in 0..7, k and m in 1..7, so
    1 x k, k x 1, wide and tall shapes all occur, with entries of a kind
    drawn from kinds (all-int, all-Fraction or mixed by default) and some
    zero rows of a and zero columns of b."""
    n = draw(st.integers(0, 7))
    k, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = draw(kinds)
    a = [[draw(entry) for _ in range(k)] for _ in range(n)]
    b = [[draw(entry) for _ in range(m)] for _ in range(k)]
    for row in a:
        if draw(st.integers(0, 4)) == 0:
            row[:] = [0] * k
    for j in range(m):
        if draw(st.integers(0, 4)) == 0:
            for row in b:
                row[j] = 0
    return a, b


@settings(max_examples=150, deadline=None)
@given(factor_pairs())
def test_mat_mul_matches_reference_loop(pair):
    a, b = pair
    got, expected = mat_mul(a, b), reference_mat_mul(a, b)
    assert got == expected
    assert repr(got) == repr(expected)


def test_mat_mul_of_ints_returns_fractions():
    assert repr(mat_mul([[1, 2]], [[3], [4]])) == "[[Fraction(11, 1)]]"
    assert mat_mul([], [[1, 2]]) == []


def nonzero_term_mat_mul(a, b):
    """The triple loop over the terms whose two factors are nonzero,
    summed from Fraction(0): the scalar type each nonzero entry of a
    sparse product has."""
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))
                  if a[i][t] and b[t][j]), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


@settings(max_examples=100, deadline=None)
@given(factor_pairs(st.sampled_from(FIELDS).map(
    lambda field: field_entries(*field))))
def test_mat_mul_over_a_field_matches_reference_loop(pair):
    # one sparse path for every scalar: equal to the textbook loop, each
    # nonzero entry of the type its nonzero terms give (a Fraction when all
    # are rational, where the textbook loop has an element of K), and each
    # zero entry Fraction(0)
    a, b = pair
    got = mat_mul(a, b)
    assert got == reference_mat_mul(a, b)
    terms = nonzero_term_mat_mul(a, b)
    for row, term_row in zip(got, terms):
        for x, y in zip(row, term_row):
            assert repr(x) == (repr(y) if x else "Fraction(0, 1)")


def test_mat_mul_with_quadext_entries():
    m = 2
    a = [[QuadExt(1, 1, m), Fraction(1, 2), 0],
         [0, QuadExt(0, 1, m), 3]]
    b = [[1, QuadExt(2, -1, m)], [Fraction(-2, 3), 0], [QuadExt(1, 1, m), 5]]
    got = mat_mul(a, b)
    assert got == reference_mat_mul(a, b)
    # (1 + r)(2 - r) with r = sqrt(2) is r
    assert got[0][1] == QuadExt(0, 1, m)
    assert mat_mul(b, a) == reference_mat_mul(b, a)


# -- mat_vec over the nonzero coordinates against the dense sum ---------------

def one_type_entries(kind, m):
    """int, Fraction and field-element strategies, each of one type and
    half of its draws zero."""
    k = 2 if kind is QuadExt else 4
    element = st.builds(lambda *c: kind(*c, m=m), *[ENTRIES] * k)
    zero = kind(*[0] * k, m=m)
    return [st.one_of(st.just(z), e) for z, e in (
        (0, st.integers(-6, 6)),
        (Fraction(0), st.fractions(min_value=-5, max_value=5,
                                   max_denominator=7)),
        (zero, element))]


@st.composite
def mat_vec_pairs(draw, one_type):
    """(a, v), a n x k and v of length k, n in 0..6 and k in 1..7, over one
    field: with one_type, a and v each of one scalar type (int, Fraction or
    an element of the field), else entries mixed; v all zero now and then."""
    field = draw(st.sampled_from(FIELDS))
    if one_type:
        kinds = one_type_entries(*field)
        ea, ev = draw(st.sampled_from(kinds)), draw(st.sampled_from(kinds))
    else:
        ea = ev = field_entries(*field)
    k = draw(st.integers(1, 7))
    a = [[draw(ea) for _ in range(k)] for _ in range(draw(st.integers(0, 6)))]
    v = [draw(ev) for _ in range(k)]
    if draw(st.integers(0, 4)) == 0:
        v = [x * 0 for x in v]
    return a, v


@settings(max_examples=100, deadline=None)
@given(mat_vec_pairs(one_type=False))
def test_mat_vec_equals_the_dense_sum(pair):
    a, v = pair
    assert mat_vec(a, v) == reference.dense_mat_vec(a, v)


@settings(max_examples=100, deadline=None)
@given(mat_vec_pairs(one_type=True))
def test_mat_vec_of_one_type_keeps_the_type_of_the_dense_sum(pair):
    # every src caller passes a matrix and a vector of one type each
    a, v = pair
    got, expected = mat_vec(a, v), reference.dense_mat_vec(a, v)
    assert [(type(x), repr(x)) for x in got] == \
        [(type(x), repr(x)) for x in expected]


def test_mat_vec_of_a_zero_vector_keeps_the_type_of_the_dense_sum():
    zero, one = QuadExt(0, 0, 2), QuadExt(1, 1, 2)
    for a, v in [([[Fraction(1, 2), 3]], [0, 0]),
                 ([[1, 2], [0, 0]], [Fraction(0), Fraction(0)]),
                 ([[Fraction(1, 2), one]], [zero, zero]),
                 ([[1, 2]], [zero, one]),
                 ([[1, 2]], [])]:
        got, expected = mat_vec(a, v), reference.dense_mat_vec(a, v)
        assert [(type(x), repr(x)) for x in got] == \
            [(type(x), repr(x)) for x in expected]


def test_mat_vec_forms_no_product_with_a_zero_coordinate():
    # None * 0 would raise: the columns of the zero coordinates are unread
    assert mat_vec([[None, 2, None], [None, -1, None]], [0, 3, 0]) == [6, -3]
    zero = QuadExt(0, 0, 5)
    assert mat_vec([[None, 2]], [zero, QuadExt(1, 1, 5)]) == \
        [QuadExt(2, 2, 5)]


def reference_det(a):
    """Gaussian elimination over the field on the first nonzero pivot of
    each column."""
    n = len(a)
    m = [list(r) for r in a]
    d = Fraction(1)
    for c in range(n):
        i = next((i for i in range(c, n) if m[i][c] != 0), -1)
        if i < 0:
            return 0 * d
        if i != c:
            m[c], m[i] = m[i], m[c]
            d = -d
        d = d * m[c][c]
        inv = Fraction(1) / m[c][c]
        for j in range(c + 1, n):
            if m[j][c] != 0:
                f = m[j][c] * inv
                m[j] = [x - f * y for x, y in zip(m[j], m[c])]
    return d


#: the nonzero values of ENTRIES
NONZERO_RATIONALS = st.sampled_from([x for x in range(-6, 7) if x]
                                    + [x for x in FRACTIONS if x])


@st.composite
def det_matrices(draw):
    """n x n matrices, n in 0..6, rational or over one field, some rows
    replaced by a zero row or by a combination of two rows.  One draw in
    five is upper triangular, n in 2..6, with nonzero rationals on the
    diagonal and elements of one field above it: every pivot of the field
    elimination is rational, so its determinant is a Fraction."""
    if draw(st.integers(0, 4)) == 0:
        n = draw(st.integers(2, 6))
        above = field_elements(*draw(st.sampled_from(FIELDS)))
        return [[draw(NONZERO_RATIONALS) if i == j else
                 draw(above) if i < j else 0 for j in range(n)]
                for i in range(n)]
    n = draw(st.integers(0, 6))
    entries = draw(st.one_of(st.just(ENTRIES), st.sampled_from(FIELDS).map(
        lambda field: field_entries(*field))))
    a = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        i, j, t = (draw(st.integers(0, n - 1)) for _ in range(3))
        k = draw(entries)
        a[i] = ([x + k * y for x, y in zip(a[j], a[t])]
                if draw(st.booleans()) else [0] * n)
    return a


@settings(max_examples=150, deadline=None)
@given(det_matrices())
def test_det_matches_gaussian_elimination(a):
    got, expected = det(a), reference_det(a)
    assert got == expected
    assert repr(got) == repr(expected)


@pytest.mark.parametrize("a, value", [
    ([], 1),
    ([[0, 0], [0, 0]], 0),
    ([[1, 2], [0, 0]], 0),
    ([[Fraction(1, 2), 3], [Fraction(1, 4), Fraction(3, 2)]], 0),
    ([[0, 1], [1, 0]], -1),
    ([[Fraction(1, 2), 0, 0], [0, Fraction(2, 3), 5], [0, 0, 7]],
     Fraction(7, 3)),
    ([[QuadExt(1, 1, 2), 1], [1, QuadExt(1, -1, 2)]], -2),
    pytest.param([[QuadExt(1, 1, 2), 1], [QuadExt(2, 2, 2), 2]], 0,
                 id="singular-after-a-K-pivot"),
    pytest.param([[QuadExt(1, 1, 2), 1], [0, 0]], 0, id="K-zero-row"),
    # the zero of K sets the field of the pivot it is cleared into
    pytest.param([[1, QuadExt(0, 0, 2)], [1, 1]], QuadExt(1, 0, 2),
                 id="K-zero-entry"),
    pytest.param([[0, 0, 0], [QuadExt(0, 1, 5), 1, 2], [1, 2, 3]], 0,
                 id="K-zero-row-first"),
    pytest.param([[1, QuadExt(0, 1, 2)], [Fraction(1, 2), 3]],
                 QuadExt(3, Fraction(-1, 2), 2), id="rational-and-K-rows"),
    # no pivot is an element of K: a Fraction, as the field elimination
    # gives it
    pytest.param([[Fraction(1, 2), QuadExt(1, 1, 2)], [0, 3]], Fraction(3, 2),
                 id="rational-pivots-of-a-K-matrix"),
    pytest.param(
        [[TowerScalar(1, 1, 0, 0, m=-2), TowerScalar(0, 0, 1, 0, m=-2), 1],
         [2, TowerScalar(0, 1, 0, 1, m=-2), Fraction(1, 2)],
         [TowerScalar(1, 0, 0, Fraction(1, 3), m=-2), 0,
          TowerScalar(0, 0, 0, 1, m=-2)]],
        TowerScalar(Fraction(4, 3), Fraction(14, 3), Fraction(-1, 6), -2,
                    m=-2), id="tower-3x3"),
    # Psi of the standard datum at seed 20240: the golden discriminant
    pytest.param(lambda: make_weil_datum(STANDARD_H, STANDARD_S,
                                         seed=20240).psi, 256,
                 id="standard-psi"),
])
def test_det_examples(a, value):
    a = a() if callable(a) else a
    assert det(a) == value == reference_det(a)
    assert repr(det(a)) == repr(reference_det(a))


# -- row-by-row elimination against the column scan ---------------------------

def column_scan_rref(rows):
    """Gauss-Jordan on sparse integer rows, column by column: the pivot of
    a column is the active row with the fewest nonzeros, then the smallest
    entry; every pivot column is cleared from every other row."""
    active, done = rows, []
    for col in sorted(set().union(*rows)):
        pivot, best = None, None
        for row in active:
            x = row.get(col)
            if x is not None:
                key = (len(row), abs(x))
                if best is None or key < best:
                    pivot, best = row, key
        if pivot is None:
            continue
        rest = []
        for row in active:
            if row is pivot:
                continue
            if col in row:
                row = linalg._clear(row, pivot, col)
                if not row:
                    continue
            rest.append(row)
        active = rest
        done = [(pc, linalg._clear(row, pivot, col) if col in row else row)
                for pc, row in done]
        done.append((col, pivot))
    return done


@st.composite
def tall_integer_matrices(draw):
    """Tall, rank-deficient integer matrices up to 40 x 8: a few sparse
    base rows, then duplicates, scalar multiples, combinations of two rows
    and zero rows, shuffled."""
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))
    m = [[draw(entry) for _ in range(ncols)]
         for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 34))):
        kind = draw(st.sampled_from(("duplicate", "multiple", "sum", "zero")))
        i, j = (draw(st.integers(0, len(m) - 1)) for _ in range(2))
        k = draw(st.integers(-4, 4).filter(bool))
        m.append(list(m[i]) if kind == "duplicate"
                 else [k * x for x in m[i]] if kind == "multiple"
                 else [x + k * y for x, y in zip(m[i], m[j])]
                 if kind == "sum" else [0] * ncols)
    return draw(st.permutations(m))


def _positive_pivots(pairs):
    """[(pivot column, sorted row items)] with each row signed so its pivot
    is positive: a primitive rref row is then unique."""
    return [(pc, sorted((c, x if row[pc] > 0 else -x)
                        for c, x in row.items()))
            for pc, row in pairs]


def _read_off(rows, ncols):
    """The dense rows of the read-off of the sparse rows, and their
    pivots, as field_pivot_rows gives them."""
    pivot_rows = linalg._rref_rows(rows)
    return ([[entry(c) for c in range(ncols)] for _, entry in pivot_rows],
            [pc for pc, _ in pivot_rows])


def _primitive_rows(a):
    """The nonzero rows of the integer matrix a, sparse and primitive."""
    return [linalg._primitive(row) for row in _sparse(a) if row]


def _same_rref(rows, a):
    """The row-by-row kernel on rows, the sparse primitive integer rows of
    the rational matrix a, equals the column scan by == and repr, and the
    rows read off it equal the field reference on a."""
    got = _positive_pivots(linalg._integer_rref(rows))
    expected = _positive_pivots(column_scan_rref(rows))
    assert got == expected and repr(got) == repr(expected)
    reduced, reference = _read_off(rows, len(a[0])), field_pivot_rows(a)
    assert reduced == reference and repr(reduced) == repr(reference)


def _same_realified_rref(a):
    """_same_rref on the realified rows of a matrix a over K (a zero row
    when they are all empty), whose rows read off over K equal the field
    reference on a."""
    rows, k, _ = linalg._rational_form(linalg._rows(a))
    n = len(a[0]) * k
    _same_rref(rows, [[row.get(j, 0) for j in range(n)] for row in rows]
               or [[0] * n])
    assert _read_off(linalg._rows(a), len(a[0])) == field_pivot_rows(a)


@settings(max_examples=100, deadline=None)
@given(tall_integer_matrices())
def test_row_insertion_matches_column_scan_and_field_reference(a):
    _same_rref(_primitive_rows(a), a)


@settings(max_examples=60, deadline=None)
@given(field_matrices())
def test_row_insertion_matches_on_realified_field_matrices(pair):
    a, _ = pair
    if not a or all(map(scalars.all_rational, a)):
        return
    _same_realified_rref(a)


@settings(max_examples=60, deadline=None)
@given(tall_integer_matrices())
def test_extend_span_agrees_with_rank_on_growing_stacks(a):
    basis = {}
    for i, row in enumerate(a):
        grew = linalg.extend_span(basis, {j: x for j, x in enumerate(row)
                                          if x})
        assert grew == (rank(a[:i + 1]) > rank(a[:i]))
        assert len(basis) == rank(a[:i + 1])
    assert sorted(basis) == field_pivot_rows(a)[1]


# -- the presolve: one-entry rows settle their columns first -----------------

@st.composite
def unit_rich_matrices(draw, entries=st.integers(-9, 9).filter(bool)):
    """Integer matrices up to 8 columns rich in one-entry rows: columns
    pinned by one-entry rows of several values, chains of two-entry rows
    that each become one-entry once the column before is pinned (a
    cascade), sparse rows, combinations of rows and zero rows, shuffled."""
    ncols = draw(st.integers(1, 8))

    def row(entries_at):
        out = [0] * ncols
        for c, x in entries_at.items():
            out[c] = x
        return out

    m = []
    for c in draw(st.lists(st.integers(0, ncols - 1), max_size=4)):
        m += [row({c: draw(entries)})
              for _ in range(draw(st.integers(1, 3)))]
    chain = draw(st.permutations(range(ncols)))[:draw(st.integers(0, ncols))]
    if chain:
        m.append(row({chain[0]: draw(entries)}))
    m += [row({a: draw(entries), b: draw(entries)})
          for a, b in zip(chain, chain[1:])]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("sparse", "sum", "zero")))
        if kind == "sparse" or not m:
            cols = draw(st.sets(st.integers(0, ncols - 1), min_size=1,
                                max_size=3))
            m.append(row({c: draw(entries) for c in cols}))
        elif kind == "sum":
            i, j = (draw(st.integers(0, len(m) - 1)) for _ in range(2))
            k = draw(entries)
            m.append([x + k * y for x, y in zip(m[i], m[j])])
        else:
            m.append([0] * ncols)
    return draw(st.permutations(m))


@settings(max_examples=150, deadline=None)
@given(unit_rich_matrices())
def test_presolve_matches_column_scan_and_field_reference(a):
    if not a:
        return
    _same_rref(_primitive_rows(a), a)
    for fn in (rref, rank, nullspace):
        got, expected = both(fn, a)
        assert got == expected and repr(got) == repr(expected)
    n = min(len(a), len(a[0]))
    got, expected = both(inverse, [row[:n] for row in a[:n]])
    assert got == expected and repr(got) == repr(expected)


@settings(max_examples=100, deadline=None)
@given(unit_rich_matrices(), st.data())
def test_presolve_of_solve_with_one_entry_rows_in_b(a, data):
    # a zero row of a makes the row of [a | b] one-entry in the b block:
    # the system is inconsistent exactly when that entry is nonzero
    if not a:
        return
    a = a + [[0] * len(a[0])]
    b = [data.draw(st.integers(-3, 3)) for _ in a]
    got, expected = both(solve, a, b)
    assert got == expected and repr(got) == repr(expected)
    if b[-1]:
        assert got is None
    bb = [[y, data.draw(st.integers(-3, 3))] for y in b]
    got, expected = both(solve_matrix, a, bb)
    assert got == expected and repr(got) == repr(expected)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), unit_rich_matrices(), st.data())
def test_presolve_on_realified_field_matrices(field, a, data):
    # each entry of an integer matrix rich in one-entry rows becomes a
    # field element; the rational ones stay one-entry once realified
    if not a:
        return
    entries = field_entries(*field)
    a = [[data.draw(entries) if x and data.draw(st.booleans()) else x
          for x in row] for row in a]
    a.append([data.draw(entries.filter(lambda x: x != 0 and type(x) not in
                                       (int, Fraction)))]
             + [0] * (len(a[0]) - 1))
    _same_realified_rref(a)
    for fn in (rank, nullspace):
        against_reference(fn, a)


def test_presolve_settles_a_cascade_before_the_rest():
    # {0} pins column 0, then {0, 1} pins 1, then {1, 2} pins 2; the rows
    # on columns 3 and 4 alone go through extend_span
    rows = [{1: 3, 2: -5}, {3: 2, 4: 4}, {0: -7}, {0: 2, 1: 6}, {3: 1, 4: 3},
            {0: 5}, {}]
    assert linalg._integer_rref([r for r in rows if r]) == [
        (0, {0: 1}), (1, {1: 1}), (2, {2: 1}), (3, {3: 1}), (4, {4: 1})]
    assert linalg._integer_rref([{0: 4}, {0: 4, 1: 2, 2: -6}]) == [
        (0, {0: 1}), (1, {1: 1, 2: -3})]


@st.composite
def presolve_rows(draw):
    """Sparse integer rows on up to 10 columns: a few random rows, chains
    of rows that each add one column to the one before (the first has one
    entry, so each settles the next column once the ones before are
    dropped), and empty rows, shuffled."""
    ncols = draw(st.integers(1, 10))
    entry = st.integers(-9, 9).filter(bool)

    def row(cols):
        return {c: draw(entry) for c in cols}

    rows = [row(draw(st.sets(st.integers(0, ncols - 1), max_size=4)))
            for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 3))):
        cols = draw(st.permutations(range(ncols)))
        cols = cols[:draw(st.integers(1, ncols))]
        rows += [row(cols[:n]) for n in range(1, len(cols) + 1)]
    rows += [{} for _ in range(draw(st.integers(0, 2)))]
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(st.one_of(presolve_rows(), presolve_rows().map(
    lambda rows: [row for row in rows if len(row) != 1])))
def test_presolve_by_propagation_matches_the_round_loop(rows):
    before = copy.deepcopy(rows)
    left, first_basis, real = [], [], linalg.extend_span

    def spy(basis, row):
        if not left:
            first_basis.append(set(basis))
        left.append(row)
        return real(basis, row)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "extend_span", spy)
        got = linalg._integer_rref(rows)
    assert rows == before
    expected = reference.round_presolve_rref(rows)
    assert got == expected and repr(got) == repr(expected)
    # the same settled columns, and the same rows left in the same order
    # (the round loop also hands on an empty row when no row has one entry;
    # extend_span returns at once on it)
    pinned, rest = reference.round_presolve(rows)
    assert left == [r for r in rest if r]
    assert (first_basis[0] if left else {pc for pc, _ in got}) == pinned


def test_route_b_invariants_match_field_reference():
    # the first noniso spinor of the cayley benchmark at seed 11: 1470
    # stacked rows (899 nonzero) of rank 69 on the degree-4 forms
    vecs = reps.stabilizer_algebra([Spinor([1, 0, 0, 3, 3, 0, 0, 0])])
    rows = reps._action_rows([reps.scale_to_integers(enumerate(c))[0]
                              for c in vecs], "Wedge4V")
    expected = field_nullspace([[r.get(j, 0) for j in range(70)]
                                for r in rows])
    got = reps.invariant_subspace(vecs, "Wedge4V")
    assert len(got) == 1
    assert got == expected and repr(got) == repr(expected)
