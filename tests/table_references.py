"""Dense references for the one-time tables, kept from the loops that built
them before the sparse routes: derivations entry by entry over every row
index, the degree-4 Gram as 4,900 determinants, the basis-action tables
scaled from dense matrices, and the quadratic dictionary as the targets
times the inverse of the column matrix.  Tests compare the library with
them by == and by repr."""

from fractions import Fraction
from itertools import combinations

from spinweil import reps
from spinweil.clifford import spin_v_xyz_table
from spinweil.linalg import det, inverse, mat_mul, scale_to_integers
from spinweil.multivector import (DEGREE4_MASKS, Multivector, _accumulate,
                                  coords_degree, indices_of, pluecker,
                                  popcount)
from spinweil.reps import SYM2_BASIS, rep_space, sminus_matrix, splus_matrix
from spinweil.spingeo import graph_basis


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
                sign = -1 if popcount((mask ^ (1 << t)) & between_mask) % 2 \
                    else 1
                _accumulate(acc, (mask ^ (1 << t)) | (1 << r),
                            sign * c * coef)
    out.terms.update({k: v for k, v in acc.items() if v != 0})
    return out


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


def phi_matrix():
    """The quadratic dictionary as T C^-1 over the library's samples."""
    samples = reps.quadric_square_span()
    cols = [u for _, u in samples] + [reps.gamma0_line()]
    targets = [coords_degree(pluecker(graph_basis(b)), DEGREE4_MASKS)
               for b, _ in samples]
    targets.append([Fraction(0)] * 70)
    colmat = [[cols[c][r] for c in range(36)] for r in range(36)]
    tarmat = [[targets[c][r] for c in range(36)] for r in range(70)]
    return mat_mul(tarmat, inverse(colmat))
