"""Lie algebra actions on the seven relevant representation spaces, weight
decompositions, invariant-subspace and stabilizer solvers, the span of the
squares of quadric points in Sym^2 S+, the Cayley-class map, and the
dimension bookkeeping of the restriction to the stabilizer of a spinor.

The Cayley class of s is sum_I (s, e^_{I*} s) e^I, with e^ Chevalley's
antisymmetrized Clifford product (The Algebraic Theory of Spinors, 1954),
checked against the invariant line of the stabilizer of s.

All actions are derived (Lie-algebra level) and linear in the element:
x = sum c_a X_a over the 28 basis elements of spin_v_xyz_table acts as
sum c_a A_a.  The basis actions A_a are built once per space, as sparse
integer rows over one denominator: the table's so(8) matrices on V, the
module structure on the exterior algebra of W on the half-spin spaces
(including the scalar shifts of the Cartan basis), and the derivation
extension on wedge/symmetric powers.  An action's rows come from c alone,
and the rows of any number of actions from one sparse_product of their
sparse coefficient vectors with the table (_action_blocks), so the Lie
algebra elements of this module are their coefficient vectors.  Only
derived_action starts from an element, reading c off its degree-2
coefficients (spin_coordinates, with x = sum c_a X_a as the membership
test).  A stabilizer and an invariant subspace are one row builder each
(_stabilizer_rows, _action_rows), on ints for rational inputs and on the
field's values for a spinor over K, and one kernel read-off of linalg:
stabilizer_algebra and invariant_subspace return the dense kernel
(sparse_nullspace), and route B of cayley_class hands the stabilizer's
sparse kernel vectors (linalg._sparse_kernel) to the invariant rows as
they are, with no Fraction and no Clifford element between the steps.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd
from itertools import combinations, combinations_with_replacement

from .clifford import (CV, _module_table, _over, _sigma_rows, _table_for,
                       cartan_elements, spin_v_xyz_table)
from .jsonio import to_text
from .lattices import orthogonal_complement
from .linalg import (_sparse_kernel, extend_span, mat, mat_vec, rank,
                     scale_to_integers, sparse_nullspace, sparse_product)
from .multivector import (DEGREE4_MASKS, Multivector, coords_degree,
                          derivation_columns, from_coords, indices_of,
                          mask_of, nonzero_columns, star_matrix, wedge)
from .spingeo import (ODD_MASKS, Z_DICT, Spinor, _proportionality,
                      random_alternating, spinor_map, splus_lattice)

WEDGE2V_BASIS = tuple(combinations(range(8), 2))
WEDGE4V_BASIS = tuple(combinations(range(8), 4))
#: pairs (a, b), a <= b, in lexicographic order: the basis z_a (.) z_b
SYM2_BASIS = tuple(combinations_with_replacement(range(8), 2))
WEDGE2S_BASIS = tuple(combinations(range(8), 2))


#: a namedtuple, not a dataclass: importing dataclasses would cost every
#: process that imports this module
RepSpace = namedtuple("RepSpace", "name dim basis")


@lru_cache(maxsize=None)
def rep_space(name: str) -> RepSpace:
    if name == "V":
        return RepSpace("V", 8, tuple(f"e{i + 1}" for i in range(8)))
    if name == "S+":
        return RepSpace("S+", 8, tuple(f"z{i + 1}" for i in range(8)))
    if name == "S-":
        return RepSpace("S-", 8, tuple(str(m) for m in ODD_MASKS))
    if name == "Wedge2V":
        return RepSpace("Wedge2V", 28, WEDGE2V_BASIS)
    if name == "Wedge4V":
        return RepSpace("Wedge4V", 70, WEDGE4V_BASIS)
    if name == "Sym2S+":
        return RepSpace("Sym2S+", 36, SYM2_BASIS)
    if name == "Wedge2S+":
        return RepSpace("Wedge2S+", 28, WEDGE2S_BASIS)
    raise ValueError(f"unknown representation space {name!r}")

REP_NAMES = ("V", "S+", "S-", "Wedge2V", "Wedge4V", "Sym2S+", "Wedge2S+")


def _half_spin_block(x, basis, message):
    """The block of sigma(x) on the half-spin basis [(mask, sign)], read
    off _sigma_rows; ValueError(message) when it leaves that half."""
    rows, d = _sigma_rows(x, _table_for(x.algebra))
    half = {f for f, _ in basis}
    if any(f in half for g in set(range(16)) - half for f in rows[g]):
        raise ValueError(message)
    zero = Fraction(0)
    return [[_over(rows[g][f] if s == t else -rows[g][f], d)
             if f in rows[g] else zero for f, t in basis] for g, s in basis]


def splus_matrix(x) -> list:
    """Matrix of an even Clifford element on S+ in z-coordinates: the even
    block of sigma(x), with the signs of Z_DICT."""
    return _half_spin_block(x, Z_DICT,
                            "spinors come from the even algebra of W")


def sminus_matrix(x) -> list:
    """Matrix of an even Clifford element on S- (odd exterior powers): the
    odd block of sigma(x)."""
    return _half_spin_block(x, [(g, 1) for g in ODD_MASKS],
                            "element does not preserve the odd part")


def _dense_derivation(m, blades, symmetric=False):
    """The derivation extension of a square matrix on the span of blades,
    as a dense matrix (multivector.derivation_columns)."""
    index = {b: i for i, b in enumerate(blades)}
    out = [[Fraction(0)] * len(blades) for _ in blades]
    for j, image in enumerate(derivation_columns(nonzero_columns(m), blades,
                                                 symmetric)):
        for b, v in image.items():
            out[index[b]][j] += v
    return out


def derivation_matrix(m, k):
    """Derivation extension of a square matrix to the k-th wedge power."""
    return _dense_derivation(m, tuple(combinations(range(len(m)), k)))


@lru_cache(maxsize=1)
def _xyz_masks():
    """The degree-2 blade of each X_a, on which X_a has coefficient 1."""
    return tuple(next(m for m in x.terms if m)
                 for _, x, _ in spin_v_xyz_table())


def _xyz_terms(c):
    """The terms of sum c_a X_a, as one dict."""
    acc = {}
    for ca, (_, x, _) in zip(c, spin_v_xyz_table()):
        if ca:
            for m, v in x.terms.items():
                acc[m] = acc.get(m, 0) + ca * v
    return {m: v for m, v in acc.items() if v}


def spin_coordinates(x):
    """The coordinates c of x on the 28 X_a of spin_v_xyz_table, read off
    its degree-2 terms.  spin(V) is the span of the X_a, so x = sum c_a X_a
    is the membership test of is_spin_lie_element on C(V); ValueError when
    it fails."""
    c = [x.terms.get(m, 0) for m in _xyz_masks()]
    if x.algebra.gram != CV().gram or _xyz_terms(c) != x.terms:
        raise ValueError("element fails the spin Lie algebra membership test")
    return c


@lru_cache(maxsize=None)
def _base_columns(name):
    """(cols, d): cols[a][t] = {r: d A_a[r][t]} on ints, the nonzero column
    entries of the 28 X_a on V (the table's so(8) matrices), S+ or S-
    (blocks of sigma) over one denominator d."""
    block = {"S+": splus_matrix, "S-": sminus_matrix}.get(name)
    ints, d = scale_to_integers(
        ((a, r, t), v) for a, (_, x, m) in enumerate(spin_v_xyz_table())
        for r, row in enumerate(block(x) if block else m)
        for t, v in enumerate(row))
    cols = [[{} for _ in range(8)] for _ in range(28)]
    for (a, r, t), v in ints.items():
        cols[a][t][r] = v
    return cols, d


@lru_cache(maxsize=None)
def _action_table(name):
    """(table, d): table[a] = {dim i + j: d A_a[i][j]} on ints, the nonzero
    entries of the action A_a of X_a over one denominator d: the derivation
    extension (multivector.derivation_columns) of the base columns of V, S+
    or S- to the blades of the space, single indices on the base itself,
    divided with d by their gcd (the derivation is linear)."""
    sp = rep_space(name)
    cols, d = _base_columns(name if sp.dim == 8 else
                            "V" if name.endswith("V") else "S+")
    blades = sp.basis if sp.dim > 8 else tuple((i,) for i in range(8))
    index = {b: i for i, b in enumerate(blades)}
    table = [{sp.dim * index[b] + j: v for j, image in enumerate(
        derivation_columns(c, blades, name == "Sym2S+"))
        for b, v in image.items() if v} for c in cols]
    g = gcd(d, *(v for t in table for v in t.values()))
    return [{k: v // g for k, v in t.items()} for t in table], d // g


def _action_blocks(vectors, name):
    """The rows {j: x} of d sum c_a A_a on a space, d the denominator of
    its table, for each sparse coefficient vector c {a: x} on the X_a:
    one sparse_product of all the vectors with the table."""
    dim = rep_space(name).dim
    blocks = []
    for image in sparse_product(vectors, _action_table(name)[0]):
        rows = [{} for _ in range(dim)]
        for k, v in image.items():
            rows[k // dim][k % dim] = v
        blocks.append(rows)
    return blocks


def _action_rows(vectors, name):
    """The nonzero rows of _action_blocks, stacked: the joint kernel of
    the actions is theirs (a block scaled by d keeps its kernel)."""
    return [r for rows in _action_blocks(vectors, name) for r in rows if r]


def _action_matrix(c, name):
    """The dense matrix of sum c_a A_a on a named space, for coefficients
    c on the X_a: the block of _action_blocks for c scaled by
    scale_to_integers, over the product d of the two denominators."""
    c, dc = scale_to_integers(enumerate(c))
    rows, = _action_blocks([c], name)
    d = _action_table(name)[1] * dc
    zero = Fraction(0)
    return [[_over(row[j], d) if j in row else zero for j in range(len(rows))]
            for row in rows]


def derived_action(x, space):
    """Derived action matrix of a spin Lie element on a named space: one
    path for every space, sum c_a A_a over x's coordinates c on the basis
    (spin_coordinates, the membership test) and the cached actions A_a."""
    return _action_matrix(spin_coordinates(x), space)


def weight_decomposition(space):
    """Simultaneous eigendata of the four Cartan generators on a named space.

    Returns a list of (weight 4-tuple, basis label, coordinate vector);
    each Cartan matrix must act diagonally on the standard basis of the
    space (a non-diagonal action signals a bug).
    """
    sp = rep_space(space)
    mats = [derived_action(h, space) for h in cartan_elements()]
    if any(x != 0 for m in mats for i, row in enumerate(m)
           for j, x in enumerate(row) if i != j):
        raise RuntimeError("Cartan action failed to be diagonal")
    out = []
    for i in range(sp.dim):
        wt = tuple(m[i][i] for m in mats)
        vec = [Fraction(0)] * sp.dim
        vec[i] = Fraction(1)
        out.append((wt, sp.basis[i], vec))
    return out


def weight_multiset(space):
    return sorted(wt for wt, _, _ in weight_decomposition(space))


def invariant_subspace(coeffs, space):
    """Basis of the joint kernel on a named space of the actions sum c_a A_a,
    one for each coefficient vector c on the X_a: the sparse_nullspace of
    the _action_rows of the vectors, each scaled by scale_to_integers."""
    vectors = [scale_to_integers(enumerate(c))[0] for c in coeffs]
    return sparse_nullspace(_action_rows(vectors, space),
                            rep_space(space).dim)


def stabilizer_algebra(fixed):
    """Basis of {x in spin(V) : x annihilates every given spinor}, as
    coefficient vectors over the 28-element standard basis in X/Y/Z order
    (x = sum c_a X_a): the sparse_nullspace of _stabilizer_rows."""
    return sparse_nullspace(_stabilizer_rows(fixed), 28)


def _stabilizer_rows(fixed):
    """The rows {a: (A_a f)_i} of the system x f = 0 for each given spinor
    f, read off the S+ table with f scaled by scale_to_integers (on ints
    for a rational f).  The scaling stays here: sparse_product and the
    kernel then run on ints, and the stabilizer's kernel took 155-203 us
    against 293-398 us with Fraction coordinates on spinors drawn as the
    cayley workload draws them, 292-324 us against 560-725 us on
    isotropic ones (best of 7 passes over 300 spinors, 2 runs, one core of
    a 2-core Xeon)."""
    table, _ = _action_table("S+")
    rows = []
    for f in fixed:
        z, _ = scale_to_integers(enumerate(Spinor(f).z))
        images = sparse_product(table, [{k // 8: z[k % 8]} if k % 8 in z
                                        else {} for k in range(64)])
        rows += [{a: im[i] for a, im in enumerate(images) if i in im}
                 for i in range(8)]
    return rows


# ---------------------------------------------------------------------------
# Sym^2 S+ and the Cayley class

def sym2_coords(z):
    """Coordinates of z (.) z in the basis z_a (.) z_b, a <= b."""
    return [z[a] * z[b] if a == b else 2 * z[a] * z[b] for a, b in SYM2_BASIS]


def sym2_coords_pair(z, w):
    """Coordinates of the symmetrized product z (.) w."""
    return [z[a] * w[a] if a == b else z[a] * w[b] + z[b] * w[a]
            for a, b in SYM2_BASIS]


SPAN_SEED, SPAN_DRAWS = 314159, 350   # of quadric_square_span


@lru_cache(maxsize=1)
def quadric_square_span():
    """An exact basis of the span of {z (.) z : z on the quadric} (dim 35):
    the sampled (B, coordinates of z (.) z) that leave the span so far, each
    inserted into one reduced integer basis (linalg.extend_span).  The
    input of verify's symmetric-square-split check."""
    rng = random.Random(SPAN_SEED)
    basis, vectors = {}, []
    for draws in range(1, SPAN_DRAWS + 1):
        b = random_alternating(rng)
        u = sym2_coords(spinor_map(b).z)
        if extend_span(basis, scale_to_integers(enumerate(u))[0]):
            vectors.append((b, u))
            if len(vectors) == 35:
                return vectors
    raise RuntimeError(f"quadric squares of seed {SPAN_SEED} span "
                       f"dimension {len(vectors)} of 35 after {draws} draws")


@lru_cache(maxsize=1)
def phi_matrix():
    """The equivariant 70 x 36 map Sym^2 S+ -> degree-4 forms on V, whose
    value on s (.) s is the Cayley class of s.

    The closed form is the bilinear covariant s (.) t -> sum_I (s, e^_{I*}
    t) e^I (Chevalley 1954; Harvey-Lawson, Calibrated geometries, 1982,
    section IV): I* = {i + 4 mod 8 : i in I} in the order of I, e^_J the
    antisymmetrized product of the generators e_j, j in J, and the S+
    pairing (z_a, w) = w_{a+4 mod 8}.  For a 4-form that pairing is
    symmetric in s and t, so s (.) s goes to s^T Q s with Q[a][b] = (z_a,
    e^_{I*} z_b), whose 2 Q[a][b] z_a z_b (a < b) meets the 2 z_a z_b of
    sym2_coords: phi[I][(a, b)] = Q[a][b].

    V's Gram pairs e_j only with its dual e_{j+4 mod 8}, so e^_J is the
    product in the order of J of single generators e_j and of dual-pair
    factors (-1)^k (e_j e_{j+4 mod 8} - 1/2), the dual moved past the k
    generators between them.  On the 16 forms w_F a single e_j is a signed
    partial permutation, row 1 << j of clifford._module_table, and e_j
    e_{j+4 mod 8} is 1 or 0 on each w_F, so a dual-pair factor acts by
    +-1/2.  So e^_J sends w_{Z_DICT[b]} to +-2^-p w_G or to 0, p the
    number of dual pairs in J, and phi[I][(a, b)] is that +-2^-p, with
    the signs of Z_DICT, when G is the form of z_{a+4 mod 8}, and 0
    otherwise.  No Clifford product and no 16 x 16 matrix is formed.
    """
    table, zero = _module_table(), Fraction(0)
    position = {f: (i, s) for i, (f, s) in enumerate(Z_DICT)}
    column = {ab: i for i, ab in enumerate(SYM2_BASIS)}
    rows = []
    for mask in DEGREE4_MASKS:
        word, rest = [], [(i + 4) % 8 for i in indices_of(mask)]
        while rest:
            j = rest.pop(0)
            k = rest.index((j + 4) % 8) if (j + 4) % 8 in rest else None
            word.append((j, None, 1) if k is None
                        else (j, rest.pop(k), (-1) ** k))
        d = 2 ** sum(dual is not None for _, dual, _ in word)
        row = [zero] * 36
        for b, (g, c) in enumerate(Z_DICT):
            # c w_g, through the factors of e^_J from the right
            for j, dual, sign in reversed(word):
                if dual is None:
                    hit = table[1 << j][g]
                    if hit is None:
                        break
                    g, c = hit[0], c * hit[1]
                else:
                    hit = table[1 << dual][g]
                    on = hit is not None and table[1 << j][hit[0]] is not None
                    c *= sign if on else -sign
            else:  # e^_J w_{Z_DICT[b]} = c 2^-p w_g, w_g = +-z_i
                i, s_g = position[g]
                a = (i + 4) % 8
                if a <= b:
                    row[column[a, b]] = Fraction(c * s_g, d)
        rows.append(row)
    return rows


def cayley_class(s) -> Multivector:
    """The degree-4 form attached to a spinor via the symmetric square.

    Route A: the image of s (.) s under phi_matrix, the closed form
    sum_I (s, e^_{I*} s) e^I of Chevalley (1954); mat_vec reads only the
    nonzero coordinates of s (.) s (6 of 36 when s has three).  Route B,
    which runs on every call with (s, s) != 0 (_cayley_route_b): the
    unique invariant of the stabilizer algebra of s acting on the degree-4
    forms, the kernel of the 1470 rows, 21 blocks of 70, that one
    sparse_product makes from the stabilizer's 21 kernel vectors, primitive
    integer vectors for a rational s (linalg settles the one-entry rows by
    propagation), read off as one sparse vector, on ints for a rational s.
    The two must be nonzero multiples of each other (_agree, route A
    scaled to ints once), or the call raises.  Nothing is cached here: the
    cayley workload draws distinct spinors, and verify's Hodge criterion
    keeps the whole class per spinor (weil._cayley_class_of).
    """
    s = Spinor(s)
    if s.is_zero():
        raise ValueError("the zero spinor has no Cayley class")
    coords = mat_vec(phi_matrix(), sym2_coords(s.z))
    route_a = from_coords(8, DEGREE4_MASKS, coords)
    if s.pair(s) != 0 and not _agree(scale_to_integers(enumerate(coords))[0],
                                     _cayley_route_b(s)):
        raise RuntimeError("stabilizer route disagrees with the "
                           f"symmetric-square route at s = {to_text(s.z)}")
    return route_a


def _cayley_route_b(s):
    """The stabilizer's invariant line on the degree-4 forms, as one
    sparse vector: the kernel vectors of _stabilizer_rows, all through one
    _action_rows, and the kernel of those rows (linalg._sparse_kernel)."""
    coeffs = _sparse_kernel(_stabilizer_rows([s]), 28)
    if len(coeffs) != 21:
        raise RuntimeError("stabilizer of a non-isotropic spinor must have "
                           f"dimension 21, found {len(coeffs)} at s = "
                           f"{to_text(s.z)}")
    inv = _sparse_kernel(_action_rows(coeffs, "Wedge4V"), 70)
    if len(inv) != 1:
        raise RuntimeError("stabilizer invariants in degree 4 not a line: "
                           f"dimension {len(inv)} at s = {to_text(s.z)}")
    return inv[0]


def _agree(u, v):
    """Whether the sparse vectors u {column: x}, zeros left out (as
    scale_to_integers gives them), and v, where a zero of K may stand (as
    linalg._sparse_kernel gives them), are nonzero multiples of each other:
    the same columns hold their nonzero values, and u[c] v[c0] == v[c]
    u[c0] on them for the first such column c0."""
    c0 = next(iter(u), None)
    return (c0 is not None and u.keys() == {c for c, x in v.items() if x}
            and all(x * v[c0] == v[c] * u[c0] for c, x in u.items()))


def standard_spinor(n: int) -> Spinor:
    """The spinor 1 - n e_* (z-coordinates (1, 0, 0, 0, -n, 0, 0, 0))."""
    return Spinor([1, 0, 0, 0, -n, 0, 0, 0])


def alpha_beta_gamma():
    """The invariant forms: alpha (degree 2), beta and gamma (degree 4)."""
    alpha = Multivector(8, {mask_of((i, i + 4)): Fraction(1) for i in range(4)})
    beta = Multivector(8, {mask_of((0, 1, 2, 3)): Fraction(1)})
    gamma = Multivector(8, {mask_of((4, 5, 6, 7)): Fraction(1)})
    return alpha, beta, gamma


def explicit_cayley_formula(n: int) -> Multivector:
    """-n alpha^2 + 4 n^2 beta + 4 gamma, the closed form for 1 - n e_*."""
    alpha, beta, gamma = alpha_beta_gamma()
    return (wedge(alpha, alpha).scale(Fraction(-n)) +
            beta.scale(Fraction(4 * n * n)) + gamma.scale(Fraction(4)))


def cayley_constant(n: int):
    """The rational c with cayley_class(1 - n e_*) = c * closed form."""
    got = coords_degree(cayley_class(standard_spinor(n)), DEGREE4_MASKS)
    ref = coords_degree(explicit_cayley_formula(n), DEGREE4_MASKS)
    lam = _proportionality(got, ref)
    if lam in (None, 0):
        raise RuntimeError("Cayley class is not proportional to the "
                           "closed form")
    return lam


def branching_dims(s):
    """Dimension profile of degree-4 forms under the stabilizer of s.

    For non-isotropic s: the invariants are a line, the image of
    s (.) (s-perp) is the standard 7-dimensional piece, the remainder of
    the 35-dimensional image splits off 27, and the complementary
    star-eigenspace contributes 35; the profile sums to 70.
    """
    s = Spinor(s)
    if s.pair(s) == 0:
        raise ValueError("branching profile needs a non-isotropic spinor")
    return _branching_profile(s, stabilizer_algebra([s]))


def _branching_profile(s, stab):
    """branching_dims of the non-isotropic Spinor s, given stab, the
    stabilizer_algebra of s (the invariants verb reports its dimension
    too, and computes it once)."""
    inv = invariant_subspace(stab, "Wedge4V")
    phi = phi_matrix()
    image_vectors = [mat_vec(phi, sym2_coords_pair(s.z, t))
                     for t in orthogonal_complement(splus_lattice(), [s.z])]
    standard_dim = rank(mat(image_vectors))
    phi_rank = rank(phi)
    profile = {
        "invariants": len(inv),
        "standard": standard_dim,
        "residual": phi_rank - len(inv) - standard_dim,
        "complement": 70 - phi_rank,
    }
    profile["total"] = sum(profile.values())
    return profile


@lru_cache(maxsize=1)
def gamma2alpha_star_sign():
    """Which star-eigenvalue the image of the symmetric square lands in.

    Read off column 0 of phi_matrix, the closed form sum_I
    (z_a, e^_{I*} z_b) e^I of Chevalley (1954), rather than asserted as a
    convention: that column is the Cayley class of the pure spinor 1,
    +-e_5678, so it is never zero.  The image must lie in a single
    eigenspace.
    """
    star = star_matrix()
    sample = [row[0] for row in phi_matrix()]
    starred = mat_vec(star, sample)
    lam = _proportionality(starred, sample)
    if lam not in (1, -1):
        raise RuntimeError("image vector is not a star eigenvector")
    return int(lam)
