"""Lie algebra actions on the seven relevant representation spaces, weight
decompositions, invariant-subspace and stabilizer solvers, the symmetric
square splitting, the Cayley-class map by two independent routes, and the
dimension bookkeeping of the restriction to the stabilizer of a spinor.

All actions are derived (Lie-algebra level): on V through the commutator
matrix, on the half-spin spaces through the module structure on the
exterior algebra of W (including the scalar shifts of the Cartan basis),
and on wedge/symmetric powers by the derivation extension.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from .clifford import (CV, _commutator_matrix, cartan_elements,
                       is_spin_lie_element, sigma_matrix, spin_v_xyz_table)
from .linalg import identity, inverse, mat, mat_mul, mat_vec, nullspace, rank
from .multivector import (DEGREE4_MASKS, Multivector, coords_degree,
                          from_coords, mask_of, pluecker, star_matrix, wedge)
from .spingeo import (EVEN_MASKS, ODD_MASKS, Z_DICT, Spinor, graph_basis,
                      random_alternating, spinor_map, splus_lattice)

WEDGE2V_BASIS = tuple(combinations(range(8), 2))
WEDGE4V_BASIS = tuple(combinations(range(8), 4))
#: pairs (a, b), a <= b, in lexicographic order: the basis z_a (.) z_b
SYM2_BASIS = tuple(combinations_with_replacement(range(8), 2))
WEDGE2S_BASIS = tuple(combinations(range(8), 2))


@dataclass(frozen=True)
class RepSpace:
    name: str
    dim: int
    basis: tuple


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


def splus_matrix(x) -> list:
    """Matrix of an even Clifford element on S+ in z-coordinates: the even
    block of sigma_matrix(x), with the signs of Z_DICT."""
    m = sigma_matrix(x)
    if any(m[g][f] != 0 for g in ODD_MASKS for f in EVEN_MASKS):
        raise ValueError("spinors come from the even algebra of W")
    return [[m[g][f] if s == t else -m[g][f] for f, t in Z_DICT]
            for g, s in Z_DICT]


def sminus_matrix(x) -> list:
    """Matrix of an even Clifford element on S- (odd exterior powers): the
    odd block of sigma_matrix(x)."""
    m = sigma_matrix(x)
    if any(m[g][f] != 0 for g in EVEN_MASKS for f in ODD_MASKS):
        raise ValueError("element does not preserve the odd part")
    return [[m[g][f] for f in ODD_MASKS] for g in ODD_MASKS]


def derivation_matrix(m, k, n=None):
    """Derivation extension of an n x n matrix to the k-th wedge power."""
    n = n if n is not None else len(m)
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


def derived_action(x, space):
    """Derived action matrix of a spin Lie element on a named space."""
    name = space.name if isinstance(space, RepSpace) else space
    if not is_spin_lie_element(x):
        raise ValueError("element fails the spin Lie algebra membership test")
    if name == "V":
        return _commutator_matrix(x)
    if name == "S+":
        return splus_matrix(x)
    if name == "S-":
        return sminus_matrix(x)
    if name == "Wedge2V":
        return derivation_matrix(_commutator_matrix(x), 2)
    if name == "Wedge4V":
        return derivation_matrix(_commutator_matrix(x), 4)
    if name == "Sym2S+":
        return sym2_derivation_matrix(splus_matrix(x))
    if name == "Wedge2S+":
        return derivation_matrix(splus_matrix(x), 2, n=8)
    raise ValueError(f"unknown representation space {name!r}")


@lru_cache(maxsize=None)
def _xyz_splus_matrix(idx: int):
    _, x, _ = spin_v_xyz_table()[idx]
    return splus_matrix(x)


@lru_cache(maxsize=1)
def _xyz_elements():
    return tuple(x for _, x, _ in spin_v_xyz_table())


def weight_decomposition(space):
    """Simultaneous eigendata of the four Cartan generators on a space.

    Returns a list of (weight 4-tuple, basis label, coordinate vector);
    each Cartan matrix must act diagonally on the standard basis of the
    space (a non-diagonal action signals a bug).
    """
    sp = rep_space(space if isinstance(space, str) else space.name)
    mats = [derived_action(h, sp.name) for h in cartan_elements()]
    for m in mats:
        for i in range(sp.dim):
            for j in range(sp.dim):
                if i != j and m[i][j] != 0:
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


def invariant_subspace(generators, space):
    """Basis of the joint kernel of the derived actions on a space."""
    sp = rep_space(space if isinstance(space, str) else space.name)
    stacked = []
    for x in generators:
        stacked.extend(derived_action(x, sp.name))
    if not stacked:
        return [list(row) for row in identity(sp.dim)]
    return nullspace(mat(stacked))


def stabilizer_algebra(fixed):
    """Basis of {x in spin(V) : x annihilates every given spinor}.

    Returns (clifford elements, coefficient vectors over the 28-element
    standard basis in X/Y/Z order).
    """
    fixed = [f if isinstance(f, Spinor) else Spinor(f) for f in fixed]
    table = spin_v_xyz_table()
    rows = []
    for f in fixed:
        images = [mat_vec(_xyz_splus_matrix(a), f.z) for a in range(28)]
        for i in range(8):
            rows.append([images[a][i] for a in range(28)])
    if not rows:
        coeff_vecs = [list(r) for r in identity(28)]
    else:
        coeff_vecs = nullspace(mat(rows))
    elements = []
    for v in coeff_vecs:
        x = CV().zero()
        for c, (_, elt, _) in zip(v, table):
            if c != 0:
                x = x + elt.scale(c)
        elements.append(x)
    return elements, coeff_vecs


# ---------------------------------------------------------------------------
# the symmetric-square splitting and the Cayley class

def sym2_coords(z):
    """Coordinates of z (.) z in the basis z_a (.) z_b, a <= b."""
    out = []
    for a, b in SYM2_BASIS:
        out.append(z[a] * z[b] if a == b else 2 * z[a] * z[b])
    return out


def sym2_coords_pair(z, w):
    """Coordinates of the symmetrized product z (.) w."""
    out = []
    for a, b in SYM2_BASIS:
        out.append(z[a] * w[a] if a == b else z[a] * w[b] + z[b] * w[a])
    return out


@lru_cache(maxsize=1)
def gamma0_line():
    """The unique full-spin(V) invariant line in Sym^2 S+ (dimension 1)."""
    basis = invariant_subspace(_xyz_elements(), "Sym2S+")
    if len(basis) != 1:
        raise RuntimeError("invariant line of Sym^2 S+ has wrong dimension")
    return basis[0]


@lru_cache(maxsize=1)
def quadric_square_span():
    """An exact basis of the span of {z (.) z : z on the quadric} (dim 35)."""
    rng = random.Random(314159)
    span_rows = []
    vectors = []
    while len(vectors) < 35:
        b = random_alternating(rng)
        u = sym2_coords(spinor_map(b).z)
        if rank(mat(span_rows + [u])) > len(vectors):
            span_rows.append(u)
            vectors.append((b, u))
    return vectors


@lru_cache(maxsize=1)
def phi_matrix():
    """The equivariant 70 x 36 map Sym^2 S+ -> degree-4 forms on V.

    Determined by sending z (.) z to the Pluecker image for a spanning set
    of 35 sampled quadric points and by killing the invariant line; checked
    for consistency on fresh samples.  This is the map whose value on
    s (.) s is the Cayley class of s.
    """
    samples = quadric_square_span()
    cols = [u for _, u in samples] + [gamma0_line()]
    targets = [coords_degree(pluecker(graph_basis(b)), DEGREE4_MASKS)
               for b, _ in samples]
    targets.append([Fraction(0)] * 70)
    # phi * cols_matrix = targets_matrix, columnwise
    colmat = [[cols[c][r] for c in range(36)] for r in range(36)]
    tarmat = [[targets[c][r] for c in range(36)] for r in range(70)]
    phi = mat_mul(tarmat, inverse(colmat))
    rng = random.Random(653589)
    for _ in range(5):
        b = random_alternating(rng)
        u = sym2_coords(spinor_map(b).z)
        expect = coords_degree(pluecker(graph_basis(b)), DEGREE4_MASKS)
        if mat_vec(phi, u) != expect:
            raise RuntimeError("quadratic dictionary failed consistency")
    return phi


def veronese_pluecker_check(b) -> bool:
    """Confirm that every maximal minor of (B over I) is the value of the
    quadratic dictionary phi_matrix at the spinor coordinates of B's image.

    phi_matrix agrees on every quadric point with any other quadratic
    dictionary (they differ by a multiple of the quadric relation), so
    this is the Veronese-Pluecker identity itself.
    """
    coords = mat_vec(phi_matrix(), sym2_coords(spinor_map(b).z))
    return coords == coords_degree(pluecker(graph_basis(b)), DEGREE4_MASKS)


def cayley_class(s, cross_check=True) -> Multivector:
    """The degree-4 form attached to a spinor via the symmetric square.

    Route A (always): the image of s (.) s under the interpolated
    equivariant map.  Route B (when (s, s) != 0 and cross_check is set):
    the unique invariant of the stabilizer algebra of s acting on the
    degree-4 forms, rescaled; the two must be proportional.
    """
    s = s if isinstance(s, Spinor) else Spinor(s)
    if s.is_zero():
        raise ValueError("the zero spinor has no Cayley class")
    coords = mat_vec(phi_matrix(), sym2_coords(s.z))
    route_a = from_coords(8, DEGREE4_MASKS, coords)
    if cross_check and s.pair(s) != 0:
        route_b = _cayley_route_b(tuple(s.z))
        lam = _proportionality(coords, route_b)
        if lam is None:
            raise RuntimeError("stabilizer route disagrees with the "
                               "symmetric-square route")
    return route_a


@lru_cache(maxsize=32)
def _cayley_route_b(z_tuple):
    stab, _ = stabilizer_algebra([Spinor(list(z_tuple))])
    if len(stab) != 21:
        raise RuntimeError("stabilizer of a non-isotropic spinor must have "
                           "dimension 21")
    inv = invariant_subspace(stab, "Wedge4V")
    if len(inv) != 1:
        raise RuntimeError("stabilizer invariants in degree 4 not a line")
    return inv[0]


def _proportionality(u, v):
    """The scalar c with u = c v, or None."""
    for a, b in zip(u, v):
        if b != 0:
            c = a / b
            return c if all(x == c * y for x, y in zip(u, v)) else None
    return None if any(x != 0 for x in u) else Fraction(0)


def cayley_routes(s):
    """Both routes and the proportionality factor (A = factor * B)."""
    s = s if isinstance(s, Spinor) else Spinor(s)
    a = mat_vec(phi_matrix(), sym2_coords(s.z))
    b = _cayley_route_b(tuple(s.z))
    lam = _proportionality(a, b)
    return (from_coords(8, DEGREE4_MASKS, a), from_coords(8, DEGREE4_MASKS, b),
            lam)


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
    if lam is None:
        raise RuntimeError("Cayley class is not proportional to the "
                           "closed form")
    return lam


def perp_basis(s: Spinor):
    """Basis of the orthogonal complement of s inside S+."""
    lat = splus_lattice()
    row = [[lat.pair(s.z, [Fraction(1) if i == j else Fraction(0)
                           for i in range(8)]) for j in range(8)]]
    return nullspace(mat(row))


def branching_dims(s):
    """Dimension profile of degree-4 forms under the stabilizer of s.

    For non-isotropic s: the invariants are a line, the image of
    s (.) (s-perp) is the standard 7-dimensional piece, the remainder of
    the 35-dimensional image splits off 27, and the complementary
    star-eigenspace contributes 35; the profile sums to 70.
    """
    s = s if isinstance(s, Spinor) else Spinor(s)
    if s.pair(s) == 0:
        raise ValueError("branching profile needs a non-isotropic spinor")
    stab, _ = stabilizer_algebra([s])
    inv = invariant_subspace(stab, "Wedge4V")
    phi = phi_matrix()
    image_vectors = [mat_vec(phi, sym2_coords_pair(s.z, t))
                     for t in perp_basis(s)]
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

    Determined empirically from the interpolated map rather than asserted
    as a convention; the image must lie in a single eigenspace.
    """
    star = star_matrix()
    phi = phi_matrix()
    sample = [row[0] for row in phi]
    if all(x == 0 for x in sample):
        sample = [row[1] for row in phi]
    starred = mat_vec(star, sample)
    lam = _proportionality(starred, sample)
    if lam not in (1, -1):
        raise RuntimeError("image vector is not a star eigenvector")
    return int(lam)
