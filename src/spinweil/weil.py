"""Abelian fourfolds of Weil type: rational period sampling, the orthogonal
complex structure, the imaginary-quadratic action, the polarization, the
Hermitian matrix and its discriminant class, Weil classes, and the Hodge
criterion for the Cayley class.

Periods are restricted to points p + i q with rational p, q: this keeps
the complex structure, the field action and the polarization exactly
rational while sampling a Zariski-dense set of the period domain.  That
serves identities, which are polynomial (every identity verified here is),
but not dimension counts: a rational period gives a rational J, so every
sampled member is special, and its Hodge classes need not be those of the
very general member.  The complex structure J and the field action mu are
rational by construction, and one builder makes and checks both
(_spinor_ratio): each is c A_y^-1 A_x for non-pure rational spinors, with
A_x the matrix of v -> v x (spingeo.spinor_action_matrix), J = -A_q^-1 A_p
and mu = (s,s) A_s^-1 A_h, read off the isotropic annihilators of p + i q
and of sqrt(-d) h + (h,h) s.  For orthogonal x and y the square is
-c^2 (x,x)/(y,y) I, so J^2 = -I and mu^2 = -d I.  Other square roots are
handled by quadratic-extension scalars; nothing is ever evaluated
numerically.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .jsonio import to_text
from .lattices import (BilinearLattice, make_Splus, make_V,
                       orthogonal_complement, signature)
from .linalg import (det, mat, mat_mul, mat_vec, nullspace, rank,
                     scale_to_integers, solve_matrix, transpose)
from .multivector import (DEGREE4_MASKS, Multivector, coords_degree,
                          derive_multivector, indices_of, mask_of, pluecker,
                          wedge)
from .reps import (WEDGE2V_BASIS, cayley_class, derivation_matrix,
                   invariant_subspace, stabilizer_algebra, weight_multiset)
from .scalars import QuadExt, is_norm, rat, squarefree_part
from .spingeo import (Spinor, _proportionality, spinor_action_matrix,
                      subspace_of_spinor)

#: the period of the standard datum (spingeo.STANDARD_H, STANDARD_S)
STANDARD_PERIOD = ((0, 0, 1, 0, 0, 0, 1, 0), (0, 0, 0, 1, 0, 0, 0, 1))
#: the field scan's h = (0, k, 0, 0, 0, 1, 0, 0), k = 1, 2, 3, 5, against
#: the standard s
FIELD_SCAN_H = tuple((0, k, 0, 0, 0, 1, 0, 0) for k in (1, 2, 3, 5))
#: the draws of the period search before it gives up
PERIOD_TRIES = 5000


class Period(namedtuple("Period", "p q")):
    """A rational point p + i q of the period domain.

    Constraints: (p, p) = (q, q) > 0 and (p, q) = 0, which say exactly that
    the complex spinor is isotropic with positive pairing against its
    conjugate.
    """
    __slots__ = ()

    def __new__(cls, p, q):
        lat = make_Splus()
        pl, ql = list(p), list(q)
        if lat.pair(pl, ql) != 0:
            raise ValueError("period needs (p, q) = 0")
        if lat.pair(pl, pl) != lat.pair(ql, ql):
            raise ValueError("period needs (p, p) = (q, q)")
        if lat.pair(pl, pl) <= 0:
            raise ValueError("period needs (p, p) > 0")
        return super().__new__(cls, p, q)

    def pairs_to_zero_with(self, z) -> bool:
        lat = make_Splus()
        return (lat.pair(list(self.p), z) == 0
                and lat.pair(list(self.q), z) == 0)


def _sqrt_rational(x: Fraction) -> Fraction:
    return Fraction(isqrt(x.numerator), isqrt(x.denominator))


def complement_basis(h, s):
    """Coordinates of a basis of the rank-6 complement of <h, s> in S+;
    ValueError when the complement has another rank."""
    h, s = Spinor(h), Spinor(s)
    basis = orthogonal_complement(make_Splus(), [h.z, s.z])
    if len(basis) != 6:
        raise ValueError("complement is not of rank 6")
    return basis


def sample_period(h, s, seed=0) -> Period:
    """A rational period orthogonal to h and s.

    Searches small-height vectors u, w in the rank-6 complement; u must be
    of positive length a, the projection w' of w away from u of positive
    length c, and a c a rational square, in which case q = (sqrt(a c)/c) w'
    has the same length as u.  The search runs on integer vectors over the
    common denominator of the complement basis, paired through the integer
    Gram rows of the lattice (BilinearLattice._rows): with A = (U, U) > 0
    and T = (U, W), P = A W - T U has the sign of c and A (P, P) the square
    class of a c.  The accepted pair is read off these integers, with den
    the common denominator: p = U / den and q = isqrt(A (P, P)) P /
    ((P, P) den).  Deterministic for a fixed seed; raises after
    PERIOD_TRIES draws.
    """
    h, s = Spinor(h), Spinor(s)
    lat = make_Splus()
    if s.pair(h) != 0 or h.pair(h) <= 0 or s.pair(s) <= 0:
        raise ValueError("need orthogonal h, s spanning a positive "
                         "definite plane")
    comp, den = scale_to_integers(
        ((k, i), x) for k, v in enumerate(complement_basis(h, s))
        for i, x in enumerate(v))
    cols = [[comp.get((k, i), 0) for k in range(6)] for i in range(8)]
    rng = random.Random(seed)

    def pair(v, w):
        return sum(x * g * w[j] for x, row in zip(v, lat._rows) if x
                   for j, g in row)

    def draw():
        while True:
            c6 = [rng.randint(-3, 3) for _ in range(6)]
            if any(c6):
                return [sum(c * x for c, x in zip(c6, col)) for col in cols]

    positives = []
    for _ in range(PERIOD_TRIES):
        w = draw()
        ww = pair(w, w)
        if ww <= 0:
            continue
        # pair the new positive vector against every earlier one
        for u, a in positives:
            t = pair(u, w)
            proj = [a * wi - t * ui for wi, ui in zip(w, u)]
            pp = pair(proj, proj)
            ac = a * pp
            if ac > 0 and isqrt(ac) ** 2 == ac:
                scale = Fraction(isqrt(ac), pp * den)
                return Period(tuple(Fraction(x, den) for x in u),
                              tuple(scale * x for x in proj))
        if len(positives) < 64:
            positives.append((w, ww))
    raise RuntimeError(f"period search exhausted the height cap: h = "
                       f"{to_text(h.z)}, s = {to_text(s.z)}, seed {seed}, "
                       f"tries {PERIOD_TRIES}")


def _spinor_ratio(x: Spinor, y: Spinor, c):
    """The rational matrix c A_y^-1 A_x on V, for orthogonal rational
    spinors x and y with (y, y) > 0, checked to square to
    -c^2 (x, x)/(y, y) I (A_s is spinor_action_matrix); A_y^-1 A_x is the
    solution of A_y X = A_x, one elimination of [A_y | A_x].

    A_y is invertible: v y = 0 gives Q(v) y = v (v y) = 0, and as
    (y, y) > 0 the spinor y is not pure, so its annihilator is zero.
    """
    r = [[c * v for v in row] for row in
         solve_matrix(spinor_action_matrix(y), spinor_action_matrix(x))]
    lam = -c * c * x.pair(x) / y.pair(y)
    if mat_mul(r, r) != [[lam if a == b else 0 for b in range(8)]
                         for a in range(8)]:
        raise RuntimeError(f"square check (c A_y^-1 A_x)^2 = {lam} I failed")
    return r


def complex_structure(period: Period):
    """The rational orthogonal complex structure J = -A_q^-1 A_p of a period.

    J acts as +i on the annihilator Z of p + i q: x + i y lies in Z
    exactly when (x + i y)(p + i q) = 0, that is A_p x = A_q y, and then
    J x = -y.  J^2 = -I (by _spinor_ratio) and orthogonality for the form
    on V are checked.
    """
    j = _spinor_ratio(Spinor(period.p), Spinor(period.q), -1)
    g = make_V().gram
    if mat_mul(transpose(j), mat_mul(g, j)) != g:
        raise RuntimeError("J is not orthogonal for the form on V")
    return j


def field_parameters(h, s):
    """d = (h,h)(s,s) > 0 and its decomposition -d = m f^2, m squarefree."""
    h, s = Spinor(h), Spinor(s)
    a, b = h.pair(h), s.pair(s)
    d = a * b
    if d <= 0 or h.pair(s) != 0:
        raise ValueError("h, s must be orthogonal with positive lengths")
    md = -d
    num, den = md.numerator, md.denominator
    m = squarefree_part(num * den)
    f2 = (md / m)
    f = _sqrt_rational(f2)
    return d, m, f


def k_action(h, s):
    """The rational matrix mu = (s,s) A_s^-1 A_h of sqrt(-d) on V.

    mu acts as +sqrt(-d) on the annihilator of kappa = sqrt(-d) h +
    (h,h) s: x + sqrt(-d) y lies in it exactly when A_h x = -(h,h) A_s y,
    and then mu x = -d y, with d = (h,h)(s,s).  mu^2 = -d I is checked
    (by _spinor_ratio).  Returns (mu, d, m, f) with -d = m f^2, m
    squarefree.
    """
    h, s = Spinor(h), Spinor(s)
    d, m, f = field_parameters(h, s)
    return _spinor_ratio(h, s, s.pair(s)), d, m, f


def weil_condition(j, mu) -> bool:
    """Equal eigenvalue multiplicities of the field action on the +i part.

    With J^2 = -I, mu^2 = -d I and [J, mu] = 0 this is exactly
    trace(mu J) = 0.
    """
    comm = mat_mul(mu, j)
    if mat_mul(j, mu) != comm:
        raise ValueError("J and mu do not commute")
    return sum(comm[i][i] for i in range(8)) == 0


def polarization(mu, j):
    """The alternating form E(v, w) = (sqrt(-d) v, w) and its 2-form.

    Checks that E is alternating, of type (1,1) for J, and that the
    symmetric form E(J v, w) is positive definite, certified exactly by
    Sylvester's law of inertia: its signature is (8, 0, 0).  The 2-form
    coordinates are obtained from E by raising both indices with the
    (self-inverse) Gram of V, which is the equivariant identification of
    forms with bivectors.
    """
    g = make_V().gram
    e = mat_mul(transpose(mu), g)  # E[i][j] = (mu e_i, e_j)
    if e != [[-x for x in row] for row in transpose(e)]:
        raise RuntimeError("E is not alternating")
    jt = transpose(j)
    if mat_mul(jt, mat_mul(e, j)) != e:
        raise RuntimeError("E is not J-invariant (not of type (1,1))")
    bform = mat_mul(jt, e)
    if bform != transpose(bform):
        raise RuntimeError("E(J v, w) failed to be symmetric")
    if signature(BilinearLattice(bform)) != (8, 0, 0):
        raise ValueError("E(J v, v) is not positive definite: wrong "
                         "component or invalid period")
    omega_mat = mat_mul(g, mat_mul(e, g))
    terms = {}
    for a in range(8):
        for b in range(a + 1, 8):
            if omega_mat[a][b] != 0:
                terms[(1 << a) | (1 << b)] = omega_mat[a][b]
    return e, Multivector(8, terms)


def select_k_basis(mu):
    """Four vectors whose images under mu complete them to a basis of V."""
    chosen = []
    spanning = []
    for i in range(8):
        unit = [Fraction(0)] * 8
        unit[i] = Fraction(1)
        candidate = spanning + [unit, mat_vec(mu, unit)]
        if rank(mat(candidate)) == len(spanning) + 2:
            chosen.append(unit)
            spanning = candidate
        if len(chosen) == 4:
            return chosen
    raise RuntimeError("failed to select a basis over the field")


def hermitian_and_discriminant(mu, e, d, m, f):
    """The Hermitian matrix of the polarization and its discriminant class.

    H(x, y) = E(x, mu y) + sqrt(-d) E(x, y) on a 4-element basis over the
    field, the columns of V: Psi = V^T E mu V + sqrt(-d) V^T E V.  det(Psi)
    is rational and its class modulo norms decides triviality via is_norm.
    """
    vt = select_k_basis(mu)
    v = transpose(vt)
    vte = mat_mul(vt, e)
    psi = [[QuadExt(x, f * y, m) for x, y in zip(real, imag)]
           for real, imag in zip(mat_mul(vte, mat_mul(mu, v)),
                                 mat_mul(vte, v))]
    for a in range(4):
        for b in range(4):
            if psi[a][b] != psi[b][a].conj():
                raise RuntimeError("Psi failed to be Hermitian")
    dpsi = det(psi)
    if isinstance(dpsi, QuadExt):
        if dpsi.b != 0:
            raise RuntimeError("det(Psi) failed to be rational")
        dpsi = dpsi.a
    if dpsi == 0:
        raise RuntimeError("Psi is degenerate")
    return psi, dpsi, is_norm(dpsi, d)


#: one abelian fourfold of Weil type: make_weil_datum raises unless every
#: exact certificate holds, so each datum that exists carries all of them;
#: g is the joint stabilizer G of h and s, its 15 coefficient vectors, and
#: kappa the isotropic point sqrt(-d) h + (h,h) s of the plane, over
#: K = Q(sqrt(m)) with sqrt(-d) = f sqrt(m)
WeilDatum = namedtuple("WeilDatum", "h s d m f period j mu e omega psi disc "
                                    "disc_trivial g kappa")


def make_weil_datum(h, s, seed=0, period=None) -> WeilDatum:
    """Assemble and verify the full package for a choice of h, s, period.

    Its raises are the datum's certificates, each computed once, here:
    J^2 = -I and mu^2 = -d (_spinor_ratio), J orthogonal
    (complex_structure), [J, mu] = 0 (weil_condition), trace(mu J) = 0,
    E alternating, of type (1,1) and positive (polarization), and
    dim G = 15, G the joint stabilizer of h and s, checked nowhere else.
    The sign of the field action is normalized so that E(J v, v) > 0; the
    two signs correspond to the two embeddings of the field, exactly one
    of which matches the orientation of the period.
    """
    h, s = Spinor(h), Spinor(s)
    if period is None:
        period = sample_period(h, s, seed=seed)
    if not (period.pairs_to_zero_with(h.z) and period.pairs_to_zero_with(s.z)):
        raise ValueError("period must be orthogonal to h and s")
    j = complex_structure(period)
    mu, d, m, f = k_action(h, s)
    if not weil_condition(j, mu):
        raise RuntimeError("field eigenvalues are unbalanced on the +i part")
    try:
        e, omega = polarization(mu, j)
    except ValueError:
        mu = [[-x for x in row] for row in mu]
        e, omega = polarization(mu, j)
    psi, disc, trivial = hermitian_and_discriminant(mu, e, d, m, f)
    g = stabilizer_algebra([h, s])
    if len(g) != 15:
        raise RuntimeError(f"stabilizer of h = {to_text(h.z)}, s = "
                           f"{to_text(s.z)} is {len(g)}-dimensional, not 15")
    kappa = Spinor([QuadExt(h.pair(h) * sc, f * hc, m)
                    for hc, sc in zip(h.z, s.z)])
    return WeilDatum(h=h, s=s, d=d, m=m, f=f, period=period, j=j, mu=mu,
                     e=e, omega=omega, psi=psi, disc=disc,
                     disc_trivial=trivial, g=g, kappa=kappa)


def cayley_hodge_test(s, period: Period) -> bool:
    """Whether the Cayley class of s stays of type (2,2) for the period.

    The class is a Hodge class exactly when the derivation extension of
    the complex structure kills it; this is equivalent to the period being
    orthogonal to s.
    """
    s = Spinor(s)
    j = complex_structure(period)
    return derive_multivector(j, _cayley_class_of(tuple(s.z))).is_zero()


@lru_cache(maxsize=8)
def _cayley_class_of(z):
    """The Cayley class of the spinor with coordinates z, built once for
    the many periods tested against one spinor."""
    return cayley_class(Spinor(list(z)))


def omega_line_check(datum: WeilDatum) -> bool:
    """The 2-form spans the invariant line in degree 2 of the datum's G."""
    inv = invariant_subspace(datum.g, "Wedge2V")
    if len(inv) != 1:
        return False
    omega_coords = [datum.omega.coefficient(mask_of(t)) for t in WEDGE2V_BASIS]
    return _proportionality(omega_coords, inv[0]) not in (None, 0)


def weil_class_space(datum: WeilDatum):
    """The rational plane of Weil classes and its eigenvalue certificates.

    The plane is the rational descent of the two top wedge powers of the
    field eigenspaces; together with the square of the polarization form it
    spans a 3-dimensional space on which a field element x acts with
    eigenvalues Nm(x)^2, x^4 and conj(x)^4.  The Cayley class lies in the
    3-space but outside the line of the polarization square.
    """
    zk = subspace_of_spinor(datum.kappa)
    pk = pluecker(zk)
    a_part, b_part = [], []
    for mask in DEGREE4_MASKS:
        c = pk.coefficient(mask)
        if isinstance(c, QuadExt):
            a_part.append(c.a)
            b_part.append(c.b)
        else:
            a_part.append(rat(c))
            b_part.append(Fraction(0))
    plane_dim = rank(mat([a_part, b_part]))
    if plane_dim != 2:
        raise RuntimeError(f"Weil plane degenerated: rank {plane_dim}")
    omega2 = wedge(datum.omega, datum.omega)
    w2 = coords_degree(omega2, DEGREE4_MASKS)
    three = [w2, a_part, b_part]
    dim3 = rank(mat(three))
    cayley = _cayley_class_of(tuple(datum.s.z))
    cs = coords_degree(cayley, DEGREE4_MASKS)
    in_three = rank(mat(three + [cs])) == dim3
    not_in_omega_line = rank(mat([w2, cs])) == 2

    # derived action of the one-parameter subgroup distinguishing the
    # eigen-lines: mu / sqrt(-d), with eigenvalues +1, -1 on the two halves;
    # mu itself, a nonzero multiple, kills and moves the same forms
    hr_on_cs = derive_multivector(datum.mu, cayley)
    hr_on_omega2 = derive_multivector(datum.mu, omega2)

    # multiplicative action of x = 1 + sqrt(-d): the matrix I + mu, rational
    x = QuadExt(1, datum.f, datum.m)
    tmat = [[rat(1 if a == b else 0) + datum.mu[a][b] for b in range(8)]
            for a in range(8)]
    norm_sq = (x * x.conj()) ** 2
    omega2_img = coords_degree(
        _wedge4_apply(tmat, omega2), DEGREE4_MASKS)
    omega2_ok = omega2_img == [norm_sq * c for c in w2]
    zk_img = pluecker(mat_mul(tmat, zk))
    x4, xbar4 = x ** 4, x.conj() ** 4
    # the datum normalizes the sign of the field action for positivity, so
    # this line carries x^4 for one of the two conjugate embeddings
    kappa_ok = any(
        all(zk_img.coefficient(mask) == ev * pk.coefficient(mask)
            for mask in DEGREE4_MASKS)
        for ev in (x4, xbar4))
    return {
        "weil_plane_dim": plane_dim,
        "three_space_dim": dim3,
        "cayley_in_three_space": in_three,
        "cayley_not_in_omega_line": not_in_omega_line,
        "hr_kills_omega_square": hr_on_omega2.is_zero(),
        "hr_moves_cayley": not hr_on_cs.is_zero(),
        "norm_eigenvalue_on_omega_square": omega2_ok,
        "x4_eigenvalue_on_weil_line": kappa_ok,
    }


def _wedge4_apply(m, x: Multivector) -> Multivector:
    """Multiplicative wedge-4 action of a matrix on a degree-4 form."""
    out = Multivector.zero(8)
    for mask, c in x.terms.items():
        cols = indices_of(mask)
        sub = [[m[i][j] for j in cols] for i in range(8)]
        out = out + pluecker(sub).scale(c)
    return out


def h2_split(datum: WeilDatum):
    """Eigenvalue profile on the wedge square of S+ of the generator that
    scales the two isotropic points of the datum's plane <h, s>: kappa,
    read off the datum, and its conjugate.

    The generator X = 2 (kappa kappa-bar^T - kappa-bar kappa^T) G /
    (kappa, kappa-bar), G the Gram of S+, acts with eigenvalues 2, -2 on
    the two points kappa and kappa-bar (both isotropic) and 0 on the rank-6
    complement of <h, s>, which pairs to zero with both; its derivation
    action on the 28-dimensional wedge square has kernel of dimension
    16 = 15 + 1 and (+2, -2) eigenspaces of dimension 6 each.  Also checks
    that the wedge squares of S+ and V carry identical weight multisets.
    """
    k = datum.kappa.z
    kb = [x.conj() for x in k]
    lat = make_Splus()
    gk, gkb = mat_vec(lat.gram, k), mat_vec(lat.gram, kb)
    c = 2 / lat.pair(k, kb)
    xr = [[c * (k[a] * gkb[b] - kb[a] * gk[b]) for b in range(8)]
          for a in range(8)]
    d2 = derivation_matrix(xr, 2)
    dims = []
    for lam in (0, 2, -2):
        shifted = [[d2[a][b] - (lam if a == b else 0) for b in range(28)]
                   for a in range(28)]
        dims.append(len(nullspace(mat(shifted))))
    weights_equal = weight_multiset("Wedge2S+") == weight_multiset("Wedge2V")
    return {"profile": tuple(dims), "weights_match": weights_equal}


def datum_report(datum: WeilDatum) -> dict:
    """The values of one datum that its constructor does not certify.

    make_weil_datum's raises are the certificates, and a datum that exists
    has passed them all; the report holds only values it computes: the
    discriminant class and whether it is trivial, and whether omega has
    integral coordinates and spans the invariant line.
    """
    return {
        "discriminant": str(datum.disc),
        "discriminant_trivial": datum.disc_trivial,
        "omega_integral_coordinates": all(
            c.denominator == 1 for c in datum.omega.terms.values()),
        "omega_spans_invariant_line": omega_line_check(datum),
    }
