"""Named verification suite: every structural identity the library claims,
runnable as a whole or per suite, deterministically seeded.

Each check returns (passed, detail).  The registry backs the `verify` CLI
verb; the identity column states the mathematical fact being exercised.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import clifford, kuga, lattices, reps, scalars, spingeo, weil
from .clifford import CV, commutator, sigma_action
from .lattices import MukaiVector, make_Splus, make_V
from .jsonio import encode_scalar, to_text
from .linalg import (det, extend_span, identity, inverse, mat, mat_mul,
                     mat_vec, rank, scale_to_integers, transpose)
from .multivector import (DEGREE4_MASKS, Multivector, contract,
                          induced_gram4, pfaffian, pluecker, star_matrix,
                          wedge)
from .reps import splus_matrix
from .scalars import (QuadExt, TowerScalar, hilbert_symbol, relevant_places,
                      REAL_PLACE)
from .spingeo import (STANDARD_H, STANDARD_S, Spinor, graph_basis,
                      move_to_cell, random_alternating,
                      random_isotropic_spinor, spinor_inverse, spinor_map,
                      subspace_of_spinor)


@dataclass(frozen=True)
class Check:
    name: str
    suite: str
    identity: str
    fn: object


CHECKS = []


def register(name, suite, identity):
    def wrap(fn):
        CHECKS.append(Check(name, suite, identity, fn))
        return fn
    return wrap


def _mismatch(lhs, rhs, labels=None):
    """Where two matrices first differ, the entries as JSON through
    to_text; rows and columns named by labels when given."""
    i, j = next((i, j) for i, (p, q) in enumerate(zip(lhs, rhs))
                for j, (x, y) in enumerate(zip(p, q)) if x != y)
    at = f"({i}, {j})" if labels is None else f"({labels[i]}, {labels[j]})"
    return (f"entry {at} is {to_text(lhs[i][j])}, "
            f"not {to_text(rhs[i][j])}")


def _failed(seed, trial, what, inputs):
    """A randomized check's failure: its detail names the seed and the
    trial that reproduce it, and the offending inputs as JSON (to_text)."""
    return False, f"seed {seed}, trial {trial}: {what} = {to_text(inputs)}"


#: the degree-4 basis forms, e1234 to e5678
_DEGREE4_LABELS = ["e" + "".join(str(i + 1) for i in b)
                   for b in reps.WEDGE4V_BASIS]


def _rand_rational(rng, span=6):
    d = rng.randint(1, 4)
    return Fraction(rng.randint(-span, span), d)


def _rand_nonzero_rational(rng, span=6):
    while True:
        x = _rand_rational(rng, span)
        if x != 0:
            return x


# -- scalars -----------------------------------------------------------------

@register("field-axioms", "scalars",
          "associativity, commutativity, distributivity, inverses for the "
          "three scalar types")
def check_field_axioms(seed):
    rng = random.Random(seed)
    m = -5
    for trial in range(1000):
        kind = rng.randrange(3)
        if kind == 0:
            xs = [_rand_rational(rng) for _ in range(3)]
        elif kind == 1:
            xs = [QuadExt(_rand_rational(rng), _rand_rational(rng), m)
                  for _ in range(3)]
        else:
            xs = [TowerScalar(*(_rand_rational(rng) for _ in range(4)), m=m)
                  for _ in range(3)]
        a, b, c = xs
        laws = {
            "additive axioms":
                (a + b) + c == a + (b + c) and a + b == b + a,
            "multiplicative axioms":
                (a * b) * c == a * (b * c) and a * b == b * a,
            "distributivity": a * (b + c) == a * b + a * c,
            "inverse": a == 0 or a / a == 1}
        failed = [law for law, holds in laws.items() if not holds]
        if failed:
            return _failed(seed, trial, f"{failed[0]} failed at a, b, c", xs)
    return True, "1000 random triples"


@register("conjugation-and-norm", "scalars",
          "conj is an involution and Nm(xy) = Nm(x) Nm(y)")
def check_conj_norm(seed):
    rng = random.Random(seed)
    for trial in range(300):
        x = QuadExt(_rand_rational(rng), _rand_rational(rng), -3)
        y = QuadExt(_rand_rational(rng), _rand_rational(rng), -3)
        if x.conj().conj() != x:
            return _failed(seed, trial, "conj not an involution at x", x)
        if (x * y).norm() != x.norm() * y.norm():
            return _failed(seed, trial, "norm not multiplicative at x, y",
                           [x, y])
        t = TowerScalar(*(_rand_rational(rng) for _ in range(4)), m=-3)
        if t.conj_i().conj_m() != t.conj_m().conj_i():
            return _failed(seed, trial, "conjugations do not commute at t", t)
    return True, "300 random pairs"


@register("hilbert-bilinearity", "scalars",
          "(a,b)p = (b,a)p and (a a', b)p = (a,b)p (a',b)p")
def check_hilbert_bilinear(seed):
    rng = random.Random(seed)
    places = [REAL_PLACE, 2, 3, 5, 7, 11]
    for trial in range(300):
        a = _rand_nonzero_rational(rng)
        a2 = _rand_nonzero_rational(rng)
        b = _rand_nonzero_rational(rng)
        p = rng.choice(places)
        if hilbert_symbol(a, b, p) != hilbert_symbol(b, a, p):
            return _failed(seed, trial, f"symmetry failed at {p} for a, b",
                           [a, b])
        lhs = hilbert_symbol(a * a2, b, p)
        rhs = hilbert_symbol(a, b, p) * hilbert_symbol(a2, b, p)
        if lhs != rhs:
            return _failed(seed, trial, f"multiplicativity failed at {p} "
                           f"for a, a', b", [a, a2, b])
    return True, "300 random triples over 6 places"


@register("hilbert-product-formula", "scalars",
          "the product of (a,b)p over all places is +1")
def check_product_formula(seed):
    rng = random.Random(seed)
    for trial in range(100):
        a = _rand_nonzero_rational(rng, span=20)
        b = _rand_nonzero_rational(rng, span=20)
        prod = 1
        for p in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, p)
        if prod != 1:
            return _failed(seed, trial, "product formula failed for a, b",
                           [a, b])
    return True, "100 random pairs"


# -- lattices ----------------------------------------------------------------

def _random_unimodular(rng, n):
    m = identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


@register("signature-invariance", "lattices",
          "Sylvester signature is unchanged by unimodular change of basis")
def check_signature_invariance(seed):
    rng = random.Random(seed)
    for name, lat in (("V", make_V()), ("S+", make_Splus())):
        for trial in range(10):
            t = _random_unimodular(rng, 8)
            g2 = mat_mul(transpose(t), mat_mul(lat.gram, t))
            if lattices.signature(lattices.BilinearLattice(g2)) != \
                    lattices.signature(lat):
                return _failed(seed, f"{trial} on {name}",
                               "signature moved under congruence by T", t)
    return True, "20 random congruences"


@register("quadric-is-isotropy", "lattices",
          "z on the quadric iff (z,z) = 0 iff z1 z5 + z2 z6 + z3 z7 + "
          "z4 z8 = 0")
def check_quadric_isotropy(seed):
    rng = random.Random(seed)
    lat = make_Splus()
    for trial in range(1000):
        z = random_isotropic_spinor(rng)
        qsum = sum(z.z[i] * z.z[i + 4] for i in range(4))
        if lat.pair(z.z, z.z) != 2 * qsum or qsum != 0:
            return _failed(seed, trial, "isotropic construction left the "
                           "quadric at s", z.z)
    return True, "1000 random isotropic spinors"


@register("complement-orthogonality", "lattices",
          "every output of the complement pairs to zero with every input")
def check_complement(seed):
    rng = random.Random(seed)
    lat = make_Splus()
    for trial in range(25):
        vs = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(2)]
        if all(all(x == 0 for x in v) for v in vs):
            continue
        comp = lattices.orthogonal_complement(lat, vs)
        for w in comp:
            for v in vs:
                if lat.pair(w.coords, v) != 0:
                    return _failed(seed, trial, "complement vector pairs "
                                   "nonzero at w, inputs", [w.coords, vs])
    return True, "25 random vector pairs"


# -- exterior algebra --------------------------------------------------------

def _random_multivector(rng, n, nterms=4):
    terms = {}
    for _ in range(nterms):
        terms[rng.randrange(1 << n)] = Fraction(rng.randint(-3, 3))
    return Multivector(n, terms)


@register("wedge-algebra", "exterior",
          "wedge is associative and graded-commutative")
def check_wedge(seed):
    rng = random.Random(seed)
    for trial in range(1000):
        x = _random_multivector(rng, 4)
        y = _random_multivector(rng, 4)
        z = _random_multivector(rng, 4)
        if wedge(wedge(x, y), z) != wedge(x, wedge(y, z)):
            return _failed(seed, trial, "associativity failed at x, y, z",
                           [x, y, z])
    for trial in range(200):
        ka, kb = rng.randrange(4), rng.randrange(4)
        a, b = (Multivector(4, {m: Fraction(rng.randint(-2, 2))
                                for m in range(16) if bin(m).count('1') == k})
                for k in (ka, kb))
        sign = -1 if (ka * kb) % 2 else 1
        if wedge(a, b) != wedge(b, a).scale(sign):
            return _failed(seed, f"{trial} of commutativity", "graded "
                           "commutativity failed at a, b", [a, b])
    return True, "1000 associativity + 200 commutativity triples"


@register("contraction-derivation", "exterior",
          "D(x ^ y) = D(x) ^ y + (-1)^deg(x) x ^ D(y)")
def check_contraction(seed):
    rng = random.Random(seed)
    for trial in range(300):
        k = rng.randrange(4)
        dual = [0] * 4
        dual[rng.randrange(4)] = Fraction(rng.randint(1, 3))
        x = Multivector(4, {m: Fraction(rng.randint(-2, 2))
                            for m in range(16) if bin(m).count('1') == k})
        y = _random_multivector(rng, 4)
        lhs = contract(dual, wedge(x, y))
        sign = -1 if k % 2 else 1
        rhs = wedge(contract(dual, x), y) + wedge(x, contract(dual, y)).scale(sign)
        if lhs != rhs:
            return _failed(seed, trial, "derivation rule failed at D, x, y",
                           [dual, x, y])
    return True, "300 random pairs"


@register("pfaffian-congruence", "exterior",
          "Pfaff(T^t B T) = det(T) Pfaff(B), and Pfaff(B)^2 = det(B)")
def check_pfaffian(seed):
    rng = random.Random(seed)
    for size in (4, 6):
        for trial in range(25):
            b = random_alternating(rng, size=size)
            if pfaffian(b) ** 2 != det(b):
                return _failed(seed, f"{trial} of size {size}", "Pfaffian "
                               "square is not the determinant at B", b)
            t = [[Fraction(rng.randint(-2, 2)) for _ in range(size)]
                 for _ in range(size)]
            btb = mat_mul(transpose(t), mat_mul(b, t))
            if pfaffian(btb) != det(t) * pfaffian(b):
                return _failed(seed, f"{trial} of size {size}", "congruence "
                               "transformation rule failed at B, T", [b, t])
    return True, "50 random matrices of sizes 4 and 6"


@register("pluecker-equivariance", "exterior",
          "pluecker(M A) = det(A) pluecker(M) for 4 x 4 A")
def check_pluecker_equivariance(seed):
    rng = random.Random(seed)
    for trial in range(50):
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(4)]
             for _ in range(8)]
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(4)]
             for _ in range(4)]
        lhs = pluecker(mat_mul(m, a))
        rhs = pluecker(m).scale(det(a))
        if lhs != rhs:
            return _failed(seed, trial, "equivariance failed at M, A", [m, a])
    return True, "50 random pairs"


@register("star-self-adjoint", "exterior",
          "(star x, y) = (x, star y) for the induced degree-4 pairing")
def check_star_self_adjoint(seed):
    star = star_matrix()
    g4 = induced_gram4(make_V().gram)
    idx = {m: i for i, m in enumerate(DEGREE4_MASKS)}
    gm = [[Fraction(0)] * 70 for _ in range(70)]
    for (ma, mb), v in g4.items():
        gm[idx[ma]][idx[mb]] = v
    lhs = mat_mul(transpose(star), gm)
    rhs = mat_mul(gm, star)
    if lhs != rhs:
        return False, (f"seed {seed}, trial 0: (star x, y) against (x, star y)"
                       f" on basis forms e_I, e_J: "
                       f"{_mismatch(lhs, rhs, _DEGREE4_LABELS)}")
    return True, "70 x 70 exact matrix identity"


# -- clifford ----------------------------------------------------------------

@register("spin-dimension", "clifford",
          "the 28 basis elements of spin(V) are independent, n(2n-1) = 28")
def check_spin_dimension(seed):
    r, n = clifford.spin_v_dimension_check()
    return (r == 28 and n == 28), f"rank {r} of {n}"


@register("degree2-commutator", "clifford",
          "[x y, v] = (y,v) x - (x,v) y for vectors x, y, v")
def check_commutator_identity(seed):
    rng = random.Random(seed)
    alg = CV()
    lat = make_V()
    for trial in range(1000):
        xs = [[Fraction(rng.randint(-2, 2)) for _ in range(8)]
              for _ in range(3)]
        x, y, v = (alg.vector(c) for c in xs)
        lhs = commutator(x * y, v)
        rhs = (alg.vector(xs[0]).scale(lat.pair(xs[1], xs[2])) -
               alg.vector(xs[1]).scale(lat.pair(xs[0], xs[2])))
        if lhs != rhs:
            return _failed(seed, trial, "commutator identity failed at "
                           "x, y, v", xs)
    return True, "1000 random triples"


@register("module-structure", "clifford",
          "sigma(x y, n) = sigma(x, sigma(y, n)) and evens preserve the "
          "half-spin split")
def check_module_structure(seed):
    rng = random.Random(seed)
    alg = CV()
    for trial in range(1000):
        x, y = (alg.element({rng.randrange(256): Fraction(rng.randint(-2, 2))
                             for _ in range(2)}) for _ in range(2))
        eta = _random_multivector(rng, 4)
        if sigma_action(x * y, eta) != sigma_action(x, sigma_action(y, eta)):
            return _failed(seed, trial, "module law failed at x, y, eta",
                           [x.terms, y.terms, eta.terms])
    even_masks = [m for m in range(256) if bin(m).count('1') % 2 == 0]
    for trial in range(100):
        x = clifford.CliffordElement(
            alg, {rng.choice(even_masks): Fraction(rng.randint(-2, 2))
                  for _ in range(3)})
        eta = Multivector(4, {m: Fraction(rng.randint(-2, 2))
                              for m in spingeo.EVEN_MASKS})
        img = sigma_action(x, eta)
        if any(mm not in spingeo.EVEN_MASKS for mm in img.terms):
            return False, (f"seed {seed}, parity trial {trial}: even element "
                           f"mixed the halves at x, eta = "
                           f"{to_text([x.terms, eta.terms])}")
    return True, "1000 module law + 100 parity trials"


@register("twisted-conjugation-orthogonal", "clifford",
          "x v x* defines an orthogonal matrix of determinant one")
def check_twisted_conjugation(seed):
    rng = random.Random(seed)
    g = make_V().gram
    for trial in range(25):
        gelt = clifford.random_spin_group_element(rng)
        try:
            mtx = clifford.twisted_conjugation(gelt)
        except ValueError as exc:
            return False, (f"seed {seed}, trial {trial}: product of "
                           f"exponentials left the spin group ({exc})")
        mt = [[mtx[b2][a2] for b2 in range(8)] for a2 in range(8)]
        if mat_mul(mt, mat_mul(g, mtx)) != g or det(mtx) != 1:
            return False, (f"seed {seed}, trial {trial}: matrix is not "
                           f"special orthogonal")
    return True, "25 random group elements"


# -- spinor geometry ---------------------------------------------------------

@register("spinor-image-isotropic", "spinor",
          "the spinor image of every alternating matrix lies on the quadric")
def check_spinor_isotropic(seed):
    rng = random.Random(seed)
    for trial in range(500):
        b = random_alternating(rng)
        z = spinor_map(b)
        if not z.is_isotropic():
            return _failed(seed, trial, "image left the quadric at B", b)
    return True, "500 random matrices"


@register("spinor-equivariance", "spinor",
          "the spinor map intertwines the vector and half-spin actions")
def check_spinor_equivariance(seed):
    rng = random.Random(seed)
    for trial in range(100):
        g = clifford.random_spin_group_element(rng)
        b2 = random_alternating(rng, lo=-2, hi=2)
        try:
            rho_v = clifford.twisted_conjugation(g)
            rho_s = splus_matrix(g)
            z = spinor_map(b2)
            sub = subspace_of_spinor(z)
            moved = mat_mul(rho_v, sub.basis)
            gz = Spinor(mat_vec(rho_s, z.z))
            sub2 = subspace_of_spinor(gz)
        except (ValueError, RuntimeError) as exc:
            return False, f"seed {seed}, trial {trial}: {exc}"
        joint = [moved[i] + sub2.basis[i] for i in range(8)]
        if rank(mat(joint)) != 4:
            return False, (f"seed {seed}, trial {trial}: moved subspace does "
                           f"not match moved spinor")
    return True, "100 random (g, B) pairs"


@register("subspace-parity", "spinor",
          "spinor subspaces meet the reference half in even dimension")
def check_parity(seed):
    rng = random.Random(seed)
    for trial in range(200):
        z = random_isotropic_spinor(rng)
        if z.is_zero():
            continue
        try:
            sub = subspace_of_spinor(z)
        except RuntimeError as exc:
            return _failed(seed, trial, f"{exc} at s", z.z)
        # cross-check the annihilator against the cell-move route
        _, gmat, moved = move_to_cell(z)
        via_cell = mat_mul(inverse(gmat), graph_basis(spinor_inverse(moved)))
        joint = [sub.basis[i] + via_cell[i] for i in range(8)]
        if rank(mat(joint)) != 4:
            return _failed(seed, trial, "cell-move route spans another "
                           "subspace at s", z.z)
    return True, "200 random isotropic spinors"


@register("paper-point-fixtures", "spinor",
          "the two distinguished complex quadric points and their "
          "2-dimensional intersection")
def check_nu_fixtures(seed):
    i = QuadExt(0, 1, -1)
    one = QuadExt(1, 0, -1)
    b1 = [[0 * one, one, -i, -i],
          [-one, 0 * one, i, -i],
          [i, -i, 0 * one, -one],
          [i, i, one, 0 * one]]
    b2 = [[0 * one, -one, -i, i],
          [one, 0 * one, -i, -i],
          [i, i, 0 * one, one],
          [-i, i, -one, 0 * one]]
    ell1 = spinor_map(b1)
    ell2 = spinor_map(b2)
    if ell1.z != [one, one, -i, -i, one, one, -i, -i]:
        return False, "first fixture mismatched"
    if ell2.z != [one, -one, -i, i, one, -one, -i, i]:
        return False, "second fixture mismatched"
    z1 = graph_basis(b1)
    z2 = graph_basis(b2)
    joint = [z1[r] + z2[r] for r in range(8)]
    inter = 8 - rank(mat(joint))
    c = [[z1[r][k] for k in range(4)] for r in range(8)]
    d = [[z2[r][k] for k in range(4)] for r in range(8)]
    w1 = [c[r][0] - i * c[r][2] for r in range(8)]
    w2 = [d[r][0] - i * d[r][2] for r in range(8)]
    if w1 != w2:
        return False, "column identity c1 - i c3 = d1 - i d3 failed"
    return inter == 2, f"intersection dimension {inter}"


# -- representations ---------------------------------------------------------

@register("bracket-compatibility", "reps",
          "action([x, y]) = [action(x), action(y)] on all seven spaces")
def check_brackets(seed):
    rng = random.Random(seed)
    table = clifford.spin_v_xyz_table()
    spaces = ["V", "S+", "S-", "Wedge2V", "Sym2S+", "Wedge2S+"]
    # (space, (basis index, scale) of x, the same of y), drawn in this order
    trials = [(spaces[trial % len(spaces)],
               (rng.randrange(28), rng.randint(1, 3)),
               (rng.randrange(28), rng.randint(1, 3))) for trial in range(12)]
    trials.append(("Wedge4V", (0, 1), (20, 1)))
    for trial, (name, *pair) in enumerate(trials):
        x, y = (table[a][1].scale(Fraction(c)) for a, c in pair)
        z = commutator(x, y)
        mx = reps.derived_action(x, name)
        my = reps.derived_action(y, name)
        mz = reps.derived_action(z, name)
        lhs = mat_mul(mx, my)
        rhs = [[a + b for a, b in zip(ra, rb)]
               for ra, rb in zip(mz, mat_mul(my, mx))]
        if lhs != rhs:
            x_text, y_text = (f"{encode_scalar(Fraction(c))}*{table[a][0]}"
                              for a, c in pair)
            return False, (f"seed {seed}, trial {trial}: bracket failed on "
                           f"{name} for x = {x_text}, y = {y_text}: "
                           f"{_mismatch(lhs, rhs)}")
    return True, "randomized pairs on all seven spaces"


@register("symmetric-square-split", "reps",
          "squares of quadric points span 35 dimensions, the invariant "
          "line completes the 36, and phi kills the invariant line")
def check_sym_split(seed):
    basis = {}
    line = reps.gamma0_line()
    for trial, (b, u) in enumerate(reps.quadric_square_span()
                                   + [(None, line)]):
        if not extend_span(basis, scale_to_integers(enumerate(u))[0]):
            what = (f"the invariant line {to_text(u)}" if b is None else
                    f"the square of sample B = {to_text(b)}")
            return False, (f"seed {seed}, trial {trial}: {what} lies in the "
                           f"span of the {trial} vectors before it")
    image = mat_vec(reps.phi_matrix(), line)
    if any(x != 0 for x in image):
        return False, (f"seed {seed}: phi sends the invariant line to "
                       f"{to_text(image)}, not 0")
    return len(basis) == 36, "35 + 1 = 36 split, phi(gamma0) = 0"


@register("veronese-pluecker", "reps",
          "phi(z (.) z) is the Pluecker image of the subspace of z, for z "
          "the spinor of B")
def check_veronese_pluecker(seed):
    rng = random.Random(seed)
    for trial in range(3):
        b = random_alternating(rng)
        if not reps.veronese_pluecker_check(b):
            return _failed(seed, trial, "phi(z (.) z) is not the Pluecker "
                           "image at B", b)
    return True, "3 random B"


@register("star-eigenspaces-stable", "reps",
          "the Hodge star commutes with every derived degree-4 action")
def check_star_stable(seed):
    rng = random.Random(seed)
    star = star_matrix()
    table = clifford.spin_v_xyz_table()
    for trial in range(4):
        label, x, _ = table[rng.randrange(28)]
        m = reps.derived_action(x, "Wedge4V")
        lhs, rhs = mat_mul(star, m), mat_mul(m, star)
        if lhs != rhs:
            return False, (f"seed {seed}, trial {trial}: star does not commute"
                           f" with the action of x = {label}: "
                           f"{_mismatch(lhs, rhs, _DEGREE4_LABELS)}")
    return True, "4 random generators"


@register("cayley-image-one-eigenspace", "reps",
          "the symmetric-square image lands in a single star eigenspace")
def check_phi_eigenspace(seed):
    phi = reps.phi_matrix()
    sgn = reps.gamma2alpha_star_sign()
    image = mat_mul(star_matrix(), phi)
    for col, (a, b) in enumerate(reps.SYM2_BASIS):
        v, sv = [row[col] for row in phi], [row[col] for row in image]
        if sv != [sgn * x for x in v]:
            return False, (f"seed {seed}, trial {col}: the image of "
                           f"z{a + 1} z{b + 1} is not in the eigenspace "
                           f"{sgn}: star of {to_text(v)} is "
                           f"{to_text(sv)}")
    return True, f"eigenvalue {sgn}"


@register("scaling-element-spectrum", "reps",
          "the sum of the Cartan generators acts on S+ with spectrum "
          "{2, -2, 0^6} and the stated eigenvectors")
def check_acth_spectrum(seed):
    x = CV().zero()
    for h in clifford.cartan_elements():
        x = x + h
    m = reps.derived_action(x, "S+")
    diag = [m[i][i] for i in range(8)]
    offdiag = all(m[i][j] == 0 for i in range(8) for j in range(8) if i != j)
    want = [Fraction(v) for v in (-2, 0, 0, 0, 2, 0, 0, 0)]
    return (offdiag and diag == want), f"diagonal {to_text(diag)}"


# -- weil --------------------------------------------------------------------

@register("weil-datum-battery", "weil",
          "J^2 = -I, orthogonality, mu^2 = -d, commutation, balanced "
          "trace, E alternating (1,1) positive, trivial discriminant")
def check_weil_battery(seed):
    rng = random.Random(seed)
    for trial in range(4):
        period_seed = rng.randrange(10 ** 6)
        where = (f"seed {seed}, trial {trial}: period of sample seed "
                 f"{period_seed}")
        try:
            datum = weil.make_weil_datum(STANDARD_H, STANDARD_S,
                                         seed=period_seed)
            rep = weil.datum_report(datum)
        except (ValueError, RuntimeError) as exc:
            return False, f"{where}: {exc}"
        bad = [k for k, v in rep.items()
               if isinstance(v, bool) and not v]
        if bad:
            return False, f"{where}: failed: {bad}"
    return True, "4 sampled periods, full battery"


@register("hodge-criterion", "weil",
          "the derivation of J kills the Cayley class iff the period is "
          "orthogonal to the spinor")
def check_hodge_criterion(seed):
    rng = random.Random(seed)
    s = Spinor(STANDARD_S)
    # periods orthogonal to h and s, then to a fixed vector and h
    planes = (("orthogonal", STANDARD_H, s),
              ("generic", weil.STANDARD_PERIOD[0], STANDARD_H))
    ok = 0
    for trial in range(10):
        for kind, u, w in planes:
            period_seed = rng.randrange(10 ** 6)
            where = (f"seed {seed}, trial {trial}: {kind} period of sample "
                     f"seed {period_seed}")
            try:
                per = weil.sample_period(u, w, seed=period_seed)
                claim = weil.cayley_hodge_test(s, per)
            except (ValueError, RuntimeError) as exc:
                return False, f"{where}: {exc}"
            if claim != per.pairs_to_zero_with(s.z):
                return False, f"{where}: criterion mismatched"
            ok += 1
    return True, f"{ok} periods, both signs of the criterion"


@register("omega-invariant-line", "weil",
          "the polarization form spans the stabilizer-invariant line in "
          "degree 2")
def check_omega_line(seed):
    datum = weil.make_weil_datum(STANDARD_H, STANDARD_S,
                                 period=weil.Period(*weil.STANDARD_PERIOD))
    return weil.omega_line_check(datum), "standard datum"


@register("field-scan", "weil",
          "the discriminant fields realize squarefree parts 1, 2, 3, 5")
def check_field_scan(seed):
    parts = set()
    for h in weil.FIELD_SCAN_H:
        d, m, f = weil.field_parameters(h, STANDARD_S)
        parts.add(-m)
    return parts == {1, 2, 3, 5}, f"parts {sorted(parts)}"


# -- kuga --------------------------------------------------------------------

@register("even-algebra-closure", "kuga",
          "the even Clifford algebra of the complement has dimension 32 "
          "and is closed under multiplication")
def check_even_closure(seed):
    rng = random.Random(seed)
    _, lattice = kuga.complement_data(STANDARD_H, STANDARD_S)
    algebra = clifford.CliffordAlgebra(lattice)
    masks = tuple(algebra.basis_masks(even_only=True))
    if len(masks) != 32:
        return False, "dimension is not 32"
    for trial in range(50):
        x = algebra.element({rng.choice(masks): Fraction(rng.randint(-2, 2))
                             for _ in range(3)})
        y = algebra.element({rng.choice(masks): Fraction(rng.randint(-2, 2))
                             for _ in range(3)})
        if not (x * y).is_even():
            return _failed(seed, trial, "product left the even part at the "
                           "terms of x, y", [x.terms, y.terms])
    return True, "50 random products"


@register("center-basis-invariance", "kuga",
          "the center dimension and generator square class are unchanged "
          "by unimodular change of basis")
def check_center_invariance(seed):
    rng = random.Random(seed)
    _, lattice = kuga.complement_data(STANDARD_H, STANDARD_S)
    changes = [identity(6)] + [_random_unimodular(rng, 6) for _ in range(2)]
    parts = []
    for trial, t in enumerate(changes):
        g2 = mat_mul(transpose(t), mat_mul(lattice.gram, t))
        basis, sq = kuga.ks_center(lattices.BilinearLattice(g2))
        where = f"seed {seed}, trial {trial}: T = {to_text(t)}"
        if sq is None:
            return False, f"{where}: center of dimension {len(basis)}, not 2"
        parts.append(scalars.squarefree_part(sq.numerator * sq.denominator))
        if parts[-1] != parts[0]:
            return False, f"{where}: square class {parts[-1]}, not {parts[0]}"
    return True, f"square class {parts[0]}"


@register("ks-complex-structure", "kuga",
          "J_KS squares to -I and commutes with right multiplications")
def check_ks_structure(seed):
    datum = kuga.ks_complex_structure(STANDARD_H, STANDARD_S,
                                      weil.Period(*weil.STANDARD_PERIOD))
    if not kuga.ks_right_commutation(datum, seed=seed):
        return False, (f"seed {seed}: a right multiplication by a random even "
                       f"element does not commute with J_KS")
    return True, "construction validates J^2 = -I internally"


# -- mukai -------------------------------------------------------------------

@register("mukai-pairing", "mukai",
          "z -> (z_0, (z_1, z_5, z_2, z_6, z_3, z_7), -z_4) is an isometry "
          "of S+ onto the Mukai lattice, exp(B) goes to (1, c(B), -Pf B) of "
          "square 0, and (s_n, s_n) = 2n")
def check_mukai(seed):
    rng = random.Random(seed)
    for trial in range(100):
        v, w = (MukaiVector(rng.randint(-5, 5), tuple(
            rng.randint(-5, 5) for _ in range(6)), rng.randint(-5, 5))
            for _ in range(2))
        if lattices.mukai_pairing(v, w) != -(v.r * w.s + w.r * v.s) + sum(
                v.c[i] * w.c[i ^ 1] for i in range(6)):
            return _failed(seed, trial, "pairing differs from "
                           "-(r s' + r' s) + c . c' at v, w", [v, w])
    for trial in range(50):
        b = random_alternating(rng)
        v = MukaiVector(1, (b[0][1], -b[2][3], b[0][2], b[1][3], b[0][3],
                            -b[1][2]), -pfaffian(b))
        if v.z != spinor_map(b).z or lattices.mukai_pairing(v, v):
            return _failed(seed, f"{trial} of exp(B)", "exp(B) is not "
                           "(1, c(B), -Pf B) of square 0 at B", b)
    for n in (3, 4, 5):
        sq, _ = lattices.moduli_dimension(n)
        if sq != 2 * n or MukaiVector(1, (0,) * 6, -n).z != \
                reps.standard_spinor(-n).z:
            return _failed(seed, f"s_{n}", "s_n is not standard_spinor(-n)"
                           " of square 2n; (s_n, s_n)", sq)
    return True, "100 random pairs, 50 exponentials, n in {3, 4, 5}"


def run_checks(suite=None, seed=20240):
    """Run the registered checks; returns a list of result dicts, each
    with the wall time of its check in seconds as elapsed_s and its CPU
    time (time.process_time) as cpu_s."""
    results = []
    for check in CHECKS:
        if suite and check.suite != suite:
            continue
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            ok, detail = check.fn(seed)
        except Exception as exc:  # a crash is a failure with the reason
            ok, detail = False, f"exception: {exc}"
        results.append({
            "name": check.name,
            "suite": check.suite,
            "identity": check.identity,
            "passed": bool(ok),
            "detail": str(detail),
            "elapsed_s": round(time.perf_counter() - start, 6),
            "cpu_s": round(time.process_time() - cpu_start, 6),
        })
    return results


def suites():
    return sorted({c.suite for c in CHECKS})
