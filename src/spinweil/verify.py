"""Named verification suite: every structural identity the library claims,
runnable as a whole or per suite, deterministically seeded.

Each check is a generator of its trials: given the seed's random.Random,
it yields (trial, inputs) as a trial starts (again when the inputs it
names change), yields the text of what failed when that trial fails, and
returns its passing detail.  _drive alone runs them, and it writes
a failure as "seed S, trial T: what = <inputs as JSON, by to_text>" and a
crash as "seed S, trial T: <exception type>: <message> (<file>:<line> in
<function>) = <inputs>", the last frame of the traceback in this package
(the last frame of all when none is), so an arithmetic fault names the
package line that divided, not fractions.py; T is "set-up" and the inputs
[] before the first trial.  The identity column states the
mathematical fact being exercised.
"""

from __future__ import annotations

import os
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import clifford, kuga, lattices, reps, scalars, spingeo, weil
from .clifford import CV, commutator, sigma_action
from .lattices import MukaiVector, make_Splus, make_V
from .jsonio import encode_scalar, to_text
from .linalg import (det, extend_span, identity, inverse, mat, mat_mul,
                     mat_vec, rank, scale_to_integers, transpose)
from .multivector import (DEGREE4_MASKS, Multivector, contract,
                          coords_degree, induced_gram4, pfaffian, pluecker,
                          star_matrix, wedge)
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
    """Register a check, a generator as the module docstring states; its
    Check's fn(seed) runs it through _drive and returns (passed, detail)."""
    def wrap(trials):
        CHECKS.append(Check(name, suite, identity, partial(_drive, trials)))
        return trials
    return wrap


def _drive(trials, seed):
    """Run trials(random.Random(seed)) to its end, (True, its passing
    detail), or to the trial that fails or crashes, (False, its text)."""
    steps = trials(random.Random(seed))
    trial, inputs = "set-up", []
    try:
        step = next(steps)
        while not isinstance(step, str):
            trial, inputs = step
            step = next(steps)
    except Exception as exc:  # the check returned, or crashed in its trial
        if isinstance(exc, StopIteration):
            return True, exc.value
        frames = traceback.extract_tb(exc.__traceback__)
        here = os.path.dirname(__file__)
        frame = next((f for f in reversed(frames)
                      if os.path.dirname(f.filename) == here), frames[-1])
        where = os.path.basename(frame.filename)
        step = (f"{type(exc).__name__}: {exc} ({where}:{frame.lineno} in "
                f"{frame.name})")
    return False, f"seed {seed}, trial {trial}: {step} = {to_text(inputs)}"


def _mismatch(lhs, rhs, labels):
    """Where two matrices first differ: [row label, column label], and the
    text "is <lhs entry>, not <rhs entry>", entries as JSON (to_text)."""
    i, j = next((i, j) for i, (p, q) in enumerate(zip(lhs, rhs))
                for j, (x, y) in enumerate(zip(p, q)) if x != y)
    return ([labels[i], labels[j]],
            f"is {to_text(lhs[i][j])}, not {to_text(rhs[i][j])}")


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
def check_field_axioms(rng):
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
        yield trial, xs
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
            yield f"{failed[0]} failed at a, b, c"
    return "1000 random triples"


@register("conjugation-and-norm", "scalars",
          "conj is an involution and Nm(xy) = Nm(x) Nm(y)")
def check_conj_norm(rng):
    for trial in range(300):
        x = QuadExt(_rand_rational(rng), _rand_rational(rng), -3)
        y = QuadExt(_rand_rational(rng), _rand_rational(rng), -3)
        yield trial, x
        if x.conj().conj() != x:
            yield "conj not an involution at x"
        yield trial, [x, y]
        if (x * y).norm() != x.norm() * y.norm():
            yield "norm not multiplicative at x, y"
        t = TowerScalar(*(_rand_rational(rng) for _ in range(4)), m=-3)
        yield trial, t
        if t.conj_i().conj_m() != t.conj_m().conj_i():
            yield "conjugations do not commute at t"
    return "300 random pairs"


@register("hilbert-bilinearity", "scalars",
          "(a,b)p = (b,a)p and (a a', b)p = (a,b)p (a',b)p")
def check_hilbert_bilinear(rng):
    places = [REAL_PLACE, 2, 3, 5, 7, 11]
    for trial in range(300):
        a, a2, b = (_rand_nonzero_rational(rng) for _ in range(3))
        p = rng.choice(places)
        yield trial, [a, b]
        if hilbert_symbol(a, b, p) != hilbert_symbol(b, a, p):
            yield f"symmetry failed at {p} for a, b"
        yield trial, [a, a2, b]
        lhs = hilbert_symbol(a * a2, b, p)
        rhs = hilbert_symbol(a, b, p) * hilbert_symbol(a2, b, p)
        if lhs != rhs:
            yield f"multiplicativity failed at {p} for a, a', b"
    return "300 random triples over 6 places"


@register("hilbert-product-formula", "scalars",
          "the product of (a,b)p over all places is +1")
def check_product_formula(rng):
    for trial in range(100):
        a, b = (_rand_nonzero_rational(rng, span=20) for _ in range(2))
        yield trial, [a, b]
        prod = 1
        for p in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, p)
        if prod != 1:
            yield "product formula failed for a, b"
    return "100 random pairs"


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
def check_signature_invariance(rng):
    for name, lat in (("V", make_V()), ("S+", make_Splus())):
        for trial in range(10):
            t = _random_unimodular(rng, 8)
            yield f"{trial} on {name}", t
            g2 = mat_mul(transpose(t), mat_mul(lat.gram, t))
            if lattices.signature(lattices.BilinearLattice(g2)) != \
                    lattices.signature(lat):
                yield "signature moved under congruence by T"
    return "20 random congruences"


@register("quadric-is-isotropy", "lattices",
          "z on the quadric iff (z,z) = 0 iff z1 z5 + z2 z6 + z3 z7 + "
          "z4 z8 = 0")
def check_quadric_isotropy(rng):
    lat = make_Splus()
    for trial in range(1000):
        z = random_isotropic_spinor(rng)
        yield trial, z.z
        qsum = sum(z.z[i] * z.z[i + 4] for i in range(4))
        if lat.pair(z.z, z.z) != 2 * qsum or qsum != 0:
            yield "isotropic construction left the quadric at s"
    return "1000 random isotropic spinors"


@register("complement-orthogonality", "lattices",
          "every output of the complement pairs to zero with every input")
def check_complement(rng):
    lat = make_Splus()
    for trial in range(25):
        vs = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(2)]
        if all(all(x == 0 for x in v) for v in vs):
            continue
        yield trial, vs
        for w in lattices.orthogonal_complement(lat, vs):
            if any(lat.pair(w, v) != 0 for v in vs):
                yield trial, [w, vs]
                yield "complement vector pairs nonzero at w, inputs"
    return "25 random vector pairs"


# -- exterior algebra --------------------------------------------------------

def _random_multivector(rng, n, nterms=4):
    terms = {}
    for _ in range(nterms):
        terms[rng.randrange(1 << n)] = Fraction(rng.randint(-3, 3))
    return Multivector(n, terms)


@register("wedge-algebra", "exterior",
          "wedge is associative and graded-commutative")
def check_wedge(rng):
    for trial in range(1000):
        x, y, z = (_random_multivector(rng, 4) for _ in range(3))
        yield trial, [x, y, z]
        if wedge(wedge(x, y), z) != wedge(x, wedge(y, z)):
            yield "associativity failed at x, y, z"
    for trial in range(200):
        ka, kb = rng.randrange(4), rng.randrange(4)
        a, b = (Multivector(4, {m: Fraction(rng.randint(-2, 2))
                                for m in range(16) if bin(m).count('1') == k})
                for k in (ka, kb))
        yield f"{trial} of commutativity", [a, b]
        sign = -1 if (ka * kb) % 2 else 1
        if wedge(a, b) != wedge(b, a).scale(sign):
            yield "graded commutativity failed at a, b"
    return "1000 associativity + 200 commutativity triples"


@register("contraction-derivation", "exterior",
          "D(x ^ y) = D(x) ^ y + (-1)^deg(x) x ^ D(y)")
def check_contraction(rng):
    for trial in range(300):
        k = rng.randrange(4)
        dual = [0] * 4
        dual[rng.randrange(4)] = Fraction(rng.randint(1, 3))
        x = Multivector(4, {m: Fraction(rng.randint(-2, 2))
                            for m in range(16) if bin(m).count('1') == k})
        y = _random_multivector(rng, 4)
        yield trial, [dual, x, y]
        lhs = contract(dual, wedge(x, y))
        sign = -1 if k % 2 else 1
        rhs = wedge(contract(dual, x), y) + wedge(x, contract(dual, y)).scale(sign)
        if lhs != rhs:
            yield "derivation rule failed at D, x, y"
    return "300 random pairs"


@register("pfaffian-congruence", "exterior",
          "Pfaff(T^t B T) = det(T) Pfaff(B), and Pfaff(B)^2 = det(B)")
def check_pfaffian(rng):
    for size in (4, 6):
        for trial in range(25):
            b = random_alternating(rng, size=size)
            yield f"{trial} of size {size}", b
            if pfaffian(b) ** 2 != det(b):
                yield "Pfaffian square is not the determinant at B"
            t = [[Fraction(rng.randint(-2, 2)) for _ in range(size)]
                 for _ in range(size)]
            yield f"{trial} of size {size}", [b, t]
            btb = mat_mul(transpose(t), mat_mul(b, t))
            if pfaffian(btb) != det(t) * pfaffian(b):
                yield "congruence transformation rule failed at B, T"
    return "50 random matrices of sizes 4 and 6"


@register("pluecker-equivariance", "exterior",
          "pluecker(M A) = det(A) pluecker(M) for 4 x 4 A")
def check_pluecker_equivariance(rng):
    for trial in range(50):
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(4)]
             for _ in range(8)]
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(4)]
             for _ in range(4)]
        yield trial, [m, a]
        if pluecker(mat_mul(m, a)) != pluecker(m).scale(det(a)):
            yield "equivariance failed at M, A"
    return "50 random pairs"


@register("star-self-adjoint", "exterior",
          "(star x, y) = (x, star y) for the induced degree-4 pairing")
def check_star_self_adjoint(rng):
    star = star_matrix()
    g4 = induced_gram4(make_V().gram)
    gm = [[g4.get((ma, mb), 0) for mb in DEGREE4_MASKS]
          for ma in DEGREE4_MASKS]
    lhs = mat_mul(transpose(star), gm)
    rhs = mat_mul(gm, star)
    if lhs != rhs:
        at, text = _mismatch(lhs, rhs, _DEGREE4_LABELS)
        yield 0, at
        yield f"(star x, y) {text} as (x, star y) at basis forms x, y"
    return "70 x 70 exact matrix identity"


# -- clifford ----------------------------------------------------------------

@register("spin-dimension", "clifford",
          "the 28 basis elements of spin(V) are independent, n(2n-1) = 28")
def check_spin_dimension(rng):
    table = clifford.spin_v_xyz_table()
    r, n = rank([[c for row in clifford.spin_so_iso(x) for c in row]
                 for _, x, _ in table]), len(table)
    if (r, n) != (28, 28):
        yield 0, [label for label, _, _ in table]
        yield f"rank {r} of {n} on V, not 28 of 28, at the basis of spin(V)"
    return f"rank {r} of {n}"


@register("degree2-commutator", "clifford",
          "[x y, v] = (y,v) x - (x,v) y for vectors x, y, v")
def check_commutator_identity(rng):
    alg = CV()
    lat = make_V()
    for trial in range(1000):
        xs = [[Fraction(rng.randint(-2, 2)) for _ in range(8)]
              for _ in range(3)]
        yield trial, xs
        x, y, v = (alg.vector(c) for c in xs)
        rhs = (x.scale(lat.pair(xs[1], xs[2])) -
               y.scale(lat.pair(xs[0], xs[2])))
        if commutator(x * y, v) != rhs:
            yield "commutator identity failed at x, y, v"
    return "1000 random triples"


@register("module-structure", "clifford",
          "sigma(x y, n) = sigma(x, sigma(y, n)) and evens preserve the "
          "half-spin split")
def check_module_structure(rng):
    alg = CV()
    for trial in range(1000):
        x, y = (alg.element({rng.randrange(256): Fraction(rng.randint(-2, 2))
                             for _ in range(2)}) for _ in range(2))
        eta = _random_multivector(rng, 4)
        yield trial, [x.terms, y.terms, eta.terms]
        if sigma_action(x * y, eta) != sigma_action(x, sigma_action(y, eta)):
            yield "module law failed at x, y, eta"
    even_masks = [m for m in range(256) if bin(m).count('1') % 2 == 0]
    for trial in range(100):
        x = clifford.CliffordElement(
            alg, {rng.choice(even_masks): Fraction(rng.randint(-2, 2))
                  for _ in range(3)})
        eta = Multivector(4, {m: Fraction(rng.randint(-2, 2))
                              for m in spingeo.EVEN_MASKS})
        yield f"{trial} of parity", [x.terms, eta.terms]
        img = sigma_action(x, eta)
        if any(mm not in spingeo.EVEN_MASKS for mm in img.terms):
            yield "even element mixed the halves at x, eta"
    return "1000 module law + 100 parity trials"


@register("twisted-conjugation-orthogonal", "clifford",
          "x v x* defines an orthogonal matrix of determinant one")
def check_twisted_conjugation(rng):
    g = make_V().gram
    for trial in range(25):
        gelt = clifford.random_spin_group_element(rng)
        yield trial, gelt.terms
        mtx = clifford.twisted_conjugation(gelt)
        if mat_mul(transpose(mtx), mat_mul(g, mtx)) != g or det(mtx) != 1:
            yield "matrix is not special orthogonal at the terms of g"
    return "25 random group elements"


# -- spinor geometry ---------------------------------------------------------

@register("spinor-image-isotropic", "spinor",
          "the spinor image of every alternating matrix lies on the quadric")
def check_spinor_isotropic(rng):
    for trial in range(500):
        b = random_alternating(rng)
        yield trial, b
        if not spinor_map(b).is_isotropic():
            yield "image left the quadric at B"
    return "500 random matrices"


@register("spinor-equivariance", "spinor",
          "the spinor map intertwines the vector and half-spin actions")
def check_spinor_equivariance(rng):
    for trial in range(100):
        g = clifford.random_spin_group_element(rng)
        b2 = random_alternating(rng, lo=-2, hi=2)
        yield trial, [g.terms, b2]
        rho_v = clifford.twisted_conjugation(g)
        rho_s = reps.splus_matrix(g)
        z = spinor_map(b2)
        moved = mat_mul(rho_v, subspace_of_spinor(z))
        sub2 = subspace_of_spinor(Spinor(mat_vec(rho_s, z.z)))
        joint = [moved[i] + sub2[i] for i in range(8)]
        if rank(mat(joint)) != 4:
            yield ("moved subspace does not match moved spinor at the terms "
                   "of g, B")
    return "100 random (g, B) pairs"


@register("subspace-parity", "spinor",
          "spinor subspaces meet the reference half in even dimension")
def check_parity(rng):
    for trial in range(200):
        z = random_isotropic_spinor(rng)
        if z.is_zero():
            continue
        yield trial, z.z
        # subspace_of_spinor raises on an odd component
        sub = subspace_of_spinor(z)
        # cross-check the annihilator against the cell-move route
        _, gmat, moved = move_to_cell(z)
        via_cell = mat_mul(inverse(gmat), graph_basis(spinor_inverse(moved)))
        joint = [sub[i] + via_cell[i] for i in range(8)]
        if rank(mat(joint)) != 4:
            yield "cell-move route spans another subspace at s"
    return "200 random isotropic spinors"


@register("paper-point-fixtures", "spinor",
          "the two distinguished complex quadric points and their "
          "2-dimensional intersection")
def check_nu_fixtures(rng):
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
    fixtures = [(b1, [one, one, -i, -i, one, one, -i, -i]),
                (b2, [one, -one, -i, i, one, -one, -i, i])]
    for trial, (b, want) in enumerate(fixtures):
        yield trial, b
        z = spinor_map(b).z
        if z != want:
            yield f"spinor {to_text(z)}, not {to_text(want)}, at B"
    yield 2, [b1, b2]
    z1, z2 = graph_basis(b1), graph_basis(b2)
    joint = [z1[r] + z2[r] for r in range(8)]
    inter = 8 - rank(mat(joint))
    w1 = [z1[r][0] - i * z1[r][2] for r in range(8)]
    w2 = [z2[r][0] - i * z2[r][2] for r in range(8)]
    if w1 != w2:
        yield "column identity c1 - i c3 = d1 - i d3 failed at B1, B2"
    if inter != 2:
        yield f"intersection dimension {inter}, not 2, at B1, B2"
    return f"intersection dimension {inter}"


# -- representations ---------------------------------------------------------

@register("bracket-compatibility", "reps",
          "action([x, y]) = [action(x), action(y)] on all seven spaces")
def check_brackets(rng):
    table = clifford.spin_v_xyz_table()
    spaces = ["V", "S+", "S-", "Wedge2V", "Sym2S+", "Wedge2S+"]
    # (space, (basis index, scale) of x, the same of y), drawn in this order
    trials = [(spaces[trial % len(spaces)],
               (rng.randrange(28), rng.randint(1, 3)),
               (rng.randrange(28), rng.randint(1, 3))) for trial in range(12)]
    trials.append(("Wedge4V", (0, 1), (20, 1)))
    for trial, (name, *pair) in enumerate(trials):
        named = [name] + [f"{encode_scalar(Fraction(c))}*{table[a][0]}"
                          for a, c in pair]
        yield trial, named
        x, y = (table[a][1].scale(Fraction(c)) for a, c in pair)
        mx, my, mz = (reps.derived_action(e, name)
                      for e in (x, y, commutator(x, y)))
        lhs = [[a - b for a, b in zip(ra, rb)]
               for ra, rb in zip(mat_mul(mx, my), mat_mul(my, mx))]
        if lhs != mz:
            at, text = _mismatch(lhs, mz, range(len(mz)))
            yield trial, named + at
            yield (f"[action(x), action(y)] {text} as action([x, y]) on "
                   f"space, x, y, row, column")
    return "randomized pairs on all seven spaces"


@register("symmetric-square-split", "reps",
          "squares of quadric points span 35 dimensions, the invariant "
          "line completes the 36, and phi kills the invariant line")
def check_sym_split(rng):
    invariants = reps.invariant_subspace(identity(28), "Sym2S+")
    if len(invariants) != 1:
        yield "set-up", invariants
        yield (f"the spin(V)-invariants of Sym^2 S+ span dimension "
               f"{len(invariants)}, not 1, at their basis")
    basis, line = {}, invariants[0]
    # (what is named, its inputs, its square coordinates)
    vectors = [("square of sample B", b, u) for b, u in
               reps.quadric_square_span()] + [("invariant line", line, line)]
    for trial, (what, named, u) in enumerate(vectors):
        yield trial, named
        if not extend_span(basis, scale_to_integers(enumerate(u))[0]):
            yield f"the {trial} vectors before it span the {what}"
    image = mat_vec(reps.phi_matrix(), line)
    if any(x != 0 for x in image):
        yield f"phi(u) is {to_text(image)}, not 0, at the invariant line u"
    if len(basis) != 36:
        yield f"u completes a span of {len(basis)}, not 36, at the line u"
    return "35 + 1 = 36 split, phi(gamma0) = 0"


@register("veronese-pluecker", "reps",
          "phi(z (.) z) is the Pluecker image of the subspace of z, for z "
          "the spinor of B")
def check_veronese_pluecker(rng):
    phi = reps.phi_matrix()
    for trial in range(3):
        b = random_alternating(rng)
        yield trial, b
        image = mat_vec(phi, reps.sym2_coords(spinor_map(b).z))
        if image != coords_degree(pluecker(graph_basis(b)), DEGREE4_MASKS):
            yield "phi(z (.) z) is not the Pluecker image at B"
    return "3 random B"


@register("star-eigenspaces-stable", "reps",
          "the Hodge star commutes with every derived degree-4 action")
def check_star_stable(rng):
    star = star_matrix()
    table = clifford.spin_v_xyz_table()
    for trial in range(4):
        label, x, _ = table[rng.randrange(28)]
        yield trial, label
        m = reps.derived_action(x, "Wedge4V")
        lhs, rhs = mat_mul(star, m), mat_mul(m, star)
        if lhs != rhs:
            at, text = _mismatch(lhs, rhs, _DEGREE4_LABELS)
            yield trial, [label, *at]
            yield f"star M(x) {text} as M(x) star at x, row, column"
    return "4 random generators"


@register("cayley-image-one-eigenspace", "reps",
          "the symmetric-square image lands in a single star eigenspace")
def check_phi_eigenspace(rng):
    phi = reps.phi_matrix()
    sgn = reps.gamma2alpha_star_sign()
    image = mat_mul(star_matrix(), phi)
    for col, (a, b) in enumerate(reps.SYM2_BASIS):
        yield col, f"z{a + 1} z{b + 1}"
        v, sv = [row[col] for row in phi], [row[col] for row in image]
        if sv != [sgn * x for x in v]:
            yield (f"the image is not in the eigenspace {sgn}: star of "
                   f"{to_text(v)} is {to_text(sv)}, at the monomial")
    return f"eigenvalue {sgn}"


@register("scaling-element-spectrum", "reps",
          "the sum of the Cartan generators acts on S+ with spectrum "
          "{2, -2, 0^6} and the stated eigenvectors")
def check_acth_spectrum(rng):
    x = sum(clifford.cartan_elements(), CV().zero())
    yield 0, x.terms
    m = reps.derived_action(x, "S+")
    want = [[d if i == j else 0 for j in range(8)]
            for i, d in enumerate((-2, 0, 0, 0, 2, 0, 0, 0))]
    if m != want:
        yield f"x acts on S+ by {to_text(m)}, not {to_text(want)}, at x"
    return f"diagonal {to_text([m[i][i] for i in range(8)])}"


# -- weil --------------------------------------------------------------------

@register("weil-datum-battery", "weil",
          "J^2 = -I, orthogonality, mu^2 = -d, commutation, balanced "
          "trace, E alternating (1,1) positive, trivial discriminant")
def check_weil_battery(rng):
    for trial in range(4):
        period_seed = rng.randrange(10 ** 6)
        yield trial, period_seed
        datum = weil.make_weil_datum(STANDARD_H, STANDARD_S,
                                     seed=period_seed)
        bad = [k for k, v in weil.datum_report(datum).items()
               if isinstance(v, bool) and not v]
        if bad:
            yield f"report fields {to_text(bad)} false at the period's seed"
    return "4 sampled periods, full battery"


@register("hodge-criterion", "weil",
          "the derivation of J kills the Cayley class iff the period is "
          "orthogonal to the spinor")
def check_hodge_criterion(rng):
    s = Spinor(STANDARD_S)
    # periods orthogonal to h and s, then to a fixed vector and h
    planes = (("orthogonal", STANDARD_H, s),
              ("generic", weil.STANDARD_PERIOD[0], STANDARD_H))
    answers = []
    for trial in range(10):
        for kind, u, w in planes:
            period_seed = rng.randrange(10 ** 6)
            yield f"{trial} on the {kind} plane", period_seed
            per = weil.sample_period(u, w, seed=period_seed)
            answers.append(weil.cayley_hodge_test(s, per))
            if answers[-1] != per.pairs_to_zero_with(s.z):
                yield "criterion mismatched at the sample seed of the period"
    if len(set(answers)) != 2:
        yield "all", answers
        yield "one sign only: the answers"
    return f"{len(answers)} periods, both signs of the criterion"


@register("omega-invariant-line", "weil",
          "the polarization form spans the stabilizer-invariant line in "
          "degree 2")
def check_omega_line(rng):
    period = weil.Period(*weil.STANDARD_PERIOD)
    yield 0, [STANDARD_H, STANDARD_S, period]
    datum = weil.make_weil_datum(STANDARD_H, STANDARD_S, period=period)
    if not weil.omega_line_check(datum):
        yield "omega does not span the invariant line at h, s, period"
    return "standard datum"


@register("field-scan", "weil",
          "the discriminant fields realize squarefree parts 1, 2, 3, 5")
def check_field_scan(rng):
    parts = []
    for trial, (h, want) in enumerate(zip(weil.FIELD_SCAN_H, (1, 2, 3, 5))):
        yield trial, [h, STANDARD_S]
        parts.append(-weil.field_parameters(h, STANDARD_S)[1])
        if parts[-1] != want:
            yield f"squarefree part {parts[-1]}, not {want}, at h, s"
    return f"parts {parts}"


# -- kuga --------------------------------------------------------------------

@register("even-algebra-closure", "kuga",
          "the even Clifford algebra of the complement has dimension 32 "
          "and is closed under multiplication")
def check_even_closure(rng):
    _, lattice = kuga.complement_data(STANDARD_H, STANDARD_S)
    algebra = clifford.CliffordAlgebra(lattice)
    masks = algebra.even_masks()
    if len(masks) != 32:
        yield "set-up", lattice.gram
        yield f"even part of dimension {len(masks)}, not 32, at the Gram"
    for trial in range(50):
        x, y = (algebra.element({rng.choice(masks):
                                 Fraction(rng.randint(-2, 2))
                                 for _ in range(3)}) for _ in range(2))
        yield trial, [x.terms, y.terms]
        if not (x * y).is_even():
            yield "product left the even part at the terms of x, y"
    return "50 random products"


@register("center-basis-invariance", "kuga",
          "the center dimension and generator square class are unchanged "
          "by unimodular change of basis")
def check_center_invariance(rng):
    _, lattice = kuga.complement_data(STANDARD_H, STANDARD_S)
    changes = [identity(6)] + [_random_unimodular(rng, 6) for _ in range(2)]
    parts = []
    for trial, t in enumerate(changes):
        yield trial, t
        g2 = mat_mul(transpose(t), mat_mul(lattice.gram, t))
        basis, sq = kuga.ks_center(lattices.BilinearLattice(g2))
        if sq is None:
            yield f"center of dimension {len(basis)}, not 2, at T"
        parts.append(scalars.squarefree_part(sq.numerator * sq.denominator))
        if parts[-1] != parts[0]:
            yield f"square class {parts[-1]}, not {parts[0]}, at T"
    return f"square class {parts[0]}"


@register("ks-complex-structure", "kuga",
          "J_KS squares to -I and commutes with right multiplications")
def check_ks_structure(rng):
    sample_seed = rng.randrange(10 ** 6)
    yield 0, sample_seed
    datum = kuga.ks_complex_structure(STANDARD_H, STANDARD_S,
                                      weil.Period(*weil.STANDARD_PERIOD))
    if not kuga.ks_right_commutation(datum, seed=sample_seed):
        yield ("a right multiplication by a random even element does not "
               "commute with J_KS at the sample seed of the elements")
    return "construction validates J^2 = -I internally"


# -- mukai -------------------------------------------------------------------

@register("mukai-pairing", "mukai",
          "z -> (z_0, (z_1, z_5, z_2, z_6, z_3, z_7), -z_4) is an isometry "
          "of S+ onto the Mukai lattice, exp(B) goes to (1, c(B), -Pf B) of "
          "square 0, and (s_n, s_n) = 2n")
def check_mukai(rng):
    for trial in range(100):
        v, w = (MukaiVector(rng.randint(-5, 5), tuple(
            rng.randint(-5, 5) for _ in range(6)), rng.randint(-5, 5))
            for _ in range(2))
        yield trial, [v, w]
        if lattices.mukai_pairing(v, w) != -(v.r * w.s + w.r * v.s) + sum(
                v.c[i] * w.c[i ^ 1] for i in range(6)):
            yield "pairing differs from -(r s' + r' s) + c . c' at v, w"
    for trial in range(50):
        b = random_alternating(rng)
        yield f"{trial} of exp(B)", b
        v = MukaiVector(1, (b[0][1], -b[2][3], b[0][2], b[1][3], b[0][3],
                            -b[1][2]), -pfaffian(b))
        if v.z != spinor_map(b).z or lattices.mukai_pairing(v, v):
            yield "exp(B) is not (1, c(B), -Pf B) of square 0 at B"
    for n in (3, 4, 5):
        yield f"s_{n}", n
        sq, _ = lattices.moduli_dimension(n)
        if sq != 2 * n or MukaiVector(1, (0,) * 6, -n).z != \
                reps.standard_spinor(-n).z:
            yield f"s_{n}", sq
            yield "s_n is not standard_spinor(-n) of square 2n; (s_n, s_n)"
    return "100 random pairs, 50 exponentials, n in {3, 4, 5}"


def run_checks(suite=None, seed=20240):
    """Run the registered checks; returns a list of result dicts, each
    with the wall time of its check in seconds as elapsed_s and its CPU
    time (time.process_time) as cpu_s."""
    results = []
    for check in CHECKS:
        if suite and check.suite != suite:
            continue
        start, cpu_start = time.perf_counter(), time.process_time()
        ok, detail = check.fn(seed)
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
