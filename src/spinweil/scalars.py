"""Exact scalar arithmetic: rationals, quadratic extensions Q(sqrt(m)),
the biquadratic tower Q(i, sqrt(m)), and Hilbert-symbol norm tests.

All scalars are immutable and exact; there is no floating point anywhere.
Rationals are ``fractions.Fraction`` (arbitrary-precision, always reduced,
positive denominator).  ``QuadExt`` and ``TowerScalar`` share one base,
_Multiquadratic: an element is its rational coordinates on the Q-basis
(1, sqrt(m)) or (1, i, sqrt(m), i sqrt(m)) and a single squarefree ``m``;
the base owns everything that reads the coordinates one by one, and each
class only its product, inverse and conjugations.  Mixing different ``m``
is a usage error and raises ``ValueError`` at the operation boundary.
This module owns the scaling rule of every exact kernel: rational values
become ints over the lcm d of their denominators; with any other scalar
among them, the values pass through unchanged and d = 1.  _integer_coords
is its dense form, scale_to_integers its sparse keyed form (zeros left
out), and _over(c, d) turns a result back into c / d.  Callers apply the
rule without asking whether their values are rational.  The rule's form
is in lowest terms (gcd(d, all ints) = 1), so it is the one canonical
form of its values (Knuth, TAOCP vol. 2, 4.5.1), and values are kept in
it: an element of Q(sqrt(m)) or Q(i, sqrt(m)) stores its coordinates as
ints over one denominator, and every operation reads and returns that
form, divided once by a gcd (_lowest); lowest_terms does the same for
keyed sums, such as the blade algebras' products.  The Fractions of the
coordinate tuple c are built on first read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rational = Fraction

#: Distinguished symbol for the archimedean (real) place.
REAL_PLACE = "real"


def rat(x) -> Fraction:
    """Coerce an int, string "p/q" or Fraction to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


_RATIONAL = frozenset((int, Fraction))
_INT = frozenset((int,))


def all_rational(values):
    """Whether every value is an int or a Fraction."""
    return _RATIONAL.issuperset(map(type, values))


def _integer_coords(xs):
    """(ints, d): the rationals xs times the lcm d of their denominators;
    (xs, 1) when any other scalar is among them."""
    if not all_rational(xs):
        return xs, 1
    d = lcm(*[x.denominator for x in xs])
    return [x.numerator * (d // x.denominator) for x in xs], d


def scale_to_integers(pairs):
    """The nonzero (key, x) pairs as ({key: x}, d), the values scaled by
    the rule of _integer_coords: each denominator is read once, and the
    numerators are taken as they are when d = 1."""
    nonzero = {k: x for k, x in pairs if x}
    if not all_rational(nonzero.values()):
        return nonzero, 1
    dens = [x.denominator for x in nonzero.values()]
    d = lcm(*dens)
    if d == 1:
        return {k: x.numerator for k, x in nonzero.items()}, 1
    return {k: x.numerator * (d // e)
            for (k, x), e in zip(nonzero.items(), dens)}, d


def _over(c, d):
    """c / d: a Fraction for an int c (Fraction(c) skips the gcd when
    d = 1), c itself when d = 1."""
    if type(c) is int:
        return Fraction(c, d) if d != 1 else Fraction(c)
    return c if d == 1 else c / d


def _lowest(ns, d):
    """The tuple of ints ns over the int d != 0 in lowest terms, d > 0."""
    g = gcd(d, *ns) if d > 0 else -gcd(d, *ns)
    if g == 1:
        return ns, d
    return tuple(n // g for n in ns), d // g


def lowest_terms(sums, d):
    """The nonzero {key: value} sums over d > 0 as scale_to_integers gives
    the values sums / d: ints divided with d by their gcd, or, when a sum
    is not an int, the values sums / d put through the scaling rule."""
    nonzero = {k: v for k, v in sums.items() if v}
    if not _INT.issuperset(map(type, nonzero.values())):
        return scale_to_integers((k, _over(v, d)) for k, v in nonzero.items())
    g = gcd(d, *nonzero.values()) if d != 1 else 1
    if g == 1:
        return nonzero, d
    return {k: v // g for k, v in nonzero.items()}, d // g


_set = object.__setattr__


class _Multiquadratic:
    """An element of a multiquadratic field over Q: its rational
    coordinates on the field's Q-basis, 1 first, as the tuple _n of ints
    over one denominator _d > 0 in lowest terms, and the field parameter
    m.  The tuple c of the coordinates as Fractions is a view, built on
    first read.  The additive group, coercion of ints and Fractions,
    division, equality, hashing and truthiness read _n and _d alone and
    are shared; a subclass supplies its basis, product, inverse,
    conjugations and the text of its mixed-field error (_MIXED)."""

    __slots__ = ("_n", "_d", "m", "_c")

    @classmethod
    def _of(cls, n, d, m):
        """The element n / d, for a tuple n of ints and d > 0 in lowest
        terms and a valid m, unchecked."""
        x = object.__new__(cls)
        _set(x, "_n", n)
        _set(x, "_d", d)
        _set(x, "m", m)
        return x

    @property
    def c(self):
        try:
            return self._c
        except AttributeError:
            d = self._d
            c = tuple(Fraction(v, d) for v in self._n)
            _set(self, "_c", c)
            return c

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def _coerce(self, other):
        """other in the field of self: itself when it shares m, a rational
        as its coordinates, None for any other value."""
        if isinstance(other, type(self)):
            if other.m != self.m:
                raise ValueError(self._MIXED.format(self.m, other.m))
            return other
        if isinstance(other, (int, Fraction)):
            zeros = (0,) * (len(self._n) - 1)
            return self._of((other.numerator, *zeros), other.denominator,
                            self.m)
        return None

    def _sum(self, other, sign):
        """self + sign * other, over the denominator they share or the
        product of the two."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            n = tuple(a + sign * b for a, b in zip(self._n, o._n))
        else:
            n = tuple(a * e + sign * b * d for a, b in zip(self._n, o._n))
            d *= e
        return self._of(*_lowest(n, d), self.m)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self._of(tuple(-v for v in self._n), self._d, self.m)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def is_rational(self) -> bool:
        return not any(self._n[1:])

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return (self.m == other.m and self._d == other._d
                    and self._n == other._n)
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self._n[0] == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.c[0])
        return hash((self.c, self.m))

    def __bool__(self):
        return any(self._n)


class QuadExt(_Multiquadratic):
    """Element a + b*sqrt(m) of Q(sqrt(m)), m squarefree, m != 0, 1, with
    coordinates c = (a, b).

    conj negates sqrt(m); norm(x) = x * conj(x) = a^2 - m b^2.
    """

    __slots__ = ()
    _MIXED = "mixed quadratic fields: sqrt({}) vs sqrt({})"

    def __new__(cls, a, b=0, m=None):
        if m is None:
            raise ValueError("QuadExt requires the field parameter m")
        if m in (0, 1) or squarefree_part(m) != m:
            raise ValueError(f"m = {m} must be squarefree and not 0 or 1")
        n, d = _integer_coords([rat(a), rat(b)])
        return cls._of(tuple(n), d, m)

    a = property(lambda self: self.c[0])
    b = property(lambda self: self.c[1])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._n
        c, e = o._n
        return QuadExt._of(*_lowest((a * c + self.m * b * e, a * e + b * c),
                                    self._d * o._d), self.m)

    __rmul__ = __mul__

    def inverse(self):
        # d / (a + b sqrt(m)) = d (a - b sqrt(m)) / (a^2 - m b^2)
        a, b = self._n
        n = a * a - self.m * b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(m))")
        return QuadExt._of(*_lowest((a * self._d, -b * self._d), n), self.m)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = QuadExt._of((1, 0), 1, self.m)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self):
        a, b = self._n
        return QuadExt._of((a, -b), self._d, self.m)

    def norm(self) -> Fraction:
        a, b = self._n
        return Fraction(a * a - self.m * b * b, self._d * self._d)

    def __repr__(self):
        a, b = self.c
        if b == 0:
            return f"{a}"
        return f"({a} + {b}*sqrt({self.m}))"


class TowerScalar(_Multiquadratic):
    """Element c0 + c1*i + c2*sqrt(m) + c3*i*sqrt(m) of Q(i, sqrt(m)),
    m squarefree, m != -1, 0, 1 (for m = -1 the ring has zero divisors).

    The two generators commute; i^2 = -1 and sqrt(m)^2 = m.  There are two
    commuting conjugations: ``conj_i`` negates i, ``conj_m`` negates sqrt(m).
    """

    __slots__ = ()
    _MIXED = "mixed tower fields"

    def __new__(cls, c0, c1=0, c2=0, c3=0, m=None):
        if m is None:
            raise ValueError("TowerScalar requires the field parameter m")
        if m in (-1, 0, 1) or squarefree_part(m) != m:
            raise ValueError(f"m = {m} must be squarefree and not -1, 0 "
                             f"or 1")
        n, d = _integer_coords([rat(c0), rat(c1), rat(c2), rat(c3)])
        return cls._of(tuple(n), d, m)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = o._n
        m = self.m
        # basis products: 1, i, s, is with i^2 = -1, s^2 = m, (is)^2 = -m
        return TowerScalar._of(*_lowest((
            a0 * b0 - a1 * b1 + m * (a2 * b2 - a3 * b3),
            a0 * b1 + a1 * b0 + m * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1), self._d * o._d), m)

    __rmul__ = __mul__

    def conj_i(self):
        c0, c1, c2, c3 = self._n
        return TowerScalar._of((c0, -c1, c2, -c3), self._d, self.m)

    def conj_m(self):
        c0, c1, c2, c3 = self._n
        return TowerScalar._of((c0, c1, -c2, -c3), self._d, self.m)

    def inverse(self):
        t = self * self.conj_i()          # lands in Q(sqrt(m))
        n = t * t.conj_m()                # lands in Q, as r / e
        r, e = n._n[0], n._d
        if not n.is_rational() or r == 0:
            if r == 0 and n.is_rational():
                raise ZeroDivisionError("division by zero in Q(i, sqrt(m))")
            raise ArithmeticError("tower norm failed to be rational")
        num = self.conj_i() * t.conj_m()
        return TowerScalar._of(
            *_lowest(tuple(v * e for v in num._n), num._d * r), self.m)

    def __repr__(self):
        return (f"({self.c[0]} + {self.c[1]}*i + {self.c[2]}*sqrt({self.m})"
                f" + {self.c[3]}*i*sqrt({self.m}))")


# ---------------------------------------------------------------------------
# elementary number theory (trial division is enough at desk scale)

def factorize(n: int) -> dict:
    """Prime factorization of |n| by trial division, as {prime: exponent}."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_part(n: int) -> int:
    """The squarefree integer s with n = s * f^2, keeping the sign of n."""
    if n == 0:
        return 0
    s = -1 if n < 0 else 1
    for p, e in factorize(n).items():
        if e % 2 == 1:
            s *= p
    return s


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p, in {-1, 0, +1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _square_class_int(q: Fraction) -> int:
    # num/den and num*den differ by den^2, so they share all Hilbert symbols
    q = rat(q)
    return q.numerator * q.denominator


def hilbert_symbol(a, b, p) -> int:
    """Hilbert symbol (a, b)_p in {+1, -1} for rational a, b and a place p.

    Returns +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over Q_p
    (p a prime) or over R (p = REAL_PLACE).  Computed by the standard
    valuation/Legendre-symbol formulas; only the square classes of a and b
    matter, so rationals are reduced to integers first.
    """
    a, b = rat(a), rat(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert_symbol requires nonzero arguments")
    if p == REAL_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    if not isinstance(p, int) or p < 2 or factorize(p) != {p: 1}:
        raise ValueError(f"p = {p!r} is not a prime or the real place")
    ai, bi = _square_class_int(a), _square_class_int(b)

    alpha = 0
    while ai % p == 0:
        ai //= p
        alpha += 1
    beta = 0
    while bi % p == 0:
        bi //= p
        beta += 1

    if p == 2:
        def eps(u):  # (u-1)/2 mod 2
            return ((u - 1) // 2) % 2

        def omega(u):  # (u^2-1)/8 mod 2
            return ((u * u - 1) // 8) % 2

        e = eps(ai) * eps(bi) + alpha * omega(bi) + beta * omega(ai)
        return -1 if e % 2 else 1

    e = alpha * beta * ((p - 1) // 2)
    sign = -1 if e % 2 else 1
    if beta % 2:
        sign *= legendre(ai, p)
    if alpha % 2:
        sign *= legendre(bi, p)
    return sign


def relevant_places(*qs):
    """The real place plus every prime dividing 2 and the given rationals."""
    primes = {2}
    for q in qs:
        q = rat(q)
        if q == 0:
            continue
        primes |= set(factorize(q.numerator))
        primes |= set(factorize(q.denominator))
    return [REAL_PLACE] + sorted(primes)


def is_norm(q, d) -> bool:
    """Whether q is a norm from the imaginary quadratic field Q(sqrt(-d)).

    q must be a nonzero rational and d a positive rational.  Norms from an
    imaginary quadratic field are totally positive, and by the Hasse norm
    theorem positivity plus local solvability of z^2 = q x^2 - d y^2 at the
    finitely many places dividing 2 d q decides membership.
    """
    q, d = rat(q), rat(d)
    if q == 0:
        raise ValueError("q must be nonzero")
    if d <= 0:
        raise ValueError("d must be positive")
    if q < 0:
        return False
    for p in relevant_places(q, d):
        if hilbert_symbol(q, -d, p) != 1:
            return False
    return True
