import ast
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweil.scalars import (QuadExt, REAL_PLACE, TowerScalar, _over,
                              factorize, hilbert_symbol, is_norm,
                              legendre, relevant_places, scale_to_integers,
                              squarefree_part)

import table_references as reference


def solvable_mod_2k(a, b, k):
    """Brute-force oracle: primitive solution of z^2 = a x^2 + b y^2 mod 2^k."""
    mod = 1 << k
    for z in range(mod):
        for x in range(mod):
            for y in range(mod):
                if z % 2 == 0 and x % 2 == 0 and y % 2 == 0:
                    continue
                if (z * z - a * x * x - b * y * y) % mod == 0:
                    return True
    return False


def test_hilbert_simple_solution():
    # z = x = 1, y = 0 solves z^2 = x^2 + 7 y^2
    assert hilbert_symbol(1, 7, 3) == 1


def test_hilbert_real_place():
    # -x^2 - y^2 < 0 can never be a nonzero square
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1


def test_hilbert_minus_one_minus_one_at_two():
    # oracle first: no primitive solution of z^2 = -x^2 - y^2 mod 64
    assert not solvable_mod_2k(-1, -1, 6)
    assert hilbert_symbol(-1, -1, 2) == -1


def test_hilbert_matches_small_2adic_oracle():
    for a in (-3, -1, 1, 2, 3, 5):
        for b in (-2, -1, 1, 3):
            assert hilbert_symbol(a, b, 2) == (1 if solvable_mod_2k(a, b, 6)
                                               else -1)


def test_hilbert_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, 3)
    with pytest.raises(ValueError):
        hilbert_symbol(1, 0, 3)
    with pytest.raises(ValueError):
        hilbert_symbol(1, 1, 6)
    with pytest.raises(ValueError):
        hilbert_symbol(1, 1, 1)


def test_hilbert_symmetry_and_multiplicativity(rng):
    places = [REAL_PLACE, 2, 3, 5, 7]
    for _ in range(200):
        a = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        a2 = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        p = rng.choice(places)
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
        assert (hilbert_symbol(a * a2, b, p)
                == hilbert_symbol(a, b, p) * hilbert_symbol(a2, b, p))


def test_hilbert_product_formula(rng):
    for _ in range(100):
        a = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 6))
        b = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 6))
        prod = 1
        for p in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1


def test_is_norm_two_is_gaussian_norm():
    # 2 = 1^2 + 1^2 = Nm(1 + i)
    assert is_norm(2, 1) is True


def test_is_norm_negative_never():
    for d in (1, 2, 3, 5):
        assert is_norm(-1, d) is False


def test_is_norm_three_not_sum_of_two_squares():
    # oracle first: a^2 + b^2 = 3 c^2 has no nonzero solution with c <= 30
    for c in range(1, 31):
        for a in range(0, 60):
            b2 = 3 * c * c - a * a
            if b2 < 0:
                break
            assert (not reference.is_square(Fraction(b2))
                    or (a == 0 and b2 == 0))
    assert is_norm(3, 1) is False


def test_is_norm_rejects_bad_inputs():
    with pytest.raises(ValueError):
        is_norm(0, 1)
    with pytest.raises(ValueError):
        is_norm(2, -1)


def test_norm_closure_products(rng):
    # products of norms are norms: exercised through explicit Gaussian norms
    for _ in range(50):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        c, d = rng.randint(-5, 5), rng.randint(-5, 5)
        n1, n2 = a * a + b * b, c * c + d * d
        if n1 and n2:
            assert is_norm(Fraction(n1 * n2), 1)


def test_quadext_arithmetic():
    x = QuadExt(Fraction(1, 2), 3, -5)
    y = QuadExt(2, Fraction(-1, 3), -5)
    assert x + y == QuadExt(Fraction(5, 2), Fraction(8, 3), -5)
    assert x * y - y * x == 0
    assert (x / y) * y == x
    assert x.conj().conj() == x
    assert (x * y).norm() == x.norm() * y.norm()
    assert x ** 3 == x * x * x


def test_quadext_rejects_mixed_fields():
    with pytest.raises(ValueError):
        QuadExt(1, 1, -5) + QuadExt(1, 1, -3)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 4)  # not squarefree


@pytest.mark.parametrize("make, other, mixed", [
    (lambda *c: QuadExt(*c[:2], -5), QuadExt(1, 1, -3),
     "mixed quadratic fields: sqrt(-5) vs sqrt(-3)"),
    (lambda *c: TowerScalar(*c, m=-5), TowerScalar(1, 1, m=-3),
     "mixed tower fields")])
def test_both_fields_share_one_additive_and_comparison_behaviour(
        make, other, mixed):
    x, three = make(1, 2, 3, 4), make(3, 0, 0, 0)
    assert x - x == 0 and not (x - x) and x and -x + x == make(0, 0, 0, 0)
    assert 1 - x == -(x - 1) and (2 + x) - 2 == x
    assert 1 / x == x.inverse() and x / 2 == x * Fraction(1, 2)
    # a rational value equals, and hashes as, its Fraction
    assert three == 3 == Fraction(3) and three.is_rational()
    assert hash(three) == hash(Fraction(3)) and not x.is_rational()
    assert len({three, Fraction(3), 3}) == 1
    assert x != QuadExt(1, 0, 2) and x != TowerScalar(1, m=2)
    with pytest.raises(TypeError):
        x + (QuadExt(1, 1, 2) if isinstance(x, TowerScalar)
             else TowerScalar(1, 1, m=2))
    with pytest.raises(ValueError) as err:
        x * other
    assert str(err.value) == mixed
    immutable = f"^{type(x).__name__} values are immutable$"
    for name in ("c", "m", "a", "extra"):
        with pytest.raises(AttributeError, match=immutable):
            setattr(x, name, 0)


def test_quadext_coordinates_are_its_tuple():
    x = QuadExt(Fraction(1, 2), 3, -5)
    assert (x.a, x.b) == x.c == (Fraction(1, 2), 3)


def test_the_traced_methods_and_the_field_free_linalg():
    # the benchmark tracer wraps these four through each class's own
    # __dict__, and linalg reads a field element only through its
    # coordinate tuple c
    for cls in (QuadExt, TowerScalar):
        for name in ("__mul__", "inverse"):
            assert name in vars(cls), (cls.__name__, name)
    path = Path(__file__).resolve().parents[1] / "src" / "spinweil"
    names = set(_names(ast.parse((path / "linalg.py").read_text())))
    assert not names & {"QuadExt", "TowerScalar"}


def test_tower_two_conjugations_commute():
    t = TowerScalar(1, 2, 3, 4, m=-5)
    assert t.conj_i().conj_m() == t.conj_m().conj_i()
    assert t.conj_i().conj_i() == t
    assert t.conj_m().conj_m() == t


def test_tower_field_axioms(rng):
    m = -3
    for _ in range(300):
        xs = [TowerScalar(*(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(4)), m=m) for _ in range(3)]
        a, b, c = xs
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a != 0:
            assert a / a == 1


def test_tower_generators():
    i = TowerScalar(0, 1, 0, 0, m=-5)
    s = TowerScalar(0, 0, 1, 0, m=-5)
    assert i * i == -1
    assert s * s == -5
    assert i * s == TowerScalar(0, 0, 0, 1, m=-5)
    assert i * s == s * i


def test_tower_rejects_m_minus_one():
    # Q(i, sqrt(-1)) has zero divisors: (i + sqrt(-1))(i - sqrt(-1)) = 0
    with pytest.raises(ValueError, match="not -1, 0 or 1"):
        TowerScalar(0, 1, 1, 0, m=-1)
    with pytest.raises(ValueError, match="not -1, 0 or 1"):
        TowerScalar(*QuadExt(1, 2, -1).c, 0, 0, m=-1)
    t = TowerScalar(*QuadExt(1, 2, -1).c, 0, 0, m=-2)
    assert t == TowerScalar(1, 2, 0, 0, m=-2)


def test_number_theory_helpers():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert squarefree_part(360) == 10
    assert squarefree_part(-4) == -1
    assert squarefree_part(-8) == -2
    assert factorize(2) == {2: 1} and factorize(97) == {97: 1}
    assert factorize(91) == {7: 1, 13: 1}
    assert legendre(2, 7) == 1 and legendre(3, 7) == -1
    assert reference.is_square(Fraction(49, 64))
    assert not reference.is_square(Fraction(2))


# -- arithmetic results skip the validation of the public constructors -------

RATIONALS = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=5))


def quad(m):
    return st.builds(lambda a, b: QuadExt(a, b, m), RATIONALS, RATIONALS)


def tower(m):
    return st.builds(lambda *c: TowerScalar(*c, m=m), *[RATIONALS] * 4)


def _results(x, y, r):
    """Every arithmetic result of x and y (and the rational r) that builds
    a new scalar without the public constructor."""
    out = [x + y, x - y, x * y, -x, x + r, r - x, x * r, r * x]
    out += [x.conj()] if isinstance(x, QuadExt) else [x.conj_i(), x.conj_m()]
    if y:
        out += [y.inverse(), x / y, r / y]
    if isinstance(x, QuadExt):
        out += [x ** 0, x ** 3] + ([y ** -2] if y else [])
    return out


def _rebuilt(z):
    """z rebuilt through the validating public constructor."""
    if isinstance(z, QuadExt):
        return QuadExt(z.a, z.b, z.m)
    return TowerScalar(*z.c, m=z.m)


def _coords(z):
    return (z.a, z.b) if isinstance(z, QuadExt) else z.c


SAME_FIELD_PAIRS = st.one_of(
    st.sampled_from([-1, 2, -3, 5]).flatmap(
        lambda m: st.tuples(quad(m), quad(m))),
    st.sampled_from([-2, 5]).flatmap(
        lambda m: st.tuples(tower(m), tower(m))))


@settings(max_examples=150, deadline=None)
@given(SAME_FIELD_PAIRS, RATIONALS)
def test_arithmetic_results_equal_a_validated_rebuild(pair, r):
    x, y = pair
    for z in _results(x, y, r):
        assert repr(z) == repr(_rebuilt(z)) and z == _rebuilt(z)
        assert hash(z) == hash(_rebuilt(z))
        assert all(type(c) is Fraction for c in _coords(z))
        assert z.c is z.c


@pytest.mark.parametrize("m", [0, 1, 4])
def test_public_constructors_reject_bad_m(m):
    with pytest.raises(ValueError, match="squarefree"):
        QuadExt(1, 1, m)
    with pytest.raises(ValueError, match="squarefree"):
        TowerScalar(1, 1, 0, 0, m=m)


def test_tower_constructor_rejects_minus_one():
    with pytest.raises(ValueError, match="not -1, 0 or 1"):
        TowerScalar(1, m=-1)


def _lifted(x, like):
    """x as an element of the field of like (a rational is coerced)."""
    if isinstance(x, (QuadExt, TowerScalar)):
        return x
    if isinstance(like, QuadExt):
        return QuadExt(x, 0, like.m)
    return TowerScalar(x, m=like.m)


PRODUCT_PAIRS = st.one_of(
    SAME_FIELD_PAIRS,
    st.sampled_from([-1, 2, -3, 5]).flatmap(
        lambda m: st.tuples(quad(m), RATIONALS)),
    st.sampled_from([-2, 5]).flatmap(
        lambda m: st.tuples(tower(m), RATIONALS)))


@settings(max_examples=200, deadline=None)
@given(PRODUCT_PAIRS)
def test_products_on_ints_match_fraction_products(pair):
    x, y = pair
    fx, fy = x, _lifted(y, x)
    product = (reference.quad_product if isinstance(x, QuadExt)
               else reference.tower_product)
    for got, expected in ((x * y, product(fx, fy)),
                          (y * x, product(fy, fx))):
        assert got == expected and repr(got) == repr(expected)
        assert all(type(c) is Fraction for c in _coords(got))


@settings(max_examples=200, deadline=None)
@given(SAME_FIELD_PAIRS)
def test_integer_coordinates_match_the_fraction_paths(pair):
    # each value keeps ints over one denominator; the Fraction-coordinate
    # reference gives the same values, by == and repr
    x, y = pair
    got = {"+": x + y, "-": x - y, "*": x * y}
    if y:
        got.update({"/": x / y, "inverse": y.inverse()})
    got["conj"] = ((x.conj(),) if isinstance(x, QuadExt)
                   else (x.conj_i(), x.conj_m()))
    if isinstance(x, QuadExt):
        got["norm"] = x.norm()
    expected = reference.field_results(x, y)
    assert sorted(got) == sorted(expected)
    for op, value in got.items():
        assert value == expected[op] and repr(value) == repr(expected[op]), op


# -- the scaling rule ---------------------------------------------------------

RATIONAL_LISTS = st.lists(st.one_of(st.just(0), st.just(Fraction(0)),
                                    RATIONALS), max_size=8)
NONZERO_FIELD_ELEMENTS = st.one_of(quad(-3), quad(2), tower(-2),
                                  tower(5)).filter(bool)


@settings(max_examples=200, deadline=None)
@given(RATIONAL_LISTS)
def test_scale_to_integers_of_rationals(xs):
    ints, d = scale_to_integers(enumerate(xs))
    assert sorted(ints) == [i for i, x in enumerate(xs) if x]
    assert all(type(c) is int for c in ints.values())
    assert d == lcm(*(Fraction(x).denominator for x in xs if x))
    for i, c in ints.items():
        got = _over(c, d)
        assert got == xs[i] and type(got) is Fraction


@settings(max_examples=200, deadline=None)
@given(RATIONAL_LISTS,
       st.lists(NONZERO_FIELD_ELEMENTS, min_size=1, max_size=3),
       st.randoms(use_true_random=False))
def test_scale_to_integers_passes_other_scalars_through(xs, fields, rng):
    values = xs + fields
    rng.shuffle(values)
    ints, d = scale_to_integers(enumerate(values))
    assert d == 1
    assert sorted(ints) == [i for i, x in enumerate(values) if x]
    assert all(ints[i] is values[i] for i in ints)
    assert all(_over(c, 1) is c for c in ints.values()
               if type(c) is not int)


def test_over_divides_field_elements_and_fractions():
    x = QuadExt(Fraction(1, 2), 3, 2)
    assert _over(x, 6) == QuadExt(Fraction(1, 12), Fraction(1, 2), 2)
    assert repr(_over(Fraction(3, 4), 3)) == "Fraction(1, 4)"
    assert repr(_over(6, 4)) == "Fraction(3, 2)"


#: the modules that own the rational-or-not decision
SCALING_OWNERS = {"scalars.py", "linalg.py"}
SCALING_NAMES = {"all_rational", "lcm", "_lowest"}


def _names(tree):
    """Every identifier a module names: variables, attributes, imports
    and definitions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            if node.asname:
                yield node.asname
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_only_scalars_and_linalg_decide_whether_values_are_rational():
    src = Path(__file__).resolve().parents[1] / "src" / "spinweil"
    offenders = sorted(
        (path.name, name) for path in src.glob("*.py")
        if path.name not in SCALING_OWNERS
        for name in set(_names(ast.parse(path.read_text())))
        if name in SCALING_NAMES)
    assert offenders == []
