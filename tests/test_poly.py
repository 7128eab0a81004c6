"""Polynomial ring: canonical form, arithmetic laws, calculus, substitution."""

import math
from fractions import Fraction

import pytest

from detcomp.fields import QQ, FieldElement, FieldMismatchError, Fp
from detcomp.parsing import parse_polynomial
from detcomp.poly import (
    MINUS_INF,
    ArityError,
    Polynomial,
    mono_key,
    sum_of_products,
    varset,
)
from support import random_polynomial, sample

XY = varset("x", "y")
XYZ = varset("x", "y", "z")
XYZT = varset("x", "y", "z", "t")


def P(text, vars=XYZ, field=QQ):
    return parse_polynomial(text, vars=vars, field=field)


def rand(vars, field, rng, **kw):
    return random_polynomial(vars, field, rng, **kw)


def poly_ring(vars, field):
    return tuple(Polynomial.variable(vars, field, i) for i in range(len(vars)))


def euler_combination(f):
    """sum_i x_i * df/dx_i; equals deg(f) * f for homogeneous f."""
    total = Polynomial.zero(f.vars, f.field)
    for i, x in enumerate(poly_ring(f.vars, f.field)):
        total = total + x * f.partial_derivative(i)
    return total


# ---------------------------------------------------------------- canonical


def test_difference_of_squares():
    x, y = poly_ring(XY, QQ)
    assert (x + y) * (x - y) == P("x^2 - y^2", XY)


def test_variable_by_name_or_index():
    assert Polynomial.variable(XYZ, QQ, "y").terms == (((0, 1, 0), QQ.one),)
    assert Polynomial.variable(XYZ, Fp(5), 2) == P("z", field=Fp(5))
    for bad in (-1, 3):
        with pytest.raises(IndexError):
            Polynomial.variable(XYZ, QQ, bad)


def test_canonical_form_invariants(rng):
    """No zero coefficients, exponents strictly descending in the term order."""
    for _ in range(60):
        f = rand(XYZ, QQ, rng) * rand(XYZ, QQ, rng) + rand(XYZ, QQ, rng)
        seen = set()
        last_key = None
        for e, c in f.terms:
            assert c != QQ.zero
            assert e not in seen
            seen.add(e)
            k = mono_key(e)
            if last_key is not None:
                assert k < last_key
            last_key = k


def test_term_order_is_degrevlex():
    # independent comparator: higher total degree wins, ties broken by the
    # SMALLEST exponent on the LAST variable where they differ
    def degrevlex_greater(a, b):
        if sum(a) != sum(b):
            return sum(a) > sum(b)
        for x, y in zip(reversed(a), reversed(b)):
            if x != y:
                return x < y
        return False

    f = P("(x + y + z)^2 + x + z + 1")
    monos = [e for e, _ in f.terms]
    for i in range(len(monos) - 1):
        assert degrevlex_greater(monos[i], monos[i + 1])
    # frozen spot check for three variables
    assert monos[0] == (2, 0, 0)
    assert f.leading_monomial() == (2, 0, 0)


def test_zero_polynomial_degree_sentinel():
    z = Polynomial.zero(XY, QQ)
    assert z.is_zero()
    assert z.degree() < 0
    assert z.degree() < Polynomial.const(XY, QQ, 1).degree()


def test_from_dict_drops_nothing_and_sorts():
    f = Polynomial.from_dict(XY, QQ, {(0, 1): QQ.of(2), (1, 0): QQ.of(3)})
    assert f.terms[0][0] == (1, 0)
    assert str(f) == "3*x + 2*y"


def test_from_dict_drops_zero_coefficients():
    f = Polynomial.from_dict(XY, QQ, {(1, 0): QQ.of(0), (0, 1): QQ.of(1)})
    assert len(f.terms) == 1
    assert f == P("y", XY)
    g = Polynomial.from_dict(XY, Fp(5), {(2, 0): Fp(5).of(10)})
    assert g.is_zero()


def test_from_dict_rejects_bad_input():
    with pytest.raises(ArityError):
        Polynomial.from_dict(XY, QQ, {(1, 0, 0): QQ.one})
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial.from_dict(XY, QQ, {(1, -1): QQ.one})


# ---------------------------------------------------------------- arithmetic


def schoolbook(field, products=(), addends=(), subtrahends=()):
    """Reference sum of products: one product and one sum (or difference)
    per term on raw values, each sum read back into the field, as the
    polynomial kernel did before it was fused. Returns the
    {monomial: coefficient} dict with zeros dropped."""
    acc = {}
    for a, b in products:
        for e1, c1 in a.terms:
            for e2, c2 in b.terms:
                e = tuple(x + y for x, y in zip(e1, e2))
                acc[e] = field.of(acc.get(e, field.zero) + c1 * c2)
    for a in addends:
        for e, c in a.terms:
            acc[e] = field.of(acc.get(e, field.zero) + c)
    for a in subtrahends:
        for e, c in a.terms:
            acc[e] = field.of(acc.get(e, field.zero) - c)
    return {e: c for e, c in acc.items() if c != field.zero}


def assert_canonical(f, want):
    """f has exactly the terms of want, in canonical order, with canonical types."""
    assert dict(f.terms) == want
    keys = [mono_key(e) for e, _ in f.terms]
    assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)
    if f.field.char == 0:
        assert all(type(c) is Fraction for _, c in f.terms)
    else:
        assert all(type(c) is int and 0 < c < f.field.char for _, c in f.terms)
    assert f.degree() == max((sum(e) for e in want), default=MINUS_INF)


@pytest.mark.parametrize("field", [QQ, Fp(2), Fp(101), Fp(32003)], ids=str)
def test_kernel_matches_schoolbook_reference(field, rng):
    """*, +, -, negation, scale and sum_of_products against the schoolbook
    reference on raw values."""
    thirds = [Fraction(1), Fraction(1), Fraction(1, 3), Fraction(-5, 7)]

    def operand():
        f = rand(XYZ, field, rng, degree=rng.randint(0, 3), terms=rng.randint(0, 6))
        if field.char == 0 and rng.random() < 0.4:
            # some non-integer coefficients; the rest stay integers
            f = Polynomial.from_dict(XYZ, field, {e: c * rng.choice(thirds) for e, c in f.terms})
        return f

    for _ in range(40):
        f, g, h, k = operand(), operand(), operand(), operand()
        assert_canonical(f * g, schoolbook(field, [(f, g)]))
        assert_canonical(f + g, schoolbook(field, addends=[f, g]))
        assert_canonical(f - g, schoolbook(field, addends=[f], subtrahends=[g]))
        assert_canonical(-f, schoolbook(field, subtrahends=[f]))
        for c in (-1, 3):
            assert_canonical(f.scale(c), schoolbook(field, [(f, Polynomial.const(XYZ, field, c))]))
        pairs = [(f, g), (h, k), (g, h)]
        assert_canonical(sum_of_products(XYZ, field, pairs), schoolbook(field, pairs))
        assert_canonical(sum_of_products(XYZ, field, pairs, [k, f]), schoolbook(field, pairs, [k, f]))
        # sums that cancel exactly: f g - f g, and f g + (p - 1) f g over F_p
        assert_canonical(sum_of_products(XYZ, field, [(f, g), (-f, g)]), {})
        assert_canonical(sum_of_products(XYZ, field, [(f, g)], [-(f * g)]), {})
        if field.char:
            assert_canonical(sum_of_products(XYZ, field, [(f, g), (f.scale(field.char - 1), g)]), {})
    # a coefficient sum that is 0 only mod p: x + (p - 1) x, and integers that meet at 0 over Q
    x = Polynomial.variable(XYZ, field, 0)
    one = Polynomial.const(XYZ, field, 1)
    p_minus_1 = Polynomial.const(XYZ, field, -1 % field.char if field.char else -1)
    assert_canonical(sum_of_products(XYZ, field, [(x, one), (x, p_minus_1)]), {})
    assert sum_of_products(XYZ, field, []).is_zero()


def test_multinomial_expansion_cube():
    """(x+y+z)^3 against the closed-form multinomial coefficients."""
    f = P("(x + y + z)^3")
    assert len(f.terms) == 10
    for (i, j, k), c in f.terms:
        assert i + j + k == 3
        expected = math.factorial(3) // (
            math.factorial(i) * math.factorial(j) * math.factorial(k)
        )
        assert c == Fraction(expected)


def test_ring_axioms_randomized(rng):
    """Associativity, commutativity, distributivity, identities, inverses."""
    cases = 0
    for field in (QQ, Fp(5), Fp(32003)):
        zero = Polynomial.zero(XYZ, field)
        one = Polynomial.const(XYZ, field, 1)
        for _ in range(60):
            f = rand(XYZ, field, rng, degree=3, terms=4)
            g = rand(XYZ, field, rng, degree=3, terms=4)
            h = rand(XYZ, field, rng, degree=2, terms=3)
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f + g == g + f
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert f + zero == f
            assert f * one == f
            assert f - f == zero
            assert f * zero == zero
            cases += 10
    assert cases >= 1000


def test_scalar_and_int_coercion():
    f = P("x + 1", XY)
    assert 2 * f == P("2*x + 2", XY)
    assert f * 2 == P("2*x + 2", XY)
    assert f - 1 == P("x", XY)
    assert f.scale(QQ.of(Fraction(1, 2))) == P("1/2*x + 1/2", XY)


def test_pow_matches_repeated_multiplication(rng):
    for _ in range(10):
        f = rand(XY, Fp(7), rng, degree=2, terms=3)
        acc = Polynomial.const(XY, Fp(7), 1)
        for k in range(5):
            assert f**k == acc
            acc = acc * f
    with pytest.raises(ValueError):
        P("x", XY) ** (-1)


def test_mismatched_rings_rejected():
    from detcomp.poly import ArityError

    with pytest.raises(ArityError):
        P("x", XY) + P("x", XYZ)
    with pytest.raises(FieldMismatchError):
        P("x", XY, QQ) * P("x", XY, Fp(5))


# ---------------------------------------------------------------- calculus


def test_partial_derivative_examples():
    cubic = P("x*y^2 + y*t^2 + z^3", XYZT)
    assert cubic.partial_derivative(0) == P("y^2", XYZT)
    assert cubic.partial_derivative("y") == P("2*x*y + t^2", XYZT)
    assert cubic.partial_derivative("z") == P("3*z^2", XYZT)
    assert cubic.partial_derivative("t") == P("2*y*t", XYZT)


def test_partial_derivative_char_p_kills_pth_powers():
    f = parse_polynomial("x^2", vars=XY, field=Fp(2))
    assert f.partial_derivative(0).is_zero()
    g = parse_polynomial("x^3", vars=XY, field=Fp(3))
    assert g.partial_derivative(0).is_zero()


def derivative_reference(f, i):
    """d/dx_i term by term on raw values, through the validating from_dict."""
    field = f.field
    acc: dict = {}
    for e, c in f.terms:
        if e[i]:
            me = e[:i] + (e[i] - 1,) + e[i + 1:]
            acc[me] = field.of(acc.get(me, field.zero) + c * e[i])
    return Polynomial.from_dict(f.vars, field, acc)


@pytest.mark.parametrize("field", [QQ, Fp(2), Fp(3), Fp(101)], ids=str)
def test_partial_derivative_matches_from_dict_reference(field, rng):
    # degrees up to 7 put exponents divisible by 2 and 3 in most polynomials
    thirds = [Fraction(1), Fraction(1, 3), Fraction(-5, 7)]
    for _ in range(60):
        f = rand(XYZ, field, rng, degree=rng.randint(0, 7), terms=rng.randint(0, 9))
        if field.char == 0:
            f = Polynomial.from_dict(XYZ, field, {e: c * rng.choice(thirds) for e, c in f.terms})
        for i in range(3):
            assert_canonical(f.partial_derivative(i), dict(derivative_reference(f, i).terms))


def test_euler_identity_homogeneous(rng):
    for field in (QQ, Fp(32003)):
        for d in (2, 3, 4):
            f = rand(XYZ, field, rng, degree=d, terms=5, homogeneous=True)
            assert euler_combination(f) == f.scale(field.of(d))


def test_leibniz_product_rule(rng):
    for field in (QQ, Fp(7)):
        for _ in range(50):
            f = rand(XYZ, field, rng, degree=3, terms=4)
            g = rand(XYZ, field, rng, degree=3, terms=4)
            for i in range(3):
                lhs = (f * g).partial_derivative(i)
                rhs = f.partial_derivative(i) * g + f * g.partial_derivative(i)
                assert lhs == rhs


# ------------------------------------------------------------- substitution


def test_substitute_affine_example():
    x, y = poly_ring(XY, QQ)
    f = x * y
    assert f.substitute_affine([x + y, x - y]) == P("x^2 - y^2", XY)


def test_substitute_identity_is_noop(rng):
    gens = list(poly_ring(XYZ, QQ))
    for _ in range(10):
        f = rand(XYZ, QQ, rng)
        assert f.substitute_affine(gens) == f


def test_substitution_composition_law(rng):
    """f(g(h)) computed either way agrees."""
    field = Fp(13)
    gens = poly_ring(XYZ, field)
    for _ in range(8):
        f = rand(XYZ, field, rng, degree=2, terms=4)
        g_imgs = [rand(XYZ, field, rng, degree=1, terms=3) for _ in gens]
        h_imgs = [rand(XYZ, field, rng, degree=1, terms=3) for _ in gens]
        once = f.substitute_affine([g.substitute_affine(h_imgs) for g in g_imgs])
        twice = f.substitute_affine(g_imgs).substitute_affine(h_imgs)
        assert once == twice


def test_substitute_arity_checked():
    with pytest.raises(ValueError):
        P("x", XY).substitute_affine([P("x", XY)])


# --------------------------------------------------------------- evaluation


def test_evaluate_examples():
    cubic = P("x*y^2 + y*t^2 + z^3", XYZT)
    assert cubic.evaluate([1, 1, 1, 1]) == FieldElement(QQ, QQ.of(3))
    assert cubic.evaluate([0, 0, 0, 0]).value == QQ.zero
    assert P("7", XY).evaluate([4, 5]).value == QQ.of(7)


def test_evaluate_agrees_with_constant_substitution(rng):
    field = Fp(101)
    for _ in range(30):
        f = rand(XYZ, field, rng)
        pt = [sample(field, rng, 101) for _ in range(3)]
        consts = [Polynomial.const(XYZ, field, c) for c in pt]
        assert f.substitute_affine(consts) == Polynomial.const(
            XYZ, field, f.evaluate(pt)
        )


def test_evaluate_is_a_ring_map(rng):
    field = Fp(31)
    for _ in range(40):
        f = rand(XYZ, field, rng)
        g = rand(XYZ, field, rng)
        pt = [sample(field, rng, 31) for _ in range(3)]
        a, b = f.evaluate(pt).value, g.evaluate(pt).value
        assert (f + g).evaluate(pt).value == (a + b) % 31
        assert (f * g).evaluate(pt).value == a * b % 31


# ---------------------------------------------------------- structure query


def test_homogeneity_detection():
    assert P("x^2 + y*z").is_homogeneous()
    assert not P("x^2 + y").is_homogeneous()
    assert Polynomial.zero(XY, QQ).is_homogeneous()


def test_rename_extend_restrict():
    f = P("x*y", XY)
    g = f.extend(XYZ)
    assert g == P("x*y", XYZ)


# ------------------------------------------------------------ text round trip


def test_parse_print_round_trip(rng):
    for field in (QQ, Fp(7)):
        for _ in range(40):
            f = rand(XYZT, field, rng, degree=4, terms=6)
            assert parse_polynomial(str(f), vars=XYZT, field=field) == f


def test_parse_rational_and_negative_literals():
    assert P("-x + 3/2*y", XY) == Polynomial.from_dict(
        XY, QQ, {(1, 0): QQ.of(-1), (0, 1): QQ.of(Fraction(3, 2))}
    )
    assert P("x - - y", XY) == P("x + y", XY)
    assert P("2^3", XY) == P("8", XY)
