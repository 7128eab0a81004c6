"""Polynomial text grammar: accepted forms, error positions, inference."""

import math
import pathlib
import re
import time

import pytest

from detcomp import parsing
from detcomp.cli import main, resolve_poly
from detcomp.expressions import CATALOG_NAMES, catalog_get
from detcomp.fields import QQ, Fp
from detcomp.parsing import PolynomialSyntaxError, infer_varset, parse_polynomial
from detcomp.poly import varset

XY = varset("x", "y")


def test_basic_forms():
    assert parse_polynomial("x*y + y^2", XY) == parse_polynomial("y^2 + x*y", XY)
    assert parse_polynomial("(x + y)^2", XY) == parse_polynomial(
        "x^2 + 2*x*y + y^2", XY
    )
    assert parse_polynomial("0", XY).is_zero()
    assert parse_polynomial("  x  -  y ", XY) == parse_polynomial("x - y", XY)


def test_rational_literals_and_unary_minus():
    f = parse_polynomial("-3/2*x - -y", XY)
    assert f.coefficient((1, 0)) == QQ.of("-3/2")
    assert f.coefficient((0, 1)) == QQ.of(1)


def test_modular_coefficients():
    f = parse_polynomial("5*x + 1/2", XY, field=Fp(3))
    assert f.coefficient((1, 0)) == 2
    assert f.constant_term() == 2  # 1/2 = 2 mod 3


def test_no_implicit_multiplication():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("2x", XY)
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x y", XY)


def test_error_carries_position():
    with pytest.raises(PolynomialSyntaxError) as ei:
        parse_polynomial("x + @", XY)
    assert ei.value.line == 1
    assert ei.value.column == 5


def test_zero_denominator_is_a_syntax_error_at_the_literal():
    """1/0, and over F_p a denominator divisible by p, name no field value."""
    for text, field, column in (("1/0*x", QQ, 1), ("x + 2/0", QQ, 5),
                                ("1/7*x + y", Fp(7), 1), ("x +\n 3/14*y", Fp(7), 2)):
        with pytest.raises(PolynomialSyntaxError, match="divides by zero") as ei:
            parse_polynomial(text, XY, field=field)
        assert (ei.value.line, ei.value.column) == (text.count("\n") + 1, column)
    assert parse_polynomial("1/7*x", XY, field=Fp(5)).coefficient((1, 0)) == 3


def test_unknown_variable_rejected():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x + q", XY)


def test_unbalanced_parens_rejected():
    for bad in ("(x + y", "x + y)", "x ^", "x *", "", "x ^ y"):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial(bad, XY)


def test_infer_varset_orders_by_appearance():
    vs = infer_varset("b*a + c^2")
    assert tuple(vs) == ("b", "a", "c")
    f = parse_polynomial("b*a + c^2")
    assert f.vars == vs


def test_inference_requires_a_variable():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("3 + 4")


def test_exponent_must_be_integer_literal():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x^(2)", XY)


SUM16 = "(" + " + ".join(f"x{i}" for i in range(1, 17)) + ")"


@pytest.mark.parametrize("text", [
    SUM16 + "^200",
    SUM16 + "^123456789012345678901234567890",
    "*".join([SUM16] * 5),
], ids=["power", "huge-exponent", "product"])
def test_hostile_expansion_is_refused_before_expanding(text):
    start = time.process_time()
    with pytest.raises(PolynomialSyntaxError, match="expansion may exceed"):
        parse_polynomial(text)
    assert time.process_time() - start < 1.0


def test_expansion_cap_uses_the_term_count_bound(monkeypatch):
    monkeypatch.setattr(parsing, "MAX_EXPANSION_TERMS", 10)
    assert len(parse_polynomial("(x + y)^9", XY).terms) == 10
    with pytest.raises(PolynomialSyntaxError) as ei:
        parse_polynomial("(x + y)^10", XY)
    assert (ei.value.line, ei.value.column) == (1, 9)
    # a single term, or a factor with one term, never grows the term count
    assert parse_polynomial("x^1000 * (x + y)^9", XY).degree() == 1009
    # 16 products, but only C(1 + 6, 1) = 7 monomials of degree <= 6 in x
    quartic = "(x^3 + x^2 + x + 1)"
    assert len(parse_polynomial(quartic + "*" + quartic, varset("x")).terms) == 7
    # C(2 + 3, 2) = 10 after three factors, min(30, C(2 + 4, 2)) = 15 after four
    assert len(parse_polynomial("(x + y + 1)*(x + y + 1)*(x + y + 1)", XY).terms) == 10
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("(x + y + 1)*(x + y + 1)*(x + y + 1)*(x + y + 1)", XY)


def test_long_sum_is_added_in_one_pass():
    """A sum of cubes in 800 variables (about 7 KB of text) took about 10 s
    when each '+' rebuilt the whole sum; one pass takes about 0.3 s."""
    n = 800
    text = " + ".join(f"x{i + 1}^3" for i in range(n))
    start = time.process_time()
    f = parse_polynomial(text, field=QQ)
    assert time.process_time() - start < 2.0
    assert len(f.terms) == n
    assert f == resolve_poly(f"fermat:3:{n}", QQ)


def test_large_power_over_q_budget():
    """(x + 1)^999 over Q: about 0.5 s CPU on integer coefficients (3.5 s on
    Fractions, before the fused kernel); 5x allowed."""
    start = time.process_time()
    f = parse_polynomial("(x + 1)^999", varset("x"))
    assert time.process_time() - start < 2.5
    assert len(f.terms) == 1000
    assert f.coefficient((500,)) == math.comb(999, 500)


def test_hostile_expansion_exits_two_in_the_cli(capsys):
    start = time.process_time()
    assert main(["parse", "--poly", SUM16 + "^200"]) == 2
    assert "expansion may exceed" in capsys.readouterr().err
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("-", "")], ids=["parentheses", "minus"])
def test_deep_nesting_is_refused_at_the_first_token_past_the_cap(opening, closing, capsys):
    """3,000 nested parentheses or unary minus signs raise a syntax error at
    the (cap + 1)-th one, not RecursionError, and the CLI exits 2; the cap
    counts nesting, not occurrences."""
    cap = parsing.MAX_NESTING_DEPTH
    assert parse_polynomial(opening * cap + "x" + closing * cap, XY) == parse_polynomial("x", XY)
    siblings = " + ".join([opening + "x" + closing] * (2 * cap))  # side by side, not nested
    assert parse_polynomial(siblings, XY) == parse_polynomial(f"{opening}{2 * cap}*x{closing}", XY)
    text = opening * 3000 + "x" + closing * 3000
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(text, XY)
    assert (err.value.line, err.value.column) == (1, cap + 1)
    assert main(["parse", "--poly=" + text]) == 2
    assert "nest deeper than" in capsys.readouterr().err


def test_catalog_and_readme_polynomials_parse():
    for name in CATALOG_NAMES:
        mapping, target = catalog_get(name)
        assert parse_polynomial(str(target), target.vars) == target
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    examples = (re.findall(r'parse_polynomial\("([^"]+)"\)', readme)
                + re.findall(r'--poly "([^"]+)"', readme))
    assert len(examples) >= 2
    for text in examples:
        assert not parse_polynomial(text).is_zero()
