"""Field arithmetic: canonical forms, inverses, and tag round-trips."""

from fractions import Fraction

import pytest

from detcomp.fields import (
    QQ,
    FieldElement,
    FieldMismatchError,
    Fp,
    field_from_tag,
    field_tag,
    is_prime,
)


def test_rational_canonical_form():
    a = QQ.of(Fraction(2, 4))
    assert a == Fraction(1, 2)
    b = QQ.of(Fraction(3, -6))
    assert b == Fraction(-1, 2)
    assert b.denominator > 0


def test_modular_canonical_range():
    F = Fp(7)
    for raw in range(-20, 21):
        v = F.of(raw)
        assert 0 <= v < 7
        assert (v - raw) % 7 == 0


def test_floats_rejected():
    with pytest.raises(TypeError):
        QQ.of(0.5)
    with pytest.raises(TypeError):
        Fp(5).of(1.0)


def test_rational_arithmetic_matches_fraction(rng):
    # the Fraction type is the oracle
    for _ in range(300):
        x = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        y = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        assert QQ.add(x, y) == x + y
        assert QQ.sub(x, y) == x - y
        assert QQ.mul(x, y) == x * y


def test_modular_arithmetic_matches_python_ints(rng):
    F = Fp(101)
    for _ in range(300):
        x = rng.randint(0, 100)
        y = rng.randint(0, 100)
        assert F.add(x, y) == (x + y) % 101
        assert F.mul(x, y) == (x * y) % 101
        assert F.sub(x, y) == (x - y) % 101
        assert F.neg(x) == (-x) % 101


def test_modular_inverse_every_nonzero_element():
    for p in (2, 3, 7, 31):
        F = Fp(p)
        for v in range(1, p):
            assert F.mul(v, F.inv(v)) == 1


def test_rational_inverse():
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        Fp(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        # 1/5 has no meaning mod 5
        Fp(5).of(Fraction(1, 5))


def test_fraction_reduction_into_prime_field():
    F = Fp(7)
    # 1/2 = 4 mod 7 because 2 * 4 = 1
    assert F.of(Fraction(1, 2)) == 4
    assert F.of("3/2") == F.mul(3, F.inv(2))


def test_nonprime_modulus_rejected():
    for n in (0, 1, 4, 6, 9, 32004):
        with pytest.raises(ValueError):
            Fp(n)


def test_is_prime_small_range():
    # trial division oracle
    def naive(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(0, 200):
        assert is_prime(n) == naive(n)
    assert is_prime(32003)


def test_field_equality_and_cache():
    assert Fp(7) is Fp(7)
    assert Fp(7) == Fp(7)
    assert Fp(7) != Fp(11)
    assert QQ == QQ
    assert QQ != Fp(7)


def test_sampling_is_deterministic_per_seed():
    import random

    F = Fp(101)
    a = [F.sample(random.Random(5), 101) for _ in range(20)]
    b = [F.sample(random.Random(5), 101) for _ in range(20)]
    assert a == b
    assert all(0 <= v < 101 for v in a)


def test_sample_set_sizes():
    assert Fp(101).sample_set_size(1000) == 101
    assert QQ.sample_set_size(100) >= 100


def test_field_element_wrapper_checks_fields():
    a = FieldElement(Fp(5), 3)
    assert a != FieldElement(Fp(7), 3)
    assert a == FieldElement(Fp(5), 3) and hash(a) == hash(FieldElement(Fp(5), 3))
    assert a == 3 and a == 8 and a != 2
    assert hash(a) == hash(3)
    # a value the field cannot read is unequal, not an error
    assert a != None and not a == "x" and a != Fraction(1, 5)  # noqa: E711
    assert a in [None, 3] and a not in [None, "x"]


def test_reinterpreting_elements_across_fields_rejected():
    e = FieldElement(Fp(5), 2)
    with pytest.raises(FieldMismatchError):
        QQ.of(e)
    with pytest.raises(FieldMismatchError):
        Fp(7).of(e)
    assert Fp(5).of(e) == 2


def test_field_tag_round_trip():
    for field in (QQ, Fp(2), Fp(32003)):
        assert field_from_tag(field_tag(field)) == field
    assert field_tag(QQ) == "Q"
    assert field_tag(Fp(7)) == {"Fp": 7}
    with pytest.raises(ValueError):
        field_from_tag({"Fp": 10})
    with pytest.raises(ValueError):
        field_from_tag("R")
