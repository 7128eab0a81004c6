"""Field arithmetic: canonical forms, inverses, and tag round-trips."""

import random
from fractions import Fraction

import pytest

from detcomp.fields import (
    QQ,
    FieldElement,
    FieldMismatchError,
    Fp,
    PrimeField,
    RationalField,
    field_from_tag,
    field_tag,
    is_prime,
)
from support import sample


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


def test_modular_inverse_every_nonzero_element():
    for p in (2, 3, 7, 31):
        F = Fp(p)
        for v in range(1, p):
            assert v * F.inv(v) % p == 1


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
    assert F.of("3/2") == 3 * F.inv(2) % 7


def test_nonprime_modulus_rejected():
    for n in (0, 1, 4, 6, 9, 32004):
        with pytest.raises(ValueError):
            Fp(n)


def test_non_int_modulus_rejected_even_when_its_int_is_cached():
    # 7.0 == 7 and hashes alike, so a cache lookup before the type check would return F_7
    assert Fp(7) is Fp(7) and Fp(2) is Fp(2)
    for p in (7.0, 2.0):
        with pytest.raises(ValueError, match=r"^modulus must be a prime below 2\^64, got"):
            Fp(p)


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
    """A seeded draw from sample_range is the stream randrange(p) over F_p
    and randint(-(size // 2), size // 2) over Q gave."""
    for field, draw in ((Fp(101), lambda rng: rng.randrange(101)),
                        (QQ, lambda rng: Fraction(rng.randint(-50, 50)))):
        rng, ref = random.Random(5), random.Random(5)
        a = [sample(field, rng, 101) for _ in range(50)]
        assert a == [draw(ref) for _ in range(50)]
        assert all(v in field.sample_range(101) for v in a)


def test_sample_set_sizes():
    assert Fp(101).sample_range(1000) == range(101)
    assert Fp(2).sample_range(64) == range(2)
    for size, half in ((100, 50), (101, 50), (64, 32), (1, 0)):
        r = QQ.sample_range(size)
        assert r == range(-half, half + 1) and len(r) >= size


def test_field_element_wrapper_checks_fields():
    a = FieldElement(Fp(5), 3)
    assert a != FieldElement(Fp(7), 3) and a != FieldElement(QQ, Fraction(3))
    assert a == FieldElement(Fp(5), 3) and hash(a) == hash(FieldElement(Fp(5), 3))
    # a raw value is not an element, whatever the field would read it as
    assert a != 3 and a != 8 and not a == "3"
    assert a != None and a != Fraction(1, 5)  # noqa: E711
    assert a not in [None, 3, 8] and a in [None, FieldElement(Fp(5), 3)]
    assert a.value == 3 and str(a) == "3"
    # a second RationalField() is the same field as QQ, as Fp(5) is PrimeField(5)
    assert QQ.of(FieldElement(RationalField(), Fraction(1, 2))) == Fraction(1, 2)
    assert Fp(5).of(FieldElement(PrimeField(5), 3)) == 3


def test_equal_field_elements_hash_equally_and_never_equal_raw_values(rng):
    for field in (QQ, Fp(2), Fp(101)):
        values = [field.of(Fraction(rng.randint(-30, 30), rng.choice((1, 3, 7))))
                  for _ in range(60)]
        elements = [FieldElement(field, v) for v in values]
        table = {e: e.value for e in elements}
        for v, e in zip(values, elements):
            twin = FieldElement(field, field.of(v))
            assert twin == e and hash(twin) == hash(e) and table[twin] == v
            for raw in (v, str(v), v + field.char):
                assert e != raw and raw not in table
        assert len(table) == len(set(values))


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
