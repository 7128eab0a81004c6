"""Exact coefficient fields: arbitrary-precision rationals and prime fields F_p.

Coefficients are stored as raw values (Fraction for the rationals, int in
[0, p) for F_p) and arithmetic on raw values is dispatched through a Field
object; that keeps the polynomial kernels free of per-element wrappers.
FieldElement pairs a raw value with its field at the API boundary: a point
coordinate given as one is checked against the ring's field, and
Polynomial.evaluate returns one. It has no arithmetic of its own; compute on
raw values through the Field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Union

Coefficient = Union[Fraction, int]

# primes for which deterministic Miller-Rabin with this witness set is exact
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldMismatchError(TypeError):
    """Mixing values from different fields is an error, never a coercion."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Interface shared by the rational field and the prime fields."""

    char: int
    name: str

    def of(self, value: Any) -> Coefficient:
        raise NotImplementedError

    def add(self, a: Coefficient, b: Coefficient) -> Coefficient:
        raise NotImplementedError

    def sub(self, a: Coefficient, b: Coefficient) -> Coefficient:
        raise NotImplementedError

    def mul(self, a: Coefficient, b: Coefficient) -> Coefficient:
        raise NotImplementedError

    def neg(self, a: Coefficient) -> Coefficient:
        raise NotImplementedError

    def inv(self, a: Coefficient) -> Coefficient:
        raise NotImplementedError

    def sample(self, rng, size: int) -> Coefficient:
        """Uniform raw value from a sample set of (at least) `size` elements."""
        raise NotImplementedError

    def sample_set_size(self, size: int) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name


class RationalField(Field):
    """The rationals; raw values are Fractions, always in lowest terms."""

    char = 0
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value: Any) -> Fraction:
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise FieldMismatchError(f"cannot reinterpret {value.field} value over Q")
            return value.value
        if isinstance(value, float):
            raise TypeError("floats are not exact; pass int, Fraction, or 'a/b' string")
        if isinstance(value, str):
            return Fraction(value)
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def sample(self, rng, size: int) -> Fraction:
        half = size // 2
        return Fraction(rng.randint(-half, half))

    def sample_set_size(self, size: int) -> int:
        return 2 * (size // 2) + 1

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("field:Q")


class PrimeField(Field):
    """F_p for a prime p; raw values are ints in [0, p).

    p must fit in a machine word. p = 2 is permitted; permanent-related
    operations flag it separately because perm = det in characteristic 2.
    """

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p!r}")
        if p >= 2**64:
            raise ValueError("modulus must fit in a machine word")
        self.p = p
        self.char = p
        self.name = f"F_{p}"
        self.zero = 0
        self.one = 1 % p

    def of(self, value: Any) -> int:
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(f"cannot reinterpret {value.field} value in {self}")
            return value.value
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return value.numerator * pow(value.denominator, self.p - 2, self.p) % self.p
        if isinstance(value, str):
            frac = Fraction(value)
            return self.of(frac)
        if isinstance(value, float):
            raise TypeError("floats are not exact; pass an int")
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def sample(self, rng, size: int) -> int:
        return rng.randrange(self.p)

    def sample_set_size(self, size: int) -> int:
        return self.p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("field:Fp", self.p))


QQ = RationalField()

_PRIME_FIELD_CACHE: dict[int, PrimeField] = {}


def Fp(p: int) -> PrimeField:
    """Cached constructor for prime fields."""
    field = _PRIME_FIELD_CACHE.get(p)
    if field is None:
        field = PrimeField(p)
        _PRIME_FIELD_CACHE[p] = field
    return field


def field_from_tag(tag) -> Field:
    """Decode the JSON field tag: "Q" or {"Fp": p}."""
    if tag == "Q":
        return QQ
    if isinstance(tag, dict) and set(tag) == {"Fp"}:
        return Fp(int(tag["Fp"]))
    raise ValueError(f"unrecognized field tag {tag!r}")


def field_tag(field: Field):
    return "Q" if field.char == 0 else {"Fp": field.char}


@dataclass(frozen=True)
class FieldElement:
    """A raw coefficient paired with its field."""

    field: Field
    value: Coefficient

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        try:
            return self.value == self.field.of(other)
        except (TypeError, ValueError, ZeroDivisionError):
            return NotImplemented  # not a value of this field

    def __hash__(self) -> int:
        return hash(self.value)  # it equals its raw value, so it hashes like it

    def __str__(self) -> str:
        return str(self.value)
