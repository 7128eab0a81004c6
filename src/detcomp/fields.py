"""Exact coefficient fields: arbitrary-precision rationals and prime fields F_p.

Coefficients are stored as raw values (Fraction for the rationals, int in
[0, p) for F_p), and the kernels compute on them directly: `c * d % p if p
else c * d` with p = field.char. A Field supplies what that leaves: its
zero and one, `of` to read a value into the field, `inv`, and
`sample_range`, the set random points are drawn from.
FieldElement pairs a raw value with its field at the API boundary: a point
coordinate given as one is checked against the ring's field, and
Polynomial.evaluate returns one. It has no arithmetic of its own, and it
equals only a FieldElement of the same field and value.
"""

from __future__ import annotations

from fractions import Fraction

Coefficient = Fraction | int

# primes for which deterministic Miller-Rabin with this witness set is exact
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Record:
    """Base of the package's records, in place of dataclasses (whose import loads inspect).
    The fields are the class annotations, in constructor order, defaults are class attributes,
    and __post_init__ validates. A record is immutable, equals only a record of its class with
    equal fields, and hashes as their tuple. One built per search hit sets its fields itself.
    as_dict gives the fields by name, each tuple as a list: a report's JSON, but for the fields
    that its to_json spells otherwise. poly.VarSet is no record: it is the tuple of its names."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        given = dict(zip(fields, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(fields) or given.keys() & kwargs or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def as_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in zip(self._fields, self._values())}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values())
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in pairs)})"


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

    def of(self, value: object) -> Coefficient:
        raise NotImplementedError

    def inv(self, a: Coefficient) -> Coefficient:
        raise NotImplementedError

    def sample_range(self, size: int) -> range:
        """The ints random points draw from: at least `size` of them around 0
        over Q, all of [0, p) over F_p. A Schwartz-Zippel bound divides by
        its length."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.name


class RationalField(Field):
    """The rationals; raw values are Fractions, always in lowest terms."""

    char = 0
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, value: object) -> Fraction:
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(f"cannot reinterpret {value.field} value over Q")
            return value.value
        if isinstance(value, float):
            raise TypeError("floats are not exact; pass int, Fraction, or 'a/b' string")
        return Fraction(value)

    def inv(self, a):
        return 1 / Fraction(a)  # ZeroDivisionError for 0

    def sample_range(self, size: int) -> range:
        return range(-(size // 2), size // 2 + 1)

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
        if not (isinstance(p, int) and p < 2**64 and is_prime(p)):
            raise ValueError(f"modulus must be a prime below 2^64, got {p!r}")
        self.char = p
        self.name = f"F_{p}"
        self.zero = 0
        self.one = 1

    def of(self, value: object) -> int:
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(f"cannot reinterpret {value.field} value in {self}")
            return value.value
        p = self.char
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise ZeroDivisionError(f"denominator divisible by {p}")
            return value.numerator * pow(value.denominator, p - 2, p) % p
        if isinstance(value, float):
            raise TypeError("floats are not exact; pass an int")
        return value % p

    def inv(self, a):
        p = self.char
        a %= p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, p - 2, p)

    def sample_range(self, size: int) -> range:
        return range(self.char)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self) -> int:
        return hash(("field:Fp", self.char))


QQ = RationalField()

_PRIME_FIELD_CACHE: dict[int, PrimeField] = {}


def Fp(p: int) -> PrimeField:
    """Cached constructor for prime fields. A non-int goes to PrimeField, which refuses it,
    even when an equal int (7 for 7.0) is cached."""
    if not isinstance(p, int) or p not in _PRIME_FIELD_CACHE:
        _PRIME_FIELD_CACHE[p] = PrimeField(p)
    return _PRIME_FIELD_CACHE[p]


def field_from_tag(tag) -> Field:
    """Decode the JSON field tag: "Q" or {"Fp": p}, p an int (not a bool)."""
    if tag == "Q":
        return QQ
    if isinstance(tag, dict) and set(tag) == {"Fp"} and type(tag["Fp"]) is int:
        return Fp(tag["Fp"])
    raise ValueError(f"field must be Q or Fp with an integer prime, got {tag!r}")


def field_tag(field: Field):
    return "Q" if field.char == 0 else {"Fp": field.char}


class FieldElement(Record):
    """A raw coefficient paired with its field."""

    field: Field
    value: Coefficient

    def __str__(self) -> str:
        return str(self.value)
