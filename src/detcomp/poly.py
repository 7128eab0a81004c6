"""Sparse multivariate polynomials with exact coefficients.

Representation: a Polynomial is an immutable sorted tuple of
(exponent_tuple, coefficient) pairs over a fixed VarSet and Field, with no
zero coefficients and terms in strictly descending degrevlex order. The zero
polynomial has an empty term tuple and degree MINUS_INF. A VarSet is the
tuple of the ring's variable names, checked distinct and valid; two
Polynomials share a ring when their VarSets and Fields are equal.

Monomials are plain exponent tuples; the helpers below implement the degrevlex
order (graded, ties broken by smaller exponent in the rightmost differing
position) and divisibility, and staircase_dimension gives the Krull dimension
of a monomial ideal from its generators. Canonical form is maintained by
construction, so structural equality is polynomial equality.

Products and sums go through one kernel, sum_of_products, which computes
sum a_i * b_i (plus plain addends) into a single dict of raw coefficients:
ints reduced mod p once per output monomial over F_p, ints over Q when every
factor coefficient is an integer, Fractions otherwise. Zeros are dropped and
the terms sorted once. Polynomial.__mul__ and __add__ are single calls;
matmap's Laplace expansion hands it a whole cofactor sum at a time. (matmap's
Berkowitz method packs its monomials into ints and multiplies them itself.)
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import compress
from operator import add

from .fields import Coefficient, Field, FieldElement, FieldMismatchError

Monomial = tuple  # exponent tuple, one slot per variable

MINUS_INF = float("-inf")  # degree of the zero polynomial


class ArityError(ValueError):
    """Exponent vector or point length does not match the variable count."""


class VarSet(tuple):
    """The ring's ordered, distinct variable names: their tuple, which it equals and hashes as."""

    __slots__ = ()

    def __new__(cls, names):
        self = super().__new__(cls, names)
        if len(set(self)) != len(self):
            raise ValueError(f"duplicate variable names in {self!r}")
        for name in self:
            if not name or not (name[0].isalpha() or name[0] == "_"):
                raise ValueError(f"invalid variable name {name!r}")
        return self

    def __str__(self) -> str:
        return ", ".join(self)


def varset(*names: str) -> VarSet:
    return VarSet(names)


# Uncalled in src/; kept because bench/tracing.py rebinds both by name.
def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_key(e: Monomial):
    """Sort key: bigger key = bigger monomial in degrevlex."""
    return (sum(e), tuple(-x for x in reversed(e)))


def _term_order(term):
    """Ascending sort key of a (monomial, coefficient) term: canonical order,
    largest monomial first. The same order as mono_key, reversed."""
    e = term[0]
    return (-sum(e), e[::-1])


def point_values(vars: VarSet, field: Field, point: Sequence) -> list:
    """Raw values of a point of the ring's affine space, one per variable;
    a FieldElement coordinate must belong to the ring's field."""
    if len(point) != len(vars):
        raise ArityError(f"point of length {len(point)} for {len(vars)} variables")
    return [field.of(x) for x in point]


def evaluate_terms(terms: Iterable, vals: Sequence, p: int = 0):
    """Sum of c * x^e over (e, c) terms at raw values vals: reduced mod p
    when p, else exact in whatever numbers terms and vals hold (ints for an
    integer point and coefficients). Polynomial.evaluate wraps it."""
    total = 0
    if p:
        for e, c in terms:
            # the coordinates and exponents of e's variables, skipping the rest
            for x, exp in zip(compress(vals, e), filter(None, e)):
                c = c * pow(x, exp, p) % p
            total += c
        return total % p
    for e, c in terms:
        for x, exp in zip(compress(vals, e), filter(None, e)):
            c *= x**exp
        total += c
    return total


def mono_str(e: Monomial, vars: VarSet) -> str:
    parts = []
    for name, exp in zip(vars, e):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


def _mask(e) -> int:
    return sum(1 << i for i, x in enumerate(e) if x)


def staircase_dimension(lead_monomials, n: int) -> int:
    """Affine Krull dimension from the leading-monomial staircase.

    dim = size of the largest variable subset S such that no leading monomial
    is supported entirely inside S; -1 when 1 is among the leading monomials.
    The complement of S is a smallest variable set that meets the support of
    every leading monomial; only the subset-minimal supports matter.
    """
    masks = set()
    for e in lead_monomials:
        if sum(e) == 0:
            return -1
        masks.add(_mask(e))
    minimal: list[int] = []
    for m in sorted(masks, key=int.bit_count):  # a subset has fewer bits
        if all(o & m != o for o in minimal):
            minimal.append(m)
    size = 0
    while not _meets(minimal, size):
        size += 1
    return n - size


def _meets(masks, size: int) -> bool:
    """True when some set of at most size variables meets every mask. Such a
    set holds a variable of each mask, so branch on the variables of one it
    does not meet yet, the one with the fewest."""
    if not masks:
        return True
    if not size:
        return False
    m = min(masks, key=int.bit_count)
    while m:
        v = m & -m
        if _meets([o for o in masks if not o & v], size - 1):
            return True
        m ^= v
    return False


class Polynomial:
    """Immutable sparse polynomial in canonical degrevlex form."""

    __slots__ = ("vars", "field", "terms", "_degree")

    def __init__(self, vars: VarSet, field: Field, terms: tuple):
        # terms must already be canonical; use the constructors below
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", terms)
        # degrevlex is graded, so the first canonical term has the top degree
        object.__setattr__(self, "_degree", sum(terms[0][0]) if terms else MINUS_INF)

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dict(cls, vars: VarSet, field: Field, mapping: dict) -> "Polynomial":
        n = len(vars)
        terms = []
        for e, c in mapping.items():
            if len(e) != n:
                raise ArityError(f"exponent vector {e} vs {n} variables")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            if c != field.zero:
                terms.append((tuple(e), c))
        terms.sort(key=_term_order)
        return cls(vars, field, tuple(terms))

    @classmethod
    def zero(cls, vars: VarSet, field: Field) -> "Polynomial":
        return cls(vars, field, ())

    @classmethod
    def const(cls, vars: VarSet, field: Field, c) -> "Polynomial":
        c = field.of(c)
        if c == field.zero:
            return cls.zero(vars, field)
        return cls(vars, field, (((0,) * len(vars), c),))

    @classmethod
    def variable(cls, vars: VarSet, field: Field, which) -> "Polynomial":
        i = vars.index(which) if isinstance(which, str) else which
        if not 0 <= i < len(vars):
            raise IndexError(f"variable index {i} out of range for {len(vars)} variables")
        e = (0,) * i + (1,) + (0,) * (len(vars) - i - 1)
        return cls(vars, field, ((e, field.one),))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree; MINUS_INF for the zero polynomial."""
        return self._degree

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def coefficient(self, e: Monomial) -> Coefficient:
        e = tuple(e)
        for te, tc in self.terms:
            if te == e:
                return tc
        return self.field.zero

    def constant_term(self) -> Coefficient:
        return self.coefficient((0,) * len(self.vars))

    def is_homogeneous(self) -> bool:
        """True for 0 and for polynomials whose terms share one degree."""
        degs = {sum(e) for e, _ in self.terms}
        return len(degs) <= 1

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.vars != other.vars:
            raise ArityError(f"variable sets differ: ({self.vars}) vs ({other.vars})")
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.vars, self.field, other)
        self._check_ring(other)
        return sum_of_products(self.vars, self.field, (), (self, other))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.char
        return Polynomial(self.vars, self.field, tuple((e, -c % p if p else -c) for e, c in self.terms))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.vars, self.field, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check_ring(other)
        return sum_of_products(self.vars, self.field, ((self, other),))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = self.field.of(c)
        if c == self.field.zero:
            return Polynomial.zero(self.vars, self.field)
        p = self.field.char
        return Polynomial(self.vars, self.field,
                          tuple((e, cc * c % p if p else cc * c) for e, cc in self.terms))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.const(self.vars, self.field, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus and substitution -------------------------------------------

    def partial_derivative(self, which) -> "Polynomial":
        i = self.vars.index(which) if isinstance(which, str) else which
        p = self.field.char
        # Dividing by x_i keeps the degrevlex order of the surviving terms and
        # sends distinct terms to distinct monomials: no merge, no sort.
        terms = []
        for e, c in self.terms:
            k = e[i]
            if k == 0:
                continue
            c = c * k % p if p else c * k
            if c:
                terms.append((e[:i] + (k - 1,) + e[i + 1 :], c))
        return Polynomial(self.vars, self.field, tuple(terms))

    def substitute_affine(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Compose with degree <= 1 images, one per variable, over a common ring."""
        if len(images) != len(self.vars):
            raise ArityError(f"{len(images)} images for {len(self.vars)} variables")
        if not images:
            raise ArityError("cannot substitute in a ring with no variables")
        target_vars, target_field = images[0].vars, images[0].field
        for g in images:
            if g.vars != target_vars or g.field != target_field:
                raise FieldMismatchError("images must share one target ring")
            if g.degree() > 1:
                raise ValueError("substitution images must have degree <= 1")
        if target_field != self.field:
            raise FieldMismatchError(f"{self.field} vs {target_field}")
        # each term's image is c times the cached powers of the images of its
        # variables; the last factor goes to the one sum as a product pair
        one = Polynomial.const(target_vars, target_field, 1)
        pow_cache: list[list[Polynomial]] = [[one] for _ in images]
        products = []
        for e, c in self.terms:
            factors = []
            for i, exp in enumerate(e):
                if exp:
                    cache = pow_cache[i]
                    while len(cache) <= exp:
                        cache.append(cache[-1] * images[i])
                    factors.append(cache[exp])
            image = Polynomial.const(target_vars, target_field, c)
            for f in factors[:-1]:
                image = image * f
            products.append((image, factors[-1] if factors else one))
        return sum_of_products(target_vars, target_field, products)

    def evaluate(self, point: Sequence) -> FieldElement:
        """Exact value at a point over this polynomial's field, paired with
        the field; read the raw value from `.value`."""
        field = self.field
        p = field.char
        total = evaluate_terms(self.terms, point_values(self.vars, field, point), p)
        return FieldElement(field, total if p else Fraction(total))

    def extend(self, new_vars: VarSet) -> "Polynomial":
        """Lift into a superset ring; existing variables keep their names."""
        positions = [new_vars.index(name) for name in self.vars]
        n = len(new_vars)
        terms = []
        for e, c in self.terms:
            ne = [0] * n
            for pos, exp in zip(positions, e):
                ne[pos] = exp
            terms.append((tuple(ne), c))
        terms.sort(key=_term_order)
        return Polynomial(new_vars, self.field, tuple(terms))

    # -- comparisons and printing --------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if other == 0:
                return self.is_zero()
            return NotImplemented
        return self.vars == other.vars and self.field == other.field and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, self.field, self.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rational = self.field.char == 0
        chunks = []
        for idx, (e, c) in enumerate(self.terms):
            mono = mono_str(e, self.vars)
            if rational and c < 0:
                sign = "-" if idx == 0 else " - "
                mag = -c
            else:
                sign = "" if idx == 0 else " + "
                mag = c
            if mono == "1":
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            chunks.append(sign + body)
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def sum_of_products(
    vars: VarSet, field: Field, products: Iterable, addends: Iterable = ()
) -> Polynomial:
    """sum a * b over the (a, b) pairs of products, plus every addend.

    All operands are Polynomials of the ring (vars, field); the callers check
    that. Every term product goes into one dict of raw coefficients, which is
    reduced mod p once per monomial over F_p. Over Q the products run on ints
    when every factor coefficient is an integer, and on Fractions otherwise.
    Zeros are dropped and the terms sorted once, into the trusted constructor.
    """
    p = field.char
    pairs = [(a.terms, b.terms) for a, b in products]
    addends = [a.terms for a in addends]
    factors = [terms for pair in pairs for terms in pair] + addends
    # Sums alone keep their Fractions: only monomials that meet are added.
    integral = p == 0 and bool(pairs) and all(c.denominator == 1 for terms in factors for _, c in terms)
    if integral:
        pairs = [([(e, c.numerator) for e, c in at], [(e, c.numerator) for e, c in bt]) for at, bt in pairs]
        addends = [[(e, c.numerator) for e, c in terms] for terms in addends]
    acc: dict = {}
    get = acc.get
    for at, bt in pairs:
        for e1, c1 in at:
            for e2, c2 in bt:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
    for terms in addends:
        for e, c in terms:
            old = get(e)
            acc[e] = c if old is None else old + c
    if p:
        terms = [(e, r) for e, c in acc.items() if (r := c % p)]
    elif integral:
        terms = [(e, Fraction(c)) for e, c in acc.items() if c]
    else:
        terms = [(e, c) for e, c in acc.items() if c]
    terms.sort(key=_term_order)
    return Polynomial(vars, field, tuple(terms))
