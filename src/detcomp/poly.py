"""Sparse multivariate polynomials with exact coefficients.

Representation: a Polynomial is an immutable sorted tuple of
(exponent_tuple, coefficient) pairs over a fixed VarSet and Field, with no
zero coefficients and terms in strictly descending degrevlex order. The zero
polynomial has an empty term tuple and degree MINUS_INF.

Monomials are plain exponent tuples; the helpers below implement the degrevlex
order (graded, ties broken by smaller exponent in the rightmost differing
position) and divisibility. Canonical form is maintained by construction, so
structural equality is polynomial equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .fields import Coefficient, Field, FieldElement, FieldMismatchError, QQ

Monomial = tuple  # exponent tuple, one slot per variable

MINUS_INF = float("-inf")  # degree of the zero polynomial


class ArityError(ValueError):
    """Exponent vector or point length does not match the variable count."""


@dataclass(frozen=True)
class VarSet:
    """An ordered tuple of distinct variable names fixing the ambient ring."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")
        for name in self.names:
            if not name or not (name[0].isalpha() or name[0] == "_"):
                raise ValueError(f"invalid variable name {name!r}")

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __getitem__(self, i: int) -> str:
        return self.names[i]

    def index(self, name: str) -> int:
        return self.names.index(name)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __str__(self) -> str:
        return ", ".join(self.names)


def varset(*names: str) -> VarSet:
    return VarSet(tuple(names))


# Uncalled in src/; kept because bench/tracing.py rebinds both by name.
def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_key(e: Monomial):
    """Sort key: bigger key = bigger monomial in degrevlex."""
    return (sum(e), tuple(-x for x in reversed(e)))


def point_values(vars: VarSet, field: Field, point: Sequence) -> list:
    """Raw values of a point of the ring's affine space, one per variable."""
    if len(point) != len(vars):
        raise ArityError(f"point of length {len(point)} for {len(vars)} variables")
    vals = []
    for x in point:
        if isinstance(x, FieldElement):
            if x.field != field:
                raise FieldMismatchError(f"{field} vs {x.field}")
            vals.append(x.value)
        else:
            vals.append(field.of(x))
    return vals


def mono_str(e: Monomial, vars: VarSet) -> str:
    parts = []
    for name, exp in zip(vars, e):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


class Polynomial:
    """Immutable sparse polynomial in canonical degrevlex form."""

    __slots__ = ("vars", "field", "terms", "_degree", "_hash")

    def __init__(self, vars: VarSet, field: Field, terms: tuple):
        # terms must already be canonical; use the constructors below
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_degree", max((sum(e) for e, _ in terms), default=MINUS_INF))
        object.__setattr__(self, "_hash", None)

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
        terms.sort(key=lambda t: mono_key(t[0]), reverse=True)
        return cls(vars, field, tuple(terms))

    @classmethod
    def from_terms(cls, vars: VarSet, field: Field, pairs: Iterable) -> "Polynomial":
        acc: dict = {}
        for e, c in pairs:
            e = tuple(e)
            acc[e] = field.add(acc.get(e, field.zero), field.of(c))
        return cls.from_dict(vars, field, acc)

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
        e = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, field, ((e, field.one),))

    @classmethod
    def parse(cls, text: str, vars: VarSet | None = None, field: Field = QQ) -> "Polynomial":
        from .parsing import parse_polynomial

        return parse_polynomial(text, vars=vars, field=field)

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

    def leading_coefficient(self) -> Coefficient:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def coefficient(self, e: Monomial) -> Coefficient:
        e = tuple(e)
        for te, tc in self.terms:
            if te == e:
                return tc
        return self.field.zero

    def constant_term(self) -> Coefficient:
        return self.coefficient((0,) * len(self.vars))

    def monomials(self) -> list:
        return [e for e, _ in self.terms]

    def is_homogeneous(self) -> bool:
        """True for 0 and for polynomials whose terms share one degree."""
        degs = {sum(e) for e, _ in self.terms}
        return len(degs) <= 1

    def graded_parts(self) -> dict:
        parts: dict = {}
        for e, c in self.terms:
            parts.setdefault(sum(e), []).append((e, c))
        return {d: Polynomial(self.vars, self.field, tuple(ts)) for d, ts in parts.items()}

    def degree_in(self, i: int) -> int:
        """Largest exponent of variable i; 0 for the zero polynomial."""
        return max((e[i] for e, _ in self.terms), default=0)

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
        acc = dict(self.terms)
        field = self.field
        zero = field.zero
        for e, c in other.terms:
            s = field.add(acc.get(e, zero), c)
            if s == zero:
                acc.pop(e, None)
            else:
                acc[e] = s
        return Polynomial.from_dict(self.vars, field, acc)

    __radd__ = __add__

    def __neg__(self):
        neg = self.field.neg
        return Polynomial(self.vars, self.field, tuple((e, neg(c)) for e, c in self.terms))

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
        field = self.field
        zero = field.zero
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(x + y for x, y in zip(e1, e2))
                s = field.add(acc.get(e, zero), field.mul(c1, c2))
                if s == zero:
                    acc.pop(e, None)
                else:
                    acc[e] = s
        return Polynomial.from_dict(self.vars, field, acc)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Polynomial":
        c = self.field.of(c)
        if c == self.field.zero:
            return Polynomial.zero(self.vars, self.field)
        mul = self.field.mul
        return Polynomial(self.vars, self.field, tuple((e, mul(cc, c)) for e, cc in self.terms))

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

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading_coefficient()))

    # -- calculus and substitution -------------------------------------------

    def partial_derivative(self, which) -> "Polynomial":
        i = self.vars.index(which) if isinstance(which, str) else which
        field = self.field
        acc: dict = {}
        for e, c in self.terms:
            if e[i] == 0:
                continue
            me = e[:i] + (e[i] - 1,) + e[i + 1 :]
            s = field.add(acc.get(me, field.zero), field.mul(c, field.of(e[i])))
            if s == field.zero:
                acc.pop(me, None)
            else:
                acc[me] = s
        return Polynomial.from_dict(self.vars, field, acc)

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
        # cache powers of each image
        pow_cache: list[list[Polynomial]] = [[Polynomial.const(target_vars, target_field, 1)] for _ in images]
        result = Polynomial.zero(target_vars, target_field)
        for e, c in self.terms:
            termval = Polynomial.const(target_vars, target_field, c)
            for i, exp in enumerate(e):
                cache = pow_cache[i]
                while len(cache) <= exp:
                    cache.append(cache[-1] * images[i])
                termval = termval * cache[exp]
            result = result + termval
        return result

    def evaluate(self, point: Sequence) -> FieldElement:
        """Exact evaluation at a point over this polynomial's field."""
        field = self.field
        vals = point_values(self.vars, field, point)
        if isinstance(field, type(QQ)):
            total = Fraction(0)
            for e, c in self.terms:
                v = c
                for x, exp in zip(vals, e):
                    if exp:
                        v *= x**exp
                total += v
            return FieldElement(field, total)
        p = field.char
        total = 0
        for e, c in self.terms:
            v = c
            for x, exp in zip(vals, e):
                if exp:
                    v = v * pow(x, exp, p) % p
            total = (total + v) % p
        return FieldElement(field, total)

    def rename(self, new_vars: VarSet) -> "Polynomial":
        """Reinterpret over a same-length variable set (positional)."""
        if len(new_vars) != len(self.vars):
            raise ArityError("variable counts differ")
        return Polynomial(new_vars, self.field, self.terms)

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
        terms.sort(key=lambda t: mono_key(t[0]), reverse=True)
        return Polynomial(new_vars, self.field, tuple(terms))

    def restrict(self, new_vars: VarSet) -> "Polynomial":
        """Project onto a subset ring; fails if a dropped variable occurs."""
        keep = [self.vars.index(name) for name in new_vars]
        dropped = [i for i in range(len(self.vars)) if i not in keep]
        terms = []
        for e, c in self.terms:
            if any(e[i] for i in dropped):
                raise ValueError("polynomial involves a dropped variable")
            terms.append((tuple(e[i] for i in keep), c))
        terms.sort(key=lambda t: mono_key(t[0]), reverse=True)
        return Polynomial(new_vars, self.field, tuple(terms))

    # -- comparisons and printing --------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if other == 0:
                return self.is_zero()
            return NotImplemented
        return self.vars == other.vars and self.field == other.field and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.vars, self.field, self.terms))
            object.__setattr__(self, "_hash", h)
        return h

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


def poly_ring(vars: VarSet, field: Field):
    """Convenience: the tuple of variable polynomials for a ring."""
    return tuple(Polynomial.variable(vars, field, i) for i in range(len(vars)))


def euler_combination(f: Polynomial) -> Polynomial:
    """sum_i x_i * df/dx_i; equals deg(f) * f for homogeneous f."""
    gens = poly_ring(f.vars, f.field)
    total = Polynomial.zero(f.vars, f.field)
    for i, x in enumerate(gens):
        total = total + x * f.partial_derivative(i)
    return total


def random_polynomial(
    vars: VarSet,
    field: Field,
    rng,
    degree: int = 3,
    terms: int = 6,
    homogeneous: bool = False,
    coeff_size: int = 101,
) -> Polynomial:
    """Random sparse polynomial for property tests (seeded rng)."""
    n = len(vars)
    acc: dict = {}
    for _ in range(terms):
        d = degree if homogeneous else rng.randint(0, degree)
        e = [0] * n
        for _ in range(d):
            e[rng.randrange(n)] += 1
        acc[tuple(e)] = field.add(acc.get(tuple(e), field.zero), field.sample(rng, coeff_size))
    return Polynomial.from_dict(vars, field, {e: c for e, c in acc.items() if c != field.zero})
