"""Reference code and seeded random inputs that only the tests use.

The package keeps no code that only tests reach (test_public_surface), so
these live here: random polynomials and matrices for the property tests, the
textbook division that normal_form and the oracle are checked against, and
the unrestricted enumeration that the canonical search is checked against.
"""

from itertools import product

from detcomp.fields import Field
from detcomp.linalg import Matrix, mat_det
from detcomp.matmap import det_laplace_memo
from detcomp.poly import Polynomial, VarSet
from detcomp.search import EnumerationCapError
from detcomp.verify import _Division


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


def random_matrix(field: Field, rows: int, cols: int, rng, size: int = 101) -> Matrix:
    return [[field.sample(rng, size) for _ in range(cols)] for _ in range(rows)]


def random_invertible(field: Field, n: int, rng, size: int = 101) -> Matrix:
    while True:
        m = random_matrix(field, n, n, rng, size)
        if mat_det(field, m) != field.zero:
            return m


def naive_normal_form(p: Polynomial, basis) -> Polynomial:
    """Full remainder of textbook division by basis, tried in list order."""
    division = _Division(list(basis), p.vars, p.field, max(p.degree(), 0))
    work = {division.key(e): c for e, c in p.terms}
    remainder = {}
    while term := division.divide(work):  # each call leaves only smaller terms in work
        remainder.update(term)
    mask = (1 << division.width) - 1  # a key's exponent fields, x_1 lowest
    shifts = range(0, len(p.vars) * division.width, division.width)
    return Polynomial.from_dict(p.vars, p.field, {
        tuple([(k >> s) & mask for s in shifts]): c for k, c in remainder.items()})


def enumerate_all_expressions(f: Polynomial, m: int, cap: int = 1 << 22) -> int:
    """Count of ALL affine maps (unrestricted) whose determinant is exactly f.

    Exponential in m^2 (n+1); exists to validate that the canonical search
    loses nothing on tiny instances.
    """
    if m < 1:
        raise ValueError(f"size must be at least 1, got {m}")
    field = f.field
    p = field.char
    n = len(f.vars)
    total = p ** (m * m * (n + 1))
    if total > cap:
        raise EnumerationCapError(total, cap, "unrestricted enumeration")
    # x_1, ..., x_n, then 1: the coefficient tuple of each affine entry
    monomials = [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)] + [(0,) * n]
    affine = [
        Polynomial.from_dict(f.vars, field, dict(zip(monomials, coeffs)))
        for coeffs in product(range(p), repeat=n + 1)
    ]
    count = 0
    for choice in product(affine, repeat=m * m):
        grid = [choice[i * m:i * m + m] for i in range(m)]
        if det_laplace_memo(grid) == f:
            count += 1
    return count
