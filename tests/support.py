"""Reference code and seeded random inputs that only the tests use.

The package keeps no code that only tests reach (test_public_surface), so
these live here: seeded draws from a field's sample range and a record of
the points a probabilistic check draws, random polynomials and matrices for
the property tests, the ideal of a list of generators, the textbook
division that normal_form and the oracle are checked against, and the
unrestricted enumeration that the canonical search is checked against.
"""

from itertools import product

from detcomp import matmap
from detcomp.fields import Field
from detcomp.groebner import Ideal
from detcomp.linalg import Matrix, mat_det
from detcomp.matmap import AffineMatrixMap, det_laplace_memo
from detcomp.poly import Polynomial, VarSet
from detcomp.search import EnumerationCapError
from detcomp.verify import _Division


def sample(field: Field, rng, size: int):
    """A raw value drawn uniformly from field.sample_range(size)."""
    r = field.sample_range(size)
    return field.of(rng.randrange(r.start, r.stop))


def record_draws(monkeypatch, field: Field) -> list:
    """A list that gets one (range, point) pair per point a matrix map is
    evaluated at from now on, the range being the one field.sample_range
    returned last before it."""
    draws, latest = [], [None]
    sample_range = type(field).sample_range
    evaluate_forms = matmap._evaluate_forms

    def spy_range(self, size):
        latest[0] = sample_range(self, size)
        return latest[0]

    def spy_forms(forms, vals):
        draws.append((latest[0], tuple(vals)))
        return evaluate_forms(forms, vals)

    monkeypatch.setattr(type(field), "sample_range", spy_range)
    monkeypatch.setattr(matmap, "_evaluate_forms", spy_forms)
    return draws


def ideal_of(*gens: Polynomial) -> Ideal:
    """The ideal the generators span, in the ring of the first."""
    return Ideal(gens[0].vars, gens[0].field, tuple(gens))


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
        acc[tuple(e)] = field.of(acc.get(tuple(e), field.zero) + sample(field, rng, coeff_size))
    return Polynomial.from_dict(vars, field, {e: c for e, c in acc.items() if c != field.zero})


def random_matrix(field: Field, rows: int, cols: int, rng, size: int = 101) -> Matrix:
    return [[sample(field, rng, size) for _ in range(cols)] for _ in range(rows)]


def scale_row(mapping: AffineMatrixMap, i: int, c) -> AffineMatrixMap:
    """mapping with row i multiplied by the constant c."""
    rows = list(mapping.entries)
    rows[i] = tuple(p.scale(c) for p in rows[i])
    return AffineMatrixMap(mapping.vars, mapping.field, tuple(rows))


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
