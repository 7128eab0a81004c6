"""Affine matrix maps and symbolic determinants.

An AffineMatrixMap is a square grid of degree <= 1 polynomials L(x) = C + Z(x)
with constant part C and linear part Z. Determinants are computed exactly by
one of two independent algorithms: memoized Laplace expansion and the
division-free Berkowitz method. Both return the same canonical Polynomial,
which the tests cross-check. Laplace works on polynomials, one
sum_of_products call per cofactor sum. Berkowitz works on ints: on the
scalar coefficient matrices of the grid, one per monomial, whose columns
are packed into one int of signed slots each, so a matrix-vector step is one
big-int multiply-add per vector entry, and on monomials packed into one int
each, so a product of two monomials is one addition. It builds no
Polynomial but the determinant.

symbolic_det chooses between them by work, not by size. A bit-mask walk
over the row subsets the Laplace expansion would reach counts its
polynomial products, with no polynomial arithmetic, and stops once the
count passes the O(m^4) product count of Berkowitz or LAPLACE_MAX_PRODUCTS.
Laplace runs when it stays within both: every matrix up to 7x7 and sparse
ones of any size, such as the 15x15 Grenet expression of perm4. Dense
matrices from 8x8 up go to Berkowitz.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import inf, lcm, nextafter, prod
from operator import mul

from . import linalg
from .fields import Field, FieldMismatchError, QQ, Record
from .poly import (
    Polynomial, VarSet, _term_order, evaluate_terms, mono_key, mono_str, point_values, sum_of_products,
)

PERM_MAX_SIZE = 6          # largest permanent perm_polynomial builds (n! terms)
GENERIC_DET_MAX_SIZE = 5   # largest generic determinant generic_det_polynomial builds
# Most products symbolic_det lets Laplace-memo make, whatever Berkowitz
# would cost; it bounds the chooser's walk and Laplace's memo of subsets.
LAPLACE_MAX_PRODUCTS = 1 << 18


class FieldTooSmallError(ValueError):
    """Probabilistic verification needs a field larger than twice the degree."""


def _check_grid(grid: Sequence[Sequence[Polynomial]],
                vars: VarSet | None = None, field: Field | None = None):
    """Raise unless grid is a nonempty square of polynomials over one ring.

    The ring is (vars, field) when given, else that of the first entry.
    ValueError for the shape, FieldMismatchError for an entry outside it.
    """
    m = len(grid)
    if m < 1:
        raise ValueError("matrix must have size >= 1")
    if any(len(row) != m for row in grid):
        raise ValueError("matrix must be square")
    if vars is None:
        vars, field = grid[0][0].vars, grid[0][0].field
    for row in grid:
        for p in row:
            if p.vars != vars or p.field != field:
                raise FieldMismatchError("entries must live in one ring")


class AffineMatrixMap(Record):
    """Square matrix of degree <= 1 polynomials over one ring."""

    vars: VarSet
    field: Field
    entries: tuple  # tuple of row tuples of Polynomial

    def __init__(self, vars: VarSet, field: Field, entries: tuple):
        _check_grid(entries, vars, field)
        for row in entries:
            for p in row:
                if p.degree() > 1:
                    raise ValueError(f"entry {p} has degree > 1")
        self.__dict__.update(vars=vars, field=field, entries=entries)

    @cached_property
    def forms(self) -> list:
        """_linear_forms(self), built once, on first use."""
        return _linear_forms(self)

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, vars: VarSet, field: Field, rows: Sequence[Sequence[Polynomial]]) -> "AffineMatrixMap":
        return cls(vars, field, tuple(tuple(row) for row in rows))

    def constant_part(self) -> list:
        """Raw value matrix L(0)."""
        return [[p.constant_term() for p in row] for row in self.entries]

    def evaluate(self, point: Sequence) -> list:
        """Raw value matrix L(point).

        The point is converted once per call. Over Q, integer coordinates are
        taken as ints, so an integer point and coefficients add in ints, with
        one Fraction per nonzero entry.
        """
        field = self.field
        vals = point_values(self.vars, field, point)
        p = field.char
        if not p:
            vals = [x.numerator if x.denominator == 1 else x for x in vals]
        zero = field.zero
        return [[x % p if p else Fraction(x) if x else zero for x in row]
                for row in _evaluate_forms(self.forms, vals)]

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(p) for p in row) + "]" for row in self.entries)


def _linear_forms(mapping: AffineMatrixMap) -> list:
    """The map's rows as (constants, linear terms), the terms as (column,
    variable index, coefficient), on raw values. Over Q an integral
    coefficient is an int, so an integer point evaluates in ints."""
    q = not mapping.field.char
    forms = []
    for row in mapping.entries:
        consts, terms = [], []
        for j, entry in enumerate(row):
            const = 0
            for e, c in entry.terms:
                if q and c.denominator == 1:
                    c = c.numerator
                if 1 in e:
                    terms.append((j, e.index(1), c))
                else:
                    const = c
            consts.append(const)
        forms.append((consts, terms))
    return forms


def _evaluate_forms(forms: list, vals: Sequence) -> list:
    """L at raw values vals from _linear_forms, unreduced: each entry its
    constant plus one coefficient-times-coordinate product per linear term.
    AffineMatrixMap.evaluate wraps it."""
    rows = []
    for consts, terms in forms:
        row = consts[:]
        for j, i, c in terms:
            row[j] += c * vals[i]
        rows.append(row)
    return rows


def det_laplace_memo(grid: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Laplace expansion along columns, memoized over row subsets.

    State: the determinant of the submatrix using row set S (a bitmask) and the
    last |S| columns; 2^m subproblems, each one signed sum of products over the
    nonzero entries of its column. A single row's minor is its last-column
    entry, so products by the empty minor 1 are never made.
    """
    m = len(grid)
    some = grid[0][0]
    vars, field = some.vars, some.field
    memo = {1 << i: grid[i][m - 1] for i in range(m)}
    negated = {}  # (i, col) -> -grid[i][col], made on first use at an odd position

    def solve(rowmask: int) -> Polynomial:
        cached = memo.get(rowmask)
        if cached is not None:
            return cached
        col = m - rowmask.bit_count()
        products = []
        negative = False
        for i in range(m):
            if not rowmask >> i & 1:
                continue
            entry = grid[i][col]
            if not entry.is_zero():
                if negative:
                    neg = negated.get((i, col))
                    if neg is None:
                        neg = negated[i, col] = -entry
                    entry = neg
                products.append((entry, solve(rowmask & ~(1 << i))))
            negative = not negative
        total = memo[rowmask] = sum_of_products(vars, field, products)
        return total

    try:
        return solve((1 << m) - 1)
    finally:
        del solve  # it refers to itself; freed now, memo and all, not by the cycle collector


def det_berkowitz(grid: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Division-free determinant via the Berkowitz Toeplitz recursion.

    Step k borders the leading (k-1) x (k-1) block A by a column C, a row R
    and a corner a, and needs the Toeplitz column 1, -a, -R C, -R A C, ...,
    -R A^(k-2) C. Each monomial is packed into one int, w bits per variable
    with w the bit length of m times the largest entry degree, which no
    monomial formed here exceeds, so a product of monomials is one int
    addition. A is a sum over monomials e of scalar coefficient matrices A_e
    times x^e, and the Krylov vector A^s C is held as monomial -> k - 1
    scalars. Each column j of A_e is packed into one int of signed W-bit
    slots, row i in slot i, with W wide enough for any entry of A^(s+1) C
    (the largest |coefficient| of A, times the largest |entry| of A^s C, p - 1
    over F_p, times the monomials of A, times k - 1, plus a sign bit). So the
    whole vector that (e, f) adds to monomial e + f is one C-level
    sum(map(mul, ...)) of big ints, each output is unpacked once per step,
    then reduced mod p, and a diagonal is one dot product per pair of
    monomials. Over Q each row's denominators are cleared first, as
    linalg.mat_det does, so all of this runs on ints; there W grows with the
    vector, and the columns are packed again when it does. Each Toeplitz row
    is one _packed_products call, its product by the leading 1 a copy, and
    the last step forms only row m, the determinant: the one Polynomial built.
    """
    m = len(grid)
    some = grid[0][0]
    vars, field = some.vars, some.field
    p = field.char
    top = max((entry.degree() for row in grid for entry in row if entry.terms), default=0)
    w = (m * top).bit_length() or 1
    shifts = range(0, w * len(vars), w)
    scales = [1] * m if p else [lcm(*(c.denominator for entry in row for _, c in entry.terms)) for row in grid]
    rows = [
        [[(sum(x << s for x, s in zip(e, shifts)), c if p else c.numerator * (d // c.denominator))
          for e, c in entry.terms] for entry in row]
        for row, d in zip(grid, scales)
    ]

    def reduced(acc: dict) -> dict:  # mod p, zeros dropped
        if p:
            return {e: r for e, c in acc.items() if (r := c % p)}
        return {e: c for e, c in acc.items() if c}

    prev = [{0: 1}, reduced({e: -c for e, c in rows[0][0]})]
    for k in range(2, m + 1):
        n = k - 1
        columns: dict = {}  # monomial -> column j -> [(i, c)]: A's coefficient matrix, sparse
        for i in range(n):
            for j in range(n):
                for e, c in rows[i][j]:
                    if e not in columns:
                        columns[e] = [[] for _ in range(n)]
                    columns[e][j].append((i, c))
        neg_row: dict = {}  # monomial -> -R's k - 1 coefficients
        for j in range(n):
            for e, c in rows[n][j]:
                neg_row.setdefault(e, [0] * n)[j] = -c
        vec: dict = {}  # monomial -> A^s C's k - 1 coefficients
        for i in range(n):
            for e, c in rows[i][n]:
                vec.setdefault(e, [0] * n)[i] = c
        diags = [None, reduced({e: -c for e, c in rows[n][n]})]  # diags[0] = 1 is never multiplied
        # |entry of A^(s+1) C| <= big * max|entry of A^s C| * len(columns) * n: at most one
        # (e, f) per monomial of A meets in each output monomial, each with n products
        big = max((abs(c) for cols in columns.values() for col in cols for _, c in col), default=0)
        width = 0
        for step in range(n):
            if step:
                top = p - 1 if p else max((abs(x) for vals in vec.values() for x in vals), default=0)
                need = (big * top * len(columns) * n).bit_length() + 1  # + a sign bit
                if need > width:  # column j of A_e as one int, row i in the signed width-bit slot i
                    width, half = need, 1 << need - 1
                    packed = [(e, [sum(c << width * i for i, c in col) for col in cols])
                              for e, cols in columns.items()]
                    slots, mask = range(0, width * n, width), (1 << width) - 1
                    bias = sum(half << s for s in slots)  # lifts each slot to [0, 2^width)
                acc = {}
                get = acc.get
                for e, cols in packed:
                    for f, vals in vec.items():
                        acc[e + f] = get(e + f, 0) + sum(map(mul, vals, cols))
                vec = {}
                for f, x in acc.items():
                    x += bias
                    if p:
                        out = [((x >> s & mask) - half) % p for s in slots]
                    else:
                        out = [(x >> s & mask) - half for s in slots]
                    if any(out):
                        vec[f] = out
            acc = {}
            for e, coefs in neg_row.items():
                for f, vals in vec.items():
                    acc[e + f] = acc.get(e + f, 0) + sum(map(mul, coefs, vals))
            diags.append(reduced(acc))
        # row i is prev[i] plus diags[i - j] prev[j] for j < i; the last step forms row m only
        prev = [reduced(_packed_products(dict(prev[i]) if i < k else {},
                                         [(diags[i - j], prev[j]) for j in range(i)]))
                for i in (range(k + 1) if k < m else (m,))]

    # prev[-1] is det(tI - M)'s constant coefficient cm; det = (-1)^m cm
    sign, scale, mask = -1 if m % 2 else 1, prod(scales), (1 << w) - 1
    terms = [(tuple(e >> s & mask for s in shifts), sign * c % p if p else Fraction(sign * c, scale))
             for e, c in prev[-1].items()]
    terms.sort(key=_term_order)
    return Polynomial(vars, field, tuple(terms))


def _packed_products(acc: dict, pairs: list) -> dict:
    """acc plus sum a * b over pairs of {packed monomial: int} dicts, formed in acc."""
    get = acc.get
    for a, b in pairs:
        for e, c in a.items():
            for f, d in b.items():
                acc[e + f] = get(e + f, 0) + c * d
    return acc


def berkowitz_products(m: int) -> int:
    """det_berkowitz's work on an m x m grid, about m^4 / 4: its products of
    an entry by a vector entry, formed on coefficients k - 1 at a time in one
    big-int product of a vector entry by a packed column, plus its Toeplitz
    products of a diagonal by a coefficient of the step before."""
    # step k: k - 1 diagonals of k - 1 products each, with k - 2
    # matrix-vector products of (k - 1)^2 between them, (k - 1)^3 in all,
    # then k (k + 1) / 2 Toeplitz products, the product by the leading 1 a
    # copy, or m at the last step, which forms only row m
    return sum((k - 1) ** 3 + (k * (k + 1) // 2 if k < m else m) for k in range(2, m + 1))


def laplace_is_cheaper(grid: Sequence[Sequence[Polynomial]]) -> bool:
    """Whether det_laplace_memo makes at most berkowitz_products(m) products.

    Walks, as bit masks and level by level, the row subsets that
    det_laplace_memo reaches: a subset expands along column m - |S| into one
    product per row of S with a nonzero entry there. Products by the empty
    minor 1 in the last column are free and not counted. The walk does no
    polynomial arithmetic and stops as soon as the count passes the bound, or
    LAPLACE_MAX_PRODUCTS, so its time and the subsets it holds stay below
    that many. A dense m x m grid makes m 2^(m-1) - m products, within the
    bound up to m = 7 and past it from 8; no grid makes more, so up to 7x7
    the answer is True without a walk.
    """
    m = len(grid)
    limit = min(berkowitz_products(m), LAPLACE_MAX_PRODUCTS)
    if m * 2 ** (m - 1) - m <= limit:
        return True
    columns = [sum(1 << i for i in range(m) if not grid[i][j].is_zero()) for j in range(m - 1)]
    level = {(1 << m) - 1}
    products = 0
    for column in columns:
        below = set()
        for mask in level:
            rows = mask & column
            products += rows.bit_count()
            if products > limit:
                return False
            while rows:
                low = rows & -rows
                below.add(mask ^ low)
                rows ^= low
        level = below
    return True


def symbolic_det(
    mapping: AffineMatrixMap | Sequence[Sequence[Polynomial]],
    algorithm: str = "auto",
) -> Polynomial:
    """Exact determinant of a polynomial matrix.

    A raw grid is checked as AffineMatrixMap checks its entries, except that
    entries may have any degree. Runs Laplace-memo at any size when
    laplace_is_cheaper says so, else Berkowitz. "auto" is the only algorithm;
    callers may still name it.
    """
    if algorithm != "auto":
        raise ValueError(f"unknown determinant algorithm {algorithm!r}")
    if isinstance(mapping, AffineMatrixMap):
        grid = mapping.entries
    else:
        grid = mapping
        _check_grid(grid)
    if laplace_is_cheaper(grid):
        return det_laplace_memo(grid)
    return det_berkowitz(grid)


def perm_polynomial(n: int, field: Field = QQ) -> Polynomial:
    """Permanent of the generic n x n matrix; n! terms, all coefficients 1."""
    if n < 1 or n > PERM_MAX_SIZE:
        raise ValueError(f"permanent size must be in [1, {PERM_MAX_SIZE}]")
    if field.char == 2:
        warnings.warn(
            "permanent over characteristic 2 equals the determinant; "
            "permanent-specific statements do not transfer",
            UserWarning,
            stacklevel=2,
        )
    vars = VarSet(tuple(f"x{i+1}{j+1}" for i in range(n) for j in range(n)))
    terms = []
    for sigma in permutations(range(n)):
        e = [0] * (n * n)
        for i, j in enumerate(sigma):
            e[i * n + j] = 1
        terms.append((tuple(e), field.one))
    terms.sort(key=lambda t: mono_key(t[0]), reverse=True)
    return Polynomial(vars, field, tuple(terms))


def generic_det_polynomial(m: int, field: Field = QQ) -> Polynomial:
    """Determinant of the generic m x m matrix as a polynomial in m^2 variables."""
    if m < 1 or m > GENERIC_DET_MAX_SIZE:
        raise ValueError(f"generic determinant size must be in [1, {GENERIC_DET_MAX_SIZE}]")
    vars = VarSet(tuple(f"x{i+1}{j+1}" for i in range(m) for j in range(m)))
    gens = [
        [Polynomial.variable(vars, field, i * m + j) for j in range(m)] for i in range(m)
    ]
    return det_laplace_memo(gens)


class VerificationReport(Record):
    mode: str
    ok: bool
    witness_monomial: str | None
    witness_point: tuple | None
    trials: int
    failure_bound: float | None
    notes: tuple

    def __init__(self, mode: str, ok: bool, witness_monomial=None, witness_point=None, trials=0,
                 failure_bound=None, notes=()):
        self.__dict__.update(mode=mode, ok=ok, witness_monomial=witness_monomial, witness_point=witness_point,
                             trials=trials, failure_bound=failure_bound, notes=notes)

    def to_json(self) -> dict:
        point = self.witness_point
        return {**self.as_dict(), "witness_point": [str(x) for x in point] if point else None}


def exact_report(det: Polynomial, target: Polynomial) -> VerificationReport:
    """verify_expression's exact verdict, from a determinant already computed."""
    if det == target:
        return VerificationReport(mode="exact", ok=True)
    diff = det - target
    witness = mono_str(diff.leading_monomial(), diff.vars)
    return VerificationReport(
        mode="exact",
        ok=False,
        witness_monomial=witness,
        notes=(f"determinant and target differ at {witness}",),
    )


def float_at_or_above(num: int, den: int) -> float:
    """The smallest float at or above num / den, for ints num >= 0, den > 0.

    Int true division rounds correctly, to nearest; one step up mends a
    quotient that rounded down. A quotient that underflows to 0.0 steps to
    the smallest positive float, so a bound never claims probability 0.
    """
    q = num / den
    a, b = q.as_integer_ratio()
    return nextafter(q, inf) if a * den < num * b else q


def verify_expression(
    mapping: AffineMatrixMap,
    target: Polynomial,
    mode: str = "exact",
    trials: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Check det(L(x)) == f(x), exactly or by Schwartz-Zippel sampling."""
    if mapping.vars != target.vars or mapping.field != target.field:
        raise FieldMismatchError("map and target must share one ring")
    if mode == "exact":
        return exact_report(symbolic_det(mapping), target)
    if mode != "probabilistic":
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 1:
        raise ValueError(f"probabilistic verification needs trials >= 1, got {trials}")

    import random

    field = mapping.field
    deg_bound = max(mapping.size, int(target.degree()) if not target.is_zero() else 0)
    sample = field.sample_range(max(4 * deg_bound, 64))
    sample_size = len(sample)
    if sample_size <= 2 * deg_bound:
        raise FieldTooSmallError(
            f"field of size {sample_size} is too small for degree bound {deg_bound}; use exact mode"
        )
    rng = random.Random(seed)
    n = len(mapping.vars)
    p = field.char
    forms = mapping.forms
    terms = target.terms
    # Each coordinate is an int drawn from the sample range. With integer
    # coefficients a trial over Q then runs on ints, and the matrix goes
    # straight to Bareiss; a Fraction point is made only for a witness.
    integral = not p and all(
        c.denominator == 1 for poly in (target, *(entry for row in mapping.entries for entry in row))
        for _, c in poly.terms)
    if integral:
        terms = [(e, c.numerator) for e, c in terms]
    for t in range(trials):
        vals = [rng.randrange(sample.start, sample.stop) for _ in range(n)]
        rows = _evaluate_forms(forms, vals)
        det_val = linalg._det_bareiss(rows, 0)[1] if integral else linalg.mat_det(field, rows)
        if det_val != evaluate_terms(terms, vals, p):
            return VerificationReport(
                mode="probabilistic",
                ok=False,
                witness_point=tuple(map(field.of, vals)),
                trials=t + 1,
                notes=("determinant and target disagree at the witness point",),
            )
    return VerificationReport(
        mode="probabilistic",
        ok=True,
        trials=trials,
        failure_bound=float_at_or_above(deg_bound ** trials, sample_size ** trials),
        notes=(f"false-accept probability <= ({deg_bound}/{sample_size})^{trials}",),
    )
