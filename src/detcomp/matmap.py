"""Affine matrix maps and symbolic determinants.

An AffineMatrixMap is a square grid of degree <= 1 polynomials L(x) = C + Z(x)
with constant part C and linear part Z. Determinants are computed exactly by
one of two independent algorithms: memoized Laplace expansion (size-capped
when requested by name) and the division-free Berkowitz method (uncapped).
Both return the same canonical Polynomial, which the tests cross-check.

symbolic_det's default, algorithm="auto", chooses by work, not by size. A
bit-mask walk over the row subsets the Laplace expansion would reach counts
its polynomial products, with no polynomial arithmetic, and stops once the
count passes the O(m^4) product count of Berkowitz or LAPLACE_MAX_PRODUCTS.
Laplace runs when it stays within both: every matrix up to 7x7 and sparse
ones of any size, such as the 15x15 Grenet expression of perm4. Dense
matrices from 8x8 up go to Berkowitz.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field
from itertools import permutations
from typing import Sequence

from . import linalg
from .fields import Field, FieldMismatchError, QQ
from .poly import Polynomial, VarSet, mono_key, mono_str, point_values

LAPLACE_DEFAULT_CAP = 8
# Most products symbolic_det(auto) lets Laplace-memo make, whatever Berkowitz
# would cost; it bounds the chooser's walk and Laplace's memo of subsets.
LAPLACE_MAX_PRODUCTS = 1 << 18


class DeterminantSizeError(ValueError):
    """Laplace expansion requested above its size cap."""


class FieldTooSmallError(ValueError):
    """Probabilistic verification needs a field larger than twice the degree."""


@dataclass(frozen=True)
class AffineMatrixMap:
    """Square matrix of degree <= 1 polynomials over one ring."""

    vars: VarSet
    field: Field
    entries: tuple  # tuple of row tuples of Polynomial

    def __post_init__(self):
        m = len(self.entries)
        if m < 1:
            raise ValueError("matrix must have size >= 1")
        for row in self.entries:
            if len(row) != m:
                raise ValueError("matrix must be square")
            for p in row:
                if p.vars != self.vars or p.field != self.field:
                    raise FieldMismatchError("entries must live in the declared ring")
                if p.degree() > 1:
                    raise ValueError(f"entry {p} has degree > 1")

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, vars: VarSet, field: Field, rows: Sequence[Sequence[Polynomial]]) -> "AffineMatrixMap":
        return cls(vars, field, tuple(tuple(row) for row in rows))

    def constant_part(self) -> list:
        """Raw value matrix L(0)."""
        return [[p.constant_term() for p in row] for row in self.entries]

    def coefficient_matrix(self, var_index: int) -> list:
        """Raw matrix of coefficients of one variable."""
        n = len(self.vars)
        e = tuple(1 if j == var_index else 0 for j in range(n))
        return [[p.coefficient(e) for p in row] for row in self.entries]

    def linear_part(self) -> "AffineMatrixMap":
        const = Polynomial.const
        rows = []
        for row in self.entries:
            rows.append(tuple(p - const(self.vars, self.field, p.constant_term()) for p in row))
        return AffineMatrixMap(self.vars, self.field, tuple(rows))

    def evaluate(self, point: Sequence) -> list:
        """Raw value matrix L(point).

        The point is converted once per call. Every entry has degree <= 1, so
        its value is its constant plus one coefficient-times-coordinate product
        per variable term.
        """
        field = self.field
        vals = point_values(self.vars, field, point)
        p = field.char
        rows = []
        for row in self.entries:
            out = []
            for entry in row:
                total = field.zero
                for e, c in entry.terms:
                    total += c * vals[e.index(1)] if 1 in e else c
                out.append(total % p if p else total)
            rows.append(out)
        return rows

    def scale_row(self, i: int, c) -> "AffineMatrixMap":
        rows = [tuple(row) for row in self.entries]
        rows[i] = tuple(p.scale(c) for p in rows[i])
        return AffineMatrixMap(self.vars, self.field, tuple(rows))

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(p) for p in row) + "]" for row in self.entries)


def det_laplace_memo(grid: Sequence[Sequence[Polynomial]], cap: int = LAPLACE_DEFAULT_CAP) -> Polynomial:
    """Laplace expansion along columns, memoized over row subsets.

    State: the determinant of the submatrix using row set S (a bitmask) and the
    last |S| columns; 2^m subproblems, each O(m) polynomial multiply-adds.
    """
    m = len(grid)
    if m > cap:
        raise DeterminantSizeError(f"size {m} exceeds Laplace cap {cap}; use berkowitz")
    some = grid[0][0]
    zero = Polynomial.zero(some.vars, some.field)
    memo = {0: Polynomial.const(some.vars, some.field, 1)}

    def solve(rowmask: int) -> Polynomial:
        cached = memo.get(rowmask)
        if cached is not None:
            return cached
        k = rowmask.bit_count()
        col = m - k
        total = zero
        sign = 1
        pos = 0
        for i in range(m):
            if not rowmask >> i & 1:
                continue
            entry = grid[i][col]
            if not entry.is_zero():
                sub = solve(rowmask & ~(1 << i))
                contrib = entry * sub
                total = total + (contrib if sign > 0 else -contrib)
            sign = -sign
            pos += 1
        memo[rowmask] = total
        return total

    try:
        return solve((1 << m) - 1)
    finally:
        del solve  # it refers to itself; freed now, memo and all, not by the cycle collector


def det_berkowitz(grid: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Division-free determinant via the Berkowitz Toeplitz recursion."""
    m = len(grid)
    some = grid[0][0]
    one = Polynomial.const(some.vars, some.field, 1)

    def berk_vector(k: int) -> list[Polynomial]:
        # characteristic-vector of the leading k x k principal submatrix
        if k == 1:
            return [one, -grid[0][0]]
        prev = berk_vector(k - 1)
        a = grid[k - 1][k - 1]
        row = [grid[k - 1][j] for j in range(k - 1)]
        col = [grid[i][k - 1] for i in range(k - 1)]
        # diagonal entries of the Toeplitz matrix: 1, -a, -R C, -R A C, ...
        diags = [one, -a]
        vec = col
        for step in range(k - 1):
            if step:
                vec = [
                    sum((grid[i][j] * vec[j] for j in range(k - 1)), Polynomial.zero(some.vars, some.field))
                    for i in range(k - 1)
                ]
            s = Polynomial.zero(some.vars, some.field)
            for r, c in zip(row, vec):
                s = s + r * c
            diags.append(-s)
        out = []
        for i in range(k + 1):
            s = Polynomial.zero(some.vars, some.field)
            for j in range(min(i, k - 1) + 1):
                s = s + diags[i - j] * prev[j]
            out.append(s)
        return out

    # berk_vector gives det(tI - M) coefficients [1, c1, ..., cm]; det = (-1)^m cm
    vec = berk_vector(m)
    det = vec[-1]
    return -det if m % 2 == 1 else det


def berkowitz_products(m: int) -> int:
    """Polynomial products det_berkowitz makes on an m x m grid, about m^4 / 4."""
    # step k: k - 1 row products of k - 1 products each, with k - 2
    # matrix-vector products of (k - 1)^2 between them, (k - 1)^3 in all,
    # then k (k + 3) / 2 for the Toeplitz product
    return sum((k - 1) ** 3 + k * (k + 3) // 2 for k in range(2, m + 1))


def laplace_is_cheaper(grid: Sequence[Sequence[Polynomial]]) -> bool:
    """Whether det_laplace_memo makes at most berkowitz_products(m) products.

    Walks, as bit masks and level by level, the row subsets that
    det_laplace_memo reaches: a subset expands along column m - |S| into one
    product per row of S with a nonzero entry there. Products by the empty
    minor 1 in the last column are free and not counted. The walk does no
    polynomial arithmetic and stops as soon as the count passes the bound, or
    LAPLACE_MAX_PRODUCTS, so its time and the subsets it holds stay below
    that many. A dense m x m grid makes m 2^(m-1) - m products, within the
    bound up to m = 7 and past it from 8.
    """
    m = len(grid)
    limit = min(berkowitz_products(m), LAPLACE_MAX_PRODUCTS)
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
    """Exact determinant of a polynomial matrix; both algorithms agree.

    "auto" runs Laplace-memo at any size when laplace_is_cheaper says so,
    else Berkowitz. An explicit "laplace-memo" request keeps its size cap.
    """
    grid = mapping.entries if isinstance(mapping, AffineMatrixMap) else mapping
    if algorithm == "laplace-memo":
        return det_laplace_memo(grid)
    if algorithm == "berkowitz":
        return det_berkowitz(grid)
    if algorithm == "auto":
        if laplace_is_cheaper(grid):
            return det_laplace_memo(grid, cap=len(grid))
        return det_berkowitz(grid)
    raise ValueError(f"unknown determinant algorithm {algorithm!r}")


@dataclass(frozen=True)
class NormalizedExpression:
    """P L Q with constant part in rank-normal form.

    normalized has constant part J_r (ones on the last r diagonal slots) and
    det(normalized) = scalar * det(L) with scalar = det(P) det(Q).
    """

    normalized: AffineMatrixMap
    rank: int
    left: list
    right: list
    scalar: object

    def linear_entry(self, i: int, j: int) -> Polynomial:
        return self.normalized.entries[i][j] - Polynomial.const(
            self.normalized.vars, self.normalized.field, self.normalized.entries[i][j].constant_term()
        )


def rank_and_normalize(mapping: AffineMatrixMap) -> NormalizedExpression:
    field = mapping.field
    m = mapping.size
    left, right, rank = linalg.rank_normal_decomposition(field, mapping.constant_part())
    # sandwich the polynomial grid: (P L Q)_ij = sum_kl P_ik L_kl Q_lj
    zero = Polynomial.zero(mapping.vars, field)
    mid = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = zero
            for k in range(m):
                c = left[i][k]
                if c == field.zero:
                    continue
                acc = acc + mapping.entries[k][j].scale(c)
            row.append(acc)
        mid.append(row)
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = zero
            for k in range(m):
                c = right[k][j]
                if c == field.zero:
                    continue
                acc = acc + mid[i][k].scale(c)
            row.append(acc)
        rows.append(tuple(row))
    normalized = AffineMatrixMap(mapping.vars, field, tuple(rows))
    scalar = field.mul(linalg.mat_det(field, left), linalg.mat_det(field, right))
    return NormalizedExpression(normalized, rank, left, right, scalar)


def perm_polynomial(n: int, field: Field = QQ, cap: int = 6) -> Polynomial:
    """Permanent of the generic n x n matrix; n! terms, all coefficients 1."""
    if n < 1 or n > cap:
        raise ValueError(f"permanent size must be in [1, {cap}]")
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


def generic_det_polynomial(m: int, field: Field = QQ, cap: int = 5) -> Polynomial:
    """Determinant of the generic m x m matrix as a polynomial in m^2 variables."""
    if m < 1 or m > cap:
        raise ValueError(f"generic determinant size must be in [1, {cap}]")
    vars = VarSet(tuple(f"x{i+1}{j+1}" for i in range(m) for j in range(m)))
    gens = [
        [Polynomial.variable(vars, field, i * m + j) for j in range(m)] for i in range(m)
    ]
    return det_laplace_memo(gens, cap=max(m, LAPLACE_DEFAULT_CAP))


def generic_matrix_map(m: int, field: Field = QQ) -> AffineMatrixMap:
    """The identity map on matrix space: entry (i, j) is the variable x_{i+1,j+1}."""
    vars = VarSet(tuple(f"x{i+1}{j+1}" for i in range(m) for j in range(m)))
    rows = [
        tuple(Polynomial.variable(vars, field, i * m + j) for j in range(m)) for i in range(m)
    ]
    return AffineMatrixMap(vars, field, rows)


@dataclass(frozen=True)
class VerificationReport:
    mode: str
    ok: bool
    witness_monomial: str | None = None
    witness_point: tuple | None = None
    trials: int = 0
    failure_bound: float | None = None
    notes: tuple = ()

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "ok": self.ok,
            "witness_monomial": self.witness_monomial,
            "witness_point": [str(x) for x in self.witness_point] if self.witness_point else None,
            "trials": self.trials,
            "failure_bound": self.failure_bound,
            "notes": list(self.notes),
        }


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
        det = symbolic_det(mapping)
        diff = det - target
        if diff.is_zero():
            return VerificationReport(mode="exact", ok=True)
        witness = mono_str(diff.leading_monomial(), diff.vars)
        return VerificationReport(
            mode="exact",
            ok=False,
            witness_monomial=witness,
            notes=(f"determinant and target differ at {witness}",),
        )
    if mode != "probabilistic":
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 1:
        raise ValueError(f"probabilistic verification needs trials >= 1, got {trials}")

    import random

    field = mapping.field
    deg_bound = max(mapping.size, int(target.degree()) if not target.is_zero() else 0)
    sample_size = field.sample_set_size(max(4 * deg_bound, 64))
    if sample_size <= 2 * deg_bound:
        raise FieldTooSmallError(
            f"field of size {sample_size} is too small for degree bound {deg_bound}; use exact mode"
        )
    rng = random.Random(seed)
    n = len(mapping.vars)
    for t in range(trials):
        point = [field.sample(rng, max(4 * deg_bound, 64)) for _ in range(n)]
        det_val = linalg.mat_det(field, mapping.evaluate(point))
        f_val = target.evaluate(point).value
        if det_val != f_val:
            return VerificationReport(
                mode="probabilistic",
                ok=False,
                witness_point=tuple(point),
                trials=t + 1,
                notes=("determinant and target disagree at the witness point",),
            )
    per_trial = deg_bound / sample_size
    return VerificationReport(
        mode="probabilistic",
        ok=True,
        trials=trials,
        failure_bound=per_trial**trials,
        notes=(f"false-accept probability <= ({deg_bound}/{sample_size})^{trials}",),
    )
