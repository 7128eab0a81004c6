"""Exact dense linear algebra over a coefficient field.

Matrices are lists of lists of raw field values (Fraction or int mod p).
Everything here is Gaussian elimination in one costume or another; sizes in
this package stay small (at most a few dozen rows), so clarity wins over
blocking tricks.
"""

from __future__ import annotations

from .fields import Field

Matrix = list  # list of rows; each row a list of raw field values


def zeros(field: Field, rows: int, cols: int) -> Matrix:
    return [[field.zero for _ in range(cols)] for _ in range(rows)]


def identity(field: Field, n: int) -> Matrix:
    m = zeros(field, n, n)
    for i in range(n):
        m[i][i] = field.one
    return m


def mat_copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def rref(field: Field, a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot_columns)."""
    m = mat_copy(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != field.zero), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(x, inv) for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def mat_rank(field: Field, a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(field, a)[1])


def mat_det(field: Field, a: Matrix):
    """Determinant by fraction-free-ish elimination (field division allowed)."""
    n = len(a)
    m = mat_copy(a)
    det = field.one
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != field.zero), None)
        if pivot is None:
            return field.zero
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = field.neg(det)
        det = field.mul(det, m[c][c])
        inv = field.inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c] != field.zero:
                f = field.mul(m[i][c], inv)
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[c])]
    return det


def random_matrix(field: Field, rows: int, cols: int, rng, size: int = 101) -> Matrix:
    return [[field.sample(rng, size) for _ in range(cols)] for _ in range(rows)]


def random_invertible(field: Field, n: int, rng, size: int = 101) -> Matrix:
    while True:
        m = random_matrix(field, n, n, rng, size)
        if mat_det(field, m) != field.zero:
            return m


def rank_normal_decomposition(field: Field, c: Matrix) -> tuple[Matrix, Matrix, int]:
    """Invertible (P, Q) and r with (P c Q) having ones exactly at
    (i, i) for i >= n - r (0-indexed lower-right block), zeros elsewhere."""
    n = len(c)
    work = mat_copy(c)
    left = identity(field, n)
    right = identity(field, n)
    r = 0
    for col in range(n):
        pivot = None
        for i in range(r, n):
            for j in range(r, n):
                if work[i][j] != field.zero:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != r:
            work[r], work[pi] = work[pi], work[r]
            left[r], left[pi] = left[pi], left[r]
        if pj != r:
            for row in work:
                row[r], row[pj] = row[pj], row[r]
            for row in right:
                row[r], row[pj] = row[pj], row[r]
        inv = field.inv(work[r][r])
        work[r] = [field.mul(x, inv) for x in work[r]]
        left[r] = [field.mul(x, inv) for x in left[r]]
        for i in range(n):
            if i != r and work[i][r] != field.zero:
                f = work[i][r]
                work[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(work[i], work[r])]
                left[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(left[i], left[r])]
        for j in range(n):
            if j != r and work[r][j] != field.zero:
                f = work[r][j]
                for row in work:
                    row[j] = field.sub(row[j], field.mul(f, row[r]))
                for row in right:
                    row[j] = field.sub(row[j], field.mul(f, row[r]))
        r += 1
    # work == diag(I_r, 0); reverse coordinates on both sides to park the
    # identity block in the lower right: (R P) c (Q R) = J_r
    rev = list(range(n - 1, -1, -1))
    left = [left[i] for i in rev]
    right = [[row[j] for j in rev] for row in right]
    return left, right, r
