"""Exact dense linear algebra over a coefficient field.

Matrices are lists of lists of raw field values (Fraction or int mod p).
Everything here is Gaussian elimination in one costume or another; sizes in
this package stay small (at most a few dozen rows), so clarity wins over
blocking tricks. The determinant and the rank are one loop, Bareiss's
fraction-free elimination on ints: over Q after each row's denominators are
cleared, over F_p on ints reduced mod p with each pivot row scaled to a
leading 1. It prefers a pivot equal to +-the previous one, so that on sparse
matrices most rows pass a step untouched. The probabilistic check, whose
integer trials hand their int matrices to it directly, is its hot path.
rref is one Gauss-Jordan loop for both rings, on ints mod p over F_p
(the exhaustive search calls it once per choice of a grid's upper rows) and
on Fractions over Q; rank_normal_decomposition runs on the same raw values.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .fields import Field

Matrix = list  # list of rows; each row a list of raw field values


def rref(field: Field, a: Matrix, rhs: int = 0) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot_columns).

    The last rhs columns are right-hand sides: they take part in every row
    operation but never take a pivot, so one call solves a system for each of
    them. Over F_p the elimination runs on ints reduced mod p, over Q on the
    exact Fractions.
    """
    p = field.char
    m = [[x % p for x in row] if p else row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) - rhs if rows else 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        for i in range(r, rows):
            if m[i][c]:
                break
        else:
            continue
        row, m[i] = m[i], m[r]
        if row[c] != 1:
            inv = field.inv(row[c])
            row = [x * inv % p for x in row] if p else [x * inv for x in row]
        m[r] = row
        for i, other in enumerate(m):
            f = other[c]
            if f and i != r:
                m[i] = ([(x - f * y) % p for x, y in zip(other, row)] if p
                        else [x - f * y for x, y in zip(other, row)])
        pivots.append(c)
        if r + 1 == rows:
            break
    return m, pivots


def mat_rank(field: Field, a: Matrix) -> int:
    """Rank, by the fraction-free elimination mat_det runs."""
    rows, p, _ = _ints(field, a)
    return _det_bareiss(rows, p)[0]


def mat_det(field: Field, a: Matrix):
    """Determinant: a Fraction over Q, an int in [0, p) over F_p."""
    rows, p, den = _ints(field, a)
    det = _det_bareiss(rows, p)[1]
    return det if p else Fraction(det, den)


def _ints(field: Field, a: Matrix) -> tuple[Matrix, int, int]:
    """a as ints for _det_bareiss: reduced mod p over F_p; over Q each row
    times the lcm of its denominators, and the product of those lcms."""
    p = field.char
    if p:
        return [[x % p for x in row] for row in a], p, 1
    scales = [lcm(*(x.denominator for x in row)) for row in a]
    rows = [[x.numerator * (d // x.denominator) for x in row] for row, d in zip(a, scales)]
    return rows, 0, prod(scales)


def _det_bareiss(rows: Matrix, p: int) -> tuple[int, int]:
    """Rank and determinant of an int matrix by Bareiss's fraction-free
    elimination: over Z when p is 0, over F_p on ints in [0, p) when p is prime.

    Each step takes a pivot in the leading column and replaces the rows below
    it by 2x2 minors divided by the previous pivot; the division is exact
    (Sylvester's identity), so every entry stays an int, a minor of the input.
    A column with no pivot is stepped past: it adds nothing to the rank and
    makes the determinant 0. The identity holds for any choice of pivot row,
    so the step prefers a row whose pivot is +-prev, the previous pivot, and
    negates it if need be (negating the determinant). A row with a zero in
    the pivot column then stays as it is, with no arithmetic; with any other
    pivot such a row is only scaled by piv / prev. On a sparse matrix, such as
    an evaluated Grenet expression, most rows are kept at most steps. Over
    F_p the pivot row is scaled to a leading 1, whose factor goes into the
    determinant, so prev stays 1 and a step is x - f*y mod p. Consumes rows.
    """
    rank, sign, prev, scale = 0, 1, 1, 1
    while rows and rows[0]:
        pivot = None
        for i, row in enumerate(rows):
            x = row[0]
            if x:
                if x == prev or x == -prev:
                    pivot = i
                    break
                if pivot is None:
                    pivot = i
        if pivot is None:
            rows, sign = [row[1:] for row in rows], 0
            continue
        if pivot:
            rows[0], rows[pivot] = rows[pivot], rows[0]
            sign = -sign
        piv, rest = rows[0][0], rows[0][1:]
        if piv == -prev:
            piv, rest, sign = prev, [-y for y in rest], -sign
        elif p and piv != 1:
            scale, inv = scale * piv % p, pow(piv, p - 2, p)
            piv, rest = 1, [y * inv % p for y in rest]
        below = []
        for row in rows[1:]:
            f = row[0]
            if not f:
                below.append(row[1:] if piv == prev else [x * piv // prev for x in row[1:]])
            elif p:
                below.append([(x - f * y) % p for x, y in zip(row[1:], rest)])
            else:
                below.append([(x * piv - f * y) // prev for x, y in zip(row[1:], rest)])
        rows, prev, rank = below, piv, rank + 1
    det = sign * prev * scale
    return rank, det % p if p else det


def rank_normal_decomposition(field: Field, c: Matrix) -> tuple[Matrix, Matrix, int]:
    """Invertible (P, Q) and r with P c Q = J_r: ones at (i, i) for i >= n - r
    (the lower-right block), zeros elsewhere.

    One loop on raw values, as rref: ints mod p over F_p, Fractions over Q.
    Step r takes the first nonzero of the trailing block c[r:, r:] in
    row-major order and swaps it to (r, r), its row in c and P and its column
    in c and Q. It scales that row to a pivot of 1 and clears the column below
    it by row operations, which P records. Rows above r are already zero from
    column r on, so column r is now e_r, and clearing row r by column
    operations changes only that row, which no later step reads, and Q.
    """
    p = field.char
    n = len(c)
    work = [[x % p for x in row] if p else row[:] for row in c]
    left = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    right = [row[:] for row in left]
    r = 0
    while r < n:
        pivot = next(((i, j) for i in range(r, n) for j in range(r, n) if work[i][j]), None)
        if pivot is None:
            break
        pi, pj = pivot
        work[r], work[pi] = work[pi], work[r]
        left[r], left[pi] = left[pi], left[r]
        for line in work + right:
            line[r], line[pj] = line[pj], line[r]
        inv = field.inv(work[r][r])
        row = work[r] = [x * inv % p for x in work[r]] if p else [x * inv for x in work[r]]
        lrow = left[r] = [x * inv % p for x in left[r]] if p else [x * inv for x in left[r]]
        for i in range(r + 1, n):
            f = work[i][r]
            if f:
                work[i] = ([(x - f * y) % p for x, y in zip(work[i], row)] if p
                           else [x - f * y for x, y in zip(work[i], row)])
                left[i] = ([(x - f * y) % p for x, y in zip(left[i], lrow)] if p
                           else [x - f * y for x, y in zip(left[i], lrow)])
        for j in range(r + 1, n):
            f = row[j]
            if f:
                for q in right:
                    q[j] = (q[j] - f * q[r]) % p if p else q[j] - f * q[r]
        r += 1
    # P c Q == diag(I_r, 0); reverse coordinates on both sides to park the
    # identity block in the lower right: (R P) c (Q R) = J_r
    rev = list(range(n - 1, -1, -1))
    left = [left[i] for i in rev]
    right = [[row[j] for j in rev] for row in right]
    return left, right, r
