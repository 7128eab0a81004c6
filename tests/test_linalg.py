"""Dense exact linear algebra: the determinant against a reference elimination."""

import random
from fractions import Fraction

import pytest

from detcomp import linalg
from detcomp.expressions import abp_to_determinant, grenet_abp
from detcomp.fields import QQ, Fp
from detcomp.matmap import det_laplace_memo
from support import random_matrix, sample


def reference_det(field, a):
    """Gaussian elimination with field division, one operation at a time on
    raw values, each result read back into the field (reduced mod p over
    F_p), as mat_det computed it before it ran Bareiss on integers."""
    n = len(a)
    m = [row[:] for row in a]
    det = field.one
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != field.zero), None)
        if pivot is None:
            return field.zero
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = field.of(-det)
        det = field.of(det * m[c][c])
        inv = field.inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c] != field.zero:
                f = field.of(m[i][c] * inv)
                m[i] = [field.of(x - f * y) for x, y in zip(m[i], m[c])]
    return det


def singular(field, n, rng):
    """A random n x n matrix whose last row is a combination of two others."""
    m = random_matrix(field, n, n, rng)
    a, b = sample(field, rng, 9), sample(field, rng, 9)
    m[-1] = [field.of(a * x + b * y) for x, y in zip(m[0], m[1])]
    return m


def rational(n, rng):
    return [[Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 7, 12, 35))) for _ in range(n)]
            for _ in range(n)]


def zero_pivots(field, n, rng):
    """Zeros on and left of the diagonal of early rows, so elimination must swap rows."""
    m = random_matrix(field, n, n, rng)
    for i in range(n // 2):
        for j in range(i + 1):
            m[i][j] = field.zero
    return m


def units(field, n, rng):
    """Entries 0, 1 and -1 only, mostly 0. Bareiss then meets pivots equal to
    the previous pivot, to its negative (it negates the pivot row), and to
    neither, with rows under each that it keeps, scales and fully updates."""
    return [[field.of(rng.choice((0, 0, 0, 1, -1))) for _ in range(n)] for _ in range(n)]


def signs(field, n, rng):
    """Entries 1 and -1 only, no zeros: most pivots are +-the previous one,
    and every row below a pivot is fully updated."""
    return [[field.of(rng.choice((1, -1))) for _ in range(n)] for _ in range(n)]


def zero_column(field, n, rng):
    """A random matrix with one column of zeros: elimination steps past it."""
    m = random_matrix(field, n, n, rng)
    j = rng.randrange(n)
    for row in m:
        row[j] = field.zero
    return m


@pytest.mark.parametrize("field", [QQ, Fp(2), Fp(101), Fp(32003)], ids=str)
def test_mat_det_matches_reference_elimination(field):
    rng = random.Random(8)
    cases = [[], [[field.of(7)]], [[field.zero]]]
    for n in range(1, 9):
        for _ in range(4):
            cases.append(random_matrix(field, n, n, rng))
            cases.append(zero_pivots(field, n, rng))
            cases.append(units(field, n, rng))
            cases.append(signs(field, n, rng))
            cases.append(zero_column(field, n, rng))
            if n >= 3:
                cases.append(singular(field, n, rng))
            if field.char == 0:
                cases.append(rational(n, rng))
    # Grenet's 15x15 expression of perm4, evaluated: sparse, with a unit
    # diagonal, at points of the probabilistic check's sample range and at
    # points in {-1, 0, 1}; its determinant is known independently
    grenet = abp_to_determinant(grenet_abp(4, field))
    grenet_det = det_laplace_memo(grenet.entries)
    points = [[sample(field, rng, 65) for _ in grenet.vars] for _ in range(6)]
    points += [[rng.choice((0, 1, -1)) for _ in grenet.vars] for _ in range(6)]
    for point in points:
        a = grenet.evaluate(point)
        assert linalg.mat_det(field, a) == grenet_det.evaluate(point).value
        cases.append(a)
    for a in cases:
        want = reference_det(field, a)
        got = linalg.mat_det(field, a)
        assert got == want
        assert type(got) is type(want)
        if field.char:
            assert 0 <= got < field.char
    # the input is left as it was
    a = rational(4, rng) if field.char == 0 else random_matrix(field, 4, 4, rng)
    before = [row[:] for row in a]
    linalg.mat_det(field, a)
    assert a == before


def test_mat_det_of_singular_and_integer_matrices_over_q():
    assert linalg.mat_det(QQ, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 0
    hilbert = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
    assert linalg.mat_det(QQ, hilbert) == Fraction(1, 6048000)
    vandermonde = [[Fraction(x) ** k for k in range(5)] for x in (2, 3, 5, 7, 11)]
    want = 1
    for i, x in enumerate((2, 3, 5, 7, 11)):
        for y in (2, 3, 5, 7, 11)[i + 1:]:
            want *= y - x
    assert linalg.mat_det(QQ, vandermonde) == want


def is_reduced_echelon(r, pivots, cols):
    """Pivot rows first, each pivot a 1 right of the one above with zeros
    elsewhere in its column, nothing left of it, and zero rows after."""
    for t, row in enumerate(r):
        if t >= len(pivots):
            if any(row[:cols]):
                return False
            continue
        c = pivots[t]
        if (t and c <= pivots[t - 1]) or any(row[:c]) or row[c] != 1:
            return False
        if any(other[c] for s, other in enumerate(r) if s != t):
            return False
    return True


@pytest.mark.parametrize("p", [2, 3, 101])
def test_rref_over_fp_is_reduced_with_the_same_row_space(p):
    field = Fp(p)
    rng = random.Random(p)
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        a = random_matrix(field, rows, cols, rng)
        for row in rng.sample(a, rng.randint(0, rows)):  # sparse rows, low ranks
            for j in range(cols):
                if rng.random() < 0.5:
                    row[j] = 0
        if rows >= 3 and rng.random() < 0.3:
            a[-1] = [(2 * x + y) % p for x, y in zip(a[0], a[1])]
        before = [row[:] for row in a]
        r, pivots = linalg.rref(field, a)
        assert a == before
        assert all(0 <= x < p for row in r for x in row)
        assert is_reduced_echelon(r, pivots, cols)
        rank = linalg.mat_rank(field, a)
        assert rank == len(pivots) == linalg.mat_rank(field, a + r)
        if rows == cols:
            assert (rank == rows) == (linalg.mat_det(field, a) != 0)
        # trailing right-hand sides take every row operation and no pivot
        extra = rng.randint(1, 3)
        aug = [row + [rng.randrange(p) for _ in range(extra)] for row in a]
        r_aug, pivots_aug = linalg.rref(field, aug, rhs=extra)
        assert pivots_aug == pivots
        assert [row[:cols] for row in r_aug] == r
        assert linalg.mat_rank(field, aug + r_aug) == linalg.mat_rank(field, aug)


def test_rref_over_q_is_reduced_with_the_same_row_space():
    """The Q twin of the F_p test: random rational matrices, among them
    products B C of a small inner dimension (low rank), zero rows and zero
    columns."""
    rng = random.Random(26)
    for _ in range(100):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        inner = rng.randint(1, min(rows, cols))
        b = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(inner)] for _ in range(rows)]
        c = [[Fraction(rng.randint(-9, 9), rng.choice((1, 5, 12))) for _ in range(cols)] for _ in range(inner)]
        a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]
        if rng.random() < 0.3:
            a[rng.randrange(rows)] = [Fraction(0)] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in a:
                row[j] = Fraction(0)
        before = [row[:] for row in a]
        r, pivots = linalg.rref(QQ, a)
        assert a == before
        assert all(type(x) is Fraction for row in r for x in row)
        assert is_reduced_echelon(r, pivots, cols)
        rank = linalg.mat_rank(QQ, a)
        assert rank == len(pivots) == linalg.mat_rank(QQ, a + r) <= inner
        if rows == cols:
            assert (rank == rows) == (linalg.mat_det(QQ, a) != 0)
        # trailing right-hand sides take every row operation and no pivot
        extra = rng.randint(1, 3)
        aug = [row + [Fraction(rng.randint(-9, 9), rng.choice((1, 4))) for _ in range(extra)] for row in a]
        r_aug, pivots_aug = linalg.rref(QQ, aug, rhs=extra)
        assert pivots_aug == pivots
        assert [row[:cols] for row in r_aug] == r
        assert linalg.mat_rank(QQ, aug + r_aug) == linalg.mat_rank(QQ, aug)


def test_rref_over_q_takes_right_hand_sides():
    a = [[Fraction(2), Fraction(4), Fraction(1)], [Fraction(1), Fraction(3), Fraction(1, 2)]]
    r, pivots = linalg.rref(QQ, a, rhs=1)
    assert pivots == [0, 1]
    assert r == [[1, 0, Fraction(1, 2)], [0, 1, 0]]


@pytest.mark.parametrize("field", [QQ, Fp(2), Fp(3), Fp(32003)], ids=str)
def test_mat_rank_matches_rref(field, monkeypatch):
    """Fraction-free rank against rref's pivot count on random matrices,
    among them products B C of an inner dimension below both sides
    (rank-deficient), zero rows, zero columns and sparse 0, +-1 squares."""
    rng = random.Random(54 + field.char)
    cases = []
    for _ in range(150):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        inner = rng.randint(1, min(rows, cols))
        if field.char:
            b = random_matrix(field, rows, inner, rng)
            c = random_matrix(field, inner, cols, rng)
        else:
            b = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) for _ in range(inner)] for _ in range(rows)]
            c = [[Fraction(rng.randint(-9, 9), rng.choice((1, 5, 12))) for _ in range(cols)] for _ in range(inner)]
        a = [[field.of(sum(x * y for x, y in zip(row, col))) for col in zip(*c)] for row in b]
        if rng.random() < 0.3:
            a[rng.randrange(rows)] = [field.zero] * cols
        if rng.random() < 0.3:
            j = rng.randrange(cols)
            for row in a:
                row[j] = field.zero
        cases.append((a, inner))
    square = rational if field.char == 0 else lambda n, rng: random_matrix(field, n, n, rng)
    cases += [(square(n, rng), n) for n in range(1, 7)]
    cases += [(units(field, n, rng), n) for n in range(1, 9)]
    expected = [len(linalg.rref(field, a)[1]) for a, _ in cases]
    assert min(expected) == 0 and any(r < min(len(a), len(a[0])) for r, (a, _) in zip(expected, cases))
    monkeypatch.setattr(linalg, "rref", lambda *args: pytest.fail("rref"))
    for (a, inner), rank in zip(cases, expected):
        before = [row[:] for row in a]
        assert linalg.mat_rank(field, a) == rank <= inner
        assert a == before


@pytest.mark.parametrize("field", [QQ, Fp(2), Fp(3), Fp(32003)], ids=str)
def test_rank_normal_decomposition_brings_low_rank_matrices_to_j_r(field):
    """P c Q = J_r with P, Q invertible and r the rank, on products B C of a
    small inner dimension; the input is left as it was and, over F_p, every
    value of P and Q is an int in [0, p)."""
    rng = random.Random(field.char)
    p = field.char
    for _ in range(60):
        n, k = rng.randint(0, 6), rng.randint(0, 6)
        b = random_matrix(field, n, k, rng, 7)
        c = random_matrix(field, k, n, rng, 7)
        a = [[field.of(sum(b[i][t] * c[t][j] for t in range(k))) for j in range(n)]
             for i in range(n)]
        before = [row[:] for row in a]
        P, Q, r = linalg.rank_normal_decomposition(field, a)
        assert a == before
        assert r == (linalg.mat_rank(field, a) if n else 0)
        if p:
            assert all(0 <= x < p for row in P + Q for x in row)
        if n:
            assert linalg.mat_det(field, P) != field.zero != linalg.mat_det(field, Q)
        pa = [[field.of(sum(x * y for x, y in zip(row, col))) for col in zip(*a)] for row in P]
        paq = [[field.of(sum(x * y for x, y in zip(row, col))) for col in zip(*Q)] for row in pa]
        assert paq == [[field.one if i == j >= n - r else field.zero for j in range(n)]
                       for i in range(n)]
