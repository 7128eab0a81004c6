"""Dense exact linear algebra: the determinant against a reference elimination."""

import random
from fractions import Fraction

import pytest

from detcomp import linalg
from detcomp.fields import QQ, Fp


def reference_det(field, a):
    """Gaussian elimination with field division, one field operation at a
    time, as mat_det computed it before it ran Bareiss on integers."""
    n = len(a)
    m = [row[:] for row in a]
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


def singular(field, n, rng):
    """A random n x n matrix whose last row is a combination of two others."""
    m = linalg.random_matrix(field, n, n, rng)
    a, b = field.sample(rng, 9), field.sample(rng, 9)
    m[-1] = [field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(m[0], m[1])]
    return m


def rational(n, rng):
    return [[Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 7, 12, 35))) for _ in range(n)]
            for _ in range(n)]


def zero_pivots(field, n, rng):
    """Zeros on and left of the diagonal of early rows, so elimination must swap rows."""
    m = linalg.random_matrix(field, n, n, rng)
    for i in range(n // 2):
        for j in range(i + 1):
            m[i][j] = field.zero
    return m


@pytest.mark.parametrize("field", [QQ, Fp(2), Fp(101), Fp(32003)], ids=str)
def test_mat_det_matches_reference_elimination(field):
    rng = random.Random(8)
    cases = [[], [[field.of(7)]], [[field.zero]]]
    for n in range(1, 9):
        for _ in range(4):
            cases.append(linalg.random_matrix(field, n, n, rng))
            cases.append(zero_pivots(field, n, rng))
            if n >= 3:
                cases.append(singular(field, n, rng))
            if field.char == 0:
                cases.append(rational(n, rng))
    for a in cases:
        want = reference_det(field, a)
        got = linalg.mat_det(field, a)
        assert got == want
        assert type(got) is type(want)
        if field.char:
            assert 0 <= got < field.char
    # the input is left as it was
    a = rational(4, rng) if field.char == 0 else linalg.random_matrix(field, 4, 4, rng)
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
