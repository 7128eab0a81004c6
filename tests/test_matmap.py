"""Affine matrix maps: determinants, rank normalization, verification."""

import math
import random
import time
import warnings
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from detcomp import linalg, matmap
from detcomp.explore import _random_linear_map
from detcomp.expressions import abp_to_determinant, catalog_get, grenet_abp
from detcomp.fields import QQ, FieldElement, FieldMismatchError, Fp
from detcomp.matmap import (
    AffineMatrixMap,
    FieldTooSmallError,
    berkowitz_products,
    det_berkowitz,
    det_laplace_memo,
    float_at_or_above,
    generic_det_polynomial,
    laplace_is_cheaper,
    perm_polynomial,
    symbolic_det,
    verify_expression,
)
from detcomp.parsing import parse_polynomial
from detcomp.poly import ArityError, Polynomial, varset
from detcomp.singularity import check_avoids_singular_locus
from support import random_invertible, random_polynomial, record_draws, sample, scale_row


def parse_map(rows, vars, field=QQ):
    grid = [
        [parse_polynomial(cell, vars=vars, field=field) for cell in row]
        for row in rows
    ]
    return AffineMatrixMap.from_rows(vars, field, grid)


def generic_matrix_map(m, field=QQ):
    """The identity map on matrix space: entry (i, j) is the variable x_{i+1,j+1}."""
    vars = varset(*(f"x{i+1}{j+1}" for i in range(m) for j in range(m)))
    rows = [[Polynomial.variable(vars, field, i * m + j) for j in range(m)] for i in range(m)]
    return AffineMatrixMap.from_rows(vars, field, rows)


def random_map(vars, field, m, rng):
    rows = [
        [
            random_polynomial(vars, field, rng, degree=1, terms=2)
            for _ in range(m)
        ]
        for _ in range(m)
    ]
    return AffineMatrixMap.from_rows(vars, field, rows)


def dense_grid(m, rng):
    """m x m grid over F_32003 in x, y; every entry a + b*x + c*y with a, b, c != 0."""
    F = Fp(32003)
    V = varset("x", "y")
    return [
        [
            Polynomial.from_dict(V, F, {e: rng.randrange(1, F.char) for e in ((0, 0), (1, 0), (0, 1))})
            for _ in range(m)
        ]
        for _ in range(m)
    ]


def sparse_map(vars, field, m, density, rng):
    """Random nonzero diagonal plus off-diagonal entries kept with probability density."""
    zero = Polynomial.zero(vars, field)
    rows = [
        [
            random_polynomial(vars, field, rng, degree=1, terms=2)
            if i == j or rng.random() < density else zero
            for j in range(m)
        ]
        for i in range(m)
    ]
    return AffineMatrixMap.from_rows(vars, field, rows)



# ------------------------------------------------------------- construction


def test_shape_and_degree_validation():
    xy = varset("x", "y")
    x = parse_polynomial("x", vars=xy)
    with pytest.raises(ValueError):
        AffineMatrixMap.from_rows(xy, QQ, [[x, x]])
    with pytest.raises(ValueError):
        AffineMatrixMap.from_rows(xy, QQ, [[x * x]])
    with pytest.raises(FieldMismatchError):
        AffineMatrixMap.from_rows(xy, Fp(5), [[x]])
    with pytest.raises(ValueError):
        AffineMatrixMap(xy, QQ, ())


def test_symbolic_det_checks_a_raw_grid():
    """A raw grid must be a nonempty square over one ring, of any degree."""
    xy, xyz = varset("x", "y"), varset("x", "y", "z")
    x, one = parse_polynomial("x", vars=xy), Polynomial.const(xy, QQ, 1)
    z = parse_polynomial("z", vars=xyz)
    with pytest.raises(FieldMismatchError):
        symbolic_det([[x, z], [one, x]])
    with pytest.raises(FieldMismatchError):
        symbolic_det([[x, parse_polynomial("x", vars=xy, field=Fp(7))], [one, x]])
    for grid in ([[x, one, x], [one, x, one]], [[x, one], [one]], [[x], [one]], []):
        with pytest.raises(ValueError, match="square|size"):
            symbolic_det(grid)
    # entries of degree 2, as extract_coefficient_equations passes, are allowed
    assert symbolic_det([[x, one], [x * x, x]]) == Polynomial.zero(xy, QQ)


def test_structure_accessors():
    xy = varset("x", "y")
    L = parse_map([["x + 2*y + 3", "y"], ["1", "x - 1"]], xy)
    assert L.size == 2
    assert L.constant_part() == [[QQ.of(3), QQ.of(0)], [QQ.of(1), QQ.of(-1)]]
    assert L.evaluate([1, 1]) == [[QQ.of(6), QQ.of(1)], [QQ.of(1), QQ.of(0)]]


def test_evaluate_matches_entrywise_polynomial_evaluation(rng):
    vars = varset("x", "y", "z")
    for field in (QQ, Fp(32003)):
        for m in (1, 3, 5):
            # a scaled row has fractional coefficients over Q
            L = scale_row(random_map(vars, field, m, rng), 0, "1/3")
            for point in (
                [sample(field, rng, 101) for _ in vars],
                [rng.randint(-50, 50) for _ in vars],
                ["1/3", 0, FieldElement(field, field.of(7))],
            ):
                got = L.evaluate(point)
                want = [[p.evaluate(point).value for p in row] for row in L.entries]
                assert got == want
                assert [[type(v) for v in row] for row in got] == [[type(v) for v in row] for row in want]
    # the zero entry evaluates to the field's zero, a Fraction over Q
    zero = AffineMatrixMap.from_rows(vars, QQ, [[Polynomial.zero(vars, QQ)]]).evaluate([1, 2, 3])
    assert zero == [[QQ.zero]] and type(zero[0][0]) is type(QQ.zero)


def test_linear_forms_are_built_once_per_map(monkeypatch):
    builds = []
    linear_forms = matmap._linear_forms
    monkeypatch.setattr(matmap, "_linear_forms", lambda mapping: builds.append(mapping) or linear_forms(mapping))
    for field in (QQ, Fp(32003)):
        mapping, target = catalog_get("cubic_5x5", field)
        first = mapping.evaluate([1, 2, 3, 4])
        assert all(mapping.evaluate([1, 2, 3, 4]) == first for _ in range(3))
        check_avoids_singular_locus(mapping, target, mode="probabilistic", trials=50)
        assert verify_expression(mapping, target, mode="probabilistic", trials=20).ok
        assert builds == [mapping]
        builds.clear()


def test_evaluate_raises_what_polynomial_evaluate_raises(rng):
    vars = varset("x", "y", "z")
    for field, foreign in ((QQ, Fp(7)), (Fp(32003), Fp(7)), (Fp(7), QQ)):
        L = random_map(vars, field, 3, rng)
        entry = L.entries[0][0]
        for point, error in (
            ([1, 2], ArityError),
            ([1, 2, 3, 4], ArityError),
            ([1, FieldElement(foreign, foreign.of(1)), 3], FieldMismatchError),
        ):
            with pytest.raises(error):
                entry.evaluate(point)
            with pytest.raises(error):
                L.evaluate(point)


# ------------------------------------------------------------- determinants


def test_quadric_determinant():
    xyz = varset("x", "y", "z")
    L = parse_map([["x", "y"], ["-z", "x"]], xyz)
    assert symbolic_det(L) == parse_polynomial("x^2 + y*z", vars=xyz)


def test_det_of_constant_diagonal():
    xy = varset("x", "y")
    L = parse_map([["2", "0"], ["0", "3"]], xy)
    assert symbolic_det(L) == Polynomial.const(xy, QQ, 6)


def test_det_with_zero_row_is_zero():
    xy = varset("x", "y")
    L = parse_map([["0", "0"], ["x", "y"]], xy)
    assert symbolic_det(L).is_zero()


def test_laplace_and_berkowitz_agree(rng):
    """Spot agreement here; the 200-map sweep runs in the acceptance suite."""
    for field in (QQ, Fp(7)):
        vars = varset("x", "y", "z")
        for m in (1, 2, 3, 4):
            for _ in range(5):
                L = random_map(vars, field, m, rng)
                assert det_laplace_memo(L.entries) == det_berkowitz(L.entries)


def cross_check_grid(kind, field, m, rng):
    """An m x m grid in x, y, z of one kind, each entry zero with probability
    1/3, with a zero row, a zero column or every entry zero for the kinds named
    so. Over Q every nonzero coefficient is a fraction with a denominator up
    to 6, different from entry to entry."""
    vars = varset("x", "y", "z")

    def scalar():
        c = sample(field, rng, 7)
        return c / rng.randint(1, 6) if field.char == 0 else c

    def entry():
        if kind == "bilinear":  # degree-2 entries, as extract_coefficient_equations passes
            p = random_polynomial(vars, field, rng, degree=2, terms=2)
        elif kind == "one variable":
            p = Polynomial.variable(vars, field, rng.randrange(3))
        else:
            affine = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
            p = Polynomial.from_dict(vars, field, {e: scalar() for e in affine})
        return p.scale(scalar()) if field.char == 0 else p

    def is_zero(i, j):
        if kind == "zero matrix" or (kind == "zero row" and i == row) or (kind == "zero column" and j == col):
            return True
        return rng.random() < 1 / 3

    zero = Polynomial.zero(vars, field)
    row, col = rng.randrange(m), rng.randrange(m)
    return [[zero if is_zero(i, j) else entry() for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("field", [QQ, Fp(2), Fp(32003)], ids=str)
def test_berkowitz_matches_laplace_across_kinds_and_sizes(field, rng):
    """Fractions over Q, degree-2 and one-variable entries, zero rows and
    columns, and F_2, at every size from 1 to 9."""
    kinds = ("affine", "bilinear", "one variable", "zero row", "zero column", "zero matrix")
    for m in range(1, 10):
        for kind in kinds:
            grid = cross_check_grid(kind, field, m, rng)
            det = det_laplace_memo(grid)
            assert det_berkowitz(grid) == det, (kind, m)
            if kind.startswith("zero"):
                assert det.is_zero()
    # the sweep reaches non-integral coefficients over Q
    if field.char == 0:
        grid = cross_check_grid("affine", field, 3, rng)
        assert any(c.denominator > 1 for row in grid for p in row for _, c in p.terms)


@pytest.mark.parametrize("field", [QQ, Fp(2), Fp(32003)], ids=str)
def test_berkowitz_packing_matches_laplace(field, rng):
    """Packed monomials at the edges of their fields: one-variable entries up
    to degree 7, mixed degrees in several variables, a ring with no
    variables, 1x1 grids, and over Q coefficients with denominators."""

    def grid(vars, m, degree, terms):
        def entry():
            p = random_polynomial(vars, field, rng, degree=rng.randint(0, degree), terms=terms)
            return p.scale(Fraction(1, rng.randint(1, 6))) if field.char == 0 else p
        return [[entry() for _ in range(m)] for _ in range(m)]

    x = varset("x")
    x7 = parse_polynomial("x^7", vars=x, field=field)
    # x^7 on the diagonal, lower degrees off it: x^35 reaches the top of a 6-bit field
    top = grid(x, 5, 6, 3)
    for i in range(5):
        top[i][i] = top[i][i] + x7
    cases = [top] + [grid(x, m, 7, 3) for m in range(1, 7)]
    cases += [grid(varset("x", "y", "z", "w"), m, 3, 4) for m in range(1, 7)]
    cases += [grid(varset(), m, 0, 1) for m in range(1, 9)]
    for g in cases:
        assert det_berkowitz(g) == det_laplace_memo(g), g
    assert det_berkowitz(top).leading_monomial() == (35,)
    if field.char == 0:
        assert any(c.denominator > 1 for g in cases for row in g for p in row for _, c in p.terms)


@pytest.mark.parametrize("field, degree", [(Fp(2**61 - 1), 1), (Fp(2**61 - 1), 2), (QQ, 1), (Fp(2), 1), (Fp(2), 2)],
                         ids=["F_(2^61-1)", "F_(2^61-1), degree 2", "Q", "F_2", "F_2, degree 2"])
def test_berkowitz_packed_krylov_steps_on_dense_grids(field, degree, rng):
    """Dense grids in x, y, every entry of the given degree, whose Krylov
    steps fill the packed slots: over F_(2^61 - 1) the slots are wider than
    64 bits, over Q numerators reach +-10^20 over denominators up to 6, over
    F_2 the slots are narrow. Sizes 8 and 9 match Laplace; 10 to 12 match
    elimination on the evaluated matrix at seeded points. (Degree 2 over Q
    costs Laplace seconds; the cross-check sweep covers it to 9x9.)"""
    vars = varset("x", "y")
    monomials = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]

    def scalar():
        if field.char == 0:
            return Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 6))
        return rng.randrange(field.char)

    def entry():
        while True:
            p = Polynomial.from_dict(vars, field, {e: scalar() for e in monomials})
            if not p.is_zero():
                return p

    for m in range(8, 13):
        grid = [[entry() for _ in range(m)] for _ in range(m)]
        det = det_berkowitz(grid)
        if m < 10:
            assert det == det_laplace_memo(grid), m
            continue
        for _ in range(2):
            point = [field.of(rng.randrange(1, 1000)) for _ in vars]
            values = [[p.evaluate(point).value for p in row] for row in grid]
            assert det.evaluate(point).value == linalg.mat_det(field, values), m


def test_det_evaluation_commutes_with_numeric_det(rng):
    field = Fp(101)
    vars = varset("x", "y", "z")
    for m in (2, 3):
        for _ in range(10):
            L = random_map(vars, field, m, rng)
            det = symbolic_det(L)
            pt = [sample(field, rng, 101) for _ in range(3)]
            assert det.evaluate(pt).value == linalg.mat_det(field, L.evaluate(pt))


def test_bidiagonal_7x7_and_auto_as_the_only_algorithm():
    m = 7
    vars = varset("x")
    one = Polynomial.const(vars, QQ, 1)
    x = parse_polynomial("x", vars=vars)
    rows = [
        tuple(x if i == j else one if j == i + 1 else Polynomial.zero(vars, QQ) for j in range(m))
        for i in range(m)
    ]
    L = AffineMatrixMap(vars, QQ, tuple(rows))
    x7 = parse_polynomial("x^7", vars=vars)
    assert det_laplace_memo(L.entries) == det_berkowitz(L.entries) == x7
    assert symbolic_det(L, algorithm="auto") == x7
    # the algorithms are chosen by counted work, never by name
    for name in ("laplace-memo", "berkowitz", "gauss"):
        with pytest.raises(ValueError, match="unknown determinant algorithm"):
            symbolic_det(L, algorithm=name)


def count_kernel_products(monkeypatch):
    """Count the polynomial products the determinants hand to sum_of_products."""
    products = []
    real = matmap.sum_of_products

    def counting(vars, field, pairs, addends=()):
        pairs = list(pairs)
        products.extend(pairs)
        return real(vars, field, pairs, addends)

    monkeypatch.setattr(matmap, "sum_of_products", counting)
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: pytest.fail("a product outside the kernel"))
    return products


def test_berkowitz_products_counts_berkowitz_work(rng, monkeypatch):
    """Step k < m of det_berkowitz forms k (k + 1) / 2 (diagonal, coefficient)
    Toeplitz products on packed dicts, none by the leading 1, and the last step
    m, for row m alone; with the (k - 1)^3 entry-by-vector-entry products of
    each step they make berkowitz_products(m). It calls neither sum_of_products
    nor Polynomial arithmetic, and the only Polynomial it builds is the result."""
    grids = [dense_grid(m, rng) for m in range(1, 10)]
    pairs, built = [], []
    real_products, real_init = matmap._packed_products, Polynomial.__init__
    monkeypatch.setattr(matmap, "_packed_products", lambda acc, ps: pairs.extend(ps) or real_products(acc, ps))
    monkeypatch.setattr(Polynomial, "__init__", lambda self, *args: built.append(self) or real_init(self, *args))
    monkeypatch.setattr(matmap, "sum_of_products", lambda *args: pytest.fail("a sum_of_products call"))
    for name in ("__mul__", "__add__", "__sub__", "__neg__", "scale"):
        monkeypatch.setattr(Polynomial, name, lambda *args, name=name: pytest.fail(f"Polynomial.{name}"))
    for m, grid in enumerate(grids, 1):
        pairs.clear()
        built.clear()
        det = det_berkowitz(grid)
        toeplitz = sum(k * (k + 1) // 2 for k in range(2, m)) + (m if m > 1 else 0)
        assert len(pairs) == toeplitz
        assert all(diag != {0: 1} for diag, _ in pairs)
        assert berkowitz_products(m) == toeplitz + sum((k - 1) ** 3 for k in range(2, m + 1))
        assert built == [det]


def test_laplace_products_count_laplace_work(rng, monkeypatch):
    """A dense m x m grid costs det_laplace_memo m 2^(m-1) - m products, as the chooser counts."""
    products = count_kernel_products(monkeypatch)
    for m in range(1, 8):
        products.clear()
        det_laplace_memo(dense_grid(m, rng))
        assert len(products) == m * 2 ** (m - 1) - m


def test_laplace_negates_each_entry_once_on_first_use(rng, monkeypatch):
    """Only entries that some row subset reads at an odd position are negated, each once."""
    negated = []
    real = Polynomial.__neg__
    monkeypatch.setattr(Polynomial, "__neg__", lambda p: negated.append(p) or real(p))
    for m in range(1, 8):
        negated.clear()
        grid = dense_grid(m, rng)
        det_laplace_memo(grid)
        where = {id(p): (i, j) for i, row in enumerate(grid) for j, p in enumerate(row)}
        got = [where[id(p)] for p in negated]
        # a subset of rows S expands along column m - |S|, its rows in order
        want = {
            (i, m - size) for size in range(2, m + 1) for rows in combinations(range(m), size) for i in rows[1::2]
        }
        assert sorted(got) == sorted(want)
    assert len(got) == 31  # at 7x7; negating every entry up front made 49


def test_auto_chooses_by_laplace_work(rng):
    # dense grids: m 2^(m-1) - m Laplace products, within Berkowitz's count up to 7x7
    for m in range(1, 8):
        assert laplace_is_cheaper(dense_grid(m, rng))
    for m in (8, 9, 10, 12):
        assert not laplace_is_cheaper(dense_grid(m, rng))
    grenet = abp_to_determinant(grenet_abp(4))
    assert grenet.size == 15
    assert laplace_is_cheaper(grenet.entries)


def test_symbolic_det_routing_is_pinned(rng, monkeypatch):
    """The algorithm symbolic_det runs for the grids the package meets: the
    15x15 Grenet expression, explore's 3x3 and 4x4 linear maps and dense
    grids up to 7x7 go to Laplace, dense grids from 8x8 to Berkowitz."""
    grenet = abp_to_determinant(grenet_abp(4))
    linear = [_random_linear_map(n, m, Fp(101), random.Random(seed))
              for n, m in ((4, 3), (5, 3), (6, 4), (9, 4)) for seed in range(5)]

    class Ran(Exception):
        pass

    def refuse(name):
        def run(grid, *args, **kwargs):
            raise Ran(name)
        return run

    # both algorithms raise their own name, so only the routing runs
    monkeypatch.setattr(matmap, "det_berkowitz", refuse("berkowitz"))
    monkeypatch.setattr(matmap, "det_laplace_memo", refuse("laplace"))
    for mapping in [grenet, *linear, *(dense_grid(m, rng) for m in range(1, 8))]:
        with pytest.raises(Ran, match="laplace"):
            symbolic_det(mapping)
    for m in (8, 9, 10, 12):
        with pytest.raises(Ran, match="berkowitz"):
            symbolic_det(dense_grid(m, rng))


def test_auto_chooser_bounds_hostile_input(monkeypatch):
    """Dense 40x40 and 100x100 patterns stop the subset walk at its bound, before any arithmetic."""
    vars = varset("x")
    x_plus_1 = parse_polynomial("x + 1", vars=vars)

    def no_arithmetic(*args):
        raise AssertionError("the chooser did polynomial arithmetic")

    for name in ("__mul__", "__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(Polynomial, name, no_arithmetic)
    for m in (40, 100):
        grid = [[x_plus_1] * m for _ in range(m)]
        start = time.monotonic()
        assert not laplace_is_cheaper(grid)
        assert time.monotonic() - start < 10


# CPU-time budgets (Python 3.11, 2-vCPU shared VM). The dense 12x12 takes
# 0.03-0.045 s with Berkowitz on packed int monomials; it took 0.05-0.1 s with
# exponent tuples and Polynomial Toeplitz products, 0.15-0.25 s with one
# polynomial product per entry, and 1.5 s before the fused polynomial kernel.
# The 200-point check takes 0.02-0.04 s with unit pivots and trials on ints;
# it took 0.08-0.14 s before them, and 0.65 s before integer Bareiss.


def test_dense_12x12_auto_determinant_budget(rng):
    grid = dense_grid(12, rng)
    start = time.process_time()
    det = symbolic_det(grid, algorithm="auto")
    assert time.process_time() - start < 1.5
    mapping = AffineMatrixMap.from_rows(varset("x", "y"), Fp(32003), grid)
    for point in ([3, 5], [31999, 17]):
        assert det.evaluate(point).value == linalg.mat_det(mapping.field, mapping.evaluate(point))


def test_grenet_15_probabilistic_check_budget():
    mapping = abp_to_determinant(grenet_abp(4))
    target = perm_polynomial(4)
    start = time.process_time()
    report = verify_expression(mapping, target, mode="probabilistic", trials=200, seed=811)
    assert time.process_time() - start < 1.0
    assert report.ok and report.trials == 200


def test_grenet_15_probabilistic_reports_are_pinned():
    """Reports as computed when each trial evaluated L and f on Fractions:
    trials on ints draw the same points, trial by trial."""
    mapping = abp_to_determinant(grenet_abp(4))
    target = perm_polynomial(4)
    report = verify_expression(mapping, target, mode="probabilistic", trials=200, seed=811)
    assert report.ok and report.trials == 200
    assert report.failure_bound == 4.3209623538950125e-128  # (15/65)^200, rounded up
    assert report.notes == ("false-accept probability <= (15/65)^200",)
    # one entry + 1; the first two points miss the difference, the third finds it
    rows = [list(row) for row in mapping.entries]
    rows[4][11] = rows[4][11] + Polynomial.const(mapping.vars, mapping.field, 1)
    broken = AffineMatrixMap.from_rows(mapping.vars, mapping.field, rows)
    report = verify_expression(broken, target, mode="probabilistic", trials=200, seed=30)
    assert not report.ok and report.trials == 3
    assert report.witness_point == tuple(
        QQ.of(x) for x in (32, -22, -15, -1, 8, -17, -29, 20, 32, 6, -10, -9, 28, 10, 25, 10))
    assert all(type(x) is type(QQ.zero) for x in report.witness_point)


def test_failure_bound_is_the_tightest_float_at_or_above_the_exact_bound():
    """(15/32003)^t rounded to nearest falls below the exact value for 96 of
    the t < 2000, t = 1 among them; rounded up it never does, and the next
    float down is below it. Past the subnormal range the bound stays at the
    smallest positive float."""
    for t in range(1, 2000):
        exact = Fraction(15, 32003) ** t
        bound = float_at_or_above(15**t, 32003**t)
        assert Fraction(math.nextafter(bound, -math.inf)) < exact <= Fraction(bound)
    assert float_at_or_above(15**2000, 32003**2000) == math.ulp(0.0)
    assert float_at_or_above(0, 7) == 0.0


@pytest.mark.parametrize("field", [QQ, Fp(101)], ids=str)
def test_probabilistic_points_lie_in_the_sample_range(field, monkeypatch):
    """Every coordinate a probabilistic check evaluates, a witness's too, is
    drawn from the range whose length the failure bound divides by, and the
    draws reach both of its ends."""
    mapping, target = catalog_get("grenet_perm_3", field=field)
    draws = record_draws(monkeypatch, field)
    report = verify_expression(mapping, target, mode="probabilistic", trials=200, seed=5)
    assert report.ok and len(draws) == 200
    r = draws[0][0]
    assert r == field.sample_range(64) and all(range_ is r for range_, _ in draws)
    coords = [x for _, point in draws for x in point]
    assert all(x in r for x in coords)
    assert min(coords) == r[0] and max(coords) == r[-1]
    # an entry + 1 breaks the expression; the witness is the last point drawn
    rows = [list(row) for row in mapping.entries]
    rows[0][0] = rows[0][0] + Polynomial.const(mapping.vars, field, 1)
    broken = AffineMatrixMap.from_rows(mapping.vars, field, rows)
    del draws[:]
    report = verify_expression(broken, target, mode="probabilistic", trials=200, seed=5)
    assert not report.ok and len(draws) == report.trials
    r, point = draws[-1]
    assert report.witness_point == tuple(map(field.of, point))
    assert all(x in r for x in report.witness_point)


@pytest.mark.parametrize("field, sample_size", [(QQ, 65), (Fp(101), 101), (Fp(17), 17)], ids=str)
def test_failure_bound_divides_by_the_sample_range_length(field, sample_size, monkeypatch):
    """grenet_perm_3 has degree bound 7 (its size) and asks for a range of 64:
    65 integers over Q, all of F_p over F_p."""
    mapping, target = catalog_get("grenet_perm_3", field=field)
    draws = record_draws(monkeypatch, field)
    for trials in (1, 20, 200):
        report = verify_expression(mapping, target, mode="probabilistic", trials=trials)
        assert len(draws[-1][0]) == sample_size
        assert report.failure_bound == float_at_or_above(7**trials, sample_size**trials)
        assert report.notes == (f"false-accept probability <= (7/{sample_size})^{trials}",)
    # a range of at most twice the degree bound cannot bound anything
    mapping, target = catalog_get("grenet_perm_3", field=Fp(13))
    with pytest.raises(FieldTooSmallError, match="size 13 is too small for degree bound 7"):
        verify_expression(mapping, target, mode="probabilistic")


def test_grenet_15_laplace_matches_numeric_det(rng):
    for field in (QQ, Fp(32003)):
        mapping = abp_to_determinant(grenet_abp(4, field))
        det = det_laplace_memo(mapping.entries)
        assert det == perm_polynomial(4, field)
        for _ in range(5):
            point = [sample(field, rng, 1000) for _ in mapping.vars]
            assert det.evaluate(point).value == linalg.mat_det(field, mapping.evaluate(point))


def test_laplace_and_berkowitz_agree_on_sparse_maps_auto_routes_to_laplace(rng):
    vars = varset("x", "y", "z")
    field = Fp(32003)
    for m in (9, 10, 11, 12):
        L = sparse_map(vars, field, m, 0.15, rng)
        assert laplace_is_cheaper(L.entries)
        laplace = symbolic_det(L, algorithm="auto")
        assert not laplace.is_zero()
        assert laplace == det_berkowitz(L.entries)


# -------------------------------------------------------- rank normalization


def sandwich(L, P, Q):
    """P L Q as a map: (P L Q)_ij = sum_kl P_ik L_kl Q_lj."""
    field, m = L.field, L.size
    zero = Polynomial.zero(L.vars, field)
    return AffineMatrixMap.from_rows(L.vars, field, [[
        sum((L.entries[k][l].scale(field.of(P[i][k] * Q[l][j]))
             for k in range(m) for l in range(m)), zero)
        for j in range(m)] for i in range(m)])


def mat_mul(field, a, b):
    return [[field.of(sum(x * y for x, y in zip(row, col))) for col in zip(*b)] for row in a]


def test_rank_normalize_zero_constant_part():
    xy = varset("x", "y")
    L = parse_map([["x", "y"], ["y", "x"]], xy)
    P, Q, r = linalg.rank_normal_decomposition(QQ, L.constant_part())
    assert r == 0
    # P and Q reverse the coordinates, which maps this L to itself
    assert sandwich(L, P, Q).entries == L.entries
    assert linalg.mat_det(QQ, P) * linalg.mat_det(QQ, Q) == QQ.of(1)


def test_rank_normalize_constant_block_shape(rng):
    """P C Q is J_r: ones exactly on the trailing diagonal slots, r of them."""
    field = Fp(7)
    vars = varset("x", "y")
    m = 4
    for _ in range(20):
        L = random_map(vars, field, m, rng)
        C = L.constant_part()
        P, Q, r = linalg.rank_normal_decomposition(field, C)
        assert r == linalg.mat_rank(field, C)
        J = [[field.one if (i == j and i >= m - r) else field.zero for j in range(m)]
             for i in range(m)]
        assert mat_mul(field, mat_mul(field, P, C), Q) == J
        assert sandwich(L, P, Q).constant_part() == J


def test_rank_normalize_recomposition(rng):
    """P L Q evaluates to P L(x) Q at every point, and its determinant picks
    up det(P) det(Q)."""
    field = Fp(7)
    vars = varset("x", "y")
    for _ in range(10):
        L = random_map(vars, field, 4, rng)
        P, Q, _ = linalg.rank_normal_decomposition(field, L.constant_part())
        normalized = sandwich(L, P, Q)
        for _ in range(3):
            point = [sample(field, rng, 7) for _ in vars]
            assert normalized.evaluate(point) == mat_mul(field, mat_mul(field, P, L.evaluate(point)), Q)
        scalar = field.of(linalg.mat_det(field, P) * linalg.mat_det(field, Q))
        assert symbolic_det(normalized) == symbolic_det(L).scale(scalar)


def test_rank_normalize_full_rank_constant():
    vars = varset("x")
    rows = [["x + 1", "0", "0"], ["0", "1", "x"], ["0", "0", "1"]]
    L = parse_map(rows, vars)
    P, Q, r = linalg.rank_normal_decomposition(QQ, L.constant_part())
    assert r == 3
    normalized = sandwich(L, P, Q)
    ident = [[QQ.one if i == j else QQ.zero for j in range(3)] for i in range(3)]
    assert normalized.constant_part() == ident
    scalar = linalg.mat_det(QQ, P) * linalg.mat_det(QQ, Q)
    assert symbolic_det(normalized) == symbolic_det(L).scale(scalar)


# ------------------------------------------------- generic perm and det


def test_perm_polynomial_small():
    p2 = perm_polynomial(2)
    assert str(p2) == "x12*x21 + x11*x22"
    assert p2.coefficient((1, 0, 0, 1)) == QQ.of(1)
    assert p2.coefficient((0, 1, 1, 0)) == QQ.of(1)
    p3 = perm_polynomial(3)
    assert len(p3.terms) == 6
    assert all(c == QQ.of(1) for _, c in p3.terms)
    assert p3.is_homogeneous() and p3.degree() == 3
    p4 = perm_polynomial(4)
    assert len(p4.terms) == 24
    # multilinear: every variable appears with exponent at most 1
    assert all(max(e) == 1 for e, _ in p4.terms)


def test_perm_cap_and_char2_warning():
    with pytest.raises(ValueError):
        perm_polynomial(7)
    with pytest.raises(ValueError):
        perm_polynomial(0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        perm_polynomial(2, field=Fp(2))
    assert any("characteristic 2" in str(w.message) for w in caught)


def test_generic_det_signs_match_parity():
    for m in (2, 3):
        det = generic_det_polynomial(m)
        assert len(det.terms) == [1, 1, 2, 6][m]
        for sigma in permutations(range(m)):
            e = [0] * (m * m)
            for i, j in enumerate(sigma):
                e[i * m + j] = 1
            inversions = sum(
                1
                for a in range(m)
                for b in range(a + 1, m)
                if sigma[a] > sigma[b]
            )
            assert det.coefficient(tuple(e)) == QQ.of((-1) ** inversions)


def test_generic_det_agrees_with_symbolic_det():
    for m in (2, 3, 4):
        assert generic_det_polynomial(m) == symbolic_det(generic_matrix_map(m))
    with pytest.raises(ValueError):
        generic_det_polynomial(6)


def test_det_is_multiplicative_under_constant_sandwich(rng):
    """det(P L Q) = det(P) det(L) det(Q) for constant invertible P, Q."""
    field = Fp(11)
    vars = varset("x", "y")
    for _ in range(10):
        L = random_map(vars, field, 3, rng)
        P = random_invertible(field, 3, rng)
        Q = random_invertible(field, 3, rng)
        zero = Polynomial.zero(vars, field)
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                acc = zero
                for k in range(3):
                    for l in range(3):
                        c = field.of(P[i][k] * Q[l][j])
                        if c != field.zero:
                            acc = acc + L.entries[k][l].scale(c)
                row.append(acc)
            rows.append(tuple(row))
        sandwich = AffineMatrixMap(vars, field, tuple(rows))
        scalar = field.of(linalg.mat_det(field, P) * linalg.mat_det(field, Q))
        assert symbolic_det(sandwich) == symbolic_det(L).scale(scalar)


# --------------------------------------------------------------- verification


def test_verify_expression_exact():
    mapping, target = catalog_get("quadric_2x2")
    report = verify_expression(mapping, target)
    assert report.mode == "exact" and report.ok
    assert report.witness_monomial is None


def test_verify_expression_mismatch_witness():
    xyz = varset("x", "y", "z")
    L = parse_map([["x", "y"], ["z", "x"]], xyz)  # det = x^2 - y*z
    target = parse_polynomial("x^2 + y*z", vars=xyz)
    report = verify_expression(L, target)
    assert not report.ok
    assert report.witness_monomial == "y*z"
    diff = symbolic_det(L) - target
    assert not diff.coefficient(diff.leading_monomial()) == QQ.zero


def test_verify_expression_probabilistic():
    mapping, target = catalog_get("cubic_5x5")
    report = verify_expression(mapping, target, mode="probabilistic", trials=40)
    assert report.ok
    assert report.trials == 40
    assert report.failure_bound is not None and report.failure_bound < 1e-20


@pytest.mark.parametrize("trials", [0, -3])
def test_probabilistic_needs_a_trial(trials):
    """With no trial run, a wrong target must not come back ok."""
    mapping, target = catalog_get("quadric_2x2")
    wrong = target + Polynomial.variable(mapping.vars, mapping.field, 0)
    with pytest.raises(ValueError, match="trials >= 1"):
        verify_expression(mapping, wrong, mode="probabilistic", trials=trials)


def test_probabilistic_catches_perturbation():
    mapping, target = catalog_get("cubic_5x5", field=Fp(32003))
    rows = [list(r) for r in mapping.entries]
    rows[0][0] = rows[0][0] + Polynomial.const(mapping.vars, mapping.field, 1)
    broken = AffineMatrixMap.from_rows(mapping.vars, mapping.field, rows)
    report = verify_expression(broken, target, mode="probabilistic", trials=30)
    assert not report.ok
    assert report.witness_point is not None
    # the witness is a genuine counterexample
    pt = [v for v in report.witness_point]
    det_val = linalg.mat_det(mapping.field, broken.evaluate(pt))
    assert det_val != target.evaluate(pt).value


def test_probabilistic_needs_enough_field_elements():
    field = Fp(2)
    xy = varset("x", "y")
    L = parse_map([["x", "0"], ["0", "y"]], xy, field)
    target = parse_polynomial("x*y", vars=xy, field=field)
    with pytest.raises(FieldTooSmallError):
        verify_expression(L, target, mode="probabilistic")
    assert verify_expression(L, target, mode="exact").ok


def test_exact_and_probabilistic_agree(rng):
    field = Fp(101)
    vars = varset("x", "y")
    for _ in range(10):
        L = random_map(vars, field, 2, rng)
        target = symbolic_det(L)
        exact = verify_expression(L, target)
        prob = verify_expression(L, target, mode="probabilistic", trials=20)
        assert exact.ok and prob.ok


def test_verify_rejects_mismatched_rings():
    xy = varset("x", "y")
    L = parse_map([["x"]], xy)
    with pytest.raises(FieldMismatchError):
        verify_expression(L, parse_polynomial("x", vars=varset("x")))
