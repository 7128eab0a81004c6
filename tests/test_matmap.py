"""Affine matrix maps: determinants, rank normalization, verification."""

import time
import warnings
from itertools import permutations

import pytest

from detcomp import linalg, matmap
from detcomp.expressions import abp_to_determinant, catalog_get, grenet_abp
from detcomp.fields import QQ, FieldElement, FieldMismatchError, Fp
from detcomp.matmap import (
    AffineMatrixMap,
    DeterminantSizeError,
    FieldTooSmallError,
    berkowitz_products,
    det_berkowitz,
    det_laplace_memo,
    generic_det_polynomial,
    generic_matrix_map,
    laplace_is_cheaper,
    perm_polynomial,
    rank_and_normalize,
    symbolic_det,
    verify_expression,
)
from detcomp.poly import ArityError, Polynomial, random_polynomial, varset


def parse_map(rows, vars, field=QQ):
    grid = [
        [Polynomial.parse(cell, vars=vars, field=field) for cell in row]
        for row in rows
    ]
    return AffineMatrixMap.from_rows(vars, field, grid)


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
    x = Polynomial.parse("x", vars=xy)
    with pytest.raises(ValueError):
        AffineMatrixMap.from_rows(xy, QQ, [[x, x]])
    with pytest.raises(ValueError):
        AffineMatrixMap.from_rows(xy, QQ, [[x * x]])
    with pytest.raises(FieldMismatchError):
        AffineMatrixMap.from_rows(xy, Fp(5), [[x]])
    with pytest.raises(ValueError):
        AffineMatrixMap(xy, QQ, ())


def test_structure_accessors():
    xy = varset("x", "y")
    L = parse_map([["x + 2*y + 3", "y"], ["1", "x - 1"]], xy)
    assert L.size == 2
    assert L.constant_part() == [[QQ.of(3), QQ.of(0)], [QQ.of(1), QQ.of(-1)]]
    assert L.coefficient_matrix(0) == [[QQ.of(1), QQ.of(0)], [QQ.of(0), QQ.of(1)]]
    assert L.coefficient_matrix(1) == [[QQ.of(2), QQ.of(1)], [QQ.of(0), QQ.of(0)]]
    assert L.evaluate([1, 1]) == [[QQ.of(6), QQ.of(1)], [QQ.of(1), QQ.of(0)]]
    lin = L.linear_part()
    assert all(p.constant_term() == QQ.zero for row in lin.entries for p in row)


def test_evaluate_matches_entrywise_polynomial_evaluation(rng):
    vars = varset("x", "y", "z")
    for field in (QQ, Fp(32003)):
        for m in (1, 3, 5):
            L = random_map(vars, field, m, rng)
            for point in (
                [field.sample(rng, 101) for _ in vars],
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
    assert symbolic_det(L) == Polynomial.parse("x^2 + y*z", vars=xyz)


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
                a = symbolic_det(L, algorithm="laplace-memo")
                b = symbolic_det(L, algorithm="berkowitz")
                assert a == b


def test_det_evaluation_commutes_with_numeric_det(rng):
    field = Fp(101)
    vars = varset("x", "y", "z")
    for m in (2, 3):
        for _ in range(10):
            L = random_map(vars, field, m, rng)
            det = symbolic_det(L)
            pt = [field.sample(rng, 101) for _ in range(3)]
            assert det.evaluate(pt).value == linalg.mat_det(field, L.evaluate(pt))


def test_laplace_cap_and_berkowitz_fallback():
    m = 7
    vars = varset("x")
    one = Polynomial.const(vars, QQ, 1)
    x = Polynomial.parse("x", vars=vars)
    rows = [
        tuple(x if i == j else one if j == i + 1 else Polynomial.zero(vars, QQ) for j in range(m))
        for i in range(m)
    ]
    L = AffineMatrixMap(vars, QQ, tuple(rows))
    with pytest.raises(DeterminantSizeError):
        det_laplace_memo(L.entries, cap=6)
    assert symbolic_det(L, algorithm="berkowitz") == Polynomial.parse("x^7", vars=vars)
    assert symbolic_det(L, algorithm="auto") == Polynomial.parse("x^7", vars=vars)
    # an explicit Laplace request keeps det_laplace_memo's own cap
    nine = [[one] * 9 for _ in range(9)]
    with pytest.raises(DeterminantSizeError):
        symbolic_det(nine, algorithm="laplace-memo")
    with pytest.raises(ValueError):
        symbolic_det(L, algorithm="gauss")


def test_berkowitz_products_counts_berkowitz_work(rng, monkeypatch):
    """The chooser's bound is the number of products det_berkowitz really makes."""
    products = []
    real_mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: products.append(1) or real_mul(a, b))
    for m in range(1, 10):
        products.clear()
        det_berkowitz(dense_grid(m, rng))
        assert len(products) == berkowitz_products(m)


def test_auto_chooses_by_laplace_work(rng, monkeypatch):
    # dense grids: m 2^(m-1) - m Laplace products, within Berkowitz's count up to 7x7
    for m in range(1, 8):
        assert laplace_is_cheaper(dense_grid(m, rng))
    for m in (8, 9, 10, 12):
        assert not laplace_is_cheaper(dense_grid(m, rng))
    grenet = abp_to_determinant(grenet_abp(4))
    assert grenet.size == 15
    assert laplace_is_cheaper(grenet.entries)

    class Ran(Exception):
        pass

    def refuse(name):
        def run(grid, *args, **kwargs):
            raise Ran(name)
        return run

    # both algorithms raise their own name, so only the routing runs
    monkeypatch.setattr(matmap, "det_berkowitz", refuse("berkowitz"))
    monkeypatch.setattr(matmap, "det_laplace_memo", refuse("laplace"))
    with pytest.raises(Ran, match="laplace"):
        symbolic_det(grenet, algorithm="auto")
    for m in (8, 10):
        with pytest.raises(Ran, match="berkowitz"):
            symbolic_det(dense_grid(m, rng))


def test_auto_chooser_bounds_hostile_input(monkeypatch):
    """Dense 40x40 and 100x100 patterns stop the subset walk at its bound, before any arithmetic."""
    vars = varset("x")
    x_plus_1 = Polynomial.parse("x + 1", vars=vars)

    def no_arithmetic(*args):
        raise AssertionError("the chooser did polynomial arithmetic")

    for name in ("__mul__", "__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(Polynomial, name, no_arithmetic)
    for m in (40, 100):
        grid = [[x_plus_1] * m for _ in range(m)]
        start = time.monotonic()
        assert not laplace_is_cheaper(grid)
        assert time.monotonic() - start < 10


def test_grenet_15_laplace_matches_numeric_det(rng):
    for field in (QQ, Fp(32003)):
        mapping = abp_to_determinant(grenet_abp(4, field))
        det = det_laplace_memo(mapping.entries, cap=mapping.size)
        assert det == perm_polynomial(4, field)
        for _ in range(5):
            point = [field.sample(rng, 1000) for _ in mapping.vars]
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


def test_rank_normalize_zero_constant_part():
    xy = varset("x", "y")
    L = parse_map([["x", "y"], ["y", "x"]], xy)
    norm = rank_and_normalize(L)
    assert norm.rank == 0
    assert norm.normalized.entries == L.entries
    assert norm.scalar == QQ.of(1)


def test_rank_normalize_constant_block_shape(rng):
    """P L Q has ones exactly on the trailing diagonal slots, r of them."""
    field = Fp(7)
    vars = varset("x", "y")
    for _ in range(20):
        L = random_map(vars, field, 4, rng)
        norm = rank_and_normalize(L)
        m = 4
        c = norm.normalized.constant_part()
        expected_rank = linalg.mat_rank(field, L.constant_part())
        assert norm.rank == expected_rank
        for i in range(m):
            for j in range(m):
                want = field.one if (i == j and i >= m - norm.rank) else field.zero
                assert c[i][j] == want


def test_rank_normalize_recomposition(rng):
    """normalized = P L Q entrywise, and det picks up det(P) det(Q)."""
    field = Fp(7)
    vars = varset("x", "y")
    for _ in range(10):
        L = random_map(vars, field, 4, rng)
        norm = rank_and_normalize(L)
        P, Q = norm.left, norm.right
        m = 4
        zero = Polynomial.zero(vars, field)
        for i in range(m):
            for j in range(m):
                acc = zero
                for k in range(m):
                    for l in range(m):
                        c = field.mul(P[i][k], Q[l][j])
                        if c != field.zero:
                            acc = acc + L.entries[k][l].scale(c)
                assert acc == norm.normalized.entries[i][j]
        assert norm.scalar == field.mul(
            linalg.mat_det(field, P), linalg.mat_det(field, Q)
        )
        lhs = symbolic_det(norm.normalized)
        rhs = symbolic_det(L).scale(norm.scalar)
        assert lhs == rhs


def test_rank_normalize_full_rank_constant():
    vars = varset("x")
    rows = [["x + 1", "0", "0"], ["0", "1", "x"], ["0", "0", "1"]]
    L = parse_map(rows, vars)
    norm = rank_and_normalize(L)
    assert norm.rank == 3
    ident = linalg.identity(QQ, 3)
    assert norm.normalized.constant_part() == ident
    assert symbolic_det(norm.normalized) == symbolic_det(L).scale(norm.scalar)
    # linear_entry strips the constant part of an entry
    e00 = norm.normalized.entries[0][0]
    assert norm.linear_entry(0, 0) == e00 - Polynomial.const(
        vars, QQ, e00.constant_term()
    )


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
        P = linalg.random_invertible(field, 3, rng)
        Q = linalg.random_invertible(field, 3, rng)
        zero = Polynomial.zero(vars, field)
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                acc = zero
                for k in range(3):
                    for l in range(3):
                        c = field.mul(P[i][k], Q[l][j])
                        if c != field.zero:
                            acc = acc + L.entries[k][l].scale(c)
                row.append(acc)
            rows.append(tuple(row))
        sandwich = AffineMatrixMap(vars, field, tuple(rows))
        scalar = field.mul(linalg.mat_det(field, P), linalg.mat_det(field, Q))
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
    target = Polynomial.parse("x^2 + y*z", vars=xyz)
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
    target = Polynomial.parse("x*y", vars=xy, field=field)
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
        verify_expression(L, Polynomial.parse("x", vars=varset("x")))
