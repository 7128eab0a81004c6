"""Singular loci, certificates, isotropy, and expression analysis."""

import itertools

import pytest

from detcomp import linalg
from detcomp.expressions import catalog_get
from detcomp.fields import QQ, Fp
from detcomp.groebner import Ideal, buchberger, normal_form, staircase_dimension
from detcomp.matmap import AffineMatrixMap, perm_polynomial, symbolic_det
from detcomp.parsing import parse_polynomial
from detcomp.poly import Polynomial, varset
from detcomp.singularity import (
    analyze_expression,
    certify_lower_bound,
    check_avoids_singular_locus,
    codim_sing,
    isotropic_dimension,
    jacobian_ideal,
)
from support import random_invertible, record_draws, scale_row

XYZT = varset("x", "y", "z", "t")
CUBIC = parse_polynomial("x*y^2 + y*t^2 + z^3", vars=XYZT)


def poly_ring(vars, field):
    return tuple(Polynomial.variable(vars, field, i) for i in range(len(vars)))


def fermat(degree, n, field=QQ):
    vs = varset(*(f"x{i+1}" for i in range(n)))
    text = " + ".join(f"x{i+1}^{degree}" for i in range(n))
    return parse_polynomial(text, vars=vs, field=field)


# ------------------------------------------------------------ jacobian ideal


def test_jacobian_ideal_generators_frozen():
    idl = jacobian_ideal(CUBIC)
    got = [str(g) for g in idl.generators]
    assert got == [
        "x*y^2 + z^3 + y*t^2",
        "y^2",
        "2*x*y + t^2",
        "3*z^2",
        "2*y*t",
    ]


def test_jacobian_ideal_keeps_f_when_euler_fails():
    """In characteristic p dividing deg f the partials can miss f itself."""
    f = parse_polynomial("x^3 + y^3", vars=varset("x", "y"), field=Fp(3))
    idl = jacobian_ideal(f)
    assert str(idl.generators[0]) == "x^3 + y^3"
    # all partials vanish identically here, so dropping f would make the
    # singular locus the whole plane instead of the cusp locus
    assert all(g.is_zero() for g in idl.generators[1:])


# ------------------------------------------------------------------- codim


def test_codim_quadric():
    f = parse_polynomial("x^2 + y*z", vars=varset("x", "y", "z"))
    assert codim_sing(f) == 3


def test_codim_cubic_is_three():
    assert codim_sing(CUBIC) == 3
    idl = jacobian_ideal(CUBIC)
    gb = buchberger(idl)
    assert staircase_dimension(gb.leading_monomials(), len(gb.vars)) == 1


def test_codim_fermat_cubic_five_vars():
    assert codim_sing(fermat(3, 5)) == 5


def test_codim_empty_singular_locus_sentinel():
    # f and f' share no root: Sing is empty, reported as n + 1
    f = parse_polynomial("x^3 + x", vars=varset("x"))
    assert codim_sing(f) == 2


def test_codim_invariant_under_linear_substitution(rng):
    """Sample of the full 20-change sweep run by the acceptance suite."""
    gens = poly_ring(XYZT, QQ)
    for _ in range(5):
        mat = random_invertible(QQ, 4, rng, size=7)
        images = []
        for i in range(4):
            acc = Polynomial.zero(XYZT, QQ)
            for j in range(4):
                if mat[i][j] != QQ.zero:
                    acc = acc + gens[j].scale(mat[i][j])
            images.append(acc)
        g = CUBIC.substitute_affine(images)
        assert codim_sing(g) == 3


# -------------------------------------------------------------- certificates


def test_certificate_fermat_five():
    cert = certify_lower_bound(fermat(3, 5))
    assert cert.applicable
    assert cert.codim == 5
    assert cert.bound == 6
    assert cert.reason is None
    assert cert.degree == 3


def test_certificate_cubic_not_applicable():
    cert = certify_lower_bound(CUBIC)
    assert not cert.applicable
    assert cert.bound is None
    assert cert.codim == 3
    assert "codim 3" in cert.reason


def test_certificate_low_degree_not_applicable():
    f = parse_polynomial("x^2 + y*z", vars=varset("x", "y", "z"))
    cert = certify_lower_bound(f)
    assert not cert.applicable
    assert "degree 2" in cert.reason


def test_certificate_inhomogeneous_not_applicable():
    f = parse_polynomial("x^3 + x", vars=varset("x", "y", "z", "t", "u"))
    cert = certify_lower_bound(f)
    assert not cert.applicable
    assert cert.reason == "not homogeneous"


def test_certificate_bound_iff_preconditions():
    cases = [
        fermat(3, 5),
        fermat(3, 6),
        CUBIC,
        parse_polynomial("x^2 + y*z", vars=varset("x", "y", "z")),
    ]
    for f in cases:
        cert = certify_lower_bound(f)
        expected_applicable = (
            f.is_homogeneous() and f.degree() > 2 and cert.codim > 4
        )
        assert cert.applicable == expected_applicable
        if cert.applicable:
            assert cert.bound == cert.codim + 1
        else:
            assert cert.reason


def test_certificate_json_shape():
    cert = certify_lower_bound(fermat(3, 5))
    data = cert.to_json(deterministic=True)
    assert data["bound"] == 6
    assert data["statement"] == "dc(f) >= 6"
    assert "wall_time" not in data
    assert len(data["input_hash"]) == 64
    data2 = certify_lower_bound(fermat(3, 5)).to_json(deterministic=True)
    assert data == data2


# ------------------------------------------------------------ linear ideals


def in_linear_ideal(p, forms):
    """Membership in the ideal of the linear forms, as analyze_expression tests it."""
    return normal_form(p, buchberger(Ideal(p.vars, p.field, tuple(forms)))).is_zero()


def test_linear_span_and_membership():
    vs = varset("x", "y", "z")
    x, y, z = poly_ring(vs, QQ)
    forms = [x + y, y]

    def in_square(p):  # p and each of its partials in I, as analyze_expression checks
        return in_linear_ideal(p, forms) and all(
            in_linear_ideal(p.partial_derivative(i), forms) for i in range(len(vs)))

    assert in_linear_ideal(x * z + y * z, forms)  # (x + y) z
    assert not in_linear_ideal(z * z, forms)
    assert in_square((x + y) * y)
    assert not in_square((x + y) * z)
    # the reduced basis of linear forms is their reduced row echelon form
    assert set(buchberger(Ideal(vs, QQ, (x + y, y))).polys) == {x, y}
    assert set(buchberger(Ideal(vs, QQ, (x + y + z, 2 * y - z))).polys) == {
        x + parse_polynomial("3/2*z", vars=vs), y - parse_polynomial("1/2*z", vars=vs)}
    assert not in_linear_ideal(x, []) and in_linear_ideal(Polynomial.zero(vs, QQ), [])


# ------------------------------------------------------------------ isotropy


def test_isotropic_examples():
    F = QQ
    # 4 = 2(m-1) coordinates for m = 3; Q = w1 w3 + w2 w4
    iso, dim = isotropic_dimension([[1, 0, 0, 0], [0, 1, 0, 0]], F)
    assert iso and dim == 2
    iso, dim = isotropic_dimension([[1, 0, 0, 0], [0, 0, 1, 0]], F)
    assert not iso and dim == 2
    iso, dim = isotropic_dimension([], F)
    assert iso and dim == 0
    iso, dim = isotropic_dimension([[1, 0, 1, 0]], F)
    assert not iso and dim == 1
    # Q vanishes on both vectors; only the polar term w_2 v_4 = 1 pairs them
    iso, dim = isotropic_dimension([[1, 0, 0, 1], [0, 1, 0, 0]], F)
    assert not iso and dim == 2
    with pytest.raises(ValueError):
        isotropic_dimension([[1, 0, 0]], F)


def test_isotropy_char2_uses_the_form_not_polarization():
    F = Fp(2)
    # Q(1,1) = 1 although the polarized form vanishes on the diagonal
    iso, dim = isotropic_dimension([[1, 1]], F)
    assert not iso
    iso, dim = isotropic_dimension([[1, 0]], F)
    assert iso and dim == 1


def test_no_three_dimensional_isotropic_subspace_f3():
    """Exhaustive check in F_3^4 under the hyperbolic form.

    Three-dimensional subspaces are kernels of nonzero functionals; the
    brute oracle checks Q on every vector of the span.
    """
    F = Fp(3)

    def q(v):
        return (v[0] * v[2] + v[1] * v[3]) % 3

    functionals = set()
    for a in itertools.product(range(3), repeat=4):
        if any(a):
            # normalize the first nonzero entry to 1 so each hyperplane
            # appears once
            first = next(x for x in a if x)
            inv = pow(first, 1, 3) and (1 if first == 1 else 2)
            functionals.add(tuple((x * inv) % 3 for x in a))
    assert len(functionals) == 40
    for a in functionals:
        kernel = [
            v
            for v in itertools.product(range(3), repeat=4)
            if sum(x * y for x, y in zip(a, v)) % 3 == 0
        ]
        basis_rows, pivots = linalg.rref(F, [list(v) for v in kernel])
        basis = basis_rows[: len(pivots)]
        assert len(basis) == 3
        iso, dim = isotropic_dimension(basis, F)
        assert dim == 3
        brute_iso = all(q(v) == 0 for v in kernel)
        assert iso == brute_iso
        assert not iso


# ---------------------------------------------------------------- avoidance


def test_avoidance_exact_negative_with_small_codim():
    mapping, target = catalog_get("quadric_2x2")
    report = check_avoids_singular_locus(mapping, target, mode="exact")
    # rank <= 0 locus is the common zero of all four entries, which is x=y=z=0
    assert report.avoids is False
    assert report.codim == 3
    assert report.precondition_holds is False
    assert report.size == 2


def test_avoidance_probabilistic_witness_for_zero_column():
    vs = varset("x", "y", "z")
    zero = Polynomial.zero(vs, QQ)
    x, y, z = poly_ring(vs, QQ)
    rows = [
        (x, zero, zero),
        (y, zero, zero),
        (z, zero, zero),
    ]
    mapping = AffineMatrixMap(vs, QQ, tuple(rows))
    target = symbolic_det(mapping)
    report = check_avoids_singular_locus(
        mapping, target, mode="probabilistic", trials=20
    )
    # two all-zero columns force rank <= 1 = m - 2 at every point
    assert report.avoids is False
    assert report.witness_point is not None
    pt = list(report.witness_point)
    assert linalg.mat_rank(QQ, mapping.evaluate(pt)) <= 1


@pytest.mark.parametrize("field, ran", [(QQ, 8), (Fp(7), 3)])
def test_avoidance_probabilistic_reports_the_trials_it_ran(field, ran):
    """A run that stops at a witness reports the trials it ran, as
    verify_expression does, not the number requested."""
    vs = varset("x", "y")
    zero = Polynomial.zero(vs, field)
    x, _ = poly_ring(vs, field)
    mapping = AffineMatrixMap(vs, field, ((x, zero), (zero, zero)))
    report = check_avoids_singular_locus(
        mapping, symbolic_det(mapping), mode="probabilistic", trials=1000)
    # the rank drops to 0 = m - 2 exactly where x = 0
    assert report.avoids is False
    assert report.witness_point[0] == 0
    assert report.trials == ran
    assert report.to_json()["trials"] == ran


@pytest.mark.parametrize("field", [QQ, Fp(101)], ids=str)
def test_avoid_check_points_lie_in_the_sample_range(field, monkeypatch):
    """The check's own points, after its verification run's, are drawn from
    field.sample_range(128), both ends included; so is a witness."""
    mapping, target = catalog_get("grenet_perm_3", field=field)
    draws = record_draws(monkeypatch, field)
    report = check_avoids_singular_locus(mapping, target, mode="probabilistic", trials=200, seed=3)
    assert report.avoids is None and report.trials == 200
    assert len(draws) == 200 + 200  # the verification runs max(trials, 64) trials first
    assert all(all(x in r for x in point) for r, point in draws)
    assert draws[0][0] == field.sample_range(64)
    r = draws[-1][0]
    assert r == field.sample_range(128) and all(range_ is r for range_, _ in draws[200:])
    coords = [x for _, point in draws[200:] for x in point]
    assert min(coords) == r[0] and max(coords) == r[-1]
    # the rank drops to 0 = m - 2 where x = 0
    vs = varset("x", "y")
    zero = Polynomial.zero(vs, field)
    x, _ = poly_ring(vs, field)
    mapping = AffineMatrixMap(vs, field, ((x, zero), (zero, zero)))
    del draws[:]
    report = check_avoids_singular_locus(mapping, symbolic_det(mapping), mode="probabilistic",
                                         trials=1000)
    assert report.avoids is False
    r, point = draws[-1]
    assert report.witness_point == tuple(map(field.of, point))
    assert all(x in r for x in report.witness_point)


def test_avoidance_probabilistic_clean_run_is_inconclusive():
    mapping, target = catalog_get("grenet_perm_3", field=Fp(32003))
    report = check_avoids_singular_locus(
        mapping, target, mode="probabilistic", trials=200, seed=3
    )
    assert report.avoids is None
    assert report.trials == 200
    assert report.witness_point is None
    assert report.rank_constant == 6
    assert report.rank_constant_ok


def test_avoidance_exact_and_probabilistic_never_contradict():
    mapping, target = catalog_get("quadric_2x2")
    exact = check_avoids_singular_locus(mapping, target, mode="exact")
    prob = check_avoids_singular_locus(
        mapping, target, mode="probabilistic", trials=500, seed=1
    )
    if prob.avoids is False:
        assert exact.avoids is False


# ------------------------------------------------------------------ analysis


def test_analysis_grenet_corank_one_all_checks_pass():
    mapping, target = catalog_get("grenet_perm_3")
    report = analyze_expression(mapping, target)
    assert report.branch == "corank_one"
    assert report.rank == mapping.size - 1
    assert report.z11_zero
    assert report.quadric_relation_zero
    assert report.jacobian_in_ideal
    assert report.f_in_ideal_square
    assert report.image_isotropic
    assert report.dim_bound_ok
    assert report.dim_image <= mapping.size - 1
    assert report.all_proof_checks_pass()
    # the span of the border forms bounds the singular-locus codimension
    assert report.codim_upper_bound == report.dim_image
    assert report.codim_upper_bound <= mapping.size - 1
    assert codim_sing(perm_polynomial(3)) <= report.codim_upper_bound


def test_analysis_lower_rank_branch():
    mapping, target = catalog_get("cubic_5x5")
    report = analyze_expression(mapping, target)
    assert report.branch == "lower_rank"
    assert report.rank < mapping.size - 1
    lo, hi = report.possible_degree_window
    assert lo == mapping.size - report.rank
    assert hi == mapping.size
    degrees = [d for d, _ in report.graded_parts]
    assert all(lo <= d <= hi for d in degrees if d >= 0)
    assert report.window_consistent
    assert not report.all_proof_checks_pass()


def _rank_zero_diagonal():
    """diag(x, x, x) with its determinant x^3: constant part of rank 0."""
    vs = varset("x")
    x = parse_polynomial("x", vars=vs)
    diag = AffineMatrixMap(
        vs,
        QQ,
        tuple(
            tuple(x if i == j else Polynomial.zero(vs, QQ) for j in range(3))
            for i in range(3)
        ),
    )
    return diag, parse_polynomial("x^3", vars=vs)


def _scaled_cubic_5x5():
    """cubic_5x5 with a constant row scaled by 3: a lower-rank map whose
    normalization scalar is 1/3, not 1."""
    mapping, target = catalog_get("cubic_5x5")
    return scale_row(mapping, 2, 3), target.scale(3)


def test_analysis_rank_zero_diagonal():
    report = analyze_expression(*_rank_zero_diagonal())
    assert report.branch == "lower_rank"
    assert report.rank == 0
    assert report.window_consistent
    degrees = [d for d, _ in report.graded_parts]
    assert degrees == [3]


def test_analysis_scalar_matches_normalization():
    """The report's rank and scalar are those of rank_normal_decomposition:
    det(P L Q) = scalar * det(L), and the lower-rank graded part is that
    determinant, f.scale(scalar)."""
    for mapping, target in (catalog_get("grenet_perm_3"), catalog_get("cubic_5x5"),
                            _rank_zero_diagonal(), _scaled_cubic_5x5()):
        report = analyze_expression(mapping, target)
        field, m = mapping.field, mapping.size
        P, Q, r = linalg.rank_normal_decomposition(field, mapping.constant_part())
        assert report.rank == r
        assert report.scalar == field.of(linalg.mat_det(field, P) * linalg.mat_det(field, Q))
        zero = Polynomial.zero(mapping.vars, field)
        normalized = AffineMatrixMap.from_rows(mapping.vars, field, [[
            sum((mapping.entries[k][l].scale(field.of(P[i][k] * Q[l][j]))
                 for k in range(m) for l in range(m)), zero)
            for j in range(m)] for i in range(m)])
        lhs = symbolic_det(normalized)
        rhs = symbolic_det(mapping).scale(report.scalar)
        assert lhs == rhs
        if report.branch == "lower_rank":
            # the graded part is f.scale(scalar), which this identity licenses
            assert report.graded_parts == ((lhs.degree(), lhs),)
