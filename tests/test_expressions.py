"""Branching programs, the expression catalog, and coefficient equations."""

import random

import pytest

from detcomp import expressions
from detcomp.expressions import (
    ABP,
    ParamTemplate,
    abp_to_determinant,
    catalog_get,
    cubic_case_analysis,
    cubic_rank3_template,
    extract_coefficient_equations,
    grenet_abp,
)
from detcomp.fields import QQ, FieldMismatchError, Fp
from detcomp.matmap import det_berkowitz, perm_polynomial, symbolic_det, verify_expression
from detcomp.parsing import parse_polynomial
from detcomp.poly import Polynomial, varset
from support import random_polynomial

SIX_EQUATIONS = (
    "x*y^2: beta*X23 - gamma*X43 = 1",
    "x*y*z: beta*X22 - beta*X33 - gamma*X42 - alpha*X43 = 0",
    "x*z^2: -beta*X32 - alpha*X42 = 0",
    "x*y*t: alpha*X23 + beta*X24 + gamma*X33 - gamma*X44 = 0",
    "x*z*t: alpha*X22 + gamma*X32 - beta*X34 - alpha*X44 = 0",
    "x*t^2: alpha*X24 + gamma*X34 = 0",
)


def vertex_count(abp):
    return sum(len(layer) for layer in abp.layers)


def brute_path_sum(abp):
    """Independent oracle: recursive enumeration of source-sink paths."""
    by_tail: dict = {}
    for layer, i, j, label in abp.edges:
        by_tail.setdefault((layer, i), []).append((j, label))

    one = Polynomial.const(abp.vars, abp.field, 1)
    total = Polynomial.zero(abp.vars, abp.field)
    last = len(abp.layers) - 1

    def walk(layer, i, product):
        nonlocal total
        if layer == last:
            total = total + product
            return
        for j, label in by_tail.get((layer, i), []):
            walk(layer + 1, j, product * label)

    walk(0, 0, one)
    return total


# ----------------------------------------------------------------------- ABP


def test_abp_validation():
    vs = varset("x")
    x = parse_polynomial("x", vars=vs)
    with pytest.raises(ValueError):
        ABP(vs, QQ, (("s",),), ())
    with pytest.raises(ValueError):
        ABP(vs, QQ, (("s", "extra"), ("t",)), ())
    with pytest.raises(ValueError):
        ABP(vs, QQ, (("s",), ("t",)), ((0, 0, 0, x * x),))
    with pytest.raises(ValueError):
        ABP(vs, QQ, (("s",), ("t",)), ((1, 0, 0, x),))


def test_path_sum_single_edge():
    vs = varset("x")
    x = parse_polynomial("x", vars=vs)
    abp = ABP(vs, QQ, (("s",), ("t",)), ((0, 0, 0, x),))
    assert abp.path_sum() == x
    assert vertex_count(abp) == 2


def test_path_sum_matches_brute_enumeration(rng):
    """Random layered programs against the recursive oracle."""
    vs = varset("x", "y", "z")
    field = Fp(7)
    for _ in range(15):
        widths = [1] + [rng.randint(1, 3) for _ in range(rng.randint(1, 3))] + [1]
        layers = tuple(
            tuple(f"v{k}_{i}" for i in range(w)) for k, w in enumerate(widths)
        )
        edges = []
        for k in range(len(widths) - 1):
            for i in range(widths[k]):
                for j in range(widths[k + 1]):
                    if rng.random() < 0.7:
                        edges.append(
                            (k, i, j, random_polynomial(vs, field, rng, degree=1, terms=2))
                        )
        abp = ABP(vs, field, layers, tuple(edges))
        assert abp.path_sum() == brute_path_sum(abp)


# ---------------------------------------------------------------- subset ABP


def test_grenet_abp_two():
    abp = grenet_abp(2)
    assert vertex_count(abp) == 4
    assert len(abp.edges) == 4
    # two paths, products x11*x22 and x12*x21
    assert abp.path_sum() == perm_polynomial(2)
    assert brute_path_sum(abp) == perm_polynomial(2)


def test_grenet_abp_three_path_sum_is_permanent():
    abp = grenet_abp(3)
    assert vertex_count(abp) == 8
    assert brute_path_sum(abp) == perm_polynomial(3)


def test_grenet_abp_four_shape():
    abp = grenet_abp(4)
    assert vertex_count(abp) == 16
    assert len(abp.layers) == 5
    assert [len(layer) for layer in abp.layers] == [1, 4, 6, 4, 1]


def test_grenet_abp_size_cap():
    with pytest.raises(ValueError):
        grenet_abp(5)
    with pytest.raises(ValueError):
        grenet_abp(0)


# ------------------------------------------------------------- determinants


def test_abp_to_determinant_single_edge():
    vs = varset("x")
    x = parse_polynomial("x", vars=vs)
    abp = ABP(vs, QQ, (("s",), ("t",)), ((0, 0, 0, x),))
    mapping = abp_to_determinant(abp)
    assert mapping.size == 1
    assert symbolic_det(mapping) == x


def test_abp_to_determinant_parallel_paths():
    vs = varset("a", "b", "c", "d")
    a, b, c, d = (parse_polynomial(n, vars=vs) for n in ("a", "b", "c", "d"))
    abp = ABP(
        vs,
        QQ,
        (("s",), ("u", "v"), ("t",)),
        ((0, 0, 0, a), (0, 0, 1, c), (1, 0, 0, b), (1, 1, 0, d)),
    )
    mapping = abp_to_determinant(abp)
    assert mapping.size == 3
    assert symbolic_det(mapping) == parse_polynomial("a*b + c*d", vars=vs)


def test_abp_to_determinant_random_agrees_with_path_sum(rng):
    vs = varset("x", "y")
    field = Fp(11)
    checked = 0
    for _ in range(12):
        widths = [1] + [rng.randint(1, 2) for _ in range(rng.randint(1, 2))] + [1]
        layers = tuple(
            tuple(f"v{k}_{i}" for i in range(w)) for k, w in enumerate(widths)
        )
        edges = []
        for k in range(len(widths) - 1):
            for i in range(widths[k]):
                for j in range(widths[k + 1]):
                    if rng.random() < 0.8:
                        edges.append(
                            (k, i, j, random_polynomial(vs, field, rng, degree=1, terms=2))
                        )
        abp = ABP(vs, field, layers, tuple(edges))
        mapping = abp_to_determinant(abp)
        assert mapping.size == vertex_count(abp) - 1
        assert symbolic_det(mapping) == abp.path_sum()
        checked += 1
    assert checked == 12


def test_abp_sign_rule_negates_source_row_without_a_determinant(monkeypatch):
    """source -x-> v -y-> sink converts to [[0, x], [y, 1]], determinant -x*y;
    with two layers of edges the source row is negated, and no determinant
    is computed to decide it."""
    vs = varset("x", "y")
    x, y = (Polynomial.variable(vs, QQ, i) for i in range(2))
    zero, one = Polynomial.zero(vs, QQ), Polynomial.const(vs, QQ, 1)
    abp = ABP(vs, QQ, (("s",), ("v",), ("t",)), ((0, 0, 0, x), (1, 0, 0, y)))
    assert abp.path_sum() == x * y
    monkeypatch.setattr(expressions, "symbolic_det", lambda *args: pytest.fail("determinant computed"))
    mapping = abp_to_determinant(abp)
    assert mapping.entries == ((zero, -x), (y, one))
    assert det_berkowitz(mapping.entries) == abp.path_sum()


@pytest.mark.parametrize("field", [QQ, Fp(2), Fp(3), Fp(32003)], ids=str)
def test_abp_sign_rule_reproduces_the_path_sum(field):
    """det(abp_to_determinant(abp)) == path-sum on random layered programs
    with 1 to 5 layers of edges, both parities of the sign (-1)^(L-1); where
    the path-sum is 0 the source row is negated all the same when L is even."""
    rng = random.Random(field.char + 30)
    vs = varset("x", "y", "z")
    lengths = set()
    for _ in range(40):
        widths = [1] + [rng.randint(1, 3) for _ in range(rng.randint(0, 4))] + [1]
        layers = tuple(tuple(f"v{k}_{i}" for i in range(w)) for k, w in enumerate(widths))
        edges = tuple((k, i, j, random_polynomial(vs, field, rng, degree=1, terms=2))
                      for k in range(len(widths) - 1)
                      for i in range(widths[k]) for j in range(widths[k + 1])
                      if rng.random() < 0.7)
        abp = ABP(vs, field, layers, edges)
        mapping = abp_to_determinant(abp)
        assert det_berkowitz(mapping.entries) == abp.path_sum() == brute_path_sum(abp)
        length = len(layers) - 1
        lengths.add(length)
        source_row = [Polynomial.zero(vs, field)] * mapping.size
        for layer, i, j, label in edges:
            if layer == 0:
                v = 0 if length == 1 else 1 + j
                source_row[v] = source_row[v] + label
        want = [-entry for entry in source_row] if length % 2 == 0 else source_row
        assert list(mapping.entries[0]) == want
    assert lengths == {1, 2, 3, 4, 5}


def test_grenet_determinant_sizes_and_exactness():
    for n, size in ((2, 3), (3, 7)):
        mapping = abp_to_determinant(grenet_abp(n))
        assert mapping.size == size == 2**n - 1
        report = verify_expression(mapping, perm_polynomial(n))
        assert report.ok


# ------------------------------------------------------------------ catalog


def test_catalog_entries_verify():
    for name in ("cubic_5x5", "quadric_2x2", "grenet_perm_2", "grenet_perm_3"):
        mapping, target = catalog_get(name)
        assert verify_expression(mapping, target).ok


def test_catalog_cubic_target():
    mapping, target = catalog_get("cubic_5x5")
    assert mapping.size == 5
    assert target == parse_polynomial(
        "x*y^2 + y*t^2 + z^3", vars=varset("x", "y", "z", "t")
    )
    assert symbolic_det(mapping) == target


def test_catalog_over_prime_field():
    mapping, target = catalog_get("quadric_2x2", field=Fp(3))
    assert mapping.field == Fp(3)
    assert verify_expression(mapping, target).ok


def test_catalog_unknown_name():
    with pytest.raises(KeyError):
        catalog_get("octic_9x9")


# ------------------------------------------------------- coefficient systems


def test_template_validation():
    main = varset("x")
    params = varset("x")  # collides with main
    one = Polynomial.const(varset("x", "x2"), QQ, 1)
    with pytest.raises(ValueError):
        ParamTemplate(main, params, QQ, ((one,),))
    main = varset("x")
    params = varset("c")
    combined = varset("x", "c")
    bad_main = parse_polynomial("x^2", vars=combined)
    with pytest.raises(ValueError):
        ParamTemplate(main, params, QQ, ((bad_main,),))
    bad_param = parse_polynomial("c^2", vars=combined)
    with pytest.raises(ValueError):
        ParamTemplate(main, params, QQ, ((bad_param,),))


def test_template_grid_must_be_a_square_over_the_combined_ring():
    main, params, combined = varset("x"), varset("c"), varset("x", "c")
    entry = parse_polynomial("c*x", vars=combined)
    for entries in ((), ((entry, entry),), ((entry,), (entry,))):
        with pytest.raises(ValueError):
            ParamTemplate(main, params, QQ, entries)
    # an entry over another field, and one over the main block alone
    for foreign in (parse_polynomial("c*x", vars=combined, field=Fp(7)),
                    parse_polynomial("x", vars=main)):
        with pytest.raises(FieldMismatchError):
            ParamTemplate(main, params, QQ, ((foreign,),))


def test_one_by_one_template_equation():
    main = varset("x")
    params = varset("c")
    combined = varset("x", "c")
    entry = parse_polynomial("c*x", vars=combined)
    template = ParamTemplate(main, params, QQ, ((entry,),))
    target = parse_polynomial("2*x", vars=main)
    eqs = extract_coefficient_equations(template, target)
    rendered = [eq.render() for eq in eqs if not eq.residual().is_zero()]
    assert rendered == ["x: c = 2"]


def test_unreachable_target_monomial_surfaces():
    main = varset("x", "y")
    params = varset("c")
    combined = varset("x", "y", "c")
    entry = parse_polynomial("c*x", vars=combined)
    template = ParamTemplate(main, params, QQ, ((entry,),))
    target = parse_polynomial("y", vars=main)
    eqs = extract_coefficient_equations(template, target)
    # the y equation is 0 = 1: no parameter choice can produce y
    y_eq = [eq for eq in eqs if eq.monomial == (0, 1)]
    assert len(y_eq) == 1
    assert y_eq[0].lhs.is_zero() and y_eq[0].rhs == QQ.of(1)


def test_ring_mismatch_rejected():
    template, target = cubic_rank3_template()
    wrong = parse_polynomial("x", vars=varset("x"))
    with pytest.raises(FieldMismatchError):
        extract_coefficient_equations(template, wrong)


def test_six_equations_regenerate_exactly():
    template, target = cubic_rank3_template()
    from detcomp.expressions import _deg3_x1

    eqs = extract_coefficient_equations(template, target, monomial_filter=_deg3_x1)
    assert tuple(eq.render() for eq in eqs) == SIX_EQUATIONS
    assert len(template.param_vars) == 12


def test_cubic_template_shape():
    template, target = cubic_rank3_template()
    grid = template.entries
    combined = template.combined_vars
    assert str(grid[0][0]) == "0"
    assert str(grid[0][1]) == "t*alpha + y*beta"
    assert str(grid[0][2]) == "-z*beta + t*gamma"
    assert str(grid[0][3]) == "-z*alpha - y*gamma"
    assert [str(grid[i][0]) for i in (1, 2, 3)] == ["z", "y", "t"]
    # rank-3 constant part: ones on the trailing diagonal
    for i in (1, 2, 3):
        assert grid[i][i].constant_term() == QQ.of(1)
    full, _ = cubic_rank3_template(include_lower_coeffs=True)
    assert len(full.param_vars) == 39


# ------------------------------------------------------------- case analysis


def test_case_analysis_six_equation_verdicts():
    report = cubic_case_analysis(include_full=False)
    assert report.six_equations == SIX_EQUATIONS
    by_case = {v.case: v.status for v in report.six_verdicts}
    assert by_case == {
        "unrestricted": "feasible",
        "alpha_nonzero": "infeasible",
        "gamma_zero": "feasible",
    }
    assert report.abg_zero_infeasible
    # the displayed six equations alone do NOT force alpha = 0, gamma != 0:
    # they admit solutions with alpha = gamma = 0, so the comparison reports
    # a mismatch rather than assuming the statement
    assert report.six_matches_claim is False
    assert report.full_matches_claim is None
    assert report.complete_matches_claim is None
    assert report.complete_verdicts == ()


def test_case_analysis_json_round():
    report = cubic_case_analysis(include_full=False)
    data = report.to_json()
    assert data["six_equations"] == list(SIX_EQUATIONS)
    assert {v["case"] for v in data["six_verdicts"]} == {
        "unrestricted",
        "alpha_nonzero",
        "gamma_zero",
    }
    text = report.render_text()
    assert "alpha = beta = gamma = 0 substitution: infeasible" in text
