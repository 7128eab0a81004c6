"""Exhaustive expression search over small prime fields."""

import itertools

import pytest

from detcomp.fields import QQ, Fp
from detcomp.matmap import AffineMatrixMap, symbolic_det, verify_expression
from detcomp.poly import Polynomial, varset
from detcomp.search import (
    DcResult,
    EnumerationCapError,
    SearchReport,
    SearchSpec,
    dc_exact,
    enumerate_all_expressions,
    rank_order,
    search_expressions,
    search_report,
)

F2 = Fp(2)
F3 = Fp(3)
XY = varset("x", "y")


def poly(text, vars=XY, field=F2):
    return Polynomial.parse(text, vars=vars, field=field)


# ---------------------------------------------------------------------- spec


def test_rank_order_prefers_corank_one():
    assert rank_order(3) == [2, 3, 1, 0]
    assert rank_order(1) == [0, 1]


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(Polynomial.parse("x*y", vars=XY, field=QQ), 2)
    with pytest.raises(ValueError):
        SearchSpec(poly("x*y"), 0)


def test_spec_rejects_a_negative_candidate_cap():
    # a ValueError that is not an EnumerationCapError, so the CLI exits 2, not 3
    with pytest.raises(ValueError, match="max_candidates") as exc:
        SearchSpec(poly("x*y"), 2, max_candidates=-1)
    assert not isinstance(exc.value, EnumerationCapError)


def test_viable_ranks_use_the_degree_window():
    # min degree of the target bounds the constant rank from below:
    # graded parts of det(J_r + Z) live in [m - r, m]
    spec = SearchSpec(poly("x*y"), 2)
    assert spec.viable_ranks() == [1, 2, 0]
    spec_lin = SearchSpec(poly("x"), 2)
    assert spec_lin.viable_ranks() == [1, 2]
    spec_zero = SearchSpec(Polynomial.zero(XY, F2), 2)
    assert spec_zero.viable_ranks() == rank_order(2)


def test_estimate_and_cap_refusal():
    target = poly("x*y")
    spec = SearchSpec(target, 2)
    assert spec.estimate() == 3 * 2 ** (4 * 2)
    with pytest.raises(EnumerationCapError) as ei:
        SearchSpec(target, 2, max_candidates=10)
    assert ei.value.estimate == 3 * 2 ** (4 * 2)
    assert ei.value.cap == 10
    # the refusal is a ValueError subclass so CLI mapping stays simple
    assert isinstance(ei.value, ValueError)


# -------------------------------------------------------------------- search


def test_search_finds_diagonal_witness_for_xy():
    spec = SearchSpec(poly("x*y"), 2)
    x = poly("x")
    y = poly("y")
    zero = Polynomial.zero(XY, F2)
    diag = AffineMatrixMap(XY, F2, ((x, zero), (zero, y)))
    hits = list(search_expressions(spec))
    assert any(w.entries == diag.entries for w in hits)
    # soundness: every streamed witness has determinant exactly x*y
    for w in hits:
        assert symbolic_det(w) == poly("x*y")


def test_search_is_deterministic():
    spec = SearchSpec(poly("x*y"), 2)
    a = [str(w) for w in search_expressions(spec)]
    b = [str(w) for w in search_expressions(SearchSpec(poly("x*y"), 2))]
    assert a == b
    assert len(a) >= 1


def test_degree_bound_exhausts_without_enumeration():
    report = SearchReport(SearchSpec(poly("x^3", varset("x")), 2))
    hits = list(search_expressions(report.spec, report))
    assert hits == []
    assert report.exhausted
    assert report.full_evaluations == 0
    assert report.ranks_searched == ()


def test_search_report_summary():
    spec = SearchSpec(poly("x*y"), 2)
    report = search_report(spec)
    assert report.exhausted
    assert len(report.found) >= 1
    assert report.full_evaluations > 0
    data = report.to_json()
    assert data["found_count"] == len(report.found)
    assert data["field"] == {"Fp": 2}
    early = search_report(SearchSpec(poly("x*y"), 2), max_found=1)
    assert len(early.found) == 1
    assert not early.exhausted


def test_restricted_search_is_lossless_on_f2_2x2():
    """The rank-canonical search realizes exactly the unrestricted set.

    Unrestricted: all 2^12 affine 2x2 maps over F_2 in two variables, their
    determinants collected directly. Restricted: one search per candidate
    target. The two realizable sets must coincide.
    """
    realizable = set()
    space = list(itertools.product(range(2), repeat=3))
    entries = {}
    for coeffs in itertools.product(space, repeat=4):
        grid = []
        for k in range(0, 4, 2):
            row = []
            for l in range(2):
                c = coeffs[k + l]
                key = c
                if key not in entries:
                    entries[key] = Polynomial.from_dict(
                        XY, F2, {(1, 0): c[0], (0, 1): c[1], (0, 0): c[2]}
                    )
                row.append(entries[key])
            grid.append(tuple(row))
        det = symbolic_det(AffineMatrixMap(XY, F2, tuple(grid)))
        realizable.add(det)
    assert len(realizable) == 64

    # every degree <= 2 polynomial in two variables over F_2 is a candidate
    exps = [
        (i, j) for i in range(3) for j in range(3) if i + j <= 2
    ]
    found = set()
    for bits in itertools.product(range(2), repeat=len(exps)):
        f = Polynomial.from_dict(XY, F2, dict(zip(exps, bits)))
        spec = SearchSpec(f, 2)
        if any(True for _ in search_expressions(spec)):
            found.add(f)
    assert found == realizable


def test_unrestricted_count_for_xy():
    assert enumerate_all_expressions(poly("x*y"), 2) == 108
    with pytest.raises(EnumerationCapError):
        enumerate_all_expressions(poly("x*y"), 2, cap=10)


# ------------------------------------------------------------------ dc_exact


def test_dc_ground_truths_over_f2():
    res = dc_exact(poly("x*y"), 3)
    assert res.value == 2
    assert res.render() == "2"
    res3 = dc_exact(poly("x^3", varset("x")), 3)
    assert res3.value == 3
    # sizes 1 and 2 are excluded by the degree bound without enumeration
    assert res3.evaluations[0] == (1, 0)
    assert res3.evaluations[1] == (2, 0)


def test_dc_quadric_over_f3():
    f = Polynomial.parse("x^2 + y*z", vars=varset("x", "y", "z"), field=F3)
    res = dc_exact(f, 2)
    assert res.value == 2


def test_dc_linear_and_zero():
    res = dc_exact(poly("x"), 2)
    assert res.value == 1
    zero = Polynomial.zero(XY, F2)
    assert dc_exact(zero, 1).value == 1


def test_dc_not_found_renders_gt():
    res = dc_exact(poly("x^3", varset("x")), 2)
    assert res.value is None
    assert res.capped_at is None
    assert res.render() == "> 2"


def test_dc_cap_reported():
    # m = 1 is excluded by the degree bound, so the cap first fires at m = 2
    res = dc_exact(poly("x*y"), 3, max_candidates=10)
    assert res.value is None
    assert res.capped_at == 2
    assert res.render() == "cap at m = 2"
    data = res.to_json()
    assert data["capped_at"] == 2
    assert data["value"] is None


@pytest.mark.parametrize("m_max, max_candidates, message", [
    (0, 10, "m_max"),
    (-2, 10, "m_max"),
    (2, -1, "max_candidates"),
])
def test_dc_rejects_out_of_range_bounds(m_max, max_candidates, message):
    # x^3 is decided by the degree bound alone up to m = 2, so no SearchSpec
    # is built and dc_exact must check the bounds itself
    with pytest.raises(ValueError, match=message):
        dc_exact(poly("x^3", varset("x")), m_max, max_candidates=max_candidates)


@pytest.mark.parametrize("text, vars, field, m_max, value", [
    ("x*y", XY, F2, 3, 2),
    ("x", XY, F2, 2, 1),
    ("x^2 + y*z", varset("x", "y", "z"), F3, 2, 2),
    ("x^3", varset("x"), F2, 3, 3),
])
def test_dc_witness_reverifies_exactly(text, vars, field, m_max, value):
    f = poly(text, vars, field)
    res = dc_exact(f, m_max)
    assert res.value == value
    assert res.witness.size == value
    assert verify_expression(res.witness, f, mode="exact").ok
    # the first witness of the winning size, as a fresh search streams it
    assert res.witness == next(search_expressions(SearchSpec(f, value)))
    assert dc_exact(poly("x^3", varset("x")), 2).witness is None
