"""Exhaustive expression search over small prime fields."""

import itertools
import random

import pytest

from detcomp import matmap, search
from detcomp.fields import QQ, Fp
from detcomp.matmap import AffineMatrixMap, symbolic_det, verify_expression
from detcomp.parsing import parse_polynomial
from detcomp.poly import Polynomial, varset
from detcomp.search import (
    DcResult,
    EnumerationCapError,
    SearchReport,
    SearchSpec,
    _last_row_solutions,
    dc_exact,
    rank_order,
    search_expressions,
    search_report,
)
from support import enumerate_all_expressions

F2 = Fp(2)
F3 = Fp(3)
XY = varset("x", "y")


def poly(text, vars=XY, field=F2):
    return parse_polynomial(text, vars=vars, field=field)


# A first-row Laplace expansion on raw {exponent: int} dicts, independent of
# matmap's determinants, for the reference walks below.


def _dict_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            val = (out.get(key, 0) + ca * cb) % p
            if val:
                out[key] = val
            else:
                out.pop(key, None)
    return out


def _dict_det(grid, p: int) -> dict:
    """First-row Laplace expansion over dict entries; grid is small."""
    m = len(grid)
    if m == 1:
        return dict(grid[0][0])
    out: dict = {}
    for j in range(m):
        entry = grid[0][j]
        if not entry:
            continue
        minor = [[row[k] for k in range(m) if k != j] for row in grid[1:]]
        sub = _dict_det(minor, p)
        sign = -1 if j % 2 else 1
        for e, c in _dict_mul(entry, sub, p).items():
            val = (out.get(e, 0) + sign * c) % p
            if val:
                out[e] = val
            else:
                out.pop(e, None)
    return out


def _tuple_to_dict(coeffs, n: int) -> dict:
    """The linear form with coefficient tuple coeffs, as a dict."""
    return {tuple(int(k == i) for k in range(n)): c for i, c in enumerate(coeffs) if c}


def _dict_grid_to_polys(grid, vars, field):
    return [[Polynomial.from_dict(vars, field, d) for d in row] for row in grid]


def _proportional(det: dict, target: dict, pin, key, key_inv: int, p: int):
    """Scalar c with det == c*target (c != 0), honoring a pinned value.

    Returns the scalar, or None when no nonzero scalar works. A pin of None
    means the scalar is still free; it is then det[key] / target[key], with
    key_inv = 1 / target[key] computed once per target by the caller.
    """
    if not target:
        return None  # caller handles the zero target separately
    if pin is None:
        c = det.get(key)
        if not c:
            return None
        c = c * key_inv % p
    else:
        c = pin
    if len(det) != len(target):
        return None
    for e, coeff in target.items():
        if det.get(e, 0) != coeff * c % p:
            return None
    return c


def reference_search_rank(spec, r, report):
    """The rank loop with one first-row Laplace expansion per candidate, for
    checking the last-row tables: same odometer, same counters, same hits."""
    f = spec.target
    p = f.field.char
    n = len(f.vars)
    m = spec.size
    zero_e = (0,) * n

    target = dict(f.terms)
    lead_key = f.terms[0][0] if f.terms else None
    block = m - r
    low_part = {e: c for e, c in target.items() if sum(e) == block} if target else {}

    tuples = list(itertools.product(range(p), repeat=n))
    dicts = [_tuple_to_dict(t, n) for t in tuples]
    P = len(tuples)

    ul_positions = [(i, j) for i in range(block) for j in range(block)]
    rest_positions = [
        (i, j) for i in range(m) for j in range(m) if not (i < block and j < block)
    ]

    base = [[None] * m for _ in range(m)]
    for i in range(block, m):
        base[i][i] = {zero_e: 1}

    for ul_choice in itertools.product(range(P), repeat=len(ul_positions)):
        grid = [row[:] for row in base]
        for (i, j), ix in zip(ul_positions, ul_choice):
            grid[i][j] = dicts[ix]
        pin = None
        if block > 0:
            det_ul = _dict_det([[grid[i][j] for j in range(block)] for i in range(block)], p)
            if not low_part:
                if det_ul:
                    report.blocks_pruned += 1
                    continue
            else:
                low_key = min(low_part)
                pin = _proportional(det_ul, low_part, None, low_key,
                                    pow(low_part[low_key], p - 2, p), p)
                if pin is None:
                    report.blocks_pruned += 1
                    continue
        else:
            const = target.get(zero_e, 0)
            if not const:
                return
            pin = pow(const, p - 2, p)

        for rest_choice in itertools.product(range(P), repeat=len(rest_positions)):
            for (i, j), ix in zip(rest_positions, rest_choice):
                d = dicts[ix]
                if i == j and j >= block:
                    d = dict(d)
                    d[zero_e] = 1
                grid[i][j] = d
            report.full_evaluations += 1
            det = _dict_det(grid, p)
            if not target:
                if not det:
                    yield _dict_grid_to_polys(grid, f.vars, f.field), 1
                continue
            c = _proportional(det, target, pin, lead_key, pow(target[lead_key], p - 2, p), p)
            if c is not None:
                yield _dict_grid_to_polys(grid, f.vars, f.field), c


# ---------------------------------------------------------------------- spec


def test_rank_order_prefers_corank_one():
    assert rank_order(3) == [2, 3, 1, 0]
    assert rank_order(1) == [0, 1]


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(parse_polynomial("x*y", vars=XY, field=QQ), 2)
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


@pytest.mark.parametrize("max_found", [0, -1])
def test_search_report_rejects_max_found_below_one(max_found):
    with pytest.raises(ValueError, match="max_found"):
        search_report(SearchSpec(poly("x*y"), 2), max_found=max_found)


# The zero target, affine targets that reach the rank-m path, m = 1..3 and
# p = 2, 3, 5; the last entry of each case is max_found (None: every hit).
REFERENCE_CASES = [
    ("0", "xy", 2, 2, None),
    ("0", "x", 3, 2, None),
    ("x + 1", "x", 2, 2, None),
    ("x*y + 1", "xy", 2, 2, None),
    ("x*y + 1", "xy", 3, 2, None),
    ("x*y", "xy", 3, 2, None),
    ("x*y", "xy", 3, 2, 7),
    ("x^2 + y^2", "xy", 3, 2, None),
    ("x", "xy", 5, 1, None),
    ("x + 2", "x", 5, 1, None),
    ("x^2 + x", "x", 5, 2, None),
    ("x^2 + 3", "x", 5, 2, None),
    ("x^3", "x", 2, 3, None),
    ("x^3", "x", 2, 3, 40),
    ("x + 1", "x", 2, 3, None),
    ("x^2 + x", "x", 2, 3, None),
    ("2*x*y", "xy", 3, 2, None),
    ("x^2 + 2*x", "x", 3, 2, None),
    ("3*x + 4*y", "xy", 5, 1, None),
    ("x^2 + x*y + y^2", "xy", 2, 2, 3),  # stops inside the block == m walk
]


@pytest.mark.parametrize("text, names, p, m, max_found", REFERENCE_CASES,
                         ids=[f"{c[0]}-F{c[2]}-m{c[3]}-{c[4]}" for c in REFERENCE_CASES])
def test_search_matches_first_row_reference(monkeypatch, text, names, p, m, max_found):
    f = poly(text, varset(*names), Fp(p))
    fast = search_report(SearchSpec(f, m), max_found)
    monkeypatch.setattr(search, "_search_rank", reference_search_rank)
    ref = search_report(SearchSpec(f, m), max_found)
    assert [str(w) for w in fast.found] == [str(w) for w in ref.found]
    assert fast.found
    assert (fast.full_evaluations, fast.blocks_pruned, fast.ranks_searched, fast.exhausted) == (
        ref.full_evaluations, ref.blocks_pruned, ref.ranks_searched, ref.exhausted)


def test_last_row_solutions_match_brute_force():
    """The solver yields, in order, exactly the (v, c) whose last row gives
    det == c * goal, against the first-row Laplace determinant of every last
    row, on seeded random affine uppers with and without the diagonal one;
    the goal is pinned to one scalar, free over every nonzero scalar, or zero
    with c = 1, and one goal no last row can reach."""
    rng = random.Random(4127)
    for p in (2, 3, 5):
        field = Fp(p)
        for k in (1, 2, 3):
            for offset in (False, True):
                n = rng.choice((1, 2))
                zero_e = (0,) * n
                monos = [zero_e] + [tuple(int(i == l) for i in range(n)) for l in range(n)]

                def entry():
                    return {e: c for e in monos if (c := rng.randrange(p))}

                upper = [[entry() for _ in range(k)] for _ in range(k - 1)]
                polys = _dict_grid_to_polys(upper, varset(*"xy"[:n]), field)
                linear = [_tuple_to_dict(t, n) for t in itertools.product(range(p), repeat=n)]
                columns = [linear] * k
                if offset:
                    columns[-1] = [{**d, zero_e: 1} for d in linear]
                rows = list(itertools.product(range(len(linear)), repeat=k))
                dets = [_dict_det(upper + [[col[ix] for col, ix in zip(columns, v)]], p)
                        for v in rows]
                # a goal some last row reaches at the pinned scalar
                pin = rng.randrange(1, p)
                inv = pow(pin, p - 2, p)
                goal = {e: c * inv % p for e, c in rng.choice([d for d in dets if d]).items()}
                unreachable = {(k + 1,) + zero_e[1:]: 1}  # det has degree at most k
                # reached: True or False where known, None where either may hold
                for aim, scalars, reached in ((goal, (pin,), True), (goal, range(1, p), True),
                                              ({}, (1,), None),
                                              (unreachable, range(1, p), False)):
                    want = [
                        (v, c) for v, det in zip(rows, dets) for c in scalars
                        if det == {e: g * c % p for e, g in aim.items()}
                    ]
                    solved = _last_row_solutions(polys, n, tuple(aim.items()), scalars, offset, field)
                    assert list(solved) == want
                    assert reached in (None, bool(want))


def test_elimination_work_gate(monkeypatch):
    """Work per candidate, counted rather than timed. Forming every
    candidate's determinant took 74,000 sums and 8,704 products here; solving
    for the last row takes one elimination and k minors per choice of the
    rows above, and no product of an entry with a minor. The sum_of_products
    calls of the minors and of the witnesses' checks count too."""
    calls = {(search, "det_laplace_memo"): 0, (search, "rref"): 0,
             (matmap, "sum_of_products"): 0}

    def counting(key):
        real = getattr(*key)

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return counted

    for module, name in calls:
        monkeypatch.setattr(module, name, counting((module, name)))
    report = search_report(SearchSpec(poly("x*y + z*t", varset("x", "y", "z", "t")), 2))
    candidates = report.full_evaluations + report.blocks_pruned
    assert candidates == 69647
    assert sum(calls.values()) < candidates / 64


def test_search_with_27_entry_values():
    """x^2 + y^2 + z^2 over F_3 at m = 2, where each entry ranges over 27
    linear forms: hits, counters and the first and last witness are pinned."""
    f = poly("x^2 + y^2 + z^2", varset("x", "y", "z"), F3)
    report = search_report(SearchSpec(f, 2))
    assert (len(report.found), report.full_evaluations, report.blocks_pruned,
            report.ranks_searched, report.exhausted) == (1152, 20835, 530315, (1, 2, 0), True)
    assert str(report.found[0]) == "[2*y + 2*z, 2*x + 2*z]\n[x + 2*z, 2*y + z]"
    assert str(report.found[-1]) == "[2*x + 2*y + 2*z, 2*x + y]\n[2*x + y, x + y + 2*z]"


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


# Targets whose leading or lowest-degree coefficient is not 1, with the
# number of unrestricted affine maps of that size whose determinant is the
# target; 2*x*y has no expression of size 1, so both sides must say so.
NON_MONIC = [
    ("2*x^2", "x", 3, 2, 216), ("2*x^2 + x", "x", 3, 2, 288), ("x^2 + 2*x", "x", 3, 2, 288),
    ("2*x + 1", "x", 3, 2, 288), ("2*x^2 + 2", "x", 3, 2, 144), ("2*x", "x", 3, 2, 288),
    ("2*x + 3*y", "xy", 5, 1, 1), ("4*y + 2", "xy", 5, 1, 1), ("3", "xy", 5, 1, 1),
    ("2*x*y", "xy", 5, 1, 0),
]


@pytest.mark.parametrize("text, names, p, m, count", NON_MONIC,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}" for c in NON_MONIC])
def test_search_agrees_with_unrestricted_count_on_non_monic_targets(text, names, p, m, count):
    f = poly(text, varset(*names), Fp(p))
    report = search_report(SearchSpec(f, m), max_found=1)
    assert enumerate_all_expressions(f, m) == count
    assert bool(report.found) == (count > 0)
    assert report.found or report.exhausted


def test_unrestricted_count_for_xy():
    assert enumerate_all_expressions(poly("x*y"), 2) == 108
    with pytest.raises(EnumerationCapError):
        enumerate_all_expressions(poly("x*y"), 2, cap=10)


@pytest.mark.parametrize("text", ["0", "1"])
def test_unrestricted_count_rejects_size_below_one(text):
    # the empty matrix has determinant 1, but a Laplace expansion needs an entry
    with pytest.raises(ValueError, match="size"):
        enumerate_all_expressions(poly(text), 0)


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
    f = parse_polynomial("x^2 + y*z", vars=varset("x", "y", "z"), field=F3)
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


def test_dc_proves_nonexistence_by_exhausting_a_size(monkeypatch):
    """x^2 + xy + y^2 + z over F_2: size 2 is searched to the end with no hit,
    which the first-row reference and the unrestricted count confirm."""
    f = poly("x^2 + x*y + y^2 + z", varset("x", "y", "z"))
    res = dc_exact(f, 2)
    assert (res.value, res.capped_at, res.witness) == (None, None, None)
    assert res.render() == "> 2"
    assert res.evaluations == ((1, 0), (2, 512))

    def summary(report):
        return (len(report.found), report.full_evaluations, report.blocks_pruned,
                report.ranks_searched, report.exhausted)

    assert summary(search_report(SearchSpec(f, 2))) == (0, 512, 7, (1, 2), True)
    monkeypatch.setattr(search, "_search_rank", reference_search_rank)
    assert summary(search_report(SearchSpec(f, 2))) == (0, 512, 7, (1, 2), True)
    assert dc_exact(f, 2) == res
    assert enumerate_all_expressions(f, 2) == 0


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
