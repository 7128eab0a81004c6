"""Exhaustive search for determinantal expressions over small prime fields.

Canonical family: every size-m expression of f can be written, after the
left/right action of constant invertible matrices, as J_r + Z with J_r the
canonical rank-r constant part (ones on the trailing diagonal), Z a matrix of
homogeneous linear forms, and det(J_r + Z) = c * f for a nonzero scalar c
absorbed by rescaling the first row. Enumerating (r, Z) over all coefficient
tuples therefore covers the whole space, so an exhausted run is a proof of
nonexistence over that field, and every hit is rescaled into an exact
witness. Ranks below m - mindeg(f) are skipped outright: the graded parts of
det(J_r + Z) live in degrees [m - r, m], so such ranks cannot reach f.

The entries are Polynomials, each of the p^n linear forms made once per rank
and shared by every candidate; the search does no polynomial arithmetic of
its own. The upper-left all-linear block is enumerated first and its
determinant (the lowest graded part of the full determinant) is checked
against f before the remaining entries are touched. Consecutive candidates
of each odometer walk differ only in the last row, so both walks (the block,
then the full grid) split off that row. A determinant is linear in any one
row: for each choice of the rows above, the k minors of the last row are
computed once, by matmap.det_laplace_memo, and the last rows with
det = c * goal are the solutions of one linear system over F_p in their
n * k coefficients, solved for every admissible scalar c by one
elimination. No candidate's determinant is formed, and a choice of the rows
above costs one elimination for its P^k candidates, plus the work of
listing its hits.
"""

from __future__ import annotations

import heapq
from itertools import product

from .fields import PrimeField, Record
from .linalg import rref
from .matmap import AffineMatrixMap, det_laplace_memo, verify_expression
from .poly import Polynomial

DEFAULT_CANDIDATE_CAP = 1 << 30


class EnumerationCapError(ValueError):
    """The projected candidate count exceeds the configured cap."""

    def __init__(self, estimate: int, cap: int, detail: str = ""):
        msg = f"estimated {estimate} candidates exceeds cap {cap}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.estimate = estimate
        self.cap = cap


def rank_order(m: int) -> list:
    """Constant-part ranks, r = m-1 first (the only viable rank for
    high-codimension homogeneous targets), then m, then downward."""
    order = [m - 1, m] if m >= 1 else []
    order += list(range(m - 2, -1, -1))
    return order


class SearchSpec(Record):
    target: Polynomial
    size: int
    max_candidates: int = DEFAULT_CANDIDATE_CAP

    def __post_init__(self):
        if not isinstance(self.target.field, PrimeField):
            raise ValueError("search runs over prime fields only")
        if self.size < 1:
            raise ValueError("size must be at least 1")
        if self.max_candidates < 0:
            raise ValueError(f"max_candidates must be >= 0, got {self.max_candidates}")
        est = self.estimate()
        if est > self.max_candidates:
            raise EnumerationCapError(
                est, self.max_candidates,
                f"size {self.size}, {len(self.target.vars)} variables over F_{self.target.field.char}",
            )

    def viable_ranks(self) -> list:
        m = self.size
        if self.target.is_zero():
            return rank_order(m)
        min_deg = min(sum(e) for e, _ in self.target.terms)
        return [r for r in rank_order(m) if r >= m - min_deg]

    def estimate(self) -> int:
        p = self.target.field.char
        n = len(self.target.vars)
        per_rank = p ** (self.size * self.size * n)
        return per_rank * max(1, len(self.viable_ranks()))


class SearchReport(Record):
    """Hits and work of one search.

    full_evaluations counts the full-size candidates decided exactly, hit or
    not; blocks_pruned counts upper-left blocks whose determinant already
    rules out f. Neither counts determinants formed: the walks decide all
    last rows of a choice of the rows above by one elimination, without
    forming any candidate's determinant.
    """

    spec: SearchSpec
    found: list = None  # None gives a fresh list
    blocks_pruned: int = 0
    full_evaluations: int = 0
    ranks_searched: tuple = ()
    exhausted: bool = False

    # the search updates a report as it runs
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __post_init__(self):
        if self.found is None:
            self.found = []

    def to_json(self) -> dict:
        return {
            "size": self.spec.size,
            "field": {"Fp": self.spec.target.field.char},
            "target": str(self.spec.target),
            "found_count": len(self.found),
            "blocks_pruned": self.blocks_pruned,
            "full_evaluations": self.full_evaluations,
            "ranks_searched": list(self.ranks_searched),
            "exhausted": self.exhausted,
        }


def _last_row_solutions(upper, n: int, goal: tuple, scalars, offset: bool, field):
    """Yield (v, c) for every last row v and scalar c in scalars with
    det(upper + [last row]) == c * goal, in (v, c) order.

    upper holds the first k - 1 rows of a k x k grid of Polynomials, and goal
    holds (exponent, coefficient) terms. Entry j of the last row is the linear
    form whose coefficient tuple is number v_j in odometer order, plus 1 in
    entry k - 1 when offset is set. The determinant is linear in that row, so
    with the k signed minors computed once, the rows are the solutions of one
    linear system over F_p: unknown q = j * n + i, the coefficient of x_i in
    entry j, has the column x_i * minor_j, and the right-hand side is c * goal
    less the offset's minor. The unknowns are eliminated in reversed odometer
    order, so each pivot unknown depends only on free unknowns before it, and
    enumerating the free ones in odometer order yields each scalar's
    solutions in odometer order of v. The scalars' streams are merged lazily.
    """
    p = field.char
    k = len(upper) + 1
    if k == 1:
        minors = [(((0,) * n, 1),)]  # the empty minor is 1
    else:
        minors = [
            det_laplace_memo([[row[l] for l in range(k) if l != j] for row in upper]).terms
            for j in range(k)
        ]
    unknowns = n * k
    # one equation per monomial; unknown q sits in column unknowns - 1 - q,
    # the goal and the offset's minor in the last two
    terms = [
        (e[:i] + (e[i] + 1,) + e[i + 1:], unknowns - 1 - j * n - i, -c if (k - 1 + j) % 2 else c)
        for j, minor in enumerate(minors) for e, c in minor for i in range(n)
    ]
    terms += [(e, unknowns, c) for e, c in goal]
    if offset:  # entry k - 1's cofactor sign is +1
        terms += [(e, unknowns + 1, c) for e, c in minors[-1]]
    equations: dict = {}
    for e, col, c in terms:
        row = equations.get(e)
        if row is None:
            row = equations[e] = [0] * (unknowns + 2)
        row[col] = c
    matrix = list(equations.values())
    reduced, pivots = rref(field, matrix, rhs=2)
    pivot_unknowns = {unknowns - 1 - col for col in pivots}
    free = [q for q in range(unknowns) if q not in pivot_unknowns]
    solved = [
        (unknowns - 1 - col, [(q, a) for q in free if (a := row[unknowns - 1 - q])])
        for col, row in zip(pivots, reduced)
    ]
    weights = [p ** (n - 1 - i) for i in range(n)] * k

    def solutions(c):
        rhs = [(c * row[unknowns] - row[unknowns + 1]) % p for row in reduced]
        if any(rhs[len(pivots):]):
            return
        u = [0] * unknowns
        for values in product(range(p), repeat=len(free)):
            for q, x in zip(free, values):
                u[q] = x
            for (q, deps), b in zip(solved, rhs):
                u[q] = (b - sum(a * u[f] for f, a in deps)) % p
            digits = [x * w for x, w in zip(u, weights)]
            yield tuple(sum(digits[j * n:j * n + n]) for j in range(k)), c

    return heapq.merge(*(solutions(c) for c in scalars))


def _search_rank(spec: SearchSpec, r: int, report: SearchReport):
    """Yield (grid of Polynomials, scalar) hits for one constant-part rank."""
    f = spec.target
    field = f.field
    p = field.char
    n = len(f.vars)
    m = spec.size

    target = f.terms
    block = m - r  # side of the all-linear upper-left block
    low_part = tuple(t for t in target if sum(t[0]) == block)
    nonzero = range(1, p)  # the scalars c of det = c * f while none is pinned

    # the linear forms, by coefficient tuple in odometer order; plus_one[v] is
    # forms[v] on a diagonal one of J_r
    units = [(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]
    forms = [
        Polynomial.from_dict(f.vars, field, dict(zip(units, t)))
        for t in product(range(p), repeat=n)
    ]
    plus_one = [form + 1 for form in forms]
    P = len(forms)

    def rank_of(last):
        """Odometer rank of a last-row index tuple among its P^len candidates."""
        rank = 0
        for ix in last:
            rank = rank * P + ix
        return rank

    # Each walk enumerates the positions above its last row, then that row.
    ul_upper = [(i, j) for i in range(block - 1) for j in range(block)]
    rest_upper = [
        (i, j) for i in range(m - 1) for j in range(m) if not (i < block and j < block)
    ]
    # row m - 1 lies outside the block unless block == m; its J_r one is at m - 1
    last_columns = [plus_one if j == m - 1 else forms for j in range(m)]
    grid = [[None] * m for _ in range(m)]

    def full_walk(pin):
        """Every completion of the fixed upper-left block to the m x m grid."""
        # the zero target asks for a zero determinant, with scalar 1
        scalars = (1,) if not target else nonzero if pin is None else (pin,)
        for rest_choice in product(range(P), repeat=len(rest_upper)):
            for (i, j), ix in zip(rest_upper, rest_choice):
                grid[i][j] = plus_one[ix] if i == j else forms[ix]
            # candidates of this choice counted so far: a hit brings the
            # count to its odometer rank, as if each were decided in turn
            decided = 0
            for last, c in _last_row_solutions(grid[:-1], n, target, scalars, True, field):
                rank = rank_of(last)
                report.full_evaluations += rank + 1 - decided
                decided = rank + 1
                grid[-1] = [column[ix] for column, ix in zip(last_columns, last)]
                yield [row[:] for row in grid], c
            report.full_evaluations += P ** m - decided

    if block == 0:
        # rank m: the degree-0 part of the determinant is det(J_m) = 1
        const = f.constant_term()
        if const:  # else 1 = c*0 has no solution; the whole rank dies
            yield from full_walk(pow(const, p - 2, p))
        return

    # with no low part the block's determinant must vanish, and pins nothing
    block_scalars = nonzero if low_part else (1,)
    for ul_choice in product(range(P), repeat=len(ul_upper)):
        for (i, j), ix in zip(ul_upper, ul_choice):
            grid[i][j] = forms[ix]
        upper = [row[:block] for row in grid[:block - 1]]
        decided = 0
        for last, c in _last_row_solutions(upper, n, low_part, block_scalars, False, field):
            rank = rank_of(last)
            report.blocks_pruned += rank - decided
            decided = rank + 1
            grid[block - 1][:block] = [forms[ix] for ix in last]
            if block < m:
                yield from full_walk(c if low_part else None)
                continue
            # the block is the whole grid, with determinant c * low_part: a
            # hit when that part is all of f (for the zero target, c = 1)
            report.full_evaluations += 1
            if low_part == target:
                yield [row[:] for row in grid], c
        report.blocks_pruned += P ** block - decided


def _grid_to_map(grid, scalar, f: Polynomial) -> AffineMatrixMap:
    """Materialize a hit as an exact witness: row 0 is rescaled by 1/scalar."""
    p = f.field.char
    inv = pow(scalar, p - 2, p)
    rows = [tuple(row) for row in grid]
    if inv != 1:
        rows[0] = tuple(entry.scale(inv) for entry in rows[0])
    return AffineMatrixMap(f.vars, f.field, tuple(rows))


def search_expressions(spec: SearchSpec, report: SearchReport | None = None):
    """Stream exact witnesses in deterministic order; exhaustion proves
    nonexistence at this size over this field.

    Every yielded map re-verifies through the exact mode of
    verify_expression before it is surfaced.
    """
    f = spec.target
    own_report = report if report is not None else SearchReport(spec)
    if f.degree() > spec.size:
        # an m x m determinant of affine entries has degree at most m
        own_report.exhausted = True
        own_report.ranks_searched = ()
        return
    ranks = spec.viable_ranks()
    for r in ranks:
        for grid, scalar in _search_rank(spec, r, own_report):
            witness = _grid_to_map(grid, scalar, f)
            check = verify_expression(witness, f, mode="exact")
            if not check.ok:
                raise AssertionError("streamed candidate failed exact re-verification")
            own_report.found.append(witness)
            yield witness
    own_report.ranks_searched = tuple(ranks)
    own_report.exhausted = True


def search_report(spec: SearchSpec, max_found: int | None = None) -> SearchReport:
    """Run the search to completion (or until max_found hits) and summarize.

    max_found of None means every hit.
    """
    if max_found is not None and max_found < 1:
        raise ValueError(f"max_found must be at least 1, got {max_found}")
    report = SearchReport(spec)
    for _ in search_expressions(spec, report):
        if max_found is not None and len(report.found) >= max_found:
            break
    return report


class DcResult(Record):
    poly: Polynomial
    value: int | None          # the exact determinantal complexity, if found
    m_max: int
    capped_at: int | None      # size at which the candidate cap refused to run
    evaluations: tuple         # (size, full_evaluations) pairs actually searched
    witness: AffineMatrixMap | None = None  # first witness of size value, re-verified

    def render(self) -> str:
        if self.value is not None:
            return str(self.value)
        if self.capped_at is not None:
            return f"cap at m = {self.capped_at}"
        return f"> {self.m_max}"

    def to_json(self) -> dict:
        return {
            "target": str(self.poly),
            "field": {"Fp": self.poly.field.char},
            "value": self.value,
            "m_max": self.m_max,
            "capped_at": self.capped_at,
            "evaluations": [list(pair) for pair in self.evaluations],
        }


def dc_exact(f: Polynomial, m_max: int, max_candidates: int = DEFAULT_CANDIDATE_CAP) -> DcResult:
    """Smallest size admitting an expression of f, searching m = 1, 2, ..."""
    if not isinstance(f.field, PrimeField):
        # checked here too: sizes settled by the degree bound build no SearchSpec
        raise ValueError("search runs over prime fields only")
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    if max_candidates < 0:
        raise ValueError(f"max_candidates must be >= 0, got {max_candidates}")
    evaluations = []
    for m in range(1, m_max + 1):
        if f.degree() > m:
            evaluations.append((m, 0))  # degree bound: no enumeration needed
            continue
        try:
            spec = SearchSpec(f, m, max_candidates=max_candidates)
        except EnumerationCapError:
            return DcResult(f, None, m_max, m, tuple(evaluations))
        report = SearchReport(spec)
        for witness in search_expressions(spec, report):
            evaluations.append((m, report.full_evaluations))
            return DcResult(f, m, m_max, None, tuple(evaluations), witness)
        evaluations.append((m, report.full_evaluations))
    return DcResult(f, None, m_max, None, tuple(evaluations))
