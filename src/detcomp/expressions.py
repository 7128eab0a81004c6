"""Branching programs, the expression catalog, and coefficient equations.

The subset branching program realizes the permanent in size 2^n - 1 after the
classical conversion: merge the sink into the source, put 1 on every other
diagonal entry, and fix the overall sign, (-1)^(L-1) for L layers of edges,
by negating the source row when L is even. Parameterized templates carry
unknown coefficients in a second variable block of one combined ring, so
extracting the equations a target imposes on those unknowns is a grouping of
determinant terms by main-block monomial.
"""

from __future__ import annotations

from itertools import combinations

from .fields import Field, FieldMismatchError, QQ, Record
from .groebner import EngineLimits, Ideal, ResourceCapError, buchberger
from .matmap import (
    AffineMatrixMap, _check_grid, exact_report, perm_polynomial, symbolic_det, verify_expression,
)
from .parsing import parse_polynomial
from .poly import Polynomial, VarSet, mono_key, mono_str, varset


# -- branching programs --------------------------------------------------------


class ABP(Record):
    """Layered branching program; edge labels are degree <= 1 polynomials."""

    vars: VarSet
    field: Field
    layers: tuple  # tuple of tuples of vertex names
    edges: tuple   # (layer, i, j, label): layers[layer][i] -> layers[layer+1][j]

    def __post_init__(self):
        if len(self.layers) < 2:
            raise ValueError("need at least a source layer and a sink layer")
        if len(self.layers[0]) != 1 or len(self.layers[-1]) != 1:
            raise ValueError("exactly one source and one sink required")
        for layer, i, j, label in self.edges:
            if not (0 <= layer < len(self.layers) - 1):
                raise ValueError(f"edge layer {layer} out of range")
            if not (0 <= i < len(self.layers[layer]) and 0 <= j < len(self.layers[layer + 1])):
                raise ValueError("edge endpoint out of range")
            if label.vars != self.vars or label.field != self.field:
                raise FieldMismatchError("edge label outside the declared ring")
            if label.degree() > 1:
                raise ValueError("edge labels must have degree <= 1")

    def path_sum(self) -> Polynomial:
        """Sum over source-sink paths of the product of edge labels."""
        zero = Polynomial.zero(self.vars, self.field)
        value = [Polynomial.const(self.vars, self.field, 1)]
        for layer in range(len(self.layers) - 1):
            nxt = [zero] * len(self.layers[layer + 1])
            for el, i, j, label in self.edges:
                if el == layer:
                    nxt[j] = nxt[j] + value[i] * label
            value = nxt
        return value[0]


def grenet_abp(n: int, field: Field = QQ) -> ABP:
    """Subset program for the n x n permanent; layer k holds the k-subsets.

    The edge from S to S+{j} carries the variable x_{|S|+1, j}; a source-sink
    path therefore picks one matrix entry per row, with the columns forming a
    permutation, and the path-sum is the permanent.
    """
    if not (1 <= n <= 4):
        raise ValueError("subset program capped at n <= 4 (size 2^n - 1 grows fast)")
    names = tuple(f"x{i + 1}{j + 1}" for i in range(n) for j in range(n))
    vars = VarSet(names)
    layers = []
    index = {}
    for k in range(n + 1):
        layer = sorted(combinations(range(1, n + 1), k))
        for pos, subset in enumerate(layer):
            index[subset] = pos
        layers.append(tuple("{" + ",".join(map(str, s)) + "}" for s in layer))
    edges = []
    for k in range(n):
        for subset in sorted(combinations(range(1, n + 1), k)):
            for j in range(1, n + 1):
                if j in subset:
                    continue
                bigger = tuple(sorted(subset + (j,)))
                var_index = k * n + (j - 1)  # x_{k+1, j}
                label = Polynomial.variable(vars, field, var_index)
                edges.append((k, index[subset], index[bigger], label))
    return ABP(vars, field, tuple(layers), tuple(edges))


def abp_to_determinant(abp: ABP) -> AffineMatrixMap:
    """Size (#vertices - 1) determinantal expression of the path-sum.

    Classical conversion: the sink is merged into the source, every other
    vertex gets 1 on the diagonal, and an edge u -> v places its label at
    (u, v). Every edge goes from one layer to the next, so a nonzero term of
    the determinant is one cycle through the source, a source-sink path of
    length L = len(layers) - 1, with 1 at every other vertex; such a cycle
    has sign (-1)^(L-1), so det = (-1)^(L-1) * path-sum. When L is even the
    source row is negated, which negates the determinant exactly, and the
    determinant is then the path-sum with no determinant computed. That holds
    also when the path-sum is 0: the source row is negated all the same.
    """
    vars, field = abp.vars, abp.field
    index = {}
    for layer in range(len(abp.layers) - 1):  # all layers except the sink's
        for i in range(len(abp.layers[layer])):
            index[(layer, i)] = len(index)
    m = len(index)
    zero = Polynomial.zero(vars, field)
    grid = [[zero] * m for _ in range(m)]
    for v in range(1, m):
        grid[v][v] = Polynomial.const(vars, field, 1)
    sink_layer = len(abp.layers) - 1
    for layer, i, j, label in abp.edges:
        u = index[(layer, i)]
        v = 0 if layer + 1 == sink_layer else index[(layer + 1, j)]
        grid[u][v] = grid[u][v] + label
    if sink_layer % 2 == 0:
        grid[0] = [-entry for entry in grid[0]]
    return AffineMatrixMap(vars, field, tuple(tuple(row) for row in grid))


def grenet_expression(n: int, field: Field = QQ):
    """Grenet's size 2^n - 1 map of perm_n, the target, and the exact report
    comparing the map's determinant, computed once, with perm_n."""
    mapping = abp_to_determinant(grenet_abp(n, field))
    target = perm_polynomial(n, field)
    return mapping, target, exact_report(symbolic_det(mapping), target)


# -- catalog ---------------------------------------------------------------------


CATALOG_NAMES = ("cubic_5x5", "quadric_2x2", "grenet_perm_2", "grenet_perm_3")

_CUBIC_ROWS = (
    ("-y", "z", "0", "0", "0"),
    ("0", "0", "z", "t", "x"),
    ("z", "0", "1", "0", "0"),
    ("0", "t", "0", "1", "0"),
    ("0", "y", "0", "0", "1"),
)


def catalog_get(name: str, field: Field = QQ):
    """Named (map, target) pair; re-verified exactly on every access."""
    if name in ("grenet_perm_2", "grenet_perm_3"):
        mapping, target, report = grenet_expression(int(name[-1]), field)
    elif name == "cubic_5x5":
        vars = varset("x", "y", "z", "t")
        rows = tuple(
            tuple(parse_polynomial(s, vars, field) for s in row) for row in _CUBIC_ROWS
        )
        mapping = AffineMatrixMap(vars, field, rows)
        target = parse_polynomial("x*y^2 + y*t^2 + z^3", vars, field)
        report = verify_expression(mapping, target, mode="exact")
    elif name == "quadric_2x2":
        vars = varset("x", "y", "z")
        e = lambda s: parse_polynomial(s, vars, field)
        mapping = AffineMatrixMap.from_rows(vars, field, ((e("x"), e("y")), (e("-z"), e("x"))))
        target = e("x^2 + y*z")
        report = verify_expression(mapping, target, mode="exact")
    else:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(CATALOG_NAMES)}")
    if not report.ok:
        raise RuntimeError(f"catalog entry {name} failed its load-time verification")
    return mapping, target


# -- parameterized templates -----------------------------------------------------


class ParamTemplate(Record):
    """Matrix whose entries mix main variables with unknown coefficients.

    Entries live in one combined ring, main block first; every term must have
    degree <= 1 in the main block and degree <= 1 in the parameter block.
    """

    main_vars: VarSet
    param_vars: VarSet
    field: Field
    entries: tuple

    def __post_init__(self):
        if set(self.main_vars.names) & set(self.param_vars.names):
            raise ValueError("main and parameter variables must be disjoint")
        _check_grid(self.entries, self.combined_vars, self.field)
        nm = len(self.main_vars)
        for row in self.entries:
            for p in row:
                for e, _ in p.terms:
                    if sum(e[:nm]) > 1:
                        raise ValueError("entry has a term of degree > 1 in the main block")
                    if sum(e[nm:]) > 1:
                        raise ValueError("entry has a term of degree > 1 in the parameters")

    @property
    def combined_vars(self) -> VarSet:
        return VarSet(self.main_vars.names + self.param_vars.names)


class Equation(Record):
    """coefficient-of-monomial(det) = coefficient-of-monomial(target)."""

    monomial: tuple
    main_vars: VarSet
    lhs: Polynomial  # over the parameter ring
    rhs: object      # raw field value

    def residual(self) -> Polynomial:
        return self.lhs - Polynomial.const(self.lhs.vars, self.lhs.field, self.rhs)

    def render(self) -> str:
        return f"{mono_str(self.monomial, self.main_vars.names)}: {self.lhs} = {self.rhs}"


def extract_coefficient_equations(
    template: ParamTemplate,
    target: Polynomial,
    monomial_filter=None,
) -> list:
    """Equations the target imposes on the template's parameters.

    The determinant is expanded once over the combined ring and grouped by
    main-block monomial; each group yields one equation lhs = rhs against the
    target's coefficient. Monomials of the union of both supports are
    covered, so a target monomial the template cannot produce surfaces as an
    equation 0 = c rather than being dropped silently.
    """
    if target.vars != template.main_vars or target.field != template.field:
        raise FieldMismatchError("target must live over the template's main ring")
    field = template.field
    nm = len(template.main_vars)
    det = symbolic_det(template.entries)
    buckets: dict = {}
    for e, c in det.terms:
        buckets.setdefault(e[:nm], {})[e[nm:]] = c
    monomials = set(buckets) | {e for e, _ in target.terms}
    if monomial_filter is not None:
        monomials = {e for e in monomials if monomial_filter(e)}
    equations = []
    for e in sorted(monomials, key=mono_key, reverse=True):
        lhs = Polynomial.from_dict(template.param_vars, field, buckets.get(e, {}))
        equations.append(Equation(e, template.main_vars, lhs, target.coefficient(e)))
    return equations


# -- the rank-3 cubic template ---------------------------------------------------


CUBIC_PARAM_NAMES = (
    "alpha", "beta", "gamma",
    "X22", "X23", "X24", "X32", "X33", "X34", "X42", "X43", "X44",
)
CUBIC_LOWER_PARAM_NAMES = tuple(
    f"{letter}{i}{j}" for letter in ("Y", "W", "V") for i in (2, 3, 4) for j in (2, 3, 4)
)


def cubic_rank3_template(field: Field = QQ, include_lower_coeffs: bool = False):
    """(template, target) for the size-4 question about xy^2 + yt^2 + z^3.

    Constant part: canonical rank 3 (ones at the last three diagonal
    positions). First column below the corner: z, y, t. First row: the
    antisymmetric combination (alpha*t + beta*y, -beta*z + gamma*t,
    -gamma*y - alpha*z). The unknown x-coefficients of the lower block are
    X_ij; include_lower_coeffs adds unknown y, z, t coefficients (Y_ij, W_ij,
    V_ij) so the full degree-3 system can be extracted.
    """
    main = varset("x", "y", "z", "t")
    pnames = CUBIC_PARAM_NAMES + (CUBIC_LOWER_PARAM_NAMES if include_lower_coeffs else ())
    params = VarSet(pnames)
    combined = VarSet(main.names + params.names)
    rows = [("0", "alpha*t + beta*y", "-beta*z + gamma*t", "-gamma*y - alpha*z")]
    for i, first in zip((2, 3, 4), ("z", "y", "t")):
        row = [first]
        for j in (2, 3, 4):
            entry = f"X{i}{j}*x"
            if include_lower_coeffs:
                entry += f" + Y{i}{j}*y + W{i}{j}*z + V{i}{j}*t"
            row.append(entry + (" + 1" if i == j else ""))
        rows.append(row)
    entries = tuple(tuple(parse_polynomial(s, combined, field) for s in row) for row in rows)
    template = ParamTemplate(main, params, field, entries)
    target = parse_polynomial("x*y^2 + y*t^2 + z^3", main, field)
    return template, target


# -- the six-equation case analysis ----------------------------------------------


class CaseVerdict(Record):
    case: str
    status: str          # "infeasible" | "feasible" | "cap"
    basis_size: int | None
    pairs_processed: int | None
    detail: str = ""

    to_json = Record.as_dict


class CaseAnalysisReport(Record):
    six_equations: tuple         # rendered strings, canonical order
    six_verdicts: tuple          # CaseVerdict per case
    full_equation_count: int
    full_verdicts: tuple
    abg_zero_infeasible: bool    # alpha = beta = gamma = 0 kills the system outright
    claim: str
    six_matches_claim: bool | None
    full_matches_claim: bool | None
    complete_equation_count: int | None = None  # all degrees, beyond the degree-3 slice
    complete_verdicts: tuple = ()
    complete_matches_claim: bool | None = None

    def to_json(self) -> dict:
        data = self.as_dict()
        for key in ("six_verdicts", "full_verdicts", "complete_verdicts"):
            data[key] = [v.to_json() for v in data[key]]
        return data

    def render_text(self) -> str:
        lines = ["six displayed equations (canonical order):"]
        lines += [f"  {s}" for s in self.six_equations]
        for title, verdicts in (
            ("six-equation system", self.six_verdicts),
            (f"full degree-3 system ({self.full_equation_count} equations)", self.full_verdicts),
            (f"complete system, all degrees ({self.complete_equation_count} equations)",
             self.complete_verdicts),
        ):
            if verdicts:
                lines.append(f"{title}:")
                lines += [f"  {v.case}: {v.status}" + (f" ({v.detail})" if v.detail else "")
                          for v in verdicts]
        lines.append(f"alpha = beta = gamma = 0 substitution: {'infeasible' if self.abg_zero_infeasible else 'not decided'}")
        lines.append(f"claim under test: {self.claim}")
        lines.append(f"  six-equation system matches: {self.six_matches_claim}")
        lines.append(f"  full system matches: {self.full_matches_claim}")
        if self.complete_verdicts:
            lines.append(f"  complete system matches: {self.complete_matches_claim}")
        return "\n".join(lines)


def _deg3(e):
    return sum(e) == 3


def _deg3_x1(e):
    return sum(e) == 3 and e[0] == 1


MONOMIAL_FILTERS = {"deg3": _deg3, "deg3-x1": _deg3_x1, "none": None}


def _case_verdicts(residuals, params, field, limits) -> list:
    """Feasibility of the system, of system + (alpha != 0), of system + (gamma = 0)."""
    alpha_ix = params.index("alpha")
    gamma_ix = params.index("gamma")
    ext = VarSet(params.names + ("u_rabin",))
    lifted = [r.extend(ext) for r in residuals]
    alpha_ext = Polynomial.variable(ext, field, alpha_ix)
    u = Polynomial.variable(ext, field, len(ext) - 1)
    one_ext = Polynomial.const(ext, field, 1)
    cases = [
        ("unrestricted", residuals, params),
        ("alpha_nonzero", lifted + [alpha_ext * u - one_ext], ext),
        ("gamma_zero", residuals + [Polynomial.variable(params, field, gamma_ix)], params),
    ]
    verdicts = []
    for name, gens, ring in cases:
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            verdicts.append(CaseVerdict(name, "feasible", None, None, "no constraints"))
            continue
        try:
            gb = buchberger(Ideal(ring, field, tuple(gens)), limits=limits)
        except ResourceCapError as exc:
            verdicts.append(CaseVerdict(name, "cap", None, None, str(exc)))
            continue
        status = "infeasible" if gb.is_trivial() else "feasible"
        verdicts.append(CaseVerdict(name, status, gb.stats.basis_size, gb.stats.pairs_processed))
    return verdicts


def cubic_case_analysis(
    limits: EngineLimits | None = None,
    include_full: bool = True,
    include_complete: bool = False,
) -> CaseAnalysisReport:
    """Feasibility of a size-4 expression for the cubic, case by case.

    Regenerates the six displayed equations from the rank-3 template, then
    asks three feasibility questions of both the six-equation system and the
    full degree-3 system (extracted with unknown lower-block coefficients):
    unrestricted, with alpha forced invertible, and with gamma = 0 adjoined.
    Feasibility means a common zero over the algebraic closure; the claim
    under test is that solutions force alpha = 0 and gamma != 0. The optional
    complete system drops the degree filter entirely (the degree-4
    coefficients of the template determinant do not vanish identically, so
    only this system is equivalent to det = target).
    """
    field = QQ
    systems = {}  # name -> (equations, residuals, verdicts)
    for name, monomial_filter, wanted in (
        ("six", _deg3_x1, True),
        ("full", _deg3, include_full),
        ("complete", None, include_complete),
    ):
        if not wanted:
            continue  # so a template is built only when its system runs
        template, target = cubic_rank3_template(field, include_lower_coeffs=name != "six")
        eqs = extract_coefficient_equations(template, target, monomial_filter=monomial_filter)
        res = [eq.residual() for eq in eqs]
        systems[name] = (eqs, res, tuple(_case_verdicts(res, template.param_vars, field, limits)))
    six_eqs, six_res, six_verdicts = systems["six"]
    full_eqs, _, full_verdicts = systems.get("full", ((), (), ()))
    complete_eqs, _, complete_verdicts = systems.get("complete", ((), (), ()))

    # structural sanity: with alpha = beta = gamma all zero, the xy^2 equation
    # reads 0 = 1, so the six equations admit no such solution
    params = six_res[0].vars
    images = [Polynomial.variable(params, field, i) for i in range(len(params))]
    for name in ("alpha", "beta", "gamma"):
        images[params.index(name)] = Polynomial.zero(params, field)
    restricted = (r.substitute_affine(images) for r in six_res)
    abg_zero_infeasible = any(r.degree() == 0 and not r.is_zero() for r in restricted)

    claim = "the equations are inconsistent unless alpha = 0 and gamma != 0"

    def matches(verdicts) -> bool | None:
        by_name = {v.case: v.status for v in verdicts}
        a, g = by_name["alpha_nonzero"], by_name["gamma_zero"]
        if "cap" in (a, g):
            return None
        return a == "infeasible" and g == "infeasible"

    return CaseAnalysisReport(
        six_equations=tuple(eq.render() for eq in six_eqs),
        six_verdicts=six_verdicts,
        full_equation_count=len(full_eqs),
        full_verdicts=full_verdicts,
        abg_zero_infeasible=abg_zero_infeasible,
        claim=claim,
        six_matches_claim=matches(six_verdicts),
        full_matches_claim=matches(full_verdicts) if full_verdicts else None,
        complete_equation_count=len(complete_eqs) if include_complete else None,
        complete_verdicts=complete_verdicts,
        complete_matches_claim=matches(complete_verdicts) if complete_verdicts else None,
    )
