"""Branching programs, the expression catalog, and coefficient equations.

The subset branching program realizes the permanent in size 2^n - 1 after the
classical conversion: merge the sink into the source, put 1 on every other
diagonal entry, and fix the overall sign by rescaling the source row against
the independently computed path-sum. Parameterized templates carry unknown
coefficients in a second variable block of one combined ring, so extracting
the equations a target imposes on those unknowns is a grouping of determinant
terms by main-block monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .fields import Field, FieldMismatchError, QQ
from .groebner import EngineLimits, Ideal, ResourceCapError, buchberger
from .matmap import AffineMatrixMap, perm_polynomial, symbolic_det, verify_expression
from .poly import Polynomial, VarSet, mono_key, mono_str, varset


# -- branching programs --------------------------------------------------------


@dataclass(frozen=True)
class ABP:
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

    @property
    def vertex_count(self) -> int:
        return sum(len(layer) for layer in self.layers)

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
    (u, v). The determinant then equals the path-sum up to a global sign.
    It is computed once and compared with the path-sum; a sign mismatch is
    fixed by negating the source row, which negates the determinant exactly.
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
    mapping = AffineMatrixMap(vars, field, tuple(tuple(row) for row in grid))
    target = abp.path_sum()
    det = symbolic_det(mapping)
    if det == target:
        return mapping
    if det == -target:
        # negating one row negates the determinant exactly
        return mapping.scale_row(0, field.neg(field.one))
    raise RuntimeError("conversion sign could not be normalized; the path-sum was not reproduced")


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
    from .parsing import parse_polynomial

    if name == "cubic_5x5":
        vars = varset("x", "y", "z", "t")
        rows = tuple(
            tuple(parse_polynomial(s, vars, field) for s in row) for row in _CUBIC_ROWS
        )
        mapping = AffineMatrixMap(vars, field, rows)
        target = parse_polynomial("x*y^2 + y*t^2 + z^3", vars, field)
    elif name == "quadric_2x2":
        vars = varset("x", "y", "z")
        e = lambda s: parse_polynomial(s, vars, field)
        mapping = AffineMatrixMap.from_rows(vars, field, ((e("x"), e("y")), (e("-z"), e("x"))))
        target = e("x^2 + y*z")
    elif name == "grenet_perm_2":
        mapping = abp_to_determinant(grenet_abp(2, field))
        target = perm_polynomial(2, field)
    elif name == "grenet_perm_3":
        mapping = abp_to_determinant(grenet_abp(3, field))
        target = perm_polynomial(3, field)
    else:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(CATALOG_NAMES)}")
    report = verify_expression(mapping, target, mode="exact")
    if not report.ok:
        raise RuntimeError(f"catalog entry {name} failed its load-time verification")
    return mapping, target


# -- parameterized templates -----------------------------------------------------


@dataclass(frozen=True)
class ParamTemplate:
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
        nm = len(self.main_vars)
        combined = self.combined_vars
        m = len(self.entries)
        if m < 1 or any(len(row) != m for row in self.entries):
            raise ValueError("entries must form a nonempty square grid")
        for row in self.entries:
            for p in row:
                if p.vars != combined or p.field != self.field:
                    raise FieldMismatchError("entry outside the combined ring")
                for e, _ in p.terms:
                    if sum(e[:nm]) > 1:
                        raise ValueError("entry has a term of degree > 1 in the main block")
                    if sum(e[nm:]) > 1:
                        raise ValueError("entry has a term of degree > 1 in the parameters")

    @property
    def combined_vars(self) -> VarSet:
        return VarSet(self.main_vars.names + self.param_vars.names)

    @property
    def size(self) -> int:
        return len(self.entries)

    def determinant(self) -> Polynomial:
        return symbolic_det(self.entries)

    def instantiate(self, assignment: dict) -> AffineMatrixMap:
        """Substitute parameter values (name -> field value) into the grid."""
        field = self.field
        nm = len(self.main_vars)
        values = [field.of(assignment[name]) for name in self.param_vars.names]
        rows = []
        for row in self.entries:
            out = []
            for p in row:
                acc: dict = {}
                for e, c in p.terms:
                    scale = c
                    for k, exp in enumerate(e[nm:]):
                        if exp:
                            scale = field.mul(scale, values[k])
                    if scale == field.zero:
                        continue
                    key = e[:nm]
                    prior = acc.get(key, field.zero)
                    total = field.add(prior, scale)
                    if total == field.zero:
                        acc.pop(key, None)
                    else:
                        acc[key] = total
                out.append(Polynomial.from_dict(self.main_vars, field, acc))
            rows.append(tuple(out))
        return AffineMatrixMap(self.main_vars, field, tuple(rows))


@dataclass(frozen=True)
class Equation:
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
    det = template.determinant()
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
    n = len(combined)

    def mono(**kw):
        e = [0] * n
        for name, exp in kw.items():
            e[combined.index(name)] = exp
        return tuple(e)

    def build(pairs):
        return Polynomial.from_dict(combined, field, {mono(**dict(p)): field.of(c) for p, c in pairs})

    zero = Polynomial.zero(combined, field)
    one = Polynomial.const(combined, field, 1)

    def pv(name):
        return Polynomial.variable(combined, field, combined.index(name))

    first_row = [
        zero,
        build([((("alpha", 1), ("t", 1)), 1), ((("beta", 1), ("y", 1)), 1)]),
        build([((("beta", 1), ("z", 1)), -1), ((("gamma", 1), ("t", 1)), 1)]),
        build([((("gamma", 1), ("y", 1)), -1), ((("alpha", 1), ("z", 1)), -1)]),
    ]
    first_col = [pv("z"), pv("y"), pv("t")]
    rows = [first_row]
    for i in (2, 3, 4):
        row = [first_col[i - 2]]
        for j in (2, 3, 4):
            entry = build([(((f"X{i}{j}", 1), ("x", 1)), 1)])
            if include_lower_coeffs:
                entry = entry + build(
                    [
                        (((f"Y{i}{j}", 1), ("y", 1)), 1),
                        (((f"W{i}{j}", 1), ("z", 1)), 1),
                        (((f"V{i}{j}", 1), ("t", 1)), 1),
                    ]
                )
            if i == j:
                entry = entry + one
            row.append(entry)
        rows.append(row)
    template = ParamTemplate(main, params, field, tuple(tuple(r) for r in rows))
    from .parsing import parse_polynomial

    target = parse_polynomial("x*y^2 + y*t^2 + z^3", main, field)
    return template, target


def generic_template(m: int, main_vars: VarSet, field: Field = QQ, constants: bool = True) -> ParamTemplate:
    """Fully generic m x m template: one unknown per entry per variable,
    plus an unknown constant per entry unless disabled."""
    pnames = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if constants:
                pnames.append(f"C{i}{j}")
            for name in main_vars.names:
                pnames.append(f"A{i}{j}_{name}")
    params = VarSet(tuple(pnames))
    combined = VarSet(main_vars.names + params.names)
    n = len(combined)

    def unit(*positions):
        e = [0] * n
        for pos in positions:
            e[pos] += 1
        return tuple(e)

    rows = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, m + 1):
            acc = {}
            if constants:
                acc[unit(combined.index(f"C{i}{j}"))] = field.one
            for name in main_vars.names:
                acc[unit(combined.index(name), combined.index(f"A{i}{j}_{name}"))] = field.one
            row.append(Polynomial.from_dict(combined, field, acc))
        rows.append(tuple(row))
    return ParamTemplate(main_vars, params, field, tuple(rows))


def solve_by_enumeration(equations, field: Field, max_solutions: int | None = None, node_cap: int = 10_000_000):
    """All parameter assignments over a finite field satisfying every equation.

    Depth-first over the parameters in ring order; an equation is checked as
    soon as its support is fully assigned, so contradictions prune early.
    Deterministic: domain values ascending, solutions in lexicographic order.
    """
    if field.char == 0:
        raise ValueError("enumeration requires a finite field")
    if not equations:
        return [{}]
    params = equations[0].lhs.vars
    k = len(params)
    residuals = [eq.residual() for eq in equations]
    for r in residuals:
        if r.vars != params:
            raise FieldMismatchError("equations over different parameter rings")
    by_depth: list = [[] for _ in range(k + 1)]
    for r in residuals:
        support = [i for i in range(k) if r.degree_in(i) > 0]
        depth = (max(support) + 1) if support else 0
        by_depth[depth].append(r)
    if any(not r.is_zero() for r in by_depth[0]):
        return []
    domain = list(range(field.char))
    point = [field.zero] * k
    solutions = []
    nodes = 0

    def dfs(depth):
        nonlocal nodes
        if max_solutions is not None and len(solutions) >= max_solutions:
            return
        if depth == k:
            solutions.append({name: point[i] for i, name in enumerate(params.names)})
            return
        for value in domain:
            nodes += 1
            if nodes > node_cap:
                raise ResourceCapError("enumeration", f"node cap {node_cap} hit")
            point[depth] = field.of(value)
            if all(r.evaluate(point).value == field.zero for r in by_depth[depth + 1]):
                dfs(depth + 1)
        point[depth] = field.zero

    dfs(0)
    return solutions


# -- the six-equation case analysis ----------------------------------------------


@dataclass(frozen=True)
class CaseVerdict:
    case: str
    status: str          # "infeasible" | "feasible" | "cap"
    basis_size: int | None
    pairs_processed: int | None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "status": self.status,
            "basis_size": self.basis_size,
            "pairs_processed": self.pairs_processed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CaseAnalysisReport:
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
        return {
            "six_equations": list(self.six_equations),
            "six_verdicts": [v.to_json() for v in self.six_verdicts],
            "full_equation_count": self.full_equation_count,
            "full_verdicts": [v.to_json() for v in self.full_verdicts],
            "complete_equation_count": self.complete_equation_count,
            "complete_verdicts": [v.to_json() for v in self.complete_verdicts],
            "abg_zero_infeasible": self.abg_zero_infeasible,
            "claim": self.claim,
            "six_matches_claim": self.six_matches_claim,
            "full_matches_claim": self.full_matches_claim,
            "complete_matches_claim": self.complete_matches_claim,
        }

    def render_text(self) -> str:
        lines = ["six displayed equations (canonical order):"]
        lines += [f"  {s}" for s in self.six_equations]
        lines.append("six-equation system:")
        for v in self.six_verdicts:
            lines.append(f"  {v.case}: {v.status}" + (f" ({v.detail})" if v.detail else ""))
        if self.full_verdicts:
            lines.append(f"full degree-3 system ({self.full_equation_count} equations):")
            for v in self.full_verdicts:
                lines.append(f"  {v.case}: {v.status}" + (f" ({v.detail})" if v.detail else ""))
        if self.complete_verdicts:
            lines.append(f"complete system, all degrees ({self.complete_equation_count} equations):")
            for v in self.complete_verdicts:
                lines.append(f"  {v.case}: {v.status}" + (f" ({v.detail})" if v.detail else ""))
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
    six_template, target = cubic_rank3_template(field, include_lower_coeffs=False)
    six_eqs = extract_coefficient_equations(six_template, target, monomial_filter=_deg3_x1)
    six_res = [eq.residual() for eq in six_eqs]
    six_verdicts = _case_verdicts(six_res, six_template.param_vars, field, limits)

    full_template, _ = cubic_rank3_template(field, include_lower_coeffs=True)
    full_eqs: list = []
    full_verdicts: list = []
    if include_full:
        full_eqs = extract_coefficient_equations(full_template, target, monomial_filter=_deg3)
        full_res = [eq.residual() for eq in full_eqs]
        full_verdicts = _case_verdicts(full_res, full_template.param_vars, field, limits)

    complete_eqs: list = []
    complete_verdicts: list = []
    if include_complete:
        complete_eqs = extract_coefficient_equations(full_template, target)
        complete_res = [eq.residual() for eq in complete_eqs]
        complete_verdicts = _case_verdicts(complete_res, full_template.param_vars, field, limits)

    # structural sanity: with alpha = beta = gamma all zero, the xy^2 equation
    # reads 0 = 1, so the six equations admit no such solution
    params = six_template.param_vars
    images = [Polynomial.variable(params, field, i) for i in range(len(params))]
    for name in ("alpha", "beta", "gamma"):
        images[params.index(name)] = Polynomial.zero(params, field)
    abg_zero_infeasible = any(
        r.substitute_affine(images).degree() == 0 and not r.substitute_affine(images).is_zero()
        for r in six_res
    )

    claim = "the equations are inconsistent unless alpha = 0 and gamma != 0"

    def matches(verdicts) -> bool | None:
        by_name = {v.case: v.status for v in verdicts}
        a, g = by_name["alpha_nonzero"], by_name["gamma_zero"]
        if "cap" in (a, g):
            return None
        return a == "infeasible" and g == "infeasible"

    return CaseAnalysisReport(
        six_equations=tuple(eq.render() for eq in six_eqs),
        six_verdicts=tuple(six_verdicts),
        full_equation_count=len(full_eqs),
        full_verdicts=tuple(full_verdicts),
        abg_zero_infeasible=abg_zero_infeasible,
        claim=claim,
        six_matches_claim=matches(six_verdicts),
        full_matches_claim=matches(full_verdicts) if full_verdicts else None,
        complete_equation_count=len(complete_eqs) if include_complete else None,
        complete_verdicts=tuple(complete_verdicts),
        complete_matches_claim=matches(complete_verdicts) if complete_verdicts else None,
    )
