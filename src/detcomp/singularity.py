"""Singular loci, codimension certificates, and expression analysis.

The pipeline: the Jacobian ideal of f cuts out Sing(f); its staircase
dimension gives codim(Sing(f)); when f is homogeneous of degree > 2 and that
codimension exceeds 4, every determinantal expression of f must have size at
least codim + 1, which certify_lower_bound packages as a checkable
certificate. analyze_expression walks the same argument on a concrete
expression: normalize the constant part, read off the forced vanishing of the
low graded parts, build the linear ideal from the first row and column, and
bound the singular locus through the isotropy of the associated linear map.
"""

from __future__ import annotations

import random
import time

from .fields import Field, Record, field_tag
from .groebner import (
    EngineLimits,
    GroebnerStats,
    Ideal,
    StaircaseBound,
    buchberger,
    normal_form,
    staircase_dimension,
)
from .linalg import mat_det, mat_rank, rank_normal_decomposition, rref
from .matmap import AffineMatrixMap, symbolic_det, verify_expression
from .poly import Polynomial, sum_of_products

MIN_USEFUL_CODIM = 4  # the certificate only bites past this


def jacobian_ideal(f: Polynomial) -> Ideal:
    """Ideal of f together with all first-order partials.

    f is included unconditionally: when the characteristic divides deg f the
    Euler relation fails and the partials alone can cut out a larger locus.
    """
    gens = [f] + [f.partial_derivative(i) for i in range(len(f.vars))]
    return Ideal(f.vars, f.field, tuple(gens))


def codim_sing(f: Polynomial, limits: EngineLimits | None = None,
               at_most: int | None = None) -> int:
    """Codimension of Sing(f) in affine n-space; n + 1 when Sing(f) is empty.

    at_most=c, for a caller who knows codim Sing(f) <= c, stops the engine
    once its staircase lower bound reaches c (buchberger's stop_codim) and
    returns that bound; a value above c contradicts what the caller knows.
    """
    n = len(f.vars)
    run = buchberger(jacobian_ideal(f), limits=limits, stop_codim=at_most)
    if isinstance(run, StaircaseBound):
        return run.codim
    return n - staircase_dimension(run.leading_monomials(), n)


class Certificate(Record):
    """Lower-bound verdict for the determinantal complexity of f."""

    poly: Polynomial
    degree: int
    codim: int
    singular_locus_empty: bool
    bound: int | None           # dc(f) >= bound, when applicable
    reason: str | None          # populated exactly when bound is None
    stats: GroebnerStats
    wall_time: float

    @property
    def applicable(self) -> bool:
        return self.bound is not None

    def input_hash(self) -> str:
        import hashlib  # only here: it loads OpenSSL, which start-up does not need

        payload = f"{self.poly.field.name}|{','.join(self.poly.vars.names)}|{self.poly}"
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_json(self, deterministic: bool = False) -> dict:
        data = {
            "input_hash": self.input_hash(),
            "field": field_tag(self.poly.field),
            "vars": list(self.poly.vars.names),
            "poly": str(self.poly),
            "degree": self.degree,
            "codim": self.codim,
            "singular_locus_empty": self.singular_locus_empty,
            "basis_stats": {
                "pairs_processed": self.stats.pairs_processed,
                "zero_reductions": self.stats.zero_reductions,
                "basis_size": self.stats.basis_size,
                "max_degree_processed": self.stats.max_degree_processed,
            },
        }
        if self.bound is not None:
            data["bound"] = self.bound
            data["statement"] = f"dc(f) >= {self.bound}"
        else:
            data["verdict"] = "NotApplicable"
            data["reason"] = self.reason
        if not deterministic:
            data["wall_time"] = self.wall_time
        return data

    def render_text(self) -> str:
        lines = [
            f"input: {self.poly}",
            f"field: {self.poly.field.name}",
            f"degree: {self.degree}",
            f"codim(Sing(f)): {'empty, reported as ' + str(self.codim) if self.singular_locus_empty else self.codim}",
        ]
        if self.bound is not None:
            lines.append(f"verdict: dc(f) >= {self.bound}")
            lines.append("basis: the singular-locus codimension exceeds 4, so every")
            lines.append("       determinantal expression has size >= codim + 1")
        else:
            lines.append(f"verdict: NotApplicable ({self.reason})")
        return "\n".join(lines)


def certify_lower_bound(f: Polynomial, limits: EngineLimits | None = None) -> Certificate:
    """dc(f) >= codim + 1 when f is homogeneous, deg f > 2, and codim > 4."""
    start = time.monotonic()
    n = len(f.vars)
    gb = buchberger(jacobian_ideal(f), limits=limits)
    codim = n - staircase_dimension(gb.leading_monomials(), n)  # n + 1 when Sing(f) is empty
    degree = max(f.degree(), 0)  # 0 for the zero form

    bound: int | None = None
    reason: str | None = None
    if not f.is_homogeneous():
        reason = "not homogeneous"
    elif degree <= 2:
        reason = f"degree {degree} <= 2"
    elif codim <= MIN_USEFUL_CODIM:
        reason = f"codim {codim} <= {MIN_USEFUL_CODIM}"
    else:
        bound = codim + 1

    return Certificate(
        poly=f,
        degree=degree,
        codim=codim,
        singular_locus_empty=codim > n,
        bound=bound,
        reason=reason,
        stats=gb.stats,
        wall_time=time.monotonic() - start,
    )


# -- isotropy ------------------------------------------------------------------


def isotropic_dimension(vectors, field: Field):
    """(is_isotropic, dim) for the span of vectors under the hyperbolic form
    Q(w) = sum w_j * w_{h+j} on 2h coordinates.

    Isotropy of the span is checked through Q on a basis together with the
    polar form Q0(v, w) = Q(v + w) - Q(v) - Q(w) = sum v_j w_{h+j} + w_j v_{h+j},
    which needs no division by 2 and so stays exact in characteristic 2. Both
    are plain sums of products of the raw values.
    """
    vecs = [list(map(field.of, v)) for v in vectors]
    if not vecs:
        return True, 0
    width = len(vecs[0])
    if width % 2 != 0:
        raise ValueError(f"vector arity {width} is odd; expected 2(m-1) coordinates")
    for v in vecs:
        if len(v) != width:
            raise ValueError("inconsistent vector arities")
    half = width // 2
    reduced, pivots = rref(field, vecs)
    basis = reduced[: len(pivots)]
    dim = len(pivots)
    values = [sum(v[j] * v[half + j] for j in range(half)) for v in basis]
    values += [sum(v[j] * w[half + j] + w[j] * v[half + j] for j in range(half))
               for i, v in enumerate(basis) for w in basis[i + 1:]]
    p = field.char
    iso = all(x % p == 0 if p else x == 0 for x in values)
    if iso and dim > half:
        raise RuntimeError("isotropic subspace larger than half the ambient dimension")
    return iso, dim


# -- Prop-style avoidance check -------------------------------------------------


class AvoidanceReport(Record):
    size: int
    rank_constant: int
    rank_constant_ok: bool       # rank L(0) == m - 1
    mode: str
    avoids: bool | None          # None when the probabilistic run found nothing but proves nothing
    witness_point: tuple | None  # point where rank L(x) <= m - 2
    trials: int
    codim: int | None            # codim Sing(f), for the precondition note
    precondition_holds: bool | None
    notes: tuple

    def to_json(self) -> dict:
        point = self.witness_point
        return {**self.as_dict(),
                "witness_point": None if point is None else [str(x) for x in point]}


def check_avoids_singular_locus(
    mapping: AffineMatrixMap,
    f: Polynomial,
    mode: str = "exact",
    trials: int = 1000,
    seed: int = 0,
    limits: EngineLimits | None = None,
) -> AvoidanceReport:
    """Does the image of the map avoid the rank <= m-2 locus?

    Exact mode decides emptiness of the variety of all (m-1)-minors of L(x)
    through basis triviality. Probabilistic mode samples points; a sampled
    point of rank <= m-2 is a definite negative, while a clean run is only
    evidence. A rank-(m-1) constant part is necessary whenever the avoidance
    holds and f has singular-locus codimension above 4; the report records
    both facts and lets the caller see when the precondition fails, because a
    small codimension makes a rank defect informational, not contradictory.
    """
    if mode not in ("exact", "probabilistic"):
        raise ValueError(f"unknown mode {mode!r}")
    report = verify_expression(mapping, f, mode=mode, trials=max(trials, 64), seed=seed + 1)
    if not report.ok:
        raise ValueError("the map is not a determinantal expression of f (verification failed)")

    m = mapping.size
    field = mapping.field
    rank0 = mat_rank(field, mapping.constant_part())
    notes = []
    codim = codim_sing(f, limits=limits)
    precondition = codim > MIN_USEFUL_CODIM
    if not precondition:
        notes.append(
            f"codim Sing(f) = {codim} <= {MIN_USEFUL_CODIM}: avoidance is not forced for this target,"
            " so any rank defect below is informational"
        )
    if rank0 != m - 1:
        notes.append(f"rank of the constant part is {rank0}, not m - 1 = {m - 1}")

    witness, sampled = None, 0
    if mode == "exact":
        grid = mapping.entries
        minors = [symbolic_det([row[:j] + row[j + 1:] for row in grid[:i] + grid[i + 1:]])
                  for i in range(m) for j in range(m)]
        # every (m-1)-minor vanishing identically means rank <= m-2 everywhere;
        # buchberger seeds only nonzero generators, and a basis of none is not trivial
        avoids = buchberger(Ideal(mapping.vars, field, tuple(minors)), limits=limits).is_trivial()
    else:
        avoids = None
        rng = random.Random(seed)
        n = len(mapping.vars)
        sample = field.sample_range(max(128, 4 * m))
        for sampled in range(1, trials + 1):
            point = [rng.randrange(sample.start, sample.stop) for _ in range(n)]
            if mat_rank(field, mapping.evaluate(point)) <= m - 2:
                avoids, witness = False, tuple(map(field.of, point))
                break
        else:
            notes.append(f"no rank defect in {trials} samples; not a proof of avoidance")
    return AvoidanceReport(m, rank0, rank0 == m - 1, mode, avoids, witness, sampled,
                           codim, precondition, tuple(notes))


# -- the proof trace on a concrete expression -----------------------------------


class AnalysisReport(Record):
    size: int
    degree: int
    rank: int
    scalar: object
    branch: str  # "corank_one" (r = m-1) or "lower_rank"
    # corank-one fields
    z11_zero: bool | None = None
    quadric_relation_zero: bool | None = None
    ideal_generators: tuple = ()
    jacobian_in_ideal: bool | None = None
    f_in_ideal_square: bool | None = None
    dim_image: int | None = None
    image_isotropic: bool | None = None
    dim_bound_ok: bool | None = None
    codim_upper_bound: int | None = None
    # lower-rank fields
    graded_parts: tuple = ()          # ((degree, polynomial), ...) of det(J+Z)
    possible_degree_window: tuple | None = None  # (m - r, m)
    forced_vanishing_degrees: tuple = ()
    window_consistent: bool | None = None

    def all_proof_checks_pass(self) -> bool:
        if self.branch != "corank_one":
            return False
        return bool(
            self.z11_zero
            and self.quadric_relation_zero
            and self.jacobian_in_ideal
            and self.f_in_ideal_square
            and self.image_isotropic
            and self.dim_bound_ok
        )

    def to_json(self) -> dict:
        data = {
            "size": self.size,
            "degree": self.degree,
            "rank": self.rank,
            "scalar": str(self.scalar),
            "branch": self.branch,
        }
        if self.branch == "corank_one":
            data.update(
                {
                    "z11_zero": self.z11_zero,
                    "quadric_relation_zero": self.quadric_relation_zero,
                    "ideal_generators": [str(p) for p in self.ideal_generators],
                    "jacobian_in_ideal": self.jacobian_in_ideal,
                    "f_in_ideal_square": self.f_in_ideal_square,
                    "dim_image": self.dim_image,
                    "image_isotropic": self.image_isotropic,
                    "dim_bound_ok": self.dim_bound_ok,
                    "codim_upper_bound": self.codim_upper_bound,
                    "all_proof_checks_pass": self.all_proof_checks_pass(),
                }
            )
        else:
            data.update(
                {
                    "graded_parts": {str(d): str(p) for d, p in self.graded_parts},
                    "possible_degree_window": list(self.possible_degree_window),
                    "forced_vanishing_degrees": list(self.forced_vanishing_degrees),
                    "window_consistent": self.window_consistent,
                }
            )
        return data

    def render_text(self) -> str:
        lines = [
            f"size {self.size} expression of a degree-{self.degree} form,"
            f" constant part rank {self.rank} (scalar {self.scalar})",
        ]
        if self.branch == "corank_one":
            lines += [
                "corank-one branch:",
                f"  Z(1,1) vanishes: {self.z11_zero}",
                f"  sum Z(1,j)Z(j,1) vanishes: {self.quadric_relation_zero}",
                f"  first row/column span {len(self.ideal_generators)} linear form(s)",
                f"  Jacobian contained in that linear ideal: {self.jacobian_in_ideal}",
                f"  f contained in the ideal squared: {self.f_in_ideal_square}",
                f"  image dimension {self.dim_image}, isotropic: {self.image_isotropic},"
                f" within m-1: {self.dim_bound_ok}",
                f"  resulting codim upper bound: {self.codim_upper_bound}",
                f"  all proof checks pass: {self.all_proof_checks_pass()}",
            ]
        else:
            window = self.possible_degree_window
            lines += [
                "lower-rank branch:",
                f"  graded parts of det at degrees {[d for d, _ in self.graded_parts]}",
                f"  admissible degree window [{window[0]}, {window[1]}]",
                f"  degrees forced to vanish: {list(self.forced_vanishing_degrees)}",
                f"  window consistent with the target: {self.window_consistent}",
            ]
        return "\n".join(lines)


def analyze_expression(mapping: AffineMatrixMap, f: Polynomial) -> AnalysisReport:
    """Trace the corank-one argument on an exact expression of homogeneous f.

    After normalizing the constant part to the canonical rank-r matrix, the
    corank-one case (r = m-1) checks each step: the (1,1) entry of Z
    vanishes, the first row and column satisfy the quadric relation, the
    Jacobian of f lies in the linear ideal I they generate, f lies in I^2,
    and the image of x -> (Z_12..Z_1m, Z_21..Z_m1) is an isotropic subspace of
    dimension at most m-1, which caps codim Sing(f). Lower ranks get the
    graded-part report instead: which degrees of det(J+Z) may be nonzero and
    which homogeneity forces to vanish.
    """
    report = verify_expression(mapping, f, mode="exact")
    if not report.ok:
        raise ValueError("not an exact determinantal expression of f")
    if not f.is_homogeneous() or f.is_zero() or f.degree() <= 2:
        raise ValueError("analysis requires a homogeneous target of degree > 2")

    m = mapping.size
    d = int(f.degree())
    field = mapping.field
    left, right, r = rank_normal_decomposition(field, mapping.constant_part())
    scalar = field.of(mat_det(field, left) * mat_det(field, right))

    if r == m - 1:
        # P L Q = J_r + P Z Q, with Z = L - L(0) the linear part
        linear = [[entry - entry.constant_term() for entry in row] for row in mapping.entries]

        def z(i, j):  # (P Z Q)_ij = sum_kl P_ik Z_kl Q_lj
            return sum_of_products(mapping.vars, field, (), [
                linear[k][l].scale(left[i][k] * right[l][j])
                for k in range(m) if left[i][k] for l in range(m) if right[l][j]])

        row = [z(0, j) for j in range(m)]
        col = [z(i, 0) for i in range(m)]
        quad = sum_of_products(mapping.vars, field, zip(row[1:], col[1:]))
        forms = [p for p in row + col[1:] if not p.is_zero()]
        # the reduced basis of linear forms is their row echelon form, so
        # the normal form by it substitutes out the pivot variables
        basis = buchberger(Ideal(f.vars, field, tuple(forms)))
        jac_in = all(normal_form(f.partial_derivative(i), basis).is_zero()
                     for i in range(len(f.vars)))
        # f is in I^2 iff f and each of its partials are in I, in any characteristic
        f_in_sq = jac_in and normal_form(f, basis).is_zero()
        # the image of x -> (Z_12..Z_1m, Z_21..Z_m1) is spanned by one column
        # per variable; each term of a linear form carries a unit exponent
        border = row[1:] + col[1:]
        cols = [[field.zero] * len(border) for _ in mapping.vars]
        for slot, form in enumerate(border):
            for e, c in form.terms:
                cols[e.index(1)][slot] = c
        iso, dim_im = isotropic_dimension(cols, field)
        return AnalysisReport(
            size=m,
            degree=d,
            rank=r,
            scalar=scalar,
            branch="corank_one",
            z11_zero=row[0].is_zero(),
            quadric_relation_zero=quad.is_zero(),
            ideal_generators=tuple(forms),
            jacobian_in_ideal=jac_in,
            f_in_ideal_square=f_in_sq,
            dim_image=dim_im,
            image_isotropic=iso,
            dim_bound_ok=dim_im <= m - 1,
            codim_upper_bound=dim_im,
        )

    # det(P L Q) = det(P) det(Q) det(L), and det(L) = f was checked exactly
    # above; f is homogeneous, so this is det's only graded part
    parts = ((d, f.scale(scalar)),)
    window = (max(0, m - r), m)
    forced = tuple(k for k in range(window[0], window[1] + 1) if k != d)
    return AnalysisReport(
        size=m,
        degree=d,
        rank=r,
        scalar=scalar,
        branch="lower_rank",
        graded_parts=parts,
        possible_degree_window=window,
        forced_vanishing_degrees=forced,
        window_consistent=window[0] <= d <= window[1],
    )
