"""Random-sampling harness for the codimension law of determinant pullbacks.

For a linear map L into m x m matrices, the singular locus of det(L(x)) has
codimension at most min(4, n), whatever the entries are; equality is the
generic behaviour. The "at most" direction is characteristic-free, so a
single sampled violation is a bug somewhere. The genericity direction is a
characteristic-zero statement, so over a finite field the modal frequency is
reported rather than asserted.

Because the constant part is zero, det(L(x)) is homogeneous and its singular
locus is a cone through the origin; codimension can never exceed n and the
empty-locus sentinel of codim_sing cannot fire here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .fields import PrimeField
from .groebner import EngineLimits, ResourceCapError
from .matmap import AffineMatrixMap, symbolic_det
from .poly import Polynomial, VarSet
from .singularity import codim_sing

SAMPLE_TIME_LIMIT = 15.0  # seconds of Groebner work allowed per sample
SEED_STRIDE = 1_000_003   # trial t uses seed*SEED_STRIDE + t, so trials are
                          # independent and a run can be sharded without bias


@dataclass(frozen=True)
class SampleReport:
    n: int
    m: int
    p: int
    trials: int
    seed: int
    histogram: tuple        # ((codim, count), ...) ascending by codim
    degenerate: int         # samples with det identically zero
    timeouts: int           # samples whose Groebner run hit a resource cap
    violations: tuple       # (trial_index, codim) with codim > min(4, n)

    def __post_init__(self):
        binned = sum(c for _, c in self.histogram)
        if binned + self.degenerate + self.timeouts != self.trials:
            raise ValueError("histogram, degenerate and timeout counts must partition the trials")

    @property
    def law_bound(self) -> int:
        return min(4, self.n)

    @property
    def modal_codim(self) -> int | None:
        if not self.histogram:
            return None
        return max(self.histogram, key=lambda item: (item[1], -item[0]))[0]

    @property
    def modal_fraction(self) -> float:
        total = sum(c for _, c in self.histogram)
        if not total:
            return 0.0
        return max(c for _, c in self.histogram) / total

    @property
    def generic_mass_ok(self) -> bool:
        """Soft check: at least 90% of resolved samples sit at codim min(4, n).

        Heuristic only. Generic equality is proved over algebraically closed
        fields of characteristic zero; uniform sampling over a prime field is
        a proxy for that, not an instance of it.
        """
        return self.modal_codim == self.law_bound and self.modal_fraction >= 0.9

    def to_json(self) -> dict:
        return {
            "parameters": {"n": self.n, "m": self.m, "p": self.p,
                           "trials": self.trials, "seed": self.seed},
            "histogram": {str(k): v for k, v in self.histogram},
            "degenerate": self.degenerate,
            "timeouts": self.timeouts,
            "violations": [list(v) for v in self.violations],
            "law_bound": self.law_bound,
            "modal_codim": self.modal_codim,
            "modal_fraction": self.modal_fraction,
            "generic_mass_ok": self.generic_mass_ok,
            "note": "generic equality is a characteristic-zero statement; "
                    "finite-field frequencies are heuristic",
        }

    def to_csv(self) -> str:
        lines = ["codim,count"]
        lines += [f"{k},{v}" for k, v in self.histogram]
        if self.degenerate:
            lines.append(f"degenerate,{self.degenerate}")
        if self.timeouts:
            lines.append(f"timeout,{self.timeouts}")
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        lines = [
            f"sampled codim of Sing(det(L)) for linear L: k^{self.n} -> {self.m}x{self.m} over F_{self.p}",
            f"trials {self.trials}, seed {self.seed}, law bound min(4, n) = {self.law_bound}",
        ]
        for k, v in self.histogram:
            lines.append(f"  codim {k}: {v}")
        if self.degenerate:
            lines.append(f"  det == 0: {self.degenerate}")
        if self.timeouts:
            lines.append(f"  timeout: {self.timeouts}")
        if self.violations:
            lines.append(f"  VIOLATIONS of the bound: {list(self.violations)}")
        else:
            lines.append("  no violations of the bound")
        if self.histogram:
            lines.append(
                f"  modal codim {self.modal_codim} with mass {self.modal_fraction:.0%}"
                f" ({'matches' if self.generic_mass_ok else 'below'} the 90% genericity heuristic;"
                " generic equality is proved in characteristic zero only)"
            )
        return "\n".join(lines)


def _random_linear_map(n: int, m: int, field: PrimeField, rng: random.Random) -> AffineMatrixMap:
    names = VarSet(tuple(f"x{i + 1}" for i in range(n)))
    rows = []
    for _ in range(m):
        row = []
        for _ in range(m):
            coeffs = {}
            for k in range(n):
                c = rng.randrange(field.char)
                if c:
                    e = tuple(1 if t == k else 0 for t in range(n))
                    coeffs[e] = c
            row.append(Polynomial.from_dict(names, field, coeffs))
        rows.append(tuple(row))
    return AffineMatrixMap(names, field, tuple(rows))


def sample_codim(n: int, m: int, p: int, trials: int, seed: int = 0,
                 sample_limits: EngineLimits | None = None) -> SampleReport:
    """Draw uniform zero-constant linear maps and bin codim_sing of their dets."""
    if m < 2:
        raise ValueError("the codimension law assumes m >= 2")
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    field = PrimeField(p)
    bound = min(4, n)
    hist: dict = {}
    degenerate = 0
    timeouts = 0
    violations = []
    for t in range(trials):
        rng = random.Random(seed * SEED_STRIDE + t)
        mapping = _random_linear_map(n, m, field, rng)
        det = symbolic_det(mapping)
        if det.is_zero():
            degenerate += 1
            continue
        limits = sample_limits if sample_limits is not None else EngineLimits(
            time_limit=SAMPLE_TIME_LIMIT)
        try:
            codim = codim_sing(det, limits=limits)
        except ResourceCapError:
            timeouts += 1
            continue
        hist[codim] = hist.get(codim, 0) + 1
        if codim > bound:
            violations.append((t, codim))
    return SampleReport(
        n=n, m=m, p=p, trials=trials, seed=seed,
        histogram=tuple(sorted(hist.items())),
        degenerate=degenerate,
        timeouts=timeouts,
        violations=tuple(violations),
    )


def cone_reduce(mapping: AffineMatrixMap):
    """Eliminate the kernel of a zero-constant linear map.

    Writes each entry in terms of a basis of the functionals actually used,
    giving an injective map in n' = n - dim(ker) fresh variables y1..yn' with
    the same determinant up to the substitution, hence the same singular-locus
    codimension (the locus is a cone pulled back along a surjection).
    """
    from .linalg import rref

    field = mapping.field
    n = len(mapping.vars)
    m = len(mapping.entries)
    rows = []
    for i in range(m):
        for j in range(m):
            entry = mapping.entries[i][j]
            if entry.degree() > 1 or any(sum(e) == 0 for e, _ in entry.terms):
                raise ValueError("cone_reduce needs linear entries with zero constant part")
            coeffs = [field.zero] * n
            for e, c in entry.terms:
                coeffs[e.index(1)] = c
            rows.append(coeffs)
    reduced, pivots = rref(field, rows)
    rank = len(pivots)
    kernel_dim = n - rank
    if rank == 0:
        empty = VarSet(())
        zero = Polynomial.zero(empty, field)
        grid = tuple(tuple(zero for _ in range(m)) for _ in range(m))
        return AffineMatrixMap(empty, field, grid), kernel_dim
    names = VarSet(tuple(f"y{s + 1}" for s in range(rank)))
    grid = []
    for i in range(m):
        grid_row = []
        for j in range(m):
            coeffs = rows[i * m + j]
            # coordinates in the rref basis are read off at the pivot columns
            d = {}
            for s, col in enumerate(pivots):
                c = coeffs[col]
                if c != field.zero:
                    e = tuple(1 if t == s else 0 for t in range(rank))
                    d[e] = c
            grid_row.append(Polynomial.from_dict(names, field, d))
        grid.append(tuple(grid_row))
    return AffineMatrixMap(names, field, tuple(grid)), kernel_dim
