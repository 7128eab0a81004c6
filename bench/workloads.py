"""The five benchmark workloads: their fixed instances, seeded inputs and checks.

A workload is a list of jobs. ``build(seed)`` makes the inputs (the set-up
the benchmark times as ``setup_s``) and returns the jobs; each job is called
with a ``state`` dict shared by the jobs of one pass and returns the library's
own result, which its check compares against the expected value. A check
returns None when the result is right and a one-line reason when it is not.

Jobs call the library through module attributes (``singularity.certify_lower_bound``
rather than a name imported into this file), so a traced run sees every call.
README.md in this directory gives the reason for each workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from detcomp import explore, expressions, groebner, linalg, matmap, search, singularity
from detcomp.fields import QQ, Fp
from detcomp.matmap import AffineMatrixMap, generic_det_polynomial, perm_polynomial
from detcomp.parsing import parse_polynomial
from detcomp.poly import Polynomial, varset


@dataclass
class Job:
    name: str
    run: Callable        # run(state) -> result
    check: Callable      # check(result) -> None, or the reason it is wrong


def _expect(label, got, want):
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _first(*reasons):
    return next((r for r in reasons if r), None)


def _zero_entries(f: Polynomial, names) -> Polynomial:
    """f with the named variables set to 0, through substitute_affine."""
    images = [Polynomial.zero(f.vars, f.field) if v in names
              else Polynomial.variable(f.vars, f.field, i)
              for i, v in enumerate(f.vars)]
    return f.substitute_affine(images)


def _fermat_cubic(n: int) -> Polynomial:
    names = varset(*(f"x{i + 1}" for i in range(n)))
    f = Polynomial.zero(names, QQ)
    for i in range(n):
        f = f + Polynomial.variable(names, QQ, i) ** 3
    return f


# -- certify -------------------------------------------------------------------

SIX_EQUATIONS = (
    "x*y^2: beta*X23 - gamma*X43 = 1",
    "x*y*z: beta*X22 - beta*X33 - gamma*X42 - alpha*X43 = 0",
    "x*z^2: -beta*X32 - alpha*X42 = 0",
    "x*y*t: alpha*X23 + beta*X24 + gamma*X33 - gamma*X44 = 0",
    "x*z*t: alpha*X22 + gamma*X32 - beta*X34 - alpha*X44 = 0",
    "x*t^2: alpha*X24 + gamma*X34 = 0",
)
SIX_VERDICTS = {"unrestricted": "feasible", "alpha_nonzero": "infeasible",
                "gamma_zero": "feasible"}


def _certificate(f, codim, bound, basis_size):
    def run(state):
        return singularity.certify_lower_bound(f)

    def check(cert):
        # The reduced basis is unique for the order, so its size is part of
        # the answer; the pair count is work and is only reported.
        return _first(_expect("codim", cert.codim, codim),
                      _expect("bound", cert.bound, bound),
                      _expect("reduced basis size", cert.stats.basis_size, basis_size))
    return run, check


def _check_cases(report):
    verdicts = {v.case: v.status for v in report.six_verdicts}
    return _first(_expect("six equations", report.six_equations, SIX_EQUATIONS),
                  _expect("six-equation verdicts", verdicts, SIX_VERDICTS),
                  _expect("six_matches_claim", report.six_matches_claim, False),
                  _expect("abg_zero_infeasible", report.abg_zero_infeasible, True))


def certify(seed: int) -> list:
    # Fixed instances: the seed has nothing random to drive here.
    F = Fp(32003)
    perm4_x11 = _zero_entries(perm_polynomial(4, F), {"x11"})
    det3 = generic_det_polynomial(3)
    return [
        Job("perm4_x11_0_Fp", *_certificate(perm4_x11, 6, 7, 510)),
        Job("perm3_Fp", *_certificate(perm_polynomial(3, F), 6, 7, 24)),
        Job("perm3_Q", *_certificate(perm_polynomial(3), 6, 7, 24)),
        Job("fermat_cubic_5", *_certificate(_fermat_cubic(5), 5, 6, 5)),
        Job("det3_codim", lambda state: singularity.codim_sing(det3),
            lambda codim: _expect("codim", codim, 4)),
        Job("cubic_case_six", lambda state: expressions.cubic_case_analysis(include_full=False),
            _check_cases),
    ]


# -- sampling --------------------------------------------------------------------

SAMPLES_5_3 = 150
SAMPLES_4_4 = 8


def _trial(n, m, trial_seed):
    def run(state):
        return explore.sample_codim(n=n, m=m, p=101, trials=1, seed=trial_seed)

    def check(report):
        return _first(_expect("violations", report.violations, ()),
                      _expect("timeouts", report.timeouts, 0))
    return Job(f"sample_{n}_{m}_{trial_seed}", run, check)


def sampling(seed: int) -> list:
    # Each trial is one job (one operation): sample_codim with trials=1 and a
    # trial seed drawn from the workload seed.
    rng = random.Random(seed)
    jobs = [_trial(5, 3, rng.randrange(1 << 30)) for _ in range(SAMPLES_5_3)]
    jobs += [_trial(4, 4, rng.randrange(1 << 30)) for _ in range(SAMPLES_4_4)]
    return jobs


# -- reverify --------------------------------------------------------------------


def reverify(seed: int) -> list:
    # Fixed instances. The bases are computed here, in set-up, so the timed
    # part runs the independent S-pair oracle and nothing of the engine.
    F = Fp(32003)
    slice_ideal = singularity.jacobian_ideal(_zero_entries(perm_polynomial(4, F), {"x11", "x22"}))
    bases = [
        ("perm4_x11_x22_0_Fp", groebner.buchberger(slice_ideal), 206),
        ("perm3_Fp", groebner.buchberger(singularity.jacobian_ideal(perm_polynomial(3, F))), 24),
        ("det3_Q", groebner.buchberger(singularity.jacobian_ideal(generic_det_polynomial(3))), None),
    ]
    for name, gb, size in bases:
        if size is not None and len(gb.polys) != size:
            raise RuntimeError(f"set-up basis {name} has {len(gb.polys)} elements, expected {size}")
    return [Job(f"oracle_{name}", lambda state, gb=gb: groebner.is_groebner_basis(gb),
                lambda ok: _expect("is_groebner_basis", ok, True))
            for name, gb, _ in bases]


# -- determinant -----------------------------------------------------------------

PROBABILISTIC_TRIALS = 200
DENSE_SIZES = (10, 12)
DENSE_CHECK_POINTS = 4


def _grenet(n, size, abp, target):
    def run(state):
        mapping = expressions.abp_to_determinant(abp)
        state[n] = mapping
        return mapping, matmap.verify_expression(mapping, target, mode="exact")

    def check(result):
        mapping, report = result
        return _first(_expect("size", mapping.size, size), _expect("exact ok", report.ok, True))
    return Job(f"grenet_{n}", run, check)


def _dense_map(size, rng):
    """Affine size x size map in x, y over F_32003 with every coefficient nonzero."""
    F = Fp(32003)
    V = varset("x", "y")
    rows = tuple(
        tuple(Polynomial.from_dict(V, F, {(0, 0): rng.randrange(1, F.char),
                                          (1, 0): rng.randrange(1, F.char),
                                          (0, 1): rng.randrange(1, F.char)})
              for _ in range(size))
        for _ in range(size))
    return AffineMatrixMap(V, F, rows)


def _dense(mapping, points):
    def run(state):
        return matmap.symbolic_det(mapping, algorithm="auto")

    def check(det):
        # An independent value: Gaussian elimination on the evaluated matrix.
        for point in points:
            want = linalg.mat_det(mapping.field, mapping.evaluate(point))
            got = det.evaluate(point).value
            if got != want:
                return f"det at {point}: got {got}, elimination gives {want}"
        return None
    return Job(f"dense_auto_{mapping.size}", run, check)


def determinant(seed: int) -> list:
    rng = random.Random(seed)
    targets = {n: perm_polynomial(n) for n in (2, 3, 4)}
    jobs = [_grenet(n, size, expressions.grenet_abp(n), targets[n])
            for n, size in ((2, 3), (3, 7), (4, 15))]

    verify_seed = rng.randrange(1 << 30)

    def probabilistic(state):
        return matmap.verify_expression(state[4], targets[4], mode="probabilistic",
                                        trials=PROBABILISTIC_TRIALS, seed=verify_seed)

    jobs.append(Job("grenet_4_probabilistic", probabilistic, lambda report: _first(
        _expect("probabilistic ok", report.ok, True),
        _expect("trials", report.trials, PROBABILISTIC_TRIALS))))
    for size in DENSE_SIZES:
        mapping = _dense_map(size, rng)
        points = [[rng.randrange(mapping.field.char) for _ in mapping.vars]
                  for _ in range(DENSE_CHECK_POINTS)]
        jobs.append(_dense(mapping, points))
    return jobs


# -- search ----------------------------------------------------------------------


def _dc(text, names, p, m_max, want):
    f = parse_polynomial(text, vars=varset(*names), field=Fp(p))
    return Job(f"dc[{text}]_F{p}", lambda state: search.dc_exact(f, m_max),
               lambda result: _expect("dc", result.value, want))


def _search(text, names, p, m, hits):
    spec = search.SearchSpec(parse_polynomial(text, vars=varset(*names), field=Fp(p)), m)
    return Job(f"search[{text}]_F{p}_m{m}", lambda state: search.search_report(spec),
               lambda report: _first(_expect("hits", len(report.found), hits),
                                     _expect("exhausted", report.exhausted, True)))


def search_workload(seed: int) -> list:
    # Fixed instances: exhaustive search has nothing random to drive.
    return [
        _dc("x*y", "xy", 2, 3, 2),
        _dc("x^3", "x", 2, 3, 3),
        _dc("x^2 + y*z", "xyz", 3, 2, 2),
        _search("x*y + z*t", "xyzt", 2, 2, 72),
        _search("x^2 + y^2", "xy", 3, 2, 288),
    ]


WORKLOADS = {
    "certify": certify,
    "sampling": sampling,
    "reverify": reverify,
    "determinant": determinant,
    "search": search_workload,
}
