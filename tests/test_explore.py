"""Codimension sampling across random determinantal hypersurfaces."""

import random

import pytest

from detcomp.explore import SEED_STRIDE, SampleReport, _random_linear_map, cone_reduce, sample_codim
from detcomp.fields import Fp, PrimeField
from detcomp.groebner import EngineLimits, StaircaseBound, buchberger
from detcomp.matmap import AffineMatrixMap, symbolic_det
from detcomp.parsing import parse_polynomial
from detcomp.poly import Polynomial, varset
from detcomp.singularity import codim_sing, jacobian_ideal


def linear_map(rows, vars, field):
    grid = [
        [parse_polynomial(cell, vars=vars, field=field) for cell in row]
        for row in rows
    ]
    return AffineMatrixMap.from_rows(vars, field, grid)


# ----------------------------------------------------------------- sampling


def test_sampling_is_reproducible():
    a = sample_codim(n=2, m=2, p=101, trials=8, seed=5)
    b = sample_codim(n=2, m=2, p=101, trials=8, seed=5)
    assert a == b
    c = sample_codim(n=2, m=2, p=101, trials=8, seed=6)
    assert a.seed != c.seed


def test_partition_invariant_holds():
    rep = sample_codim(n=3, m=2, p=11, trials=12, seed=1)
    binned = sum(count for _, count in rep.histogram)
    assert binned + rep.degenerate + rep.timeouts == rep.trials


def test_partition_invariant_enforced():
    with pytest.raises(ValueError):
        SampleReport(
            n=2, m=2, p=5, trials=10, seed=0,
            histogram=((2, 3),), degenerate=0, timeouts=0, violations=(),
        )


def test_law_bound_never_violated_on_mixed_shapes():
    for n, m in ((1, 2), (2, 2), (3, 2), (5, 2)):
        rep = sample_codim(n=n, m=m, p=101, trials=6, seed=2)
        assert rep.violations == ()
        assert rep.law_bound == min(4, n)
        for codim, _ in rep.histogram:
            assert codim <= rep.law_bound


def test_two_variable_samples_concentrate_at_two():
    rep = sample_codim(n=2, m=2, p=101, trials=20, seed=0)
    assert rep.modal_codim == 2
    assert rep.modal_fraction >= 0.9
    assert rep.generic_mass_ok


def test_report_serializations():
    rep = sample_codim(n=2, m=2, p=11, trials=5, seed=0)
    data = rep.to_json()
    assert data["parameters"]["n"] == 2 and data["parameters"]["p"] == 11
    assert data["law_bound"] == 2
    assert "characteristic-zero" in data["note"]
    assert sum(data["histogram"].values()) + data["degenerate"] + data["timeouts"] == 5
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "codim,count"
    text = rep.render_text()
    assert "law bound" in text
    assert "no violations" in text


def test_sampling_argument_validation():
    with pytest.raises(ValueError):
        sample_codim(n=2, m=1, p=5, trials=3)
    with pytest.raises(ValueError):
        sample_codim(n=0, m=2, p=5, trials=3)
    with pytest.raises(ValueError):
        sample_codim(n=2, m=2, p=5, trials=0)


@pytest.mark.parametrize("p", [101, 2])
@pytest.mark.parametrize("n, m", [(5, 3), (4, 4), (3, 3), (2, 2)])
def test_law_capped_codim_matches_the_full_engine(n, m, p):
    """Each trial stops once its staircase reaches min(4, n); the codim it
    reports is the full run's, at the cap and, over F_2, often below it.
    Here every trial at the cap stops before its run ends."""
    field = PrimeField(p)
    cap = min(4, n)
    seed = 3
    full, stopped = {}, 0
    for t in range(8):
        rng = random.Random(seed * SEED_STRIDE + t)
        det = symbolic_det(_random_linear_map(n, m, field, rng))
        if det.is_zero():
            continue
        codim = codim_sing(det)
        full[codim] = full.get(codim, 0) + 1
        assert codim_sing(det, at_most=cap) == codim
        run = buchberger(jacobian_ideal(det), stop_codim=cap)
        if isinstance(run, StaircaseBound):
            stopped += 1
            assert run.codim == codim == cap
    assert stopped == full.get(cap, 0)
    report = sample_codim(n=n, m=m, p=p, trials=8, seed=seed)
    assert report.histogram == tuple(sorted(full.items()))
    assert report.violations == ()


def test_timeout_bin_counts_capped_samples():
    rep = sample_codim(
        n=4, m=3, p=101, trials=3, seed=0,
        sample_limits=EngineLimits(max_pairs=0),
    )
    assert rep.timeouts + rep.degenerate == rep.trials
    assert rep.timeouts >= 1
    assert rep.histogram == ()


def test_degenerate_samples_are_counted_apart_from_the_histogram():
    # over F_2 most random 2x2 maps in one variable have det identically zero
    rep = sample_codim(n=1, m=2, p=2, trials=20, seed=0)
    assert (rep.degenerate, rep.histogram, rep.timeouts) == (12, ((1, 8),), 0)
    assert "degenerate,12" in rep.to_csv().splitlines()
    assert "det == 0: 12" in rep.render_text()


# -------------------------------------------------------------- cone_reduce


def test_cone_reduce_drops_unused_directions():
    F = Fp(7)
    vs = varset("x1", "x2", "x3")
    mapping = linear_map([["x1", "0"], ["0", "x1"]], vs, F)
    reduced, kernel_dim = cone_reduce(mapping)
    assert kernel_dim == 2
    assert len(reduced.vars) == 1
    assert tuple(reduced.vars) == ("y1",)
    assert symbolic_det(reduced) == parse_polynomial("y1^2", vars=reduced.vars, field=F)


def test_cone_reduce_injective_is_isomorphic():
    F = Fp(7)
    vs = varset("x1", "x2")
    mapping = linear_map([["x1", "x2"], ["x2", "x1"]], vs, F)
    reduced, kernel_dim = cone_reduce(mapping)
    assert kernel_dim == 0
    assert len(reduced.vars) == 2
    # same determinant after the variable relabeling x_i -> basis functional
    det_orig = symbolic_det(mapping)
    det_red = symbolic_det(reduced)
    assert det_red == Polynomial(reduced.vars, det_orig.field, det_orig.terms)


def test_cone_reduce_zero_map():
    F = Fp(5)
    vs = varset("x1", "x2")
    zero = Polynomial.zero(vs, F)
    mapping = AffineMatrixMap(vs, F, ((zero, zero), (zero, zero)))
    reduced, kernel_dim = cone_reduce(mapping)
    assert kernel_dim == 2
    assert len(reduced.vars) == 0
    assert all(p.is_zero() for row in reduced.entries for p in row)


def test_cone_reduce_rejects_affine_entries():
    F = Fp(5)
    vs = varset("x1")
    with pytest.raises(ValueError):
        cone_reduce(linear_map([["x1 + 1"]], vs, F))
    with pytest.raises(ValueError):
        cone_reduce(linear_map([["1"]], vs, F))


def test_cone_reduce_preserves_codimension():
    """Random non-injective maps keep codim_sing after the reduction."""
    import random as _random

    F = Fp(7)
    vs = varset("x1", "x2", "x3", "x4")
    checked = 0
    for trial in range(30):
        local = _random.Random(900 + trial)
        rows = []
        for _ in range(2):
            row = []
            for _ in range(2):
                # sample from a 2-dim subspace so the kernel is nontrivial
                a, b = local.randrange(7), local.randrange(7)
                coeffs = {}
                if a:
                    coeffs[(1, 0, 0, 0)] = a
                    coeffs[(0, 0, 1, 0)] = a
                if b:
                    coeffs[(0, 1, 0, 0)] = b
                row.append(Polynomial.from_dict(vs, F, coeffs))
            rows.append(row)
        mapping = AffineMatrixMap.from_rows(vs, F, rows)
        det = symbolic_det(mapping)
        if det.is_zero():
            continue
        reduced, kernel_dim = cone_reduce(mapping)
        assert kernel_dim >= 2
        det_red = symbolic_det(reduced)
        assert codim_sing(det) == codim_sing(det_red)
        checked += 1
        if checked >= 5:
            break
    assert checked >= 5
