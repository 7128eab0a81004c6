"""Groebner engine: reduced bases, normal forms, dimension, resource caps."""

import ast
import functools
import hashlib
import itertools
import pathlib
import random
import tracemalloc
from heapq import heapify, heappop, heappush

import pytest

from detcomp import explore, groebner, slots, verify
from detcomp.cli import main
from detcomp.fields import QQ, FieldMismatchError, Fp
from detcomp.groebner import (
    EngineLimits,
    GroebnerBasis,
    GroebnerStats,
    Ideal,
    ResourceCapError,
    StaircaseBound,
    buchberger,
    normal_form,
    staircase_dimension,
)
from detcomp.matmap import generic_det_polynomial, perm_polynomial, symbolic_det
from detcomp.parsing import parse_polynomial
from detcomp.poly import (
    Polynomial,
    VarSet,
    mono_divides,
    mono_key,
    varset,
)
from detcomp.singularity import codim_sing, jacobian_ideal
from detcomp.verify import (
    groebner_failure_witness,
    is_groebner_basis,
    membership_failure_witness,
)
from support import ideal_of, naive_normal_form, random_polynomial

XY = varset("x", "y")
XYZ = varset("x", "y", "z")


def mono_mul(a, b):
    """Reference exponent-tuple product, for checking the packed term keys."""
    return tuple(x + y for x, y in zip(a, b))


def mono_div(b, a):
    """Reference exponent-tuple quotient b / a; the caller guarantees divisibility."""
    return tuple(y - x for x, y in zip(a, b))


def P(text, vars=XYZ, field=QQ):
    return parse_polynomial(text, vars=vars, field=field)


def ideal(*texts, vars=XYZ, field=QQ):
    return ideal_of(*(P(t, vars, field) for t in texts))


def poly_ring(vars, field):
    return tuple(Polynomial.variable(vars, field, i) for i in range(len(vars)))


def dimension(ideal_or_basis):
    """Dimension of the affine variety; -1 for the empty variety."""
    gb = ideal_or_basis
    if isinstance(gb, Ideal):
        gb = buchberger(gb)
    return staircase_dimension(gb.leading_monomials(), len(gb.vars))


# ------------------------------------------------------------------- basics


def test_principal_ideal_basis():
    gb = buchberger(ideal("x - 1", vars=XY))
    assert [str(p) for p in gb.polys] == ["x - 1"]


def test_monomial_ideal_already_reduced():
    gb = buchberger(ideal("x^2", "x*y", vars=XY))
    assert {str(p) for p in gb.polys} == {"x^2", "x*y"}


def test_twisted_cubic_style_basis_f7():
    """x^2 = y, x^3 = z over F_7; every S-polynomial must reduce to zero."""
    gb = buchberger(ideal("x^2 - y", "x^3 - z", vars=XYZ, field=Fp(7)))
    assert is_groebner_basis(gb)
    assert groebner_failure_witness(gb) is None
    # manual S-pair sweep with the naive reducer as the oracle
    polys = list(gb.polys)
    field = gb.field
    for f, g in itertools.combinations(polys, 2):
        from detcomp.poly import mono_lcm

        lf, lg = f.leading_monomial(), g.leading_monomial()
        lcm = mono_lcm(lf, lg)
        mf = Polynomial.from_dict(gb.vars, field, {mono_div(lcm, lf): field.one})
        mg = Polynomial.from_dict(gb.vars, field, {mono_div(lcm, lg): field.one})
        spoly = mf * f - mg * g  # the reduced basis is monic
        assert naive_normal_form(spoly, polys).is_zero()
    # the cubic relation y*x - z is a consequence
    assert normal_form(P("x*y - z", field=Fp(7)), gb).is_zero()


def test_basis_is_monic_and_sorted(rng):
    for _ in range(10):
        gens = [random_polynomial(XYZ, Fp(13), rng, degree=2, terms=3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(ideal_of(*gens))
        lms = gb.leading_monomials()
        for p in gb.polys:
            assert p.terms[0][1] == gb.field.one
        from detcomp.poly import mono_key

        keys = [mono_key(e) for e in lms]
        assert keys == sorted(keys)
        # reduced: no leading monomial divides a monomial of another element
        from detcomp.poly import mono_divides

        for i, p in enumerate(gb.polys):
            for e, _ in p.terms:
                for j, q in enumerate(gb.polys):
                    if i != j:
                        assert not mono_divides(q.leading_monomial(), e)


def test_deterministic_output(rng):
    gens = [random_polynomial(XYZ, Fp(13), rng, degree=2, terms=4) for _ in range(3)]
    a = buchberger(ideal_of(*gens))
    b = buchberger(ideal_of(*gens))
    assert [str(p) for p in a.polys] == [str(p) for p in b.polys]


def test_generator_order_does_not_change_basis(rng):
    gens = [
        P("x^2 - y", field=Fp(7)),
        P("x*y - z", field=Fp(7)),
        P("y^2 - x*z", field=Fp(7)),
    ]
    reference = {str(p) for p in buchberger(ideal_of(*gens)).polys}
    for perm in itertools.permutations(gens):
        got = {str(p) for p in buchberger(ideal_of(*perm)).polys}
        assert got == reference


def test_criteria_do_not_change_the_basis(rng):
    for _ in range(8):
        gens = [random_polynomial(XYZ, Fp(7), rng, degree=2, terms=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        fast = buchberger(ideal_of(*gens), use_criteria=True)
        slow = buchberger(ideal_of(*gens), use_criteria=False)
        assert [str(p) for p in fast.polys] == [str(p) for p in slow.polys]


def test_mixed_ring_generators_rejected():
    with pytest.raises(FieldMismatchError):
        Ideal(XY, QQ, (P("x", XY), P("x", XY, Fp(5))))


# ------------------------------------------------------------- normal forms


def test_normal_form_examples():
    gb = buchberger(ideal("x^2", vars=XY))
    assert normal_form(P("x^2*y", XY), gb).is_zero()
    assert normal_form(P("x*y + y", XY), gb) == P("x*y + y", XY)
    gb2 = buchberger(ideal("x - y", vars=XY))
    assert normal_form(P("x^3", XY), gb2) == P("y^3", XY)


def test_generators_reduce_to_zero(rng):
    for _ in range(6):
        gens = [random_polynomial(XYZ, Fp(7), rng, degree=2, terms=3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(ideal_of(*gens))
        for g in gens:
            assert normal_form(g, gb).is_zero()


def test_normal_form_is_idempotent_and_linear(rng):
    gb = buchberger(ideal("x^2 - y", "y^2 - z", field=Fp(11)))
    for _ in range(20):
        f = random_polynomial(XYZ, Fp(11), rng, degree=3, terms=4)
        g = random_polynomial(XYZ, Fp(11), rng, degree=3, terms=4)
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf
        assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)


def test_membership_is_stable_under_ideal_shifts(rng):
    """nf(q*g + h) == nf(h) for any generator g and any multiplier q."""
    gens = [P("x^2 - y", field=Fp(7)), P("y*z - 1", field=Fp(7))]
    gb = buchberger(ideal_of(*gens))
    for _ in range(25):
        q = random_polynomial(XYZ, Fp(7), rng, degree=2, terms=3)
        h = random_polynomial(XYZ, Fp(7), rng, degree=3, terms=4)
        for g in gens:
            assert normal_form(q * g + h, gb) == normal_form(h, gb)


def test_naive_reducer_agrees_on_groebner_input(rng):
    gb = buchberger(ideal("x^2 - y", "x*z - y", field=Fp(5)))
    for _ in range(15):
        f = random_polynomial(XYZ, Fp(5), rng, degree=3, terms=4)
        assert normal_form(f, gb) == naive_normal_form(f, list(gb.polys))


@pytest.mark.parametrize("field, want, want_reversed", [
    (QQ, "1/2*y^3 + 1/4*y^2 - y*z", "3/2*x*z - y*z + 9*z^2"),
    (Fp(7), "4*y^3 + 2*y^2 + 6*y*z", "5*x*z + 6*y*z + 2*z^2"),
], ids=["Q", "F7"])
def test_naive_normal_form_full_remainder_on_non_groebner_list(field, want, want_reversed):
    """Textbook division returns the whole remainder, and on a list that is
    not a Groebner basis the remainder depends on the divisor order.
    Recorded from the dict-scanning reducer the heap-driven one replaced."""
    divisors = [P("2*x^2 - y", field=field), P("x*y - 3*z", field=field)]
    f = P("x^4 + x^2*y^2 - y*z", field=field)
    assert naive_normal_form(f, divisors) == P(want, field=field)
    assert naive_normal_form(f, divisors[::-1]) == P(want_reversed, field=field)
    assert naive_normal_form(f, [Polynomial.zero(XYZ, field)] + divisors) == P(want, field=field)


# --------------------------------------------------- triviality and points


def exhaustive_f3_points(gens):
    pts = []
    for pt in itertools.product(range(3), repeat=3):
        if all(g.evaluate(pt).value == 0 for g in gens):
            pts.append(pt)
    return pts


def test_trivial_basis_means_no_points(rng):
    """Exhaustive F_3 point search is the oracle, one direction each way."""
    field = Fp(3)
    interesting = 0
    for trial in range(40):
        local = [
            random_polynomial(XYZ, field, rng, degree=2, terms=3) for _ in range(3)
        ]
        local = [g for g in local if not g.is_zero()]
        if not local:
            continue
        gb = buchberger(ideal_of(*local))
        pts = exhaustive_f3_points(local)
        if gb.is_trivial():
            assert pts == []
            interesting += 1
        if pts:
            assert not gb.is_trivial()
    assert interesting >= 1


def test_unit_ideal_is_trivial():
    gb = buchberger(ideal("x", "x - 1", vars=XY))
    assert gb.is_trivial()
    assert dimension(gb) == -1
    assert normal_form(P("1", XY), gb).is_zero()


# ------------------------------------------------------------------ dimension


def test_coordinate_subspace_dimensions():
    names = ("x1", "x2", "x3", "x4", "x5")
    vs = varset(*names)
    gens = poly_ring(vs, QQ)
    for k in range(1, 6):
        gb = buchberger(ideal_of(*gens[:k]))
        assert dimension(gb) == 5 - k


def test_zero_dimensional_and_hypersurface():
    assert dimension(ideal("x", "y", "z")) == 0
    assert dimension(ideal("x*y - 1", vars=XY)) == 1
    assert dimension(ideal("x^2 + y^2 - 1", vars=XY)) == 1


def test_staircase_dimension_direct():
    assert staircase_dimension([], 4) == 4
    assert staircase_dimension([(0, 0)], 2) == -1
    assert staircase_dimension([(1, 0), (0, 1)], 2) == 0
    assert staircase_dimension([(2, 1, 0)], 3) == 2


def staircase_by_enumeration(lead_monomials, n):
    """Reference: the variable subsets from size n down, the first that
    contains the support of no leading monomial."""
    masks = set()
    for e in lead_monomials:
        if sum(e) == 0:
            return -1
        masks.add(sum(1 << i for i, x in enumerate(e) if x))
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            smask = sum(1 << i for i in subset)
            if all(m & ~smask for m in masks):
                return size
    return 0


def test_staircase_dimension_matches_enumeration():
    rng = random.Random(8500)
    seen = set()
    for n in range(17):
        for _ in range(12 if n < 13 else 3):
            lms = []
            for _ in range(rng.randint(0, 7) if n else 0):
                e = [0] * n
                for i in rng.sample(range(n), rng.randint(1, min(n, 3))):
                    e[i] = rng.randint(1, 3)
                lms.append(tuple(e))
            if rng.random() < 0.1:
                lms.insert(rng.randint(0, len(lms)), (0,) * n)
            got = staircase_dimension(lms, n)
            assert got == staircase_by_enumeration(lms, n), (n, lms)
            seen.add("empty" if got == -1 else "full" if got == n else "between")
    assert seen == {"empty", "full", "between"}


def test_dimension_accepts_ideal_or_basis():
    idl = ideal("x - y", vars=XY)
    gb = buchberger(idl)
    assert dimension(idl) == dimension(gb) == 1


def test_det2_jacobian_has_codim_four():
    """Partials of the 2x2 determinant cut out the zero matrix only."""
    from detcomp.matmap import generic_det_polynomial

    det2 = generic_det_polynomial(2)
    gens = [det2.partial_derivative(i) for i in range(4)]
    gb = buchberger(ideal_of(*gens))
    assert dimension(gb) == 0
    assert len(det2.vars) - dimension(gb) == 4


# ------------------------------------------------------------------- limits


def test_pair_cap_raises():
    limits = EngineLimits(max_pairs=0)
    with pytest.raises(ResourceCapError) as ei:
        buchberger(ideal("x^2 - y", "x^3 - z", "y^2 - x*z"), limits=limits)
    assert "pair limit" in str(ei.value)


def test_time_cap_raises():
    limits = EngineLimits(time_limit=0.0)
    with pytest.raises(ResourceCapError):
        buchberger(ideal("x^2 - y", "x^3 - z", "y^3 - x"), limits=limits)


def test_caps_hold_while_seeding():
    with pytest.raises(ResourceCapError) as ei:
        buchberger(ideal("x^2 - y"), limits=EngineLimits(time_limit=0.0))
    assert ei.value.stage == "seeding"
    with pytest.raises(ResourceCapError) as ei:
        buchberger(ideal("x^2 - y", "x*y - z"), limits=EngineLimits(max_basis=1))
    assert ei.value.stage == "seeding" and "basis size limit" in str(ei.value)


def test_time_cap_holds_inside_one_reduction():
    """A single generator with 1365 terms: the deadline is read after 1024 pops."""
    big = P("w + x + y + z + 1", varset("w", "x", "y", "z"), Fp(32003)) ** 11
    assert len(big.terms) > 1024
    with pytest.raises(ResourceCapError) as ei:
        buchberger(ideal_of(big), limits=EngineLimits(time_limit=0.0))
    assert ei.value.stage == "reduction"
    assert len(buchberger(ideal_of(big)).polys) == 1


def test_time_cap_reaches_every_phase(monkeypatch):
    """A clock that ticks one second per reading walks the cap through each phase.

    With time_limit = t - 0.5 the t-th cap check after the start fires, so
    the stages hit as t grows are the phases in the order they run.
    """
    monkeypatch.setattr(groebner.time, "monotonic", lambda: float(next(clock)))
    gens = ("x^2 - y", "x^3 - z")
    stages = []
    for t in itertools.count(1):
        clock = itertools.count()
        try:
            buchberger(ideal(*gens), limits=EngineLimits(time_limit=t - 0.5))
        except ResourceCapError as exc:
            if not stages or stages[-1] != exc.stage:
                stages.append(exc.stage)
            continue
        break
    assert stages == ["seeding", "pair processing", "minimalize", "inter-reduce"]


def test_packed_monomial_degree_is_capped():
    assert len(buchberger(ideal("x^32767 - y", vars=XY)).polys) == 1
    for text in ("x^32768 - y", "x^20000*y^20000 - 1", "x^70000 - y", "x^65537*y - 1"):
        with pytest.raises(ResourceCapError) as ei:
            buchberger(ideal(text, vars=XY))
        assert ei.value.stage == "pair update" and "packed limit" in str(ei.value)
    # a generator term above the leading-monomial limit is fine if it reduces away
    assert [str(p) for p in buchberger(ideal("x", "x^40000 - y", vars=XY)).polys] == ["y", "x"]
    gb = buchberger(ideal("y^2", vars=XY))
    with pytest.raises(ResourceCapError) as ei:
        normal_form(P("x^70000 + y", XY), gb)
    assert ei.value.stage == "normal form" and "packed limit" in str(ei.value)
    assert normal_form(P("x^30000*y^35534 + x^65533*y", XY), gb) == P("x^65533*y", XY)


# ---------------------------------------------------- pending-pair entries


@pytest.mark.parametrize("max_basis", [groebner.DEFAULT_LIMITS.max_basis, 2**31 - 1])
@pytest.mark.parametrize("n", [1, 5, 16])
def test_pair_entries_sort_like_their_tuples(n, max_basis):
    """Packed pending pairs sort as (deg, lcm, i, j) and decode back, with
    many ties in deg and lcm, fields up to their guard bits, and i and j up
    to limits.max_basis, which sizes their fields."""
    rng = random.Random(8400 + n)
    width = max_basis.bit_length()
    top = groebner._MAX_PACKED_DEGREE
    degs = [0, 2 * top] + [rng.randint(0, 2 * top) for _ in range(3)]
    lcms = [sum(rng.choice([0, 1, top, rng.randint(0, top)]) << (groebner._FIELD * k)
                for k in range(n)) for _ in range(5)]
    rows, pairs = [], set()
    while len(rows) < 300:
        i, j = (rng.choice([0, max_basis, rng.randint(0, max_basis)]) for _ in range(2))
        if (i, j) not in pairs:  # the engine never pushes a pair twice
            pairs.add((i, j))
            rows.append((rng.choice(degs), rng.choice(lcms), i, j, rng.getrandbits(n)))
    entries = {groebner._pair_entry(*row, n, width): row for row in rows}
    assert [entries[e] for e in sorted(entries)] == sorted(rows)
    assert all(groebner._pair_fields(e, n, width) == row for e, row in entries.items())


# ----------------------------------------------------------- packed term keys


def headroom_monomials(n, rng):
    """Seeded monomials of n variables and degree at most the term-key limit:
    small ones with many degree ties, and ones with an exponent in 32768..65534."""
    limit = groebner._MAX_TERM_DEGREE
    monos = [(0,) * n]
    for i in range(90):
        e = [rng.randint(0, 3) for _ in range(n)]
        if n and i % 3 == 1:
            e[rng.randrange(n)] = rng.randint(32768, limit - sum(e))
        elif n and i % 3 == 2:  # a random degree split at random cuts
            d = rng.randint(0, limit)
            cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
            e = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        monos.append(tuple(e))
    return monos


def keys_of(monos):
    return [k for k, _ in groebner._term_keys([(e, 1) for e in monos], "test")]


@pytest.mark.parametrize("n", [0, 1, 5, 16])
def test_term_keys_round_trip_and_order(n):
    monos = headroom_monomials(n, random.Random(8100 + n))
    assert max(max(e, default=0) for e in monos) >= (32768 if n else 0)
    keys = keys_of(monos)
    assert [groebner._exps(k, n) for k in keys] == monos
    # a smaller key is a larger monomial
    by_key = [groebner._exps(k, n) for k in sorted(keys)]
    assert by_key == sorted(monos, key=mono_key, reverse=True)


@pytest.mark.parametrize("n", [0, 1, 5, 16])
def test_term_key_shift_is_the_product(n):
    """key(t) + key(lm * s) - key(lm) = key(t * s): how reduction moves a tail term."""
    rng = random.Random(8200 + n)
    monos = headroom_monomials(n, rng)
    limit = groebner._MAX_TERM_DEGREE
    checked = 0
    for _ in range(300):
        lm, s, t = (rng.choice(monos) for _ in range(3))
        if sum(lm) + sum(s) > limit or sum(t) + sum(s) > limit:
            continue
        k_lm, k_lms, k_t, k_ts = keys_of([lm, mono_mul(lm, s), t, mono_mul(t, s)])
        assert k_t + (k_lms - k_lm) == k_ts
        checked += 1
    assert checked >= 50


@pytest.mark.parametrize("n", [0, 1, 5, 16])
def test_guard_bit_divisor_test_matches_mono_divides(n):
    """One reduction step by a single monic reducer x^a, on terms whose
    exponents reach 32768..65534: the term reduces to zero iff a divides it."""
    rng = random.Random(8300 + n)
    monos = headroom_monomials(n, rng)
    field = Fp(7)
    seen = {True: 0, False: 0}
    for e in monos:
        half = tuple(x // 2 for x in e)
        bumped = tuple(x + (i == rng.randrange(max(n, 1))) for i, x in enumerate(half))
        small = tuple(rng.randint(0, 2) for _ in range(n))
        j = min(range(n), key=e.__getitem__, default=0)
        past = tuple(x + 1 if i == j else 0 for i, x in enumerate(e))  # n > 0: never divides
        for a in (half, bumped, small, past, e):
            if sum(a) > groebner._MAX_PACKED_DEGREE:
                continue
            elem = groebner._Elem(groebner._term_keys([(a, 1)], "test"), n)
            rem = groebner._reduce_terms(groebner._term_keys([(e, 3)], "test"),
                                         groebner._Reducers(n, [elem]), field)
            want = mono_divides(a, e)
            assert rem == ([] if want else [(keys_of([e])[0], 3)])
            seen[want] += 1
    assert seen[True] >= 40 and (seen[False] >= 30 or n == 0)


def distinct_monomials(n, count, rng):
    """count distinct exponent tuples of n variables, sparse and of small
    degree, so that one often divides another; for n > 1 of degree at least
    4, so that no handful of small ones divides every term."""
    top = 1000 if n == 1 else 4
    out, seen = [], set()
    while len(out) < count:
        e = [0] * n
        for i in rng.sample(range(n), rng.randint(1, min(n, 4))):
            e[i] = rng.randint(1, top)
        e = tuple(e)
        if e not in seen and (n == 1 or sum(e) >= 4):
            seen.add(e)
            out.append(e)
    return out


def plain_first_divisor(reducers, e):
    """Reference: an ordered scan of the reducers for the first lm that divides e."""
    n = reducers.n
    return next((g for g in reducers.elems if mono_divides(groebner._exps(g.key, n), e)), None)


def assert_index_matches_scan(reducers, terms):
    """Returns the ranks of the divisors found; -1 for none."""
    ranks = []
    find = reducers.finder()
    for e in terms:
        want = plain_first_divisor(reducers, e)
        support = sum(1 << i for i, x in enumerate(e) if x)
        assert find(keys_of([e])[0] | reducers.guards, ~support) is want
        ranks.append(-1 if want is None else reducers.elems.index(want))
    return ranks


@pytest.mark.parametrize("limit", [0, groebner._SCAN_LIMIT], ids=["index", "scan_then_index"])
@pytest.mark.parametrize("n", [1, 5, 16])
def test_divisor_index_matches_ordered_scan(n, limit):
    """The index finds the first divisor in search order, as a plain scan
    does. Elements are added one at a time in random order, and the index of
    the growing list is first asked for past limit elements, so its tables
    are built at that size and then updated by every later insertion at its
    rank; at a checkpoint up to limit a fresh index over the same list
    answers. With the default limit that is the engine's own path:
    _reduce_terms scans up to _SCAN_LIMIT reducers inline and asks for the
    index only past it."""
    rng = random.Random(8400 + n)
    lms = distinct_monomials(n, 800, rng)
    elems = [groebner._Elem(groebner._term_keys([(a, 1)], "test"), n) for a in lms]

    def terms(count):
        # an lm times at most one variable, and unrelated monomials that
        # often have no divisor
        out = []
        for _ in range(count):
            e = list(rng.choice(lms))
            e[rng.randrange(n)] += rng.randint(0, 1)
            out.append(tuple(e))
            out.append(tuple(rng.randint(0, 3) for _ in range(n)))
        return out

    reducers = groebner._Reducers(n)
    checkpoints = {1, 2, 5, 31, 32, 33, 100, 300, 800}
    ranks = []
    for size, elem in enumerate(elems, 1):
        reducers.add(elem)
        if size in checkpoints:
            current = reducers if size > limit else groebner._Reducers(n, reducers.elems)
            ranks += assert_index_matches_scan(current, terms(30))
    assert [g.order for g in reducers.elems] == sorted(g.order for g in elems)
    # one index built over a whole list at once, as the inter-reduce pass does
    for size in (1, 33, 800):
        part = elems[:size]
        ranks += assert_index_matches_scan(groebner._Reducers(n, part), terms(30))
    # terms with no divisor, and (for n > 1) divisors deep in the list
    assert ranks.count(-1) >= 50
    assert sum(r >= 32 for r in ranks) >= (10 if n > 1 else 0)


@pytest.mark.parametrize("limit", [0, 10 ** 9], ids=["index", "scan"])
def test_scan_and_index_do_the_same_work(limit, monkeypatch):
    """Forcing every divisor search through the index, or through the plain
    scan, leaves every pinned counter and basis unchanged."""
    monkeypatch.setattr(groebner, "_SCAN_LIMIT", limit)
    for k in (3, 11, 15):
        want_work, _, want_digest = PINNED_RANDOM[k]
        gb = buchberger(pinned_random_ideal(k))
        assert work(gb) == want_work
        assert basis_digest(gb) == want_digest
    gb = buchberger(jacobian_ideal(perm_polynomial(3, Fp(32003))))
    assert work(gb) == (86, 71, 24, 5)
    assert basis_digest(gb) == "8a4971806dde0a68"


def headroom_ideal(k):
    """3 variables, binomial generators with exponents 8000..16000: S-pairs
    carry exponents past 32767, where a 16-bit key field would lose its guard."""
    rng = random.Random(5100 + k)
    field = (Fp(32003), Fp(101), QQ)[k % 3]

    def mono():
        e = [0, 0, 0]
        for i in rng.sample(range(3), rng.randint(1, 2)):
            e[i] = rng.randint(8000, 16000)
        return tuple(e)

    gens = []
    for _ in range(2 + k % 2):
        terms = [(mono(), rng.randint(1, 50)),
                 (mono() if rng.random() < 0.7 else (0, 0, 0), -rng.randint(1, 50))]
        acc: dict = {}
        for e, c in terms:
            acc[e] = field.of(acc.get(e, field.zero) + c)
        gens.append(Polynomial.from_dict(XYZ, field, acc))
    return ideal_of(*gens)


# k -> (with criteria, without): basis digest, or the stage of the cap hit
# under max_pairs=200. Recorded from the engine that reduced on exponent tuples.
HEADROOM = {
    0: ("a98417b456885966", "a98417b456885966"), 1: ("ff867cdccb2eb268", "ff867cdccb2eb268"),
    2: ("973e025021e9d06f", "973e025021e9d06f"), 3: ("pair processing", "pair processing"),
    4: ("b94b4736e5837e41", "b94b4736e5837e41"), 5: ("fc5603faeb1af694", "fc5603faeb1af694"),
    6: ("fc45ccf81f74bb21", "fc45ccf81f74bb21"), 7: ("pair update", "pair update"),
    8: ("8be76db554b8fe63", "8be76db554b8fe63"), 9: ("384e5bdff5ec6e52", "384e5bdff5ec6e52"),
    10: ("85589bacc3521ffb", "85589bacc3521ffb"), 11: ("4d51e99d7b69f2bd", "4d51e99d7b69f2bd"),
    12: ("a57e22269912cb65", "a57e22269912cb65"), 13: ("7b15645450eee6a6", "7b15645450eee6a6"),
    14: ("295eb3938713be1b", "295eb3938713be1b"), 15: ("ef16a1f887e1535e", "pair processing"),
    16: ("pair update", "pair update"), 17: ("0bd22c4cf23f236b", "0bd22c4cf23f236b"),
    18: ("pair update", "pair update"), 19: ("6a11eb1e40c395c6", "6a11eb1e40c395c6"),
    20: ("8ee5d31c64e09474", "8ee5d31c64e09474"), 21: ("688b7cdaa375f42e", "688b7cdaa375f42e"),
    22: ("00c7b9641f03394e", "00c7b9641f03394e"), 23: ("5ea0a41baef88204", "5ea0a41baef88204"),
    24: ("5f56f074128924d1", "5f56f074128924d1"), 25: ("3def5ef071a79e97", "pair processing"),
    26: ("pair update", "pair update"), 27: ("817ab83a9f773b50", "817ab83a9f773b50"),
    28: ("442ea8bfa50304cc", "442ea8bfa50304cc"), 29: ("520012296daf1bdf", "pair processing"),
    30: ("975d99a61722fc66", "975d99a61722fc66"), 31: ("dafed2b996dd7eec", "pair processing"),
    32: ("3f9ec502c6933315", "3f9ec502c6933315"), 33: ("6bcc7f0338428284", "6bcc7f0338428284"),
    34: ("97ef50f58717f057", "97ef50f58717f057"), 35: ("1ad871401bf37698", "pair processing"),
    36: ("pair update", "pair update"), 37: ("49d7b4462b852784", "49d7b4462b852784"),
    38: ("aaf12b2d87a7b5fb", "aaf12b2d87a7b5fb"), 39: ("6b2e57129bddeed5", "6b2e57129bddeed5"),
    40: ("df4eae66c303eab5", "df4eae66c303eab5"), 41: ("6de52095367354bd", "6de52095367354bd"),
    42: ("825f904a41bab50d", "825f904a41bab50d"), 43: ("6b86b273ff34fce1", "pair processing"),
    44: ("36a887bd88145376", "36a887bd88145376"), 45: ("pair update", "pair update"),
    46: ("7cd9fa6c09a61589", "7cd9fa6c09a61589"), 47: ("91b593ab0c1cfb76", "pair processing"),
    48: ("5cbb1b2f86d149af", "5cbb1b2f86d149af"), 49: ("437f3dbebbc18d4b", "437f3dbebbc18d4b"),
    50: ("2fb5e15c6d342dfe", "2fb5e15c6d342dfe"), 51: ("c9d8f61cb81492ae", "pair processing"),
    52: ("f852346f28ec0f64", "f852346f28ec0f64"), 53: ("b1be4b183d704a9d", "pair processing"),
    54: ("pair update", "pair update"), 55: ("2e9cc554e2d3e20b", "2e9cc554e2d3e20b"),
    56: ("pair update", "pair update"), 57: ("b0e6e049ed288927", "b0e6e049ed288927"),
    58: ("3a0ed3a0f0935c10", "3a0ed3a0f0935c10"), 59: ("pair update", "pair update"),
}


def test_high_exponent_ideals_match_tuple_engine():
    for k, want in HEADROOM.items():
        got = []
        for use_criteria in (True, False):
            try:
                gb = buchberger(headroom_ideal(k), limits=EngineLimits(max_pairs=200),
                                use_criteria=use_criteria)
            except ResourceCapError as exc:
                got.append(exc.stage)
            else:
                got.append(basis_digest(gb))
        assert tuple(got) == want, k


def test_oracle_rejects_polynomials_from_another_ring():
    f = P("x*y + y", XY)
    for divisor in (P("y - z"), P("y", XY, Fp(7)), Polynomial.zero(XYZ, QQ)):
        with pytest.raises(FieldMismatchError):
            naive_normal_form(f, [divisor])  # zip once cut (x, y) against (x, y, z)
    assert naive_normal_form(f, [P("y", XY)]).is_zero()
    gb = buchberger(ideal("x^2 - y", "x*y - 1", vars=XY))
    with pytest.raises(FieldMismatchError):
        groebner_failure_witness(GroebnerBasis(XY, QQ, gb.polys + (P("y - z"),), gb.stats))
    for generator in (P("y - z"), P("y", XY, Fp(7)), Polynomial.zero(XYZ, QQ)):
        with pytest.raises(FieldMismatchError):
            membership_failure_witness(gb, [P("x^2 - y", XY), generator])


def test_stats_populated():
    gb = buchberger(ideal("x^2 - y", "x^3 - z"))
    s = gb.stats
    assert s.basis_size == len(gb.polys)
    assert s.pairs_processed >= 1
    assert s.wall_time >= 0.0
    assert s.max_degree_processed >= 2


# --------------------------------------------------------------- pinned work
#
# Counters and reduced bases recorded from the engine before its pair update
# was rewritten on packed monomials. The pair update may change how the
# criteria are evaluated, never which pairs survive them or the order in which
# they are processed, so these values must repeat exactly.

DATA = pathlib.Path(__file__).parent / "data"


def work(gb):
    s = gb.stats
    return (s.pairs_processed, s.zero_reductions, s.basis_size, s.max_degree_processed)


def criteria(gb):
    s = gb.stats
    return (s.pairs_created, s.pruned_product, s.pruned_m, s.pruned_chain)


def assert_pair_accounting(gb, plain=None):
    """created = product + M + pushed, and pushed = processed + chain."""
    s = gb.stats
    pushed = s.pairs_created - s.pruned_product - s.pruned_m
    assert pushed == s.pairs_processed + s.pruned_chain
    if plain is not None:
        s = plain.stats
        assert s.pairs_created == s.pairs_processed
        assert s.pruned_product == s.pruned_m == s.pruned_chain == 0


def basis_digest(gb):
    text = "\n".join(str(p) for p in gb.polys)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


PINNED_FIELDS = (Fp(7), Fp(101), Fp(32003), QQ)


def pinned_random_ideal(k):
    rng = random.Random(7000 + k)
    n = 4 + k % 2
    vs = varset(*(f"x{i}" for i in range(n)))
    field = PINNED_FIELDS[k % 4]
    gens = [random_polynomial(vs, field, rng, degree=2 + (k % 3 == 0), terms=3 + k % 3)
            for _ in range(n - 1 + k % 2)]
    return ideal_of(*(g for g in gens if not g.is_zero()))


# k -> (work with criteria, (pairs, zeros) without criteria, basis digest)
PINNED_RANDOM = {
    0: ((4, 2, 3, 4), (10, 8), "188f315afb225f05"),
    1: ((5, 2, 5, 2), (28, 25), "ab3fcc704d2012bc"),
    2: ((2, 1, 4, 4), (6, 5), "261ad8730780ab35"),
    3: ((52, 30, 15, 4), (351, 329), "5e31ae0ab14fd727"),
    4: ((2, 1, 4, 3), (6, 5), "c8aef2f74330e475"),
    5: ((0, 0, 1, 0), (3, 3), "6b86b273ff34fce1"),
    6: ((21, 13, 11, 6), (55, 47), "c02d745c3408ec99"),
    7: ((9, 5, 6, 3), (36, 32), "07fe30d21ed61477"),
    8: ((2, 1, 4, 3), (6, 5), "57fcd79219b1c213"),
    9: ((2, 2, 1, 3), (10, 10), "6b86b273ff34fce1"),
    10: ((8, 5, 4, 4), (15, 12), "9467ee62b0c7cdae"),
    11: ((46, 33, 16, 5), (153, 140), "ab1958f9363316a8"),
    12: ((0, 0, 1, 0), (1, 1), "6b86b273ff34fce1"),
    13: ((36, 22, 8, 3), (171, 157), "f2420ceaed8ce4c2"),
    14: ((2, 1, 3, 3), (6, 5), "f28ec47da121e5f1"),
    15: ((50, 32, 15, 4), (253, 235), "3c7382e1a0a761f1"),
    16: ((0, 0, 1, 0), (0, 0), "6b86b273ff34fce1"),
    17: ((17, 12, 7, 3), (45, 40), "f7037045413a52c2"),
    18: ((2, 1, 4, 4), (6, 5), "b21207412fd17000"),
    19: ((43, 30, 15, 3), (153, 140), "9889075b10f8c4eb"),
}


@pytest.mark.parametrize("k", sorted(PINNED_RANDOM))
def test_pinned_random_ideal_work(k):
    want_work, want_plain, want_digest = PINNED_RANDOM[k]
    idl = pinned_random_ideal(k)
    gb = buchberger(idl)
    plain = buchberger(idl, use_criteria=False)
    assert work(gb) == want_work
    assert work(plain)[:2] == want_plain
    assert_pair_accounting(gb, plain)
    assert basis_digest(gb) == basis_digest(plain) == want_digest


@pytest.mark.parametrize("field", [Fp(32003), QQ], ids=["Fp32003", "Q"])
def test_pinned_perm3_work(field):
    gb = buchberger(jacobian_ideal(perm_polynomial(3, field)))
    assert work(gb) == (86, 71, 24, 5)
    assert basis_digest(gb) == "8a4971806dde0a68"
    assert_pair_accounting(gb)
    s = gb.stats
    assert min(s.pruned_product, s.pruned_m, s.pruned_chain) > 0


def perm4_slice_ideal(zeros):
    """The Jacobian ideal of perm4 with the named entries set to 0 over
    F_32003; x11 = 0 is the benchmark's certify instance, x11 = x22 = 0 its
    reverify instance."""
    F = Fp(32003)
    f = perm_polynomial(4, F)
    images = [Polynomial.zero(f.vars, F) if v in zeros else Polynomial.variable(f.vars, F, i)
              for i, v in enumerate(f.vars)]
    return jacobian_ideal(f.substitute_affine(images))


@functools.lru_cache(maxsize=None)
def perm4_slice_basis(zeros):
    return buchberger(perm4_slice_ideal(zeros))


def test_pinned_perm4_slice_work():
    """The perm4 slice basis against the digest recorded from the engine
    before its pair update was rewritten; VERIFY_BASES re-verifies it."""
    gb = perm4_slice_basis(("x11",))
    assert work(gb) == (4128, 3633, 510, 10)
    assert criteria(gb) == (130305, 23, 125927, 227)
    assert basis_digest(gb) == "428b8fffcb67a672"
    assert_pair_accounting(gb)


def test_perm4_slice_basis_reverified():
    gb = perm4_slice_basis(("x11",))
    assert basis_digest(gb) == "428b8fffcb67a672"
    assert is_groebner_basis(gb)


def test_engine_peak_memory_on_perm4_slice(monkeypatch):
    """The traced peak of one run on the certify slice, about 700 KB: the
    pending pairs are one int each, and the engine's state is dropped before
    the basis's Polynomials are built. With a heap tuple and a dict entry per
    pair, and the state alive until the result was built, it was 1,450 KB."""
    monkeypatch.setattr(groebner, "VERIFY_BASES", False)  # the oracle allocates too
    idl = perm4_slice_ideal(("x11",))
    tracemalloc.start()
    try:
        gb = buchberger(idl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert work(gb)[:3] == (4128, 3633, 510)
    assert peak <= 1024 * 1024, f"peak {peak // 1024} KB"


def test_golden_perm3_certificate_json(capsys):
    rc = main(["certify", "--poly", "perm3", "--field", "Fp:32003",
               "--format", "json", "--deterministic"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (DATA / "certify_perm3_Fp32003.json").read_text()


# --------------------------------------------------------- the staircase stop
#
# buchberger(stop_codim=c) returns a StaircaseBound once the leading monomials
# made so far have staircase codim >= c, a lower bound on codim J; a run that
# never gets there returns the full reduced basis.


@pytest.mark.parametrize("field", [Fp(32003), QQ, Fp(2)], ids=["Fp32003", "Q", "F2"])
def test_stop_det3_at_four(field):
    """The 2x2 minors seeded from det3's partials already reach codim 4, so
    the run stops at its first pair boundary, before reducing any pair."""
    idl = jacobian_ideal(generic_det_polynomial(3, field))
    run = buchberger(idl, stop_codim=4)
    assert isinstance(run, StaircaseBound)
    assert run.codim == 4 == len(idl.vars) - dimension(idl)
    assert run.stats.pairs_processed == 0


@pytest.mark.parametrize("field", [Fp(32003), QQ], ids=["Fp32003", "Q"])
def test_stop_perm3_at_six_takes_fewer_pairs(field):
    idl = jacobian_ideal(perm_polynomial(3, field))
    full = buchberger(idl)
    run = buchberger(idl, stop_codim=6)
    assert isinstance(run, StaircaseBound)
    assert run.codim == 6 == len(idl.vars) - dimension(full)
    assert run.stats.pairs_processed == 17 < full.stats.pairs_processed == 86


@pytest.mark.parametrize("field", [Fp(32003), QQ, Fp(2)], ids=["Fp32003", "Q", "F2"])
def test_stop_above_the_codim_runs_out(field):
    """det3 has codim 4, so a stop at 5 is never reached: the run returns the
    full reduced basis, with the full run's work."""
    f = generic_det_polynomial(3, field)
    idl = jacobian_ideal(f)
    full = buchberger(idl)
    run = buchberger(idl, stop_codim=5)
    assert isinstance(run, GroebnerBasis)
    assert run.polys == full.polys
    assert work(run) == work(full) and criteria(run) == criteria(full)
    assert codim_sing(f, at_most=5) == codim_sing(f) == 4


def test_stop_comes_after_the_caps():
    idl = jacobian_ideal(generic_det_polynomial(3, Fp(32003)))
    with pytest.raises(ResourceCapError):
        buchberger(idl, EngineLimits(max_pairs=0), stop_codim=4)


@pytest.mark.parametrize("c", [0, -1])
def test_stop_below_one_is_rejected(c):
    with pytest.raises(ValueError):
        buchberger(ideal("x", "y"), stop_codim=c)


@pytest.mark.parametrize("k", sorted(PINNED_RANDOM))
def test_stop_is_a_lower_bound_on_pinned_ideals(k):
    """For every target c: a stopped run's bound lies in [c, codim J], so an
    ideal of codim below c never stops, and a run that is not stopped is the
    full run. Some of these have the basis {1}, codim n + 1. A stop at 1
    fires at the first pair boundary."""
    idl = pinned_random_ideal(k)
    full = buchberger(idl)
    codim = len(idl.vars) - dimension(full)
    stopped = []
    for c in range(1, len(idl.vars) + 2):
        run = buchberger(idl, stop_codim=c)
        if isinstance(run, StaircaseBound):
            stopped.append(c)
            assert c <= run.codim <= codim
            assert run.stats.pairs_processed < full.stats.pairs_processed
        else:
            assert run.polys == full.polys and work(run) == work(full)
    assert (1 in stopped) == (full.stats.pairs_processed > 0)


# ------------------------------------------------------------ slot reduction
#
# Over F_p, when every generator is homogeneous, _reduce_terms may reduce on
# the slots of one degree (slots.py) instead of on its heap. The values below
# were recorded from the engine before the slot path existed: the reduced
# basis's digest, every GroebnerStats counter, and the StaircaseBound of a run
# with stop_codim=min(4, n). The determinant Jacobians are sampling trials
# (5x3, 4x4 and 5x4 over F_101); the 4x4 and 5x4 ones, and the binary forms of
# degrees 128 and 129, reach degrees with more than 255 monomials mid-run.


def counters(stats):
    return tuple(getattr(stats, f) for f in GroebnerStats._fields if f != "wall_time")


def det_jacobian(n, m, seed):
    """The Jacobian ideal of the determinant of a seeded sampling draw."""
    mapping = explore._random_linear_map(n, m, Fp(101), random.Random(seed))
    return jacobian_ideal(symbolic_det(mapping))


def binary_forms(*degrees):
    """Dense forms in x, y over F_32003, one of each degree, every coefficient nonzero."""
    rng = random.Random(1)
    field = Fp(32003)
    return ideal_of(*(Polynomial.from_dict(XY, field, {(i, d - i): rng.randrange(1, 32003)
                                                       for i in range(d + 1)})
                      for d in degrees))


def fermat_cubic_jacobian(n, field):
    vs = varset(*(f"x{i + 1}" for i in range(n)))
    return jacobian_ideal(P(" + ".join(f"{v}^3" for v in vs), vs, field))


# name -> (ideal, basis digest, counters, (codim, counters) of the stopped run)
SLOT_CASES = {
    "det_5x3_1": (lambda: det_jacobian(5, 3, 1), "5e8290e2a7db09ea",
                  (40, 30, 15, 5, 120, 0, 80, 0), (4, (6, 0, 12, 3, 66, 0, 42, 0))),
    "det_5x3_2": (lambda: det_jacobian(5, 3, 2), "75b9933f47c376be",
                  (40, 30, 15, 5, 120, 0, 80, 0), (4, (6, 0, 12, 3, 66, 0, 42, 0))),
    "det_4x4_1": (lambda: det_jacobian(4, 4, 1), "2e55c882d2a81fd3",
                  (73, 48, 29, 10, 435, 0, 362, 0), (4, (62, 37, 30, 9, 435, 0, 362, 0))),
    "det_4x4_2": (lambda: det_jacobian(4, 4, 2), "214dd8b73c71bd31",
                  (73, 48, 29, 10, 435, 0, 362, 0), (4, (62, 37, 30, 9, 435, 0, 362, 0))),
    "det_5x4_1": (lambda: det_jacobian(5, 4, 1), "6e5dc8b5ed2ad5d0",
                  (185, 134, 56, 9, 1596, 0, 1410, 1), (4, (22, 2, 26, 6, 325, 0, 263, 1))),
    "perm3": (lambda: jacobian_ideal(perm_polynomial(3, Fp(32003))), "8a4971806dde0a68",
              (86, 71, 24, 5, 300, 10, 200, 4), (4, (0, 0, 10, 3, 45, 2, 24, 2))),
    "fermat_cubic_5": (lambda: fermat_cubic_jacobian(5, Fp(32003)), "d985b2d776ea96d7",
                       (1, 1, 5, 3, 15, 10, 4, 0), (5, (0, 0, 6, 3, 15, 10, 4, 0))),
    "binary_128_129": (lambda: binary_forms(128, 129), "704eaf27bebc4439",
                       (128, 1, 129, 257, 8256, 0, 8128, 0),
                       (2, (127, 0, 129, 257, 8256, 0, 8128, 0))),
}
SLOT_TAKERS = {"det_5x3_1", "det_5x3_2", "det_4x4_1", "det_4x4_2", "det_5x4_1", "binary_128_129"}


def spy_slot_path(monkeypatch) -> list:
    """A list that gets True per reduction the slot path takes, False per one it declines."""
    taken = []
    real = groebner.slot_reduce

    def spy(*args):
        out = real(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(groebner, "slot_reduce", spy)
    return taken


@pytest.mark.parametrize("slot_limit", [None, 0], ids=["slots", "heap"])
def test_slot_path_keeps_every_basis_and_counter(slot_limit, monkeypatch):
    """With the slot path, and with its limit at 0 so that every reduction
    takes the heap, each basis, counter and stopped bound is the recorded one."""
    if slot_limit is not None:
        monkeypatch.setattr(slots, "_MAX_SLOTS", slot_limit)
    taken = spy_slot_path(monkeypatch)
    took = set()
    for name, (make, digest, want, want_bound) in SLOT_CASES.items():
        idl = make()
        taken.clear()
        gb = buchberger(idl)
        assert (basis_digest(gb), counters(gb.stats)) == (digest, want), name
        run = buchberger(idl, stop_codim=min(4, len(idl.vars)))
        assert isinstance(run, StaircaseBound), name
        assert (run.codim, counters(run.stats)) == want_bound, name
        if any(taken):
            took.add(name)
    assert took == (set() if slot_limit == 0 else SLOT_TAKERS)


class SpyCache(slots._Cache):
    """A slot cache that records the units it holds before each addition."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def units(self) -> int:
        """What the cache holds: one unit per slot and four per row."""
        return sum(len(lay.keys) + 4 * len(lay.rows) for lay in self.layouts.values())

    def hold(self, units):
        self.seen.append(self.units())
        super().hold(units)


def fresh_slot_cache(monkeypatch) -> SpyCache:
    cache = SpyCache()
    monkeypatch.setattr(slots, "_CACHE", cache)
    return cache


def traced_bytes(cache) -> int:
    """The traced bytes of what the cache holds, rebuilt layout by layout and
    row by row under tracemalloc; tracing the run that made it would take
    seconds."""
    made = [(n, d, list(lay.rows)) for (n, d), lay in cache.layouts.items()]
    tracemalloc.start()
    try:
        fresh = slots._Cache()
        lays = [(fresh.layout(n, d), n, d, shifts) for n, d, shifts in made]
        for lay, n, d, shifts in lays:
            for shift in shifts:  # the reducer's degree is d plus the shift's top field
                fresh.row(lay, shift, n, d + (shift >> n * slots._KEY_FIELD))
        del lays
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_slot_cache_stays_within_its_budget(monkeypatch):
    """(x + y)^190 and x^201 reduce on slots in degrees 190 to 254, one
    layout each, and past that on the heap. What the layouts and rows hold
    would pass the budget, so the cache is emptied on the way and never holds
    more than _TABLE_BUDGET units, about 100 bytes each."""
    cache = fresh_slot_cache(monkeypatch)
    gb = buchberger(ideal("(x + y)^190", "x^201", vars=XY, field=Fp(32003)))
    assert work(gb) == (190, 1, 191, 391)
    held = cache.seen + [cache.units()]
    drops = sum(b < a for a, b in zip(held, held[1:]))
    assert drops >= 1 and max(held) <= slots._TABLE_BUDGET
    size = traced_bytes(cache)
    assert size <= 128 * slots._TABLE_BUDGET, f"{size // 1024} KB"


def test_slot_cache_after_a_sampling_pass(monkeypatch):
    """One pass of the benchmark's sampling shapes, 150 trials of 5x3 and 8
    of 4x4, leaves under 64 KB in the slot cache."""
    cache = fresh_slot_cache(monkeypatch)
    explore.sample_codim(n=5, m=3, p=101, trials=150, seed=7)
    explore.sample_codim(n=4, m=4, p=101, trials=8, seed=7)
    size = traced_bytes(cache)
    assert 0 < size < 64 * 1024, f"{size // 1024} KB"


@pytest.mark.parametrize("n", [2, 3, 5])
def test_slot_layout_lists_each_degree_in_key_order(n):
    """A layout's slots are every monomial of its degree, ascending keys
    (descending degrevlex), with their support masks."""
    for d in range(7):
        monos = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
        lay = slots._Layout(n, d)
        assert lay.keys == sorted(keys_of(monos))
        assert lay.masks == [groebner._mask(groebner._exps(k, n)) for k in lay.keys]
        assert lay.rank == {k: r for r, k in enumerate(lay.keys)}


def test_slot_ready_gates_whole_runs():
    """perm4's Jacobian (16 variables; its 816 monomials of degree 3 are the
    fewest of any input) never takes the slot path, and neither does a run
    over Q or one with a generator that is not homogeneous."""
    assert not slots.slot_ready(jacobian_ideal(perm_polynomial(4, Fp(32003))))
    assert slots.slot_ready(jacobian_ideal(perm_polynomial(3, Fp(32003))))
    assert not slots.slot_ready(jacobian_ideal(perm_polynomial(3, QQ)))
    assert slots.slot_ready(ideal("x^2 - y*z", "x*y", field=Fp(7)))
    assert not slots.slot_ready(ideal("x^2 - y", "x*y", field=Fp(7)))


@pytest.mark.parametrize("field", [Fp(7), QQ], ids=["F7", "Q"])
def test_rings_without_variables(field, monkeypatch):
    """Over no variables a nonzero constant spans the unit ideal and 0 the
    zero ideal; neither ring, nor one of one variable, takes the slot path."""
    taken = spy_slot_path(monkeypatch)
    none = VarSet(())
    unit = buchberger(ideal_of(Polynomial.const(none, field, 3)))
    assert unit.polys == (Polynomial.const(none, field, 1),) and unit.is_trivial()
    assert buchberger(ideal_of(Polynomial.zero(none, field))).polys == ()
    x = varset("x")
    assert buchberger(ideal_of(P("x^3", x, field), P("2*x^5", x, field))).polys == (P("x^3", x, field),)
    assert not any(taken)


# ------------------------------------------------------- M-criterion reference
#
# The engine's M-criterion before exponent-threshold bitsets, kept here as a
# reference: candidate lcms in degree buckets, each bucket in ascending i,
# each kept unless the lcm of one kept before it divides its own.


def reference_m_criterion(exps, ex):
    """(kept (i, packed lcm) set, pruned_product, pruned_m) for old leading
    exponents exps and a new one ex, on 16-bit packed monomials."""
    n = len(ex)
    width = groebner._FIELD
    ones = sum(1 << (k * width) for k in range(n))
    guards = ones << (width - 1)
    deg_shift = max(n - 1, 0) * width
    field_mask = (1 << width) - 1
    lm, m = groebner._pack(ex), groebner._mask(ex)
    lm_g = lm | guards
    lcms = [(lm & sel) | (p & ~sel) for p in map(groebner._pack, exps)
            for sel in [(lm_g - p) & guards] for sel in [sel - (sel >> (width - 1))]]
    buckets = {}
    for i, lcm in enumerate(lcms):
        buckets.setdefault(((lcm * ones) >> deg_shift) & field_mask, []).append(i)
    kept, kept_lcms, product = set(), [], 0
    for deg in sorted(buckets):
        for i in buckets[deg]:
            lcm = lcms[i]
            if any(((lcm | guards) - other) & guards == guards for other in kept_lcms):
                continue
            kept_lcms.append(lcm)
            kept.add((i, lcm))
            if not groebner._mask(exps[i]) & m:
                product += 1
    return kept, product, len(exps) - len(kept_lcms)


def threshold_m_criterion(index, ex):
    """The same triple from the engine's _Thresholds, for the exponents
    added to index and a new one ex, which it adds."""
    exps = list(index.exps)
    index.add(ex)
    kept = index.minimal()
    assert len(set(kept)) == len(kept)
    m = groebner._mask(ex)
    product = sum(1 for i in kept if not groebner._mask(exps[i]) & m)
    lcms = {(i, groebner._pack(tuple(map(max, exps[i], ex)))) for i in kept}
    return lcms, product, len(exps) - len(kept)


M_CRITERION_CASES = [
    ([], (1, 2)),                                  # t = 0
    ([(0, 3)], (2, 0)),                            # t = 1, coprime
    ([(2, 1)], (1, 1)),                            # t = 1, lm_0 divides nothing
    ([(3,), (1,), (5,), (2,)], (4,)),              # n = 1
    ([(1, 0), (0, 1), (1, 0), (1, 1)], (1, 1)),    # every lcm equal: smallest i
    ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], (0, 0, 0)),  # constant lm
    ([(1, 0, 2), (1, 0, 2), (0, 3, 0), (4, 0, 0)], (1, 0, 1)),  # equal lms
]


@pytest.mark.parametrize("exps,ex", M_CRITERION_CASES)
def test_m_criterion_matches_reference_cases(exps, ex):
    index = groebner._Thresholds(len(ex))
    for e in exps:
        index.add(e)
    assert threshold_m_criterion(index, ex) == reference_m_criterion(exps, ex)


def test_m_criterion_matches_reference_random():
    rng = random.Random(20261018)
    for case in range(400):
        n = 1 + case % 5
        top = (1, 2, 3, 6)[case % 4]
        t = rng.randrange(1, 40)
        # draw from a small pool so that equal lms and equal lcms are common
        pool = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(1 + t // 3)]
        lms = [rng.choice(pool) if rng.random() < 0.5 else
               tuple(rng.randint(0, top) for _ in range(n)) for _ in range(t)]
        # as in the engine: each lm added, then checked against the ones before it
        index = groebner._Thresholds(n)
        for j, ex in enumerate(lms):
            want = reference_m_criterion(lms[:j], ex)
            assert threshold_m_criterion(index, ex) == want, (lms[:j], ex)


# ------------------------------------------------------------ oracle mutations
#
# Reduced bases corrupted by dropping one element or by adding 1 to one tail
# coefficient. Every witness was recorded from the S-pair oracle before it
# skipped coprime pairs and stopped at the first irreducible term. In the
# "coprime" cases the first failing pair has coprime leading monomials, so
# the witness comes from the pass over the pairs the first pass skipped.


@functools.lru_cache(maxsize=None)
def mutation_basis(name):
    if name.startswith("perm3"):
        field = Fp(32003) if name == "perm3_Fp32003" else QQ
        return buchberger(jacobian_ideal(perm_polynomial(3, field)))
    return buchberger(pinned_random_ideal(int(name.removeprefix("random"))))


def corrupted(gb, drop=None, bump=None):
    polys = list(gb.polys)
    if drop is not None:
        del polys[drop]
    if bump is not None:
        k, t = bump
        terms = list(polys[k].terms)
        e, c = terms[t]
        terms[t] = (e, gb.field.of(c + 1))
        assert terms[t][1] != gb.field.zero
        polys[k] = Polynomial(gb.vars, gb.field, tuple(terms))
    return GroebnerBasis(gb.vars, gb.field, tuple(polys), gb.stats)


# basis (random6 over F_32003, random11 over Q, random13 over F_101), dropped
# element, bumped (element, tail term), recorded witness, witness coprime
MUTATIONS = [
    ("perm3_Fp32003", 0, None, (0, 5), False),
    ("perm3_Fp32003", 15, None, (2, 12), False),
    ("perm3_Fp32003", None, (1, 1), (1, 7), False),
    ("perm3_Fp32003", None, (6, 1), (3, 6), False),
    ("perm3_Q", 20, None, (6, 19), False),
    ("perm3_Q", None, (1, 1), (1, 7), False),
    ("random6", 5, None, (0, 2), True),
    ("random6", 10, None, (3, 8), False),
    ("random6", None, (3, 2), (0, 3), True),
    ("random11", 10, None, (0, 3), False),
    ("random11", None, (8, 3), (0, 8), False),
    ("random11", None, (6, 5), (0, 4), True),
    ("random13", 0, None, None, False),
    ("random13", None, (0, 3), None, False),
    ("random13", None, (3, 1), (0, 3), True),
]


@pytest.mark.parametrize("name, drop, bump, want, coprime", MUTATIONS)
def test_oracle_witness_on_corrupted_basis(name, drop, bump, want, coprime):
    gb = corrupted(mutation_basis(name), drop, bump)
    assert groebner_failure_witness(gb) == want
    assert is_groebner_basis(gb) == (want is None) == brute_force_is_groebner(gb)
    if want is not None:
        a, b = (gb.polys[i].leading_monomial() for i in want)
        assert all(x == 0 or y == 0 for x, y in zip(a, b)) == coprime


# ------------------------------------------------------------ syzygy prune
#
# The oracle proves a basis correct from the pairs whose quotient is a minimal
# generator of a colon ideal, the same theorem the engine's M-criterion rests
# on. The verdicts below come from a loop written here that skips nothing.


def brute_force_is_groebner(gb):
    """Every pair's S-polynomial, built with Polynomial arithmetic, has a zero
    naive_normal_form: no pair is skipped or pruned."""
    polys = [g for g in gb.polys if not g.is_zero()]
    field = gb.field
    for f, g in itertools.combinations(polys, 2):
        lf, lg = f.leading_monomial(), g.leading_monomial()
        lcm = tuple(max(a, b) for a, b in zip(lf, lg))
        inv_f, inv_g = field.inv(f.terms[0][1]), field.inv(g.terms[0][1])
        mf = Polynomial.from_dict(gb.vars, field, {mono_div(lcm, lf): inv_f})
        mg = Polynomial.from_dict(gb.vars, field, {mono_div(lcm, lg): inv_g})
        if not naive_normal_form(mf * f - mg * g, polys).is_zero():
            return False
    return True


def cross_check_lists():
    """Seeded random ideals over Q, F_5 and F_32003: their reduced bases and
    their generator lists, which are seldom Groebner bases, and pairs of
    binomial quartics, some of whose failing pairs all have quotients of
    degree 2 or more."""
    rng = random.Random(20261018)
    vs = varset("a", "b", "c")
    for i in range(12):
        field = (QQ, Fp(5), Fp(32003))[i % 3]
        gens = [random_polynomial(vs, field, rng, degree=2 + i % 2, terms=3) for _ in range(3)]
        gb = buchberger(ideal_of(*gens))
        yield gb
        yield GroebnerBasis(vs, field, tuple(gens), gb.stats)
        quartics = [random_polynomial(vs, field, rng, degree=4, terms=2) for _ in range(2)]
        yield GroebnerBasis(vs, field, tuple(quartics), gb.stats)


def test_pruned_verdict_matches_all_pairs_on_random_ideals():
    verdicts = []
    for gb in cross_check_lists():
        want = brute_force_is_groebner(gb)
        assert is_groebner_basis(gb) == want
        verdicts.append(want)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("name", ["perm3_Fp32003", "perm3_Q"])
def test_pruned_verdict_matches_all_pairs_on_perm3_drop_one(name):
    gb = mutation_basis(name)
    for drop in range(len(gb.polys)):
        bad = corrupted(gb, drop)
        assert is_groebner_basis(bad) == brute_force_is_groebner(bad), drop


def test_syzygy_pairs_keep_the_first_equal_quotient_at_any_degree():
    # lms x*y, y*z, x*z: pair (0, 1) has quotient x; for j = 2 both earlier
    # elements give the quotient y, and only k = 0 is kept
    for scale in (1, 1 << 20):
        lms = [(scale, scale, 0), (0, scale, scale), (scale, 0, scale)]
        assert list(verify._syzygy_pairs(lms)) == [(0, 1), (0, 2)]
    # a coprime pair is not reduced but still prunes: for j = 2 (y*z) the
    # quotient x^2 of the coprime pair (0, 2) equals that of (1, 2)
    assert list(verify._syzygy_pairs([(2, 0, 0), (2, 1, 0), (0, 1, 1)])) == [(0, 1)]
    assert list(verify._syzygy_pairs([])) == []


def syzygy_pairs_by_sorting(lms):
    """Reference for _syzygy_pairs on exponent tuples: every (degree, k,
    quotient) sorted, a quotient kept unless one kept before divides it."""
    for j, mj in enumerate(lms):
        quotients = sorted((sum(q), k, q) for k in range(j)
                           for q in [tuple(max(a - b, 0) for a, b in zip(lms[k], mj))])
        kept = []
        for _, k, q in quotients:
            if not any(mono_divides(o, q) for o in kept):
                kept.append(q)
                if q != lms[k]:
                    yield k, j


def test_syzygy_pairs_match_the_sorted_selection():
    """The same pairs in the same order as a full sort, on seeded lists with
    many equal quotients, on sparse lists with exponents up to 40 in up to 9
    variables, whose columns hold many distinct exponents, and on the 206
    leading monomials of a perm4 slice."""
    rng = random.Random(8600)
    lists = [perm4_slice_basis(("x11", "x22")).leading_monomials()]
    for _ in range(40):
        n = rng.randint(1, 5)
        lists.append([tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 30))])
    for _ in range(8):
        n = rng.randint(6, 9)
        lists.append([tuple(rng.randint(0, 40) if rng.random() < 0.4 else 0 for _ in range(n))
                      for _ in range(rng.randint(20, 50))])
    for lms in lists:
        assert list(verify._syzygy_pairs(lms)) == list(syzygy_pairs_by_sorting(lms))


@pytest.mark.parametrize("zeros, size, pairs", [
    (("x11", "x22"), 206, 1584),
    (("x11",), 510, 4405),
])
def test_pinned_syzygy_pair_counts(zeros, size, pairs):
    """The pairs the oracle reduces on the perm4 slices, against the 19,670
    and 123,524 non-coprime pairs the ordered scan reduces."""
    gb = perm4_slice_basis(zeros)
    assert len(gb.polys) == size
    assert len(list(verify._syzygy_pairs(gb.leading_monomials()))) == pairs


# ---------------------------------------------------- oracle division reference
#
# The oracle's division before it moved to packed keys and threshold bitsets:
# exponent tuples on a heap, and for each popped term a scan over every
# divisor in list order. The packed division must pick the same divisor for
# every term, so remainders and witnesses match it exactly.


def tuple_divisors(polys, vars, field):
    """(lm, support mask, 1/lc, tail) of each nonzero polynomial, in list order."""
    if any(g.vars != vars or g.field != field for g in polys):
        raise FieldMismatchError("polynomial and divisors must share one ring")
    return [(g.leading_monomial(), sum(1 << i for i, x in enumerate(g.terms[0][0]) if x),
             g.field.inv(g.terms[0][1]), g.terms[1:]) for g in polys if g.terms]


def tuple_divide(work, divisors, p, full):
    """Textbook division of the terms in work, which it consumes; returns the
    remainder, or with full=False its first term."""
    heap = [(-sum(e), e[::-1], e) for e in work]  # mono_key negated: a max-heap
    heapify(heap)
    remainder = {}
    while heap:
        e = heappop(heap)[2]
        c = work.pop(e) % p if p else work.pop(e)
        if not c:
            continue
        absent = ~sum(1 << i for i, x in enumerate(e) if x)
        for lm, mask, inv, tail in divisors:
            if mask & absent:
                continue
            if all(x <= y for x, y in zip(lm, e)):
                break
        else:
            remainder[e] = c
            if full:
                continue
            return remainder
        c = c * inv % p if p else c * inv
        shift = tuple([y - x for x, y in zip(lm, e)])
        for te, tc in tail:
            ne = tuple([x + y for x, y in zip(te, shift)])
            old = work.get(ne)
            if old is None:
                old = 0
                heappush(heap, (-sum(ne), ne[::-1], ne))
            work[ne] = old - c * tc
    return remainder


def tuple_normal_form(f, basis):
    divisors = tuple_divisors(list(basis), f.vars, f.field)
    return Polynomial.from_dict(f.vars, f.field, tuple_divide(dict(f.terms), divisors,
                                                              f.field.char, full=True))


def tuple_failure_witness(gb):
    """The witness of the oracle before packed keys: S-polynomials on tuples,
    the syzygy pairs by a full sort, then the ordered scan."""
    p = gb.field.char
    divisors = tuple_divisors(gb.polys, gb.vars, gb.field)

    def fails(a, b):
        lf, _, kf, tf = divisors[a]
        lg, _, kg, tg = divisors[b]
        sf = tuple([y - x if y > x else 0 for x, y in zip(lf, lg)])
        sg = tuple([x - y if x > y else 0 for x, y in zip(lf, lg)])
        work = {mono_mul(e, sf): c * kf for e, c in tf}
        for e, c in tg:
            e = mono_mul(e, sg)
            work[e] = work.get(e, 0) - c * kg
        return bool(tuple_divide(work, divisors, p, full=False))

    def coprime(a, b):
        return not divisors[a][1] & divisors[b][1]

    if not any(fails(k, j) for k, j in syzygy_pairs_by_sorting([d[0] for d in divisors])):
        return None
    pairs = range(len(divisors))
    for a, b in itertools.combinations(pairs, 2):
        if not coprime(a, b) and fails(a, b):
            return next(pair for pair in itertools.combinations(pairs, 2)
                        if pair == (a, b) or coprime(*pair) and fails(*pair))
    return None


def non_groebner_divisions():
    """Seeded (f, divisor list) over Q, F_5 and F_32003: lists that are
    seldom Groebner bases, some with zero divisors or a constant divisor
    (inserted at random places), some below the degree of f."""
    rng = random.Random(20261019)
    for i in range(90):
        field = (QQ, Fp(5), Fp(32003))[i % 3]
        vs = varset(*(f"x{v}" for v in range(1 + i % 4)))
        divisors = [random_polynomial(vs, field, rng, degree=rng.randint(1, 3),
                                      terms=rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        if i % 4 == 1:
            divisors.insert(rng.randint(0, len(divisors)), Polynomial.zero(vs, field))
        if i % 5 == 2:
            divisors.insert(rng.randint(0, len(divisors)), Polynomial.const(vs, field, 3))
        yield random_polynomial(vs, field, rng, degree=rng.randint(2, 7), terms=8), divisors


def test_naive_normal_form_matches_tuple_division():
    kinds = {"zero": 0, "constant": 0, "above": 0, "nonzero": 0}
    for f, divisors in non_groebner_divisions():
        got = naive_normal_form(f, divisors)
        assert got == tuple_normal_form(f, divisors), (f, divisors)
        assert naive_normal_form(f, divisors[::-1]) == tuple_normal_form(f, divisors[::-1])
        kinds["zero"] += any(g.is_zero() for g in divisors)
        kinds["constant"] += any(g.degree() == 0 for g in divisors)
        kinds["above"] += f.degree() > max(g.degree() for g in divisors)
        kinds["nonzero"] += not got.is_zero()
    assert min(kinds.values()) >= 10, kinds


def corruptions(gb, rng):
    """gb with one element dropped, with one extra element inserted, and with
    one tail coefficient multiplied by 3; each at a seeded place."""
    polys = list(gb.polys)
    field = gb.field
    k = rng.randrange(len(polys))
    yield polys[:k] + polys[k + 1:]
    extra = random_polynomial(gb.vars, field, rng, degree=rng.randint(1, 3), terms=3)
    yield polys[:k] + [extra] + polys[k:]
    i, t = rng.choice([(i, t) for i, g in enumerate(polys) for t in range(1, len(g.terms))])
    terms = list(polys[i].terms)
    terms[t] = (terms[t][0], field.of(terms[t][1] * 3))
    yield polys[:i] + [Polynomial(gb.vars, field, tuple(terms))] + polys[i + 1:]


@pytest.mark.parametrize("name", ["perm3_Fp32003", "perm3_Q", "random3", "random6",
                                  "random11", "random13", "random15", "random19"])
def test_oracle_witness_matches_tuple_division(name):
    gb = mutation_basis(name)
    rng = random.Random(name)
    witnesses = []
    for _ in range(4):
        for polys in corruptions(gb, rng):
            bad = GroebnerBasis(gb.vars, gb.field, tuple(polys), gb.stats)
            want = tuple_failure_witness(bad)
            assert groebner_failure_witness(bad) == want, polys
            witnesses.append(want)
    assert any(w is not None for w in witnesses)


# ------------------------------------------------------- oracle independence


def imports(module):
    """(module, names) of every import statement in a module's source, a
    relative module written with its leading dots."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out.append(("." * node.level + (node.module or ""),
                        tuple(alias.name for alias in node.names)))
    return out


def test_oracle_names_nothing_of_the_engine():
    """The oracle shares no code with the engine, by import: verify.py takes
    nothing of the package but fields and poly, so no groebner module, and
    groebner.py takes only public names from verify, never the module."""
    for module, names in imports(verify):
        assert module in (".fields", ".poly") or not (
            module.startswith(".") or module.split(".")[0] == "detcomp"), (module, names)
    taken = []
    for module, names in imports(groebner):
        if module in (".verify", "detcomp.verify"):
            taken += names
        else:
            assert "verify" not in module.split(".") + list(names), (module, names)
    assert taken and not [name for name in taken if name.startswith("_") or name == "*"]


# ------------------------------------------------------ generators in the basis
#
# VERIFY_BASES also checks J ⊆ <G>: each input generator divides to zero by
# the basis. The other inclusion, <G> ⊆ J, is not checked yet.


def test_membership_catches_a_basis_of_a_smaller_ideal():
    field = Fp(32003)
    f = perm_polynomial(3, field)
    x11 = Polynomial.variable(f.vars, field, "x11")
    jac = jacobian_ideal(f)
    gb = buchberger(jac)
    assert is_groebner_basis(gb)
    assert membership_failure_witness(gb, jac.generators) is None
    assert membership_failure_witness(gb, jac.generators + (x11,)) == x11
    # the other way round, a basis of a larger ideal, needs <G> ⊆ J
    wider = buchberger(Ideal(f.vars, field, jac.generators + (x11,)))
    assert is_groebner_basis(wider)
    assert membership_failure_witness(wider, jac.generators) is None


@pytest.mark.parametrize("name", ["perm3_Fp32003", "perm3_Q"])
def test_membership_catches_dropped_elements_the_pair_check_passes(name):
    """A reduced basis with one element dropped may still be a Groebner
    basis, of a smaller ideal; a generator of the input then has a nonzero
    remainder. Every drop is caught by one of the two checks."""
    gb = mutation_basis(name)
    gens = jacobian_ideal(perm_polynomial(3, gb.field)).generators
    still_groebner = 0
    for drop in range(len(gb.polys)):
        bad = corrupted(gb, drop)
        if is_groebner_basis(bad):
            still_groebner += 1
            assert membership_failure_witness(bad, gens) is not None, drop
    assert still_groebner


def test_buchberger_raises_on_a_generator_outside_its_basis(monkeypatch):
    """Seeding that loses a generator gives a Groebner basis of a smaller
    ideal; VERIFY_BASES raises on it."""
    lost = P("y*z - 1")
    real = groebner._term_keys
    monkeypatch.setattr(groebner, "_term_keys",
                        lambda terms, stage: [] if terms == lost.terms else real(terms, stage))
    with pytest.raises(AssertionError, match="outside the ideal of the basis: y\\*z - 1"):
        buchberger(ideal_of(P("x^2 - y"), lost))
