"""Groebner engine: reduced bases, normal forms, dimension, resource caps."""

import functools
import hashlib
import itertools
import pathlib
import random

import pytest
from conftest import stretch

from detcomp import groebner
from detcomp.cli import main
from detcomp.fields import QQ, Fp
from detcomp.groebner import (
    EngineLimits,
    GroebnerBasis,
    Ideal,
    ResourceCapError,
    buchberger,
    contains,
    dimension,
    groebner_failure_witness,
    is_groebner_basis,
    naive_normal_form,
    normal_form,
    staircase_dimension,
)
from detcomp.matmap import perm_polynomial
from detcomp.poly import (
    Polynomial,
    mono_divides,
    mono_key,
    poly_ring,
    random_polynomial,
    varset,
)
from detcomp.singularity import jacobian_ideal

XY = varset("x", "y")
XYZ = varset("x", "y", "z")


def mono_mul(a, b):
    """Reference exponent-tuple product, for checking the packed term keys."""
    return tuple(x + y for x, y in zip(a, b))


def mono_div(b, a):
    """Reference exponent-tuple quotient b / a; the caller guarantees divisibility."""
    return tuple(y - x for x, y in zip(a, b))


def P(text, vars=XYZ, field=QQ):
    return Polynomial.parse(text, vars=vars, field=field)


def ideal(*texts, vars=XYZ, field=QQ):
    return Ideal.of(*(P(t, vars, field) for t in texts))


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
        spoly = mf * f.monic() - mg * g.monic()
        assert naive_normal_form(spoly, polys).is_zero()
    # the cubic relation y*x - z is a consequence
    assert contains(P("x*y - z", field=Fp(7)), gb)


def test_basis_is_monic_and_sorted(rng):
    for _ in range(10):
        gens = [random_polynomial(XYZ, Fp(13), rng, degree=2, terms=3) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(Ideal.of(*gens))
        lms = gb.leading_monomials()
        for p in gb.polys:
            assert p.leading_coefficient() == gb.field.one
        from detcomp.poly import mono_key

        keys = [mono_key(e) for e in lms]
        assert keys == sorted(keys)
        # reduced: no leading monomial divides a monomial of another element
        from detcomp.poly import mono_divides

        for i, p in enumerate(gb.polys):
            for e in p.monomials():
                for j, q in enumerate(gb.polys):
                    if i != j:
                        assert not mono_divides(q.leading_monomial(), e)


def test_deterministic_output(rng):
    gens = [random_polynomial(XYZ, Fp(13), rng, degree=2, terms=4) for _ in range(3)]
    a = buchberger(Ideal.of(*gens))
    b = buchberger(Ideal.of(*gens))
    assert [str(p) for p in a.polys] == [str(p) for p in b.polys]


def test_generator_order_does_not_change_basis(rng):
    gens = [
        P("x^2 - y", field=Fp(7)),
        P("x*y - z", field=Fp(7)),
        P("y^2 - x*z", field=Fp(7)),
    ]
    reference = {str(p) for p in buchberger(Ideal.of(*gens)).polys}
    for perm in itertools.permutations(gens):
        got = {str(p) for p in buchberger(Ideal.of(*perm)).polys}
        assert got == reference


def test_criteria_do_not_change_the_basis(rng):
    for _ in range(8):
        gens = [random_polynomial(XYZ, Fp(7), rng, degree=2, terms=3) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        fast = buchberger(Ideal.of(*gens), use_criteria=True)
        slow = buchberger(Ideal.of(*gens), use_criteria=False)
        assert [str(p) for p in fast.polys] == [str(p) for p in slow.polys]


def test_mixed_ring_generators_rejected():
    from detcomp.fields import FieldMismatchError

    with pytest.raises(FieldMismatchError):
        Ideal(XY, QQ, (P("x", XY), P("x", XY, Fp(5))))
    with pytest.raises(ValueError):
        Ideal.of()


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
        gb = buchberger(Ideal.of(*gens))
        for g in gens:
            assert normal_form(g, gb).is_zero()
            assert contains(g, gb)


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
    gb = buchberger(Ideal.of(*gens))
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
        if all(g.evaluate(pt).is_zero() for g in gens):
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
        gb = buchberger(Ideal.of(*local))
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
        gb = buchberger(Ideal.of(*gens[:k]))
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


def test_dimension_accepts_ideal_or_basis():
    idl = ideal("x - y", vars=XY)
    gb = buchberger(idl)
    assert dimension(idl) == dimension(gb) == 1


def test_det2_jacobian_has_codim_four():
    """Partials of the 2x2 determinant cut out the zero matrix only."""
    from detcomp.matmap import generic_det_polynomial

    det2 = generic_det_polynomial(2)
    gens = [det2.partial_derivative(i) for i in range(4)]
    gb = buchberger(Ideal.of(*gens))
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
        buchberger(Ideal.of(big), limits=EngineLimits(time_limit=0.0))
    assert ei.value.stage == "reduction"
    assert len(buchberger(Ideal.of(big)).polys) == 1


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
    guards = groebner._guards(n)
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
            rem = groebner._reduce_terms(groebner._term_keys([(e, 3)], "test"), [elem],
                                         field, guards)
            want = mono_divides(a, e)
            assert rem == ([] if want else [(keys_of([e])[0], 3)])
            seen[want] += 1
    assert seen[True] >= 40 and (seen[False] >= 30 or n == 0)


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
        gens.append(Polynomial.from_terms(XYZ, field, terms))
    return Ideal.of(*gens)


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
    from detcomp.fields import FieldMismatchError

    f = P("x*y + y", XY)
    for divisor in (P("y - z"), P("y", XY, Fp(7)), Polynomial.zero(XYZ, QQ)):
        with pytest.raises(FieldMismatchError):
            naive_normal_form(f, [divisor])  # zip once cut (x, y) against (x, y, z)
    assert naive_normal_form(f, [P("y", XY)]).is_zero()
    gb = buchberger(ideal("x^2 - y", "x*y - 1", vars=XY))
    with pytest.raises(FieldMismatchError):
        groebner_failure_witness(GroebnerBasis(XY, QQ, gb.polys + (P("y - z"),), gb.stats))


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
    return Ideal.of(*(g for g in gens if not g.is_zero()))


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


def perm4_slice_basis():
    """perm4 with x11 = 0 over F_32003: the benchmark's certify instance."""
    F = Fp(32003)
    f = perm_polynomial(4, F)
    images = [Polynomial.zero(f.vars, F) if v == "x11" else Polynomial.variable(f.vars, F, i)
              for i, v in enumerate(f.vars)]
    return buchberger(jacobian_ideal(f.substitute_affine(images)))


def test_pinned_perm4_slice_work(monkeypatch):
    """The perm4 slice basis against the digest recorded from the engine
    before its pair update was rewritten.

    The S-pair oracle accepts that basis, but needs about 42 s of CPU for its
    130k pairs, so it is switched off here and runs in the opt-in
    test_perm4_slice_basis_reverified.
    """
    monkeypatch.setattr(groebner, "VERIFY_BASES", False)
    gb = perm4_slice_basis()
    assert work(gb) == (4128, 3633, 510, 10)
    assert basis_digest(gb) == "428b8fffcb67a672"
    assert_pair_accounting(gb)


@stretch
def test_perm4_slice_basis_reverified(monkeypatch):
    monkeypatch.setattr(groebner, "VERIFY_BASES", False)
    gb = perm4_slice_basis()
    assert basis_digest(gb) == "428b8fffcb67a672"
    assert is_groebner_basis(gb)


def test_golden_perm3_certificate_json(capsys):
    rc = main(["certify", "--poly", "perm3", "--field", "Fp:32003",
               "--format", "json", "--deterministic"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (DATA / "certify_perm3_Fp32003.json").read_text()


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
        terms[t] = (e, gb.field.add(c, gb.field.one))
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
    assert is_groebner_basis(gb) == (want is None)
    if want is not None:
        a, b = (gb.polys[i].leading_monomial() for i in want)
        assert all(x == 0 or y == 0 for x, y in zip(a, b)) == coprime
