"""Buchberger engine, normal forms, and Krull dimension via staircases.

Monomial order is degrevlex throughout (see poly.mono_key). The engine keeps
an internal keyed representation: a polynomial is a list of (exps, coeff)
pairs in strictly descending order, basis elements are monic with cached
leading-monomial data, and reduction runs over a dict accumulator driven by a
lazy max-heap. Pair selection is the normal strategy (minimal lcm degree,
deterministic tie-break); the Gebauer-Moeller product, M and chain criteria
prune pairs and can be switched off to cross-check that the reduced basis does
not change. Resource caps raise, they never truncate silently: they are
checked after each seeded generator, before each S-pair, for each element of
the final minimalize and inter-reduce passes, and every 1024 heap pops inside
a reduction.

The pair update (Gebauer & Moeller 1988) works on leading monomials packed
into one int each, as in Monagan & Pearce's heap division (2011): one field of
_FIELD bits per variable, x1 in the most significant field, and the top bit of
every field a guard bit that stays clear. Comparing packed ints is then the
same as comparing exponent tuples, so the pair queue keeps the order
(lcm degree, lcm tuple, i, j) and every counter and basis matches the tuple
form. Divisibility is one subtraction against the guard bits, the lcm one
field-wise select, and the lcm degree one multiplication. Each live pair
keeps its packed lcm, so the chain criterion rereads it instead of
recomputing it, and the M-criterion tests a candidate only against the
candidates already kept. A leading monomial whose degree does not fit a field
raises ResourceCapError when it is packed; it never wraps.

Verification is independent of the engine: naive_normal_form scans a plain
dict for its maximal monomial and divides textbook-style, and
is_groebner_basis re-reduces every S-polynomial that way. Tests flip
VERIFY_BASES so every basis computed through buchberger() is re-verified.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass, field as dc_field
from heapq import heappush, heappop
from itertools import combinations
from operator import attrgetter

from .fields import Field, FieldMismatchError, QQ
from .poly import (
    ArityError,
    Polynomial,
    VarSet,
    mono_div,
    mono_divides,
    mono_key,
    mono_lcm,
    mono_mul,
)

VERIFY_BASES = False  # tests enable this; every computed basis is re-verified


class ResourceCapError(RuntimeError):
    """A configured engine limit was hit; partial results are never returned."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"resource cap exceeded during {stage}: {detail}")
        self.stage = stage
        self.detail = detail


@dataclass(frozen=True)
class EngineLimits:
    max_pairs: int = 500_000       # S-pairs processed
    max_basis: int = 10_000        # intermediate basis size
    max_degree: int | None = None  # lcm degree of any processed pair
    time_limit: float | None = None  # wall seconds


DEFAULT_LIMITS = EngineLimits()


@dataclass(frozen=True)
class Ideal:
    vars: VarSet
    field: Field
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if g.vars != self.vars or g.field != self.field:
                raise FieldMismatchError("generators must live in the declared ring")

    @classmethod
    def of(cls, *gens: Polynomial) -> "Ideal":
        if not gens:
            raise ValueError("need at least one generator")
        return cls(gens[0].vars, gens[0].field, tuple(gens))


@dataclass(frozen=True)
class GroebnerStats:
    pairs_processed: int
    zero_reductions: int
    basis_size: int
    max_degree_processed: int
    wall_time: float
    # Gebauer-Moeller accounting: created = product + M + pushed onto the
    # queue, and pushed = processed + chain once the queue has drained.
    pairs_created: int = 0
    pruned_product: int = 0
    pruned_m: int = 0
    pruned_chain: int = 0


@dataclass(frozen=True)
class GroebnerBasis:
    vars: VarSet
    field: Field
    polys: tuple  # reduced basis, monic, ascending leading monomials
    stats: GroebnerStats
    order: str = "degrevlex"

    def leading_monomials(self) -> list:
        return [p.leading_monomial() for p in self.polys]

    def is_trivial(self) -> bool:
        """True when 1 is in the ideal (the variety is empty over the closure)."""
        return len(self.polys) == 1 and self.polys[0].degree() == 0


def _nkey(e):
    """Heap key: smaller nkey = larger monomial in degrevlex."""
    return (-sum(e), tuple(reversed(e)))


def _mask(e) -> int:
    m = 0
    for i, x in enumerate(e):
        if x:
            m |= 1 << i
    return m


_FIELD = 16                          # bits per variable in a packed monomial
_MAX_PACKED_DEGREE = (1 << (_FIELD - 1)) - 1  # every field keeps its guard bit


def _pack(e) -> int:
    """Exponent tuple -> packed int, x1 in the most significant field.

    The degree bound keeps every exponent, and the degree of any lcm of two
    packed monomials, inside one field.
    """
    d = sum(e)
    if d > _MAX_PACKED_DEGREE:
        raise ResourceCapError(
            "pair update",
            f"leading monomial of degree {d} exceeds the packed limit {_MAX_PACKED_DEGREE}")
    m = 0
    for x in e:
        m = (m << _FIELD) | x
    return m


class _Elem:
    __slots__ = ("lm", "mask", "packed", "order", "tail")

    def __init__(self, terms):
        # terms descending, monic
        lm = terms[0][0]
        self.lm = lm
        self.mask = _mask(lm)
        self.packed = _pack(lm)
        # divisor search order: degree, then the reversed exponents; as one
        # packed int it sorts like (degree, _nkey(lm))
        self.order = (sum(lm) << (len(lm) * _FIELD)) | _pack(lm[::-1])
        self.tail = terms[1:]


_ORDER = attrgetter("order")


def _poly_terms(p: Polynomial) -> list:
    return list(p.terms)


def _monic_terms(terms, field):
    inv = field.inv(terms[0][1])
    if inv == field.one:
        return list(terms)
    mul = field.mul
    return [(e, mul(c, inv)) for e, c in terms]


def _reduce_terms(terms, reducers, field, deadline=None):
    """Full normal form of a term list modulo monic reducers.

    Returns the remainder as a descending term list. reducers must be sorted
    in the order divisor search should try them (ascending lm degree). With a
    deadline (a time.monotonic() value) it is checked every 1024 heap pops.
    """
    prime = field.char if field.char else None
    acc: dict = {}
    heap: list = []
    if prime:
        for e, c in terms:
            prev = acc.get(e)
            if prev is None:
                acc[e] = c % prime
                heappush(heap, (_nkey(e), e))
            else:
                acc[e] = (prev + c) % prime
    else:
        for e, c in terms:
            prev = acc.get(e)
            if prev is None:
                acc[e] = c
                heappush(heap, (_nkey(e), e))
            else:
                acc[e] = prev + c
    out = []
    pops = 0
    while heap:
        _, e = heappop(heap)
        pops += 1
        if not pops & 1023 and deadline is not None and time.monotonic() > deadline:
            raise ResourceCapError("reduction", f"time limit hit after {pops} heap pops")
        c = acc.pop(e, None)
        if not c:
            continue
        emask = _mask(e)
        red = None
        for g in reducers:
            if g.mask & ~emask:
                continue
            lm = g.lm
            ok = True
            for a, b in zip(lm, e):
                if a > b:
                    ok = False
                    break
            if ok:
                red = g
                break
        if red is None:
            out.append((e, c))
            continue
        shift = tuple(x - y for x, y in zip(e, red.lm))
        if prime:
            for te, tc in red.tail:
                ne = tuple(x + y for x, y in zip(te, shift))
                prev = acc.get(ne)
                if prev is None:
                    acc[ne] = -c * tc % prime
                    heappush(heap, (_nkey(ne), ne))
                else:
                    acc[ne] = (prev - c * tc) % prime
        else:
            for te, tc in red.tail:
                ne = tuple(x + y for x, y in zip(te, shift))
                prev = acc.get(ne)
                if prev is None:
                    acc[ne] = -c * tc
                    heappush(heap, (_nkey(ne), ne))
                else:
                    nc = prev - c * tc
                    if nc:
                        acc[ne] = nc
                    else:
                        del acc[ne]
    return out


def _spoly_terms(f: _Elem, g: _Elem, field):
    lcm = mono_lcm(f.lm, g.lm)
    sf = mono_div(lcm, f.lm)
    sg = mono_div(lcm, g.lm)
    neg = field.neg
    terms = [(mono_mul(f.lm, sf), field.one)]
    terms += [(mono_mul(e, sf), c) for e, c in f.tail]
    terms.append((mono_mul(g.lm, sg), neg(field.one)))
    terms += [(mono_mul(e, sg), neg(c)) for e, c in g.tail]
    return terms


def buchberger(
    ideal: Ideal,
    limits: EngineLimits | None = None,
    use_criteria: bool = True,
) -> GroebnerBasis:
    """Reduced degrevlex Groebner basis of the ideal."""
    limits = limits or DEFAULT_LIMITS
    field = ideal.field
    start = time.monotonic()
    deadline = None if limits.time_limit is None else start + limits.time_limit

    # Packed-monomial constants for this ring (see the module docstring).
    n = len(ideal.vars)
    value_bits = _FIELD - 1
    ones = sum(1 << (k * _FIELD) for k in range(n))  # a 1 in every field
    guards = ones << value_bits
    deg_shift = max(n - 1, 0) * _FIELD  # x * ones sums every field into the top one
    field_mask = (1 << _FIELD) - 1

    basis: list[_Elem] = []
    reducers: list[_Elem] = []
    heap: list = []  # (lcm_deg, packed lcm, i, j)
    live: dict = {}  # (i, j) -> packed lcm of the pairs still pending
    pairs_processed = 0
    zero_reductions = 0
    max_degree_processed = 0
    pairs_created = pruned_product = pruned_m = pruned_chain = 0

    def check_caps(stage: str):
        if pairs_processed > limits.max_pairs:
            raise ResourceCapError(stage, f"pair limit {limits.max_pairs} hit")
        if len(basis) > limits.max_basis:
            raise ResourceCapError(stage, f"basis size limit {limits.max_basis} hit")
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceCapError(stage, f"time limit {limits.time_limit}s hit")

    def add_element(terms):
        """Gebauer-Moeller update with the new monic element."""
        nonlocal pairs_created, pruned_product, pruned_m, pruned_chain
        elem = _Elem(terms)
        t = len(basis)
        lm = elem.packed
        lm_g = lm | guards
        # lcms[i] = lcm(lm_i, lm): guard bits of lm_g - lm_i mark the fields
        # where lm is the larger exponent; widen them to field masks.
        lcms = []
        for g in basis:
            sel = (lm_g - g.packed) & guards
            sel -= sel >> value_bits
            lcms.append((lm & sel) | (g.packed & ~sel))
        pairs_created += t
        if use_criteria:
            # chain criterion on the pending pairs: the new lm divides their
            # lcm, and neither lcm with the new element equals it
            doomed = []
            for key, lcm in live.items():
                if ((lcm | guards) - lm) & guards == guards:
                    i, j = key
                    if lcms[i] != lcm and lcms[j] != lcm:
                        doomed.append(key)
            for key in doomed:
                del live[key]
            pruned_chain += len(doomed)
            # M-criterion: in (degree, lcm, i) order, a candidate survives
            # unless the lcm of a candidate kept before it divides its own
            cand = sorted((((lcm * ones) >> deg_shift) & field_mask, lcm, i)
                          for i, lcm in enumerate(lcms))
            kept = []
            kept_lcms = []
            for c in cand:
                lcm_g = c[1] | guards
                for other in kept_lcms:
                    if (lcm_g - other) & guards == guards:
                        break
                else:
                    kept.append(c)
                    kept_lcms.append(c[1])
            pruned_m += t - len(kept)
            for deg_l, lcm, i in kept:
                if not basis[i].mask & elem.mask:
                    pruned_product += 1  # coprime leading monomials
                    continue
                live[(i, t)] = lcm
                heappush(heap, (deg_l, lcm, i, t))
        else:
            for i, lcm in enumerate(lcms):
                live[(i, t)] = lcm
                heappush(heap, (((lcm * ones) >> deg_shift) & field_mask, lcm, i, t))
        basis.append(elem)
        insort(reducers, elem, key=_ORDER)

    # seed with the reduced nonzero generators
    for g in ideal.generators:
        if g.is_zero():
            continue
        red = _reduce_terms(_poly_terms(g), reducers, field, deadline)
        if red:
            add_element(_monic_terms(red, field))
        check_caps("seeding")

    while heap:
        deg_l, lcm, i, j = heappop(heap)
        if live.pop((i, j), None) is None:
            continue
        pairs_processed += 1
        if deg_l > max_degree_processed:
            max_degree_processed = deg_l
        if limits.max_degree is not None and deg_l > limits.max_degree:
            raise ResourceCapError("pair processing", f"degree limit {limits.max_degree} hit at {deg_l}")
        check_caps("pair processing")
        spoly = _spoly_terms(basis[i], basis[j], field)
        red = _reduce_terms(spoly, reducers, field, deadline)
        if red:
            add_element(_monic_terms(red, field))
        else:
            zero_reductions += 1

    # minimalize: keep only elements whose lm no other kept lm divides
    kept: list[_Elem] = []
    for g in sorted(basis, key=_ORDER):
        check_caps("minimalize")
        packed_g = g.packed | guards
        for k in kept:
            if (packed_g - k.packed) & guards == guards:
                break
        else:
            kept.append(g)
    # inter-reduce tails; kept is already in divisor search order
    final_terms = []
    for g in kept:
        check_caps("inter-reduce")
        others = [k for k in kept if k is not g]
        terms = [(g.lm, field.one)] + list(g.tail)
        red = _reduce_terms(terms, others, field, deadline)
        final_terms.append(_monic_terms(red, field))
    final_terms.sort(key=lambda ts: mono_key(ts[0][0]))
    polys = tuple(Polynomial(ideal.vars, field, tuple(ts)) for ts in final_terms)
    stats = GroebnerStats(
        pairs_processed=pairs_processed,
        zero_reductions=zero_reductions,
        basis_size=len(polys),
        max_degree_processed=max_degree_processed,
        wall_time=time.monotonic() - start,
        pairs_created=pairs_created,
        pruned_product=pruned_product,
        pruned_m=pruned_m,
        pruned_chain=pruned_chain,
    )
    result = GroebnerBasis(ideal.vars, field, polys, stats)
    if VERIFY_BASES and polys:
        failure = groebner_failure_witness(result)
        if failure is not None:
            raise AssertionError(f"S-pair re-verification failed: {failure}")
    return result


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo the reduced basis."""
    if p.vars != gb.vars or p.field != gb.field:
        raise FieldMismatchError("polynomial and basis must share one ring")
    if p.is_zero() or not gb.polys:
        return p
    elems = [_Elem(list(g.terms)) for g in gb.polys]
    elems.sort(key=_ORDER)
    red = _reduce_terms(list(p.terms), elems, gb.field)
    return Polynomial(p.vars, p.field, tuple(red))


def contains(p: Polynomial, gb: GroebnerBasis) -> bool:
    return normal_form(p, gb).is_zero()


# -- independent verification ------------------------------------------------


def naive_normal_form(p: Polynomial, basis) -> Polynomial:
    """Textbook division: scan a dict for its max monomial, divide, repeat.

    Shares no code with the engine reducer; used to re-verify bases.
    """
    field = p.field
    zero = field.zero
    work = dict(p.terms)
    remainder: dict = {}
    heads = [(g.leading_monomial(), g.leading_coefficient(), list(g.terms)[1:]) for g in basis if not g.is_zero()]
    while work:
        e = max(work, key=mono_key)
        c = work.pop(e)
        if c == zero:
            continue
        hit = None
        for lm, lc, tail in heads:
            if mono_divides(lm, e):
                hit = (lm, lc, tail)
                break
        if hit is None:
            remainder[e] = c
            continue
        lm, lc, tail = hit
        factor = field.div(c, lc)
        shift = mono_div(e, lm)
        for te, tc in tail:
            ne = mono_mul(te, shift)
            val = field.sub(work.get(ne, zero), field.mul(factor, tc))
            if val == zero:
                work.pop(ne, None)
            else:
                work[ne] = val
    return Polynomial.from_dict(p.vars, p.field, remainder)


def groebner_failure_witness(gb: GroebnerBasis):
    """None if every S-polynomial reduces to zero; else a witness pair."""
    polys = gb.polys
    field = gb.field
    for a, b in combinations(range(len(polys)), 2):
        f, g = polys[a], polys[b]
        lf, lg = f.leading_monomial(), g.leading_monomial()
        lcm = mono_lcm(lf, lg)
        mf = Polynomial.from_dict(gb.vars, field, {mono_div(lcm, lf): field.div(field.one, f.leading_coefficient())})
        mg = Polynomial.from_dict(gb.vars, field, {mono_div(lcm, lg): field.div(field.one, g.leading_coefficient())})
        s = mf * f - mg * g
        if not naive_normal_form(s, polys).is_zero():
            return (a, b)
    return None


def is_groebner_basis(gb: GroebnerBasis) -> bool:
    return groebner_failure_witness(gb) is None


# -- dimension ----------------------------------------------------------------


def staircase_dimension(lead_monomials, n: int) -> int:
    """Affine Krull dimension from the leading-monomial staircase.

    dim = size of the largest variable subset S such that no leading monomial
    is supported entirely inside S; -1 when 1 is among the leading monomials.
    """
    masks = set()
    for e in lead_monomials:
        if sum(e) == 0:
            return -1
        masks.add(_mask(e))
    if not masks:
        return n
    # a subset-minimal mask makes any superset mask redundant
    minimal = [m for m in masks if not any(o != m and o & m == o for o in masks)]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            smask = 0
            for i in subset:
                smask |= 1 << i
            if all(m & ~smask for m in minimal):
                return size
    return 0


def dimension(ideal_or_basis, limits: EngineLimits | None = None) -> int:
    """Dimension of the affine variety; -1 for the empty variety."""
    gb = ideal_or_basis
    if isinstance(gb, Ideal):
        gb = buchberger(gb, limits=limits)
    return staircase_dimension(gb.leading_monomials(), len(gb.vars))
