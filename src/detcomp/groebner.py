"""Buchberger engine and normal forms (poly.staircase_dimension reads the
Krull dimension off a basis's leading monomials).

Monomial order is degrevlex throughout (see poly.mono_key). Inside the engine
a polynomial is a descending list of (key, coeff) pairs, and basis elements
are monic with cached leading-monomial data. Pairs are chosen by the normal
strategy (minimal lcm degree, deterministic tie-break); the Gebauer-Moeller
product, M and chain criteria prune them and can be switched off to check
that the reduced basis does not change.

A reduction takes one of two paths, which give the same remainder.
- The heap path serves every input: the remainder is a dict driven by a
  lazy min-heap of keys (Monagan & Pearce 2011).
- The slot path (slots.slot_reduce) runs when the field is prime, every
  generator is homogeneous, n >= 2, the input's degree d has at most 255
  monomials and the input has at least a quarter as many terms. Reduction
  then never leaves degree d, so the remainder is a list indexed by the rank
  of each degree-d key, and each update goes through a product row cached
  per (n, d): the idea of F4 (Faugere 1999), a fixed monomial set per
  degree, in its simplest form. It walks the keys in the heap's pop order
  and takes the same first divisor, so every remainder, counter and basis
  is the heap path's.

Resource caps raise, never truncate: they are checked after each seeded
generator, before each S-pair, per element of the final minimalize and
inter-reduce passes, and every 1024 heap pops of a reduction. A slot
reduction reads no deadline: it visits at most 255 slots, each writing at
most 254 tail terms, so the check before its pair bounds it. A heap
reduction of the same input pops at most 255 keys and never reaches its
first deadline read either, so the caps fire where they did.
Under VERIFY_BASES the S-pair oracle of verify.py, which imports nothing
from this module, re-checks each basis and that it holds the generators.

Engine terms are (key, coeff) pairs, as in Monagan & Pearce's heap division
(2011). A key packs a monomial into one int: 17-bit fields (_KEY_FIELD), x_n
most significant, under _KEY_BASE - degree (defined in slots.py, with
_exps and _guards, as its layouts list keys). A smaller key is a larger
monomial, keys add like exponents (a shift is one addition), and the heap
compares ints. Each field's top bit is a guard kept clear, so divisibility is
a support-mask test and one subtraction; reduction exponents, at most an
S-pair's lcm degree 2 * _MAX_PACKED_DEGREE, stay below the guard. Terms are
packed once, on seeding or normal_form input (a larger degree raises
ResourceCapError), and unpacked once, into the result's Polynomials, after
the engine's state is dropped.

Reducers (_Reducers) are kept in divisor search order, ascending lm degree
and then the reversed exponents, and a term is reduced by the first one that
divides it. Up to _SCAN_LIMIT of them are scanned in order. Past that, an
index finds the same one without walking the list, a support-mask filter in
the spirit of the short exponent vectors of Bachmann & Schoenemann (ISSAC
1998): reducer r is bit r of a bitset, a table per _CHUNK variables maps the
term's support on them to the reducers using an absent variable, and one
AND-NOT leaves the candidates, which the guard test tries lowest rank first.
An insertion shifts the higher ranks of every table by one. The main loop,
the inter-reduce pass (one index over the kept elements, which reduces tails
only) and normal_form all search this way.

The pair update (Gebauer & Moeller 1988) packs each leading monomial in
16-bit lex order (_FIELD, x1 most significant, with guard bits), which
compares like exponent tuples: the pair queue order (lcm degree, lcm, i, j),
every counter and every basis match the tuple form. An lcm is a field-wise
select of two packed monomials, its degree one multiplication. A pending
pair is one int (_pair_entry): the lcm degree, the packed lcm, i and j in
fields sized by limits.max_basis, and in the lowest n bits the lcm's support
mask, which never decides a comparison, so the ints order like the tuples
and the heap is the set of pending pairs. The chain criterion scans it,
tests the support bits before the guard subtraction, in place, and puts the
pairs it removes in a set of dead entries, which the pop loop skips and
empties. The M-criterion keeps, of the new element's candidate pairs
(i, t), those whose lcm(lm_i, lm) no other candidate's lcm properly
divides, an equal lcm keeping the smallest i. That is the textbook rule,
which drops a candidate when the lcm of one kept before it in (degree, lcm,
i) order divides its own: divisibility is transitive, so a non-minimal lcm
has a kept minimal divisor before it, and of equal minimal lcms the
smallest i comes first. _Thresholds finds these without looking
at each candidate: it keeps one bitset per variable and exponent, the
elements whose lm has an exponent of x_v above e, so the candidates whose
lcm divides a given one, and those whose lcm it divides, take n big-int ORs
or ANDs each. The packed lcm is formed only for kept pairs and chain tests.
A leading monomial past _MAX_PACKED_DEGREE raises.
"""

from __future__ import annotations

import time
from bisect import bisect
from heapq import heapify, heappush, heappop
from operator import attrgetter

from .fields import Field, FieldMismatchError, Record
from .poly import Polynomial, VarSet, _mask, _meets, staircase_dimension
from .slots import _KEY_BASE, _KEY_FIELD, _exps, _guards, slot_ready, slot_reduce
# is_groebner_basis: bench/workloads.py calls groebner.is_groebner_basis, bench/tracing.py rebinds it
from .verify import groebner_failure_witness, is_groebner_basis, membership_failure_witness

VERIFY_BASES = False  # tests enable this; every computed basis is re-verified


class ResourceCapError(RuntimeError):
    """A configured engine limit was hit; partial results are never returned."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"resource cap exceeded during {stage}: {detail}")
        self.stage = stage
        self.detail = detail


class EngineLimits(Record):
    max_pairs: int = 500_000       # S-pairs processed
    max_basis: int = 10_000        # intermediate basis size
    max_degree: int | None = None  # lcm degree of any processed pair
    time_limit: float | None = None  # wall seconds


DEFAULT_LIMITS = EngineLimits()


class Ideal(Record):
    vars: VarSet
    field: Field
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if g.vars != self.vars or g.field != self.field:
                raise FieldMismatchError("generators must live in the declared ring")


class GroebnerStats(Record):
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


class StaircaseBound(Record):
    """A run stopped by stop_codim: codim J >= codim; stats count the pairs reduced."""
    codim: int
    stats: GroebnerStats


class GroebnerBasis(Record):
    vars: VarSet
    field: Field
    polys: tuple  # reduced basis, monic, ascending leading monomials
    stats: GroebnerStats

    def leading_monomials(self) -> list:
        return [p.leading_monomial() for p in self.polys]

    def is_trivial(self) -> bool:
        """True when 1 is in the ideal (the variety is empty over the closure)."""
        return len(self.polys) == 1 and self.polys[0].degree() == 0


_FIELD = 16                          # bits per variable in a packed monomial
_MAX_PACKED_DEGREE = (1 << (_FIELD - 1)) - 1  # every field keeps its guard bit
_MAX_TERM_DEGREE = 2 * _MAX_PACKED_DEGREE  # lcm degree of two leading monomials


def _pack(e) -> int:
    """Leading monomial -> lex-packed int for the pair update; the degree
    bound keeps every exponent, and any lcm's degree, inside one field."""
    d = sum(e)
    if d > _MAX_PACKED_DEGREE:
        raise ResourceCapError(
            "pair update",
            f"leading monomial of degree {d} exceeds the packed limit {_MAX_PACKED_DEGREE}")
    m = 0
    for x in e:
        m = (m << _FIELD) | x
    return m


def _pair_entry(deg, lcm, i, j, support, n, width) -> int:
    """A pending pair as one int: lcm degree, packed lcm (n fields), i and j
    (width bits each), and the lcm's support in the lowest n bits. Entries
    compare like (deg, lcm, i, j); no two share (i, j), so the support never decides."""
    return (((deg << n * _FIELD | lcm) << width | i) << width | j) << n | support


def _pair_fields(e, n, width) -> tuple:
    """_pair_entry's inverse: (deg, lcm, i, j, support)."""
    idx = (1 << width) - 1
    low = 2 * width + n
    return (e >> low + n * _FIELD, e >> low & (1 << n * _FIELD) - 1,
            e >> width + n & idx, e >> n & idx, e & (1 << n) - 1)


def _term_keys(terms, stage: str) -> list:
    """(exps, coeff) terms -> (term key, coeff) terms, in the same order."""
    out = []
    for e, c in terms:
        d = sum(e)
        if d > _MAX_TERM_DEGREE:
            raise ResourceCapError(
                stage, f"term of degree {d} exceeds the packed limit {_MAX_TERM_DEGREE}")
        k = _KEY_BASE - d
        for x in reversed(e):
            k = (k << _KEY_FIELD) | x
        out.append((k, c))
    return out


class _Elem:
    __slots__ = ("key", "exps", "mask", "packed", "order", "tail", "slots")

    def __init__(self, terms, n):
        # terms descending term keys, monic
        self.key = terms[0][0]
        self.exps = lm = _exps(self.key, n)
        self.mask = _mask(lm)
        self.packed = _pack(lm)
        # divisor search order: degree, then the reversed exponents
        self.order = (sum(lm) << (n * _FIELD)) | _pack(lm[::-1])
        self.tail = terms[1:]
        self.slots = None  # (tail slots, tail coefficients), made by slots.slot_reduce


_ORDER = attrgetter("order")
_SCAN_LIMIT = 32  # up to this many reducers a plain scan is no slower than the index
_CHUNK = 4        # variables per lookup table of the divisor index
_CHUNK_MASK = (1 << _CHUNK) - 1


class _Reducers:
    """Monic elements in divisor search order (see the module docstring).

    The index behind finder() holds element r as bit r of a bitset. For each
    _CHUNK variables, a table maps a term's support on them to the elements
    whose lm uses one of the absent ones; those cannot divide. The candidates
    are then one AND-NOT after n / _CHUNK lookups, tried lowest bit first.
    The tables are built on the first finder() and kept up to date by add().
    """

    __slots__ = ("n", "guards", "elems", "tables")

    def __init__(self, n: int, elems=()):
        self.n = n
        self.guards = _guards(n)
        self.elems = sorted(elems, key=_ORDER)
        self.tables = None

    def add(self, elem):
        r = bisect(self.elems, elem.order, key=_ORDER)
        self.elems.insert(r, elem)
        if self.tables is None:
            return
        low = (1 << r) - 1
        bit = 1 << r
        for shift, tab in self.tables:
            uses = elem.mask >> shift & _CHUNK_MASK
            for idx, b in enumerate(tab):
                b = (b >> r << (r + 1)) | (b & low)  # ranks from r up move by one
                tab[idx] = b | bit if uses & ~idx else b

    def _tables(self):
        n = self.n
        has = [0] * n  # has[v]: the elements whose lm uses x_v
        for r, g in enumerate(self.elems):
            m = g.mask
            while m:
                low = m & -m
                has[low.bit_length() - 1] |= 1 << r
                m ^= low
        tables = []
        for shift in range(0, n, _CHUNK):
            width = min(_CHUNK, n - shift)
            tab = [0] * (_CHUNK_MASK + 1)
            for idx in range(_CHUNK_MASK, -1, -1):
                z = ~idx & (idx + 1)  # the lowest variable absent from idx
                v = z.bit_length() - 1
                if v < width:
                    tab[idx] = tab[idx | z] | has[shift + v]
            tables.append((shift, tab))
        return tables

    def finder(self):
        """The function (kg, absent) -> the first element whose lm divides
        the term, or None; kg is the term's key with every guard bit set,
        absent the complement of its support mask. Valid until the next
        add(). _reduce_terms asks for it only past _SCAN_LIMIT elements."""
        elems, guards = self.elems, self.guards
        if self.tables is None:
            self.tables = self._tables()
        tables = self.tables
        allowed = (1 << len(elems)) - 1

        def find(kg, absent):
            present = ~absent
            bad = 0
            for shift, tab in tables:
                bad |= tab[present >> shift & _CHUNK_MASK]
            cand = allowed & ~bad
            while cand:
                low = cand & -cand
                g = elems[low.bit_length() - 1]
                if (kg - g.key) & guards == guards:
                    return g
                cand ^= low
            return None
        return find


class _Thresholds:
    """Exponent-threshold bitsets of the lms, for the M-criterion and minimalize.

    Element i is bit i, and above[v][e] holds the elements whose lm has an
    exponent of x_v greater than e. Each column is longer than every exponent
    added, so an lcm of two added lms indexes inside it.
    """

    __slots__ = ("exps", "above")

    def __init__(self, n: int):
        self.exps = []
        self.above = [[0] for _ in range(n)]

    def add(self, ex):
        bit = 1 << len(self.exps)
        self.exps.append(ex)
        for col, x in zip(self.above, ex):
            if x:
                if len(col) <= x:
                    col.extend([0] * (x + 1 - len(col)))
                for e in range(x):
                    col[e] |= bit

    def minimal(self) -> list:
        """For the last lm added, the earlier i whose lcm(lm_i, lm) no other
        such lcm properly divides, the smallest i of each equal lcm.

        From the highest candidate still alive, step to any one whose lcm
        properly divides its lcm until none does; keep the smallest i with
        that lcm, then drop every candidate whose lcm is a multiple of it.
        """
        exps, above = self.exps, self.above
        ex = exps[-1]
        kept = []
        alive = (1 << (len(exps) - 1)) - 1
        while alive:
            i = alive.bit_length() - 1
            while True:
                # lcm_j divides lcm_i iff lm_j[v] <= lcm_i[v] for every v, and
                # lcm_i divides lcm_j iff lm_j[v] >= lm_i[v] wherever lm_i[v]
                # exceeds lm[v]
                bad = 0
                multiples = alive
                for col, a, b in zip(above, exps[i], ex):
                    if a > b:
                        bad |= col[a]
                        multiples &= col[a - 1]
                    else:
                        bad |= col[b]
                divisors = alive & ~bad
                smaller = divisors & ~multiples
                if not smaller:
                    break
                i = (smaller & -smaller).bit_length() - 1
            equal = divisors & multiples
            kept.append((equal & -equal).bit_length() - 1)
            alive &= ~multiples
        return kept


def _monic_terms(terms, field):
    inv = field.inv(terms[0][1])
    if inv == field.one:
        return list(terms)
    p = field.char
    return [(k, c * inv % p if p else c * inv) for k, c in terms]


def _reduce_terms(terms, reducers, field, deadline=None, graded=False):
    """Descending remainder of a term-key list by a _Reducers, each term by the
    first reducer in search order that divides it. graded: slots.slot_ready
    holds for the run's ideal, so the terms share one degree, the reducers
    are homogeneous, and slots.slot_reduce may walk them (see the module
    docstring).
    Coefficients are reduced mod p when popped; a deadline (time.monotonic())
    is read every 1024 pops."""
    prime = field.char
    # Up to _SCAN_LIMIT reducers, the scan runs here, without a call per term;
    # past that the scan list is empty and the index finds the divisor.
    scan, find = reducers.elems, None
    if len(scan) > _SCAN_LIMIT:
        scan, find = (), reducers.finder()
    if graded and (out := slot_reduce(terms, reducers, prime, scan, find)) is not None:
        return out
    acc: dict = {}
    for k, c in terms:
        acc[k] = acc.get(k, 0) + c
    heap = list(acc)
    heapify(heap)
    guards = reducers.guards
    ones = guards >> (_KEY_FIELD - 1)
    sentinel = 1 << (guards.bit_length() + _KEY_FIELD - 1)  # field n's guard bit
    out = []
    pops = 0
    while heap:
        k = heappop(heap)
        pops += 1
        if not pops & 1023 and deadline is not None and time.monotonic() > deadline:
            raise ResourceCapError("reduction", f"time limit hit after {pops} heap pops")
        # a popped key is never pushed again: reduction only adds smaller terms
        c = acc.pop(k) % prime if prime else acc.pop(k)
        if not c:
            continue
        # g divides the term iff its support is inside the term's and no field
        # of k - g.key borrows its guard bit. The support: guards that survive
        # a -1 per field, read off bin() every 17 digits after a sentinel bit n.
        kg = k | guards
        absent = ~int(bin((kg - ones) & guards | sentinel)[2::_KEY_FIELD], 2)
        for g in scan:
            if not g.mask & absent and (kg - g.key) & guards == guards:
                break
        else:
            if find is None or (g := find(kg, absent)) is None:
                out.append((k, c))
                continue
        shift = k - g.key
        for tk, tc in g.tail:
            tk += shift
            prev = acc.get(tk)
            if prev is None:
                acc[tk] = -c * tc
                heappush(heap, tk)
            else:
                acc[tk] = prev - c * tc
    return out


def buchberger(ideal: Ideal, limits: EngineLimits | None = None,
               use_criteria: bool = True,
               stop_codim: int | None = None) -> GroebnerBasis | StaircaseBound:
    """Reduced degrevlex Groebner basis of the ideal J.

    stop_codim=c may end the run early with a StaircaseBound. Every element
    made lies in J, so for those made so far, H, LT(H) is inside LT(J) and
    codim J = codim LT(J) >= codim LT(H) (Macaulay). At a pair boundary,
    after the caps, once a new lm support has joined the subset-minimal ones,
    the run stops if their staircase codim has reached c: it returns that
    lower bound and no partial basis, so VERIFY_BASES never sees one.
    """
    if stop_codim is not None and stop_codim < 1:
        raise ValueError(f"stop_codim must be at least 1, got {stop_codim}")
    limits = limits or DEFAULT_LIMITS
    field = ideal.field
    graded = slot_ready(ideal)
    start = time.monotonic()
    deadline = None if limits.time_limit is None else start + limits.time_limit

    # Packed-monomial constants for this ring (see the module docstring).
    n = len(ideal.vars)
    value_bits = _FIELD - 1
    ones = sum(1 << (k * _FIELD) for k in range(n))  # a 1 in every field
    guards = ones << value_bits
    deg_shift = max(n - 1, 0) * _FIELD  # x * ones sums every field into the top one
    field_mask = (1 << _FIELD) - 1
    key_guards = _guards(n)
    key_top = n * _KEY_FIELD
    key_low = (1 << key_top) - 1
    width = limits.max_basis.bit_length()  # i and j never exceed max_basis
    lcm_shift = 2 * width + n

    basis: list[_Elem] = []
    thresholds = _Thresholds(n)
    reducers = _Reducers(n)
    heap: list = []  # _pair_entry of each pending pair, and of the dead ones
    dead: set = set()  # entries in the heap that the chain criterion removed
    pairs_processed = 0
    zero_reductions = 0
    max_degree_processed = 0
    pairs_created = pruned_product = pruned_m = pruned_chain = 0
    supports: list[int] = []  # subset-minimal lm supports, under a stop
    grown = False             # supports changed since the last stop test

    def check_caps(stage: str):
        if pairs_processed > limits.max_pairs:
            raise ResourceCapError(stage, f"pair limit {limits.max_pairs} hit")
        if len(basis) > limits.max_basis:
            raise ResourceCapError(stage, f"basis size limit {limits.max_basis} hit")
        if deadline is not None and time.monotonic() > deadline:
            raise ResourceCapError(stage, f"time limit {limits.time_limit}s hit")

    def add_element(terms):
        """Gebauer-Moeller update with the new monic element."""
        nonlocal pairs_created, pruned_product, pruned_m, pruned_chain, grown
        elem = _Elem(terms, n)
        t = len(basis)
        lm, m = elem.packed, elem.mask
        lm_g = lm | guards

        def lcm_with(p):
            # guard bits of lm_g - p mark the fields where lm is the larger
            # exponent; widen them to field masks and select
            sel = (lm_g - p) & guards
            sel -= sel >> value_bits
            return (lm & sel) | (p & ~sel)

        pairs_created += t
        thresholds.add(elem.exps)
        if use_criteria:
            # chain criterion on the pending pairs: the new lm divides their
            # lcm (its support first), and neither lcm with the new element
            # equals it
            lm_e, guards_e = lm << lcm_shift, guards << lcm_shift
            for e in heap:
                if e & m == m and ((e | guards_e) - lm_e) & guards_e == guards_e:
                    _, lcm, i, j, _ = _pair_fields(e, n, width)
                    if e not in dead and lcm_with(basis[i].packed) != lcm != lcm_with(basis[j].packed):
                        dead.add(e)
                        pruned_chain += 1
            # M-criterion: keep the minimal lcms, an equal lcm keeping the
            # smallest i (see the module docstring)
            kept = thresholds.minimal()
            pruned_m += t - len(kept)
        else:
            kept = range(t)
        for i in kept:
            g = basis[i]
            if use_criteria and not g.mask & m:
                pruned_product += 1  # coprime leading monomials
                continue
            lcm = lcm_with(g.packed)
            deg = ((lcm * ones) >> deg_shift) & field_mask
            heappush(heap, _pair_entry(deg, lcm, i, t, g.mask | m, n, width))
        basis.append(elem)
        reducers.add(elem)
        if stop_codim is not None and all(o & m != o for o in supports):
            # m joins the subset-minimal supports, replacing those above it
            supports[:] = [o for o in supports if o & m != m] + [m]
            grown = True

    def stats(pairs: int, basis_size: int) -> GroebnerStats:
        return GroebnerStats(
            pairs_processed=pairs, zero_reductions=zero_reductions,
            basis_size=basis_size, max_degree_processed=max_degree_processed,
            wall_time=time.monotonic() - start, pairs_created=pairs_created,
            pruned_product=pruned_product, pruned_m=pruned_m, pruned_chain=pruned_chain)

    # seed with the reduced nonzero generators
    for g in ideal.generators:
        if g.is_zero():
            continue
        red = _reduce_terms(_term_keys(g.terms, "pair update"), reducers, field, deadline, graded)
        if red:
            add_element(_monic_terms(red, field))
        check_caps("seeding")

    while heap:
        e = heappop(heap)
        if e in dead:
            dead.remove(e)
            continue
        deg_l, _, i, j, _ = _pair_fields(e, n, width)
        pairs_processed += 1
        if deg_l > max_degree_processed:
            max_degree_processed = deg_l
        if limits.max_degree is not None and deg_l > limits.max_degree:
            raise ResourceCapError("pair processing", f"degree limit {limits.max_degree} hit at {deg_l}")
        check_caps("pair processing")
        if grown:
            grown = False
            if not _meets(supports, stop_codim - 1):
                # the pair just popped is not reduced
                codim = n - staircase_dimension([g.exps for g in basis], n)
                return StaircaseBound(codim, stats(pairs_processed - 1, len(basis)))
        # S-polynomial from the two tails, the lcm's key a field-wise select
        f, g = basis[i], basis[j]
        sel = ((f.key | key_guards) - g.key) & key_guards
        sel -= sel >> (_KEY_FIELD - 1)
        lcm = ((_KEY_BASE - deg_l) << key_top) | (f.key & sel) | (g.key & key_low & ~sel)
        sf, sg = lcm - f.key, lcm - g.key
        spoly = [(k + sf, c) for k, c in f.tail] + [(k + sg, -c) for k, c in g.tail]
        red = _reduce_terms(spoly, reducers, field, deadline, graded)
        if red:
            add_element(_monic_terms(red, field))
        else:
            zero_reductions += 1

    # minimalize: keep each element whose only divisor among the lms is its own lm
    kept: list[_Elem] = []
    everyone = (1 << len(basis)) - 1
    for t, g in enumerate(basis):
        check_caps("minimalize")
        bad = 0
        for col, x in zip(thresholds.above, g.exps):
            bad |= col[x]
        if everyone & ~bad == 1 << t:
            kept.append(g)
    # inter-reduce the tails by one index over kept. In a graded order no
    # term smaller than an lm is a multiple of it, so no element reduces its
    # own tail; each monic lm stays as it is.
    kept_reducers = _Reducers(n, kept)
    final_terms = []
    for g in kept:
        check_caps("inter-reduce")
        final_terms.append([(g.key, field.one)]
                           + _reduce_terms(g.tail, kept_reducers, field, deadline, graded))
    # drop the engine's state before the result is built, and each term list
    # once its Polynomial is: popped in ascending leading monomials
    del basis, heap, dead, thresholds, reducers, kept, kept_reducers
    final_terms.sort(key=lambda ts: ts[0][0])
    polys = []
    while final_terms:
        ts = final_terms.pop()
        polys.append(Polynomial(ideal.vars, field, tuple([(_exps(k, n), c) for k, c in ts])))
    result = GroebnerBasis(ideal.vars, field, tuple(polys), stats(pairs_processed, len(polys)))
    if VERIFY_BASES:
        failure = groebner_failure_witness(result)
        if failure is not None:
            raise AssertionError(f"S-pair re-verification failed: {failure}")
        missing = membership_failure_witness(result, ideal.generators)
        if missing is not None:
            raise AssertionError(f"input generator outside the ideal of the basis: {missing}")
    return result


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo the reduced basis."""
    if p.vars != gb.vars or p.field != gb.field:
        raise FieldMismatchError("polynomial and basis must share one ring")
    if p.is_zero() or not gb.polys:
        return p
    n = len(p.vars)
    reducers = _Reducers(n, [_Elem(_term_keys(g.terms, "normal form"), n) for g in gb.polys])
    red = _reduce_terms(_term_keys(p.terms, "normal form"), reducers, gb.field)
    return Polynomial(p.vars, p.field, tuple([(_exps(k, n), c) for k, c in red]))
