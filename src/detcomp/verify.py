"""The S-pair oracle: Groebner bases verified without the engine.

It imports nothing of groebner.py (a test reads the imports of both) and
reads a basis only through .polys, .vars and .field. _Division divides
textbook-style on keys of its own: fields one guard bit wider than the
largest degree of the divisors and the input, so no exponent is capped, x_n
most significant, under bound - degree. So the heap pops the largest term
first, a shift is one addition, and an S-polynomial's lcm is a field-wise
select. A term goes to the first divisor in list order that divides it,
found, as with the short exponent vectors of Bachmann & Schoenemann (ISSAC
1998), from exponent-threshold bitsets: divisor r is bit r, above[v][x] the
divisors whose lm has an exponent of x_v above x, so a term's divisors are
the bits in none of its n columns, the first the lowest.
groebner_failure_witness builds each S-polynomial from the two monic tails
and stops at its first irreducible term, which no later step can cancel.

Buchberger's criterion needs only the S-polynomials of a generating set of
the leading-term syzygies, not of every pair. For leading monomials m_0..m_s
in list order, one such set is the pairs (k, j), k < j, whose quotient
lcm(m_k, m_j) / m_j is a minimal generator of the colon ideal
(m_0..m_{j-1}) : m_j, an equal quotient keeping the smallest k (Moeller, Mora
& Traverso, "Groebner bases computation using syzygies", ISSAC 1992; Gebauer
& Moeller 1988). Of these, pairs with coprime leading monomials are not
reduced: their S-polynomial has a standard representation by the pair itself
(Buchberger's first criterion). Neither theorem needs anything the engine
computed. _syzygy_pairs finds the minimal quotients on threshold bitsets of
its own, over exponent ranks, by a descent that never forms the j quotients
of each j. If every pruned pair reduces to zero, the list is a Groebner
basis. If one fails, the list is not one, and the ordered scan runs: the
first failing non-coprime pair in combinations order, then the coprime pairs
before it. So the witness is the first failing pair in combinations order,
whichever pair the prune found. membership_failure_witness divides each
input generator by the basis; a nonzero remainder shows a generator outside
the ideal of a Groebner basis. Every verification function rejects
polynomials from another ring, as normal_form does.
"""

from heapq import heapify, heappush, heappop
from itertools import combinations

from .fields import FieldMismatchError
from .poly import Polynomial


def _exceeding(values, size: int) -> list:
    """above[x] for 0 <= x < size: the bitset of the r with values[r] > x."""
    groups: dict = {}
    for r, x in enumerate(values):
        if x:
            groups[x] = groups.get(x, 0) | 1 << r
    above = [0] * size
    acc = 0
    xs = sorted(groups, reverse=True)
    for x, lower in zip(xs, xs[1:] + [0]):
        acc |= groups[x]
        above[lower:x] = [acc] * (x - lower)
    return above


class _Division:
    """Textbook division by a list of polynomials, on keys and threshold
    bitsets of its own (see the module docstring). A key packs a monomial
    of degree at most bound: n fields of width bits under bound - degree.
    Divisor r is the r-th nonzero polynomial, tails are monic."""

    __slots__ = ("n", "width", "bound", "prime", "lms", "masks", "keys", "tails", "columns",
                 "ones", "guards")

    def __init__(self, polys, vars, field, degree: int):
        """degree: the largest degree of a term that will be divided."""
        if any(g.vars != vars or g.field != field for g in polys):
            raise FieldMismatchError("polynomial and divisors must share one ring")
        polys = [g for g in polys if g.terms]
        self.n = n = len(vars)
        self.bound = bound = max([degree] + [g.degree() for g in polys])
        self.width = w = bound.bit_length() + 1
        self.ones = sum(1 << s for s in range(0, n * w, w))
        self.guards = self.ones << (w - 1)
        self.prime = p = field.char
        self.lms = [g.terms[0][0] for g in polys]
        self.masks = [sum(1 << v for v, x in enumerate(e) if x) for e in self.lms]
        self.keys = [self.key(e) for e in self.lms]
        self.tails = []
        for g in polys:
            inv = field.inv(g.terms[0][1])
            self.tails.append([(self.key(e), c * inv % p if p else c * inv)
                               for e, c in g.terms[1:]])
        # (shift of x_v's field, above[v]); every exponent is at most bound
        self.columns = [(v * w, _exceeding([e[v] for e in self.lms], bound + 1))
                        for v in range(n)]

    def key(self, e) -> int:
        k = self.bound - sum(e)
        for x in reversed(e):
            k = (k << self.width) | x
        return k

    def spoly(self, a: int, b: int) -> dict:
        """S-polynomial of divisors a and b, monic, without the leading terms
        that cancel: a key -> coefficient dict."""
        n, w, guards = self.n, self.width, self.guards
        ka, kb = self.keys[a], self.keys[b]
        low = (1 << (n * w)) - 1
        sel = (((ka & low) | guards) - (kb & low)) & guards  # guard kept: a's exponent is the larger
        sel -= sel >> (w - 1)
        lcm = (ka & sel) | (kb & low & ~sel)
        degree = ((lcm * self.ones) >> max(n - 1, 0) * w) & ((1 << w) - 1)
        lcm |= (self.bound - degree) << (n * w)
        sa, sb = lcm - ka, lcm - kb
        work = {k + sa: c for k, c in self.tails[a]}
        for k, c in self.tails[b]:
            k += sb
            work[k] = work.get(k, 0) - c
        return work

    def divide(self, work: dict, full: bool) -> dict:
        """Remainder of the key -> coefficient dict work, which it consumes,
        each term divided by the first divisor in list order that divides it;
        with full=False only its first term. Cancelled terms are skipped when
        popped, and coefficients are reduced mod p (0 for Q) only then."""
        p, columns = self.prime, self.columns
        mask = (1 << self.width) - 1
        everyone = (1 << len(self.keys)) - 1
        keys, tails = self.keys, self.tails
        heap = list(work)
        heapify(heap)
        remainder = {}
        while heap:
            k = heappop(heap)
            c = work.pop(k) % p if p else work.pop(k)
            if not c:
                continue
            bad = 0
            for s, col in columns:
                bad |= col[k >> s & mask]
            found = everyone & ~bad
            if not found:
                remainder[k] = c
                if full:
                    continue
                return remainder
            r = (found & -found).bit_length() - 1
            shift = k - keys[r]
            for tk, tc in tails[r]:
                tk += shift
                old = work.get(tk)
                if old is None:
                    work[tk] = -c * tc
                    heappush(heap, tk)
                else:
                    work[tk] = old - c * tc
        return remainder


def membership_failure_witness(gb, generators):
    """The first nonzero generator with a nonzero remainder by gb.polys, so
    not in the ideal they generate; None if every generator is in it."""
    if any(g.vars != gb.vars or g.field != gb.field for g in generators):
        raise FieldMismatchError("polynomial and divisors must share one ring")
    division = _Division(gb.polys, gb.vars, gb.field,
                         max([g.degree() for g in generators if g.terms], default=0))
    for g in generators:
        if g.terms and division.divide({division.key(e): c for e, c in g.terms}, full=False):
            return g
    return None


def _syzygy_pairs(lms):
    """Yield the pairs (k, j), k < j, whose quotient lcm(m_k, m_j) / m_j is a
    minimal generator of the colon ideal (m_0..m_{j-1}) : m_j, skipping
    coprime pairs; an equal quotient keeps the smallest k. In (j, quotient
    degree, k) order. lms are the leading exponent tuples, in list order.

    With L_k = lcm(m_k, m_j), q_l divides q_k iff m_l divides L_k, so the
    l whose quotient divides q_k are those in no column above[v][L_k[v]].
    Only comparisons between listed exponents matter, so each exponent is
    replaced by its rank among the distinct values of its variable, and a
    column has one entry per value.
    """
    if not lms:
        return
    n = len(lms[0])
    values = [sorted({e[v] for e in lms}) for v in range(n)]
    rank = [{x: i for i, x in enumerate(vs)} for vs in values]
    ranked = [tuple([rank[v][x] for v, x in enumerate(e)]) for e in lms]
    above = [_exceeding([e[v] for e in ranked], len(values[v])) for v in range(n)]
    masks = [sum(1 << v for v, x in enumerate(e) if x) for e in lms]
    for j, mj in enumerate(ranked):
        kept = []
        alive = (1 << j) - 1
        while alive:
            # from the highest alive k, step to one whose quotient properly
            # divides q_k until none does: q_k is then minimal
            k = alive.bit_length() - 1
            while True:
                outside = 0         # m_l does not divide L_k
                multiples = alive   # q_k divides q_l: m_l[v] >= m_k[v] where m_k[v] > m_j[v]
                for col, a, b in zip(above, ranked[k], mj):
                    if a > b:
                        outside |= col[a]
                        multiples &= col[a - 1]
                    else:
                        outside |= col[b]
                divisors = alive & ~outside
                proper = divisors & ~multiples
                if not proper:
                    break
                k = proper.bit_length() - 1
            equal = divisors & multiples
            k = (equal & -equal).bit_length() - 1
            if masks[k] & masks[j]:
                kept.append((sum([x - y for x, y in zip(lms[k], lms[j]) if x > y]), k))
            alive &= ~multiples
        for _, k in sorted(kept):
            yield k, j


def groebner_failure_witness(gb):
    """None if every S-polynomial of gb.polys reduces to zero; else the first
    failing pair in combinations order (see the module docstring)."""
    division = _Division(gb.polys, gb.vars, gb.field,
                         2 * max([g.degree() for g in gb.polys if g.terms], default=0))
    masks = division.masks

    def fails(a, b):
        return bool(division.divide(division.spoly(a, b), full=False))

    def coprime(a, b):
        return not masks[a] & masks[b]

    if not any(fails(k, j) for k, j in _syzygy_pairs(division.lms)):
        return None  # the pruned pairs generate the syzygies: a proof
    pairs = range(len(masks))
    for a, b in combinations(pairs, 2):
        if not coprime(a, b) and fails(a, b):
            return next(pair for pair in combinations(pairs, 2)
                        if pair == (a, b) or coprime(*pair) and fails(*pair))
    return None


def is_groebner_basis(gb) -> bool:
    return groebner_failure_witness(gb) is None
