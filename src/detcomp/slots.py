"""Term keys, and the slot reduction of homogeneous term lists.

A term key packs a monomial into one int, as groebner's module docstring
describes: _KEY_FIELD bits per variable, x_n most significant, under a top
field _KEY_BASE - degree. Among the monomials of one degree, ascending keys
are descending degrevlex.

Slot reduction is groebner._reduce_terms's path for an input of one degree d
whose reducers are homogeneous too, over F_p. The degree-d monomials in n
variables are then a fixed set, at most C(n + d - 1, d) of them, and
reduction never leaves it: each step subtracts c * x^s * g with x^s * lm(g)
of degree d. So the remainder is a list indexed by slot, the rank of a key
in ascending key order (a _Layout), walked from slot 0 down: each slot's
coefficient is read mod p, its divisor is found by the caller's scan or
index, and c * x^s * tail(g) is subtracted through a product row, the bytes
mapping each slot of tail(g)'s degree to the slot of its product with x^s:
g keeps its tail as the bytes of its slots and a list of coefficients, and
one translate by the row gives every target slot.
That is the order in which the heap pops keys, with the same first-divisor
rule, so the remainder is the heap path's, term for term. slot_ready decides
once per engine run whether any reduction may take this path, and the walk
reads no deadline (groebner's module docstring says why none is needed).

A layout and its rows depend on (n, d) alone, so they are kept in a
module-level _Cache, which is emptied whenever what it holds, one unit per
slot and four per row, would pass _TABLE_BUDGET, some 400 KB. A pass of the
benchmark's sampling trials leaves about 55 KB in it.
"""

from __future__ import annotations

from math import comb

_KEY_FIELD = 17                # bits per variable in a term key: groebner._FIELD + 1
_KEY_BASE = 1 << _KEY_FIELD    # top field of a key: _KEY_BASE - degree
_MAX_SLOTS = 255               # a slot fits in one byte of a product row
_TABLE_BUDGET = 1 << 12        # units the cache may hold: a slot is one, a row four


def _exps(k: int, n: int) -> tuple:
    """Term key -> exponent tuple of n variables."""
    return tuple([(k >> s) & (_KEY_BASE - 1) for s in range(0, n * _KEY_FIELD, _KEY_FIELD)])


def _guards(n: int) -> int:
    """The guard bit of each of the n exponent fields of a term key."""
    return sum(1 << (s + _KEY_FIELD - 1) for s in range(0, n * _KEY_FIELD, _KEY_FIELD))


def _monomials(n: int, d: int) -> list:
    """(key fields, support mask) of each degree-d monomial in n variables,
    in ascending key order: by the exponent of x_n, then of the others."""
    if n == 1:
        return [(d, 1 if d else 0)]
    shift = (n - 1) * _KEY_FIELD
    return [(a << shift | k, (a > 0) << n - 1 | m)
            for a in range(d + 1) for k, m in _monomials(n - 1, d - a)]


class _Layout:
    """The degree-d monomials in n variables, in ascending key order: their
    keys, support masks and rank by key, and the product rows made so far,
    by shift (a term's key minus its reducer's lm key)."""

    __slots__ = ("keys", "masks", "rank", "rows")

    def __init__(self, n: int, d: int):
        top = (_KEY_BASE - d) << n * _KEY_FIELD
        monos = _monomials(n, d)
        self.keys = [top | k for k, _ in monos]
        self.masks = [m for _, m in monos]
        self.rank = {k: r for r, k in enumerate(self.keys)}
        self.rows = {}


class _Cache:
    """Layouts by (n, d), emptied whenever what they hold would pass
    _TABLE_BUDGET units, about 100 bytes each."""

    def __init__(self):
        self.layouts = {}
        self.held = 0

    def hold(self, units: int):
        if self.held + units > _TABLE_BUDGET:
            self.layouts.clear()  # a reduction under way keeps the layout it holds
            self.held = 0
        self.held += units

    def layout(self, n: int, d: int) -> _Layout:
        lay = self.layouts.get((n, d))
        if lay is None:
            lay = _Layout(n, d)
            self.hold(len(lay.keys))
            self.layouts[n, d] = lay
        return lay

    def row(self, lay: _Layout, shift: int, n: int, e: int) -> bytes:
        """lay's slot of x^s * t for each slot t of degree e, x^s the shift,
        padded to 256 bytes: a bytes.translate table."""
        rank = lay.rank
        row = bytes([rank[t + shift] for t in self.layout(n, e).keys]).ljust(256, b"\0")
        self.hold(4)  # 256 bytes and a dict entry, about four slots' worth
        lay.rows[shift] = row
        return row


_CACHE = _Cache()


def slot_ready(ideal) -> bool:
    """Whether slot_reduce may take a reduction of the engine's run on the
    ideal: over F_p, in n >= 2 variables, with every generator homogeneous
    and the lowest generator degree, below that of every input, within
    _MAX_SLOTS monomials."""
    n = len(ideal.vars)
    degrees = [g.degree() for g in ideal.generators if not g.is_zero()]
    if not ideal.field.char or n < 2 or not degrees:
        return False
    d = min(degrees)
    return comb(n + d - 1, d) <= _MAX_SLOTS and all(g.is_homogeneous() for g in ideal.generators)


def slot_reduce(terms, reducers, p: int, scan, find):
    """groebner._reduce_terms's remainder of terms, all of one degree, by
    homogeneous reducers over F_p in n >= 2 variables, walked over slots;
    None when the degree has more than _MAX_SLOTS monomials, or when the
    terms fill under a quarter of them, where the heap path is the cheaper."""
    if not terms:
        return None
    n = reducers.n
    low = n * _KEY_FIELD
    d = _KEY_BASE - (terms[0][0] >> low)
    size = comb(n + d - 1, d)
    if size > _MAX_SLOTS or 4 * len(terms) < size:
        return None
    cache = _CACHE
    lay = cache.layout(n, d)
    keys, masks, rank, rows = lay.keys, lay.masks, lay.rank, lay.rows
    acc = [0] * size
    for k, c in terms:
        acc[rank[k]] += c
    guards = reducers.guards
    out = []
    # reduction writes only below the slot being read, which enumerate sees
    for i, c in enumerate(acc):
        if not c or not (c := c % p):
            continue
        k = keys[i]
        kg, absent = k | guards, ~masks[i]
        for g in scan:
            if not g.mask & absent and (kg - g.key) & guards == guards:
                break
        else:
            if find is None or (g := find(kg, absent)) is None:
                out.append((k, c))
                continue
        shift = k - g.key
        if g.slots is None:
            e_rank = cache.layout(n, _KEY_BASE - (g.key >> low)).rank
            g.slots = (bytes([e_rank[t] for t, _ in g.tail]), [tc for _, tc in g.tail])
        ranks, coeffs = g.slots
        row = rows.get(shift)
        if row is None:
            row = cache.row(lay, shift, n, _KEY_BASE - (g.key >> low))
        for j, tc in zip(ranks.translate(row), coeffs):
            acc[j] -= c * tc
    return out
