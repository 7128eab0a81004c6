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
in ascending key order (a layout), walked from slot 0 down: each slot's
coefficient is read mod p, its divisor is found by the caller's scan or
index, and c * x^s * tail(g) is subtracted term by term, each tail key
shifted by s (one addition) and sent to its slot through the layout's rank
map. That is the order in which the heap pops keys, with the same
first-divisor rule, so the remainder is the heap path's, term for term.
slot_ready decides once per engine run whether any reduction may take this
path, and the walk reads no deadline (groebner's module docstring says why
none is needed).

A layout depends on (n, d) alone, so the last 16 are kept: with n = 2 and d
up to 254, the largest _MAX_SLOTS admits, they hold about 340 KB. A pass of
the benchmark's sampling trials builds 8.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

_KEY_FIELD = 17                # bits per variable in a term key: groebner._FIELD + 1
_KEY_BASE = 1 << _KEY_FIELD    # top field of a key: _KEY_BASE - degree
# Bounds a layout's size and a slot reduction's work: at most this many slots,
# each writing fewer tail terms, which is why the walk reads no deadline.
_MAX_SLOTS = 255


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


@lru_cache(maxsize=16)
def _layout(n: int, d: int) -> tuple:
    """The degree-d monomials in n variables, in ascending key order:
    (keys, support masks, rank by key)."""
    top = (_KEY_BASE - d) << n * _KEY_FIELD
    monos = _monomials(n, d)
    keys = [top | k for k, _ in monos]
    return keys, [m for _, m in monos], {k: r for r, k in enumerate(keys)}


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
    d = _KEY_BASE - (terms[0][0] >> n * _KEY_FIELD)
    size = comb(n + d - 1, d)
    if size > _MAX_SLOTS or 4 * len(terms) < size:
        return None
    keys, masks, rank = _layout(n, d)
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
        for tk, tc in g.tail:
            acc[rank[tk + shift]] -= c * tc
    return out
