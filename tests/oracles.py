"""Test-side oracles: routes the library no longer takes, and exact linear algebra.

The (class, sign) members are read off the coordinates of `ts.positive`
here, not from the library's triple and pair tables, so an oracle never
shares the table of the route it checks.
"""
from fractions import Fraction
from functools import lru_cache
from itertools import product


def _signed_coords(ts) -> dict:
    """(class index, sign) of every t-root, keyed by its coordinates."""
    signed = {}
    for k, p in enumerate(ts.positive):
        signed[p.coords] = (k, 1)
        signed[tuple(-c for c in p.coords)] = (k, -1)
    return signed


@lru_cache(maxsize=None)
def _summing_pairs(ts) -> tuple:
    """(d, e, d + e) as (class, sign) members, for each ordered pair of t-roots summing to one."""
    signed = _signed_coords(ts)
    return tuple(
        (signed[d], signed[e], signed[t])
        for d in signed for e in signed
        if (t := tuple(x + y for x, y in zip(d, e))) in signed
    )


@lru_cache(maxsize=None)
def _zero_sum_members(ts) -> tuple:
    """The (class, sign) members of each multiset {a, b, c} of t-roots with a + b + c = 0."""
    signed = _signed_coords(ts)
    multisets = {
        tuple(sorted((a, b, c)))
        for a in signed for b in signed
        if (c := tuple(-x - y for x, y in zip(a, b))) in signed
    }
    return tuple(tuple(signed[m] for m in members) for members in sorted(multisets))


def pairs_integrable(j, ts) -> bool:
    """Sign coherence over all summing pairs of t-roots: the pair route, one structure.

    A pair (d, e) with d + e a t-root fails when e_d = e_e != e_{d+e}; then
    e_d e_e + 1 = 2 and e_{d+e} (e_d + e_e) = -2.
    """
    return all(
        ed * ee + 1 == et * (ed + ee)
        for ed, ee, et in (
            (sd * j.signs[d], se * j.signs[e], st * j.signs[t])
            for (d, sd), (e, se), (t, st) in _summing_pairs(ts)
        )
    )


def uniqueness_sweep(ts) -> bool:
    """The 2^s uniqueness sweep: do the one-signed triples of all structures merge every class?

    Structures run in enumeration order, the classes of each one-signed
    triple are merged, and the sweep stops once one class is left.
    """
    s = len(ts.positive)
    component = list(range(s))
    for signs in product((1, -1), repeat=s):
        if len(set(component)) == 1:
            break
        for signed in _zero_sum_members(ts):
            if len({sgn * signs[idx] for idx, sgn in signed}) == 1:
                merged = {component[idx] for idx, _ in signed}
                component = [min(merged) if c in merged else c for c in component]
    return len(set(component)) == 1


def _sign_columns(s: int) -> list[tuple[int, int]]:
    """Per class i, the masks of the structures giving it the sign -1 and +1.

    Structure n gives class i the sign -1 where bit s - 1 - i of n is set,
    so the -1 mask is r clear bits then r set ones, r = 2^(s-1-i), and that
    2r-bit block is doubled until it covers all 2^s structures.
    """
    full = (1 << (1 << s)) - 1
    columns = []
    for i in range(s):
        run = 1 << (s - 1 - i)
        block, width = ((1 << run) - 1) << run, 2 * run
        while width < 1 << s:
            block |= block << width
            width *= 2
        columns.append((block, full ^ block))
    return columns


def closed_candidates_mask(ts) -> int:
    """The structures whose closed-metric rows include no single-signed row, as a mask.

    Only these can have a closed metric: a row whose nonzero coefficients
    share one sign has no positive zero.  The coefficient of class i in a
    triple's row is w_i j_i, where w_i sums the signs of the members in
    class i, so the row is single-signed where every term w_i j_i is
    negative or every one is positive.
    """
    s = len(ts.positive)
    columns = _sign_columns(s)
    full = (1 << (1 << s)) - 1
    single = 0
    for signed in _zero_sum_members(ts):
        weights = {}
        for idx, sgn in signed:
            weights[idx] = weights.get(idx, 0) + sgn
        negative = positive = full
        for idx, w in weights.items():
            if w:
                minus, plus = columns[idx]
                negative &= minus if w > 0 else plus
                positive &= plus if w > 0 else minus
        single |= negative | positive
    return full ^ single


def fraction_rank(rows, n: int) -> int:
    """The rank of a list of length-n rows, by Gaussian elimination over Fraction."""
    pending = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(n):
        pivot = next((r for r in pending if r[col] != 0), None)
        if pivot is None:
            continue
        pending.remove(pivot)
        pending = [
            [x - r[col] / pivot[col] * y for x, y in zip(r, pivot)] for r in pending
        ]
        rank += 1
    return rank
