"""Test-side oracles: routes the library no longer takes, and exact linear algebra."""
from fractions import Fraction

from flagclass.structures import _agree, _full, _signed_pairs, _signed_triples


def pairs_integrable(j, ts) -> bool:
    """Sign coherence over all summing pairs of t-roots: the pair route, one structure.

    A pair (d, e) with d + e a t-root fails when e_d = e_e != e_{d+e}; then
    e_d e_e + 1 = 2 and e_{d+e} (e_d + e_e) = -2.
    """
    return all(
        ed * ee + 1 == et * (ed + ee)
        for ed, ee, et in (
            (sd * j.signs[d], se * j.signs[e], st * j.signs[t])
            for (d, sd), (e, se), (t, st) in _signed_pairs(ts)
        )
    )


def closed_candidates_mask(ts) -> int:
    """The structures whose closed-metric rows include no single-signed row, as a mask.

    Only these can have a closed metric: a row whose nonzero coefficients
    share one sign has no positive zero.  The coefficient of class i in a
    triple's row is w_i j_i, where w_i sums the signs of the members in
    class i, so the row is single-signed where its terms (i, sign w_i) agree.
    """
    s = len(ts.positive)
    single = 0
    for signed in _signed_triples(ts):
        weights = {}
        for idx, sgn in signed:
            weights[idx] = weights.get(idx, 0) + sgn
        first, *rest = [(idx, 1 if w > 0 else -1) for idx, w in weights.items() if w]
        row = _full(s)
        for term in rest:
            row &= _agree(s, first, term)
        single |= row
    return _full(s) ^ single


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
