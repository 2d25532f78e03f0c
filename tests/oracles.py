"""Test-side oracles: per-structure routes the library decides only as masks, and exact linear algebra."""
from fractions import Fraction

from flagclass.structures import _signed_pairs


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
