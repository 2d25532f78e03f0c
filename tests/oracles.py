"""Per-structure oracles for routes that the library decides only as masks."""
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
