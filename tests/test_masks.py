"""verify's bit-sliced routes: bit n of each mask decides structure n of enumerate_iacs.

Each mask is checked bit by bit against the per-structure function it
replaces in `verify`, on every flag up to rank 4 that the structure list can
hold, and the routes are checked against each other on F4 full, the flag
the list cannot hold.
"""
import ast
import itertools
from pathlib import Path

from flagclass import cli, structures
from flagclass.chevalley import compute_structure_constants
from flagclass.flag import build_t_roots, make_flag
from flagclass.rootsys import LieType, build_root_system, proper_subsets, types_up_to
from flagclass.structures import (
    IACS,
    closed_metric_feasibility,
    enumerate_iacs,
    is_integrable,
    nijenhuis_oracle,
    t_chambers,
    t_zero_sum_triples,
    triple_sum_row,
)
from oracles import closed_candidates_mask, pairs_integrable

SRC = Path(__file__).resolve().parents[1] / "src" / "flagclass"


def bits(mask, count):
    return [bool(mask >> n & 1) for n in range(count)]


def single_signed(row):
    return len({c > 0 for c in row if c}) == 1


def test_masks_match_the_per_structure_functions_up_to_rank_4():
    seen = set()
    for t in types_up_to(4):
        rs = build_root_system(t)
        sc = compute_structure_constants(rs)
        for theta in proper_subsets(t.rank):
            f = make_flag(rs, theta)
            ts = build_t_roots(f)
            s = len(ts.positive)
            if s > 12:
                continue
            seen.add(s)
            where = f.label()
            iacs = enumerate_iacs(ts, cap=s)
            assert len(iacs) == 1 << s
            # the column code: structure n gives class i the sign -1 iff bit s-1-i of n is set
            for i, column in enumerate(structures._columns(s)):
                assert bits(column, 1 << s) == [j.signs[i] == -1 for j in iacs], (where, i)
            assert [structures._structure(n, s) for n in range(1 << s)] == list(iacs)

            chambers = {c.signs for c in t_chambers(ts)}
            triples = t_zero_sum_triples(ts)
            no_single_signed_row = [
                not any(single_signed(triple_sum_row(j, tr, ts)) for tr in triples)
                for j in iacs
            ]
            expected = {
                "triples": [is_integrable(j, ts) for j in iacs],
                "pairs": [pairs_integrable(j, ts) for j in iacs],
                "nijenhuis": [nijenhuis_oracle(f, sc, j) for j in iacs],
                "chambers": [j.signs in chambers for j in iacs],
                # only an integrable structure's closed rows have no single-signed row
                "closed": no_single_signed_row,
                "candidates": no_single_signed_row,
                "witness": [closed_metric_feasibility(j, ts).feasible for j in iacs],
            }
            integrable = structures._integrable_mask(ts)
            masks = {
                "triples": integrable,
                "pairs": structures._pairs_mask(ts),
                "nijenhuis": structures._nijenhuis_mask(f, sc),
                "chambers": structures._chamber_mask(ts),
                "closed": integrable,
                "candidates": closed_candidates_mask(ts),
                "witness": structures._closed_witness_mask(ts),
            }
            for route, mask in masks.items():
                assert mask >> (1 << s) == 0, (where, route)
                assert bits(mask, 1 << s) == expected[route], (where, route)
    assert seen == set(range(1, 11)) | {12}


def test_mask_sets_the_chosen_bits_and_lowest_bit_reads_the_first():
    for s in (1, 2, 3, 4, 9):
        for chosen in ([], [0], [(1 << s) - 1], list(range(0, 1 << s, 3))):
            mask = structures._mask(chosen, s)
            assert mask == sum(1 << n for n in chosen)
            if chosen:
                assert structures._lowest_bit(mask) == chosen[0]


def f4_full():
    rs = build_root_system(LieType.parse("F4"))
    return make_flag(rs, ()), compute_structure_constants(rs)


def test_routes_agree_on_f4_full_with_one_bit_per_weyl_element():
    f, sc = f4_full()
    ts = build_t_roots(f)
    assert len(ts.positive) == 24
    integrable = structures._integrable_mask(ts)
    assert integrable.bit_count() == 1152  # |W(F4)|: the chambers of a full flag
    assert structures._pairs_mask(ts) == integrable
    assert structures._nijenhuis_mask(f, sc) == integrable
    assert structures._chamber_mask(ts) == integrable
    assert closed_candidates_mask(ts) == integrable
    assert structures._closed_witness_mask(ts) == integrable


def test_verify_decodes_a_flipped_triple_sign_on_f4_full(capsys, monkeypatch):
    f, _ = f4_full()
    ts = build_t_roots(f)
    real = structures._signed_triples(ts)
    k = real.index(((15, -1), (3, -1), (18, 1)))
    faulted = real[:k] + (((15, 1), (3, -1), (18, 1)),) + real[k + 1 :]
    chambers = {c.signs for c in t_chambers(ts)}

    # the triple route looks the table up in structures on each call; verify
    # runs on F4 full alone
    monkeypatch.setattr(structures, "_signed_triples", lambda t: faulted if t is ts else real)
    monkeypatch.setattr(cli, "types_up_to", lambda rank: [LieType.parse("F4")])
    monkeypatch.setattr(cli, "proper_subsets", lambda rank: [()])
    # search the chambers afresh under the fault: they read no triple table,
    # so the chamber route stays an independent check
    structures._chamber_points.cache_clear()
    code = cli.main(["verify", "--max-rank", "4", "--iacs-cap", "24"])
    out = capsys.readouterr().out
    signs = (1,) * 9 + (-1,) * 10 + (1,) * 4 + (-1,)
    assert code == 3
    # the closed-metric rows read the same table, so the all-plus structure,
    # still integrable, loses its closed metric
    assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
        f"FAIL integrability-four-way: F4 theta=(): integrability routes disagree at signs={signs}",
        "FAIL ak-equals-k: F4 theta=(): closed metric feasible=False, integrable=True"
        f" at signs={(1,) * 24}",
    ]

    # the named structure is the first in enumeration order where the faulted
    # triple route and the chambers disagree
    structures_in_order = itertools.product((1, -1), repeat=24)
    for before in itertools.islice(structures_in_order, 32737):
        assert is_integrable(IACS(before), ts) == (before in chambers)
    assert next(structures_in_order) == signs
    assert is_integrable(IACS(signs), ts) != (signs in chambers)


def test_run_verify_builds_no_structure_list():
    # verify decides every structure through the masks; a per-structure loop
    # over these would put the 2^s-entry list back on its path.  classify and
    # verify read one ak-equals-k decision, the chamber witness, and make no
    # closed-metric solve.
    source = (SRC / "cli.py").read_text()
    tree = ast.parse(source, filename="cli.py")
    calls = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in ("classify_payload", "run_verify"):
            calls[fn.name] = {
                node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
            }
    assert "_integrable_mask" in calls["run_verify"]
    assert calls["run_verify"] & {"enumerate_iacs", "is_integrable", "nijenhuis_oracle"} == set()
    assert all("_closed_witness_mask" in called for called in calls.values())
    assert "closed_metric_feasibility" not in source
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert named & {"_mask_and_negations", "_mask", "t_chambers"} == set()
