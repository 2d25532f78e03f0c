"""verify's route lists: each route lists the enumerate_iacs indices it calls integrable.

Each list is checked against the per-structure function it replaces in
`verify`, on every flag up to rank 4 that the structure list can hold, and
the routes are checked against each other on F4 and E6 full, flags the
structure list cannot hold.  The test-side mask oracle
`closed_candidates_mask` stays as a reference.
"""
import ast
import itertools
import random
from pathlib import Path

from flagclass import cli, structures
from flagclass.chevalley import compute_structure_constants
from flagclass.flag import build_t_roots, make_flag
from flagclass.rootsys import LieType, build_root_system, proper_subsets, types_up_to
from flagclass.structures import (
    IACS,
    InvariantMetric,
    closed_metric_feasibility,
    enumerate_iacs,
    is_integrable,
    kahler_triple_sum,
    nijenhuis_oracle,
    t_chambers,
    t_zero_sum_triples,
    triple_sum_row,
)
from oracles import closed_candidates_mask, pairs_integrable

SRC = Path(__file__).resolve().parents[1] / "src" / "flagclass"


def indices(flags):
    return [n for n, ok in enumerate(flags) if ok]


def as_mask(listed):
    return sum(1 << n for n in listed)


def single_signed(row):
    return len({c > 0 for c in row if c}) == 1


def test_route_lists_match_the_per_structure_functions_up_to_rank_4():
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
            triples = t_zero_sum_triples(ts)
            iacs = enumerate_iacs(ts, cap=s)
            assert len(iacs) == 1 << s
            assert [structures._signs(n, s) for n in range(1 << s)] == [j.signs for j in iacs]
            # each chamber's stored metric is a Kahler metric of its structure
            for n, lam in structures._chamber_points(ts):
                g = InvariantMetric(lam)
                assert all(kahler_triple_sum(g, iacs[n], tr, ts) == 0 for tr in triples), where

            chambers = {c.signs for c in t_chambers(ts)}
            # only an integrable structure's closed rows have no single-signed row
            no_single_signed_row = indices(
                not any(single_signed(triple_sum_row(j, tr, ts)) for tr in triples)
                for j in iacs
            )
            assert closed_candidates_mask(ts) == as_mask(no_single_signed_row), where
            expected = {
                "triples": indices(is_integrable(j, ts) for j in iacs),
                "pairs": indices(pairs_integrable(j, ts) for j in iacs),
                "nijenhuis": indices(nijenhuis_oracle(f, sc, j) for j in iacs),
                "chambers": indices(j.signs in chambers for j in iacs),
                "closed": no_single_signed_row,
                "witness": indices(closed_metric_feasibility(j, ts).feasible for j in iacs),
            }
            integrable = structures._integrable_list(ts)
            routes = {
                "triples": integrable,
                "pairs": structures._pairs_list(ts),
                "nijenhuis": structures._nijenhuis_list(f, sc),
                "chambers": structures._chamber_list(ts),
                "closed": integrable,
                "witness": structures._closed_witness_list(ts),
            }
            for route, listed in routes.items():
                assert listed == expected[route], (where, route)
    assert seen == set(range(1, 11)) | {12}


def brute_avoiding(s, records):
    return [
        n
        for n, signs in enumerate(itertools.product((1, -1), repeat=s))
        if not any(len({sgn * signs[c] for c, sgn in r}) == 1 for r in records)
    ]


def test_avoiding_lists_ascending_enumeration_order_against_brute_force():
    v, w = (0, 1), (1, -1)
    cases = [
        (1, []),
        (2, [(v, v, w)]),  # 2v + w = 0: class 0 met twice
        (3, [((2, 1), (0, -1), (2, 1))]),  # the repeated class is the highest
        (3, [((1, 1), (0, 1), (2, -1)), ((2, 1), (1, -1), (0, 1))]),
        (2, [((0, 1), (0, -1), (1, 1))]),  # a class with both signs: never one-signed
        (2, [((1, -1),) * 3]),  # one class alone: one-signed under every j
    ]
    rng = random.Random(27)
    for _ in range(60):
        s = rng.randint(1, 6)
        member = lambda: (rng.randrange(s), rng.choice((1, -1)))
        cases.append(
            (s, [(member(), member(), member()) for _ in range(rng.randint(0, 2 * s))])
        )
    for s, records in cases:
        listed = structures._avoiding(s, records)
        assert listed == brute_avoiding(s, records), (s, records)
        assert listed == sorted(set(listed))
    # v, v, w is one-signed where j_0 = -j_1, so (+, +) and (-, -) avoid it
    assert structures._avoiding(2, [(v, v, w)]) == [0, 3]
    assert structures._avoiding(2, [((0, 1), (0, -1), (1, 1))]) == [0, 1, 2, 3]
    assert structures._avoiding(2, [((1, -1),) * 3]) == []


def test_avoiding_searches_only_the_plus_half_of_class_0(monkeypatch):
    # the filed certificates are closed under negation, so the - half of
    # class 0 is the + half negated and is never searched
    seen = []
    closes = structures._closes_a_triple

    def recording(prefix, certificates):
        seen.append(prefix)
        return closes(prefix, certificates)

    monkeypatch.setattr(structures, "_closes_a_triple", recording)
    v, w = (0, 1), (1, -1)
    rng = random.Random(28)
    cases = [(1, []), (2, [(v, v, w)]), (2, [((0, 1),) * 3]), (3, [((2, 1), (0, -1), (2, 1))])]
    for _ in range(40):
        s = rng.randint(1, 6)
        member = lambda: (rng.randrange(s), rng.choice((1, -1)))
        cases.append(
            (s, [(member(), member(), member()) for _ in range(rng.randint(0, 2 * s))])
        )
    for s, records in cases:
        seen.clear()
        listed = structures._avoiding(s, records)
        assert listed == brute_avoiding(s, records), (s, records)
        assert seen and all(prefix[0] == 1 for prefix in seen), (s, records)


def f4_full():
    rs = build_root_system(LieType.parse("F4"))
    return make_flag(rs, ()), compute_structure_constants(rs)


def test_routes_agree_on_f4_full_with_one_structure_per_weyl_element():
    f, sc = f4_full()
    ts = build_t_roots(f)
    assert len(ts.positive) == 24
    integrable = structures._integrable_list(ts)
    assert len(integrable) == 1152  # |W(F4)|: the chambers of a full flag
    assert structures._pairs_list(ts) == integrable
    assert structures._nijenhuis_list(f, sc) == integrable
    assert structures._chamber_list(ts) == integrable
    assert closed_candidates_mask(ts) == as_mask(integrable)
    assert structures._closed_witness_list(ts) == integrable


def test_routes_agree_on_e6_full_with_one_structure_per_weyl_element():
    # s = 36: a 2^s-bit mask would take 8 GiB, the lists hold |W(E6)| entries
    ts = build_t_roots(make_flag(build_root_system(LieType.parse("E6")), ()))
    assert len(ts.positive) == 36
    integrable = structures._integrable_list(ts)
    assert len(integrable) == 51840
    assert structures._pairs_list(ts) == integrable
    assert structures._chamber_list(ts) == integrable


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
    # verify decides every structure through the route lists, which hold
    # only the integrable ones.  classify and verify read one ak-equals-k
    # decision, the chamber witness, and make no closed-metric solve.
    # test_import_graph checks that run_verify loops over no structure list.
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
    assert "_integrable_list" in calls["run_verify"]
    assert all("_closed_witness_list" in called for called in calls.values())
    assert "closed_metric_feasibility" not in source
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    named |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert named & {"_and_negations", "t_chambers"} == set()
