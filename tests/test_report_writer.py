"""The report writer against the stdlib encoder, and classify entries against the library.

The oracle is `json.dumps(payload, indent=2) + "\\n"`, the encoding every
`flagclass/1` report is pinned to.
"""
import copy
import functools
import json
from fractions import Fraction

import pytest

from flagclass import cli
from flagclass.flag import build_t_roots, make_flag
from flagclass.rootsys import LieType, build_root_system, proper_subsets, types_up_to
from flagclass.structures import IACS, c_of_j, classify_triple, t_zero_sum_triples


def oracle(payload):
    return json.dumps(payload, indent=2) + "\n"


FLAGS = [(str(t), theta) for t in types_up_to(3) for theta in proper_subsets(t.rank)]


def flag_for(name, theta):
    return make_flag(build_root_system(LieType.parse(name)), theta)


@functools.cache
def payload_for(name, theta):
    return cli.classify_payload(flag_for(name, theta), cli.DEFAULT_IACS_CAP)


@pytest.mark.parametrize("name,theta", FLAGS)
def test_classify_report_matches_stdlib(name, theta):
    payload = payload_for(name, theta)
    assert cli._dump_json(payload) == oracle(payload)


@pytest.mark.parametrize("name,theta", FLAGS)
def test_classify_entries_match_library(name, theta):
    ts = build_t_roots(flag_for(name, theta))
    triples = t_zero_sum_triples(ts)
    payload = payload_for(name, theta)
    assert len(payload["iacs"]) == 2 ** len(ts.positive)
    for entry in payload["iacs"]:
        j = IACS(tuple(entry["signs"]))
        assert [t["members"] for t in entry["triples"]] == [
            [list(m) for m in tr.members] for tr in triples
        ]
        assert [t["class"] for t in entry["triples"]] == [
            classify_triple(j, tr, ts).value for tr in triples
        ]
        assert entry["c_of_j"] == sorted(list(t.coords) for t in c_of_j(j, ts))


def test_info_report_matches_stdlib():
    payload = cli.info_payload(flag_for("B3", (2,)))
    assert cli._dump_json(payload) == oracle(payload)


def test_sweep_index_with_an_error_entry_matches_stdlib(tmp_path):
    index = cli.run_sweep(2, tmp_path, 2)
    assert any(e["status"] == "error" for e in index["flags"])
    assert (tmp_path / "index.json").read_text() == oracle(index)


def test_flags_cover_the_edge_cases():
    # the per-flag comparison above runs on both of these
    a1 = payload_for("A1", ())
    assert a1["s"] == 1 and all(entry["triples"] == [] for entry in a1["iacs"])
    assert any(entry["qk"]["sample"] is None for entry in payload_for("G2", ())["iacs"])


def test_fraction_samples_and_unshared_members():
    # no report up to rank 3 has a non-integer sample, so write some in; the
    # deep copy also gives every entry its own members lists
    payload = copy.deepcopy(payload_for("A2", ()))
    for k, entry in enumerate(payload["iacs"]):
        entry["qk"]["sample"] = [cli._frac(Fraction(k + 1, d)) for d in (1, 2, 3)]
    assert any(isinstance(x, str) for e in payload["iacs"] for x in e["qk"]["sample"])
    assert cli._dump_json(payload) == oracle(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"schema": cli.SCHEMA, "iacs": []},
        {
            # strings that spell the writer's placeholders are escaped, never matched
            "schema": cli.SCHEMA,
            "flag": {"type": 'A2\n  "iacs": null', "theta": []},
            "iacs": [
                {
                    "signs": [1],
                    "note": '\n      "triples": null',
                    "triples": [{"members": [[1], [-1], ["x\ny"]], "class": "OneTwo"}],
                },
                {"signs": [-1], "triples": []},
            ],
            "theorems": {"iacs": None},
        },
    ],
)
def test_synthetic_payloads(payload):
    assert cli._dump_json(payload) == oracle(payload)
