import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import localpriority
from localpriority.enumeration import EnumerationOptions, enumerate_consistent
from localpriority.fileio import dump_alpha, load_constraint

from conftest import FIXTURES, GOLDENS


# The CLI runs the package these tests import, whether installed or not.
CLI_PATH = os.pathsep.join(
    filter(None, (str(Path(localpriority.__file__).parents[1]), os.environ.get("PYTHONPATH")))
)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "localpriority.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": CLI_PATH},
    )
    return proc


def fx(name):
    return str(FIXTURES / name)


def test_run_da_fixture_trace():
    proc = run_cli(
        "run",
        "--constraint", fx("school_unit.json"),
        "--alpha", fx("da_alpha.json"),
        "--profile", fx("profile_da.json"),
        "--trace",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["final"] == ["b", "c", "a"]
    allocations = [step["allocation"] for step in doc["trace"]]
    assert allocations == [
        ["a", "a", "b"],
        ["a", "b", "b"],
        ["a", "b", "a"],
        ["b", "b", "a"],
        ["b", "c", "a"],
    ]
    assert doc["trace"][0]["compromisers"] == ["2"]


def test_run_without_constraint_uses_implied():
    proc = run_cli(
        "run",
        "--alpha", fx("nested_alpha_big.json"),
        "--profile", fx("profile_all_abc.json"),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["final"] == ["b", "b", "a"]


def test_run_exhaustion_exits_one():
    proc = run_cli(
        "run",
        "--alpha", fx("exhaust_alpha.json"),
        "--profile", fx("profile_ab_tops_aa.json"),
    )
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["exhausted"]["agent"] == "1"
    assert doc["exhausted"]["step"] == 2


def test_run_missing_cell_exits_two(tmp_path):
    doc = json.loads(Path(fx("nested_alpha_small.json")).read_text())
    del doc["cells"]["b,a,a"]
    bad = tmp_path / "bad_alpha.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli(
        "run",
        "--constraint", fx("school_unit.json"),
        "--alpha", str(bad),
        "--profile", fx("profile_all_abc.json"),
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: missing cell at infeasible ('b', 'a', 'a')\n"


def test_run_empty_cell_exits_two(tmp_path):
    doc = json.loads(Path(fx("nested_alpha_small.json")).read_text())
    doc["cells"]["b,a,a"] = []
    bad = tmp_path / "bad_alpha.json"
    bad.write_text(json.dumps(doc))
    proc = run_cli(
        "run", "--alpha", str(bad), "--profile", fx("profile_all_abc.json")
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: empty cell at ('b', 'a', 'a')\n"


def test_unknown_object_name_exits_two(tmp_path):
    bad = tmp_path / "profile.json"
    bad.write_text(json.dumps({"1": ["a", "b", "z"], "2": ["a", "b", "c"], "3": ["a", "b", "c"]}))
    proc = run_cli(
        "run", "--alpha", fx("da_alpha.json"), "--profile", str(bad)
    )
    assert proc.returncode == 2
    assert "unknown object" in proc.stderr


def test_check_da_alpha_properties():
    proc = run_cli(
        "check",
        "--props", "forward,implementable,sp",
        "--constraint", fx("school_unit.json"),
        "--alpha", fx("da_alpha.json"),
    )
    assert proc.returncode == 0
    results = {r["prop"]: r["holds"] for r in json.loads(proc.stdout)["results"]}
    assert results == {"forward": True, "implementable": True, "sp": True}


def test_check_da_gsp_fails_with_witness():
    proc = run_cli(
        "check",
        "--props", "gsp,backward",
        "--constraint", fx("school_unit.json"),
        "--alpha", fx("da_alpha.json"),
    )
    assert proc.returncode == 1
    results = {r["prop"]: r for r in json.loads(proc.stdout)["results"]}
    assert not results["gsp"]["holds"]
    assert results["gsp"]["witness"]["coalition"]


def test_check_exhaustive_gsp_at_four_objects(tmp_path):
    from localpriority import fileio
    from localpriority.core import Instance, school_constraint
    from localpriority.mechanisms import sd_alpha

    inst = Instance(("1", "2", "3"), ("a", "b", "c", "d"))
    alpha = sd_alpha(school_constraint(inst, (1, 1, 1, 3)), (0, 1, 2))
    path = tmp_path / "sd_alpha.json"
    path.write_text(fileio.dumps(fileio.dump_alpha(alpha)))
    proc = run_cli("check", "--props", "sp,gsp", "--exhaustive", "--alpha", str(path))
    assert proc.returncode == 0
    results = {r["prop"]: r["holds"] for r in json.loads(proc.stdout)["results"]}
    assert results == {"sp": True, "gsp": True}


def test_check_ia_invariance_exits_one():
    proc = run_cli(
        "check",
        "--props", "invariance,local-priority",
        "--mechanism", "ia",
        "--spec", fx("ia_spec.json"),
    )
    assert proc.returncode == 1
    results = {r["prop"]: r for r in json.loads(proc.stdout)["results"]}
    assert not results["invariance"]["holds"]
    assert results["local-priority"]["failed"] == "compromiser_invariance"


def test_check_ttc_mechanism_gsp():
    proc = run_cli(
        "check",
        "--props", "gsp,pe,unanimity,fixed-compromiser,invariance,local-priority",
        "--mechanism", "ttc",
        "--constraint", fx("house.json"),
        "--endowment", fx("ttc_endowment.json"),
    )
    assert proc.returncode == 0


def test_check_unknown_prop_exits_two():
    proc = run_cli(
        "check", "--props", "sp,warp", "--alpha", fx("da_alpha.json")
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("props", [",", "", " , "])
def test_check_without_properties_exits_two(props):
    # a check that ran no property has nothing to report as holding
    proc = run_cli("check", "--props", props, "--alpha", fx("da_alpha.json"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: --props names no property")
    assert proc.stderr.count("\n") == 1


def test_derive_roundtrip(tmp_path):
    out = tmp_path / "alpha.json"
    proc = run_cli(
        "derive", "--mechanism", "da", "--spec", fx("da_spec.json"), "--out", str(out)
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text()) == json.loads(Path(fx("da_alpha.json")).read_text())


def test_derive_sd_social(tmp_path):
    out = tmp_path / "sd.json"
    proc = run_cli(
        "derive",
        "--mechanism", "sd",
        "--constraint", fx("social.json"),
        "--order", fx("order_123.json"),
        "--out", str(out),
    )
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["cells"]["a,b,b"] == ["2"]


def test_enumerate_streams_summary(tmp_path):
    proc = run_cli(
        "enumerate", "--constraint", fx("social2.json"), "--dedupe"
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["complete"] is True
    assert summary["count"] == len(lines) - 1 or summary["mechanism_count"] is not None
    for line in lines[:-1]:
        doc = json.loads(line)
        assert set(doc) == {"agents", "objects", "cells"}


def test_enumerate_dedupe_streams_each_mechanism_first_member_in_order():
    # One assignment per mechanism: the first one the search emitted, with
    # the mechanisms in the order their first member was emitted.
    proc = run_cli(
        "enumerate", "--constraint", fx("social2.json"), "--reading", "relaxed", "--dedupe"
    )
    assert proc.returncode == 0
    result = enumerate_consistent(
        load_constraint(json.loads((FIXTURES / "social2.json").read_text())),
        EnumerationOptions(reading="relaxed", dedupe_by_mechanism=True),
    )
    firsts = [result.assignments[members[0]] for members in result.mechanism_groups.values()]
    assert len(firsts) == 20
    assert [json.loads(line) for line in proc.stdout.splitlines()[:-1]] == [
        dump_alpha(alpha) for alpha in firsts
    ]


def test_enumerate_refuses_oversized_constraint_up_front():
    # 720^6 profiles: refused by the leaves' profile budget before the search
    # builds its move tables, which at 6 agents and 6 objects exhaust memory
    start = time.perf_counter()
    proc = run_cli(
        "enumerate", "--constraint", fx("marriage_constraint.json"),
        "--forward", "--backward", "--dedupe",
    )
    assert time.perf_counter() - start < 60
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: profile sweep of size {720**6} exceeds budget 2000000\n"


@pytest.mark.parametrize("extra", [(), ("--dedupe",)])
def test_enumerate_quotient_refuses_an_incomplete_search(extra):
    proc = run_cli(
        "enumerate", "--constraint", fx("house.json"), "--quotient", "--budget", "2000", *extra
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: enumeration incomplete within its budget of 2000 nodes\n"


@pytest.mark.parametrize("golden,flags", [
    ("enumerate_house_quotient_dedupe.jsonl", ["--constraint", fx("house.json"), "--quotient", "--dedupe"]),
    ("enumerate_house_budget2000.jsonl", ["--constraint", fx("house.json"), "--budget", "2000"]),
    ("enumerate_house_allsame_dedupe.jsonl", ["--constraint", fx("house_allsame.json"), "--dedupe"]),
])
def test_enumerate_golden_streams(golden, flags):
    # the second is a budget-cut prefix, which pins the search's node order;
    # the third, house n=3 plus a,a,a, pins the assignment writer and each
    # mechanism group's first member
    proc = run_cli("enumerate", *flags)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == (GOLDENS / golden).read_text()


def test_enumerate_refuses_oversized_move_tables_up_front(tmp_path):
    # 7 agents, 3 objects: within the profile budget, but the move tables
    # would hold 2,184 * 2,186 codes
    path = tmp_path / "social7.json"
    path.write_text(json.dumps({"agents": list("1234567"), "objects": list("abc"), "kind": "social"}))
    start = time.perf_counter()
    proc = run_cli("enumerate", "--constraint", str(path), "--forward", "--backward")
    assert time.perf_counter() - start < 60
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: move tables of 4774224 codes exceed guardrail 100000\n"


def test_compare_pointwise_flags_nested_pair():
    proc = run_cli(
        "compare",
        "--alpha", fx("nested_alpha_small.json"),
        "--alpha2", fx("nested_alpha_big.json"),
        "--mode", "pointwise",
    )
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert "alpha_prime_not_forward_consistent" in doc["hypothesis_failures"]
    assert doc["witness"]["outcome_alpha"] == ["c", "b", "b"]
    assert doc["witness"]["outcome_alpha_prime"] == ["b", "b", "a"]


def test_compare_agent_mode():
    proc = run_cli(
        "compare",
        "--alpha", fx("nonmonotone_alpha1.json"),
        "--alpha2", fx("nonmonotone_alpha2.json"),
        "--mode", "agent",
        "--agent", "1",
    )
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["witness"]["outcome_alpha"][0] == "b"
    assert doc["witness"]["outcome_alpha_prime"][0] == "c"


@pytest.mark.parametrize("mode,agent", [("pointwise", []), ("agent", ["--agent", "1"])])
def test_compare_non_implementable_assignment_against_itself(mode, agent):
    proc = run_cli(
        "compare",
        "--alpha", fx("exhaust_alpha.json"),
        "--alpha2", fx("exhaust_alpha.json"),
        "--mode", mode,
        *agent,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {
        "holds": True,
        "hypothesis_failures": ["alpha_not_implementable", "alpha_prime_not_implementable"],
        "mode": "pointwise" if mode == "pointwise" else "agent:0",
        "witness": None,
    }


def test_render_golden_via_cli(tmp_path):
    out = tmp_path / "grid.txt"
    proc = run_cli(
        "render", "--alpha", fx("ttc_alpha.json"), "--out", str(out)
    )
    assert proc.returncode == 0
    assert out.read_bytes() == (GOLDENS / "ttc_alpha.txt").read_bytes()


def test_render_svg_stdout():
    proc = run_cli("render", "--constraint", fx("house.json"), "--format", "svg")
    assert proc.returncode == 0
    assert proc.stdout.startswith("<svg")


def test_mechanisms_da_rounds():
    proc = run_cli(
        "mechanisms",
        "--mechanism", "da",
        "--spec", fx("da_spec.json"),
        "--profile", fx("profile_da.json"),
        "--rounds",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["allocation"] == ["b", "c", "a"]
    assert len(doc["rounds"]) == 5


def test_mechanisms_marriage():
    proc = run_cli(
        "mechanisms",
        "--mechanism", "marriage",
        "--spec", fx("marriage_spec.json"),
        "--profile", fx("profile_marriage_3.json"),
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["allocation"] == ["w2", "w3", "w1", "m3", "m1", "m2"]


def test_mechanisms_ia():
    proc = run_cli(
        "mechanisms",
        "--mechanism", "ia",
        "--spec", fx("ia_spec.json"),
        "--profile", fx("profile_ia.json"),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["allocation"] == ["c", "a", "b"]


def test_alpha_json_roundtrip():
    from localpriority import fileio

    doc = json.loads(Path(fx("ttc_alpha.json")).read_text())
    alpha = fileio.load_alpha(doc)
    assert fileio.dump_alpha(alpha) == doc


def test_run_ttc_fixture_trace():
    proc = run_cli(
        "run",
        "--constraint", fx("house.json"),
        "--alpha", fx("ttc_alpha.json"),
        "--profile", fx("profile_ttc.json"),
        "--trace",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["final"] == ["c", "b", "a"]
    assert [s["allocation"] for s in doc["trace"]] == [["a", "b", "a"], ["c", "b", "a"]]
    assert doc["trace"][0]["compromisers"] == ["1"]


@pytest.mark.parametrize(
    "profile,expected",
    [
        ("profile_marriage_1.json", ["w1", "w2", "w3", "m1", "m2", "m3"]),
        ("profile_marriage_2.json", ["w1", "w3", "w2", "m1", "m3", "m2"]),
    ],
)
def test_mechanisms_marriage_other_profiles(profile, expected):
    proc = run_cli(
        "mechanisms",
        "--mechanism", "marriage",
        "--spec", fx("marriage_spec.json"),
        "--profile", fx(profile),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["allocation"] == expected


def test_mechanisms_ia_misreport_changes_outcome():
    proc = run_cli(
        "mechanisms",
        "--mechanism", "ia",
        "--spec", fx("ia_spec.json"),
        "--profile", fx("profile_ia_dev.json"),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["allocation"] == ["b", "a", "c"]


def test_check_forward_violation_fixture_exits_one():
    proc = run_cli(
        "check", "--props", "forward", "--alpha", fx("forward_violation_alpha.json")
    )
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    result = doc["results"][0]
    assert not result["holds"]
    assert result["witness"]["x"] == ["a", "a", "a"]
    assert result["witness"]["y"] == ["b", "a", "a"]


def test_check_backward_fixture_both_readings():
    for reading in ("strict", "relaxed"):
        proc = run_cli(
            "check",
            "--props", "backward",
            "--alpha", fx("backward_alpha.json"),
            "--reading", reading,
        )
        assert proc.returncode == 1
        witness = json.loads(proc.stdout)["results"][0]["witness"]
        assert witness["x_prime"] == ["a", "b", "a"]
        assert witness["agent"] == "1"


def test_check_implementable_witness_exits_one():
    proc = run_cli(
        "check", "--props", "implementable", "--alpha", fx("exhaust_alpha.json")
    )
    assert proc.returncode == 1
    witness = json.loads(proc.stdout)["results"][0]["witness"]
    assert witness["profile"] == {"1": ["a", "b"], "2": ["a", "b"]}


@pytest.mark.parametrize("props", ["sp", "local-priority", "implementable,sp"])
def test_check_table_props_on_non_implementable_exit_one(props):
    proc = run_cli("check", "--props", props, "--alpha", fx("exhaust_alpha.json"))
    assert proc.returncode == 1
    assert proc.stderr == ""
    results = json.loads(proc.stdout)["results"]
    assert [r["prop"] for r in results] == props.split(",")
    exhausting = {"profile": {"1": ["a", "b"], "2": ["a", "b"]}}
    for r in results:
        assert r["holds"] is False
        assert r["witness"] == exhausting
        if r["prop"] == "implementable":
            assert "failed" not in r
        else:
            assert r["failed"] == "implementable"


def test_mechanisms_sd_social():
    proc = run_cli(
        "mechanisms",
        "--mechanism", "sd",
        "--constraint", fx("social.json"),
        "--order", fx("order_123.json"),
        "--profile", fx("profile_sd_social.json"),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["allocation"] == ["a", "a", "a"]


def test_mechanisms_ttc():
    proc = run_cli(
        "mechanisms",
        "--mechanism", "ttc",
        "--constraint", fx("house.json"),
        "--endowment", fx("ttc_endowment.json"),
        "--profile", fx("profile_ttc.json"),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["allocation"] == ["c", "b", "a"]


@pytest.mark.parametrize("args,message", [
    (("check", "--mechanism", "da", "--props", "sp"), "da needs --spec"),
    (("check", "--mechanism", "ia", "--props", "sp"), "ia needs --spec"),
    (("derive", "--mechanism", "da"), "da needs --spec"),
    (("mechanisms", "--mechanism", "marriage", "--profile", fx("profile_marriage_1.json")),
     "marriage needs --spec"),
    (("check", "--mechanism", "ttc", "--constraint", fx("house.json"), "--props", "sp"),
     "ttc needs --endowment"),
    (("derive", "--mechanism", "ttc", "--constraint", fx("house.json")),
     "ttc needs --endowment"),
    (("mechanisms", "--mechanism", "ttc", "--constraint", fx("house.json"),
      "--profile", fx("profile_ttc.json")), "ttc needs --endowment"),
])
def test_missing_mechanism_file_exits_two(args, message):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


HOUSE = {"agents": ["1", "2", "3"], "objects": ["a", "b", "c"], "kind": "house"}
SCHOOL = {**HOUSE, "kind": "school", "capacities": {"a": 1, "b": 1, "c": 1}}
SPEC = {**SCHOOL, "priorities": {"a": ["3", "1", "2"], "b": ["1", "2", "3"], "c": ["1", "2", "3"]}}
MARRIAGE = {"agents": ["m", "w"], "objects": ["m", "w"], "kind": "two_sided", "men": ["m"], "women": ["w"]}
DOC = "{doc}"  # stands for the path of the malformed document


@pytest.mark.parametrize("args,doc", [
    (("render", "--constraint", DOC), {**HOUSE, "agents": 5}),
    (("render", "--constraint", DOC), [HOUSE]),
    (("render", "--constraint", DOC), {**SCHOOL, "capacities": [1, 1, 1]}),
    (("render", "--constraint", DOC), {**SCHOOL, "capacities": {"a": 1, "b": None, "c": 1}}),
    (("render", "--constraint", DOC), {**MARRIAGE, "men": 3}),
    (("render", "--alpha", DOC), {"agents": ["1", "2"], "objects": ["a", "b"], "cells": [["a,a", ["1"]]]}),
    (("derive", "--mechanism", "ttc", "--constraint", fx("house.json"), "--endowment", DOC), ["b", "c", "a"]),
    (("derive", "--mechanism", "da", "--spec", DOC), {**SPEC, "priorities": [["3", "1", "2"]] * 3}),
    (("derive", "--mechanism", "sd", "--constraint", fx("house.json"), "--order", DOC), "123"),
    (("render", "--alpha", DOC), {"agents": ["1", "2"], "objects": ["a", "b"],
                                  "cells": {"a,a": "12", "b,b": ["1"]}}),
    (("derive", "--mechanism", "da", "--spec", DOC), {**SPEC, "priorities": {**SPEC["priorities"], "a": "312"}}),
    (("derive", "--mechanism", "sd", "--constraint", DOC, "--order", fx("order_123.json")),
     {**HOUSE, "objects": ["a,b", "c", "d"]}),
], ids=[
    "agents-number", "top-level-list", "capacities-list", "null-capacity", "men-number",
    "cells-list", "endowment-list", "priorities-list", "order-string", "cell-string",
    "priority-string", "object-name-with-comma",
])
def test_malformed_document_exits_two(tmp_path, args, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(*(str(path) if arg == DOC else arg for arg in args))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_too_deeply_nested_document_exits_two(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = run_cli("render", "--constraint", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {path} nests JSON too deeply\n"
