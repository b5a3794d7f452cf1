"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from localpriority import consistency, core, engine, mechanisms  # noqa: E402

import gate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

INST = core.Instance(("1", "2", "3"), ("a", "b", "c"))
DA_SPEC = mechanisms.SchoolSpec(INST, (1, 1, 1), ((2, 0, 1), (0, 1, 2), (0, 1, 2)))
IA_SPEC = mechanisms.SchoolSpec(INST, (1, 1, 1), ((1, 2, 0), (0, 1, 2), (0, 1, 2)))


def test_traced_run_restores_wrapped_functions():
    originals = {
        (mod.__name__, attr): getattr(mod, attr)
        for mod, attr in [
            (engine, "tabulate"), (consistency, "is_backward_consistent"),
            (consistency, "tabulate"), (mechanisms, "da_alpha"),
        ]
    }
    init = core.CompromiserAssignment.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert engine.tabulate is not originals[("localpriority.engine", "tabulate")]
        op = workloads.audit(3, HERE / "out").ops[0]
        tracer.op_id, tracer.active = 0, True
        op.run()
        tracer.active = False
        pair = core.Instance(("1", "2"), ("a", "b"))
        exhausting = core.make_alpha(core.Constraint(pair, frozenset({2})), {0: {0}, 1: {0}, 3: {0}})
        tracer.active = True
        try:
            engine.tabulate(exhausting)
        except engine.NotImplementableError:
            pass
        tracer.active = False
    finally:
        patched = list(tracer.patches)
        tracer.restore()
    assert len(patched) > 40 and not tracer.patches
    assert len(tracer.start) > 10
    assert tracing.batch_layers(tracer, range(0, 1))["engine.tabulate.exhausted"] == 1
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    for (mod_name, attr), original in originals.items():
        assert getattr(sys.modules[mod_name], attr) is original
    assert core.CompromiserAssignment.__init__ is init


def _da_case():
    alpha = mechanisms.da_alpha(DA_SPEC)
    table = engine.tabulate(alpha)
    reference = engine.tabulate_function(
        lambda p: mechanisms.cumulative_da(DA_SPEC, p)[0], DA_SPEC.constraint()
    )
    return alpha, table, reference


def test_gate_passes_true_answers():
    alpha, table, reference = _da_case()
    assert workloads.audit_problems("da", reference, alpha, table, workloads._audit_verdicts(alpha, table)) == []


def test_gate_flags_corrupted_table():
    alpha, table, reference = _da_case()
    entries = list(table.table)
    entries[5] = next(c for c in sorted(table.constraint.feasible) if c != entries[5])
    corrupted = engine.MechanismTable(table.constraint, tuple(entries))
    problems = workloads.audit_problems(
        "da", reference, alpha, corrupted, workloads._audit_verdicts(alpha, corrupted)
    )
    assert any("differs from the reference" in p for p in problems)


def test_gate_flags_corrupted_witness():
    table = engine.tabulate_function(
        lambda p: mechanisms.immediate_acceptance(IA_SPEC, p), IA_SPEC.constraint()
    )
    verdicts = workloads._audit_verdicts(None, table)
    assert not verdicts["sp"].holds
    assert gate.recheck_table_witness(table, "sp", verdicts["sp"].witness) == []
    witness = dict(verdicts["sp"].witness)
    witness["deviation_outcome"] = witness["truthful_outcome"]
    assert gate.recheck_table_witness(table, "sp", witness)

    found = consistency.find_pe_not_gsp([core.school_constraint(INST, (2, 2, 1))], budget=100)
    assert workloads.search_problems("pe_not_gsp", found, True) == []
    assert workloads.search_problems("pe_not_gsp", None, True)
    entries = list(found.table.table)
    entries[0] = next(c for c in sorted(found.table.constraint.feasible) if c != entries[0])
    wrong_table = dataclasses.replace(found, table=engine.MechanismTable(found.table.constraint, tuple(entries)))
    assert workloads.search_problems("pe_not_gsp", wrong_table, True)


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {d["name"]: d["unit"] for d in declared[key]}
