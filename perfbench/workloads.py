"""The three workloads: seeded inputs, the timed op of each input, and the
untimed correctness gate that checks the op's answer.

A workload is a list of `Op`s, one batch. The runner repeats the batch, so
every batch does the same work and batch times can be compared directly.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from localpriority import axioms, cli, consistency, core, engine, fileio
from localpriority import mechanisms as mech

import gate

# Audit population per batch. TTC always contributes all six endowments.
AUDIT_DA, AUDIT_SD, AUDIT_IA, AUDIT_TABLES = 12, 12, 4, 4
# House n=3 answers the enumerate workload checks, for any relabeling.
HOUSE_SUMMARY = {"count": 1056, "orbit_count": 45, "mechanism_count": 294, "complete": True}
PERTURBED_SUMMARY = {"count": 306, "orbit_count": None, "mechanism_count": 144, "complete": True}
PE_BUDGET, GSP_BUDGET = 10_000, 8
NAMES = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Workload:
    ops: list[Op]
    profiles_per_op: dict[str, int]


def build(name: str, seed: int, out_dir: Path) -> Workload:
    return {"audit": audit, "enumerate": enumerate_, "search": search}[name](seed, out_dir)


def _names(rng: random.Random, k: int, prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}{c}" for c in rng.sample(NAMES, k))


def _random_spec(inst, rng: random.Random, caps: tuple[int, ...] | None = None):
    while caps is None:
        caps = tuple(rng.randint(0, 3) for _ in range(inst.m))
        if sum(caps) < inst.n:
            caps = None
    priorities = tuple(tuple(rng.sample(range(inst.n), inst.n)) for _ in range(inst.m))
    return mech.SchoolSpec(inst, caps, priorities)


def _random_constraint(inst, rng: random.Random, smallest: int = 1):
    codes = list(range(inst.num_allocations))
    return core.Constraint(inst, frozenset(rng.sample(codes, rng.randint(smallest, len(codes)))), ("explicit",))


# --- audit -----------------------------------------------------------------

TABLE_ORACLES = ("sp", "nonbossy", "gsp", "gsp_exhaustive", "maskin", "pareto")


def _audit_verdicts(alpha, table) -> dict:
    v = {}
    if alpha is not None:
        v["forward"] = consistency.is_forward_consistent(alpha)
        v["backward"] = consistency.is_backward_consistent(alpha)
    v["sp"] = axioms.is_strategy_proof(table)
    v["nonbossy"] = axioms.is_nonbossy(table)
    v["gsp"] = axioms.is_group_strategy_proof(table)
    v["gsp_exhaustive"] = axioms.is_group_strategy_proof(table, exhaustive=True)
    v["maskin"] = axioms.is_maskin_monotonic(table)
    v["pareto"] = axioms.is_pareto_efficient(table)
    v["local_priority"] = axioms.is_local_priority(table)
    return v


def audit_problems(kind: str, reference, alpha, table, v: dict) -> list[str]:
    """Gate of one audited mechanism. `reference` is the table of the
    mechanism's own definition, or None for tables with no LP construction."""
    problems = []
    if reference is not None:
        if reference.table != table.table:
            problems.append(f"{kind}: LP table differs from the reference mechanism")
        if not v["local_priority"].is_lp:
            problems.append(f"{kind}: LP table fails is_local_priority")
    if kind in ("sd", "ttc") and not (v["gsp"].holds and v["pareto"].holds):
        problems.append(f"{kind}: not group strategy-proof and efficient")
    sp_nb = v["sp"].holds and v["nonbossy"].holds
    if not v["gsp"].holds == sp_nb == v["maskin"].holds == v["gsp_exhaustive"].holds:
        problems.append("GSP, SP and nonbossy, Maskin and exhaustive GSP disagree")
    for name in TABLE_ORACLES:
        if not v[name].holds:
            problems += gate.recheck_table_witness(table, name, v[name].witness)
    if not v["local_priority"].is_lp:
        problems += gate.recheck_lp_witness(table, v["local_priority"])
    if "forward" in v and not v["forward"].holds:
        problems += gate.recheck_forward_witness(alpha, v["forward"].witness)
    if "backward" in v and not v["backward"].holds:
        problems += gate.recheck_backward_witness(alpha, v["backward"].witness)
    return problems


def _lp_op(label: str, kind: str, make_alpha, reference) -> Op:
    def run():
        alpha = make_alpha()
        table = engine.tabulate(alpha)
        return alpha, table, _audit_verdicts(alpha, table)

    def check(result):
        alpha, table, v = result
        return audit_problems(kind, reference(), alpha, table, v)

    return Op(label, run, check)


def _table_op(label: str, kind: str, make_table) -> Op:
    def run():
        table = make_table()
        return table, _audit_verdicts(None, table)

    def check(result):
        table, v = result
        return audit_problems(kind, None, None, table, v)

    return Op(label, run, check)


def audit(seed: int, out_dir: Path) -> Workload:
    rng = random.Random(seed)
    inst = core.Instance(_names(rng, 3, "s"), _names(rng, 3, "o"))
    house = core.house_constraint(inst)
    ops = []
    for k in range(AUDIT_DA):
        # Half with unit capacities, where DA is mostly strategy-proof but
        # bossy, so the GSP equivalences are tested on both sides.
        spec = _random_spec(inst, rng, (1, 1, 1) if k % 2 else None)
        ops.append(_lp_op(
            f"da{k}", "da", lambda spec=spec: mech.da_alpha(spec),
            lambda spec=spec: engine.tabulate_function(lambda p: mech.cumulative_da(spec, p)[0], spec.constraint()),
        ))
    for k in range(AUDIT_SD):
        constraint, order = _random_constraint(inst, rng), tuple(rng.sample(range(3), 3))
        ops.append(_lp_op(
            f"sd{k}", "sd", lambda c=constraint, o=order: mech.sd_alpha(c, o),
            lambda c=constraint, o=order: engine.tabulate_function(lambda p: mech.serial_dictatorship(c, o, p), c),
        ))
    for owner in itertools.permutations(range(3)):
        endowment = mech.Endowment(inst, owner)
        ops.append(_lp_op(
            f"ttc{owner}", "ttc", lambda e=endowment: mech.ttc_alpha(e),
            lambda e=endowment: engine.tabulate_function(lambda p: mech.ttc(e, p), house),
        ))
    for k in range(AUDIT_IA):
        # Unit capacities: immediate acceptance is then manipulable, so refuted.
        spec = _random_spec(inst, rng, (1, 1, 1))
        ops.append(_table_op(
            f"ia{k}", "ia",
            lambda spec=spec: engine.tabulate_function(lambda p: mech.immediate_acceptance(spec, p), spec.constraint()),
        ))
    for k in range(AUDIT_TABLES):
        # At least two feasible allocations, so the table is almost never constant.
        constraint = _random_constraint(inst, rng, smallest=2)
        feasible = sorted(constraint.feasible)
        table = engine.MechanismTable(constraint, tuple(rng.choice(feasible) for _ in range(inst.num_profiles)))
        ops.append(_table_op(f"table{k}", "table", lambda t=table: t))
    rng.shuffle(ops)
    return Workload(ops, {"n=3,m=3": inst.num_profiles})


# --- enumerate -------------------------------------------------------------


def enumerate_problems(expected: dict, docs: list[dict], summary: dict, constraint, quotient: bool) -> list[str]:
    """Gate of one `lp enumerate` run: the invariant counts, and the SD and
    TTC mechanisms among the emitted ones. With --quotient the stream holds
    orbit representatives, so the SD and TTC assignments are matched by
    orbit; otherwise it holds one assignment per mechanism, matched by table."""
    problems = []
    got = {k: summary.get(k) for k in expected}
    if got != expected:
        problems.append(f"summary {got} != expected {expected}")
    emitted = [fileio.load_alpha(doc, constraint) for doc in docs]
    want = expected["orbit_count"] if quotient else expected["mechanism_count"]
    if len(emitted) != want:
        problems.append(f"{len(emitted)} assignments emitted, expected {want}")
    inst = constraint.instance
    sd = [mech.sd_alpha(constraint, order) for order in itertools.permutations(range(inst.n))]
    if quotient:
        group = gate.symmetries(constraint)
        keys = {gate.mask_key(alpha) for alpha in emitted}
        ttc = [mech.ttc_alpha(mech.Endowment(inst, owner)) for owner in itertools.permutations(range(inst.m))]
        if any(gate.orbit_key(alpha, group) not in keys for alpha in sd + ttc):
            problems.append("an SD or TTC assignment has no orbit representative")
    else:
        tables = {engine.tabulate(alpha).table for alpha in emitted}
        if any(engine.tabulate(alpha).table not in tables for alpha in sd):
            problems.append("an SD mechanism is missing from the deduped mechanisms")
    return problems


def _enumerate_op(label: str, path: Path, flags: list[str], doc: dict, expected: dict) -> Op:
    def run():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["enumerate", "--constraint", str(path), *flags])
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return [f"lp enumerate exited {code}"]
        lines = [json.loads(line) for line in text.splitlines()]
        return enumerate_problems(
            expected, lines[:-1], lines[-1]["summary"], fileio.load_constraint(doc), "--quotient" in flags
        )

    return Op(label, run, check)


def enumerate_(seed: int, out_dir: Path) -> Workload:
    """House n=3 with --quotient --dedupe, and house n=3 plus one all-same
    allocation with --dedupe, once for each object. Names and declaration
    orders are seeded; the three perturbations cover every all-same
    allocation, so the work per batch does not depend on the seed."""
    rng = random.Random(seed)
    agents, objects = list(_names(rng, 3, "s")), list(_names(rng, 3, "o"))
    rows = [list(p) for p in itertools.permutations(objects)]
    docs = [("house", {"agents": agents, "objects": objects, "kind": "house"}, ["--quotient", "--dedupe"], HOUSE_SUMMARY)]
    for obj in rng.sample(objects, 3):
        doc = {"agents": agents, "objects": objects, "kind": "explicit", "feasible": rows + [[obj] * 3]}
        docs.append((f"house+{obj * 3}", doc, ["--dedupe"], PERTURBED_SUMMARY))
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for label, doc, flags, expected in docs:
        path = out_dir / f"enumerate-{label}.json"
        path.write_text(json.dumps(doc, sort_keys=True))
        ops.append(_enumerate_op(label, path, flags, doc, expected))
    return Workload(ops, {"n=3,m=3": 216})


# --- search ----------------------------------------------------------------


def search_problems(kind: str, found, expect_witness: bool) -> list[str]:
    """Gate of one existence search. None is a decided 'none found'; it is
    wrong only where a witness is known to lie within the budget."""
    if found is None:
        return [f"{kind}: no witness within the budget, where one exists"] if expect_witness else []
    problems = []
    if engine.tabulate(found.alpha).table != found.table.table:
        problems.append(f"{kind}: tabulate(alpha) differs from the returned table")
    if kind == "pe_not_gsp":
        if not gate.pareto_efficient(found.table):
            problems.append("pe_not_gsp: table is not Pareto efficient")
        problems += gate.recheck_table_witness(found.table, "nonbossy", found.detail["bossiness_witness"])
    else:
        if not (axioms.is_strategy_proof(found.table).holds and axioms.is_nonbossy(found.table).holds):
            problems.append("gsp_backward: table is not strategy-proof and nonbossy")
        problems += gate.recheck_backward_witness(found.alpha, found.detail["backward_witness"])
    return problems


def search(seed: int, out_dir: Path) -> Workload:
    """The two existence searches on seeded school constraints. Each batch
    holds every capacity order of (1,2,2) at n=3 and of (2,1,1) and (2,2,1)
    at n=4, m=3, in seeded order and with seeded names, so the work per batch
    does not depend on the seed."""
    rng = random.Random(seed)
    ops = []
    inst3 = core.Instance(_names(rng, 3, "s"), _names(rng, 3, "o"))
    inst4 = core.Instance(_names(rng, 4, "s"), _names(rng, 3, "o"))
    # (instance, capacities, search, a witness lies within the budget)
    cases = [(inst3, caps, "pe_not_gsp", True) for caps in sorted(set(itertools.permutations((1, 2, 2))))]
    for base, found in (((2, 1, 1), True), ((2, 2, 1), False)):
        cases += [(inst4, caps, "gsp_backward", found) for caps in sorted(set(itertools.permutations(base)))]
    rng.shuffle(cases)
    for inst, caps, kind, found in cases:
        constraint = core.school_constraint(inst, caps)
        if kind == "pe_not_gsp":
            run = lambda c=constraint: consistency.find_pe_not_gsp([c], budget=PE_BUDGET)
        else:
            run = lambda c=constraint: consistency.find_gsp_backward_violation([c], budget=GSP_BUDGET)
        ops.append(Op(f"{kind}{caps}", run, lambda result, kind=kind, found=found: search_problems(kind, result, found)))
    return Workload(ops, {"n=3,m=3": inst3.num_profiles, "n=4,m=3": inst4.num_profiles})
