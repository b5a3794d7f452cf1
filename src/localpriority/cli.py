"""Command line interface: run the algorithm, check properties, derive
assignments from named mechanisms, enumerate, compare, render, and run named
mechanisms directly.

Exit codes: 0 success or property holds; 1 property violated (witness JSON on
stdout); 2 input or format error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Callable, NamedTuple

from . import fileio
from .axioms import (
    Verdict,
    check_compromiser_invariance,
    check_fixed_compromiser,
    check_unanimity,
    is_group_strategy_proof,
    is_local_priority,
    is_maskin_monotonic,
    is_nonbossy,
    is_pareto_efficient,
    is_strategy_proof,
)
from .compare import check_agent_dominance, check_pointwise_dominance
from .consistency import READINGS, is_backward_consistent, is_forward_consistent
from .core import (
    Assignment,
    CompromiserAssignment,
    Constraint,
    Instance,
    Profile,
)
from .engine import (
    Exhausted,
    MechanismTable,
    NotImplementableError,
    run_lp,
    tabulate,
    tabulate_function,
)
from .enumeration import EnumerationOptions, enumerate_consistent
from .mechanisms import (
    cumulative_da,
    immediate_acceptance,
    marriage_da,
    sd_alpha,
    serial_dictatorship,
    da_alpha,
    ttc,
    ttc_alpha,
)
from .render import render

TABLE_PROPS = {
    "sp": is_strategy_proof,
    "gsp": is_group_strategy_proof,
    "nonbossy": is_nonbossy,
    "maskin": is_maskin_monotonic,
    "pe": is_pareto_efficient,
    "unanimity": check_unanimity,
    "fixed-compromiser": check_fixed_compromiser,
    "invariance": check_compromiser_invariance,
}
ALPHA_PROPS = ("forward", "backward", "implementable")
ALL_PROPS = tuple(TABLE_PROPS) + ALPHA_PROPS + ("local-priority",)


def _read_json(path: str) -> Any:
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} nests JSON too deeply") from None


def _load_constraint_arg(args: argparse.Namespace) -> Constraint | None:
    if getattr(args, "constraint", None):
        return fileio.load_constraint(_read_json(args.constraint))
    return None


def _load_alpha_arg(args: argparse.Namespace) -> CompromiserAssignment:
    constraint = _load_constraint_arg(args)
    return fileio.load_alpha(_read_json(args.alpha), constraint)


def _emit(doc: Any) -> None:
    sys.stdout.write(fileio.dumps(doc))


def _write(doc: str, out: str | None) -> None:
    """Write a document to the --out file, or to stdout when there is none."""
    if out:
        with open(out, "w") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


def cmd_run(args: argparse.Namespace) -> int:
    alpha = _load_alpha_arg(args)
    inst = alpha.instance
    profile = fileio.load_profile(_read_json(args.profile), inst)
    outcome = run_lp(alpha, profile)
    if isinstance(outcome, Exhausted):
        _emit(
            {
                "exhausted": {
                    "agent": inst.agents[outcome.agent],
                    "step": outcome.step,
                    "allocations": [
                        list(inst.assignment_names(a))
                        for a in outcome.trace.allocations
                    ],
                }
            }
        )
        return 1
    doc: dict[str, Any] = {"final": list(inst.assignment_names(outcome.assignment))}
    if args.trace:
        doc["trace"] = [
            {
                "allocation": list(inst.assignment_names(a)),
                "compromisers": [inst.agents[i] for i in sorted(moved)],
            }
            for a, moved in outcome.trace.steps
        ]
    _emit(doc)
    return 0


class _Mechanism(NamedTuple):
    """A named mechanism loaded from the command line: its constraint, outcome
    function and compromiser assignment (where it has one), and for DA the
    per-round applications. Constraints and assignments are made on demand,
    since each sweeps every allocation; marriage has no constraint, as only
    `lp mechanisms` runs it."""

    instance: Instance
    constraint: Callable[[], Constraint] | None
    outcome: Callable[[Profile], Assignment]
    alpha: Callable[[], CompromiserAssignment] | None
    rounds: Callable[[Profile], tuple[Assignment, ...]] | None = None


def _load_mechanism(args: argparse.Namespace) -> _Mechanism:
    name = args.mechanism
    if name == "sd":
        constraint = _load_constraint_arg(args)
        if constraint is None or not args.order:
            raise ValueError("sd needs --constraint and --order")
        order = fileio.load_order(_read_json(args.order), constraint.instance)
        return _Mechanism(
            constraint.instance,
            lambda: constraint,
            lambda p: serial_dictatorship(constraint, order, p),
            lambda: sd_alpha(constraint, order),
        )
    if name in ("da", "ia", "marriage") and not args.spec:
        raise ValueError(f"{name} needs --spec")
    if name in ("da", "ia"):
        spec = fileio.load_school_spec(_read_json(args.spec))
        if name == "ia":
            return _Mechanism(
                spec.instance,
                spec.constraint,
                lambda p: immediate_acceptance(spec, p),
                None,
            )
        return _Mechanism(
            spec.instance,
            spec.constraint,
            lambda p: cumulative_da(spec, p)[0],
            lambda: da_alpha(spec),
            lambda p: cumulative_da(spec, p)[1],
        )
    if name == "ttc":
        constraint = _load_constraint_arg(args)
        if constraint is None:
            raise ValueError("ttc needs --constraint (a house constraint)")
        if not args.endowment:
            raise ValueError("ttc needs --endowment")
        endowment = fileio.load_endowment(_read_json(args.endowment), constraint.instance)
        return _Mechanism(
            constraint.instance,
            lambda: constraint,
            lambda p: ttc(endowment, p),
            lambda: ttc_alpha(endowment),
        )
    if name == "marriage":
        spec = fileio.load_marriage_spec(_read_json(args.spec))
        return _Mechanism(spec.instance, None, lambda p: marriage_da(spec, p), None)
    raise ValueError(f"unknown mechanism {name!r}")


def cmd_check(args: argparse.Namespace) -> int:
    props = [p.strip() for p in args.props.split(",") if p.strip()]
    if not props:
        raise ValueError(f"--props names no property; choose from {ALL_PROPS}")
    for p in props:
        if p not in ALL_PROPS:
            raise ValueError(f"unknown property {p!r}; choose from {ALL_PROPS}")

    if args.alpha:
        alpha = _load_alpha_arg(args)
        inst = alpha.instance

        @functools.cache
        def sweep() -> tuple[MechanismTable | None, Profile | None]:
            """The one tabulation that implementability and every table
            property share: the table, or else the exhausting profile."""
            try:
                return tabulate(alpha), None
            except NotImplementableError as exc:
                return None, exc.profile

    elif args.mechanism:
        alpha = None
        mech = _load_mechanism(args)
        table = tabulate_function(mech.outcome, mech.constraint())
        inst = table.instance

        def sweep() -> tuple[MechanismTable | None, Profile | None]:
            return table, None

    else:
        raise ValueError("check needs --alpha or --mechanism")

    results = []
    for prop in props:
        if prop in ALPHA_PROPS and alpha is None:
            raise ValueError(f"property {prop!r} needs --alpha")
        result: dict[str, Any] = {"prop": prop}
        if prop == "forward":
            verdict = is_forward_consistent(alpha)
        elif prop == "backward":
            verdict = is_backward_consistent(alpha, args.reading)
        else:
            table, exhausting = sweep()
            if exhausting is not None:
                verdict = Verdict(prop, False, {"profile": exhausting})
                if prop != "implementable":
                    result["failed"] = "implementable"
            elif prop == "implementable":
                verdict = Verdict(prop, True)
            elif prop == "local-priority":
                lp = is_local_priority(table)
                verdict = Verdict(prop, lp.is_lp, lp.witness)
                result["failed"] = lp.failed
            elif prop == "gsp":
                verdict = is_group_strategy_proof(table, exhaustive=args.exhaustive)
            else:
                verdict = TABLE_PROPS[prop](table)
        result["holds"] = verdict.holds
        result["witness"] = fileio.witness_to_json(verdict.witness, inst)
        results.append(result)
    _emit({"results": results})
    return 0 if all(r["holds"] for r in results) else 1


def cmd_derive(args: argparse.Namespace) -> int:
    _write(fileio.dumps(fileio.dump_alpha(_load_mechanism(args).alpha())), args.out)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    constraint = _load_constraint_arg(args)
    if constraint is None:
        raise ValueError("enumerate needs --constraint")
    options = EnumerationOptions(
        reading=args.reading,
        require_forward=args.forward or not args.backward,
        require_backward=args.backward or not args.forward,
        quotient_symmetry=args.quotient,
        dedupe_by_mechanism=args.dedupe,
        budget=args.budget,
    )
    result = enumerate_consistent(constraint, options)
    if args.quotient:
        stream = [alpha for alpha, _ in result.representatives]
    elif args.dedupe:
        stream = [
            result.assignments[members[0]]
            for members in result.mechanism_groups.values()
        ]
    else:
        stream = result.assignments
    for alpha in stream:
        sys.stdout.write(
            json.dumps(fileio.dump_alpha(alpha), sort_keys=True) + "\n"
        )
    sys.stdout.write(json.dumps({"summary": result.summary()}, sort_keys=True) + "\n")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    alpha = _load_alpha_arg(args)
    alpha2 = fileio.load_alpha(_read_json(args.alpha2), None)
    if args.mode == "pointwise":
        report = check_pointwise_dominance(alpha, alpha2)
    else:
        if not args.agent:
            raise ValueError("agent mode needs --agent")
        agent = alpha.instance.agent_index(args.agent)
        report = check_agent_dominance(alpha, alpha2, agent, args.reading)
    _emit(
        {
            "mode": report.mode,
            "holds": report.holds,
            "hypothesis_failures": list(report.hypothesis_failures),
            "witness": fileio.witness_to_json(report.witness, alpha.instance),
        }
    )
    return 0 if report.holds else 1


def cmd_render(args: argparse.Namespace) -> int:
    if args.alpha:
        target: CompromiserAssignment | Constraint = _load_alpha_arg(args)
    else:
        constraint = _load_constraint_arg(args)
        if constraint is None:
            raise ValueError("render needs --alpha or --constraint")
        target = constraint
    _write(render(target, args.format), args.out)
    return 0


def cmd_mechanisms(args: argparse.Namespace) -> int:
    mech = _load_mechanism(args)
    inst = mech.instance
    profile = fileio.load_profile(_read_json(args.profile), inst)
    doc = {"allocation": list(inst.assignment_names(mech.outcome(profile)))}
    if args.rounds and mech.rounds is not None:
        doc["rounds"] = [list(inst.assignment_names(r)) for r in mech.rounds(profile)]
    _emit(doc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lp", description="local priority mechanism workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the local priority algorithm")
    run.add_argument("--constraint")
    run.add_argument("--alpha", required=True)
    run.add_argument("--profile", required=True)
    run.add_argument("--trace", action="store_true")
    run.set_defaults(func=cmd_run)

    check = sub.add_parser("check", help="check properties of an assignment or mechanism")
    check.add_argument("--props", required=True)
    check.add_argument("--constraint")
    check.add_argument("--alpha")
    check.add_argument("--mechanism", choices=["sd", "da", "ttc", "ia"])
    check.add_argument("--spec")
    check.add_argument("--order")
    check.add_argument("--endowment")
    check.add_argument("--reading", choices=READINGS, default="strict")
    check.add_argument("--exhaustive", action="store_true")
    check.set_defaults(func=cmd_check)

    derive = sub.add_parser("derive", help="build an assignment file from a named mechanism")
    derive.add_argument("--mechanism", required=True, choices=["sd", "da", "ttc"])
    derive.add_argument("--constraint")
    derive.add_argument("--spec")
    derive.add_argument("--order")
    derive.add_argument("--endowment")
    derive.add_argument("--out")
    derive.set_defaults(func=cmd_derive)

    enum = sub.add_parser("enumerate", help="enumerate consistent assignments")
    enum.add_argument("--constraint", required=True)
    enum.add_argument("--forward", action="store_true")
    enum.add_argument("--backward", action="store_true")
    enum.add_argument("--reading", choices=READINGS, default="strict")
    enum.add_argument("--quotient", action="store_true")
    enum.add_argument("--dedupe", action="store_true")
    enum.add_argument("--budget", type=int, default=EnumerationOptions.budget)
    enum.set_defaults(func=cmd_enumerate)

    comp = sub.add_parser("compare", help="welfare comparison between two assignments")
    comp.add_argument("--alpha", required=True)
    comp.add_argument("--alpha2", required=True)
    comp.add_argument("--constraint")
    comp.add_argument("--agent")
    comp.add_argument("--mode", choices=["pointwise", "agent"], default="pointwise")
    comp.add_argument("--reading", choices=READINGS, default="strict")
    comp.set_defaults(func=cmd_compare)

    rend = sub.add_parser("render", help="render a constraint or assignment grid")
    rend.add_argument("--constraint")
    rend.add_argument("--alpha")
    rend.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    rend.add_argument("--out")
    rend.set_defaults(func=cmd_render)

    mech = sub.add_parser("mechanisms", help="run a named mechanism directly")
    mech.add_argument(
        "--mechanism", required=True, choices=["sd", "da", "ttc", "ia", "marriage"]
    )
    mech.add_argument("--constraint")
    mech.add_argument("--spec")
    mech.add_argument("--order")
    mech.add_argument("--endowment")
    mech.add_argument("--profile", required=True)
    mech.add_argument("--rounds", action="store_true")
    mech.set_defaults(func=cmd_mechanisms)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
