"""JSON file formats: constraints, compromiser assignments, profiles,
mechanism parameter files, and witness serialization.

External allocation form is an array of object names in agent declaration
order; allocation map keys use the comma-joined form "a,a,b", so no object
name holds a comma. Writers sort keys so fixture files are byte-stable.

Loaders check each document's shape before reading it: a malformed one is
refused with ValueError, which the command line reports as bad input. A name
is a JSON string, and a list of names is a JSON list of them; a string is
never read as a list of one-character names.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from .core import (
    Assignment,
    CompromiserAssignment,
    Constraint,
    Instance,
    Profile,
    house_constraint,
    one_sided_constraint,
    school_constraint,
    social_constraint,
    two_sided_constraint,
)
from .mechanisms import Endowment, MarriageSpec, SchoolSpec

CONSTRAINT_KINDS = ("house", "school", "social", "one_sided", "two_sided", "explicit")


def _mapping(value: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _names(value: Any, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise ValueError(f"{what} must be a list of names")
    return value


def _capacities(doc: Mapping[str, Any], inst: Instance) -> list[int]:
    caps = _mapping(doc["capacities"], "capacities")
    out = []
    for name in inst.objects:
        cap = caps[name]
        if type(cap) is not int:
            raise ValueError(f"capacity of {name!r} must be an integer")
        out.append(cap)
    return out


def _instance_from(doc: Any) -> Instance:
    doc = _mapping(doc, "document")
    try:
        agents = _names(doc["agents"], "agents")
        objects = _names(doc["objects"], "objects")
    except KeyError as exc:
        raise ValueError(f"missing field {exc} in document") from None
    for name in objects:
        if "," in name:
            raise ValueError(f"object name {name!r} holds ',', which joins allocation keys")
    return Instance(tuple(agents), tuple(objects))


def load_constraint(doc: Mapping[str, Any]) -> Constraint:
    inst = _instance_from(doc)
    kind = doc.get("kind", "explicit")
    if kind not in CONSTRAINT_KINDS:
        raise ValueError(f"unknown constraint kind {kind!r}")
    if kind == "house":
        return house_constraint(inst)
    if kind == "social":
        return social_constraint(inst)
    if kind == "one_sided":
        return one_sided_constraint(inst)
    if kind == "school":
        return school_constraint(inst, _capacities(doc, inst))
    if kind == "two_sided":
        return two_sided_constraint(inst, _names(doc["men"], "men"), _names(doc["women"], "women"))
    rows = doc["feasible"]
    if not isinstance(rows, list):
        raise ValueError("feasible must be a list of allocations")
    feasible = frozenset(
        inst.encode([inst.object_index(o) for o in _names(row, "a feasible allocation")])
        for row in rows
    )
    return Constraint(inst, feasible, ("explicit",))


def dump_constraint(constraint: Constraint) -> dict:
    inst = constraint.instance
    doc: dict[str, Any] = {
        "agents": list(inst.agents),
        "objects": list(inst.objects),
        "kind": constraint.generator[0],
    }
    kind = constraint.generator[0]
    if kind == "school":
        doc["capacities"] = {
            inst.objects[o]: q for o, q in enumerate(constraint.generator[1])
        }
    elif kind == "two_sided":
        doc["men"] = [inst.agents[i] for i in constraint.generator[1]]
        doc["women"] = [inst.agents[i] for i in constraint.generator[2]]
    elif kind == "explicit":
        doc["feasible"] = [
            list(inst.assignment_names(inst.decode(c)))
            for c in sorted(constraint.feasible)
        ]
    return doc


def allocation_key(inst: Instance, assignment: Sequence[int]) -> str:
    return ",".join(inst.assignment_names(assignment))


def parse_allocation_key(inst: Instance, key: str) -> Assignment:
    parts = key.split(",")
    if len(parts) != inst.n:
        raise ValueError(f"allocation key {key!r} must have {inst.n} entries")
    return tuple(inst.object_index(p) for p in parts)


def load_alpha(
    doc: Mapping[str, Any], constraint: Constraint | None = None
) -> CompromiserAssignment:
    """Read an assignment file. Without an explicit constraint, the implied
    one is used: infeasible exactly where a cell appears."""
    cells_doc = _mapping(_mapping(doc, "document")["cells"], "cells")
    if constraint is None:
        if "agents" not in doc or "objects" not in doc:
            raise ValueError(
                "assignment file without agents/objects needs an explicit constraint"
            )
        inst = _instance_from(doc)
        cell_codes = {
            inst.encode(parse_allocation_key(inst, key)) for key in cells_doc
        }
        feasible = frozenset(range(inst.num_allocations)) - cell_codes
        constraint = Constraint(inst, feasible, ("explicit",))
    inst = constraint.instance
    cells = {}
    for key, agents in cells_doc.items():
        code = inst.encode(parse_allocation_key(inst, key))
        cells[code] = frozenset(inst.agent_index(a) for a in _names(agents, f"cell {key!r}"))
    return CompromiserAssignment(constraint, cells)


def dump_alpha(alpha: CompromiserAssignment) -> dict:
    inst = alpha.instance
    return {
        "agents": list(inst.agents),
        "objects": list(inst.objects),
        "cells": {
            allocation_key(inst, inst.decode(code)): [
                inst.agents[i] for i in sorted(agents)
            ]
            for code, agents in alpha.cells.items()
        },
    }


def load_profile(doc: Mapping[str, Any], inst: Instance) -> Profile:
    doc = _mapping(doc, "profile")
    prefs = []
    for agent in inst.agents:
        if agent not in doc:
            raise ValueError(f"profile missing agent {agent!r}")
        ranking = tuple(inst.object_index(o) for o in _names(doc[agent], f"ranking of {agent!r}"))
        if tuple(sorted(ranking)) != tuple(range(inst.m)):
            raise ValueError(f"agent {agent!r} must rank every object exactly once")
        prefs.append(ranking)
    return tuple(prefs)


def dump_profile(profile: Profile, inst: Instance) -> dict:
    return {
        inst.agents[i]: [inst.objects[o] for o in pref]
        for i, pref in enumerate(profile)
    }


def load_school_spec(doc: Mapping[str, Any]) -> SchoolSpec:
    inst = _instance_from(doc)
    caps = tuple(_capacities(doc, inst))
    priorities = _mapping(doc["priorities"], "priorities")
    ranks = tuple(
        tuple(inst.agent_index(a) for a in _names(priorities[o], f"priority of {o!r}"))
        for o in inst.objects
    )
    return SchoolSpec(inst, caps, ranks)


def load_endowment(doc: Mapping[str, Any], inst: Instance) -> Endowment:
    owner = [0] * inst.n
    for agent, obj in _mapping(doc, "endowment").items():
        if agent in ("agents", "objects"):
            continue
        owner[inst.agent_index(agent)] = inst.object_index(obj)
    return Endowment(inst, tuple(owner))


def load_order(doc: Sequence[str], inst: Instance) -> tuple[int, ...]:
    return tuple(inst.agent_index(a) for a in _names(doc, "order"))


def load_marriage_spec(doc: Mapping[str, Any]) -> MarriageSpec:
    inst = _instance_from(doc)
    men = tuple(inst.agent_index(a) for a in _names(doc["men"], "men"))
    women = tuple(inst.agent_index(a) for a in _names(doc["women"], "women"))
    return MarriageSpec(inst, men, women)


_AGENT_KEYS = {
    "agent",
    "coalition",
    "fixed_compromisers",
    "alpha_x",
    "alpha_y",
    "alpha_x_prime",
    "missing",
}
_ALLOCATION_KEYS = {
    "mu",
    "x",
    "y",
    "x_prime",
    "tops",
    "outcome",
    "transformed_outcome",
    "truthful_outcome",
    "deviation_outcome",
    "improvement",
    "outcome_alpha",
    "outcome_alpha_prime",
}
_PROFILE_KEYS = {"profile", "transformed_profile"}
_PREF_KEYS = {"misreport"}


def witness_to_json(witness: Mapping[str, Any] | None, inst: Instance) -> dict | None:
    """Structured witness with indices replaced by declared names."""
    if witness is None:
        return None

    def alloc(a: Sequence[int]) -> list[str]:
        return list(inst.assignment_names(a))

    def prof(p: Profile) -> dict:
        return dump_profile(p, inst)

    out: dict[str, Any] = {}
    for key, value in witness.items():
        if key in _AGENT_KEYS and value is not None:
            if isinstance(value, int):
                out[key] = inst.agents[value]
            else:
                out[key] = [inst.agents[i] for i in value]
        elif key in _ALLOCATION_KEYS and value is not None:
            out[key] = alloc(value)
        elif key in _PROFILE_KEYS and value is not None:
            out[key] = prof(value)
        elif key in _PREF_KEYS and value is not None:
            out[key] = [inst.objects[o] for o in value]
        elif key == "misreports":
            out[key] = [[inst.objects[o] for o in pref] for pref in value]
        elif key == "profiles":
            out[key] = [prof(p) for p in value]
        elif key in ("path", "outcomes"):
            out[key] = [alloc(a) for a in value]
        elif key == "detail" and isinstance(value, Mapping):
            out[key] = witness_to_json(value, inst)
        elif isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


def dumps(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
