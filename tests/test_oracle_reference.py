"""The table sweeps against slow reference loops.

Each reference walks `all_profiles()`, reads outcomes with `lookup`, and spells
out every misreport, coalition or feasible improvement. The fast sweeps must
return the same verdict and the same first witness.
"""

import itertools
import random

import pytest

from localpriority.axioms import (
    is_group_strategy_proof,
    is_nonbossy,
    is_pareto_efficient,
    is_strategy_proof,
)
from localpriority.core import Constraint, Instance, profile_index
from localpriority.engine import MechanismTable, tabulate_function
from localpriority.mechanisms import serial_dictatorship

SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3)]


def _replace(profile, coalition, reports):
    out = list(profile)
    for i, pref in zip(coalition, reports):
        out[i] = pref
    return tuple(out)


def _improves(profile, coalition, x, y):
    """Every member weakly prefers y to x and one strictly."""
    places = [(profile[i].index(y[i]), profile[i].index(x[i])) for i in coalition]
    return all(py <= px for py, px in places) and any(py < px for py, px in places)


def reference_sp(f):
    inst = f.instance
    for p in inst.all_profiles():
        x = f.lookup(p)
        for i in range(inst.n):
            for r in inst.all_preferences():
                y = f.lookup(_replace(p, (i,), (r,)))
                if r != p[i] and _improves(p, (i,), x, y):
                    return {
                        "profile": p,
                        "agent": i,
                        "misreport": r,
                        "truthful_outcome": x,
                        "deviation_outcome": y,
                    }
    return None


def reference_nonbossy(f):
    inst = f.instance
    for p in inst.all_profiles():
        x = f.lookup(p)
        for i in range(inst.n):
            for r in inst.all_preferences():
                y = f.lookup(_replace(p, (i,), (r,)))
                if r != p[i] and y != x and y[i] == x[i]:
                    return {
                        "profile": p,
                        "agent": i,
                        "misreport": r,
                        "truthful_outcome": x,
                        "deviation_outcome": y,
                    }
    return None


def reference_gsp(f, sizes):
    inst = f.instance
    for size in sizes:
        for p in inst.all_profiles():
            x = f.lookup(p)
            for coalition in itertools.combinations(range(inst.n), size):
                for reports in itertools.product(inst.all_preferences(), repeat=size):
                    q = _replace(p, coalition, reports)
                    y = f.lookup(q)
                    if q != p and _improves(p, coalition, x, y):
                        return {
                            "profile": p,
                            "coalition": coalition,
                            "misreports": reports,
                            "truthful_outcome": x,
                            "deviation_outcome": y,
                        }
    return None


def reference_pe(f):
    inst = f.instance
    feasible = [inst.decode(c) for c in sorted(f.constraint.feasible)]
    for p in inst.all_profiles():
        x = f.lookup(p)
        for y in feasible:
            if _improves(p, range(inst.n), x, y):
                return {"profile": p, "outcome": x, "improvement": y}
    return None


def _tables(n, m, seed):
    """Random tables, serial dictatorships, and one-entry perturbations of
    the dictatorships, on seeded random constraints."""
    rng = random.Random(seed)
    inst = Instance(tuple(str(k) for k in range(n)), tuple("abc"[:m]))
    out = []
    for _ in range(3):
        feasible = sorted(rng.sample(range(inst.num_allocations), rng.randint(1, inst.num_allocations)))
        constraint = Constraint(inst, frozenset(feasible), ("explicit",))
        out.append(MechanismTable(
            constraint, tuple(rng.choice(feasible) for _ in range(inst.num_profiles))
        ))
        order = tuple(rng.sample(range(n), n))
        sd = tabulate_function(lambda p: serial_dictatorship(constraint, order, p), constraint)
        out.append(sd)
        for _ in range(2):
            entries = list(sd.table)
            entries[rng.randrange(len(entries))] = rng.choice(feasible)
            out.append(MechanismTable(constraint, tuple(entries)))
    return out


def _agrees(verdict, reference):
    assert verdict.holds == (reference is None)
    assert verdict.witness == reference


@pytest.mark.parametrize("n,m", SHAPES)
def test_table_sweeps_match_reference_loops(n, m):
    sp_witness_indices = []
    for f in _tables(n, m, seed=100 * n + m):
        sp = is_strategy_proof(f)
        _agrees(sp, reference_sp(f))
        if not sp.holds:
            sp_witness_indices.append(profile_index(f.instance, sp.witness["profile"]))
        _agrees(is_nonbossy(f), reference_nonbossy(f))
        _agrees(is_group_strategy_proof(f), reference_gsp(f, (1, 2)))
        _agrees(
            is_group_strategy_proof(f, exhaustive=True), reference_gsp(f, range(1, n + 1))
        )
        _agrees(is_pareto_efficient(f), reference_pe(f))
    assert any(i > 0 for i in sp_witness_indices)


def test_first_sp_violation_past_profile_zero():
    inst = Instance(("1", "2", "3"), ("a", "b", "c"))
    constraint = Constraint(inst, frozenset(range(inst.num_allocations)), ("explicit",))
    f = tabulate_function(lambda p: serial_dictatorship(constraint, (0, 1, 2), p), constraint)
    entries = list(f.table)
    last = len(entries) - 1
    # the last profile ranks c, b, a for everyone; hand them all a instead
    entries[last] = inst.encode((0, 0, 0))
    perturbed = MechanismTable(constraint, tuple(entries))
    sp = is_strategy_proof(perturbed)
    assert sp.witness == reference_sp(perturbed)
    assert profile_index(inst, sp.witness["profile"]) == last
    gsp = is_group_strategy_proof(perturbed)
    assert gsp.witness == reference_gsp(perturbed, (1, 2))
    assert gsp.witness["coalition"] == (sp.witness["agent"],)
    assert gsp.witness["misreports"] == (sp.witness["misreport"],)
