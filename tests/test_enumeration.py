import inspect
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from localpriority.core import (
    Constraint,
    Instance,
    ScaleLimitError,
    house_constraint,
    school_constraint,
    social_constraint,
)
from localpriority.consistency import is_backward_consistent, is_forward_consistent
from localpriority.engine import is_implementable, tabulate
from localpriority.enumeration import (
    EnumerationOptions,
    brute_force_consistent,
    constraint_symmetries,
    enumerate_consistent,
)
from localpriority.fileio import load_constraint

from conftest import A, B, C, load_fixture


def _keys(alphas):
    return {tuple(sorted((c, tuple(sorted(s))) for c, s in a.cells.items())) for a in alphas}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("reading", ["strict", "relaxed"])
def test_mini_completeness_against_brute_force(m, reading):
    inst = Instance(("1", "2"), tuple("abc"[:m]))
    codes = list(range(inst.num_allocations))
    # a spread of explicit constraints with varying infeasible sets
    infeasible_sets = [
        {0},
        {0, 1},
        {1, 2},
        set(codes[: len(codes) // 2]),
        set(codes[1 : len(codes) - 1 : 2]),
    ]
    for infeasible in infeasible_sets:
        feasible = frozenset(codes) - infeasible
        if not feasible:
            continue
        constraint = Constraint(inst, feasible, ("explicit",))
        options = EnumerationOptions(reading=reading)
        pruned = enumerate_consistent(constraint, options)
        brute = brute_force_consistent(constraint, options)
        assert pruned.complete
        assert _keys(pruned.assignments) == _keys(brute)


@pytest.mark.parametrize("forward,backward", [(True, False), (False, True), (False, False)])
def test_mini_completeness_option_combinations(forward, backward):
    inst = Instance(("1", "2"), ("a", "b"))
    constraint = Constraint(inst, frozenset({inst.encode((A, B)), inst.encode((B, A))}), ("explicit",))
    options = EnumerationOptions(require_forward=forward, require_backward=backward)
    pruned = enumerate_consistent(constraint, options)
    brute = brute_force_consistent(constraint, options)
    assert _keys(pruned.assignments) == _keys(brute)


def test_emitted_assignments_repass_naive_checks():
    inst = Instance(("1", "2"), ("a", "b", "c"))
    constraint = social_constraint(inst)
    result = enumerate_consistent(constraint, EnumerationOptions())
    assert result.count > 0
    for alpha in result.assignments:
        assert is_forward_consistent(alpha).holds
        assert is_backward_consistent(alpha, "strict").holds
        assert is_implementable(alpha)


def test_social_two_by_two_contains_dictatorships():
    inst = Instance(("1", "2"), ("a", "b"))
    constraint = social_constraint(inst)
    result = enumerate_consistent(constraint, EnumerationOptions())
    keys = _keys(result.assignments)
    cells = constraint.infeasible_codes
    dictator_one = tuple(sorted((c, (0,)) for c in cells))
    dictator_two = tuple(sorted((c, (1,)) for c in cells))
    assert dictator_one in keys
    assert dictator_two in keys


def test_budget_exhaustion_reports_incomplete(house3):
    result = enumerate_consistent(house3, EnumerationOptions(budget=50))
    assert not result.complete


@pytest.mark.parametrize("dedupe", [False, True])
def test_quotient_refuses_an_incomplete_enumeration(house3, dedupe):
    # the orbits of a partial assignment list are not closed under the group
    options = EnumerationOptions(quotient_symmetry=True, dedupe_by_mechanism=dedupe, budget=2_000)
    with pytest.raises(ScaleLimitError) as info:
        enumerate_consistent(house3, options)
    assert str(info.value) == "enumeration incomplete within its budget of 2000 nodes"


def test_oversized_move_tables_are_refused_before_any_is_built():
    # 7 agents, 3 objects: 2,184 cells, 2,186 moves from each, and 279,936
    # profiles, which the profile budget admits
    inst = Instance(tuple("1234567"), ("a", "b", "c"))
    start = time.process_time()
    with pytest.raises(ScaleLimitError, match="move tables of 4774224 codes"):
        enumerate_consistent(social_constraint(inst), EnumerationOptions(budget=1000))
    assert time.process_time() - start < 1
    assert "_moves" not in vars(inst)


def test_search_runs_deeper_than_the_recursion_limit():
    # The search is one loop over the cells, so it takes no stack frame per
    # cell: with 30 frames to spare it still passes depth 50 on school n=4.
    constraint = school_constraint(Instance(tuple("1234"), tuple("abc")), (2, 1, 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 30)
    try:
        result = enumerate_consistent(constraint, EnumerationOptions(budget=150_000))
    finally:
        sys.setrecursionlimit(limit)
    assert not result.complete
    assert result.pruned_nodes == 139_955


@pytest.mark.parametrize("name", [
    "house_3x4", "school_4x3_caps_211", "house.json", "school_unit.json", "social.json", "social2.json",
])
def test_searches_within_the_guardrails_still_run(name):
    if name == "house_3x4":
        constraint = house_constraint(Instance(("1", "2", "3"), tuple("abcd")))
    elif name == "school_4x3_caps_211":
        constraint = school_constraint(Instance(tuple("1234"), tuple("abc")), (2, 1, 1))
    else:
        constraint = load_constraint(load_fixture(name))
    result = enumerate_consistent(constraint, EnumerationOptions(budget=500))
    assert result.pruned_nodes


def test_house_symmetry_group_order(house3):
    group = constraint_symmetries(house3)
    assert len(group) == 36
    inst = house3.instance
    for aperm, operm in group:
        for code in house3.feasible:
            x = inst.decode(code)
            y = [0] * inst.n
            for i in range(inst.n):
                y[aperm[i]] = operm[x[i]]
            assert inst.encode(y) in house3.feasible


def test_perturbed_symmetry_group_order(perturbed3):
    # the feasible all-a allocation pins object a; agents stay free
    assert len(constraint_symmetries(perturbed3)) == 12


def test_asymmetric_constraint_has_identity_only(inst3):
    feasible = frozenset(
        {inst3.encode((A, A, A)), inst3.encode((A, A, B)), inst3.encode((B, C, A))}
    )
    constraint = Constraint(inst3, feasible, ("explicit",))
    group = constraint_symmetries(constraint)
    assert len(group) == 1
    assert group[0] == ((0, 1, 2), (0, 1, 2))


def test_quotient_orbits_resum():
    inst = Instance(("1", "2"), ("a", "b"))
    constraint = house_constraint(inst)
    options = EnumerationOptions(quotient_symmetry=True)
    result = enumerate_consistent(constraint, options)
    assert result.representatives is not None
    assert sum(size for _, size in result.representatives) == result.count


def test_quotient_and_dedupe_on_social():
    inst = Instance(("1", "2"), ("a", "b", "c"))
    constraint = social_constraint(inst)
    options = EnumerationOptions(quotient_symmetry=True, dedupe_by_mechanism=True)
    result = enumerate_consistent(constraint, options)
    summary = result.summary()
    assert summary["count"] == result.count
    assert summary["orbit_count"] == len(result.representatives)
    assert sum(size for _, size in result.representatives) == result.count
    assert summary["mechanism_count"] <= result.count


def _regroup(result):
    """The mechanism groups `tabulate` gives the emitted assignments."""
    regrouped = {}
    for k, alpha in enumerate(result.assignments):
        regrouped.setdefault(tabulate(alpha).table, []).append(k)
    return regrouped


@pytest.mark.parametrize("name,reading", [
    ("house3", "strict"), ("house+a", "strict"), ("house+b", "strict"), ("house+c", "strict"),
    ("social2", "strict"), ("house3", "relaxed"), ("social2", "relaxed"),
], ids=["house3", "house+a", "house+b", "house+c", "social2", "house3-relaxed", "social2-relaxed"])
def test_mechanism_groups_regroup_assignments_by_table(name, reading, house3):
    # The search keys each group on the table its walk filled; tabulate is
    # the oracle, on the benchmark's constraints (house n=3, and house n=3
    # plus one all-same allocation) and in the relaxed reading, whose house
    # search emits 7,218 assignments.
    if name == "social2":
        constraint = load_constraint(load_fixture("social2.json"))
    elif name == "house3":
        constraint = house3
    else:
        inst = house3.instance
        obj = inst.object_index(name[-1])
        constraint = Constraint(inst, house3.feasible | {inst.encode((obj,) * inst.n)}, ("explicit",))
    options = EnumerationOptions(reading=reading, dedupe_by_mechanism=True)
    result = enumerate_consistent(constraint, options)
    regrouped = _regroup(result)
    assert result.complete
    assert list(result.mechanism_groups.items()) == list(regrouped.items())
    assert result.mechanism_count == len(regrouped)
    assert regrouped


@st.composite
def two_agent_constraints(draw):
    m = draw(st.integers(2, 3))
    inst = Instance(("1", "2"), tuple("abc"[:m]))
    codes = range(inst.num_allocations)
    infeasible = draw(st.sets(st.sampled_from(codes), max_size=min(6, len(codes) - 1)))
    return Constraint(inst, frozenset(codes) - infeasible, ("explicit",))


@given(two_agent_constraints(), st.sampled_from(["strict", "relaxed"]), st.booleans(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_search_matches_brute_force_on_generated_constraints(constraint, reading, forward, backward):
    # Same assignments in the same order as the naive filter, whose
    # implementability test is tabulate, and groups keyed on tabulate's tables.
    options = EnumerationOptions(
        reading=reading, require_forward=forward, require_backward=backward,
        dedupe_by_mechanism=True,
    )
    result = enumerate_consistent(constraint, options)
    brute = brute_force_consistent(constraint, options)
    assert result.complete
    assert [sorted(a.cells.items()) for a in result.assignments] == [
        sorted(a.cells.items()) for a in brute
    ]
    assert list(result.mechanism_groups.items()) == list(_regroup(result).items())


def test_strict_backward_only_house_search_completes_within_a_small_budget(house3):
    # A branch on which some run exhausts is cut once the cells that run reads
    # are set, so the search that reads only backward consistency finishes in
    # 300,000 nodes. A search that decided implementability only at its
    # leaves would stop within this budget with 249 of the 1,200 assignments.
    options = EnumerationOptions(require_forward=False, budget=300_000)
    result = enumerate_consistent(house3, options)
    assert result.complete
    assert result.count == 1_200


def test_options_validation():
    with pytest.raises(ValueError):
        EnumerationOptions(budget=0)
    with pytest.raises(ValueError):
        EnumerationOptions(reading="fuzzy")


def test_three_agent_completeness_sample():
    import random

    inst = Instance(("1", "2", "3"), ("a", "b", "c"))
    rng = random.Random(555)
    codes = list(range(27))
    for _ in range(2):
        infeasible = set(rng.sample(codes, rng.choice([3, 4, 5])))
        constraint = Constraint(inst, frozenset(codes) - infeasible, ("explicit",))
        for reading in ("strict", "relaxed"):
            options = EnumerationOptions(reading=reading)
            pruned = enumerate_consistent(constraint, options)
            brute = brute_force_consistent(constraint, options)
            assert pruned.complete
            assert _keys(pruned.assignments) == _keys(brute)
