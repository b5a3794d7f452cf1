import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from localpriority.core import (
    Constraint,
    Instance,
    ScaleLimitError,
    make_alpha,
    school_constraint,
)
from localpriority import consistency
from localpriority.engine import _walk, mechanisms_equal, tabulate, tabulate_function
from localpriority.mechanisms import da_alpha, serial_dictatorship, ttc_alpha
from localpriority.axioms import (
    derive_alpha,
    is_group_strategy_proof,
    is_nonbossy,
    is_pareto_efficient,
)
from localpriority.consistency import (
    _first_paths,
    _gsp_backward_candidates,
    _masks,
    _reach,
    find_gsp_backward_violation,
    find_pe_not_gsp,
    is_backward_consistent,
    is_forward_consistent,
    validate_connection_path,
    verify_subset_equivalence,
    verify_union_closure,
)
from localpriority.enumeration import (
    EnumerationOptions,
    HarnessReport,
    enumerate_consistent,
    theorem_harness,
)
from localpriority.fileio import load_alpha

from conftest import A, B, C, FIXTURES
from test_oracle_reference import reference_connect_search


def test_backward_check_steps_out_of_infeasible_allocations_only():
    # A compromise path ends at the first feasible allocation it reaches, so
    # both readings build path steps only from infeasible codes.
    built = 0
    for path in sorted(FIXTURES.glob("*alpha*.json")):
        alpha = load_alpha(json.loads(path.read_text()))
        for reading in ("strict", "relaxed"):
            is_backward_consistent(alpha, reading)
        inst = alpha.instance
        built += len(inst._steps)
        assert not {key >> inst.n for key in inst._steps} & alpha.constraint.feasible, path.name
    assert built


def test_da_alpha_forward_consistent(da_spec):
    assert is_forward_consistent(da_alpha(da_spec)).holds


def test_forward_violation_when_pair_reaches_feasible(inst3):
    # single infeasible cell (a,a,a) with both 1 and 2 compromising: agent 1
    # moving alone reaches the feasible (b,a,a) with 2 still owed a compromise
    constraint = Constraint(
        inst3, frozenset(range(27)) - {inst3.encode((A, A, A))}, ("explicit",)
    )
    alpha = make_alpha(constraint, {inst3.encode((A, A, A)): {0, 1}})
    verdict = is_forward_consistent(alpha)
    assert not verdict.holds
    assert verdict.witness["x"] == (A, A, A)
    assert verdict.witness["y"] == (B, A, A)
    assert verdict.witness["missing"] == (1,)


def test_singleton_cells_are_forward_consistent(inst3, house3):
    alpha = make_alpha(house3, {c: {0} for c in house3.infeasible_codes})
    assert is_forward_consistent(alpha).holds


def _connections(alpha, x, agent):
    """Every allocation that x is i-connected to, for i = agent, with its witness path."""
    inst = alpha.instance
    x_code = inst.encode(x)
    reached = reference_connect_search(alpha, x_code, agent)
    if agent in alpha.cell(x_code):
        paths = _first_paths(inst, _reach(inst, _masks(alpha), x_code, agent))
        assert list(paths.items()) == list(reached.items())
    return {inst.decode(y): tuple(inst.decode(c) for c in path) for y, path in reached.items()}


def test_i_connected_two_step_path(backward_fixture):
    path = _connections(backward_fixture, (A, A, A), 0)[(B, A, A)]
    assert path == ((A, A, A), (B, A, A))
    assert validate_connection_path(backward_fixture, path, 0)


def test_i_connected_self_is_never_connected(backward_fixture):
    assert (A, A, A) not in _connections(backward_fixture, (A, A, A), 0)


def test_i_connected_requires_infeasible_endpoints(backward_fixture):
    # every allocation reached is infeasible (the feasible (c, c, c) never is),
    # and its witness path passes the naive re-check
    alpha = backward_fixture
    inst = alpha.instance
    assert inst.encode((C, C, C)) in alpha.constraint.feasible
    for agent in range(inst.n):
        for x in alpha.cells:
            for y, path in _connections(alpha, inst.decode(x), agent).items():
                assert inst.encode(y) not in alpha.constraint.feasible
                assert path[-1] == y
                assert validate_connection_path(alpha, path, agent)


def test_i_connected_two_agent_swap_pair(nonmonotone_pair):
    _, alpha2 = nonmonotone_pair
    path = _connections(alpha2, (A, A), 1)[(B, B)]
    assert path == ((A, A), (A, B), (B, B))
    assert validate_connection_path(alpha2, path, 1)


def test_backward_fixture_fails_both_readings(backward_fixture):
    for reading in ("strict", "relaxed"):
        verdict = is_backward_consistent(backward_fixture, reading)
        assert not verdict.holds
        w = verdict.witness
        assert w["agent"] == 0
        assert w["x"] == (A, A, A)
        assert w["y"] == (B, A, A)
        assert w["x_prime"] == (A, B, A)
        assert w["alpha_x_prime"] == (2,)


def test_ttc_alpha_backward_consistent_all_endowments(inst3):
    from localpriority.mechanisms import Endowment

    for owner in itertools.permutations(range(3)):
        alpha = ttc_alpha(Endowment(inst3, owner))
        assert is_backward_consistent(alpha, "relaxed").holds
        assert is_backward_consistent(alpha, "strict").holds


def test_swap_alpha2_fails_only_strict(nonmonotone_pair):
    _, alpha2 = nonmonotone_pair
    strict = is_backward_consistent(alpha2, "strict")
    assert not strict.holds
    assert strict.witness["x"] == (A, A)
    assert strict.witness["y"] == (A, B)
    assert strict.witness["x_prime"] == (B, A)
    assert is_backward_consistent(alpha2, "relaxed").holds


def test_invalid_reading_rejected(backward_fixture):
    with pytest.raises(ValueError):
        is_backward_consistent(backward_fixture, "loose")


def _single_agent_restriction(alpha, pick):
    return make_alpha(
        alpha.constraint, {code: {pick(cell)} for code, cell in alpha.cells.items()}
    )


def test_subset_equivalence_da_single_rejection(da_spec):
    # one rejection per round: keep only the lowest-priority compromiser
    alpha = da_alpha(da_spec)
    pos = da_spec.priority_pos()
    inst = da_spec.instance

    def lowest_priority(code):
        x = inst.decode(code)
        cell = alpha.cells[code]
        return max(cell, key=lambda i: pos[x[i]][i])

    restricted = make_alpha(
        alpha.constraint, {code: {lowest_priority(code)} for code in alpha.cells}
    )
    verdict = verify_subset_equivalence(alpha, restricted)
    assert verdict.holds


def test_subset_equivalence_ttc_single_agent(ttc_endowment):
    alpha = ttc_alpha(ttc_endowment)
    restricted = _single_agent_restriction(alpha, min)
    verdict = verify_subset_equivalence(alpha, restricted)
    assert verdict.holds


def test_subset_equivalence_reflexive(da_spec):
    alpha = da_alpha(da_spec)
    assert verify_subset_equivalence(alpha, alpha).holds


def test_subset_equivalence_reports_hypothesis_failures(nested_pair, da_spec):
    alpha, alpha_prime = nested_pair
    # alpha_prime is not forward consistent: hypothesis flagged, not a
    # spurious equivalence verdict
    verdict = verify_subset_equivalence(alpha_prime, alpha)
    assert not verdict.holds
    assert verdict.witness["hypothesis"] == "forward_consistency"
    other = da_alpha(da_spec)
    verdict = verify_subset_equivalence(other, other)
    assert verdict.holds


def test_union_closure_nonuniqueness_fixture(nonunique_alphas):
    alpha_full, alpha_one, alpha_two = nonunique_alphas
    assert alpha_one.union(alpha_two).cells == alpha_full.cells
    assert verify_union_closure(alpha_one, alpha_two).holds
    assert verify_union_closure(alpha_full, alpha_full).holds


def test_union_closure_canonical_alpha_contains_inducers(nonunique_alphas):
    alpha_full, alpha_one, _ = nonunique_alphas
    table = tabulate(alpha_one)
    derived = derive_alpha(table)
    assert alpha_one.is_subset_of(derived)
    assert alpha_full.is_subset_of(derived)
    assert tabulate(derived).table == table.table


def test_union_closure_detects_distinct_tables(nested_pair):
    alpha, alpha_prime = nested_pair
    verdict = verify_union_closure(alpha, alpha_prime)
    assert not verdict.holds
    assert verdict.witness["hypothesis"] == "equal_tables"


@given(st.integers(0, 4))
@settings(max_examples=5, deadline=None)
def test_strict_consistency_implies_relaxed(seed):
    rng = random.Random(seed)
    inst = Instance(("1", "2"), ("a", "b", "c"))
    codes = list(range(9))
    infeasible = rng.sample(codes, rng.randint(1, 4))
    constraint = Constraint(inst, frozenset(codes) - set(infeasible), ("explicit",))
    subsets = [{0}, {1}, {0, 1}]
    for combo in itertools.product(subsets, repeat=len(infeasible)):
        alpha = make_alpha(constraint, dict(zip(infeasible, combo)))
        if is_backward_consistent(alpha, "strict").holds:
            assert is_backward_consistent(alpha, "relaxed").holds


def test_theorem_harness_small_constraint():
    from localpriority.core import social_constraint

    constraint = social_constraint(Instance(("1", "2"), ("a", "b", "c")))
    report = theorem_harness(constraint, "strict")
    assert report.all_pass
    assert report.total > 0


@pytest.mark.parametrize("feasible", [(0, 1, 4), (0, 5), (2, 6, 8)])
@pytest.mark.parametrize("reading", ["strict", "relaxed"])
def test_theorem_harness_matches_per_assignment_loop(inst2, feasible, reading):
    constraint = Constraint(inst2, frozenset(feasible), ("explicit",))
    result = enumerate_consistent(constraint, EnumerationOptions(reading=reading))
    gsp_failures, pe_failures, tables = [], [], set()
    for alpha in result.assignments:
        table = tabulate(alpha)
        tables.add(table.table)
        gsp = is_group_strategy_proof(table)
        if not gsp.holds:
            gsp_failures.append({"alpha": alpha, "witness": gsp.witness})
        pe = is_pareto_efficient(table)
        if not pe.holds:
            pe_failures.append({"alpha": alpha, "witness": pe.witness})
    expected = HarnessReport(
        constraint, reading, result.count, tuple(gsp_failures), tuple(pe_failures), len(tables)
    )
    assert theorem_harness(constraint, reading) == expected


def test_theorem_harness_refuses_an_incomplete_enumeration(house3):
    # 2,000 nodes do not finish house n=3; a report on the assignments found
    # so far (none) would pass vacuously
    with pytest.raises(ScaleLimitError, match="enumeration incomplete"):
        theorem_harness(house3, budget=2000)


def test_find_pe_not_gsp_respects_budget(inst3):
    # one infeasible allocation each, in code order
    constraints = [
        Constraint(inst3, frozenset(range(27)) - {code}, ("explicit",)) for code in range(27)
    ]
    assert find_pe_not_gsp(constraints, budget=5) is None


def test_find_pe_not_gsp_finds_verified_witness(inst3):
    scarce = school_constraint(inst3, (1, 2, 2))
    result = find_pe_not_gsp([scarce], budget=5_000)
    assert result is not None
    assert is_pareto_efficient(result.table).holds
    assert not is_nonbossy(result.table).holds


def test_pe_bossy_search_counts_the_empty_assignment_once(monkeypatch, inst3):
    # With every allocation feasible the one candidate is the empty
    # assignment, whose table gives everyone their top: nonbossy. Budgets
    # below one examine nothing.
    everything = Constraint(inst3, frozenset(range(inst3.num_allocations)), ("explicit",))
    checked = []

    def recording_nonbossy(table):
        checked.append(table)
        return is_nonbossy(table)

    monkeypatch.setattr(consistency, "is_nonbossy", recording_nonbossy)
    assert find_pe_not_gsp([everything], budget=-1) is None
    assert find_pe_not_gsp([everything], budget=0) is None
    assert not checked
    assert find_pe_not_gsp([everything], budget=1) is None
    assert len(checked) == 1
    scarce = school_constraint(inst3, (1, 2, 2))
    alone = find_pe_not_gsp([scarce], budget=10_000)
    after = find_pe_not_gsp([everything, scarce], budget=10_000)
    assert after.detail["examined"] == alone.detail["examined"] + 1 == 3_080
    assert (after.alpha, after.table) == (alone.alpha, alone.table)


def test_pe_bossy_search_stops_inside_a_skipped_subtree(monkeypatch, inst3):
    # At 3,000 the budget runs out inside a subtree of (1,2,2) that the walk
    # skips (its witness is candidate 3,079), so the search returns None there
    # and never reaches the witness of (2,2,1), its 15th candidate.
    walks = []

    def recording_walk(*args):
        walks.append(_walk(*args))
        return walks[-1]

    monkeypatch.setattr(consistency, "_walk", recording_walk)
    constraints = [school_constraint(inst3, (1, 2, 2)), school_constraint(inst3, (2, 2, 1))]
    assert find_pe_not_gsp(constraints, budget=3_000) is None
    assert walks[-1] is not None
    assert find_pe_not_gsp(constraints, budget=3_079).detail["examined"] == 3_079


def test_find_gsp_backward_violation(inst3):
    i4 = Instance(("1", "2", "3", "4"), ("a", "b", "c"))
    school = school_constraint(i4, (2, 1, 1))
    result = find_gsp_backward_violation([school], budget=5)
    assert result is not None
    assert is_group_strategy_proof(result.table).holds
    assert not is_backward_consistent(result.alpha, "strict").holds
    assert mechanisms_equal(tabulate(result.alpha), result.table)


@pytest.mark.parametrize("n,caps", [(3, (1, 2, 2)), (4, (2, 1, 1))])
def test_serial_dictatorship_candidates_match_the_dictators_loop(n, caps):
    # the search tabulates serial dictatorships as local priority mechanisms
    inst = Instance(tuple(str(k) for k in range(1, n + 1)), ("a", "b", "c"))
    school = school_constraint(inst, caps)
    orders = list(itertools.permutations(range(n)))
    candidates = list(itertools.islice(_gsp_backward_candidates(school), len(orders)))
    assert [(family, params) for family, params, _ in candidates] == [
        ("serial_dictatorship", order) for order in orders
    ]
    for _, order, table in candidates:
        assert table == tabulate_function(lambda p: serial_dictatorship(school, order, p), school)
