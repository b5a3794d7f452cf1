import itertools

import pytest

from localpriority.core import (
    Constraint,
    Instance,
    MalformedAssignmentError,
    ScaleLimitError,
    make_alpha,
    tau,
)
from localpriority.engine import (
    Exhausted,
    Final,
    MechanismTable,
    NotImplementableError,
    find_exhausting_profile,
    is_implementable,
    mechanism_difference,
    mechanisms_equal,
    run_lp,
    tabulate,
    tabulate_function,
)
from localpriority.enumeration import EnumerationOptions, brute_force_consistent
from localpriority.mechanisms import cumulative_da, da_alpha
from localpriority.axioms import bottom_rank

from conftest import A, B, C


def names(inst, assignment):
    return inst.assignment_names(assignment)


def test_run_lp_da_fixture_trace(inst3, da_spec, da_profile):
    out = run_lp(da_alpha(da_spec), da_profile)
    assert isinstance(out, Final)
    expected = [(A, A, B), (A, B, B), (A, B, A), (B, B, A), (B, C, A)]
    assert list(out.trace.allocations) == expected
    assert out.assignment == (B, C, A)


def test_run_lp_unanimity_case(da_spec):
    profile = ((A, B, C), (B, A, C), (C, A, B))
    out = run_lp(da_alpha(da_spec), profile)
    assert isinstance(out, Final)
    assert out.assignment == (A, B, C)
    assert len(out.trace.steps) == 1


@pytest.fixture(scope="module")
def exhaust_alpha():
    inst = Instance(("1", "2"), ("a", "b"))
    constraint = Constraint(inst, frozenset({inst.encode((A, B))}), ("explicit",))
    return make_alpha(
        constraint,
        {
            inst.encode((A, A)): {0},
            inst.encode((B, A)): {0},
            inst.encode((B, B)): {0},
        },
    )


def test_run_lp_exhaustion(exhaust_alpha):
    out = run_lp(exhaust_alpha, ((A, B), (A, B)))
    assert isinstance(out, Exhausted)
    assert out.agent == 0
    assert out.step == 2
    assert out.trace.allocations == ((A, A), (B, A))


def test_run_lp_nested_pair_outcomes(nested_pair):
    alpha, alpha_prime = nested_pair
    profile = ((A, B, C),) * 3
    assert run_lp(alpha_prime, profile).assignment == (B, B, A)
    assert run_lp(alpha, profile).assignment == (C, B, B)


def test_run_lp_rejects_malformed_alpha(exhaust_alpha):
    broken = object.__new__(type(exhaust_alpha))
    object.__setattr__(broken, "constraint", exhaust_alpha.constraint)
    object.__setattr__(broken, "cells", {})
    with pytest.raises(MalformedAssignmentError):
        run_lp(broken, ((A, B), (A, B)))


def test_is_implementable_da(da_spec):
    assert is_implementable(da_alpha(da_spec))


def test_exhausting_witness_is_lex_first(exhaust_alpha):
    witness = find_exhausting_profile(exhaust_alpha)
    assert witness is not None
    assert tau(witness, 1) == (A, A)
    assert witness == ((A, B), (A, B))


def test_everything_feasible_is_trivially_implementable(inst3):
    constraint = Constraint(inst3, frozenset(range(27)), ("explicit",))
    alpha = make_alpha(constraint, {})
    assert is_implementable(alpha)
    out = run_lp(alpha, ((C, B, A),) * 3)
    assert out.assignment == (C, C, C)


def test_tabulate_matches_da(da_spec):
    lp_table = tabulate(da_alpha(da_spec))
    da_table = tabulate_function(
        lambda p: cumulative_da(da_spec, p)[0], da_spec.constraint()
    )
    assert mechanisms_equal(lp_table, da_table)
    assert mechanisms_equal(lp_table, lp_table)


def test_tabulate_surfaces_exhaustion(exhaust_alpha):
    with pytest.raises(NotImplementableError) as err:
        tabulate(exhaust_alpha)
    assert err.value.profile == ((A, B), (A, B))


def test_nonunique_assignments_induce_same_mechanism(nonunique_alphas):
    tables = [tabulate(alpha) for alpha in nonunique_alphas]
    assert mechanisms_equal(tables[0], tables[1])
    assert mechanisms_equal(tables[0], tables[2])


def test_mechanism_difference_witness(nested_pair):
    alpha, alpha_prime = nested_pair
    witness = mechanism_difference(tabulate(alpha), tabulate(alpha_prime))
    assert witness is not None
    out_a = run_lp(alpha, witness).assignment
    out_b = run_lp(alpha_prime, witness).assignment
    assert out_a != out_b


def test_rank_vector_monotone_along_trace(da_spec, da_profile):
    # each agent's rank position in their own ranking never decreases along a
    # trace, and rises for every agent who compromises
    trace = run_lp(da_alpha(da_spec), da_profile).trace
    vectors = [
        [pref.index(obj) for pref, obj in zip(da_profile, x)] for x in trace.allocations
    ]
    for (prev_x, moved), prev, cur in zip(trace.steps, vectors, vectors[1:]):
        assert all(c >= p for p, c in zip(prev, cur))
        for agent in moved:
            assert cur[agent] > prev[agent]


def test_trace_legality(da_spec, da_profile):
    alpha = da_alpha(da_spec)
    trace = run_lp(alpha, da_profile).trace
    inst = alpha.instance
    for (x, moved), (y, _) in zip(trace.steps, trace.steps[1:]):
        assert moved == alpha.cell(inst.encode(x))
        for agent in moved:
            pref = da_profile[agent]
            below = pref[pref.index(x[agent]) + 1 :]
            assert y[agent] == below[0]
        assert inst.encode(x) not in alpha.constraint.feasible


def test_trace_truncation_after_bottom_ranking(da_spec, da_profile):
    # all first-step compromisers bottom-rank their top: the new trace is the
    # old one with its first allocation dropped
    alpha = da_alpha(da_spec)
    trace = run_lp(alpha, da_profile).trace
    first_cell = trace.steps[0][1]
    moved = tuple(
        bottom_rank(pref, pref[0]) if i in first_cell else pref
        for i, pref in enumerate(da_profile)
    )
    new_trace = run_lp(alpha, moved).trace
    assert new_trace.allocations == trace.allocations[1:]


def test_termination_bound(da_spec):
    alpha = da_alpha(da_spec)
    cap = alpha.instance.n * (alpha.instance.m - 1) + 1
    for profile in alpha.instance.all_profiles():
        out = run_lp(alpha, profile)
        assert len(out.trace.steps) <= cap


def test_tables_refuse_instances_past_the_profile_budget():
    # 5 agents, 4 objects: 24**5 = 7,962,624 profiles. No table of them can
    # be built, so no oracle reading a table needs its own check, and the
    # sweeps refuse before the first run.
    inst = Instance(tuple("12345"), tuple("abcd"))
    refusal = "profile sweep of size 7962624 exceeds budget 2000000"
    with pytest.raises(ScaleLimitError) as exc:
        MechanismTable(Constraint(inst, frozenset({0})), ())
    assert str(exc.value) == refusal
    everything = Constraint(inst, frozenset(range(inst.num_allocations)))
    with pytest.raises(ScaleLimitError) as exc:
        tabulate(make_alpha(everything, {}))
    assert str(exc.value) == refusal
    profiles_seen = []
    with pytest.raises(ScaleLimitError) as exc:
        tabulate_function(lambda p: profiles_seen.append(p) or (0,) * inst.n, everything)
    assert str(exc.value) == refusal
    assert profiles_seen == []


def test_tabulate_image_equals_constraint(da_spec):
    table = tabulate(da_alpha(da_spec))
    assert table.image() == table.constraint.feasible


from hypothesis import given, settings, strategies as st


@st.composite
def random_alpha_and_profile(draw):
    inst = Instance(("1", "2"), ("a", "b", "c"))
    codes = list(range(9))
    infeasible = draw(st.sets(st.sampled_from(codes), min_size=1, max_size=6))
    constraint = Constraint(inst, frozenset(codes) - infeasible, ("explicit",))
    cells = {
        code: draw(st.sets(st.sampled_from([0, 1]), min_size=1, max_size=2))
        for code in infeasible
    }
    prefs = inst.all_preferences()
    profile = (draw(st.sampled_from(prefs)), draw(st.sampled_from(prefs)))
    return make_alpha(constraint, cells), profile


@given(random_alpha_and_profile())
@settings(max_examples=80, deadline=None)
def test_run_lp_trace_is_legal_on_random_inputs(alpha_profile):
    alpha, profile = alpha_profile
    inst = alpha.instance
    out = run_lp(alpha, profile)
    allocations = out.trace.allocations
    assert allocations[0] == tau(profile, 1)
    for (x, moved), (y, _) in zip(out.trace.steps, out.trace.steps[1:]):
        assert moved == alpha.cell(inst.encode(x))
        for agent in range(inst.n):
            if agent in moved:
                pref = profile[agent]
                assert y[agent] == pref[pref.index(x[agent]) + 1]
            else:
                assert y[agent] == x[agent]
    if isinstance(out, Final):
        assert inst.encode(out.assignment) in alpha.constraint.feasible
        assert all(
            inst.encode(x) not in alpha.constraint.feasible for x in allocations[:-1]
        )
    else:
        assert out.agent in alpha.cell(inst.encode(allocations[-1]))
        assert profile[out.agent].index(allocations[-1][out.agent]) == inst.m - 1


def _naive_first_exhausting(alpha):
    for profile in alpha.instance.all_profiles():
        if isinstance(run_lp(alpha, profile), Exhausted):
            return profile
    return None


def _check_every_cell_choice(n, m):
    """Every assignment on four small infeasible sets, against the naive
    sweep, `run_lp` per profile, and brute-force enumeration."""
    inst = Instance(tuple(str(k) for k in range(1, n + 1)), tuple("abc"[:m]))
    codes = range(inst.num_allocations)
    subsets = [
        frozenset(s) for k in range(1, n + 1) for s in itertools.combinations(range(n), k)
    ]
    unconstrained = EnumerationOptions(require_forward=False, require_backward=False)
    diagonal = {k * sum(inst.powers) for k in range(m)}
    for infeasible in ({0}, {0, 1}, {1, 2}, diagonal):
        if not infeasible < set(codes):
            continue
        constraint = Constraint(inst, frozenset(codes) - infeasible, ("explicit",))
        cells = sorted(infeasible)
        implementable = set()
        for combo in itertools.product(subsets, repeat=len(cells)):
            alpha = make_alpha(constraint, dict(zip(cells, combo)))
            witness = find_exhausting_profile(alpha)
            assert witness == _naive_first_exhausting(alpha)
            assert is_implementable(alpha) == (witness is None)
            if witness is None:
                assert tabulate(alpha).table == tuple(
                    inst.encode(run_lp(alpha, p).assignment) for p in inst.all_profiles()
                )
                implementable.add(combo)
        brute = brute_force_consistent(constraint, unconstrained)
        assert {tuple(alpha.cells[c] for c in cells) for alpha in brute} == implementable


@pytest.mark.parametrize("m", [2, 3])
def test_find_exhausting_profile_matches_naive_sweep(m):
    _check_every_cell_choice(2, m)


@pytest.mark.parametrize("n,m", [(1, 2), (3, 2), (3, 3), (4, 2)])
def test_find_exhausting_profile_matches_naive_sweep_other_shapes(n, m):
    _check_every_cell_choice(n, m)
