"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Exhaustive sweeps use n <= 3
(216 profiles) with n = 4 spot checks; all comparisons are exact.
"""

import itertools
import operator
import random
import time
from contextlib import contextmanager

import pytest

from localpriority.core import (
    Constraint,
    Instance,
    house_constraint,
    make_alpha,
    school_constraint,
    tau,
)
from localpriority.engine import (
    MechanismTable,
    is_implementable,
    mechanisms_equal,
    run_lp,
    tabulate,
    tabulate_function,
)
from localpriority.mechanisms import (
    Endowment,
    SchoolSpec,
    cumulative_da,
    da_alpha,
    immediate_acceptance,
    marriage_da,
    sd_alpha,
    serial_dictatorship,
    ttc,
    ttc_alpha,
)
from localpriority.axioms import (
    FunctionMechanism,
    check_compromiser_invariance,
    derive_alpha,
    is_group_strategy_proof,
    is_local_priority,
    is_maskin_monotonic,
    is_nonbossy,
    is_pareto_efficient,
    is_strategy_proof,
    probe_local_priority,
)
from localpriority.compare import check_agent_dominance, check_pointwise_dominance
from localpriority.consistency import (
    find_gsp_backward_violation,
    find_pe_not_gsp,
    is_backward_consistent,
    is_forward_consistent,
    verify_subset_equivalence,
    verify_union_closure,
)
from localpriority.enumeration import (
    EnumerationOptions,
    brute_force_consistent,
    enumerate_consistent,
)
from localpriority.render import render

from conftest import GOLDENS, A, B, C


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def random_school_spec(inst, rng):
    while True:
        caps = tuple(rng.randint(0, 3) for _ in range(inst.m))
        if sum(caps) >= inst.n:
            break
    priorities = tuple(
        tuple(rng.sample(range(inst.n), inst.n)) for _ in range(inst.m)
    )
    return SchoolSpec(inst, caps, priorities)


@pytest.fixture(scope="module")
def enumerated(inst3, house3, perturbed3):
    options = EnumerationOptions(
        reading="strict",
        require_forward=True,
        require_backward=True,
        dedupe_by_mechanism=True,
    )
    started = time.monotonic()
    house_result = enumerate_consistent(house3, options)
    perturbed_result = enumerate_consistent(perturbed3, options)
    elapsed = time.monotonic() - started
    return house_result, perturbed_result, elapsed


@pytest.fixture(scope="module")
def sd_tables(inst3):
    rng = random.Random(30)
    codes = list(range(27))
    pairs = []
    for _ in range(50):
        feasible = frozenset(rng.sample(codes, rng.randint(1, 27)))
        constraint = Constraint(inst3, feasible, ("explicit",))
        for order in itertools.permutations(range(3)):
            lp_table = tabulate(sd_alpha(constraint, order))
            sd_table = tabulate_function(
                lambda p: serial_dictatorship(constraint, order, p), constraint
            )
            pairs.append((lp_table, sd_table))
    return pairs


@pytest.fixture(scope="module")
def da_tables(inst3, da_spec):
    rng = random.Random(31)
    specs = [da_spec] + [random_school_spec(inst3, rng) for _ in range(20)]
    return [
        (
            tabulate(da_alpha(spec)),
            tabulate_function(lambda p: cumulative_da(spec, p)[0], spec.constraint()),
        )
        for spec in specs
    ]


def test_criterion_01_da_as_lp(inst3, da_spec, da_profile, da_tables):
    with criterion(1, "DA-as-LP"):
        started = time.monotonic()
        out = run_lp(da_alpha(da_spec), da_profile)
        assert out.trace.allocations == (
            (A, A, B),
            (A, B, B),
            (A, B, A),
            (B, B, A),
            (B, C, A),
        )
        for lp_table, da_table in da_tables:
            assert mechanisms_equal(lp_table, da_table)
        assert time.monotonic() - started < 5.0


def test_criterion_02_ttc_as_lp(inst3, ttc_profile):
    with criterion(2, "TTC-as-LP"):
        started = time.monotonic()
        constraint = house_constraint(inst3)
        for owner in itertools.permutations(range(3)):
            endowment = Endowment(inst3, owner)
            lp_table = tabulate(ttc_alpha(endowment))
            ttc_table = tabulate_function(lambda p: ttc(endowment, p), constraint)
            assert mechanisms_equal(lp_table, ttc_table)
        fixture = Endowment(inst3, (B, C, A))
        out = run_lp(ttc_alpha(fixture), ttc_profile)
        assert out.trace.allocations == ((A, B, A), (C, B, A))
        assert out.assignment == (C, B, A)
        assert time.monotonic() - started < 5.0


def test_criterion_03_sd_as_lp(sd_tables):
    with criterion(3, "SD-as-LP"):
        started = time.monotonic()
        assert len(sd_tables) == 300
        for lp_table, sd_table in sd_tables:
            assert mechanisms_equal(lp_table, sd_table)
        assert time.monotonic() - started < 60.0


def test_criterion_04_non_examples(inst3, ia_spec, marriage_setup):
    with criterion(4, "non-examples"):
        ia_table = tabulate_function(
            lambda p: immediate_acceptance(ia_spec, p), ia_spec.constraint()
        )
        verdict = is_local_priority(ia_table)
        assert not verdict.is_lp
        assert verdict.failed == "compromiser_invariance"
        at_mu = check_compromiser_invariance(ia_table, mus=[(A, A, B)])
        assert not at_mu.holds
        assert at_mu.witness["mu"] == (A, A, B)

        inst, spec, profiles = marriage_setup
        M1, M2, M3, W1, W2, W3 = range(6)
        expected = [
            (W1, W2, W3, M1, M2, M3),
            (W1, W3, W2, M1, M3, M2),
            (W2, W3, W1, M3, M1, M2),
        ]
        for profile, want in zip(profiles, expected):
            assert marriage_da(spec, profile) == want
        mu = tau(profiles[0], 1)
        mech = FunctionMechanism(inst, lambda p: marriage_da(spec, p))
        probe = probe_local_priority(mech, [mu], {tuple(mu): profiles})
        assert not probe.is_lp
        assert probe.failed == "fixed_compromiser"


def test_criterion_05_theorem_harness(enumerated):
    with criterion(5, "theorem harness"):
        house_result, perturbed_result, elapsed = enumerated
        assert elapsed < 600.0
        for result in (house_result, perturbed_result):
            assert result.complete
            assert result.count > 0
            grouped = []
            for key, members in result.mechanism_groups.items():
                for k in members:
                    assert tabulate(result.assignments[k]).table == key
                grouped += members
                table = MechanismTable(result.constraint, key)
                assert is_group_strategy_proof(table).holds
                assert is_pareto_efficient(table).holds
            assert sorted(grouped) == list(range(result.count))
            sample = result.assignments[::10]
            for alpha in sample:
                assert is_forward_consistent(alpha).holds
                assert is_backward_consistent(alpha, "strict").holds
                assert is_implementable(alpha)
        # the deduped mechanism set covers the canonical families
        house_tables = set(house_result.mechanism_groups)
        inst = house_result.constraint.instance
        constraint = house_result.constraint
        for order in itertools.permutations(range(3)):
            table = tabulate_function(
                lambda p: serial_dictatorship(constraint, order, p), constraint
            )
            assert table.table in house_tables
        for owner in itertools.permutations(range(3)):
            endowment = Endowment(inst, owner)
            table = tabulate_function(lambda p: ttc(endowment, p), constraint)
            assert table.table in house_tables
        # the perturbed set contains the ownership mechanism that sends
        # everyone to the shared allocation when agents 2 and 3 both ask for a
        perturbed_tables = list(perturbed_result.mechanism_groups)
        inst_p = perturbed_result.constraint.instance
        all_a = inst_p.encode((A, A, A))
        prefs = inst_p.all_preferences()

        def two_three_top_a_forces_all_a(table):
            idx = 0
            for p1 in range(len(prefs)):
                for p2 in range(len(prefs)):
                    for p3 in range(len(prefs)):
                        if prefs[p2][0] == A and prefs[p3][0] == A:
                            idx = (p1 * 6 + p2) * 6 + p3
                            if table[idx] != all_a:
                                return False
            return True

        assert any(two_three_top_a_forces_all_a(t) for t in perturbed_tables)


def test_criterion_06_characterization(enumerated):
    with criterion(6, "characterization"):
        union_pairs = 0
        for result in enumerated[:2]:
            for table_key, members in result.mechanism_groups.items():
                table = MechanismTable(result.constraint, table_key)
                derived = derive_alpha(table)
                assert is_forward_consistent(derived).holds
                assert tabulate(derived).table == table.table
                for k in members:
                    assert result.assignments[k].is_subset_of(derived)
                if len(members) >= 2 and union_pairs < 12:
                    first, second = (result.assignments[k] for k in members[:2])
                    assert verify_union_closure(first, second).holds
                    union_pairs += 1
        assert union_pairs >= 10


@pytest.fixture(scope="module")
def touched_tables(inst3, da_tables, sd_tables, ia_spec, enumerated):
    tables = [pair[0] for pair in da_tables]
    constraint = house_constraint(inst3)
    for owner in itertools.permutations(range(3)):
        endowment = Endowment(inst3, owner)
        tables.append(tabulate(ttc_alpha(endowment)))
    tables.extend(pair[0] for pair in sd_tables)
    tables.append(
        tabulate_function(
            lambda p: immediate_acceptance(ia_spec, p), ia_spec.constraint()
        )
    )
    for result in enumerated[:2]:
        for key in result.mechanism_groups:
            tables.append(MechanismTable(result.constraint, key))
    # n=3, m=4: serial dictatorship on caps (1,1,1,3), and the same table
    # with agent 1 handed c instead of d at the last profile, where everyone
    # ranks d, c, b, a
    inst4 = Instance(("1", "2", "3"), ("a", "b", "c", "d"))
    sd = tabulate(sd_alpha(school_constraint(inst4, (1, 1, 1, 3)), (0, 1, 2)))
    entries = list(sd.table)
    entries[-1] = inst4.encode((2, 3, 3))
    tables += [sd, MechanismTable(sd.constraint, tuple(entries))]
    return tables


def test_criterion_07_oracle_equivalence(inst3, touched_tables):
    with criterion(7, "oracle equivalence"):
        inst2 = Instance(("1", "2"), ("a", "b", "c"))
        rng = random.Random(32)
        small = []
        codes = list(range(9))
        for _ in range(50):
            feasible = sorted(rng.sample(codes, rng.randint(1, 9)))
            constraint = Constraint(inst2, frozenset(feasible), ("explicit",))
            entries = tuple(
                rng.choice(feasible) for _ in range(inst2.num_profiles)
            )
            small.append(MechanismTable(constraint, entries))
        # SD on house n=4, m=4: 331,776 profiles, where Maskin monotonicity
        # is decided by elementary transformations
        inst4 = Instance(("1", "2", "3", "4"), ("a", "b", "c", "d"))
        sd4 = tabulate(sd_alpha(house_constraint(inst4), (0, 1, 2, 3)))
        for table in touched_tables + small + [sd4]:
            gsp = is_group_strategy_proof(table).holds
            sp_and_nonbossy = (
                is_strategy_proof(table).holds and is_nonbossy(table).holds
            )
            maskin = is_maskin_monotonic(table).holds
            assert gsp == sp_and_nonbossy == maskin
            exhaustive = is_group_strategy_proof(table, exhaustive=True).holds
            assert exhaustive == gsp


def test_criterion_08_subset_equivalence(inst3, da_spec, ttc_endowment):
    with criterion(8, "subset equivalence"):
        rng = random.Random(33)
        alphas = [da_alpha(da_spec), ttc_alpha(ttc_endowment)]
        while len(alphas) < 22:
            alpha = da_alpha(random_school_spec(inst3, rng))
            if is_forward_consistent(alpha).holds and is_implementable(alpha):
                alphas.append(alpha)
        for alpha in alphas:
            assert is_forward_consistent(alpha).holds
            base = tabulate(alpha)
            for code, cell in alpha.cells.items():
                if len(cell) < 2:
                    continue
                for agent in cell:
                    reduced_cells = dict(alpha.cells)
                    reduced_cells[code] = cell - {agent}
                    reduced = make_alpha(alpha.constraint, reduced_cells)
                    assert verify_subset_equivalence(alpha, reduced).holds
                    assert tabulate(reduced).table == base.table


def _packed_cells(alpha):
    """Every cell as an agent bitmask, n bits per allocation code, in one int."""
    n = alpha.instance.n
    return sum(1 << (code * n + i) for code, cell in alpha.cells.items() for i in cell)


def _agent_dominance_hypotheses(packed, packed_prime, agent_bits):
    """At every code, alpha's cell minus the agent lies within alpha_prime's,
    and the agent is not in alpha_prime's cell unless also in alpha's.
    `agent_bits` holds the agent's bit at every code."""
    return not (packed & ~packed_prime & ~agent_bits or packed_prime & ~packed & agent_bits)


def test_criterion_09_comparative_statics(inst3, da_spec, nested_pair, nonmonotone_pair, enumerated):
    with criterion(9, "comparative statics"):
        alpha, alpha_prime = nested_pair
        profile = ((A, B, C),) * 3
        assert run_lp(alpha_prime, profile).assignment == (B, B, A)
        assert run_lp(alpha, profile).assignment == (C, B, B)

        bigger = SchoolSpec(inst3, (2, 1, 1), da_spec.priorities)
        report = check_pointwise_dominance(da_alpha(bigger), da_alpha(da_spec))
        assert report.holds and not report.hypothesis_failures

        alpha1, alpha2 = nonmonotone_pair
        raw = check_agent_dominance(alpha1, alpha2, 0)
        assert raw.hypothesis_failures and not raw.holds
        two_agent_profile = ((A, B, C), (A, B, C))
        assert run_lp(alpha1, two_agent_profile).assignment[0] == B
        assert run_lp(alpha2, two_agent_profile).assignment[0] == C

        # every hypothesis-satisfying ordered pair from the enumerated
        # consistent sets satisfies designated-agent dominance
        for result in enumerated[:2]:
            inst = result.constraint.instance
            dec = [inst.decode(c) for c in range(inst.num_allocations)]
            prefs = inst.all_preferences()
            pos = [
                {obj: r for r, obj in enumerate(pref)} for pref in prefs
            ]
            digit_prefs = list(
                itertools.product(range(len(prefs)), repeat=inst.n)
            )
            # places[k][agent][idx]: the agent's place for their own outcome
            # under assignment k at profile idx
            places = []
            for a in result.assignments:
                table = tabulate(a).table
                places.append([
                    [pos[ranks[agent]][dec[code][agent]] for ranks, code in zip(digit_prefs, table)]
                    for agent in range(inst.n)
                ])
            packed = [_packed_cells(a) for a in result.assignments]
            agent_bits = [
                sum(1 << (code * inst.n + agent) for code in range(inst.num_allocations))
                for agent in range(inst.n)
            ]
            checked_full = 0
            for i_a, alpha_a in enumerate(result.assignments):
                for i_b, alpha_b in enumerate(result.assignments):
                    for agent in range(inst.n):
                        if not _agent_dominance_hypotheses(
                            packed[i_a], packed[i_b], agent_bits[agent]
                        ):
                            continue
                        assert all(map(operator.le, places[i_b][agent], places[i_a][agent]))
                        if i_a != i_b and checked_full < 5:
                            full = check_agent_dominance(alpha_a, alpha_b, agent)
                            assert full.holds and not full.hypothesis_failures
                            checked_full += 1


def test_criterion_10_witness_searches(inst3):
    with criterion(10, "witness searches"):
        scarce = school_constraint(inst3, (1, 2, 2))
        found = find_pe_not_gsp([scarce], budget=10_000)
        assert found is not None, "existence guaranteed; enlarge budget"
        assert is_pareto_efficient(found.table).holds
        assert not is_nonbossy(found.table).holds
        assert mechanisms_equal(tabulate(found.alpha), found.table)

        i4 = Instance(("1", "2", "3", "4"), ("a", "b", "c"))
        school4 = school_constraint(i4, (2, 1, 1))
        witness = find_gsp_backward_violation([school4], budget=30)
        if witness is None:
            print("ACCEPTANCE 10 note: backward-violation search exhausted budget")
        else:
            assert is_group_strategy_proof(witness.table).holds
            assert not is_backward_consistent(witness.alpha, "strict").holds
            assert mechanisms_equal(tabulate(witness.alpha), witness.table)


def test_criterion_11_mini_enumeration_completeness():
    with criterion(11, "mini-enumeration completeness"):
        for m in (2, 3):
            inst = Instance(("1", "2"), tuple("abc"[:m]))
            codes = list(range(inst.num_allocations))
            rng = random.Random(34)
            infeasible_sets = [
                {0},
                {0, 1},
                set(codes[::2]),
                set(rng.sample(codes, max(1, len(codes) // 2))),
            ]
            for infeasible in infeasible_sets:
                feasible = frozenset(codes) - infeasible
                if not feasible:
                    continue
                constraint = Constraint(inst, feasible, ("explicit",))
                options = EnumerationOptions()
                pruned = enumerate_consistent(constraint, options)
                brute = brute_force_consistent(constraint, options)
                assert pruned.complete
                key = lambda alphas: {
                    tuple(sorted((c, tuple(sorted(s))) for c, s in a.cells.items()))
                    for a in alphas
                }
                assert key(pruned.assignments) == key(brute)


def test_criterion_12_golden_renders(da_spec, ttc_endowment, nonunique_alphas):
    with criterion(12, "golden renders"):
        assert render(da_alpha(da_spec)) == (GOLDENS / "da_alpha.txt").read_text()
        assert render(ttc_alpha(ttc_endowment)) == (
            GOLDENS / "ttc_alpha.txt"
        ).read_text()
        assert render(nonunique_alphas[0]) == (
            GOLDENS / "nonunique_alpha_I.txt"
        ).read_text()
