import random

import pytest

from localpriority.core import (
    Constraint,
    Instance,
    ScaleLimitError,
    house_constraint,
    profiles_with_tops,
    school_constraint,
    tau,
)
from localpriority.engine import MechanismTable, tabulate, tabulate_function
from localpriority.mechanisms import (
    da_alpha,
    immediate_acceptance,
    marriage_da,
    sd_alpha,
    ttc_alpha,
)
from localpriority.axioms import (
    FunctionMechanism,
    bottom_rank,
    check_compromiser_invariance,
    check_fixed_compromiser,
    check_unanimity,
    derive_alpha,
    fixed_compromisers,
    is_group_strategy_proof,
    is_local_priority,
    is_maskin_monotonic,
    is_nonbossy,
    is_pareto_efficient,
    is_strategy_proof,
    probe_local_priority,
)
from localpriority.fileio import load_alpha

from conftest import A, B, C, load_fixture


@pytest.fixture(scope="module")
def da_table(da_spec):
    return tabulate(da_alpha(da_spec))


@pytest.fixture(scope="module")
def ttc_table(ttc_endowment):
    return tabulate(ttc_alpha(ttc_endowment))


@pytest.fixture(scope="module")
def ia_table(ia_spec):
    return tabulate_function(
        lambda p: immediate_acceptance(ia_spec, p), ia_spec.constraint()
    )


def test_ttc_is_gsp(ttc_table):
    assert is_group_strategy_proof(ttc_table).holds
    assert is_group_strategy_proof(ttc_table, exhaustive=True).holds


def test_da_fails_gsp_with_pair_witness(da_table):
    verdict = is_group_strategy_proof(da_table)
    assert not verdict.holds
    witness = verdict.witness
    assert len(witness["coalition"]) == 2
    # re-check the witness against the table
    profile = witness["profile"]
    deviated = list(profile)
    for agent, report in zip(witness["coalition"], witness["misreports"]):
        deviated[agent] = report
    x = da_table.lookup(profile)
    y = da_table.lookup(tuple(deviated))
    gains = [profile[i].index(x[i]) - profile[i].index(y[i]) for i in witness["coalition"]]
    assert all(g >= 0 for g in gains) and any(g > 0 for g in gains)


def test_da_is_sp_but_bossy(da_table):
    assert is_strategy_proof(da_table).holds
    assert not is_nonbossy(da_table).holds
    assert not is_maskin_monotonic(da_table).holds


def test_bossiness_fixture_from_witness_search(inst3):
    # the first Pareto-efficient assignment on school caps (1,2,2) whose table
    # has the bossiness pattern: truthful all-abc gives (b,b,a); agent 2
    # bottoming a keeps b for 2 but hands 1 the object a. The witness search,
    # restricted to tables with those two outcomes, found it.
    alpha = load_alpha(load_fixture("pe_bossy_alpha.json"))
    assert alpha.instance == inst3
    assert alpha.constraint.feasible == school_constraint(inst3, (1, 2, 2)).feasible
    abc = (A, B, C)
    table = tabulate(alpha)
    assert table.lookup((abc, abc, abc)) == (B, B, A)
    assert table.lookup((abc, (B, C, A), abc)) == (A, B, B)
    assert is_pareto_efficient(table).holds
    verdict = is_nonbossy(table)
    assert not verdict.holds
    witness = verdict.witness
    assert witness["profile"] == (abc, abc, abc)
    assert witness["agent"] == 1
    assert witness["truthful_outcome"] == (B, B, A)
    assert witness["deviation_outcome"][1] == B
    assert witness["deviation_outcome"][0] == A


def test_oracle_agreement_on_fixture_tables(da_table, ttc_table, ia_table):
    for table in (da_table, ttc_table, ia_table):
        gsp = is_group_strategy_proof(table).holds
        sp_nb = is_strategy_proof(table).holds and is_nonbossy(table).holds
        maskin = is_maskin_monotonic(table).holds
        assert gsp == sp_nb == maskin


def test_pair_sufficiency_on_fixture_tables(da_table, ttc_table, ia_table):
    for table in (da_table, ttc_table, ia_table):
        pair = is_group_strategy_proof(table).holds
        full = is_group_strategy_proof(table, exhaustive=True).holds
        assert pair == full


def test_ttc_pareto_efficient(ttc_table):
    assert is_pareto_efficient(ttc_table).holds


def test_constant_mechanism_not_pareto(inst3, house3):
    target = inst3.decode(sorted(house3.feasible)[0])
    table = tabulate_function(lambda p: target, house3)
    verdict = is_pareto_efficient(table)
    assert not verdict.holds
    witness = verdict.witness
    improvement = witness["improvement"]
    profile = witness["profile"]
    assert all(
        profile[i].index(improvement[i]) <= profile[i].index(witness["outcome"][i])
        for i in range(3)
    )


def test_unanimity_of_da(da_table):
    assert check_unanimity(da_table).holds


def test_fixed_compromisers_da(inst3, da_table):
    assert da_table.fixed_compromiser_sets[inst3.encode((A, A, B))] == {1}
    # independent recomputation straight from the algorithm
    remaining = set(range(3))
    for profile in profiles_with_tops(inst3, (A, A, B)):
        out = da_table.lookup(profile)
        remaining &= {i for i in range(3) if out[i] != (A, A, B)[i]}
    assert remaining == {1}


def test_fixed_compromiser_condition_holds_for_da(da_table):
    assert check_fixed_compromiser(da_table).holds


def test_marriage_fixed_set_empties(marriage_setup):
    inst, spec, profiles = marriage_setup
    mu = tau(profiles[0], 1)
    mech = FunctionMechanism(inst, lambda p: marriage_da(spec, p))
    assert fixed_compromisers(mech, mu, profiles=profiles) == frozenset()


def test_probe_local_priority_refutes_marriage(marriage_setup):
    inst, spec, profiles = marriage_setup
    mu = tau(profiles[0], 1)
    mech = FunctionMechanism(inst, lambda p: marriage_da(spec, p))
    verdict = probe_local_priority(mech, [mu], {tuple(mu): profiles})
    assert not verdict.is_lp
    assert verdict.failed == "fixed_compromiser"
    assert not verdict.exhaustive


def test_ia_invariance_fails_at_contested_school(inst3, ia_table):
    mu = (A, A, B)
    assert ia_table.fixed_compromiser_sets[inst3.encode(mu)] == {0}
    verdict = check_compromiser_invariance(ia_table, mus=[mu])
    assert not verdict.holds
    witness = verdict.witness
    assert witness["mu"] == mu
    assert 0 in witness["fixed_compromisers"]
    # the transformed profile bottom-ranks the fixed compromisers' tops
    for agent in witness["fixed_compromisers"]:
        assert witness["transformed_profile"][agent] == bottom_rank(
            witness["profile"][agent], mu[agent]
        )
    assert witness["outcome"] != witness["transformed_outcome"]


def test_is_local_priority_da(da_table, da_spec):
    verdict = is_local_priority(da_table)
    assert verdict.is_lp
    assert da_alpha(da_spec).is_subset_of(verdict.alpha)
    assert tabulate(verdict.alpha).table == da_table.table


def test_is_local_priority_ia(ia_table):
    verdict = is_local_priority(ia_table)
    assert not verdict.is_lp
    assert verdict.failed == "compromiser_invariance"


def test_derive_alpha_contains_ttc_alpha(ttc_table, ttc_endowment):
    derived = derive_alpha(ttc_table)
    assert ttc_alpha(ttc_endowment).is_subset_of(derived)
    assert tabulate(derived).table == ttc_table.table


def test_unanimity_violation_detected(inst3, house3):
    # ignores unanimous agreement on one particular feasible allocation
    first, second = (inst3.decode(c) for c in sorted(house3.feasible)[:2])

    def spiteful(profile):
        tops = tau(profile, 1)
        if tops == first:
            return second
        if inst3.encode(tops) in house3.feasible:
            return tops
        return first

    table = tabulate_function(spiteful, house3)
    verdict = check_unanimity(table)
    assert not verdict.holds
    tops = tuple(verdict.witness["tops"])
    assert inst3.encode(tops) in table.image()
    assert tuple(verdict.witness["outcome"]) != tops


def test_maskin_witness_recheck(da_table):
    verdict = is_maskin_monotonic(da_table)
    witness = verdict.witness
    x = witness["outcome"]
    p, q = witness["profile"], witness["transformed_profile"]
    from localpriority.core import contours

    for i in range(3):
        lo_p, _ = contours(p[i], x[i])
        lo_q, _ = contours(q[i], x[i])
        assert lo_p <= lo_q
    assert tuple(witness["transformed_outcome"]) != tuple(x)


def _full_n3_m4():
    inst = Instance(("1", "2", "3"), ("a", "b", "c", "d"))
    return Constraint(inst, frozenset(range(inst.num_allocations)), ("explicit",))


class _CountedEntries(tuple):
    """Table entries that record every lookup of one entry by index. Slices,
    which the slice-major oracles read, pass unrecorded."""

    def __new__(cls, entries):
        out = super().__new__(cls, entries)
        out.reads = []
        return out

    def __getitem__(self, idx):
        if not isinstance(idx, slice):
            self.reads.append(idx)
        return super().__getitem__(idx)


def test_maskin_refuses_over_budget_pairs_before_visiting_any():
    # everyone holds a at every profile: per agent, a sits at each of the 4
    # places in 6 rankings, with 24 / (4 - place) rankings keeping its lower
    # contour set, so 6 * (6 + 8 + 12 + 24) = 300 and 300**3 = 27,000,000
    # pairs qualify. Elementary transformations decide that the table holds;
    # with one entry changed it fails, and naming the first witness would
    # visit more pairs than the budget allows, so it is refused unread.
    full = _full_n3_m4()
    entries = [full.instance.encode((0, 0, 0))] * full.instance.num_profiles
    assert is_maskin_monotonic(MechanismTable(full, _CountedEntries(entries))).holds
    entries[5] = full.instance.encode((1, 0, 0))
    changed = _CountedEntries(entries)
    with pytest.raises(ScaleLimitError):
        is_maskin_monotonic(MechanismTable(full, changed))
    assert changed.reads == []


def test_maskin_checks_n3_m4_under_the_pair_budget():
    # everyone holds their top choice: 6**3 qualifying pairs at each of the
    # 13,824 profiles, 2,985,984 in all
    table = tabulate(sd_alpha(_full_n3_m4(), (0, 1, 2)))
    assert is_maskin_monotonic(table).holds


def test_maskin_decides_sd_on_house_n4_m4():
    # 331,776 profiles, far more qualifying pairs than the budget: the
    # elementary transformations find that SD holds, and that a table with
    # one entry changed fails, whose first witness is then refused.
    inst = Instance(("1", "2", "3", "4"), ("a", "b", "c", "d"))
    house = house_constraint(inst)
    table = tabulate(sd_alpha(house, (0, 1, 2, 3)))
    assert is_maskin_monotonic(table).holds
    entries = list(table.table)
    entries[1000] = next(code for code in sorted(house.feasible) if code != entries[1000])
    with pytest.raises(ScaleLimitError):
        is_maskin_monotonic(MechanismTable(house, tuple(entries)))


def test_tabulated_alphas_pass_characterizing_conditions(da_spec, ttc_endowment, inst3):
    # any implementable assignment induces a table passing both the
    # fixed-compromiser and invariance conditions, with the assignment
    # contained in the canonical one
    rng = random.Random(55)
    alphas = [da_alpha(da_spec), ttc_alpha(ttc_endowment)]
    from localpriority.engine import is_implementable
    from localpriority.mechanisms import SchoolSpec

    while len(alphas) < 5:
        caps = tuple(rng.randint(0, 3) for _ in range(3))
        if sum(caps) < 3:
            continue
        priorities = tuple(tuple(rng.sample(range(3), 3)) for _ in range(3))
        alpha = da_alpha(SchoolSpec(inst3, caps, priorities))
        if is_implementable(alpha):
            alphas.append(alpha)
    for alpha in alphas:
        table = tabulate(alpha)
        assert check_fixed_compromiser(table).holds
        assert check_compromiser_invariance(table).holds
        fixed = table.fixed_compromiser_sets
        for code, cell in alpha.cells.items():
            assert cell <= fixed[code]


def test_maskin_implies_invariance_and_da_witnesses_strictness(da_table, ttc_table, ia_table):
    # Maskin monotonicity implies compromiser invariance; the containment is
    # strict because deferred acceptance passes invariance but fails Maskin
    for table in (da_table, ttc_table, ia_table):
        if is_maskin_monotonic(table).holds:
            assert check_compromiser_invariance(table).holds
    assert not is_maskin_monotonic(da_table).holds
    assert check_compromiser_invariance(da_table).holds
