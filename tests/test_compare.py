import pytest

from localpriority.core import Constraint, Instance, house_constraint, make_alpha
from localpriority.engine import is_implementable
from localpriority.fileio import load_alpha
from localpriority.mechanisms import SchoolSpec, da_alpha, sd_alpha
from localpriority.compare import (
    DominanceReport,
    check_agent_dominance,
    check_pointwise_dominance,
)

from conftest import A, B, C, load_fixture


def test_nested_pair_fails_dominance_and_flags_hypothesis(nested_pair):
    alpha, alpha_prime = nested_pair
    report = check_pointwise_dominance(alpha, alpha_prime)
    assert "alpha_prime_not_forward_consistent" in report.hypothesis_failures
    assert not report.holds
    witness = report.witness
    profile = ((A, B, C),) * 3
    assert witness["profile"] == profile
    assert witness["outcome_alpha"] == (C, B, B)
    assert witness["outcome_alpha_prime"] == (B, B, A)


def test_da_capacity_increase_pointwise_dominates(inst3, da_spec):
    bigger = SchoolSpec(inst3, (2, 1, 1), da_spec.priorities)
    alpha_small_caps = da_alpha(da_spec)
    alpha_big_caps = da_alpha(bigger)
    assert alpha_big_caps.is_subset_of(alpha_small_caps)
    report = check_pointwise_dominance(alpha_big_caps, alpha_small_caps)
    assert report.holds
    assert not report.hypothesis_failures


def test_pointwise_dominance_reflexive(da_spec):
    alpha = da_alpha(da_spec)
    report = check_pointwise_dominance(alpha, alpha)
    assert report.holds and not report.hypothesis_failures


def test_swap_pair_nonmonotonicity(nonmonotone_pair):
    alpha1, alpha2 = nonmonotone_pair
    # agent 1 compromises weakly less under alpha2, yet prefers alpha1's
    # outcome; the consistency hypothesis fails for alpha2
    report = check_agent_dominance(alpha1, alpha2, 0)
    assert "alpha_prime_not_consistent" in report.hypothesis_failures
    assert not report.holds
    witness = report.witness
    profile = ((A, B, C), (A, B, C))
    assert witness["profile"] == profile
    assert witness["outcome_alpha"][0] == B
    assert witness["outcome_alpha_prime"][0] == C


def test_agent_dominance_reflexive(da_spec):
    alpha = da_alpha(da_spec)
    report = check_agent_dominance(alpha, alpha, 0)
    assert report.holds


def test_agent_dominance_on_consistent_pair(inst3, house3):
    # two serial-dictatorship assignments: under alpha agent 3 dictates last,
    # under alpha_prime agent 3 dictates first; both consistent. Agent 3 is
    # never worse off, though agent 2 sits in more cells of alpha than of
    # alpha_prime, so the others-compromise-more hypothesis fails.
    alpha = sd_alpha(house3, (0, 1, 2))
    alpha_prime = sd_alpha(house3, (2, 0, 1))
    assert check_agent_dominance(alpha, alpha_prime, 2) == DominanceReport(
        "agent:2", True, None, ("others_not_weakly_more_in_alpha_prime",)
    )


def test_non_implementable_assignment_against_itself():
    # Both runs exhaust on the same profiles, and agree wherever neither does.
    alpha = load_alpha(load_fixture("exhaust_alpha.json"))
    labels = ("alpha_not_implementable", "alpha_prime_not_implementable")
    assert check_pointwise_dominance(alpha, alpha) == DominanceReport(
        "pointwise", True, None, labels
    )
    assert check_agent_dominance(alpha, alpha, 0) == DominanceReport("agent:0", True, None, labels)


def test_witness_past_the_first_profile_where_one_side_exhausts():
    # Feasible: both agents get a, or both get b. alpha_prime exhausts on
    # ((a,b),(b,a)), profile 1, where alpha gives agent 2 their second
    # choice; that profile is skipped, and the witness is profile 2.
    inst = Instance(("1", "2"), ("a", "b"))
    constraint = Constraint(inst, frozenset({inst.encode((A, A)), inst.encode((B, B))}))
    ab, ba = inst.encode((A, B)), inst.encode((B, A))
    alpha = make_alpha(constraint, {ba: {0}, ab: {1}})
    alpha_prime = make_alpha(constraint, {ba: {1}, ab: {0, 1}})
    assert is_implementable(alpha) and not is_implementable(alpha_prime)
    assert check_pointwise_dominance(alpha, alpha_prime) == DominanceReport(
        "pointwise",
        False,
        {
            "profile": ((B, A), (A, B)),
            "agent": 0,
            "outcome_alpha": (A, A),
            "outcome_alpha_prime": (B, B),
        },
        ("alpha_prime_not_implementable", "not_pointwise_subset",
         "alpha_prime_not_forward_consistent"),
    )
    # The other way round, the exhausting side is the one held to be better.
    assert check_pointwise_dominance(alpha_prime, alpha) == DominanceReport(
        "pointwise",
        False,
        {
            "profile": ((B, A), (A, B)),
            "agent": 1,
            "outcome_alpha": (B, B),
            "outcome_alpha_prime": (A, A),
        },
        ("alpha_not_implementable", "not_pointwise_subset"),
    )


def test_house4_comparisons_sweep_every_profile():
    # 331,776 profiles per assignment, well within reach of the table diff.
    inst = Instance(("1", "2", "3", "4"), ("a", "b", "c", "d"))
    house = house_constraint(inst)
    alpha = sd_alpha(house, (0, 1, 2, 3))
    assert check_pointwise_dominance(alpha, alpha) == DominanceReport("pointwise", True)
    reversed_sd = sd_alpha(house, (3, 2, 1, 0))
    assert check_agent_dominance(alpha, reversed_sd, 3) == DominanceReport(
        "agent:3", True, None, ("others_not_weakly_more_in_alpha_prime",)
    )
    everyone_abcd = ((0, 1, 2, 3),) * 4
    assert check_pointwise_dominance(alpha, reversed_sd) == DominanceReport(
        "pointwise",
        False,
        {
            "profile": everyone_abcd,
            "agent": 2,
            "outcome_alpha": (0, 1, 2, 3),
            "outcome_alpha_prime": (3, 2, 1, 0),
        },
        ("not_pointwise_subset",),
    )


def test_compare_requires_common_instance(nonmonotone_pair, da_spec):
    alpha1, _ = nonmonotone_pair
    with pytest.raises(ValueError):
        check_pointwise_dominance(alpha1, da_alpha(da_spec))
    with pytest.raises(ValueError):
        check_agent_dominance(alpha1, da_alpha(da_spec), 0)


def test_pointwise_dominance_on_random_hypothesis_pairs(inst3):
    # capacity relaxations of a common priority structure give nested
    # assignments with the bigger-capacity one forward consistent
    import random

    rng = random.Random(77)
    checked = 0
    while checked < 20:
        small = tuple(rng.randint(1, 2) for _ in range(3))
        if sum(small) < 3:
            continue
        big = tuple(min(3, q + rng.randint(0, 2)) for q in small)
        priorities = tuple(tuple(rng.sample(range(3), 3)) for _ in range(3))
        alpha_big = da_alpha(SchoolSpec(inst3, big, priorities))
        alpha_small = da_alpha(SchoolSpec(inst3, small, priorities))
        assert alpha_big.is_subset_of(alpha_small)
        report = check_pointwise_dominance(alpha_big, alpha_small)
        assert not report.hypothesis_failures
        assert report.holds
        checked += 1
