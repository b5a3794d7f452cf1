"""Welfare comparisons across compromiser assignments and constraints."""

from __future__ import annotations

from dataclasses import dataclass

from .core import CompromiserAssignment, DEFAULT_PROFILE_BUDGET
from .engine import Exhausted, is_implementable, run_lp
from .consistency import Reading, is_consistent, is_forward_consistent


@dataclass(frozen=True)
class DominanceReport:
    """Result of a welfare sweep; hypothesis failures are reported alongside
    the raw comparison, which runs regardless."""

    mode: str
    holds: bool
    witness: dict | None = None
    hypothesis_failures: tuple[str, ...] = ()


def check_pointwise_dominance(
    alpha: CompromiserAssignment,
    alpha_prime: CompromiserAssignment,
    budget: int = DEFAULT_PROFILE_BUDGET,
) -> DominanceReport:
    """When alpha is pointwise contained in a forward-consistent alpha_prime,
    every agent weakly prefers the outcome under alpha at every profile. The
    two assignments may live on different constraints over the same instance.
    """
    if alpha.instance != alpha_prime.instance:
        raise ValueError("comparisons need a common instance")
    alpha.instance.check_profile_budget(budget)
    failures = [
        f"{label}_not_implementable"
        for label, a in (("alpha", alpha), ("alpha_prime", alpha_prime))
        if not is_implementable(a, budget)
    ]
    if not alpha.is_subset_of(alpha_prime):
        failures.append("not_pointwise_subset")
    if not is_forward_consistent(alpha_prime).holds:
        failures.append("alpha_prime_not_forward_consistent")

    witness = None
    for profile in alpha.instance.all_profiles():
        small = run_lp(alpha, profile)
        big = run_lp(alpha_prime, profile)
        if isinstance(small, Exhausted) or isinstance(big, Exhausted):
            continue
        for i, pref in enumerate(profile):
            if pref.index(small.assignment[i]) > pref.index(big.assignment[i]):
                witness = {
                    "profile": profile,
                    "agent": i,
                    "outcome_alpha": small.assignment,
                    "outcome_alpha_prime": big.assignment,
                }
                break
        if witness:
            break
    return DominanceReport("pointwise", witness is None, witness, tuple(failures))


def check_agent_dominance(
    alpha: CompromiserAssignment,
    alpha_prime: CompromiserAssignment,
    agent: int,
    reading: Reading = "strict",
    budget: int = DEFAULT_PROFILE_BUDGET,
) -> DominanceReport:
    """Holding the constraint fixed, if others compromise weakly more under
    alpha_prime while the agent compromises weakly less, and both assignments
    are consistent, the agent weakly prefers the outcome under alpha_prime."""
    inst = alpha.instance
    if inst != alpha_prime.instance:
        raise ValueError("comparisons need a common instance")
    if not 0 <= agent < inst.n:
        raise ValueError(f"agent index {agent} out of range")
    inst.check_profile_budget(budget)

    failures = []
    if alpha.constraint.feasible != alpha_prime.constraint.feasible:
        failures.append("different_constraints")
    failures.extend(
        f"{label}_not_implementable"
        for label, a in (("alpha", alpha), ("alpha_prime", alpha_prime))
        if not is_implementable(a, budget)
    )
    if not is_consistent(alpha, reading).holds:
        failures.append("alpha_not_consistent")
    if not is_consistent(alpha_prime, reading).holds:
        failures.append("alpha_prime_not_consistent")
    for code in range(inst.num_allocations):
        cell, cell_p = alpha.cell(code), alpha_prime.cell(code)
        if not (cell - {agent}) <= cell_p:
            failures.append("others_not_weakly_more_in_alpha_prime")
            break
    for code in range(inst.num_allocations):
        if agent in alpha_prime.cell(code) and agent not in alpha.cell(code):
            failures.append("agent_not_weakly_less_in_alpha_prime")
            break

    witness = None
    for profile in inst.all_profiles():
        base = run_lp(alpha, profile)
        better = run_lp(alpha_prime, profile)
        if isinstance(base, Exhausted) or isinstance(better, Exhausted):
            continue
        pref = profile[agent]
        if pref.index(better.assignment[agent]) > pref.index(base.assignment[agent]):
            witness = {
                "profile": profile,
                "agent": agent,
                "outcome_alpha": base.assignment,
                "outcome_alpha_prime": better.assignment,
            }
            break
    return DominanceReport(f"agent:{agent}", witness is None, witness, tuple(failures))
