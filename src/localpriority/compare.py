"""Welfare comparisons across compromiser assignments and constraints."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import CompromiserAssignment
from .engine import EXHAUSTED, outcome_codes
from .consistency import Reading, is_consistent, is_forward_consistent


@dataclass(frozen=True)
class DominanceReport:
    """Result of a welfare sweep; hypothesis failures are reported alongside
    the raw comparison, which runs regardless."""

    mode: str
    holds: bool
    witness: dict | None = None
    hypothesis_failures: tuple[str, ...] = ()


def _welfare_sweep(
    alpha: CompromiserAssignment,
    alpha_prime: CompromiserAssignment,
    agents: Sequence[int],
    preferred: int,
) -> tuple[list[str], dict | None]:
    """A diff of the two assignments' outcome codes. Returns the labels of the
    assignments that ever exhaust, and the first profile, with the first of
    `agents`, where the outcome of the `preferred` assignment (0 for alpha, 1
    for alpha_prime) is strictly worse for that agent than the other one's.
    Profiles where either assignment exhausts are skipped."""
    inst = alpha.instance
    codes = (outcome_codes(alpha), outcome_codes(alpha_prime))
    labels = ("alpha", "alpha_prime")
    failures = [f"{label}_not_implementable" for label, c in zip(labels, codes) if EXHAUSTED in c]
    dec, weak = inst.decode_table, inst.weakly_better
    rows = zip(inst.rank_tuples(), codes[preferred], codes[1 - preferred])
    for pidx, (pranks, kept, other) in enumerate(rows):
        if kept == other or EXHAUSTED in (kept, other):
            continue
        for i in agents:
            kept_i, other_i = dec[kept][i], dec[other][i]
            if other_i != kept_i and weak[pranks[i]][kept_i] >> other_i & 1:
                return failures, {
                    "profile": inst.profile_at(pidx),
                    "agent": i,
                    "outcome_alpha": dec[codes[0][pidx]],
                    "outcome_alpha_prime": dec[codes[1][pidx]],
                }
    return failures, None


def check_pointwise_dominance(
    alpha: CompromiserAssignment, alpha_prime: CompromiserAssignment
) -> DominanceReport:
    """When alpha is pointwise contained in a forward-consistent alpha_prime,
    every agent weakly prefers the outcome under alpha at every profile. The
    two assignments may live on different constraints over the same instance.
    """
    if alpha.instance != alpha_prime.instance:
        raise ValueError("comparisons need a common instance")
    failures, witness = _welfare_sweep(alpha, alpha_prime, range(alpha.instance.n), 0)
    if not alpha.is_subset_of(alpha_prime):
        failures.append("not_pointwise_subset")
    if not is_forward_consistent(alpha_prime).holds:
        failures.append("alpha_prime_not_forward_consistent")
    return DominanceReport("pointwise", witness is None, witness, tuple(failures))


def check_agent_dominance(
    alpha: CompromiserAssignment,
    alpha_prime: CompromiserAssignment,
    agent: int,
    reading: Reading = "strict",
) -> DominanceReport:
    """Holding the constraint fixed, if others compromise weakly more under
    alpha_prime while the agent compromises weakly less, and both assignments
    are consistent, the agent weakly prefers the outcome under alpha_prime."""
    inst = alpha.instance
    if inst != alpha_prime.instance:
        raise ValueError("comparisons need a common instance")
    if not 0 <= agent < inst.n:
        raise ValueError(f"agent index {agent} out of range")

    failures = []
    if alpha.constraint.feasible != alpha_prime.constraint.feasible:
        failures.append("different_constraints")
    not_implementable, witness = _welfare_sweep(alpha, alpha_prime, (agent,), 1)
    failures.extend(not_implementable)
    if not is_consistent(alpha, reading).holds:
        failures.append("alpha_not_consistent")
    if not is_consistent(alpha_prime, reading).holds:
        failures.append("alpha_prime_not_consistent")
    codes = range(inst.num_allocations)
    if any(not alpha.cell(c) - {agent} <= alpha_prime.cell(c) for c in codes):
        failures.append("others_not_weakly_more_in_alpha_prime")
    if any(agent in alpha_prime.cell(c) and agent not in alpha.cell(c) for c in codes):
        failures.append("agent_not_weakly_less_in_alpha_prime")

    return DominanceReport(f"agent:{agent}", witness is None, witness, tuple(failures))
