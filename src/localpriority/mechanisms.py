"""Reference mechanisms and their compromiser-assignment constructions, plus
the two non-examples (immediate acceptance, marriage deferred acceptance)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import (
    Assignment,
    CompromiserAssignment,
    Constraint,
    Instance,
    Profile,
    house_constraint,
    school_constraint,
)


@dataclass(frozen=True)
class SchoolSpec:
    """Capacities and strict priority orders, one per object (school)."""

    instance: Instance
    capacities: tuple[int, ...]
    priorities: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        inst = self.instance
        if len(self.capacities) != inst.m or len(self.priorities) != inst.m:
            raise ValueError("one capacity and one priority order per object")
        if sum(self.capacities) < inst.n:
            raise ValueError("capacities must sum to at least the number of agents")
        for order in self.priorities:
            if tuple(sorted(order)) != tuple(range(inst.n)):
                raise ValueError("each priority must be a permutation of the agents")

    def constraint(self) -> Constraint:
        return school_constraint(self.instance, self.capacities)

    def priority_pos(self) -> list[dict[int, int]]:
        return [{agent: r for r, agent in enumerate(order)} for order in self.priorities]


@dataclass(frozen=True)
class Endowment:
    """Initial ownership: one object per agent, bijectively."""

    instance: Instance
    owner: tuple[int, ...]

    def __post_init__(self) -> None:
        inst = self.instance
        if inst.m != inst.n:
            raise ValueError("endowments need as many objects as agents")
        if tuple(sorted(self.owner)) != tuple(range(inst.m)):
            raise ValueError("ownership must be a bijection")

    def owner_of(self, obj: int) -> int:
        return self.owner.index(obj)


@dataclass(frozen=True)
class MarriageSpec:
    """Two-sided market: agents partitioned into proposers (men) and reviewers
    (women); objects are the agents themselves and self means unmatched."""

    instance: Instance
    men: tuple[int, ...]
    women: tuple[int, ...]

    def __post_init__(self) -> None:
        inst = self.instance
        if inst.objects != inst.agents:
            raise ValueError("marriage market needs objects identical to agents")
        both = set(self.men) | set(self.women)
        if set(self.men) & set(self.women) or both != set(range(inst.n)):
            raise ValueError("men and women must partition the agents")


def _check_order(instance: Instance, order: Sequence[int]) -> tuple[int, ...]:
    if tuple(sorted(order)) != tuple(range(instance.n)):
        raise ValueError("dictator order must be a permutation of the agents")
    return tuple(order)


def _dictator_picks(
    pool: Sequence[Assignment], agents: Iterable[int], profile: Sequence[Sequence[int]]
) -> Sequence[Assignment]:
    """Each agent in turn keeps only the allocations in the pool that give
    them their favorite object left; returns the surviving pool."""
    for agent in agents:
        options = {a[agent] for a in pool}
        best = next(o for o in profile[agent] if o in options)
        pool = [a for a in pool if a[agent] == best]
    return pool


def serial_dictatorship(
    constraint: Constraint, order: Sequence[int], profile: Profile
) -> Assignment:
    """Each dictator in turn takes their favorite object compatible with the
    picks of earlier dictators."""
    order = _check_order(constraint.instance, order)
    return _dictator_picks(constraint.feasible_assignments, order, profile)[0]


def sd_alpha(constraint: Constraint, order: Sequence[int]) -> CompromiserAssignment:
    """Compromiser at an infeasible allocation: the first dictator whose entry
    is incompatible with the entries of all earlier dictators."""
    inst = constraint.instance
    order = _check_order(inst, order)
    cells = {}
    for code in constraint.infeasible_codes:
        x = inst.decode(code)
        pool = constraint.feasible_assignments
        culprit = None
        for agent in order:
            if not any(a[agent] == x[agent] for a in pool):
                culprit = agent
                break
            pool = [a for a in pool if a[agent] == x[agent]]
        if culprit is None:
            raise AssertionError("infeasible allocation with no incompatible prefix")
        cells[code] = frozenset({culprit})
    return CompromiserAssignment(constraint, cells)


def cumulative_da(
    spec: SchoolSpec, profile: Profile
) -> tuple[Assignment, tuple[Assignment, ...]]:
    """Cumulative deferred acceptance: all students reapply each round to their
    favorite school that has not yet rejected them. Returns the final
    allocation and the per-round application vectors."""
    inst = spec.instance
    pos = spec.priority_pos()
    rejected: list[set[int]] = [set() for _ in range(inst.n)]
    rounds: list[Assignment] = []
    for _ in range(inst.n * inst.m + 1):
        applied = tuple(
            next(s for s in profile[i] if s not in rejected[i]) for i in range(inst.n)
        )
        rounds.append(applied)
        any_rejection = False
        for s in set(applied):
            applicants = [i for i in range(inst.n) if applied[i] == s]
            for i in applicants:
                higher = sum(1 for j in applicants if pos[s][j] < pos[s][i])
                if higher >= spec.capacities[s]:
                    rejected[i].add(s)
                    any_rejection = True
        if not any_rejection:
            return applied, tuple(rounds)
    raise AssertionError("deferred acceptance failed to terminate")


def da_alpha(spec: SchoolSpec) -> CompromiserAssignment:
    """At any allocation, the compromisers are the agents with at least
    capacity-many higher-priority agents assigned to the same school."""
    inst = spec.instance
    pos = spec.priority_pos()
    constraint = spec.constraint()
    cells = {}
    for code in constraint.infeasible_codes:
        x = inst.decode(code)
        cell = set()
        for i in range(inst.n):
            s = x[i]
            higher = sum(1 for j in range(inst.n) if x[j] == s and pos[s][j] < pos[s][i])
            if higher >= spec.capacities[s]:
                cell.add(i)
        cells[code] = frozenset(cell)
    return CompromiserAssignment(constraint, cells)


def _cycle_nodes(ptr: Sequence[int]) -> set[int]:
    """Nodes lying on a cycle of a functional graph."""
    on_cycle: set[int] = set()
    state = [0] * len(ptr)  # 0 unvisited, 1 in progress, 2 done
    for start in range(len(ptr)):
        path = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = ptr[v]
        if state[v] == 1:
            on_cycle.update(path[path.index(v) :])
        for u in path:
            state[u] = 2
    return on_cycle


def ttc(endowment: Endowment, profile: Profile) -> Assignment:
    """Top trading cycles: remaining agents point at the owner of their
    favorite remaining object; cycles trade and leave."""
    inst = endowment.instance
    remaining = set(range(inst.n))
    result = [-1] * inst.n
    while remaining:
        remaining_objects = {endowment.owner[i] for i in remaining}
        ptr = {}
        for i in remaining:
            fav = next(o for o in profile[i] if o in remaining_objects)
            ptr[i] = endowment.owner_of(fav)
        agents = sorted(remaining)
        local = {a: k for k, a in enumerate(agents)}
        cyc = _cycle_nodes([local[ptr[a]] for a in agents])
        traders = {agents[k] for k in cyc}
        if not traders:
            raise AssertionError("pointer graph on remaining agents must contain a cycle")
        for i in traders:
            result[i] = endowment.owner[ptr[i]]
        remaining -= traders
    return tuple(result)


def ttc_alpha(endowment: Endowment) -> CompromiserAssignment:
    """Pointer-graph rule: at allocation x each agent points at the endowed
    owner of x_i; the compromisers are the off-cycle agents pointing at a
    cycle."""
    inst = endowment.instance
    constraint = house_constraint(inst)
    cells = {}
    for code in constraint.infeasible_codes:
        x = inst.decode(code)
        ptr = [endowment.owner_of(x[i]) for i in range(inst.n)]
        on_cycle = _cycle_nodes(ptr)
        cell = frozenset(
            i for i in range(inst.n) if i not in on_cycle and ptr[i] in on_cycle
        )
        cells[code] = cell
    return CompromiserAssignment(constraint, cells)


def immediate_acceptance(spec: SchoolSpec, profile: Profile) -> Assignment:
    """Boston mechanism: round-t applicants to their t-th choice are admitted
    permanently, by priority, up to remaining capacity."""
    inst = spec.instance
    pos = spec.priority_pos()
    seats = list(spec.capacities)
    result = [-1] * inst.n
    for t in range(inst.m):
        unassigned = [i for i in range(inst.n) if result[i] == -1]
        if not unassigned:
            break
        for s in range(inst.m):
            applicants = [i for i in unassigned if profile[i][t] == s]
            if not applicants or seats[s] == 0:
                continue
            applicants.sort(key=lambda i: pos[s][i])
            for i in applicants[: seats[s]]:
                result[i] = s
            seats[s] -= min(seats[s], len(applicants))
    if -1 in result:
        raise AssertionError("capacity assumption guarantees assignment")
    return tuple(result)


def marriage_da(spec: MarriageSpec, profile: Profile) -> Assignment:
    """Man-proposing deferred acceptance on full rankings over all agents.

    A man proposes, in order, to the women he ranks above himself; a woman
    holds the best proposer she ranks above herself. Everyone else ends
    self-matched.
    """
    inst = spec.instance
    rank = [{obj: r for r, obj in enumerate(pref)} for pref in profile]
    women = set(spec.women)
    proposals = {
        i: [o for o in profile[i] if o in women and rank[i][o] < rank[i][i]]
        for i in spec.men
    }
    held: dict[int, int] = {}
    free = sorted(spec.men)
    while free:
        man = free.pop(0)
        while proposals[man]:
            w = proposals[man].pop(0)
            current = held.get(w, w)
            if rank[w][man] < rank[w][current]:
                held[w] = man
                if current != w:
                    free.append(current)
                break
    result = list(range(inst.n))
    for w, man in held.items():
        result[w] = man
        result[man] = w
    return tuple(result)
