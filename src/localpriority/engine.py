"""The local priority algorithm: traces, outcomes, implementability sweeps,
and extensional mechanism tables."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .core import (
    Assignment,
    CompromiserAssignment,
    Constraint,
    Instance,
    MalformedAssignmentError,
    Profile,
    profile_index,
)


@dataclass(frozen=True)
class Trace:
    """Allocations considered by one run, each paired with the compromiser set
    applied to leave it (empty on the terminal allocation)."""

    profile: Profile
    steps: tuple[tuple[Assignment, frozenset[int]], ...]

    @property
    def allocations(self) -> tuple[Assignment, ...]:
        return tuple(a for a, _ in self.steps)


@dataclass(frozen=True)
class Final:
    """The algorithm reached a feasible allocation."""

    assignment: Assignment
    trace: Trace


@dataclass(frozen=True)
class Exhausted:
    """A compromiser had an empty lower contour set at the recorded step."""

    agent: int
    step: int
    trace: Trace


Outcome = Final | Exhausted


class NotImplementableError(ValueError):
    """Raised when a sweep that requires implementability hits exhaustion."""

    def __init__(self, profile: Profile, agent: int, step: int):
        super().__init__(f"agent {agent} exhausted at step {step}")
        self.profile = profile
        self.agent = agent
        self.step = step


def run_lp(alpha: CompromiserAssignment, profile: Profile) -> Outcome:
    """Run the local priority algorithm for one profile.

    Starts from the top-choice vector; at each infeasible allocation every
    agent in the cell simultaneously moves to the best object strictly below
    their current one. Each agent's current object is always at their
    compromise count in their own ranking, so a step is O(cell size).
    """
    inst = alpha.instance
    n, m = inst.n, inst.m
    feasible = alpha.constraint.feasible
    cells = alpha.cells
    powers = inst.powers

    pos = [0] * n
    x = [pref[0] for pref in profile]
    code = 0
    for i in range(n):
        code += x[i] * powers[i]

    steps: list[tuple[Assignment, frozenset[int]]] = []
    step_cap = n * (m - 1) + 1
    while True:
        if code in feasible:
            steps.append((tuple(x), frozenset()))
            return Final(tuple(x), Trace(profile, tuple(steps)))
        cell = cells.get(code)
        if not cell:
            raise MalformedAssignmentError(
                f"missing or empty cell at infeasible {inst.assignment_names(x)}"
            )
        tired = [i for i in cell if pos[i] == m - 1]
        if tired:
            steps.append((tuple(x), frozenset()))
            return Exhausted(min(tired), len(steps), Trace(profile, tuple(steps)))
        steps.append((tuple(x), cell))
        for i in cell:
            pos[i] += 1
            new = profile[i][pos[i]]
            code += (new - x[i]) * powers[i]
            x[i] = new
        if len(steps) > step_cap:
            raise AssertionError("rank descent bound violated")


def find_exhausting_profile(alpha: CompromiserAssignment) -> Profile | None:
    """Lexicographically first profile on which the algorithm exhausts, if any."""
    try:
        tabulate(alpha)
    except NotImplementableError as exc:
        return exc.profile
    return None


def is_implementable(alpha: CompromiserAssignment) -> bool:
    return find_exhausting_profile(alpha) is None


@dataclass(frozen=True)
class MechanismTable:
    """An extensionally represented feasible mechanism: one feasible allocation
    code per profile, profiles indexed canonically. Construction refuses an
    instance past the profile budget, so no oracle reading a table checks it."""

    constraint: Constraint
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        inst = self.constraint.instance
        inst.check_profile_budget()
        if len(self.table) != inst.num_profiles:
            raise ValueError("table must be total over all profiles")
        if not self.constraint.feasible.issuperset(self.table):
            raise ValueError("table entry outside the feasible set")

    @property
    def instance(self) -> Instance:
        return self.constraint.instance

    def image(self) -> frozenset[int]:
        return frozenset(self.table)

    def lookup(self, profile: Profile) -> Assignment:
        return self.instance.decode(self.table[profile_index(self.instance, profile)])

    # Derived once per table (cached_property writes to __dict__, which the
    # frozen dataclass allows); equality and hashing still use only the fields.

    @cached_property
    def fixed_compromiser_sets(self) -> tuple[frozenset[int], ...]:
        """Fixed-compromiser set at every allocation code, in one sweep: each
        profile top-ranks one mu and ANDs the agents who miss their top into it."""
        inst = self.instance
        n, powers, dec = inst.n, inst.powers, inst.decode_table
        tops = [pref[0] for pref in inst.all_preferences()]
        masks = [(1 << n) - 1] * inst.num_allocations
        for pranks, xc in zip(inst.rank_tuples(), self.table):
            x = dec[xc]
            tc = missed = 0
            for i, r in enumerate(pranks):
                tc += tops[r] * powers[i]
                missed |= (x[i] != tops[r]) << i
            masks[tc] &= missed
        return tuple(frozenset(i for i in range(n) if mask >> i & 1) for mask in masks)


EXHAUSTED = -1  # the outcome code of a profile whose run exhausts


def tabulate(alpha: CompromiserAssignment) -> MechanismTable:
    """Dense table of the local priority mechanism, by the one prefix walk
    (`_walk`). Exhaustion raises NotImplementableError carrying the
    lexicographically first exhausting profile, with the agent and step that
    `run_lp` reports on it."""
    return MechanismTable(alpha.constraint, _walk(alpha, False))


def outcome_codes(alpha: CompromiserAssignment) -> tuple[int, ...]:
    """Every profile's outcome code, in dense index order, by the same walk as
    `tabulate`, with EXHAUSTED where the run exhausts."""
    return _walk(alpha, True)


def _walk(alpha: CompromiserAssignment, partial: bool) -> tuple[int, ...]:
    """Outcome code per profile, by one walk over ranking prefixes.

    A run reads each agent's ranking only down to the object the agent stops
    at, so every profile that shares those ranking prefixes has the same run.
    The sweep walks prefixes depth first instead of running once per profile.
    The roots are the top-choice vectors, agent 0 most significant; at an
    infeasible allocation each agent in the cell branches over the objects not
    yet in their prefix. A node's profiles are the product of its agents'
    contiguous rank ranges (`Instance.prefix_children`), so a feasible leaf
    fills its whole block of the table, in the runs `Instance.block` gives.
    The lowest index in a failing leaf's block is the first profile whose run
    fails there; the sweep keeps the lowest one over all failing leaves and
    prunes every subtree whose block starts at or after it. With `partial`,
    an exhausting leaf is no failure: it fills its block with EXHAUSTED.
    """
    inst = alpha.instance
    inst.check_profile_budget()
    n, m = inst.n, inst.m
    feasible = alpha.constraint.feasible
    cells = alpha.cells
    powers, strides = inst.powers, inst.strides
    children, block = inst.prefix_children, inst.block
    full = (1 << m) - 1
    step_cap = n * (m - 1) + 1
    entries = [0] * inst.num_profiles
    # The node's allocation and, per agent, their prefix as an object mask;
    # the node's block starts at profile index bmin.
    x = [0] * n
    mask = [0] * n
    # (block-min, error type, error arguments) of the failing leaf with the
    # lowest block-min so far. The error is built only when raised, so no
    # local refers to it and its traceback.
    first: tuple[int, type[ValueError], tuple] | None = None

    def fill(code: int, bmin: int) -> None:
        bits = 0
        for i in range(n):
            bits |= mask[i] << i * m
        starts, span = block(bits)
        run = [code] * span
        for s in starts:
            entries[bmin + s : bmin + s + span] = run

    def visit(code: int, bmin: int, depth: int) -> None:
        nonlocal first
        if code in feasible:
            if first is None:
                fill(code, bmin)
            return
        cell = cells.get(code)
        if not cell:
            message = f"missing or empty cell at infeasible {inst.assignment_names(x)}"
            first = bmin, MalformedAssignmentError, (message,)
            return
        tired = [i for i in cell if mask[i] == full]
        if not tired:
            if depth >= step_cap:
                raise AssertionError("rank descent bound violated")
            move(sorted(cell), 0, code, bmin, depth + 1)
        elif not partial:
            first = bmin, NotImplementableError, (inst.profile_at(bmin), min(tired), depth + 1)
        elif first is None:
            fill(EXHAUSTED, bmin)

    def move(agents: Sequence[int], k: int, code: int, bmin: int, depth: int) -> None:
        if k == len(agents):
            visit(code, bmin, depth)
            return
        i = agents[k]
        x0, mask0, s, p = x[i], mask[i], strides[i], powers[i]
        for obj, offset, child in children[mask0]:
            # Every block below this child starts at or after child_min, and
            # the later children start later still.
            child_min = bmin + offset * s
            if first is not None and child_min >= first[0]:
                break
            x[i], mask[i] = obj, child
            move(agents, k + 1, code + (obj - x0) * p, child_min, depth)
        x[i], mask[i] = x0, mask0

    try:
        # The roots: every agent moves from the empty prefix to their top choice.
        move(range(n), 0, 0, 0, 0)
    finally:
        # visit and move refer to each other through their closures; unlinking
        # them lets reference counting free the sweep, not the cycle collector.
        visit = move = None
    if first is not None:
        raise first[1](*first[2])
    return tuple(entries)


def tabulate_function(
    fn: Callable[[Profile], Sequence[int]], constraint: Constraint
) -> MechanismTable:
    """Dense table of any feasible mechanism given as a function of the profile."""
    inst = constraint.instance
    inst.check_profile_budget()
    entries = tuple(inst.encode(fn(p)) for p in inst.all_profiles())
    return MechanismTable(constraint, entries)


def mechanism_difference(f: MechanismTable, g: MechanismTable) -> Profile | None:
    """First profile where two tables disagree, or None if equal."""
    if f.instance != g.instance:
        raise ValueError("tables must share an instance")
    for idx, (a, b) in enumerate(zip(f.table, g.table)):
        if a != b:
            return f.instance.profile_at(idx)
    return None


def mechanisms_equal(f: MechanismTable, g: MechanismTable) -> bool:
    return mechanism_difference(f, g) is None
