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
        """Fixed-compromiser set at every allocation code. Each profile
        top-ranks one mu (`Instance.top_codes`), and the agents who miss
        their top there are ANDed into mu's set, once per distinct pair of
        top code and outcome."""
        inst = self.instance
        dec = inst.decode_table
        masks = [(1 << inst.n) - 1] * inst.num_allocations
        for tc, xc in set(zip(inst.top_codes, self.table)):
            masks[tc] &= sum((top != obj) << i for i, (top, obj) in enumerate(zip(dec[tc], dec[xc])))
        return tuple(inst.agent_sets[mask] for mask in masks)


EXHAUSTED = -1  # the outcome code of a profile whose run exhausts


def tabulate(alpha: CompromiserAssignment) -> MechanismTable:
    """Dense table of the local priority mechanism, by the one prefix walk
    (`_walk`) with every cell assigned. Exhaustion raises
    NotImplementableError carrying the lexicographically first exhausting
    profile, with the agent and step that `run_lp` reports on it."""
    return MechanismTable(alpha.constraint, _sweep(alpha, False))


def outcome_codes(alpha: CompromiserAssignment) -> tuple[int, ...]:
    """Every profile's outcome code, in dense index order, by the same walk as
    `tabulate`, with EXHAUSTED where the run exhausts."""
    return _sweep(alpha, True)


def _sweep(alpha: CompromiserAssignment, partial: bool) -> tuple[int, ...]:
    """Outcome code per profile, by `_walk` from every root, lowest first.

    Every block below a state starts at or after the state's, and a failing
    state's block starts at the first profile whose run fails there. So the
    sweep keeps the failing state with the lowest block start, drops every
    stacked state at or past it, and walks on. With `partial`, an exhausting
    state is no failure: its block is filled with EXHAUSTED.
    """
    inst = alpha.instance
    inst.check_profile_budget()
    plan, constraint, cells = inst.prefix_walk, alpha.constraint, alpha.cells
    index = constraint.cell_index
    masks = [inst.mask_of.get(cells.get(code), 0) for code in constraint.infeasible_codes]
    code_mask, base_shift, base_mask = plan.code_mask, plan.base_shift, plan.base_mask
    table = [0] * inst.num_profiles
    stack = list(plan.roots)
    first, lowest = None, inst.num_profiles
    while stack:
        state = _walk(inst, index, masks, len(masks), stack, table, [], [])
        if state is None:
            break
        base = state >> base_shift & base_mask
        if partial and masks[index[state & code_mask]]:
            starts, span = inst.block(state >> plan.bits_shift & plan.bits_mask)
            for s in starts:
                table[base + s : base + s + span] = [EXHAUSTED] * span
            continue
        if base < lowest:
            first, lowest = state, base
        stack = [s for s in stack if s >> base_shift & base_mask < lowest]
    if first is None:
        return tuple(table)
    code = first & code_mask
    mask = masks[index[code]]
    if not mask:
        raise MalformedAssignmentError(f"missing or empty cell at infeasible {inst.code_names[code]}")
    tired = [i for i in inst.members[mask] if first >> plan.shifts[i] & plan.full == plan.full]
    raise NotImplementableError(inst.profile_at(lowest), tired[0], first // plan.step + 1)


def _walk(inst: Instance, index: Sequence[int], masks: Sequence[int], depth: int,
          stack: list[int], table: list[int], parked: list[list[int]], log: list[list[int]],
          rejects: Callable[[int], bool] | None = None) -> int | None:
    """The one prefix walk. It runs the packed states on `stack` (see
    `PrefixWalk`) and returns the first that fails, or None once the stack
    is empty.

    A run reads each agent's ranking only down to the object the agent stops
    at, so a state stands for the block of profiles that share its prefixes.
    `index` and `masks` give each infeasible allocation's cell and the cell's
    compromisers as a bitmask, and only cells 0 to `depth` are assigned. A
    state at a feasible allocation fills its block of `table` with the code.
    One at a later cell waits ("parks") in that cell's `parked` list, and the
    list itself goes on `log`. At an assigned cell, each compromiser moves to
    every object not yet in their prefix. A state fails where its cell is
    empty or a compromiser's prefix holds every object: then every profile in
    its block exhausts on cells 0 to `depth`, whatever the later cells hold.
    With `rejects`, a state at a feasible allocation whose packed prefixes
    `rejects` refuses is returned like a failing one, its block unfilled.
    """
    plan = inst.prefix_walk
    code_mask, base_shift, base_mask = plan.code_mask, plan.base_shift, plan.base_mask
    bits_shift, bits_mask, shifts, full = plan.bits_shift, plan.bits_mask, plan.shifts, plan.full
    step, step_cap, options_of = plan.step, plan.step_cap, plan.prefix_options
    block, powers, m, movers = inst.block, inst.powers, inst.m, inst.members
    while stack:
        state = stack.pop()
        code = state & code_mask
        k = index[code]
        if k < 0:
            bits = state >> bits_shift & bits_mask
            if rejects is not None and rejects(bits):
                return state
            starts, span = block(bits)
            base = state >> base_shift & base_mask
            run = [code] * span
            for s in starts:
                table[base + s : base + s + span] = run
        elif k > depth:
            parked[k].append(state)
            log.append(parked[k])
        else:
            mask = masks[k]
            if not mask:
                return state
            kids = [state + step]
            for i in movers[mask]:
                options = options_of[i][state >> shifts[i] & full]
                if not options:
                    return state
                place = powers[i]
                old = code // place % m * place
                kids = [kid - old + option for kid in kids for option in options]
            if state >= step_cap:
                raise AssertionError("rank descent bound violated")
            stack += kids
    return None


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
