"""Exhaustive enumeration of implementable consistent compromiser assignments
for a constraint, with constraint propagation, symmetry quotienting, and
mechanism-level deduplication.

Forward consistency is enforced exactly during the depth-first search. Backward
consistency over two-step connections is also propagated during the search
(both a sound pruning rule and the source of required-agent lower bounds);
the full path-global condition is then checked on every completed assignment.
Implementability is propagated too: `engine._walk`, the one prefix walk that
`tabulate` also runs, steps its states inside the search through the assigned
cells, so a branch is cut as soon as some run exhausts on them, every leaf is
implementable, and the walk has already filled the leaf's table, which keys
the mechanism deduplication.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

from .core import CompromiserAssignment, Constraint, Instance, ScaleLimitError
from .consistency import (
    Reading,
    _backward_failure,
    _check_reading,
    _moved_codes,
    is_backward_consistent,
    is_forward_consistent,
)
from .engine import NotImplementableError, _walk, tabulate

# Codes `_build_forward` may leave in `Instance.moves`' memo, |cells| * (m^n - 1):
# every 4-agent instance within the profile budget needs at most 256 * 255, a
# 5-agent one 243 * 242.
MAX_MOVE_CODES = 100_000
# Stack frames kept free below the deepest `_dfs` call for the leaf checks.
LEAF_STACK_DEPTH = 200


@dataclass(frozen=True)
class EnumerationOptions:
    reading: Reading = "strict"
    require_forward: bool = True
    require_backward: bool = True
    quotient_symmetry: bool = False
    dedupe_by_mechanism: bool = False
    budget: int = 50_000_000

    def __post_init__(self) -> None:
        _check_reading(self.reading)
        if self.budget <= 0:
            raise ValueError("budget must be positive")


def constraint_symmetries(
    constraint: Constraint,
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every (agent permutation, object permutation) pair fixing the feasible
    set, found by brute force."""
    inst = constraint.instance
    feasible = constraint.feasible
    pairs = []
    for aperm in itertools.permutations(range(inst.n)):
        for operm in itertools.permutations(range(inst.m)):
            image = _permutation(inst, aperm, operm)
            if all(image(c) in feasible for c in sorted(feasible)):
                pairs.append((aperm, operm))
    return tuple(pairs)


def _permutation(inst: Instance, aperm: tuple[int, ...], operm: tuple[int, ...]):
    """The map on codes that hands agent aperm[i] the object operm[o] wherever
    agent i holds o, read off place values."""
    places = [[operm[o] * inst.powers[aperm[i]] for o in range(inst.m)] for i in range(inst.n)]

    def image(code: int) -> int:
        out = 0
        for row in places:
            code, obj = divmod(code, inst.m)
            out += row[obj]
        return out

    return image


@dataclass
class EnumerationResult:
    constraint: Constraint
    options: EnumerationOptions
    assignments: list[CompromiserAssignment]
    pruned_nodes: int
    complete: bool
    representatives: list[tuple[CompromiserAssignment, int]] | None = None
    mechanism_groups: dict[tuple[int, ...], list[int]] | None = None

    @property
    def count(self) -> int:
        return len(self.assignments)

    @property
    def orbit_count(self) -> int | None:
        return None if self.representatives is None else len(self.representatives)

    @property
    def mechanism_count(self) -> int | None:
        return None if self.mechanism_groups is None else len(self.mechanism_groups)

    def summary(self) -> dict:
        return {
            "count": self.count,
            "orbit_count": self.orbit_count,
            "mechanism_count": self.mechanism_count,
            "pruned_nodes": self.pruned_nodes,
            "complete": self.complete,
        }

    def check_complete(self) -> None:
        """Refuse to go on from a search cut short by its node budget."""
        if not self.complete:
            raise ScaleLimitError(
                f"enumeration incomplete within its budget of {self.options.budget} nodes"
            )


class _Search:
    """State shared by one enumeration run."""

    def __init__(self, constraint: Constraint, options: EnumerationOptions):
        self.constraint = constraint
        self.options = options
        inst = constraint.instance
        self.cells = constraint.infeasible_codes
        self.index = constraint.cell_index
        self.n = inst.n
        self.full_mask = 2**inst.n - 1
        # Each cell's mask by cell, and the same masks by code (0 where the
        # allocation is feasible or its cell is unassigned) for the leaf check.
        self.assigned = [0] * len(self.cells)
        self.masks = [0] * inst.num_allocations
        self.required = [0] * len(self.cells)
        self.nodes = 0
        self.pruned = 0
        self.found: list[CompromiserAssignment] = []
        self.groups: dict[tuple[int, ...], list[int]] | None = (
            {} if options.dedupe_by_mechanism else None
        )
        self._build_forward()
        if options.require_backward:
            self._build_backward_pairs()
        # `_dfs` runs the states parked at each cell it assigns, and pops
        # `parked_log` to undo their parks on backtrack; at a leaf, `table` is
        # the leaf's mechanism. The roots park or fill before any assignment.
        self.table = [0] * inst.num_profiles
        self.parked: list[list[int]] = [[] for _ in self.cells]
        self.parked_log: list[int] = []
        _walk(inst, self.index, self.assigned, -1, list(inst.prefix_walk.roots),
              self.table, self.parked, self.parked_log)

    def _build_forward(self) -> None:
        """Per (cell, mask): None when some proper-subset move reaches a
        feasible allocation with compromisers left over; otherwise the list of
        (other cell, required mask) forward-consistency consequences. Without
        forward consistency every nonempty mask is allowed and has none."""
        self.forward: list[list[None | tuple[tuple[int, int], ...]]]
        if not self.options.require_forward:
            self.forward = [[None] + [()] * self.full_mask for _ in self.cells]
            return
        inst, feasible = self.constraint.instance, self.constraint.feasible
        self.forward = []
        for code in self.cells:
            per_mask: list[None | tuple[tuple[int, int], ...]] = [None]
            for mask in range(1, self.full_mask + 1):
                moves = [(y, sub) for y, sub in _moved_codes(inst, code, mask) if 0 < sub < mask]
                if any(y in feasible for y, _ in moves):
                    per_mask.append(None)
                else:
                    per_mask.append(tuple((self.index[y], mask & ~sub) for y, sub in moves))
            self.forward.append(per_mask)

    def _build_backward_pairs(self) -> None:
        """Ordered cell pairs one coordinate apart, (x cell, y cell, agent),
        filed under the later of the two cells: the one-agent moves from each
        cell that reach another."""
        self.backward_pairs_at: list[list[tuple[int, int, int]]] = [
            [] for _ in self.cells
        ]
        for k, code in enumerate(self.cells):
            for i in range(self.n):
                for y_code in self.constraint.instance.moves(code, 1 << i):
                    j = self.index[y_code]
                    if j >= 0:
                        self.backward_pairs_at[max(k, j)].append((k, j, i))

    def _apply_backward(
        self, depth: int, undo: list[tuple[int, int]]
    ) -> bool:
        """Two-step backward-consistency rules whose (x, y) pair completed at
        this depth: x one move (by agent i) from y, i compromising at x, means
        i must still compromise at every x' reached from x by the other
        compromisers of y. A feasible x' prunes under the strict reading and
        is passed over under the relaxed one. Returns False to prune; the
        caller undoes the `required` bits set before a prune."""
        strict = self.options.reading == "strict"
        moves, cells, index = self.constraint.instance.moves, self.cells, self.index
        assigned, required = self.assigned, self.required
        for xk, yk, agent in self.backward_pairs_at[depth]:
            if not (assigned[xk] >> agent) & 1:
                continue
            movers = assigned[yk] & ~(1 << agent)
            bit = 1 << agent
            sub = movers
            while sub:
                for xp_code in moves(cells[xk], sub):
                    j = index[xp_code]
                    if j < 0:
                        if strict:
                            return False
                    elif j <= depth:
                        if not (assigned[j] >> agent) & 1:
                            return False
                    elif not (required[j] >> agent) & 1:
                        undo.append((j, required[j]))
                        required[j] |= bit
                sub = (sub - 1) & movers
        return True

    def _emit(self) -> None:
        """Check the leaf on the search's own masks; build its assignment only if it passes."""
        inst = self.constraint.instance
        if self.options.require_backward:
            if _backward_failure(inst, self.masks, self.options.reading == "strict") is not None:
                self.pruned += 1
                return
        sets = inst.agent_sets
        alpha = CompromiserAssignment(
            self.constraint,
            {code: sets[mask] for code, mask in zip(self.cells, self.assigned)},
        )
        if self.groups is not None:
            self.groups.setdefault(tuple(self.table), []).append(len(self.found))
        self.found.append(alpha)

    def run(self) -> bool:
        if not self.cells:
            self._emit()
            return True
        return self._dfs(0)

    def _dfs(self, depth: int) -> bool:
        if depth == len(self.cells):
            self._emit()
            return True
        assigned, masks, code = self.assigned, self.masks, self.cells[depth]
        required = self.required
        forward = self.forward[depth]
        inst, index, table = self.constraint.instance, self.index, self.table
        parked, parked_log = self.parked, self.parked_log
        for mask in range(1, self.full_mask + 1):
            self.nodes += 1
            if self.nodes > self.options.budget:
                return False
            if mask & required[depth] != required[depth]:
                self.pruned += 1
                continue
            cons = forward[mask]
            if cons is None:
                self.pruned += 1
                continue
            undo: list[tuple[int, int]] = []
            ok = True
            for j, req in cons:
                if j < depth:
                    if assigned[j] & req != req:
                        ok = False
                        break
                elif j > depth:
                    if required[j] & req != req:
                        undo.append((j, required[j]))
                        required[j] |= req
            if ok:
                assigned[depth] = masks[code] = mask
                if self.options.require_backward:
                    ok = self._apply_backward(depth, undo)
            mark = len(parked_log)
            if ok:
                ok = _walk(inst, index, assigned, depth, parked[depth][:], table,
                           parked, parked_log) is None
            if ok:
                if not self._dfs(depth + 1):
                    return False
            else:
                self.pruned += 1
            for j, old in reversed(undo):
                required[j] = old
            while len(parked_log) > mark:
                parked[parked_log.pop()].pop()
        assigned[depth] = masks[code] = 0
        return True


def enumerate_consistent(
    constraint: Constraint, options: EnumerationOptions | None = None
) -> EnumerationResult:
    """Depth-first enumeration over the cells in increasing allocation-code
    order; emitted assignments are implementable and satisfy the requested
    consistency conditions, in canonical order. Implementability is decided
    inside the search by the prefix walk through the assigned cells, so every
    leaf it reaches is implementable, and with dedupe the leaf's table is the
    one the walk filled."""
    options = options or EnumerationOptions()
    # The walk fills one table of num_profiles entries under the profile
    # budget, the moves from every cell fill `Instance.moves`' memo with
    # |cells| * (m^n - 1) codes, and `_dfs` recurses once per cell: an
    # instance too large for any of them is refused before a table is built.
    inst = constraint.instance
    inst.check_profile_budget()
    cells = inst.num_allocations - len(constraint.feasible)
    codes = cells * (inst.num_allocations - 1)
    if codes > MAX_MOVE_CODES:
        raise ScaleLimitError(f"move tables of {codes} codes exceed guardrail {MAX_MOVE_CODES}")
    if cells + LEAF_STACK_DEPTH > sys.getrecursionlimit():
        raise ScaleLimitError(
            f"{cells} infeasible cells exceed the recursion limit {sys.getrecursionlimit()}"
        )
    search = _Search(constraint, options)
    complete = search.run()
    result = EnumerationResult(
        constraint, options, search.found, search.pruned, complete,
        mechanism_groups=search.groups,
    )
    if options.quotient_symmetry:
        # orbits of a partial list are not closed under the symmetries
        result.check_complete()
        result.representatives = _quotient(result)
    return result


def _quotient(result: EnumerationResult) -> list[tuple[CompromiserAssignment, int]]:
    """Group the enumerated assignments into symmetry orbits; representatives
    are minimal under the canonical cell-mask encoding."""
    constraint = result.constraint
    inst = constraint.instance
    codes, mask_of = range(inst.num_allocations), inst.mask_of
    actions = [
        (
            tuple(map(_permutation(inst, aperm, operm), codes)),
            [mask_of[frozenset(aperm[i] for i in agents)] for agents in inst.members],
        )
        for aperm, operm in constraint_symmetries(constraint)
    ]
    cells = constraint.infeasible_codes
    key_of: dict[tuple[int, ...], int] = {}
    for k, alpha in enumerate(result.assignments):
        key_of[tuple(mask_of[alpha.cells[c]] for c in cells)] = k

    reps: list[tuple[CompromiserAssignment, int]] = []
    claimed: set[tuple[int, ...]] = set()
    for key in sorted(key_of):
        if key in claimed:
            continue
        masks = dict(zip(cells, key))
        orbit = set()
        for code_map, mask_map in actions:
            moved = {code_map[c]: mask_map[masks[c]] for c in cells}
            orbit.add(tuple(moved[c] for c in cells))
        for member in orbit:
            if member not in key_of:
                raise AssertionError(
                    "symmetry image of an emitted assignment was not emitted"
                )
        claimed |= orbit
        reps.append((result.assignments[key_of[key]], len(orbit)))
    return reps


def brute_force_consistent(
    constraint: Constraint, options: EnumerationOptions | None = None
) -> list[CompromiserAssignment]:
    """Filter every possible assignment naively; tiny scale only. The
    completeness oracle for the pruned enumeration."""
    options = options or EnumerationOptions()
    inst = constraint.instance
    cells = constraint.infeasible_codes
    if (2**inst.n - 1) ** len(cells) > options.budget:
        raise ValueError("brute force space exceeds budget")
    out = []
    for combo in itertools.product(inst.agent_sets[1:], repeat=len(cells)):
        alpha = CompromiserAssignment(constraint, dict(zip(cells, combo)))
        if options.require_forward and not is_forward_consistent(alpha).holds:
            continue
        if options.require_backward and not is_backward_consistent(alpha, options.reading).holds:
            continue
        try:
            tabulate(alpha)
        except NotImplementableError:
            continue
        out.append(alpha)
    return out
