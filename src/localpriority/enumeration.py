"""Exhaustive enumeration of implementable consistent compromiser assignments
for a constraint, with constraint propagation, symmetry breaking, and
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

Consistency and implementability do not change when agents and objects are
relabelled by a symmetry of the constraint, so the consistent assignments are
a union of orbits. The search keeps only each orbit's least cell-mask key, its
lex-leader (Crawford et al. 1996, "Symmetry-breaking predicates for search
problems"): it cuts a node as soon as some symmetry maps the assigned prefix to
a smaller key. `_quotient` then expands every leader into its orbit in one
loop: each symmetry, the identity first, maps each leader to a member key, and
the members are emitted in key order, which is the order the unpruned search
emits; after a budget cut only the keys below the search's frontier are kept.
The leader's table moves onto each member, so members are neither searched,
checked nor walked.

`theorem_harness` sweeps every enumerated assignment of a constraint through
the GSP and Pareto oracles, one check per distinct table.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .axioms import Verdict, is_group_strategy_proof, is_pareto_efficient
from .core import CompromiserAssignment, Constraint, Instance, ScaleLimitError
from .consistency import (
    Reading,
    _backward_failure,
    _check_reading,
    _moved_codes,
    is_backward_consistent,
    is_forward_consistent,
)
from .engine import MechanismTable, NotImplementableError, _walk, tabulate

# Codes the search's tables may leave in `Instance.moves`' memo,
# |cells| * (m^n - 1): every 4-agent instance within the profile budget needs
# at most 256 * 255, a 5-agent one 243 * 242. As |cells| <= m^n, no search
# admitted has more than 316 cells.
MAX_MOVE_CODES = 100_000


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
    set, found by brute force. A permutation maps codes one-to-one, so it fixes
    the feasible set exactly when it maps every infeasible code to one."""
    inst = constraint.instance
    cells, index = constraint.infeasible_codes, constraint.cell_index
    pairs = []
    for aperm in itertools.permutations(range(inst.n)):
        for operm in itertools.permutations(range(inst.m)):
            image = _permutation(inst, aperm, operm)
            if all(index[image(c)] >= 0 for c in cells):
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


class _Symmetry(NamedTuple):
    """One symmetry as it acts on cell-mask keys: the moved key of `key` has
    `mask_map[key[pre[j]]]` at cell j. `wait[j]` is the depth at which both
    cell j and `pre[j]` are set; `perms` is the (agent permutation, object
    permutation) pair."""

    pre: tuple[int, ...]
    mask_map: tuple[int, ...]
    wait: tuple[int, ...]
    perms: tuple[tuple[int, ...], tuple[int, ...]]


def _symmetries(constraint: Constraint) -> list[_Symmetry]:
    """The distinct actions on cell-mask keys of `constraint_symmetries`, the
    identity first."""
    inst = constraint.instance
    cells, index = constraint.infeasible_codes, constraint.cell_index
    actions: dict[tuple, _Symmetry] = {}
    for aperm, operm in constraint_symmetries(constraint):
        image = _permutation(inst, aperm, operm)
        moved = [0] * len(cells)
        for k, code in enumerate(cells):
            moved[index[image(code)]] = k
        pre = tuple(moved)
        # the masks with agent i's bit are those without it, plus aperm[i]'s bit
        masks = [0]
        for i in range(inst.n):
            masks += [mask | 1 << aperm[i] for mask in masks]
        mask_map = tuple(masks)
        wait = tuple(map(max, enumerate(pre)))
        actions.setdefault((pre, mask_map), _Symmetry(pre, mask_map, wait, (aperm, operm)))
    identity = (tuple(range(len(cells))), tuple(range(len(inst.members))))
    return [actions.pop(identity), *actions.values()]


def _moved_table(
    inst: Instance, perms: tuple[tuple[int, ...], tuple[int, ...]]
) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map from a mechanism's table to the table of its image under the
    symmetry: `moved[q] = image(table[source[q]])`, where the symmetry takes
    profile `source[q]` to profile q."""
    aperm, operm = perms
    image = _permutation(inst, aperm, operm)
    codes = [image(code) for code in range(inst.num_allocations)]
    prefs, rank = inst.all_preferences(), inst.preference_rank
    back = {o: k for k, o in enumerate(operm)}
    # Agent aperm[i] of profile q holds agent i's ranking of profile
    # source[q], renamed by operm.
    source = [0]
    for j in range(inst.n):
        stride = inst.strides[aperm.index(j)]
        ranks = [rank[tuple(back[o] for o in pref)] * stride for pref in prefs]
        source = [s + r for s in source for r in ranks]

    # itemgetter hands back a bare entry for one index; one profile (m = 1)
    # is its own source, so its table gathers to itself.
    gather = operator.itemgetter(*source) if len(source) > 1 else tuple

    def move(table: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(codes.__getitem__, gather(table)))

    return move


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
        self.nodes = 0
        self.pruned = 0
        # The lex-leaders' keys and, with dedupe, their tables; a search cut
        # by its budget records the prefix plus the mask it was about to try.
        self.leaders: list[tuple[int, ...]] = []
        self.tables: list[tuple[int, ...]] | None = [] if options.dedupe_by_mechanism else None
        self.frontier: tuple[int, ...] | None = None
        # Every change a node makes appends to one of these lists and puts
        # the list on `trail`; backtracking to a cell pops the trail down to
        # its length when the cell was entered, and each list popped off it
        # loses its last entry:
        # - `required[j]`, whose last entry is the agents cell j must hold;
        # - `watch[d]`, each non-identity symmetry as (position, pre,
        #   mask_map, wait), d the depth at which its first undecided key
        #   position becomes known (without cells every symmetry fixes the
        #   one, empty, key);
        # - `parked[k]`, the walk's states waiting for cell k to be set; at a
        #   leaf, `table` is the leaf's mechanism.
        self.trail: list[list] = []
        self.required = [[0] for _ in self.cells]
        self.group = _symmetries(constraint)
        self.watch: list[list[tuple]] = [[] for _ in self.cells]
        for g in self.group[1:] if self.cells else ():
            self.watch[g.wait[0]].append((0, g.pre, g.mask_map, g.wait))
        self._build_forward()
        if options.require_backward:
            self._build_backward_pairs()
        # The roots park or fill before any assignment.
        self.table = [0] * inst.num_profiles
        self.parked: list[list[int]] = [[] for _ in self.cells]
        _walk(inst, self.index, self.assigned, -1, list(inst.prefix_walk.roots),
              self.table, self.parked, self.trail)

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

    def _apply_backward(self, depth: int) -> bool:
        """Two-step backward-consistency rules whose (x, y) pair completed at
        this depth: x one move (by agent i) from y, i compromising at x, means
        i must still compromise at every x' reached from x by the other
        compromisers of y. A feasible x' prunes under the strict reading and
        is passed over under the relaxed one. Returns False to prune."""
        strict = self.options.reading == "strict"
        moves, cells, index = self.constraint.instance.moves, self.cells, self.index
        assigned, required, trail = self.assigned, self.required, self.trail
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
                    elif not (required[j][-1] >> agent) & 1:
                        required[j].append(required[j][-1] | bit)
                        trail.append(required[j])
                sub = (sub - 1) & movers
        return True

    def _lex(self, depth: int) -> bool:
        """Compare the key with its image under each symmetry waiting at this
        depth, position by position while both are known: False (cut) when an
        image is smaller. A symmetry whose image is larger drops out for the
        subtree; one whose image is equal so far waits for its next position."""
        assigned, watch, trail = self.assigned, self.watch, self.trail
        last = len(self.cells)
        for p, pre, mask_map, wait in watch[depth]:
            while True:
                moved = mask_map[assigned[pre[p]]]
                if moved != assigned[p]:
                    if moved < assigned[p]:
                        return False
                    break
                p += 1
                if p == last:
                    break
                if wait[p] > depth:
                    watch[wait[p]].append((p, pre, mask_map, wait))
                    trail.append(watch[wait[p]])
                    break
        return True

    def _node(self, depth: int, mask: int) -> bool:
        """Check the mask just set at `depth` and propagate it: the required
        agents, its forward consequences, the lex-leader cut, the two-step
        backward rule and the walk through the cell. False prunes the node."""
        required, trail = self.required, self.trail
        need = required[depth][-1]
        if mask & need != need:
            return False
        cons = self.forward[depth][mask]
        if cons is None:
            return False
        assigned = self.assigned
        for j, req in cons:
            if j < depth:
                if assigned[j] & req != req:
                    return False
            elif j > depth:
                bound = required[j]
                if bound[-1] & req != req:
                    bound.append(bound[-1] | req)
                    trail.append(bound)
        if self.watch[depth] and not self._lex(depth):
            return False
        if self.options.require_backward and not self._apply_backward(depth):
            return False
        parked = self.parked
        return _walk(self.constraint.instance, self.index, assigned, depth, parked[depth][:],
                     self.table, parked, trail) is None

    def _emit(self) -> None:
        """Check the leaf on the search's own masks; keep its key only if it passes."""
        if self.options.require_backward:
            inst = self.constraint.instance
            if _backward_failure(inst, self.masks, self.options.reading == "strict") is not None:
                self.pruned += 1
                return
        self.leaders.append(tuple(self.assigned))
        if self.tables is not None:
            self.tables.append(tuple(self.table))

    def run(self) -> bool:
        """Try the masks of each cell in increasing order, depth first; a
        node that passes `_node` moves on to the next cell or, at the last,
        is emitted. Returns False when the node budget cuts the search."""
        last = len(self.cells) - 1
        if last < 0:
            self._emit()
            return True
        assigned, masks, cells, trail = self.assigned, self.masks, self.cells, self.trail
        # marks[d] is the trail's length when cell d was entered
        marks = [len(trail)] * len(cells)
        depth = 0
        while depth >= 0:
            while len(trail) > marks[depth]:
                trail.pop().pop()
            mask = assigned[depth] + 1
            if mask > self.full_mask:
                assigned[depth] = masks[cells[depth]] = 0
                depth -= 1
                continue
            self.nodes += 1
            if self.nodes > self.options.budget:
                self.frontier = (*assigned[:depth], mask)
                return False
            assigned[depth] = masks[cells[depth]] = mask
            if not self._node(depth, mask):
                self.pruned += 1
            elif depth == last:
                self._emit()
            else:
                depth += 1
                marks[depth] = len(trail)
        return True


def enumerate_consistent(
    constraint: Constraint, options: EnumerationOptions | None = None
) -> EnumerationResult:
    """Depth-first enumeration over the cells in increasing allocation-code
    order; emitted assignments are implementable and satisfy the requested
    consistency conditions, in canonical order. Implementability is decided
    inside the search by the prefix walk through the assigned cells, so every
    leaf it reaches is implementable, and with dedupe the leaf's table is the
    one the walk filled. The search reaches only lex-leaders; `_quotient`
    expands their orbits into the emitted list."""
    options = options or EnumerationOptions()
    # The walk fills one table of num_profiles entries under the profile
    # budget, and the moves from every cell fill `Instance.moves`' memo with
    # |cells| * (m^n - 1) codes: an instance too large for either is refused
    # before a table is built.
    inst = constraint.instance
    inst.check_profile_budget()
    cells = inst.num_allocations - len(constraint.feasible)
    codes = cells * (inst.num_allocations - 1)
    if codes > MAX_MOVE_CODES:
        raise ScaleLimitError(f"move tables of {codes} codes exceed guardrail {MAX_MOVE_CODES}")
    search = _Search(constraint, options)
    complete = search.run()
    assignments, groups, representatives = _quotient(search)
    result = EnumerationResult(
        constraint, options, assignments, search.pruned, complete, mechanism_groups=groups,
    )
    if options.quotient_symmetry:
        # orbits of a partial list are not closed under the symmetries
        result.check_complete()
        result.representatives = representatives
    return result


def _quotient(search: _Search) -> tuple[
    list[CompromiserAssignment],
    dict[tuple[int, ...], list[int]] | None,
    list[tuple[CompromiserAssignment, int]],
]:
    """Expand the lex-leaders the search found into their orbits: every
    member's assignment in key order, the mechanism groups (with dedupe) and
    each leader with its orbit size. A member's table is its leader's table
    moved by the symmetry that made it, built in key order while grouping.
    After a budget cut only the keys below the search's frontier are kept:
    tuple order is the search's emission order, so the search covered every
    one of them in full, and the list is a prefix of the complete one."""
    constraint, frontier, tables = search.constraint, search.frontier, search.tables
    inst = constraint.instance
    # Each member's key, mapped to its leader and symmetry. Orbits are
    # disjoint, so a key already claimed is the same member again; the
    # identity, symmetry 0, claims every leader's own key first.
    members: dict[tuple[int, ...], tuple[int, int]] = {}
    sizes = [0] * len(search.leaders)
    for s, g in enumerate(search.group):
        pre, mask_map = g.pre, g.mask_map
        for k, leader in enumerate(search.leaders):
            key = tuple(map(mask_map.__getitem__, map(leader.__getitem__, pre)))
            if (frontier is None or key < frontier) and key not in members:
                members[key] = (k, s)
                sizes[k] += 1

    sets, cells = inst.agent_sets, constraint.infeasible_codes
    assignments: list[CompromiserAssignment] = []
    representatives: list[tuple[CompromiserAssignment, int]] = []
    groups: dict[tuple[int, ...], list[int]] | None = None if tables is None else {}
    moves: dict[int, Callable[[tuple[int, ...]], tuple[int, ...]]] = {}
    for key in sorted(members):
        k, s = members[key]
        alpha = CompromiserAssignment(constraint, dict(zip(cells, map(sets.__getitem__, key))))
        if s == 0:
            representatives.append((alpha, sizes[k]))
        if groups is not None:
            table = tables[k]
            if s:
                if s not in moves:
                    moves[s] = _moved_table(inst, search.group[s].perms)
                table = moves[s](table)
            groups.setdefault(table, []).append(len(assignments))
        assignments.append(alpha)
    return assignments, groups, representatives


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


@dataclass(frozen=True)
class HarnessReport:
    """Outcome of sweeping every enumerated consistent assignment through the
    incentive oracles."""

    constraint: Constraint
    reading: Reading
    total: int
    gsp_failures: tuple[dict, ...]
    pe_failures: tuple[dict, ...]
    mechanism_count: int

    @property
    def all_pass(self) -> bool:
        return not self.gsp_failures and not self.pe_failures


def theorem_harness(
    constraint: Constraint,
    reading: Reading = "strict",
    budget: int = 10_000_000,
) -> HarnessReport:
    """Enumerate the consistent implementable assignments for a constraint and
    check every induced table for group strategy-proofness and efficiency.
    Each distinct table is checked once; its failures are listed for every
    assignment inducing it, in enumeration order. An enumeration that runs out
    of its node budget raises ScaleLimitError, since a report on some of the
    assignments would pass vacuously."""
    opts = EnumerationOptions(
        reading=reading,
        require_forward=True,
        require_backward=True,
        dedupe_by_mechanism=True,
        budget=budget,
    )
    result = enumerate_consistent(constraint, opts)
    result.check_complete()
    verdicts: dict[int, tuple[Verdict, Verdict]] = {}
    for key, members in result.mechanism_groups.items():
        table = MechanismTable(constraint, key)
        pair = (is_group_strategy_proof(table), is_pareto_efficient(table))
        for k in members:
            verdicts[k] = pair
    gsp_failures = []
    pe_failures = []
    for k, alpha in enumerate(result.assignments):
        gsp, pe = verdicts[k]
        if not gsp.holds:
            gsp_failures.append({"alpha": alpha, "witness": gsp.witness})
        if not pe.holds:
            pe_failures.append({"alpha": alpha, "witness": pe.witness})
    return HarnessReport(
        constraint,
        reading,
        result.count,
        tuple(gsp_failures),
        tuple(pe_failures),
        result.mechanism_count,
    )
