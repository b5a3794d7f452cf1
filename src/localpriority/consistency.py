"""Forward and backward consistency of compromiser assignments (backward
consistency searches the allocations each agent is i-connected to),
subset/union equivalences, and searches for the two existence witnesses (an
efficient-but-bossy mechanism and a group strategy-proof one violating
backward consistency). The consistency-implies-GSP harness, which reads the
enumeration built on this module, lives in `enumeration`."""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal, Mapping, Sequence

from .core import (
    Assignment,
    CompromiserAssignment,
    Constraint,
    Instance,
    diff,
)
from .engine import (
    MechanismTable,
    NotImplementableError,
    _walk,
    mechanism_difference,
    tabulate,
    tabulate_function,
)
from .axioms import (
    Verdict,
    derive_alpha,
    is_group_strategy_proof,
    is_nonbossy,
)
from .mechanisms import _dictator_picks, sd_alpha

Reading = Literal["strict", "relaxed"]
READINGS = ("strict", "relaxed")


def _check_reading(reading: Reading) -> None:
    if reading not in READINGS:
        raise ValueError(f"reading must be one of {READINGS}")


def is_forward_consistent(alpha: CompromiserAssignment) -> Verdict:
    """If moving a subset of x's compromisers reaches y, the rest must still
    be compromisers at y. A feasible y reached this way with compromisers left
    over is a violation."""
    inst = alpha.instance
    masks = _masks(alpha)
    for x_code in sorted(alpha.cells):
        for y_code, moved in _moved_codes(inst, x_code, masks[x_code]):
            missing = masks[x_code] & ~moved & ~masks[y_code]
            if missing:
                return Verdict(
                    "forward_consistent",
                    False,
                    {
                        "x": inst.decode(x_code),
                        "y": inst.decode(y_code),
                        "alpha_x": tuple(sorted(alpha.cells[x_code])),
                        "alpha_y": tuple(sorted(alpha.cell(y_code))),
                        "missing": inst.members[missing],
                    },
                )
    return Verdict("forward_consistent", True)


def _masks(alpha: CompromiserAssignment) -> list[int]:
    """Each allocation's cell as a bitmask of agents, by code; 0 where the
    allocation is feasible."""
    inst = alpha.instance
    masks = [0] * inst.num_allocations
    for code, cell in alpha.cells.items():
        masks[code] = inst.mask_of[cell]
    return masks


def _moved_codes(inst: Instance, x_code: int, mask: int) -> list[tuple[int, int]]:
    """Every allocation differing from x only on the agents in mask, x itself
    included, ascending by code. Each comes with the submask of agents whose
    moves reach it, which is exactly where it differs from x."""
    found = [(x_code, 0)]
    sub = mask
    while sub:
        found += [(y_code, sub) for y_code in inst.moves(x_code, sub)]
        sub = (sub - 1) & mask
    return sorted(found)


def _reach(inst: Instance, masks: Sequence[int], x_code: int, agent: int) -> dict[int, int]:
    """Breadth-first walk of the acyclic compromise paths that start with a
    move by `agent` alone out of x and stay on infeasible allocations: a
    nonempty subset of each cell moves, and nobody returns to an object they
    left. A state packs the abandoned-object bits (bit i*m + o once agent i
    has left object o) above the code, as bits * m^n + code. Returns every
    state reached, in discovery order, mapped to the state it was first
    reached from, which is x_code itself for the first step. `agent` must
    compromise at x; `masks` is as `_masks` gives it."""
    m, top = inst.m, inst.num_allocations
    start = (1 << (agent * m + x_code // inst.powers[agent] % m)) * top
    parents = {start + y: x_code for y in inst.moves(x_code, 1 << agent) if masks[y]}
    queue = list(parents)
    for state in queue:
        abandoned, code = divmod(state, top)
        for y, arrived, left in inst.steps(code, masks[code]):
            if masks[y] and not arrived & abandoned:
                nxt = (abandoned | left) * top + y
                if nxt not in parents:
                    parents[nxt] = state
                    queue.append(nxt)
    return parents


def _first_paths(inst: Instance, parents: Mapping[int, int]) -> dict[int, tuple[int, ...]]:
    """Each code a `_reach` walk reached, in discovery order, with the codes
    along the path of the first state that reached it, x first."""
    top = inst.num_allocations
    paths: dict[int, tuple[int, ...]] = {}
    for state in parents:
        if state % top not in paths:
            path = [state % top]
            while state in parents:
                state = parents[state]
                path.append(state % top)
            paths[path[0]] = tuple(reversed(path))
    return paths


def validate_connection_path(
    alpha: CompromiserAssignment, path: Sequence[Assignment], agent: int
) -> bool:
    """Naive re-check of the three defining clauses of an i-connected path."""
    if len(path) < 2:
        return False
    if diff(path[0], path[1]) != frozenset({agent}):
        return False
    for z, z_next in zip(path, path[1:]):
        d = diff(z, z_next)
        if not d or not d <= alpha.cell(alpha.instance.encode(z)):
            return False
    for i in range(len(path[0])):
        objs = [step[i] for step in path]
        for r in range(len(objs)):
            for s in range(r + 1, len(objs)):
                for t in range(s + 1, len(objs)):
                    if objs[r] == objs[t] and objs[s] != objs[r]:
                        return False
    return True


def is_backward_consistent(
    alpha: CompromiserAssignment, reading: Reading = "strict"
) -> Verdict:
    """Whenever x is i-connected to y, the agent i must still be a compromiser
    at every x' obtained from x by moving compromisers of y other than i.

    Under the strict reading x' ranges over all allocations, so a feasible x'
    meeting the hypothesis is an automatic violation; the relaxed reading
    quantifies over infeasible x' only.

    One walk per (agent, x) decides the verdict. The witness comes from the
    walk of the first failing pair: its first y in code order, the first x'
    for that y, and the path of the first state that reached y.
    """
    _check_reading(reading)
    inst = alpha.instance
    strict = reading == "strict"
    masks = _masks(alpha)
    failure = _backward_failure(inst, masks, strict)
    if failure is None:
        return Verdict("backward_consistent", True)
    agent, x_code, parents = failure
    paths = _first_paths(inst, parents)
    for y_code in sorted(paths):
        xp_code = _stray(inst, masks, x_code, agent, masks[y_code] & ~(1 << agent), strict)
        if xp_code is not None:
            return Verdict(
                "backward_consistent",
                False,
                {
                    "agent": agent,
                    "x": inst.decode(x_code),
                    "y": inst.decode(y_code),
                    "x_prime": inst.decode(xp_code),
                    "alpha_y": tuple(sorted(alpha.cell(y_code))),
                    "alpha_x_prime": tuple(sorted(alpha.cell(xp_code))),
                    "path": tuple(inst.decode(c) for c in paths[y_code]),
                    "reading": reading,
                },
            )
    raise AssertionError("the failing walk reached no y with a stray x'")


def _stray(
    inst: Instance, masks: Sequence[int], x_code: int, agent: int, mask: int, strict: bool
) -> int | None:
    """The first x' moved from x by the agents in `mask` (x itself included,
    ascending by code) where `agent` is not a compromiser; the relaxed
    reading passes over feasible x'. `masks` is as `_masks` gives it."""
    for xp_code, _ in _moved_codes(inst, x_code, mask):
        if not masks[xp_code] >> agent & 1 and (strict or masks[xp_code]):
            return xp_code
    return None


def _backward_failure(
    inst: Instance, masks: Sequence[int], strict: bool
) -> tuple[int, int, dict[int, int]] | None:
    """The first (i, x), agents ascending and then codes ascending, where x
    is i-connected to a y whose compromisers other than i move x to a stray
    x', with the `_reach` walk of that pair. A y counts only through its cell
    less i, so each distinct such mask is checked once per walk."""
    top = inst.num_allocations
    for agent in range(inst.n):
        bit = 1 << agent
        for x_code, x_mask in enumerate(masks):
            if x_mask & bit:
                parents = _reach(inst, masks, x_code, agent)
                for mask in {masks[state % top] & ~bit for state in parents}:
                    if _stray(inst, masks, x_code, agent, mask, strict) is not None:
                        return agent, x_code, parents
    return None


def is_consistent(alpha: CompromiserAssignment, reading: Reading = "strict") -> Verdict:
    fwd = is_forward_consistent(alpha)
    if not fwd.holds:
        return Verdict("consistent", False, fwd.witness, (fwd.name,))
    bwd = is_backward_consistent(alpha, reading)
    if not bwd.holds:
        return Verdict("consistent", False, bwd.witness, (bwd.name,))
    return Verdict("consistent", True)


def verify_subset_equivalence(
    alpha: CompromiserAssignment, alpha_sub: CompromiserAssignment
) -> Verdict:
    """A pointwise sub-assignment of a forward-consistent implementable
    assignment must induce the same mechanism; hypothesis failures are
    reported distinctly from equivalence failures."""
    if alpha.constraint.feasible != alpha_sub.constraint.feasible:
        return Verdict(
            "subset_equivalence", False, {"hypothesis": "same_constraint"}
        )
    if not alpha_sub.is_subset_of(alpha):
        return Verdict("subset_equivalence", False, {"hypothesis": "pointwise_subset"})
    fwd = is_forward_consistent(alpha)
    if not fwd.holds:
        return Verdict(
            "subset_equivalence",
            False,
            {"hypothesis": "forward_consistency", "detail": fwd.witness},
        )
    try:
        full = tabulate(alpha)
    except NotImplementableError as exc:
        return Verdict(
            "subset_equivalence",
            False,
            {"hypothesis": "implementability", "profile": exc.profile},
        )
    try:
        sub = tabulate(alpha_sub)
    except NotImplementableError as exc:
        return Verdict(
            "subset_equivalence",
            False,
            {"equivalence": "sub_assignment_not_implementable", "profile": exc.profile},
        )
    witness = mechanism_difference(full, sub)
    if witness is not None:
        return Verdict(
            "subset_equivalence",
            False,
            {
                "equivalence": "tables_differ",
                "profile": witness,
                "full_outcome": full.lookup(witness),
                "sub_outcome": sub.lookup(witness),
            },
        )
    return Verdict("subset_equivalence", True)


def verify_union_closure(
    alpha: CompromiserAssignment, alpha2: CompromiserAssignment
) -> Verdict:
    """Two assignments inducing the same group strategy-proof table must have
    a pointwise union inducing it too."""
    if alpha.constraint.feasible != alpha2.constraint.feasible:
        return Verdict("union_closure", False, {"hypothesis": "same_constraint"})
    try:
        t1, t2 = tabulate(alpha), tabulate(alpha2)
    except NotImplementableError as exc:
        return Verdict(
            "union_closure", False, {"hypothesis": "implementability", "profile": exc.profile}
        )
    if mechanism_difference(t1, t2) is not None:
        return Verdict("union_closure", False, {"hypothesis": "equal_tables"})
    gsp = is_group_strategy_proof(t1)
    if not gsp.holds:
        return Verdict(
            "union_closure", False, {"hypothesis": "group_strategy_proof", "detail": gsp.witness}
        )
    union = alpha.union(alpha2)
    try:
        tu = tabulate(union)
    except NotImplementableError as exc:
        return Verdict(
            "union_closure", False, {"union_not_implementable": exc.profile}
        )
    witness = mechanism_difference(t1, tu)
    if witness is not None:
        return Verdict("union_closure", False, {"profile": witness})
    return Verdict("union_closure", True)


@dataclass(frozen=True)
class SearchResult:
    """A verified witness from one of the existence searches."""

    alpha: CompromiserAssignment
    table: MechanismTable
    detail: dict


def find_pe_not_gsp(
    constraints: Iterable[Constraint], budget: int = 50_000
) -> SearchResult | None:
    """Search for an implementable assignment whose table is Pareto efficient
    but bossy (hence not group strategy-proof). Returns None on budget
    exhaustion, never a fabricated witness.

    The candidates are every compromiser assignment of each constraint in
    turn: smallest total cell size first, then, cell by cell in code order,
    by the mask's size and then the mask, ascending, so minimal witnesses
    surface early. `examined` counts the candidates in that order up to the
    witness, skipped ones included, and the search returns None where that
    count would pass the budget.

    Per total, one depth-first loop over the cells runs `engine._walk`
    through the assigned cells, parking states at unassigned cells and
    undoing on backtrack, so each prefix is walked once. It skips a subtree,
    counting its candidates, where the walk fails:
    - a run exhausts on the assigned cells, so every completion exhausts;
    - a run stops at a feasible x whose block is dominated. The block's
      profiles rank exactly the objects in agent i's prefix at or above
      x_i, so a feasible y != x with every y_i in agent i's prefix improves
      on x throughout the block, whatever the later cells hold.
    Every leaf is thus implementable and Pareto efficient, and only leaves
    run `is_nonbossy`.
    """
    # `examined` never passes the budget: a skip that would pass it returns
    # None, and so does a leaf once the budget is spent
    examined = 0
    if budget < 0:
        return None
    for constraint in constraints:
        inst = constraint.instance
        inst.check_profile_budget()
        cells, index = constraint.infeasible_codes, constraint.cell_index
        n, sets, last = inst.n, inst.agent_sets, len(cells)
        # the nonempty masks by size, then value
        order = sorted(range(1, len(sets)), key=lambda mask: (len(sets[mask]), mask))
        sizes = [len(sets[mask]) for mask in order]
        # count[d][r]: the ways to fill cells d on with sizes totalling r
        count = [[1] + [0] * n * last]
        for _ in cells:
            count.insert(0, [sum(count[0][r - s] for s in sizes if s <= r) for r in range(n * last + 1)])
        # per depth: the mask's place in `order`, the size total left for
        # this cell on, and the trail's length when the cell was entered
        masks = [0] * last
        places, lefts, marks = [0] * (last + 1), [0] * (last + 1), [0] * (last + 1)
        table = [0] * inst.num_profiles
        parked: list[list[int]] = [[] for _ in cells]
        trail: list[list[int]] = []
        # a run that stops at its top-choice vector is never dominated
        _walk(inst, index, masks, -1, list(inst.prefix_walk.roots), table, parked, trail)
        dominated = _dominated_prefixes(constraint)
        for total in range(last, n * last + 1):
            depth, places[0], lefts[0], marks[0] = 0, -1, total, len(trail)
            while depth >= 0:
                if depth == last:
                    if examined == budget:
                        return None
                    examined += 1
                    mechanism = MechanismTable(constraint, tuple(table))
                    bossy = is_nonbossy(mechanism)
                    if not bossy.holds:
                        alpha = CompromiserAssignment(constraint, dict(zip(cells, map(sets.__getitem__, masks))))
                        return SearchResult(
                            alpha, mechanism, {"bossiness_witness": bossy.witness, "examined": examined}
                        )
                    depth -= 1
                    continue
                while len(trail) > marks[depth]:
                    trail.pop().pop()
                # the sizes that leave the later cells between 1 and n each
                rest = last - depth - 1
                place = max(places[depth] + 1, bisect.bisect_left(sizes, lefts[depth] - rest * n))
                if place == bisect.bisect_right(sizes, lefts[depth] - rest):
                    depth -= 1
                    continue
                places[depth], masks[depth] = place, order[place]
                left = lefts[depth] - sizes[place]
                if _walk(inst, index, masks, depth, parked[depth][:], table, parked, trail, dominated) is None:
                    depth += 1
                    places[depth], lefts[depth], marks[depth] = -1, left, len(trail)
                elif examined + count[depth + 1][left] > budget:
                    return None
                else:
                    examined += count[depth + 1][left]
    return None


def _dominated_prefixes(constraint: Constraint) -> Callable[[int], bool]:
    """Whether some feasible y other than the walk state's x has every y_i
    in agent i's prefix, from the state's packed prefixes (bit i*m + o when
    agent i's prefix holds o), memoised. x lies in its own prefixes, so
    that is a second feasible allocation within them."""
    m = constraint.instance.m
    held = [sum(1 << i * m + obj for i, obj in enumerate(y)) for y in constraint.feasible_assignments]
    memo: dict[int, bool] = {}

    def dominated(bits: int) -> bool:
        found = memo.get(bits)
        if found is None:
            found = memo[bits] = sum(y & bits == y for y in held) > 1
        return found

    return dominated


def _pick_contingent_dictatorship(
    constraint: Constraint,
    first: int,
    orders: Mapping[int, Sequence[int]],
    profile: Sequence[Sequence[int]],
) -> Assignment:
    """Greedy sequential dictatorship where the order of the later dictators
    depends on the first dictator's pick. Group strategy-proof for the same
    reason serial dictatorship is: every pick is the agent's best surviving
    option and earlier picks are unaffected by later reports."""
    pool = _dictator_picks(constraint.feasible_assignments, (first,), profile)
    return _dictator_picks(pool, orders[pool[0][first]], profile)[0]


def _gsp_backward_candidates(
    constraint: Constraint,
) -> Iterator[tuple[str, object, MechanismTable]]:
    """Group strategy-proof candidate tables: plain serial dictatorships, then
    sequential dictatorships whose continuation order hinges on the first
    dictator's pick."""
    inst = constraint.instance
    for order in itertools.permutations(range(inst.n)):
        yield "serial_dictatorship", order, tabulate(sd_alpha(constraint, order))
    for first in range(inst.n):
        rest = [i for i in range(inst.n) if i != first]
        rest_orders = list(itertools.permutations(rest))
        for combo in itertools.product(rest_orders, repeat=inst.m):
            if len(set(combo)) == 1:
                continue
            orders = dict(enumerate(combo))
            yield "pick_contingent_dictatorship", (first, combo), tabulate_function(
                lambda p: _pick_contingent_dictatorship(constraint, first, orders, p),
                constraint,
            )


def find_gsp_backward_violation(
    constraints: Iterable[Constraint], budget: int = 2_000
) -> SearchResult | None:
    """Search for an implementable assignment that induces a group
    strategy-proof table yet violates strict backward consistency. Candidates
    are canonical assignments derived from greedy dictatorship families over
    the given constraints; None means the budget ran out without a witness."""
    examined = 0
    for constraint in constraints:
        for family, params, table in _gsp_backward_candidates(constraint):
            examined += 1
            if examined > budget:
                return None
            alpha = derive_alpha(table)
            bwd = is_backward_consistent(alpha)
            if bwd.holds:
                continue
            gsp = is_group_strategy_proof(table)
            if not gsp.holds:
                continue
            induced = tabulate(alpha)
            if mechanism_difference(induced, table) is not None:
                continue
            return SearchResult(
                alpha,
                table,
                {
                    "backward_witness": bwd.witness,
                    "family": family,
                    "params": params,
                    "examined": examined,
                },
            )
    return None
