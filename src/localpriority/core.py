"""Ground types for constrained allocation: instances, allocations, preferences,
constraints, and compromiser assignments.

Agents and objects carry string names at the file/CLI boundary; everything
internal is index-based. An allocation is a tuple of object indices (one per
agent) and is canonically identified with its mixed-radix integer code, agent 0
least significant. Sets of allocations are sets of codes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

# A preference is a ranking of all object indices, best first.
Preference = tuple[int, ...]
# A profile is one preference per agent.
Profile = tuple[Preference, ...]
# An allocation as an explicit assignment: object index per agent index.
Assignment = tuple[int, ...]

# Exhaustive sweeps are only meaningful at desk scale.
MAX_ALLOCATION_SPACE = 2**24
DEFAULT_PROFILE_BUDGET = 2_000_000


class ScaleLimitError(ValueError):
    """Instance or sweep exceeds the desk-scale guardrail."""


class MalformedAssignmentError(ValueError):
    """A compromiser assignment has a missing or empty cell where one is required."""


class PrefixWalk(NamedTuple):
    """Per-instance constants of the packed prefix walk (`engine._walk`).

    A walk state is one int. From the least significant bit up it holds an
    allocation code, the first profile index of the state's block, every
    agent's ranking prefix as object bits (bit i*m + o, as `Instance.block`
    reads them) and the number of steps taken. A step adds ints: one `step`,
    and for each mover one of `prefix_options[i][prefix]` less the place
    value of the mover's old object. Every option list and `roots` run from
    the highest block to the lowest, so a stack pops the lowest first."""

    code_mask: int
    base_shift: int
    base_mask: int
    bits_shift: int
    bits_mask: int
    # Per agent, the shift of their prefix bits.
    shifts: tuple[int, ...]
    # A prefix that holds every object.
    full: int
    step: int
    # The first step count past the rank-descent bound n(m - 1) + 1.
    step_cap: int
    # prefix_options[i][prefix]: one packed option per object that can come
    # next after agent i's prefix: the object's place value, the child
    # block's first profile index less its parent's, and the object's bit.
    prefix_options: tuple[tuple[tuple[int, ...], ...], ...]
    # One state per top-choice vector, with no step taken.
    roots: tuple[int, ...]


class SlicePlan(NamedTuple):
    """How the table oracles read the slices of every coalition of one size
    s (`Instance.slice_plan`). A coalition's slice holds the k^s profiles
    that differ only in the members' rankings, one per joint report, in
    report order (first member outermost), which is ascending index order.
    Its base is the profile where every member's rank is 0."""

    # Per coalition, in itertools.combinations order: its members, their
    # parts by code (`Instance.parts`), the ascending slice bases, the
    # ascending offsets of the outer members' joint reports and the last
    # member's stride. At base b the slice's outcomes are, in report order,
    # table[b + o : b + o + k * stride : stride] for each outer offset o.
    coalitions: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...], int], ...]
    # inner[r][q]: the parts whose last member's object that member, ranking
    # r, weakly prefers to their object in part q, as a bitmask.
    inner: tuple[tuple[int, ...], ...]
    # Per outer joint report, in report order: the outer members' rows of
    # the same kind, at their ranks.
    outer_rows: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class Instance:
    """A set of named agents and a shared universe of named objects."""

    agents: tuple[str, ...]
    objects: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.agents or not self.objects:
            raise ValueError("need at least one agent and one object")
        if len(set(self.agents)) != len(self.agents):
            raise ValueError("agent names must be unique")
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("object names must be unique")
        if len(self.objects) ** len(self.agents) > MAX_ALLOCATION_SPACE:
            raise ScaleLimitError(
                f"allocation space {len(self.objects)}^{len(self.agents)} "
                f"exceeds guardrail {MAX_ALLOCATION_SPACE}"
            )

    # Derived tables are cached on the instance (cached_property writes to
    # __dict__, which the frozen dataclass allows); equality and hashing still
    # use only the agents and objects.

    @cached_property
    def n(self) -> int:
        return len(self.agents)

    @cached_property
    def m(self) -> int:
        return len(self.objects)

    @cached_property
    def num_allocations(self) -> int:
        return self.m**self.n

    @cached_property
    def num_profiles(self) -> int:
        return math.factorial(self.m) ** self.n

    @cached_property
    def powers(self) -> tuple[int, ...]:
        """Place value of each agent's object in an allocation code."""
        return tuple(self.m**i for i in range(self.n))

    @cached_property
    def preference_rank(self) -> dict[Preference, int]:
        """Rank of each strict ranking in the canonical lexicographic order."""
        return {p: r for r, p in enumerate(self.all_preferences())}

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Per agent, the step in the dense profile index for one step in
        their ranking's rank (agent 0 most significant)."""
        k = math.factorial(self.m)
        return tuple(k ** (self.n - 1 - i) for i in range(self.n))

    @cached_property
    def factorials(self) -> tuple[int, ...]:
        """factorials[k] = k! for k = 0..m."""
        return tuple(math.factorial(k) for k in range(self.m + 1))

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """members[mask]: the agents in the mask (bit i for agent i), ascending.
        With `agent_sets` and `mask_of`, the one conversion between masks and
        agent sets."""
        return tuple(tuple(i for i in range(self.n) if mask >> i & 1) for mask in range(1 << self.n))

    @cached_property
    def agent_sets(self) -> tuple[frozenset[int], ...]:
        """agent_sets[mask]: the agents in the mask as a frozenset, a cell's type."""
        return tuple(map(frozenset, self.members))

    @cached_property
    def mask_of(self) -> dict[frozenset[int], int]:
        """The mask of each agent set; inverts `agent_sets`."""
        return {agents: mask for mask, agents in enumerate(self.agent_sets)}

    @cached_property
    def cell_values(self) -> frozenset[frozenset[int]]:
        """The nonempty agent sets: every value a cell may hold."""
        return frozenset(self.agent_sets[1:])

    @cached_property
    def agent_set_names(self) -> dict[frozenset[int], tuple[str, ...]]:
        """Each agent set's agent names, in agent order."""
        return {
            agents: tuple(map(self.agents.__getitem__, members))
            for agents, members in zip(self.agent_sets, self.members)
        }

    @cached_property
    def prefix_walk(self) -> PrefixWalk:
        """The packing constants of `engine._walk` on this instance."""
        n, m, fact = self.n, self.m, self.factorials
        code_bits = (self.num_allocations - 1).bit_length()
        base_bits = (self.num_profiles - 1).bit_length()
        bits_shift = code_bits + base_bits
        step = 1 << bits_shift + n * m
        # The rankings that share a prefix of length L form one contiguous
        # range of (m - L)! ranks, and the j-th unused object's child range
        # starts j * (m - L - 1)! ranks after its parent's.
        options = []
        for i, (place, stride) in enumerate(zip(self.powers, self.strides)):
            per_mask = []
            for mask in range(1 << m):
                unused = [obj for obj in range(m) if not mask >> obj & 1]
                span = fact[len(unused) - 1] * stride if unused else 0
                per_mask.append(tuple(
                    obj * place + (j * span << code_bits) + (1 << bits_shift + i * m + obj)
                    for j, obj in reversed(list(enumerate(unused)))
                ))
            options.append(tuple(per_mask))
        roots = [0]
        for per_mask in options:
            roots = [state + option for state in roots for option in per_mask[0]]
        return PrefixWalk(
            code_mask=(1 << code_bits) - 1,
            base_shift=code_bits,
            base_mask=(1 << base_bits) - 1,
            bits_shift=bits_shift,
            bits_mask=(1 << n * m) - 1,
            shifts=tuple(bits_shift + i * m for i in range(n)),
            full=(1 << m) - 1,
            step=step,
            step_cap=(n * (m - 1) + 1) * step,
            prefix_options=tuple(options),
            roots=tuple(roots),
        )

    @cached_property
    def _blocks(self) -> dict[int, tuple[tuple[int, ...], int]]:
        """Results of `block`, keyed by packed prefixes."""
        return {}

    def block(self, bits: int) -> tuple[tuple[int, ...], int]:
        """The profiles whose rankings start with the prefixes packed in
        `bits` (bit i*m + o when agent i's prefix holds object o), as runs of
        the dense index: each run's start relative to the block's first
        profile, and the run length. Agent i's rankings with a prefix of
        length L form a contiguous range of (m - L)! ranks, so the block is
        the product of the agents' ranges, and the last agent's range is one
        run."""
        found = self._blocks.get(bits)
        if found is None:
            m, fact = self.m, self.factorials
            full = (1 << m) - 1
            spans = [fact[m - (bits >> i * m & full).bit_count()] for i in range(self.n)]
            starts = [0]
            for span, stride in zip(spans[:-1], self.strides):
                starts = [s + k * stride for s in starts for k in range(span)]
            found = self._blocks[bits] = (tuple(starts), spans[-1])
        return found

    @cached_property
    def _moves(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Results of `moves`, keyed by code << n | mask."""
        return {}

    def moves(self, code: int, mask: int) -> tuple[tuple[int, int], ...]:
        """Every move out of `code` by a nonempty subset of the agents in
        `mask`, each one giving every agent of the subset a different object,
        as (new code, subset mask): subsets in itertools.combinations order,
        and within a subset product order, lowest agent outermost and objects
        ascending. The one enumerator of moved allocations. Works on place
        values, so nothing is decoded."""
        key = code << self.n | mask
        found = self._moves.get(key)
        if found is None:
            m, powers = self.m, self.powers
            # one entry per subset of one size, in combinations order: its
            # mask and codes, starting with each agent's moves alone
            level = []
            for i in self.members[mask]:
                place = powers[i]
                old = code // place % m * place
                level.append((1 << i, [code - old + new for new in range(0, m * place, place) if new != old]))
            singles = level
            out = []
            while level:
                for sub, codes in level:
                    out += [(c, sub) for c in codes]
                # extending each subset by every agent above its highest
                # lists the next size in combinations order too
                level = [
                    (sub | bit, [c + y - code for c in codes for y in alone])
                    for sub, codes in level
                    for bit, alone in singles
                    if bit > sub
                ]
            found = self._moves[key] = tuple(out)
        return found

    @cached_property
    def _steps(self) -> dict[int, tuple[tuple[int, int, int], ...]]:
        """Results of `steps`, keyed by code << n | mask."""
        return {}

    def steps(self, code: int, mask: int) -> tuple[tuple[int, int, int], ...]:
        """Compromise-path steps out of `code` when its compromisers are the
        agents in `mask`: `moves(code, mask)` in its order, each as (new
        code, arrived bits, left bits). Bit i*m + o stands for agent i
        holding object o, at the new code or at `code` respectively."""
        key = code << self.n | mask
        found = self._steps.get(key)
        if found is None:
            bits = self.object_bits
            found = self._steps[key] = tuple(
                (y, bits[y] & ~bits[code], bits[code] & ~bits[y]) for y, _ in self.moves(code, mask)
            )
        return found

    @cached_property
    def object_bits(self) -> tuple[int, ...]:
        """Per code, bit i*m + o set for each agent i and the object o they
        hold: a step's arrived and left bits are two masks of it, and the
        Pareto test's held allocations are its feasible entries."""
        bits = [0]
        for i in range(self.n):
            bits = [b | 1 << (i * self.m + obj) for obj in range(self.m) for b in bits]
        return tuple(bits)

    @cached_property
    def decode_table(self) -> tuple[Assignment, ...]:
        """Every assignment by code. Dense, so only table sweeps build it."""
        return tuple(self.all_assignments())

    @cached_property
    def code_names(self) -> tuple[tuple[str, ...], ...]:
        """Every allocation's object names by code: the one conversion from
        a code to names. Dense, like `decode_table`, so only writers and
        error messages build it."""
        return tuple(map(self.assignment_names, self.all_assignments()))

    def parts(self, mask: int) -> tuple[int, ...]:
        """Per allocation code, the part the agents in `mask` hold: their
        objects as a base-m number, lowest agent least significant. Only
        `slice_plan`, memoised per size, reads it, so it keeps no memo."""
        members = self.members[mask]
        places = [self.m**j for j in range(len(members))]
        return tuple(sum(a[i] * place for i, place in zip(members, places)) for a in self.decode_table)

    def part_sets(self, size: int) -> tuple[tuple[int, ...], ...]:
        """part_sets(size)[j][objs]: bitmask of the parts of a coalition of
        `size` agents (see `parts`) whose j-th member holds an object in the
        bitmask `objs`. Read once per `slice_plan`, like `parts`."""
        m = self.m
        return tuple(
            tuple(sum(1 << p for p in range(m**size) if objs >> (p // m**j % m) & 1) for objs in range(1 << m))
            for j in range(size)
        )

    @cached_property
    def _slice_plans(self) -> dict[int, SlicePlan]:
        """Results of `slice_plan`, keyed by size."""
        return {}

    def slice_plan(self, size: int) -> SlicePlan:
        """The slices of every coalition of `size` agents (see `SlicePlan`)."""
        found = self._slice_plans.get(size)
        if found is None:
            n, m, strides, weak = self.n, self.m, self.strides, self.weakly_better
            k = len(weak)
            # rows[j][r][q]: `SlicePlan.inner` for member j
            rows = [
                tuple(tuple(objs[row[q // m**j % m]] for q in range(m**size)) for row in weak)
                for j, objs in enumerate(self.part_sets(size))
            ]
            coalitions = []
            for members in itertools.combinations(range(n), size):
                bases, outer = [0], [0]
                for i in range(n):
                    if i not in members:
                        bases = [b + r * strides[i] for b in bases for r in range(k)]
                for i in members[:-1]:
                    outer = [o + r * strides[i] for o in outer for r in range(k)]
                mask = sum(1 << i for i in members)
                coalitions.append((members, self.parts(mask), tuple(bases), tuple(outer), strides[members[-1]]))
            outer_rows = [()]
            for member_rows in rows[:-1]:
                outer_rows = [prefix + (row,) for prefix in outer_rows for row in member_rows]
            found = self._slice_plans[size] = SlicePlan(tuple(coalitions), rows[-1], tuple(outer_rows))
        return found

    @cached_property
    def top_codes(self) -> tuple[int, ...]:
        """Per profile, in dense index order, the code of its top-choice
        vector."""
        tops = [pref[0] for pref in self.all_preferences()]
        codes = [0]
        for place in self.powers:
            codes = [code + top * place for code in codes for top in tops]
        return tuple(codes)

    @cached_property
    def weakly_better(self) -> tuple[tuple[int, ...], ...]:
        """weakly_better[rank][obj]: bitmask of the objects that the ranking
        of that rank places at or above obj."""
        out = []
        for pref in self.all_preferences():
            row = [0] * self.m
            above = 0
            for obj in pref:
                above |= 1 << obj
                row[obj] = above
            out.append(tuple(row))
        return tuple(out)

    def encode(self, assignment: Sequence[int]) -> int:
        """Mixed-radix code of an assignment, agent 0 least significant."""
        n, m = self.n, self.m
        if len(assignment) != n:
            raise ValueError(f"assignment length {len(assignment)} != {n} agents")
        code = 0
        for i in reversed(range(n)):
            obj = assignment[i]
            if not 0 <= obj < m:
                raise ValueError(f"invalid object index {obj}")
            code = code * m + obj
        return code

    def decode(self, code: int) -> Assignment:
        if not 0 <= code < self.num_allocations:
            raise ValueError(f"allocation code {code} out of range")
        m = self.m
        out = []
        for _ in range(self.n):
            code, obj = divmod(code, m)
            out.append(obj)
        return tuple(out)

    def all_assignments(self) -> Iterator[Assignment]:
        """All m^n assignments in increasing code order."""
        for code in range(self.num_allocations):
            yield self.decode(code)

    def agent_index(self, name: str) -> int:
        try:
            return self.agents.index(name)
        except ValueError:
            raise ValueError(f"unknown agent name {name!r}") from None

    def object_index(self, name: str) -> int:
        try:
            return self.objects.index(name)
        except ValueError:
            raise ValueError(f"unknown object name {name!r}") from None

    def assignment_names(self, assignment: Sequence[int]) -> tuple[str, ...]:
        return tuple(self.objects[o] for o in assignment)

    def all_preferences(self) -> tuple[Preference, ...]:
        """All m! strict rankings in lexicographic order."""
        return self._preferences

    @cached_property
    def _preferences(self) -> tuple[Preference, ...]:
        return tuple(itertools.permutations(range(self.m)))

    def all_profiles(self) -> Iterator[Profile]:
        """All (m!)^n profiles, lexicographic by per-agent permutation rank."""
        return itertools.product(self.all_preferences(), repeat=self.n)

    def rank_tuples(self) -> Iterator[tuple[int, ...]]:
        """Per-agent ranking ranks of every profile, in dense index order."""
        return itertools.product(range(self.factorials[self.m]), repeat=self.n)

    def profile_at(self, index: int) -> Profile:
        """The profile at a canonical dense index; inverse of profile_index."""
        if not 0 <= index < self.num_profiles:
            raise ValueError(f"profile index {index} out of range")
        prefs = self.all_preferences()
        return tuple(prefs[index // s % len(prefs)] for s in self.strides)

    def check_profile_budget(self) -> None:
        if self.num_profiles > DEFAULT_PROFILE_BUDGET:
            raise ScaleLimitError(
                f"profile sweep of size {self.num_profiles} exceeds budget {DEFAULT_PROFILE_BUDGET}"
            )


@dataclass(frozen=True)
class Constraint:
    """A nonempty set of feasible allocations, stored as codes, plus the
    generator tag it was built from (for file round trips)."""

    instance: Instance
    feasible: frozenset[int]
    generator: tuple = ("explicit",)

    def __post_init__(self) -> None:
        if not self.feasible:
            raise ValueError("constraint must be nonempty")
        top = self.instance.num_allocations
        for code in self.feasible:
            # testing the type first keeps a string from raising TypeError
            # and 2.0, which equals code 2, from passing
            if not (isinstance(code, int) and 0 <= code < top):
                raise ValueError(f"feasible code {code!r} is not an allocation code")

    @cached_property
    def infeasible_codes(self) -> tuple[int, ...]:
        """The infeasible allocations, the cells of a compromiser assignment,
        in code order."""
        return tuple(c for c in range(self.instance.num_allocations) if c not in self.feasible)

    @cached_property
    def infeasible_set(self) -> frozenset[int]:
        """`infeasible_codes` as a set: the keys of every compromiser assignment."""
        return frozenset(self.infeasible_codes)

    @cached_property
    def cell_index(self) -> tuple[int, ...]:
        """Each allocation's place in `infeasible_codes`, by code; -1 where
        the allocation is feasible."""
        index = [-1] * self.instance.num_allocations
        for k, code in enumerate(self.infeasible_codes):
            index[code] = k
        return tuple(index)

    @cached_property
    def feasible_assignments(self) -> tuple[Assignment, ...]:
        """The feasible allocations, decoded once per constraint, in code order."""
        inst = self.instance
        return tuple(inst.decode(c) for c in sorted(self.feasible))


def house_constraint(instance: Instance) -> Constraint:
    """All-distinct assignments (school choice with unit capacities)."""
    feas = frozenset(
        instance.encode(a)
        for a in instance.all_assignments()
        if len(set(a)) == instance.n
    )
    if not feas:
        raise ValueError("house constraint empty: need at least as many objects as agents")
    return Constraint(instance, feas, ("house",))


def school_constraint(instance: Instance, capacities: Sequence[int]) -> Constraint:
    """Per-object capacity caps; requires sum of capacities >= n."""
    if len(capacities) != instance.m:
        raise ValueError("one capacity per object required")
    if any(q < 0 for q in capacities):
        raise ValueError("capacities must be nonnegative")
    if sum(capacities) < instance.n:
        raise ValueError("capacities sum below the number of agents")
    feas = []
    for code in range(instance.num_allocations):
        a = instance.decode(code)
        if all(a.count(obj) <= capacities[obj] for obj in set(a)):
            feas.append(code)
    return Constraint(instance, frozenset(feas), ("school", tuple(capacities)))


def social_constraint(instance: Instance) -> Constraint:
    """All agents receive the same object (Arrovian social choice)."""
    feas = frozenset(
        instance.encode((obj,) * instance.n) for obj in range(instance.m)
    )
    return Constraint(instance, feas, ("social",))


def _require_objects_are_agents(instance: Instance) -> None:
    if instance.objects != instance.agents:
        raise ValueError("matching constraints need objects identical to agents")


def one_sided_constraint(instance: Instance) -> Constraint:
    """Roommates: mu(mu(i)) = i, self-match means unmatched."""
    _require_objects_are_agents(instance)
    feas = []
    for code in range(instance.num_allocations):
        a = instance.decode(code)
        if all(a[a[i]] == i for i in range(instance.n)):
            feas.append(code)
    return Constraint(instance, frozenset(feas), ("one_sided",))


def two_sided_constraint(
    instance: Instance, men: Iterable[str], women: Iterable[str]
) -> Constraint:
    """Marriage matching: involution plus cross-side restrictions."""
    _require_objects_are_agents(instance)
    men_idx = frozenset(instance.agent_index(x) for x in men)
    women_idx = frozenset(instance.agent_index(x) for x in women)
    if men_idx & women_idx or men_idx | women_idx != set(range(instance.n)):
        raise ValueError("men and women must partition the agents")
    feas = []
    for code in range(instance.num_allocations):
        a = instance.decode(code)
        ok = all(a[a[i]] == i for i in range(instance.n))
        ok = ok and all(a[i] in women_idx or a[i] == i for i in men_idx)
        ok = ok and all(a[j] in men_idx or a[j] == j for j in women_idx)
        if ok:
            feas.append(code)
    return Constraint(
        instance, frozenset(feas), ("two_sided", tuple(sorted(men_idx)), tuple(sorted(women_idx)))
    )


@dataclass(frozen=True)
class CompromiserAssignment:
    """Map from every infeasible allocation code to a nonempty frozenset of agents.

    Feasible allocations implicitly map to the empty set.
    """

    constraint: Constraint
    cells: Mapping[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Valid exactly when the cells sit on the infeasible codes and each
        # holds a nonempty agent set: two set comparisons decide it. An
        # unhashable value is not an agent set. Only a failing assignment
        # runs `_explain`, which names the problem.
        try:
            valid = (
                self.cells.keys() == self.constraint.infeasible_set
                and self.constraint.instance.cell_values.issuperset(self.cells.values())
            )
        except TypeError:
            valid = False
        if not valid:
            self._explain()

    def _explain(self) -> None:
        """Raise `MalformedAssignmentError` naming the first problem: cell by
        cell in mapping order, then the first missing cell by code."""
        inst = self.constraint.instance
        feasible = self.constraint.feasible
        for code, agents in self.cells.items():
            if code not in range(inst.num_allocations):
                raise MalformedAssignmentError(f"cell code {code} out of range")
            if code in feasible:
                raise MalformedAssignmentError(f"cell on feasible allocation {inst.code_names[code]}")
            if not agents:
                raise MalformedAssignmentError(f"empty cell at {inst.code_names[code]}")
            if not isinstance(agents, frozenset):
                names, kind = inst.code_names[code], type(agents).__name__
                raise MalformedAssignmentError(f"cell at {names} is a {kind}, not a frozenset")
            if agents not in inst.cell_values:
                raise MalformedAssignmentError(f"invalid agent index in cell {code}")
        for code in range(inst.num_allocations):
            if code not in feasible and code not in self.cells:
                raise MalformedAssignmentError(f"missing cell at infeasible {inst.code_names[code]}")

    @property
    def instance(self) -> Instance:
        return self.constraint.instance

    def cell(self, code: int) -> frozenset[int]:
        return self.cells.get(code, frozenset())

    def is_subset_of(self, other: CompromiserAssignment) -> bool:
        """Pointwise cell inclusion (constraints may differ)."""
        top = self.instance.num_allocations
        if top != other.instance.num_allocations:
            return False
        return all(self.cell(c) <= other.cell(c) for c in range(top))

    def union(self, other: CompromiserAssignment) -> CompromiserAssignment:
        """Pointwise union; requires identical constraints."""
        if self.constraint.feasible != other.constraint.feasible:
            raise ValueError("pointwise union needs a common constraint")
        cells = {
            code: self.cells[code] | other.cells[code] for code in self.cells
        }
        return CompromiserAssignment(self.constraint, cells)


def make_alpha(
    constraint: Constraint, cells: Mapping[int, Iterable[int]]
) -> CompromiserAssignment:
    """Build a compromiser assignment from any {code: agents} mapping."""
    return CompromiserAssignment(
        constraint, {code: frozenset(agents) for code, agents in cells.items()}
    )


def contours(pref: Preference, obj: int) -> tuple[frozenset[int], frozenset[int]]:
    """Strict lower and upper contour sets of an object under a ranking."""
    try:
        pos = pref.index(obj)
    except ValueError:
        raise ValueError(f"object {obj} not ranked") from None
    return frozenset(pref[pos + 1 :]), frozenset(pref[:pos])


def tau(x: Preference | Profile, k: int) -> int | Assignment:
    """k-th top choice (1-based) of a preference, or the k-th-choice vector of
    a profile."""
    if not x:
        raise ValueError("empty preference or profile")
    if isinstance(x[0], tuple):
        return tuple(pref[_tau_check(pref, k)] for pref in x)
    return x[_tau_check(x, k)]


def _tau_check(pref: Sequence[int], k: int) -> int:
    if not 1 <= k <= len(pref):
        raise ValueError(f"rank {k} out of range 1..{len(pref)}")
    return k - 1


def diff(x: Sequence[int], y: Sequence[int]) -> frozenset[int]:
    """Agents whose objects differ between two allocations."""
    if len(x) != len(y):
        raise ValueError("allocations must be over the same instance")
    return frozenset(i for i in range(len(x)) if x[i] != y[i])


def profiles_with_tops(instance: Instance, mu: Sequence[int]) -> Iterator[Profile]:
    """All ((m-1)!)^n profiles whose top-choice vector equals mu, in canonical
    lexicographic order."""
    if len(mu) != instance.n:
        raise ValueError("top vector must assign one object per agent")
    per_agent: list[list[Preference]] = []
    for i in range(instance.n):
        top = mu[i]
        if not 0 <= top < instance.m:
            raise ValueError(f"invalid object index {top}")
        rest = [o for o in range(instance.m) if o != top]
        per_agent.append([(top, *tail) for tail in itertools.permutations(rest)])
    return itertools.product(*per_agent)


def profile_index(instance: Instance, profile: Profile) -> int:
    """Canonical dense index of a profile (agent 0 most significant)."""
    ranks = instance.preference_rank
    idx = 0
    for pref in profile:
        idx = idx * len(ranks) + ranks[pref]
    return idx
