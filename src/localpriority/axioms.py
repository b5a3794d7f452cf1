"""Exact brute-force oracles: strategy-proofness, group strategy-proofness,
nonbossiness, Maskin monotonicity, Pareto efficiency, and the three conditions
characterizing local priority mechanisms (unanimity, fixed compromiser,
compromiser invariance), plus the canonical compromiser assignment derived
from a mechanism table.

The oracles that compare a profile with one agent's or one coalition's
misreports walk the table one slice at a time (`Instance.slice_plan`) and keep
the least witness. Every witness is the first in canonical order, so it is
minimal-lexicographic and reproducible.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .core import (
    Assignment,
    CompromiserAssignment,
    Constraint,
    Instance,
    Preference,
    Profile,
    ScaleLimitError,
    profiles_with_tops,
)
from .engine import MechanismTable, mechanism_difference, tabulate

MASKIN_PAIR_BUDGET = 25_000_000


@dataclass(frozen=True)
class Verdict:
    """Result of one axiom check; a failing verdict carries a structured,
    independently re-checkable counterexample."""

    name: str
    holds: bool
    witness: dict | None = None
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class FunctionMechanism:
    """A mechanism given intensionally, for instances too large to tabulate."""

    instance: Instance
    fn: Callable[[Profile], Assignment]

    def lookup(self, profile: Profile) -> Assignment:
        return tuple(self.fn(profile))


Mechanism = MechanismTable | FunctionMechanism


def bottom_rank(pref: Preference, obj: int) -> Preference:
    """Move one object to the bottom, preserving the rest of the order."""
    return tuple(o for o in pref if o != obj) + (obj,)


def is_strategy_proof(f: MechanismTable) -> Verdict:
    """No single agent gains by misreporting, at any profile."""
    return _coalition_sweep(f, (1,), "strategy_proof")


def is_nonbossy(f: MechanismTable) -> Verdict:
    """No agent changes others' assignments without changing their own.

    An agent's slice (`Instance.slice_plan`) is bossy iff one object of
    theirs comes with two distinct outcomes in it. Each agent's slices are
    walked in ascending base order, keeping the least (profile, agent) at
    which a report changes the outcome but not the agent's object, with the
    first such report, and stopping at the first base past it."""
    inst = f.instance
    table, dec, prefs = f.table, inst.decode_table, inst.all_preferences()
    witness, limit = None, inst.num_profiles
    for (agent,), parts, bases, _, stride in inst.slice_plan(1).coalitions:
        own, span = parts.__getitem__, len(prefs) * stride
        for base in bases:
            if base >= limit:
                break
            codes = table[base : base + span : stride]
            distinct = set(codes)
            if len(distinct) == len(set(map(own, distinct))):
                continue
            shared = Counter(map(own, distinct))
            r = next(r for r, code in enumerate(codes) if shared[own(code)] > 1)
            pidx = base + r * stride
            if pidx < limit:
                x = codes[r]
                r2 = next(r2 for r2, y in enumerate(codes) if y != x and own(y) == own(x))
                limit, witness = pidx, {
                    "profile": inst.profile_at(pidx),
                    "agent": agent,
                    "misreport": prefs[r2],
                    "truthful_outcome": dec[x],
                    "deviation_outcome": dec[codes[r2]],
                }
    return Verdict("nonbossy", witness is None, witness)


def is_group_strategy_proof(f: MechanismTable, exhaustive: bool = False) -> Verdict:
    """No coalition misreport leaves every member weakly better and one
    strictly better.

    Default mode checks singletons and pairs, which is equivalent to checking
    all coalition sizes; `exhaustive` sweeps every coalition. Either way a
    coalition tests, at each profile, the distinct parts it can reach in its
    slice of the table, not every joint report, and the witness is the first
    improving joint report in report order (see `_coalition_sweep`).
    """
    sizes = range(1, f.instance.n + 1) if exhaustive else (1, 2)
    return _coalition_sweep(f, sizes, "group_strategy_proof")


def _coalition_sweep(f: MechanismTable, sizes: Iterable[int], name: str) -> Verdict:
    """First coalition misreport, by size, then profile, coalition and
    reports, that leaves every member weakly better and one strictly better.
    A size-1 witness of strategy_proof names the agent and misreport.

    Each coalition S walks its slices (`Instance.slice_plan`) in ascending
    base order. Whether a report improves depends only on the part S holds
    there (`Instance.parts`), so a slice's first violated profile and first
    improving report depend only on its parts in report order, and each
    distinct sequence of them is decided once per size (`_first_gain`). The
    sweep keeps the least violated profile of a size, taking the first
    coalition in order at a tie, and a coalition stops at the first slice
    whose base reaches it. So the witness is the one a walk over every
    profile, coalition and joint report finds.
    """
    inst = f.instance
    table, dec, k = f.table, inst.decode_table, len(inst.all_preferences())
    # gather(parts): the coalition's part at every profile. The extra item,
    # past every slice, keeps the result a tuple on a one-profile table.
    gather = operator.itemgetter(*table, 0)
    for size in sizes:
        plan = inst.slice_plan(size)
        gains: dict[tuple[int, ...], tuple[int, int] | None] = {}
        witness, limit = None, inst.num_profiles
        for members, parts, bases, outer, stride in plan.coalitions:
            held, span = gather(parts), k * stride
            for base in bases:
                if base >= limit:
                    break
                if size == 1:  # one member: the slice is one strided read
                    got = held[base : base + span : stride]
                else:
                    got = tuple(itertools.chain.from_iterable([held[base + o : base + o + span : stride] for o in outer]))
                hit = gains.get(got, ())  # () until the sequence is decided
                if hit == ():
                    hit = gains[got] = _first_gain(got, plan.inner, plan.outer_rows)
                if hit is None:
                    continue
                pidx, idx = (base + outer[t // k] + t % k * stride for t in hit)
                if pidx < limit:
                    deviation = inst.profile_at(idx)
                    misreports = tuple(deviation[i] for i in members)
                    if name == "strategy_proof":
                        who = {"agent": members[0], "misreport": misreports[0]}
                    else:
                        who = {"coalition": members, "misreports": misreports}
                    limit, witness = pidx, {
                        "profile": inst.profile_at(pidx),
                        **who,
                        "truthful_outcome": dec[table[pidx]],
                        "deviation_outcome": dec[table[idx]],
                    }
        if witness is not None:
            return Verdict(name, False, witness)
    return Verdict(name, True)


def _first_gain(
    got: tuple[int, ...], inner: Sequence[Sequence[int]], outer_rows: Sequence[Sequence[Sequence[int]]]
) -> tuple[int, int] | None:
    """Of a slice whose coalition holds the parts `got` in report order (see
    `SlicePlan`): the first position where another part of the slice is
    weakly better for every member, and the first position holding such a
    part; None if there is none."""
    image = 0
    for part in set(got):
        image |= 1 << part
    if not image & (image - 1):
        return None
    k, parts = len(inner), iter(got)
    for u, rows in enumerate(outer_rows):
        for r, (row, part) in enumerate(zip(inner, parts)):
            wanted = row[part]
            for outer_row in rows:
                wanted &= outer_row[part]
            found = wanted & image
            if found & (found - 1):
                return u * k + r, next(t for t, other in enumerate(got) if other != part and wanted >> other & 1)
    return None


def is_maskin_monotonic(f: MechanismTable) -> Verdict:
    """Outcome preserved whenever every agent's lower contour set at their
    assigned object weakly expands.

    Elementary transformations decide the verdict: one agent swaps two
    adjacent objects in their ranking without moving their own object down.
    Every transformation that expands the lower contour sets is a chain of
    these, each expanding them, so a table holds iff no elementary one
    changes the outcome. On an agent's slice (`Instance.slice_plan`) that
    holds iff each of the agent's objects comes with one outcome, and every
    elementary swap of a ranking keeps the agent's object there; the second
    depends only on the agent's objects by rank, so it is decided once per
    distinct sequence of them.

    Only a failing table is walked pair by pair, to name the first witness
    (`_maskin_witness`).
    """
    inst = f.instance
    table, m, rank, prefs = f.table, inst.m, inst.preference_rank, inst.all_preferences()
    # raises[r][obj]: the ranks one adjacent swap reaches from rank r
    # without moving obj down
    raises = [
        [
            tuple(rank[pref[:j] + (pref[j + 1], pref[j]) + pref[j + 2 :]] for j in range(m - 1) if pref[j] != obj)
            for obj in range(m)
        ]
        for pref in prefs
    ]
    kept: dict[tuple[int, ...], bool] = {}
    for _, parts, bases, _, stride in inst.slice_plan(1).coalitions:
        own, span = parts.__getitem__, len(prefs) * stride
        for base in bases:
            codes = table[base : base + span : stride]
            distinct = set(codes)
            if len(distinct) == 1:
                continue  # a constant slice keeps its outcome
            if len(distinct) != len(set(map(own, distinct))):
                return _maskin_witness(f)
            objs = tuple(map(own, codes))
            ok = kept.get(objs)
            if ok is None:
                ok = kept[objs] = all(objs[r2] == obj for r, obj in enumerate(objs) for r2 in raises[r][obj])
            if not ok:
                return _maskin_witness(f)
    return Verdict("maskin_monotonic", True)


def _maskin_witness(f: MechanismTable) -> Verdict:
    """The first Maskin violation of a failing table. For each profile p,
    visits only the profiles q where every agent's lower contour set at f(p)
    weakly expands, in ascending index order, so the witness is the one a
    sweep over all profile pairs finds. MASKIN_PAIR_BUDGET bounds the number
    of these pairs, which is counted before any pair is visited."""
    inst = f.instance
    table, dec, strides, n, m = f.table, inst.decode_table, inst.strides, inst.n, inst.m
    # A ranking's lower contour set at obj contains a given set of c objects
    # iff it ranks obj first among those c + 1 objects, as k / (c + 1) of the
    # k rankings do. With u objects at or above obj, c = m - u are below it.
    k = len(inst.all_preferences())
    weak = inst.weakly_better
    widths = [[k // (m + 1 - upper.bit_count()) for upper in row] for row in weak]
    pairs = 0
    for pranks, xc in zip(inst.rank_tuples(), table):
        pairs += math.prod(widths[r][obj] for r, obj in zip(pranks, dec[xc]))
        if pairs > MASKIN_PAIR_BUDGET:
            raise ScaleLimitError("profile-pair sweep exceeds the Maskin budget")
    # A ranking's lower contour set at obj contains another's iff the objects
    # it places at or above obj are among the other's.
    # axes[i, obj, upper]: ascending index offsets of agent i's rankings that
    # place at or above obj only objects in the bitmask upper
    axes: dict[tuple[int, int, int], tuple[int, ...]] = {}
    for pidx, (pranks, xc) in enumerate(zip(inst.rank_tuples(), table)):
        x = dec[xc]
        # q's index is one offset per agent summed; agent 0 has the largest
        # stride, so the qualifying indices come out ascending
        qs = [0]
        for i in range(n):
            obj = x[i]
            upper = weak[pranks[i]][obj]
            axis = axes.get((i, obj, upper))
            if axis is None:
                axis = axes[i, obj, upper] = tuple(
                    s * strides[i] for s, row in enumerate(weak) if row[obj] | upper == upper
                )
            qs = [q + off for q in qs for off in axis]
        for qidx in qs:
            if table[qidx] != xc:
                return Verdict(
                    "maskin_monotonic",
                    False,
                    {
                        "profile": inst.profile_at(pidx),
                        "transformed_profile": inst.profile_at(qidx),
                        "outcome": x,
                        "transformed_outcome": dec[table[qidx]],
                    },
                )
    raise AssertionError("no pair refutes a table that an elementary transformation refutes")


def _feasible_within(constraint: Constraint) -> Callable[[int], tuple[int, ...]]:
    """The one Pareto test. From packed upper sets (bit i*m + o when agent i
    weakly prefers o to what they hold), memoised, the places in
    `feasible_assignments` of the first two feasible allocations whose every
    y_i lies in agent i's upper set. The allocation held lies in its own
    upper sets, so a second match Pareto-improves on it."""
    held = [constraint.instance.object_bits[code] for code in sorted(constraint.feasible)]
    memo: dict[int, tuple[int, ...]] = {}

    def within(bits: int) -> tuple[int, ...]:
        found = memo.get(bits)
        if found is None:
            found = memo[bits] = tuple(itertools.islice((k for k, y in enumerate(held) if y & bits == y), 2))
        return found

    return within


def is_pareto_efficient(f: MechanismTable) -> Verdict:
    """No feasible allocation weakly improves on the outcome for everyone and
    strictly for someone, at any profile."""
    inst = f.instance
    dec, m = inst.decode_table, inst.m
    feasible = f.constraint.feasible_assignments
    within = _feasible_within(f.constraint)
    # upper[i][rank][obj]: `weakly_better[rank][obj]` at agent i's bits
    upper = [[tuple(objs << i * m for objs in row) for row in inst.weakly_better] for i in range(inst.n)]
    for pidx, (pranks, xc) in enumerate(zip(inst.rank_tuples(), f.table)):
        bits = 0
        for rows, r, obj in zip(upper, pranks, dec[xc]):
            bits |= rows[r][obj]
        found = within(bits)
        if len(found) > 1:
            x = dec[xc]
            return Verdict(
                "pareto_efficient",
                False,
                {
                    "profile": inst.profile_at(pidx),
                    "outcome": x,
                    "improvement": next(feasible[k] for k in found if feasible[k] != x),
                },
            )
    return Verdict("pareto_efficient", True)


def _image_note(f: MechanismTable) -> tuple[str, ...]:
    image = f.image()
    if image != f.constraint.feasible:
        missing = sorted(f.constraint.feasible - image)
        return (f"declared constraint has {len(missing)} feasible allocations outside the image; image used",)
    return ()


def check_unanimity(f: MechanismTable) -> Verdict:
    """Whenever the top-choice vector lies in the image, it is chosen: the
    first profile whose top code (`Instance.top_codes`) is in the image but
    not its outcome refutes it."""
    inst = f.instance
    image, tops = f.image(), inst.top_codes
    notes = _image_note(f)
    pidx = next((p for p, (tc, xc) in enumerate(zip(tops, f.table)) if tc != xc and tc in image), None)
    if pidx is None:
        return Verdict("unanimity", True, None, notes)
    return Verdict(
        "unanimity",
        False,
        {
            "profile": inst.profile_at(pidx),
            "tops": inst.decode(tops[pidx]),
            "outcome": inst.decode(f.table[pidx]),
        },
        notes,
    )


def fixed_compromisers(
    f: Mechanism, mu: Sequence[int], profiles: Iterable[Profile]
) -> frozenset[int]:
    """Agents who miss their component of mu at every given profile, each of
    which must top-rank mu. This upper-bounds the fixed-compromiser set, so an
    empty result refutes the condition at mu; a table's exact sets are
    `MechanismTable.fixed_compromiser_sets`."""
    inst = f.instance
    mu = tuple(mu)
    remaining = set(range(inst.n))
    for p in profiles:
        if tuple(pref[0] for pref in p) != mu:
            raise ValueError("profile does not top-rank mu")
        out = f.lookup(p)
        remaining &= {i for i in range(inst.n) if out[i] != mu[i]}
        if not remaining:
            break
    return frozenset(remaining)


def check_fixed_compromiser(f: MechanismTable) -> Verdict:
    """Every allocation outside the image has a nonempty fixed-compromiser set."""
    inst = f.instance
    image = f.image()
    notes = _image_note(f)
    for code, fixed in enumerate(f.fixed_compromiser_sets):
        if not fixed and code not in image:
            mu = inst.decode(code)
            return Verdict(
                "fixed_compromiser",
                False,
                {"mu": mu, "profiles": tuple(profiles_with_tops(inst, mu))},
                notes,
            )
    return Verdict("fixed_compromiser", True, None, notes)


def check_compromiser_invariance(
    f: MechanismTable, mus: Iterable[Sequence[int]] | None = None
) -> Verdict:
    """Bottom-ranking every fixed compromiser's top leaves the outcome
    unchanged, for every mu and every profile top-ranking mu. The rankings
    topping o are the (m-1)! ranks from o * (m-1)!, so mu's profiles are the
    product of those rank ranges, walked in ascending index order."""
    inst = f.instance
    notes = _image_note(f)
    table, dec, strides, n, m = f.table, inst.decode_table, inst.strides, inst.n, inst.m
    span, rank = inst.factorials[m - 1], inst.preference_rank
    # bottom[r][obj]: rank of ranking r with obj moved to the bottom
    bottom = [[rank[bottom_rank(pref, obj)] for obj in range(m)] for pref in inst.all_preferences()]
    sets = f.fixed_compromiser_sets
    for code in range(inst.num_allocations) if mus is None else (inst.encode(mu) for mu in mus):
        fixed = sets[code]
        if not fixed:
            continue
        mu = dec[code]
        # (profile index, transformed index) pairs, agent 0 outermost
        pairs = [(0, 0)]
        for i in range(n):
            s, ranks = strides[i], range(mu[i] * span, (mu[i] + 1) * span)
            moved = [bottom[r][mu[i]] for r in ranks] if i in fixed else ranks
            pairs = [(p + r * s, q + r2 * s) for p, q in pairs for r, r2 in zip(ranks, moved)]
        for pidx, qidx in pairs:
            if table[pidx] != table[qidx]:
                return Verdict(
                    "compromiser_invariance",
                    False,
                    {
                        "mu": mu,
                        "fixed_compromisers": tuple(sorted(fixed)),
                        "profile": inst.profile_at(pidx),
                        "transformed_profile": inst.profile_at(qidx),
                        "outcome": dec[table[pidx]],
                        "transformed_outcome": dec[table[qidx]],
                    },
                    notes,
                )
    return Verdict("compromiser_invariance", True, None, notes)


def derive_alpha(f: MechanismTable) -> CompromiserAssignment:
    """Canonical compromiser assignment of a table: the fixed-compromiser set
    at every allocation outside the image, over the image-as-constraint.

    Raises MalformedAssignmentError when some cell comes out empty, i.e. when
    the fixed-compromiser condition fails.
    """
    image = f.image()
    cells = {c: fixed for c, fixed in enumerate(f.fixed_compromiser_sets) if c not in image}
    return CompromiserAssignment(Constraint(f.instance, image, ("explicit",)), cells)


@dataclass(frozen=True)
class LPVerdict:
    """Outcome of the local-priority characterization test."""

    is_lp: bool
    alpha: CompromiserAssignment | None = None
    failed: str | None = None
    witness: dict | None = None
    exhaustive: bool = True
    notes: tuple[str, ...] = ()


def is_local_priority(f: MechanismTable) -> LPVerdict:
    """Test the three characterizing conditions, then confirm the canonical
    assignment reproduces the table."""
    for check in (check_unanimity, check_fixed_compromiser, check_compromiser_invariance):
        v = check(f)
        if not v.holds:
            return LPVerdict(False, None, v.name, v.witness, notes=v.notes)
    alpha = derive_alpha(f)
    table = tabulate(alpha)
    if table.table != f.table:
        return LPVerdict(
            False,
            alpha,
            "tabulation_mismatch",
            {"profile": mechanism_difference(table, f)},
        )
    return LPVerdict(True, alpha)


def probe_local_priority(
    f: FunctionMechanism,
    mus: Iterable[Sequence[int]],
    profiles_by_mu: Mapping[tuple[int, ...], Sequence[Profile]],
) -> LPVerdict:
    """Targeted refutation for mechanisms too large to tabulate: checks the
    fixed-compromiser condition at the supplied allocations using the supplied
    top-ranking profiles. A failure is definitive; a pass is not exhaustive.
    """
    for mu in mus:
        mu = tuple(mu)
        profiles = profiles_by_mu[mu]
        fixed = fixed_compromisers(f, mu, profiles=profiles)
        if not fixed:
            outcomes = tuple(f.lookup(p) for p in profiles)
            return LPVerdict(
                False,
                None,
                "fixed_compromiser",
                {"mu": mu, "profiles": tuple(profiles), "outcomes": outcomes},
                exhaustive=False,
            )
    return LPVerdict(True, None, exhaustive=False, notes=("checked supplied allocations only",))
