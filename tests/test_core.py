import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from localpriority.core import (
    CompromiserAssignment,
    Constraint,
    Instance,
    MalformedAssignmentError,
    ScaleLimitError,
    contours,
    diff,
    house_constraint,
    make_alpha,
    one_sided_constraint,
    profile_index,
    profiles_with_tops,
    school_constraint,
    social_constraint,
    tau,
    two_sided_constraint,
)
from localpriority.engine import run_lp, tabulate
from localpriority.fileio import dump_constraint, dumps, load_constraint

from conftest import A, B, C


def small_instances():
    return st.tuples(st.integers(1, 3), st.integers(1, 4)).map(
        lambda nm: Instance(
            tuple(f"i{k}" for k in range(nm[0])), tuple(f"o{k}" for k in range(nm[1]))
        )
    )


@given(small_instances(), st.data())
@settings(max_examples=60, deadline=None)
def test_encode_decode_roundtrip(inst, data):
    assignment = tuple(
        data.draw(st.integers(0, inst.m - 1)) for _ in range(inst.n)
    )
    assert inst.decode(inst.encode(assignment)) == assignment


def test_encode_covers_all_codes(inst3):
    seen = {inst3.encode(a) for a in inst3.all_assignments()}
    assert seen == set(range(27))


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance((), ("a",))
    with pytest.raises(ValueError):
        Instance(("1", "1"), ("a",))
    with pytest.raises(ScaleLimitError):
        Instance(tuple(str(i) for i in range(9)), tuple("abcdefgh"))


@pytest.mark.parametrize(
    "pref,obj,lower,upper",
    [
        ((A, B, C), A, {B, C}, set()),
        ((A, B, C), C, set(), {A, B}),
        ((B, A, C), A, {C}, {B}),
    ],
)
def test_contours_examples(pref, obj, lower, upper):
    lo, up = contours(pref, obj)
    assert lo == lower and up == upper


@given(st.permutations(list(range(4))), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_contours_partition(perm, obj):
    lo, up = contours(tuple(perm), obj)
    assert len(lo) + len(up) + 1 == 4
    assert lo | up | {obj} == set(range(4))


def test_contours_invalid_object():
    with pytest.raises(ValueError):
        contours((A, B, C), 7)


def test_tau_on_profile(da_profile):
    assert tau(da_profile, 1) == (A, A, B)
    assert tau(da_profile, 3) == (C, C, C)


def test_tau_on_preference():
    assert tau((A, B, C), 1) == A
    assert tau((A, B, C), 3) == C
    with pytest.raises(ValueError):
        tau((A, B, C), 4)


def test_diff():
    assert diff((A, A, A), (B, A, A)) == {0}
    assert diff((A, B, C), (A, B, C)) == frozenset()
    assert diff((A, B, C), (C, B, A)) == {0, 2}


def test_profiles_with_tops_cardinality(inst3):
    profiles = list(profiles_with_tops(inst3, (A, A, B)))
    assert len(profiles) == math.factorial(2) ** 3 == 8
    for p in profiles:
        assert tau(p, 1) == (A, A, B)


def test_profiles_with_tops_tiny():
    inst = Instance(("1",), ("a", "b"))
    assert list(profiles_with_tops(inst, (A,))) == [((A, B),)]


def test_profile_index_matches_enumeration_order(inst2):
    for idx, profile in enumerate(inst2.all_profiles()):
        assert profile_index(inst2, profile) == idx


ENCODING_SHAPES = [(1, 1), (1, 3), (2, 3), (3, 2), (4, 3)]


def _instance(n, m):
    return Instance(tuple(f"i{k}" for k in range(n)), tuple(f"o{k}" for k in range(m)))


@pytest.mark.parametrize("n,m", ENCODING_SHAPES)
def test_profile_index_and_profile_at_invert_each_other(n, m):
    inst = _instance(n, m)
    count = 0
    for i, p in enumerate(inst.all_profiles()):
        assert profile_index(inst, p) == i
        assert inst.profile_at(i) == p
        count += 1
    assert count == inst.num_profiles
    for bad in (-1, inst.num_profiles):
        with pytest.raises(ValueError):
            inst.profile_at(bad)


@pytest.mark.parametrize("n,m", ENCODING_SHAPES)
def test_codes_round_trip_in_code_order(n, m):
    inst = _instance(n, m)
    for code, a in enumerate(inst.all_assignments()):
        assert inst.encode(a) == code
        assert inst.decode(inst.encode(a)) == a
        assert sum(obj * place for obj, place in zip(a, inst.powers)) == code
    assert inst.decode_table == tuple(inst.all_assignments())


MOVE_SHAPES = [(1, 3), (2, 2), (2, 4), (3, 3), (4, 3)]


@pytest.mark.parametrize("n,m", MOVE_SHAPES)
def test_moves_match_a_decode_product_encode_loop(n, m):
    inst = _instance(n, m)
    for code, x in enumerate(inst.all_assignments()):
        for mask in range(1 << n):
            agents = [i for i in range(n) if mask >> i & 1]
            expected = []
            for combo in itertools.product(*([o for o in range(m) if o != x[i]] for i in agents)):
                y = list(x)
                for i, obj in zip(agents, combo):
                    y[i] = obj
                expected.append(inst.encode(y))
            assert inst.moves(code, mask) == tuple(expected)
            assert inst.moves(code, mask) is inst.moves(code, mask)


@pytest.mark.parametrize("n,m", MOVE_SHAPES)
def test_steps_match_a_decode_combinations_encode_loop(n, m):
    inst = _instance(n, m)
    for code, x in enumerate(inst.all_assignments()):
        for mask in range(1 << n):
            agents = [i for i in range(n) if mask >> i & 1]
            expected = []
            for size in range(1, len(agents) + 1):
                for subset in itertools.combinations(agents, size):
                    left = sum(1 << (i * m + x[i]) for i in subset)
                    choices = [[o for o in range(m) if o != x[i]] for i in subset]
                    for combo in itertools.product(*choices):
                        y = list(x)
                        for i, obj in zip(subset, combo):
                            y[i] = obj
                        arrived = sum(1 << (i * m + y[i]) for i in subset)
                        expected.append((inst.encode(y), arrived, left))
            assert inst.steps(code, mask) == tuple(expected)
            assert inst.steps(code, mask) is inst.steps(code, mask)


@pytest.mark.parametrize("n,m", ENCODING_SHAPES)
def test_positions_and_strides_match_the_definitions(n, m):
    inst = _instance(n, m)
    prefs = inst.all_preferences()
    assert len(prefs) == math.factorial(m)
    for rank, pref in enumerate(prefs):
        assert inst.preference_rank[pref] == rank
    for i, p in enumerate(inst.all_profiles()):
        for agent, stride in enumerate(inst.strides):
            rank = inst.preference_rank[p[agent]]
            if rank + 1 < len(prefs):
                q = p[:agent] + (prefs[rank + 1],) + p[agent + 1 :]
                assert profile_index(inst, q) == i + stride


def _fields(plan, state):
    """A packed walk state as (code, block start, prefix bits, steps)."""
    return (
        state & plan.code_mask,
        state >> plan.base_shift & plan.base_mask,
        state >> plan.bits_shift & plan.bits_mask,
        state // plan.step,
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_prefix_children_give_contiguous_rank_ranges(m):
    # One agent: from the root, every packed option steps to a prefix one
    # object longer, whose rankings are one contiguous rank range.
    inst = _instance(1, m)
    plan = inst.prefix_walk
    prefs = inst.all_preferences()
    stack = [((), 0)]
    seen = 0
    while stack:
        prefix, state = stack.pop()
        _, lo, bits, steps = _fields(plan, state)
        ranks = [r for r, pref in enumerate(prefs) if pref[: len(prefix)] == prefix]
        assert ranks == list(range(lo, lo + math.factorial(m - len(prefix))))
        assert (bits, steps) == (sum(1 << obj for obj in prefix), 0)
        for option in plan.prefix_options[0][bits]:
            # The one agent's place value is 1, so the code is their object.
            obj = option & plan.code_mask
            stack.append((prefix + (obj,), state - (state & plan.code_mask) + option))
        seen += 1
    assert seen == sum(math.perm(m, k) for k in range(m + 1))


@pytest.mark.parametrize("n,m", ENCODING_SHAPES)
def test_prefix_steps_and_blocks_match_the_definitions(n, m):
    inst = _instance(n, m)
    plan = inst.prefix_walk
    profiles = list(inst.all_profiles())
    assert inst.factorials == tuple(math.factorial(k) for k in range(m + 1))
    assert plan.code_mask >= inst.num_allocations - 1
    assert plan.base_mask >= inst.num_profiles - 1
    assert plan.base_shift == plan.code_mask.bit_length()
    assert plan.bits_shift == plan.base_shift + plan.base_mask.bit_length()
    assert plan.step == 1 << plan.bits_shift + n * m
    assert plan.step_cap == (n * (m - 1) + 1) * plan.step
    assert plan.full == (1 << m) - 1
    for i in range(n):
        assert plan.shifts[i] == plan.bits_shift + i * m
        for mask in range(1 << m):
            options = plan.prefix_options[i][mask]
            fields = [_fields(plan, option) for option in options]
            objects = [code // inst.powers[i] for code, _, _, _ in fields]
            # Every object not in the prefix, highest first.
            assert objects == [obj for obj in reversed(range(m)) if not mask >> obj & 1]
            for obj, (code, offset, bits, steps) in zip(objects, fields):
                assert (code, bits, steps) == (obj * inst.powers[i], 1 << i * m + obj, 0)
            # The offsets hold for every order of the prefix's objects.
            for prefix in itertools.permutations([obj for obj in range(m) if mask >> obj & 1]):
                parent = [k for k, p in enumerate(profiles) if p[i][: len(prefix)] == prefix]
                for obj, (_, offset, _, _) in zip(objects, fields):
                    child = [k for k in parent if profiles[k][i][len(prefix)] == obj]
                    assert child[0] - parent[0] == offset
    roots = [_fields(plan, root) for root in plan.roots]
    assert [base for _, base, _, _ in roots] == sorted({base for _, base, _, _ in roots}, reverse=True)
    assert len(roots) == inst.num_allocations
    for code, base, bits, steps in roots:
        tops = inst.decode(code)
        assert base == min(k for k, p in enumerate(profiles) if tau(p, 1) == tops)
        assert (bits, steps) == (sum(1 << i * m + obj for i, obj in enumerate(tops)), 0)
    assert len(inst.members) == len(inst.agent_sets) == len(inst.mask_of) == 1 << n
    for mask, (members, agents) in enumerate(zip(inst.members, inst.agent_sets)):
        assert members == tuple(i for i in range(n) if mask >> i & 1)
        assert agents == frozenset(members)
        assert inst.mask_of[agents] == mask == sum(1 << i for i in agents)
    rng = random.Random(10 * n + m)
    for _ in range(25):
        prefixes = [tuple(rng.sample(range(m), rng.randint(0, m))) for _ in range(n)]
        bits = sum(1 << (i * m + obj) for i, prefix in enumerate(prefixes) for obj in prefix)
        members = [
            k for k, profile in enumerate(profiles)
            if all(pref[: len(prefix)] == prefix for pref, prefix in zip(profile, prefixes))
        ]
        starts, span = inst.block(bits)
        assert [members[0] + s + r for s in starts for r in range(span)] == members
        assert inst.block(bits) is inst.block(bits)


@pytest.mark.parametrize("n,m", MOVE_SHAPES)
def test_parts_and_part_sets_match_their_definitions(n, m):
    inst = _instance(n, m)
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        parts = inst.parts(mask)
        assert parts == tuple(
            sum(x[i] * m**j for j, i in enumerate(members)) for x in inst.all_assignments()
        )
        assert parts is inst.parts(mask)
        sets = inst.part_sets(len(members))
        assert all(bits < 1 << m ** len(members) for row in sets for bits in row)
        for x, part in zip(inst.all_assignments(), parts):
            for j, i in enumerate(members):
                for objs in range(1 << m):
                    assert (sets[j][objs] >> part & 1) == (objs >> x[i] & 1)
    for rank, pref in enumerate(inst.all_preferences()):
        for place, obj in enumerate(pref):
            assert inst.weakly_better[rank][obj] == sum(1 << o for o in pref[: place + 1])


def test_cached_tables_leave_equality_and_hashing_alone():
    used, fresh = _instance(3, 2), _instance(3, 2)
    for attr in ("n", "m", "num_allocations", "num_profiles", "powers",
                 "preference_rank", "strides", "decode_table",
                 "factorials", "members", "agent_sets", "mask_of", "prefix_walk",
                 "_blocks", "_moves", "_steps", "_parts", "_part_sets", "weakly_better"):
        getattr(used, attr)
    used.all_preferences()
    used.block(0b100011)
    used.moves(5, 0b101)
    used.steps(5, 0b101)
    used.parts(0b101)
    used.part_sets(2)
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert {used: "x"}[fresh] == "x"
    assert _instance(3, 3) != used


def test_encode_and_decode_keep_their_checks():
    inst = _instance(2, 3)
    inst.decode(0)
    assert "decode_table" not in vars(inst)  # decoding one code builds no table
    for code in (-1, inst.num_allocations):
        with pytest.raises(ValueError):
            inst.decode(code)
    for bad in ((0,), (0, 0, 0), (0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            inst.encode(bad)


def test_feasible_assignments_in_code_order(house3):
    inst = house3.instance
    assert house3.feasible_assignments == tuple(
        inst.decode(c) for c in sorted(house3.feasible)
    )
    fresh = Constraint(inst, house3.feasible, house3.generator)
    infeasible = [c for c in range(inst.num_allocations) if c not in house3.feasible]
    assert house3.infeasible_codes == tuple(infeasible)
    assert house3.infeasible_codes is house3.infeasible_codes
    assert house3.cell_index == tuple(
        infeasible.index(c) if c in infeasible else -1 for c in range(inst.num_allocations)
    )
    assert house3 == fresh and hash(house3) == hash(fresh)


def test_school_generator_soundness(inst3):
    constraint = school_constraint(inst3, (1, 2, 1))
    for code in range(inst3.num_allocations):
        x = inst3.decode(code)
        counts = [sum(1 for o in x if o == obj) for obj in range(3)]
        expected = counts[0] <= 1 and counts[1] <= 2 and counts[2] <= 1
        assert (code in constraint.feasible) == expected


def test_two_sided_generator_soundness():
    names = ("m1", "m2", "w1", "w2")
    inst = Instance(names, names)
    constraint = two_sided_constraint(inst, ("m1", "m2"), ("w1", "w2"))
    men, women = {0, 1}, {2, 3}
    for code in range(inst.num_allocations):
        x = inst.decode(code)
        ok = all(x[x[i]] == i for i in range(4))
        ok = ok and all(x[i] in women or x[i] == i for i in men)
        ok = ok and all(x[j] in men or x[j] == j for j in women)
        assert (code in constraint.feasible) == ok


def test_one_sided_is_involutions():
    names = ("1", "2", "3")
    inst = Instance(names, names)
    constraint = one_sided_constraint(inst)
    for code in constraint.feasible:
        x = inst.decode(code)
        assert all(x[x[i]] == i for i in range(3))


@pytest.mark.parametrize("kind", ["house", "school", "social", "one_sided", "two_sided", "explicit"])
def test_constraint_file_round_trip(inst3, kind):
    # dump_constraint writes the generator tag; load_constraint rebuilds from it
    people = Instance(("m1", "m2", "w1"), ("m1", "m2", "w1"))
    constraint = {
        "house": lambda: house_constraint(inst3),
        "school": lambda: school_constraint(inst3, (1, 1, 2)),
        "social": lambda: social_constraint(inst3),
        "one_sided": lambda: one_sided_constraint(people),
        "two_sided": lambda: two_sided_constraint(people, ("m1", "m2"), ("w1",)),
        "explicit": lambda: Constraint(inst3, frozenset({0, 5, 13, 26})),
    }[kind]()
    doc = dump_constraint(constraint)
    assert doc["kind"] == kind
    loaded = load_constraint(json.loads(dumps(doc)))
    assert loaded == constraint
    assert dump_constraint(loaded) == doc


def test_house_needs_enough_objects():
    inst = Instance(("1", "2", "3"), ("a", "b"))
    with pytest.raises(ValueError):
        house_constraint(inst)


def test_constraint_nonempty():
    inst = Instance(("1",), ("a",))
    with pytest.raises(ValueError):
        Constraint(inst, frozenset())


def test_alpha_validation(inst3, house3):
    feasible_code = next(iter(house3.feasible))
    infeasible = house3.infeasible_codes
    good = {code: {0} for code in infeasible}
    make_alpha(house3, good)
    with pytest.raises(MalformedAssignmentError):
        make_alpha(house3, {**good, feasible_code: {0}})
    with pytest.raises(MalformedAssignmentError):
        make_alpha(house3, {**good, infeasible[0]: set()})
    missing = dict(good)
    del missing[infeasible[0]]
    with pytest.raises(MalformedAssignmentError):
        make_alpha(house3, missing)


@pytest.mark.parametrize("kind", [tuple, list, set])
def test_alpha_cells_must_be_frozensets(kind):
    # Cells are looked up by frozenset, so a cell of another type is refused
    # where the assignment is built, naming the allocation.
    pair = Instance(("1", "2"), ("a", "b"))
    constraint = Constraint(pair, frozenset({1, 2}))
    with pytest.raises(MalformedAssignmentError, match=r"cell at \('a', 'a'\) is a"):
        CompromiserAssignment(constraint, {0: kind((0,)), 3: frozenset({1})})
    alpha = CompromiserAssignment(constraint, {0: frozenset({0}), 3: frozenset({1})})
    assert tabulate(alpha).table == tuple(
        pair.encode(run_lp(alpha, profile).assignment) for profile in pair.all_profiles()
    )


@pytest.mark.parametrize("agents", [frozenset({0.5}), frozenset({0, 1.5})])
def test_alpha_agents_must_be_agent_indices(agents):
    # Agents that fall between 0 and n - 1 without being indices are refused
    # where the assignment is built, not where a later lookup misses them.
    pair = Instance(("1", "2"), ("a", "b"))
    constraint = Constraint(pair, frozenset({1, 2}))
    with pytest.raises(MalformedAssignmentError, match=r"^invalid agent index in cell 0$"):
        CompromiserAssignment(constraint, {0: agents, 3: frozenset({0})})


def test_alpha_codes_must_be_allocation_codes():
    # Every infeasible cell present, plus a code between two valid ones.
    pair = Instance(("1", "2"), ("a", "b"))
    constraint = Constraint(pair, frozenset({1, 2}))
    cells = {0: frozenset({0}), 3: frozenset({0}), 2.5: frozenset({0})}
    with pytest.raises(MalformedAssignmentError, match=r"^cell code 2\.5 out of range$"):
        CompromiserAssignment(constraint, cells)


def test_alpha_union_and_subset(nonunique_alphas):
    alpha_full, alpha_one, alpha_two = nonunique_alphas
    assert alpha_one.is_subset_of(alpha_full)
    assert not alpha_full.is_subset_of(alpha_one)
    union = alpha_one.union(alpha_two)
    assert union.cells == alpha_full.cells
