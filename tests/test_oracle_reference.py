"""The table sweeps and consistency checks against slow reference loops.

Each table reference walks `all_profiles()` (or, per allocation mu,
`profiles_with_tops`), reads outcomes with `lookup` (or runs `run_lp`), and
spells out every misreport, coalition, transformed profile or feasible
improvement. The consistency references decode every allocation
and encode every move. The fast code must return the same verdict and the same
first witness.
"""

import itertools
import json
import random
from collections import deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from localpriority.axioms import (
    Verdict,
    bottom_rank,
    check_compromiser_invariance,
    check_fixed_compromiser,
    check_unanimity,
    derive_alpha,
    is_group_strategy_proof,
    is_maskin_monotonic,
    is_nonbossy,
    is_pareto_efficient,
    is_strategy_proof,
)
from localpriority.consistency import (
    SearchResult,
    _backward_failure,
    _first_paths,
    _masks,
    _reach,
    find_pe_not_gsp,
    is_backward_consistent,
    is_forward_consistent,
)
from localpriority.core import (
    CompromiserAssignment,
    Constraint,
    Instance,
    MalformedAssignmentError,
    ScaleLimitError,
    diff,
    house_constraint,
    make_alpha,
    profile_index,
    profiles_with_tops,
    school_constraint,
)
from localpriority import axioms, compare, enumeration
from localpriority.compare import check_agent_dominance, check_pointwise_dominance
from localpriority.fileio import load_alpha, load_constraint
from localpriority.engine import (
    EXHAUSTED,
    Exhausted,
    MechanismTable,
    NotImplementableError,
    outcome_codes,
    run_lp,
    tabulate,
    tabulate_function,
)
from localpriority.mechanisms import (
    Endowment,
    SchoolSpec,
    da_alpha,
    immediate_acceptance,
    sd_alpha,
    serial_dictatorship,
    ttc_alpha,
)

SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3)]


def _replace(profile, coalition, reports):
    out = list(profile)
    for i, pref in zip(coalition, reports):
        out[i] = pref
    return tuple(out)


def _improves(profile, coalition, x, y):
    """Every member weakly prefers y to x and one strictly."""
    places = [(profile[i].index(y[i]), profile[i].index(x[i])) for i in coalition]
    return all(py <= px for py, px in places) and any(py < px for py, px in places)


def reference_sp(f):
    inst = f.instance
    for p in inst.all_profiles():
        x = f.lookup(p)
        for i in range(inst.n):
            for r in inst.all_preferences():
                y = f.lookup(_replace(p, (i,), (r,)))
                if r != p[i] and _improves(p, (i,), x, y):
                    return {
                        "profile": p,
                        "agent": i,
                        "misreport": r,
                        "truthful_outcome": x,
                        "deviation_outcome": y,
                    }
    return None


def reference_nonbossy(f):
    inst = f.instance
    for p in inst.all_profiles():
        x = f.lookup(p)
        for i in range(inst.n):
            for r in inst.all_preferences():
                y = f.lookup(_replace(p, (i,), (r,)))
                if r != p[i] and y != x and y[i] == x[i]:
                    return {
                        "profile": p,
                        "agent": i,
                        "misreport": r,
                        "truthful_outcome": x,
                        "deviation_outcome": y,
                    }
    return None


def reference_gsp(f, sizes):
    inst = f.instance
    for size in sizes:
        for p in inst.all_profiles():
            x = f.lookup(p)
            for coalition in itertools.combinations(range(inst.n), size):
                for reports in itertools.product(inst.all_preferences(), repeat=size):
                    q = _replace(p, coalition, reports)
                    y = f.lookup(q)
                    if q != p and _improves(p, coalition, x, y):
                        return {
                            "profile": p,
                            "coalition": coalition,
                            "misreports": reports,
                            "truthful_outcome": x,
                            "deviation_outcome": y,
                        }
    return None


def reference_coalition_sweep(f, sizes, name):
    """The coalition sweep that walks every joint report: by size, then
    profile, coalition and reports, each report's outcome decoded and
    compared member by member."""
    inst = f.instance
    table, dec, strides = f.table, inst.decode_table, inst.strides
    # pos[rank][obj]: the place of obj in the ranking of that rank
    pos = [tuple(pref.index(obj) for obj in range(inst.m)) for pref in inst.all_preferences()]
    k = len(pos)
    for size in sizes:
        # per coalition, the index offset of every joint report, in report order
        coalitions = [
            (c, [sum(r * strides[i] for i, r in zip(c, rs))
                 for rs in itertools.product(range(k), repeat=size)])
            for c in itertools.combinations(range(inst.n), size)
        ]
        for pidx, pranks in enumerate(itertools.product(range(k), repeat=inst.n)):
            x = dec[table[pidx]]
            rows = [pos[r] for r in pranks]
            truth = [row[obj] for row, obj in zip(rows, x)]
            for coalition, offsets in coalitions:
                base = pidx
                improvable = False
                for i in coalition:
                    base -= pranks[i] * strides[i]
                    if truth[i]:
                        improvable = True
                if not improvable:
                    continue  # every member already holds their top choice
                for off in offsets:
                    idx = base + off
                    if idx == pidx:
                        continue
                    y = dec[table[idx]]
                    better = 0
                    for i in coalition:
                        yp = rows[i][y[i]]
                        if yp > truth[i]:
                            better = -1
                            break
                        if yp < truth[i]:
                            better += 1
                    if better > 0:
                        deviation = inst.profile_at(idx)
                        misreports = tuple(deviation[i] for i in coalition)
                        if name == "strategy_proof":
                            who = {"agent": coalition[0], "misreport": misreports[0]}
                        else:
                            who = {"coalition": coalition, "misreports": misreports}
                        return Verdict(
                            name,
                            False,
                            {
                                "profile": inst.profile_at(pidx),
                                **who,
                                "truthful_outcome": x,
                                "deviation_outcome": y,
                            },
                        )
    return Verdict(name, True)


def reference_pe(f):
    inst = f.instance
    feasible = [inst.decode(c) for c in sorted(f.constraint.feasible)]
    for p in inst.all_profiles():
        x = f.lookup(p)
        for y in feasible:
            if _improves(p, range(inst.n), x, y):
                return {"profile": p, "outcome": x, "improvement": y}
    return None


def _lower(pref, obj):
    return set(pref[pref.index(obj) + 1 :])


def reference_maskin(f):
    """First pair (p, q), in profile order, where every agent's lower contour
    set at f(p) weakly expands from p to q and the outcome changes."""
    inst = f.instance
    outcomes = [(q, f.lookup(q)) for q in inst.all_profiles()]
    for p, x in outcomes:
        for q, y in outcomes:
            if y != x and all(_lower(p[i], x[i]) <= _lower(q[i], x[i]) for i in range(inst.n)):
                return {
                    "profile": p,
                    "transformed_profile": q,
                    "outcome": x,
                    "transformed_outcome": y,
                }
    return None


def _tables(n, m, seed):
    """Random tables, serial dictatorships, and one-entry perturbations of
    the dictatorships, on seeded random constraints."""
    rng = random.Random(seed)
    inst = Instance(tuple(str(k) for k in range(n)), tuple("abcd"[:m]))
    out = []
    for _ in range(3):
        feasible = sorted(rng.sample(range(inst.num_allocations), rng.randint(1, inst.num_allocations)))
        constraint = Constraint(inst, frozenset(feasible), ("explicit",))
        out.append(MechanismTable(
            constraint, tuple(rng.choice(feasible) for _ in range(inst.num_profiles))
        ))
        order = tuple(rng.sample(range(n), n))
        sd = tabulate_function(lambda p: serial_dictatorship(constraint, order, p), constraint)
        out.append(sd)
        for _ in range(2):
            entries = list(sd.table)
            entries[rng.randrange(len(entries))] = rng.choice(feasible)
            out.append(MechanismTable(constraint, tuple(entries)))
    return out


def _agrees(verdict, reference):
    assert verdict.holds == (reference is None)
    assert verdict.witness == reference
    return verdict.holds


@pytest.mark.parametrize("n,m", SHAPES)
def test_table_sweeps_match_reference_loops(n, m):
    sp_witness_indices = []
    for f in _tables(n, m, seed=100 * n + m):
        sp = is_strategy_proof(f)
        _agrees(sp, reference_sp(f))
        if not sp.holds:
            sp_witness_indices.append(profile_index(f.instance, sp.witness["profile"]))
        _agrees(is_nonbossy(f), reference_nonbossy(f))
        _agrees(is_group_strategy_proof(f), reference_gsp(f, (1, 2)))
        _agrees(
            is_group_strategy_proof(f, exhaustive=True), reference_gsp(f, range(1, n + 1))
        )
        _agrees(is_pareto_efficient(f), reference_pe(f))
        _agrees(is_maskin_monotonic(f), reference_maskin(f))
    assert any(i > 0 for i in sp_witness_indices)


@pytest.mark.parametrize("n,m", [(4, 2), (2, 4), (4, 3)])
def test_pareto_matches_reference_at_wider_shapes(n, m):
    # The packed upper sets span n * m bits, 8 to 12 here.
    holds = [_agrees(is_pareto_efficient(f), reference_pe(f)) for f in _tables(n, m, seed=100 * n + m)]
    assert len(set(holds)) == 2


def reference_maskin_pairs(f):
    """The pairs (p, q) that `reference_maskin` tests for a changed outcome."""
    inst = f.instance
    outcomes = [(p, f.lookup(p)) for p in inst.all_profiles()]
    return sum(
        all(_lower(p[i], x[i]) <= _lower(q[i], x[i]) for i in range(inst.n))
        for p, x in outcomes
        for q in inst.all_profiles()
    )


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2)])
def test_maskin_pair_budget_counts_the_qualifying_pairs(n, m, monkeypatch):
    # Only a failing table walks the pairs, to name its first witness, so
    # the budget refuses failing tables alone: a holding table past it holds.
    holds = []
    for f in _tables(n, m, seed=100 * n + m):
        pairs = reference_maskin_pairs(f)
        monkeypatch.setattr(axioms, "MASKIN_PAIR_BUDGET", pairs)
        holds.append(_agrees(is_maskin_monotonic(f), reference_maskin(f)))
        monkeypatch.setattr(axioms, "MASKIN_PAIR_BUDGET", pairs - 1)
        if holds[-1]:
            assert is_maskin_monotonic(f).holds
        else:
            with pytest.raises(ScaleLimitError):
                is_maskin_monotonic(f)
    assert set(holds) == {False, True}


def test_maskin_matches_reference_on_ttc_and_da(ttc_endowment, da_spec):
    for alpha in (ttc_alpha(ttc_endowment), da_alpha(da_spec)):
        f = tabulate(alpha)
        _agrees(is_maskin_monotonic(f), reference_maskin(f))


def test_maskin_witness_follows_profile_order():
    # Everyone gets c everywhere except at two profiles. At profile 0 c is
    # last for both agents, so every profile qualifies, and profile 0 itself
    # keeps the outcome. The changed profiles are (abc, cba) at index 5 and
    # (acb, abc) at index 6: walking agent 1's rankings first would reach
    # index 6 first, and strict expansion would skip index 5, whose lower
    # contour sets at c stay empty.
    inst = Instance(("1", "2"), ("a", "b", "c"))
    constraint = Constraint(inst, frozenset(range(inst.num_allocations)), ("explicit",))
    entries = [inst.encode((2, 2))] * inst.num_profiles
    entries[5] = inst.encode((0, 1))
    entries[6] = inst.encode((1, 0))
    f = MechanismTable(constraint, tuple(entries))
    verdict = is_maskin_monotonic(f)
    _agrees(verdict, reference_maskin(f))
    assert verdict.witness["profile"] == inst.profile_at(0)
    assert verdict.witness["transformed_profile"] == inst.profile_at(5)


@st.composite
def two_agent_tables(draw):
    inst = Instance(("1", "2"), tuple("abc"[: draw(st.sampled_from((2, 3)))]))
    feasible = sorted(draw(st.sets(st.integers(0, inst.num_allocations - 1), min_size=1)))
    entries = draw(st.lists(
        st.sampled_from(feasible), min_size=inst.num_profiles, max_size=inst.num_profiles
    ))
    return MechanismTable(Constraint(inst, frozenset(feasible), ("explicit",)), tuple(entries))


@given(two_agent_tables())
@settings(max_examples=60, deadline=None)
def test_maskin_matches_reference_on_generated_tables(f):
    _agrees(is_maskin_monotonic(f), reference_maskin(f))


def test_first_sp_violation_past_profile_zero():
    inst = Instance(("1", "2", "3"), ("a", "b", "c"))
    constraint = Constraint(inst, frozenset(range(inst.num_allocations)), ("explicit",))
    f = tabulate_function(lambda p: serial_dictatorship(constraint, (0, 1, 2), p), constraint)
    entries = list(f.table)
    last = len(entries) - 1
    # the last profile ranks c, b, a for everyone; hand them all a instead
    entries[last] = inst.encode((0, 0, 0))
    perturbed = MechanismTable(constraint, tuple(entries))
    sp = is_strategy_proof(perturbed)
    assert sp.witness == reference_sp(perturbed)
    assert profile_index(inst, sp.witness["profile"]) == last
    gsp = is_group_strategy_proof(perturbed)
    assert gsp.witness == reference_gsp(perturbed, (1, 2))
    assert gsp.witness["coalition"] == (sp.witness["agent"],)
    assert gsp.witness["misreports"] == (sp.witness["misreport"],)



def test_sweep_witness_is_the_first_improving_report_not_the_lowest_part():
    # Both agents get c everywhere except at two profiles of agent 1's slice
    # at profile 0, where both rank a, b, c. Agent 1's first misreport, acb
    # (index 6), wins b, and a later one, bac (index 12), wins a. The
    # witness is the first improving report, though a comes first in object
    # order.
    inst = Instance(("1", "2"), ("a", "b", "c"))
    constraint = Constraint(inst, frozenset(range(inst.num_allocations)), ("explicit",))
    entries = [inst.encode((2, 2))] * inst.num_profiles
    entries[6] = inst.encode((1, 2))
    entries[12] = inst.encode((0, 2))
    f = MechanismTable(constraint, tuple(entries))
    sp = is_strategy_proof(f)
    _agrees(sp, reference_sp(f))
    assert (sp.witness["profile"], sp.witness["agent"]) == (inst.profile_at(0), 0)
    assert (sp.witness["misreport"], sp.witness["deviation_outcome"]) == ((0, 2, 1), (1, 2))
    for exhaustive in (False, True):
        gsp = is_group_strategy_proof(f, exhaustive=exhaustive)
        _agrees(gsp, reference_gsp(f, (1, 2)))
        assert gsp.witness["misreports"] == ((0, 2, 1),)


def _sweeps_agree(f, modes):
    """The coalition sweep returns the reference walk's verdict and witness
    in every given mode; returns the verdicts."""
    n = f.instance.n
    verdicts = []
    for mode in modes:
        if mode == "sp":
            verdict = is_strategy_proof(f)
            assert verdict == reference_coalition_sweep(f, (1,), "strategy_proof")
        else:
            verdict = is_group_strategy_proof(f, exhaustive=mode == "exhaustive")
            sizes = (1, 2) if mode == "pairs" else range(1, n + 1)
            assert verdict == reference_coalition_sweep(f, sizes, "group_strategy_proof")
        verdicts.append(verdict)
    return verdicts


@pytest.mark.parametrize("n,m,modes,first", [
    (4, 3, ("pairs", "exhaustive"), 0),
    # the first round's serial dictatorship alone costs the walk 4 s over pairs
    (3, 4, ("sp", "pairs"), 4),
])
def test_coalition_sweep_matches_the_report_walk(n, m, modes, first):
    verdicts = [
        v for f in _tables(n, m, seed=100 * n + m)[first:] for v in _sweeps_agree(f, modes)
    ]
    assert any(v.holds for v in verdicts)
    inst = Instance(tuple(str(k) for k in range(n)), tuple("abcd"[:m]))
    assert any(not v.holds and profile_index(inst, v.witness["profile"]) > 0 for v in verdicts)


@given(two_agent_tables())
@settings(max_examples=60, deadline=None)
def test_coalition_sweep_matches_reference_loops_on_generated_tables(f):
    _agrees(is_strategy_proof(f), reference_sp(f))
    for exhaustive in (False, True):
        _agrees(is_group_strategy_proof(f, exhaustive=exhaustive), reference_gsp(f, (1, 2)))


def _reference_notes(f):
    missing = f.constraint.feasible - set(f.table)
    if not missing:
        return ()
    return (f"declared constraint has {len(missing)} feasible allocations outside the image; image used",)


def reference_unanimity(f):
    """The first profile whose top-choice vector, encoded per profile, is in
    the image but not chosen."""
    inst = f.instance
    image = set(f.table)
    for p in inst.all_profiles():
        tops = tuple(pref[0] for pref in p)
        if inst.encode(tops) in image and f.lookup(p) != tops:
            return Verdict(
                "unanimity", False, {"profile": p, "tops": tops, "outcome": f.lookup(p)}, _reference_notes(f)
            )
    return Verdict("unanimity", True, None, _reference_notes(f))


def _reference_fixed(f, mu):
    """Agents who miss their component of mu at every profile top-ranking mu,
    one `lookup` per profile."""
    inst = f.instance
    remaining = set(range(inst.n))
    for p in profiles_with_tops(inst, mu):
        out = f.lookup(p)
        remaining &= {i for i in range(inst.n) if out[i] != mu[i]}
    return frozenset(remaining)


def reference_fixed_compromiser(f):
    inst = f.instance
    image = set(f.table)
    for code in range(inst.num_allocations):
        mu = inst.decode(code)
        if code not in image and not _reference_fixed(f, mu):
            return Verdict(
                "fixed_compromiser",
                False,
                {"mu": mu, "profiles": tuple(profiles_with_tops(inst, mu))},
                _reference_notes(f),
            )
    return Verdict("fixed_compromiser", True, None, _reference_notes(f))


def reference_invariance(f, mus=None):
    inst = f.instance
    if mus is None:
        mus = inst.all_assignments()
    for mu in mus:
        mu = tuple(mu)
        fixed = _reference_fixed(f, mu)
        if not fixed:
            continue
        for p in profiles_with_tops(inst, mu):
            moved = tuple(bottom_rank(pref, mu[i]) if i in fixed else pref for i, pref in enumerate(p))
            if f.lookup(moved) != f.lookup(p):
                return Verdict(
                    "compromiser_invariance",
                    False,
                    {
                        "mu": mu,
                        "fixed_compromisers": tuple(sorted(fixed)),
                        "profile": p,
                        "transformed_profile": moved,
                        "outcome": f.lookup(p),
                        "transformed_outcome": f.lookup(moved),
                    },
                    _reference_notes(f),
                )
    return Verdict("compromiser_invariance", True, None, _reference_notes(f))


def reference_derive_alpha(f):
    inst = f.instance
    image = frozenset(f.table)
    cells = {
        code: _reference_fixed(f, inst.decode(code))
        for code in range(inst.num_allocations)
        if code not in image
    }
    return CompromiserAssignment(Constraint(inst, image, ("explicit",)), cells)


def _derived(derive, f):
    try:
        return derive(f)
    except MalformedAssignmentError as exc:
        return str(exc)


def _characterization_agrees(f, rng):
    """Same top codes as encoding each profile's tops, and the same verdicts,
    witnesses and notes as the per-profile unanimity reference and the
    per-allocation references, with and without `mus`, and the same derived
    assignment or error text; returns which of the two conditions fail."""
    inst = f.instance
    assert inst.top_codes == tuple(inst.encode(tuple(pref[0] for pref in p)) for p in inst.all_profiles())
    assert check_unanimity(f) == reference_unanimity(f)
    fc = check_fixed_compromiser(f)
    assert fc == reference_fixed_compromiser(f)
    inv = check_compromiser_invariance(f)
    assert inv == reference_invariance(f)
    # a few allocations, repeats allowed, in descending code order
    mus = [inst.decode(c) for c in sorted(rng.choices(range(inst.num_allocations), k=8), reverse=True)]
    assert check_compromiser_invariance(f, mus=mus) == reference_invariance(f, mus)
    assert _derived(derive_alpha, f) == _derived(reference_derive_alpha, f)
    return not fc.holds, not inv.holds


def _mechanism_tables(n, m, seed):
    """SD, DA and IA tables on a seeded school spec, TTC tables when n = m,
    and one-entry perturbations of each."""
    rng = random.Random(seed)
    inst = Instance(tuple(str(k) for k in range(n)), tuple("abcd"[:m]))
    caps = [0] * m
    for _ in range(n):
        caps[rng.randrange(m)] += 1
    spec = SchoolSpec(inst, tuple(caps), tuple(tuple(rng.sample(range(n), n)) for _ in range(m)))
    constraint = spec.constraint()
    built = [
        tabulate(sd_alpha(constraint, rng.sample(range(n), n))),
        tabulate(da_alpha(spec)),
        tabulate_function(lambda p: immediate_acceptance(spec, p), constraint),
    ]
    if n == m:
        built += [tabulate(ttc_alpha(Endowment(inst, tuple(rng.sample(range(n), n))))) for _ in range(2)]
    out = []
    for f in built:
        out.append(f)
        feasible = sorted(f.constraint.feasible)
        for _ in range(2):
            entries = list(f.table)
            entries[rng.randrange(len(entries))] = rng.choice(feasible)
            out.append(MechanismTable(f.constraint, tuple(entries)))
    return out


CHARACTERIZATION_SHAPES = SHAPES + [(1, 3), (3, 4), (4, 3)]


@pytest.mark.parametrize("n,m", CHARACTERIZATION_SHAPES)
def test_characterization_matches_reference_loops(n, m):
    rng = random.Random(31 * n + m)
    tables = _tables(n, m, seed=100 * n + m) + _mechanism_tables(n, m, seed=10 * n + m)
    failures = [_characterization_agrees(f, rng) for f in tables]
    assert (False, False) in failures and (False, True) in failures
    if n > 1 and m > 2:
        assert any(fc for fc, _ in failures)


@given(two_agent_tables())
@settings(max_examples=60, deadline=None)
def test_characterization_matches_reference_loops_on_generated_tables(f):
    _characterization_agrees(f, random.Random(0))

TABULATE_SHAPES = [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)]


def reference_tabulate(alpha):
    """`run_lp` on every profile: the table's entries, or the error of the
    first profile whose run exhausts."""
    inst = alpha.instance
    entries = []
    for p in inst.all_profiles():
        out = run_lp(alpha, p)
        if isinstance(out, Exhausted):
            return NotImplementableError(p, out.agent, out.step)
        entries.append(inst.encode(out.assignment))
    return tuple(entries)


def _tabulate_agrees(alpha):
    """Same table as the reference, or the same exhaustion; returns the
    exhausting profile, if any."""
    expected = reference_tabulate(alpha)
    if isinstance(expected, tuple):
        assert tabulate(alpha).table == expected
        return None
    with pytest.raises(NotImplementableError) as err:
        tabulate(alpha)
    got = err.value
    assert (got.profile, got.agent, got.step, str(got)) == (
        expected.profile, expected.agent, expected.step, str(expected)
    )
    return got.profile


def _random_cells(rng, constraint, subsets):
    inst = constraint.instance
    return make_alpha(constraint, {
        c: rng.choice(subsets) for c in range(inst.num_allocations) if c not in constraint.feasible
    })


def _perturbed(rng, alpha, subsets):
    """The assignment with one cell replaced by another nonempty agent set."""
    cells = dict(alpha.cells)
    if not cells:
        return alpha
    code = rng.choice(sorted(cells))
    others = [s for s in subsets if s != cells[code]]
    if others:
        cells[code] = rng.choice(others)
    return make_alpha(alpha.constraint, cells)


def _subsets(n):
    return [frozenset(s) for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]


def _assignments(n, m, seed, rounds):
    """Random assignments, serial dictatorships, deferred acceptance, TTC
    (when n = m), and one-cell perturbations of each of the last three, on
    seeded random constraints."""
    rng = random.Random(seed)
    inst = Instance(tuple(str(k) for k in range(n)), tuple("abcd"[:m]))
    subsets = _subsets(n)
    out = []
    for _ in range(rounds):
        size = inst.num_allocations
        constraint = Constraint(inst, frozenset(rng.sample(range(size), rng.randint(1, size))))
        out.append(_random_cells(rng, constraint, subsets))
        built = [sd_alpha(constraint, rng.sample(range(n), n))]
        caps = [0] * m
        for _ in range(n):
            caps[rng.randrange(m)] += 1
        priorities = tuple(tuple(rng.sample(range(n), n)) for _ in range(m))
        built.append(da_alpha(SchoolSpec(inst, tuple(caps), priorities)))
        if n == m:
            built.append(ttc_alpha(Endowment(inst, tuple(rng.sample(range(n), n)))))
        out.extend(built)
        out.extend(_perturbed(rng, alpha, subsets) for alpha in built)
    return out


@pytest.mark.parametrize("n,m", TABULATE_SHAPES)
def test_tabulate_matches_run_lp_loop(n, m):
    rounds = 4 if n ** m < 40 else 2
    witnesses = [
        _tabulate_agrees(alpha) for alpha in _assignments(n, m, seed=10 * n + m, rounds=rounds)
    ]
    assert any(w is None for w in witnesses)
    if n > 1:
        # some first exhausting profile lies past the first top-choice vector
        assert any(w is not None and any(pref[0] for pref in w) for w in witnesses)


def test_tabulate_reports_the_first_malformed_run():
    # A cell missing behind the first exhaustion, and one missing ahead of it:
    # the sweep reports whichever failure the profile-order loop meets first.
    inst = Instance(("1", "2"), ("a", "b", "c"))
    constraint = Constraint(inst, frozenset({inst.encode((0, 1)), inst.encode((1, 0))}))
    alpha = make_alpha(constraint, {
        c: {0} for c in range(inst.num_allocations) if c not in constraint.feasible
    })
    assert isinstance(reference_tabulate(alpha), NotImplementableError)
    kinds = set()
    for code in sorted(alpha.cells):
        broken = object.__new__(CompromiserAssignment)
        object.__setattr__(broken, "constraint", constraint)
        object.__setattr__(broken, "cells", {c: s for c, s in alpha.cells.items() if c != code})
        try:
            expected = reference_tabulate(broken)
        except MalformedAssignmentError as exc:
            expected = exc
        with pytest.raises(type(expected)) as err:
            tabulate(broken)
        assert str(err.value) == str(expected)
        if isinstance(expected, NotImplementableError):
            assert err.value.profile == expected.profile
        kinds.add(type(expected))
    assert kinds == {MalformedAssignmentError, NotImplementableError}


def _draw_assignment(draw, inst):
    codes = range(inst.num_allocations)
    feasible = draw(st.sets(st.sampled_from(codes), min_size=1))
    cells = {
        c: draw(st.sets(st.sampled_from(range(inst.n)), min_size=1))
        for c in codes if c not in feasible
    }
    return make_alpha(Constraint(inst, frozenset(feasible)), cells)


def _two_agent_instance(draw):
    return Instance(("1", "2"), tuple("abc"[: draw(st.sampled_from((2, 3)))]))


@st.composite
def two_agent_assignments(draw):
    return _draw_assignment(draw, _two_agent_instance(draw))


@st.composite
def small_assignments(draw):
    """Two agents with two or three objects, or three agents with two."""
    if draw(st.booleans()):
        return _draw_assignment(draw, Instance(("1", "2", "3"), ("a", "b")))
    return _draw_assignment(draw, _two_agent_instance(draw))


@st.composite
def two_agent_pairs(draw):
    inst = _two_agent_instance(draw)
    return _draw_assignment(draw, inst), _draw_assignment(draw, inst)


def _first_failure_found_is_not_the_lowest():
    # The walk meets an exhaustion at profile 6 before the first one, at 2.
    inst = Instance(("1", "2"), ("a", "b", "c"))
    cells = {code: {0} for code in (0, 3, 4, 5, 6, 7, 8)}
    return make_alpha(Constraint(inst, frozenset({1})), {**cells, 2: {1}})


@given(small_assignments())
@example(_first_failure_found_is_not_the_lowest())
@settings(max_examples=120, deadline=None)
def test_tabulate_matches_run_lp_loop_on_generated_assignments(alpha):
    _tabulate_agrees(alpha)


def reference_outcome_codes(alpha):
    """`run_lp` on every profile: the allocation code, or EXHAUSTED."""
    inst = alpha.instance
    return tuple(
        EXHAUSTED if isinstance(out, Exhausted) else inst.encode(out.assignment)
        for out in (run_lp(alpha, p) for p in inst.all_profiles())
    )


def _outcome_codes_agree(alpha):
    """Same codes as the reference, and the table itself when implementable;
    returns whether some run exhausts."""
    codes = outcome_codes(alpha)
    assert codes == reference_outcome_codes(alpha)
    if EXHAUSTED not in codes:
        assert codes == tabulate(alpha).table
    return EXHAUSTED in codes


@pytest.mark.parametrize("n,m", TABULATE_SHAPES)
def test_outcome_codes_match_run_lp_loop(n, m):
    rounds = 4 if n ** m < 40 else 2
    exhausting = [
        _outcome_codes_agree(alpha) for alpha in _assignments(n, m, seed=10 * n + m, rounds=rounds)
    ]
    assert not all(exhausting)
    if n > 1:
        assert any(exhausting)


@given(small_assignments())
@settings(max_examples=120, deadline=None)
def test_outcome_codes_match_run_lp_loop_on_generated_assignments(alpha):
    _outcome_codes_agree(alpha)


def reference_welfare_sweep(alpha, alpha_prime, agents, preferred):
    """One `run_lp` of each assignment at every profile, comparing places in
    the rankings: the labels of the assignments that ever exhaust, and the
    first profile, with the first of `agents`, where the `preferred`
    assignment's outcome is strictly worse for that agent. Profiles where
    either assignment exhausts are skipped."""
    exhausted = [False, False]
    witness = None
    for profile in alpha.instance.all_profiles():
        outs = (run_lp(alpha, profile), run_lp(alpha_prime, profile))
        stuck = False
        for k, out in enumerate(outs):
            if isinstance(out, Exhausted):
                exhausted[k] = stuck = True
        if stuck or witness is not None:
            continue
        kept, other = outs[preferred].assignment, outs[1 - preferred].assignment
        for i in agents:
            if profile[i].index(kept[i]) > profile[i].index(other[i]):
                witness = {
                    "profile": profile,
                    "agent": i,
                    "outcome_alpha": outs[0].assignment,
                    "outcome_alpha_prime": outs[1].assignment,
                }
                break
    failures = [
        f"{label}_not_implementable"
        for label, ever in zip(("alpha", "alpha_prime"), exhausted)
        if ever
    ]
    return failures, witness


def _dominance_reports(pairs):
    """Both comparisons, for every agent, on every pair."""
    return [
        repr(report)
        for alpha, alpha_prime in pairs
        for report in [check_pointwise_dominance(alpha, alpha_prime)] + [
            check_agent_dominance(alpha, alpha_prime, i) for i in range(alpha.instance.n)
        ]
    ]


def _dominance_agrees(pairs):
    """The same reports with the reference sweep in place of the table diff;
    returns them."""
    reports = _dominance_reports(pairs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compare, "_welfare_sweep", reference_welfare_sweep)
        assert _dominance_reports(pairs) == reports
    return reports


def _dominance_pairs(seed):
    """SD against SD on house n=3; DA at two nested capacity vectors, both
    ways round; random assignments at (3,3) on one constraint or two; and
    random 2-agent assignments on two constraints."""
    rng = random.Random(seed)
    inst = Instance(("1", "2", "3"), ("a", "b", "c"))
    house = house_constraint(inst)
    orders = list(itertools.permutations(range(3)))
    pairs = [(sd_alpha(house, o), sd_alpha(house, o2)) for o in orders for o2 in orders]
    while len(pairs) < 36 + 30:
        small = tuple(rng.randint(0, 2) for _ in range(3))
        if sum(small) < 3:
            continue
        big = tuple(min(3, q + rng.randint(0, 2)) for q in small)
        priorities = tuple(tuple(rng.sample(range(3), 3)) for _ in range(3))
        built = [da_alpha(SchoolSpec(inst, caps, priorities)) for caps in (small, big)]
        pairs.append(tuple(built if len(pairs) % 2 else built[::-1]))

    def constraint(inst):
        size = inst.num_allocations
        return Constraint(inst, frozenset(rng.sample(range(size), rng.randint(1, size))))

    for _ in range(60):
        c = constraint(inst)
        c2 = c if rng.random() < 0.5 else constraint(inst)
        pairs.append((_random_cells(rng, c, _subsets(3)), _random_cells(rng, c2, _subsets(3))))
    for _ in range(60):
        inst2 = Instance(("1", "2"), tuple("abc"[: rng.choice((2, 3))]))
        pairs.append(tuple(_random_cells(rng, constraint(inst2), _subsets(2)) for _ in "ab"))
    return pairs


def test_compare_matches_the_run_lp_sweep():
    reports = _dominance_agrees(_dominance_pairs(seed=5))
    assert len(reports) == 684
    # the corpus reaches both labels, witnesses, and holding comparisons
    for needle in ("'alpha_not_implementable'", "'alpha_prime_not_implementable'",
                   "witness={", "witness=None"):
        assert sum(needle in r for r in reports) > 50, needle


@given(two_agent_pairs())
@settings(max_examples=80, deadline=None)
def test_compare_matches_the_run_lp_sweep_on_generated_pairs(pair):
    _dominance_agrees([pair])


def reference_moved_codes(inst, x, agents):
    """Codes of all allocations differing from x only on the given agents,
    ascending."""
    coords = sorted(agents)
    codes = []
    for combo in itertools.product(range(inst.m), repeat=len(coords)):
        y = list(x)
        for i, obj in zip(coords, combo):
            y[i] = obj
        codes.append(inst.encode(y))
    return sorted(codes)


def reference_neighbors(alpha, code, abandoned):
    """Legal next states with per-agent abandoned-object masks."""
    inst = alpha.instance
    cell = sorted(alpha.cell(code))
    x = inst.decode(code)
    for size in range(1, len(cell) + 1):
        for subset in itertools.combinations(cell, size):
            choices = [
                [o for o in range(inst.m) if o != x[i] and not (abandoned[i] >> o) & 1]
                for i in subset
            ]
            for combo in itertools.product(*choices):
                y = list(x)
                new_ab = list(abandoned)
                for i, obj in zip(subset, combo):
                    new_ab[i] |= 1 << y[i]
                    y[i] = obj
                yield inst.encode(y), tuple(new_ab)


def reference_connect_search(alpha, x_code, agent):
    inst = alpha.instance
    if agent not in alpha.cell(x_code):
        return {}
    x = inst.decode(x_code)
    start_ab = tuple((1 << x[agent]) if i == agent else 0 for i in range(inst.n))
    queue = deque()
    seen = set()
    reached = {}
    for obj in range(inst.m):
        if obj == x[agent]:
            continue
        y = list(x)
        y[agent] = obj
        code = inst.encode(y)
        seen.add((code, start_ab))
        queue.append((code, start_ab, (x_code, code)))
    while queue:
        code, ab, path = queue.popleft()
        if code not in alpha.constraint.feasible:
            reached.setdefault(code, path)
            for nxt, nab in reference_neighbors(alpha, code, ab):
                if (nxt, nab) not in seen:
                    seen.add((nxt, nab))
                    queue.append((nxt, nab, path + (nxt,)))
    return reached


def reference_forward(alpha):
    inst = alpha.instance
    for x_code in sorted(alpha.cells):
        x = inst.decode(x_code)
        cell = alpha.cells[x_code]
        for y_code in reference_moved_codes(inst, x, cell):
            y = inst.decode(y_code)
            owed = cell - diff(x, y)
            if not owed <= alpha.cell(y_code):
                return {
                    "x": x,
                    "y": y,
                    "alpha_x": tuple(sorted(cell)),
                    "alpha_y": tuple(sorted(alpha.cell(y_code))),
                    "missing": tuple(sorted(owed - alpha.cell(y_code))),
                }
    return None


def reference_backward(alpha, reading):
    inst = alpha.instance
    feasible = alpha.constraint.feasible
    for agent in range(inst.n):
        for x_code in sorted(alpha.cells):
            reached = reference_connect_search(alpha, x_code, agent)
            x = inst.decode(x_code)
            for y_code in sorted(reached):
                cell_y = alpha.cell(y_code)
                for xp_code in reference_moved_codes(inst, x, cell_y - {agent}):
                    if reading == "relaxed" and xp_code in feasible:
                        continue
                    if agent not in alpha.cell(xp_code):
                        return {
                            "agent": agent,
                            "x": x,
                            "y": inst.decode(y_code),
                            "x_prime": inst.decode(xp_code),
                            "alpha_y": tuple(sorted(cell_y)),
                            "alpha_x_prime": tuple(sorted(alpha.cell(xp_code))),
                            "path": tuple(inst.decode(c) for c in reached[y_code]),
                            "reading": reading,
                        }
    return None


def _consistency_agrees(alpha):
    """Same verdicts and witnesses as the references in both readings, the
    same moved codes from `Instance.moves` for every cell and agent set, and the same reached maps
    and paths; returns whether strict backward consistency fails."""
    inst = alpha.instance
    _agrees(is_forward_consistent(alpha), reference_forward(alpha))
    for reading in ("strict", "relaxed"):
        _agrees(is_backward_consistent(alpha, reading), reference_backward(alpha, reading))
    masks = _masks(alpha)
    for x_code in sorted(alpha.cells):
        x = inst.decode(x_code)
        for agents in itertools.chain.from_iterable(
            itertools.combinations(range(inst.n), k) for k in range(inst.n + 1)
        ):
            moved = inst.moves(x_code, sum(1 << i for i in agents))
            assert sorted([x_code] + [code for code, _ in moved]) == reference_moved_codes(inst, x, agents)
            assert all(
                sum(1 << i for i in diff(x, inst.decode(code))) == sub for code, sub in moved
            )
        for agent in range(inst.n):
            reached = reference_connect_search(alpha, x_code, agent)
            if agent in alpha.cells[x_code]:
                paths = _first_paths(inst, _reach(inst, masks, x_code, agent))
                assert list(paths.items()) == list(reached.items())
            else:
                assert reached == {}
    return reference_backward(alpha, "strict") is not None


CONSISTENCY_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]


@pytest.mark.parametrize("n,m", CONSISTENCY_SHAPES)
def test_consistency_matches_reference_loops(n, m):
    failing = [
        _consistency_agrees(alpha) for alpha in _assignments(n, m, seed=7 * n + m, rounds=6)
    ]
    assert any(failing) and not all(failing)


def test_consistency_matches_reference_loops_on_fixtures(ttc_endowment):
    fixtures = Path(__file__).parent / "fixtures"
    alphas = [
        load_alpha(json.loads(path.read_text())) for path in sorted(fixtures.glob("*alpha*.json"))
    ]
    inst = ttc_endowment.instance
    alphas += [ttc_alpha(Endowment(inst, owners)) for owners in itertools.permutations(range(inst.n))]
    failing = [_consistency_agrees(alpha) for alpha in alphas]
    assert any(failing) and not all(failing)


@given(two_agent_assignments())
@settings(max_examples=60, deadline=None)
def test_consistency_matches_reference_loops_on_generated_assignments(alpha):
    _consistency_agrees(alpha)


def _identity_group(monkeypatch):
    """Hand the search only the identity symmetry, which turns off both the
    lex-leader prune and the orbit expansion: the search then walks, checks
    and emits every member of every orbit."""
    def identity(constraint):
        inst = constraint.instance
        return ((tuple(range(inst.n)), tuple(range(inst.m))),)

    monkeypatch.setattr(enumeration, "constraint_symmetries", identity)


def _recorded_leaves(monkeypatch, house):
    leaves = []

    def record(inst, masks, strict):
        failure = _backward_failure(inst, masks, strict)
        leaves.append((list(masks), strict, failure))
        return failure

    monkeypatch.setattr(enumeration, "_backward_failure", record)
    return enumeration.enumerate_consistent(house, enumeration.EnumerationOptions()), leaves


def test_backward_matches_reference_on_the_house_search_leaves(monkeypatch):
    # Every leaf the house n=3 search checks, rebuilt from the cell masks the
    # search hands its leaf check, with the outcome the search got. The full
    # verdict is compared strict on every leaf, relaxed on every third. The
    # search reaches only implementable leaves, so the leaves that fail the
    # check are the same 738 as when every leaf was tabulated after it. With
    # its symmetry group the search checks only the 45 orbits' lex-leaders.
    house = house_constraint(Instance(("1", "2", "3"), ("a", "b", "c")))
    result, leaves = _recorded_leaves(monkeypatch, house)
    assert (len(leaves), sum(failure is None for _, _, failure in leaves)) == (73, 45)
    assert result.count == 1056
    _identity_group(monkeypatch)
    result, leaves = _recorded_leaves(monkeypatch, house)
    sets = house.instance.agent_sets
    assert (len(leaves), result.count) == (1794, 1056)
    emitted = iter(result.assignments)
    failing = 0
    for k, (masks, strict, failure) in enumerate(leaves):
        cells = {code: sets[mask] for code, mask in enumerate(masks) if mask}
        alpha = CompromiserAssignment(house, cells)
        reference = reference_backward(alpha, "strict")
        assert strict
        assert (failure is None) == (reference is None)
        _agrees(is_backward_consistent(alpha, "strict"), reference)
        if reference is None:
            assert next(emitted).cells == alpha.cells
        failing += reference is not None
        if k % 3 == 0:
            _agrees(is_backward_consistent(alpha, "relaxed"), reference_backward(alpha, "relaxed"))
    assert failing == 738


def reference_quotient(result, group):
    """Group a complete list of enumerated assignments into the orbits of
    `group`; representatives are minimal under the canonical cell-mask
    encoding. Raises if an orbit is not closed in the list."""
    constraint = result.constraint
    inst = constraint.instance
    codes, mask_of = range(inst.num_allocations), inst.mask_of
    actions = [
        (
            tuple(map(enumeration._permutation(inst, aperm, operm), codes)),
            [mask_of[frozenset(aperm[i] for i in agents)] for agents in inst.members],
        )
        for aperm, operm in group
    ]
    cells = constraint.infeasible_codes
    key_of = {}
    for k, alpha in enumerate(result.assignments):
        key_of[tuple(mask_of[alpha.cells[c]] for c in cells)] = k

    reps = []
    claimed = set()
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


def _orbits(reps):
    return [(sorted(alpha.cells.items()), size) for alpha, size in reps]


def _search_constraints():
    house = house_constraint(Instance(("1", "2", "3"), ("a", "b", "c")))
    inst = house.instance
    out = {"house": house}
    for name in "abc":
        obj = inst.object_index(name)
        out[f"house+{name}"] = Constraint(inst, house.feasible | {inst.encode((obj,) * 3)}, ("explicit",))
    for name in ("social.json", "social2.json"):
        out[name] = load_constraint(json.loads((Path(__file__).parent / "fixtures" / name).read_text()))
    return out


@pytest.mark.parametrize("name,reading", [
    ("house", "strict"), ("house", "relaxed"), ("house+a", "strict"), ("house+b", "strict"),
    ("house+c", "strict"), ("social2.json", "strict"), ("social.json", "strict"),
])
def test_symmetry_breaking_matches_the_search_without_it(monkeypatch, name, reading):
    # The lex-leader search, with its orbits expanded and their tables moved
    # by permutation, against the search that walks every member: the same
    # assignments in the same order, the same mechanism groups, and the
    # orbits the reference quotient finds in the full list.
    constraint = _search_constraints()[name]
    options = enumeration.EnumerationOptions(
        reading=reading, quotient_symmetry=True, dedupe_by_mechanism=True
    )
    group = enumeration.constraint_symmetries(constraint)
    broken = enumeration.enumerate_consistent(constraint, options)
    _identity_group(monkeypatch)
    full = enumeration.enumerate_consistent(constraint, options)
    assert len(group) > 1 and broken.complete and full.complete
    assert [a.cells for a in broken.assignments] == [a.cells for a in full.assignments]
    assert list(broken.mechanism_groups.items()) == list(full.mechanism_groups.items())
    assert _orbits(broken.representatives) == _orbits(reference_quotient(full, group))
    assert full.orbit_count == full.count


@pytest.mark.parametrize("forward,backward,budget", [
    (True, True, 50), (True, True, 1_447), (True, True, 2_000), (True, False, 20_000),
])
def test_a_budget_cut_search_emits_a_prefix_of_the_complete_list(monkeypatch, forward, backward, budget):
    # Every key below the frontier of a cut search was searched in full, so
    # its members there are a prefix of the complete list, and that prefix
    # is at least as long as the one the search without symmetry breaking
    # reaches in the same budget. The complete list comes from the search
    # without symmetry breaking; the forward-only house search does not
    # complete, so there it is that search's cut at twice the budget. At
    # 1,447 nodes the search stops before a node that members of orbits it
    # has already found lie under, and which it has not searched.
    house = house_constraint(Instance(("1", "2", "3"), ("a", "b", "c")))

    def run(budget):
        options = enumeration.EnumerationOptions(
            require_forward=forward, require_backward=backward, dedupe_by_mechanism=True, budget=budget
        )
        return enumeration.enumerate_consistent(house, options)

    cut = run(budget)
    _identity_group(monkeypatch)
    plain, reference = run(budget), run(50_000_000 if backward else 2 * budget)
    assert not cut.complete and not plain.complete and reference.complete == backward
    count = cut.count
    assert plain.count <= count < reference.count
    assert [a.cells for a in cut.assignments] == [a.cells for a in reference.assignments[:count]]
    prefix = {}
    for table, members in reference.mechanism_groups.items():
        if members[0] < count:
            prefix[table] = [k for k in members if k < count]
    assert list(cut.mechanism_groups.items()) == list(prefix.items())


def test_house_with_four_objects_completes(monkeypatch):
    # Group order 144: the search without symmetry breaking stops after 2M
    # nodes with 18,649 of these assignments.
    house = house_constraint(Instance(("1", "2", "3"), ("a", "b", "c", "d")))
    options = enumeration.EnumerationOptions(quotient_symmetry=True)
    result = enumeration.enumerate_consistent(house, options)
    reps = reference_quotient(result, enumeration.constraint_symmetries(house))
    assert result.complete
    assert (result.count, len(reps)) == (38_898, 370)
    assert _orbits(result.representatives) == _orbits(reps)


def _all_cell_choices(constraint):
    """Every compromiser assignment for a constraint, smallest total cell size
    first (then lexicographic), so minimal witnesses surface early."""
    inst = constraint.instance
    cells = constraint.infeasible_codes
    by_size = {}
    for agents in inst.agent_sets[1:]:
        by_size.setdefault(len(agents), []).append(agents)
    sizes = sorted(by_size)

    def combos(k, total):
        if k == len(cells):
            if total == 0:
                yield []
            return
        remaining = len(cells) - k - 1
        for size in sizes:
            rest = total - size
            if rest < remaining * sizes[0] or rest > remaining * sizes[-1]:
                continue
            for choice in by_size[size]:
                for tail in combos(k + 1, rest):
                    yield [choice] + tail

    for total in range(len(cells), inst.n * len(cells) + 1):
        for combo in combos(0, total):
            yield CompromiserAssignment(constraint, dict(zip(cells, combo)))


def reference_find_pe_not_gsp(constraints, budget):
    """Generate and test: tabulate every candidate in order and return the
    first implementable one whose table is bossy and Pareto efficient."""
    examined = 0
    for constraint in constraints:
        for alpha in _all_cell_choices(constraint):
            examined += 1
            if examined > budget:
                return None
            try:
                table = tabulate(alpha)
            except NotImplementableError:
                continue
            bossy = is_nonbossy(table)
            if bossy.holds:
                continue
            if not is_pareto_efficient(table).holds:
                continue
            return SearchResult(alpha, table, {"bossiness_witness": bossy.witness, "examined": examined})
    return None


def _school_constraints(n, m):
    """Every distinct school constraint at n agents and m objects, capacities
    0 to n."""
    inst = Instance(tuple("123"[:n]), tuple("abc"[:m]))
    found = {}
    for caps in itertools.product(range(n + 1), repeat=m):
        if sum(caps) >= n:
            constraint = school_constraint(inst, caps)
            found.setdefault(constraint.feasible, constraint)
    return list(found.values())


# The (3,3) school constraints whose first witness lies within 20,000
# candidates, with its `examined`; the other 42 have none there.
PE_BOSSY_WITNESSES = {
    (1, 2, 2): 3_079, (1, 2, 3): 1_027, (1, 3, 2): 1_027, (1, 3, 3): 343,
    (2, 1, 2): 289, (2, 1, 3): 97, (2, 2, 1): 15, (2, 3, 1): 15,
    (3, 1, 2): 289, (3, 1, 3): 97, (3, 2, 1): 15, (3, 3, 1): 15,
}


def _pe_bossy_cases():
    """(constraints, budget) for the differential. First the chains, where
    the examined counts add up across constraints: three seeded ones of two
    small witness-less (2,3) constraints and one with a witness, and (1,2,2)
    then (2,2,1) at 3,000, which runs out inside a subtree of (1,2,2) that
    the walk skips, before the witness of (2,2,1). Then every school
    constraint at (3,2) and (2,3) at 20,000, each (3,3) witness just out of
    reach and just in reach, and the other (3,3) constraints at 300."""
    pairs, small, three = _school_constraints(3, 2), _school_constraints(2, 3), _school_constraints(3, 3)
    assert len(three) == 54
    found = pairs + [c for c in three if c.generator[1] in PE_BOSSY_WITNESSES]
    tiny = [c for c in small if len(c.infeasible_codes) <= 6]
    cases = []
    for seed in range(3):
        rng = random.Random(seed)
        cases.append((rng.sample(tiny, 2) + [rng.choice(found)], rng.randrange(1, 4_000)))
    by_caps = {c.generator[1]: c for c in three}
    cases.append(([by_caps[1, 2, 2], by_caps[2, 2, 1]], 3_000))
    cases += [([c], 20_000) for c in pairs + small]
    for c in three:
        examined = PE_BOSSY_WITNESSES.get(c.generator[1])
        cases += [([c], examined - 1), ([c], examined)] if examined else [([c], 300)]
    return cases


def test_pe_bossy_search_matches_generate_and_test():
    # The pruned prefix walk against tabulating every candidate: the same
    # witness, table, bossiness witness and examined count, or None.
    witnesses = 0
    for constraints, budget in _pe_bossy_cases():
        found = find_pe_not_gsp(constraints, budget=budget)
        assert found == reference_find_pe_not_gsp(constraints, budget), (
            [c.generator for c in constraints], budget
        )
        witnesses += found is not None
    # four at (3,2), twelve at (3,3) and two of the three chains
    assert witnesses == 18


def reference_validate(constraint, cells):
    """The per-cell loop that once validated every assignment: the message
    of the first problem, cell by cell and then the missing cells, or None."""
    inst, feasible = constraint.instance, constraint.feasible

    def names(code):
        return inst.assignment_names(inst.decode(code))

    for code, agents in cells.items():
        if not 0 <= code < inst.num_allocations:
            return f"cell code {code} out of range"
        if code in feasible:
            return f"cell on feasible allocation {names(code)}"
        if not agents:
            return f"empty cell at {names(code)}"
        if not isinstance(agents, frozenset):
            return f"cell at {names(code)} is a {type(agents).__name__}, not a frozenset"
        if any(not 0 <= i < inst.n for i in agents):
            return f"invalid agent index in cell {code}"
    for code in range(inst.num_allocations):
        if code not in feasible and code not in cells:
            return f"missing cell at infeasible {names(code)}"
    return None


def _validation_agrees(constraint, cells):
    """The constructor accepts where the reference finds no problem, and
    otherwise raises the reference's message."""
    expected = reference_validate(constraint, cells)
    try:
        CompromiserAssignment(constraint, cells)
    except MalformedAssignmentError as exc:
        assert str(exc) == expected, cells
    else:
        assert expected is None, cells
    return expected


class _Agents(frozenset):
    """A frozenset subclass, which a cell may hold."""


def _put(place, value):
    """An edit that sets one cell; `place` picks its code off the constraint."""
    return lambda c, cells: {**cells, place(c): value}


def _first(c):
    return c.infeasible_codes[0]


def _last(c):
    return c.infeasible_codes[-1]


# Each edit turns the valid cells of a constraint (agent 0 at every
# infeasible code) into the case it names.
VALIDATION_CASES = {
    "valid": lambda c, cells: cells,
    "feasible code": _put(lambda c: min(c.feasible), frozenset({0})),
    "code past the last": _put(lambda c: c.instance.num_allocations, frozenset({0})),
    "negative code": _put(lambda c: -1, frozenset({0})),
    "missing first cell": lambda c, cells: {k: v for k, v in cells.items() if k != _first(c)},
    "missing last cell": lambda c, cells: {k: v for k, v in cells.items() if k != _last(c)},
    "empty frozenset": _put(_last, frozenset()),
    "agent index n": lambda c, cells: {**cells, _first(c): frozenset({0, c.instance.n})},
    "agent index -1": _put(_last, frozenset({-1})),
    "set": _put(_first, {0}),
    "empty set": _put(_first, set()),
    "list": _put(_last, [0, 1]),
    "tuple": _put(_last, (1,)),
    "empty tuple": _put(_first, ()),
    "frozenset subclass": _put(_first, _Agents({0, 1})),
    "every cell a subclass": lambda c, cells: {k: _Agents(v) for k, v in cells.items()},
}
ACCEPTED = {"valid", "frozenset subclass", "every cell a subclass"}


@pytest.mark.parametrize("case", VALIDATION_CASES)
def test_assignment_validation_matches_the_per_cell_loop(house3, case):
    cells = {code: frozenset({0}) for code in house3.infeasible_codes}
    expected = _validation_agrees(house3, VALIDATION_CASES[case](house3, cells))
    assert (expected is None) == (case in ACCEPTED), expected


@st.composite
def _cell_dicts(draw):
    """A constraint on two agents and a dict near its valid cells: most
    infeasible codes and a few others (one past either end included) get a
    cell, and a cell is mostly a nonempty frozenset of agents, otherwise a
    subclass, set, list or tuple, possibly empty or holding an index one past
    either end."""
    inst = _two_agent_instance(draw)
    feasible = draw(st.sets(st.sampled_from(range(inst.num_allocations)), min_size=1))
    constraint = Constraint(inst, frozenset(feasible))
    kinds = st.sampled_from((frozenset,) * 4 + (_Agents, set, list, tuple))
    members = st.lists(st.integers(0, inst.n - 1), min_size=1, max_size=2) | st.lists(
        st.integers(-1, inst.n), max_size=3
    )
    cells = {}
    for code in range(-1, inst.num_allocations + 1):
        if draw(st.integers(0, 15)) < (15 if code in constraint.infeasible_set else 1):
            cells[code] = draw(kinds)(draw(members))
    return constraint, cells


@given(_cell_dicts())
@settings(max_examples=300, deadline=None)
def test_assignment_validation_matches_the_per_cell_loop_on_generated_dicts(case):
    _validation_agrees(*case)
