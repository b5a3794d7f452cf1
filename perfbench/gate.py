"""Independent re-checks of the program's answers, run untimed after each op.

Every function returns a list of problems; an empty list means the answer
checked out. Refuting witnesses are re-checked by looking the claimed
outcomes up in the table (or the claimed cells up in the assignment), never by
re-running the oracle that produced them.
"""

from __future__ import annotations

import itertools
import math

from localpriority import engine
from localpriority.consistency import validate_connection_path


def _better(pref, a, b) -> bool:
    return pref.index(a) < pref.index(b)


def _replace(profile, agents, prefs):
    out = list(profile)
    for i, pref in zip(agents, prefs):
        out[i] = tuple(pref)
    return tuple(out)


def _lower(pref, obj) -> set:
    return set(pref[pref.index(obj) + 1 :])


def _coalition_gains(profile, coalition, x, y) -> bool:
    weak = all(not _better(profile[i], x[i], y[i]) for i in coalition)
    return weak and any(_better(profile[i], y[i], x[i]) for i in coalition)


def recheck_table_witness(table, oracle: str, w: dict) -> list[str]:
    """Re-check one refuting witness of a table oracle by table lookup."""
    look = table.lookup
    p = tuple(tuple(pref) for pref in w["profile"]) if "profile" in w else None
    if oracle in ("sp", "nonbossy"):
        i = w["agent"]
        x, y = look(p), look(_replace(p, [i], [w["misreport"]]))
        if (x, y) != (tuple(w["truthful_outcome"]), tuple(w["deviation_outcome"])):
            return [f"{oracle}: witness outcomes differ from the table"]
        ok = _better(p[i], y[i], x[i]) if oracle == "sp" else (y[i] == x[i] and y != x)
        return [] if ok else [f"{oracle}: witness is not a deviation of that kind"]
    if oracle in ("gsp", "gsp_exhaustive"):
        coalition = tuple(w["coalition"])
        x, y = look(p), look(_replace(p, coalition, w["misreports"]))
        if (x, y) != (tuple(w["truthful_outcome"]), tuple(w["deviation_outcome"])):
            return [f"{oracle}: witness outcomes differ from the table"]
        return [] if _coalition_gains(p, coalition, x, y) else [f"{oracle}: coalition does not gain"]
    if oracle == "maskin":
        q = tuple(tuple(pref) for pref in w["transformed_profile"])
        x, y = look(p), look(q)
        if (x, y) != (tuple(w["outcome"]), tuple(w["transformed_outcome"])) or x == y:
            return ["maskin: witness outcomes differ from the table"]
        if not all(_lower(p[i], x[i]) <= _lower(q[i], x[i]) for i in range(len(p))):
            return ["maskin: lower contour sets do not expand"]
        return []
    if oracle == "pareto":
        x, y = look(p), tuple(w["improvement"])
        if x != tuple(w["outcome"]):
            return ["pareto: witness outcome differs from the table"]
        if table.instance.encode(y) not in table.constraint.feasible:
            return ["pareto: improvement is infeasible"]
        return [] if _coalition_gains(p, range(len(p)), x, y) else ["pareto: no Pareto improvement"]
    return [f"{oracle}: no re-check for this oracle"]


def recheck_lp_witness(table, verdict) -> list[str]:
    """Re-check the refutation of the local-priority characterization."""
    w, failed, inst = verdict.witness, verdict.failed, table.instance
    image = table.image()
    if failed == "unanimity":
        p = w["profile"]
        tops = tuple(pref[0] for pref in p)
        ok = tops == tuple(w["tops"]) and inst.encode(tops) in image
        ok = ok and table.lookup(p) == tuple(w["outcome"]) != tops
        return [] if ok else ["unanimity: witness does not re-check"]
    if failed == "fixed_compromiser":
        mu = tuple(w["mu"])
        profiles = w["profiles"]
        ok = inst.encode(mu) not in image and len(profiles) == math.factorial(inst.m - 1) ** inst.n
        ok = ok and all(tuple(pref[0] for pref in p) == mu for p in profiles)
        served = {i for p in profiles for i, obj in enumerate(table.lookup(p)) if obj == mu[i]}
        ok = ok and served == set(range(inst.n))
        return [] if ok else ["fixed_compromiser: witness does not re-check"]
    if failed == "compromiser_invariance":
        mu, fixed = tuple(w["mu"]), set(w["fixed_compromisers"])
        p, q = w["profile"], w["transformed_profile"]
        moved = tuple(
            tuple(o for o in pref if o != mu[i]) + (mu[i],) if i in fixed else tuple(pref)
            for i, pref in enumerate(p)
        )
        x, y = table.lookup(p), table.lookup(q)
        ok = tuple(pref[0] for pref in p) == mu and moved == tuple(tuple(r) for r in q)
        ok = ok and (x, y) == (tuple(w["outcome"]), tuple(w["transformed_outcome"])) and x != y
        return [] if ok else ["compromiser_invariance: witness does not re-check"]
    if failed == "tabulation_mismatch":
        out = engine.run_lp(verdict.alpha, w["profile"])
        same = isinstance(out, engine.Final) and out.assignment == table.lookup(w["profile"])
        return [] if not same else ["tabulation_mismatch: derived assignment agrees with the table"]
    return [f"local_priority: unknown failed condition {failed!r}"]


def recheck_forward_witness(alpha, w: dict) -> list[str]:
    inst = alpha.instance
    x, y = tuple(w["x"]), tuple(w["y"])
    cell_x, cell_y = alpha.cell(inst.encode(x)), alpha.cell(inst.encode(y))
    moved = {i for i in range(inst.n) if x[i] != y[i]}
    missing = (cell_x - moved) - cell_y
    ok = moved <= cell_x and missing and tuple(sorted(missing)) == tuple(w["missing"])
    return [] if ok else ["forward: witness does not re-check"]


def recheck_backward_witness(alpha, w: dict) -> list[str]:
    inst = alpha.instance
    agent, path = w["agent"], [tuple(z) for z in w["path"]]
    x, y, xp = tuple(w["x"]), tuple(w["y"]), tuple(w["x_prime"])
    movers = alpha.cell(inst.encode(y)) - {agent}
    ok = path[0] == x and path[-1] == y and validate_connection_path(alpha, path, agent)
    ok = ok and all(x[i] == xp[i] for i in range(inst.n) if i not in movers)
    ok = ok and agent not in alpha.cell(inst.encode(xp))
    if w.get("reading") == "relaxed":
        ok = ok and inst.encode(xp) not in alpha.constraint.feasible
    return [] if ok else ["backward: witness does not re-check"]


def pareto_efficient(table) -> bool:
    """Brute force: no feasible allocation Pareto-dominates any outcome."""
    inst = table.instance
    feasible = [inst.decode(c) for c in sorted(table.constraint.feasible)]
    for profile, code in zip(inst.all_profiles(), table.table):
        x = inst.decode(code)
        if any(_coalition_gains(profile, range(inst.n), x, y) for y in feasible):
            return False
    return True


def symmetries(constraint) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Agent and object permutations mapping the feasible set onto itself."""
    inst = constraint.instance
    out = []
    for aperm in itertools.permutations(range(inst.n)):
        for operm in itertools.permutations(range(inst.m)):
            image = {inst.encode(_permute(inst.decode(c), aperm, operm)) for c in constraint.feasible}
            if image == constraint.feasible:
                out.append((aperm, operm))
    return out


def _permute(x, aperm, operm):
    y = [0] * len(x)
    for i, obj in enumerate(x):
        y[aperm[i]] = operm[obj]
    return y


def orbit_key(alpha, group) -> tuple:
    """Smallest cell-mask vector over the orbit of an assignment, the key the
    enumerator's symmetry quotient keeps as representative."""
    inst = alpha.instance
    cells = sorted(alpha.cells)
    keys = []
    for aperm, operm in group:
        moved = {
            inst.encode(_permute(inst.decode(c), aperm, operm)): sum(1 << aperm[i] for i in alpha.cells[c])
            for c in cells
        }
        keys.append(tuple(moved[c] for c in cells))
    return min(keys)


def mask_key(alpha) -> tuple:
    return tuple(sum(1 << i for i in alpha.cells[c]) for c in sorted(alpha.cells))
