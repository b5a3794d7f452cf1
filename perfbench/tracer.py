"""Spans around calls into the program's layers, recorded from outside it.

A `Tracer` replaces module attributes of `localpriority` with timing
wrappers. A wrapper records one span per call (name, start, end, parent span,
op id) in flat arrays and, for calls whose answer the per-layer metrics count,
a small payload taken from the return value. Calls made while the tracer is
inactive, such as those of the correctness gate, pass straight through.
`restore()` puts every original attribute back.

Only calls that cross a module boundary, or that a caller looks up by module
attribute, are seen. `engine.run_lp` is wrapped where enumeration calls it,
not inside `engine.tabulate`, whose own profile loop is not a layer boundary.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import statistics
from array import array
from time import perf_counter

# (span name, defining module, function). Each is wrapped in every module
# that binds it, except inside `engine` for run_lp.
FUNCTIONS = [
    ("core.constraint", "core", "house_constraint"),
    ("core.constraint", "core", "school_constraint"),
    ("engine.tabulate", "engine", "tabulate"),
    ("engine.tabulate_function", "engine", "tabulate_function"),
    ("engine.run_lp", "engine", "run_lp"),
    ("mechanisms.alpha", "mechanisms", "da_alpha"),
    ("mechanisms.alpha", "mechanisms", "sd_alpha"),
    ("mechanisms.alpha", "mechanisms", "ttc_alpha"),
    ("mechanisms.reference", "mechanisms", "cumulative_da"),
    ("mechanisms.reference", "mechanisms", "serial_dictatorship"),
    ("mechanisms.reference", "mechanisms", "ttc"),
    ("mechanisms.reference", "mechanisms", "immediate_acceptance"),
    ("axioms.sp", "axioms", "is_strategy_proof"),
    ("axioms.nonbossy", "axioms", "is_nonbossy"),
    ("axioms.gsp", "axioms", "is_group_strategy_proof"),
    ("axioms.maskin", "axioms", "is_maskin_monotonic"),
    ("axioms.pareto", "axioms", "is_pareto_efficient"),
    ("axioms.local_priority", "axioms", "is_local_priority"),
    ("axioms.unanimity", "axioms", "check_unanimity"),
    ("axioms.fixed_compromiser", "axioms", "check_fixed_compromiser"),
    ("axioms.invariance", "axioms", "check_compromiser_invariance"),
    ("axioms.derive_alpha", "axioms", "derive_alpha"),
    ("consistency.forward", "consistency", "is_forward_consistent"),
    ("consistency.backward", "consistency", "is_backward_consistent"),
    ("consistency.find_pe_not_gsp", "consistency", "find_pe_not_gsp"),
    ("consistency.find_gsp_backward_violation", "consistency", "find_gsp_backward_violation"),
    ("enumeration.enumerate", "enumeration", "enumerate_consistent"),
    ("enumeration.symmetries", "enumeration", "_quotient"),
    ("cli.main", "cli", "main"),
]
FILEIO = ("load_constraint", "dump_constraint", "load_alpha", "dump_alpha", "dumps")
# Construction and validation of these classes is timed by wrapping __init__.
CLASSES = [("core.alpha", "CompromiserAssignment"), ("core.constraint", "Constraint")]
UNWRAPPED = {("engine", "run_lp")}
MODULES = ("core", "engine", "mechanisms", "axioms", "consistency", "enumeration", "fileio", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.info: dict[int, tuple] = {}
        self.op_id = -1
        self.active = False
        self._stack: list[int] = []
        # (owner, attribute, original) for every wrapped attribute
        self.patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self) -> None:
        mods = {m: importlib.import_module(f"localpriority.{m}") for m in MODULES}
        for span, home, attr in FUNCTIONS:
            original = getattr(mods[home], attr)
            for mod_name, mod in mods.items():
                if mod.__dict__.get(attr) is original and (mod_name, attr) not in UNWRAPPED:
                    self._patch(mod, attr, self._wrap(original, span, attr))
        for attr in FILEIO:
            self._patch(mods["fileio"], attr, self._wrap(getattr(mods["fileio"], attr), "fileio", attr))
        for span, cls_name in CLASSES:
            cls = getattr(mods["core"], cls_name)
            self._patch(cls, "__init__", self._wrap(cls.__init__, span, "__init__"))

    def restore(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, span: str, attr: str):
        name_id = self._name_id(span)
        exhaustive_id = self._name_id("axioms.gsp_exhaustive") if span == "axioms.gsp" else None
        payload = PAYLOADS.get(attr)
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            nid = name_id
            if exhaustive_id is not None and (kwargs.get("exhaustive") or (len(args) > 1 and args[1])):
                nid = exhaustive_id
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(idx)
            result = exc = None
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
                if payload is not None:
                    tracer.info[idx] = payload(args, kwargs, result, exc)

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line: name, start, end,
        parent span index (-1 at an op's root), op id."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self.parent[i]}\t{self.op[i]}\n"
                )


def _witness_profile(witness: dict | None):
    if not witness:
        return None
    if "profile" in witness:
        return witness["profile"]
    return witness["profiles"][0] if witness.get("profiles") else None


def _verdict(args, kwargs, result, exc):
    if result is None:
        return (False, args[0].instance, None)
    return (result.holds, args[0].instance, None if result.holds else _witness_profile(result.witness))


def _lp_verdict(args, kwargs, result, exc):
    if result is None:
        return (False, args[0].instance, None)
    return (result.is_lp, args[0].instance, None if result.is_lp else _witness_profile(result.witness))


def _derive(args, kwargs, result, exc):
    return (result is not None, args[0].instance, None)


def _consistency(args, kwargs, result, exc):
    return (result is not None and result.holds,)


def _tabulate(args, kwargs, result, exc):
    return (result is not None, args[0].instance, getattr(exc, "profile", None))


def _search(args, kwargs, result, exc):
    # The benchmark passes the budget by keyword; a search that found nothing
    # examined its whole budget.
    return (result.detail["examined"] if result is not None else kwargs["budget"],)


def _enumerate(args, kwargs, result, exc):
    return (0, 0) if result is None else (result.count, result.pruned_nodes)


PAYLOADS = {
    "is_strategy_proof": _verdict,
    "is_nonbossy": _verdict,
    "is_group_strategy_proof": _verdict,
    "is_maskin_monotonic": _verdict,
    "is_pareto_efficient": _verdict,
    "check_unanimity": _verdict,
    "check_fixed_compromiser": _verdict,
    "check_compromiser_invariance": _verdict,
    "is_local_priority": _lp_verdict,
    "derive_alpha": _derive,
    "is_forward_consistent": _consistency,
    "is_backward_consistent": _consistency,
    "tabulate": _tabulate,
    "find_pe_not_gsp": _search,
    "find_gsp_backward_violation": _search,
    "enumerate_consistent": _enumerate,
}


def _profiles_to_verdict(instance, holds: bool, witness_profile) -> int:
    """All profiles when the verdict holds; otherwise the witness profile's
    canonical index + 1, or 0 when the call raised."""
    from localpriority.core import profile_index

    if holds:
        return instance.num_profiles
    if witness_profile is None:
        return 0
    return profile_index(instance, witness_profile) + 1


def batch_layers(tracer: Tracer, ops: range) -> dict[str, float]:
    """Per-layer metrics of the spans whose op id lies in `ops`. Op ids only
    grow, so those spans are contiguous."""
    first = bisect.bisect_left(tracer.op, ops.start)
    last = bisect.bisect_left(tracer.op, ops.stop)
    names = tracer.names
    child: dict[int, float] = {}
    for i in range(first, last):
        p = tracer.parent[i]
        if p >= 0:
            child[p] = child.get(p, 0.0) + tracer.end[i] - tracer.start[i]
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for i in range(first, last):
        name = names[tracer.name[i]]
        self_s = tracer.end[i] - tracer.start[i] - child.get(i, 0.0)
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        info = tracer.info.get(i)
        parent = tracer.parent[i]
        parent_name = names[tracer.name[parent]] if parent >= 0 else None
        if name.startswith("axioms."):
            holds, instance, witness_profile = info
            add(f"{name}.holds", int(holds))
            add(f"{name}.profiles", _profiles_to_verdict(instance, holds, witness_profile))
        elif name in ("consistency.forward", "consistency.backward"):
            add(f"{name}.holds", int(info[0]))
            if parent_name == "enumeration.enumerate":
                add("enumeration.leaves", 1)
        elif name == "engine.tabulate":
            completed, instance, exhausting = info
            add("engine.tabulate.exhausted", int(exhausting is not None))
            add("engine.tabulate.profiles", _profiles_to_verdict(instance, completed, exhausting))
            if parent_name == "enumeration.enumerate":
                add("enumeration.dedupe.self_s", self_s)
        elif name.startswith("consistency.find_"):
            add(f"{name}.examined", info[0])
        elif name == "enumeration.enumerate":
            add("enumeration.found", info[0])
            add("enumeration.pruned_nodes", info[1])
    calls = out.get("engine.tabulate.calls", 0)
    out["engine.tabulate.yield"] = (calls - out.get("engine.tabulate.exhausted", 0)) / calls if calls else 0.0
    leaves = out.get("enumeration.leaves", 0)
    out["enumeration.leaf_yield"] = out.get("enumeration.found", 0) / leaves if leaves else 0.0
    return out


def per_layer(tracer: Tracer, batches: list[range], names: list[str]) -> tuple[dict[str, float], list[str]]:
    """Counts from the first traced batch and the median self time over all
    traced batches, for each declared name. Also returns the names of counts
    that differ between batches, which a deterministic program never has."""
    per_batch = [batch_layers(tracer, ops) for ops in batches]
    out = {}
    unsteady = []
    for name in names:
        values = [b.get(name, 0) for b in per_batch]
        if name.endswith("self_s"):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    return out, unsteady
