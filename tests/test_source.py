"""Source-level guarantees of the package."""

import ast
from pathlib import Path

import localpriority
from localpriority.core import PrefixWalk

PACKAGE = Path(localpriority.__file__).parent


def _find(matches):
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if matches(node)]
    return found


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise explicitly.
    found = _find(lambda node: isinstance(node, ast.Assert))
    assert not found, f"assert statements in {found}"


def test_no_imports_inside_functions():
    # Every module imports at its top, so the layering is read off the module
    # headers and no function hides an import cycle.
    found = _find(
        lambda node: isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(inner, (ast.Import, ast.ImportFrom)) for inner in ast.walk(node))
    )
    assert not found, f"functions that import: {found}"


def test_no_lru_cache_in_package():
    # Derived per-instance data lives on the object as a cached_property, not
    # in a process-wide cache keyed by instances.
    def names_lru_cache(node):
        if isinstance(node, ast.Name):
            return node.id == "lru_cache"
        if isinstance(node, ast.Attribute):
            return node.attr == "lru_cache"
        if isinstance(node, ast.alias):
            return node.name == "lru_cache"
        return False

    found = _find(names_lru_cache)
    assert not found, f"lru_cache in {found}"


def test_codes_become_names_only_through_the_name_table():
    # Instance.code_names is the one conversion from an allocation code to
    # object names: outside core.py no code decodes a code only to name it.
    def names_a_decoded_code(node):
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "assignment_names"
            and any(
                isinstance(inner, ast.Call) and getattr(inner.func, "attr", None) == "decode"
                for arg in node.args
                for inner in ast.walk(arg)
            )
        )

    found = [place for place in _find(names_a_decoded_code) if not place.startswith("core.py:")]
    assert not found, f"codes decoded to names in {found}"


def test_consistency_and_enumeration_encode_no_moves():
    # Moved allocations come from Instance.moves on codes. The naive path
    # re-check is the one place that encodes, because it takes decoded paths.
    found = []
    for name in ("consistency.py", "enumeration.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        allowed = {
            id(node)
            for top in tree.body
            if isinstance(top, ast.FunctionDef) and top.name == "validate_connection_path"
            for node in ast.walk(top)
        }
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "encode"
            and id(node) not in allowed
        ]
    assert not found, f"encode calls in {found}"


def test_consistency_takes_path_steps_from_core():
    # Instance.steps owns the order in which compromisers move along a path;
    # consistency reads it and never lists mover subsets itself.
    tree = ast.parse((PACKAGE / "consistency.py").read_text())
    found = [
        f"consistency.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "combinations"
        in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert not found, f"combinations calls in {found}"


def test_consistency_walks_compromise_paths_in_one_function():
    # One breadth-first walk both decides backward consistency and explains a
    # failure, so exactly one function takes steps and no second queue exists.
    tree = ast.parse((PACKAGE / "consistency.py").read_text())
    stepping = [
        top.name
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        and any(
            isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "steps"
            for node in ast.walk(top)
        )
    ]
    assert len(stepping) == 1, f"functions calling Instance.steps: {stepping}"
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert "deque" not in imported, "consistency.py imports deque"


def test_axioms_table_oracles_look_up_no_profiles():
    # The table oracles read f.table on index arithmetic. Looking up a profile
    # tuple is left to the explicit-profile intersection and the probe, which
    # serve mechanisms given as functions.
    tree = ast.parse((PACKAGE / "axioms.py").read_text())
    allowed = {
        id(node)
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        and top.name in ("fixed_compromisers", "probe_local_priority")
        for node in ast.walk(top)
    }
    found = [
        f"axioms.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "lookup"
        and id(node) not in allowed
    ]
    assert not found, f"lookup calls in {found}"


def test_one_profile_budget_checked_where_a_sweep_starts():
    # The profile budget is a constant of core: a table cannot be built past
    # it, and the sweeps that start without a table check it themselves, so no
    # table function takes a budget of its own.
    named = _find(
        lambda node: (isinstance(node, ast.Name) and node.id == "DEFAULT_PROFILE_BUDGET")
        or (isinstance(node, ast.Attribute) and node.attr == "DEFAULT_PROFILE_BUDGET")
        or (isinstance(node, ast.alias) and node.name == "DEFAULT_PROFILE_BUDGET")
    )
    named = [place for place in named if not place.startswith("core.py:")]
    assert not named, f"DEFAULT_PROFILE_BUDGET named in {named}"
    found = []
    for name in ("engine.py", "axioms.py", "compare.py"):
        for node in ast.walk(ast.parse((PACKAGE / name).read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if any(arg.arg == "budget" for arg in params):
                    found.append(f"{name}:{node.lineno}")
    assert not found, f"budget parameters in {found}"


def test_one_prefix_walk_decides_implementability():
    # engine's prefix walk is the one sweep over outcomes: `run_lp` is the
    # traced single run that only `lp run` calls, and profile-order rank
    # tuples come from Instance.rank_tuples.
    def calls(node, name):
        return isinstance(node, ast.Call) and name in (
            getattr(node.func, "attr", None), getattr(node.func, "id", None)
        )

    runs = [place for place in _find(lambda node: calls(node, "run_lp"))
            if not place.startswith("cli.py:")]
    assert not runs, f"run_lp calls in {runs}"

    def profile_order_product(node):
        return (
            calls(node, "product")
            and any(calls(arg, "range") for arg in node.args)
            and any(
                kw.arg == "repeat" and "n" in (getattr(kw.value, "attr", None),
                                               getattr(kw.value, "id", None))
                for kw in node.keywords
            )
        )

    products = [place for place in _find(profile_order_product)
                if not place.startswith("core.py:")]
    assert not products, f"profile-order products in {products}"


def test_only_the_completeness_oracle_tabulates_in_enumeration():
    # The search fills each leaf's table with its own restricted prefix walk,
    # so brute_force_consistent, the naive filter it is checked against, is
    # the one caller of tabulate in enumeration.py.
    tree = ast.parse((PACKAGE / "enumeration.py").read_text())
    callers = [
        top.name
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "tabulate"
    ]
    assert callers == ["brute_force_consistent"], f"tabulate called in {callers}"


def test_the_pe_bossy_search_tabulates_nothing():
    # find_pe_not_gsp fills each leaf's table by its own restricted prefix
    # walk and prunes dominated blocks inside it, so it neither tabulates nor
    # runs the Pareto oracle; only the bossiness check reads its tables.
    tree = ast.parse((PACKAGE / "consistency.py").read_text())
    search = next(
        top for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name == "find_pe_not_gsp"
    )
    called = {
        getattr(node.func, "id", None) for node in ast.walk(search) if isinstance(node, ast.Call)
    }
    assert not called & {"tabulate", "is_pareto_efficient"}, sorted(called)


def test_one_pareto_test_serves_the_oracle_and_the_search():
    # axioms._feasible_within decides Pareto domination from packed upper
    # sets: the efficiency oracle and the efficient-but-bossy search's prune
    # both call it, and no module keeps a second domination test or a second
    # table of ranking places beside Instance.weakly_better.
    def calls(module, name):
        tree = ast.parse((PACKAGE / module).read_text())
        top = next(t for t in tree.body if isinstance(t, ast.FunctionDef) and t.name == name)
        return {getattr(node.func, "id", None) for node in ast.walk(top) if isinstance(node, ast.Call)}

    for module, caller in (("axioms.py", "is_pareto_efficient"), ("consistency.py", "find_pe_not_gsp")):
        called = calls(module, caller)
        assert "_feasible_within" in called, f"{caller} calls {sorted(called, key=str)}"
    defined = _find(lambda node: isinstance(node, ast.FunctionDef) and node.name == "_feasible_within")
    assert len(defined) == 1 and defined[0].startswith("axioms.py:"), defined
    found = _find(
        lambda node: isinstance(node, ast.FunctionDef) and node.name in {"positions", "_dominated_prefixes"}
    )
    assert not found, f"second ranking table or domination test in {found}"


def test_one_function_steps_the_packed_prefix_walk():
    # engine._walk is the one prefix walk: tabulate, outcome_codes and the
    # enumeration search all run it, so it is the one function that reads the
    # packed prefix options, and the search only hands it the roots.
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(
                isinstance(node, ast.Attribute) and node.attr == "prefix_options"
                for node in ast.walk(top)
            ):
                readers.append(f"{path.name}:{top.name}")
    assert readers == ["engine.py:_walk"], f"packed prefix options read in {readers}"
    tree = ast.parse((PACKAGE / "enumeration.py").read_text())
    walks = [
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and "walk" in node.name
    ]
    assert not walks, f"enumeration.py defines {walks}"
    fields = set(PrefixWalk._fields) | {"block"}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} & fields
    assert read <= {"roots"}, f"enumeration.py reads walk constants {sorted(read)}"


def _loops(tree):
    """Each for statement and comprehension with its target, its iterable and
    the nodes in its scope."""
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            yield node.target, node.iter, node.body
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
            scope = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            for gen in node.generators:
                yield gen.target, gen.iter, scope + gen.ifs


# A bit set over something other than agents, built where it is used.
NOT_AGENT_MASKS = {("axioms.py", "part"): "the parts a coalition's outcomes hold in one slice"}


def test_agent_sets_and_masks_are_converted_only_in_core():
    # Instance.members, agent_sets and mask_of are the one place that turns a
    # mask into its agents or an agent set into its mask. Elsewhere no loop
    # over a range tests its variable's bit in a mask (x >> i), and no loop
    # over a collection sets its variable's bit (1 << i).
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "core.py":
            continue
        for target, iterable, scope in _loops(ast.parse(path.read_text())):
            if not isinstance(target, ast.Name):
                continue
            over_range = isinstance(iterable, ast.Call) and getattr(iterable.func, "id", None) == "range"
            for node in (inner for part in scope for inner in ast.walk(part)):
                if not (isinstance(node, ast.BinOp) and isinstance(node.right, ast.Name)
                        and node.right.id == target.id):
                    continue
                if over_range and isinstance(node.op, ast.RShift):
                    found.append(f"{path.name}:{node.lineno} agents of a mask")
                elif (not over_range and isinstance(node.op, ast.LShift)
                      and isinstance(node.left, ast.Constant) and node.left.value == 1
                      and (path.name, target.id) not in NOT_AGENT_MASKS):
                    found.append(f"{path.name}:{node.lineno} mask of agents")
    assert not found, f"conversions outside core: {found}"


def test_no_function_in_enumeration_calls_itself():
    # The search is one loop over the cells with one undo trail, so its
    # depth takes no stack frames: no function in enumeration.py calls itself.
    tree = ast.parse((PACKAGE / "enumeration.py").read_text())
    found = [
        f"enumeration.py:{node.lineno} {fn.name}"
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and fn.name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert not found, f"recursive calls in {found}"


def test_enumeration_keeps_no_move_tables():
    # The search reads Instance.moves, memoised per instance, where it needs
    # the moves, so every call iterates a for statement and none is stored.
    tree = ast.parse((PACKAGE / "enumeration.py").read_text())
    iterated = {id(node.iter) for node in ast.walk(tree) if isinstance(node, ast.For)}
    found = [
        f"enumeration.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "moves"
        and id(node) not in iterated
    ]
    assert not found, f"move lists kept in {found}"


def test_block_arithmetic_lives_in_core():
    # A block of profiles is the product of its agents' rank ranges, each of
    # (m - prefix length)! ranks. Instance.block builds that product and
    # Instance.prefix_walk the offsets of child blocks, so the one prefix
    # walk and the search that runs it read neither the factorials nor a
    # prefix's length.
    found = []
    for name in ("engine.py", "enumeration.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("factorials", "bit_count")
        ]
    assert not found, f"rank-range arithmetic in {found}"


# Public names that no code in src/ or perfbench/ refers to, each kept for the
# tests that use it. Any other public name without such a caller is API that
# only tests reach.
TEST_ONLY_API = {
    "tau": "the paper's k-th choice; criterion 04 builds top-choice vectors with it",
    "contours": "the paper's contour sets; the Maskin witness re-check reads them",
    "probe_local_priority": "criterion 04 refutes marriage as a local priority mechanism",
    "verify_subset_equivalence": "criterion 08 checks the sub-assignment theorem with it",
    "verify_union_closure": "criterion 06 checks union closure with it",
    "theorem_harness": "the consistency-implies-GSP theorem as one call, against a per-assignment loop",
    "is_implementable": "criterion 05 and the enumeration tests state implementability with it",
    "mechanisms_equal": "criteria 01 and 02 compare local priority tables with reference mechanisms",
    "brute_force_consistent": "the completeness oracle of criterion 11",
}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield node.name


def _references(paths):
    """Every name, attribute, imported name and string constant in the files,
    except a top-level definition's references to itself."""
    found = set()
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names.discard(top.name)
            found |= names
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    # The re-exports in __init__ and the benchmark's own tests are not callers.
    bench = PACKAGE.parents[1] / "perfbench"
    assert bench.is_dir(), f"no benchmark directory {bench} to read callers from"
    callers = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    callers += [path for path in bench.glob("*.py") if not path.name.startswith("test_")]
    unused = set(_public_definitions()) - _references(callers)
    test_only = unused - TEST_ONLY_API.keys()
    assert not test_only, f"public names only tests reach: {sorted(test_only)}"
    stale = TEST_ONLY_API.keys() - unused
    assert not stale, f"allow-listed names that have callers: {sorted(stale)}"
