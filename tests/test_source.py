"""Source-level guarantees of the package."""

import ast
from pathlib import Path

import localpriority

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
