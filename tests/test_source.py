"""Checks on the source text of the package itself."""

from __future__ import annotations

import ast
from pathlib import Path

import quadsing

_PACKAGE = Path(quadsing.__file__).resolve().parent


def test_package_has_no_assert_statement_and_no_float_literal():
    """``python -O`` strips ``assert``, so a check in the package raises
    instead; and the arithmetic is exact, so no float is ever written."""
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []


def test_contexts_are_compared_by_value():
    """A context equal to ``RATIONALS`` need not be the same object, so an
    ``is`` test on a module-level context misreads an equal one."""
    shared = {"RATIONALS", "RATIONAL_FUNCTIONS"}

    def names_a_context(node):
        return (isinstance(node, ast.Name) and node.id in shared) or (
            isinstance(node, ast.Attribute) and node.attr in shared
        )

    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
            ):
                if any(map(names_a_context, [node.left, *node.comparators])):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
