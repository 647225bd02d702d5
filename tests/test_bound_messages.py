"""Every resource bound names the constant that sets it.

Each ``raise ResourceBoundExceeded(...)`` in the package, and each call of
the section-closure machine's ``exceeded(...)`` helper (whose own raise is
generic), must name a ``(module.CONSTANT)`` that the named module defines,
so that a message says which bound was hit and where to change it.
"""

import ast
import importlib
import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "branchgroups"
NAMED = re.compile(r"\((\w+)\.([A-Z][A-Z0-9_]*)\)")


def _bound_messages(tree):
    """Each call that builds a bound message: a raise of
    ResourceBoundExceeded outside the ``exceeded`` helper, or a call of it."""
    helper_raises = {id(node)
                     for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef) and fn.name == "exceeded"
                     for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Raise) and id(node) not in helper_raises
                and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "ResourceBoundExceeded"):
            yield node.exc
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "exceeded":
            yield node


def _named_constants(call):
    return [m.groups()
            for node in ast.walk(call)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for m in NAMED.finditer(node.value)]


def test_every_bound_message_names_an_existing_constant():
    unnamed, missing, checked = [], [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        for call in _bound_messages(ast.parse(path.read_text())):
            checked += 1
            named = _named_constants(call)
            if not named:
                unnamed.append(f"{path.name}:{call.lineno}")
            for module, constant in named:
                if not hasattr(importlib.import_module(f"branchgroups.{module}"), constant):
                    missing.append(f"{path.name}:{call.lineno} {module}.{constant}")
    assert unnamed == [] and missing == []
    assert checked >= 12
