"""Code that only the tests call lives in tests/, not in the package.

Every module-level function or class of ``src/branchgroups`` that is not
a public name, and every method that is not a dunder, must be named
somewhere in the package or in ``perfbench`` other than on its own
``def``/``class`` line: in a call, an import, an attribute string or a
docstring that points a reader to it.
"""

import ast
import pathlib
import re

import branchgroups

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "branchgroups"

# the paper and the README list reachable-section closures
ALLOWED = {"TreeAutomorphism.reachable_sections"}


def _definitions(tree):
    """(node, label) for each private top-level definition and method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name not in branchgroups.__all__:
            yield node, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield member, f"{node.name}.{member.name}"


def test_every_private_name_has_a_caller_outside_the_tests():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    lines = {path: path.read_text().splitlines() for path in files}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, label in _definitions(ast.parse(path.read_text())):
            if label in ALLOWED:
                continue
            name = re.compile(rf"(?<!\w){re.escape(node.name)}(?!\w)")
            if not any(name.search(line)
                       for other in files
                       for number, line in enumerate(lines[other], 1)
                       if (other, number) != (path, node.lineno)):
                unused.append(f"{path.name}: {label}")
    assert unused == []
