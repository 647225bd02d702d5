"""Code that only the tests call lives in tests/, not in the package.

Every module-level function or class of ``src/branchgroups`` that is not
a public name, and every method that is not a dunder, must be named
somewhere in the package or in ``perfbench`` outside its own definition
(so a function's calls to itself do not count): in a call, an import, an
attribute string or a docstring that points a reader to it.

Every public name (``branchgroups.__all__``) must be referenced in code
by a package module other than ``__init__.py`` or by a ``perfbench``
file: a loaded name, an import, an attribute, or a string that is the
bare name (a ``getattr`` target).  A submodule counts when another
module imports from it.  Docstrings and comments do not count.  The only
exceptions are the entry points in ``ALLOWED_PUBLIC``, each with the
reason it stays; an entry leaves the dict when it gains a caller or
stops being public.
"""

import ast
import pathlib
import re

import branchgroups

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "branchgroups"

# the paper and the README list reachable-section closures
ALLOWED = {"TreeAutomorphism.reachable_sections"}

# public entry points with no caller in the package or the benchmark
ALLOWED_PUBLIC = {
    "portrait": "the README's calculus bullet lists portraits, and its "
                "bounds paragraph names PORTRAIT_NODE_CAP for `portrait`",
    "eta_weights": "the README's decision bullet names it for growth estimates",
    "canonical_portrait_depth": "the README's bounds paragraph names it as "
                                "keeping decision.ORDER_DEPTH_CAP",
    "nilpotency_class": "the README's quotients bullet lists nilpotency classes",
    "is_ggs_torsion": "the README's constructors bullet lists the GGS torsion "
                      "test; the GGS spelling of the decision layer is to call it",
}


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


def _uncalled_private_names(package, others):
    """'file: label' for each private definition of the package texts
    (file name -> source) named nowhere in the package or the other texts
    outside the lines of its own definition."""
    lines = {name: text.splitlines() for name, text in {**package, **others}.items()}
    unused = []
    for path, text in package.items():
        for node, label in _definitions(ast.parse(text)):
            if label in ALLOWED:
                continue
            name = re.compile(rf"(?<!\w){re.escape(node.name)}(?!\w)")
            own = range(node.lineno, node.end_lineno + 1)
            if not any(name.search(line)
                       for other in lines
                       for number, line in enumerate(lines[other], 1)
                       if other != path or number not in own):
                unused.append(f"{path}: {label}")
    return unused


def test_every_private_name_has_a_caller_outside_the_tests():
    package = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    others = {f"perfbench/{path.name}": path.read_text()
              for path in sorted((ROOT / "perfbench").glob("*.py"))}
    assert _uncalled_private_names(package, others) == []


def test_a_function_calling_only_itself_has_no_caller():
    module = ("def _walk(n):\n"
              "    return _walk(n - 1) + _step(n) if n else 0\n"
              "\n"
              "\n"
              "def _step(n):\n"
              "    return n\n")
    assert _uncalled_private_names({"synthetic.py": module}, {}) == ["synthetic.py: _walk"]


def _code_references(tree):
    """The names a module's code refers to: loaded names, attributes,
    imported names and the modules they are imported from, and strings
    that are a bare identifier.  Docstrings are left out."""
    docstrings = {id(node.body[0].value)
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                  and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.rsplit(".", 1)[-1]
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield from alias.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docstrings):
            yield node.value


def _uncalled_public_names():
    files = ([path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
             + sorted((ROOT / "perfbench").glob("*.py")))
    called = {name for path in files for name in _code_references(ast.parse(path.read_text()))}
    return set(branchgroups.__all__) - called


def test_every_public_name_has_a_caller_or_a_reason():
    assert sorted(_uncalled_public_names() - set(ALLOWED_PUBLIC)) == []


def test_every_allowed_public_name_is_public_and_uncalled():
    assert sorted(set(ALLOWED_PUBLIC) - set(branchgroups.__all__)) == []
    assert sorted(set(ALLOWED_PUBLIC) - _uncalled_public_names()) == []
