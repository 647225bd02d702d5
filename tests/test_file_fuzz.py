"""Random group files and presentation files through the CLI.

The texts are built from the directive vocabulary of both formats, with
random names, powers up to 10^12, brackets, commas and large arities.
Well-formed group files, with query words over their own names, reach
the engines.  Each file goes through `trivial`, `order`, `torsion-growth`
and `present`.  Whatever the text, the CLI keeps its exit-code contract:
0, 1, 2 or 3, and no traceback, MemoryError or RecursionError on stderr.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from branchgroups import automorphisms, groups  # noqa: E402
from branchgroups.cli import main  # noqa: E402

_KNOWN = st.sampled_from(["a", "b", "c", "d", "t", "mu"])  # mostly names a file defines
NAMES = st.one_of(_KNOWN, _KNOWN, _KNOWN, st.from_regex(r"[a-z][a-z0-9]{0,2}", fullmatch=True))
POWERS = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))

WORDS = st.recursive(
    st.one_of(NAMES, st.just("1")),
    lambda inner: st.one_of(
        st.tuples(inner, st.one_of(POWERS, NAMES)).map(lambda p: f"({p[0]})^{p[1]}"),
        st.tuples(inner, inner).map(" ".join),
        st.tuples(inner, inner).map(lambda p: f"[{p[0]},{p[1]}]"),
        inner.map(lambda w: f"({w})'"),
    ),
    max_leaves=6,
)
ARITIES = st.one_of(st.integers(-1, 4), st.integers(0, 10**12))
JUNK = st.text(alphabet="()[],^'-=:> ab1#", max_size=12)


def _cycle(points):
    return "(" + " ".join(map(str, points)) + ")"


GROUP_LINES = st.one_of(
    NAMES.map("group {}".format),
    ARITIES.map("arity {}".format),
    st.tuples(st.lists(ARITIES, min_size=1, max_size=3), st.integers(-1, 4)).map(
        lambda p: f"arity seq {' '.join(map(str, p[0]))} cycle {p[1]}"),
    st.tuples(NAMES, st.lists(st.integers(0, 4), max_size=4)).map(
        lambda p: f"rooted {p[0]} = {_cycle(p[1])}"),
    st.tuples(NAMES, st.lists(WORDS, min_size=1, max_size=3), st.sampled_from(["", "a", "r"])).map(
        lambda p: f"recursive {p[0]} = ({', '.join(p[1])}) {p[2]}"),
    st.tuples(st.sampled_from(["group", "arity", "rooted", "recursive"]), JUNK).map(" ".join),
)
GROUP_FILES = st.tuples(
    st.lists(GROUP_LINES, max_size=7),
    st.sampled_from([(), ("group X", "arity 2", "rooted a = (1 2)"), ("group Y", "arity 3")]),
).map(lambda p: "\n".join(p[1] + tuple(p[0])) + "\n")

IMAGES = st.lists(st.tuples(NAMES, WORDS).map(" -> ".join), min_size=1, max_size=3).map(", ".join)
PRESENTATION_LINES = st.one_of(
    st.lists(NAMES, max_size=4).map(lambda names: "alphabet " + " ".join(names)),
    st.tuples(st.sampled_from(["substitution", "twist"]), NAMES, IMAGES).map(
        lambda p: f"{p[0]} {p[1]}: {p[2]}"),
    st.tuples(st.sampled_from(["fixed", "iterated"]), WORDS).map(" ".join),
    st.tuples(NAMES, WORDS).map(lambda p: f"map {p[0]} -> {p[1]}"),
    st.tuples(st.sampled_from(["presentation", "group", "substitution", "map"]), JUNK).map(" ".join),
)
PRESENTATION_FILES = st.lists(PRESENTATION_LINES, max_size=6).map(
    lambda lines: "alphabet a b c d\n" + "\n".join(lines) + "\n")


@st.composite
def well_formed_group_files(draw):
    """(text, word): a group file the parser accepts, so that the commands
    reach the engines, and a query word over the file's own names.  The
    file has arity 2 or 3, one rooted cycle a and 1-3 recursive
    generators whose entries are words over the names it defines."""
    m = draw(st.integers(2, 3))
    points = draw(st.permutations(range(1, m + 1)))
    names = ["a", "b", "c", "d"][:draw(st.integers(2, 4))]
    letters = st.tuples(st.sampled_from(names), st.sampled_from(["", "^-1", "^2"])).map("".join)
    entries = st.one_of(st.just("1"), st.lists(letters, min_size=1, max_size=3).map(" ".join))
    lines = ["group W", f"arity {m}", f"rooted a = {_cycle(points[:draw(st.integers(2, m))])}"]
    for name in names[1:]:
        row = ", ".join(draw(st.lists(entries, min_size=m, max_size=m)))
        lines.append(f"recursive {name} = ({row}){draw(st.sampled_from(['', ' a']))}")
    return "\n".join(lines) + "\n", " ".join(draw(st.lists(letters, min_size=1, max_size=6)))


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=st.one_of(st.tuples(st.one_of(GROUP_FILES, PRESENTATION_FILES), WORDS),
                     well_formed_group_files()))
def test_random_input_files_keep_the_exit_code_contract(tmp_path, monkeypatch, capsys, case):
    # smaller bounds keep a file that is not finite-state or not contracting
    # cheap; test_cli probes the real bounds in a fresh interpreter
    monkeypatch.setattr(automorphisms, "SECTION_LETTERS_CAP", 1 << 18)
    monkeypatch.setattr(groups, "WORD_LENGTH_CAP", 1 << 14)
    text, word = case
    path = tmp_path / "fuzz.txt"
    path.write_text(text)
    for argv in (["trivial", str(path), word], ["order", str(path), word],
                 ["torsion-growth", str(path), "--radius", "1"],
                 ["present", "--file", str(path), "--depth", "2"]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, text, code, err)
        assert not any(bad in err for bad in ("Traceback", "MemoryError", "RecursionError")), (
            argv, text, err)
