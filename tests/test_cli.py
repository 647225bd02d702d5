import hashlib
import os
import pathlib
import random
import shlex
import subprocess
import sys
import time

import pytest

from hostspeed import slowdown
from oracles import format_group_file, random_reduced_word
from test_groups import ALESHIN_GRP, LAMPLIGHTER_GRP, W_GRP

from branchgroups import (automorphisms, decision, groups, presentations, quotients, schreier,
                          spectra)
from branchgroups.cli import (
    EXIT_FALSE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    GroupFileError,
    main,
    parse_group_file,
)
from branchgroups.errors import ShapeMismatch
from branchgroups.groups import builtin

GG_FILE = """
# the first Grigorchuk group
group Gg
arity 2
rooted a = (1 2)
recursive b = (a, c)
recursive c = (a, d)
recursive d = (1, b)
"""

GSG_FILE = """
group GSg
arity 3
rooted a = (1 2 3)
recursive t = (a, a^2, t)
"""

BSV_FILE = """
group BSV
arity 2
rooted a = (1 2)
recursive mu = (1, mu^-1) a
recursive tau = (1, tau) a
"""


def test_parse_gg_file_matches_builtin():
    g = parse_group_file(GG_FILE)
    gg = builtin("Gg")
    for name in "abcd":
        assert g.states[name] is gg.states[name]


def test_parse_gsg_file():
    g = parse_group_file(GSG_FILE)
    gsg = builtin("GSg")
    assert g.states["t"] is gsg.states["t"]
    assert g.states["a"] is gsg.states["a"]


def test_parse_bsv_file():
    g = parse_group_file(BSV_FILE)
    bsv = builtin("BSV")
    assert g.states["mu"] is bsv.states["mu"]
    assert g.states["tau"] is bsv.states["tau"]


def test_parse_errors():
    with pytest.raises(GroupFileError):
        parse_group_file("")
    with pytest.raises(GroupFileError):
        parse_group_file("group X\nrooted a = (1 2)\n")  # arity missing
    with pytest.raises(GroupFileError):
        parse_group_file("group X\narity 2\nrooted a = (1 3)\n")  # out of range
    with pytest.raises(GroupFileError):
        parse_group_file("group X\narity 2\nrecursive b = (a, b)\n")  # unknown a
    with pytest.raises(GroupFileError):
        parse_group_file("group X\narity 2\nbogus directive\n")


def test_group_file_errors_name_their_line():
    # entries are read after the last line, once every name is known, and
    # an error in them still names the line they are on
    text = "group X\narity 2\nrooted a = (1 2)\nrecursive b = (a, q)\nrecursive c = (b, 1)\n"
    with pytest.raises(GroupFileError, match=r"^line 4: unexpected 'q'"):
        parse_group_file(text)


def test_group_file_list_errors_name_their_item():
    # a column counts within the entry it is in, and the entry is named
    text = "group X\narity 2\nrooted a = (1 2)\nrecursive b = (a, b q)\n"
    with pytest.raises(GroupFileError) as err:
        parse_group_file(text)
    assert str(err.value) == "line 4: unexpected 'q' at column 3 in 'b q', item 2 of the list"


def test_group_file_refuses_a_second_arity(tmp_path, capsys):
    # an arity after a generator would reshape the tree under it
    text = ("group X\narity 2\nrooted a = (1 2)\narity 3\n"
            "recursive b = (a, 1, b)\n")
    with pytest.raises(GroupFileError, match=r"^line 4: arity given twice"):
        parse_group_file(text)
    with pytest.raises(GroupFileError, match=r"^line 3: arity given twice"):
        parse_group_file("group X\narity 2\narity 2\nrooted a = (1 2)\n")
    path = tmp_path / "x.grp"
    path.write_text(text)
    assert main(["order", str(path), "a"]) == EXIT_USAGE
    assert "error: line 4: arity given twice" in capsys.readouterr().err


def test_group_file_entries_are_words():
    # products, inverses, a rooted power reduced modulo its order, and a
    # conjugated commutator naming a generator of a later line
    g = parse_group_file("group X\narity 2\nrooted a = (1 2)\n"
                         "recursive x = (mu' tau a^3, [mu,tau]^a) a\n"
                         + BSV_FILE.split("rooted a = (1 2)\n")[1])
    mu, tau, a, x = (g.states[name] for name in ("mu", "tau", "a", "x"))
    assert mu is builtin("BSV").states["mu"] and x.root_perm == (1, 0)
    assert x.children[0] is mu.inverse() * tau * a
    assert x.children[1] is a.inverse() * mu.inverse() * tau.inverse() * mu * tau * a


def test_group_file_roundtrip():
    g = parse_group_file(GG_FILE)
    text = format_group_file(g)
    g2 = parse_group_file(text)
    for name in "abcd":
        assert g.states[name] is g2.states[name]
    # round-trips to identical text
    assert format_group_file(g2) == text


def test_group_file_roundtrip_with_inverse_entries():
    g = parse_group_file(BSV_FILE)
    text = format_group_file(g)
    assert "mu^-1" in text
    g2 = parse_group_file(text)
    for name in ("mu", "tau"):
        assert g.states[name] is g2.states[name]
    assert format_group_file(g2) == text


def test_arity_seq():
    text = """group mixed
arity seq 2 3 cycle 1
rooted a = (1 2)
"""
    g = parse_group_file(text)
    assert g.shape.branching(0) == 2
    assert g.shape.branching(1) == 3
    assert g.shape.branching(7) == 3


MIXED_RECURSIVE_FILE = """group mixed
arity seq 2 3 cycle 1
rooted a = (1 2)
recursive b = (a, b)
"""


def test_recursive_generator_on_a_shifting_shape(tmp_path, capsys):
    # b's entries live on the ternary subtrees, but name binary-rooted states
    with pytest.raises(ShapeMismatch) as info:
        parse_group_file(MIXED_RECURSIVE_FILE)
    message = str(info.value)
    assert "'b'" in message
    assert "TreeShape(prefix=(2,), cycle=(3,))" in message
    assert "TreeShape(regular=3)" in message
    path = tmp_path / "mixed.grp"
    path.write_text(MIXED_RECURSIVE_FILE)
    assert main(["trivial", str(path), "bb"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "TreeShape(regular=3)" in err and "Traceback" not in err


def test_cli_trivial_exit_codes(capsys):
    assert main(["trivial", "Gg", "(ad)^4"]) == EXIT_OK
    assert main(["trivial", "Gg", "ab"]) == EXIT_FALSE
    assert main(["trivial", "nosuchgroup", "ab"]) == EXIT_USAGE


def test_cli_equal():
    assert main(["equal", "Gg", "bc", "d"]) == EXIT_OK
    assert main(["equal", "Gg", "a", "b"]) == EXIT_FALSE


def test_cli_order(capsys):
    assert main(["order", "Gg", "ab"]) == EXIT_OK
    assert "Finite(16)" in capsys.readouterr().out
    assert main(["order", "BGg", "ta'"]) == EXIT_OK
    assert "Infinite" in capsys.readouterr().out


def test_cli_quotient(capsys):
    assert main(["quotient", "Gg", "--level", "4", "--order"]) == EXIT_OK
    assert "2^12" in capsys.readouterr().out
    # G2 acts on the 4-ary tree; its ranks are logarithms to the prime 2
    assert main(["quotient", "G2", "--level", "3", "--ranks", "6"]) == EXIT_OK
    assert capsys.readouterr().out == "lower central ranks: [4, 2, 2, 2, 3, 2]\n"


def test_cli_negative_level_is_usage_error(capsys):
    for cmd in ("quotient", "schreier", "spectrum"):
        assert main([cmd, "Gg", "--level", "-1"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "level must be non-negative" in err
        assert "Traceback" not in err


def test_cli_impossible_rist_vertex_is_usage_error(capsys):
    # an out-of-range letter and a vertex below the level used to count as
    # an empty subtree and print the index of the trivial subgroup
    for vertex, message in (("3", "out of range 1..2"), ("1111", "below level 3")):
        assert main(["quotient", "Gg", "--level", "3", "--rist", vertex]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert main(["quotient", "Gg", "--level", "3", "--rist", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "rigid stabilizer index: 16\n"
    assert main(["quotient", "Gg", "--level", "0", "--hausdorff"]) == EXIT_USAGE
    assert "level >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["Gg", "G2"])
def test_cli_empty_vertex_is_the_root(name, capsys):
    # the empty string is the root, on a layered group and a chain group:
    # `--rist ''` prints the root's index and `--vertex ''` its image
    assert main(["quotient", name, "--level", "2", "--rist", ""]) == EXIT_OK
    assert capsys.readouterr().out == "rigid stabilizer index: 1\n"
    assert main(["quotient", name, "--level", "2", "--order", "--rist", ""]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:] == ["rigid stabilizer index: 1"]
    assert main(["eval", name, "a", "--vertex", ""]) == EXIT_OK
    assert capsys.readouterr().out == "\n"


@pytest.mark.parametrize("module, name, argv", [
    (quotients, "level_quotient", ["quotient", "Gg", "--level", "30"]),
    (schreier, "schreier_graph", ["schreier", "Gg", "--level", "40"]),
    (spectra, "spectral_report", ["spectrum", "Gg", "--level", "16"]),
    (decision, "is_trivial", ["trivial", "Gg", "(ab)^99999999999"]),
])
@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_cli_resource_errors_exit_3(monkeypatch, capsys, module, name, argv, error):
    # the commands stand in for runs that exhaust memory or the stack, so
    # the test allocates nothing
    def exhausted(*args, **kwargs):
        raise error()

    monkeypatch.setattr(module, name, exhausted)
    assert main(argv) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and f"({error.__name__})" in err


def test_cli_eval(capsys):
    assert main(["eval", "Gg", "abacadacabadac"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "root: (1 2)" in out
    assert "section 1: cabab" in out
    assert "section 2: ba" in out
    assert main(["eval", "Gg", "b", "--vertex", "12"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "11"


def test_cli_eval_rejects_a_bad_vertex_letter(capsys):
    # the walk over the states finds the letter; check_vertex names it
    assert main(["eval", "Gg", "a b", "--vertex", "1213"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "letter 3 at position 4 out of range 1..2" in captured.err
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1
    assert main(["eval", "Gg", "a b", "--vertex", "12"]) == EXIT_OK
    assert capsys.readouterr().out == "22\n"


def test_cli_eval_names_inverse_generators(capsys):
    # the section words hold mu^-1 as a state of its own; it prints as mu'
    assert main(["eval", "BSV", "mu tau mu' tau'"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "section 1: tau mu\n" in out
    assert "section 2: mu' tau'\n" in out
    assert "#" not in out


def test_cli_eval_names_sections_by_recursion_entries(tmp_path, capsys):
    # x^2 is no generator; it prints as the entry that defines it, where
    # it used to print as a serial number that depended on the process
    path = tmp_path / "x.grp"
    path.write_text("group X\narity 2\nrooted a = (1 2)\nrecursive x = (x^2, a) a\n")
    assert main(["eval", str(path), "x"]) == EXIT_OK
    assert capsys.readouterr().out == "root: (1 2)\nsection 1: x^2\nsection 2: a\n"


def test_cli_eval_names_sections_by_aliases(capsys):
    # section words are named by state, so the directed b^2 prints as t^2
    assert main(["eval", "GSg", "t a t' a'"]) == EXIT_OK
    assert "section 2: a^2 t^2\n" in capsys.readouterr().out


def test_cli_conj(capsys):
    assert main(["conj", "Gg", "b", "aba"]) == EXIT_OK
    assert capsys.readouterr().out == "conjugate; Q(g,h) = {Ka, Kab, Kca, Kda}\n"
    assert main(["conj", "Gg", "b", "c"]) == EXIT_FALSE
    assert capsys.readouterr().out == "not conjugate\n"
    assert main(["conj", "FGg", "a", "a"]) == EXIT_USAGE


@pytest.mark.parametrize("text", [
    # Gg's name over another automaton, and Gg's explicit twin: the
    # conjugacy tables are the built-in's, so neither file is answered
    "group Gg\narity 2\nrooted a = (1 2)\nrecursive b = (a, b)\n",
    GG_FILE,
])
def test_cli_conj_refuses_a_group_file(tmp_path, capsys, text):
    path = tmp_path / "gg.grp"
    path.write_text(text)
    assert main(["conj", str(path), "b", "aba"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the conjugacy algorithm belongs to the built-in Gg; "
                            f"{path} is a group file\n")


def test_cli_huge_letter_powers_are_reduced():
    # a single A or B letter's exponent is taken modulo the letter's order
    assert main(["conj", "Gg", "a^999999999", "a"]) == EXIT_OK
    assert main(["trivial", "Gg", "a^-100000000000"]) == EXIT_OK
    assert main(["trivial", "Gg", "b^7"]) == EXIT_FALSE


@pytest.mark.parametrize("argv, message", [
    (["order", "XYZ", "a"], "unknown built-in group 'XYZ'"),
    (["schreier", "Sg", "--level", "0", "--substitution"], "no substitution rules for 'Sg'"),
], ids=["order", "schreier"])
def test_cli_key_errors_print_their_message(capsys, argv, message):
    # a usage error raised as a KeyError prints its message, unquoted, as
    # a ValueError's does
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_schreier_and_spectrum(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert main(["schreier", "Gg", "--level", "3", "--dot", str(dot),
                 "--growth", "--diameter"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "diameter: 7" in out
    assert dot.read_text().startswith("digraph")
    # substitution route gives the same graph
    assert main(["schreier", "Gg", "--level", "3", "--substitution"]) == EXIT_OK
    # a group without substitution rules is a usage error
    assert main(["schreier", "BSV", "--level", "3", "--substitution"]) == EXIT_USAGE
    assert "no substitution rules for 'BSV'" in capsys.readouterr().err
    # at level 0 too, where no rule is ever applied
    assert main(["schreier", "Sg", "--level", "0", "--substitution"]) == EXIT_USAGE
    assert "no substitution rules for 'Sg'" in capsys.readouterr().err

    csv = tmp_path / "s.csv"
    assert main(["spectrum", "Gg", "--level", "3", "--csv", str(csv),
                 "--closed-form"]) == EXIT_OK
    assert csv.read_text().startswith("level,index,eigenvalue")


def test_cli_substitution_refuses_a_group_file(tmp_path, capsys):
    # the file takes FGg's name with BGg's recursion; the substitution
    # rules are written for the built-in groups only
    path = tmp_path / "fgg.grp"
    path.write_text("group FGg\narity 3\nrooted a = (1 2 3)\nrecursive t = (a, a, t)\n")
    assert main(["schreier", str(path), "--level", "2", "--growth"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("growth: [1, 2, 4, 2]\n")
    assert main(["schreier", str(path), "--level", "2", "--growth", "--substitution"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: substitution rules belong to the built-in groups; "
                            f"{path} is a group file\n")


@pytest.mark.parametrize("text, rows", [
    # Gg's name over an automaton whose level-4 spectrum is far from Gg's
    # closed form, and FGg's name over BGg's recursion
    ("group Gg\narity 2\nrooted a = (1 2)\nrecursive b = (a, b)\n", 16),
    ("group FGg\narity 3\nrooted a = (1 2 3)\nrecursive t = (a, a, t)\n", 81),
])
def test_cli_closed_form_refuses_a_group_file(tmp_path, capsys, text, rows):
    path = tmp_path / "named.grp"
    path.write_text(text)
    csv = tmp_path / "s.csv"
    assert main(["spectrum", str(path), "--level", "4", "--closed-form",
                 "--csv", str(csv)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and not csv.exists()
    assert captured.err == (f"error: closed forms belong to the built-in groups; "
                            f"{path} is a group file\n")
    # without --closed-form the file's spectrum is compared with nothing
    assert main(["spectrum", str(path), "--level", "4", "--csv", str(csv)]) == EXIT_OK
    lines = csv.read_text().splitlines()
    assert len(lines) == 1 + rows
    assert all(line.endswith(",") for line in lines[1:])


@pytest.mark.parametrize("name, level, diameter", [("Gg", 12, 4095), ("FGg", 7, 127)])
def test_cli_deep_schreier_diameters(capsys, name, level, diameter):
    assert main(["schreier", name, "--level", str(level), "--diameter"]) == EXIT_OK
    assert capsys.readouterr().out.endswith(f"\ndiameter: {diameter}\n")


@pytest.mark.parametrize("name, level, rows", [("Gg", 16, 2**15), ("FGg", 9, 2 * 3**8)])
def test_cli_spectrum_block_bound_exits_3(capsys, name, level, rows):
    # both levels pass the level-degree bound; their sum-zero blocks
    # (8 GiB and 1.3 GiB) are refused before anything is allocated
    scale = slowdown()
    start = time.perf_counter()
    assert main(["spectrum", name, "--level", str(level)]) == EXIT_RESOURCE
    assert (time.perf_counter() - start) / scale < 1.0
    assert capsys.readouterr().err == (
        f"resource bound exceeded: the level-{level} spectrum block of {rows} rows takes "
        f"{8 * rows * rows} bytes, more than {spectra.SPECTRUM_BLOCK_BYTES_CAP}, the bound "
        "on a spectrum block (spectra.SPECTRUM_BLOCK_BYTES_CAP)\n")


def test_cli_level_degree_bound_exits_3(capsys):
    # the level size is compared with the bound before a vertex is built
    assert main(["schreier", "Gg", "--level", "40"]) == EXIT_RESOURCE
    assert capsys.readouterr().err == (
        f"resource bound exceeded: level 40 has more than {quotients.LEVEL_DEGREE_CAP} "
        "vertices, the bound on the level degree (quotients.LEVEL_DEGREE_CAP)\n")


def test_cli_twist_closure_bound_exits_3(tmp_path, monkeypatch, capsys):
    # chi turns every word into a longer one, so the closure never ends;
    # a small bound keeps the run cheap
    monkeypatch.setattr(presentations, "TWIST_CLOSURE_CAP", 8)
    path = tmp_path / "loop.pres"
    path.write_text("alphabet a b\ntwist chi: a -> a b\niterated a\n")
    assert main(["present", "--file", str(path)]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err == ("resource bound exceeded: twist closure exceeded 8 words "
                   "(presentations.TWIST_CLOSURE_CAP)\n")


def test_cli_expansion_bound_exits_3(tmp_path, capsys):
    # each depth multiplies the words by about 2.6 and lengthens them
    path = tmp_path / "fibonacci.pres"
    path.write_text("alphabet a b\nsubstitution phi: a -> a b, b -> a\n"
                    "substitution psi: a -> b a, b -> a\niterated a b\n")
    scale = slowdown()
    start = time.perf_counter()
    assert main(["present", "--file", str(path), "--depth", "40"]) == EXIT_RESOURCE
    assert (time.perf_counter() - start) / scale < 2.0
    assert capsys.readouterr().err == (
        f"resource bound exceeded: expansion exceeded {presentations.EXPANSION_CAP} words "
        "(presentations.EXPANSION_CAP)\n")


def test_cli_present_output_is_pinned(capsys):
    # recorded before the twist closure and the substitution layers
    # shared one breadth-first loop
    digest = hashlib.sha1()
    for name in ("lysionok", "gg_ascending", "sg", "fgg", "gsg", "bsv"):
        for depth in range(7):
            assert main(["present", "--name", name, "--depth", str(depth)]) == EXIT_OK
            digest.update(f"{name} {depth}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == "5b2ca7123ca9349a9615ed04b6d0bea6c78fa56c"


def test_cli_present(capsys):
    assert main(["present", "--name", "lysionok", "--depth", "1",
                 "--verify"]) == EXIT_OK
    assert "trivial" in capsys.readouterr().out


PRESENTATION_FILE = """
presentation lysionok
alphabet a c d
group Gg
substitution phi: a -> aca, c -> cd, d -> c
iterated a^2
iterated (ad)^4
iterated (adacac)^4
"""


def test_cli_present_file(tmp_path, capsys):
    path = tmp_path / "lys.pres"
    path.write_text(PRESENTATION_FILE)
    assert main(["present", "--file", str(path), "--depth", "2",
                 "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "all 9 relators trivial" in out
    # a broken relator is reported with exit code 1
    path.write_text(PRESENTATION_FILE + "iterated ad\n")
    assert main(["present", "--file", str(path), "--depth", "0",
                 "--verify"]) == EXIT_FALSE


def test_parse_presentation_file_errors():
    from branchgroups.presentations import parse_presentation_file

    with pytest.raises(ValueError):
        parse_presentation_file("substitution phi: a - b\n")
    with pytest.raises(ValueError):
        parse_presentation_file("bogus thing\n")


@pytest.mark.parametrize("argv", [
    ["ball", "Gg", "--radius", "-1"],
    ["torsion-growth", "Gg", "--radius", "-1"],
    ["present", "--name", "gg", "--depth", "-1"],
    ["quotient", "Gg", "--level", "3", "--ranks", "-1"],
    ["quotient", "Gg", "--level", "3", "--derived", "-2"],
    ["order", "Gg", "ab", "--bound", "-5"],
])
def test_cli_negative_count_is_usage_error(capsys, argv):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "must be non-negative" in err and "Traceback" not in err


def test_cli_spectrum_at_level_0(capsys):
    # Delta_0 = [4] for both; Gg's closed form starts at level 1
    for name in ("Gg", "FGg"):
        assert main(["spectrum", name, "--level", "0", "--closed-form"]) == EXIT_OK
        assert capsys.readouterr().out == "1 eigenvalues in [4.000000, 4.000000]\n"


def test_cli_ball_and_torsion(capsys):
    assert main(["ball", "Gg", "--radius", "2"]) == EXIT_OK
    assert "gamma(2) = 11" in capsys.readouterr().out
    assert main(["torsion-growth", "Gg", "--radius", "1"]) == EXIT_OK
    assert "pi(1) = 2" in capsys.readouterr().out


@pytest.mark.parametrize("cmd, radius", [("ball", "40"), ("torsion-growth", "5")])
def test_cli_ball_size_bound_exits_3(monkeypatch, capsys, cmd, radius):
    # the cap stands in for the 2^19 elements of a real run
    monkeypatch.setattr(decision, "BALL_SIZE_CAP", 40)
    assert main([cmd, "Gg", "--radius", radius]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"resource bound exceeded: the ball of radius {radius} has more "
                            "than 40 elements, the bound on a ball (decision.BALL_SIZE_CAP)\n")


def test_cli_torsion_growth_of_infinite_order_is_usage_error(capsys):
    # raising the order bound cannot help an element of infinite order
    assert main(["torsion-growth", "BGg", "--radius", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: element at has infinite order, certified by "
                          "InfiniteCertified(k=3, vertex=3, sign=+1)")
    assert err.count("\n") == 1


def test_cli_torsion_growth_past_the_order_bound_exits_3(tmp_path, monkeypatch, capsys):
    # a fresh group, so that no order is remembered from another test
    path = tmp_path / "gg.grp"
    path.write_text(GG_FILE)
    monkeypatch.setattr(decision, "ORDER_BOUND", 4)
    assert main(["torsion-growth", str(path), "--radius", "2"]) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.endswith(" has no finite order within bound 4 (decision.ORDER_BOUND)\n")
    assert err.count("\n") == 1


def test_cli_order_names_its_bound(tmp_path, capsys):
    path = tmp_path / "gg.grp"
    path.write_text(GG_FILE)
    assert main(["order", str(path), "ab", "--bound", "3"]) == EXIT_RESOURCE
    out, err = capsys.readouterr()
    assert out == "Unknown(bound reached)\n"
    assert err == ("resource bound exceeded: no finite order up to the bound 3 "
                   "(raise it with --bound)\n")


@pytest.mark.parametrize("argv", [
    ["trivial", "Gg", "(ab)^99999999999"],
    ["order", "Gg", "(ab)^9999999"],
])
def test_cli_long_powers_exit_3_before_expanding(capsys, argv):
    # the expanded length is checked before a letter is allocated
    assert main(argv) == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert err.startswith("resource bound exceeded: a power expands to ")
    assert err.endswith("(groups.WORD_LENGTH_CAP)\n") and err.count("\n") == 1


def test_cli_long_powers_in_presentation_files_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(groups, "WORD_LENGTH_CAP", 8)
    path = tmp_path / "long.pres"
    path.write_text("alphabet a b\niterated (ab)^5\n")
    assert main(["present", "--file", str(path)]) == EXIT_RESOURCE
    assert capsys.readouterr().err == (
        "resource bound exceeded: a power expands to 10 letters, over the bound 8 "
        "(groups.WORD_LENGTH_CAP)\n")


@pytest.mark.parametrize("bound, text, argv, message", [
    # twenty powers of a million letters each: each power passes, the word does not
    (None, None, ["trivial", "Gg", " ".join(["(ab)^500000"] * 20)],
     "a word expands to 2000000 letters, over the bound 1048576 (groups.WORD_LENGTH_CAP)"),
    (None, "group X\narity 2\nrooted a = (1 2)\nrecursive b = (a, b^99999999999)\n",
     ["trivial", "{path}", "b"],
     "a power expands to 99999999999 letters, over the bound 1048576 (groups.WORD_LENGTH_CAP)"),
    # doubling maps: each image is twice as long as the word it maps
    ((groups, "WORD_LENGTH_CAP", 64), "alphabet a\ntwist chi: a -> a a\niterated a\n",
     ["present", "--file", "{path}", "--depth", "0"],
     "the image under chi expands to 128 letters, over the bound 64 (groups.WORD_LENGTH_CAP)"),
    ((groups, "WORD_LENGTH_CAP", 64), "alphabet a\nsubstitution phi: a -> a a\niterated a\n",
     ["present", "--file", "{path}", "--depth", "40"],
     "the image under phi expands to 128 letters, over the bound 64 (groups.WORD_LENGTH_CAP)"),
    (None, "group W\narity 99999999999\nrooted a = (1 2)\n", ["trivial", "{path}", "a"],
     f"branching index 99999999999 is over the bound {quotients.LEVEL_DEGREE_CAP} "
     "on the level degree (quotients.LEVEL_DEGREE_CAP)"),
    # b = (a, b^2) is not finite-state: the section words of b double
    ((automorphisms, "SECTION_WORD_CAP", 1 << 10),
     "group S\narity 2\nrooted a = (1 2)\nrecursive b = (a, b^2)\n", ["trivial", "{path}", "b"],
     "section closure exceeded 1024 letters in one word (automorphisms.SECTION_WORD_CAP); "
     "the element may not be finite-state"),
    # refused before any state of the group is built
    (None, None, ["order", "GS257", "a"],
     f"GGS degree 257 is over the bound {groups.GGS_DEGREE_CAP} on the degree of a GGS "
     "group (groups.GGS_DEGREE_CAP)"),
], ids=["whole-word", "entry-power", "twist-image", "substitution-image", "arity",
        "section-word", "ggs-degree"])
def test_cli_input_bounds_exit_3(tmp_path, monkeypatch, capsys, bound, text, argv, message):
    if bound is not None:  # a smaller bound keeps a doubling probe cheap
        monkeypatch.setattr(*bound)
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    assert main([arg.format(path=path) for arg in argv]) == EXIT_RESOURCE
    assert capsys.readouterr().err == f"resource bound exceeded: {message}\n"


# b = (b b, a' b) is not finite-state; its section closure once held
# gigabytes before a bound on one word or on the word count was reached
DOUBLING_GRP = "group W\narity 2\nrooted a = (1 2)\nrecursive b = (b b, a' b)\n"


@pytest.mark.parametrize("text, argv, ending", [
    (ALESHIN_GRP, ["order", "{path}", "c"], "(groups.WORD_LENGTH_CAP)\n"),
    (LAMPLIGHTER_GRP, ["order", "{path}", "a"], "(decision.ORDER_DEPTH_CAP)\n"),
    (LAMPLIGHTER_GRP, ["torsion-growth", "{path}", "--radius", "2"],
     "(decision.ORDER_DEPTH_CAP)\n"),
    (DOUBLING_GRP, ["order", "{path}", "b"],
     "(automorphisms.SECTION_LETTERS_CAP); the element may not be finite-state\n"),
], ids=["aleshin-rotation", "lamplighter-order", "lamplighter-torsion-growth",
        "doubling-section-letters"])
def test_cli_orders_on_non_contracting_groups_exit_3(tmp_path, text, argv, ending):
    # a fresh interpreter, as a user runs the probe: the time is the whole run's
    path = tmp_path / "input.grp"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(automorphisms.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    scale = slowdown()
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "branchgroups.cli"]
                         + [arg.format(path=path) for arg in argv],
                         env=env, capture_output=True, text=True, timeout=60)
    assert (time.perf_counter() - start) / scale < 2
    assert run.returncode == EXIT_RESOURCE
    assert run.stderr.startswith("resource bound exceeded: ") and run.stderr.count("\n") == 1
    assert run.stderr.endswith(ending)


def test_cli_drawn_file_order_exits_3_at_the_word_length_bound(tmp_path):
    # a root cycle's rotation word two levels down would hold about 1.59
    # million letters; a fresh interpreter, and no time limit
    path = tmp_path / "w.grp"
    path.write_text(W_GRP)
    src = os.path.dirname(os.path.dirname(automorphisms.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "branchgroups.cli", "order", str(path),
                          "a^-1 c^-1 c^-1 d^-1"], env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_RESOURCE
    assert run.stderr.startswith("resource bound exceeded: ") and run.stderr.count("\n") == 1
    assert run.stderr.endswith("(groups.WORD_LENGTH_CAP)\n")


@pytest.mark.parametrize("text, argv, answer", [
    (None, ["trivial", "Gg", "{word}"], EXIT_FALSE),
    ("group X\narity 2\nrooted a = (1 2)\nrecursive b = ({word}, b)\n",
     ["trivial", "{path}", "b"], EXIT_FALSE),
    ("alphabet a\niterated {word}\n", ["present", "--file", "{path}"], EXIT_OK),
], ids=["word", "group-file-entry", "presentation-iterated"])
def test_cli_word_nesting_exits_3(tmp_path, capsys, text, argv, answer):
    path = tmp_path / "input.txt"
    cap = groups.WORD_NESTING_CAP
    for depth in (cap, cap + 1, 1200):
        word = "(" * depth + "a" + ")" * depth
        if text is not None:
            path.write_text(text.format(word=word))
        code = main([arg.format(path=path, word=word) for arg in argv])
        err = capsys.readouterr().err
        if depth == cap:
            assert (code, err) == (answer, "")
        else:
            assert code == EXIT_RESOURCE
            assert err == (f"resource bound exceeded: a word nests deeper than {cap} levels "
                           "(groups.WORD_NESTING_CAP)\n")


def test_every_parsed_word_can_intern():
    assert automorphisms.SECTION_WORD_CAP >= groups.WORD_LENGTH_CAP


@pytest.mark.parametrize("text", ["x", "(ab", "a^", "ab]"])
def test_cli_malformed_words_are_usage_errors(capsys, text):
    assert main(["trivial", "Gg", text]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_words_take_commutators_and_conjugates():
    assert main(["equal", "Gg", "[a,b]", "a'b'ab"]) == EXIT_OK
    assert main(["equal", "Gg", "b^a", "aba"]) == EXIT_OK
    assert main(["trivial", "Gg", "[d,d^a]"]) == EXIT_OK


def test_cli_group_file(tmp_path):
    path = tmp_path / "gg.grp"
    path.write_text(GG_FILE)
    assert main(["trivial", str(path), "bb"]) == EXIT_OK


def test_word_printer_parser_roundtrip():
    rng = random.Random(61)
    for name in ("Gg", "FGg", "BSV"):
        g = builtin(name)
        for _ in range(170):
            w = random_reduced_word(g, rng.randint(0, 10), rng)
            printed = g.format_word(w)
            reparsed = g.parse_word(printed)
            assert reparsed.letters == w, (name, printed)


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# Each command of the README's CLI block: (arguments, exit code, sha1 of stdout,
# sha1 of each file it writes)
_README_COMMANDS = [
    ("trivial Gg '(ad)^4'", 0, "da39a3ee5e6b4b0d3255bfef95601890afd80709", {}),
    ("equal Gg bc d", 0, "da39a3ee5e6b4b0d3255bfef95601890afd80709", {}),
    ("order Gg ab", 0, "1657fd0d2ed33c2df2a56b6caffa8629ba896cc3", {}),
    ("order BGg \"ta'\"", 0, "03e59d94c3bdff9fb4d740e0c31cca0f38fb5a11", {}),
    ("conj Gg b aba", 0, "396ed5b31a0f64ae6ebfe73e9f168340617f9830", {}),
    ("eval BSV \"mu tau mu' tau'\"", 0, "df8d44cb7471d11998c1fa34268de52854546f21", {}),
    ("quotient Gg --level 4 --order", 0, "5b9881fde8802f4dfcab714b762ef7cbe5e7ce59", {}),
    ("quotient Gg --level 5 --ranks 9 --derived 3 --suborbits", 0,
     "80b53ede150384608d52680ed07fd7a7668a1a95", {}),
    ("quotient Gg --level 7 --hausdorff", 0, "5f20a8b40e588f2e7876ade84ad3e7242b4cb1ba", {}),
    ("schreier Gg --level 3 --growth --diameter --dot graph.dot", 0,
     "65ab901e7e5f0ffd94e4f37fd413365cea3499e0",
     {"graph.dot": "6cefc37165a1d5b2cd007ec56eaa42eb1b3b0122"}),
    ("schreier FGg --level 4 --substitution", 0, "5c7f177028d0e440bc203fead90de7225491588f", {}),
    ("schreier Gg --level 12 --diameter", 0, "dba19d3a5334c2e1a9947c1dc6b5f1a9f5514a2e", {}),
    ("spectrum Gg --level 6 --closed-form --csv spec.csv", 0,
     "a61b7a0405eecae374733332cd00355bf210c768",
     {"spec.csv": "412cda1a2c161711bc04fab404525bda25920037"}),
    ("present --name lysionok --depth 3 --verify", 0,
     "87e42bff4a289d32f99ea7d8eff4a0c9af1180d4", {}),
    ("ball Gg --radius 4", 0, "056e5e677ac083909f025cc0fe6be35198a81606", {}),
    ("torsion-growth Gg --radius 3", 0, "6351679b2619dace3af7f9ac9afe6432fa3bd211", {}),
]


def _readme_commands():
    block = README.read_text().split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_readme_lists_the_pinned_commands():
    assert _readme_commands() == [["branchgroups"] + shlex.split(args)
                                  for args, *_ in _README_COMMANDS]


@pytest.mark.parametrize("args, code, stdout, files", _README_COMMANDS,
                         ids=[args for args, *_ in _README_COMMANDS])
def test_readme_command_output_is_pinned(tmp_path, monkeypatch, capsys, args, code,
                                         stdout, files):
    # each README command in an empty directory: its exit code, its output
    # and the files it writes there
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(args)) == code
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == stdout
    assert {path.name: hashlib.sha1(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == files


# stray characters and separators of the drawn word texts; no text starts
# with '-', which argparse would read as an option
_CLI_JUNK = ["q", "^", "'", "(", ")", "]", ",", "#", "-", "é", "^2", "1", "*"]
_CLI_SEPARATORS = [" ", " ", " ", " ", "", "  ", "\t", "\n", "\u3000", " * "]


def _cli_word_text(names, rng):
    """Mostly names and primed names apart; some grammar, runs and junk."""
    pieces = []
    for _ in range(rng.randint(0, 12)):
        r, x, y = rng.random(), rng.choice(names), rng.choice(names)
        if r < 0.55:
            pieces.append(x)
        elif r < 0.85:
            pieces.append(x + rng.choice(("'", "'", "^-1")))
        elif r < 0.96:
            pieces.append(rng.choice((f"({x} {y})^{rng.randint(-3, 9)}", f"[{x},{y}]", x + y,
                                      f"{x}^{y}", f"{x}^({y}{x})", f"{x}^{rng.randint(-5, 5)}")))
        else:
            pieces.append(rng.choice(_CLI_JUNK))
    text = "".join(p + rng.choice(_CLI_SEPARATORS) for p in pieces)
    return " " + text if text.startswith("-") else text


def test_cli_word_texts_keep_their_answers(capsys):
    # seeded trivial, order and equal calls on word texts of five groups:
    # exit codes in the contract, no traceback, and every (argv, code,
    # stdout, stderr) as recorded before word texts were read by name
    rng = random.Random(33)
    digest = hashlib.sha1()
    codes = set()
    for _ in range(600):
        group = rng.choice(["Gg", "GSg", "G2", "Sg", "BSV"])
        names = sorted(builtin(group).states)
        command = rng.choice(["trivial", "order", "equal"])
        argv = [command, group] + [_cli_word_text(names, rng)
                                   for _ in range(2 if command == "equal" else 1)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_FALSE, EXIT_USAGE, EXIT_RESOURCE) and "Traceback" not in err
        codes.add(code)
        digest.update(repr((argv, code, out, err)).encode())
    assert codes == {EXIT_OK, EXIT_FALSE, EXIT_USAGE}
    assert digest.hexdigest() == "56e3c8b8564d12a2794f7ebf94ec64922b8dc243"
