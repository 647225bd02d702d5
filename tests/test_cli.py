import random

import pytest

from branchgroups import decision, quotients, schreier, spectra
from branchgroups.cli import (
    EXIT_FALSE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    GroupFileError,
    format_group_file,
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


def test_cli_eval_names_inverse_generators(capsys):
    # the section words hold mu^-1 as a state of its own; it prints as mu'
    assert main(["eval", "BSV", "mu tau mu' tau'"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "section 1: tau mu\n" in out
    assert "section 2: mu' tau'\n" in out
    assert "#" not in out


def test_cli_eval_names_sections_by_aliases(capsys):
    # section words are named by state, so the directed b^2 prints as t^2
    assert main(["eval", "GSg", "t a t' a'"]) == EXIT_OK
    assert "section 2: a^2 t^2\n" in capsys.readouterr().out


def test_cli_conj(capsys):
    assert main(["conj", "Gg", "b", "aba"]) == EXIT_OK
    assert main(["conj", "Gg", "b", "c"]) == EXIT_FALSE
    assert main(["conj", "FGg", "a", "a"]) == EXIT_USAGE


def test_cli_huge_letter_powers_are_reduced():
    # a single A or B letter's exponent is taken modulo the letter's order
    assert main(["conj", "Gg", "a^999999999", "a"]) == EXIT_OK
    assert main(["trivial", "Gg", "a^-100000000000"]) == EXIT_OK
    assert main(["trivial", "Gg", "b^7"]) == EXIT_FALSE


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

    csv = tmp_path / "s.csv"
    assert main(["spectrum", "Gg", "--level", "3", "--csv", str(csv),
                 "--closed-form"]) == EXIT_OK
    assert csv.read_text().startswith("level,index,eigenvalue")


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


def test_cli_ball_and_torsion(capsys):
    assert main(["ball", "Gg", "--radius", "2"]) == EXIT_OK
    assert "gamma(2) = 11" in capsys.readouterr().out
    assert main(["torsion-growth", "Gg", "--radius", "1"]) == EXIT_OK
    assert "pi(1) = 2" in capsys.readouterr().out


def test_cli_group_file(tmp_path):
    path = tmp_path / "gg.grp"
    path.write_text(GG_FILE)
    assert main(["trivial", str(path), "bb"]) == EXIT_OK


def test_word_printer_parser_roundtrip():
    rng = random.Random(61)
    for name in ("Gg", "FGg", "BSV"):
        g = builtin(name)
        for _ in range(170):
            w = g.random_reduced_word(rng.randint(0, 10), rng)
            printed = g.format_word(w)
            reparsed = g.parse_word(printed)
            assert reparsed.letters == w, (name, printed)
