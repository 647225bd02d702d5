import hashlib
import random

import numpy as np
import pytest

from oracles import hnn_defines_substitution, mutate_relator

from branchgroups import groups
from branchgroups.decision import is_trivial
from branchgroups.errors import ResourceBoundExceeded
from branchgroups.groups import builtin
from branchgroups.presentations import (
    Substitution,
    format_free_word,
    free_inverse,
    free_reduce,
    hnn_presentation_relators,
    parse_free_word,
    presentation,
    translate,
    verify,
)
from branchgroups.quotients import level_quotient


def test_parse_free_word():
    assert parse_free_word("a^2") == (("a", 1), ("a", 1))
    assert parse_free_word("a'") == (("a", -1),)
    assert parse_free_word("[d,d^a]") == parse_free_word("d'a'd'ada'da")
    assert parse_free_word("(ad)^4") == parse_free_word("adadadad")
    assert parse_free_word("x^(yz)") == parse_free_word("z'y'xyz")
    assert parse_free_word("1") == ()
    assert format_free_word(parse_free_word("ab'c^2")) == "ab'cc"
    with pytest.raises(ValueError):
        parse_free_word("[a,b")
    with pytest.raises(ValueError):
        parse_free_word("a^")


def test_parse_multi_letter_alphabet():
    from branchgroups.presentations import parse_presentation_file

    # free words keep exponents +-1, so tau^2 is two tau letters
    pres, _, _ = parse_presentation_file("alphabet tau mu\niterated tau^2 mu'\n")
    assert pres.iterated == ((("tau", 1), ("tau", 1), ("mu", -1)),)
    assert parse_free_word("mu^tau", ("tau", "mu")) == (("tau", -1), ("mu", 1), ("tau", 1))
    with pytest.raises(ValueError):
        parse_free_word("tau nu", ("tau", "mu"))
    with pytest.raises(ValueError):
        parse_presentation_file("alphabet tau mu\nfixed mu^nu\n")
    # without an alphabet, symbols stay single letters
    assert parse_free_word("tau") == (("t", 1), ("a", 1), ("u", 1))


def test_presentation_file_lists_split_outside_brackets():
    from branchgroups.presentations import parse_presentation_file

    pres, _, _ = parse_presentation_file("alphabet a b c\nsubstitution phi: a -> [b,c], b -> c\n")
    assert pres.substitutions[0].images == {"a": parse_free_word("[b,c]"),
                                            "b": parse_free_word("c")}


def test_presentation_list_errors_name_their_item():
    from branchgroups.presentations import parse_presentation_file

    # the column counts within the image it is in, and the image is named
    text = "presentation P\nalphabet a b c\nsubstitution psi: a -> b, c -> [a\n"
    with pytest.raises(ValueError) as err:
        parse_presentation_file(text)
    assert str(err.value) == "line 3: missing ',' at column 8 in 'c -> [a', item 2 of the list"
    with pytest.raises(ValueError, match=r"^line 1: expected 's -> word' in 'b', item 2 of"):
        parse_presentation_file("substitution phi: a -> b, b\n")


def test_substitution_is_free_endomorphism():
    phi = Substitution.parse("phi", {"a": "aca", "c": "cd", "d": "c"})
    # composition is associative and respects inverses
    w = parse_free_word("ad'c")
    assert phi.apply(free_inverse(w)) == free_inverse(phi.apply(w))
    u, v = parse_free_word("ac"), parse_free_word("d'a")
    assert phi.apply(free_reduce(u + v)) == free_reduce(
        phi.apply(u) + phi.apply(v)
    )


def test_gg_ascending_depth0():
    pres, gname, amap = presentation("gg_ascending")
    assert pres.ascending
    rel = pres.expand(0)
    expected = {
        parse_free_word("a^2"),
        parse_free_word("[d,d^a]"),
        parse_free_word("[d^(ac),(d^(ac))^a]"),
    }
    assert set(rel) == expected


def test_lysionok_relators():
    pres, gname, amap = presentation("lysionok")
    rel0 = pres.expand(0)
    assert parse_free_word("a^2") in rel0
    assert parse_free_word("(ad)^4") in rel0
    assert parse_free_word("(adacac)^4") in rel0
    # depth d holds exactly the phi^i images for i <= d
    phi = pres.substitutions[0]
    expected = set()
    for rel in rel0:
        w = rel
        for _ in range(3):
            expected.add(w)
            w = phi.apply(w)
    assert set(pres.expand(2)) == expected
    assert len(pres.expand(2)) == 9
    rep = verify(pres, builtin("Gg"), 3, amap)
    assert rep.ok


def test_expand_monotone():
    pres, _, _ = presentation("gg_ascending")
    r2 = pres.expand(2)
    r3 = pres.expand(3)
    assert set(r2) <= set(r3)


def test_empty_iterated_gives_fixed_only():
    from branchgroups.presentations import EndomorphicPresentation

    pres = EndomorphicPresentation(
        "onlyq", ("a",), (parse_free_word("a^2"),), (), ()
    )
    assert pres.expand(3) == [parse_free_word("a^2")]
    assert not pres.ascending


def test_verify_presentations_shallow():
    for name, depth in (("gg_ascending", 3), ("lysionok", 3), ("sg", 2),
                        ("fgg", 2), ("gsg", 2), ("bsv", 2)):
        pres, gname, amap = presentation(name)
        rep = verify(pres, builtin(gname), depth, amap)
        assert rep.ok, (name, rep.first_failure())


def test_verify_reports_failure():
    from branchgroups.presentations import EndomorphicPresentation

    pres = EndomorphicPresentation(
        "bad", ("a", "b"), (parse_free_word("ab"),), (), ()
    )
    rep = verify(pres, builtin("Gg"), 0, {})
    assert not rep.ok
    assert rep.first_failure() == "ab"


def test_gsg_classical_third_relator_is_not_a_relation():
    # the classical third iterated relator for the Gupta-Sidki group,
    # [t,u]^3 [u,v]^3 [t,v]^3, is nontrivial in the group: the
    # contraction word problem rejects it, and independently of it the
    # relator's level-5 permutation moves vertices
    gsg = builtin("GSg")
    pres, gname, amap = presentation("gsg")
    bad = translate(parse_free_word("[t,u]^3 [u,v]^3 [t,v]^3"), gsg, amap)
    assert not is_trivial(gsg, bad)
    perm = level_quotient(gsg, 5).perm_of_word(bad)
    assert not np.array_equal(perm, np.arange(len(perm)))
    # fixed relators hold (they are not iterated), and the first two
    # iterated relators hold through the substitution
    for rel in pres.fixed:
        assert is_trivial(gsg, translate(rel, gsg, amap))
    phi = pres.substitutions[0]
    for rel in pres.iterated[:2]:
        w = rel
        for _ in range(3):
            assert is_trivial(gsg, translate(w, gsg, amap))
            w = phi.apply(w)


def test_translate_parses_each_symbol_once(monkeypatch):
    gsg = builtin("GSg")
    _, _, amap = presentation("gsg")
    rel = parse_free_word("[t,u]^3 [u,v]^3 [t,v]^3")
    expected = translate(rel, gsg, amap)
    parsed = []
    parse_word = gsg.parse_word

    def counting_parse_word(text):
        parsed.append(text)
        return parse_word(text)

    monkeypatch.setattr(gsg, "parse_word", counting_parse_word)
    assert translate(rel, gsg, amap) == expected
    assert sorted(parsed) == sorted(amap.get(s, s) for s in "tuv")


def test_gsg_relator_tuv_cubed():
    gsg = builtin("GSg")
    _, _, amap = presentation("gsg")
    assert is_trivial(gsg, translate(parse_free_word("(tuv)^3"), gsg, amap))


def test_hnn_relators():
    rels = hnn_presentation_relators()
    assert len(rels) == 6
    assert hnn_defines_substitution()
    # relators with t removed, phi applied, match Gg relators: the first
    # three are relators of Gg directly
    gg = builtin("Gg")
    for rel in rels[:3]:
        assert is_trivial(gg, translate(rel, gg, {}))


def test_mutation_negative_control():
    # mutating one letter of an expanded relator almost always breaks it
    rng = random.Random(59)
    gg = builtin("Gg")
    pres, _, amap = presentation("gg_ascending")
    relators = pres.expand(2)
    total, nontrivial = 0, 0
    for rel in relators:
        for _ in range(6):
            pos = rng.randrange(len(rel))
            mutated = mutate_relator(rel, pos, pres.alphabet, rng.randrange(2))
            total += 1
            if not is_trivial(gg, translate(mutated, gg, amap)):
                nontrivial += 1
    assert nontrivial / total >= 0.95


def test_builtin_expansions_are_pinned():
    # recorded before group words and free words shared one parser
    names = ("lysionok", "gg_ascending", "sg", "fgg", "gsg", "bsv")
    relators = [presentation(name)[0].expand(3) for name in names]
    assert (sum(map(len, relators)), hashlib.sha1(repr(relators).encode()).hexdigest()) == (
        123, "9a414736753d7e66623e8e3f22c2228bf00fc16b")


def test_gsg_map_conjugates_t():
    # u = t^a and v = t^(a'), once spelled a^2ta and ata^2 for want of a
    # conjugation in the group word syntax: the letters are the same
    gsg = builtin("GSg")
    pres, _, amap = presentation("gsg")
    assert amap == {"u": "t^a", "v": "t^(a')"}
    spelled = {"u": "a^2ta", "v": "ata^2"}
    for rel in pres.expand(3):
        assert translate(rel, gsg, amap).letters == translate(rel, gsg, spelled).letters


@pytest.mark.parametrize("text", ["a^(b", "a^ b", "a^-", "a^'", "(a]", "a,b"])
def test_parse_free_word_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_free_word(text)


def test_free_word_power_length_is_checked(monkeypatch):
    monkeypatch.setattr(groups, "WORD_LENGTH_CAP", 8)
    assert len(parse_free_word("(ab)^4")) == 8
    with pytest.raises(ResourceBoundExceeded, match=r"groups\.WORD_LENGTH_CAP"):
        parse_free_word("(ab)^5")
    # free words know no letter orders, so a single letter is expanded too
    with pytest.raises(ResourceBoundExceeded):
        parse_free_word("a^9")
