import random

import numpy as np
import pytest

from branchgroups.decision import is_trivial
from branchgroups.groups import builtin
from branchgroups.presentations import (
    Substitution,
    format_free_word,
    free_inverse,
    free_reduce,
    hnn_defines_substitution,
    hnn_presentation_relators,
    mutate_relator,
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
