import hashlib
import random

import numpy as np
import pytest

from oracles import random_reduced_word
from test_groups import ALESHIN_GRP, LAMPLIGHTER_GRP

from branchgroups import decision
from branchgroups.decision import (
    ball,
    canonical_portrait_depth,
    equal,
    eta_weights,
    growth_values,
    is_trivial,
    order,
    torsion_growth,
)
from branchgroups.automorphisms import TreeAutomorphism, perm_from_cycles
from branchgroups.cli import parse_group_file
from branchgroups.errors import ResourceBoundExceeded
from branchgroups.groups import Word, _make_builtin, builtin, explicit_group, grigorchuk_2group
from branchgroups.quotients import level_quotient
from branchgroups.shapes import TreeShape


@pytest.fixture(scope="module")
def gg():
    return builtin("Gg")


@pytest.fixture(scope="module")
def gg_explicit():
    return _gg_explicit()


def _gg_explicit():
    """Gg written as a wreath recursion: b = (a, c), c = (a, d), d = (1, b)."""
    return explicit_group(
        "Gg", TreeShape.regular(2), {"a": perm_from_cycles(2, [[0, 1]])},
        {
            "b": ([[("a", 1)], [("c", 1)]], None),
            "c": ([[("a", 1)], [("d", 1)]], None),
            "d": ([[], [("b", 1)]], None),
        },
    )


def test_trivial_examples(gg):
    assert is_trivial(gg, "(ad)^4")
    assert not is_trivial(gg, "abab")
    assert is_trivial(gg, "1")
    assert is_trivial(gg, "bcd")
    assert is_trivial(gg, "a^2")
    assert not is_trivial(gg, "b")


def test_trivial_lysionok_relators(gg):
    assert is_trivial(gg, "(adacac)^4")


def test_equal_examples(gg):
    assert equal(gg, "bc", "d")
    assert not equal(gg, "a", "b")
    assert equal(gg, "abad", "abad")


def test_soundness_vs_quotients(gg):
    rng = random.Random(31)
    for _ in range(60):
        w = Word(random_reduced_word(gg, rng.randint(1, 12), rng), True)
        claims_trivial = is_trivial(gg, w)
        for level in (3, 5, 6):
            q = level_quotient(gg, level)
            perm_trivial = bool(
                np.array_equal(q.perm_of_word(w), np.arange(q.degree))
            )
            if claims_trivial:
                assert perm_trivial
        # triviality at the canonical-portrait-depth level implies triviality
        depth = max(1, (len(w.letters)).bit_length() + 1)
        q = level_quotient(gg, min(depth, 8))
        if bool(np.array_equal(q.perm_of_word(w), np.arange(q.degree))):
            assert claims_trivial


def test_order_examples(gg):
    for s in "abcd":
        res = order(gg, s)
        assert res.kind == "finite" and res.value == 2
    assert order(gg, "ad").value == 4
    assert order(gg, "ab").value == 16
    assert order(gg, "1").value == 1
    assert order(gg, "ac").value == 8


def test_explicit_orders_match_spinal(gg, gg_explicit):
    # the recursion of b runs b -> c -> d -> b: a cycle only b may verify
    for s in "bcd":
        assert repr(order(gg_explicit, s)) == "Finite(2)"
    for text in ("a c a b a c", "a b", "a d a c a b"):
        assert repr(order(gg_explicit, text)) == repr(order(gg, text))
    assert order(gg_explicit, "a c a b a c").value == 16


def test_order_solves_no_word_problem():
    group = _gg_explicit()
    rng = random.Random(5)
    for _ in range(50):
        w = Word(random_reduced_word(group, rng.randint(1, 20), rng), True)
        assert order(group, w).kind == "finite"
    assert group._memo_order and not group._memo_trivial


def test_order_bound_holds_after_remembered_orders(gg):
    # an order remembered from an unbounded call must not answer past a
    # bound: each call gives what it gives in a fresh process
    assert repr(order(gg, "ab")) == "Finite(16)"
    assert repr(order(gg, "ab", bound=3)) == "Unknown(bound reached)"
    assert repr(order(gg, "ab", bound=16)) == "Finite(16)"
    rng = random.Random(15)
    texts = [gg.format_word(random_reduced_word(gg, rng.randint(1, 12), rng))
             for _ in range(12)]
    warm = grigorchuk_2group(name="Gg")
    for text in texts:
        order(warm, text)
    for text in texts:
        for bound in (1, 2, 4, 8, 15):
            fresh = grigorchuk_2group(name="Gg")
            assert repr(order(warm, text, bound=bound)) == repr(
                order(fresh, text, bound=bound)), (text, bound)


def test_order_matches_quotient_stabilization(gg):
    # permutation order of ab at successive levels stabilizes at 16
    from branchgroups.automorphisms import perm_order

    values = []
    for level in (3, 4, 5, 6):
        q = level_quotient(gg, level)
        values.append(perm_order(tuple(int(x) for x in q.perm_of_word("ab"))))
    assert values[-1] == values[-2] == 16


def test_order_divisor_property(gg):
    rng = random.Random(7)
    for _ in range(20):
        w = Word(random_reduced_word(gg, rng.randint(1, 6), rng), True)
        res = order(gg, w)
        assert res.kind == "finite"
        k = res.value
        assert is_trivial(gg, Word(gg.reduce(w.letters * k), True))
        for p in (2, 3):
            if k % p == 0:
                assert not is_trivial(
                    gg, Word(gg.reduce(w.letters * (k // p)), True)
                )


def test_infinite_certificates():
    bgg = builtin("BGg")
    res = order(bgg, "ta'")
    assert res.kind == "infinite"
    k, v, sign, witness, _, _ = res.certificate
    assert (k, v, sign) == (3, 2, 1)  # (x^3)psi = (*, *, x): vertex 3, 1-based
    dinf = builtin("Dinf")
    assert order(dinf, "ab").kind == "infinite"
    bsv = builtin("BSV")
    assert order(bsv, "tau").kind == "infinite"
    fgg = builtin("FGg")
    assert order(fgg, "at").kind == "infinite"


def test_certificate_invariant():
    # section(witness^k, v) equals witness^sign
    bgg = builtin("BGg")
    res = order(bgg, "ta'")
    k, v, sign, witness, _, _ = res.certificate
    assert k >= 2
    power = bgg.reduce(tuple(witness) * k)
    root, secs = bgg.first_level_sections(power)
    assert root[v] == v
    target = witness if sign == 1 else bgg.inverse_word(witness)
    assert equal(bgg, Word(secs[v], True), Word(bgg.reduce(target), True))


def test_cycle_certificate_links():
    # each link: the section of the previous word raised to the cycle
    # length, at the vertex and conjugated, is the next word; the chain
    # returns to the witness after cycle lengths multiplying to k > 1
    cases = {
        "BGg": ["a t' a t' a t a' t' a' t"],
        "BSV": ["mu' tau tau", "mu tau mu mu mu tau tau tau' tau' mu",
                "mu' mu' tau' tau' mu tau tau' tau' tau'"],
    }
    depths = set()
    for name, texts in cases.items():
        group = builtin(name)
        assert group.shifted() is group
        for text in texts:
            res = order(group, text)
            k, v, sign, witness, links, shift = res.certificate
            assert res.kind == "infinite" and sign == 1 and links[0][1] == v
            prev, product = witness, 1
            assert links[-1][4] == shift
            for length, vertex, conj, word, _ in links:
                root, secs = group.first_level_sections(group.reduce(tuple(prev) * length))
                assert root[vertex] == vertex
                assert equal(group, group.inverse_word(conj) + secs[vertex] + conj, word)
                prev, product = word, product * length
            assert prev == witness and product == k > 1
            depths.add(len(links))
    assert depths == {2, 4, 8}


# (words drawn, sha1 of one line per word: the word, the result and its
# certificate in print), recorded before the rotation certificate search
# stopped cyclically reducing w and its inverse again
ORDER_DIGESTS = {
    "Gg_explicit": (200, "f2757e7c2dc31dee8830c91bc128dc6c6ce852d8"),
    "BSV": (200, "de5a9e1841ded24b156f3f93c24d8f13365b7794"),
    "Dinf": (200, "0bb34af26184d3b682c549ef0d4f71a8e06a9e5c"),
    "Aleshin": (2, "a9e23ebf1225c3fd21c58da4dae74e717491fa56"),
    "Lamplighter": (6, "166b9093d8f77bcef90eeff6220bbf7a0643dda1"),
}
ORDER_DIGEST_GROUPS = {
    "Gg_explicit": _gg_explicit,
    "BSV": lambda: _make_builtin("BSV"),
    "Dinf": lambda: _make_builtin("Dinf"),
    "Aleshin": lambda: parse_group_file(ALESHIN_GRP),
    "Lamplighter": lambda: parse_group_file(LAMPLIGHTER_GRP),
}


def _printed(group, value):
    """A certificate with each word printed by the group's names."""
    if isinstance(value, tuple):
        if value and all(isinstance(x, TreeAutomorphism) for x in value):
            return "<" + group.format_word(value) + ">"
        return "(" + ",".join(_printed(group, x) for x in value) + ")"
    return repr(value)


@pytest.mark.parametrize("name", list(ORDER_DIGESTS))
def test_order_results_and_certificates_are_pinned(name):
    # a fresh group each time, so the memo starts empty; Aleshin's words
    # and most Lamplighter ones end at a bound, which is pinned too
    count, digest = ORDER_DIGESTS[name]
    group, rng, lines = ORDER_DIGEST_GROUPS[name](), random.Random(f"order digest {name}"), []
    for _ in range(count):
        w = random_reduced_word(group, rng.randint(1, 16), rng)
        try:
            res = order(group, Word(w, True))
            line = f"{res!r} {_printed(group, res.certificate)}"
        except ResourceBoundExceeded as exc:
            line = f"bound: {exc}"
        lines.append(f"{group.format_word(w)}\t{line}")
    text = "\n".join(lines)
    assert "#" not in text  # no letter printed by its serial number
    assert hashlib.sha1(text.encode()).hexdigest() == digest


def test_memo_true_entries_are_trivial_on_level_8(gg_explicit):
    # a stream of word problems, trivial ones included (conjugated
    # relators), leaves only sound True entries in the memo
    rng = random.Random(5)
    bsv = builtin("BSV")
    lam = bsv.parse_word("tau mu'").letters
    lam_t = bsv.reduce(bsv.parse_word("tau'").letters + lam + bsv.parse_word("tau").letters)
    relators = {
        bsv: [bsv.reduce(bsv.inverse_word(lam) + bsv.inverse_word(lam_t) + lam + lam_t)],
        gg_explicit: [gg_explicit.parse_word(t).letters for t in ("(ad)^4", "(ac)^8", "(ab)^16")],
    }
    for group, rels in relators.items():
        pool = group.canonical_letters
        for _ in range(150):
            c = group.reduce(tuple(rng.choice(pool) for _ in range(rng.randint(0, 8))))
            rel = rng.choice(rels)
            assert is_trivial(group, group.inverse_word(c) + rel + c)
            is_trivial(group, tuple(rng.choice(pool) for _ in range(rng.randint(1, 12))))
        q = level_quotient(group, 8)
        trues = [key for key, value in group._memo_trivial.items() if value]
        assert len(trues) > 20
        for _shift, letters in trues:
            assert np.array_equal(q.perm_of_word(Word(letters, True)), np.arange(q.degree))


def test_gsg_is_torsion_on_short_words():
    gsg = builtin("GSg")
    rng = random.Random(2)
    for _ in range(25):
        w = Word(random_reduced_word(gsg, rng.randint(1, 4), rng), True)
        res = order(gsg, w, bound=3**9)
        assert res.kind == "finite"
        assert res.value == 3 ** max(0, (res.value.bit_length() // 2)) or res.value % 3 == 0 or res.value == 1


def test_ball_gg(gg):
    sizes = [len(ball(gg, r)) for r in range(5)]
    assert sizes == [1, 5, 11, 23, 40]


def test_ball_dihedral():
    dinf = builtin("Dinf")
    assert [len(ball(dinf, r)) for r in range(6)] == [1, 3, 5, 7, 9, 11]


# explicit groups in which two rooted letters merge into a rooted letter
# that is no canonical letter: in S3r `a r` is the transposition (1 3), in
# X `a a` is (1 3)(2 4); such a word of one letter is an element of length 2
MERGING_GROUPS = {
    "S3r": ("group S3r\narity 3\nrooted a = (1 2)\nrooted r = (1 2 3)\n"
            "recursive b = (a, 1, b)\nrecursive c = (r, 1, c) a\n"),
    "X": "group X\narity 4\nrooted a = (1 2 3 4)\nrecursive b = (a, 1, 1, b)\n",
}


def _ball_group(name):
    if name in MERGING_GROUPS:
        return parse_group_file(MERGING_GROUPS[name])
    return builtin(name)


def test_growth_values_match_ball_sizes():
    # in S3r and X a merged rooted letter is one letter long but is found
    # in layer 2, so counting by reduced length would miscount
    for name, radius in (("Gg", 5), ("FGg", 3), ("BSV", 3), ("Dinf", 6), ("Sg", 4),
                         ("S3r", 3), ("X", 4)):
        g = _ball_group(name)
        assert growth_values(g, radius) == [len(ball(g, r)) for r in range(radius + 1)]


def test_ball_keys_at_a_shallower_level_on_wide_trees(monkeypatch):
    # GS17's level 3 has 17^3 = 4,913 vertices, past the ball's degree cap,
    # so the ball keys its words at level 2; interned states are canonical,
    # so distinct states count the elements of each ball
    g = _make_builtin("GS17")
    levels = []
    quotient = decision.level_quotient
    monkeypatch.setattr(decision, "level_quotient",
                        lambda group, level: levels.append(level) or quotient(group, level))
    values = growth_values(g, 2)
    assert levels == [2]
    words = [()]
    counts = []
    for _ in range(3):
        counts.append(len({g.state_of_word(w) for w in words}))
        words = [w + (x,) for w in words for x in g.canonical_letters] + [()]
    assert values == counts == [1, 33, 545]


def test_ball_size_is_checked_as_words_are_kept(monkeypatch, gg):
    # Gg's ball of radius 4 has 40 elements, so radius 5 passes a cap of 40
    monkeypatch.setattr(decision, "BALL_SIZE_CAP", 40)
    assert len(ball(gg, 4)) == 40
    for run in (ball, growth_values, torsion_growth):
        with pytest.raises(ResourceBoundExceeded, match=(
                r"^the ball of radius 5 has more than 40 elements, the bound on a ball "
                r"\(decision\.BALL_SIZE_CAP\)$")):
            run(gg, 5)


# (size, sha1 of the printed representatives, one per line); the first
# three recorded when ball keyed elements by the images of every vertex
# under `act`, the rest while ball still checked every extension for a
# collision, including those that got no longer
BALL_DIGESTS = {
    ("Gg", 6): (108, "a908c2e55ebf14ffb3523f86349b331de49c15b9"),
    ("FGg", 4): (61, "491f51e17c2763bc0f2958b9c4d9e6fe726dd43c"),
    ("BSV", 4): (153, "46fba58cc12634ef518922b046da848c7668c0ec"),
    ("Gg", 8): (271, "6e2bc3278b8ba8149c239aaac6950fb702b681a3"),
    ("G2", 4): (232, "ed9052dcf4e6589148457e430b8e49ae1c94fbb0"),
    ("Sg", 6): (832, "bf235e9a7a07ec24360e3cb25775c41b2897cb15"),
    ("BSV", 6): (1189, "3c5e1c4914c121d2a479dfbd075fefd3397ff75c"),
    ("S3r", 4): (596, "0864d7ecc2cd220bb74926f94fb26bc574ac9437"),
    ("X", 6): (563, "4412c2b4f8142a3b5b370a227c1fcac543d10e23"),
}


def test_ball_representatives_pinned():
    for (name, radius), (size, digest) in BALL_DIGESTS.items():
        g = _ball_group(name)
        words = ball(g, radius)
        printed = "\n".join(g.format_word(w.letters) for w in words)
        assert (len(words), hashlib.sha1(printed.encode()).hexdigest()) == (size, digest)


def test_ball_keeps_merged_rooted_letters():
    # a one-letter word found in layer 2 is a new element, and the words
    # that start with it are searched on
    for name, merged in (("S3r", ["(1 3)", "(2 3)"]), ("X", ["(1 3)(2 4)"])):
        g = _ball_group(name)
        printed = [g.format_word(w.letters) for w in ball(g, 3)]
        layer_1 = printed[:len(ball(g, 1))]
        for m in merged:
            assert m in printed and m not in layer_1
            assert any(p.startswith(m) and p != m for p in printed)


@pytest.mark.parametrize("name, radius", list(BALL_DIGESTS))
def test_ball_checks_only_extensions_that_got_longer(name, radius, monkeypatch):
    g = _ball_group(name)
    sizes = [len(ball(g, r)) for r in range(radius)]
    answers = []
    real_is_trivial = decision.is_trivial

    def spy(group, word):
        answers.append(real_is_trivial(group, word))
        return answers[-1]

    monkeypatch.setattr(decision, "is_trivial", spy)
    words = ball(g, radius)
    canonical = set(g.canonical_letters)
    checked = skipped = 0
    # the words first found in layer k < radius are extended in layer k + 1
    for w in words[:sizes[-1]]:
        for x in g.canonical_letters:
            nw = g.reduce(w.letters + (x,))
            if len(nw) <= len(w.letters) and canonical.issuperset(nw):
                skipped += 1
            else:
                checked += 1
    # a checked extension that is no new element stops at the one check that
    # holds, and no other check holds: so no extension that got no longer
    # and is written in canonical letters, whose element is always in the
    # ball already, was checked
    assert answers.count(True) == checked - (len(words) - 1)
    assert skipped > 0


def test_torsion_growth(gg):
    assert torsion_growth(gg, 0) == 1
    assert torsion_growth(gg, 1) == 2
    assert torsion_growth(gg, 2) == 16


def test_eta_weights():
    eta, taus = eta_weights(3)
    assert abs(eta - 0.8105357137) < 1e-6
    assert abs(eta**3 + eta**2 + eta - 2) < 1e-9
    # tau_1 + tau_2 = tau_r up to the root-finding tolerance
    assert abs(taus[1] + taus[2] - taus[3]) < 1e-9
    assert 0 < taus[0] < 1
    assert all(0 < taus[i] < taus[i + 1] for i in range(1, 3))
    assert taus[3] < 1
    # triangular property
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            for k in range(1, 4):
                assert taus[i] + taus[j] >= taus[k] - 1e-12
    with pytest.raises(ValueError):
        eta_weights(2)


def test_eta_weights_r4():
    eta, taus = eta_weights(4)
    assert abs(eta**4 + eta**3 + eta**2 - 2) < 1e-9
    assert abs(taus[1] + taus[2] - taus[4]) < 1e-9


def test_canonical_portrait_depth(gg):
    assert canonical_portrait_depth(gg, "(ad)^4") <= 4
    rng = random.Random(4)
    for _ in range(80):
        n = rng.randint(1, 24)
        w = Word(random_reduced_word(gg, n, rng), True)
        bound = max(1, (len(w.letters) - 1).bit_length()) + 1
        assert canonical_portrait_depth(gg, w) <= bound


def test_canonical_portrait_depth_is_bounded():
    # the lamplighter's section words never shrink, so its portrait has no depth
    lamp = parse_group_file(LAMPLIGHTER_GRP)
    with pytest.raises(ResourceBoundExceeded, match=r"^the canonical portrait went deeper than "
                       r"768 levels \(decision\.ORDER_DEPTH_CAP\)$"):
        canonical_portrait_depth(lamp, "a b")


def test_order_recursion_depth_is_bounded():
    # of 200 seeded BSV words, exactly these recurse past the bound; a fresh
    # group, so no remembered order shortens a recursion
    bsv = _make_builtin("BSV")
    rng = random.Random(11)
    deep = []
    for i in range(200):
        w = Word(random_reduced_word(bsv, rng.randint(60, 160), rng), True)
        try:
            assert order(bsv, w).kind in ("finite", "infinite")
        except ResourceBoundExceeded as exc:
            assert str(exc) == ("the recursion of order went deeper than 768 levels "
                                "(decision.ORDER_DEPTH_CAP)")
            deep.append(i)
    assert deep == [36, 78, 165, 173, 176, 184, 197]


def test_trivial_explicit_flavor():
    bsv = builtin("BSV")
    assert is_trivial(bsv, "tau tau'")
    assert not is_trivial(bsv, "mu tau'")
    assert not is_trivial(bsv, "tau^2 mu^2")
    # lambda = tau mu^-1 commutes with its tau-conjugate (BSV relator)
    lam = bsv.parse_word("tau mu'").letters
    lam_t = bsv.reduce(
        bsv.inverse_word(bsv.parse_word("tau").letters)
        + lam + bsv.parse_word("tau").letters
    )
    comm = bsv.reduce(
        bsv.inverse_word(lam) + bsv.inverse_word(lam_t) + lam + lam_t
    )
    assert is_trivial(bsv, Word(comm, True))


def test_section_closure_cap_names_its_constant(monkeypatch):
    from branchgroups import decision
    from branchgroups.errors import ResourceBoundExceeded
    from branchgroups.groups import grigorchuk_2group

    # a fresh group, whose memo cannot answer the word already
    monkeypatch.setattr(decision, "TRIVIAL_CLOSURE_CAP", 1)
    with pytest.raises(ResourceBoundExceeded, match=r"1 words \(decision\.TRIVIAL_CLOSURE_CAP\)"):
        is_trivial(grigorchuk_2group(), "(ab)^16")
