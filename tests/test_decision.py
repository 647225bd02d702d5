import hashlib
import random

import numpy as np
import pytest

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
from branchgroups.automorphisms import perm_from_cycles
from branchgroups.groups import Word, builtin, explicit_group
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
        w = Word(gg.random_reduced_word(rng.randint(1, 12), rng), True)
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
        w = Word(group.random_reduced_word(rng.randint(1, 20), rng), True)
        assert order(group, w).kind == "finite"
    assert group._memo_order and not group._memo_trivial


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
        w = Word(gg.random_reduced_word(rng.randint(1, 6), rng), True)
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
    k, v, sign, witness, _ = res.certificate
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
    k, v, sign, witness, _ = res.certificate
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
            k, v, sign, witness, links = res.certificate
            assert res.kind == "infinite" and sign == 1 and links[0][1] == v
            prev, product = witness, 1
            for length, vertex, conj, word in links:
                root, secs = group.first_level_sections(group.reduce(tuple(prev) * length))
                assert root[vertex] == vertex
                assert equal(group, group.inverse_word(conj) + secs[vertex] + conj, word)
                prev, product = word, product * length
            assert prev == witness and product == k > 1
            depths.add(len(links))
    assert depths == {2, 4, 8}


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
        w = Word(gsg.random_reduced_word(rng.randint(1, 4), rng), True)
        res = order(gsg, w, bound=3**9)
        assert res.kind == "finite"
        assert res.value == 3 ** max(0, (res.value.bit_length() // 2)) or res.value % 3 == 0 or res.value == 1


def test_ball_gg(gg):
    sizes = [len(ball(gg, r)) for r in range(5)]
    assert sizes == [1, 5, 11, 23, 40]


def test_ball_dihedral():
    dinf = builtin("Dinf")
    assert [len(ball(dinf, r)) for r in range(6)] == [1, 3, 5, 7, 9, 11]


def test_growth_values_match_ball_sizes():
    for name, radius in (("Gg", 5), ("FGg", 3), ("BSV", 3), ("Dinf", 6), ("Sg", 4)):
        g = builtin(name)
        assert growth_values(g, radius) == [len(ball(g, r)) for r in range(radius + 1)]


# (size, sha1 of the printed representatives, one per line), recorded when
# ball keyed elements by the images of every vertex under `act`
BALL_DIGESTS = {
    ("Gg", 6): (108, "a908c2e55ebf14ffb3523f86349b331de49c15b9"),
    ("FGg", 4): (61, "491f51e17c2763bc0f2958b9c4d9e6fe726dd43c"),
    ("BSV", 4): (153, "46fba58cc12634ef518922b046da848c7668c0ec"),
}


def test_ball_representatives_pinned():
    for (name, radius), (size, digest) in BALL_DIGESTS.items():
        g = builtin(name)
        words = ball(g, radius)
        printed = "\n".join(g.format_word(w.letters) for w in words)
        assert (len(words), hashlib.sha1(printed.encode()).hexdigest()) == (size, digest)


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
        w = Word(gg.random_reduced_word(n, rng), True)
        bound = max(1, (len(w.letters) - 1).bit_length()) + 1
        assert canonical_portrait_depth(gg, w) <= bound


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
