import hashlib
import logging
import pathlib
import random

import numpy as np
import pytest

from oracles import random_reduced_word

from branchgroups.automorphisms import rooted_state
from branchgroups.conjugacy import (
    GgConjugacy,
    are_conjugate,
    coset_of,
    k_membership_level,
    q_set,
)
from branchgroups.groups import Word, builtin
from branchgroups.quotients import level_quotient, normal_closure

log = logging.getLogger(__name__)


@pytest.fixture(scope="module")
def gg():
    return builtin("Gg")


def test_k_membership_level(gg):
    n_k = k_membership_level()
    assert n_k == 3
    # index below n_K is smaller than 16, at n_K and n_K + 1 exactly 16
    q1 = level_quotient(gg, 1)
    k1 = normal_closure(q1, [q1.perm_of_word("(ab)^2")])
    assert q1.order() // k1.order() < 16
    for n in (n_k, n_k + 1):
        q = level_quotient(gg, n)
        k = normal_closure(q, [q.perm_of_word("(ab)^2")])
        assert q.order() // k.order() == 16


def test_coset_arithmetic():
    ctx = GgConjugacy.instance()
    assert len(ctx.coset_names) == 16
    assert ctx.coset_names[0] == "1"
    # the quotient Gg/K is a group of order 16: closure of the table
    for i in range(16):
        assert ctx.mult[0][i] == i == ctx.mult[i][0]
        assert ctx.mult[i][ctx.inv[i]] == 0
    # coset of a product matches table product
    ca, cb = coset_of("a"), coset_of("b")
    assert ctx.mult[ca][cb] == coset_of("ab")


def test_q_set_examples(gg):
    assert len(q_set("1", "1")) == 16
    assert not q_set("b", "c")
    assert not q_set("b", "d")
    assert are_conjugate("b", "aba")
    assert are_conjugate("ab", "ba")
    assert are_conjugate("abab", "baba")
    assert not are_conjugate("a", "b")


def test_trivial_to_nontrivial_is_empty():
    assert not q_set("1", "b")
    assert not q_set("(ad)^4", "b")
    assert len(q_set("(ad)^4", "bcd")) == 16


def test_random_conjugate_pairs(gg):
    rng = random.Random(41)
    for _ in range(120):
        g = random_reduced_word(gg, rng.randint(1, 8), rng)
        f = random_reduced_word(gg, rng.randint(0, 6), rng)
        gf = gg.reduce(gg.inverse_word(f) + g + f)
        qs = q_set(Word(g, True), Word(gf, True))
        assert qs, (gg.format_word(g), gg.format_word(f))
        assert coset_of(Word(f, True)) in qs


def test_symmetry(gg):
    # Kf in Q(g,h) iff Kf^-1 in Q(h,g)
    rng = random.Random(43)
    for _ in range(60):
        g = Word(random_reduced_word(gg, rng.randint(1, 6), rng), True)
        h = Word(random_reduced_word(gg, rng.randint(1, 6), rng), True)
        assert q_set(g, h).inverse() == q_set(h, g)


def test_consistency_with_quotients(gg):
    # conjugate in Gg implies conjugate images in finite quotients:
    # cycle types must agree at level 6
    rng = random.Random(47)
    q6 = level_quotient(gg, 6)

    def cycle_type(p):
        seen = np.zeros(len(p), dtype=bool)
        out = []
        for i in range(len(p)):
            if seen[i]:
                continue
            c, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = int(p[j])
                c += 1
            out.append(c)
        return tuple(sorted(out))

    checked = 0
    while checked < 60:
        g = Word(random_reduced_word(gg, rng.randint(1, 8), rng), True)
        h = Word(random_reduced_word(gg, rng.randint(1, 8), rng), True)
        if are_conjugate(g, h):
            assert cycle_type(q6.perm_of_word(g)) == cycle_type(q6.perm_of_word(h))
            checked += 1
        else:
            checked += 1


def test_brute_force_agreement_small():
    # exhaustive check against conjugacy search in the level-4 quotient
    # for all pairs from a small set of words: a q_set verdict of
    # "conjugate" must be witnessed in the quotient, and "not conjugate"
    # must be confirmed by exhausting quotient conjugators when the
    # quotient could still separate them
    gg = builtin("Gg")
    q = level_quotient(gg, 3)
    words = ["a", "b", "c", "d", "ab", "ba", "ad", "ac", "abad", "b a b a"]
    perms = {w: tuple(int(x) for x in q.perm_of_word(w)) for w in words}
    # enumerate the whole level-3 quotient (order 128)
    gens = list(q.gen_perms.values())
    ident = tuple(range(q.degree))
    group = {ident}
    frontier = [np.arange(q.degree)]
    while frontier:
        nxt = []
        for p in frontier:
            for gen in gens:
                t = tuple(int(x) for x in gen[p])
                if t not in group:
                    group.add(t)
                    nxt.append(gen[p])
        frontier = nxt
    group = [np.array(p) for p in group]

    def quotient_conjugate(pg, ph):
        pg, ph = np.array(pg), np.array(ph)
        for f in group:
            finv = np.empty_like(f)
            finv[f] = np.arange(len(f))
            if np.array_equal(f[pg[finv]], ph):
                return True
        return False

    for w1 in words:
        for w2 in words:
            ours = are_conjugate(w1, w2)
            theirs = quotient_conjugate(perms[w1], perms[w2])
            if ours:
                assert theirs, (w1, w2)
            # not conjugate in the quotient certainly means not conjugate
            if not theirs:
                assert not ours, (w1, w2)


def test_conjugacy_is_transitive(gg):
    # conjugacy is an equivalence: check transitivity on random triples
    rng = random.Random(59)
    triples = 0
    while triples < 30:
        g = Word(random_reduced_word(gg, rng.randint(1, 6), rng), True)
        f1 = random_reduced_word(gg, rng.randint(0, 4), rng)
        f2 = random_reduced_word(gg, rng.randint(0, 4), rng)
        h = Word(gg.reduce(gg.inverse_word(f1) + g.letters + tuple(f1)), True)
        k = Word(gg.reduce(gg.inverse_word(f2) + h.letters + tuple(f2)), True)
        assert are_conjugate(g, h) and are_conjugate(h, k)
        assert are_conjugate(g, k)
        triples += 1
    # and the q_set composition law: Q(g,h) Q(h,k) is contained in Q(g,k)
    ctx = GgConjugacy.instance()
    g = Word(gg.parse_word("ab").letters, True)
    h = Word(gg.parse_word("ba").letters, True)
    qgh, qhk, qgk = q_set(g, h), q_set(h, h), q_set(g, h)
    for z1 in qgh.ids:
        for z2 in qhk.ids:
            assert ctx.mult[z1][z2] in qgk.ids


def test_witness_soundness_logged(gg):
    # whenever q_set returns a coset, a bounded search over its
    # representatives should find an actual conjugator; failures are
    # logged, not asserted (witnesses may be longer than the bound)
    from branchgroups.decision import equal

    ctx = GgConjugacy.instance()
    rng = random.Random(53)
    found, missed = 0, 0
    for _ in range(25):
        g = Word(random_reduced_word(gg, rng.randint(1, 5), rng), True)
        f = random_reduced_word(gg, rng.randint(0, 4), rng)
        h = Word(gg.reduce(gg.inverse_word(f) + g.letters + tuple(f)), True)
        qs = q_set(g, h)
        for cid in list(qs.ids)[:2]:
            rep = ctx.coset_names[cid]
            ok = False
            for k_word in ("", "(ab)^2", "(ba)^2", "(ab)^4", "abab abab"):
                candidate = gg.parse_word(k_word + (rep if rep != "1" else ""))
                conj = gg.reduce(
                    gg.inverse_word(candidate.letters) + g.letters
                    + candidate.letters
                )
                if equal(gg, Word(conj, True), h):
                    ok = True
                    break
            if ok:
                found += 1
            else:
                missed += 1
                log.info("no short witness for coset %s of (%s, %s)",
                         rep, gg.format_word(g), gg.format_word(h))
    assert found > 0


def _solve_everything(ctx):
    """Test oracle: the former solve, which re-evaluated every table node
    until nothing grew.  Returns the number of values it changed."""
    changed = 0
    work = set(ctx.values)
    while work:
        k = work.pop()
        new = ctx._evaluate(k)
        if new != ctx.values[k]:
            ctx.values[k] = new
            changed += 1
            work.update(ctx.dependents.get(k, ()))
    return changed


def _query_stream(gg, count, seed):
    """Seeded pairs, alternately conjugate by construction and independent."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        g = random_reduced_word(gg, rng.randint(2, 16), rng)
        f = random_reduced_word(gg, rng.randint(1, 8), rng)
        pairs.append((g, gg.reduce(gg.inverse_word(f) + g + f)))
        pairs.append((random_reduced_word(gg, rng.randint(2, 16), rng),
                      random_reduced_word(gg, rng.randint(2, 16), rng)))
    return [(Word(g, True), Word(h, True)) for g, h in pairs[:count]]


@pytest.fixture(scope="module")
def streamed(gg):
    """A fresh context after a seeded stream of 200 queries, with answers."""
    ctx = GgConjugacy()
    pairs = _query_stream(gg, 200, seed=61)
    answers = [ctx.q_set(g, h) for g, h in pairs]
    return ctx, pairs, answers


def test_incremental_solve_reaches_the_global_fixpoint(streamed):
    ctx, _, _ = streamed
    before = dict(ctx.values)
    assert len(before) > 200
    assert _solve_everything(ctx) == 0
    assert ctx.values == before
    # every dependents link points at a node of the table
    assert all(d in ctx.values for deps in ctx.dependents.values() for d in deps)


def test_query_order_does_not_change_answers(streamed):
    _, pairs, answers = streamed
    ctx = GgConjugacy()
    reverse = [ctx.q_set(g, h) for g, h in reversed(pairs)]
    assert [q.ids for q in reversed(reverse)] == [q.ids for q in answers]


def test_filtered_witness_seeds_match_unfiltered(streamed):
    from branchgroups.decision import is_trivial

    ctx, _, _ = streamed
    gg = ctx.group
    candidates = [()] + [(x,) for x in gg.canonical_letters]
    for g, h in list(ctx.values):
        unfiltered = frozenset(
            ctx.coset_of_word(Word(f, True)) for f in candidates
            if is_trivial(gg, gg.inverse_word(f) + g + f + gg.inverse_word(h))
        )
        assert ctx._short_witness_seeds(g, h) == unfiltered, (g, h)


def test_refutations_match_the_path_they_replace(streamed):
    # a context that reads words in G/K only, as before the element tables:
    # walks stay on each coset's first element and all elements share one
    # class, so no image refutes triviality, conjugacy or a witness that
    # the G/K equation admits
    ctx, pairs, answers = streamed
    plain, k = GgConjugacy(), 256
    plain.classes = [0] * len(plain.classes)
    plain._times = {x: [e // k * k for e in t] for x, t in plain._times.items()}
    plain._conj = {x: [e // k * k for e in t] for x, t in plain._conj.items()}
    assert [plain.q_set(g, h).ids for g, h in pairs] == [q.ids for q in answers]
    assert _solve_everything(plain) == 0
    settled = [(g, h) for g, h in ctx.values
               if ctx.classes[ctx.element_of_word(g)] != ctx.classes[ctx.element_of_word(h)]]
    assert settled and len(ctx.values) < len(plain.values)
    # a refuted node's exact Q-set is empty, so no node's value differs
    assert all(plain.values[key] == frozenset() for key in settled)
    assert all(plain.values[key] == value for key, value in ctx.values.items())
    for g, h in ctx.values:
        assert ctx._short_witness_seeds(g, h) == plain._short_witness_seeds(g, h), (g, h)


def test_q_set_digest_over_the_benchmark_stream(monkeypatch):
    # the answers to the benchmark's seed-7 conjugacy stream, then the G/K
    # tables, hash to the digest recorded when the tables were introduced
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs

    ctx = GgConjugacy()
    word = ctx.group.word
    digest = hashlib.sha1()
    for block in inputs.make_blocks("conjugacy", 7, 2000):
        for _, g, h, _f in block:
            digest.update(repr(sorted(ctx.q_set(word(g), word(h)).ids)).encode())
    digest.update(repr((ctx.coset_names, ctx.mult, ctx.inv, ctx.lift, ctx.coset_a)).encode())
    assert digest.hexdigest() == "b272389697a10975ec710872842003df63b27128"


def test_failed_query_leaves_no_node(gg, monkeypatch):
    from branchgroups import conjugacy

    real = conjugacy.is_trivial
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    ctx = GgConjugacy()
    ctx.q_set(gg.word("b"), gg.word("aba"))
    values = dict(ctx.values)
    recipes = dict(ctx.recipes)
    dependents = {k: dict(v) for k, v in ctx.dependents.items()}
    monkeypatch.setattr(conjugacy, "is_trivial", flaky)
    with pytest.raises(KeyboardInterrupt):
        ctx.q_set(gg.word("ab"), gg.word("ba"))
    monkeypatch.setattr(conjugacy, "is_trivial", real)
    assert ctx.values == values
    assert ctx.recipes == recipes
    assert ctx.dependents == dependents
    retry = ctx.q_set(gg.word("ab"), gg.word("ba"))
    assert retry == GgConjugacy().q_set(gg.word("ab"), gg.word("ba"))
    assert retry.names() == ["a", "b"]


def test_coset_memo_over_the_whole_quotient():
    ctx = GgConjugacy()
    q = ctx.quotient
    # all of G_{n_K+1} by breadth-first search over the generators
    ident = np.arange(q.degree, dtype=np.int32)
    elements = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for gen in q.gen_perms.values():
                r = gen[p]
                if r.tobytes() not in elements:
                    elements[r.tobytes()] = r
                    nxt.append(r)
        frontier = nxt
    assert len(elements) == q.order() == 4096
    # the image of K by closure of its generators; coset i is t_i K
    k_gens = ctx.k_image.gens
    k_elems = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for gen in k_gens:
                r = gen[p]
                if r.tobytes() not in k_elems:
                    k_elems[r.tobytes()] = r
                    nxt.append(r)
        frontier = nxt
    assert len(k_elems) == 4096 // 16
    scan = {k[t].tobytes(): i for i, t in enumerate(ctx.transversal)
            for k in k_elems.values()}
    assert len(scan) == 4096
    for key, p in elements.items():
        assert ctx.coset_of_perm(p) == scan[key]
        assert ctx.coset_of_perm(p.astype(np.int64)) == scan[key]
    # the element numbering covers G_{n_K+1} exactly
    assert len(np.unique(ctx.elements, axis=0)) == len(ctx.elements) == 4096


def test_element_tables_agree_with_the_permutations(gg):
    ctx = GgConjugacy.instance()
    q = ctx.quotient
    # a word's element is one walk, checked against its quotient permutation
    rng = random.Random(71)
    for _ in range(300):
        letters = tuple(rng.choice(gg.canonical_letters) for _ in range(rng.randint(0, 30)))
        perm = q.perm_of_word(Word(gg.reduce(letters), True))
        e = ctx.element_of_word(letters)
        assert np.array_equal(ctx.elements[e], perm), gg.format_word(letters)
        assert e // 256 == ctx.coset_of_perm(perm)
    # every conjugation table entry is x^-1 e x: x^-1 acts first
    for x in gg.canonical_letters:
        x_inv = q.perm_of_word(Word(gg.inverse_word((x,)), True))
        gx = q.perm_of_word(Word((x,), True))
        assert np.array_equal(ctx.elements[ctx._conj[x]], gx[ctx.elements[:, x_inv]])
    # the class labels are the least numbers of the orbits under conjugation
    # by the generators, found by search over the permutations
    number = {p.tobytes(): e for e, p in enumerate(ctx.elements)}
    conjugators = [(q.perm_of_word(Word(gg.inverse_word((x,)), True)),
                    q.perm_of_word(Word((x,), True))) for x in gg.canonical_letters]
    least = {}
    for e, p in enumerate(ctx.elements):
        if e in least:
            continue
        orbit, frontier = {e}, [p]
        while frontier:
            r = frontier.pop()
            for x_inv, gx in conjugators:
                s = gx[r[x_inv]]
                if number[s.tobytes()] not in orbit:
                    orbit.add(number[s.tobytes()])
                    frontier.append(s)
        least.update((i, e) for i in orbit)
    assert ctx.classes == [least[e] for e in range(4096)]
    assert len(set(ctx.classes)) == 61


def test_word_cosets_fold_unreduced_letters(gg, monkeypatch):
    # a word's coset is its table walk's coset, letters unreduced; checked
    # against the quotient permutation of the reduced word
    ctx = GgConjugacy.instance()
    q = ctx.quotient
    rng = random.Random(53)
    tuples = [()] + [tuple(rng.choice(gg.canonical_letters) for _ in range(rng.randint(1, 30)))
                     for _ in range(300)]
    expected = []
    for letters in tuples:
        reduced = Word(gg.reduce(letters), True)
        expected.append(ctx.coset_of_perm(q.perm_of_word(reduced)))
        assert ctx.coset_of_word(reduced) == expected[-1]

    def refuse(*args):
        raise AssertionError("the walk builds no permutation and reduces nothing")

    with monkeypatch.context() as patched:
        patched.setattr(type(q), "perm_of_word", refuse)
        patched.setattr(type(gg), "reduce", refuse)
        assert [ctx.coset_of_word(letters) for letters in tuples] == expected
    for letters, c in zip(tuples, expected):
        assert coset_of(gg.format_word(letters)) == c
    for text in ("1", "(ab)^5 c d^3", "[a,b]^c", "(a d)^-3 b^(a c)"):
        assert coset_of(text) == ctx.coset_of_perm(q.perm_of_word(text)), text


def test_rooted_letter_state_is_cached(gg):
    # a letter is its own state; the rooted letter is the interned one
    for letter in gg.canonical_letters:
        assert gg.state_of_letter(letter) is letter
    a = gg.states["a"]
    assert a in gg.canonical_letters
    assert a is rooted_state(gg.shape, a.root_perm)


_COUNT_EVALUATIONS = """
import hashlib, random
from oracles import random_reduced_word
from branchgroups import conjugacy
from branchgroups.groups import Word, builtin

ctx = conjugacy.GgConjugacy.instance()
evaluate, calls = ctx._evaluate, [0]

def counted(key):
    calls[0] += 1
    return evaluate(key)

ctx._evaluate = counted
gg = builtin("Gg")
rng = random.Random(1)
answers = hashlib.sha1()
for _ in range(200):
    g = random_reduced_word(gg, rng.randint(2, 16), rng)
    f = random_reduced_word(gg, rng.randint(1, 8), rng)
    h = gg.reduce(gg.inverse_word(f) + g + f)
    for x, y in ((g, h), (g, random_reduced_word(gg, rng.randint(2, 16), rng))):
        q = conjugacy.q_set(Word(x, True), Word(y, True))
        answers.update(repr(sorted(q.ids)).encode())
print(calls[0], answers.hexdigest())
"""


def test_fixpoint_work_is_the_same_in_every_process():
    # letters hash by object identity, so nothing in the fixpoint may
    # depend on set order: fresh interpreters with different hash seeds
    # and heap layouts evaluate the same nodes the same number of times
    import os
    import subprocess
    import sys

    import branchgroups

    src = os.path.dirname(os.path.dirname(branchgroups.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            [src, tests, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _COUNT_EVALUATIONS], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        runs.append(out.stdout.split())
    assert runs[0] == runs[1]
    assert int(runs[0][0]) > 0
