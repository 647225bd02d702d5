import pytest

from branchgroups.automorphisms import build_recursive, perm_from_cycles
from branchgroups.errors import ValidationError
from branchgroups.groups import (
    BTable,
    DefiningTriple,
    GGSVector,
    builtin,
    explicit_group,
    from_ggs,
    from_triple,
    grigorchuk_2group,
    is_ggs_torsion,
)
from branchgroups.shapes import TreeShape


def test_builtin_gg_generators():
    gg = builtin("Gg")
    a, b, c, d = (gg.states[x] for x in "abcd")
    assert a.root_perm == (1, 0)
    assert (b.section((0,)), b.section((1,))) == (a, c)
    assert (c.section((0,)), c.section((1,))) == (a, d)
    assert d.section((0,)).is_identity and d.section((1,)) is b
    assert sorted(gg.gen_letters) == ["a", "b", "c", "d"]


def test_builtin_ternary_trio():
    fgg = builtin("FGg")
    t, a = fgg.states["t"], fgg.states["a"]
    assert t.section((2,)) is t
    assert t.section((0,)) is a
    assert t.section((1,)).is_identity
    gsg = builtin("GSg")
    assert gsg.states["t"].section((1,)) is gsg.states["a^2"]
    bgg = builtin("BGg")
    assert bgg.states["t"].section((1,)) is bgg.states["a"]


def test_builtin_second_grigorchuk():
    g2 = builtin("G2")
    b, a = g2.states["b"], g2.states["a"]
    assert b.section((0,)) is a
    assert b.section((1,)).is_identity
    assert b.section((2,)) is a
    assert b.section((3,)) is b


def test_builtin_supergroup_matches_recursion():
    sg = builtin("Sg")
    shape = TreeShape.regular(2)
    states = build_recursive(
        shape,
        {"a": perm_from_cycles(2, [[0, 1]])},
        {
            "b": ([[("a", 1)], [("c", 1)]], None),
            "c": ([[], [("d", 1)]], None),
            "d": ([[], [("b", 1)]], None),
        },
    )
    for name in "bcd":
        assert sg.states[name] is states[name]
    # the directed part is elementary abelian of order 8
    assert len(sg.b_table) == 8


def test_grigorchuk_2group_reproduces_gg():
    gg = builtin("Gg")
    other = grigorchuk_2group((), (0, 1, 2))
    for name in "abcd":
        assert other.states[name] is gg.states[name]
    # ... and so does the explicit recursion
    states = build_recursive(
        TreeShape.regular(2),
        {"a": perm_from_cycles(2, [[0, 1]])},
        {
            "b": ([[("a", 1)], [("c", 1)]], None),
            "c": ([[("a", 1)], [("d", 1)]], None),
            "d": ([[], [("b", 1)]], None),
        },
    )
    for name in "abcd":
        assert states[name] is gg.states[name]


def test_grigorchuk_2group_needs_all_symbols():
    with pytest.raises(ValidationError):
        grigorchuk_2group((), (0, 1))


def test_from_ggs_matches_builtin():
    fgg = builtin("FGg")
    other = from_ggs(GGSVector(3, (1, 0)))
    assert other.states["b"] is fgg.states["b"]
    assert other.states["a"] is fgg.states["a"]


def test_ggs_vector_validation():
    with pytest.raises(ValidationError):
        GGSVector(4, (2, 0, 2))  # gcd 2
    with pytest.raises(ValidationError):
        GGSVector(3, (1,))  # wrong length


def test_from_triple_validation_errors():
    shape = TreeShape.regular(2)
    flip = perm_from_cycles(2, [[0, 1]])
    klein = BTable.klein()
    # non-transitive rooted part
    with pytest.raises(ValidationError) as err:
        t = DefiningTriple(shape, [(0, 1)], klein, [],
                           [[{"b": flip, "c": flip}]])
        from_triple(t)
    assert "transitivity" in str(err.value)
    # kernel intersection violated: d never acts
    with pytest.raises(ValidationError) as err:
        t = DefiningTriple(shape, [flip], klein, [],
                           [[{"b": flip, "c": flip}]])
        from_triple(t)
    assert "kernel" in str(err.value)
    # degree mismatch in a homomorphism
    with pytest.raises(ValidationError):
        t = DefiningTriple(shape, [flip], klein, [],
                           [[{"b": (1, 2, 0), "c": flip}]])
        from_triple(t)


def test_reduce_examples():
    gg = builtin("Gg")
    assert gg.format_word(gg.parse_word("bc")) == "d"
    assert len(gg.parse_word("bb")) == 0
    assert len(gg.parse_word("1")) == 0
    assert gg.format_word(gg.parse_word("bcd")) == "1"
    # alternating normal form
    w = gg.parse_word("aabccdba")
    letters = w.letters
    kinds = [x[0] for x in letters]
    assert all(k1 != k2 for k1, k2 in zip(kinds, kinds[1:]))


def test_explicit_reduce_merges_named_products():
    flip = perm_from_cycles(2, [[0, 1]])
    gg = explicit_group("Gg", TreeShape.regular(2), {"a": flip}, {
        "b": ([[("a", 1)], [("c", 1)]], None),
        "c": ([[("a", 1)], [("d", 1)]], None),
        "d": ([[], [("b", 1)]], None),
    })
    assert gg.parse_word("b b").letters == ()
    assert gg.format_word(gg.parse_word("b c")) == "d"
    assert gg.format_word(gg.parse_word("b b d c")) == "b"
    assert gg.format_word(gg.parse_word("a b a")) == "aba"
    # an inverse letter is the inverse state; involutions are their own
    bsv = builtin("BSV")
    mu = bsv.gen_letters["mu"]
    assert bsv.letter_inverse(mu) == ("G", bsv.states["mu"].inverse())
    assert gg.letter_inverse(gg.gen_letters["b"]) == gg.gen_letters["b"]


def test_reduce_confluence_random():
    import random

    gg = builtin("Gg")
    rng = random.Random(17)
    letters_pool = list(gg.canonical_letters)
    for _ in range(200):
        raw = tuple(rng.choice(letters_pool) for _ in range(rng.randint(0, 12)))
        expected = gg.reduce(raw)
        # randomized merge order
        work = list(raw)
        while True:
            spots = [
                i for i in range(len(work) - 1)
                if gg._merge(work[i], work[i + 1]) is not False
            ]
            if not spots:
                break
            i = rng.choice(spots)
            merged = gg._merge(work[i], work[i + 1])
            work[i:i + 2] = [] if merged is None else [merged]
        assert tuple(work) == expected


def test_cyclic_reduce():
    gg = builtin("Gg")
    w, conj = gg.cyclic_reduce(gg.parse_word("aba").letters)
    assert gg.format_word(w) == "b"
    assert gg.format_word(conj) == "a"
    w, conj = gg.cyclic_reduce(gg.parse_word("b").letters)
    assert gg.format_word(w) == "b" and conj == ()
    w, conj = gg.cyclic_reduce(gg.parse_word("ab").letters)
    assert gg.format_word(w) == "ab" and conj == ()
    # conjugacy: w == conj w_c conj^-1 as states
    word = gg.parse_word("dabacab")
    wc, conj = gg.cyclic_reduce(word.letters)
    lhs = gg.state_of_word(word)
    rhs = gg.state_of_word(
        gg.reduce(tuple(conj) + wc + gg.inverse_word(conj))
    )
    assert lhs is rhs


def test_first_level_section_contraction():
    import random

    rng = random.Random(23)
    for name in ("Gg", "Sg", "FGg", "BGg", "GSg", "G2"):
        g = builtin(name)
        for _ in range(200):
            w = g.random_reduced_word(rng.randint(1, 14), rng)
            _, secs = g.first_level_sections(w)
            for s in secs:
                assert len(s) <= (len(w) + 1) / 2


def test_shifted_group_is_level_one_section_closure():
    # the shifted companion's generators are exactly the nontrivial
    # sections of the conjugated directed generators (upper companion)
    for name in ("Gg", "Sg", "G2"):
        group = builtin(name)
        shifted = group.shifted()
        section_states = set()
        for letter in group.canonical_letters:
            if letter[0] != "B":
                continue
            st = group.state_of_letter(letter)
            # sections of b and of its conjugates b^g, g rooted, together
            # run over all coordinates of the psi-image
            section_states.update(c for c in st.children if not c.is_identity)
        shifted_gens = {
            shifted.state_of_letter(x) for x in shifted.canonical_letters
        }
        assert shifted_gens == section_states


def test_gg_phi_table():
    # the full table of first-level sections of b, c, d and their
    # a-conjugates: b = (a,c), c = (a,d), d = (1,b),
    # b^a = (c,a), c^a = (d,a), d^a = (b,1)
    gg = builtin("Gg")
    table = {
        "b": ("a", "c"), "c": ("a", "d"), "d": (None, "b"),
        "aba": ("c", "a"), "aca": ("d", "a"), "ada": ("b", None),
    }
    for word, (left, right) in table.items():
        st = gg.state_of_word(gg.parse_word(word))
        if left is None:
            assert st.section((0,)).is_identity
        else:
            assert st.section((0,)) is gg.states[left]
        if right is None:
            assert st.section((1,)).is_identity
        else:
            assert st.section((1,)) is gg.states[right]


def test_is_ggs_torsion():
    assert is_ggs_torsion(GGSVector(3, (1, 2))) is True      # Gupta-Sidki
    assert is_ggs_torsion(GGSVector(3, (1, 0))) is False     # FGg
    assert is_ggs_torsion(GGSVector(3, (1, 1))) is False     # BGg
    assert is_ggs_torsion(GGSVector(4, (1, 0, 1))) is True   # second Grigorchuk
    assert is_ggs_torsion(GGSVector(5, (1, 4, 0, 0))) is True
    with pytest.raises(ValidationError):
        is_ggs_torsion(GGSVector(6, (1, 0, 0, 0, 0)))


def test_second_grigorchuk_torsion_cross_check():
    # order search agrees with the m = 4 criterion on short elements
    import random

    from branchgroups.decision import order

    g2 = builtin("G2")
    rng = random.Random(67)
    for _ in range(20):
        w = g2.random_reduced_word(rng.randint(1, 3), rng)
        res = order(g2, w, bound=1 << 12)
        assert res.kind == "finite"


def _d6_spinal():
    """Spinal group with directed part D_6 on the mixed-arity tree.

    D_6 (dihedral of order 12) is covered by its three index-2 subgroups
    plus the center with dihedral-of-order-6 quotient acting on three
    letters: the tree has branching 2, 2, 2, 2, 3, 2, 2, 2, 3, ...
    """
    from branchgroups.automorphisms import perm_mul, identity_perm

    def name(k, e):
        if e == 0:
            return None if k == 0 else ("r" if k == 1 else f"r^{k}")
        return "s" if k == 0 else f"r^{k}s" if k > 1 else "rs"

    elements = [(k, e) for k in range(6) for e in range(2)]
    mult = {}
    for k1, e1 in elements:
        for k2, e2 in elements:
            # (r^k1 s^e1)(r^k2 s^e2): move s past r via s r = r^-1 s
            k = (k1 + (k2 if e1 == 0 else -k2)) % 6
            e = (e1 + e2) % 2
            if name(k1, e1) and name(k2, e2):
                mult[(name(k1, e1), name(k2, e2))] = name(k, e)
    d6 = BTable([name(k, e) for k, e in elements if name(k, e)], mult)

    flip = perm_from_cycles(2, [[0, 1]])
    sym3 = {  # quotient by the center {1, r^3}: r -> (1 2 3), s -> (2 3)
        "r": perm_from_cycles(3, [[0, 1, 2]]),
        "s": perm_from_cycles(3, [[1, 2]]),
    }

    def in_subgroup(nm, gens):
        seen = {None}
        frontier = [None]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = d6.mult(x, g)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return nm in seen

    def c2_level(gens):
        omega = {}
        for nm in d6.names:
            if not in_subgroup(nm, gens):
                omega[nm] = flip
        return [omega]

    def d3_level():
        omega = {}
        for k, e in elements:
            nm = name(k, e)
            if nm is None:
                continue
            p = identity_perm(3)
            for _ in range(k):
                p = perm_mul(p, sym3["r"])
            if e:
                p = perm_mul(p, sym3["s"])
            if p != identity_perm(3):
                omega[nm] = p
        return [omega]

    # branching 2, 2, 2, 2, 3, 2, 2, 3, ...: a ternary spine vertex
    # carries two homomorphisms, and the level after it maps into Sym(3)
    shape = TreeShape(prefix=(2,), cycle=(2, 2, 2, 3))
    n1 = c2_level(["r^2", "s"])
    n2 = c2_level(["r^2", "rs"])
    n3 = c2_level(["r"])
    d3 = d3_level()
    pair = [n1[0], n2[0]]  # the two non-spine children of the 3-ary vertex
    triple = DefiningTriple(
        shape, [flip], d6,
        omega_prefix=[n1, n2, n3, d3],
        omega_cycle=[pair, n3, n1, d3],
    )
    return from_triple(triple, name="D6-spinal")


def test_nonabelian_directed_part_mixed_arity():
    import random

    from branchgroups.decision import is_trivial, order
    from branchgroups.groups import Word

    group = _d6_spinal()
    assert group.is_spinal

    # orders of the directed generators equal their orders in D_6
    assert order(group, "r").value == 6
    assert order(group, "s").value == 2
    assert is_trivial(group, "s s")
    assert not is_trivial(group, "r^3")
    assert is_trivial(group, "r^6")

    # contraction holds on this mixed-arity tree as well
    rng = random.Random(71)
    for _ in range(100):
        w = group.random_reduced_word(rng.randint(1, 12), rng)
        root, secs = group.first_level_sections(w)
        assert all(len(s) <= (len(w) + 1) / 2 for s in secs)
        if root == (0, 1):
            # psi is an embedding: triviality descends to the sections
            assert is_trivial(group, Word(w, True)) == all(
                is_trivial(group.shifted(), Word(s, True)) for s in secs
            )


def test_sylow_hausdorff_ratio_rejects_mixed_arity():
    # level 5 has branching 3 below four binary levels: |G_5| is not a power
    # of 2, so there is no exponent ratio (the log quotient read 1.334)
    from branchgroups.quotients import hausdorff_ratio, hausdorff_ratio_exact

    group = _d6_spinal()
    for ratio in (hausdorff_ratio, hausdorff_ratio_exact):
        with pytest.raises(ValueError, match="not a power of 2"):
            ratio(group, 5)
    assert 0 < hausdorff_ratio(group, 5, ambient="full") < 1


BUILTINS = ("Gg", "G2", "FGg", "BGg", "GSg", "Sg", "BSV", "Dinf", "GS5", "GS7")


def _bfs_signature(state):
    """Shape, root permutation and child positions of every reachable
    section, in BFS order from the state: canonical for minimal machines."""
    seq = [state]
    pos = {state: 0}
    i = 0
    while i < len(seq):
        for child in seq[i].children:
            if child not in pos:
                pos[child] = len(seq)
                seq.append(child)
        i += 1
    return tuple(
        (s.shape.prefix, s.shape.cycle, s.root_perm, tuple(pos[c] for c in s.children))
        for s in seq
    )


def test_generator_and_directed_states_are_pinned():
    # digests recorded before the automaton builders were merged into one
    # section-closure machine; every generator and every directed state
    # of every ring member must come out as the same machine
    import hashlib

    groups = [builtin(name) for name in BUILTINS] + [_d6_spinal()]
    generators = [(g.name, nm, _bfs_signature(st))
                  for g in groups for nm, st in g.states.items()]
    directed = [(member.name, x, _bfs_signature(st))
                for g in groups if g.is_spinal
                for member in g._ring
                for x, st in member._directed_states.items()]
    assert (len(generators), len(directed)) == (72, 138)
    assert hashlib.sha1(repr(generators).encode()).hexdigest() == (
        "b484a025ee4c043bdb501926df3e95414a45c3c2")
    assert hashlib.sha1(repr(directed).encode()).hexdigest() == (
        "19aa00de354d4047f7eee5ddff0a93fedbd1d420")


def test_mixed_arity_word_states_act_letter_by_letter():
    # interning a word on a shape that is not shift-invariant tracks the
    # shape per section; its action must agree with the letters' actions
    import random

    group = _d6_spinal()
    vertices = group.shape.vertices(5)
    assert {group.shape.branching(i) for i in range(5)} == {2, 3}
    rng = random.Random(83)
    for _ in range(40):
        w = group.random_reduced_word(rng.randint(1, 12), rng)
        state = group.state_of_word(w)
        for v in vertices:
            image = v
            for letter in w:
                image = group.state_of_letter(letter).act(image)
            assert state.act(v) == image


def test_btable():
    klein = BTable.klein()
    assert klein.mult("b", "c") == "d"
    assert klein.mult("b", "b") is None
    assert klein.order_of("d") == 2
    cyc = BTable.cyclic(4, "t")
    assert cyc.mult("t", "t") == "t^2"
    assert cyc.inv("t") == "t^3"
    assert cyc.order_of("t^2") == 2
    ea = BTable.elementary_abelian_2(("x", "y"))
    assert ea.mult("x", "y") == "xy"
    assert len(ea) == 4


def test_word_parse_powers_and_inverses():
    fgg = builtin("FGg")
    assert fgg.parse_word("a^-1").letters == fgg.parse_word("a'").letters
    assert fgg.parse_word("a^2").letters == fgg.parse_word("aa").letters
    assert fgg.parse_word("(at)^3").letters == fgg.parse_word("atatat").letters
    assert fgg.parse_word("t^2").letters == fgg.parse_word("t t").letters
    with pytest.raises(ValueError):
        fgg.parse_word("x")
    with pytest.raises(ValueError):
        fgg.parse_word("(at")
