import hashlib
import random

import pytest

from oracles import random_reduced_word

from branchgroups import groups
from branchgroups.automorphisms import build_recursive, perm_from_cycles
from branchgroups.cli import parse_group_file
from branchgroups.errors import ResourceBoundExceeded, ValidationError
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
    assert sorted(gg.states) == ["a", "b", "c", "d"]


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
    kinds = [all(c.is_identity for c in x.children) for x in letters]  # rooted?
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
    mu = bsv.states["mu"]
    assert bsv.letter_inverse(mu) is mu.inverse()
    assert gg.letter_inverse(gg.states["b"]) is gg.states["b"]


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
            w = random_reduced_word(g, rng.randint(1, 14), rng)
            _, secs = g.first_level_sections(w)
            for s in secs:
                assert len(s) <= (len(w) + 1) / 2


def test_reduce_returns_a_section_unchanged():
    # decision.order takes a fixed point's section as its rotation unreduced
    rng = random.Random(29)
    for root in [builtin(name) for name in BUILTINS] + [_gg_twin(), _d6_spinal()]:
        for group in root._ring:
            for _ in range(60):
                w = random_reduced_word(group, rng.randint(0, 16), rng)
                for s in group.first_level_sections(w)[1]:
                    assert group.shifted().reduce(s) == s


def test_shifted_group_is_level_one_section_closure():
    # the shifted companion's generators are exactly the nontrivial
    # sections of the conjugated directed generators (upper companion)
    for name in ("Gg", "Sg", "G2"):
        group = builtin(name)
        shifted = group.shifted()
        section_states = set()
        for letter in group.canonical_letters:
            if letter not in group._b_names:  # a rooted letter
                continue
            # sections of b and of its conjugates b^g, g rooted, together
            # run over all coordinates of the psi-image
            section_states.update(c for c in letter.children if not c.is_identity)
        shifted_gens = set(shifted.canonical_letters)
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
        w = random_reduced_word(g2, rng.randint(1, 3), rng)
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
        w = random_reduced_word(group, rng.randint(1, 12), rng)
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
    # the t^k aliases joined `states` after these digests were recorded;
    # they name states already pinned under their b^k names
    generators = [(g.name, nm, _bfs_signature(st))
                  for g in groups for nm, st in g.states.items()
                  if not nm.startswith("t^")]
    directed = [(member.name, x, _bfs_signature(st))
                for g in groups if g.is_spinal
                for member in g._ring
                for st, x in member._b_names.items()]
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
        w = random_reduced_word(group, rng.randint(1, 12), rng)
        state = group.state_of_word(w)
        for v in vertices:
            image = v
            for letter in w:
                image = group.state_of_letter(letter).act(image)
            assert state.act(v) == image


def test_mixed_arity_certificate_words_print_with_their_companion():
    # the certificate's words use the letters of shifted companions whose
    # arity differs from the root's; each carries its shift index, and the
    # companion with that index prints it by generator and B-names
    from branchgroups.decision import order

    group = _d6_spinal()
    res = order(group, group.parse_word("a rs a rs a r^3 a r^5"))
    assert repr(res) == "InfiniteCertified(k=16, vertex=1, sign=+1, depth=4)"
    k, v, sign, witness, links, shift = res.certificate
    words = [(witness, shift)]
    for _, _, conj, word, link_shift in links:
        words += [(conj, link_shift), (word, link_shift)]
    assert {s for _, s in words} == {4, 5, 6, 7}

    for word, s in words:
        # a letter is a state, so the root prints every word: a rooted
        # letter of another arity in cycle notation
        assert group.format_word(word)
        text = group.format_word(word, group.companion(s))
        assert text and "#" not in text


def test_root_names_directed_letters_of_its_companions():
    # the root looks a directed letter up in the ring, in shift order, so
    # the witness prints as it does through its companion, not as #serial
    from branchgroups.decision import order

    group = _d6_spinal()
    _, _, _, witness, _, shift = order(group, "a rs a rs a r^3 a r^5").certificate
    assert group.format_word(witness) == "rs (1 3)"
    assert group.format_word(witness, group.companion(shift)) == "rs (1 3)"


def test_btable():
    klein = BTable.klein()
    assert klein.mult("b", "c") == "d"
    assert klein.mult("b", "b") is None
    assert klein.order_of("d") == 2
    cyc = BTable.cyclic(4, "t")
    assert cyc.mult("t", "t") == "t^2"
    assert cyc.mult("t", "t^3") is None
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


def _omega_sections(group, letters):
    """Test oracle: the first-level decomposition read off the defining
    triple.  The rooted letters multiply into a prefix; a directed letter
    b puts the next member's b at the child the prefix carries to the
    spine, and the rooted letter omega_j(b) at the child it carries to a
    non-spine position j."""
    from branchgroups.automorphisms import identity_perm, perm_mul, rooted_state

    m = group.shape.branching(0)
    child = group.shifted()
    directed = {x: st for st, x in child._b_names.items()}
    prefix = identity_perm(m)
    out = [[] for _ in range(m)]
    for letter in letters:
        b = group._b_names.get(letter)
        if b is None:
            prefix = perm_mul(prefix, letter.root_perm)
            continue
        for i in range(m):
            j = prefix[i]
            if j == m - 1:
                out[i].append(directed[b])
            elif b in group.omega_maps[j]:
                out[i].append(rooted_state(child.shape, group.omega_maps[j][b]))
    return prefix, [child.reduce(w) for w in out]


def test_first_level_sections_match_the_omega_maps():
    # following each child through the states gives what the omega maps
    # give, on every ring member of every spinal built-in, a GG-sequence
    # with a prefix, and the mixed-arity D_6 group
    import random

    rng = random.Random(41)
    spinal = [builtin(name) for name in BUILTINS if builtin(name).is_spinal]
    spinal += [grigorchuk_2group((1, 1, 0), (2, 0, 1), name="G_prefixed"), _d6_spinal()]
    for root in spinal:
        for group in root._ring:
            for _ in range(60):
                w = random_reduced_word(group, rng.randint(0, 16), rng)
                assert group.first_level_sections(w) == _omega_sections(group, w)


def _gg_twin():
    """Gg written as a wreath recursion: b = (a, c), c = (a, d), d = (1, b)."""
    flip = perm_from_cycles(2, [[0, 1]])
    return explicit_group("Gg", TreeShape.regular(2), {"a": flip}, {
        "b": ([[("a", 1)], [("c", 1)]], None),
        "c": ([[("a", 1)], [("d", 1)]], None),
        "d": ([[], [("b", 1)]], None),
    })


# two non-contracting automata (Aleshin's and the lamplighter's): the
# rotation words of `order` double with depth on the first, and its
# recursion never closes on the second
ALESHIN_GRP = ("group Aleshin\narity 2\nrooted s = (1 2)\nrecursive a = (c, b) s\n"
               "recursive b = (b, c) s\nrecursive c = (a, a)\n")
LAMPLIGHTER_GRP = ("group Lamplighter\narity 2\nrooted s = (1 2)\nrecursive a = (b, a) s\n"
                   "recursive b = (b, a)\n")


# a drawn file whose rotation words outgrow groups.WORD_LENGTH_CAP two
# levels down: `order` of a^-1 c^-1 c^-1 d^-1 ends at that bound
W_GRP = ("group W\narity 2\nrooted a = (1 2)\nrecursive b = (1, a)\n"
         "recursive c = (1, d^-1 c^-1 c) a\nrecursive d = (b d^-1 d^2, b c^2) a\n")


# rooted (1 2) and (1 2 3): root permutations with cycles of lengths 1 and
# 2, where the multiple s * lcm overshoots the order and power descent
# had to lower it
S3_GRP = ("group S3r\narity 3\nrooted a = (1 2)\nrooted r = (1 2 3)\n"
          "recursive b = (a, 1, b)\nrecursive c = (r, 1, c) a\n")


def test_inverse_of_a_reduced_word_is_reduced():
    # canonical letters are closed under inverses and merge symmetrically,
    # so cyclic_reduce and the order certificate take inverses unreduced
    rng = random.Random(53)
    explicit = [parse_group_file(S3_GRP),
                parse_group_file("group X\narity 2\nrooted a = (1 2)\nrecursive x = (x, a)\n")]
    for root in [builtin(name) for name in BUILTINS] + [_gg_twin(), _d6_spinal()] + explicit:
        for group in root._ring:
            for _ in range(60):
                w = random_reduced_word(group, rng.randint(0, 16), rng)
                inverse = group.inverse_word(w)
                assert group.reduce(inverse) == inverse, (root.name, group.format_word(w))


def test_canonical_letters_are_closed_under_inverses():
    # so merge(x, y) fails exactly when merge(y', x') does, and the inverse
    # of a cyclically reduced word is cyclically reduced
    explicit = [parse_group_file(text) for text in (S3_GRP, ALESHIN_GRP, LAMPLIGHTER_GRP, W_GRP)]
    for root in [builtin(name) for name in BUILTINS] + [_gg_twin(), _d6_spinal()] + explicit:
        for group in root._ring:
            letters = set(group.canonical_letters)
            assert {group.letter_inverse(x) for x in letters} == letters, root.name


def test_exponent_of_an_explicit_rooted_letter_is_reduced():
    # a rooted letter of an explicit group has a known order, so its
    # exponent is taken modulo it instead of being expanded
    gg = _gg_twin()
    assert gg.parse_word("a^10000001").letters == (gg.states["a"],)
    assert gg.parse_word("a^1000000000000000001").letters == (gg.states["a"],)
    assert gg.parse_word("a^-10000000").letters == ()
    assert gg.parse_word("b^3").letters == (gg.states["b"],)


def _word_texts(group, rng, count):
    """Word texts over a group's names and aliases, with primes, ^k, ^-k
    and nested parentheses, in the syntax that group words had before
    they took commutators and conjugates."""
    names = sorted(group.states)

    def factor(depth):
        r = rng.random()
        if depth < 2 and r < 0.2:
            text = "(" + word(depth + 1) + ")"
        elif r < 0.25:
            return "1"
        else:
            text = rng.choice(names)
        for _ in range(rng.choice((0, 0, 1, 2))):
            text += rng.choice(("'", f"^{rng.randint(0, 6)}", f"^-{rng.randint(1, 6)}"))
        return text

    def word(depth):
        parts = [factor(depth) for _ in range(rng.randint(1, 4))]
        return "".join(p + rng.choice(("", "", " ", "*")) for p in parts).strip(" *")

    return [word(0) for _ in range(count)]


def test_parsed_words_are_pinned():
    # recorded before group words and free words shared one parser: each
    # text keeps its reduced word on every built-in, the explicit twin of
    # Gg and the mixed-arity D_6 group
    rng = random.Random(14)
    lines = []
    for g in [builtin(name) for name in BUILTINS] + [_gg_twin(), _d6_spinal()]:
        for text in _word_texts(g, rng, 60):
            lines.append(f"{g.name}\t{text}\t{g.format_word(g.parse_word(text))}")
    assert (len(lines), hashlib.sha1("\n".join(lines).encode()).hexdigest()) == (
        720, "9bcb539801a59105bf801144d3b46b18899d25fa")


def test_word_syntax_commutators_and_conjugates():
    gg = builtin("Gg")
    assert gg.parse_word("[a,b]") == gg.parse_word("a'b'ab")
    assert gg.parse_word("b^a") == gg.parse_word("aba")
    assert gg.parse_word("b^(ac)") == gg.parse_word("c'a'bac")
    assert gg.parse_word("[b^a,c]^2 d") == gg.parse_word("(aba c aba c)^2 d")
    # a prime after a conjugating name inverts the conjugator
    gsg = builtin("GSg")
    assert gsg.parse_word("t^a") == gsg.parse_word("a^2ta")
    assert gsg.parse_word("t^a'") == gsg.parse_word("t^(a')") == gsg.parse_word("ata^2")
    assert gsg.parse_word("t^a'^2") == gsg.parse_word("(ata^2)^2")


@pytest.mark.parametrize("text", ["x", "ab x", "ab)", "(ab", "[a,b", "[a b]", "a^", "a^ b",
                                  "a '", "a^-"])
def test_word_syntax_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        builtin("Gg").parse_word(text)


@pytest.mark.parametrize("nest", [lambda w: f"({w})", lambda w: f"[{w},a]",
                                  lambda w: f"a^({w})", lambda w: f"[a,{w}^2]"],
                         ids=["parentheses", "commutator", "conjugate", "mixed"])
def test_word_nesting_is_bounded(monkeypatch, nest):
    # commutators and conjugates double the letters per level: a small bound
    monkeypatch.setattr(groups, "WORD_NESTING_CAP", 8)
    gg, text = builtin("Gg"), "b"
    for _ in range(8):
        text = nest(text)
    gg.parse_word(text)  # at the bound the text still parses
    with pytest.raises(ResourceBoundExceeded,
                       match=r"^a word nests deeper than 8 levels \(groups\.WORD_NESTING_CAP\)$"):
        gg.parse_word(nest(text))


def test_power_length_is_checked_before_expanding(monkeypatch):
    monkeypatch.setattr(groups, "WORD_LENGTH_CAP", 8)
    gg, twin = builtin("Gg"), _gg_twin()
    assert len(gg.parse_word("(ab)^4")) == 8
    with pytest.raises(ResourceBoundExceeded, match=r"over the bound 8 \(groups\.WORD_LENGTH_CAP\)"):
        gg.parse_word("(ab)^5")
    with pytest.raises(ResourceBoundExceeded):
        gg.parse_word("((ab)^2)^3")
    with pytest.raises(ResourceBoundExceeded):
        twin.parse_word("b^9")  # b has no known order in the twin
    # a single letter's exponent is reduced before the check
    assert gg.parse_word("a^1000000000000000001") == gg.parse_word("a")
    assert gg.parse_word("b^-1000000000000000001") == gg.parse_word("b")
