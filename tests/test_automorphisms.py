import hashlib
import itertools
import random

import pytest

from test_groups import BUILTINS, _d6_spinal, _gg_twin

from branchgroups import automorphisms
from branchgroups.automorphisms import (
    build_recursive,
    compose,
    format_perm,
    identity_perm,
    identity_state,
    intern_word,
    invert,
    perm_cycles,
    perm_mul,
    perm_order,
    portrait,
    rooted_state,
)
from branchgroups.cli import parse_group_file
from branchgroups.errors import ResourceBoundExceeded, ShapeMismatch
from branchgroups.groups import builtin
from branchgroups.shapes import TreeShape, format_vertex, parse_vertex


@pytest.fixture(scope="module")
def gg():
    return builtin("Gg")


def test_act_examples(gg):
    a, b = gg.states["a"], gg.states["b"]
    assert a.act((0,)) == (1,)                      # act(a, "1") = "2"
    one = identity_state(gg.shape)
    assert one.act((0, 1, 0)) == (0, 1, 0)
    assert b.act((0, 1)) == (0, 0)                  # act(b, "12") = "11"


def test_act_prefix_compatible(gg):
    g = gg.state_of_word(gg.parse_word("abacad"))
    u = (0, 1, 1, 0)
    img = g.act(u)
    for k in range(len(u)):
        assert g.act(u[:k]) == img[:k]


def test_act_rejects_bad_letter(gg):
    with pytest.raises(ValueError):
        gg.states["a"].act((2,))


# branching 2, 3, 2, 3, ...: the range of a letter changes with its position
MIXED_FILE = "group M\narity seq 2 3 cycle 2\nrooted a = (1 2)\n"
WALK_GROUPS = {**{name: (lambda name=name: builtin(name)) for name in BUILTINS},
               "D6": _d6_spinal, "mixed": lambda: parse_group_file(MIXED_FILE)}


def _reference_walk(state, vertex):
    """(act, section) letter by letter, each letter checked before it is read."""
    shape, image = state.shape, []
    for i, y in enumerate(vertex):
        if not 0 <= y < shape.branching(i):
            raise AssertionError(f"bad vertex {vertex}")
        image.append(state.root_perm[y])
        state = state.children[y]
    return tuple(image), state


def _check_message(shape, vertex):
    with pytest.raises(ValueError) as info:
        shape.check_vertex(vertex)
    return str(info.value)


@pytest.mark.parametrize("name", list(WALK_GROUPS))
def test_act_and_section_walk_checks_every_letter(name):
    group = WALK_GROUPS[name]()
    shape = group.shape
    rng = random.Random(f"walk {name}")
    letters = group.canonical_letters
    states = [group.state_of_word(rng.choices(letters, k=rng.randint(0, 8)))
              for _ in range(6)] + list(letters)
    for state in states:
        assert state.act(()) == () and state.section(()) is state
        for _ in range(8):
            n = rng.randint(1, 40)
            vertex = tuple(rng.randrange(shape.branching(i)) for i in range(n))
            image, below = _reference_walk(state, vertex)
            assert state.act(vertex) == image
            assert state.section(vertex) is below
            # a letter one past its range, far past it, or negative at the
            # first, middle and last position; -1 and -m would index a tuple
            # from its end, so they must not slip through
            for i in sorted({0, n // 2, n - 1}):
                m = shape.branching(i)
                for y in (m, m + 7, -1, -m):
                    bad = vertex[:i] + (y,) + vertex[i + 1:]
                    message = _check_message(shape, bad)
                    assert message == f"letter {y + 1} at position {i + 1} out of range 1..{m}"
                    for walk in (state.act, state.section):
                        with pytest.raises(ValueError) as info:
                            walk(bad)
                        assert str(info.value) == message
            # two bad letters: the first one is named
            twice = (shape.branching(0),) + vertex[1:-1] + (-1,) if n > 1 else (-1,)
            with pytest.raises(ValueError) as info:
                state.act(twice)
            assert str(info.value) == _check_message(shape, twice)


def test_section_examples(gg):
    a, b, c, d = (gg.states[x] for x in "abcd")
    assert b.section((0,)) is a
    assert b.section((1,)) is c
    assert d.section((1, 1)) is c                    # d = (1,b), b = (a,c)
    one = identity_state(gg.shape)
    assert one.section((0, 1)) is identity_state(gg.shape.shift(2))
    # section(f, uv) = section(section(f, u), v)
    w = gg.state_of_word(gg.parse_word("abad"))
    assert w.section((0, 1)) is w.section((0,)).section((1,))


def test_compose_invert(gg):
    a, b, c, d = (gg.states[x] for x in "abcd")
    one = identity_state(gg.shape)
    assert compose(a, a) is one                      # relator a^2
    assert invert(one) is one
    assert invert(b) is b
    assert compose(b, c) is d                        # bc = d
    ad = compose(a, d)
    assert compose(ad, invert(ad)) is one
    # right action: act(fg, u) = act(g, act(f, u))
    for u in ((0, 1, 1), (1, 0, 1)):
        assert compose(a, b).act(u) == b.act(a.act(u))


def test_shape_mismatch():
    t2, t3 = TreeShape.regular(2), TreeShape.regular(3)
    x = rooted_state(t2, (1, 0))
    y = rooted_state(t3, (1, 2, 0))
    with pytest.raises(ShapeMismatch):
        compose(x, y)


def test_decompose_worked_example(gg):
    # g = abacadacabadac = (cabab, ba) a
    g = gg.state_of_word(gg.parse_word("abacadacabadac"))
    root, sections = g.root_perm, g.children
    assert root == (1, 0)
    assert sections[0] is gg.state_of_word(gg.parse_word("cabab"))
    assert sections[1] is gg.state_of_word(gg.parse_word("ba"))
    # b = ((), (a, c))
    b = gg.states["b"]
    root_b, secs_b = b.root_perm, b.children
    assert root_b == (0, 1)
    assert secs_b == (gg.states["a"], gg.states["c"])


def test_powers(gg):
    ad = gg.state_of_word(gg.parse_word("ad"))
    assert (ad**4).is_identity
    assert not (ad**2).is_identity
    assert ad**-1 is invert(ad)
    assert (ad**0).is_identity


def test_powers_by_repeated_squaring():
    # tau is BSV's adding machine, so tau^(2^40) adds 2^40 to a 2-adic integer
    tau = builtin("BSV").states["tau"]
    big = tau ** 2**40
    assert big.act((1,) * 12) == (1,) * 12
    assert big.act((1,) * 41) == (1,) * 40 + (0,)
    assert tau ** -(2**40) is invert(big)
    assert tau ** 5 is intern_word(tau.shape, [(tau, 5)])
    assert tau ** -3 is intern_word(tau.shape, [(tau, -3)])


def _node_count(p):
    return sum(1 for _ in p._walk())


def test_portrait(gg, monkeypatch):
    one = identity_state(gg.shape)
    p = portrait(one, depth=0)
    assert p.is_leaf and p.section is one
    g = gg.state_of_word(gg.parse_word("abacadacabadac"))
    p = portrait(g, depth=1)
    assert p.perm == (1, 0)
    assert p.children[0].section is gg.state_of_word(gg.parse_word("cabab"))
    assert p.children[1].section is gg.state_of_word(gg.parse_word("ba"))
    assert p.depth() == 1 and _node_count(p) == 3
    # canonical profile: stop at generators and the identity
    S = set(gg.states.values()) | {one}
    canonical = portrait(g, profile=lambda lvl, s: s in S)
    assert canonical.depth() >= 1
    with pytest.raises(ValueError):
        portrait(g)
    monkeypatch.setattr(automorphisms, "PORTRAIT_NODE_CAP", 2)
    with pytest.raises(ResourceBoundExceeded, match=r"\(automorphisms\.PORTRAIT_NODE_CAP\)"):
        portrait(g, depth=3)


def test_deep_portraits_are_built_without_recursion(gg):
    b = gg.states["b"]
    with pytest.raises(ResourceBoundExceeded, match=r"\(automorphisms\.PORTRAIT_NODE_CAP\)"):
        portrait(b, depth=3000)
    # b, c and d each keep one nontrivial child; a's children are trivial
    p = portrait(b, profile=lambda level, s: level >= 600 or all(c.is_identity for c in s.children))
    assert p.depth() == 600 and _node_count(p) == 1201
    text = repr(p)
    assert text.count("Node(") == 600 and text.count("Leaf(") == 601


def test_reachable_sections(gg, monkeypatch):
    one = identity_state(gg.shape)
    assert one.reachable_sections() == {one}
    b = gg.states["b"]
    expected = {gg.states[x] for x in "abcd"} | {one, b}
    assert b.reachable_sections() == {gg.states[x] for x in "bacd"} | {one}
    assert expected == b.reachable_sections() | {b}
    bsv = builtin("BSV")
    big = bsv.state_of_word(bsv.parse_word("tau^19"))
    monkeypatch.setattr(automorphisms, "REACHABLE_SECTIONS_CAP", 3)
    with pytest.raises(ResourceBoundExceeded,
                       match=r"\(automorphisms\.REACHABLE_SECTIONS_CAP\)"):
        big.reachable_sections()


def test_bsv_states():
    bsv = builtin("BSV")
    mu, tau = bsv.states["mu"], bsv.states["tau"]
    assert tau.section((1,)) is tau                  # tau = (1, tau)a
    assert mu.section((1,)) is invert(mu)            # mu = (1, mu^-1)a
    assert tau.section((0,)).is_identity
    # tau is the adding machine: tau^2 = (tau, tau)
    t2 = compose(tau, tau)
    assert t2.root_perm == (0, 1)
    assert t2.children == (tau, tau)


def test_hash_consing_soundness(gg):
    # merging never changes act results: spot-check products vs letterwise action
    import random

    rng = random.Random(5)
    for _ in range(50):
        word = [rng.choice("abcd") for _ in range(rng.randint(1, 8))]
        state = intern_word(gg.shape, [(gg.states[x], 1) for x in word])
        v = tuple(rng.randrange(2) for _ in range(4))
        img = v
        for x in word:
            img = gg.states[x].act(img)
        assert state.act(v) == img


def _canonical_key(state):
    """The key the interning table holds a state under, rebuilt from the
    state: its shape and the breadth-first serialization of its sections."""
    seq, pos = [state], {state: 0}
    for s in seq:
        for c in s.children:
            if c not in pos:
                pos[c] = len(seq)
                seq.append(c)
    return state.shape, tuple((s.root_perm, tuple(pos[c] for c in s.children)) for s in seq)


# a group whose recursive atoms refer to an interned rooted state and to each other
REFERRING_FILE = ("group R\narity 2\nrooted s = (1 2)\nrecursive a = (s, a)\n"
                  "recursive b = (a, b') s\n")


def test_interned_states_are_closed_and_canonical():
    groups = [builtin(name) for name in BUILTINS] + [_gg_twin(), _d6_spinal(),
                                                     parse_group_file(REFERRING_FILE)]
    rng = random.Random(17)
    for g in groups:
        for _ in range(20):
            state = intern_word(g.shape, [(rng.choice(g.canonical_letters), 1)
                                          for _ in range(rng.randint(1, 6))])
            invert(state)
            compose(state, state)
    table = dict(automorphisms._INTERN)
    for key, state in table.items():
        assert len(state.children) == state.shape.branching(0)
        assert _canonical_key(state) == key
        for child in state.children:
            assert table[_canonical_key(child)] is child


def test_interning_an_atom_system_again_returns_the_same_states():
    first, second = parse_group_file(REFERRING_FILE), parse_group_file(REFERRING_FILE)
    assert all(first.states[x] is second.states[x] for x in "sab")
    gg, twin = builtin("Gg"), _gg_twin()
    assert all(twin.states[x] is gg.states[x] for x in "abcd")
    flip = gg.states["a"].root_perm
    again = build_recursive(gg.shape, {"a": flip}, {
        "b": ([[("a", 1)], [("c", 1)]], None),
        "c": ([[("a", 1)], [("d", 1)]], None),
        "d": ([[], [("b", 1)]], None),
    })
    assert all(again[x] is gg.states[x] for x in "abcd")


def test_intern_word_cap(monkeypatch):
    bsv = builtin("BSV")
    mu, tau = bsv.states["mu"], bsv.states["tau"]
    word = [(mu, 1), (tau, 3), (mu, -1), (tau, 5)]
    monkeypatch.setattr(automorphisms, "SECTION_CLOSURE_CAP", 2)
    with pytest.raises(ResourceBoundExceeded, match=r"^section closure exceeded 2 intermediate "
                       r"words \(automorphisms\.SECTION_CLOSURE_CAP\)"):
        intern_word(bsv.shape, word)
    # adding-machine powers stay small: log-many distinct section words
    monkeypatch.setattr(automorphisms, "SECTION_CLOSURE_CAP", 64)
    big = intern_word(bsv.shape, [(tau, 4096)])
    assert not big.is_identity
    assert big.act((1,) * 12) == (1,) * 12  # adding 2^12 fixes 12 digits
    assert tau.act((1,) * 12) == (0,) * 12  # adding 1 carries through them
    # every factor is checked, a state's as well as an atom's
    monkeypatch.setattr(automorphisms, "SECTION_WORD_CAP", 3)
    with pytest.raises(ResourceBoundExceeded, match=r"^section closure exceeded 3 letters in "
                       r"one word \(automorphisms\.SECTION_WORD_CAP\)"):
        intern_word(bsv.shape, [(mu, 1), (tau, 1)] * 4)
    # and the letters of all the words together
    monkeypatch.setattr(automorphisms, "SECTION_WORD_CAP", 1 << 20)
    monkeypatch.setattr(automorphisms, "SECTION_LETTERS_CAP", 3)
    with pytest.raises(ResourceBoundExceeded, match=r"^section closure exceeded 3 letters in "
                       r"its words \(automorphisms\.SECTION_LETTERS_CAP\)"):
        intern_word(bsv.shape, [(mu, 1), (tau, 1)] * 4)


def test_perm_cycles_order_and_format():
    assert list(perm_cycles((1, 0, 2, 4, 3))) == [[0, 1], [2], [3, 4]]
    assert list(perm_cycles((2, 0, 1))) == [[0, 2, 1]]
    assert list(perm_cycles(())) == []
    digest = hashlib.sha1()
    for m in range(1, 7):
        for p in itertools.permutations(range(m)):
            power, k = p, 1
            while power != identity_perm(m):
                power, k = perm_mul(power, p), k + 1
            assert perm_order(p) == k, p
            digest.update(f"{format_perm(p)} {perm_order(p)}\n".encode())
    # the lines printed before the three cycle walks became one
    assert digest.hexdigest() == "411639a7248d9054b4b7dd7a7554c9619cec1431"


def test_nonregular_shapes():
    shape = TreeShape(prefix=(2,), cycle=(3,))
    assert shape.branching(0) == 2 and shape.branching(5) == 3
    assert shape.shift() == TreeShape.regular(3)
    a = rooted_state(shape, (1, 0))
    assert compose(a, a).is_identity
    assert a.section((0,)) is identity_state(TreeShape.regular(3))
    assert shape.level_size(3) == 2 * 3 * 3


def test_vertex_roundtrip():
    assert parse_vertex("212") == (1, 0, 1)
    assert format_vertex((1, 0, 1)) == "212"
    assert parse_vertex("10.2.1") == (9, 1, 0)
    assert format_vertex((9, 1, 0)) == "10.2.1"
