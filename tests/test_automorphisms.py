import pytest

from branchgroups.automorphisms import (
    compose,
    compose_all,
    identity_state,
    intern_word,
    invert,
    portrait,
    rooted_state,
)
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
    root, sections = g.decompose()
    assert root == (1, 0)
    assert sections[0] is gg.state_of_word(gg.parse_word("cabab"))
    assert sections[1] is gg.state_of_word(gg.parse_word("ba"))
    # b = ((), (a, c))
    b = gg.states["b"]
    root_b, secs_b = b.decompose()
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


def test_portrait(gg):
    one = identity_state(gg.shape)
    p = portrait(one, depth=0)
    assert p.is_leaf and p.section is one
    g = gg.state_of_word(gg.parse_word("abacadacabadac"))
    p = portrait(g, depth=1)
    assert p.perm == (1, 0)
    assert p.children[0].section is gg.state_of_word(gg.parse_word("cabab"))
    assert p.children[1].section is gg.state_of_word(gg.parse_word("ba"))
    assert p.depth() == 1 and p.node_count() == 3
    # canonical profile: stop at generators and the identity
    S = set(gg.states.values()) | {one}
    canonical = portrait(g, profile=lambda lvl, s: s in S)
    assert canonical.depth() >= 1
    with pytest.raises(ValueError):
        portrait(g)
    with pytest.raises(ResourceBoundExceeded):
        portrait(g, depth=3, node_cap=2)


def test_reachable_sections(gg):
    one = identity_state(gg.shape)
    assert one.reachable_sections() == {one}
    b = gg.states["b"]
    expected = {gg.states[x] for x in "abcd"} | {one, b}
    assert b.reachable_sections() == {gg.states[x] for x in "bacd"} | {one}
    assert expected == b.reachable_sections() | {b}
    with pytest.raises(ResourceBoundExceeded):
        bsv = builtin("BSV")
        big = bsv.state_of_word(bsv.parse_word("tau^19"))
        big.reachable_sections(cap=3)


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
        state = compose_all([gg.states[x] for x in word])
        v = tuple(rng.randrange(2) for _ in range(4))
        img = v
        for x in word:
            img = gg.states[x].act(img)
        assert state.act(v) == img


def test_intern_word_cap():
    bsv = builtin("BSV")
    mu, tau = bsv.states["mu"], bsv.states["tau"]
    word = [(mu, 1), (tau, 3), (mu, -1), (tau, 5)]
    with pytest.raises(ResourceBoundExceeded):
        intern_word(bsv.shape, word, cap=2)
    # adding-machine powers stay small: log-many distinct section words
    big = intern_word(bsv.shape, [(tau, 4096)], cap=64)
    assert not big.is_identity
    assert big.act((1,) * 12) == (1,) * 12  # adding 2^12 fixes 12 digits
    assert tau.act((1,) * 12) == (0,) * 12  # adding 1 carries through them


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
