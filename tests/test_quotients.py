import hashlib
import inspect
import random
import sys
from fractions import Fraction
from math import log

import numpy as np
import pytest

from oracles import OneRowSequence, random_reduced_word

from branchgroups import quotients
from branchgroups.cli import parse_group_file
from branchgroups.errors import ResourceBoundExceeded
from branchgroups.groups import _make_builtin, builtin
from branchgroups.quotients import (
    SubgroupHandle,
    chain_from_generators,
    commutator_subgroup,
    derived_series_orders,
    format_order,
    full_aut_order,
    hausdorff_ratio,
    hausdorff_ratio_exact,
    level_quotient,
    lower_central_ranks,
    nilpotency_class,
    normal_closure,
    pointwise_stabilizer,
    rigid_level_stabilizer,
    rigid_stabilizer,
    suborbit_profile,
    _state_images,
    sylow_wreath_order,
)


@pytest.fixture(scope="module")
def gg():
    return builtin("Gg")


def test_level_quotient_basics(gg):
    q1 = level_quotient(gg, 1)
    assert q1.order() == 2
    q3 = level_quotient(builtin("FGg"), 3)
    assert q3.degree == 27
    ident = level_quotient(gg, 4).perm_of_word("1")
    assert np.array_equal(ident, np.arange(16))
    # the quotient is the depth-0 handle over its generator images
    assert isinstance(q1, SubgroupHandle) and q1.depth == 0
    assert q1.index() == 1 and q1.contains(q1.perm_of_word("a"))
    with pytest.raises(ValueError):
        level_quotient(gg, -1)


def test_orders_match_closed_forms(gg):
    for n in range(4, 7):
        assert level_quotient(gg, n).order() == 2 ** (5 * 2 ** (n - 3) + 2)
    fgg = builtin("FGg")
    for n in range(2, 5):
        assert level_quotient(fgg, n).order() == 3 ** (3 ** (n - 1) + 1)
    bgg = builtin("BGg")
    for n in range(2, 5):
        assert level_quotient(bgg, n).order() == 3 ** ((3**n + 2 * n + 3) // 4)
    assert level_quotient(bgg, 1).order() == 3 ** ((3 - 1) // 2)


_GG_FILE = ("group Gg\narity 2\nrooted a = (1 2)\nrecursive b = (a, c)\n"
            "recursive c = (a, d)\nrecursive d = (1, b)\n")


def test_level_quotient_is_cached_per_group_and_level(gg):
    assert level_quotient(gg, 4) is level_quotient(gg, 4)
    assert level_quotient(gg, 4) is not level_quotient(gg, 5)
    # a parsed group is a new group with its own cache, even for the same
    # generators as a built-in
    parsed = parse_group_file(_GG_FILE)
    q = level_quotient(parsed, 4)
    assert q is level_quotient(parsed, 4)
    assert q is not level_quotient(gg, 4)
    assert q.order() == level_quotient(gg, 4).order()


def _brute_force_order(q, cap=1 << 21):
    """Breadth-first closure of the generators; small degrees only."""
    identity = np.arange(q.degree, dtype=np.int32)
    seen = {identity.tobytes()}
    frontier = [identity]
    gens = q.gens
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                r = g[p]
                key = r.tobytes()
                if key not in seen:
                    if len(seen) >= cap:
                        raise ResourceBoundExceeded("closure cap hit")
                    seen.add(key)
                    nxt.append(r)
        frontier = nxt
    return len(seen)


def test_chain_vs_brute_force():
    # exact agreement for degree <= 27
    q = level_quotient(builtin("Gg"), 3)
    assert q.order() == _brute_force_order(q) == 128
    q = level_quotient(builtin("FGg"), 2)
    assert q.order() == _brute_force_order(q) == 81
    q = level_quotient(builtin("BGg"), 3)
    assert q.order() == _brute_force_order(q) == 3**9
    q = level_quotient(builtin("Dinf"), 3)
    assert q.order() == _brute_force_order(q)


def _chain_digest(chain):
    """sha1 of the base, each level's orbit points and the strong generators."""
    h = hashlib.sha1()
    for lv in chain.levels:
        h.update(np.int32(lv.point).tobytes())
        h.update(np.asarray(lv.points, dtype=np.int32).tobytes())
    for g in chain.strong_generators():
        h.update(g.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name, level, digest", [
    ("Gg", 6, "c0a2b061cb4e13f72caac33f69dea6bafc006096"),
    ("FGg", 4, "1c478ddcb6754f07db360d230e7d4c443b71a400"),
    ("Sg", 5, "e111777e18606af6df35ee5c5ebc58b365dc67f6"),
    ("G2", 4, "9f2e39a340d33036da8c4d3aef6379c8c08536aa"),
    ("GS6", 2, "378dd26d93b9fb92d1c5a038a677db11a934dc5b"),
], ids=["Gg@6", "FGg@4", "Sg@5", "G2@4", "GS6@2"])
def test_chain_is_pinned(name, level, digest):
    # the chain is deterministic: a change to its base, orbit order or
    # strong generators changes these digests.  G2@4 and GS6@2 are
    # quotients that take the chain path for their own answers.
    assert _chain_digest(level_quotient(builtin(name), level).chain()) == digest


def test_perm_of_word_images_a_merged_rooted_letter():
    # a a merges into the rooted letter (1 3)(2 4), which is no canonical letter
    group = parse_group_file("group X\narity 4\nrooted a = (1 2 3 4)\n"
                             "recursive b = (a, 1, 1, b)\n")
    letters = group.parse_word("a a b").letters
    merged = letters[0]
    assert merged.root_perm == (2, 3, 0, 1) and merged not in group.canonical_letters
    q = level_quotient(group, 3)
    perm = q.perm_of_word("a a b")
    assert np.array_equal(q.perm_of_word("a a"), q.perm_of_state(merged))
    expected = np.arange(q.degree)
    for letter in letters:  # right action: the first letter acts first
        expected = _state_images(letter, 3)[expected]
    assert np.array_equal(perm, expected)
    assert np.array_equal(perm, _state_images(group.state_of_word(letters), 3))


def test_order_monotone_under_projection(gg):
    prev = 1
    for n in range(1, 7):
        o = level_quotient(gg, n).order()
        assert o % prev == 0
        prev = o


def test_psi_consistency(gg):
    # |Stab_{G_n}(L_1)| * |root image| = |G_n|, with the stabilizer
    # generated independently by the conjugated directed generators
    for n in (2, 3, 4, 5):
        q = level_quotient(gg, n)
        gens = [q.perm_of_word(w)
                for w in ("b", "c", "d", "aba", "aca", "ada")]
        stab1 = SubgroupHandle(q, gens)
        root_image = 2  # level-1 action of Gg
        assert stab1.order() * root_image == q.order()


def test_full_aut_order(gg):
    assert full_aut_order(gg, 3) == 2**7
    fgg = builtin("FGg")
    assert full_aut_order(fgg, 2) == 6 * 6**3
    assert sylow_wreath_order(fgg, 2) == 3**4
    # the full Aut quotient's rigid level stabilizer is the level stabilizer:
    # at level n, Aut(T)_n has order m_1! (m_2!)^{m_1} ...
    assert full_aut_order(gg, 4) == 2**15


def test_hausdorff(gg):
    assert hausdorff_ratio_exact(gg, 1) == Fraction(1, 1)
    assert hausdorff_ratio_exact(gg, 7) == Fraction(82, 127)
    assert abs(hausdorff_ratio(gg, 7) - 82 / 127) < 1e-12
    with pytest.raises(ValueError):
        hausdorff_ratio(gg, 3, ambient="bogus")
    with pytest.raises(ValueError, match="level >= 1"):
        hausdorff_ratio_exact(gg, 0)
    with pytest.raises(ValueError, match="level >= 1"):
        hausdorff_ratio(gg, 0, ambient="full")


def test_hausdorff_exponents_of_the_prime_under_a_composite_branching():
    # G2 acts on the 4-ary tree: |G2_3| = 2^17 and |W_3| = 4^21 = 2^42
    g2 = builtin("G2")
    assert hausdorff_ratio_exact(g2, 3) == Fraction(17, 42)
    for n in range(1, 5):
        exact = hausdorff_ratio_exact(g2, n)
        assert hausdorff_ratio(g2, n) == float(exact)
        q = level_quotient(g2, n)
        assert abs(log(q.order()) / log(sylow_wreath_order(g2, n)) - exact) < 1e-12


def test_rigid_stabilizers(gg):
    # index of Rist(L_1) is 16 (the subgroup D) once the level resolves it
    for n in (4, 5):
        assert rigid_level_stabilizer(gg, n, 1).index() == 16
    # rigid stabilizer of a deepest-level vertex is trivial
    leaf = rigid_stabilizer(gg, 3, (0, 0, 0))
    assert leaf.order() == 1


def _rist_level_oracle(group, level, depth):
    """The product of the rigid stabilizers of all depth-`depth` vertices,
    one prescribed chain per vertex."""
    gens = []
    for v in group.shape.vertices(depth):
        gens.extend(rigid_stabilizer(group, level, v).gens)
    return SubgroupHandle(level_quotient(group, level), gens)


def _check_rist_level_against_oracle(group, level, depth):
    rist = rigid_level_stabilizer(group, level, depth)
    assert rist is rigid_level_stabilizer(group, level, depth)
    assert rist.order() == _rist_level_oracle(group, level, depth).order()
    # each generator moves the points of one depth-`depth` vertex only and
    # lies in that vertex's directly built rigid stabilizer
    verts = group.shape.vertices(depth)
    width = level_quotient(group, level).degree // len(verts)
    for g in rist.gens:
        blocks = set(np.nonzero(g != np.arange(len(g)))[0] // width)
        assert len(blocks) == 1
        assert rigid_stabilizer(group, level, verts[blocks.pop()]).contains(g)


@pytest.mark.parametrize("name", ["Gg", "G2", "FGg", "BGg", "GSg", "Sg", "BSV",
                                  "Dinf", "GS5", "GS7"])
def test_rigid_level_stabilizer_conjugates_one_chain_per_orbit(name):
    # levels up to 5 with at most 81 vertices: the oracle's chain per vertex
    # takes 2-3 s each at BGg@5 (243 vertices)
    g = builtin(name)
    for level in range(1, 6):
        if g.shape.level_size(level) > 81:
            break
        for depth in range(1, min(level, 2) + 1):
            _check_rist_level_against_oracle(g, level, depth)


def test_rigid_level_stabilizer_with_several_vertex_orbits():
    # a fixes the third vertex of level 1, so the level-1 vertices fall into
    # the orbits {1, 2} and {3}, and the level-2 vertices into more
    g = parse_group_file("group R\narity 3\nrooted a = (1 2)\n"
                         "recursive b = (a, 1, b)\nrecursive c = (1, b, a)\n")
    q = level_quotient(g, 1)
    assert _orbit_sizes(q.degree, q.gens) == [1, 2]
    for level in range(1, 5):
        for depth in range(1, min(level, 2) + 1):
            _check_rist_level_against_oracle(g, level, depth)


def test_rigid_stabilizer_rejects_impossible_vertices(gg):
    with pytest.raises(ValueError, match="out of range"):
        rigid_stabilizer(gg, 3, (2,))
    with pytest.raises(ValueError, match="below level 3"):
        rigid_stabilizer(gg, 3, (0, 0, 0, 0))
    assert rigid_stabilizer(gg, 3, ()).index() == 1


_ROOT_RIST_LEVELS = (("Gg", 5), ("FGg", 4), ("Sg", 5), ("BSV", 6), ("Dinf", 4))


@pytest.mark.parametrize("name, level", _ROOT_RIST_LEVELS,
                         ids=[f"{n}@{level}" for n, level in _ROOT_RIST_LEVELS])
def test_the_roots_rigid_stabilizer_reads_the_quotients_sequence(name, level, monkeypatch):
    # rist of the root is the whole quotient: it is read from the sequence
    # the order closed, and neither it nor the depth-0 rigid level
    # stabilizer closes another
    g = _make_builtin(name)
    q = level_quotient(g, level)
    q.order()
    closures = []
    closed_sequence = quotients.LevelQuotient.closed_sequence
    monkeypatch.setattr(quotients.LevelQuotient, "closed_sequence",
                        lambda q, *args: closures.append(1) or closed_sequence(q, *args))
    rist = rigid_stabilizer(g, level, ())
    assert rist.sequence() is q.sequence() and rist.order() == q.order()
    assert rigid_level_stabilizer(g, level, 0).order() == q.order()
    assert closures == []


@pytest.mark.parametrize("depth", [-1, -2])
def test_rigid_level_stabilizer_rejects_a_negative_depth(gg, depth):
    with pytest.raises(ValueError, match=f"depth must be non-negative, got {depth}"):
        rigid_level_stabilizer(gg, 2, depth)
    assert ("rigid level stabilizer", depth) not in level_quotient(gg, 2)._kept


def _random_products(degree, gens, rng, count=8, length=12):
    """Seeded products of the generators (the identity when there are none)."""
    out = []
    for _ in range(count):
        p = np.arange(degree, dtype=np.int32)
        for i in (rng.integers(len(gens), size=length) if gens else ()):
            p = gens[i][p]
        out.append(p)
    return out


def _perms_fixing(degree, points, rng, count=8):
    """Seeded random permutations fixing the points, mostly outside G_n."""
    free = np.array(sorted(set(range(degree)) - set(points)), dtype=np.int32)
    out = []
    for _ in range(count):
        p = np.arange(degree, dtype=np.int32)
        p[free] = rng.permutation(free)
        out.append(p)
    return out


@pytest.mark.parametrize("name, level", [("Gg", 5), ("FGg", 3), ("Sg", 5)])
def test_pointwise_stabilizer_matches_rebuilt_chain(name, level):
    # the generators and order are read from the tail of the chain based
    # at the points; a chain rebuilt from the generators is the oracle
    g = builtin(name)
    q = level_quotient(g, level)
    rng = np.random.default_rng(13)
    outside_vertex = [i for i, v in enumerate(g.shape.vertices(level)) if v[0] != 0]
    nonmembers = 0
    for points in ([q.degree - 1], outside_vertex, list(range(0, q.degree, 3))):
        stab = pointwise_stabilizer(q, points)
        assert all(np.array_equal(h[points], points) for h in stab.gens)
        oracle = chain_from_generators(q.degree, stab.gens)
        assert stab.order() == oracle.order()
        members = _random_products(q.degree, stab.gens, rng)
        others = (_random_products(q.degree, q.gens, rng)
                  + _perms_fixing(q.degree, points, rng))
        assert all(stab.contains(p) for p in members)
        for p in others:
            assert stab.contains(p) == oracle.contains(p)
            nonmembers += not oracle.contains(p)
    assert nonmembers >= 24


# Outputs of the quotient analysis bundle on the benchmark's eight (group,
# level) pairs and three more shapes.  Floats are kept to 12 decimals: the
# sylow ratio is the exact ratio rounded once, which may differ in the last
# bit from log|G_n| / log|W_n|.  G2's exact ratio is checked on its own.
_BUNDLE_PAIRS = (("Gg", 5), ("Gg", 6), ("Gg", 7), ("FGg", 3), ("FGg", 4),
                 ("BGg", 4), ("Sg", 5), ("Sg", 6), ("G2", 3), ("GSg", 3),
                 ("GS5", 2))


def _or_error(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _quotient_bundle(name, level):
    g = builtin(name)
    q = level_quotient(g, level)
    derived = derived_series_orders(q, 3)
    rist_level = rigid_level_stabilizer(g, level, 1)
    rist_vertex = rigid_stabilizer(g, level, (0,))
    out = [name, level, q.order(), format_order(q.order()), derived,
           [format_order(o) for o in derived],
           _or_error(lower_central_ranks, g, level, 6),
           suborbit_profile(g, level),
           rist_level.order(), rist_level.index(),
           rist_vertex.order(), rist_vertex.index(),
           f"{hausdorff_ratio(g, level):.12f}",
           f"{hausdorff_ratio(g, level, 'full'):.12f}",
           nilpotency_class(g, level)]
    if name != "G2":
        out.append(str(hausdorff_ratio_exact(g, level)))
    return out


def test_quotient_bundle_is_pinned():
    # sha1 recorded before the subgroup layer moved to one handle type.  G2@3's
    # lower central ranks were an error then (logarithms to the branching
    # index 4, not to its prime 2): they are checked here and hashed as the
    # error text of that time, so every other entry is still pinned
    bundle = [_quotient_bundle(name, level) for name, level in _BUNDLE_PAIRS]
    assert bundle[8][6] == [4, 2, 2, 2, 3, 2]
    bundle[8][6] = "ValueError: gamma_5/gamma_6 is not a 4-group"
    digest = hashlib.sha1(repr(bundle).encode()).hexdigest()
    assert digest == "c9de55aadcafd5e75b381ff5e2f5ccef08899ed6"


def _lower_central_orders(q):
    """Orders of gamma_1 = G_n, gamma_2, ... down to the trivial term, by a
    loop of fresh normal closures."""
    h, orders = q, [q.order()]
    while orders[-1] > 1:
        h = commutator_subgroup(q, h.gens, q.gens)
        orders.append(h.order())
    return orders


def test_g2_lower_central_ranks_in_the_root_prime():
    # G2 acts on the 4-ary tree and every level quotient is a 2-group, so
    # the ranks are exponents of 2, not of 4
    g2 = builtin("G2")
    for n in range(1, 5):
        orders = _lower_central_orders(level_quotient(g2, n))
        exponents = [(a // b).bit_length() - 1 for a, b in zip(orders, orders[1:])]
        assert all(a == b << e for a, b, e in zip(orders, orders[1:], exponents))
        kmax = len(exponents) + 2
        assert lower_central_ranks(g2, n, kmax) == exponents + [0, 0]


def test_series_are_built_once_per_quotient(monkeypatch):
    # one lower central and one derived series per quotient: G' is the
    # gamma_2 handle, and a second round of calls builds nothing
    from branchgroups import quotients

    calls = []
    build = quotients.commutator_subgroup

    def counted(q, h1_gens, h2_gens):
        calls.append(h1_gens is q.gens)
        return build(q, h1_gens, h2_gens)

    monkeypatch.setattr(quotients, "commutator_subgroup", counted)
    g = parse_group_file(_GG_FILE)
    q = level_quotient(g, 5)
    answers = (lower_central_ranks(g, 5, 6), derived_series_orders(q, 3),
               nilpotency_class(g, 5))
    assert calls.count(True) == 1
    assert quotients._series(q, 1, True)[1] is quotients._series(q, 1, False)[1]
    built = len(calls)
    assert (lower_central_ranks(g, 5, 6), derived_series_orders(q, 3),
            nilpotency_class(g, 5)) == answers
    assert len(calls) == built
    # each answer equals that of a freshly built group
    fresh = [parse_group_file(_GG_FILE) for _ in range(3)]
    assert answers == (lower_central_ranks(fresh[0], 5, 6),
                       derived_series_orders(level_quotient(fresh[1], 5), 3),
                       nilpotency_class(fresh[2], 5))
    assert answers[1] == [2**22, 2**19, 2**15, 2**8]


@pytest.mark.parametrize("kmax", [0, 1, 6])
def test_lower_central_ranks_close_no_unread_term(kmax, monkeypatch):
    # the ranks up to gamma_k / gamma_{k+1} close gamma_2, ..., gamma_{k+1}
    # and no further term; k = 0 closes nothing, not even the quotient's
    commutators, closures = [], []
    build = quotients.commutator_subgroup
    closed_sequence = quotients.LevelQuotient.closed_sequence
    monkeypatch.setattr(quotients, "commutator_subgroup",
                        lambda *args: commutators.append(1) or build(*args))
    monkeypatch.setattr(quotients.LevelQuotient, "closed_sequence",
                        lambda q, *args: closures.append(1) or closed_sequence(q, *args))
    assert lower_central_ranks(_make_builtin("Gg"), 5, kmax) == [3, 2, 2, 1, 2, 2][:kmax]
    assert len(commutators) == kmax
    assert len(closures) == (kmax + 1 if kmax else 0)


def test_rozhkov_ranks_and_stability(gg):
    assert lower_central_ranks(gg, 6, 9) == [3, 2, 2, 1, 2, 2, 1, 1, 2]
    assert lower_central_ranks(gg, 7, 9) == [3, 2, 2, 1, 2, 2, 1, 1, 2]
    # abelianization rank 3
    assert lower_central_ranks(gg, 4, 1) == [3]


def test_rozhkov_formula_closed_form(gg):
    # rank gamma_n / gamma_{n+1}: 3 at n=1, 2 for n=2^m+1+r with r<2^{m-1},
    # 1 for larger r
    def rozhkov(n):
        if n == 1:
            return 3
        m = 1
        while 2 ** (m + 1) + 1 <= n:
            m += 1
        r = n - 2**m - 1
        return 2 if r < 2 ** (m - 1) else 1

    computed = lower_central_ranks(gg, 6, 9)
    assert computed == [rozhkov(k) for k in range(1, 10)]


# Oracles for the level horizons of acceptance criterion 5, which asserts
# the same values against branchgroups.  They build the level-n action of
# Gg straight from the recursion a = swap, b = (a, c), c = (a, d),
# d = (1, b), and call nothing from branchgroups.

_GG_RECURSION = {"b": ("a", "c"), "c": ("a", "d"), "d": (None, "b")}


def _gg_act(gen, vertex):
    if not vertex:
        return vertex
    if gen == "a":
        return (1 - vertex[0],) + vertex[1:]
    section = _GG_RECURSION[gen][vertex[0]]
    rest = vertex[1:] if section is None else _gg_act(section, vertex[1:])
    return (vertex[0],) + rest


def _gg_level_perms(n):
    """Permutations of a, b, c, d on the 2^n level-n vertices, as lists."""
    verts = [tuple((i >> (n - 1 - k)) & 1 for k in range(n))
             for i in range(2**n)]
    index = {v: i for i, v in enumerate(verts)}
    return [[index[_gg_act(g, v)] for v in verts] for g in "abcd"]


def test_gg_level5_ranks_sympy_oracle():
    # the level-5 quotient truncates Rozhkov's list at k = 9 (rank 1, not 2)
    combinatorics = pytest.importorskip("sympy.combinatorics")
    group = combinatorics.PermutationGroup(
        [combinatorics.Permutation(p) for p in _gg_level_perms(5)])
    series = group.lower_central_series()
    ranks = [(series[k].order() // series[k + 1].order()).bit_length() - 1
             for k in range(9)]
    assert ranks == [3, 2, 2, 1, 2, 2, 1, 1, 1]


def test_gg_level3_rigid_index_brute_force():
    # enumerate G_3 and both rigid vertex stabilizers of level 1: their
    # product is the whole level-1 stabilizer, of index 2
    gens = [tuple(p) for p in _gg_level_perms(3)]
    elements = {tuple(range(8))}
    frontier = list(elements)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[i] for i in x)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    assert len(elements) == 128

    def rist(half):
        outside = [i for i in range(8) if i >> 2 != half]
        return [x for x in elements if all(x[i] == i for i in outside)]

    product = {tuple(y[i] for i in x) for x in rist(0) for y in rist(1)}
    assert len(elements) // len(product) == 2


def test_nilpotency_class(gg):
    for n in (3, 4, 5):
        assert nilpotency_class(gg, n) == 2 ** (n - 1)


def test_derived_series(gg):
    q5 = level_quotient(gg, 5)
    orders = derived_series_orders(q5, 4)
    assert orders[0] // orders[1] == 8  # [G : G'] = 8
    # Gg^(3) = rist(L_3): both sides computed independently at level 5
    rist3 = rigid_level_stabilizer(gg, 5, 3)
    assert orders[3] == rist3.order()
    # derived series of an abelian quotient terminates immediately
    q1 = level_quotient(gg, 1)
    assert derived_series_orders(q1, 2) == [2, 1]


def test_k_subgroup(gg):
    # K = <(ab)^2>^Gg has index 16 in every deep enough quotient
    for n in (3, 4, 5):
        q = level_quotient(gg, n)
        k = normal_closure(q, [q.perm_of_word("(ab)^2")])
        assert k.index() == 16
    # K' = K x K at one level deeper: index of [K, K] in G_5
    q = level_quotient(gg, 5)
    k = normal_closure(q, [q.perm_of_word("(ab)^2")])
    kprime = commutator_subgroup(q, k.gens, k.gens)
    assert k.order() % kprime.order() == 0


def test_suborbits(gg):
    assert suborbit_profile(gg, 1) == [1, 1]
    for n in range(1, 7):
        prof = suborbit_profile(gg, n)
        assert len(prof) == n + 1
        assert sum(prof) == 2**n
        assert prof == sorted([1, 1] + [2**i for i in range(1, n)])
    fgg = builtin("FGg")
    for n in range(1, 5):
        prof = suborbit_profile(fgg, n)
        assert len(prof) == 2 * n + 1
        assert sum(prof) == 3**n


def _orbit_sizes(degree, gens):
    """Sorted orbit sizes of <gens> on range(degree), by breadth-first search."""
    seen, sizes = set(), []
    for start in range(degree):
        if start not in seen:
            orbit, frontier = {start}, {start}
            while frontier:
                frontier = {int(g[x]) for x in frontier for g in gens} - orbit
                orbit |= frontier
            seen |= orbit
            sizes.append(len(orbit))
    return sorted(sizes)


@pytest.mark.parametrize("name, level", [("Gg", 4), ("FGg", 3), ("G2", 2)])
def test_suborbits_match_pointwise_stabilizer(name, level, monkeypatch):
    # the profile comes from Schreier generators of the basepoint's
    # stabilizer and is kept per basepoint; a chain based at the basepoint
    # gives the same orbit sizes
    g = _make_builtin(name)
    q = level_quotient(g, level)
    built = []
    orbit_sizes = quotients._stabilizer_orbit_sizes
    monkeypatch.setattr(quotients, "_stabilizer_orbit_sizes",
                        lambda q, pt: built.append(pt) or orbit_sizes(q, pt))
    for pt, vertex in enumerate(g.shape.vertices(level)):
        stab = pointwise_stabilizer(q, [pt])
        assert suborbit_profile(g, level, vertex) == _orbit_sizes(q.degree, stab.gens)
        assert suborbit_profile(g, level, vertex) == suborbit_profile(g, level, vertex)
    assert built == list(range(q.degree))
    with pytest.raises(ValueError, match="not on level"):
        suborbit_profile(g, level, (0,) * (level + 1))


def test_suborbits_join_across_generator_blocks(monkeypatch):
    # with blocks of three Schreier generator rows, most orbits are
    # joined by generators of different blocks
    monkeypatch.setattr(quotients, "_ORBIT_ROWS", 3)
    for name, level in (("Gg", 5), ("FGg", 3), ("G2", 3)):
        q = level_quotient(builtin(name), level)
        for pt in (0, q.degree // 3, q.degree - 1):
            expected = _orbit_sizes(q.degree, pointwise_stabilizer(q, [pt]).gens)
            assert list(quotients._stabilizer_orbit_sizes(q, pt)) == expected


def test_full_aut_quotient_rigid_equals_level_stabilizer():
    # finitary flips x_i at the leftmost level-i vertex generate the full
    # automorphism quotient of the binary tree; there the rigid level
    # stabilizer equals the level stabilizer (index 2 at depth 1)
    from branchgroups.automorphisms import perm_from_cycles
    from branchgroups.groups import explicit_group
    from branchgroups.shapes import TreeShape

    flip = perm_from_cycles(2, [[0, 1]])
    full = explicit_group(
        "W4", TreeShape.regular(2),
        {"x0": flip},
        {
            "x1": ([[("x0", 1)], []], None),
            "x2": ([[("x1", 1)], []], None),
            "x3": ([[("x2", 1)], []], None),
        },
    )
    q = level_quotient(full, 4)
    assert q.order() == full_aut_order(full, 4) == 2**15
    rist = rigid_level_stabilizer(full, 4, 1)
    assert rist.index() == 2  # rigid = level stabilizer in the full group


def test_format_order():
    assert format_order(2**12) == "2^12"
    assert format_order(81) == "3^4"
    assert format_order(1) == "1"
    assert format_order(2) == "2"
    assert format_order(12) == "12"


# -- layered sequences against stabilizer chains ---------------------------

# (group, top level): every level up to the top runs; each chain oracle
# below takes under about 1 s at its top level
_LAYERED_LEVELS = (("Gg", 6), ("Sg", 5), ("Dinf", 8), ("BSV", 6), ("FGg", 3),
                   ("BGg", 3), ("GSg", 3), ("GS5", 2), ("GS7", 2))


def _chain_series_orders(q, derived, terms):
    """Orders of the first terms of a series, each term a chain-built
    normal closure of the commutators of the previous term's generators."""
    gens, orders = q.gens, [chain_from_generators(q.degree, q.gens).order()]
    while orders[-1] > 1 and len(orders) < terms:
        other = gens if derived else q.gens
        seeds = [y[x[np.argsort(y)[np.argsort(x)]]] for x in gens for y in other]
        sub = quotients._chain_closure(q, seeds)
        gens = sub.gens
        orders.append(sub.order())
    return orders + [1] * (terms - len(orders))


def _series_orders(q, derived, terms):
    orders = [h.order() for h in quotients._series(q, terms - 1, derived)]
    return orders + [1] * (terms - len(orders))


@pytest.mark.parametrize("name, top", _LAYERED_LEVELS, ids=[n for n, _ in _LAYERED_LEVELS])
def test_layered_sequences_match_stabilizer_chains(name, top):
    # a fresh group (with its own caches) for each level, so every answer
    # comes from the layered path and no chain of the quotient is built
    p = builtin(name).shape.branching(0)
    for level in range(1, top + 1):
        g = _make_builtin(name)
        q = level_quotient(g, level)
        assert q.layered_prime() == p
        assert q.order() == chain_from_generators(q.degree, q.gens).order()
        for derived in (True, False):
            assert _series_orders(q, derived, 4) == _chain_series_orders(q, derived, 4)
        for depth in range(1, min(level, 2) + 1):
            for vertex in g.shape.vertices(depth):
                outside = [i for i, v in enumerate(g.shape.vertices(level))
                           if v[:depth] != vertex]
                assert (rigid_stabilizer(g, level, vertex).order()
                        == pointwise_stabilizer(q, outside).order())
        for pt in (0, q.degree - 1):
            vertex = g.shape.vertices(level)[pt]
            stab = pointwise_stabilizer(q, [pt])
            assert suborbit_profile(g, level, vertex) == _orbit_sizes(q.degree, stab.gens)
        assert q._chain is None


def _handles(g, level, rng):
    """Every kind of subgroup handle of the level quotient: the quotient,
    two normal closures, lower central and derived terms, the rigid
    stabilizers of the vertices of length 0-2 and the rigid level
    stabilizers of depth 1-2."""
    q = level_quotient(g, level)
    handles = [q] + [normal_closure(q, [q.perm_of_word(random_reduced_word(g, 6, rng))])
                     for _ in range(2)]
    handles += quotients._series(q, 4, derived=False)[1:]
    handles += quotients._series(q, 3, derived=True)[1:]
    for depth in range(min(level, 2) + 1):
        handles += [rigid_stabilizer(g, level, v) for v in g.shape.vertices(depth)]
    handles += [rigid_level_stabilizer(g, level, d) for d in range(1, min(level, 2) + 1)]
    return q, handles


def _membership_probes(g, q, h, rng):
    """Products of the handle's generators, images of random words and
    arbitrary permutations."""
    words = [q.perm_of_word(random_reduced_word(g, rng.randint(1, 12), rng))
             for _ in range(6)]
    nprng = np.random.default_rng(rng.randrange(1 << 30))
    return (_random_products(q.degree, h.gens, nprng, count=6) + words
            + [nprng.permutation(q.degree).astype(np.int32) for _ in range(3)])


_MEMBERSHIP_LEVELS = (("Gg", 5), ("Gg", 6), ("FGg", 4), ("BGg", 4), ("Sg", 5),
                      ("GSg", 4), ("G2", 3), ("GS6", 2))


@pytest.mark.parametrize("name, level", _MEMBERSHIP_LEVELS,
                         ids=[f"{n}@{level}" for n, level in _MEMBERSHIP_LEVELS])
def test_membership_matches_a_chain_of_the_generators(name, level):
    # p-group quotients sift through layered sequences, the others through
    # a chain; a chain built from the handle's generators is the oracle
    rng = random.Random(67)
    g = _make_builtin(name)
    q, handles = _handles(g, level, rng)
    outcomes = set()
    for h in handles:
        oracle = chain_from_generators(q.degree, h.gens)
        assert h.order() == oracle.order()
        for perm in _membership_probes(g, q, h, rng):
            assert h.contains(perm) == oracle.contains(perm)
            outcomes.add(oracle.contains(perm))
    assert outcomes == {True, False}


@pytest.mark.parametrize("name, level", [("Gg", 6), ("FGg", 4), ("Sg", 5)])
def test_closures_that_defer_rows_match_the_default(name, level, monkeypatch):
    # with 4 waiting perms per layer, `LayeredSequence._sift_batch` keeps
    # breaking off a batch for the deeper queue; every answer must stay the
    # same
    def answers(g):
        q = level_quotient(g, level)
        return (q.order(), lower_central_ranks(g, level, 6), derived_series_orders(q, 3),
                rigid_stabilizer(g, level, (0,)).order(),
                rigid_level_stabilizer(g, level, 2).order())

    expected = answers(_make_builtin(name))
    monkeypatch.setattr(quotients, "_PENDING_ROWS", 4)
    deferred = []
    close_code = quotients.LayeredSequence._sift_batch.__code__
    wait_line = next(n for n, line in enumerate(inspect.getsourcelines(
        quotients.LayeredSequence._sift_batch)[0], close_code.co_firstlineno)
        if "the rest waits" in line)

    def count_waits(frame, event, arg):
        if event == "line" and frame.f_lineno == wait_line:
            deferred.append(wait_line)
        return count_waits

    def trace(frame, event, arg):
        return count_waits if frame.f_code is close_code else None

    g = _make_builtin(name)
    sys.settrace(trace)
    try:
        assert answers(g) == expected
    finally:
        sys.settrace(None)
    assert deferred
    rng = random.Random(71)
    q, handles = _handles(g, level, rng)
    for h in handles:
        oracle = chain_from_generators(q.degree, h.gens)
        for perm in _membership_probes(g, q, h, rng):
            assert h.contains(perm) == oracle.contains(perm)


def _check_closed_sequence(seq):
    """Each layer keeps r echelon rows, an r x r U^-1 and one int32 stack of
    shape (p, r, degree): line 0 the elements h, which `elements[i]` shares,
    and line a the perms h^-a, none the identity."""
    degree = len(seq.identity)
    for i, (leaves, _) in enumerate(seq.layers):
        r = len(seq.pivots[i])
        stack = seq._stacks[i]
        assert stack.dtype == np.int32 and stack.shape == (seq.p, r, degree)
        assert stack.flags.c_contiguous and stack.base is None
        assert seq.elements[i].shape == (r, degree)
        if not r:
            assert seq._dense[i] is None
            continue
        assert np.shares_memory(seq.elements[i], stack)
        assert np.array_equal(seq.elements[i], stack[0])
        rows, u_inv = seq._dense[i]
        assert rows.shape == (r, len(leaves)) and u_inv.shape == (r, r)
        assert rows.base is None and u_inv.base is None
        assert not (stack[1:] == seq.identity).all(axis=2).any()
        for j, h in enumerate(seq.elements[i]):
            product = h
            for inverse in stack[1:, j]:
                assert np.array_equal(product[inverse], seq.identity)
                product = h[product]


@pytest.mark.parametrize("name, level", [("Gg", 6), ("FGg", 4), ("Sg", 5)])
def test_closed_sequences_keep_each_datum_once(name, level):
    # the sequences behind the order, a normal closure and a rigid stabilizer
    g = _make_builtin(name)
    q = level_quotient(g, level)
    q.order()
    handles = [q, normal_closure(q, [q.perm_of_word(random_reduced_word(g, 6, random.Random(5)))]),
               rigid_stabilizer(g, level, (0,))]
    for h in handles:
        _check_closed_sequence(h.sequence())
    assert all(h.sequence().dimension() for h in handles)


def _same_sequence(seq, oracle):
    """Equal pivots and, bit for bit, equal elements, inverse powers,
    echelon rows and U^-1 in every layer."""
    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    for i in range(len(seq.layers)):
        assert seq.pivots[i] == oracle.pivots[i]
        assert len(seq.elements[i]) == len(oracle.elements[i])
        assert all(map(same, seq.elements[i], oracle.elements[i]))
        assert all(map(same, seq._stacks[i][1:].swapaxes(0, 1), oracle._inverse_powers[i]))
        if oracle._dense[i] is None:
            assert seq._dense[i] is None
        else:
            assert all(map(same, seq._dense[i], oracle._dense[i]))


_ORACLE_LEVELS = (("Gg", 5), ("Gg", 6), ("Gg", 7), ("FGg", 3), ("FGg", 4), ("BGg", 4),
                  ("Sg", 5), ("Sg", 6), ("GSg", 4), ("Gg", 9), ("FGg", 6))
# only the order: its last layers hold 160 and 162 rows, so a stack grows
# past the 128 rows whose offsets the uint8 coefficients could reach
_ORDER_ONLY = (("Gg", 9), ("FGg", 6))


@pytest.mark.parametrize("pending", [quotients._PENDING_ROWS, 4], ids=["default", "pending-4"])
@pytest.mark.parametrize("name, level", _ORACLE_LEVELS,
                         ids=[f"{n}@{level}" for n, level in _ORACLE_LEVELS])
def test_closed_sequences_match_the_one_row_oracle(name, level, pending, monkeypatch):
    # every sequence the library closes (the order, normal closures of
    # random words, commutator seeds of both series, rigid stabilizers over
    # outside-then-inside layers) is closed again by the one-row loop
    monkeypatch.setattr(quotients, "_PENDING_ROWS", pending)
    closed_sequence = quotients.LevelQuotient.closed_sequence
    layer_orders = []

    def both(q, seeds, conj, layers=None):
        seeds = list(seeds)  # perms or 2-D blocks of perms
        seq = closed_sequence(q, seeds, conj, layers)
        rows = [g for s in seeds for g in np.reshape(s, (-1, q.degree))]
        _same_sequence(seq, OneRowSequence(seq.p, q.degree, seq.layers, rows, conj))
        layer_orders.append(layers is None)
        return seq

    monkeypatch.setattr(quotients.LevelQuotient, "closed_sequence", both)
    rng = random.Random(83)
    g = _make_builtin(name)
    q = level_quotient(g, level)
    q.order()
    if (name, level) in _ORDER_ONLY:
        assert layer_orders == [True]
        return
    for _ in range(3):
        normal_closure(q, [q.perm_of_word(random_reduced_word(g, rng.randint(2, 12), rng))
                           for _ in range(2)])
    quotients._series(q, 4, derived=False)
    quotients._series(q, 3, derived=True)
    rigid_stabilizer(g, level, (0,))
    rigid_stabilizer(g, level, (1, 0))
    assert set(layer_orders) == {True, False} and len(layer_orders) > 8


def test_quotients_bundle_sequences_are_pinned(monkeypatch):
    # sha1 over every sequence the benchmark's quotient analyses close on
    # fresh groups: per layer the pivots and the bytes of the elements,
    # inverse powers, echelon rows and U^-1 (the ranks up to k = 6 close
    # gamma_2, ..., gamma_7 and no further term)
    closed_sequence = quotients.LevelQuotient.closed_sequence
    closed = []
    monkeypatch.setattr(quotients.LevelQuotient, "closed_sequence",
                        lambda q, *args: closed.append(closed_sequence(q, *args)) or closed[-1])
    for name, level in (("Gg", 5), ("Gg", 6), ("Gg", 7), ("FGg", 3), ("FGg", 4),
                        ("BGg", 4), ("Sg", 5), ("Sg", 6)):
        g = _make_builtin(name)
        q = level_quotient(g, level)
        q.order()
        hausdorff_ratio_exact(g, level)
        derived_series_orders(q, 3)
        lower_central_ranks(g, level, 6)
        suborbit_profile(g, level)
        rigid_level_stabilizer(g, level, 1).order()
    digest = hashlib.sha1()
    for seq in closed:
        for i in range(len(seq.layers)):
            digest.update(repr(seq.pivots[i]).encode())
            for lines in seq._stacks[i].swapaxes(0, 1):
                digest.update(lines[0].tobytes() + lines[1:].tobytes())
            for dense in seq._dense[i] or ():
                digest.update(dense.tobytes())
    assert (len(closed), digest.hexdigest()) == (
        80, "9f6ec70219156da7244f2b3a2ffecbb50d99adad")


@pytest.mark.parametrize("name", ["G2", "GS4"])
def test_composite_branching_takes_the_chain_path(name):
    g = _make_builtin(name)
    q = level_quotient(g, 2)
    assert q.layered_prime() is None
    assert q.order() == _brute_force_order(q)
    assert q._chain is not None  # the order came from the chain
    assert rigid_level_stabilizer(g, 2, 1).order() == _rist_level_oracle(g, 2, 1).order()


def test_layered_prime_needs_rotations_and_one_prime():
    # a transposition of two of three children is no rotation; a regular
    # 3-ary shape with rotations only qualifies
    r = parse_group_file("group R\narity 3\nrooted a = (1 2)\n"
                         "recursive b = (a, 1, b)\n")
    assert level_quotient(r, 2).layered_prime() is None
    t = parse_group_file("group T\narity 3\nrooted a = (1 2 3)\n"
                         "recursive b = (a, 1, b)\n")
    assert level_quotient(t, 3).layered_prime() == 3
    assert level_quotient(t, 3).order() == chain_from_generators(
        27, level_quotient(t, 3).gens).order()


@pytest.fixture
def chain_builds(monkeypatch):
    """Every StabilizerChain constructed while the test runs."""
    built = []
    real = quotients.StabilizerChain.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(quotients.StabilizerChain, "__init__", spy)
    return built


_BUNDLE_LEVELS = (("Gg", 5), ("Sg", 4), ("Dinf", 5), ("BSV", 4), ("FGg", 3),
                  ("BGg", 3), ("GSg", 3), ("GS5", 2))


@pytest.mark.parametrize("name, level", _BUNDLE_LEVELS, ids=[n for n, _ in _BUNDLE_LEVELS])
def test_p_group_quotient_bundle_builds_no_chain(name, level, chain_builds):
    # prime branching: every analysis runs on layered sequences
    g = _make_builtin(name)
    q = level_quotient(g, level)
    assert q.order() > 1
    derived_series_orders(q, 3)
    lower_central_ranks(g, level, 4)
    nilpotency_class(g, level)
    suborbit_profile(g, level)
    rigid_stabilizer(g, level, (0,)).order()
    rigid_level_stabilizer(g, level, 1).order()
    hausdorff_ratio_exact(g, level)
    hausdorff_ratio(g, level, "full")
    # membership sifts through the handles' layered sequences
    rng = random.Random(73)
    q, handles = _handles(g, level, rng)
    for h in handles:
        assert all(h.contains(p) for p in h.gens)
        for perm in _membership_probes(g, q, h, rng):
            h.contains(perm)
    assert chain_builds == []


def test_deep_membership_builds_no_chain(chain_builds):
    # K = <(ab)^2>^G at level 9 and a rigid vertex stabilizer there: a chain
    # of either takes seconds to build, the sift a millisecond
    g = _make_builtin("Gg")
    q = level_quotient(g, 9)
    k = normal_closure(q, [q.perm_of_word("(ab)^2")])
    assert k.contains(q.perm_of_word("abab")) and not k.contains(q.perm_of_word("a"))
    rist = rigid_stabilizer(g, 9, (0,))
    assert all(rist.contains(h) for h in rist.gens)
    assert not rist.contains(q.perm_of_word("b"))
    assert chain_builds == [] and q._chain is None


def test_chain_closure_keeps_the_chain_it_grew(chain_builds):
    # G2 takes the chain path: the closure's membership reads the chain the
    # closure grew instead of building a second one from its generators
    g = _make_builtin("G2")
    q = level_quotient(g, 3)
    k = normal_closure(q, [q.perm_of_word("ab")])
    assert len(chain_builds) == 1 and k._chain is chain_builds[0]
    probes = [q.perm_of_word(w) for w in ("ab", "abab", "a", "b", "ba", "abba")]
    answers = [k.contains(p) for p in probes]
    assert len(chain_builds) == 1
    oracle = chain_from_generators(q.degree, k.gens)
    assert answers == [oracle.contains(p) for p in probes]
    assert any(answers) and not all(answers)


def test_conjugacy_stream_builds_no_chain(chain_builds, monkeypatch):
    # a fresh Gg, so no chain an earlier test built on its quotients is reused
    from branchgroups import conjugacy, groups

    monkeypatch.setattr(groups, "_BUILTIN_CACHE", {})
    ctx = conjugacy.GgConjugacy()
    gg = ctx.group
    rng = random.Random(59)
    for _ in range(40):
        g = gg.word(random_reduced_word(gg, rng.randint(1, 10), rng))
        f = random_reduced_word(gg, rng.randint(0, 6), rng)
        ctx.q_set(g, gg.word(gg.inverse_word(f) + g.letters + f))
        ctx.q_set(g, gg.word(random_reduced_word(gg, rng.randint(1, 10), rng)))
    assert len(ctx.values) > 100
    assert chain_builds == []
    assert ctx.quotient._chain is None
