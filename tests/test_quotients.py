import hashlib
from fractions import Fraction
from math import log

import numpy as np
import pytest

from branchgroups.cli import parse_group_file
from branchgroups.errors import ResourceBoundExceeded
from branchgroups.groups import builtin
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
    gens = list(q.gen_perms.values())
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
], ids=["Gg@6", "FGg@4", "Sg@5"])
def test_chain_is_pinned(name, level, digest):
    # the chain is deterministic: a change to its base, orbit order or
    # strong generators changes these digests
    assert _chain_digest(level_quotient(builtin(name), level).chain()) == digest


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


def test_chain_extended_after_dropping_seen_is_unchanged():
    # the dedup keys only skip a second sift during a build: a chain whose
    # keys were dropped and which is then extended matches one that kept them
    q = level_quotient(builtin("Gg"), 5)
    # finished chains, the quotient's and a normal closure's, hold no keys
    closure = normal_closure(q, [q.perm_of_word("(ab)^2")])
    assert not any(lv.seen for h in (q, closure) for lv in h.chain().levels)
    gens = [q.perm_of_word(w) for w in ("b", "c", "aba", "aca")]
    extra = q.perm_of_word("ad")
    kept = chain_from_generators(q.degree, [])
    dropped = chain_from_generators(q.degree, [])
    for g in gens:
        kept.add_generator(g)
        dropped.add_generator(g)
    assert any(lv.seen for lv in kept.levels)
    dropped.drop_seen()
    assert not any(lv.seen for lv in dropped.levels)
    assert kept.add_generator(extra) and dropped.add_generator(extra)
    assert _chain_digest(kept) == _chain_digest(dropped)
    assert kept.order() == dropped.order() == q.order()


def test_rigid_stabilizer_rejects_impossible_vertices(gg):
    with pytest.raises(ValueError, match="out of range"):
        rigid_stabilizer(gg, 3, (2,))
    with pytest.raises(ValueError, match="below level 3"):
        rigid_stabilizer(gg, 3, (0, 0, 0, 0))
    assert rigid_stabilizer(gg, 3, ()).index() == 1


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
def test_pointwise_stabilizer_depth_view_matches_rebuilt_chain(name, level):
    # the stabilizer is read from the tail of the chain based at the
    # points; a chain rebuilt from its generators is the oracle
    g = builtin(name)
    q = level_quotient(g, level)
    rng = np.random.default_rng(13)
    outside_vertex = [i for i, v in enumerate(g.shape.vertices(level)) if v[0] != 0]
    nonmembers = 0
    for points in ([q.degree - 1], outside_vertex, list(range(0, q.degree, 3))):
        stab = pointwise_stabilizer(q, points)
        assert stab.depth == len(points) and stab.chain().base[:len(points)] == points
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


@pytest.mark.parametrize("name, level", [("Gg", 4), ("FGg", 3)])
def test_suborbits_cached_chain_matches_pointwise_stabilizer(name, level):
    # the profile reads a conjugate stabilizer off the cached chain; a chain
    # based at the basepoint itself gives the same orbit sizes
    g = builtin(name)
    q = level_quotient(g, level)
    for pt, vertex in enumerate(g.shape.vertices(level)):
        assert pt in q.chain().levels[0].transversal  # the cached-chain path
        stab = pointwise_stabilizer(q, [pt])
        assert suborbit_profile(g, level, vertex) == _orbit_sizes(q.degree, stab.gens)


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
