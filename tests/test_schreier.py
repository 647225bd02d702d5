import hashlib
import random

import numpy as np
import pytest

from oracles import growth_by_all_sources, growth_series_product

from branchgroups import quotients
from branchgroups.cli import parse_group_file
from branchgroups.errors import ResourceBoundExceeded
from branchgroups.groups import builtin
from branchgroups.schreier import (
    SchreierGraph,
    _generator_pairs,
    schreier_graph,
    substitution_rules,
    substitutional_expand,
)

GG_GRP = """\
group Gg
arity 2
rooted a = (1 2)
recursive b = (a, c)
recursive c = (a, d)
recursive d = (1, b)
"""


def schreier_graph_by_act(group, level):
    """Oracle: the level-n Schreier graph built vertex by vertex with `act`."""
    verts = group.shape.vertices(level)
    edges = []
    pairs = _generator_pairs(group)
    for label, letter, is_inv in pairs:
        state = group.state_of_letter(letter)
        for v in verts:
            w = state.act(v)
            if not is_inv or v <= w:
                edges.append((v, w, label))
    basepoint = tuple(group.shape.branching(i) - 1 for i in range(level))
    return SchreierGraph(verts, edges, basepoint, [p[0] for p in pairs],
                         {label: inv for label, _, inv in pairs})


def _degrees(graph):
    """Incident edge-ends at each vertex, one per canonical generator.

    A stored edge contributes one end at each endpoint (generator one way,
    inverse the other); a loop of a non-involution contributes two ends
    (the generator and its inverse both fix the vertex).
    """
    deg = dict.fromkeys(graph.vertices, 0)
    for u, w, label in graph.edges:
        if u == w:
            deg[u] += 1 if graph.involutions.get(label, False) else 2
        else:
            deg[u] += 1
            deg[w] += 1
    return deg


def _connected(graph):
    return len(graph.distances_from(graph.basepoint)) == len(graph.vertices)


def _fields(graph):
    return (graph.vertices, graph.edges, graph.basepoint, graph.labels,
            graph.involutions)


@pytest.mark.parametrize("name", ["Gg", "G2", "FGg", "BGg", "GSg", "Sg", "BSV",
                                  "Dinf", "GS5", "file"])
def test_schreier_graph_matches_vertex_action(name):
    # BSV has no involutive generators, so it checks the directed edges
    group = parse_group_file(GG_GRP) if name == "file" else builtin(name)
    for n in range(5):
        assert _fields(schreier_graph(group, n)) == _fields(
            schreier_graph_by_act(group, n)), (name, n)


BUILTINS = ["Gg", "G2", "FGg", "BGg", "GSg", "Sg", "BSV", "Dinf", "GS5"]


def test_growth_matches_breadth_first_search_from_every_vertex():
    # BSV's edges are directed; its diameter is that of the undirected graph
    for name in BUILTINS + ["file"]:
        group = parse_group_file(GG_GRP) if name == "file" else builtin(name)
        for n in range(7):
            graphs = [schreier_graph(group, n)]
            if name in ("Gg", "FGg", "BGg", "GSg"):
                graphs.append(substitutional_expand(name, n))
            for g in graphs:
                assert g.growth() == growth_by_all_sources(g), (name, n)
    # distances_from, from every vertex, gives the same diameter
    for name in ("Gg", "FGg", "BSV", "G2"):
        for n in range(4):
            g = schreier_graph(builtin(name), n)
            diameter = max(max(g.distances_from(v).values()) for v in g.vertices)
            assert g.growth()[0] == diameter, (name, n)


def _graph(n, edges, basepoint=0):
    labels = sorted({label for _, _, label in edges})
    return SchreierGraph([(i,) for i in range(n)],
                         [((u,), (v,), label) for u, v, label in edges],
                         (basepoint,), labels, dict.fromkeys(labels, True))


def _random_connected_multigraph(rng):
    n = rng.randint(1, 40)
    # a random spanning tree, then loops, parallel edges and chords
    edges = [(rng.randrange(i), i, rng.choice("ab")) for i in range(1, n)]
    for _ in range(rng.randint(0, 2 * n)):
        kind = rng.random()
        if kind < 0.2:
            v = rng.randrange(n)
            edges.append((v, v, rng.choice("abc")))
        elif kind < 0.4 and edges:
            edges.append(rng.choice(edges))
        else:
            edges.append((rng.randrange(n), rng.randrange(n), rng.choice("abc")))
    return _graph(n, edges, rng.randrange(n))


def test_growth_of_random_connected_multigraphs():
    rng = random.Random(15)
    for case in range(200):
        g = _random_connected_multigraph(rng)
        assert g.growth() == growth_by_all_sources(g), case


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 12])
def test_growth_of_paths_cycles_stars_and_complete_graphs(n):
    path = _graph(n, [(i, i + 1, "a") for i in range(n - 1)])
    cycle = _graph(n, [(i, (i + 1) % n, "a") for i in range(n)], n // 2)
    star = _graph(n, [(0, i, "a") for i in range(1, n)], n - 1)
    complete = _graph(n, [(i, j, "a") for i in range(n) for j in range(i + 1, n)])
    assert path.growth() == (n - 1, [1] * n)
    assert cycle.growth()[0] == n // 2
    assert star.growth() == (min(n - 1, 2), [1, 1, n - 2][:min(n, 3)])
    assert complete.growth() == (min(n - 1, 1), [1, n - 1][:min(n, 2)])
    for g in (path, cycle, star, complete):
        assert g.growth() == growth_by_all_sources(g), n


def test_growth_rejects_a_disconnected_graph():
    with pytest.raises(ValueError, match="not connected"):
        _graph(3, [(0, 1, "a")]).growth()


def test_growth_of_every_builtin_is_pinned():
    # computed with a breadth-first search from every vertex, as growth()
    # found the diameter before it used eccentricity bounds
    lines = [f"{name} {n} {schreier_graph(builtin(name), n).growth()}"
             for name in BUILTINS for n in range(8)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "c42af3c16d2f9644c5bc09576e4d38f3020e207f77c4512842dff255a9f65d74"


def test_level_degree_is_checked_before_building(monkeypatch):
    monkeypatch.setattr(quotients, "LEVEL_DEGREE_CAP", 64)
    gg = parse_group_file(GG_GRP)  # no level kept from other tests
    assert len(schreier_graph(gg, 6).vertices) == 64
    for build in (lambda: schreier_graph(gg, 7),
                  lambda: quotients.level_quotient(gg, 7),
                  lambda: substitutional_expand("FGg", 4)):
        with pytest.raises(ResourceBoundExceeded,
                           match=r"more than 64 vertices.*quotients\.LEVEL_DEGREE_CAP"):
            build()
    assert 7 not in gg._quotients


def test_gg_level_one():
    g = schreier_graph(builtin("Gg"), 1)
    assert len(g.vertices) == 2
    # one a-edge between the vertices, b, c, d loops at both
    labels = sorted(e[2] for e in g.edges)
    assert labels == ["a", "b", "b", "c", "c", "d", "d"]
    assert g.basepoint == (1,)
    assert _connected(g)


def test_level_zero():
    g = schreier_graph(builtin("Gg"), 0)
    assert len(g.vertices) == 1
    assert all(u == v for u, v, _ in g.edges)
    assert substitutional_expand("Gg", 0) == g


def test_fgg_level_one():
    g = schreier_graph(builtin("FGg"), 1)
    assert len(g.vertices) == 3
    a_edges = [e for e in g.edges if e[2] == "a"]
    t_edges = [e for e in g.edges if e[2] == "t"]
    assert len(a_edges) == 3           # directed triangle
    assert all(u == v for u, v, _ in t_edges) and len(t_edges) == 3


def test_substitution_matches_direct():
    # every expansion starts from the one-vertex graph of level 0
    for name, levels in (("Gg", 12), ("FGg", 8), ("BGg", 8), ("GSg", 8)):
        group = builtin(name)
        for n in range(levels + 1):
            assert _fields(substitutional_expand(name, n)) == _fields(
                schreier_graph(group, n)), (name, n)


def test_bgg_gsg_graphs_isomorphic_via_relabel():
    # the BGg and GSg graphs coincide after reversing the t-orientation;
    # as undirected labeled graphs they are equal
    b = schreier_graph(builtin("BGg"), 3)
    g = schreier_graph(builtin("GSg"), 3)

    def undirected(graph):
        return sorted(
            (min(u, v), max(u, v), label) for u, v, label in graph.edges
        )

    assert undirected(b) == undirected(g)


def test_gg_growth_and_diameter():
    gg = builtin("Gg")
    for n in (1, 2, 3, 4):
        d, series = schreier_graph(gg, n).growth()
        assert d == 2**n - 1
        # the level graph is a segment: one vertex at every distance
        assert series == [1] * 2**n
        assert series == growth_series_product([2**i for i in range(n)], 1)


def test_fgg_growth_matches_product_formula():
    fgg = builtin("FGg")
    for n in (1, 2, 3, 4):
        d, series = schreier_graph(fgg, n).growth()
        assert d == 2**n - 1
        assert series == growth_series_product([2**i for i in range(n)], 2)


def test_regular_degree():
    for name in ("Gg", "FGg", "GSg"):
        g = schreier_graph(builtin(name), 3)
        degrees = set(_degrees(g).values())
        assert degrees == {4}


def test_connectedness_level_transitive():
    for name in ("Gg", "FGg", "BGg", "G2"):
        assert _connected(schreier_graph(builtin(name), 2))


def test_dot_output_stable():
    g = schreier_graph(builtin("Gg"), 2)
    dot = g.to_dot()
    assert dot == schreier_graph(builtin("Gg"), 2).to_dot()
    assert 'label="a"' in dot and "doublecircle" in dot
    assert dot.count("->") == len(g.edges)


def test_substitution_unknown_name():
    with pytest.raises(KeyError):
        substitution_rules("BSV")
    # the rule is looked up before the first step, so level 0 refuses too
    for name in ("Sg", "BSV"):
        with pytest.raises(KeyError, match="no substitution rules"):
            substitutional_expand(name, 0)


def test_substitution_rules_resolve_builtin_aliases():
    assert substitution_rules("grigorchuk") is substitution_rules("gg")
    # a ternary rule is made per call: the alias's rule gives the same images
    alias, own = substitution_rules("fabrykowski-gupta"), substitution_rules("FGg")
    perms = {"a": np.zeros(1, dtype=np.int64), "t": np.zeros(1, dtype=np.int64)}
    for _ in range(3):
        images = alias(perms)
        assert images.keys() == perms.keys()
        assert all(np.array_equal(images[x], own(perms)[x]) for x in perms)
        perms = images
