import pytest

from branchgroups.cli import parse_group_file
from branchgroups.groups import builtin
from branchgroups.schreier import (
    SchreierGraph,
    _generator_pairs,
    growth_series_product,
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


def test_growth_matches_breadth_first_search_from_every_vertex():
    for name in ("Gg", "FGg", "BSV", "G2"):
        for n in range(4):
            g = schreier_graph(builtin(name), n)
            dist = g.distances_from(g.basepoint)
            series = [0] * (max(dist.values()) + 1)
            for d in dist.values():
                series[d] += 1
            diameter = max(max(g.distances_from(v).values()) for v in g.vertices)
            assert g.growth() == (diameter, series), (name, n)


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
    for name, levels in (("Gg", 7), ("FGg", 5), ("BGg", 5), ("GSg", 5)):
        group = builtin(name)
        for n in range(1, levels + 1):
            assert substitutional_expand(name, n) == schreier_graph(group, n), (
                name, n,
            )


def test_substitution_axiom_is_level_one():
    rules = substitution_rules("Gg")
    assert rules.expand(0) == schreier_graph(builtin("Gg"), 1)


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


def test_substitution_rules_resolve_builtin_aliases():
    assert substitution_rules("fabrykowski-gupta") is substitution_rules("FGg")
    assert substitution_rules("grigorchuk") is substitution_rules("gg")
