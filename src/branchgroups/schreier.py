"""Schreier graphs of level actions and their substitutional expansion.

The level-n Schreier graph has the level-n words as vertices and one
edge per canonical generator per vertex; involutions are folded to a
single undirected edge.  The basepoint is the rightmost vertex, the
level-n stage of the spine ray.  Edges are read off the generators'
level permutations (`LevelQuotient.perm_of_state`), whose indices are
the positions of the vertices in lexicographic order.

Substitutional rules rebuild these graphs without the group action: the
level-1 graph is the axiom, and each expansion step prepends a letter to
every vertex name while replacing the rooted-generator edges by a fixed
local pattern.  Because the rules dictate the vertex names, agreement
with the direct construction is checked by exact equality of labeled
vertex/edge sets, not by isomorphism search.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from .automorphisms import perm_cycles
from .groups import GroupDefinition, builtin
from .quotients import check_level_degree, level_quotient
from .shapes import format_vertex

Vertex = Tuple[int, ...]
Edge = Tuple[Vertex, Vertex, str]


class SchreierGraph:
    """Labeled multigraph on level-n words with one edge per generator.

    ``edges`` is a sorted tuple of (u, v, label) triples.  For an
    involution the two directions are folded into one undirected edge
    with u <= v; for a generator/inverse pair only the generator's
    direction is stored (the inverse traverses the same edges backwards).
    """

    def __init__(self, vertices: Sequence[Vertex], edges: Sequence[Edge],
                 basepoint: Vertex, labels: Sequence[str],
                 involutions: Dict[str, bool]):
        self.vertices = tuple(sorted(vertices))
        self.edges = tuple(sorted(edges))
        self.basepoint = tuple(basepoint)
        self.labels = tuple(labels)
        self.involutions = dict(involutions)

    def __eq__(self, other):
        return (
            isinstance(other, SchreierGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.basepoint == other.basepoint
        )

    def adjacency(self) -> Dict[Vertex, List[Tuple[Vertex, str]]]:
        adj = defaultdict(list)
        for u, v, label in self.edges:
            adj[u].append((v, label))
            if u != v:
                adj[v].append((u, label))
        return adj

    def _neighbours(self) -> List[Set[int]]:
        """Undirected neighbour indices of each vertex (positions in
        ``vertices``), without loops or repeated edges."""
        index = {v: i for i, v in enumerate(self.vertices)}
        nbrs = [set() for _ in self.vertices]
        for u, v, _ in self.edges:
            i, j = index[u], index[v]
            if i != j:
                nbrs[i].add(j)
                nbrs[j].add(i)
        return nbrs

    def distances_from(self, start: Vertex) -> Dict[Vertex, int]:
        dist = _distances(self._neighbours(), self.vertices.index(tuple(start)))
        return {v: d for v, d in zip(self.vertices, dist) if d >= 0}

    def growth(self) -> Tuple[int, List[int]]:
        """(diameter, growth sequence from the basepoint).

        The growth sequence counts vertices at each distance from the
        basepoint.  The diameter is the largest distance between two
        vertices of the underlying undirected graph (edge directions and
        labels are ignored).  It is found exactly by eccentricity bounds
        (Takes and Kosters, "Determining the diameter of small world
        networks", CIKM 2011): a search from v, of eccentricity e, gives
        every w the bounds max(d(v,w), e - d(v,w)) <= ecc(w) <= e + d(v,w),
        and searches continue from vertices whose bounds differ until the
        largest lower bound meets the largest upper bound.  The first
        search is the one from the basepoint; the worst case is one
        search per vertex.
        """
        nbrs = self._neighbours()
        dist = _distances(nbrs, self.vertices.index(self.basepoint))
        if min(dist) < 0:
            raise ValueError("graph is not connected")
        series = [0] * (max(dist) + 1)
        for d in dist:
            series[d] += 1
        lower = np.zeros(len(nbrs), dtype=np.int64)
        upper = np.full(len(nbrs), len(nbrs), dtype=np.int64)
        for turn in count():
            d = np.array(dist, dtype=np.int64)
            e = int(d.max())
            np.maximum(lower, np.maximum(d, e - d), out=lower)
            np.minimum(upper, e + d, out=upper)
            diameter = int(lower.max())
            if diameter == upper.max():
                return diameter, series
            # alternate between the open vertex of largest upper bound and
            # the one of smallest lower bound; each search closes a vertex
            open_ = lower < upper
            if turn % 2:
                v = int(np.argmin(np.where(open_, lower, len(nbrs))))
            else:
                v = int(np.argmax(np.where(open_, upper, -1)))
            dist = _distances(nbrs, v)

    def to_dot(self) -> str:
        """Deterministic DOT output; involution edges are undirected."""
        lines = ["digraph schreier {"]
        lines.append(f'  // basepoint: "{format_vertex(self.basepoint)}"')
        for v in self.vertices:
            shape = ', shape=doublecircle' if v == self.basepoint else ""
            lines.append(f'  "{format_vertex(v)}" [label="{format_vertex(v)}"{shape}];')
        for u, v, label in self.edges:
            attrs = f'label="{label}"'
            if self.involutions.get(label, False):
                attrs += ", dir=none"
            lines.append(f'  "{format_vertex(u)}" -> "{format_vertex(v)}" [{attrs}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _distances(nbrs: List[Set[int]], start: int) -> List[int]:
    """Breadth-first distances from vertex index `start`, -1 where
    unreachable."""
    dist = [-1] * len(nbrs)
    dist[start] = 0
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for x in frontier:
            for y in nbrs[x]:
                if dist[y] < 0:
                    dist[y] = depth
                    reached.append(y)
        frontier = reached
    return dist


def _generator_pairs(group: GroupDefinition):
    """Canonical letters grouped as (label, letter, is_involution), one
    per generator/inverse pair."""
    out = []
    seen = set()
    for letter in group.canonical_letters:
        if letter in seen:
            continue
        inv = group.letter_inverse(letter)
        seen.add(letter)
        seen.add(inv)
        label = group.format_word((letter,))
        out.append((label, letter, inv == letter))
    return out


def schreier_graph(group: GroupDefinition, level: int) -> SchreierGraph:
    """Direct construction from the level action."""
    quotient = level_quotient(group, level)  # checks the level degree first
    verts = group.shape.vertices(level)
    edges: List[Edge] = []
    pairs = _generator_pairs(group)
    involutions = {label: inv for label, _, inv in pairs}
    for label, letter, is_inv in pairs:
        images = quotient.perm_of_state(letter).tolist()
        for i, j in enumerate(images):
            # fold an involution to one undirected edge per pair; indices
            # compare as the lexicographically ordered vertices do
            if not is_inv or i <= j:
                edges.append((verts[i], verts[j], label))
    basepoint = tuple(group.shape.branching(i) - 1 for i in range(level))
    labels = [label for label, _, _ in pairs]
    return SchreierGraph(verts, edges, basepoint, labels, involutions)


# -- substitutional rules -------------------------------------------------


class SubstitutionRules:
    """Per-edge rewriting rules for a family of Schreier graphs.

    ``axiom`` is the level-1 graph.  One expansion step prepends
    ``include_letter`` to every vertex and rewrites:

    * the ``match_label`` edges, read as one permutation of the vertices
      (an involution's single stored edge both ways), cover the vertices
      with its cycles, each starting at its least vertex: an edge pair
      for Gg, a directed triangle for the ternary groups.  Each cycle is
      replaced by ``expand_match(cycle)``, which returns the new vertices
      and edges;
    * every other edge (u, v, label) becomes ``relabel[label]`` between
      the included vertices, or is carried verbatim when label is not in
      ``relabel``.
    """

    def __init__(self, name: str, axiom: SchreierGraph, include_letter: int,
                 match_label: str, expand_match, relabel: Dict[str, str]):
        self.name = name
        self.axiom = axiom
        self.include_letter = include_letter
        self.match_label = match_label
        self.expand_match = expand_match
        self.relabel = relabel

    def step(self, graph: SchreierGraph) -> SchreierGraph:
        inc = self.include_letter
        index = {v: i for i, v in enumerate(graph.vertices)}
        perm = list(range(len(index)))
        both_ways = graph.involutions.get(self.match_label, False)
        new_edges: List[Edge] = []
        for u, v, label in graph.edges:
            if label == self.match_label:
                perm[index[u]] = index[v]
                if both_ways:
                    perm[index[v]] = index[u]
            else:
                new_edges.append(((inc,) + u, (inc,) + v, self.relabel.get(label, label)))
        # a vertex without a matched edge is a fixed point; two matched
        # edges into one vertex leave perm no permutation
        if len(set(perm)) < len(perm) or any(i == j for i, j in enumerate(perm)):
            raise ValueError(
                f"{self.match_label}-edges do not cover the vertices; "
                "rule set does not apply"
            )
        new_vertices: List[Vertex] = []
        for cycle in perm_cycles(perm):
            verts, edges = self.expand_match(tuple(graph.vertices[i] for i in cycle))
            new_vertices.extend(verts)
            new_edges.extend(edges)
        return SchreierGraph(new_vertices, new_edges, (inc,) + graph.basepoint,
                             graph.labels, graph.involutions)

    def expand(self, steps: int) -> SchreierGraph:
        """Apply `steps` expansion steps to the axiom (level 1 + steps)."""
        g = self.axiom
        for _ in range(steps):
            g = self.step(g)
        return g


def _gg_rules() -> SubstitutionRules:
    def expand_match(cycle):
        # an a-edge sigma--tau (sigma < tau) becomes the path
        # 2sigma -a- 1sigma =b,c= 1tau -a- 2tau with d-loops at the 1's
        sigma, tau = cycle
        s1, s2, t1, t2 = (0,) + sigma, (1,) + sigma, (0,) + tau, (1,) + tau
        edges = [(s1, s2, "a"), (s1, t1, "b"), (s1, t1, "c"), (t1, t2, "a"),
                 (s1, s1, "d"), (t1, t1, "d")]
        return [s1, s2, t1, t2], edges

    return SubstitutionRules(
        "Gg", schreier_graph(builtin("Gg"), 1), include_letter=1, match_label="a",
        expand_match=expand_match, relabel={"b": "d", "c": "b", "d": "c"},
    )


def _ternary_rules(name: str) -> SubstitutionRules:
    group = builtin(name)
    # the wreath recursion t = (a^e1, a^e2, t), (e1, e2) = (1, 0), (1, 1),
    # (1, 2) for FGg, BGg, GSg; t on the third copy is the included t-edge
    exponents = group.ggs_vector.exponents

    def expand_match(cycle):
        # an a-triangle x_0 -> x_1 -> x_2 (a(x_k) = x_k+1) becomes three
        # a-triangles 1x -> 2x -> 3x, and t moves j x_k to j x_(k + e_j)
        verts = []
        edges = []
        for x in cycle:
            x1, x2, x3 = (0,) + x, (1,) + x, (2,) + x
            verts.extend([x1, x2, x3])
            edges.extend([(x1, x2, "a"), (x2, x3, "a"), (x3, x1, "a")])
        for j, e in enumerate(exponents):
            edges.extend(((j,) + x, (j,) + cycle[(k + e) % 3], "t")
                         for k, x in enumerate(cycle))
        return verts, edges

    return SubstitutionRules(
        name, schreier_graph(group, 1), include_letter=2, match_label="a",
        expand_match=expand_match, relabel={},
    )


_RULE_SETS = {}


def substitution_rules(name: str) -> SubstitutionRules:
    """Built-in rule sets: Gg, FGg, BGg, GSg (BGg and GSg give graphs
    isomorphic to each other)."""
    key = builtin(name).name
    if key not in _RULE_SETS:
        if key == "Gg":
            _RULE_SETS[key] = _gg_rules()
        elif key in ("FGg", "BGg", "GSg"):
            _RULE_SETS[key] = _ternary_rules(key)
        else:
            raise KeyError(f"no substitution rules for {key!r}")
    return _RULE_SETS[key]


def substitutional_expand(name: str, level: int) -> SchreierGraph:
    """Schreier graph at a level from the substitutional rules alone."""
    check_level_degree(builtin(name), level)
    if level == 0:
        return schreier_graph(builtin(name), 0)
    return substitution_rules(name).expand(level - 1)

