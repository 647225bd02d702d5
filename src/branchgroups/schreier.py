"""Schreier graphs of level actions and their substitutional expansion.

The level-n Schreier graph has the level-n words as vertices and one
edge per canonical generator per vertex; involutions are folded to a
single undirected edge.  The basepoint is the rightmost vertex, the
level-n stage of the spine ray.  Edges are read off the generators'
level permutations (`LevelQuotient.perm_of_state`), whose indices are
the positions of the vertices in lexicographic order.

Substitutional rules rebuild these graphs without the group action.
Each rule is a formula that maps the level-n permutation of every
generator label to the level-(n+1) one.  The level-(n+1) vertex xw has
index x*N + (index of w), N the size of level n, so the rule reads off
the wreath recursion: with | joining blocks, Gg's b = (a, c) gives
b' = [a | N+c].  Expansion starts from level 0, the one-vertex graph on
which every image is 0.  Both constructions turn the permutations into
edges through one loop, so agreement with the direct construction is
checked by exact equality of labeled vertex/edge sets, not by
isomorphism search.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import count
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

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


def _level_graph(group: GroupDefinition, level: int,
                 perms: Dict[str, np.ndarray]) -> SchreierGraph:
    """The level graph whose `label` edges join vertex i to vertex
    perms[label][i], indices as positions in lexicographic order."""
    verts = group.shape.vertices(level)
    edges: List[Edge] = []
    pairs = _generator_pairs(group)
    for label, _, is_inv in pairs:
        for i, j in enumerate(perms[label].tolist()):
            # fold an involution to one undirected edge per pair; indices
            # compare as the lexicographically ordered vertices do
            if not is_inv or i <= j:
                edges.append((verts[i], verts[j], label))
    basepoint = tuple(group.shape.branching(i) - 1 for i in range(level))
    return SchreierGraph(verts, edges, basepoint, [label for label, _, _ in pairs],
                         {label: inv for label, _, inv in pairs})


def schreier_graph(group: GroupDefinition, level: int) -> SchreierGraph:
    """Direct construction from the level action."""
    quotient = level_quotient(group, level)  # checks the level degree first
    return _level_graph(group, level, {label: quotient.perm_of_state(letter)
                                       for label, letter, _ in _generator_pairs(group)})


# -- substitutional rules -------------------------------------------------


def _gg_rule(perms):
    # a = (1 2), b = (a, c), c = (a, d), d = (1, b)
    a, b, c, d = perms["a"], perms["b"], perms["c"], perms["d"]
    n = len(a)
    i = np.arange(n)
    return {"a": np.concatenate((i + n, i)), "b": np.concatenate((a, n + c)),
            "c": np.concatenate((a, n + d)), "d": np.concatenate((i, n + b))}


def _ternary_rule(exponents):
    e1, e2 = exponents

    def rule(perms):
        # a = (1 2 3), t = (a^e1, a^e2, t)
        a, t = perms["a"], perms["t"]
        n = len(a)
        i = np.arange(n)
        powers = (i, a, a[a])
        return {"a": np.concatenate((i + n, i + 2 * n, i)),
                "t": np.concatenate((powers[e1], n + powers[e2], 2 * n + t))}

    return rule


def substitution_rules(name: str):
    """The substitutional rule of a built-in group: Gg, FGg, BGg, GSg
    (BGg and GSg give graphs isomorphic to each other).  The rule maps
    the level-n permutation of each generator label to the level-(n+1)
    one.  KeyError for any other group."""
    group = builtin(name)
    if group.name == "Gg":
        return _gg_rule
    if group.name in ("FGg", "BGg", "GSg"):
        return _ternary_rule(group.ggs_vector.exponents)
    raise KeyError(f"no substitution rules for {group.name!r}")


def substitutional_expand(name: str, level: int) -> SchreierGraph:
    """Schreier graph at a level from the substitutional rules alone,
    applied `level` times to the one-vertex graph of level 0."""
    group = builtin(name)
    rule = substitution_rules(name)
    check_level_degree(group, level)
    perms = {label: np.zeros(1, dtype=np.int64) for label, _, _ in _generator_pairs(group)}
    for _ in range(level):
        perms = rule(perms)
    return _level_graph(group, level, perms)
