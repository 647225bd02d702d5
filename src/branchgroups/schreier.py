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

from collections import defaultdict, deque
from typing import Dict, List, Sequence, Tuple

from .groups import GroupDefinition, builtin
from .quotients import level_quotient
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

    def distances_from(self, start: Vertex) -> Dict[Vertex, int]:
        return _distances(self.adjacency(), start)

    def growth(self) -> Tuple[int, List[int]]:
        """(diameter, growth sequence from the basepoint).

        The growth sequence counts vertices at each distance from the
        basepoint; the diameter is the maximum pairwise distance.
        """
        adj = self.adjacency()
        dist = _distances(adj, self.basepoint)
        if len(dist) != len(self.vertices):
            raise ValueError("graph is not connected")
        series = [0] * (max(dist.values()) + 1)
        for d in dist.values():
            series[d] += 1
        diameter = max(max(_distances(adj, v).values()) for v in self.vertices)
        return diameter, series

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


def _distances(adj, start: Vertex) -> Dict[Vertex, int]:
    """Breadth-first distances from `start` over an adjacency map."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y, _ in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
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
    verts = group.shape.vertices(level)
    quotient = level_quotient(group, level)
    edges: List[Edge] = []
    pairs = _generator_pairs(group)
    involutions = {label: inv for label, _, inv in pairs}
    for label, letter, is_inv in pairs:
        images = quotient.perm_of_state(group.state_of_letter(letter)).tolist()
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

    * matched subgraphs (a perfect matching by ``match_label`` edges for
      binary rules, a partition into directed triangles for ternary
      ones) are replaced by ``expand_match``;
    * every other edge (u, v, label) becomes ``relabel[label]`` between
      the included vertices, or is carried verbatim when label is not in
      ``relabel``.
    """

    def __init__(self, name: str, axiom: SchreierGraph, include_letter: int,
                 match_label: str, match_size: int, expand_match,
                 relabel: Dict[str, str]):
        self.name = name
        self.axiom = axiom
        self.include_letter = include_letter
        self.match_label = match_label
        self.match_size = match_size
        self.expand_match = expand_match
        self.relabel = relabel

    def step(self, graph: SchreierGraph) -> SchreierGraph:
        inc = self.include_letter

        def ext(letter: int, v: Vertex) -> Vertex:
            return (letter,) + v

        new_edges: List[Edge] = []
        new_vertices: List[Vertex] = []
        matched_edges = []
        other_edges = []
        for e in graph.edges:
            (matched_edges if e[2] == self.match_label else other_edges).append(e)

        # group the matched edges into the disjoint pattern instances
        if self.match_size == 2:
            instances = [(u, v) for u, v, _ in matched_edges]
        else:
            nxt = {u: v for u, v, _ in matched_edges}
            seen = set()
            instances = []
            for u in sorted(nxt):
                if u in seen:
                    continue
                cyc = [u]
                x = nxt[u]
                while x != u:
                    cyc.append(x)
                    x = nxt[x]
                seen.update(cyc)
                instances.append(tuple(cyc))
        covered = set()
        for inst in instances:
            covered.update(inst)
        if covered != set(graph.vertices):
            raise ValueError(
                f"{self.match_label}-edges do not cover the vertices; "
                "rule set does not apply"
            )

        for inst in instances:
            verts, edges = self.expand_match(inst, ext)
            new_vertices.extend(verts)
            new_edges.extend(edges)
        for u, v, label in other_edges:
            new_label = self.relabel.get(label, label)
            new_edges.append((ext(inc, u), ext(inc, v), new_label))
        return SchreierGraph(new_vertices, new_edges, (inc,) + graph.basepoint,
                             graph.labels, graph.involutions)

    def expand(self, steps: int) -> SchreierGraph:
        """Apply `steps` expansion steps to the axiom (level 1 + steps)."""
        g = self.axiom
        for _ in range(steps):
            g = self.step(g)
        return g

    def graph_at_level(self, level: int) -> SchreierGraph:
        if level < 1:
            raise ValueError("substitution starts at the level-1 axiom")
        return self.expand(level - 1)


def _gg_rules() -> SubstitutionRules:
    gg = builtin("Gg")
    axiom = schreier_graph(gg, 1)

    def expand_match(inst, ext):
        # an a-edge sigma--tau becomes the path
        # 2sigma -a- 1sigma =b,c= 1tau -a- 2tau with d-loops at the 1's
        sigma, tau = inst
        s1, s2 = ext(0, sigma), ext(1, sigma)
        t1, t2 = ext(0, tau), ext(1, tau)
        verts = [s1, s2, t1, t2]
        edges = [
            (min(s2, s1), max(s2, s1), "a"),
            (min(s1, t1), max(s1, t1), "b"),
            (min(s1, t1), max(s1, t1), "c"),
            (min(t1, t2), max(t1, t2), "a"),
            (s1, s1, "d"),
            (t1, t1, "d"),
        ]
        return verts, edges

    return SubstitutionRules(
        "Gg", axiom, include_letter=1, match_label="a", match_size=2,
        expand_match=expand_match,
        relabel={"b": "d", "c": "b", "d": "c"},
    )


def _ternary_rules(name: str) -> SubstitutionRules:
    group = builtin(name)
    axiom = schreier_graph(group, 1)
    # orientation of the directed generator's action on the second copy:
    # section of t at vertex 2 is a^e2 (e2 = 0, 1, 2 for FGg, BGg, GSg)
    e2 = group.ggs_vector.exponents[1]

    def expand_match(inst, ext):
        # an a-triangle rho -> sigma -> tau (a(rho) = sigma) becomes three
        # a-triangles 1x -> 2x -> 3x plus the t-edges dictated by the
        # wreath recursion t = (a, a^e2, t)
        rho, sigma, tau = inst
        verts = []
        edges = []
        for x in inst:
            x1, x2, x3 = ext(0, x), ext(1, x), ext(2, x)
            verts.extend([x1, x2, x3])
            edges.extend([(x1, x2, "a"), (x2, x3, "a"), (x3, x1, "a")])
        # t on 1-copies follows a: t(1 rho) = 1 a(rho)
        edges.extend([
            (ext(0, rho), ext(0, sigma), "t"),
            (ext(0, sigma), ext(0, tau), "t"),
            (ext(0, tau), ext(0, rho), "t"),
        ])
        if e2 == 0:
            edges.extend([(ext(1, x), ext(1, x), "t") for x in inst])
        elif e2 == 1:
            edges.extend([
                (ext(1, rho), ext(1, sigma), "t"),
                (ext(1, sigma), ext(1, tau), "t"),
                (ext(1, tau), ext(1, rho), "t"),
            ])
        else:
            edges.extend([
                (ext(1, rho), ext(1, tau), "t"),
                (ext(1, tau), ext(1, sigma), "t"),
                (ext(1, sigma), ext(1, rho), "t"),
            ])
        return verts, edges

    return SubstitutionRules(
        name, axiom, include_letter=2, match_label="a", match_size=3,
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
    if level == 0:
        return schreier_graph(builtin(name), 0)
    return substitution_rules(name).graph_at_level(level)


def growth_series_product(exponents: Sequence[int], coefficient: int) -> List[int]:
    """Coefficients of prod_i (1 + coefficient * X^(e_i))."""
    out = [1]
    for e in exponents:
        new = out + [0] * e
        for i, c in enumerate(out):
            new[i + e] += coefficient * c
        out = new
    return out
