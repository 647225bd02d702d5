"""Finite level quotients as permutation groups.

The quotient G_n = G/Stab(L_n) acts on the m_1*...*m_n level-n vertices
(lexicographic order).  Orders, membership, and subgroup data come from a
deterministic Schreier-Sims stabilizer chain: base points are chosen as
the first moved point (optionally prescribed), generators are processed
in a fixed order, and all Schreier generators are sifted, so runs are
reproducible bit for bit.  Every subgroup is a `SubgroupHandle`: its
generators and one chain, whose tail below `depth` prescribed base points
is a point stabilizer.  The quotient is the depth-0 handle over the
generator images, and `level_quotient` keeps one per (group, level) on
the group.  The quotient also owns the subgroups built on it: its lower
central and derived series (extended lazily; G' is the handle of gamma_2),
the rigid stabilizer of each vertex and the rigid level stabilizer of
each depth.  Each is built once, lives as long as the quotient and is
read-only.  Permutations are numpy int32 arrays composed by fancy
indexing; group orders are exact Python integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, log
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .automorphisms import TreeAutomorphism
from .errors import ResourceBoundExceeded
from .groups import GroupDefinition

_IMAGE_CACHE: Dict[Tuple[int, int], np.ndarray] = {}


def _state_images(state: TreeAutomorphism, level: int) -> np.ndarray:
    """Index permutation induced by a state on level-`level` vertices."""
    key = (state.serial, level)
    hit = _IMAGE_CACHE.get(key)
    if hit is not None:
        return hit
    if level == 0:
        arr = np.zeros(1, dtype=np.int32)
    else:
        m = state.shape.branching(0)
        blocks = [None] * m
        width = state.shape.shift().level_size(level - 1)
        for y in range(m):
            sub = _state_images(state.children[y], level - 1)
            blocks[y] = state.root_perm[y] * width + sub
        arr = np.concatenate(blocks)
    arr.setflags(write=False)
    _IMAGE_CACHE[key] = arr
    return arr


def _pinv(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(len(p), dtype=p.dtype)
    return out


class _Level:
    """One level of the chain: base point, orbit, generators, cursors.

    ``gens`` are all strong generators fixing the base prefix above this
    level (each also appears in the lists of the shallower levels).
    ``orbit_cursor[gi]``/``pair_cursor[gi]`` record how many orbit points
    have been expanded/Schreier-checked with generator gi; orbits and
    generator lists only grow, so processed work never needs redoing.
    """

    __slots__ = ("point", "points", "transversal", "inv_transversal",
                 "gens", "orbit_cursor", "pair_cursor", "seen")

    def __init__(self, point: int, identity: np.ndarray):
        self.point = point
        self.points = [point]
        self.transversal = {point: identity}
        self.inv_transversal = {point: identity}
        self.gens: List[np.ndarray] = []
        self.orbit_cursor: List[int] = []
        self.pair_cursor: List[int] = []
        self.seen = set()


class StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain.

    Generators are processed in a fixed order and every Schreier
    generator is sifted exactly once (work cursors make revisits cheap);
    a Schreier generator that once sifted to the identity stays inside
    the deeper subgroup because subgroups only grow, so the processing
    order does not affect correctness.  No randomization anywhere.
    """

    def __init__(self, degree: int, base_prescription: Sequence[int] = ()):
        self.degree = degree
        self.identity = np.arange(degree, dtype=np.int32)
        self._id_bytes = self.identity.tobytes()
        self.levels: List[_Level] = []
        # levels with unprocessed work are always the prefix [0, _dirty)
        self._dirty = 0
        for b in base_prescription:
            self.levels.append(_Level(int(b), self.identity))

    @property
    def base(self) -> List[int]:
        return [lv.point for lv in self.levels]

    def sift(self, perm: np.ndarray, start: int = 0) -> Optional[np.ndarray]:
        """Strip through transversals; None iff membership holds."""
        g = np.asarray(perm, dtype=np.int32)
        for i in range(start, len(self.levels)):
            lv = self.levels[i]
            y = int(g[lv.point])
            if y == lv.point:
                continue
            inv = lv.inv_transversal.get(y)
            if inv is None:
                return g
            g = inv[g]
        if g.tobytes() == self._id_bytes:
            return None
        return g

    def contains(self, perm: np.ndarray) -> bool:
        return self.sift(perm) is None

    def _install(self, perm: np.ndarray, start: int = 0) -> int:
        """Attach a nontrivial permutation at its level (extending the
        base when it fixes every current base point).  Returns the level."""
        i = start
        while i < len(self.levels) and perm[self.levels[i].point] == self.levels[i].point:
            i += 1
        if i == len(self.levels):
            moved = np.nonzero(perm != self.identity)[0]
            self.levels.append(_Level(int(moved[0]), self.identity))
        for j in range(i + 1):
            lv = self.levels[j]
            lv.gens.append(perm)
            lv.orbit_cursor.append(0)
            lv.pair_cursor.append(0)
        self._dirty = max(self._dirty, i + 1)
        return i

    def _extend_orbit(self, i: int) -> bool:
        """Expand the orbit of level i with any unprocessed (point, gen)
        pairs; returns True if new points appeared."""
        lv = self.levels[i]
        grew = False
        changed = True
        while changed:
            changed = False
            for gi, g in enumerate(lv.gens):
                while lv.orbit_cursor[gi] < len(lv.points):
                    x = lv.points[lv.orbit_cursor[gi]]
                    lv.orbit_cursor[gi] += 1
                    y = int(g[x])
                    if y not in lv.transversal:
                        uy = g[lv.transversal[x]]
                        lv.transversal[y] = uy
                        lv.inv_transversal[y] = _pinv(uy)
                        lv.points.append(y)
                        grew = True
                        changed = True
        return grew

    def _process_level(self, i: int) -> bool:
        """Expand the orbit, then sift unprocessed Schreier generators.
        Stops at the first residue installed deeper (so deeper levels can
        settle before more of this level is enumerated); cursors make the
        eventual revisit resume where it stopped.  Returns True iff a
        residue was installed."""
        self._extend_orbit(i)
        lv = self.levels[i]
        for gi in range(len(lv.gens)):
            g = lv.gens[gi]
            while lv.pair_cursor[gi] < len(lv.points):
                x = lv.points[lv.pair_cursor[gi]]
                lv.pair_cursor[gi] += 1
                z = g[lv.transversal[x]]
                y = int(z[lv.point])
                sg = lv.inv_transversal[y][z]
                key = sg.tobytes()
                if key == self._id_bytes:
                    continue
                # exact dedup is memory-bounded: only small orbits keep a
                # seen-set; duplicates elsewhere just sift twice
                if len(lv.points) <= 64:
                    if key in lv.seen:
                        continue
                    lv.seen.add(key)
                residue = self.sift(sg, i + 1)
                if residue is not None:
                    self._install(residue, i + 1)
                    return True
        return False

    def _run(self):
        """Process pending work, deepest level first.  A level processed
        without installing anything is done; an install at level i marks
        levels 0..i pending (they all gain the generator)."""
        while self._dirty:
            if not self._process_level(self._dirty - 1):
                self._dirty -= 1

    def drop_seen(self):
        """Free the dedup keys of a finished chain.  They only skip a second
        sift during the build; a duplicate met in a later extension sifts
        to the identity and installs nothing, so the chain is unchanged."""
        for lv in self.levels:
            lv.seen.clear()

    def add_generator(self, perm: np.ndarray) -> bool:
        """Install `perm` unless it is already a member; True iff installed."""
        g = np.asarray(perm, dtype=np.int32)
        if self.sift(g) is None:
            return False
        self._install(g)
        self._run()
        return True

    def order(self, depth: int = 0) -> int:
        """Order of the subgroup fixing the first `depth` base points."""
        n = 1
        for lv in self.levels[depth:]:
            n *= len(lv.points)
        return n

    def strong_generators(self) -> List[np.ndarray]:
        return list(self.levels[0].gens) if self.levels else []

    def stabilizer_generators(self, depth: int) -> List[np.ndarray]:
        """Generators of the subgroup fixing the first `depth` base points."""
        if depth >= len(self.levels):
            return []
        return list(self.levels[depth].gens)


def chain_from_generators(degree: int, gens: Sequence[np.ndarray],
                          base_prescription: Sequence[int] = ()) -> StabilizerChain:
    chain = StabilizerChain(degree, base_prescription)
    staged = False
    for g in gens:
        g = np.asarray(g, dtype=np.int32)
        if g.tobytes() == chain._id_bytes:
            continue
        chain._install(g)
        staged = True
    if staged:
        chain._run()
    chain.drop_seen()
    return chain


class SubgroupHandle:
    """A subgroup of a level quotient: generators and one stabilizer chain.
    With `depth` > 0 it is the stabilizer of the chain's first `depth` base
    points, read from the chain's tail (Holt, Eick and O'Brien 2005, 4.4)."""

    def __init__(self, parent: LevelQuotient, gens: Sequence[np.ndarray],
                 chain: Optional[StabilizerChain] = None, depth: int = 0):
        self.parent = parent
        self.gens = [np.asarray(g, dtype=np.int32) for g in gens]
        self._chain = chain
        self.depth = depth

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = chain_from_generators(self.parent.degree, self.gens)
        return self._chain

    def order(self) -> int:
        return self.chain().order(self.depth)

    def index(self) -> int:
        return self.parent.order() // self.order()

    def contains(self, perm: np.ndarray) -> bool:
        if not self.depth:
            return self.chain().contains(perm)
        # the transversals from `depth` down fix the first `depth` base
        # points, so a perm moving one of them never sifts to the identity
        return self.chain().sift(perm, self.depth) is None


class LevelQuotient(SubgroupHandle):
    """The group's action on one tree level; its own parent."""

    def __init__(self, group: GroupDefinition, level: int):
        self.group = group
        self.level = level
        self.degree = group.shape.level_size(level)
        # letter -> image array, filled as words use letters
        self._images = {x: _state_images(group.state_of_letter(x), level)
                        for x in group.canonical_letters}
        self.gen_perms: Dict[str, np.ndarray] = {
            group.format_word((x,)): self._images[x] for x in group.canonical_letters}
        super().__init__(self, self.gen_perms.values())
        self._lower_central: List[SubgroupHandle] = [self]
        self._derived: List[SubgroupHandle] = [self]
        self._rist: Dict[Tuple[int, ...], SubgroupHandle] = {}
        self._rist_level: Dict[int, SubgroupHandle] = {}

    def perm_of_word(self, word) -> np.ndarray:
        p = np.arange(self.degree, dtype=np.int32)
        for letter in self.group.word(word).letters:
            image = self._images.get(letter)
            if image is None:
                image = self._images[letter] = _state_images(
                    self.group.state_of_letter(letter), self.level)
            p = image[p]
        return p

    def perm_of_state(self, state: TreeAutomorphism) -> np.ndarray:
        return _state_images(state, self.level)


def level_quotient(group: GroupDefinition, level: int) -> LevelQuotient:
    """The group's level quotient, built once and kept on the group; callers
    share it and must treat it (and its chain) as read-only."""
    if level < 0:
        raise ValueError(f"level must be non-negative, got {level}")
    q = group._quotients.get(level)
    if q is None:
        q = group._quotients[level] = LevelQuotient(group, level)
    return q


# -- normal closures, commutators, series -------------------------------


def _comm(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # [p, q] = p^-1 q^-1 p q; composition is left-to-right application
    return q[p[_pinv(q)[_pinv(p)]]]


def normal_closure(q: LevelQuotient, seeds: Sequence[np.ndarray]) -> SubgroupHandle:
    """Normal closure of the seeds under conjugation by the group generators."""
    sub = StabilizerChain(q.degree)
    gens: List[np.ndarray] = []
    work = [np.asarray(s, dtype=np.int32) for s in seeds]
    conj = [(c, _pinv(c)) for c in q.gens]
    while work:
        g = work.pop()
        if not sub.add_generator(g):
            continue
        gens.append(g)
        for c, cinv in conj:
            work.append(c[g[cinv]])
    sub.drop_seen()
    return SubgroupHandle(q, gens, sub)


def commutator_subgroup(q: LevelQuotient, h1_gens: Sequence[np.ndarray],
                        h2_gens: Sequence[np.ndarray]) -> SubgroupHandle:
    """Normal closure of the commutators of the given generating sets."""
    seeds = [_comm(x, y) for x in h1_gens for y in h2_gens]
    return normal_closure(q, seeds)


def _series(q: LevelQuotient, length: int, derived: bool) -> List[SubgroupHandle]:
    """[H_0 = G_n, H_1, ..., H_length], stopping at the first trivial term:
    H_{k+1} = [H_k, H_k] (derived series) or [H_k, G_n] (lower central).
    Both series are kept on the quotient and share H_1 = [G_n, G_n]."""
    series, other = ((q._derived, q._lower_central) if derived
                     else (q._lower_central, q._derived))
    while len(series) <= length and (len(series) == 1 or series[-1].order() > 1):
        h = series[-1]
        if len(series) == 1 and len(other) > 1:
            series.append(other[1])
        else:
            series.append(commutator_subgroup(q, h.gens, h.gens if derived else q.gens))
    return series[:length + 1]


def derived_series_orders(q: LevelQuotient, kmax: int) -> List[int]:
    """Orders of G_n = G^(0) >= G^(1) >= ... >= G^(kmax)."""
    return [h.order() for h in _series(q, kmax, derived=True)]


def _p_exponent(n: int, p: int, what: str) -> int:
    """e with n = p^e; ValueError(what) when n is not a power of p."""
    e = 0
    while n > 1 and n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ValueError(what)
    return e


def _root_prime(group: GroupDefinition) -> int:
    """The least prime dividing the root branching index."""
    m = group.shape.branching(0)
    return next(d for d in range(2, m + 1) if m % d == 0)


def lower_central_ranks(group: GroupDefinition, level: int, kmax: int) -> List[int]:
    """log_p |gamma_k / gamma_{k+1}| in the level quotient, k = 1..kmax.

    p is the prime dividing the root branching index; ValueError when an
    index is not a power of p.  An entry is the F_p-rank of the factor
    only when the factor is elementary abelian, as for Gg: for G2 at
    level 3 the first entry is 4, but a^2 is not in gamma_2, so G/gamma_2
    of order 2^4 has rank 2.
    """
    p = _root_prime(group)
    series = _series(level_quotient(group, level), kmax + 1, derived=False)
    ranks = [_p_exponent(series[k].order() // series[k + 1].order(), p,
                         f"gamma_{k + 1}/gamma_{k + 2} is not a {p}-group")
             for k in range(min(kmax, len(series) - 1))]
    return ranks + [0] * (kmax - len(ranks))


def nilpotency_class(group: GroupDefinition, level: int, kcap: int = 128) -> int:
    """Least c with gamma_{c+1} trivial in the level quotient."""
    series = _series(level_quotient(group, level), kcap, derived=False)
    for k, h in enumerate(series):
        if h.order() == 1:
            return k
    raise ResourceBoundExceeded(f"nilpotency class exceeds {kcap}")


# -- rigid stabilizers, parabolic suborbits ------------------------------


def pointwise_stabilizer(q: LevelQuotient, points: Sequence[int]) -> SubgroupHandle:
    """Subgroup fixing every listed point: the depth view of a chain based
    at those points."""
    chain = chain_from_generators(q.degree, q.gens, base_prescription=points)
    return SubgroupHandle(q, chain.stabilizer_generators(len(points)), chain, len(points))


def rigid_stabilizer(group: GroupDefinition, level: int,
                     vertex: Tuple[int, ...]) -> SubgroupHandle:
    """Elements fixing every level vertex outside the subtree at `vertex`;
    built once per vertex and kept on the quotient."""
    vertex = tuple(vertex)
    group.shape.check_vertex(vertex)
    if len(vertex) > level:
        raise ValueError(f"vertex of length {len(vertex)} lies below level {level}")
    q = level_quotient(group, level)
    rist = q._rist.get(vertex)
    if rist is None:
        outside = [i for i, v in enumerate(group.shape.vertices(level))
                   if v[:len(vertex)] != vertex]
        rist = q._rist[vertex] = pointwise_stabilizer(q, outside)
    return rist


def rigid_level_stabilizer(group: GroupDefinition, level: int,
                           depth: int) -> SubgroupHandle:
    """Product of the rigid stabilizers of all depth-`depth` vertices; built
    once per depth and kept on the quotient.

    One prescribed chain per orbit of depth-`depth` vertices: with t in
    G_n carrying v to u, rist(u) = rist(v)^t.  Vertex i owns the level
    points [i*w, (i+1)*w), so a breadth-first search over the generators
    on these blocks finds each t.
    """
    q = level_quotient(group, level)
    hit = q._rist_level.get(depth)
    if hit is not None:
        return hit
    verts = group.shape.vertices(depth)
    w = q.degree // len(verts)
    parts: Dict[int, List[np.ndarray]] = {}
    for root, v in enumerate(verts):
        if root in parts:
            continue
        base = rigid_stabilizer(group, level, v).gens
        parts[root] = base
        queue = [(root, np.arange(q.degree, dtype=np.int32))]
        for i, t in queue:
            for c in q.gens:
                j = int(c[i * w]) // w
                if j not in parts:
                    tj = c[t]  # carries block root to block j
                    tinv = _pinv(tj)
                    parts[j] = [tj[g[tinv]] for g in base]
                    queue.append((j, tj))
    gens = [g for i in range(len(verts)) for g in parts[i]]
    hit = q._rist_level[depth] = SubgroupHandle(q, gens)
    return hit


def suborbit_profile(group: GroupDefinition, level: int,
                     basepoint: Optional[Tuple[int, ...]] = None) -> List[int]:
    """Orbit sizes of the basepoint stabilizer on the level, sorted.

    The default basepoint is the rightmost vertex (m, m, ..., m), the
    level-n stage of the spine ray.  A basepoint in the orbit of the
    chain's first base point has a stabilizer conjugate to that point's,
    with the same orbit sizes, so the chain's level-1 generators serve.
    """
    q = level_quotient(group, level)
    verts = group.shape.vertices(level)
    if basepoint is None:
        basepoint = tuple(group.shape.branching(i) - 1 for i in range(level))
    pt = verts.index(tuple(basepoint))
    chain = q.chain()
    if chain.levels and pt in chain.levels[0].transversal:
        stab_gens = chain.stabilizer_generators(1)
    else:
        stab_gens = pointwise_stabilizer(q, [pt]).gens

    parent = list(range(q.degree))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in stab_gens:
        for x in range(q.degree):
            rx, ry = find(x), find(int(g[x]))
            if rx != ry:
                parent[ry] = rx
    sizes: Dict[int, int] = {}
    for x in range(q.degree):
        r = find(x)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.values())


# -- ambient orders and Hausdorff ratios ----------------------------------


def full_aut_order(group: GroupDefinition, level: int) -> int:
    """|Aut(T)_n| = m_1! (m_2!)^{m_1} (m_3!)^{m_1 m_2} ..."""
    total = 1
    width = 1
    for i in range(level):
        total *= factorial(group.shape.branching(i)) ** width
        width *= group.shape.branching(i)
    return total


def sylow_wreath_order(group: GroupDefinition, level: int) -> int:
    """Order of the level quotient of the iterated wreath power of C_m,
    m the root branching index."""
    width = 1
    exponent = 0
    for i in range(level):
        exponent += width
        width *= group.shape.branching(i)
    return group.shape.branching(0) ** exponent


def hausdorff_ratio(group: GroupDefinition, level: int,
                    ambient: str = "sylow") -> float:
    """log|G_n| / log|W_n| for the ambient closure W at the same level.

    ambient='sylow' measures inside the iterated wreath power of the
    cyclic group of order m = root branching index; it is the exact ratio
    of `hausdorff_ratio_exact`, rounded once.  For binary shapes this *is*
    the full automorphism group.  ambient='full' uses Aut(T) with full
    symmetric groups at every vertex.
    """
    if ambient == "sylow":
        return float(hausdorff_ratio_exact(group, level))
    if ambient != "full":
        raise ValueError(f"unknown ambient {ambient!r}")
    _check_hausdorff_level(level)
    return log(level_quotient(group, level).order()) / log(full_aut_order(group, level))


def _check_hausdorff_level(level: int):
    if level < 1:
        raise ValueError(f"the Hausdorff ratio needs level >= 1, got {level}")


def hausdorff_ratio_exact(group: GroupDefinition, level: int) -> Fraction:
    """Exact ratio of the exponents of |G_n| and |W_n| (sylow ambient) in
    the prime p dividing the root branching index; ValueError unless both
    orders are powers of p."""
    _check_hausdorff_level(level)
    p = _root_prime(group)
    what = f"order is not a power of {p}"
    return Fraction(_p_exponent(level_quotient(group, level).order(), p, what),
                    _p_exponent(sylow_wreath_order(group, level), p, what))


def format_order(n: int) -> str:
    """Print a prime power as p^e, otherwise decimal."""
    for p in range(2, 1000):
        if n % p == 0:
            try:
                e = _p_exponent(n, p, "not a prime power")
            except ValueError:
                break
            return f"{p}^{e}" if e > 1 else str(n)
    return str(n)
