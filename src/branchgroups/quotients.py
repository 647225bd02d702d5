"""Finite level quotients as permutation groups.

The quotient G_n = G/Stab(L_n) acts on the m_1*...*m_n level-n vertices
(lexicographic order).  Two engines answer for it:

* Layered sequences, when G_n lies in W_n(p), the iterated wreath power
  of C_p: the branching is one prime p at every level < n and every
  generator image rotates the children of each vertex (checked once, on
  the generator images, when the quotient is first asked).  The level
  stabilizers then give a normal series whose factors embed linearly in
  F_p^(p^i), and a `LayeredSequence` keeps an echelon basis per factor:
  its pivots, its echelon rows, and one (p, r, degree) int32 stack whose
  line 0 holds the rows' elements h and line a the perms h^-a, so one
  flat gather multiplies a set of perms by any h^-a.  A sequence is
  closed by working off one queue per layer, each as one batch of its
  non-identity perms; the last layer's rows are built from their vectors.
  The order, the normal closures, the lower central and derived series,
  the rigid stabilizers and membership are all read from such sequences.
* A deterministic Schreier-Sims stabilizer chain otherwise (G2, GS_m for
  a composite m, mixed arities, non-rotating generators): base points are
  the first moved point (optionally prescribed), generators are processed
  in a fixed order and every Schreier generator is sifted, so runs are
  reproducible bit for bit.  A chain level keeps its base point, its
  orbit, a transversal element and its inverse per orbit point, and its
  generators.

Every subgroup is a `SubgroupHandle`: its generators, its order once
known, and the quotient's one engine.  On a p-group quotient membership
(`SubgroupHandle.contains`) sifts the perm through the handle's layered
sequence, from layer `depth` on: the sequence it was read from, or one
closed from its generators when first asked.  Elsewhere it sifts through
a chain built from the generators.  `pointwise_stabilizer` reads its
generators and order from a chain with the points as prescribed base, on
either kind of quotient.  Suborbits come from Schreier generators of the
basepoint stabilizer and need neither engine.

The quotient is the depth-0 handle over the generator images, and
`level_quotient` keeps one per (group, level) on the group.  Its lower
central and derived series grow as they are asked (G' is the handle of
gamma_2).  Everything else built on it lives in one store,
`LevelQuotient.kept`: the layered prime, the rigid stabilizer of each
vertex, the rigid level stabilizer of each depth, the generators of each
level stabilizer, the suborbit profile of each basepoint and the
eigenvalues of the level's sum-zero spectrum block (`spectra`).  Each is
built once, lives as long as the quotient and is read-only.  Permutations
are numpy int32 arrays composed by fancy indexing; group orders are exact
Python integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, log
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .automorphisms import TreeAutomorphism
from .errors import ResourceBoundExceeded
from .groups import GroupDefinition, least_prime, p_exponent

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
    """One level of the chain: its base point, the orbit points in the
    order found, a transversal element and its inverse per orbit point,
    the generators and two cursors per generator.

    ``gens`` are all strong generators fixing the base prefix above this
    level (each also appears in the lists of the shallower levels).
    ``orbit_cursor[gi]``/``pair_cursor[gi]`` record how many orbit points
    have been expanded/Schreier-checked with generator gi; orbits and
    generator lists only grow, so processed work never needs redoing.
    """

    __slots__ = ("point", "points", "transversal", "inv_transversal",
                 "gens", "orbit_cursor", "pair_cursor")

    def __init__(self, point: int, identity: np.ndarray):
        self.point = point
        self.points = [point]
        self.transversal = {point: identity}
        self.inv_transversal = {point: identity}
        self.gens: List[np.ndarray] = []
        self.orbit_cursor: List[int] = []
        self.pair_cursor: List[int] = []


class StabilizerChain:
    """Deterministic Schreier-Sims stabilizer chain.

    Generators are processed in a fixed order and every Schreier
    generator is sifted exactly once (work cursors make revisits cheap);
    a Schreier generator that once sifted to the identity stays inside
    the deeper subgroup because subgroups only grow, so the processing
    order does not affect correctness.  The same holds for a repeated
    Schreier generator: it sifts to the identity and installs nothing.
    No randomization anywhere.
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

    def _install(self, perm: np.ndarray, start: int = 0) -> None:
        """Attach a nontrivial permutation at its level (extending the
        base when it fixes every current base point)."""
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

    def _extend_orbit(self, i: int) -> None:
        """Expand the orbit of level i with any unprocessed (point, gen)
        pairs."""
        lv = self.levels[i]
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
                        changed = True

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
                if sg.tobytes() == self._id_bytes:
                    continue
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
    return chain


def _layered_prime(group: GroupDefinition, level: int,
                   gens: Sequence[np.ndarray]) -> Optional[int]:
    """p when the level quotient lies in W_n(p), else None.

    That holds when the branching is one prime p at every level below
    `level` and each generator image rotates the children of every vertex
    of depth < level: child y of a vertex goes to child y + r of its image,
    r fixed per vertex.  W_n(p) is a group, so the generators decide it.
    """
    p = group.shape.branching(0)
    if least_prime(p) != p or any(group.shape.branching(i) != p for i in range(level)):
        return None
    for g in gens:
        for j in range(level):
            w = p ** (level - j - 1)
            # the first leaf below each child of each depth-j vertex
            children = g[np.arange(p ** (j + 1)) * w] // w
            turns = (children.reshape(-1, p) - np.arange(p)) % p
            if (turns != turns[:, :1]).any():
                return None
    return p


def _depth_layer(p: int, level: int, depth: int, vertices: np.ndarray):
    """(leaves, width) of the rotations at the given depth-`depth` vertices:
    the first leaf below each vertex, and the number of leaves below each
    of its children."""
    return vertices * p ** (level - depth), p ** (level - depth - 1)


def _stack(perms, degree: int) -> np.ndarray:
    return np.asarray(perms, dtype=np.int32).reshape(len(perms), degree)


def _powers(g: np.ndarray, n: int) -> np.ndarray:
    """g^1, g^2, ..., g^n, one per row."""
    out = np.empty((n, len(g)), dtype=g.dtype)
    out[0] = g
    for k in range(1, n):
        out[k] = g[out[k - 1]]
    return out


def _pinv_rows(perms: np.ndarray) -> np.ndarray:
    out = np.empty_like(perms)
    np.put_along_axis(out, perms, np.arange(perms.shape[1], dtype=perms.dtype), axis=1)
    return out


def _pair_indices(js: np.ndarray, starts, stops):
    """(jj, ll) listing the pairs (j, l) for j in js and l in [start_j,
    stop_j), in that order."""
    counts = np.full(len(js), stops - starts)
    jj = np.repeat(js, counts)
    return jj, np.arange(len(jj)) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _comm_pairs(h: np.ndarray, h_inv: np.ndarray, xs: np.ndarray, xs_inv: np.ndarray,
                jj: np.ndarray, ll: np.ndarray) -> np.ndarray:
    """[h_j, x_l] = h_j^-1 x_l^-1 h_j x_l for each pair (j, l) of the index
    arrays; composition is left-to-right application, so (g h)[i] =
    h[g[i]].  Made _PAIR_ROWS at a time, so the temporaries stay small;
    the stacks must be C-contiguous, as each gather is a flat take."""
    d = h.shape[1]
    out = np.empty((len(jj), d), dtype=h.dtype)
    for a in range(0, len(jj), _PAIR_ROWS):
        j, l = jj[a:a + _PAIR_ROWS], ll[a:a + _PAIR_ROWS, None] * d
        t = xs_inv.take(h_inv[j] + l)
        t = h.take(t + j[:, None] * d)
        out[a:a + _PAIR_ROWS] = xs.take(t + l)
    return out


def _row_blocks(seeds, degree: int):
    """The rows of the seeds, each a perm or a 2-D block of perms, in order
    and `_PENDING_ROWS` at a time."""
    held, count = [], 0
    for block in seeds:
        block = np.asarray(block, dtype=np.int32).reshape(-1, degree)
        while count + len(block) >= _PENDING_ROWS:
            cut = _PENDING_ROWS - count
            yield np.concatenate(held + [block[:cut]])
            held, count, block = [], 0, block[cut:]
        held.append(block)
        count += len(block)
    if count:
        yield np.concatenate(held)


def _unit_upper_inverse(u: np.ndarray, p: int) -> np.ndarray:
    """The inverse mod p of a unit upper triangular float64 matrix I + N:
    (I - N)(I + N^2)(I + N^4)..., until the power of the nilpotent N is 0."""
    eye = np.eye(len(u))
    n = u - eye
    inv = (eye - n) % p
    n = n @ n % p
    while n.any():
        inv = inv @ (eye + n) % p
        n = n @ n % p
    return inv


# perms that `LayeredSequence._close` lets wait in one layer's queue
_PENDING_ROWS = 4096
# commutator pairs `_comm_pairs` makes at once
_PAIR_ROWS = 512


class LayeredSequence:
    """Polycyclic sequence of a subgroup of W_n(p), one F_p layer at a time.

    The layers are the factors K_i / K_{i+1} of a series of subgroups of
    W_n(p), each normal in the group being closed.  Layer i reads, for an
    element of K_i, the rotations at a set of vertices that K_i fixes: the
    vector (g[leaves] // width - leaves // width) mod p.  On K_i that map is
    a homomorphism to F_p^k with kernel K_{i+1}, so each layer keeps an
    echelon basis of row vectors together with an element for each row
    (Sims, "Computing the order of a solvable permutation group", 1990;
    Holt, Eick and O'Brien 2005, ch. 8).  The standard series is the level
    stabilizers: layer i reads the rotations at the depth-i vertices.

    A sequence is built closed: the normal closure of the seeds under
    conjugation by `conj`, sifting each layer's queue as one batch.  One
    greedy elimination over the batch's residue vectors picks its new
    rows: each is the first vector, in batch order, that the rows before
    it do not strip to zero.  A new row h queues [h, s] for s in `conj`
    into its own layer, and h^p and [h, x] for the earlier rows x of that
    layer into the next one (the factor is elementary abelian).  The
    queues get these, and the perms each row strips to zero, in the order
    of a loop that adds one row at a time, so every row is that loop's.
    The order is p to the number of rows.  A layer keeps its pivots, one
    int32 stack of shape (p, r, degree) whose line 0 holds the elements h
    and line a the perms h^-a, and its echelon vectors (the rows of its
    `_dense` matrix); `elements[i]` is line 0 of layer i's stack.  The
    last layer reads the rotations just above the leaves, so its perms
    are fixed by their vectors: its batches strip only the vectors, and
    its lines are built from the echelon rows.
    """

    def __init__(self, p: int, degree: int, layers: Sequence[Tuple[np.ndarray, int]],
                 seeds, conj):
        self.p = p
        self.layers = list(layers)
        self.identity = np.arange(degree, dtype=np.int32)
        self.pivots: List[List[int]] = [[] for _ in self.layers]
        # per layer: the stack of h, h^-1, ..., h^-(p-1), one line each;
        # while the sequence closes it has room for more rows
        self._stacks = [np.empty((p, 0, degree), dtype=np.int32) for _ in self.layers]
        # per layer, once closed: the elements h, a view of line 0 of its stack
        self.elements: List[np.ndarray] = []
        # per layer, once it has a row: the echelon rows R (r x k) and the
        # inverse mod p of U = R[:, pivots] (r x r, unit upper triangular);
        # float64, so products run in BLAS (every sum is an integer below
        # 2^53).  While the sequence closes, both have room for k rows.
        self._dense: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(self.layers)
        self._close(seeds, conj)

    def dimension(self, start: int = 0, stop: Optional[int] = None) -> int:
        return sum(len(e) for e in self.elements[start:stop])

    def order(self, start: int = 0) -> int:
        """Order of the subgroup of the layers from `start` on."""
        return self.p ** self.dimension(start)

    def perms(self, start: int = 0, stop: Optional[int] = None) -> List[np.ndarray]:
        """The sequence elements of layers [start, stop), in order."""
        return [h for layer in self.elements[start:stop] for h in layer]

    def _vectors(self, i: int, batch: np.ndarray) -> np.ndarray:
        leaves, width = self.layers[i]
        return (batch[:, leaves] // width - leaves // width) % self.p

    def _times_inverse(self, i: int, perms: np.ndarray, j: int, a: np.ndarray) -> np.ndarray:
        """perms[m] * h_j^-a[m] for row j of layer i (a[m] in 1..p-1): one
        flat take from lines a of the layer's stack."""
        _, cap, degree = self._stacks[i].shape
        return self._stacks[i].take(perms + (a.astype(np.intp).reshape(-1, 1) * cap + j) * degree)

    def _strip(self, i: int, batch: Optional[np.ndarray], vecs: np.ndarray):
        """Strip layer i's rows out of the batch, in place: g -> g *
        h_0^-a_0 * h_1^-a_1 ..., for the rows' elements h, and v -> v -
        sum a_j R_j.  With no batch only the vectors are stripped: the
        last layer's perms are read from their vectors (see `_add_rows`)."""
        p, r = self.p, len(self.pivots[i])
        if not r:
            return
        # v = sum a_j R_j gives v[pivots] = a U, so a = v[pivots] U^-1
        rows, u_inv = self._dense[i]
        coeff = (vecs[:, self.pivots[i]] @ u_inv[:r, :r]).astype(vecs.dtype) % p
        hit = np.flatnonzero(coeff.any(axis=1))
        vecs[hit] = (vecs[hit] - (coeff[hit] @ rows[:r]).astype(vecs.dtype)) % p
        if batch is None:
            return
        coeff = coeff[hit]
        for j in np.flatnonzero(coeff.any(axis=0)):
            on = coeff[:, j] != 0
            batch[hit[on]] = self._times_inverse(i, batch[hit[on]], j, coeff[on, j])

    def sift(self, perms, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
        """The perms stripped through layers [start, stop), by default to the
        last: g = residue * e_m^a_m ... e_1^a_1 over those layers' elements.
        A member of the sequence's group in K_start leaves a residue in
        K_stop; a residue of the identity writes g as a product of sequence
        elements, whatever g was."""
        batch = _stack(perms, len(self.identity)).copy()
        for i in range(start, len(self.layers) if stop is None else stop):
            self._strip(i, batch, self._vectors(i, batch))
        return batch

    def _eliminate(self, i: int, vecs: np.ndarray, room: Optional[int]):
        """Pick a batch's new rows for layer i by greedy elimination over its
        residue vectors (zero at the layer's pivots): a row is the first
        vector, in batch order, that the rows before it leave nonzero.

        Returns (picked, strips, dead, rest): per row its source (an index
        into the batch), pivot, scale to pivot 1 and scaled vector; per row
        the perms it strips and their coefficients; the perms zero from
        the start, then per row those it leaves zero.  Once these and each
        row's p-th power and commutators with the earlier rows reach `room`
        (the free part of the next layer's queue, None on the last layer),
        it stops after picking that row: `rest` lists the perms still live."""
        p, r = self.p, len(self.pivots[i])
        vecs = vecs.astype(np.min_scalar_type(p * p))  # a + c (p - x) < p^2
        nonzero = vecs.any(axis=1)
        live = np.flatnonzero(nonzero)
        dead = [np.flatnonzero(~nonzero)]
        spent = len(dead[0])
        picked, strips = [], []
        while len(live):
            src, live = live[0], live[1:]
            v = vecs[src]
            piv = int(v.nonzero()[0][0])
            scale = pow(int(v[piv]), -1, p)
            row = v if scale == 1 else v * scale % p
            picked.append((src, piv, scale, row))
            if room is not None:  # h^p and [h, x] for the earlier rows x
                spent += r + len(picked)
                if spent >= room:
                    return picked, strips, dead, live
            c = vecs[:, piv][live]
            on = c.nonzero()[0]
            hit, coeff = live[on], c[on][:, None]
            # over F_2 every coefficient is 1
            w = vecs[hit] ^ row if p == 2 else (vecs[hit] + coeff * (p - row)) % p
            vecs[hit] = w
            strips.append((hit, coeff))
            gone = on[~w.any(axis=1)]
            dead.append(live[gone])
            spent += len(gone)
            if len(gone):
                keep = np.ones(len(live), dtype=bool)
                keep[gone] = False
                live = live[keep]
        return picked, strips, dead, None

    def _add_rows(self, i: int, batch: np.ndarray, picked, strips):
        """Make the picked perms of the batch rows of layer i, in order:
        h = g^scale for the source g, which the rows before it have
        stripped, then strip h out of the perms it strips.  h, h^-1, ...,
        h^-(p-1) go to the layer's stack, which doubles when full; R and
        U^-1 grow by block.

        On the last layer a perm only rotates the p leaves below each of
        the layer's vertices, so it is fixed by its vector and products add
        vectors: the lines are built at once from the rows, as the vectors
        R_j and -a R_j, and the batch and the strips are not read."""
        p, r0 = self.p, len(self.pivots[i])
        r = r0 + len(picked)
        stack = self._stacks[i]
        if stack.shape[1] < r:
            grown = np.empty((p, max(2 * stack.shape[1], r), len(self.identity)), np.int32)
            grown[:, :r0] = stack[:, :r0]
            stack = self._stacks[i] = grown
        if i == len(self.layers) - 1:
            leaves, width = self.layers[i]
            if width != 1:
                raise ValueError(f"the last layer reads rotations {width} leaves wide, not 1")
            times = -np.arange(p, dtype=np.int32)
            times[0] = 1  # line 0 holds h, line a holds h^-a
            shift = times[:, None, None] * np.array([row for _, _, _, row in picked], np.int32)
            y = np.arange(p, dtype=np.int32)
            base = leaves.astype(np.int32)[:, None]
            lines = stack[:, r0:r]
            lines[:] = self.identity
            lines[:, :, base + y] = base + (y + shift[..., None]) % p
        else:
            for j, (src, _, scale, _) in enumerate(picked):
                lines = stack[:, r0 + j]
                lines[0] = batch[src] if scale == 1 else _powers(batch[src], scale)[-1]
                lines[1][lines[0]] = self.identity
                for a in range(2, p):
                    lines[a] = lines[1][lines[a - 1]]
                if j < len(strips) and len(strips[j][0]):
                    hit, coeff = strips[j]
                    batch[hit] = self._times_inverse(i, batch[hit], r0 + j, coeff)
        pivots = [piv for _, piv, _, _ in picked]
        if not r0:
            k = len(self.layers[i][0])
            self._dense[i] = (np.zeros((k, k)), np.zeros((k, k)))
        rows, u_inv = self._dense[i]
        rows[r0:r] = [row for _, _, _, row in picked]
        # U = [[U_00, U_01], [0, U_11]]: the new rows are zero at the old
        # pivots and U_11 is unit upper triangular, so U^-1 has the blocks
        # U_00^-1, -U_00^-1 U_01 U_11^-1 and U_11^-1
        inv = _unit_upper_inverse(rows[r0:r, pivots], p)
        u_inv[r0:r, r0:r] = inv
        u_inv[:r0, r0:r] = (-(u_inv[:r0, :r0] @ rows[:r0, pivots]) % p) @ inv % p
        self.pivots[i].extend(pivots)

    def _sift_batch(self, i: int, batch: np.ndarray, room: Optional[int],
                    conj: np.ndarray, conj_inv: np.ndarray):
        """Sift a batch of non-identity perms of K_i and add its new rows;
        yield (layer, perms) to queue, in the order of a loop that adds one
        row at a time.  That loop queues the perms zero from the start into
        layer i + 1; then per row h_j it queues [h_j, s] for s in conj into
        layer i, and h_j^p and [h_j, x] for the earlier rows x into layer
        i + 1, strips h_j out of the rest and queues the perms it leaves
        zero into layer i + 1, until it puts the rest back into layer i (see
        `_eliminate`).  Here the commutators and powers of all new rows are
        made by stacked gathers, and the perms that row j leaves zero, those
        whose last nonzero coefficient is row j's, are gathered last."""
        last = len(self.layers) - 1
        vecs = self._vectors(i, batch)
        self._strip(i, None if i == last else batch, vecs)
        picked, strips, dead, rest = self._eliminate(i, vecs, room)
        r0 = len(self.pivots[i])
        r = r0 + len(picked)
        if picked:
            self._add_rows(i, batch, picked, strips)
            h, h_inv = self._stacks[i][:2, :r]
            yield i, _comm_pairs(h, h_inv, conj, conj_inv,
                                 *_pair_indices(np.arange(r0, r), 0, len(conj)))
        if rest is not None:
            yield i, batch[rest]  # the rest waits for the deeper queue
        if i == last:
            return
        zero = batch[np.concatenate(dead)]
        z = list(accumulate(map(len, dead), initial=0))
        if picked:
            d = len(self.identity)
            power = h[r0:]
            for _ in range(self.p - 1):
                power = h.take(power + np.arange(r0 * d, r * d, d)[:, None])
            earlier = np.arange(r0, r)
            comms = _comm_pairs(h, h_inv, h, h_inv, *_pair_indices(earlier, 0, earlier))
            c = list(accumulate(earlier, initial=0))
            for j in range(len(picked)):
                yield i + 1, zero[z[j]:z[j + 1]]
                yield i + 1, power[j:j + 1]
                yield i + 1, comms[c[j]:c[j + 1]]
        if rest is None:
            yield i + 1, zero[z[-2]:]

    def _close(self, seeds, conj):
        """Close the empty sequence to the normal closure of the seeds (an
        iterable of perms or 2-D blocks of perms) under conjugation by
        `conj`; each seed must lie in K_0, and conj must normalize every
        K_i.  Identity conjugators are dropped first.  A queued element is a
        member once sifted, whatever is added later, so the order in which
        the layers' queues are worked off does not matter.  The shallowest
        queue goes first, unless a deeper one holds `_PENDING_ROWS` perms:
        then the deepest such one.  Seeds are taken `_PENDING_ROWS` at a
        time, once every queue is empty.  Both bound the memory held by
        waiting perms, such as the same-layer commutators or the pairs of a
        derived subgroup.

        A queue is worked off as one batch of its non-identity perms
        (`_sift_batch`); on the last layer only their vectors are read.
        While the sequence closes, each layer's stack and `_dense` pair
        have room for more rows; last, both are cut to the layer's rows,
        and `elements[i]` is line 0 of the cut stack."""
        last = len(self.layers) - 1
        if last < 0:
            return
        degree = len(self.identity)
        conj = _stack(conj, degree)
        conj = conj[(conj != self.identity).any(axis=1)]
        conj_inv = _pinv_rows(conj)
        pending: List[List[np.ndarray]] = [[] for _ in self.layers]
        queued = [0] * len(self.layers)

        def queue(i: int, perms: np.ndarray):
            if i <= last and len(perms):
                pending[i].append(perms)
                queued[i] += len(perms)

        seeds = _row_blocks(seeds, degree)
        while True:
            if not any(queued):
                queue(0, next(seeds, ()))
                if not queued[0]:
                    break
            full = [i for i in range(last + 1) if queued[i] >= _PENDING_ROWS]
            i = full[-1] if full else next(i for i in range(last + 1) if queued[i])
            batch = self._nontrivial(np.concatenate(pending[i]))
            pending[i], queued[i] = [], 0
            room = _PENDING_ROWS - queued[i + 1] if i < last else None
            for layer, perms in self._sift_batch(i, batch, room, conj, conj_inv):
                queue(layer, perms)
            del batch  # before the next batch is built
        for i, r in enumerate(map(len, self.pivots)):
            if self._stacks[i].shape[1] > r:
                self._stacks[i] = self._stacks[i][:, :r].copy()
        self.elements = [stack[0] for stack in self._stacks]
        self._dense = [None if d is None else (d[0][:r].copy(), d[1][:r, :r].copy())
                       for d, r in zip(self._dense, map(len, self.pivots))]

    def _nontrivial(self, batch: np.ndarray) -> np.ndarray:
        """The non-identity rows of the batch, in order.  A repeated perm
        stays: the rows before it strip it to zero."""
        return batch[(batch != self.identity).any(axis=1)]


class SubgroupHandle:
    """A subgroup of a level quotient: generators, the order once known,
    and the quotient's engine for order and membership.

    On a quotient in W_n(p) that is a layered sequence whose layers from
    `depth` on are the subgroup: the sequence it was read from, or one
    closed from the generators when first needed.  A perm is a member iff
    sifting it from layer `depth` leaves the identity.  On any other
    quotient it is a stabilizer chain: the one a normal closure grew, or
    one built from the generators when first needed."""

    def __init__(self, parent: LevelQuotient, gens: Sequence[np.ndarray],
                 sequence: Optional[LayeredSequence] = None, depth: int = 0,
                 order: Optional[int] = None, chain: Optional[StabilizerChain] = None):
        self.parent = parent
        self.gens = [np.asarray(g, dtype=np.int32) for g in gens]
        self._sequence = sequence
        self.depth = depth
        self._order = order
        self._chain = chain

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = chain_from_generators(self.parent.degree, self.gens)
        return self._chain

    def sequence(self) -> LayeredSequence:
        if self._sequence is None:
            self._sequence = self.parent.closed_sequence(self.gens, self.gens)
        return self._sequence

    def order(self) -> int:
        if self._order is None:
            self._order = (self.sequence().order(self.depth) if self.parent.layered_prime()
                           else self.chain().order())
        return self._order

    def index(self) -> int:
        return self.parent.order() // self.order()

    def contains(self, perm: np.ndarray) -> bool:
        if not self.parent.layered_prime():
            return self.chain().contains(perm)
        seq = self.sequence()
        return np.array_equal(seq.sift([perm], self.depth)[0], seq.identity)


class LevelQuotient(SubgroupHandle):
    """The group's action on one tree level; its own parent."""

    def __init__(self, group: GroupDefinition, level: int):
        self.group = group
        self.level = level
        self.degree = group.shape.level_size(level)
        super().__init__(self, [_state_images(x, level) for x in group.canonical_letters])
        self._lower_central: List[SubgroupHandle] = [self]
        self._derived: List[SubgroupHandle] = [self]
        self._kept: Dict = {}

    def kept(self, key, build):
        """What the quotient keeps under `key`, made by `build()` the first
        time it is asked.  Read-only: callers share it."""
        try:
            return self._kept[key]
        except KeyError:
            value = self._kept[key] = build()
            return value

    def layered_prime(self) -> Optional[int]:
        """p when G_n lies in W_n(p), so layered sequences serve; None when
        the chain serves (decided once, on the generator images)."""
        return self.kept("layered prime", lambda: _layered_prime(self.group, self.level, self.gens))

    def closed_sequence(self, seeds, conj, layers=None) -> LayeredSequence:
        """The sequence of the normal closure of the seeds under conjugation
        by `conj`, over the given layers, by default the level stabilizers
        (layer i reads the rotations at the depth-i vertices)."""
        p, n = self.layered_prime(), self.level
        if layers is None:
            layers = [_depth_layer(p, n, i, np.arange(p ** i)) for i in range(n)]
        return LayeredSequence(p, self.degree, layers, seeds, conj)

    def perm_of_word(self, word) -> np.ndarray:
        p = np.arange(self.degree, dtype=np.int32)
        for letter in self.group.word(word).letters:
            p = _state_images(letter, self.level)[p]
        return p

    def perm_of_state(self, state: TreeAutomorphism) -> np.ndarray:
        return _state_images(state, self.level)


# most vertices of a level that a level quotient or a Schreier graph is built on
LEVEL_DEGREE_CAP = 1 << 17


def check_level_degree(group: GroupDefinition, level: int) -> None:
    """Raise ResourceBoundExceeded, before anything is allocated, when the
    level has more than LEVEL_DEGREE_CAP vertices."""
    if level < 0:
        raise ValueError(f"level must be non-negative, got {level}")
    size = 1
    for i in range(level):
        size *= group.shape.branching(i)
        if size > LEVEL_DEGREE_CAP:
            raise ResourceBoundExceeded(
                f"level {level} has more than {LEVEL_DEGREE_CAP} vertices, the bound "
                "on the level degree (quotients.LEVEL_DEGREE_CAP)")


def level_quotient(group: GroupDefinition, level: int) -> LevelQuotient:
    """The group's level quotient, built once and kept on the group; callers
    share it and must treat it (and its chain) as read-only."""
    q = group._quotients.get(level)
    if q is None:
        check_level_degree(group, level)
        q = group._quotients[level] = LevelQuotient(group, level)
    return q


# -- normal closures, commutators, series -------------------------------

def _chain_closure(q: LevelQuotient, seeds: Sequence[np.ndarray]) -> SubgroupHandle:
    """Normal closure by growing a stabilizer chain, one conjugate at a time."""
    sub = StabilizerChain(q.degree)
    gens: List[np.ndarray] = []
    work = [g for s in seeds for g in np.asarray(s, dtype=np.int32).reshape(-1, q.degree)]
    conj = [(c, _pinv(c)) for c in q.gens]
    while work:
        g = work.pop()
        if not sub.add_generator(g):
            continue
        gens.append(g)
        for c, cinv in conj:
            work.append(c[g[cinv]])
    return SubgroupHandle(q, gens, order=sub.order(), chain=sub)


def normal_closure(q: LevelQuotient, seeds: Sequence[np.ndarray]) -> SubgroupHandle:
    """Normal closure of the seeds under conjugation by the group generators:
    a layered sequence when G_n lies in W_n(p), else a stabilizer chain."""
    if not q.layered_prime():
        return _chain_closure(q, seeds)
    seq = q.closed_sequence(seeds, q.gens)
    return SubgroupHandle(q, seq.perms(), seq)


def commutator_subgroup(q: LevelQuotient, h1_gens: Sequence[np.ndarray],
                        h2_gens: Sequence[np.ndarray]) -> SubgroupHandle:
    """Normal closure of the commutators of the given generating sets."""
    ys = _stack(h2_gens, q.degree)
    ys_inv = _pinv_rows(ys)
    same = h1_gens is h2_gens
    step = max(1, _PAIR_ROWS // max(1, len(ys)))

    def seeds():
        for a in range(0, len(h1_gens), step):
            if same:
                xs, xs_inv = ys[a:a + step], ys_inv[a:a + step]
            else:
                xs = _stack(h1_gens[a:a + step], q.degree)
                xs_inv = _pinv_rows(xs)
            js = np.arange(len(xs))
            # one generating set: [x, x] = 1 and [y, x] = [x, y]^-1, so one
            # commutator per pair
            yield _comm_pairs(xs, xs_inv, ys, ys_inv,
                              *_pair_indices(js, js + a + 1 if same else 0, len(ys)))

    return normal_closure(q, seeds())


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


def lower_central_ranks(group: GroupDefinition, level: int, kmax: int) -> List[int]:
    """log_p |gamma_k / gamma_{k+1}| in the level quotient, k = 1..kmax.

    p is the prime dividing the root branching index; ValueError when an
    index is not a power of p.  An entry is the F_p-rank of the factor
    only when the factor is elementary abelian, as for Gg: for G2 at
    level 3 the first entry is 4, but a^2 is not in gamma_2, so G/gamma_2
    of order 2^4 has rank 2.
    """
    p = least_prime(group.shape.branching(0))
    series = _series(level_quotient(group, level), kmax, derived=False)
    ranks = [p_exponent(series[k].order() // series[k + 1].order(), p,
                        f"gamma_{k + 1}/gamma_{k + 2} is not a {p}-group")
             for k in range(min(kmax, len(series) - 1))]
    return ranks + [0] * (kmax - len(ranks))


# most lower central terms `nilpotency_class` computes
NILPOTENCY_CLASS_CAP = 128


def nilpotency_class(group: GroupDefinition, level: int) -> int:
    """Least c with gamma_{c+1} trivial in the level quotient."""
    series = _series(level_quotient(group, level), NILPOTENCY_CLASS_CAP, derived=False)
    for k, h in enumerate(series):
        if h.order() == 1:
            return k
    raise ResourceBoundExceeded(f"nilpotency class exceeds {NILPOTENCY_CLASS_CAP} "
                                "(quotients.NILPOTENCY_CLASS_CAP)")


# -- rigid stabilizers, parabolic suborbits ------------------------------


def pointwise_stabilizer(q: LevelQuotient, points: Sequence[int]) -> SubgroupHandle:
    """Subgroup fixing every listed point: generators and order read from
    the tail of a chain based at those points (Holt, Eick and O'Brien
    2005, 4.4)."""
    chain = chain_from_generators(q.degree, q.gens, base_prescription=points)
    return SubgroupHandle(q, chain.stabilizer_generators(len(points)),
                          order=chain.order(len(points)))


def _vertex_index(shape, level: int, vertex: Tuple[int, ...]) -> int:
    """Position of a level-`level` vertex in lexicographic order."""
    shape.check_vertex(vertex)
    if len(vertex) != level:
        raise ValueError(f"vertex of length {len(vertex)} is not on level {level}")
    index = 0
    for k, y in enumerate(vertex):
        index = index * shape.branching(k) + y
    return index


def _stabilizer_generators(q: LevelQuotient, depth: int) -> List[np.ndarray]:
    """Generators of the level stabilizer Stab_G(depth), kept per depth.

    The sequence's elements below layer `depth` generate it.  When the
    index times the number of generators is smaller, the Schreier
    generators serve instead (fewer conjugators for a closure): the
    residues of t*s for s a generator and t a normal word
    e_m^a_m ... e_1^a_1 over the layers above `depth`, the
    representative that `LayeredSequence.sift` strips.
    """
    def build():
        seq = q.sequence()
        gens = seq.perms(depth)
        if seq.p ** seq.dimension(0, depth) * len(q.gens) < len(gens):
            words = seq.identity[None]
            for e in seq.perms(0, depth):
                words = np.concatenate([words] + [words[:, e_a] for e_a in _powers(e, seq.p - 1)])
            gens = list(seq.sift(np.concatenate([s[words] for s in q.gens]), stop=depth))
        return gens

    return q.kept(("stabilizer generators", depth), build)


def _layered_rist(q: LevelQuotient, vertex: Tuple[int, ...]) -> SubgroupHandle:
    """rist(v) as the tail of a sequence of Stab_G(d), d = |v|, over the
    rotations at the vertices of depths d..n-1 outside v's subtree first,
    depth by depth, then at those inside it.  Stab_G(d) fixes v, so each
    term (the elements with zero rotations so far) is normal in it, and
    the terms past the outside layers fix every leaf outside the subtree.
    """
    p, n, d = q.layered_prime(), q.level, len(vertex)
    if not d:  # the root's rist is the quotient, with the quotient's sequence
        seq = q.sequence()
        return SubgroupHandle(q, seq.perms(), seq)
    v = _vertex_index(q.group.shape, d, vertex)
    outside, inside = [], []
    for j in range(d, n):
        k = np.arange(p ** j)
        mine = k // p ** (j - d) == v
        if d:
            outside.append(_depth_layer(p, n, j, k[~mine]))
        inside.append(_depth_layer(p, n, j, k[mine]))
    gens = _stabilizer_generators(q, d)
    seq = q.closed_sequence(gens, gens, outside + inside)
    return SubgroupHandle(q, seq.perms(len(outside)), seq, len(outside))


def rigid_stabilizer(group: GroupDefinition, level: int,
                     vertex: Tuple[int, ...]) -> SubgroupHandle:
    """Elements fixing every level vertex outside the subtree at `vertex`;
    built once per vertex and kept on the quotient."""
    vertex = tuple(vertex)
    group.shape.check_vertex(vertex)
    if len(vertex) > level:
        raise ValueError(f"vertex of length {len(vertex)} lies below level {level}")
    q = level_quotient(group, level)

    def build():
        if q.layered_prime():
            return _layered_rist(q, vertex)
        outside = [i for i, v in enumerate(group.shape.vertices(level))
                   if v[:len(vertex)] != vertex]
        return pointwise_stabilizer(q, outside)

    return q.kept(("rigid stabilizer", vertex), build)


def rigid_level_stabilizer(group: GroupDefinition, level: int,
                           depth: int) -> SubgroupHandle:
    """Product of the rigid stabilizers of all depth-`depth` vertices; built
    once per depth and kept on the quotient.

    One rigid stabilizer per orbit of depth-`depth` vertices: with t in
    G_n carrying v to u, rist(u) = rist(v)^t.  Vertex i owns the level
    points [i*w, (i+1)*w), so a breadth-first search over the generators
    on these blocks finds each t.  The supports are disjoint, so the
    order is the product of the vertices' orders.
    """
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    q = level_quotient(group, level)

    def build():
        verts = group.shape.vertices(depth)
        w = q.degree // len(verts)
        parts: Dict[int, List[np.ndarray]] = {}
        order = 1
        for root, v in enumerate(verts):
            if root in parts:
                continue
            rist = rigid_stabilizer(group, level, v)
            parts[root] = rist.gens
            queue = [(root, np.arange(q.degree, dtype=np.int32))]
            for i, t in queue:
                for c in q.gens:
                    j = int(c[i * w]) // w
                    if j not in parts:
                        tj = c[t]  # carries block root to block j
                        tinv = _pinv(tj)
                        parts[j] = [tj[g[tinv]] for g in rist.gens]
                        queue.append((j, tj))
            order *= rist.order() ** len(queue)
        gens = [g for i in range(len(verts)) for g in parts[i]]
        return SubgroupHandle(q, gens, order=order)

    return q.kept(("rigid level stabilizer", depth), build)


# rows of Schreier generators made and joined at once by `_stabilizer_orbit_sizes`
_ORBIT_ROWS = 256


def _stabilizer_orbit_sizes(q: LevelQuotient, pt: int) -> Tuple[int, ...]:
    """Sorted orbit sizes of the stabilizer of `pt` on the level.

    The stabilizer is generated by the Schreier generators
    t_x s t_{s(x)}^-1 over a breadth-first transversal t of pt's orbit
    (t_x carries pt to x).  They are made _ORBIT_ROWS rows at a time, and
    each block joins the orbits found so far (union-find): every point
    points at the least point of its orbit, and while some generator
    maps a point into another orbit, the larger of the two least points
    is hooked under the smaller.
    """
    identity = np.arange(q.degree, dtype=np.int32)
    orbit, rows, row_of = [pt], [identity], {pt: 0}
    for r, x in enumerate(orbit):
        for s in q.gens:
            y = int(s[x])
            if y not in row_of:
                row_of[y] = len(orbit)
                orbit.append(y)
                rows.append(s[rows[r]])
    trans = _stack(rows, q.degree)
    del rows
    trans_inv = _pinv_rows(trans)
    points = np.array(orbit)
    root = np.arange(q.degree, dtype=np.int32)
    for s in q.gens:
        for k in range(0, len(orbit), _ORBIT_ROWS):
            back = [row_of[int(y)] for y in s[points[k:k + _ORBIT_ROWS]]]
            block = np.take_along_axis(trans_inv[back], s[trans[k:k + _ORBIT_ROWS]], axis=1)
            while True:
                ends = root[block]
                apart = ends != root  # x and its image lie in different orbits
                if not apart.any():
                    break
                ends, starts = ends[apart], np.broadcast_to(root, block.shape)[apart]
                np.minimum.at(root, np.maximum(ends, starts), np.minimum(ends, starts))
                while True:  # point every point at its root again
                    up = root[root]
                    if np.array_equal(up, root):
                        break
                    root = up
    counts = np.bincount(root)
    return tuple(sorted(int(c) for c in counts[counts > 0]))


def suborbit_profile(group: GroupDefinition, level: int,
                     basepoint: Optional[Tuple[int, ...]] = None) -> List[int]:
    """Orbit sizes of the basepoint stabilizer on the level, sorted; built
    once per basepoint and kept on the quotient.

    The default basepoint is the rightmost vertex (m, m, ..., m), the
    level-n stage of the spine ray.
    """
    q = level_quotient(group, level)
    if basepoint is None:
        basepoint = tuple(group.shape.branching(i) - 1 for i in range(level))
    pt = _vertex_index(group.shape, level, tuple(basepoint))
    return list(q.kept(("suborbits", pt), lambda: _stabilizer_orbit_sizes(q, pt)))


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
    p = least_prime(group.shape.branching(0))
    what = f"order is not a power of {p}"
    return Fraction(p_exponent(level_quotient(group, level).order(), p, what),
                    p_exponent(sylow_wreath_order(group, level), p, what))


def format_order(n: int) -> str:
    """Print a prime power as p^e, otherwise decimal.  The orders printed
    are those of level quotients, whose primes are at most the largest
    branching index."""
    if n > 1:
        p = least_prime(n)
        try:
            e = p_exponent(n, p, "not a prime power")
        except ValueError:
            return str(n)
        if e > 1:
            return f"{p}^{e}"
    return str(n)
