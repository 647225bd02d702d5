"""The coset-set conjugacy algorithm for the first Grigorchuk group.

For g, h the set Q(g, h) = { Kf : g^f = h } of solution cosets of
K = <(ab)^2>^Gg (index 16) is computed by recursion on first-level
sections: when both words stabilize the first level the solutions
combine coordinatewise, otherwise the pair (g_1g_2, h_1h_2) or
(g_1g_2, h_2h_1) is consulted and the second coordinate of f is
determined by the first.  Section pairs (f_1, f_2) recombine only when
the pair lifts into the group, i.e. lies in the image of the first-level
stabilizer; because K x K is contained in psi(K), lifting and the coset
of the lift depend only on (Kf_1, Kf_2), so a 16 x 16 lift table decides
everything.

Words are read in the level-(n_K + 1) quotient G_{n_K+1}, n_K being the
first level at which K's image has index 16 (then Stab(L_{n_K}) <= K):
its 4096 elements are numbered coset by coset, with tables of right
multiplication and conjugation by each letter and a label per conjugacy
class, so a word's element is one table walk and its coset that
element's projection.  G -> G_{n_K+1} being a homomorphism, the element
refutes before the word problem is asked: an image other than 1 is not
trivial, images in different classes are not conjugate (Q = {}, no
sections computed), and a short witness f is tested only when it
conjugates g's image to h's.

Recursion on pairs can cycle (sections need not shrink); the induced
monotone set equations are solved by least-fixpoint iteration starting
from empty sets.  The fixpoint table persists across queries; recipes are
fixed at creation, so a query evaluates only the nodes it creates and their
dependents.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .decision import is_trivial
from .groups import Word, builtin
from .quotients import level_quotient, normal_closure

FULL = frozenset(range(16))


class CosetSet:
    """A subset of the 16 cosets of K, named by canonical transversal words."""

    def __init__(self, ids: Set[int], context: "GgConjugacy"):
        self.ids = frozenset(ids)
        self._ctx = context

    def __bool__(self):
        return bool(self.ids)

    def __len__(self):
        return len(self.ids)

    def __contains__(self, item):
        if isinstance(item, int):
            return item in self.ids
        return self._ctx.coset_of_word(item) in self.ids

    def __eq__(self, other):
        return isinstance(other, CosetSet) and self.ids == other.ids

    def names(self) -> List[str]:
        return [self._ctx.coset_names[i] for i in sorted(self.ids)]

    def inverse(self) -> "CosetSet":
        return CosetSet({self._ctx.inv[i] for i in self.ids}, self._ctx)

    def __repr__(self):
        return "{" + ", ".join("K" + (n if n != "1" else "") for n in self.names()) + "}"


class GgConjugacy:
    """Shared context: quotient, element numbering, letter and coset tables."""

    _instance: Optional["GgConjugacy"] = None

    @classmethod
    def instance(cls) -> "GgConjugacy":
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance

    def __init__(self):
        self.group = builtin("Gg")
        self.n_k = self._find_membership_level()
        self.level = self.n_k + 1
        self.quotient = level_quotient(self.group, self.level)
        self.k_image = normal_closure(
            self.quotient, [self.quotient.perm_of_word("(ab)^2")]
        )
        self._build_elements()
        self._build_tables()
        # pair fixpoint state (persists across queries)
        self.values: Dict[Tuple, frozenset] = {}
        self.recipes: Dict[Tuple, list] = {}
        # node -> the nodes whose recipes read it, in insertion order
        self.dependents: Dict[Tuple, Dict[Tuple, None]] = {}
        self._created: List[Tuple] = []  # keys made by the running query

    # -- bootstrap ------------------------------------------------------

    def _find_membership_level(self) -> int:
        group = builtin("Gg")
        for n in range(1, 12):
            q = level_quotient(group, n)
            k_img = normal_closure(q, [q.perm_of_word("(ab)^2")])
            if q.order() // k_img.order() == 16:
                return n
        raise AssertionError("K never reached index 16")

    def _build_elements(self):
        """The transversal, by breadth-first search over a, b, c, d, and a
        number for each element of G_{n_K+1}, coset by coset: element e
        lies in coset e // |K_{n_K+1}|, and 0 is the identity.

        K's layered sequence has 8 elements of relative order 2, so their
        products are its 256 elements; a perm opens a new coset Kt exactly
        when the cosets found so far miss it.  A perm's key packs its
        images into one integer."""
        q = self.quotient
        ident = np.arange(q.degree, dtype=np.int32)
        k_elems = ident[None]
        for g in self.k_image.gens:
            k_elems = np.concatenate([k_elems, g[k_elems]])
        self._k_order = len(k_elems)
        bits = (q.degree - 1).bit_length()  # 16 points of 4 bits fill 64
        self._weights = np.uint64(1) << np.arange(0, bits * q.degree, bits, dtype=np.uint64)
        seen = set()
        self.coset_names: List[str] = []
        self.transversal: List[np.ndarray] = []

        def add(name, t):
            seen.update(self._keys(t[k_elems]).tolist())
            self.coset_names.append(name or "1")
            self.transversal.append(t)
            return name, t

        gens = [(x, q.gen_perms[x]) for x in "abcd"]
        frontier = [add("", ident)]
        while frontier:
            steps = [(word + label, gp[t]) for word, t in frontier for label, gp in gens]
            keys = self._keys(np.array([p for _, p in steps])).tolist()
            frontier = [add(*step) for step, key in zip(steps, keys) if key not in seen]
        if len(self.coset_names) != 16 or len(seen) != q.order():
            raise AssertionError("16 cosets of K must cover G_{n_K+1}")
        self.elements = np.concatenate([t[k_elems] for t in self.transversal])
        keys = self._keys(self.elements)
        self._rank = np.argsort(keys)
        self._sorted_keys = keys[self._rank]

    def _keys(self, perms: np.ndarray) -> np.ndarray:
        return perms.astype(np.uint64) @ self._weights

    def _numbers(self, perms: np.ndarray) -> np.ndarray:
        """The element numbers of perms (last axis), -1 outside G_{n_K+1}."""
        keys = self._keys(perms)
        order = np.argsort(keys, axis=None)  # sorted needles search faster
        pos = np.empty(keys.size, dtype=np.intp)
        pos[order] = np.searchsorted(self._sorted_keys, keys.ravel()[order])
        pos = np.minimum(pos.reshape(keys.shape), len(self._sorted_keys) - 1)
        return np.where(self._sorted_keys[pos] == keys, self._rank[pos], -1)

    def coset_of_perm(self, perm: np.ndarray) -> int:
        e = int(self._numbers(perm))
        if e < 0:
            raise KeyError("not an element of G_{n_K+1}")
        return e // self._k_order

    def element_of_word(self, word) -> int:
        """The number of a word's image in G_{n_K+1}, text or letters: one
        walk through the right-multiplication tables, so the letters need
        no reducing."""
        if isinstance(word, str):
            word = self.group.parse_word(word)
        e, times = 0, self._times
        for x in word.letters if isinstance(word, Word) else word:
            e = times[x][e]
        return e

    def coset_of_word(self, word) -> int:
        """The coset of a word: its element of G_{n_K+1} projected to G/K."""
        return self.element_of_word(word) // self._k_order

    def _build_tables(self):
        """e -> e x and e -> x^-1 e x per letter x, the least element of
        each class as its label, and the G/K product, inverse and lifts."""
        elements, times, conj = self.elements, {}, {}
        for x in self.group.canonical_letters:
            gx = self.quotient.perm_of_word((x,))
            times[x] = self._numbers(gx[elements]).tolist()
            conj[x] = self._numbers(gx[elements[:, np.argsort(gx)]])
        labels, pulled = None, np.arange(len(elements))
        while not np.array_equal(labels, pulled):  # pull labels through conj
            labels = pulled
            for table in conj.values():
                pulled = np.minimum(pulled, pulled[table])
        self._times = times
        self._conj = {x: table.tolist() for x, table in conj.items()}
        self.classes = labels.tolist()
        t = np.array(self.transversal)  # products[i, j] = t_i t_j, t_i acting first
        products = t[np.arange(len(t))[None, :, None], t[:, None, :]]
        self.mult = (self._numbers(products) // self._k_order).tolist()
        self.inv = [row.index(0) for row in self.mult]
        self.coset_a = self.coset_of_word("a")

        # level-1-stabilizing pair lifts: the pair (f1, f2) of level-n_K
        # cosets lifts iff the block permutation lies in the level-(n_K+1)
        # quotient; the coset of the lift depends only on the pair
        sub = level_quotient(self.group, self.n_k)
        s = np.array([sub.perm_of_word(name) for name in self.coset_names])
        blocks = np.concatenate(np.broadcast_arrays(s[:, None], s[None] + sub.degree), axis=-1)
        self.lift: List[List[Optional[int]]] = [
            [e // self._k_order if e >= 0 else None for e in row]
            for row in self._numbers(blocks).tolist()]

    # -- pair fixpoint ----------------------------------------------------

    def _normalized(self, letters) -> Tuple[Tuple, int]:
        """Cyclically reduce; return (w_c, c) with c the coset of the
        conjugator, w^conj = w_c.  For a pair (x, y) normalized to
        (x_c, c_x) and (y_c, c_y): Q(x, y) = c_x * Q(x_c, y_c) * inv(c_y)."""
        wc, conj = self.group.cyclic_reduce(letters)
        return wc, self.coset_of_word(conj)

    def _short_witness_seeds(self, g, h) -> frozenset:
        """Cosets witnessed by conjugators of length <= 1.

        Seeding these makes the least fixpoint exact: any witness f of
        length >= 2 has first-level sections of length <= (|f|+1)/2 < |f|,
        so induction on witness length reduces every solution coset to a
        seeded one through the recombination steps.  A candidate f is
        tested only when it conjugates g's element of G_{n_K+1} to h's,
        which g^f = h needs; the word problem decides.
        """
        group, conj = self.group, self._conj
        e_g, e_h = self.element_of_word(g), self.element_of_word(h)
        seeds = set()
        for f in [()] + [(letter,) for letter in group.canonical_letters]:
            if (conj[f[0]][e_g] if f else e_g) == e_h and is_trivial(
                    group, group.inverse_word(f) + g + f + group.inverse_word(h)):
                seeds.add(self.coset_of_word(f))
        return frozenset(seeds)

    def ensure(self, g, h) -> Tuple:
        """Create the fixpoint node for a (cyclically reduced) pair."""
        key = (g, h)
        if key in self.values:
            return key
        self._created.append(key)
        self.values[key] = frozenset()
        self.dependents.setdefault(key, {})
        recipe = []

        # images in different classes of G_{n_K+1} refute g ~ h
        label = self.classes[self.element_of_word(g)]
        if label != self.classes[self.element_of_word(h)]:
            self.recipes[key] = []
            return key
        if label == 0:  # both images are 1; the word problem decides
            trivial = [is_trivial(self.group, Word(w, True)) for w in (g, h)]
            if any(trivial):
                self.values[key] = FULL if all(trivial) else frozenset()
                self.recipes[key] = []
                return key
        self.values[key] = self._short_witness_seeds(g, h)

        # Gg's ring members share their letters, so the section words of
        # a Gg word are Gg words
        g_root, g_secs = self.group.first_level_sections(g)
        h_root, h_secs = self.group.first_level_sections(h)
        if g_root != h_root:
            self.recipes[key] = []
            return key

        def child(x, y):
            xc, cx = self._normalized(x)
            yc, cy = self._normalized(y)
            ckey = self.ensure(xc, yc)
            self.dependents.setdefault(ckey, {})[key] = None
            return (ckey, cx, cy)

        g1, g2 = g_secs
        h1, h2 = h_secs
        if g_root == (0, 1):  # both stabilize the first level
            recipe.append(("pair", child(g1, h1), child(g2, h2), False))
            recipe.append(("pair", child(g1, h2), child(g2, h1), True))
        else:
            g12 = self.group.reduce(g1 + g2)
            c_g1 = self.coset_of_word(g1)
            c_g2 = self.coset_of_word(g2)
            c_h2 = self.coset_of_word(h2)
            recipe.append((
                "twist", child(g12, self.group.reduce(h1 + h2)),
                c_g2, self.inv[c_h2], False,
            ))
            recipe.append((
                "twist", child(g12, self.group.reduce(h2 + h1)),
                self.inv[c_g1], c_h2, True,
            ))
        self.recipes[key] = recipe
        return key

    def _adjusted(self, ref) -> frozenset:
        ckey, cx, cy = ref
        base = self.values[ckey]
        if cx == 0 and cy == 0:
            return base
        # Q(x, y) = c_x Q(x_c, y_c) c_y^{ -1 }
        return frozenset(
            self.mult[self.mult[cx][z]][self.inv[cy]] for z in base
        )

    def _evaluate(self, key) -> frozenset:
        out = set(self.values[key])
        for entry in self.recipes.get(key, ()):
            if entry[0] == "pair":
                _, ref1, ref2, swapped = entry
                s1 = self._adjusted(ref1)
                s2 = self._adjusted(ref2)
                for z1 in s1:
                    for z2 in s2:
                        lifted = self.lift[z1][z2]
                        if lifted is not None:
                            out.add(self.mult[lifted][self.coset_a]
                                    if swapped else lifted)
            else:
                _, ref, left, right, swapped = entry
                for z in self._adjusted(ref):
                    f2 = self.mult[self.mult[left][z]][right]
                    lifted = self.lift[z][f2]
                    if lifted is not None:
                        out.add(self.mult[lifted][self.coset_a]
                                if swapped else lifted)
        return frozenset(out)

    def solve(self, keys):
        """Run the least-fixpoint iteration from the new nodes until nothing grows.

        The worklist is a dict used as an ordered set, popped last in
        first out, so the evaluation order depends only on the queries,
        not on how letters hash.
        """
        work = dict.fromkeys(keys)
        while work:
            k, _ = work.popitem()
            new = self._evaluate(k)
            if new != self.values[k]:
                self.values[k] = new
                work.update(self.dependents.get(k, ()))

    def q_set(self, g: Word, h: Word) -> CosetSet:
        gl = self.group.word(g).letters
        hl = self.group.word(h).letters
        gc, c_g = self._normalized(gl)
        hc, c_h = self._normalized(hl)
        created = self._created = []
        try:
            key = self.ensure(gc, hc)
            self.solve(created)
        except BaseException:  # drop half-built nodes: no wrong answer stays
            for table in (self.values, self.recipes, self.dependents):
                for k in created:
                    table.pop(k, None)
            for deps in self.dependents.values():
                for k in created:
                    deps.pop(k, None)
            raise
        return CosetSet(self._adjusted((key, c_g, c_h)), self)


def k_membership_level() -> int:
    """Minimal level at which the image of K has index exactly 16."""
    return GgConjugacy.instance().n_k


def q_set(g, h) -> CosetSet:
    """The exact solution-coset set Q(g, h) = {Kf : g^f = h} in Gg."""
    ctx = GgConjugacy.instance()
    group = ctx.group
    return ctx.q_set(group.word(g), group.word(h))


def are_conjugate(g, h) -> bool:
    return bool(q_set(g, h))


def coset_of(word) -> int:
    """Coset id of an element of Gg (index into the canonical transversal)."""
    return GgConjugacy.instance().coset_of_word(word)
