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

All coset arithmetic runs inside the level-(n_K + 1) permutation
quotient, where n_K is the first level at which the image of K reaches
index 16 (then Stab(L_{n_K}) <= K, making K-membership exact).

Recursion on pairs can cycle (sections need not shrink); the induced
monotone set equations are solved by least-fixpoint iteration starting
from empty sets.  The fixpoint table persists across queries; recipes are
fixed at creation, so a query evaluates only the nodes it creates and their
dependents.  Coset lookups are memoized (at most |G_{n_K+1}| entries).
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
    """Shared context: quotient, transversal, coset tables, lift table."""

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
        if self.quotient.order() // self.k_image.order() != 16:
            raise AssertionError("index of K image must stay 16 one level up")
        self._build_transversal()
        self._coset_memo: Dict[bytes, int] = {}
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

    def _build_transversal(self):
        q = self.quotient
        gens = [("a", q.gen_perms["a"]), ("b", q.gen_perms["b"]),
                ("c", q.gen_perms["c"]), ("d", q.gen_perms["d"])]
        ident = np.arange(q.degree, dtype=np.int32)
        reps: List[Tuple[str, np.ndarray]] = [("1", ident)]
        frontier = [("", ident)]
        while len(reps) < 16 and frontier:
            nxt = []
            for word, perm in frontier:
                for label, gp in gens:
                    nw = word + label
                    np_ = gp[perm]
                    if not any(self._same_coset(np_, t) for _, t in reps):
                        reps.append((nw, np_))
                        nxt.append((nw, np_))
                        if len(reps) == 16:
                            break
                if len(reps) == 16:
                    break
            frontier = nxt
        if len(reps) < 16:
            raise AssertionError("could not enumerate 16 cosets")
        self.coset_names = [w for w, _ in reps]
        self.transversal = [p for _, p in reps]

    def _same_coset(self, p, q) -> bool:
        qinv = np.empty_like(q)
        qinv[q] = np.arange(len(q), dtype=q.dtype)
        return self.k_image.contains(qinv[p])

    def coset_of_perm(self, perm: np.ndarray) -> int:
        key = perm.astype(np.int32, copy=False).tobytes()
        if key in self._coset_memo:
            return self._coset_memo[key]
        for i, t in enumerate(self.transversal):
            if self._same_coset(perm, t):
                self._coset_memo[key] = i
                return i
        raise AssertionError("permutation not in the group")

    def coset_of_word(self, word) -> int:
        w = self.group.word(word)
        return self.coset_of_perm(self.quotient.perm_of_word(w))

    def _build_tables(self):
        t = self.transversal
        self.mult = [[self.coset_of_perm(t[j][t[i]]) for j in range(16)]
                     for i in range(16)]
        self.inv = [0] * 16
        for i in range(16):
            for j in range(16):
                if self.mult[i][j] == 0:
                    self.inv[i] = j
        self.coset_a = self.coset_of_word("a")

        # level-1-stabilizing pair lifts: the pair (f1, f2) of level-n_K
        # cosets lifts iff the block permutation lies in the level-(n_K+1)
        # quotient; the coset of the lift depends only on the pair
        sub = level_quotient(self.group, self.n_k)
        sub_transversal = []
        for name in self.coset_names:
            sub_transversal.append(sub.perm_of_word(name if name != "1" else ""))
        half = sub.degree
        self.lift: List[List[Optional[int]]] = [[None] * 16 for _ in range(16)]
        chain = self.quotient.chain()
        for i in range(16):
            for j in range(16):
                block = np.concatenate([sub_transversal[i],
                                        sub_transversal[j] + half]).astype(np.int32)
                if chain.contains(block):
                    self.lift[i][j] = self.coset_of_perm(block)

    # -- pair fixpoint ----------------------------------------------------

    def _normalized(self, letters) -> Tuple[Tuple, int]:
        """Cyclically reduce; return (w_c, c) with c the coset of the
        conjugator, w^conj = w_c.  For a pair (x, y) normalized to
        (x_c, c_x) and (y_c, c_y): Q(x, y) = c_x * Q(x_c, y_c) * inv(c_y)."""
        wc, conj = self.group.cyclic_reduce(letters)
        c = self.coset_of_word(Word(self.group.reduce(conj), True)) if conj else 0
        return wc, c

    def _short_witness_seeds(self, g, h) -> frozenset:
        """Cosets witnessed by conjugators of length <= 1.

        Seeding these makes the least fixpoint exact: any witness f of
        length >= 2 has first-level sections of length <= (|f|+1)/2 < |f|,
        so induction on witness length reduces every solution coset to a
        seeded one through the recombination steps.  A candidate f is
        tested only when the quotient permutations satisfy gf = fh.
        """
        group, perm = self.group, self.quotient.perm_of_word
        pg, ph = perm(Word(g, True)), perm(Word(h, True))
        seeds = set()
        for f in [()] + [(letter,) for letter in group.canonical_letters]:
            pf = perm(Word(f, True))
            if np.array_equal(pf[pg], ph[pf]) and is_trivial(
                    group, group.inverse_word(f) + g + f + group.inverse_word(h)):
                seeds.add(self.coset_of_word(Word(f, True)))
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

        g_trivial = is_trivial(self.group, Word(g, True))
        h_trivial = is_trivial(self.group, Word(h, True))
        if g_trivial and h_trivial:
            self.values[key] = FULL
            self.recipes[key] = []
            return key
        if g_trivial != h_trivial:
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
            c_g1 = self.coset_of_word(Word(self.group.reduce(g1), True))
            c_g2 = self.coset_of_word(Word(self.group.reduce(g2), True))
            c_h2 = self.coset_of_word(Word(self.group.reduce(h2), True))
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
        base = self.values[key]
        ids = {self.mult[self.mult[c_g][z]][self.inv[c_h]] for z in base}
        return CosetSet(ids, self)


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
