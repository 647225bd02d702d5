"""Finite-state rooted-tree automorphisms.

An automorphism is a state of a letter transducer: a root permutation
plus one section (child state) per first-level letter.  Generators of
self-similar groups are cyclic state graphs (d = (1,b) -> b = (a,c) -> ...),
so states are built in two phases: the reachable graph of a definition is
minimized by bisimulation (partition refinement, exactly as for DFA
minimization), then hash-consed into a global table keyed by a canonical
BFS serialization.  Two states are the *same Python object* iff they act
identically on the tree, so state equality is O(1).

One section-closure machine builds every state.  Its nodes are formal
words of factors, each node tagged with the tree shape it lives on; a
factor is an interned state or an *atom*, a recursive definition given
by its shape, its root permutation and one entry word per child, each
entry on the shifted shape.  The identity is the empty word, a rooted
state or a generator is an atom, and products and inverses are words of
states.  A node's sections are words on the shifted shape (each section
of a product f*g is the product f_u * g_{u^f}); the reachable closure is
minimized and interned.  A node cap guards against words that are not
finite-state.

Vertices are 0-based letter tuples; permutations are 0-based image tuples.
The composition convention is the right action: u^(fg) = (u^f)^g, hence
(fg)_u = f_u g_{u^f} and (f^-1)_u = (f_{u^{f^-1}})^-1.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .errors import ResourceBoundExceeded, ShapeMismatch
from .shapes import TreeShape

Perm = Tuple[int, ...]

_INTERN_LOCK = threading.RLock()
_INTERN: dict = {}
_SERIAL = [0]


# -- permutation helpers (0-based image tuples) ------------------------


def identity_perm(m: int) -> Perm:
    return tuple(range(m))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Permutation 'p then q' (right-action composition)."""
    return tuple(q[i] for i in p)


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_order(p: Perm) -> int:
    seen = [False] * len(p)
    order = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = order * length // math.gcd(order, length)
    return order


def perm_from_cycles(m: int, cycles: Sequence[Sequence[int]]) -> Perm:
    """Build a permutation of {0..m-1} from 0-based cycles."""
    img = list(range(m))
    for cyc in cycles:
        for x, y in zip(cyc, cyc[1:]):
            img[x] = y
        if cyc:
            img[cyc[-1]] = cyc[0]
    return tuple(img)


def format_perm(p: Perm) -> str:
    """Cycle notation with 1-based points; '()' for the identity."""
    seen = set()
    parts = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        seen.add(i)
        j = p[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = p[j]
        parts.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


# -- the interned state type -------------------------------------------


class TreeAutomorphism:
    """One interned state of a finite-state tree automorphism.

    Instances are created only by the interning machinery below;
    ``a is b`` iff a and b are equal as tree automorphisms.
    """

    __slots__ = ("shape", "root_perm", "children", "is_identity", "serial")

    def __repr__(self):
        if self.is_identity:
            return f"<aut 1 over {self.shape!r}>"
        return f"<aut #{self.serial} perm={format_perm(self.root_perm)}>"

    def act(self, vertex: Tuple[int, ...]) -> Tuple[int, ...]:
        """Image of a vertex (0-based letters) under this automorphism."""
        self.shape.check_vertex(vertex)
        out = []
        state = self
        for y in vertex:
            out.append(state.root_perm[y])
            state = state.children[y]
        return tuple(out)

    def section(self, vertex: Tuple[int, ...]) -> "TreeAutomorphism":
        """Section at a vertex: the automorphism induced on the subtree below it."""
        self.shape.check_vertex(vertex)
        state = self
        for y in vertex:
            state = state.children[y]
        return state

    def decompose(self) -> Tuple[Perm, Tuple["TreeAutomorphism", ...]]:
        """Root permutation and the tuple of first-level sections."""
        return self.root_perm, self.children

    def __mul__(self, other: "TreeAutomorphism") -> "TreeAutomorphism":
        return compose(self, other)

    def inverse(self) -> "TreeAutomorphism":
        return invert(self)

    def __pow__(self, n: int) -> "TreeAutomorphism":
        """n-th power by repeated squaring (negative n inverts first)."""
        base = self if n >= 0 else invert(self)
        result = identity_state(self.shape)
        n = abs(n)
        while n:
            if n & 1:
                result = compose(result, base)
            n >>= 1
            if n:
                base = compose(base, base)
        return result

    def reachable_sections(self, cap: int = 1 << 20) -> set:
        """Closure of {self} under sections at single letters."""
        seen = {self}
        stack = [self]
        while stack:
            s = stack.pop()
            for c in s.children:
                if c not in seen:
                    if len(seen) >= cap:
                        raise ResourceBoundExceeded(
                            f"more than {cap} distinct sections reached"
                        )
                    seen.add(c)
                    stack.append(c)
        return seen


def _blank_state(shape: TreeShape, perm: Perm, is_identity: bool) -> TreeAutomorphism:
    state = object.__new__(TreeAutomorphism)
    state.shape = shape
    state.root_perm = perm
    state.is_identity = is_identity
    _SERIAL[0] += 1
    state.serial = _SERIAL[0]
    return state


def _intern_graph(start_nodes, perm_of, children_of):
    """Minimize a closed graph of (shape, word) nodes by bisimulation and
    intern every class.

    Returns a dict mapping each reachable node to its canonical state.
    """
    order = list(dict.fromkeys(start_nodes))
    index = {n: i for i, n in enumerate(order)}
    i = 0
    while i < len(order):
        for c in children_of(order[i]):
            if c not in index:
                index[c] = len(order)
                order.append(c)
        i += 1

    # partition refinement: start from (shape, perm), split by child classes
    labels: dict = {}
    cls = {}
    for n in order:
        k = (n[0], perm_of(n))
        if k not in labels:
            labels[k] = len(labels)
        cls[n] = labels[k]
    n_classes = len(labels)
    while True:
        new_labels: dict = {}
        new_cls = {}
        for n in order:
            k = (cls[n], tuple(cls[c] for c in children_of(n)))
            if k not in new_labels:
                new_labels[k] = len(new_labels)
            new_cls[n] = new_labels[k]
        cls = new_cls
        if len(new_labels) == n_classes:
            break
        n_classes = len(new_labels)

    rep = {}
    for n in order:
        rep.setdefault(cls[n], n)

    child_classes = {c: [cls[ch] for ch in children_of(rep[c])] for c in rep}

    sig_cache: dict = {}

    def canonical_sig(c0):
        hit = sig_cache.get(c0)
        if hit is not None:
            return hit
        seq = [c0]
        pos = {c0: 0}
        i = 0
        while i < len(seq):
            for ch in child_classes[seq[i]]:
                if ch not in pos:
                    pos[ch] = len(seq)
                    seq.append(ch)
            i += 1
        body = tuple(
            (perm_of(rep[c]), tuple(pos[ch] for ch in child_classes[c])) for c in seq
        )
        result = ((rep[c0][0], body), seq)
        sig_cache[c0] = result
        return result

    with _INTERN_LOCK:
        interned: dict = {}
        for c in rep:
            if c in interned:
                continue
            key, seq = canonical_sig(c)
            hit = _INTERN.get(key)
            if hit is not None:
                interned[c] = hit
                continue
            created = {}
            for cc in seq:
                if cc in interned:
                    continue
                cckey, _ = canonical_sig(cc)
                hit2 = _INTERN.get(cckey)
                if hit2 is not None:
                    interned[cc] = hit2
                else:
                    is_id = all(p == identity_perm(len(p)) for p, _ in cckey[1])
                    st = _blank_state(rep[cc][0], perm_of(rep[cc]), is_id)
                    _INTERN[cckey] = st
                    created[cc] = st
                    interned[cc] = st
            for cc, st in created.items():
                st.children = tuple(interned[ch] for ch in child_classes[cc])
        return {n: interned[cls[n]] for n in order}


# -- the section-closure machine ---------------------------------------


def _inverse_word(word):
    return tuple((f, -e) for f, e in reversed(word))


def _word_machine(starts, atoms=None, cap=200_000):
    """Expand formal words into their section closure, minimize, intern.

    A node is a (shape, word) pair; a word is a tuple of (factor, +-1)
    pairs whose factors are interned states or keys of ``atoms``.  The
    sections of a node are words on the shifted shape, so every node
    carries its tree shape.  Returns the interned state of each start
    node, in order; ``cap`` bounds the number of expanded nodes.
    """
    atoms = atoms or {}
    for key, (shape, _, entries) in atoms.items():
        below = shape.shift()
        for y, entry in enumerate(entries):
            for f, _ in entry:
                found = f.shape if isinstance(f, TreeAutomorphism) else atoms[f][0]
                if found is not below:
                    raise ShapeMismatch(
                        f"atom {key!r} on {shape!r}: entry {y + 1} has a factor "
                        f"on {found!r}, expected the shifted shape {below!r}"
                    )

    def normalize(factors):
        out = []
        for f, e in factors:
            if isinstance(f, TreeAutomorphism) and f.is_identity:
                continue
            if out and out[-1][0] == f and out[-1][1] == -e:
                out.pop()
                continue
            out.append((f, e))
        return tuple(out)

    perm_cache: dict = {}
    child_cache: dict = {}
    inv_cache: dict = {}

    def pinv(p):
        q = inv_cache.get(p)
        if q is None:
            q = perm_inv(p)
            inv_cache[p] = q
        return q

    def perm_of(node):
        p = perm_cache.get(node)
        if p is None:
            shape, word = node
            p = identity_perm(shape.branching(0))
            for f, e in word:
                fp = f.root_perm if isinstance(f, TreeAutomorphism) else atoms[f][1]
                p = perm_mul(p, fp if e == 1 else pinv(fp))
            perm_cache[node] = p
        return p

    def children_of(node):
        ch = child_cache.get(node)
        if ch is None:
            shape, word = node
            below = shape.shift()
            ch = []
            for y in range(shape.branching(0)):
                pos = y
                factors = []
                for f, e in word:
                    if isinstance(f, TreeAutomorphism):
                        if e == 1:
                            factors.append((f.children[pos], 1))
                            pos = f.root_perm[pos]
                        else:
                            pos = pinv(f.root_perm)[pos]
                            factors.append((f.children[pos], -1))
                    else:
                        _, p, entries = atoms[f]
                        if e == 1:
                            factors.extend(entries[pos])
                            pos = p[pos]
                        else:
                            pos = pinv(p)[pos]
                            factors.extend(_inverse_word(entries[pos]))
                ch.append((below, normalize(factors)))
            child_cache[node] = ch
            if len(child_cache) > cap:
                raise ResourceBoundExceeded(
                    f"section closure exceeded {cap} intermediate words; "
                    "the element may not be finite-state"
                )
        return ch

    nodes = [(shape, normalize(word)) for shape, word in starts]
    mapping = _intern_graph(nodes, perm_of, children_of)
    return [mapping[n] for n in nodes]


# -- constructors ------------------------------------------------------


def identity_state(shape: TreeShape) -> TreeAutomorphism:
    """The shared identity automorphism of a shape."""
    return _word_machine([(shape, ())])[0]


def rooted_state(shape: TreeShape, perm: Sequence[int]) -> TreeAutomorphism:
    """Rooted automorphism: permutes the first-level subtrees rigidly."""
    m = shape.branching(0)
    perm = tuple(perm)
    if sorted(perm) != list(range(m)):
        raise ValueError(f"not a permutation of m={m} points: {perm}")
    return intern_atoms({"rooted": (shape, perm, [()] * m)})["rooted"]


def intern_atoms(atoms: dict, cap: int = 200_000) -> dict:
    """Resolve a system of recursive definitions into interned states.

    ``atoms`` maps a key to (shape, root permutation, entries): one entry
    word per first-level child, each a tuple of (factor, +-1) pairs whose
    factors are interned states or atom keys living on ``shape.shift()``.
    Raises ShapeMismatch naming the atom when a factor lives elsewhere.
    Returns key -> interned state.
    """
    starts = [(shape, ((key, 1),)) for key, (shape, _, _) in atoms.items()]
    return dict(zip(atoms, _word_machine(starts, atoms, cap)))


def intern_word(
    shape: TreeShape,
    word: Iterable[Tuple[TreeAutomorphism, int]],
    cap: int = 200_000,
) -> TreeAutomorphism:
    """Evaluate a formal word of states into a single interned state.

    The word is a sequence of (state, exponent) factors, all on ``shape``;
    their sections land on the shifted shapes automatically.
    """
    flat = []
    for factor, exp in word:
        if factor.shape != shape:
            raise ShapeMismatch(f"factor on {factor.shape!r}, expected {shape!r}")
        flat.extend([(factor, 1 if exp >= 0 else -1)] * abs(exp))
    return _word_machine([(shape, tuple(flat))], cap=cap)[0]


def compose(f: TreeAutomorphism, g: TreeAutomorphism, cap: int = 200_000) -> TreeAutomorphism:
    """Product fg under the right action: act(fg, u) = act(g, act(f, u))."""
    if f.shape != g.shape:
        raise ShapeMismatch(f"{f.shape!r} vs {g.shape!r}")
    return intern_word(f.shape, [(f, 1), (g, 1)], cap=cap)


def invert(f: TreeAutomorphism, cap: int = 200_000) -> TreeAutomorphism:
    return intern_word(f.shape, [(f, -1)], cap=cap)


def compose_all(
    states: Sequence[TreeAutomorphism],
    shape: Optional[TreeShape] = None,
    cap: int = 200_000,
) -> TreeAutomorphism:
    """Product of a list of states (empty product = identity)."""
    if not states:
        if shape is None:
            raise ValueError("empty product needs an explicit shape")
        return identity_state(shape)
    return intern_word(states[0].shape, [(s, 1) for s in states], cap=cap)


def build_recursive(
    shape: TreeShape,
    rooted: dict,
    recursive: dict,
    cap: int = 200_000,
) -> dict:
    """Resolve a system of mutually recursive generator definitions.

    ``rooted`` maps names to root permutations.  ``recursive`` maps names
    to (entries, root_perm-or-None) where entries is one word per child,
    each word a list of (name, exponent) pairs over rooted, recursive, or
    previously resolved names.  Returns name -> interned state.
    """
    states = {name: rooted_state(shape, perm) for name, perm in rooted.items()}
    m = shape.branching(0)

    def as_factors(entry):
        factors = []
        for ref, exp in entry:
            if ref in recursive:
                factor = ref
            elif ref in states:
                factor = states[ref]
            else:
                raise KeyError(f"unknown generator {ref!r} in recursion entry")
            factors.extend([(factor, 1 if exp >= 0 else -1)] * abs(exp))
        return tuple(factors)

    atoms = {}
    for name, (entries, rperm) in recursive.items():
        if len(entries) != m:
            raise ValueError(f"{name}: expected {m} entries, got {len(entries)}")
        perm = tuple(rperm) if rperm is not None else identity_perm(m)
        atoms[name] = (shape, perm, [as_factors(entry) for entry in entries])
    states.update(intern_atoms(atoms, cap))
    return states


# -- portraits ---------------------------------------------------------


class Portrait:
    """Decorated finite tree describing an automorphism.

    Interior vertices carry root permutations; leaves carry the section
    state (None when only the permutation skeleton is requested).
    """

    __slots__ = ("perm", "children", "section")

    def __init__(self, perm=None, children=None, section=None):
        self.perm = perm
        self.children = children
        self.section = section

    @property
    def is_leaf(self):
        return self.children is None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(c.depth() for c in self.children)

    def node_count(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + sum(c.node_count() for c in self.children)

    def __repr__(self):
        if self.is_leaf:
            return f"Leaf({self.section!r})"
        return f"Node({format_perm(self.perm)}, {list(self.children)!r})"


def portrait(
    f: TreeAutomorphism,
    depth: Optional[int] = None,
    profile: Optional[Callable[[int, TreeAutomorphism], bool]] = None,
    keep_sections: bool = True,
    node_cap: int = 1 << 16,
) -> Portrait:
    """Portrait of f, cut at a fixed depth or at a profile.

    ``profile(level, state)`` returns True where expansion stops and a
    leaf is emitted.  Exactly one of ``depth``/``profile`` must be given.
    """
    if (depth is None) == (profile is None):
        raise ValueError("give exactly one of depth or profile")
    if profile is None:
        if depth < 0:
            raise ValueError("depth must be >= 0")

        def profile(level, state):
            return level >= depth

    budget = [node_cap]

    def build(state, level):
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceBoundExceeded(f"portrait exceeded {node_cap} nodes")
        if profile(level, state):
            return Portrait(section=state if keep_sections else None)
        return Portrait(
            perm=state.root_perm,
            children=tuple(build(c, level + 1) for c in state.children),
        )

    return build(f, 0)
