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
states.  The machine reads every factor through one definition, a root
permutation and one entry word per child; an interned state's entries
are its children.  A node's sections are words on the shifted shape
(each section of a product f*g is the product f_u * g_{u^f}), freely
reduced by the same `free_reduce` that presentations use; the reachable
closure is minimized and interned in one pass, one canonical key per
class.  A cap on the nodes and one on the letters of a node word guard
against words that are not finite-state.

Vertices are 0-based letter tuples; permutations are 0-based image tuples.
The composition convention is the right action: u^(fg) = (u^f)^g, hence
(fg)_u = f_u g_{u^f} and (f^-1)_u = (f_{u^{f^-1}})^-1.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import ResourceBoundExceeded, ShapeMismatch
from .shapes import TreeShape

Perm = Tuple[int, ...]

_INTERN_LOCK = threading.RLock()
_INTERN: dict = {}
_SERIAL = [0]

# most intermediate words one run of the section-closure machine expands
SECTION_CLOSURE_CAP = 200_000
# most letters one of those words may hold; at least groups.WORD_LENGTH_CAP,
# so that every word the parser accepts still interns
SECTION_WORD_CAP = 1 << 20
# most letters those words may hold together, about 100 MB; the closure of
# a Gg word of SECTION_WORD_CAP letters, such as (abacad)^174762, holds
# about 5 million
SECTION_LETTERS_CAP = 1 << 23
# most nodes `portrait` builds
PORTRAIT_NODE_CAP = 1 << 16
# most states `TreeAutomorphism.reachable_sections` collects
REACHABLE_SECTIONS_CAP = 1 << 20


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


def perm_cycles(p: Perm) -> Iterator[List[int]]:
    """Each cycle of p from its least point, in the order of those points;
    a fixed point is a cycle of length 1."""
    seen = set()
    for start in range(len(p)):
        if start not in seen:
            cycle = [start]
            while p[cycle[-1]] != start:
                cycle.append(p[cycle[-1]])
            seen.update(cycle)
            yield cycle


def perm_order(p: Perm) -> int:
    return math.lcm(*map(len, perm_cycles(p)))


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
    return "".join("(" + " ".join(str(x + 1) for x in cycle) + ")"
                   for cycle in perm_cycles(p) if len(cycle) >= 2) or "()"


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
        """Image of a vertex (0-based letters) under this automorphism.  The walk
        checks the vertex: a bad letter raises TreeShape.check_vertex's ValueError."""
        return self._walk(vertex)[0]

    def section(self, vertex: Tuple[int, ...]) -> "TreeAutomorphism":
        """Section at a vertex: the automorphism induced on the subtree below
        it.  The vertex is checked by the walk, as in `act`."""
        return self._walk(vertex)[1]

    def _walk(self, vertex):
        """(image, section) of a vertex.  The state at depth i has branching(i)
        points, so indexing bounds a letter; a negative one is stopped first."""
        out = []
        state = self
        try:
            for y in vertex:
                if y < 0:
                    raise IndexError
                out.append(state.root_perm[y])
                state = state.children[y]
        except IndexError:
            self.shape.check_vertex(vertex)  # raises the ValueError
            raise
        return tuple(out), state

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

    def reachable_sections(self) -> set:
        """Closure of {self} under sections at single letters."""
        seen = {self}
        stack = [self]
        while stack:
            s = stack.pop()
            for c in s.children:
                if c not in seen:
                    if len(seen) >= REACHABLE_SECTIONS_CAP:
                        raise ResourceBoundExceeded(
                            f"more than {REACHABLE_SECTIONS_CAP} distinct sections "
                            "reached (automorphisms.REACHABLE_SECTIONS_CAP)")
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
    seen = set(order)
    for n in order:  # breadth first; the list grows as it is read
        for c in children_of(n):
            if c not in seen:
                seen.add(c)
                order.append(c)

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

    with _INTERN_LOCK:
        # a state found in _INTERN was created with all it reaches, so one
        # lookup per class suffices; the created states get their children after
        interned: dict = {}
        created = []
        for c in rep:
            pos = {c: 0}
            seq = [c]
            for cc in seq:
                for ch in child_classes[cc]:
                    if ch not in pos:
                        pos[ch] = len(seq)
                        seq.append(ch)
            body = tuple((perm_of(rep[cc]), tuple(pos[ch] for ch in child_classes[cc]))
                         for cc in seq)
            key = (rep[c][0], body)
            st = _INTERN.get(key)
            if st is None:
                is_id = all(p == identity_perm(len(p)) for p, _ in body)
                st = _INTERN[key] = _blank_state(rep[c][0], body[0][0], is_id)
                created.append(c)
            interned[c] = st
        for c in created:
            interned[c].children = tuple(interned[ch] for ch in child_classes[c])
        return {n: interned[cls[n]] for n in order}


# -- the section-closure machine ---------------------------------------


def free_reduce(word: Sequence[Tuple[object, int]]) -> tuple:
    """A word of (symbol, exponent) letters with every letter next to its
    inverse cancelled and every zero exponent dropped."""
    out: list = []
    for letter in word:
        sym, exp = letter
        if exp == 0:
            continue
        if out and out[-1][0] == sym and out[-1][1] == -exp:
            out.pop()
        else:
            out.append(letter)  # shared, not copied: closures hold millions
    return tuple(out)


def free_inverse(word: Sequence[Tuple[object, int]]) -> tuple:
    return tuple((s, -e) for s, e in reversed(word))


def _word_machine(starts, atoms=None):
    """Expand formal words into their section closure, minimize, intern.

    A node is a (shape, word) pair; a word is a tuple of (factor, +-1)
    letters whose factors are interned states or keys of ``atoms``.  Every
    letter is read through one definition, its root permutation and one
    section word per child: an atom's is given, an interned state's is its
    children as one-letter words (an identity child as the empty word),
    and an inverse letter's is derived from its factor's.  The sections of
    a node are words on the shifted shape, so every node carries its tree
    shape.  Returns the interned state of each start node, in order;
    SECTION_CLOSURE_CAP bounds the expanded nodes, SECTION_WORD_CAP the
    letters of each of their words and SECTION_LETTERS_CAP those of all.
    """
    atoms = atoms or {}
    defs: dict = {}
    for key, (shape, perm, entries) in atoms.items():
        below = shape.shift()
        for y, entry in enumerate(entries):
            for f, _ in entry:
                found = f.shape if isinstance(f, TreeAutomorphism) else atoms[f][0]
                if found is not below:
                    raise ShapeMismatch(
                        f"atom {key!r} on {shape!r}: entry {y + 1} has a factor "
                        f"on {found!r}, expected the shifted shape {below!r}"
                    )
        defs[key, 1] = (perm, entries)

    def definition(letter):
        d = defs.get(letter)
        if d is None:
            f, e = letter
            if e == 1:  # an interned state; an identity section is the empty word
                d = (f.root_perm, tuple(() if c.is_identity else ((c, 1),) for c in f.children))
            else:  # (f^-1)_y = (f_{y^(f^-1)})^-1
                perm, entries = definition((f, 1))
                inv = perm_inv(perm)
                d = (inv, tuple(free_inverse(entries[x]) for x in inv))
            defs[letter] = d
        return d

    perm_cache: dict = {}
    child_cache: dict = {}
    held = [0]  # letters in the words of child_cache

    def perm_of(node):
        p = perm_cache.get(node)
        if p is None:
            shape, word = node
            p = identity_perm(shape.branching(0))
            for letter in word:
                p = perm_mul(p, definition(letter)[0])
            perm_cache[node] = p
        return p

    def exceeded(bound):
        raise ResourceBoundExceeded(
            f"section closure exceeded {bound}; the element may not be finite-state")

    def children_of(node):
        ch = child_cache.get(node)
        if ch is None:
            shape, word = node
            below = shape.shift()
            defined = [definition(letter) for letter in word]
            ch = []
            for y in range(shape.branching(0)):
                pos = y
                factors = []
                for perm, entries in defined:
                    factors.extend(entries[pos])
                    pos = perm[pos]
                    if len(factors) > SECTION_WORD_CAP:
                        exceeded(f"{SECTION_WORD_CAP} letters in one word "
                                 "(automorphisms.SECTION_WORD_CAP)")
                ch.append((below, free_reduce(factors)))
                held[0] += len(ch[-1][1])
            if held[0] > SECTION_LETTERS_CAP:
                exceeded(f"{SECTION_LETTERS_CAP} letters in its words "
                         "(automorphisms.SECTION_LETTERS_CAP)")
            child_cache[node] = ch
            if len(child_cache) > SECTION_CLOSURE_CAP:
                exceeded(f"{SECTION_CLOSURE_CAP} intermediate words "
                         "(automorphisms.SECTION_CLOSURE_CAP)")
        return ch

    nodes = [(shape, free_reduce(word)) for shape, word in starts]
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


def intern_atoms(atoms: dict) -> dict:
    """Resolve a system of recursive definitions into interned states.

    ``atoms`` maps a key to (shape, root permutation, entries): one entry
    word per first-level child, each a tuple of (factor, +-1) pairs whose
    factors are interned states or atom keys living on ``shape.shift()``.
    Raises ShapeMismatch naming the atom when a factor lives elsewhere.
    Returns key -> interned state.
    """
    starts = [(shape, ((key, 1),)) for key, (shape, _, _) in atoms.items()]
    return dict(zip(atoms, _word_machine(starts, atoms)))


def intern_word(shape: TreeShape,
                word: Iterable[Tuple[TreeAutomorphism, int]]) -> TreeAutomorphism:
    """Evaluate a formal word of states into a single interned state.

    The word is a sequence of (state, exponent) factors, all on ``shape``;
    their sections land on the shifted shapes automatically.
    """
    flat = []
    for factor, exp in word:
        if factor.shape != shape:
            raise ShapeMismatch(f"factor on {factor.shape!r}, expected {shape!r}")
        flat.extend([(factor, 1 if exp >= 0 else -1)] * abs(exp))
    return _word_machine([(shape, tuple(flat))])[0]


def compose(f: TreeAutomorphism, g: TreeAutomorphism) -> TreeAutomorphism:
    """Product fg under the right action: act(fg, u) = act(g, act(f, u))."""
    if f.shape != g.shape:
        raise ShapeMismatch(f"{f.shape!r} vs {g.shape!r}")
    return intern_word(f.shape, [(f, 1), (g, 1)])


def invert(f: TreeAutomorphism) -> TreeAutomorphism:
    return intern_word(f.shape, [(f, -1)])


def build_recursive(
    shape: TreeShape,
    rooted: dict,
    recursive: dict,
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
    states.update(intern_atoms(atoms))
    return states


# -- portraits ---------------------------------------------------------


class Portrait:
    """Decorated finite tree describing an automorphism.

    Interior vertices carry root permutations; leaves carry the section
    state.
    """

    __slots__ = ("perm", "children", "section")

    def __init__(self, perm=None, children=None, section=None):
        self.perm = perm
        self.children = children
        self.section = section

    @property
    def is_leaf(self):
        return self.children is None

    def _walk(self) -> Iterator[Tuple["Portrait", int]]:
        """Every node with its level, by an explicit stack."""
        stack = [(self, 0)]
        while stack:
            node, level = stack.pop()
            yield node, level
            if not node.is_leaf:
                stack.extend((c, level + 1) for c in node.children)

    def depth(self) -> int:
        return max(level for node, level in self._walk() if node.is_leaf)

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif item.is_leaf:
                out.append(f"Leaf({item.section!r})")
            else:
                parts = [f"Node({format_perm(item.perm)}, ["]
                for i, child in enumerate(item.children):
                    parts += [", ", child] if i else [child]
                stack += reversed(parts + ["])"])
        return "".join(out)


def portrait(
    f: TreeAutomorphism,
    depth: Optional[int] = None,
    profile: Optional[Callable[[int, TreeAutomorphism], bool]] = None,
) -> Portrait:
    """Portrait of f, cut at a fixed depth or at a profile.

    ``profile(level, state)`` returns True where expansion stops and a
    leaf is emitted.  Exactly one of ``depth``/``profile`` must be given.
    The tree is built by an explicit stack, each node charged to
    PORTRAIT_NODE_CAP, so its depth is bounded only by that cap.
    """
    if (depth is None) == (profile is None):
        raise ValueError("give exactly one of depth or profile")
    if profile is None:
        if depth < 0:
            raise ValueError("depth must be >= 0")

        def profile(level, state):
            return level >= depth

    budget = PORTRAIT_NODE_CAP
    root = Portrait()
    stack = [(root, f, 0)]
    while stack:
        node, state, level = stack.pop()
        budget -= 1
        if budget < 0:
            raise ResourceBoundExceeded(f"portrait exceeded {PORTRAIT_NODE_CAP} nodes "
                                        "(automorphisms.PORTRAIT_NODE_CAP)")
        if profile(level, state):
            node.section = state
        else:
            node.perm = state.root_perm
            node.children = tuple(Portrait() for _ in state.children)
            stack.extend((c, s, level + 1) for c, s in zip(node.children, state.children))
    return root
