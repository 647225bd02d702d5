"""Group definitions: spinal/GGS constructors, built-in groups, and words.

A group is described by its tree shape plus a generator table.  Two
flavors are implemented:

* spinal: a rooted part A (permutations of the first alphabet), a finite
  directed part B (multiplication table), and an eventually periodic
  family of homomorphisms omega_i: B -> Sym(Y_{i+1}).  This covers the
  defining-triple, GG-sequence, and GGS-vector constructions.  Words over
  the canonical generating set are sequences of A-letters (permutations)
  and B-letters (names); reduction merges adjacent letters of the same
  kind through the group tables, giving the alternating normal form.

* explicit recursion: generators given directly as wreath recursions
  (mu = (1, mu^-1)a and the like).  A letter is an interned state; an
  inverse letter carries the inverse state, computed once per state.
  Reduction merges two adjacent letters through a per-group product
  table when their product is the identity, a rooted state built from
  two rooted letters, or a named generator or its inverse.  Reduced
  words are shorter, not unique.

The first-level decomposition of a word is computed at the word level:
a reduced word F = [a_0]b_1a_1...b_k[a_k] is rewritten as
b_1^{g_1}...b_k^{g_k} g with g_i the inverse of the a-prefix, and each
factor contributes at most one letter to each child word, which bounds
every child by (|F|+1)/2 letters for spinal groups.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .automorphisms import (
    Perm,
    TreeAutomorphism,
    build_recursive,
    compose,
    identity_perm,
    intern_atoms,
    intern_word,
    invert,
    perm_from_cycles,
    perm_inv,
    perm_mul,
    perm_order,
    format_perm,
    rooted_state,
)
from .errors import ValidationError
from .shapes import TreeShape

# -- finite directed part ----------------------------------------------


class BTable:
    """A finite group given by its multiplication table.

    Nontrivial elements carry names; the identity is implicit (None in
    products).  ``mult`` maps a pair of names to a name or None.
    """

    def __init__(self, names: Sequence[str], mult: Dict[Tuple[str, str], Optional[str]]):
        self.names = list(names)
        self._mult = dict(mult)
        self._inv: Dict[str, str] = {}
        for x in self.names:
            for y in self.names:
                if (x, y) not in self._mult:
                    raise ValidationError("directed part", f"missing product {x}*{y}")
                if self._mult[(x, y)] is None:
                    self._inv[x] = y
        for x in self.names:
            if x not in self._inv:
                raise ValidationError("directed part", f"{x} has no inverse")
        self._orders: Dict[str, int] = {}
        for x in self.names:
            k, y = 1, x
            while y is not None:
                y = self.mult(y, x)
                k += 1
            self._orders[x] = k

    def mult(self, x: Optional[str], y: Optional[str]) -> Optional[str]:
        if x is None:
            return y
        if y is None:
            return x
        return self._mult[(x, y)]

    def inv(self, x: Optional[str]) -> Optional[str]:
        return None if x is None else self._inv[x]

    def order_of(self, x: str) -> int:
        return self._orders[x]

    def __len__(self):
        return len(self.names) + 1

    @staticmethod
    def cyclic(n: int, base: str = "b") -> "BTable":
        names = [base if k == 1 else f"{base}^{k}" for k in range(1, n)]

        def nm(k):
            k %= n
            return None if k == 0 else names[k - 1]

        mult = {}
        for i in range(1, n):
            for j in range(1, n):
                mult[(nm(i), nm(j))] = nm(i + j)
        return BTable(names, mult)

    @staticmethod
    def klein(names: Tuple[str, str, str] = ("b", "c", "d")) -> "BTable":
        b, c, d = names
        mult = {}
        for x in names:
            mult[(x, x)] = None
        trip = {b: (c, d), c: (b, d), d: (b, c)}
        for x in names:
            y, z = trip[x]
            mult[(y, z)] = x
            mult[(z, y)] = x
        return BTable(list(names), mult)

    @staticmethod
    def elementary_abelian_2(basis: Sequence[str]) -> "BTable":
        """(Z/2)^k with elements named by concatenating basis names."""
        k = len(basis)
        vecs = [v for v in itertools.product((0, 1), repeat=k) if any(v)]

        def nm(v):
            if not any(v):
                return None
            return "".join(b for b, bit in zip(basis, v) if bit)

        mult = {}
        for u in vecs:
            for v in vecs:
                w = tuple((x + y) % 2 for x, y in zip(u, v))
                mult[(nm(u), nm(v))] = nm(w)
        return BTable([nm(v) for v in vecs], mult)


# -- word letters --------------------------------------------------------
#
# Spinal letters:   ('A', perm)  |  ('B', name)
# Explicit letters: ('G', state)


def _is_rooted(state: TreeAutomorphism) -> bool:
    return all(c.is_identity for c in state.children)


class Word:
    """A word over a group's canonical generating set."""

    __slots__ = ("letters", "reduced")

    def __init__(self, letters: Tuple, reduced: bool = False):
        self.letters = tuple(letters)
        self.reduced = reduced

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Word({self.letters!r})"


class GroupDefinition:
    """A self-similar group with word machinery and generator states.

    Instances for the shifted companion groups are linked in a ring; only
    the shift-0 member carries user-facing generator names and states.
    """

    def __init__(self, name, flavor, shape, shift_index=0):
        self.name = name
        self.flavor = flavor
        self.shape = shape
        self.shift_index = shift_index
        self.b_table: Optional[BTable] = None
        self.omega_maps: Optional[List[Dict[str, Perm]]] = None
        self._ring: List["GroupDefinition"] = [self]
        self._next_index = 0
        self.gen_letters: Dict[str, Tuple] = {}
        self.canonical_letters: List[Tuple] = []
        self.states: Dict[str, TreeAutomorphism] = {}
        self.a_perms: List[Perm] = []
        self._memo_trivial: Dict = {}
        self._memo_order: Dict = {}
        self._quotients: Dict = {}  # level -> LevelQuotient, see level_quotient
        self._directed_states: Dict = {}
        self._rooted_states: Dict = {}  # A-letter -> rooted state, built once
        self._inverses: Dict = {}  # state -> inverse state, built once
        # (state, state) -> what _merge returns for two G-letters; at most
        # the square of the states that letters of reduced words carry
        self._products: Dict = {}
        self._state_names: Optional[Dict] = None  # state -> generator name

    # -- ring plumbing --

    @property
    def is_spinal(self) -> bool:
        return self.omega_maps is not None

    def shifted(self) -> "GroupDefinition":
        """The upper companion group: image of the first-level stabilizer sections."""
        if not self.is_spinal:
            if self.shape.shift() != self.shape:
                raise ValidationError("shift", "explicit flavor needs a regular shape")
            return self
        return self._ring[self._next_index]

    def root_def(self) -> "GroupDefinition":
        return self._ring[0]

    def memo_key(self, letters) -> Tuple:
        return (self.shift_index, letters)

    # -- letters and reduction --

    def letter_inverse(self, letter):
        if letter[0] == "A":
            return ("A", perm_inv(letter[1]))
        if letter[0] == "B":
            return ("B", self.b_table.inv(letter[1]))
        return ("G", self._inverse_state(letter[1]))

    def _inverse_state(self, state: TreeAutomorphism) -> TreeAutomorphism:
        inv = self._inverses.get(state)
        if inv is None:
            inv = self._inverses[state] = invert(state)
            self._inverses[inv] = state
        return inv

    def letter_order(self, letter) -> Optional[int]:
        if letter[0] == "A":
            return perm_order(letter[1])
        if letter[0] == "B":
            return self.b_table.order_of(letter[1])
        if _is_rooted(letter[1]):
            return perm_order(letter[1].root_perm)
        return None

    def _merge(self, x, y):
        """Merge two adjacent letters; None = cancel, False = not mergeable."""
        if x[0] == "A" and y[0] == "A":
            p = perm_mul(x[1], y[1])
            return None if p == identity_perm(len(p)) else ("A", p)
        if x[0] == "B" and y[0] == "B":
            z = self.b_table.mult(x[1], y[1])
            return None if z is None else ("B", z)
        if x[0] == "G" and y[0] == "G":
            key = (x[1], y[1])
            if key not in self._products:
                self._products[key] = self._product_letter(x[1], y[1])
            return self._products[key]
        return False

    def _product_letter(self, f: TreeAutomorphism, g: TreeAutomorphism):
        """The merged letter of two states, as _merge reports it."""
        s = compose(f, g)
        if s.is_identity:
            return None
        if (_is_rooted(f) and _is_rooted(g)) or s in self._names():
            return ("G", s)
        return False

    def _push(self, out: list, letter) -> None:
        """Append a letter to a reduced word, merging at the seam."""
        out.append(letter)
        while len(out) >= 2:
            merged = self._merge(out[-2], out[-1])
            if merged is False:
                break
            out.pop()
            out.pop()
            if merged is not None:
                out.append(merged)

    def reduce(self, letters) -> Tuple:
        """Reduced form: the unique alternating form for spinal groups; for
        explicit groups a shorter word with no mergeable neighbours."""
        out: list = []
        for letter in letters:
            if letter[0] == "A" and letter[1] == identity_perm(len(letter[1])):
                continue
            if letter[0] == "B" and letter[1] is None:
                continue
            if letter[0] == "G" and letter[1].is_identity:
                continue
            self._push(out, letter)
        return tuple(out)

    def inverse_word(self, letters) -> Tuple:
        return tuple(self.letter_inverse(x) for x in reversed(letters))

    def cyclic_reduce(self, letters) -> Tuple[Tuple, Tuple]:
        """Cyclically reduced form w_c plus the conjugator c with w^c = w_c.

        A reduced word stays reduced without its first letter, so each
        rotation only pushes that letter back on at the other end.
        """
        w = list(self.reduce(letters))
        conj = []
        while len(w) >= 2 and self._merge(w[-1], w[0]) is not False:
            conj.append(w.pop(0))
            self._push(w, conj[-1])
        return tuple(w), tuple(conj)

    # -- first-level decomposition at the word level --

    def first_level_sections(self, letters) -> Tuple[Perm, List[Tuple]]:
        """Root permutation and reduced section words of the children.

        The section words live in the shifted group; for spinal groups
        each has at most one letter per B-letter of the input.
        """
        m = self.shape.branching(0)
        child = self.shifted()
        out: List[List] = [[] for _ in range(m)]
        if self.is_spinal:
            spine = m - 1
            prefix = identity_perm(m)
            for letter in letters:
                if letter[0] == "A":
                    prefix = perm_mul(prefix, letter[1])
                else:
                    b = letter[1]
                    for i in range(m):
                        j = prefix[i]
                        if j == spine:
                            out[i].append(("B", b))
                        else:
                            p = self.omega_maps[j].get(b)
                            if p is not None:
                                out[i].append(("A", p))
            return prefix, [child.reduce(w) for w in out]
        # explicit flavor: follow each child through the word; where it
        # ends is its image under the root permutation
        root = []
        for i in range(m):
            pos = i
            for letter in letters:
                state = letter[1]
                sec = state.children[pos]
                pos = state.root_perm[pos]
                if not sec.is_identity:
                    out[i].append(("G", sec))
            root.append(pos)
        return tuple(root), [child.reduce(w) for w in out]

    # -- parsing and printing (shift-0 only) --

    def parse_word(self, text: str) -> Word:
        letters = _parse_word_text(self, text)
        return Word(self.reduce(letters), reduced=True)

    def word(self, text_or_letters) -> Word:
        if isinstance(text_or_letters, Word):
            if not text_or_letters.reduced:
                return Word(self.reduce(text_or_letters.letters), reduced=True)
            return text_or_letters
        if isinstance(text_or_letters, str):
            return self.parse_word(text_or_letters)
        return Word(self.reduce(tuple(text_or_letters)), reduced=True)

    def format_word(self, letters, group: Optional["GroupDefinition"] = None) -> str:
        """Print a word by this group's generator names.

        The letters belong to ``group`` (default: this group; a shifted
        companion for section words).  Each letter is named by its state,
        so a section prints as the generator it equals, an inverse
        generator as ``name'``, and an alias such as ``t`` wins over the
        name it aliases.
        """
        if isinstance(letters, Word):
            letters = letters.letters
        if not letters:
            return "1"
        owner = group or self
        names = self._names()
        parts = []
        for letter in letters:
            label = names.get(owner.state_of_letter(letter))
            if label is None:  # a letter that is no generator
                label = (format_perm(letter[1]) if letter[0] == "A"
                         else f"#{letter[1].serial}" if letter[0] == "G" else letter[1])
            parts.append(label)
        return " ".join(parts) if any(len(p) > 1 for p in parts) else "".join(parts)

    def _names(self) -> Dict[TreeAutomorphism, str]:
        """State -> generator name; later names (aliases) win, and a state
        with no name of its own takes its inverse's name primed."""
        if self._state_names is None:
            names = {self.state_of_letter(x): nm for nm, x in self.gen_letters.items()}
            for state, nm in list(names.items()):
                names.setdefault(self._inverse_state(state), nm + "'")
            self._state_names = names
        return self._state_names

    # -- states --

    def state_of_letter(self, letter) -> TreeAutomorphism:
        if letter[0] == "G":
            return letter[1]
        if letter[0] == "B":
            return self._directed_states[letter[1]]
        state = self._rooted_states.get(letter)
        if state is None:
            state = self._rooted_states[letter] = rooted_state(self.shape, letter[1])
        return state

    def state_of_word(self, word) -> TreeAutomorphism:
        letters = word.letters if isinstance(word, Word) else tuple(word)
        factors = [(self.state_of_letter(x), 1) for x in letters]
        return intern_word(self.shape, factors)

    # -- random words (for tests) --

    def random_reduced_word(self, length: int, rng) -> Tuple:
        letters = []
        if self.is_spinal:
            a_letters = [("A", p) for p in self.a_perms]
            b_letters = [("B", b) for b in self.b_table.names]
            start_with_a = rng.random() < 0.5
            for i in range(length):
                pick_a = start_with_a == (i % 2 == 0)
                letters.append(rng.choice(a_letters if pick_a else b_letters))
        else:
            while len(letters) < length:
                letter = rng.choice(self.canonical_letters)
                if letters and self._merge(letters[-1], letter) is not False:
                    continue
                letters.append(letter)
        return self.reduce(letters)

    def __repr__(self):
        return f"GroupDefinition({self.name!r}, flavor={self.flavor!r})"


# -- tokenizer for word syntax -------------------------------------------


def _parse_word_text(group: GroupDefinition, text: str):
    """Parse 'a(bd)^2c' style words; inverses as x' or x^-1."""
    names = sorted(group.gen_letters, key=len, reverse=True)
    pos = 0
    n = len(text)

    def parse_seq(depth):
        nonlocal pos
        seq = []
        while pos < n:
            ch = text[pos]
            if ch.isspace() or ch == "*":
                pos += 1
                continue
            if ch == ")":
                if depth == 0:
                    raise ValueError(f"unbalanced ')' at column {pos + 1}")
                return seq
            if ch == "(":
                pos += 1
                inner = parse_seq(depth + 1)
                if pos >= n or text[pos] != ")":
                    raise ValueError("missing ')'")
                pos += 1
                seq.append(_apply_suffix(inner))
                continue
            if ch == "1":
                pos += 1
                seq.append([])
                continue
            for name in names:
                if text.startswith(name, pos):
                    pos += len(name)
                    seq.append(_apply_suffix([[group.gen_letters[name]]]))
                    break
            else:
                raise ValueError(f"unknown generator at column {pos + 1}: {text[pos:]!r}")
        return seq

    def _apply_suffix(chunk):
        """Handle ' and ^k after an atom or a parenthesized group."""
        nonlocal pos
        flat = [x for part in chunk for x in part]
        while pos < n and text[pos] in "'^":
            if text[pos] == "'":
                pos += 1
                flat = [group.letter_inverse(x) for x in reversed(flat)]
            else:
                pos += 1
                sign = 1
                if pos < n and text[pos] == "-":
                    sign = -1
                    pos += 1
                if pos >= n or not text[pos].isdigit():
                    raise ValueError(f"bad exponent at column {pos + 1}")
                k = 0
                while pos < n and text[pos].isdigit():
                    k = 10 * k + int(text[pos])
                    pos += 1
                if sign == -1:
                    flat = [group.letter_inverse(x) for x in reversed(flat)]
                if len(flat) == 1 and flat[0][0] in "AB":
                    k %= group.letter_order(flat[0])
                flat = flat * k
        return flat

    seq = parse_seq(0)
    if pos != n:
        raise ValueError(f"unbalanced ')' at column {pos + 1}")
    return [x for part in seq for x in part]


# -- spinal construction -------------------------------------------------


class DefiningTriple:
    """Data for a spinal group: rooted part, directed part, homomorphisms.

    ``omega_prefix``/``omega_cycle`` are lists of levels; each level is a
    list of m_i - 1 dicts mapping B-element names to permutations of the
    next alphabet.
    """

    def __init__(self, shape: TreeShape, a_gens: Sequence[Perm], b_table: BTable,
                 omega_prefix: Sequence, omega_cycle: Sequence):
        self.shape = shape
        self.a_gens = [tuple(p) for p in a_gens]
        self.b_table = b_table
        self.omega_prefix = list(omega_prefix)
        self.omega_cycle = list(omega_cycle)
        if not self.omega_cycle:
            raise ValidationError("defining sequence", "cycle must be nonempty")

    def level_maps(self, i: int) -> List[Dict[str, Perm]]:
        if i < len(self.omega_prefix):
            return self.omega_prefix[i]
        return self.omega_cycle[(i - len(self.omega_prefix)) % len(self.omega_cycle)]

    def ring_size(self) -> Tuple[int, int]:
        pre = max(len(self.shape.prefix), len(self.omega_prefix))
        per = math.lcm(self.shape.period(), len(self.omega_cycle))
        return pre + per, pre


def _perm_closure(gens: Iterable[Perm], m: int) -> List[Perm]:
    gens = [tuple(g) for g in gens]
    seen = {identity_perm(m)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm_mul(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def _is_transitive(perms: Iterable[Perm], m: int) -> bool:
    reached = {0}
    frontier = [0]
    perms = list(perms)
    while frontier:
        nxt = []
        for x in frontier:
            for p in perms:
                if p[x] not in reached:
                    reached.add(p[x])
                    nxt.append(p[x])
        frontier = nxt
    return len(reached) == m


def validate_triple(t: DefiningTriple) -> None:
    """Check the spinal conditions; raise ValidationError naming the culprit."""
    shape = t.shape
    b = t.b_table
    total, pre = t.ring_size()
    for p in t.a_gens:
        if sorted(p) != list(range(shape.branching(0))):
            raise ValidationError("rooted part", f"{p} is not a permutation of Y_1")
    # homomorphism property and degrees
    for i in range(total):
        maps = t.level_maps(i)
        m_i = shape.branching(i)
        m_next = shape.branching(i + 1)
        if len(maps) != m_i - 1:
            raise ValidationError(
                "defining family shape",
                f"level {i + 1} needs {m_i - 1} homomorphisms, got {len(maps)}",
            )
        for j, omega in enumerate(maps):
            for x in b.names:
                px = omega.get(x, identity_perm(m_next))
                if len(px) != m_next:
                    raise ValidationError(
                        "defining family shape",
                        f"omega_{i + 1},{j + 1}({x}) has degree {len(px)} != {m_next}",
                    )
                for y in b.names:
                    py = omega.get(y, identity_perm(m_next))
                    z = b.mult(x, y)
                    pz = identity_perm(m_next) if z is None else omega.get(z, identity_perm(m_next))
                    if perm_mul(px, py) != pz:
                        raise ValidationError(
                            "homomorphism property",
                            f"omega_{i + 1},{j + 1} is not a homomorphism at ({x},{y})",
                        )
    # spherical transitivity
    if not _is_transitive(t.a_gens, shape.branching(0)):
        raise ValidationError("spherical transitivity", "A_omega is not transitive on Y_1")
    for i in range(total):
        m_next = shape.branching(i + 1)
        images = [
            omega.get(x, identity_perm(m_next))
            for omega in t.level_maps(i)
            for x in b.names
        ]
        if not _is_transitive(images, m_next):
            raise ValidationError(
                "spherical transitivity",
                f"A_sigma^{i + 1}omega is not transitive on Y_{i + 2}",
            )
    # strong kernel intersection, checked on every shift of the periodic data;
    # the tail from level r is covered by one full period past max(r, prefix)
    per = total - pre
    for r in range(total):
        residual = set(b.names)
        for i in range(r, max(r, pre) + per):
            maps = t.level_maps(i)
            m_next = shape.branching(i + 1)
            for omega in maps:
                residual = {
                    x for x in residual
                    if omega.get(x, identity_perm(m_next)) == identity_perm(m_next)
                }
        if residual:
            raise ValidationError(
                "strong kernel intersection",
                f"elements {sorted(residual)} act trivially from level {r + 1} on",
            )


def from_triple(
    t: DefiningTriple,
    name: str = "spinal",
    flavor: str = "spinal-triple",
) -> GroupDefinition:
    """Build the spinal group of a defining triple (validated)."""
    validate_triple(t)
    total, pre = t.ring_size()
    shape = t.shape

    ring = []
    for k in range(total):
        g = GroupDefinition(name if k == 0 else f"{name}@{k}", flavor, shape.shift(k), k)
        g.b_table = t.b_table
        maps = t.level_maps(k)
        m_next = shape.branching(k + 1)
        g.omega_maps = [
            {x: omega[x] for x in omega if omega[x] != identity_perm(m_next)}
            for omega in maps
        ]
        ring.append(g)
    for k, g in enumerate(ring):
        g._ring = ring
        g._next_index = k + 1 if k + 1 < total else pre
        if k == 0:
            g.a_perms = [p for p in _perm_closure(t.a_gens, shape.branching(0))
                         if p != identity_perm(shape.branching(0))]
        else:
            m_k = shape.branching(k)
            images = [
                omega.get(x, identity_perm(m_k))
                for omega in t.level_maps(k - 1)
                for x in t.b_table.names
            ]
            g.a_perms = [p for p in _perm_closure(images, m_k)
                         if p != identity_perm(m_k)]
        g.canonical_letters = [("A", p) for p in g.a_perms] + [
            ("B", x) for x in t.b_table.names
        ]
        g._memo_trivial = ring[0]._memo_trivial
        g._memo_order = ring[0]._memo_order

    root = ring[0]
    _build_directed_states(root, t, total, pre)
    _name_spinal_generators(root, t)
    return root


def _build_directed_states(root: GroupDefinition, t: DefiningTriple, total: int, pre: int):
    """Intern the directed part of every ring member in one machine run.

    Atom (x, k) is the element x of ring member k: it fixes the root, its
    non-spine children are the rooted states of omega(x), and its spine
    child is x in the next ring member.
    """
    shape = t.shape
    atoms = {}
    for k in range(total):
        below = shape.shift(k + 1)
        m_next = below.branching(0)
        spine = k + 1 if k + 1 < total else pre
        for x in t.b_table.names:
            entries = [((rooted_state(below, omega.get(x, identity_perm(m_next))), 1),)
                       for omega in t.level_maps(k)]
            entries.append((((x, spine), 1),))
            atoms[(x, k)] = (shape.shift(k), identity_perm(shape.branching(k)), entries)
    states = intern_atoms(atoms)
    for k in range(total):
        root._ring[k]._directed_states = {x: states[(x, k)] for x in t.b_table.names}


def _name_spinal_generators(root: GroupDefinition, t: DefiningTriple):
    shape = root.shape
    m = shape.branching(0)
    # name A-elements: powers of a single generator when A is cyclic
    a_letters = {}
    if len(t.a_gens) == 1 and len(root.a_perms) == perm_order(t.a_gens[0]) - 1:
        gen = t.a_gens[0]
        p = gen
        k = 1
        while p != identity_perm(m):
            a_letters["a" if k == 1 else f"a^{k}"] = ("A", p)
            p = perm_mul(p, gen)
            k += 1
    else:
        for p in root.a_perms:
            a_letters[format_perm(p)] = ("A", p)
    for nm, letter in a_letters.items():
        root.gen_letters[nm] = letter
        root.states[nm] = rooted_state(shape, letter[1])
    for x in t.b_table.names:
        root.gen_letters[x] = ("B", x)
        root.states[x] = root._directed_states[x]


# -- GGS and Grigorchuk constructions ------------------------------------


class GGSVector:
    """Defining vector E = (e_1, ..., e_{m-1}) of a GGS group."""

    def __init__(self, m: int, exponents: Sequence[int]):
        if m < 2:
            raise ValidationError("GGS vector", "m must be >= 2")
        if len(exponents) != m - 1:
            raise ValidationError("GGS vector", f"expected {m - 1} exponents")
        self.m = m
        self.exponents = tuple(e % m for e in exponents)
        if math.gcd(m, *self.exponents) != 1:
            raise ValidationError(
                "GGS vector", f"gcd(e_1,...,e_{m - 1}, m) = "
                f"{math.gcd(m, *self.exponents)} != 1"
            )

    def __repr__(self):
        return f"GGSVector(m={self.m}, E={self.exponents})"


def from_ggs(v: GGSVector, name: Optional[str] = None) -> GroupDefinition:
    """GGS group of a defining vector: a = (1..m) rooted, b = (a^e_1, ..., b)."""
    m = v.m
    shape = TreeShape.regular(m)
    a = perm_from_cycles(m, [list(range(m))])
    b_table = BTable.cyclic(m, "b")

    def a_pow(e):
        p = identity_perm(m)
        for _ in range(e % m):
            p = perm_mul(p, a)
        return p

    omega = []
    for j in range(m - 1):
        e = v.exponents[j]
        omega.append({bn: a_pow(e * k) for k, bn in
                      ((k, ("b" if k == 1 else f"b^{k}")) for k in range(1, m))})
    t = DefiningTriple(shape, [a], b_table, [], [omega])
    g = from_triple(t, name=name or f"GGS{v.exponents}", flavor="GGS-vector")
    g.ggs_vector = v
    return g


GRIGORCHUK_OMEGA_SYMBOLS = {
    0: {"b": 1, "c": 1, "d": 0},
    1: {"b": 1, "c": 0, "d": 1},
    2: {"b": 0, "c": 1, "d": 1},
}


def grigorchuk_2group(
    prefix: Sequence[int] = (),
    cycle: Sequence[int] = (0, 1, 2),
    name: Optional[str] = None,
) -> GroupDefinition:
    """Grigorchuk 2-group of an eventually periodic sequence over {0,1,2}.

    Symbol s maps B = {1,b,c,d} to {1,a} as in the three classical
    homomorphisms; every symbol must occur infinitely often, which is
    checked on the cycle.
    """
    cycle = tuple(cycle)
    prefix = tuple(prefix)
    if set(cycle) != {0, 1, 2}:
        raise ValidationError(
            "defining sequence",
            "each symbol of {0,1,2} must occur infinitely often (in the cycle)",
        )
    shape = TreeShape.regular(2)
    flip = perm_from_cycles(2, [[0, 1]])
    b_table = BTable.klein(("b", "c", "d"))

    def level(sym):
        tab = GRIGORCHUK_OMEGA_SYMBOLS[sym]
        return [{x: flip for x in "bcd" if tab[x]}]

    t = DefiningTriple(
        shape,
        [flip],
        b_table,
        [level(s) for s in prefix],
        [level(s) for s in cycle],
    )
    g = from_triple(t, name=name or f"G_{''.join(map(str, prefix + cycle))}",
                    flavor="GG-sequence")
    g.omega_sequence = (prefix, cycle)
    return g


def explicit_group(
    name: str,
    shape: TreeShape,
    rooted: Dict[str, Perm],
    recursive: Dict[str, Tuple[List[List[Tuple[str, int]]], Optional[Perm]]],
) -> GroupDefinition:
    """Group given by explicit wreath recursions for its generators."""
    states = build_recursive(shape, rooted, recursive)
    g = GroupDefinition(name, "explicit-recursion", shape)
    for nm, st in states.items():
        if st.is_identity:
            raise ValidationError("generators", f"{nm} is the identity")
        g.gen_letters[nm] = ("G", st)
        g.states[nm] = st
        g.canonical_letters.append(("G", st))
        if g._inverse_state(st) is not st:
            g.canonical_letters.append(("G", g._inverse_state(st)))
    return g


# -- built-in groups -----------------------------------------------------

_BUILTIN_ALIASES = {
    "gg": "Gg", "grigorchuk": "Gg", "first_grigorchuk": "Gg",
    "g2": "G2", "second_grigorchuk": "G2",
    "fgg": "FGg", "fabrykowski-gupta": "FGg", "fabrykowski_gupta": "FGg",
    "bgg": "BGg", "bartholdi-grigorchuk": "BGg", "bartholdi_grigorchuk": "BGg",
    "gsg": "GSg", "gupta-sidki": "GSg", "gupta_sidki": "GSg",
    "sg": "Sg", "supergroup": "Sg",
    "bsv": "BSV", "brunner-sidki-vieira": "BSV",
    "dinf": "Dinf", "dihedral": "Dinf",
}

_BUILTIN_CACHE: Dict[str, GroupDefinition] = {}


def builtin(name: str) -> GroupDefinition:
    """Built-in groups: Gg, G2, FGg, BGg, GSg, Sg, BSV, Dinf, GS5, GS7, ..."""
    key = _BUILTIN_ALIASES.get(name.lower(), name)
    if key in _BUILTIN_CACHE:
        return _BUILTIN_CACHE[key]
    g = _make_builtin(key)
    _BUILTIN_CACHE[key] = g
    return g


def _make_builtin(key: str) -> GroupDefinition:
    if key == "Gg":
        return grigorchuk_2group((), (0, 1, 2), name="Gg")
    if key == "G2":
        g = from_ggs(GGSVector(4, (1, 0, 1)), name="G2")
        _alias_directed(g, "t")
        return g
    if key in ("FGg", "BGg", "GSg"):
        e = {"FGg": (1, 0), "BGg": (1, 1), "GSg": (1, 2)}[key]
        g = from_ggs(GGSVector(3, e), name=key)
        _alias_directed(g, "t")
        return g
    if key.startswith("GS") and key[2:].isdigit():
        p = int(key[2:])
        exps = tuple([1, p - 1] + [0] * (p - 3))
        g = from_ggs(GGSVector(p, exps), name=key)
        _alias_directed(g, "t")
        return g
    if key == "Sg":
        shape = TreeShape.regular(2)
        flip = perm_from_cycles(2, [[0, 1]])
        b_table = BTable.elementary_abelian_2(("b", "c", "d"))

        def level(images):
            omega = {}
            for el in b_table.names:
                p = identity_perm(2)
                for basis in "bcd":
                    if basis in el and images[basis]:
                        p = perm_mul(p, flip)
                if p != identity_perm(2):
                    omega[el] = p
            return [omega]

        t = DefiningTriple(
            shape, [flip], b_table, [],
            [level({"b": 1, "c": 0, "d": 0}),
             level({"b": 0, "c": 0, "d": 1}),
             level({"b": 0, "c": 1, "d": 0})],
        )
        return from_triple(t, name="Sg", flavor="GG-sequence")
    if key == "BSV":
        shape = TreeShape.regular(2)
        flip = perm_from_cycles(2, [[0, 1]])
        return explicit_group(
            "BSV", shape, {},
            {
                "mu": ([[], [("mu", -1)]], flip),
                "tau": ([[], [("tau", 1)]], flip),
            },
        )
    if key == "Dinf":
        g = from_ggs(GGSVector(2, (1,)), name="Dinf")
        return g
    raise KeyError(f"unknown built-in group {key!r}")


def _alias_directed(g: GroupDefinition, alias: str):
    g.gen_letters[alias] = g.gen_letters["b"]
    g.states[alias] = g.states["b"]
    for k in range(2, len(g.b_table)):
        nm = f"b^{k}"
        if nm in g.gen_letters:
            g.gen_letters[f"{alias}^{k}"] = g.gen_letters[nm]


# -- GGS torsion criterion -------------------------------------------------


def is_ggs_torsion(v: GGSVector) -> bool:
    """Torsion test for GGS groups over m = p^n points.

    The group is an infinite 2-generated p-group iff the exponent sums
    over the index sets O_k(m) = {p^k, 2 p^k, ..., (p^{n-k}-1) p^k}
    vanish mod p^{k+1} for k = 0, ..., n-1.
    """
    m = v.m
    p = None
    for q in range(2, m + 1):
        if m % q == 0:
            p = q
            break
    n = 0
    mm = m
    while mm % p == 0:
        mm //= p
        n += 1
    if mm != 1:
        raise ValidationError("torsion criterion", f"m={m} is not a prime power")
    for k in range(n):
        total = sum(v.exponents[s - 1] for s in range(p**k, m, p**k))
        if total % p ** (k + 1) != 0:
            return False
    return True
