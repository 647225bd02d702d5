"""Group definitions: spinal/GGS constructors, built-in groups, and words.

A group is described by its tree shape plus a generator table.  Two
flavors are implemented:

* spinal: a rooted part A (permutations of the first alphabet), a finite
  directed part B (multiplication table), and an eventually periodic
  family of homomorphisms omega_i: B -> Sym(Y_{i+1}).  This covers the
  defining-triple, GG-sequence, and GGS-vector constructions.  Each
  shifted companion is a member of a ring whose canonical letters are
  its rooted states (one per nontrivial element of A) and its directed
  states (one per nontrivial element of B); reduced words alternate
  between the two kinds.

* explicit recursion: generators given directly as wreath recursions
  (mu = (1, mu^-1)a and the like); the canonical letters are the
  generators and their inverses.

In both flavors a letter is an interned state (a TreeAutomorphism), and
an inverse letter is the inverse state, computed once per state.
Reduction merges two adjacent letters through a per-group product table
when their product is the identity, when both are rooted, or when the
product is a canonical letter.  For spinal groups this gives the unique
alternating normal form; for explicit groups reduced words are shorter,
not unique.

The first-level decomposition of a word is computed at the word level:
each child is followed through the letters, collecting their nontrivial
sections.  For a spinal word F = [a_0]b_1a_1...b_k[a_k] this is
b_1^{g_1}...b_k^{g_k} g with g_i the inverse of the a-prefix, and each
factor contributes at most one letter to each child word, which bounds
every child by (|F|+1)/2 letters.

Words are parsed by ``parse_letters``, whose grammar the free words of
presentations and the entries of group files share: generator names
read by longest match, ' and ^-k for inverses, ^k for powers,
parentheses, [x,y] and x^y.  A word that would expand past
``WORD_LENGTH_CAP`` letters raises ResourceBoundExceeded.  A group word
whose whitespace-separated chunks are all names s, s' or s^-1 is read by
one lookup per chunk in a table of what ``parse_letters`` reads from each
such chunk, and any other text is parsed whole.  That is exact: no name
holds whitespace and no suffix may follow whitespace, so a chunk reads
alike alone and within a text.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import re
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
    perm_mul,
    perm_order,
    format_perm,
    rooted_state,
)
from .errors import ResourceBoundExceeded, ValidationError
from .shapes import TreeShape

# -- finite directed part ----------------------------------------------


class BTable:
    """A finite group given by its multiplication table.

    Nontrivial elements carry names; the identity is implicit (None in
    products).  ``mult`` maps a pair of names to a name or None.  The table
    must be complete, give each name a right inverse and be associative.
    Light's test checks x(sy) = (xs)y for the generators s of `_generators`
    and all x, y; that suffices, as the generators reach every name and
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y) if a and b pass.
    """

    def __init__(self, names: Sequence[str], mult: Dict[Tuple[str, str], Optional[str]]):
        self.names = list(names)
        self._mult = dict(mult)
        for x in self.names:
            for y in self.names:
                if (x, y) not in self._mult:
                    raise ValidationError("directed part", f"missing product {x}*{y}")
        for x in self.names:
            if all(self._mult[(x, y)] is not None for y in self.names):
                raise ValidationError("directed part", f"{x} has no inverse")
        for s in _generators(self):
            for x in self.names:
                xs = self.mult(x, s)
                for y in self.names:
                    if self.mult(x, self.mult(s, y)) != self.mult(xs, y):
                        raise ValidationError(
                            "directed part", f"not associative: {x}*({s}*{y}) != ({x}*{s})*{y}")
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
# A letter is an interned state (a TreeAutomorphism); a word is a tuple
# of letters of one group, compared and hashed by state identity.


def _is_rooted(state: TreeAutomorphism) -> bool:
    return all(c.is_identity for c in state.children)


class _Inverses(dict):
    """State -> inverse state, each pair built once, on the first lookup."""

    def __missing__(self, state):
        inv = self[state] = invert(state)
        self[inv] = state
        return inv


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


# -- word syntax -----------------------------------------------------------
#
# One grammar serves group words and the free words of presentations:
#
#     word   ::= factor*                whitespace and '*' separate factors
#     factor ::= atom suffix*
#     atom   ::= symbol | '1' | '(' word ')' | '[' word ',' word ']'
#     suffix ::= "'" | '^' ['-'] digits | '^' symbol "'"* | '^(' word ')'
#
# with [x,y] = x'y'xy and x^y = y'xy; a suffix follows its atom with no
# space.  Symbols are read by longest match from an alphabet, or are
# single word characters when there is none.

# most letters a parsed word, or a power inside it, may expand to
WORD_LENGTH_CAP = 1 << 20
# most brackets, parentheses and ^( a parsed word may nest; each level is
# one interpreter frame
WORD_NESTING_CAP = 256

# token kinds by regex group: a power, a suffix mark (' or ^( ), a
# conjugating symbol, an atom mark, a run of symbols none of which takes a
# suffix, a symbol; group 10 is anything else.  A run keeps each symbol and
# separator as read by longest match, since a lookahead captures it, a
# backreference consumes it and lookarounds are atomic: Sg's "bcd'" is bcd'.
_POWER, _MARK, _CONJ, _ATOM, _RUN, _SYMBOL = 1, 2, 3, 4, 5, 9


@functools.lru_cache(maxsize=64)
def _tokens(alphabet: Optional[Tuple[str, ...]]):
    """The token iterator of an alphabet, and the splitter of its runs."""
    symbol = (r"\w" if alphabet is None  # longest match first; (?!) matches nothing
              else "|".join(map(re.escape, sorted(alphabet, key=len, reverse=True))) or "(?!)")
    run = rf"(?=({symbol}))\6(?![\^'])(?:(?=([\s*]*))\7(?![1()\[\],])(?=({symbol}))\8(?![\^']))*"
    tokens = re.compile(rf"(\^-?\d+)|(\^\(|')|(\^(?:{symbol}))|[\s*]*(?:([1()\[\],])|({run})"
                        rf"|({symbol})|([^\s*]))")
    return tokens.finditer, re.compile(rf"[\s*]*({symbol})").findall


def check_word_length(letters: int, what: str) -> None:
    """Raise ResourceBoundExceeded when ``what`` would pass WORD_LENGTH_CAP."""
    if letters > WORD_LENGTH_CAP:
        raise ResourceBoundExceeded(f"{what} expands to {letters} letters, over the bound "
                                    f"{WORD_LENGTH_CAP} (groups.WORD_LENGTH_CAP)")


def parse_letters(text: str, alphabet: Optional[Tuple[str, ...]], letter, inverse, order) -> list:
    """The letters of a word text, expanded (see the grammar above).

    ``letter`` maps a symbol to a letter and ``inverse`` inverts one; the
    exponent of a single letter is taken modulo ``order(letter)`` (when
    not None) before it is expanded.  A malformed text is a ValueError,
    a word or power past WORD_LENGTH_CAP is refused before it is built, and
    so is a text nesting deeper than WORD_NESTING_CAP.
    """
    finditer, split = _tokens(alphabet)
    tokens = [(m.lastindex, m[m.lastindex], m.start(m.lastindex)) for m in finditer(text)]
    tokens.append((0, "", len(text)))
    i = 0

    def expect(mark):
        nonlocal i
        if tokens[i][1] != mark:
            raise ValueError(f"missing {mark!r} at column {tokens[i][2] + 1}")
        i += 1

    def invert(w):
        return list(map(inverse, reversed(w)))

    def word(depth=0):
        """Factors with their suffixes, up to a closing mark or the end."""
        nonlocal i
        if depth > WORD_NESTING_CAP:
            raise ResourceBoundExceeded(f"a word nests deeper than {WORD_NESTING_CAP} levels "
                                        "(groups.WORD_NESTING_CAP)")
        out = []
        while True:
            kind, value, _ = tokens[i]
            if kind != _RUN and kind != _SYMBOL and (kind != _ATOM or value in ")],"):
                return out
            i += 1
            if kind == _RUN:
                part = list(map(letter, split(value)))
            elif kind == _SYMBOL:
                part = [letter(value)]
            elif value == "(":
                part = word(depth + 1)
                expect(")")
            elif value == "[":
                x = word(depth + 1)
                expect(",")
                y = word(depth + 1)
                expect("]")
                part = invert(x) + invert(y) + x + y
            else:
                part = []
            while tokens[i][0] in (_POWER, _MARK, _CONJ):
                kind, value, _ = tokens[i]
                i += 1
                if kind == _POWER:
                    k = int(value[1:])
                    if k < 0:
                        part, k = invert(part), -k
                    if len(part) == 1 and (n := order(part[0])):
                        k %= n
                    check_word_length(len(part) * k, "a power")
                    part = part * k
                elif value == "'":
                    part = invert(part)
                else:  # x^y or x^(w)
                    if kind == _CONJ:
                        by = [letter(value[1:])]
                        while tokens[i][:2] == (_MARK, "'"):
                            i += 1
                            by = invert(by)
                    else:
                        by = word(depth + 1)
                        expect(")")
                    part = invert(by) + part + by
            check_word_length(len(out) + len(part), "a word")
            out += part

    letters = word()
    kind, value, col = tokens[i]
    if kind:
        raise ValueError(f"{'dangling' if value == '^' else 'unexpected'} {value!r} "
                         f"at column {col + 1}")
    return letters


def parse_list(text: str, parse: Callable[[str], object]) -> list:
    """``parse`` of each part of a comma-separated list, split only at
    commas outside brackets and parentheses, so a part may hold [x,y].
    A ValueError from ``parse`` is raised again naming the part, so a
    column in it counts within that part."""
    parts, depth, start = [], 0, 0

    def add(part: str):
        try:
            parts.append(parse(part))
        except ValueError as exc:
            raise ValueError(f"{exc} in {part!r}, item {len(parts) + 1} of the list") from exc

    for i, char in enumerate(text):
        depth += (char in "([") - (char in ")]")
        if char == "," and depth == 0:
            add(text[start:i].strip())
            start = i + 1
    add(text[start:].strip())
    return parts


def read_lines(text: str, directive: Callable, error: type = ValueError) -> None:
    """The line loop of group and presentation files: ``directive(head,
    rest)`` gets each line's first word and the rest, past '#' comments
    and blank lines.  A callable it returns runs after the last line, when
    every name is defined.  A ValueError from either is raised again as
    ``error``, prefixed "line N: ".
    """
    steps = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].strip().split(None, 1)
        if words:
            steps.append((line_no, directive, words[0], "".join(words[1:])))
    for line_no, step, *args in steps:  # the callables directives return join the end
        try:
            finish = step(*args)
        except ValueError as exc:
            raise error(f"line {line_no}: {exc}") from exc
        if finish is not None:
            steps.append((line_no, finish))


class GroupDefinition:
    """A self-similar group with word machinery and generator states.

    Instances for the shifted companion groups are linked in a ring; only
    the shift-0 member carries user-facing generator names.
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
        self.canonical_letters: List[TreeAutomorphism] = []
        self.states: Dict[str, TreeAutomorphism] = {}  # generator name -> state
        self.a_perms: List[Perm] = []
        self._memo_trivial: Dict = {}
        self._memo_order: Dict = {}
        self._quotients: Dict = {}  # level -> LevelQuotient, see level_quotient
        self._b_names: Dict[TreeAutomorphism, str] = {}  # directed state -> B-name
        self._inverses = _Inverses()
        # left letter -> right letter -> what _merge returns; at most the
        # square of the states that letters of reduced words carry
        self._products: Dict = {}
        self._state_names: Optional[Dict] = None  # state -> generator name
        self._alphabet: Optional[Tuple[str, ...]] = None  # generator names, from the first parse
        self._chunks: Dict[str, TreeAutomorphism] = {}  # name text -> letter, see _read_names

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

    def companion(self, shift_index: int) -> "GroupDefinition":
        """The member of this group's ring with the given shift index."""
        return self._ring[shift_index]

    def memo_key(self, letters) -> Tuple:
        return (self.shift_index, letters)

    # -- letters and reduction --

    def letter_inverse(self, letter: TreeAutomorphism) -> TreeAutomorphism:
        return self._inverses[letter]

    def letter_order(self, letter: TreeAutomorphism) -> Optional[int]:
        """The order of a rooted or directed letter; None for the others."""
        name = self._b_names.get(letter)
        if name is not None:
            return self.b_table.order_of(name)
        if _is_rooted(letter):
            return perm_order(letter.root_perm)
        return None

    def _merge(self, x, y):
        """Merge two adjacent letters; None = cancel, False = not mergeable."""
        row = self._products.setdefault(x, {})
        if y not in row:
            row[y] = self._product_letter(x, y)
        return row[y]

    def _product_letter(self, f: TreeAutomorphism, g: TreeAutomorphism):
        """The merged letter of two states: None for the identity, the
        product when both are rooted or it is a canonical letter, and
        False otherwise."""
        s = compose(f, g)
        if s.is_identity:
            return None
        if (_is_rooted(f) and _is_rooted(g)) or s in self.canonical_letters:
            return s
        return False

    def _extend(self, out: list, letters) -> list:
        """Push letters onto the reduced word ``out``, skipping identity
        letters and merging each one at the seam as far as merges go."""
        products, merge, append, pop = self._products, self._merge, out.append, out.pop
        for x in letters:
            if x.is_identity:
                continue
            while out:
                try:
                    merged = products[out[-1]][x]
                except KeyError:
                    merged = merge(out[-1], x)
                if merged is False:
                    append(x)
                    break
                pop()
                if merged is None:  # out stays reduced: its old seam did not merge
                    break
                x = merged
            else:
                append(x)
        return out

    def reduce(self, letters) -> Tuple:
        """Reduced form: a word with no identity letter and no mergeable
        neighbours; for spinal groups the unique alternating form of
        rooted and directed letters."""
        return tuple(self._extend([], letters))

    def inverse_word(self, letters) -> Tuple:
        return tuple(map(self._inverses.__getitem__, reversed(letters)))

    def cyclic_reduce(self, letters) -> Tuple[Tuple, Tuple]:
        """Cyclically reduced form w_c plus the conjugator c with w^c = w_c,
        for a reduced word w.

        A reduced word stays reduced without its first letter, so each
        rotation only pushes that letter back on at the other end.
        """
        w = list(letters)
        conj = []
        while len(w) >= 2 and self._merge(w[-1], w[0]) is not False:
            conj.append(w.pop(0))
            self._extend(w, conj[-1:])
        return tuple(w), tuple(conj)

    # -- first-level decomposition at the word level --

    def first_level_sections(self, letters) -> Tuple[Perm, List[Tuple]]:
        """Root permutation and reduced section words of the children.

        Each child is followed through the word; where it ends is its
        image under the root permutation.  The section words live in the
        shifted group; for spinal groups each has at most one letter per
        directed letter of the input.
        """
        extend = self.shifted()._extend
        root, sections = [], []
        for pos in range(self.shape.branching(0)):  # follow child pos
            secs = []
            append = secs.append
            for letter in letters:
                append(letter.children[pos])
                pos = letter.root_perm[pos]
            root.append(pos)
            sections.append(tuple(extend([], secs)))
        return tuple(root), sections

    # -- parsing and printing (shift-0 only) --

    def parse_word(self, text: str) -> Word:
        if self._alphabet is None:
            self._read_names()
        chunks = text.split()  # read by name when each is a key of _chunks (module doc)
        by_name = len(chunks) <= WORD_LENGTH_CAP and all(map(self._chunks.__contains__, chunks))
        letters = map(self._chunks.__getitem__, chunks) if by_name else self._parse(text)
        return Word(self.reduce(letters), reduced=True)

    def _parse(self, text: str) -> list:
        return parse_letters(text, self._alphabet, self.states.__getitem__,
                             self._inverses.__getitem__, self.letter_order)

    def _read_names(self) -> None:
        """Fix the generator names, and map each text s, s' and s^-1 of a
        name s that parse_letters reads as one letter to that letter; a name
        holding whitespace leaves the map empty (see the module doc)."""
        self._alphabet = tuple(self.states)
        if all(s.split() == [s] for s in self._alphabet):
            for text in (s + mark for s in self._alphabet for mark in ("", "'", "^-1")):
                with contextlib.suppress(ValueError):
                    if len(letters := self._parse(text)) == 1:
                        self._chunks[text] = letters[0]

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
        generator as ``name'``, a section of an explicit generator as its
        recursion entry, and an alias such as ``t`` wins over the name it
        aliases.  A letter that is no generator prints in cycle notation
        when rooted, by its B-name when it is a directed letter of
        ``group`` or else of the first ring member in shift order that
        has it, and as ``#serial`` otherwise.
        """
        if isinstance(letters, Word):
            letters = letters.letters
        if not letters:
            return "1"
        owner = group or self
        names = self._names()
        parts = []
        for letter in letters:
            label = names.get(letter)
            if label is None and _is_rooted(letter):
                label = format_perm(letter.root_perm)
            elif label is None:
                label = next((m._b_names[letter] for m in (owner, *owner._ring)
                              if letter in m._b_names), f"#{letter.serial}")
            parts.append(label)
        return " ".join(parts) if any(len(p) > 1 for p in parts) else "".join(parts)

    def _names(self) -> Dict[TreeAutomorphism, str]:
        """State -> generator name; later names (aliases) win, and a state
        with no name of its own takes its inverse's name primed."""
        if self._state_names is None:
            names = {state: nm for nm, state in self.states.items()}
            for state, nm in list(names.items()):
                names.setdefault(self.letter_inverse(state), nm + "'")
            self._state_names = names
        return self._state_names

    # -- states --

    def state_of_letter(self, letter: TreeAutomorphism) -> TreeAutomorphism:
        """A letter is its own state."""
        return letter

    def state_of_word(self, word) -> TreeAutomorphism:
        letters = word.letters if isinstance(word, Word) else tuple(word)
        return intern_word(self.shape, [(x, 1) for x in letters])

    def __repr__(self):
        return f"GroupDefinition({self.name!r}, flavor={self.flavor!r})"


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


def _generators(b: BTable) -> List[str]:
    """Names of B that generate it, picked greedily in table order: a name
    is kept when the names kept before it do not generate it."""
    gens: List[str] = []
    reached = {None}
    for x in b.names:
        if x in reached:
            continue
        gens.append(x)
        while True:
            grown = reached | {b.mult(y, s) for y in reached for s in gens}
            if grown == reached:
                break
            reached = grown
    return gens


def validate_triple(t: DefiningTriple) -> None:
    """Check the spinal conditions; raise ValidationError naming the culprit.

    As B is a group, a map omega is a homomorphism iff
    omega(s y) = omega(s) omega(y) for each s of a generating set of B and
    each y in B (induct on the length of x as a word in the generators),
    so the check multiplies |generators| * |B| pairs per map, not |B|^2.
    """
    shape = t.shape
    b = t.b_table
    gens = _generators(b)
    total, pre = t.ring_size()
    for p in t.a_gens:
        if sorted(p) != list(range(shape.branching(0))):
            raise ValidationError("rooted part", f"{p} is not a permutation of Y_1")
    # degrees and homomorphism property
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
            for x in gens:
                px = omega.get(x, identity_perm(m_next))
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
        g._memo_trivial = ring[0]._memo_trivial
        g._memo_order = ring[0]._memo_order
    _build_directed_states(ring, t, total, pre)
    for g in ring:  # rooted letters first, then directed ones
        g.canonical_letters = ([rooted_state(g.shape, p) for p in g.a_perms]
                               + list(g._b_names))

    root = ring[0]
    _name_spinal_generators(root, t)
    return root


def _build_directed_states(ring: List[GroupDefinition], t: DefiningTriple,
                           total: int, pre: int):
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
    for k, g in enumerate(ring):
        g._b_names = {states[(x, k)]: x for x in t.b_table.names}


def _name_spinal_generators(root: GroupDefinition, t: DefiningTriple):
    shape = root.shape
    m = shape.branching(0)
    # name the rooted letters: powers of a single generator when A is cyclic
    if len(t.a_gens) == 1 and len(root.a_perms) == perm_order(t.a_gens[0]) - 1:
        gen = t.a_gens[0]
        p = gen
        k = 1
        while p != identity_perm(m):
            root.states["a" if k == 1 else f"a^{k}"] = rooted_state(shape, p)
            p = perm_mul(p, gen)
            k += 1
    else:
        for p in root.a_perms:
            root.states[format_perm(p)] = rooted_state(shape, p)
    for state, x in root._b_names.items():
        root.states[x] = state


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


# largest degree m of a GGS group that from_ggs builds
GGS_DEGREE_CAP = 64


def from_ggs(v: GGSVector, name: Optional[str] = None) -> GroupDefinition:
    """GGS group of a defining vector: a = (1..m) rooted, b = (a^e_1, ..., b).

    Raises ResourceBoundExceeded, before any state is built, when m passes
    GGS_DEGREE_CAP: the construction takes time about m^3.
    """
    m = v.m
    if m > GGS_DEGREE_CAP:
        raise ResourceBoundExceeded(
            f"GGS degree {m} is over the bound {GGS_DEGREE_CAP} on the degree of a "
            "GGS group (groups.GGS_DEGREE_CAP)")
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
    return from_triple(t, name=name or f"G_{''.join(map(str, prefix + cycle))}",
                       flavor="GG-sequence")


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
        g.states[nm] = st
        g.canonical_letters.append(st)
        if g.letter_inverse(st) is not st:
            g.canonical_letters.append(g.letter_inverse(st))
    # a section that is no generator (nor an inverse one) prints as the
    # recursion entry that defines it, such as x^2
    names = g._names()
    for nm, (entries, _) in recursive.items():
        for child, entry in zip(states[nm].children, entries):
            if not child.is_identity:
                text = " ".join(ref if exp == 1 else f"{ref}^{exp}" for ref, exp in entry)
                names.setdefault(child, text if len(entry) == 1 else f"({text})")
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
    g.states[alias] = g.states["b"]
    for k in range(2, len(g.b_table)):
        nm = f"b^{k}"
        if nm in g.states:
            g.states[f"{alias}^{k}"] = g.states[nm]


# -- GGS torsion criterion -------------------------------------------------


def least_prime(n: int) -> int:
    """The least prime dividing n > 1."""
    return next(d for d in range(2, n + 1) if n % d == 0)


def p_exponent(n: int, p: int, what: str) -> int:
    """e with n = p^e; ValueError(what) when n is not a power of p."""
    e = 0
    while n > 1 and n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise ValueError(what)
    return e


def is_ggs_torsion(v: GGSVector) -> bool:
    """Torsion test for GGS groups over m = p^n points.

    The group is an infinite 2-generated p-group iff the exponent sums
    over the index sets O_k(m) = {p^k, 2 p^k, ..., (p^{n-k}-1) p^k}
    vanish mod p^{k+1} for k = 0, ..., n-1.
    """
    m = v.m
    p = least_prime(m)
    try:
        n = p_exponent(m, p, f"m={m} is not a prime power")
    except ValueError as exc:
        raise ValidationError("torsion criterion", str(exc)) from None
    for k in range(n):
        total = sum(v.exponents[s - 1] for s in range(p**k, m, p**k))
        if total % p ** (k + 1) != 0:
            return False
    return True
