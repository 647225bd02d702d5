"""Endomorphic (L-)presentations: data model, expansion, verification.

A presentation is (S, Q, Phi, R): fixed relators Q, iterated relators R,
and free-word substitutions Phi.  The presented group is the quotient of
the free group on S by Q together with every image of R under the monoid
generated by Phi.  Substitutions act on free words only; they need not
descend to group endomorphisms (for the Gupta-Sidki group they do not).

Free words are tuples of (symbol, +-1), written in the syntax of group
words (``groups.parse_letters``) and freely reduced.  Expansion
enumerates compositions of at most `depth` substitutions breadth-first
and deduplicates the resulting reduced words.  Verification maps each
expanded relator into a target group through a declared alphabet
dictionary and runs the word-problem oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .automorphisms import free_inverse, free_reduce
from .decision import is_trivial
from .errors import ResourceBoundExceeded
from .groups import (GroupDefinition, Word, check_word_length, parse_letters, parse_list,
                     read_lines)

FreeWord = Tuple[Tuple[str, int], ...]

# most words the closure of the iterated relators under the twists may hold
TWIST_CLOSURE_CAP = 4096
# most words an expansion may hold, its fixed and twist-closed relators included
EXPANSION_CAP = 4096


def parse_free_word(text: str, alphabet: Sequence[str] = ()) -> FreeWord:
    """Parse words like "a c' (d^a)^2 [x,y]", freely reduced.

    The syntax is the one of group words (``groups.parse_letters``):
    juxtaposition, ' and ^-k for inverses, ^k for powers, x^y and x^(w)
    for conjugation (x^w = w' x w), parentheses and [x,y] commutators.
    Symbols are single letters, or, when an alphabet is given, its
    symbols read by longest match ("tau^2" over tau, mu); a symbol
    outside the alphabet is a ValueError.
    """
    return free_reduce(parse_letters(text, tuple(alphabet) or None, lambda s: (s, 1),
                                     lambda x: (x[0], -x[1]), lambda x: None))


def format_free_word(word: FreeWord) -> str:
    if not word:
        return "1"
    parts = []
    for sym, exp in word:
        if exp == 1:
            parts.append(sym)
        elif exp == -1:
            parts.append(sym + "'")
        else:
            parts.append(f"{sym}^{exp}")
    return " ".join(parts) if any(len(s) > 1 for s, _ in word) else "".join(parts)


class Substitution:
    """A free-word endomorphism given on the alphabet symbols."""

    def __init__(self, name: str, images: Dict[str, FreeWord]):
        self.name = name
        self.images = dict(images)

    @staticmethod
    def parse(name: str, images: Dict[str, str]) -> "Substitution":
        return Substitution(name, {s: parse_free_word(w) for s, w in images.items()})

    def apply(self, word: FreeWord) -> FreeWord:
        """The freely reduced image, refused past groups.WORD_LENGTH_CAP."""
        images = [(self.images.get(sym, ((sym, 1),)), exp) for sym, exp in word]
        check_word_length(sum(len(image) * abs(exp) for image, exp in images),
                          f"the image under {self.name}")
        out: List[Tuple[str, int]] = []
        for image, exp in images:
            if exp < 0:
                image = free_inverse(image)
            for _ in range(abs(exp)):
                out.extend(image)
        return free_reduce(out)

    def __repr__(self):
        return f"Substitution({self.name})"


@dataclass
class EndomorphicPresentation:
    """(S, Q, Phi, R) with expansion bookkeeping.

    ``twists`` are substitutions that act as symmetries of the relator
    set: the iterated relators are first closed under the twists, and
    only then are the ``substitutions`` composed freely on top.  With no
    twists this reduces to plain breadth-first enumeration of the
    substitution monoid applied to R.
    """

    name: str
    alphabet: Tuple[str, ...]
    fixed: Tuple[FreeWord, ...]
    substitutions: Tuple[Substitution, ...]
    iterated: Tuple[FreeWord, ...]
    twists: Tuple[Substitution, ...] = ()

    def expand(self, depth: int) -> List[FreeWord]:
        """Q plus all images of the twist-closed R under compositions of
        <= depth substitutions, breadth-first, deduplicated, in discovery
        order."""
        closure = [free_reduce(w) for w in self.iterated]
        closed = set(closure)
        for v in _images(closure, self.twists, closed, math.inf):
            if len(closed) > TWIST_CLOSURE_CAP:
                raise ResourceBoundExceeded(
                    f"twist closure exceeded {TWIST_CLOSURE_CAP} words "
                    "(presentations.TWIST_CLOSURE_CAP)")
            closure.append(v)
        out: List[FreeWord] = []
        seen = set()
        for w in [free_reduce(w) for w in self.fixed] + closure:
            if w and w not in seen:
                seen.add(w)
                out.append(w)
        for v in _images(closure, self.substitutions, seen, depth):
            if len(seen) > EXPANSION_CAP:
                raise ResourceBoundExceeded(
                    f"expansion exceeded {EXPANSION_CAP} words "
                    "(presentations.EXPANSION_CAP)")
            out.append(v)
        return out


def _images(words: List[FreeWord], maps: Sequence[Substitution], seen: set,
            layers: float) -> Iterator[FreeWord]:
    """Breadth-first images of the words under the maps, `layers` layers
    deep or until a layer brings nothing new: each nonempty image not in
    `seen` is added to it, then yielded."""
    frontier = list(words)
    while frontier and layers > 0:
        layers -= 1
        nxt = []
        for w in frontier:
            for phi in maps:
                v = phi.apply(w)
                if v and v not in seen:
                    seen.add(v)
                    nxt.append(v)
                    yield v
        frontier = nxt


@dataclass
class VerificationReport:
    presentation: str
    group: str
    depth: int
    total: int
    failures: List[Tuple[FreeWord, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def first_failure(self) -> Optional[str]:
        if self.failures:
            return self.failures[0][1]
        return None


def translate(word: FreeWord, group: GroupDefinition,
              alphabet_map: Dict[str, str]) -> Word:
    """Map a free word into a group word through declared abbreviations."""
    parsed: Dict[str, Tuple] = {}  # each distinct symbol is parsed once
    letters: List = []
    for sym, exp in word:
        if sym not in parsed:
            parsed[sym] = group.parse_word(alphabet_map.get(sym, sym)).letters
        chunk = parsed[sym] if exp > 0 else group.inverse_word(parsed[sym])
        for _ in range(abs(exp)):
            letters.extend(chunk)
    return Word(group.reduce(tuple(letters)), True)


def verify(presentation: EndomorphicPresentation, group: GroupDefinition,
           depth: int, alphabet_map: Optional[Dict[str, str]] = None) -> VerificationReport:
    """Check that every expanded relator is trivial in the group."""
    amap = dict(alphabet_map or {})
    relators = presentation.expand(depth)
    report = VerificationReport(presentation.name, group.name, depth, len(relators))
    for rel in relators:
        if not is_trivial(group, translate(rel, group, amap)):
            report.failures.append((rel, format_free_word(rel)))
    return report


# -- the built-in presentations -------------------------------------------


_p = parse_free_word


_PRESENTATIONS: Dict[str, Tuple] = {}


def presentation(name: str) -> Tuple[EndomorphicPresentation, str, Dict[str, str]]:
    """Built-in presentations: returns (presentation, group name, alphabet map).

    Names: lysionok, gg_ascending, sg, fgg, gsg, bsv.

    The gsg data lists only relations verified in the Gupta-Sidki group
    (fixed relators a^3, t^3 and the definitions u = t^a, v = t^(a^-1);
    iterated relators (tuv)^3 and [v,t][vt, u^-1 t v^-1 u]); it is not
    claimed to be a complete presentation.  The classical third relator
    [t,u]^3 [u,v]^3 [t,v]^3 is left out because it does not hold in the
    group: it has order 9 and moves 162 of the 243 level-5 vertices.
    """
    key = name.lower()
    if key not in _PRESENTATIONS:
        _PRESENTATIONS[key] = _make_presentation(key)
    return _PRESENTATIONS[key]


def _make_presentation(key: str):
    if key in ("lysionok", "gg_lysionok"):
        phi = Substitution.parse("phi", {"a": "aca", "c": "cd", "d": "c"})
        pres = EndomorphicPresentation(
            "lysionok", ("a", "c", "d"), (),
            (phi,), (_p("a^2"), _p("(ad)^4"), _p("(adacac)^4")),
        )
        return pres, "Gg", {}
    if key in ("gg_ascending", "gg"):
        phi = Substitution.parse("phi", {"a": "aca", "c": "cd", "d": "c"})
        pres = EndomorphicPresentation(
            "gg_ascending", ("a", "c", "d"), (),
            (phi,), (_p("a^2"), _p("[d,d^a]"), _p("[d^(ac),(d^(ac))^a]")),
        )
        return pres, "Gg", {}
    if key == "sg":
        phi = Substitution.parse("phi", {"a": "aba", "b": "d", "c": "b", "d": "c"})
        relators = (
            _p("a^2"),
            _p("[b,c]"),
            _p("[c,c^a]"),
            _p("[c,d^a]"),
            _p("[d,d^a]"),
            _p("[c^(ab),(c^(ab))^a]"),
            _p("[c^(ab),(d^(ab))^a]"),
            _p("[d^(ab),(d^(ab))^a]"),
        )
        pres = EndomorphicPresentation("sg", ("a", "b", "c", "d"), (), (phi,), relators)
        return pres, "Sg", {}
    if key == "fgg":
        # group-ring exponents r^{1+a+a^-1} expand left-to-right as
        # products of conjugates r^(g1) r^(g2) ...; the sign maps chi1,
        # chi2 act as twists of the relator set (innermost), with the
        # level substitution phi composing freely on top -- verified by
        # the triviality oracle, which rejects free composition of the
        # sign maps with phi
        phi = Substitution.parse("phi", {"a": "r^(a')", "r": "r"})
        chi1 = Substitution.parse("chi1", {"a": "a", "r": "r'"})
        chi2 = Substitution.parse("chi2", {"a": "a'", "r": "r"})
        relators = (
            _p("a^3"),
            _p("a'^(r r^(a') r' r^a r) a"),  # r^{1+a^-1-1+a+1}
            _p("a a'^(r r^a r^(a')) a'^(r^a r r^(a')) a"),  # r^{1+a+a^-1}, r^{a+1+a^-1}
        )
        pres = EndomorphicPresentation("fgg", ("a", "r"), (), (phi,), relators,
                                       twists=(chi1, chi2))
        return pres, "FGg", {"r": "t"}
    if key == "gsg":
        phi = Substitution.parse("phi", {"t": "t", "u": "u't v' t u v t'",
                                         "v": "t' v u t v' t u'"})
        chi = Substitution.parse("chi", {"t": "t'", "u": "u'", "v": "v'"})
        fixed = (_p("a^3"), _p("t^3"), _p("u' t^a"), _p("v' t^(a')"))
        relators = (_p("(tuv)^3"), _p("[v,t] [vt,u'tv'u]"))
        pres = EndomorphicPresentation("gsg", ("a", "t", "u", "v"), fixed,
                                       (phi,), relators, twists=(chi,))
        return pres, "GSg", {"u": "t^a", "v": "t^(a')"}
    if key == "bsv":
        phi = Substitution.parse("phi", {"T": "T^2", "L": "T^2 L' T^2"})
        relators = (_p("[L,L^T]"), _p("[L,L^(T^3)]"))
        pres = EndomorphicPresentation("bsv", ("L", "T"), (), (phi,), relators)
        # lambda = tau mu^-1, tau = tau
        return pres, "BSV", {"L": "tau mu'", "T": "tau"}
    raise KeyError(f"unknown presentation {key!r}")


def parse_presentation_file(text: str):
    """Line-oriented presentation files ('#' comments):

        presentation <name>
        alphabet <s1> <s2> ...
        substitution <name>: <s> -> <word>, <s> -> <word>, ...
        twist <name>: <s> -> <word>, ...
        fixed <word>
        iterated <word>
        map <symbol> -> <group word>     # translation for verification
        group <builtin name>             # default verification target

    Words are group words over the alphabet declared above them, so a
    list may hold [x,y]; a malformed line is a ValueError naming the line.

    Returns (presentation, group name or None, alphabet map).
    """
    name = "anonymous"
    alphabet: Tuple[str, ...] = ()
    fixed: List[FreeWord] = []
    iterated: List[FreeWord] = []
    substitutions: List[Substitution] = []
    twists: List[Substitution] = []
    amap: Dict[str, str] = {}
    group_name: Optional[str] = None

    def image(part: str) -> Tuple[str, FreeWord]:
        sym, arrow, word = part.partition("->")
        if not arrow:
            raise ValueError("expected 's -> word'")
        # blanks in place of 's ->', so an error's column counts within the part
        return sym.strip(), parse_free_word(" " * (len(sym) + 2) + word, alphabet)

    def directive(head: str, rest: str):
        nonlocal name, alphabet, group_name
        if head == "presentation":
            name = rest
        elif head == "alphabet":
            alphabet = tuple(rest.split())
        elif head in ("substitution", "twist"):
            sub_name, _, body = rest.partition(":")
            sub = Substitution(sub_name.strip(), dict(parse_list(body, image)))
            (substitutions if head == "substitution" else twists).append(sub)
        elif head == "fixed":
            fixed.append(parse_free_word(rest, alphabet))
        elif head == "iterated":
            iterated.append(parse_free_word(rest, alphabet))
        elif head == "map":
            sym, _, target = rest.partition("->")
            amap[sym.strip()] = target.strip()
        elif head == "group":
            group_name = rest
        else:
            raise ValueError(f"unknown directive {head!r}")

    read_lines(text, directive)
    pres = EndomorphicPresentation(
        name, alphabet, tuple(fixed), tuple(substitutions), tuple(iterated),
        twists=tuple(twists),
    )
    return pres, group_name, amap
