"""The word kernels against the per-letter references they replaced
(``oracles``): the parser that read one token per symbol, and the reduce,
cyclic_reduce and first_level_sections that pushed one letter at a time
through ``_merge``; and ``parse_word``'s table of generator names against
``parse_letters``.  Texts and letter tuples are drawn with seeded
generators, malformed texts and unreduced stretches included."""

import random
import re

import pytest

from oracles import (cyclic_reduce_reference, first_level_sections_reference,
                     parse_letters_reference, reduce_reference)
from test_groups import ALESHIN_GRP, BUILTINS, S3_GRP, _d6_spinal, _gg_twin

from branchgroups import groups
from branchgroups.automorphisms import identity_perm, rooted_state
from branchgroups.cli import parse_group_file
from branchgroups.errors import ResourceBoundExceeded
from branchgroups.groups import builtin, parse_letters

# a presentation file may declare any symbols, such as ones that start with '*'
FREE_ALPHABETS = {"none": None, "x y z _ 2": ("x", "y", "z", "_", "2"),
                  "tau mu t": ("tau", "mu", "t"), "x *x *1": ("x", "*x", "*1")}
# text pieces that are no name: marks, separators and stray characters
PUNCTUATION = ["1", "(", ")", "[", "]", ",", "'", "^", "^(", "^-", " ", "*", "  ", "#", "-", "q"]


def _kernel_groups():
    roots = [builtin(name) for name in BUILTINS] + [_gg_twin(), _d6_spinal(),
                                                    parse_group_file(S3_GRP),
                                                    parse_group_file(ALESHIN_GRP)]
    return [g for root in roots for g in root._ring]  # the Gg twin is named Gg too


def _texts(names, rng, count):
    """Word texts over ``names``: half built from the grammar (names run
    together or apart, primes, powers, commutators, conjugates, huge
    exponents), half a soup of names and punctuation."""

    def factor(depth):
        r = rng.random()
        if depth < 3 and r < 0.12:
            text = "(" + word(depth + 1) + ")"
        elif depth < 3 and r < 0.2:
            text = "[" + word(depth + 1) + "," + word(depth + 1) + "]"
        elif r < 0.24:
            text = "1"
        else:
            text = rng.choice(names)
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            s = rng.random()
            if s < 0.3:
                text += "'"
            elif s < 0.55:
                text += f"^{rng.randint(0, 7)}"
            elif s < 0.7:
                text += f"^-{rng.randint(1, 7)}"
            elif s < 0.8:
                text += f"^{rng.choice(names)}" + "'" * rng.randint(0, 2)
            elif s < 0.9 and depth < 3:
                text += "^(" + word(depth + 1) + ")"
            else:
                text += f"^{rng.choice((10 ** 7, 10 ** 12 + 1))}"
        return text

    def word(depth):
        parts = [factor(depth) for _ in range(rng.randint(1, 5))]
        return "".join(p + rng.choice(("", "", "", " ", "*", " * ")) for p in parts)

    def soup():
        pool = list(names) * 3 + PUNCTUATION
        return "".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))

    return [word(0) if rng.random() < 0.5 else soup() for _ in range(count)]


def _outcome(parse, text, *args):
    try:
        return parse(text, *args)
    except Exception as exc:  # the type and the message, column included
        return type(exc), str(exc)


def test_parser_matches_the_token_per_symbol_parser():
    rng = random.Random(26)
    cases = [(g.name, tuple(g.states), g.states.__getitem__, g.letter_inverse, g.letter_order)
             for g in _kernel_groups() if g.states]
    cases += [(name, alphabet, lambda s: (s, 1), lambda x: (x[0], -x[1]), lambda x: None)
              for name, alphabet in FREE_ALPHABETS.items()]
    errors = 0
    for name, alphabet, *maps in cases:
        names = list(alphabet or "abxyz_21")
        for text in _texts(names, rng, 400):
            new = _outcome(parse_letters, text, alphabet, *maps)
            assert new == _outcome(parse_letters_reference, text, alphabet, *maps), (name, text)
            errors += isinstance(new, tuple)
    assert 0.2 < errors / (400 * len(cases)) < 0.6  # both kinds of text are drawn


def _symbols(text, alphabet):
    """The symbols a text reads, each primed by its inverses."""
    return parse_letters(text, alphabet, str, lambda x: x[:-1] if x.endswith("'") else x + "'",
                         lambda x: None)


def test_runs_keep_the_longest_name():
    sg = tuple(builtin("Sg").states)
    assert _symbols("bcd'", sg) == ["bcd'"]
    assert _symbols("abcdab cd*d", sg) == ["a", "bcd", "a", "b", "cd", "d"]
    assert _symbols("abcd^2c", sg) == ["a", "bcd", "bcd", "c"]
    assert _symbols("ba^2t^2a", tuple(builtin("FGg").states)) == ["b", "a^2", "t^2", "a"]
    assert _symbols("t^3at^3'", tuple(builtin("GS5").states)) == ["t^3", "a", "t^3'"]
    assert _symbols("mutau tau' mu", tuple(builtin("BSV").states)) == ["mu", "tau", "tau'", "mu"]
    assert _symbols("xy1z2", None) == ["x", "y", "z", "2"]


def _letter_tuples(group, rng, count):
    """Tuples of canonical letters, sections of them and identity letters,
    with stretches that cancel (w w') or merge (x x)."""
    one = rooted_state(group.shape, identity_perm(group.shape.branching(0)))
    pool = list(group.canonical_letters)
    if group.shifted() is group:  # sections are letters of the same group
        pool += [c for x in pool for c in x.children if not c.is_identity][:8]
    for _ in range(count):
        out = []
        for _ in range(rng.randint(0, 6)):
            r = rng.random()
            stretch = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            if r < 0.3:
                stretch += group.inverse_word(stretch)
            elif r < 0.45:
                stretch = [stretch[0]] * rng.randint(2, 4)
            elif r < 0.6:
                stretch.insert(rng.randrange(len(stretch) + 1), one)
            out += stretch
        yield tuple(out)


def test_reduction_kernels_match_the_per_letter_fold():
    rng = random.Random(2026)
    merged = turned = 0
    for group in _kernel_groups():
        name = (group.name, group.flavor, group.shift_index)
        for letters in _letter_tuples(group, rng, 40):
            w = group.reduce(letters)
            assert w == reduce_reference(group, letters), name
            merged += len(w) < len(letters)
            assert (group.first_level_sections(letters)
                    == first_level_sections_reference(group, letters)), name
            # cyclic_reduce takes reduced words; conjugates need turning
            c = group.reduce(letters[:rng.randint(0, 4)])
            for u in (w, group.reduce(group.inverse_word(c) + w + c)):
                assert group.cyclic_reduce(u) == cyclic_reduce_reference(group, u), name
                turned += bool(group.cyclic_reduce(u)[1])
    assert merged > 700 and turned > 200  # of 1,000 tuples over 25 groups


# whitespace a word text may hold: what the tokenizer's \s and str.split()
# both take, as test_whitespace_is_one_set checks for every code point
WHITESPACE = [" ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u2003", "\u3000"]
# aliases of generators that the table holds too, each with its primes
ALIASES = {"GSg": ["a^2", "t^2"], "BGg": ["a^2", "t^2"], "G2": ["a^3"], "Sg": ["bcd"],
           "BSV": ["mu"]}
MARKS = ("", "'", "^-1")


def test_whitespace_is_one_set():
    chars = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]
    assert all(c.isspace() for c in WHITESPACE)


def _name_texts(names, rng, count):
    """Texts mostly of names s, s' and s^-1 apart, under every whitespace,
    with 1, *, powers, parentheses, [x,y], x^y, x^(w) and runs mixed in."""

    def chunk():
        x, y = rng.choice(names), rng.choice(names)
        if rng.random() < 0.8:
            return x + rng.choice(("", "", "'", "^-1"))
        return rng.choice(("1", "*", f"{x}^{rng.randint(0, 9)}", f"{x}^-{rng.randint(1, 9)}",
                           f"({x} {y})", f"[{x},{y}]", f"{x}^{y}", f"{x}^({y} {x})", x + y,
                           f"{x}'{y}"))

    def space():
        return "".join(rng.choice(WHITESPACE) for _ in range(rng.choice((1, 1, 1, 2))))

    for _ in range(count):
        text = "".join(chunk() + space() for _ in range(rng.randint(0, 10)))
        yield space() + text if rng.random() < 0.1 else text


def _malformed_texts(names):
    x, y = names[0], names[-1]
    return [f"{x} ^2", f"{x} '", f"{x}^", f"({x} {y}", f"[{x}, {y}", f"{x} {y})", f"{x} ^{y}",
            f"{x} ^-1", f"{x}\t^(", f"{x} {y} q", f"{x}'' ']"]


def test_texts_of_names_read_as_parse_letters_reads_them():
    # parse_word reads a text of names by table lookups, and any other
    # text by parse_letters; both give the reduced parse_letters word, or
    # the same error
    rng = random.Random(33)
    read_by_name = 0
    for g in [builtin(name) for name in BUILTINS] + [_gg_twin(), _d6_spinal(),
                                                     parse_group_file(S3_GRP),
                                                     parse_group_file(ALESHIN_GRP)]:
        names = sorted(g.states)
        g.parse_word("")  # fixes the names and fills the table
        assert set(g._chunks) == {s + mark for s in names for mark in MARKS}
        assert {s + mark for s in ALIASES.get(g.name, ()) for mark in MARKS} <= set(g._chunks)
        for text in [*_name_texts(names, rng, 300), *_malformed_texts(names)]:
            whole = _outcome(lambda t: g.reduce(parse_letters(
                t, tuple(g.states), g.states.__getitem__, g.letter_inverse, g.letter_order)), text)
            assert _outcome(lambda t: g.parse_word(t).letters, text) == whole, (g.name, text)
            read_by_name += all(map(g._chunks.__contains__, text.split()))
    assert read_by_name > 0.4 * 300 * 14


def test_names_the_parser_does_not_read_alone_stay_out_of_the_table():
    # "b c" is one name, so no text is read chunk by chunk; "]" is read as
    # a mark, so its texts are no keys and a text holding it is refused
    g = _gg_twin()
    g.states["b c"] = g.states["a"]
    assert g.parse_word("b c").letters == (g.states["a"],)
    assert g._chunks == {}
    g = _gg_twin()
    g.states["]"] = g.states["a"]
    assert g.parse_word("a b").letters == (g.states["a"], g.states["b"])
    assert set(g._chunks) == {s + mark for s in "abcd" for mark in MARKS}
    with pytest.raises(ValueError, match="unexpected ']' at column 3"):
        g.parse_word("a ]")


def test_a_text_of_more_names_than_the_word_bound_is_refused(monkeypatch):
    monkeypatch.setattr(groups, "WORD_LENGTH_CAP", 4)
    gg = builtin("Gg")
    assert gg.format_word(gg.parse_word("a b a c")) == "abac"
    with pytest.raises(ResourceBoundExceeded, match="a word expands to 5 letters"):
        gg.parse_word("a b a c d")
