"""Helpers that only the tests use: random words, the randomized property
suites, and the oracles the tests compare library output against.

The package keeps only what its CLI, its public names or the benchmark
call; everything here reads the library from outside.  Each property
checker runs a number of seeded random cases and returns the count of
failures (zero on a healthy build).
"""

from __future__ import annotations

import random
import re
from typing import List, Optional, Sequence, Tuple

import numpy as np

from branchgroups.automorphisms import compose, format_perm
from branchgroups.decision import canonical_portrait_depth, eta_weights
from branchgroups import groups
from branchgroups.errors import ResourceBoundExceeded
from branchgroups.groups import GroupDefinition, Word, builtin, check_word_length
from branchgroups.presentations import (
    FreeWord,
    Substitution,
    free_inverse,
    free_reduce,
    hnn_presentation_relators,
    parse_free_word,
    translate,
)
from branchgroups.quotients import level_quotient

# -- random words ------------------------------------------------------------


def random_reduced_word(group: GroupDefinition, length: int, rng) -> Tuple:
    """A reduced word of about ``length`` letters drawn with ``rng``.

    Spinal words alternate rooted and directed letters, so they keep their
    length; explicit words skip a letter that would merge with the last.
    """
    letters = []
    if group.is_spinal:
        rooted = len(group.a_perms)
        a_letters = group.canonical_letters[:rooted]
        b_letters = group.canonical_letters[rooted:]
        start_with_a = rng.random() < 0.5
        for i in range(length):
            pick_a = start_with_a == (i % 2 == 0)
            letters.append(rng.choice(a_letters if pick_a else b_letters))
    else:
        while len(letters) < length:
            letter = rng.choice(group.canonical_letters)
            if letters and group._merge(letters[-1], letter) is not False:
                continue
            letters.append(letter)
    return group.reduce(letters)


def random_stab3_word(group, rng, max_len=24) -> Tuple:
    """Random reduced word lying in the level-3 stabilizer (by rejection)."""
    quotient = level_quotient(group, 3)
    identity = np.arange(quotient.degree, dtype=np.int32).tobytes()
    while True:
        w = random_reduced_word(group, rng.randint(2, max_len), rng)
        if w and quotient.perm_of_word(Word(w, True)).tobytes() == identity:
            return w


# -- word weights and section lengths of spinal words ----------------------


def word_weight(group: GroupDefinition, letters, taus: Sequence[float],
                kernel_index) -> float:
    """Weight of a word: tau_0 per rooted letter, tau_i per directed letter
    where i is the smallest level whose kernel contains its B-name."""
    total = 0.0
    for letter in letters:
        name = group._b_names.get(letter)
        total += taus[0] if name is None else taus[kernel_index(name)]
    return total


def kernel_index_fn(group: GroupDefinition):
    """smallest i >= 1 with b in Ker(omega_i), counted from the given
    (possibly shifted) group, for GG-flavored groups."""
    horizon = len(group._ring) + 1

    def idx(bname: str) -> int:
        g = group
        for i in range(horizon):
            if all(bname not in omega for omega in g.omega_maps):
                return i + 1
            g = g.shifted()
        raise ValueError(f"{bname} lies in no kernel within one period")

    return idx


def level_section_lengths(group: GroupDefinition, letters, depth: int) -> int:
    """Total length |L_depth(F)| of the level-``depth`` section words."""
    words = [(group, tuple(letters))]
    for _ in range(depth):
        nxt = []
        for g, w in words:
            _, secs = g.first_level_sections(w)
            child = g.shifted()
            nxt.extend((child, s) for s in secs)
        words = nxt
    return sum(len(w) for _, w in words)


# -- property suites -----------------------------------------------------------


def check_contraction(group_names: Sequence[str], cases: int, seed: int) -> int:
    """Section words of a reduced word F have length <= (|F|+1)/2."""
    failures = 0
    for index, name in enumerate(group_names):
        group = builtin(name)
        rng = random.Random(seed + index)
        for _ in range(cases):
            w = random_reduced_word(group, rng.randint(1, 16), rng)
            _, sections = group.first_level_sections(w)
            if any(len(s) > (len(w) + 1) / 2 for s in sections):
                failures += 1
    return failures


def check_shortening(ratio: float, additive: float, cases: int, seed: int,
                     strict: bool = False) -> Tuple[int, List[float]]:
    """|L_3(F)| <= ratio * |F| + additive for F in Stab(L_3) of Gg.

    The 3/4 bound needs omega_1..omega_3 complete (true for 012...);
    the 2/3 bound additionally uses that the three kernels cover B.
    """
    group = builtin("Gg")
    rng = random.Random(seed)
    failures = 0
    ratios = []
    for _ in range(cases):
        w = random_stab3_word(group, rng)
        total = level_section_lengths(group, w, 3)
        bound = ratio * len(w) + additive
        ratios.append(total / max(1, len(w)))
        if (total >= bound) if strict else (total > bound + 1e-9):
            failures += 1
    return failures, ratios


def check_eta_shortening(cases: int, seed: int) -> int:
    """sum of section weights <= eta_3 (weight(f) + tau_0) on Gg words."""
    group = builtin("Gg")
    eta, taus = eta_weights(3)
    kernel_index = kernel_index_fn(group)
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        w = random_reduced_word(group, rng.randint(1, 20), rng)
        _, sections = group.first_level_sections(w)
        child = group.shifted()
        child_kernel_index = kernel_index_fn(child)
        lhs = sum(
            word_weight(child, s, taus, child_kernel_index) for s in sections
        )
        rhs = eta * (word_weight(group, w, taus, kernel_index) + taus[0])
        if lhs > rhs + 1e-9:
            failures += 1
    return failures


def check_portrait_depth_bound(cases: int, seed: int) -> int:
    """Canonical portrait depth of w over S_Gg <= ceil(log2 |w|) + 1."""
    group = builtin("Gg")
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        n = rng.randint(1, 32)
        w = random_reduced_word(group, n, rng)
        if not w:
            continue
        bound = max(1, (len(w) - 1).bit_length()) + 1
        if canonical_portrait_depth(group, Word(w, True)) > bound:
            failures += 1
    return failures


def check_right_action_laws(cases: int, seed: int) -> int:
    """act(compose(f,g), u) = act(g, act(f,u)) and the section law
    section(fg, u) = section(f,u) section(g, act(f,u)) up to level 4."""
    group = builtin("Gg")
    rng = random.Random(seed)
    failures = 0
    for _ in range(cases):
        f = group.state_of_word(
            Word(random_reduced_word(group, rng.randint(1, 5), rng), True)
        )
        g = group.state_of_word(
            Word(random_reduced_word(group, rng.randint(1, 5), rng), True)
        )
        fg = compose(f, g)
        level = rng.randint(1, 4)
        u = tuple(rng.randrange(group.shape.branching(i)) for i in range(level))
        v = tuple(rng.randrange(group.shape.branching(i)) for i in range(level))
        if fg.act(u) != g.act(f.act(u)):
            failures += 1
            continue
        if fg.section(u) is not compose(f.section(u), g.section(f.act(u))):
            failures += 1
            continue
        # prefix preservation: |u ^ v| = |act(f,u) ^ act(f,v)|
        def common(x, y):
            k = 0
            while k < len(x) and x[k] == y[k]:
                k += 1
            return k

        if common(u, v) != common(f.act(u), f.act(v)):
            failures += 1
    return failures


def check_reduce_confluence(cases: int, seed: int) -> int:
    """Reducing with randomized rule order yields the canonical form."""
    rng = random.Random(seed)
    failures = 0
    for name in ("Gg", "GSg"):
        group = builtin(name)
        pool = list(group.canonical_letters)
        for _ in range(cases):
            raw = tuple(rng.choice(pool) for _ in range(rng.randint(0, 14)))
            expected = group.reduce(raw)
            work = list(raw)
            while True:
                spots = [
                    i for i in range(len(work) - 1)
                    if group._merge(work[i], work[i + 1]) is not False
                ]
                if not spots:
                    break
                i = rng.choice(spots)
                merged = group._merge(work[i], work[i + 1])
                work[i:i + 2] = [] if merged is None else [merged]
            if tuple(work) != expected:
                failures += 1
    return failures


# -- the per-letter word kernels -------------------------------------------------
#
# The parser and the reduction fold the package used before a run of symbols
# became one token and reduce one seam-merge loop: one token per symbol, and
# one _merge call per letter pushed.


def _push_reference(group: GroupDefinition, out: list, letter) -> None:
    """Append a letter to a reduced word, merging at the seam."""
    out.append(letter)
    while len(out) >= 2:
        merged = group._merge(out[-2], out[-1])
        if merged is False:
            break
        out.pop()
        out.pop()
        if merged is not None:
            out.append(merged)


def reduce_reference(group: GroupDefinition, letters) -> Tuple:
    out: list = []
    for letter in letters:
        if not letter.is_identity:
            _push_reference(group, out, letter)
    return tuple(out)


def cyclic_reduce_reference(group: GroupDefinition, letters) -> Tuple[Tuple, Tuple]:
    w = list(letters)
    conj = []
    while len(w) >= 2 and group._merge(w[-1], w[0]) is not False:
        conj.append(w.pop(0))
        _push_reference(group, w, conj[-1])
    return tuple(w), tuple(conj)


def first_level_sections_reference(group: GroupDefinition, letters):
    m = group.shape.branching(0)
    out: List[List] = [[] for _ in range(m)]
    root = []
    for i in range(m):
        pos = i
        for letter in letters:
            sec = letter.children[pos]
            pos = letter.root_perm[pos]
            if not sec.is_identity:
                out[i].append(sec)
        root.append(pos)
    return tuple(root), [reduce_reference(group.shifted(), w) for w in out]


_POWER, _MARK, _CONJ, _ATOM, _SYMBOL = range(1, 6)


def _tokens_reference(alphabet: Optional[Tuple[str, ...]]):
    symbol = (r"\w" if alphabet is None
              else "|".join(map(re.escape, sorted(alphabet, key=len, reverse=True))) or "(?!)")
    return re.compile(rf"(\^-?\d+)|(\^\(|')|(\^(?:{symbol}))|[\s*]*(?:([1()\[\],])|({symbol})"
                      r"|([^\s*]))").finditer


def parse_letters_reference(text: str, alphabet, letter, inverse, order) -> list:
    """``groups.parse_letters`` with one token per symbol; it reads the
    caps from ``groups`` when it runs, as the package does."""
    tokens = [(m.lastindex, m[m.lastindex], m.start(m.lastindex))
              for m in _tokens_reference(alphabet)(text)]
    tokens.append((0, "", len(text)))
    i = 0

    def expect(mark):
        nonlocal i
        if tokens[i][1] != mark:
            raise ValueError(f"missing {mark!r} at column {tokens[i][2] + 1}")
        i += 1

    def invert(w):
        return [inverse(x) for x in reversed(w)]

    def word(depth=0):
        nonlocal i
        if depth > groups.WORD_NESTING_CAP:
            raise ResourceBoundExceeded(f"a word nests deeper than {groups.WORD_NESTING_CAP} "
                                        "levels (groups.WORD_NESTING_CAP)")
        out = []
        while True:
            kind, value, _ = tokens[i]
            if kind != _SYMBOL and (kind != _ATOM or value in ")],"):
                return out
            i += 1
            if kind == _SYMBOL:
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
                else:
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


# -- order certificates ---------------------------------------------------------


def certificate_sign(g: GroupDefinition, w, t_word, conj_len: int) -> Optional[int]:
    """Is t_word = w^{+-1} up to a conjugator of length <= conj_len?

    The older, one rotation at a time, form of the search in
    ``decision.order``; the order and certificate differentials rebuild
    that search from it.
    """
    if abs(len(t_word) - len(w)) > 2 * conj_len:
        return None
    w_inv = g.reduce(g.inverse_word(w))
    for sign, target in ((1, w), (-1, w_inv)):
        if t_word == target:
            return sign
        tc, _ = g.cyclic_reduce(t_word)
        wc, _ = g.cyclic_reduce(target)
        if len(tc) == len(wc) and len(tc) > 0:
            # cyclic rotations are conjugates with short conjugators
            doubled = wc + wc
            for i in range(len(wc)):
                if doubled[i:i + len(tc)] == tc and i <= conj_len:
                    return sign
    return None


# -- group files -----------------------------------------------------------------


def format_group_file(group: GroupDefinition) -> str:
    """Inverse of cli.parse_group_file for explicit-recursion groups."""
    shape = group.shape
    lines = [f"group {group.name}"]
    if not shape.prefix and len(shape.cycle) == 1:
        lines.append(f"arity {shape.cycle[0]}")
    else:
        seq = " ".join(str(m) for m in shape.prefix + shape.cycle)
        lines.append(f"arity seq {seq} cycle {len(shape.cycle)}")
    rooted_names = {}
    for name, state in group.states.items():
        if all(c.is_identity for c in state.children):
            lines.append(f"rooted {name} = {format_perm(state.root_perm)}")
            rooted_names[state.root_perm] = name
    for name, state in group.states.items():
        if all(c.is_identity for c in state.children):
            continue
        entries = []
        for child in state.children:
            if child.is_identity:
                entries.append("1")
                continue
            for nm, st in group.states.items():
                if st is child:
                    entries.append(nm)
                    break
                if st is not child and child is st.inverse():
                    entries.append(f"{nm}^-1")
                    break
            else:
                raise ValueError(f"section of {name} is not a named generator")
        root = ""
        if state.root_perm != tuple(range(len(state.root_perm))):
            nm = rooted_names.get(state.root_perm)
            if nm is None:
                raise ValueError(
                    f"root permutation of {name} is not a named rooted generator"
                )
            root = f" {nm}"
        lines.append(f"recursive {name} = ({', '.join(entries)}){root}")
    return "\n".join(lines) + "\n"


# -- presentations -------------------------------------------------------------


def hnn_defines_substitution() -> bool:
    """Check that the t-relators encode the substitution: the relator
    x^t * w = 1 forces x^t = w^{-1} = phi(x) for x in {a, c, d}, where
    equality is read after simple reductions in the group's tables."""
    gg = builtin("Gg")
    phi = Substitution.parse("phi", {"a": "aca", "c": "cd", "d": "c"})
    rels = hnn_presentation_relators()[3:]
    for rel in rels:
        # rel = t' x t w : strip the stable-letter conjugation
        if rel[0] != ("t", -1) or rel[2] != ("t", 1):
            return False
        x = rel[1][0]
        w = free_reduce(rel[3:])
        image = translate(free_inverse(w), gg, {})
        expected = translate(phi.apply(parse_free_word(x)), gg, {})
        if image.letters != expected.letters:
            return False
    return True


def mutate_relator(relator: FreeWord, position: int, alphabet: Sequence[str],
                   replacement_index: int) -> FreeWord:
    """Replace the letter at `position` by another alphabet symbol."""
    sym, exp = relator[position]
    choices = [s for s in alphabet if s != sym]
    new_sym = choices[replacement_index % len(choices)]
    mutated = list(relator)
    mutated[position] = (new_sym, exp)
    return free_reduce(tuple(mutated))


# -- spectra and growth --------------------------------------------------------


def one_sided_hausdorff(values: np.ndarray, reference: np.ndarray) -> float:
    """max over values of the distance to the nearest reference point."""
    ref = np.sort(reference)
    pos = np.searchsorted(ref, values)
    best = np.full(len(values), np.inf)
    for shift in (-1, 0):
        idx = np.clip(pos + shift, 0, len(ref) - 1)
        best = np.minimum(best, np.abs(values - ref[idx]))
    return float(best.max())


def growth_series_product(exponents: Sequence[int], coefficient: int) -> List[int]:
    """Coefficients of prod_i (1 + coefficient * X^(e_i))."""
    out = [1]
    for e in exponents:
        new = out + [0] * e
        for i, c in enumerate(out):
            new[i + e] += coefficient * c
        out = new
    return out


def growth_by_all_sources(graph) -> Tuple[int, List[int]]:
    """Oracle for `SchreierGraph.growth`: the basepoint's growth series and
    the largest distance from any source, over the underlying undirected
    graph.

    Every source is searched at once: bit v of ``balls[w]`` is set when w
    lies within the current radius of v, and one round widens every ball by
    one edge.  The diameter is the radius at which every ball is the whole
    graph.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    nbrs = [set() for _ in graph.vertices]
    for u, v, _ in graph.edges:
        nbrs[index[u]].add(index[v])
        nbrs[index[v]].add(index[u])
    full = (1 << len(nbrs)) - 1
    balls = [1 << i for i in range(len(nbrs))]
    base = index[graph.basepoint]
    sizes = [1]
    radius = 0
    while any(b != full for b in balls):
        widened = []
        for i, b in enumerate(balls):
            for j in nbrs[i]:
                b |= balls[j]
            widened.append(b)
        if widened == balls:
            raise ValueError("graph is not connected")
        balls = widened
        radius += 1
        sizes.append(balls[base].bit_count())
    sizes = sizes[:sizes.index(len(nbrs)) + 1]
    return radius, [1] + [b - a for a, b in zip(sizes, sizes[1:])]
