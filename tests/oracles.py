"""Helpers that only the tests use: random words, the randomized property
suites, and the oracles the tests compare library output against.

The package keeps only what its own modules, its CLI or the benchmark
call, and the entry points the README names; everything here reads the
library from outside.  Each property
checker runs a number of seeded random cases and returns the count of
failures (zero on a healthy build).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from typing import List, Optional, Sequence, Tuple

import numpy as np

from branchgroups.automorphisms import compose, format_perm, identity_perm, perm_mul
from branchgroups.decision import canonical_portrait_depth, eta_weights
from branchgroups import groups
from branchgroups.errors import ResourceBoundExceeded, ValidationError
from branchgroups.groups import (
    DefiningTriple,
    GroupDefinition,
    Word,
    builtin,
    check_word_length,
)
from branchgroups.presentations import (
    FreeWord,
    Substitution,
    free_inverse,
    free_reduce,
    parse_free_word,
    translate,
)
from branchgroups import quotients
from branchgroups.quotients import (
    LayeredSequence,
    _pinv,
    _pinv_rows,
    _powers,
    _stack,
    level_quotient,
)
from branchgroups.spectra import delta_matrix

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
# The parser with one token per symbol, and the reduction fold the package
# used before reduce became one seam-merge loop: one _merge call per letter
# pushed.


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


_POWER, _MARK, _CONJ, _ATOM, _SYMBOL, _OTHER = range(1, 7)


def _tokens_reference(alphabet: Optional[Tuple[str, ...]]):
    """The (kind, value, column) tokens of a text, read by a character
    scanner with no regex: at each position a power ^-?digits, a mark ' or
    ^(, or ^ and a symbol; else, past any whitespace and '*', an atom mark,
    the longest symbol, or any other character.  Symbols are the non-empty
    names of the alphabet, or single word characters when there is none."""
    def symbol(text, i):
        if alphabet is None:
            return text[i:i + 1] if i < len(text) and (text[i].isalnum() or text[i] == "_") else ""
        return max((x for x in alphabet if x and text.startswith(x, i)), key=len, default="")

    def suffix(text, i):
        """(kind, length) of a power, a mark or a conjugating symbol at i."""
        if text.startswith("'", i):
            return _MARK, 1
        if not text.startswith("^", i):
            return None
        j = k = i + 1 + text.startswith("-", i + 1)
        while k < len(text) and text[k].isdecimal():
            k += 1
        if k > j:
            return _POWER, k - i
        if text.startswith("(", i + 1):
            return _MARK, 2
        name = symbol(text, i + 1)
        return (_CONJ, 1 + len(name)) if name else None

    def scan(text):
        i, n = 0, len(text)
        while i < n:
            found = suffix(text, i)
            if found:
                kind, length = found
                yield kind, text[i:i + length], i
                i += length
                continue
            j = i
            while j < n and (text[j].isspace() or text[j] == "*"):
                j += 1
            if j == n:  # only separators are left: a symbol may start with one
                j = next((k for k in range(n - 1, i - 1, -1) if symbol(text, k)), n)
                if j == n:
                    return
            name = symbol(text, j)
            if text[j] in "1()[],":
                yield _ATOM, text[j], j
                i = j + 1
            elif name:
                yield _SYMBOL, name, j
                i = j + len(name)
            else:
                yield _OTHER, text[j], j
                i = j + 1

    return scan


def parse_letters_reference(text: str, alphabet, letter, inverse, order) -> list:
    """``groups.parse_letters`` over the scanner `_tokens_reference`; it
    reads the caps from ``groups`` when it runs, as the package does."""
    tokens = list(_tokens_reference(alphabet)(text))
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


# -- layered sequences, one row at a time ----------------------------------------


def _comm_rows(h: np.ndarray, hinv: np.ndarray, xs: np.ndarray,
               xs_inv: np.ndarray) -> np.ndarray:
    """[h, x] = h^-1 x^-1 h x for every row x; composition is left-to-right
    application, so (g h)[i] = h[g[i]]."""
    return np.take_along_axis(xs, h[xs_inv[:, hinv]], axis=1)


class OneRowSequence(LayeredSequence):
    """A layered sequence closed by the reference loop, which turns a batch
    into rows one residue at a time: make the first live residue a row,
    queue its commutators and p-th power, strip it out of the rest of the
    batch, and start over.  `LayeredSequence._close` must give the same
    pivots, elements, inverse powers, echelon rows and U^-1, bit for bit.
    It keeps its own per-row lists, `elements` and `_inverse_powers` (the
    perms h^-1, ..., h^-(p-1) of each row), strips one row at a time, and
    reads `quotients._PENDING_ROWS` when it runs, as the library does."""

    def _add_row(self, i: int, g: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Make the residue g (vector v != 0) a row, scaled to pivot 1."""
        p = self.p
        piv = int(np.flatnonzero(v)[0])
        k = pow(int(v[piv]), -1, p)
        h = _powers(g, k)[-1].copy()  # not a view holding the lower powers
        r = len(self.pivots[i])
        if not r:
            self._dense[i] = (np.zeros((len(v), len(v))), np.zeros((len(v), len(v))))
        rows, u_inv = self._dense[i]
        # U grows by the column of the old rows at the new pivot and a unit
        # row (the new row is zero at the old pivots)
        u_inv[:r, r] = -(u_inv[:r, :r] @ rows[:r, piv]) % p
        u_inv[r, r] = 1
        rows[r] = v * k % p
        self.pivots[i].append(piv)
        self.elements[i].append(h)
        self._inverse_powers[i].append(_powers(_pinv(h), p - 1))
        return h

    def _strip_row(self, i: int, batch: np.ndarray, vecs: np.ndarray, j: int):
        """Strip row j of layer i out of the batch, in place: g -> g * h_j^-a
        and v -> v - a R_j for a = v[pivot_j].  The vectors must be zero at
        the pivots of the rows before j."""
        a = vecs[:, self.pivots[i][j]]
        hit = np.flatnonzero(a)
        coeff = a[hit, None]
        vecs[hit] = (vecs[hit] - coeff * self._dense[i][0][j].astype(vecs.dtype)) % self.p
        batch[hit] = self._inverse_powers[i][j][coeff - 1, batch[hit]]

    def _close(self, seeds, conj):
        self.elements = [[] for _ in self.layers]
        self._inverse_powers = [[] for _ in self.layers]
        last = len(self.layers) - 1
        if last < 0:
            return
        pending_rows = quotients._PENDING_ROWS
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

        seeds = iter(seeds)
        while True:
            if not any(queued):
                queue(0, _stack(list(islice(seeds, pending_rows)), degree))
                if not queued[0]:
                    break
            full = [i for i in range(last + 1) if queued[i] >= pending_rows]
            i = full[-1] if full else next(i for i in range(last + 1) if queued[i])
            batch = self._nontrivial(np.concatenate(pending[i]))
            pending[i], queued[i] = [], 0
            vecs = self._vectors(i, batch)
            for j in range(len(self.pivots[i])):
                self._strip_row(i, batch, vecs, j)
            while True:
                live = vecs.any(axis=1)
                queue(i + 1, batch[~live])
                batch, vecs = batch[live], vecs[live]
                if not len(batch):
                    break
                h = self._add_row(i, batch[0], vecs[0])
                hinv = self._inverse_powers[i][-1][0]
                queue(i, _comm_rows(h, hinv, conj, conj_inv))
                if i < last:
                    queue(i + 1, _powers(h, self.p)[-1:])
                    earlier = _stack(self.elements[i][:-1], degree)
                    earlier_inv = _stack([pw[0] for pw in self._inverse_powers[i][:-1]], degree)
                    queue(i + 1, _comm_rows(h, hinv, earlier, earlier_inv))
                batch, vecs = batch[1:], vecs[1:]
                if i < last and queued[i + 1] >= pending_rows:
                    queue(i, batch)  # the rest waits for the deeper queue
                    break
                self._strip_row(i, batch, vecs, len(self.pivots[i]) - 1)
        self._dense = [None if d is None else (d[0][:r].copy(), d[1][:r, :r].copy())
                       for d, r in zip(self._dense, map(len, self.pivots))]


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


# -- spinal triples ---------------------------------------------------------------


def check_homomorphisms_all_pairs(t: DefiningTriple) -> None:
    """The homomorphism check of every map omega of a triple over every
    pair (x, y) of B x B; raise ValidationError as `validate_triple` does."""
    b = t.b_table
    total, _ = t.ring_size()
    for i in range(total):
        m_next = t.shape.branching(i + 1)
        for j, omega in enumerate(t.level_maps(i)):
            for x in b.names:
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


def associative_all_triples(names: Sequence[str], mult) -> bool:
    """x(yz) = (xy)z over every triple of a table's elements, the identity
    (None) included, with products read from `mult` as `BTable` reads it."""
    def m(x, y):
        return y if x is None else x if y is None else mult[(x, y)]

    elements = [None, *names]
    return all(m(x, m(y, z)) == m(m(x, y), z)
               for x in elements for y in elements for z in elements)


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


def hnn_presentation_relators() -> List[FreeWord]:
    """Relators of the finitely presented ascending HNN extension of the
    first Grigorchuk group: the first three are the group's relators, the
    last three turn conjugation by the stable letter into the
    substitution a -> aca, c -> cd, d -> c."""
    return [parse_free_word(text) for text in (
        "a^2", "[d,d^a]", "[d^(ac),d^(aca)]", "a^t a c a", "c^t c d", "d^t c")]


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
#
# The determinant identity |Q_n(lambda, mu)| = Phi_0 Phi_1 ... Phi_n of
# Bartholdi and Grigorchuk (Proc. Steklov Inst. 231, 2000) for
# Q_n = Delta_n - (lambda+1) a_n - (mu+1) on the first Grigorchuk group is
# checked in exact rational arithmetic (fraction-free Bareiss elimination),
# so the residual of a correct `delta_matrix` is exactly zero.  Q_n is
# built from the float Delta_n, whose entries are small integers and so
# exact.


def bareiss_determinant(matrix: List[List[Fraction]]) -> Fraction:
    """Fraction-free Bareiss elimination (exact)."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    m = [row[:] for row in matrix]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def phi_values(n: int, lam: Fraction, mu: Fraction) -> List[Fraction]:
    """Phi_0..Phi_n of the determinant recursion at (lambda, mu)."""
    out = [Fraction(2) - mu - lam]
    if n >= 1:
        out.append(Fraction(2) - mu + lam)
    if n >= 2:
        out.append(mu * mu - 4 - lam * lam)
    for k in range(3, n + 1):
        out.append(out[-1] ** 2 - 2 * (2 * lam) ** (2 ** (k - 2)))
    return out


def q_matrix(n: int, lam: Fraction, mu: Fraction) -> List[List[Fraction]]:
    """Q_n = Delta_n - (lambda+1) a_n - (mu+1) I over the rationals."""
    gg = builtin("Gg")
    a_images = level_quotient(gg, n).perm_of_state(gg.states["a"])
    out = [[Fraction(int(x)) for x in row] for row in delta_matrix(gg, n)]
    for i, row in enumerate(out):
        row[int(a_images[i])] -= lam + 1
        row[i] -= mu + 1
    return out


def phi_check(n: int, lam, mu) -> Fraction:
    """|det Q_n(lambda, mu) - Phi_0 ... Phi_n|, computed exactly."""
    lam = Fraction(lam)
    mu = Fraction(mu)
    det = bareiss_determinant(q_matrix(n, lam, mu))
    prod = Fraction(1)
    for phi in phi_values(n, lam, mu):
        prod *= phi
    return abs(det - prod)



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
