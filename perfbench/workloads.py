"""The four workloads: set-up, one op, and the answer check for each op.

``setup`` is what a user pays once per process.  ``run`` is the timed op;
its answer is reduced by ``keep`` to what the check needs.  ``check``
runs after the timed phase and returns None or a description of the
wrong answer; it uses code paths other than the one the op timed
(level-quotient permutations, closed forms, the benchmark's own
evaluators), so a wrong answer cannot confirm itself.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

from branchgroups import (builtin, conjugacy, decision, groups, presentations,
                          quotients, schreier, spectra)
from branchgroups.cli import parse_group_file

import inputs

GG_GRP = """\
# gg.grp - the first Grigorchuk group
group Gg
arity 2
rooted a = (1 2)
recursive b = (a, c)
recursive c = (a, d)
recursive d = (1, b)
"""
RELATOR_DEPTH = 4
# every group here lies in a pro-p Sylow subgroup of its tree's automorphisms
WORD_PRIMES = {"Gg": 2, "Gg_explicit": 2, "Sg": 2, "G2": 2, "GSg": 3, "BGg": 3}


# -- reference helpers (no library code) --------------------------------


def perm_order(perm) -> int:
    """Order of a permutation given as an image array, by cycle lengths."""
    perm = [int(x) for x in perm]
    seen = [False] * len(perm)
    out = 1
    for start in range(len(perm)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            out = out * length // math.gcd(out, length)
    return out


def cycle_type(perm):
    perm = [int(x) for x in perm]
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            lengths.append(length)
    return sorted(lengths)


def is_power_of(n: int, p: int) -> bool:
    while n > 1 and n % p == 0:
        n //= p
    return n == 1


def check_level(m: int) -> int:
    """Deepest level with at most 128 vertices on an m-ary tree."""
    level = 1
    while m ** (level + 1) <= 128:
        level += 1
    return level


def act_reference(group: str, letter: str, vertex):
    """Image of a vertex under one generator, from the textbook recursions:
    Gg: a swaps, b = (a, c), c = (a, d), d = (1, b);
    FGg: a = x -> x + 1 (mod 3), t = (a, 1, t).  Inverses by x'."""
    name, inverse = letter.rstrip("'"), letter.endswith("'")
    out = list(vertex)
    if group == "Gg":
        state = name
        for i, x in enumerate(out):
            if state == "a":
                out[i] = 1 - x
                return out
            if state == "1":
                return out
            state = {"b": ("a", "c"), "c": ("a", "d"), "d": ("1", "b")}[state][x]
        return out
    shift = -1 if inverse else 1
    if name == "a":
        out[0] = (out[0] + shift) % 3
        return out
    for i, x in enumerate(out):  # t = (a, 1, t)
        if x == 0:
            if i + 1 < len(out):
                out[i + 1] = (out[i + 1] + shift) % 3
            return out
        if x == 1:
            return out
    return out


def gg_spectrum_reference(level: int):
    """{1 +- sqrt(5 - 4 cos(2 pi j / 2^n))} minus {0, -2}: 2^n simple values."""
    values = [4.0, 2.0]
    for j in range(1, 2 ** (level - 1)):
        r = math.sqrt(5.0 - 4.0 * math.cos(2.0 * math.pi * j / 2**level))
        values += [1.0 + r, 1.0 - r]
    return np.sort(np.array(values))


def fgg_spectrum_reference(level: int):
    """{4, 1} and 1 + every nested radical +-sqrt(6 +- sqrt(6 +- ...)) of
    depth at most ``level``."""
    values = {4.0, 1.0}
    inner = [0.0]
    for _ in range(level):
        nxt = set()
        for s in inner:
            for radicand in (6.0 + s, 6.0 - s):
                if radicand >= 0:
                    nxt.update((math.sqrt(radicand), -math.sqrt(radicand)))
        values.update(1.0 + x for x in nxt)
        inner = sorted(nxt)
    return np.array(sorted(values))


class LevelPerms:
    """Level-quotient permutations of words, composed from cached images
    of the letters (the automaton path, not the word problem)."""

    def __init__(self, group, level: int):
        self.group = group
        self.quotient = quotients.level_quotient(group, level)
        self.images = {}

    def of_letters(self, letters):
        p = np.arange(self.quotient.degree, dtype=np.int32)
        for letter in letters:
            image = self.images.get(letter)
            if image is None:
                image = self.quotient.perm_of_state(self.group.state_of_letter(letter))
                self.images[letter] = image
            p = image[p]
        return p

    def of_word(self, text: str):
        return self.of_letters(self.group.parse_word(text).letters)


def graph_digest(graph) -> str:
    text = repr((graph.vertices, graph.edges, graph.basepoint))
    return hashlib.sha1(text.encode()).hexdigest()


# -- workloads -----------------------------------------------------------


class Workload:
    """Defaults: answers kept as they are, none of them Unknown."""

    def held_groups(self):
        return []

    def prepare_checks(self):
        pass

    def keep(self, op, answer):
        return answer

    def unknown(self, op, answer) -> bool:
        return False


class Words(Workload):
    """order on random words (spinal and explicit Gg) and is_trivial on
    conjugated relators of the presentations that verify true."""

    name = "words"
    tail_percentile = 99

    def setup(self):
        self.groups = {g: builtin(g) for g in inputs.WORD_GROUPS}
        self.groups["Gg_explicit"] = parse_group_file(GG_GRP)
        self.relators = {}
        for pres_name in inputs.PRESENTATIONS:
            pres, group_name, amap = presentations.presentation(pres_name)
            group = builtin(group_name)
            rels = sorted(pres.expand(RELATOR_DEPTH))
            self.relators[pres_name] = (
                group, [presentations.translate(r, group, amap).letters for r in rels]
            )

    def held_groups(self):
        return [self.groups["Gg_explicit"]]

    def _conjugated(self, op):
        _, pres_name, index, conj = op
        group, rels = self.relators[pres_name]
        rel = rels[index % len(rels)]
        c = group.parse_word(conj).letters
        return group, group.reduce(group.inverse_word(c) + rel + c)

    def run(self, op):
        if op[0] == "order":
            return decision.order(self.groups[op[1]], op[2])
        group, letters = self._conjugated(op)
        return decision.is_trivial(group, groups.Word(letters, True))

    def unknown(self, op, answer) -> bool:
        return op[0] == "order" and answer.kind == "unknown"

    def prepare_checks(self):
        self.perms = {}
        for group in list(self.groups.values()) + [g for g, _ in self.relators.values()]:
            self.perms[id(group)] = LevelPerms(group, check_level(group.shape.branching(0)))

    def check(self, op, answer, results, position):
        if op[0] == "trivial":
            group, letters = self._conjugated(op)
            perm = self.perms[id(group)].of_letters(letters)
            if perm_order(perm) != 1:
                return "relator input is not the identity on its check level"
            return None if answer is True else "relator reported nontrivial"
        group = self.groups[op[1]]
        p = WORD_PRIMES[op[1]]
        if answer.kind == "infinite" and op[1] in ("Gg", "GSg", "G2", "Gg_explicit"):
            return "infinite order reported in a torsion group"
        if answer.kind != "finite":
            return None
        k = answer.value
        if not is_power_of(k, p):
            return f"order {k} is not a power of {p}"
        if k % perm_order(self.perms[id(group)].of_word(op[2])):
            return f"order {k} not divisible by the level-quotient permutation order"
        if op[1] == "Gg":
            twin = results.get(("Gg_explicit", op[2]))
            if twin is not None and twin.kind == "finite" and twin.value != k:
                return f"spinal Gg order {k} != explicit Gg order {twin.value}"
        return None


# closed-form exponents: |G_n| = p^e(n)
CLOSED_FORMS = {
    "Gg": lambda n: 5 * 2 ** (n - 3) + 2,
    "FGg": lambda n: 3 ** (n - 1) + 1,
    "BGg": lambda n: (3**n + 2 * n + 3) // 4,
}
ABELIAN_RANKS = {"Gg": 3, "FGg": 2, "BGg": 2, "Sg": 4}


class Quotients(Workload):
    """README's quotient analysis bundle on fixed (group, level) pairs."""

    name = "quotients"
    tail_percentile = 85

    def setup(self):
        self.groups = {g: builtin(g) for g, _ in inputs.QUOTIENT_PAIRS}

    def run(self, op):
        _, name, n, analysis = op
        g = self.groups[name]
        if analysis == "order":
            return quotients.level_quotient(g, n).order()
        if analysis == "hausdorff":
            return quotients.hausdorff_ratio_exact(g, n)
        if analysis == "derived":
            return quotients.derived_series_orders(quotients.level_quotient(g, n), 3)
        if analysis == "ranks":
            return quotients.lower_central_ranks(g, n, 6)
        if analysis == "suborbits":
            return quotients.suborbit_profile(g, n)
        return quotients.rigid_level_stabilizer(g, n, 1).order()

    def check(self, op, answer, results, position):
        _, name, n, analysis = op
        p = 2 if name in ("Gg", "Sg") else 3
        wreath = (p**n - 1) // (p - 1)
        exponent = CLOSED_FORMS[name](n) if name in CLOSED_FORMS else None
        order = p**exponent if exponent is not None else None

        def bad_order(x):
            if not is_power_of(x, p) or x > p**wreath:
                return f"{x} is not a power of {p} within the wreath order"
            if order is not None and order % x:
                return f"{x} does not divide the closed-form order {order}"
            return None

        if analysis == "order":
            if order is not None and answer != order:
                return f"order {answer} != closed form {order}"
            return bad_order(answer)
        if analysis == "hausdorff":
            if exponent is not None and answer != Fraction(exponent, wreath):
                return f"ratio {answer} != closed form {Fraction(exponent, wreath)}"
            if not 0 < answer <= 1 or (answer * wreath).denominator != 1:
                return f"ratio {answer} is not e/{wreath}"
            return None
        if analysis == "derived":
            if order is not None and answer[0] != order:
                return f"derived series starts at {answer[0]}, closed form {order}"
            for a, b in zip(answer, answer[1:]):
                if a % b or a == b:
                    return "derived series is not strictly descending by divisors"
            return bad_order(answer[0])
        if analysis == "ranks":
            if answer[0] != ABELIAN_RANKS[name]:
                return f"abelianization rank {answer[0]} != {ABELIAN_RANKS[name]}"
            if exponent is not None and sum(answer) > exponent:
                return "lower central ranks exceed the order exponent"
            return None
        if analysis == "suborbits":
            # the spine vertex's stabilizer is transitive on each set of
            # vertices leaving the spine at the same depth and letter
            expected = sorted([1] + [p ** (n - k - 1) for k in range(n) for _ in range(p - 1)])
            return None if answer == expected else f"suborbits {answer} != {expected}"
        return bad_order(answer)


class Conjugacy(Workload):
    """A stream of q_set(g, h) over Gg: half conjugate by construction,
    half independent random pairs."""

    name = "conjugacy"
    tail_percentile = 95
    inverse_check_every = 16

    def setup(self):
        self.ctx = conjugacy.GgConjugacy.instance()

    def prepare_checks(self):
        self.q6 = LevelPerms(self.ctx.group, 6)

    def run(self, op):
        return conjugacy.q_set(op[1], op[2])

    def keep(self, op, answer):
        return answer.ids

    def check(self, op, answer, results, position):
        _, g, h, f = op
        if f is not None and conjugacy.coset_of(f) not in answer:
            return "the constructed conjugator's coset is missing from Q(g, h)"
        q6 = self.q6
        if cycle_type(q6.of_word(g)) != cycle_type(q6.of_word(h)) and answer:
            return "Q(g, h) is nonempty although the level-6 cycle types differ"
        if position % self.inverse_check_every == 0:
            back = conjugacy.q_set(h, g)
            if back.ids != frozenset(self.ctx.inv[i] for i in answer):
                return "Q(h, g) != Q(g, h)^-1"
        return None


class LevelAction(Workload):
    """Schreier graphs with diameters, substitutional expansion, spectra,
    balls, and generator actions on seeded deep vertices."""

    name = "level_action"
    tail_percentile = 90

    def setup(self):
        self.groups = {g: builtin(g) for g in ("Gg", "FGg", "BGg")}

    def run(self, op):
        kind, name = op[0], op[1]
        g = self.groups[name]
        if kind == "schreier":
            graph = schreier.schreier_graph(g, op[2])
            return graph, graph.growth()
        if kind == "substitution":
            return schreier.substitutional_expand(name, op[2])
        if kind == "spectrum":
            return spectra.spectrum_eigenvalues(g, op[2])
        if kind == "growth_values":
            return decision.growth_values(g, op[2])
        states = [g.state_of_letter(x) for x in g.parse_word(op[2]).letters]
        images = []
        for v in op[3]:
            v = tuple(v)
            for s in states:
                v = s.act(v)
            images.append(v)
        return images

    def keep(self, op, answer):
        if op[0] == "schreier":
            graph, (diameter, series) = answer
            return graph_digest(graph), len(graph.vertices), diameter, series
        if op[0] == "substitution":
            return graph_digest(answer)
        return answer

    def check(self, op, answer, results, position):
        kind, name = op[0], op[1]
        if kind in ("schreier", "substitution"):
            direct = results.get(("schreier", name, op[2]))
            expanded = results.get(("substitution", name, op[2]))
            if direct is not None and expanded is not None and direct[0] != expanded:
                return "schreier_graph differs from substitutional_expand"
            if kind == "schreier":
                _, size, diameter, series = answer
                if sum(series) != size:
                    return "growth series does not cover the level"
                if name == "Gg" and diameter != 2 ** op[2] - 1:
                    return f"Gg diameter {diameter} != 2^n - 1"
            return None
        if kind == "spectrum":
            n = op[2]
            g = self.groups[name]
            if len(answer) != g.shape.level_size(n):
                return "wrong number of eigenvalues"
            if abs(answer[-1] - len(g.canonical_letters)) > 1e-9:
                return "top eigenvalue is not the degree"
            if name == "Gg":
                dev = float(np.max(np.abs(answer - gg_spectrum_reference(n))))
            else:
                ref = fgg_spectrum_reference(n)
                dev = float(np.max(np.min(np.abs(answer[:, None] - ref[None, :]), axis=1)))
            tol = 1e-9 if name == "Gg" else 1e-6
            return None if dev < tol else f"eigenvalues deviate from the reference by {dev}"
        if kind == "growth_values":
            if answer[0] != 1 or answer[1] != 1 + len(self.groups[name].canonical_letters):
                return "ball sizes at radius 0 and 1 are wrong"
            if any(b <= a for a, b in zip(answer, answer[1:])):
                return "ball sizes do not grow"
            return None
        for v, image in zip(op[3], answer):
            for letter in op[2].split():
                v = act_reference(name, letter, v)
            if tuple(v) != tuple(image):
                return f"image of a vertex differs from the reference action ({name})"
        return None


WORKLOADS = {w.name: w for w in (Words, Quotients, Conjugacy, LevelAction)}


def result_key(op):
    """Key under which an answer is found by checks of other ops."""
    if op[0] == "order":
        return (op[1], op[2])
    if op[0] in ("schreier", "substitution"):
        return tuple(op[:3])
    return None
