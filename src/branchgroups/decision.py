"""Decision procedures on group elements given as words.

One engine serves spinal and explicit-recursion groups.  A word is
trivial iff every word in its section closure fixes the first level;
the closure is searched with an explicit stack, keyed per (shift, word).
A closure that turns out all-trivial marks every word in it trivial in
the memo; a failure marks the start word and the word that moved.  For
spinal groups each section word has at most (|F|+1)/2 letters, so the
closure is small; for explicit groups a cap bounds it.

Orders are computed by the pruned period decomposition: write F = H g
with g the root permutation, form one cyclically reduced representative
word per cycle of g (the product of the sections of F along the cycle),
recurse, and combine: the order of F is the lcm over the cycles c of
L_c * ord(rep_c), where L_c is the length of c.  This is exact, because
F^j fixes the points of c iff L_c divides j, and then its section at a
point x of c is ((F^L_c)_x)^(j/L_c), a conjugate of rep_c^(j/L_c).  An
element is reported infinite only with a certificate: either the
recursion meets the same word again below itself after cycles whose
lengths multiply to M > 1 (a word whose section of its M-th power is
conjugate to itself has order n dividing n/M, impossible for finite n),
or one level down the section of F^L_c at a point of a cycle c of
length at least 2 is F^{+-1} up to a short conjugator.  That search runs
only where the sections lie in F's own group (an explicit recursion, or
a spinal group that is its own shift), over the cycles by least point
and each cycle's rotations from its least point on.  A rotation equal
to F^{+-1} wins over a conjugate one; among one kind the earlier
rotation wins, +1 before -1.  A conjugate rotation is within
2 * CONJUGATOR_LENGTH letters of F's length, and its cyclic reduction is
F^{+-1}'s turned by at most CONJUGATOR_LENGTH letters.

A repeat with M = 1 takes the provisional order 1, and the word W that
opened the cycle gets the least fixpoint N of the equations.  N is W's
order.  Raise each word of the recursion below W to N over the product
of the cycle lengths above it (an integer, by the lcm): each such power
fixes the first level, and its sections are trivial or conjugates of the
powers one step down, a repeat's power being a conjugate of the power of
the word it repeats, as M = 1.  By induction on the length of a vertex,
all these powers fix every vertex, so W^N = 1; and N divides W's order,
as each provisional value divides the true one.  Only words whose value
rests on a cycle still open above them stay out of the memo.

Balls grow breadth first over reduced words.  An extension by a letter
whose reduced word is no longer than its parent and made of canonical
letters is skipped: by induction on length its element is in the ball
already.  A word with a merged rooted letter that is no canonical letter
(`a a` for a 4-cycle `a`) can be a new element, so it is kept.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .automorphisms import identity_perm, perm_cycles
from .errors import ResourceBoundExceeded
from .groups import GroupDefinition, Word, check_word_length
from .quotients import level_quotient

# most words one section closure of `is_trivial` may hold
TRIVIAL_CLOSURE_CAP = 2_000_000
# default largest order `order` computes before it answers Unknown
ORDER_BOUND = 1 << 20
# most open words on the recursion path of `order` (each is one interpreter
# frame), and the deepest level `canonical_portrait_depth` expands
ORDER_DEPTH_CAP = 768
# most elements `ball` (and so `growth_values` and `torsion_growth`) keeps
BALL_SIZE_CAP = 1 << 19
# width of the bracket `eta_weights` bisects down to
ETA_TOLERANCE = 1e-14

# -- triviality ----------------------------------------------------------


def is_trivial(group: GroupDefinition, word) -> bool:
    """Word problem: does the word represent the identity?"""
    letters = group.word(word).letters
    if not letters:
        return True
    memo = group.root_def()._memo_trivial
    start = group.memo_key(letters)
    seen = {start}
    stack = [(group, letters)]
    while stack:
        g, w = stack.pop()
        key = g.memo_key(w)
        hit = memo.get(key)
        if hit:
            continue  # its whole closure is trivial
        # a lone letter is nontrivial: reduce() removed identity letters
        if hit is False or len(w) == 1:
            moved = True
        else:
            root, sections = g.first_level_sections(w)
            moved = root != identity_perm(len(root))
        if moved:
            memo[start] = memo[key] = False
            return False
        child = g.shifted()
        for s in reversed(sections):  # first section on top: depth first
            k = child.memo_key(s)
            if s and k not in seen:
                if len(seen) >= TRIVIAL_CLOSURE_CAP:
                    raise ResourceBoundExceeded(
                        f"section closure exceeded {TRIVIAL_CLOSURE_CAP} words "
                        "(decision.TRIVIAL_CLOSURE_CAP)")
                seen.add(k)
                stack.append((child, s))
    for key in seen:
        memo[key] = True
    return True


def equal(group: GroupDefinition, w1, w2) -> bool:
    """Word problem for equality: w1 = w2 in the group."""
    a = group.word(w1).letters
    b = group.word(w2).letters
    return is_trivial(group, Word(group.reduce(a + group.inverse_word(b)), True))


# -- element order ---------------------------------------------------------


@dataclass
class OrderResult:
    """Outcome of an order computation.

    kind is 'finite' (value set), 'infinite' (certificate set), or
    'unknown' (bound reached).  The certificate (k, vertex, sign, witness,
    links, shift) says: the section of witness^k at the level-1 vertex
    equals witness^sign up to a conjugator.  ``links`` is None for a
    one-level certificate found by rotation.  For a cycle of the recursion
    it lists one (cycle length, vertex, conjugator, word, shift) per step
    down from the witness: the section of the previous word (the witness,
    first) raised to the cycle length, at the vertex and conjugated by the
    conjugator, is the word; the last word is the witness and the lengths
    multiply to k > 1.  Each ``shift`` is the shift index of the group
    whose letters the words next to it use (``group.companion(shift)``
    prints them); the last one is the witness's.
    """

    kind: str
    value: Optional[int] = None
    certificate: Optional[tuple] = None

    def __repr__(self):
        if self.kind == "finite":
            return f"Finite({self.value})"
        if self.kind == "infinite":
            k, v, sign, _w, links = self.certificate[:5]
            depth = f", depth={len(links)}" if links and len(links) > 1 else ""
            return f"InfiniteCertified(k={k}, vertex={v + 1}, sign={sign:+d}{depth})"
        return "Unknown(bound reached)"


# longest conjugator the one-level certificate search tries
CONJUGATOR_LENGTH = 4
_SETTLED = frozenset()  # no provisional value behind a result


def order(group: GroupDefinition, word, bound: int = ORDER_BOUND) -> OrderResult:
    """Order of an element by pruned period decomposition.

    Returns Finite(k) with k = lcm over the cycles c of the root
    permutation of len(c) * ord(rep_c), exact by construction (see the
    module docstring), InfiniteCertified with a self-similar certificate,
    or Unknown when a value exceeds ``bound``.
    """
    letters = group.word(word).letters
    memo = group.root_def()._memo_order
    active = {}  # key of each open word -> (mult at opening, index in path)
    path = []  # the link into each open word, root first

    def rec(g: GroupDefinition, t_word, mult: int, step):
        """(result, keys of open words whose provisional value it uses).

        ``mult`` is the product of the cycle lengths from the root down to
        this word; ``step`` is the (cycle length, vertex) it came from.
        """
        w, conj = g.cyclic_reduce(t_word)
        if not w:
            return OrderResult("finite", 1), _SETTLED
        if len(w) == 1:
            k = g.letter_order(w[0])
            if k is not None:
                return OrderResult("finite", k), _SETTLED
        key = g.memo_key(w)
        hit = memo.get(key)
        if hit is not None:
            # a remembered order past the bound is Unknown, as a fresh
            # search of the same word finds
            if hit.kind == "finite" and hit.value > bound:
                return OrderResult("unknown"), _SETTLED
            return hit, _SETTLED
        link = step + (conj, w, g.shift_index)
        if key in active:
            opened, at = active[key]
            if mult > opened:
                links = tuple(path[at + 1:]) + (link,)
                cert = (mult // opened, links[0][1], 1, w, links, g.shift_index)
                return OrderResult("infinite", certificate=cert), _SETTLED
            return OrderResult("finite", 1), frozenset([key])

        root, sections = g.first_level_sections(w)
        child = g.shifted()

        # one representative word per root cycle, its first shortest rotation;
        # each rotation, a conjugate of it, is searched for a certificate
        reps: List[tuple] = []
        for cycle in perm_cycles(root):
            if len(cycle) == 1:  # the one rotation is the section, reduced already
                rotations = [(cycle[0], sections[cycle[0]])]
            else:
                check_word_length(sum(len(sections[p]) for p in cycle), "a cycle's rotation")
                rotations = []
                for off in range(len(cycle)):
                    t_word = []
                    for p in cycle[off:] + cycle[:off]:
                        t_word.extend(sections[p])
                    rotations.append((cycle[off], child.reduce(t_word)))
            found = len(cycle) >= 2 and g is child and _rotation_certificate(g, w, rotations)
            if found:
                cert = (len(cycle),) + found + (w, None, g.shift_index)
                memo[key] = result = OrderResult("infinite", certificate=cert)
                return result, _SETTLED
            reps.append((len(cycle),) + min(rotations, key=lambda r: len(r[1])))

        if len(path) >= ORDER_DEPTH_CAP:
            _depth_exceeded("the recursion of order")
        value = 1
        pending = set()
        active[key] = (mult, len(path))
        path.append(link)
        try:
            for length, v, t_word in reps:
                sub, sub_pending = rec(child, t_word, mult * length, (length, v))
                if sub.kind == "infinite":
                    memo[key] = result = OrderResult("infinite", certificate=sub.certificate)
                    return result, _SETTLED
                if sub.kind == "unknown":
                    return sub, _SETTLED
                value = math.lcm(value, length * sub.value)
                pending |= sub_pending
        finally:
            del active[key]
            path.pop()
        if value > bound:
            return OrderResult("unknown"), _SETTLED
        result = OrderResult("finite", value)
        pending.discard(key)
        if pending:  # the value rests on a cycle opened above: not final yet
            return result, frozenset(pending)
        memo[key] = result
        return result, _SETTLED

    return rec(group, letters, 1, (None, None))[0]


def _depth_exceeded(what: str):
    raise ResourceBoundExceeded(f"{what} went deeper than {ORDER_DEPTH_CAP} levels "
                                "(decision.ORDER_DEPTH_CAP)")


def _rotation_certificate(g: GroupDefinition, w, rotations) -> Optional[Tuple[int, int]]:
    """(vertex, sign) of the first rotation that is w^sign, else of the
    first one that is w^sign up to a conjugator of at most
    CONJUGATOR_LENGTH letters, +1 tried before -1; None when none is."""
    w_inv = g.inverse_word(w)  # reduced, as w is
    for v, t_word in rotations:
        if t_word in (w, w_inv):
            return v, 1 if t_word == w else -1
    near = [(v, t_word) for v, t_word in rotations
            if abs(len(t_word) - len(w)) <= 2 * CONJUGATOR_LENGTH]
    if not near:
        return None
    # w is cyclically reduced, so w_inv is: canonical letters are closed under inverses
    targets = ((1, w), (-1, w_inv))
    for v, t_word in near:
        tc, _ = g.cyclic_reduce(t_word)
        for sign, c in targets:
            # a cyclic turn by i letters is a conjugate by a word of i letters
            turns = range(min(len(c), CONJUGATOR_LENGTH + 1)) if len(c) == len(tc) else ()
            if any(c[i:] + c[:i] == tc for i in turns):
                return v, sign
    return None


# -- balls, growth, torsion growth ----------------------------------------


def ball(group: GroupDefinition, radius: int) -> List[Word]:
    """One canonical representative per element of length <= radius.

    An extension by a letter that got no longer and is made of canonical
    letters is skipped; any other one is keyed by its action on a finite
    level and dropped when `equal` to an earlier word with that key, so
    the result is exact.  Keeping more than BALL_SIZE_CAP elements raises
    ResourceBoundExceeded.
    """
    return [w for layer in _ball_layers(group, radius) for w in layer]


def _ball_layers(group: GroupDefinition, radius: int) -> List[List[Word]]:
    """The words of `ball` by BFS layer: layer k holds the elements of
    length exactly k, whatever the length of their reduced words."""
    level = max(3, radius.bit_length() + 2)
    degree_cap = 4096
    while group.shape.level_size(level) > degree_cap and level > 1:
        level -= 1
    perm_of_word = level_quotient(group, level).perm_of_word

    canonical = set(group.canonical_letters)
    id_word = Word((), True)
    elements: dict = {perm_of_word(id_word).tobytes(): [id_word]}
    layers = [[id_word]]
    size = 1
    for _ in range(radius):
        layer = []
        for w in layers[-1]:
            for letter in group.canonical_letters:
                nw = group.reduce(w.letters + (letter,))
                if len(nw) <= len(w.letters) and canonical.issuperset(nw):
                    continue
                word_obj = Word(nw, True)
                bucket = elements.setdefault(perm_of_word(word_obj).tobytes(), [])
                if not any(equal(group, word_obj, old) for old in bucket):
                    size += 1
                    if size > BALL_SIZE_CAP:
                        raise ResourceBoundExceeded(
                            f"the ball of radius {radius} has more than {BALL_SIZE_CAP} "
                            "elements, the bound on a ball (decision.BALL_SIZE_CAP)")
                    bucket.append(word_obj)
                    layer.append(word_obj)
        layers.append(layer)
    return layers


def growth_values(group: GroupDefinition, radius: int) -> List[int]:
    """gamma(0..radius): ball sizes with respect to the canonical generators,
    accumulated from the layers of one ball."""
    return list(itertools.accumulate(map(len, _ball_layers(group, radius))))


def torsion_growth(group: GroupDefinition, radius: int) -> int:
    """Largest finite element order on the ball of the given radius; an
    element of certified infinite order is a ValueError."""
    best = 1
    for w in ball(group, radius):
        res = order(group, w, ORDER_BOUND)
        if res.kind == "finite":
            best = max(best, res.value)
        elif res.kind == "infinite":
            raise ValueError(f"element {group.format_word(w)} has infinite order, "
                             f"certified by {res!r}; torsion growth is defined "
                             "for torsion groups only")
        else:
            raise ResourceBoundExceeded(
                f"element {group.format_word(w)} has no finite order within "
                f"bound {ORDER_BOUND} (decision.ORDER_BOUND)"
            )
    return best


# -- eta weights (growth estimates machinery) -------------------------------


def eta_weights(r: int) -> Tuple[float, List[float]]:
    """The contraction root eta_r and the weights (tau_0, ..., tau_r).

    eta_r is the root in (0,1) of x^r + x^{r-1} + x^{r-2} - 2, found by
    bisection; tau_i = eta^r + eta^{r-i} - 1 for i >= 1 and
    tau_0 = 1 - eta^r.  By construction tau_1 + tau_2 = tau_r exactly.
    """
    if r < 3:
        raise ValueError("weights need r >= 3")

    def f(x):
        return x**r + x ** (r - 1) + x ** (r - 2) - 2

    lo, hi = 0.0, 1.0
    while hi - lo > ETA_TOLERANCE:
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    eta = (lo + hi) / 2
    taus = [1 - eta**r] + [eta**r + eta ** (r - i) - 1 for i in range(1, r + 1)]
    return eta, taus


def canonical_portrait_depth(group: GroupDefinition, word) -> int:
    """Depth of the canonical portrait: expansion stops at words of length <= 1,
    and a portrait deeper than ORDER_DEPTH_CAP raises ResourceBoundExceeded."""
    deepest = 0
    stack = [(group, group.word(word).letters, 0)]
    while stack:
        g, w, depth = stack.pop()
        if len(w) <= 1:
            deepest = max(deepest, depth)
            continue
        if depth >= ORDER_DEPTH_CAP:
            _depth_exceeded("the canonical portrait")
        _, secs = g.first_level_sections(w)
        stack.extend((g.shifted(), s, depth + 1) for s in secs)
    return deepest
