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
section of F^L_c at a point of some cycle c equals F^{+-1} up to a short
conjugator, or the recursion meets the same word again below itself
after cycles whose lengths multiply to M > 1.  A word whose section of
its M-th power is conjugate to itself has order n dividing n/M,
impossible for finite n.

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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .automorphisms import identity_perm
from .errors import ResourceBoundExceeded
from .groups import GroupDefinition, Word
from .quotients import level_quotient

# most words one section closure of `is_trivial` may hold
TRIVIAL_CLOSURE_CAP = 2_000_000
# default largest order `order` computes before it answers Unknown
ORDER_BOUND = 1 << 20
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

        # one representative word per cycle of the root permutation;
        # every rotation of a cycle gives a conjugate representative, and
        # each rotation is inspected for the self-similarity certificate
        reps: List[tuple] = []
        cert = None
        seen_pts = set()
        for start in range(len(root)):
            if start in seen_pts:
                continue
            cycle = [start]
            x = root[start]
            while x != start:
                cycle.append(x)
                x = root[x]
            seen_pts.update(cycle)
            best = None
            rotations = []
            for off in range(len(cycle)):
                pts = cycle[off:] + cycle[:off]
                t_word = []
                for p in pts:
                    t_word.extend(sections[p])
                t_word = child.reduce(tuple(t_word))
                rotations.append((pts[0], t_word))
                if best is None or len(t_word) < len(best[1]):
                    best = (pts[0], t_word)
            if len(cycle) >= 2 and cert is None and g is child:
                w_inv = g.reduce(g.inverse_word(w))
                for v, t_word in rotations:  # exact matches first
                    if t_word == w:
                        cert = (len(cycle), v, 1, w, None, g.shift_index)
                        break
                    if t_word == w_inv:
                        cert = (len(cycle), v, -1, w, None, g.shift_index)
                        break
                else:
                    for v, t_word in rotations:
                        sign = _certificate_sign(g, w, t_word, CONJUGATOR_LENGTH)
                        if sign is not None:
                            cert = (len(cycle), v, sign, w, None, g.shift_index)
                            break
            reps.append((len(cycle),) + best)
        if cert is not None:
            result = OrderResult("infinite", certificate=cert)
            memo[key] = result
            return result, _SETTLED

        value = 1
        pending = set()
        active[key] = (mult, len(path))
        path.append(link)
        try:
            for length, v, t_word in reps:
                sub, sub_pending = rec(child, t_word, mult * length, (length, v))
                if sub.kind == "infinite":
                    result = OrderResult("infinite", certificate=sub.certificate)
                    memo[key] = result
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


def _certificate_sign(g: GroupDefinition, w, t_word, conj_len: int) -> Optional[int]:
    """Is t_word = w^{+-1} up to a conjugator of length <= conj_len?"""
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


# -- balls, growth, torsion growth ----------------------------------------


def ball(group: GroupDefinition, radius: int) -> List[Word]:
    """One canonical representative per element of length <= radius.

    Deduplication keys elements by their action on a finite level, with
    is_trivial confirming every collision, so the result is exact.
    """
    level = max(3, radius.bit_length() + 2)
    degree_cap = 4096
    while group.shape.level_size(level) > degree_cap and level > 1:
        level -= 1
    perm_of_word = level_quotient(group, level).perm_of_word

    def signature(letters):
        return perm_of_word(Word(letters, True)).tobytes()

    # incremental BFS over reduced words
    id_word = Word((), True)
    elements: dict = {signature(()): [((), id_word)]}
    result = [id_word]
    frontier = [()]
    for _ in range(radius):
        new_frontier = []
        for w in frontier:
            for letter in group.canonical_letters:
                nw = group.reduce(w + (letter,))
                if len(nw) > len(w) + 1:
                    continue
                sig = signature(nw)
                bucket = elements.setdefault(sig, [])
                known = False
                for old_letters, _ in bucket:
                    if is_trivial(group, Word(group.reduce(
                            nw + group.inverse_word(old_letters)), True)):
                        known = True
                        break
                if not known:
                    word_obj = Word(nw, True)
                    bucket.append((nw, word_obj))
                    result.append(word_obj)
                    new_frontier.append(nw)
        frontier = new_frontier
    return result


def growth_values(group: GroupDefinition, radius: int) -> List[int]:
    """gamma(0..radius): ball sizes with respect to the canonical generators.

    A representative first found in BFS layer k has length exactly k, so
    one ball counted by word length gives every smaller ball too.
    """
    counts = [0] * (radius + 1)
    for w in ball(group, radius):
        counts[len(w.letters)] += 1
    return list(itertools.accumulate(counts))


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
    """Depth of the canonical portrait: expansion stops at words of length <= 1."""
    letters = group.word(word).letters

    def rec(g, w):
        if len(w) <= 1:
            return 0
        _, secs = g.first_level_sections(w)
        child = g.shifted()
        return 1 + max(rec(child, s) for s in secs)

    return rec(group, letters)
