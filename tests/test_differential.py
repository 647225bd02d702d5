"""Two differentials.  Spinal against explicit: Gg and Sg written as
wreath recursions must answer every word question exactly as their spinal
constructions do.  Orders: the root-cycle formula of ``decision.order``
must give what the power-descent procedure it replaced gives."""

import math
import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_groups import _d6_spinal  # noqa: E402

from branchgroups.automorphisms import perm_order  # noqa: E402
from branchgroups.cli import parse_group_file  # noqa: E402
from branchgroups.decision import (  # noqa: E402
    CONJUGATOR_LENGTH,
    OrderResult,
    _certificate_sign,
    is_trivial,
    order,
)
from branchgroups.groups import Word, _make_builtin, builtin  # noqa: E402
from branchgroups.quotients import level_quotient  # noqa: E402

GG_GRP = """\
group Gg
arity 2
rooted a = (1 2)
recursive b = (a, c)
recursive c = (a, d)
recursive d = (1, b)
"""

# Sg's directed part is (Z/2)^3 = <b, c, d>; its three ring members become
# nine generators x0, x1, x2, where xk = (omega_k(x), x(k+1 mod 3)) and
# omega_0, omega_1, omega_2 send b, d, c to a and the other two to 1
SG_GRP = """\
group Sg
arity 2
rooted a = (1 2)
recursive b0 = (a, b1)
recursive c0 = (1, c1)
recursive d0 = (1, d1)
recursive b1 = (1, b2)
recursive c1 = (1, c2)
recursive d1 = (a, d2)
recursive b2 = (1, b0)
recursive c2 = (a, c0)
recursive d2 = (1, d0)
"""

TWINS = {"Gg": (GG_GRP, {}), "Sg": (SG_GRP, {"b": "b0", "c": "c0", "d": "d0"})}
LEVEL = 6


@st.composite
def spinal_words(draw):
    """Alternating words over a and the directed letters b, c, d."""
    directed = draw(st.lists(st.sampled_from("bcd"), max_size=12))
    letters = [x for b in directed for x in ("a", b)]
    if draw(st.booleans()):
        letters = letters[1:]
    if draw(st.booleans()):
        letters.append("a")
    return letters


def _check_twin(name, letters):
    text, rename = TWINS[name]
    spinal, explicit = builtin(name), _explicit(name, text)
    ws = spinal.parse_word(" ".join(letters))
    we = explicit.parse_word(" ".join(rename.get(x, x) for x in letters))
    assert is_trivial(spinal, ws) == is_trivial(explicit, we)
    rs, re_ = order(spinal, ws), order(explicit, we)
    assert rs.kind == re_.kind and rs.kind != "unknown", (letters, rs, re_)
    assert rs.value == re_.value, letters
    assert np.array_equal(level_quotient(spinal, LEVEL).perm_of_word(ws),
                          level_quotient(explicit, LEVEL).perm_of_word(we))


_EXPLICIT = {}


def _explicit(name, text):
    if name not in _EXPLICIT:
        _EXPLICIT[name] = parse_group_file(text)
    return _EXPLICIT[name]


# 5,000 drawn words for each group, 10,000 in all
DRAWN = settings(max_examples=5000, derandomize=True, deadline=None, database=None,
                 suppress_health_check=[HealthCheck.too_slow])


@DRAWN
@given(spinal_words())
def test_gg_spinal_and_explicit_agree(letters):
    _check_twin("Gg", letters)


@DRAWN
@given(spinal_words())
def test_sg_spinal_and_explicit_agree(letters):
    _check_twin("Sg", letters)


# -- the order formula against power descent --------------------------------


def _order_by_power_descent(group, word, memo, bound=1 << 20):
    """The order procedure the root-cycle formula replaced, as an oracle.

    The same period decomposition and certificates as ``decision.order``,
    but each node combines its cycle representatives into the multiple
    s * lcm(orders), s the order of the root permutation, and the word
    that settles a value recovers the order from that multiple by solving
    the word problem on powers of itself.  ``memo`` stands in for the
    group's order memo, so the two procedures never read each other's
    results.
    """
    settled = frozenset()
    active = {}
    path = []

    def rec(g, t_word, mult, step):
        w, conj = g.cyclic_reduce(t_word)
        if not w:
            return OrderResult("finite", 1), settled
        if len(w) == 1:
            k = g.letter_order(w[0])
            if k is not None:
                return OrderResult("finite", k), settled
        key = g.memo_key(w)
        hit = memo.get(key)
        if hit is not None:
            return hit, settled
        link = step + (conj, w)
        if key in active:
            opened, at = active[key]
            if mult > opened:
                links = tuple(path[at + 1:]) + (link,)
                cert = (mult // opened, links[0][1], 1, w, links)
                return OrderResult("infinite", certificate=cert), settled
            return OrderResult("finite", 1), frozenset([key])

        root, sections = g.first_level_sections(w)
        child = g.shifted()
        reps = []
        cert = None
        seen_pts = set()
        for start in range(len(root)):
            if start in seen_pts:
                continue
            cycle = [start]
            while root[cycle[-1]] != start:
                cycle.append(root[cycle[-1]])
            seen_pts.update(cycle)
            rotations = []
            for off in range(len(cycle)):
                pts = cycle[off:] + cycle[:off]
                t_word = child.reduce(tuple(x for p in pts for x in sections[p]))
                rotations.append((pts[0], t_word))
            if len(cycle) >= 2 and cert is None and g is child:
                w_inv = g.reduce(g.inverse_word(w))
                for v, t_word in rotations:
                    if t_word in (w, w_inv):
                        cert = (len(cycle), v, 1 if t_word == w else -1, w, None)
                        break
                else:
                    for v, t_word in rotations:
                        sign = _certificate_sign(g, w, t_word, CONJUGATOR_LENGTH)
                        if sign is not None:
                            cert = (len(cycle), v, sign, w, None)
                            break
            reps.append((len(cycle),) + min(rotations, key=lambda r: len(r[1])))
        if cert is not None:
            memo[key] = OrderResult("infinite", certificate=cert)
            return memo[key], settled

        sub_orders = []
        pending = set()
        active[key] = (mult, len(path))
        path.append(link)
        try:
            for length, v, t_word in reps:
                sub, sub_pending = rec(child, t_word, mult * length, (length, v))
                if sub.kind == "infinite":
                    memo[key] = OrderResult("infinite", certificate=sub.certificate)
                    return memo[key], settled
                if sub.kind == "unknown":
                    return sub, settled
                sub_orders.append(sub.value)
                pending |= sub_pending
        finally:
            del active[key]
            path.pop()
        pending.discard(key)
        candidate = perm_order(root) * math.lcm(*sub_orders)
        if candidate > bound or candidate * len(w) > 64 * bound:
            return OrderResult("unknown"), settled
        if pending:
            return OrderResult("finite", candidate), frozenset(pending)

        def trivial_power(n):
            return is_trivial(g, Word(g.reduce(tuple(w) * n), True))

        if not trivial_power(candidate):
            return OrderResult("unknown"), settled
        k = candidate
        for p in _prime_factors(candidate):
            while k % p == 0 and trivial_power(k // p):
                k //= p
        memo[key] = OrderResult("finite", k)
        return memo[key], settled

    return rec(group, group.word(word).letters, 1, (None, None))[0]


def _prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


BINARY = "arity 2\nrooted a = (1 2)\n"
# rooted (1 2) and (1 2 3): root permutations with cycles of lengths 1 and
# 2, where the multiple s * lcm overshoots the order and power descent
# had to lower it
S3_GRP = ("group S3r\narity 3\nrooted a = (1 2)\nrooted r = (1 2 3)\n"
          "recursive b = (a, 1, b)\nrecursive c = (r, 1, c) a\n")
# recursions in which the order recursion of x returns to x through fixed
# points only (M = 1), e.g. x -> x^-1 -> x for x = (x^-1, a);
# (file, word, order)
PROVISIONAL = {
    "x=(x,a)": ("group X\n" + BINARY + "recursive x = (x, a)\n", "x", 2),
    "x=(y,a),y=(x,1)": ("group XY\n" + BINARY
                        + "recursive x = (y, a)\nrecursive y = (x, 1)\n", "x", 2),
    "x=(x',a)": ("group Xi\n" + BINARY + "recursive x = (x^-1, a)\n", "x a x", 2),
}
ORACLE_GROUPS = {
    **{name: (lambda name=name: _make_builtin(name))
       for name in ("Gg", "G2", "FGg", "BGg", "GSg", "Sg", "BSV", "Dinf", "GS5", "GS7")},
    "Gg_explicit": lambda: parse_group_file(GG_GRP),
    "Sg_explicit": lambda: parse_group_file(SG_GRP),
    "D6": _d6_spinal,
    "S3r": lambda: parse_group_file(S3_GRP),
    **{name: (lambda text=text: parse_group_file(text))
       for name, (text, _, _) in PROVISIONAL.items()},
}


def _same_order(new, old):
    return (new.kind, new.value, repr(new), new.certificate) == \
        (old.kind, old.value, repr(old), old.certificate)


@pytest.mark.parametrize("name", list(ORACLE_GROUPS))
def test_order_formula_matches_power_descent(name):
    # a fresh group, and the oracle keeps its own memo: both procedures see
    # the same words in the same order, so they memoize the same results
    group, memo = ORACLE_GROUPS[name](), {}
    rng = random.Random(name)
    for _ in range(80):
        w = Word(group.random_reduced_word(rng.randint(1, 14), rng), True)
        new, old = order(group, w), _order_by_power_descent(group, w, memo)
        assert old.kind != "unknown", group.format_word(w)
        assert _same_order(new, old), (group.format_word(w), new, old)


@pytest.mark.parametrize("name", list(PROVISIONAL))
def test_provisional_repeats_get_exact_orders(name):
    text, word, k = PROVISIONAL[name]
    group = parse_group_file(text)
    res = order(group, word)
    assert repr(res) == f"Finite({k})"
    assert not group._memo_trivial  # no power word was solved
    perm = level_quotient(group, LEVEL).perm_of_word(group.parse_word(word))
    assert perm_order(tuple(int(x) for x in perm)) == k
    assert _same_order(res, _order_by_power_descent(group, word, {}))
