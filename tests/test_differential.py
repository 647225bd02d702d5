"""Spinal against explicit: Gg and Sg written as wreath recursions must
answer every word question exactly as their spinal constructions do."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from branchgroups.cli import parse_group_file  # noqa: E402
from branchgroups.decision import is_trivial, order  # noqa: E402
from branchgroups.groups import builtin  # noqa: E402
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
