"""Fast versions of the randomized property suites.

The acceptance module runs these at full size (1000 cases each); the
copies here use smaller counts so the default test run stays quick.
"""

import hashlib
import random

from oracles import (
    check_contraction,
    check_eta_shortening,
    check_portrait_depth_bound,
    check_reduce_confluence,
    check_right_action_laws,
    check_shortening,
    random_stab3_word,
)

from branchgroups.groups import builtin


def test_section_contraction_quick():
    assert check_contraction(["Gg", "Sg", "FGg", "BGg", "GSg", "G2"],
                             cases=150, seed=101) == 0


def test_three_quarters_shortening_quick():
    fails, _ = check_shortening(ratio=3 / 4, additive=8.0, cases=100, seed=103)
    assert fails == 0


def test_stab3_words_fix_level_three_and_are_pinned():
    gg = builtin("Gg")
    rng = random.Random(907)
    words = [random_stab3_word(gg, rng) for _ in range(40)]
    for w in words:
        state = gg.state_of_word(w)
        assert all(state.act(v) == v for v in gg.shape.vertices(3))
    # sha1 of the printed words, one per line, recorded when membership was
    # tested vertex by vertex with `act`: the draws follow the same RNG calls
    printed = "\n".join(gg.format_word(w) for w in words)
    assert hashlib.sha1(printed.encode()).hexdigest() == (
        "ccb963869eca8cc2c5a53f514da57a31ca3cd68c")


def test_two_thirds_shortening_quick():
    fails, _ = check_shortening(ratio=2 / 3, additive=24.0, strict=True,
                                cases=100, seed=107)
    assert fails == 0


def test_eta_shortening_quick():
    assert check_eta_shortening(cases=150, seed=109) == 0


def test_portrait_depth_bound_quick():
    assert check_portrait_depth_bound(cases=150, seed=113) == 0


def test_right_action_laws_quick():
    assert check_right_action_laws(cases=150, seed=127) == 0


def test_reduce_confluence_quick():
    assert check_reduce_confluence(cases=150, seed=131) == 0
