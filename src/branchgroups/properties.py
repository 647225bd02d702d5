"""Randomized property suites shared by the tests and the acceptance run.

Each checker runs a number of seeded random cases and returns the count
of failures (zero on a healthy build).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np

from .automorphisms import compose
from .decision import (
    canonical_portrait_depth,
    eta_weights,
    kernel_index_fn,
    level_section_lengths,
    word_weight,
)
from .groups import Word, builtin
from .quotients import level_quotient


def check_contraction(group_names: Sequence[str], cases: int, seed: int) -> int:
    """Section words of a reduced word F have length <= (|F|+1)/2."""
    failures = 0
    for name in group_names:
        group = builtin(name)
        rng = random.Random(seed + hash(name) % 1000)
        for _ in range(cases):
            w = group.random_reduced_word(rng.randint(1, 16), rng)
            _, sections = group.first_level_sections(w)
            if any(len(s) > (len(w) + 1) / 2 for s in sections):
                failures += 1
    return failures


def _random_stab3_word(group, rng, max_len=24) -> Tuple:
    """Random reduced word lying in the level-3 stabilizer (by rejection)."""
    quotient = level_quotient(group, 3)
    identity = np.arange(quotient.degree, dtype=np.int32).tobytes()
    while True:
        w = group.random_reduced_word(rng.randint(2, max_len), rng)
        if w and quotient.perm_of_word(Word(w, True)).tobytes() == identity:
            return w


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
        w = _random_stab3_word(group, rng)
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
        w = group.random_reduced_word(rng.randint(1, 20), rng)
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
        w = group.random_reduced_word(n, rng)
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
    pool = [group.state_of_letter(x) for x in group.canonical_letters]
    for _ in range(cases):
        f = group.state_of_word(
            Word(group.random_reduced_word(rng.randint(1, 5), rng), True)
        )
        g = group.state_of_word(
            Word(group.random_reduced_word(rng.randint(1, 5), rng), True)
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
