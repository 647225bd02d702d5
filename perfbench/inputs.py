"""Seeded inputs for every workload, built without importing the library.

The same seed always gives the same inputs, so a change to the program
cannot change the load it is measured on.  Every input is a plain JSON
value (word strings, names, integers).  Ops are grouped in blocks: a
timed run stops at the first block boundary after its deadline, so the
mix of op kinds is the same whatever the speed.
"""

from __future__ import annotations

import itertools
import random

# Generator spellings understood by the library's word parser.  Spinal
# groups alternate a rooted letter (first list) with a directed letter
# (second list), which keeps the words reduced.
ALPHABETS = {
    "Gg": (["a"], ["b", "c", "d"]),
    "GSg": (["a", "a'"], ["t", "t'"]),
    "G2": (["a", "a^2", "a'"], ["t", "t^2", "t'"]),
    "BGg": (["a", "a'"], ["t", "t'"]),
    "FGg": (["a", "a'"], ["t", "t'"]),
    "Sg": (["a"], ["b", "c", "d"]),
}
BSV_LETTERS = ["mu", "mu'", "tau", "tau'"]

WORD_GROUPS = ("Gg", "GSg", "G2", "BGg", "Sg")
# Word lengths for ``order``: every run of len(WORD_LENGTHS) blocks gives
# each group one word of each length, in a seeded order, so the length mix
# is the same for every seed and only the letters are random.
WORD_LENGTHS = tuple(range(2, 25, 2))
PRESENTATIONS = ("lysionok", "sg", "fgg", "bsv")
PRESENTATION_GROUPS = {"lysionok": "Gg", "sg": "Sg", "fgg": "FGg", "bsv": "BSV"}

# 8 pairs x 6 analyses = 48 ops a round.  The ops' costs are fixed, so a
# percentile picks one op kind: the pairs are chosen so that the median
# (kinds 24 and 25 by cost) and p85 fall among kinds of nearly equal cost,
# not across a gap between two kinds.
QUOTIENT_PAIRS = (("Gg", 5), ("Gg", 6), ("Gg", 7), ("FGg", 3), ("FGg", 4), ("BGg", 4),
                  ("Sg", 5), ("Sg", 6))
QUOTIENT_ANALYSES = ("order", "hausdorff", "derived", "ranks", "suborbits", "rigid")

# No FGg@6 Schreier graph (729 vertices): its diameter alone took 1.4 s,
# 40% of a round, which left 5 or 6 rounds in a run, too few for a steady
# median and tail.  FGg@6 still runs in SPECTRUM_LEVELS.
SCHREIER_LEVELS = (("Gg", 8), ("Gg", 9), ("FGg", 5), ("BGg", 5))
SPECTRUM_LEVELS = (("Gg", 8), ("Gg", 9), ("Gg", 10), ("FGg", 5), ("FGg", 6))
GROWTH_RADII = (("Gg", 6), ("FGg", 4))
ACT_LEVEL = 12
ACT_VERTICES = 32
# one act op per group and word length in each round; the words and
# vertices are seeded, the mix of groups and lengths is fixed
ACT_GROUPS = ("Gg", "FGg")
ACT_LENGTHS = tuple(range(4, 36, 2))

# Upper bounds on the blocks a run can use; far above what the library
# completes in a run today, so a faster program still finds inputs.
MAX_BLOCKS = {"words": 3000, "quotients": 40, "conjugacy": 2000, "level_action": 40}
# The traced run and its untraced twin run a fixed number of blocks, so
# that counts repeat exactly for a seed.
TRACE_BLOCKS = {"words": 40, "quotients": 1, "conjugacy": 150, "level_action": 1}
# Peak memory is read once this many blocks are done (about half a 20 s
# run today), so a faster program is not charged for the extra work it
# fits into the run.
RSS_BLOCKS = {"words": 300, "quotients": 1, "conjugacy": 250, "level_action": 2}


def random_word(rng: random.Random, group: str, length: int) -> str:
    if group == "BSV":
        return " ".join(rng.choice(BSV_LETTERS) for _ in range(length))
    rooted, directed = ALPHABETS[group]
    start_rooted = rng.random() < 0.5
    return " ".join(
        rng.choice(rooted if start_rooted == (i % 2 == 0) else directed)
        for i in range(length)
    )


def _words_blocks(rng):
    lengths = {}
    while True:
        ops = []
        for group in WORD_GROUPS:
            if not lengths.get(group):
                lengths[group] = rng.sample(WORD_LENGTHS, len(WORD_LENGTHS))
            w = random_word(rng, group, lengths[group].pop())
            ops.append(["order", group, w])
            if group == "Gg":
                # the same string against Gg defined by explicit recursion
                ops.append(["order", "Gg_explicit", w])
        for _ in range(4):
            pres = rng.choice(PRESENTATIONS)
            conj = random_word(rng, PRESENTATION_GROUPS[pres], rng.randint(1, 12))
            ops.append(["trivial", pres, rng.getrandbits(31), conj])
        rng.shuffle(ops)
        yield ops


def _quotients_blocks(rng):
    while True:
        ops = [["quotient", g, n, a] for g, n in QUOTIENT_PAIRS for a in QUOTIENT_ANALYSES]
        rng.shuffle(ops)
        yield ops


def _conjugacy_blocks(rng):
    while True:
        g = random_word(rng, "Gg", rng.randint(2, 24))
        f = random_word(rng, "Gg", rng.randint(1, 12))
        # every Gg generator is an involution, so f^-1 is f read backwards
        f_inv = " ".join(reversed(f.split()))
        conjugate = ["q_set", g, f"{f_inv} {g} {f}", f]
        independent = ["q_set", random_word(rng, "Gg", rng.randint(2, 24)),
                       random_word(rng, "Gg", rng.randint(2, 24)), None]
        ops = [conjugate, independent]
        rng.shuffle(ops)
        yield ops


def _level_action_blocks(rng):
    while True:
        ops = [["schreier", g, n] for g, n in SCHREIER_LEVELS]
        ops += [["substitution", g, n] for g, n in SCHREIER_LEVELS]
        ops += [["spectrum", g, n] for g, n in SPECTRUM_LEVELS]
        ops += [["growth_values", g, r] for g, r in GROWTH_RADII]
        for group in ACT_GROUPS:
            m = 2 if group == "Gg" else 3
            for length in ACT_LENGTHS:
                verts = [[rng.randrange(m) for _ in range(ACT_LEVEL)]
                         for _ in range(ACT_VERTICES)]
                ops.append(["act", group, random_word(rng, group, length), verts])
        rng.shuffle(ops)
        yield ops


_BLOCKS = {
    "words": _words_blocks,
    "quotients": _quotients_blocks,
    "conjugacy": _conjugacy_blocks,
    "level_action": _level_action_blocks,
}
WORKLOADS = tuple(_BLOCKS)


def make_blocks(workload: str, seed: int, count: int):
    """The first ``count`` op blocks of a workload's seeded stream."""
    rng = random.Random(f"{workload}:{seed}")
    return list(itertools.islice(_BLOCKS[workload](rng), count))
