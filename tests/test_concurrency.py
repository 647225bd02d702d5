import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from oracles import random_reduced_word

from branchgroups.decision import is_trivial, order
from branchgroups.groups import Word, _make_builtin, builtin
from branchgroups.spectra import spectrum_eigenvalues


def test_concurrent_interning_consistent():
    # products built concurrently intern to the same states
    gg = builtin("Gg")
    rng = random.Random(211)
    words = [random_reduced_word(gg, rng.randint(1, 8), rng) for _ in range(60)]

    def build(w):
        return gg.state_of_word(Word(w, True))

    with ThreadPoolExecutor(max_workers=6) as pool:
        first = list(pool.map(build, words))
        second = list(pool.map(build, words))
    for a, b in zip(first, second):
        assert a is b


def test_concurrent_decisions_deterministic():
    gg = builtin("Gg")
    rng = random.Random(223)
    words = [Word(random_reduced_word(gg, rng.randint(1, 10), rng), True)
             for _ in range(40)]
    serial = [(is_trivial(gg, w), order(gg, w).value) for w in words]

    def work(w):
        return (is_trivial(gg, w), order(gg, w).value)

    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(pool.map(work, words))
    assert serial == parallel


def test_concurrent_spectra_equal_serial():
    # fresh copies keep no block, so the threads race to solve and keep them
    asks = [(name, n) for name in ("Gg", "FGg") for n in range(8, 0, -1)]
    serial = {"Gg": _make_builtin("Gg"), "FGg": _make_builtin("FGg")}
    expected = [spectrum_eigenvalues(serial[name], n) for name, n in asks]
    shared = {"Gg": _make_builtin("Gg"), "FGg": _make_builtin("FGg")}

    def work(ask):
        return spectrum_eigenvalues(shared[ask[0]], ask[1])

    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(pool.map(work, asks))
    assert all(np.array_equal(a, b) for a, b in zip(expected, parallel))
