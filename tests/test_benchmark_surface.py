"""The library surface that the benchmark harness in perfbench/ reads.

The traced benchmark run wraps every (owner, attribute) pair of
``layers.targets()`` and takes ``layers.snapshot`` of the library's
caches; the workloads turn letters into states with ``state_of_letter``.
A rename in the library must fail here, not in the benchmark.
"""

import pathlib

import pytest

from branchgroups import builtin, conjugacy

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads

    return layers, workloads


def test_every_wrapped_target_exists(perfbench):
    layers, _ = perfbench
    for name, owner, attribute, _options in layers.targets():
        assert callable(getattr(owner, attribute, None)), name


def test_snapshot_reads_the_caches(perfbench):
    layers, _ = perfbench
    gg = builtin("Gg")
    ctx = conjugacy.GgConjugacy.instance()
    ctx.q_set(gg.word("b"), gg.word("aba"))
    snap = layers.snapshot([])
    assert snap["interned_states"] > 0
    assert snap["fixpoint_nodes"] == len(ctx.values) > 0
    # the snapshot reads ctx.quotient._chain; the Gg conjugacy context
    # computes in G_{n_K+1} by table and holds no chain
    assert snap["held_chain_base_length"] == 0


def test_workload_letters_are_states(perfbench):
    _, workloads = perfbench
    perms = workloads.LevelPerms(builtin("Gg"), 3)
    assert workloads.perm_order(perms.of_word("ab")) == 8
