"""Smoke self-test of the benchmark.  From the root of a checkout:

    python3 perfbench/selftest.py

1. Runs every workload once untraced (``--seconds 1``, the shortest run)
   and once traced, asserts that every metric BENCHMARK.json names is
   printed with its unit and that every answer passed its check, and
   prints the end-to-end metrics (plus failed_frac and unknown_frac from
   the report line) of all four workloads.
2. Hands each answer check a deliberately wrong answer and asserts that
   the check rejects it.

Exits nonzero on the first failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_benchmark(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=300,
    )
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_outputs(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            report, result = run_benchmark(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            printed = result["metrics"]
            assert set(printed) == {m["name"] for m in listed}, (workload, trace)
            for m in listed:
                assert printed[m["name"]]["unit"] == m["unit"], (workload, m["name"])
                assert isinstance(printed[m["name"]]["value"], (int, float))
            if trace == 0:
                shown = {k: f"{v['value']:.4g} {v['unit']}" for k, v in printed.items()}
                for extra in ("failed_frac", "unknown_frac"):
                    shown[extra] = f"{report[extra]['value']:.4g} {report[extra]['unit']}"
                print(workload, json.dumps(shown))


def rejects(wl, op, wrong, results=None, position=1):
    problem = wl.check(op, wrong, results or {}, position)
    assert problem is not None, f"check accepted a wrong answer for {op[:3]}"


def run_and_keep(wl, op):
    answer = wl.keep(op, wl.run(op))
    assert wl.check(op, answer, {}, 1) is None, op
    return answer


def check_rejections():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from branchgroups.decision import OrderResult

    words = workloads.Words()
    words.setup()
    words.prepare_checks()
    gg_op = ["order", "Gg", "a b a c a d a b"]
    k = run_and_keep(words, gg_op).value
    rejects(words, gg_op, OrderResult("finite", 3 * k))
    rejects(words, gg_op, OrderResult("finite", 1))
    rejects(words, gg_op, OrderResult("infinite", certificate=(2, 0, 1, (), None)))
    rejects(words, gg_op, OrderResult("finite", k),
            {("Gg_explicit", gg_op[2]): OrderResult("finite", 2 * k)})
    bgg_op = ["order", "BGg", "a t"]
    if run_and_keep(words, bgg_op).kind == "finite":
        rejects(words, bgg_op, OrderResult("finite", 2))
    rel_op = ["trivial", "lysionok", 5, "a b"]
    assert run_and_keep(words, rel_op) is True
    rejects(words, rel_op, False)

    quot = workloads.Quotients()
    quot.setup()
    quot.prepare_checks()
    for analysis in ("order", "hausdorff", "derived", "ranks", "suborbits", "rigid"):
        op = ["quotient", "Gg", 5, analysis]
        answer = run_and_keep(quot, op)
        wrong = {
            "order": lambda a: a * 2,
            "hausdorff": lambda a: a + Fraction(1, 31),
            "derived": lambda a: [a[0] * 2] + a[1:],
            "ranks": lambda a: [a[0] + 1] + a[1:],
            "suborbits": lambda a: sorted(a[:-1] + [a[-1] - 1, 1]),
            "rigid": lambda a: a * 5,
        }[analysis](answer)
        rejects(quot, op, wrong)

    conj = workloads.Conjugacy()
    conj.setup()
    conj.prepare_checks()
    built = ["q_set", "a b a c", "b a a b a c a b", "a b"]
    answer = run_and_keep(conj, built)
    f_coset = workloads.conjugacy.coset_of("a b")
    rejects(conj, built, answer - {f_coset})
    rejects(conj, built, answer | {c for c in range(16) if c not in answer}, position=0)
    apart = ["q_set", "a b", "b", None]
    assert run_and_keep(conj, apart) == frozenset()
    rejects(conj, apart, frozenset({0}))

    level = workloads.LevelAction()
    level.setup()
    level.prepare_checks()
    direct = ["schreier", "Gg", 5]
    graph = run_and_keep(level, direct)
    digest, size, diameter, series = graph
    rejects(level, direct, (digest, size, diameter + 1, series))
    rejects(level, direct, graph, {tuple(direct): graph, ("substitution", "Gg", 5): "0" * 40})
    for op in (["spectrum", "Gg", 5], ["spectrum", "FGg", 3]):
        eigs = run_and_keep(level, op)
        wrong = eigs.copy()
        wrong[len(wrong) // 2] += 1e-3
        rejects(level, op, wrong)
    growth = ["growth_values", "Gg", 3]
    rejects(level, growth, [1, 5, 5, 4][:len(run_and_keep(level, growth))])
    for group in ("Gg", "FGg"):
        word = "a b a c a d" if group == "Gg" else "a t a' t' a t"
        act = ["act", group, word, [[0, 1, 0, 1, 1, 0], [1, 1, 1, 0, 0, 0]]]
        images = run_and_keep(level, act)
        rejects(level, act, [images[0], tuple(reversed(images[1]))])
    print("every answer check rejects its wrong answer")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_rejections()
    check_outputs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
