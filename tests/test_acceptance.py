"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them
all) and asserts the criterion at its stated tolerance.  Where a value
depends on a closed form or on a finite level horizon, the test computes
it from the closed form (the FGg Hausdorff ratio, the growth series of
the Gg Schreier graph) or states the truncated value explicitly, backed
by an oracle test in ``test_quotients.py`` that does not call the code
it checks (the level-5 lower central ranks and the level-3 rigid
stabilizer index).
"""

import random
import time
from fractions import Fraction

import numpy as np

from hostspeed import slowdown
from oracles import (
    check_contraction,
    check_eta_shortening,
    check_portrait_depth_bound,
    check_reduce_confluence,
    check_right_action_laws,
    check_shortening,
    growth_series_product,
    mutate_relator,
    one_sided_hausdorff,
    phi_check,
    random_reduced_word,
)

from branchgroups.conjugacy import GgConjugacy, coset_of, q_set
from branchgroups.decision import ball, is_trivial, order
from branchgroups.groups import GGSVector, Word, builtin, from_ggs, is_ggs_torsion
from branchgroups.presentations import presentation, translate, verify
from branchgroups.quotients import (
    derived_series_orders,
    hausdorff_ratio_exact,
    level_quotient,
    lower_central_ranks,
    nilpotency_class,
    rigid_level_stabilizer,
    suborbit_profile,
)
from branchgroups.schreier import schreier_graph, substitutional_expand
from branchgroups.spectra import fgg_reference, gg_closed_form, spectrum_eigenvalues


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:2d} [{status}] {detail}")
    return ok


def test_criterion_1_quotient_orders():
    scale = slowdown()
    t0 = time.time()
    ok = True
    gg = builtin("Gg")
    for n in range(4, 8):
        ok &= level_quotient(gg, n).order() == 2 ** (5 * 2 ** (n - 3) + 2)
    fgg = builtin("FGg")
    for n in range(2, 6):
        ok &= level_quotient(fgg, n).order() == 3 ** (3 ** (n - 1) + 1)
    bgg = builtin("BGg")
    for n in range(2, 6):
        ok &= level_quotient(bgg, n).order() == 3 ** ((3**n + 2 * n + 3) // 4)
    for n in (1, 2):
        ok &= level_quotient(bgg, n).order() == 3 ** ((3**n - 1) // 2)
    elapsed = (time.time() - t0) / scale
    ok &= elapsed < 120
    assert report(1, ok, f"quotient orders exact, {elapsed:.1f}s at reference speed < 120s")


def test_criterion_2_hausdorff_ratios():
    # |FGg_n| = 3^(3^(n-1)+1) (criterion 1) inside |W_n| = 3^((3^n-1)/2)
    # forces the FGg ratio (3^(n-1)+1) / ((3^n-1)/2), which tends to 2/3
    fgg_closed = Fraction(3**5 + 1, (3**6 - 1) // 2)
    gg_ratio = float(hausdorff_ratio_exact(builtin("Gg"), 8))
    fgg_exact = hausdorff_ratio_exact(builtin("FGg"), 6)
    fgg_ratio = float(fgg_exact)
    bgg_ratio = float(hausdorff_ratio_exact(builtin("BGg"), 6))
    ok_gg = abs(gg_ratio - 5 / 8) < 0.02
    ok_fgg = abs(fgg_ratio - 2 / 3) < 0.02 and fgg_exact == fgg_closed
    ok_bgg = abs(bgg_ratio - 1 / 2) < 0.02
    detail = (f"Gg@8 = {gg_ratio:.4f} (5/8: {'ok' if ok_gg else 'FAIL'}), "
              f"FGg@6 = {fgg_exact} (2/3, {fgg_closed}: "
              f"{'ok' if ok_fgg else 'FAIL'}), "
              f"BGg@6 = {bgg_ratio:.4f} (1/2: {'ok' if ok_bgg else 'FAIL'})")
    report(2, ok_gg and ok_fgg and ok_bgg, detail)
    assert ok_gg and ok_bgg
    assert abs(fgg_ratio - 2 / 3) < 0.02
    assert fgg_exact == fgg_closed


def test_criterion_3_spectra():
    gg = builtin("Gg")
    ok = True
    for n in range(1, 9):
        eigs = spectrum_eigenvalues(gg, n)
        ref = gg_closed_form(n)
        ok &= len(eigs) == 2**n
        ok &= float(np.max(np.abs(eigs - ref))) < 1e-9
        bands = ((eigs >= -2 - 1e-9) & (eigs <= 1e-9)) | (
            (eigs >= 2 - 1e-9) & (eigs <= 4 + 1e-9)
        )
        ok &= bool(np.all(bands))
    fgg = builtin("FGg")
    for n in range(1, 7):
        eigs = spectrum_eigenvalues(fgg, n)
        ok &= one_sided_hausdorff(eigs, fgg_reference(n, depth=n)) < 1e-6
    rng = random.Random(71)
    worst = Fraction(0)
    for _ in range(20):
        lam = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        mu = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        for n in range(0, 6):
            worst = max(worst, phi_check(n, lam, mu))
    ok &= worst < Fraction(1, 10**6)
    assert report(3, ok, f"Gg/FGg spectra at tolerance, phi residual {worst}")


def test_criterion_4_schreier_graphs():
    ok_iso = True
    for name in ("Gg", "FGg"):
        group = builtin(name)
        for n in range(1, 9):
            ok_iso &= substitutional_expand(name, n) == schreier_graph(group, n)
    gg = builtin("Gg")
    ok_diam, ok_series = True, True
    for n in range(1, 11):
        diameter, series = schreier_graph(gg, n).growth()
        ok_diam &= diameter == 2**n - 1
        # the Gg graph is a path on 2^n vertices seen from one end: one
        # vertex at each distance 0..2^n-1, which is prod(1+X^(2^i)) by
        # binary expansion
        expected = growth_series_product([2**i for i in range(n)], 1)
        ok_series &= series == expected
    # the ternary FGg graph has the coefficient-2 series, summing to 3^n
    fgg_series = schreier_graph(builtin("FGg"), 4).growth()[1]
    ok_fgg = fgg_series == growth_series_product([2**i for i in range(4)], 2)
    detail = (f"substitution==direct: {ok_iso}, Gg diameter 2^n-1: {ok_diam}, "
              f"Gg series prod(1+X^(2^i)): {ok_series}, "
              f"FGg@4 series prod(1+2X^(2^i)): {ok_fgg}")
    report(4, ok_iso and ok_diam and ok_series and ok_fgg, detail)
    assert ok_iso and ok_diam
    assert ok_series
    assert ok_fgg


def test_criterion_5_lower_central_and_rigid():
    gg = builtin("Gg")
    rozhkov = [3, 2, 2, 1, 2, 2, 1, 1, 2]
    # gamma_k(G_n) is the image of gamma_k(G), so a level quotient can
    # only truncate Rozhkov's ranks: level 5 is one rank short at k = 9
    # (matched by test_quotients.py::test_gg_level5_ranks_sympy_oracle)
    truncated5 = [3, 2, 2, 1, 2, 2, 1, 1, 1]
    ranks5 = lower_central_ranks(gg, 5, 9)
    ranks6 = lower_central_ranks(gg, 6, 9)
    ranks7 = lower_central_ranks(gg, 7, 9)
    ok_ranks5 = ranks5 == truncated5
    ok_stable = ranks6 == rozhkov and ranks7 == rozhkov
    ok_class = all(nilpotency_class(gg, n) == 2 ** (n - 1) for n in (3, 4, 5))
    ok_index = True
    for n in (3, 4, 5):
        orders = derived_series_orders(level_quotient(gg, n), 1)
        ok_index &= orders[0] // orders[1] == 8
    n_k = GgConjugacy.instance().n_k
    rist_indices = {n: rigid_level_stabilizer(gg, n, 1).index()
                    for n in range(n_k, 7)}
    # at level n_K = 3 the level-1 stabilizer is the product of the two
    # rigid vertex stabilizers (index 2; matched by
    # test_quotients.py::test_gg_level3_rigid_index_brute_force); the
    # index is 16 from level n_K + 1 on
    ok_rist = (rist_indices[n_k] == 2
               and all(rist_indices[n] == 16 for n in range(n_k + 1, 7)))
    detail = (f"ranks@5 {ranks5} ({'ok' if ok_ranks5 else 'FAIL'}), "
              f"Rozhkov@6,7 {ok_stable}, class {ok_class}, "
              f"[G:G']=8 {ok_index}, rist idx {rist_indices}")
    report(5, ok_ranks5 and ok_stable and ok_class and ok_index and ok_rist,
           detail)
    assert ok_stable and ok_class and ok_index
    assert ok_ranks5
    assert ok_rist


def test_criterion_6_orders_and_torsion():
    gg = builtin("Gg")
    ok = True
    for s in "abcd":
        ok &= order(gg, s).value == 2
    ok &= order(gg, "ad").value == 4
    ok &= order(gg, "ab").value == 16
    # verified independently by permutation order at stabilized levels
    from branchgroups.automorphisms import perm_order

    stab = [perm_order(tuple(int(x) for x in level_quotient(gg, n).perm_of_word("ab")))
            for n in (4, 5, 6)]
    ok &= stab[-1] == stab[-2] == 16

    for w in ball(gg, 8):
        res = order(gg, w)
        ok &= res.kind == "finite" and (res.value & (res.value - 1)) == 0

    res = order(builtin("BGg"), "ta'")
    ok &= res.kind == "infinite"

    for exponents in ((1, 0), (1, 1), (1, 2)):
        vec = GGSVector(3, exponents)
        claims_torsion = is_ggs_torsion(vec)
        group = from_ggs(vec)
        rng = random.Random(73)
        found_infinite = False
        all_finite = True
        for _ in range(40):
            w = Word(random_reduced_word(group, rng.randint(1, 4), rng), True)
            res = order(group, w, bound=3**9)
            if res.kind == "infinite":
                found_infinite = True
                all_finite = False
            elif res.kind != "finite":
                all_finite = False
        ok &= claims_torsion == all_finite
        if not claims_torsion:
            ok &= found_infinite
    assert report(6, ok, "generator orders, ball(8) 2-power orders, "
                        "BGg certificate, GGS torsion agreement")


def test_criterion_7_presentations():
    results = {}
    for name, depth in (("lysionok", 6), ("gg_ascending", 6), ("sg", 4),
                        ("fgg", 4), ("gsg", 4), ("bsv", 4)):
        pres, gname, amap = presentation(name)
        rep = verify(pres, builtin(gname), depth, amap)
        results[name] = (rep.ok, rep.total, len(rep.failures))

    rng = random.Random(79)
    gg = builtin("Gg")
    pres, _, amap = presentation("gg_ascending")
    relators = pres.expand(2)
    total, nontrivial = 0, 0
    for rel in relators:
        for _ in range(10):
            pos = rng.randrange(len(rel))
            mutated = mutate_relator(rel, pos, pres.alphabet, rng.randrange(2))
            total += 1
            if not is_trivial(gg, translate(mutated, gg, amap)):
                nontrivial += 1
    control = nontrivial / total
    ok_control = control >= 0.95
    ok_all = all(r[0] for r in results.values()) and ok_control
    detail = ", ".join(
        f"{k}:{'ok' if v[0] else f'{v[2]}/{v[1]} FAIL'}" for k, v in results.items()
    ) + f", mutation control {control:.2%}"
    report(7, ok_all, detail)
    for name in results:
        assert results[name][0], name
    assert ok_control


def test_criterion_8_conjugacy():
    gg = builtin("Gg")
    rng = random.Random(83)
    ok = len(q_set("1", "1")) == 16
    for _ in range(200):
        g = random_reduced_word(gg, rng.randint(1, 8), rng)
        f = random_reduced_word(gg, rng.randint(0, 6), rng)
        h = gg.reduce(gg.inverse_word(f) + g + f)
        qs = q_set(Word(g, True), Word(h, True))
        ok &= bool(qs) and coset_of(Word(f, True)) in qs

    q6 = level_quotient(gg, 6)

    def cycle_type(p):
        seen = np.zeros(len(p), dtype=bool)
        out = []
        for i in range(len(p)):
            if seen[i]:
                continue
            c, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = int(p[j])
                c += 1
            out.append(c)
        return tuple(sorted(out))

    negatives = 0
    while negatives < 200:
        g = Word(random_reduced_word(gg, rng.randint(1, 8), rng), True)
        h = Word(random_reduced_word(gg, rng.randint(1, 8), rng), True)
        if cycle_type(q6.perm_of_word(g)) == cycle_type(q6.perm_of_word(h)):
            continue
        negatives += 1
        ok &= not q_set(g, h)
    assert report(8, ok, "200 conjugate pairs with witness cosets, "
                        "200 separated pairs non-conjugate, Q(1,1) full")


def test_criterion_9_property_suites():
    results = {}
    results["contraction"] = check_contraction(
        ["Gg", "Sg", "FGg", "BGg", "GSg", "G2"], cases=1000, seed=901)
    results["3/4"] = check_shortening(3 / 4, 8.0, cases=1000, seed=907)[0]
    results["2/3"] = check_shortening(2 / 3, 24.0, strict=True,
                                      cases=1000, seed=911)[0]
    results["eta"] = check_eta_shortening(cases=1000, seed=919)
    results["portrait"] = check_portrait_depth_bound(cases=1000, seed=929)
    results["action"] = check_right_action_laws(cases=1000, seed=937)
    results["confluence"] = check_reduce_confluence(cases=1000, seed=941)
    ok = all(v == 0 for v in results.values())
    assert report(9, ok, f"failures: {results}")


def test_criterion_10_suborbits():
    ok = True
    gg = builtin("Gg")
    for n in range(1, 9):
        prof = suborbit_profile(gg, n)
        ok &= len(prof) == n + 1 and sum(prof) == 2**n
    fgg = builtin("FGg")
    for n in range(1, 6):
        ok &= len(suborbit_profile(fgg, n)) == 2 * n + 1
    assert report(10, ok, "Gg: n+1 suborbits summing to 2^n (n<=8); "
                         "FGg: 2n+1 (n<=5)")
