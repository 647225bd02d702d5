from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from oracles import one_sided_hausdorff
from test_groups import BUILTINS, _d6_spinal

from branchgroups import spectra
from branchgroups.cli import parse_group_file
from branchgroups.groups import builtin
from branchgroups.spectra import (
    bareiss_determinant,
    bgg_reference,
    delta_matrix,
    fgg_reference,
    gg_closed_form,
    julia_set_approx,
    phi_check,
    phi_values,
    spectral_report,
    spectrum_eigenvalues,
)


def jacobi_eigenvalues(matrix: np.ndarray, tol: float = 1e-12,
                       max_sweeps: int = 64) -> np.ndarray:
    """Cyclic Jacobi eigenvalue iteration for small symmetric matrices.

    Test-only cross-check of the LAPACK route at small sizes; O(n^3)
    per sweep, so only used for matrices up to a few dozen rows.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < tol / (n * n):
                    continue
                theta = (a[q, q] - a[p, p]) / (2 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1))
                if theta == 0:
                    t = 1.0
                c = 1 / np.sqrt(t * t + 1)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def test_delta_one_is_3i_plus_a():
    m = delta_matrix(builtin("Gg"), 1)
    assert np.array_equal(m, np.array([[3.0, 1.0], [1.0, 3.0]]))
    assert list(spectrum_eigenvalues(builtin("Gg"), 1)) == [2.0, 4.0]


# a binary root over ternary levels, and a ternary group whose root
# permutation is a transposition (its local permutations are no rotations)
MIXED_FILE = "group M\narity seq 2 3 cycle 1\nrooted a = (1 2)\n"
TRANSPOSITION_FILE = "group T\narity 3\nrooted a = (1 2)\nrecursive b = (a, 1, b)\n"


@pytest.mark.parametrize("make", [lambda name=name: builtin(name) for name in BUILTINS] + [
    _d6_spinal, lambda: parse_group_file(MIXED_FILE),
    lambda: parse_group_file(TRANSPOSITION_FILE)], ids=[*BUILTINS, "D6", "mixed", "transposition"])
def test_spectrum_matches_dense_oracle(monkeypatch, make):
    # levels 0-5 up to 3,125 vertices: GS7's level 5 (16,807 vertices)
    # would need a 2.2 GB dense oracle
    group = make()
    calls = []

    def spy(*args):
        calls.append(args)
        return delta_matrix(*args)

    previous = None
    for n in range(6):
        if group.shape.level_size(n) > 3125:
            break
        dense = np.linalg.eigvalsh(delta_matrix(group, n))
        monkeypatch.setattr(spectra, "delta_matrix", spy)
        eigs = spectrum_eigenvalues(group, n)
        monkeypatch.undo()
        assert len(eigs) == len(dense)
        assert np.max(np.abs(eigs - dense)) < 1e-12 * len(group.canonical_letters), n
        if previous is not None:
            assert Counter(previous.tolist()) <= Counter(eigs.tolist()), n
        previous = eigs
    assert calls == []


def test_row_sums_are_degree():
    for name in ("Gg", "FGg", "GSg"):
        g = builtin(name)
        m = delta_matrix(g, 3)
        assert np.allclose(m.sum(axis=1), len(g.canonical_letters))


def test_gg_closed_form_matches():
    gg = builtin("Gg")
    for n in range(1, 7):
        eigs = spectrum_eigenvalues(gg, n)
        ref = gg_closed_form(n)
        assert len(eigs) == 2**n == len(ref)
        assert np.max(np.abs(eigs - ref)) < 1e-9
        in_bands = ((eigs >= -2 - 1e-9) & (eigs <= 1e-9)) | (
            (eigs >= 2 - 1e-9) & (eigs <= 4 + 1e-9)
        )
        assert bool(np.all(in_bands))


def test_gg_spectrum_nested():
    # every level-n eigenvalue appears at level n+1
    gg = builtin("Gg")
    for n in (2, 3, 4):
        a = spectrum_eigenvalues(gg, n)
        b = spectrum_eigenvalues(gg, n + 1)
        assert one_sided_hausdorff(a, b) < 1e-9


def test_identity_generators_spectrum():
    # a generating set acting trivially at the level gives |S| with full
    # multiplicity: the Gg generators at level 0
    m = delta_matrix(builtin("Gg"), 0)
    assert m.shape == (1, 1) and m[0, 0] == 4.0


def test_julia_approx():
    d1 = julia_set_approx(6.0, 1)
    assert np.allclose(sorted(d1), [-np.sqrt(6), np.sqrt(6)])
    d3 = julia_set_approx(6.0, 3)
    bound = np.sqrt(6 + np.sqrt(6 + np.sqrt(6)))
    assert np.all(np.abs(d3) <= bound + 1e-12)
    with pytest.raises(ValueError):
        julia_set_approx(6.0, 0)
    with pytest.raises(ValueError):
        julia_set_approx(-1.0, 2)


def test_fgg_eigenvalues_near_julia_reference():
    fgg = builtin("FGg")
    for n in range(1, 6):
        eigs = spectrum_eigenvalues(fgg, n)
        assert one_sided_hausdorff(eigs, fgg_reference(n)) < 1e-6


def test_bgg_gsg_containment():
    # containment only: finite-level eigenvalues approach the closure of
    # the nested-radical set, so deep cumulative approximants are used
    for name in ("BGg", "GSg"):
        g = builtin(name)
        for n in (2, 3, 4):
            eigs = spectrum_eigenvalues(g, n)
            assert one_sided_hausdorff(eigs, bgg_reference(n, depth=16)) < 1e-6


def test_jacobi_cross_check():
    gg = builtin("Gg")
    for n in (2, 3):
        m = delta_matrix(gg, n)
        assert np.max(np.abs(jacobi_eigenvalues(m) - np.linalg.eigvalsh(m))) < 1e-9


def test_phi_recursion_base_cases():
    # Phi_0 = 2 - mu - lambda matches the 1x1 determinant
    assert phi_check(0, Fraction(1, 3), Fraction(2, 7)) == 0
    # the n = 2 determinant from the 4x4 matrix at (1, 0)
    assert phi_check(2, 1, 0) == 0
    for n in range(1, 6):
        for lam, mu in ((Fraction(-2, 3), Fraction(1, 5)), (Fraction(7, 2), Fraction(-3, 4))):
            assert phi_check(n, lam, mu) == 0, (n, lam, mu)


def test_phi_at_lambda_minus_one_gives_char_poly():
    # Q_n(-1, theta-1) = Delta_n - theta: its roots are spec(Delta_n)
    for n in range(1, 6):
        for theta in (4, 2):
            assert phi_check(n, -1, theta - 1) == 0
            prod = 1
            for phi in phi_values(n, Fraction(-1), Fraction(theta - 1)):
                prod *= phi
            assert prod == 0  # theta is an eigenvalue


def test_bareiss():
    m = [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]]
    assert bareiss_determinant(m) == 1
    assert bareiss_determinant([[Fraction(0)]]) == 0


def test_delta_matrix_matches_vertex_action():
    for name in ("Gg", "FGg", "BSV"):
        g = builtin(name)
        for n in range(4):
            verts = g.shape.vertices(n)
            index = {v: i for i, v in enumerate(verts)}
            expected = np.zeros((len(verts), len(verts)))
            for letter in g.canonical_letters:
                state = g.state_of_letter(letter)
                for i, v in enumerate(verts):
                    expected[i, index[state.act(v)]] += 1.0
            assert np.array_equal(delta_matrix(g, n), expected), (name, n)


def test_spectral_report_reference_by_group():
    assert spectral_report("Sg", 2).reference is None
    for name, reference in (("Gg", gg_closed_form), ("FGg", fgg_reference),
                            ("BGg", bgg_reference), ("GSg", bgg_reference)):
        rep = spectral_report(name, 2)
        assert np.array_equal(rep.reference, reference(2))
        assert len(rep.matched) == len(rep.eigenvalues)


def test_spectral_report_csv():
    rep = spectral_report("Gg", 3)
    assert rep.max_deviation < 1e-9
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "level,index,eigenvalue,closed_form_match"
    assert len(lines) == 1 + 8
    assert csv == spectral_report("Gg", 3).to_csv()
