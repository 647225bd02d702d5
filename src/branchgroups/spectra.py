"""Hecke-Laplace operators of level actions and their spectra.

Delta_n is the sum of the permutation matrices of the canonical
generators on level n (symmetric because the generating set is closed
under inversion), read from the generators' level permutations
(`LevelQuotient.perm_of_state`), the same action the Schreier graphs are
built from.  Eigenvalues are compared against the closed forms:
for the first Grigorchuk group

    spec(Delta_n) = {1 +- sqrt(5 - 4 cos(2 pi j / 2^n))} \\ {0, -2},

with all 2^n eigenvalues simple, and for the Fabrykowski-Gupta group the
spectrum lies in {4, 1} union 1 + J(6) with J the nested-radical set
+-sqrt(6 +- sqrt(6 +- ...)).

The determinant identity |Q_n(lambda, mu)| = Phi_0 Phi_1 ... Phi_n for
Q_n = Delta_n - (lambda+1) a_n - (mu+1) is checked in exact rational
arithmetic (fraction-free Bareiss elimination), so the residual of a
correct implementation is exactly zero.  Q_n is built from the float
Delta_n, whose entries are small integers and so exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .groups import GroupDefinition, builtin
from .quotients import level_quotient


def delta_matrix(group: GroupDefinition, level: int) -> np.ndarray:
    """Delta_n = sum of the generator permutation matrices on level n."""
    quotient = level_quotient(group, level)
    mat = np.zeros((quotient.degree, quotient.degree), dtype=np.float64)
    idx = np.arange(quotient.degree)
    for letter in group.canonical_letters:
        mat[idx, quotient.perm_of_state(group.state_of_letter(letter))] += 1.0
    return mat


def spectrum_eigenvalues(group: GroupDefinition, level: int) -> np.ndarray:
    """Sorted eigenvalues of Delta_n (dense symmetric eigensolver)."""
    return np.linalg.eigvalsh(delta_matrix(group, level))


@dataclass
class SpectralReport:
    """Eigenvalues of Delta_n with the closed-form comparison."""

    group_name: str
    level: int
    eigenvalues: np.ndarray
    reference: Optional[np.ndarray] = None
    max_deviation: Optional[float] = None
    matched: Optional[List[bool]] = field(default=None)

    def to_csv(self) -> str:
        lines = ["level,index,eigenvalue,closed_form_match"]
        for i, ev in enumerate(self.eigenvalues):
            m = "" if self.matched is None else str(self.matched[i]).lower()
            lines.append(f"{self.level},{i},{ev:.12f},{m}")
        return "\n".join(lines) + "\n"


def gg_closed_form(level: int) -> np.ndarray:
    """{1 +- sqrt(5 - 4 cos(2 pi j / 2^n))} without 0 and -2, sorted.

    All 2^n eigenvalues of the level-n operator are simple: 4 and 2 from
    the excluded-endpoint angles, and both branches for j = 1 .. 2^(n-1)-1.
    """
    if level < 1:
        raise ValueError("closed form starts at level 1")
    values = [4.0, 2.0]
    for j in range(1, 2 ** (level - 1)):
        root = math.sqrt(5.0 - 4.0 * math.cos(2.0 * math.pi * j / 2**level))
        values.append(1.0 + root)
        values.append(1.0 - root)
    return np.sort(np.array(values))


def julia_set_approx(lam: float, depth: int) -> np.ndarray:
    """Depth-d approximants of J(lam): +-sqrt(lam +- sqrt(lam +- ...)).

    All sign choices with d nested radicals, real branches only (negative
    radicands are discarded).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    inner = [0.0]
    for _ in range(depth):
        nxt = set()
        for s in inner:
            for signed in (lam + s, lam - s):
                if signed >= 0:
                    r = math.sqrt(signed)
                    nxt.add(r)
                    nxt.add(-r)
        inner = sorted(nxt)
    return np.array(inner)


def julia_set_cumulative(lam: float, depth: int) -> np.ndarray:
    """Union of the approximants of all depths up to `depth`.

    The nested-radical set is a closure, so its finite approximation
    accumulates across depths: a shallow value like sqrt(lam) belongs to
    every stage but is not itself a deep sign-choice evaluation.
    """
    vals = set()
    for d in range(1, depth + 1):
        vals.update(float(x) for x in julia_set_approx(lam, d))
    return np.array(sorted(vals))


def fgg_reference(level: int, depth: Optional[int] = None) -> np.ndarray:
    """{4, 1} union 1 + J(6) depth-approximants (cumulative) for the
    Fabrykowski-Gupta group."""
    depth = depth if depth is not None else max(1, level)
    vals = {4.0, 1.0}
    vals.update(1.0 + j for j in julia_set_cumulative(6.0, depth))
    return np.sort(np.array(sorted(vals)))


def bgg_reference(level: int, depth: Optional[int] = None) -> np.ndarray:
    """{4, -2, 1} union 1 +- sqrt(9/2 +- 2 J(45/16)); containment-only
    reference for the Bartholdi-Grigorchuk and Gupta-Sidki graphs."""
    depth = depth if depth is not None else max(1, level)
    vals = {4.0, -2.0, 1.0}
    for j in julia_set_cumulative(45.0 / 16.0, depth):
        for inner in (4.5 + 2.0 * j, 4.5 - 2.0 * j):
            if inner >= 0:
                r = math.sqrt(inner)
                vals.add(1.0 + r)
                vals.add(1.0 - r)
    return np.sort(np.array(sorted(vals)))


def one_sided_hausdorff(values: np.ndarray, reference: np.ndarray) -> float:
    """max over values of the distance to the nearest reference point."""
    ref = np.sort(reference)
    pos = np.searchsorted(ref, values)
    best = np.full(len(values), np.inf)
    for shift in (-1, 0):
        idx = np.clip(pos + shift, 0, len(ref) - 1)
        best = np.minimum(best, np.abs(values - ref[idx]))
    return float(best.max())


# closed-form or containment references, by group name
_REFERENCES = {
    "Gg": gg_closed_form,
    "FGg": fgg_reference,
    "BGg": bgg_reference,
    "GSg": bgg_reference,
}


def spectral_report(group_or_name, level: int) -> SpectralReport:
    """Compute the spectrum and compare against the reference its group
    has in `_REFERENCES`, if any."""
    group = builtin(group_or_name) if isinstance(group_or_name, str) else group_or_name
    eigs = spectrum_eigenvalues(group, level)
    report = SpectralReport(group.name, level, eigs)
    reference = _REFERENCES.get(group.name)
    if reference is not None:
        ref = report.reference = reference(level)
        if group.name == "Gg" and len(ref) == len(eigs):
            report.max_deviation = float(np.max(np.abs(eigs - ref)))
            report.matched = [True] * len(eigs)
        else:
            dists = [float(np.min(np.abs(ref - ev))) for ev in eigs]
            report.max_deviation = max(dists)
            report.matched = [d < 1e-6 for d in dists]
    return report


# -- the Phi-polynomial determinant identity ------------------------------


def bareiss_determinant(matrix: List[List[Fraction]]) -> Fraction:
    """Fraction-free Bareiss elimination (exact)."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    m = [row[:] for row in matrix]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def phi_values(n: int, lam: Fraction, mu: Fraction) -> List[Fraction]:
    """Phi_0..Phi_n of the determinant recursion at (lambda, mu)."""
    out = [Fraction(2) - mu - lam]
    if n >= 1:
        out.append(Fraction(2) - mu + lam)
    if n >= 2:
        out.append(mu * mu - 4 - lam * lam)
    for k in range(3, n + 1):
        out.append(out[-1] ** 2 - 2 * (2 * lam) ** (2 ** (k - 2)))
    return out


def q_matrix(n: int, lam: Fraction, mu: Fraction) -> List[List[Fraction]]:
    """Q_n = Delta_n - (lambda+1) a_n - (mu+1) I over the rationals."""
    gg = builtin("Gg")
    a_images = level_quotient(gg, n).perm_of_state(gg.states["a"])
    out = [[Fraction(int(x)) for x in row] for row in delta_matrix(gg, n)]
    for i, row in enumerate(out):
        row[int(a_images[i])] -= lam + 1
        row[i] -= mu + 1
    return out


def phi_check(n: int, lam, mu) -> Fraction:
    """|det Q_n(lambda, mu) - Phi_0 ... Phi_n|, computed exactly."""
    lam = Fraction(lam)
    mu = Fraction(mu)
    det = bareiss_determinant(q_matrix(n, lam, mu))
    prod = Fraction(1)
    for phi in phi_values(n, lam, mu):
        prod *= phi
    return abs(det - prod)
