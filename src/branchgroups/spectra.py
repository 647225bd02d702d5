"""Hecke-Laplace operators of level actions and their spectra.

Delta_n is the sum of the permutation matrices of the canonical
generators on level n (symmetric because the generating set is closed
under inversion), read from the generators' level permutations
(`LevelQuotient.perm_of_state`), the same action the Schreier graphs are
built from.  Its spectrum is computed level by level (Bartholdi and
Grigorchuk, "On the spectrum of Hecke type operators related to some
fractal groups", 2000): the functions on level k-1 are the functions on
level k that are constant on each set of siblings, so Delta_k splits
into Delta_{k-1} and its restriction to the functions that sum to zero
over each set of siblings.  Each such block has (m-1)/m of level k's
vertices as rows, m the number of children of a level-(k-1) vertex, and
goes to a dense symmetric eigensolver; the whole Delta_n is never built.
Level k's block is solved once per process and its eigenvalues are kept
on level k's quotient, so the spectrum of level n is the kept blocks of
levels n..1 and |S|.
Eigenvalues are compared against the closed forms:
for the first Grigorchuk group

    spec(Delta_n) = {1 +- sqrt(5 - 4 cos(2 pi j / 2^n))} \\ {0, -2},

with all 2^n eigenvalues simple, and for the Fabrykowski-Gupta group the
spectrum lies in {4, 1} union 1 + J(6) with J the nested-radical set
+-sqrt(6 +- sqrt(6 +- ...)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import ResourceBoundExceeded
from .groups import GroupDefinition, builtin
from .quotients import check_level_degree, level_quotient

# most bytes the largest sum-zero block of a spectrum (level n's) may take
SPECTRUM_BLOCK_BYTES_CAP = 1 << 30


def delta_matrix(group: GroupDefinition, level: int) -> np.ndarray:
    """Delta_n = sum of the generator permutation matrices on level n."""
    quotient = level_quotient(group, level)
    mat = np.zeros((quotient.degree, quotient.degree), dtype=np.float64)
    idx = np.arange(quotient.degree)
    for letter in group.canonical_letters:
        mat[idx, quotient.perm_of_state(letter)] += 1.0
    return mat


def _helmert(m: int):
    """Integer Helmert basis of the sum-zero vectors of R^m and its squared
    norms: column j-1 is (1, ..., 1, -j, 0, ..., 0) with j ones, of squared
    norm j(j+1)."""
    basis = np.zeros((m, m - 1), dtype=np.int64)
    for j in range(1, m):
        basis[:j, j - 1] = 1
        basis[j, j - 1] = -j
    return basis, np.arange(1, m) * np.arange(2, m + 1)


def _block_eigenvalues(group: GroupDefinition, k: int) -> np.ndarray:
    """Eigenvalues of level k's sum-zero block (k >= 1), solved once and
    kept, read-only, on level k's quotient.

    Vertex u*m + x of level k is child x of vertex u of level k-1, so a
    generator's level-k image pi moves u to pi(u*m) div m and permutes
    its children by sigma_u(x) = pi(u*m + x) mod m.  In the orthonormal
    Helmert basis H of the sum-zero vectors of each sibling set, the
    generator adds H^T P_sigma_u H at block (u, pi(u*m) div m), and the
    block goes to a dense symmetric eigensolver.  The blocks are integer
    matrices scaled by 1/sqrt(j(j+1) j'(j'+1)), so they are exactly
    symmetric, and on binary levels their entries are integers.

    Raises ResourceBoundExceeded, before anything is allocated, when the
    block would take more than SPECTRUM_BLOCK_BYTES_CAP bytes.
    """
    m = group.shape.branching(k - 1)
    parents = group.shape.level_size(k - 1)
    rows = (m - 1) * parents
    if 8 * rows * rows > SPECTRUM_BLOCK_BYTES_CAP:
        raise ResourceBoundExceeded(
            f"the level-{k} spectrum block of {rows} rows takes {8 * rows * rows} "
            f"bytes, more than {SPECTRUM_BLOCK_BYTES_CAP}, the bound on a spectrum block "
            "(spectra.SPECTRUM_BLOCK_BYTES_CAP)")
    quotient = level_quotient(group, k)

    def solve():
        helmert, norms = _helmert(m)
        norm = np.sqrt(np.outer(norms, norms))
        span = np.arange(parents)
        block = np.zeros((parents, m - 1, parents, m - 1))
        for letter in group.canonical_letters:
            children = quotient.perm_of_state(letter).reshape(parents, m)
            local = np.einsum("xi,uxj->uij", helmert, helmert[children % m])
            block[span, :, children[:, 0] // m, :] += local / norm
        eigs = np.linalg.eigvalsh(block.reshape(rows, rows))
        eigs.setflags(write=False)
        return eigs

    return quotient.kept("spectrum block", solve)


def spectrum_eigenvalues(group: GroupDefinition, level: int) -> np.ndarray:
    """Sorted eigenvalues of Delta_n: |S| (Delta_0's) and the sum-zero
    block of every level n..1, each solved once per process.

    Raises ResourceBoundExceeded, before anything is allocated, when the
    level passes `quotients.LEVEL_DEGREE_CAP` or level n's block would
    take more than SPECTRUM_BLOCK_BYTES_CAP bytes.
    """
    check_level_degree(group, level)
    parts = [np.array([float(len(group.canonical_letters))])]
    parts += [_block_eigenvalues(group, k) for k in range(level, 0, -1)]
    return np.sort(np.concatenate(parts))


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


def julia_set_cumulative(lam: float, depth: int) -> np.ndarray:
    """Union of the approximants of J(lam) of all depths up to `depth`.

    The depth-d approximants are +-sqrt(lam +- sqrt(lam +- ...)) with d
    nested radicals and every sign choice, real branches only (negative
    radicands are discarded), each depth computed from the one before.
    The nested-radical set is a closure, so its finite approximation
    accumulates across depths: a shallow value like sqrt(lam) belongs to
    every stage but is not itself a deep sign-choice evaluation.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    values = set()
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
        values |= nxt
    return np.array(sorted(values))


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


# closed-form or containment references, by group name
_REFERENCES = {
    "Gg": gg_closed_form,
    "FGg": fgg_reference,
    "BGg": bgg_reference,
    "GSg": bgg_reference,
}


def spectral_report(group_or_name, level: int) -> SpectralReport:
    """Compute the spectrum and compare it, from level 1 on, against the
    reference of its group in `_REFERENCES`, if any.  A reference belongs
    to the built-in group object itself: a group file that takes a
    built-in's name is compared with nothing."""
    group = builtin(group_or_name) if isinstance(group_or_name, str) else group_or_name
    eigs = spectrum_eigenvalues(group, level)
    report = SpectralReport(group.name, level, eigs)
    reference = _REFERENCES.get(group.name)
    if reference is not None and level >= 1 and builtin(group.name) is group:
        ref = report.reference = reference(level)
        if group.name == "Gg":
            # the closed form lists every eigenvalue once, in order
            dists = [float(d) for d in np.abs(eigs - ref)]
        else:
            dists = [float(np.min(np.abs(ref - ev))) for ev in eigs]
        report.max_deviation = max(dists)
        report.matched = [d < 1e-6 for d in dists]
    return report

