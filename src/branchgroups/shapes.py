"""Spherically homogeneous tree shapes and vertices.

A tree shape is an eventually periodic sequence of branching indices
(prefix + repeating cycle).  Vertices are finite words; the letter at
position i ranges over {1, ..., m_i}.  Internally letters are 0-based;
the 1-based convention is used at the I/O boundary only.
"""

from __future__ import annotations

from typing import Iterable, Tuple

_SHAPE_CACHE: dict[tuple, "TreeShape"] = {}


class TreeShape:
    """Eventually periodic branching sequence, interned so equal shapes are identical.

    Equality and hashing are by identity, which interning makes exact.
    """

    __slots__ = ("prefix", "cycle", "_below")

    def __new__(cls, prefix: Iterable[int] = (), cycle: Iterable[int] = (2,)):
        prefix = tuple(prefix)
        cycle = tuple(cycle)
        if not cycle:
            raise ValueError("branching cycle must be nonempty")
        for m in prefix + cycle:
            if not isinstance(m, int) or m < 2:
                raise ValueError("every branching index must be an integer >= 2")
        # normalize: absorb prefix entries that coincide with the tail of the cycle
        while prefix and prefix[-1] == cycle[-1]:
            prefix = prefix[:-1]
            cycle = cycle[-1:] + cycle[:-1]
        # collapse a cycle that is a repetition of a shorter one
        for d in range(1, len(cycle)):
            if len(cycle) % d == 0 and cycle == cycle[:d] * (len(cycle) // d):
                cycle = cycle[:d]
                break
        key = (prefix, cycle)
        cached = _SHAPE_CACHE.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "_below", None)  # shift(1), filled on first use
        return _SHAPE_CACHE.setdefault(key, self)

    def __setattr__(self, name, value):
        raise AttributeError("TreeShape is immutable")

    def __repr__(self):
        if not self.prefix and len(self.cycle) == 1:
            return f"TreeShape(regular={self.cycle[0]})"
        return f"TreeShape(prefix={self.prefix}, cycle={self.cycle})"

    @staticmethod
    def regular(m: int) -> "TreeShape":
        return TreeShape((), (m,))

    def branching(self, level: int) -> int:
        """Branching index m_{level+1}: number of children of a level-`level` vertex."""
        if level < len(self.prefix):
            return self.prefix[level]
        return self.cycle[(level - len(self.prefix)) % len(self.cycle)]

    def shift(self, n: int = 1) -> "TreeShape":
        """Shape of the subtree hanging below a level-n vertex."""
        shape = self
        for _ in range(n):
            below = shape._below
            if below is None:
                if shape.prefix:
                    below = TreeShape(shape.prefix[1:], shape.cycle)
                else:
                    below = TreeShape((), shape.cycle[1:] + shape.cycle[:1])
                object.__setattr__(shape, "_below", below)
            shape = below
        return shape

    def period(self) -> int:
        """Number of shifts after which the shape repeats (prefix exhausted)."""
        return len(self.cycle)

    def level_size(self, n: int) -> int:
        """Number of vertices at level n: m_1 * ... * m_n."""
        size = 1
        for i in range(n):
            size *= self.branching(i)
        return size

    def check_vertex(self, letters: Tuple[int, ...]) -> None:
        """Validate a 0-based letter sequence against this shape."""
        for i, y in enumerate(letters):
            if not 0 <= y < self.branching(i):
                raise ValueError(
                    f"letter {y + 1} at position {i + 1} out of range 1..{self.branching(i)}"
                )

    def vertices(self, n: int):
        """All level-n vertices (0-based letter tuples) in lexicographic order."""
        words = [()]
        for i in range(n):
            m = self.branching(i)
            words = [w + (y,) for w in words for y in range(m)]
        return words


def parse_vertex(text: str) -> Tuple[int, ...]:
    """Parse a vertex given as digit string '212' or dotted '2.1.2' (1-based)."""
    text = text.strip()
    if not text:
        return ()
    parts = text.split(".") if "." in text else list(text)
    letters = []
    for p in parts:
        if not p.isdigit() or int(p) < 1:
            raise ValueError(f"bad vertex letter {p!r}")
        letters.append(int(p) - 1)
    return tuple(letters)


def format_vertex(letters: Tuple[int, ...]) -> str:
    """Inverse of parse_vertex; uses dots when any branching index exceeds 9."""
    if any(y >= 9 for y in letters):
        return ".".join(str(y + 1) for y in letters)
    return "".join(str(y + 1) for y in letters)
