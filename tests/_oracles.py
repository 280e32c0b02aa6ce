"""Shared independent oracles and golden data for the test suite.

Everything here is deliberately naive: the point is that these paths
share no code with the implementations they check.
"""

from __future__ import annotations

import random

from c2surf.bigraded import Bidegree
from c2surf.checks import Violation


def naive_rank(rows: list[list[int]]) -> int:
    """Textbook O(n^3) Gaussian elimination over GF(2) on list-of-lists."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col] % 2 == 1:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(n_rows):
            if r != rank and m[r][col] % 2 == 1:
                m[r] = [(a + b) % 2 for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def naive_forgetful_les(d, sing, window) -> list[Violation]:
    """The forgetful-sequence rank identity swept bidegree by bidegree,
    each side read from ``Decomposition.dim_at``/``rank_at``.  It shares
    only the per-module functions (``m2_dim`` and the like) with
    ``check_forgetful_les``, not its cached per-summand tables."""
    out = []
    for b in window.bidegrees():
        expected = sing.at(b.p)
        actual = (d.dim_at(Bidegree(b.p, b.q + 1)) + d.dim_at(b)
                  - d.rank_at(Bidegree(b.p - 1, b.q), "rho")
                  - d.rank_at(b, "rho"))
        if actual != expected:
            out.append(Violation("forgetful-les", str(b), expected, actual))
    return out


def random_matrix(rng: random.Random, max_side: int = 64) -> list[list[int]]:
    rows = rng.randint(0, max_side)
    cols = rng.randint(0, max_side)
    density = rng.choice([0.05, 0.2, 0.5, 0.9])
    return [[1 if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def theta_divided_positions(bound: int = 5) -> set[tuple[int, int]]:
    """Bottom-cone spots of the point module, enumerated from the
    divisibility rules: theta/(rho^i tau^j) lives in (-i, -2 - i - j)."""
    return {(-i, -2 - i - j) for i in range(bound + 1) for j in range(bound + 1)}


# Hand transcriptions of the dot-grid figures for the four basic modules,
# over p in [0, 3] and q from 5 down to -5.
GOLDEN_M2_0_3 = [
    "1111",  # q = 5
    "1111",
    "1111",
    "111.",
    "11..",
    "1...",  # q = 0
    "....",
    "1...",  # q = -2: theta
    "1...",
    "1...",
    "1...",  # q = -5
]
GOLDEN_A0_0_3 = ["1..."] * 11
GOLDEN_A1_0_3 = ["11.."] * 11
GOLDEN_A2_0_3 = ["111."] * 11

# The point module over p, q in [-3, 3]: both cones visible.
GOLDEN_M2_SQUARE = [
    "...1111",  # q = 3
    "...111.",
    "...11..",
    "...1...",  # q = 0
    ".......",
    "...1...",  # q = -2
    "..11...",  # q = -3
]
