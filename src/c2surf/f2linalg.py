"""Bit-packed linear algebra over GF(2) and small cellular chain complexes.

Ranks of boundary matrices give mod-2 Betti numbers, independently of
any closed Betti formula; the tests check them on hand-built
Delta-complexes (torus, RP^2, sphere, ...) whose Betti numbers are
textbook values.  Matrices store one Python int per row, so a row is an
arbitrary-width bitset and row reduction runs on machine words.

``rank`` never mutates its input (rows are immutable ints).
"""

from __future__ import annotations

from .surfaces import SingProfile


class F2Matrix:
    """A rows x cols matrix over GF(2); bit j of ``data[i]`` is entry (i, j)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[int] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if data is None:
            data = [0] * rows
        if len(data) != rows:
            raise ValueError(f"expected {rows} rows, got {len(data)}")
        mask = (1 << cols) - 1
        for r in data:
            if r < 0 or r & ~mask:
                raise ValueError("row data does not fit the declared width")
        self.rows = rows
        self.cols = cols
        self.data = list(data)

    @classmethod
    def from_rows(cls, rows: list[list[int]], cols: int | None = None) -> "F2Matrix":
        width = cols if cols is not None else (len(rows[0]) if rows else 0)
        packed = []
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            packed.append(sum((1 & v) << j for j, v in enumerate(row)))
        return cls(len(rows), width, packed)

    def rank(self) -> int:
        """Rank over GF(2) by word-level elimination; the input is untouched."""
        pivots: dict[int, int] = {}
        for row in self.data:
            cur = row
            while cur:
                low = cur & -cur
                pivot = pivots.get(low)
                if pivot is None:
                    pivots[low] = cur
                    break
                cur ^= pivot
        return len(pivots)

    def mul(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = []
        for arow in self.data:
            acc = 0
            rem = arow
            while rem:
                low = rem & -rem
                acc ^= other.data[low.bit_length() - 1]
                rem ^= low
            out.append(acc)
        return F2Matrix(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.data)


class ChainComplex:
    """A two-step cellular chain complex over GF(2).

    ``d1`` is vertices x edges, ``d2`` is edges x faces; the composite
    must vanish, which is checked at construction.
    """

    __slots__ = ("d1", "d2")

    def __init__(self, d1: F2Matrix, d2: F2Matrix):
        if d1.cols != d2.rows:
            raise ValueError("boundary maps are not composable")
        if not d1.mul(d2).is_zero():
            raise ValueError("d1 o d2 != 0")
        self.d1 = d1
        self.d2 = d2


def betti_f2(c: ChainComplex) -> SingProfile:
    """Mod-2 Betti numbers: h_i = (number of i-cells) - rank d_i - rank d_{i+1}.

    Over a field, cohomology and homology ranks agree, so these are also
    the dimensions of H^i(-; Z/2).
    """
    r1, r2 = c.d1.rank(), c.d2.rank()
    return SingProfile(c.d1.rows - r1, c.d1.cols - r1 - r2, c.d2.cols - r2)
