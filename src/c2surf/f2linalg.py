"""Bit-packed linear algebra over GF(2) and small cellular chain complexes.

Ranks of boundary matrices give mod-2 Betti numbers, independently of
any closed Betti formula; the tests compare the surface models here with
``surfaces.quotient_sing``.  Matrices store one Python int per row, so a
row is an arbitrary-width bitset and row reduction runs on machine words.

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

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, [1 << i for i in range(n)])

    def entry(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, F2Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data)

    def __repr__(self) -> str:
        return f"F2Matrix({self.rows}x{self.cols})"


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

    @property
    def n_vertices(self) -> int:
        return self.d1.rows

    @property
    def n_edges(self) -> int:
        return self.d1.cols

    @property
    def n_faces(self) -> int:
        return self.d2.cols

    def euler(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces


def betti_f2(c: ChainComplex) -> SingProfile:
    """Mod-2 Betti numbers: h_i = (number of i-cells) - rank d_i - rank d_{i+1}.

    Over a field, cohomology and homology ranks agree, so these are also
    the dimensions of H^i(-; Z/2).
    """
    r1 = c.d1.rank()
    r2 = c.d2.rank()
    return SingProfile(c.n_vertices - r1, c.n_edges - r1 - r2, c.n_faces - r2)


def polygon_model(beta: int) -> ChainComplex:
    """The one-vertex polygon model of a closed surface with h1 = beta.

    Every edge of the 2beta-gon (orientable) or beta-gon word (not)
    appears twice in the attaching word, so both boundary maps vanish
    mod 2 and the Betti numbers are (1, beta, 1).
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return ChainComplex(F2Matrix.zeros(1, beta), F2Matrix.zeros(beta, 1))


def surface_with_boundary_model(beta_closed: int, boundary_circles: int) -> ChainComplex:
    """A cellular model of a compact surface: the closed polygon model with
    ``boundary_circles`` open disks removed.

    Cells for b >= 1 circles: the polygon vertex v, one vertex w_i per
    boundary circle; the closed model's loop edges, one loop edge c_i at
    each w_i, and one arc a_i from v to w_i; a single face whose attaching
    word traverses the polygon word and then each a_i c_i a_i^{-1}.  Mod 2
    the face boundary is the sum of the c_i.
    """
    if beta_closed < 0 or boundary_circles < 0:
        raise ValueError("parameters must be nonnegative")
    if boundary_circles == 0:
        return polygon_model(beta_closed)
    b = boundary_circles
    n_vertices = 1 + b
    n_edges = beta_closed + 2 * b
    d1_rows = [0] * n_vertices
    # Columns: [0, beta) loops at v, [beta, beta+b) arcs, [beta+b, beta+2b) circles.
    for i in range(b):
        arc = beta_closed + i
        d1_rows[0] ^= 1 << arc          # v
        d1_rows[1 + i] ^= 1 << arc      # w_i
    face_col = 0
    for i in range(b):
        face_col ^= 1 << (beta_closed + b + i)
    d1 = F2Matrix(n_vertices, n_edges, d1_rows)
    d2 = F2Matrix(n_edges, 1, [(face_col >> j) & 1 for j in range(n_edges)])
    return ChainComplex(d1, d2)
