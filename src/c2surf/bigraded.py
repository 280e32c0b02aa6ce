"""Bidegree-wise arithmetic for mod-2 Bredon cohomology building blocks.

In RO(C2)-graded Bredon cohomology with constant Z/2 coefficients, the
cohomology of any finite C2-CW complex decomposes, as a module over the
cohomology of a point, into a finite direct sum of shifted copies of two
families:

* ``M2``, the cohomology of a fixed point.  It is nonzero on two cones:
  a *top cone* ``p >= 0, q >= p``, polynomial on the generators rho in
  bidegree (1, 1) and tau in bidegree (0, 1), and a *bottom cone*
  ``p <= 0, q <= p - 2`` consisting of the classes theta/(rho^i tau^j)
  sitting under the element theta in bidegree (0, -2).

* ``A_n``, the cohomology of the n-sphere with the antipodal involution,
  isomorphic to ``tau^{-1} M2 / (rho^{n+1})``: the n+1 full columns
  ``0 <= p <= n``, with tau acting invertibly and rho nilpotent.

Dimensions and generator-multiplication ranks are total functions of the
bidegree (the modules are unbounded in the weight q).  Windows exist only
for rendering and verification sweeps: ``render_grid`` sums, weighted by
multiplicity, one cached table of dimensions per distinct summand and
window, since dimension is additive over the direct sum.

``Bidegree`` and ``Summand`` are ``NamedTuple``s, so they hash and compare
like plain tuples and compare equal to them: ``Bidegree(1, 2) == (1, 2)``.
A ``Decomposition`` is one tuple of ``(summand, count)`` pairs in
``Summand.sort_key`` order.  Construction counts into a plain dict and
sorts once; ``direct_sum`` keeps the left operand's order, and sorts only
when the right one brings a summand the left lacks.

All values are immutable and every operation is a pure function (the
table cache is a thread-safe ``functools.lru_cache``), so the whole module
is safe to use from concurrent threads without locking.

>>> m2_dim(Bidegree(0, 0)), m2_dim(Bidegree(1, 0)), m2_dim(Bidegree(0, -2))
(1, 0, 1)
>>> an_dim(2, Bidegree(2, -7))
1
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple


class Bidegree(NamedTuple):
    """An (p, q) index: p is the topological dimension, q the weight.

    ``+`` and ``-`` are componentwise, not tuple concatenation.
    """

    p: int
    q: int

    def __add__(self, other) -> "Bidegree":
        return Bidegree(self[0] + other[0], self[1] + other[1])

    def __sub__(self, other) -> "Bidegree":
        return Bidegree(self[0] - other[0], self[1] - other[1])

    def __repr__(self) -> str:
        return f"({self.p},{self.q})"


ZERO = Bidegree(0, 0)


# ---------------------------------------------------------------------------
# The point module M2.
#
# Top cone: rho^p tau^(q-p) for p >= 0, q >= p.
# Bottom cone: theta/(rho^i tau^j) in bidegree (-i, -2-i-j), i.e. the
# region p <= 0, q <= p - 2.  The two regions are disjoint.
#
# Every function of a bidegree below reads it by position, so it takes a
# Bidegree or a plain (p, q) tuple alike; the hot paths pass plain tuples,
# which are far cheaper to build than a Bidegree.


def m2_dim(b: Bidegree) -> int:
    """Dimension (0 or 1) of the point module in bidegree ``b``.

    >>> [m2_dim(Bidegree(0, q)) for q in range(-4, 3)]
    [1, 1, 1, 0, 1, 1, 1]
    """
    p, q = b
    if p >= 0 and q >= p:
        return 1
    if p <= 0 and q <= p - 2:
        return 1
    return 0


def m2_rho_rank(b: Bidegree) -> int:
    """Rank of multiplication by rho from bidegree ``b`` to ``b + (1, 1)``.

    Within each cone a generator multiplies injectively, so the rank is 1
    exactly when source and target groups are both nonzero.  On the bottom
    cone, rho sends theta/(rho^i tau^j) to theta/(rho^(i-1) tau^j), which
    dies only when i = 0, i.e. in the column p = 0.
    """
    p, q = b
    if p >= 0 and q >= p:
        return 1
    if p <= -1 and q <= p - 2:
        return 1
    return 0


def m2_tau_rank(b: Bidegree) -> int:
    """Rank of multiplication by tau from bidegree ``b`` to ``b + (0, 1)``.

    tau kills theta/(rho^i) (the top edge of the bottom cone, q = p - 2)
    because the target group there is zero; everywhere else it is nonzero
    wherever the source is.
    """
    p, q = b
    if p >= 0 and q >= p:
        return 1
    if p <= 0 and q <= p - 3:
        return 1
    return 0


# ---------------------------------------------------------------------------
# The antipodal modules A_n = tau^{-1} M2 / (rho^{n+1}).


def an_dim(n: int, b: Bidegree) -> int:
    """Dimension of A_n in bidegree ``b``: the n+1 columns 0 <= p <= n."""
    return 1 if 0 <= b[0] <= n else 0


def an_rho_rank(n: int, b: Bidegree) -> int:
    """rho maps column p isomorphically to column p+1, until rho^{n+1} = 0."""
    return 1 if 0 <= b[0] <= n - 1 else 0


def an_tau_rank(n: int, b: Bidegree) -> int:
    """tau acts invertibly on A_n, hence rank 1 on every nonzero column."""
    return 1 if 0 <= b[0] <= n else 0


# ---------------------------------------------------------------------------
# Summands and decompositions.


class _SummandFields(NamedTuple):
    shift: Bidegree
    n: int | None = None


class Summand(_SummandFields):
    """A shifted copy of M2 (``n is None``) or of A_n (``n >= 0``).

    ``Summand(Bidegree(p, q))`` is the suspension by (p, q) of the point
    module; ``Summand(Bidegree(p, q), n)`` the suspension of A_n.  Since
    tau is invertible on A_n, a weight shift of an antipodal summand is
    isomorphic to the unshifted one, so construction sets its q to 0:
    every instance is the canonical representative of its class.
    """

    __slots__ = ()

    def __new__(cls, shift: Bidegree, n: int | None = None) -> "Summand":
        if n is not None:
            if n < 0:
                raise ValueError("antipodal index must be a natural number")
            if shift[1]:
                shift = Bidegree(shift[0], 0)
        return tuple.__new__(cls, (shift, n))

    @classmethod
    def _make(cls, iterable) -> "Summand":
        # ``_replace`` goes through here; keep it canonical too.
        return cls(*iterable)

    @classmethod
    def free(cls, p: int, q: int) -> "Summand":
        return cls(Bidegree(p, q))

    @classmethod
    def antipodal(cls, p: int, n: int, q: int = 0) -> "Summand":
        return cls(Bidegree(p, q), n)

    @property
    def is_free(self) -> bool:
        return self.n is None

    def _relative(self, b) -> tuple[int, int]:
        shift = self.shift
        return (b[0] - shift[0], b[1] - shift[1])

    def dim_at(self, b) -> int:
        rel = self._relative(b)
        return m2_dim(rel) if self.n is None else an_dim(self.n, rel)

    def rho_rank_at(self, b) -> int:
        rel = self._relative(b)
        return m2_rho_rank(rel) if self.n is None else an_rho_rank(self.n, rel)

    def tau_rank_at(self, b) -> int:
        rel = self._relative(b)
        return m2_tau_rank(rel) if self.n is None else an_tau_rank(self.n, rel)

    def row_support(self, q: int) -> range:
        """The p where this summand is nonzero (of dimension 1) in weight q.

        Finite in every weight: A_n fills its n+1 columns, M2 meets weight
        r >= 0 in the top cone at 0 <= p <= r, weight r <= -2 in the bottom
        cone at r+2 <= p <= 0, and weight -1 nowhere (r relative to the
        shift).

        >>> list(Summand.free(1, 0).row_support(2)), list(Summand.free(0, 3).row_support(0))
        ([1, 2, 3], [-1, 0])
        """
        (a, b), n = self
        if n is not None:
            return range(a, a + n + 1)
        r = q - b
        if r >= 0:
            return range(a, a + r + 1)
        return range(a + r + 2, a + 1)

    def underlying_degrees(self) -> tuple[int, ...]:
        """The degrees p of the singular classes this summand restricts to
        under the forgetful map: ``(a,)`` for ``S(a,b)M2``, the point, and
        ``(a, a + n)`` for ``S(a,0)A_n``, an n-sphere.

        >>> Summand.free(1, 3).underlying_degrees(), Summand.antipodal(1, 0).underlying_degrees()
        ((1,), (1, 1))
        """
        (a, _), n = self
        return (a,) if n is None else (a, a + n)

    def sort_key(self):
        # Free summands before antipodal ones, then (p, q, n) lexicographic.
        # Fields are read by position: this runs once per summand per sort.
        (p, q), n = self
        if n is None:
            return (0, p, q, -1)
        return (1, p, q, n)

    def __str__(self) -> str:
        core = "M2" if self.n is None else f"A{self.n}"
        if self.shift != ZERO:
            return f"S({self.shift.p},{self.shift.q}){core}"
        return core


class Decomposition:
    """A finite formal multiset of summands; the empty one is the zero module.

    Instances are immutable.  Construction counts the (already canonical)
    summands once into a plain dict and sorts it once, by
    ``Summand.sort_key``, into a tuple of ``(summand, count)`` pairs;
    equality and hashing compare that tuple, so ``S(1,1)A0`` and
    ``S(1,0)A0`` give equal decompositions.  The algebra below builds its
    results from counts it knows are valid, without validating again, and
    keeps its operand's order wherever the order cannot change.

    >>> x1 = Decomposition([Summand.free(0, 0), Summand.free(1, 0),
    ...                     Summand.free(1, 1), Summand.free(2, 1)])
    >>> x1.dim_at((1, 0)), x1.dim_at((1, 1))
    (1, 3)
    >>> print(x1)
    M2 + S(1,0)M2 + S(1,1)M2 + S(2,1)M2
    """

    __slots__ = ("_items",)

    def __init__(self, summands: Iterable[Summand] | dict[Summand, int] = ()):
        counts = {}
        if isinstance(summands, dict):          # a Counter included
            for s, c in summands.items():
                _check_multiplicity(c)
                if c:
                    counts[s] = c
        else:
            for s in summands:
                counts[s] = counts.get(s, 0) + 1
        self._items = _sorted_items(counts)

    @classmethod
    def _from_items(cls, items: tuple) -> "Decomposition":
        """The decomposition of ``items``, taken as they are: positive int
        counts of distinct summands, already in sort_key order."""
        d = object.__new__(cls)
        d._items = items
        return d

    # -- multiset access ----------------------------------------------------

    def items(self) -> Iterator[tuple[Summand, int]]:
        """Distinct summands with multiplicities, in canonical order."""
        return iter(self._items)

    def __len__(self) -> int:
        return sum(c for _, c in self._items)

    def count(self, summand: Summand) -> int:
        return dict(self.items()).get(summand, 0)

    def free_shifts(self) -> list[Bidegree]:
        """Shifts of the free summands, with multiplicity, sorted by (p, q)."""
        return [s.shift for s, c in self._items if s.is_free for _ in range(c)]

    # -- pointwise evaluation ----------------------------------------------

    def dim_at(self, b) -> int:
        """Total dimension in bidegree ``b`` (suspension shifts applied)."""
        return sum(c * s.dim_at(b) for s, c in self._items)

    def rank_at(self, b, generator: str) -> int:
        """Rank of multiplication by ``generator`` ("rho" or "tau") at ``b``.

        Valid because the module really is the direct sum: the map splits
        summand by summand.
        """
        if generator == "rho":
            return sum(c * s.rho_rank_at(b) for s, c in self._items)
        if generator == "tau":
            return sum(c * s.tau_rank_at(b) for s, c in self._items)
        raise ValueError(f"unknown generator {generator!r}")

    # -- algebra -------------------------------------------------------------

    def direct_sum(self, other: "Decomposition") -> "Decomposition":
        counts = dict(self._items)
        for s, c in other.items():
            counts[s] = counts.get(s, 0) + c
        if len(counts) == len(self._items):
            # No new summand: the dict still holds self's keys in self's order.
            return Decomposition._from_items(tuple(counts.items()))
        return Decomposition._from_items(_sorted_items(counts))

    __add__ = direct_sum

    def suspend(self, s) -> "Decomposition":
        # A translation keeps distinct summands distinct and keeps their
        # order (antipodal weights stay 0), so nothing is merged or sorted.
        return Decomposition._from_items(tuple(
            (Summand(summand.shift + s, summand.n), c) for summand, c in self._items))

    def remove(self, summand: Summand, count: int = 1) -> "Decomposition":
        """A copy with ``count`` copies of ``summand`` removed.

        Raises KeyError if the decomposition does not contain them, and
        ValueError if ``count`` is not a natural number.
        """
        _check_multiplicity(count)
        counts = dict(self._items)
        left = counts.get(summand, 0) - count
        if left < 0:
            raise KeyError(f"decomposition has no summand {summand}")
        if left:
            counts[summand] = left
        else:
            counts.pop(summand, None)
        return Decomposition._from_items(tuple(counts.items()))

    # -- comparison / serialization ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __str__(self) -> str:
        parts = []
        for s, c in self.items():
            parts.append(str(s) + (f"^{c}" if c > 1 else ""))
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Decomposition<{self}>"

    def to_json_obj(self) -> dict:
        """The wire format: {"free": [[p,q,count],...], "antipodal": [[p,n,count],...]},
        entries in canonical order."""
        free, anti = [], []
        for s, c in self.items():
            if s.is_free:
                free.append([s.shift.p, s.shift.q, c])
            else:
                anti.append([s.shift.p, s.n, c])
        return {"free": free, "antipodal": anti}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Decomposition":
        """Inverse of ``to_json_obj``; each count must be a natural number
        (ValueError otherwise), and repeated entries add up."""
        counts = {}
        entries = [(Summand.free(p, q), c) for p, q, c in obj.get("free", ())]
        entries += [(Summand.antipodal(p, n), c) for p, n, c in obj.get("antipodal", ())]
        for s, c in entries:
            _check_multiplicity(c)
            counts[s] = counts.get(s, 0) + c
        return cls(counts)


def _check_multiplicity(c) -> None:
    if not isinstance(c, int) or isinstance(c, bool):
        raise ValueError(f"multiplicity must be an integer, got {c!r}")
    if c < 0:
        raise ValueError("negative multiplicity")


def _sorted_items(counts: dict) -> tuple:
    """``(summand, count)`` pairs of ``counts`` in sort_key order."""
    return tuple([(s, counts[s]) for s in sorted(counts, key=Summand.sort_key)])


_GLYPHS = ".123456789"           # render_grid's cell for a total below 10


@lru_cache(maxsize=1024)
def _grid_cells(s: Summand, pmin: int, pmax: int, qmin: int, qmax: int) -> tuple[int, ...]:
    """Where one summand is nonzero (its dimension is then 1) over the
    window, as cell indices in ``render_grid`` order: rows from the top
    weight down, columns left to right in p."""
    width = pmax - pmin + 1
    return tuple(row * width + col
                 for row, q in enumerate(range(qmax, qmin - 1, -1))
                 for col, p in enumerate(range(pmin, pmax + 1))
                 if s.dim_at((p, q)))


def render_grid(d: Decomposition, p_range: tuple[int, int], q_range: tuple[int, int]) -> str:
    """Plot dimensions over a finite window as text, one character per
    bidegree: '.' for zero, digits, '+' for 10 or more.  Rows run from the
    top weight down, columns left to right in p.

    Dimension is additive over the direct sum, so the grid is the
    multiplicity-weighted sum of one cached cell table per distinct summand.
    """
    pmin, pmax = p_range
    qmin, qmax = q_range
    if pmin > pmax or qmin > qmax:
        raise ValueError(f"inverted window p={p_range} q={q_range}")
    width = pmax - pmin + 1
    totals = [0] * (width * (qmax - qmin + 1))
    for s, c in d.items():
        for i in _grid_cells(s, pmin, pmax, qmin, qmax):
            totals[i] += c
    glyphs = "".join([_GLYPHS[v] if v < 10 else "+" for v in totals])
    return "\n".join([glyphs[i:i + width] for i in range(0, len(glyphs), width)])
