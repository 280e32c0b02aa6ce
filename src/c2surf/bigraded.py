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

Where each summand is nonzero is written once, in ``Summand.row_support``
(the finite run of p where it is nonzero in a weight q); dimensions, the
rho and tau ranks (``Decomposition.rank_at``) and grids all read it.
Windows exist only for rendering: ``render_grid`` sums, weighted by
multiplicity, one cached table per distinct summand and window, since
dimension is additive over the direct sum.

``Bidegree`` and ``Summand`` are ``NamedTuple``s, so they hash and compare
like plain tuples and compare equal to them: ``Bidegree(1, 2) == (1, 2)``.
Each value type of the package with a rule to keep (``Summand`` here)
checks it in ``__new__`` and takes ``_Checked`` as its first base, whose
``_make``, and so ``_replace``, builds through that ``__new__``; an integer
field is an int, never a bool (``_is_int``).
A ``Decomposition`` is one dict from summand to count, in
``Summand.sort_key`` order.  Construction counts into a plain dict and
sorts it once; ``remove``, ``direct_sum`` and ``engine.transform`` each
make one ``Decomposition._edit``, a copy of the operand's dict (which keeps
its order and its stored hashes) sorted again, by a memoized sort key, only
when the edit adds a summand it lacked.  A decomposition's text joins the
texts of its summands, each spelled once into a bounded memo (``_text``),
so a catalog row that repeats the same few summands does not spell them again.

Besides its dict a decomposition has two slots, each a view derived from
the dict alone, ``None`` until first asked for and then written once:
``_str``, its text, which ``__str__`` fills, and ``_tally``, the count
tables of ``checks.tally``, which ``checks.verify_decomposition`` fills
when it accepts the decomposition.  A memoized closed form
(``engine.closed_form``) is thus spelled and tallied once per process,
however many catalog rows or requests print or verify it again.

All values are immutable (a decomposition's dict is never mutated once
built, only copied) and every operation is a pure function (the caches are
thread-safe ``functools.lru_cache``s), so the whole module is safe to use
from concurrent threads without locking.  The two slots keep this: a slot
is written only with a value that the dict determines, so two threads that
fill it at once store equal values, and a reader sees ``None``, whereupon
it computes the value itself, or a complete one.

>>> point = Summand.free(0, 0)
>>> point.dim_at((0, 0)), point.dim_at((1, 0)), point.dim_at((0, -2))
(1, 0, 1)
>>> Summand.antipodal(0, 2).dim_at((2, -7))
1
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import ItemsView, Iterable, NamedTuple


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


class _Checked:
    """The first base of a value type whose ``__new__`` keeps a rule:
    ``_make``, and so ``_replace``, builds through that ``__new__`` too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _is_int(value) -> bool:
    """The type rule of every integer field: an int, never a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Summands and decompositions.


class _SummandFields(NamedTuple):
    shift: Bidegree
    n: int | None = None


class Summand(_Checked, _SummandFields):
    """A shifted copy of M2 (``n is None``) or of A_n (``n >= 0``).

    ``Summand(Bidegree(p, q))`` is the suspension by (p, q) of the point
    module; ``Summand(Bidegree(p, q), n)`` the suspension of A_n.  Since
    tau is invertible on A_n, a weight shift of an antipodal summand is
    isomorphic to the unshifted one, so construction sets its q to 0 (and
    makes a plain (p, q) a ``Bidegree``): each instance is canonical.
    """

    __slots__ = ()

    def __new__(cls, shift: Bidegree, n: int | None = None) -> "Summand":
        p, q = shift
        for value in (p, q) if n is None else (p, q, n):
            if not _is_int(value):
                raise ValueError(f"summand shift and index must be integers, got {value!r}")
        if n is not None:
            if n < 0:
                raise ValueError("antipodal index must be a natural number")
            q = 0
        return tuple.__new__(cls, (Bidegree(p, q), n))

    @classmethod
    def free(cls, p: int, q: int) -> "Summand":
        return cls(Bidegree(p, q))

    @classmethod
    def antipodal(cls, p: int, n: int) -> "Summand":
        return cls(Bidegree(p, 0), n)

    @property
    def is_free(self) -> bool:
        return self.n is None

    def dim_at(self, b) -> int:
        """Dimension (0 or 1) in bidegree ``b``, a ``Bidegree`` or a plain
        (p, q) tuple.

        >>> [Summand.free(0, 0).dim_at((0, q)) for q in range(-4, 3)]
        [1, 1, 1, 0, 1, 1, 1]
        """
        return int(b[0] in self.row_support(b[1]))

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
        # Fields are read by position; ``_sort_key`` memoizes it for sorting.
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

    Instances are immutable.  Construction names, in a ValueError, a member
    that is not a ``Summand`` or a count that is not a natural number.  It
    counts the (already canonical) summands once into a plain dict and
    rebuilds it in ``Summand.sort_key`` order, a dict never mutated
    afterwards.  Equality compares the dicts, exact because both are in that
    one order, so ``S(1,1)A0`` and ``S(1,0)A0`` give equal decompositions.
    ``remove`` and ``direct_sum`` (``+``, of two decompositions) are each
    one ``_edit``: one copy of the dict, keeping its order and the summands'
    stored hashes, edited without validating again and sorted only when a
    summand is new.

    >>> x1 = Decomposition([Summand.free(0, 0), Summand.free(1, 0),
    ...                     Summand.free(1, 1), Summand.free(2, 1)])
    >>> x1.dim_at((1, 0)), x1.dim_at((1, 1))
    (1, 3)
    >>> print(x1)
    M2 + S(1,0)M2 + S(1,1)M2 + S(2,1)M2
    """

    __slots__ = ("_counts", "_str", "_tally")

    def __init__(self, summands: Iterable[Summand] | dict[Summand, int] = ()):
        counts = {}
        if isinstance(summands, dict):          # a Counter included
            for s, c in summands.items():
                _check_summand(s)
                _check_multiplicity(c)
                if c:
                    counts[s] = c
        else:
            for s in summands:
                _check_summand(s)
                counts[s] = counts.get(s, 0) + 1
        self._counts = _sorted_counts(counts)
        self._str = self._tally = None

    # -- multiset access ----------------------------------------------------

    def items(self) -> ItemsView[Summand, int]:
        """Distinct summands with multiplicities, in canonical order: a
        read-only view of the decomposition's dict."""
        return self._counts.items()

    def __len__(self) -> int:
        return sum(self._counts.values())

    # -- pointwise evaluation ----------------------------------------------

    def dim_at(self, b) -> int:
        """Total dimension in bidegree ``b`` (suspension shifts applied)."""
        return sum(c * s.dim_at(b) for s, c in self._counts.items())

    def rank_at(self, b, generator: str) -> int:
        """Rank of multiplication by ``generator`` ("rho" or "tau") at ``b``.

        The map splits summand by summand, and in each summand it is
        injective wherever its target group is nonzero, so its rank there
        is the source dimension times the target dimension.  In M2 both
        generators multiply injectively inside each cone, and no cone maps
        into the other.  On the bottom cone rho sends theta/(rho^i tau^j)
        to theta/(rho^(i-1) tau^j), which dies only at i = 0, the column
        p = 0, where the target is zero; tau likewise kills only
        theta/(rho^i), on the edge q = p - 2, whose target is zero.  In A_n
        rho maps column p isomorphically onto column p+1 until rho^{n+1} = 0
        leaves column n without a target, and tau is invertible.
        """
        step = _STEPS.get(generator)
        if step is None:
            raise ValueError(f"unknown generator {generator!r}")
        target = (b[0] + step[0], b[1] + step[1])
        return sum(c * s.dim_at(b) * s.dim_at(target) for s, c in self._counts.items())

    # -- algebra -------------------------------------------------------------

    def direct_sum(self, other: "Decomposition") -> "Decomposition":
        if not isinstance(other, Decomposition):
            raise TypeError(f"direct_sum needs a Decomposition, got {other!r}")
        return self._edit((), other._counts.items())

    def __add__(self, other) -> "Decomposition":
        return self.direct_sum(other) if isinstance(other, Decomposition) else NotImplemented

    def remove(self, summand: Summand) -> "Decomposition":
        """A copy with one copy of ``summand`` removed; KeyError if it has none."""
        return self._edit((summand,), ())

    def _edit(self, remove: Iterable[Summand],
              add: Iterable[tuple[Summand, int]]) -> "Decomposition":
        """One copy of the dict, less one copy of each summand of ``remove``
        (KeyError if one is missing), plus each ``(summand, count)`` of
        ``add``, a positive int count; sorted only if a summand is new."""
        counts = self._counts.copy()
        for s in remove:
            left = counts.get(s, 0) - 1
            if left < 0:
                raise KeyError(f"decomposition has no summand {s}")
            if left:
                counts[s] = left
            else:
                del counts[s]
        size = len(counts)
        for s, c in add:
            counts[s] = counts.get(s, 0) + c
        if len(counts) != size:     # a new summand went in last: sort again
            counts = _sorted_counts(counts)
        d = object.__new__(Decomposition)       # owns ``counts`` from now on
        d._counts = counts
        d._str = d._tally = None
        return d

    # -- comparison / serialization ------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(tuple(self._counts.items()))

    def __str__(self) -> str:
        text = self._str
        if text is None:
            text = self._str = " + ".join([f"{_text(s)}^{c}" if c > 1 else _text(s)
                                           for s, c in self._counts.items()]) or "0"
        return text

    def __repr__(self) -> str:
        return f"Decomposition<{self}>"

    def to_json_obj(self) -> dict:
        """The wire format: {"free": [[p,q,count],...], "antipodal": [[p,n,count],...]},
        entries in canonical order."""
        free, anti = [], []
        for ((p, q), n), c in self._counts.items():
            if n is None:
                free.append([p, q, c])
            else:
                anti.append([p, n, c])
        return {"free": free, "antipodal": anti}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Decomposition":
        """Inverse of ``to_json_obj``; repeated entries add up.  Anything but
        a dict of lists, a key but ``free`` and ``antipodal``, an entry not of
        three values, a non-int shift or index and a count not natural are a
        ValueError naming them."""
        if not isinstance(obj, dict) or not all(isinstance(v, list) for v in obj.values()):
            raise ValueError(f"bad decomposition {obj!r} (want an object of lists)")
        unknown = sorted(map(repr, set(obj) - {"free", "antipodal"}))
        if unknown:
            raise ValueError(f"unknown decomposition key(s) {', '.join(unknown)}"
                             " (want free, antipodal)")
        counts = {}
        for key, make in (("free", Summand.free), ("antipodal", Summand.antipodal)):
            for entry in obj.get(key, ()):
                if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                    raise ValueError(f"bad {key} entry {entry!r} (want three values)")
                s, c = make(entry[0], entry[1]), entry[2]
                _check_multiplicity(c)
                counts[s] = counts.get(s, 0) + c
        return cls(counts)


_STEPS = {"rho": (1, 1), "tau": (0, 1)}      # each generator's bidegree


def _check_summand(s) -> None:
    # A plain tuple hashes like the summand it spells, so name it here,
    # before it reaches the sort key or the text.
    if not isinstance(s, Summand):
        raise ValueError(f"a decomposition's member must be a Summand, got {s!r}")


def _check_multiplicity(c) -> None:
    if not _is_int(c):
        raise ValueError(f"multiplicity must be an integer, got {c!r}")
    if c < 0:
        raise ValueError("negative multiplicity")


# ``Summand.sort_key`` and ``Summand.__str__`` through the module's usual
# bounded memos: a fold re-sorts the same few summands at every step that
# brings a new one, and a catalog spells the same few in every row.
_sort_key = lru_cache(maxsize=1024)(Summand.sort_key)
_text = lru_cache(maxsize=1024)(Summand.__str__)


def _sorted_counts(counts: dict) -> dict:
    """``counts`` rebuilt in sort_key order."""
    return {s: counts[s] for s in sorted(counts, key=_sort_key)}


# render_grid's glyph for each total 0-255, as a ``bytes.translate`` table:
# '.' for 0, the digit for 1-9, '+' for 10 or more.
_GLYPHS = b".123456789".ljust(256, b"+")


@lru_cache(maxsize=1024)
def _grid_cells(s: Summand, pmin: int, pmax: int, qmin: int, qmax: int) -> tuple[range, ...]:
    """Where one summand is nonzero (its dimension is then 1) over the
    window: one range of cell indices, in ``render_grid`` order, per row
    the summand meets.  Rows run from the top weight down, columns left to
    right in p, and each range is the summand's row support clipped to
    [pmin, pmax], so an entry grows with the rows, not the cells."""
    width = pmax - pmin + 1
    rows: list[range] = []
    for row, q in enumerate(range(qmax, qmin - 1, -1)):
        support = s.row_support(q)
        first = row * width - pmin             # the index of p = 0 in this row
        cells = range(first + max(support.start, pmin), first + min(support.stop, pmax + 1))
        if cells:
            rows.append(cells)
    return tuple(rows)


def render_grid(d: Decomposition, p_range: tuple[int, int], q_range: tuple[int, int]) -> str:
    """Plot dimensions over a finite window as text, one character per
    bidegree: '.' for zero, digits, '+' for 10 or more.  Rows run from the
    top weight down, columns left to right in p.

    Dimension is additive over the direct sum, so the grid is the
    multiplicity-weighted sum of one cached cell table per distinct summand.
    The running totals become one ``bytes`` and are mapped to glyphs by one
    ``bytes.translate`` through a 256-entry table (``_GLYPHS``); only when a
    total is above 255, which no byte holds, are the totals clamped to 10
    first.
    """
    pmin, pmax = p_range
    qmin, qmax = q_range
    if pmin > pmax or qmin > qmax:
        raise ValueError(f"inverted window p={p_range} q={q_range}")
    width = pmax - pmin + 1
    # Each summand's row is one run of cells: mark where each run starts
    # and stops, and the running sum over the cells is the grid.
    steps = [0] * (width * (qmax - qmin + 1) + 1)
    for s, c in d.items():
        for cells in _grid_cells(s, pmin, pmax, qmin, qmax):
            steps[cells.start] += c
            steps[cells.stop] -= c
    steps.pop()
    try:
        totals = bytes(accumulate(steps))
    except ValueError:          # a total above 255
        totals = bytes([min(v, 10) for v in accumulate(steps)])
    glyphs = totals.translate(_GLYPHS).decode()
    return "\n".join([glyphs[i:i + width] for i in range(0, len(glyphs), width)])
