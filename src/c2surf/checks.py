"""Structural checks pitting a decomposition against singular cohomology.

A candidate cohomology decomposition for a profile must satisfy several
identities that are theorems about the actual Bredon cohomology.  Each is
a count over the summands compared with a Betti-number profile.  So a
check compares two tallies of four count tables each: the candidate's
(``tally``, one pass over its summands, each summand's part read through
a memo keyed by the summand) and the profile's (``expected``, the tables
a correct answer has, a memo keyed by the profile, since they depend on
at most four integers); no table is read from the closed forms that a
caller judges.  Each check compares one pair of tables, and walks its
locations only when the two differ, to report them:

* quotient row   -- the weight-zero row equals the singular cohomology of
  the orbit space, as ``quotient_sing`` gives it from the Euler
  characteristic and the fixed circles.  Every summand's weight-zero row
  has finite support (``Summand.row_support``), so the row is compared
  exactly, wherever the summands sit.  The orbit space's keys lie in
  [0, 2], so a mismatch walks the row's keys outside [0, 2] and 0, 1, 2,
  in ascending order, one report ``(p,0)`` per wrong p.
* rho localization -- inverting rho leaves only the free summands, and
  matches the singular cohomology of the fixed set; concretely the
  count of free summands per p - q equals the count of fixed-set classes
  per degree.
* forgetful long exact sequence -- exactness of
  ``H^(p-1,q) --rho--> H^(p,q+1) --> H^p_sing --> H^(p,q)`` forces, at
  every bidegree,
  ``h^p_sing = dim(p,q+1) + dim(p,q) - rk rho(p-1,q) - rk rho(p,q)``.
  Only the rank identity is asserted; the maps themselves are never
  materialized (the decomposition already determines the rho ranks).
  The right-hand side is additive over the direct sum and, summand by
  summand, independent of q: it counts the singular classes the summand
  restricts to (``Summand.underlying_degrees``).  So the identity is read
  from that per-p count, the tally's ``classes``, against ``expected``'s,
  the surface's Betti numbers (1, beta, 1).  A wrong count at p fails at
  every q alike, so it is one fact, reported once, at location ``p=<p>``,
  for each p in the p range of ``DEFAULT_LES_WINDOW``.
* top class      -- the free summands in topological dimension >= 2, per
  shift, against one at (2, 2 - d), d the top degree of the fixed set
  (``fixed_sing``): 2 under the trivial action, 1 with a fixed circle, 0
  with fixed points only.  A free action, with no fixed set, has none.
* beta recovery  -- dimension-one generator count: the p = 1 entry of the
  same per-p count of underlying classes, against beta.

``verify_decomposition`` tallies the decomposition once and reads the
profile's tally once.  Two equal tallies have no violation, since each
check finds none when its pair of tables is equal, so it accepts them
with that one comparison and calls no check; otherwise it runs the five
in that order, each as ``check(t, want)``.  An accepted decomposition
keeps the profile's tally in its slot ``_tally`` (see ``bigraded``): the
two are equal, so the slot costs one reference, and verifying the same
decomposition again, as a catalog row or a request does with a memoized
closed form, tallies nothing.  A rejected one keeps nothing, so a
candidate judged once holds no table.  A decomposition accepted for one
profile and judged against another is compared with that profile's tally
through the same checks, with the same reports.  No check reads the
profile itself.  Its window, p in [-2, 6] and q in [-8, 8], is fixed, and it
only bounds where the forgetful-LES identity is reported: it never
changes a verdict.  The other checks
read every summand, and a summand with an underlying degree outside p in
[-2, 6] fails one of them, whatever else the decomposition holds.  Such a
degree lies in the summand's weight-zero support, which the quotient row
allows only in [0, 2], unless the summand is S(a,1)M2, with an empty
weight-zero row: then a - 1 is no fixed-set degree, which fails rho
localization, and a >= 7 also fails the top class.

A violation reports counts, never one list entry per summand: rho
localization as sorted ``[k, count]`` pairs, the top class as sorted
``[p, q, count]`` triples, the shape of the decomposition wire format.
Those two, and beta recovery, make one report each; the forgetful LES
walks every p of its window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import NamedTuple

from .bigraded import Bidegree, Decomposition, Summand, _Checked
from .surfaces import InvariantProfile, SingProfile, fixed_sing, quotient_sing, underlying_sing


class _WindowFields(NamedTuple):
    pmin: int
    pmax: int
    qmin: int
    qmax: int


class Window(_Checked, _WindowFields):
    """A box of bidegrees, pmin <= p <= pmax and qmin <= q <= qmax; never
    inverted (a ``_Checked`` value type)."""

    __slots__ = ()

    def __new__(cls, pmin: int, pmax: int, qmin: int, qmax: int) -> "Window":
        window = tuple.__new__(cls, (pmin, pmax, qmin, qmax))
        if pmin > pmax or qmin > qmax:
            raise ValueError(f"inverted window {window}")
        return window

    def __str__(self) -> str:
        return f"{self.pmin}:{self.pmax},{self.qmin}:{self.qmax}"


DEFAULT_LES_WINDOW = Window(-2, 6, -8, 8)


class Violation(NamedTuple):
    """One failed identity: the check, where it failed, and both sides; it
    equals the plain 4-tuple ``(check, location, expected, actual)``."""

    check: str
    location: str
    expected: object
    actual: object

    def to_json_obj(self) -> dict:
        return self._asdict()

    def __str__(self) -> str:
        return f"{self.check} at {self.location}: expected {self.expected}, got {self.actual}"


class Tally(NamedTuple):
    """The counts the five checks compare, each multiplicity-weighted and
    keyed as its check reads it: ``row``, the weight-zero row per p;
    ``free``, the free summands per p - q; ``tops``, the free summands with
    p >= 2 per shift; ``classes``, the underlying singular classes per p.
    A key is present only where its count is positive."""

    row: dict[int, int]
    free: dict[int, int]
    tops: dict[Bidegree, int]
    classes: dict[int, int]


# Builds a Violation or Tally without the Python-level ``__new__`` of a
# NamedTuple: neither has a rule to enforce, and a rejected mutant yields
# several reports.
_new = tuple.__new__


@lru_cache(maxsize=256)
def _row_location(p: int) -> str:
    """The location ``(p,0)`` of a quotient-row report."""
    return f"({p},0)"


@lru_cache(maxsize=256)
def _degree(p: int) -> str:
    """The location ``p=<p>`` of a forgetful-LES report."""
    return f"p={p}"


@lru_cache(maxsize=1024)
def _reads(s: Summand) -> tuple[range, int | None, Bidegree | None,
                                 tuple[int, ...]]:
    """What the tally reads of one summand: its weight-zero support, its
    p - q if free, its shift if free with p >= 2, and its underlying
    degrees.  Keyed by summand, so every decomposition shares it."""
    shift, n = s
    p, q = shift
    free = n is None
    return (s.row_support(0), p - q if free else None,
            shift if free and p >= 2 else None, s.underlying_degrees())


def tally(d: Decomposition) -> Tally:
    """Every count the checks compare, in one pass over ``d.items()``."""
    row: dict[int, int] = {}
    free: dict[int, int] = {}
    tops: dict[Bidegree, int] = {}
    classes: dict[int, int] = {}
    for s, c in d.items():
        support, k, top, degrees = _reads(s)
        for p in support:
            row[p] = row.get(p, 0) + c
        if k is not None:
            free[k] = free.get(k, 0) + c
            if top is not None:
                tops[top] = c
        for p in degrees:
            classes[p] = classes.get(p, 0) + c
    return _new(Tally, (row, free, tops, classes))


@lru_cache(maxsize=1024)
def _counts(sing: SingProfile) -> dict[int, int]:
    """The nonzero Betti numbers of ``sing`` per degree, as a tally keys
    them.  Keyed by the Betti numbers, so the ``expected`` tallies of
    profiles with equal ones share one table: it is read, never changed."""
    return {p: h for p, h in enumerate(sing) if h}


def _tops(free: dict[int, int]) -> dict[Bidegree, int]:
    """The top-class table of a correct answer: one free summand at
    (2, 2 - d), d the top degree of the fixed set whose nonzero Betti
    numbers are ``free``, and none if the fixed set is empty."""
    return {Bidegree(2, 2 - max(free)): 1} if free else {}


@lru_cache(maxsize=1024)
def expected(pr: InvariantProfile) -> Tally:
    """The tally that a correct answer for ``pr`` has: the orbit space's
    Betti numbers as ``row``, the fixed set's as ``free``, the top class
    that the fixed set's top degree places (``_tops``) as ``tops`` and the
    surface's as ``classes``.  A memo keyed by the profile; every caller
    shares its tables, so they are read, never changed."""
    free = _counts(fixed_sing(pr))
    return _new(Tally, (_counts(quotient_sing(pr)), free, _tops(free),
                        _counts(underlying_sing(pr))))


def check_quotient_row(t: Tally, want: Tally) -> list[Violation]:
    """The q = 0 row of the decomposition against the orbit-space Betti
    numbers of ``quotient_sing``, compared over the summands' weight-zero
    supports and p in [0, 2]: exact, since both sides vanish everywhere
    else.  Equal tables have no violation; only unequal ones are walked."""
    betti_row, row = want.row, t.row
    if row == betti_row:
        return []
    # ``betti_row`` has keys in [0, 2] only: walk the row's keys outside it
    # and 0, 1, 2, in ascending order.
    walk = sorted(row)
    walk[bisect_left(walk, 0):bisect_right(walk, 2)] = (0, 1, 2)
    out = []
    for p in walk:
        betti, actual = betti_row.get(p, 0), row.get(p, 0)
        if actual != betti:
            out.append(_new(Violation, ("quotient-row", _row_location(p), betti, actual)))
    return out


def check_rho_localization(t: Tally, want: Tally) -> list[Violation]:
    """Free-summand diagonal degrees against the fixed-set degrees.

    Inverting rho turns S(p,q)M2 into a rank-one module remembering only
    p - q, and kills every rho-nilpotent antipodal summand.  Both sides are
    compared, and reported, as counts per degree.
    """
    fixed, actual = want.free, t.free
    if fixed != actual:
        return [_new(Violation, ("rho-localization", "fixed-set degrees",
                                 [[k, fixed[k]] for k in sorted(fixed)],
                                 [[k, actual[k]] for k in sorted(actual)]))]
    return []


def check_forgetful_les(t: Tally, want: Tally,
                        window: Window = DEFAULT_LES_WINDOW) -> list[Violation]:
    """The forgetful-sequence rank identity, one violation per wrong p of
    the window's p range, at location ``p=<p>``.

    Its right-hand side at (p, q) is the count of underlying classes at p,
    whatever q is, so a wrong count at p fails at every q of the window
    alike, and the window's q range never changes the report.  A count
    equal to ``want.classes`` at every p fails nowhere; only an unequal one
    is walked over the window's p range.
    """
    count, surface = t.classes, want.classes
    if count == surface:
        return []
    out = []
    for p in range(window.pmin, window.pmax + 1):
        betti, actual = surface.get(p, 0), count.get(p, 0)
        if actual != betti:
            out.append(_new(Violation, ("forgetful-les", _degree(p), betti, actual)))
    return out


def check_top_class(t: Tally, want: Tally) -> list[Violation]:
    """Uniqueness and position of the free summand in dimension >= 2, and
    its absence for a free action, compared as counts per shift (the rule
    is ``expected``'s)."""
    top, tops = want.tops, t.tops
    if tops != top:
        return [_new(Violation, ("top-class", "free summands with p >= 2",
                                 [[*b, top[b]] for b in sorted(top)],
                                 [[*b, tops[b]] for b in sorted(tops)]))]
    return []


def check_beta_recovery(t: Tally, want: Tally) -> list[Violation]:
    """Count of singular 1-classes carried by the summands against beta,
    read as the surface's h1 (``want.classes`` drops a zero, so beta 0
    reads 0)."""
    beta, recovered = want.classes.get(1, 0), t.classes.get(1, 0)
    if recovered != beta:
        return [_new(Violation, ("beta-recovery", "beta", beta, recovered))]
    return []


def verify_decomposition(d: Decomposition, pr: InvariantProfile) -> list[Violation]:
    """Every violation of the five checks, in order, on a candidate
    decomposition, tallied once, against ``expected(pr)``, read once.
    Equal tallies are accepted with one comparison: every check compares
    a field of the two, and finds no violation where they are equal.

    An accepted ``d`` keeps ``want`` as its tally (``d._tally``), which
    equals ``tally(d)``, so a later verification of it tallies nothing."""
    want = expected(pr)
    t = d._tally or tally(d)
    if t == want:
        d._tally = want
        return []
    out = check_quotient_row(t, want)
    out += check_rho_localization(t, want)
    out += check_forgetful_les(t, want)
    out += check_top_class(t, want)
    out += check_beta_recovery(t, want)
    return out

