"""Structural checks pitting a decomposition against singular cohomology.

A candidate cohomology decomposition for a profile must satisfy several
identities that are theorems about the actual Bredon cohomology:

* quotient row   -- the weight-zero row equals the singular cohomology of
  the orbit space, as ``quotient_sing`` gives it from the Euler
  characteristic and the fixed circles.  Every summand's weight-zero row
  has finite support (``Summand.row_support``), so the row is compared
  exactly: over the union of those supports and p in [0, 2], wherever the
  summands sit.
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
  from that per-p count, in O(#summands).  A wrong count at p fails at
  every q alike, so it is one fact, reported once, at location ``p=<p>``,
  for each p in the p range of ``DEFAULT_LES_WINDOW``.
* top class      -- the free summands in topological dimension >= 2: a
  nonfree closed surface has exactly one, in weight 1 if some circle is
  fixed, weight 2 if only points are, weight 0 if the action is trivial;
  a free action has none, as it has no free summands at all.
* beta recovery  -- dimension-one generator count: the p = 1 entry of the
  same per-p count of underlying classes, against beta.

``verify_decomposition`` runs the five in that order.  Its window, p in
[-2, 6] and q in [-8, 8], is fixed, and it only bounds where the
forgetful-LES identity is reported: it never changes a verdict.  The
other checks read every summand, and a summand with an underlying degree
outside p in [-2, 6] fails one of them, whatever else the decomposition
holds.  Such a degree lies in the summand's weight-zero support, which
the quotient row allows only in [0, 2], unless the summand is S(a,1)M2,
with an empty weight-zero row: then a - 1 is no fixed-set degree, which
fails rho localization, and a >= 7 also fails the top class.

A violation reports counts, never one list entry per summand: rho
localization as sorted ``[k, count]`` pairs, the top class as sorted
``[p, q, count]`` triples, the shape of the decomposition wire format.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .bigraded import Bidegree, Decomposition
from .engine import closed_form
from .surfaces import (
    NONFREE,
    TRIVIAL,
    InvariantProfile,
    SingProfile,
    SurgeryWord,
    fixed_sing,
    invariants,
    quotient_sing,
    underlying_sing,
)


class _WindowFields(NamedTuple):
    pmin: int
    pmax: int
    qmin: int
    qmax: int


class Window(_WindowFields):
    """A box of bidegrees, pmin <= p <= pmax and qmin <= q <= qmax; never
    inverted, ``_replace`` and ``_make`` included."""

    __slots__ = ()

    def __new__(cls, pmin: int, pmax: int, qmin: int, qmax: int) -> "Window":
        window = tuple.__new__(cls, (pmin, pmax, qmin, qmax))
        if pmin > pmax or qmin > qmax:
            raise ValueError(f"inverted window {window}")
        return window

    @classmethod
    def _make(cls, iterable) -> "Window":
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.pmin}:{self.pmax},{self.qmin}:{self.qmax}"

    @classmethod
    def parse(cls, text: str) -> "Window":
        m = re.match(r"^(-?\d+):(-?\d+),(-?\d+):(-?\d+)$", text.strip())
        if not m:
            raise ValueError(f"bad window {text!r} (want pmin:pmax,qmin:qmax)")
        return cls(*(int(g) for g in m.groups()))


DEFAULT_LES_WINDOW = Window(-2, 6, -8, 8)


class Violation(NamedTuple):
    """One failed identity: the check, where it failed, and both sides.

    A ``NamedTuple``, so a ``Violation`` equals the plain 4-tuple
    ``(check, location, expected, actual)``, as a ``Bidegree`` equals its
    ``(p, q)``.
    """

    check: str
    location: str
    expected: object
    actual: object

    def to_json_obj(self) -> dict:
        return {"check": self.check, "location": self.location,
                "expected": self.expected, "actual": self.actual}

    def __str__(self) -> str:
        return f"{self.check} at {self.location}: expected {self.expected}, got {self.actual}"


def check_quotient_row(d: Decomposition, pr: InvariantProfile) -> list[Violation]:
    """The q = 0 row of the decomposition against the orbit-space Betti
    numbers of ``quotient_sing``.  The row is the multiplicity-weighted sum
    of the summands' weight-zero supports, compared over those supports
    and p in [0, 2]: exact, since both sides vanish everywhere else."""
    betti = quotient_sing(pr)
    row = {0: 0, 1: 0, 2: 0}
    for s, c in d.items():
        for p in s.row_support(0):
            row[p] = row.get(p, 0) + c
    out = []
    for p in sorted(row):
        expected = betti.at(p)
        if row[p] != expected:
            out.append(Violation("quotient-row", f"({p},0)", expected, row[p]))
    return out


def check_rho_localization(d: Decomposition, pr: InvariantProfile) -> list[Violation]:
    """Free-summand diagonal degrees against the fixed-set degrees.

    Inverting rho turns S(p,q)M2 into a rank-one module remembering only
    p - q, and kills every rho-nilpotent antipodal summand.  Both sides are
    compared, and reported, as counts per degree.
    """
    fixed = fixed_sing(pr)
    expected = {k: fixed.at(k) for k in (0, 1, 2) if fixed.at(k)}
    actual: dict[int, int] = {}
    for s, c in d.items():
        if s.is_free:
            k = s.shift.p - s.shift.q
            actual[k] = actual.get(k, 0) + c
    if expected != actual:
        return [Violation("rho-localization", "fixed-set degrees",
                          [[k, expected[k]] for k in sorted(expected)],
                          [[k, actual[k]] for k in sorted(actual)])]
    return []


def _underlying_classes(d: Decomposition) -> dict[int, int]:
    """Per p, the singular p-classes the summands restrict to
    (``Summand.underlying_degrees``), weighted by multiplicity."""
    count: dict[int, int] = {}
    for s, c in d.items():
        for p in s.underlying_degrees():
            count[p] = count.get(p, 0) + c
    return count


def check_forgetful_les(d: Decomposition, sing: SingProfile,
                        window: Window = DEFAULT_LES_WINDOW) -> list[Violation]:
    """The forgetful-sequence rank identity, one violation per wrong p of
    the window's p range, at location ``p=<p>``.

    Its right-hand side at (p, q) is the count of underlying classes at p,
    whatever q is, so a wrong count at p fails at every q of the window
    alike, and the window's q range never changes the report.
    """
    count = _underlying_classes(d)
    out = []
    for p in range(window.pmin, window.pmax + 1):
        expected, actual = sing.at(p), count.get(p, 0)
        if actual != expected:
            out.append(Violation("forgetful-les", f"p={p}", expected, actual))
    return out


def check_top_class(d: Decomposition, pr: InvariantProfile) -> list[Violation]:
    """Uniqueness and position of the free summand in dimension >= 2, and
    its absence for a free action, compared as counts per shift."""
    if pr.kind == TRIVIAL:
        want = {Bidegree(2, 0): 1}
    elif pr.kind != NONFREE:
        want = {}
    elif pr.fixed_circles > 0:
        want = {Bidegree(2, 1): 1}
    else:
        want = {Bidegree(2, 2): 1}
    tops = {s.shift: c for s, c in d.items() if s.is_free and s.shift.p >= 2}
    if tops != want:
        return [Violation("top-class", "free summands with p >= 2",
                          [[*b, want[b]] for b in sorted(want)],
                          [[*b, tops[b]] for b in sorted(tops)])]
    return []


def check_beta_recovery(d: Decomposition, pr: InvariantProfile) -> list[Violation]:
    """Count of singular 1-classes carried by the summands against beta."""
    recovered = _underlying_classes(d).get(1, 0)
    if recovered != pr.beta:
        return [Violation("beta-recovery", "beta", pr.beta, recovered)]
    return []


def verify_decomposition(d: Decomposition, pr: InvariantProfile) -> list[Violation]:
    """Every violation of the five checks, in order, on a candidate
    decomposition."""
    return (check_quotient_row(d, pr) + check_rho_localization(d, pr)
            + check_forgetful_les(d, underlying_sing(pr)) + check_top_class(d, pr)
            + check_beta_recovery(d, pr))


def verify_profile(pr: InvariantProfile) -> list[Violation]:
    return verify_decomposition(closed_form(pr), pr)


def verify_word(w: SurgeryWord) -> list[Violation]:
    """Fold the word, compute the closed form, and run all checks."""
    return verify_profile(invariants(w))
