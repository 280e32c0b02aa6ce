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
  multiset {p - q} over free summands equals the multiset of fixed-set
  degrees with multiplicity.
* forgetful long exact sequence -- exactness of
  ``H^(p-1,q) --rho--> H^(p,q+1) --> H^p_sing --> H^(p,q)`` forces, at
  every bidegree,
  ``h^p_sing = dim(p,q+1) + dim(p,q) - rk rho(p-1,q) - rk rho(p,q)``.
  Only the rank identity is asserted; the maps themselves are never
  materialized (the decomposition already determines the rho ranks).
  The right-hand side is additive over the direct sum and, summand by
  summand, independent of q: it counts the singular classes the summand
  restricts to (``Summand.underlying_degrees``).  So the identity is read
  from that per-p count, in O(#summands), and reported at every bidegree
  of the window.
* top class      -- a nonfree closed surface has exactly one free summand
  in topological dimension >= 2, in weight 1 if some circle is fixed,
  weight 2 if only points are, weight 0 if the action is trivial.
* beta recovery  -- dimension-one generator count: the p = 1 entry of the
  same per-p count of underlying classes, against beta.

The default window p in [-2, 6], q in [-8, 8] bounds only where the
forgetful-LES identity is reported; the other checks read every summand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

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


@dataclass(frozen=True)
class Window:
    pmin: int
    pmax: int
    qmin: int
    qmax: int

    def __post_init__(self):
        if self.pmin > self.pmax or self.qmin > self.qmax:
            raise ValueError(f"inverted window {self}")

    def bidegrees(self) -> Iterator[Bidegree]:
        for p in range(self.pmin, self.pmax + 1):
            for q in range(self.qmin, self.qmax + 1):
                yield Bidegree(p, q)

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
    p - q, and kills every rho-nilpotent antipodal summand.
    """
    fixed = fixed_sing(pr)
    expected = sorted([0] * fixed.h0 + [1] * fixed.h1 + [2] * fixed.h2)
    actual = sorted(shift.p - shift.q for shift in d.free_shifts())
    if expected != actual:
        return [Violation("rho-localization", "fixed-set degrees", expected, actual)]
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
    """The forgetful-sequence rank identity at every bidegree of the window.

    Its right-hand side at (p, q) is the count of underlying classes at p,
    whatever q is, so a wrong count at p fails at every q of the window.
    """
    count = _underlying_classes(d)
    out = []
    for p in range(window.pmin, window.pmax + 1):
        expected, actual = sing.at(p), count.get(p, 0)
        if actual != expected:
            out.extend(Violation("forgetful-les", str(Bidegree(p, q)), expected, actual)
                       for q in range(window.qmin, window.qmax + 1))
    return out


def check_top_class(d: Decomposition, pr: InvariantProfile) -> list[Violation]:
    """Uniqueness and position of the free summand in dimension >= 2."""
    if pr.kind not in (NONFREE, TRIVIAL):
        raise ValueError("top-class check applies to nonfree and trivial actions")
    if pr.kind == TRIVIAL:
        want = Bidegree(2, 0)
    elif pr.fixed_circles > 0:
        want = Bidegree(2, 1)
    else:
        want = Bidegree(2, 2)
    tops = [shift for shift in d.free_shifts() if shift.p >= 2]
    if tops != [want]:
        return [Violation("top-class", "free summands with p >= 2",
                          [str(want)], [str(t) for t in tops])]
    return []


def check_beta_recovery(d: Decomposition, pr: InvariantProfile) -> list[Violation]:
    """Count of singular 1-classes carried by the summands against beta."""
    recovered = _underlying_classes(d).get(1, 0)
    if recovered != pr.beta:
        return [Violation("beta-recovery", "beta", pr.beta, recovered)]
    return []


def verify_decomposition(d: Decomposition, pr: InvariantProfile,
                         window: Window = DEFAULT_LES_WINDOW,
                         fail_fast: bool = False) -> list[Violation]:
    """Run every applicable check on a candidate decomposition."""
    out: list[Violation] = []

    def run(violations):
        out.extend(violations)
        return fail_fast and out

    if run(check_quotient_row(d, pr)):
        return out
    if run(check_rho_localization(d, pr)):
        return out
    if run(check_forgetful_les(d, underlying_sing(pr), window)):
        return out
    if pr.kind in (NONFREE, TRIVIAL) and run(check_top_class(d, pr)):
        return out
    run(check_beta_recovery(d, pr))
    return out


def verify_profile(pr: InvariantProfile,
                   window: Window = DEFAULT_LES_WINDOW) -> list[Violation]:
    return verify_decomposition(closed_form(pr), pr, window)


def verify_word(w: SurgeryWord, window: Window = DEFAULT_LES_WINDOW) -> list[Violation]:
    """Fold the word, compute the closed form, and run all checks."""
    return verify_profile(invariants(w), window)
