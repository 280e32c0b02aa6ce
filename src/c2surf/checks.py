"""Structural checks pitting a decomposition against singular cohomology.

A candidate cohomology decomposition for a profile must satisfy several
identities that are theorems about the actual Bredon cohomology:

* quotient row   -- the weight-zero row equals the singular cohomology of
  the orbit space, which we recompute from an honest cellular model via
  GF(2) ranks (never from the closed Betti formula).
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
  The right-hand side is additive over the direct sum, so it is read off
  one cached residual table per distinct summand, weighted by its
  multiplicity.
* top class      -- a nonfree closed surface has exactly one free summand
  in topological dimension >= 2, in weight 1 if some circle is fixed,
  weight 2 if only points are, weight 0 if the action is trivial.
* beta recovery  -- dimension-one generator count: each free summand with
  p = 1 contributes one singular 1-class, each antipodal summand A_n the
  classes of an n-sphere in dimensions p and p + n.

The default sweep window is p in [-2, 6], q in [-8, 8].  The window only
bounds the forgetful-LES sweep; it does not cover every input.  The
closed forms have shifts 0 <= p <= 2 and n <= 2, but an arbitrary
decomposition may put a summand beyond it (an added ``S(10,0)A0`` passes
every check), so these checks are not exact outside the window.
ROADMAP.md's "Exact, window-free verification" item tracks the fix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .bigraded import (
    Bidegree,
    Decomposition,
    Summand,
    an_dim,
    an_rho_rank,
    m2_dim,
    m2_rho_rank,
)
from .engine import closed_form
from .f2linalg import betti_f2, surface_with_boundary_model
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
    validate_profile,
)

QUOTIENT_ROW_RANGE = (-1, 0, 1, 2, 3)


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


@dataclass(frozen=True)
class Violation:
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
    numbers, independently recomputed from a cellular model."""
    validate_profile(pr)
    arithmetic = quotient_sing(pr)
    circles = pr.fixed_circles if pr.kind == NONFREE else 0
    # Capping the boundary circles gives a closed surface; its h1 pins the
    # polygon model, from which the punctured model is rebuilt honestly.
    chi_q = arithmetic.euler()
    model = surface_with_boundary_model(2 - chi_q - circles, circles)
    betti = betti_f2(model)
    out = []
    if betti != arithmetic:
        out.append(Violation("quotient-row", "cell model vs chi arithmetic",
                             (arithmetic.h0, arithmetic.h1, arithmetic.h2),
                             (betti.h0, betti.h1, betti.h2)))
    for p in QUOTIENT_ROW_RANGE:
        expected = betti.at(p)
        actual = d.dim_at(Bidegree(p, 0))
        if actual != expected:
            out.append(Violation("quotient-row", f"({p},0)", expected, actual))
    return out


def check_rho_localization(d: Decomposition, pr: InvariantProfile) -> list[Violation]:
    """Free-summand diagonal degrees against the fixed-set degrees.

    Inverting rho turns S(p,q)M2 into a rank-one module remembering only
    p - q, and kills every rho-nilpotent antipodal summand.
    """
    validate_profile(pr)
    fixed = fixed_sing(pr)
    expected = sorted([0] * fixed.h0 + [1] * fixed.h1 + [2] * fixed.h2)
    actual = sorted(shift.p - shift.q for shift in d.free_shifts())
    if expected != actual:
        return [Violation("rho-localization", "fixed-set degrees", expected, actual)]
    return []


@lru_cache(maxsize=1024)
def _les_residuals(s: Summand, window: Window) -> tuple[tuple[int, int], ...]:
    """One summand's ``dim(p,q+1) + dim(p,q) - rk rho(p-1,q) - rk rho(p,q)``
    over the window: its nonzero entries as ``(index, value)`` pairs, the
    index counting bidegrees in ``window.bidegrees()`` order."""
    # Evaluate dim and rho once on the relative grid p in [pmin-1, pmax],
    # q in [qmin, qmax+1]; each residual then reads four grid entries.
    ps = range(window.pmin - s.shift.p - 1, window.pmax - s.shift.p + 1)
    qs = range(window.qmin - s.shift.q, window.qmax - s.shift.q + 2)
    grid = [[Bidegree(p, q) for q in qs] for p in ps]
    if s.n is None:
        dims = [[m2_dim(b) for b in row] for row in grid]
        rhos = [[m2_rho_rank(b) for b in row] for row in grid]
    else:
        dims = [[an_dim(s.n, b) for b in row] for row in grid]
        rhos = [[an_rho_rank(s.n, b) for b in row] for row in grid]
    height = len(qs) - 1
    out = []
    for i in range(1, len(ps)):
        dim, left, rho = dims[i], rhos[i - 1], rhos[i]
        for j in range(height):
            value = dim[j + 1] + dim[j] - left[j] - rho[j]
            if value:
                out.append(((i - 1) * height + j, value))
    return tuple(out)


def check_forgetful_les(d: Decomposition, sing: SingProfile,
                        window: Window = DEFAULT_LES_WINDOW) -> list[Violation]:
    """The forgetful-sequence rank identity at every bidegree of the window."""
    height = window.qmax - window.qmin + 1
    actual = [0] * ((window.pmax - window.pmin + 1) * height)
    for s, c in d.items():
        for i, value in _les_residuals(s, window):
            actual[i] += c * value
    out = []
    i = 0
    for p in range(window.pmin, window.pmax + 1):
        expected = sing.at(p)
        for q in range(window.qmin, window.qmax + 1):
            if actual[i] != expected:
                out.append(Violation("forgetful-les", str(Bidegree(p, q)),
                                     expected, actual[i]))
            i += 1
    return out


def check_top_class(d: Decomposition, pr: InvariantProfile) -> list[Violation]:
    """Uniqueness and position of the free summand in dimension >= 2."""
    validate_profile(pr)
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
    validate_profile(pr)
    recovered = 0
    for s, c in d.items():
        if s.is_free:
            recovered += c * (1 if s.shift.p == 1 else 0)
        else:
            # An A_n summand restricts to the cohomology of an n-sphere,
            # one class in dimension p and one in dimension p + n.
            recovered += c * ((1 if s.shift.p == 1 else 0)
                              + (1 if s.shift.p + s.n == 1 else 0))
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
