"""Surgery-word descriptions of closed surfaces with involution.

A surface with a C2-action is described here by a *word*: a base action
plus a sequence of equivariant surgeries.  The classification of
involutions on closed surfaces says every such surface is reachable this
way, and that its mod-2 Bredon cohomology depends only on three numbers:

* ``beta``  -- dim of H^1 of the underlying surface with Z/2 coefficients,
* ``F``     -- the number of isolated fixed points,
* ``C``     -- the number of fixed circles,

together with the action kind (trivial / free sphere-like / free
torus-like / nonfree).  Words therefore fold to an ``InvariantProfile``,
and profiles are the deduplication key everywhere downstream.

Word grammar (exact)::

    word := base (" + " op)*
    base := "S22" | "S21" | "S2a" | "T1a" | "T1r" | "triv:T[<g>]" | "triv:N[<s>]"
    op   := "AT11" | "AT10" | "FM" | "DCC" | "CS(T[<g>])" | "CS(N[<s>])"

The bases: S22 and S21 are the 2-sphere with rotation (two fixed points)
resp. reflection (a fixed equator); S2a the antipodal sphere; T1a / T1r
the two free tori (antipodal and 180-degree rotation); triv:* a surface
with the trivial action.  The surgeries: AT11 / AT10 glue an equivariant
handle across conjugate disks (an "antitube"), FM trades an isolated
fixed point for a fixed circle via an equivariant Moebius band, DCC adds
dual cross caps, and CS(Y) forms the equivariant connected sum with two
conjugate copies of the nonequivariant surface Y.

Everything here is pure and immutable; enumeration partitions cleanly
over bases and depths if a caller wants to parallelize.

>>> invariants(parse_word("S21 + AT10"))
InvariantProfile(kind='nonfree', beta=2, fixed_points=0, fixed_circles=2)
"""

from __future__ import annotations

import re
from dataclasses import dataclass

TRIVIAL = "trivial"
FREE_SPHERE = "free-sphere"
FREE_TORUS = "free-torus"
NONFREE = "nonfree"
KINDS = (TRIVIAL, FREE_SPHERE, FREE_TORUS, NONFREE)

_KIND_RANK = {k: i for i, k in enumerate(KINDS)}

BASE_TOKENS = ("S22", "S21", "S2a", "T1a", "T1r")
OP_TOKENS = ("AT11", "AT10", "FM", "DCC", "CS")


class ParseError(ValueError):
    """A word or surface descriptor that does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class WordError(ValueError):
    """A syntactically fine word whose surgery sequence is not realizable."""

    def __init__(self, message: str, op_index: int | None = None):
        where = "base" if op_index is None else f"op {op_index}"
        super().__init__(f"{where}: {message}")
        self.op_index = op_index


class ProfileError(ValueError):
    """An invariant triple that no closed C2-surface realizes."""


class RealizabilityError(ValueError):
    """The two profile generators (words vs. inequality scan) disagree."""


@dataclass(frozen=True)
class ClosedSurface:
    """A nonequivariant closed surface: T[g] (orientable, genus g >= 0)
    or N[s] (nonorientable, cross-cap number s >= 1)."""

    orientable: bool
    genus: int

    def __post_init__(self):
        if self.orientable and self.genus < 0:
            raise ValueError("orientable genus must be >= 0")
        if not self.orientable and self.genus < 1:
            raise ValueError("nonorientable genus must be >= 1")

    @property
    def beta(self) -> int:
        # With Z/2 coefficients h1(T_g) = 2g and h1(N_s) = s.
        return 2 * self.genus if self.orientable else self.genus

    def __str__(self) -> str:
        return f"{'T' if self.orientable else 'N'}[{self.genus}]"


_SURFACE_RE = re.compile(r"^([TN])\[(\d+)\]$")


def parse_surface(token: str, position: int = 0) -> ClosedSurface:
    m = _SURFACE_RE.match(token)
    if not m:
        raise ParseError(f"bad surface descriptor {token!r} (want T[g] or N[s])", position)
    try:
        return ClosedSurface(m.group(1) == "T", int(m.group(2)))
    except ValueError as exc:
        raise ParseError(str(exc), position) from None


@dataclass(frozen=True)
class Base:
    token: str                      # one of BASE_TOKENS, or "triv"
    surface: ClosedSurface | None = None

    def __str__(self) -> str:
        return f"triv:{self.surface}" if self.token == "triv" else self.token


@dataclass(frozen=True)
class Op:
    token: str                      # one of OP_TOKENS
    surface: ClosedSurface | None = None   # only for CS

    def __str__(self) -> str:
        return f"CS({self.surface})" if self.token == "CS" else self.token


@dataclass(frozen=True)
class SurgeryWord:
    base: Base
    ops: tuple[Op, ...] = ()

    def __str__(self) -> str:
        return " + ".join([str(self.base)] + [str(op) for op in self.ops])


def parse_word(text: str) -> SurgeryWord:
    """Parse the word DSL; raises ParseError with a character position.

    >>> str(parse_word("S2a + CS(T[1])"))
    'S2a + CS(T[1])'
    """
    pieces = text.split("+")
    pos = 0
    base = None
    ops = []
    for i, raw in enumerate(pieces):
        token = raw.strip()
        at = pos + raw.index(token) if token else pos
        if not token:
            raise ParseError("empty token", at)
        if i == 0:
            if token in BASE_TOKENS:
                base = Base(token)
            elif token.startswith("triv:"):
                base = Base("triv", parse_surface(token[5:], at + 5))
            else:
                raise ParseError(f"unknown base {token!r}", at)
        else:
            if token in ("AT11", "AT10", "FM", "DCC"):
                ops.append(Op(token))
            elif token.startswith("CS(") and token.endswith(")"):
                ops.append(Op("CS", parse_surface(token[3:-1], at + 3)))
            else:
                raise ParseError(f"unknown op {token!r}", at)
        pos += len(raw) + 1
    return SurgeryWord(base, tuple(ops))


# ---------------------------------------------------------------------------
# Invariant profiles.


_PROFILE_KEYS = frozenset({"kind", "beta", "F", "C"})


@dataclass(frozen=True)
class InvariantProfile:
    """The data the cohomology depends on: kind, beta, and the fixed-set
    counts (isolated points, circles).

    Every instance is valid: construction runs ``validate_profile`` and
    raises ``ProfileError`` for a triple that no closed C2-surface
    realizes, or for a field that is not an int.  Downstream code never
    validates a profile again.
    """

    kind: str
    beta: int
    fixed_points: int = 0
    fixed_circles: int = 0

    def __post_init__(self):
        validate_profile(self)

    def sort_key(self):
        return (self.beta, _KIND_RANK[self.kind], self.fixed_points, self.fixed_circles)

    def __str__(self) -> str:
        return (f"{self.kind} beta={self.beta} F={self.fixed_points}"
                f" C={self.fixed_circles}")

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "beta": self.beta,
                "F": self.fixed_points, "C": self.fixed_circles}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "InvariantProfile":
        try:
            kind, beta = obj["kind"], obj["beta"]
            f, c = obj.get("F", 0), obj.get("C", 0)
        except (KeyError, TypeError) as exc:
            raise ProfileError(f"bad profile object: {exc}") from None
        unknown = sorted(map(repr, set(obj) - _PROFILE_KEYS))
        if unknown:
            raise ProfileError(f"unknown profile key(s) {', '.join(unknown)}"
                               " (want kind, beta, F, C)")
        return cls(kind, beta, f, c)


def validate_profile(pr: InvariantProfile) -> None:
    """Raise ProfileError naming the violated condition, if any.

    The inequalities carve out exactly the triples realized by closed
    C2-surfaces; they also make every exponent in the closed cohomology
    formulas a nonnegative integer.  beta, F and C must be ints (not bools):
    ``2.5``, ``4.0`` and ``"2"`` are rejected, never coerced.
    """
    f, c, beta = pr.fixed_points, pr.fixed_circles, pr.beta
    for name, value in (("beta", beta), ("F", f), ("C", c)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProfileError(f"profile field {name} must be an integer, got {value!r}")
    if pr.kind not in KINDS:
        raise ProfileError(f"unknown kind {pr.kind!r}")
    if beta < 0 or f < 0 or c < 0:
        raise ProfileError("beta, F, C must be nonnegative")
    if pr.kind != NONFREE:
        if f or c:
            raise ProfileError(f"{pr.kind} actions have F = 0 and C = 0")
        if pr.kind == FREE_SPHERE and beta % 2:
            raise ProfileError("free sphere-like actions need beta even")
        if pr.kind == FREE_TORUS and (beta % 2 or beta < 2):
            raise ProfileError("free torus-like actions need beta even and >= 2")
        return
    if f == 0 and c == 0:
        raise ProfileError("nonfree actions have a nonempty fixed set (F + C >= 1)")
    if (beta - f) % 2:
        raise ProfileError("beta == F (mod 2) violated")
    if c == 0:
        # Branched double covers over a closed quotient have an even number
        # of branch points: the mod-2 monodromy sends each branch loop to 1
        # and their homology classes sum to zero.
        if f % 2:
            raise ProfileError("C = 0 requires an even number of isolated fixed points")
        if f < 2:
            raise ProfileError("C = 0 requires F >= 2")
        if beta < f - 2:
            raise ProfileError("beta >= F - 2 violated")
    else:
        if beta < f + 2 * c - 2:
            raise ProfileError("beta >= F + 2C - 2 violated")


_BASE_PROFILES = {
    "S22": InvariantProfile(NONFREE, 0, 2, 0),
    "S21": InvariantProfile(NONFREE, 0, 0, 1),
    "S2a": InvariantProfile(FREE_SPHERE, 0),
    "T1a": InvariantProfile(FREE_TORUS, 2),
    "T1r": InvariantProfile(FREE_TORUS, 2),
}


def base_profile(base: Base) -> InvariantProfile:
    if base.token == "triv":
        return InvariantProfile(TRIVIAL, base.surface.beta)
    return _BASE_PROFILES[base.token]


def check_op(pr: InvariantProfile, op: Op, op_index: int | None = None) -> None:
    """Raise WordError when the surgery needs structure the current action
    does not have."""
    if pr.kind == TRIVIAL:
        raise WordError("surgery on trivial action", op_index)
    if op.token not in OP_TOKENS:
        raise WordError(f"unknown op {op.token!r}", op_index)
    if op.token == "FM" and pr.fixed_points == 0:
        raise WordError("FM needs an isolated fixed point", op_index)


def apply_op(pr: InvariantProfile, op: Op, op_index: int | None = None) -> InvariantProfile:
    """Fold one surgery into a profile; raises WordError (``check_op``) when
    the surgery is illegal."""
    check_op(pr, op, op_index)
    f, c, beta = pr.fixed_points, pr.fixed_circles, pr.beta
    if op.token == "CS":
        # Nonequivariantly X #2 Y is Y # X # Y, so beta grows by 2 beta(Y).
        return InvariantProfile(pr.kind, beta + 2 * op.surface.beta, f, c)
    if op.token == "DCC":
        # Dual cross caps are the connected sum with a projective plane.
        return InvariantProfile(pr.kind, beta + 2, f, c)
    if op.token == "AT11":
        return InvariantProfile(NONFREE, beta + 2, f + 2, c)
    if op.token == "AT10":
        return InvariantProfile(NONFREE, beta + 2, f, c + 1)
    # FM trades an isolated fixed point for a fixed circle.
    return InvariantProfile(NONFREE, beta + 1, f - 1, c + 1)


def invariants(w: SurgeryWord) -> InvariantProfile:
    """Fold a word down to its invariant profile; raises WordError
    (``check_op``) at the first op the action so far cannot take.

    The per-op deltas commute, so the result is insensitive to the order
    of the ops (whenever each order validates prefix by prefix).
    """
    pr = base_profile(w.base)
    for i, op in enumerate(w.ops):
        pr = apply_op(pr, op, i)
    return pr


# ---------------------------------------------------------------------------
# Singular cohomology profiles of the three associated plain spaces.


@dataclass(frozen=True)
class SingProfile:
    """Mod-2 Betti numbers (h0, h1, h2) of a space of dimension <= 2."""

    h0: int
    h1: int
    h2: int

    def at(self, p: int) -> int:
        if p == 0:
            return self.h0
        if p == 1:
            return self.h1
        if p == 2:
            return self.h2
        return 0

    def euler(self) -> int:
        return self.h0 - self.h1 + self.h2


def underlying_sing(pr: InvariantProfile) -> SingProfile:
    """Betti numbers of the underlying closed connected surface: (1, beta, 1)."""
    return SingProfile(1, pr.beta, 1)


def fixed_sing(pr: InvariantProfile) -> SingProfile:
    """Betti numbers of the fixed set.

    Nonfree: F points and C circles, so (F + C, C, 0).  Free: empty.
    Trivial: the fixed set is the whole surface.
    """
    if pr.kind == TRIVIAL:
        return underlying_sing(pr)
    if pr.kind == NONFREE:
        return SingProfile(pr.fixed_points + pr.fixed_circles, pr.fixed_circles, 0)
    return SingProfile(0, 0, 0)


def quotient_sing(pr: InvariantProfile) -> SingProfile:
    """Betti numbers of the orbit space.

    For a nontrivial action, chi(X) = 2 chi(X/C2) - chi(fixed set) with
    chi(fixed set) = F; the C fixed circles become boundary circles of the
    quotient, so h2 = 1 exactly when C = 0.  For the trivial action the
    quotient is the surface itself.
    """
    if pr.kind == TRIVIAL:
        return underlying_sing(pr)
    chi = 2 - pr.beta
    assert (chi + pr.fixed_points) % 2 == 0
    chi_q = (chi + pr.fixed_points) // 2
    h2 = 1 if pr.fixed_circles == 0 else 0
    h1 = 1 + h2 - chi_q
    assert h1 >= 0
    return SingProfile(1, h1, h2)


# ---------------------------------------------------------------------------
# Catalog enumeration.  Two independent generators must agree:
#   * scan: direct enumeration of the realizability inequalities;
#   * words: breadth-first search over surgery words.
# Every enumerated op raises beta by at least one (connected sums with the
# sphere are skipped), so the search terminates within beta_max steps.


def profiles_by_scan(beta_max: int) -> set[InvariantProfile]:
    out: set[InvariantProfile] = set()
    for beta in range(beta_max + 1):
        out.add(InvariantProfile(TRIVIAL, beta))
        if beta % 2 == 0:
            out.add(InvariantProfile(FREE_SPHERE, beta))
            if beta >= 2:
                out.add(InvariantProfile(FREE_TORUS, beta))
            for f in range(2, beta + 3, 2):
                if beta >= f - 2:
                    out.add(InvariantProfile(NONFREE, beta, f, 0))
        for c in range(1, (beta + 2) // 2 + 1):
            for f in range(beta % 2, beta + 3 - 2 * c, 2):
                out.add(InvariantProfile(NONFREE, beta, f, c))
    return out


def _enumeration_ops(beta_budget: int) -> list[Op]:
    ops = [Op("AT11"), Op("AT10"), Op("FM"), Op("DCC")]
    ops += [Op("CS", ClosedSurface(True, g)) for g in range(1, beta_budget // 4 + 1)]
    ops += [Op("CS", ClosedSurface(False, s)) for s in range(1, beta_budget // 2 + 1)]
    return ops


def profiles_by_words(beta_max: int) -> dict[InvariantProfile, SurgeryWord]:
    """All profiles reachable by words with beta <= beta_max, each with the
    first witness found (deterministic breadth-first order)."""
    witnesses: dict[InvariantProfile, SurgeryWord] = {}
    for beta in range(beta_max + 1):
        surf = ClosedSurface(True, beta // 2) if beta % 2 == 0 else ClosedSurface(False, beta)
        word = SurgeryWord(Base("triv", surf))
        witnesses.setdefault(invariants(word), word)
    queue = []
    for token in BASE_TOKENS:
        word = SurgeryWord(Base(token))
        pr = invariants(word)
        if pr.beta <= beta_max and pr not in witnesses:
            witnesses[pr] = word
            queue.append((pr, word))
    while queue:
        next_queue = []
        for pr, word in queue:
            for op in _enumeration_ops(beta_max - pr.beta):
                try:
                    nxt = apply_op(pr, op)
                except WordError:
                    continue
                if nxt.beta > beta_max or nxt in witnesses:
                    continue
                nxt_word = SurgeryWord(word.base, word.ops + (op,))
                witnesses[nxt] = nxt_word
                next_queue.append((nxt, nxt_word))
        queue = next_queue
    return witnesses


def witnessed_profiles(beta_max: int) -> dict[InvariantProfile, SurgeryWord]:
    """All valid profiles with beta <= beta_max, sorted, each mapped to its
    first witness word.  Produced by both generators; a discrepancy raises
    RealizabilityError (it must be reported, never silently accepted)."""
    scanned = profiles_by_scan(beta_max)
    witnesses = profiles_by_words(beta_max)
    if scanned != witnesses.keys():
        missing = sorted(scanned - witnesses.keys(), key=InvariantProfile.sort_key)
        extra = sorted(witnesses.keys() - scanned, key=InvariantProfile.sort_key)
        raise RealizabilityError(
            f"profile generators disagree: scan-only={missing} word-only={extra}")
    return {pr: witnesses[pr] for pr in sorted(scanned, key=InvariantProfile.sort_key)}


def enumerate_profiles(beta_max: int) -> list[InvariantProfile]:
    """The keys of ``witnessed_profiles``, as a sorted list."""
    return list(witnessed_profiles(beta_max))
