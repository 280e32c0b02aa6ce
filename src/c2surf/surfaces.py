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

Everything here is pure and immutable.  The value types are
``NamedTuple``s: they hash and compare like plain tuples, and the ones
with a rule to keep are ``bigraded._Checked`` value types: a
``ClosedSurface`` has a valid genus, an ``InvariantProfile`` is
realizable, a ``Base`` or ``Op`` has a known
token, with a surface exactly when it is ``triv`` or ``CS``, and a
``SurgeryWord`` is a ``Base`` and a tuple of ``Op``s.  ``parse_word``
reads every piece through one bounded memo (``_read_piece``), which
reads a ``triv:*`` or ``CS(...)`` piece by the ``_FORMAT`` its printer
uses, and ``witness`` hands out plain bases and ops built once, in
tables.  A word's text joins the texts of its pieces, each spelled once
into a bounded memo (``_piece_text``), as a decomposition's text does
(``bigraded._text``).  A surgery is one step on the integer fields
``(kind, beta, F, C)``, taken once per op: ``apply_op`` takes one,
``invariants`` folds a word on them, and both build the
``InvariantProfile`` they end on through a bounded memo keyed by the
four fields, so a profile reached again is not validated again.  The
fixed set's Betti numbers are read from one table, ``_FIXED_SING``, keyed
by ``cell(pr) = (kind, C == 0)``; the orbit space's follow from them by
the Euler characteristic.  The catalog needs
no search: ``enumerate_profiles`` scans the realizability inequalities,
and ``witness`` writes down a shortest word for each profile, its last
op, if it needs one to fill beta, shared through a bounded memo
(``_fill``).

>>> invariants(parse_word("S21 + AT10"))
InvariantProfile(kind='nonfree', beta=2, fixed_points=0, fixed_circles=2)
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

from .bigraded import _Checked, _is_int

TRIVIAL = "trivial"
FREE_SPHERE = "free-sphere"
FREE_TORUS = "free-torus"
NONFREE = "nonfree"
KINDS = (TRIVIAL, FREE_SPHERE, FREE_TORUS, NONFREE)

BASE_TOKENS = ("S22", "S21", "S2a", "T1a", "T1r")


class ParseError(ValueError):
    """A word or surface descriptor that does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.message = message
        self.position = position


class WordError(ValueError):
    """A syntactically fine word whose surgery sequence is not realizable."""

    def __init__(self, message: str, op_index: int | None = None):
        # Without an index (``apply_op``, ``transform``) the message names
        # the op by itself; ``invariants`` adds its index.
        super().__init__(message if op_index is None else f"op {op_index}: {message}")
        self.op_index = op_index


class ProfileError(ValueError):
    """An invariant triple that no closed C2-surface realizes."""


class _SurfaceFields(NamedTuple):
    orientable: bool
    genus: int


class ClosedSurface(_Checked, _SurfaceFields):
    """A nonequivariant closed surface: T[g] (orientable, genus g >= 0)
    or N[s] (nonorientable, cross-cap number s >= 1)."""

    __slots__ = ()

    def __new__(cls, orientable: bool, genus: int) -> "ClosedSurface":
        if not _is_int(genus):
            raise ValueError(f"genus must be an integer, got {genus!r}")
        if orientable and genus < 0:
            raise ValueError("orientable genus must be >= 0")
        if not orientable and genus < 1:
            raise ValueError("nonorientable genus must be >= 1")
        return tuple.__new__(cls, (orientable, genus))

    @property
    def beta(self) -> int:
        # With Z/2 coefficients h1(T_g) = 2g and h1(N_s) = s.
        return 2 * self.genus if self.orientable else self.genus

    def __str__(self) -> str:
        return f"{'T' if self.orientable else 'N'}[{self.genus}]"


_SURFACE_RE = re.compile(r"([TN])\[([0-9]+)\]")


def parse_surface(token: str) -> ClosedSurface:
    m = _SURFACE_RE.fullmatch(token)
    try:
        genus = int(m.group(2)) if m else None
    except ValueError:              # more digits than int() accepts
        genus = None
    if genus is None:
        raise ParseError(f"bad surface descriptor {token!r} (want T[g] or N[s])", 0)
    try:
        return ClosedSurface(m.group(1) == "T", genus)
    except ValueError as exc:
        raise ParseError(str(exc), 0) from None


class _PieceFields(NamedTuple):
    token: str
    surface: ClosedSurface | None = None


class _Piece(_Checked, _PieceFields):
    """A base or an op: the token ``_WITH_SURFACE`` takes a ``ClosedSurface``,
    and each token of ``_PLAIN`` takes none."""

    __slots__ = ()

    def __new__(cls, token: str, surface: ClosedSurface | None = None):
        if token == cls._WITH_SURFACE:
            if not isinstance(surface, ClosedSurface):
                raise ValueError(f"{token} needs a ClosedSurface, got {surface!r}")
        elif token not in cls._PLAIN:
            raise ValueError(f"unknown {cls.__name__.lower()} token {token!r}")
        elif surface is not None:
            raise ValueError(f"{token} takes no surface, got {surface!r}")
        return tuple.__new__(cls, (token, surface))

    def __str__(self) -> str:
        return self.token if self.surface is None else self._FORMAT.format(self.surface)


class Base(_Piece):
    __slots__ = ()
    _WITH_SURFACE, _PLAIN, _FORMAT = "triv", BASE_TOKENS, "triv:{}"


class Op(_Piece):
    __slots__ = ()
    _WITH_SURFACE, _PLAIN, _FORMAT = "CS", ("AT11", "AT10", "FM", "DCC"), "CS({})"


class _WordFields(NamedTuple):
    base: Base
    ops: tuple[Op, ...] = ()


class SurgeryWord(_Checked, _WordFields):
    """A ``Base`` and a tuple of ``Op``s; anything else is a ValueError that
    names it, never coerced (a list of ops included)."""

    __slots__ = ()

    def __new__(cls, base: Base, ops: tuple[Op, ...] = ()) -> "SurgeryWord":
        if not isinstance(base, Base):
            raise ValueError(f"a word's base must be a Base, got {base!r}")
        if type(ops) is not tuple:
            raise ValueError(f"a word's ops must be a tuple, got {ops!r}")
        for op in ops:
            if not isinstance(op, Op):
                raise ValueError(f"a word's op must be an Op, got {op!r}")
        return tuple.__new__(cls, (base, ops))

    def __str__(self) -> str:
        return " + ".join([_piece_text(self.base), *map(_piece_text, self.ops)])


# ``_Piece.__str__`` through a bounded memo: a catalog's words repeat a few
# pieces, each spelled once.  No base token is an op token, so a piece's two
# fields alone pick its text.
_piece_text = lru_cache(maxsize=256)(_Piece.__str__)

# The plain tokens, built once, for ``witness`` and ``_fill`` to hand out.
_BASES = {token: Base(token) for token in Base._PLAIN}
_OPS = {token: Op(token) for token in Op._PLAIN}
# Builds a word of ``parse_word`` or ``witness`` from checked pieces, without
# the Python-level ``__new__`` of ``SurgeryWord``.
_new = tuple.__new__


def parse_word(text: str) -> SurgeryWord:
    """Parse the word DSL; raises ParseError with a character position.
    Piece 0 is read by ``_read_piece`` as a ``Base``, the rest as ``Op``s,
    so the word is built without ``SurgeryWord.__new__``'s checks (``_new``).

    >>> str(parse_word("S2a + CS(T[1])"))
    'S2a + CS(T[1])'
    """
    pieces, pos = [], 0
    for raw in text.split("+"):
        token = raw.strip()
        try:
            pieces.append(_read_piece(Op if pieces else Base, token))
        except ParseError as exc:
            raise ParseError(exc.message, pos + raw.index(token) + exc.position) from None
        pos += len(raw) + 1
    return _new(SurgeryWord, (pieces[0], tuple(pieces[1:])))


@lru_cache(maxsize=256)
def _read_piece(want: type, token: str) -> Base | Op:
    """The ``want`` (``Base`` or ``Op``) that a stripped token spells: a
    plain token, or ``want._FORMAT`` around a surface; else a ParseError at
    an offset in the token.  Memoized, as words repeat few pieces; an
    exception is not kept, so a bad piece is read again each time."""
    if token in want._PLAIN:
        return want(token)
    head, tail = want._FORMAT.split("{}")
    if not (token.startswith(head) and token.endswith(tail)):
        raise ParseError(f"unknown {want.__name__.lower()} {token!r}" if token else "empty token", 0)
    try:
        return want(want._WITH_SURFACE, parse_surface(token[len(head):len(token) - len(tail)]))
    except ParseError as exc:
        raise ParseError(exc.message, len(head)) from None


# ---------------------------------------------------------------------------
# Invariant profiles.


_PROFILE_KEYS = frozenset({"kind", "beta", "F", "C"})


class _ProfileFields(NamedTuple):
    kind: str
    beta: int
    fixed_points: int
    fixed_circles: int


class InvariantProfile(_Checked, _ProfileFields):
    """The data the cohomology depends on: kind, beta, and the fixed-set
    counts (isolated points, circles).

    Every instance is valid: construction runs ``validate_profile`` and
    raises ``ProfileError`` for a triple that no closed C2-surface
    realizes, or for a field that is not an int.  Downstream code never
    validates a profile again.
    """

    __slots__ = ()

    def __new__(cls, kind: str, beta: int, fixed_points: int = 0,
                fixed_circles: int = 0) -> "InvariantProfile":
        pr = tuple.__new__(cls, (kind, beta, fixed_points, fixed_circles))
        validate_profile(pr)
        return pr

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
        if not _PROFILE_KEYS.issuperset(obj):
            unknown = sorted(map(repr, set(obj) - _PROFILE_KEYS))
            raise ProfileError(f"unknown profile key(s) {', '.join(unknown)}"
                               " (want kind, beta, F, C)")
        return cls(kind, beta, f, c)


def validate_profile(pr: InvariantProfile) -> None:
    """Raise ProfileError naming the violated condition, if any.

    The inequalities carve out exactly the triples realized by closed
    C2-surfaces; they also make every exponent in the closed cohomology
    formulas a nonnegative integer.  beta, F and C must be ints (not bools):
    ``2.5``, ``4.0`` and ``"2"`` are rejected, never coerced.  Three
    exact ``int``s, the common case, skip the per-field type test; an int
    subclass other than bool is still accepted.
    """
    f, c, beta = pr.fixed_points, pr.fixed_circles, pr.beta
    if not (type(beta) is int and type(f) is int and type(c) is int):
        for name, value in (("beta", beta), ("F", f), ("C", c)):
            if not _is_int(value):
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


def _step(kind: str, beta: int, f: int, c: int, op: Op,
          op_index: int | None = None) -> tuple[str, int, int, int]:
    """One surgery on the fields ``(kind, beta, F, C)`` of a profile: the
    fields after it, or WordError when the action so far cannot take it.

    ``apply_op`` and ``invariants`` are this step.  On the fields of a
    valid profile a legal surgery gives the fields of a valid profile;
    callers that need an ``InvariantProfile`` build it, once, from the
    fields they end on.
    """
    if kind == TRIVIAL:
        raise WordError("surgery on trivial action", op_index)
    token = op.token
    if token == "CS":
        # Nonequivariantly X #2 Y is Y # X # Y, so beta grows by 2 beta(Y).
        return kind, beta + 2 * op.surface.beta, f, c
    if token == "DCC":
        # Dual cross caps are the connected sum with a projective plane.
        return kind, beta + 2, f, c
    if token == "AT11":
        return NONFREE, beta + 2, f + 2, c
    if token == "AT10":
        return NONFREE, beta + 2, f, c + 1
    # FM trades an isolated fixed point for a fixed circle.
    if f == 0:
        raise WordError("FM needs an isolated fixed point", op_index)
    return NONFREE, beta + 1, f - 1, c + 1


# The profiles that surgeries reach, keyed by their four fields.  Typed, so
# a field of another type (2.0, True, "2") is never served an int's entry
# and still fails validation; an exception is never cached.
_reached = lru_cache(maxsize=1024, typed=True)(InvariantProfile)


def apply_op(pr: InvariantProfile, op: Op) -> InvariantProfile:
    """Fold one surgery into a profile; raises WordError when the surgery
    is illegal.  The profile it lands on comes from a bounded memo, so a
    profile reached again is not validated again."""
    return _reached(*_step(*pr, op))


def invariants(w: SurgeryWord) -> InvariantProfile:
    """Fold a word down to its invariant profile; raises WordError, naming
    the op's index, at the first op the action so far cannot take.

    The ops fold on integer fields, and one profile is built at the end,
    through the memo of ``apply_op``.  The per-op deltas commute, so the
    result is insensitive to the order of the ops (whenever each order
    validates prefix by prefix).
    """
    pr = base_profile(w.base)
    if not w.ops:
        return pr
    kind, beta, f, c = pr
    for i, op in enumerate(w.ops):
        kind, beta, f, c = _step(kind, beta, f, c, op, i)
    return _reached(kind, beta, f, c)


# ---------------------------------------------------------------------------
# Singular cohomology profiles of the three associated plain spaces.


class SingProfile(NamedTuple):
    """Mod-2 Betti numbers (h0, h1, h2) of a space of dimension <= 2."""

    h0: int
    h1: int
    h2: int


def underlying_sing(pr: InvariantProfile) -> SingProfile:
    """Betti numbers of the underlying closed connected surface: (1, beta, 1)."""
    return SingProfile(1, pr.beta, 1)


def cell(pr: InvariantProfile) -> tuple[str, bool]:
    """The key ``(kind, C == 0)`` of ``_FIXED_SING`` and ``engine._RULES``:
    five cells are realizable, each with a fixed set affine in beta, F, C."""
    return pr.kind, pr.fixed_circles == 0


# The fixed set per cell: F points and C circles, (F + C, C, 0), if
# nonfree; empty if free; the whole surface under the trivial action.
_FIXED_SING = {
    (TRIVIAL, True): lambda b, f, c: (1, b, 1),
    (FREE_SPHERE, True): lambda b, f, c: (0, 0, 0),
    (FREE_TORUS, True): lambda b, f, c: (0, 0, 0),
    (NONFREE, True): lambda b, f, c: (f + c, c, 0),
    (NONFREE, False): lambda b, f, c: (f + c, c, 0),
}


def fixed_sing(pr: InvariantProfile) -> SingProfile:
    """Betti numbers of the fixed set, from ``_FIXED_SING``."""
    return SingProfile(*_FIXED_SING[cell(pr)](*pr[1:]))


def quotient_sing(pr: InvariantProfile) -> SingProfile:
    """Betti numbers of the orbit space X/C2, from the fixed set's in
    ``_FIXED_SING`` by chi(X) = 2 chi(X/C2) - chi(fixed set), halved
    exactly, as the two chi agree mod 2.  X/C2 is connected, and the C
    fixed circles become its boundary circles: h2 = 1 exactly when C = 0."""
    h0, h1, h2 = _FIXED_SING[cell(pr)](*pr[1:])
    top = 1 if pr.fixed_circles == 0 else 0
    return SingProfile(1, 1 + top - (2 - pr.beta + h0 - h1 + h2) // 2, top)


# ---------------------------------------------------------------------------
# Catalog enumeration: the realizability inequalities scanned in order, and
# one witness word per profile in closed form.


def enumerate_profiles(beta_max: int) -> list[InvariantProfile]:
    """Every realizable profile with beta <= beta_max, ordered by (beta,
    kind in ``KINDS`` order, F, C).

    The scan walks the inequalities of ``validate_profile`` directly, and
    each profile is still validated when it is built.

    >>> [pr.kind for pr in enumerate_profiles(0)]
    ['trivial', 'free-sphere', 'nonfree', 'nonfree']
    """
    out = []
    for beta in range(beta_max + 1):
        out.append(InvariantProfile(TRIVIAL, beta))
        if beta % 2 == 0:
            out.append(InvariantProfile(FREE_SPHERE, beta))
            if beta >= 2:
                out.append(InvariantProfile(FREE_TORUS, beta))
        for f in range(beta % 2, beta + 3, 2):
            # C = 0 needs an even F >= 2; every C needs beta >= F + 2C - 2.
            for c in range(0 if f and f % 2 == 0 else 1, (beta + 2 - f) // 2 + 1):
                out.append(InvariantProfile(NONFREE, beta, f, c))
    return out


@lru_cache(maxsize=256)
def _fill(r: int) -> tuple[Op, ...]:
    """The first single op that adds an even r > 0 to beta and nothing
    else (none for r = 0): DCC, else CS(T[r/4]), else CS(N[r/2]).
    Memoized, so the witnesses that share an r share its op."""
    if r == 0:
        return ()
    if r == 2:
        return (_OPS["DCC"],)
    if r % 4 == 0:
        return (Op("CS", ClosedSurface(True, r // 4)),)
    return (Op("CS", ClosedSurface(False, r // 2)),)


def witness(pr: InvariantProfile) -> SurgeryWord:
    """The first word that reaches ``pr`` in a breadth-first search over
    words: a shortest one, and of those the least in base order
    (``BASE_TOKENS``) and then op order (AT11, AT10, FM, DCC, CS(T[g]) by
    g, CS(N[s]) by s).

    A nonfree word makes F mod 2 FMs (each turns a point into a circle),
    one AT11 per pair of points past the base's two and one AT10 per circle
    past the base's and the FM's; the beta left over takes one op more.
    From S21 the count is the same, so S22 is the base unless F = 0.

    >>> str(witness(InvariantProfile(NONFREE, 9, 3, 2)))
    'S22 + AT11 + AT10 + FM + CS(T[1])'
    """
    kind, beta, f, c = pr
    if kind == TRIVIAL:
        surface = ClosedSurface(True, beta // 2) if beta % 2 == 0 else ClosedSurface(False, beta)
        return _new(SurgeryWord, (Base("triv", surface), ()))
    if kind == FREE_SPHERE:
        return _new(SurgeryWord, (_BASES["S2a"], _fill(beta)))
    if kind == FREE_TORUS:
        return _new(SurgeryWord, (_BASES["T1a"], _fill(beta - 2)))
    fm = f % 2
    base, at11, at10 = ("S22", (f + fm) // 2 - 1, c - fm) if f else ("S21", 0, c - 1)
    ops = (_OPS["AT11"],) * at11 + (_OPS["AT10"],) * at10 + (_OPS["FM"],) * fm
    return _new(SurgeryWord, (_BASES[base], ops + _fill(beta - f - 2 * c + 2)))


def profiles_by_words(beta_max: int) -> dict[InvariantProfile, SurgeryWord]:
    """The profiles of ``enumerate_profiles``, in its order, each mapped to
    its ``witness``: the catalog's rows, all held at once.  The ``catalog``
    command builds each witness as it writes its row instead."""
    return {pr: witness(pr) for pr in enumerate_profiles(beta_max)}
