"""Shared independent oracles and golden data for the test suite.

Everything here is deliberately naive: the point is that these paths
share no code with the implementations they check.  The exception is
``Affine`` and ``CELL_PROFILES``: they evaluate the package's own per-cell
tables on symbols, so that the tests prove the tables for every beta.

Each recorded answer is written here once, for every test and for
``tools/bench_layers.py``: the hand-worked answers (``WORKED``) and the
mutant sweep with the count and digest of its reports.
"""

from __future__ import annotations

import argparse
import random
from collections import Counter
from typing import NamedTuple

from c2surf.bigraded import Bidegree, Decomposition, Summand
from c2surf.checks import DEFAULT_LES_WINDOW, Violation
from c2surf.engine import closed_form
from c2surf.surfaces import (
    BASE_TOKENS,
    FREE_SPHERE,
    FREE_TORUS,
    KINDS,
    NONFREE,
    TRIVIAL,
    Base,
    ClosedSurface,
    InvariantProfile,
    Op,
    ParseError,
    SurgeryWord,
    WordError,
    _ProfileFields,
    apply_op,
    base_profile,
    enumerate_profiles,
    fixed_sing,
    quotient_sing,
    underlying_sing,
)

M2 = Summand.free(0, 0)
S10 = Summand.free(1, 0)
S11 = Summand.free(1, 1)
S21 = Summand.free(2, 1)
S22 = Summand.free(2, 2)
A0_1 = Summand.antipodal(1, 0)


class Worked(NamedTuple):
    """A hand-worked answer: the word or profile JSON it comes from, its
    profile, and the answer as ``compute`` prints it, as ``compute --json``
    prints it (the compact wire JSON) and as a decomposition."""

    source: str
    profile: InvariantProfile
    text: str
    json: str
    answer: Decomposition


# The paper's three worked examples.
X1 = Worked("S21 + AT10", InvariantProfile(NONFREE, 2, 0, 2),
            "M2 + S(1,0)M2 + S(1,1)M2 + S(2,1)M2",
            '{"free":[[0,0,1],[1,0,1],[1,1,1],[2,1,1]],"antipodal":[]}',
            Decomposition([M2, S10, S11, S21]))
X2 = Worked('{"kind":"nonfree","beta":14,"F":8,"C":0}', InvariantProfile(NONFREE, 14, 8, 0),
            "M2 + S(1,1)M2^6 + S(2,2)M2 + S(1,0)A0^4",
            '{"free":[[0,0,1],[1,1,6],[2,2,1]],"antipodal":[[1,0,4]]}',
            Decomposition([M2] + [S11] * 6 + [A0_1] * 4 + [S22]))
X3 = Worked("S22 + FM", InvariantProfile(NONFREE, 1, 1, 1), "M2 + S(1,1)M2 + S(2,1)M2",
            '{"free":[[0,0,1],[1,1,1],[2,1,1]],"antipodal":[]}',
            Decomposition([M2, S11, S21]))
_T1A = Worked("T1a", InvariantProfile(FREE_TORUS, 2), "A1 + S(1,0)A1",
              '{"free":[],"antipodal":[[0,1,1],[1,1,1]]}',
              Decomposition([Summand.antipodal(0, 1), Summand.antipodal(1, 1)]))

# Every hand-worked answer, keyed by its source: the three above, the free
# examples (the two free tori are one profile), the two nonfree bases and a
# trivial action.
WORKED = {w.source: w for w in (
    X1, X2, X3,
    Worked("S2a + CS(T[1])", InvariantProfile(FREE_SPHERE, 4), "A2 + S(1,0)A0^2",
           '{"free":[],"antipodal":[[0,2,1],[1,0,2]]}',
           Decomposition([A0_1, A0_1, Summand.antipodal(0, 2)])),
    _T1A, _T1A._replace(source="T1r"),
    Worked("T1a + DCC", InvariantProfile(FREE_TORUS, 4), "A1 + S(1,0)A0 + S(1,0)A1",
           '{"free":[],"antipodal":[[0,1,1],[1,0,1],[1,1,1]]}',
           Decomposition([Summand.antipodal(0, 1), A0_1, Summand.antipodal(1, 1)])),
    Worked("S22", InvariantProfile(NONFREE, 0, 2, 0), "M2 + S(2,2)M2",
           '{"free":[[0,0,1],[2,2,1]],"antipodal":[]}', Decomposition([M2, S22])),
    Worked("S21", InvariantProfile(NONFREE, 0, 0, 1), "M2 + S(2,1)M2",
           '{"free":[[0,0,1],[2,1,1]],"antipodal":[]}', Decomposition([M2, S21])),
    Worked("triv:T[1]", InvariantProfile(TRIVIAL, 2), "M2 + S(1,0)M2^2 + S(2,0)M2",
           '{"free":[[0,0,1],[1,0,2],[2,0,1]],"antipodal":[]}',
           Decomposition([M2, S10, S10, Summand.free(2, 0)])),
)}


def mutant_sweep() -> list[tuple[Decomposition, InvariantProfile]]:
    """The single-summand mutants of the closed forms of the profiles with
    beta <= 8, each with its profile, in the order acceptance criterion 6
    judges them: per profile, each summand removed once, then each free
    summand with p, q in [-4, 12] and each antipodal one with p in [-4, 12]
    and n <= 4 added once."""
    pool = ([Summand.free(p, q) for p in range(-4, 13) for q in range(-4, 13)]
            + [Summand.antipodal(p, n) for p in range(-4, 13) for n in range(5)])
    cases = []
    for pr in enumerate_profiles(8):
        d = closed_form(pr)
        cases += [(d.remove(s), pr) for s, _ in d.items()]
        cases += [(d.direct_sum(Decomposition([s])), pr) for s in pool]
    return cases


# The number of mutants, and the count and SHA-256 of every report that
# verify_decomposition makes on them, one "<violation>\n" line each, in
# sweep order: a check that drops, repeats, reorders or rewords a report
# changes the last two.
MUTANTS = 33_228
MUTANT_REPORTS = 209_156
MUTANT_REPORTS_SHA256 = "fd9ce914ec6bfc0b51268bec56d594c6593ed786e5a29b9068a3b16a75c77129"


def naive_rank(rows: list[list[int]]) -> int:
    """Textbook O(n^3) Gaussian elimination over GF(2) on list-of-lists."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, n_rows):
            if m[r][col] % 2 == 1:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(n_rows):
            if r != rank and m[r][col] % 2 == 1:
                m[r] = [(a + b) % 2 for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# The basic modules written out as inequalities, at a bidegree (p, q)
# relative to the summand's shift.  M2: the top cone rho^p tau^(q-p), and
# the bottom cone theta/(rho^i tau^j) at (-i, -2-i-j); rho kills the column
# p = 0 of the bottom cone and tau its edge q = p - 2.  A_n: the n+1 columns
# 0 <= p <= n, rho^(n+1) = 0 and tau invertible.


def m2_dim(p, q):
    return int(0 <= p <= q or q + 2 <= p <= 0)


def m2_rho_rank(p, q):
    return int(0 <= p <= q or q + 2 <= p <= -1)


def m2_tau_rank(p, q):
    return int(0 <= p <= q or q + 3 <= p <= 0)


def an_dim(n, p):
    return int(0 <= p <= n)


def an_rho_rank(n, p):
    return int(0 <= p < n)


def reference(pairs, p, q) -> tuple[int, int, int]:
    """Dimension, rho rank and tau rank at (p, q) of the sum of ``pairs``,
    ``(((a, b), n), count)`` as ``Decomposition.items`` gives them, each
    summand read from the inequalities above."""
    total = [0, 0, 0]
    for ((a, b), n), c in pairs:
        x, y = p - a, q - b
        if n is None:
            values = m2_dim(x, y), m2_rho_rank(x, y), m2_tau_rank(x, y)
        else:
            values = an_dim(n, x), an_rho_rank(n, x), an_dim(n, x)
        total = [t + c * v for t, v in zip(total, values)]
    return tuple(total)


def betti_at(sing, p: int) -> int:
    """The Betti number of ``sing`` in degree ``p``: 0 outside [0, 2]."""
    return sing[p] if 0 <= p <= 2 else 0


def naive_forgetful_les(d, sing, window) -> list[Violation]:
    """The forgetful-sequence rank identity swept bidegree by bidegree, each
    side read from ``reference``: it shares no module geometry with
    ``check_forgetful_les`` or with ``c2surf.bigraded``."""
    items = list(d.items())
    out = []
    for p in range(window.pmin, window.pmax + 1):
        for q in range(window.qmin, window.qmax + 1):
            expected = betti_at(sing, p)
            dim, rho, _ = reference(items, p, q)
            actual = (reference(items, p, q + 1)[0] + dim
                      - reference(items, p - 1, q)[1] - rho)
            if actual != expected:
                out.append(Violation("forgetful-les", f"({p},{q})", expected, actual))
    return out


def naive_verify(d, pr) -> list[Violation]:
    """``verify_decomposition`` as five separate walks over the summands,
    one per check, each building its own count: it shares no tally and no
    per-summand memo with ``c2surf.checks``."""
    out = []

    betti = quotient_sing(pr)
    row = {0: 0, 1: 0, 2: 0}
    for s, c in d.items():
        for p in s.row_support(0):
            row[p] = row.get(p, 0) + c
    for p in sorted(row):
        if row[p] != betti_at(betti, p):
            out.append(Violation("quotient-row", f"({p},0)", betti_at(betti, p), row[p]))

    fixed = fixed_sing(pr)
    expected = {k: betti_at(fixed, k) for k in (0, 1, 2) if betti_at(fixed, k)}
    actual = {}
    for s, c in d.items():
        if s.is_free:
            k = s.shift.p - s.shift.q
            actual[k] = actual.get(k, 0) + c
    if expected != actual:
        out.append(Violation("rho-localization", "fixed-set degrees",
                             [[k, expected[k]] for k in sorted(expected)],
                             [[k, actual[k]] for k in sorted(actual)]))

    sing = underlying_sing(pr)
    classes = {}
    for s, c in d.items():
        for p in s.underlying_degrees():
            classes[p] = classes.get(p, 0) + c
    for p in range(DEFAULT_LES_WINDOW.pmin, DEFAULT_LES_WINDOW.pmax + 1):
        actual = classes.get(p, 0)
        if actual != betti_at(sing, p):
            out.append(Violation("forgetful-les", f"p={p}", betti_at(sing, p), actual))

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
        out.append(Violation("top-class", "free summands with p >= 2",
                             [[*b, want[b]] for b in sorted(want)],
                             [[*b, tops[b]] for b in sorted(tops)]))

    recovered = 0
    for s, c in d.items():
        recovered += c * s.underlying_degrees().count(1)
    if recovered != pr.beta:
        out.append(Violation("beta-recovery", "beta", pr.beta, recovered))
    return out


class Affine:
    """An affine form k0 + k1 x + k2 y + k3 z + k4 w with integer
    coefficients, in four parameters that range over the natural numbers:
    x, y, z of a cell's profiles, and w, the beta of the surface that CS
    sums in.

    The per-cell tables of ``c2surf`` evaluate on these as on ints, so a
    profile's fields as forms give every table's answer for every profile
    of a cell at once.  ``+``, ``-`` and ``*`` by an int are exact; ``// n``
    divides every coefficient, and raises ArithmeticError unless each is a
    multiple of n, so a floor is never taken.  ``==`` compares the
    coefficients with those of the other form, or of an int: two forms
    that agree on every point have equal coefficients.  A form has no
    truth value (TypeError), so a table entry that branches on one fails.
    """

    __slots__ = ("k",)

    def __init__(self, *k: int):
        self.k = k + (0,) * (5 - len(k))

    @staticmethod
    def of(v) -> "Affine":
        """``v`` itself if a form, else the constant form of the int ``v``."""
        if isinstance(v, Affine):
            return v
        assert type(v) is int, v
        return Affine(v)

    def __add__(self, other) -> "Affine":
        return Affine(*(a + b for a, b in zip(self.k, Affine.of(other).k)))

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine(*(-a for a in self.k))

    def __sub__(self, other) -> "Affine":
        return self + -Affine.of(other)

    def __rsub__(self, other) -> "Affine":
        return -self + other

    def __mul__(self, n: int) -> "Affine":
        assert type(n) is int, n
        return Affine(*(a * n for a in self.k))

    __rmul__ = __mul__

    def __floordiv__(self, n: int) -> "Affine":
        if any(a % n for a in self.k):
            raise ArithmeticError(f"({self}) // {n} is not exact")
        return Affine(*(a // n for a in self.k))

    def __eq__(self, other) -> bool:
        if type(other) is int:
            other = Affine(other)
        return isinstance(other, Affine) and self.k == other.k

    __hash__ = None

    def __bool__(self):
        raise TypeError(f"the form {self} has no truth value")

    def nonnegative(self) -> bool:
        """Nonnegative at every point: a negative constant fails at 0, a
        negative coefficient far out along its parameter."""
        return min(self.k) >= 0

    def at(self, x: int, y: int, z: int, w: int = 0) -> int:
        k0, k1, k2, k3, k4 = self.k
        return k0 + k1 * x + k2 * y + k3 * z + k4 * w

    def __repr__(self) -> str:
        terms = [f"{a}{name}" for a, name in zip(self.k, ("", "x", "y", "z", "w")) if a]
        return " + ".join(terms) or "0"


X, Y, Z, W = Affine(0, 1), Affine(0, 0, 1), Affine(0, 0, 0, 1), Affine(0, 0, 0, 0, 1)
_0 = Affine(0)

# The profiles of each realizable cell (kind, C == 0), with beta, F and C
# as forms in x, y, z >= 0: every point is a profile of the cell, and
# every profile of the cell is one point (``validate_profile``'s
# inequalities, solved; the tests compare both sides up to a beta bound).
# Free: beta even, and >= 2 on a torus.  Nonfree, C = 0: F even and >= 2,
# beta >= F - 2, beta = F (mod 2).  Nonfree, C > 0: beta >= F + 2C - 2,
# beta = F (mod 2).
CELL_PROFILES = {
    (TRIVIAL, True): _ProfileFields(TRIVIAL, X, _0, _0),
    (FREE_SPHERE, True): _ProfileFields(FREE_SPHERE, 2 * X, _0, _0),
    (FREE_TORUS, True): _ProfileFields(FREE_TORUS, 2 * X + 2, _0, _0),
    (NONFREE, True): _ProfileFields(NONFREE, 2 * X + 2 * Y, 2 * Y + 2, _0),
    (NONFREE, False): _ProfileFields(NONFREE, 2 * X + Y + 2 * Z, Y, Z + 1),
}


def nonzero(counts) -> dict:
    """A count table with forms or ints as values, as forms, without the
    ones that are zero at every point: the table a tally keeps."""
    out = {key: Affine.of(v) for key, v in dict(counts).items()}
    return {key: v for key, v in out.items() if v != 0}


def naive_render_grid(d, p_range, q_range) -> str:
    """The dimension grid drawn cell by cell, every bidegree read from
    ``reference``: it shares no module geometry with ``render_grid``."""
    (pmin, pmax), (qmin, qmax) = p_range, q_range
    items = list(d.items())
    rows = []
    for q in range(qmax, qmin - 1, -1):
        row = ""
        for p in range(pmin, pmax + 1):
            total = reference(items, p, q)[0]
            row += "." if total == 0 else "+" if total >= 10 else str(total)
        rows.append(row)
    return "\n".join(rows)


def naive_items(pairs) -> list[tuple[tuple, int]]:
    """The ``(((p, q), n), count)`` pairs of a decomposition, which compare
    equal to its ``(summand, count)`` pairs, from ``((p, q, n), count)``
    pairs (n None for M2, counts may repeat a summand or be negative),
    summed in a ``Counter`` and ordered by the documented rule: free
    summands by (p, q), then antipodal ones by (p, n), an antipodal weight
    being 0.  Nonpositive totals are dropped."""
    counts = Counter()
    for (p, q, n), c in pairs:
        counts[p, 0 if n is not None else q, n] += c
    counts = +counts
    free = sorted((p, q) for p, q, n in counts if n is None)
    anti = sorted((p, n) for p, q, n in counts if n is not None)
    return ([(((p, q), None), counts[p, q, None]) for p, q in free]
            + [(((p, 0), n), counts[p, 0, n]) for p, n in anti])


def naive_render(items) -> tuple[str, dict]:
    """``str`` and ``to_json_obj`` of a decomposition with these pairs."""
    words, free, anti = [], [], []
    for s, c in items:
        (p, q), n = s
        core = "M2" if n is None else f"A{n}"
        words.append(("" if (p, q) == (0, 0) else f"S({p},{q})") + core
                     + (f"^{c}" if c > 1 else ""))
        if n is None:
            free.append([p, q, c])
        else:
            anti.append([p, n, c])
    return " + ".join(words) or "0", {"free": free, "antipodal": anti}


def search_profiles_by_words(beta_max: int) -> dict:
    """Every profile with beta <= beta_max that a surgery word reaches,
    each with the first word found by a breadth-first search, ordered by
    (beta, kind in ``KINDS`` order, F, C).

    This is the plain definition of the catalog's witness: the trivial
    surfaces first, then the bases in ``BASE_TOKENS`` order, then one op
    at a time, each queue entry trying the whole op list (AT11, AT10, FM,
    DCC, then every CS that fits the bound) through ``apply_op``.  Every op
    raises beta, so the search stops within beta_max levels.  It shares the
    surgery step with ``invariants``, and nothing with the scan or the
    closed-form witnesses it checks.
    """
    witnesses = {}
    for beta in range(beta_max + 1):
        surf = ClosedSurface(True, beta // 2) if beta % 2 == 0 else ClosedSurface(False, beta)
        word = SurgeryWord(Base("triv", surf))
        witnesses.setdefault(base_profile(word.base), word)
    queue = []
    for token in BASE_TOKENS:
        word = SurgeryWord(Base(token))
        pr = base_profile(word.base)
        if pr.beta <= beta_max and pr not in witnesses:
            witnesses[pr] = word
            queue.append((pr, word))
    ops = ([Op(token) for token in ("AT11", "AT10", "FM", "DCC")]
           + [Op("CS", ClosedSurface(True, g)) for g in range(1, beta_max // 4 + 1)]
           + [Op("CS", ClosedSurface(False, s)) for s in range(1, beta_max // 2 + 1)])
    while queue:
        next_queue = []
        for pr, word in queue:
            for op in ops:
                try:
                    nxt = apply_op(pr, op)
                except WordError:
                    continue
                if nxt.beta <= beta_max and nxt not in witnesses:
                    witnesses[nxt] = SurgeryWord(word.base, word.ops + (op,))
                    next_queue.append((nxt, witnesses[nxt]))
        queue = next_queue
    order = sorted(witnesses, key=lambda pr: (pr.beta, KINDS.index(pr.kind),
                                              pr.fixed_points, pr.fixed_circles))
    return {pr: witnesses[pr] for pr in order}


def naive_surface(body: str, at: int) -> ClosedSurface:
    """The surface of a descriptor ``T[g]`` or ``N[s]`` that starts at
    ``at``, read character by character, or its ParseError there: the
    genus is one or more ASCII digits."""
    bad = ParseError(f"bad surface descriptor {body!r} (want T[g] or N[s])", at)
    letter, digits = body[:2], body[2:-1]
    if (letter not in ("T[", "N[") or not body.endswith("]") or not digits
            or not all("0" <= ch <= "9" for ch in digits)):
        raise bad
    try:
        genus = int(digits)
    except ValueError:              # more digits than int() accepts
        raise bad from None
    if letter == "N[" and genus == 0:
        raise ParseError("nonorientable genus must be >= 1", at)
    return ClosedSurface(letter == "T[", genus)


def naive_parse_word(text: str) -> SurgeryWord:
    """The word parser as it was before its token tables: each piece is
    stripped, located with ``raw.index`` and built as a fresh ``Base`` or
    ``Op``, its surface read by ``naive_surface``.  The reference for
    ``parse_word``'s words, error positions and messages."""
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
                base = Base("triv", naive_surface(token[5:], at + 5))
            else:
                raise ParseError(f"unknown base {token!r}", at)
        else:
            if token in ("AT11", "AT10", "FM", "DCC"):
                ops.append(Op(token))
            elif token.startswith("CS(") and token.endswith(")"):
                ops.append(Op("CS", naive_surface(token[3:-1], at + 3)))
            else:
                raise ParseError(f"unknown op {token!r}", at)
        pos += len(raw) + 1
    return SurgeryWord(base, tuple(ops))


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's parser as argparse declared it before its grammar table,
    one ``add_argument`` per flag: the reference for the namespaces
    ``cli._read`` builds and for the help strings it prints."""
    parser = argparse.ArgumentParser(
        prog="c2surf",
        description="RO(C2)-graded mod-2 cohomology of surfaces with involution")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="decomposition of a word or profile")
    compute.add_argument("input", help="surgery word or profile JSON")
    compute.add_argument("--json", action="store_true", help="canonical JSON output")
    compute.add_argument("--grid", action="store_true", help="ASCII dimension grid")
    compute.add_argument("--reduced", action="store_true",
                         help="strip the unshifted M2 summand (nonfree/trivial only)")
    compute.add_argument("--window", metavar="P0:P1,Q0:Q1", default=None,
                         help="grid window (with --grid)")

    verify = sub.add_parser("verify", help="check a decomposition against the oracles")
    verify.add_argument("input", help="surgery word or profile JSON")
    verify.add_argument("--json", action="store_true", help="JSON violation report")
    verify.add_argument("--inject", metavar="drop:P,Q", default=None,
                        help="corrupt the decomposition first (testing hook)")

    catalog = sub.add_parser("catalog", help="verified catalog up to a beta bound")
    catalog.add_argument("beta_max")
    return parser


def random_matrix(rng: random.Random, max_side: int = 64) -> list[list[int]]:
    rows = rng.randint(0, max_side)
    cols = rng.randint(0, max_side)
    density = rng.choice([0.05, 0.2, 0.5, 0.9])
    return [[1 if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


# Hand-built Delta-complexes of surfaces: name -> (d1, d2, mod-2 Betti
# numbers).  d1 has a row per vertex and a column per edge (a loop's two
# ends cancel mod 2); d2 has a row per edge and a column per face.  Each
# has a nonzero boundary map, and its Betti numbers are the textbook ones.
# Mod 2 the Klein bottle's matrices are the torus's, so it is not listed.
DELTA_COMPLEXES = {
    # One vertex, loops a, b, c; both triangles are bounded by a + b + c.
    "torus": ([[0, 0, 0]],
              [[1, 1], [1, 1], [1, 1]],
              (1, 2, 1)),
    # Vertices v, w; a and b run from v to w, c is a loop at v; both
    # triangles are bounded by a + b + c.
    "RP2": ([[1, 1, 0], [1, 1, 0]],
            [[1, 1], [1, 1], [1, 1]],
            (1, 1, 1)),
    # A triangle's vertices and edges, with two faces glued along all three.
    "sphere": ([[1, 0, 1], [1, 1, 0], [0, 1, 1]],
               [[1, 1], [1, 1], [1, 1]],
               (1, 0, 1)),
    # A square with two opposite sides glued: vertices v (bottom), w (top);
    # edges: bottom loop at v, top loop at w, side and diagonal from v to w;
    # triangles bottom + side + diagonal and top + side + diagonal.
    "annulus": ([[0, 0, 1, 1], [0, 0, 1, 1]],
                [[1, 0], [0, 1], [1, 1], [1, 1]],
                (1, 1, 0)),
    # The same square glued with a twist: the bottom and top edges and the
    # side run between v and w, and the diagonal is a loop at v.
    "Moebius": ([[1, 1, 1, 0], [1, 1, 1, 0]],
                [[1, 0], [0, 1], [1, 1], [1, 1]],
                (1, 1, 0)),
    # The octagon a b a' b' c d c' d' on one vertex, fanned from one corner
    # into six triangles by diagonals e2..e6; edges a, b, c, d, e2, ..., e6.
    "genus2": ([[0] * 9],
               [[1, 1, 0, 0, 0, 0],
                [1, 0, 1, 0, 0, 0],
                [0, 0, 0, 1, 0, 1],
                [0, 0, 0, 0, 1, 1],
                [1, 1, 0, 0, 0, 0],
                [0, 1, 1, 0, 0, 0],
                [0, 0, 1, 1, 0, 0],
                [0, 0, 0, 1, 1, 0],
                [0, 0, 0, 0, 1, 1]],
               (1, 4, 1)),
}


def theta_divided_positions(bound: int = 5) -> set[tuple[int, int]]:
    """Bottom-cone spots of the point module, enumerated from the
    divisibility rules: theta/(rho^i tau^j) lives in (-i, -2 - i - j)."""
    return {(-i, -2 - i - j) for i in range(bound + 1) for j in range(bound + 1)}


# Hand transcriptions of the dot-grid figures for the four basic modules,
# over p in [0, 3] and q from 5 down to -5.
GOLDEN_M2_0_3 = [
    "1111",  # q = 5
    "1111",
    "1111",
    "111.",
    "11..",
    "1...",  # q = 0
    "....",
    "1...",  # q = -2: theta
    "1...",
    "1...",
    "1...",  # q = -5
]
GOLDEN_A0_0_3 = ["1..."] * 11
GOLDEN_A1_0_3 = ["11.."] * 11
GOLDEN_A2_0_3 = ["111."] * 11

# The point module over p, q in [-3, 3]: both cones visible.
GOLDEN_M2_SQUARE = [
    "...1111",  # q = 3
    "...111.",
    "...11..",
    "...1...",  # q = 0
    ".......",
    "...1...",  # q = -2
    "..11...",  # q = -3
]
