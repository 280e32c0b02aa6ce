"""Shared independent oracles and golden data for the test suite.

Everything here is deliberately naive: the point is that these paths
share no code with the implementations they check.
"""

from __future__ import annotations

import random
from collections import Counter

from c2surf.bigraded import Bidegree
from c2surf.checks import DEFAULT_LES_WINDOW, Violation
from c2surf.surfaces import (
    BASE_TOKENS,
    KINDS,
    NONFREE,
    TRIVIAL,
    Base,
    ClosedSurface,
    Op,
    ParseError,
    SurgeryWord,
    WordError,
    apply_op,
    base_profile,
    fixed_sing,
    parse_surface,
    quotient_sing,
    underlying_sing,
)


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


def naive_parse_word(text: str) -> SurgeryWord:
    """The word parser as it was before its token tables: each piece is
    stripped, located with ``raw.index`` and built as a fresh ``Base`` or
    ``Op``.  The reference for ``parse_word``'s words, error positions and
    messages."""
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


def random_matrix(rng: random.Random, max_side: int = 64) -> list[list[int]]:
    rows = rng.randint(0, max_side)
    cols = rng.randint(0, max_side)
    density = rng.choice([0.05, 0.2, 0.5, 0.9])
    return [[1 if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


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
