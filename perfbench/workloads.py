"""The four workloads: seeded inputs, the timed operation and its check.

Each workload turns a seed into an endless, deterministic stream of inputs
(``inputs``), runs one *unit* of work on an input (``run``, the only timed
code) and checks the unit's output (``check``).  ``run`` may call its
``pause`` argument between the operations of a unit and leaves the seconds
that takes out of its timings.  The package receives only the generated
inputs, through its public functions or ``cli.main``.

An *operation* is what ``ops_per_s`` counts: one catalog row, one surgery
step, one judged mutant or one request.  A unit is one catalog call, one
folded word, one mutant or one request.  A run takes the first
``run_units`` inputs of the stream (``trace_units`` when traced) and goes
over them in passes, so what it judges depends on the seed alone.

``check`` returns a ``Verdict``: operations attempted and failed, how
many of the failures come from a documented defect of the package (see
``KNOWN_DEFECTS``), and the first failure's description.  Known failures
still count as failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from c2surf import checks, cli, engine, surfaces
from c2surf.bigraded import Decomposition, Summand, render_grid

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Defects of the package that the inputs keep on purpose.  Their failures
# are counted in ``failed`` like any other, but do not make a run
# incorrect; any other failure does.
KNOWN_DEFECTS = {
    "far-antipodal-escape": "an added antipodal summand S(p,0)An with p >= 7 lies outside "
                            "every check's window, so verify_decomposition accepts it",
    "non-integer-beta": "profile JSON with a non-integer beta (2.5 or \"2\") is coerced "
                        "by int() and exits 0 instead of 2",
}

# The LES sweep of the default window stops at p = 6.
_LES_PMAX = 6

# The grid window ``compute --grid`` uses when given none.
_GRID_P, _GRID_Q = (-4, 6), (-6, 6)


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    known: int = 0          # failures explained by KNOWN_DEFECTS
    message: str | None = None


@dataclass
class Unit:
    elapsed: float          # seconds, the timed call only
    ops: int                # operations the call performed
    latencies: list         # seconds per operation, as the user sees them
    ends: list              # perf_counter() when each of those ended
    output: object


def _stream_rng(name: str, seed: int) -> random.Random:
    return random.Random(f"c2surf-perfbench/{name}/{seed}")


# ---------------------------------------------------------------------------
# Shared input generators.

FOLD_BASES = ("S22", "S21", "S2a", "T1a", "T1r")
_OP_CHOICES = {
    token: [surfaces.Op(token)] for token in ("AT11", "AT10", "FM", "DCC")
}
_OP_CHOICES["CS"] = [surfaces.Op("CS", surfaces.parse_surface(s))
                     for s in ("T[1]", "T[2]", "T[3]", "N[1]", "N[2]", "N[3]", "N[4]")]
WORD_MAX_OPS = 10
WORD_BETA_CAP = 28


def random_word(rng: random.Random, bases=FOLD_BASES) -> tuple[str, int]:
    """A valid surgery word as text, and its number of ops.

    Each step picks an op token uniformly among those the current profile
    allows without passing the beta cap; a word ends early when none fits.
    """
    base = rng.choice(bases)
    pr = surfaces.base_profile(surfaces.Base(base))
    tokens = [base]
    for _ in range(rng.randint(1, WORD_MAX_OPS)):
        choices = {}
        for token, ops in _OP_CHOICES.items():
            for op in ops:
                try:
                    nxt = surfaces.apply_op(pr, op)
                except surfaces.WordError:
                    continue
                if nxt.beta <= WORD_BETA_CAP:
                    choices.setdefault(token, []).append((op, nxt))
        if not choices:
            break
        op, pr = rng.choice(choices[rng.choice(sorted(choices))])
        tokens.append(str(op))
    return " + ".join(tokens), len(tokens) - 1


def profile_json(kind, beta, f, c) -> str:
    return json.dumps({"kind": kind, "beta": beta, "F": f, "C": c})


# ---------------------------------------------------------------------------
# catalog: one user command, the verified table of every profile.


class _RowClock(io.TextIOBase):
    """A stdout stand-in that stamps the time each output row ends.

    After a row it may call ``pause``; the seconds that takes are left out
    of the stamps.
    """

    def __init__(self, pause=None):
        self.parts = []
        self.ends = []          # when each row ended
        self.paused = []        # seconds paused before each row ended
        self._pause = pause
        self.paused_total = 0.0

    def writable(self):
        return True

    def write(self, s):
        self.parts.append(s)
        for _ in range(s.count("\n")):
            self.ends.append(time.perf_counter())
            self.paused.append(self.paused_total)
            if self._pause is not None:
                self.paused_total += self._pause()
        return len(s)


class Catalog:
    name = "catalog"
    beta_choices = (12, 13, 14)
    run_units = 1
    trace_units = 1

    def __init__(self, seed: int):
        self.beta_max = _stream_rng(self.name, seed).choice(self.beta_choices)
        path = REFERENCE_DIR / f"catalog-{self.beta_max}.txt"
        self.reference_rows = path.read_text().splitlines()
        if not all(row.endswith("\tok") for row in self.reference_rows):
            raise ValueError(f"{path}: reference rows must all be ok")

    def inputs(self):
        while True:
            yield self.beta_max

    def run(self, beta_max, pause=None) -> Unit:
        sink = _RowClock(pause)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                output = cli.main(["catalog", str(beta_max)])
        except Exception as exc:       # an escaping exception is a failure
            output = exc
        elapsed = time.perf_counter() - start - sink.paused_total
        stamps = [start] + [end - paused for end, paused in zip(sink.ends, sink.paused)]
        latencies = [b - a for a, b in zip(stamps, stamps[1:])]
        return Unit(elapsed, len(sink.ends), latencies, sink.ends,
                    (output, "".join(sink.parts)))

    def check(self, beta_max, output) -> Verdict:
        rc, text = output
        attempted = len(self.reference_rows)
        if rc != 0:
            return Verdict(attempted, attempted, 0, f"catalog {beta_max} returned {rc!r}")
        rows = text.splitlines()
        missing = Counter(self.reference_rows) - Counter(rows)
        extra = Counter(rows) - Counter(self.reference_rows)
        failed = min(attempted, sum(missing.values()) + sum(extra.values()))
        if not failed:
            return Verdict(attempted)
        first = next(extra.elements(), None) or next(missing.elements())
        return Verdict(attempted, failed, 0, f"catalog {beta_max} row set differs "
                                             f"from the reference at {first!r}")


# ---------------------------------------------------------------------------
# fold: the Decomposition algebra path, never touching the checks.


class Fold:
    name = "fold"
    run_units = 8000
    trace_units = 150

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        rng = _stream_rng(self.name, self.seed)
        while True:
            yield random_word(rng)

    def run(self, item, pause=None) -> Unit:
        text, _ = item
        steps = []
        start = time.perf_counter()
        try:
            word = surfaces.parse_word(text)
            pr = surfaces.base_profile(word.base)
            d = engine.closed_form(pr)
            for op in word.ops:
                d = engine.transform(d, pr, op)
                pr = surfaces.apply_op(pr, op)
                want = engine.closed_form(pr)
                steps.append((d, want, d == want))
            output = steps
        except Exception as exc:
            output = (steps, exc)
        end = time.perf_counter()
        return Unit(end - start, item[1], [end - start], [end], output)

    def check(self, item, output) -> Verdict:
        text, n_ops = item
        steps, exc = (output, None) if isinstance(output, list) else output
        verdict = Verdict(n_ops)
        for i, (d, want, same) in enumerate(steps):
            # The wire form is compared too, so a broken __eq__ cannot pass.
            if not same or d.to_json_obj() != want.to_json_obj():
                verdict.failed += 1
                verdict.message = verdict.message or \
                    f"{text!r} step {i + 1}: {d} != closed form {want}"
        if len(steps) < n_ops:
            verdict.failed += n_ops - len(steps)
            verdict.message = verdict.message or \
                f"{text!r} raised {exc!r} after {len(steps)} steps"
        return verdict


# ---------------------------------------------------------------------------
# mutants: the checks' reject path, including far-off shifts.


@dataclass(frozen=True)
class Mutant:
    profile: surfaces.InvariantProfile
    decomposition: Decomposition
    change: str             # "-S", "+S" with S the summand
    added_antipodal_p: int | None = None


MUTANT_PROFILE_BETA_MAX = 20
MUTANT_P_RANGE = (-2, 12)
MUTANT_Q_RANGE = (-4, 12)
MUTANT_N_MAX = 4


def random_mutant(rng: random.Random, profiles) -> Mutant:
    """A single-summand change of a closed form; each one is a wrong answer,
    since decompositions into M2 and A_n summands are unique."""
    pr = rng.choice(profiles)
    d = engine.closed_form(pr)
    kind = rng.randrange(3)
    if kind == 0:
        s = rng.choice([s for s, _ in d.items()])
        return Mutant(pr, d.remove(s), f"-{s}")
    p = rng.randint(*MUTANT_P_RANGE)
    if kind == 1:
        s = Summand.free(p, rng.randint(*MUTANT_Q_RANGE))
        return Mutant(pr, d + Decomposition([s]), f"+{s}")
    s = Summand.antipodal(p, rng.randint(0, MUTANT_N_MAX))
    return Mutant(pr, d + Decomposition([s]), f"+{s}", added_antipodal_p=p)


class Mutants:
    name = "mutants"
    run_units = 2000
    trace_units = 100

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        rng = _stream_rng(self.name, self.seed)
        profiles = surfaces.enumerate_profiles(MUTANT_PROFILE_BETA_MAX)
        while True:
            yield random_mutant(rng, profiles)

    def run(self, m: Mutant, pause=None) -> Unit:
        start = time.perf_counter()
        try:
            output = checks.verify_decomposition(m.decomposition, m.profile)
        except Exception as exc:
            output = exc
        end = time.perf_counter()
        return Unit(end - start, 1, [end - start], [end], output)

    @staticmethod
    def trace_counts(outputs) -> dict:
        """The useful-to-attempted counts of one traced pass."""
        return {"checks.mutants_tried": len(outputs),
                "checks.mutants_rejected": sum(
                    1 for out in outputs if out and not isinstance(out, Exception))}

    def check(self, m: Mutant, output) -> Verdict:
        if isinstance(output, Exception):
            return Verdict(1, 1, 0, f"{m.profile} {m.change} raised {output!r}")
        if output:
            return Verdict(1)
        known = m.added_antipodal_p is not None and m.added_antipodal_p > _LES_PMAX
        tag = "far-antipodal-escape: " if known else ""
        return Verdict(1, 1, int(known), f"{tag}{m.profile} {m.change} accepted")


# ---------------------------------------------------------------------------
# requests: a closed loop of single cli.main calls from one client.


@dataclass(frozen=True)
class Request:
    argv: tuple
    expect: str             # class of the expected answer, see Requests.check
    profile: surfaces.InvariantProfile | None = None
    defect: str | None = None


# One weight per class: the package records no usage, so no class is
# favoured over another.
REQUEST_CLASSES = ("compute", "compute-json", "compute-grid", "compute-reduced",
                   "verify", "verify-json", "verify-inject", "bad-word", "bad-profile")
_BAD_WORDS = ("S22 + XX", "S23", "S22 + ", "triv:T[1] + AT11", "S2a + FM",
              "S22 + CS(T[x])", "S21 + CS(N[0])", "S22 + FM + FM + FM")
REQUEST_PROFILE_BETA_MAX = 20
_FLAGS = {"compute": (), "compute-json": ("--json",), "compute-grid": ("--grid",),
          "compute-reduced": ("--reduced",), "verify": (), "verify-json": ("--json",)}


def _bad_profile(rng, profiles):
    pr = rng.choice(profiles)
    kind, beta, f, c = pr.kind, pr.beta, pr.fixed_points, pr.fixed_circles
    variant = rng.randrange(6)
    if variant == 0:
        return '{"kind": "nonfree", "beta": ', None
    if variant == 1:
        return profile_json("nonfree", 1, 0, 0), None
    if variant == 2:
        return profile_json("spherical", beta, f, c), None
    if variant == 3:
        return json.dumps({"kind": kind, "F": f, "C": c}), None
    if variant == 4:
        return profile_json(kind, beta + 0.5, f, c), "non-integer-beta"
    return profile_json(kind, str(beta), f, c), "non-integer-beta"


def request_classes(rng: random.Random):
    """Request classes in shuffled decks of REQUEST_CLASSES, so that every
    deck holds each class once and the latency quantiles do not drift with
    the luck of the draw."""
    deck = list(REQUEST_CLASSES)
    while True:
        rng.shuffle(deck)
        yield from deck


def random_request(rng: random.Random, expect: str, profiles) -> Request:
    if expect == "bad-word":
        return Request(("compute", rng.choice(_BAD_WORDS)), expect)
    if expect == "bad-profile":
        text, defect = _bad_profile(rng, profiles)
        return Request((rng.choice(("compute", "verify")), text), expect, defect=defect)
    # Reduced forms and dropped free summands need a nonfree or trivial profile.
    needs_m2 = expect in ("compute-reduced", "verify-inject")
    if rng.random() < 0.5:
        if needs_m2:
            pool = [p for p in profiles if p.kind in (surfaces.NONFREE, surfaces.TRIVIAL)]
        else:
            pool = profiles
        pr = rng.choice(pool)
        text = profile_json(pr.kind, pr.beta, pr.fixed_points, pr.fixed_circles)
    else:
        text, _ = random_word(rng, ("S22", "S21") if needs_m2 else FOLD_BASES)
        pr = surfaces.invariants(surfaces.parse_word(text))
    if expect == "verify-inject":
        free = sorted({(s.shift.p, s.shift.q) for s, _ in engine.closed_form(pr).items()
                       if s.is_free})
        p, q = rng.choice(free)
        return Request(("verify", "--inject", f"drop:{p},{q}", text), expect, pr)
    command = expect.split("-")[0]
    return Request((command,) + _FLAGS[expect] + (text,), expect, pr)


class Requests:
    name = "requests"
    run_units = 3600
    trace_units = 600

    def __init__(self, seed: int):
        self.seed = seed

    def inputs(self):
        rng = _stream_rng(self.name, self.seed)
        profiles = surfaces.enumerate_profiles(REQUEST_PROFILE_BETA_MAX)
        for expect in request_classes(_stream_rng("request-classes", self.seed)):
            yield random_request(rng, expect, profiles)

    def run(self, req: Request, pause=None) -> Unit:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(req.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = exc
        end = time.perf_counter()
        return Unit(end - start, 1, [end - start], [end],
                    (code, out.getvalue(), err.getvalue()))

    def check(self, req: Request, output) -> Verdict:
        problem = self._problem(req, *output)
        if problem is None:
            return Verdict(1)
        known = req.defect is not None and output[0] == 0
        tag = f"{req.defect}: " if known else ""
        return Verdict(1, 1, int(known), f"{tag}{' '.join(req.argv)!r}: {problem}")

    @staticmethod
    def _problem(req: Request, code, out: str, err: str):
        if isinstance(code, Exception):
            return f"raised {code!r}"
        if req.expect.startswith("bad-"):
            if code != 2:
                return f"exit {code}, want 2"
            if out or not err.startswith("error:"):
                return "bad input must print only an error line to stderr"
            return None
        want_code = 1 if req.expect == "verify-inject" else 0
        if code != want_code:
            return f"exit {code}, want {want_code}"
        if req.expect == "verify-inject":
            lines = out.splitlines()
            return None if lines and all(x.startswith("FAIL: ") for x in lines) else \
                "no FAIL lines for a corrupted decomposition"
        if req.expect == "verify":
            return None if out.startswith("ok: ") and out.count("\n") == 1 else "no ok line"
        if req.expect == "verify-json":
            return None if out == "[]\n" else f"violations {out.strip()}"
        answer = engine.closed_form(req.profile)
        if req.expect == "compute":
            return None if out == f"{answer}\n" else f"printed {out.strip()!r}"
        if req.expect == "compute-reduced":
            want = engine.reduced_form(req.profile)
            return None if out == f"{want}\n" else f"printed {out.strip()!r}"
        if req.expect == "compute-grid":
            want = render_grid(answer, _GRID_P, _GRID_Q)
            return None if out == f"{want}\n" else "grid differs"
        try:
            obj = json.loads(out)
            parsed = Decomposition.from_json_obj(obj)
        except (ValueError, TypeError, KeyError) as exc:
            return f"unreadable JSON {out.strip()!r}: {exc}"
        same = parsed == answer and obj == answer.to_json_obj()
        return None if same else f"JSON {out.strip()} != {answer}"


WORKLOADS = {w.name: w for w in (Catalog, Fold, Mutants, Requests)}
