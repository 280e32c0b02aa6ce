"""Time the layers of c2surf and write them to BENCH_<n>.json, named by ``OUT``.

Run from anywhere, with no arguments, on the source of this checkout:

    python3 tools/bench_layers.py

Each row is timed 7 times, round-robin: repeat r of every row runs before
repeat r + 1 of any row, so a row's repeats spread over the whole run.
On a shared host whose speed changes for seconds at a time, 7 repeats
back to back would all land in one speed state, and their quartiles would
hide the gap between runs.  Each timed call follows one untimed call of
the same row, so it finds the memos it reads as a back-to-back repeat
found them, not as the row before it left them.  The prebuilt inputs are
frozen out of the garbage collector (``gc.freeze``), so no row pays for a
full collection that walks them.  ``timings`` holds the
minimum of the 7, in seconds, and ``spread`` their first and third
quartiles (the second and sixth of the 7, sorted), so a row's noise shows
next to it.  The rows are:

* ``profiles_by_words(20)``, ``(40)`` and ``(80)``: the catalog's rows,
  the inequality scan with one closed-form witness word per profile;
* ``parse_word`` over the witness-word texts of the 614 profiles with
  beta <= 20;
* the fold of those words, as two rows over the same steps, built and
  checked beforehand (each step must land on ``closed_form`` of the
  profile it reaches): ``transform`` alone, called as
  ``transform(d, pr, op)`` on each step's decomposition and profile, and
  ``apply_op`` alone, called as ``apply_op(pr, op)``;
* ``verify_decomposition`` over the 614 profiles with beta <= 20, their
  closed forms computed beforehand (the accept path);
* the text of a catalog row, ``str`` of each of those closed forms and of
  each of their witness words, every text checked beforehand against its
  plain spelling (each summand's or piece's own ``__str__``, joined);
* ``verify_decomposition`` over the single-summand mutants of the
  acceptance suite's mutation sweep (``mutant_sweep`` in
  ``tests/_oracles.py``, which records their number and their count of
  violations), built beforehand, each of which must fail, with the
  recorded count of violations in all (the reject path);
* ``expected`` alone over the 614 profiles with beta <= 20, its memo
  and the memo of its Betti-number tables cleared at the start of each
  repeat (the cold path of the profile side);
* ``tally`` alone over those mutants, and each of the five checks alone
  over their tallies and their profiles' ``expected`` tallies, both built
  beforehand, called as ``check(t, want)``, so each row times only the
  comparison;
* in-process ``cli.main`` over three plain argvs for each of the 614
  witness words W with beta <= 20: ``compute W``, ``verify --json W`` and
  ``compute --grid --window -2:6,-8:8 W``, with stdout sent to a null sink,
  each checked to exit 0 beforehand (the argv reader and the three output
  paths of a request);
* an in-process ``catalog 40``, with stdout sent to a null sink (its
  3,624 profiles overflow the 1024-entry memos of ``closed_form`` and
  ``expected``, so this row runs mostly cold);
* an in-process ``catalog 14``, likewise: its 270 profiles fit those
  memos, so after the untimed call every row is a memo hit, the regime
  of perfbench's ``catalog`` workload (bounds 12 to 14), where a row's
  cost is its accept-path check, its text and its write;
* a cold ``python -m c2surf compute S22``: a new interpreter, so mostly
  start-up and imports.

The record, written at the root of the checkout, also names the Python
version, the CPUs this process may run on (``nproc``) and the commit
(marked "-dirty" when the tree has uncommitted changes), and counts the
lines of ``src/c2surf/*.py`` (``src_lines``), the size of the code that
does the work.
Standard library only, and separate from ``perfbench/``.  CI runs it on
one Python version as a smoke test of about 20 s: it fails when the script
raises, as it does when a closed form fails its checks, a mutant passes
them, the mutants' violations are not exactly the recorded count (a walk
that drops or duplicates a report), a folded witness word leaves its closed form, a
closed form or a witness word is spelled otherwise than plainly, a plain
request on a witness word exits other than 0, or a check no longer takes
``(t, want)``.  No timing is a CI gate.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "BENCH_36.json"
REPEATS = 7

sys.path[:0] = [str(SRC), str(ROOT / "tests")]

from _oracles import MUTANT_REPORTS, MUTANTS, mutant_sweep  # noqa: E402
from c2surf import cli  # noqa: E402
from c2surf.bigraded import Summand  # noqa: E402
from c2surf.checks import (  # noqa: E402
    _counts,
    check_beta_recovery,
    check_forgetful_les,
    check_quotient_row,
    check_rho_localization,
    check_top_class,
    expected,
    tally,
    verify_decomposition,
)
from c2surf.engine import closed_form, transform  # noqa: E402
from c2surf.surfaces import (  # noqa: E402
    _Piece,
    apply_op,
    base_profile,
    enumerate_profiles,
    parse_word,
    profiles_by_words,
    witness,
)

CHECKS = (check_quotient_row, check_rho_localization, check_forgetful_les,
          check_top_class, check_beta_recovery)


def round_robin(rows: dict) -> dict[str, list[float]]:
    """``REPEATS`` timed calls of each row's function, in seconds, taken in
    rounds: every row once per round, each timed call after an untimed one."""
    runs: dict[str, list[float]] = {name: [] for name in rows}
    for _ in range(REPEATS):
        for name, fn in rows.items():
            fn()
            start = time.perf_counter()
            fn()
            runs[name].append(time.perf_counter() - start)
    return runs


def verify_all(cases) -> None:
    for d, pr in cases:
        if verify_decomposition(d, pr):
            raise AssertionError(f"closed form of {pr} fails its checks")


def parse_all(texts) -> None:
    for text in texts:
        parse_word(text)


def fold_steps(words) -> list:
    """The ``(decomposition, profile, op)`` of every step of folding each
    word op by op with ``transform``; every step must land on the closed
    form of the profile ``apply_op`` reaches."""
    steps = []
    for word in words:
        pr = base_profile(word.base)
        d = closed_form(pr)
        for op in word.ops:
            steps.append((d, pr, op))
            d = transform(d, pr, op)
            pr = apply_op(pr, op)
            if d != closed_form(pr):
                raise AssertionError(f"{word}: {op} gives {d}, not the closed form of {pr}")
    return steps


def transform_all(steps) -> None:
    for d, pr, op in steps:
        transform(d, pr, op)


def apply_op_all(steps) -> None:
    for _, pr, op in steps:
        apply_op(pr, op)


def check_texts(cases, words) -> None:
    """Each closed form and each witness word must print as its plain
    spelling: its summands' or pieces' own texts, joined."""
    for (d, pr), word in zip(cases, words):
        plain = " + ".join([Summand.__str__(s) + (f"^{c}" if c > 1 else "")
                            for s, c in d.items()]) or "0"
        if str(d) != plain:
            raise AssertionError(f"closed form of {pr} prints {d}, not {plain}")
        plain = " + ".join([_Piece.__str__(piece) for piece in (word.base, *word.ops)])
        if str(word) != plain:
            raise AssertionError(f"witness of {pr} prints {word}, not {plain}")


def text_all(cases, words) -> None:
    for (d, _), word in zip(cases, words):
        str(d)
        str(word)


def reject_all(cases) -> None:
    reports = 0
    for d, pr in cases:
        violations = verify_decomposition(d, pr)
        if not violations:
            raise AssertionError(f"mutant {d} of {pr} passes its checks")
        reports += len(violations)
    if reports != MUTANT_REPORTS:
        raise AssertionError(f"expected {MUTANT_REPORTS} violations over the mutants,"
                             f" got {reports}")


def expected_cold(cases) -> None:
    """``expected`` for each profile, with its memos cleared first."""
    expected.cache_clear()
    _counts.cache_clear()
    for _, pr in cases:
        expected(pr)


def tally_all(cases) -> None:
    for d, _ in cases:
        tally(d)


def check_rows(cases) -> dict:
    """Each check alone, over the tallies of ``cases`` and of their
    profiles' correct answers: one row per check."""
    tallied = [(tally(d), expected(pr)) for d, pr in cases]
    rows = {}
    for check in CHECKS:
        def run(check=check):
            for t, want in tallied:
                check(t, want)
        rows[f"{check.__name__} x{len(tallied)} mutant tallies"] = run
    return rows


def cli_argvs(texts) -> list[list[str]]:
    """``compute W``, ``verify --json W`` and ``compute --grid --window
    -2:6,-8:8 W`` for each word W; each must exit 0."""
    argvs = [argv for w in texts for argv in (
        ["compute", w], ["verify", "--json", w], ["compute", "--grid", "--window", "-2:6,-8:8", w])]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in argvs:
            code = cli.main(argv)
            if code != 0:
                raise AssertionError(f"{argv} exited {code}")
    return argvs


def cli_all(argvs) -> None:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in argvs:
            cli.main(argv)


def catalog(beta_max: str) -> None:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(["catalog", beta_max])
    if code != 0:
        raise AssertionError(f"catalog {beta_max} exited {code}")


def cold_compute() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "c2surf", "compute", "S22"], env=env,
                   check=True, stdout=subprocess.DEVNULL)


def commit() -> str | None:
    """The checked-out commit, with "-dirty" when the tree has changes."""
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def src_lines() -> int:
    """The number of lines in the package's modules, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (SRC / "c2surf").glob("*.py"))


def main() -> None:
    cases = [(closed_form(pr), pr) for pr in enumerate_profiles(20)]
    if len(cases) != 614:
        raise AssertionError(f"expected 614 profiles with beta <= 20, got {len(cases)}")
    words = [witness(pr) for _, pr in cases]
    check_texts(cases, words)
    texts = [str(word) for word in words]
    steps = fold_steps(parse_word(text) for text in texts)
    wrong = mutant_sweep()
    argvs = cli_argvs(texts)
    if len(wrong) != MUTANTS:
        raise AssertionError(f"expected {MUTANTS} mutants with beta <= 8, got {len(wrong)}")
    rows = {
        "profiles_by_words(20)": lambda: profiles_by_words(20),
        "profiles_by_words(40)": lambda: profiles_by_words(40),
        "profiles_by_words(80)": lambda: profiles_by_words(80),
        "parse_word x614 witness words (beta <= 20)": lambda: parse_all(texts),
        f"transform x{len(steps)} fold steps (beta <= 20)": lambda: transform_all(steps),
        f"apply_op x{len(steps)} fold steps (beta <= 20)": lambda: apply_op_all(steps),
        "verify_decomposition x614 (beta <= 20)": lambda: verify_all(cases),
        "row text x614 (beta <= 20)": lambda: text_all(cases, words),
        f"verify_decomposition x{MUTANTS} mutants (beta <= 8)": lambda: reject_all(wrong),
        "expected x614 (beta <= 20, cold)": lambda: expected_cold(cases),
        f"tally x{MUTANTS} mutants": lambda: tally_all(wrong),
        **check_rows(wrong),
        f"cli.main x{len(argvs)} plain argvs (beta <= 20)": lambda: cli_all(argvs),
        "catalog 40 (in-process)": lambda: catalog("40"),
        "catalog 14 (in-process, warm)": lambda: catalog("14"),
        "python -m c2surf compute S22 (cold)": cold_compute,
    }
    # The inputs, mutant tallies included, stay alive for the whole run:
    # moved out of the collector's reach, a full collection does not walk
    # them inside whichever row triggers it (a 34 ms pause inside the 13 ms
    # profiles_by_words(40) row, on 2 cores with Python 3.11).
    gc.collect()
    gc.freeze()
    runs = round_robin(rows)
    timings = {name: min(times) for name, times in runs.items()}
    spread = {name: statistics.quantiles(times, n=4)[::2] for name, times in runs.items()}
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    record = {"commit": commit(), "python": platform.python_version(), "nproc": nproc,
              "src_lines": src_lines(), "repeats": REPEATS, "order": "round-robin",
              "statistic": "min", "unit": "s", "timings": timings, "spread": spread}
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    for name, seconds in timings.items():
        q1, q3 = spread[name]
        print(f"{name:48s} {seconds * 1e3:10.2f} ms   (q1 {q1 * 1e3:.2f}, q3 {q3 * 1e3:.2f})")
    print(f"{'src/c2surf/*.py lines':48s} {record['src_lines']:10d}")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
