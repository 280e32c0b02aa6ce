"""First-order source mutants of ``src/c2surf/*.py``, each judged by tier-1.

Run from anywhere, with no arguments, on the source of this checkout:

    python3 tools/mutate_src.py

A mutant changes one token of one module:

* a comparison flips ``<`` with ``<=``, ``>`` with ``>=`` and ``==`` with
  ``!=``;
* an arithmetic operator (in an expression or an augmented assignment)
  swaps ``+`` with ``-`` and ``*`` with ``//``;
* an int literal gains 1.

Sites are found with ``ast``, in sorted order (file, line, column), and
edited in the text, so every other line, comment and docstring stays as it
was.  Expressions inside f-strings are skipped: where ``tokenize`` sees
their operators changes across Python versions, and the count should not.
For each mutant, a temporary copy of the checkout (without ``.git``) gets
the mutated module, and tier-1 runs there with ``-x``, without bytecode,
so no stale ``.pyc`` can stand in for the mutated source, and with a
fixed hypothesis seed and no example database, so a verdict depends on
the mutant alone, not on the run or on the mutants before it.  A mutant
is killed when the run fails or outlasts ``TIMEOUT_S``.  The unmutated
copy must pass first, else the script exits 2.  It prints one line per
mutant as it goes, then ``killed/total`` and each survivor as
``file:line operator``.

Some mutants change no behaviour of the program, so no test can kill them.
``EQUIVALENT`` names each, with the reason, by its module and the mutated
line (stripped), which stays the same when other lines move.  A surviving
one is printed apart, as ``equivalent:``, with its reason; a killed one is
printed as ``killed, listed as equivalent:``, so that a stale entry shows.
The script exits 1 when a mutant that ``EQUIVALENT`` does not name
survives, else 0.  ``tests/test_mutate_src.py`` checks that every entry
still names exactly one mutant.  That test reads the source text, so it
fails on every mutant of a line the table names, equivalent or not: the
mutants are judged by the rest of tier-1, without it.

Standard library only; one pytest process at a time, on one core.  It is
too slow for CI: on the order of 500 mutants at a few seconds each.
"""

from __future__ import annotations

import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "c2surf").glob("*.py"))
TIMEOUT_S = 300
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
OWN_TEST = "tests/test_mutate_src.py"       # left out of each run; see above

# Each operator's spelling and the spelling of its mutant.
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"),
         ast.FloorDiv: ("//", "*")}


# Each equivalent mutant, keyed by its module and its mutated line, stripped.
EQUIVALENT = {
    ("bigraded.py", "return cls(Bidegree(p, 1), n)"):
        "Summand.__new__ sets an antipodal summand's q to 0",
    ("bigraded.py", "return (0, p, q, -2)"):
        "the last entry only orders free summands of one shift, which are one summand",
    ("bigraded.py", "return (2, p, q, n)"):
        "any first entry above the free summands' 0 sorts antipodal summands after them",
    ("bigraded.py", "totals = bytes([min(v, 11) for v in accumulate(steps)])"):
        "every total from 10 to 255 maps to '+'",
    ("cli.py", "limit = profile.beta.bit_length() >= 1920 and"
               " getattr(sys, \"get_int_max_str_digits\", int)()"):
        "a beta of 1920 or 1921 bits has under 640 digits, the least nonzero limit",
    ("cli.py", "limit = profile.beta.bit_length() > 1921 and"
               " getattr(sys, \"get_int_max_str_digits\", int)()"):
        "a beta of 1920 or 1921 bits has under 640 digits, the least nonzero limit",
    ("cli.py", "if len(texts) <= len(positionals) else"):
        "it runs only when the two lengths differ",
    ("surfaces.py", "if (beta + f) % 2:"):
        "beta + f and beta - f have one parity",
    ("surfaces.py", "if beta < f - 3:"):
        "beta = F (mod 2) is checked first, and F - 3 has the other parity",
    ("surfaces.py", "if beta < f + 2 * c - 3:"):
        "beta = F (mod 2) is checked first, and F + 2C - 3 has the other parity",
    ("surfaces.py", "(NONFREE, True): lambda b, f, c: (f - c, c, 0),"):
        "the cell has C = 0",
    ("surfaces.py", "for f in range(beta % 2, beta + 4, 2):"):
        "F = beta (mod 2), so beta + 2 stays the last F",
    ("surfaces.py", "for c in range(0 if f and f % 2 == 0 else 1, (beta + 3 - f) // 2 + 1):"):
        "beta - F is even, so adding 1 before halving changes nothing",
}


class Mutant(NamedTuple):
    path: Path
    line: int
    start: int                  # the replaced text's offsets in the module
    end: int
    old: str
    new: str

    def __str__(self) -> str:
        return f"{self.path.relative_to(ROOT)}:{self.line} {self.old} -> {self.new}"

    def key(self) -> tuple[str, str]:
        """The module and the mutated line, stripped: the key of ``EQUIVALENT``."""
        line = apply(self, self.path.read_text()).splitlines()[self.line - 1]
        return self.path.name, line.strip()


def _nodes(node: ast.AST):
    """Every node under ``node``, f-strings' insides excepted."""
    yield node
    if not isinstance(node, ast.JoinedStr):
        for child in ast.iter_child_nodes(node):
            yield from _nodes(child)


def _operator_gaps(node: ast.AST):
    """(operator, left operand, right operand) for each operator of an
    expression or an augmented assignment that a mutant can change."""
    if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
        yield node.op, node.left, node.right
    elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
        yield node.op, node.target, node.value
    elif isinstance(node, ast.Compare):
        for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators):
            if type(op) in FLIPS:
                yield op, left, right


def mutants(path: Path) -> list[Mutant]:
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    line_starts = [0, *accumulate(map(len, lines))]

    def offset(line: int, byte_col: int) -> int:     # ast columns count UTF-8 bytes
        return line_starts[line - 1] + len(lines[line - 1].encode()[:byte_col].decode())

    def start(node):
        return offset(node.lineno, node.col_offset)

    def end(node):
        return offset(node.end_lineno, node.end_col_offset)

    ops = [(line_starts[tok.start[0] - 1] + tok.start[1], tok)      # tokenize counts characters
           for tok in tokenize.generate_tokens(io.StringIO(text).readline) if tok.type == tokenize.OP]
    out = []
    for node in _nodes(ast.parse(text)):
        for op, left, right in _operator_gaps(node):
            old, new = FLIPS.get(type(op)) or SWAPS[type(op)]
            if isinstance(node, ast.AugAssign):
                old, new = old + "=", new + "="
            for at, tok in ops:
                if tok.string == old and end(left) <= at < start(right):
                    out.append(Mutant(path, tok.start[0], at, at + len(old), old, new))
                    break
        if isinstance(node, ast.Constant) and type(node.value) is int:
            out.append(Mutant(path, node.lineno, start(node), end(node),
                              text[start(node):end(node)], str(node.value + 1)))
    return sorted(out, key=lambda m: (m.start, m.new))


def apply(m: Mutant, text: str) -> str:
    assert text[m.start:m.end] == m.old, m
    return text[:m.start] + m.new + text[m.end:]


def tier1(copy: Path) -> bool:
    """Whether tier-1 passes in ``copy``; a run past ``TIMEOUT_S`` fails."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              "--hypothesis-seed=0", "--continue-on-collection-errors",
                              f"--ignore={OWN_TEST}"],
                             cwd=copy, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main() -> int:
    sites = [m for path in SOURCES for m in mutants(path)]
    survivors, killed_equivalent = [], []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if not tier1(copy):
            print("tier-1 fails on the unmutated copy", file=sys.stderr)
            return 2
        for i, m in enumerate(sites, 1):
            target = copy / m.path.relative_to(ROOT)
            original = m.path.read_text()
            target.write_text(apply(m, original))
            try:
                killed = not tier1(copy)
            finally:
                target.write_text(original)
            if not killed:
                survivors.append(m)
            elif m.key() in EQUIVALENT:
                killed_equivalent.append(m)
            print(f"[{i}/{len(sites)}] {'killed' if killed else 'SURVIVED'} {m}", flush=True)
    print(f"killed {len(sites) - len(survivors)}/{len(sites)}")
    real = []
    for m in survivors:
        reason = EQUIVALENT.get(m.key())
        if reason is None:
            real.append(m)
        else:
            print(f"equivalent: {m} ({reason})")
    for m in killed_equivalent:
        print(f"killed, listed as equivalent: {m}")
    for m in real:
        print(f"survivor: {m}")
    return 1 if real else 0


if __name__ == "__main__":
    sys.exit(main())
