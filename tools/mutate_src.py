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
``file:line operator``.  It exits 1 when a mutant survives.

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

# Each operator's spelling and the spelling of its mutant.
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"),
         ast.FloorDiv: ("//", "*")}


class Mutant(NamedTuple):
    path: Path
    line: int
    start: int                  # the replaced text's offsets in the module
    end: int
    old: str
    new: str

    def __str__(self) -> str:
        return f"{self.path.relative_to(ROOT)}:{self.line} {self.old} -> {self.new}"


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
                              "--hypothesis-seed=0", "--continue-on-collection-errors"],
                             cwd=copy, env=env, stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main() -> int:
    sites = [m for path in SOURCES for m in mutants(path)]
    survivors = []
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
            print(f"[{i}/{len(sites)}] {'killed' if killed else 'SURVIVED'} {m}", flush=True)
    print(f"killed {len(sites) - len(survivors)}/{len(sites)}")
    for m in survivors:
        print(f"survivor: {m}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
