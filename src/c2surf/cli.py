"""Command-line front end.

Three subcommands:

* ``compute INPUT``  -- decomposition of a surgery word or profile JSON,
  as text (default), canonical JSON (``--json``) or an ASCII dimension
  grid (``--grid``).
* ``verify INPUT``   -- run all structural checks; exit 0 on pass.
* ``catalog BETA_MAX`` -- one verified row per realizable profile.

Exit codes: 0 ok, 1 verification failure, 2 bad input, 141 stdout closed
by its reader (see README); any other exception is a program error and
propagates.
INPUT starting with '{' is parsed as a profile JSON object
``{"kind":..., "beta":..., "F":..., "C":...}``; anything else as a word.
The environment variable ``ESC_WINDOW`` (same ``pmin:pmax,qmin:qmax``
syntax as ``--window``) overrides the default windows.  stdout carries
data; diagnostics go to stderr.

The argument parser is built once per process, on the first ``main`` call
(not at import), and declares every flag.  A plain argv does not enter it:
``_match`` reads the grammar off the parser and builds the namespace
``parse_args`` would give.  Every other argv goes to argparse, which keeps
its own help, usage and error text.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bigraded import Decomposition, Summand, render_grid
from .checks import DEFAULT_LES_WINDOW, Window, verify_decomposition
from .engine import closed_form, reduced_form
from .surfaces import (
    InvariantProfile,
    ParseError,
    ProfileError,
    WordError,
    invariants,
    parse_word,
    witnessed_profiles,
)

DEFAULT_GRID_WINDOW = Window(-4, 6, -6, 6)

OK = 0
VERIFY_FAILED = 1
BAD_INPUT = 2
BROKEN_PIPE = 141       # 128 + SIGPIPE, as a shell reports ``yes | head -1``


class _InputError(ValueError):
    pass


def _parse_input(text: str) -> InvariantProfile:
    text = text.strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an over-long integer, or nesting too deep
            raise _InputError(f"bad profile JSON: {exc}") from None
        return InvariantProfile.from_json_obj(obj)
    return invariants(parse_word(text))


def _pick_window(flag_value: str | None, fallback: Window) -> Window:
    text = flag_value if flag_value is not None else os.environ.get("ESC_WINDOW") or None
    if text is None:
        return fallback
    try:
        return Window.parse(text)
    except ValueError as exc:
        raise _InputError(str(exc)) from None


def _cmd_compute(args) -> int:
    profile = _parse_input(args.input)
    decomposition = reduced_form(profile) if args.reduced else closed_form(profile)
    if args.grid:
        window = _pick_window(args.window, DEFAULT_GRID_WINDOW)
        print(render_grid(decomposition, (window.pmin, window.pmax),
                          (window.qmin, window.qmax)))
    elif args.json:
        print(json.dumps(decomposition.to_json_obj(), separators=(",", ":")))
    else:
        print(decomposition)
    return OK


def _apply_injection(decomposition: Decomposition, directive: str) -> Decomposition:
    """Test hook: 'drop:p,q' removes one free summand with that shift."""
    parts = directive.split(":")
    if len(parts) == 2 and parts[0] == "drop":
        try:
            p, q = (int(v) for v in parts[1].split(","))
        except ValueError:
            raise _InputError(f"bad injection {directive!r}") from None
        try:
            return decomposition.remove(Summand.free(p, q))
        except KeyError:
            raise _InputError(f"no free summand at ({p},{q}) to drop") from None
    raise _InputError(f"bad injection {directive!r} (want drop:p,q)")


def _cmd_verify(args) -> int:
    profile = _parse_input(args.input)
    decomposition = closed_form(profile)
    if args.inject:
        decomposition = _apply_injection(decomposition, args.inject)
    window = _pick_window(args.window, DEFAULT_LES_WINDOW)
    violations = verify_decomposition(decomposition, profile, window)
    if args.json:
        print(json.dumps([v.to_json_obj() for v in violations], separators=(",", ":")))
    elif violations:
        for v in violations:
            print(f"FAIL: {v}")
    else:
        print(f"ok: {profile} [window {window}] {decomposition}")
    return VERIFY_FAILED if violations else OK


def _cmd_catalog(args) -> int:
    if args.beta_max < 0:
        raise _InputError(f"catalog bound must be >= 0, got {args.beta_max}")
    witnesses = witnessed_profiles(args.beta_max)
    any_failed = False
    for pr in witnesses:
        decomposition = closed_form(pr)
        violations = verify_decomposition(decomposition, pr)
        status = "ok" if not violations else "FAIL"
        any_failed = any_failed or bool(violations)
        print(f"{witnesses[pr]}\t{pr.kind}\tbeta={pr.beta}"
              f" F={pr.fixed_points} C={pr.fixed_circles}"
              f"\t{decomposition}\t{status}")
    return VERIFY_FAILED if any_failed else OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
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
    compute.add_argument("--window", metavar="P0:P1,Q0:Q1", default=None)

    verify = sub.add_parser("verify", help="check a decomposition against the oracles")
    verify.add_argument("input", help="surgery word or profile JSON")
    verify.add_argument("--json", action="store_true", help="JSON violation report")
    verify.add_argument("--window", metavar="P0:P1,Q0:Q1", default=None)
    verify.add_argument("--inject", metavar="drop:P,Q", default=None,
                        help="corrupt the decomposition first (testing hook)")

    catalog = sub.add_parser("catalog", help="verified catalog up to a beta bound")
    catalog.add_argument("beta_max", type=int)
    return parser


def _preprocess(argv: list[str]) -> list[str]:
    # Let "--window -2:6,-8:8" through argparse, which would otherwise read
    # the leading dash as an option prefix.
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--window" and i + 1 < len(argv):
            out.append(f"--window={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _is_plain(action: argparse.Action) -> bool:
    """Whether ``_match`` can stand in for argparse on this action: a
    store_true switch, or one value stored as given or as an int."""
    return (type(action) in (argparse._StoreAction, argparse._StoreTrueAction)
            and action.nargs in (None, 0) and action.type in (None, int)
            and action.choices is None)


@functools.cache
def _plain_grammar() -> dict:
    """Per subcommand of ``_build_parser()``: option string -> action, the
    positional actions in order, and the namespace before any token is read.
    A subcommand with an action that is not plain is left out, and so left
    to argparse; ``-h`` is left out of every table."""
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    grammar = {}
    for name, sub in commands.choices.items():
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        if all(map(_is_plain, actions)):
            grammar[name] = ({s: a for a in actions for s in a.option_strings},
                             [a for a in actions if not a.option_strings],
                             {commands.dest: name, **{a.dest: a.default for a in actions}})
    return grammar


def _plain_value(action: argparse.Action, text: str):
    """``text`` as argparse stores it for ``action``, or None if argparse's
    own handling is needed: a "--" value (which argparse strips, differently
    across versions) or an int that is not plain ASCII digits."""
    if text == "--":
        return None
    if action.type is int:
        if not (text.isascii() and text.isdigit()):
            return None
        try:
            return int(text)
        except ValueError:          # more digits than int() accepts
            return None
    return text


def _match(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``parse_args(argv)`` returns, for a plain argv; else None.

    Plain: a subcommand, then its switches and ``--opt VALUE`` /
    ``--opt=VALUE`` options spelled in full, in any order, and exactly its
    positionals.  Any other token starting with "-" (``-h``, an abbreviation,
    ``--``, an unknown flag, a negative number), a ``--opt VALUE`` whose
    value starts with "-", or a missing or extra positional is declined, so
    argparse still owns help, usage and error text.
    """
    grammar = _plain_grammar().get(argv[0]) if argv else None
    if grammar is None:
        return None
    options, positionals, defaults = grammar
    values = dict(defaults)
    texts = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            texts.append(token)
            continue
        name, eq, text = token.partition("=")
        action = options.get(name)
        if action is None:
            return None
        if action.nargs == 0:
            if eq:
                return None
            values[action.dest] = action.const
            continue
        if not eq:
            text = next(tokens, "-")    # a missing value is argparse's error too
            if text.startswith("-"):
                return None
        value = _plain_value(action, text)
        if value is None:
            return None
        values[action.dest] = value
    if len(texts) != len(positionals):
        return None
    for action, text in zip(positionals, texts):
        value = _plain_value(action, text)
        if value is None:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _preprocess(argv)
    args = _match(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
        # Before Python 3.13, argparse stores an option value "--" as [].
        for dest, value in vars(args).items():
            if value == []:
                setattr(args, dest, "--")
    handler = {"compute": _cmd_compute, "verify": _cmd_verify,
               "catalog": _cmd_catalog}[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``c2surf catalog 40 | head -1``).  Point
        # fd 1 at devnull so that the flush at shutdown prints nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return BROKEN_PIPE
    except (ParseError, WordError, ProfileError, _InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
