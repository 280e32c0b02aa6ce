"""Command-line front end.

Three subcommands:

* ``compute INPUT``  -- decomposition of a surgery word or profile JSON,
  as text (default), canonical JSON (``--json``) or an ASCII dimension
  grid (``--grid``).
* ``verify INPUT``   -- run all structural checks; exit 0 on pass.  The
  ok line names the fixed forgetful-LES window, ``-2:6,-8:8``, which never
  changes the verdict (see ``checks``).
* ``catalog BETA_MAX`` -- one verified row per realizable profile with
  beta <= BETA_MAX (plain ASCII digits, at most ``MAX_CATALOG_BETA``),
  each written as it is built.

Exit codes: 0 ok, 1 verification failure, 2 bad input, 74 stdout cannot
be written (closed at start, as by ``>&-``, or a write fails, as into
``/dev/full``), 141 stdout closed by its reader (see README); any other
exception is a program error and propagates.
INPUT starting with '{' is parsed as a profile JSON object
``{"kind":..., "beta":..., "F":..., "C":...}``; anything else as a word.
``compute --grid`` draws the window ``--window pmin:pmax,qmin:qmax`` gives,
else ``-4:6,-6:6``; ``--window`` without ``--grid``, ``--json`` with
``--grid``, and a window of more than ``MAX_GRID_CELLS`` cells, are bad
input.  stdout carries data; diagnostics go to stderr.  Each answer
(every ``FAIL:`` line of a verdict together), a help text and a bad-input
error line reach their stream as one ``write``, the final newline
included: ``print`` makes two, the text and then "\n".

The three subcommands are declared once, in ``_COMMANDS``, each with its
handler.  ``_read`` reads every argv from that table, and ``_help`` prints
it for ``-h``/``--help``; a bad argv is bad input, named.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

from .bigraded import Decomposition, Summand, render_grid
from .checks import DEFAULT_LES_WINDOW, Window, verify_decomposition
from .engine import closed_form, reduced_form
from .surfaces import (
    InvariantProfile,
    ParseError,
    ProfileError,
    WordError,
    enumerate_profiles,
    invariants,
    parse_word,
    witness,
)

DEFAULT_GRID_WINDOW = Window(-4, 6, -6, 6)
# The most cells ``compute --grid`` draws: a 316 x 316 window, far wider than
# a screen.  A larger one is bad input, before its grid is allocated.
MAX_GRID_CELLS = 100_000
# The largest ``catalog`` bound: 184,084 rows, 4.8-6.5 s and 32 MB peak
# RSS on a 2-core host.  A larger one is bad input, refused before any row
# is built.  Rows are written as they are built, but the list of profiles
# is built first, and it and the time grow about as the cube of the bound.
MAX_CATALOG_BETA = 160

OK = 0
VERIFY_FAILED = 1
BAD_INPUT = 2
STDOUT_FAILED = 74      # EX_IOERR of sysexits.h
BROKEN_PIPE = 141       # 128 + SIGPIPE, as a shell reports ``yes | head -1``


class _InputError(ValueError):
    pass


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, with a repeated key rejected by name rather
    than letting the last one win."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ProfileError(f"duplicate profile key {key!r}")
        obj[key] = value
    return obj


# One decoder for every request: ``json.loads`` with a hook builds a new one
# per call, which doubles the cost of reading a profile.
_PROFILE_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)
# One encoder for ``compute --json`` and ``verify --json``, for the same
# reason: ``json.dumps`` with ``separators`` builds a new one per call.
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


def _parse_input(text: str) -> InvariantProfile:
    text = text.strip()
    if text.startswith("{"):
        try:
            obj = _PROFILE_JSON.decode(text)
        except ProfileError:        # a repeated key: named, not "bad profile JSON"
            raise
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, an over-long integer, or nesting too deep
            raise _InputError(f"bad profile JSON: {exc}") from None
        return InvariantProfile.from_json_obj(obj)     # json reads no int it cannot print
    profile = invariants(parse_word(text))
    # An int prints in at most sys.get_int_max_str_digits() digits: 0 (or no
    # such function, before 3.10.7) means no limit, else it is >= 640.
    limit = profile.beta.bit_length() > 1920 and getattr(sys, "get_int_max_str_digits", int)()
    if limit and profile.beta >= 10 ** limit:
        raise _InputError(f"beta has more than {limit} digits, the most Python prints"
                          " (sys.get_int_max_str_digits())")
    return profile


# The integer grammars of --window, --inject and the catalog bound.  A digit is
# ``[0-9]``, so ``١``, ``1_0`` and `` 1`` are bad input, not what ``int()`` reads.
_WINDOW = re.compile(r"(-?[0-9]+):(-?[0-9]+),(-?[0-9]+):(-?[0-9]+)")
_INJECTION = re.compile(r"drop:(-?[0-9]+),(-?[0-9]+)")
_BOUND = re.compile(r"([0-9]+)")


def _ints(pattern: re.Pattern, text: str, error: str) -> list[int]:
    """``pattern``'s groups fullmatched on ``text``, as ints, else ``_InputError(error)``."""
    m = pattern.fullmatch(text)
    if m is not None:
        try:
            return [int(g) for g in m.groups()]
        except ValueError:          # more digits than int() accepts
            pass
    raise _InputError(error)


def _grid_window(flag_value: str | None) -> Window:
    if flag_value is None:
        return DEFAULT_GRID_WINDOW
    bounds = _ints(_WINDOW, flag_value.strip(),
                   f"bad window {flag_value!r} (want pmin:pmax,qmin:qmax)")
    try:
        window = Window(*bounds)
    except ValueError as exc:       # inverted
        raise _InputError(str(exc)) from None
    cells = (window.pmax - window.pmin + 1) * (window.qmax - window.qmin + 1)
    if cells > MAX_GRID_CELLS:
        raise _InputError(f"window {window} has {cells} cells, more than the"
                          f" {MAX_GRID_CELLS} a grid may draw")
    return window


def _cmd_compute(args) -> int:
    if args.window is not None and not args.grid:
        raise _InputError("--window needs --grid")
    if args.json and args.grid:
        raise _InputError("--json and --grid exclude each other")
    profile = _parse_input(args.input)
    decomposition = reduced_form(profile) if args.reduced else closed_form(profile)
    if args.grid:
        window = _grid_window(args.window)
        text = render_grid(decomposition, (window.pmin, window.pmax),
                           (window.qmin, window.qmax))
    elif args.json:
        text = _COMPACT_JSON.encode(decomposition.to_json_obj())
    else:
        text = decomposition
    sys.stdout.write(f"{text}\n")
    return OK


def _apply_injection(decomposition: Decomposition, directive: str) -> Decomposition:
    """Test hook: 'drop:p,q' removes one free summand with that shift; p
    and q are plain ASCII integers, with no spaces or underscores."""
    p, q = _ints(_INJECTION, directive, f"bad injection {directive!r} (want drop:p,q)")
    try:
        return decomposition.remove(Summand.free(p, q))
    except KeyError:
        raise _InputError(f"no free summand at ({p},{q}) to drop") from None


def _cmd_verify(args) -> int:
    profile = _parse_input(args.input)
    decomposition = closed_form(profile)
    if args.inject:
        decomposition = _apply_injection(decomposition, args.inject)
    violations = verify_decomposition(decomposition, profile)
    if args.json:
        text = _COMPACT_JSON.encode([v.to_json_obj() for v in violations])
    elif violations:
        text = "\n".join([f"FAIL: {v}" for v in violations])
    else:
        text = f"ok: {profile} [window {DEFAULT_LES_WINDOW}] {decomposition}"
    sys.stdout.write(f"{text}\n")
    return VERIFY_FAILED if violations else OK


def _cmd_catalog(args) -> int:
    (beta_max,) = _ints(_BOUND, args.beta_max,
                        f"catalog bound must be ASCII digits, got {args.beta_max!r}")
    if beta_max > MAX_CATALOG_BETA:
        raise _InputError(f"catalog bound {beta_max} is more than the"
                          f" {MAX_CATALOG_BETA} a catalog may list")
    any_failed = False
    write = sys.stdout.write        # one write per row; print makes two
    for pr in enumerate_profiles(beta_max):
        kind, beta, f, c = pr
        word = witness(pr)
        decomposition = closed_form(pr)
        violations = verify_decomposition(decomposition, pr)
        status = "ok" if not violations else "FAIL"
        any_failed = any_failed or bool(violations)
        write(f"{word}\t{kind}\tbeta={beta} F={f} C={c}\t{decomposition}\t{status}\n")
    return VERIFY_FAILED if any_failed else OK


# The argv grammar, declared once: per subcommand its handler, its help, its
# positionals as (name, help) and its options as flag -> (metavar, help),
# metavar None for a switch; ``--json`` stores ``json``, so no flag has an
# inner "-".  ``_read`` reads an argv by it and ``_help`` prints it.
_COMMANDS = {
    "compute": (_cmd_compute, "decomposition of a word or profile",
                (("input", "surgery word or profile JSON"),),
                {"--json": (None, "canonical JSON output"),
                 "--grid": (None, "ASCII dimension grid"),
                 "--reduced": (None, "strip the unshifted M2 summand (nonfree/trivial only)"),
                 "--window": ("P0:P1,Q0:Q1", "grid window (with --grid)")}),
    "verify": (_cmd_verify, "check a decomposition against the oracles",
               (("input", "surgery word or profile JSON"),),
               {"--json": (None, "JSON violation report"),
                "--inject": ("drop:P,Q", "corrupt the decomposition first (testing hook)")}),
    "catalog": (_cmd_catalog, "verified catalog up to a beta bound", (("beta_max", None),), {}),
}
# Each command's namespace before its argv is read, built once: every option
# unset (None, or False for a switch).  ``_read`` fills a copy.
_DEFAULTS = {command: {**{flag[2:]: None if metavar else False
                          for flag, (metavar, _) in options.items()}, "command": command}
             for command, (_, _, _, options) in _COMMANDS.items()}


def _help(command: str | None) -> str:
    """The help of the program (``command`` None) or of one subcommand."""
    if command is None:
        usage = "{" + ",".join(_COMMANDS) + "} ..."
        about = "RO(C2)-graded mod-2 cohomology of surfaces with involution"
        rows = [(name, spec[1]) for name, spec in _COMMANDS.items()]
    else:
        _, about, positionals, options = _COMMANDS[command]
        flags = [(f"{flag} {metavar}" if metavar else flag, text)
                 for flag, (metavar, text) in options.items()]
        usage = " ".join([command, *(f"[{flag}]" for flag, _ in flags),
                          *(name for name, _ in positionals)])
        rows = [*positionals, *flags]
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(name) for name, _ in rows) + 2
    return "\n".join([f"usage: c2surf {usage}", "", about, "",
                      *(f"  {name:{width}}{text or ''}".rstrip() for name, text in rows)])


def _read(argv: list[str]) -> SimpleNamespace | str:
    """``argv`` read by ``_COMMANDS``: the namespace of its command,
    positionals and options, or the help text ``-h`` or ``--help`` asks for.
    Any other argv raises ``_InputError`` naming the token at fault.

    A subcommand comes first, then its switches and ``--opt VALUE`` /
    ``--opt=VALUE`` options in any order, and exactly its positionals.  A
    flag may be shortened to a prefix of it alone.  An option takes the
    next token as its value, whatever it is.  ``--`` ends the options; every
    other token not starting with "--", except ``-h``, is a positional.
    """
    command = argv[0] if argv else None
    if command not in _COMMANDS:
        if command in ("-h", "--help"):
            return _help(None)
        got = f"unknown command {command!r}" if argv else "missing command"
        raise _InputError(f"{got} (want one of {', '.join(_COMMANDS)})")
    _, _, positionals, options = _COMMANDS[command]
    values = _DEFAULTS[command].copy()
    texts = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            texts += tokens
        elif token == "-h":
            return _help(command)
        elif not token.startswith("--"):
            texts.append(token)
        else:
            flag, eq, text = token.partition("=")
            if flag not in options:
                found = [f for f in (*options, "--help") if f.startswith(flag)]
                if len(found) != 1:
                    raise _InputError(f"{command}: ambiguous option {token!r} (could be"
                                      f" {', '.join(found)})" if found
                                      else f"{command}: unknown option {token!r}")
                flag = found[0]
            metavar = options[flag][0] if flag in options else None
            if eq and metavar is None:
                raise _InputError(f"{command}: {flag} takes no value, got {token!r}")
            if flag == "--help":
                return _help(command)
            if metavar and not eq:
                text = next(tokens, None)
                if text is None:
                    raise _InputError(f"{command}: {token!r} needs a value ({flag} {metavar})")
            values[flag[2:]] = text if metavar else True
    if len(texts) != len(positionals):
        raise _InputError(f"{command}: missing argument {positionals[len(texts)][0]}"
                          if len(texts) < len(positionals) else
                          f"{command}: unexpected argument {texts[len(positionals)]!r}")
    values.update(zip((name for name, _ in positionals), texts))
    return SimpleNamespace(**values)


def _stdout_to_devnull() -> None:
    """Point fd 1 at devnull, so that the flush at shutdown of what stdout
    still buffers neither fails nor prints."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if sys.stdout is None:              # started with fd 1 closed (``>&-``)
        print("error: cannot write stdout: it is closed", file=sys.stderr)
        return STDOUT_FAILED
    try:
        args = _read(argv)
        if isinstance(args, str):       # the help text
            sys.stdout.write(f"{args}\n")
            code = OK
        else:
            code = _COMMANDS[args.command][0](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (``c2surf catalog 40 | head -1``).
        _stdout_to_devnull()
        return BROKEN_PIPE
    except (ParseError, WordError, ProfileError, _InputError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return BAD_INPUT
    except OSError as exc:
        # A write to stdout failed (``c2surf catalog 2 > /dev/full``): the
        # package opens no file or socket, so no other OSError reaches here.
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        _stdout_to_devnull()
        return STDOUT_FAILED


if __name__ == "__main__":
    sys.exit(main())
