"""Command dispatch, output formats, exit codes, and the grid window."""

import argparse
import glob
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import WORKED, X1, X3, reference_parser
from c2surf.cli import (_COMMANDS, BAD_INPUT, BROKEN_PIPE, MAX_CATALOG_BETA, MAX_GRID_CELLS,
                        OK, STDOUT_FAILED, VERIFY_FAILED, _InputError, _read, main)
from c2surf.engine import closed_form
from c2surf.surfaces import enumerate_profiles

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_word(capsys):
    words = [w for w in WORKED.values() if not w.source.startswith("{")]
    assert any(w.source.startswith("triv:") for w in words)
    for w in words:
        assert run(capsys, "compute", w.source) == (0, w.text + "\n", ""), w.source
    # compute --json of every worked answer, word or profile JSON, prints
    # its recorded wire JSON.
    for w in WORKED.values():
        assert run(capsys, "compute", "--json", w.source) == (0, w.json + "\n", ""), w.source


def test_compute_profile_json(capsys):
    profiles = [w for w in WORKED.values() if w.source.startswith("{")]
    assert profiles
    for w in profiles:
        assert run(capsys, "compute", w.source) == (0, w.text + "\n", ""), w.source


def test_profile_json_fixed_counts_default_to_zero(capsys):
    # F and C may be left out of profile JSON: each is then 0.
    assert run(capsys, "compute", '{"kind":"free-sphere","beta":2}') == (0, "A2 + S(1,0)A0\n", "")


def test_compute_json_round_trip(capsys):
    code, out, _ = run(capsys, "compute", "--json", X1.source)
    assert code == 0
    obj = json.loads(out)
    assert json.dumps(obj, separators=(",", ":")) == out.strip() == X1.json


def test_compute_reduced(capsys):
    code, out, _ = run(capsys, "compute", "--reduced", "S22")
    assert code == 0
    assert out.strip() == "S(2,2)M2"
    code, _, err = run(capsys, "compute", "--reduced", "S2a")
    assert code == 2
    assert "free" in err


def test_compute_grid(capsys):
    # T1a is A1 (+) S(1,0)A1: the two copies overlap in the p = 1 column.
    code, out, _ = run(capsys, "compute", "--grid", "--window=0:2,0:2", "T1a")
    assert code == 0
    assert out.splitlines() == ["121", "121", "121"]


def test_compute_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "compute", "S21 + XY")
    assert code == 2
    assert "position" in err


def test_compute_invalid_profile_exit_code(capsys):
    code, _, err = run(capsys, "compute", '{"kind":"nonfree","beta":1,"F":2,"C":0}')
    assert code == 2
    assert "mod 2" in err
    # Non-integer fields are rejected by name, never coerced.
    for text, field in [('{"kind":"nonfree","beta":2.5,"F":2,"C":0}', "beta"),
                        ('{"kind":"trivial","beta":"2"}', "beta"),
                        ('{"kind":"trivial","beta":true}', "beta"),
                        ('{"kind":"trivial","beta":1e400}', "beta"),
                        ('{"kind":"nonfree","beta":2,"F":2.0,"C":0}', "F"),
                        ('{"kind":"nonfree","beta":2,"F":2,"C":false}', "C")]:
        code, out, err = run(capsys, "compute", text)
        assert code == 2 and out == ""
        assert f"field {field} " in err
    # Unknown keys are rejected by name, never ignored (a misspelt "C"
    # would otherwise silently default to 0).
    for text, key in [('{"kind":"nonfree","beta":2,"F":2,"c":1}', "'c'"),
                      ('{"kind":"trivial","beta":1,"Beta":3}', "'Beta'")]:
        code, out, err = run(capsys, "compute", text)
        assert code == 2 and out == ""
        assert f"unknown profile key(s) {key}" in err
    # A repeated key is rejected by name, never last-wins (this one would
    # otherwise pass as C=1).
    for command in ("compute", "verify"):
        code, out, err = run(capsys, command, '{"kind":"nonfree","beta":4,"F":2,"C":0,"C":1}')
        assert (code, out, err) == (2, "", "error: duplicate profile key 'C'\n"), command
    # Nesting too deep for the JSON decoder is bad input, not a traceback.
    for text in ['{"kind":' + "[" * 5000, '{"kind":' + '{"a":' * 5000]:
        code, out, err = run(capsys, "compute", text)
        assert code == 2 and out == ""
        assert "bad profile JSON" in err


def test_verify_pass_and_inject(capsys):
    code, out, _ = run(capsys, "verify", "S22 + FM")
    assert code == 0
    assert out.startswith("ok:")
    code, out, _ = run(capsys, "verify", "--inject", "drop:1,1", "S21 + AT10")
    assert code == 1
    assert "FAIL" in out
    code, _, err = run(capsys, "verify", "--inject", "drop:9,9", "S21 + AT10")
    assert code == 2


def test_verify_reports_a_wrong_les_degree_once(capsys):
    # The LES identity's right-hand side does not depend on q, so a wrong
    # count at p = 1 is one line, not one per weight of the window.
    code, out, err = run(capsys, "verify", "--inject", "drop:1,1", "S22 + AT11")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "FAIL: rho-localization at fixed-set degrees: expected [[0, 4]], got [[0, 3]]",
        "FAIL: forgetful-les at p=1: expected 2, got 1",
        "FAIL: beta-recovery at beta: expected 2, got 1",
    ]


def test_verify_counts_a_huge_multiplicity(capsys):
    # The checks compare and report counts, never a list with one entry per
    # summand; a wrong answer is reported, not ended in a traceback.
    big = 10 ** 20
    text = json.dumps({"kind": "nonfree", "beta": big, "F": big, "C": 0})
    code, out, _ = run(capsys, "verify", text)
    assert code == 0
    assert out.startswith("ok:") and f"S(1,1)M2^{big - 2}" in out
    code, out, err = fresh_process(["verify", "--inject", "drop:1,1", text])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines and all(line.startswith("FAIL: ") for line in lines)
    assert (f"FAIL: rho-localization at fixed-set degrees: expected [[0, {big}]], "
            f"got [[0, {big - 1}]]") in lines


def test_grid_window_flag_with_negative_values(capsys):
    # Both "--window=-2:6,-8:8" and the two-token spelling must work.
    code, out, _ = run(capsys, "compute", "--grid", "--window=-2:6,-8:8", "S2a")
    assert code == 0
    code, out2, _ = run(capsys, "compute", "--grid", "--window", "-2:6,-8:8", "S2a")
    assert (code, out2) == (0, out)
    assert [len(row) for row in out.splitlines()] == [9] * 17


def test_grid_window_too_large_to_index_is_bad_input(capsys):
    # A window of MAX_GRID_CELLS cells is drawn; each window here has more,
    # the first by one cell, so it is rejected before any grid is allocated.
    # The default -4:6,-6:6 window (143 cells) is far under the cap.
    assert MAX_GRID_CELLS == 100_000 and 100 * 11 * 13 < MAX_GRID_CELLS
    code, out, _ = run(capsys, "compute", "--grid", "--window=0:9,0:9999", "S22")
    assert code == 0 and len(out.replace("\n", "")) == MAX_GRID_CELLS
    huge = 10 ** 20
    for text, cells in (("0:10,0:9090", MAX_GRID_CELLS + 1), (f"0:{huge},0:1", 2 * (huge + 1)),
                        (f"0:1,-{huge}:0", 2 * (huge + 1)),
                        (f"-{huge}:{huge},-{huge}:{huge}", (2 * huge + 1) ** 2)):
        code, out, err = run(capsys, "compute", "--grid", f"--window={text}", "S22")
        assert (code, out) == (2, ""), text
        assert err == (f"error: window {text} has {cells} cells, more than the"
                       f" {MAX_GRID_CELLS} a grid may draw\n"), text
    # An inverted window is bad input too, named by the Window constructor.
    code, out, err = run(capsys, "compute", "--grid", "--window=3:1,0:0", "S22")
    assert (code, out, err) == (2, "", "error: inverted window 3:1,0:0\n")


def test_verify_takes_no_window(capsys):
    # The verify window is fixed; asking for another one is bad input, named.
    for argv in (["verify", "--window=0:1,0:1", "S22"], ["verify", "--window", "0:1,0:1", "S22"],
                 ["verify", "--win", "0:1,0:1", "S22"]):
        flag = argv[1]
        assert run(capsys, *argv) == (2, "", f"error: verify: unknown option {flag!r}\n"), argv
    assert fresh_process(["verify", "--window=0:1,0:1", "S22"]) == (
        2, "", "error: verify: unknown option '--window=0:1,0:1'\n")


def test_compute_window_needs_grid(capsys):
    # The flag in full and abbreviated, before or after its value, reach the
    # same check: the window would otherwise be silently ignored.
    for argv in (["compute", "--window=junk", "S22"], ["compute", "--window", "0:1,0:1", "S22"],
                 ["compute", "--json", "--win=0:1,0:1", "S22"], ["compute", "S22", "--w", "x"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: --window needs --grid\n"), argv
    assert _read(["compute", "--win=0:1,0:1", "S22"]).window == "0:1,0:1"


@pytest.mark.parametrize("argv, err", [
    ([], "missing command (want one of compute, verify, catalog)"),
    (["frob", "S22"], "unknown command 'frob' (want one of compute, verify, catalog)"),
    (["--json", "compute", "S22"],
     "unknown command '--json' (want one of compute, verify, catalog)"),
    (["compute", "--bogus", "S22"], "compute: unknown option '--bogus'"),
    (["compute", "--=x", "S22"],
     "compute: ambiguous option '--=x' (could be --json, --grid, --reduced, --window, --help)"),
    (["compute", "--js=1", "S22"], "compute: --json takes no value, got '--js=1'"),
    (["compute", "S22", "--win"], "compute: '--win' needs a value (--window P0:P1,Q0:Q1)"),
    (["verify", "--json"], "verify: missing argument input"),
    (["catalog", "12", "-h1"], "catalog: unexpected argument '-h1'"),
    (["compute", "--", "S22", "--json"], "compute: unexpected argument '--json'"),
])
def test_a_command_line_the_reader_refuses_is_named(capsys, argv, err):
    # Each way an argv can miss the grammar is bad input, one line naming
    # the token at fault, or what is missing.
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


def test_compute_json_and_grid_exclude_each_other(capsys):
    # One output format per call: the pair is bad input, in either order,
    # with each flag in full or abbreviated, never a grid with --json
    # dropped.  --reduced combines with either.
    for argv in (["compute", "--json", "--grid", "S22"], ["compute", "--grid", "--json", "S22"],
                 ["compute", "--reduced", "--json", "--grid", "S22"],
                 ["compute", "--js", "--grid", "S22"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: --json and --grid exclude each other\n"), argv
    assert fresh_process(["compute", "--json", "--grid", "S22"])[0] == 2
    for flag in ("--json", "--grid"):
        code, out, _ = run(capsys, "compute", "--reduced", flag, "S22")
        assert code == 0 and out.strip(), flag


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--json", "S21 + AT10")
    assert code == 0 and json.loads(out) == []
    code, out, _ = run(capsys, "verify", "--json", "--inject", "drop:1,1",
                       "S21 + AT10")
    assert code == 1
    report = json.loads(out)
    assert report and set(report[0]) == {"check", "location", "expected", "actual"}


def test_double_dash_window_is_bad_input(capsys):
    # An option takes the next token as its value, "--" included, so each
    # spelling reaches the option's own check (argparse before Python 3.13
    # stored this value as [], which once ended in a traceback).
    for argv in (["compute", "--grid", "--window", "--", "S22"],
                 ["compute", "--window=--", "--grid", "S22"],
                 ["compute", "--grid", "--window=--", "S22"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: bad window '--' (want pmin:pmax,qmin:qmax)\n", argv
    for argv in (["verify", "--inject=--", "S22"], ["verify", "--inject", "--", "S22"]):
        assert run(capsys, *argv) == (2, "", "error: bad injection '--' (want drop:p,q)\n"), argv
    assert run(capsys, "verify", "--inject", "-x", "S22") == (
        2, "", "error: bad injection '-x' (want drop:p,q)\n")


@pytest.mark.parametrize("argv, err", [
    (["compute", "S22 + CS(T[\u0661])"],
     "error: at position 9: bad surface descriptor 'T[\u0661]' (want T[g] or N[s])\n"),
    (["compute", "triv:N[1_0]"],
     "error: at position 5: bad surface descriptor 'N[1_0]' (want T[g] or N[s])\n"),
    (["compute", "S22 + CS(T[1]\n)"],
     "error: at position 9: bad surface descriptor 'T[1]\\n' (want T[g] or N[s])\n"),
    (["compute", "--grid", "--window", "\u0660:\u0662,0:1", "S22"],
     "error: bad window '\u0660:\u0662,0:1' (want pmin:pmax,qmin:qmax)\n"),
    (["compute", "--grid", "--window=0:2,0_0:1", "S22"],
     "error: bad window '0:2,0_0:1' (want pmin:pmax,qmin:qmax)\n"),
    *((["verify", "--inject", text, "S22"], f"error: bad injection {text!r} (want drop:p,q)\n")
      for text in ("drop: 1 ,1_1", "drop:\uff11,1", "drop:1," + "9" * 5000)),
    *((["catalog", text], f"error: catalog bound must be ASCII digits, got {text!r}\n")
      for text in ("\u0661", " 1_0", "x", "-1", "9" * 5000)),
    # More digits than int() accepts: the input is named, not Python's limit.
    (["compute", "--grid", "--window=0:1,0:" + "9" * 5000, "S22"],
     f"error: bad window {'0:1,0:' + '9' * 5000!r} (want pmin:pmax,qmin:qmax)\n"),
    (["compute", "S22 + CS(T[" + "9" * 5000 + "])"],
     f"error: at position 9: bad surface descriptor {'T[' + '9' * 5000 + ']'!r}"
     " (want T[g] or N[s])\n"),
    # Plain digits over the cap, 160 as README documents it: refused before
    # a row is built, not run until the host runs out of memory.
    *((["catalog", str(bound)], f"error: catalog bound {bound} is more than the"
       f" {MAX_CATALOG_BETA} a catalog may list\n")
      for bound in (161, 99999999999999999999999999)),
])
def test_integers_are_plain_ascii_digits(capsys, argv, err):
    # int() and \d accept any Unicode digit, and int() also "_" and spaces:
    # each such token is bad input, named, never read as the number it
    # looks like.
    assert run(capsys, *argv) == (2, "", err)


def test_a_beta_too_long_to_print_is_bad_input(capsys):
    # A genus parses with any number of digits, but Python prints an int of
    # at most sys.get_int_max_str_digits() digits (4300 by default), and
    # every answer names beta or a count as large.  A word whose beta is
    # longer is bad input, named with the limit, never a traceback; one
    # digit shorter is answered.  With the limit off, every beta prints.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        # triv:T[g] has beta 2g: 10**4300 is the first beta too long.
        big, fits = "5" + "0" * 4299, "4" + "9" * 4299
        assert run(capsys, "compute", f"triv:T[{fits}]") == (
            0, f"M2 + S(1,0)M2^{'9' * 4299}8 + S(2,0)M2\n", "")
        err = "error: beta has more than 4300 digits, the most Python prints" \
              " (sys.get_int_max_str_digits())\n"
        word = "S2a + CS(T[" + "9" * 4300 + "])"     # beta 4g
        for argv in (["compute", word], ["compute", "--json", word], ["verify", word],
                     ["compute", f"triv:T[{big}]"]):
            assert run(capsys, *argv) == (2, "", err), argv[:-1]
    finally:
        sys.set_int_max_str_digits(limit)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-X", "int_max_str_digits=0", "-m", "c2surf",
                           "compute", word], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"A2 + S(1,0)A0^1{'9' * 4299}8\n", "")


def test_the_environment_sets_no_window(capsys, monkeypatch):
    # Only --window sets the grid window, so a junk ESC_WINDOW in the
    # environment still draws the default grid.
    monkeypatch.setenv("ESC_WINDOW", "junk")
    code, out, err = run(capsys, "compute", "--grid", "S22")
    assert (code, err) == (0, "")
    assert out == run(capsys, "compute", "--grid", "--window=-4:6,-6:6", "S22")[1]
    assert [len(row) for row in out.splitlines()] == [11] * 13


def test_catalog_zero(capsys):
    code, out, _ = run(capsys, "catalog", "0")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 4
    assert all(row.endswith("ok") for row in rows)


def test_catalog_negative_bound(capsys):
    code, out, err = run(capsys, "catalog", "-1")
    assert code == 2 and out == ""
    assert "catalog bound" in err


def test_program_error_is_not_reported_as_bad_input(monkeypatch):
    def broken(profile):
        raise ValueError("bug")

    monkeypatch.setattr("c2surf.cli.closed_form", broken)
    with pytest.raises(ValueError, match="bug"):
        main(["compute", "S22"])


def test_catalog_includes_expected_witnesses(capsys):
    code, out, _ = run(capsys, "catalog", "2")
    assert code == 0
    assert any(row.startswith("S21 + AT10\t") and "beta=2 F=0 C=2" in row
               for row in out.splitlines())
    code, out, _ = run(capsys, "catalog", "1")
    assert any(row.startswith("S22 + FM\t") and "beta=1 F=1 C=1" in row
               for row in out.splitlines())


def test_compute_and_verify_agree_on_validity(capsys):
    for text in ["S22 + FM", "T1a + DCC", "triv:N[2]",
                 '{"kind":"free-torus","beta":6,"F":0,"C":0}']:
        c_code, _, _ = run(capsys, "compute", text)
        v_code, _, _ = run(capsys, "verify", text)
        assert c_code == 0 and v_code == 0
    for text in ["S21 + FM", '{"kind":"nonfree","beta":0,"F":0,"C":2}']:
        c_code, _, _ = run(capsys, "compute", text)
        v_code, _, _ = run(capsys, "verify", text)
        assert c_code == 2 and v_code == 2


def test_module_entry_point_subprocess():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "c2surf", "compute", X3.source],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == X3.text


def test_closed_stdout_pipe_exits_141_without_a_traceback():
    # The largest catalog prints far more than a pipe buffer holds, so the
    # program is still writing when the reader closes the pipe.  The bound
    # itself is accepted; the one past it is refused in
    # test_integers_are_plain_ascii_digits.
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-m", "c2surf", "catalog", str(MAX_CATALOG_BETA)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"triv:T[0]\t")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert b"Traceback" not in err, err.decode()


class WriteCounter(io.TextIOBase):
    """A stdout stand-in that keeps the text of each ``write`` call."""

    def __init__(self):
        self.calls = []

    def writable(self):
        return True

    def write(self, text):
        self.calls.append(text)
        return len(text)


def test_catalog_writes_each_row_once():
    # Each row reaches stdout as one write, its newline included.
    sink = WriteCounter()
    with redirect_stdout(sink):
        assert main(["catalog", "12"]) == 0
    assert len(sink.calls) == len(enumerate_profiles(12))
    for text, (kind, beta, f, c) in zip(sink.calls, enumerate_profiles(12)):
        assert text.endswith("\tok\n") and text.count("\n") == 1, text
        assert f"\t{kind}\tbeta={beta} F={f} C={c}\t" in text, text


@pytest.mark.parametrize("argv", [
    ["compute", "S22 + AT11"], ["compute", "--json", "S22 + AT11"],
    ["compute", "--grid", "S22 + AT11"], ["compute", "--reduced", "S22 + AT11"],
    ["verify", "S22 + AT11"], ["verify", "--json", "S22 + AT11"],
    ["verify", "--inject", "drop:1,1", "S22 + AT11"]])
def test_each_answer_is_one_write(argv):
    # A whole answer reaches stdout as one write, its final newline
    # included: a grid's rows and a verdict's FAIL: lines too.
    out, err = WriteCounter(), WriteCounter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, err.calls) == (VERIFY_FAILED if "--inject" in argv else OK, [])
    assert len(out.calls) == 1 and out.calls[0].endswith("\n"), out.calls
    if "--inject" in argv:
        assert out.calls[0].count("FAIL: ") == out.calls[0].count("\n") > 1


def test_bad_input_is_one_write():
    out, err = WriteCounter(), WriteCounter()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(["compute", "S22 + XX"]) == BAD_INPUT
    assert out.calls == []
    assert len(err.calls) == 1 and err.calls[0].startswith("error: "), err.calls
    assert err.calls[0].count("\n") == 1 and err.calls[0].endswith("\n")


def test_exit_codes_are_the_documented_numbers():
    # README and the cli docstring give these numbers; a script tests them.
    assert (OK, VERIFY_FAILED, BAD_INPUT, STDOUT_FAILED, BROKEN_PIPE) == (0, 1, 2, 74, 141)


def unwritable_stdout(argv, stdout_spec):
    """Exit code and stderr of ``python -m c2surf`` with stdout set by a
    shell redirection, ``>&-`` or ``> /dev/full``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(["sh", "-c", f'exec "$0" -m c2surf "$@" {stdout_spec}',
                           sys.executable, *argv], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("argv", [["compute", "S22"], ["catalog", "2"]])
def test_closed_stdout_is_one_error_line(argv):
    assert unwritable_stdout(argv, ">&-") == (
        STDOUT_FAILED, "error: cannot write stdout: it is closed\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["compute", "S22"], ["catalog", "2"], ["catalog", "40"]])
def test_full_stdout_is_one_error_line(argv):
    # catalog 40 fills the write buffer, so its write fails mid-catalog;
    # the others fail at the flush.
    assert unwritable_stdout(argv, "> /dev/full") == (
        STDOUT_FAILED, "error: cannot write stdout: No space left on device\n")


def fresh_process(argv):
    """stdout, stderr and exit code of one call in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "c2surf", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_reuse_keeps_calls_independent(capsys):
    # Calls in one process answer as fresh processes do: no flag carries
    # over to the next call.
    x = "S21 + AT10"
    sequence = [["compute", "--grid", "--window=0:2,0:2", x], ["compute", "--grid", x],
                ["verify", "--json", x], ["verify", x], ["compute", "--reduced", x],
                ["compute", x], ["verify", "--inject", "drop:1,1", x], ["verify", x]]
    for argv in sequence:
        assert run(capsys, *argv) == fresh_process(argv), argv
    # A refused argv leaves the next call unharmed (test_no_argv_imports_argparse
    # compares refused argvs and help with a fresh interpreter).
    assert run(capsys, "compute") == (2, "", "error: compute: missing argument input\n")
    assert run(capsys, "compute", x) == fresh_process(["compute", x])


def fresh_argparse_free(calls):
    """Exit code, stdout and stderr of ``python -S`` importing the CLI, running
    ``calls`` (Python source) and printing whether argparse and gettext are
    imported; -S keeps a site .pth file from importing argparse first."""
    code = ("import sys, c2surf.cli as cli\n"
            "assert 'argparse' not in sys.modules\n"
            f"{calls}"
            "print('argparse' in sys.modules, 'gettext' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_import_builds_no_parser():
    # No module of the package names argparse, so the import builds no
    # parser; an abbreviated flag, which argparse once read, is read by the
    # same reader and imports neither argparse nor the gettext it loads.
    for path in glob.glob(os.path.join(SRC, "c2surf", "*.py")):
        with open(path) as f:
            assert "argparse" not in f.read(), path
    assert fresh_argparse_free("cli.main(['compute', '--js', 'S22'])\n") == (
        0, WORKED["S22"].json + "\nFalse False\n", "")


def test_plain_call_imports_no_argparse():
    # A plain call never imports argparse.
    assert fresh_argparse_free("cli.main(['compute', 'S22'])\n") == (
        0, WORKED["S22"].text + "\nFalse False\n", "")


def test_plain_requests_skip_argparse(capsys, monkeypatch):
    # With parse_args unusable, every README example and golden request is
    # still answered: the reader never hands an argv on to argparse.
    def refuse(self, args=None, namespace=None):
        raise AssertionError(f"argparse entered for {args!r}")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    examples = readme_examples()
    assert len(examples) >= 8
    for argv in examples:
        assert main(argv) in (0, 1), argv
    capsys.readouterr()
    for argv in golden_requests():
        assert not isinstance(_read(argv), str), argv


def test_no_argv_imports_argparse(capsys):
    # One reader reads every argv.  In a fresh interpreter, every README
    # example, help, an abbreviation, "--" and bad argvs answer as they do
    # in this process, and argparse is still not imported after them; -S
    # keeps a site .pth file from importing it first.
    argvs = readme_examples() + [
        ["compute", "--js", "S22"], ["-h"], ["--help"], ["compute", "-h"], ["verify", "--help"],
        ["catalog", "--he"], ["compute", "--", "S22"],
        ["compute", "--grid", "--window", "-2:6,-8:8", "S22"], ["verify", "--inject", "--", "S22"],
        [], ["frob"], ["compute"], ["catalog"], ["compute", "--json=1", "S22"],
        ["verify", "--window=0:1,0:1", "S22"], ["verify", "--inject"], ["catalog", "1", "2"]]
    assert len(argvs) >= 8 + 17
    script = ("import json, sys, c2surf.cli as cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    print(cli.main(argv)); sys.stdout.flush()\n"
              "print('argparse' in sys.modules, 'gettext' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env)
    out, err = "", ""
    for argv in argvs:
        code, o, e = run(capsys, *argv)
        out, err = out + o + f"{code}\n", err + e
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out + "False False\n", err)
    assert WORKED["S22"].json + "\n0\n" in out


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action


def test_parser_built_from_the_table_keeps_every_help_text(capsys):
    # The help of the program and of each subcommand, built from the
    # grammar table, prints every help string, metavar, positional and flag
    # of the parser declared flag by flag, and exits 0 with nothing on
    # stderr, however it is asked for.
    reference = reference_parser()
    subparsers = _subparsers(reference)
    assert list(subparsers.choices) == list(_COMMANDS) == list(COMMANDS)
    program = [reference.description, reference._actions[0].help,
               *reference._actions[0].option_strings,
               *(text for a in subparsers._choices_actions for text in (a.dest, a.help))]
    cases = [(["-h"], program), (["--help"], program)]
    for name, parser in subparsers.choices.items():
        texts = [a.help or a.dest for a in parser._actions]
        texts += [s for a in parser._actions for s in (a.metavar, *a.option_strings) if s]
        texts += [a.dest for a in parser._actions if not a.option_strings]
        cases += [([name, "-h"], texts), ([name, "--help"], texts), ([name, "--h"], texts),
                  ([name, "x", "-h"], texts)]
    for argv, texts in cases:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage: c2surf "), argv
        for text in texts:
            assert text in out, (argv, text)


def test_help_pads_its_names_two_spaces_past_the_longest(capsys):
    # The layout the test above does not see: each help text starts two
    # spaces past the longest name of its table.
    assert run(capsys, "catalog", "-h") == (0, "usage: c2surf catalog beta_max\n\n"
                                             "verified catalog up to a beta bound\n\n"
                                             "  beta_max\n"
                                             "  -h, --help  show this help message and exit\n", "")


def test_import_loads_no_dataclasses():
    # dataclasses pulls in inspect and ast, fractions pulls in decimal:
    # milliseconds at every start.  -S keeps a site .pth file from
    # importing one first.
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import c2surf.cli, sys; print('dataclasses' in sys.modules, 'fractions' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False False\n", "")


# SHA-256 of the exit code and stdout of every call of ``correct_requests``
# and of ``inject_requests``: 17,593 lines between them.  The first was
# recorded with the windowed checks that preceded the exact ones, and no
# correct answer's output may move.  The failure report is pinned
# separately, so that a change to its format re-records only the second
# hash; it was last re-recorded when the forgetful-LES identity began to
# report each wrong degree p once instead of once per weight.
CORRECT_CLI_SHA256 = "21cd7f39dd063eae8ef7e48f562268410a311459846bdd2d10332f5f8a6aa039"
CORRECT_CLI_LINES = 8537
INJECT_CLI_SHA256 = "4d6451e69c6322c7dce573fb75c78384c154fd5aa4d333680922875244166233"
INJECT_CLI_LINES = 9056


def correct_requests():
    """compute and verify, as text and JSON, on every profile with beta <= 20;
    then catalog 40."""
    for pr in enumerate_profiles(20):
        text = json.dumps(pr.to_json_obj(), separators=(",", ":"))
        yield from (["compute", text], ["compute", "--json", text],
                    ["verify", text], ["verify", "--json", text])
    yield ["catalog", "40"]


def inject_requests():
    """verify on every profile with beta <= 20, with each of its free
    summands dropped in turn."""
    for pr in enumerate_profiles(20):
        text = json.dumps(pr.to_json_obj(), separators=(",", ":"))
        for s, _ in closed_form(pr).items():
            if s.is_free:
                yield ["verify", "--inject", f"drop:{s.shift.p},{s.shift.q}", text]


def golden_requests():
    yield from correct_requests()
    yield from inject_requests()


def output_digest(capsys, requests):
    """SHA-256 of the exit code and stdout of each request, and their lines."""
    digest = hashlib.sha256()
    lines = 0
    for argv in requests:
        code = main(argv)
        record = f"{code}\n{capsys.readouterr().out}"
        digest.update(record.encode())
        lines += record.count("\n")
    return digest.hexdigest(), lines


def test_correct_answers_match_the_golden_hash(capsys):
    assert output_digest(capsys, correct_requests()) == (CORRECT_CLI_SHA256,
                                                         CORRECT_CLI_LINES)


def test_failure_reports_match_the_golden_hash(capsys):
    assert output_digest(capsys, inject_requests()) == (INJECT_CLI_SHA256,
                                                        INJECT_CLI_LINES)
    assert CORRECT_CLI_LINES + INJECT_CLI_LINES == 17593


# Pieces of argvs for the reader-against-argparse tests: every subcommand,
# every flag in full, abbreviated and in "=" form, and the tokens argparse
# treats specially.  A tuple is a run of tokens.
COMMANDS = ("compute", "verify", "catalog")
OPTION_PIECES = (
    "--json", "--grid", "--reduced", "--window", "--inject", "--help",
    "--js", "--gr", "--red", "--win", "--w", "--inj", "--he",
    "--json=", "--json=1", "--js=1", "--window=0:2,0:2", "--window=", "--window=--",
    "--win=0:1,0:1", "--window=-2:6,-8:8", "--inject=drop:1,1", "--inject=--",
    "--inj=drop:1,1", "--inject=-x", ("--window", "-2:6,-8:8"), ("--window", "--"),
    ("--inject", "drop:1,1"), ("--inject", "-1"), ("--inject", "-h"), ("--inject", "--json"),
)
VALUE_PIECES = (
    "S22", "12", "--", "-h", "-1", "-", "", " ", "S21 + AT10", "S22 + XX",
    '{"kind":"trivial","beta":1}', "{", "drop:1,1", "-2:6,-8:8", "0:1,0:1",
    "0", "007", "+3", " 4", "4 ", "1_0", "\u0663", "x", "a=b",
)
ARGV_PIECES = COMMANDS + ("frob",) + OPTION_PIECES + VALUE_PIECES
pieces = st.sampled_from(ARGV_PIECES)
options = st.lists(st.sampled_from(OPTION_PIECES), max_size=3)


def own_options(first):
    """Up to three option pieces that each name a flag of the subcommand
    ``first`` (a prefix of it, in any form), or none if it has no flags or
    is no subcommand."""
    flags = _COMMANDS[first][3] if first in _COMMANDS else {}
    own = [piece for piece in OPTION_PIECES if any(
        flag.startswith((piece if isinstance(piece, str) else piece[0]).partition("=")[0])
        for flag in flags)]
    return st.lists(st.sampled_from(own), max_size=3) if own else st.just([])


# A first piece, options, one value, options and a last piece.  The first is
# drawn from 179 pieces, 123 of them a subcommand, and each run of options
# is the subcommand's own or any, so that the reader accepts about one argv
# in five (one in fifteen with the plain pieces and any options).  The value
# and the last are sometimes any piece at all, so that it often refuses too.
argvs = st.sampled_from(COMMANDS * 40 + ARGV_PIECES).flatmap(lambda first: st.tuples(
    st.just(first), own_options(first) | options, st.sampled_from(VALUE_PIECES) | pieces,
    own_options(first) | options, st.lists(pieces, max_size=1))).map(
    lambda t: [token for piece in (t[0], *t[1], t[2], *t[3], *t[4])
               for token in ((piece,) if isinstance(piece, str) else piece)])


def reference_form(argv):
    """``argv`` spelled so that argparse reads it as the reader does: each
    option ``--opt VALUE`` as ``--opt=VALUE`` (argparse reads a VALUE that
    starts with "-" as a flag), and every positional after one "--"
    (argparse reads "-x" as an unknown flag, and Python 3.11's refuses a
    "--" that follows the last positional and an option)."""
    options = _COMMANDS[argv[0]][3] if argv[0] in _COMMANDS else {}
    valued = [flag for flag, (metavar, _) in options.items() if metavar]
    out, texts, tokens = argv[:1], [], iter(argv[1:])
    for token in tokens:
        if token == "--":
            texts += tokens
        elif token[:2] != "--" and token != "-h":
            texts.append(token)
        elif "=" not in token and any(flag.startswith(token) for flag in valued):
            out.append(token + "=" + next(tokens, ""))   # none after a help flag
        else:
            out.append(token)
    return out + ["--", *texts] if texts else out


def reference_read(argv):
    """The namespace the reference parser reads from ``argv``, or the code it
    exits with; an option value "--" reads as [] before Python 3.13."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            namespace = vars(reference_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code
    return {dest: "--" if value == [] else value for dest, value in namespace.items()}


@settings(max_examples=400)
@given(argvs)
@example(["compute", "--json", "--window=-2:6,-8:8", "S22", "--grid"])
@example(["verify", "--window=--", "S22"])
@example(["verify", "--inject", "-h", "S22"])
@example(["compute", "--json=1", "S22"])
@example(["catalog", "12", "12"])
@example(["compute", "--win", "-2:6,-8:8", "--", "S22"])
@example(["verify", "--json", "S22", "--he"])
@example(["verify", "S22", "--inj", "--window", "--"])
@example(["verify", "--inject", "-h", "--he"])
def test_matcher_agrees_with_argparse(argv):
    # Each argv the reader accepts, the reference parser reads to the same
    # namespace; each that asks for help, the reference answers with help
    # (exit 0) too.
    try:
        namespace = _read(argv)
    except _InputError:
        return
    if isinstance(namespace, str):
        assert reference_read(reference_form(argv)) == 0
    else:
        assert vars(namespace) == reference_read(reference_form(argv))


@settings(max_examples=400)
@given(argvs)
@example([])
@example(["compute", "--window"])
@example(["compute", "--=x", "S22"])
@example(["catalog", "--=x", "1"])
def test_refused_argvs_exit_2_with_one_error_line(argv):
    # Each argv the reader refuses returns 2, with nothing on stdout and one
    # "error:" line on stderr that names a token of the argv, or what is
    # missing.
    try:
        _read(argv)
    except _InputError:
        pass
    else:
        return
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv) == 2
    line = err.getvalue()
    assert out.getvalue() == "" and line.startswith("error: ") and line.count("\n") == 1
    assert "missing" in line or any(repr(token) in line for token in argv), line


def readme_text():
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as f:
        return f.read()


def readme_examples():
    return [shlex.split(line, comments=True)[1:] for line in readme_text().splitlines()
            if line.startswith("c2surf ")]


def test_readme_example_outputs_are_what_the_cli_prints(capsys):
    # Each README command directly followed by a "# " line shows its stdout.
    lines = readme_text().splitlines()
    shown = [(shlex.split(line, comments=True)[1:], after.removeprefix("# "))
             for line, after in zip(lines, lines[1:])
             if line.startswith("c2surf ") and after.startswith("# ")]
    assert len(shown) >= 2
    for argv, out in shown:
        assert run(capsys, *argv) == (0, out + "\n", ""), argv


def test_readme_library_block_runs(capsys):
    section = readme_text().split("## Library", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "verify_decomposition" in block
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == X3.text + "\n"
