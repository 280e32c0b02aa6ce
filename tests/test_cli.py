"""Command dispatch, output formats, exit codes, and the env override."""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from c2surf.cli import _build_parser, _match, _preprocess, main
from c2surf.engine import closed_form
from c2surf.surfaces import enumerate_profiles

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_word(capsys):
    code, out, _ = run(capsys, "compute", "S21 + AT10")
    assert code == 0
    assert out.strip() == "M2 + S(1,0)M2 + S(1,1)M2 + S(2,1)M2"


def test_compute_profile_json(capsys):
    code, out, _ = run(capsys, "compute",
                       '{"kind":"nonfree","beta":14,"F":8,"C":0}')
    assert code == 0
    assert out.strip() == "M2 + S(1,1)M2^6 + S(2,2)M2 + S(1,0)A0^4"


def test_compute_trivial_surface(capsys):
    code, out, _ = run(capsys, "compute", "triv:T[1]")
    assert code == 0
    assert out.strip() == "M2 + S(1,0)M2^2 + S(2,0)M2"


def test_compute_json_round_trip(capsys):
    code, out, _ = run(capsys, "compute", "--json", "S21 + AT10")
    assert code == 0
    obj = json.loads(out)
    assert json.dumps(obj, separators=(",", ":")) == out.strip()
    assert obj["free"] == [[0, 0, 1], [1, 0, 1], [1, 1, 1], [2, 1, 1]]


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


def test_verify_window_flag_with_negative_values(capsys):
    # Both "--window=-2:6,-8:8" and the two-token spelling must work.
    code, out, _ = run(capsys, "verify", "--window=-2:6,-8:8", "S2a")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--window", "-2:6,-8:8", "S2a")
    assert code == 0
    assert "-2:6,-8:8" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--json", "S21 + AT10")
    assert code == 0 and json.loads(out) == []
    code, out, _ = run(capsys, "verify", "--json", "--inject", "drop:1,1",
                       "S21 + AT10")
    assert code == 1
    report = json.loads(out)
    assert report and set(report[0]) == {"check", "location", "expected", "actual"}


def test_double_dash_window_is_bad_input(capsys):
    # argparse before Python 3.13 stores the value "--" as [], which used to
    # end in an AttributeError traceback; every version must reject it.
    for argv in (["verify", "--window", "--", "S22"], ["verify", "--window=--", "S22"],
                 ["compute", "--grid", "--window=--", "S22"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: bad window '--' (want pmin:pmax,qmin:qmax)\n", argv
    code, out, err = run(capsys, "verify", "--inject=--", "S22")
    assert (code, out, err) == (2, "", "error: bad injection '--' (want drop:p,q)\n")


def test_esc_window_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ESC_WINDOW", "0:1,0:1")
    code, out, _ = run(capsys, "verify", "S22")
    assert code == 0
    assert "[window 0:1,0:1]" in out
    monkeypatch.setenv("ESC_WINDOW", "junk")
    code, _, err = run(capsys, "verify", "S22")
    assert code == 2


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
    proc = subprocess.run([sys.executable, "-m", "c2surf", "compute", "S22 + FM"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "M2 + S(1,1)M2 + S(2,1)M2"


def test_closed_stdout_pipe_exits_141_without_a_traceback():
    # catalog 40 prints about 400 KB, more than a pipe buffer holds, so the
    # program is still writing when the reader closes the pipe.
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-m", "c2surf", "catalog", "40"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"triv:T[0]\t")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert b"Traceback" not in err, err.decode()


def fresh_process(argv):
    """stdout, stderr and exit code of one call in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("ESC_WINDOW", None)
    proc = subprocess.run([sys.executable, "-m", "c2surf", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_reuse_keeps_calls_independent(capsys, monkeypatch):
    # One process reuses one parser: no flag may carry over to the next call.
    monkeypatch.delenv("ESC_WINDOW", raising=False)
    x = "S21 + AT10"
    sequence = [["compute", "--grid", "--window=0:2,0:2", x], ["compute", "--grid", x],
                ["verify", "--json", x], ["verify", x], ["compute", "--reduced", x],
                ["compute", x], ["verify", "--inject", "drop:1,1", x], ["verify", x]]
    for argv in sequence:
        assert run(capsys, *argv) == fresh_process(argv), argv
    # An argparse error leaves the parser usable.
    with pytest.raises(SystemExit) as exc:
        main(["compute"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert run(capsys, "compute", x) == fresh_process(["compute", x])
    # Argvs the plain matcher declines keep argparse's own answer, byte for
    # byte; usage lines wrap at the terminal width, so pin it.
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["compute"], ["compute", "--js", "S22"], ["verify", "--inject", "--", "S22"],
                 ["catalog", "x"], ["frob"]):
        assert _match(_preprocess(argv)) is None, argv
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == fresh_process(argv), argv


def test_import_builds_no_parser():
    # The parser is built on the first call, so importing the CLI stays cheap.
    code = ("import c2surf.cli as cli\n"
            "assert cli._build_parser.cache_info().currsize == 0\n"
            "cli.main(['compute', 'S22'])\n"
            "assert cli._build_parser.cache_info().currsize == 1\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr


# SHA-256 of the exit code and stdout of every call of ``golden_requests``,
# recorded with the windowed checks that preceded the exact ones: 51,849
# lines, and no correct answer's output may move.
GOLDEN_CLI_SHA256 = "0842013d4e6ae97a3a8eb0380e06a1f8dc0bbf6f489b32e8dca7a2329984da60"


def golden_requests():
    """compute and verify, as text and JSON, on every profile with beta <= 20;
    verify with each of its free summands dropped; then catalog 40."""
    for pr in enumerate_profiles(20):
        text = json.dumps(pr.to_json_obj(), separators=(",", ":"))
        yield from (["compute", text], ["compute", "--json", text],
                    ["verify", text], ["verify", "--json", text])
        for s, _ in closed_form(pr).items():
            if s.is_free:
                yield ["verify", "--inject", f"drop:{s.shift.p},{s.shift.q}", text]
    yield ["catalog", "40"]


def test_cli_output_matches_the_golden_hash(capsys, monkeypatch):
    monkeypatch.delenv("ESC_WINDOW", raising=False)
    digest = hashlib.sha256()
    lines = 0
    for argv in golden_requests():
        code = main(argv)
        record = f"{code}\n{capsys.readouterr().out}"
        digest.update(record.encode())
        lines += record.count("\n")
    assert lines == 51849
    assert digest.hexdigest() == GOLDEN_CLI_SHA256


# Pieces of argvs for the matcher-against-argparse test: every subcommand,
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
# A subcommand, options, one value, options and a last piece; the first, the
# value and the last are sometimes any piece at all, so that the matcher
# often accepts and often declines.
argvs = st.tuples(st.sampled_from(COMMANDS) | pieces, options,
                  st.sampled_from(VALUE_PIECES) | pieces, options,
                  st.lists(pieces, max_size=1)).map(
    lambda t: [token for piece in (t[0], *t[1], t[2], *t[3], *t[4])
               for token in ((piece,) if isinstance(piece, str) else piece)])


@settings(max_examples=400)
@given(argvs)
@example(["compute", "--json", "--window=-2:6,-8:8", "S22", "--grid"])
@example(["verify", "--window=--", "S22"])
@example(["verify", "--inject", "-h", "S22"])
@example(["compute", "--json=1", "S22"])
@example(["catalog", "12", "12"])
def test_matcher_agrees_with_argparse(argv):
    argv = _preprocess(argv)
    namespace = _match(argv)
    if namespace is not None:
        # argparse exiting here (SystemExit) fails the test too.
        assert vars(namespace) == vars(_build_parser().parse_args(argv))


def readme_examples():
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as f:
        return [shlex.split(line, comments=True)[1:] for line in f
                if line.startswith("c2surf ")]


def test_plain_requests_skip_argparse(capsys, monkeypatch):
    # With parse_args unusable, every README example and golden request must
    # still be answered: the matcher must not silently decline them all.
    def refuse(self, args=None, namespace=None):
        raise AssertionError(f"argparse entered for {args!r}")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    examples = readme_examples()
    assert len(examples) >= 8
    for argv in examples:
        assert main(argv) in (0, 1), argv
    capsys.readouterr()
    for argv in golden_requests():
        assert _match(_preprocess(argv)) is not None, argv
