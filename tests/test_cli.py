"""Command dispatch, output formats, exit codes, and the env override."""

import json
import os
import subprocess
import sys

import pytest

from c2surf.cli import main

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
