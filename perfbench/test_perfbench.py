"""Tests of the benchmark itself (not of c2surf).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice

import pytest

import run

run._load_package()

import tracer  # noqa: E402
import workloads  # noqa: E402
from c2surf import checks, cli, engine, f2linalg  # noqa: E402
import c2surf  # noqa: E402
from c2surf.bigraded import Decomposition, Summand  # noqa: E402

SPEC = run.load_spec()
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def _key(item):
    if isinstance(item, workloads.Mutant):
        return (str(item.profile), item.decomposition.to_json_obj(), item.change)
    if isinstance(item, workloads.Request):
        return (item.argv, item.expect, item.defect)
    return item


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    cls = workloads.WORKLOADS[name]
    first = [_key(x) for x in islice(cls(5).inputs(), 200)]
    again = [_key(x) for x in islice(cls(5).inputs(), 200)]
    assert first == again
    if name != "catalog":       # catalog's only input is its beta bound
        other = [_key(x) for x in islice(cls(6).inputs(), 200)]
        assert other != first


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "ops_per_s", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb"}
    for name, _, _, _ in tracer.TARGETS:
        assert any(m.startswith(name + ".") for m in PER_LAYER), name


# ---------------------------------------------------------------------------
# Each workload's check passes the real output and fails a corrupted one.


def test_catalog_check_rejects_corrupted_rows():
    wl = workloads.Catalog(1)
    unit = wl.run(wl.beta_max)
    rc, text = unit.output
    assert unit.ops == len(wl.reference_rows) == len(unit.latencies)
    assert wl.check(wl.beta_max, unit.output) == workloads.Verdict(len(wl.reference_rows))
    rows = text.splitlines()
    assert wl.check(wl.beta_max, (0, "\n".join(rows[:-1]) + "\n")).failed == 1
    assert wl.check(wl.beta_max, (1, text)).failed == len(rows)
    rows[3] = rows[3].replace("M2", "A0", 1)
    bad = wl.check(wl.beta_max, (rc, "\n".join(rows) + "\n"))
    assert bad.failed == 2 and bad.known == 0


def test_fold_check_rejects_a_wrong_step():
    wl = workloads.Fold(1)
    item = next(x for x in wl.inputs() if x[1] >= 3)
    unit = wl.run(item)
    assert wl.check(item, unit.output) == workloads.Verdict(item[1])
    steps = list(unit.output)
    d, want, _ = steps[1]
    steps[1] = (d + Decomposition([Summand.free(0, 0)]), want, True)
    bad = wl.check(item, steps)
    assert bad.failed == 1 and bad.known == 0
    # An exception after one step fails the steps that never ran.
    assert wl.check(item, (steps[:1], ValueError("boom"))).failed == item[1] - 1


def test_mutant_check_rejects_an_accepted_mutant():
    wl = workloads.Mutants(1)
    near = next(m for m in wl.inputs() if m.change.startswith("-"))
    far = next(m for m in wl.inputs()
               if m.added_antipodal_p is not None and m.added_antipodal_p > 6)
    assert wl.check(near, wl.run(near).output) == workloads.Verdict(1)
    accepted = wl.check(near, [])
    assert (accepted.failed, accepted.known) == (1, 0)
    # The seed's far-shift escape is a failure of a known defect.
    escaped = wl.check(far, wl.run(far).output)
    assert (escaped.failed, escaped.known) == (1, 1)
    assert "far-antipodal-escape" in escaped.message


def test_request_check_rejects_corrupted_answers():
    wl = workloads.Requests(2)
    seen = {}
    for req in islice(wl.inputs(), 400):
        if req.expect not in seen and req.defect is None:
            seen[req.expect] = req
    assert set(seen) == set(workloads.REQUEST_CLASSES)
    for expect, req in seen.items():
        code, out, err = wl.run(req).output
        assert wl.check(req, (code, out, err)) == workloads.Verdict(1), req
        wrong_code = 0 if code else 2
        assert wl.check(req, (wrong_code, out, err)).failed == 1, req
        assert wl.check(req, (RuntimeError("x"), "", "")).failed == 1, req
        if expect.startswith("compute"):
            corrupted = out.replace("1", "2") if "1" in out else out + "x"
            assert wl.check(req, (code, corrupted, err)).failed == 1, req
    json_req = seen["compute-json"]
    code, out, err = wl.run(json_req).output
    obj = json.loads(out)
    obj["free"] = obj["free"][1:] if obj["free"] else [[0, 0, 1]]
    assert wl.check(json_req, (code, json.dumps(obj) + "\n", err)).failed == 1


def test_non_integer_beta_is_a_known_failure():
    wl = workloads.Requests(2)
    req = next(r for r in wl.inputs() if r.defect == "non-integer-beta")
    verdict = wl.check(req, wl.run(req).output)
    assert (verdict.failed, verdict.known) == (1, 1)


# ---------------------------------------------------------------------------
# Counts.


def test_counts_depend_on_the_seed_not_the_time():
    counts = []
    for seconds in (0.0, 1.0):
        wl = workloads.Mutants(7)
        wl.run_units = 40
        tally = run.Tally()
        run.run_untraced(wl, seconds, tally, run.SpeedProbe())
        counts.append((tally.attempted, tally.failed, tally.known, tally.changed))
    assert counts[0] == counts[1]
    assert counts[0][0] == 40 and counts[0][1] > 0


def test_a_changed_verdict_is_an_unexpected_failure():
    tally = run.Tally()
    tally.add(0, workloads.Verdict(1))
    tally.add(0, workloads.Verdict(1))
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 0, 0)
    tally.add(0, workloads.Verdict(1, 1, 0, "accepted"))
    assert (tally.attempted, tally.failed, tally.changed, tally.unexpected) == (2, 1, 1, 1)
    assert "changed its verdict" in tally.first_unexpected


# ---------------------------------------------------------------------------
# Timings.


def test_timings_keep_only_window_summaries():
    probe = run.SpeedProbe()
    probe.probe()
    timings = run.Timings(probe)
    clock = 0.0
    for i in range(3 * run.P99_WINDOW + 10):
        clock += 0.001
        timings.add(workloads.Unit(0.001, 2, [0.001], [probe.starts[-1] + clock], None))
        assert len(timings.open) < run.P99_WINDOW
    summary = timings.finish()
    assert len(timings.windows) == 3 and not timings.open
    assert summary["samples"]["operations"] == 2 * (3 * run.P99_WINDOW + 10)
    assert summary["raw"]["latency_p50_ms"] == pytest.approx(1.0)
    assert summary["latency_p99_ms"] > 0 and summary["ops_per_s"] > 0


# ---------------------------------------------------------------------------
# Tracing.


def test_tracer_wraps_every_caller_binding():
    originals = (engine.closed_form, f2linalg.betti_f2, checks.check_forgetful_les)
    t = tracer.Tracer()
    with t:
        assert checks.closed_form is engine.closed_form is cli.closed_form
        assert c2surf.closed_form is engine.closed_form
        assert engine.closed_form is not originals[0]
        assert checks.betti_f2 is f2linalg.betti_f2 is not originals[1]
        assert {"c2surf.checks.closed_form", "c2surf.cli.closed_form",
                "c2surf.checks.betti_f2", "c2surf.closed_form"} <= set(t.bindings())
    assert (engine.closed_form, f2linalg.betti_f2, checks.check_forgetful_les) == originals
    assert checks.closed_form is originals[0]


# Layers each workload must reach (nonzero) and must not reach (zero).
REACHED = {
    "catalog": ({"checks.check_forgetful_les.s", "checks.forgetful_les.bidegrees",
                 "surfaces.enumerate_profiles.s", "surfaces.profiles_by_words.calls",
                 "f2linalg.betti_f2.s", "f2linalg.F2Matrix.rank.calls",
                 "bigraded.dim_at.calls", "engine.closed_form.calls", "cli.main.s"},
                {"engine.transform.s", "checks.violations", "bigraded.render_grid.s"}),
    "fold": ({"engine.transform.s", "engine.closed_form.s", "bigraded.Decomposition.eq.s",
              "bigraded.Decomposition.init.calls", "bigraded.Decomposition.items.calls",
              "surfaces.parse_word.s", "surfaces.apply_op.calls"},
             {"checks.verify_decomposition.s", "checks.forgetful_les.bidegrees",
              "bigraded.dim_at.calls", "cli.main.s", "f2linalg.F2Matrix.rank.calls"}),
    "mutants": ({"checks.verify_decomposition.s", "checks.check_quotient_row.s",
                 "checks.check_rho_localization.s", "checks.check_top_class.s",
                 "checks.check_beta_recovery.s", "checks.violations",
                 "checks.mutants_tried", "checks.mutants_rejected",
                 "bigraded.rank_at.calls", "f2linalg.betti_f2.s"},
                {"engine.transform.s", "cli.main.s"}),
    "requests": ({"cli.main.s", "cli.main.self_s", "bigraded.render_grid.s",
                  "surfaces.parse_word.s", "engine.closed_form.s",
                  "checks.verify_decomposition.s", "checks.violations"},
                 {"engine.transform.s", "checks.mutants_tried"}),
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_calls_repeat_and_reach_their_layers(name):
    results = []
    for _ in range(2):
        tally = run.Tally()
        wl = workloads.WORKLOADS[name](3)
        results.append(run.run_traced(wl, 0.0, tally, run.SpeedProbe(), PER_LAYER))
        assert tally.unexpected == 0
    first, second = (r["metrics"] for r in results)
    assert set(first) == set(PER_LAYER)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert all(r["consistent_calls"] for r in results)
    reached, untouched = REACHED[name]
    assert [m for m in reached if not first[m]] == []
    assert [m for m in untouched if first[m]] == []
    assert results[0]["spans"], "operation and check spans are kept"


# ---------------------------------------------------------------------------
# The command line.


def test_run_fails_without_sources():
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in (run.ROOT / "perfbench").rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                target = bare / path.relative_to(run.ROOT)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(path, target)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fold", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no c2surf sources" in proc.stderr


def test_untraced_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fold", "--seed", "4",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
