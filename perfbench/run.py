"""Benchmark of the c2surf package: four workloads, end-to-end and per-layer.

Run from the root of a source checkout (pure standard library; the package
is imported from ``src/``, nothing is installed)::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``catalog``, ``fold``, ``mutants`` and
``requests``.  One process, no threads.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``        median wall time of a fresh interpreter running
                     ``import c2surf.cli`` (a child process, several times);
* ``ops_per_s``      operations per second of timed work, the median over
                     blocks of at least ``BLOCK_S`` seconds;
* ``latency_p50_ms`` time per operation, median: per catalog row (stamped
                     as the row reaches stdout), per folded word, per
                     mutant, per request; the median over windows of about
                     ``P99_WINDOW`` operations;
* ``latency_p99_ms`` its 99th percentile, the median over the same windows;
* ``peak_rss_mb``    peak resident memory of this process, read when the
                     timed loop ends;

and reports ``error_rate`` as ``failed`` / ``attempted`` in the result line.
Operation times are scaled by a speed probe (see ``SpeedProbe``) that
cancels the shared host's slow spells; the unscaled figures go to the run's
record.  ``setup_s`` is scaled by the probes just around each start.

A run goes over a fixed set of inputs (``workload.run_units``) in passes,
and ``attempted`` and ``failed`` count each input once, so they depend on
the seed alone.  ``--trace 1`` runs a smaller fixed set per round, first
untraced and then with the per-layer tracer (``tracer.py``) installed, for
as many rounds as fit in ``--seconds``.  Its metrics are per round: calls, total and self
seconds per wrapped function, and the tracing overhead (traced minus
untraced time).  Calls repeat exactly from round to round and run to run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every operation's output is
checked.  Failures from the package defects listed in
``workloads.KNOWN_DEFECTS`` count in ``failed`` but keep ``correct`` true;
any other failure makes it false.  The run's full record, with metadata,
goes to ``.perfbench/`` at the checkout root, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from itertools import cycle, islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 21
BLOCK_S = 0.25
WARMUP_S = 0.25
P99_WINDOW = 500
PROBE_EVERY_S = 0.025
PROBE_REF_S = 0.0004


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_package():
    if not (SRC / "c2surf" / "__init__.py").is_file():
        _die(f"no c2surf sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    # The default windows are part of what is measured.
    os.environ.pop("ESC_WINDOW", None)
    import c2surf
    if Path(c2surf.__file__).resolve().parent != SRC / "c2surf":
        _die(f"imported c2surf from {c2surf.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Measurements.


def percentile(sorted_values, fraction):
    """Nearest-rank percentile of an ascending list."""
    rank = -(-fraction * len(sorted_values) // 1)
    return sorted_values[max(0, min(len(sorted_values), int(rank)) - 1)]


@dataclass(frozen=True)
class _Cell:
    p: int
    q: int


def _probe_work() -> int:
    # Small pure-Python work of the kind c2surf does: frozen dataclasses,
    # hashing, Counter updates and a keyed sort.
    counts = Counter()
    for i in range(200):
        cell = _Cell(i % 9 - 4, i % 13 - 6)
        counts[cell] += (cell.p * cell.q) & 3
    rows = sorted(counts.items(), key=lambda kv: (kv[0].p, kv[0].q))
    return sum(c for _, c in rows)


class SpeedProbe:
    """How fast the machine runs a fixed piece of work, sampled over time.

    On a shared host the same work can take 1.6 times longer, in spells
    that change within tens of milliseconds.  Each timing is therefore
    divided by the *speed factor* of the moment it was taken: the median
    duration of the probes nearest to it, divided by ``PROBE_REF_S``.  A
    reported time is thus the time on a machine where one probe takes
    ``PROBE_REF_S``.  The probe is code of the benchmark, so a change to
    c2surf leaves it alone.
    """

    def __init__(self, every_s: float = PROBE_EVERY_S):
        self.every_s = every_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._last = -math.inf

    def probe(self) -> float:
        # With the collector off, the probe's time does not depend on the
        # heap c2surf keeps alive; its objects are all freed by refcount.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _probe_work()
            end = time.perf_counter()
        finally:
            if gc_was_enabled:
                gc.enable()
        self.starts.append(start)
        self.durations.append(end - start)
        self._last = end
        return end - start

    def maybe(self) -> float:
        """Probe if the last probe is ``every_s`` old; the seconds spent."""
        if time.perf_counter() - self._last >= self.every_s:
            return self.probe()
        return 0.0

    def factor(self, start: float, end: float, nearest: int = 2) -> float:
        """Speed factor over [start, end]: the probes inside it, or else
        the ``nearest`` probes to it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < nearest and (lo > 0 or hi < len(self.starts)):
            if lo > 0 and (hi == len(self.starts)
                           or start - self.starts[lo - 1] < self.starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.durations[lo:hi]) / PROBE_REF_S


def measure_setup(probe: SpeedProbe) -> tuple[float, float]:
    """Median of fresh ``import c2surf.cli`` times, raw and scaled.

    Each start is scaled by the probes just around it: the child runs on
    the same host in the same spell, and over sets of ten runs the medians
    of the scaled times agree far more closely than those of the raw ones.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ESC_WINDOW", None)
    argv = [sys.executable, "-c", "import c2surf.cli"]
    # The first start also writes the bytecode caches; it is not timed.
    subprocess.run(argv, env=env, check=True, cwd=ROOT)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(3):
            probe.probe()
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, cwd=ROOT)
        end = time.perf_counter()
        for _ in range(3):
            probe.probe()
        raw.append(end - start)
        scaled.append((end - start) / probe.factor(start, end, nearest=6))
    return statistics.median(raw), statistics.median(scaled)


class Tally:
    """Attempted and failed operations over a fixed set of inputs.

    A run goes over the same inputs in passes.  Each input counts once, by
    its first verdict, so ``attempted`` and ``failed`` depend on the seed
    alone, not on how many passes fit in the run.  A later pass must give
    the same verdict; one that does not counts as one more attempted and
    failed operation, and makes the run incorrect.
    """

    def __init__(self):
        self.attempted = self.failed = self.known = self.changed = 0
        self.first = {}             # input index -> (failed, known) of its first verdict
        self.first_unexpected = None
        self.first_known = None

    def add(self, index: int, verdict) -> None:
        seen = self.first.get(index)
        if seen is None:
            self.first[index] = (verdict.failed, verdict.known)
            self.attempted += verdict.attempted
            self.failed += verdict.failed
            self.known += verdict.known
            if verdict.failed > verdict.known and self.first_unexpected is None:
                self.first_unexpected = verdict.message
            elif verdict.known and self.first_known is None:
                self.first_known = verdict.message
        elif seen != (verdict.failed, verdict.known):
            self.changed += 1
            self.attempted += 1
            self.failed += 1
            if self.first_unexpected is None:
                self.first_unexpected = (f"input {index} changed its verdict on a later "
                                         f"pass: {verdict.message or 'now passes'}")

    @property
    def unexpected(self) -> int:
        return self.failed - self.known


class Timings:
    """The timed units of a run, summarised one window at a time.

    A window closes with the unit that brings it to ``P99_WINDOW``
    latencies.  Each of its latencies is then divided by the speed factor
    of its own moment, and only the window's p50 and p99 and the finished
    ``ops_per_s`` blocks are kept: a few numbers per window, none per
    operation, so that ``peak_rss_mb`` measures c2surf, not this bookkeeping.

    A run's p50 and p99 are medians over its windows, which keeps a burst
    of host stalls in one window from moving them; a last, partial window
    counts only when there is no full one.  Units are grouped into blocks
    of at least ``BLOCK_S`` timed seconds, and ``ops_per_s`` is the median
    over blocks of operations per scaled second.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.open: list[tuple] = []     # (ops, elapsed, latencies, ends) per unit
        self.open_size = 0
        self.windows: list[tuple] = []  # (p50, p99, raw p50, raw p99, speed factor)
        self.rates: list[float] = []
        self.block = [0, 0.0, 0.0]      # operations, raw and scaled seconds
        self.ops = self.latencies = 0
        self.timed = self.scaled = 0.0

    def add(self, unit) -> None:
        self.open.append((unit.ops, unit.elapsed, unit.latencies, unit.ends))
        self.open_size += len(unit.latencies)
        if self.open_size >= P99_WINDOW:
            self._close(full=True)

    def _close(self, full: bool) -> None:
        self.probe.probe()              # a probe after the newest latencies
        raw, scaled, factors = [], [], []
        for ops, elapsed, latencies, ends in self.open:
            first = len(scaled)
            for latency, end in zip(latencies, ends):
                factors.append(self.probe.factor(end - latency, end))
                scaled.append(latency / factors[-1])
            raw.extend(latencies)
            unit_scaled = sum(scaled[first:])
            self.ops += ops
            self.latencies += len(latencies)
            self.timed += elapsed
            self.scaled += unit_scaled
            block = self.block
            block[0] += ops
            block[1] += elapsed
            block[2] += unit_scaled
            if block[1] >= BLOCK_S:
                self.rates.append(block[0] / block[2])
                self.block = [0, 0.0, 0.0]
        if full or not self.windows:
            raw.sort()
            scaled.sort()
            self.windows.append((percentile(scaled, 0.50), percentile(scaled, 0.99),
                                 percentile(raw, 0.50), percentile(raw, 0.99),
                                 statistics.median(factors)))
        self.open, self.open_size = [], 0

    def finish(self) -> dict:
        if self.open:
            self._close(full=False)
        p50, p99, raw_p50, raw_p99, factor = (statistics.median(column)
                                              for column in zip(*self.windows))
        rates = self.rates or [self.ops / (self.scaled or self.timed)]  # under one block
        return {"latency_p50_ms": 1e3 * p50, "latency_p99_ms": 1e3 * p99,
                "ops_per_s": statistics.median(rates),
                "raw": {"latency_p50_ms": 1e3 * raw_p50, "latency_p99_ms": 1e3 * raw_p99,
                        "ops_per_s": self.ops / self.timed},
                "samples": {"operations": self.ops, "latencies": self.latencies,
                            "windows": len(self.windows), "rate_blocks": len(rates),
                            "timed_s": self.timed, "speed_factor": factor,
                            "probes": len(self.probe.durations)}}


def run_untraced(workload, seconds: float, tally: Tally, probe: SpeedProbe) -> dict:
    """Passes over the first ``workload.run_units`` inputs until ``seconds``
    of wall time pass and every input has run once: their ``Timings``
    summary and the peak memory when the timed loop ends."""
    items = list(islice(workload.inputs(), workload.run_units))
    timings = Timings(probe)
    start = time.perf_counter()
    warm_until = start + min(WARMUP_S, seconds / 4)
    deadline = start + seconds
    for index, item in cycle(enumerate(items)):
        probe.maybe()
        unit = workload.run(item, pause=probe.maybe)
        now = time.perf_counter()
        tally.add(index, workload.check(item, unit.output))
        if now >= warm_until:
            timings.add(unit)
        if now >= deadline and len(tally.first) == len(items):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return dict(timings.finish(), peak_rss_mb=peak_rss_mb)


def _run_pass(workload, items, tracer, tally: Tally, probe: SpeedProbe):
    """One pass over ``items``: its timed seconds, speed factor and outputs.

    Probes run just before and after the pass, not inside it, so the
    tracer sees only c2surf's own calls.
    """
    for _ in range(4):
        probe.probe()
    start = time.perf_counter()
    if tracer is None:
        units = [workload.run(item) for item in items]
    else:
        with tracer:
            units = [tracer.operation(i, workload.run, item)
                     for i, item in enumerate(items)]
    end = time.perf_counter()
    for _ in range(4):
        probe.probe()
    # Checks run after the tracer is removed, so they add no calls.
    for index, (item, unit) in enumerate(zip(items, units)):
        tally.add(index, workload.check(item, unit.output))
    return (sum(unit.elapsed for unit in units), probe.factor(start, end, nearest=8),
            [unit.output for unit in units])


def run_traced(workload, seconds: float, tally: Tally, probe: SpeedProbe,
               names: list[str]) -> dict:
    """Rounds of one untraced and one traced pass over a fixed input set.

    Seconds are medians over rounds, each scaled by its pass's speed
    factor; counts must be equal in every round.
    """
    from tracer import Tracer

    items = list(islice(workload.inputs(), workload.trace_units))
    plain_s, traced_s, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    _run_pass(workload, items, None, tally, probe)      # warm-up
    while not rounds or time.perf_counter() < deadline:
        elapsed, factor, _ = _run_pass(workload, items, None, tally, probe)
        plain_s.append(elapsed / factor)
        tracer = Tracer()
        tracer.keep_spans = not rounds
        elapsed, factor, outputs = _run_pass(workload, items, tracer, tally, probe)
        traced_s.append(elapsed / factor)
        if hasattr(workload, "trace_counts"):
            tracer.counts.update(workload.trace_counts(outputs))
        rounds.append((tracer, factor))
    metrics, consistent = {}, True
    for name in names:
        if name.startswith("trace."):
            continue
        layer, _, stat = name.rpartition(".")
        if stat == "s":
            metrics[name] = statistics.median(t.total_s[layer] / f for t, f in rounds)
        elif stat == "self_s":
            metrics[name] = statistics.median(t.self_s[layer] / f for t, f in rounds)
        else:
            values = {t.calls[layer] if stat == "calls" else t.counts[name] for t, _ in rounds}
            consistent &= len(values) == 1
            metrics[name] = values.pop()
    plain, traced = statistics.median(plain_s), statistics.median(traced_s)
    metrics["trace.overhead_s"] = traced - plain
    metrics["trace.overhead_ratio"] = (traced - plain) / plain
    return {"metrics": metrics, "consistent_calls": consistent, "spans": rounds[0][0].spans,
            "samples": {"rounds": len(rounds), "units_per_round": len(items),
                        "untraced_round_s": plain, "traced_round_s": traced,
                        "speed_factor": statistics.median(f for _, f in rounds)}}


# ---------------------------------------------------------------------------
# Metadata and output.


def _read(path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:]).strip() or "unknown"
    return head or "unknown"


def metadata(args, why: str) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": why,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "loadavg": _read("/proc/loadavg").split()[:3],
        "python": platform.python_version(), "commit": _git_commit(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    spec = load_spec()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    meta = metadata(args, why)
    tally = Tally()
    record = {"meta": meta}

    probe = SpeedProbe()
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metric_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        traced = run_traced(workload, args.seconds, tally, probe, names)
        values = traced["metrics"]
        correct = traced["consistent_calls"]
        record["samples"] = traced["samples"]
        _write_spans(args, traced["spans"])
    else:
        metric_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        raw_setup_s, setup_s = measure_setup(probe)
        measured = run_untraced(workload, args.seconds, tally, probe)
        values = {"setup_s": setup_s,
                  **{name: measured[name] for name in
                     ("ops_per_s", "latency_p50_ms", "latency_p99_ms", "peak_rss_mb")}}
        correct = True
        record["samples"] = dict(measured["samples"], setup_starts=SETUP_REPEATS,
                                 inputs=workload.run_units)
        record["unscaled"] = dict(measured["raw"], setup_s=raw_setup_s)
    correct = correct and tally.unexpected == 0 and tally.attempted > 0
    meta["loadavg_end"] = _read("/proc/loadavg").split()[:3]
    record["errors"] = {"error_rate": tally.failed / max(tally.attempted, 1),
                        "failed": tally.failed, "attempted": tally.attempted,
                        "known_defect_failures": tally.known,
                        "changed_verdicts": tally.changed,
                        "first_known": tally.first_known,
                        "first_unexpected": tally.first_unexpected}
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in metric_units.items()}}
    record["result"] = result
    _report(record)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def _write_spans(args, spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    fields = ("id", "parent", "op", "name", "start", "end")
    with path.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _report(record) -> None:
    meta, samples, errors = record["meta"], record["samples"], record["errors"]
    print(f"perfbench {meta['workload']} seed={meta['seed']} seconds={meta['seconds']:g} "
          f"trace={meta['trace']}: {meta['why']}")
    print(f"  machine: nproc={meta['nproc']} cpu={meta['cpu_model']!r} "
          f"load={' '.join(meta['loadavg'])} -> {' '.join(meta['loadavg_end'])} "
          f"python={meta['python']} commit={meta['commit'][:12]}")
    print("  samples: " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in samples.items()))
    for name, metric in record["result"]["metrics"].items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'error_rate':40s} {errors['error_rate']:>14.6g} "
          f"({errors['failed']} failed / {errors['attempted']} attempted; "
          f"{errors['known_defect_failures']} from known defects)")
    for key in ("first_known", "first_unexpected"):
        if errors[key]:
            print(f"  {key}: {errors[key]}")


if __name__ == "__main__":
    sys.exit(main())
