#!/usr/bin/env python3
"""Merge BENCH_*.json into one trajectory table and gate regressions.

    python3 scripts/bench_trend.py [DIR]

reads the fresh BENCH_*.json files in DIR (default: results/) and compares
each with the baseline committed as results/<same name> at HEAD.

Two producers feed the directory:

  * google-benchmark binaries (bench_micro, bench_telemetry) write the stock
    ``{"context": ..., "benchmarks": [...]}`` layout; the interesting numbers
    live in per-benchmark user counters (ns_per_send, us_per_roundtrip, ...).
  * the Table-based figure benches write ``{"format": "mpim-bench-tables",
    "tables": [{"name", "header", "rows"}]}`` via bench_common.h; every cell
    is a string, numeric or not.

This script flattens both into ``program/benchmark.metric`` rows, compares
them against the committed baseline (``git show HEAD:<file>``) when one
exists, and exits non-zero when a *hot-path* metric regressed by more than
REGRESSION_LIMIT. Non-hot-path metrics are reported but never gate: figure
checks are pass/fail inside the bench binaries themselves, and host-side
table numbers are too noisy to gate on.

Both layouts also carry the fingerprint of the host that measured them
(bench_common.h: top-level "host" object, or "mpim_host_*" context keys).
It is not a metric: a baseline from another host is reported, never gated.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "results"
REGRESSION_LIMIT = 0.10  # fraction; >10% slower on a hot-path metric fails
# Metrics where "bigger is slower" and the measurement is stable enough to
# gate on. Everything else is informational.
HOT_PATH_METRICS = ("ns_per_send", "us_per_roundtrip")
# Throughput metrics where "smaller is slower": these gate on a *drop*
# beyond REGRESSION_LIMIT (bench_record's recording fast path,
# bench_stream's plane ingest and bench_fabric's np=1024 hierarchical
# TreeMatch reorder rate).
HOT_PATH_INVERSE_METRICS = ("sends_per_sec", "events_per_sec",
                            "reorders_per_sec")


def flatten(doc):
    """Yield (key, value) pairs of the numeric metrics in one BENCH_*.json."""
    if doc.get("format") == "mpim-bench-tables":
        prog = doc.get("program", "?")
        for table in doc.get("tables", []):
            header = table.get("header", [])
            for row in table.get("rows", []):
                label = row[0] if row else "?"
                for col, cell in zip(header[1:], row[1:]):
                    try:
                        val = float(cell.split()[0])
                    except (ValueError, IndexError):
                        continue
                    yield f"{prog}/{table.get('name', '?')}[{label}].{col}", val
        return
    # google-benchmark layout: counters are the top-level keys that are not
    # part of the fixed schema.
    skip = {
        "name", "family_index", "per_family_instance_index", "run_name",
        "run_type", "repetitions", "repetition_index", "threads",
        "iterations", "real_time", "cpu_time", "time_unit",
    }
    prog = Path(doc.get("context", {}).get("executable", "?")).name
    if prog.startswith("bench_"):
        prog = prog[len("bench_"):]
    for bench in doc.get("benchmarks", []):
        for key, val in bench.items():
            if key in skip or not isinstance(val, (int, float)):
                continue
            yield f"{prog}/{bench['name']}.{key}", float(val)
        # TreeMatch-style benches carry no counters; fall back to real_time.
        if not any(k not in skip and isinstance(v, (int, float))
                   for k, v in bench.items()):
            yield (f"{prog}/{bench['name']}.real_{bench.get('time_unit', '?')}",
                   float(bench.get("real_time", math.nan)))


def host_of(doc):
    """The host fingerprint stamped into one BENCH_*.json, or None."""
    if "host" in doc:
        return doc["host"]
    prefix = "mpim_host_"
    ctx = doc.get("context", {})
    return {k[len(prefix):]: v for k, v in ctx.items()
            if k.startswith(prefix)} or None


def baseline_for(path):
    """The committed version of `path`, or None when HEAD has no copy."""
    proc = subprocess.run(
        ["git", "-C", str(REPO), "show", f"HEAD:results/{path.name}"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def main():
    results = Path(sys.argv[1]) if len(sys.argv) > 1 else RESULTS
    files = sorted(results.glob("BENCH_*.json"))
    if not files:
        print(f"bench_trend: no BENCH_*.json under {results}", file=sys.stderr)
        return 2

    rows = []       # (key, current, baseline-or-None, delta-or-None, gated)
    regressions = []
    other_host = []  # files whose baseline was measured on another host
    for path in files:
        try:
            doc = json.loads(path.read_text())
            current = dict(flatten(doc))
        except (json.JSONDecodeError, OSError) as e:
            print(f"bench_trend: cannot parse {path.name}: {e}",
                  file=sys.stderr)
            return 2
        base_doc = baseline_for(path)
        base = dict(flatten(base_doc)) if base_doc else {}
        if base_doc and host_of(base_doc) and host_of(doc) and \
                host_of(base_doc) != host_of(doc):
            other_host.append(path.name)
        for key, val in sorted(current.items()):
            ref = base.get(key)
            delta = (val / ref - 1.0) if ref else None
            slower_when_up = key.endswith(HOT_PATH_METRICS)
            slower_when_down = key.endswith(HOT_PATH_INVERSE_METRICS)
            gated = slower_when_up or slower_when_down
            rows.append((key, val, ref, delta, gated))
            if delta is None:
                continue
            if (slower_when_up and delta > REGRESSION_LIMIT) or \
                    (slower_when_down and delta < -REGRESSION_LIMIT):
                regressions.append((key, ref, val, delta))

    width = max(len(r[0]) for r in rows)
    print(f"{'metric':<{width}}  {'current':>12}  {'baseline':>12}  "
          f"{'delta':>8}  gate")
    for key, val, ref, delta, gated in rows:
        ref_s = f"{ref:12.4g}" if ref is not None else f"{'-':>12}"
        delta_s = f"{delta:+8.1%}" if delta is not None else f"{'-':>8}"
        print(f"{key:<{width}}  {val:12.4g}  {ref_s}  {delta_s}  "
              f"{'hot' if gated else '-'}")

    if other_host:
        print(f"\nbench_trend: note -- baseline measured on another host "
              f"(absolute numbers not comparable): {', '.join(other_host)}")
    if regressions:
        print(f"\nbench_trend: FAIL -- hot-path regression over "
              f"{REGRESSION_LIMIT:.0%}:")
        for key, ref, val, delta in regressions:
            print(f"  {key}: {ref:.4g} -> {val:.4g} ({delta:+.1%})")
        return 1
    n_base = sum(1 for r in rows if r[2] is not None)
    gates = ", ".join(HOT_PATH_METRICS + HOT_PATH_INVERSE_METRICS)
    print(f"\nbench_trend: OK ({len(rows)} metrics, {n_base} vs baseline, "
          f"limit {REGRESSION_LIMIT:.0%} on {gates})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
