#!/usr/bin/env python3
"""Merge BENCH_*.json into one trajectory table and gate regressions.

    python3 scripts/bench_trend.py [DIR]

reads the fresh BENCH_*.json files in DIR (default: results/) and compares
each with the baseline committed as results/<same name> at HEAD.

Two producers feed the directory:

  * google-benchmark binaries (bench_micro, bench_telemetry) write the stock
    ``{"context": ..., "benchmarks": [...]}`` layout; the interesting numbers
    live in per-benchmark user counters (us_per_roundtrip, ...).
  * the Table-based benches write ``{"format": "mpim-bench-tables",
    "tables": [{"name", "header", "rows"}]}`` via bench_common.h; every cell
    is a string, numeric or not.

Both flatten into ``program/table[row].column`` (or
``program/benchmark.counter``) metrics, printed next to their baselines.
One rule gates: a metric ``x`` whose row also carries ``x_ci95``, the
half-width of a 95% confidence interval over repeated samples, fails only
when that whole interval lies beyond baseline x (1 +- REGRESSION_LIMIT) on
the slower side (lower is slower for ``*per_sec``, higher for the rest).
Metrics without an interval are reported, never gated: figure checks are
pass/fail inside the bench binaries themselves.

What the baseline means depends on the metric:

  * ``ratio`` is a layer row's cost over a control timed in the same
    process (bench_layers). Host speed cancels out of it, so the committed
    ratio is the reference whatever host measured it.
  * every other gated metric is absolute (plane ingest events/s, TreeMatch
    reorders/s, the engine's p2p roundtrip, the critpath capture hooks'
    events/s), its interval taken over separate processes
    (bench::process_samples). Its baseline is the reference only when
    both files carry the same host fingerprint (bench_common.h: top-level
    "host" object, or "mpim_host_*" context keys); a baseline from another
    host, or from an unknown one, is reported, never gated.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "results"
REGRESSION_LIMIT = 0.10  # fraction of the baseline
CI_SUFFIX = "_ci95"


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


def regressed(key, val, half, ref):
    """True when the interval val +- half lies wholly on the slower side
    of ref x (1 +- REGRESSION_LIMIT)."""
    if key.endswith("per_sec"):
        return val + half < ref * (1.0 - REGRESSION_LIMIT)
    return val - half > ref * (1.0 + REGRESSION_LIMIT)


def main(results=None, baseline=baseline_for):
    if results is None:
        results = Path(sys.argv[1]) if len(sys.argv) > 1 else RESULTS
    files = sorted(Path(results).glob("BENCH_*.json"))
    if not files:
        print(f"bench_trend: no BENCH_*.json under {results}", file=sys.stderr)
        return 2

    rows = []         # (key, current, half-or-None, baseline-or-None, gate)
    regressions = []
    other_host = []   # files whose absolute rows were not gated
    for path in files:
        try:
            doc = json.loads(path.read_text())
            current = dict(flatten(doc))
        except (json.JSONDecodeError, OSError) as e:
            print(f"bench_trend: cannot parse {path.name}: {e}",
                  file=sys.stderr)
            return 2
        base_doc = baseline(path)
        base = dict(flatten(base_doc)) if base_doc else {}
        same_host = base_doc is not None and host_of(doc) is not None and \
            host_of(doc) == host_of(base_doc)
        for key, val in sorted(current.items()):
            if key.endswith(CI_SUFFIX):
                continue
            half = current.get(key + CI_SUFFIX)
            ref = base.get(key)
            gate = "-"
            if half is not None:
                if key.rsplit(".", 1)[-1] == "ratio":
                    gate = "ratio"
                else:
                    gate = "host" if same_host else "other-host"
            if ref and gate == "other-host":
                if path.name not in other_host:
                    other_host.append(path.name)
            elif ref and gate != "-" and regressed(key, val, half, ref):
                regressions.append((key, ref, val, half))
            rows.append((key, val, half, ref, gate))

    width = max(len(r[0]) for r in rows)
    print(f"{'metric':<{width}}  {'current':>12}  {'ci95':>9}  "
          f"{'baseline':>12}  {'delta':>8}  gate")
    for key, val, half, ref, gate in rows:
        half_s = f"{half:9.3g}" if half is not None else f"{'-':>9}"
        ref_s = f"{ref:12.4g}" if ref is not None else f"{'-':>12}"
        delta_s = f"{val / ref - 1.0:+8.1%}" if ref else f"{'-':>8}"
        print(f"{key:<{width}}  {val:12.4g}  {half_s}  {ref_s}  {delta_s}  "
              f"{gate}")

    if other_host:
        print(f"\nbench_trend: note -- baseline measured on another host "
              f"(absolute numbers reported, not gated): "
              f"{', '.join(other_host)}")
    if regressions:
        print(f"\nbench_trend: FAIL -- 95% interval wholly beyond "
              f"{REGRESSION_LIMIT:.0%} of the baseline:")
        for key, ref, val, half in regressions:
            print(f"  {key}: {ref:.4g} -> {val:.4g} +- {half:.2g} "
                  f"({val / ref - 1.0:+.1%})")
        return 1
    n_gated = sum(1 for r in rows if r[3] and r[4] in ("ratio", "host"))
    print(f"\nbench_trend: OK ({len(rows)} metrics, {n_gated} gated at "
          f"{REGRESSION_LIMIT:.0%} on their 95% intervals)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
