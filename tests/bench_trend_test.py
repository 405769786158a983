#!/usr/bin/env python3
"""The bench_trend.py gate rule on fixture JSON (tests/data/bench_trend/).

Each case runs the gate on one fixture directory of fresh BENCH_*.json
against another standing in for the committed baselines, and checks the
exit code and whether the other-host note was printed.
"""
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data" / "bench_trend"
spec = importlib.util.spec_from_file_location(
    "bench_trend", HERE.parent / "scripts" / "bench_trend.py")
bench_trend = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trend)

# (what, current dir, baseline dir, expected exit code, note expected)
CASES = [
    ("noisy absolute numbers from another host, ratios unchanged",
     "current", "baseline", 0, True),
    ("layer row whose interval lies above 1.10x its baseline ratio",
     "regressed", "baseline", 1, False),
    ("same-host absolute row 20% slower with a tight interval",
     "micro_slow", "micro_base_host_a", 1, False),
    ("the same row against another host's baseline",
     "micro_slow", "micro_base_host_b", 0, True),
    # Ten processes, six in a slow mode at 14.5 us and four at 9.5 us: the
    # mean is 25% slower, but the interval over processes reaches 1.10x.
    ("same-host absolute row read in two process speed modes",
     "micro_bimodal", "micro_base_host_a", 0, False),
]


def main():
    failed = 0
    for what, current, baseline, want_rc, want_note in CASES:
        def load(path, base=DATA / baseline):
            ref = base / path.name
            return json.loads(ref.read_text()) if ref.exists() else None

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = bench_trend.main(DATA / current, load)
        note = "baseline measured on another host" in out.getvalue()
        ok = rc == want_rc and note == want_note
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {what}: exit {rc} (want "
              f"{want_rc}), note {note} (want {want_note})")
        if not ok:
            print(out.getvalue())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
