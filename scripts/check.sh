#!/usr/bin/env bash
# Tier-1 gate, runnable locally and in CI. With no argument it runs the
# default, asan and tsan lanes; --<lane>-only runs one lane of the table
# below.
#
#   default   configure + build, the full ctest suite, a focused re-run of
#             the "introspect" label, a stencil_reorder smoke run, and the
#             bench trajectory gate: the quick benches, bench_layers' table
#             of per-layer cost ratios to an in-run control among them, then
#             scripts/bench_trend.py, which fails a row only when its 95%
#             interval lies wholly beyond 10% of the committed
#             results/BENCH_*.json baseline (ratios always; absolute rates
#             only against a baseline from the same host)
#
# Everything a lane writes (bench CSV/JSON, example outputs) goes to the
# git-ignored build/results/, so running the gate never rewrites the
# tracked baselines under results/.
#   asan      ctest filtered to label "sanitize" (the preset's filter)
#   tsan      ctest filtered to label "sanitize-thread": the
#             concurrent-recording stress suite, where rank threads hammer
#             the lock-free send path while the control plane churns
#             RecordingPlans
#   recovery  fault-recovery suites (ULFM shrink/ack/agree, session rebind,
#             governor, crash-under-churn stress) under both sanitizers,
#             the faulty_reorder crash-shrink-recover example and
#             bench_recovery's acceptance check
#   stream    the obsplane suite (ingest rings, sketches, correlation,
#             exporter teardown) under both sanitizers, the stream_monitor
#             fault-injected e2e, a monview --live render of its stream,
#             bench_stream's ingest rate and bench_layers' plane budget
#             (plane over telemetry <= 5% at 8 ranks)
#   critpath  the critpath suite (blame identity, clock bit-identity,
#             governor refusal, rings, reorder feed, CSV round trip) under
#             both sanitizers, the stencil_reorder late-sender e2e, a
#             profview --critical-path render and bench_critpath's
#             hook-budget + blame-identity acceptance
#   fabric    the fabric suite (MPIM_TOPO parsing, hop-distance metric,
#             route coverage, tree bit-identity, max-min-fair sharing,
#             per-link-class mismatch, hierarchical TreeMatch) under both
#             sanitizers, the fabric_tour e2e, a monview --timeline render
#             and bench_fabric's cross-fabric reorder acceptance
#   scale     the sched suite (thread-vs-fiber clock bit-identity,
#             MPIM_SCHED parsing, structural deadlock detection, large
#             fiber worlds) under both sanitizers (asan exercises the fiber
#             stack-switch annotations, tsan the thread-mode halves of the
#             parity sweep) and bench_scale's >= 8x world-size acceptance
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
bench='./build/bench'
out='build/results'
# Examples write results/<file> under their working directory.
example() { (cd build && "./examples/$1" >/dev/null); }

# One row per lane, six fields:
#   name    selected with --<name>-only
#   full    1 when the no-argument run includes the lane
#   asan    ctest selection in the asan build ("" = no asan step,
#           "preset" = the preset's own label filter)
#   tsan    the same for the tsan build
#   build   default-preset targets ("" = no default step, "all" = all)
#   run     commands run after that build, one per line ("trend" is the
#           bench trajectory gate)
# Other selections run with --test-dir, not the ctest presets: the preset
# label filters (sanitize / sanitize-thread) would AND with -L and hide the
# suite. Under tsan the sched suite is labelled sanitize-thread
# (see tests/CMakeLists.txt), so the scale lane selects it by name.
lanes=(
  default 1 "" "" all "
    ctest --preset default --output-on-failure -j $jobs
    ctest --preset default --output-on-failure -j $jobs -L introspect
    example stencil_reorder
    $bench/bench_introspect --quick --csv $out
    $bench/bench_layers --quick --csv $out
    $bench/bench_recovery --quick --csv $out
    $bench/bench_stream --quick --csv $out
    $bench/bench_critpath --quick --csv $out
    trend"
  asan 1 preset "" "" ""
  tsan 1 "" preset "" ""
  recovery 0 "-L fault|recovery|sanitize-thread" \
    "-L fault|recovery|sanitize-thread" \
    "faulty_reorder bench_recovery" "
    example faulty_reorder
    $bench/bench_recovery --quick --csv $out"
  stream 0 "-L obsplane" \
    "-L obsplane" \
    "stream_monitor monview bench_stream bench_layers" "
    example stream_monitor
    ./build/src/tools/monview --live $out/stream_monitor.jsonl --once >/dev/null
    $bench/bench_stream --quick --csv $out
    $bench/bench_layers --quick --csv $out
    trend"
  critpath 0 "-L critpath" \
    "-L critpath" \
    "stencil_reorder profview bench_critpath" "
    example stencil_reorder
    ./build/src/tools/profview --critical-path $out/stencil_critpath.csv >/dev/null
    $bench/bench_critpath --quick --csv $out
    trend"
  fabric 0 "-L fabric" \
    "-L fabric" \
    "fabric_tour monview bench_fabric" "
    example fabric_tour
    ./build/src/tools/monview --timeline $out/fabric_frames.csv >/dev/null
    $bench/bench_fabric --quick --csv $out
    trend"
  scale 0 "-L sched" \
    "-R ^Sched" \
    "bench_scale" "
    $bench/bench_scale --quick --csv $out
    trend"
)
flags=()
for ((i = 0; i < ${#lanes[@]}; i += 6)); do flags+=("--${lanes[i]}-only"); done
usage="usage: $0 [$(IFS='|'; echo "${flags[*]}")]"

selected=""
case "${1:-}" in
  "") ;;
  --*-only) selected="${1#--}"; selected="${selected%-only}" ;;
  *) echo "$usage" >&2; exit 2 ;;
esac

trend() {
  if command -v python3 >/dev/null 2>&1; then
    python3 scripts/bench_trend.py "$out"
  else
    echo "bench_trend: python3 not found, skipping trajectory gate" >&2
  fi
}

sanitizer_step() {  # lane preset selection
  echo "== $1 lane: $2 preset (tests: $3) =="
  cmake --preset "$2"
  cmake --build --preset "$2" -j "$jobs"
  if [ "$3" = preset ]; then
    ctest --preset "$2" --output-on-failure -j "$jobs"
  else
    # shellcheck disable=SC2086  # the selection is a word list
    ctest --test-dir "build-$2" --output-on-failure -j "$jobs" $3
  fi
}

found=0
for ((i = 0; i < ${#lanes[@]}; i += 6)); do
  name="${lanes[i]}" full="${lanes[i + 1]}" asan="${lanes[i + 2]}"
  tsan="${lanes[i + 3]}" targets="${lanes[i + 4]}" run="${lanes[i + 5]}"
  if [ -n "$selected" ]; then
    [ "$name" = "$selected" ] || continue
  else
    [ "$full" = 1 ] || continue
  fi
  found=1
  [ -z "$asan" ] || sanitizer_step "$name" asan "$asan"
  [ -z "$tsan" ] || sanitizer_step "$name" tsan "$tsan"
  [ -n "$targets" ] || continue
  echo "== $name lane: default preset (e2e + bench acceptance) =="
  cmake --preset default
  if [ "$targets" = all ]; then
    cmake --build --preset default -j "$jobs"
  else
    # shellcheck disable=SC2086  # the targets are a word list
    cmake --build --preset default -j "$jobs" --target $targets
  fi
  mkdir -p "$out"
  mapfile -t cmds <<<"$run"
  for cmd in "${cmds[@]}"; do
    [ -z "${cmd// /}" ] || eval "$cmd"
  done
done
if [ "$found" = 0 ]; then
  echo "$usage" >&2
  exit 2
fi

echo "check.sh: all green"
