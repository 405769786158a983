// Host-time cost of the telemetry subsystem itself.
//
// Three tiers per hot-path operation:
//   absent      -- the operation the instrumentation replaces (plain code,
//                  no telemetry call compiled into the loop),
//   disabled    -- telemetry compiled in but switched off (the default):
//                  one relaxed atomic load per site,
//   enabled     -- full recording.
//
// The per-benchmark ns/op land in results/BENCH_telemetry.json (override
// with your own --benchmark_out). What enabling telemetry costs a monitored
// run per send, and that it leaves virtual clocks alone, is bench_layers'
// telemetry row.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "telemetry/hub.h"

namespace {

using namespace mpim;

// --- counter increment -------------------------------------------------------

void BM_CounterAdd_Absent(benchmark::State& state) {
  std::uint64_t plain = 0;
  for (auto _ : state) {
    plain += 1;
    benchmark::DoNotOptimize(plain);
  }
}
BENCHMARK(BM_CounterAdd_Absent);

void BM_CounterAdd_Disabled(benchmark::State& state) {
  telemetry::Hub hub(1);
  const int id = hub.ids().engine_messages;
  for (auto _ : state) hub.add(id, 0);
  benchmark::DoNotOptimize(hub.registry().counter_total(id));
}
BENCHMARK(BM_CounterAdd_Disabled);

void BM_CounterAdd_Enabled(benchmark::State& state) {
  telemetry::Hub hub(1);
  hub.set_enabled(true);
  const int id = hub.ids().engine_messages;
  for (auto _ : state) hub.add(id, 0);
  benchmark::DoNotOptimize(hub.registry().counter_total(id));
}
BENCHMARK(BM_CounterAdd_Enabled);

void BM_HistogramObserve_Enabled(benchmark::State& state) {
  telemetry::Hub hub(1);
  hub.set_enabled(true);
  const int id = hub.ids().engine_msg_bytes;
  double v = 1.0;
  for (auto _ : state) {
    hub.observe(id, 0, v);
    v = v < 1e6 ? v * 2 : 1.0;  // sweep the buckets
  }
  benchmark::DoNotOptimize(hub.registry().histogram(id, 0).count);
}
BENCHMARK(BM_HistogramObserve_Enabled);

// --- span start/stop ---------------------------------------------------------

void BM_SpanStartStop_Absent(benchmark::State& state) {
  // What an instrumented site does anyway: read a clock twice.
  double t = 0.0;
  for (auto _ : state) {
    t += 1e-9;
    double t2 = t + 1e-9;
    benchmark::DoNotOptimize(t2);
  }
}
BENCHMARK(BM_SpanStartStop_Absent);

void BM_SpanStartStop_Disabled(benchmark::State& state) {
  telemetry::Hub hub(1);
  double t = 0.0;
  for (auto _ : state) {
    if (hub.span_begin(0, "bench", 'C', t)) hub.span_end(0, t + 1e-9);
    t += 1e-9;
  }
  benchmark::DoNotOptimize(hub.spans_recorded());
}
BENCHMARK(BM_SpanStartStop_Disabled);

void BM_SpanStartStop_Enabled(benchmark::State& state) {
  telemetry::Hub hub(1);
  hub.set_enabled(true);
  double t = 0.0;
  for (auto _ : state) {
    if (hub.span_begin(0, "bench", 'C', t)) hub.span_end(0, t + 1e-9);
    t += 1e-9;
  }
  benchmark::DoNotOptimize(hub.spans_recorded());
}
BENCHMARK(BM_SpanStartStop_Enabled);

void BM_SpanComplete_Enabled(benchmark::State& state) {
  telemetry::Hub hub(1);
  hub.set_enabled(true);
  double t = 0.0;
  for (auto _ : state) {
    hub.span_complete(0, "bench", 'S', t, t + 1e-9);
    t += 1e-9;
  }
  benchmark::DoNotOptimize(hub.spans_recorded());
}
BENCHMARK(BM_SpanComplete_Enabled);

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  std::string out_flag = "--benchmark_out=results/BENCH_telemetry.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    if (!ec) {
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  for (const auto& [key, value] : mpim::bench::host_fingerprint())
    benchmark::AddCustomContext("mpim_host_" + key, value);
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
