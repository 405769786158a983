// Repo benchmark binary (built and launched by run.py).
//
//   perfbench --workload <halo_bare|cg_fullstack|sampler_threads>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--reference <file>] [--trace-dir <dir>]
//             [--inject-slowdown] [--emit-reference]
//
// Prints report lines, then one JSON line: {"correct", "attempted",
// "failed", "metrics"}. Exit code 0 when the run completed (even with
// failed checks, which the JSON reports), 2 on bad arguments.
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--reference <file>] "
               "[--trace-dir <dir>] [--inject-slowdown] [--emit-reference]\n",
               why);
  return 2;
}

/// Unsets every MPIM_* variable so no environment override (scheduler,
/// fabric, telemetry, stream/prom files, budgets, logging) reaches the run.
std::vector<std::string> clear_mpim_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "MPIM_", 5) == 0)
      names.emplace_back(*e, std::strcspn(*e, "="));
  for (const auto& n : names) unsetenv(n.c_str());
  return names;
}

std::string host_fingerprint() {
  utsname u{};
  uname(&u);
  const double ram_gib = static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
                         static_cast<double>(sysconf(_SC_PAGE_SIZE)) /
                         (1024.0 * 1024.0 * 1024.0);
  return fmt("host nproc=%ld ram_gib=%.1f kernel=%s compiler=\"%s\" "
             "build=%s",
             sysconf(_SC_NPROCESSORS_ONLN), ram_gib, u.release, __VERSION__,
             PERFBENCH_BUILD_TYPE);
}

/// JSON has no inf/nan; a metric that could not be measured (its run is
/// already counted as failed) prints as 0.
std::string json_number(double v) {
  return fmt("%.17g", std::isfinite(v) ? v : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--inject-slowdown") {
      opt.inject_slowdown = true;
    } else if (a == "--emit-reference") {
      opt.emit_reference = true;
    } else if ((v = value()) == nullptr) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoul(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
      have_trace = std::strcmp(v, "0") == 0 || opt.trace;
    } else if (a == "--reference") {
      opt.reference_path = v;
    } else if (a == "--trace-dir") {
      opt.trace_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_trace && !opt.emit_reference)
    return usage("--trace must be 0 or 1");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  Reference ref;
  if (!opt.emit_reference && !ref.load(opt.reference_path))
    return usage(("cannot read reference file " + opt.reference_path).c_str());

  const auto cleared = clear_mpim_env();
  std::printf("%s\n", host_fingerprint().c_str());
  std::printf("workload=%s seed=%lu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
              opt.inject_slowdown ? " inject-slowdown" : "");
  for (const auto& n : cleared) std::printf("cleared env %s\n", n.c_str());

  Tally tally;
  Result res;
  try {
    if (opt.workload == "halo_bare") {
      res = run_halo_bare(opt, ref, tally);
    } else if (opt.workload == "cg_fullstack") {
      res = run_cg_fullstack(opt, ref, tally);
    } else if (opt.workload == "sampler_threads") {
      res = run_sampler_threads(opt, ref, tally);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const auto& l : res.lines) std::printf("%s\n", l.c_str());
  const auto causes = tally.causes();
  for (const auto& [what, n] : causes)
    std::printf("FAILED x%llu: %s\n", static_cast<unsigned long long>(n),
                what.c_str());
  const std::uint64_t attempted = tally.attempted() > 0 ? tally.attempted() : 1;
  std::printf("fail_ratio %.6g (%llu failed of %llu attempted)\n",
              static_cast<double>(tally.failed()) /
                  static_cast<double>(attempted),
              static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(attempted));
  for (const auto& [name, vu] : res.metrics)
    std::printf("metric %-28s %14.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());

  std::string json = "{\"correct\": ";
  json += tally.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : res.metrics) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(vu.first) +
            ", \"unit\": \"" + vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
