// Shared plumbing of the repo benchmark: host clocks, order statistics,
// the check/failure tally behind fail_ratio, cross-rank step timers, the
// in-memory span log of traced runs, and the result record each workload
// fills.
//
// Everything here measures the simulator from outside: timers wrap calls
// into its public functions, nothing reaches into src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mpim::topo {
class Fabric;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host seconds elapsed since `t0`.
double seconds_since(Clock::time_point t0);
/// Host steady-clock reading in seconds (comparable across threads).
double host_now();

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1] (0 for an empty vector).
double quantile(std::vector<double> v, double q);

/// FNV-1a over the bit patterns of a vector of doubles or ints: the
/// bit-identity fingerprint of virtual clocks and permutations.
std::uint64_t fingerprint(const std::vector<double>& v);
std::uint64_t fingerprint(const std::vector<int>& v);
std::string hex(std::uint64_t h);

/// Peak resident set of this process so far (ru_maxrss), MiB.
double peak_rss_mib();

/// Host ns per topo::Fabric::route() call, timed over `leaf_pairs` for
/// 0.2 s (the topo.route_ns probe).
double route_ns(const mpim::topo::Fabric& fabric,
                const std::vector<std::pair<int, int>>& leaf_pairs);

/// Burns `seconds` of host CPU on the calling thread (the calibrated spin
/// of the sensitivity self-check).
void host_spin(double seconds);

/// Counts the operations a run attempts and the ones that failed: every
/// MPI_M_* call the benchmark makes (a non-MPI_M_SUCCESS return is a
/// failure) and every correctness check. Thread-safe.
class Tally {
 public:
  /// Records one MPI_M_* call; returns `code` unchanged.
  int rc(int code, const char* call);
  /// Records one correctness check.
  bool check(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  /// Adds counts recorded elsewhere (a repetition's child process).
  void merge(std::uint64_t attempted, std::uint64_t failed,
             const std::map<std::string, std::uint64_t>& causes);
  /// Distinct failure causes with their occurrence counts.
  std::map<std::string, std::uint64_t> causes() const;

 private:
  void fail(const std::string& what);

  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mx_;
  std::map<std::string, std::uint64_t> causes_;
};

/// Host span of one collective step taken by every rank, possibly many
/// times: each rank stamps its entry and exit of instance `i`, and the
/// step's duration is first entry to last exit across ranks. On fibers a
/// per-rank span of a blocking call includes other fibers' work, so spans
/// are never summed over ranks. Each rank writes only its own lanes.
class StepTimer {
 public:
  explicit StepTimer(int nranks) : enter_(nranks), exit_(nranks) {}
  void enter(int rank) { enter_[rank].push_back(host_now()); }
  void exit(int rank) { exit_[rank].push_back(host_now()); }
  /// Per-instance durations (read after the run joined).
  std::vector<double> durations() const;

 private:
  std::vector<std::vector<double>> enter_;
  std::vector<std::vector<double>> exit_;
};

/// In-memory span log of a traced run, written out once at the end.
/// rank -1 marks host-side spans (set-up, teardown, whole runs).
class SpanLog {
 public:
  explicit SpanLog(int nranks) : lanes_(nranks + 1) {}
  void add(int rank, const char* name, const char* parent, double t0,
           double t1);
  std::size_t size() const;
  /// Appends a JSON-lines dump, {"name","parent","rank","t0","t1"} per
  /// span, to `path`.
  bool append_to(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* parent;
    double t0, t1;
  };
  std::vector<std::vector<Span>> lanes_;  ///< index rank + 1
};

/// Everything one workload run reports.
struct Result {
  /// Metrics of the final JSON line, name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Human-readable report lines printed before the JSON line.
  std::vector<std::string> lines;

  void metric(const std::string& name, double value, const std::string& unit);
  void line(const std::string& text) { lines.push_back(text); }
};

std::string fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Reference values kept with the benchmark (reference.txt): lines of
/// "<workload> <key> <seed|*> <value>". A key stored for "*" holds for
/// every seed.
class Reference {
 public:
  bool load(const std::string& path);
  /// Stored value for (workload, key, seed), or "" when none is kept.
  std::string get(const std::string& workload, const std::string& key,
                  unsigned long seed) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  unsigned long seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inject_slowdown = false;
  /// Print this run's reference values instead of measuring.
  bool emit_reference = false;
  std::string reference_path;
  std::string trace_dir;
};

/// What one repetition reports back: named number lists and strings, plus
/// the peak RSS of the process it ran in so far.
struct RepOut {
  bool ok = false;
  std::map<std::string, std::vector<double>> nums;
  std::map<std::string, std::string> strs;
  double rss_mib = 0.0;

  void set(const std::string& key, double v) { nums[key] = {v}; }
  /// First value under `key` (0 when absent).
  double num(const std::string& key) const;
};

/// Runs one repetition in a forked child process, so every repetition
/// starts from the same fresh process state and its peak RSS is its own.
/// What `fn` records in `tally` and `res` is carried back and merged into
/// the parent's objects. Call only from a single-threaded parent. Inside
/// in_worker() the repetition runs in the worker's own process instead.
RepOut run_rep(Tally& tally, Result& res, const std::function<void(RepOut&)>& fn);

/// Runs `fn` in one forked worker process whose repetitions (run_rep calls)
/// all run in that process, so memory freed by one repetition is reused by
/// the next instead of being handed back to the kernel and faulted in
/// again. The tally, report lines and metrics `fn` records are carried back
/// into `tally` and `res`.
void in_worker(Tally& tally, Result& res, const std::function<void()>& fn);

/// Host times of interleaved monitored/control repetitions. A repetition
/// reports "setup_s", "run_s", "teardown_s" (monitored) or "run_s"
/// (control) in its RepOut. The first repetition is a monitored one, so
/// inside in_worker() its peak RSS is that of one monitored run.
struct Samples {
  std::vector<RepOut> monitored, control;
  /// Set-up seconds of the set-up-only repetitions between pairs.
  std::vector<double> setups;
  /// Values of `key` over the monitored (or control) repetitions of the
  /// pairs whose two repetitions both completed.
  std::vector<double> mon(const std::string& key) const;
  std::vector<double> ctl(const std::string& key) const;
};

/// Runs monitored/control pairs, flipping which side goes first every
/// pair, while less than `seconds` of host time are used and until at
/// least `min_pairs` ran (so a run overshoots by at most one pair). After
/// every pair, `setup` (build the monitored run's stack, tear it down,
/// return the set-up seconds) runs a few times, so that setup_s is a median
/// of many set-ups even where a run holds only a few pairs.
Samples measure_pairs(double seconds, int min_pairs,
                      const std::function<RepOut()>& monitored,
                      const std::function<RepOut()>& control,
                      const std::function<double()>& setup);

/// Runs `steps` in order on even `rep`s and in reverse on odd ones, so
/// host drift does not always favour the same variant.
void run_in_turn(int rep, const std::vector<std::function<void()>>& steps);

/// The end-to-end metrics every workload reports: msgs_per_s,
/// overhead_ratio and setup_s as medians (setup_s over every set-up),
/// peak_rss_mib of the first repetition, plus the teardown_s report line.
void report_end_to_end(Result& res, const Samples& s, double msgs);

/// Where a traced run appends its spans ("" when no trace dir is set).
std::string trace_file(const Options& opt);

/// Compares `got` with the stored reference of `key` (when one is kept
/// for this seed) and records the check; reports the outcome as a line.
void check_reference(const Options& opt, const Reference& ref, Tally& tally,
                     Result& res, const std::string& key,
                     const std::string& got);

}  // namespace perfbench

