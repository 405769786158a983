#include "harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include "topo/fabric.h"

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double host_now() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

namespace {
template <typename T>
std::uint64_t fnv(const std::vector<T>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const T& x : v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &x, sizeof(T));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}
}  // namespace

std::uint64_t fingerprint(const std::vector<double>& v) { return fnv(v); }
std::uint64_t fingerprint(const std::vector<int>& v) { return fnv(v); }

std::string hex(std::uint64_t h) { return fmt("%016llx", static_cast<unsigned long long>(h)); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void host_spin(double seconds) {
  const auto t0 = Clock::now();
  volatile std::uint64_t sink = 0;
  while (seconds_since(t0) < seconds) {
    for (int i = 0; i < 64; ++i) sink = sink + static_cast<std::uint64_t>(i);
  }
}

int Tally::rc(int code, const char* call) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (code != 0) fail(fmt("%s returned %d", call, code));
  return code;
}

bool Tally::check(bool ok, const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (!ok) fail("check failed: " + what);
  return ok;
}

void Tally::fail(const std::string& what) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mx_);
  ++causes_[what];
}

void Tally::merge(std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, std::uint64_t>& causes) {
  attempted_.fetch_add(attempted, std::memory_order_relaxed);
  failed_.fetch_add(failed, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mx_);
  for (const auto& [what, n] : causes) causes_[what] += n;
}

std::map<std::string, std::uint64_t> Tally::causes() const {
  std::lock_guard<std::mutex> lock(mx_);
  return causes_;
}

std::vector<double> StepTimer::durations() const {
  std::size_t n = enter_.empty() ? 0 : enter_[0].size();
  for (std::size_t r = 0; r < enter_.size(); ++r)
    n = std::min({n, enter_[r].size(), exit_[r].size()});
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    double first = enter_[0][i], last = exit_[0][i];
    for (std::size_t r = 1; r < enter_.size(); ++r) {
      first = std::min(first, enter_[r][i]);
      last = std::max(last, exit_[r][i]);
    }
    out[i] = last - first;
  }
  return out;
}

void SpanLog::add(int rank, const char* name, const char* parent, double t0,
                  double t1) {
  lanes_[static_cast<std::size_t>(rank + 1)].push_back({name, parent, t0, t1});
}

std::size_t SpanLog::size() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane.size();
  return n;
}

bool SpanLog::append_to(const std::string& path) const {
  if (path.empty()) return false;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane)
    for (const Span& s : lanes_[lane])
      std::fprintf(f,
                   "{\"name\":\"%s\",\"parent\":\"%s\",\"rank\":%d,"
                   "\"t0\":%.9f,\"t1\":%.9f}\n",
                   s.name, s.parent, static_cast<int>(lane) - 1, s.t0, s.t1);
  return std::fclose(f) == 0;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics[name] = {value, unit};
}

std::string fmt(const char* format, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

bool Reference::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string workload, key, seed, value;
    if (ls >> workload >> key >> seed >> value)
      values_[workload + " " + key + " " + seed] = value;
  }
  return true;
}

std::string Reference::get(const std::string& workload,
                           const std::string& key, unsigned long seed) const {
  auto it = values_.find(workload + " " + key + " " + std::to_string(seed));
  if (it == values_.end()) it = values_.find(workload + " " + key + " *");
  return it == values_.end() ? std::string() : it->second;
}

std::string trace_file(const Options& opt) {
  return opt.trace_dir.empty() ? std::string()
                               : opt.trace_dir + "/" + opt.workload + ".jsonl";
}

void check_reference(const Options& opt, const Reference& ref, Tally& tally,
                     Result& res, const std::string& key,
                     const std::string& got) {
  if (opt.emit_reference) {
    res.line("ref " + key + " " + got);
    return;
  }
  const std::string want = ref.get(opt.workload, key, opt.seed);
  if (want.empty()) {
    res.line(fmt("check %-24s %s (no reference stored for seed %lu; "
                 "rerun and in-process cross-checks only)",
                 key.c_str(), got.c_str(), opt.seed));
    return;
  }
  const bool ok = tally.check(want == got, key + " matches reference");
  res.line(fmt("check %-24s %s %s reference", key.c_str(), got.c_str(),
               ok ? "==" : "!="));
}

double RepOut::num(const std::string& key) const {
  const auto it = nums.find(key);
  return it == nums.end() || it->second.empty() ? 0.0 : it->second.front();
}

namespace {

// Child -> parent wire format, one record per line:
//   n <key> <v>...   s <key> <text>   a <n>   f <n>   c <n> <cause>
//   l <line>   r <rss MiB>
std::string encode(const RepOut& out, const Tally& tally, std::uint64_t a0,
                   std::uint64_t f0,
                   const std::map<std::string, std::uint64_t>& causes0,
                   const Result& res, std::size_t lines0) {
  std::string w;
  for (const auto& [key, vs] : out.nums) {
    w += "n " + key;
    for (double v : vs) w += fmt(" %.17g", v);
    w += "\n";
  }
  for (const auto& [key, text] : out.strs) w += "s " + key + " " + text + "\n";
  w += fmt("a %llu\nf %llu\n",
           static_cast<unsigned long long>(tally.attempted() - a0),
           static_cast<unsigned long long>(tally.failed() - f0));
  for (const auto& [what, n] : tally.causes()) {
    const auto it = causes0.find(what);
    const std::uint64_t before = it == causes0.end() ? 0 : it->second;
    if (n > before)
      w += fmt("c %llu ", static_cast<unsigned long long>(n - before)) +
           what + "\n";
  }
  for (std::size_t i = lines0; i < res.lines.size(); ++i)
    w += "l " + res.lines[i] + "\n";
  w += fmt("r %.17g\n", peak_rss_mib());
  return w;
}

void decode(const std::string& wire, RepOut& out, Tally& tally,
            Result& res) {
  std::istringstream in(wire);
  std::string line;
  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, std::uint64_t> causes;
  while (std::getline(in, line)) {
    if (line.size() < 2) continue;
    const std::string body = line.substr(2);
    std::istringstream ls(body);
    switch (line[0]) {
      case 'n': {
        std::string key;
        ls >> key;
        auto& vs = out.nums[key];
        double v = 0.0;
        while (ls >> v) vs.push_back(v);
        break;
      }
      case 's': {
        const auto sp = body.find(' ');
        out.strs[body.substr(0, sp)] =
            sp == std::string::npos ? "" : body.substr(sp + 1);
        break;
      }
      case 'a': ls >> attempted; break;
      case 'f': ls >> failed; break;
      case 'c': {
        std::uint64_t n = 0;
        ls >> n;
        std::string what;
        std::getline(ls >> std::ws, what);
        causes[what] += n;
        break;
      }
      case 'l': res.line(body); break;
      case 'r': ls >> out.rss_mib; out.ok = true; break;
      default: break;
    }
  }
  tally.merge(attempted, failed, causes);
}

/// Set in the in_worker() process, where run_rep() runs in place.
bool g_in_worker = false;

}  // namespace

RepOut run_rep(Tally& tally, Result& res,
               const std::function<void(RepOut&)>& fn) {
  RepOut out;
  if (g_in_worker) {
    try {
      fn(out);
      out.ok = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: repetition failed: %s\n", e.what());
    }
    out.rss_mib = peak_rss_mib();
    tally.check(out.ok, "repetition completed");
    return out;
  }
  int fds[2];
  if (pipe(fds) != 0) {
    tally.check(false, "pipe() for a repetition process");
    return out;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    tally.check(false, "fork() for a repetition process");
    return out;
  }
  if (pid == 0) {
    close(fds[0]);
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive a killed parent
    const std::uint64_t a0 = tally.attempted(), f0 = tally.failed();
    const auto causes0 = tally.causes();
    const std::size_t lines0 = res.lines.size();
    int code = 0;
    try {
      fn(out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: repetition failed: %s\n", e.what());
      code = 1;
    }
    const std::string wire =
        encode(out, tally, a0, f0, causes0, res, lines0);
    std::size_t done = 0;
    while (done < wire.size()) {
      const ssize_t n = write(fds[1], wire.data() + done, wire.size() - done);
      if (n <= 0) {
        code = 1;
        break;
      }
      done += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::fflush(nullptr);
    _exit(code);
  }
  close(fds[1]);
  std::string wire;
  char buf[65536];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;)
    wire.append(buf, static_cast<std::size_t>(n));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  decode(wire, out, tally, res);
  out.ok = out.ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  tally.check(out.ok, "repetition completed");
  return out;
}

void in_worker(Tally& tally, Result& res, const std::function<void()>& fn) {
  // Metrics travel as numbers and strings keyed "metric:<name>".
  const std::string tag = "metric:";
  const RepOut o = run_rep(tally, res, [&](RepOut& out) {
    g_in_worker = true;
    fn();
    for (const auto& [name, vu] : res.metrics) {
      out.set(tag + name, vu.first);
      out.strs[tag + name] = vu.second;
    }
  });
  for (const auto& [key, unit] : o.strs)
    if (key.rfind(tag, 0) == 0) res.metric(key.substr(tag.size()), o.num(key), unit);
}

std::vector<double> Samples::mon(const std::string& key) const {
  std::vector<double> v;
  for (std::size_t i = 0; i < monitored.size(); ++i)
    if (monitored[i].ok && control[i].ok) v.push_back(monitored[i].num(key));
  return v;
}

std::vector<double> Samples::ctl(const std::string& key) const {
  std::vector<double> v;
  for (std::size_t i = 0; i < control.size(); ++i)
    if (monitored[i].ok && control[i].ok) v.push_back(control[i].num(key));
  return v;
}

Samples measure_pairs(double seconds, int min_pairs,
                      const std::function<RepOut()>& monitored,
                      const std::function<RepOut()>& control,
                      const std::function<double()>& setup) {
  constexpr int kSetupsPerPair = 3;
  Samples s;
  const auto t0 = Clock::now();
  for (int pair = 0; pair < min_pairs || seconds_since(t0) < seconds;
       ++pair) {
    if (pair % 2 == 0) {
      s.monitored.push_back(monitored());
      s.control.push_back(control());
    } else {
      s.control.push_back(control());
      s.monitored.push_back(monitored());
    }
    for (int i = 0; i < kSetupsPerPair; ++i) s.setups.push_back(setup());
  }
  return s;
}

void run_in_turn(int rep, const std::vector<std::function<void()>>& steps) {
  if (rep % 2 == 0) {
    for (const auto& step : steps) step();
  } else {
    for (auto it = steps.rbegin(); it != steps.rend(); ++it) (*it)();
  }
}

void report_end_to_end(Result& res, const Samples& s, double msgs) {
  const std::vector<double> run = s.mon("run_s"), ctl = s.ctl("run_s");
  std::vector<double> rates, ratios;
  for (std::size_t i = 0; i < run.size(); ++i) {
    rates.push_back(msgs / run[i]);
    ratios.push_back(run[i] / ctl[i]);
  }
  res.metric("msgs_per_s", median(rates), "1/s");
  std::vector<double> setups = s.mon("setup_s");
  setups.insert(setups.end(), s.setups.begin(), s.setups.end());
  res.metric("setup_s", median(setups), "s");
  // The first repetition is monitored and starts the measuring process.
  const RepOut* first = s.monitored.empty() ? nullptr : &s.monitored.front();
  res.metric("peak_rss_mib", first != nullptr && first->ok ? first->rss_mib : 0.0,
             "MiB");
  res.metric("overhead_ratio", median(ratios), "ratio");
  // Not gated: freeing the run's memory is too noisy on a shared host for
  // any bound the benchmark may set (see README.md).
  res.line(fmt("teardown_s %.6g s (median)", median(s.mon("teardown_s"))));
  std::string pairs = fmt("%zu pairs (%.0f messages per monitored run), "
                          "monitored/control run_s:",
                          run.size(), msgs);
  std::string edges = "setup_s/teardown_s:";
  const std::vector<double> setup = s.mon("setup_s"),
                            teardown = s.mon("teardown_s");
  for (std::size_t i = 0; i < run.size(); ++i) {
    pairs += fmt(" %.4f/%.4f", run[i], ctl[i]);
    edges += fmt(" %.4g/%.4g", setup[i], teardown[i]);
  }
  res.line(pairs);
  res.line(edges);
}

double route_ns(const mpim::topo::Fabric& fabric,
                const std::vector<std::pair<int, int>>& leaf_pairs) {
  mpim::topo::Fabric::Route route;
  long calls = 0;
  volatile int links = 0;  // keeps the calls from being optimized out
  const auto t0 = Clock::now();
  while (seconds_since(t0) < 0.2) {
    for (const auto& [a, b] : leaf_pairs) {
      fabric.route(a, b, &route);
      links = links + route.n;
    }
    calls += static_cast<long>(leaf_pairs.size());
  }
  return seconds_since(t0) * 1e9 / static_cast<double>(calls);
}

}  // namespace perfbench
