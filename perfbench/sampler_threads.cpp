// sampler_threads: the default threads backend, np=2 (one rank on each of
// two nodes). Every step sends one <=64 B sendrecv, one RMA put and one
// small allreduce while sixteen overlapping sessions record, with mixed
// kind filters and snapshots on four of them; every K steps one read
// cycle (suspend -> allgather_data -> get_frames -> reset -> continue)
// reads session 0. Real rank threads hand off through the backend's locks
// while the sessions record through the lock-free plans; the engine and
// analysis layers do little.
//
// Two ranks, and every process of the workload pinned to one core: with a
// rank thread per core, any other process stalls one rank and with it
// every step, and on a VM each hand-off to a rank on another (halted) core
// waits for the host to run that virtual CPU, which made whole runs three
// times slower while the host was busy. On one core the hand-offs are
// local context switches; the backend's locks, condition variables and the
// recording plans' atomics all run, but two ranks never run at the same
// instant.
#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>

#include "mpimon/governor.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/sim.h"
#include "minimpi/osc.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mpim;

constexpr int kNp = 2;
static_assert((kNp & (kNp - 1)) == 0, "every rank sends the same allreduce "
                                      "messages only for a power of two");
/// Messages one rank sends per allreduce.
constexpr int kAllreduceMsgs = static_cast<int>(allreduce_messages(kNp)) / kNp;
constexpr int kSteps = 2000;
constexpr int kCycleEvery = 16;  ///< K: steps between read cycles
constexpr int kSessions = 16;
constexpr int kSnapshots = 4;  ///< sessions [0, kSnapshots) carry one
constexpr int kMaxFrames = 16;
constexpr double kWindowS = 1e-5;
constexpr std::size_t kMaxBytes = 64;

/// Kind filter each session reads with, and each snapshot records.
constexpr std::array<int, 4> kFilters = {
    MPI_M_ALL_COMM, MPI_M_P2P_ONLY, MPI_M_COLL_ONLY | MPI_M_OSC_ONLY,
    MPI_M_OSC_ONLY};

mpi::EngineConfig sampler_config(mpi::SchedMode sched, bool contention) {
  mpi::EngineConfig cfg{.cost_model = net::CostModel::plafrim_like(2),
                        .placement = {0, 24}};
  cfg.sched = sched;
  cfg.nic_contention = contention;
  cfg.nic_port_beta_scale = 2.0;
  cfg.watchdog_wall_timeout_s = 120.0;
  return cfg;
}

/// Bytes and messages one rank sent, per traffic class (p2p, coll, osc):
/// the generator's own ledger, compared with what sessions recorded.
struct Ledger {
  std::array<double, 3> bytes{};
  std::array<double, 3> msgs{};

  double bytes_for(int flags) const {
    double b = 0.0;
    for (int c = 0; c < 3; ++c)
      if (flags & (1 << c)) b += bytes[static_cast<std::size_t>(c)];
    return b;
  }
  double msgs_for(int flags) const {
    double m = 0.0;
    for (int c = 0; c < 3; ++c)
      if (flags & (1 << c)) m += msgs[static_cast<std::size_t>(c)];
    return m;
  }
  Ledger operator-(const Ledger& o) const {
    Ledger d;
    for (std::size_t c = 0; c < 3; ++c) {
      d.bytes[c] = bytes[c] - o.bytes[c];
      d.msgs[c] = msgs[c] - o.msgs[c];
    }
    return d;
  }
};

/// Host timers of the read-cycle calls (first entry to last exit).
struct CycleTimers {
  StepTimer cycle{kNp}, suspend{kNp}, allgather{kNp}, get_frames{kNp},
      resume{kNp};
};

/// What a run carries on top of the steps: nothing (the bare control),
/// the sixteen recording sessions only, or sessions + snapshots + reads.
enum class Mode { control, sessions, full };

class Sampler {
 public:
  Sampler(const Options& opt, const Reference& ref, Tally& tally, Result& res)
      : opt_(opt), ref_(ref), tally_(tally), res_(res) {}

  /// One rank's workload under `mode`; `spin_s` is the self-check's host
  /// spin per step.
  void body(mpi::Ctx& ctx, Mode mode, double spin_s, CycleTimers* ct,
            SpanLog* log) {
    const bool monitored = mode != Mode::control;
    const bool reads = mode == Mode::full;
    const int r = ctx.world_rank();
    const mpi::Comm world = ctx.world();
    Rng shared(opt_.seed * 0x9e3779b97f4a7c15ULL);
    Rng own(opt_.seed * 0x9e3779b97f4a7c15ULL + static_cast<unsigned>(r) + 1);
    std::vector<unsigned char> window(kNp * kMaxBytes, 0);
    mpi::Win win = mpi::Win::create(window.data(), window.size(), world);
    std::array<unsigned char, kMaxBytes> out{}, in{};
    out.fill(static_cast<unsigned char>(r));

    Ledger sent;
    std::array<MPI_M_msid, kSessions> ids{};
    std::array<Ledger, kSessions> since{};
    std::vector<unsigned long> mat_counts(kNp * kNp), mat_sizes(kNp * kNp);
    std::vector<unsigned long> frame_sizes(kMaxFrames * kNp * kNp);
    std::vector<double> frame_t0(kMaxFrames), frame_t1(kMaxFrames);
    bool rows_ok = true, allreduce_ok = true;
    if (monitored) tally_.rc(MPI_M_init(), "MPI_M_init");

    for (int step = 0; step < kSteps; ++step) {
      // Staggered session starts: session j begins at step j.
      if (monitored && step < kSessions) {
        tally_.rc(MPI_M_start(world, &ids[step]), "MPI_M_start");
        since[step] = sent;
        if (reads && step < kSnapshots)
          tally_.rc(MPI_M_snapshot_start(ids[step], kWindowS, kMaxFrames,
                                         kFilters[step]),
                    "MPI_M_snapshot_start");
      }
      if (spin_s > 0.0) host_spin(spin_s);
      const double s0 = log != nullptr ? host_now() : 0.0;

      const int off = 1 + static_cast<int>(shared.uniform_u64(0, kNp - 2));
      const int put_off = 1 + static_cast<int>(shared.uniform_u64(0, kNp - 2));
      const auto sr_bytes = static_cast<std::size_t>(own.uniform_u64(1, kMaxBytes));
      const auto put_bytes = static_cast<std::size_t>(own.uniform_u64(1, kMaxBytes));
      mpi::sendrecv(out.data(), sr_bytes, mpi::Type::Byte, (r + off) % kNp, 7,
                    in.data(), kMaxBytes, (r - off + kNp) % kNp, 7, world);
      win.put(out.data(), put_bytes, mpi::Type::Byte, (r + put_off) % kNp,
              static_cast<std::size_t>(r) * kMaxBytes);
      win.fence();
      const long mine = step + r;
      long total = 0;
      mpi::allreduce(&mine, &total, 1, mpi::Type::Long, mpi::Op::Sum, world);
      allreduce_ok = allreduce_ok && total == kNp * step + kNp * (kNp - 1) / 2;
      sent.bytes[0] += static_cast<double>(sr_bytes);
      sent.msgs[0] += 1;
      sent.bytes[2] += static_cast<double>(put_bytes);
      sent.msgs[2] += 1;
      sent.bytes[1] += kAllreduceMsgs * sizeof(long);
      sent.msgs[1] += kAllreduceMsgs;
      if (log != nullptr) log->add(r, "sampler.step", "engine.run", s0, host_now());

      if (reads && (step + 1) % kCycleEvery == 0) {
        const MPI_M_msid id = ids[0];
        ct->cycle.enter(r);
        ct->suspend.enter(r);
        tally_.rc(MPI_M_suspend(id), "MPI_M_suspend");
        ct->suspend.exit(r);
        ct->allgather.enter(r);
        tally_.rc(MPI_M_allgather_data(id, mat_counts.data(), mat_sizes.data(),
                                       MPI_M_ALL_COMM),
                  "MPI_M_allgather_data");
        ct->allgather.exit(r);
        ct->get_frames.enter(r);
        int nframes = 0;
        tally_.rc(MPI_M_get_frames(id, kMaxFrames, &nframes, frame_t0.data(),
                                   frame_t1.data(), MPI_M_DATA_IGNORE,
                                   frame_sizes.data(), MPI_M_ALL_COMM),
                  "MPI_M_get_frames");
        ct->get_frames.exit(r);
        ct->resume.enter(r);
        tally_.rc(MPI_M_reset(id), "MPI_M_reset");
        tally_.rc(MPI_M_continue(id), "MPI_M_continue");
        ct->resume.exit(r);
        ct->cycle.exit(r);

        // My row of the gathered matrices == what I sent since the reset.
        const Ledger d = sent - since[0];
        double row_bytes = 0.0, row_msgs = 0.0;
        for (int j = 0; j < kNp; ++j) {
          row_bytes += static_cast<double>(mat_sizes[r * kNp + j]);
          row_msgs += static_cast<double>(mat_counts[r * kNp + j]);
        }
        rows_ok = rows_ok && row_bytes == d.bytes_for(MPI_M_ALL_COMM) &&
                  row_msgs == d.msgs_for(MPI_M_ALL_COMM) && nframes >= 1;
        since[0] = sent;
      }
    }

    if (monitored) {
      // Every session's recorded bytes == what the generator sent since
      // it started, through the session's kind filter.
      bool sessions_ok = true;
      std::vector<unsigned long> counts(kNp), sizes(kNp);
      for (int j = 0; j < kSessions; ++j) {
        tally_.rc(MPI_M_suspend(ids[j]), "MPI_M_suspend");
        const int flags = kFilters[j % kFilters.size()];
        tally_.rc(MPI_M_get_data(ids[j], counts.data(), sizes.data(), flags),
                  "MPI_M_get_data");
        const Ledger d = sent - since[j];
        double b = 0.0, m = 0.0;
        for (int p = 0; p < kNp; ++p) {
          b += static_cast<double>(sizes[p]);
          m += static_cast<double>(counts[p]);
        }
        sessions_ok = sessions_ok && b == d.bytes_for(flags) &&
                      m == d.msgs_for(flags);
        tally_.rc(MPI_M_free(ids[j]), "MPI_M_free");
      }
      tally_.rc(MPI_M_finalize(), "MPI_M_finalize");
      tally_.check(sessions_ok,
                   "session bytes == generator bytes through each filter");
      tally_.check(rows_ok,
                   "read-cycle row bytes == generator bytes since reset");
    }
    tally_.check(allreduce_ok, "allreduce results");
  }

  /// The workload (Mode::full) or its sessions-only variant, Engine +
  /// Runtime and the sessions, as one run_rep(). Reports the host
  /// durations of every read cycle and of its calls.
  RepOut monitored(mpi::SchedMode sched, Mode mode, double spin_s,
                   bool traced) {
    const char* kind = mode == Mode::full ? "monitored" : "sessions";
    RepOut o = run_rep(tally_, res_, [&](RepOut& out) {
      auto t0 = Clock::now();
      auto sim = std::make_unique<Sim>(sampler_config(sched, false));
      out.set("setup_s", seconds_since(t0));
      CycleTimers ct;
      SpanLog log(kNp);
      SpanLog* lp = traced ? &log : nullptr;
      t0 = Clock::now();
      sim->run([&](mpi::Ctx& ctx) { body(ctx, mode, spin_s, &ct, lp); });
      out.set("run_s", seconds_since(t0));
      check_engine(sim->engine(), sched, kind, out);
      out.nums["cycle"] = ct.cycle.durations();
      out.nums["suspend"] = ct.suspend.durations();
      out.nums["allgather"] = ct.allgather.durations();
      out.nums["get_frames"] = ct.get_frames.durations();
      out.nums["resume"] = ct.resume.durations();
      t0 = Clock::now();
      sim.reset();
      out.set("teardown_s", seconds_since(t0));
      if (lp != nullptr) {
        lp->append_to(trace_file(opt_));
        out.set("spans", static_cast<double>(lp->size()));
      }
    });
    compare(o, kind);
    return o;
  }

  /// Unmonitored control: bare engine, same steps, no sessions or reads.
  RepOut control(mpi::SchedMode sched, bool contention) {
    const char* kind = contention ? "contended" : "control";
    RepOut o = run_rep(tally_, res_, [&](RepOut& out) {
      auto t0 = Clock::now();
      auto engine =
          std::make_unique<mpi::Engine>(sampler_config(sched, contention));
      out.set("ctor_s", seconds_since(t0));
      t0 = Clock::now();
      engine->run([&](mpi::Ctx& ctx) {
        body(ctx, Mode::control, 0.0, nullptr, nullptr);
      });
      out.set("run_s", seconds_since(t0));
      check_engine(*engine, sched, kind, out);
      t0 = Clock::now();
      engine.reset();
      out.set("dtor_s", seconds_since(t0));
    });
    compare(o, kind);
    return o;
  }

 private:
  /// Child side: backend and shed level, plus the clocks to compare.
  void check_engine(mpi::Engine& engine, mpi::SchedMode sched,
                    const char* kind, RepOut& out) {
    const int shed = mon::Governor::of(engine).shed_level();
    tally_.check(engine.sched_mode() == sched,
                 "sampler_threads resolved the requested backend");
    tally_.check(shed == 0, "governor shed level is 0");
    if (clocks_.count(kind) == 0)
      res_.line(fmt("resolved sched=%s fabric=%s shed_level=%d (%s run)",
                    mpi::sched_mode_name(engine.sched_mode()),
                    engine.fabric().describe().c_str(), shed, kind));
    out.strs["clocks"] = hex(fingerprint(engine.final_clocks()));
  }

  /// Parent side: the first run of each kind meets the stored reference,
  /// every later one (on either backend) the first.
  void compare(const RepOut& o, const char* kind) {
    if (!o.ok) return;
    const std::string& clocks = o.strs.at("clocks");
    auto it = clocks_.find(kind);
    if (it == clocks_.end()) {
      clocks_[kind] = clocks;
      check_reference(opt_, ref_, tally_, res_, std::string("clocks_") + kind,
                      clocks);
      return;
    }
    tally_.check(clocks == it->second,
                 std::string("virtual clocks bit-identical across ") + kind +
                     " runs and backends");
  }

  const Options& opt_;
  const Reference& ref_;
  Tally& tally_;
  Result& res_;
  std::map<std::string, std::string> clocks_;
};

/// Concatenation of one key's values over repetitions.
std::vector<double> gather(const std::vector<RepOut>& reps,
                           const std::string& key) {
  std::vector<double> all;
  for (const RepOut& r : reps) {
    const auto it = r.nums.find(key);
    if (it != r.nums.end())
      all.insert(all.end(), it->second.begin(), it->second.end());
  }
  return all;
}

/// Read-cycle p50/p99 in ms, with the sample count behind them.
void report_cycles(Result& res, const std::vector<double>& d) {
  const double above = static_cast<double>(d.size()) * 0.01;
  res.line(fmt("read_ms_p50 %.6g ms, read_ms_p99 %.6g ms (%zu read cycles, "
               "%.0f above p99)",
               median(d) * 1e3, quantile(d, 0.99) * 1e3, d.size(), above));
}

/// ns per Fabric::route() call over every pair of ranks.
double sampler_route_ns() {
  const auto cfg = sampler_config(mpi::SchedMode::threads, false);
  std::vector<std::pair<int, int>> pairs;
  for (int a : cfg.placement)
    for (int b : cfg.placement) pairs.emplace_back(a, b);
  return route_ns(cfg.cost_model.fabric(), pairs);
}

}  // namespace

Result run_sampler_threads(const Options& opt, const Reference& ref,
                           Tally& tally) {
  Result res;
  // Rank threads and forked repetitions inherit this mask.
  cpu_set_t one_core;
  CPU_ZERO(&one_core);
  CPU_SET(sched_getcpu(), &one_core);
  tally.check(sched_setaffinity(0, sizeof(one_core), &one_core) == 0,
              "pin sampler_threads to one core");
  Sampler sampler(opt, ref, tally, res);
  const auto threads = mpi::SchedMode::threads;
  // sendrecv + put + the allreduce's messages, per rank and step.
  const double msgs = (2.0 + kAllreduceMsgs) * kNp * kSteps;

  // threads == fibers: the fiber backend must reproduce the monitored and
  // control clocks bit for bit (compare() checks against the first run).
  sampler.monitored(threads, Mode::full, 0.0, false);
  sampler.control(threads, false);
  if (opt.emit_reference) return res;
  sampler.monitored(mpi::SchedMode::fibers, Mode::full, 0.0, false);
  sampler.control(mpi::SchedMode::fibers, false);

  double spin_s = 0.0;
  if (opt.inject_slowdown) {
    // The ranks share one core, so their spins add up.
    spin_s = 0.2 * sampler.control(threads, false).num("run_s") /
             (kSteps * kNp);
    res.line(fmt("inject-slowdown: %.2f us host spin per rank and step",
                 spin_s * 1e6));
  }

  if (!opt.trace) {
    in_worker(tally, res, [&] {
      const Samples s = measure_pairs(
          opt.seconds, 5,
          [&] { return sampler.monitored(threads, Mode::full, spin_s, false); },
          [&] { return sampler.control(threads, false); },
          [&] {
            const auto t0 = Clock::now();
            const Sim sim(sampler_config(threads, false));
            return seconds_since(t0);
          });
      report_end_to_end(res, s, msgs);
      report_cycles(res, gather(s.monitored, "cycle"));
    });
    return res;
  }

  // Traced run: spans and timers around the public calls; the mpit layer
  // is the sessions-only variant against the bare engine.
  std::remove(trace_file(opt).c_str());
  std::vector<RepOut> traced, sessions, bare;
  std::vector<double> untraced;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 3 || seconds_since(t0) < opt.seconds; ++rep) {
    run_in_turn(
        rep,
        {[&] {
           traced.push_back(sampler.monitored(threads, Mode::full, spin_s, true));
         },
         [&] {
           untraced.push_back(
               sampler.monitored(threads, Mode::full, spin_s, false)
                   .num("run_s"));
         },
         [&] {
           sessions.push_back(
               sampler.monitored(threads, Mode::sessions, 0.0, false));
         },
         [&] { bare.push_back(sampler.control(threads, false)); }});
  }
  const double on = sampler.control(threads, true).num("run_s");
  auto med = [](const std::vector<RepOut>& reps, const char* key) {
    return median(gather(reps, key));
  };
  auto med_rss = [](const std::vector<RepOut>& reps) {
    std::vector<double> v;
    for (const RepOut& r : reps) v.push_back(r.rss_mib);
    return median(v);
  };
  res.metric("minimpi.ns_per_msg", med(bare, "run_s") * 1e9 / msgs, "ns");
  res.metric("minimpi.ctor_s", med(bare, "ctor_s"), "s");
  res.metric("minimpi.dtor_s", med(bare, "dtor_s"), "s");
  res.metric("netmodel.contention_ratio", on / med(bare, "run_s"), "ratio");
  res.metric("topo.route_ns", sampler_route_ns(), "ns");
  res.metric("bench.trace_overhead_ratio",
             med(traced, "run_s") / median(untraced), "ratio");
  auto layer = [&](const char* name, double v, const char* unit) {
    res.line(fmt("layer %-28s %14.6g %s", name, v, unit));
  };
  layer("mpit.ns_per_msg",
        (med(sessions, "run_s") - med(bare, "run_s")) * 1e9 / msgs, "ns");
  layer("mpit.rss_mib", med_rss(sessions) - med_rss(bare), "MiB");
  layer("mpimon.allgather_us", med(traced, "allgather") * 1e6, "us");
  layer("mpimon.control_us",
        (med(traced, "suspend") + med(traced, "resume")) * 1e6, "us");
  layer("introspect.get_frames_us", med(traced, "get_frames") * 1e6, "us");
  report_cycles(res, gather(traced, "cycle"));
  res.line(fmt("trace: %.0f spans per traced run written to %s",
               med(traced, "spans"), trace_file(opt).c_str()));
  return res;
}

}  // namespace perfbench
