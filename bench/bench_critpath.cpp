// Critical-path profiler cost: what happens-before capture does to the
// per-message hook, and how backward blame extraction scales with the
// number of captured events.
//
// Three tables, all mirrored into results/BENCH_critpath.json:
//
//   critpath_hookcost  direct cost of the capture hooks: on_send / on_recv
//                      hammered from one thread against a warmed lane with
//                      a wrapping ring, classification alternating between
//                      late-sender waits and inbox dwell, in ten processes.
//                      ns_per_event is the best of them and is the number
//                      the 5% budget checks: the hooks run under the rank
//                      mutex senders contend on, so their per-event cost is
//                      what the profiler adds to the engine's message path.
//                      events_per_sec is the mean rate with its 95%
//                      interval, an absolute row scripts/bench_trend.py
//                      gates against a same-host baseline.
//
//   critpath_extract   post-run report() wall time as the captured event
//                      count grows: classification, blame aggregation,
//                      link sort and the backward path walk all happen
//                      after Engine::run joined, so extraction is off the
//                      application's critical path by construction -- this
//                      tracks that it stays cheap anyway.
//
//   critpath_checks    PASS/FAIL: the hook budget -- direct send+recv hook
//                      cost <= 5% of the 8-thread telemetry baseline's
//                      per-sendrecv wall cost -- and the blame-sum identity
//                      (per-rank blame must sum exactly to total
//                      communication time).
//
// Host wall time, best-of reps; virtual clocks are identical with and
// without the profiler (CritpathClocks.BitIdenticalProfilerOnAndOff).
// What the profiler costs a whole run, over a control timed in the same
// process, is bench_layers' critpath row.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "critpath/critpath.h"

namespace {

using namespace mpim;

mpi::EngineConfig critpath_config(int nranks) {
  // Contention model off: this bench isolates host-side software cost.
  auto cost = net::CostModel::plafrim_like(bench::nodes_for_ranks(nranks));
  auto placement = topo::round_robin_placement(nranks, cost.topology());
  mpi::EngineConfig cfg{.cost_model = std::move(cost),
                        .placement = std::move(placement)};
  cfg.watchdog_wall_timeout_s = 120.0;
  return cfg;
}

double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Ring sendrecv loop: every iteration is one send + one recv per rank,
/// so the capture hooks fire twice per rank per iteration.
void ring_workload(mpi::Ctx& ctx, int iters) {
  const mpi::Comm world = ctx.world();
  const int n = mpi::comm_size(world);
  const int me = mpi::comm_rank(world);
  std::vector<char> buf(64, 1);
  for (int i = 0; i < iters; ++i)
    mpi::sendrecv(buf.data(), buf.size(), mpi::Type::Char, (me + 1) % n, 0,
                  buf.data(), buf.size(), (me + n - 1) % n, 0, world);
}

// --- critpath_hookcost -------------------------------------------------------

struct HookCost {
  double send_ns = 0.0;  ///< per on_send call
  double recv_ns = 0.0;  ///< per on_recv call (classify + charge)
};

/// Direct hook cost on one lane: the ring wraps (steady state) and the
/// recv side alternates late-sender waits with inbox dwell so both
/// classification paths are exercised.
HookCost hook_cost_once(int events) {
  mpi::Engine engine(critpath_config(8));
  engine.telemetry().set_enabled(true);
  auto prof = critpath::Profiler::attach(engine);
  prof->on_run_begin();

  mpi::PktInfo pkt;
  pkt.src_world = 1;
  pkt.dst_world = 1;
  pkt.bytes = 64;
  pkt.kind = mpi::CommKind::p2p;
  pkt.tag = 0;
  pkt.context_id = 0;

  HookCost out;
  double t = 0.0;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < events; ++i) {
    pkt.send_seq = static_cast<std::uint64_t>(i) + 1;
    pkt.send_time_s = t;
    prof->on_send_done(0, pkt, t, t, t + 1e-6, t + 1e-7);
    t += 2e-6;
  }
  out.send_ns = wall_since(t0) / events * 1e9;

  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < events; ++i) {
    pkt.send_seq = static_cast<std::uint64_t>(i) + 1;
    const double pre = t;
    const double arrival = (i & 1) ? pre + 5e-7 : pre - 5e-7;
    prof->on_recv(0, pkt, pre, arrival, std::max(pre, arrival) + 1e-7);
    t += 2e-6;
  }
  out.recv_ns = wall_since(t0) / events * 1e9;
  prof->on_run_end();
  return out;
}

HookCost hookcost_sweep(const bench::Options& opt) {
  const int events = opt.quick ? 200000 : 1000000;
  // Ten samples, each from its own process (bench::process_samples).
  std::vector<double> ns[2], rates[2];
  for (const auto& v : bench::process_samples(10, [events] {
         const HookCost c = hook_cost_once(events);
         return std::vector<double>{c.send_ns, c.recv_ns};
       }))
    for (int i = 0; i < 2; ++i) {
      ns[i].push_back(v[i]);
      rates[i].push_back(1e9 / v[i]);
    }
  const HookCost best{*std::min_element(ns[0].begin(), ns[0].end()),
                      *std::min_element(ns[1].begin(), ns[1].end())};
  Table t({"config", "events", "ns_per_event", "events_per_sec",
           "events_per_sec_ci95"});
  const char* names[] = {"hook/send", "hook/recv"};
  for (int i = 0; i < 2; ++i) {
    const bench::Estimate e = bench::estimate(rates[i]);
    t.add(names[i], events, format_sig(i == 0 ? best.send_ns : best.recv_ns, 4),
          format_sig(e.mean, 4), format_sig(e.ci95, 3));
  }
  t.print(std::cout);
  bench::maybe_csv(opt, t, "critpath_hookcost");
  return best;
}

// --- the budget's denominator -----------------------------------------------

/// Host ns per sendrecv of the ring loop at 8 threads with telemetry on
/// (the MPIM_TELEMETRY baseline the hook budget is a share of), best of
/// reps.
double telemetry_ring_ns_t8(const bench::Options& opt) {
  const int nranks = 8;
  const int iters = (opt.quick ? 40000 : 160000) / nranks;
  double best = 1e300;
  for (int r = 0; r < (opt.quick ? 3 : 5); ++r) {
    mpi::Engine engine(critpath_config(nranks));
    engine.telemetry().set_enabled(true);
    const auto t0 = std::chrono::steady_clock::now();
    engine.run([iters](mpi::Ctx& ctx) { ring_workload(ctx, iters); });
    best = std::min(best, wall_since(t0));
  }
  return best / (static_cast<double>(iters) * nranks) * 1e9;
}

// --- critpath_extract --------------------------------------------------------

struct ExtractSample {
  std::uint64_t events = 0;
  double extract_s = 0.0;
  bool identity_ok = false;
};

/// Run the ring once; the profiler self-times its finalize (it runs
/// eagerly in its on_run_end, after the rank threads joined), so read
/// extract_host_seconds() rather than re-timing the already-idempotent
/// report() call.
ExtractSample extract_once(int nranks, int iters) {
  mpi::Engine engine(critpath_config(nranks));
  critpath::Config cfg;
  cfg.ring_capacity = 2 * static_cast<std::size_t>(iters) + 64;
  auto prof = critpath::Profiler::attach(engine, cfg);
  engine.run([iters](mpi::Ctx& ctx) { ring_workload(ctx, iters); });
  const critpath::BlameReport& rep = prof->report();

  ExtractSample s;
  s.extract_s = prof->extract_host_seconds();
  std::uint64_t blame = 0, comm = 0;
  for (const auto& r : rep.ranks) {
    s.events += 2 * static_cast<std::uint64_t>(iters);  // sends + recvs
    blame += r.blame_ns;
    comm += r.comm_ns;
  }
  s.identity_ok = rep.valid && blame == comm && comm == rep.total_comm_ns;
  return s;
}

bool extract_sweep(const bench::Options& opt) {
  const int reps = opt.quick ? 3 : 5;
  const std::vector<int> iter_steps =
      opt.quick ? std::vector<int>{500, 2000, 8000}
                : std::vector<int>{500, 2000, 8000, 32000};
  Table t({"config", "ranks", "events", "extract_ms", "events_per_ms"});
  bool identity_ok = true;
  const int nranks = 8;
  for (int iters : iter_steps) {
    ExtractSample best;
    best.extract_s = 1e300;
    for (int r = 0; r < reps; ++r) {
      const ExtractSample s = extract_once(nranks, iters);
      identity_ok = identity_ok && s.identity_ok;
      if (s.extract_s < best.extract_s) best = s;
    }
    t.add("extract/e" + std::to_string(2 * iters * nranks), nranks,
          static_cast<unsigned long>(best.events),
          format_sig(best.extract_s * 1e3, 4),
          format_sig(static_cast<double>(best.events) /
                         (best.extract_s * 1e3),
                     4));
  }
  t.print(std::cout);
  bench::maybe_csv(opt, t, "critpath_extract");
  return identity_ok;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);

  bench::banner("capture hook direct cost (one thread, warmed lane)");
  const HookCost hook = hookcost_sweep(opt);

  const double base_ns_at_8 = telemetry_ring_ns_t8(opt);
  std::printf("8-thread telemetry ring: %.4g ns per sendrecv\n",
              base_ns_at_8);

  bench::banner("blame extraction time vs captured event count");
  const bool identity_ok = extract_sweep(opt);

  // One sendrecv = one on_send + one on_recv; the budget says the pair may
  // cost at most 5% of what the 8-thread telemetry baseline already pays
  // per sendrecv.
  const double hook_pct =
      base_ns_at_8 > 0.0
          ? (hook.send_ns + hook.recv_ns) / base_ns_at_8 * 100.0
          : 0.0;
  Table checks({"check", "value", "limit", "status"});
  checks.add("hook_overhead_pct_t8", format_sig(hook_pct, 3), 5.0,
             hook_pct <= 5.0 ? "PASS" : "FAIL");
  checks.add("blame_identity_exact", identity_ok ? 1 : 0, 1,
             identity_ok ? "PASS" : "FAIL");
  checks.print(std::cout);
  bench::maybe_csv(opt, checks, "critpath_checks");

  if (hook_pct > 5.0)
    std::fprintf(stderr,
                 "bench_critpath: WARNING: capture hooks cost %.2f%% of the "
                 "8-thread baseline per-sendrecv budget (limit 5%%)\n",
                 hook_pct);
  return identity_ok ? 0 : 1;
}
