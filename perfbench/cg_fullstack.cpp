// cg_fullstack: apps::NasCgSolver at np=1024 on fibers over fattree:8,2,2
// with NIC contention and every monitoring layer on (world session with a
// 1 ms snapshot, critpath, in-memory obsplane, telemetry). Iteration 1 is
// monitored, reorder::reorder_ranks runs the paper's Figure-1 step, the
// remaining iterations run on the optimized communicator, then the
// critpath report and the plane finalize close the run.
//
// Everything up to reorder_ranks is deterministic and checked against the
// reference. After it, clocks depend on the host by design: rank 0 is
// charged its measured TreeMatch CPU time, so only the results (k, the
// residual) are compared there.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "apps/nas_cg.h"
#include "critpath/critpath.h"
#include "mpimon/critpath_attach.h"
#include "mpimon/governor.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/sim.h"
#include "obsplane/plane.h"
#include "reorder/reorder.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mpim;

constexpr int kNp = 1024;
constexpr int kIters = 2;  ///< iteration 1 monitored + 1 after the reorder
constexpr int kGridN = 192;
constexpr int kFrames = 64;
constexpr const char* kFabric = "fattree:8,2,2";

mpi::EngineConfig cg_config(bool contention) {
  const auto spec = topo::parse_fabric_spec(kFabric);
  auto fab = topo::make_fabric(*spec, kNp);
  auto placement = topo::round_robin_placement(kNp, fab->hierarchy());
  mpi::EngineConfig cfg{.cost_model = net::CostModel::for_fabric(fab),
                        .placement = std::move(placement)};
  cfg.nic_contention = contention;
  cfg.nic_port_beta_scale = 2.0;
  cfg.sched = mpi::SchedMode::fibers;
  cfg.watchdog_wall_timeout_s = 600.0;
  return cfg;
}

/// Which monitoring layers a run carries. `runtime` off is the bare
/// engine; the leave-one-out variants switch off one layer of `full`.
struct Layers {
  bool runtime = true;
  bool snapshot = true;
  bool critpath = true;
  bool obsplane = true;
  bool telemetry = true;
  const char* name = "full";
};

/// What one NAS CG iteration sends from one rank (the generator's
/// schedule: column allgather by recursive doubling, row reduce-scatter by
/// recursive halving, one transpose exchange, three scalar allreduces).
struct Traffic {
  double msgs = 0.0;
  double bytes = 0.0;
};
Traffic cg_iteration_traffic(int rank) {
  int pr = 0, pc = 0;
  apps::nas_process_grid(kNp, &pr, &pc);
  const long n = static_cast<long>(kGridN) * kGridN;
  const long plen = n / (static_cast<long>(pr) * pc);
  const long rows = n / pr;
  const int prow = rank / pc, pcol = rank % pc;
  const int send_idx = prow * pc + pcol;
  const bool transpose = (send_idx % pr) * pc + send_idx / pr != rank;
  int log_pr = 0, log_pc = 0, log_np = 0;
  while ((1 << log_pr) < pr) ++log_pr;
  while ((1 << log_pc) < pc) ++log_pc;
  while ((1 << log_np) < kNp) ++log_np;
  Traffic t;
  t.msgs = log_pr + log_pc + (transpose ? 1 : 0) + 3.0 * log_np;
  t.bytes = 8.0 * static_cast<double>((pr - 1) * plen + (rows - rows / pc) +
                                      (transpose ? plen : 0) + 3 * log_np);
  return t;
}

double cg_iteration_messages() {
  double m = 0.0;
  for (int r = 0; r < kNp; ++r) m += cg_iteration_traffic(r).msgs;
  return m;
}

/// Host spans of the Figure-1 step kept by every rank.
struct Timers {
  StepTimer reorder{kNp}, rootgather{kNp}, split{kNp};
};

class Cg {
 public:
  Cg(const Options& opt, const Reference& ref, Tally& tally, Result& res)
      : opt_(opt), ref_(ref), tally_(tally), res_(res) {}

  struct Stack {
    std::unique_ptr<Sim> sim;
    std::shared_ptr<critpath::Profiler> prof;
    std::shared_ptr<obsplane::Plane> plane;
    double obsplane_s = 0.0;
  };

  /// Engine + runtime construction and every layer attach.
  static Stack setup(const Layers& L) {
    Stack s;
    s.sim = std::make_unique<Sim>(cg_config(true));
    if (L.critpath) s.prof = mon::attach_critpath(s.sim->engine());
    if (L.obsplane) {
      const auto t0 = Clock::now();
      s.plane = obsplane::Plane::attach(s.sim->engine(), {});
      s.obsplane_s = seconds_since(t0);
    }
    s.sim->engine().telemetry().set_enabled(L.telemetry);
    return s;
  }

  /// One monitored Figure-1 run of the full stack, as one run_rep().
  /// `probes` adds the traced run's extra calls (a root gather, a direct
  /// TreeMatch, a comm_split); `traced` keeps spans.
  RepOut figure1(double spin_s, bool traced, bool probes) {
    RepOut o = run_rep(tally_, res_, [&](RepOut& out) {
      auto t0 = Clock::now();
      const double s0 = host_now();
      Stack s = setup(Layers{});
      out.set("setup_s", seconds_since(t0));
      out.set("attach_s", s.obsplane_s);
      SpanLog log(kNp);
      SpanLog* lp = traced ? &log : nullptr;
      if (lp != nullptr) lp->add(-1, "setup", "", s0, host_now());

      Timers tm;
      std::vector<double> pre_clock(kNp);
      std::vector<long> events(kNp), dropped(kNp);
      std::vector<char> bytes_ok(kNp, 1);
      std::vector<unsigned long> matrix(probes ? kNp * kNp : 0);
      std::vector<int> k;
      double residual = 0.0;
      const double r0 = host_now();
      t0 = Clock::now();
      s.sim->run([&](mpi::Ctx& ctx) {
        const int r = ctx.world_rank();
        const mpi::Comm world = ctx.world();
        if (spin_s > 0.0) host_spin(spin_s);
        const double b0 = host_now();
        MPI_M_msid id = -1;
        tally_.rc(MPI_M_init(), "MPI_M_init");
        tally_.rc(MPI_M_start(world, &id), "MPI_M_start");
        tally_.rc(MPI_M_snapshot_start(id, 1e-3, kFrames, MPI_M_ALL_COMM),
                  "MPI_M_snapshot_start");
        const apps::CgConfig cfg{
            .grid_n = kGridN, .max_iters = kIters, .seed = opt_.seed};
        // Per-rank spans of the traced run, parented to rank.body.
        auto span = [&](const char* name, double t0_s) {
          if (lp != nullptr) lp->add(r, name, "rank.body", t0_s, host_now());
        };
        double p0 = host_now();
        apps::NasCgSolver first(world, cfg);
        first.iteration();
        span("apps.cg_iteration1", p0);
        tally_.rc(MPI_M_suspend(id), "MPI_M_suspend");

        // Session bytes == what the generator sent in iteration 1.
        std::vector<unsigned long> counts(kNp), sizes(kNp);
        tally_.rc(MPI_M_get_data(id, counts.data(), sizes.data(),
                                 MPI_M_ALL_COMM),
                  "MPI_M_get_data");
        const Traffic want = cg_iteration_traffic(r);
        double got_msgs = 0.0, got_bytes = 0.0;
        for (int j = 0; j < kNp; ++j) {
          got_msgs += static_cast<double>(counts[j]);
          got_bytes += static_cast<double>(sizes[j]);
        }
        bytes_ok[r] = got_msgs == want.msgs && got_bytes == want.bytes;

        pre_clock[r] = ctx.now();
        tm.reorder.enter(r);
        p0 = host_now();
        const reorder::ReorderResult res = reorder::reorder_ranks(id, world);
        span("reorder.reorder_ranks", p0);
        tm.reorder.exit(r);
        if (r == 0) k = res.k;
        if (probes) {
          // After the deterministic phase; the suspended session still
          // holds the iteration-1 matrix.
          tm.rootgather.enter(r);
          tally_.rc(MPI_M_rootgather_data(id, 0, MPI_M_DATA_IGNORE,
                                          r == 0 ? matrix.data() : nullptr,
                                          MPI_M_ALL_COMM),
                    "MPI_M_rootgather_data");
          tm.rootgather.exit(r);
        }
        tally_.rc(MPI_M_continue(id), "MPI_M_continue");

        apps::CgConfig rest = cfg;
        rest.max_iters = kIters - 1;
        p0 = host_now();
        apps::NasCgSolver solver(res.opt_comm, rest);
        const apps::CgResult cr = solver.solve();
        span("apps.cg_solve_reordered", p0);
        if (r == 0) residual = cr.residual_norm2;

        int ev = 0, dr = 0, blame_only = 0;
        tally_.rc(MPI_M_critpath_info(&ev, &dr, &blame_only),
                  "MPI_M_critpath_info");
        events[r] = ev;
        dropped[r] = dr;
        tally_.rc(MPI_M_suspend(id), "MPI_M_suspend");
        tally_.rc(MPI_M_free(id), "MPI_M_free");
        tally_.rc(MPI_M_finalize(), "MPI_M_finalize");
        if (probes) {
          tm.split.enter(r);
          mpi::comm_split(world, 0, kNp - 1 - r);
          tm.split.exit(r);
        }
        if (lp != nullptr) lp->add(r, "rank.body", "engine.run", b0, host_now());
      });
      out.set("run_s", seconds_since(t0));
      if (lp != nullptr) lp->add(-1, "engine.run", "", r0, host_now());
      out.set("reorder_s", tm.reorder.durations().at(0));

      mpi::Engine& engine = s.sim->engine();
      const int shed = mon::Governor::of(engine).shed_level();
      tally_.check(engine.sched_mode() == mpi::SchedMode::fibers,
                   "cg_fullstack resolved the fiber backend");
      tally_.check(shed == 0, "governor shed level is 0");
      tally_.check(std::all_of(bytes_ok.begin(), bytes_ok.end(),
                               [](char c) { return c != 0; }),
                   "session bytes == generator bytes (iteration 1, every "
                   "rank)");
      if (clocks_.empty())
        res_.line(fmt("resolved sched=%s fabric=%s shed_level=%d",
                      mpi::sched_mode_name(engine.sched_mode()),
                      engine.fabric().describe().c_str(), shed));
      out.strs["clocks"] = hex(fingerprint(pre_clock));
      out.strs["k"] = hex(fingerprint(k));
      out.strs["residual"] = fmt("%.17g", residual);
      long ev_sum = 0, dr_sum = 0;
      for (int r = 0; r < kNp; ++r) {
        ev_sum += events[r];
        dr_sum += dropped[r];
      }
      out.set("kept_ratio", static_cast<double>(ev_sum) /
                                static_cast<double>(std::max(ev_sum + dr_sum, 1L)));

      // Teardown: critpath report, plane finalize, destruction.
      t0 = Clock::now();
      const critpath::BlameReport& rep = s.prof->report();
      out.set("report_s", seconds_since(t0));
      const auto f0 = Clock::now();
      s.plane->finalize();
      out.set("finalize_s", seconds_since(f0));
      double teardown_s = seconds_since(t0);
      out.set("extract_s", s.prof->extract_host_seconds());
      std::uint64_t blame = 0;
      for (const auto& rb : rep.ranks) blame += rb.blame_ns;
      tally_.check(rep.valid && blame == rep.total_comm_ns,
                   "critpath sum of blame_ns == total_comm_ns");
      const auto attempted = s.plane->events_attempted();
      const auto ingested = s.plane->events_ingested();
      tally_.check(attempted == ingested + s.plane->events_dropped(),
                   "obsplane attempted == ingested + dropped");
      out.set("ingested_ratio",
              static_cast<double>(ingested) /
                  static_cast<double>(std::max<std::uint64_t>(attempted, 1)));
      t0 = Clock::now();
      s.prof.reset();
      s.plane.reset();
      s.sim.reset();
      teardown_s += seconds_since(t0);
      out.set("teardown_s", teardown_s);

      if (probes) {
        out.set("rootgather_s", tm.rootgather.durations().at(0));
        out.set("split_s", tm.split.durations().at(0));
        // TreeMatch on the gathered matrix, called directly; it must
        // reproduce the permutation reorder_ranks applied.
        const auto cfg = cg_config(true);
        CommMatrix bytes = CommMatrix::square(kNp);
        std::copy(matrix.begin(), matrix.end(), bytes.flat().begin());
        const auto tm0 = Clock::now();
        const std::vector<int> k2 = reorder::compute_reordering(
            bytes, cfg.cost_model.topology(), cfg.placement, &cfg.cost_model);
        out.set("treematch_s", seconds_since(tm0));
        tally_.check(k2 == k,
                     "direct compute_reordering reproduces reorder_ranks' k");
      }
      if (lp != nullptr) {
        lp->append_to(trace_file(opt_));
        out.set("spans", static_cast<double>(lp->size()));
      }
    });
    compare(o, true);
    return o;
  }

  /// Bare control: engine only, same app, np, fabric and seed; iteration 1
  /// then a fresh solver for the rest, like the monitored run.
  RepOut control(bool contention) {
    RepOut o = run_rep(tally_, res_, [&](RepOut& out) {
      auto t0 = Clock::now();
      auto engine = std::make_unique<mpi::Engine>(cg_config(contention));
      out.set("ctor_s", seconds_since(t0));
      double residual = 0.0;
      t0 = Clock::now();
      engine->run([&](mpi::Ctx& ctx) {
        const apps::CgConfig cfg{
            .grid_n = kGridN, .max_iters = kIters - 1, .seed = opt_.seed};
        apps::NasCgSolver first(ctx.world(), cfg);
        first.iteration();
        apps::NasCgSolver solver(ctx.world(), cfg);
        const apps::CgResult cr = solver.solve();
        if (ctx.world_rank() == 0) residual = cr.residual_norm2;
      });
      out.set("run_s", seconds_since(t0));
      tally_.check(engine->sched_mode() == mpi::SchedMode::fibers,
                   "cg_fullstack resolved the fiber backend");
      out.strs["residual"] = fmt("%.17g", residual);
      t0 = Clock::now();
      engine.reset();
      out.set("dtor_s", seconds_since(t0));
    });
    compare(o, false);
    return o;
  }

  /// One leave-one-out variant in its own process: kIters monitored
  /// iterations on world (no reorder) under `L`; reports the wall of
  /// Engine::run (which includes the layers' run-end work).
  RepOut variant(const Layers& L) {
    return run_rep(tally_, res_, [&](RepOut& out) {
      auto body = [&](mpi::Ctx& ctx) {
        const apps::CgConfig cfg{
            .grid_n = kGridN, .max_iters = kIters, .seed = opt_.seed};
        MPI_M_msid id = -1;
        if (L.runtime) {
          tally_.rc(MPI_M_init(), "MPI_M_init");
          tally_.rc(MPI_M_start(ctx.world(), &id), "MPI_M_start");
          if (L.snapshot)
            tally_.rc(MPI_M_snapshot_start(id, 1e-3, kFrames, MPI_M_ALL_COMM),
                      "MPI_M_snapshot_start");
        }
        apps::NasCgSolver solver(ctx.world(), cfg);
        solver.solve();
        if (L.runtime) {
          tally_.rc(MPI_M_suspend(id), "MPI_M_suspend");
          tally_.rc(MPI_M_free(id), "MPI_M_free");
          tally_.rc(MPI_M_finalize(), "MPI_M_finalize");
        }
      };
      if (!L.runtime) {
        mpi::Engine bare(cg_config(true));
        const auto t0 = Clock::now();
        bare.run(body);
        out.set("run_s", seconds_since(t0));
        return;
      }
      Stack s = setup(L);
      const auto t0 = Clock::now();
      s.sim->run(body);
      out.set("run_s", seconds_since(t0));
    });
  }

 private:
  /// Parent side: the first Figure-1 run meets the stored reference, every
  /// later one the first; every residual, reordered or control, must be
  /// the same number.
  void compare(const RepOut& o, bool figure1) {
    if (!o.ok) return;
    const std::string& residual = o.strs.at("residual");
    if (residual_.empty()) {
      residual_ = residual;
      check_reference(opt_, ref_, tally_, res_, "residual", residual);
    } else {
      tally_.check(residual == residual_,
                   "residual identical across runs, reordered and control");
    }
    if (!figure1) return;
    if (clocks_.empty()) {
      clocks_ = o.strs.at("clocks");
      k_ = o.strs.at("k");
      check_reference(opt_, ref_, tally_, res_, "clocks", clocks_);
      check_reference(opt_, ref_, tally_, res_, "k", k_);
      return;
    }
    tally_.check(o.strs.at("clocks") == clocks_,
                 "pre-reorder virtual clocks bit-identical across runs");
    tally_.check(o.strs.at("k") == k_, "permutation k identical across runs");
  }

  const Options& opt_;
  const Reference& ref_;
  Tally& tally_;
  Result& res_;
  std::string clocks_, k_, residual_;
};

/// ns per Fabric::route() call over every (rank, partner) pair of a CG
/// iteration.
double cg_route_ns() {
  const auto cfg = cg_config(true);
  int pr = 0, pc = 0;
  apps::nas_process_grid(kNp, &pr, &pc);
  std::vector<std::pair<int, int>> pairs;
  auto leaf = [&](int r) { return cfg.placement[static_cast<std::size_t>(r)]; };
  for (int r = 0; r < kNp; ++r) {
    const int prow = r / pc, pcol = r % pc;
    for (int m = 1; m < pr; m <<= 1)
      pairs.emplace_back(leaf(r), leaf((prow ^ m) * pc + pcol));
    for (int m = 1; m < pc; m <<= 1)
      pairs.emplace_back(leaf(r), leaf(prow * pc + (pcol ^ m)));
    for (int m = 1; m < kNp; m <<= 1) pairs.emplace_back(leaf(r), leaf(r ^ m));
  }
  return route_ns(cfg.cost_model.fabric(), pairs);
}

}  // namespace

Result run_cg_fullstack(const Options& opt, const Reference& ref,
                        Tally& tally) {
  Result res;
  Cg cg(opt, ref, tally, res);
  const double iter_msgs = cg_iteration_messages();
  // The monitored run adds the binomial broadcast of k inside reorder_ranks.
  const double msgs = kIters * iter_msgs + (kNp - 1);

  if (opt.emit_reference) {
    cg.figure1(0.0, false, false);
    return res;
  }

  double spin_s = 0.0;
  if (opt.inject_slowdown) {
    spin_s = 0.2 * cg.control(true).num("run_s") / kNp;
    res.line(fmt("inject-slowdown: %.1f us host spin per rank", spin_s * 1e6));
  }

  if (!opt.trace) {
    in_worker(tally, res, [&] {
      const Samples s = measure_pairs(
          opt.seconds, 2, [&] { return cg.figure1(spin_s, false, false); },
          [&] { return cg.control(true); },
          [] {
            const auto t0 = Clock::now();
            const Cg::Stack stack = Cg::setup(Layers{});
            return seconds_since(t0);
          });
      report_end_to_end(res, s, msgs);
      const auto reorder = s.mon("reorder_s");
      std::string per_rep;
      for (double v : reorder) per_rep += fmt(" %.4f", v);
      res.line(fmt("reorder_s %.6g s (median of %zu reorder_ranks calls, "
                   "first rank entry to last rank exit):%s",
                   median(reorder), reorder.size(), per_rep.c_str()));
    });
    return res;
  }

  // Leave-one-out variants, two processes each (best wall, lowest peak
  // RSS): the full stack minus one layer, plus sessions-only and bare.
  std::vector<Layers> ls = {Layers{}};
  ls.push_back({.runtime = false, .snapshot = false, .critpath = false,
                .obsplane = false, .telemetry = false, .name = "bare"});
  ls.push_back({.snapshot = false, .critpath = false, .obsplane = false,
                .telemetry = false, .name = "sessions"});
  ls.push_back({.snapshot = false, .name = "full-introspect"});
  ls.push_back({.critpath = false, .name = "full-critpath"});
  ls.push_back({.obsplane = false, .name = "full-obsplane"});
  ls.push_back({.telemetry = false, .name = "full-telemetry"});
  std::map<std::string, std::pair<double, double>> var;  // wall, rss
  for (const Layers& L : ls) {
    const RepOut a = cg.variant(L), b = cg.variant(L);
    var[L.name] = {std::min(a.num("run_s"), b.num("run_s")),
                   std::min(a.rss_mib, b.rss_mib)};
    res.line(fmt("variant %-16s wall %.4f s  peak rss %.1f MiB (best of 2)",
                 L.name, var[L.name].first, var[L.name].second));
  }

  // Spans and probes around the public calls. The untraced twin takes the
  // same probes without spans, so the two differ only by the tracing.
  std::remove(trace_file(opt).c_str());
  std::vector<RepOut> traced;
  std::vector<double> traced_s, untraced_s, bare, ctor, dtor;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 1 || seconds_since(t0) < opt.seconds; ++rep) {
    run_in_turn(rep, {[&] {
                        traced.push_back(cg.figure1(spin_s, true, true));
                        traced_s.push_back(traced.back().num("run_s"));
                      },
                      [&] {
                        untraced_s.push_back(
                            cg.figure1(spin_s, false, true).num("run_s"));
                      },
                      [&] {
                        const RepOut c = cg.control(true);
                        bare.push_back(c.num("run_s"));
                        ctor.push_back(c.num("ctor_s"));
                        dtor.push_back(c.num("dtor_s"));
                      }});
  }
  const double off = cg.control(false).num("run_s");
  auto traced_median = [&](const char* key) {
    std::vector<double> v;
    for (const RepOut& r : traced) v.push_back(r.num(key));
    return median(v);
  };

  res.metric("minimpi.ns_per_msg", median(bare) * 1e9 / (kIters * iter_msgs),
             "ns");
  res.metric("minimpi.ctor_s", median(ctor), "s");
  res.metric("minimpi.dtor_s", median(dtor), "s");
  res.metric("netmodel.contention_ratio", median(bare) / off, "ratio");
  res.metric("topo.route_ns", cg_route_ns(), "ns");
  res.metric("bench.trace_overhead_ratio",
             median(traced_s) / median(untraced_s), "ratio");

  // Workload-specific layer figures (report lines; see README.md).
  auto layer = [&](const std::string& name, double v, const char* unit) {
    res.line(fmt("layer %-28s %14.6g %s", name.c_str(), v, unit));
  };
  layer("minimpi.comm_split_s", traced_median("split_s"), "s");
  layer("mpimon.rootgather_s", traced_median("rootgather_s"), "s");
  layer("treematch.compute_s", traced_median("treematch_s"), "s");
  // report() and finalize() return work the engine's run-end hooks already
  // did inside Engine::run; extract_host_seconds() times that work.
  layer("critpath.report_s", traced_median("report_s"), "s");
  layer("critpath.extract_s", traced_median("extract_s"), "s");
  layer("critpath.kept_ratio", traced_median("kept_ratio"), "ratio");
  layer("obsplane.attach_s", traced_median("attach_s"), "s");
  layer("obsplane.finalize_s", traced_median("finalize_s"), "s");
  layer("obsplane.ingested_ratio", traced_median("ingested_ratio"), "ratio");
  const double run_msgs = kIters * iter_msgs;
  const auto& full = var["full"];
  for (const char* l : {"introspect", "critpath", "obsplane", "telemetry"}) {
    const auto& minus = var[std::string("full-") + l];
    layer(std::string(l) + ".ns_per_msg",
          (full.first - minus.first) * 1e9 / run_msgs, "ns");
    layer(std::string(l) + ".rss_mib", full.second - minus.second, "MiB");
  }
  layer("mpit.ns_per_msg(cg)",
        (var["sessions"].first - var["bare"].first) * 1e9 / run_msgs, "ns");
  layer("mpit.rss_mib(cg)", var["sessions"].second - var["bare"].second,
        "MiB");
  res.line(fmt("all-layers-off control: wall %.4f s, peak rss %.1f MiB; "
               "full stack: wall %.4f s, peak rss %.1f MiB (leave-one-out "
               "deltas do not add up to the total)",
               var["bare"].first, var["bare"].second, full.first,
               full.second));
  res.line(fmt("reorder_s (traced) %.6g s", traced_median("reorder_s")));
  res.line(fmt("trace: %.0f spans per traced run written to %s",
               traced_median("spans"), trace_file(opt).c_str()));
  return res;
}

}  // namespace perfbench
