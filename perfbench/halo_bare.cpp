// halo_bare: apps::run_halo at np=4096 on fibers over the PlaFRIM-like
// tree with NIC contention, under an mpit::Runtime that holds no session.
// Engine matching, fiber scheduling and the NIC min-clock gate do the
// work; no monitoring layer runs, so monitoring changes must not move it.
#include <cstdio>
#include <memory>

#include "apps/cg.h"
#include "apps/halo.h"
#include "mpimon/governor.h"
#include "mpimon/sim.h"
#include "topo/fabric.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace mpim;

constexpr int kNp = 4096;
constexpr int kIters = 2;
constexpr int kLocalN = 8;

mpi::EngineConfig halo_config(bool contention) {
  auto cost = net::CostModel::plafrim_like((kNp + 23) / 24);
  auto placement = topo::round_robin_placement(kNp, cost.topology());
  mpi::EngineConfig cfg{.cost_model = std::move(cost),
                        .placement = std::move(placement)};
  cfg.nic_contention = contention;
  cfg.nic_port_beta_scale = 2.0;
  cfg.sched = mpi::SchedMode::fibers;
  cfg.watchdog_wall_timeout_s = 600.0;
  return cfg;
}

/// Messages one run sends: the four-neighbour exchanges of every
/// iteration plus the closing checksum allreduce.
double halo_messages() {
  int pr = 0, pc = 0;
  apps::cg_process_grid(kNp, &pr, &pc);
  return kIters * 2.0 * (pr * (pc - 1) + pc * (pr - 1)) +
         allreduce_messages(kNp);
}

class Halo {
 public:
  Halo(const Options& opt, const Reference& ref, Tally& tally, Result& res)
      : opt_(opt), ref_(ref), tally_(tally), res_(res) {}

  /// Rank body shared by every variant; `spin_s` is the per-rank host spin
  /// of the sensitivity self-check, `log` the traced run's span log.
  std::function<void(mpi::Ctx&)> body(double spin_s, double* checksum,
                                      SpanLog* log) const {
    return [this, spin_s, checksum, log](mpi::Ctx& ctx) {
      if (spin_s > 0.0) host_spin(spin_s);
      const double t0 = host_now();
      const apps::HaloConfig h{
          .local_n = kLocalN, .iters = kIters, .seed = opt_.seed};
      const apps::HaloResult r = apps::run_halo(ctx.world(), h);
      if (log != nullptr)
        log->add(ctx.world_rank(), "apps.run_halo", "engine.run", t0,
                 host_now());
      if (ctx.world_rank() == 0) *checksum = r.checksum;
    };
  }

  /// The workload itself: Engine + mpit::Runtime (no session).
  RepOut monitored(double spin_s, bool traced) {
    RepOut o = run_rep(tally_, res_, [&](RepOut& out) {
      auto t0 = Clock::now();
      auto sim = std::make_unique<Sim>(halo_config(true));
      out.set("setup_s", seconds_since(t0));
      SpanLog log(kNp);
      double checksum = 0.0;
      const double r0 = host_now();
      t0 = Clock::now();
      sim->run(body(spin_s, &checksum, traced ? &log : nullptr));
      out.set("run_s", seconds_since(t0));
      check_engine(sim->engine(), out, checksum);
      if (traced) {
        log.add(-1, "engine.run", "", r0, host_now());
        log.append_to(trace_file(opt_));
        out.set("spans", static_cast<double>(log.size()));
      }
      t0 = Clock::now();
      sim.reset();
      out.set("teardown_s", seconds_since(t0));
    });
    compare(o, true);
    return o;
  }

  /// Unmonitored control: a bare Engine, same app, np, fabric and seed.
  RepOut control(bool contention) {
    RepOut o = run_rep(tally_, res_, [&](RepOut& out) {
      auto t0 = Clock::now();
      auto engine = std::make_unique<mpi::Engine>(halo_config(contention));
      out.set("ctor_s", seconds_since(t0));
      double checksum = 0.0;
      t0 = Clock::now();
      engine->run(body(0.0, &checksum, nullptr));
      out.set("run_s", seconds_since(t0));
      check_engine(*engine, out, checksum);
      t0 = Clock::now();
      engine.reset();
      out.set("dtor_s", seconds_since(t0));
    });
    compare(o, contention);
    return o;
  }

 private:
  /// Child side: backend and shed level, plus the outcome to compare.
  void check_engine(mpi::Engine& engine, RepOut& out, double checksum) {
    const int shed = mon::Governor::of(engine).shed_level();
    tally_.check(engine.sched_mode() == mpi::SchedMode::fibers,
                 "halo_bare resolved the fiber backend");
    tally_.check(shed == 0, "governor shed level is 0");
    if (clocks_.empty())
      res_.line(fmt("resolved sched=%s fabric=%s shed_level=%d",
                    mpi::sched_mode_name(engine.sched_mode()),
                    engine.fabric().describe().c_str(), shed));
    out.strs["clocks"] = hex(fingerprint(engine.final_clocks()));
    out.strs["checksum"] = fmt("%.17g", checksum);
  }

  /// Parent side: the first run meets the stored reference, every later
  /// one the first (clocks only when the cost model is the same).
  void compare(const RepOut& o, bool same_model) {
    if (!o.ok) return;
    if (clocks_.empty()) {
      clocks_ = o.strs.at("clocks");
      checksum_ = o.strs.at("checksum");
      check_reference(opt_, ref_, tally_, res_, "clocks", clocks_);
      check_reference(opt_, ref_, tally_, res_, "checksum", checksum_);
      return;
    }
    tally_.check(o.strs.at("checksum") == checksum_,
                 "halo checksum identical across runs and control");
    if (same_model)
      tally_.check(o.strs.at("clocks") == clocks_,
                   "virtual clocks bit-identical across runs and control");
  }

  const Options& opt_;
  const Reference& ref_;
  Tally& tally_;
  Result& res_;
  std::string clocks_, checksum_;
};

/// ns per Fabric::route() call over the halo's neighbour leaf pairs.
double halo_route_ns() {
  const auto cfg = halo_config(true);
  int pr = 0, pc = 0;
  apps::cg_process_grid(kNp, &pr, &pc);
  std::vector<std::pair<int, int>> pairs;
  for (int r = 0; r < kNp; ++r) {
    const int right = r % pc + 1 < pc ? r + 1 : -1;
    const int down = r + pc < kNp ? r + pc : -1;
    for (int peer : {right, down})
      if (peer >= 0)
        pairs.emplace_back(cfg.placement[static_cast<std::size_t>(r)],
                           cfg.placement[static_cast<std::size_t>(peer)]);
  }
  return route_ns(cfg.cost_model.fabric(), pairs);
}

}  // namespace

Result run_halo_bare(const Options& opt, const Reference& ref, Tally& tally) {
  Result res;
  Halo halo(opt, ref, tally, res);
  const double msgs = halo_messages();

  if (opt.emit_reference) {
    halo.monitored(0.0, false);
    return res;
  }

  // Sensitivity self-check: a host spin worth ~20% of a control run,
  // spread over the ranks (fibers run one at a time, so spins add up).
  double spin_s = 0.0;
  if (opt.inject_slowdown) {
    spin_s = 0.2 * halo.control(true).num("run_s") / kNp;
    res.line(fmt("inject-slowdown: %.1f us host spin per rank", spin_s * 1e6));
  }

  if (!opt.trace) {
    in_worker(tally, res, [&] {
      const Samples s = measure_pairs(
          opt.seconds, 2, [&] { return halo.monitored(spin_s, false); },
          [&] { return halo.control(true); },
          [] {
            const auto t0 = Clock::now();
            const Sim sim(halo_config(true));
            return seconds_since(t0);
          });
      report_end_to_end(res, s, msgs);
    });
    return res;
  }

  // Traced run: per-layer numbers from spans around the public calls.
  std::remove(trace_file(opt).c_str());
  std::vector<double> traced, untraced, bare, ctor, dtor;
  double spans = 0.0;
  const auto t0 = Clock::now();
  for (int rep = 0; rep < 2 || seconds_since(t0) < opt.seconds; ++rep) {
    run_in_turn(rep, {[&] {
                        const RepOut t = halo.monitored(spin_s, true);
                        traced.push_back(t.num("run_s"));
                        spans += t.num("spans");
                      },
                      [&] {
                        untraced.push_back(
                            halo.monitored(spin_s, false).num("run_s"));
                      },
                      [&] {
                        const RepOut c = halo.control(true);
                        bare.push_back(c.num("run_s"));
                        ctor.push_back(c.num("ctor_s"));
                        dtor.push_back(c.num("dtor_s"));
                      }});
  }
  const double off = halo.control(false).num("run_s");
  res.metric("minimpi.ns_per_msg", median(bare) * 1e9 / msgs, "ns");
  res.metric("minimpi.ctor_s", median(ctor), "s");
  res.metric("minimpi.dtor_s", median(dtor), "s");
  res.metric("netmodel.contention_ratio", median(bare) / off, "ratio");
  res.metric("topo.route_ns", halo_route_ns(), "ns");
  res.metric("bench.trace_overhead_ratio", median(traced) / median(untraced),
             "ratio");
  res.line(fmt("layer mpit (Runtime without a session) vs bare engine: "
               "%.4f x", median(untraced) / median(bare)));
  res.line(fmt("trace: %.0f spans written to %s", spans,
               trace_file(opt).c_str()));
  return res;
}

}  // namespace perfbench
