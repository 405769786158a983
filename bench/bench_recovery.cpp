// Recovery-path costs: what surviving a rank failure costs, and what the
// dead-row skip saves over the pre-recovery timeout path.
//
// Table 1 (recovery_shrink): time-to-recover vs world size. One rank
// crashes early; the survivors run comm_shrink (agree on the dead set,
// renumber, intern). Reported per world size: the maximum virtual time any
// survivor spends inside comm_shrink (deterministic, the number that lands
// in application clocks) and the host wall time of the whole run
// (informational).
//
// Table 2 (recovery_gather): post-failure gather latency, host wall ms on
// the root, three scenarios:
//
//   stall_timeout   the contributor is stalled-not-dead, so the gather
//                   must burn the full recovery timeout before filling the
//                   sentinel row -- the only option the pre-recovery stack
//                   had for *any* missing contributor, every call.
//   crash_deadskip  the contributor is dead and the engine knows it: the
//                   gather skips the row immediately (MPI_M_PARTIAL_DATA,
//                   zero stall).
//   post_shrink     after comm_shrink + a fresh session on the survivors:
//                   the dead rank is not a member, the gather is complete
//                   (MPI_M_SUCCESS) and fast.
//
// Emits results/BENCH_recovery.json via the bench_common mirror so
// scripts/bench_trend.py tracks the trajectory (informational metrics; the
// gated rows live in bench_layers, bench_stream, bench_fabric and
// bench_micro).
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/fault_plan.h"
#include "minimpi/engine.h"
#include "minimpi/ft.h"
#include "mpimon/mpi_monitoring.h"
#include "mpit/runtime.h"

namespace {

using namespace mpim;

constexpr int kVictim = 1;

mpi::EngineConfig recovery_config(int nranks,
                                  std::shared_ptr<fault::FaultPlan> plan) {
  auto cost = net::CostModel::plafrim_like(bench::nodes_for_ranks(nranks));
  auto placement = topo::round_robin_placement(nranks, cost.topology());
  mpi::EngineConfig cfg{.cost_model = std::move(cost),
                        .placement = std::move(placement)};
  cfg.watchdog_wall_timeout_s = 120.0;
  cfg.fault_plan = std::move(plan);
  return cfg;
}

std::shared_ptr<fault::FaultPlan> crash_plan(double at_s) {
  auto plan = std::make_shared<fault::FaultPlan>(/*seed=*/1);
  plan->add(fault::RankFault{.rank = kVictim, .crash_at_s = at_s});
  return plan;
}

/// Self-roundtrips: advances every rank's clock (so the victim reaches its
/// crash trigger) without any cross-rank dependence before the shrink.
void warm_clock(mpi::Ctx& ctx, int iters) {
  const mpi::Comm world = ctx.world();
  const int me = ctx.world_rank();
  char buf[8] = {0};
  for (int i = 0; i < iters; ++i) {
    ctx.send_bytes(me, world, 9, mpi::CommKind::p2p, buf, sizeof buf);
    ctx.recv_bytes(me, world, 9, mpi::CommKind::p2p, buf, sizeof buf);
  }
}

struct ShrinkCost {
  double virtual_s = 0.0;  ///< max over survivors, deterministic
  double wall_s = 0.0;     ///< whole run, host
};

ShrinkCost measure_shrink(int nranks) {
  mpi::Engine engine(recovery_config(nranks, crash_plan(1e-5)));
  std::vector<double> delta(static_cast<std::size_t>(nranks), 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  engine.run([&](mpi::Ctx& ctx) {
    mpi::comm_set_errhandler(ctx.world(), mpi::ErrMode::ret);
    warm_clock(ctx, 200);  // the victim dies in here
    const double before = ctx.now();
    const mpi::Comm alive = mpi::comm_shrink(ctx.world());
    delta[static_cast<std::size_t>(ctx.world_rank())] = ctx.now() - before;
    // Touch the result so the shrink cannot be optimized into thin air.
    if (mpi::comm_size(alive) != nranks - 1) std::abort();
  });
  ShrinkCost cost;
  cost.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (double d : delta) cost.virtual_s = std::max(cost.virtual_s, d);
  return cost;
}

struct GatherCost {
  double wall_s = 0.0;  ///< host wall of the gather call on world rank 0
  int rc = -1;
};

/// One monitored run with a faulty contributor; measures the allgather on
/// the root. `shrink_first` moves the gather onto the survivors-only comm.
GatherCost measure_gather(int nranks, std::shared_ptr<fault::FaultPlan> plan,
                          double timeout_s, bool shrink_first) {
  mpi::Engine engine(recovery_config(nranks, std::move(plan)));
  mpit::Runtime tool(engine);
  GatherCost cost;
  engine.run([&](mpi::Ctx& ctx) {
    mpi::Comm comm = ctx.world();
    mpi::comm_set_errhandler(comm, mpi::ErrMode::ret);
    MPI_M_init();
    MPI_M_set_gather_timeout(timeout_s);
    warm_clock(ctx, 200);  // crash/stall triggers in here
    if (shrink_first) comm = mpi::comm_shrink(ctx.world());
    MPI_M_msid id = -1;
    if (MPI_M_start(comm, &id) != MPI_M_SUCCESS) std::abort();
    warm_clock(ctx, 10);
    MPI_M_suspend(id);
    const int n = mpi::comm_size(comm);
    std::vector<unsigned long> counts(static_cast<std::size_t>(n) *
                                      static_cast<std::size_t>(n));
    const auto t0 = std::chrono::steady_clock::now();
    const int rc = MPI_M_allgather_data(id, counts.data(), MPI_M_DATA_IGNORE,
                                        MPI_M_ALL_COMM);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (ctx.world_rank() == 0) {
      cost.wall_s = wall;
      cost.rc = rc;
    }
    MPI_M_free(id);
    MPI_M_finalize();
  });
  return cost;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  const std::vector<int> sizes =
      opt.quick ? std::vector<int>{8, 16} : std::vector<int>{8, 16, 32};
  const int reps = opt.quick ? 2 : 3;

  bench::banner("time-to-recover: comm_shrink after one crash (best of " +
                std::to_string(reps) + ")");
  Table shrink_t({"ranks", "shrink_virtual_us", "run_wall_ms"});
  for (int n : sizes) {
    ShrinkCost best = measure_shrink(n);
    for (int r = 1; r < reps; ++r) {
      const ShrinkCost c = measure_shrink(n);
      best.wall_s = std::min(best.wall_s, c.wall_s);
      best.virtual_s = c.virtual_s;  // deterministic: same every rep
    }
    shrink_t.add(n, format_sig(best.virtual_s * 1e6, 4),
                 format_sig(best.wall_s * 1e3, 4));
  }
  shrink_t.print(std::cout);
  bench::maybe_csv(opt, shrink_t, "recovery_shrink");

  bench::banner("post-failure gather latency on the root (8 ranks)");
  const int n = 8;
  const double timeout_s = 0.2;
  Table gather_t({"scenario", "gather_wall_ms", "rc"});

  // The pre-recovery path: a stalled (not dead) contributor forces the
  // gather to wait out the full recovery timeout.
  auto stall = std::make_shared<fault::FaultPlan>(/*seed=*/1);
  stall->add(fault::RankFault{.rank = kVictim,
                              .stall_at_s = 1e-5,
                              .stall_virtual_s = 0.0,
                              .stall_wall_s = 1.0});
  const GatherCost to = measure_gather(n, stall, timeout_s, false);
  gather_t.add("stall_timeout", format_sig(to.wall_s * 1e3, 4), to.rc);

  // The recovery path: the engine knows the contributor is dead and the
  // gather skips its row with zero stall.
  const GatherCost skip =
      measure_gather(n, crash_plan(1e-5), timeout_s, false);
  gather_t.add("crash_deadskip", format_sig(skip.wall_s * 1e3, 4), skip.rc);

  // Fully recovered: gather on the shrunk communicator is complete again.
  const GatherCost clean =
      measure_gather(n, crash_plan(1e-5), timeout_s, true);
  gather_t.add("post_shrink", format_sig(clean.wall_s * 1e3, 4), clean.rc);

  gather_t.print(std::cout);
  bench::maybe_csv(opt, gather_t, "recovery_gather");

  const bool ok = to.rc == MPI_M_PARTIAL_DATA &&
                  skip.rc == MPI_M_PARTIAL_DATA && clean.rc == MPI_M_SUCCESS &&
                  to.wall_s >= timeout_s && skip.wall_s < timeout_s / 2;
  std::cout << "\nacceptance: timeout path waited >= " << timeout_s
            << " s, dead-skip did not, post-shrink gather is complete: "
            << (ok ? "ok" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
