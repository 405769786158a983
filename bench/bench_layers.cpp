// Layer overhead: what each monitoring layer costs the host per message,
// as a ratio to an unmonitored control timed in the same process.
//
// Two engine paths carry the messages, at 2 and 8 ranks:
//
//   hook       self rma_transfer: no mailbox, no payload, no receive, so
//              the observer hooks dominate the per-message cost
//   roundtrip  p2p self-roundtrip (send_bytes + recv_bytes): the full
//              transport, where a hook is one ingredient among several
//
// and every path runs the same rows:
//
//   absent     engine only, no observer attached (the control)
//   idle       mpit runtime attached, no session: the always-on state
//   sessions*  that many live MPI_M sessions on MPI_COMM_WORLD
//   snapshot   one session plus a 1 ms windowed snapshot
//   critpath   the critical-path profiler
//   telemetry  telemetry enabled (the MPIM_TELEMETRY state)
//   plane      telemetry plus the streaming plane
//
// Each row is k pairs of whole runs, (row, absent) in alternating order,
// interleaved across rows so host drift reaches every row alike. A row
// reports its median ns/send, the mean of its k per-pair ratios to absent
// and that ratio's 95% Student-t interval (support/stats, as in Fig. 4);
// scripts/bench_trend.py gates the interval against the committed ratio.
// Runs use the fiber backend: one scheduler thread times the same
// instruction path each run, where the thread backend's condvar hand-offs
// swing run to run by more than a layer costs.
//
// The model charges every record a session makes, so the session rows
// move virtual time by design. Every other row adds one layer that records
// nothing to a row without it (snapshot to sessions1, the rest to absent)
// and must end at that row's final clocks; a row that does not leaked its
// layer into virtual time and fails the run (exit 1).
//
// layer_checks:
//   plane_overhead_pct_t8   the streaming plane's budget: best wall of the
//                           plane over the telemetry state, hook path, 8
//                           rank threads (the thread backend, where the
//                           plane's rings and drains cross threads), <= 5
//                           (PASS/FAIL, a warning only)
//   clocks_identical        every run ends at its row's clocks, and each
//                           row at its partner's
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "critpath/critpath.h"
#include "mpimon/mpi_monitoring.h"
#include "obsplane/plane.h"
#include "support/stats.h"

namespace {

using namespace mpim;

mpi::EngineConfig layer_config(int nranks, mpi::SchedMode sched) {
  // Contention model off: the rows isolate host-side software cost.
  auto cost = net::CostModel::plafrim_like(bench::nodes_for_ranks(nranks));
  auto placement = topo::round_robin_placement(nranks, cost.topology());
  mpi::EngineConfig cfg{.cost_model = std::move(cost),
                        .placement = std::move(placement)};
  cfg.watchdog_wall_timeout_s = 120.0;
  cfg.sched = sched;
  return cfg;
}

enum class Path { hook, roundtrip };

struct Row {
  const char* name;
  int sessions = 0;
  bool runtime = false;
  bool snapshot = false;
  bool critpath = false;
  bool telemetry = false;
  bool plane = false;
  /// The row this one must end at the clocks of; none for session rows.
  const char* clocks_as = "absent";
};

constexpr Row kAbsent{.name = "absent"};
constexpr Row kTelemetry{.name = "telemetry", .telemetry = true};
constexpr Row kPlane{.name = "plane", .telemetry = true, .plane = true};
const std::vector<Row> kRows = {
    {.name = "idle", .runtime = true},
    {.name = "sessions1", .sessions = 1, .runtime = true, .clocks_as = nullptr},
    {.name = "sessions4", .sessions = 4, .runtime = true, .clocks_as = nullptr},
    {.name = "sessions16", .sessions = 16, .runtime = true,
     .clocks_as = nullptr},
    {.name = "snapshot", .sessions = 1, .runtime = true, .snapshot = true,
     .clocks_as = "sessions1"},
    {.name = "critpath", .critpath = true},
    kTelemetry,
    kPlane,
};

struct Run {
  double wall_s = 0.0;
  std::vector<double> clocks;
};

Run run_once(Path path, const Row& row, int nranks, int iters,
             mpi::SchedMode sched = mpi::SchedMode::fibers) {
  mpi::Engine engine(layer_config(nranks, sched));
  std::optional<mpit::Runtime> tool;
  if (row.runtime) tool.emplace(engine);
  if (row.telemetry) engine.telemetry().set_enabled(true);
  if (row.critpath) critpath::Profiler::attach(engine);
  if (row.plane) obsplane::Plane::attach(engine, {});

  const auto t0 = std::chrono::steady_clock::now();
  engine.run([&](mpi::Ctx& ctx) {
    std::vector<MPI_M_msid> ids(static_cast<std::size_t>(row.sessions), -1);
    if (row.sessions > 0) MPI_M_init();
    for (MPI_M_msid& id : ids) MPI_M_start(ctx.world(), &id);
    if (row.snapshot)
      MPI_M_snapshot_start(ids[0], /*window_s=*/1e-3, /*max_frames=*/64,
                           MPI_M_ALL_COMM);
    const mpi::Comm world = ctx.world();
    const int me = ctx.world_rank();
    char buf[8] = {0};
    for (int i = 0; i < iters; ++i) {
      if (path == Path::hook) {
        ctx.rma_transfer(me, me, world, sizeof buf);
      } else {
        ctx.send_bytes(me, world, 7, mpi::CommKind::p2p, buf, sizeof buf);
        ctx.recv_bytes(me, world, 7, mpi::CommKind::p2p, buf, sizeof buf);
      }
    }
    for (MPI_M_msid id : ids) {
      MPI_M_suspend(id);
      MPI_M_free(id);
    }
    if (row.sessions > 0) MPI_M_finalize();
  });
  return {std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count(),
          engine.final_clocks()};
}

struct RowResult {
  std::vector<double> ns;      ///< per run, ns/send
  std::vector<double> ratios;  ///< per pair, row / absent
  std::vector<double> clocks;  ///< final clocks of the first run
  bool clocks_ok = true;       ///< see clocks_identical

  void add_run(const Run& run, double per_send) {
    ns.push_back(run.wall_s * per_send);
    if (clocks.empty()) clocks = run.clocks;
    clocks_ok = clocks_ok && run.clocks == clocks;
  }
};

/// The layer table of one path; returns each row's result by its label
/// (absent's ratios stay empty).
std::map<std::string, RowResult> sweep(
    Path path, const char* table_name, const bench::Options& opt, int pairs,
    int sends) {
  Table t({"config", "ranks", "pairs", "ns_per_send", "ratio", "ratio_ci95"});
  std::map<std::string, RowResult> out;
  for (int nranks : {2, 8}) {
    const int iters = sends / nranks;
    const double per_send = 1e9 / (static_cast<double>(iters) * nranks);
    RowResult absent;
    std::vector<RowResult> rows(kRows.size());
    for (int k = 0; k < pairs; ++k) {
      for (std::size_t r = 0; r < kRows.size(); ++r) {
        // Alternate which side of the pair runs first.
        Run base, layer;
        if (k % 2 == 0) {
          base = run_once(path, kAbsent, nranks, iters);
          layer = run_once(path, kRows[r], nranks, iters);
        } else {
          layer = run_once(path, kRows[r], nranks, iters);
          base = run_once(path, kAbsent, nranks, iters);
        }
        absent.add_run(base, per_send);
        rows[r].add_run(layer, per_send);
        rows[r].ratios.push_back(layer.wall_s / base.wall_s);
      }
    }
    std::map<std::string, const RowResult*> by_name{{kAbsent.name, &absent}};
    for (std::size_t r = 0; r < kRows.size(); ++r)
      by_name[kRows[r].name] = &rows[r];
    for (std::size_t r = 0; r < kRows.size(); ++r)
      if (const char* partner = kRows[r].clocks_as)
        rows[r].clocks_ok =
            rows[r].clocks_ok && rows[r].clocks == by_name.at(partner)->clocks;
    const std::string suffix = "/t" + std::to_string(nranks);
    t.add("absent" + suffix, nranks, pairs,
          format_sig(stats::median(absent.ns), 4), 1, "-");
    out.emplace("absent" + suffix, std::move(absent));
    for (std::size_t r = 0; r < kRows.size(); ++r) {
      const bench::Estimate e = bench::estimate(rows[r].ratios);
      t.add(kRows[r].name + suffix, nranks, pairs,
            format_sig(stats::median(rows[r].ns), 4), format_sig(e.mean, 4),
            format_sig(e.ci95, 3));
      out.emplace(kRows[r].name + suffix, std::move(rows[r]));
    }
  }
  t.print(std::cout);
  bench::maybe_csv(opt, t, table_name);
  return out;
}

/// The plane's budget: the best wall of reps in the telemetry state, then
/// the best of reps in the plane state, hook path, 8 rank threads (where
/// the plane's rings and drains cross threads); returns both in ns/send.
std::vector<double> plane_budget_ns(const bench::Options& opt) {
  const int nranks = 8;
  const int iters = (opt.quick ? 160000 : 640000) / nranks;
  const auto best_ns = [&](const Row& row) {
    double best = 1e300;
    for (int r = 0; r < (opt.quick ? 3 : 5); ++r)
      best = std::min(best, run_once(Path::hook, row, nranks, iters,
                                     mpi::SchedMode::threads)
                                .wall_s);
    return best * 1e9 / (static_cast<double>(iters) * nranks);
  };
  const double base = best_ns(kTelemetry);
  return {base, best_ns(kPlane)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  const int pairs = opt.quick ? 20 : 30;
  const int sends = opt.quick ? 200000 : 800000;

  // In a process of its own: thread runs leave per-thread malloc arenas
  // behind that slow the fiber rows' allocations, and fiber runs leave the
  // thread runs slower and several times noisier.
  bench::banner("streaming plane budget (8 rank threads, hook path)");
  const std::vector<double> budget = bench::process_samples(
      1, [&] { return plane_budget_ns(opt); })[0];
  const double plane_pct = (budget[1] / budget[0] - 1.0) * 100.0;
  std::printf("telemetry %.4g, plane %.4g ns per send\n", budget[0],
              budget[1]);

  bench::banner("hook path (self rma_transfer), " + std::to_string(pairs) +
                " pairs per row");
  const auto hook = sweep(Path::hook, "layers_hook", opt, pairs, sends);

  bench::banner("transport path (p2p self-roundtrips), " +
                std::to_string(pairs) + " pairs per row");
  const auto trip = sweep(Path::roundtrip, "layers_roundtrip", opt, pairs,
                          sends);

  bool clocks_ok = true;
  for (const auto* rows : {&hook, &trip})
    for (const auto& [name, r] : *rows) clocks_ok = clocks_ok && r.clocks_ok;

  Table checks({"check", "value", "limit", "status"});
  checks.add("plane_overhead_pct_t8", format_sig(plane_pct, 3), 5.0,
             plane_pct <= 5.0 ? "PASS" : "FAIL");
  checks.add("clocks_identical", clocks_ok ? 1 : 0, 1,
             clocks_ok ? "PASS" : "FAIL");
  checks.print(std::cout);
  bench::maybe_csv(opt, checks, "layer_checks");
  if (plane_pct > 5.0)
    std::fprintf(stderr,
                 "bench_layers: WARNING: plane hook overhead %.2f%% at 8 "
                 "rank threads exceeds the 5%% budget\n",
                 plane_pct);
  return clocks_ok ? 0 : 1;
}
