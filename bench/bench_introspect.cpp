// Time-resolved introspection, Fig. 2: the Section 6.1 burst/sleep
// generator monitored by a 10 ms windowed snapshot. The per-window
// matrices gathered with MPI_M_get_frames must reproduce the generator's
// own 10 ms introspection series bin for bin, and the phase detector must
// flag every burst <-> sleep edge. The frames land in
// <csv>/fig2_frames.csv, which `monview --timeline` renders as the
// per-window heatmap. That a snapshot charges no virtual time, and what it
// costs the host per send, is bench_layers' snapshot row.
#include <cstdio>

#include "apps/traffic.h"
#include "bench_common.h"
#include "introspect/analyzer.h"
#include "mpimon/mpi_monitoring.h"
#include "mpimon/session.hpp"

int main(int argc, char** argv) {
  using namespace mpim;
  const auto opt = bench::parse_options(argc, argv);

  bench::banner("Fig. 2 time-resolved: 10 ms windows vs generator series");
  apps::TrafficConfig cfg;
  cfg.duration_s = opt.quick ? 5.0 : 40.0;
  const int max_frames = opt.quick ? 1024 : 8192;

  auto ecfg = bench::plafrim_config(2, 2);
  ecfg.placement = {0, 24};  // one rank per node, like the paper's pair
  Sim sim(std::move(ecfg));

  apps::TrafficSeries series;
  std::vector<introspect::FrameMatrix> frames;
  int boundaries_on_rank0 = 0;
  sim.run([&](mpi::Ctx& ctx) {
    const mpi::Comm world = ctx.world();
    mon::Environment env;
    mon::Session session(world);
    session.snapshot_start(cfg.sample_period_s, max_frames);

    // The generator runs its own session with 10 ms read-and-reset
    // sampling; the windowed snapshot observes the same traffic passively.
    auto s = apps::run_traffic_generator(world, cfg);

    session.suspend();
    if (ctx.world_rank() == 0) {
      series = std::move(s);
      boundaries_on_rank0 = session.snapshot_info().phase_boundaries;
    }
    auto f = session.gather_frames(max_frames, MPI_M_ALL_COMM);
    if (ctx.world_rank() == 0) frames = std::move(f);
    session.snapshot_stop();
  });

  // Bin-for-bin agreement: frame window w holds exactly what the
  // generator's sample w read with the reset feature.
  std::size_t mismatched = 0;
  std::uint64_t frame_total = 0;
  std::vector<std::uint64_t> per_window(series.introspection.size(), 0);
  for (const introspect::FrameMatrix& f : frames) {
    std::uint64_t w_bytes = 0;
    for (unsigned long v : f.bytes.flat()) w_bytes += v;
    frame_total += w_bytes;
    if (f.window >= 0 &&
        static_cast<std::size_t>(f.window) < per_window.size())
      per_window[static_cast<std::size_t>(f.window)] = w_bytes;
  }
  for (std::size_t w = 0; w < series.introspection.size(); ++w)
    if (per_window[w] != series.introspection[w].bytes) ++mismatched;

  // Every burst <-> sleep edge must carry a phase-boundary flag (extra
  // flags on large burst-size jumps are legitimate).
  const auto metrics = introspect::analyze_windows(frames);
  std::size_t edges = 0, edges_flagged = 0;
  for (std::size_t i = 1; i < metrics.size(); ++i) {
    const bool was = metrics[i - 1].bytes != 0, is = metrics[i].bytes != 0;
    if (was == is) continue;
    ++edges;
    if (metrics[i].boundary) ++edges_flagged;
  }

  Table t({"check", "value"});
  t.add("windows gathered", frames.size());
  t.add("generator samples", series.introspection.size());
  t.add("mismatched bins", mismatched);
  t.add("bytes (frames)", frame_total);
  t.add("bytes (sent)", series.total_sent_bytes);
  t.add("burst/sleep edges", edges);
  t.add("edges phase-flagged", edges_flagged);
  t.add("boundaries (sampler)", boundaries_on_rank0);
  t.print(std::cout);
  const bool ok = mismatched == 0 && frame_total == series.total_sent_bytes &&
                  edges != 0 && edges_flagged == edges;
  if (!ok) {
    std::printf("FAIL: windowed frames disagree with the generator series\n");
  } else {
    std::printf("frames reproduce the burst schedule, all %zu edges "
                "phase-flagged\n", edges);
  }
  bench::maybe_csv(opt, t, "introspect_fig2_checks");
  if (opt.csv_dir) {
    const std::string path = *opt.csv_dir + "/fig2_frames.csv";
    introspect::write_frames_csv_file(path, frames);
    std::printf("frames written to %s (render: monview --timeline %s)\n",
                path.c_str(), path.c_str());
  }

  return ok ? 0 : 1;
}
